#include "checks.h"

#include <cmath>
#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "core/types.h"
#include "native/cf.h"

namespace mazebench {

namespace {

bool Fail(std::string* why, const std::string& text) {
  if (why != nullptr) *why = text;
  return false;
}

}  // namespace

bool PageRankMatches(const std::vector<double>& got,
                     const std::vector<double>& reference, std::string* why) {
  if (got.size() != reference.size()) {
    return Fail(why, "pagerank: " + std::to_string(got.size()) +
                         " ranks, reference has " +
                         std::to_string(reference.size()));
  }
  for (size_t v = 0; v < got.size(); ++v) {
    double scale = std::max(1.0, std::fabs(reference[v]));
    if (!(std::fabs(got[v] - reference[v]) <= 1e-9 * scale)) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "pagerank: vertex %zu is %.17g, want %.17g",
                    v, got[v], reference[v]);
      return Fail(why, buf);
    }
  }
  return true;
}

bool BfsMatches(const std::vector<uint32_t>& got,
                const std::vector<uint32_t>& reference, std::string* why) {
  if (got.size() != reference.size()) {
    return Fail(why, "bfs: " + std::to_string(got.size()) +
                         " distances, reference has " +
                         std::to_string(reference.size()));
  }
  for (size_t v = 0; v < got.size(); ++v) {
    if (got[v] != reference[v]) {
      return Fail(why, "bfs: vertex " + std::to_string(v) + " at distance " +
                           std::to_string(got[v]) + ", want " +
                           std::to_string(reference[v]));
    }
  }
  return true;
}

bool TrianglesMatch(uint64_t got, uint64_t reference, std::string* why) {
  if (got == reference) return true;
  return Fail(why, "triangles: counted " + std::to_string(got) + ", want " +
                       std::to_string(reference));
}

bool CfImproves(const maze::rt::CfResult& got, double initial_rmse,
                std::string* why) {
  if (std::isfinite(got.final_rmse) && got.final_rmse < initial_rmse) {
    return true;
  }
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "cf: final rmse %.17g is not below initial %.17g",
                got.final_rmse, initial_rmse);
  return Fail(why, buf);
}

bool PayloadMatches(const std::string& got, const std::string& expected,
                    std::string* why) {
  if (got == expected) return true;
  size_t i = 0;
  while (i < got.size() && i < expected.size() && got[i] == expected[i]) ++i;
  return Fail(why, "payload differs from the solo fresh execution at byte " +
                       std::to_string(i) + " (" + std::to_string(got.size()) +
                       " vs " + std::to_string(expected.size()) + " bytes)");
}

bool PayloadClose(const std::string& got, const std::string& expected,
                  std::string* why) {
  size_t i = 0, j = 0;
  auto next = [](const std::string& s, size_t* pos) {
    auto space = [&](size_t p) {
      return std::isspace(static_cast<unsigned char>(s[p])) != 0;
    };
    while (*pos < s.size() && space(*pos)) ++*pos;
    size_t start = *pos;
    while (*pos < s.size() && !space(*pos)) ++*pos;
    return s.substr(start, *pos - start);
  };
  while (true) {
    std::string a = next(got, &i), b = next(expected, &j);
    if (a.empty() && b.empty()) return true;
    if (a == b) continue;
    char* end_a = nullptr;
    char* end_b = nullptr;
    double x = std::strtod(a.c_str(), &end_a);
    double y = std::strtod(b.c_str(), &end_b);
    if (a.empty() || b.empty() || *end_a != '\0' || *end_b != '\0' ||
        !(std::fabs(x - y) <= 1e-9 * std::max(1.0, std::fabs(y)))) {
      return Fail(why, "payload token '" + a + "' differs from '" + b +
                           "' of the solo fresh execution");
    }
  }
}

double InitialCfRmse(const maze::BipartiteGraph& ratings,
                     const maze::rt::CfOptions& options) {
  // The initialization every engine shares (native/cf.cc).
  std::vector<double> users, items;
  maze::native::CfInitFactors(ratings.num_users(), options.k, options.seed,
                              &users);
  maze::native::CfInitFactors(ratings.num_items(), options.k,
                              options.seed ^ 0x1234567ull, &items);
  return maze::native::CfRmse(ratings, users, items, options.k);
}

uint64_t Reached(const std::vector<uint32_t>& distance) {
  uint64_t n = 0;
  for (uint32_t d : distance) n += d != maze::kInfiniteDistance;
  return n;
}

}  // namespace mazebench
