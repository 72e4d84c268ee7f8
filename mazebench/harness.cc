#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench_support/runner.h"
#include "util/prng.h"

namespace mazebench {

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "mazebench: %s needs a value\n", flag.c_str());
        return false;
      }
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (flag == "--inject-wrong-answer") {
      options->inject_wrong_answer = true;
      continue;
    }
    if (!value(&v)) return false;
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = v;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(v.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(v.c_str(), &end);
    } else if (flag == "--trace") {
      options->trace = std::strtol(v.c_str(), &end, 10) != 0;
    } else if (flag == "--out-dir") {
      options->out_dir = v;
    } else {
      std::fprintf(stderr, "mazebench: unknown flag %s\n", flag.c_str());
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "mazebench: bad value for %s: %s\n", flag.c_str(),
                   v.c_str());
      return false;
    }
  }
  if (options->workload != "grid_r1" && options->workload != "grid_r4" &&
      options->workload != "serve_mix") {
    std::fprintf(stderr,
                 "mazebench: --workload must be grid_r1, grid_r4 or "
                 "serve_mix\n");
    return false;
  }
  if (!(options->seconds > 0) || options->seconds > 600) {
    std::fprintf(stderr, "mazebench: --seconds must be in (0, 600]\n");
    return false;
  }
  return true;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(values.size() - 1, lo + 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t purpose) {
  uint64_t state = seed * 0x100000001B3ull ^ purpose;
  maze::SplitMix64(state);
  return maze::SplitMix64(state);
}

std::vector<double> ZipfWeights(size_t n, double s) {
  std::vector<double> weights(n);
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    weights[i] = 1.0 / std::pow(static_cast<double>(i + 1), s);
    total += weights[i];
  }
  for (double& w : weights) w /= total;
  return weights;
}

// --- Tracer ------------------------------------------------------------------

namespace {
thread_local std::vector<int> tls_open_spans;
thread_local int tls_tid = -1;
std::atomic<int> g_next_tid{0};
}  // namespace

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Tracer::Scope::Scope(const char* name, const char* layer) {
  Tracer& t = Tracer::Get();
  if (t.enabled()) id_ = t.Begin(name, layer);
}

Tracer::Scope::~Scope() {
  if (id_ >= 0) Tracer::Get().End(id_);
}

int Tracer::Begin(const char* name, const char* layer) {
  if (tls_tid < 0) tls_tid = g_next_tid.fetch_add(1);
  double now = std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
                   .count();
  int parent = tls_open_spans.empty() ? -1 : tls_open_spans.back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, layer, parent, tls_tid, now, -1});
  int id = static_cast<int>(spans_.size()) - 1;
  tls_open_spans.push_back(id);
  return id;
}

void Tracer::End(int id) {
  double now = std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
                   .count();
  if (!tls_open_spans.empty() && tls_open_spans.back() == id) {
    tls_open_spans.pop_back();
  }
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].t1_us = now;
}

std::map<std::string, double> Tracer::SelfSecondsByLayer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> self(spans_.size(), 0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.t1_us < 0) continue;
    double dur = s.t1_us - s.t0_us;
    self[i] += dur;
    if (s.parent >= 0) self[static_cast<size_t>(s.parent)] -= dur;
  }
  std::map<std::string, double> by_layer;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].t1_us < 0) continue;
    by_layer[spans_[i].layer] += self[i] * 1e-6;
  }
  return by_layer;
}

double Tracer::SelfFraction(const char* layer, const char* root_name) const {
  double root_us = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& s : spans_) {
      if (s.t1_us >= 0 && std::strcmp(s.name, root_name) == 0) {
        root_us += s.t1_us - s.t0_us;
      }
    }
  }
  if (root_us <= 0) return 0;
  auto by_layer = SelfSecondsByLayer();
  return by_layer[layer] * 1e6 / root_us;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"traceEvents\": [\n";
  bool first = true;
  for (const Span& s : spans_) {
    if (s.t1_us < 0) continue;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f}",
                  first ? "" : ",\n", s.name, s.layer, s.tid, s.t0_us,
                  s.t1_us - s.t0_us);
    out << line;
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// --- Metric catalogue --------------------------------------------------------

namespace {

std::vector<std::pair<std::string, std::string>> BuildPerLayer() {
  std::vector<std::pair<std::string, std::string>> m = {
      {"core.generate_s", "s"},    {"core.dedup_s", "s"},
      {"core.symmetrize_s", "s"},  {"core.orient_s", "s"},
      {"core.graph_build_s", "s"},
  };
  for (maze::bench::EngineKind e : maze::bench::AllEngines()) {
    std::string name = maze::bench::EngineName(e);
    for (const char* algo : kStudyAlgos) {
      m.push_back({name + "." + algo + "_s", "s"});
    }
  }
  for (maze::bench::EngineKind e : maze::bench::AllEngines()) {
    std::string name = maze::bench::EngineName(e);
    m.push_back({name + ".modeled_s", "s"});
    m.push_back({name + ".mem_peak_mb", "MiB"});
    m.push_back({name + ".msgbuf_mb", "MiB"});
  }
  const std::vector<std::pair<std::string, std::string>> rest = {
      {"bsp.boxed_requests", "count"},
      {"bsp.slab_allocations", "count"},
      {"rt.bytes_sent", "count"},
      {"rt.messages_sent", "count"},
      {"rt.steps", "count"},
      {"rt.critical_compute_s", "s"},
      {"rt.critical_wire_s", "s"},
      {"rt.imbalance_s", "s"},
      {"serve.submit_us_p99", "us"},
      {"serve.queue_wait_ms_p99", "ms"},
      {"serve.queue_peak", "count"},
      {"serve.exec_ms_p50", "ms"},
      {"serve.exec_ms_p99", "ms"},
      {"serve.hit_rate", "ratio"},
      {"serve.dedup_rate", "ratio"},
      {"serve.install_ms", "ms"},
      {"serve.reject_rate", "ratio"},
      {"serve.expire_rate", "ratio"},
      {"serve.bill_wire_bytes", "count"},
      {"loadgen.lag_p99_ms", "ms"},
      {"obs.scrape_ms", "ms"},
      {"obs.trace_overhead_frac", "ratio"},
      {"obs.unattributed_frac", "ratio"},
      {"obs.dropped_events", "count"},
      {"self.core_s", "s"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  for (maze::bench::EngineKind e : maze::bench::AllEngines()) {
    m.push_back(
        {std::string("self.") + maze::bench::EngineName(e) + "_s", "s"});
  }
  m.push_back({"self.serve_s", "s"});
  m.push_back({"self.obs_s", "s"});
  return m;
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const auto* metrics = [] {
    auto* m = new std::vector<std::pair<std::string, std::string>>{
        {"setup_s", "s"}};
    for (maze::bench::EngineKind e : maze::bench::AllEngines()) {
      m->push_back({std::string(maze::bench::EngineName(e)) + "_s", "s"});
    }
    m->insert(m->end(), {{"modeled_s", "s"},
                         {"peak_rss_mb", "MiB"},
                         {"success_rate", "ratio"},
                         {"lat_p50_ms", "ms"},
                         {"lat_p99_ms", "ms"},
                         {"lat_p99_ms_peak", "ms"}});
    return m;
  }();
  return *metrics;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const auto* metrics =
      new std::vector<std::pair<std::string, std::string>>(BuildPerLayer());
  return *metrics;
}

// --- Report ------------------------------------------------------------------

void Report::Set(const std::string& name, double value) {
  values_[name] = value;
}

void Report::Problem(const std::string& what) {
  problems_.push_back(what);
  std::fprintf(stderr, "mazebench: CHECK FAILED: %s\n", what.c_str());
}

namespace {

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

}  // namespace

int Report::Finish() {
  const auto& catalogue =
      options_.trace ? PerLayerMetrics() : EndToEndMetrics();
  // End-to-end error accounting is printed even though BENCHMARK.json gates
  // its complement (success_rate), which is never zero.
  values_["success_rate"] = 1.0 - ErrorRate();
  std::string metrics_json;
  for (const auto& [name, unit] : catalogue) {
    auto it = values_.find(name);
    if (it == values_.end()) {
      // A metric the workload has no layer for reads 0 (per-layer only).
      if (!options_.trace) {
        std::fprintf(stderr, "mazebench: metric %s was not measured\n",
                     name.c_str());
        return 3;
      }
      it = values_.emplace(name, 0.0).first;
    }
    std::printf("metric %-28s %22s %s\n", name.c_str(), Num(it->second).c_str(),
                unit.c_str());
    if (!metrics_json.empty()) metrics_json += ", ";
    metrics_json += "\"" + name + "\": {\"value\": " + Num(it->second) +
                    ", \"unit\": \"" + unit + "\"}";
  }
  std::printf("error_rate %.17g (%llu failed of %llu attempted)\n", ErrorRate(),
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
  for (const std::string& n : notes_) std::printf("note %s\n", n.c_str());
  const bool correct = problems_.empty() && failed_ == 0 && attempted_ > 0;
  const std::string fingerprint = HostFingerprintJson(options_.seed);
  std::printf("fingerprint %s\n", fingerprint.c_str());

  std::string result = "{\"correct\": " +
                       std::string(correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted_) +
                       ", \"failed\": " + std::to_string(failed_) +
                       ", \"metrics\": {" + metrics_json + "}}";

  // The durable record: result, fingerprint, problems and notes together.
  std::error_code ec;
  std::filesystem::create_directories(options_.out_dir, ec);
  std::string path = options_.out_dir + "/result-" + options_.workload +
                     "-seed" + std::to_string(options_.seed) + "-trace" +
                     (options_.trace ? "1" : "0") + ".json";
  std::ofstream out(path);
  out << "{\"workload\": \"" << options_.workload << "\", \"seconds\": "
      << Num(options_.seconds) << ", \"fingerprint\": " << fingerprint
      << ", \"error_rate\": " << Num(ErrorRate()) << ", \"problems\": [";
  for (size_t i = 0; i < problems_.size(); ++i) {
    out << (i ? ", " : "") << "\"" << Escape(problems_[i]) << "\"";
  }
  out << "], \"notes\": [";
  for (size_t i = 0; i < notes_.size(); ++i) {
    out << (i ? ", " : "") << "\"" << Escape(notes_[i]) << "\"";
  }
  out << "], \"result\": " << result << "}\n";

  if (options_.trace) {
    const std::string trace_path = options_.out_dir + "/trace-" +
                                   options_.workload + "-seed" +
                                   std::to_string(options_.seed) + ".json";
    if (!Tracer::Get().WriteChromeTrace(trace_path)) {
      std::fprintf(stderr, "mazebench: could not write %s\n",
                   trace_path.c_str());
    }
  }

  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// --- Host --------------------------------------------------------------------

namespace {

int HostThreads() {
  long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

// Size of the highest-level data/unified cache cpu0 reports, in bytes.
uint64_t LastLevelCacheBytes() {
  uint64_t best = 0;
  int best_level = -1;
  for (int i = 0; i < 8; ++i) {
    std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    std::ifstream level_in(dir + "level"), size_in(dir + "size"),
        type_in(dir + "type");
    if (!level_in || !size_in) continue;
    int level = 0;
    std::string size, type;
    level_in >> level;
    size_in >> size;
    type_in >> type;
    if (type == "Instruction") continue;
    uint64_t bytes = std::strtoull(size.c_str(), nullptr, 10);
    if (!size.empty() && size.back() == 'K') bytes <<= 10;
    if (!size.empty() && size.back() == 'M') bytes <<= 20;
    if (level > best_level) {
      best_level = level;
      best = bytes;
    }
  }
#ifdef _SC_LEVEL3_CACHE_SIZE
  if (best == 0) {
    long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (l3 > 0) best = static_cast<uint64_t>(l3);
  }
#endif
  return best;
}

}  // namespace

std::string HostFingerprintJson(uint64_t seed) {
#if defined(__clang__)
  const char* compiler = "clang";
#elif defined(__GNUC__)
  const char* compiler = "gcc";
#else
  const char* compiler = "unknown";
#endif
#ifdef MAZEBENCH_BUILD_TYPE
  const char* build_type = MAZEBENCH_BUILD_TYPE;
#else
  const char* build_type = "unknown";
#endif
  std::ostringstream out;
  out << "{\"nproc\": " << HostThreads()
      << ", \"llc_bytes\": " << LastLevelCacheBytes() << ", \"compiler\": \""
      << compiler << " " << Escape(__VERSION__) << "\", \"build_type\": \""
      << build_type << "\", \"seed\": " << seed << "}";
  return out.str();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB.
}

}  // namespace mazebench
