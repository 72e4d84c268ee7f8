// Shared plumbing of the repository benchmark: command-line options, clocks
// and order statistics, the in-memory span tracer, seeded randomness, the
// host fingerprint, and the result report that prints the final JSON line.
//
// The benchmark drives maze only through public entry points and times every
// call from outside; nothing here reaches into the library's internals.
#ifndef MAZEBENCH_HARNESS_H_
#define MAZEBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace mazebench {

// --- Options -----------------------------------------------------------------

struct Options {
  std::string workload;  // grid_r1 | grid_r4 | serve_mix
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Corrupts one answer before it is checked: the self-test's proof that the
  // checks can fail and error_rate then reads above zero.
  bool inject_wrong_answer = false;
  std::string out_dir = ".bench_out";
};

// Parses argv; returns false (after printing why) on a malformed command line.
bool ParseOptions(int argc, char** argv, Options* options);

// --- Clocks and statistics ---------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double SecondsSince(Clock::time_point t0) {
  return SecondsBetween(t0, Clock::now());
}

// Linear-interpolated quantile q in [0, 1] of `values` (0 when empty).
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

// --- Seeded randomness -------------------------------------------------------

// Stable per-purpose seed: the same (--seed, purpose) always yields the same
// stream, and different purposes are uncorrelated.
uint64_t DeriveSeed(uint64_t seed, uint64_t purpose);

// Zipf(s) probabilities of ranks [0, n): rank 0 is the most popular.
std::vector<double> ZipfWeights(size_t n, double s);

// --- Span tracer -------------------------------------------------------------
//
// Spans are recorded in memory around each call into a maze layer and written
// out when the run ends. A span's parent is the innermost open span on the
// same thread. Self time = duration minus the part covered by child spans.

class Tracer {
 public:
  static Tracer& Get();

  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Scoped span; records nothing while the tracer is disabled.
  class Scope {
   public:
    Scope(const char* name, const char* layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    int id_ = -1;
  };

  // Self seconds per layer over every recorded span.
  std::map<std::string, double> SelfSecondsByLayer() const;
  // Self seconds of `layer` divided by the total duration of root spans named
  // `root_name`: the share of the measured window no layer span accounts for.
  double SelfFraction(const char* layer, const char* root_name) const;

  // Chrome trace JSON ("X" events, one tid per recording thread).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    const char* layer;
    int parent;
    int tid;
    double t0_us;
    double t1_us;  // < 0 while open.
  };
  int Begin(const char* name, const char* layer);
  void End(int id);

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // Guarded by mu_.
  Clock::time_point epoch_ = Clock::now();
};

#define MAZEBENCH_CONCAT_INNER_(a, b) a##b
#define MAZEBENCH_CONCAT_(a, b) MAZEBENCH_CONCAT_INNER_(a, b)
#define MAZEBENCH_SPAN(name, layer)                                  \
  ::mazebench::Tracer::Scope MAZEBENCH_CONCAT_(mazebench_span_, \
                                               __LINE__)(name, layer)

// --- Result report -----------------------------------------------------------

// The four study algorithms of the grids, in cell order.
inline constexpr const char* kStudyAlgos[] = {"pagerank", "bfs", "triangles",
                                              "cf"};

// The metric names BENCHMARK.json lists; every run reports exactly one of the
// two sets (end-to-end untraced, per-layer traced).
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

class Report {
 public:
  explicit Report(const Options& options) : options_(options) {}

  void Set(const std::string& name, double value);
  // Adds one attempted operation; `ok` false counts it as failed.
  void Attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  void AddAttempts(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  // A check that is not about one answer (a count that must be nonzero, a
  // wire term that must be zero): the run is marked incorrect.
  void Problem(const std::string& what);
  // Free-form line kept with the result (sample counts, flags).
  void Note(const std::string& line) { notes_.push_back(line); }

  double ErrorRate() const {
    return attempted_ == 0 ? 1.0
                           : static_cast<double>(failed_) / attempted_;
  }

  // Prints the human-readable report, writes the result file, and prints the
  // final JSON line. Returns the process exit code: 0 only for a correct run.
  int Finish();

 private:
  Options options_;
  std::map<std::string, double> values_;
  std::vector<std::string> problems_;
  std::vector<std::string> notes_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// nproc, last-level cache, compiler, build type and seed as one JSON object.
std::string HostFingerprintJson(uint64_t seed);

// Process high-water resident set, MiB.
double PeakRssMb();

}  // namespace mazebench

#endif  // MAZEBENCH_HARNESS_H_
