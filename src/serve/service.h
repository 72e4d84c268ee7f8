// maze::serve::Service — long-lived, in-process concurrent query service
// (DESIGN.md §4e).
//
// The paper benchmarks one process running one algorithm once; the serving
// layer is the "heavy concurrent traffic" story on top of the same engines.
// A Service owns:
//
//   admission  — a bounded FIFO queue with backpressure: Submit() never
//                blocks; when the queue is at its configured depth, the
//                request is rejected immediately with kUnavailable, which is
//                the contract a closed-loop client needs to shed load.
//                Per-request deadlines bound queue wait: a flight whose every
//                joiner's deadline has passed is answered kDeadlineExceeded
//                instead of executed.
//   dedup      — identical in-flight requests (same canonical execution key)
//                collapse onto one execution; joiners wait on the same flight
//                and receive the same shared immutable result.
//   cache      — completed results are published to an LRU byte-budget cache
//                keyed by (snapshot epoch, algo, engine, canonical params),
//                so repeats after completion are served without executing.
//                Installing a new generation of a snapshot retires the cached
//                results of the generations it replaces.
//   schedule   — admitted flights are executed by dispatcher threads; the
//                engine work itself fans out on the PR 2 task scheduler
//                (ThreadPool::Default()), which supports any number of
//                concurrent parallel regions, so several requests really do
//                compute at once on one shared pool.
//
// Point lookups ("PageRank of vertex v") and top-k queries share the full
// run's execution key: they ride the same dedup/cache machinery and only
// differ in response extraction.
//
// Per-request observability: every execution is wrapped in an obs span and
// the admit/reject/dedup/hit counters and latency histograms are mirrored
// into the process-wide obs registry under "serve.*"; Report() renders the
// service-local stats as JSON or markdown.
#ifndef MAZE_SERVE_SERVICE_H_
#define MAZE_SERVE_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/types.h"
#include "obs/counters.h"
#include "serve/bill.h"
#include "serve/cache.h"
#include "serve/snapshot.h"
#include "util/status.h"

namespace maze::serve {

enum class QueryKind {
  kRun,    // Full algorithm run; payload is the canonical full answer.
  kPoint,  // One vertex's value from the underlying run.
  kTopK,   // The k highest-valued vertices from the underlying run.
};

// One client request. Unused parameter fields are ignored (and excluded from
// the canonical key) for algorithms that do not consume them.
struct Request {
  QueryKind kind = QueryKind::kRun;
  std::string snapshot;            // SnapshotRegistry name.
  std::string algo = "pagerank";   // pagerank|bfs|cc|triangles.
  std::string engine = "native";   // Any bench::EngineName.
  int ranks = 1;                   // Simulated cluster width.
  int iterations = 10;             // PageRank.
  VertexId source = 0;             // BFS source.
  VertexId vertex = 0;             // kPoint target.
  int k = 10;                      // kTopK size.
  // Admission budget in wall seconds from Submit(); 0 = no deadline. A flight
  // is expired (kDeadlineExceeded) only when every joined request's deadline
  // has passed before a dispatcher picks it up.
  double deadline_seconds = 0;
  // Fault plan for the underlying run (rt::fault::ParseFaultSpec grammar,
  // e.g. "seed=1,straggle=0x64"); empty = the process default (MAZE_FAULTS).
  // Part of the execution key: a faulted run never shares a cached clean
  // result. Engine payloads stay byte-identical under faults (the PR 4
  // differential guarantee); only modeled time changes, which is exactly what
  // the SLO-watchdog spike injection in bench_telemetry leans on.
  std::string faults;
};

struct Response {
  Status status = Status::OK();
  std::string payload;     // Canonical answer bytes; empty on error.
  std::string summary;     // One-line human summary.
  uint64_t epoch = 0;      // Snapshot epoch that produced the answer.
  bool cache_hit = false;  // Served from the completed-result cache.
  bool deduped = false;    // Joined another request's in-flight execution.
  double queue_seconds = 0;    // Submit -> execution start (0 for cache hits).
  double latency_seconds = 0;  // Submit -> response, wall clock.
  double modeled_seconds = 0;  // Simulated seconds of the underlying run.
  // Unique per Submit() (1-based, assigned at admission); recorded as an
  // exemplar on the serve.* histograms and tagged onto the execution's trace
  // span, so a latency outlier links back to its Perfetto slice.
  uint64_t request_id = 0;
  // Itemized resource bill: this request's marginal share of its execution
  // plus the full flight cost for context (bill.h amortization rules). Set on
  // every OK response — fresh, dedup-joined, or cache-hit — null on errors.
  std::shared_ptr<const QueryBill> bill;
};

// Monotonic service counters. After Drain(), the request-accounting identity
//   submitted == completed + failed + expired + rejected + invalid
// holds, as does
//   submitted == admitted_requests + dedup_joined + cache_hits
//                + rejected + invalid.
struct ServiceStats {
  uint64_t submitted = 0;      // Submit() calls.
  uint64_t rejected = 0;       // Backpressure: queue was at its bound.
  uint64_t shed = 0;           // Of rejected: due to SLO degradation, i.e.
                               // the full queue would have admitted them.
  uint64_t invalid = 0;        // Failed validation before admission.
  uint64_t cache_hits = 0;     // Served from the result cache.
  uint64_t dedup_joined = 0;   // Joined an in-flight identical execution.
  uint64_t admitted = 0;       // New flights enqueued.
  uint64_t executed = 0;       // Engine executions completed OK.
  uint64_t exec_failed = 0;    // Engine executions that returned an error.
  uint64_t completed = 0;      // Requests answered OK (all paths).
  uint64_t failed = 0;         // Requests answered with an execution error.
  uint64_t expired = 0;        // Requests answered kDeadlineExceeded.
  uint64_t queue_depth = 0;    // Current queue occupancy.
  uint64_t queue_peak = 0;     // High watermark of queue occupancy.
  uint64_t inflight = 0;       // Flights currently executing.
  ResultCache::Stats cache;
};

struct ServiceOptions {
  int workers = 2;               // Dispatcher threads.
  size_t queue_depth = 64;       // Admission bound (flights, not joiners).
  size_t cache_bytes = 64 << 20; // Result-cache byte budget.
  size_t bill_ring = 256;        // Flight-recorder capacity (recent bills).
};

// Rendered service-level statistics: counters, latency distributions, and the
// loaded snapshots. Produced by Service::Report().
struct ServiceReport {
  ServiceOptions options;
  ServiceStats stats;
  int degradation = 0;                // SLO degradation level at report time.
  obs::HistogramSnapshot latency;     // Request latency, microseconds.
  obs::HistogramSnapshot queue_wait;  // Admission-queue wait, microseconds.
  obs::HistogramSnapshot modeled;     // Modeled run time, microseconds.
  struct SnapshotRow {
    std::string name;
    uint64_t epoch = 0;
    uint64_t vertices = 0;
    uint64_t edges = 0;      // Directed-view edges.
    uint64_t bytes = 0;      // All prebuilt views.
  };
  std::vector<SnapshotRow> snapshots;
  // Both sides of the conservation ledger (flights executed vs. requests
  // billed) and the most expensive recent bills by canonical cost.
  BillLedger bills;
  std::vector<QueryBill> top_bills;

  std::string ToJson() const;
  std::string ToMarkdown() const;
};

// Appends the canonical payload form of one value: 17 significant digits,
// printf "%.17g" byte for byte. That round-trips every double, and integral
// values print as integers ("3", not "3.0000000000000000e+00"), so BFS levels
// and CC labels stay readable while PageRank scores keep full precision.
void AppendValue(std::string& out, double v);

class Service {
 public:
  explicit Service(const ServiceOptions& options = {});
  // Resumes if paused, drains outstanding work, and stops the dispatchers.
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  // Graph generations this service executes against. Install/bump freely
  // while requests are in flight: admitted flights pin their snapshot. A bump
  // drops the cached results of every older generation of that name.
  SnapshotRegistry& registry() { return registry_; }

  // Non-blocking admission. The returned future is fulfilled immediately for
  // cache hits and rejections, and by a dispatcher otherwise.
  std::shared_future<Response> Submit(const Request& request);

  // Submit and wait (closed-loop client helper).
  Response Call(const Request& request);

  // Holds dispatchers between flights: queued work accumulates while paused.
  // Makes admission-control behavior deterministic for tests — with dispatch
  // paused, the (queue_depth + 1)-th distinct submission must be rejected.
  void Pause();
  void Resume();

  // Blocks until the queue is empty and no flight is executing. Resume()
  // first if paused, or this never returns.
  void Drain();

  ServiceStats Stats() const;
  ServiceReport Report() const;

  // Per-request attribution surfaces (bill.h). Bills() returns both ledger
  // sides; after Drain(), BillsConserve(l.flights, l.billed) must hold —
  // bench_serve and the serve tests pin that. The recorder accessors expose
  // the flight-recorder ring: RecentBills (oldest first), TopBills (canonical
  // cost order), and the seq-window protocol the SLO watchdog uses to name
  // the bills that landed inside a tripping scrape window.
  BillLedger Bills() const;
  std::vector<QueryBill> RecentBills() const;
  std::vector<QueryBill> TopBills(size_t k) const;
  uint64_t bill_seq() const;
  std::vector<QueryBill> BillsSince(uint64_t seq) const;

  // Graceful degradation under SLO pressure (normally driven by SloWatchdog,
  // exposed for tests and the script driver's `degrade` command):
  //   0  normal admission.
  //   1  effective queue depth halves — new executions shed earlier, cache
  //      hits and dedup joins unaffected.
  //   2  every new execution is shed (kUnavailable); only cache hits and
  //      joins of already-admitted flights are served. This is "shed
  //      cache-miss-heavy queries first": misses are exactly the requests
  //      that would consume engine time.
  // Rejections caused by a level > 0 (that a full-depth queue would have
  // admitted) are additionally counted in ServiceStats::shed.
  void SetDegradation(int level);
  int degradation() const {
    return degradation_.load(std::memory_order_relaxed);
  }

  // SLO over-target accounting: when target_us > 0, every OK non-cache-hit
  // response bumps serve.slo_requests and, if its *modeled* run time exceeds
  // target_us, serve.slo_over_target. Cache hits are excluded — they reuse a
  // paid execution, and counting their inherited modeled time would keep the
  // burn rate pinned high under full shedding (cache-only traffic), blocking
  // recovery. Modeled time is schedule-invariant (PR 2), so the
  // watchdog's window arithmetic over these counters is deterministic where
  // wall-clock latency would not be. 0 disables the over-target test.
  void SetSloTargetUs(uint64_t target_us) {
    slo_target_us_.store(target_us, std::memory_order_relaxed);
  }
  uint64_t slo_target_us() const {
    return slo_target_us_.load(std::memory_order_relaxed);
  }

  // The canonical execution key for `request` against `snap`: snapshot name +
  // epoch, algo, engine, ranks, and exactly the parameters the algorithm
  // consumes. Query kind is deliberately excluded — point/top-k queries share
  // the full run's execution. Also validates the request (algo, engine,
  // vertex bounds); exposed for tests and the load-generator bench.
  static StatusOr<std::string> ExecKey(const Request& request,
                                       const Snapshot& snap);

 private:
  struct Flight;
  using FlightPtr = std::shared_ptr<Flight>;

  void WorkerMain();
  // Runs the flight's engine execution and fulfills every joiner.
  void ExecuteFlight(const FlightPtr& flight);
  // Records latency/modeled histograms, exemplars, and SLO counters for one
  // answered request (not called for rejected/invalid submissions).
  void ObserveResponse(const Response& r);
  // Feeds one bill to the billed ledger side, the flight recorder, and the
  // bill.* metrics (caller holds no locks).
  void RecordBill(const std::shared_ptr<const QueryBill>& bill);

  const ServiceOptions options_;
  SnapshotRegistry registry_;
  ResultCache cache_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // Dispatchers: queue non-empty/resumed.
  std::condition_variable drain_cv_;  // Drain(): queue empty and idle.
  std::deque<FlightPtr> queue_;
  std::unordered_map<std::string, FlightPtr> inflight_;  // key -> flight.
  bool paused_ = false;
  bool stop_ = false;
  int active_ = 0;  // Flights currently executing.
  uint64_t queue_peak_ = 0;

  // Service-local accounting (ServiceStats); mirrored into the process-wide
  // obs registry as serve.* counters for traces and --metrics dumps.
  mutable std::mutex stats_mu_;
  ServiceStats stats_;
  BillLedger ledger_;  // Guarded by stats_mu_.
  obs::Histogram latency_us_;
  obs::Histogram queue_wait_us_;
  obs::Histogram modeled_us_;

  FlightRecorder recorder_;  // Internally locked.

  std::atomic<uint64_t> next_request_id_{0};
  std::atomic<int> degradation_{0};
  std::atomic<uint64_t> slo_target_us_{0};

  std::vector<std::thread> workers_;
};

}  // namespace maze::serve

#endif  // MAZE_SERVE_SERVICE_H_
