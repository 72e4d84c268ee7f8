// serve_mix: open-loop Poisson arrivals from one seeded generator thread into
// one serve::Service, at a nominal rate and then at about twice that rate.
// Keys are Zipf-distributed, so most responses are cache hits and engine
// kernels show up only in the tail; a bumper thread re-installs the snapshot
// every half second (the write path), which invalidates the cache.
//
// Every answer is byte-compared with a solo fresh execution of the same key
// on a separate verifier service, computed before the traffic starts so the
// comparison costs the generator only a memcmp.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <thread>

#include "datasets.h"
#include "checks.h"
#include "obs/obs.h"
#include "obs/telemetry.h"
#include "serve/service.h"
#include "util/prng.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace mazebench {

using maze::serve::QueryKind;
using maze::serve::Request;
using maze::serve::Response;

namespace {

constexpr int kSetups = 5;
// Requests per second. Capacity does not bind: at 12,800 req/s (4-vCPU EPYC
// guest) the generator lag p99 stayed at 0.07 ms and the slowest response
// (254 ms) came back within its cache epoch, because most requests are cache
// hits and the misses are bounded by the key set, not the rate. The tail is
// the wait behind each bump's miss burst. At 800 req/s the nominal p99 was
// set by a few lone requests for rarely drawn heavy keys, and its spread
// across seeds was 0.13-0.16; at 1600 req/s those keys join the burst, and
// the spread was 0.05 (peak, 3200 req/s: 0.02).
constexpr double kNominalRate = 1600;
constexpr double kPeakRate = 3200;
// The write path: a snapshot re-install every half second, 24 miss bursts
// per phase. With 1-s epochs the nominal p99's spread across seeds was 0.13.
constexpr double kBumpIntervalSeconds = 0.5;
constexpr double kFaultShare = 0.03;
constexpr double kZipfExponent = 0.8;
constexpr int kTopK = 10;
constexpr int kBfsSources = 4;  // Top-degree vertices used as BFS sources.
constexpr const char* kSnapshot = "livejournal";
constexpr const char* kMixEngines[] = {"native", "gmat", "matblas",
                                       "vertexlab"};
constexpr const char* kProbeAlgos[] = {"pagerank", "bfs", "cc", "triangles"};

// Traffic phases, in order. Warm-up requests, one epoch at the nominal rate,
// are checked but not timed: the first epoch after set-up runs cold (in one
// sampled run it re-executed 95 keys against 85 later, and held 78 of the
// nominal phase's ~96 requests beyond the p99).
enum Phase { kWarmup = 0, kNominal = 1, kPeak = 2 };

// One entry of the key universe (a canonical execution, minus faults).
struct KeySpec {
  const char* algo;
  const char* engine;
  int ranks;
  int iterations;   // PageRank.
  int source_rank;  // BFS: index into the top-degree vertices.
};

// The keys in popularity order. The order is fixed (independent of --seed),
// so the same keys are hot for every seed; only arrivals, key draws and the
// graph change with the seed.
std::vector<KeySpec> KeyUniverse() {
  std::vector<KeySpec> keys;
  for (const char* engine : kMixEngines) {
    for (int ranks : {1, 4}) {
      for (int iterations : {5, 10}) {
        keys.push_back({"pagerank", engine, ranks, iterations, 0});
      }
      for (int s = 0; s < kBfsSources; ++s) {
        keys.push_back({"bfs", engine, ranks, 10, s});
      }
      keys.push_back({"cc", engine, ranks, 10, 0});
      keys.push_back({"triangles", engine, ranks, 10, 0});
    }
  }
  maze::Xorshift64Star rng(0x5eedu);
  for (size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.NextBounded(i)]);
  }
  return keys;
}

// Transport drops need cross-rank traffic; 1-rank keys get a straggler.
std::string FaultSpecFor(int ranks, int variant) {
  return "seed=" + std::to_string(variant) +
         (ranks > 1 ? ",drop=0.01" : ",straggle=0x3");
}

struct Planned {
  double due = 0;  // Seconds after the traffic starts.
  int phase = 0;   // A Phase.
  Request request;
  int key_id = 0;  // Universe index * 3 + fault variant.
};

// Splits `total` into whole shares in proportion to `weights` by largest
// remainder; the shares add up to `total` exactly.
std::vector<size_t> Apportion(size_t total, const std::vector<double>& weights) {
  std::vector<size_t> shares(weights.size(), 0);
  double sum = 0;
  for (double w : weights) sum += w;
  if (sum <= 0) return shares;
  std::vector<std::pair<double, size_t>> remainders;
  size_t given = 0;
  for (size_t k = 0; k < weights.size(); ++k) {
    const double share = static_cast<double>(total) * weights[k] / sum;
    shares[k] = static_cast<size_t>(share);
    given += shares[k];
    remainders.push_back({share - std::floor(share), k});
  }
  std::stable_sort(
      remainders.begin(), remainders.end(),
      [](const auto& a, const auto& b) { return a.first > b.first; });
  for (size_t i = 0; given < total; ++i, ++given) {
    ++shares[remainders[i % remainders.size()].second];
  }
  return shares;
}

// Poisson arrivals at `rate` over [start, start + length). Keys are assigned
// stratified per bump-to-bump window: each window's arrivals carry the Zipf
// proportions and the fault share exactly, in a fixed interleaving, so every
// cache epoch sees the same key sequence and only the arrival times, query
// kinds and queried vertices vary with the seed.
void PlanPhase(uint64_t seed, int phase, double rate, double start,
               double length, const std::vector<KeySpec>& keys,
               const ServeInputs& in, std::vector<Planned>* plan) {
  maze::Xorshift64Star rng(DeriveSeed(seed, 1000 + phase));
  const std::vector<double> weights = ZipfWeights(keys.size(), kZipfExponent);
  const maze::VertexId n = in.directed.num_vertices;
  std::vector<double> arrivals;
  for (double t = -std::log(1.0 - rng.NextDouble()) / rate; t < length;
       t += -std::log(1.0 - rng.NextDouble()) / rate) {
    arrivals.push_back(t);
  }
  size_t first = 0;
  while (first < arrivals.size()) {
    const double window_end =
        (std::floor(arrivals[first] / kBumpIntervalSeconds) + 1) *
        kBumpIntervalSeconds;
    size_t last = first;
    while (last < arrivals.size() && arrivals[last] < window_end) ++last;
    const size_t m = last - first;
    const std::vector<size_t> counts = Apportion(m, weights);
    // The window's key sequence spreads each key's requests evenly over it
    // (the j-th of a key's c requests at (j + 0.5) / c), the same for every
    // seed. In a seeded random order each epoch's miss burst met the heavy
    // keys at a different point, and the p99 spread 0.30 across ten seeds.
    std::vector<std::pair<double, size_t>> slots;
    for (size_t k = 0; k < keys.size(); ++k) {
      for (size_t j = 0; j < counts[k]; ++j) {
        slots.push_back({(static_cast<double>(j) + 0.5) /
                             static_cast<double>(counts[k]),
                         k});
      }
    }
    std::sort(slots.begin(), slots.end());
    std::vector<size_t> window_keys;
    for (const auto& slot : slots) window_keys.push_back(slot.second);

    // The window's fault plans: an exact share of its requests, apportioned
    // to the keys of the per-vertex algorithms by their counts, so every
    // window faults the same executions. (A
    // faulted TC run would add a second heavy execution to the tail.) A
    // key's faulted requests alternate between two fault plans.
    std::vector<double> fault_weights(keys.size(), 0);
    for (size_t k = 0; k < keys.size(); ++k) {
      if (std::string(keys[k].algo) != "triangles") {
        fault_weights[k] = static_cast<double>(counts[k]);
      }
    }
    std::vector<size_t> key_faults = Apportion(
        static_cast<size_t>(std::lround(kFaultShare * m)), fault_weights);
    std::vector<int> variants(m, 0);
    for (size_t i = 0; i < m; ++i) {
      size_t& left = key_faults[window_keys[i]];
      if (left > 0) variants[i] = 1 + static_cast<int>(left-- % 2);
    }

    for (size_t i = first; i < last; ++i) {
      const size_t k = window_keys[i - first];
      const double kind_draw = rng.NextDouble();
      const auto vertex = static_cast<maze::VertexId>(rng.NextBounded(n));
      const int variant = variants[i - first];

      const KeySpec& spec = keys[k];
      Planned p;
      p.due = start + arrivals[i];
      p.phase = phase;
      p.key_id = static_cast<int>(k) * 3 + variant;
      Request& r = p.request;
      r.snapshot = kSnapshot;
      r.algo = spec.algo;
      r.engine = spec.engine;
      r.ranks = spec.ranks;
      r.iterations = spec.iterations;
      r.source = in.top_vertices[static_cast<size_t>(spec.source_rank)];
      const bool per_vertex = r.algo != "triangles";
      r.kind = !per_vertex || kind_draw < 0.5
                   ? QueryKind::kRun
                   : (kind_draw < 0.8 ? QueryKind::kPoint : QueryKind::kTopK);
      r.vertex = vertex;
      r.k = kTopK;
      if (variant != 0) r.faults = FaultSpecFor(spec.ranks, variant);
      plan->push_back(std::move(p));
    }
    first = last;
  }
}

// "bfs: reached N vertices in L levels" -> N.
uint64_t ReachedFromSummary(const std::string& summary) {
  const std::string tag = "reached ";
  size_t at = summary.find(tag);
  if (at == std::string::npos) return 0;
  return std::strtoull(summary.c_str() + at + tag.size(), nullptr, 10);
}

struct ProbePass {
  std::map<std::string, double> engine_seconds;
  std::map<std::string, double> cell_seconds;  // "<engine>.<algo>_s"
  std::map<std::string, double> engine_modeled;
  std::map<std::string, uint64_t> engine_mem_peak;
  std::map<std::string, uint64_t> engine_msgbuf;
  double modeled = 0;
  double host = 0;
};

double Ratio(uint64_t count, uint64_t total) {
  return total == 0 ? 0 : static_cast<double>(count) / total;
}

}  // namespace

void RunServeMix(const Options& options, Report* report) {
  Tracer& tracer = Tracer::Get();
  tracer.SetEnabled(options.trace);

  // Thread budget: generator (this thread) + bumper + the service's default
  // two dispatchers, whose engine runs use a one-thread pool (no workers:
  // each dispatcher runs its loops itself) = 4 = nproc here. With two pool
  // threads, two of ten runs ran every multi-threaded engine about 1.7x
  // slower throughout (the speed modes the grids avoid the same way).
  maze::ThreadPool::Default().Resize(1);
  maze::serve::ServiceOptions service_options;
  service_options.workers = 2;
  service_options.queue_depth = 1 << 16;  // Open loop: no admission refusals.
  service_options.cache_bytes = size_t{256} << 20;
  maze::serve::Service service(service_options);

  // Set-up: generation, the three views, and the first snapshot Install.
  std::vector<SetupTimes> setups;
  std::vector<double> setup_totals;
  ServeInputs in;
  for (int i = 0; i < kSetups; ++i) {
    SetupTimes t;
    in = ServeInputs();
    in = MakeServeInputs(kBfsSources, &t);
    {
      MAZEBENCH_SPAN("serve.install", "serve");
      maze::EdgeList copy = in.raw;
      Clock::time_point t0 = Clock::now();
      service.registry().Install(kSnapshot, std::move(copy));
      t.install = SecondsSince(t0);
    }
    setups.push_back(t);
    setup_totals.push_back(t.Total());
  }

  // The traffic, planned up front: the service receives only these inputs.
  const std::vector<KeySpec> keys = KeyUniverse();
  const double probe_budget = 0.2 * options.seconds;
  const double warmup = kBumpIntervalSeconds;
  const double phase_length = 0.4 * options.seconds;
  const double traffic_length = warmup + 2 * phase_length;
  std::vector<Planned> plan;
  PlanPhase(options.seed, kWarmup, kNominalRate, 0, warmup, keys, in, &plan);
  PlanPhase(options.seed, kNominal, kNominalRate, warmup, phase_length, keys,
            in, &plan);
  PlanPhase(options.seed, kPeak, kPeakRate, warmup + phase_length,
            phase_length, keys, in, &plan);

  // Expected payloads from solo fresh executions on a verifier service; run
  // requests of one key share one payload.
  std::vector<std::shared_ptr<const std::string>> expected(plan.size());
  std::vector<Request> probe_requests;
  for (maze::bench::EngineKind engine : maze::bench::AllEngines()) {
    for (const char* algo : kProbeAlgos) {
      Request r;
      r.snapshot = kSnapshot;
      r.algo = algo;
      r.engine = maze::bench::EngineName(engine);
      r.source = in.top_vertices.front();
      probe_requests.push_back(r);
    }
  }
  std::vector<std::string> probe_expected(probe_requests.size());
  {
    maze::serve::ServiceOptions vo;
    vo.workers = 1;
    vo.queue_depth = 1 << 16;
    vo.cache_bytes = size_t{2} << 30;
    maze::serve::Service verifier(vo);
    verifier.registry().Install(kSnapshot, in.raw);
    auto solo = [&](const Request& r) {
      Response v = verifier.Call(r);
      if (!v.status.ok()) {
        report->Problem("verifier failed on " + r.algo + "/" + r.engine + ": " +
                        v.status.ToString());
      }
      return std::make_shared<const std::string>(std::move(v.payload));
    };
    std::map<int, std::shared_ptr<const std::string>> run_payloads;
    for (size_t i = 0; i < plan.size(); ++i) {
      const Planned& p = plan[i];
      if (p.request.kind != QueryKind::kRun) {
        expected[i] = solo(p.request);
        continue;
      }
      auto& shared = run_payloads[p.key_id];
      if (shared == nullptr) shared = solo(p.request);
      expected[i] = shared;
    }
    for (size_t i = 0; i < probe_requests.size(); ++i) {
      probe_expected[i] = *solo(probe_requests[i]);
    }
  }

  // Probe: every engine's four serve algorithms, solo and uncached through
  // the service, give the per-engine host time on this workload.
  auto run_probe = [&](bool traced) {
    maze::serve::ServiceOptions po;
    po.workers = 1;
    po.cache_bytes = 0;  // Nothing fits: every call executes fresh.
    maze::serve::Service probe(po);
    probe.registry().Install(kSnapshot, in.raw);
    ProbePass pass;
    MAZEBENCH_SPAN("probe", "bench");
    for (size_t i = 0; i < probe_requests.size(); ++i) {
      const Request& r = probe_requests[i];
      maze::obs::SetEnabled(traced);
      Clock::time_point t0 = Clock::now();
      Response resp;
      {
        // Attributed to the engine: a solo uncached call is its execution.
        const char* engine = maze::bench::EngineName(
            maze::bench::EngineByName(r.engine).value());
        MAZEBENCH_SPAN("serve.call", engine);
        resp = probe.Call(r);
      }
      const double host = SecondsSince(t0);
      maze::obs::SetEnabled(false);
      std::string why;
      bool ok = resp.status.ok() &&
                (PayloadMatches(resp.payload, probe_expected[i], &why) ||
                 (r.algo == "pagerank" &&
                  PayloadClose(resp.payload, probe_expected[i], &why)));
      if (ok && r.algo == "bfs" && ReachedFromSummary(resp.summary) <= 1) {
        ok = false;
        why = "bfs reached " +
              std::to_string(ReachedFromSummary(resp.summary)) + " vertices";
      }
      report->Attempt(ok);
      if (!ok) {
        std::fprintf(stderr, "mazebench: WRONG ANSWER: probe %s/%s: %s %s\n",
                     r.engine.c_str(), r.algo.c_str(),
                     resp.status.ToString().c_str(), why.c_str());
      }
      pass.engine_seconds[r.engine] += host;
      pass.cell_seconds[r.engine + "." + r.algo + "_s"] += host;
      pass.engine_modeled[r.engine] += resp.modeled_seconds;
      pass.modeled += resp.modeled_seconds;
      pass.host += host;
      if (resp.bill != nullptr && resp.bill->flight != nullptr) {
        uint64_t& mem = pass.engine_mem_peak[r.engine];
        mem = std::max(mem, resp.bill->flight->peak_bytes);
        uint64_t& msgbuf = pass.engine_msgbuf[r.engine];
        msgbuf = std::max(msgbuf, resp.bill->flight->msgbuf_bytes);
      }
    }
    return pass;
  };
  std::vector<ProbePass> probes, untraced_probes;
  {
    const Clock::time_point probe_start = Clock::now();
    const bool split = options.trace;  // Trace mode: half untraced baseline.
    while (probes.size() + untraced_probes.size() < (split ? 4u : 2u) ||
           SecondsSince(probe_start) < probe_budget) {
      const bool traced = split && untraced_probes.size() > probes.size();
      if (split && !traced) {
        tracer.SetEnabled(false);
        untraced_probes.push_back(run_probe(false));
        tracer.SetEnabled(true);
      } else {
        probes.push_back(run_probe(traced));
      }
    }
  }

  // --- Open loop -----------------------------------------------------------
  if (options.trace) {
    maze::obs::ResetAll();
    maze::obs::SetEnabled(true);
  }
  maze::obs::TelemetryRegistry telemetry;
  std::vector<double> scrape_ms, install_ms;
  std::vector<double> lag_ms, submit_us;
  std::vector<double> latency_ms[3];  // By Phase.
  std::vector<double> queue_wait_ms_peak, exec_ms;
  uint64_t wrong = 0, not_ok = 0, bfs_unreached = 0;
  // PageRank answers equal only within 1e-9 (see PayloadClose).
  uint64_t close = 0;

  struct Pending {
    size_t index;
    Clock::time_point submitted;
    std::shared_future<Response> future;
  };
  std::deque<Pending> pending;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  auto at = [&](double seconds) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds));
  };
  auto harvest = [&](const Pending& p) {
    const Response& r = p.future.get();
    const Planned& planned = plan[p.index];
    const double due_to_submit = SecondsBetween(at(planned.due), p.submitted);
    latency_ms[planned.phase].push_back(
        (due_to_submit + r.latency_seconds) * 1e3);
    if (!r.status.ok()) {
      ++not_ok;
      std::fprintf(stderr, "mazebench: request %zu failed: %s\n", p.index,
                   r.status.ToString().c_str());
      return;
    }
    std::string why;
    if (!PayloadMatches(r.payload, *expected[p.index], &why)) {
      if (planned.request.algo == "pagerank" &&
          PayloadClose(r.payload, *expected[p.index], nullptr)) {
        ++close;
      } else {
        ++wrong;
        std::fprintf(stderr,
                     "mazebench: WRONG ANSWER: request %zu (%s/%s ranks=%d "
                     "faults=%s hit=%d dedup=%d): %s\n",
                     p.index, planned.request.algo.c_str(),
                     planned.request.engine.c_str(), planned.request.ranks,
                     planned.request.faults.c_str(), r.cache_hit, r.deduped,
                     why.c_str());
      }
    }
    if (planned.request.algo == "bfs" && ReachedFromSummary(r.summary) <= 1) {
      ++bfs_unreached;
    }
    if (!r.cache_hit) {
      if (planned.phase == kPeak) {
        queue_wait_ms_peak.push_back(r.queue_seconds * 1e3);
      }
      if (!r.deduped) {
        exec_ms.push_back((r.latency_seconds - r.queue_seconds) * 1e3);
      }
    }
  };
  if (options.inject_wrong_answer && !expected.empty()) {
    expected[0] = std::make_shared<const std::string>(*expected[0] + "x");
  }

  // The bumper re-installs the snapshot at the start of every cache epoch.
  std::thread bumper([&] {
    for (double t = 0; t < traffic_length; t += kBumpIntervalSeconds) {
      std::this_thread::sleep_until(at(t));
      maze::EdgeList copy = in.raw;
      MAZEBENCH_SPAN("serve.install", "serve");
      Clock::time_point t0 = Clock::now();
      service.registry().Install(kSnapshot, std::move(copy));
      install_ms.push_back(SecondsSince(t0) * 1e3);
    }
  });

  {
    MAZEBENCH_SPAN("measure", "bench");
    Clock::time_point next_scrape = at(1.0);
    for (size_t i = 0; i < plan.size(); ++i) {
      const Clock::time_point due = at(plan[i].due);
      // Idle time before the next arrival goes to checking finished answers.
      while (!pending.empty() && Clock::now() < due &&
             pending.front().future.wait_for(std::chrono::seconds(0)) ==
                 std::future_status::ready) {
        MAZEBENCH_SPAN("check", "check");
        harvest(pending.front());
        pending.pop_front();
      }
      if (Clock::now() >= next_scrape) {
        MAZEBENCH_SPAN("obs.scrape", "obs");
        Clock::time_point t0 = Clock::now();
        telemetry.ScrapeOnce();
        scrape_ms.push_back(SecondsSince(t0) * 1e3);
        next_scrape += std::chrono::seconds(1);
      }
      if (Clock::now() < due) {
        MAZEBENCH_SPAN("loadgen.wait", "loadgen");
        std::this_thread::sleep_until(due);
      }
      Pending p;
      p.index = i;
      {
        MAZEBENCH_SPAN("serve.submit", "serve");
        p.submitted = Clock::now();
        p.future = service.Submit(plan[i].request);
      }
      const Clock::time_point after = Clock::now();
      lag_ms.push_back(SecondsBetween(due, p.submitted) * 1e3);
      submit_us.push_back(SecondsBetween(p.submitted, after) * 1e6);
      pending.push_back(std::move(p));
    }
    {
      MAZEBENCH_SPAN("serve.drain", "serve");
      service.Drain();
    }
    for (const Pending& p : pending) {
      MAZEBENCH_SPAN("check", "check");
      harvest(p);
    }
    pending.clear();
  }
  bumper.join();
  maze::obs::SetEnabled(false);

  const maze::serve::ServiceStats stats = service.Stats();
  const maze::serve::BillLedger ledger = service.Bills();
  report->AddAttempts(plan.size(), wrong + not_ok);
  // The generator checks answers and scrapes between arrivals. A generator
  // that keeps up stays under 0.1 ms behind schedule; one that falls behind
  // accumulates lag without bound. The limit, 1% of a cache epoch, separates
  // the two: below it every epoch receives its planned requests in time.
  const double lag_p99_ms = Quantile(lag_ms, 0.99);
  const double lag_limit_ms = 10 * kBumpIntervalSeconds;
  report->Note("loadgen lag p99 " + std::to_string(lag_p99_ms) +
               " ms (limit " + std::to_string(lag_limit_ms) + " ms) over " +
               std::to_string(lag_ms.size()) + " sends");
  if (lag_p99_ms > lag_limit_ms) {
    report->Problem("load generator ran late: lag p99 " +
                    std::to_string(lag_p99_ms) + " ms");
  }
  if (bfs_unreached > 0) {
    report->Problem(std::to_string(bfs_unreached) +
                    " bfs responses reached only their source");
  }
  const double hit_rate = Ratio(stats.cache_hits, stats.submitted);
  const double dedup_rate = Ratio(stats.dedup_joined, stats.submitted);
  if (stats.cache_hits == 0) report->Problem("serve.hit_rate reads zero");
  if (stats.dedup_joined == 0) report->Problem("serve.dedup_rate reads zero");
  if (ledger.flights.wire_bytes == 0) {
    report->Problem("serve.bill_wire_bytes reads zero");
  }
  if (!maze::serve::BillsConserve(ledger.flights, ledger.billed)) {
    report->Problem("query bills do not conserve flight costs");
  }
  ReportBspArena(report);

  auto median_probe = [&](const std::vector<ProbePass>& passes, auto field) {
    std::vector<double> v;
    for (const ProbePass& p : passes) v.push_back(field(p));
    return Median(v);
  };
  uint64_t phase_requests[3] = {0, 0, 0};
  for (const Planned& p : plan) ++phase_requests[p.phase];
  report->Note("warm-up: " + std::to_string(phase_requests[kWarmup]) +
               " requests; nominal: " +
               std::to_string(phase_requests[kNominal]) + " requests at " +
               std::to_string(kNominalRate) + "/s; peak: " +
               std::to_string(phase_requests[kPeak]) + " requests at " +
               std::to_string(kPeakRate) + "/s; " +
               std::to_string(probes.size() + untraced_probes.size()) +
               " probe passes; " + std::to_string(install_ms.size()) +
               " bumps; hit rate " + std::to_string(hit_rate) +
               ", dedup rate " + std::to_string(dedup_rate) + "; " +
               std::to_string(close) +
               " pagerank payloads equal only within 1e-9");

  if (!options.trace) {
    report->Set("setup_s", Median(setup_totals));
    for (auto e : maze::bench::AllEngines()) {
      const std::string name = maze::bench::EngineName(e);
      report->Set(name + "_s", median_probe(probes, [&](const ProbePass& p) {
                    return p.engine_seconds.at(name);
                  }));
    }
    report->Set("modeled_s",
                median_probe(probes,
                             [](const ProbePass& p) { return p.modeled; }));
    report->Set("peak_rss_mb", PeakRssMb());
    report->Set("lat_p50_ms", Quantile(latency_ms[kNominal], 0.5));
    report->Set("lat_p99_ms", Quantile(latency_ms[kNominal], 0.99));
    report->Set("lat_p99_ms_peak", Quantile(latency_ms[kPeak], 0.99));
    return;
  }

  // --- Per-layer -------------------------------------------------------------
  auto median_setup = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& s : setups) v.push_back(s.*field);
    return Median(v);
  };
  report->Set("core.generate_s", median_setup(&SetupTimes::generate));
  report->Set("core.dedup_s", median_setup(&SetupTimes::dedup));
  report->Set("core.symmetrize_s", median_setup(&SetupTimes::symmetrize));
  report->Set("core.orient_s", median_setup(&SetupTimes::orient));
  {
    std::vector<std::pair<maze::bench::EngineKind, std::string>> cells;
    for (const Request& r : probe_requests) {
      cells.push_back({maze::bench::EngineByName(r.engine).value(), r.algo});
    }
    std::vector<double> builds;
    for (int i = 0; i < 3; ++i) {
      builds.push_back(TimeRunnerGraphBuilds(cells, in.directed, in.symmetric,
                                             in.oriented));
    }
    report->Set("core.graph_build_s", Median(builds));
  }
  for (const auto& [name, unused] : probes.front().cell_seconds) {
    // cc has no per-layer name; its time stays inside <engine>_s.
    if (name.find(".cc_s") != std::string::npos) continue;
    report->Set(name, median_probe(probes, [&](const ProbePass& p) {
                  return p.cell_seconds.at(name);
                }));
  }
  for (const auto& [engine, bytes] : probes.back().engine_mem_peak) {
    report->Set(engine + ".modeled_s",
                median_probe(probes, [&](const ProbePass& p) {
                  return p.engine_modeled.at(engine);
                }));
    report->Set(engine + ".mem_peak_mb", bytes / 1048576.0);
    report->Set(engine + ".msgbuf_mb",
                probes.back().engine_msgbuf.at(engine) / 1048576.0);
  }
  // rt terms of the traffic's executions, from the flight side of the ledger.
  report->Set("rt.bytes_sent", static_cast<double>(ledger.flights.wire_bytes));
  report->Set("rt.messages_sent", static_cast<double>(ledger.flights.messages));
  report->Set("rt.critical_compute_s", ledger.flights.compute_seconds);
  report->Set("rt.critical_wire_s", ledger.flights.wire_seconds);
  report->Set("rt.imbalance_s", ledger.flights.imbalance_seconds);

  report->Set("serve.submit_us_p99", Quantile(submit_us, 0.99));
  report->Set("serve.queue_wait_ms_p99", Quantile(queue_wait_ms_peak, 0.99));
  report->Set("serve.queue_peak", static_cast<double>(stats.queue_peak));
  report->Set("serve.exec_ms_p50", Quantile(exec_ms, 0.5));
  report->Set("serve.exec_ms_p99", Quantile(exec_ms, 0.99));
  report->Set("serve.hit_rate", hit_rate);
  report->Set("serve.dedup_rate", dedup_rate);
  std::vector<double> installs = install_ms;
  for (const SetupTimes& s : setups) installs.push_back(s.install * 1e3);
  report->Set("serve.install_ms", Median(installs));
  report->Set("serve.reject_rate", Ratio(stats.rejected, stats.submitted));
  report->Set("serve.expire_rate", Ratio(stats.expired, stats.submitted));
  report->Set("serve.bill_wire_bytes",
              static_cast<double>(ledger.flights.wire_bytes));
  report->Set("loadgen.lag_p99_ms", lag_p99_ms);
  report->Set("obs.scrape_ms", Median(scrape_ms));
  const double traced_probe =
      median_probe(probes, [](const ProbePass& p) { return p.host; });
  const double untraced_probe =
      median_probe(untraced_probes, [](const ProbePass& p) { return p.host; });
  report->Set("obs.trace_overhead_frac", traced_probe / untraced_probe - 1.0);
  ReportTraceLayers("measure", report);
}

}  // namespace mazebench
