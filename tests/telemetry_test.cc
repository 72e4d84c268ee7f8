// Tests for the live telemetry plane: scrape windows and rings, the
// concurrent-Record monotonicity guarantee, exemplars, the OpenMetrics
// exposition (validated by tests/openmetrics_checker.h), and the HTTP pull
// endpoint. Counter names are prefixed per test ("tmt.<test>.") because the
// counter registry is process-wide.
#include "obs/telemetry.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <sstream>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/counters.h"
#include "obs/openmetrics.h"
#include "tests/json_checker.h"
#include "tests/openmetrics_checker.h"

namespace maze::obs {
namespace {

TEST(TelemetrySpecTest, ParsesAllKeys) {
  auto spec = ParseTelemetrySpec("interval=0.25,rings=8,file=/tmp/x.om,listen=0");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_DOUBLE_EQ(spec.value().options.interval_seconds, 0.25);
  EXPECT_EQ(spec.value().options.ring_windows, 8u);
  EXPECT_EQ(spec.value().options.file_sink, "/tmp/x.om");
  EXPECT_EQ(spec.value().listen_port, 0);
}

TEST(TelemetrySpecTest, EmptySpecKeepsDefaults) {
  auto spec = ParseTelemetrySpec("");
  ASSERT_TRUE(spec.ok());
  EXPECT_DOUBLE_EQ(spec.value().options.interval_seconds, 1.0);
  EXPECT_EQ(spec.value().listen_port, -1);
}

TEST(TelemetrySpecTest, RejectsBadTokens) {
  EXPECT_FALSE(ParseTelemetrySpec("interval").ok());
  EXPECT_FALSE(ParseTelemetrySpec("interval=0").ok());
  EXPECT_FALSE(ParseTelemetrySpec("interval=-1").ok());
  EXPECT_FALSE(ParseTelemetrySpec("rings=0").ok());
  EXPECT_FALSE(ParseTelemetrySpec("listen=70000").ok());
  EXPECT_FALSE(ParseTelemetrySpec("listen=-2").ok());
  EXPECT_FALSE(ParseTelemetrySpec("bogus=1").ok());
}

TEST(TelemetryRegistryTest, CounterWindowsTrackDeltas) {
  Counter& c = GetCounter("tmt.cw.a");
  c.Reset();
  c.Add(5);
  TelemetryRegistry reg;
  EXPECT_EQ(reg.ScrapeOnce(), 1u);
  c.Add(7);
  EXPECT_EQ(reg.ScrapeOnce(), 2u);
  auto latest = reg.LatestCounter("tmt.cw.a");
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->scrape, 2u);
  EXPECT_EQ(latest->value, 12u);
  EXPECT_EQ(latest->delta, 7u);
  // The first window's delta is the full cumulative value.
  for (const auto& series : reg.Counters()) {
    if (series.name != "tmt.cw.a") continue;
    ASSERT_EQ(series.windows.size(), 2u);
    EXPECT_EQ(series.windows[0].value, 5u);
    EXPECT_EQ(series.windows[0].delta, 5u);
  }
  EXPECT_EQ(reg.scrapes(), 2u);
}

// Satellite (PR 10): gauges scrape like counters but carry signed values and
// signed, unclamped window deltas — levels go both ways.
TEST(TelemetryRegistryTest, GaugeWindowsTrackSignedDeltas) {
  Gauge& g = GetGauge("tmt.gw.depth");
  g.Reset();
  g.Set(5);
  TelemetryRegistry reg;
  EXPECT_EQ(reg.ScrapeOnce(), 1u);
  g.Set(2);  // Down: the delta must go negative, not clamp.
  EXPECT_EQ(reg.ScrapeOnce(), 2u);
  g.Add(-4);  // Below zero: gauges are signed throughout.
  EXPECT_EQ(reg.ScrapeOnce(), 3u);

  auto latest = reg.LatestGauge("tmt.gw.depth");
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->scrape, 3u);
  EXPECT_EQ(latest->value, -2);
  EXPECT_EQ(latest->delta, -4);
  for (const auto& series : reg.Gauges()) {
    if (series.name != "tmt.gw.depth") continue;
    ASSERT_EQ(series.windows.size(), 3u);
    EXPECT_EQ(series.windows[0].value, 5);
    EXPECT_EQ(series.windows[0].delta, 5);
    EXPECT_EQ(series.windows[1].value, 2);
    EXPECT_EQ(series.windows[1].delta, -3);
  }
  EXPECT_FALSE(reg.LatestGauge("tmt.gw.never").has_value());
}

TEST(TelemetryRegistryTest, GaugeLookupCountsTowardRegistryLookups) {
  uint64_t before = RegistryLookups();
  GetGauge("tmt.greg.depth");
  EXPECT_EQ(RegistryLookups(), before + 1);
  Gauge& g = GetGauge("tmt.greg.depth");
  EXPECT_EQ(RegistryLookups(), before + 2);
  // Set/Add/value on a held handle take no lookups (hot-path contract).
  g.Set(3);
  g.Add(1);
  EXPECT_EQ(g.value(), 4);
  EXPECT_EQ(RegistryLookups(), before + 2);
}

TEST(TelemetryRegistryTest, HistogramWindowsTrackDeltaDistribution) {
  Histogram& h = GetHistogram("tmt.hw.latency");
  h.Reset();
  for (uint64_t v : {1, 2, 3, 4}) h.Record(v);
  TelemetryRegistry reg;
  reg.ScrapeOnce();
  auto w1 = reg.LatestHistogram("tmt.hw.latency");
  ASSERT_TRUE(w1.has_value());
  EXPECT_EQ(w1->count, 4u);
  EXPECT_EQ(w1->sum, 10u);
  EXPECT_EQ(w1->delta_count, 4u);
  EXPECT_EQ(w1->delta_sum, 10u);
  EXPECT_EQ(w1->delta_p50, 2u);  // Values < 8 land in exact unit buckets.
  EXPECT_EQ(w1->delta_p99, 4u);
  EXPECT_EQ(w1->delta_max, 4u);

  for (int i = 0; i < 3; ++i) h.Record(7);
  reg.ScrapeOnce();
  auto w2 = reg.LatestHistogram("tmt.hw.latency");
  ASSERT_TRUE(w2.has_value());
  EXPECT_EQ(w2->count, 7u);
  EXPECT_EQ(w2->sum, 31u);
  EXPECT_EQ(w2->delta_count, 3u);
  EXPECT_EQ(w2->delta_sum, 21u);
  EXPECT_EQ(w2->delta_p50, 7u);
  EXPECT_EQ(w2->delta_max, 7u);
}

TEST(TelemetryRegistryTest, RingTrimsToConfiguredWindows) {
  Counter& c = GetCounter("tmt.ring.a");
  c.Reset();
  TelemetryOptions options;
  options.ring_windows = 3;
  TelemetryRegistry reg(options);
  for (int i = 0; i < 5; ++i) {
    c.Add(1);
    reg.ScrapeOnce();
  }
  for (const auto& series : reg.Counters()) {
    if (series.name != "tmt.ring.a") continue;
    ASSERT_EQ(series.windows.size(), 3u);
    EXPECT_EQ(series.windows.front().scrape, 3u);
    EXPECT_EQ(series.windows.back().scrape, 5u);
    EXPECT_EQ(series.windows.back().value, 5u);
    EXPECT_EQ(series.windows.back().delta, 1u);
  }
}

// Satellite 1: histogram snapshots stay monotone while Record races the
// scraper. The scraped count is derived from one consistent bucket array, so
// between-scrape counts never decrease even mid-Record (run under TSan in
// telemetry.yml).
TEST(TelemetryRegistryTest, MonotonicityHammer) {
  Histogram& h = GetHistogram("tmt.hammer.latency");
  h.Reset();
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 50000;
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (uint64_t i = 0; i < kPerThread; ++i) {
        h.Record((i * 2654435761u + static_cast<uint64_t>(t)) % 4096);
      }
    });
  }

  TelemetryRegistry reg;
  go.store(true, std::memory_order_release);
  uint64_t last_count = 0;
  for (int s = 0; s < 200; ++s) {
    reg.ScrapeOnce();
    auto w = reg.LatestHistogram("tmt.hammer.latency");
    ASSERT_TRUE(w.has_value());
    ASSERT_GE(w->count, last_count) << "scrape " << s;
    last_count = w->count;
  }
  for (auto& t : writers) t.join();

  reg.ScrapeOnce();
  auto final_w = reg.LatestHistogram("tmt.hammer.latency");
  ASSERT_TRUE(final_w.has_value());
  EXPECT_EQ(final_w->count, kThreads * kPerThread);
  uint64_t bucket_sum = 0;
  for (uint64_t b : h.SnapshotBuckets()) bucket_sum += b;
  EXPECT_EQ(bucket_sum, kThreads * kPerThread);
  EXPECT_EQ(final_w->count, h.count());
}

TEST(TelemetryRegistryTest, ScrapeHooksRunSynchronously) {
  TelemetryRegistry reg;
  std::vector<uint64_t> seen;
  size_t token = reg.AddScrapeHook([&](uint64_t s) { seen.push_back(s); });
  reg.ScrapeOnce();
  reg.ScrapeOnce();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], 1u);
  EXPECT_EQ(seen[1], 2u);
  reg.RemoveScrapeHook(token);
  reg.ScrapeOnce();
  EXPECT_EQ(seen.size(), 2u);
}

TEST(TelemetryRegistryTest, BackgroundScraperStartsAndStops) {
  TelemetryOptions options;
  options.interval_seconds = 0.005;
  TelemetryRegistry reg(options);
  reg.Start();
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (reg.scrapes() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(reg.scrapes(), 2u);
  reg.Stop();
  uint64_t frozen = reg.scrapes();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(reg.scrapes(), frozen);
  reg.Start();  // Restart after Stop works.
  reg.Stop();
}

TEST(ExemplarTest, StoreKeepsLatestPerBucket) {
  ExemplarStore store;
  store.Record(3, 101);
  store.Record(3, 102);  // Same unit bucket: replaces.
  store.Record(1000, 7);
  auto snapshot = store.Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].first, Histogram::BucketIndex(3));
  EXPECT_EQ(snapshot[0].second.request_id, 102u);
  EXPECT_EQ(snapshot[0].second.value, 3u);
  EXPECT_EQ(snapshot[1].first, Histogram::BucketIndex(1000));
  EXPECT_EQ(snapshot[1].second.request_id, 7u);
  store.Reset();
  EXPECT_TRUE(store.Snapshot().empty());
}

TEST(ExemplarTest, RegistryLookupCountsTowardRegistryLookups) {
  uint64_t before = RegistryLookups();
  GetExemplars("tmt.exreg.h");
  EXPECT_EQ(RegistryLookups(), before + 1);
}

TEST(OpenMetricsTest, NameAndEscape) {
  EXPECT_EQ(OpenMetricsName("serve.latency_us"), "maze_serve_latency_us");
  EXPECT_EQ(OpenMetricsName("a-b c"), "maze_a_b_c");
  EXPECT_EQ(OpenMetricsEscape("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
}

TEST(OpenMetricsTest, ExpositionValidatesUnderChecker) {
  Counter& c = GetCounter("tmt.expo.counter");
  c.Reset();
  c.Add(3);
  Histogram& h = GetHistogram("tmt.expo.latency");
  h.Reset();
  for (uint64_t v : {1, 5, 900}) h.Record(v);
  TelemetryRegistry reg;
  reg.ScrapeOnce();
  std::string text = OpenMetricsText(reg);
  testutil::OpenMetricsChecker checker(text);
  ASSERT_TRUE(checker.Valid()) << checker.error();
  ASSERT_EQ(checker.counters().count("maze_tmt_expo_counter"), 1u);
  EXPECT_EQ(checker.counters().at("maze_tmt_expo_counter"), 3u);
  ASSERT_EQ(checker.histograms().count("maze_tmt_expo_latency"), 1u);
  EXPECT_EQ(checker.histograms().at("maze_tmt_expo_latency").count, 3u);
  EXPECT_EQ(checker.histograms().at("maze_tmt_expo_latency").sum, 906u);
}

TEST(OpenMetricsTest, GaugeExpositionValidatesUnderChecker) {
  Gauge& g = GetGauge("tmt.gexpo.depth");
  g.Reset();
  g.Set(-7);  // Negative samples are legal for gauges (and only gauges).
  Counter& c = GetCounter("tmt.gexpo.counter");
  c.Reset();
  c.Add(2);
  TelemetryRegistry reg;
  reg.ScrapeOnce();
  std::string text = OpenMetricsText(reg);
  testutil::OpenMetricsChecker checker(text);
  ASSERT_TRUE(checker.Valid()) << checker.error() << "\n" << text;
  ASSERT_EQ(checker.gauges().count("maze_tmt_gexpo_depth"), 1u);
  EXPECT_EQ(checker.gauges().at("maze_tmt_gexpo_depth"), -7);
  // Gauges render the bare name (no _total) and the latest scraped level.
  EXPECT_NE(text.find("# TYPE maze_tmt_gexpo_depth gauge\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\nmaze_tmt_gexpo_depth -7\n"), std::string::npos)
      << text;

  g.Set(3);
  reg.ScrapeOnce();
  std::string second = OpenMetricsText(reg);
  testutil::OpenMetricsChecker checker2(second);
  ASSERT_TRUE(checker2.Valid()) << checker2.error();
  EXPECT_EQ(checker2.gauges().at("maze_tmt_gexpo_depth"), 3);
  // A gauge moving down must not trip the counter monotonicity check.
  g.Set(1);
  reg.ScrapeOnce();
  testutil::OpenMetricsChecker checker3(OpenMetricsText(reg));
  ASSERT_TRUE(checker3.Valid()) << checker3.error();
  std::string why;
  EXPECT_TRUE(
      testutil::OpenMetricsChecker::CheckMonotonic(checker2, checker3, &why))
      << why;
}

TEST(OpenMetricsCheckerTest, RejectsMalformedGaugeExpositions) {
  // A negative sample under a counter family stays illegal.
  EXPECT_FALSE(testutil::OpenMetricsChecker(
                   "# TYPE maze_x counter\nmaze_x_total -1\n# EOF\n")
                   .Valid());
  // Negative gauge samples are fine.
  EXPECT_TRUE(testutil::OpenMetricsChecker(
                  "# TYPE maze_g gauge\nmaze_g -3\n# EOF\n")
                  .Valid());
  // A gauge family must expose the bare name, not counter/histogram suffixes.
  EXPECT_FALSE(testutil::OpenMetricsChecker(
                   "# TYPE maze_g gauge\nmaze_g_total 1\n# EOF\n")
                   .Valid());
  EXPECT_FALSE(testutil::OpenMetricsChecker(
                   "# TYPE maze_g gauge\nmaze_g_count 1\n# EOF\n")
                   .Valid());
}

TEST(OpenMetricsTest, ExpositionMonotonicAcrossScrapes) {
  Counter& c = GetCounter("tmt.mono.counter");
  c.Reset();
  Histogram& h = GetHistogram("tmt.mono.latency");
  h.Reset();
  TelemetryRegistry reg;
  c.Add(2);
  h.Record(10);
  reg.ScrapeOnce();
  std::string first = OpenMetricsText(reg);
  c.Add(9);
  h.Record(20);
  h.Record(30);
  reg.ScrapeOnce();
  std::string second = OpenMetricsText(reg);
  testutil::OpenMetricsChecker prev(first), cur(second);
  ASSERT_TRUE(prev.Valid()) << prev.error();
  ASSERT_TRUE(cur.Valid()) << cur.error();
  std::string why;
  EXPECT_TRUE(testutil::OpenMetricsChecker::CheckMonotonic(prev, cur, &why))
      << why;
  // And the converse direction must fail: counters may not go backward.
  EXPECT_FALSE(testutil::OpenMetricsChecker::CheckMonotonic(cur, prev, &why));
}

TEST(OpenMetricsTest, ExemplarsRenderOnBucketLines) {
  Histogram& h = GetHistogram("tmt.exemplar.latency");
  h.Reset();
  h.Record(42);
  GetExemplars("tmt.exemplar.latency").Record(42, 777);
  TelemetryRegistry reg;
  reg.ScrapeOnce();
  std::string text = OpenMetricsText(reg);
  testutil::OpenMetricsChecker checker(text);
  ASSERT_TRUE(checker.Valid()) << checker.error();
  EXPECT_NE(text.find("# {request_id=\"777\"} 42"), std::string::npos) << text;
}

TEST(OpenMetricsCheckerTest, RejectsMalformedExpositions) {
  EXPECT_FALSE(testutil::OpenMetricsChecker("").Valid());
  EXPECT_FALSE(testutil::OpenMetricsChecker("maze_x_total 1\n").Valid());
  EXPECT_FALSE(  // Missing # EOF.
      testutil::OpenMetricsChecker("# TYPE maze_x counter\nmaze_x_total 1\n")
          .Valid());
  EXPECT_FALSE(  // Sample without a TYPE family.
      testutil::OpenMetricsChecker("maze_x_total 1\n# EOF\n").Valid());
  EXPECT_FALSE(  // Bad name charset.
      testutil::OpenMetricsChecker(
          "# TYPE maze-x counter\nmaze-x_total 1\n# EOF\n")
          .Valid());
  EXPECT_FALSE(  // Negative counter.
      testutil::OpenMetricsChecker(
          "# TYPE maze_x counter\nmaze_x_total -1\n# EOF\n")
          .Valid());
  EXPECT_FALSE(  // Buckets not cumulative.
      testutil::OpenMetricsChecker("# TYPE maze_h histogram\n"
                                   "maze_h_bucket{le=\"1\"} 5\n"
                                   "maze_h_bucket{le=\"2\"} 3\n"
                                   "maze_h_bucket{le=\"+Inf\"} 5\n"
                                   "maze_h_count 5\nmaze_h_sum 9\n# EOF\n")
          .Valid());
  EXPECT_FALSE(  // +Inf bucket disagrees with _count.
      testutil::OpenMetricsChecker("# TYPE maze_h histogram\n"
                                   "maze_h_bucket{le=\"+Inf\"} 4\n"
                                   "maze_h_count 5\nmaze_h_sum 9\n# EOF\n")
          .Valid());
  EXPECT_FALSE(  // Bad escape in a label value.
      testutil::OpenMetricsChecker("# TYPE maze_h histogram\n"
                                   "maze_h_bucket{le=\"\\x\"} 1\n"
                                   "maze_h_bucket{le=\"+Inf\"} 1\n"
                                   "maze_h_count 1\nmaze_h_sum 1\n# EOF\n")
          .Valid());
  EXPECT_FALSE(  // Content after # EOF.
      testutil::OpenMetricsChecker(
          "# TYPE maze_x counter\nmaze_x_total 1\n# EOF\nmaze_x_total 2\n")
          .Valid());
}

TEST(TelemetryRegistryTest, FileSinkWritesExpositionPerScrape) {
  Counter& c = GetCounter("tmt.sink.counter");
  c.Reset();
  c.Add(4);
  std::string path = "telemetry_test_sink.om";
  TelemetryOptions options;
  options.file_sink = path;
  {
    TelemetryRegistry reg(options);
    reg.ScrapeOnce();
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    testutil::OpenMetricsChecker checker(buffer.str());
    EXPECT_TRUE(checker.Valid()) << checker.error();
    EXPECT_EQ(checker.counters().at("maze_tmt_sink_counter"), 4u);
  }
  std::remove(path.c_str());
}

TEST(MetricsEndpointTest, ServesMetricsHealthzReportAnd404) {
  Counter& c = GetCounter("tmt.endpoint.counter");
  c.Reset();
  c.Add(11);
  TelemetryRegistry reg;
  MetricsEndpoint endpoint(&reg);
  endpoint.SetReport([] { return std::string("{\"report\": true}"); });
  ASSERT_TRUE(endpoint.Start(0).ok());
  ASSERT_GT(endpoint.port(), 0);

  // Every /metrics pull takes a fresh scrape.
  auto metrics = HttpGet(endpoint.port(), "/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(reg.scrapes(), 1u);
  testutil::OpenMetricsChecker checker(metrics.value());
  ASSERT_TRUE(checker.Valid()) << checker.error();
  EXPECT_EQ(checker.counters().at("maze_tmt_endpoint_counter"), 11u);

  c.Add(1);
  auto again = HttpGet(endpoint.port(), "/metrics");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(reg.scrapes(), 2u);
  testutil::OpenMetricsChecker checker2(again.value());
  ASSERT_TRUE(checker2.Valid()) << checker2.error();
  std::string why;
  EXPECT_TRUE(
      testutil::OpenMetricsChecker::CheckMonotonic(checker, checker2, &why))
      << why;

  auto healthz = HttpGet(endpoint.port(), "/healthz");
  ASSERT_TRUE(healthz.ok());
  EXPECT_NE(healthz.value().find("\"status\""), std::string::npos);

  auto report = HttpGet(endpoint.port(), "/report");
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(testutil::JsonChecker(report.value()).Valid());

  EXPECT_FALSE(HttpGet(endpoint.port(), "/nope").ok());

  int port = endpoint.port();
  endpoint.Stop();
  EXPECT_FALSE(HttpGet(port, "/metrics").ok());
}

// The endpoint serves one connection at a time: a client that connects and
// never sends a request must be dropped, not block every later scrape.
TEST(MetricsEndpointTest, IdleClientDoesNotStallScrapes) {
  TelemetryRegistry reg;
  MetricsEndpoint endpoint(&reg);
  ASSERT_TRUE(endpoint.Start(0).ok());
  int idle = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(idle, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(endpoint.port()));
  ASSERT_EQ(::connect(idle, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  // HttpGet gives up after its own timeout, so an endpoint stalled behind
  // the idle client fails here instead of wedging the binary.
  auto body = HttpGet(endpoint.port(), "/metrics");
  ::close(idle);
  ASSERT_TRUE(body.ok()) << "/metrics stalled behind an idle connection: "
                         << body.status().ToString();
  EXPECT_TRUE(testutil::OpenMetricsChecker(body.value()).Valid());
  endpoint.Stop();
}

// A peer that accepts the connection and never answers: HttpGet must give up
// with a Status instead of blocking its caller forever.
TEST(MetricsEndpointTest, HttpGetTimesOutOnSilentPeer) {
  int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 4), 0);  // The kernel completes the handshake.
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const int port = ntohs(addr.sin_port);

  std::promise<StatusOr<std::string>> got;
  auto result = got.get_future();
  const auto start = std::chrono::steady_clock::now();
  std::thread client([&] { got.set_value(HttpGet(port, "/metrics")); });
  const bool returned =
      result.wait_for(std::chrono::seconds(20)) == std::future_status::ready;
  const double waited = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  ::close(listener);  // Resets the pending connection, freeing a hung client.
  client.join();
  ASSERT_TRUE(returned) << "HttpGet hung on a silent peer";
  auto body = result.get();
  EXPECT_FALSE(body.ok());
  EXPECT_EQ(body.status().code(), StatusCode::kDeadlineExceeded)
      << body.status().ToString();
  EXPECT_LT(waited, 10.0);
}

TEST(MetricsEndpointTest, StartTelemetryFromEnvUnsetIsNull) {
  ::unsetenv("MAZE_TELEMETRY_TEST_VAR");
  auto live = StartTelemetryFromEnv("MAZE_TELEMETRY_TEST_VAR");
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(live.value().telemetry, nullptr);
  EXPECT_EQ(live.value().endpoint, nullptr);
}

TEST(MetricsEndpointTest, StartTelemetryFromEnvWithListen) {
  ::setenv("MAZE_TELEMETRY_TEST_VAR", "interval=0.05,rings=4,listen=0", 1);
  auto live = StartTelemetryFromEnv("MAZE_TELEMETRY_TEST_VAR");
  ::unsetenv("MAZE_TELEMETRY_TEST_VAR");
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  ASSERT_NE(live.value().telemetry, nullptr);
  ASSERT_NE(live.value().endpoint, nullptr);
  auto body = HttpGet(live.value().endpoint->port(), "/metrics");
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  EXPECT_TRUE(testutil::OpenMetricsChecker(body.value()).Valid());
  // Endpoint must stop before the registry it scrapes.
  live.value().endpoint.reset();
  live.value().telemetry.reset();
}

}  // namespace
}  // namespace maze::obs
