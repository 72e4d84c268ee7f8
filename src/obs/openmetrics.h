// OpenMetrics text exposition + minimal HTTP pull endpoint (DESIGN.md §4g).
//
// OpenMetricsText renders the latest TelemetryRegistry scrape in the
// OpenMetrics/Prometheus text format: one `# TYPE`/`# HELP` pair per metric
// family, `_total` samples for counters, bare-name samples for gauges (the
// latest scraped level), cumulative `_bucket{le="..."}` / `_count` / `_sum`
// samples for histograms (with request-id exemplars on buckets that have
// them), terminated by `# EOF`. Internal metric names
// ("serve.latency_us") are sanitized to the OpenMetrics charset with a
// `maze_` prefix ("maze_serve_latency_us"); distinct internal names that
// sanitize to the same exposition name share one family (last write wins,
// acceptable for a debug surface). Bucket counts and `_count` come from the
// scrape's single consistent bucket array, so both are monotone between
// scrapes (see telemetry.h).
//
// MetricsEndpoint is a deliberately small blocking HTTP/1.0 server on
// 127.0.0.1 — one accept loop, one request per connection — serving
//   /metrics  ScrapeOnce() + exposition (so every pull is a fresh window)
//   /healthz  JSON liveness (or a caller-provided callback)
//   /report   caller-provided callback (the serve report), 404 when unset
// Each client gets one second to send its request head (and each blocked
// send one second to drain), so an idle connection cannot stall later
// scrapes. It exists so `maze_cli serve --listen=PORT` can be curled mid-run
// and CI can validate the exposition; it is not a general web server.
#ifndef MAZE_OBS_OPENMETRICS_H_
#define MAZE_OBS_OPENMETRICS_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "obs/telemetry.h"
#include "util/status.h"

namespace maze::obs {

// Exposition name for an internal metric name: "maze_" + name with every
// character outside [a-zA-Z0-9_:] mapped to '_'.
std::string OpenMetricsName(const std::string& name);

// Escapes a HELP text / label value: \\, \", and \n.
std::string OpenMetricsEscape(const std::string& text);

// Renders the latest scrape. Returns an exposition with only `# EOF` when
// nothing has been scraped yet.
std::string OpenMetricsText(const TelemetryRegistry& telemetry);

class MetricsEndpoint {
 public:
  explicit MetricsEndpoint(TelemetryRegistry* telemetry);
  ~MetricsEndpoint();  // Stops the accept loop.

  MetricsEndpoint(const MetricsEndpoint&) = delete;
  MetricsEndpoint& operator=(const MetricsEndpoint&) = delete;

  // Binds 127.0.0.1:port (port 0 picks an ephemeral port; see port()) and
  // starts the accept loop.
  Status Start(int port);
  void Stop();
  int port() const { return port_; }

  // Optional handlers; both return a JSON body. Set before Start().
  void SetHealthz(std::function<std::string()> handler);
  void SetReport(std::function<std::string()> handler);

 private:
  void AcceptLoop();
  void HandleConnection(int fd);

  TelemetryRegistry* const telemetry_;
  std::function<std::string()> healthz_;
  std::function<std::string()> report_;
  int listen_fd_ = -1;
  int port_ = -1;
  std::atomic<bool> stop_{false};
  std::thread acceptor_;
};

// Convenience for benches and the CLI: builds telemetry (and an endpoint when
// the spec asks for one) from a MAZE_TELEMETRY-style environment variable.
// Both pointers are null when the variable is unset.
struct LiveTelemetry {
  std::unique_ptr<TelemetryRegistry> telemetry;
  std::unique_ptr<MetricsEndpoint> endpoint;
};
StatusOr<LiveTelemetry> StartTelemetryFromEnv(
    const char* env_name = "MAZE_TELEMETRY");

// Loopback HTTP GET helper (tests, bench self-checks): returns the response
// body for 2xx statuses, an error Status otherwise. A peer that does not
// finish its response within 5 s yields DeadlineExceeded instead of a hang.
StatusOr<std::string> HttpGet(int port, const std::string& path);

}  // namespace maze::obs

#endif  // MAZE_OBS_OPENMETRICS_H_
