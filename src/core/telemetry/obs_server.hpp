/// \file obs_server.hpp
/// Live observability endpoint: a minimal HTTP/1.1 server over POSIX sockets
/// (zero external dependencies) that makes the telemetry subsystem scrapable
/// while the process serves traffic.
///
/// Endpoints (GET only, Connection: close, no keep-alive):
///   /metrics       Prometheus text exposition of the global MetricsRegistry
///   /metrics.json  the same registry as one JSON document
///   /healthz       200 "ok" while the process is alive
///   /readyz        200 "ready" once a model is loaded AND the lifetime
///                  serving failure rate is under the configured threshold
///                  AND the quality monitor reports no drift/residual alert;
///                  503 with the reason otherwise
///   /buildinfo     build/version/pid/uptime JSON
///   /flight        recent per-net flight records (FlightRecorder JSON);
///                  ?n=<limit> keeps the newest N per list, ?net=<name>
///                  filters to one net
///   /quality       model-quality state (QualityMonitor JSON: shadow residual
///                  quantiles, per-feature PSI, degradation verdict)
///   /tracez        the slowest retained sampled requests with their full
///                  stage breakdown (the flight recorder's request slots,
///                  slowest first); ?n=<limit> caps the list — resolves the
///                  trace_ids exported as /metrics histogram exemplars
///
/// One background thread accepts and answers sequentially — a scrape every
/// few seconds, not a web service. Requests are bounded in size and time;
/// shutdown is graceful via a self-pipe the poll loop watches, so stop()
/// never races an in-flight accept.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

namespace gnntrans::telemetry {

/// Process-wide readiness flag: the CLI (or any embedder) sets it once a
/// model is loaded/trained. /readyz answers 503 until then.
void set_model_ready(bool ready) noexcept;
[[nodiscard]] bool model_ready() noexcept;

struct ObsServerConfig {
  std::string addr = "127.0.0.1";  ///< dotted-quad bind address
  std::uint16_t port = 0;          ///< 0 = ephemeral; read back via port()
  int backlog = 16;
  std::size_t max_request_bytes = 8192;  ///< 413 beyond this
  int request_timeout_ms = 5000;         ///< connection dropped beyond this
  /// /readyz flips to 503 when lifetime failed/served exceeds this fraction.
  double max_failure_rate = 0.5;
};

/// The scrape server. start() binds + spawns the thread; the destructor (or
/// stop()) shuts it down gracefully.
class ObsServer {
 public:
  explicit ObsServer(ObsServerConfig config = {});
  ~ObsServer();
  ObsServer(const ObsServer&) = delete;
  ObsServer& operator=(const ObsServer&) = delete;

  /// Binds, listens, spawns the serving thread. Throws std::runtime_error
  /// on an unparseable address or a failed socket/bind/listen.
  void start();

  /// Graceful shutdown: wakes the poll loop via the self-pipe and joins.
  /// Idempotent.
  void stop();

  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  /// Actual bound port (resolves port 0 after start()).
  [[nodiscard]] std::uint16_t port() const noexcept { return bound_port_; }

  [[nodiscard]] const ObsServerConfig& config() const noexcept {
    return config_;
  }

 private:
  void serve_loop();
  void handle_connection(int fd);

  ObsServerConfig config_;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};  ///< self-pipe: stop() writes, loop polls
  std::uint16_t bound_port_ = 0;
  std::atomic<bool> running_{false};
  std::thread thread_;
};

}  // namespace gnntrans::telemetry
