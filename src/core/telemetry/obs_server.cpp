#include "core/telemetry/obs_server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "core/telemetry/flight_recorder.hpp"
#include "core/telemetry/log.hpp"
#include "core/telemetry/metrics.hpp"
#include "core/telemetry/net_io.hpp"
#include "core/telemetry/quality.hpp"

namespace gnntrans::telemetry {

namespace {

std::atomic<bool> g_model_ready{false};

constexpr const char* kServerVersion = "gnntrans-obs/1";

const char* status_text(int status) noexcept {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 503: return "Service Unavailable";
  }
  return "Internal Server Error";
}

/// Full HTTP/1.1 response; every reply closes the connection (no keep-alive
/// state machine — scrapes are one-shot).
std::string make_response(int status, std::string_view content_type,
                          std::string_view body) {
  std::string out = "HTTP/1.1 " + std::to_string(status) + " " +
                    status_text(status) + "\r\n";
  out += "Server: ";
  out += kServerVersion;
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: " + std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

/// Lifetime serving failure rate from the global registry. counter() is
/// idempotent by name, so this works before the serving path has registered
/// anything (both read 0).
double serving_failure_rate() {
  auto& registry = MetricsRegistry::global();
  const double nets =
      static_cast<double>(registry.counter("gnntrans_serving_nets_total").value());
  const double failed = static_cast<double>(
      registry.counter("gnntrans_serving_failed_total").value());
  return nets > 0.0 ? failed / nets : 0.0;
}

struct ObsMetrics {
  Counter requests = MetricsRegistry::global().counter(
      "gnntrans_obs_requests_total", "HTTP requests answered by the obs server");
  Counter errors = MetricsRegistry::global().counter(
      "gnntrans_obs_request_errors_total",
      "Obs-server requests answered with a non-2xx status");

  static const ObsMetrics& get() {
    static const ObsMetrics metrics;
    return metrics;
  }
};

/// Value of \p key in a "k=v&k=v" query string; empty when absent. No
/// percent-decoding — the accepted values (counts, net names) are plain.
std::string query_param(const std::string& query, std::string_view key) {
  std::size_t pos = 0;
  while (pos < query.size()) {
    std::size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const std::size_t eq = query.find('=', pos);
    if (eq != std::string::npos && eq < amp && eq - pos == key.size() &&
        query.compare(pos, key.size(), key) == 0)
      return query.substr(eq + 1, amp - eq - 1);
    pos = amp + 1;
  }
  return {};
}

const std::chrono::steady_clock::time_point g_process_epoch =
    std::chrono::steady_clock::now();

std::string buildinfo_json() {
  const double uptime = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - g_process_epoch)
                            .count();
  std::ostringstream out;
  out << "{\"name\":\"gnntrans\",\"server\":\"" << kServerVersion
      << "\",\"compiler\":\"" << json_escape(__VERSION__)
      << "\",\"cxx_standard\":" << __cplusplus << ",\"pid\":" << ::getpid()
      << ",\"uptime_seconds\":" << uptime
      << ",\"model_ready\":" << (model_ready() ? "true" : "false") << "}";
  return out.str();
}

}  // namespace

void set_model_ready(bool ready) noexcept {
  g_model_ready.store(ready, std::memory_order_release);
}

bool model_ready() noexcept {
  return g_model_ready.load(std::memory_order_acquire);
}

ObsServer::ObsServer(ObsServerConfig config) : config_(std::move(config)) {}

ObsServer::~ObsServer() { stop(); }

void ObsServer::start() {
  if (running()) return;

  // Shared listener helper: SO_REUSEADDR + EADDRINUSE retry/backoff (the
  // back-to-back ctest port-reuse flake) + port-0 ephemeral resolution.
  std::string error;
  listen_fd_ = bind_listener(config_.addr, config_.port, config_.backlog,
                             &bound_port_, &error);
  if (listen_fd_ < 0) throw std::runtime_error("obs server: " + error);

  if (::pipe(wake_pipe_) < 0) {
    const std::string detail = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("obs server: self-pipe failed: " + detail);
  }

  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { serve_loop(); });
}

void ObsServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  const char wake = 'q';
  [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &wake, 1);
  if (thread_.joinable()) thread_.join();
  for (int* fd : {&listen_fd_, &wake_pipe_[0], &wake_pipe_[1]}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
}

void ObsServer::serve_loop() {
  GNNTRANS_LOG_INFO("obs", "serving /metrics /metrics.json /healthz /readyz "
                           "/buildinfo /flight /quality /tracez on %s:%u",
                    config_.addr.c_str(), bound_port_);
  while (running_.load(std::memory_order_acquire)) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents) break;  // self-pipe: stop() requested
    if (!(fds[0].revents & POLLIN)) continue;
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    // Non-blocking so send_all's write timeout can engage on a slow client
    // (a blocking send would stall the single serving thread indefinitely).
    const int flags = ::fcntl(conn, F_GETFL, 0);
    if (flags >= 0) ::fcntl(conn, F_SETFL, flags | O_NONBLOCK);
    handle_connection(conn);
    ::close(conn);
  }
}

void ObsServer::handle_connection(int fd) {
  const ObsMetrics& metrics = ObsMetrics::get();
  metrics.requests.inc();

  const auto respond = [&](int status, std::string_view type,
                           std::string_view body) {
    if (status >= 400) metrics.errors.inc();
    // send_all reports failure (and counts it in the shared
    // gnntrans_obs_send_failures_total) instead of silently truncating the
    // scrape; a slow client is bounded by the same request timeout as reads.
    if (!send_all(fd, make_response(status, type, body),
                  config_.request_timeout_ms)) {
      GNNTRANS_LOG_WARN("obs",
                        "dropped %zu-byte response (status %d): client gone "
                        "or write timed out",
                        body.size(), status);
    }
  };

  // Read until the end of the request head, a size/time bound, or EOF.
  std::string request;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(config_.request_timeout_ms);
  while (request.find("\r\n\r\n") == std::string::npos &&
         request.find("\n\n") == std::string::npos) {
    if (request.size() > config_.max_request_bytes)
      return respond(413, "text/plain", "request too large\n");
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (remaining.count() <= 0)
      return respond(408, "text/plain", "request timeout\n");
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return respond(408, "text/plain", "request timeout\n");
    char buf[2048];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK))
      continue;
    if (n <= 0) break;  // client closed before finishing the head
    request.append(buf, static_cast<std::size_t>(n));
  }

  // Request line: METHOD SP PATH SP VERSION.
  const std::size_t line_end = request.find_first_of("\r\n");
  const std::string line = request.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = line.rfind(' ');
  if (sp1 == std::string::npos || sp2 == sp1)
    return respond(400, "text/plain", "malformed request line\n");
  const std::string method = line.substr(0, sp1);
  std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
  std::string query_string;
  if (const std::size_t query = path.find('?'); query != std::string::npos) {
    query_string = path.substr(query + 1);
    path.resize(query);
  }
  if (method != "GET")
    return respond(405, "text/plain", "only GET is supported\n");

  if (path == "/metrics") {
    return respond(200, "text/plain; version=0.0.4; charset=utf-8",
                   MetricsRegistry::global().prometheus_text());
  }
  if (path == "/metrics.json") {
    return respond(200, "application/json",
                   MetricsRegistry::global().json_text());
  }
  if (path == "/healthz") {
    return respond(200, "text/plain", "ok\n");
  }
  if (path == "/readyz") {
    if (!model_ready())
      return respond(503, "text/plain", "unready: no model loaded\n");
    const double rate = serving_failure_rate();
    if (rate > config_.max_failure_rate) {
      char body[96];
      std::snprintf(body, sizeof(body),
                    "unready: failure rate %.3f exceeds %.3f\n", rate,
                    config_.max_failure_rate);
      return respond(503, "text/plain", body);
    }
    // Accuracy-aware readiness: a drifted feature distribution or a blown
    // shadow-residual quantile means the model is answering fast but can no
    // longer be trusted — stop routing traffic here, same as a crash would.
    if (std::string reason;
        QualityMonitor::global().degraded(&reason)) {
      return respond(503, "text/plain",
                     "unready: model quality degraded (" + reason + ")\n");
    }
    return respond(200, "text/plain", "ready\n");
  }
  if (path == "/buildinfo") {
    return respond(200, "application/json", buildinfo_json());
  }
  if (path == "/flight") {
    FlightRecorder::JsonFilter filter;
    if (const std::string n = query_param(query_string, "n"); !n.empty())
      filter.limit =
          static_cast<std::size_t>(std::strtoull(n.c_str(), nullptr, 10));
    filter.net = query_param(query_string, "net");
    std::ostringstream out;
    FlightRecorder::global().write_json(out, filter);
    return respond(200, "application/json", out.str());
  }
  if (path == "/quality") {
    return respond(200, "application/json",
                   QualityMonitor::global().state_json());
  }
  if (path == "/tracez") {
    std::size_t limit = 0;
    if (const std::string n = query_param(query_string, "n"); !n.empty())
      limit = static_cast<std::size_t>(std::strtoull(n.c_str(), nullptr, 10));
    std::ostringstream out;
    FlightRecorder::global().write_tracez_json(out, limit);
    return respond(200, "application/json", out.str());
  }
  respond(404, "text/plain", "unknown path\n");
}

}  // namespace gnntrans::telemetry
