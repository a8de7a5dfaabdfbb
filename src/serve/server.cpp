#include "serve/server.hpp"

#include <fcntl.h>
#include <linux/sockios.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <stdexcept>

#include "core/estimate_cache.hpp"
#include "core/fault_injector.hpp"
#include "core/telemetry/flight_recorder.hpp"
#include "core/telemetry/log.hpp"
#include "core/telemetry/metrics.hpp"
#include "core/telemetry/net_io.hpp"
#include "core/telemetry/stage.hpp"
#include "core/telemetry/trace.hpp"

namespace gnntrans::serve {

namespace {

using Clock = std::chrono::steady_clock;
using telemetry::Stage;

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Graceful close: half-closes \p fd, then discards the peer's input until
/// its EOF, until it has acknowledged every byte sent (FIN included) with
/// nothing left to read, or for \p timeout_ms. Closing with unread input
/// would reset the stream, and the kernel would drop the responses still in
/// the send buffer.
void drain_and_close(int fd, int timeout_ms) {
  ::shutdown(fd, SHUT_WR);
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (int unacked = 0; ::ioctl(fd, SIOCOUTQ, &unacked) == 0;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) break;
    pollfd pfd{fd, POLLIN, 0};
    // Once everything sent is acknowledged, only input already here is read.
    const long long wait_ms =
        unacked == 0 ? 0 : std::min<long long>(left.count(), 10);
    const int ready = ::poll(&pfd, 1, static_cast<int>(wait_ms));
    if (ready < 0 && errno != EINTR) break;
    if (ready == 0 && unacked == 0) break;
    if (ready <= 0) continue;
    char buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0 || (n < 0 && errno != EINTR && errno != EAGAIN &&
                   errno != EWOULDBLOCK))
      break;
  }
  ::close(fd);
}

/// gnntrans_net_* observability, registered once (idempotent by name).
struct NetMetrics {
  telemetry::Counter connections = telemetry::MetricsRegistry::global().counter(
      "gnntrans_net_connections_total",
      "Connections accepted by the serving front-end");
  telemetry::Gauge active = telemetry::MetricsRegistry::global().gauge(
      "gnntrans_net_active_connections",
      "Connections currently held open by the serving front-end");
  telemetry::Counter frames = telemetry::MetricsRegistry::global().counter(
      "gnntrans_net_frames_total", "Complete length-prefixed frames read");
  telemetry::Counter requests = telemetry::MetricsRegistry::global().counter(
      "gnntrans_net_requests_total",
      "Timing requests that decoded successfully");
  telemetry::Counter served = telemetry::MetricsRegistry::global().counter(
      "gnntrans_net_served_total",
      "Responses handed to a live connection for delivery");
  telemetry::Counter rejected = telemetry::MetricsRegistry::global().counter(
      "gnntrans_net_rejected_total",
      "Requests answered with a typed reject (all reasons)");
  telemetry::Counter rejected_overload =
      telemetry::MetricsRegistry::global().counter(
          "gnntrans_net_rejected_overload_total",
          "Requests load-shed because the admission queue was full");
  telemetry::Counter rejected_malformed =
      telemetry::MetricsRegistry::global().counter(
          "gnntrans_net_rejected_malformed_total",
          "Frames rejected as malformed (decode failure or injected)");
  telemetry::Counter rejected_deadline =
      telemetry::MetricsRegistry::global().counter(
          "gnntrans_net_rejected_deadline_total",
          "Requests whose own deadline expired while queued");
  telemetry::Counter rejected_shutdown =
      telemetry::MetricsRegistry::global().counter(
          "gnntrans_net_rejected_shutdown_total",
          "Requests rejected because the server was draining");
  telemetry::Counter batches = telemetry::MetricsRegistry::global().counter(
      "gnntrans_net_batches_total",
      "Cross-client coalesced batches served through estimate_batch");
  telemetry::Histogram batch_size = telemetry::MetricsRegistry::global().histogram(
      "gnntrans_net_batch_size",
      {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024},
      "Requests per coalesced batch");
  telemetry::Gauge queue_depth = telemetry::MetricsRegistry::global().gauge(
      "gnntrans_net_queue_depth", "Requests waiting in the admission queue");
  telemetry::Gauge queue_oldest_age = telemetry::MetricsRegistry::global().gauge(
      "gnntrans_net_queue_oldest_age_seconds",
      "Age of the oldest request waiting in the admission queue");
  telemetry::Histogram queue_wait = telemetry::MetricsRegistry::global().histogram(
      "gnntrans_net_queue_wait_seconds",
      telemetry::HistogramData::default_latency_bounds(),
      "Time requests spent queued before their batch started");
  telemetry::Histogram request_seconds =
      telemetry::MetricsRegistry::global().histogram(
          "gnntrans_net_request_seconds",
          telemetry::HistogramData::default_latency_bounds(),
          "Admission-to-delivery latency of served requests");
  // Per-request stage clock (observed for every served request; the stages
  // telescope to request_seconds up to clock-read noise). One histogram per
  // request stage of the stage table: serve.queue, serve.batch_wait,
  // core.estimate, serve.encode, serve.write.
  telemetry::Histogram stage_queue = telemetry::MetricsRegistry::global().histogram(
      "gnntrans_net_stage_queue_seconds",
      telemetry::HistogramData::default_latency_bounds(),
      "Stage clock: admission-queue wait before batch formation");
  telemetry::Histogram stage_batch_wait =
      telemetry::MetricsRegistry::global().histogram(
          "gnntrans_net_stage_batch_wait_seconds",
          telemetry::HistogramData::default_latency_bounds(),
          "Stage clock: in-batch wait on peer nets (batch wall minus own "
          "model time)");
  telemetry::Histogram stage_model = telemetry::MetricsRegistry::global().histogram(
      "gnntrans_net_stage_model_seconds",
      telemetry::HistogramData::default_latency_bounds(),
      "Stage clock: core.estimate, this net's wall time in estimate_batch");
  telemetry::Histogram stage_serialize =
      telemetry::MetricsRegistry::global().histogram(
          "gnntrans_net_stage_serialize_seconds",
          telemetry::HistogramData::default_latency_bounds(),
          "Stage clock: response frame encode");
  telemetry::Histogram stage_write = telemetry::MetricsRegistry::global().histogram(
      "gnntrans_net_stage_write_seconds",
      telemetry::HistogramData::default_latency_bounds(),
      "Stage clock: outbox-ready to socket-write completion");
  telemetry::Counter undeliverable = telemetry::MetricsRegistry::global().counter(
      "gnntrans_net_responses_undeliverable_total",
      "Responses whose connection was gone before delivery");

  static const NetMetrics& get() {
    static const NetMetrics metrics;
    return metrics;
  }
};

void record_flight(const char* what, const char* outcome, const char* detail) {
  telemetry::FlightRecorder& flight = telemetry::FlightRecorder::global();
  if (!flight.enabled()) return;
  telemetry::FlightRecord fr;
  fr.set_net(what);
  fr.set_outcome(outcome);
  fr.set_error(detail);
  flight.record(fr);
}

/// Fault key "req/<id>/<attempt>" peeked straight out of a frame header (the
/// id/attempt fields sit at fixed offsets) so the read-fault decision can be
/// made before — and independent of — a full decode. Falls back to a
/// connection-local key for frames too short to carry a header.
std::string request_key(std::string_view payload, std::uint64_t conn_id,
                        std::uint64_t frame_seq) {
  if (payload.size() >= 20) {
    std::uint64_t id = 0;
    for (int i = 15; i >= 8; --i)
      id = (id << 8) | static_cast<std::uint8_t>(payload[static_cast<std::size_t>(i)]);
    std::uint32_t attempt = 0;
    for (int i = 19; i >= 16; --i)
      attempt = (attempt << 8) |
                static_cast<std::uint8_t>(payload[static_cast<std::size_t>(i)]);
    return "req/" + std::to_string(id) + "/" + std::to_string(attempt);
  }
  return "frame/" + std::to_string(conn_id) + "/" + std::to_string(frame_seq);
}

/// Best-effort id/attempt echo for rejects on payloads that failed to decode.
void peek_ids(std::string_view payload, std::uint64_t* id,
              std::uint32_t* attempt) {
  *id = 0;
  *attempt = 0;
  if (payload.size() < 20) return;
  for (int i = 15; i >= 8; --i)
    *id = (*id << 8) | static_cast<std::uint8_t>(payload[static_cast<std::size_t>(i)]);
  for (int i = 19; i >= 16; --i)
    *attempt = (*attempt << 8) |
               static_cast<std::uint8_t>(payload[static_cast<std::size_t>(i)]);
}

}  // namespace

/// One client connection. The connection thread owns fd reads and all writes;
/// other threads communicate through the outbox + wake pipe. `closing` is the
/// abortive-close flag (fault injection, protocol abuse): the thread exits
/// without flushing the outbox, so the peer observes a dropped connection.
struct NetServer::Connection {
  /// One outbound frame plus its stage-clock context. `ready` starts the
  /// write stage (the encode stage's closing clock read for served
  /// responses, outbox entry for rejects); `admitted` is the request's
  /// admission time (set for served responses, not rejects); `trace`
  /// carries the partially-filled request record of a head-sampled request
  /// for the connection thread to finalize at write completion.
  struct Outgoing {
    std::string frame;
    std::unique_ptr<telemetry::FlightRecord> trace;
    Clock::time_point admitted{};
    Clock::time_point ready{};
  };

  int fd = -1;
  int wake[2] = {-1, -1};
  std::uint64_t id = 0;
  std::mutex mutex;
  std::deque<Outgoing> outbox;  // guarded by mutex
  bool closing = false;         // guarded by mutex
  std::atomic<bool> done{false};
  std::thread thread;

  ~Connection() {
    for (int* p : {&wake[0], &wake[1]}) {
      if (*p >= 0) ::close(*p);
      *p = -1;
    }
  }

  void wake_up() {
    const char byte = 'w';
    [[maybe_unused]] const ssize_t n = ::write(wake[1], &byte, 1);
  }
};

/// One admitted request waiting for its batch.
struct NetServer::Pending {
  std::shared_ptr<Connection> conn;
  RequestFrame request;
  Clock::time_point enqueued;
  double queue_wait = 0.0;  ///< stamped at batch formation (deadline triage)
};

NetServer::NetServer(const core::WireTimingEstimator& estimator,
                     NetServerConfig config)
    : estimator_(estimator), config_(std::move(config)) {
  config_.threads = std::max<std::size_t>(1, config_.threads);
  config_.batch_max = std::max<std::size_t>(1, config_.batch_max);
  config_.queue_capacity = std::max<std::size_t>(1, config_.queue_capacity);
}

NetServer::~NetServer() { stop(); }

void NetServer::start() {
  if (running()) return;

  std::string error;
  listen_fd_ = telemetry::bind_listener(config_.addr, config_.port,
                                        config_.backlog, &bound_port_, &error);
  if (listen_fd_ < 0) throw std::runtime_error("net server: " + error);
  if (::pipe(wake_pipe_) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("net server: self-pipe failed");
  }

  pool_ = std::make_unique<core::ThreadPool>(config_.threads);
  workspaces_.resize(config_.threads);
  if (config_.cache_bytes > 0 && !cache_) {
    core::EstimateCacheConfig cache_config;
    cache_config.capacity_bytes = config_.cache_bytes;
    cache_ = std::make_unique<core::EstimateCache>(cache_config);
  }

  draining_.store(false, std::memory_order_release);
  closing_conns_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
  batch_thread_ = std::thread([this] { batch_loop(); });
  GNNTRANS_LOG_INFO("serve", "listening on %s:%u (batch_max %zu, queue %zu)",
                    config_.addr.c_str(), bound_port_, config_.batch_max,
                    config_.queue_capacity);
}

void NetServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;

  // 1. Close admission: new requests get typed kShuttingDown rejects. Taken
  //    under the queue lock so the batcher's exit check cannot race a
  //    just-admitted request into a dead queue.
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    draining_.store(true, std::memory_order_release);
  }

  // 2. Stop accepting.
  const char wake = 'q';
  [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &wake, 1);
  if (accept_thread_.joinable()) accept_thread_.join();

  // 3. Flush in-flight: the batcher drains the queue (draining_ makes the
  //    flush predicate immediate) and exits once it is empty.
  queue_cv_.notify_all();
  if (batch_thread_.joinable()) batch_thread_.join();

  // 4. Deliver and close: connection threads flush their outboxes, then exit.
  closing_conns_.store(true, std::memory_order_release);
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    conns.swap(conns_);
  }
  for (const auto& conn : conns) conn->wake_up();
  for (const auto& conn : conns)
    if (conn->thread.joinable()) conn->thread.join();

  for (int* fd : {&listen_fd_, &wake_pipe_[0], &wake_pipe_[1]}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
  record_flight("net_server", "drained", "");
  GNNTRANS_LOG_INFO("serve",
                    "drained: %llu served, %llu rejected, %llu batches",
                    static_cast<unsigned long long>(ledger_.served.load()),
                    static_cast<unsigned long long>(ledger_.rejected_total()),
                    static_cast<unsigned long long>(ledger_.batches.load()));
}

core::InferenceStats NetServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void NetServer::accept_loop() {
  const NetMetrics& metrics = NetMetrics::get();
  core::FaultInjector& faults = core::FaultInjector::global();
  while (running_.load(std::memory_order_acquire)) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents) break;  // self-pipe: stop() requested
    if (!(fds[0].revents & POLLIN)) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    const std::uint64_t seq = accept_seq_++;
    ledger_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    metrics.connections.inc();

    if (faults.armed() &&
        faults.should_fail(core::FaultSite::kAccept,
                           "accept/" + std::to_string(seq))) {
      // Injected accept fault: the connection dies before any exchange; the
      // client sees a transport failure and retries on a fresh connection.
      ledger_.faults_accept.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }

    if (active_conns_.load(std::memory_order_acquire) >=
        config_.max_connections) {
      // Connection-level load shed: a typed kOverloaded response (request_id
      // 0 = "about the connection, not a request"), then close. Never a
      // silent refusal.
      ledger_.connections_rejected_overload.fetch_add(1,
                                                      std::memory_order_relaxed);
      metrics.rejected_overload.inc();
      metrics.rejected.inc();
      ResponseFrame reject;
      reject.status = core::ErrorCode::kOverloaded;
      reject.provenance = core::EstimateProvenance::kFailed;
      reject.message = "connection limit reached";
      (void)telemetry::send_all(fd, encode_response(reject),
                                config_.write_timeout_ms);
      ::close(fd);
      record_flight("net_admission", "overloaded", "connection limit");
      continue;
    }

    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->id = seq;
    if (::pipe(conn->wake) < 0) {
      ::close(fd);
      continue;
    }
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    // Response frames are small; without TCP_NODELAY Nagle + delayed ACK can
    // park them for tens of milliseconds.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    active_conns_.fetch_add(1, std::memory_order_acq_rel);
    metrics.active.set(static_cast<double>(active_conns_.load()));
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      conns_.push_back(conn);
    }
    conn->thread = std::thread([this, conn] { connection_loop(conn); });
    reap_finished_connections();
  }
}

void NetServer::reap_finished_connections() {
  std::vector<std::shared_ptr<Connection>> finished;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    auto it = std::partition(
        conns_.begin(), conns_.end(),
        [](const std::shared_ptr<Connection>& c) { return !c->done.load(); });
    finished.assign(it, conns_.end());
    conns_.erase(it, conns_.end());
  }
  for (const auto& conn : finished)
    if (conn->thread.joinable()) conn->thread.join();
}

void NetServer::connection_loop(const std::shared_ptr<Connection>& conn) {
  const NetMetrics& metrics = NetMetrics::get();
  std::string read_buffer;
  Clock::time_point last_byte = Clock::now();
  bool abortive = false;

  // Write-completion bookkeeping, run after a successful send. The write
  // stage covers outbox-ready to send completion; served responses (admitted
  // stamp set) observe it into the stage histogram, and head-sampled requests
  // additionally close their stage clock: wall time from admission, a
  // serve.write span on the request's flow lane, the request_seconds p99
  // exemplar, and the flight recorder's slowest-request slots (/tracez).
  const auto finish_delivery = [&metrics](Connection::Outgoing& msg) {
    const Clock::time_point sent = Clock::now();  // closes write and wall
    const double write_s =
        std::chrono::duration<double>(sent - msg.ready).count();
    if (msg.admitted != Clock::time_point{}) metrics.stage_write.observe(write_s);
    if (!msg.trace) return;
    telemetry::FlightRecord& rec = *msg.trace;
    const double wall_s =
        std::chrono::duration<double>(sent - msg.admitted).count();
    rec.stage(Stage::kWrite) = static_cast<float>(write_s * 1e6);
    rec.total_us = static_cast<float>(wall_s * 1e6);
    telemetry::TraceRecorder& recorder = telemetry::TraceRecorder::global();
    if (recorder.enabled()) {
      const std::int64_t now_ns = recorder.now_ns();
      recorder.record_event(
          telemetry::stage_name(Stage::kWrite), "request",
          now_ns - static_cast<std::int64_t>(write_s * 1e9), now_ns,
          telemetry::TracePhase::kComplete, rec.trace_id);
    }
    metrics.request_seconds.annotate_exemplar(wall_s, rec.trace_id, rec.net);
    telemetry::FlightRecorder::global().record_request(rec);
  };

  for (;;) {
    // Deliver everything queued for this client first.
    std::deque<Connection::Outgoing> out;
    {
      std::lock_guard<std::mutex> lock(conn->mutex);
      if (conn->closing) {
        abortive = true;  // fault-injected / protocol-abuse close: drop outbox
        break;
      }
      out.swap(conn->outbox);
    }
    bool write_failed = false;
    for (Connection::Outgoing& msg : out) {
      // send_all counts the failure in gnntrans_obs_send_failures_total; a
      // slow or gone client costs at most write_timeout_ms here.
      if (!telemetry::send_all(conn->fd, msg.frame, config_.write_timeout_ms)) {
        ledger_.undeliverable.fetch_add(1, std::memory_order_relaxed);
        metrics.undeliverable.inc();
        write_failed = true;
        break;
      }
      finish_delivery(msg);
    }
    if (write_failed) break;

    if (closing_conns_.load(std::memory_order_acquire)) {
      // Graceful drain: exit once the outbox is verifiably empty (the batcher
      // has already been joined, so nothing new can arrive from it).
      std::lock_guard<std::mutex> lock(conn->mutex);
      if (conn->outbox.empty()) break;
      continue;
    }

    pollfd fds[2] = {{conn->fd, POLLIN, 0}, {conn->wake[0], POLLIN, 0}};
    const int ready = ::poll(fds, 2, 100);
    if (ready < 0 && errno != EINTR) break;
    if (fds[1].revents) {
      char drain[16];
      [[maybe_unused]] const ssize_t n =
          ::read(conn->wake[0], drain, sizeof(drain));
    }
    if (fds[0].revents & POLLIN) {
      char buf[4096];
      const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
      if (n == 0) break;  // peer closed (possibly mid-frame): clean close
      if (n < 0 && errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK)
        break;
      if (n > 0) {
        read_buffer.append(buf, static_cast<std::size_t>(n));
        last_byte = Clock::now();
        bool close_conn = false;
        for (;;) {
          std::string payload;
          const FrameStatus fs =
              try_extract_frame(read_buffer, &payload, config_.max_frame_bytes);
          if (fs == FrameStatus::kNeedMore) break;
          if (fs == FrameStatus::kOversize) {
            // The stream cannot be resynchronized past a hostile length:
            // typed reject, then close.
            ledger_.rejected_malformed.fetch_add(1, std::memory_order_relaxed);
            metrics.rejected_malformed.inc();
            metrics.rejected.inc();
            send_reject(conn, 0, 0, core::ErrorCode::kMalformedFrame,
                        "declared frame length exceeds limit");
            close_conn = true;
            break;
          }
          if (!handle_frame(conn, std::move(payload))) {
            close_conn = true;
            break;
          }
        }
        if (close_conn) {
          // Flush the reject (if any) before closing so the client sees a
          // typed answer, not just a reset.
          std::deque<Connection::Outgoing> tail;
          {
            std::lock_guard<std::mutex> lock(conn->mutex);
            tail.swap(conn->outbox);
          }
          for (Connection::Outgoing& msg : tail)
            if (telemetry::send_all(conn->fd, msg.frame,
                                    config_.write_timeout_ms))
              finish_delivery(msg);
          break;
        }
      }
    }
    // Half-open guard: a partial frame that stopped making progress.
    if (!read_buffer.empty() &&
        seconds_since(last_byte) * 1e3 >
            static_cast<double>(config_.read_timeout_ms)) {
      GNNTRANS_LOG_WARN("serve",
                        "closing half-open connection %llu (%zu buffered "
                        "bytes, no progress in %d ms)",
                        static_cast<unsigned long long>(conn->id),
                        read_buffer.size(), config_.read_timeout_ms);
      break;
    }
  }

  {
    // Mark closing *before* tearing the socket down so the batcher counts
    // further deliveries as undeliverable instead of queuing into the void.
    std::lock_guard<std::mutex> lock(conn->mutex);
    conn->closing = true;
    if (abortive) conn->outbox.clear();
  }
  if (abortive) {
    ::shutdown(conn->fd, SHUT_RDWR);
    ::close(conn->fd);
  } else {
    drain_and_close(conn->fd, config_.read_timeout_ms);
  }
  conn->fd = -1;
  active_conns_.fetch_sub(1, std::memory_order_acq_rel);
  metrics.active.set(static_cast<double>(active_conns_.load()));
  conn->done.store(true, std::memory_order_release);
}

bool NetServer::handle_frame(const std::shared_ptr<Connection>& conn,
                             std::string payload) {
  const NetMetrics& metrics = NetMetrics::get();
  core::FaultInjector& faults = core::FaultInjector::global();
  ledger_.frames.fetch_add(1, std::memory_order_relaxed);
  metrics.frames.inc();

  static thread_local std::uint64_t frame_seq = 0;
  const std::string key = request_key(payload, conn->id, frame_seq++);
  if (faults.armed() &&
      faults.should_fail(core::FaultSite::kNetRead, key)) {
    // Injected torn read: pretend the frame never arrived intact and drop the
    // connection — the client observes a transport failure and retries.
    ledger_.faults_read.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  RequestFrame request;
  if (core::Status status = decode_request(payload, &request); !status.ok()) {
    // Framing is intact (the length prefix was honored), so the connection
    // survives a garbage payload: typed reject, keep reading.
    ledger_.rejected_malformed.fetch_add(1, std::memory_order_relaxed);
    metrics.rejected_malformed.inc();
    metrics.rejected.inc();
    std::uint64_t id = 0;
    std::uint32_t attempt = 0;
    peek_ids(payload, &id, &attempt);
    send_reject(conn, id, attempt, core::ErrorCode::kMalformedFrame,
                status.message());
    return true;
  }
  ledger_.requests_decoded.fetch_add(1, std::memory_order_relaxed);
  metrics.requests.inc();

  // Flow step on the request's async lane: client 's' → this 't' →
  // batch/model spans → client 'f' renders as one arrowed lane in the Chrome
  // trace viewer.
  if (request.trace.sampled)
    telemetry::TraceRecorder::global().record_flow(
        telemetry::TracePhase::kFlowStep, "server_admit", "request",
        request.trace.trace_id);

  if (faults.armed() &&
      faults.should_fail(core::FaultSite::kNetDecode, key)) {
    // Injected decode fault: typed reject, connection stays healthy.
    ledger_.faults_decode.fetch_add(1, std::memory_order_relaxed);
    ledger_.rejected_malformed.fetch_add(1, std::memory_order_relaxed);
    metrics.rejected_malformed.inc();
    metrics.rejected.inc();
    send_reject(conn, request.request_id, request.attempt,
                core::ErrorCode::kMalformedFrame, "injected decode fault");
    return true;
  }

  // Admission. Under the queue lock so draining / capacity decisions are
  // exact (never a request admitted into a queue nobody will drain).
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (draining_.load(std::memory_order_acquire)) {
      ledger_.rejected_shutdown.fetch_add(1, std::memory_order_relaxed);
      metrics.rejected_shutdown.inc();
      metrics.rejected.inc();
      send_reject(conn, request.request_id, request.attempt,
                  core::ErrorCode::kShuttingDown, "server draining");
      return true;
    }
    if (queue_.size() >= config_.queue_capacity) {
      ledger_.rejected_overload.fetch_add(1, std::memory_order_relaxed);
      metrics.rejected_overload.inc();
      metrics.rejected.inc();
      send_reject(conn, request.request_id, request.attempt,
                  core::ErrorCode::kOverloaded, "admission queue full");
      return true;
    }
    queue_.push_back(Pending{conn, std::move(request), Clock::now()});
    metrics.queue_depth.set(static_cast<double>(queue_.size()));
  }
  queue_cv_.notify_one();
  return true;
}

void NetServer::send_reject(const std::shared_ptr<Connection>& conn,
                            std::uint64_t request_id, std::uint32_t attempt,
                            core::ErrorCode code, const std::string& message) {
  ResponseFrame reject;
  reject.request_id = request_id;
  reject.attempt = attempt;
  reject.status = code;
  reject.provenance = core::EstimateProvenance::kFailed;
  reject.message = message;
  (void)enqueue_response(conn, encode_response(reject));
}

bool NetServer::enqueue_response(
    const std::shared_ptr<Connection>& conn, std::string frame,
    std::unique_ptr<telemetry::FlightRecord> trace,
    std::chrono::steady_clock::time_point admitted,
    std::chrono::steady_clock::time_point ready) {
  Connection::Outgoing msg;
  msg.frame = std::move(frame);
  msg.trace = std::move(trace);
  msg.admitted = admitted;
  msg.ready = ready == Clock::time_point{} ? Clock::now() : ready;
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    if (conn->closing) return false;
    conn->outbox.push_back(std::move(msg));
  }
  conn->wake_up();
  return true;
}

void NetServer::batch_loop() {
  const NetMetrics& metrics = NetMetrics::get();
  core::FaultInjector& faults = core::FaultInjector::global();

  for (;;) {
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      // Size-or-age coalescing (the COMM_MIN/COMM_DELAY pair): flush a full
      // batch immediately, otherwise wake exactly when the oldest request
      // hits the flush age. The deadline is re-armed on every wakeup, so a
      // request landing in an idle queue flushes flush_age later — not up to
      // a whole liveness tick later (the 100 ms idle wait is a backstop
      // only, every arrival notifies the cv).
      for (;;) {
        if (draining_.load(std::memory_order_acquire) ||
            queue_.size() >= config_.batch_max)
          break;
        if (queue_.empty()) {
          metrics.queue_oldest_age.set(0.0);
          queue_cv_.wait_for(lock, std::chrono::milliseconds(100));
          continue;
        }
        const Clock::time_point flush_at =
            queue_.front().enqueued +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(config_.flush_age_seconds));
        if (Clock::now() >= flush_at) break;
        metrics.queue_oldest_age.set(seconds_since(queue_.front().enqueued));
        queue_cv_.wait_until(lock, flush_at);
      }
      if (queue_.empty()) {
        // Only reachable when draining: the queue is verifiably flushed.
        metrics.queue_oldest_age.set(0.0);
        break;
      }
      metrics.queue_oldest_age.set(seconds_since(queue_.front().enqueued));
      const std::size_t take = std::min(queue_.size(), config_.batch_max);
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      metrics.queue_depth.set(static_cast<double>(queue_.size()));
      metrics.queue_oldest_age.set(
          queue_.empty() ? 0.0 : seconds_since(queue_.front().enqueued));
    }

    // Per-request deadline triage: a request whose budget is already spent
    // gets a typed reject now instead of wasting a batch slot.
    const Clock::time_point batch_start = Clock::now();
    std::vector<Pending> kept;
    kept.reserve(batch.size());
    double tightest_remaining = 0.0;  // 0 = no deadline in this batch
    for (Pending& pending : batch) {
      const double waited = std::chrono::duration<double>(
                                batch_start - pending.enqueued)
                                .count();
      metrics.queue_wait.observe(waited);
      metrics.stage_queue.observe(waited);
      pending.queue_wait = waited;
      if (pending.request.trace.sampled) {
        // Retrospective "queue" span: begin reconstructed from the wait so
        // the span abuts batch formation exactly.
        telemetry::TraceRecorder& recorder = telemetry::TraceRecorder::global();
        if (recorder.enabled()) {
          const std::int64_t now_ns = recorder.now_ns();
          recorder.record_event(
              telemetry::stage_name(Stage::kQueue), "request",
              now_ns - static_cast<std::int64_t>(waited * 1e9), now_ns,
              telemetry::TracePhase::kComplete, pending.request.trace.trace_id);
        }
      }
      if (pending.request.deadline_us > 0) {
        const double remaining =
            static_cast<double>(pending.request.deadline_us) * 1e-6 - waited;
        if (remaining <= 0.0) {
          ledger_.rejected_deadline.fetch_add(1, std::memory_order_relaxed);
          metrics.rejected_deadline.inc();
          metrics.rejected.inc();
          send_reject(pending.conn, pending.request.request_id,
                      pending.request.attempt,
                      core::ErrorCode::kDeadlineExceeded,
                      "deadline expired while queued");
          continue;
        }
        if (tightest_remaining == 0.0 || remaining < tightest_remaining)
          tightest_remaining = remaining;
      }
      kept.push_back(std::move(pending));
    }
    if (kept.empty()) continue;

    std::vector<core::NetBatchItem> items;
    items.reserve(kept.size());
    std::vector<telemetry::TraceContext> traces;
    traces.reserve(kept.size());
    for (const Pending& pending : kept) {
      items.push_back({&pending.request.net, &pending.request.context});
      traces.push_back(pending.request.trace);
    }

    core::BatchOptions options = config_.batch;
    options.pool = pool_.get();
    options.workspaces = &workspaces_;
    options.cache = cache_.get();  // content-addressed memo (cache_bytes)
    options.traces = &traces;
    // The batch inherits the tightest per-request budget: estimate_batch's
    // deadline is relative to its own start, which is (to within triage
    // microseconds) the remaining budget computed above.
    options.deadline_seconds = tightest_remaining;
    std::vector<core::NetOutcome> outcomes;
    options.outcomes = &outcomes;

    core::InferenceStats batch_stats;
    const std::vector<std::vector<core::PathEstimate>> results =
        estimator_.estimate_batch(items, options, &batch_stats);
    ledger_.batches.fetch_add(1, std::memory_order_relaxed);
    metrics.batches.inc();
    metrics.batch_size.observe(static_cast<double>(kept.size()));
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      stats_.merge(batch_stats);
    }

    for (std::size_t i = 0; i < kept.size(); ++i) {
      const Pending& pending = kept[i];
      const std::string key = "req/" + std::to_string(pending.request.request_id) +
                              "/" + std::to_string(pending.request.attempt);
      if (faults.armed() &&
          faults.should_fail(core::FaultSite::kNetWrite, key)) {
        // Injected failed write: the connection dies with the response
        // undelivered; the client observes a transport failure and retries.
        ledger_.faults_write.fetch_add(1, std::memory_order_relaxed);
        {
          std::lock_guard<std::mutex> lock(pending.conn->mutex);
          pending.conn->closing = true;
        }
        pending.conn->wake_up();
        continue;
      }
      // Stage clock: batch wall minus this net's own core.estimate time is
      // the wait on peer nets; the split telescopes (queue + batch_wait +
      // estimate + encode + write = wall) because adjacent stage boundaries
      // share clock reads: batch_start, batch_done, encoded, and the send.
      const Clock::time_point batch_done = Clock::now();
      const double batch_elapsed =
          std::chrono::duration<double>(batch_done - batch_start).count();
      const double batch_wait =
          std::max(0.0, batch_elapsed - outcomes[i].net_seconds);
      ResponseFrame response;
      response.request_id = pending.request.request_id;
      response.attempt = pending.request.attempt;
      response.status = outcomes[i].error;
      response.provenance = outcomes[i].provenance;
      response.message = outcomes[i].message;
      response.paths = results[i];
      std::string frame = encode_response(response);
      const Clock::time_point encoded = Clock::now();
      const double encode =
          std::chrono::duration<double>(encoded - batch_done).count();
      metrics.stage_batch_wait.observe(batch_wait);
      metrics.stage_model.observe(outcomes[i].net_seconds);
      metrics.stage_serialize.observe(encode);

      std::unique_ptr<telemetry::FlightRecord> trace;
      if (pending.request.trace.sampled) {
        metrics.stage_model.annotate_exemplar(outcomes[i].net_seconds,
                                              pending.request.trace.trace_id,
                                              pending.request.net.name);
        trace = std::make_unique<telemetry::FlightRecord>(
            core::to_flight_record(pending.request.net.name, outcomes[i]));
        trace->trace_id = pending.request.trace.trace_id;
        trace->request_id = pending.request.request_id;
        trace->attempt = pending.request.attempt;
        trace->batch_size = static_cast<std::uint32_t>(kept.size());
        for (const auto& [stage, seconds] :
             {std::pair{Stage::kQueue, pending.queue_wait},
              std::pair{Stage::kBatchWait, batch_wait},
              std::pair{Stage::kEstimate, outcomes[i].net_seconds},
              std::pair{Stage::kEncode, encode}})
          trace->stage(stage) = static_cast<float>(seconds * 1e6);
      }
      if (enqueue_response(pending.conn, std::move(frame), std::move(trace),
                           pending.enqueued, encoded)) {
        ledger_.served.fetch_add(1, std::memory_order_relaxed);
        metrics.served.inc();
        metrics.request_seconds.observe(seconds_since(pending.enqueued));
      } else {
        ledger_.undeliverable.fetch_add(1, std::memory_order_relaxed);
        metrics.undeliverable.inc();
      }
    }
  }
}

}  // namespace gnntrans::serve
