#include "serve/server.hpp"

#include <fcntl.h>
#include <linux/sockios.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
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
  telemetry::Histogram request_seconds =
      telemetry::MetricsRegistry::global().histogram(
          "gnntrans_net_request_seconds",
          telemetry::HistogramData::default_latency_bounds(),
          "Admission-to-delivery latency of served requests");
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

/// The request's id and attempt, read straight out of the frame header (they
/// sit at fixed offsets): a reject of a payload that failed to decode echoes
/// them, and a fault decision is keyed on them before — and independent of —
/// a full decode. False, with both 0, for payloads too short for a header.
bool peek_ids(std::string_view payload, std::uint64_t* id,
              std::uint32_t* attempt) {
  *id = 0;
  *attempt = 0;
  if (payload.size() < 20) return false;
  for (int i = 15; i >= 8; --i)
    *id = (*id << 8) | static_cast<std::uint8_t>(payload[static_cast<std::size_t>(i)]);
  for (int i = 19; i >= 16; --i)
    *attempt = (*attempt << 8) |
               static_cast<std::uint8_t>(payload[static_cast<std::size_t>(i)]);
  return true;
}

/// Fault key "req/<id>/<attempt>": a retry re-rolls deterministically.
std::string fault_key(std::uint64_t id, std::uint32_t attempt) {
  return "req/" + std::to_string(id) + "/" + std::to_string(attempt);
}

/// Fault key of a frame: its request's key, or a connection-local key for
/// frames too short to carry a header.
std::string request_key(std::string_view payload, std::uint64_t conn_id,
                        std::uint64_t frame_seq) {
  std::uint64_t id = 0;
  std::uint32_t attempt = 0;
  if (peek_ids(payload, &id, &attempt)) return fault_key(id, attempt);
  return "frame/" + std::to_string(conn_id) + "/" + std::to_string(frame_seq);
}

/// One outbound frame plus its stage-clock context. `ready` starts the write
/// stage (the encode stage's closing clock read); `admitted` is the request's
/// admission time, set for served responses only; `trace` carries the
/// partially-filled request record of a head-sampled request, finalized when
/// the frame's last byte is written.
struct Outgoing {
  std::string frame;
  std::unique_ptr<telemetry::FlightRecord> trace;
  Clock::time_point admitted{};
  Clock::time_point ready{};
};

/// A typed reject, as a frame with no stage clock.
Outgoing reject_frame(std::uint64_t request_id, std::uint32_t attempt,
                      core::ErrorCode code, const std::string& message) {
  ResponseFrame reject;
  reject.request_id = request_id;
  reject.attempt = attempt;
  reject.status = code;
  reject.provenance = core::EstimateProvenance::kFailed;
  reject.message = message;
  Outgoing out;
  out.frame = encode_response(reject);
  return out;
}

void wake(int event_fd) {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(event_fd, &one, sizeof(one));
}

/// Write-completion bookkeeping. The write stage covers outbox-ready to the
/// last byte written; served responses observe it into its stage histogram,
/// and head-sampled requests additionally close their stage clock: wall time
/// from admission, one slice per request stage on the request's flow lane
/// (laid back to back from the send out of the record's stage times), the
/// request_seconds p99 exemplar, and the flight recorder's slowest-request
/// slots (/tracez).
void finish_delivery(const NetMetrics& metrics, Outgoing& msg) {
  const Clock::time_point sent = Clock::now();  // closes write and wall
  const double write_s = std::chrono::duration<double>(sent - msg.ready).count();
  if (msg.admitted != Clock::time_point{})
    telemetry::stage_histogram(Stage::kWrite).observe(write_s);
  if (!msg.trace) return;
  telemetry::FlightRecord& rec = *msg.trace;
  const double wall_s =
      std::chrono::duration<double>(sent - msg.admitted).count();
  rec.stage(Stage::kWrite) = static_cast<float>(write_s * 1e6);
  rec.total_us = static_cast<float>(wall_s * 1e6);
  telemetry::TraceRecorder& recorder = telemetry::TraceRecorder::global();
  if (recorder.enabled()) {
    std::int64_t end_ns = recorder.ns_at(sent);
    for (std::size_t s = telemetry::kStageCount;
         s-- > telemetry::kNetStageCount;) {  // the request stages, last first
      const auto stage = static_cast<Stage>(s);
      const std::int64_t begin_ns =
          end_ns - static_cast<std::int64_t>(rec.stage(stage) * 1e3);
      recorder.record_event(telemetry::stage_name(stage), "request", begin_ns,
                            end_ns, telemetry::TracePhase::kComplete,
                            rec.trace_id);
      end_ns = begin_ns;
    }
  }
  metrics.request_seconds.annotate_exemplar(wall_s, rec.trace_id, rec.net);
  telemetry::FlightRecorder::global().record_request(rec);
}

/// The I/O loop's tick: the half-open guard and the write timeouts are
/// checked at least this often.
constexpr int kTickMs = 100;
/// The tick while a connection lingers: how often it re-reads how much of
/// what was sent the peer has not acknowledged yet.
constexpr int kLingerTickMs = 10;

}  // namespace

/// One client connection, owned by the I/O thread: no other thread reads or
/// writes its fields (a Pending request only keeps it alive). Its phases:
/// kOpen reads frames and writes responses; kFlushing, a graceful close,
/// reads no more and writes what is queued, then half-closes; kLingering
/// discards the peer's input until its EOF, until it has acknowledged every
/// byte sent (FIN included) with nothing left to read, or for
/// read_timeout_ms — closing with unread input would reset the stream, and
/// the kernel would drop the responses still in the send buffer. Once
/// kClosed, a response still arriving for it is undeliverable.
struct NetServer::Connection {
  enum class Phase { kOpen, kFlushing, kLingering, kClosed };

  int fd = -1;
  std::uint64_t id = 0;
  std::uint64_t frame_seq = 0;  ///< fault key of frames too short for a header
  Phase phase = Phase::kOpen;
  short revents = 0;              ///< its events from the last poll
  std::string in;                 ///< bytes of frames not yet complete
  Clock::time_point last_byte{};  ///< half-open guard
  std::deque<Outgoing> out;       ///< out.front() is being written
  std::size_t written = 0;        ///< bytes of out.front() already sent
  Clock::time_point write_started{};  ///< first attempt at out.front()
  Clock::time_point linger_until{};
};

/// One admitted request waiting for its batch.
struct NetServer::Pending {
  std::shared_ptr<Connection> conn;
  RequestFrame request;
  Clock::time_point enqueued;
  double queue_wait = 0.0;  ///< stamped at batch formation (deadline triage)
};

/// A frame from the batcher for the I/O thread to queue on `conn`. `abort`
/// (an injected write fault) drops the connection instead.
struct NetServer::Delivery {
  std::shared_ptr<Connection> conn;
  Outgoing msg;
  bool abort = false;
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
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("net server: eventfd failed");
  }
  // Accepting must never block the one thread that serves every socket.
  ::fcntl(listen_fd_, F_SETFL, ::fcntl(listen_fd_, F_GETFL, 0) | O_NONBLOCK);

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
  io_thread_ = std::thread([this] { io_loop(); });
  batch_thread_ = std::thread([this] { batch_loop(); });
  GNNTRANS_LOG_INFO("serve", "listening on %s:%u (batch_max %zu, queue %zu)",
                    config_.addr.c_str(), bound_port_, config_.batch_max,
                    config_.queue_capacity);
}

void NetServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;

  // 1. Close admission and accepting: new requests get typed kShuttingDown
  //    rejects. Taken under the queue lock so the batcher's exit check cannot
  //    race a just-admitted request into a dead queue.
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    draining_.store(true, std::memory_order_release);
  }

  // 2. Flush in-flight: the batcher drains the queue (draining_ ends its
  //    wait) and exits once it is empty.
  queue_cv_.notify_all();
  if (batch_thread_.joinable()) batch_thread_.join();

  // 3. Deliver and close: the I/O thread flushes every outbox, closes every
  //    connection gracefully, then exits.
  closing_conns_.store(true, std::memory_order_release);
  wake(wake_fd_);
  if (io_thread_.joinable()) io_thread_.join();

  for (int* fd : {&listen_fd_, &wake_fd_}) {
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

void NetServer::io_loop() {
  using Phase = Connection::Phase;
  const NetMetrics& metrics = NetMetrics::get();
  std::vector<std::shared_ptr<Connection>> conns;
  std::vector<pollfd> fds;
  for (;;) {
    // Read before taking the deliveries: stop() sets it after joining the
    // batcher, so once it reads true every delivery has been posted.
    const bool closing = closing_conns_.load(std::memory_order_acquire);
    std::vector<Delivery> deliveries;
    {
      std::lock_guard<std::mutex> lock(deliveries_mutex_);
      deliveries.swap(deliveries_);
    }
    for (Delivery& d : deliveries) {
      Connection& conn = *d.conn;
      const bool writable = conn.phase <= Phase::kFlushing;
      if (d.abort) {
        if (writable) close_now(conn);
      } else if (!writable) {  // half-closed or gone
        ledger_.undeliverable.fetch_add(1, std::memory_order_relaxed);
        metrics.undeliverable.inc();
      } else {
        if (d.msg.admitted != Clock::time_point{}) {  // a served response
          ledger_.served.fetch_add(1, std::memory_order_relaxed);
          metrics.served.inc();
          metrics.request_seconds.observe(seconds_since(d.msg.admitted));
        }
        conn.out.push_back(std::move(d.msg));
      }
    }

    const Clock::time_point now = Clock::now();
    const auto read_timeout = std::chrono::milliseconds(config_.read_timeout_ms);
    const auto write_timeout = std::chrono::milliseconds(config_.write_timeout_ms);
    for (const std::shared_ptr<Connection>& conn : conns) {
      if (conn->phase <= Phase::kFlushing && !write_out(*conn, now))
        close_now(*conn);
      if (conn->phase <= Phase::kFlushing && !conn->out.empty() &&
          now - conn->write_started > write_timeout) {
        drop_outbox(*conn);  // close gracefully: what was sent still arrives
        conn->phase = Phase::kFlushing;
      }
      // A connection whose outbox the socket will not take is not read (TCP
      // backpressure), and its half-open guard does not age meanwhile.
      if (conn->phase == Phase::kOpen && !conn->out.empty())
        conn->last_byte = now;
      else if (conn->phase == Phase::kOpen &&
               (conn->revents & (POLLIN | POLLHUP | POLLERR)))
        read_frames(conn);
      if (conn->phase == Phase::kOpen && closing) conn->phase = Phase::kFlushing;
      // Half-open guard: a partial frame that stopped making progress.
      if (conn->phase == Phase::kOpen && !conn->in.empty() &&
          now - conn->last_byte > read_timeout) {
        GNNTRANS_LOG_WARN("serve",
                          "closing half-open connection %llu (%zu buffered "
                          "bytes, no progress in %d ms)",
                          static_cast<unsigned long long>(conn->id),
                          conn->in.size(), config_.read_timeout_ms);
        conn->phase = Phase::kFlushing;
      }
      if (conn->phase == Phase::kFlushing && conn->out.empty()) {
        ::shutdown(conn->fd, SHUT_WR);
        conn->phase = Phase::kLingering;
        conn->linger_until = now + read_timeout;
      }
      if (conn->phase == Phase::kLingering) {
        // Discard the peer's input. Close on its EOF or an error, once all
        // that was sent is acknowledged and nothing is left to read, or at
        // the deadline.
        char buf[4096];
        const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
        const bool drained = n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
        int unacked = 0;
        if (n == 0 || (n < 0 && !drained && errno != EINTR) ||
            now >= conn->linger_until ||
            ::ioctl(conn->fd, SIOCOUTQ, &unacked) != 0 ||
            (unacked == 0 && drained))
          close_now(*conn);
      }
    }
    std::erase_if(conns, [](const std::shared_ptr<Connection>& c) {
      return c->phase == Phase::kClosed;
    });
    metrics.active.set(static_cast<double>(conns.size()));
    if (closing && conns.empty()) return;

    fds.clear();
    fds.push_back({wake_fd_, POLLIN, 0});
    fds.push_back({draining() ? -1 : listen_fd_, POLLIN, 0});
    int tick = kTickMs;
    for (const std::shared_ptr<Connection>& conn : conns) {
      short events = POLLOUT;
      if (conn->out.empty())
        events = conn->phase == Phase::kFlushing ? 0 : POLLIN;
      if (conn->phase == Phase::kLingering) tick = kLingerTickMs;
      fds.push_back({conn->fd, events, 0});
    }
    if (::poll(fds.data(), fds.size(), tick) < 0)
      for (pollfd& p : fds) p.revents = 0;  // EINTR: a turn without events
    if (fds[0].revents & POLLIN) {
      std::uint64_t wakes = 0;
      [[maybe_unused]] const ssize_t n = ::read(wake_fd_, &wakes, sizeof(wakes));
    }
    for (std::size_t i = 0; i < conns.size(); ++i)
      conns[i]->revents = fds[i + 2].revents;
    if (fds[1].revents & POLLIN) accept_connections(conns);
  }
}

void NetServer::accept_connections(
    std::vector<std::shared_ptr<Connection>>& conns) {
  const NetMetrics& metrics = NetMetrics::get();
  core::FaultInjector& faults = core::FaultInjector::global();
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // none left (EAGAIN), or a transient accept error
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

    if (conns.size() >= config_.max_connections) {
      // Connection-level load shed: a typed kOverloaded response (request_id
      // 0 = "about the connection, not a request"), then close. Never a
      // silent refusal. One non-blocking send: the fresh socket's empty send
      // buffer takes the whole frame.
      ledger_.connections_rejected_overload.fetch_add(1,
                                                      std::memory_order_relaxed);
      metrics.rejected_overload.inc();
      metrics.rejected.inc();
      const std::string reject =
          reject_frame(0, 0, core::ErrorCode::kOverloaded,
                       "connection limit reached").frame;
      [[maybe_unused]] const ssize_t n =
          ::send(fd, reject.data(), reject.size(), MSG_NOSIGNAL);
      ::close(fd);
      record_flight("net_admission", "overloaded", "connection limit");
      continue;
    }

    // Response frames are small; without TCP_NODELAY Nagle + delayed ACK can
    // park them for tens of milliseconds.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->id = seq;
    conns.push_back(std::move(conn));
  }
}

void NetServer::read_frames(const std::shared_ptr<Connection>& conn) {
  const NetMetrics& metrics = NetMetrics::get();
  char buf[1 << 16];
  const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
  if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK))
    return;
  if (n <= 0) {  // peer closed (possibly mid-frame), or a socket error
    close_now(*conn);
    return;
  }
  conn->in.append(buf, static_cast<std::size_t>(n));
  conn->last_byte = Clock::now();
  for (;;) {
    std::string payload;
    const FrameStatus fs =
        try_extract_frame(conn->in, &payload, config_.max_frame_bytes);
    if (fs == FrameStatus::kNeedMore) return;
    if (fs == FrameStatus::kOversize) {
      // The stream cannot be resynchronized past a hostile length: typed
      // reject, then close.
      ledger_.rejected_malformed.fetch_add(1, std::memory_order_relaxed);
      metrics.rejected_malformed.inc();
      metrics.rejected.inc();
      conn->out.push_back(reject_frame(0, 0, core::ErrorCode::kMalformedFrame,
                                       "declared frame length exceeds limit"));
      conn->phase = Connection::Phase::kFlushing;
      return;
    }
    if (!handle_frame(conn, std::move(payload))) {
      conn->phase = Connection::Phase::kFlushing;
      return;
    }
  }
}

bool NetServer::handle_frame(const std::shared_ptr<Connection>& conn,
                             std::string payload) {
  const NetMetrics& metrics = NetMetrics::get();
  core::FaultInjector& faults = core::FaultInjector::global();
  ledger_.frames.fetch_add(1, std::memory_order_relaxed);
  metrics.frames.inc();

  // The sequence advances on every frame, armed or not, so an armed run
  // keys its frames the same; the key string is built only when armed.
  const std::uint64_t seq = conn->frame_seq++;
  const bool armed = faults.armed();
  const std::string key = armed ? request_key(payload, conn->id, seq) : "";
  if (armed && faults.should_fail(core::FaultSite::kNetRead, key)) {
    // Injected torn read: pretend the frame never arrived intact and drop the
    // connection — the client observes a transport failure and retries.
    ledger_.faults_read.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  const auto reject = [&](std::uint64_t id, std::uint32_t attempt,
                          core::ErrorCode code, const std::string& message) {
    metrics.rejected.inc();
    conn->out.push_back(reject_frame(id, attempt, code, message));
  };
  RequestFrame request;
  if (core::Status status = decode_request(payload, &request); !status.ok()) {
    // Framing is intact (the length prefix was honored), so the connection
    // survives a garbage payload: typed reject, keep reading.
    ledger_.rejected_malformed.fetch_add(1, std::memory_order_relaxed);
    metrics.rejected_malformed.inc();
    std::uint64_t id = 0;
    std::uint32_t attempt = 0;
    peek_ids(payload, &id, &attempt);
    reject(id, attempt, core::ErrorCode::kMalformedFrame, status.message());
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

  if (armed && faults.should_fail(core::FaultSite::kNetDecode, key)) {
    // Injected decode fault: typed reject, connection stays healthy.
    ledger_.faults_decode.fetch_add(1, std::memory_order_relaxed);
    ledger_.rejected_malformed.fetch_add(1, std::memory_order_relaxed);
    metrics.rejected_malformed.inc();
    reject(request.request_id, request.attempt,
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
      reject(request.request_id, request.attempt,
             core::ErrorCode::kShuttingDown, "server draining");
      return true;
    }
    if (queue_.size() >= config_.queue_capacity) {
      ledger_.rejected_overload.fetch_add(1, std::memory_order_relaxed);
      metrics.rejected_overload.inc();
      reject(request.request_id, request.attempt,
             core::ErrorCode::kOverloaded, "admission queue full");
      return true;
    }
    queue_.push_back(Pending{conn, std::move(request), Clock::now()});
    metrics.queue_depth.set(static_cast<double>(queue_.size()));
  }
  queue_cv_.notify_one();
  return true;
}

bool NetServer::write_out(Connection& conn, Clock::time_point now) {
  while (!conn.out.empty()) {
    Outgoing& msg = conn.out.front();
    if (conn.write_started == Clock::time_point{}) conn.write_started = now;
    const ssize_t n = ::send(conn.fd, msg.frame.data() + conn.written,
                             msg.frame.size() - conn.written, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0) return false;  // peer gone or a hard error
    conn.written += static_cast<std::size_t>(n);
    if (conn.written < msg.frame.size()) continue;
    finish_delivery(NetMetrics::get(), msg);
    conn.out.pop_front();
    conn.written = 0;
    conn.write_started = {};
  }
  return true;
}

void NetServer::drop_outbox(Connection& conn) {
  const auto unsent = static_cast<std::uint64_t>(
      std::count_if(conn.out.begin(), conn.out.end(), [](const Outgoing& msg) {
        return msg.admitted != Clock::time_point{};
      }));
  ledger_.undeliverable.fetch_add(unsent, std::memory_order_relaxed);
  NetMetrics::get().undeliverable.inc(unsent);
  conn.out.clear();
  conn.written = 0;
  conn.write_started = {};
}

void NetServer::close_now(Connection& conn) {
  ::shutdown(conn.fd, SHUT_RDWR);
  ::close(conn.fd);
  conn.fd = -1;
  conn.phase = Connection::Phase::kClosed;
  drop_outbox(conn);
}

void NetServer::post(Delivery delivery) {
  {
    std::lock_guard<std::mutex> lock(deliveries_mutex_);
    deliveries_.push_back(std::move(delivery));
  }
  wake(wake_fd_);
}

void NetServer::batch_loop() {
  const NetMetrics& metrics = NetMetrics::get();
  core::FaultInjector& faults = core::FaultInjector::global();

  for (;;) {
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      // Work-conserving: a free batcher takes whatever is queued, up to
      // batch_max, at once. Requests that arrive while estimate_batch runs
      // form the next batch, so batches grow with load and no timer holds a
      // lone request. Every admission and stop() notify the cv.
      queue_cv_.wait(lock, [this] {
        return draining_.load(std::memory_order_acquire) ||
               (!held_ && !queue_.empty());
      });
      if (queue_.empty()) break;  // draining and verifiably flushed
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
      pending.queue_wait = waited;
      if (pending.request.deadline_us > 0) {
        const double remaining =
            static_cast<double>(pending.request.deadline_us) * 1e-6 - waited;
        if (remaining <= 0.0) {
          ledger_.rejected_deadline.fetch_add(1, std::memory_order_relaxed);
          metrics.rejected_deadline.inc();
          metrics.rejected.inc();
          post({pending.conn, reject_frame(pending.request.request_id,
                                           pending.request.attempt,
                                           core::ErrorCode::kDeadlineExceeded,
                                           "deadline expired while queued")});
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
      if (faults.armed() &&
          faults.should_fail(
              core::FaultSite::kNetWrite,
              fault_key(pending.request.request_id, pending.request.attempt))) {
        // Injected failed write: the connection dies with the response
        // undelivered; the client observes a transport failure and retries.
        ledger_.faults_write.fetch_add(1, std::memory_order_relaxed);
        post({pending.conn, {}, /*abort=*/true});
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
      const std::pair<Stage, double> stages[] = {
          {Stage::kQueue, pending.queue_wait},
          {Stage::kBatchWait, batch_wait},
          {Stage::kEstimate, outcomes[i].net_seconds},
          {Stage::kEncode, encode}};
      for (const auto& [stage, seconds] : stages)
        telemetry::stage_histogram(stage).observe(seconds);

      std::unique_ptr<telemetry::FlightRecord> trace;
      if (pending.request.trace.sampled) {
        telemetry::stage_histogram(Stage::kEstimate)
            .annotate_exemplar(outcomes[i].net_seconds,
                               pending.request.trace.trace_id,
                               pending.request.net.name);
        trace = std::make_unique<telemetry::FlightRecord>(
            core::to_flight_record(pending.request.net.name, outcomes[i]));
        trace->trace_id = pending.request.trace.trace_id;
        trace->request_id = pending.request.request_id;
        trace->attempt = pending.request.attempt;
        trace->batch_size = static_cast<std::uint32_t>(kept.size());
        for (const auto& [stage, seconds] : stages)
          trace->stage(stage) = static_cast<float>(seconds * 1e6);
      }
      post({pending.conn,
            {std::move(frame), std::move(trace), pending.enqueued, encoded}});
    }
  }
}

}  // namespace gnntrans::serve
