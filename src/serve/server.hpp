/// \file server.hpp
/// The hardened network serving front-end: NetServer.
///
/// Architecture (raw POSIX sockets, in the style of telemetry::ObsServer):
///
///   I/O thread (one poll loop) ──► admission queue ──► batcher ──► pool
///     accept · read · write  ▲                            │
///                            └── deliveries + eventfd ◄───┘
///
/// One I/O thread owns every socket. Each turn of its poll(2) loop accepts
/// connections, reassembles length-prefixed frames, decodes them and runs the
/// admission path: draining → typed kShuttingDown reject; bounded queue
/// full → typed kOverloaded reject (load is *shed*, never silently dropped);
/// otherwise the request is queued with its arrival time. The batcher is
/// work-conserving: whenever it is free and the queue is non-empty it takes
/// up to batch_max requests at once, so requests that arrive during a
/// running batch form the next one and batches grow with load, with no
/// timer to tune. It expires requests whose own deadline already passed
/// (typed kDeadlineExceeded), propagates the tightest remaining deadline
/// into BatchOptions::deadline_seconds, and serves the batch through one
/// estimate_batch call — so the estimator's thread pool, workspaces and
/// degradation ladder are shared by every client. Encoded responses go back
/// to the I/O thread through one delivery list and one eventfd; the loop
/// writes each connection's outbox without blocking and does not read a
/// connection whose outbox the socket will not take, so TCP flow control
/// throttles a client that sends without reading. A frame that has not
/// finished writing after write_timeout_ms drops the outbox and closes its
/// connection gracefully (a slow client costs its own responses, never
/// another client's). The server runs these threads at any client count:
/// the I/O thread, the batcher and the pool.
///
/// Backpressure is observable end to end: queue depth and oldest-request age
/// are exported as gnntrans_net_* gauges; every reject increments a
/// per-reason counter.
///
/// Shutdown is a graceful drain: stop() stops accepting, rejects new
/// admissions (kShuttingDown), lets the batcher flush everything in flight,
/// delivers the responses, then closes every connection at once — each
/// half-closes and lingers, discarding the peer's input, until the peer has
/// acknowledged everything or read_timeout_ms passed — and joins both
/// threads. Every wait on a peer is bounded (each frame's write by
/// write_timeout_ms, the linger by read_timeout_ms) and all connections wait
/// at once, so more connections do not make stop() wait longer. The idle
/// batcher waits for an admission or stop().
///
/// Fault injection: when core::FaultInjector::global() is armed with network
/// sites, the server consults kAccept (keyed "accept/<seq>"), kNetRead /
/// kNetWrite / kNetDecode (keyed "req/<id>/<attempt>") at the corresponding
/// pipeline points. Keys include the client's attempt counter, so a retry
/// re-rolls deterministically instead of failing forever. The soak test arms
/// only kNetworkSiteMask: the model path stays fault-free and served
/// responses stay bitwise-identical to a direct estimate_batch call.
///
/// Request tracing: every request carries a per-request stage clock named
/// from the stage table (telemetry/stage.hpp) — serve.queue,
/// serve.batch_wait, core.estimate (NetOutcome::net_seconds), serve.encode,
/// serve.write — observed into each stage's telemetry::stage_histogram for
/// every served request. Head-sampled requests (protocol v2 trace block,
/// TraceContext::sampled) additionally get one trace slice per request stage
/// (written once, at the send), flow steps on every thread they cross, a
/// p99 exemplar on gnntrans_net_request_seconds, and one request
/// FlightRecord (the stages above plus the net's own per-net stages)
/// offered to the flight recorder's slowest-64 slots behind /tracez. A slow or degraded net is
/// pinned by estimate_batch's own per-net record, which carries the trace
/// id. The I/O thread is the only thread that records for a connection, so
/// tracing holds the same rings at any client count. All of it is
/// telemetry-only: traced and untraced runs produce bitwise-identical
/// estimates.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/estimator.hpp"
#include "core/telemetry/flight_recorder.hpp"
#include "core/thread_pool.hpp"
#include "serve/protocol.hpp"

namespace gnntrans::serve {

struct NetServerConfig {
  std::string addr = "127.0.0.1";
  /// 0 = ephemeral; the bound port is available from port() after start().
  std::uint16_t port = 0;
  int backlog = 64;
  /// Concurrent connections beyond this are answered with a connection-level
  /// kOverloaded response (request_id 0) and closed.
  std::size_t max_connections = 64;
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;

  /// Admission queue bound: requests beyond this are load-shed with a typed
  /// kOverloaded reject. Never a silent drop.
  std::size_t queue_capacity = 1024;
  /// Most requests one batch takes from the queue.
  std::size_t batch_max = 64;

  /// A connection holding a *partial* frame longer than this is closed as
  /// half-open. Idle connections with no partial frame may stay.
  int read_timeout_ms = 5000;
  /// Bound on writing one response to a slow client; past it the connection
  /// is closed and the response counted undeliverable.
  int write_timeout_ms = 5000;

  /// Degradation/slow-log template for every batch. threads/pool/workspaces/
  /// outcomes/deadline_seconds/cache are managed by the server and ignored
  /// here (caching is cache_bytes's job).
  core::BatchOptions batch;
  /// Byte budget of the server-owned content-addressed estimate cache; 0
  /// disables caching. Repeat traffic (identical parasitics + context) is
  /// served from stored model results — bitwise-identical values, tagged
  /// kCached — without touching features.extract / nn.forward.
  std::size_t cache_bytes = 0;
  /// Worker count of the server-owned inference pool, fixed at start().
  std::size_t threads = 1;
};

/// Exact request accounting, exposed for tests (the soak test proves every
/// request lands in exactly one of these buckets). All counts are cumulative
/// since start().
struct NetServerLedger {
  std::atomic<std::uint64_t> connections_accepted{0};
  std::atomic<std::uint64_t> connections_rejected_overload{0};
  std::atomic<std::uint64_t> frames{0};          ///< complete frames read
  std::atomic<std::uint64_t> requests_decoded{0};///< frames that decoded OK
  std::atomic<std::uint64_t> served{0};          ///< responses handed to a live outbox
  std::atomic<std::uint64_t> rejected_overload{0};
  std::atomic<std::uint64_t> rejected_malformed{0};  ///< decode rejects (incl. injected)
  std::atomic<std::uint64_t> rejected_deadline{0};
  std::atomic<std::uint64_t> rejected_shutdown{0};
  std::atomic<std::uint64_t> batches{0};
  /// Responses never written: their connection was gone when they left the
  /// batcher, or it closed with served responses still in its outbox.
  std::atomic<std::uint64_t> undeliverable{0};
  /// Injected network faults consumed, by site.
  std::atomic<std::uint64_t> faults_accept{0};
  std::atomic<std::uint64_t> faults_read{0};
  std::atomic<std::uint64_t> faults_write{0};
  std::atomic<std::uint64_t> faults_decode{0};

  [[nodiscard]] std::uint64_t rejected_total() const noexcept {
    return rejected_overload.load() + rejected_malformed.load() +
           rejected_deadline.load() + rejected_shutdown.load();
  }
};

/// The server. start()/stop() are not thread-safe against each other; every
/// other member is safe to read from any thread.
class NetServer {
 public:
  /// \p estimator must outlive the server.
  NetServer(const core::WireTimingEstimator& estimator, NetServerConfig config);
  ~NetServer();
  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds (EADDRINUSE retry + ephemeral-port support via bind_listener) and
  /// spawns the I/O + batcher threads. Throws std::runtime_error on bind
  /// failure.
  void start();

  /// Graceful drain: stop accepting, reject new admissions (kShuttingDown),
  /// flush every queued request through the estimator, deliver the responses,
  /// then close all connections and join both threads. Idempotent.
  void stop();

  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }
  /// True once stop() has closed admission (new requests get kShuttingDown).
  [[nodiscard]] bool draining() const noexcept {
    return draining_.load(std::memory_order_acquire);
  }
  /// Port actually bound (resolves port 0). Valid after start().
  [[nodiscard]] std::uint16_t port() const noexcept { return bound_port_; }
  [[nodiscard]] const NetServerLedger& ledger() const noexcept {
    return ledger_;
  }
  /// Aggregated inference stats over every batch served.
  [[nodiscard]] core::InferenceStats stats() const;
  /// The server-owned estimate cache, or nullptr when cache_bytes == 0.
  [[nodiscard]] const core::EstimateCache* cache() const noexcept {
    return cache_.get();
  }
  [[nodiscard]] const NetServerConfig& config() const noexcept {
    return config_;
  }

 private:
  struct Connection;
  struct Pending;
  struct Delivery;
  friend struct NetServerTestPeer;  ///< sets held_ (tests/test_serve.cpp)

  /// The I/O thread: one poll(2) loop over the listener, the eventfd and
  /// every connection. Returns once stop() has had every connection closed.
  void io_loop();
  void batch_loop();

  /// I/O thread: accepts every pending connection onto \p conns, or sheds it.
  void accept_connections(std::vector<std::shared_ptr<Connection>>& conns);

  /// I/O thread: one non-blocking read on \p conn, then every frame it
  /// completed.
  void read_frames(const std::shared_ptr<Connection>& conn);

  /// I/O thread: handles one complete frame payload on \p conn: fault gates,
  /// decode, admission. Returns false when the connection must be closed.
  bool handle_frame(const std::shared_ptr<Connection>& conn,
                    std::string payload);

  /// I/O thread: writes \p conn's outbox until the socket would block.
  /// False when the socket failed.
  bool write_out(Connection& conn, std::chrono::steady_clock::time_point now);

  /// I/O thread: empties \p conn's outbox, counting its served responses
  /// undeliverable.
  void drop_outbox(Connection& conn);

  /// I/O thread: closes \p conn at once and drops its outbox.
  void close_now(Connection& conn);

  /// Batcher: hands \p delivery to the I/O thread and wakes it.
  void post(Delivery delivery);

  const core::WireTimingEstimator& estimator_;
  NetServerConfig config_;
  NetServerLedger ledger_;

  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};   ///< admission closed (stop() entered)
  std::atomic<bool> closing_conns_{false};  ///< close every connection, exit
  int listen_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd: a delivery or stop() wakes the I/O thread
  std::uint16_t bound_port_ = 0;
  std::uint64_t accept_seq_ = 0;  ///< I/O thread only (fault keying)

  std::thread io_thread_;
  std::thread batch_thread_;

  std::mutex deliveries_mutex_;
  std::vector<Delivery> deliveries_;  ///< batcher → I/O thread

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Pending> queue_;
  /// While set, only a draining batcher takes a batch. Guarded by
  /// queue_mutex_ and reachable only through NetServerTestPeer, so tests
  /// can hold requests queued.
  bool held_ = false;

  // Server-owned inference resources (batcher thread only after start).
  std::unique_ptr<core::ThreadPool> pool_;
  std::vector<nn::Workspace> workspaces_;
  std::unique_ptr<core::EstimateCache> cache_;  ///< set when cache_bytes > 0

  mutable std::mutex stats_mutex_;
  core::InferenceStats stats_;
};

}  // namespace gnntrans::serve
