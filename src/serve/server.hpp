/// \file server.hpp
/// The hardened network serving front-end: NetServer.
///
/// Architecture (raw POSIX sockets, in the style of telemetry::ObsServer):
///
///   accept thread ──► per-connection threads ──► admission queue ──► batcher
///        │                  │  ▲                                       │
///        │                  │  └── outbox (encoded responses) ◄────────┘
///        └ self-pipe        └ wake pipe per connection
///
/// Connection threads reassemble length-prefixed frames, decode them, and run
/// the admission path: draining → typed kShuttingDown reject; bounded queue
/// full → typed kOverloaded reject (load is *shed*, never silently dropped);
/// otherwise the request is queued with its arrival time. The batcher
/// coalesces requests across clients and flushes on size-or-age (batch_max /
/// flush_age_seconds — the classic COMM_MIN/COMM_DELAY pair), expires
/// requests whose own deadline already passed (typed kDeadlineExceeded),
/// propagates the tightest remaining deadline into
/// BatchOptions::deadline_seconds, and serves the batch through one
/// estimate_batch call — so the estimator's thread pool, workspace slabs,
/// and degradation ladder are shared by every client. Responses are encoded
/// and handed back to the owning connection's outbox; the connection thread
/// writes them with a bounded send (slow clients time out, they do not wedge
/// the batcher).
///
/// Backpressure is observable end to end: queue depth and oldest-request age
/// are exported as gnntrans_net_* gauges; every reject increments a
/// per-reason counter.
///
/// Shutdown is a graceful drain: stop() stops accepting, rejects new
/// admissions (kShuttingDown), lets the batcher flush everything in flight,
/// delivers the responses, then closes connections and joins every thread.
/// Every wait in the server is bounded (poll ticks + timeouts), so stop()
/// cannot hang on a stuck peer.
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
/// serve.write — observed into the gnntrans_net_stage_* histograms for all
/// requests. Head-sampled requests (protocol v2 trace block,
/// TraceContext::sampled) additionally get request-tagged trace spans + flow
/// steps on every thread they cross, a p99 exemplar on
/// gnntrans_net_request_seconds, and one request FlightRecord (the stages
/// above plus the net's own per-net stages) offered to the flight
/// recorder's slowest-64 slots behind /tracez. A slow or degraded net is
/// pinned by estimate_batch's own per-net record, which carries the trace
/// id. Connection threads register no flight ring. All of it is
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
  /// Flush the coalescing queue once this many requests are waiting…
  std::size_t batch_max = 64;
  /// …or once the oldest waiting request is this old, whichever first.
  double flush_age_seconds = 2e-3;

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
  /// Responses that could not be delivered: connection already gone or the
  /// bounded write failed/timed out after the response left the batcher.
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
  /// spawns the accept + batcher threads. Throws std::runtime_error on bind
  /// failure.
  void start();

  /// Graceful drain: stop accepting, reject new admissions (kShuttingDown),
  /// flush every queued request through the estimator, deliver the responses,
  /// then close all connections and join all threads. Idempotent.
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

  void accept_loop();
  void connection_loop(const std::shared_ptr<Connection>& conn);
  void batch_loop();

  /// Handles one complete frame payload on \p conn: fault gates, decode,
  /// admission. Returns false when the connection must be closed.
  bool handle_frame(const std::shared_ptr<Connection>& conn,
                    std::string payload);

  /// Encodes a typed reject and queues it on \p conn's outbox.
  void send_reject(const std::shared_ptr<Connection>& conn,
                   std::uint64_t request_id, std::uint32_t attempt,
                   core::ErrorCode code, const std::string& message);

  /// Queues an encoded frame on \p conn's outbox and wakes its thread.
  /// Returns false when the connection is already closing. \p trace, when
  /// set, is the partially-filled request record of a head-sampled request;
  /// the connection thread finalizes it (serve.write from \p ready, wall
  /// from \p admitted) after the socket write succeeds. \p ready is the
  /// clock read that ended the serve.encode stage (now when unset), so the
  /// stages share their boundaries.
  bool enqueue_response(
      const std::shared_ptr<Connection>& conn, std::string frame,
      std::unique_ptr<telemetry::FlightRecord> trace = nullptr,
      std::chrono::steady_clock::time_point admitted = {},
      std::chrono::steady_clock::time_point ready = {});

  void reap_finished_connections();

  const core::WireTimingEstimator& estimator_;
  NetServerConfig config_;
  NetServerLedger ledger_;

  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};   ///< admission closed (stop() entered)
  std::atomic<bool> closing_conns_{false};  ///< connection threads must exit
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::uint16_t bound_port_ = 0;
  std::uint64_t accept_seq_ = 0;  ///< accept-loop only (fault keying)

  std::thread accept_thread_;
  std::thread batch_thread_;

  std::mutex conns_mutex_;
  std::vector<std::shared_ptr<Connection>> conns_;
  std::atomic<std::size_t> active_conns_{0};

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Pending> queue_;

  // Server-owned inference resources (batcher thread only after start).
  std::unique_ptr<core::ThreadPool> pool_;
  std::vector<nn::Workspace> workspaces_;
  std::unique_ptr<core::EstimateCache> cache_;  ///< set when cache_bytes > 0

  mutable std::mutex stats_mutex_;
  core::InferenceStats stats_;
};

}  // namespace gnntrans::serve
