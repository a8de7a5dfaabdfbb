/// \file flight_recorder.hpp
/// Per-net flight recorder: a black box of the most recent serving decisions
/// and of the slowest sampled requests.
///
/// Every net served by estimate_batch (and every training epoch) appends one
/// fixed-size FlightRecord — net name, per-stage times from the stage table
/// (stage.hpp), provenance, outcome, slab peak — to a per-thread ring. Slow
/// and degraded nets are additionally *pinned* into a separate per-thread
/// ring that wraps far more slowly, so the interesting records survive long
/// after the main ring has cycled through healthy traffic. The slowest 64
/// head-sampled requests (NetServer's per-request stage clock) are kept in
/// one fixed set of slots that backs /tracez and exemplar resolution.
///
/// Concurrency: rings are written only by their owner thread, but may be read
/// at any moment by the /flight and /tracez HTTP handlers, by --flight-out at
/// exit, or by the fatal-signal dumper. Each slot is therefore an all-atomic
/// seqlock (version word + relaxed word-wise payload copies, Boehm's recipe):
/// writers never block, readers retry a bounded number of times and skip
/// slots that are mid-write. Request slots take one mutex between writers
/// only (one write per sampled request) and are read through the same
/// lock-free slot protocol. Reads are TSan-clean, and — because lock-free
/// atomics are async-signal-safe — the same slot protocol serves the
/// signal-handler dump (write_json_fd, which also avoids allocation and
/// stdio).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/telemetry/stage.hpp"

namespace gnntrans::telemetry {

/// One serving decision: a net, or a whole sampled request. Trivially
/// copyable and a whole number of 64-bit words, so a slot can shuttle it
/// through atomic word copies.
struct FlightRecord {
  char net[48] = {};      ///< net name (or "train_epoch_N"), truncated
  char outcome[24] = {};  ///< "model" | "baseline_fallback" | "failed" | ...
  char error[24] = {};    ///< ErrorCode name when degraded, "" otherwise
  std::uint64_t seq = 0;  ///< global append order, 1-based; 0 = empty slot
  std::uint64_t trace_id = 0;    ///< request trace id; 0 when untraced
  std::uint64_t request_id = 0;  ///< wire request id (request records)
  /// Microseconds per stage, indexed by Stage; uncovered stages stay 0.
  std::array<float, kStageCount> stage_us{};
  float total_us = 0.0f;  ///< the net's (or the request's) wall time
  std::uint32_t arena_peak_bytes = 0;
  std::uint32_t thread_id = 0;
  std::uint32_t attempt = 0;     ///< client attempt (request records)
  std::uint32_t batch_size = 0;  ///< nets in the estimate_batch call
  std::uint8_t slow = 0;      ///< exceeded the slow-net latency budget
  std::uint8_t degraded = 0;  ///< core::is_degraded(provenance): fallback/failed
  std::uint8_t pinned = 0;    ///< record copy lives in the pinned ring
  std::uint8_t pad[1] = {};

  [[nodiscard]] float& stage(Stage s) noexcept {
    return stage_us[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] float stage(Stage s) const noexcept {
    return stage_us[static_cast<std::size_t>(s)];
  }
  void set_stages(const StageTimes& times) noexcept {
    for (std::size_t s = 0; s < kStageCount; ++s)
      stage_us[s] = static_cast<float>(times.seconds[s] * 1e6);
  }

  void set_net(std::string_view s) noexcept { copy_field(net, sizeof(net), s); }
  void set_outcome(std::string_view s) noexcept {
    copy_field(outcome, sizeof(outcome), s);
  }
  void set_error(std::string_view s) noexcept {
    copy_field(error, sizeof(error), s);
  }

 private:
  static void copy_field(char* dst, std::size_t cap, std::string_view src) noexcept {
    const std::size_t n = src.size() < cap - 1 ? src.size() : cap - 1;
    std::memcpy(dst, src.data(), n);
    dst[n] = '\0';
  }
};
static_assert(std::is_trivially_copyable_v<FlightRecord>);
static_assert(sizeof(FlightRecord) % sizeof(std::uint64_t) == 0,
              "FlightRecord must be a whole number of seqlock words");
static_assert(sizeof(FlightRecord) <= 192,
              "FlightRecord is stored in 320 slots per recording thread");

namespace detail {

inline constexpr std::size_t kFlightWords =
    sizeof(FlightRecord) / sizeof(std::uint64_t);

/// Seqlock slot: even version = stable, odd = mid-write. Payload words are
/// themselves atomics (relaxed), so concurrent read/write is defined
/// behavior; the version handshake only has to order the copies.
struct FlightSlot {
  std::atomic<std::uint64_t> version{0};
  std::array<std::atomic<std::uint64_t>, kFlightWords> words{};
};

/// Single-writer publish (owner thread, or any thread when quiescent).
void write_slot(FlightSlot& slot, const FlightRecord& record) noexcept;

/// Lock-free snapshot; false when the slot is empty or stayed mid-write for
/// all (bounded) retries. Safe from signal handlers.
bool read_slot(const FlightSlot& slot, FlightRecord* out) noexcept;

}  // namespace detail

/// Process-wide recorder. record() is wait-free for the owner thread; the
/// JSON dumps may run concurrently with writers from any thread (and, for
/// write_json_fd, from fatal-signal context).
class FlightRecorder {
 public:
  FlightRecorder();
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  [[nodiscard]] static FlightRecorder& global();

  /// Recording defaults to on (a record costs one ~184-byte seqlock store).
  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Main-ring capacity in records for rings created after the call
  /// (default 256 per thread; the pinned ring is fixed at 64).
  void set_ring_capacity(std::size_t records);

  /// Appends \p record to the calling thread's ring; assigns seq/thread_id
  /// and pins a copy when the record is slow or degraded — or when the
  /// caller set record.pinned itself (quality drift/outlier events).
  void record(const FlightRecord& record) noexcept;

  /// Keeps \p record (a completed head-sampled request, ranked by total_us)
  /// among the slowest 64: it takes an empty slot or replaces the fastest
  /// retained one when slower. Registers no per-thread ring, so any thread
  /// may call it freely.
  void record_request(const FlightRecord& record) noexcept;

  /// Retained requests, slowest first; the slowest \p limit (0 = all).
  [[nodiscard]] std::vector<FlightRecord> slowest_requests(
      std::size_t limit = 0) const;

  /// Looks up a retained request by trace id (exemplar resolution). False if
  /// it was never retained or has been displaced by slower requests.
  [[nodiscard]] bool find_request(std::uint64_t trace_id,
                                  FlightRecord* out) const;

  /// record_request() calls since the last clear, retained or not.
  [[nodiscard]] std::uint64_t requests_recorded() const noexcept;

  /// /flight query filters: keep only records whose net field equals \p net
  /// (empty = all), then the newest \p limit of each list (0 = all).
  struct JsonFilter {
    std::size_t limit = 0;
    std::string net;
  };

  /// {"recorded":N,"dropped":N,"records":[...],"pinned":[...],
  /// "requests":[...]} — each list sorted oldest-first by seq; bytes that
  /// could break the JSON string (quotes, backslashes, control chars) are
  /// replaced with '_'.
  void write_json(std::ostream& out) const { write_json(out, JsonFilter{}); }
  void write_json(std::ostream& out, const JsonFilter& filter) const;

  /// /tracez: {"retained":N,"traces":[...]}, the slowest \p limit retained
  /// requests (0 = all), slowest first, in the same record shape.
  void write_tracez_json(std::ostream& out, std::size_t limit = 0) const;

  /// Async-signal-safe dump to a file descriptor: no allocation, no locks,
  /// no stdio; hand-rolled formatting; non-printable name bytes become '_'.
  void write_json_fd(int fd) const noexcept;

  /// Records ever appended / overwritten-before-read (main rings only).
  [[nodiscard]] std::uint64_t recorded_total() const noexcept;
  [[nodiscard]] std::uint64_t dropped_total() const noexcept;

  /// Empties every ring and the request slots. Not for concurrent use with active writers (tests
  /// and bench isolation, like MetricsRegistry::reset).
  void clear() noexcept;

 private:
  struct Ring;
  [[nodiscard]] Ring* ring_for_this_thread() noexcept;

  std::atomic<bool> enabled_{true};
  struct Impl;
  [[nodiscard]] Impl& impl() const noexcept;
  mutable std::atomic<Impl*> impl_{nullptr};
};

/// Installs SIGSEGV/SIGBUS/SIGFPE/SIGABRT handlers that dump the global
/// flight recorder to \p path (O_CREAT|O_TRUNC) and then re-raise with the
/// default disposition, so the crash still produces a core/exit status.
/// \p path is copied into static storage; later calls replace it.
void install_flight_signal_dump(const char* path);

}  // namespace gnntrans::telemetry
