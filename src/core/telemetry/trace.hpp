/// \file trace.hpp
/// Scoped profiling spans flushed as Chrome trace_event JSON.
///
/// Usage: place a TraceSpan at the top of any scope worth seeing on a
/// timeline —
///
///   telemetry::TraceSpan span("estimate_batch", "serving");
///
/// When the global TraceRecorder is disabled (the default) a span costs one
/// relaxed atomic load at construction and nothing at destruction, so
/// instrumentation can stay in hot paths permanently. When enabled, each
/// completed span is appended to a per-thread ring buffer (bounded memory;
/// the oldest events are overwritten and counted as dropped). Rings are
/// touched by their owner thread only, except during write_chrome_json /
/// clear, which take the per-ring mutex.
///
/// The output is the Chrome trace_event format: "X" (complete) events for
/// spans, "s"/"t"/"f" flow events stitching one request across threads, and
/// "b"/"e" async pairs for the client-side request lane. Load it in
/// chrome://tracing or https://ui.perfetto.dev to see the serving/STA
/// pipeline as a flame chart per thread with arrows following each sampled
/// request from client send to response receipt.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <string_view>

namespace gnntrans::telemetry {

/// Request-scoped trace identity, carried across threads (through the
/// admission queue and batcher) and across the wire (protocol v2 trace
/// block). trace_id is a pure hash of the originating request_id, so the
/// same request keeps the same trace across retries; span_id identifies the
/// parent span on the sending side. sampled is the head-sampling decision:
/// when false, every stage skips span recording for this request.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  bool sampled = false;

  [[nodiscard]] bool valid() const noexcept { return trace_id != 0; }
};

/// Chrome trace_event phases we record. kComplete is a duration slice
/// ("X"); kFlowStart/Step/End ("s"/"t"/"f") are instants that chrome draws
/// as arrows between slices sharing an id; kAsync ("b" + "e") is stored as
/// one event and exported as a begin/end pair forming an async lane.
enum class TracePhase : std::uint8_t {
  kComplete = 0,
  kFlowStart,
  kFlowStep,
  kFlowEnd,
  kAsync,
};

/// One recorded event. Name/category are copied into fixed buffers at record
/// time so callers may pass transient strings (e.g. "sta_level_7"). flow_id
/// is 0 for plain spans; request-scoped events carry the trace_id so flow
/// arrows and async lanes line up across threads and processes.
struct TraceEvent {
  char name[48] = {0};
  char category[16] = {0};
  std::int64_t begin_ns = 0;  ///< steady-clock ns since recorder epoch
  std::int64_t end_ns = 0;
  std::uint64_t flow_id = 0;
  std::uint32_t thread_id = 0;
  TracePhase phase = TracePhase::kComplete;
};

/// Sampling policy. sample_every is the span sampler's 1-in-N (1 = record
/// every span).
///
/// head_sample_rate / head_seed govern request head sampling: a request is
/// traced end-to-end iff a pure hash of (head_seed, request_id) lands under
/// the rate (FaultInjector-style). Deterministic: the same request_id is
/// always sampled the same way under a fixed config.
struct TraceConfig {
  std::size_t sample_every = 1;
  double head_sample_rate = 1.0 / 64.0;
  std::uint64_t head_seed = 0x9E3779B97F4A7C15ull;
};

/// Process-global span collector.
class TraceRecorder {
 public:
  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;
  ~TraceRecorder();

  [[nodiscard]] static TraceRecorder& global();

  void enable() noexcept { enabled_.store(true, std::memory_order_relaxed); }
  void disable() noexcept { enabled_.store(false, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Monotonic timestamp in ns relative to the recorder's construction.
  [[nodiscard]] std::int64_t now_ns() const noexcept;

  /// Appends one completed span for the calling thread (no-op if disabled).
  void record(std::string_view name, std::string_view category,
              std::int64_t begin_ns, std::int64_t end_ns) noexcept;

  /// Generalized append: any phase, optional flow id (0 = none). For
  /// kComplete/kAsync, begin/end bracket the span; flow phases are instants
  /// (end_ns ignored, coerced to begin_ns). No-op if disabled.
  void record_event(std::string_view name, std::string_view category,
                    std::int64_t begin_ns, std::int64_t end_ns,
                    TracePhase phase, std::uint64_t flow_id) noexcept;

  /// Records a flow instant ("s"/"t"/"f" per phase) at now_ns() under the
  /// given flow id. Used to stitch one request's spans across threads and
  /// across the client/server boundary into arrows on the trace timeline.
  void record_flow(TracePhase phase, std::string_view name,
                   std::string_view category, std::uint64_t flow_id) noexcept;

  /// Deterministic request head sampling. Returns a TraceContext whose
  /// trace_id is a pure hash of (head_seed, request_id) — stable across
  /// retries — and whose sampled flag is true iff a second pure hash lands
  /// under config().head_sample_rate. Returns an invalid context when the
  /// recorder is disabled.
  [[nodiscard]] TraceContext head_sample(std::uint64_t request_id) noexcept;

  /// Fresh process-unique span id (never 0) for wiring parent links.
  [[nodiscard]] std::uint64_t next_span_id() noexcept {
    return next_span_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Sets the span sampler's 1-in-N and the head-sampling rate and seed.
  void configure(TraceConfig config) noexcept;
  [[nodiscard]] TraceConfig config() const noexcept;

  /// One relaxed load + a thread-local countdown: true on every Nth call per
  /// thread, where N is config().sample_every. Always false when the
  /// recorder is disabled. TraceSpan consults this at construction.
  [[nodiscard]] bool should_sample() noexcept;

  /// EWMA cost of one record() call in ns, self-measured on every 64th
  /// record and published as the gnntrans_trace_span_cost_ns gauge. 0 until
  /// something has been measured.
  [[nodiscard]] double measured_span_cost_ns() const noexcept {
    return span_cost_ns_.load(std::memory_order_relaxed);
  }

  /// Events currently retained across all rings (post-wrap this is capacity).
  [[nodiscard]] std::size_t event_count() const;
  /// Events lost to ring wrap-around since the last clear().
  [[nodiscard]] std::uint64_t dropped_count() const;

  /// Chrome trace JSON ({"traceEvents":[...]}), microsecond timestamps.
  void write_chrome_json(std::ostream& out) const;

  /// Drops all recorded events (rings stay allocated).
  void clear();

  /// Per-thread ring capacity in events. Applies to rings created after the
  /// call; default 16384 (~1.5 MiB per recording thread).
  void set_ring_capacity(std::size_t events);

 private:
  struct Ring;
  Ring& ring_for_this_thread();

  std::atomic<bool> enabled_{false};
  std::atomic<std::size_t> sample_every_{1};
  std::atomic<double> span_cost_ns_{0.0};  ///< EWMA of record() self-timing
  std::atomic<double> head_rate_{1.0 / 64.0};
  std::atomic<std::uint64_t> head_seed_{0x9E3779B97F4A7C15ull};
  std::atomic<std::uint64_t> next_span_id_{1};
  struct Impl;
  [[nodiscard]] Impl& impl() const;
  mutable std::atomic<Impl*> impl_{nullptr};
};

/// RAII span: samples the clock at construction, records on destruction.
/// If the recorder is disabled — or the sampler skips this span — at
/// construction, the destructor does nothing (spans never straddle an
/// enable, and a skipped span costs one load + one thread-local decrement).
///
/// The context-parented overload is the cross-thread handoff: pass the
/// TraceContext that travelled with the request (through the queue or over
/// the wire) and the span records iff that request was head-sampled —
/// bypassing the 1-in-N span sampler so a sampled request always gets its
/// complete stage breakdown — tagged with the trace_id as its flow id.
class TraceSpan {
 public:
  explicit TraceSpan(std::string_view name,
                     std::string_view category = "") noexcept {
    TraceRecorder& recorder = TraceRecorder::global();
    if (!recorder.should_sample()) return;
    name_ = name;
    category_ = category;
    begin_ns_ = recorder.now_ns();
  }

  TraceSpan(std::string_view name, std::string_view category,
            const TraceContext& parent) noexcept {
    TraceRecorder& recorder = TraceRecorder::global();
    if (!parent.sampled || !recorder.enabled()) return;
    name_ = name;
    category_ = category;
    flow_id_ = parent.trace_id;
    begin_ns_ = recorder.now_ns();
  }

  ~TraceSpan() {
    if (begin_ns_ < 0) return;
    TraceRecorder& recorder = TraceRecorder::global();
    recorder.record_event(name_, category_, begin_ns_, recorder.now_ns(),
                          TracePhase::kComplete, flow_id_);
  }

  /// True when this span is actually recording (sampled + enabled).
  [[nodiscard]] bool active() const noexcept { return begin_ns_ >= 0; }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  std::string_view name_;
  std::string_view category_;
  std::uint64_t flow_id_ = 0;
  std::int64_t begin_ns_ = -1;
};

}  // namespace gnntrans::telemetry
