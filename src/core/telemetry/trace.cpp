#include "core/telemetry/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <ostream>
#include <utility>
#include <vector>

#include "core/telemetry/log.hpp"
#include "core/telemetry/metrics.hpp"

namespace gnntrans::telemetry {

namespace {

std::atomic<std::uint64_t> g_next_recorder_id{1};

void copy_truncated(char* dst, std::size_t cap, std::string_view src) {
  const std::size_t n = std::min(cap - 1, src.size());
  std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

/// splitmix64 finalizer — the same pure-hash family FaultInjector and the
/// quality shadow sampler use, so head sampling is a deterministic function
/// of (seed, request_id) with no per-request state.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

const Gauge& span_cost_gauge() {
  static const Gauge gauge = MetricsRegistry::global().gauge(
      "gnntrans_trace_span_cost_ns",
      "EWMA self-measured cost of recording one trace span, in ns");
  return gauge;
}

}  // namespace

/// Per-thread event ring. The owner thread appends; json export and clear
/// lock the mutex, which the owner also takes per append — uncontended in
/// steady state, so the cost is a couple of ns and the structure is clean
/// under TSan.
struct TraceRecorder::Ring {
  explicit Ring(std::size_t capacity, std::uint32_t tid)
      : thread_id(tid), events(capacity) {}

  std::uint32_t thread_id = 0;
  mutable std::mutex mutex;
  std::vector<TraceEvent> events;  ///< fixed capacity, circular
  std::size_t next = 0;            ///< write cursor
  std::uint64_t written = 0;       ///< total appends since clear
};

struct TraceRecorder::Impl {
  const std::uint64_t id = g_next_recorder_id.fetch_add(1);
  const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  mutable std::mutex mutex;  ///< guards rings vector growth
  std::vector<std::unique_ptr<Ring>> rings;
  std::size_t ring_capacity = 16384;
};

TraceRecorder::Impl& TraceRecorder::impl() const {
  Impl* existing = impl_.load(std::memory_order_acquire);
  if (existing) return *existing;
  auto* fresh = new Impl();
  if (impl_.compare_exchange_strong(existing, fresh,
                                    std::memory_order_acq_rel))
    return *fresh;
  delete fresh;
  return *existing;
}

TraceRecorder::~TraceRecorder() { delete impl_.load(); }

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder* recorder = new TraceRecorder();
  return *recorder;
}

std::int64_t TraceRecorder::now_ns() const noexcept {
  return ns_at(std::chrono::steady_clock::now());
}

std::int64_t TraceRecorder::ns_at(
    std::chrono::steady_clock::time_point t) const noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - impl().epoch)
      .count();
}

TraceRecorder::Ring& TraceRecorder::ring_for_this_thread() {
  // Cache keyed by recorder id: ids are never reused, so a stale cache entry
  // from a destroyed recorder can never alias a live one.
  thread_local std::vector<std::pair<std::uint64_t, Ring*>> t_cache;
  Impl& im = impl();
  for (const auto& [id, ring] : t_cache)
    if (id == im.id) return *ring;

  const std::lock_guard<std::mutex> lock(im.mutex);
  im.rings.push_back(
      std::make_unique<Ring>(im.ring_capacity, this_thread_id()));
  Ring* ring = im.rings.back().get();
  t_cache.emplace_back(im.id, ring);
  return *ring;
}

void TraceRecorder::record_flow(TracePhase phase, std::string_view name,
                                std::string_view category,
                                std::uint64_t flow_id) noexcept {
  if (!enabled()) return;
  const std::int64_t now = now_ns();
  record_event(name, category, now, now, phase, flow_id);
}

TraceContext TraceRecorder::head_sample(std::uint64_t request_id) noexcept {
  if (!enabled()) return {};
  const std::uint64_t seed = head_seed_.load(std::memory_order_relaxed);
  const std::uint64_t mixed = mix64(request_id ^ seed);
  TraceContext ctx;
  ctx.trace_id = mixed ? mixed : 1;
  const double rate = head_rate_.load(std::memory_order_relaxed);
  if (rate >= 1.0) {
    ctx.sampled = true;
  } else if (rate > 0.0) {
    // Map rate into the u64 range (FaultInjector-style threshold compare),
    // decided by a second independent hash so the sampling bit is not
    // correlated with the trace_id bits.
    const auto threshold =
        static_cast<std::uint64_t>(rate * 18446744073709551616.0);
    ctx.sampled = mix64(mixed ^ 0x517CC1B727220A95ull) < threshold;
  }
  if (ctx.sampled) ctx.span_id = next_span_id();
  return ctx;
}

void TraceRecorder::record_event(std::string_view name,
                                 std::string_view category,
                                 std::int64_t begin_ns, std::int64_t end_ns,
                                 TracePhase phase,
                                 std::uint64_t flow_id) noexcept {
  if (!enabled()) return;
  // Self-time every 64th record so the cost of observing stays measured on
  // this machine under this contention; EWMA smooths scheduler noise. The
  // pre-increment makes call #64 the first probe, and the ring is acquired
  // before the clock starts: a thread's first record pays a one-off ring
  // allocation (~2 MB first touch) that must not seed the EWMA.
  thread_local std::uint32_t t_probe = 0;
  const bool timed = (++t_probe & 63u) == 0;
  Ring& ring = ring_for_this_thread();
  std::chrono::steady_clock::time_point t0;
  if (timed) t0 = std::chrono::steady_clock::now();

  {
    const std::lock_guard<std::mutex> lock(ring.mutex);
    TraceEvent& event = ring.events[ring.next];
    copy_truncated(event.name, sizeof(event.name), name);
    copy_truncated(event.category, sizeof(event.category), category);
    event.begin_ns = begin_ns;
    event.end_ns = phase == TracePhase::kComplete || phase == TracePhase::kAsync
                       ? end_ns
                       : begin_ns;
    event.flow_id = flow_id;
    event.thread_id = ring.thread_id;
    event.phase = phase;
    ring.next = (ring.next + 1) % ring.events.size();
    ++ring.written;
  }

  if (timed) {
    const double cost = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    double prev = span_cost_ns_.load(std::memory_order_relaxed);
    const double next = prev <= 0.0 ? cost : prev + (cost - prev) * 0.125;
    // Lost races just drop one probe; the EWMA doesn't care.
    if (span_cost_ns_.compare_exchange_weak(prev, next,
                                            std::memory_order_relaxed))
      span_cost_gauge().set(next);
  }
}

void TraceRecorder::configure(TraceConfig config) noexcept {
  head_rate_.store(std::clamp(config.head_sample_rate, 0.0, 1.0),
                   std::memory_order_relaxed);
  head_seed_.store(config.head_seed, std::memory_order_relaxed);
}

TraceConfig TraceRecorder::config() const noexcept {
  return {head_rate_.load(std::memory_order_relaxed),
          head_seed_.load(std::memory_order_relaxed)};
}

std::size_t TraceRecorder::event_count() const {
  Impl& im = impl();
  const std::lock_guard<std::mutex> lock(im.mutex);
  std::size_t total = 0;
  for (const std::unique_ptr<Ring>& ring : im.rings) {
    const std::lock_guard<std::mutex> ring_lock(ring->mutex);
    total += std::min<std::uint64_t>(ring->written, ring->events.size());
  }
  return total;
}

std::uint64_t TraceRecorder::dropped_count() const {
  Impl& im = impl();
  const std::lock_guard<std::mutex> lock(im.mutex);
  std::uint64_t dropped = 0;
  for (const std::unique_ptr<Ring>& ring : im.rings) {
    const std::lock_guard<std::mutex> ring_lock(ring->mutex);
    if (ring->written > ring->events.size())
      dropped += ring->written - ring->events.size();
  }
  return dropped;
}

void TraceRecorder::write_chrome_json(std::ostream& out) const {
  Impl& im = impl();
  const std::lock_guard<std::mutex> lock(im.mutex);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const std::unique_ptr<Ring>& ring : im.rings) {
    const std::lock_guard<std::mutex> ring_lock(ring->mutex);
    const std::size_t count =
        std::min<std::uint64_t>(ring->written, ring->events.size());
    // Oldest-first: when wrapped, the cursor points at the oldest event.
    const std::size_t start = ring->written > ring->events.size() ? ring->next : 0;
    for (std::size_t k = 0; k < count; ++k) {
      const TraceEvent& event =
          ring->events[(start + k) % ring->events.size()];
      char times[96];  // fixed %.3f keeps full µs resolution at any offset
      char id[40];
      id[0] = '\0';
      if (event.flow_id != 0)
        std::snprintf(id, sizeof(id), ",\"id\":\"0x%llx\"",
                      static_cast<unsigned long long>(event.flow_id));
      const char* header_tail =
          event.category[0] ? event.category : "default";
      // One stored event can expand to two JSON entries (async b/e pair).
      const auto emit = [&](char ph, std::int64_t ts_ns, bool with_dur,
                            const char* extra) {
        if (!first) out << ",";
        first = false;
        if (with_dur)
          std::snprintf(times, sizeof(times), "\"ts\":%.3f,\"dur\":%.3f",
                        static_cast<double>(ts_ns) / 1000.0,
                        static_cast<double>(event.end_ns - event.begin_ns) /
                            1000.0);
        else
          std::snprintf(times, sizeof(times), "\"ts\":%.3f",
                        static_cast<double>(ts_ns) / 1000.0);
        out << "{\"name\":\"" << json_escape(event.name) << "\",\"cat\":\""
            << json_escape(header_tail) << "\",\"ph\":\"" << ph
            << "\",\"pid\":1,\"tid\":" << event.thread_id << "," << times
            << id << extra << "}";
      };
      switch (event.phase) {
        case TracePhase::kComplete:
          emit('X', event.begin_ns, true, "");
          break;
        case TracePhase::kFlowStart:
          emit('s', event.begin_ns, false, "");
          break;
        case TracePhase::kFlowStep:
          emit('t', event.begin_ns, false, "");
          break;
        case TracePhase::kFlowEnd:
          // bp:e binds the arrow to the enclosing slice's end, which is how
          // chrome://tracing expects terminating flow events to land.
          emit('f', event.begin_ns, false, ",\"bp\":\"e\"");
          break;
        case TracePhase::kAsync:
          emit('b', event.begin_ns, false, "");
          emit('e', event.end_ns, false, "");
          break;
      }
    }
  }
  out << "]}";
}

void TraceRecorder::clear() {
  Impl& im = impl();
  const std::lock_guard<std::mutex> lock(im.mutex);
  for (const std::unique_ptr<Ring>& ring : im.rings) {
    const std::lock_guard<std::mutex> ring_lock(ring->mutex);
    ring->next = 0;
    ring->written = 0;
  }
}

void TraceRecorder::set_ring_capacity(std::size_t events) {
  Impl& im = impl();
  const std::lock_guard<std::mutex> lock(im.mutex);
  im.ring_capacity = std::max<std::size_t>(16, events);
}

}  // namespace gnntrans::telemetry
