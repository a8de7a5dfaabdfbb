#include "core/telemetry/flight_recorder.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "core/telemetry/log.hpp"

namespace gnntrans::telemetry {

namespace detail {

void write_slot(FlightSlot& slot, const FlightRecord& record) noexcept {
  std::uint64_t words[kFlightWords];
  std::memcpy(words, &record, sizeof(record));
  const std::uint64_t v = slot.version.load(std::memory_order_relaxed);
  slot.version.store(v + 1, std::memory_order_relaxed);  // odd: mid-write
  std::atomic_thread_fence(std::memory_order_release);
  for (std::size_t w = 0; w < kFlightWords; ++w)
    slot.words[w].store(words[w], std::memory_order_relaxed);
  slot.version.store(v + 2, std::memory_order_release);  // even: stable
}

bool read_slot(const FlightSlot& slot, FlightRecord* out) noexcept {
  for (int attempt = 0; attempt < 4; ++attempt) {
    const std::uint64_t v1 = slot.version.load(std::memory_order_acquire);
    if (v1 & 1) continue;  // mid-write
    std::uint64_t words[kFlightWords];
    for (std::size_t w = 0; w < kFlightWords; ++w)
      words[w] = slot.words[w].load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.version.load(std::memory_order_relaxed) != v1) continue;
    std::memcpy(out, words, sizeof(FlightRecord));
    return out->seq != 0;
  }
  return false;
}

}  // namespace detail

namespace {

using detail::FlightSlot;

constexpr std::size_t kPinnedSlots = 64;   ///< per-thread pinned-ring capacity
constexpr std::size_t kMaxRings = 256;     ///< recording-thread hard cap
constexpr std::size_t kRequestSlots = 64;  ///< slowest sampled requests kept
constexpr std::size_t kRecordBytes = 1024;  ///< one formatted record, bounded

std::atomic<std::uint64_t> g_next_flight_recorder_id{1};

// ---------------------------------------------------------------------------
// Async-signal-safe formatting: the signal path may not allocate or call
// stdio, so JSON is assembled with these and flushed through write(2).

char* append_raw(char* p, char* end, std::string_view s) noexcept {
  const std::size_t n =
      std::min<std::size_t>(s.size(), static_cast<std::size_t>(end - p));
  std::memcpy(p, s.data(), n);
  return p + n;
}

char* append_u64(char* p, char* end, std::uint64_t v) noexcept {
  char digits[20];
  int n = 0;
  do {
    digits[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  while (n > 0 && p < end) *p++ = digits[--n];
  return p;
}

/// Trace ids as the 0x%016llx handles the /metrics exemplars carry.
char* append_hex64(char* p, char* end, std::uint64_t v) noexcept {
  p = append_raw(p, end, "0x");
  for (int shift = 60; shift >= 0 && p < end; shift -= 4)
    *p++ = "0123456789abcdef"[(v >> shift) & 0xf];
  return p;
}

/// Microsecond values with one decimal: 12.3 — enough resolution for a
/// flight log, no float formatting in signal context.
char* append_us(char* p, char* end, float us) noexcept {
  if (!(us >= 0.0f)) us = 0.0f;  // also catches NaN
  const std::uint64_t tenths = static_cast<std::uint64_t>(us * 10.0f + 0.5f);
  p = append_u64(p, end, tenths / 10);
  p = append_raw(p, end, ".");
  return append_u64(p, end, tenths % 10);
}

/// Name bytes that could break the JSON string (or a terminal) become '_';
/// proper escaping needs allocation, which the signal path cannot do.
char* append_sanitized(char* p, char* end, const char* s,
                       std::size_t cap) noexcept {
  for (std::size_t i = 0; i < cap && s[i] != '\0' && p < end; ++i) {
    const char c = s[i];
    *p++ = (c >= 0x20 && c != '"' && c != '\\' && c != 0x7f) ? c : '_';
  }
  return p;
}

void write_all(int fd, const char* data, std::size_t size) noexcept {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n <= 0) return;  // EINTR in a signal handler: give up, don't loop
    data += n;
    size -= static_cast<std::size_t>(n);
  }
}

/// One record as a JSON object into \p buf; returns the byte count. The
/// request fields appear only on traced records and a stage only when it
/// was timed; stage keys are the stage table's names.
std::size_t format_record(const FlightRecord& r, char* buf,
                          std::size_t cap) noexcept {
  char* p = buf;
  char* end = buf + cap - 1;
  p = append_raw(p, end, "{\"seq\":");
  p = append_u64(p, end, r.seq);
  p = append_raw(p, end, ",\"net\":\"");
  p = append_sanitized(p, end, r.net, sizeof(r.net));
  p = append_raw(p, end, "\",\"outcome\":\"");
  p = append_sanitized(p, end, r.outcome, sizeof(r.outcome));
  p = append_raw(p, end, "\",\"error\":\"");
  p = append_sanitized(p, end, r.error, sizeof(r.error));
  p = append_raw(p, end, "\",\"thread\":");
  p = append_u64(p, end, r.thread_id);
  if (r.trace_id != 0) {
    p = append_raw(p, end, ",\"trace_id\":\"");
    p = append_hex64(p, end, r.trace_id);
    p = append_raw(p, end, "\",\"request_id\":");
    p = append_u64(p, end, r.request_id);
    p = append_raw(p, end, ",\"attempt\":");
    p = append_u64(p, end, r.attempt);
  }
  if (r.batch_size != 0) {
    p = append_raw(p, end, ",\"batch_size\":");
    p = append_u64(p, end, r.batch_size);
  }
  p = append_raw(p, end, ",\"total_us\":");
  p = append_us(p, end, r.total_us);
  p = append_raw(p, end, ",\"stages_us\":{");
  bool first = true;
  for (std::size_t s = 0; s < kStageCount; ++s) {
    if (!(r.stage_us[s] > 0.0f)) continue;
    p = append_raw(p, end, first ? "\"" : ",\"");
    first = false;
    p = append_raw(p, end, kStageNames[s]);
    p = append_raw(p, end, "\":");
    p = append_us(p, end, r.stage_us[s]);
  }
  p = append_raw(p, end, "},\"arena_peak_bytes\":");
  p = append_u64(p, end, r.arena_peak_bytes);
  p = append_raw(p, end, ",\"slow\":");
  p = append_raw(p, end, r.slow ? "true" : "false");
  p = append_raw(p, end, ",\"degraded\":");
  p = append_raw(p, end, r.degraded ? "true" : "false");
  p = append_raw(p, end, ",\"pinned\":");
  p = append_raw(p, end, r.pinned ? "true" : "false");
  p = append_raw(p, end, "}");
  return static_cast<std::size_t>(p - buf);
}

/// Appends every stable record of \p slots to \p out.
template <typename Slots>
void read_all(const Slots& slots, std::vector<FlightRecord>* out) {
  FlightRecord rec;
  for (const FlightSlot& slot : slots)
    if (detail::read_slot(slot, &rec)) out->push_back(rec);
}

/// The records as comma-separated JSON objects.
void emit_records(std::ostream& out, const std::vector<FlightRecord>& records) {
  char buf[kRecordBytes];
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i > 0) out << ",";
    const std::size_t n = format_record(records[i], buf, sizeof(buf));
    out.write(buf, static_cast<std::streamsize>(n));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Rings

struct FlightRecorder::Ring {
  Ring(std::size_t capacity, std::uint32_t tid)
      : thread_id(tid), recent(capacity) {}

  const std::uint32_t thread_id;
  std::atomic<std::uint64_t> head{0};         ///< main-ring appends
  std::atomic<std::uint64_t> pinned_head{0};  ///< pinned-ring appends
  std::vector<FlightSlot> recent;
  std::array<FlightSlot, kPinnedSlots> pinned;
};

struct FlightRecorder::Impl {
  const std::uint64_t id = g_next_flight_recorder_id.fetch_add(1);
  std::atomic<std::uint64_t> next_seq{0};
  std::atomic<std::uint64_t> overflow_dropped{0};  ///< > kMaxRings threads
  std::atomic<std::size_t> ring_capacity{256};

  // Ring registry: a fixed array of atomic pointers so the signal-handler
  // reader never takes a lock. The mutex only serializes slot assignment
  // between registering threads (never held on read or record paths).
  std::mutex register_mutex;
  std::atomic<std::size_t> ring_count{0};
  std::array<std::atomic<Ring*>, kMaxRings> rings{};

  // Slowest sampled requests. request_mutex serializes writers, keeping each
  // seqlock slot single-writer; readers go through read_slot without it.
  std::mutex request_mutex;
  std::atomic<std::uint64_t> requests_recorded{0};
  std::array<FlightSlot, kRequestSlots> requests;

  /// Calls \p fn on every registered ring; lock-free, so signal-safe.
  template <typename Fn>
  void each_ring(Fn&& fn) const {
    const std::size_t count =
        std::min(ring_count.load(std::memory_order_acquire), kMaxRings);
    for (std::size_t r = 0; r < count; ++r)
      if (Ring* ring = rings[r].load(std::memory_order_acquire)) fn(*ring);
  }
};

FlightRecorder::Impl& FlightRecorder::impl() const noexcept {
  Impl* existing = impl_.load(std::memory_order_acquire);
  if (existing) return *existing;
  auto* fresh = new Impl();
  if (impl_.compare_exchange_strong(existing, fresh, std::memory_order_acq_rel))
    return *fresh;
  delete fresh;
  return *existing;
}

FlightRecorder::FlightRecorder() = default;

FlightRecorder::~FlightRecorder() {
  Impl* im = impl_.load(std::memory_order_acquire);
  if (!im) return;
  im->each_ring([](Ring& ring) { delete &ring; });
  delete im;
}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder* recorder = new FlightRecorder();  // leaked singleton
  return *recorder;
}

void FlightRecorder::set_ring_capacity(std::size_t records) {
  impl().ring_capacity.store(std::max<std::size_t>(8, records),
                             std::memory_order_relaxed);
}

FlightRecorder::Ring* FlightRecorder::ring_for_this_thread() noexcept {
  // Cache keyed by recorder id (never reused), like TraceRecorder's rings.
  thread_local std::vector<std::pair<std::uint64_t, Ring*>> t_cache;
  Impl& im = impl();
  for (const auto& [id, ring] : t_cache)
    if (id == im.id) return ring;
  try {
    const std::lock_guard<std::mutex> lock(im.register_mutex);
    const std::size_t slot = im.ring_count.load(std::memory_order_relaxed);
    if (slot >= kMaxRings) return nullptr;
    auto ring = std::make_unique<Ring>(
        im.ring_capacity.load(std::memory_order_relaxed), this_thread_id());
    im.rings[slot].store(ring.get(), std::memory_order_release);
    im.ring_count.store(slot + 1, std::memory_order_release);
    Ring* raw = ring.release();  // owned by the registry from here
    t_cache.emplace_back(im.id, raw);
    return raw;
  } catch (...) {
    return nullptr;
  }
}

void FlightRecorder::record(const FlightRecord& record) noexcept {
  if (!enabled()) return;
  Impl& im = impl();
  Ring* ring = ring_for_this_thread();
  if (!ring) {
    im.overflow_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  FlightRecord rec = record;
  rec.seq = im.next_seq.fetch_add(1, std::memory_order_relaxed) + 1;
  rec.thread_id = ring->thread_id;
  // Pin on slow/degraded, or when the caller asked explicitly (quality drift
  // and shadow-outlier events arrive pre-flagged).
  const bool want_pin = record.pinned != 0;
  rec.pinned = 0;
  const std::uint64_t h = ring->head.load(std::memory_order_relaxed);
  detail::write_slot(ring->recent[h % ring->recent.size()], rec);
  ring->head.store(h + 1, std::memory_order_release);
  if (want_pin || rec.slow || rec.degraded) {
    rec.pinned = 1;
    const std::uint64_t p = ring->pinned_head.load(std::memory_order_relaxed);
    detail::write_slot(ring->pinned[p % kPinnedSlots], rec);
    ring->pinned_head.store(p + 1, std::memory_order_release);
  }
}

void FlightRecorder::record_request(const FlightRecord& record) noexcept {
  if (!enabled()) return;
  Impl& im = impl();
  FlightRecord rec = record;
  rec.seq = im.next_seq.fetch_add(1, std::memory_order_relaxed) + 1;
  rec.thread_id = this_thread_id();
  rec.pinned = 0;
  im.requests_recorded.fetch_add(1, std::memory_order_relaxed);
  try {
    // Writers are serialized, so each slot reads back stable on the first try.
    const std::lock_guard<std::mutex> lock(im.request_mutex);
    FlightSlot* fastest = nullptr;
    float fastest_us = 0.0f;
    FlightRecord held;
    for (FlightSlot& slot : im.requests) {
      const float us = detail::read_slot(slot, &held) ? held.total_us : -1.0f;
      if (!fastest || us < fastest_us) {
        fastest = &slot;
        fastest_us = us;
      }
    }
    if (fastest_us < rec.total_us) detail::write_slot(*fastest, rec);
  } catch (...) {
    // A failed lock drops the record; telemetry never throws into serving.
  }
}

std::vector<FlightRecord> FlightRecorder::slowest_requests(
    std::size_t limit) const {
  std::vector<FlightRecord> out;
  read_all(impl().requests, &out);
  std::sort(out.begin(), out.end(),
            [](const FlightRecord& a, const FlightRecord& b) {
              return a.total_us > b.total_us;
            });
  if (limit > 0 && out.size() > limit) out.resize(limit);
  return out;
}

bool FlightRecorder::find_request(std::uint64_t trace_id,
                                  FlightRecord* out) const {
  FlightRecord rec;
  for (const FlightSlot& slot : impl().requests) {
    if (!detail::read_slot(slot, &rec) || rec.trace_id != trace_id) continue;
    if (out) *out = rec;
    return true;
  }
  return false;
}

std::uint64_t FlightRecorder::requests_recorded() const noexcept {
  return impl().requests_recorded.load(std::memory_order_relaxed);
}

void FlightRecorder::write_json(std::ostream& out,
                                const JsonFilter& filter) const {
  Impl& im = impl();
  std::vector<FlightRecord> recent, pinned, requests;
  im.each_ring([&](const Ring& ring) {
    read_all(ring.recent, &recent);
    read_all(ring.pinned, &pinned);
  });
  read_all(im.requests, &requests);
  // Oldest first by seq; the net filter, then the newest \p limit.
  const auto apply_filter = [&filter](std::vector<FlightRecord>& records) {
    std::sort(records.begin(), records.end(),
              [](const FlightRecord& a, const FlightRecord& b) {
                return a.seq < b.seq;
              });
    if (!filter.net.empty())
      records.erase(std::remove_if(records.begin(), records.end(),
                                   [&filter](const FlightRecord& r) {
                                     return filter.net != r.net;
                                   }),
                    records.end());
    if (filter.limit > 0 && records.size() > filter.limit)
      records.erase(records.begin(),
                    records.end() - static_cast<std::ptrdiff_t>(filter.limit));
  };
  apply_filter(recent);
  apply_filter(pinned);
  apply_filter(requests);

  // Every dump path shares format_record, so /flight, /tracez and the crash
  // dump have one shape; its sanitizer keeps hostile name bytes out of the
  // JSON.
  out << "{\"recorded\":" << recorded_total()
      << ",\"dropped\":" << dropped_total() << ",\"records\":[";
  emit_records(out, recent);
  out << "],\"pinned\":[";
  emit_records(out, pinned);
  out << "],\"requests\":[";
  emit_records(out, requests);
  out << "]}";
}

void FlightRecorder::write_tracez_json(std::ostream& out,
                                       std::size_t limit) const {
  const std::vector<FlightRecord> requests = slowest_requests(limit);
  out << "{\"retained\":" << requests.size() << ",\"traces\":[";
  emit_records(out, requests);
  out << "]}";
}

void FlightRecorder::write_json_fd(int fd) const noexcept {
  Impl& im = impl();
  char buf[512];
  char* p = buf;
  p = append_raw(p, buf + sizeof(buf), "{\"recorded\":");
  p = append_u64(p, buf + sizeof(buf), recorded_total());
  p = append_raw(p, buf + sizeof(buf), ",\"dropped\":");
  p = append_u64(p, buf + sizeof(buf), dropped_total());
  p = append_raw(p, buf + sizeof(buf), ",\"records\":[");
  write_all(fd, buf, static_cast<std::size_t>(p - buf));

  bool first = true;
  const auto emit_slots = [&](const auto& slots) {
    FlightRecord rec;
    for (const FlightSlot& slot : slots) {
      if (!detail::read_slot(slot, &rec)) continue;
      char line[kRecordBytes];
      std::size_t len = 0;
      if (!first) line[len++] = ',';
      first = false;
      len += format_record(rec, line + len, sizeof(line) - len);
      write_all(fd, line, len);
    }
  };
  im.each_ring([&](const Ring& ring) { emit_slots(ring.recent); });
  write_all(fd, "],\"pinned\":[", 12);
  first = true;
  im.each_ring([&](const Ring& ring) { emit_slots(ring.pinned); });
  write_all(fd, "],\"requests\":[", 14);
  first = true;
  emit_slots(im.requests);
  write_all(fd, "]}\n", 3);
}

std::uint64_t FlightRecorder::recorded_total() const noexcept {
  std::uint64_t total = 0;
  impl().each_ring([&](const Ring& ring) {
    total += ring.head.load(std::memory_order_relaxed);
  });
  return total;
}

std::uint64_t FlightRecorder::dropped_total() const noexcept {
  Impl& im = impl();
  std::uint64_t dropped = im.overflow_dropped.load(std::memory_order_relaxed);
  im.each_ring([&](const Ring& ring) {
    const std::uint64_t head = ring.head.load(std::memory_order_relaxed);
    if (head > ring.recent.size()) dropped += head - ring.recent.size();
  });
  return dropped;
}

void FlightRecorder::clear() noexcept {
  Impl& im = impl();
  const FlightRecord empty;
  im.each_ring([&](Ring& ring) {
    for (FlightSlot& slot : ring.recent) detail::write_slot(slot, empty);
    for (FlightSlot& slot : ring.pinned) detail::write_slot(slot, empty);
    ring.head.store(0, std::memory_order_relaxed);
    ring.pinned_head.store(0, std::memory_order_relaxed);
  });
  for (FlightSlot& slot : im.requests) detail::write_slot(slot, empty);
  im.requests_recorded.store(0, std::memory_order_relaxed);
  im.next_seq.store(0, std::memory_order_relaxed);
  im.overflow_dropped.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Fatal-signal dump

namespace {

char g_flight_dump_path[512] = {0};  ///< static storage: no allocation in handler
int g_flight_signals[] = {SIGSEGV, SIGBUS, SIGFPE, SIGABRT};

extern "C" void flight_signal_handler(int signum) {
  const int fd = ::open(g_flight_dump_path, O_WRONLY | O_CREAT | O_TRUNC,
                        0644);
  if (fd >= 0) {
    FlightRecorder::global().write_json_fd(fd);
    ::close(fd);
  }
  // SA_RESETHAND restored the default disposition; re-raise so the process
  // still dies with the original signal (core dump, wait status).
  ::raise(signum);
}

}  // namespace

void install_flight_signal_dump(const char* path) {
  std::snprintf(g_flight_dump_path, sizeof(g_flight_dump_path), "%s", path);
  struct sigaction action {};
  action.sa_handler = flight_signal_handler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESETHAND;
  for (const int signum : g_flight_signals)
    ::sigaction(signum, &action, nullptr);
  GNNTRANS_LOG_DEBUG("flight", "fatal-signal flight dump -> %s", path);
}

}  // namespace gnntrans::telemetry
