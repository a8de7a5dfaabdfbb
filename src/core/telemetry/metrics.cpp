#include "core/telemetry/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "core/telemetry/log.hpp"

namespace gnntrans::telemetry {

namespace {

/// Lock-free add for atomic<double> (fetch_add on floating point is C++20
/// but not universally lowered well; a CAS loop is portable and the slot is
/// per-thread-sharded, so the loop almost never retries).
void atomic_add(std::atomic<double>& target, double delta) noexcept {
  double expected = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(expected, expected + delta,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& target, double value) noexcept {
  double expected = target.load(std::memory_order_relaxed);
  while (expected < value &&
         !target.compare_exchange_weak(expected, value,
                                       std::memory_order_relaxed)) {
  }
}

/// Shortest round-trip double formatting (%.17g trimmed is overkill for
/// exposition; %g at 12 digits keeps bucket bounds like 2e-05 readable).
std::string format_double(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

}  // namespace

std::string sanitize_metric_name(std::string_view name) {
  if (name.empty()) return "_";
  std::string out(name);
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  if (out.front() >= '0' && out.front() <= '9') out.insert(out.begin(), '_');
  return out;
}

std::string escape_label_value(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string escape_help_text(std::string_view help) {
  std::string out;
  out.reserve(help.size());
  for (const char c : help) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// HistogramData

HistogramData::HistogramData(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end()))
    throw std::invalid_argument("HistogramData: bounds must be ascending");
  counts_.assign(bounds_.size() + 1, 0);
}

std::vector<double> HistogramData::default_latency_bounds() {
  std::vector<double> bounds;
  for (double decade = 1e-6; decade < 1.5; decade *= 10.0) {
    bounds.push_back(decade);
    bounds.push_back(2.0 * decade);
    bounds.push_back(5.0 * decade);
  }
  bounds.resize(bounds.size() - 2);  // stop the ladder at exactly 1 s
  return bounds;
}

void HistogramData::observe(double value) {
  // Prometheus "le" semantics: value lands in the first bucket whose upper
  // bound is >= value; above every bound it lands in the overflow bucket.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  counts_[static_cast<std::size_t>(it - bounds_.begin())] += 1;
  count_ += 1;
  sum_ += value;
}

void HistogramData::adopt(std::vector<std::uint64_t> counts,
                          std::uint64_t count, double sum) {
  if (counts.size() != bounds_.size() + 1)
    throw std::invalid_argument("HistogramData::adopt: count vector mismatch");
  counts_ = std::move(counts);
  count_ = count;
  sum_ = sum;
}

void HistogramData::merge(const HistogramData& other) {
  if (other.count_ == 0 && other.sum_ == 0.0 && bounds_ != other.bounds_)
    return;  // nothing to take
  if (count_ == 0 && sum_ == 0.0 && bounds_ != other.bounds_) {
    *this = other;  // adopt the populated side's bounds
    return;
  }
  if (bounds_ != other.bounds_)
    throw std::invalid_argument("HistogramData::merge: bucket bounds differ");
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
  sum_ += other.sum_;
}

double HistogramData::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_);
  double lo = 0.0;
  double cumulative = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double c = static_cast<double>(counts_[i]);
    const bool overflow = i >= bounds_.size();
    const double hi = overflow ? lo : bounds_[i];
    if (c > 0.0 && cumulative + c >= target) {
      if (overflow) return bounds_.empty() ? 0.0 : bounds_.back();
      const double frac = (target - cumulative) / c;
      return lo + frac * (hi - lo);
    }
    cumulative += c;
    lo = hi;
  }
  return bounds_.empty() ? 0.0 : bounds_.back();
}

void HistogramData::reset() {
  std::fill(counts_.begin(), counts_.end(), std::uint64_t{0});
  count_ = 0;
  sum_ = 0.0;
}

// ---------------------------------------------------------------------------
// Registry state

namespace detail {

std::size_t this_thread_shard() noexcept {
  return this_thread_id() % kMetricShards;
}

struct CounterState {
  std::string name, help;
  std::array<ShardCell, kMetricShards> cells;
};

struct GaugeState {
  std::string name, help;
  std::atomic<double> value{0.0};
};

struct HistogramState {
  struct Shard {
    std::vector<std::atomic<std::uint64_t>> counts;  ///< bounds + overflow
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
  };

  HistogramState(std::string name_in, std::string help_in,
                 std::vector<double> bounds_in)
      : name(std::move(name_in)), help(std::move(help_in)),
        bounds(std::move(bounds_in)) {
    for (Shard& shard : shards)
      shard.counts = std::vector<std::atomic<std::uint64_t>>(bounds.size() + 1);
  }

  std::string name, help;
  std::vector<double> bounds;
  std::array<Shard, kMetricShards> shards;

  // Exemplar slot (annotate_exemplar): rare writes from sampled requests
  // only, so a plain mutex is fine. value < 0 means "none yet".
  std::mutex exemplar_mutex;
  double exemplar_value = -1.0;
  std::uint64_t exemplar_trace_id = 0;
  char exemplar_label[48] = {0};
};

}  // namespace detail

void Counter::inc(std::uint64_t n) const noexcept {
  if (!state_) return;
  state_->cells[detail::this_thread_shard()].value.fetch_add(
      n, std::memory_order_relaxed);
}

std::uint64_t Counter::value() const noexcept {
  if (!state_) return 0;
  std::uint64_t total = 0;
  for (const detail::ShardCell& cell : state_->cells)
    total += cell.value.load(std::memory_order_relaxed);
  return total;
}

void Gauge::set(double value) const noexcept {
  if (state_) state_->value.store(value, std::memory_order_relaxed);
}

void Gauge::add(double delta) const noexcept {
  if (state_) atomic_add(state_->value, delta);
}

void Gauge::set_max(double value) const noexcept {
  if (state_) atomic_max(state_->value, value);
}

double Gauge::value() const noexcept {
  return state_ ? state_->value.load(std::memory_order_relaxed) : 0.0;
}

void Histogram::observe(double value) const noexcept {
  if (!state_) return;
  detail::HistogramState::Shard& shard =
      state_->shards[detail::this_thread_shard()];
  const auto it = std::lower_bound(state_->bounds.begin(),
                                   state_->bounds.end(), value);
  shard.counts[static_cast<std::size_t>(it - state_->bounds.begin())]
      .fetch_add(1, std::memory_order_relaxed);
  shard.count.fetch_add(1, std::memory_order_relaxed);
  atomic_add(shard.sum, value);
}

void Histogram::annotate_exemplar(double value, std::uint64_t trace_id,
                                  std::string_view label) const noexcept {
  if (!state_ || !(value >= 0.0)) return;
  const std::lock_guard<std::mutex> lock(state_->exemplar_mutex);
  if (value < state_->exemplar_value) return;
  state_->exemplar_value = value;
  state_->exemplar_trace_id = trace_id;
  const std::size_t n =
      std::min(sizeof(state_->exemplar_label) - 1, label.size());
  std::memcpy(state_->exemplar_label, label.data(), n);
  state_->exemplar_label[n] = '\0';
}

HistogramData Histogram::snapshot() const {
  if (!state_) return HistogramData(std::vector<double>{});
  HistogramData data(state_->bounds);
  // Merge shards through the private fields via observe-free accumulation:
  // rebuild counts/sum/count directly.
  std::vector<std::uint64_t> counts(state_->bounds.size() + 1, 0);
  std::uint64_t count = 0;
  double sum = 0.0;
  for (const detail::HistogramState::Shard& shard : state_->shards) {
    for (std::size_t b = 0; b < counts.size(); ++b)
      counts[b] += shard.counts[b].load(std::memory_order_relaxed);
    count += shard.count.load(std::memory_order_relaxed);
    sum += shard.sum.load(std::memory_order_relaxed);
  }
  data.adopt(std::move(counts), count, sum);
  return data;
}

// ---------------------------------------------------------------------------
// MetricsRegistry

struct MetricsRegistry::Impl {
  mutable std::mutex mutex;
  // deques: stable addresses across registration, required by the handles.
  std::deque<detail::CounterState> counters;
  std::deque<detail::GaugeState> gauges;
  std::deque<detail::HistogramState> histograms;
  enum class Kind { kCounter, kGauge, kHistogram };
  std::unordered_map<std::string, std::pair<Kind, std::size_t>> by_name;
};

MetricsRegistry::Impl& MetricsRegistry::impl() const {
  if (!impl_) impl_ = new Impl();
  return *impl_;
}

MetricsRegistry::~MetricsRegistry() { delete impl_; }

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter MetricsRegistry::counter(std::string_view name, std::string_view help) {
  Impl& im = impl();
  const std::lock_guard<std::mutex> lock(im.mutex);
  const auto it = im.by_name.find(std::string(name));
  if (it != im.by_name.end()) {
    if (it->second.first != Impl::Kind::kCounter)
      throw std::invalid_argument("metric registered with another type: " +
                                  std::string(name));
    return Counter(&im.counters[it->second.second]);
  }
  im.counters.emplace_back();
  im.counters.back().name = std::string(name);
  im.counters.back().help = std::string(help);
  im.by_name.emplace(std::string(name),
                     std::make_pair(Impl::Kind::kCounter, im.counters.size() - 1));
  return Counter(&im.counters.back());
}

Gauge MetricsRegistry::gauge(std::string_view name, std::string_view help) {
  Impl& im = impl();
  const std::lock_guard<std::mutex> lock(im.mutex);
  const auto it = im.by_name.find(std::string(name));
  if (it != im.by_name.end()) {
    if (it->second.first != Impl::Kind::kGauge)
      throw std::invalid_argument("metric registered with another type: " +
                                  std::string(name));
    return Gauge(&im.gauges[it->second.second]);
  }
  im.gauges.emplace_back();
  im.gauges.back().name = std::string(name);
  im.gauges.back().help = std::string(help);
  im.by_name.emplace(std::string(name),
                     std::make_pair(Impl::Kind::kGauge, im.gauges.size() - 1));
  return Gauge(&im.gauges.back());
}

Histogram MetricsRegistry::histogram(std::string_view name,
                                     std::vector<double> upper_bounds,
                                     std::string_view help) {
  if (!std::is_sorted(upper_bounds.begin(), upper_bounds.end()))
    throw std::invalid_argument("histogram bounds must be ascending: " +
                                std::string(name));
  Impl& im = impl();
  const std::lock_guard<std::mutex> lock(im.mutex);
  const auto it = im.by_name.find(std::string(name));
  if (it != im.by_name.end()) {
    if (it->second.first != Impl::Kind::kHistogram)
      throw std::invalid_argument("metric registered with another type: " +
                                  std::string(name));
    return Histogram(&im.histograms[it->second.second]);
  }
  im.histograms.emplace_back(std::string(name), std::string(help),
                             std::move(upper_bounds));
  im.by_name.emplace(std::string(name), std::make_pair(Impl::Kind::kHistogram,
                                                       im.histograms.size() - 1));
  return Histogram(&im.histograms.back());
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  Impl& im = impl();
  const std::lock_guard<std::mutex> lock(im.mutex);
  MetricsSnapshot snap;
  snap.counters.reserve(im.counters.size());
  for (detail::CounterState& state : im.counters)
    snap.counters.push_back({state.name, state.help, Counter(&state).value()});
  snap.gauges.reserve(im.gauges.size());
  for (detail::GaugeState& state : im.gauges)
    snap.gauges.push_back({state.name, state.help, Gauge(&state).value()});
  snap.histograms.reserve(im.histograms.size());
  for (detail::HistogramState& state : im.histograms) {
    MetricsSnapshot::HistogramValue value;
    value.name = state.name;
    value.help = state.help;
    value.data = Histogram(&state).snapshot();
    {
      const std::lock_guard<std::mutex> exemplar_lock(state.exemplar_mutex);
      if (state.exemplar_value >= 0.0) {
        value.has_exemplar = true;
        value.exemplar_value = state.exemplar_value;
        value.exemplar_trace_id = state.exemplar_trace_id;
        value.exemplar_label = state.exemplar_label;
      }
    }
    snap.histograms.push_back(std::move(value));
  }
  return snap;
}

void MetricsRegistry::reset() {
  Impl& im = impl();
  const std::lock_guard<std::mutex> lock(im.mutex);
  for (detail::CounterState& state : im.counters)
    for (detail::ShardCell& cell : state.cells)
      cell.value.store(0, std::memory_order_relaxed);
  for (detail::GaugeState& state : im.gauges)
    state.value.store(0.0, std::memory_order_relaxed);
  for (detail::HistogramState& state : im.histograms) {
    for (detail::HistogramState::Shard& shard : state.shards) {
      for (std::atomic<std::uint64_t>& c : shard.counts)
        c.store(0, std::memory_order_relaxed);
      shard.count.store(0, std::memory_order_relaxed);
      shard.sum.store(0.0, std::memory_order_relaxed);
    }
    const std::lock_guard<std::mutex> exemplar_lock(state.exemplar_mutex);
    state.exemplar_value = -1.0;
    state.exemplar_trace_id = 0;
    state.exemplar_label[0] = '\0';
  }
}

std::size_t MetricsRegistry::metric_count() const {
  Impl& im = impl();
  const std::lock_guard<std::mutex> lock(im.mutex);
  return im.by_name.size();
}

// ---------------------------------------------------------------------------
// Exports

std::string MetricsSnapshot::to_prometheus() const {
  std::string out;
  const auto header = [&out](const std::string& name, const std::string& help,
                             const char* type) {
    if (!help.empty())
      out += "# HELP " + sanitize_metric_name(name) + " " +
             escape_help_text(help) + "\n";
    out += "# TYPE " + sanitize_metric_name(name) + " " + type + "\n";
  };
  for (const CounterValue& c : counters) {
    header(c.name, c.help, "counter");
    out += sanitize_metric_name(c.name) + " " + std::to_string(c.value) + "\n";
  }
  for (const GaugeValue& g : gauges) {
    header(g.name, g.help, "gauge");
    out += sanitize_metric_name(g.name) + " " + format_double(g.value) + "\n";
  }
  for (const HistogramValue& h : histograms) {
    header(h.name, h.help, "histogram");
    const std::string name = sanitize_metric_name(h.name);
    // OpenMetrics-style exemplar suffix, appended to the first bucket line
    // whose upper bound covers the exemplar value (tail witness for /tracez).
    std::string exemplar;
    if (h.has_exemplar) {
      char id[32];
      std::snprintf(id, sizeof(id), "0x%016llx",
                    static_cast<unsigned long long>(h.exemplar_trace_id));
      exemplar = std::string(" # {trace_id=\"") + id + "\",net=\"" +
                 escape_label_value(h.exemplar_label) + "\"} " +
                 format_double(h.exemplar_value);
    }
    bool exemplar_emitted = false;
    std::uint64_t cumulative = 0;
    const std::vector<std::uint64_t>& counts = h.data.bucket_counts();
    for (std::size_t b = 0; b < h.data.bounds().size(); ++b) {
      cumulative += counts[b];
      out += name + "_bucket{le=\"" +
             escape_label_value(format_double(h.data.bounds()[b])) + "\"} " +
             std::to_string(cumulative);
      if (h.has_exemplar && !exemplar_emitted &&
          h.exemplar_value <= h.data.bounds()[b]) {
        out += exemplar;
        exemplar_emitted = true;
      }
      out += "\n";
    }
    out += name + "_bucket{le=\"+Inf\"} " + std::to_string(h.data.count());
    if (h.has_exemplar && !exemplar_emitted) out += exemplar;
    out += "\n";
    out += name + "_sum " + format_double(h.data.sum()) + "\n";
    out += name + "_count " + std::to_string(h.data.count()) + "\n";
  }
  return out;
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "{";
  out += "\"counters\":{";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (i) out += ",";
    out += "\"" + json_escape(counters[i].name) +
           "\":" + std::to_string(counters[i].value);
  }
  out += "},\"gauges\":{";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    if (i) out += ",";
    out += "\"" + json_escape(gauges[i].name) +
           "\":" + format_double(gauges[i].value);
  }
  out += "},\"histograms\":{";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    if (i) out += ",";
    const HistogramValue& h = histograms[i];
    out += "\"" + json_escape(h.name) + "\":{\"bounds\":[";
    for (std::size_t b = 0; b < h.data.bounds().size(); ++b) {
      if (b) out += ",";
      out += format_double(h.data.bounds()[b]);
    }
    out += "],\"counts\":[";
    for (std::size_t b = 0; b < h.data.bucket_counts().size(); ++b) {
      if (b) out += ",";
      out += std::to_string(h.data.bucket_counts()[b]);
    }
    out += "],\"sum\":" + format_double(h.data.sum()) +
           ",\"count\":" + std::to_string(h.data.count());
    if (h.has_exemplar) {
      char id[32];
      std::snprintf(id, sizeof(id), "0x%016llx",
                    static_cast<unsigned long long>(h.exemplar_trace_id));
      out += std::string(",\"exemplar\":{\"trace_id\":\"") + id +
             "\",\"label\":\"" + json_escape(h.exemplar_label) +
             "\",\"value\":" + format_double(h.exemplar_value) + "}";
    }
    out += "}";
  }
  out += "}}";
  return out;
}

}  // namespace gnntrans::telemetry
