#include "core/telemetry/quality.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "core/telemetry/flight_recorder.hpp"
#include "core/telemetry/log.hpp"
#include "core/telemetry/metrics.hpp"

namespace gnntrans::telemetry {
namespace {

// Same pure-hash pipeline as core::FaultInjector: FNV-1a over the key,
// splitmix64 finalizer over the mix. A decision is a pure function of
// (seed, name), which is what makes the sampled-net set invariant under
// thread count and batch splitting.
constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a(std::string_view s) noexcept {
  std::uint64_t h = kFnvBasis;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t rate_to_threshold(double rate) noexcept {
  if (!(rate > 0.0)) return 0;
  if (rate >= 1.0) return ~0ull;
  return static_cast<std::uint64_t>(rate * 18446744073709551615.0);
}

// Relative residual as a percent of the analytic reference. The floor keeps
// near-zero references (degenerate stub nets) from manufacturing huge
// percentages out of sub-femtosecond absolute noise.
double relative_pct(double model, double reference) noexcept {
  const double denom = std::max(std::abs(reference), 1e-15);
  return 100.0 * std::abs(model - reference) / denom;
}

// Residual histogram ladder, percent of reference: 0.1% .. 500%.
std::vector<double> residual_pct_bounds() {
  return {0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0};
}

// Registry handles for the shadow-scoring metrics; function-local statics so
// the registry exists first and registration happens exactly once.
struct QualityMetrics {
  Counter shadowed_nets;
  Counter shadowed_sinks;
  Gauge overhead_pct;
  Gauge worst_psi;
  Gauge delay_p99_pct;
  Gauge degraded;
  Histogram delay_tree;
  Histogram delay_nontree;
  Histogram slew_tree;
  Histogram slew_nontree;

  static const QualityMetrics& get() {
    static QualityMetrics m{
        MetricsRegistry::global().counter(
            "gnntrans_quality_shadowed_nets_total",
            "Served nets re-timed by the analytic shadow scorer"),
        MetricsRegistry::global().counter(
            "gnntrans_quality_shadowed_sinks_total",
            "Sink residuals recorded by the shadow scorer"),
        MetricsRegistry::global().gauge(
            "gnntrans_quality_shadow_overhead_pct",
            "EWMA of shadow cost as percent of serving wall time"),
        MetricsRegistry::global().gauge(
            "gnntrans_quality_worst_psi",
            "Largest per-feature population stability index"),
        MetricsRegistry::global().gauge(
            "gnntrans_quality_delay_residual_p99_pct",
            "p99 relative delay residual (model vs analytic), percent"),
        MetricsRegistry::global().gauge(
            "gnntrans_quality_degraded",
            "1 when PSI or residual bounds are crossed, else 0"),
        MetricsRegistry::global().histogram(
            "gnntrans_quality_delay_residual_tree_pct", residual_pct_bounds(),
            "Relative delay residual on tree nets, percent"),
        MetricsRegistry::global().histogram(
            "gnntrans_quality_delay_residual_nontree_pct",
            residual_pct_bounds(),
            "Relative delay residual on non-tree nets, percent"),
        MetricsRegistry::global().histogram(
            "gnntrans_quality_slew_residual_tree_pct", residual_pct_bounds(),
            "Relative slew residual on tree nets, percent"),
        MetricsRegistry::global().histogram(
            "gnntrans_quality_slew_residual_nontree_pct",
            residual_pct_bounds(),
            "Relative slew residual on non-tree nets, percent"),
    };
    return m;
  }
};

void append_json_number(std::string& out, double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += buf;
}

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\' || u < 0x20) {
      out += '_';
    } else {
      out += c;
    }
  }
  out += '"';
}

void write_u32(std::ostream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint32_t read_u32(std::istream& in, const char* what) {
  std::uint32_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) throw std::runtime_error(std::string("quality baseline: truncated ") + what);
  return v;
}

}  // namespace

// ---------------------------------------------------------------------------
// LogSketch

std::size_t LogSketch::bucket_of(double value) noexcept {
  if (std::isnan(value)) return kMagnitudeBuckets;  // zero bucket
  const double mag = std::abs(value);
  if (mag < std::ldexp(1.0, kMinExp)) return kMagnitudeBuckets;
  int exp = 0;
  std::frexp(mag, &exp);
  // frexp returns mag = f * 2^exp with f in [0.5, 1), so mag lives in
  // [2^(exp-1), 2^exp) — our bucket exponent is exp - 1.
  int e = exp - 1;
  e = std::clamp(e, kMinExp, kMaxExp);
  const auto offset = static_cast<std::size_t>(e - kMinExp);
  if (value < 0.0) return kMagnitudeBuckets - 1 - offset;
  return kMagnitudeBuckets + 1 + offset;
}

double LogSketch::bucket_lower(std::size_t index) noexcept {
  if (index == kMagnitudeBuckets) return -std::ldexp(1.0, kMinExp);
  if (index < kMagnitudeBuckets) {
    // Negative side: index 0 holds the most negative values. The bucket
    // covers (-2^(e+1), -2^e]; its lower bound is -2^(e+1).
    const int e = kMinExp + static_cast<int>(kMagnitudeBuckets - 1 - index);
    return -std::ldexp(1.0, e + 1);
  }
  const int e = kMinExp + static_cast<int>(index - kMagnitudeBuckets - 1);
  return std::ldexp(1.0, e);
}

double LogSketch::bucket_upper(std::size_t index) noexcept {
  if (index == kMagnitudeBuckets) return std::ldexp(1.0, kMinExp);
  if (index < kMagnitudeBuckets) {
    const int e = kMinExp + static_cast<int>(kMagnitudeBuckets - 1 - index);
    return -std::ldexp(1.0, e);
  }
  const int e = kMinExp + static_cast<int>(index - kMagnitudeBuckets - 1);
  return std::ldexp(1.0, e + 1);
}

void LogSketch::observe(double value) noexcept {
  ++counts_[bucket_of(value)];
  ++count_;
}

void LogSketch::merge(const LogSketch& other) noexcept {
  for (std::size_t i = 0; i < kBucketCount; ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
}

void LogSketch::reset() noexcept {
  counts_.fill(0);
  count_ = 0;
}

double LogSketch::quantile(double q) const noexcept {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    const std::uint64_t n = counts_[i];
    if (n == 0) continue;
    if (static_cast<double>(cumulative + n) >= target) {
      const double into =
          std::clamp((target - static_cast<double>(cumulative)) /
                         static_cast<double>(n),
                     0.0, 1.0);
      const double lo = bucket_lower(i);
      const double hi = bucket_upper(i);
      return lo + into * (hi - lo);
    }
    cumulative += n;
  }
  // All mass below target only happens through rounding; report the top of
  // the highest occupied bucket.
  for (std::size_t i = kBucketCount; i-- > 0;) {
    if (counts_[i] != 0) return bucket_upper(i);
  }
  return 0.0;
}

void LogSketch::save(std::ostream& out) const {
  out.write(reinterpret_cast<const char*>(&count_), sizeof(count_));
  out.write(reinterpret_cast<const char*>(counts_.data()),
            static_cast<std::streamsize>(sizeof(std::uint64_t) * kBucketCount));
}

void LogSketch::load(std::istream& in) {
  in.read(reinterpret_cast<char*>(&count_), sizeof(count_));
  in.read(reinterpret_cast<char*>(counts_.data()),
          static_cast<std::streamsize>(sizeof(std::uint64_t) * kBucketCount));
  if (!in) throw std::runtime_error("quality sketch: truncated stream");
}

double population_stability_index(const LogSketch& baseline,
                                  const LogSketch& live, double epsilon) {
  if (baseline.count() == 0 || live.count() == 0) return 0.0;
  const double base_total = static_cast<double>(baseline.count());
  const double live_total = static_cast<double>(live.count());
  double psi = 0.0;
  for (std::size_t i = 0; i < LogSketch::kBucketCount; ++i) {
    const double p =
        std::max(static_cast<double>(baseline.buckets()[i]) / base_total,
                 epsilon);
    const double q =
        std::max(static_cast<double>(live.buckets()[i]) / live_total, epsilon);
    psi += (q - p) * std::log(q / p);
  }
  return psi;
}

// ---------------------------------------------------------------------------
// FeatureBaseline

namespace {
constexpr std::uint32_t kBaselineMagic = 0x51424153;  // "SABQ" LE -> "QBAS"
constexpr std::uint32_t kBaselineVersion = 1;
}  // namespace

void FeatureBaseline::observe(std::size_t feature, double value) {
  if (feature >= sketches.size()) {
    throw std::out_of_range("FeatureBaseline::observe: feature index");
  }
  sketches[feature].observe(value);
}

void FeatureBaseline::save(std::ostream& out) const {
  if (names.size() != sketches.size()) {
    throw std::logic_error("FeatureBaseline::save: names/sketches mismatch");
  }
  write_u32(out, kBaselineMagic);
  write_u32(out, kBaselineVersion);
  write_u32(out, static_cast<std::uint32_t>(LogSketch::kBucketCount));
  write_u32(out, static_cast<std::uint32_t>(sketches.size()));
  for (std::size_t i = 0; i < sketches.size(); ++i) {
    write_u32(out, static_cast<std::uint32_t>(names[i].size()));
    out.write(names[i].data(), static_cast<std::streamsize>(names[i].size()));
    sketches[i].save(out);
  }
}

void FeatureBaseline::load(std::istream& in) {
  if (read_u32(in, "magic") != kBaselineMagic) {
    throw std::runtime_error("quality baseline: bad magic");
  }
  if (read_u32(in, "version") != kBaselineVersion) {
    throw std::runtime_error("quality baseline: unknown block version");
  }
  if (read_u32(in, "bucket count") != LogSketch::kBucketCount) {
    throw std::runtime_error("quality baseline: sketch layout mismatch");
  }
  const std::uint32_t n = read_u32(in, "feature count");
  if (n > 4096) throw std::runtime_error("quality baseline: feature count implausible");
  names.assign(n, std::string());
  sketches.assign(n, LogSketch());
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t len = read_u32(in, "name length");
    if (len > 256) throw std::runtime_error("quality baseline: name length implausible");
    names[i].resize(len);
    in.read(names[i].data(), static_cast<std::streamsize>(len));
    if (!in) throw std::runtime_error("quality baseline: truncated name");
    sketches[i].load(in);
  }
}

// ---------------------------------------------------------------------------
// QualityMonitor

QualityMonitor& QualityMonitor::global() {
  static QualityMonitor monitor;
  return monitor;
}

void QualityMonitor::configure(const QualityConfig& config) {
  std::lock_guard<std::mutex> lock(mutex_);
  config_ = config;
  for (auto& sketch : live_features_) sketch.reset();
  delay_resid_tree_.reset();
  delay_resid_nontree_.reset();
  slew_resid_tree_.reset();
  slew_resid_nontree_.reset();
  std::fill(psi_alerted_.begin(), psi_alerted_.end(), std::uint8_t{0});
  shadowed_nets_.store(0, std::memory_order_relaxed);
  shadowed_sinks_.store(0, std::memory_order_relaxed);
  overhead_ewma_pct_.store(0.0, std::memory_order_relaxed);
  shadow_seed_.store(config.shadow_seed, std::memory_order_relaxed);
  shadow_threshold_.store(rate_to_threshold(config.shadow_rate),
                          std::memory_order_relaxed);
  active_.store(config.shadow_rate > 0.0, std::memory_order_release);
}

QualityConfig QualityMonitor::config() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return config_;
}

bool QualityMonitor::should_shadow(std::string_view net_name) const noexcept {
  if (!active_.load(std::memory_order_acquire)) return false;
  const std::uint64_t threshold =
      shadow_threshold_.load(std::memory_order_relaxed);
  if (threshold == 0) return false;
  const std::uint64_t seed = shadow_seed_.load(std::memory_order_relaxed);
  return mix(seed ^ fnv1a(net_name)) <= threshold;
}

void QualityMonitor::install_baseline(FeatureBaseline baseline) {
  std::lock_guard<std::mutex> lock(mutex_);
  baseline_ = std::move(baseline);
  live_features_.assign(baseline_.feature_count(), LogSketch());
  psi_alerted_.assign(baseline_.feature_count(), 0);
}

bool QualityMonitor::has_baseline() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return !baseline_.empty();
}

void QualityMonitor::observe_features(const float* values, std::size_t rows,
                                      std::size_t cols,
                                      std::size_t base_index) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (base_index + cols > live_features_.size()) return;  // no baseline yet
  for (std::size_t r = 0; r < rows; ++r) {
    const float* row = values + r * cols;
    for (std::size_t c = 0; c < cols; ++c) {
      live_features_[base_index + c].observe(static_cast<double>(row[c]));
    }
  }
}

void QualityMonitor::record_residual(bool non_tree, double delay_model,
                                     double delay_ref, double slew_model,
                                     double slew_ref) {
  const double delay_pct = relative_pct(delay_model, delay_ref);
  const double slew_pct = relative_pct(slew_model, slew_ref);
  const auto& metrics = QualityMetrics::get();
  metrics.shadowed_sinks.inc();
  if (non_tree) {
    metrics.delay_nontree.observe(delay_pct);
    metrics.slew_nontree.observe(slew_pct);
  } else {
    metrics.delay_tree.observe(delay_pct);
    metrics.slew_tree.observe(slew_pct);
  }
  shadowed_sinks_.fetch_add(1, std::memory_order_relaxed);

  bool outlier = false;
  double alert_pct = 0.0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (non_tree) {
      delay_resid_nontree_.observe(delay_pct);
      slew_resid_nontree_.observe(slew_pct);
    } else {
      delay_resid_tree_.observe(delay_pct);
      slew_resid_tree_.observe(slew_pct);
    }
    alert_pct = config_.residual_alert_pct;
    outlier = alert_pct > 0.0 && delay_pct > 2.0 * alert_pct;
  }
  if (outlier) {
    // Pin extreme disagreements so they survive ring wrap for post-mortems.
    FlightRecord rec;
    rec.set_net("shadow_outlier");
    rec.set_outcome(non_tree ? "resid_nontree" : "resid_tree");
    rec.total_us = static_cast<float>(delay_pct);
    rec.pinned = 1;
    FlightRecorder::global().record(rec);
  }
}

void QualityMonitor::count_shadowed_net() noexcept {
  QualityMetrics::get().shadowed_nets.inc();
  shadowed_nets_.fetch_add(1, std::memory_order_relaxed);
}

void QualityMonitor::observe_shadow_cost(double shadow_seconds,
                                         double batch_seconds) noexcept {
  if (!active_.load(std::memory_order_acquire)) return;
  if (!(batch_seconds > 0.0)) return;
  const double pct =
      100.0 * std::max(shadow_seconds, 0.0) / batch_seconds;
  const double prev = overhead_ewma_pct_.load(std::memory_order_relaxed);
  const double ewma = prev == 0.0 ? pct : 0.7 * prev + 0.3 * pct;
  overhead_ewma_pct_.store(ewma, std::memory_order_relaxed);
  QualityMetrics::get().overhead_pct.set(ewma);
}

QualityState QualityMonitor::compute_state() {
  QualityState state;
  state.shadowed_nets = shadowed_nets_.load(std::memory_order_relaxed);
  state.shadowed_sinks = shadowed_sinks_.load(std::memory_order_relaxed);
  state.shadow_overhead_pct =
      overhead_ewma_pct_.load(std::memory_order_relaxed);

  QualityConfig cfg;
  std::vector<std::size_t> newly_alerted;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    cfg = config_;

    LogSketch delay_all = delay_resid_tree_;
    delay_all.merge(delay_resid_nontree_);
    LogSketch slew_all = slew_resid_tree_;
    slew_all.merge(slew_resid_nontree_);
    state.delay_p50_pct = delay_all.quantile(0.50);
    state.delay_p99_pct = delay_all.quantile(0.99);
    state.slew_p50_pct = slew_all.quantile(0.50);
    state.slew_p99_pct = slew_all.quantile(0.99);

    state.features.reserve(baseline_.feature_count());
    for (std::size_t i = 0; i < baseline_.feature_count(); ++i) {
      FeatureDrift drift;
      drift.name = baseline_.names[i];
      drift.live_count = live_features_[i].count();
      if (drift.live_count >= cfg.min_samples) {
        drift.psi =
            population_stability_index(baseline_.sketches[i], live_features_[i]);
      }
      if (drift.psi > state.worst_psi) {
        state.worst_psi = drift.psi;
        state.worst_feature = drift.name;
      }
      if (cfg.psi_alert > 0.0 && drift.psi > cfg.psi_alert &&
          psi_alerted_[i] == 0) {
        psi_alerted_[i] = 1;
        newly_alerted.push_back(i);
      }
      state.features.push_back(std::move(drift));
    }

    const std::uint64_t residual_count =
        delay_all.count();  // already tree + non-tree
    if (cfg.psi_alert > 0.0 && state.worst_psi > cfg.psi_alert) {
      state.degraded = true;
      state.degraded_reason = "feature_psi " + state.worst_feature;
    } else if (cfg.residual_alert_pct > 0.0 &&
               residual_count >= cfg.min_samples &&
               state.delay_p99_pct > cfg.residual_alert_pct) {
      state.degraded = true;
      state.degraded_reason = "delay_residual_p99";
    }
  }

  const auto& metrics = QualityMetrics::get();
  metrics.worst_psi.set(state.worst_psi);
  metrics.delay_p99_pct.set(state.delay_p99_pct);
  metrics.degraded.set(state.degraded ? 1.0 : 0.0);
  for (const auto& drift : state.features) {
    MetricsRegistry::global()
        .gauge("gnntrans_quality_feature_psi_" + drift.name,
               "Population stability index vs training baseline")
        .set(drift.psi);
  }
  for (const std::size_t i : newly_alerted) {
    const std::string& name = state.features[i].name;
    GNNTRANS_LOG_WARN("quality", "feature '%s' PSI %.3f crossed alert %.3f",
                      name.c_str(), state.features[i].psi, cfg.psi_alert);
    FlightRecord rec;
    rec.set_net(name);
    rec.set_outcome("feature_drift");
    rec.total_us = static_cast<float>(state.features[i].psi * 1000.0);
    rec.pinned = 1;
    FlightRecorder::global().record(rec);
  }
  return state;
}

bool QualityMonitor::degraded(std::string* reason) {
  if (!active_.load(std::memory_order_acquire)) return false;
  const QualityState state = compute_state();
  if (state.degraded && reason != nullptr) *reason = state.degraded_reason;
  return state.degraded;
}

std::string QualityMonitor::state_json() {
  const QualityState state = compute_state();
  std::string out;
  out.reserve(1024);
  out += "{\"shadowed_nets\":";
  append_json_number(out, static_cast<double>(state.shadowed_nets));
  out += ",\"shadowed_sinks\":";
  append_json_number(out, static_cast<double>(state.shadowed_sinks));
  out += ",\"shadow_overhead_pct\":";
  append_json_number(out, state.shadow_overhead_pct);
  out += ",\"residuals\":{\"delay_p50_pct\":";
  append_json_number(out, state.delay_p50_pct);
  out += ",\"delay_p99_pct\":";
  append_json_number(out, state.delay_p99_pct);
  out += ",\"slew_p50_pct\":";
  append_json_number(out, state.slew_p50_pct);
  out += ",\"slew_p99_pct\":";
  append_json_number(out, state.slew_p99_pct);
  out += "},\"worst_psi\":";
  append_json_number(out, state.worst_psi);
  out += ",\"worst_feature\":";
  append_json_string(out, state.worst_feature);
  out += ",\"degraded\":";
  out += state.degraded ? "true" : "false";
  out += ",\"degraded_reason\":";
  append_json_string(out, state.degraded_reason);
  out += ",\"features\":[";
  bool first = true;
  for (const auto& drift : state.features) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    append_json_string(out, drift.name);
    out += ",\"psi\":";
    append_json_number(out, drift.psi);
    out += ",\"live_count\":";
    append_json_number(out, static_cast<double>(drift.live_count));
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace gnntrans::telemetry
