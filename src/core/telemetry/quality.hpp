/// \file quality.hpp
/// Model-quality observability: is the GNN still trustworthy on live traffic?
///
/// The rest of the telemetry stack watches *speed and health* (latency
/// histograms, degradation counters, the flight recorder). This subsystem
/// watches *accuracy* — the failure mode none of those can see: a model that
/// keeps answering quickly and successfully while circuit traffic drifts away
/// from its training distribution and its predictions silently rot.
///
/// Three mechanisms, all fed from the serving path:
///
/// 1. **Shadow scoring.** A deterministic, seeded sampler (the FaultInjector
///    pure-hash idiom: a decision is a pure function of (seed, net name), so
///    the sampled-net set is identical for any thread count or batch split)
///    selects a fraction of served nets. Each selected net is re-timed inline
///    with the analytic Elmore/D2M baseline, and per-sink model-vs-analytic
///    residuals — delay and slew, split by tree/non-tree topology — feed
///    MetricsRegistry histograms plus streaming log-bucket quantile sketches.
///    The shadow pass self-times into an EWMA of its share of serving wall
///    time (gnntrans_quality_shadow_overhead_pct); the rate itself is always
///    the configured one.
///
/// 2. **Feature drift.** Training computes one LogSketch per input feature
///    (the baseline profile, serialized into the model checkpoint); serving
///    maintains live sketches over the same featurization for shadowed nets.
///    Per-feature Population Stability Index between baseline and live
///    distributions is exported as gnntrans_quality_feature_psi_* gauges.
///
/// 3. **Accuracy-aware readiness.** degraded() reports when any feature's PSI
///    or the shadow residual p99 crosses its configured bound; the obs
///    server's /readyz consults it, and /quality serves the full state as
///    JSON. Drift and residual outliers are pinned into the flight recorder.
///
/// Everything here is distribution plumbing over plain counts — no model,
/// feature, or net types — so the telemetry library stays at the bottom of
/// the stack; the serving layer (core::WireTimingEstimator) owns the actual
/// re-timing and featurization.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace gnntrans::telemetry {

/// Streaming distribution sketch over sign-aware log2 buckets. The layout is
/// fixed and global — one bucket per power of two from 2^kMinExp to 2^kMaxExp
/// for each sign, plus a zero bucket — so any two sketches are comparable
/// (PSI) and mergeable without negotiating bounds. Buckets are ordered most
/// negative -> zero -> most positive, which makes quantile() a cumulative
/// walk. Single writer; guard externally for concurrent observe().
class LogSketch {
 public:
  static constexpr int kMinExp = -60;  ///< |v| < 2^-60 counts as zero
  static constexpr int kMaxExp = 20;   ///< |v| >= 2^20 clamps to the last bucket
  static constexpr std::size_t kMagnitudeBuckets =
      static_cast<std::size_t>(kMaxExp - kMinExp + 1);
  static constexpr std::size_t kBucketCount = 2 * kMagnitudeBuckets + 1;

  /// Bucket index of \p value in the ordered layout. NaN lands in the zero
  /// bucket (it must land somewhere deterministic; NaNs are guarded upstream).
  [[nodiscard]] static std::size_t bucket_of(double value) noexcept;

  /// Lower/upper value bounds of bucket \p index (signed; the zero bucket is
  /// [-2^kMinExp, 2^kMinExp)).
  [[nodiscard]] static double bucket_lower(std::size_t index) noexcept;
  [[nodiscard]] static double bucket_upper(std::size_t index) noexcept;

  void observe(double value) noexcept;
  void merge(const LogSketch& other) noexcept;
  void reset() noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] const std::array<std::uint64_t, kBucketCount>& buckets()
      const noexcept {
    return counts_;
  }

  /// Quantile estimate by linear interpolation inside the covering bucket
  /// (geometric bounds). q clamped to [0, 1]; 0.0 on an empty sketch.
  [[nodiscard]] double quantile(double q) const noexcept;

  /// Raw little-endian (count + buckets) block, stable across platforms.
  void save(std::ostream& out) const;
  /// Throws std::runtime_error on a truncated stream.
  void load(std::istream& in);

 private:
  std::array<std::uint64_t, kBucketCount> counts_{};
  std::uint64_t count_ = 0;
};

/// Population Stability Index between two sketches over the shared layout:
///   sum_i (q_i - p_i) * ln(q_i / p_i),
/// with bucket fractions floored at \p epsilon so empty buckets contribute a
/// bounded penalty instead of infinity. 0 for identical distributions; the
/// usual monitoring reading is < 0.1 stable, 0.1-0.25 shifting, > 0.25
/// drifted. Returns 0 when either sketch is empty (no evidence, no alarm).
[[nodiscard]] double population_stability_index(const LogSketch& baseline,
                                                const LogSketch& live,
                                                double epsilon = 1e-4);

/// Per-input-feature baseline profile, computed by the trainer over the
/// training records and serialized into the model checkpoint. Feature names
/// must be metric-name-safe ([a-z0-9_]) because they become gauge suffixes.
struct FeatureBaseline {
  std::vector<std::string> names;     ///< one per feature column
  std::vector<LogSketch> sketches;    ///< aligned with names

  [[nodiscard]] bool empty() const noexcept { return sketches.empty(); }
  [[nodiscard]] std::size_t feature_count() const noexcept {
    return sketches.size();
  }

  void observe(std::size_t feature, double value);

  /// Versioned block: magic + per-feature (name, sketch).
  void save(std::ostream& out) const;
  /// Throws std::runtime_error on a malformed block.
  void load(std::istream& in);
};

/// Knobs for the quality monitor. configure() resets live state.
struct QualityConfig {
  /// Fraction of served nets shadow-scored (0 disables shadowing).
  double shadow_rate = 0.05;
  std::uint64_t shadow_seed = 1;
  /// A feature whose baseline-vs-live PSI exceeds this flips readiness.
  double psi_alert = 0.25;
  /// Shadow delay-residual p99 (relative, percent) bound for readiness.
  double residual_alert_pct = 50.0;
  /// Sketch observations required before PSI / residual bounds are judged
  /// (early traffic is too thin to call a drift).
  std::uint64_t min_samples = 256;
};

/// One feature's drift reading.
struct FeatureDrift {
  std::string name;
  double psi = 0.0;
  std::uint64_t live_count = 0;
};

/// Point-in-time quality state (compute_state()).
struct QualityState {
  std::uint64_t shadowed_nets = 0;
  std::uint64_t shadowed_sinks = 0;
  double shadow_overhead_pct = 0.0;  ///< EWMA of shadow cost / serving wall
  // Relative residual quantiles, percent of the analytic reference.
  double delay_p50_pct = 0.0;
  double delay_p99_pct = 0.0;
  double slew_p50_pct = 0.0;
  double slew_p99_pct = 0.0;
  double worst_psi = 0.0;
  std::string worst_feature;
  std::vector<FeatureDrift> features;  ///< empty without a baseline
  bool degraded = false;
  std::string degraded_reason;  ///< empty when healthy
};

/// Process-wide model-quality monitor. Sampling decisions are lock-free pure
/// hashes; residual/feature recording takes a mutex (the shadow path already
/// paid an analytic re-time, so the lock is noise); compute_state() merges and
/// publishes gauges and is meant for scrape/report cadence, not per net.
class QualityMonitor {
 public:
  QualityMonitor() = default;
  QualityMonitor(const QualityMonitor&) = delete;
  QualityMonitor& operator=(const QualityMonitor&) = delete;

  [[nodiscard]] static QualityMonitor& global();

  /// Arms the monitor (shadow_rate > 0) and resets live sketches, residuals,
  /// counters, and the shadow-cost EWMA. Keeps any installed baseline.
  void configure(const QualityConfig& config);
  [[nodiscard]] QualityConfig config() const;

  /// True when shadowing can fire at all (configured rate > 0).
  [[nodiscard]] bool active() const noexcept {
    return active_.load(std::memory_order_acquire);
  }

  /// Deterministic sampling decision for \p net_name at the configured
  /// shadow_rate: a pure hash of (seed, name) against a threshold, so
  /// the same (seed, rate) selects the same nets for any thread count, call
  /// order, or batch split. False when inactive.
  [[nodiscard]] bool should_shadow(std::string_view net_name) const noexcept;

  /// Installs the training-time feature profile (replacing any previous one)
  /// and clears live feature sketches so PSI compares like with like.
  void install_baseline(FeatureBaseline baseline);
  [[nodiscard]] bool has_baseline() const;

  /// Records one shadowed net's worth of feature rows: \p rows x \p cols
  /// row-major values observed into live sketches [base_index, base_index +
  /// cols). One lock per call, not per value.
  void observe_features(const float* values, std::size_t rows,
                        std::size_t cols, std::size_t base_index);

  /// Records one shadowed sink's model-vs-analytic residuals (seconds).
  /// Relative residuals are |model - ref| / max(|ref|, 1e-15), as a percent.
  void record_residual(bool non_tree, double delay_model, double delay_ref,
                       double slew_model, double slew_ref);

  /// Tallies one shadowed net (nets, not sinks — the sampler's unit).
  void count_shadowed_net() noexcept;

  /// Once per batch from the serving path: \p shadow_seconds self-timed
  /// shadow cost inside a batch that took \p batch_seconds. Updates the cost
  /// EWMA behind gnntrans_quality_shadow_overhead_pct. Measurement only: the
  /// sampling rate stays the configured one.
  void observe_shadow_cost(double shadow_seconds, double batch_seconds) noexcept;

  /// Merges sketches, computes per-feature PSI + residual quantiles, updates
  /// the gnntrans_quality_* gauges, pins new drift crossings into the flight
  /// recorder, and returns the state.
  [[nodiscard]] QualityState compute_state();

  /// Readiness hook: true when the latest computed state (refreshed here)
  /// crosses the PSI or residual bounds; \p reason (optional) explains.
  [[nodiscard]] bool degraded(std::string* reason);

  /// compute_state() rendered as one JSON document (the /quality endpoint).
  [[nodiscard]] std::string state_json();

  /// Lifetime shadowed-net count (for tests and stats lines).
  [[nodiscard]] std::uint64_t shadowed_nets() const noexcept {
    return shadowed_nets_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::mutex mutex_;  ///< guards config_, baseline_, sketches, flags
  QualityConfig config_;
  FeatureBaseline baseline_;
  std::vector<LogSketch> live_features_;
  // Residual sketches of relative percent error, by (quantity, topology).
  LogSketch delay_resid_tree_, delay_resid_nontree_;
  LogSketch slew_resid_tree_, slew_resid_nontree_;
  std::vector<std::uint8_t> psi_alerted_;  ///< per-feature "already pinned"

  std::atomic<bool> active_{false};
  std::atomic<std::uint64_t> shadow_threshold_{0};  ///< shadow_rate as u64
  std::atomic<std::uint64_t> shadow_seed_{1};
  std::atomic<std::uint64_t> shadowed_nets_{0};
  std::atomic<std::uint64_t> shadowed_sinks_{0};
  std::atomic<double> overhead_ewma_pct_{0.0};
};

}  // namespace gnntrans::telemetry
