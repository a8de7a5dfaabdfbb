#include "core/telemetry/stats_reporter.hpp"

#include <cstdio>
#include <vector>

#include "core/telemetry/log.hpp"
#include "core/telemetry/quality.hpp"
#include "core/telemetry/trace.hpp"

namespace gnntrans::telemetry {

namespace {

/// Bucket-wise difference cur - prev (both from the same metric, so bounds
/// always match; a fresh prev with no observations adopts cur's bounds).
HistogramData histogram_delta(const HistogramData& cur,
                              const HistogramData& prev) {
  if (prev.count() == 0 || prev.bounds() != cur.bounds()) return cur;
  HistogramData delta(cur.bounds());
  std::vector<std::uint64_t> counts(cur.bucket_counts());
  for (std::size_t b = 0; b < counts.size(); ++b)
    counts[b] -= prev.bucket_counts()[b];
  delta.adopt(std::move(counts), cur.count() - prev.count(),
              cur.sum() - prev.sum());
  return delta;
}

}  // namespace

StatsReporter::StatsReporter(StatsReporterConfig config)
    : config_(config) {
  if (config_.interval_seconds <= 0.0) config_.interval_seconds = 10.0;
}

StatsReporter::~StatsReporter() { stop(); }

void StatsReporter::start() {
  if (running_.exchange(true, std::memory_order_acq_rel)) return;
  thread_ = std::thread([this] {
    while (true) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait_for(lock,
                     std::chrono::duration<double>(config_.interval_seconds),
                     [this] { return !running_.load(std::memory_order_acquire); });
      }
      if (!running_.load(std::memory_order_acquire)) return;
      tick();
    }
  });
}

void StatsReporter::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // Touch the mutex so the flag flip cannot slip between the waiter's
  // predicate check and its block — without this, stop() could stall for up
  // to one full interval.
  { const std::lock_guard<std::mutex> lock(mutex_); }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void StatsReporter::tick() {
  auto& registry = MetricsRegistry::global();
  const std::uint64_t nets =
      registry.counter("gnntrans_serving_nets_total").value();
  const std::uint64_t fallback =
      registry.counter("gnntrans_serving_fallback_total").value();
  const std::uint64_t failed =
      registry.counter("gnntrans_serving_failed_total").value();
  const std::uint64_t slow =
      registry.counter("gnntrans_serving_slow_nets_total").value();
  const HistogramData latency =
      registry
          .histogram("gnntrans_serving_net_latency_seconds",
                     HistogramData::default_latency_bounds())
          .snapshot();
  const auto now = std::chrono::steady_clock::now();

  std::uint64_t d_nets = nets, d_fallback = fallback, d_failed = failed,
                d_slow = slow;
  double seconds = config_.interval_seconds;
  HistogramData d_latency = latency;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (have_prev_) {
      d_nets = nets - prev_nets_;
      d_fallback = fallback - prev_fallback_;
      d_failed = failed - prev_failed_;
      d_slow = slow - prev_slow_;
      seconds = std::chrono::duration<double>(now - prev_time_).count();
      d_latency = histogram_delta(latency, prev_latency_);
    }
    prev_nets_ = nets;
    prev_fallback_ = fallback;
    prev_failed_ = failed;
    prev_slow_ = slow;
    prev_latency_ = latency;
    prev_time_ = now;
    have_prev_ = true;
  }

  if (d_nets == 0) {
    GNNTRANS_LOG_DEBUG("obs", "serving idle (%llu nets lifetime)",
                       static_cast<unsigned long long>(nets));
  } else {
    const double rate = seconds > 0.0 ? static_cast<double>(d_nets) / seconds
                                      : 0.0;
    const double denominator = static_cast<double>(d_nets);

    // Quality columns, when shadow scoring has data: residual p99 and the
    // worst feature PSI, so one grep of the interval lines shows accuracy
    // drift next to throughput.
    std::string quality_cols;
    if (QualityMonitor& quality = QualityMonitor::global();
        quality.active() && quality.shadowed_nets() > 0) {
      const QualityState qs = quality.compute_state();
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    ", resid-p99 %.1f%%, psi %.3f (%s)", qs.delay_p99_pct,
                    qs.worst_psi,
                    qs.worst_feature.empty() ? "-" : qs.worst_feature.c_str());
      quality_cols = buf;
    }
    GNNTRANS_LOG_INFO(
        "obs",
        "serving last %.1fs: %llu nets (%.0f nets/s), fallback %.2f%%, "
        "failed %.2f%%, slow %llu, p50 %.1f us, p99 %.1f us, trace %s%s",
        seconds, static_cast<unsigned long long>(d_nets), rate,
        100.0 * static_cast<double>(d_fallback) / denominator,
        100.0 * static_cast<double>(d_failed) / denominator,
        static_cast<unsigned long long>(d_slow),
        d_latency.quantile(0.50) * 1e6, d_latency.quantile(0.99) * 1e6,
        TraceRecorder::global().enabled() ? "on" : "off", quality_cols.c_str());
  }
  reports_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace gnntrans::telemetry
