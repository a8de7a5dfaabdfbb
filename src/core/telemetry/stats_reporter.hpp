/// \file stats_reporter.hpp
/// Periodic serving-stats reporter: a background thread that logs snapshot
/// *deltas* of the serving metrics — nets/s, fallback %, p50/p99 over the
/// interval, whether tracing is on — every N seconds, so a
/// long-running predict/sta/train shows a heartbeat in the log stream (and
/// in --log-json) without anyone scraping the HTTP endpoint.
///
/// Percentiles are computed from the *difference* of consecutive latency
/// histogram snapshots, i.e. they describe the interval, not the process
/// lifetime — a latency regression shows up in the next line, not diluted
/// into hours of history.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "core/telemetry/metrics.hpp"

namespace gnntrans::telemetry {

struct StatsReporterConfig {
  double interval_seconds = 10.0;
};

class StatsReporter {
 public:
  explicit StatsReporter(StatsReporterConfig config = {});
  ~StatsReporter();
  StatsReporter(const StatsReporter&) = delete;
  StatsReporter& operator=(const StatsReporter&) = delete;

  /// Spawns the reporting thread (idempotent).
  void start();
  /// Stops and joins (idempotent; also called by the destructor).
  void stop();

  /// Emits one report now, against the previous snapshot. Called by the
  /// thread every interval; public so tests can drive it deterministically.
  void tick();

  [[nodiscard]] std::uint64_t reports_emitted() const noexcept {
    return reports_.load(std::memory_order_relaxed);
  }

 private:
  StatsReporterConfig config_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> reports_{0};
  std::mutex mutex_;                ///< guards prev_* and the cv
  std::condition_variable cv_;
  std::thread thread_;

  // Previous snapshot (delta baseline).
  std::uint64_t prev_nets_ = 0;
  std::uint64_t prev_fallback_ = 0;
  std::uint64_t prev_failed_ = 0;
  std::uint64_t prev_slow_ = 0;
  HistogramData prev_latency_;
  std::chrono::steady_clock::time_point prev_time_;
  bool have_prev_ = false;
};

}  // namespace gnntrans::telemetry
