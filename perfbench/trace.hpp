// Outside-in tracing: spans the benchmark records around calls into the
// layers' public functions, kept in memory and written out as Chrome
// trace-event JSON when the run ends. Nothing is instrumented under src/.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// Span recorder for the benchmark's main thread. A disabled tracer records
/// nothing and its spans cost one branch.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  /// Turns recording on or off between spans (never while one is open), so
  /// a traced run can interleave traced and untraced operations.
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// RAII span: name, start, end, parent (the innermost open span) and the
  /// net / request / edit id it belongs to.
  class Span {
   public:
    Span(Tracer& tracer, const char* name, std::uint64_t id);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tracer_;
    std::size_t index_ = 0;
  };

  /// Records a span whose interval is already known and may overlap others
  /// (an in-flight request); it has no parent.
  void record(const char* name, Clock::time_point start, Clock::time_point end,
              std::uint64_t id);

  struct Totals {
    std::size_t count = 0;
    double total_us = 0.0;  ///< sum of span durations
    double self_us = 0.0;   ///< sum of durations minus their children's
  };
  /// Per span name, over every span recorded.
  [[nodiscard]] std::map<std::string, Totals> totals() const;

  /// Mean duration of the spans named \p name, microseconds (0 if none).
  [[nodiscard]] double mean_us(const std::string& name) const;

  /// Writes {"traceEvents": [...]} with one complete ("X") event per span.
  void write_chrome_json(const std::string& path) const;

 private:
  struct Record {
    const char* name = "";
    double start_us = 0.0;
    double end_us = 0.0;
    std::int64_t parent = -1;
    std::uint64_t id = 0;
  };
  [[nodiscard]] double now_us() const;

  bool enabled_ = false;
  Clock::time_point epoch_;
  std::vector<Record> records_;
  std::vector<std::size_t> open_;
};

/// Per-layer timings of the per-net serving path, measured by replaying
/// \p items (the workload's own inputs) one net at a time through each
/// layer's public entry point, each call inside its own span.
struct LayerProbe {
  double validate_us = 0.0;       ///< RcNet::validate(&hash)
  double analyze_wire_us = 0.0;   ///< sim::analyze_wire
  double extract_self_us = 0.0;   ///< extract_features minus analyze_wire
  double make_sample_us = 0.0;    ///< Standardizer::make_sample
  double forward_us = 0.0;        ///< WireModel::forward, one thread
  double estimate_us = 0.0;       ///< estimate_batch per net at T=1
  double batch_self_us = 0.0;     ///< estimate_us minus the layer calls
  double forward_mflop = 0.0;     ///< GEMM + SpMM flops per forward
  double forward_scaling = 0.0;   ///< nproc-thread forward rate / (nproc x 1)
  double thread_scaling = 0.0;    ///< estimate_batch T=nproc rate / T=1 rate
  double cache_lookup_us = 0.0;   ///< EstimateCache::lookup of a resident key
  double cache_insert_us = 0.0;   ///< EstimateCache::insert of a new key
};

[[nodiscard]] LayerProbe probe_layers(const Fixture& fixture,
                                      std::span<const core::NetBatchItem> items,
                                      Tracer& tracer, Report& report);

/// Reports every per-layer metric the probe yields.
void report_probe(const LayerProbe& probe, Report& report);

/// Reports the workload's arena reuse and degraded-net count.
void report_inference_stats(const core::InferenceStats& stats, Report& report);

/// Prints the per-layer self-time table of \p tracer to stdout.
void print_self_time_table(const std::string& workload, const Tracer& tracer,
                           double trace_overhead_pct);

}  // namespace perfbench
