/// \file estimator.hpp
/// The library's headline deliverable: a trained, serializable wire timing
/// estimator that replaces sign-off wire timing inside STA.
///
/// Usage:
///   auto records = features::generate_wire_records(cfg, library);
///   auto estimator = core::WireTimingEstimator::train(records, options);
///   auto timing = estimator.estimate(net, context);       // per-path ps
///   estimator.save("model.bin");  // later: WireTimingEstimator::load(...)
///
/// Serving: the estimator compiles its model's tape-free inference plan
/// (nn/plan.hpp) once, after train() and after load(). estimate_batch() times
/// many nets per call on a reusable ThreadPool, with one Workspace per worker
/// whose activation slab the plan reuses from net to net. Results are
/// bitwise-identical for any thread count. InferenceStats reports
/// throughput, per-net latency percentiles, and slab high-water marks.
///
/// Fault isolation: each net of a batch succeeds, degrades, or fails on its
/// own — a malformed net, a NaN escaping the forward pass, or an exception on
/// a worker never aborts the call. The degradation ladder is
///   model -> analytic baseline (Elmore/D2M) -> typed failure,
/// and every PathEstimate carries its provenance. Per-net outcomes, per-reason
/// fallback counters, a configurable batch deadline, and a slow-query WARN log
/// make degradations observable; core::FaultInjector drives every error branch
/// deterministically in tests.
///
/// EstimatorWireSource adapts a trained estimator to the STA engine, enabling
/// the paper's Table V flow (gate NLDM + learned wire timing); it implements
/// the batched WireTimingSource::time_nets hook, so full-design STA amortizes
/// inference across every net of a topological level.
#pragma once

#include <array>
#include <iosfwd>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/status.hpp"
#include "core/telemetry/flight_recorder.hpp"
#include "core/telemetry/metrics.hpp"
#include "core/telemetry/quality.hpp"
#include "core/telemetry/stage.hpp"
#include "core/telemetry/trace.hpp"
#include "core/thread_pool.hpp"
#include "core/trainer.hpp"
#include "features/dataset.hpp"
#include "netlist/sta.hpp"
#include "nn/models.hpp"

namespace gnntrans::core {

class EstimateCache;         // core/estimate_cache.hpp
struct EstimateCacheConfig;  // core/estimate_cache.hpp
struct NetEmbedding;         // core/estimate_cache.hpp

/// Which rung of the degradation ladder produced an estimate.
enum class EstimateProvenance : std::uint8_t {
  kModel = 0,             ///< learned model forward pass
  kBaselineFallback = 1,  ///< analytic Elmore/D2M baseline after a model fault
  kFailed = 2,            ///< no estimator applicable; values are zero
  /// Served from the content-addressed estimate cache: the stored bytes of a
  /// prior model pass over identical content, or the model's heads over the
  /// net's stored embedding under a new context. Values are bitwise those of
  /// a full pass; featurization and the layers before the heads are skipped.
  kCached = 3,
};

[[nodiscard]] constexpr const char* to_string(EstimateProvenance p) noexcept {
  switch (p) {
    case EstimateProvenance::kModel: return "model";
    case EstimateProvenance::kBaselineFallback: return "baseline_fallback";
    case EstimateProvenance::kFailed: return "failed";
    case EstimateProvenance::kCached: return "cached";
  }
  return "unknown";
}

/// True when the net was not served by the model's own values: the analytic
/// fallback or a failure. A cache hit carries a prior model pass's bytes, so
/// it is not degraded.
[[nodiscard]] constexpr bool is_degraded(EstimateProvenance p) noexcept {
  return p == EstimateProvenance::kBaselineFallback ||
         p == EstimateProvenance::kFailed;
}

/// Per-path estimate in seconds.
struct PathEstimate {
  rcnet::NodeId sink = 0;
  double slew = 0.0;
  double delay = 0.0;
  EstimateProvenance provenance = EstimateProvenance::kModel;
};

/// Per-net serving outcome (filled when BatchOptions::outcomes is set).
struct NetOutcome {
  EstimateProvenance provenance = EstimateProvenance::kModel;
  /// kOk when the model served the net; otherwise why it degraded/failed.
  ErrorCode error = ErrorCode::kOk;
  std::string message;
  bool slow = false;  ///< exceeded BatchOptions::slow_net_warn_seconds
  /// This net's wall time inside the batch, in seconds. Always filled; the
  /// network server's per-request stage clock reads it as core.estimate.
  double net_seconds = 0.0;
  /// Its per-net stages (telemetry/stage.hpp): extract, make_sample and
  /// forward for a model pass, forward_heads alone for a heads-only pass,
  /// fallback when it degraded; all zero for a stored-bytes cache hit.
  telemetry::StageTimes stages;
};

/// \p outcome as the flight record of net \p net_name: provenance, error,
/// per-net stages, slow/degraded flags and the net's wall time. The one
/// conversion behind estimate_batch's per-net records and NetServer's
/// per-request ones.
[[nodiscard]] telemetry::FlightRecord to_flight_record(
    std::string_view net_name, const NetOutcome& outcome) noexcept;

/// Observability counters for batched inference. Per-net wall latencies are
/// tallied into a telemetry::HistogramData (fixed 1-2-5 buckets, 1 us..1 s);
/// p50/p99 are derived through its quantile API, which is well-defined on
/// empty and single-net batches (0 for empty, never NaN). merge() combines
/// calls exactly: histograms add bucket-wise, so merged percentiles are the
/// percentiles of the pooled sample rather than a conservative bound.
struct InferenceStats {
  std::size_t nets = 0;
  std::size_t paths = 0;
  std::size_t threads = 1;
  double wall_seconds = 0.0;
  double nets_per_second = 0.0;
  double p50_net_seconds = 0.0;  ///< latency.quantile(0.50)
  double p99_net_seconds = 0.0;  ///< latency.quantile(0.99)
  telemetry::HistogramData latency;      ///< per-net wall latency, seconds
  // Per-worker activation slabs (nn::Workspace) of the inference plan; one
  // acquisition per plan forward pass, none on the autograd path.
  std::size_t arena_peak_bytes = 0;      ///< max per-worker slab size
  std::size_t arena_reused_buffers = 0;  ///< passes that reused the slab
  std::size_t arena_fresh_allocs = 0;    ///< passes that grew the slab

  // Degradation ladder counters (nets, not paths). Closed-form identity:
  //   model_nets + fallback_nets + failed_nets + cached_nets == nets.
  std::size_t model_nets = 0;     ///< served by the learned model
  std::size_t fallback_nets = 0;  ///< degraded to the analytic baseline
  std::size_t failed_nets = 0;    ///< no estimate possible (zeroed outputs)
  std::size_t cached_nets = 0;    ///< served from the estimate cache
  std::size_t slow_nets = 0;      ///< exceeded the slow-query latency budget
  /// Non-failed sinks whose slew was raised to the 1e-12 NLDM floor on the
  /// way into STA — a nonzero count means the model emitted a degenerate
  /// (<= 0) slew that the clamp would otherwise have masked silently.
  std::size_t slew_clamped = 0;
  /// Degraded (fallback or failed) nets by ErrorCode index.
  std::array<std::size_t, kErrorCodeCount> degraded_by_reason{};

  /// fallback_nets + failed_nets as a fraction of nets (0 on empty).
  [[nodiscard]] double degraded_fraction() const noexcept {
    return nets == 0 ? 0.0
                     : static_cast<double>(fallback_nets + failed_nets) /
                           static_cast<double>(nets);
  }

  void merge(const InferenceStats& other);
  [[nodiscard]] std::string summary() const;
};

/// One net of a batch, with the context it is timed under. Pointees must
/// outlive the estimate_batch call.
struct NetBatchItem {
  const rcnet::RcNet* net = nullptr;
  const features::NetContext* context = nullptr;
};

/// What to do when the model path fails on a net.
enum class FallbackPolicy : std::uint8_t {
  /// Degrade to the analytic Elmore/D2M baseline (default). Structurally
  /// invalid nets still fail (the analytic pass needs a valid net too).
  kAnalytic = 0,
  /// No degradation: failed nets return zeroed per-sink estimates with
  /// provenance kFailed.
  kNone = 1,
};

/// Serving knobs for estimate_batch.
struct BatchOptions {
  /// Worker count; 1 runs inline on the caller. Ignored when \p pool is set
  /// (the pool's size wins).
  std::size_t threads = 1;
  /// Optional externally owned pool, reused across calls to avoid re-spawning
  /// threads per batch.
  ThreadPool* pool = nullptr;
  /// Optional per-worker workspaces, reused across calls so activation slabs
  /// stay warm between batches (grown to the worker count as needed).
  std::vector<nn::Workspace>* workspaces = nullptr;

  /// Degradation target for nets the model path cannot serve.
  FallbackPolicy fallback = FallbackPolicy::kAnalytic;
  /// Batch latency budget in seconds; nets *started* after the budget is
  /// spent skip the model and degrade directly (ErrorCode::kDeadlineExceeded).
  /// 0 disables the deadline.
  double deadline_seconds = 0.0;
  /// Per-net latency budget in seconds; a net exceeding it is counted in
  /// InferenceStats::slow_nets and WARN-logged with its stage breakdown.
  /// 0 disables the slow-query log.
  double slow_net_warn_seconds = 0.0;
  /// Optional content-addressed estimate cache (caller-owned, must outlive
  /// the call; safe to share across concurrent batches). When set, each
  /// structurally valid net is content-hashed during validation, looked up
  /// before the model path, and model-served results are inserted after it.
  /// Hits return the stored bytes, or run only the heads from the net's
  /// stored embedding, tagged kCached; fallback/failed results are never
  /// cached.
  EstimateCache* cache = nullptr;
  /// When set, resized to the batch and filled with one outcome per net.
  std::vector<NetOutcome>* outcomes = nullptr;
  /// Optional per-item trace contexts (parallel to the batch; size must
  /// match when set). Sampled items get their model work recorded as
  /// request-tagged spans plus a flow step, linking the batch span into each
  /// request's trace lane. Telemetry only — never affects estimates.
  const std::vector<telemetry::TraceContext>* traces = nullptr;
};

/// Thrown by WireTimingEstimator::load on a checkpoint it rejects: a format
/// version this build does not understand (kUnsupportedFormat, e.g. a file
/// written by a newer build), a malformed standardizer block, or a weight of
/// any model kind whose shape does not match the checkpoint's model config
/// (kParseError, naming the tensor). Carries the typed core::Status so callers can branch on
/// the failure class instead of matching exception strings.
class CheckpointError : public std::runtime_error {
 public:
  explicit CheckpointError(Status status)
      : std::runtime_error(status.to_string()), status_(std::move(status)) {}
  [[nodiscard]] const Status& status() const noexcept { return status_; }

 private:
  Status status_;
};

/// A trained model + its standardizer, bundled for deployment.
class WireTimingEstimator {
 public:
  /// Training options.
  struct Options {
    nn::ModelKind kind = nn::ModelKind::kGnnTrans;
    nn::ModelConfig model;  ///< feature dims are filled in automatically
    TrainConfig train;
  };

  /// Fits the standardizer on \p records, instantiates the model, trains it.
  [[nodiscard]] static WireTimingEstimator train(
      const std::vector<features::WireRecord>& records, Options options);

  /// Per-path wire timing for one net (inference only, no golden timer).
  /// Throws std::invalid_argument on a structurally invalid net and
  /// std::runtime_error when the model path fails; batched serving callers
  /// wanting graceful degradation use estimate_batch instead.
  [[nodiscard]] std::vector<PathEstimate> estimate(
      const rcnet::RcNet& net, const features::NetContext& context) const;

  /// Per-path wire timing for a batch of nets; result[i] answers items[i].
  /// Nets are independent, so outputs are bitwise-identical for every thread
  /// count (each net's forward pass is a fixed arithmetic sequence). \p stats,
  /// when non-null, is overwritten with this call's counters.
  ///
  /// Never throws per-net: a net that the model cannot serve (invalid
  /// structure, non-finite activation, worker exception, deadline) degrades
  /// down the ladder set by options.fallback and the call still returns one
  /// entry per item, each path tagged with its provenance.
  [[nodiscard]] std::vector<std::vector<PathEstimate>> estimate_batch(
      std::span<const NetBatchItem> items, const BatchOptions& options = {},
      InferenceStats* stats = nullptr) const;

  /// Scores the estimator on labeled records (seconds-space R^2 / max error).
  [[nodiscard]] Evaluation evaluate(
      const std::vector<features::WireRecord>& records) const;

  /// Checkpoint format: "GNNTRANS_ESTIMATOR" v2 = standardizer + model + the
  /// per-feature quality baseline (telemetry::FeatureBaseline) built at
  /// train() time. load() also accepts v1 files (pre-quality; baseline stays
  /// empty and drift monitoring is simply unavailable) and throws a typed
  /// CheckpointError (ErrorCode::kUnsupportedFormat) on any other version
  /// instead of misparsing the stream. load() compiles the model's inference
  /// plan, which checks every GNNTrans weight's shape first.
  void save(std::ostream& out) const;
  void save_file(const std::string& path) const;
  [[nodiscard]] static WireTimingEstimator load(std::istream& in);
  [[nodiscard]] static WireTimingEstimator load_file(const std::string& path);

  /// Training-time per-input-feature distribution profile (empty when loaded
  /// from a v1 checkpoint). install_quality_baseline() hands a copy to
  /// telemetry::QualityMonitor::global() so serving can compute feature PSI.
  [[nodiscard]] const telemetry::FeatureBaseline& feature_baseline() const noexcept {
    return baseline_;
  }
  void install_quality_baseline() const {
    if (!baseline_.empty())
      telemetry::QualityMonitor::global().install_baseline(baseline_);
  }

  [[nodiscard]] const nn::WireModel& model() const { return *model_; }
  [[nodiscard]] const features::Standardizer& standardizer() const {
    return standardizer_;
  }
  [[nodiscard]] const TrainReport& train_report() const noexcept {
    return train_report_;
  }

 private:
  WireTimingEstimator() = default;

  /// Model path for one *structurally valid* net: feature extraction +
  /// forward + unstandardize, with every failure mode (including injected
  /// ones) converted into a Status instead of escaping. Adds each stage's
  /// time to \p stages when set. With a stored
  /// \p embedding (pooled non-empty) it runs only the heads from it and tags
  /// the result kCached; with an empty one it fills it from the full pass
  /// when the compiled plan serves.
  [[nodiscard]] Expected<std::vector<PathEstimate>> run_model_path(
      const rcnet::RcNet& net, const features::NetContext& context,
      nn::Workspace* workspace, telemetry::StageTimes* stages,
      NetEmbedding* embedding = nullptr) const;

  std::unique_ptr<nn::WireModel> model_;
  features::Standardizer standardizer_;
  TrainReport train_report_;
  telemetry::FeatureBaseline baseline_;  ///< training-time feature profile
};

/// Converts per-path estimates into the SinkTimings run_sta consumes. Paths
/// with kFailed provenance arrive *unsettled* with their raw (zero) values —
/// never a silent zero-delay arrival; STA flags everything downstream of
/// them. Non-failed paths get the 1e-12 slew floor that guards NLDM lookups,
/// and every clamp is tallied into \p clamped (when non-null) so a model
/// emitting degenerate slews is visible instead of silently masked.
[[nodiscard]] std::vector<sim::SinkTiming> to_sink_timings(
    const std::vector<PathEstimate>& estimates,
    std::size_t* clamped = nullptr);

/// Adapts a trained estimator (+ the cell library for load contexts) to the
/// STA engine's WireTimingSource interface. With threads > 1 the batched
/// time_nets entry point fans a level's nets out over a ThreadPool sized once
/// at construction; per-worker workspaces persist across batches, so slabs
/// stay warm for the whole STA run. time_net is a one-request time_nets, so
/// single-net ECO retimes get the same degradation ladder, cache and stats.
/// stats() accumulates over all calls served.
class EstimatorWireSource final : public netlist::WireTimingSource {
 public:
  EstimatorWireSource(const WireTimingEstimator& estimator,
                      const netlist::Design& design,
                      const cell::CellLibrary& library,
                      std::size_t threads = 1);
  ~EstimatorWireSource() override;

  /// Re-points this source at \p design and rebuilds the net-name -> net
  /// lookup behind context_for. ECO flows need this: IncrementalSta owns a
  /// *mutated copy* of the design (rerouted parasitics, spliced buffer nets),
  /// so the source must be rebound to sta.design() after construction and
  /// after every structural edit or new nets fall back to neutral contexts.
  /// \p design must outlive this source (or the next rebind).
  void rebind(const netlist::Design& design);

  /// Attaches an owned content-addressed estimate cache used by every
  /// subsequent time_nets batch. ECO flows get invalidation for free: an
  /// edited net's parasitics hash to a new key, so only genuinely unchanged
  /// cones hit. Replaces any previous cache (dropping its entries).
  void enable_cache(const EstimateCacheConfig& config);

  /// The attached cache, or nullptr when caching is off.
  [[nodiscard]] const EstimateCache* cache() const noexcept {
    return cache_.get();
  }

  /// Degradation/deadline/slow-log knobs applied to every batched call.
  /// The threads/pool/workspaces/outcomes/cache fields of \p options are
  /// managed by this source and ignored (caching is enable_cache's job).
  void set_serving_options(const BatchOptions& options) {
    serving_options_ = options;
  }

  [[nodiscard]] std::vector<sim::SinkTiming> time_net(
      const rcnet::RcNet& net, double input_slew,
      double driver_resistance) override;

  [[nodiscard]] std::vector<std::vector<sim::SinkTiming>> time_nets(
      std::span<const netlist::WireTimingRequest> requests) override;

  /// Cumulative serving counters across every batch this source handled.
  [[nodiscard]] const InferenceStats& stats() const noexcept { return stats_; }

  [[nodiscard]] std::string name() const override {
    return "Estimator(" + estimator_.model().name() + ")";
  }

 private:
  /// Derives the feature context (driver cell, load cells) of \p net.
  [[nodiscard]] features::NetContext context_for(const rcnet::RcNet& net,
                                                 double input_slew,
                                                 double driver_resistance) const;

  const WireTimingEstimator& estimator_;
  const netlist::Design* design_;  ///< re-pointable via rebind()
  const cell::CellLibrary& library_;
  std::unordered_map<std::string, std::size_t> net_by_name_;

  std::unique_ptr<ThreadPool> pool_;        ///< null when single-threaded
  std::vector<nn::Workspace> workspaces_;   ///< per-worker, reused per batch
  std::unique_ptr<EstimateCache> cache_;    ///< set by enable_cache
  BatchOptions serving_options_;            ///< degradation/deadline template
  InferenceStats stats_;
};

}  // namespace gnntrans::core
