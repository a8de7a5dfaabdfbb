#include "core/estimator.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "core/estimate_cache.hpp"
#include "core/fault_injector.hpp"
#include "core/telemetry/telemetry.hpp"
#include "nn/guard.hpp"
#include "sim/wire_analysis.hpp"
#include "tensor/serialize.hpp"

namespace gnntrans::core {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Serving metrics, registered once in the global registry. Handles are
/// lock-free to increment; scrape happens via MetricsRegistry exports.
struct ServingMetrics {
  telemetry::Counter nets = telemetry::MetricsRegistry::global().counter(
      "gnntrans_serving_nets_total", "Nets served by estimate_batch");
  telemetry::Counter paths = telemetry::MetricsRegistry::global().counter(
      "gnntrans_serving_paths_total", "Source-sink paths served");
  telemetry::Histogram net_latency =
      telemetry::MetricsRegistry::global().histogram(
          "gnntrans_serving_net_latency_seconds",
          telemetry::HistogramData::default_latency_bounds(),
          "Per-net inference wall latency");
  telemetry::Histogram batch_latency =
      telemetry::MetricsRegistry::global().histogram(
          "gnntrans_serving_batch_seconds",
          telemetry::HistogramData::default_latency_bounds(),
          "estimate_batch wall time");
  telemetry::Gauge arena_peak = telemetry::MetricsRegistry::global().gauge(
      "gnntrans_serving_arena_peak_bytes",
      "Max per-worker activation-slab size");
  telemetry::Gauge pool_threads = telemetry::MetricsRegistry::global().gauge(
      "gnntrans_serving_pool_threads", "Workers used by the last batch");
  telemetry::Counter fallback_nets = telemetry::MetricsRegistry::global().counter(
      "gnntrans_serving_fallback_total",
      "Nets degraded to the analytic baseline");
  telemetry::Counter failed_nets = telemetry::MetricsRegistry::global().counter(
      "gnntrans_serving_failed_total",
      "Nets that produced no usable estimate (zeroed outputs)");
  telemetry::Counter slow_nets = telemetry::MetricsRegistry::global().counter(
      "gnntrans_serving_slow_nets_total",
      "Nets exceeding the slow-query latency budget");
  telemetry::Counter slew_clamped = telemetry::MetricsRegistry::global().counter(
      "gnntrans_serving_slew_clamped_total",
      "Non-failed sinks whose slew was raised to the NLDM floor for STA");
  /// Degraded nets by failure reason, indexed by ErrorCode.
  std::array<telemetry::Counter, kErrorCodeCount> degraded_reason =
      make_reason_counters();

  static std::array<telemetry::Counter, kErrorCodeCount> make_reason_counters() {
    std::array<telemetry::Counter, kErrorCodeCount> out;
    for (std::size_t c = 0; c < kErrorCodeCount; ++c)
      out[c] = telemetry::MetricsRegistry::global().counter(
          std::string("gnntrans_serving_degraded_") +
              to_string(static_cast<ErrorCode>(c)) + "_total",
          "Nets degraded with this failure reason");
    return out;
  }

  static const ServingMetrics& get() {
    static const ServingMetrics metrics;
    return metrics;
  }
};

/// Per-path Elmore-family estimates from an already-computed moment analysis.
/// Delay is the D2M metric at the sink (exact-moment based, defined on
/// non-tree nets); slew combines the input slew with the impulse-response
/// spread sqrt(2*m2 - m1^2) scaled by ln(9) (the 20/80 width of a one-pole
/// response), the classical two-moment slew metric. Shared by the degradation
/// ladder's fallback rung and the shadow scorer's reference re-time.
std::vector<PathEstimate> analytic_estimates(const sim::WireAnalysis& analysis,
                                             const features::NetContext& context) {
  constexpr double kLn9 = 2.1972245773362196;  // ln(9): 20/80 of one pole
  std::vector<PathEstimate> out;
  out.reserve(analysis.paths.size());
  for (const rcnet::WirePath& path : analysis.paths) {
    const rcnet::NodeId sink = path.sink;
    const double m1 = analysis.moments.m1[sink];
    const double m2 = analysis.moments.m2[sink];
    const double spread = std::sqrt(std::max(0.0, 2.0 * m2 - m1 * m1));
    PathEstimate pe;
    pe.sink = sink;
    pe.delay = std::max(0.0, analysis.d2m[sink]);
    pe.slew = std::sqrt(context.input_slew * context.input_slew +
                        kLn9 * kLn9 * spread * spread);
    pe.provenance = EstimateProvenance::kBaselineFallback;
    out.push_back(pe);
  }
  return out;
}

/// Analytic degradation target: runs the moment engine on \p net and derives
/// the Elmore/D2M estimates. Precondition: net.validate() is empty.
std::vector<PathEstimate> analytic_fallback(const rcnet::RcNet& net,
                                            const features::NetContext& context) {
  return analytic_estimates(sim::analyze_wire(net), context);
}

/// Shadow scorer: re-featurizes \p net from scratch (live feature sketches
/// must see exactly the serving featurization, and the separate extraction
/// keeps the served results bitwise-untouched), re-times it analytically from
/// the same moment analysis, and records per-sink model-vs-analytic residuals.
/// Never throws — a shadow failure must not affect serving.
void shadow_score(const rcnet::RcNet& net, const features::NetContext& context,
                  const std::vector<PathEstimate>& served) noexcept {
  try {
    telemetry::QualityMonitor& monitor = telemetry::QualityMonitor::global();
    const features::RawFeatures raw = features::extract_features(net, context);
    monitor.observe_features(raw.x.data(),
                             raw.x.size() / features::kNodeFeatureCount,
                             features::kNodeFeatureCount,
                             features::kQualityNodeFeatureBase);
    monitor.observe_features(raw.h.data(),
                             raw.h.size() / features::kPathFeatureCount,
                             features::kPathFeatureCount,
                             features::kQualityPathFeatureBase);
    const std::vector<PathEstimate> reference =
        analytic_estimates(raw.analysis, context);
    if (reference.size() != served.size()) return;  // topology raced an edit
    const bool non_tree = !net.is_tree();
    for (std::size_t q = 0; q < served.size(); ++q) {
      monitor.record_residual(non_tree, served[q].delay, reference[q].delay,
                              served[q].slew, reference[q].slew);
    }
    monitor.count_shadowed_net();
  } catch (...) {
    // Swallow: shadow scoring is advisory; the served estimates already left.
  }
}

/// Ladder bottom: one zeroed estimate per sink so callers still get a full
/// result vector (sinks in net order, like the model path).
std::vector<PathEstimate> failed_estimates(const rcnet::RcNet& net) {
  std::vector<PathEstimate> out;
  out.reserve(net.sinks.size());
  for (const rcnet::NodeId sink : net.sinks) {
    PathEstimate pe;
    pe.sink = sink;
    pe.provenance = EstimateProvenance::kFailed;
    out.push_back(pe);
  }
  return out;
}

std::string human_bytes(std::size_t bytes) {
  char buf[32];
  if (bytes >= 1024 * 1024)
    std::snprintf(buf, sizeof(buf), "%.1f MiB",
                  static_cast<double>(bytes) / (1024.0 * 1024.0));
  else
    std::snprintf(buf, sizeof(buf), "%.1f KiB",
                  static_cast<double>(bytes) / 1024.0);
  return buf;
}

}  // namespace

telemetry::FlightRecord to_flight_record(std::string_view net_name,
                                         const NetOutcome& outcome) noexcept {
  telemetry::FlightRecord fr;
  fr.set_net(net_name);
  fr.set_outcome(to_string(outcome.provenance));
  if (outcome.error != ErrorCode::kOk) fr.set_error(to_string(outcome.error));
  fr.set_stages(outcome.stages);
  fr.total_us = static_cast<float>(outcome.net_seconds * 1e6);
  fr.slow = outcome.slow ? 1 : 0;
  fr.degraded = is_degraded(outcome.provenance) ? 1 : 0;
  return fr;
}

void InferenceStats::merge(const InferenceStats& other) {
  nets += other.nets;
  paths += other.paths;
  threads = std::max(threads, other.threads);
  wall_seconds += other.wall_seconds;
  nets_per_second =
      wall_seconds > 0.0 ? static_cast<double>(nets) / wall_seconds : 0.0;
  latency.merge(other.latency);
  p50_net_seconds = latency.quantile(0.50);
  p99_net_seconds = latency.quantile(0.99);
  arena_peak_bytes = std::max(arena_peak_bytes, other.arena_peak_bytes);
  arena_reused_buffers += other.arena_reused_buffers;
  arena_fresh_allocs += other.arena_fresh_allocs;
  model_nets += other.model_nets;
  fallback_nets += other.fallback_nets;
  failed_nets += other.failed_nets;
  cached_nets += other.cached_nets;
  slow_nets += other.slow_nets;
  slew_clamped += other.slew_clamped;
  for (std::size_t c = 0; c < kErrorCodeCount; ++c)
    degraded_by_reason[c] += other.degraded_by_reason[c];
}

std::string InferenceStats::summary() const {
  const std::size_t acquisitions = arena_reused_buffers + arena_fresh_allocs;
  const double reuse_pct =
      acquisitions > 0
          ? 100.0 * static_cast<double>(arena_reused_buffers) /
                static_cast<double>(acquisitions)
          : 0.0;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%zu nets (%zu paths) in %.3f s — %.0f nets/s on %zu "
                "thread%s; per-net p50 %.1f us, p99 %.1f us; slab peak %s, "
                "%.1f%% slab reuse",
                nets, paths, wall_seconds, nets_per_second, threads,
                threads == 1 ? "" : "s", p50_net_seconds * 1e6,
                p99_net_seconds * 1e6, human_bytes(arena_peak_bytes).c_str(),
                reuse_pct);
  std::string out = buf;
  if (fallback_nets + failed_nets + slow_nets > 0) {
    std::snprintf(buf, sizeof(buf),
                  "; degraded %zu (%.2f%%: %zu baseline, %zu failed), %zu slow",
                  fallback_nets + failed_nets, 100.0 * degraded_fraction(),
                  fallback_nets, failed_nets, slow_nets);
    out += buf;
    bool first = true;
    for (std::size_t c = 0; c < kErrorCodeCount; ++c) {
      if (degraded_by_reason[c] == 0) continue;
      std::snprintf(buf, sizeof(buf), "%s%s=%zu", first ? " [" : ", ",
                    to_string(static_cast<ErrorCode>(c)),
                    degraded_by_reason[c]);
      out += buf;
      first = false;
    }
    if (!first) out += "]";
  }
  if (cached_nets > 0) {
    std::snprintf(buf, sizeof(buf), "; %zu cached", cached_nets);
    out += buf;
  }
  if (slew_clamped > 0) {
    std::snprintf(buf, sizeof(buf), "; %zu slew clamp%s", slew_clamped,
                  slew_clamped == 1 ? "" : "s");
    out += buf;
  }
  return out;
}

WireTimingEstimator WireTimingEstimator::train(
    const std::vector<features::WireRecord>& records, Options options) {
  if (records.empty())
    throw std::invalid_argument("WireTimingEstimator::train: no records");

  WireTimingEstimator est;
  est.standardizer_.fit(records);

  options.model.node_feature_dim = features::kNodeFeatureCount;
  options.model.path_feature_dim = features::kPathFeatureCount;
  est.model_ = nn::make_model(options.kind, options.model);

  const std::vector<nn::GraphSample> samples =
      features::make_samples(records, est.standardizer_);
  est.train_report_ = train_model(*est.model_, samples, options.train);
  est.model_->compile_inference();

  // Quality baseline: the training distribution of every raw input feature,
  // sketched per column. Serving compares its live sketches against these to
  // compute per-feature PSI (telemetry::QualityMonitor), so the profile must
  // be built over exactly the featurization serving re-runs.
  est.baseline_.names = features::quality_feature_names();
  est.baseline_.sketches.assign(est.baseline_.names.size(),
                                telemetry::LogSketch());
  for (const features::WireRecord& rec : records) {
    const std::vector<float>& x = rec.raw.x;
    for (std::size_t r = 0; r * features::kNodeFeatureCount < x.size(); ++r)
      for (std::size_t c = 0; c < features::kNodeFeatureCount; ++c)
        est.baseline_.sketches[features::kQualityNodeFeatureBase + c].observe(
            static_cast<double>(x[r * features::kNodeFeatureCount + c]));
    const std::vector<float>& h = rec.raw.h;
    for (std::size_t r = 0; r * features::kPathFeatureCount < h.size(); ++r)
      for (std::size_t c = 0; c < features::kPathFeatureCount; ++c)
        est.baseline_.sketches[features::kQualityPathFeatureBase + c].observe(
            static_cast<double>(h[r * features::kPathFeatureCount + c]));
  }
  return est;
}

Expected<std::vector<PathEstimate>> WireTimingEstimator::run_model_path(
    const rcnet::RcNet& net, const features::NetContext& context,
    nn::Workspace* workspace, telemetry::StageTimes* stages,
    NetEmbedding* embedding) const {
  using telemetry::Stage;
  tensor::NoGradGuard no_grad;
  FaultInjector& inject = FaultInjector::global();
  // A stored embedding leaves only the heads to run: no featurization, no
  // Sage or attention layers.
  const bool reuse = embedding && !embedding->pooled.empty();
  telemetry::StageClock clock(stages);

  // Any exception in path enumeration / feature extraction is a per-net
  // failure, not a batch abort.
  features::RawFeatures raw;
  if (!reuse) {
    const telemetry::TraceSpan span(telemetry::stage_name(Stage::kExtract),
                                    "serving");
    try {
      if (inject.armed() && inject.should_fail(FaultSite::kFeaturize, net.name))
        throw std::runtime_error("injected featurization fault");
      raw = features::extract_features(net, context);
    } catch (const std::invalid_argument& e) {
      // Caller contract violation, not a path-extraction fault. (The
      // loads/sinks misalignment case is pre-gated by estimate_batch with a
      // typed kInvalidArgument; this catch covers the single-net estimate()
      // entry and any future preconditions extract_features grows.)
      clock.lap(Stage::kExtract);
      return Status(ErrorCode::kInvalidNet, net.name + ": " + e.what());
    } catch (const std::exception& e) {
      clock.lap(Stage::kExtract);
      return Status(ErrorCode::kPathExtractionFailed,
                    net.name + ": " + e.what());
    }
    clock.lap(Stage::kExtract);
    if (raw.analysis.paths.size() != net.sinks.size())
      return Status(ErrorCode::kPathExtractionFailed,
                    net.name + ": enumerated " +
                        std::to_string(raw.analysis.paths.size()) +
                        " paths for " + std::to_string(net.sinks.size()) +
                        " sinks");
  }

  // The same fault sites, in the same order, for a full and a heads-only
  // pass. A heads-only pass charges its path-feature rows to its own stage.
  Stage running = reuse ? Stage::kForwardHeads : Stage::kMakeSample;
  nn::WirePrediction pred;
  try {
    nn::GraphSample sample;
    tensor::Tensor h;
    if (reuse) {
      h = standardizer_.standardize_path_features(
          features::path_features(context, embedding->net_columns));
    } else {
      sample = standardizer_.make_sample(net, raw);
      clock.lap(Stage::kMakeSample);
      running = Stage::kForward;
    }
    const telemetry::TraceSpan forward_span(telemetry::stage_name(running),
                                            "serving");
    if (inject.armed() && inject.should_fail(FaultSite::kForward, net.name))
      throw std::runtime_error("injected forward fault");
    pred = reuse ? model_->forward_heads(embedding->pooled, h, workspace)
                 : model_->forward(sample, workspace,
                                   embedding ? &embedding->pooled : nullptr);
    if (inject.armed() && inject.should_fail(FaultSite::kNonFinite, net.name))
      throw nn::NonFiniteActivationError("injected", 0, 0);
  } catch (const nn::NonFiniteActivationError& e) {
    clock.lap(running);
    return Status(ErrorCode::kNonFiniteActivation, net.name + ": " + e.what());
  } catch (const std::exception& e) {
    clock.lap(running);
    return Status(ErrorCode::kInternal, net.name + ": " + e.what());
  }
  clock.lap(running);

  const std::size_t p = net.sinks.size();
  if (embedding && !reuse && !embedding->pooled.empty()) {
    // The net's own raw path columns go with its embedding.
    embedding->net_columns.resize(p * features::kNetPathFeatureCount);
    for (std::size_t q = 0; q < p; ++q)
      std::copy_n(raw.h.data() + q * features::kPathFeatureCount +
                      features::kNetPathFeatureBase,
                  features::kNetPathFeatureCount,
                  embedding->net_columns.data() +
                      q * features::kNetPathFeatureCount);
  }
  std::vector<PathEstimate> out(p);
  for (std::size_t q = 0; q < p; ++q) {
    out[q].sink = net.sinks[q];  // paths follow net.sinks
    out[q].slew = standardizer_.unstandardize_slew(pred.slew(q, 0));
    out[q].delay = standardizer_.unstandardize_delay(pred.delay(q, 0));
    out[q].provenance =
        reuse ? EstimateProvenance::kCached : EstimateProvenance::kModel;
  }
  return out;
}

std::vector<PathEstimate> WireTimingEstimator::estimate(
    const rcnet::RcNet& net, const features::NetContext& context) const {
  if (const auto errors = net.validate(); !errors.empty())
    throw std::invalid_argument("estimate: invalid net '" + net.name +
                                "': " + errors.front());
  auto result = run_model_path(net, context, nullptr, nullptr);
  if (!result) {
    if (result.status().code() == ErrorCode::kInvalidNet)
      throw std::invalid_argument("estimate: " + result.status().to_string());
    throw std::runtime_error("estimate: " + result.status().to_string());
  }
  return std::move(*result);
}

std::vector<std::vector<PathEstimate>> WireTimingEstimator::estimate_batch(
    std::span<const NetBatchItem> items, const BatchOptions& options,
    InferenceStats* stats) const {
  const telemetry::TraceSpan batch_span("estimate_batch", "serving");
  const auto start = Clock::now();
  std::vector<std::vector<PathEstimate>> results(items.size());
  std::vector<double> latency(items.size(), 0.0);
  std::vector<double> shadow_secs(items.size(), 0.0);

  ThreadPool* pool = options.pool;
  std::unique_ptr<ThreadPool> owned_pool;
  std::size_t threads = std::max<std::size_t>(1, options.threads);
  if (pool) {
    threads = pool->size();
  } else if (threads > 1) {
    owned_pool = std::make_unique<ThreadPool>(threads);
    pool = owned_pool.get();
  }

  std::vector<nn::Workspace> local_workspaces;
  std::vector<nn::Workspace>& workspaces =
      options.workspaces ? *options.workspaces : local_workspaces;
  if (workspaces.size() < threads) workspaces.resize(threads);

  // Snapshot slab counters so stats report this call's deltas even when the
  // caller reuses workspaces across batches.
  std::vector<nn::Workspace::Stats> before(threads);
  for (std::size_t w = 0; w < threads; ++w) before[w] = workspaces[w].stats();

  std::vector<NetOutcome> outcomes(items.size());

  const auto run_one = [&](std::size_t i, std::size_t worker) {
    const auto t0 = Clock::now();
    const rcnet::RcNet& net = *items[i].net;
    const features::NetContext& context = *items[i].context;
    NetOutcome& outcome = outcomes[i];
    FaultInjector& inject = FaultInjector::global();

    // Head-sampled requests get their model work recorded as a span tagged
    // with the trace_id (bypassing the 1-in-N span sampler) plus a flow step
    // linking the batch span into the request's cross-thread lane.
    const telemetry::TraceContext trace =
        options.traces && i < options.traces->size()
            ? (*options.traces)[i]
            : telemetry::TraceContext{};
    const telemetry::TraceSpan net_span("net_model", "request", trace);
    if (net_span.active())
      telemetry::TraceRecorder::global().record_flow(
          telemetry::TracePhase::kFlowStep, "batch_model", "request",
          trace.trace_id);

    // Structural validity decides fallback eligibility below: the analytic
    // baseline needs a well-formed net just like the model does, so an
    // *injected* validation fault on a valid net still degrades gracefully.
    // With a cache attached, the net's content hash rides this same scan —
    // hashing adds no extra traversal.
    std::uint64_t net_hash = 0;
    const std::vector<std::string> errors =
        net.validate(options.cache ? &net_hash : nullptr);
    const bool structurally_valid = errors.empty();
    // Caller-contract gate: loads must align one-to-one with net.sinks
    // (features.hpp documents it; historically it was never checked here and
    // a misaligned context slid into featurization). Rejected *before* the
    // cache key is formed — a misaligned context content-addresses nothing —
    // and before featurization, with no analytic fallback: timing the net
    // under a wrong context would be a confidently wrong answer.
    const bool context_valid = context.loads.size() == net.sinks.size();

    // Degradation ladder: the first rung that drops records why. Fault sites
    // are consulted in ladder order with short-circuiting, so a degraded net
    // consumes exactly one injection trigger (counter exactness in tests).
    Status failure;
    if ((options.deadline_seconds > 0.0 &&
         seconds_since(start) > options.deadline_seconds) ||
        (inject.armed() &&
         inject.should_fail(FaultSite::kDeadline, net.name))) {
      failure = Status(ErrorCode::kDeadlineExceeded,
                       net.name + ": started past the batch deadline");
    } else if (!structurally_valid) {
      failure = Status(ErrorCode::kInvalidNet, net.name + ": " + errors.front());
    } else if (!context_valid) {
      failure = Status(ErrorCode::kInvalidArgument,
                       net.name + ": context.loads has " +
                           std::to_string(context.loads.size()) +
                           " entries for " +
                           std::to_string(net.sinks.size()) + " sinks");
    } else if (inject.armed() &&
               inject.should_fail(FaultSite::kValidate, net.name)) {
      failure = Status(ErrorCode::kInvalidNet,
                       net.name + ": injected validation fault");
    }

    // Net-first lookup before the model path (estimate_cache.hpp): an exact
    // hit returns the stored bytes of a prior model pass (tagged kCached), a
    // stored embedding leaves only the heads to run, and a net stored under
    // another context hands this pass's embedding to the cache. Only formed
    // after every gate above, so invalid/deadline nets never touch the cache.
    CacheLookup found = CacheLookup::kMiss;
    CacheKey cache_key;
    NetEmbedding embedding;
    if (failure.ok() && options.cache) {
      cache_key =
          EstimateCache::make_key(net_hash, features::content_hash(context));
      found = options.cache->lookup(cache_key, &results[i], &embedding);
      if (found == CacheLookup::kHit)
        outcome.provenance = EstimateProvenance::kCached;
    }

    if (failure.ok() && found != CacheLookup::kHit) {
      auto model_result = run_model_path(
          net, context, &workspaces[worker], &outcome.stages,
          found == CacheLookup::kMiss ? nullptr : &embedding);
      if (model_result) {
        results[i] = std::move(*model_result);
        outcome.provenance = found == CacheLookup::kEmbedding
                                 ? EstimateProvenance::kCached
                                 : EstimateProvenance::kModel;
        // Memoize only model results: a fallback or failure must re-run the
        // ladder next time (the fault may be transient), and caching it
        // would freeze a degraded answer for content the model can serve.
        // A heads-only result keeps the stored embedding.
        if (options.cache)
          options.cache->insert(cache_key, results[i],
                                found == CacheLookup::kEmbedding
                                    ? NetEmbedding{}
                                    : std::move(embedding));
      } else {
        failure = model_result.status();
      }
    }

    if (!failure.ok()) {
      outcome.error = failure.code();
      outcome.message = failure.message();
      bool fell_back = false;
      if (options.fallback == FallbackPolicy::kAnalytic && structurally_valid &&
          context_valid) {
        telemetry::StageClock clock(&outcome.stages);
        try {
          results[i] = analytic_fallback(net, context);
          fell_back = true;
        } catch (const std::exception& e) {
          outcome.message += "; fallback: ";
          outcome.message += e.what();
        }
        clock.lap(telemetry::Stage::kFallback);
      }
      if (!fell_back) results[i] = failed_estimates(net);
      outcome.provenance = fell_back ? EstimateProvenance::kBaselineFallback
                                     : EstimateProvenance::kFailed;
    }

    latency[i] = seconds_since(t0);
    outcome.net_seconds = latency[i];

    // Shadow scoring: deterministic pure-hash sample of model-served nets,
    // re-timed against the analytic baseline. Runs after latency[i] is taken
    // so serving latency metrics exclude the shadow's own cost; self-times
    // into shadow_secs for the batch-level shadow-cost EWMA.
    telemetry::QualityMonitor& quality = telemetry::QualityMonitor::global();
    if (outcome.provenance == EstimateProvenance::kModel && quality.active() &&
        quality.should_shadow(net.name)) {
      const auto s0 = Clock::now();
      shadow_score(net, context, results[i]);
      shadow_secs[i] = seconds_since(s0);
    }

    if (options.slow_net_warn_seconds > 0.0 &&
        latency[i] > options.slow_net_warn_seconds) {
      outcome.slow = true;
      std::string breakdown;
      for (std::size_t s = 0; s < telemetry::kNetStageCount; ++s) {
        if (!(outcome.stages.seconds[s] > 0.0)) continue;
        char part[64];
        std::snprintf(part, sizeof(part), "%s%s %.1f us",
                      breakdown.empty() ? "" : ", ", telemetry::kStageNames[s],
                      outcome.stages.seconds[s] * 1e6);
        breakdown += part;
      }
      GNNTRANS_LOG_WARN("serving",
                        "slow net '%s': %.1f us total (budget %.1f us) — %s "
                        "[%s]",
                        net.name.c_str(), latency[i] * 1e6,
                        options.slow_net_warn_seconds * 1e6, breakdown.c_str(),
                        to_string(outcome.provenance));
    }

    telemetry::FlightRecorder& flight = telemetry::FlightRecorder::global();
    if (flight.enabled()) {
      telemetry::FlightRecord fr = to_flight_record(net.name, outcome);
      fr.trace_id = trace.trace_id;
      fr.batch_size = static_cast<std::uint32_t>(items.size());
      fr.arena_peak_bytes = static_cast<std::uint32_t>(std::min<std::size_t>(
          workspaces[worker].stats().peak_bytes, UINT32_MAX));
      flight.record(fr);
    }
  };
  if (threads == 1) {
    for (std::size_t i = 0; i < items.size(); ++i) run_one(i, 0);
  } else {
    pool->parallel_for(items.size(), run_one);
  }

  // Ladder tallies (single-threaded epilogue; outcomes are per-net slots).
  // Identity preserved with the cache on: every net lands in exactly one of
  // model/fallback/failed/cached, so the four always sum to the batch size.
  std::size_t model_nets = 0, fallback_nets = 0, failed_nets = 0,
              cached_nets = 0, slow_nets = 0;
  std::array<std::size_t, kErrorCodeCount> degraded_by_reason{};
  for (const NetOutcome& o : outcomes) {
    switch (o.provenance) {
      case EstimateProvenance::kModel: ++model_nets; break;
      case EstimateProvenance::kBaselineFallback: ++fallback_nets; break;
      case EstimateProvenance::kFailed: ++failed_nets; break;
      case EstimateProvenance::kCached: ++cached_nets; break;
    }
    if (is_degraded(o.provenance))
      ++degraded_by_reason[static_cast<std::size_t>(o.error)];
    if (o.slow) ++slow_nets;
  }

  const double wall = seconds_since(start);
  std::size_t total_paths = 0;
  for (const auto& r : results) total_paths += r.size();
  std::size_t peak_bytes = 0;
  for (std::size_t w = 0; w < threads; ++w)
    peak_bytes = std::max(peak_bytes, workspaces[w].stats().peak_bytes);

  // Publish to the process-global registry regardless of whether the caller
  // asked for per-call stats — dashboards see every batch.
  const ServingMetrics& metrics = ServingMetrics::get();
  metrics.nets.inc(items.size());
  metrics.paths.inc(total_paths);
  for (const double s : latency) metrics.net_latency.observe(s);
  metrics.batch_latency.observe(wall);
  metrics.arena_peak.set_max(static_cast<double>(peak_bytes));
  metrics.pool_threads.set(static_cast<double>(threads));
  if (fallback_nets > 0) metrics.fallback_nets.inc(fallback_nets);
  if (failed_nets > 0) metrics.failed_nets.inc(failed_nets);
  if (slow_nets > 0) metrics.slow_nets.inc(slow_nets);
  for (std::size_t c = 0; c < kErrorCodeCount; ++c)
    if (degraded_by_reason[c] > 0)
      metrics.degraded_reason[c].inc(degraded_by_reason[c]);

  // The summed self-timed shadow cost of this batch feeds the shadow
  // overhead EWMA; it is measured only, never acted on.
  {
    telemetry::QualityMonitor& quality = telemetry::QualityMonitor::global();
    if (quality.active() && !items.empty() && wall > 0.0) {
      double shadow_total = 0.0;
      for (const double s : shadow_secs) shadow_total += s;
      quality.observe_shadow_cost(shadow_total, wall);
    }
  }

  if (stats) {
    *stats = InferenceStats{};
    stats->nets = items.size();
    stats->paths = total_paths;
    stats->threads = threads;
    stats->wall_seconds = wall;
    stats->nets_per_second =
        stats->wall_seconds > 0.0
            ? static_cast<double>(stats->nets) / stats->wall_seconds
            : 0.0;
    for (const double s : latency) stats->latency.observe(s);
    stats->p50_net_seconds = stats->latency.quantile(0.50);
    stats->p99_net_seconds = stats->latency.quantile(0.99);
    stats->arena_peak_bytes = peak_bytes;
    for (std::size_t w = 0; w < threads; ++w) {
      const nn::Workspace::Stats& after = workspaces[w].stats();
      stats->arena_reused_buffers += after.reused - before[w].reused;
      stats->arena_fresh_allocs += after.grown - before[w].grown;
    }
    stats->model_nets = model_nets;
    stats->fallback_nets = fallback_nets;
    stats->failed_nets = failed_nets;
    stats->cached_nets = cached_nets;
    stats->slow_nets = slow_nets;
    stats->degraded_by_reason = degraded_by_reason;
  }
  if (options.outcomes) *options.outcomes = std::move(outcomes);
  return results;
}

Evaluation WireTimingEstimator::evaluate(
    const std::vector<features::WireRecord>& records) const {
  const std::vector<nn::GraphSample> samples =
      features::make_samples(records, standardizer_);
  return evaluate_model(
      *model_, samples,
      [this](double z) { return standardizer_.unstandardize_slew(z); },
      [this](double z) { return standardizer_.unstandardize_delay(z); });
}

void WireTimingEstimator::save(std::ostream& out) const {
  // v2 = v1 (standardizer + model) with the quality baseline appended; the
  // loader still accepts v1 files (no drift profile).
  tensor::write_header(out, "GNNTRANS_ESTIMATOR", 2);
  standardizer_.save(out);
  nn::save_model(out, *model_);
  baseline_.save(out);
}

void WireTimingEstimator::save_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open for write: " + path);
  save(out);
}

WireTimingEstimator WireTimingEstimator::load(std::istream& in) {
  const std::uint32_t version = tensor::read_header(in, "GNNTRANS_ESTIMATOR");
  if (version != 1 && version != 2) {
    throw CheckpointError(
        Status(ErrorCode::kUnsupportedFormat,
               "estimator checkpoint version " + std::to_string(version) +
                   " (this build reads v1 and v2)"));
  }
  WireTimingEstimator est;
  if (Status status = est.standardizer_.load(in); !status.ok())
    throw CheckpointError(std::move(status));
  est.model_ = nn::load_model(in);
  try {
    est.model_->compile_inference();
  } catch (const std::invalid_argument& e) {
    throw CheckpointError(Status(ErrorCode::kParseError, e.what()));
  }
  if (version >= 2) est.baseline_.load(in);  // v1: no drift profile
  return est;
}

WireTimingEstimator WireTimingEstimator::load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open for read: " + path);
  return load(in);
}

EstimatorWireSource::EstimatorWireSource(const WireTimingEstimator& estimator,
                                         const netlist::Design& design,
                                         const cell::CellLibrary& library,
                                         std::size_t threads)
    : estimator_(estimator),
      design_(&design),
      library_(library),
      pool_(threads > 1 ? std::make_unique<ThreadPool>(threads) : nullptr) {
  rebind(design);
}

void EstimatorWireSource::rebind(const netlist::Design& design) {
  design_ = &design;
  net_by_name_.clear();
  net_by_name_.reserve(design.nets.size());
  for (std::size_t i = 0; i < design.nets.size(); ++i)
    net_by_name_.emplace(design.nets[i].rc.name, i);
}

EstimatorWireSource::~EstimatorWireSource() = default;

void EstimatorWireSource::enable_cache(const EstimateCacheConfig& config) {
  cache_ = std::make_unique<EstimateCache>(config);
}

features::NetContext EstimatorWireSource::context_for(
    const rcnet::RcNet& net, double input_slew,
    double driver_resistance) const {
  features::NetContext ctx;
  ctx.input_slew = input_slew;
  ctx.driver_resistance = driver_resistance;

  const auto it = net_by_name_.find(net.name);
  if (it != net_by_name_.end()) {
    const netlist::DesignNet& dnet = design_->nets[it->second];
    const cell::Cell& driver =
        library_.at(design_->instances[dnet.driver].cell_index);
    ctx.driver_strength = driver.drive_strength;
    ctx.driver_function = static_cast<std::uint32_t>(driver.function);
    for (netlist::InstanceId load : dnet.loads) {
      const cell::Cell& lc = library_.at(design_->instances[load].cell_index);
      ctx.loads.push_back({lc.drive_strength,
                           static_cast<std::uint32_t>(lc.function),
                           lc.input_cap});
    }
  } else {
    // Unknown net (standalone use): neutral load context.
    ctx.loads.assign(net.sinks.size(), features::SinkLoad{});
  }
  return ctx;
}

std::vector<sim::SinkTiming> to_sink_timings(
    const std::vector<PathEstimate>& estimates, std::size_t* clamped) {
  constexpr double kSlewFloor = 1e-12;  // guards downstream NLDM lookups
  std::vector<sim::SinkTiming> out;
  out.reserve(estimates.size());
  for (const PathEstimate& pe : estimates) {
    sim::SinkTiming st;
    st.sink = pe.sink;
    st.delay = pe.delay;
    st.slew = pe.slew;
    // A failed path carries no estimate: hand its zeros to STA *unsettled*
    // so arrivals downstream are flagged, and leave the values unclamped —
    // clamping would dress a failure up as a plausible timing.
    st.settled = pe.provenance != EstimateProvenance::kFailed;
    if (st.settled && st.slew < kSlewFloor) {
      st.slew = kSlewFloor;
      if (clamped) ++*clamped;  // degenerate model slews are counted, not hidden
    }
    out.push_back(st);
  }
  return out;
}

std::vector<sim::SinkTiming> EstimatorWireSource::time_net(
    const rcnet::RcNet& net, double input_slew, double driver_resistance) {
  const netlist::WireTimingRequest request{&net, input_slew, driver_resistance};
  return std::move(time_nets({&request, 1}).front());
}

std::vector<std::vector<sim::SinkTiming>> EstimatorWireSource::time_nets(
    std::span<const netlist::WireTimingRequest> requests) {
  std::vector<features::NetContext> contexts;
  contexts.reserve(requests.size());
  std::vector<NetBatchItem> items;
  items.reserve(requests.size());
  for (const netlist::WireTimingRequest& r : requests) {
    contexts.push_back(
        context_for(*r.net, r.input_slew, r.driver_resistance));
    items.push_back({r.net, &contexts.back()});
  }

  BatchOptions options = serving_options_;  // degradation/deadline/slow-log
  options.threads = 1;
  options.pool = pool_.get();  // null: inline on this thread
  options.workspaces = &workspaces_;
  options.cache = cache_.get();  // content-addressed memo (enable_cache)
  std::vector<NetOutcome> outcomes;
  options.outcomes = &outcomes;

  InferenceStats batch_stats;
  const std::vector<std::vector<PathEstimate>> estimates =
      estimator_.estimate_batch(items, options, &batch_stats);

  std::vector<std::vector<sim::SinkTiming>> out;
  out.reserve(estimates.size());
  std::size_t clamped = 0;
  for (std::size_t i = 0; i < estimates.size(); ++i) {
    // A net that fell off the whole degradation ladder must never feed a
    // silent delay=0/settled arrival into STA: its sinks go in unsettled and
    // the failure is WARN-logged with the ladder's reason.
    if (i < outcomes.size() &&
        outcomes[i].provenance == EstimateProvenance::kFailed)
      GNNTRANS_LOG_WARN(
          "sta", "net '%s' failed wire timing (%s: %s); sinks handed to STA "
          "unsettled",
          requests[i].net->name.c_str(), to_string(outcomes[i].error),
          outcomes[i].message.c_str());
    out.push_back(to_sink_timings(estimates[i], &clamped));
  }
  if (clamped > 0) {
    batch_stats.slew_clamped = clamped;
    ServingMetrics::get().slew_clamped.inc(clamped);
  }
  stats_.merge(batch_stats);
  return out;
}

}  // namespace gnntrans::core
