// Tests for the batched inference engine: thread-count determinism, golden
// regression of pinned outputs, serving stats, arena reuse, and the batched
// EstimatorWireSource inside full-design STA.
//
// A single tiny estimator is trained once per suite (SetUpTestSuite) — the
// tests exercise serving, not model quality.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <random>
#include <span>
#include <sstream>

#include "cell/library.hpp"
#include "core/estimate_cache.hpp"
#include "core/estimator.hpp"
#include "core/fault_injector.hpp"
#include "core/telemetry/telemetry.hpp"
#include "features/dataset.hpp"
#include "netlist/generate.hpp"
#include "netlist/sta.hpp"
#include "rcnet/generate.hpp"

namespace {

using namespace gnntrans;

class ServingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    library_ = std::make_unique<cell::CellLibrary>(
        cell::CellLibrary::make_default());

    features::WireDatasetConfig dcfg;
    dcfg.net_count = 24;
    dcfg.seed = 2026;
    dcfg.sim_config.steps = 200;
    const auto records = features::generate_wire_records(dcfg, *library_);

    core::WireTimingEstimator::Options opt;
    opt.model.hidden_dim = 8;
    opt.model.gnn_layers = 2;
    opt.model.transformer_layers = 1;
    opt.model.heads = 2;
    opt.model.mlp_hidden = 16;
    opt.model.seed = 7;
    opt.train.epochs = 4;
    estimator_ = std::make_unique<core::WireTimingEstimator>(
        core::WireTimingEstimator::train(records, opt));

    // Unlabeled eval population (golden timing not needed for serving).
    std::mt19937_64 rng(99);
    rcnet::NetGenConfig ncfg;
    while (nets_.size() < 40) {
      rcnet::RcNet net =
          rcnet::generate_net(ncfg, rng, "eval" + std::to_string(nets_.size()));
      if (!net.validate().empty()) continue;
      nets_.push_back(std::move(net));
    }
    for (const rcnet::RcNet& net : nets_)
      contexts_.push_back(features::random_context(*library_, net, rng));
  }

  static void TearDownTestSuite() {
    estimator_.reset();
    library_.reset();
    nets_.clear();
    contexts_.clear();
  }

  static std::vector<core::NetBatchItem> items() {
    std::vector<core::NetBatchItem> out(nets_.size());
    for (std::size_t i = 0; i < nets_.size(); ++i)
      out[i] = {&nets_[i], &contexts_[i]};
    return out;
  }

  static std::unique_ptr<cell::CellLibrary> library_;
  static std::unique_ptr<core::WireTimingEstimator> estimator_;
  static std::vector<rcnet::RcNet> nets_;
  static std::vector<features::NetContext> contexts_;
};

std::unique_ptr<cell::CellLibrary> ServingTest::library_;
std::unique_ptr<core::WireTimingEstimator> ServingTest::estimator_;
std::vector<rcnet::RcNet> ServingTest::nets_;
std::vector<features::NetContext> ServingTest::contexts_;

TEST_F(ServingTest, ThreadCountInvariantBitwise) {
  const auto batch = items();
  const auto serial = estimator_->estimate_batch(batch, {.threads = 1});
  core::BatchOptions four;
  four.threads = 4;
  const auto threaded = estimator_->estimate_batch(batch, four);

  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].size(), threaded[i].size()) << "net " << i;
    for (std::size_t q = 0; q < serial[i].size(); ++q) {
      EXPECT_EQ(serial[i][q].sink, threaded[i][q].sink);
      // Bitwise equality: each net's forward pass is the same arithmetic
      // sequence regardless of which worker runs it.
      EXPECT_EQ(serial[i][q].slew, threaded[i][q].slew) << "net " << i;
      EXPECT_EQ(serial[i][q].delay, threaded[i][q].delay) << "net " << i;
    }
  }

  // The batch path must also match the legacy single-net entry point.
  for (std::size_t i = 0; i < nets_.size(); ++i) {
    const auto single = estimator_->estimate(nets_[i], contexts_[i]);
    ASSERT_EQ(single.size(), serial[i].size());
    for (std::size_t q = 0; q < single.size(); ++q) {
      EXPECT_EQ(single[q].slew, serial[i][q].slew);
      EXPECT_EQ(single[q].delay, serial[i][q].delay);
    }
  }
}

TEST_F(ServingTest, GoldenRegressionPinnedOutputs) {
  // Pinned outputs of the fixed-seed model on the first three eval nets.
  // These detect silent numeric drift in the feature pipeline, forward pass,
  // or standardizer. Tolerance is loose enough (1e-4 relative) to survive
  // benign instruction-scheduling differences, tight enough to catch bugs.
  struct Golden {
    std::size_t net;
    std::size_t path;
    double slew;
    double delay;
  };
  const auto batch = items();
  const auto results = estimator_->estimate_batch(batch, {.threads = 1});
  ASSERT_GE(results.size(), 3u);

  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_FALSE(results[i].empty()) << "net " << i;
    for (std::size_t q = 0; q < results[i].size(); ++q) {
      EXPECT_TRUE(std::isfinite(results[i][q].slew));
      EXPECT_TRUE(std::isfinite(results[i][q].delay));
    }
  }

  const std::vector<Golden> golden = {
      {0, 0, 1.4392871069835042e-10, 7.0285644213196657e-12},
      {0, 1, 1.5358543390893465e-10, 1.2406468177406317e-11},
      {0, 2, 8.1912639669593952e-11, 2.9306780596496591e-12},
      {0, 3, 1.5522237569482385e-10, 1.2027355163747127e-11},
      {0, 4, 1.3195665288306259e-10, 1.2233928830386981e-11},
      {0, 5, 1.558278226435531e-10, 1.210467651879166e-11},
      {0, 6, 1.3563478747008786e-10, 1.0142382255871747e-11},
      {0, 7, 1.5046826778841212e-10, 1.2070938890247776e-11},
      {0, 8, 1.4554383510574389e-10, 1.2296380375452511e-11},
      {1, 0, 9.1509173774754652e-11, 3.1897367630587381e-12},
      {2, 0, 1.4467212094003887e-10, 7.7816341889140376e-12},
      {2, 1, 1.2229281323561996e-10, 7.807436679753829e-12},
      {2, 2, 1.7534402722956929e-10, 1.2991803066857353e-11},
      {2, 3, 1.6018057980603812e-10, 1.0611014191971078e-11},
      {2, 4, 1.7087114393487192e-10, 1.2964095973430822e-11},
      {2, 5, 1.7039483670667373e-10, 1.3204554072900528e-11},
      {2, 6, 1.4670727533691605e-10, 1.1858678965733387e-11},
      {2, 7, 1.2732107114772392e-10, 9.65465786367808e-12},
  };
  ASSERT_FALSE(golden.empty());
  for (const Golden& g : golden) {
    ASSERT_LT(g.net, results.size());
    ASSERT_LT(g.path, results[g.net].size());
    const auto& pe = results[g.net][g.path];
    EXPECT_NEAR(pe.slew, g.slew, std::abs(g.slew) * 1e-4)
        << "net " << g.net << " path " << g.path;
    EXPECT_NEAR(pe.delay, g.delay, std::abs(g.delay) * 1e-4)
        << "net " << g.net << " path " << g.path;
  }
}

TEST_F(ServingTest, StatsAreFilled) {
  const auto batch = items();
  core::InferenceStats stats;
  const auto results = estimator_->estimate_batch(batch, {.threads = 2}, &stats);

  EXPECT_EQ(stats.nets, nets_.size());
  std::size_t paths = 0;
  for (const auto& r : results) paths += r.size();
  EXPECT_EQ(stats.paths, paths);
  EXPECT_GT(stats.paths, 0u);
  EXPECT_EQ(stats.threads, 2u);
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_GT(stats.nets_per_second, 0.0);
  EXPECT_GT(stats.p50_net_seconds, 0.0);
  EXPECT_GE(stats.p99_net_seconds, stats.p50_net_seconds);
  EXPECT_GT(stats.arena_peak_bytes, 0u);
  EXPECT_GT(stats.arena_reused_buffers + stats.arena_fresh_allocs, 0u);
  EXPECT_FALSE(stats.summary().empty());

  // merge() accumulates counts and keeps conservative percentiles.
  core::InferenceStats total;
  total.merge(stats);
  total.merge(stats);
  EXPECT_EQ(total.nets, 2 * stats.nets);
  EXPECT_EQ(total.paths, 2 * stats.paths);
  EXPECT_DOUBLE_EQ(total.p99_net_seconds, stats.p99_net_seconds);
}

TEST_F(ServingTest, EmptyBatch) {
  core::InferenceStats stats;
  const auto results =
      estimator_->estimate_batch({}, {.threads = 4}, &stats);
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(stats.nets, 0u);
  EXPECT_EQ(stats.paths, 0u);
  // Empty distribution: percentiles are exactly 0, never NaN (the edge case
  // index-based percentile code used to get wrong).
  EXPECT_DOUBLE_EQ(stats.p50_net_seconds, 0.0);
  EXPECT_DOUBLE_EQ(stats.p99_net_seconds, 0.0);
  EXPECT_EQ(stats.latency.count(), 0u);
}

TEST_F(ServingTest, SingleNetBatchHasFinitePercentiles) {
  const auto batch = items();
  core::InferenceStats stats;
  (void)estimator_->estimate_batch(std::span(batch).first(1), {.threads = 1},
                                   &stats);
  EXPECT_EQ(stats.nets, 1u);
  EXPECT_EQ(stats.latency.count(), 1u);
  EXPECT_TRUE(std::isfinite(stats.p50_net_seconds));
  EXPECT_TRUE(std::isfinite(stats.p99_net_seconds));
  EXPECT_GT(stats.p50_net_seconds, 0.0);
  EXPECT_GE(stats.p99_net_seconds, stats.p50_net_seconds);
}

TEST_F(ServingTest, EstimateBatchPublishesMetricsAndSpans) {
  auto& registry = telemetry::MetricsRegistry::global();
  const telemetry::Counter nets_counter =
      registry.counter("gnntrans_serving_nets_total");
  const telemetry::Counter paths_counter =
      registry.counter("gnntrans_serving_paths_total");
  const std::uint64_t nets_before = nets_counter.value();
  const std::uint64_t paths_before = paths_counter.value();

  auto& recorder = telemetry::TraceRecorder::global();
  recorder.clear();
  recorder.enable();
  const auto batch = items();
  core::InferenceStats stats;
  const auto results = estimator_->estimate_batch(batch, {.threads = 2}, &stats);
  recorder.disable();

  // Counters advanced by exactly this batch.
  EXPECT_EQ(nets_counter.value() - nets_before, batch.size());
  std::size_t paths = 0;
  for (const auto& r : results) paths += r.size();
  EXPECT_EQ(paths_counter.value() - paths_before, paths);

  // Latency histogram series exists and is exported.
  const std::string prom = registry.prometheus_text();
  EXPECT_NE(prom.find("gnntrans_serving_nets_total"), std::string::npos);
  EXPECT_NE(prom.find("gnntrans_serving_net_latency_seconds_bucket"),
            std::string::npos);
  EXPECT_NE(prom.find("gnntrans_serving_arena_peak_bytes"), std::string::npos);

  // Spans for the batch and its per-net stages landed in the recorder.
  std::ostringstream trace;
  recorder.write_chrome_json(trace);
  const std::string json = trace.str();
  EXPECT_NE(json.find("\"name\":\"estimate_batch\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"featurize\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"gnn_forward\""), std::string::npos);
  recorder.clear();
}

TEST_F(ServingTest, ArenaReusesBuffersAcrossBatches) {
  const auto batch = items();
  std::vector<nn::Workspace> workspaces;
  core::BatchOptions options;
  options.threads = 1;
  options.workspaces = &workspaces;

  core::InferenceStats first, second;
  (void)estimator_->estimate_batch(batch, options, &first);
  (void)estimator_->estimate_batch(batch, options, &second);

  // Cold arenas hit the heap at least once per distinct buffer size.
  EXPECT_GT(first.arena_fresh_allocs, 0u);
  // A warm arena owns every capacity the identical batch needs: the second
  // pass must be fully served from the pool.
  EXPECT_EQ(second.arena_fresh_allocs, 0u);
  EXPECT_GT(second.arena_reused_buffers, 0u);
  EXPECT_EQ(second.arena_peak_bytes, first.arena_peak_bytes);
}

TEST(ToSinkTimings, ClampsOnlySettledPathsAndCounts) {
  std::vector<core::PathEstimate> estimates(3);
  estimates[0] = {0, -4.2e-12, 1.0e-12, core::EstimateProvenance::kModel};
  estimates[1] = {1, 2.0e-10, 3.0e-12, core::EstimateProvenance::kModel};
  estimates[2] = {2, 0.0, 0.0, core::EstimateProvenance::kFailed};

  std::size_t clamped = 0;
  const auto sinks = core::to_sink_timings(estimates, &clamped);
  ASSERT_EQ(sinks.size(), 3u);

  // Degenerate (negative) slew on a settled path: raised to the NLDM floor
  // and counted — the clamp must never be a silent mask.
  EXPECT_TRUE(sinks[0].settled);
  EXPECT_DOUBLE_EQ(sinks[0].slew, 1e-12);
  EXPECT_EQ(clamped, 1u);

  EXPECT_TRUE(sinks[1].settled);
  EXPECT_DOUBLE_EQ(sinks[1].slew, 2.0e-10);

  // kFailed: raw zeros, unsettled, and NOT clamped — a floored slew would
  // dress the failure up as a plausible timing value.
  EXPECT_FALSE(sinks[2].settled);
  EXPECT_DOUBLE_EQ(sinks[2].slew, 0.0);
  EXPECT_DOUBLE_EQ(sinks[2].delay, 0.0);
}

TEST_F(ServingTest, FailedNetsReachStaUnsettledWithWarn) {
  netlist::DesignGenConfig cfg;
  cfg.seed = 9;
  cfg.levels = 3;
  cfg.cells_per_level = 5;
  cfg.startpoints = 3;
  const netlist::Design design =
      netlist::generate_design(cfg, *library_, "failed_sta");

  // Every (site, net) decision faults, and the ladder has no analytic rung:
  // every net the estimator serves comes back kFailed with zeroed sinks.
  core::FaultInjector::Config fcfg;
  fcfg.probability = 1.0;
  fcfg.seed = 3;
  core::FaultInjector::global().configure(fcfg);

  core::EstimatorWireSource source(*estimator_, design, *library_, 1);
  core::BatchOptions serving;
  serving.fallback = core::FallbackPolicy::kNone;
  source.set_serving_options(serving);

  // Capture WARNs: swap the global logger's sinks for a string stream.
  auto capture = std::make_shared<std::ostringstream>();
  auto& logger = telemetry::Logger::global();
  logger.clear_sinks();
  logger.add_sink(std::make_shared<telemetry::StreamSink>(*capture));
  const netlist::StaResult sta = netlist::run_sta(design, *library_, source);
  logger.clear_sinks();
  logger.add_sink(std::make_shared<telemetry::StderrSink>());
  core::FaultInjector::global().disarm();

  ASSERT_GT(source.stats().failed_nets, 0u);
  // The regression this pins: before outcome threading, every kFailed sink
  // was stamped settled and its zero delay silently became an STA arrival.
  EXPECT_GT(sta.unsettled_sinks, 0u);
  std::size_t tainted = 0;
  for (const std::uint8_t s : sta.arrival_settled) tainted += s == 0;
  EXPECT_GT(tainted, 0u);

  // Both the per-net WARN (net name + reason) and the run summary fired.
  const std::string log = capture->str();
  EXPECT_NE(log.find("failed wire timing"), std::string::npos) << log;
  EXPECT_NE(log.find("unsettled"), std::string::npos);

  // Failed sinks carry their raw zeros: the slew floor must not have
  // touched them (it only guards settled paths).
  EXPECT_EQ(source.stats().slew_clamped, 0u);
}

TEST_F(ServingTest, MisalignedContextLoadsAreTypedRejects) {
  // A context whose loads vector disagrees with the sink list is a caller
  // contract violation, not a model fault: typed kInvalidArgument, provenance
  // kFailed (zeroed per-sink outputs), and *no* analytic fallback — the
  // fallback would need the same per-sink loads the caller failed to supply.
  // Gated before featurization, so extract_features never sees the mismatch.
  features::NetContext short_ctx = contexts_[0];
  ASSERT_FALSE(short_ctx.loads.empty());
  short_ctx.loads.pop_back();

  features::NetContext long_ctx = contexts_[1];
  long_ctx.loads.push_back(long_ctx.loads.front());

  features::NetContext empty_ctx = contexts_[2];
  empty_ctx.loads.clear();
  ASSERT_FALSE(nets_[2].sinks.empty());

  const std::vector<core::NetBatchItem> bad = {
      {&nets_[0], &short_ctx}, {&nets_[1], &long_ctx}, {&nets_[2], &empty_ctx}};

  std::vector<core::NetOutcome> outcomes;
  core::BatchOptions opts;
  opts.threads = 1;
  opts.outcomes = &outcomes;  // default fallback policy: kAnalytic
  core::InferenceStats stats;
  const auto results = estimator_->estimate_batch(bad, opts, &stats);

  ASSERT_EQ(results.size(), 3u);
  ASSERT_EQ(outcomes.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(outcomes[i].error, core::ErrorCode::kInvalidArgument) << i;
    EXPECT_EQ(outcomes[i].provenance, core::EstimateProvenance::kFailed) << i;
    EXPECT_NE(outcomes[i].message.find("context.loads"), std::string::npos)
        << outcomes[i].message;
    // The ladder bottom still yields one (zeroed) estimate per sink.
    ASSERT_EQ(results[i].size(), bad[i].net->sinks.size()) << i;
    for (const auto& pe : results[i]) {
      EXPECT_EQ(pe.provenance, core::EstimateProvenance::kFailed);
      EXPECT_DOUBLE_EQ(pe.slew, 0.0);
      EXPECT_DOUBLE_EQ(pe.delay, 0.0);
    }
  }
  EXPECT_EQ(stats.failed_nets, 3u);
  EXPECT_EQ(stats.fallback_nets, 0u);
  EXPECT_EQ(stats.model_nets + stats.fallback_nets + stats.failed_nets +
                stats.cached_nets,
            stats.nets);
  EXPECT_EQ(
      stats.degraded_by_reason[static_cast<std::size_t>(
          core::ErrorCode::kInvalidArgument)],
      3u);

  // An aligned context on the same nets still serves from the model: the
  // gate keys on the (net, context) pair, not the net.
  const std::vector<core::NetBatchItem> good = {{&nets_[0], &contexts_[0]}};
  const auto ok = estimator_->estimate_batch(good, opts);
  EXPECT_EQ(outcomes[0].provenance, core::EstimateProvenance::kModel);
  ASSERT_EQ(ok.size(), 1u);
  EXPECT_EQ(ok[0].size(), nets_[0].sinks.size());
}

TEST_F(ServingTest, StaBatchedEstimatorIsThreadInvariant) {
  netlist::DesignGenConfig cfg;
  cfg.seed = 5;
  cfg.levels = 4;
  cfg.cells_per_level = 6;
  cfg.startpoints = 4;
  const netlist::Design design =
      netlist::generate_design(cfg, *library_, "serving_sta");

  core::EstimatorWireSource serial(*estimator_, design, *library_, 1);
  core::EstimatorWireSource threaded(*estimator_, design, *library_, 3);
  const netlist::StaResult r1 = netlist::run_sta(design, *library_, serial);
  const netlist::StaResult r3 = netlist::run_sta(design, *library_, threaded);

  ASSERT_EQ(r1.endpoint_arrival.size(), r3.endpoint_arrival.size());
  ASSERT_FALSE(r1.endpoint_arrival.empty());
  for (std::size_t e = 0; e < r1.endpoint_arrival.size(); ++e)
    EXPECT_EQ(r1.endpoint_arrival[e], r3.endpoint_arrival[e]) << "endpoint " << e;
  for (std::size_t v = 0; v < r1.arrival.size(); ++v) {
    EXPECT_EQ(r1.arrival[v], r3.arrival[v]) << "instance " << v;
    EXPECT_EQ(r1.slew[v], r3.slew[v]) << "instance " << v;
  }

  // Both sources timed every net of the design exactly once.
  EXPECT_EQ(serial.stats().nets, threaded.stats().nets);
  EXPECT_EQ(serial.stats().nets, design.nets.size());
  EXPECT_EQ(threaded.stats().threads, 3u);
}

TEST_F(ServingTest, TimeNetIsAOneRequestBatch) {
  // IncrementalSta retimes through time_net, so it must take the batched
  // path: the degradation ladder (an injected forward fault degrades instead
  // of throwing), the attached cache, and stats().
  netlist::DesignGenConfig cfg;
  cfg.seed = 11;
  cfg.levels = 2;
  cfg.cells_per_level = 3;
  cfg.startpoints = 2;
  const netlist::Design design =
      netlist::generate_design(cfg, *library_, "time_net");
  ASSERT_FALSE(design.nets.empty());
  const rcnet::RcNet& net = design.nets[0].rc;
  const netlist::WireTimingRequest request{&net, 3e-11, 150.0};

  core::EstimatorWireSource source(*estimator_, design, *library_, 2);
  source.enable_cache(core::EstimateCacheConfig{});

  core::FaultInjector::Config fcfg;
  fcfg.probability = 1.0;
  fcfg.seed = 5;
  fcfg.site_mask = core::site_bit(core::FaultSite::kForward);
  core::FaultInjector::global().configure(fcfg);
  std::vector<sim::SinkTiming> single;
  EXPECT_NO_THROW(single = source.time_net(net, request.input_slew,
                                           request.driver_resistance));
  const auto batched = source.time_nets({&request, 1});
  core::FaultInjector::global().disarm();

  ASSERT_EQ(batched.size(), 1u);
  ASSERT_EQ(single.size(), net.sinks.size());
  ASSERT_EQ(single.size(), batched[0].size());
  for (std::size_t s = 0; s < single.size(); ++s) {
    EXPECT_EQ(single[s].sink, batched[0][s].sink);
    EXPECT_EQ(std::memcmp(&single[s].delay, &batched[0][s].delay,
                          sizeof(double)),
              0)
        << "sink " << s;
    EXPECT_EQ(std::memcmp(&single[s].slew, &batched[0][s].slew, sizeof(double)),
              0)
        << "sink " << s;
    EXPECT_TRUE(single[s].settled);  // analytic fallback, not a failure
  }
  EXPECT_EQ(source.stats().nets, 2u);
  EXPECT_EQ(source.stats().fallback_nets, 2u);
  // Both calls looked the net up; a degraded result is never memoized.
  const core::EstimateCacheStats faulted = source.cache()->stats();
  EXPECT_EQ(faulted.misses, 2u);
  EXPECT_EQ(faulted.insertions, 0u);

  // Fault-free, the first time_net stores the model result, the second hits.
  (void)source.time_net(net, request.input_slew, request.driver_resistance);
  (void)source.time_net(net, request.input_slew, request.driver_resistance);
  const core::EstimateCacheStats clean = source.cache()->stats();
  EXPECT_EQ(clean.insertions, 1u);
  EXPECT_EQ(clean.hits, 1u);
  EXPECT_EQ(source.stats().cached_nets, 1u);
}

}  // namespace
