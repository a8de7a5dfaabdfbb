// Serving benchmark for the batched inference engine: the costs perfbench
// does not measure.
//
// Protocol: train a tiny GNNTrans estimator (quality is irrelevant here — the
// forward-pass cost is what serving pays) and generate an eval population of
// RC nets with random contexts. Then: split the forward pass of the
// paper-scaled model at n = 16 / 40 / 160 nodes (the autograd path against
// the compiled inference plan, nn/plan.hpp, that serving runs); sweep the
// estimate cache over repeat traffic; and measure the overhead of tracing,
// fault tolerance, shadow scoring and the network server's head-sampled
// request tracing. Throughput vs thread count, serving latency and the
// server's sustainable rate are perfbench's core.thread_scaling and serve.*
// layers (perfbench/README.md).
//
// Flags: --obs-port P [--obs-addr A] serves live /metrics etc. while the
// bench runs; --flight-out FILE dumps the flight recorder at exit. A
// machine-readable summary always lands in BENCH_serving.json (override the
// path with --json-out).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cell/library.hpp"
#include "core/estimate_cache.hpp"
#include "core/estimator.hpp"
#include "core/fault_injector.hpp"
#include "core/telemetry/telemetry.hpp"
#include "features/dataset.hpp"
#include "rcnet/generate.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "support.hpp"

using namespace gnntrans;

namespace {

using Clock = std::chrono::steady_clock;

std::vector<features::WireRecord> training_records(
    const cell::CellLibrary& library) {
  features::WireDatasetConfig dcfg;
  dcfg.net_count = 24;
  dcfg.seed = 2026;
  dcfg.sim_config.steps = 200;
  return features::generate_wire_records(dcfg, library);
}

core::WireTimingEstimator train_tiny(
    const std::vector<features::WireRecord>& records) {
  core::WireTimingEstimator::Options opt;
  opt.model.hidden_dim = 8;
  opt.model.gnn_layers = 2;
  opt.model.transformer_layers = 1;
  opt.model.heads = 2;
  opt.model.mlp_hidden = 16;
  opt.model.seed = 7;
  opt.train.epochs = 4;
  return core::WireTimingEstimator::train(records, opt);
}

/// Forward-pass wall time of one net, autograd path vs compiled plan.
struct ForwardSplitRow {
  std::size_t nodes = 0;
  std::size_t paths = 0;
  double autograd_us = 0.0;
  double plan_us = 0.0;
};

/// Best-of-5 mean microseconds per call of \p fn, each round long enough
/// (>= 20 ms) to swamp the clock.
template <typename Fn>
double best_us_per_call(Fn&& fn) {
  std::size_t calls = 1;
  for (;;) {  // calibrate
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) fn();
    if (std::chrono::duration<double>(Clock::now() - t0).count() >= 0.02) break;
    calls *= 2;
  }
  double best = 1e300;
  for (int round = 0; round < 5; ++round) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) fn();
    best = std::min(best,
                    std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return best / static_cast<double>(calls) * 1e6;
}

/// Splits the forward pass of the paper-scaled GNNTrans (hidden 16, 4 Sage
/// + 2 attention layers, 4 heads, MLP 32; trained briefly on \p records) at
/// n = 16 / 40 / 160 nodes. The autograd side runs a plan-less copy of the
/// same weights under NoGradGuard, which is how the model was served before
/// the plan; the plan side reuses one warm Workspace, as a serving worker.
std::vector<ForwardSplitRow> forward_split(
    const cell::CellLibrary& library,
    const std::vector<features::WireRecord>& records) {
  core::WireTimingEstimator::Options opt;
  opt.model.hidden_dim = 16;
  opt.model.gnn_layers = 4;
  opt.model.transformer_layers = 2;
  opt.model.heads = 4;
  opt.model.mlp_hidden = 32;
  opt.train.epochs = 4;
  const core::WireTimingEstimator estimator =
      core::WireTimingEstimator::train(records, opt);
  std::stringstream copy;
  nn::save_model(copy, estimator.model());
  const std::unique_ptr<nn::WireModel> autograd = nn::load_model(copy);

  std::vector<ForwardSplitRow> rows;
  std::mt19937_64 rng(31);
  for (const std::uint32_t nodes : {16u, 40u, 160u}) {
    rcnet::NetGenConfig cfg;
    cfg.min_nodes = cfg.max_nodes = nodes;
    features::WireRecord rec;
    rec.net = rcnet::generate_net(cfg, rng, "split" + std::to_string(nodes));
    rec.context = features::random_context(library, rec.net, rng);
    rec.raw = features::extract_features(rec.net, rec.context);
    rec.slew_labels.assign(rec.raw.analysis.paths.size(), 0.0);
    rec.delay_labels.assign(rec.raw.analysis.paths.size(), 0.0);
    const nn::GraphSample sample = estimator.standardizer().make_sample(rec);

    const tensor::NoGradGuard no_grad;
    nn::Workspace ws;
    ForwardSplitRow row;
    row.nodes = sample.node_count;
    row.paths = sample.path_count;
    row.autograd_us =
        best_us_per_call([&] { (void)autograd->forward(sample); });
    row.plan_us = best_us_per_call(
        [&] { (void)estimator.model().forward(sample, &ws); });
    rows.push_back(row);
  }
  return rows;
}

struct EvalSet {
  std::vector<rcnet::RcNet> nets;
  std::vector<features::NetContext> contexts;
  std::vector<core::NetBatchItem> items;
};

EvalSet build_eval_set(const cell::CellLibrary& library, std::size_t count) {
  EvalSet set;
  std::mt19937_64 rng(99);
  rcnet::NetGenConfig cfg;
  set.nets.reserve(count);
  while (set.nets.size() < count) {
    rcnet::RcNet net =
        rcnet::generate_net(cfg, rng, "serve" + std::to_string(set.nets.size()));
    if (!net.validate().empty()) continue;
    set.nets.push_back(std::move(net));
  }
  set.contexts.reserve(count);
  for (const rcnet::RcNet& net : set.nets)
    set.contexts.push_back(features::random_context(library, net, rng));
  set.items.resize(count);
  for (std::size_t i = 0; i < count; ++i)
    set.items[i] = {&set.nets[i], &set.contexts[i]};
  return set;
}

/// The numbers BENCH_serving.json records so the perf trajectory is
/// comparable across commits.
struct BenchSummary {
  /// Forward pass at n = 16 / 40 / 160: autograd vs compiled plan.
  std::vector<ForwardSplitRow> forward_split;
  double tracing_overhead_pct = 0.0;  ///< full tracing (1-in-1)
  double fallback_overhead_pct = 0.0;  ///< 1% injection vs disarmed
  // Shadow-scoring overhead vs a disarmed monitor, at fixed rates.
  double shadow_overhead_pct_rate1 = 0.0;   ///< 1% of nets shadowed
  double shadow_overhead_pct_rate5 = 0.0;   ///< 5% (the default shadow rate)
  double shadow_overhead_pct_rate25 = 0.0;  ///< 25%
  double shadow_overhead_bound_pct = 5.0;  ///< acceptance bound for rate5
  bool shadow_under_budget = false;
  // Content-addressed estimate cache: repeat-traffic sweep at T=1. Each row
  // replays a stream whose repeat fraction is fixed by construction (every
  // distinct net requested r times → (r-1)/r repeats); speedup is the
  // uncached steady-state per-net cost over the cached stream's per-net cost.
  struct CacheRateRow {
    double repeat_pct = 0.0;    ///< repeat fraction of the request stream
    double hit_rate_pct = 0.0;  ///< measured cache hit rate over the stream
    double nets_per_second = 0.0;
    double per_net_us = 0.0;
    double speedup = 0.0;
  };
  std::vector<CacheRateRow> cache_rows;
  double cache_uncached_nets_per_second = 0.0;
  double cache_speedup_95_repeat = 0.0;
  double cache_speedup_target = 5.0;      ///< acceptance bound at 95% repeat
  bool cache_speedup_target_met = false;
  // Network front-end over the socket path.
  std::size_t net_clients = 0;
  /// Closed-loop nets/s cost of request tracing at the default head-sampling
  /// rate (1/64) vs tracing disabled; the acceptance budget is <= 1%.
  double net_request_tracing_overhead_pct = 0.0;
};

void write_summary_json(const std::string& path, const BenchSummary& s) {
  std::ofstream out(path);
  if (!out) {
    GNNTRANS_LOG_ERROR("bench", "cannot open %s for write", path.c_str());
    return;
  }
  std::ostringstream json;
  json.setf(std::ios::fixed);
  auto num = [&json](const char* key, double v, int prec) {
    json << "  \"" << key << "\": " << std::setprecision(prec) << v << ",\n";
  };
  auto flag = [&json](const char* key, bool v) {
    json << "  \"" << key << "\": " << (v ? "true" : "false") << ",\n";
  };
  json << "{\n  \"forward_split\": [\n";
  for (std::size_t i = 0; i < s.forward_split.size(); ++i) {
    const ForwardSplitRow& r = s.forward_split[i];
    json << "    {\"nodes\": " << r.nodes << ", \"paths\": " << r.paths
         << ", \"autograd_us\": " << std::setprecision(1) << r.autograd_us
         << ", \"plan_us\": " << r.plan_us
         << ", \"speedup\": " << std::setprecision(2)
         << r.autograd_us / r.plan_us << "}"
         << (i + 1 < s.forward_split.size() ? "," : "") << "\n";
  }
  json << "  ],\n";
  num("tracing_overhead_pct", s.tracing_overhead_pct, 3);
  num("fallback_overhead_pct", s.fallback_overhead_pct, 3);
  num("shadow_overhead_pct_rate1", s.shadow_overhead_pct_rate1, 3);
  num("shadow_overhead_pct_rate5", s.shadow_overhead_pct_rate5, 3);
  num("shadow_overhead_pct_rate25", s.shadow_overhead_pct_rate25, 3);
  num("shadow_overhead_bound_pct", s.shadow_overhead_bound_pct, 1);
  flag("shadow_under_budget", s.shadow_under_budget);
  json << "  \"cache\": {\n"
       << "    \"uncached_nets_per_second\": " << std::setprecision(1)
       << s.cache_uncached_nets_per_second << ",\n"
       << "    \"speedup_95_repeat\": " << std::setprecision(2)
       << s.cache_speedup_95_repeat << ",\n"
       << "    \"speedup_target\": " << std::setprecision(1)
       << s.cache_speedup_target << ",\n"
       << "    \"speedup_target_met\": "
       << (s.cache_speedup_target_met ? "true" : "false") << ",\n"
       << "    \"rows\": [\n";
  for (std::size_t i = 0; i < s.cache_rows.size(); ++i) {
    const BenchSummary::CacheRateRow& r = s.cache_rows[i];
    json << "      {\"repeat_pct\": " << std::setprecision(1) << r.repeat_pct
         << ", \"hit_rate_pct\": " << r.hit_rate_pct
         << ", \"nets_per_second\": " << r.nets_per_second
         << ", \"per_net_us\": " << std::setprecision(2) << r.per_net_us
         << ", \"speedup\": " << r.speedup << "}"
         << (i + 1 < s.cache_rows.size() ? "," : "") << "\n";
  }
  json << "    ]\n  },\n";
  json << "  \"serving_net\": {\n"
       << "    \"clients\": " << s.net_clients << ",\n"
       << "    \"request_tracing_overhead_pct\": " << std::setprecision(3)
       << s.net_request_tracing_overhead_pct << "\n  }\n}\n";
  out << json.str();
  GNNTRANS_LOG_INFO("bench", "wrote %s", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_serving.json";
  telemetry::ObsServerConfig obs_cfg;
  bool want_obs = false;
  std::string flight_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--obs-port") == 0) {
      obs_cfg.port = static_cast<std::uint16_t>(std::atoi(argv[i + 1]));
      want_obs = true;
    } else if (std::strcmp(argv[i], "--obs-addr") == 0) {
      obs_cfg.addr = argv[i + 1];
    } else if (std::strcmp(argv[i], "--flight-out") == 0) {
      flight_path = argv[i + 1];
    } else if (std::strcmp(argv[i], "--json-out") == 0) {
      json_path = argv[i + 1];
    }
  }
  std::unique_ptr<telemetry::ObsServer> obs;
  if (want_obs) {
    obs = std::make_unique<telemetry::ObsServer>(obs_cfg);
    obs->start();
  }

  std::printf("=== Serving benchmark: batched inference engine ===\n\n");
  const auto library = cell::CellLibrary::make_default();

  std::printf("training tiny estimator...\n");
  const std::vector<features::WireRecord> records = training_records(library);
  const core::WireTimingEstimator estimator = train_tiny(records);

  const std::size_t kNets = 256;
  const EvalSet set = build_eval_set(library, kNets);
  std::printf("eval set: %zu nets; hardware threads: %u\n\n", set.nets.size(),
              std::thread::hardware_concurrency());

  BenchSummary summary;
  std::printf("=== Forward pass: autograd vs compiled plan (paper-scaled "
              "model, T=1) ===\n\n");
  {
    summary.forward_split = forward_split(library, records);
    bench::TablePrinter split({"nodes", "paths", "autograd(us)", "plan(us)",
                               "speedup"},
                              {6, 6, 13, 9, 8});
    split.print_header();
    for (const ForwardSplitRow& r : summary.forward_split)
      split.print_row({std::to_string(r.nodes), std::to_string(r.paths),
                       bench::TablePrinter::fmt(r.autograd_us, 1),
                       bench::TablePrinter::fmt(r.plan_us, 1),
                       bench::TablePrinter::fmt(r.autograd_us / r.plan_us, 2) +
                           "x"});
    std::printf("\n");
  }

  // Content-addressed estimate cache: repeat-traffic sweep. A stream where
  // every distinct (net, context) is requested r times has a repeat fraction
  // of (r-1)/r by construction — r=1 is all-cold (pure miss/insert overhead),
  // r=2 is 50% repeats, r=20 is the 95%-repeat regime of an ECO loop
  // re-timing a design after small edits. The acceptance bound: at 95%
  // repeats the cached stream's per-net cost must beat the uncached
  // steady-state by >= 5x (hits skip featurize + forward entirely).
  std::printf("\n=== Estimate cache: repeat-traffic sweep, T=1 ===\n\n");
  {
    core::BatchOptions options;
    options.threads = 1;
    std::vector<nn::Workspace> workspaces;
    options.workspaces = &workspaces;
    constexpr std::size_t kSubset = 128;
    const std::span<const core::NetBatchItem> subset(set.items.data(), kSubset);

    // Uncached steady state (slabs warm): the denominator of every speedup.
    core::InferenceStats warm;
    (void)estimator.estimate_batch(subset, options, &warm);
    const auto u0 = Clock::now();
    (void)estimator.estimate_batch(subset, options, &warm);
    const double uncached_secs =
        std::chrono::duration<double>(Clock::now() - u0).count();
    const double uncached_per_net =
        uncached_secs / static_cast<double>(kSubset);
    summary.cache_uncached_nets_per_second =
        static_cast<double>(kSubset) / uncached_secs;

    bench::TablePrinter cache_table(
        {"repeats", "hit rate", "nets/s", "per-net(us)", "speedup"},
        {8, 9, 10, 12, 8});
    cache_table.print_header();
    for (const std::size_t repeats : {1u, 2u, 20u}) {
      core::EstimateCache cache;  // fresh per row: hit rate is by construction
      options.cache = &cache;
      core::InferenceStats stats;
      const auto t0 = Clock::now();
      for (std::size_t pass = 0; pass < repeats; ++pass)
        (void)estimator.estimate_batch(subset, options, &stats);
      const double secs =
          std::chrono::duration<double>(Clock::now() - t0).count();
      const double nets = static_cast<double>(kSubset * repeats);

      BenchSummary::CacheRateRow row;
      row.repeat_pct = 100.0 * static_cast<double>(repeats - 1) /
                       static_cast<double>(repeats);
      row.hit_rate_pct = 100.0 * cache.stats().hit_rate();
      row.nets_per_second = nets / secs;
      row.per_net_us = secs / nets * 1e6;
      row.speedup = uncached_per_net / (secs / nets);
      summary.cache_rows.push_back(row);
      if (repeats == 20) summary.cache_speedup_95_repeat = row.speedup;
      cache_table.print_row(
          {std::to_string(repeats),
           bench::TablePrinter::fmt(row.hit_rate_pct, 1) + "%",
           bench::TablePrinter::fmt(row.nets_per_second, 0),
           bench::TablePrinter::fmt(row.per_net_us, 1),
           bench::TablePrinter::fmt(row.speedup, 2) + "x"});
    }
    options.cache = nullptr;
    summary.cache_speedup_target_met =
        summary.cache_speedup_95_repeat >= summary.cache_speedup_target;
    std::printf("\n95%%-repeat per-net speedup %.2fx vs %.1fx target: %s "
                "(uncached steady state %.0f nets/s)\n",
                summary.cache_speedup_95_repeat, summary.cache_speedup_target,
                summary.cache_speedup_target_met ? "MET" : "MISSED",
                summary.cache_uncached_nets_per_second);
  }

  // Telemetry overhead: metrics publication is unconditional, so the contrast
  // is tracing disabled (one relaxed atomic load per span site) vs tracing
  // enabled (clock reads + ring writes). The disabled delta is the cost every
  // serving deployment pays; the budget is < 2%.
  std::printf("\n=== Telemetry overhead: estimate_batch, T=1 ===\n\n");
  {
    core::BatchOptions options;
    options.threads = 1;
    std::vector<nn::Workspace> workspaces;
    options.workspaces = &workspaces;
    auto timed_passes = [&](int passes) {
      core::InferenceStats stats;
      const auto t0 = Clock::now();
      for (int p = 0; p < passes; ++p)
        (void)estimator.estimate_batch(set.items, options, &stats);
      return std::chrono::duration<double>(Clock::now() - t0).count();
    };
    constexpr int kPasses = 3;
    auto& recorder = telemetry::TraceRecorder::global();
    recorder.disable();
    (void)timed_passes(1);  // warm-up
    const double off_secs = timed_passes(kPasses);

    // Full tracing: the default config records every span (1-in-1).
    recorder.configure(telemetry::TraceConfig{});
    recorder.enable();
    const double on_secs = timed_passes(kPasses);
    recorder.disable();
    const double rate_off =
        static_cast<double>(kNets * kPasses) / off_secs;
    const double rate_on = static_cast<double>(kNets * kPasses) / on_secs;
    summary.tracing_overhead_pct = 100.0 * (on_secs - off_secs) / off_secs;
    std::printf("tracing off: %.0f nets/s   tracing on: %.0f nets/s   "
                "enabled-path overhead: %.2f%% (%zu spans recorded)\n",
                rate_off, rate_on, summary.tracing_overhead_pct,
                recorder.event_count());
    recorder.clear();
  }

  // Fault-tolerance overhead: the degradation ladder costs two branches and a
  // validate() per net when nothing fails. The contrast below is injection
  // disarmed (the production configuration) vs 1% of (site, net) decisions
  // injected, where each degraded net additionally pays the analytic
  // baseline.
  std::printf("\n=== Fault-tolerance overhead: estimate_batch, T=1 ===\n\n");
  {
    core::BatchOptions options;
    options.threads = 1;
    std::vector<nn::Workspace> workspaces;
    options.workspaces = &workspaces;
    auto timed_passes = [&](int passes, core::InferenceStats* total) {
      const auto t0 = Clock::now();
      for (int p = 0; p < passes; ++p) {
        core::InferenceStats stats;
        (void)estimator.estimate_batch(set.items, options, &stats);
        if (total) total->merge(stats);
      }
      return std::chrono::duration<double>(Clock::now() - t0).count();
    };
    constexpr int kPasses = 3;
    auto& injector = core::FaultInjector::global();
    injector.disarm();
    (void)timed_passes(1, nullptr);  // warm-up
    core::InferenceStats off_stats;
    const double off_secs = timed_passes(kPasses, &off_stats);

    core::FaultInjector::Config cfg;
    cfg.probability = 0.01;
    cfg.seed = 42;
    injector.configure(cfg);
    core::InferenceStats on_stats;
    const double on_secs = timed_passes(kPasses, &on_stats);
    injector.disarm();

    const double rate_off = static_cast<double>(kNets * kPasses) / off_secs;
    const double rate_on = static_cast<double>(kNets * kPasses) / on_secs;
    summary.fallback_overhead_pct = 100.0 * (on_secs - off_secs) / off_secs;
    std::printf("injection off: %.0f nets/s (%zu degraded)\n", rate_off,
                off_stats.fallback_nets + off_stats.failed_nets);
    std::printf("injection 1%%:  %.0f nets/s (%zu degraded, %.2f%% of nets, "
                "%zu triggers) — overhead %.2f%%\n",
                rate_on, on_stats.fallback_nets + on_stats.failed_nets,
                100.0 * on_stats.degraded_fraction(),
                injector.injected_total(),
                summary.fallback_overhead_pct);
    std::printf("injected summary: %s\n", on_stats.summary().c_str());
  }

  // Shadow-scoring overhead: a shadowed net pays a second featurization plus
  // the analytic Elmore/D2M re-time. Each row shadows exactly its configured
  // fraction, so it measures the true cost of that sampling rate; the
  // acceptance bound is the rate-5% row against a 5% wall-time budget.
  std::printf("\n=== Shadow-scoring overhead: estimate_batch, T=1 ===\n\n");
  {
    core::BatchOptions options;
    options.threads = 1;
    std::vector<nn::Workspace> workspaces;
    options.workspaces = &workspaces;
    auto& quality = telemetry::QualityMonitor::global();
    estimator.install_quality_baseline();

    // Round-robin best-of-N: one pass per configuration per round, so a slow
    // phase of a shared box penalizes every rate equally instead of whichever
    // configuration it happened to coincide with.
    const std::vector<double> rates = {0.0, 0.01, 0.05, 0.25};
    std::vector<double> best(rates.size(), 1e300);
    std::vector<std::uint64_t> shadowed(rates.size(), 0);
    constexpr int kRepeats = 5;
    telemetry::QualityConfig off_cfg;
    off_cfg.shadow_rate = 0.0;
    quality.configure(off_cfg);
    {
      core::InferenceStats stats;  // warm-up (slabs)
      (void)estimator.estimate_batch(set.items, options, &stats);
    }
    for (int r = 0; r < kRepeats; ++r) {
      for (std::size_t i = 0; i < rates.size(); ++i) {
        telemetry::QualityConfig qcfg;
        qcfg.shadow_rate = rates[i];
        qcfg.shadow_seed = 1;
        quality.configure(qcfg);
        core::InferenceStats stats;
        const auto t0 = Clock::now();
        (void)estimator.estimate_batch(set.items, options, &stats);
        best[i] = std::min(
            best[i], std::chrono::duration<double>(Clock::now() - t0).count());
        shadowed[i] = quality.shadowed_nets();
      }
    }
    const double off_secs = best[0];

    bench::TablePrinter shadow_table(
        {"rate", "nets/s", "shadowed", "overhead"}, {8, 10, 10, 10});
    shadow_table.print_header();
    for (std::size_t i = 1; i < rates.size(); ++i) {
      const double overhead =
          std::max(0.0, 100.0 * (best[i] - off_secs) / off_secs);
      if (rates[i] == 0.01) summary.shadow_overhead_pct_rate1 = overhead;
      if (rates[i] == 0.05) summary.shadow_overhead_pct_rate5 = overhead;
      if (rates[i] == 0.25) summary.shadow_overhead_pct_rate25 = overhead;
      shadow_table.print_row(
          {bench::TablePrinter::fmt(100.0 * rates[i], 0) + "%",
           bench::TablePrinter::fmt(static_cast<double>(kNets) / best[i], 0),
           std::to_string(shadowed[i]),
           bench::TablePrinter::fmt(overhead, 2) + "%"});
    }
    quality.configure(off_cfg);
    summary.shadow_under_budget = summary.shadow_overhead_pct_rate5 <=
                                  summary.shadow_overhead_bound_pct;
    std::printf("\ndefault-rate (5%%) shadow overhead %.2f%% vs %.1f%% budget: "
                "%s\n",
                summary.shadow_overhead_pct_rate5,
                summary.shadow_overhead_bound_pct,
                summary.shadow_under_budget ? "UNDER" : "OVER");
  }

  // Request-tracing overhead: the same estimator behind serve::NetServer, a
  // closed-loop burst (8 clients back-to-back, no pacing, so the server is
  // the bottleneck and wall time carries the signal) with tracing off vs on
  // at the default head-sampling rate. The acceptance budget is <= 1% of
  // nets/s; reported, not asserted, since a shared box adds noise at this
  // scale. perfbench's serve.* layers measure the server's latency and
  // sustainable rate.
  std::printf("\n=== Network serving: request-tracing overhead (8 clients) ===\n\n");
  {
    constexpr std::size_t kClients = 8;
    serve::NetServerConfig scfg;
    scfg.port = 0;  // ephemeral
    scfg.threads = 1;
    scfg.batch_max = 32;
    scfg.flush_age_seconds = 1e-3;
    scfg.queue_capacity = 256;
    serve::NetServer server(estimator, scfg);
    server.start();
    summary.net_clients = kClients;
    auto closed_loop_rps = [&](std::uint32_t id_base) {
      constexpr std::size_t kPerClient = 320;
      std::vector<std::uint64_t> served(kClients, 0);
      std::vector<std::thread> workers;
      workers.reserve(kClients);
      const auto t0 = Clock::now();
      for (std::size_t c = 0; c < kClients; ++c) {
        workers.emplace_back([&, c] {
          serve::NetClientConfig ccfg;
          ccfg.port = server.port();
          ccfg.request_timeout_ms = 2000;
          ccfg.max_retries = 2;
          ccfg.client_id = id_base + static_cast<std::uint32_t>(c);
          serve::NetClient client(ccfg);
          for (std::size_t i = 0; i < kPerClient; ++i) {
            const std::size_t idx = (c + i * kClients) % set.items.size();
            if (client.estimate(set.nets[idx], set.contexts[idx]).served())
              ++served[c];
          }
        });
      }
      for (std::thread& w : workers) w.join();
      const double wall =
          std::chrono::duration<double>(Clock::now() - t0).count();
      std::uint64_t total = 0;
      for (const std::uint64_t s : served) total += s;
      return wall > 0.0 ? static_cast<double>(total) / wall : 0.0;
    };
    // Interleave off/on reps and take the best of each arm: the server is
    // the bottleneck, so max rps is the least-interference estimate, and
    // alternating arms cancels slow container/thermal drift that would
    // otherwise masquerade as tracing cost.
    auto& recorder = telemetry::TraceRecorder::global();
    const telemetry::TraceConfig default_cfg;  // head rate 1/64
    recorder.disable();
    (void)closed_loop_rps(9000);  // warm-up
    double off_rps = 0.0;
    double on_rps = 0.0;
    for (std::uint32_t rep = 0; rep < 3; ++rep) {
      recorder.disable();
      off_rps = std::max(off_rps, closed_loop_rps(9100 + rep * 16));
      recorder.configure(default_cfg);
      recorder.enable();
      on_rps = std::max(on_rps, closed_loop_rps(9200 + rep * 16));
    }
    recorder.disable();
    summary.net_request_tracing_overhead_pct =
        off_rps > 0.0 ? std::max(0.0, 100.0 * (off_rps - on_rps) / off_rps)
                      : 0.0;
    std::printf(
        "\nrequest tracing at default rate (1/64): %.0f nets/s off, %.0f "
        "nets/s on — overhead %.2f%% (budget 1%%)\n",
        off_rps, on_rps, summary.net_request_tracing_overhead_pct);
    server.stop();
  }

  write_summary_json(json_path, summary);
  if (!flight_path.empty()) {
    std::ofstream out(flight_path);
    if (!out) {
      GNNTRANS_LOG_ERROR("bench", "cannot open %s for write",
                         flight_path.c_str());
    } else {
      telemetry::FlightRecorder::global().write_json(out);
      GNNTRANS_LOG_INFO("bench", "wrote flight records to %s",
                        flight_path.c_str());
    }
  }
  return 0;
}
