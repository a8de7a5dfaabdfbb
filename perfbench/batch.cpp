// batch_small / batch_large: estimate_batch on a reused pool of workers()
// threads, over batches of fresh, unique nets with random contexts. An
// estimate cache is attached as the CLI does by default, but every net is new,
// so each one is a miss followed by an insert. The traced run of batch_small
// also drives the same net distribution through NetServer (serve.cpp).
#include <cstdio>

#include "core/estimate_cache.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

struct BatchShape {
  rcnet::NetGenConfig nets;
  std::size_t batch = 0;        ///< nets per estimate_batch call
  std::size_t check_every = 0;  ///< every n-th batch is re-checked after the run,
  std::size_t check_max = 0;    ///< up to this many, so memory does not grow
                                ///< with throughput
  std::size_t probe_nets = 0;   ///< nets replayed per layer in the traced run
};

struct Phase {
  std::vector<double> batch_seconds;
  std::vector<double> traced_seconds;  ///< traced batches of a traced run
  core::InferenceStats stats;

  /// Nets per second inside estimate_batch: the median over ten groups of
  /// consecutive batches, so a burst of load on the box moves one group.
  [[nodiscard]] double nets_per_second(std::size_t batch) const {
    std::vector<double> rates;
    const std::size_t n = batch_seconds.size();
    for (std::size_t g = 0; g < 10; ++g) {
      double busy = 0.0;
      for (std::size_t i = n * g / 10; i < n * (g + 1) / 10; ++i)
        busy += batch_seconds[i];
      const std::size_t count = n * (g + 1) / 10 - n * g / 10;
      if (count > 0) rates.push_back(static_cast<double>(count * batch) / busy);
    }
    return quantile(rates, 0.5);
  }
};

struct Kept {
  NetSet set;
  std::vector<std::vector<core::PathEstimate>> results;
};

}  // namespace

void run_batch(const Options& options, const Fixture& fixture, Report& report,
               bool large) {
  const BatchShape shape = large ? BatchShape{large_net_config(), 16, 16, 8, 48}
                                 : BatchShape{small_net_config(), 64, 8, 24, 256};
  const core::WireTimingEstimator& est = *fixture.estimator;
  std::mt19937_64 rng(options.seed * 0x9e3779b97f4a7c15ULL + (large ? 2 : 1));

  core::ThreadPool pool(workers());
  std::vector<nn::Workspace> workspaces;
  core::EstimateCache cache;  // the CLI default budget (64 MiB)
  core::BatchOptions opts;
  opts.pool = &pool;
  opts.workspaces = &workspaces;
  opts.cache = &cache;

  std::vector<Kept> kept;
  std::uint64_t batch_id = 0;
  // Every net is new, so the cache would only grow with the number of nets a
  // run gets through; emptying it every kCacheNets keeps peak memory the
  // same for a faster build and a slower one.
  constexpr std::size_t kCacheNets = 8192;
  std::size_t cached_nets = 0;
  // In a traced run every other batch is traced, so the traced and untraced
  // batches see the same box and the difference is the tracing overhead.
  const auto run_phase = [&](double seconds, Tracer& tracer) {
    Phase phase;
    const bool traced_run = tracer.enabled();
    const auto start = Clock::now();
    while (seconds_since(start) < seconds) {
      tracer.set_enabled(traced_run && batch_id % 2 == 0);
      NetSet set;
      generate_nets(set, shape.nets, fixture.library, rng, shape.batch,
                    "b" + std::to_string(batch_id) + "_");
      const std::vector<core::NetBatchItem> items = set.items();
      core::InferenceStats stats;
      std::vector<std::vector<core::PathEstimate>> results;
      const auto t0 = Clock::now();
      {
        const Tracer::Span span(tracer, "bench.batch", batch_id);
        results = est.estimate_batch(items, opts, &stats);
      }
      const double dt = seconds_since(t0);
      (tracer.enabled() ? phase.traced_seconds : phase.batch_seconds).push_back(dt);
      phase.stats.merge(stats);
      report.attempt(items.size());
      for (std::size_t i = 0; i < items.size(); ++i)
        if (const std::string why = check_estimate(set.nets[i], results[i]);
            !why.empty())
          report.fail(why);
      if (batch_id % shape.check_every == 0 && kept.size() < shape.check_max)
        kept.push_back({std::move(set), std::move(results)});
      ++batch_id;
      if ((cached_nets += items.size()) >= kCacheNets) {
        cache.clear();
        cached_nets = 0;
      }
    }
    tracer.set_enabled(traced_run);
    return phase;
  };

  // Warm-up: spawns the pool's threads and grows every worker's arena to
  // the largest net of the distribution, so peak memory does not depend on
  // which seed happens to draw the biggest nets.
  {
    rcnet::NetGenConfig biggest = shape.nets;
    biggest.min_nodes = biggest.max_nodes;
    NetSet set;
    std::mt19937_64 warm_rng(1);
    generate_nets(set, biggest, fixture.library, warm_rng, 4 * workers(),
                  "warm_");
    (void)est.estimate_batch(set.items(), opts);
  }

  Tracer tracer(options.trace);
  Phase timed = run_phase(options.seconds, tracer);
  const double overhead_pct =
      100.0 * (mean(timed.traced_seconds) / mean(timed.batch_seconds) - 1.0);

  const core::EstimateCacheStats timed_cache = cache.stats();

  // Output checks, outside the timed phase: the pool's results must be
  // bitwise equal to a one-thread pass without the cache, and a pass through
  // the cache after the nets are (again) resident must hit and return the
  // same bits.
  core::BatchOptions one_thread;
  std::size_t rechecked = 0;
  for (Kept& k : kept) {
    const std::vector<core::NetBatchItem> items = k.set.items();
    maybe_flip(options, k.results.front().front().delay);
    const auto reference = est.estimate_batch(items, one_thread);
    (void)est.estimate_batch(items, opts);
    const auto again = est.estimate_batch(items, opts);
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (!same_bits(k.results[i], reference[i]))
        report.fail(k.set.nets[i].name + ": T=" + std::to_string(workers()) +
                    " result differs from T=1");
      if (!same_bits(again[i], reference[i]))
        report.fail(k.set.nets[i].name + ": cache hit differs from recomputation");
      if (again[i].front().provenance != core::EstimateProvenance::kCached)
        report.fail(k.set.nets[i].name + ": resident net missed the cache");
      ++rechecked;
    }
  }

  if (!options.trace) {
    report.e2e("nets_per_s", timed.nets_per_second(shape.batch), "1/s");
    const double p90 = quarters_quantile(timed.batch_seconds, 0.90);
    report.e2e("p50_ms", quantile(timed.batch_seconds, 0.50) * 1e3, "ms");
    report.e2e("p90_ms", p90 * 1e3, "ms");
    std::printf("batches: %zu of %zu nets, p99 %.3f ms; %zu nets re-checked\n",
                timed.batch_seconds.size(), shape.batch,
                quantile(timed.batch_seconds, 0.99) * 1e3, rechecked);
    return;
  }

  NetSet probe_set;
  for (const Kept& k : kept)
    for (std::size_t i = 0; i < k.set.size() && probe_set.size() < shape.probe_nets;
         ++i) {
      probe_set.nets.push_back(k.set.nets[i]);
      probe_set.contexts.push_back(k.set.contexts[i]);
    }
  const std::vector<core::NetBatchItem> probe_items = probe_set.items();
  report_probe(probe_layers(fixture, probe_items, tracer, report), report);

  report.layer("core.cache_hit_ratio", timed_cache.hit_rate(), "ratio");
  report_inference_stats(timed.stats, report);
  report.layer("bench.trace_overhead_pct", overhead_pct, "%");
  if (!large) run_serve_layers(options, fixture, tracer, report);
  tracer.write_chrome_json(trace_path(options));
  print_self_time_table(options.workload, tracer, overhead_pct);
}

}  // namespace perfbench
