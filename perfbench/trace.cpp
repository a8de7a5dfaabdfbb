#include "trace.hpp"

#include <cstdio>
#include <fstream>
#include <thread>

#include "core/estimate_cache.hpp"
#include "sim/wire_analysis.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {
  if (enabled_) records_.reserve(1 << 16);
}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
}

Tracer::Span::Span(Tracer& tracer, const char* name, std::uint64_t id)
    : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  index_ = tracer_.records_.size();
  Record rec;
  rec.name = name;
  rec.id = id;
  rec.parent = tracer_.open_.empty()
                   ? -1
                   : static_cast<std::int64_t>(tracer_.open_.back());
  tracer_.open_.push_back(index_);
  rec.start_us = tracer_.now_us();
  tracer_.records_.push_back(rec);
}

Tracer::Span::~Span() {
  if (!tracer_.enabled_) return;
  tracer_.records_[index_].end_us = tracer_.now_us();
  tracer_.open_.pop_back();
}

void Tracer::record(const char* name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t id) {
  if (!enabled_) return;
  using us = std::chrono::duration<double, std::micro>;
  records_.push_back(
      {name, us(start - epoch_).count(), us(end - epoch_).count(), -1, id});
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::vector<double> child_us(records_.size(), 0.0);
  for (const Record& r : records_)
    if (r.parent >= 0)
      child_us[static_cast<std::size_t>(r.parent)] += r.end_us - r.start_us;
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const double dur = records_[i].end_us - records_[i].start_us;
    Totals& t = out[records_[i].name];
    ++t.count;
    t.total_us += dur;
    t.self_us += dur - child_us[i];
  }
  return out;
}

double Tracer::mean_us(const std::string& name) const {
  std::size_t count = 0;
  double total = 0.0;
  for (const Record& r : records_)
    if (name == r.name) {
      ++count;
      total += r.end_us - r.start_us;
    }
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"traceEvents\": [\n";
  char buf[256];
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, "
                  "\"pid\": 1, \"tid\": 1, \"args\": {\"id\": %llu, "
                  "\"parent\": %lld}}%s\n",
                  r.name, r.start_us, r.end_us - r.start_us,
                  static_cast<unsigned long long>(r.id),
                  static_cast<long long>(r.parent),
                  i + 1 < records_.size() ? "," : "");
    out << buf;
  }
  out << "]}\n";
}

namespace {

/// Multiply-add flops (2 per MAC) of GNNTrans's dense and sparse products
/// for one sample, from the tensor shapes; elementwise ops (ReLU, softmax,
/// residual adds) are not counted.
double forward_flops(const nn::ModelConfig& c, const nn::GraphSample& s) {
  const double n = static_cast<double>(s.node_count);
  const double p = static_cast<double>(s.path_count);
  const double d = static_cast<double>(c.hidden_dim);
  const double m = static_cast<double>(c.mlp_hidden);
  double flops = 0.0;
  for (std::size_t l = 0; l < c.gnn_layers; ++l) {
    const double in = l == 0 ? static_cast<double>(c.node_feature_dim) : d;
    // own = X W_self, neigh = (A X) W_neigh
    flops += 2.0 * (2.0 * n * in * d +
                    static_cast<double>(s.weighted_adj.nnz()) * in);
  }
  // Per layer: Q, K, V over all heads (3 n d d), scores and attn*V
  // (2 n n d over all heads), and W3 (n d d).
  flops += static_cast<double>(c.transformer_layers) * 2.0 *
           (4.0 * n * d * d + 2.0 * n * n * d);
  flops += 2.0 * static_cast<double>(s.path_pool.nnz()) * d;  // path pooling
  const double repr = d + static_cast<double>(c.path_feature_dim);
  flops += 2.0 * p * (repr * m + m * m + m);          // slew head
  flops += 2.0 * p * ((repr + 1.0) * m + m * m + m);  // delay head
  return flops;
}

/// Forward passes per second over \p samples on \p threads threads, each
/// thread running every sample with its own workspace.
double forward_rate(const nn::WireModel& model,
                    const std::vector<nn::GraphSample>& samples,
                    std::size_t threads) {
  const auto t0 = Clock::now();
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t)
    workers.emplace_back([&] {
      const tensor::NoGradGuard no_grad;
      nn::Workspace ws;
      for (const nn::GraphSample& s : samples) (void)model.forward(s, &ws);
    });
  for (std::thread& w : workers) w.join();
  return static_cast<double>(threads * samples.size()) / seconds_since(t0);
}

/// estimate_batch nets per second over \p items at \p threads workers.
double estimate_rate(const core::WireTimingEstimator& est,
                     std::span<const core::NetBatchItem> items,
                     std::size_t threads) {
  core::ThreadPool pool(threads);
  std::vector<nn::Workspace> workspaces;
  core::BatchOptions opts;
  opts.pool = &pool;
  opts.workspaces = &workspaces;
  (void)est.estimate_batch(items.first(std::min<std::size_t>(items.size(), 8)),
                           opts);  // warm the arenas
  const auto t0 = Clock::now();
  (void)est.estimate_batch(items, opts);
  return static_cast<double>(items.size()) / seconds_since(t0);
}

}  // namespace

LayerProbe probe_layers(const Fixture& fixture,
                        std::span<const core::NetBatchItem> items,
                        Tracer& tracer, Report& report) {
  const core::WireTimingEstimator& est = *fixture.estimator;
  const nn::WireModel& model = est.model();
  LayerProbe probe;
  nn::Workspace ws;
  std::vector<nn::Workspace> batch_ws;
  // CLI default budget, as in the workloads; one pair per pass.
  core::EstimateCache warm_cache, probe_cache;
  core::EstimateCache warm_insert, insert_cache;
  std::vector<nn::GraphSample> samples;
  double flops = 0.0;

  // Each net goes through the layers twice and only the second pass is
  // traced, so every layer call finds the net's data equally warm.
  Tracer off(false);
  for (std::size_t i = 0; i < items.size(); ++i)
    for (Tracer* t : {&off, &tracer}) {
      const rcnet::RcNet& net = *items[i].net;
      const features::NetContext& ctx = *items[i].context;
      const Tracer::Span net_span(*t, "net", i);
      std::uint64_t hash = 0;
      {
        const Tracer::Span s(*t, "rcnet.validate", i);
        if (!net.validate(&hash).empty()) report.fail(net.name + ": invalid net");
      }
      sim::WireAnalysis analysis;  // destroyed outside the span, as in
      {                            // extract_features, which keeps it
        const Tracer::Span s(*t, "sim.analyze_wire", i);
        analysis = sim::analyze_wire(net);
      }
      features::WireRecord rec;
      rec.net = net;
      rec.context = ctx;
      {
        const Tracer::Span s(*t, "features.extract_features", i);
        rec.raw = features::extract_features(net, ctx);
      }
      rec.non_tree = !net.is_tree();
      rec.slew_labels.assign(rec.raw.analysis.paths.size(), 0.0);
      rec.delay_labels.assign(rec.raw.analysis.paths.size(), 0.0);
      nn::GraphSample sample;
      {
        const Tracer::Span s(*t, "features.make_sample", i);
        sample = est.standardizer().make_sample(rec);
      }
      {
        const tensor::NoGradGuard no_grad;  // inference, as estimate_batch runs it
        const Tracer::Span s(*t, "nn.forward", i);
        (void)model.forward(sample, &ws);
      }

      // Single-net estimate_batch at T=1 with the cache attached: the first
      // pass misses and inserts, the traced pass uses a fresh cache again.
      core::EstimateCache& cache = t == &off ? warm_cache : probe_cache;
      core::BatchOptions opts;
      opts.workspaces = &batch_ws;
      opts.cache = &cache;
      std::vector<std::vector<core::PathEstimate>> served;
      {
        const Tracer::Span s(*t, "core.estimate_batch", i);
        served = est.estimate_batch(items.subspan(i, 1), opts);
      }
      if (const std::string why = check_estimate(net, served[0]); !why.empty())
        report.fail(why);

      const core::CacheKey key =
          core::EstimateCache::make_key(hash, features::content_hash(ctx));
      std::vector<core::PathEstimate> hit;
      bool found = false;
      {
        const Tracer::Span s(*t, "core.cache_lookup", i);
        found = cache.lookup(key, &hit);
      }
      if (!found || !same_bits(hit, served[0]))
        report.fail(net.name + ": cache hit differs from the model pass");
      core::EstimateCache& fresh = t == &off ? warm_insert : insert_cache;
      {
        const Tracer::Span s(*t, "core.cache_insert", i);
        fresh.insert(key, served[0]);
      }
      if (t == &tracer) {
        flops += forward_flops(model.config(), sample);
        if (samples.size() < 64) samples.push_back(std::move(sample));
      }
    }

  const double n = static_cast<double>(std::max<std::size_t>(1, items.size()));
  probe.validate_us = tracer.mean_us("rcnet.validate");
  probe.analyze_wire_us = tracer.mean_us("sim.analyze_wire");
  probe.extract_self_us =
      tracer.mean_us("features.extract_features") - probe.analyze_wire_us;
  probe.make_sample_us = tracer.mean_us("features.make_sample");
  probe.forward_us = tracer.mean_us("nn.forward");
  probe.estimate_us = tracer.mean_us("core.estimate_batch");
  probe.batch_self_us = probe.estimate_us -
                        (probe.validate_us + probe.analyze_wire_us +
                         probe.extract_self_us + probe.make_sample_us +
                         probe.forward_us);
  probe.forward_mflop = flops / n * 1e-6;
  probe.cache_lookup_us = tracer.mean_us("core.cache_lookup");
  probe.cache_insert_us = tracer.mean_us("core.cache_insert");

  // Scaling ratios: one and nproc threads alternate three times and the
  // median of each side is kept, so a burst of load on the box moves one
  // sample rather than the ratio.
  const std::size_t threads = nproc();
  std::vector<double> fwd_one, fwd_many, est_one, est_many;
  for (int rep = 0; rep < 3; ++rep) {
    const Tracer::Span s(tracer, "probe.scaling", rep);
    fwd_one.push_back(forward_rate(model, samples, 1));
    fwd_many.push_back(forward_rate(model, samples, threads));
    est_one.push_back(estimate_rate(est, items, 1));
    est_many.push_back(estimate_rate(est, items, threads));
  }
  probe.forward_scaling = quantile(fwd_many, 0.5) /
                          (static_cast<double>(threads) * quantile(fwd_one, 0.5));
  probe.thread_scaling = quantile(est_many, 0.5) / quantile(est_one, 0.5);
  return probe;
}

void report_probe(const LayerProbe& p, Report& report) {
  report.layer("rcnet.validate_us", p.validate_us, "us");
  report.layer("sim.analyze_wire_us", p.analyze_wire_us, "us");
  report.layer("sim.analyze_wire_share_pct",
               p.estimate_us > 0.0 ? 100.0 * p.analyze_wire_us / p.estimate_us
                                   : 0.0,
               "%");
  report.layer("features.extract_self_us", p.extract_self_us, "us");
  report.layer("features.make_sample_us", p.make_sample_us, "us");
  report.layer("nn.forward_us", p.forward_us, "us");
  report.layer("nn.forward_share_pct",
               p.estimate_us > 0.0 ? 100.0 * p.forward_us / p.estimate_us : 0.0,
               "%");
  report.layer("nn.forward_mflop", p.forward_mflop, "MFLOP");
  report.layer("nn.forward_gflops",
               p.forward_us > 0.0 ? p.forward_mflop / p.forward_us * 1e3 : 0.0,
               "GFLOP/s");
  report.layer("nn.forward_scaling", p.forward_scaling, "ratio");
  report.layer("core.estimate_us", p.estimate_us, "us");
  report.layer("core.batch_self_us", p.batch_self_us, "us");
  report.layer("core.thread_scaling", p.thread_scaling, "ratio");
  report.layer("core.cache_lookup_us", p.cache_lookup_us, "us");
  report.layer("core.cache_insert_us", p.cache_insert_us, "us");
}

void report_inference_stats(const core::InferenceStats& s, Report& report) {
  const double acquisitions =
      static_cast<double>(s.arena_reused_buffers + s.arena_fresh_allocs);
  report.layer("tensor.arena_reuse_ratio",
               acquisitions > 0.0
                   ? static_cast<double>(s.arena_reused_buffers) / acquisitions
                   : 0.0,
               "ratio");
  report.layer("core.degraded_nets",
               static_cast<double>(s.fallback_nets + s.failed_nets), "count");
}

void print_self_time_table(const std::string& workload, const Tracer& tracer,
                           double trace_overhead_pct) {
  std::printf("\nper-layer self time, workload %s (trace overhead %.2f%%)\n",
              workload.c_str(), trace_overhead_pct);
  std::printf("%-28s %10s %14s %14s %14s\n", "span", "count", "total_ms",
              "self_ms", "mean_us");
  for (const auto& [name, t] : tracer.totals())
    std::printf("%-28s %10zu %14.3f %14.3f %14.3f\n", name.c_str(), t.count,
                t.total_us * 1e-3, t.self_us * 1e-3,
                t.total_us / static_cast<double>(t.count));
}

}  // namespace perfbench
