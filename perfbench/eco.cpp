// eco_retime: the paper's motivating loop. A generated design is timed
// through EstimatorWireSource with the cache on: seeded random ECO edits
// through IncrementalSta, each retiming its cone with single-net time_net
// calls, and between them cold full run_sta passes of the generated design,
// each with a fresh cache (the Table V flow). Every kVerifyEvery edits a
// warm full run_sta re-times the edited design, mostly from the cache, and
// must equal the incremental state bit for bit.
#include <cstdio>
#include <cstring>
#include <optional>
#include <unordered_map>

#include "core/estimate_cache.hpp"
#include "netlist/generate.hpp"
#include "netlist/incremental.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Cold full passes per run, spread evenly over the edits.
constexpr std::size_t kColdPasses = 100;
/// Edits run in episodes that each start from the generated design, so the
/// design does not grow without bound and every edit draws from the same
/// distribution of cones; a warm full run_sta checks every kVerifyEvery.
constexpr std::size_t kEpisodeEdits = 100;
constexpr std::size_t kVerifyEvery = 50;
/// Edits per second of --seconds: the edit count is fixed by the options,
/// not by how fast the edits run, so every run applies the same edits.
constexpr double kEditsPerSecond = 300.0;
/// The design is the same in every run; --seed drives the edits.
constexpr std::uint64_t kDesignSeed = 1;

/// A benchmark-owned WireTimingSource between the STA engine and the
/// estimator: it counts the calls, sizes the level batches, times the wire
/// share and keeps a copy of the first requests for the layer probe.
class ForwardingSource final : public netlist::WireTimingSource {
 public:
  ForwardingSource(core::EstimatorWireSource& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  std::vector<sim::SinkTiming> time_net(const rcnet::RcNet& net,
                                        double input_slew,
                                        double driver_resistance) override {
    ++net_calls;
    const auto t0 = Clock::now();
    const Tracer::Span span(tracer_, "core.time_net", net_calls);
    auto out = inner_.time_net(net, input_slew, driver_resistance);
    wire_seconds += seconds_since(t0);
    return out;
  }

  std::vector<std::vector<sim::SinkTiming>> time_nets(
      std::span<const netlist::WireTimingRequest> requests) override {
    level_batches.push_back(static_cast<double>(requests.size()));
    for (const netlist::WireTimingRequest& r : requests)
      if (captured.size() < kCaptured)
        captured.push_back({*r.net, r.input_slew, r.driver_resistance});
    const auto t0 = Clock::now();
    const Tracer::Span span(tracer_, "core.time_nets", level_batches.size());
    auto out = inner_.time_nets(requests);
    wire_seconds += seconds_since(t0);
    return out;
  }

  std::string name() const override { return inner_.name(); }

  static constexpr std::size_t kCaptured = 128;
  struct Captured {
    rcnet::RcNet net;
    double input_slew = 0.0;
    double driver_resistance = 0.0;
  };
  std::uint64_t net_calls = 0;
  double wire_seconds = 0.0;
  std::vector<double> level_batches;  ///< requests per time_nets call
  std::vector<Captured> captured;

 private:
  core::EstimatorWireSource& inner_;
  Tracer& tracer_;
};

bool bitwise_equal(const netlist::StaResult& a, const netlist::StaResult& b) {
  const auto eq = [](const std::vector<double>& x, const std::vector<double>& y) {
    return x.size() == y.size() &&
           (x.empty() ||
            std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
  };
  return eq(a.arrival, b.arrival) && eq(a.slew, b.slew) &&
         eq(a.required, b.required) && eq(a.slack, b.slack) &&
         a.arrival_settled == b.arrival_settled &&
         eq(a.endpoint_arrival, b.endpoint_arrival) &&
         eq(a.endpoint_slack, b.endpoint_slack);
}

/// The estimator context of a design net, derived as EstimatorWireSource
/// derives it: the request's slew and drive, plus driver and load cells.
features::NetContext design_context(const netlist::Design& design,
                                    const cell::CellLibrary& library,
                                    const netlist::DesignNet& net,
                                    double input_slew, double driver_resistance) {
  features::NetContext ctx;
  ctx.input_slew = input_slew;
  ctx.driver_resistance = driver_resistance;
  const cell::Cell& driver = library.at(design.instances[net.driver].cell_index);
  ctx.driver_strength = driver.drive_strength;
  ctx.driver_function = static_cast<std::uint32_t>(driver.function);
  for (const netlist::InstanceId load : net.loads) {
    const cell::Cell& lc = library.at(design.instances[load].cell_index);
    ctx.loads.push_back(
        {lc.drive_strength, static_cast<std::uint32_t>(lc.function), lc.input_cap});
  }
  return ctx;
}

struct EcoRun {
  std::vector<double> cold_ms, warm_ms, edit_ms, edit_wire_ms, cone, retimed;
  std::vector<double> traced_edit_ms;  ///< edits traced in a traced run
  std::vector<double> wire_share, level_batches;
  std::uint64_t warm_hits = 0, warm_lookups = 0;
  core::InferenceStats stats;
  NetSet probe;
  std::size_t nets = 0;
};

EcoRun eco_loop(const Options& options, const Fixture& fixture,
                const netlist::Design& design,
                const netlist::DesignGenConfig& dcfg, std::size_t edits,
                Tracer& tracer, Report& report) {
  const cell::CellLibrary& library = fixture.library;
  EcoRun run;
  run.nets = design.nets.size();
  core::EstimatorWireSource inner(*fixture.estimator, design, library,
                                  workers());
  ForwardingSource source(inner, tracer);
  // The cold passes have a source of their own, so each can start from an
  // empty cache while the edits keep theirs.
  core::EstimatorWireSource cold_inner(*fixture.estimator, design, library,
                                       workers());
  ForwardingSource cold_source(cold_inner, tracer);
  const core::EstimateCacheConfig cache_cfg;  // the CLI default budget

  inner.enable_cache(cache_cfg);  // kept by the edits for the whole run
  // Warm-up pass: creates the pool and its arenas.
  cold_inner.enable_cache(cache_cfg);
  const netlist::StaResult first =
      netlist::run_sta(design, library, cold_source);
  cold_source.level_batches.clear();
  const auto cold_pass = [&] {
    const std::size_t c = run.cold_ms.size();
    cold_inner.enable_cache(cache_cfg);  // fresh, empty cache
    netlist::StaResult cold;
    const auto t0 = Clock::now();
    {
      const Tracer::Span span(tracer, "netlist.run_sta_cold", c);
      cold = netlist::run_sta(design, library, cold_source);
    }
    run.cold_ms.push_back(seconds_since(t0) * 1e3);
    run.wire_share.push_back(cold.wire_seconds /
                             (cold.gate_seconds + cold.wire_seconds));
    if (!bitwise_equal(cold, first))
      report.fail("cold run_sta pass " + std::to_string(c) + " differs");
  };

  std::unordered_map<std::string, std::size_t> by_name;
  for (std::size_t i = 0; i < design.nets.size(); ++i)
    by_name.emplace(design.nets[i].rc.name, i);
  for (const ForwardingSource::Captured& c : cold_source.captured) {
    const auto it = by_name.find(c.net.name);
    if (it == by_name.end()) continue;
    run.probe.contexts.push_back(design_context(
        design, library, design.nets[it->second], c.input_slew,
        c.driver_resistance));
    run.probe.nets.push_back(c.net);
  }

  std::optional<netlist::IncrementalSta> inc;
  std::mt19937_64 rng(options.seed * 0x9e3779b97f4a7c15ULL + 4);
  // In a traced run every other edit is traced, so traced and untraced edits
  // see the same box and the same design growth.
  const bool traced_run = tracer.enabled();
  // The cold passes are spread over the whole run, so a stretch of load from
  // another tenant moves a few of them rather than all.
  const std::size_t cold_every = std::max<std::size_t>(1, edits / kColdPasses);
  for (std::size_t e = 0; e < edits; ++e) {
    tracer.set_enabled(traced_run);
    if (e % cold_every == 0) cold_pass();
    if (e % kEpisodeEdits == 0) {
      inner.rebind(design);
      inc.emplace(design, library, source);
      inner.rebind(inc->design());
    }
    tracer.set_enabled(traced_run && e % 2 == 0);
    const std::uint64_t calls0 = source.net_calls;
    const double wire0 = source.wire_seconds;
    std::size_t cone = 0;
    const auto t0 = Clock::now();
    {
      const Tracer::Span span(tracer, "netlist.edit", e);
      const netlist::EcoEdit edit =
          netlist::apply_random_edit(*inc, library, rng, dcfg.net_config);
      cone = edit.retimed;
      if (edit.kind == netlist::EcoEdit::Kind::kInsertBuffer) {
        // As the CLI's eco flow does: re-point the source at the new net and
        // refresh both nets under their rebound contexts.
        inner.rebind(inc->design());
        const std::uint32_t touched[2] = {
            edit.net, static_cast<std::uint32_t>(inc->design().nets.size() - 1)};
        for (const std::uint32_t net_idx : touched)
          cone += inc->reroute_net(net_idx, inc->design().nets[net_idx].rc);
      }
    }
    const double edit_ms = seconds_since(t0) * 1e3;
    run.edit_ms.push_back(edit_ms);
    if (tracer.enabled()) run.traced_edit_ms.push_back(edit_ms);
    tracer.set_enabled(traced_run);
    run.edit_wire_ms.push_back((source.wire_seconds - wire0) * 1e3);
    run.cone.push_back(static_cast<double>(cone));
    run.retimed.push_back(static_cast<double>(source.net_calls - calls0));
    report.attempt();

    if ((e + 1) % kVerifyEvery != 0 && e + 1 != edits) continue;
    const core::EstimateCacheStats before = inner.cache()->stats();
    netlist::StaResult full;
    const auto w0 = Clock::now();
    {
      const Tracer::Span span(tracer, "netlist.run_sta_warm", e);
      full = netlist::run_sta(inc->design(), library, source);
    }
    run.warm_ms.push_back(seconds_since(w0) * 1e3);
    const core::EstimateCacheStats after = inner.cache()->stats();
    run.warm_hits += after.hits - before.hits;
    run.warm_lookups += (after.hits + after.misses) - (before.hits + before.misses);
    if (!full.arrival.empty()) maybe_flip(options, full.arrival.back());
    if (!bitwise_equal(inc->result(), full))
      report.fail("edit " + std::to_string(e) +
                  ": incremental state differs from a full run_sta");
  }
  run.level_batches = cold_source.level_batches;
  run.stats = inner.stats();
  return run;
}

void report_layers(EcoRun& run, Report& report) {
  report.layer("netlist.sta_wire_share", quantile(run.wire_share, 0.5), "ratio");
  report.layer("netlist.sta_level_batch_p50", quantile(run.level_batches, 0.5),
               "count");
  report.layer("netlist.sta_warm_ms", quantile(run.warm_ms, 0.5), "ms");
  report.layer("netlist.edit_cone", mean(run.cone), "count");
  report.layer("netlist.edit_nets_retimed", mean(run.retimed), "count");
  report.layer("netlist.edit_wire_ms", mean(run.edit_wire_ms), "ms");
  report.layer("netlist.edit_self_ms",
               mean(run.edit_ms) - mean(run.edit_wire_ms), "ms");
  report.layer("core.cache_hit_ratio",
               run.warm_lookups == 0
                   ? 0.0
                   : static_cast<double>(run.warm_hits) /
                         static_cast<double>(run.warm_lookups),
               "ratio");
  report_inference_stats(run.stats, report);
}

}  // namespace

void run_eco_retime(const Options& options, const Fixture& fixture,
                    Report& report) {
  netlist::DesignGenConfig dcfg;  // 24 startpoints, 7 levels, 24 cells/level
  dcfg.seed = kDesignSeed;
  const netlist::Design design =
      netlist::generate_design(dcfg, fixture.library, "eco");
  const auto edits = static_cast<std::size_t>(
      std::max(20.0, kEditsPerSecond * options.seconds));
  Tracer off(false);

  if (!options.trace) {
    EcoRun run = eco_loop(options, fixture, design, dcfg, edits, off, report);
    report.e2e("nets_per_s",
               static_cast<double>(run.nets) / (quantile(run.cold_ms, 0.5) * 1e-3),
               "1/s");
    const double p90 = quarters_quantile(run.edit_ms, 0.90);
    report.e2e("p50_ms", quantile(run.edit_ms, 0.50), "ms");
    report.e2e("p90_ms", p90, "ms");
    std::printf("design: %zu instances, %zu nets; %zu edits, edit p99 %.3f ms; "
                "warm run_sta median %.3f ms over %zu passes\n",
                design.instances.size(), design.nets.size(), edits,
                quantile(run.edit_ms, 0.99), quantile(run.warm_ms, 0.5),
                run.warm_ms.size());
    return;
  }

  Tracer tracer(true);
  EcoRun traced = eco_loop(options, fixture, design, dcfg, edits, tracer, report);
  std::vector<double> untraced_ms;
  for (std::size_t e = 1; e < traced.edit_ms.size(); e += 2)
    untraced_ms.push_back(traced.edit_ms[e]);
  const double overhead_pct =
      100.0 * (quantile(traced.traced_edit_ms, 0.5) / quantile(untraced_ms, 0.5) - 1.0);
  const std::vector<core::NetBatchItem> probe_items = traced.probe.items();
  report_probe(probe_layers(fixture, probe_items, tracer, report), report);
  report_layers(traced, report);
  report.layer("bench.trace_overhead_pct", overhead_pct, "%");
  tracer.write_chrome_json(trace_path(options));
  print_self_time_table(options.workload, tracer, overhead_pct);
}

}  // namespace perfbench
