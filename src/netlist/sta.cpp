#include "netlist/sta.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <numeric>

#include "core/telemetry/telemetry.hpp"
#include "sim/ceff.hpp"

namespace gnntrans::netlist {

namespace {

using Clock = std::chrono::steady_clock;

/// STA metrics: level/net progress counters plus the wire-vs-cell wall split
/// of the most recent run (gauges, seconds).
struct StaMetrics {
  telemetry::Counter levels = telemetry::MetricsRegistry::global().counter(
      "gnntrans_sta_levels_total", "Topological levels propagated");
  telemetry::Counter wire_nets = telemetry::MetricsRegistry::global().counter(
      "gnntrans_sta_wire_nets_total", "Nets handed to the wire timing source");
  telemetry::Gauge gate_seconds = telemetry::MetricsRegistry::global().gauge(
      "gnntrans_sta_gate_seconds", "NLDM gate timing wall time of the last run");
  telemetry::Gauge wire_seconds = telemetry::MetricsRegistry::global().gauge(
      "gnntrans_sta_wire_seconds",
      "Wire-timing-source wall time of the last run");

  static const StaMetrics& get() {
    static const StaMetrics metrics;
    return metrics;
  }
};

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Effective load seen by a driver: net wire cap + load pin caps.
double net_load_cap(const Design& design, const cell::CellLibrary& library,
                    const DesignNet& net) {
  double cap = net.rc.total_ground_cap();
  for (InstanceId load : net.loads)
    cap += library.at(design.instances[load].cell_index).input_cap;
  return cap;
}

/// Shielding-aware load: pi-reduce the wire (with load pin caps folded onto
/// the sinks) and match average current over the driver transition. One
/// refinement iteration resolves the transition/Ceff interdependence.
double net_effective_cap(const Design& design, const cell::CellLibrary& library,
                         const DesignNet& net, const cell::Cell& driver,
                         double input_slew) {
  rcnet::RcNet loaded = net.rc;
  for (std::size_t s = 0; s < net.loads.size(); ++s)
    loaded.ground_cap[loaded.sinks[s]] +=
        library.at(design.instances[net.loads[s]].cell_index).input_cap;

  const sim::PiModel pi = sim::reduce_to_pi(loaded);
  double transition =
      driver.arc.output_slew.lookup(input_slew, pi.total_cap()) / 0.6;
  double ceff = sim::effective_capacitance(pi, transition);
  // Refine once: a lighter load shortens the transition, which raises Ceff.
  transition = driver.arc.output_slew.lookup(input_slew, ceff) / 0.6;
  return sim::effective_capacitance(pi, transition);
}

}  // namespace

double nldm_load_cap(const Design& design, const cell::CellLibrary& library,
                     const DesignNet& net, const cell::Cell& driver,
                     double input_slew, const StaConfig& config) {
  return config.use_ceff
             ? net_effective_cap(design, library, net, driver, input_slew)
             : net_load_cap(design, library, net);
}

StaResult run_sta(const Design& design, const cell::CellLibrary& library,
                  WireTimingSource& wire_source, const StaConfig& config,
                  StaWireTable* wire_table) {
  const telemetry::TraceSpan sta_span("run_sta", "sta");
  const std::size_t n = design.instances.size();
  StaResult result;
  result.arrival.assign(n, 0.0);
  result.slew.assign(n, config.launch_slew);
  result.arrival_settled.assign(n, 1);
  result.critical_net.assign(n, StaResult::kNone);
  result.critical_wire_delay.assign(n, 0.0);
  result.gate_delay.assign(n, 0.0);

  // Per-net per-sink wire timing, recorded as nets are scattered; feeds the
  // backward required-time pass and, via \p wire_table, the incremental
  // engine's per-pin seed state.
  StaWireTable table;
  table.nets.resize(design.nets.size());

  // Best (latest) arrival seen at each instance's data input so far, and
  // whether that arrival is trustworthy (critical fanin settled all the way).
  std::vector<double> in_arrival(n, -1.0);
  std::vector<double> in_slew(n, config.launch_slew);
  std::vector<std::uint8_t> in_settled(n, 1);

  // Process instances level by level; fanin always comes from lower levels.
  std::vector<InstanceId> order(n);
  std::iota(order.begin(), order.end(), InstanceId{0});
  std::stable_sort(order.begin(), order.end(), [&](InstanceId a, InstanceId b) {
    return design.instances[a].level < design.instances[b].level;
  });

  std::vector<bool> is_startpoint(n, false);
  for (InstanceId s : design.startpoints) is_startpoint[s] = true;

  const auto gate_start = Clock::now();
  double wire_total = 0.0;

  // Process one topological level at a time. Every fanin of a level-L
  // instance sits at a level < L (levels are longest-path depths), so all
  // wire requests of a level are independent and can be served as one batch —
  // this is where batched sources (estimator threading + slab reuse)
  // amortize across nets. Results are identical to the per-net loop.
  std::size_t block_start = 0;
  std::vector<WireTimingRequest> requests;
  std::vector<InstanceId> request_owner;  ///< driver instance per request
  while (block_start < order.size()) {
    const std::uint32_t level = design.instances[order[block_start]].level;
    std::size_t block_end = block_start;
    while (block_end < order.size() &&
           design.instances[order[block_end]].level == level)
      ++block_end;

    char level_name[32];
    std::snprintf(level_name, sizeof(level_name), "sta_level_%u", level);
    const telemetry::TraceSpan level_span(level_name, "sta");

    // Pass 1: gate timing for every instance of the level; collect the wire
    // timing requests its driven nets generate. (The gate span is recorded
    // explicitly: an RAII span here would not close until the wire pass ran.)
    telemetry::TraceRecorder& recorder = telemetry::TraceRecorder::global();
    const std::int64_t gate_begin =
        recorder.enabled() ? recorder.now_ns() : -1;
    requests.clear();
    request_owner.clear();
    for (std::size_t k = block_start; k < block_end; ++k) {
      const InstanceId v = order[k];
      const cell::Cell& c = library.at(design.instances[v].cell_index);
      const std::uint32_t net_idx = design.driven_net[v];

      if (net_idx == Design::kNoNet) {
        // Endpoint: arrival at the D pin is what Table V compares.
        result.arrival[v] = std::max(0.0, in_arrival[v]);
        result.slew[v] = in_slew[v];
        result.arrival_settled[v] = in_settled[v];
        continue;
      }
      const DesignNet& net = design.nets[net_idx];
      const double pin_slew_for_ceff =
          is_startpoint[v] ? config.launch_slew : in_slew[v];
      const double load_cap =
          nldm_load_cap(design, library, net, c, pin_slew_for_ceff, config);

      if (is_startpoint[v]) {
        // Launch FF: clock-to-q through the NLDM arc under the clock slew.
        result.gate_delay[v] = c.arc.delay.lookup(config.launch_slew, load_cap);
        result.arrival[v] = result.gate_delay[v];
        result.slew[v] = c.arc.output_slew.lookup(config.launch_slew, load_cap);
      } else {
        const double pin_arrival = std::max(0.0, in_arrival[v]);
        const double pin_slew = in_slew[v];
        result.gate_delay[v] = c.arc.delay.lookup(pin_slew, load_cap);
        result.arrival[v] = pin_arrival + result.gate_delay[v];
        result.slew[v] = c.arc.output_slew.lookup(pin_slew, load_cap);
        result.arrival_settled[v] = in_settled[v];
      }
      requests.push_back({&net.rc, result.slew[v], c.drive_resistance});
      request_owner.push_back(v);
    }

    if (gate_begin >= 0)
      recorder.record("gate_timing", "sta", gate_begin, recorder.now_ns());
    StaMetrics::get().levels.inc();
    StaMetrics::get().wire_nets.inc(requests.size());

    // Pass 2: wire propagation for the whole level in one batch.
    const auto wire_start = Clock::now();
    std::vector<std::vector<sim::SinkTiming>> sink_batches;
    {
      const telemetry::TraceSpan wire_span("wire_timing", "sta");
      sink_batches = wire_source.time_nets(requests);
    }
    wire_total += seconds_since(wire_start);

    // Pass 3: scatter sink timings to the load pins (all at higher levels).
    for (std::size_t r = 0; r < sink_batches.size(); ++r) {
      const InstanceId v = request_owner[r];
      const std::uint32_t net_idx = design.driven_net[v];
      const DesignNet& net = design.nets[net_idx];
      const std::vector<sim::SinkTiming>& sinks = sink_batches[r];
      table.nets[net_idx].resize(std::min(net.loads.size(), sinks.size()));
      for (std::size_t s = 0; s < net.loads.size() && s < sinks.size(); ++s) {
        table.nets[net_idx][s] = {sinks[s].delay, sinks[s].slew,
                                  sinks[s].settled};
        const InstanceId load = net.loads[s];
        if (!sinks[s].settled) ++result.unsettled_sinks;
        const double arr = result.arrival[v] + sinks[s].delay;
        if (arr > in_arrival[load]) {
          in_arrival[load] = arr;
          in_slew[load] = sinks[s].slew;
          // Taint tracking: an unsettled sink (a failed estimator net's zero
          // delay, or a transient that never crossed 80%) still propagates
          // its lower-bound arrival, but everything downstream is flagged so
          // the corruption is never silent.
          in_settled[load] =
              sinks[s].settled && result.arrival_settled[v] ? 1 : 0;
          result.critical_net[load] = net_idx;
          result.critical_wire_delay[load] = sinks[s].delay;
        }
      }
    }
    block_start = block_end;
  }

  result.wire_seconds = wire_total;
  result.gate_seconds = seconds_since(gate_start) - wire_total;
  StaMetrics::get().wire_seconds.set(result.wire_seconds);
  StaMetrics::get().gate_seconds.set(result.gate_seconds);

  if (result.unsettled_sinks > 0) {
    std::size_t tainted = 0;
    for (const std::uint8_t s : result.arrival_settled) tainted += s == 0;
    GNNTRANS_LOG_WARN(
        "sta",
        "%zu wire sink(s) arrived unsettled; %zu downstream arrival(s) are "
        "optimistic lower bounds (flagged in arrival_settled)",
        result.unsettled_sinks, tainted);
  }

  // Backward pass: required times in reverse level order, seeded by the setup
  // constraint at every endpoint (instances that drive nothing keep it). The
  // per-sink expression and its evaluation order are the contract the
  // incremental engine reproduces bitwise, so do not reassociate it.
  result.required.assign(n, config.required_time);
  for (std::size_t k = order.size(); k-- > 0;) {
    const InstanceId v = order[k];
    const std::uint32_t net_idx = design.driven_net[v];
    if (net_idx == Design::kNoNet) continue;
    const DesignNet& net = design.nets[net_idx];
    const std::vector<StaWireTable::Sink>& sinks = table.nets[net_idx];
    double req = std::numeric_limits<double>::infinity();
    for (std::size_t s = 0; s < net.loads.size() && s < sinks.size(); ++s) {
      const InstanceId load = net.loads[s];
      req = std::min(req, (result.required[load] - result.gate_delay[load]) -
                              sinks[s].delay);
    }
    result.required[v] = req;
  }
  result.slack.resize(n);
  for (std::size_t v = 0; v < n; ++v)
    result.slack[v] = result.required[v] - result.arrival[v];

  result.endpoint_arrival.reserve(design.endpoints.size());
  result.endpoint_slack.reserve(design.endpoints.size());
  for (InstanceId e : design.endpoints) {
    result.endpoint_arrival.push_back(result.arrival[e]);
    result.endpoint_slack.push_back(result.slack[e]);
  }
  if (wire_table) *wire_table = std::move(table);
  return result;
}

double count_netlist_paths(const Design& design) {
  const std::size_t n = design.instances.size();
  std::vector<double> dp(n, 0.0);
  for (InstanceId s : design.startpoints) dp[s] = 1.0;

  std::vector<InstanceId> order(n);
  std::iota(order.begin(), order.end(), InstanceId{0});
  std::stable_sort(order.begin(), order.end(), [&](InstanceId a, InstanceId b) {
    return design.instances[a].level < design.instances[b].level;
  });

  for (InstanceId v : order) {
    const std::uint32_t net_idx = design.driven_net[v];
    if (net_idx == Design::kNoNet || dp[v] == 0.0) continue;
    for (InstanceId load : design.nets[net_idx].loads) dp[load] += dp[v];
  }

  double total = 0.0;
  for (InstanceId e : design.endpoints) total += dp[e];
  return total;
}

}  // namespace gnntrans::netlist
