/// \file sta.hpp
/// Static timing analysis over a Design: NLDM gate timing + pluggable wire
/// timing (golden transient sim, learned estimator, or analytical metric).
///
/// The wire timing source is the experiment variable of the paper's Table V:
/// swapping the golden simulator for the GNNTrans estimator must preserve
/// endpoint arrival times while slashing the wire-timing runtime.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cell/library.hpp"
#include "netlist/design.hpp"
#include "sim/golden.hpp"
#include "sim/transient.hpp"

namespace gnntrans::netlist {

/// One net timing request: the batch form of time_net's argument list. The
/// pointed-to net must outlive the time_nets call.
struct WireTimingRequest {
  const rcnet::RcNet* net = nullptr;
  double input_slew = 0.0;
  double driver_resistance = 0.0;
};

/// Strategy interface: who computes per-sink wire delay/slew.
class WireTimingSource {
 public:
  virtual ~WireTimingSource() = default;

  /// Returns one SinkTiming per net sink (order matches net.sinks).
  [[nodiscard]] virtual std::vector<sim::SinkTiming> time_net(
      const rcnet::RcNet& net, double input_slew, double driver_resistance) = 0;

  /// Times a batch of independent nets; result[i] answers requests[i]. The
  /// STA engine hands over one batch per topological level, so batched
  /// sources (threading, activation-slab reuse) amortize across nets. The
  /// default implementation loops time_net — identical results, no batching.
  [[nodiscard]] virtual std::vector<std::vector<sim::SinkTiming>> time_nets(
      std::span<const WireTimingRequest> requests) {
    std::vector<std::vector<sim::SinkTiming>> out;
    out.reserve(requests.size());
    for (const WireTimingRequest& r : requests)
      out.push_back(time_net(*r.net, r.input_slew, r.driver_resistance));
    return out;
  }

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Golden sign-off wire timing (transient simulation with SI).
class GoldenWireSource final : public WireTimingSource {
 public:
  GoldenWireSource() = default;
  explicit GoldenWireSource(sim::TransientConfig config) : timer_(config) {}

  [[nodiscard]] std::vector<sim::SinkTiming> time_net(
      const rcnet::RcNet& net, double input_slew,
      double driver_resistance) override {
    return timer_.time_net(net, input_slew, driver_resistance).sinks;
  }
  [[nodiscard]] std::string name() const override { return "STA-SI(golden)"; }
  [[nodiscard]] const sim::GoldenStats& stats() const noexcept {
    return timer_.stats();
  }

 private:
  sim::GoldenTimer timer_;
};

/// STA knobs.
struct StaConfig {
  double launch_slew = 3.0e-11;  ///< seconds, clock slew at launch FFs
  /// Evaluate NLDM arcs against the effective capacitance (pi-model reduction
  /// + average-current matching) instead of the total load capacitance.
  /// Resistively shielded nets then stress the driver less — the sign-off
  /// behaviour — at the cost of one moment solve per net.
  bool use_ceff = false;
  /// Required time at every endpoint's D pin (the single-clock setup
  /// constraint); seeds the backward required/slack propagation.
  double required_time = 1.0e-9;  ///< seconds
  /// Incremental-STA propagation cutoff: a re-evaluated quantity whose change
  /// is <= this stops the frontier. 0 (the default) propagates every bit-level
  /// change, which is what makes incremental results *bitwise* equal to a full
  /// run_sta; a loose tolerance trades that exactness for smaller cones.
  double incremental_tolerance = 0.0;  ///< seconds
};

/// Per-sink wire timing recorded while run_sta scattered a net, so callers
/// (the incremental engine) can seed per-pin state without re-timing every
/// net. nets[i][s] answers design.nets[i].rc.sinks[s].
struct StaWireTable {
  struct Sink {
    double delay = 0.0;    ///< seconds, driver output to this sink
    double slew = 0.0;     ///< seconds at the sink
    bool settled = false;  ///< the wire source's own settledness flag
  };
  std::vector<std::vector<Sink>> nets;
};

/// Full-design arrival report.
struct StaResult {
  /// Arrival / slew at each instance's output (combinational and launch FFs)
  /// or at its D pin (endpoints). Unreached instances stay at 0.
  std::vector<double> arrival;
  std::vector<double> slew;
  /// Required time / slack at the same pin arrival is measured at, from the
  /// backward pass seeded with StaConfig::required_time at every endpoint:
  /// required[v] = min over driven-net sinks s of
  ///   (required[load_s] - gate_delay[load_s]) - wire_delay_s,
  /// and slack[v] = required[v] - arrival[v].
  std::vector<double> required;
  std::vector<double> slack;
  /// Arrival / slack at each endpoint, aligned with design.endpoints.
  std::vector<double> endpoint_arrival;
  std::vector<double> endpoint_slack;

  /// Per-instance settledness of the arrival: 0 when the critical path ran
  /// through a wire sink its source could not settle — an estimator net that
  /// fell off the degradation ladder (kFailed, delay 0), or a transient
  /// window that never crossed 80% of vdd. Such arrivals are optimistic
  /// lower bounds, not timing; run_sta propagates the taint downstream and
  /// WARNs instead of silently accepting the zero delay. Filled by run_sta
  /// and kept current by IncrementalSta: cone retimes re-derive the flag
  /// wherever a contribution changed, so a sink healed by a reroute recovers
  /// to settled while an untouched unsettled sink stays tainted.
  std::vector<std::uint8_t> arrival_settled;
  /// Wire sinks delivered with settled == false across the whole run.
  std::size_t unsettled_sinks = 0;

  // Critical-path trace (per instance): which fanin determined the arrival.
  static constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);
  /// Net that delivered the critical input (kNone for startpoints).
  std::vector<std::uint32_t> critical_net;
  /// Wire delay of the critical sink on that net.
  std::vector<double> critical_wire_delay;
  /// Gate delay applied at this instance (clock-to-q for startpoints; 0 for
  /// endpoints, whose D pin terminates the path).
  std::vector<double> gate_delay;

  double gate_seconds = 0.0;  ///< wall time in NLDM evaluation + propagation
  double wire_seconds = 0.0;  ///< wall time inside the wire timing source
};

/// Propagates arrivals through \p design in level order, then required times
/// and slacks in reverse level order. When \p wire_table is non-null it is
/// filled with the per-net per-sink wire timings the run observed (one entry
/// per net, in design.nets order).
[[nodiscard]] StaResult run_sta(const Design& design,
                                const cell::CellLibrary& library,
                                WireTimingSource& wire_source,
                                const StaConfig& config = {},
                                StaWireTable* wire_table = nullptr);

/// Load capacitance the NLDM arc of \p driver sees for \p net under
/// \p config: total cap + pin caps, or the shielding-aware effective
/// capacitance when config.use_ceff is set. Shared by run_sta and
/// IncrementalSta so both load models stay identical.
[[nodiscard]] double nldm_load_cap(const Design& design,
                                   const cell::CellLibrary& library,
                                   const DesignNet& net, const cell::Cell& driver,
                                   double input_slew, const StaConfig& config);

/// Counts source-to-endpoint paths through the instance DAG (Fig. 2(a));
/// returned as double because the count grows exponentially with depth.
[[nodiscard]] double count_netlist_paths(const Design& design);

}  // namespace gnntrans::netlist
