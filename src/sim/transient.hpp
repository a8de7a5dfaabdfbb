/// \file transient.hpp
/// Golden transient simulation of RC nets (the PrimeTime-SI substitute).
///
/// Solves C dv/dt = -G v + b(t) by the trapezoidal rule with a single sparse
/// LDLᵀ factorization (linalg/tree_ldlt.hpp), so each step costs O(n) plus
/// loop fill. The driver is an ideal voltage ramp behind a drive resistance;
/// crosstalk ("SI mode") couples aggressor ramps through coupling caps,
/// injecting Cc * dVa/dt displacement current at victim nodes.
///
/// Timing measurements follow STA conventions:
///  - wire delay of a sink = t50(sink) - t50(source node waveform),
///  - slew = (t80 - t20) / 0.6 (linear extrapolation to the full swing).
/// Only rising transitions are simulated: a linear RC network is symmetric
/// under rise/fall, so fall timing is identical; rise/fall asymmetry enters
/// path timing through the driver cell, not the wire.
#pragma once

#include <cstdint>
#include <vector>

#include "rcnet/rcnet.hpp"

namespace gnntrans::sim {

/// Crosstalk (SI) behaviour of aggressor nets.
struct SiConfig {
  bool enabled = true;
  double aggressor_slew_mean = 8.0e-11;  ///< seconds (20/80 convention)
  double aggressor_slew_sigma = 0.4;     ///< lognormal sigma
  /// Aggressor arrival is uniform in [0, window_scale * (ramp + max Elmore)].
  double window_scale = 1.2;
};

/// Simulation controls.
struct TransientConfig {
  double vdd = 0.8;                  ///< volts
  std::size_t steps = 1200;          ///< trapezoidal steps over the base window
  std::size_t max_extensions = 4;    ///< window doublings if sinks settle late
  double driver_resistance = 100.0;  ///< ohms, default drive strength
  SiConfig si;
};

/// Timing measured at one sink.
struct SinkTiming {
  rcnet::NodeId sink = 0;
  double delay = 0.0;  ///< seconds, t50-to-t50 from the source node
  double slew = 0.0;   ///< seconds, 20/80 extrapolated
  bool settled = false;  ///< crossed 80% of vdd inside the simulated window
};

/// Full result of simulating one net.
struct TransientResult {
  std::vector<SinkTiming> sinks;    ///< one entry per net sink, in sink order
  double source_slew = 0.0;         ///< slew measured at the source node
  double source_t50 = 0.0;          ///< absolute t50 of the source node
  std::size_t steps_executed = 0;   ///< total trapezoidal steps run
};

/// Simulates \p net driven with the given input slew (20/80 of the ideal ramp)
/// and drive resistance (overrides config.driver_resistance when > 0).
///
/// Precondition: net.validate() is empty.
[[nodiscard]] TransientResult simulate(const rcnet::RcNet& net,
                                       const TransientConfig& config,
                                       double input_slew,
                                       double driver_resistance = 0.0);

/// Samples a full waveform at one node (for tests and debugging plots).
struct Waveform {
  std::vector<double> time;
  std::vector<double> voltage;
};

/// As simulate(), but additionally returns the waveform at \p probe_node.
[[nodiscard]] std::pair<TransientResult, Waveform> simulate_with_probe(
    const rcnet::RcNet& net, const TransientConfig& config, double input_slew,
    rcnet::NodeId probe_node, double driver_resistance = 0.0);

}  // namespace gnntrans::sim
