#include "sim/transient.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <random>
#include <stdexcept>

#include "linalg/tree_ldlt.hpp"
#include "sim/moments.hpp"

namespace gnntrans::sim {

using rcnet::NodeId;
using rcnet::RcNet;

namespace {

/// A linear aggressor ramp: 0/vdd transition starting at `arrival` lasting
/// `ramp` seconds with slope `slope` (possibly negative for falling).
struct AggressorRamp {
  double arrival = 0.0;
  double ramp = 0.0;
  double slope = 0.0;

  [[nodiscard]] double dv_dt(double t) const noexcept {
    return (t >= arrival && t < arrival + ramp) ? slope : 0.0;
  }
};

AggressorRamp make_aggressor(std::uint64_t seed, const TransientConfig& config,
                             double window) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  std::normal_distribution<double> gauss(0.0, config.si.aggressor_slew_sigma);

  AggressorRamp a;
  a.arrival = uni(rng) * window;
  const double mu = std::log(config.si.aggressor_slew_mean) -
                    0.5 * config.si.aggressor_slew_sigma * config.si.aggressor_slew_sigma;
  const double slew = std::exp(mu + gauss(rng));
  a.ramp = slew / 0.6;  // 20/80 slew -> full ramp duration
  const double direction = (uni(rng) < 0.5) ? 1.0 : -1.0;
  a.slope = direction * config.vdd / a.ramp;
  return a;
}

/// Tracks interpolated threshold crossings of a rising waveform.
class CrossingTracker {
 public:
  CrossingTracker() = default;
  explicit CrossingTracker(double vdd)
      : v20_(0.2 * vdd), v50_(0.5 * vdd), v80_(0.8 * vdd) {}

  void observe(double t_prev, double v_prev, double t_now, double v_now) noexcept {
    maybe_cross(t20_, v20_, t_prev, v_prev, t_now, v_now);
    maybe_cross(t50_, v50_, t_prev, v_prev, t_now, v_now);
    maybe_cross(t80_, v80_, t_prev, v_prev, t_now, v_now);
  }

  [[nodiscard]] bool complete() const noexcept {
    return t20_ >= 0.0 && t50_ >= 0.0 && t80_ >= 0.0;
  }
  [[nodiscard]] double t20() const noexcept { return t20_; }
  [[nodiscard]] double t50() const noexcept { return t50_; }
  [[nodiscard]] double t80() const noexcept { return t80_; }

 private:
  static void maybe_cross(double& slot, double threshold, double t_prev,
                          double v_prev, double t_now, double v_now) noexcept {
    if (slot >= 0.0) return;  // first crossing only
    if (v_prev < threshold && v_now >= threshold) {
      const double frac = (threshold - v_prev) / (v_now - v_prev);
      slot = t_prev + frac * (t_now - t_prev);
    }
  }

  double v20_ = 0.0, v50_ = 0.0, v80_ = 0.0;
  double t20_ = -1.0, t50_ = -1.0, t80_ = -1.0;
};

}  // namespace

std::pair<TransientResult, Waveform> simulate_with_probe(
    const RcNet& net, const TransientConfig& config, double input_slew,
    NodeId probe_node, double driver_resistance) {
  const std::size_t n = net.node_count();
  if (n == 0) throw std::invalid_argument("simulate: empty net");
  if (!(input_slew > 0.0)) throw std::invalid_argument("simulate: input slew must be > 0");

  const double r_drv =
      driver_resistance > 0.0 ? driver_resistance : config.driver_resistance;
  const double t_ramp = input_slew / 0.6;

  const double g_drv = 1.0 / r_drv;

  // Simulation window estimate: driver ramp + RC settling of the whole net.
  const Moments moments = compute_moments(net);
  const double max_m1 = *std::max_element(moments.m1.begin(), moments.m1.end());
  const double drv_tau = r_drv * (net.total_ground_cap() + net.total_coupling_cap());
  double window = t_ramp + 10.0 * (max_m1 + drv_tau) + 1e-12;

  // Aggressor ramps (deterministic per coupling seed).
  std::vector<AggressorRamp> aggressors;
  if (config.si.enabled) {
    const double aggressor_window = config.si.window_scale * (t_ramp + max_m1);
    aggressors.reserve(net.couplings.size());
    for (const rcnet::CouplingCap& cc : net.couplings)
      aggressors.push_back(make_aggressor(cc.aggressor_seed, config, aggressor_window));
  }

  const double h = window / static_cast<double>(config.steps);

  // Trapezoidal companion matrices: A v_{k+1} = B v_k + (b_k + b_{k+1}) / 2
  // with A = C/h + G/2 (SPD) and B = C/h - G/2, where G carries the driver
  // conductance at the source. A is factored with the source as the last node.
  // Node capacitance is ground plus coupling caps (coupling enters both the
  // diagonal and, when SI is on, the injection vector).
  std::vector<double> c_over_h = net.ground_cap;
  for (const rcnet::CouplingCap& cc : net.couplings) c_over_h[cc.victim_node] += cc.farads;
  for (double& c : c_over_h) c /= h;
  std::vector<double> shunt = c_over_h;
  shunt[net.source] += 0.5 * g_drv;
  std::vector<linalg::Branch> half_g;
  half_g.reserve(net.resistors.size());
  for (const rcnet::Resistor& r : net.resistors)
    half_g.push_back({r.a, r.b, 0.5 * (1.0 / r.ohms)});
  auto ldlt = linalg::TreeLdlt::factor(shunt, half_g, net.source,
                                       /*ground_root=*/false);
  if (!ldlt)
    throw std::runtime_error("simulate: companion matrix not SPD (net '" +
                             net.name + "')");

  auto ramp_voltage = [&](double t) {
    if (t <= 0.0) return 0.0;
    if (t >= t_ramp) return config.vdd;
    return config.vdd * t / t_ramp;
  };
  auto injection = [&](double t, std::vector<double>& b) {
    std::fill(b.begin(), b.end(), 0.0);
    b[net.source] = g_drv * ramp_voltage(t);
    for (std::size_t k = 0; k < aggressors.size(); ++k)
      b[net.couplings[k].victim_node] +=
          net.couplings[k].farads * aggressors[k].dv_dt(t);
  };

  std::vector<double> v(n, 0.0);
  std::vector<double> b_prev(n, 0.0);
  std::vector<double> b_now(n, 0.0);
  std::vector<double> rhs(n, 0.0);
  injection(0.0, b_prev);

  CrossingTracker source_tracker(config.vdd);
  std::vector<CrossingTracker> sink_trackers(net.sinks.size(),
                                             CrossingTracker(config.vdd));
  Waveform probe;
  const bool want_probe = probe_node < n;
  if (want_probe) {
    probe.time.push_back(0.0);
    probe.voltage.push_back(0.0);
  }

  TransientResult result;
  double t = 0.0;
  std::size_t extensions = 0;
  std::vector<double> v_prev(n, 0.0);

  auto all_settled = [&] {
    if (!source_tracker.complete()) return false;
    return std::all_of(sink_trackers.begin(), sink_trackers.end(),
                       [](const CrossingTracker& c) { return c.complete(); });
  };

  while (true) {
    for (std::size_t step = 0; step < config.steps; ++step) {
      const double t_next = t + h;
      injection(t_next, b_now);
      // rhs = B v + (b_prev + b_now)/2, B v stamped per resistor.
      for (std::size_t i = 0; i < n; ++i)
        rhs[i] = c_over_h[i] * v[i] + 0.5 * (b_prev[i] + b_now[i]);
      rhs[net.source] -= 0.5 * g_drv * v[net.source];
      for (const linalg::Branch& br : half_g) {
        const double current = br.g * (v[br.a] - v[br.b]);
        rhs[br.a] -= current;
        rhs[br.b] += current;
      }
      ldlt->solve(rhs);
      std::swap(v_prev, v);
      std::swap(v, rhs);
      std::swap(b_prev, b_now);
      ++result.steps_executed;

      source_tracker.observe(t, v_prev[net.source], t_next, v[net.source]);
      for (std::size_t s = 0; s < net.sinks.size(); ++s)
        sink_trackers[s].observe(t, v_prev[net.sinks[s]], t_next, v[net.sinks[s]]);
      if (want_probe) {
        probe.time.push_back(t_next);
        probe.voltage.push_back(v[probe_node]);
      }
      t = t_next;
    }
    if (all_settled() || extensions >= config.max_extensions) break;
    ++extensions;  // keep integrating over another window with the same step
  }

  result.source_slew = source_tracker.complete()
                           ? (source_tracker.t80() - source_tracker.t20()) / 0.6
                           : 0.0;
  result.source_t50 = source_tracker.t50();
  result.sinks.reserve(net.sinks.size());
  for (std::size_t s = 0; s < net.sinks.size(); ++s) {
    SinkTiming st;
    st.sink = net.sinks[s];
    st.settled = sink_trackers[s].complete() && source_tracker.complete();
    if (st.settled) {
      st.delay = sink_trackers[s].t50() - source_tracker.t50();
      st.slew = (sink_trackers[s].t80() - sink_trackers[s].t20()) / 0.6;
    }
    result.sinks.push_back(st);
  }
  return {std::move(result), std::move(probe)};
}

TransientResult simulate(const RcNet& net, const TransientConfig& config,
                         double input_slew, double driver_resistance) {
  return simulate_with_probe(net, config, input_slew,
                             static_cast<NodeId>(-1), driver_resistance)
      .first;
}

}  // namespace gnntrans::sim
