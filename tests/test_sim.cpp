// Tests for the analytical (Elmore/D2M/moments) and golden transient engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <random>
#include <string>

#include "dense_oracle.hpp"
#include "differential_nets.hpp"
#include "linalg/tree_ldlt.hpp"
#include "rcnet/generate.hpp"
#include "rcnet/paths.hpp"
#include "sim/golden.hpp"
#include "sim/moments.hpp"
#include "sim/transient.hpp"
#include "sim/wire_analysis.hpp"

namespace {

using namespace gnntrans;
using rcnet::RcNet;

RcNet chain(std::size_t n, double r_ohm, double c_farad) {
  RcNet net;
  net.name = "chain";
  net.source = 0;
  net.sinks = {static_cast<rcnet::NodeId>(n - 1)};
  net.ground_cap.assign(n, c_farad);
  for (rcnet::NodeId v = 1; v < n; ++v)
    net.resistors.push_back({static_cast<rcnet::NodeId>(v - 1), v, r_ohm});
  return net;
}

TEST(Moments, SingleStageElmoreIsRC) {
  // One R into one C: Elmore delay at node 1 = R*C exactly.
  const RcNet net = chain(2, 100.0, 10e-15);
  const sim::Moments m = sim::compute_moments(net);
  EXPECT_NEAR(m.m1[1], 100.0 * 10e-15, 1e-18);
  EXPECT_DOUBLE_EQ(m.m1[0], 0.0);  // source
}

TEST(Moments, ChainElmoreMatchesClosedForm) {
  // Elmore at end of n-stage chain: sum_k R*(n-k)*C with uniform R,C.
  const std::size_t n = 6;
  const double r = 50.0, c = 2e-15;
  const RcNet net = chain(n, r, c);
  const sim::Moments m = sim::compute_moments(net);
  double expected = 0.0;
  for (std::size_t k = 1; k < n; ++k)
    expected += r * static_cast<double>(n - k) * c;
  EXPECT_NEAR(m.m1[n - 1], expected, expected * 1e-9);
}

TEST(Moments, SecondMomentPositiveOnChain) {
  const RcNet net = chain(5, 50.0, 2e-15);
  const sim::Moments m = sim::compute_moments(net);
  for (std::size_t v = 1; v < net.node_count(); ++v) {
    EXPECT_GT(m.m2[v], 0.0);
    EXPECT_GT(m.m3[v], 0.0);
  }
}

class TreeVsMnaSeeded : public ::testing::TestWithParam<int> {};

TEST_P(TreeVsMnaSeeded, TreeTraversalElmoreEqualsMnaMoment) {
  std::mt19937_64 rng(GetParam());
  rcnet::NetGenConfig cfg;
  cfg.non_tree_fraction = 0.0;
  const RcNet net = rcnet::generate_net(cfg, rng, "t");
  ASSERT_TRUE(net.is_tree());
  const std::vector<double> tree_delay = sim::elmore_tree(net);
  const sim::Moments m = sim::compute_moments(net);
  for (std::size_t v = 0; v < net.node_count(); ++v)
    EXPECT_NEAR(tree_delay[v], m.m1[v], 1e-9 * (m.m1[v] + 1e-15)) << "node " << v;
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeVsMnaSeeded, ::testing::Range(1, 13));

TEST(D2m, BoundedByElmoreOnRandomNets) {
  // D2M is a provable lower-ish estimate; on RC nets it never exceeds Elmore.
  std::mt19937_64 rng(5);
  rcnet::NetGenConfig cfg;
  for (int i = 0; i < 15; ++i) {
    const RcNet net = rcnet::generate_net(cfg, rng, "n");
    const sim::Moments m = sim::compute_moments(net);
    const std::vector<double> d2m = sim::d2m_from_moments(m);
    for (rcnet::NodeId s : net.sinks) {
      EXPECT_GT(d2m[s], 0.0);
      EXPECT_LE(d2m[s], m.m1[s] * 1.0000001);
    }
  }
}

TEST(Moments, LoopReducesElmoreDelay) {
  // Adding a parallel resistor can only speed the net up.
  const RcNet tree = chain(6, 100.0, 5e-15);
  RcNet looped = tree;
  looped.resistors.push_back({0, 5, 300.0});
  const sim::Moments m_tree = sim::compute_moments(tree);
  const sim::Moments m_loop = sim::compute_moments(looped);
  EXPECT_LT(m_loop.m1[5], m_tree.m1[5]);
}

TEST(Moments, AddedCapIncreasesDelayMonotonically) {
  RcNet net = chain(5, 80.0, 3e-15);
  const double base = sim::compute_moments(net).m1[4];
  net.ground_cap[2] *= 2.0;
  EXPECT_GT(sim::compute_moments(net).m1[4], base);
}

TEST(Moments, AddedSeriesResistanceIncreasesDelay) {
  RcNet net = chain(5, 80.0, 3e-15);
  const double base = sim::compute_moments(net).m1[4];
  net.resistors[1].ohms *= 3.0;
  EXPECT_GT(sim::compute_moments(net).m1[4], base);
}

// ---- Transient engine ----

sim::TransientConfig quiet_config() {
  sim::TransientConfig cfg;
  cfg.si.enabled = false;
  cfg.steps = 2000;
  return cfg;
}

TEST(Transient, SinglePoleMatchesAnalyticStepResponse) {
  // Driver R feeds one cap (no wire R): the sink *is* the source node here,
  // so verify against the analytic low-pass ramp response at the probe.
  RcNet net;
  net.name = "pole";
  net.source = 0;
  net.sinks = {1};
  net.ground_cap = {0.1e-15, 20e-15};
  net.resistors = {{0, 1, 1.0}};  // negligible wire R
  sim::TransientConfig cfg = quiet_config();
  cfg.driver_resistance = 500.0;
  const double tau = 500.0 * 20.1e-15;

  const double slew_in = 1e-12;  // near-step input
  const auto [result, wave] = sim::simulate_with_probe(net, cfg, slew_in, 1);
  ASSERT_TRUE(result.sinks[0].settled);
  // Analytic 50% time of first-order step response: tau * ln 2 (plus the tiny
  // ramp offset). Compare total source->sink t50 to ln2*tau within 5%.
  const double t50_total = result.source_t50 + result.sinks[0].delay;
  EXPECT_NEAR(t50_total, tau * std::log(2.0) + slew_in / 0.6 / 2.0,
              0.05 * tau);
}

TEST(Transient, DelayBracketedByD2mAndElmore) {
  // Classic result: for RC nets, 50% delay lies near [D2M, Elmore].
  std::mt19937_64 rng(11);
  rcnet::NetGenConfig cfg;
  cfg.coupling_prob = 0.0;
  const sim::TransientConfig tc = quiet_config();
  for (int i = 0; i < 10; ++i) {
    const RcNet net = rcnet::generate_net(cfg, rng, "n");
    const sim::Moments m = sim::compute_moments(net);
    const std::vector<double> d2m = sim::d2m_from_moments(m);
    const sim::TransientResult res = sim::simulate(net, tc, 2e-11, 50.0);
    for (const sim::SinkTiming& st : res.sinks) {
      ASSERT_TRUE(st.settled);
      EXPECT_GT(st.delay, 0.45 * d2m[st.sink]);
      EXPECT_LT(st.delay, 1.35 * m.m1[st.sink] + 2e-12);
    }
  }
}

TEST(Transient, SlowerInputSlewIncreasesSinkSlew) {
  const RcNet net = chain(8, 60.0, 4e-15);
  const sim::TransientConfig cfg = quiet_config();
  const auto fast = sim::simulate(net, cfg, 1e-11);
  const auto slow = sim::simulate(net, cfg, 1.2e-10);
  ASSERT_TRUE(fast.sinks[0].settled && slow.sinks[0].settled);
  EXPECT_GT(slow.sinks[0].slew, fast.sinks[0].slew);
  EXPECT_GT(slow.source_slew, fast.source_slew);
}

TEST(Transient, StrongerDriverReducesSourceSlew) {
  const RcNet net = chain(8, 60.0, 4e-15);
  const sim::TransientConfig cfg = quiet_config();
  const auto weak = sim::simulate(net, cfg, 4e-11, 800.0);
  const auto strong = sim::simulate(net, cfg, 4e-11, 80.0);
  EXPECT_GT(weak.source_slew, strong.source_slew);
}

TEST(Transient, FartherSinkHasLargerDelay) {
  RcNet net = chain(10, 70.0, 3e-15);
  net.sinks = {3, 9};
  const auto res = sim::simulate(net, quiet_config(), 3e-11);
  ASSERT_EQ(res.sinks.size(), 2u);
  EXPECT_LT(res.sinks[0].delay, res.sinks[1].delay);
}

TEST(Transient, CouplingNoiseChangesTiming) {
  std::mt19937_64 rng(13);
  rcnet::NetGenConfig gen;
  gen.coupling_prob = 1.0;
  gen.coupling_density = 0.4;
  const RcNet net = rcnet::generate_net(gen, rng, "si");
  ASSERT_FALSE(net.couplings.empty());

  sim::TransientConfig si_on = quiet_config();
  si_on.si.enabled = true;
  const auto with_si = sim::simulate(net, si_on, 3e-11);
  const auto without = sim::simulate(net, quiet_config(), 3e-11);
  // SI must perturb at least one sink measurably (aggressors are active).
  double max_shift = 0.0;
  for (std::size_t s = 0; s < with_si.sinks.size(); ++s)
    max_shift = std::max(max_shift,
                         std::abs(with_si.sinks[s].delay - without.sinks[s].delay));
  EXPECT_GT(max_shift, 1e-14);
}

TEST(Transient, SiIsDeterministicPerSeed) {
  std::mt19937_64 rng(14);
  rcnet::NetGenConfig gen;
  gen.coupling_prob = 1.0;
  const RcNet net = rcnet::generate_net(gen, rng, "si");
  sim::TransientConfig cfg = quiet_config();
  cfg.si.enabled = true;
  const auto a = sim::simulate(net, cfg, 3e-11);
  const auto b = sim::simulate(net, cfg, 3e-11);
  for (std::size_t s = 0; s < a.sinks.size(); ++s) {
    EXPECT_DOUBLE_EQ(a.sinks[s].delay, b.sinks[s].delay);
    EXPECT_DOUBLE_EQ(a.sinks[s].slew, b.sinks[s].slew);
  }
}

TEST(Transient, RejectsNonPositiveSlew) {
  const RcNet net = chain(3, 50.0, 2e-15);
  EXPECT_THROW(sim::simulate(net, quiet_config(), 0.0), std::invalid_argument);
}

// ---- Sparse LDLᵀ vs the dense oracle ----

using differential_nets::NetSet;

std::vector<linalg::Branch> conductances(const RcNet& net, double scale) {
  std::vector<linalg::Branch> out;
  for (const rcnet::Resistor& r : net.resistors)
    out.push_back({r.a, r.b, scale * (1.0 / r.ohms)});
  return out;
}

std::vector<double> node_caps(const RcNet& net) {
  std::vector<double> caps = net.ground_cap;
  for (const rcnet::CouplingCap& cc : net.couplings) caps[cc.victim_node] += cc.farads;
  return caps;
}

/// m1..m3 by dense Cholesky of the grounded conductance matrix.
std::vector<std::vector<double>> dense_moments(const RcNet& net) {
  const std::size_t n = net.node_count();
  std::vector<double> l = dense_oracle::assemble(
      std::vector<double>(n, 0.0), conductances(net, 1.0), net.source);
  EXPECT_TRUE(dense_oracle::cholesky(l, n));
  const std::vector<double> caps = node_caps(net);
  std::vector<std::vector<double>> m;
  std::vector<double> prev(n, 1.0);
  for (int k = 0; k < 3; ++k) {
    std::vector<double> x(n);
    for (std::size_t v = 0; v < n; ++v) x[v] = caps[v] * prev[v];
    x[net.source] = 0.0;
    dense_oracle::cholesky_solve(l, n, x);
    m.push_back(x);
    prev = x;
  }
  return m;
}

/// First linear-interpolated crossing of \p threshold, or -1.
double crossing(const std::vector<double>& t, const std::vector<double>& v,
                double threshold) {
  for (std::size_t k = 1; k < v.size(); ++k)
    if (v[k - 1] < threshold && v[k] >= threshold)
      return t[k - 1] + (threshold - v[k - 1]) / (v[k] - v[k - 1]) * (t[k] - t[k - 1]);
  return -1.0;
}

/// The quiet (SI off) trapezoidal stepper with dense matrices, on the time
/// grid \p time that simulate_with_probe reported. Returns one waveform per
/// node.
std::vector<std::vector<double>> dense_waveforms(const RcNet& net,
                                                 const sim::TransientConfig& cfg,
                                                 double slew_in, double r_drv,
                                                 const std::vector<double>& time) {
  const std::size_t n = net.node_count();
  const double h = time[1] - time[0];
  const double g_drv = 1.0 / r_drv;
  const double t_ramp = slew_in / 0.6;
  std::vector<double> c_over_h = node_caps(net);
  for (double& c : c_over_h) c /= h;
  // A = C/h + G/2 and B = C/h - G/2, driver conductance at the source.
  std::vector<double> a_shunt = c_over_h, b_shunt = c_over_h;
  a_shunt[net.source] += 0.5 * g_drv;
  b_shunt[net.source] -= 0.5 * g_drv;
  std::vector<double> l = dense_oracle::assemble(a_shunt, conductances(net, 0.5));
  const std::vector<double> b_mat = dense_oracle::assemble(b_shunt, conductances(net, -0.5));
  EXPECT_TRUE(dense_oracle::cholesky(l, n));
  auto drive = [&](double t) {
    return g_drv * (t <= 0.0 ? 0.0 : t >= t_ramp ? cfg.vdd : cfg.vdd * t / t_ramp);
  };
  std::vector<std::vector<double>> wave(n, std::vector<double>{0.0});
  std::vector<double> v(n, 0.0);
  for (std::size_t k = 1; k < time.size(); ++k) {
    std::vector<double> rhs = dense_oracle::matvec(b_mat, v);
    rhs[net.source] += 0.5 * (drive(time[k - 1]) + drive(time[k]));
    dense_oracle::cholesky_solve(l, n, rhs);
    v = rhs;
    for (std::size_t i = 0; i < n; ++i) wave[i].push_back(v[i]);
  }
  return wave;
}

TEST(SparseVsDense, MomentsMatchOnEveryTopology) {
  std::mt19937_64 rng(21);
  for (const NetSet& set : differential_nets::sets()) {
    double worst = 0.0, entries = 0.0, nodes = 0.0;
    for (int i = 0; i < set.nets; ++i) {
      const RcNet net = rcnet::generate_net(set.cfg, rng, set.name);
      const sim::Moments m = sim::compute_moments(net);
      const auto dense = dense_moments(net);
      for (const auto& [k, sparse] : {std::pair{0, &m.m1}, {1, &m.m2}, {2, &m.m3}}) {
        const double rel = dense_oracle::rel_inf_diff(*sparse, dense[k]);
        EXPECT_LE(rel, 1e-12) << set.name << " net " << i << " m" << k + 1;
        worst = std::max(worst, rel);
      }
      const auto ldlt = linalg::TreeLdlt::factor(std::vector<double>(net.node_count(), 0.0),
                                                 conductances(net, 1.0), net.source, true);
      ASSERT_TRUE(ldlt.has_value());
      entries += static_cast<double>(ldlt->factor_entries());
      nodes += static_cast<double>(net.node_count());
    }
    // Fill is measured, not assumed: factor entries per node per topology.
    RecordProperty(std::string(set.name) + "_entries_per_node", std::to_string(entries / nodes));
    std::printf("[ fill     ] %-11s %.2f factor entries/node, worst moment diff %.1e\n",
                set.name, entries / nodes, worst);
  }
}

TEST(SparseVsDense, GoldenDelayAndSlewMatchDenseStepper) {
  std::mt19937_64 rng(22);
  sim::TransientConfig cfg = quiet_config();
  cfg.steps = 300;
  const double slew_in = 3e-11, r_drv = 120.0;
  for (const NetSet& set : differential_nets::sets()) {
    for (int i = 0; i < std::min(set.nets, 3); ++i) {
      const RcNet net = rcnet::generate_net(set.cfg, rng, set.name);
      const auto [res, probe] =
          sim::simulate_with_probe(net, cfg, slew_in, net.sinks[0], r_drv);
      const auto wave = dense_waveforms(net, cfg, slew_in, r_drv, probe.time);
      auto timing = [&](rcnet::NodeId v) {
        const double t20 = crossing(probe.time, wave[v], 0.2 * cfg.vdd);
        const double t50 = crossing(probe.time, wave[v], 0.5 * cfg.vdd);
        const double t80 = crossing(probe.time, wave[v], 0.8 * cfg.vdd);
        return std::array<double, 3>{t20, t50, t80};
      };
      const auto src = timing(net.source);
      for (const sim::SinkTiming& st : res.sinks) {
        const auto snk = timing(st.sink);
        ASSERT_TRUE(st.settled) << set.name << " net " << i;
        ASSERT_GE(snk[2], 0.0) << set.name << " net " << i;
        const double delay = snk[1] - src[1];
        const double slew = (snk[2] - snk[0]) / 0.6;
        EXPECT_LE(std::abs(st.delay - delay), 1e-9 * std::abs(delay))
            << set.name << " net " << i << " sink " << st.sink;
        EXPECT_LE(std::abs(st.slew - slew), 1e-9 * slew)
            << set.name << " net " << i << " sink " << st.sink;
      }
    }
  }
}

TEST(WireAnalysis, DownstreamCapAtSourceEqualsTotalCap) {
  std::mt19937_64 rng(15);
  rcnet::NetGenConfig cfg;
  for (int i = 0; i < 8; ++i) {
    const RcNet net = rcnet::generate_net(cfg, rng, "n");
    const sim::WireAnalysis wa = sim::analyze_wire(net);
    const double total = net.total_ground_cap() + net.total_coupling_cap();
    EXPECT_NEAR(wa.downstream_cap[net.source], total, total * 1e-9);
  }
}

TEST(WireAnalysis, StageDelaysSumToPathElmoreOnTree) {
  std::mt19937_64 rng(16);
  rcnet::NetGenConfig cfg;
  cfg.non_tree_fraction = 0.0;
  const RcNet net = rcnet::generate_net(cfg, rng, "n");
  const sim::WireAnalysis wa = sim::analyze_wire(net);
  for (const rcnet::WirePath& path : wa.paths) {
    double sum = 0.0;
    for (rcnet::NodeId v : path.nodes) sum += wa.stage_delay[v];
    EXPECT_NEAR(sum, wa.moments.m1[path.sink], 1e-9 * wa.moments.m1[path.sink]);
  }
}

TEST(GoldenTimer, AccumulatesStats) {
  sim::GoldenTimer timer(quiet_config());
  const RcNet net = chain(5, 50.0, 3e-15);
  timer.time_net(net, 3e-11);
  timer.time_net(net, 3e-11);
  EXPECT_EQ(timer.stats().nets_timed, 2u);
  EXPECT_GT(timer.stats().solver_steps, 0u);
  EXPECT_GT(timer.stats().wall_seconds, 0.0);
  sim::GoldenTimer t2 = timer;
  t2.reset_stats();
  EXPECT_EQ(t2.stats().nets_timed, 0u);
}

}  // namespace
