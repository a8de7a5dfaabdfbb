// Tests for the two-pole AWE metric: it must track the golden transient
// simulator closely on nets the cruder metrics (Elmore, D2M) misestimate.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "rcnet/generate.hpp"
#include "sim/awe.hpp"
#include "sim/moments.hpp"
#include "sim/transient.hpp"

namespace {

using namespace gnntrans;
using rcnet::RcNet;

RcNet chain(std::size_t n, double r, double c) {
  RcNet net;
  net.name = "chain";
  net.source = 0;
  net.sinks = {static_cast<rcnet::NodeId>(n - 1)};
  net.ground_cap.assign(n, c);
  for (rcnet::NodeId v = 1; v < n; ++v)
    net.resistors.push_back({static_cast<rcnet::NodeId>(v - 1), v, r});
  return net;
}

sim::TransientConfig quiet() {
  sim::TransientConfig cfg;
  cfg.si.enabled = false;
  cfg.steps = 2000;
  return cfg;
}

TEST(Awe, SingleStageFallsBackToOnePoleExactly) {
  // Pure single-pole net: AWE must reproduce tau*ln2 / tau*ln4.
  const RcNet net = chain(2, 200.0, 10e-15);
  const auto awe = sim::awe_two_pole(net);
  const double tau = 200.0 * 10e-15;
  EXPECT_FALSE(awe[1].two_pole);
  EXPECT_NEAR(awe[1].delay, tau * std::log(2.0), tau * 1e-6);
  EXPECT_NEAR(awe[1].slew, tau * std::log(4.0) / 0.6, tau * 1e-6);
}

class AweSeeded : public ::testing::TestWithParam<int> {};

TEST_P(AweSeeded, TracksGoldenBetterThanElmoreAtFarSinks) {
  std::mt19937_64 rng(GetParam());
  rcnet::NetGenConfig cfg;
  cfg.coupling_prob = 0.0;
  cfg.min_nodes = 30;
  const RcNet net = rcnet::generate_net(cfg, rng, "n");
  const sim::Moments moments = sim::compute_moments(net);
  const auto awe = sim::awe_two_pole(moments);
  // Near-step input, strong driver: golden ~ intrinsic wire step response.
  const auto golden = sim::simulate(net, quiet(), 1e-12, 1.0);

  double awe_err = 0.0, elmore_err = 0.0;
  for (const sim::SinkTiming& st : golden.sinks) {
    ASSERT_TRUE(st.settled);
    awe_err += std::abs(awe[st.sink].delay - st.delay);
    elmore_err += std::abs(moments.m1[st.sink] - st.delay);
  }
  EXPECT_LT(awe_err, elmore_err)
      << "two-pole AWE should beat raw Elmore on delay";
}

TEST_P(AweSeeded, DelayWithinTenPercentOfGoldenStep) {
  std::mt19937_64 rng(GetParam() + 200);
  rcnet::NetGenConfig cfg;
  cfg.coupling_prob = 0.0;
  cfg.min_nodes = 20;
  const RcNet net = rcnet::generate_net(cfg, rng, "n");
  const auto awe = sim::awe_two_pole(net);
  const auto golden = sim::simulate(net, quiet(), 1e-12, 1.0);
  for (const sim::SinkTiming& st : golden.sinks) {
    if (st.delay < 2e-12) continue;  // sub-2ps sinks: absolute floor dominates
    EXPECT_NEAR(awe[st.sink].delay, st.delay, 0.12 * st.delay + 1e-12)
        << "sink " << st.sink;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AweSeeded, ::testing::Range(1, 9));

TEST(Awe, SourceNodeHasZeroTiming) {
  const auto awe = sim::awe_two_pole(chain(4, 50.0, 2e-15));
  EXPECT_DOUBLE_EQ(awe[0].delay, 0.0);
  EXPECT_DOUBLE_EQ(awe[0].slew, 0.0);
}

}  // namespace
