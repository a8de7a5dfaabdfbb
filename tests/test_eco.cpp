// ECO engine tests: the randomized-edit equivalence fuzzer plus targeted
// coverage of settled-taint flow, the tolerance knob, and edit validation.
//
// The contract under test (incremental.hpp): with incremental_tolerance 0,
// after ANY sequence of edits every arrival, slew, required time, slack, and
// settled flag maintained by IncrementalSta is *bitwise* equal to a fresh
// full run_sta over the mutated design with the same wire source.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "netlist/generate.hpp"
#include "netlist/incremental.hpp"
#include "netlist/sta.hpp"
#include "sim/wire_analysis.hpp"

namespace {

using namespace gnntrans;
using namespace gnntrans::netlist;

Design make_design(std::uint64_t seed, std::uint32_t startpoints = 4,
                   std::uint32_t levels = 4, std::uint32_t width = 6) {
  DesignGenConfig cfg;
  cfg.startpoints = startpoints;
  cfg.levels = levels;
  cfg.cells_per_level = width;
  cfg.seed = seed;
  const auto lib = cell::CellLibrary::make_default();
  return generate_design(cfg, lib, "eco");
}

sim::TransientConfig quick_tc() {
  sim::TransientConfig tc;
  tc.steps = 200;
  return tc;
}

/// Cheap deterministic wire source for the fuzzer: Elmore (exact MNA m1)
/// delays, with delay and slew depending on the driver inputs so upstream
/// changes propagate through wires the way a real source's would. Pure
/// function of (net, input_slew, driver_resistance) — the property the
/// bitwise-equivalence contract needs.
class ElmoreWireSource final : public WireTimingSource {
 public:
  [[nodiscard]] std::vector<sim::SinkTiming> time_net(
      const rcnet::RcNet& net, double input_slew,
      double driver_resistance) override {
    const sim::WireAnalysis wa = sim::analyze_wire(net);
    std::vector<sim::SinkTiming> out;
    out.reserve(net.sinks.size());
    for (const rcnet::NodeId s : net.sinks) {
      sim::SinkTiming t;
      t.sink = s;
      t.delay = wa.moments.m1[s] * (1.0 + driver_resistance * 1e-4);
      t.slew = 0.9 * input_slew + wa.moments.m1[s];
      t.settled = true;
      out.push_back(t);
    }
    return out;
  }
  [[nodiscard]] std::string name() const override { return "Elmore(test)"; }
};

/// Wraps a source and delivers every sink of one named net unsettled with
/// zeroed values (the estimator's kFailed shape) until heal() is called.
class FlakyWireSource final : public WireTimingSource {
 public:
  FlakyWireSource(WireTimingSource& inner, std::string fail_net)
      : inner_(inner), fail_net_(std::move(fail_net)) {}

  void heal() { healed_ = true; }

  [[nodiscard]] std::vector<sim::SinkTiming> time_net(
      const rcnet::RcNet& net, double input_slew,
      double driver_resistance) override {
    std::vector<sim::SinkTiming> out =
        inner_.time_net(net, input_slew, driver_resistance);
    if (!healed_ && net.name == fail_net_) {
      for (sim::SinkTiming& t : out) {
        t.delay = 0.0;
        t.slew = 0.0;
        t.settled = false;
      }
    }
    return out;
  }
  [[nodiscard]] std::string name() const override { return "Flaky(test)"; }

 private:
  WireTimingSource& inner_;
  std::string fail_net_;
  bool healed_ = false;
};

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Asserts every timing quantity of \p inc is bitwise equal to \p full.
void expect_bitwise_equal(const StaResult& inc, const StaResult& full,
                          const std::string& where) {
  EXPECT_TRUE(same_bits(inc.arrival, full.arrival)) << where << ": arrival";
  EXPECT_TRUE(same_bits(inc.slew, full.slew)) << where << ": slew";
  EXPECT_TRUE(same_bits(inc.required, full.required)) << where << ": required";
  EXPECT_TRUE(same_bits(inc.slack, full.slack)) << where << ": slack";
  EXPECT_EQ(inc.arrival_settled, full.arrival_settled)
      << where << ": arrival_settled";
  EXPECT_TRUE(same_bits(inc.endpoint_arrival, full.endpoint_arrival))
      << where << ": endpoint_arrival";
  EXPECT_TRUE(same_bits(inc.endpoint_slack, full.endpoint_slack))
      << where << ": endpoint_slack";
  EXPECT_EQ(inc.unsettled_sinks, full.unsettled_sinks)
      << where << ": unsettled_sinks";
}

// ---- The randomized-edit equivalence fuzzer ----

// 200 seeded sequences of 4 interleaved edits each (swap / reroute /
// buffer-insert), every edit checked bitwise against a fresh full run_sta
// over the mutated design. The Elmore source keeps 800 full passes cheap;
// a separate golden-source suite below covers the transient timer.
TEST(EcoFuzz, TwoHundredEditSequencesStayBitwiseEqual) {
  const auto lib = cell::CellLibrary::make_default();
  const rcnet::NetGenConfig net_cfg;
  for (std::uint64_t seq = 1; seq <= 200; ++seq) {
    ElmoreWireSource wire;
    // Cycle through a few design shapes so splices hit varied structure.
    Design d = make_design(seq, 3 + seq % 3, 3 + seq % 2, 5 + seq % 3);
    IncrementalSta inc(std::move(d), lib, wire, StaConfig{});
    std::mt19937_64 rng(seq * 0x9e3779b97f4a7c15ULL);
    for (int edit = 0; edit < 4; ++edit) {
      const EcoEdit applied = apply_random_edit(inc, lib, rng, net_cfg);
      ASSERT_TRUE(inc.design().validate().empty())
          << "seq " << seq << " edit " << edit << " (" << applied.kind_name()
          << "): design invalid";
      const StaResult full = run_sta(inc.design(), lib, wire, inc.config());
      expect_bitwise_equal(inc.result(), full,
                           "seq " + std::to_string(seq) + " edit " +
                               std::to_string(edit) + " (" +
                               applied.kind_name() + ")");
      if (::testing::Test::HasFailure()) return;  // first divergence is enough
    }
  }
}

// Same property through the golden transient timer (the sign-off source),
// on a handful of seeds — slower per pass, so fewer sequences.
class EcoGoldenSeeded : public ::testing::TestWithParam<int> {};

TEST_P(EcoGoldenSeeded, EditSequenceMatchesFullGoldenRerun) {
  const auto lib = cell::CellLibrary::make_default();
  const rcnet::NetGenConfig net_cfg;
  GoldenWireSource wire(quick_tc());
  IncrementalSta inc(make_design(GetParam()), lib, wire, StaConfig{});
  std::mt19937_64 rng(GetParam() * 1337);
  for (int edit = 0; edit < 3; ++edit) {
    const EcoEdit applied = apply_random_edit(inc, lib, rng, net_cfg);
    const StaResult full = run_sta(inc.design(), lib, wire, inc.config());
    expect_bitwise_equal(inc.result(), full,
                         "edit " + std::to_string(edit) + " (" +
                             applied.kind_name() + ")");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EcoGoldenSeeded, ::testing::Range(1, 5));

// ---- Settled-taint flow through partial retimes ----

TEST(EcoTaint, UnsettledSinkSurvivesUnrelatedRetimesAndHealsOnReroute) {
  const auto lib = cell::CellLibrary::make_default();
  Design d = make_design(23);
  // Fail every sink of net 0 (a level-0 net, so taint has room to flow).
  const std::string fail_net = d.nets[0].rc.name;
  const InstanceId tainted_load = d.nets[0].loads[0];
  ElmoreWireSource inner;
  FlakyWireSource wire(inner, fail_net);
  IncrementalSta inc(std::move(d), lib, wire, StaConfig{});

  ASSERT_GT(inc.result().unsettled_sinks, 0u);
  ASSERT_EQ(inc.result().arrival_settled[tainted_load], 0)
      << "load of the failed net must start tainted";

  // A self-swap of the tainted load retimes its local cone without touching
  // the failed net's own estimate: the taint must survive the partial retime.
  inc.swap_cell(tainted_load,
                inc.design().instances[tainted_load].cell_index);
  EXPECT_EQ(inc.result().arrival_settled[tainted_load], 0)
      << "cone retime not touching the failed net must keep the taint";
  {
    const StaResult full = run_sta(inc.design(), lib, wire, inc.config());
    expect_bitwise_equal(inc.result(), full, "tainted self-swap");
  }

  // Heal the source, then reroute the failed net (same parasitics): the
  // re-estimate succeeds and the taint must clear downstream.
  wire.heal();
  rcnet::RcNet same_rc = inc.design().nets[0].rc;
  inc.reroute_net(0, std::move(same_rc));
  EXPECT_EQ(inc.result().arrival_settled[tainted_load], 1)
      << "successful re-estimate must clear the taint";
  EXPECT_EQ(inc.result().unsettled_sinks, 0u);
  const StaResult full = run_sta(inc.design(), lib, wire, inc.config());
  expect_bitwise_equal(inc.result(), full, "healed reroute");
}

// ---- The tolerance knob (promoted from the old hard-coded kTolerance) ----

TEST(EcoTolerance, ZeroPropagatesFullConeLooseStopsEarly) {
  const auto lib = cell::CellLibrary::make_default();
  const Design d = make_design(29);
  ElmoreWireSource wire_exact, wire_loose;

  StaConfig exact_cfg;
  exact_cfg.incremental_tolerance = 0.0;
  StaConfig loose_cfg;
  loose_cfg.incremental_tolerance = 1.0;  // seconds: nothing ever "changes"

  IncrementalSta exact(d, lib, wire_exact, exact_cfg);
  IncrementalSta loose(d, lib, wire_loose, loose_cfg);

  // Upsize a startpoint driver: its whole fanout cone shifts.
  const InstanceId victim = d.startpoints.front();
  const cell::Cell& old_cell = lib.at(d.instances[victim].cell_index);
  std::uint32_t stronger = 0;
  bool found = false;
  for (std::size_t i = 0; i < lib.size() && !found; ++i)
    if (lib.at(i).function == old_cell.function &&
        lib.at(i).drive_strength != old_cell.drive_strength) {
      stronger = static_cast<std::uint32_t>(i);
      found = true;
    }
  ASSERT_TRUE(found) << "library has no alternative drive for the startpoint";

  const std::size_t exact_cone = exact.swap_cell(victim, stronger);
  const std::size_t loose_cone = loose.swap_cell(victim, stronger);
  // Tolerance 0 pushes the change through the cone; a loose tolerance stops
  // at the seeds (the edited instance, its dirtied nets' loads).
  EXPECT_GT(exact_cone, loose_cone);
  EXPECT_GT(exact.last_required_updates(), loose.last_required_updates());
  // And only the exact engine still matches a full rerun bitwise.
  const StaResult full = run_sta(exact.design(), lib, wire_exact, exact_cfg);
  expect_bitwise_equal(exact.result(), full, "exact tolerance");
}

// ---- Edit validation ----

TEST(EcoValidation, RerouteRejectsBadShapes) {
  const auto lib = cell::CellLibrary::make_default();
  Design d = make_design(31);
  ElmoreWireSource wire;
  const std::uint32_t net_count = static_cast<std::uint32_t>(d.nets.size());
  rcnet::RcNet good_rc = d.nets[0].rc;
  IncrementalSta inc(std::move(d), lib, wire, StaConfig{});

  EXPECT_THROW(inc.reroute_net(net_count, std::move(good_rc)),
               std::invalid_argument);
  // One sink too few for the load list.
  std::mt19937_64 rng(7);
  const rcnet::NetGenConfig net_cfg;
  const std::size_t loads = inc.design().nets[0].loads.size();
  rcnet::RcNet short_rc = rcnet::generate_net_for_fanout(
      net_cfg, rng, inc.design().nets[0].rc.name,
      static_cast<std::uint32_t>(loads + 1));
  EXPECT_THROW(inc.reroute_net(0, std::move(short_rc)), std::invalid_argument);
}

TEST(EcoValidation, InsertBufferRejectsBadArguments) {
  const auto lib = cell::CellLibrary::make_default();
  Design d = make_design(37);
  ElmoreWireSource wire;
  IncrementalSta inc(std::move(d), lib, wire, StaConfig{});
  const rcnet::NetGenConfig net_cfg;
  std::mt19937_64 rng(11);

  std::uint32_t buf_cell = 0;
  std::uint32_t ff_cell = 0;
  bool have_buf = false, have_ff = false;
  for (std::size_t i = 0; i < lib.size(); ++i) {
    if (lib.at(i).function == cell::CellFunction::kBuf && !have_buf) {
      buf_cell = static_cast<std::uint32_t>(i);
      have_buf = true;
    }
    if (cell::is_sequential(lib.at(i).function) && !have_ff) {
      ff_cell = static_cast<std::uint32_t>(i);
      have_ff = true;
    }
  }
  ASSERT_TRUE(have_buf);

  const std::uint32_t net_idx = 0;
  const std::size_t fanout = inc.design().nets[net_idx].loads.size();
  const std::string name = inc.design().nets[net_idx].rc.name;
  auto make_rc = [&](std::size_t sinks) {
    return rcnet::generate_net_for_fanout(net_cfg, rng, name,
                                          static_cast<std::uint32_t>(sinks));
  };
  const std::vector<std::uint32_t> first_sink{0};

  // No sinks selected.
  EXPECT_THROW(inc.insert_buffer(net_idx, buf_cell, {}, make_rc(fanout + 1),
                                 make_rc(0)),
               std::invalid_argument);
  // Position out of range / duplicated.
  const std::vector<std::uint32_t> oob{static_cast<std::uint32_t>(fanout)};
  EXPECT_THROW(inc.insert_buffer(net_idx, buf_cell, oob, make_rc(fanout),
                                 make_rc(1)),
               std::invalid_argument);
  const std::vector<std::uint32_t> dup{0, 0};
  EXPECT_THROW(inc.insert_buffer(net_idx, buf_cell, dup, make_rc(fanout - 1),
                                 make_rc(2)),
               std::invalid_argument);
  // A sequential cell is not a buffer.
  if (have_ff) {
    EXPECT_THROW(inc.insert_buffer(net_idx, ff_cell, first_sink,
                                   make_rc(fanout), make_rc(1)),
                 std::invalid_argument);
  }
  // Wrong rerouted/new sink counts.
  EXPECT_THROW(inc.insert_buffer(net_idx, buf_cell, first_sink,
                                 make_rc(fanout + 5), make_rc(1)),
               std::invalid_argument);
  EXPECT_THROW(inc.insert_buffer(net_idx, buf_cell, first_sink,
                                 make_rc(fanout), make_rc(3)),
               std::invalid_argument);

  // After all the rejections the engine still matches a full rerun.
  const StaResult full = run_sta(inc.design(), lib, wire, inc.config());
  expect_bitwise_equal(inc.result(), full, "after rejected edits");
}

// A valid splice: the buffer lands at design().instances.size()-1, drives
// the spliced loads, and the whole result stays bitwise equal.
TEST(EcoValidation, InsertBufferSplicesAndStaysEquivalent) {
  const auto lib = cell::CellLibrary::make_default();
  Design d = make_design(41);
  ElmoreWireSource wire;
  const rcnet::NetGenConfig net_cfg;
  std::mt19937_64 rng(13);

  std::uint32_t buf_cell = 0;
  for (std::size_t i = 0; i < lib.size(); ++i)
    if (lib.at(i).function == cell::CellFunction::kBuf) {
      buf_cell = static_cast<std::uint32_t>(i);
      break;
    }

  const std::uint32_t net_idx = 0;
  const std::size_t before_instances = d.instances.size();
  const std::size_t fanout = d.nets[net_idx].loads.size();
  const InstanceId moved_load = d.nets[net_idx].loads[0];
  const std::string name = d.nets[net_idx].rc.name;
  IncrementalSta inc(std::move(d), lib, wire, StaConfig{});

  const std::vector<std::uint32_t> positions{0};
  rcnet::RcNet rerouted = rcnet::generate_net_for_fanout(
      net_cfg, rng, name, static_cast<std::uint32_t>(fanout));  // kept + buffer
  rcnet::RcNet spliced =
      rcnet::generate_net_for_fanout(net_cfg, rng, name + "_buf", 1);
  inc.insert_buffer(net_idx, buf_cell, positions, std::move(rerouted),
                    std::move(spliced));

  const Design& after = inc.design();
  ASSERT_EQ(after.instances.size(), before_instances + 1);
  const auto buffer_id = static_cast<InstanceId>(before_instances);
  EXPECT_EQ(after.instances[buffer_id].cell_index, buf_cell);
  // Buffer is the last load of the original net and drives the moved load.
  EXPECT_EQ(after.nets[net_idx].loads.back(), buffer_id);
  const std::uint32_t new_net = after.driven_net[buffer_id];
  ASSERT_NE(new_net, Design::kNoNet);
  ASSERT_EQ(after.nets[new_net].loads.size(), 1u);
  EXPECT_EQ(after.nets[new_net].loads[0], moved_load);
  EXPECT_TRUE(after.validate().empty());

  const StaResult full = run_sta(after, lib, wire, inc.config());
  expect_bitwise_equal(inc.result(), full, "buffer splice");
}

}  // namespace
