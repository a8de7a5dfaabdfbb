// SPEF writer/parser round-trip and robustness tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>

#include "rcnet/generate.hpp"
#include "rcnet/spef.hpp"

namespace {

using namespace gnntrans::rcnet;

RcNet sample_net(std::uint64_t seed = 3) {
  std::mt19937_64 rng(seed);
  NetGenConfig cfg;
  cfg.coupling_prob = 1.0;  // exercise coupling caps in SPEF
  return generate_net(cfg, rng, "top/u1/n42");
}

void expect_nets_equal(const RcNet& a, const RcNet& b, double tol = 1e-12) {
  EXPECT_EQ(a.name, b.name);
  ASSERT_EQ(a.node_count(), b.node_count());
  EXPECT_EQ(a.source, b.source);
  EXPECT_EQ(a.sinks, b.sinks);
  ASSERT_EQ(a.resistors.size(), b.resistors.size());
  for (std::size_t i = 0; i < a.resistors.size(); ++i) {
    EXPECT_EQ(a.resistors[i].a, b.resistors[i].a);
    EXPECT_EQ(a.resistors[i].b, b.resistors[i].b);
    EXPECT_NEAR(a.resistors[i].ohms, b.resistors[i].ohms, tol * a.resistors[i].ohms);
  }
  for (std::size_t i = 0; i < a.node_count(); ++i)
    EXPECT_NEAR(a.ground_cap[i], b.ground_cap[i], tol);
  ASSERT_EQ(a.couplings.size(), b.couplings.size());
  for (std::size_t i = 0; i < a.couplings.size(); ++i) {
    EXPECT_EQ(a.couplings[i].victim_node, b.couplings[i].victim_node);
    EXPECT_EQ(a.couplings[i].aggressor_seed, b.couplings[i].aggressor_seed);
    EXPECT_NEAR(a.couplings[i].farads, b.couplings[i].farads, tol);
  }
}

class SpefRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(SpefRoundTrip, WriteParseIdentity) {
  const RcNet net = sample_net(GetParam());
  const auto parsed = net_from_spef(to_spef(net));
  ASSERT_TRUE(parsed.has_value());
  expect_nets_equal(net, *parsed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpefRoundTrip, ::testing::Range(1, 13));

TEST(Spef, MultipleNetsRoundTrip) {
  std::mt19937_64 rng(5);
  NetGenConfig cfg;
  std::vector<RcNet> nets;
  for (int i = 0; i < 5; ++i)
    nets.push_back(generate_net(cfg, rng, "n" + std::to_string(i)));

  std::ostringstream out;
  out.precision(17);
  write_spef(out, nets);
  std::istringstream in(out.str());
  const SpefParseResult result = parse_spef(in);
  EXPECT_TRUE(result.warnings.empty());
  ASSERT_EQ(result.nets.size(), nets.size());
  for (std::size_t i = 0; i < nets.size(); ++i)
    expect_nets_equal(nets[i], result.nets[i]);
}

TEST(Spef, ParsedNetsPassValidation) {
  const RcNet net = sample_net(17);
  const auto parsed = net_from_spef(to_spef(net));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->validate().empty());
}

TEST(Spef, EmptyDocumentYieldsNoNets) {
  std::istringstream in("*SPEF \"x\"\n*DESIGN \"y\"\n");
  const SpefParseResult result = parse_spef(in);
  EXPECT_TRUE(result.nets.empty());
}

TEST(Spef, NetWithoutCapsIsDroppedWithWarning) {
  std::istringstream in("*D_NET foo 0.0\n*CONN\n*END\n");
  const SpefParseResult result = parse_spef(in);
  EXPECT_TRUE(result.nets.empty());
  ASSERT_FALSE(result.warnings.empty());
  EXPECT_NE(result.warnings.front().find("foo"), std::string::npos);
}

TEST(Spef, DisconnectedNetIsRejected) {
  // Two caps, no resistor: structurally invalid.
  std::istringstream in(
      "*D_NET bad 2.0\n*CONN\n*I bad:0 I\n*I bad:1 O\n"
      "*CAP\n1 bad:0 1.0\n2 bad:1 1.0\n*RES\n*END\n");
  const SpefParseResult result = parse_spef(in);
  EXPECT_TRUE(result.nets.empty());
  EXPECT_FALSE(result.warnings.empty());
}

TEST(Spef, MinimalHandWrittenNetParses) {
  std::istringstream in(
      "*D_NET n1 3.0\n*CONN\n*I n1:0 I\n*I n1:1 O\n"
      "*CAP\n1 n1:0 1.5\n2 n1:1 1.5\n*RES\n1 n1:0 n1:1 25.0\n*END\n");
  const SpefParseResult result = parse_spef(in);
  ASSERT_EQ(result.nets.size(), 1u);
  const RcNet& net = result.nets.front();
  EXPECT_EQ(net.node_count(), 2u);
  EXPECT_EQ(net.source, 0u);
  ASSERT_EQ(net.sinks.size(), 1u);
  EXPECT_NEAR(net.ground_cap[0], 1.5e-15, 1e-20);
  EXPECT_DOUBLE_EQ(net.resistors[0].ohms, 25.0);
}

TEST(Spef, SparseNodeIndicesAreCompacted) {
  // Node indices 0 and 7 should remap to 0 and 1.
  std::istringstream in(
      "*D_NET n1 3.0\n*CONN\n*I n1:0 I\n*I n1:7 O\n"
      "*CAP\n1 n1:0 1.0\n2 n1:7 2.0\n*RES\n1 n1:0 n1:7 10.0\n*END\n");
  const SpefParseResult result = parse_spef(in);
  ASSERT_EQ(result.nets.size(), 1u);
  EXPECT_EQ(result.nets[0].node_count(), 2u);
  EXPECT_EQ(result.nets[0].sinks[0], 1u);
}

TEST(Spef, RandomizedNetsPreserveElectricalProperties) {
  // Property-based round-trip over a mixed population: for ~50 randomized
  // nets (half non-tree), write+parse must preserve the topology and the
  // aggregate electrical quantities that downstream timing depends on.
  std::mt19937_64 rng(2026);
  NetGenConfig cfg;
  cfg.non_tree_fraction = 0.5;
  cfg.coupling_prob = 0.5;

  std::vector<RcNet> nets;
  nets.reserve(50);
  for (int i = 0; i < 50; ++i) {
    RcNet net = generate_net(cfg, rng, "prop" + std::to_string(i));
    if (net.validate().empty()) nets.push_back(std::move(net));
  }
  ASSERT_GE(nets.size(), 45u);
  bool saw_non_tree = false;
  bool saw_coupling = false;

  std::ostringstream out;
  out.precision(17);
  write_spef(out, nets);
  std::istringstream in(out.str());
  const SpefParseResult result = parse_spef(in);
  EXPECT_TRUE(result.warnings.empty());
  ASSERT_EQ(result.nets.size(), nets.size());

  for (std::size_t i = 0; i < nets.size(); ++i) {
    const RcNet& a = nets[i];
    const RcNet& b = result.nets[i];
    SCOPED_TRACE(a.name);

    // Topology survives: node/terminal structure and tree-ness.
    EXPECT_EQ(a.node_count(), b.node_count());
    EXPECT_EQ(a.source, b.source);
    EXPECT_EQ(a.sinks, b.sinks);
    EXPECT_EQ(a.is_tree(), b.is_tree());
    EXPECT_EQ(a.resistors.size(), b.resistors.size());
    EXPECT_TRUE(b.validate().empty());

    // Aggregate electrical quantities survive to parse precision.
    const double rtol = 1e-9;
    EXPECT_NEAR(a.total_resistance(), b.total_resistance(),
                rtol * a.total_resistance());
    EXPECT_NEAR(a.total_ground_cap(), b.total_ground_cap(),
                rtol * a.total_ground_cap());
    EXPECT_NEAR(a.total_coupling_cap(), b.total_coupling_cap(),
                rtol * std::max(a.total_coupling_cap(), 1e-18));

    // Per-sink pin caps (what the driver NLDM lookup consumes).
    for (const auto sink : a.sinks)
      EXPECT_NEAR(a.ground_cap[sink], b.ground_cap[sink],
                  rtol * a.ground_cap[sink]);

    saw_non_tree = saw_non_tree || !a.is_tree();
    saw_coupling = saw_coupling || !a.couplings.empty();
  }
  // The population must actually exercise both hard cases.
  EXPECT_TRUE(saw_non_tree);
  EXPECT_TRUE(saw_coupling);
}

// ---------------------------------------------------------------------------
// Malformed-input hardening: every defect is reported through
// SpefParseResult::status with its line number, and the parser never throws.

struct MalformedCase {
  const char* label;
  const char* text;
  const char* expect_in_status;  // substring of status.message()
  int expect_line;               // line number named in the status
};

// Print a case by its label. gtest's default prints the raw object bytes,
// which hold string-literal addresses that change with every process under
// ASLR, so the listed test names would not be stable from run to run.
void PrintTo(const MalformedCase& c, std::ostream* os) { *os << c.label; }

class SpefMalformed : public ::testing::TestWithParam<MalformedCase> {};

TEST_P(SpefMalformed, ReportsStatusWithLineNumber) {
  const MalformedCase& c = GetParam();
  std::istringstream in(c.text);
  const SpefParseResult result = parse_spef(in);
  ASSERT_FALSE(result.status.ok()) << c.label;
  EXPECT_EQ(result.status.code(), gnntrans::core::ErrorCode::kParseError);
  EXPECT_NE(result.status.message().find(c.expect_in_status), std::string::npos)
      << "status: " << result.status.message();
  EXPECT_NE(result.status.message().find(
                "line " + std::to_string(c.expect_line)),
            std::string::npos)
      << "status: " << result.status.message();
  EXPECT_FALSE(result.warnings.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Defects, SpefMalformed,
    ::testing::Values(
        MalformedCase{"truncated",
                      "*D_NET cut 3.0\n*CONN\n*I cut:0 I\n*I cut:1 O\n"
                      "*CAP\n1 cut:0 1.0\n",
                      "missing *END", 6},
        MalformedCase{"unknown_cap_unit", "*C_UNIT 1 NF\n",
                      "unknown capacitance unit 'NF'", 1},
        MalformedCase{"unknown_res_unit", "*SPEF \"x\"\n*R_UNIT 1 GOHM\n",
                      "unknown resistance unit 'GOHM'", 2},
        MalformedCase{"bad_unit_syntax", "*C_UNIT FF\n",
                      "needs '<multiplier> <unit>'", 1},
        MalformedCase{"duplicate_conn",
                      "*D_NET n1 3.0\n*CONN\n*I n1:0 I\n*I n1:1 O\n"
                      "*I n1:1 O\n*CAP\n1 n1:0 1.0\n2 n1:1 1.0\n"
                      "*RES\n1 n1:0 n1:1 10.0\n*END\n",
                      "duplicate *CONN definition for node n1:1", 5},
        MalformedCase{"second_driver",
                      "*D_NET n1 3.0\n*CONN\n*I n1:0 I\n*I n1:1 I\n"
                      "*CAP\n1 n1:0 1.0\n2 n1:1 1.0\n"
                      "*RES\n1 n1:0 n1:1 10.0\n*END\n",
                      "second driver terminal n1:1", 4},
        MalformedCase{"duplicate_cap",
                      "*D_NET n1 3.0\n*CONN\n*I n1:0 I\n*I n1:1 O\n"
                      "*CAP\n1 n1:0 1.0\n2 n1:0 1.0\n3 n1:1 1.0\n"
                      "*RES\n1 n1:0 n1:1 10.0\n*END\n",
                      "duplicate ground *CAP for node n1:0", 7},
        MalformedCase{"unterminated_net",
                      "*D_NET a 1.0\n*CONN\n*I a:0 I\n*CAP\n1 a:0 1.0\n"
                      "*D_NET b 1.0\n*CONN\n*END\n",
                      "*D_NET b starts before *END of a", 6}),
    [](const ::testing::TestParamInfo<MalformedCase>& info) {
      return info.param.label;
    });

TEST(Spef, UnitDirectivesScaleValues) {
  // PF caps and KOHM resistances must land in farads/ohms.
  std::istringstream in(
      "*C_UNIT 1 PF\n*R_UNIT 1 KOHM\n"
      "*D_NET n1 3.0\n*CONN\n*I n1:0 I\n*I n1:1 O\n"
      "*CAP\n1 n1:0 1.5\n2 n1:1 1.5\n*RES\n1 n1:0 n1:1 25.0\n*END\n");
  const SpefParseResult result = parse_spef(in);
  ASSERT_TRUE(result.status.ok()) << result.status.to_string();
  ASSERT_EQ(result.nets.size(), 1u);
  EXPECT_NEAR(result.nets[0].ground_cap[0], 1.5e-12, 1e-18);
  EXPECT_DOUBLE_EQ(result.nets[0].resistors[0].ohms, 25.0e3);
}

TEST(Spef, CleanRoundTripHasOkStatus) {
  const RcNet net = sample_net(9);
  std::istringstream in(to_spef(net));
  const SpefParseResult result = parse_spef(in);
  EXPECT_TRUE(result.status.ok()) << result.status.to_string();
  EXPECT_TRUE(result.warnings.empty());
}

TEST(Spef, ForeignNodeNamesAreSkippedGracefully) {
  // A resistor referencing another net's node is ignored; net stays valid.
  std::istringstream in(
      "*D_NET n1 3.0\n*CONN\n*I n1:0 I\n*I n1:1 O\n"
      "*CAP\n1 n1:0 1.0\n2 n1:1 1.0\n"
      "*RES\n1 n1:0 n1:1 10.0\n2 n1:1 other:3 99.0\n*END\n");
  const SpefParseResult result = parse_spef(in);
  ASSERT_EQ(result.nets.size(), 1u);
  EXPECT_EQ(result.nets[0].resistors.size(), 1u);
}

}  // namespace
