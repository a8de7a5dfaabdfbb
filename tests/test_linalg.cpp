// Tests for the tree-ordered sparse LDLᵀ kernel, against the dense oracle, and
// for the oracle's Cholesky and LU themselves.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <span>
#include <stdexcept>
#include <string>

#include "dense_oracle.hpp"
#include "linalg/tree_ldlt.hpp"
#include "sim/moments.hpp"
#include "sim/transient.hpp"

namespace {

using namespace gnntrans;
using linalg::Branch;
using linalg::TreeLdlt;

/// A random conductance graph on n nodes: a random spanning tree plus
/// \p loops extra branches between random node pairs.
struct Graph {
  std::vector<double> shunt;
  std::vector<Branch> branches;
  std::uint32_t root = 0;
};

Graph random_graph(std::size_t n, std::size_t loops, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> g(0.1, 1.0);
  std::uniform_real_distribution<double> s(0.01, 0.1);
  std::vector<std::uint32_t> label(n);
  for (std::size_t i = 0; i < n; ++i) label[i] = static_cast<std::uint32_t>(i);
  std::shuffle(label.begin(), label.end(), rng);
  Graph out;
  out.root = label[0];
  for (std::size_t v = 1; v < n; ++v) {
    const std::size_t u = std::uniform_int_distribution<std::size_t>(0, v - 1)(rng);
    out.branches.push_back({label[u], label[v], g(rng)});
  }
  std::uniform_int_distribution<std::uint32_t> node(0, static_cast<std::uint32_t>(n - 1));
  while (out.branches.size() < n - 1 + loops) {
    const std::uint32_t a = node(rng), b = node(rng);
    if (a != b) out.branches.push_back({a, b, g(rng)});
  }
  for (std::size_t i = 0; i < n; ++i) out.shunt.push_back(s(rng));
  return out;
}

std::vector<double> random_vector(std::size_t n, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> v(n);
  for (double& x : v) x = dist(rng);
  return v;
}

/// Random row-major n x n matrix with entries in [-1, 1].
std::vector<double> random_matrix(std::size_t n, std::mt19937_64& rng) {
  return random_vector(n * n, rng);
}

/// Random SPD matrix: A = B Bᵀ + n I.
std::vector<double> random_spd(std::size_t n, std::mt19937_64& rng) {
  const std::vector<double> b = random_matrix(n, rng);
  std::vector<double> a(n * n, 0.0);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      for (std::size_t k = 0; k < n; ++k) a[r * n + c] += b[r * n + k] * b[c * n + k];
  for (std::size_t i = 0; i < n; ++i) a[i * n + i] += static_cast<double>(n);
  return a;
}

double max_abs_diff(std::span<const double> a, std::span<const double> b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

/// Solves A x = b with the oracle's LU; empty if A is singular.
std::vector<double> lu_solve(std::vector<double> a, std::vector<double> b) {
  const std::size_t n = b.size();
  std::vector<std::size_t> perm;
  if (!dense_oracle::lu(a, n, perm)) return {};
  dense_oracle::lu_solve(a, n, perm, b);
  return b;
}

/// Solves with the sparse factor and with the dense oracle; returns the
/// relative difference.
double sparse_vs_dense(const Graph& gr, bool grounded, std::mt19937_64& rng) {
  const std::size_t n = gr.shunt.size();
  auto ldlt = TreeLdlt::factor(gr.shunt, gr.branches, gr.root, grounded);
  EXPECT_TRUE(ldlt.has_value());
  if (!ldlt) return 1.0;
  std::vector<double> b = random_vector(n, rng);
  if (grounded) b[gr.root] = 0.0;
  std::vector<double> l = dense_oracle::assemble(
      gr.shunt, gr.branches,
      grounded ? std::optional<std::uint32_t>(gr.root) : std::nullopt);
  EXPECT_TRUE(dense_oracle::cholesky(l, n));
  std::vector<double> x_dense = b;
  dense_oracle::cholesky_solve(l, n, x_dense);
  std::vector<double> x = b;
  ldlt->solve(x);
  if (grounded) {
    EXPECT_EQ(x[gr.root], 0.0);
  }
  return dense_oracle::rel_inf_diff(x, x_dense);
}

TEST(TreeLdlt, TreeFactorsWithZeroFill) {
  std::mt19937_64 rng(1);
  for (std::size_t n : {2u, 7u, 60u, 300u}) {
    const Graph gr = random_graph(n, 0, rng);
    const auto full = TreeLdlt::factor(gr.shunt, gr.branches, gr.root, false);
    ASSERT_TRUE(full.has_value());
    EXPECT_EQ(full->size(), n);
    EXPECT_EQ(full->factor_entries(), n - 1) << "n=" << n;

    // Grounded, the root's column is gone: each root child loses its entry.
    std::size_t root_degree = 0;
    for (const Branch& br : gr.branches) root_degree += (br.a == gr.root || br.b == gr.root);
    const auto grounded = TreeLdlt::factor(gr.shunt, gr.branches, gr.root, true);
    ASSERT_TRUE(grounded.has_value());
    EXPECT_EQ(grounded->size(), n - 1);
    EXPECT_EQ(grounded->factor_entries(), n - 1 - root_degree) << "n=" << n;
  }
}

class LdltSeeded : public ::testing::TestWithParam<int> {};

TEST_P(LdltSeeded, SolveReconstructsRhs) {
  std::mt19937_64 rng(GetParam());
  for (std::size_t n : {2u, 5u, 12u, 30u}) {
    const Graph gr = random_graph(n, n / 3, rng);
    const std::vector<double> x_true = random_vector(n, rng);
    std::vector<double> x =
        dense_oracle::matvec(dense_oracle::assemble(gr.shunt, gr.branches), x_true);
    auto ldlt = TreeLdlt::factor(gr.shunt, gr.branches, gr.root, false);
    ASSERT_TRUE(ldlt.has_value());
    ldlt->solve(x);
    EXPECT_LT(dense_oracle::rel_inf_diff(x, x_true), 1e-9) << "n=" << n;
  }
}

TEST_P(LdltSeeded, MatchesDenseOracle) {
  std::mt19937_64 rng(GetParam() + 100);
  for (std::size_t n : {2u, 5u, 40u, 200u})
    for (std::size_t loops : {0u, 1u, 6u}) {
      const Graph gr = random_graph(n, loops, rng);
      EXPECT_LT(sparse_vs_dense(gr, false, rng), 1e-12) << n << "/" << loops;
      // Grounded, the Laplacian alone is SPD: drop the shunt.
      Graph bare = gr;
      std::fill(bare.shunt.begin(), bare.shunt.end(), 0.0);
      EXPECT_LT(sparse_vs_dense(bare, true, rng), 1e-12) << n << "/" << loops;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LdltSeeded, ::testing::Range(1, 9));

/// Clock-mesh-like graphs: as many loop branches as tree branches.
class LdltMeshSeeded : public ::testing::TestWithParam<int> {};

TEST_P(LdltMeshSeeded, MatchesDenseOracleOnMesh) {
  std::mt19937_64 rng(GetParam());
  const std::size_t n = 120;
  const Graph gr = random_graph(n, n, rng);
  EXPECT_LT(sparse_vs_dense(gr, false, rng), 1e-12);
  Graph bare = gr;
  std::fill(bare.shunt.begin(), bare.shunt.end(), 0.0);
  EXPECT_LT(sparse_vs_dense(bare, true, rng), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LdltMeshSeeded, ::testing::Range(1, 7));

TEST(TreeLdlt, RejectsIndefiniteMatrix) {
  // [[0.5, -1], [-1, 1]]: eigenvalues of both signs.
  const std::vector<double> shunt{-0.5, 0.0};
  const std::vector<Branch> branches{{0, 1, 1.0}};
  EXPECT_FALSE(TreeLdlt::factor(shunt, branches, 1, false).has_value());
}

TEST(TreeLdlt, RejectsSingularLaplacian) {
  // No shunt and no grounded node: the all-ones vector is in the null space,
  // and the root's pivot comes out exactly 0.
  const std::vector<double> shunt(4, 0.0);
  const std::vector<Branch> branches{{0, 1, 1.0}, {1, 2, 2.0}, {2, 3, 4.0}};
  EXPECT_FALSE(TreeLdlt::factor(shunt, branches, 0, false).has_value());
  EXPECT_TRUE(TreeLdlt::factor(shunt, branches, 0, true).has_value());
}

// The dense oracle's own checks: its Cholesky is what the sparse kernel is
// judged against, so it is cross-checked with an independent pivoted LU.
class LuSeeded : public ::testing::TestWithParam<int> {};

TEST_P(LuSeeded, SolveReconstructsRhs) {
  std::mt19937_64 rng(GetParam());
  for (std::size_t n : {2u, 5u, 12u, 30u}) {
    std::vector<double> a = random_matrix(n, rng);
    for (std::size_t i = 0; i < n; ++i) a[i * n + i] += 2.0 * n;  // well-conditioned
    const std::vector<double> x_true = random_vector(n, rng);
    const std::vector<double> x = lu_solve(a, dense_oracle::matvec(a, x_true));
    ASSERT_EQ(x.size(), n);
    EXPECT_LT(max_abs_diff(x, x_true), 1e-9) << "n=" << n;
  }
}

TEST_P(LuSeeded, CholeskyMatchesLuOnSpd) {
  std::mt19937_64 rng(GetParam() + 100);
  const std::size_t n = 10;
  const std::vector<double> a = random_spd(n, rng);
  const std::vector<double> b = random_vector(n, rng);
  const std::vector<double> x_lu = lu_solve(a, b);
  ASSERT_EQ(x_lu.size(), n);
  std::vector<double> l = a;
  ASSERT_TRUE(dense_oracle::cholesky(l, n));
  std::vector<double> x_chol = b;
  dense_oracle::cholesky_solve(l, n, x_chol);
  EXPECT_LT(max_abs_diff(x_lu, x_chol), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LuSeeded, ::testing::Range(1, 9));

TEST(Lu, DetectsSingularMatrix) {
  std::vector<double> a(9);  // rank 1
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c) a[r * 3 + c] = static_cast<double>(r + 1);
  EXPECT_TRUE(lu_solve(a, {1.0, 1.0, 1.0}).empty());
}

TEST(Lu, HandlesPermutationRequiredPivot) {
  const std::vector<double> x = lu_solve({0.0, 1.0, 1.0, 0.0}, {3.0, 7.0});
  ASSERT_EQ(x.size(), 2u);
  EXPECT_DOUBLE_EQ(x[0], 7.0);
  EXPECT_DOUBLE_EQ(x[1], 3.0);
}

TEST(Cholesky, RejectsIndefiniteMatrix) {
  std::vector<double> a{1.0, 2.0, 2.0, 1.0};  // eigenvalues 3, -1
  EXPECT_FALSE(dense_oracle::cholesky(a, 2));
}

rcnet::RcNet chain(std::size_t n) {
  rcnet::RcNet net;
  net.name = "cut";
  net.sinks = {static_cast<rcnet::NodeId>(n - 1)};
  net.ground_cap.assign(n, 2e-15);
  for (rcnet::NodeId v = 1; v < n; ++v)
    net.resistors.push_back({static_cast<rcnet::NodeId>(v - 1), v, 40.0});
  return net;
}

/// Both engines reject \p net with the moment engine's message (the
/// transient sizes its window from the moments before it factors).
void expect_rejected(const rcnet::RcNet& net) {
  const std::string expected =
      "compute_moments: conductance matrix not SPD (net 'cut' likely disconnected)";
  try {
    (void)sim::compute_moments(net);
    ADD_FAILURE() << "compute_moments accepted the net";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(e.what(), expected);
  }
  try {
    (void)sim::simulate(net, sim::TransientConfig{}, 3e-11);
    ADD_FAILURE() << "simulate accepted the net";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(e.what(), expected);
  }
}

TEST(TreeLdlt, RejectsDisconnectedNet) {
  rcnet::RcNet net = chain(6);
  net.resistors.erase(net.resistors.begin() + 2);  // nodes 3..5 float
  EXPECT_FALSE(TreeLdlt::factor(net.ground_cap, std::vector<Branch>{{0, 1, 1.0}}, 0,
                                false).has_value());
  expect_rejected(net);
}

TEST(TreeLdlt, RejectsZeroConductanceResistor) {
  rcnet::RcNet net = chain(6);
  net.resistors[2].ohms = std::numeric_limits<double>::infinity();  // g = 0
  const std::vector<double> shunt(3, 1.0);
  EXPECT_FALSE(TreeLdlt::factor(shunt, std::vector<Branch>{{0, 1, 1.0}, {1, 2, 0.0}},
                                0, false).has_value());
  expect_rejected(net);
}

}  // namespace
