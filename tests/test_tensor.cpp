// Forward-value tests for tensor ops, optimizer behaviour, serialization.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <sstream>

#include "tensor/init.hpp"
#include "tensor/ops.hpp"
#include "tensor/optim.hpp"
#include "tensor/serialize.hpp"
#include "tensor/tensor.hpp"

namespace {

using namespace gnntrans::tensor;

Tensor t2x2(float a, float b, float c, float d, bool grad = false) {
  return Tensor::from_data({a, b, c, d}, 2, 2, grad);
}

TEST(Tensor, ConstructionAndShape) {
  const Tensor t(3, 4);
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 4u);
  EXPECT_EQ(t.size(), 12u);
  for (float v : t.values()) EXPECT_EQ(v, 0.0f);
}

TEST(Tensor, FromDataValidatesSize) {
  EXPECT_THROW(Tensor::from_data({1.0f, 2.0f}, 2, 2), std::invalid_argument);
}

TEST(Ops, MatmulHandChecked) {
  const Tensor a = t2x2(1, 2, 3, 4);
  const Tensor b = t2x2(5, 6, 7, 8);
  const Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c(0, 0), 19);
  EXPECT_FLOAT_EQ(c(0, 1), 22);
  EXPECT_FLOAT_EQ(c(1, 0), 43);
  EXPECT_FLOAT_EQ(c(1, 1), 50);
}

TEST(Ops, MultiHeadAttentionMatchesPerHeadOps) {
  std::mt19937_64 rng(1);
  const Tensor x = xavier_uniform(6, 5, rng);
  std::vector<Tensor> weights;
  for (int i = 0; i < 6; ++i) weights.push_back(xavier_uniform(5, 3, rng));
  const std::vector<std::uint8_t> all(36, 1);
  const Tensor fused = multi_head_attention(x, weights, 0.5f, {});
  ASSERT_EQ(fused.rows(), 6u);
  ASSERT_EQ(fused.cols(), 6u);
  for (std::size_t h = 0; h < 2; ++h) {
    const Tensor q = matmul(x, weights[3 * h]), k = matmul(x, weights[3 * h + 1]);
    const Tensor v = matmul(x, weights[3 * h + 2]);
    const Tensor head =
        matmul(masked_softmax_rows(scale(matmul(q, transpose(k)), 0.5f), all), v);
    for (std::size_t r = 0; r < 6; ++r)
      for (std::size_t j = 0; j < 3; ++j)
        EXPECT_NEAR(fused(r, h * 3 + j), head(r, j), 1e-6) << h << " " << r << " " << j;
  }
}

TEST(Ops, ShapeMismatchThrows) {
  const Tensor a(2, 3), b(2, 3);
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
  EXPECT_THROW(add(a, Tensor(3, 2)), std::invalid_argument);
  EXPECT_THROW(add_row_broadcast(a, Tensor(1, 4)), std::invalid_argument);
}

TEST(Ops, AddSubMulScale) {
  const Tensor a = t2x2(1, 2, 3, 4);
  const Tensor b = t2x2(10, 20, 30, 40);
  EXPECT_FLOAT_EQ(add(a, b)(1, 1), 44);
  EXPECT_FLOAT_EQ(sub(b, a)(0, 0), 9);
  EXPECT_FLOAT_EQ(mul(a, b)(0, 1), 40);
  EXPECT_FLOAT_EQ(scale(a, -2.0f)(1, 0), -6);
}

TEST(Ops, AddRowBroadcast) {
  const Tensor a = t2x2(1, 2, 3, 4);
  const Tensor bias = Tensor::from_data({10, 100}, 1, 2);
  const Tensor y = add_row_broadcast(a, bias);
  EXPECT_FLOAT_EQ(y(0, 0), 11);
  EXPECT_FLOAT_EQ(y(0, 1), 102);
  EXPECT_FLOAT_EQ(y(1, 0), 13);
  EXPECT_FLOAT_EQ(y(1, 1), 104);
}

TEST(Ops, OuterSum) {
  const Tensor s = Tensor::from_data({1, 2}, 2, 1);
  const Tensor t = Tensor::from_data({10, 20, 30}, 3, 1);
  const Tensor e = outer_sum(s, t);
  EXPECT_EQ(e.rows(), 2u);
  EXPECT_EQ(e.cols(), 3u);
  EXPECT_FLOAT_EQ(e(0, 0), 11);
  EXPECT_FLOAT_EQ(e(1, 2), 32);
}

TEST(Ops, Nonlinearities) {
  const Tensor x = Tensor::from_data({-2, -0.5, 0, 3}, 1, 4);
  const Tensor r = relu(x);
  EXPECT_FLOAT_EQ(r(0, 0), 0);
  EXPECT_FLOAT_EQ(r(0, 3), 3);
  const Tensor l = leaky_relu(x, 0.1f);
  EXPECT_FLOAT_EQ(l(0, 0), -0.2f);
  EXPECT_FLOAT_EQ(l(0, 3), 3);
  const Tensor s = sigmoid(Tensor::from_data({0}, 1, 1));
  EXPECT_NEAR(s(0, 0), 0.5f, 1e-6);
  const Tensor th = tanh_op(Tensor::from_data({0.5f}, 1, 1));
  EXPECT_NEAR(th(0, 0), std::tanh(0.5f), 1e-6);
}

TEST(Ops, SoftmaxRowsSumToOne) {
  std::mt19937_64 rng(2);
  const Tensor x = xavier_uniform(4, 6, rng);
  const Tensor y = masked_softmax_rows(x, std::vector<std::uint8_t>(24, 1));
  for (std::size_t r = 0; r < 4; ++r) {
    float sum = 0;
    for (std::size_t c = 0; c < 6; ++c) {
      EXPECT_GT(y(r, c), 0.0f);
      sum += y(r, c);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
}

TEST(Ops, SoftmaxIsShiftInvariant) {
  const Tensor a = Tensor::from_data({1, 2, 3}, 1, 3);
  const Tensor b = Tensor::from_data({101, 102, 103}, 1, 3);
  const std::vector<std::uint8_t> all(3, 1);
  const Tensor ya = masked_softmax_rows(a, all), yb = masked_softmax_rows(b, all);
  for (std::size_t c = 0; c < 3; ++c) EXPECT_NEAR(ya(0, c), yb(0, c), 1e-6);
}

TEST(Ops, MaskedSoftmaxZerosMaskedEntries) {
  const Tensor x = Tensor::from_data({1, 5, 2, 1, 1, 1}, 2, 3);
  const std::vector<std::uint8_t> mask{1, 0, 1, 0, 0, 0};
  const Tensor y = masked_softmax_rows(x, mask);
  EXPECT_FLOAT_EQ(y(0, 1), 0.0f);
  EXPECT_NEAR(y(0, 0) + y(0, 2), 1.0f, 1e-6);
  // Fully masked row stays zero.
  for (std::size_t c = 0; c < 3; ++c) EXPECT_FLOAT_EQ(y(1, c), 0.0f);
}

TEST(Ops, ConcatColsLayout) {
  const Tensor a = t2x2(1, 2, 3, 4);
  const Tensor b = Tensor::from_data({9, 10}, 2, 1);
  const Tensor c = concat_cols({a, b});
  EXPECT_EQ(c.cols(), 3u);
  EXPECT_FLOAT_EQ(c(0, 2), 9);
  EXPECT_FLOAT_EQ(c(1, 0), 3);
}

TEST(Ops, GatherRowsWithDuplicates) {
  const Tensor a = t2x2(1, 2, 3, 4);
  const Tensor g = gather_rows(a, {1, 1, 0});
  EXPECT_EQ(g.rows(), 3u);
  EXPECT_FLOAT_EQ(g(0, 0), 3);
  EXPECT_FLOAT_EQ(g(2, 1), 2);
  EXPECT_THROW(gather_rows(a, {5}), std::invalid_argument);
}

TEST(Ops, SpmmAppliesFixedWeights) {
  GraphMatrix m(2, 3);
  m.add(0, 0, 1.0f);
  m.add(0, 2, 2.0f);
  m.add(1, 1, -1.0f);
  const Tensor x = Tensor::from_data({1, 10, 2, 20, 3, 30}, 3, 2);
  const Tensor y = spmm(m, x);
  EXPECT_FLOAT_EQ(y(0, 0), 1 + 2 * 3);
  EXPECT_FLOAT_EQ(y(0, 1), 10 + 2 * 30);
  EXPECT_FLOAT_EQ(y(1, 0), -2);
}

TEST(Ops, GraphMatrixRowNormalize) {
  GraphMatrix m(2, 2);
  m.add(0, 0, 2.0f);
  m.add(0, 1, 6.0f);
  m.add(1, 0, 0.0f);  // zero-sum row left untouched
  m.row_normalize();
  EXPECT_FLOAT_EQ(m.values[0], 0.25f);
  EXPECT_FLOAT_EQ(m.values[1], 0.75f);
  EXPECT_FLOAT_EQ(m.values[2], 0.0f);
}

TEST(Ops, Reductions) {
  const Tensor a = t2x2(1, 2, 3, 4);
  EXPECT_FLOAT_EQ(sum_all(a).item(), 10);
  EXPECT_FLOAT_EQ(mean_all(a).item(), 2.5);
}

TEST(Ops, MseLoss) {
  const Tensor pred = Tensor::from_data({1, 2}, 2, 1);
  const Tensor target = Tensor::from_data({0, 4}, 2, 1);
  EXPECT_FLOAT_EQ(mse_loss(pred, target).item(), (1 + 4) / 2.0f);
}

TEST(Autograd, NoGradGuardSuppressesTape) {
  std::mt19937_64 rng(3);
  const Tensor w = xavier_uniform(2, 2, rng);
  const Tensor x = t2x2(1, 0, 0, 1);
  {
    NoGradGuard guard;
    const Tensor y = matmul(x, w);
    EXPECT_FALSE(y.requires_grad());
  }
  const Tensor y = matmul(x, w);
  EXPECT_TRUE(y.requires_grad());
}

TEST(Autograd, BackwardRequiresScalar) {
  Tensor w(2, 2, true);
  EXPECT_THROW(w.backward(), std::logic_error);
}

TEST(Autograd, GradAccumulatesAcrossBackwardCalls) {
  const Tensor w = Tensor::from_data({2}, 1, 1, true);
  Tensor loss1 = scale(w, 3.0f);
  loss1.backward();
  EXPECT_FLOAT_EQ(w.grad()[0], 3.0f);
  Tensor loss2 = scale(w, 3.0f);
  loss2.backward();
  EXPECT_FLOAT_EQ(w.grad()[0], 6.0f);
}

TEST(Autograd, DiamondGraphGradSumsBothBranches) {
  // y = sum(w * w_detached_path + w): shared node used twice.
  const Tensor w = Tensor::from_data({1, 2, 3, 4}, 2, 2, true);
  Tensor y = sum_all(add(w, w));
  y.backward();
  for (float g : w.grad()) EXPECT_FLOAT_EQ(g, 2.0f);
}

TEST(Adam, ConvergesOnQuadraticBowl) {
  // minimize ||w - target||^2.
  Tensor w(1, 4, true);
  const Tensor target = Tensor::from_data({1, -2, 3, 0.5f}, 1, 4);
  Adam::Config cfg;
  cfg.learning_rate = 0.05f;
  Adam opt({w}, cfg);
  for (int step = 0; step < 500; ++step) {
    opt.zero_grad();
    Tensor loss = mse_loss(w, target);
    loss.backward();
    opt.step();
  }
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_NEAR(w.values()[i], target.values()[i], 1e-2);
}

TEST(Adam, RejectsNonGradParameters) {
  Tensor frozen(2, 2, false);
  EXPECT_THROW(Adam({frozen}), std::invalid_argument);
}

TEST(Adam, ClipGradNormScalesDown) {
  Tensor w = Tensor::from_data({3, 4}, 1, 2, true);
  Tensor loss = sum_all(mul(w, w));
  loss.backward();  // grad = (6, 8), norm 10
  std::vector<Tensor> params{w};
  const double pre = clip_grad_norm(params, 5.0);
  EXPECT_NEAR(pre, 10.0, 1e-5);
  EXPECT_NEAR(w.grad()[0], 3.0f, 1e-5);
  EXPECT_NEAR(w.grad()[1], 4.0f, 1e-5);
}

TEST(Serialize, TensorRoundTrip) {
  std::mt19937_64 rng(4);
  const Tensor t = he_normal(5, 7, rng);
  std::stringstream buf;
  write_tensor(buf, t);
  const Tensor back = read_tensor(buf);
  ASSERT_EQ(back.rows(), 5u);
  ASSERT_EQ(back.cols(), 7u);
  for (std::size_t i = 0; i < t.size(); ++i)
    EXPECT_EQ(t.values()[i], back.values()[i]);
}

TEST(Serialize, HeaderMismatchThrows) {
  std::stringstream buf;
  write_header(buf, "MAGIC_A", 1);
  EXPECT_THROW(check_header(buf, "MAGIC_B", 1), std::runtime_error);
  std::stringstream buf2;
  write_header(buf2, "MAGIC_A", 1);
  EXPECT_THROW(check_header(buf2, "MAGIC_A", 2), std::runtime_error);
}

TEST(Serialize, TruncatedStreamThrows) {
  std::stringstream buf;
  const Tensor t(4, 4);
  write_tensor(buf, t);
  std::string payload = buf.str();
  payload.resize(payload.size() / 2);
  std::stringstream cut(payload);
  EXPECT_THROW(read_tensor(cut), std::runtime_error);
}

TEST(Serialize, DoublesRoundTrip) {
  std::stringstream buf;
  write_doubles(buf, {1.5, -2.25, 1e-15});
  const auto back = read_doubles(buf);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_DOUBLE_EQ(back[2], 1e-15);
}

TEST(Init, XavierBoundsRespected) {
  std::mt19937_64 rng(5);
  const Tensor t = xavier_uniform(10, 10, rng);
  const float limit = std::sqrt(6.0f / 20.0f);
  for (float v : t.values()) {
    EXPECT_GE(v, -limit);
    EXPECT_LE(v, limit);
  }
  EXPECT_TRUE(t.requires_grad());
}

}  // namespace
