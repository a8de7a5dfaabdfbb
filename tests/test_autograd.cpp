// Finite-difference gradient verification for every differentiable op and for
// the composite layers used by the models. This is the load-bearing test file
// for training correctness: any backward-formula bug fails here.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <random>
#include <span>
#include <string>

#include "autograd_oracle.hpp"
#include "nn/layers.hpp"
#include "tensor/init.hpp"
#include "tensor/ops.hpp"
#include "tensor/optim.hpp"
#include "tensor/simd.hpp"
#include "tensor/tensor.hpp"

namespace {

using namespace gnntrans::tensor;

/// Central-difference check of d(loss)/d(param) for every element of every
/// parameter. `loss_fn` must re-run the full forward pass on each call.
void check_gradients(const std::function<Tensor()>& loss_fn,
                     std::vector<Tensor> params, float eps = 1e-2f,
                     float tol = 2e-2f) {
  // Analytic gradients.
  for (Tensor& p : params) p.zero_grad();
  Tensor loss = loss_fn();
  loss.backward();

  std::vector<std::vector<float>> analytic;
  for (Tensor& p : params) {
    ASSERT_FALSE(p.grad().empty());
    analytic.emplace_back(p.grad().begin(), p.grad().end());
  }

  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    Tensor& p = params[pi];
    for (std::size_t i = 0; i < p.size(); ++i) {
      const float saved = p.values()[i];
      float plus, minus;
      {
        NoGradGuard guard;
        p.values()[i] = saved + eps;
        plus = loss_fn().item();
        p.values()[i] = saved - eps;
        minus = loss_fn().item();
        p.values()[i] = saved;
      }
      const float numeric = (plus - minus) / (2 * eps);
      const float exact = analytic[pi][i];
      const float denom = std::max({1.0f, std::abs(numeric), std::abs(exact)});
      EXPECT_NEAR(numeric / denom, exact / denom, tol)
          << "param " << pi << " element " << i;
    }
  }
}

Tensor rand_tensor(std::size_t r, std::size_t c, std::mt19937_64& rng,
                   bool grad = true) {
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  Tensor t(r, c, grad);
  for (float& v : t.values()) v = dist(rng);
  return t;
}

TEST(GradCheck, Matmul) {
  std::mt19937_64 rng(1);
  Tensor a = rand_tensor(3, 4, rng), b = rand_tensor(4, 2, rng);
  check_gradients([&] { return sum_all(matmul(a, b)); }, {a, b});
}

TEST(GradCheck, MultiHeadAttention) {
  std::mt19937_64 rng(2);
  Tensor x = rand_tensor(5, 4, rng);
  std::vector<Tensor> weights;
  for (int i = 0; i < 6; ++i) weights.push_back(rand_tensor(4, 3, rng));
  std::vector<Tensor> params = weights;
  params.push_back(x);
  check_gradients(
      [&] {
        const Tensor y = multi_head_attention(x, weights, 0.6f, {});
        return sum_all(mul(y, y));
      },
      params, 5e-3f, 3e-2f);
}

TEST(GradCheck, MultiHeadAttentionMaskedLiveRows) {
  std::mt19937_64 rng(3);
  Tensor x = rand_tensor(5, 4, rng);
  std::vector<Tensor> weights;
  for (int i = 0; i < 6; ++i) weights.push_back(rand_tensor(4, 2, rng));
  std::vector<Tensor> params = weights;
  params.push_back(x);
  // Row 2 keeps nothing; only rows 0, 2 and 4 are computed and read.
  std::vector<std::uint8_t> mask(25, 1);
  for (std::size_t c = 0; c < 5; ++c) mask[2 * 5 + c] = 0;
  mask[0 * 5 + 3] = mask[4 * 5 + 1] = mask[4 * 5 + 4] = 0;
  const std::vector<std::uint32_t> rows{0, 2, 4};
  check_gradients(
      [&] {
        const Tensor y = gather_rows(multi_head_attention(x, weights, 0.8f, mask, rows), rows);
        return sum_all(mul(y, y));
      },
      params, 5e-3f, 3e-2f);
}

TEST(GradCheck, Transpose) {
  std::mt19937_64 rng(3);
  Tensor a = rand_tensor(3, 4, rng);
  Tensor w = rand_tensor(3, 4, rng);
  check_gradients([&] { return sum_all(mul(transpose(a), transpose(w))); }, {a, w});
}

TEST(GradCheck, AddSubMulScale) {
  std::mt19937_64 rng(4);
  Tensor a = rand_tensor(3, 3, rng), b = rand_tensor(3, 3, rng);
  check_gradients(
      [&] { return sum_all(mul(add(a, b), sub(scale(a, 0.5f), b))); }, {a, b});
}

TEST(GradCheck, AddRowBroadcast) {
  std::mt19937_64 rng(5);
  Tensor a = rand_tensor(4, 3, rng), bias = rand_tensor(1, 3, rng);
  check_gradients(
      [&] {
        const Tensor y = add_row_broadcast(a, bias);
        return sum_all(mul(y, y));
      },
      {a, bias});
}

TEST(GradCheck, OuterSum) {
  std::mt19937_64 rng(6);
  Tensor s = rand_tensor(4, 1, rng), t = rand_tensor(3, 1, rng);
  check_gradients(
      [&] {
        const Tensor e = outer_sum(s, t);
        return sum_all(mul(e, e));
      },
      {s, t});
}

TEST(GradCheck, ReluAtNonKinkPoints) {
  std::mt19937_64 rng(7);
  Tensor a = rand_tensor(4, 4, rng);
  // Keep values away from the kink so finite differences are valid.
  for (float& v : a.values())
    if (std::abs(v) < 0.1f) v = 0.3f;
  check_gradients([&] { return sum_all(mul(relu(a), relu(a))); }, {a});
}

TEST(GradCheck, LeakyRelu) {
  std::mt19937_64 rng(8);
  Tensor a = rand_tensor(4, 4, rng);
  for (float& v : a.values())
    if (std::abs(v) < 0.1f) v = -0.4f;
  check_gradients([&] { return sum_all(mul(leaky_relu(a), leaky_relu(a))); }, {a});
}

TEST(GradCheck, SigmoidAndTanh) {
  std::mt19937_64 rng(9);
  Tensor a = rand_tensor(3, 3, rng);
  check_gradients([&] { return sum_all(mul(sigmoid(a), tanh_op(a))); }, {a},
                  5e-3f);
}

TEST(GradCheck, SoftmaxRows) {
  std::mt19937_64 rng(10);
  Tensor a = rand_tensor(3, 5, rng);
  Tensor w = rand_tensor(3, 5, rng);
  const std::vector<std::uint8_t> all(15, 1);
  check_gradients([&] { return sum_all(mul(masked_softmax_rows(a, all), w)); }, {a},
                  5e-3f);
}

TEST(GradCheck, MaskedSoftmaxRows) {
  std::mt19937_64 rng(11);
  Tensor a = rand_tensor(3, 4, rng);
  Tensor w = rand_tensor(3, 4, rng);
  const std::vector<std::uint8_t> mask{1, 1, 0, 1,  0, 1, 1, 0,  1, 0, 0, 1};
  check_gradients([&] { return sum_all(mul(masked_softmax_rows(a, mask), w)); },
                  {a}, 5e-3f);
}

TEST(GradCheck, ConcatCols) {
  std::mt19937_64 rng(12);
  Tensor a = rand_tensor(3, 2, rng), b = rand_tensor(3, 4, rng),
         c = rand_tensor(3, 1, rng);
  check_gradients(
      [&] {
        const Tensor y = concat_cols({a, b, c});
        return sum_all(mul(y, y));
      },
      {a, b, c});
}

TEST(GradCheck, GatherRows) {
  std::mt19937_64 rng(13);
  Tensor a = rand_tensor(4, 3, rng);
  const std::vector<std::uint32_t> idx{0, 2, 2, 3};
  check_gradients(
      [&] {
        const Tensor y = gather_rows(a, idx);
        return sum_all(mul(y, y));
      },
      {a});
}

TEST(GradCheck, Spmm) {
  std::mt19937_64 rng(14);
  GraphMatrix m(3, 4);
  m.add(0, 1, 0.7f);
  m.add(0, 3, -0.5f);
  m.add(1, 0, 1.2f);
  m.add(2, 2, 0.4f);
  m.add(2, 3, 0.9f);
  Tensor x = rand_tensor(4, 3, rng);
  check_gradients(
      [&] {
        const Tensor y = spmm(m, x);
        return sum_all(mul(y, y));
      },
      {x});
}

TEST(GradCheck, MseLoss) {
  std::mt19937_64 rng(15);
  Tensor pred = rand_tensor(5, 1, rng);
  Tensor target = rand_tensor(5, 1, rng, /*grad=*/false);
  check_gradients([&] { return mse_loss(pred, target); }, {pred});
}

TEST(GradCheck, MeanAll) {
  std::mt19937_64 rng(16);
  Tensor a = rand_tensor(4, 4, rng);
  check_gradients([&] { return mean_all(mul(a, a)); }, {a});
}

// ---- Composite layers: gradients flow through entire blocks ----

TEST(GradCheck, LinearLayer) {
  std::mt19937_64 rng(20);
  gnntrans::nn::Linear layer(4, 3, rng);
  Tensor x = rand_tensor(5, 4, rng, /*grad=*/false);
  std::vector<Tensor> params;
  layer.collect_parameters(params);
  check_gradients(
      [&] {
        const Tensor y = layer.forward(x);
        return sum_all(mul(y, y));
      },
      params);
}

TEST(GradCheck, MlpTwoHidden) {
  std::mt19937_64 rng(21);
  gnntrans::nn::Mlp mlp({3, 6, 6, 1}, rng);
  Tensor x = rand_tensor(4, 3, rng, /*grad=*/false);
  std::vector<Tensor> params;
  mlp.collect_parameters(params);
  // Wider tolerance: hidden ReLU kinks make central differences noisy.
  check_gradients([&] { return sum_all(mlp.forward(x)); }, params, 5e-3f, 8e-2f);
}

TEST(GradCheck, SageConv) {
  std::mt19937_64 rng(22);
  gnntrans::nn::SageConv conv(3, 4, rng);
  GraphMatrix agg(4, 4);
  agg.add(0, 1, 1.0f);
  agg.add(1, 0, 0.5f);
  agg.add(1, 2, 0.5f);
  agg.add(2, 1, 0.6f);
  agg.add(3, 2, 1.0f);
  Tensor x = rand_tensor(4, 3, rng, /*grad=*/false);
  std::vector<Tensor> params;
  conv.collect_parameters(params);
  check_gradients(
      [&] {
        const Tensor y = conv.forward(x, agg);
        return sum_all(mul(y, y));
      },
      params, 1e-2f, 3e-2f);
}

TEST(GradCheck, SelfAttentionGlobal) {
  std::mt19937_64 rng(23);
  gnntrans::nn::SelfAttentionLayer attn(4, 2, rng);
  Tensor x = rand_tensor(5, 4, rng, /*grad=*/false);
  std::vector<Tensor> params;
  attn.collect_parameters(params);
  static const std::vector<std::uint8_t> kNoMask;
  check_gradients(
      [&] {
        const Tensor y = attn.forward(x, kNoMask);
        return sum_all(mul(y, y));
      },
      params, 5e-3f, 3e-2f);
}

TEST(GradCheck, GatLayer) {
  std::mt19937_64 rng(24);
  gnntrans::nn::GatLayer gat(3, 4, 2, rng);
  Tensor x = rand_tensor(4, 3, rng, /*grad=*/false);
  std::vector<std::uint8_t> mask(16, 0);
  for (std::size_t i = 0; i < 4; ++i) mask[i * 4 + i] = 1;
  mask[0 * 4 + 1] = mask[1 * 4 + 0] = 1;
  mask[2 * 4 + 3] = mask[3 * 4 + 2] = 1;
  std::vector<Tensor> params;
  gat.collect_parameters(params);
  check_gradients(
      [&] {
        const Tensor y = gat.forward(x, mask);
        return sum_all(mul(y, y));
      },
      params, 5e-3f, 4e-2f);
}

TEST(GradCheck, GcniiLayer) {
  std::mt19937_64 rng(25);
  gnntrans::nn::GcniiLayer layer(4, 0.1f, 0.4f, rng);
  GraphMatrix prop(3, 3);
  prop.add(0, 0, 0.5f);
  prop.add(0, 1, 0.5f);
  prop.add(1, 1, 0.4f);
  prop.add(1, 0, 0.3f);
  prop.add(1, 2, 0.3f);
  prop.add(2, 2, 0.6f);
  prop.add(2, 1, 0.4f);
  Tensor x = rand_tensor(3, 4, rng, /*grad=*/false);
  Tensor x0 = rand_tensor(3, 4, rng, /*grad=*/false);
  std::vector<Tensor> params;
  layer.collect_parameters(params);
  check_gradients(
      [&] {
        const Tensor y = layer.forward(x, x0, prop);
        return sum_all(mul(y, y));
      },
      params, 1e-2f, 3e-2f);
}

TEST(GradCheck, FeedForward) {
  std::mt19937_64 rng(26);
  gnntrans::nn::FeedForward ffn(4, 8, rng);
  Tensor x = rand_tensor(3, 4, rng, /*grad=*/false);
  std::vector<Tensor> params;
  ffn.collect_parameters(params);
  check_gradients(
      [&] {
        const Tensor y = ffn.forward(x);
        return sum_all(mul(y, y));
      },
      params, 1e-2f, 3e-2f);
}


// ---- The vector kernels against their scalar oracle, bit for bit ----
//
// matmul and multi_head_attention run at every width the CPU has (4, 8 or
// 16 lanes); softmax, scale, add, sub, relu, leaky_relu and Adam::step at 4.
// Each must give the forward values and add the input gradients exactly as
// the loops in autograd_oracle.hpp do, at the attention's head widths and the
// served nets' sizes, with every row and column tail of the blocking.

using autograd_oracle::Floats;

constexpr std::size_t kHeadDims[] = {1, 2, 3, 4, 8, 16};
constexpr std::size_t kNodeCounts[] = {1, 7, 45, 80, 320};

/// Uniform in [-range, range], with every other entry relu-zeroed (so the
/// products' zero skip runs) and every seventh a negative zero.
Floats oracle_input(std::size_t size, std::mt19937_64& rng, float range = 1.0f) {
  std::uniform_real_distribution<float> dist(-range, range);
  Floats v(size);
  for (std::size_t i = 0; i < size; ++i) {
    const float x = dist(rng);
    v[i] = i % 7 == 3 ? -0.0f : i % 2 == 0 && x <= 0.0f ? 0.0f : x;
  }
  return v;
}

Tensor leaf(const Floats& v, std::size_t rows, std::size_t cols) {
  return Tensor::from_data(v, rows, cols, /*requires_grad=*/true);
}

bool same_bits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Sets \p t's gradient to \p g (same size).
void set_grad(const Tensor& t, const Floats& g) {
  t.impl()->ensure_grad();
  std::copy(g.begin(), g.end(), t.impl()->grad.begin());
}

/// Runs \p out's own backward step with output gradient \p dy.
void backward_step(const Tensor& out, const Floats& dy) {
  set_grad(out, dy);
  backward_step_for_testing(out);
}

std::string shape(std::size_t n, std::size_t k, std::size_t m) {
  return std::to_string(n) + "x" + std::to_string(k) + "x" + std::to_string(m);
}

/// matmul of a [n, k] and b [k, m]; the gradients start at non-zero values.
void expect_matmul_matches(std::size_t n, std::size_t k, std::size_t m,
                           std::mt19937_64& rng) {
  const Floats av = oracle_input(n * k, rng), bv = oracle_input(k * m, rng),
               dy = oracle_input(n * m, rng);
  Floats da = oracle_input(n * k, rng), db = oracle_input(k * m, rng);
  const Tensor a = leaf(av, n, k), b = leaf(bv, k, m);
  const Tensor out = matmul(a, b);
  EXPECT_TRUE(same_bits(out.values(), autograd_oracle::matmul(av, bv, n, k, m)))
      << shape(n, k, m);
  set_grad(a, da);
  set_grad(b, db);
  backward_step(out, dy);
  autograd_oracle::matmul_backward(av, bv, dy, n, k, m, da, db);
  EXPECT_TRUE(same_bits(a.grad(), da)) << shape(n, k, m);
  EXPECT_TRUE(same_bits(b.grad(), db)) << shape(n, k, m);
}

/// Float lanes of every product width this CPU runs.
std::vector<std::size_t> runnable_lanes() {
  std::vector<std::size_t> lanes;
  for (const std::size_t l : {4u, 8u, 16u})
    if (l <= gnntrans::tensor::simd::widest_lanes()) lanes.push_back(l);
  return lanes;
}

TEST(KernelOracle, MatmulMatchesScalarLoopsBitwiseAtEveryWidth) {
  for (const std::size_t lanes : runnable_lanes()) {
    const ProductLanesForTesting width(lanes);
    std::mt19937_64 rng(40);
    for (const std::size_t n : kNodeCounts)
      for (const std::size_t dk : kHeadDims) {
        SCOPED_TRACE(std::to_string(lanes) + " lanes");
        expect_matmul_matches(n, 16, dk, rng);  // the head projections
        expect_matmul_matches(n, n, dk, rng);   // attention @ values
        expect_matmul_matches(n, dk, n, rng);   // wide output, short sum
        expect_matmul_matches(n, dk, 16, rng);
      }
  }
}

/// multi_head_attention against the per-head chain of scalar oracles: its
/// output and every operand's gradient (each started at non-zero values).
void expect_attention_matches(autograd_oracle::Attention a, std::mt19937_64& rng,
                              float range) {
  const std::size_t n = a.n, d = a.d, hd = a.heads * a.dk;
  a.x = oracle_input(n * d, rng, range);
  std::vector<Tensor> weights;
  std::vector<Floats> dw;
  for (std::size_t i = 0; i < 3 * a.heads; ++i) {
    a.weights.push_back(oracle_input(d * a.dk, rng));
    weights.push_back(leaf(a.weights.back(), d, a.dk));
    dw.push_back(oracle_input(d * a.dk, rng));
    set_grad(weights.back(), dw.back());
  }
  const Tensor x = leaf(a.x, n, d);
  Floats dx = oracle_input(n * d, rng);
  set_grad(x, dx);
  const Floats dy = oracle_input(n * hd, rng);

  const std::string what = std::to_string(n) + " nodes, " + std::to_string(a.heads) +
                           "x" + std::to_string(a.dk) + " heads, " +
                           (a.mask.empty() ? "unmasked" : "masked") + ", " +
                           (a.rows.empty() ? "all rows" : "live rows");
  const Tensor out = multi_head_attention(x, weights, a.scale, a.mask, a.rows);
  const Floats expected = autograd_oracle::attention(a);
  std::vector<std::uint32_t> rows = a.rows;
  if (rows.empty())
    for (std::uint32_t r = 0; r < n; ++r) rows.push_back(r);
  bool same = true;
  for (const std::uint32_t r : rows)
    same = same && same_bits(out.values().subspan(r * hd, hd),
                             std::span<const float>(expected).subspan(r * hd, hd));
  EXPECT_TRUE(same) << what;
  backward_step(out, dy);
  autograd_oracle::attention_backward(a, dy, dx, dw);
  EXPECT_TRUE(same_bits(x.grad(), dx)) << what;
  for (std::size_t i = 0; i < weights.size(); ++i)
    EXPECT_TRUE(same_bits(weights[i].grad(), dw[i])) << what << ", weight " << i;
}

TEST(KernelOracle, MultiHeadAttentionMatchesScalarLoopsBitwiseAtEveryWidth) {
  struct Heads {
    std::size_t heads, dk, d;
  };
  for (const std::size_t lanes : runnable_lanes()) {
    const ProductLanesForTesting width(lanes);
    SCOPED_TRACE(std::to_string(lanes) + " lanes");
    std::mt19937_64 rng(41);
    for (const std::size_t n : {1u, 3u, 5u, 17u, 80u, 161u})
      for (const Heads shape : {Heads{4, 4, 16}, Heads{3, 5, 7}, Heads{1, 2, 3}})
        for (const bool masked : {false, true})
          for (const bool live : {false, true}) {
            autograd_oracle::Attention a{n, shape.d, shape.heads, shape.dk,
                                         1.0f / std::sqrt(static_cast<float>(shape.dk)),
                                         {}, {}, {}, {}};
            if (masked) {
              // About a third kept; row 1 fully masked.
              a.mask.resize(n * n);
              for (std::size_t i = 0; i < n * n; ++i)
                a.mask[i] = (i / n != 1) && rng() % 3 == 0;
            }
            if (live)
              for (std::uint32_t r = 0; r < n; ++r)
                if (r % 3 == 1 || r + 1 == n) a.rows.push_back(r);
            // Wide inputs drive scores 88 or more below their row's maximum,
            // where the exp leaves its vector path.
            for (const float range : {1.0f, 6.0f}) expect_attention_matches(a, rng, range);
          }
  }
}

TEST(KernelOracle, MatmulSkipsZeroTermsBesideInfinitiesAtEveryWidth) {
  // 0 * inf is NaN: only a kernel that drops a zero a(r, c)'s terms, as the
  // scalar loop does, keeps these outputs finite. Rows 0, 2, ... skip b's
  // infinite row 0; 18 rows fill the four-column kernel's blocks.
  for (const std::size_t lanes : runnable_lanes()) {
    const ProductLanesForTesting width(lanes);
    for (const std::size_t m : {1u, 3u, 4u, 8u, 13u}) {
      Floats av(18 * 3);
      for (std::size_t r = 0; r < 18; ++r) {
        av[r * 3] = r % 2 ? 0.0f : -0.0f;
        av[r * 3 + 1] = 2.0f;
        av[r * 3 + 2] = r % 3 ? 0.5f : 0.0f;
      }
      Floats bv(3 * m, 1.5f);
      for (std::size_t j = 0; j < m; ++j) bv[j] = j % 2 ? INFINITY : -INFINITY;
      const Tensor out = matmul(leaf(av, 18, 3), leaf(bv, 3, m));
      EXPECT_TRUE(same_bits(out.values(), autograd_oracle::matmul(av, bv, 18, 3, m)))
          << m << " columns, " << lanes << " lanes";
      for (const float v : out.values()) EXPECT_TRUE(std::isfinite(v)) << m;
    }
  }
}

TEST(KernelOracle, ProductLanesRejectWidthsTheCpuLacks) {
  EXPECT_THROW(ProductLanesForTesting(5), std::invalid_argument);
  EXPECT_THROW(ProductLanesForTesting(32), std::invalid_argument);
  if (gnntrans::tensor::simd::widest_lanes() < 16) {
    EXPECT_THROW(ProductLanesForTesting(16), std::invalid_argument);
  }
}

TEST(KernelOracle, SoftmaxMatchesScalarLoopsBitwise) {
  std::mt19937_64 rng(42);
  for (const std::size_t n : kNodeCounts)
    for (const bool masked : {false, true}) {
      const Floats x = oracle_input(n * n, rng, 4.0f), dy = oracle_input(n * n, rng);
      Floats dx = oracle_input(n * n, rng);
      std::vector<std::uint8_t> mask;
      if (masked) {
        // About a third kept; row 1 fully masked.
        mask.resize(n * n);
        for (std::size_t i = 0; i < n * n; ++i)
          mask[i] = (i / n != 1) && rng() % 3 == 0;
      }
      const Tensor a = leaf(x, n, n);
      const Tensor y =
          masked_softmax_rows(a, masked ? mask : std::vector<std::uint8_t>(n * n, 1));
      const Floats expected = autograd_oracle::softmax(x, n, n, mask);
      EXPECT_TRUE(same_bits(y.values(), expected)) << n << " masked " << masked;
      set_grad(a, dx);
      backward_step(y, dy);
      autograd_oracle::softmax_backward(expected, dy, n, n, mask, dx);
      EXPECT_TRUE(same_bits(a.grad(), dx)) << n << " masked " << masked;
    }
}

TEST(KernelOracle, ScaleMatchesScalarLoopsBitwise) {
  std::mt19937_64 rng(43);
  for (const std::size_t n : kNodeCounts)
    for (const std::size_t dk : kHeadDims) {
      const Floats x = oracle_input(n * dk, rng), dy = oracle_input(n * dk, rng);
      Floats dx = oracle_input(n * dk, rng);
      const Tensor a = leaf(x, n, dk);
      const Tensor y = scale(a, 0.37f);
      EXPECT_TRUE(same_bits(y.values(), autograd_oracle::scale(x, 0.37f)));
      set_grad(a, dx);
      backward_step(y, dy);
      autograd_oracle::scale_backward(dy, 0.37f, dx);
      EXPECT_TRUE(same_bits(a.grad(), dx)) << shape(n, dk, 1);
    }
}

TEST(KernelOracle, ElementwiseOpsMatchScalarLoopsBitwise) {
  std::mt19937_64 rng(45);
  for (const std::size_t n : kNodeCounts)
    for (const std::size_t dk : kHeadDims) {
      const std::size_t size = n * dk;
      const Floats x = oracle_input(size, rng), z = oracle_input(size, rng),
                   dy = oracle_input(size, rng);
      for (const bool is_relu : {true, false}) {
        Floats dx = oracle_input(size, rng);
        const Tensor a = leaf(x, n, dk);
        const Tensor y = is_relu ? relu(a) : leaky_relu(a, 0.2f);
        EXPECT_TRUE(
            same_bits(y.values(), autograd_oracle::leaky_relu(x, 0.2f, is_relu)))
            << shape(n, dk, 1) << " relu " << is_relu;
        set_grad(a, dx);
        backward_step(y, dy);
        autograd_oracle::leaky_relu_backward(x, 0.2f, is_relu, dy, dx);
        EXPECT_TRUE(same_bits(a.grad(), dx)) << shape(n, dk, 1) << " relu " << is_relu;
      }
      for (const float cb : {1.0f, -1.0f}) {
        Floats da = oracle_input(size, rng), db = oracle_input(size, rng);
        const Tensor a = leaf(x, n, dk), b = leaf(z, n, dk);
        const Tensor y = cb > 0.0f ? add(a, b) : sub(a, b);
        EXPECT_TRUE(same_bits(y.values(), autograd_oracle::combine(x, z, 1.0f, cb)))
            << shape(n, dk, 1);
        set_grad(a, da);
        set_grad(b, db);
        backward_step(y, dy);
        autograd_oracle::scale_backward(dy, 1.0f, da);
        autograd_oracle::scale_backward(dy, cb, db);
        EXPECT_TRUE(same_bits(a.grad(), da)) << shape(n, dk, 1);
        EXPECT_TRUE(same_bits(b.grad(), db)) << shape(n, dk, 1);
      }
    }
}

TEST(KernelOracle, AdamStepMatchesScalarLoopsBitwise) {
  std::mt19937_64 rng(44);
  for (const float weight_decay : {0.0f, 1e-2f}) {
    const Adam::Config config{2e-3f, 0.9f, 0.999f, 1e-8f, weight_decay};
    const autograd_oracle::AdamConfig oracle_config{
        config.learning_rate, config.beta1, config.beta2, config.epsilon,
        config.weight_decay};
    std::vector<Tensor> params;
    std::vector<Floats> values, m, v;
    for (const std::size_t size : kNodeCounts) {
      values.push_back(oracle_input(size, rng));
      m.emplace_back(size, 0.0f);
      v.emplace_back(size, 0.0f);
      params.push_back(leaf(values.back(), 1, size));
    }
    Adam adam(params, config);
    for (long step = 1; step <= 3; ++step)
      for (std::size_t i = 0; i < params.size(); ++i) {
        const Floats grads = oracle_input(params[i].size(), rng);
        set_grad(params[i], grads);
        autograd_oracle::adam_step(values[i], grads, m[i], v[i], oracle_config, step);
        if (i + 1 == params.size()) adam.step();
      }
    for (std::size_t i = 0; i < params.size(); ++i)
      EXPECT_TRUE(same_bits(params[i].values(), values[i]))
          << "parameter " << i << " weight decay " << weight_decay;
  }
}

}  // namespace
