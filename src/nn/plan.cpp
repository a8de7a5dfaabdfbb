#include "nn/plan.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/telemetry/log.hpp"
#include "core/telemetry/metrics.hpp"
#include "core/telemetry/trace.hpp"
#include "nn/guard.hpp"
#include "nn/models.hpp"
#include "tensor/simd.hpp"

namespace gnntrans::nn {

namespace {

// ---- Vector lanes (tensor/simd.hpp) ----
//
// Every kernel runs at the plan's width: the dense products and the
// aggregation take 4W columns per vector; the attention kernel serves W heads
// side by side, one 4-lane group per head.

using tensor::simd::fill;
using tensor::simd::load;
using tensor::simd::store;
using tensor::simd::v4sf;
using tensor::simd::Vec;

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

/// Within every 4-lane group: kSwap1 swaps lanes 0<->1 and 2<->3, kSwap2
/// swaps lanes 0,1 <-> 2,3, kFirst copies lane 0 to all four.
enum class Perm { kSwap1, kSwap2, kFirst };

template <Perm P, class V, std::int32_t... I>
[[gnu::always_inline]] inline void permute(
    V& out, const V& v, std::integer_sequence<std::int32_t, I...>) {
  typedef std::int32_t VI __attribute__((vector_size(sizeof(V))));
  out = __builtin_shuffle(v, VI{(P == Perm::kSwap1   ? I ^ 1
                                 : P == Perm::kSwap2 ? I ^ 2
                                                     : I & ~3)...});
}
template <Perm P, class V>
[[gnu::always_inline]] inline void permute(V& out, const V& v) {
  permute<P>(out, v, std::make_integer_sequence<std::int32_t,
                                                sizeof(V) / sizeof(float)>{});
}

/// Lane 0 of every group := (v0 + v1) + (v2 + v3) of that group.
template <class V>
[[gnu::always_inline]] inline void group_sum(V& v) {
  V t{};
  permute<Perm::kSwap1>(t, v);
  v = v + t;
  permute<Perm::kSwap2>(t, v);
  v = v + t;
}

/// Every lane of a group := max(max(v0, v1), max(v2, v3)) of that group,
/// where max(a, b) is std::max's a < b ? b : a.
template <class V>
[[gnu::always_inline]] inline void group_max(V& v) {
  V t{};
  permute<Perm::kSwap1>(t, v);
  v = v < t ? t : v;
  permute<Perm::kSwap2>(t, v);
  v = v < t ? t : v;
  permute<Perm::kFirst>(t, v);
  v = t;
}

/// x := e^x lane by lane, for x <= 0 (a score minus its row maximum),
/// Cephes expf: round x / ln 2 to n, reduce with a two-part ln 2, a degree-6
/// polynomial on [-ln2/2, ln2/2], then scale by 2^n built in the exponent
/// bits. Inputs below ln(FLT_MIN), the -inf row padding included, give
/// exactly 0; NaN stays NaN so the finite guard still sees it. Every lane
/// runs the same float operations at every width, and plan.cpp is built
/// with -ffp-contract=off so no width may fuse them into an FMA.
template <class V>
[[gnu::always_inline]] inline void exp_lanes(V& x) {
  typedef std::int32_t VI __attribute__((vector_size(sizeof(V))));
  V lo{}, magic{}, zero{};
  fill(lo, -87.33654f);
  fill(magic, 12582912.0f);  // 1.5 * 2^23: rounds to an integer
  const VI tiny = x < lo;
  x = tiny ? lo : x;
  const V t = x * 1.44269504088896341f + magic;
  const V n = t - magic;
  V r = x - n * 0.693359375f;
  r = r - n * -2.12194440e-4f;
  V y{};
  fill(y, 1.9875691500e-4f);
  y = y * r + 1.3981999507e-3f;
  y = y * r + 8.3334519073e-3f;
  y = y * r + 4.1665795894e-2f;
  y = y * r + 1.6666665459e-1f;
  y = y * r + 5.0000001201e-1f;
  y = y * (r * r) + r + 1.0f;
  const VI pow2n = ((VI)t - (VI)magic + 127) << 23;
  x = tiny ? zero : y * (V)pow2n;
}

// ---- Dense products and the aggregation ----

/// What a dense product does with its accumulator when it stores it.
enum class Store {
  kSet,      ///< out = acc
  kAdd,      ///< out = out + acc (residual)
  kAddRelu,  ///< out = relu(out + acc)
  kBias,     ///< out = acc + bias
  kBiasRelu  ///< out = relu(acc + bias)
};

template <Store S, class V>
[[gnu::always_inline]] inline void finish(const V& acc, float* out,
                                          const float* bias) {
  V v = acc;
  if constexpr (S == Store::kAdd || S == Store::kAddRelu) {
    load(v, out);
    v = v + acc;
  }
  if constexpr (S == Store::kBias || S == Store::kBiasRelu) {
    load(v, bias);
    v = acc + v;
  }
  if constexpr (S == Store::kAddRelu || S == Store::kBiasRelu)
    v = v > 0.0f ? v : V{};
  store(out, v);
}

/// Columns [j, j + lanes of V) of R consecutive rows, one accumulator per
/// row, each summing a[r, c] * w[c, j] over ascending c from zero.
template <Store S, std::size_t R, class V>
[[gnu::always_inline]] inline void dense_block(const float* a,
                                               std::size_t lda,
                                               const GnnTransPlan::Dense& w,
                                               std::size_t j, float* out,
                                               std::size_t ldo) {
  const std::size_t m = w.out;
  const float* wt = w.weight.data() + j;
  V acc[R] = {};
  for (std::size_t c = 0; c < w.in; ++c) {
    V wc{};
    load(wc, wt + c * m);
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
      V s{};
      fill(s, a[r * lda + c]);
      acc[r] += s * wc;
    }
  }
  const bool biased = S == Store::kBias || S == Store::kBiasRelu;
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r)
    finish<S>(acc[r], out + r * ldo + j, biased ? w.bias.data() + j : nullptr);
}

/// Every column of R consecutive rows: 4W wide, then 4, then 1.
template <int W, Store S, std::size_t R>
[[gnu::always_inline]] inline void dense_rows(const float* a, std::size_t lda,
                                              const GnnTransPlan::Dense& w,
                                              float* out, std::size_t ldo) {
  std::size_t j = 0;
  for (; j + 4 * W <= w.out; j += 4 * W)
    dense_block<S, R, typename Vec<W>::f>(a, lda, w, j, out, ldo);
  for (; j + 4 <= w.out; j += 4)
    dense_block<S, R, v4sf>(a, lda, w, j, out, ldo);
  for (; j < w.out; ++j) dense_block<S, R, float>(a, lda, w, j, out, ldo);
}

/// out[r, :] (stride ldo) = store(a[r, 0:w.in] (stride lda) @ w.weight),
/// four rows per pass. Each output sums a[r, c] * w[c, j] over ascending c
/// from zero, as tensor::matmul does, so the values are the autograd ones at
/// every width (tensor::matmul also skips zero inputs, which can change only
/// the sign of an exact zero).
template <int W, Store S>
[[gnu::always_inline]] inline void dense(const float* a, std::size_t lda,
                                         std::size_t rows,
                                         const GnnTransPlan::Dense& w,
                                         float* out, std::size_t ldo) {
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4)
    dense_rows<W, S, 4>(a + r * lda, lda, w, out + r * ldo, ldo);
  for (; r < rows; ++r)
    dense_rows<W, S, 1>(a + r * lda, lda, w, out + r * ldo, ldo);
}

/// out[0, L) += v * x[0, L), L the lanes of V.
template <class V>
[[gnu::always_inline]] inline void axpy(float v, const float* x, float* out) {
  V s{}, xv{}, o{};
  fill(s, v);
  load(xv, x);
  load(o, out);
  o += s * xv;
  store(out, o);
}

/// out[r, 0:d] (stride ldo) = sum over m's entries (r, c, v) of v * x[c, :],
/// in entry order as tensor::spmm; columns 4W wide, then 4, then 1.
template <int W>
[[gnu::always_inline]] inline void sparse(const tensor::GraphMatrix& m,
                                          const float* x, std::size_t d,
                                          float* out, std::size_t ldo) {
  for (std::size_t r = 0; r < m.rows; ++r)
    std::fill_n(out + r * ldo, d, 0.0f);
  for (std::size_t e = 0; e < m.nnz(); ++e) {
    const float v = m.values[e];
    const float* xr = x + static_cast<std::size_t>(m.col_index[e]) * d;
    float* orow = out + static_cast<std::size_t>(m.row_index[e]) * ldo;
    std::size_t j = 0;
    for (; j + 4 * W <= d; j += 4 * W)
      axpy<typename Vec<W>::f>(v, xr + j, orow + j);
    for (; j + 4 <= d; j += 4) axpy<v4sf>(v, xr + j, orow + j);
    for (; j < d; ++j) axpy<float>(v, xr + j, orow + j);
  }
}

constexpr std::size_t round_up(std::size_t n, std::size_t to) {
  return (n + to - 1) / to * to;
}

/// W heads of one attention layer side by side, keys and values transposed
/// to [dk][nb][W][4]: dimension c, block b (nodes 4b..4b+3), head w, lane.
struct HeadGroup {
  std::span<const std::uint32_t> rows;  ///< the query rows served, each < n
  const float* q;  ///< row r, head w's query at q[r * ldq + w * dk], dk wide
  std::size_t ldq;
  const float* kt;  ///< keys, zero padded past n
  const float* vt;  ///< values, same layout
  std::size_t n;    ///< nodes
  std::size_t dk;
  float scale;  ///< 1 / sqrt(dk)
  float* row;   ///< round_up(n, 4) * W floats of working space
  float* out;   ///< row r, head w's output at out[r * ldo + w * dk]
  std::size_t ldo;
};

/// Scores of dimensions [c, c + C) for one query row: row[b] (plus the
/// earlier dimensions unless kFirst) += q_c k_c in ascending c, as
/// the autograd's attention sums them. kLast also scales, masks the padding of
/// the last block to -inf and takes the running maximum.
template <int W, int C, bool kFirst, bool kLast>
[[gnu::always_inline]] inline void score_pass(
    const HeadGroup& g, const typename Vec<W>::f (&q)[C], std::size_t c,
    const typename Vec<W>::i& tail_valid, typename Vec<W>::f& mx) {
  using V = typename Vec<W>::f;
  constexpr std::size_t L = 4 * W;
  const std::size_t nb = (g.n + 3) / 4, ld = nb * L;
  const float* kt = g.kt + c * ld;
  float* row = g.row;
  V neg_inf{};
  fill(neg_inf, kNegInf);
  for (std::size_t b = 0; b < nb; ++b) {
    V k{}, s{};
    load(k, kt + b * L);
    s = q[0] * k;
    if constexpr (!kFirst) {
      V prev{};
      load(prev, row + b * L);
      s = prev + s;
    }
#pragma GCC unroll 4
    for (int i = 1; i < C; ++i) {
      load(k, kt + i * ld + b * L);
      s = s + q[i] * k;
    }
    if constexpr (kLast) {
      s = s * g.scale;
      if (b + 1 == nb) s = tail_valid ? s : neg_inf;
      mx = mx > s ? mx : s;
    }
    store(row + b * L, s);
  }
}

template <int W, int C>
[[gnu::always_inline]] inline void scores(const HeadGroup& g, const float* q,
                                          std::size_t c,
                                          const typename Vec<W>::i& tail_valid,
                                          typename Vec<W>::f& mx) {
  // Query dimension c + i of head w, splatted over group w.
  typename Vec<W>::f qc[C] = {};
  for (int i = 0; i < C; ++i)
    for (std::size_t l = 0; l < 4 * W; ++l) qc[i][l] = q[l / 4 * g.dk + c + i];
  const bool first = c == 0, last = c + C == g.dk;
  if (first && last)
    score_pass<W, C, true, true>(g, qc, c, tail_valid, mx);
  else if (first)
    score_pass<W, C, true, false>(g, qc, c, tail_valid, mx);
  else if (last)
    score_pass<W, C, false, true>(g, qc, c, tail_valid, mx);
  else
    score_pass<W, C, false, false>(g, qc, c, tail_valid, mx);
}

/// acc[i] += e * v_{c+i} over every block, e the softmax numerator. kExp
/// computes e = exp(score - row_max) from the scores and adds it to sum,
/// and kKeep stores it back for the passes that follow; otherwise e is
/// loaded.
template <int W, int C, bool kExp, bool kKeep>
[[gnu::always_inline]] inline void value_pass(
    const HeadGroup& g, std::size_t c, const typename Vec<W>::f& row_max,
    typename Vec<W>::f& sum, typename Vec<W>::f (&acc)[C]) {
  using V = typename Vec<W>::f;
  constexpr std::size_t L = 4 * W;
  const std::size_t nb = (g.n + 3) / 4, ld = nb * L;
  const float* vt = g.vt + c * ld;
  float* row = g.row;
  for (std::size_t b = 0; b < nb; ++b) {
    V e{};
    load(e, row + b * L);
    if constexpr (kExp) {
      e = e - row_max;
      exp_lanes(e);
      sum += e;
      if constexpr (kKeep) store(row + b * L, e);
    }
#pragma GCC unroll 4
    for (int i = 0; i < C; ++i) {
      V v{};
      load(v, vt + i * ld + b * L);
      acc[i] += e * v;
    }
  }
}

/// Head outputs of dimensions [c, c + C) for one query row. The pass for
/// c = 0 also evaluates the exps, their sum and inv, one reciprocal per
/// group that folds the softmax normalisation into the output.
template <int W, int C>
[[gnu::always_inline]] inline void values(const HeadGroup& g, std::size_t c,
                                          const typename Vec<W>::f& row_max,
                                          typename Vec<W>::f& sum,
                                          typename Vec<W>::f& inv,
                                          float* out) {
  typename Vec<W>::f acc[C] = {};
  if (c != 0) {
    value_pass<W, C, false, false>(g, c, row_max, sum, acc);
  } else {
    if (C < g.dk)
      value_pass<W, C, true, true>(g, c, row_max, sum, acc);
    else
      value_pass<W, C, true, false>(g, c, row_max, sum, acc);
    group_sum(sum);
    permute<Perm::kFirst>(inv, sum);
    inv = 1.0f / inv;
  }
  for (int i = 0; i < C; ++i) {
    group_sum(acc[i]);
    acc[i] = acc[i] * inv;
    for (std::size_t w = 0; w < W; ++w) out[w * g.dk + c + i] = acc[i][4 * w];
  }
}

/// softmax(q k^T * scale) v for each served query row of W heads at once.
/// Every lane does the arithmetic a 4-wide kernel serving one head would, so
/// every W gives the same bits: per lane, the scores sum in ascending dimension
/// order and the exp sum and A.V products in ascending block order; per
/// group, the max and the sums reduce as (v0 . v1) . (v2 . v3). Dimensions
/// go four per pass, then one at a time.
template <int W>
[[gnu::always_inline]] inline void attend_group(const HeadGroup& g) {
  using V = typename Vec<W>::f;
  const std::size_t n = g.n, nb = (n + 3) / 4, dk = g.dk;
  // Lanes of the last block that hold real nodes; the rest is padding.
  typename Vec<W>::i tail_valid{};
  for (std::size_t l = 0; l < 4 * W; ++l)
    tail_valid[l] = (nb - 1) * 4 + l % 4 < n ? -1 : 0;
  for (const std::size_t r : g.rows) {
    const float* q = g.q + r * g.ldq;
    V mx{};
    fill(mx, kNegInf);
    std::size_t c = 0;
    for (; c + 4 <= dk; c += 4) scores<W, 4>(g, q, c, tail_valid, mx);
    for (; c < dk; ++c) scores<W, 1>(g, q, c, tail_valid, mx);
    group_max(mx);
    V sum{}, inv{};
    float* out = g.out + r * g.ldo;
    for (c = 0; c + 4 <= dk; c += 4) values<W, 4>(g, c, mx, sum, inv, out);
    for (; c < dk; ++c) values<W, 1>(g, c, mx, sum, inv, out);
  }
}

template <int W>
[[gnu::always_inline]] inline void exp_blocks(float* x, std::size_t count) {
  for (std::size_t i = 0; i < count; i += 4 * W) {
    typename Vec<W>::f v{};
    load(v, x + i);
    exp_lanes(v);
    store(x + i, v);
  }
}

/// attend_group at the width w of one group of heads, w <= W.
template <int W>
[[gnu::always_inline]] inline void attend(std::size_t w, const HeadGroup& g) {
  if constexpr (W > 1) {
    if (w < W) return attend<W / 2>(w, g);
  }
  attend_group<W>(g);
}

/// One MLP head over p rows of \p in (stride ld): the hidden layers
/// ping-pong between hid[0] and hid[1], the last one writes [p, 1] \p result.
template <int W>
[[gnu::always_inline]] inline void mlp_forward(
    const std::vector<GnnTransPlan::Dense>& layers, const float* in,
    std::size_t ld, std::size_t p, float* const (&hid)[2],
    tensor::Tensor& result) {
  for (std::size_t l = 0; l + 1 < layers.size(); ++l) {
    dense<W, Store::kBiasRelu>(in, ld, p, layers[l], hid[l % 2],
                               layers[l].out);
    in = hid[l % 2];
    ld = layers[l].out;
  }
  result = tensor::Tensor(p, 1);
  dense<W, Store::kBias>(in, ld, p, layers.back(), result.values().data(), 1);
}

}  // namespace

/// Eq. (1)-(4) of GnnTransPlan::run at W vector groups of 4 floats, once the
/// sample has passed its checks: the Sage layers, the attention stack and
/// the per-path mean pooling, which lands in the first d columns of the
/// heads' rows at the start of the returned slab (stride repr_ld()). The
/// heads' buffers are carved first, so a heads-only pass lays out the same
/// rows without the rest. Always inlined into one target-specific function
/// per width, so every kernel it reaches runs at that width; a lambda here
/// would not inherit the target and could not inline them.
template <int W>
[[gnu::always_inline]] inline float* embed(const GnnTransPlan& plan,
                                           const GraphSample& sample,
                                           Workspace& workspace) {
  const std::size_t n = sample.x.rows();
  const tensor::GraphMatrix mean = plan.use_edge_weights_
                                       ? tensor::GraphMatrix()
                                       : mean_adjacency(sample.weighted_adj);
  const tensor::GraphMatrix& agg =
      plan.use_edge_weights_ ? sample.weighted_adj : mean;

  // Slab layout: every buffer starts on a 16-float boundary. Sizes depend
  // only on (n, p) and the plan, so a warm workspace never grows for a net
  // it has seen.
  const std::size_t d = plan.hidden_, dk = plan.head_dim_, ld3 = 3 * d;
  const std::size_t np = round_up(n, 4);  // score rows, padded with -inf
  std::size_t total = plan.heads_floats(sample.path_pool.rows);
  const auto carve = [&total](std::size_t floats) {
    const std::size_t at = total;
    total += round_up(floats, 16);
    return at;
  };
  // The attention kernel serves heads in groups of up to group_max.
  const auto group_width = [](std::size_t heads_left) {
    std::size_t w = W;
    while (w > heads_left) w /= 2;
    return w;
  };
  const std::size_t group_max = group_width(plan.heads_);
  const std::size_t at_act0 = carve(n * d), at_act1 = carve(n * d),
                    at_agg = carve(n * std::max(plan.node_dim_, d)),
                    at_qkv = carve(n * ld3),
                    at_kt = carve(dk * np * group_max),
                    at_vt = carve(dk * np * group_max),
                    at_row = carve(np * group_max), at_cat = carve(n * d);
  float* slab = workspace.acquire(total);
  float* act[2] = {slab + at_act0, slab + at_act1};
  float* aggx = slab + at_agg;

  // Query rows of the attention layers: every node, then the live rows, the
  // ascending distinct nodes the path pooling reads (marked, then packed).
  std::vector<std::uint32_t>& rows = workspace.rows();
  rows.assign(2 * n, 0);
  for (const std::uint32_t c : sample.path_pool.col_index) rows[n + c] = 1;
  std::size_t live = 0;
  for (std::uint32_t r = 0; r < n; ++r) {
    if (rows[n + r] != 0) rows[n + live++] = r;
    rows[r] = r;
  }
  const std::span<const std::uint32_t> all_rows(rows.data(), n),
      live_rows(rows.data() + n, live);

  // Eq. (1): x' = ReLU(x W1 + (A x) W2), ping-ponging between two buffers.
  float* x = nullptr;
  {
    const telemetry::TraceSpan span("gnn_forward", "model");
    const float* in = sample.x.values().data();
    std::size_t width = plan.node_dim_;
    for (std::size_t l = 0; l < plan.sage_self_.size(); ++l) {
      x = act[l % 2];
      sparse<W>(agg, in, width, aggx, width);
      dense<W, Store::kSet>(in, width, n, plan.sage_self_[l], x, d);
      dense<W, Store::kAddRelu>(aggx, width, n, plan.sage_neigh_[l], x, d);
      in = x;
      width = d;
    }
    guard_finite({x, n * d}, d, "gnn_forward");
  }

  // Eq. (2-3): x += concat_h(softmax(q_h k_h^T / sqrt(dk)) v_h) W3.
  {
    const telemetry::TraceSpan span("attention", "model");
    float* qkv = slab + at_qkv;
    float* kt = slab + at_kt;
    float* vt = slab + at_vt;
    float* row = slab + at_row;
    float* cat = slab + at_cat;
    const std::size_t layers = plan.qkv_.size();
    for (std::size_t l = 0; l < layers; ++l) {
      // Only pooled rows reach the heads, so the last layer serves just
      // those; every layer's keys and values still cover all n nodes.
      const bool last = l + 1 == layers;
      const auto served = last ? live_rows : all_rows;
      dense<W, Store::kSet>(x, d, n, plan.qkv_[l], qkv, ld3);
      for (std::size_t h = 0; h < plan.heads_;) {
        // K and V of heads h..h+w-1, transposed to [dk][np / 4][w][4] with
        // zero padding, one Q/K/V row at a time.
        const std::size_t w = group_width(plan.heads_ - h), ld = np * w;
        for (std::size_t j = 0; j < np; ++j) {
          const float* k = qkv + std::min(j, n - 1) * ld3 + d + h * dk;
          const std::size_t at = j / 4 * w * 4 + j % 4;
          for (std::size_t u = 0; u < w; ++u)
            for (std::size_t c = 0; c < dk; ++c) {
              kt[at + c * ld + u * 4] = j < n ? k[u * dk + c] : 0.0f;
              vt[at + c * ld + u * 4] = j < n ? k[d + u * dk + c] : 0.0f;
            }
        }
        attend<W>(w, {served, qkv + h * dk, ld3, kt, vt, n, dk,
                      plan.inv_sqrt_dk_, row, cat + h * dk, d});
        h += w;
      }
      // Residual: one call over every row, or one per served row.
      if (!last)
        dense<W, Store::kAdd>(cat, d, n, plan.w3_[l], x, d);
      else
        for (const std::size_t r : served)
          dense<W, Store::kAdd>(cat + r * d, d, 1, plan.w3_[l], x + r * d, d);
    }
    guard_finite({x, n * d}, d, "attention");
  }

  // Eq. (4): mean pooling per path.
  sparse<W>(sample.path_pool, x, d, slab, plan.repr_ld());
  return slab;
}

/// Eq. (4)'s path-feature concat and Eq. (5-6) over p pooled rows at the
/// start of \p slab (stride repr_ld()): copy h in beside each row, slew
/// head, then the delay head over [repr | slew] when cascaded. Reads and
/// writes only the heads_floats(p) floats embed() carves first.
template <int W>
[[gnu::always_inline]] inline WirePrediction heads(const GnnTransPlan& plan,
                                                   std::size_t p, float* slab,
                                                   const tensor::Tensor& h) {
  const telemetry::TraceSpan span("heads", "model");
  const std::size_t d = plan.hidden_, repr = d + plan.path_dim_;
  const std::size_t repr_ld = plan.repr_ld();
  const std::size_t rows = round_up(p * repr_ld, 16),
                    mlp = round_up(p * plan.slew_head_.front().out, 16);
  float* repr_buf = slab;
  float* const hid[2] = {slab + rows, slab + rows + mlp};
  for (std::size_t q = 0; q < p; ++q)
    for (std::size_t j = 0; j < plan.path_dim_; ++j)
      repr_buf[q * repr_ld + d + j] = h(q, j);
  WirePrediction pred;
  mlp_forward<W>(plan.slew_head_, repr_buf, repr_ld, p, hid, pred.slew);
  if (plan.cascade_)
    for (std::size_t q = 0; q < p; ++q)
      repr_buf[q * repr_ld + repr] = pred.slew(q, 0);
  mlp_forward<W>(plan.delay_head_, repr_buf, repr_ld, p, hid, pred.delay);
  return pred;
}

namespace {

// One embed, one heads and one exp per width; compile() picks the widest the
// CPU runs.
float* embed_sse2(const GnnTransPlan& plan, const GraphSample& s,
                  Workspace& ws) {
  return embed<1>(plan, s, ws);
}
WirePrediction heads_sse2(const GnnTransPlan& plan, std::size_t p, float* slab,
                          const tensor::Tensor& h) {
  return heads<1>(plan, p, slab, h);
}
void exp_sse2(float* x, std::size_t count) { exp_blocks<1>(x, count); }
__attribute__((target("avx2"))) float* embed_avx2(const GnnTransPlan& plan,
                                                  const GraphSample& s,
                                                  Workspace& ws) {
  return embed<2>(plan, s, ws);
}
__attribute__((target("avx2"))) WirePrediction heads_avx2(
    const GnnTransPlan& plan, std::size_t p, float* slab,
    const tensor::Tensor& h) {
  return heads<2>(plan, p, slab, h);
}
__attribute__((target("avx2"))) void exp_avx2(float* x, std::size_t count) {
  exp_blocks<2>(x, count);
}
__attribute__((target("avx512f"))) float* embed_avx512(
    const GnnTransPlan& plan, const GraphSample& s, Workspace& ws) {
  return embed<4>(plan, s, ws);
}
__attribute__((target("avx512f"))) WirePrediction heads_avx512(
    const GnnTransPlan& plan, std::size_t p, float* slab,
    const tensor::Tensor& h) {
  return heads<4>(plan, p, slab, h);
}
__attribute__((target("avx512f"))) void exp_avx512(float* x,
                                                   std::size_t count) {
  exp_blocks<4>(x, count);
}

/// The plan's kernels at one width; kKernels[lanes / 8].
struct Kernel {
  const char* isa;
  float* (*embed)(const GnnTransPlan&, const GraphSample&, Workspace&);
  WirePrediction (*heads)(const GnnTransPlan&, std::size_t, float*,
                          const tensor::Tensor&);
  void (*exp)(float*, std::size_t);
};
constexpr Kernel kKernels[] = {
    {"SSE2", embed_sse2, heads_sse2, exp_sse2},
    {"AVX2", embed_avx2, heads_avx2, exp_avx2},
    {"AVX-512F", embed_avx512, heads_avx512, exp_avx512}};

/// The kernels \p lanes wide; throws unless it is 4, 8 or 16 and the CPU
/// runs it.
const Kernel& kernel(std::size_t lanes) {
  if (lanes > GnnTransPlan::widest_lanes() ||
      (lanes != 4 && lanes != 8 && lanes != 16))
    throw std::invalid_argument("GnnTransPlan: this CPU has no " +
                                std::to_string(lanes) + "-lane plan kernels");
  return kKernels[lanes / 8];
}

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(std::string("GnnTransPlan: ") + what);
}

/// Rejects a structure matrix whose shape or entries fall outside
/// rows x cols: the kernels index with them unchecked.
void check_matrix(const tensor::GraphMatrix& m, std::size_t rows,
                  std::size_t cols, const char* what) {
  bool ok = m.rows == rows && m.cols == cols &&
            m.row_index.size() == m.nnz() && m.col_index.size() == m.nnz();
  for (std::size_t e = 0; ok && e < m.nnz(); ++e)
    ok = m.row_index[e] < rows && m.col_index[e] < cols;
  require(ok, what);
}

/// Hands out the model's parameters in their stable order, checking each
/// against the shape the config implies.
class WeightReader {
 public:
  explicit WeightReader(std::vector<tensor::Tensor> params)
      : params_(std::move(params)) {}

  const tensor::Tensor& next(const std::string& name, std::size_t rows,
                             std::size_t cols) {
    if (next_ >= params_.size())
      throw std::invalid_argument("GNNTrans weight '" + name + "' is missing");
    const tensor::Tensor& t = params_[next_++];
    if (t.rows() != rows || t.cols() != cols)
      throw std::invalid_argument(
          "GNNTrans weight '" + name + "' has shape " +
          std::to_string(t.rows()) + "x" + std::to_string(t.cols()) +
          ", the model config expects " + std::to_string(rows) + "x" +
          std::to_string(cols));
    return t;
  }

  GnnTransPlan::Dense dense(const std::string& name, std::size_t in,
                            std::size_t out) {
    const tensor::Tensor& w = next(name, in, out);
    return {in, out, {w.values().begin(), w.values().end()}, {}};
  }

  /// One Mlp of PredictionHeads: {in, hidden, hidden, 1}, weight then bias.
  std::vector<GnnTransPlan::Dense> mlp(const std::string& name, std::size_t in,
                                       std::size_t hidden) {
    std::vector<GnnTransPlan::Dense> layers;
    const std::size_t dims[] = {in, hidden, hidden, 1};
    for (std::size_t l = 0; l < 3; ++l) {
      const std::string prefix = name + "[" + std::to_string(l) + "].";
      GnnTransPlan::Dense layer = dense(prefix + "weight", dims[l], dims[l + 1]);
      const tensor::Tensor& b = next(prefix + "bias", 1, dims[l + 1]);
      layer.bias.assign(b.values().begin(), b.values().end());
      layers.push_back(std::move(layer));
    }
    return layers;
  }

 private:
  std::vector<tensor::Tensor> params_;
  std::size_t next_ = 0;
};

}  // namespace

std::size_t GnnTransPlan::widest_lanes() {
  static const std::size_t lanes = [] {
    const std::size_t widest = tensor::simd::widest_lanes();
    GNNTRANS_LOG_INFO("nn", "plan kernels: %s, %zu float lanes",
                      kKernels[widest / 8].isa, widest);
    return widest;
  }();
  return lanes;
}

void GnnTransPlan::exp_for_testing(std::size_t lanes, std::span<float> x) {
  const Kernel& k = kernel(lanes);
  std::vector<float> padded(round_up(x.size(), lanes), 0.0f);
  std::copy(x.begin(), x.end(), padded.begin());
  k.exp(padded.data(), padded.size());
  std::copy_n(padded.begin(), x.size(), x.begin());
}

std::unique_ptr<GnnTransPlan> GnnTransPlan::compile(const WireModel& model) {
  return compile(model, widest_lanes());
}

std::unique_ptr<GnnTransPlan> GnnTransPlan::compile(const WireModel& model,
                                                    std::size_t lanes) {
  (void)kernel(lanes);
  if (model.kind() != ModelKind::kGnnTrans) return nullptr;
  const ModelConfig& c = model.config();
  const std::size_t d = c.hidden_dim;
  const std::size_t dk = c.heads == 0 ? 0 : d / c.heads;
  const std::size_t repr =
      d + (c.use_path_features ? c.path_feature_dim : 0u);

  // Same parameter order as GnnTransModel::parameters().
  auto plan = std::unique_ptr<GnnTransPlan>(new GnnTransPlan());
  WeightReader weights(model.parameters());
  for (std::size_t l = 0; l < c.gnn_layers; ++l) {
    const std::size_t in = l == 0 ? c.node_feature_dim : d;
    const std::string prefix = "gnn[" + std::to_string(l) + "].";
    plan->sage_self_.push_back(weights.dense(prefix + "w_self", in, d));
    plan->sage_neigh_.push_back(weights.dense(prefix + "w_neigh", in, d));
  }
  for (std::size_t l = 0; l < c.transformer_layers; ++l) {
    const std::string prefix = "attention[" + std::to_string(l) + "].";
    // Fused [d, 3d]: head h's Q, K and V land in columns h*dk, d + h*dk and
    // 2d + h*dk, so one product yields every head's projections.
    Dense qkv{d, 3 * d, std::vector<float>(3 * d * d), {}};
    for (std::size_t h = 0; h < c.heads; ++h) {
      const std::string head = prefix + "head[" + std::to_string(h) + "].";
      for (std::size_t part = 0; part < 3; ++part) {
        const char* const names[] = {"wq", "wk", "wv"};
        const tensor::Tensor& w = weights.next(head + names[part], d, dk);
        for (std::size_t i = 0; i < d; ++i)
          for (std::size_t j = 0; j < dk; ++j)
            qkv.weight[i * 3 * d + part * d + h * dk + j] = w(i, j);
      }
    }
    plan->qkv_.push_back(std::move(qkv));
    plan->w3_.push_back(weights.dense(prefix + "w3", d, d));
  }
  plan->slew_head_ = weights.mlp("slew_head", repr, c.mlp_hidden);
  plan->delay_head_ = weights.mlp(
      "delay_head", repr + (c.cascade_delay_head ? 1u : 0u), c.mlp_hidden);

  if (!c.global_attention || c.gnn_layers == 0) return nullptr;
  plan->node_dim_ = c.node_feature_dim;
  plan->path_dim_ = c.use_path_features ? c.path_feature_dim : 0u;
  plan->hidden_ = d;
  plan->heads_ = c.heads;
  plan->head_dim_ = dk;
  plan->inv_sqrt_dk_ = 1.0f / std::sqrt(static_cast<float>(dk));
  plan->use_edge_weights_ = c.use_edge_weights;
  plan->cascade_ = c.cascade_delay_head;
  plan->lanes_ = lanes;
  static const telemetry::Gauge lanes_gauge =
      telemetry::MetricsRegistry::global().gauge(
          "gnntrans_nn_attention_lanes",
          "Float lanes of the kernels of the last compiled plan");
  lanes_gauge.set(static_cast<double>(lanes));
  return plan;
}

std::size_t GnnTransPlan::repr_ld() const noexcept {
  return hidden_ + path_dim_ + (cascade_ ? 1u : 0u);
}

std::size_t GnnTransPlan::heads_floats(std::size_t paths) const noexcept {
  return round_up(paths * repr_ld(), 16) +
         2 * round_up(paths * slew_head_.front().out, 16);
}

WirePrediction GnnTransPlan::run(const GraphSample& sample,
                                 Workspace& workspace,
                                 std::vector<float>* embedding) const {
  require(sample.x.defined() && sample.x.cols() == node_dim_,
          "node feature width mismatch");
  const std::size_t n = sample.x.rows();
  const std::size_t p = sample.path_pool.rows;
  check_matrix(sample.weighted_adj, n, n, "aggregation matrix does not match the net");
  check_matrix(sample.path_pool, p, n,
               "path pooling matrix does not match the net");
  if (path_dim_ > 0)
    require(sample.h.defined() && sample.h.rows() == p &&
                sample.h.cols() == path_dim_,
            "path feature shape mismatch");
  guard_finite(sample.x, "input");
  const Kernel& k = kKernels[lanes_ / 8];
  float* slab = k.embed(*this, sample, workspace);
  if (embedding) {
    embedding->resize(p * hidden_);
    for (std::size_t q = 0; q < p; ++q)
      std::copy_n(slab + q * repr_ld(), hidden_,
                  embedding->data() + q * hidden_);
  }
  return k.heads(*this, p, slab, sample.h);
}

WirePrediction GnnTransPlan::run_heads(std::span<const float> embedding,
                                       const tensor::Tensor& h,
                                       Workspace& workspace) const {
  const std::size_t p = embedding.size() / hidden_;
  require(p * hidden_ == embedding.size(), "embedding is not [P, d]");
  if (path_dim_ > 0)
    require(h.defined() && h.rows() == p && h.cols() == path_dim_,
            "path feature shape mismatch");
  float* slab = workspace.acquire(heads_floats(p));
  for (std::size_t q = 0; q < p; ++q)
    std::copy_n(embedding.data() + q * hidden_, hidden_,
                slab + q * repr_ld());
  return kKernels[lanes_ / 8].heads(*this, p, slab, h);
}

}  // namespace gnntrans::nn
