#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "tensor/simd.hpp"
#include "tensor/tape.hpp"
#include "tensor/vector_exp.hpp"

namespace gnntrans::tensor {

namespace {

/// Throws std::invalid_argument naming \p what unless \p cond; builds no
/// string while it holds.
void require(bool cond, const char* what) {
  if (!cond) throw std::invalid_argument(std::string("tensor op: ") + what);
}

/// The rows an op computes: rows[i] for i < count.
struct RowSet {
  const std::uint32_t* at;  ///< null: rows 0..count-1
  std::size_t count;
  [[nodiscard]] std::size_t operator[](std::size_t i) const { return at ? at[i] : i; }
};

RowSet row_set(Rows rows, std::size_t n) {
  return rows.empty() ? RowSet{nullptr, n} : RowSet{rows.data(), rows.size()};
}

/// The rows \p rows of an op's n-row result \p out, checked to be
/// ascending rows of it and noted on the node when it is recorded.
RowSet computed_rows(const OpResult& out, std::size_t n, Rows rows) {
  for (std::size_t i = 0; i < rows.size(); ++i)
    require(rows[i] < n && (i == 0 || rows[i - 1] < rows[i]),
            "rows must be ascending rows of the result");
  if (out.node) out.node->rows_computed = out.node->tape->copy(rows);
  return row_set(rows, n);
}

}  // namespace

void GraphMatrix::row_normalize() {
  std::vector<double> row_sum(rows, 0.0);
  for (std::size_t k = 0; k < nnz(); ++k) row_sum[row_index[k]] += values[k];
  for (std::size_t k = 0; k < nnz(); ++k) {
    const double s = row_sum[row_index[k]];
    if (s > 0.0) values[k] = static_cast<float>(values[k] / s);
  }
}

namespace {

using simd::fill;
using simd::load;
using simd::store;
using simd::v4sf;
using simd::Vec;

/// a(r, c) = p[r * rs + c * cs]: a row-major matrix (rs = its row length,
/// cs = 1) or the transpose of one (rs = 1, cs = its row length).
struct Strided {
  const float* p;
  std::size_t rs, cs;
};

/// Where a product puts its sums: out = sum, or out = out + sum (a gradient).
enum class Into { kSet, kAdd };

/// Which terms x * b of a product's sums are dropped: kA those whose x is
/// zero, kB those whose b is. A dropped term becomes +0, which leaves a sum
/// started at +0 unchanged (such a sum is never -0), even where the other
/// factor is an infinity or a NaN.
enum class Skip { kNone, kA, kB };

/// acc += x * b, unless Skip drops the term.
template <Skip kSkip, class V>
[[gnu::always_inline]] inline void accumulate(V& acc, const V& x, const V& b) {
  V t = x * b;
  if constexpr (kSkip == Skip::kA) t = x != 0.0f ? t : V{};
  if constexpr (kSkip == Skip::kB) t = b != 0.0f ? t : V{};
  acc = acc + t;
}

/// Columns [j, j + S lanes of V) of R rows, row r of a at a[r] (entry c at
/// a[r][c * cs]) and of the output at out[r]: one accumulator per row and
/// vector, started at zero, summing a(r, c) * b[c, j] over ascending c,
/// every c < inner or, kListed, each inner_at[i].
template <Into I, Skip kSkip, bool kListed, std::size_t R, std::size_t S, class V>
[[gnu::always_inline]] inline void product_block(
    const float* const (&a)[R], std::size_t cs, const float* b, std::size_t ldb,
    std::size_t inner, const std::uint32_t* inner_at, std::size_t j,
    float* const (&out)[R]) {
  constexpr std::size_t L = sizeof(V) / sizeof(float);
  V acc[R][S] = {};
  for (std::size_t i = 0; i < inner; ++i) {
    const std::size_t c = kListed ? inner_at[i] : i;
    V bc[S] = {};
#pragma GCC unroll 4
    for (std::size_t s = 0; s < S; ++s) load(bc[s], b + c * ldb + j + s * L);
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
      V x{};
      fill(x, a[r][c * cs]);
#pragma GCC unroll 4
      for (std::size_t s = 0; s < S; ++s) accumulate<kSkip>(acc[r][s], x, bc[s]);
    }
  }
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r)
#pragma GCC unroll 4
    for (std::size_t s = 0; s < S; ++s) {
      float* o = out[r] + j + s * L;
      V v = acc[r][s];
      if constexpr (I == Into::kAdd) {
        load(v, o);
        v = v + acc[r][s];
      }
      store(o, v);
    }
}

/// Every column of R rows: 8W at a time, then 4W, 4 and 1.
template <int W, Into I, Skip kSkip, bool kListed, std::size_t R>
[[gnu::always_inline]] inline void product_rows(
    const float* const (&a)[R], std::size_t cs, const float* b, std::size_t ldb,
    std::size_t inner, const std::uint32_t* inner_at, std::size_t cols,
    float* const (&out)[R]) {
  using V = typename Vec<W>::f;
  std::size_t j = 0;
  for (; j + 8 * W <= cols; j += 8 * W)
    product_block<I, kSkip, kListed, R, 2, V>(a, cs, b, ldb, inner, inner_at, j, out);
  for (; j + 4 * W <= cols; j += 4 * W)
    product_block<I, kSkip, kListed, R, 1, V>(a, cs, b, ldb, inner, inner_at, j, out);
  for (; j + 4 <= cols; j += 4)
    product_block<I, kSkip, kListed, R, 1, v4sf>(a, cs, b, ldb, inner, inner_at, j, out);
  for (; j < cols; ++j)
    product_block<I, kSkip, kListed, R, 1, float>(a, cs, b, ldb, inner, inner_at, j, out);
}

/// out[r, j] (stride ldo) = or += the sum over ascending c of a(r, c) *
/// b[c, j] (stride ldb), for the rows r of \p rows and j < cols, started at
/// zero and added to out once; c runs over every c < inner or, kListed, over
/// inner_at[0..inner). These are the loops tensor ops always ran, four rows
/// per pass with every innermost loop over contiguous columns. Every W gives
/// the same bits.
template <int W, Into I, Skip kSkip, bool kListed>
[[gnu::always_inline]] inline void product(Strided a, const float* b,
                                           std::size_t ldb, RowSet rows,
                                           std::size_t inner,
                                           const std::uint32_t* inner_at,
                                           std::size_t cols, float* out,
                                           std::size_t ldo) {
  std::size_t i = 0;
  for (; i + 4 <= rows.count; i += 4) {
    const float* ar[4];
    float* o[4];
#pragma GCC unroll 4
    for (std::size_t k = 0; k < 4; ++k) {
      const std::size_t r = rows[i + k];
      ar[k] = a.p + r * a.rs;
      o[k] = out + r * ldo;
    }
    product_rows<W, I, kSkip, kListed, 4>(ar, a.cs, b, ldb, inner, inner_at, cols, o);
  }
  for (; i < rows.count; ++i) {
    const std::size_t r = rows[i];
    const float* ar[1] = {a.p + r * a.rs};
    float* o[1] = {out + r * ldo};
    product_rows<W, I, kSkip, kListed, 1>(ar, a.cs, b, ldb, inner, inner_at, cols, o);
  }
}

// One product per width and store; products() picks the widest the CPU
// runs, or the width a ProductLanesForTesting holds on this thread.
using ProductFn = void (*)(Strided, const float*, std::size_t, RowSet,
                           std::size_t, const std::uint32_t*, std::size_t,
                           float*, std::size_t);

template <Into I, Skip kSkip, bool kListed>
void product_sse2(Strided a, const float* b, std::size_t ldb, RowSet rows,
                  std::size_t inner, const std::uint32_t* inner_at,
                  std::size_t cols, float* out, std::size_t ldo) {
  product<1, I, kSkip, kListed>(a, b, ldb, rows, inner, inner_at, cols, out, ldo);
}
template <Into I, Skip kSkip, bool kListed>
__attribute__((target("avx2"))) void product_avx2(
    Strided a, const float* b, std::size_t ldb, RowSet rows, std::size_t inner,
    const std::uint32_t* inner_at, std::size_t cols, float* out,
    std::size_t ldo) {
  product<2, I, kSkip, kListed>(a, b, ldb, rows, inner, inner_at, cols, out, ldo);
}
template <Into I, Skip kSkip, bool kListed>
__attribute__((target("avx512f"))) void product_avx512(
    Strided a, const float* b, std::size_t ldb, RowSet rows, std::size_t inner,
    const std::uint32_t* inner_at, std::size_t cols, float* out,
    std::size_t ldo) {
  product<4, I, kSkip, kListed>(a, b, ldb, rows, inner, inner_at, cols, out, ldo);
}

/// The steps of multi_head_attention's softmax over the columns of a
/// transposed [n, np] panel (column i: query row i's entries, key c at row
/// c), one column per lane; see ColumnArgs.
enum class ColumnStep {
  kShift,      ///< s := scale * s - its column's kept maximum (0 where masked)
  kNormalize,  ///< s := s / its column's kept sum, after the exp
  kBackward,   ///< s := the scores' gradient from s, the softmax's gradient
};

struct ColumnArgs {
  float* s;
  const float* a;     ///< kBackward: the softmax
  const float* keep;  ///< [n, np]: 1 where the mask keeps an entry; null: all
  std::size_t n, np;
  float* col;         ///< np floats: whether a column keeps any entry
  float scale;
};

/// One step over the L columns from \p b. Each column's sums run in
/// ascending c, one lane each, with the ops of the scalar row loops
/// (masked_softmax_rows and its backward, then scale's); the maximum is
/// std::max's a < b ? b : a.
template <class V, bool kMasked>
[[gnu::always_inline]] inline void column_step(ColumnStep step, const ColumnArgs& g,
                                               std::size_t b) {
  const std::size_t n = g.n, np = g.np;
  float* s = g.s + b;
  const float* keep = kMasked ? g.keep + b : nullptr;
  if (step == ColumnStep::kShift) {
    V mx{}, any{}, neg_inf{};
    fill(neg_inf, -std::numeric_limits<float>::infinity());
    mx = neg_inf;
    if (!kMasked) fill(any, 1.0f);
    for (std::size_t c = 0; c < n; ++c) {
      V z{}, k{};
      load(z, s + c * np);
      z = g.scale * z;
      if constexpr (kMasked) {
        // A masked entry counts as -inf, which never wins the comparison.
        load(k, keep + c * np);
        z = k != 0.0f ? z : neg_inf;
        any = k != 0.0f ? k : any;
      }
      mx = mx < z ? z : mx;
    }
    store(g.col + b, any);
    for (std::size_t c = 0; c < n; ++c) {
      V z{}, k{};
      load(z, s + c * np);
      z = g.scale * z - mx;
      if constexpr (kMasked) {
        load(k, keep + c * np);
        z = k != 0.0f ? z : V{};
      }
      store(s + c * np, z);
    }
  } else if (step == ColumnStep::kNormalize) {
    V denom{}, any{};
    for (std::size_t c = 0; c < n; ++c) {
      V e{}, k{};
      load(e, s + c * np);
      if constexpr (kMasked) {
        load(k, keep + c * np);
        e = k != 0.0f ? e : V{};
        store(s + c * np, e);
      }
      denom = denom + e;
    }
    load(any, g.col + b);
    for (std::size_t c = 0; c < n; ++c) {
      V e{};
      load(e, s + c * np);
      e = e / denom;
      if constexpr (kMasked) e = any != 0.0f ? e : V{};
      store(s + c * np, e);
    }
  } else {
    const float* a = g.a + b;
    V dot{};
    for (std::size_t c = 0; c < n; ++c) {
      V dy{}, y{};
      load(dy, s + c * np);
      load(y, a + c * np);
      dot = dot + dy * y;
    }
    for (std::size_t c = 0; c < n; ++c) {
      V dy{}, y{}, k{};
      load(dy, s + c * np);
      load(y, a + c * np);
      V dx = V{} + y * (dy - dot);
      if constexpr (kMasked) {
        load(k, keep + c * np);
        dx = k != 0.0f ? dx : V{};
      }
      store(s + c * np, V{} + g.scale * dx);
    }
  }
}

template <int W>
[[gnu::always_inline]] inline void column_softmax(ColumnStep step, const ColumnArgs& g) {
  using V = typename Vec<W>::f;
  for (std::size_t b = 0; b < g.np; b += 4 * W) {
    if (g.keep)
      column_step<V, true>(step, g, b);
    else
      column_step<V, false>(step, g, b);
  }
}

/// dst[i * ldd + c] = src[c * lds + i] for c < rows and i < cols, both
/// multiples of 16: L x L tiles, each in log2 L rounds of two-vector
/// shuffles that swap the off-diagonal h x h blocks of every 2h x 2h block,
/// h = L / 2 down to 1.
template <int W>
[[gnu::always_inline]] inline void transpose_tiles(const float* src, std::size_t lds,
                                                   std::size_t rows, std::size_t cols,
                                                   float* dst, std::size_t ldd) {
  using V = typename Vec<W>::f;
  using I = typename Vec<W>::i;
  constexpr int L = 4 * W, kRounds = W == 4 ? 4 : W == 2 ? 3 : 2;
  I low[kRounds], high[kRounds];
  for (int round = 0, h = L / 2; round < kRounds; ++round, h /= 2)
    for (int l = 0; l < L; ++l) {
      low[round][l] = l & h ? L + l - h : l;
      high[round][l] = l & h ? L + l : l + h;
    }
  for (std::size_t c0 = 0; c0 < rows; c0 += L)
    for (std::size_t i0 = 0; i0 < cols; i0 += L) {
      V r[L];
#pragma GCC unroll 16
      for (int k = 0; k < L; ++k) load(r[k], src + (c0 + k) * lds + i0);
#pragma GCC unroll 4
      for (int round = 0, h = L / 2; round < kRounds; ++round, h /= 2)
#pragma GCC unroll 16
        for (int k = 0; k < L; ++k)
          if ((k & h) == 0) {
            const V a = r[k], b = r[k + h];
            r[k] = __builtin_shuffle(a, b, low[round]);
            r[k + h] = __builtin_shuffle(a, b, high[round]);
          }
#pragma GCC unroll 16
      for (int k = 0; k < L; ++k) store(dst + (i0 + k) * ldd + c0, r[k]);
    }
}

using TransposeFn = void (*)(const float*, std::size_t, std::size_t, std::size_t,
                             float*, std::size_t);
void transpose_sse2(const float* src, std::size_t lds, std::size_t rows,
                    std::size_t cols, float* dst, std::size_t ldd) {
  transpose_tiles<1>(src, lds, rows, cols, dst, ldd);
}
__attribute__((target("avx2"))) void transpose_avx2(const float* src, std::size_t lds,
                                                    std::size_t rows, std::size_t cols,
                                                    float* dst, std::size_t ldd) {
  transpose_tiles<2>(src, lds, rows, cols, dst, ldd);
}
__attribute__((target("avx512f"))) void transpose_avx512(const float* src,
                                                         std::size_t lds,
                                                         std::size_t rows,
                                                         std::size_t cols, float* dst,
                                                         std::size_t ldd) {
  transpose_tiles<4>(src, lds, rows, cols, dst, ldd);
}

using ColumnFn = void (*)(ColumnStep, const ColumnArgs&);
void column_softmax_sse2(ColumnStep step, const ColumnArgs& args) {
  column_softmax<1>(step, args);
}
__attribute__((target("avx2"))) void column_softmax_avx2(ColumnStep step,
                                                         const ColumnArgs& args) {
  column_softmax<2>(step, args);
}
__attribute__((target("avx512f"))) void column_softmax_avx512(ColumnStep step,
                                                              const ColumnArgs& args) {
  column_softmax<4>(step, args);
}

/// The kernels at one width; kProducts[lanes / 8].
struct Products {
  ProductFn set_skip_a;  ///< matmul's forward: zero a(r, c) skipped
  ProductFn set_skip_b;  ///< attention @ values: zero b[c, j] skipped
  ProductFn set;
  ProductFn add;         ///< every input gradient
  ProductFn add_listed;  ///< a gradient summed over the computed rows only
  ColumnFn column_softmax;
  TransposeFn transpose;
};
#define GNNTRANS_PRODUCTS(fn, softmax, transpose)                                   \
  {fn<Into::kSet, Skip::kA, false>, fn<Into::kSet, Skip::kB, false>,                \
   fn<Into::kSet, Skip::kNone, false>, fn<Into::kAdd, Skip::kNone, false>,          \
   fn<Into::kAdd, Skip::kNone, true>, softmax, transpose}
constexpr Products kProducts[] = {
    GNNTRANS_PRODUCTS(product_sse2, column_softmax_sse2, transpose_sse2),
    GNNTRANS_PRODUCTS(product_avx2, column_softmax_avx2, transpose_avx2),
    GNNTRANS_PRODUCTS(product_avx512, column_softmax_avx512, transpose_avx512)};
#undef GNNTRANS_PRODUCTS

/// 0 while this thread runs at the widest width.
thread_local std::size_t t_lanes_for_testing = 0;

/// The float lanes this thread's kernels run at.
std::size_t active_lanes() {
  static const std::size_t widest = simd::widest_lanes();
  return t_lanes_for_testing ? t_lanes_for_testing : widest;
}

const Products& products() { return kProducts[active_lanes() / 8]; }

/// out [rows, cols] += a b summed over the inner indices \p inner only: the
/// gradient of a product's right operand when it computed just those rows.
void add_over(RowSet inner, Strided a, const float* b, std::size_t ldb,
              std::size_t rows, std::size_t cols, float* out) {
  const ProductFn add = inner.at ? products().add_listed : products().add;
  add(a, b, ldb, {nullptr, rows}, inner.count, inner.at, cols, out, cols);
}

/// The [cols, rows] transpose of row-major \p m in a per-thread buffer that
/// stays valid until the thread's next call.
const float* transposed(const float* m, std::size_t rows, std::size_t cols) {
  thread_local std::vector<float> buffer;
  buffer.resize(rows * cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) buffer[c * rows + r] = m[r * cols + c];
  return buffer.data();
}

/// y[i] = (y[i] +) s * x[i] for i < n, four lanes at a time.
template <Into I>
void scaled(float s, const float* x, float* y, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    v4sf xv{}, yv{};
    load(xv, x + i);
    if constexpr (I == Into::kAdd) load(yv, y + i);
    store(y + i, I == Into::kAdd ? yv + s * xv : s * xv);
  }
  for (; i < n; ++i) y[i] = I == Into::kAdd ? y[i] + s * x[i] : s * x[i];
}

/// fn(offset, count) over the rows of \p rows of a cols-wide matrix: once
/// over the whole buffer when they are every row, else once per row.
template <class Fn>
void for_rows(RowSet rows, std::size_t cols, Fn fn) {
  if (!rows.at) {
    fn(std::size_t{0}, rows.count * cols);
    return;
  }
  for (std::size_t i = 0; i < rows.count; ++i) fn(rows.at[i] * cols, cols);
}

}  // namespace

ProductLanesForTesting::ProductLanesForTesting(std::size_t lanes)
    : previous_(t_lanes_for_testing) {
  if (!((lanes == 4 || lanes == 8 || lanes == 16) && lanes <= simd::widest_lanes()))
    throw std::invalid_argument("tensor op: this CPU has no " + std::to_string(lanes) +
                                "-lane products");
  t_lanes_for_testing = lanes;
}

ProductLanesForTesting::~ProductLanesForTesting() { t_lanes_for_testing = previous_; }

Tensor matmul(const Tensor& a, const Tensor& b, Rows rows) {
  require(a.cols() == b.rows(), "matmul shape mismatch");
  const std::size_t n = a.rows(), k = a.cols(), m = b.cols();
  OpResult out = record(Op::kMatmul, n, m, {&a, &b});
  products().set_skip_a({a.values().data(), k, 1}, b.values().data(), m,
                           computed_rows(out, n, rows), k, nullptr, m, out.out, m);
  return std::move(out.tensor);
}

Tensor transpose(const Tensor& a) {
  const std::size_t n = a.rows(), m = a.cols();
  OpResult out = record(Op::kTranspose, m, n, {&a});
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < m; ++c) out.out[c * n + r] = a.values()[r * m + c];
  return std::move(out.tensor);
}

Tensor spmm(const GraphMatrix& m, const Tensor& x) {
  require(m.cols == x.rows(), "spmm shape mismatch");
  const std::size_t d = x.cols();
  OpResult out = record(Op::kSpmm, m.rows, d, {&x});
  if (Node* node = out.node) {
    node->index = node->tape->copy<std::uint32_t>(m.row_index);
    node->index2 = node->tape->copy<std::uint32_t>(m.col_index);
    node->saved = node->tape->copy<float>(m.values);
  }
  std::fill_n(out.out, m.rows * d, 0.0f);
  for (std::size_t k = 0; k < m.nnz(); ++k) {
    const std::size_t r = m.row_index[k], c = m.col_index[k];
    const float v = m.values[k];
    for (std::size_t j = 0; j < d; ++j) out.out[r * d + j] += v * x.values()[c * d + j];
  }
  return std::move(out.tensor);
}

void columns_read(const GraphMatrix& m, std::vector<std::uint32_t>& out) {
  // Marked, then packed in place, as the inference plan finds its live rows.
  out.assign(m.cols, 0);
  for (const std::uint32_t c : m.col_index) out[c] = 1;
  std::size_t live = 0;
  for (std::uint32_t c = 0; c < m.cols; ++c)
    if (out[c] != 0) out[live++] = c;
  out.resize(live);
}

namespace {

/// ca * A + cb * B over the rows \p rows.
Tensor linear(const Tensor& a, const Tensor& b, float ca, float cb, Rows rows) {
  require(a.rows() == b.rows() && a.cols() == b.cols(), "binary shape mismatch");
  OpResult out = record(Op::kLinear, a.rows(), a.cols(), {&a, &b});
  const RowSet rs = computed_rows(out, a.rows(), rows);
  if (out.node) {
    out.node->scalar[0] = ca;
    out.node->scalar[1] = cb;
  }
  const float* x = a.values().data();
  const float* y = b.values().data();
  float* o = out.out;
  for_rows(rs, a.cols(), [&](std::size_t at, std::size_t count) {
    std::size_t i = at;
    const std::size_t end = at + count;
    for (; i + 4 <= end; i += 4) {
      v4sf xv{}, yv{};
      load(xv, x + i);
      load(yv, y + i);
      store(o + i, ca * xv + cb * yv);
    }
    for (; i < end; ++i) o[i] = ca * x[i] + cb * y[i];
  });
  return std::move(out.tensor);
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b, Rows rows) {
  return linear(a, b, 1.0f, 1.0f, rows);
}
Tensor sub(const Tensor& a, const Tensor& b) { return linear(a, b, 1.0f, -1.0f, {}); }

Tensor mul(const Tensor& a, const Tensor& b) {
  require(a.rows() == b.rows() && a.cols() == b.cols(), "mul shape mismatch");
  OpResult out = record(Op::kMul, a.rows(), a.cols(), {&a, &b});
  for (std::size_t i = 0; i < a.size(); ++i) out.out[i] = a.values()[i] * b.values()[i];
  return std::move(out.tensor);
}

Tensor scale(const Tensor& a, float s) {
  OpResult out = record(Op::kScale, a.rows(), a.cols(), {&a});
  if (out.node) out.node->scalar[0] = s;
  scaled<Into::kSet>(s, a.values().data(), out.out, a.size());
  return std::move(out.tensor);
}

Tensor add_row_broadcast(const Tensor& a, const Tensor& bias) {
  require(bias.rows() == 1 && bias.cols() == a.cols(), "bias shape mismatch");
  const std::size_t n = a.rows(), d = a.cols();
  OpResult out = record(Op::kAddRowBroadcast, n, d, {&a, &bias});
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < d; ++c)
      out.out[r * d + c] = a.values()[r * d + c] + bias.values()[c];
  return std::move(out.tensor);
}

Tensor outer_sum(const Tensor& s, const Tensor& t) {
  require(s.cols() == 1 && t.cols() == 1, "outer_sum expects column vectors");
  const std::size_t n = s.rows(), m = t.rows();
  OpResult out = record(Op::kOuterSum, n, m, {&s, &t});
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < m; ++j) out.out[i * m + j] = s.values()[i] + t.values()[j];
  return std::move(out.tensor);
}

namespace {

// The elementwise nonlinearities: f forward, df the derivative from (input,
// output). kVector: both also take four lanes.
struct Relu {
  static constexpr bool kVector = true;
  auto f(auto x) const { return x > 0.0f ? x : decltype(x){}; }
  auto df(auto x, auto) const { return x > 0.0f ? decltype(x){} + 1.0f : decltype(x){}; }
};
struct LeakyRelu {
  static constexpr bool kVector = true;
  float slope;
  auto f(auto x) const { return x > 0.0f ? x : slope * x; }
  auto df(auto x, auto) const {
    return x > 0.0f ? decltype(x){} + 1.0f : decltype(x){} + slope;
  }
};
struct Sigmoid {
  static constexpr bool kVector = false;
  float f(float x) const { return 1.0f / (1.0f + std::exp(-x)); }
  float df(float, float y) const { return y * (1.0f - y); }
};
struct Tanh {
  static constexpr bool kVector = false;
  float f(float x) const { return std::tanh(x); }
  float df(float, float y) const { return 1.0f - y * y; }
};

template <class F>
Tensor unary(const Tensor& a, Op op, F fn) {
  OpResult out = record(op, a.rows(), a.cols(), {&a});
  if constexpr (std::is_same_v<F, LeakyRelu>)
    if (out.node) out.node->scalar[0] = fn.slope;
  const float* x = a.values().data();
  float* y = out.out;
  std::size_t i = 0;
  if constexpr (F::kVector)
    for (; i + 4 <= a.size(); i += 4) {
      v4sf xv{};
      load(xv, x + i);
      store(y + i, fn.f(xv));
    }
  for (; i < a.size(); ++i) y[i] = fn.f(x[i]);
  return std::move(out.tensor);
}

/// dx += df(x, y) * dy, four lanes at a time where F takes them.
template <class F>
void unary_backward(const Node& self, TensorImpl& in, F fn) {
  const float* x = in.value.data();
  const float* y = self.value.data();
  const float* g = self.grad.data();
  float* dx = in.grad.data();
  const std::size_t n = self.size();
  std::size_t i = 0;
  if constexpr (F::kVector)
    for (; i + 4 <= n; i += 4) {
      v4sf xv{}, yv{}, gv{}, dv{};
      load(xv, x + i);
      load(yv, y + i);
      load(gv, g + i);
      load(dv, dx + i);
      store(dx + i, dv + fn.df(xv, yv) * gv);
    }
  for (; i < n; ++i) dx[i] += fn.df(x[i], y[i]) * g[i];
}

}  // namespace

Tensor relu(const Tensor& a) { return unary(a, Op::kRelu, Relu{}); }
Tensor leaky_relu(const Tensor& a, float negative_slope) {
  return unary(a, Op::kLeakyRelu, LeakyRelu{negative_slope});
}
Tensor sigmoid(const Tensor& a) { return unary(a, Op::kSigmoid, Sigmoid{}); }
Tensor tanh_op(const Tensor& a) { return unary(a, Op::kTanh, Tanh{}); }

namespace {

/// lanes[l] := keep[l] ? lanes[l] : fallback[l], keep a byte mask.
[[gnu::always_inline]] inline v4sf keep_where(const std::uint8_t* keep, v4sf lanes,
                                              v4sf fallback) {
  typedef std::int32_t v4si __attribute__((vector_size(16)));
  const v4si k = {keep[0], keep[1], keep[2], keep[3]};
  return k != 0 ? lanes : fallback;
}

}  // namespace

Tensor masked_softmax_rows(const Tensor& a, const std::vector<std::uint8_t>& mask) {
  const std::size_t n = a.rows(), m = a.cols();
  require(mask.size() == n * m, "mask size mismatch");
  OpResult out = record(Op::kSoftmax, n, m, {&a});
  if (out.node) out.node->mask = out.node->tape->copy<std::uint8_t>(mask);

  for (std::size_t r = 0; r < n; ++r) {
    const float* x = a.values().data() + r * m;
    float* y = out.out + r * m;
    const std::uint8_t* k = mask.data() + r * m;
    // The row maximum, std::max's a < b ? b : a over the kept entries.
    float max_v = -std::numeric_limits<float>::infinity();
    bool any = false;
    for (std::size_t c = 0; c < m; ++c) {
      if (!k[c]) continue;
      max_v = std::max(max_v, x[c]);
      any = true;
    }
    if (!any) {  // a fully masked row is all zeros
      std::fill_n(y, m, 0.0f);
      continue;
    }
    float denom = 0.0f;
    for (std::size_t c = 0; c < m; ++c) {
      if (!k[c]) {
        y[c] = 0.0f;
        continue;
      }
      y[c] = std::exp(x[c] - max_v);
      denom += y[c];
    }
    std::size_t c = 0;
    for (; c + 4 <= m; c += 4) {
      v4sf v{};
      load(v, y + c);
      store(y + c, v / denom);
    }
    for (; c < m; ++c) y[c] /= denom;
  }
  return std::move(out.tensor);
}

namespace {

/// dx = y * (dy - dot) on the kept entries with dot = sum over ascending c
/// of dy * y; four rows' dots at once, so their sums do not wait on one
/// another.
void softmax_backward(const Node& self, TensorImpl& in) {
  const std::size_t n = self.rows, m = self.cols;
  const std::uint8_t* keep = self.mask.data();
  for (std::size_t p = 0; p < n; p += 4) {
    const std::size_t count = std::min<std::size_t>(4, n - p);
    std::size_t at[4] = {};
    for (std::size_t i = 0; i < count; ++i) at[i] = (p + i) * m;
    float dot[4] = {};
    for (std::size_t c = 0; c < m; ++c)
#pragma GCC unroll 4
      for (std::size_t i = 0; i < 4; ++i)
        if (i < count) dot[i] += self.grad[at[i] + c] * self.value[at[i] + c];
    for (std::size_t i = 0; i < count; ++i) {
      const float* y = self.value.data() + at[i];
      const float* dy = self.grad.data() + at[i];
      float* dx = in.grad.data() + at[i];
      const std::uint8_t* k = keep + at[i];
      std::size_t c = 0;
      for (; c + 4 <= m; c += 4) {
        v4sf yv{}, dyv{}, g{};
        load(yv, y + c);
        load(dyv, dy + c);
        load(g, dx + c);
        store(dx + c, keep_where(k + c, g + yv * (dyv - dot[i]), g));
      }
      for (; c < m; ++c)
        if (k[c]) dx[c] += y[c] * (dy[c] - dot[i]);
    }
  }
}

// ---- multi_head_attention ----
//
// Each head's scores, softmax and their gradients are kept transposed, as
// panels of keys by query rows: one vector holds L consecutive query rows,
// so a row's softmax sums (its exps, its gradient's dot) run down the panel
// in ascending key order, one row per lane, exactly as the scalar row loops
// summed them. Query rows and keys are padded to multiples of 16 (the widest
// L), with zero queries whose lanes are computed and never read. The
// products are the matmul kernels at full width over the query rows or the
// keys; only the key and value gradients, which sum over query rows, read
// the softmax and its gradient in row order, from transposed copies.

constexpr std::size_t kPad = 16;

std::size_t round_up(std::size_t n) { return (n + kPad - 1) / kPad * kPad; }

/// Shapes and saved floats of a multi_head_attention over x [n, d] with
/// `heads` heads of width dk (hd = heads * dk) and nr query rows.
struct AttentionShape {
  std::size_t n, d, heads, dk, hd, nr, np, nk;
  bool masked;

  AttentionShape(std::size_t n_, std::size_t d_, std::size_t heads_,
                 std::size_t dk_, std::size_t nr_, bool masked_)
      : n(n_), d(d_), heads(heads_), dk(dk_), hd(heads_ * dk_), nr(nr_),
        np(round_up(nr_)), nk(round_up(n_)), masked(masked_) {}

  // The saved floats, in order: Q^T [heads][dk][np], K|V [n][2 hd] (K of
  // every head, then V of every head), A^T [heads][nk][np] (rows from n on
  // zero, so that whole tiles transpose) and, when masked, keep [n][np] (1
  // where the mask keeps key c of query row i, else 0).
  [[nodiscard]] std::size_t kv() const { return heads * dk * np; }
  [[nodiscard]] std::size_t at() const { return kv() + n * 2 * hd; }
  [[nodiscard]] std::size_t keep() const { return at() + heads * nk * np; }
  [[nodiscard]] std::size_t saved() const { return keep() + (masked ? n * np : 0); }
};

/// An op's \p n working floats: on its tape while it is recorded (backward
/// reads them), else in a per-thread buffer valid until the thread's next
/// call.
float* working_floats(const OpResult& out, std::size_t n) {
  if (out.node) return out.node->tape->take<float>(n).data();
  thread_local std::vector<float> buffer;
  buffer.resize(n);
  return buffer.data();
}

}  // namespace

Tensor multi_head_attention(const Tensor& x, std::span<const Tensor> weights,
                            float scale, const std::vector<std::uint8_t>& mask,
                            Rows rows) {
  require(!weights.empty() && weights.size() % 3 == 0,
          "attention takes wq, wk and wv of each head");
  const std::size_t n = x.rows(), d = x.cols(), dk = weights[0].cols();
  for (const Tensor& w : weights)
    require(w.rows() == d && w.cols() == dk, "attention weight shape mismatch");
  require(mask.empty() || mask.size() == n * n, "mask size mismatch");
  OpResult out = record(Op::kAttention, n, weights.size() / 3 * dk, x, weights);
  const RowSet rs = computed_rows(out, n, rows);
  const AttentionShape sh(n, d, weights.size() / 3, dk, rs.count, !mask.empty());
  const std::size_t hd = sh.hd, np = sh.np;

  float* saved = working_floats(out, sh.saved() + d * 3 * hd + n * hd + dk * np + np);
  float* qt = saved;
  float* kv = saved + sh.kv();
  float* keep = sh.masked ? saved + sh.keep() : nullptr;
  float* wqkv = saved + sh.saved();  // [d][3 hd]: every head's wq, then wk, then wv
  float* q = wqkv + d * 3 * hd;      // [n][hd], the computed rows
  float* ot = q + n * hd;            // [dk][np]: one head's output, transposed
  float* col = ot + dk * np;
  if (Node* node = out.node) {
    node->saved = {saved, sh.saved()};
    node->scalar[0] = scale;
    node->scalar[1] = sh.masked ? 1.0f : 0.0f;
  }

  for (std::size_t w = 0; w < weights.size(); ++w) {
    const float* src = weights[w].values().data();
    float* dst = wqkv + w % 3 * hd + w / 3 * dk;
    for (std::size_t c = 0; c < d; ++c)
      std::copy_n(src + c * dk, dk, dst + c * 3 * hd);
  }
  const Products& k = products();
  k.set_skip_a({x.values().data(), d, 1}, wqkv, 3 * hd, rs, d, nullptr, hd, q, hd);
  k.set_skip_a({x.values().data(), d, 1}, wqkv + hd, 3 * hd, {nullptr, n}, d,
               nullptr, 2 * hd, kv, 2 * hd);
  for (std::size_t c = 0; c < hd; ++c)
    for (std::size_t i = 0; i < np; ++i)
      qt[c * np + i] = i < rs.count ? q[rs[i] * hd + c] : 0.0f;
  if (keep)
    for (std::size_t c = 0; c < n; ++c)
      for (std::size_t i = 0; i < np; ++i)
        keep[c * np + i] = i < rs.count && mask[rs[i] * n + c] != 0 ? 1.0f : 0.0f;

  for (std::size_t h = 0; h < sh.heads; ++h) {
    float* at = saved + sh.at() + h * sh.nk * np;
    std::fill(at + n * np, at + sh.nk * np, 0.0f);
    // Eq. (2): scores k_c . q_i down the panel, then the softmax.
    k.set({kv + h * dk, 2 * hd, 1}, qt + h * dk * np, np, {nullptr, n}, dk, nullptr,
          np, at, np);
    const ColumnArgs args{at, nullptr, keep, n, np, col, scale};
    k.column_softmax(ColumnStep::kShift, args);
    exp_in_place(at, n * np, active_lanes());
    k.column_softmax(ColumnStep::kNormalize, args);
    // The head's output, transposed: v_c weighted down the panel.
    k.set_skip_b({kv + hd + h * dk, 1, 2 * hd}, at, np, {nullptr, dk}, n, nullptr,
                 np, ot, np);
    for (std::size_t j = 0; j < dk; ++j)
      for (std::size_t i = 0; i < rs.count; ++i)
        out.out[rs[i] * hd + h * dk + j] = ot[j * np + i];
  }
  return std::move(out.tensor);
}

namespace {

void attention_backward(Node& self) {
  TensorImpl& x = *self.operands[0];
  const std::size_t heads = (self.operands.size() - 1) / 3;
  const RowSet rs = row_set(self.rows_computed, self.rows);
  const AttentionShape sh(x.rows, x.cols, heads, self.operands[1]->cols, rs.count,
                          self.scalar[1] != 0.0f);
  const std::size_t n = sh.n, d = sh.d, dk = sh.dk, hd = sh.hd, nr = sh.nr,
                    np = sh.np, nk = sh.nk;
  const float* qt = self.saved.data();
  const float* kv = qt + sh.kv();
  const float* keep = sh.masked ? qt + sh.keep() : nullptr;

  float* work = self.tape
                    ->take<float>(2 * dk * np + 3 * nk * np + 2 * dk * nk +
                                  3 * n * hd + 3 * d * hd + np)
                    .data();
  float* d_out = work;          // [dk][np]: dO^T
  float* g = d_out + dk * np;   // [nk][np]: dA^T, then dS^T; rows from n on zero
  float* dqt = g + nk * np;   // [dk][np]: dQ^T
  float* a_rows = dqt + dk * np;     // [np][nk]: A
  float* g_rows = a_rows + np * nk;  // [np][nk]: dS
  float* dvt = g_rows + np * nk;   // [dk][nk]: dV^T
  float* dkt = dvt + dk * nk;      // [dk][nk]: dK^T
  float* dq = dkt + dk * nk;       // [n][hd], the computed rows
  float* dkv = dq + n * hd;        // [n][2 hd], as K|V
  float* wgrad = dkv + 2 * n * hd;  // [d][3 hd]: the weights' gradients
  float* col = wgrad + 3 * d * hd;

  const Products& k = products();
  std::fill(g + n * np, g + nk * np, 0.0f);
  for (std::size_t h = 0; h < heads; ++h) {
    const float* at = qt + sh.at() + h * nk * np;
    for (std::size_t j = 0; j < dk; ++j)
      for (std::size_t i = 0; i < np; ++i)
        d_out[j * np + i] = i < nr ? 0.0f + self.grad[rs[i] * hd + h * dk + j] : 0.0f;
    // dA = dO v^T, then the softmax's and the scale's backward: dS.
    k.set({kv + hd + h * dk, 2 * hd, 1}, d_out, np, {nullptr, n}, dk, nullptr, np, g, np);
    k.column_softmax(ColumnStep::kBackward, {g, at, keep, n, np, col, self.scalar[0]});
    // dQ = dS k.
    k.set({kv + h * dk, 1, 2 * hd}, g, np, {nullptr, dk}, n, nullptr, np, dqt, np);
    for (std::size_t j = 0; j < dk; ++j)
      for (std::size_t i = 0; i < nr; ++i) dq[rs[i] * hd + h * dk + j] = dqt[j * np + i];
    // dV = A^T dO and dK = dS^T q, summed over the query rows in order.
    k.transpose(at, np, nk, np, a_rows, nk);
    k.transpose(g, np, nk, np, g_rows, nk);
    k.set({d_out, np, 1}, a_rows, nk, {nullptr, dk}, nr, nullptr, nk, dvt, nk);
    k.set({qt + h * dk * np, np, 1}, g_rows, nk, {nullptr, dk}, nr, nullptr, nk, dkt, nk);
    for (std::size_t c = 0; c < n; ++c)
      for (std::size_t j = 0; j < dk; ++j) {
        dkv[c * 2 * hd + h * dk + j] = dkt[j * nk + c];
        dkv[c * 2 * hd + hd + h * dk + j] = dvt[j * nk + c];
      }
  }

  // Weight w's projection (w % 3: q, k or v of head w / 3) in a matrix
  // laid out as [Q | K | V] with Q's rows ldq wide and K|V's 2 hd: at.
  const auto part = [&](float* q_part, std::size_t ldq, float* kv_part,
                        std::size_t w) -> Strided {
    const std::size_t kind = w % 3, at = w / 3 * dk;
    return kind == 0 ? Strided{q_part + at, ldq, 1}
                     : Strided{kv_part + (kind - 1) * hd + at, 2 * hd, 1};
  };

  // x's gradient, each projection's sum added on its own in the order the
  // per-head chain's tape added them: v, k, q of the last head first.
  if (x.requires_grad) {
    x.ensure_grad();
    for (std::size_t w = 3 * heads; w-- > 0;)
      k.add(part(dq, hd, dkv, w), transposed(self.operands[1 + w]->value.data(), d, dk),
            d, w % 3 == 0 ? rs : RowSet{nullptr, n}, dk, nullptr, d, x.grad.data(), d);
  }

  // The weights' gradients: x^T [dQ | dK | dV] over every head at once.
  std::fill_n(wgrad, 3 * d * hd, 0.0f);
  add_over(rs, {x.value.data(), 1, d}, dq, hd, d, hd, wgrad);
  k.add({x.value.data(), 1, d}, dkv, 2 * hd, {nullptr, d}, n, nullptr, 2 * hd,
        wgrad + d * hd, 2 * hd);
  for (std::size_t w = 0; w < 3 * heads; ++w) {
    TensorImpl& p = *self.operands[1 + w];
    if (!p.requires_grad) continue;
    p.ensure_grad();
    const Strided src = part(wgrad, hd, wgrad + d * hd, w);
    for (std::size_t c = 0; c < d; ++c)
      for (std::size_t j = 0; j < dk; ++j) p.grad[c * dk + j] += src.p[c * src.rs + j];
  }
}

}  // namespace

Tensor concat_cols(std::span<const Tensor> parts) {
  require(!parts.empty(), "concat_cols: empty input");
  const std::size_t n = parts.front().rows();
  std::size_t total = 0;
  for (const Tensor& p : parts) {
    require(p.rows() == n, "concat_cols row mismatch");
    total += p.cols();
  }
  OpResult out = record(Op::kConcatCols, n, total, parts);
  std::size_t offset = 0;
  for (const Tensor& p : parts) {
    const std::size_t d = p.cols();
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < d; ++c)
        out.out[r * total + offset + c] = p.values()[r * d + c];
    offset += d;
  }
  return std::move(out.tensor);
}

Tensor gather_rows(const Tensor& a, const std::vector<std::uint32_t>& indices) {
  const std::size_t d = a.cols();
  for (std::uint32_t idx : indices)
    require(idx < a.rows(), "gather_rows index out of range");
  OpResult out = record(Op::kGatherRows, indices.size(), d, {&a});
  if (out.node) out.node->index = out.node->tape->copy<std::uint32_t>(indices);
  for (std::size_t r = 0; r < indices.size(); ++r)
    for (std::size_t c = 0; c < d; ++c)
      out.out[r * d + c] = a.values()[indices[r] * d + c];
  return std::move(out.tensor);
}

Tensor sum_all(const Tensor& a) {
  OpResult out = record(Op::kSumAll, 1, 1, {&a});
  float acc = 0.0f;
  for (float v : a.values()) acc += v;
  out.out[0] = acc;
  return std::move(out.tensor);
}

Tensor mean_all(const Tensor& a) {
  return scale(sum_all(a), 1.0f / static_cast<float>(a.size()));
}

Tensor mse_loss(const Tensor& pred, const Tensor& target) {
  require(pred.rows() == target.rows() && pred.cols() == target.cols(),
          "mse_loss shape mismatch");
  const float inv_n = 1.0f / static_cast<float>(pred.size());
  // The target is read by backward, never differentiated.
  OpResult out = record(Op::kMseLoss, 1, 1, {&pred, &target}, 1);
  if (out.node) out.node->scalar[0] = inv_n;
  float acc = 0.0f;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const float d = pred.values()[i] - target.values()[i];
    acc += d * d;
  }
  out.out[0] = acc * inv_n;
  return std::move(out.tensor);
}

void Node::run_backward() {
  TensorImpl& a = *operands[0];
  // The first operand's gradient, when it takes one.
  float* da = nullptr;
  if (a.requires_grad) {
    a.ensure_grad();
    da = a.grad.data();
  }
  TensorImpl* b = operands.size() > 1 && op != Op::kConcatCols && op != Op::kAttention
                      ? operands[1]
                      : nullptr;
  float* db = nullptr;
  if (b && b->requires_grad && parents > 1) {
    b->ensure_grad();
    db = b->grad.data();
  }
  const RowSet rs = row_set(rows_computed, this->rows);

  switch (op) {
    case Op::kMatmul: {
      const std::size_t k = a.cols, m = cols;
      // dA += dY @ B^T
      if (da)
        products().add({grad.data(), m, 1}, transposed(b->value.data(), k, m), k,
                       rs, m, nullptr, k, da, k);
      // dB += A^T @ dY
      if (db) add_over(rs, {a.value.data(), 1, k}, grad.data(), m, k, m, db);
      break;
    }
    case Op::kTranspose: {
      if (!da) break;
      const std::size_t n = cols, m = this->rows;
      for (std::size_t r = 0; r < m; ++r)
        for (std::size_t c = 0; c < n; ++c) da[c * m + r] += grad[r * n + c];
      break;
    }
    case Op::kSpmm: {
      if (!da) break;
      const std::size_t d = cols;
      for (std::size_t k = 0; k < saved.size(); ++k) {
        const std::size_t r = index[k], c = index2[k];
        const float v = saved[k];
        for (std::size_t j = 0; j < d; ++j) da[c * d + j] += v * grad[r * d + j];
      }
      break;
    }
    case Op::kLinear:
    case Op::kScale: {
      const float ca = scalar[0], cb = scalar[1];
      for_rows(rs, cols, [&](std::size_t at, std::size_t count) {
        if (da) scaled<Into::kAdd>(ca, grad.data() + at, da + at, count);
        if (db) scaled<Into::kAdd>(cb, grad.data() + at, db + at, count);
      });
      break;
    }
    case Op::kMul: {
      if (da)
        for (std::size_t i = 0; i < size(); ++i) da[i] += b->value[i] * grad[i];
      if (db)
        for (std::size_t i = 0; i < size(); ++i) db[i] += a.value[i] * grad[i];
      break;
    }
    case Op::kAddRowBroadcast: {
      const std::size_t n = this->rows, d = cols;
      if (da)
        for (std::size_t i = 0; i < size(); ++i) da[i] += grad[i];
      if (db)
        for (std::size_t r = 0; r < n; ++r)
          for (std::size_t c = 0; c < d; ++c) db[c] += grad[r * d + c];
      break;
    }
    case Op::kOuterSum: {
      const std::size_t n = this->rows, m = cols;
      if (da)
        for (std::size_t i = 0; i < n; ++i) {
          float acc = 0.0f;
          for (std::size_t j = 0; j < m; ++j) acc += grad[i * m + j];
          da[i] += acc;
        }
      if (db)
        for (std::size_t j = 0; j < m; ++j) {
          float acc = 0.0f;
          for (std::size_t i = 0; i < n; ++i) acc += grad[i * m + j];
          db[j] += acc;
        }
      break;
    }
    case Op::kRelu:
      if (da) unary_backward(*this, a, Relu{});
      break;
    case Op::kLeakyRelu:
      if (da) unary_backward(*this, a, LeakyRelu{scalar[0]});
      break;
    case Op::kSigmoid:
      if (da) unary_backward(*this, a, Sigmoid{});
      break;
    case Op::kTanh:
      if (da) unary_backward(*this, a, Tanh{});
      break;
    case Op::kSoftmax:
      if (da) softmax_backward(*this, a);
      break;
    case Op::kAttention:
      attention_backward(*this);
      break;
    case Op::kConcatCols: {
      const std::size_t n = this->rows, total = cols;
      std::size_t offset = 0;
      for (TensorImpl* p : operands) {
        const std::size_t d = p->cols;
        if (p->requires_grad) {
          p->ensure_grad();
          for (std::size_t r = 0; r < n; ++r)
            for (std::size_t c = 0; c < d; ++c)
              p->grad[r * d + c] += grad[r * total + offset + c];
        }
        offset += d;
      }
      break;
    }
    case Op::kGatherRows: {
      if (!da) break;
      const std::size_t d = cols;
      for (std::size_t r = 0; r < index.size(); ++r)
        for (std::size_t c = 0; c < d; ++c) da[index[r] * d + c] += grad[r * d + c];
      break;
    }
    case Op::kSumAll:
      if (da)
        for (std::size_t i = 0; i < a.size(); ++i) da[i] += grad[0];
      break;
    case Op::kMseLoss:
      if (da)
        for (std::size_t i = 0; i < a.size(); ++i)
          da[i] += 2.0f * scalar[0] * (a.value[i] - b->value[i]) * grad[0];
      break;
  }
}

}  // namespace gnntrans::tensor
