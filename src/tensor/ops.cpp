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

/// acc += x * b. kSkipZero drops the terms whose x is zero: their product
/// becomes +0, which leaves a sum started at +0 unchanged (such a sum is
/// never -0), even where b holds an infinity or a NaN.
template <bool kSkipZero, class V>
[[gnu::always_inline]] inline void accumulate(V& acc, const V& x, const V& b) {
  V t = x * b;
  if constexpr (kSkipZero) t = x != 0.0f ? t : V{};
  acc = acc + t;
}

/// Columns [j, j + S lanes of V) of R rows, row r of a at a[r] (entry c at
/// a[r][c * cs]) and of the output at out[r]: one accumulator per row and
/// vector, started at zero, summing a(r, c) * b[c, j] over ascending c,
/// every c < inner or, kListed, each inner_at[i].
template <Into I, bool kSkipZero, bool kListed, std::size_t R, std::size_t S, class V>
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
      for (std::size_t s = 0; s < S; ++s) accumulate<kSkipZero>(acc[r][s], x, bc[s]);
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
template <int W, Into I, bool kSkipZero, bool kListed, std::size_t R>
[[gnu::always_inline]] inline void product_rows(
    const float* const (&a)[R], std::size_t cs, const float* b, std::size_t ldb,
    std::size_t inner, const std::uint32_t* inner_at, std::size_t cols,
    float* const (&out)[R]) {
  using V = typename Vec<W>::f;
  std::size_t j = 0;
  for (; j + 8 * W <= cols; j += 8 * W)
    product_block<I, kSkipZero, kListed, R, 2, V>(a, cs, b, ldb, inner, inner_at, j, out);
  for (; j + 4 * W <= cols; j += 4 * W)
    product_block<I, kSkipZero, kListed, R, 1, V>(a, cs, b, ldb, inner, inner_at, j, out);
  for (; j + 4 <= cols; j += 4)
    product_block<I, kSkipZero, kListed, R, 1, v4sf>(a, cs, b, ldb, inner, inner_at, j, out);
  for (; j < cols; ++j)
    product_block<I, kSkipZero, kListed, R, 1, float>(a, cs, b, ldb, inner, inner_at, j, out);
}

/// out[r, j] (stride ldo) = or += the sum over ascending c of a(r, c) *
/// b[c, j] (stride ldb), for the rows r of \p rows and j < cols, started at
/// zero and added to out once; c runs over every c < inner or, kListed, over
/// inner_at[0..inner). These are the loops tensor ops always ran, four rows
/// per pass with every innermost loop over contiguous columns. Every W gives
/// the same bits.
template <int W, Into I, bool kSkipZero, bool kListed>
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
    product_rows<W, I, kSkipZero, kListed, 4>(ar, a.cs, b, ldb, inner, inner_at, cols, o);
  }
  for (; i < rows.count; ++i) {
    const std::size_t r = rows[i];
    const float* ar[1] = {a.p + r * a.rs};
    float* o[1] = {out + r * ldo};
    product_rows<W, I, kSkipZero, kListed, 1>(ar, a.cs, b, ldb, inner, inner_at, cols, o);
  }
}

// One product per width and store; products() picks the widest the CPU
// runs, or the width a ProductLanesForTesting holds on this thread.
using ProductFn = void (*)(Strided, const float*, std::size_t, RowSet,
                           std::size_t, const std::uint32_t*, std::size_t,
                           float*, std::size_t);

template <Into I, bool kSkipZero, bool kListed>
void product_sse2(Strided a, const float* b, std::size_t ldb, RowSet rows,
                  std::size_t inner, const std::uint32_t* inner_at,
                  std::size_t cols, float* out, std::size_t ldo) {
  product<1, I, kSkipZero, kListed>(a, b, ldb, rows, inner, inner_at, cols, out, ldo);
}
template <Into I, bool kSkipZero, bool kListed>
__attribute__((target("avx2"))) void product_avx2(
    Strided a, const float* b, std::size_t ldb, RowSet rows, std::size_t inner,
    const std::uint32_t* inner_at, std::size_t cols, float* out,
    std::size_t ldo) {
  product<2, I, kSkipZero, kListed>(a, b, ldb, rows, inner, inner_at, cols, out, ldo);
}
template <Into I, bool kSkipZero, bool kListed>
__attribute__((target("avx512f"))) void product_avx512(
    Strided a, const float* b, std::size_t ldb, RowSet rows, std::size_t inner,
    const std::uint32_t* inner_at, std::size_t cols, float* out,
    std::size_t ldo) {
  product<4, I, kSkipZero, kListed>(a, b, ldb, rows, inner, inner_at, cols, out, ldo);
}

/// The products at one width; kProducts[lanes / 8].
struct Products {
  ProductFn set_skip_zero;  ///< matmul's forward
  ProductFn set;            ///< matmul_nt's forward
  ProductFn add;            ///< every input gradient
  ProductFn add_listed;     ///< a gradient summed over the computed rows only
};
#define GNNTRANS_PRODUCTS(fn)                                             \
  {fn<Into::kSet, true, false>, fn<Into::kSet, false, false>,             \
   fn<Into::kAdd, false, false>, fn<Into::kAdd, false, true>}
constexpr Products kProducts[] = {GNNTRANS_PRODUCTS(product_sse2),
                                  GNNTRANS_PRODUCTS(product_avx2),
                                  GNNTRANS_PRODUCTS(product_avx512)};
#undef GNNTRANS_PRODUCTS

/// 0 while this thread runs at the widest width.
thread_local std::size_t t_lanes_for_testing = 0;

const Products& products() {
  static const std::size_t widest = simd::widest_lanes();
  return kProducts[(t_lanes_for_testing ? t_lanes_for_testing : widest) / 8];
}

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
  products().set_skip_zero({a.values().data(), k, 1}, b.values().data(), m,
                           computed_rows(out, n, rows), k, nullptr, m, out.out, m);
  return std::move(out.tensor);
}

Tensor matmul_nt(const Tensor& a, const Tensor& b, Rows rows) {
  require(a.cols() == b.cols(), "matmul_nt shape mismatch");
  const std::size_t n = a.rows(), k = a.cols(), m = b.rows();
  OpResult out = record(Op::kMatmulNt, n, m, {&a, &b});
  products().set({a.values().data(), k, 1}, transposed(b.values().data(), m, k),
                 m, computed_rows(out, n, rows), k, nullptr, m, out.out, m);
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
    node->coeff = node->tape->copy<float>(m.values);
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

Tensor scale(const Tensor& a, float s, Rows rows) {
  OpResult out = record(Op::kScale, a.rows(), a.cols(), {&a});
  const RowSet rs = computed_rows(out, a.rows(), rows);
  if (out.node) out.node->scalar[0] = s;
  for_rows(rs, a.cols(), [&](std::size_t at, std::size_t count) {
    scaled<Into::kSet>(s, a.values().data() + at, out.out + at, count);
  });
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

Tensor softmax_impl(const Tensor& a, const std::vector<std::uint8_t>* mask,
                    Rows rows) {
  const std::size_t n = a.rows(), m = a.cols();
  if (mask) require(mask->size() == n * m, "mask size mismatch");
  OpResult out = record(Op::kSoftmax, n, m, {&a});
  const RowSet rs = computed_rows(out, n, rows);
  if (out.node && mask) out.node->mask = out.node->tape->copy<std::uint8_t>(*mask);

  for (std::size_t i = 0; i < rs.count; ++i) {
    const std::size_t r = rs[i];
    const float* x = a.values().data() + r * m;
    float* y = out.out + r * m;
    const std::uint8_t* k = mask ? mask->data() + r * m : nullptr;
    // The row maximum, std::max's a < b ? b : a over the kept entries. Taken
    // four lanes at a time it is the same value but for the sign of a zero
    // maximum, which no x - max below can tell apart.
    float max_v = -std::numeric_limits<float>::infinity();
    bool any = false;
    if (!k) {
      v4sf mx{};
      fill(mx, max_v);
      std::size_t c = 0;
      for (; c + 4 <= m; c += 4) {
        v4sf v{};
        load(v, x + c);
        mx = mx < v ? v : mx;
      }
      for (std::size_t l = 0; l < 4; ++l) max_v = std::max(max_v, mx[l]);
      for (; c < m; ++c) max_v = std::max(max_v, x[c]);
      any = m > 0;
    } else {
      for (std::size_t c = 0; c < m; ++c) {
        if (!k[c]) continue;
        max_v = std::max(max_v, x[c]);
        any = true;
      }
    }
    if (!any) {  // a fully masked row is all zeros
      std::fill_n(y, m, 0.0f);
      continue;
    }
    float denom = 0.0f;
    for (std::size_t c = 0; c < m; ++c) {
      if (k && !k[c]) {
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

/// dx = y * (dy - dot) with dot = sum over ascending c of dy * y; four
/// rows' dots at once, so their sums do not wait on one another.
void softmax_backward(const Node& self, TensorImpl& in) {
  const std::size_t n = self.rows, m = self.cols;
  const std::uint8_t* keep = self.mask.empty() ? nullptr : self.mask.data();
  const RowSet rs = row_set(self.rows_computed, n);
  for (std::size_t p = 0; p < rs.count; p += 4) {
    const std::size_t count = std::min<std::size_t>(4, rs.count - p);
    std::size_t at[4] = {};
    for (std::size_t i = 0; i < count; ++i) at[i] = rs[p + i] * m;
    float dot[4] = {};
    for (std::size_t c = 0; c < m; ++c)
#pragma GCC unroll 4
      for (std::size_t i = 0; i < 4; ++i)
        if (i < count) dot[i] += self.grad[at[i] + c] * self.value[at[i] + c];
    for (std::size_t i = 0; i < count; ++i) {
      const float* y = self.value.data() + at[i];
      const float* dy = self.grad.data() + at[i];
      float* dx = in.grad.data() + at[i];
      const std::uint8_t* k = keep ? keep + at[i] : nullptr;
      std::size_t c = 0;
      for (; c + 4 <= m; c += 4) {
        v4sf yv{}, dyv{}, g{};
        load(yv, y + c);
        load(dyv, dy + c);
        load(g, dx + c);
        const v4sf sum = g + yv * (dyv - dot[i]);
        store(dx + c, k ? keep_where(k + c, sum, g) : sum);
      }
      for (; c < m; ++c)
        if (!k || k[c]) dx[c] += y[c] * (dy[c] - dot[i]);
    }
  }
}

}  // namespace

Tensor softmax_rows(const Tensor& a, Rows rows) { return softmax_impl(a, nullptr, rows); }

Tensor masked_softmax_rows(const Tensor& a, const std::vector<std::uint8_t>& mask,
                           Rows rows) {
  return softmax_impl(a, &mask, rows);
}

Tensor concat_cols(std::span<const Tensor> parts, Rows rows) {
  require(!parts.empty(), "concat_cols: empty input");
  const std::size_t n = parts.front().rows();
  std::size_t total = 0;
  for (const Tensor& p : parts) {
    require(p.rows() == n, "concat_cols row mismatch");
    total += p.cols();
  }
  OpResult out = record(Op::kConcatCols, n, total, parts);
  const RowSet rs = computed_rows(out, n, rows);
  std::size_t offset = 0;
  for (const Tensor& p : parts) {
    const std::size_t d = p.cols();
    for (std::size_t i = 0; i < rs.count; ++i) {
      const std::size_t r = rs[i];
      for (std::size_t c = 0; c < d; ++c)
        out.out[r * total + offset + c] = p.values()[r * d + c];
    }
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
  TensorImpl* b = operands.size() > 1 && op != Op::kConcatCols ? operands[1] : nullptr;
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
    case Op::kMatmulNt: {
      const std::size_t k = a.cols, m = cols;
      // dA += dY @ B
      if (da) products().add({grad.data(), m, 1}, b->value.data(), k, rs, m, nullptr, k, da, k);
      // dB += dY^T @ A
      if (db) add_over(rs, {grad.data(), 1, m}, a.value.data(), k, m, k, db);
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
      for (std::size_t k = 0; k < coeff.size(); ++k) {
        const std::size_t r = index[k], c = index2[k];
        const float v = coeff[k];
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
    case Op::kConcatCols: {
      const std::size_t total = cols;
      std::size_t offset = 0;
      for (TensorImpl* p : operands) {
        const std::size_t d = p->cols;
        if (p->requires_grad) {
          p->ensure_grad();
          for (std::size_t i = 0; i < rs.count; ++i) {
            const std::size_t r = rs[i];
            for (std::size_t c = 0; c < d; ++c)
              p->grad[r * d + c] += grad[r * total + offset + c];
          }
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
