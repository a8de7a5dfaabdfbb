#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "tensor/simd.hpp"

namespace gnntrans::tensor {

namespace {

void require(bool cond, const std::string& what) {
  if (!cond) throw std::invalid_argument("tensor op: " + what);
}

using Impl = std::shared_ptr<TensorImpl>;

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
  [[nodiscard]] float operator()(std::size_t r, std::size_t c) const {
    return p[r * rs + c * cs];
  }
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

/// Columns [j, j + S lanes of V) of R consecutive rows: one accumulator per
/// row and vector, started at zero, summing a(r, c) * b[c, j] over
/// ascending c.
template <Into I, bool kSkipZero, std::size_t R, std::size_t S, class V>
[[gnu::always_inline]] inline void product_block(Strided a, const float* b,
                                                 std::size_t ldb,
                                                 std::size_t inner,
                                                 std::size_t j, float* out,
                                                 std::size_t ldo) {
  constexpr std::size_t L = sizeof(V) / sizeof(float);
  V acc[R][S] = {};
  for (std::size_t c = 0; c < inner; ++c) {
    V bc[S] = {};
#pragma GCC unroll 4
    for (std::size_t s = 0; s < S; ++s) load(bc[s], b + c * ldb + j + s * L);
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
      V x{};
      fill(x, a(r, c));
#pragma GCC unroll 4
      for (std::size_t s = 0; s < S; ++s) accumulate<kSkipZero>(acc[r][s], x, bc[s]);
    }
  }
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r)
#pragma GCC unroll 4
    for (std::size_t s = 0; s < S; ++s) {
      float* o = out + r * ldo + j + s * L;
      V v = acc[r][s];
      if constexpr (I == Into::kAdd) {
        load(v, o);
        v = v + acc[r][s];
      }
      store(o, v);
    }
}

/// Every column of R consecutive rows: 8W at a time, then 4W, 4 and 1.
template <int W, Into I, bool kSkipZero, std::size_t R>
[[gnu::always_inline]] inline void product_rows(Strided a, const float* b,
                                                std::size_t ldb,
                                                std::size_t inner,
                                                std::size_t cols, float* out,
                                                std::size_t ldo) {
  using V = typename Vec<W>::f;
  std::size_t j = 0;
  for (; j + 8 * W <= cols; j += 8 * W)
    product_block<I, kSkipZero, R, 2, V>(a, b, ldb, inner, j, out, ldo);
  for (; j + 4 * W <= cols; j += 4 * W)
    product_block<I, kSkipZero, R, 1, V>(a, b, ldb, inner, j, out, ldo);
  for (; j + 4 <= cols; j += 4)
    product_block<I, kSkipZero, R, 1, v4sf>(a, b, ldb, inner, j, out, ldo);
  for (; j < cols; ++j)
    product_block<I, kSkipZero, R, 1, float>(a, b, ldb, inner, j, out, ldo);
}

/// out[r, j] (stride ldo) = or += the sum over ascending c < inner of
/// a(r, c) * b[c, j] (stride ldb), for r < rows and j < cols, started at
/// zero and added to out once: the loops tensor ops always ran, four rows
/// per pass with every innermost loop over contiguous columns. Every W gives
/// the same bits.
template <int W, Into I, bool kSkipZero>
[[gnu::always_inline]] inline void product(Strided a, const float* b,
                                           std::size_t ldb, std::size_t rows,
                                           std::size_t inner, std::size_t cols,
                                           float* out, std::size_t ldo) {
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4)
    product_rows<W, I, kSkipZero, 4>({a.p + r * a.rs, a.rs, a.cs}, b, ldb,
                                     inner, cols, out + r * ldo, ldo);
  for (; r < rows; ++r)
    product_rows<W, I, kSkipZero, 1>({a.p + r * a.rs, a.rs, a.cs}, b, ldb,
                                     inner, cols, out + r * ldo, ldo);
}

// One product per width and store; products() picks the widest the CPU
// runs, or the width a ProductLanesForTesting holds on this thread.
using ProductFn = void (*)(Strided, const float*, std::size_t, std::size_t,
                           std::size_t, std::size_t, float*, std::size_t);

template <Into I, bool kSkipZero>
void product_sse2(Strided a, const float* b, std::size_t ldb, std::size_t rows,
                  std::size_t inner, std::size_t cols, float* out,
                  std::size_t ldo) {
  product<1, I, kSkipZero>(a, b, ldb, rows, inner, cols, out, ldo);
}
template <Into I, bool kSkipZero>
__attribute__((target("avx2"))) void product_avx2(
    Strided a, const float* b, std::size_t ldb, std::size_t rows,
    std::size_t inner, std::size_t cols, float* out, std::size_t ldo) {
  product<2, I, kSkipZero>(a, b, ldb, rows, inner, cols, out, ldo);
}
template <Into I, bool kSkipZero>
__attribute__((target("avx512f"))) void product_avx512(
    Strided a, const float* b, std::size_t ldb, std::size_t rows,
    std::size_t inner, std::size_t cols, float* out, std::size_t ldo) {
  product<4, I, kSkipZero>(a, b, ldb, rows, inner, cols, out, ldo);
}

/// The products at one width; kProducts[lanes / 8].
struct Products {
  ProductFn set_skip_zero;  ///< matmul's forward
  ProductFn set;            ///< matmul_nt's forward
  ProductFn add;            ///< every input gradient
};
constexpr Products kProducts[] = {
    {product_sse2<Into::kSet, true>, product_sse2<Into::kSet, false>,
     product_sse2<Into::kAdd, false>},
    {product_avx2<Into::kSet, true>, product_avx2<Into::kSet, false>,
     product_avx2<Into::kAdd, false>},
    {product_avx512<Into::kSet, true>, product_avx512<Into::kSet, false>,
     product_avx512<Into::kAdd, false>}};

/// 0 while this thread runs at the widest width.
thread_local std::size_t t_lanes_for_testing = 0;

const Products& products() {
  static const std::size_t widest = simd::widest_lanes();
  return kProducts[(t_lanes_for_testing ? t_lanes_for_testing : widest) / 8];
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

}  // namespace

ProductLanesForTesting::ProductLanesForTesting(std::size_t lanes)
    : previous_(t_lanes_for_testing) {
  require((lanes == 4 || lanes == 8 || lanes == 16) && lanes <= simd::widest_lanes(),
          "this CPU has no " + std::to_string(lanes) + "-lane products");
  t_lanes_for_testing = lanes;
}

ProductLanesForTesting::~ProductLanesForTesting() { t_lanes_for_testing = previous_; }

Tensor matmul(const Tensor& a, const Tensor& b) {
  require(a.cols() == b.rows(), "matmul shape mismatch");
  const std::size_t n = a.rows(), k = a.cols(), m = b.cols();
  Impl ia = a.impl(), ib = b.impl();

  Tensor out = make_op_result(n, m, {ia, ib}, [ia, ib, n, k, m](const TensorImpl& self) {
    if (ia->requires_grad) {
      ia->ensure_grad();
      // dA += dY @ B^T
      products().add({self.grad.data(), m, 1},
                     transposed(ib->value.data(), k, m), k, n, m, k,
                     ia->grad.data(), k);
    }
    if (ib->requires_grad) {
      ib->ensure_grad();
      // dB += A^T @ dY
      products().add({ia->value.data(), 1, k}, self.grad.data(), m, k, n, m,
                     ib->grad.data(), m);
    }
  });
  products().set_skip_zero({a.values().data(), k, 1}, b.values().data(), m, n,
                           k, m, out.values().data(), m);
  return out;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  require(a.cols() == b.cols(), "matmul_nt shape mismatch");
  const std::size_t n = a.rows(), k = a.cols(), m = b.rows();
  Impl ia = a.impl(), ib = b.impl();

  Tensor out = make_op_result(n, m, {ia, ib}, [ia, ib, n, k, m](const TensorImpl& self) {
    if (ia->requires_grad) {
      ia->ensure_grad();
      // dA += dY @ B
      products().add({self.grad.data(), m, 1}, ib->value.data(), k, n, m, k,
                     ia->grad.data(), k);
    }
    if (ib->requires_grad) {
      ib->ensure_grad();
      // dB += dY^T @ A
      products().add({self.grad.data(), 1, m}, ia->value.data(), k, m, n, k,
                     ib->grad.data(), k);
    }
  });
  products().set({a.values().data(), k, 1},
                  transposed(b.values().data(), m, k), m, n, k, m,
                  out.values().data(), m);
  return out;
}

Tensor transpose(const Tensor& a) {
  const std::size_t n = a.rows(), m = a.cols();
  Impl ia = a.impl();
  Tensor out = make_op_result(m, n, {ia}, [ia, n, m](const TensorImpl& self) {
    if (!ia->requires_grad) return;
    ia->ensure_grad();
    for (std::size_t r = 0; r < m; ++r)
      for (std::size_t c = 0; c < n; ++c) ia->grad[c * m + r] += self.grad[r * n + c];
  });
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < m; ++c) out.values()[c * n + r] = a.values()[r * m + c];
  return out;
}

namespace {

/// Y = M X over \p m; the tape holds \p held, the same matrix or null when
/// the product is not recorded.
Tensor spmm_impl(const GraphMatrix& m, std::shared_ptr<const GraphMatrix> held,
                 const Tensor& x) {
  require(m.cols == x.rows(), "spmm shape mismatch");
  const std::size_t d = x.cols();
  Impl ix = x.impl();

  Tensor out = make_op_result(m.rows, d, {ix}, [ix, held, d](const TensorImpl& self) {
    if (!ix->requires_grad) return;
    ix->ensure_grad();
    const GraphMatrix& mc = *held;
    for (std::size_t k = 0; k < mc.nnz(); ++k) {
      const std::size_t r = mc.row_index[k], c = mc.col_index[k];
      const float v = mc.values[k];
      for (std::size_t j = 0; j < d; ++j)
        ix->grad[c * d + j] += v * self.grad[r * d + j];
    }
  });

  for (std::size_t k = 0; k < m.nnz(); ++k) {
    const std::size_t r = m.row_index[k], c = m.col_index[k];
    const float v = m.values[k];
    for (std::size_t j = 0; j < d; ++j)
      out.values()[r * d + j] += v * x.values()[c * d + j];
  }
  return out;
}

}  // namespace

Tensor spmm(std::shared_ptr<const GraphMatrix> m, const Tensor& x) {
  require(m != nullptr, "spmm of a null matrix");
  const GraphMatrix& held = *m;
  return spmm_impl(held, std::move(m), x);
}

Tensor spmm(const GraphMatrix& m, const Tensor& x) {
  // Only a recorded product needs the matrix after this call returns.
  const bool recorded = grad_enabled() && x.requires_grad();
  return spmm_impl(m, recorded ? std::make_shared<const GraphMatrix>(m) : nullptr, x);
}

namespace {

/// Shared helper for same-shape binary ops with constant-coefficient backward.
Tensor binary_same_shape(const Tensor& a, const Tensor& b, float ca, float cb) {
  require(a.rows() == b.rows() && a.cols() == b.cols(), "binary shape mismatch");
  Impl ia = a.impl(), ib = b.impl();
  Tensor out =
      make_op_result(a.rows(), a.cols(), {ia, ib}, [ia, ib, ca, cb](const TensorImpl& self) {
        if (ia->requires_grad) {
          ia->ensure_grad();
          scaled<Into::kAdd>(ca, self.grad.data(), ia->grad.data(), self.grad.size());
        }
        if (ib->requires_grad) {
          ib->ensure_grad();
          scaled<Into::kAdd>(cb, self.grad.data(), ib->grad.data(), self.grad.size());
        }
      });
  const float* x = a.values().data();
  const float* y = b.values().data();
  float* o = out.values().data();
  std::size_t i = 0;
  for (; i + 4 <= out.size(); i += 4) {
    v4sf xv{}, yv{};
    load(xv, x + i);
    load(yv, y + i);
    store(o + i, ca * xv + cb * yv);
  }
  for (; i < out.size(); ++i) o[i] = ca * x[i] + cb * y[i];
  return out;
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) { return binary_same_shape(a, b, 1.0f, 1.0f); }
Tensor sub(const Tensor& a, const Tensor& b) { return binary_same_shape(a, b, 1.0f, -1.0f); }

Tensor mul(const Tensor& a, const Tensor& b) {
  require(a.rows() == b.rows() && a.cols() == b.cols(), "mul shape mismatch");
  Impl ia = a.impl(), ib = b.impl();
  Tensor out = make_op_result(a.rows(), a.cols(), {ia, ib}, [ia, ib](const TensorImpl& self) {
    if (ia->requires_grad) {
      ia->ensure_grad();
      for (std::size_t i = 0; i < self.grad.size(); ++i)
        ia->grad[i] += ib->value[i] * self.grad[i];
    }
    if (ib->requires_grad) {
      ib->ensure_grad();
      for (std::size_t i = 0; i < self.grad.size(); ++i)
        ib->grad[i] += ia->value[i] * self.grad[i];
    }
  });
  for (std::size_t i = 0; i < out.size(); ++i)
    out.values()[i] = a.values()[i] * b.values()[i];
  return out;
}

Tensor scale(const Tensor& a, float s) {
  Impl ia = a.impl();
  Tensor out = make_op_result(a.rows(), a.cols(), {ia}, [ia, s](const TensorImpl& self) {
    if (!ia->requires_grad) return;
    ia->ensure_grad();
    scaled<Into::kAdd>(s, self.grad.data(), ia->grad.data(), self.grad.size());
  });
  scaled<Into::kSet>(s, a.values().data(), out.values().data(), out.size());
  return out;
}

Tensor add_row_broadcast(const Tensor& a, const Tensor& bias) {
  require(bias.rows() == 1 && bias.cols() == a.cols(), "bias shape mismatch");
  const std::size_t n = a.rows(), d = a.cols();
  Impl ia = a.impl(), ib = bias.impl();
  Tensor out = make_op_result(n, d, {ia, ib}, [ia, ib, n, d](const TensorImpl& self) {
    if (ia->requires_grad) {
      ia->ensure_grad();
      for (std::size_t i = 0; i < self.grad.size(); ++i) ia->grad[i] += self.grad[i];
    }
    if (ib->requires_grad) {
      ib->ensure_grad();
      for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < d; ++c) ib->grad[c] += self.grad[r * d + c];
    }
  });
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < d; ++c)
      out.values()[r * d + c] = a.values()[r * d + c] + bias.values()[c];
  return out;
}

Tensor outer_sum(const Tensor& s, const Tensor& t) {
  require(s.cols() == 1 && t.cols() == 1, "outer_sum expects column vectors");
  const std::size_t n = s.rows(), m = t.rows();
  Impl is = s.impl(), it = t.impl();
  Tensor out = make_op_result(n, m, {is, it}, [is, it, n, m](const TensorImpl& self) {
    if (is->requires_grad) {
      is->ensure_grad();
      for (std::size_t i = 0; i < n; ++i) {
        float acc = 0.0f;
        for (std::size_t j = 0; j < m; ++j) acc += self.grad[i * m + j];
        is->grad[i] += acc;
      }
    }
    if (it->requires_grad) {
      it->ensure_grad();
      for (std::size_t j = 0; j < m; ++j) {
        float acc = 0.0f;
        for (std::size_t i = 0; i < n; ++i) acc += self.grad[i * m + j];
        it->grad[j] += acc;
      }
    }
  });
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < m; ++j)
      out.values()[i * m + j] = s.values()[i] + t.values()[j];
  return out;
}

namespace {

/// Unary elementwise op: forward f, backward df given (input value, output
/// value); four lanes at a time where f and df also take v4sf lanes.
template <typename F, typename DF>
Tensor unary(const Tensor& a, F f, DF df) {
  Impl ia = a.impl();
  Tensor out = make_op_result(a.rows(), a.cols(), {ia}, [ia, df](const TensorImpl& self) {
    if (!ia->requires_grad) return;
    ia->ensure_grad();
    const float* x = ia->value.data();
    const float* y = self.value.data();
    const float* g = self.grad.data();
    float* dx = ia->grad.data();
    std::size_t i = 0;
    if constexpr (std::is_invocable_v<DF, v4sf, v4sf>)
      for (; i + 4 <= self.grad.size(); i += 4) {
        v4sf xv{}, yv{}, gv{}, dv{};
        load(xv, x + i);
        load(yv, y + i);
        load(gv, g + i);
        load(dv, dx + i);
        store(dx + i, dv + df(xv, yv) * gv);
      }
    for (; i < self.grad.size(); ++i) dx[i] += df(x[i], y[i]) * g[i];
  });
  const float* x = a.values().data();
  float* y = out.values().data();
  std::size_t i = 0;
  if constexpr (std::is_invocable_v<F, v4sf>)
    for (; i + 4 <= out.size(); i += 4) {
      v4sf xv{};
      load(xv, x + i);
      store(y + i, f(xv));
    }
  for (; i < out.size(); ++i) y[i] = f(x[i]);
  return out;
}

}  // namespace

// relu and leaky_relu take a float or four lanes of them.
Tensor relu(const Tensor& a) {
  return unary(
      a, [](auto x) { return x > 0.0f ? x : decltype(x){}; },
      [](auto x, auto) { return x > 0.0f ? decltype(x){} + 1.0f : decltype(x){}; });
}

Tensor leaky_relu(const Tensor& a, float negative_slope) {
  return unary(
      a, [negative_slope](auto x) { return x > 0.0f ? x : negative_slope * x; },
      [negative_slope](auto x, auto) {
        return x > 0.0f ? decltype(x){} + 1.0f : decltype(x){} + negative_slope;
      });
}

Tensor sigmoid(const Tensor& a) {
  return unary(
      a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
      [](float, float y) { return y * (1.0f - y); });
}

Tensor tanh_op(const Tensor& a) {
  return unary(
      a, [](float x) { return std::tanh(x); },
      [](float, float y) { return 1.0f - y * y; });
}

namespace {

/// lanes[l] := keep[l] ? lanes[l] : fallback[l], keep a byte mask.
[[gnu::always_inline]] inline v4sf keep_where(const std::uint8_t* keep, v4sf lanes,
                                              v4sf fallback) {
  typedef std::int32_t v4si __attribute__((vector_size(16)));
  const v4si k = {keep[0], keep[1], keep[2], keep[3]};
  return k != 0 ? lanes : fallback;
}

Tensor softmax_impl(const Tensor& a, const std::vector<std::uint8_t>* mask) {
  const std::size_t n = a.rows(), m = a.cols();
  if (mask) require(mask->size() == n * m, "mask size mismatch");
  Impl ia = a.impl();
  std::vector<std::uint8_t> mask_copy = mask ? *mask : std::vector<std::uint8_t>{};

  Tensor out =
      make_op_result(n, m, {ia}, [ia, n, m, mask_copy](const TensorImpl& self) {
        if (!ia->requires_grad) return;
        ia->ensure_grad();
        const std::uint8_t* keep = mask_copy.empty() ? nullptr : mask_copy.data();
        // dx = y * (dy - dot) with dot = sum over ascending c of dy * y; four
        // rows' dots at once, so their sums do not wait on one another.
        std::size_t r = 0;
        for (; r < n; r += 4) {
          const std::size_t rows = std::min<std::size_t>(4, n - r);
          float dot[4] = {};
          for (std::size_t c = 0; c < m; ++c)
#pragma GCC unroll 4
            for (std::size_t i = 0; i < 4; ++i)
              if (i < rows)
                dot[i] += self.grad[(r + i) * m + c] * self.value[(r + i) * m + c];
          for (std::size_t i = 0; i < rows; ++i) {
            const std::size_t at = (r + i) * m;
            const float* y = self.value.data() + at;
            const float* dy = self.grad.data() + at;
            float* dx = ia->grad.data() + at;
            const std::uint8_t* k = keep ? keep + at : nullptr;
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
      });

  for (std::size_t r = 0; r < n; ++r) {
    const float* x = a.values().data() + r * m;
    float* y = out.values().data() + r * m;
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
    if (!any) continue;  // fully masked row stays zero
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
  return out;
}

}  // namespace

Tensor softmax_rows(const Tensor& a) { return softmax_impl(a, nullptr); }

Tensor masked_softmax_rows(const Tensor& a, const std::vector<std::uint8_t>& mask) {
  return softmax_impl(a, &mask);
}

Tensor concat_cols(const std::vector<Tensor>& parts) {
  require(!parts.empty(), "concat_cols: empty input");
  const std::size_t n = parts.front().rows();
  std::size_t total = 0;
  std::vector<Impl> impls;
  for (const Tensor& p : parts) {
    require(p.rows() == n, "concat_cols row mismatch");
    total += p.cols();
    impls.push_back(p.impl());
  }

  Tensor out = make_op_result(n, total, {impls}, [impls, n, total](const TensorImpl& self) {
    std::size_t offset = 0;
    for (const Impl& p : impls) {
      const std::size_t d = p->cols;
      if (p->requires_grad) {
        p->ensure_grad();
        for (std::size_t r = 0; r < n; ++r)
          for (std::size_t c = 0; c < d; ++c)
            p->grad[r * d + c] += self.grad[r * total + offset + c];
      }
      offset += d;
    }
  });

  std::size_t offset = 0;
  for (const Tensor& p : parts) {
    const std::size_t d = p.cols();
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < d; ++c)
        out.values()[r * total + offset + c] = p.values()[r * d + c];
    offset += d;
  }
  return out;
}

Tensor gather_rows(const Tensor& a, const std::vector<std::uint32_t>& indices) {
  const std::size_t d = a.cols();
  for (std::uint32_t idx : indices)
    require(idx < a.rows(), "gather_rows index out of range");
  Impl ia = a.impl();
  std::vector<std::uint32_t> idx_copy = indices;

  Tensor out =
      make_op_result(indices.size(), d, {ia}, [ia, idx_copy, d](const TensorImpl& self) {
        if (!ia->requires_grad) return;
        ia->ensure_grad();
        for (std::size_t r = 0; r < idx_copy.size(); ++r)
          for (std::size_t c = 0; c < d; ++c)
            ia->grad[idx_copy[r] * d + c] += self.grad[r * d + c];
      });
  for (std::size_t r = 0; r < indices.size(); ++r)
    for (std::size_t c = 0; c < d; ++c)
      out.values()[r * d + c] = a.values()[indices[r] * d + c];
  return out;
}

Tensor sum_all(const Tensor& a) {
  Impl ia = a.impl();
  Tensor out = make_op_result(1, 1, {ia}, [ia](const TensorImpl& self) {
    if (!ia->requires_grad) return;
    ia->ensure_grad();
    for (float& g : ia->grad) g += self.grad[0];
  });
  float acc = 0.0f;
  for (float v : a.values()) acc += v;
  out.values()[0] = acc;
  return out;
}

Tensor mean_all(const Tensor& a) {
  return scale(sum_all(a), 1.0f / static_cast<float>(a.size()));
}

Tensor mse_loss(const Tensor& pred, const Tensor& target) {
  require(pred.rows() == target.rows() && pred.cols() == target.cols(),
          "mse_loss shape mismatch");
  const float inv_n = 1.0f / static_cast<float>(pred.size());
  Impl ip = pred.impl(), it = target.impl();
  Tensor out = make_op_result(1, 1, {ip}, [ip, it, inv_n](const TensorImpl& self) {
    if (!ip->requires_grad) return;
    ip->ensure_grad();
    for (std::size_t i = 0; i < ip->grad.size(); ++i)
      ip->grad[i] += 2.0f * inv_n * (ip->value[i] - it->value[i]) * self.grad[0];
  });
  float acc = 0.0f;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const float d = pred.values()[i] - target.values()[i];
    acc += d * d;
  }
  out.values()[0] = acc * inv_n;
  return out;
}

}  // namespace gnntrans::tensor
