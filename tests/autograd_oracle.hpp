// Scalar reference for the autograd's vector kernels (tensor/ops.cpp,
// tensor/optim.cpp): the loops those ops ran before they were register
// blocked, over plain row-major arrays, and the per-head chain of them that
// multi_head_attention replaced. Every sum starts at zero, runs in
// ascending index order and is added to a gradient once, so a kernel that
// keeps that arithmetic matches these bit for bit. Test-only; the file that
// includes it must be built with -ffp-contract=off.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace autograd_oracle {

using Floats = std::vector<float>;

/// [n, m] = a [n, k] @ b [k, m]; zero entries of a are skipped.
inline Floats matmul(const Floats& a, const Floats& b, std::size_t n,
                     std::size_t k, std::size_t m) {
  Floats out(n * m, 0.0f);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < k; ++c) {
      const float av = a[r * k + c];
      if (av == 0.0f) continue;
      for (std::size_t j = 0; j < m; ++j) out[r * m + j] += av * b[c * m + j];
    }
  return out;
}

/// da += dy @ b^T and db += a^T @ dy for matmul's output gradient dy.
inline void matmul_backward(const Floats& a, const Floats& b, const Floats& dy,
                            std::size_t n, std::size_t k, std::size_t m,
                            Floats& da, Floats& db) {
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < k; ++c) {
      float acc = 0.0f;
      for (std::size_t j = 0; j < m; ++j) acc += dy[r * m + j] * b[c * m + j];
      da[r * k + c] += acc;
    }
  for (std::size_t r = 0; r < k; ++r)
    for (std::size_t j = 0; j < m; ++j) {
      float acc = 0.0f;
      for (std::size_t i = 0; i < n; ++i) acc += a[i * k + r] * dy[i * m + j];
      db[r * m + j] += acc;
    }
}

/// [n, m] = a [n, k] @ b [m, k]^T.
inline Floats matmul_nt(const Floats& a, const Floats& b, std::size_t n,
                        std::size_t k, std::size_t m) {
  Floats out(n * m, 0.0f);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t j = 0; j < m; ++j) {
      float acc = 0.0f;
      for (std::size_t c = 0; c < k; ++c) acc += a[r * k + c] * b[j * k + c];
      out[r * m + j] = acc;
    }
  return out;
}

/// da += dy @ b and db += dy^T @ a for matmul_nt's output gradient dy.
inline void matmul_nt_backward(const Floats& a, const Floats& b,
                               const Floats& dy, std::size_t n, std::size_t k,
                               std::size_t m, Floats& da, Floats& db) {
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < k; ++c) {
      float acc = 0.0f;
      for (std::size_t j = 0; j < m; ++j) acc += dy[r * m + j] * b[j * k + c];
      da[r * k + c] += acc;
    }
  for (std::size_t j = 0; j < m; ++j)
    for (std::size_t c = 0; c < k; ++c) {
      float acc = 0.0f;
      for (std::size_t r = 0; r < n; ++r) acc += dy[r * m + j] * a[r * k + c];
      db[j * k + c] += acc;
    }
}

/// Row softmax of x [n, m] over the entries mask keeps (all when empty);
/// masked entries and fully masked rows are 0.
inline Floats softmax(const Floats& x, std::size_t n, std::size_t m,
                      const std::vector<std::uint8_t>& mask) {
  Floats y(n * m, 0.0f);
  for (std::size_t r = 0; r < n; ++r) {
    const float* xr = x.data() + r * m;
    float* yr = y.data() + r * m;
    float max_v = -std::numeric_limits<float>::infinity();
    bool any = false;
    for (std::size_t c = 0; c < m; ++c) {
      if (!mask.empty() && !mask[r * m + c]) continue;
      max_v = std::max(max_v, xr[c]);
      any = true;
    }
    if (!any) continue;
    float denom = 0.0f;
    for (std::size_t c = 0; c < m; ++c) {
      if (!mask.empty() && !mask[r * m + c]) {
        yr[c] = 0.0f;
        continue;
      }
      yr[c] = std::exp(xr[c] - max_v);
      denom += yr[c];
    }
    for (std::size_t c = 0; c < m; ++c) yr[c] /= denom;
  }
  return y;
}

/// dx += y * (dy - dot(dy, y)) per row, on the kept entries only.
inline void softmax_backward(const Floats& y, const Floats& dy, std::size_t n,
                             std::size_t m,
                             const std::vector<std::uint8_t>& mask,
                             Floats& dx) {
  for (std::size_t r = 0; r < n; ++r) {
    float dot = 0.0f;
    for (std::size_t c = 0; c < m; ++c) dot += dy[r * m + c] * y[r * m + c];
    for (std::size_t c = 0; c < m; ++c) {
      if (!mask.empty() && !mask[r * m + c]) continue;
      dx[r * m + c] += y[r * m + c] * (dy[r * m + c] - dot);
    }
  }
}

/// [n, m] = s * a.
inline Floats scale(const Floats& a, float s) {
  Floats out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = s * a[i];
  return out;
}

/// da += s * dy.
inline void scale_backward(const Floats& dy, float s, Floats& da) {
  for (std::size_t i = 0; i < dy.size(); ++i) da[i] += s * dy[i];
}

/// ca * a + cb * b: add is (1, 1), sub (1, -1); the backward of each input
/// is scale_backward with its coefficient.
inline Floats combine(const Floats& a, const Floats& b, float ca, float cb) {
  Floats out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = ca * a[i] + cb * b[i];
  return out;
}

/// relu (when \p relu) or leaky_relu of x, and dx += f'(x) * dy.
inline Floats leaky_relu(const Floats& x, float negative_slope, bool relu) {
  Floats y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    y[i] = x[i] > 0.0f ? x[i] : relu ? 0.0f : negative_slope * x[i];
  return y;
}
inline void leaky_relu_backward(const Floats& x, float negative_slope, bool relu,
                                const Floats& dy, Floats& dx) {
  for (std::size_t i = 0; i < x.size(); ++i)
    dx[i] += (x[i] > 0.0f ? 1.0f : relu ? 0.0f : negative_slope) * dy[i];
}

/// A multi-head attention: x [n, d]; weights holds wq, wk and wv of each
/// head in turn, [d, dk] each; mask empty or [n, n]; rows ascending, every
/// row when empty.
struct Attention {
  std::size_t n, d, heads, dk;
  float scale;
  std::vector<std::uint8_t> mask;
  std::vector<std::uint32_t> rows;
  Floats x;
  std::vector<Floats> weights;
};

/// Rows \p rows of m (cols wide).
inline Floats gather(const Floats& m, std::size_t cols,
                     const std::vector<std::uint32_t>& rows) {
  Floats out;
  for (const std::uint32_t r : rows)
    out.insert(out.end(), m.begin() + r * cols, m.begin() + (r + 1) * cols);
  return out;
}

/// One head of the per-head chain, on the query rows R only: q = x_R wq,
/// k = x wk, v = x wv, attn = softmax(scale * q k^T) under the mask's rows R,
/// o = attn v.
struct AttentionHead {
  std::vector<std::uint32_t> rows;
  Floats xr, q, k, v, attn, o;
  std::vector<std::uint8_t> mask;

  AttentionHead(const Attention& a, std::size_t h) {
    const std::size_t n = a.n, d = a.d, dk = a.dk;
    rows = a.rows;
    if (rows.empty())
      for (std::uint32_t r = 0; r < n; ++r) rows.push_back(r);
    const std::size_t nr = rows.size();
    xr = gather(a.x, d, rows);
    q = matmul(xr, a.weights[3 * h], nr, d, dk);
    k = matmul(a.x, a.weights[3 * h + 1], n, d, dk);
    v = matmul(a.x, a.weights[3 * h + 2], n, d, dk);
    if (!a.mask.empty()) mask = gather_mask(a.mask, n, rows);
    attn = softmax(scale(matmul_nt(q, k, nr, dk, n), a.scale), nr, n, mask);
    o = matmul(attn, v, nr, n, dk);
  }

  static std::vector<std::uint8_t> gather_mask(const std::vector<std::uint8_t>& m,
                                               std::size_t n,
                                               const std::vector<std::uint32_t>& rows) {
    std::vector<std::uint8_t> out;
    for (const std::uint32_t r : rows)
      out.insert(out.end(), m.begin() + r * n, m.begin() + (r + 1) * n);
    return out;
  }
};

/// The heads' outputs side by side, [n, heads * dk]; rows outside a.rows 0.
inline Floats attention(const Attention& a) {
  const std::size_t hd = a.heads * a.dk;
  Floats out(a.n * hd, 0.0f);
  for (std::size_t h = 0; h < a.heads; ++h) {
    const AttentionHead head(a, h);
    for (std::size_t i = 0; i < head.rows.size(); ++i)
      for (std::size_t j = 0; j < a.dk; ++j)
        out[head.rows[i] * hd + h * a.dk + j] = head.o[i * a.dk + j];
  }
  return out;
}

/// The per-head chain's backward for the output gradient dy (read on a.rows
/// only), adding into dx and dw[i] (weights[i]'s gradient) as its tape did:
/// the heads from the last, each through the concat, attn @ v, the softmax,
/// the scale and q k^T, then x's terms from v, k and q in that order.
inline void attention_backward(const Attention& a, const Floats& dy, Floats& dx,
                               std::vector<Floats>& dw) {
  const std::size_t n = a.n, d = a.d, dk = a.dk, hd = a.heads * dk;
  for (std::size_t h = a.heads; h-- > 0;) {
    const AttentionHead head(a, h);
    const std::size_t nr = head.rows.size();
    Floats d_o(nr * dk, 0.0f);
    for (std::size_t i = 0; i < nr; ++i)
      for (std::size_t j = 0; j < dk; ++j)
        d_o[i * dk + j] += dy[head.rows[i] * hd + h * dk + j];
    Floats d_attn(nr * n, 0.0f), dv(n * dk, 0.0f);
    matmul_backward(head.attn, head.v, d_o, nr, n, dk, d_attn, dv);
    Floats d_scaled(nr * n, 0.0f), d_scores(nr * n, 0.0f);
    softmax_backward(head.attn, d_attn, nr, n, head.mask, d_scaled);
    scale_backward(d_scaled, a.scale, d_scores);
    Floats dq(nr * dk, 0.0f), dkey(n * dk, 0.0f);
    matmul_nt_backward(head.q, head.k, d_scores, nr, dk, n, dq, dkey);
    matmul_backward(a.x, a.weights[3 * h + 2], dv, n, d, dk, dx, dw[3 * h + 2]);
    matmul_backward(a.x, a.weights[3 * h + 1], dkey, n, d, dk, dx, dw[3 * h + 1]);
    Floats dxr = gather(dx, d, head.rows);
    matmul_backward(head.xr, a.weights[3 * h], dq, nr, d, dk, dxr, dw[3 * h]);
    for (std::size_t i = 0; i < nr; ++i)
      std::copy_n(dxr.begin() + i * d, d, dx.begin() + head.rows[i] * d);
  }
}

struct AdamConfig {
  float learning_rate, beta1, beta2, epsilon, weight_decay;
};

/// One Adam update of values from grads, the moments m and v, at step
/// number \p step (from 1).
inline void adam_step(Floats& values, const Floats& grads, Floats& m, Floats& v,
                      const AdamConfig& config, long step) {
  const float bc1 = 1.0f - std::pow(config.beta1, static_cast<float>(step));
  const float bc2 = 1.0f - std::pow(config.beta2, static_cast<float>(step));
  for (std::size_t j = 0; j < values.size(); ++j) {
    const float g = grads[j];
    if (config.weight_decay > 0.0f)
      values[j] -= config.learning_rate * config.weight_decay * values[j];
    m[j] = config.beta1 * m[j] + (1.0f - config.beta1) * g;
    v[j] = config.beta2 * v[j] + (1.0f - config.beta2) * g * g;
    const float m_hat = m[j] / bc1;
    const float v_hat = v[j] / bc2;
    values[j] -= config.learning_rate * m_hat / (std::sqrt(v_hat) + config.epsilon);
  }
}

}  // namespace autograd_oracle
