#include "nn/plan.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>

#include "core/telemetry/trace.hpp"
#include "nn/guard.hpp"
#include "nn/models.hpp"

namespace gnntrans::nn {

namespace {

// ---- 4-wide lanes (GCC/Clang vector extensions, SSE2 width) ----

typedef float v4sf __attribute__((vector_size(16)));
typedef std::int32_t v4si __attribute__((vector_size(16)));

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

inline v4sf splat(float v) { return v4sf{v, v, v, v}; }

// Unaligned loads/stores: correctness never depends on buffer alignment.
inline v4sf load4(const float* p) {
  v4sf v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
inline void store4(float* p, v4sf v) { std::memcpy(p, &v, sizeof(v)); }

inline v4sf max4(v4sf a, v4sf b) { return a > b ? a : b; }
inline v4sf relu4(v4sf v) { return v > 0.0f ? v : splat(0.0f); }
inline float hmax(v4sf v) {
  return std::max(std::max(v[0], v[1]), std::max(v[2], v[3]));
}
inline float hsum(v4sf v) { return (v[0] + v[1]) + (v[2] + v[3]); }

/// e^x for x <= 0 (a score minus its row maximum), Cephes expf: round
/// x / ln 2 to n, reduce with a two-part ln 2, a degree-6 polynomial on
/// [-ln2/2, ln2/2], then scale by 2^n built in the exponent bits. Inputs
/// below ln(FLT_MIN), the -inf row padding included, give exactly 0; NaN
/// stays NaN so the finite guard still sees it.
inline v4sf exp4(v4sf x) {
  const v4sf lo = splat(-87.33654f);
  const v4si tiny = x < lo;
  x = tiny ? lo : x;
  const v4sf magic = splat(12582912.0f);  // 1.5 * 2^23: rounds to an integer
  const v4sf t = x * 1.44269504088896341f + magic;
  const v4sf n = t - magic;
  v4sf r = x - n * 0.693359375f;
  r = r - n * -2.12194440e-4f;
  v4sf y = splat(1.9875691500e-4f);
  y = y * r + 1.3981999507e-3f;
  y = y * r + 8.3334519073e-3f;
  y = y * r + 4.1665795894e-2f;
  y = y * r + 1.6666665459e-1f;
  y = y * r + 5.0000001201e-1f;
  y = y * (r * r) + r + 1.0f;
  const v4si pow2n = ((v4si)t - (v4si)magic + 127) << 23;
  return tiny ? splat(0.0f) : y * (v4sf)pow2n;
}

// ---- Dense products ----

/// What a dense product does with its accumulator when it stores it.
enum class Store {
  kSet,      ///< out = acc
  kAdd,      ///< out = out + acc (residual)
  kAddRelu,  ///< out = relu(out + acc)
  kBias,     ///< out = acc + bias
  kBiasRelu  ///< out = relu(acc + bias)
};

template <Store S>
inline v4sf finish4(v4sf acc, const float* out, const float* bias) {
  if constexpr (S == Store::kSet) return acc;
  if constexpr (S == Store::kAdd) return load4(out) + acc;
  if constexpr (S == Store::kAddRelu) return relu4(load4(out) + acc);
  if constexpr (S == Store::kBias) return acc + load4(bias);
  if constexpr (S == Store::kBiasRelu) return relu4(acc + load4(bias));
}

template <Store S>
inline float finish1(float acc, float out, float bias) {
  const auto relu = [](float v) { return v > 0.0f ? v : 0.0f; };
  if constexpr (S == Store::kSet) return acc;
  if constexpr (S == Store::kAdd) return out + acc;
  if constexpr (S == Store::kAddRelu) return relu(out + acc);
  if constexpr (S == Store::kBias) return acc + bias;
  if constexpr (S == Store::kBiasRelu) return relu(acc + bias);
}

/// out[r, :] (stride ldo) = store(a[r, 0:w.in] (stride lda) @ w.weight).
/// Each output sums a[r, c] * w[c, j] over ascending c from zero, as
/// tensor::matmul does, so the values are the autograd ones (tensor::matmul
/// also skips zero inputs, which can change only the sign of an exact zero).
/// Columns are blocked 16, then 4, then 1 wide.
template <Store S>
void dense(const float* a, std::size_t lda, std::size_t rows,
           const GnnTransPlan::Dense& w, float* out, std::size_t ldo) {
  const std::size_t k = w.in, m = w.out;
  const float* wt = w.weight.data();
  const float* bias = w.bias.data();
  const auto bias_at = [bias](std::size_t j) {
    return S == Store::kBias || S == Store::kBiasRelu ? bias + j : nullptr;
  };
  for (std::size_t r = 0; r < rows; ++r) {
    const float* arow = a + r * lda;
    float* orow = out + r * ldo;
    std::size_t j = 0;
    for (; j + 16 <= m; j += 16) {
      v4sf c0{}, c1{}, c2{}, c3{};
      for (std::size_t c = 0; c < k; ++c) {
        const v4sf s = splat(arow[c]);
        const float* wr = wt + c * m + j;
        c0 += s * load4(wr);
        c1 += s * load4(wr + 4);
        c2 += s * load4(wr + 8);
        c3 += s * load4(wr + 12);
      }
      store4(orow + j, finish4<S>(c0, orow + j, bias_at(j)));
      store4(orow + j + 4, finish4<S>(c1, orow + j + 4, bias_at(j + 4)));
      store4(orow + j + 8, finish4<S>(c2, orow + j + 8, bias_at(j + 8)));
      store4(orow + j + 12, finish4<S>(c3, orow + j + 12, bias_at(j + 12)));
    }
    for (; j + 4 <= m; j += 4) {
      v4sf c0{};
      for (std::size_t c = 0; c < k; ++c) {
        c0 += splat(arow[c]) * load4(wt + c * m + j);
      }
      store4(orow + j, finish4<S>(c0, orow + j, bias_at(j)));
    }
    for (; j < m; ++j) {
      float acc = 0.0f;
      for (std::size_t c = 0; c < k; ++c) {
        acc += arow[c] * wt[c * m + j];
      }
      const float* b = bias_at(j);
      orow[j] = finish1<S>(acc, orow[j], b ? *b : 0.0f);
    }
  }
}

/// out[r, 0:d] (stride ldo) = sum over m's entries (r, c, v) of v * x[c, :],
/// in entry order as tensor::spmm.
void sparse(const tensor::GraphMatrix& m, const float* x, std::size_t d,
            float* out, std::size_t ldo) {
  for (std::size_t r = 0; r < m.rows; ++r)
    std::fill_n(out + r * ldo, d, 0.0f);
  for (std::size_t e = 0; e < m.nnz(); ++e) {
    const float v = m.values[e];
    const float* xr = x + static_cast<std::size_t>(m.col_index[e]) * d;
    float* orow = out + static_cast<std::size_t>(m.row_index[e]) * ldo;
    for (std::size_t j = 0; j < d; ++j) orow[j] += v * xr[j];
  }
}

constexpr std::size_t round_up(std::size_t n, std::size_t to) {
  return (n + to - 1) / to * to;
}

/// One head of one attention layer, its keys and values already transposed.
struct AttentionHead {
  const float* q;  ///< row r's query at q[r * ldq], dk wide
  std::size_t ldq;
  const float* kt;  ///< [dk, round_up(n, 4)] keys, zero padded
  const float* vt;  ///< [dk, round_up(n, 4)] values, zero padded
  std::size_t n;    ///< nodes
  std::size_t dk;
  float scale;  ///< 1 / sqrt(dk)
  float* row;   ///< round_up(n, 4) floats of working space
  float* out;   ///< row r's head output at out[r * ldo], dk wide
  std::size_t ldo;
};

/// softmax(q k^T * scale) v for every query row of one head.
void attend(const AttentionHead& a) {
  // Locals, so stores through row cannot force reloads of the fields.
  const std::size_t n = a.n, np = round_up(n, 4), dk = a.dk;
  const float* kt = a.kt;
  const float* vt = a.vt;
  const float scale = a.scale;
  float* row = a.row;
  // Lanes of the last 4-block that hold real nodes; the rest is padding.
  v4si tail_valid{};
  for (int l = 0; l < 4; ++l)
    tail_valid[l] = np - 4 + static_cast<std::size_t>(l) < n ? -1 : 0;
  for (std::size_t r = 0; r < n; ++r) {
    const float* q = a.q + r * a.ldq;
    // Scores, one key dimension per pass in ascending order as
    // tensor::matmul_nt sums them; the last pass scales, masks the padding
    // to -inf and takes the row maximum.
    v4sf mx = splat(kNegInf);
    for (std::size_t c = 0; c < dk; ++c) {
      const v4sf qc = splat(q[c]);
      const float* kc = kt + c * np;
      const bool first = c == 0, last = c + 1 == dk;
      for (std::size_t j = 0; j < np; j += 4) {
        v4sf s = qc * load4(kc + j);
        if (!first) s = load4(row + j) + s;
        if (last) {
          s *= scale;
          if (j + 4 > n) s = tail_valid ? s : splat(kNegInf);
          mx = max4(mx, s);
        }
        store4(row + j, s);
      }
    }
    const v4sf row_max = splat(hmax(mx));
    v4sf sum{};
    for (std::size_t j = 0; j < np; j += 4) {
      const v4sf e = exp4(load4(row + j) - row_max);
      store4(row + j, e);
      sum += e;
    }
    // Softmax normalisation folded into the head output: one reciprocal and
    // dk multiplies instead of np divides. Values four dimensions per pass.
    const float inv = 1.0f / hsum(sum);
    float* out = a.out + r * a.ldo;
    std::size_t c = 0;
    for (; c + 4 <= dk; c += 4) {
      const float* v0 = vt + c * np;
      v4sf c0{}, c1{}, c2{}, c3{};
      for (std::size_t j = 0; j < np; j += 4) {
        const v4sf e = load4(row + j);
        c0 += e * load4(v0 + j);
        c1 += e * load4(v0 + np + j);
        c2 += e * load4(v0 + 2 * np + j);
        c3 += e * load4(v0 + 3 * np + j);
      }
      out[c] = hsum(c0) * inv;
      out[c + 1] = hsum(c1) * inv;
      out[c + 2] = hsum(c2) * inv;
      out[c + 3] = hsum(c3) * inv;
    }
    for (; c < dk; ++c) {
      v4sf acc{};
      for (std::size_t j = 0; j < np; j += 4)
        acc += load4(row + j) * load4(vt + c * np + j);
      out[c] = hsum(acc) * inv;
    }
  }
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

std::unique_ptr<GnnTransPlan> GnnTransPlan::compile(const WireModel& model) {
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
  return plan;
}

WirePrediction GnnTransPlan::run(const GraphSample& sample,
                                 Workspace& workspace) const {
  const tensor::GraphMatrix& agg =
      use_edge_weights_ ? sample.weighted_adj : sample.mean_adj;
  require(sample.x.defined() && sample.x.cols() == node_dim_,
          "node feature width mismatch");
  const std::size_t n = sample.x.rows();
  const std::size_t p = sample.path_pool.rows;
  check_matrix(agg, n, n, "aggregation matrix does not match the net");
  check_matrix(sample.path_pool, p, n,
               "path pooling matrix does not match the net");
  if (path_dim_ > 0)
    require(sample.h.defined() && sample.h.rows() == p &&
                sample.h.cols() == path_dim_,
            "path feature shape mismatch");
  guard_finite(sample.x, "input");

  // Slab layout: every buffer starts on a 16-float boundary. Sizes depend
  // only on (n, p), so a warm workspace never grows for a net it has seen.
  const std::size_t d = hidden_, dk = head_dim_, ld3 = 3 * d;
  const std::size_t np = round_up(n, 4);  // score rows, padded with -inf
  const std::size_t repr = d + path_dim_;
  const std::size_t repr_ld = repr + (cascade_ ? 1u : 0u);
  const std::size_t mlp = slew_head_.front().out;
  std::size_t total = 0;
  const auto carve = [&total](std::size_t floats) {
    const std::size_t at = total;
    total += round_up(floats, 16);
    return at;
  };
  const std::size_t at_act0 = carve(n * d), at_act1 = carve(n * d),
                    at_agg = carve(n * std::max(node_dim_, d)),
                    at_qkv = carve(n * ld3), at_kt = carve(dk * np),
                    at_vt = carve(dk * np), at_row = carve(np),
                    at_cat = carve(n * d), at_repr = carve(p * repr_ld),
                    at_hid0 = carve(p * mlp), at_hid1 = carve(p * mlp);
  float* slab = workspace.acquire(total);
  float* act[2] = {slab + at_act0, slab + at_act1};
  float* aggx = slab + at_agg;

  // Eq. (1): x' = ReLU(x W1 + (A x) W2), ping-ponging between two buffers.
  float* x = nullptr;
  {
    const telemetry::TraceSpan span("gnn_forward", "model");
    const float* in = sample.x.values().data();
    std::size_t width = node_dim_;
    for (std::size_t l = 0; l < sage_self_.size(); ++l) {
      x = act[l % 2];
      sparse(agg, in, width, aggx, width);
      dense<Store::kSet>(in, width, n, sage_self_[l], x, d);
      dense<Store::kAddRelu>(aggx, width, n, sage_neigh_[l], x, d);
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
    for (std::size_t l = 0; l < qkv_.size(); ++l) {
      dense<Store::kSet>(x, d, n, qkv_[l], qkv, ld3);
      for (std::size_t h = 0; h < heads_; ++h) {
        // K and V of this head, transposed to [dk, np] with zero padding.
        for (std::size_t c = 0; c < dk; ++c) {
          float* kc = kt + c * np;
          float* vc = vt + c * np;
          for (std::size_t j = 0; j < n; ++j) {
            kc[j] = qkv[j * ld3 + d + h * dk + c];
            vc[j] = qkv[j * ld3 + 2 * d + h * dk + c];
          }
          std::fill(kc + n, kc + np, 0.0f);
          std::fill(vc + n, vc + np, 0.0f);
        }
        attend({qkv + h * dk, ld3, kt, vt, n, dk, inv_sqrt_dk_, row,
                cat + h * dk, d});
      }
      dense<Store::kAdd>(cat, d, n, w3_[l], x, d);  // residual
    }
    guard_finite({x, n * d}, d, "attention");
  }

  // Eq. (4-6): pool per path, concat path features, slew head, then the
  // delay head over [repr | slew] when cascaded.
  const telemetry::TraceSpan span("heads", "model");
  float* repr_buf = slab + at_repr;
  float* hid[2] = {slab + at_hid0, slab + at_hid1};
  sparse(sample.path_pool, x, d, repr_buf, repr_ld);
  for (std::size_t q = 0; q < p; ++q)
    for (std::size_t j = 0; j < path_dim_; ++j)
      repr_buf[q * repr_ld + d + j] = sample.h(q, j);
  const auto mlp_forward = [&](const std::vector<Dense>& layers,
                               tensor::Tensor& result) {
    const float* in = repr_buf;
    std::size_t ld = repr_ld;
    for (std::size_t l = 0; l + 1 < layers.size(); ++l) {
      dense<Store::kBiasRelu>(in, ld, p, layers[l], hid[l % 2], layers[l].out);
      in = hid[l % 2];
      ld = layers[l].out;
    }
    result = tensor::Tensor(p, 1);
    dense<Store::kBias>(in, ld, p, layers.back(), result.values().data(), 1);
  };
  WirePrediction pred;
  mlp_forward(slew_head_, pred.slew);
  if (cascade_)
    for (std::size_t q = 0; q < p; ++q)
      repr_buf[q * repr_ld + repr] = pred.slew(q, 0);
  mlp_forward(delay_head_, pred.delay);
  return pred;
}

}  // namespace gnntrans::nn
