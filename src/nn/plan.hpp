/// \file plan.hpp
/// Compiled, tape-free inference plan for the served GNNTrans model.
///
/// The autograd forward pass (models.cpp) builds a tape node per op: a
/// shared_ptr, a std::function and a fresh value buffer each, plus a copy of
/// every GraphMatrix it multiplies by. Serving never differentiates, so the
/// plan replaces all of that with flat weight copies taken once at model load
/// and hand-written kernels that run on one per-worker slab (nn::Workspace):
///   - Sage layers (Eq. 1) and the MLP heads (Eq. 5-6) are register-blocked
///     dense products, four rows per pass, with the bias, residual or ReLU
///     fused into the store; the neighbour aggregation and the path pooling
///     add each matrix entry's scaled row in entry order;
///   - each attention layer (Eq. 2-3) computes every head's Q, K and V in one
///     product against a fused [d, 3d] weight. One kernel then serves W heads
///     side by side, one 4-lane group per head, with K and V transposed to
///     [dk][n/4][W][4]. Per query row, a score pass (ascending dimensions,
///     scale, -inf row padding, running max) is followed by one fused pass
///     that evaluates exp(score - max) with a range-reduced polynomial, adds
///     it to the row sum and accumulates e * V; the max and the sum reduce
///     per group, and one reciprocal per group is folded into the head output.
///
/// Width: compile() picks the width W once per process from the CPU: 16 float
/// lanes with AVX-512F (W = 4), 8 with AVX2 (W = 2), else 4 (SSE2, W = 1).
/// run() makes one call per net into each of embed and heads built for that
/// width, in which the dense products and the aggregation take 4W columns
/// per vector and the attention kernel serves W heads per group; heads that
/// do not fill a group go to narrower ones. Every lane does the arithmetic of the 4-wide
/// kernels and plan.cpp is built with -ffp-contract=off, so no width fuses a
/// multiply-add and every width gives the same bits: a host changes how fast
/// a model is served, never what it outputs.
///
/// Rows: the heads read node embeddings only through Eq. (4)'s per-path mean
/// pooling, so the last attention layer runs its softmax rows and its W3
/// residual only for the live rows, the ascending distinct columns of
/// path_pool (nodes on some source-to-sink path). Every earlier layer, and
/// the last layer's Q/K/V product, serve all n nodes, because each served
/// row attends over every node's key and value. That is exact: a served row
/// does the same arithmetic as when every row is served, and no row reads
/// another row's output. The "attention" guard still scans all n rows; the
/// rows nobody pools keep the previous layer's values.
///
/// Embed and heads: the driver context reaches the model only through the
/// path features h (paper Table I), so the pass splits into embed, Eq. (1)-(4)
/// up to the pooled [P, d] path embeddings, a pure function of the net, and
/// heads, which concatenates h and runs Eq. (5)-(6). run() is heads(embed())
/// and can hand the pooled block out; run_heads() runs the same heads code
/// from a stored block, so a net retimed under a new context skips the Sage
/// and attention layers and gets the bits of a full pass.
///
/// Numerics: the dense products sum in the same order as tensor::matmul, so
/// they are bitwise equal to autograd; the softmax differs from the libm
/// reference by a few float ulps. Summation grouping depends only on the
/// net's node count, never on slab alignment, history or vector width, so
/// results are identical for every thread count, workspace and machine.
///
/// The plan covers GNNTrans with global attention and at least one Sage
/// layer. Neighbour-masked attention and the four zoo kinds stay on the
/// autograd path: compile() returns null for them.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "nn/graph_sample.hpp"
#include "nn/workspace.hpp"

namespace gnntrans::nn {

class WireModel;

class GnnTransPlan {
 public:
  /// A dense layer: row-major [in, out] weight and an optional [out] bias.
  struct Dense {
    std::size_t in = 0;
    std::size_t out = 0;
    std::vector<float> weight;
    std::vector<float> bias;  ///< empty: no bias
  };

  /// Copies \p model's weights into a plan, or returns null when the plan
  /// does not cover the model (see the file comment). Every weight of a
  /// GNNTrans model is first checked against its ModelConfig; a mismatch
  /// throws std::invalid_argument naming the tensor, e.g. "gnn[0].w_neigh".
  [[nodiscard]] static std::unique_ptr<GnnTransPlan> compile(
      const WireModel& model);

  /// For tests: compile() with every kernel \p lanes wide (4, 8 or 16)
  /// instead of the widest this CPU runs. Throws std::invalid_argument for
  /// any other width or one above widest_lanes().
  [[nodiscard]] static std::unique_ptr<GnnTransPlan> compile(
      const WireModel& model, std::size_t lanes);

  /// Float lanes of the widest plan kernels this CPU runs: 16 with
  /// AVX-512F, 8 with AVX2, else 4 (SSE2). Detected once per process.
  [[nodiscard]] static std::size_t widest_lanes();

  /// For tests: x := e^x in place, by the attention kernel's vector exp
  /// \p lanes wide. Throws as compile(model, lanes) does.
  static void exp_for_testing(std::size_t lanes, std::span<float> x);

  /// Float lanes of this plan's kernels.
  [[nodiscard]] std::size_t lanes() const noexcept { return lanes_; }

  /// Standardized per-path slew and delay of \p sample ([P,1] each), with the
  /// model's trace spans and finite guards: heads(embed(sample)). When
  /// \p embedding is set it also receives the pooled path embeddings,
  /// [P, d] row-major, for a later run_heads(). Throws std::invalid_argument
  /// on a sample whose shapes do not match the model.
  [[nodiscard]] WirePrediction run(const GraphSample& sample,
                                   Workspace& workspace,
                                   std::vector<float>* embedding = nullptr) const;

  /// Eq. (5)-(6) alone: the slew and delay run() would give for a sample
  /// whose pooled embeddings are \p embedding ([P, d], as run() stored them)
  /// and whose standardized path features are \p h ([P, dh]), bit for bit.
  /// Throws std::invalid_argument when the shapes do not match the model.
  [[nodiscard]] WirePrediction run_heads(std::span<const float> embedding,
                                         const tensor::Tensor& h,
                                         Workspace& workspace) const;

 private:
  GnnTransPlan() = default;

  /// run() past its checks, at W groups of 4 float lanes (plan.cpp): embed
  /// runs Eq. (1)-(4) into the heads' rows at the start of the slab it
  /// returns, heads fills the path features and runs Eq. (5)-(6).
  template <int W>
  friend float* embed(const GnnTransPlan& plan, const GraphSample& sample,
                      Workspace& workspace);
  template <int W>
  friend WirePrediction heads(const GnnTransPlan& plan, std::size_t p,
                              float* slab, const tensor::Tensor& h);

  /// Floats per row of the heads' input: [pooled | h | slew when cascaded].
  [[nodiscard]] std::size_t repr_ld() const noexcept;
  /// Slab floats the heads use for \p paths rows: the input rows, then two
  /// hidden buffers, each on a 16-float boundary.
  [[nodiscard]] std::size_t heads_floats(std::size_t paths) const noexcept;

  std::size_t node_dim_ = 0;    ///< dx
  std::size_t path_dim_ = 0;    ///< dh (0 without path features)
  std::size_t hidden_ = 0;      ///< d
  std::size_t heads_ = 0;
  std::size_t head_dim_ = 0;    ///< dk = d / heads
  float inv_sqrt_dk_ = 1.0f;
  bool use_edge_weights_ = true;
  bool cascade_ = true;
  std::size_t lanes_ = 4;  ///< kernel width in floats, 4 per attention head

  std::vector<Dense> sage_self_;   ///< W1 per Sage layer
  std::vector<Dense> sage_neigh_;  ///< W2 per Sage layer
  std::vector<Dense> qkv_;         ///< [d, 3d] per attention layer: Q | K | V
  std::vector<Dense> w3_;          ///< [d, d] per attention layer
  std::vector<Dense> slew_head_;
  std::vector<Dense> delay_head_;
};

}  // namespace gnntrans::nn
