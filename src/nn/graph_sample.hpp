/// \file graph_sample.hpp
/// Model-ready representation of one RC net (paper Sec. III-B, Fig. 5).
///
/// A sample bundles the node feature matrix X, path feature matrix H, the two
/// graph operators GNNTrans reads (Eq. 1 and Eq. 4), and standardized labels.
/// Built by features::Standardizer::make_sample(); consumed by every model in
/// models.hpp. The baselines derive their operators from weighted_adj (layers.hpp).
#pragma once

#include <string>
#include <vector>

#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace gnntrans::nn {

/// One net as a training/inference sample.
struct GraphSample {
  std::string net_name;
  bool non_tree = false;
  std::size_t node_count = 0;
  std::size_t path_count = 0;

  tensor::Tensor x;  ///< [N, dx] node features (standardized, no grad)
  tensor::Tensor h;  ///< [P, dh] path features (standardized, no grad)

  /// Eq. (1) aggregation: resistance-weighted adjacency, row-normalized.
  tensor::GraphMatrix weighted_adj;
  /// Eq. (4) pooling: [P, N], row q holds 1/N_q on the nodes of path q.
  tensor::GraphMatrix path_pool;

  tensor::Tensor slew_label;   ///< [P, 1] standardized golden slew
  tensor::Tensor delay_label;  ///< [P, 1] standardized golden delay

  std::vector<double> slew_seconds;   ///< raw golden slew per path (seconds)
  std::vector<double> delay_seconds;  ///< raw golden delay per path (seconds)
};

/// A model's output for one sample.
struct WirePrediction {
  tensor::Tensor slew;   ///< [P, 1] standardized
  tensor::Tensor delay;  ///< [P, 1] standardized
};

}  // namespace gnntrans::nn
