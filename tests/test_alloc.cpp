// Heap allocations of a steady-state training step. This binary replaces the
// global operator new with one that counts the calls the test thread makes
// while counting is on, so it is kept apart from the other suites.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "cell/library.hpp"
#include "features/dataset.hpp"
#include "nn/models.hpp"
#include "tensor/ops.hpp"
#include "tensor/optim.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};
thread_local bool t_counting = false;

void* allocate(std::size_t size, std::size_t align) {
  if (t_counting) g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t))
    p = std::malloc(size);
  else if (posix_memalign(&p, align, size) != 0)
    p = nullptr;
  if (!p) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return allocate(size, 0); }
void* operator new[](std::size_t size) { return allocate(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return allocate(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return allocate(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

using namespace gnntrans;

/// bench_micro's BM_TrainStep loop: the served config (hidden 16, 4 Sage + 2
/// attention layers, 4 heads, MLP 32) trained on one labelled net of
/// \p nodes nodes; returns the operator new calls per step once warm.
std::size_t allocations_per_step(std::size_t nodes) {
  const auto lib = cell::CellLibrary::make_default();
  features::WireDatasetConfig cfg;
  cfg.net_count = 1;
  cfg.net_config.min_nodes = cfg.net_config.max_nodes = static_cast<std::uint32_t>(nodes);
  cfg.sim_config.steps = 300;
  cfg.seed = 14;
  const auto records = features::generate_wire_records(cfg, lib);
  EXPECT_EQ(records.size(), 1u);
  if (records.empty()) return 0;
  features::Standardizer standardizer;
  standardizer.fit(records);
  const nn::GraphSample sample = features::make_samples(records, standardizer).front();
  nn::ModelConfig mc;
  mc.node_feature_dim = features::kNodeFeatureCount;
  mc.path_feature_dim = features::kPathFeatureCount;
  mc.hidden_dim = 16;
  mc.gnn_layers = 4;
  mc.transformer_layers = 2;
  mc.heads = 4;
  mc.mlp_hidden = 32;
  auto model = nn::make_model(nn::ModelKind::kGnnTrans, mc);
  std::vector<tensor::Tensor> params = model->parameters();
  tensor::Adam optimizer(params);
  const auto step = [&] {
    optimizer.zero_grad();
    const nn::WirePrediction pred = model->forward(sample);
    tensor::Tensor loss = tensor::add(tensor::mse_loss(pred.slew, sample.slew_label),
                                      tensor::mse_loss(pred.delay, sample.delay_label));
    loss.backward();
    (void)tensor::clip_grad_norm(params, 5.0);
    optimizer.step();
  };
  for (int i = 0; i < 3; ++i) step();
  constexpr std::size_t kSteps = 10;
  g_allocations = 0;
  t_counting = true;
  for (std::size_t i = 0; i < kSteps; ++i) step();
  t_counting = false;
  tensor::release_tape();
  return g_allocations / kSteps;
}

TEST(TrainingAllocations, SteadyStateStepAllocatesNothing) {
  // The tape's nodes, buffers, gradients and copies, and the attention's
  // working buffers, stay in its slab from step to step.
  for (const std::size_t nodes : {16u, 40u, 80u})
    EXPECT_EQ(allocations_per_step(nodes), 0u) << nodes << " nodes";
}

}  // namespace
