#include "tensor/tensor.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

namespace gnntrans::tensor {

namespace {

thread_local bool g_grad_enabled = true;

/// Allocates an impl with a zeroed rows x cols value buffer.
std::shared_ptr<TensorImpl> new_impl(std::size_t rows, std::size_t cols) {
  auto impl = std::make_shared<TensorImpl>();
  impl->value.assign(rows * cols, 0.0f);
  impl->rows = rows;
  impl->cols = cols;
  return impl;
}

}  // namespace

NoGradGuard::NoGradGuard() : previous_(g_grad_enabled) { g_grad_enabled = false; }
NoGradGuard::~NoGradGuard() { g_grad_enabled = previous_; }

bool grad_enabled() noexcept { return g_grad_enabled; }

Tensor::Tensor(std::size_t rows, std::size_t cols, bool requires_grad) {
  impl_ = new_impl(rows, cols);
  impl_->requires_grad = requires_grad;
}

Tensor Tensor::from_data(std::vector<float> data, std::size_t rows,
                         std::size_t cols, bool requires_grad) {
  if (data.size() != rows * cols)
    throw std::invalid_argument("Tensor::from_data: size mismatch");
  Tensor t;
  t.impl_ = std::make_shared<TensorImpl>();
  t.impl_->rows = rows;
  t.impl_->cols = cols;
  t.impl_->value = std::move(data);
  t.impl_->requires_grad = requires_grad;
  return t;
}

Tensor make_op_result(std::size_t rows, std::size_t cols,
                      std::vector<std::shared_ptr<TensorImpl>> parents,
                      std::function<void(const TensorImpl&)> backward_fn) {
  auto impl = new_impl(rows, cols);

  const bool any_grad =
      grad_enabled() &&
      std::any_of(parents.begin(), parents.end(),
                  [](const auto& p) { return p->requires_grad; });
  if (any_grad) {
    impl->requires_grad = true;
    impl->parents = std::move(parents);
    impl->backward_fn = std::move(backward_fn);
  }
  return Tensor(std::move(impl));
}

void Tensor::backward() {
  if (size() != 1)
    throw std::logic_error("Tensor::backward: only scalar roots supported");

  // Topological order via iterative DFS over the tape.
  std::vector<TensorImpl*> order;
  std::unordered_set<TensorImpl*> visited;
  std::vector<std::pair<TensorImpl*, std::size_t>> stack;
  stack.emplace_back(impl_.get(), 0);
  visited.insert(impl_.get());
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    if (next_child < node->parents.size()) {
      TensorImpl* child = node->parents[next_child++].get();
      if (child->backward_fn && !visited.contains(child)) {
        visited.insert(child);
        stack.emplace_back(child, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }

  impl_->ensure_grad();
  impl_->grad[0] += 1.0f;

  // `order` is children-before-parents reversed; process root-first.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    TensorImpl* node = *it;
    if (node->backward_fn) {
      node->ensure_grad();
      node->backward_fn(*node);
    }
  }
}

}  // namespace gnntrans::tensor
