#include "tensor/optim.hpp"

#include <cmath>
#include <stdexcept>

#include <immintrin.h>

#include "tensor/simd.hpp"

namespace gnntrans::tensor {

Adam::Adam(std::vector<Tensor> parameters, Config config)
    : params_(std::move(parameters)), config_(config) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Tensor& p : params_) {
    if (!p.defined() || !p.requires_grad())
      throw std::invalid_argument("Adam: parameter without requires_grad");
    m_.emplace_back(p.size(), 0.0f);
    v_.emplace_back(p.size(), 0.0f);
  }
}

void Adam::step() {
  ++step_count_;
  const Config c = config_;
  const float bc1 = 1.0f - std::pow(c.beta1, static_cast<float>(step_count_));
  const float bc2 = 1.0f - std::pow(c.beta2, static_cast<float>(step_count_));
  const float decay = c.learning_rate * c.weight_decay;
  const float keep1 = 1.0f - c.beta1, keep2 = 1.0f - c.beta2;

  for (std::size_t i = 0; i < params_.size(); ++i) {
    Tensor& p = params_[i];
    if (p.grad().empty()) continue;  // never touched by backward
    float* values = p.values().data();
    const float* grads = p.grad().data();
    float* m = m_[i].data();
    float* v = v_[i].data();
    const std::size_t size = p.size();
    // The decay reads only the value, so it may run as its own pass first.
    if (c.weight_decay > 0.0f)
      for (std::size_t j = 0; j < size; ++j) values[j] -= decay * values[j];
    // Four lanes at a time; sqrtps rounds as std::sqrt does.
    std::size_t j = 0;
    for (; j + 4 <= size; j += 4) {
      simd::v4sf g{}, mj{}, vj{}, x{};
      simd::load(g, grads + j);
      simd::load(mj, m + j);
      simd::load(vj, v + j);
      simd::load(x, values + j);
      mj = c.beta1 * mj + keep1 * g;
      vj = c.beta2 * vj + keep2 * g * g;
      const simd::v4sf m_hat = mj / bc1, v_hat = vj / bc2;
      x = x - c.learning_rate * m_hat / (simd::v4sf(_mm_sqrt_ps(v_hat)) + c.epsilon);
      simd::store(m + j, mj);
      simd::store(v + j, vj);
      simd::store(values + j, x);
    }
    for (; j < size; ++j) {
      const float g = grads[j];
      m[j] = c.beta1 * m[j] + keep1 * g;
      v[j] = c.beta2 * v[j] + keep2 * g * g;
      const float m_hat = m[j] / bc1;
      const float v_hat = v[j] / bc2;
      values[j] -= c.learning_rate * m_hat / (std::sqrt(v_hat) + c.epsilon);
    }
  }
}

void Adam::zero_grad() noexcept {
  for (Tensor& p : params_) p.zero_grad();
}

double clip_grad_norm(std::vector<Tensor>& parameters, double max_norm) {
  double total = 0.0;
  for (Tensor& p : parameters)
    for (float g : p.grad()) total += static_cast<double>(g) * g;
  total = std::sqrt(total);
  if (total > max_norm && total > 0.0) {
    const float factor = static_cast<float>(max_norm / total);
    for (Tensor& p : parameters)
      for (float& g : p.grad()) g *= factor;
  }
  return total;
}

}  // namespace gnntrans::tensor
