#include "nn/activations.hpp"

#include <cmath>

namespace sfn::nn {

Tensor ReLU::forward(const Tensor& input, bool /*train*/) {
  cached_input_ = input;
  Tensor out = input;
  for (std::size_t i = 0; i < out.numel(); ++i) {
    if (out[i] < 0.0f) {
      out[i] = 0.0f;
    }
  }
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  Tensor grad = grad_output;
  for (std::size_t i = 0; i < grad.numel(); ++i) {
    if (cached_input_[i] <= 0.0f) {
      grad[i] = 0.0f;
    }
  }
  return grad;
}

void ReLU::forward_into(const Tensor& input, Tensor& output,
                        Workspace& /*ws*/) const {
  output.resize(input.shape());
  const float* src = input.data().data();
  float* dst = output.data().data();
  const auto n = static_cast<std::ptrdiff_t>(input.numel());
#pragma omp parallel for simd schedule(static)
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    dst[i] = src[i] > 0.0f ? src[i] : 0.0f;
  }
}

std::unique_ptr<Layer> ReLU::clone() const { return std::make_unique<ReLU>(); }
void ReLU::save(std::ostream& /*out*/) const {}

Tensor Sigmoid::forward(const Tensor& input, bool /*train*/) {
  Tensor out = input;
  for (std::size_t i = 0; i < out.numel(); ++i) {
    out[i] = 1.0f / (1.0f + std::exp(-out[i]));
  }
  cached_output_ = out;
  return out;
}

Tensor Sigmoid::backward(const Tensor& grad_output) {
  Tensor grad = grad_output;
  for (std::size_t i = 0; i < grad.numel(); ++i) {
    const float s = cached_output_[i];
    grad[i] *= s * (1.0f - s);
  }
  return grad;
}

void Sigmoid::forward_into(const Tensor& input, Tensor& output,
                           Workspace& /*ws*/) const {
  output.resize(input.shape());
  const float* src = input.data().data();
  float* dst = output.data().data();
  const auto n = static_cast<std::ptrdiff_t>(input.numel());
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    dst[i] = 1.0f / (1.0f + std::exp(-src[i]));
  }
}

std::unique_ptr<Layer> Sigmoid::clone() const {
  return std::make_unique<Sigmoid>();
}
void Sigmoid::save(std::ostream& /*out*/) const {}

Tensor Tanh::forward(const Tensor& input, bool /*train*/) {
  Tensor out = input;
  for (std::size_t i = 0; i < out.numel(); ++i) {
    out[i] = std::tanh(out[i]);
  }
  cached_output_ = out;
  return out;
}

Tensor Tanh::backward(const Tensor& grad_output) {
  Tensor grad = grad_output;
  for (std::size_t i = 0; i < grad.numel(); ++i) {
    const float t = cached_output_[i];
    grad[i] *= 1.0f - t * t;
  }
  return grad;
}

void Tanh::forward_into(const Tensor& input, Tensor& output,
                        Workspace& /*ws*/) const {
  output.resize(input.shape());
  const float* src = input.data().data();
  float* dst = output.data().data();
  const auto n = static_cast<std::ptrdiff_t>(input.numel());
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    dst[i] = std::tanh(src[i]);
  }
}

std::unique_ptr<Layer> Tanh::clone() const { return std::make_unique<Tanh>(); }
void Tanh::save(std::ostream& /*out*/) const {}

}  // namespace sfn::nn
