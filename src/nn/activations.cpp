#include "nn/activations.hpp"

#include "util/team.hpp"

#include <cmath>

namespace sfn::nn {

Tensor ReLU::forward(const Tensor& input, bool /*train*/) {
  cached_input_ = input;
  return forward_output(input);
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
  const Shape shape = input.shape();
  output.resize(shape);
  const float* src = input.data().data();
  float* dst = output.data().data();
  const auto w = static_cast<std::size_t>(shape.w);
  // Element-wise, so the bits do not depend on the team size.
  util::for_rows(shape.c * shape.h, [&](int row) {
    const std::size_t begin = static_cast<std::size_t>(row) * w;
    for (std::size_t i = begin; i < begin + w; ++i) {
      dst[i] = src[i] > 0.0f ? src[i] : 0.0f;
    }
  });
}

std::unique_ptr<Layer> ReLU::clone() const { return std::make_unique<ReLU>(); }
void ReLU::save(std::ostream& /*out*/) const {}

Tensor Sigmoid::forward(const Tensor& input, bool /*train*/) {
  cached_output_ = forward_output(input);
  return cached_output_;
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

}  // namespace sfn::nn
