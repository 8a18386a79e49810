#include "nn/loss.hpp"

#include <stdexcept>

namespace sfn::nn {

LossResult mse_loss(const Tensor& prediction, const Tensor& target) {
  if (prediction.numel() != target.numel()) {
    throw std::invalid_argument("mse_loss: size mismatch");
  }
  LossResult result;
  result.grad = Tensor(prediction.shape());
  const auto n = static_cast<double>(prediction.numel());
  double acc = 0.0;
  for (std::size_t i = 0; i < prediction.numel(); ++i) {
    const double d = static_cast<double>(prediction[i]) - target[i];
    acc += d * d;
    result.grad[i] = static_cast<float>(2.0 * d / n);
  }
  result.value = acc / n;
  return result;
}

}  // namespace sfn::nn
