#pragma once

#include "nn/network.hpp"

#include <vector>

namespace sfn::nn {

/// Adam (Kingma & Ba) with bias correction: consumes the accumulated
/// gradients of a network's parameters and updates them in place.
class Adam {
 public:
  explicit Adam(double lr, double beta1 = 0.9, double beta2 = 0.999,
                double eps = 1e-8)
      : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {}

  /// Apply one update using the current gradients, then the caller
  /// typically zero_grads(). `grad_scale` divides gradients (batch size).
  void step(Network& net, double grad_scale = 1.0);

 private:
  double lr_;
  double beta1_;
  double beta2_;
  double eps_;
  long t_ = 0;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
};

}  // namespace sfn::nn
