#pragma once

#include "nn/tensor.hpp"

namespace sfn::nn {

/// Value and gradient of a loss evaluated at a prediction.
struct LossResult {
  double value = 0.0;
  Tensor grad;  ///< dLoss/dPrediction, same shape as the prediction.
};

/// Mean squared error: L = mean((pred - target)^2). The supervised
/// objective used to train surrogates against PCG pressure fields.
LossResult mse_loss(const Tensor& prediction, const Tensor& target);

}  // namespace sfn::nn
