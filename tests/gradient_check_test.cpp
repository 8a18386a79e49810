#include "core/training.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/loss.hpp"
#include "nn/network.hpp"
#include "nn/pooling.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

namespace sfn {
namespace {

using nn::Shape;
using nn::Tensor;

Tensor random_tensor(Shape shape, std::uint64_t seed,
                     double lo = -1.0, double hi = 1.0) {
  util::Rng rng(seed);
  Tensor t(shape);
  for (std::size_t k = 0; k < t.numel(); ++k) {
    t[k] = static_cast<float>(rng.uniform(lo, hi));
  }
  return t;
}

/// Scalar head for gradient checks: L = sum(c_k * y_k) with fixed random
/// coefficients, whose gradient w.r.t. y is exactly c.
struct ScalarHead {
  Tensor coeffs;
  explicit ScalarHead(Shape shape) : coeffs(random_tensor(shape, 999)) {}
  [[nodiscard]] double loss(const Tensor& y) const {
    double acc = 0.0;
    for (std::size_t k = 0; k < y.numel(); ++k) {
      acc += static_cast<double>(coeffs[k]) * y[k];
    }
    return acc;
  }
  [[nodiscard]] Tensor grad() const { return coeffs; }
};

/// Verify a layer's input gradient against central finite differences.
void check_input_gradient(nn::Layer& layer, Tensor input,
                          double tolerance = 2e-2) {
  const Tensor y0 = layer.forward(input, false);
  const ScalarHead head(y0.shape());
  const Tensor grad_in = layer.backward(head.grad());

  constexpr float kEps = 1e-2f;
  util::Rng rng(17);
  // Probe a sample of coordinates (all of them for small tensors).
  const std::size_t probes = std::min<std::size_t>(input.numel(), 24);
  for (std::size_t p = 0; p < probes; ++p) {
    const auto k = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(input.numel()) - 1));
    Tensor plus = input;
    plus[k] += kEps;
    Tensor minus = input;
    minus[k] -= kEps;
    const double num = (head.loss(layer.forward(plus, false)) -
                        head.loss(layer.forward(minus, false))) /
                       (2.0 * kEps);
    EXPECT_NEAR(grad_in[k], num, tolerance * std::max(1.0, std::abs(num)))
        << "coordinate " << k;
  }
}

/// Verify a layer's parameter gradients against finite differences.
void check_param_gradients(nn::Layer& layer, const Tensor& input,
                           double tolerance = 2e-2) {
  const Tensor y0 = layer.forward(input, false);
  const ScalarHead head(y0.shape());
  for (auto& view : layer.params()) {
    std::fill(view.grads.begin(), view.grads.end(), 0.0f);
  }
  layer.backward(head.grad());

  constexpr float kEps = 1e-2f;
  util::Rng rng(23);
  auto params = layer.params();
  for (std::size_t v = 0; v < params.size(); ++v) {
    const std::size_t probes = std::min<std::size_t>(params[v].values.size(), 12);
    for (std::size_t p = 0; p < probes; ++p) {
      const auto k = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(params[v].values.size()) - 1));
      const float saved = params[v].values[k];
      params[v].values[k] = saved + kEps;
      const double lp = head.loss(layer.forward(input, false));
      params[v].values[k] = saved - kEps;
      const double lm = head.loss(layer.forward(input, false));
      params[v].values[k] = saved;
      const double num = (lp - lm) / (2.0 * kEps);
      EXPECT_NEAR(params[v].grads[k], num,
                  tolerance * std::max(1.0, std::abs(num)))
          << "param blob " << v << " coord " << k;
    }
  }
}

TEST(GradCheck, Conv2DInputAndParams) {
  nn::Conv2D conv(2, 3, 3);
  const Tensor x = random_tensor(Shape{2, 5, 5}, 1);
  check_input_gradient(conv, x);
  check_param_gradients(conv, x);
}

TEST(GradCheck, Conv2DKernel5) {
  nn::Conv2D conv(1, 2, 5);
  const Tensor x = random_tensor(Shape{1, 7, 7}, 2);
  check_input_gradient(conv, x);
  check_param_gradients(conv, x);
}

TEST(GradCheck, ResidualConv) {
  nn::Conv2D conv(2, 2, 3, /*residual=*/true);
  const Tensor x = random_tensor(Shape{2, 4, 4}, 3);
  check_input_gradient(conv, x);
  check_param_gradients(conv, x);
}

TEST(GradCheck, ReLU) {
  nn::ReLU relu;
  // Keep inputs away from the kink at 0 so finite differences are valid.
  Tensor x = random_tensor(Shape{1, 4, 4}, 4);
  for (std::size_t k = 0; k < x.numel(); ++k) {
    if (std::abs(x[k]) < 0.1f) {
      x[k] = 0.5f;
    }
  }
  check_input_gradient(relu, x);
}

TEST(GradCheck, Sigmoid) {
  nn::Sigmoid sig;
  const Tensor x = random_tensor(Shape{1, 3, 3}, 5);
  check_input_gradient(sig, x);
}

TEST(GradCheck, MaxPool) {
  nn::MaxPool2D pool(2);
  // Distinct values so argmax is stable under the probe perturbation.
  Tensor x(Shape{2, 4, 4});
  for (std::size_t k = 0; k < x.numel(); ++k) {
    x[k] = static_cast<float>(k) * 0.37f;
  }
  check_input_gradient(pool, x);
}

TEST(GradCheck, AvgPool) {
  nn::AvgPool2D pool(2);
  const Tensor x = random_tensor(Shape{2, 4, 4}, 7);
  check_input_gradient(pool, x);
}

TEST(GradCheck, Upsample) {
  nn::Upsample2D up(2);
  const Tensor x = random_tensor(Shape{1, 3, 3}, 8);
  check_input_gradient(up, x);
}

TEST(GradCheck, Dense) {
  nn::Dense dense(8, 5);
  const Tensor x = random_tensor(Shape{1, 1, 8}, 9);
  check_input_gradient(dense, x);
  check_param_gradients(dense, x);
}

TEST(GradCheck, WholeNetworkChain) {
  // conv -> relu -> pool -> conv -> upsample: checks the composition of
  // backward passes, not just each layer in isolation.
  nn::Network net;
  net.emplace<nn::Conv2D>(1, 4, 3);
  net.emplace<nn::ReLU>();
  net.emplace<nn::AvgPool2D>(2);
  net.emplace<nn::Conv2D>(4, 1, 3);
  net.emplace<nn::Upsample2D>(2);
  util::Rng rng(10);
  net.init_weights(rng);

  Tensor x = random_tensor(Shape{1, 6, 6}, 11);
  const Tensor y0 = net.forward(x, false);
  const ScalarHead head(y0.shape());
  net.zero_grads();
  net.forward(x, false);
  const Tensor grad_in = net.backward(head.grad());

  // Small epsilon keeps the probe on one side of ReLU kinks.
  constexpr float kEps = 2e-3f;
  for (std::size_t k = 0; k < x.numel(); k += 5) {
    Tensor plus = x;
    plus[k] += kEps;
    Tensor minus = x;
    minus[k] -= kEps;
    const double num = (head.loss(net.forward(plus, false)) -
                        head.loss(net.forward(minus, false))) /
                       (2.0 * kEps);
    EXPECT_NEAR(grad_in[k], num, 4e-2 * std::max(1.0, std::abs(num)));
  }
}

TEST(GradCheck, MseLossGradient) {
  const Tensor pred = random_tensor(Shape{1, 3, 3}, 12);
  const Tensor target = random_tensor(Shape{1, 3, 3}, 13);
  const auto loss = nn::mse_loss(pred, target);

  constexpr float kEps = 1e-3f;
  for (std::size_t k = 0; k < pred.numel(); ++k) {
    Tensor plus = pred;
    plus[k] += kEps;
    Tensor minus = pred;
    minus[k] -= kEps;
    const double num = (nn::mse_loss(plus, target).value -
                        nn::mse_loss(minus, target).value) /
                       (2.0 * kEps);
    EXPECT_NEAR(loss.grad[k], num, 1e-3);
  }
}

TEST(GradCheck, DivNormLossGradient) {
  // The paper's unsupervised objective: gradient 2 A (w .* r) must match
  // finite differences of sum w r^2 / N.
  fluid::FlagGrid flags(8, 8, fluid::CellType::kFluid);
  flags.set_smoke_box_boundary();
  flags.set(4, 4, fluid::CellType::kSolid);

  util::Rng rng(16);
  fluid::GridF rhs(8, 8, 0.0f);
  for (int j = 0; j < 8; ++j) {
    for (int i = 0; i < 8; ++i) {
      if (flags.is_fluid(i, j)) {
        rhs(i, j) = static_cast<float>(rng.uniform(-0.2, 0.2));
      }
    }
  }
  Tensor pred = random_tensor(Shape{1, 8, 8}, 17, -0.3, 0.3);

  const auto loss = core::divnorm_loss(flags, rhs, pred, 3);
  EXPECT_GT(loss.value, 0.0);

  constexpr float kEps = 1e-3f;
  for (int j = 0; j < 8; ++j) {
    for (int i = 0; i < 8; ++i) {
      Tensor plus = pred;
      plus.at(0, j, i) += kEps;
      Tensor minus = pred;
      minus.at(0, j, i) -= kEps;
      const double num = (core::divnorm_loss(flags, rhs, plus, 3).value -
                          core::divnorm_loss(flags, rhs, minus, 3).value) /
                         (2.0 * kEps);
      EXPECT_NEAR(loss.grad.at(0, j, i), num,
                  2e-3 * std::max(1.0, std::abs(num)))
          << i << "," << j;
    }
  }
}

TEST(GradCheck, DivNormLossZeroAtExactSolution) {
  // If p solves A p = rhs exactly, DivNorm and its gradient vanish.
  fluid::FlagGrid flags(8, 8, fluid::CellType::kFluid);
  flags.set_smoke_box_boundary();
  const fluid::GridF rhs(8, 8, 0.0f);
  const Tensor pred(Shape{1, 8, 8}, 0.0f);
  const auto loss = core::divnorm_loss(flags, rhs, pred, 3);
  EXPECT_DOUBLE_EQ(loss.value, 0.0);
  for (std::size_t k = 0; k < loss.grad.numel(); ++k) {
    EXPECT_FLOAT_EQ(loss.grad[k], 0.0f);
  }
}

}  // namespace
}  // namespace sfn
