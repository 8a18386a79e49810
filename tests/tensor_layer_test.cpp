#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/pooling.hpp"
#include "nn/tensor.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace sfn {
namespace {

using nn::Shape;
using nn::Tensor;

TEST(Tensor, ShapeAndIndexing) {
  Tensor t(Shape{2, 3, 4});
  EXPECT_EQ(t.numel(), 24u);
  t.at(1, 2, 3) = 7.0f;
  EXPECT_FLOAT_EQ(t[1 * 12 + 2 * 4 + 3], 7.0f);
}

TEST(Tensor, FillAndSum) {
  Tensor t(Shape{1, 2, 2}, 0.5f);
  EXPECT_DOUBLE_EQ(t.sum(), 2.0);
  t.fill(0.0f);
  EXPECT_DOUBLE_EQ(t.sum(), 0.0);
}

TEST(Conv2D, IdentityKernelReproducesInput) {
  nn::Conv2D conv(1, 1, 3);
  // Zero all weights, set centre tap to 1, bias 0.
  for (auto& view : conv.params()) {
    std::fill(view.values.begin(), view.values.end(), 0.0f);
  }
  conv.weight(0, 0, 1, 1) = 1.0f;

  Tensor x(Shape{1, 4, 4});
  for (std::size_t k = 0; k < x.numel(); ++k) {
    x[k] = static_cast<float>(k) * 0.1f;
  }
  const Tensor y = conv.forward(x, false);
  ASSERT_EQ(y.shape(), x.shape());
  for (std::size_t k = 0; k < x.numel(); ++k) {
    EXPECT_FLOAT_EQ(y[k], x[k]);
  }
}

TEST(Conv2D, AveragingKernelComputesNeighborhoodMean) {
  nn::Conv2D conv(1, 1, 3);
  for (auto& view : conv.params()) {
    std::fill(view.values.begin(), view.values.end(), 0.0f);
  }
  for (int ky = 0; ky < 3; ++ky) {
    for (int kx = 0; kx < 3; ++kx) {
      conv.weight(0, 0, ky, kx) = 1.0f / 9.0f;
    }
  }
  Tensor x(Shape{1, 3, 3}, 9.0f);
  const Tensor y = conv.forward(x, false);
  // Centre sees all 9 cells; corner sees 4 (zero padding).
  EXPECT_FLOAT_EQ(y.at(0, 1, 1), 9.0f);
  EXPECT_FLOAT_EQ(y.at(0, 0, 0), 4.0f);
}

TEST(Conv2D, BiasAdds) {
  nn::Conv2D conv(1, 2, 1);
  // The biases go in through the parameter views: GCC 12 reports a false
  // -Wmaybe-uninitialized on the pack reset that bias() inlines here.
  const std::vector<nn::ParamView> params = conv.params();
  for (const auto& view : params) {
    std::fill(view.values.begin(), view.values.end(), 0.0f);
  }
  params[1].values[0] = 1.5f;  // The bias view.
  params[1].values[1] = -0.5f;
  const Tensor y = conv.forward(Tensor(Shape{1, 2, 2}), false);
  EXPECT_FLOAT_EQ(y.at(0, 0, 0), 1.5f);
  EXPECT_FLOAT_EQ(y.at(1, 1, 1), -0.5f);
}

TEST(Conv2D, ResidualAddsInput) {
  nn::Conv2D conv(1, 1, 3, /*residual=*/true);
  for (auto& view : conv.params()) {
    std::fill(view.values.begin(), view.values.end(), 0.0f);
  }
  Tensor x(Shape{1, 2, 2});
  x[0] = 2.0f;
  const Tensor y = conv.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 2.0f);  // conv part is zero, skip carries x.
}

TEST(Conv2D, RejectsEvenKernelAndBadResidual) {
  EXPECT_THROW(nn::Conv2D(1, 1, 2), std::invalid_argument);
  EXPECT_THROW(nn::Conv2D(2, 3, 3, true), std::invalid_argument);
}

TEST(Conv2D, FlopsScaleWithArea) {
  const nn::Conv2D conv(2, 8, 3);
  const auto f1 = conv.flops(Shape{2, 16, 16});
  const auto f2 = conv.flops(Shape{2, 32, 32});
  EXPECT_EQ(f2, 4 * f1);
  EXPECT_EQ(f1, 2ull * 9 * 2 * 8 * 16 * 16);
}

TEST(ReLU, ClampsNegatives) {
  nn::ReLU relu;
  Tensor x(Shape{1, 1, 4});
  x[0] = -1.0f; x[1] = 0.0f; x[2] = 2.0f; x[3] = -0.5f;
  const Tensor y = relu.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
  EXPECT_FLOAT_EQ(y[3], 0.0f);
}

TEST(Sigmoid, KnownValues) {
  nn::Sigmoid sig;
  Tensor x(Shape{1, 1, 3});
  x[0] = 0.0f; x[1] = 100.0f; x[2] = -100.0f;
  const Tensor y = sig.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 0.5f);
  EXPECT_NEAR(y[1], 1.0f, 1e-6f);
  EXPECT_NEAR(y[2], 0.0f, 1e-6f);
}

TEST(MaxPool, PicksWindowMaxima) {
  nn::MaxPool2D pool(2);
  Tensor x(Shape{1, 4, 4});
  for (std::size_t k = 0; k < 16; ++k) {
    x[k] = static_cast<float>(k);
  }
  const Tensor y = pool.forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{1, 2, 2}));
  EXPECT_FLOAT_EQ(y.at(0, 0, 0), 5.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1, 1), 15.0f);
}

TEST(AvgPool, AveragesWindows) {
  nn::AvgPool2D pool(2);
  Tensor x(Shape{1, 2, 2});
  x[0] = 1.0f; x[1] = 2.0f; x[2] = 3.0f; x[3] = 4.0f;
  const Tensor y = pool.forward(x, false);
  EXPECT_EQ(y.numel(), 1u);
  EXPECT_FLOAT_EQ(y[0], 2.5f);
}

TEST(Upsample, NearestNeighbour) {
  nn::Upsample2D up(2);
  Tensor x(Shape{1, 1, 2});
  x[0] = 1.0f;
  x[1] = 2.0f;
  const Tensor y = up.forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{1, 2, 4}));
  EXPECT_FLOAT_EQ(y.at(0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1, 1), 1.0f);
  EXPECT_FLOAT_EQ(y.at(0, 0, 2), 2.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1, 3), 2.0f);
}

TEST(PoolUpsample, RoundTripShape) {
  nn::MaxPool2D pool(2);
  nn::Upsample2D up(2);
  const Shape in{3, 8, 8};
  EXPECT_EQ(up.output_shape(pool.output_shape(in)), in);
}

TEST(Dense, MatVecWithBias) {
  nn::Dense dense(3, 2);
  for (auto& view : dense.params()) {
    std::fill(view.values.begin(), view.values.end(), 0.0f);
  }
  dense.weight(0, 0) = 1.0f;
  dense.weight(0, 1) = 2.0f;
  dense.weight(0, 2) = 3.0f;
  dense.weight(1, 0) = -1.0f;
  dense.bias(1) = 10.0f;
  Tensor x(Shape{1, 1, 3});
  x[0] = 1.0f; x[1] = 1.0f; x[2] = 1.0f;
  const Tensor y = dense.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 6.0f);
  EXPECT_FLOAT_EQ(y[1], 9.0f);
}

TEST(Dense, AcceptsAnyShapeWithMatchingNumel) {
  nn::Dense dense(12, 4);
  const Tensor x(Shape{3, 2, 2}, 1.0f);
  EXPECT_NO_THROW(dense.forward(x, false));
  const Tensor bad(Shape{3, 2, 3}, 1.0f);
  EXPECT_THROW(dense.forward(bad, false), std::invalid_argument);
}

TEST(Dropout, InferenceIsIdentity) {
  nn::Dropout dropout(0.5);
  Tensor x(Shape{1, 1, 100}, 1.0f);
  const Tensor y = dropout.forward(x, /*train=*/false);
  for (std::size_t k = 0; k < y.numel(); ++k) {
    EXPECT_FLOAT_EQ(y[k], 1.0f);
  }
}

TEST(Dropout, TrainingDropsAndRescales) {
  nn::Dropout dropout(0.5, /*seed=*/7);
  Tensor x(Shape{1, 1, 10000}, 1.0f);
  const Tensor y = dropout.forward(x, /*train=*/true);
  int zeros = 0;
  for (std::size_t k = 0; k < y.numel(); ++k) {
    if (y[k] == 0.0f) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(y[k], 2.0f);  // Inverted dropout scaling 1/(1-p).
    }
  }
  EXPECT_NEAR(zeros, 5000, 300);
  // Expectation is preserved.
  EXPECT_NEAR(y.sum() / 10000.0, 1.0, 0.1);
}

TEST(Dropout, RejectsBadRate) {
  EXPECT_THROW(nn::Dropout(1.0), std::invalid_argument);
  EXPECT_THROW(nn::Dropout(-0.1), std::invalid_argument);
}

}  // namespace
}  // namespace sfn
