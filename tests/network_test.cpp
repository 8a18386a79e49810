#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/loss.hpp"
#include "nn/network.hpp"
#include "nn/optimizer.hpp"
#include "nn/pooling.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <limits>
#include <sstream>

namespace sfn {
namespace {

using nn::Network;
using nn::Shape;
using nn::Tensor;

Network small_cnn(std::uint64_t seed = 1) {
  Network net;
  net.emplace<nn::Conv2D>(2, 4, 3);
  net.emplace<nn::ReLU>();
  net.emplace<nn::MaxPool2D>(2);
  net.emplace<nn::Conv2D>(4, 4, 3);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Upsample2D>(2);
  net.emplace<nn::Conv2D>(4, 1, 3);
  util::Rng rng(seed);
  net.init_weights(rng);
  return net;
}

TEST(Network, OutputShapePropagates) {
  const Network net = small_cnn();
  EXPECT_EQ(net.output_shape(Shape{2, 16, 16}), (Shape{1, 16, 16}));
}

TEST(Network, ParamCount) {
  Network net;
  net.emplace<nn::Conv2D>(2, 4, 3);  // 2*4*9 + 4 = 76.
  net.emplace<nn::Dense>(4, 2);      // 8 + 2 = 10.
  EXPECT_EQ(net.param_count(), 86u);
}

TEST(Network, FlopsAreSumOfLayers) {
  Network net;
  net.emplace<nn::Conv2D>(1, 1, 3);
  net.emplace<nn::ReLU>();
  const Shape in{1, 8, 8};
  EXPECT_EQ(net.flops(in), 2ull * 9 * 64 + 64);
}

TEST(Network, MemoryBytesTracksParamsAndActivations) {
  Network net = small_cnn();
  const auto bytes = net.memory_bytes(Shape{2, 16, 16});
  EXPECT_GT(bytes, net.param_count() * sizeof(float));
}

TEST(Network, CloneIsDeepCopy) {
  Network a = small_cnn(5);
  Network b = a;  // Copy ctor deep-copies weights.
  const Tensor x(Shape{2, 8, 8}, 0.3f);
  const Tensor ya = a.forward(x, false);
  const Tensor yb = b.forward(x, false);
  for (std::size_t k = 0; k < ya.numel(); ++k) {
    ASSERT_FLOAT_EQ(ya[k], yb[k]);
  }
  // Mutating the copy must not affect the original.
  for (auto& view : b.params()) {
    std::fill(view.values.begin(), view.values.end(), 0.0f);
  }
  const Tensor ya2 = a.forward(x, false);
  for (std::size_t k = 0; k < ya.numel(); ++k) {
    ASSERT_FLOAT_EQ(ya[k], ya2[k]);
  }
}

TEST(Network, SerializationRoundTrip) {
  Network net = small_cnn(7);
  std::stringstream buffer;
  net.save(buffer);
  Network loaded = Network::load(buffer);

  EXPECT_EQ(loaded.depth(), net.depth());
  EXPECT_EQ(loaded.param_count(), net.param_count());
  const Tensor x(Shape{2, 8, 8}, 0.25f);
  const Tensor y0 = net.forward(x, false);
  const Tensor y1 = loaded.forward(x, false);
  for (std::size_t k = 0; k < y0.numel(); ++k) {
    ASSERT_FLOAT_EQ(y0[k], y1[k]);
  }
}

TEST(Network, SerializationFileRoundTrip) {
  Network net = small_cnn(9);
  const auto path =
      std::filesystem::temp_directory_path() / "sfn_net_test.bin";
  net.save_file(path);
  Network loaded = Network::load_file(path);
  EXPECT_EQ(loaded.describe(), net.describe());
  std::filesystem::remove(path);
}

TEST(Network, LoadRejectsGarbage) {
  std::stringstream buffer;
  buffer << "not a network";
  EXPECT_THROW(Network::load(buffer), std::runtime_error);
}

std::string saved(const Network& net) {
  std::stringstream buffer;
  net.save(buffer);
  return buffer.str();
}

/// `bytes` of a saved one-layer net with its layer's header field number
/// `field` (each 4 bytes wide) overwritten by `value`. The layer's fields
/// follow the magic, version, layer count and kind string.
template <typename T>
std::string patched(std::string bytes, const std::string& kind, int field,
                    T value) {
  const std::size_t offset =
      4 * sizeof(std::int32_t) + kind.size() + field * sizeof(std::int32_t);
  std::memcpy(bytes.data() + offset, &value, sizeof(value));
  return bytes;
}

/// Loading `bytes` throws a runtime_error naming layer 0, its kind and
/// the bad field.
void expect_rejected(const std::string& bytes, const std::string& kind,
                     const std::string& field) {
  SCOPED_TRACE(kind + " " + field);
  std::istringstream in(bytes);
  try {
    (void)Network::load(in);
    ADD_FAILURE() << "loaded a layer header with a bad " << field;
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("layer 0 (" + kind + ")"), std::string::npos) << what;
    EXPECT_NE(what.find(field), std::string::npos) << what;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "threw something other than runtime_error: " << e.what();
  }
}

Network one_layer(std::unique_ptr<nn::Layer> layer) {
  Network net;
  net.add(std::move(layer));
  return net;
}

TEST(Network, LoadRejectsImplausibleLayerHeaders) {
  // conv2d: in_channels, out_channels, kernel, residual, precision.
  const std::string conv =
      saved(one_layer(std::make_unique<nn::Conv2D>(2, 4, 3)));
  expect_rejected(patched(conv, "conv2d", 0, -1), "conv2d", "in_channels");
  expect_rejected(patched(conv, "conv2d", 0, 0), "conv2d", "in_channels");
  expect_rejected(patched(conv, "conv2d", 2, 2), "conv2d", "kernel");
  expect_rejected(patched(conv, "conv2d", 3, 1), "conv2d", "residual");
  expect_rejected(patched(conv, "conv2d", 4, 1), "conv2d", "precision");
  // 2^30 x 2^30 channels of 3x3 weights: 9·2^60 floats, more than a
  // std::vector can hold, so no reader could ever allocate them.
  expect_rejected(patched(patched(conv, "conv2d", 0, 1 << 30), "conv2d", 1,
                          1 << 30),
                  "conv2d", "weight count");

  const std::string dense =
      saved(one_layer(std::make_unique<nn::Dense>(3, 2)));
  expect_rejected(patched(dense, "dense", 1, 0), "dense", "out_features");

  const std::string pool =
      saved(one_layer(std::make_unique<nn::MaxPool2D>(2)));
  expect_rejected(patched(pool, "maxpool", 0, 1), "maxpool", "size");

  const std::string dropout =
      saved(one_layer(std::make_unique<nn::Dropout>(0.25)));
  expect_rejected(patched(dropout, "dropout", 0,
                          std::numeric_limits<double>::quiet_NaN()),
                  "dropout", "rate");
}

TEST(Network, CountingParamsKeepsThePacks) {
  // param_count() and memory_bytes() only read the weights, so the packs
  // survive them and the next forward builds none.
  Network net;
  net.emplace<nn::Conv2D>(2, 8, 3);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Conv2D>(8, 1, 3);
  net.prepack_for_inference();
  const Network& view = net;
  EXPECT_EQ(view.param_count(), (2u * 8 * 9 + 8) + (8u * 9 + 1));
  EXPECT_GT(view.memory_bytes(Shape{2, 32, 32}), 0u);

  obs::Counter& pack_calls = obs::counter("nn.pack_calls");
  const std::uint64_t before = pack_calls.value();
  nn::Workspace ws;
  view.forward_inference(Tensor(Shape{2, 32, 32}, 0.5f), ws);
  EXPECT_EQ(pack_calls.value(), before);
}

TEST(Network, EraseAndInsertLayer) {
  Network net = small_cnn();
  const auto depth = net.depth();
  net.erase_layer(1);  // Remove the first ReLU.
  EXPECT_EQ(net.depth(), depth - 1);
  net.insert_layer(1, std::make_unique<nn::ReLU>());
  EXPECT_EQ(net.depth(), depth);
  EXPECT_THROW(net.erase_layer(100), std::out_of_range);
  EXPECT_THROW(net.insert_layer(100, std::make_unique<nn::ReLU>()),
               std::out_of_range);
}

TEST(Network, DescribeListsLayers) {
  const Network net = small_cnn();
  const std::string desc = net.describe();
  EXPECT_NE(desc.find("Conv2D(2->4, k3)"), std::string::npos);
  EXPECT_NE(desc.find("MaxPool2D"), std::string::npos);
  EXPECT_NE(desc.find("Upsample2D"), std::string::npos);
}

TEST(Optimizer, AdamReducesQuadraticLoss) {
  // Fit y = 2x with a single Dense(1,1).
  Network net;
  net.emplace<nn::Dense>(1, 1);
  util::Rng rng(3);
  net.init_weights(rng);
  nn::Adam adam(0.05);

  double first_loss = -1.0;
  double last_loss = -1.0;
  for (int epoch = 0; epoch < 200; ++epoch) {
    double epoch_loss = 0.0;
    net.zero_grads();
    for (float xv : {-1.0f, 0.5f, 1.0f, 2.0f}) {
      Tensor x(Shape{1, 1, 1});
      x[0] = xv;
      Tensor target(Shape{1, 1, 1});
      target[0] = 2.0f * xv;
      const Tensor pred = net.forward(x, true);
      const auto loss = nn::mse_loss(pred, target);
      epoch_loss += loss.value;
      net.backward(loss.grad);
    }
    adam.step(net, 4.0);
    if (epoch == 0) first_loss = epoch_loss;
    last_loss = epoch_loss;
  }
  EXPECT_LT(last_loss, first_loss * 1e-3);
}

TEST(Optimizer, ZeroGradsClearsAccumulation) {
  Network net;
  net.emplace<nn::Dense>(2, 1);
  Tensor x(Shape{1, 1, 2}, 1.0f);
  Tensor target(Shape{1, 1, 1}, 0.0f);
  const Tensor pred = net.forward(x, true);
  net.backward(nn::mse_loss(pred, target).grad);
  bool any_nonzero = false;
  for (auto& view : net.params()) {
    for (float g : view.grads) {
      if (g != 0.0f) any_nonzero = true;
    }
  }
  EXPECT_TRUE(any_nonzero);
  net.zero_grads();
  for (auto& view : net.params()) {
    for (float g : view.grads) {
      EXPECT_FLOAT_EQ(g, 0.0f);
    }
  }
}

}  // namespace
}  // namespace sfn
