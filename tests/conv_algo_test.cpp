// Tests for the inference fast path: ConvAlgo dispatch, batched
// evaluation, and workspace reuse (the steady-state inference loop must not
// touch the heap, on one thread or a full team).

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/network.hpp"
#include "nn/pooling.hpp"
#include "nn/workspace.hpp"
#include "quality/mlp.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>
#include <omp.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <vector>

// ---------------------------------------------------------------------------
// Global allocation counter. Only counts while armed, so gtest bookkeeping
// between tests does not pollute the workspace-reuse assertions.
// GCC pairs the inlined malloc-backed operator new with the free-backed
// operator delete and warns; the pairing is intentional here.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n ? n : 1)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t n) { return ::operator new(n); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
// ---------------------------------------------------------------------------

namespace {

using namespace sfn;
using nn::Shape;
using nn::Tensor;

Tensor random_tensor(Shape shape, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor t(shape);
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

/// Bit-for-bit equality, NaN payloads and zero signs included.
bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.numel() * sizeof(float)) == 0;
}

TEST(ConvAlgoDispatch, OverrideForcesAlgorithm) {
  // The input shape alone picks the kernel.
  nn::Conv2D wide(16, 16, 3);
  nn::Conv2D proj(8, 1, 3);  // A ladder model's final projection.
  const Shape big{16, 64, 64};
  const Shape tiny{16, 4, 4};

  // Packed for shapes wide enough to amortise packing, narrow outputs
  // included; naive for tiny images and for very short columns.
  EXPECT_EQ(nn::ConvAlgo::kPacked, wide.choose_algo(big));
  EXPECT_EQ(nn::ConvAlgo::kPacked, proj.choose_algo(Shape{8, 48, 48}));
  EXPECT_EQ(nn::ConvAlgo::kNaive, wide.choose_algo(tiny));
  EXPECT_EQ(nn::ConvAlgo::kNaive,
            nn::Conv2D(8, 8, 1).choose_algo(Shape{8, 64, 64}));
}

TEST(ConvAlgoDispatch, ForwardIntoMatchesForward) {
  // Every layer kind modelgen::build_network and quality::build_mlp emit:
  // packed and naive convs (residual, and fused with a following ReLU by
  // forward_inference), max and average pooling, dropout, upsampling,
  // dense layers and the sigmoid head.
  nn::Network cnn;
  cnn.emplace<nn::Conv2D>(2, 8, 3);  // Packed at 33x31.
  cnn.emplace<nn::ReLU>();
  cnn.emplace<nn::MaxPool2D>(2);
  cnn.emplace<nn::Conv2D>(8, 8, 3, /*residual=*/true);  // Packed at 17x16.
  cnn.emplace<nn::ReLU>();
  cnn.emplace<nn::Dropout>(0.25);
  cnn.emplace<nn::AvgPool2D>(2);
  cnn.emplace<nn::Conv2D>(8, 8, 5);  // Naive at 9x8.
  cnn.emplace<nn::ReLU>();
  cnn.emplace<nn::Upsample2D>(2);
  cnn.emplace<nn::Conv2D>(8, 1, 1);  // Naive: a short column.
  util::Rng rng(5);
  const nn::Network mlp = quality::build_mlp(quality::MlpTopology::kMlp2, rng);

  const struct {
    const char* name;
    nn::Network net;
    Tensor input;
  } cases[] = {
      {"cnn", cnn, random_tensor(Shape{2, 33, 31}, 5)},
      {"mlp", mlp, random_tensor(Shape{1, 1, quality::kFeatureDim}, 6)},
  };
  for (const auto& c : cases) {
    nn::Network net = c.net;
    const Tensor ref = net.forward(c.input, /*train=*/false);
    nn::Workspace ws;
    EXPECT_TRUE(same_bits(ref, net.forward_inference(c.input, ws))) << c.name;
  }
}

TEST(ConvAlgoDispatch, LayerForwardMatchesForwardIntoOnNegativeZeroAndNan) {
  // Training's forward(x, false) and inference's forward_into are one
  // computation: they agree bit for bit even where the sign of zero and
  // NaN decide the output.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const auto input = [&](Shape shape) {
    Tensor x = random_tensor(shape, 11);
    for (std::size_t i = 0; i < x.numel(); i += 5) {
      x[i] = -0.0f;
    }
    x[3] = nan;
    return x;
  };
  const Shape image{4, 18, 17};
  std::vector<std::pair<std::unique_ptr<nn::Layer>, Shape>> layers;
  layers.emplace_back(std::make_unique<nn::Conv2D>(4, 8, 3), image);
  layers.emplace_back(std::make_unique<nn::Conv2D>(4, 4, 3, true), image);
  layers.emplace_back(std::make_unique<nn::Conv2D>(4, 8, 3), Shape{4, 6, 5});
  layers.emplace_back(std::make_unique<nn::ReLU>(), image);
  layers.emplace_back(std::make_unique<nn::Sigmoid>(), image);
  layers.emplace_back(std::make_unique<nn::MaxPool2D>(2), image);
  layers.emplace_back(std::make_unique<nn::AvgPool2D>(2), image);
  layers.emplace_back(std::make_unique<nn::Upsample2D>(2), image);
  layers.emplace_back(std::make_unique<nn::Dropout>(0.5), image);
  layers.emplace_back(std::make_unique<nn::Dense>(48, 8), Shape{1, 1, 48});
  for (auto& [layer, shape] : layers) {
    const Tensor x = input(shape);
    const Tensor ref = layer->forward(x, /*train=*/false);
    Tensor out;
    nn::Workspace ws;
    layer->forward_into(x, out, ws);
    EXPECT_TRUE(same_bits(ref, out)) << layer->describe();
  }
}

TEST(ForwardBatch, MatchesSequentialInference) {
  nn::Network net;
  net.emplace<nn::Conv2D>(2, 8, 3);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Conv2D>(8, 8, 3, /*residual=*/true);
  net.emplace<nn::Conv2D>(8, 1, 1);

  std::vector<Tensor> inputs;
  for (int i = 0; i < 13; ++i) {
    inputs.push_back(random_tensor(Shape{2, 24, 24}, 1000 + i));
  }

  nn::Workspace ws;
  std::vector<Tensor> expected;
  for (const auto& in : inputs) {
    expected.push_back(net.forward_inference(in, ws));
  }

  std::vector<Tensor> batched(inputs.size());
  std::vector<const Tensor*> in_ptrs;
  std::vector<Tensor*> out_ptrs;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    in_ptrs.push_back(&inputs[i]);
    out_ptrs.push_back(&batched[i]);
  }
  util::ThreadPool pool(4);
  net.forward_batch(in_ptrs, out_ptrs, pool);
  for (std::size_t i = 0; i < batched.size(); ++i) {
    // The batch path runs the exact same kernels, so results are
    // bit-identical to sequential evaluation.
    EXPECT_TRUE(same_bits(expected[i], batched[i])) << "problem " << i;
  }
}

TEST(WorkspaceReuse, SteadyStateInferenceIsAllocationFree) {
  // One pass on a single OpenMP thread, one on a four-thread team: each
  // packed conv opens one team and every per-thread slab is sized before
  // it opens, so a warm workspace serves either width without touching the
  // heap. (libgomp's own team bookkeeping uses malloc, which this counter
  // does not see; the property under test is our own kernel code.)
  const int old_threads = omp_get_max_threads();

  // Packed fused conv+ReLU pairs, then a naive 1x1 projection.
  nn::Network net;
  net.emplace<nn::Conv2D>(2, 8, 3);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Conv2D>(8, 8, 3, /*residual=*/true);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Conv2D>(8, 1, 1);
  net.prepack_for_inference();

  const Tensor input = random_tensor(Shape{2, 48, 48}, 9);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << threads << " OpenMP threads");
    omp_set_num_threads(threads);
    nn::Workspace ws;
    for (int warm = 0; warm < 3; ++warm) {
      net.forward_inference(input, ws);
    }

    g_alloc_count.store(0);
    g_count_allocs.store(true);
    double checksum = 0.0;
    for (int i = 0; i < 8; ++i) {
      checksum += net.forward_inference(input, ws).sum();
    }
    g_count_allocs.store(false);

    EXPECT_EQ(0u, g_alloc_count.load())
        << "steady-state forward_inference touched the heap";
    EXPECT_TRUE(std::isfinite(checksum));
  }
  omp_set_num_threads(old_threads);
}

}  // namespace
