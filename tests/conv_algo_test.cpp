// Tests for the inference fast path: im2col layout, ConvAlgo dispatch,
// batched evaluation, and workspace reuse (the steady-state inference loop
// must not touch the heap).

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/im2col.hpp"
#include "nn/network.hpp"
#include "nn/workspace.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>
#include <omp.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
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

void expect_close(const Tensor& a, const Tensor& b, double rel_tol) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.numel(); ++i) {
    const double va = a[i];
    const double vb = b[i];
    const double tol = rel_tol * std::max(1.0, std::abs(va));
    ASSERT_NEAR(va, vb, tol) << "at flat index " << i;
  }
}

TEST(ConvAlgoParity, Im2colUnfoldsCorrectly) {
  const int c = 3, h = 5, w = 7, k = 3;
  const Tensor input = random_tensor(Shape{c, h, w}, 77);
  std::vector<float> col(static_cast<std::size_t>(c) * k * k * h * w);
  nn::im2col(input.data().data(), c, h, w, k, col.data());

  const int pad = k / 2;
  const std::size_t n_pixels = static_cast<std::size_t>(h) * w;
  for (int ic = 0; ic < c; ++ic) {
    for (int ky = 0; ky < k; ++ky) {
      for (int kx = 0; kx < k; ++kx) {
        const std::size_t r = (static_cast<std::size_t>(ic) * k + ky) * k + kx;
        for (int y = 0; y < h; ++y) {
          for (int x = 0; x < w; ++x) {
            const int sy = y + ky - pad;
            const int sx = x + kx - pad;
            const float expected =
                (sy >= 0 && sy < h && sx >= 0 && sx < w)
                    ? input.at(ic, sy, sx)
                    : 0.0f;
            const std::size_t n = static_cast<std::size_t>(y) * w + x;
            ASSERT_EQ(expected, col[r * n_pixels + n])
                << "r=" << r << " y=" << y << " x=" << x;
          }
        }
      }
    }
  }
}

TEST(ConvAlgoParity, RangedIm2colMatchesFull) {
  const int c = 2, h = 9, w = 11, k = 5;
  const Tensor input = random_tensor(Shape{c, h, w}, 91);
  const std::size_t rows = static_cast<std::size_t>(c) * k * k;
  const std::size_t n_pixels = static_cast<std::size_t>(h) * w;
  std::vector<float> full(rows * n_pixels);
  nn::im2col(input.data().data(), c, h, w, k, full.data());

  const std::size_t n0 = 13, n1 = 61;  // Deliberately crosses image rows.
  std::vector<float> part(rows * (n1 - n0));
  nn::im2col_range(input.data().data(), c, h, w, k, n0, n1, part.data());
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t n = n0; n < n1; ++n) {
      ASSERT_EQ(full[r * n_pixels + n], part[r * (n1 - n0) + (n - n0)]);
    }
  }
}

TEST(ConvAlgoDispatch, OverrideForcesAlgorithm) {
  // The layer's precision overrides the shape rule; for float layers the
  // shape alone picks the kernel.
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

  // A quantized candidate never runs at full precision, whatever the shape.
  wide.set_precision(nn::Precision::kInt8);
  EXPECT_EQ(nn::ConvAlgo::kInt8, wide.choose_algo(big));
  EXPECT_EQ(nn::ConvAlgo::kInt8, wide.choose_algo(tiny));
  wide.set_precision(nn::Precision::kBf16);
  EXPECT_EQ(nn::ConvAlgo::kBf16, wide.choose_algo(big));
  EXPECT_EQ(nn::ConvAlgo::kBf16, wide.choose_algo(tiny));
}

TEST(ConvAlgoDispatch, ForwardIntoMatchesForward) {
  nn::Network net;
  net.emplace<nn::Conv2D>(2, 8, 3);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Conv2D>(8, 8, 3, /*residual=*/true);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Conv2D>(8, 1, 1);

  const Tensor input = random_tensor(Shape{2, 33, 31}, 5);
  const Tensor ref = net.forward(input, /*train=*/false);
  nn::Workspace ws;
  const Tensor& fast = net.forward_inference(input, ws);
  expect_close(ref, fast, 1e-5);
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

  util::ThreadPool pool(4);
  const std::vector<Tensor> batched = net.forward_batch(inputs, pool);
  ASSERT_EQ(expected.size(), batched.size());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    ASSERT_EQ(expected[i].shape(), batched[i].shape());
    for (std::size_t j = 0; j < batched[i].numel(); ++j) {
      // The batch path runs the exact same kernels, so results are
      // bit-identical to sequential evaluation.
      ASSERT_EQ(expected[i][j], batched[i][j]) << "problem " << i;
    }
  }
}

TEST(WorkspaceReuse, SteadyStateInferenceIsAllocationFree) {
  // Single OpenMP thread so runtime team bookkeeping cannot allocate
  // behind our back; the property under test is our own kernel code.
  const int old_threads = omp_get_max_threads();
  omp_set_num_threads(1);

  // Packed fused conv+ReLU pairs, then a naive 1x1 projection.
  nn::Network net;
  net.emplace<nn::Conv2D>(2, 8, 3);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Conv2D>(8, 8, 3, /*residual=*/true);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Conv2D>(8, 1, 1);
  net.prepack_for_inference();

  const Tensor input = random_tensor(Shape{2, 48, 48}, 9);
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
  omp_set_num_threads(old_threads);
}

}  // namespace
