// Tests for the SIMD microkernel layer (nn/kernels, DESIGN.md §13):
// packed-vs-naive parity, scalar-vs-SIMD bit-exactness, fused-ReLU
// epilogues (in the kernels and across a whole network), pack-cache
// invalidation on weight mutation, and the zero-allocation steady state.

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/kernels/isa.hpp"
#include "nn/network.hpp"
#include "nn/workspace.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>
#include <omp.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>

// ---------------------------------------------------------------------------
// Armed allocation counter (same scheme as conv_algo_test.cpp).
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

void expect_bit_identical(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "at flat index " << i;
  }
}

struct ConvCase {
  int in_c;
  int out_c;
  int k;
  int h;
  int w;
  bool residual;
};

// Shapes chosen to exercise every microkernel edge: partial panels
// (out_c % 6 != 0, down to the 1-3 row panels of every model's final
// projection), partial strips (pixels % 16 != 0), 1x1 convs (B taken
// straight from the input), the im2col chunking boundary, and residuals.
const ConvCase kCases[] = {
    {1, 1, 1, 8, 8, false},    {2, 8, 3, 16, 16, false},
    {8, 8, 3, 19, 23, true},   {16, 16, 3, 32, 32, false},
    {16, 16, 3, 17, 13, true}, {4, 6, 5, 21, 21, false},
    {8, 8, 5, 15, 33, true},   {16, 1, 1, 24, 24, false},
    {3, 5, 5, 9, 31, false},   {8, 8, 1, 19, 17, true},
    {2, 7, 3, 16, 16, false},  {8, 13, 3, 64, 64, false},
    {8, 1, 3, 48, 48, false},  {4, 1, 3, 33, 47, false},
    {16, 2, 3, 31, 29, false}, {8, 3, 5, 24, 40, false},
};

TEST(PackedKernel, MatchesNaiveAcrossShapes) {
  nn::Workspace ws;
  for (const auto& c : kCases) {
    SCOPED_TRACE(testing::Message()
                 << "in_c=" << c.in_c << " out_c=" << c.out_c << " k=" << c.k
                 << " h=" << c.h << " w=" << c.w << " res=" << c.residual);
    nn::Conv2D conv(c.in_c, c.out_c, c.k, c.residual);
    const Tensor input = random_tensor(
        Shape{c.in_c, c.h, c.w},
        0xbeefull ^ (static_cast<std::uint64_t>(c.out_c) << 8) ^ c.k);
    Tensor naive;
    Tensor packed;
    conv.forward_naive_into(input, naive);
    conv.forward_packed_into(input, packed, ws);
    expect_close(naive, packed, 1e-5);
  }
}

TEST(PackedKernel, ScalarAndSimdAreBitIdentical) {
  // The scalar reference accumulates with std::fmaf in the same order as
  // the SIMD kernels, so results must match bit for bit — this is what
  // lets the committed golden trajectories pass on the CI scalar leg.
  if (nn::kernels::detected_isa() == nn::kernels::Isa::kScalar) {
    GTEST_SKIP() << "no SIMD ISA on this host/build";
  }
  nn::Workspace ws;
  for (const auto& c : kCases) {
    SCOPED_TRACE(testing::Message()
                 << "in_c=" << c.in_c << " out_c=" << c.out_c << " k=" << c.k
                 << " h=" << c.h << " w=" << c.w << " res=" << c.residual);
    nn::Conv2D conv(c.in_c, c.out_c, c.k, c.residual);
    const Tensor input = random_tensor(Shape{c.in_c, c.h, c.w}, 0xf00d);

    nn::kernels::set_isa_override(nn::kernels::Isa::kScalar);
    Tensor scalar;
    conv.forward_packed_into(input, scalar, ws);
    nn::kernels::set_isa_override(nn::kernels::detected_isa());
    Tensor simd;
    conv.forward_packed_into(input, simd, ws);
    nn::kernels::reset_isa_override();

    expect_bit_identical(scalar, simd);
  }
}

TEST(PackedKernel, FusedReluMatchesSeparatePass) {
  nn::Workspace ws;
  nn::ReLU relu;
  for (const auto& c : kCases) {
    SCOPED_TRACE(testing::Message()
                 << "in_c=" << c.in_c << " out_c=" << c.out_c << " k=" << c.k);
    nn::Conv2D conv(c.in_c, c.out_c, c.k, c.residual);
    const Tensor input = random_tensor(Shape{c.in_c, c.h, c.w}, 0xfe11);

    Tensor plain;
    conv.forward_packed_into(input, plain, ws);
    Tensor separate;
    relu.forward_into(plain, separate, ws);

    Tensor fused;
    conv.forward_packed_into(input, fused, ws, nn::Precision::kFloat32,
                             /*fuse_relu=*/true);
    expect_bit_identical(separate, fused);
  }
}

TEST(PackedKernel, NetworkElidesReluAfterFusingConv) {
  // forward_inference folds every Conv→ReLU pair into the conv's epilogue,
  // on the packed and the naive path alike; fusion reorders nothing, so the
  // result equals the layer-by-layer Network::forward bit for bit.
  nn::Network net;
  net.emplace<nn::Conv2D>(2, 8, 3);  // Packed.
  net.emplace<nn::ReLU>();
  net.emplace<nn::Conv2D>(8, 8, 3, /*residual=*/true);  // Packed.
  net.emplace<nn::ReLU>();
  net.emplace<nn::Conv2D>(8, 4, 1);  // Naive: 8 taps.
  net.emplace<nn::ReLU>();
  net.emplace<nn::Conv2D>(4, 1, 3);  // Packed, one-row panel.
  const Tensor input = random_tensor(Shape{2, 32, 32}, 0xabc);

  const Tensor unfused = net.forward(input, /*train=*/false);
  obs::Counter& fused = obs::counter("nn.conv.fused_relu_calls");
  const std::uint64_t before = fused.value();
  nn::Workspace ws;
  const Tensor& inferred = net.forward_inference(input, ws);
  EXPECT_EQ(fused.value() - before, 3u);
  expect_bit_identical(unfused, inferred);
}

TEST(PackedKernel, WeightMutationInvalidatesPack) {
  nn::Conv2D conv(4, 6, 3);
  const Tensor input = random_tensor(Shape{4, 16, 16}, 0x51);
  nn::Workspace ws;

  Tensor before;
  conv.forward_packed_into(input, before, ws);
  const auto pack_before = conv.packed(nn::Precision::kFloat32);

  conv.weight(3, 1, 0, 2) += 0.75f;
  conv.bias(5) -= 0.25f;

  Tensor naive;
  Tensor packed;
  conv.forward_naive_into(input, naive);
  conv.forward_packed_into(input, packed, ws);
  expect_close(naive, packed, 1e-5);

  const auto pack_after = conv.packed(nn::Precision::kFloat32);
  EXPECT_NE(pack_before.get(), pack_after.get())
      << "stale packed weights survived a weight mutation";
  EXPECT_GT(pack_after->revision, pack_before->revision);
}

TEST(PackedKernel, SteadyStatePackedInferenceIsAllocationFree) {
  const int old_threads = omp_get_max_threads();
  omp_set_num_threads(1);

  // Every conv here runs the packed kernel, down to the one-row panel of
  // the final projection; WorkspaceReuse covers the mixed packed/naive net.
  nn::Network net;
  net.emplace<nn::Conv2D>(2, 8, 3);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Conv2D>(8, 8, 3, /*residual=*/true);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Conv2D>(8, 1, 3);
  net.prepack_for_inference();

  const Tensor input = random_tensor(Shape{2, 48, 48}, 0xa110c);
  nn::Workspace ws;
  for (int warm = 0; warm < 3; ++warm) {
    net.forward_inference(input, ws);
  }

  obs::Counter& packed_calls = obs::counter("nn.conv.packed_calls");
  const std::uint64_t packed_before = packed_calls.value();
  g_alloc_count.store(0);
  g_count_allocs.store(true);
  double checksum = 0.0;
  for (int i = 0; i < 8; ++i) {
    checksum += net.forward_inference(input, ws).sum();
  }
  g_count_allocs.store(false);

  EXPECT_EQ(packed_calls.value() - packed_before, 8u * 3u)
      << "a conv left the packed kernel";
  EXPECT_EQ(0u, g_alloc_count.load())
      << "steady-state packed inference touched the heap";
  EXPECT_TRUE(std::isfinite(checksum));
  omp_set_num_threads(old_threads);
}

TEST(PackedKernel, RepeatedLookupsShareOneSnapshot) {
  nn::Conv2D conv(4, 8, 3);
  conv.set_precision(nn::Precision::kInt8);
  const auto before = conv.packed(conv.precision());
  // A second lookup with unchanged weights must return the same snapshot
  // (prepack_for_inference relies on this to be an idempotent no-op).
  const auto again = conv.packed(conv.precision());
  EXPECT_EQ(before.get(), again.get());
}

}  // namespace
