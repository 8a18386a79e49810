// Tests for the SIMD microkernel layer (nn/kernels, DESIGN.md §13):
// packed-vs-naive parity, scalar-vs-SIMD bit-exactness, byte equality with
// the original im2col driver (tests/packed_conv_reference.hpp) at every
// team size on every ISA the host runs, fused-ReLU epilogues (in the
// kernels and across a whole network), build-once packs (prepacked ≡
// workspace-packed, dropped on weight mutation, never rebuilt by
// inference), and the zero-allocation steady state on one thread and on a
// full team.

#include "core/offline.hpp"
#include "modelgen/arch_spec.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/kernels/isa.hpp"
#include "nn/kernels/microkernel.hpp"
#include "nn/kernels/pack.hpp"
#include "nn/kernels/packed_conv.hpp"
#include "nn/network.hpp"
#include "nn/workspace.hpp"
#include "obs/metrics.hpp"
#include "packed_conv_reference.hpp"
#include "util/rng.hpp"
#include "workload/problems.hpp"

#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iterator>
#include <limits>
#include <new>
#include <vector>

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

void expect_same_bytes(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  EXPECT_EQ(0, std::memcmp(a.data().data(), b.data().data(),
                           a.numel() * sizeof(float)));
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
// projection), row tails (w % 16 != 0), 1x1 convs (a slab without halo),
// grids taller than one slab band, and residuals.
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

/// Pins `isa` and checks that the pin reached the kernel table: a pin that
/// fell back to scalar would still give the reference's bits, and the SIMD
/// tiles would silently drop out of the test.
void pin(nn::kernels::Isa isa) {
  nn::kernels::set_isa_override(isa);
  EXPECT_EQ(nn::kernels::active_kernels().isa, isa)
      << "pin to " << nn::kernels::isa_name(isa) << " not honoured";
}

TEST(PackedKernel, ScalarAndSimdAreBitIdentical) {
  // The scalar reference accumulates with std::fmaf in the same order as
  // the SIMD kernels, so results must match bit for bit — this is what
  // lets the committed golden trajectories pass on the CI scalar leg.
  const std::vector<nn::kernels::Isa>& isas = nn::kernels::runnable_isas();
  if (isas.size() < 2) {
    GTEST_SKIP() << "no SIMD ISA on this host/build";
  }
  nn::Workspace ws;
  for (const auto& c : kCases) {
    nn::Conv2D conv(c.in_c, c.out_c, c.k, c.residual);
    const Tensor input = random_tensor(Shape{c.in_c, c.h, c.w}, 0xf00d);
    pin(nn::kernels::Isa::kScalar);
    Tensor scalar;
    conv.forward_packed_into(input, scalar, ws);
    for (const nn::kernels::Isa isa : isas) {
      if (isa == nn::kernels::Isa::kScalar) continue;
      SCOPED_TRACE(testing::Message()
                   << "in_c=" << c.in_c << " out_c=" << c.out_c
                   << " k=" << c.k << " h=" << c.h << " w=" << c.w
                   << " res=" << c.residual
                   << " isa=" << nn::kernels::isa_name(isa));
      pin(isa);
      Tensor simd;
      conv.forward_packed_into(input, simd, ws);
      expect_bit_identical(scalar, simd);
    }
    nn::kernels::reset_isa_override();
  }
}

// Edge shapes beyond kCases for the team-size sweep: rows narrower than a
// strip, row tails on grids with fewer rows than threads, single rows,
// 5x5 kernels whose halo is as wide as the grid, and 1x1 convs.
const ConvCase kEdgeCases[] = {
    {3, 7, 3, 20, 9, false}, {8, 8, 3, 5, 15, false},  // w < kNr
    {8, 8, 3, 2, 37, false}, {4, 5, 3, 3, 21, false},  // h < team, w % kNr
    {8, 8, 3, 1, 40, false}, {2, 3, 3, 1, 7, false},   // h = 1
    {4, 6, 5, 4, 4, false},  {3, 3, 5, 3, 2, false},   // k = 5 on ≤ 4²
    {6, 6, 1, 5, 19, false}, {16, 1, 1, 7, 33, false}, // k = 1
};

/// kEdgeCases plus rows that cross each strip and tile boundary of every
/// kernel set (16, 32, 64 and 128 pixels) and end in a partial vector, at
/// the panel heights the ladder uses (1, 2, 8 = 6 + 2, 13 = 6 + 6 + 1).
/// Each width and each channel count meets both 3x3 and 5x5 kernels, and
/// in_c == out_c up to 8 channels, so that the residual runs too.
std::vector<ConvCase> edge_cases() {
  std::vector<ConvCase> cases(std::begin(kEdgeCases), std::end(kEdgeCases));
  const int widths[] = {31, 33, 63, 65, 95, 127, 129};
  const int channels[] = {1, 2, 8, 13};
  for (std::size_t wi = 0; wi < std::size(widths); ++wi) {
    for (std::size_t ci = 0; ci < std::size(channels); ++ci) {
      const int c = channels[ci];
      cases.push_back({c <= 8 ? c : 3, c, (wi + ci) % 2 == 0 ? 3 : 5, 2,
                       widths[wi], false});
    }
  }
  return cases;
}

/// The conv's weights, packed the way its packed path packs them.
nn::kernels::PackedConvWeights pack_of(nn::Conv2D& conv) {
  const auto params = conv.params();
  nn::kernels::PackedConvWeights pw;
  nn::kernels::pack_conv_weights(
      params[0].values.data(), params[1].values.data(), conv.out_channels(),
      conv.in_channels() * conv.kernel() * conv.kernel(), &pw);
  return pw;
}

/// The ISAs the oracle tests pin: every one this build and CPU run but
/// AVX-512, which has tests of its own so that a log shows whether a host
/// ran its tiles.
std::vector<nn::kernels::Isa> isas_under_test() {
  std::vector<nn::kernels::Isa> isas;
  for (const nn::kernels::Isa isa : nn::kernels::runnable_isas()) {
    if (isa != nn::kernels::Isa::kAvx512) isas.push_back(isa);
  }
  return isas;
}

bool runs_avx512() {
  const std::vector<nn::kernels::Isa>& isas = nn::kernels::runnable_isas();
  return std::find(isas.begin(), isas.end(), nn::kernels::Isa::kAvx512) !=
         isas.end();
}

/// The slab driver must give the original im2col driver's bytes for every
/// shape, epilogue, team size and ISA: the same fma chain per output
/// element over the same B values, the same +0.0f halo, and no
/// cross-thread accumulation. Each call gets a fresh workspace, so an
/// undersized slab reads past its allocation instead of into a larger
/// buffer a previous shape left behind.
void expect_reference_at_every_team_size(
    const std::vector<nn::kernels::Isa>& isas) {
  const int old_threads = omp_get_max_threads();
  std::vector<ConvCase> cases(std::begin(kCases), std::end(kCases));
  const std::vector<ConvCase> edges = edge_cases();
  cases.insert(cases.end(), edges.begin(), edges.end());
  std::vector<float> col;
  for (const auto& c : cases) {
    for (const bool residual : {false, true}) {
      if (residual && c.in_c != c.out_c) continue;
      nn::Conv2D conv(c.in_c, c.out_c, c.k, residual);
      const nn::kernels::PackedConvWeights pw = pack_of(conv);
      const Tensor input = random_tensor(
          Shape{c.in_c, c.h, c.w},
          0x7ea5ull ^ (static_cast<std::uint64_t>(c.h) << 16) ^ c.w);
      for (const bool relu : {false, true}) {
        nn::kernels::ConvArgs args;
        args.in_c = c.in_c;
        args.out_c = c.out_c;
        args.k = c.k;
        args.h = c.h;
        args.w = c.w;
        args.residual = residual;
        args.relu = relu;
        args.in = input.data().data();
        Tensor expected(Shape{c.out_c, c.h, c.w});
        args.out = expected.data().data();
        test::reference_packed_conv_forward(pw, args, col);
        for (const nn::kernels::Isa isa : isas) {
          pin(isa);
          for (const int team : {1, 2, 3, 4, 8}) {
            SCOPED_TRACE(testing::Message()
                         << "in_c=" << c.in_c << " out_c=" << c.out_c
                         << " k=" << c.k << " h=" << c.h << " w=" << c.w
                         << " res=" << residual << " relu=" << relu
                         << " isa=" << nn::kernels::isa_name(isa)
                         << " team=" << team);
            omp_set_num_threads(team);
            // NaN marks every element the driver fails to write.
            Tensor out(Shape{c.out_c, c.h, c.w},
                       std::numeric_limits<float>::quiet_NaN());
            args.out = out.data().data();
            nn::Workspace ws;
            nn::kernels::packed_conv_forward(pw, args, ws);
            expect_same_bytes(expected, out);
          }
        }
        nn::kernels::reset_isa_override();
      }
    }
  }
  omp_set_num_threads(old_threads);
}

TEST(PackedKernel, MatchesReferenceAtEveryTeamSize) {
  expect_reference_at_every_team_size(isas_under_test());
}

TEST(PackedKernel, Avx512MatchesReferenceAtEveryTeamSize) {
  if (!runs_avx512()) {
    GTEST_SKIP() << "AVX-512F tiles not runnable here (detected ISA: "
                 << nn::kernels::isa_name(nn::kernels::detected_isa())
                 << ")";
  }
  expect_reference_at_every_team_size({nn::kernels::Isa::kAvx512});
}

/// Oracle forward pass: each conv runs the original driver on its packed
/// weights, with a following ReLU folded in as forward_inference folds it.
Tensor reference_forward(nn::Network& net, const Tensor& input) {
  Tensor cur = input;
  std::vector<float> col;
  for (std::size_t li = 0; li < net.depth(); ++li) {
    auto& conv = dynamic_cast<nn::Conv2D&>(net.layer(li));
    const bool relu = li + 1 < net.depth() &&
                      dynamic_cast<nn::ReLU*>(&net.layer(li + 1)) != nullptr;
    const nn::kernels::PackedConvWeights pw = pack_of(conv);
    const Shape shape = cur.shape();
    nn::kernels::ConvArgs args;
    args.in_c = shape.c;
    args.out_c = conv.out_channels();
    args.k = conv.kernel();
    args.h = shape.h;
    args.w = shape.w;
    args.residual = conv.residual();
    args.relu = relu;
    args.in = cur.data().data();
    Tensor next(conv.output_shape(shape));
    args.out = next.data().data();
    test::reference_packed_conv_forward(pw, args, col);
    cur = std::move(next);
    if (relu) ++li;
  }
  return cur;
}

/// The most accurate ladder model at the served (48²) and solo (128²)
/// grids, prepacked as served: every layer runs the packed kernel, and the
/// whole forward pass gives the original driver's bytes on one thread and
/// on a four-thread team, on each of `isas`.
void expect_tompson_forward_matches_reference(
    const std::vector<nn::kernels::Isa>& isas) {
  const int old_threads = omp_get_max_threads();
  util::Rng rng(0x7035);
  nn::Network net = modelgen::build_network(modelgen::tompson_spec(8), rng);
  const nn::Network prepacked = net;
  prepacked.prepack_for_inference();
  for (const int n : {48, 128}) {
    const Tensor input = random_tensor(Shape{2, n, n}, 0x1280ull + n);
    const Tensor expected = reference_forward(net, input);
    for (const nn::kernels::Isa isa : isas) {
      pin(isa);
      for (const int team : {1, 4}) {
        SCOPED_TRACE(testing::Message()
                     << "grid=" << n << " team=" << team
                     << " isa=" << nn::kernels::isa_name(isa));
        omp_set_num_threads(team);
        nn::Workspace ws;
        expect_same_bytes(expected, prepacked.forward_inference(input, ws));
      }
    }
    nn::kernels::reset_isa_override();
  }
  omp_set_num_threads(old_threads);
}

TEST(PackedKernel, TompsonForwardMatchesReferenceAtTeamsOneAndFour) {
  expect_tompson_forward_matches_reference(isas_under_test());
}

TEST(PackedKernel, Avx512TompsonForwardMatchesReference) {
  if (!runs_avx512()) {
    GTEST_SKIP() << "AVX-512F tiles not runnable here (detected ISA: "
                 << nn::kernels::isa_name(nn::kernels::detected_isa())
                 << ")";
  }
  expect_tompson_forward_matches_reference({nn::kernels::Isa::kAvx512});
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
    conv.forward_packed_into(input, fused, ws, /*fuse_relu=*/true);
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

TEST(PackedKernel, PrepackedMatchesWorkspacePacked) {
  // A conv without a pack of its own packs into the caller's workspace on
  // every call; a prepacked conv reads the pack it built once. The two
  // layouts are the same, so the outputs are the same bytes.
  nn::Workspace ws;
  for (const auto& c : kCases) {
    for (const bool residual : {false, true}) {
      if (residual && c.in_c != c.out_c) continue;
      for (const bool relu : {false, true}) {
        SCOPED_TRACE(testing::Message()
                     << "in_c=" << c.in_c << " out_c=" << c.out_c
                     << " k=" << c.k << " h=" << c.h << " w=" << c.w
                     << " res=" << residual << " relu=" << relu);
        nn::Conv2D conv(c.in_c, c.out_c, c.k, residual);
        const Tensor input = random_tensor(Shape{c.in_c, c.h, c.w}, 0x9ac);
        Tensor from_workspace;
        conv.forward_packed_into(input, from_workspace, ws, relu);
        conv.prepack();
        Tensor from_pack;
        conv.forward_packed_into(input, from_pack, ws, relu);
        expect_same_bytes(from_workspace, from_pack);
      }
    }
  }

  nn::Network net;
  net.emplace<nn::Conv2D>(2, 8, 3);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Conv2D>(8, 8, 3, /*residual=*/true);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Conv2D>(8, 4, 1);  // Naive: 8 taps.
  net.emplace<nn::Conv2D>(4, 1, 3);
  const nn::Network prepacked = net;
  prepacked.prepack_for_inference();
  const Tensor input = random_tensor(Shape{2, 40, 36}, 0x9ad);
  nn::Workspace ws_a;
  nn::Workspace ws_b;
  expect_same_bytes(net.forward_inference(input, ws_a),
                    prepacked.forward_inference(input, ws_b));
}

TEST(PackedKernel, WeightMutationInvalidatesPack) {
  // Every weight-mutation route drops the pack, so the next forward reads
  // the new weights: the same bytes as a freshly prepacked copy, and the
  // naive kernel's result within rounding.
  const Tensor input = random_tensor(Shape{4, 16, 16}, 0x51);
  const struct {
    const char* route;
    std::function<void(nn::Conv2D&)> mutate;
  } routes[] = {
      {"weight()", [](nn::Conv2D& c) { c.weight(3, 1, 0, 2) += 0.75f; }},
      {"bias()", [](nn::Conv2D& c) { c.bias(5) -= 0.25f; }},
      {"params()", [](nn::Conv2D& c) { c.params()[0].values[7] *= -2.0f; }},
      {"init_weights()",
       [](nn::Conv2D& c) {
         util::Rng rng(0x1417);
         c.init_weights(rng);
       }},
  };
  nn::Workspace ws;
  for (const auto& [route, mutate] : routes) {
    SCOPED_TRACE(route);
    nn::Conv2D conv(4, 6, 3);
    conv.prepack();
    Tensor before;
    conv.forward_packed_into(input, before, ws);

    mutate(conv);
    Tensor after;
    conv.forward_packed_into(input, after, ws);

    const auto fresh = conv.clone();
    const auto& fresh_conv = static_cast<const nn::Conv2D&>(*fresh);
    fresh_conv.prepack();
    Tensor expected;
    fresh_conv.forward_packed_into(input, expected, ws);
    expect_same_bytes(expected, after);

    Tensor naive;
    conv.forward_naive_into(input, naive);
    expect_close(naive, after, 1e-5);
    EXPECT_NE(0, std::memcmp(before.data().data(), after.data().data(),
                             after.numel() * sizeof(float)))
        << "the mutation did not reach the output";
  }
}

TEST(PackedKernel, SteadyStatePackedInferenceIsAllocationFree) {
  const int old_threads = omp_get_max_threads();

  // Every conv here runs the packed kernel, down to the one-row panel of
  // the final projection; WorkspaceReuse covers the mixed packed/naive net.
  const auto make_net = [] {
    nn::Network net;
    net.emplace<nn::Conv2D>(2, 8, 3);
    net.emplace<nn::ReLU>();
    net.emplace<nn::Conv2D>(8, 8, 3, /*residual=*/true);
    net.emplace<nn::ReLU>();
    net.emplace<nn::Conv2D>(8, 1, 3);
    return net;
  };

  const Tensor input = random_tensor(Shape{2, 48, 48}, 0xa110c);
  obs::Counter& packed_calls = obs::counter("nn.conv.packed_calls");
  obs::Counter& pack_calls = obs::counter("nn.pack_calls");
  // On one thread and on a four-thread team (every slab is sized before
  // the conv's team opens), first without packs (each conv repacks into
  // the workspace's slot), then prepacked (each conv reads its own pack):
  // none of them touches the heap once the workspace is warm.
  for (const int threads : {1, 4}) {
    omp_set_num_threads(threads);
    nn::Network net = make_net();
    for (const bool prepacked : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << threads << " OpenMP threads, "
                   << (prepacked ? "prepacked" : "workspace-packed"));
      if (prepacked) {
        net.prepack_for_inference();
      }
      nn::Workspace ws;
      for (int warm = 0; warm < 3; ++warm) {
        net.forward_inference(input, ws);
      }

      const std::uint64_t packed_before = packed_calls.value();
      const std::uint64_t packs_before = pack_calls.value();
      g_alloc_count.store(0);
      g_count_allocs.store(true);
      double checksum = 0.0;
      for (int i = 0; i < 8; ++i) {
        checksum += net.forward_inference(input, ws).sum();
      }
      g_count_allocs.store(false);

      EXPECT_EQ(packed_calls.value() - packed_before, 8u * 3u)
          << "a conv left the packed kernel";
      EXPECT_EQ(pack_calls.value() - packs_before, prepacked ? 0u : 8u * 3u);
      EXPECT_EQ(0u, g_alloc_count.load())
          << "steady-state packed inference touched the heap";
      EXPECT_TRUE(std::isfinite(checksum));
    }
  }
  omp_set_num_threads(old_threads);
}

TEST(PackedKernel, RepeatedLookupsShareOneSnapshot) {
  // Packs are built once: a second prepack_for_inference finds every conv
  // packed and builds nothing, and inference builds nothing either.
  nn::Network net;
  net.emplace<nn::Conv2D>(4, 8, 3);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Conv2D>(8, 2, 3);
  obs::Counter& pack_calls = obs::counter("nn.pack_calls");
  const std::uint64_t before = pack_calls.value();
  net.prepack_for_inference();
  EXPECT_EQ(pack_calls.value() - before, 2u);
  net.prepack_for_inference();
  EXPECT_EQ(pack_calls.value() - before, 2u);
  nn::Workspace ws;
  net.forward_inference(random_tensor(Shape{4, 32, 32}, 0x5ee), ws);
  EXPECT_EQ(pack_calls.value() - before, 2u);
}

TEST(PackedKernel, TrainedModelInfersWithoutPacking) {
  // core::train_model prepacks once the weights are final, and copies of
  // the network (NeuralProjection's owning copy) keep the packs: inference
  // on either builds none.
  workload::ProblemSetParams params;
  params.grid = 24;
  params.steps = 4;
  const auto samples = core::collect_training_data(
      workload::generate_problems(1, params, 21), 2);
  util::Rng rng(21);
  core::SurrogateTrainParams train;
  train.epochs = 1;
  const core::TrainedModel model = core::train_model(
      modelgen::tompson_spec(4), samples, train, rng, "packed_kernel_test");
  const nn::Network copy = model.net;

  obs::Counter& packed_calls = obs::counter("nn.conv.packed_calls");
  obs::Counter& pack_calls = obs::counter("nn.pack_calls");
  const std::uint64_t packed_before = packed_calls.value();
  const std::uint64_t packs_before = pack_calls.value();
  const Tensor input = random_tensor(Shape{2, 48, 48}, 0x7a1);
  nn::Workspace ws;
  model.net.forward_inference(input, ws);
  copy.forward_inference(input, ws);
  EXPECT_GT(packed_calls.value() - packed_before, 0u);
  EXPECT_EQ(pack_calls.value(), packs_before);
}

}  // namespace
