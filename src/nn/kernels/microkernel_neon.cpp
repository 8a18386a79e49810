// AArch64 NEON microkernel translation unit. Baseline AArch64 ships NEON,
// so unlike the AVX2 TU no special compile flags are needed; the stub at
// the bottom keeps the symbol defined for x86 and scalar-forced builds.
// Raw intrinsics are allowed only under src/nn/kernels/ (lint rule R8).

#include "nn/kernels/microkernel.hpp"

#if defined(__aarch64__) && defined(__ARM_NEON) && \
    !defined(SFN_FORCE_SCALAR_KERNELS)

#include <arm_neon.h>

namespace sfn::nn::kernels {
namespace {

/// ReLU matching `x > 0 ? x : 0` (NaN and -0.0 map to +0.0). vmaxq would
/// propagate NaN, so select explicitly.
inline float32x4_t relu4(float32x4_t v) {
  const float32x4_t zero = vdupq_n_f32(0.0f);
  return vbslq_f32(vcgtq_f32(v, zero), v, zero);
}

/// 6x16 tile as 6 rows x 4 q-registers: 24 accumulators + 4 B loads + a
/// broadcast fit the 32 NEON registers. vfmaq_n_f32 is a fused
/// multiply-add, so results are bit-identical to the fmaf-based scalar
/// reference and the AVX2 kernel. The unroll pragmas force scalar
/// replacement of the accumulator array — without them gcc can leave it
/// on the stack and the K loop round-trips through memory (the same
/// pathology the AVX2 kernel hand-unrolls around).
void tile_f32_neon(int K, const float* a, const float* bias, const float* b,
                   const std::ptrdiff_t* boff, const float* res,
                   std::size_t ldres, float* c, std::size_t ldc, int rows,
                   int /*cols == kNr*/, bool relu) {
  float32x4_t acc[kMr][4];
  for (int r = 0; r < kMr; ++r) {
    for (int q = 0; q < 4; ++q) acc[r][q] = vdupq_n_f32(bias[r]);
  }
  for (int p = 0; p < K; ++p) {
    const float* brow = b + boff[p];
    float32x4_t bq[4];
#pragma GCC unroll 4
    for (int q = 0; q < 4; ++q) bq[q] = vld1q_f32(brow + 4 * q);
    const float* acol = a + static_cast<std::size_t>(p) * kMr;
#pragma GCC unroll 6
    for (int r = 0; r < kMr; ++r) {
      const float av = acol[r];
#pragma GCC unroll 4
      for (int q = 0; q < 4; ++q) acc[r][q] = vfmaq_n_f32(acc[r][q], bq[q], av);
    }
  }
  for (int r = 0; r < rows; ++r) {
    float* crow = c + static_cast<std::size_t>(r) * ldc;
    const float* rrow =
        res != nullptr ? res + static_cast<std::size_t>(r) * ldres : nullptr;
    for (int q = 0; q < 4; ++q) {
      float32x4_t v = acc[r][q];
      if (rrow != nullptr) v = vaddq_f32(v, vld1q_f32(rrow + 4 * q));
      if (relu) v = relu4(v);
      vst1q_f32(crow + 4 * q, v);
    }
  }
}

constexpr KernelSet kNeonSet{Isa::kNeon, tile_f32_neon, kNr, false};

}  // namespace

const KernelSet* neon_kernels() { return &kNeonSet; }

}  // namespace sfn::nn::kernels

#else

namespace sfn::nn::kernels {
const KernelSet* neon_kernels() { return nullptr; }
}  // namespace sfn::nn::kernels

#endif
