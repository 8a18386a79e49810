// AVX2+FMA microkernel translation unit. This file is compiled with
// -mavx2 -mfma even in portable builds (see src/nn/CMakeLists.txt); it is
// only ever *executed* after runtime detection confirms the CPU supports
// both (nn/kernels/isa.cpp), and builds that exclude AVX2 entirely
// (SFN_FORCE_SCALAR_KERNELS, non-x86 targets) compile the nullptr stub at
// the bottom instead. Raw intrinsics are allowed only under
// src/nn/kernels/ (lint rule R8).

#include "nn/kernels/microkernel.hpp"

#if defined(__x86_64__) && !defined(SFN_FORCE_SCALAR_KERNELS)

#include <immintrin.h>

namespace sfn::nn::kernels {
namespace {

/// R×16 f32 tile, R ≤ 6: 2R ymm accumulators live across the whole K
/// loop, two B loads and one A broadcast per row per step — at R = 6, 16
/// architectural ymm registers exactly cover it (the NNPACK-style
/// blocking). Rows past R are never computed, so a panel's padding rows
/// cost nothing. Epilogue (residual add, ReLU clamp) happens in-register
/// before the only store.
template <int R>
void tile_rows(int K, const float* a, const float* bias, const float* b,
               const std::ptrdiff_t* boff, const float* res,
               std::size_t ldres, float* c, std::size_t ldc, bool relu) {
  // The accumulators MUST be individually named locals: gcc keeps an
  // __m256[kMr] array on the stack (a load+FMA+store round trip per K
  // step), which caps the kernel at a third of FMA throughput. Named
  // registers + the fully unrolled row updates keep all 12 accumulators,
  // both B vectors and the broadcast in the 16 architectural ymm regs.
  // The bias is padded to kMr rows, so every broadcast reads valid memory;
  // the compiler drops the accumulators of rows past R.
  static_assert(kMr == 6 && R >= 1 && R <= kMr, "unrolled for the 6x16 tile");
  __m256 lo0 = _mm256_broadcast_ss(bias + 0), hi0 = lo0;
  __m256 lo1 = _mm256_broadcast_ss(bias + 1), hi1 = lo1;
  __m256 lo2 = _mm256_broadcast_ss(bias + 2), hi2 = lo2;
  __m256 lo3 = _mm256_broadcast_ss(bias + 3), hi3 = lo3;
  __m256 lo4 = _mm256_broadcast_ss(bias + 4), hi4 = lo4;
  __m256 lo5 = _mm256_broadcast_ss(bias + 5), hi5 = lo5;
  for (int p = 0; p < K; ++p) {
    const float* brow = b + boff[p];
    const __m256 b0 = _mm256_loadu_ps(brow);
    const __m256 b1 = _mm256_loadu_ps(brow + 8);
    const float* acol = a + static_cast<std::size_t>(p) * kMr;
    __m256 av;
    av = _mm256_broadcast_ss(acol + 0);
    lo0 = _mm256_fmadd_ps(av, b0, lo0);
    hi0 = _mm256_fmadd_ps(av, b1, hi0);
    if constexpr (R > 1) {
      av = _mm256_broadcast_ss(acol + 1);
      lo1 = _mm256_fmadd_ps(av, b0, lo1);
      hi1 = _mm256_fmadd_ps(av, b1, hi1);
    }
    if constexpr (R > 2) {
      av = _mm256_broadcast_ss(acol + 2);
      lo2 = _mm256_fmadd_ps(av, b0, lo2);
      hi2 = _mm256_fmadd_ps(av, b1, hi2);
    }
    if constexpr (R > 3) {
      av = _mm256_broadcast_ss(acol + 3);
      lo3 = _mm256_fmadd_ps(av, b0, lo3);
      hi3 = _mm256_fmadd_ps(av, b1, hi3);
    }
    if constexpr (R > 4) {
      av = _mm256_broadcast_ss(acol + 4);
      lo4 = _mm256_fmadd_ps(av, b0, lo4);
      hi4 = _mm256_fmadd_ps(av, b1, hi4);
    }
    if constexpr (R > 5) {
      av = _mm256_broadcast_ss(acol + 5);
      lo5 = _mm256_fmadd_ps(av, b0, lo5);
      hi5 = _mm256_fmadd_ps(av, b1, hi5);
    }
  }
  const __m256 lo[kMr] = {lo0, lo1, lo2, lo3, lo4, lo5};
  const __m256 hi[kMr] = {hi0, hi1, hi2, hi3, hi4, hi5};
  const __m256 zero = _mm256_setzero_ps();
  for (int r = 0; r < R; ++r) {
    __m256 v0 = lo[r];
    __m256 v1 = hi[r];
    if (res != nullptr) {
      const float* rrow = res + static_cast<std::size_t>(r) * ldres;
      v0 = _mm256_add_ps(v0, _mm256_loadu_ps(rrow));
      v1 = _mm256_add_ps(v1, _mm256_loadu_ps(rrow + 8));
    }
    if (relu) {
      // max_ps with the accumulator first returns the *second* operand on
      // NaN or signed-zero ties — exactly `x > 0 ? x : 0`, matching both
      // the scalar reference and ReLU::forward_into.
      v0 = _mm256_max_ps(v0, zero);
      v1 = _mm256_max_ps(v1, zero);
    }
    float* crow = c + static_cast<std::size_t>(r) * ldc;
    _mm256_storeu_ps(crow, v0);
    _mm256_storeu_ps(crow + 8, v1);
  }
}

void tile_f32_avx2(int K, const float* a, const float* bias, const float* b,
                   const std::ptrdiff_t* boff, const float* res,
                   std::size_t ldres, float* c, std::size_t ldc, int rows,
                   int /*cols == kNr*/, bool relu) {
  switch (rows) {
    case 1:
      return tile_rows<1>(K, a, bias, b, boff, res, ldres, c, ldc, relu);
    case 2:
      return tile_rows<2>(K, a, bias, b, boff, res, ldres, c, ldc, relu);
    case 3:
      return tile_rows<3>(K, a, bias, b, boff, res, ldres, c, ldc, relu);
    case 4:
      return tile_rows<4>(K, a, bias, b, boff, res, ldres, c, ldc, relu);
    case 5:
      return tile_rows<5>(K, a, bias, b, boff, res, ldres, c, ldc, relu);
    default:
      return tile_rows<6>(K, a, bias, b, boff, res, ldres, c, ldc, relu);
  }
}

constexpr KernelSet kAvx2Set{Isa::kAvx2, tile_f32_avx2, kNr, false};

}  // namespace

const KernelSet* avx2_kernels() { return &kAvx2Set; }

}  // namespace sfn::nn::kernels

#else  // non-x86 or scalar-forced build: keep the symbol, lose the kernels.

namespace sfn::nn::kernels {
const KernelSet* avx2_kernels() { return nullptr; }
}  // namespace sfn::nn::kernels

#endif
