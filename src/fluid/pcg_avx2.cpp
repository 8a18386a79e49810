// AVX2 PCG row passes: four cells per instruction in double lanes.
// This file is compiled with -mavx2 (never -mfma: a fused multiply-add
// would round once where the scalar passes round twice) even in portable
// builds (see src/fluid/CMakeLists.txt); pcg.cpp calls it only after cpuid
// reports AVX2, and builds that exclude it (SFN_FORCE_SCALAR_KERNELS,
// non-x86 targets) compile the nullptr stub at the bottom instead. Raw
// intrinsics are allowed only here, in advection_avx2.cpp and under
// src/nn/kernels/ (lint R8).
//
// Every lane computes what pcg.cpp's scalar passes compute for its cell,
// in their operand order, so the stored bits are theirs. A neighbour whose
// stencil bit is clear is loaded (the row bounds keep every load inside
// the arrays) and masked to +0.0 before it is subtracted or added, which
// leaves the other operand as it is; a non-fluid lane is never stored.

#include "fluid/pcg_avx2.hpp"

#if defined(__x86_64__) && !defined(SFN_FORCE_SCALAR_KERNELS)

#include <immintrin.h>

#include <cstddef>

namespace sfn::fluid::detail {
namespace {

/// The stencil bytes of cells k .. k+3, one per 64-bit lane.
__m256i stencil_lanes(const std::uint8_t* stencil, std::size_t k) {
  return _mm256_cvtepu8_epi64(_mm_loadu_si32(stencil + k));
}

/// All ones in the lanes whose stencil byte has `bit` set.
__m256d has_bit(__m256i lanes, StencilBit bit) {
  const __m256i b = _mm256_set1_epi64x(bit);
  return _mm256_castsi256_pd(
      _mm256_cmpeq_epi64(_mm256_and_si256(lanes, b), b));
}

__m256d load4(const double* x) { return _mm256_loadu_pd(x); }
__m256d load4(const float* x) { return _mm256_cvtps_pd(_mm_loadu_ps(x)); }

/// (A x)(k .. k+3) in apply_a_at's order: diag times x, then minus the
/// fluid neighbours in E, W, N, S order. A clear bit subtracts +0.0,
/// which leaves every value (-0.0 and NaN included) as it is.
template <typename T>
[[gnu::always_inline]] inline __m256d apply_a4(__m256i lanes,
                                               const double* diag, const T* x,
                                               std::size_t k, std::size_t nx) {
  __m256d acc = _mm256_mul_pd(_mm256_loadu_pd(diag + k), load4(x + k));
  acc = _mm256_sub_pd(acc, _mm256_and_pd(has_bit(lanes, kEast), load4(x + k + 1)));
  acc = _mm256_sub_pd(acc, _mm256_and_pd(has_bit(lanes, kWest), load4(x + k - 1)));
  acc = _mm256_sub_pd(acc,
                      _mm256_and_pd(has_bit(lanes, kNorth), load4(x + k + nx)));
  acc = _mm256_sub_pd(acc,
                      _mm256_and_pd(has_bit(lanes, kSouth), load4(x + k - nx)));
  return acc;
}

/// as = A s on cells k .. k+3, stored on the fluid ones. Returns s·as on
/// the fluid lanes and +0.0 on the others: a row sum starts at +0.0, so it
/// is never -0.0, and adding +0.0 leaves it as it is.
[[gnu::always_inline]] inline __m256d apply_a_group(const PcgArrays& a,
                                                   std::size_t k) {
  const __m256i lanes = stencil_lanes(a.stencil, k);
  const __m256d fluid = has_bit(lanes, kFluid);
  const __m256d as = apply_a4(lanes, a.diag, a.s, k, a.nx);
  _mm256_maskstore_pd(a.as + k, _mm256_castpd_si256(fluid), as);
  return _mm256_and_pd(fluid, _mm256_mul_pd(_mm256_loadu_pd(a.s + k), as));
}

/// Adds the four columns of four rows' terms (c0 .. c3, one row each) to
/// acc (one row per lane), column by column, so each row keeps its left to
/// right order.
__m256d add_columns(__m256d acc, __m256d c0, __m256d c1, __m256d c2,
                    __m256d c3) {
  const __m256d t0 = _mm256_unpacklo_pd(c0, c1);
  const __m256d t1 = _mm256_unpackhi_pd(c0, c1);
  const __m256d t2 = _mm256_unpacklo_pd(c2, c3);
  const __m256d t3 = _mm256_unpackhi_pd(c2, c3);
  acc = _mm256_add_pd(acc, _mm256_permute2f128_pd(t0, t2, 0x20));
  acc = _mm256_add_pd(acc, _mm256_permute2f128_pd(t1, t3, 0x20));
  acc = _mm256_add_pd(acc, _mm256_permute2f128_pd(t0, t2, 0x31));
  return _mm256_add_pd(acc, _mm256_permute2f128_pd(t1, t3, 0x31));
}

void apply_a(const PcgArrays& a, int j0, int j1, double* partial) {
  const auto nx = static_cast<std::size_t>(a.nx);
  const std::size_t cols = nx / 4 * 4;
  int j = j0;
  // Four rows at a time, one per lane of the running sums.
  for (; j + 4 <= j1; j += 4) {
    const std::size_t row = static_cast<std::size_t>(j) * nx;
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t k = row; k < row + cols; k += 4) {
      acc = add_columns(acc, apply_a_group(a, k), apply_a_group(a, k + nx),
                        apply_a_group(a, k + 2 * nx),
                        apply_a_group(a, k + 3 * nx));
    }
    _mm256_storeu_pd(partial + j, acc);
  }
  for (; j < j1; ++j) {
    const std::size_t row = static_cast<std::size_t>(j) * nx;
    double acc = 0.0;
    for (std::size_t k = row; k < row + cols; k += 4) {
      alignas(32) double term[4];
      _mm256_store_pd(term, apply_a_group(a, k));
      acc += term[0];
      acc += term[1];
      acc += term[2];
      acc += term[3];
    }
    partial[j] = acc;
  }
}

/// A row's running max |r| over four lanes, and whether any |r| was NaN.
struct RowMax {
  __m256d max = _mm256_setzero_pd();
  __m256d nan = _mm256_setzero_pd();

  /// Folds |r| of the fluid lanes in (+0.0 for the others, which never
  /// raises a maximum that starts at +0.0).
  void add(__m256d fluid, __m256d r) {
    const __m256d abs_mask =
        _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
    const __m256d abs_r = _mm256_and_pd(fluid, _mm256_and_pd(abs_mask, r));
    max = _mm256_max_pd(max, abs_r);
    nan = _mm256_or_pd(nan, _mm256_cmp_pd(abs_r, abs_r, _CMP_UNORD_Q));
  }

  /// The row's maximum; NaN when any lane saw one. Max is order-free over
  /// the non-NaN values (none is -0.0), so the lanes may fold in any order.
  [[nodiscard]] double value() const {
    if (_mm256_movemask_pd(nan) != 0) {
      return __builtin_nan("");
    }
    const __m128d half = _mm_max_pd(_mm256_castpd256_pd128(max),
                                    _mm256_extractf128_pd(max, 1));
    return _mm_cvtsd_f64(_mm_max_sd(half, _mm_unpackhi_pd(half, half)));
  }
};

void update_pr(const PcgArrays& a, double alpha, int j0, int j1,
               double* partial) {
  const auto nx = static_cast<std::size_t>(a.nx);
  const std::size_t cols = nx / 4 * 4;
  const __m256d alpha4 = _mm256_set1_pd(alpha);
  for (int j = j0; j < j1; ++j) {
    const std::size_t row = static_cast<std::size_t>(j) * nx;
    RowMax m;
    for (std::size_t k = row; k < row + cols; k += 4) {
      const __m256d fluid = has_bit(stencil_lanes(a.stencil, k), kFluid);
      const __m256i store = _mm256_castpd_si256(fluid);
      const __m256d p = _mm256_add_pd(
          _mm256_loadu_pd(a.p + k),
          _mm256_mul_pd(alpha4, _mm256_loadu_pd(a.s + k)));
      _mm256_maskstore_pd(a.p + k, store, p);
      const __m256d r = _mm256_sub_pd(
          _mm256_loadu_pd(a.r + k),
          _mm256_mul_pd(alpha4, _mm256_loadu_pd(a.as + k)));
      _mm256_maskstore_pd(a.r + k, store, r);
      m.add(fluid, r);
    }
    partial[j] = m.value();
  }
}

void update_s(const PcgArrays& a, double beta, int j0, int j1) {
  const auto nx = static_cast<std::size_t>(a.nx);
  const std::size_t cols = nx / 4 * 4;
  const __m256d beta4 = _mm256_set1_pd(beta);
  for (int j = j0; j < j1; ++j) {
    const std::size_t row = static_cast<std::size_t>(j) * nx;
    for (std::size_t k = row; k < row + cols; k += 4) {
      const __m256d fluid = has_bit(stencil_lanes(a.stencil, k), kFluid);
      const __m256d s = _mm256_add_pd(
          load4(a.z + k), _mm256_mul_pd(beta4, _mm256_loadu_pd(a.s + k)));
      _mm256_maskstore_pd(a.s + k, _mm256_castpd_si256(fluid), s);
    }
  }
}

void residual(const PcgArrays& a, const float* b, const float* guess, int j0,
              int j1, double* partial) {
  const auto nx = static_cast<std::size_t>(a.nx);
  const std::size_t cols = nx / 4 * 4;
  for (int j = j0; j < j1; ++j) {
    const std::size_t row = static_cast<std::size_t>(j) * nx;
    RowMax m;
    for (std::size_t k = row; k < row + cols; k += 4) {
      const __m256i lanes = stencil_lanes(a.stencil, k);
      const __m256d fluid = has_bit(lanes, kFluid);
      _mm256_storeu_pd(a.p + k, _mm256_and_pd(fluid, load4(guess + k)));
      const __m256d r =
          _mm256_sub_pd(load4(b + k), apply_a4(lanes, a.diag, guess, k, nx));
      _mm256_maskstore_pd(a.r + k, _mm256_castpd_si256(fluid), r);
      m.add(fluid, r);
    }
    partial[j] = m.value();
  }
}

constexpr PcgRowPasses kPasses = {apply_a, update_pr, update_s, residual};

}  // namespace

const PcgRowPasses* avx2_pcg_row_passes() { return &kPasses; }

}  // namespace sfn::fluid::detail

#else  // non-x86 or scalar-forced build: keep the symbol, lose the passes.

namespace sfn::fluid::detail {
const PcgRowPasses* avx2_pcg_row_passes() { return nullptr; }
}  // namespace sfn::fluid::detail

#endif
