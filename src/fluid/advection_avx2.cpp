// AVX2 semi-Lagrangian rows: four samples per instruction in double lanes.
// This file is compiled with -mavx2 (never -mfma: a fused multiply-add
// would round once where the scalar path rounds twice) even in portable
// builds (see src/fluid/CMakeLists.txt); advection.cpp calls it only after
// cpuid reports AVX2, and builds that exclude it (SFN_FORCE_SCALAR_KERNELS,
// non-x86 targets) compile the nullptr stub at the bottom instead. Raw
// intrinsics are allowed only here and under src/nn/kernels/ (lint R8).
//
// Every lane computes what Backtrace::chunk and Lattice::at compute for its
// sample, in their operand order, so the output bits are theirs. A group
// whose lanes do not all pass a read's inside test is left to that scalar
// path; no load or gather ever uses an index from such a lane.

#include "fluid/advection_avx2.hpp"

#if defined(__x86_64__) && !defined(SFN_FORCE_SCALAR_KERNELS)

#include <immintrin.h>

#include <cstddef>

namespace sfn::fluid::detail {
namespace {

/// A lattice with its inside bounds: Lattice's x_end_ and y_end_.
struct Bounds {
  Plane plane;
  __m256d x_end;
  __m256d y_end;
};

Bounds bounds_of(const Plane& p) {
  return {p, _mm256_set1_pd(p.nx - 1), _mm256_set1_pd(p.ny - 1)};
}

/// Lattice::inside on four lanes: 0 <= x < nx-1 and 0 <= y < ny-1, each
/// compare ordered (false for NaN). True only when every lane passes.
bool all_inside(const Bounds& b, __m256d x, __m256d y) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d in_x = _mm256_and_pd(_mm256_cmp_pd(x, zero, _CMP_GE_OQ),
                                     _mm256_cmp_pd(x, b.x_end, _CMP_LT_OQ));
  const __m256d in_y = _mm256_and_pd(_mm256_cmp_pd(y, zero, _CMP_GE_OQ),
                                     _mm256_cmp_pd(y, b.y_end, _CMP_LT_OQ));
  return _mm256_movemask_pd(_mm256_and_pd(in_x, in_y)) == 0xF;
}

/// Grid2::interpolate's three lerps, rounded to float as Lattice::at
/// returns them.
__m128 lerp(__m256d fx, __m256d fy, __m256d v00, __m256d v10, __m256d v01,
            __m256d v11) {
  const __m256d v0 =
      _mm256_add_pd(v00, _mm256_mul_pd(fx, _mm256_sub_pd(v10, v00)));
  const __m256d v1 =
      _mm256_add_pd(v01, _mm256_mul_pd(fx, _mm256_sub_pd(v11, v01)));
  return _mm256_cvtpd_ps(
      _mm256_add_pd(v0, _mm256_mul_pd(fy, _mm256_sub_pd(v1, v0))));
}

/// Lattice::at for four consecutive samples x + k of one row height, all
/// inside: their cells are consecutive in one row pair, so the four
/// corners of every lane come from plain loads at i0 and i0 + 1.
__m128 read_run(const Bounds& b, __m256d x, __m256d y) {
  const __m128i i0 = _mm256_cvttpd_epi32(x);
  const __m128i j0 = _mm256_cvttpd_epi32(y);
  const __m256d fx = _mm256_sub_pd(x, _mm256_cvtepi32_pd(i0));
  const __m256d fy = _mm256_sub_pd(y, _mm256_cvtepi32_pd(j0));
  const float* r0 = b.plane.data +
                    static_cast<std::size_t>(_mm_cvtsi128_si32(j0)) *
                        b.plane.nx +
                    _mm_cvtsi128_si32(i0);
  const float* r1 = r0 + b.plane.nx;
  return lerp(fx, fy, _mm256_cvtps_pd(_mm_loadu_ps(r0)),
              _mm256_cvtps_pd(_mm_loadu_ps(r0 + 1)),
              _mm256_cvtps_pd(_mm_loadu_ps(r1)),
              _mm256_cvtps_pd(_mm_loadu_ps(r1 + 1)));
}

/// (v[k], v[k + 1]) for each lane's float index k, as two four-lane
/// columns: one 8-byte gather per lane, then the pairs split apart. (The
/// masked form with every lane on is the same instruction as the plain
/// one, without GCC 12's -Wuninitialized on its undefined source.)
void gather_pairs(const float* data, __m128i k, __m256d* first,
                  __m256d* second) {
  const __m256d every_lane = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  const __m256 pairs = _mm256_castpd_ps(_mm256_mask_i32gather_pd(
      _mm256_setzero_pd(), reinterpret_cast<const double*>(data), k,
      every_lane, sizeof(float)));
  const __m256 split = _mm256_permutevar8x32_ps(
      pairs, _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7));
  *first = _mm256_cvtps_pd(_mm256_castps256_ps128(split));
  *second = _mm256_cvtps_pd(_mm256_extractf128_ps(split, 1));
}

/// Lattice::at for four arbitrary samples, all inside: each row of the
/// stencil is one paired gather.
__m128 read_gather(const Bounds& b, __m256d x, __m256d y) {
  const __m128i i0 = _mm256_cvttpd_epi32(x);
  const __m128i j0 = _mm256_cvttpd_epi32(y);
  const __m256d fx = _mm256_sub_pd(x, _mm256_cvtepi32_pd(i0));
  const __m256d fy = _mm256_sub_pd(y, _mm256_cvtepi32_pd(j0));
  const __m128i nx = _mm_set1_epi32(b.plane.nx);
  const __m128i k0 = _mm_add_epi32(_mm_mullo_epi32(j0, nx), i0);
  __m256d v00;
  __m256d v10;
  __m256d v01;
  __m256d v11;
  gather_pairs(b.plane.data, k0, &v00, &v10);
  gather_pairs(b.plane.data, _mm_add_epi32(k0, nx), &v01, &v11);
  return lerp(fx, fy, v00, v10, v01, v11);
}

std::uint32_t semi_lagrangian_groups(const SemiLagrangianRow& row, double y,
                                     int i0, int groups, float* out) {
  const Bounds u = bounds_of(row.u);
  const Bounds v = bounds_of(row.v);
  const Bounds from = bounds_of(row.from);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d dt = _mm256_set1_pd(row.dt);
  const __m256d half_dt = _mm256_set1_pd(0.5 * row.dt);
  const __m256d c = _mm256_set1_pd(row.cells_per_unit);
  const __m256d ox = _mm256_set1_pd(row.ox);
  const __m256d oy = _mm256_set1_pd(row.oy);
  const __m256d ys = _mm256_set1_pd(y);
  const __m256d y_u = _mm256_sub_pd(ys, half);
  // x of group g's samples: (i0 + 4g + k) + ox, k = 0..3.
  const auto x_of = [&](int g) {
    const int i = i0 + 4 * g;
    return _mm256_add_pd(
        _mm256_cvtepi32_pd(_mm_setr_epi32(i, i + 1, i + 2, i + 3)), ox);
  };
  std::uint32_t left = 0;
  __m256d mx[kMaxGroups];
  __m256d my[kMaxGroups];
  // Midpoints, x - 0.5 dt u1 c: lattice-fixed reads, so contiguous loads.
  // u1 and u2 are floats widened back to double, as in the scalar rows.
  for (int g = 0; g < groups; ++g) {
    const __m256d x = x_of(g);
    const __m256d x_v = _mm256_sub_pd(x, half);
    if (!all_inside(u, x, y_u) || !all_inside(v, x_v, ys)) {
      left |= 1u << g;
      continue;
    }
    const __m256d u1 = _mm256_cvtps_pd(read_run(u, x, y_u));
    const __m256d v1 = _mm256_cvtps_pd(read_run(v, x_v, ys));
    mx[g] = _mm256_sub_pd(x, _mm256_mul_pd(_mm256_mul_pd(half_dt, u1), c));
    my[g] = _mm256_sub_pd(ys, _mm256_mul_pd(_mm256_mul_pd(half_dt, v1), c));
  }
  // End points, x - dt u2 c, read at the midpoints.
  __m256d sx[kMaxGroups];
  __m256d sy[kMaxGroups];
  for (int g = 0; g < groups; ++g) {
    if (left & (1u << g)) {
      continue;
    }
    const __m256d my_u = _mm256_sub_pd(my[g], half);
    const __m256d mx_v = _mm256_sub_pd(mx[g], half);
    if (!all_inside(u, mx[g], my_u) || !all_inside(v, mx_v, my[g])) {
      left |= 1u << g;
      continue;
    }
    const __m256d u2 = _mm256_cvtps_pd(read_gather(u, mx[g], my_u));
    const __m256d v2 = _mm256_cvtps_pd(read_gather(v, mx_v, my[g]));
    sx[g] = _mm256_sub_pd(x_of(g), _mm256_mul_pd(_mm256_mul_pd(dt, u2), c));
    sy[g] = _mm256_sub_pd(ys, _mm256_mul_pd(_mm256_mul_pd(dt, v2), c));
  }
  // The advected field read at the end points.
  for (int g = 0; g < groups; ++g) {
    if (left & (1u << g)) {
      continue;
    }
    const __m256d x = _mm256_sub_pd(sx[g], ox);
    const __m256d yy = _mm256_sub_pd(sy[g], oy);
    if (!all_inside(from, x, yy)) {
      left |= 1u << g;
      continue;
    }
    _mm_storeu_ps(out + i0 + 4 * g, read_gather(from, x, yy));
  }
  return left;
}

}  // namespace

SemiLagrangianGroups avx2_semi_lagrangian_groups() {
  return semi_lagrangian_groups;
}

}  // namespace sfn::fluid::detail

#else  // non-x86 or scalar-forced build: keep the symbol, lose the rows.

namespace sfn::fluid::detail {
SemiLagrangianGroups avx2_semi_lagrangian_groups() { return nullptr; }
}  // namespace sfn::fluid::detail

#endif
