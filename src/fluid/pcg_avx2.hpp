#pragma once

// Private interface between fluid/pcg.cpp and its AVX2 translation unit,
// pcg_avx2.cpp (DESIGN.md §12, §13). Plain data only, as in
// advection_avx2.hpp: the AVX2 TU is compiled with -mavx2, so it must not
// instantiate an inline function that other translation units share.

#include <cstdint>

namespace sfn::fluid::detail {

/// Stencil bits, one byte per cell. A neighbour bit is set only on a fluid
/// cell whose east (+x), west (-x), north (+y) or south (-y) neighbour is
/// a fluid cell inside the grid, so testing it is also the bounds check for
/// the flat neighbour index: a neighbour is read only when its bit is set.
enum StencilBit : std::uint8_t {
  kFluid = 1,
  kEast = 2,
  kWest = 4,
  kNorth = 8,
  kSouth = 16,
};

/// One solve's flat arrays, row-major with row stride nx.
struct PcgArrays {
  int nx;
  int ny;
  const std::uint8_t* stencil;
  const double* diag;  ///< A's diagonal: the count of non-solid neighbours.
  double* p;
  double* r;
  double* s;
  double* as;
  float* z;
};

/// Row passes over columns [0, 4 * (nx / 4)) of rows [j0, j1), with
/// 1 <= j0 and j1 <= ny - 1, so that every neighbour load, at any column,
/// stays inside the arrays (a lane whose bit is clear loads a value and
/// drops it). Every lane computes pcg.cpp's scalar expression for its cell
/// in the same operand order, and only fluid cells are stored (p in
/// `residual` excepted, which pcg.cpp writes on every cell too).
/// partial[j] receives the row's sum or maximum over those columns, which
/// pcg.cpp continues over the rest of the row.
struct PcgRowPasses {
  /// as = A s; partial[j] = the sum of s·as, left to right.
  void (*apply_a)(const PcgArrays& a, int j0, int j1, double* partial);
  /// p += alpha s and r -= alpha as; partial[j] = max |r|, or NaN when
  /// some |r| is NaN (pcg.cpp then refolds the row's stored r).
  void (*update_pr)(const PcgArrays& a, double alpha, int j0, int j1,
                    double* partial);
  /// s = z + beta s.
  void (*update_s)(const PcgArrays& a, double beta, int j0, int j1);
  /// p = the guess (0 off fluid) and r = b - A p; partial[j] as update_pr.
  void (*residual)(const PcgArrays& a, const float* b, const float* guess,
                   int j0, int j1, double* partial);
};

/// The AVX2 passes, or nullptr when the build has no AVX2 translation unit
/// (SFN_FORCE_SCALAR_KERNELS, non-x86). Call only after cpuid reports AVX2.
[[nodiscard]] const PcgRowPasses* avx2_pcg_row_passes();

}  // namespace sfn::fluid::detail
