#pragma once

// Private interface between fluid/advection.cpp and its AVX2 translation
// unit, advection_avx2.cpp (DESIGN.md §12, §13). Plain data only: the AVX2
// TU is compiled with -mavx2, so it must not instantiate an inline function
// that other translation units share (the linker could keep its AVX2 copy
// for the whole program).

#include <cstdint>

namespace sfn::fluid::detail {

/// One sample lattice: row-major floats, nx × ny.
struct Plane {
  const float* data;
  int nx;
  int ny;
};

/// A semi-Lagrangian pass over one field: sample i of the row at height y
/// sits at x = i + ox, backtraces through the MAC velocity (u, v) with
/// Backtrace::chunk's RK2 steps and reads `from` at the end point minus
/// (ox, oy).
struct SemiLagrangianRow {
  Plane u;
  Plane v;
  Plane from;
  double dt;
  double cells_per_unit;
  double ox;
  double oy;
};

/// Groups of four samples one vector call handles at most (kChunk / 4).
inline constexpr int kMaxGroups = 16;

/// Samples [i0, i0 + 4 * groups) of the row at height y, groups <= 16.
/// Writes out[i] for every group whose four samples pass all five of
/// their reads' inside tests, and returns a mask with bit g set for each
/// group g it left unwritten.
using SemiLagrangianGroups = std::uint32_t (*)(const SemiLagrangianRow& row,
                                               double y, int i0, int groups,
                                               float* out);

/// The AVX2 groups, or nullptr when the build has no AVX2 translation unit
/// (SFN_FORCE_SCALAR_KERNELS, non-x86). Call only after cpuid reports AVX2.
[[nodiscard]] SemiLagrangianGroups avx2_semi_lagrangian_groups();

}  // namespace sfn::fluid::detail
