#pragma once

// Test-only oracle for fluid::PcgSolver's stencil cache: the serial build
// the solver ran before it moved the rebuild onto its team. It derives
// every cell through bounds-checked FlagGrid calls in one row-major pass,
// then builds the preconditioner in a second one. The arithmetic below is
// kept exactly as it was so that the parallel rebuild can be required to
// reproduce it byte for byte (solver_test's
// Pcg.RebuildMatchesSerialReferenceBytewise). Do not "improve" this file.

#include "fluid/pcg.hpp"

#include <cmath>
#include <cstdint>
#include <vector>

namespace sfn::test {

/// The stencil cache of one flag grid, laid out as PcgSolver's accessors
/// return it.
struct ReferencePcgCache {
  std::vector<std::uint8_t> stencil;
  std::vector<double> diag;
  std::vector<double> precond;
};

namespace reference_rebuild_detail {

constexpr std::uint8_t kFluid = 1;
constexpr std::uint8_t kEast = 2;
constexpr std::uint8_t kWest = 4;
constexpr std::uint8_t kNorth = 8;
constexpr std::uint8_t kSouth = 16;

inline void build_stencil(const fluid::FlagGrid& flags,
                          ReferencePcgCache* cache) {
  const int nx = flags.nx();
  const int ny = flags.ny();
  const auto cells = static_cast<std::size_t>(nx) * ny;
  cache->stencil.resize(cells);
  cache->diag.resize(cells);
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      const std::size_t k = static_cast<std::size_t>(j) * nx + i;
      if (!flags.is_fluid(i, j)) {
        cache->stencil[k] = 0;
        cache->diag[k] = 0.0;
        continue;
      }
      std::uint8_t bits = kFluid;
      if (flags.is_fluid(i + 1, j)) bits |= kEast;
      if (flags.is_fluid(i - 1, j)) bits |= kWest;
      if (flags.is_fluid(i, j + 1)) bits |= kNorth;
      if (flags.is_fluid(i, j - 1)) bits |= kSouth;
      cache->stencil[k] = bits;
      double diag = 0.0;
      if (!flags.is_solid(i + 1, j)) diag += 1.0;
      if (!flags.is_solid(i - 1, j)) diag += 1.0;
      if (!flags.is_solid(i, j + 1)) diag += 1.0;
      if (!flags.is_solid(i, j - 1)) diag += 1.0;
      cache->diag[k] = diag;
    }
  }
}

inline void build_preconditioner(const fluid::FlagGrid& flags,
                                 const fluid::PcgParams& params,
                                 ReferencePcgCache* cache) {
  using fluid::Preconditioner;
  const std::size_t nx = flags.nx();
  const std::vector<std::uint8_t>& stencil = cache->stencil;
  const std::vector<double>& diag = cache->diag;
  std::vector<double>& precond = cache->precond;
  const std::size_t cells = stencil.size();
  precond.assign(cells, 0.0);
  if (params.preconditioner == Preconditioner::kNone) {
    return;
  }
  if (params.preconditioner == Preconditioner::kJacobi) {
    for (std::size_t k = 0; k < cells; ++k) {
      if (stencil[k] & kFluid) {
        const double d = diag[k];
        precond[k] = d > 0.0 ? 1.0 / d : 0.0;
      }
    }
    return;
  }

  // Incomplete Cholesky: precond stores 1/sqrt of the modified diagonal.
  const double tau =
      params.preconditioner == Preconditioner::kMIC0 ? params.mic_tau : 0.0;
  for (std::size_t k = 0; k < cells; ++k) {
    const std::uint8_t bits = stencil[k];
    if (!(bits & kFluid)) {
      continue;
    }
    const double adiag = diag[k];
    double e = adiag;
    if (bits & kWest) {
      const double px = precond[k - 1];  // -1 * px is the L entry.
      e -= px * px;
      if (tau > 0.0 && (stencil[k - 1] & kNorth)) {
        e -= tau * (px * px);
      }
    }
    if (bits & kSouth) {
      const double py = precond[k - nx];
      e -= py * py;
      if (tau > 0.0 && (stencil[k - nx] & kEast)) {
        e -= tau * (py * py);
      }
    }
    if (e < params.mic_sigma * adiag) {
      e = adiag;  // Safety fallback keeps the factor positive definite.
    }
    precond[k] = e > 0.0 ? 1.0 / std::sqrt(e) : 0.0;
  }
}

}  // namespace reference_rebuild_detail

/// The serial stencil cache of `flags` under `params`.
inline ReferencePcgCache reference_pcg_cache(const fluid::FlagGrid& flags,
                                             const fluid::PcgParams& params) {
  ReferencePcgCache cache;
  reference_rebuild_detail::build_stencil(flags, &cache);
  reference_rebuild_detail::build_preconditioner(flags, params, &cache);
  return cache;
}

}  // namespace sfn::test
