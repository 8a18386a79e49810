#pragma once

// Test-only oracle for fluid::advect_scalar / fluid::advect_velocity: the
// original advection, which backtraces every sample through an out-of-line
// RK2 `backtrace` (MacGrid2::sample, i.e. Grid2::interpolate with its
// clamps on every read), clamps MacCormack through `clamp_to_stencil`, and
// applies the solid hold afterwards (the serial hold loop for scalars,
// MacGrid2::enforce_solid_boundaries for velocity). The arithmetic below
// is kept exactly as it was so that the flat advection can be required to
// reproduce it bit for bit (advection_test's
// Advection.MatchesReferenceBitwise). The one change: the row loops run on
// the calling thread (the original split them over an OpenMP team, which
// changes no sample's arithmetic), so the oracle stays cheap under TSan.
// Do not "improve" this file.

#include "fluid/advection.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace sfn::test {

class ReferenceAdvection {
 public:
  static void advect_scalar(
      const fluid::MacGrid2& vel, const fluid::FlagGrid& flags, double dt,
      const fluid::GridF& src, fluid::GridF* dst,
      fluid::AdvectionScheme scheme = fluid::AdvectionScheme::kSemiLagrangian) {
    const double cells_per_unit = static_cast<double>(vel.nx());
    advect_grid(vel, dt, cells_per_unit, src, dst, 0.5, 0.5, scheme);
    // Solids keep their previous (typically zero) value.
    for (int j = 0; j < dst->ny(); ++j) {
      for (int i = 0; i < dst->nx(); ++i) {
        if (flags.is_solid(i, j)) {
          (*dst)(i, j) = src(i, j);
        }
      }
    }
  }

  static void advect_velocity(
      const fluid::MacGrid2& vel, const fluid::FlagGrid& flags, double dt,
      fluid::MacGrid2* dst,
      fluid::AdvectionScheme scheme = fluid::AdvectionScheme::kSemiLagrangian) {
    const double cells_per_unit = static_cast<double>(vel.nx());
    // u faces sit at (i, j + 0.5) in cell space, v faces at (i + 0.5, j).
    advect_grid(vel, dt, cells_per_unit, vel.u(), &dst->u(), 0.0, 0.5,
                scheme);
    advect_grid(vel, dt, cells_per_unit, vel.v(), &dst->v(), 0.5, 0.0,
                scheme);
    dst->enforce_solid_boundaries(flags);
  }

 private:
  using GridF = fluid::GridF;
  using MacGrid2 = fluid::MacGrid2;

  /// RK2 (midpoint) backtrace in cell space. `pos` are cell-space
  /// coordinates where (i + 0.5, j + 0.5) is the centre of cell (i, j);
  /// `cells_per_unit` converts world velocities into cells per time unit.
  static std::pair<double, double> backtrace(const MacGrid2& vel, double x,
                                             double y, double dt,
                                             double cells_per_unit) {
    const auto [u1, v1] = vel.sample(x, y);
    const double mx = x - 0.5 * dt * u1 * cells_per_unit;
    const double my = y - 0.5 * dt * v1 * cells_per_unit;
    const auto [u2, v2] = vel.sample(mx, my);
    return {x - dt * u2 * cells_per_unit, y - dt * v2 * cells_per_unit};
  }

  /// Clamp a MacCormack-corrected value to the bilinear stencil extrema of
  /// the first-pass sample, which restores unconditional stability.
  static float clamp_to_stencil(const GridF& grid, double gx, double gy,
                                float value) {
    const int nx = grid.nx();
    const int ny = grid.ny();
    const int i0 = fluid::floor_cell(gx, 0, nx - 1);
    const int j0 = fluid::floor_cell(gy, 0, ny - 1);
    const int i1 = std::min(i0 + 1, nx - 1);
    const int j1 = std::min(j0 + 1, ny - 1);
    float lo = grid(i0, j0);
    float hi = lo;
    for (const int i : {i0, i1}) {
      for (const int j : {j0, j1}) {
        lo = std::min(lo, grid(i, j));
        hi = std::max(hi, grid(i, j));
      }
    }
    return std::clamp(value, lo, hi);
  }

  /// Generic semi-Lagrangian pass over a sampled grid. `offset_x/y`
  /// position sample (i, j) at (i + offset_x, j + offset_y) in cell space.
  static void semi_lagrangian(const MacGrid2& vel, double dt,
                              double cells_per_unit, const GridF& src,
                              GridF* dst, double offset_x, double offset_y) {
    const int nx = src.nx();
    const int ny = src.ny();
    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        const double x = i + offset_x;
        const double y = j + offset_y;
        const auto [sx, sy] = backtrace(vel, x, y, dt, cells_per_unit);
        (*dst)(i, j) = src.interpolate(sx - offset_x, sy - offset_y);
      }
    }
  }

  static void maccormack(const MacGrid2& vel, double dt,
                         double cells_per_unit, const GridF& src, GridF* dst,
                         double offset_x, double offset_y) {
    const int nx = src.nx();
    const int ny = src.ny();
    GridF forward(nx, ny, 0.0f);
    GridF back(nx, ny, 0.0f);
    semi_lagrangian(vel, dt, cells_per_unit, src, &forward, offset_x,
                    offset_y);
    semi_lagrangian(vel, -dt, cells_per_unit, forward, &back, offset_x,
                    offset_y);
    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        const float corrected =
            forward(i, j) + 0.5f * (src(i, j) - back(i, j));
        const double x = i + offset_x;
        const double y = j + offset_y;
        const auto [sx, sy] = backtrace(vel, x, y, dt, cells_per_unit);
        (*dst)(i, j) =
            clamp_to_stencil(src, sx - offset_x, sy - offset_y, corrected);
      }
    }
  }

  static void advect_grid(const MacGrid2& vel, double dt,
                          double cells_per_unit, const GridF& src, GridF* dst,
                          double offset_x, double offset_y,
                          fluid::AdvectionScheme scheme) {
    if (scheme == fluid::AdvectionScheme::kMacCormack) {
      maccormack(vel, dt, cells_per_unit, src, dst, offset_x, offset_y);
    } else {
      semi_lagrangian(vel, dt, cells_per_unit, src, dst, offset_x,
                      offset_y);
    }
  }
};

}  // namespace sfn::test
