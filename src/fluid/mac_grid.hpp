#pragma once

#include "fluid/flags.hpp"
#include "fluid/grid2.hpp"

#include <utility>

namespace sfn::fluid {

/// Staggered (marker-and-cell) velocity field on an nx-by-ny cell grid.
///
/// u is sampled at vertical cell faces: u(i, j) lives at world position
/// (i * dx, (j + 0.5) * dx) and the u grid is (nx + 1) x ny.
/// v is sampled at horizontal faces: v(i, j) lives at
/// ((i + 0.5) * dx, j * dx) and the v grid is nx x (ny + 1).
/// All operators work in grid units (dx = 1); world scaling is applied by
/// the caller where physically meaningful.
class MacGrid2 {
 public:
  MacGrid2() = default;
  MacGrid2(int nx, int ny)
      : nx_(nx), ny_(ny), u_(nx + 1, ny, 0.0f), v_(nx, ny + 1, 0.0f) {}

  [[nodiscard]] int nx() const { return nx_; }
  [[nodiscard]] int ny() const { return ny_; }

  [[nodiscard]] GridF& u() { return u_; }
  [[nodiscard]] const GridF& u() const { return u_; }
  [[nodiscard]] GridF& v() { return v_; }
  [[nodiscard]] const GridF& v() const { return v_; }

  void fill(float ux, float vy) {
    u_.fill(ux);
    v_.fill(vy);
  }

  /// Velocity vector sampled at cell-space position (x, y) where (i+0.5,
  /// j+0.5) is the centre of cell (i, j). Bilinear on each component's own
  /// staggered lattice.
  [[nodiscard]] std::pair<float, float> sample(double x, double y) const {
    // u samples live at (i, j + 0.5) in cell space.
    const float us = u_.interpolate(x, y - 0.5);
    // v samples live at (i + 0.5, j).
    const float vs = v_.interpolate(x - 0.5, y);
    return {us, vs};
  }

  /// Velocity at the centre of cell (i, j) (average of bounding faces).
  [[nodiscard]] std::pair<float, float> at_center(int i, int j) const {
    return {0.5f * (u_(i, j) + u_(i + 1, j)),
            0.5f * (v_(i, j) + v_(i, j + 1))};
  }

  /// Maximum per-component speed (grid units / time unit), for CFL.
  [[nodiscard]] double max_speed() const {
    return std::max(u_.max_abs(), v_.max_abs());
  }

  /// True when this is the staggered field of `flags`' cell grid: u is
  /// (nx + 1) x ny and v nx x (ny + 1). The flat row passes index the face
  /// rows by these shapes, so each checks this once before it starts.
  [[nodiscard]] bool fits(const FlagGrid& flags) const {
    return nx_ == flags.nx() && ny_ == flags.ny() && u_.nx() == nx_ + 1 &&
           u_.ny() == ny_ && v_.nx() == nx_ && v_.ny() == ny_ + 1;
  }

  /// Zero the normal component of velocity on every face that touches a
  /// solid cell (static solids, so the enforced face velocity is zero).
  /// One row pass over the u rows, then the v rows, on the OpenMP team.
  void enforce_solid_boundaries(const FlagGrid& flags);

  bool operator==(const MacGrid2&) const = default;

 private:
  int nx_ = 0;
  int ny_ = 0;
  GridF u_;
  GridF v_;
};

}  // namespace sfn::fluid
