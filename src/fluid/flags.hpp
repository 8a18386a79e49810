#pragma once

#include "fluid/grid2.hpp"

#include <cstdint>
#include <vector>

namespace sfn::fluid {

/// Cell classification for the MAC discretisation.
enum class CellType : std::uint8_t {
  kFluid = 0,   ///< Interior cell solved for pressure.
  kSolid = 1,   ///< Static obstacle / wall: u.n = 0 on its faces.
  kEmpty = 2,   ///< Open (free-surface/outflow) cell: Dirichlet p = 0.
  kInflow = 3,  ///< Inlet: prescribed face velocity, Neumann pressure.
};

/// FlagGrid::is_solid for a cell inside the grid: the flat row passes test
/// the cell bytes with this and treat positions outside the grid as solid
/// themselves.
[[nodiscard]] constexpr bool is_solid_type(CellType c) {
  return c == CellType::kSolid || c == CellType::kInflow;
}

/// Grid of cell types with helpers for the standard smoke-box setup:
/// solid walls left/right/bottom, open (empty) top row so the pressure
/// Poisson system is non-singular.
class FlagGrid {
 public:
  FlagGrid() = default;
  FlagGrid(int nx, int ny, CellType fill = CellType::kFluid)
      : cells_(nx, ny, fill) {}

  [[nodiscard]] int nx() const { return cells_.nx(); }
  [[nodiscard]] int ny() const { return cells_.ny(); }

  [[nodiscard]] CellType at(int i, int j) const { return cells_(i, j); }
  void set(int i, int j, CellType t) { cells_(i, j) = t; }

  [[nodiscard]] bool is_fluid(int i, int j) const {
    return cells_.inside(i, j) && cells_(i, j) == CellType::kFluid;
  }
  [[nodiscard]] bool is_solid(int i, int j) const {
    // Out-of-range counts as solid so the domain boundary behaves as a wall
    // even if the caller forgot to rasterise border cells. Inflow cells are
    // velocity-prescribed, which for the pressure stencil, advection hold
    // and gradient update is exactly the solid (Neumann) treatment — the
    // only difference is that their faces are re-pinned to the prescribed
    // velocity instead of zero (SmokeSim::pin_boundary_velocities).
    return !cells_.inside(i, j) || is_solid_type(cells_(i, j));
  }
  [[nodiscard]] bool is_empty(int i, int j) const {
    return cells_.inside(i, j) && cells_(i, j) == CellType::kEmpty;
  }
  [[nodiscard]] bool is_inflow(int i, int j) const {
    return cells_.inside(i, j) && cells_(i, j) == CellType::kInflow;
  }

  /// Solid walls on left/right/bottom borders, empty (open) top row.
  void set_smoke_box_boundary();

  /// Number of fluid cells.
  [[nodiscard]] int count_fluid() const;

  [[nodiscard]] const Grid2<CellType>& raw() const { return cells_; }

  /// The cell bytes, row-major, for the flat row passes (which check the
  /// shapes of their other operands against this grid first).
  [[nodiscard]] const CellType* cells() const {
    return cells_.data().data();
  }

  bool operator==(const FlagGrid&) const = default;

 private:
  Grid2<CellType> cells_;
};

/// Integer distance (in cells, Manhattan metric via BFS) from each cell to
/// the nearest solid cell; solids get 0. Used for the DivNorm weighting
/// w_i = max(1, k - d_i) of paper Eq. 5.
Grid2<int> solid_distance_field(const FlagGrid& flags);

/// solid_distance_field written into `dist` (reshaped to the flags if it
/// differs), with `queue` as the BFS's flat FIFO. Neither allocates once
/// both have held a grid of this size, so a simulation can refresh the
/// field every step (moving obstacles) without touching the heap.
void solid_distance_field(const FlagGrid& flags, Grid2<int>* dist,
                          std::vector<int>* queue);

}  // namespace sfn::fluid
