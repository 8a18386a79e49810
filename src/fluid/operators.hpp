#pragma once

#include "fluid/flags.hpp"
#include "fluid/grid2.hpp"
#include "fluid/mac_grid.hpp"

#include <cstddef>

namespace sfn::fluid {

/// Discrete divergence of a MAC velocity field, per cell, in grid units:
/// div(i,j) = u(i+1,j) - u(i,j) + v(i,j+1) - v(i,j). Non-fluid cells get 0.
///
/// Like every operator here it runs as one flat row pass on the OpenMP
/// team (util::for_rows), each output written by one thread, so the bits
/// do not depend on the team size; it checks its operands' shapes against
/// `flags` first (util::CheckError on a mismatch).
void divergence(const MacGrid2& vel, const FlagGrid& flags, GridF* out);

/// The projection's right-hand side b = -div(u) in one pass: -div on fluid
/// cells, -0.0f (the negated 0 of divergence()) everywhere else.
void negated_divergence(const MacGrid2& vel, const FlagGrid& flags,
                        GridF* rhs);

/// Subtract the discrete pressure gradient from the velocity field
/// (Algorithm 1 line 18 with dt/rho folded into p): across each face
/// between two fluid cells, u -= p(right) - p(left). Faces adjacent to
/// empty cells use p = 0 on the empty side; faces touching solids are
/// left for enforce_solid_boundaries.
void subtract_pressure_gradient(const GridF& pressure, const FlagGrid& flags,
                                MacGrid2* vel);

/// subtract_pressure_gradient, then the step's safety clamp on every face
/// (a non-finite component becomes 0, then each is clamped into
/// [-vmax, vmax]), face by face in one pass over the u rows and the v rows.
void subtract_pressure_gradient_and_clamp(const GridF& pressure,
                                          const FlagGrid& flags, float vmax,
                                          MacGrid2* vel);

/// Apply the (negated) 5-point pressure Laplacian A = -L with the flag-aware
/// stencil used by all solvers: for each fluid cell, diag = #non-solid
/// neighbours, off-diag -1 towards fluid neighbours, empty neighbours
/// contribute only to the diagonal (Dirichlet p = 0). Non-fluid rows are
/// identity rows (out = in) so the operator is invertible on the full grid.
void apply_pressure_laplacian(const GridF& p, const FlagGrid& flags,
                              GridF* out);

/// (A p) at fluid cell k = j * nx + i of an nx x ny grid, from the cell
/// bytes and the pressure: apply_pressure_laplacian's stencil, which the
/// guard's residual sweep (fluid::residual_sweep) shares. The neighbours
/// are visited as i+1, i-1, j+1, j-1, in float, and cells outside the grid
/// count as solid.
[[nodiscard]] inline float laplacian_at(const CellType* cells, const float* p,
                                        int nx, int ny, int i, int j) {
  const auto k = static_cast<std::size_t>(j) * nx + i;
  float diag = 0.0f;
  float off = 0.0f;
  const auto visit = [&](bool inside, std::size_t n) {
    if (!inside || is_solid_type(cells[n])) {
      return;  // Neumann: no coupling, no diagonal contribution.
    }
    diag += 1.0f;  // Fluid or empty neighbour.
    if (cells[n] == CellType::kFluid) {
      off += p[n];
    }
    // Empty neighbour: Dirichlet p = 0, diagonal only.
  };
  visit(i + 1 < nx, k + 1);
  visit(i > 0, k - 1);
  visit(j + 1 < ny, k + nx);
  visit(j > 0, k - nx);
  return diag * p[k] - off;
}

/// Weighted squared L2 norm of the divergence over fluid cells — the
/// paper's DivNorm objective (Eq. 5) with w_i = max(1, k - d_i), d_i the
/// solid distance field — normalised by the fluid-cell count. The paper
/// sums over cells; normalising makes the metric comparable across grid
/// sizes, which the runtime needs because its KNN quality database is
/// built on small offline problems and queried on larger online ones.
double div_norm(const MacGrid2& vel, const FlagGrid& flags,
                const Grid2<int>& solid_distance, int weight_k = 3);

/// Unweighted max |div| over fluid cells, for convergence reporting.
double max_divergence(const MacGrid2& vel, const FlagGrid& flags);

/// Mean absolute difference over all cells — the paper's quality-loss
/// metric Qloss (Eq. 3) between two density fields.
double quality_loss(const GridF& reference, const GridF& approx);

}  // namespace sfn::fluid
