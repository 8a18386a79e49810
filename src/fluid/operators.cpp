#include "fluid/operators.hpp"

#include "fluid/reduce.hpp"
#include "util/check.hpp"
#include "util/team.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <stdexcept>

namespace sfn::fluid {

namespace {

template <typename Grid>
auto* row_of(Grid& grid, int j) {
  return grid.data().data() + static_cast<std::size_t>(j) * grid.nx();
}

void check_cells(const GridF& grid, const FlagGrid& flags, const char* what) {
  SFN_CHECK(grid.nx() == flags.nx() && grid.ny() == flags.ny(), what);
}

/// divergence() into `out`, negated when kNegate (the projection rhs).
template <bool kNegate>
void divergence_pass(const MacGrid2& vel, const FlagGrid& flags,
                     GridF* out) {
  SFN_CHECK(vel.fits(flags),
            "divergence: velocity shape differs from the flag grid");
  check_cells(*out, flags, "divergence: output shape differs from the flags");
  const int nx = flags.nx();
  util::for_rows(flags.ny(), [&](int j) {
    const CellType* c = flags.cells() + static_cast<std::size_t>(j) * nx;
    const float* u = row_of(vel.u(), j);
    const float* v_lo = row_of(vel.v(), j);
    const float* v_hi = v_lo + nx;
    float* o = row_of(*out, j);
    for (int i = 0; i < nx; ++i) {
      float d = 0.0f;
      if (c[i] == CellType::kFluid) {
        d = (u[i + 1] - u[i]) + (v_hi[i] - v_lo[i]);
      }
      if constexpr (kNegate) {
        d = -d;
      }
      o[i] = d;
    }
  });
}

/// subtract_pressure_gradient's face updates, by row. Empty cells carry
/// Dirichlet p = 0; faces touching a solid (or inflow) cell are left for
/// enforce_solid_boundaries, so the solid side's value is never used.
class GradientRows {
 public:
  GradientRows(const GridF& pressure, const FlagGrid& flags, MacGrid2* vel)
      : cells_(flags.cells()),
        p_(pressure.data().data()),
        vel_(vel),
        nx_(flags.nx()),
        ny_(flags.ny()) {
    SFN_CHECK(vel->fits(flags),
              "subtract_pressure_gradient: velocity shape differs from the "
              "flag grid");
    check_cells(pressure, flags,
                "subtract_pressure_gradient: pressure shape differs from "
                "the flag grid");
  }

  /// Rows [0, ny) are u rows, [ny, 2 ny] v rows.
  [[nodiscard]] int rows() const { return ny_ + ny_ + 1; }

  /// Subtracts the gradient across the faces of row r; returns the row's
  /// faces.
  std::span<float> update(int r) const {
    if (r < ny_) {
      // u faces between cells (i - 1, j) and (i, j), 0 < i < nx.
      const auto base = static_cast<std::size_t>(r) * nx_;
      const CellType* c = cells_ + base;
      const float* p = p_ + base;
      float* u = row_of(vel_->u(), r);
      for (int i = 1; i < nx_; ++i) {
        if (is_solid_type(c[i - 1]) || is_solid_type(c[i])) {
          continue;  // Face velocity pinned by the solid boundary.
        }
        if (c[i - 1] == CellType::kFluid || c[i] == CellType::kFluid) {
          u[i] -= p_at(c[i], p[i]) - p_at(c[i - 1], p[i - 1]);
        }
      }
      return {u, static_cast<std::size_t>(nx_) + 1};
    }
    // v faces between cells (i, j - 1) and (i, j), 0 < j < ny.
    const int j = r - ny_;
    float* v = row_of(vel_->v(), j);
    const std::span<float> faces(v, static_cast<std::size_t>(nx_));
    if (j == 0 || j == ny_) {
      return faces;
    }
    const auto base = static_cast<std::size_t>(j) * nx_;
    const CellType* up = cells_ + base;
    const CellType* down = up - nx_;
    const float* p_up = p_ + base;
    const float* p_down = p_up - nx_;
    for (int i = 0; i < nx_; ++i) {
      if (is_solid_type(down[i]) || is_solid_type(up[i])) {
        continue;
      }
      if (down[i] == CellType::kFluid || up[i] == CellType::kFluid) {
        v[i] -= p_at(up[i], p_up[i]) - p_at(down[i], p_down[i]);
      }
    }
    return faces;
  }

 private:
  static float p_at(CellType c, float p) {
    return c == CellType::kFluid ? p : 0.0f;
  }

  const CellType* cells_;
  const float* p_;
  MacGrid2* vel_;
  int nx_;
  int ny_;
};

}  // namespace

void divergence(const MacGrid2& vel, const FlagGrid& flags, GridF* out) {
  divergence_pass<false>(vel, flags, out);
}

void negated_divergence(const MacGrid2& vel, const FlagGrid& flags,
                        GridF* rhs) {
  divergence_pass<true>(vel, flags, rhs);
}

void subtract_pressure_gradient(const GridF& pressure, const FlagGrid& flags,
                                MacGrid2* vel) {
  const GradientRows gradient(pressure, flags, vel);
  util::for_rows(gradient.rows(), [&](int r) { gradient.update(r); });
}

void subtract_pressure_gradient_and_clamp(const GridF& pressure,
                                          const FlagGrid& flags, float vmax,
                                          MacGrid2* vel) {
  const GradientRows gradient(pressure, flags, vel);
  util::for_rows(gradient.rows(), [&](int r) {
    for (float& face : gradient.update(r)) {
      float x = face;
      if (!std::isfinite(x)) {
        x = 0.0f;
      }
      face = std::clamp(x, -vmax, vmax);
    }
  });
}

void apply_pressure_laplacian(const GridF& p, const FlagGrid& flags,
                              GridF* out) {
  check_cells(p, flags,
              "apply_pressure_laplacian: pressure shape differs from the "
              "flag grid");
  check_cells(*out, flags,
              "apply_pressure_laplacian: output shape differs from the "
              "flag grid");
  const int nx = flags.nx();
  const int ny = flags.ny();
  const CellType* cells = flags.cells();
  const float* in = p.data().data();
  util::for_rows(ny, [&](int j) {
    const auto base = static_cast<std::size_t>(j) * nx;
    float* o = row_of(*out, j);
    for (int i = 0; i < nx; ++i) {
      // Non-fluid rows are identity rows.
      o[i] = cells[base + i] == CellType::kFluid
                 ? laplacian_at(cells, in, nx, ny, i, j)
                 : in[base + i];
    }
  });
}

double div_norm(const MacGrid2& vel, const FlagGrid& flags,
                const Grid2<int>& solid_distance, int weight_k) {
  SFN_CHECK(vel.fits(flags),
            "div_norm: velocity shape differs from the flag grid");
  SFN_CHECK(solid_distance.nx() == flags.nx() &&
                solid_distance.ny() == flags.ny(),
            "div_norm: distance field shape differs from the flag grid");
  const int nx = flags.nx();
  // DivNorm feeds the switch controller, so its accumulation order is
  // fixed by the grid (see fluid/reduce.hpp) — an omp reduction here would
  // make CumDivNorm, and therefore switch decisions, depend on the OpenMP
  // team size of whichever thread runs the session.
  double acc = 0.0;
  long long fluid_cells = 0;
  deterministic_row_sum_count(
      flags.ny(),
      [&](int j, double* row_sum, long long* row_count) {
        const CellType* c = flags.cells() + static_cast<std::size_t>(j) * nx;
        const int* dist = row_of(solid_distance, j);
        const float* u = row_of(vel.u(), j);
        const float* v_lo = row_of(vel.v(), j);
        const float* v_hi = v_lo + nx;
        for (int i = 0; i < nx; ++i) {
          if (c[i] != CellType::kFluid) {
            continue;
          }
          ++*row_count;
          const double d = (u[i + 1] - u[i]) + (v_hi[i] - v_lo[i]);
          const double w =
              std::max(1.0, static_cast<double>(weight_k - dist[i]));
          *row_sum += w * d * d;
        }
      },
      &acc, &fluid_cells);
  return fluid_cells > 0 ? acc / static_cast<double>(fluid_cells) : 0.0;
}

double max_divergence(const MacGrid2& vel, const FlagGrid& flags) {
  const int nx = vel.nx();
  const int ny = vel.ny();
  const GridF& u = vel.u();
  const GridF& v = vel.v();
  double m = 0.0;
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      if (!flags.is_fluid(i, j)) {
        continue;
      }
      const double d = (u(i + 1, j) - u(i, j)) + (v(i, j + 1) - v(i, j));
      m = std::max(m, std::abs(d));
    }
  }
  return m;
}

double quality_loss(const GridF& reference, const GridF& approx) {
  if (reference.nx() != approx.nx() || reference.ny() != approx.ny()) {
    throw std::invalid_argument("quality_loss: grid size mismatch");
  }
  double acc = 0.0;
  for (std::size_t k = 0; k < reference.size(); ++k) {
    acc += std::abs(static_cast<double>(approx[k]) -
                    static_cast<double>(reference[k]));
  }
  return acc / static_cast<double>(reference.size());
}

}  // namespace sfn::fluid
