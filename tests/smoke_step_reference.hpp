#pragma once

// Test-only oracle for the per-step passes outside advection, the forward
// and the PCG: SmokeSim::step's buoyancy, both solid-face pins, divergence
// and the rhs copy, the pressure gradient, the velocity clamp and DivNorm
// (with vorticity confinement and the source stamp, which the class copy
// carries along); NeuralProjection's encode and decode; and
// FallbackPolicy's guard sweeps (non-finite count, poisson_residual with
// its A p grid, the rhs max-norm). This is the original code, verbatim
// through the FlagGrid/Grid2 accessors, so that the flat row passes can
// be required to reproduce it bit for bit (smoke_sim_test's SmokeStep.*).
// The one change: loops that ran on an OpenMP team (plain pragmas or
// util::for_rows) run on the calling thread, which changes no value's
// arithmetic and keeps the oracle cheap under TSan. Advection, obstacle
// rasterisation, the distance field, the forward pass and the PCG are the
// library's own (each has its own oracle or did not change). Do not
// "improve" this file.

#include "core/neural_projection.hpp"
#include "fluid/advection.hpp"
#include "fluid/flags.hpp"
#include "fluid/grid2.hpp"
#include "fluid/guard.hpp"
#include "fluid/mac_grid.hpp"
#include "fluid/pcg.hpp"
#include "fluid/poisson.hpp"
#include "fluid/scene.hpp"
#include "fluid/smoke_sim.hpp"
#include "nn/network.hpp"
#include "nn/workspace.hpp"
#include "runtime/fallback.hpp"
#include "workload/problems.hpp"
#include "workload/turbulence.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace sfn::test {

using fluid::CellType;
using fluid::FlagGrid;
using fluid::Grid2;
using fluid::GridF;
using fluid::MacGrid2;

// --- Operators -------------------------------------------------------------

inline void reference_enforce_solid_boundaries(const FlagGrid& flags,
                                               MacGrid2* vel) {
  const int nx_ = vel->nx();
  const int ny_ = vel->ny();
  GridF& u_ = vel->u();
  GridF& v_ = vel->v();
  for (int j = 0; j < ny_; ++j) {
    for (int i = 0; i <= nx_; ++i) {
      // Face between cells (i-1, j) and (i, j); out-of-range is solid.
      if (flags.is_solid(i - 1, j) || flags.is_solid(i, j)) {
        u_(i, j) = 0.0f;
      }
    }
  }
  for (int j = 0; j <= ny_; ++j) {
    for (int i = 0; i < nx_; ++i) {
      if (flags.is_solid(i, j - 1) || flags.is_solid(i, j)) {
        v_(i, j) = 0.0f;
      }
    }
  }
}

inline void reference_divergence(const MacGrid2& vel, const FlagGrid& flags,
                                 GridF* out) {
  const int nx = vel.nx();
  const int ny = vel.ny();
  const GridF& u = vel.u();
  const GridF& v = vel.v();
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      if (!flags.is_fluid(i, j)) {
        (*out)(i, j) = 0.0f;
        continue;
      }
      (*out)(i, j) = (u(i + 1, j) - u(i, j)) + (v(i, j + 1) - v(i, j));
    }
  }
}

inline void reference_subtract_pressure_gradient(const GridF& pressure,
                                                 const FlagGrid& flags,
                                                 MacGrid2* vel) {
  const int nx = vel->nx();
  const int ny = vel->ny();
  GridF& u = vel->u();
  GridF& v = vel->v();

  auto p_at = [&](int i, int j) -> float {
    // Empty cells carry Dirichlet p = 0; solids are handled by the caller
    // zeroing face velocities, so their value is never used.
    if (flags.is_fluid(i, j)) {
      return pressure(i, j);
    }
    return 0.0f;
  };

  for (int j = 0; j < ny; ++j) {
    for (int i = 1; i < nx; ++i) {
      const bool left_solid = flags.is_solid(i - 1, j);
      const bool right_solid = flags.is_solid(i, j);
      if (left_solid || right_solid) {
        continue;  // Face velocity pinned by the solid boundary.
      }
      if (flags.is_fluid(i - 1, j) || flags.is_fluid(i, j)) {
        u(i, j) -= p_at(i, j) - p_at(i - 1, j);
      }
    }
  }
  for (int j = 1; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      const bool down_solid = flags.is_solid(i, j - 1);
      const bool up_solid = flags.is_solid(i, j);
      if (down_solid || up_solid) {
        continue;
      }
      if (flags.is_fluid(i, j - 1) || flags.is_fluid(i, j)) {
        v(i, j) -= p_at(i, j) - p_at(i, j - 1);
      }
    }
  }
}

inline void reference_apply_pressure_laplacian(const GridF& p,
                                               const FlagGrid& flags,
                                               GridF* out) {
  const int nx = p.nx();
  const int ny = p.ny();
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      if (!flags.is_fluid(i, j)) {
        (*out)(i, j) = p(i, j);
        continue;
      }
      float diag = 0.0f;
      float off = 0.0f;
      auto visit = [&](int ni, int nj) {
        if (flags.is_solid(ni, nj)) {
          return;  // Neumann: no coupling, no diagonal contribution.
        }
        diag += 1.0f;  // Fluid or empty neighbour.
        if (flags.is_fluid(ni, nj)) {
          off += p(ni, nj);
        }
        // Empty neighbour: Dirichlet p = 0, diagonal only.
      };
      visit(i + 1, j);
      visit(i - 1, j);
      visit(i, j + 1);
      visit(i, j - 1);
      (*out)(i, j) = diag * p(i, j) - off;
    }
  }
}

/// div_norm with fluid/reduce.hpp's order: per-row partials accumulated
/// left to right, combined in ascending row order.
inline double reference_div_norm(const MacGrid2& vel, const FlagGrid& flags,
                                 const Grid2<int>& solid_distance,
                                 int weight_k) {
  const int nx = vel.nx();
  const int ny = vel.ny();
  const GridF& u = vel.u();
  const GridF& v = vel.v();
  std::vector<double> sums(static_cast<std::size_t>(ny), 0.0);
  std::vector<long long> counts(static_cast<std::size_t>(ny), 0);
  for (int j = 0; j < ny; ++j) {
    double* row_sum = &sums[static_cast<std::size_t>(j)];
    long long* row_count = &counts[static_cast<std::size_t>(j)];
    for (int i = 0; i < nx; ++i) {
      if (!flags.is_fluid(i, j)) {
        continue;
      }
      ++*row_count;
      const double d = (u(i + 1, j) - u(i, j)) + (v(i, j + 1) - v(i, j));
      const double w = std::max(
          1.0, static_cast<double>(weight_k - solid_distance(i, j)));
      *row_sum += w * d * d;
    }
  }
  double acc = 0.0;
  long long fluid_cells = 0;
  for (int j = 0; j < ny; ++j) {
    acc += sums[static_cast<std::size_t>(j)];
    fluid_cells += counts[static_cast<std::size_t>(j)];
  }
  return fluid_cells > 0 ? acc / static_cast<double>(fluid_cells) : 0.0;
}

inline double reference_poisson_residual(const FlagGrid& flags,
                                         const GridF& rhs,
                                         const GridF& pressure) {
  GridF ap(rhs.nx(), rhs.ny(), 0.0f);
  reference_apply_pressure_laplacian(pressure, flags, &ap);
  double m = 0.0;
  for (int j = 0; j < rhs.ny(); ++j) {
    for (int i = 0; i < rhs.nx(); ++i) {
      if (!flags.is_fluid(i, j)) {
        continue;
      }
      m = std::max(m, std::abs(static_cast<double>(rhs(i, j)) - ap(i, j)));
    }
  }
  return m;
}

/// Max-norm of `g` over fluid cells, ignoring non-finite entries (a NaN
/// rhs cell must not silence the comparison below).
inline double reference_fluid_max_abs(const FlagGrid& flags, const GridF& g) {
  double m = 0.0;
  for (int j = 0; j < g.ny(); ++j) {
    for (int i = 0; i < g.nx(); ++i) {
      const double v = std::abs(g(i, j));
      if (flags.is_fluid(i, j) && std::isfinite(v)) {
        m = std::max(m, v);
      }
    }
  }
  return m;
}

inline int reference_non_finite_cells(const GridF& pressure) {
  int bad_cells = 0;
  for (std::size_t k = 0; k < pressure.size(); ++k) {
    if (!std::isfinite(pressure[k])) {
      ++bad_cells;
    }
  }
  return bad_cells;
}

// --- NeuralProjection encode / decode ------------------------------------

inline void reference_encode_solver_input(const FlagGrid& flags,
                                          const GridF& rhs, double* inv_scale,
                                          nn::Tensor* out) {
  const int nx = flags.nx();
  const int ny = flags.ny();
  out->resize(nn::Shape{2, ny, nx});
  nn::Tensor& input = *out;

  double sum_sq = 0.0;
  int fluid_cells = 0;
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      if (flags.is_fluid(i, j)) {
        const double v = rhs(i, j);
        if (std::isfinite(v)) {
          sum_sq += v * v;
          ++fluid_cells;
        }
      }
    }
  }
  constexpr double kMinScale = 1e-8;
  double s = fluid_cells > 0 ? 3.0 * std::sqrt(sum_sq / fluid_cells) : 0.0;
  s = std::max(s, kMinScale);
  const auto inv = static_cast<float>(1.0 / s);
  *inv_scale = 1.0 / s;

  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      const float r = rhs(i, j);
      input.at(0, j, i) =
          (flags.is_fluid(i, j) && std::isfinite(r)) ? r * inv : 0.0f;
      float geom = 1.0f;
      if (flags.is_solid(i, j)) geom = 0.0f;
      else if (flags.is_empty(i, j)) geom = 0.5f;
      input.at(1, j, i) = geom;
    }
  }
}

/// The decode loop of NeuralProjection::solve; returns the non-finite
/// count.
inline int reference_decode(const FlagGrid& flags, const nn::Tensor& output,
                            double inv_scale, GridF* pressure) {
  const int nx = flags.nx();
  const int ny = flags.ny();
  const auto scale = static_cast<float>(1.0 / inv_scale);
  int non_finite = 0;
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      const float v = output.at(0, j, i) * scale;
      const bool fluid = flags.is_fluid(i, j);
      const bool finite = std::isfinite(v);
      (*pressure)(i, j) = (fluid && finite) ? v : 0.0f;
      if (fluid && !finite) {
        ++non_finite;
      }
    }
  }
  return non_finite;
}

/// NeuralProjection with the original encode and decode around the
/// library's forward pass (shared weights, local inference).
class ReferenceNeuralProjection final : public fluid::PoissonSolver {
 public:
  explicit ReferenceNeuralProjection(const nn::Network* net) : net_(net) {}

  fluid::SolveStats solve(const FlagGrid& flags, const GridF& rhs,
                          GridF* pressure) override {
    fluid::SolveStats stats;
    double inv_scale = 1.0;
    reference_encode_solver_input(flags, rhs, &inv_scale, &input_);
    const nn::Tensor& output = net_->forward_inference(input_, ws_);
    stats.non_finite = reference_decode(flags, output, inv_scale, pressure);
    stats.iterations = 1;
    stats.converged = true;
    stats.residual = 0.0;
    stats.flops = net_->flops(input_.shape());
    return stats;
  }

  [[nodiscard]] std::string name() const override { return "reference"; }

 private:
  const nn::Network* net_;
  nn::Workspace ws_;
  nn::Tensor input_;
};

// --- Guard ------------------------------------------------------------------

/// The guard's three sweeps and its trip decision.
struct ReferenceGuardSweeps {
  int bad_cells = 0;
  double residual = 0.0;
  double scale = 0.0;
  double relative = 0.0;
};

inline ReferenceGuardSweeps reference_guard_sweeps(const FlagGrid& flags,
                                                   const GridF& rhs,
                                                   const GridF& pressure) {
  ReferenceGuardSweeps out;
  out.bad_cells = reference_non_finite_cells(pressure);
  out.residual = reference_poisson_residual(flags, rhs, pressure);
  out.scale = std::max(reference_fluid_max_abs(flags, rhs), 1e-12);
  out.relative = out.residual / out.scale;
  return out;
}

/// FallbackPolicy::inspect with the original sweeps and its own PCG,
/// without the metrics and events.
class ReferenceFallbackPolicy final : public fluid::StepGuard {
 public:
  explicit ReferenceFallbackPolicy(runtime::GuardParams params)
      : params_(params) {}

  fluid::GuardOutcome inspect(const FlagGrid& flags, const GridF& rhs,
                              GridF* pressure,
                              const fluid::SolveStats& solve) override {
    fluid::GuardOutcome outcome;
    if (!params_.enabled) {
      return outcome;
    }
    outcome.checked = true;
    const ReferenceGuardSweeps sweeps =
        reference_guard_sweeps(flags, rhs, *pressure);
    const int bad_cells = sweeps.bad_cells;
    const double relative = sweeps.relative;
    outcome.relative_residual = relative;
    const bool tripped = solve.non_finite > 0 || bad_cells > 0 ||
                         !std::isfinite(relative) ||
                         relative > params_.residual_threshold;
    if (!tripped) {
      return outcome;
    }
    if (bad_cells > 0 || !(relative < 1.0)) {
      pressure->fill(0.0f);
    }
    outcome.fallback = true;
    outcome.fallback_solve = pcg_.solve(flags, rhs, pressure);
    return outcome;
  }

 private:
  runtime::GuardParams params_;
  fluid::PcgSolver pcg_;
};

// --- SmokeSim ---------------------------------------------------------------

/// SmokeSim as it was, renamed: every step pass through the accessors,
/// both pins, the stored divergence and its negated copy.
class ReferenceSmokeSim {
 public:
  using SmokeParams = fluid::SmokeParams;
  using SceneSpec = fluid::SceneSpec;
  using SmokeSource = fluid::SmokeSource;
  using StepTelemetry = fluid::StepTelemetry;
  using Obstacle = fluid::Obstacle;
  using InflowRegion = fluid::InflowRegion;

  ReferenceSmokeSim(SmokeParams params, FlagGrid flags, SceneSpec scene = {})
      : params_(params),
        scene_(std::move(scene)),
        flags_(std::move(flags)),
        base_flags_(flags_),
        solid_distance_(fluid::solid_distance_field(flags_)),
        density_(flags_.nx(), flags_.ny(), 0.0f),
        pressure_(flags_.nx(), flags_.ny(), 0.0f),
        divergence_(flags_.nx(), flags_.ny(), 0.0f),
        rhs_(flags_.nx(), flags_.ny(), 0.0f),
        vel_(flags_.nx(), flags_.ny()),
        vel_scratch_(flags_.nx(), flags_.ny()),
        density_scratch_(flags_.nx(), flags_.ny(), 0.0f) {
    sources_.push_back(SmokeSource{});
    if (!scene_.moving_obstacles.empty()) {
      refresh_moving_geometry(0.0, /*clear_density=*/false);
    }
    if (!scene_.inflows.empty()) {
      const double dx = 1.0 / flags_.nx();
      for (int j = 0; j < flags_.ny(); ++j) {
        for (int i = 0; i < flags_.nx(); ++i) {
          if (flags_.at(i, j) != CellType::kInflow) {
            continue;
          }
          const InflowRegion* region =
              fluid::inflow_region_at(scene_.inflows, i, j, dx);
          if (region != nullptr) {
            density_(i, j) = static_cast<float>(region->smoke);
          }
        }
      }
    }
  }

  [[nodiscard]] GridF& density() { return density_; }
  [[nodiscard]] const GridF& density() const { return density_; }
  [[nodiscard]] MacGrid2& velocity() { return vel_; }
  [[nodiscard]] const MacGrid2& velocity() const { return vel_; }
  [[nodiscard]] const FlagGrid& flags() const { return flags_; }
  [[nodiscard]] const GridF& pressure() const { return pressure_; }
  [[nodiscard]] const GridF& rhs() const { return rhs_; }
  [[nodiscard]] double cum_div_norm() const { return cum_div_norm_; }
  std::vector<SmokeSource>& sources() { return sources_; }

  void refresh_moving_geometry(double t, bool clear_density) {
    moving_now_.clear();
    moving_now_.reserve(scene_.moving_obstacles.size());
    for (const auto& ob : scene_.moving_obstacles) {
      moving_now_.push_back(ob.pose_at(t));
    }
    flags_ = base_flags_;
    fluid::rasterize_obstacles(moving_now_, &flags_);
    fluid::solid_distance_field(flags_, &solid_distance_, &distance_queue_);
    if (clear_density) {
      for (int j = 0; j < flags_.ny(); ++j) {
        for (int i = 0; i < flags_.nx(); ++i) {
          if (flags_.at(i, j) == CellType::kSolid &&
              base_flags_.at(i, j) != CellType::kSolid) {
            density_(i, j) = 0.0f;
          }
        }
      }
    }
  }

  void pin_boundary_velocities() {
    reference_enforce_solid_boundaries(flags_, &vel_);
    if (scene_.inflows.empty() && moving_now_.empty()) {
      return;
    }
    const int nx = flags_.nx();
    const int ny = flags_.ny();
    const double dx = 1.0 / nx;

    const auto is_wall = [this](int i, int j) {
      return !flags_.raw().inside(i, j) ||
             base_flags_.at(i, j) == CellType::kSolid;
    };
    const auto is_moving_solid = [this](int i, int j) {
      return flags_.raw().inside(i, j) &&
             flags_.at(i, j) == CellType::kSolid &&
             base_flags_.at(i, j) != CellType::kSolid;
    };
    const auto owner = [this, dx](int i, int j) -> const Obstacle* {
      const double x = (i + 0.5) * dx;
      const double y = (j + 0.5) * dx;
      for (const auto& ob : moving_now_) {
        if (ob.contains(x, y)) {
          return &ob;
        }
      }
      return nullptr;
    };
    const auto inflow_at = [this, dx](int i, int j) -> const InflowRegion* {
      if (!flags_.is_inflow(i, j)) {
        return nullptr;
      }
      return fluid::inflow_region_at(scene_.inflows, i, j, dx);
    };

    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i <= nx; ++i) {
        const int ai = i - 1;
        if (!flags_.is_solid(ai, j) && !flags_.is_solid(i, j)) {
          continue;  // Interior face.
        }
        if (is_wall(ai, j) || is_wall(i, j)) {
          continue;
        }
        const double fx = i * dx;
        const double fy = (j + 0.5) * dx;
        if (is_moving_solid(ai, j) || is_moving_solid(i, j)) {
          const Obstacle* ob = is_moving_solid(ai, j) ? owner(ai, j)
                                                      : owner(i, j);
          if (ob != nullptr) {
            vel_.u()(i, j) =
                static_cast<float>(ob->velocity_at(fx, fy).first);
          }
          continue;
        }
        const InflowRegion* region = inflow_at(ai, j);
        if (region == nullptr) {
          region = inflow_at(i, j);
        }
        if (region != nullptr) {
          vel_.u()(i, j) = static_cast<float>(region->u);
        }
      }
    }
    for (int j = 0; j <= ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        const int aj = j - 1;
        if (!flags_.is_solid(i, aj) && !flags_.is_solid(i, j)) {
          continue;
        }
        if (is_wall(i, aj) || is_wall(i, j)) {
          continue;
        }
        const double fx = (i + 0.5) * dx;
        const double fy = j * dx;
        if (is_moving_solid(i, aj) || is_moving_solid(i, j)) {
          const Obstacle* ob = is_moving_solid(i, aj) ? owner(i, aj)
                                                      : owner(i, j);
          if (ob != nullptr) {
            vel_.v()(i, j) =
                static_cast<float>(ob->velocity_at(fx, fy).second);
          }
          continue;
        }
        const InflowRegion* region = inflow_at(i, aj);
        if (region == nullptr) {
          region = inflow_at(i, j);
        }
        if (region != nullptr) {
          vel_.v()(i, j) = static_cast<float>(region->v);
        }
      }
    }
  }

  void apply_sources() {
    const int nx = flags_.nx();
    const int ny = flags_.ny();
    const double dx = 1.0 / nx;
    for (const auto& src : sources_) {
      const int lo_i = std::max(
          0, fluid::floor_cell((src.cx - src.radius) / dx, 0, nx - 1) - 1);
      const int hi_i = std::min(
          nx - 1, fluid::floor_cell((src.cx + src.radius) / dx, 0, nx - 1) + 1);
      const int lo_j = std::max(
          0, fluid::floor_cell((src.cy - src.radius) / dx, 0, ny - 1) - 1);
      const int hi_j = std::min(
          ny - 1, fluid::floor_cell((src.cy + src.radius) / dx, 0, ny - 1) + 1);
      for (int j = lo_j; j <= hi_j; ++j) {
        for (int i = lo_i; i <= hi_i; ++i) {
          const double x = (i + 0.5) * dx;
          const double y = (j + 0.5) * dx;
          const double r2 = (x - src.cx) * (x - src.cx) +
                            (y - src.cy) * (y - src.cy);
          if (r2 > src.radius * src.radius || !flags_.is_fluid(i, j)) {
            continue;
          }
          density_(i, j) = static_cast<float>(src.density);
          vel_.v()(i, j) = static_cast<float>(src.velocity);
          vel_.v()(i, j + 1) = static_cast<float>(src.velocity);
        }
      }
    }
  }

  StepTelemetry step(fluid::PoissonSolver* solver,
                     fluid::StepGuard* guard = nullptr) {
    StepTelemetry out;
    const int nx = flags_.nx();
    const int ny = flags_.ny();

    if (!scene_.moving_obstacles.empty()) {
      refresh_moving_geometry(static_cast<double>(steps_) * params_.dt,
                              /*clear_density=*/true);
    }

    {
      fluid::advect_scalar(vel_, flags_, params_.dt, density_,
                           &density_scratch_, params_.advection);
      std::swap(density_, density_scratch_);
      fluid::advect_velocity(vel_, flags_, params_.dt, &vel_scratch_,
                             params_.advection);
      std::swap(vel_, vel_scratch_);
    }

    {
      const float buoy = static_cast<float>(params_.buoyancy * params_.dt);
      for (int j = 1; j < ny; ++j) {
        for (int i = 0; i < nx; ++i) {
          if (flags_.is_fluid(i, j - 1) && flags_.is_fluid(i, j)) {
            vel_.v()(i, j) +=
                buoy * 0.5f * (density_(i, j - 1) + density_(i, j));
          }
        }
      }

      if (params_.vorticity_confinement > 0.0) {
        add_vorticity_confinement();
      }

      apply_sources();
      pin_boundary_velocities();
    }

    {
      reference_divergence(vel_, flags_, &divergence_);
      for (int j = 0; j < ny; ++j) {
        for (int i = 0; i < nx; ++i) {
          rhs_(i, j) = -divergence_(i, j);
        }
      }
      if (!params_.warm_start_pressure) {
        pressure_.fill(0.0f);
      }
      out.solve = solver->solve(flags_, rhs_, &pressure_);
      if (guard != nullptr) {
        out.guard = guard->inspect(flags_, rhs_, &pressure_, out.solve);
      }
      reference_subtract_pressure_gradient(pressure_, flags_, &vel_);
      pin_boundary_velocities();

      const auto vmax = static_cast<float>(params_.max_velocity);
      auto clamp_grid = [vmax](GridF& g) {
        for (std::size_t k = 0; k < g.size(); ++k) {
          float v = g[k];
          if (!std::isfinite(v)) {
            v = 0.0f;
          }
          g[k] = std::clamp(v, -vmax, vmax);
        }
      };
      clamp_grid(vel_.u());
      clamp_grid(vel_.v());
    }

    out.div_norm = reference_div_norm(vel_, flags_, solid_distance_,
                                      params_.divnorm_weight_k);
    cum_div_norm_ += out.div_norm;
    out.cum_div_norm = cum_div_norm_;
    ++steps_;
    return out;
  }

 private:
  [[nodiscard]] float vorticity_at(int i, int j) const {
    const int nx = flags_.nx();
    const int ny = flags_.ny();
    const auto [ur, vr] = vel_.at_center(std::min(i + 1, nx - 1), j);
    const auto [ul, vl] = vel_.at_center(std::max(i - 1, 0), j);
    const auto [uu, vu] = vel_.at_center(i, std::min(j + 1, ny - 1));
    const auto [ud, vd] = vel_.at_center(i, std::max(j - 1, 0));
    (void)ur; (void)ul; (void)vu; (void)vd;
    return 0.5f * ((vr - vl) - (uu - ud));
  }

  void add_vorticity_confinement() {
    const int nx = flags_.nx();
    const int ny = flags_.ny();
    if (vorticity_.size() == 0) {
      for (GridF* g : {&vorticity_, &vorticity_mag_, &half_force_x_,
                       &half_force_y_}) {
        *g = GridF(nx, ny, 0.0f);
      }
    }
    GridF& w = vorticity_;
    GridF& mag = vorticity_mag_;
    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        w(i, j) = vorticity_at(i, j);
        mag(i, j) = std::abs(w(i, j));
      }
    }

    const auto pushes = [&](int i, int j) {
      return i >= 1 && i < nx - 1 && j >= 1 && j < ny - 1 &&
             flags_.is_fluid(i, j);
    };
    const double dx = 1.0 / nx;
    const auto eps_dt =
        static_cast<float>(params_.vorticity_confinement * dx * params_.dt);
    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        if (!pushes(i, j)) {
          continue;
        }
        const float gx = 0.5f * (mag(i + 1, j) - mag(i - 1, j));
        const float gy = 0.5f * (mag(i, j + 1) - mag(i, j - 1));
        const float norm = std::sqrt(gx * gx + gy * gy) + 1e-6f;
        const float fx = (gy / norm) * w(i, j) * eps_dt;
        const float fy = -(gx / norm) * w(i, j) * eps_dt;
        half_force_x_(i, j) = 0.5f * fx;
        half_force_y_(i, j) = 0.5f * fy;
      }
    }

    GridF& u = vel_.u();
    GridF& v = vel_.v();
    for (int r = 0; r < ny + ny + 1; ++r) {
      if (r < ny) {
        const int j = r;
        for (int i = 0; i <= nx; ++i) {
          if (pushes(i - 1, j)) {
            u(i, j) += half_force_x_(i - 1, j);
          }
          if (pushes(i, j)) {
            u(i, j) += half_force_x_(i, j);
          }
        }
        continue;
      }
      const int j = r - ny;
      for (int i = 0; i < nx; ++i) {
        if (pushes(i, j - 1)) {
          v(i, j) += half_force_y_(i, j - 1);
        }
        if (pushes(i, j)) {
          v(i, j) += half_force_y_(i, j);
        }
      }
    }
  }

  SmokeParams params_;
  SceneSpec scene_;
  FlagGrid flags_;
  FlagGrid base_flags_;
  std::vector<Obstacle> moving_now_;
  Grid2<int> solid_distance_;
  std::vector<int> distance_queue_;
  GridF density_;
  GridF pressure_;
  GridF divergence_;
  GridF rhs_;
  MacGrid2 vel_;
  MacGrid2 vel_scratch_;
  GridF density_scratch_;
  GridF vorticity_;
  GridF vorticity_mag_;
  GridF half_force_x_;
  GridF half_force_y_;
  std::vector<SmokeSource> sources_;
  double cum_div_norm_ = 0.0;
  int steps_ = 0;
};

/// workload::make_sim for the reference class: the same static flags
/// (the library sim built without its moving obstacles), scene, sources
/// and initial velocity, pinned and stamped by the reference passes.
inline ReferenceSmokeSim make_reference_sim(
    const workload::InputProblem& problem) {
  workload::InputProblem fixed = problem;
  fluid::SceneSpec scene;
  scene.inflows = problem.inflows;
  fixed.obstacles.clear();
  for (const auto& ob : problem.obstacles) {
    if (ob.is_moving()) {
      scene.moving_obstacles.push_back(ob);
    } else {
      fixed.obstacles.push_back(ob);
    }
  }
  FlagGrid flags = workload::make_sim(fixed).flags();
  ReferenceSmokeSim sim(problem.sim, std::move(flags), std::move(scene));
  sim.sources() = problem.sources;
  workload::fill_turbulent_velocity(problem.turbulence, problem.seed,
                                    &sim.velocity());
  workload::add_vortex_blobs(problem.vortices, &sim.velocity());
  sim.pin_boundary_velocities();
  sim.apply_sources();
  return sim;
}

}  // namespace sfn::test
