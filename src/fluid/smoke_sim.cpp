#include "fluid/smoke_sim.hpp"

#include "fluid/operators.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/team.hpp"
#include "util/timer.hpp"

#include <cmath>
#include <cstddef>
#include <stdexcept>

namespace sfn::fluid {

SmokeSim::SmokeSim(SmokeParams params, FlagGrid flags, SceneSpec scene)
    : params_(params),
      scene_(std::move(scene)),
      flags_(std::move(flags)),
      base_flags_(flags_),
      solid_distance_(solid_distance_field(flags_)),
      density_(flags_.nx(), flags_.ny(), 0.0f),
      pressure_(flags_.nx(), flags_.ny(), 0.0f),
      rhs_(flags_.nx(), flags_.ny(), 0.0f),
      vel_(flags_.nx(), flags_.ny()),
      vel_scratch_(flags_.nx(), flags_.ny()),
      density_scratch_(flags_.nx(), flags_.ny(), 0.0f) {
  sources_.push_back(SmokeSource{});
  if (!scene_.moving_obstacles.empty()) {
    refresh_moving_geometry(0.0, /*clear_density=*/false);
  }
  // Inflow cells hold their smoke density across advection (the solid
  // hold in advect_scalar), so stamping once makes the band a continuous
  // smoke inlet.
  if (!scene_.inflows.empty()) {
    const double dx = 1.0 / flags_.nx();
    for (int j = 0; j < flags_.ny(); ++j) {
      for (int i = 0; i < flags_.nx(); ++i) {
        if (flags_.at(i, j) != CellType::kInflow) {
          continue;
        }
        const InflowRegion* region =
            inflow_region_at(scene_.inflows, i, j, dx);
        if (region != nullptr) {
          density_(i, j) = static_cast<float>(region->smoke);
        }
      }
    }
  }
}

void SmokeSim::refresh_moving_geometry(double t, bool clear_density) {
  moving_now_.clear();
  moving_now_.reserve(scene_.moving_obstacles.size());
  for (const auto& ob : scene_.moving_obstacles) {
    moving_now_.push_back(ob.pose_at(t));
  }
  flags_ = base_flags_;
  rasterize_obstacles(moving_now_, &flags_);
  solid_distance_field(flags_, &solid_distance_, &distance_queue_);
  if (clear_density) {
    // Cells swallowed by a moving solid must not carry smoke back out
    // when the obstacle uncovers them.
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

void SmokeSim::pin_boundary_velocities() {
  vel_.enforce_solid_boundaries(flags_);
  if (scene_.inflows.empty() && moving_now_.empty()) {
    return;
  }
  const int nx = flags_.nx();
  const int ny = flags_.ny();
  const double dx = 1.0 / nx;
  // flags_ is base_flags_ plus the moving obstacles, so the two share a
  // shape, and enforce_solid_boundaries above checked the velocity's.
  const CellType* cells = flags_.cells();
  const CellType* base = base_flags_.cells();
  const auto inside = [nx, ny](int i, int j) {
    return i >= 0 && i < nx && j >= 0 && j < ny;
  };
  const auto at = [nx](const CellType* grid, int i, int j) {
    return grid[static_cast<std::size_t>(j) * nx + i];
  };
  // FlagGrid::is_solid: cells outside the grid count as solid.
  const auto is_solid = [&](int i, int j) {
    return !inside(i, j) || is_solid_type(at(cells, i, j));
  };
  // A static wall face stays zero no matter what overlaps it. The test
  // deliberately bypasses is_solid(): border inflow cells must not count
  // as walls.
  const auto is_wall = [&](int i, int j) {
    return !inside(i, j) || at(base, i, j) == CellType::kSolid;
  };
  const auto is_moving_solid = [&](int i, int j) {
    return inside(i, j) && at(cells, i, j) == CellType::kSolid &&
           at(base, i, j) != CellType::kSolid;
  };
  // The posed obstacle that rasterised cell (i, j) this step; cell-centre
  // containment mirrors rasterize_obstacles exactly.
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
  const auto inflow_at = [&](int i, int j) -> const InflowRegion* {
    if (!inside(i, j) || at(cells, i, j) != CellType::kInflow) {
      return nullptr;
    }
    return inflow_region_at(scene_.inflows, i, j, dx);
  };
  // Re-pins the face between cells a and b at world (fx, fy) to its x
  // (u faces) or y (v faces) velocity. Precedence per face: wall >
  // moving solid > inflow. enforce_solid_boundaries above already zeroed
  // every face that touches a solid, so untouched faces are the
  // zero-velocity walls.
  const auto pin = [&](int ai, int aj, int bi, int bj, double fx, double fy,
                       bool x_component, float* face) {
    if (!is_solid(ai, aj) && !is_solid(bi, bj)) {
      return;  // Interior face.
    }
    if (is_wall(ai, aj) || is_wall(bi, bj)) {
      return;
    }
    if (is_moving_solid(ai, aj) || is_moving_solid(bi, bj)) {
      const Obstacle* ob =
          is_moving_solid(ai, aj) ? owner(ai, aj) : owner(bi, bj);
      if (ob != nullptr) {
        const auto [ux, vy] = ob->velocity_at(fx, fy);
        *face = static_cast<float>(x_component ? ux : vy);
      }
      return;
    }
    const InflowRegion* region = inflow_at(ai, aj);
    if (region == nullptr) {
      region = inflow_at(bi, bj);
    }
    if (region != nullptr) {
      *face = static_cast<float>(x_component ? region->u : region->v);
    }
  };

  // u face (i, j) sits between cells (i-1, j) and (i, j) at world
  // (i*dx, (j+0.5)*dx); v face (i, j) between (i, j-1) and (i, j) at
  // ((i+0.5)*dx, j*dx). Rows [0, ny) are u rows, [ny, 2 ny] v rows.
  float* u = vel_.u().data().data();
  float* v = vel_.v().data().data();
  util::for_rows(ny + ny + 1, [&](int r) {
    if (r < ny) {
      const int j = r;
      float* row = u + static_cast<std::size_t>(j) * (nx + 1);
      for (int i = 0; i <= nx; ++i) {
        pin(i - 1, j, i, j, i * dx, (j + 0.5) * dx, true, &row[i]);
      }
      return;
    }
    const int j = r - ny;
    float* row = v + static_cast<std::size_t>(j) * nx;
    for (int i = 0; i < nx; ++i) {
      pin(i, j - 1, i, j, (i + 0.5) * dx, j * dx, false, &row[i]);
    }
  });
}

void SmokeSim::apply_sources() {
  const int nx = flags_.nx();
  const int ny = flags_.ny();
  const double dx = 1.0 / nx;
  for (const auto& src : sources_) {
    // floor_cell guards the float→int casts against NaN/out-of-range
    // source configs; the ±1 margin keeps the cover of the circle.
    const int lo_i = std::max(0, floor_cell((src.cx - src.radius) / dx, 0, nx - 1) - 1);
    const int hi_i = std::min(nx - 1, floor_cell((src.cx + src.radius) / dx, 0, nx - 1) + 1);
    const int lo_j = std::max(0, floor_cell((src.cy - src.radius) / dx, 0, ny - 1) - 1);
    const int hi_j = std::min(ny - 1, floor_cell((src.cy + src.radius) / dx, 0, ny - 1) + 1);
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

void SmokeSim::restore_state(const GridF& density, const GridF& pressure,
                             const MacGrid2& vel, double cum_div_norm,
                             int steps) {
  if (density.nx() != flags_.nx() || density.ny() != flags_.ny() ||
      pressure.nx() != flags_.nx() || pressure.ny() != flags_.ny() ||
      vel.nx() != flags_.nx() || vel.ny() != flags_.ny() ||
      !std::isfinite(cum_div_norm) || steps < 0) {
    throw std::invalid_argument(
        "SmokeSim::restore_state: checkpoint does not match this grid");
  }
  density_ = density;
  pressure_ = pressure;
  vel_ = vel;
  cum_div_norm_ = cum_div_norm;
  steps_ = steps;
  if (!scene_.moving_obstacles.empty()) {
    // Flags are a pure function of (scene, steps): re-pose without
    // touching the restored density — the next step() re-rasterises at
    // the same time and performs the density clear itself, exactly as the
    // uninterrupted run would.
    refresh_moving_geometry(static_cast<double>(steps_) * params_.dt,
                            /*clear_density=*/false);
  }
}

float SmokeSim::vorticity_at(int i, int j) const {
  const int nx = flags_.nx();
  const int ny = flags_.ny();
  // Centred differences of the cell-centre velocity field.
  const auto [ur, vr] = vel_.at_center(std::min(i + 1, nx - 1), j);
  const auto [ul, vl] = vel_.at_center(std::max(i - 1, 0), j);
  const auto [uu, vu] = vel_.at_center(i, std::min(j + 1, ny - 1));
  const auto [ud, vd] = vel_.at_center(i, std::max(j - 1, 0));
  (void)ur; (void)ul; (void)vu; (void)vd;
  return 0.5f * ((vr - vl) - (uu - ud));
}

GridF SmokeSim::vorticity() const {
  GridF w(flags_.nx(), flags_.ny(), 0.0f);
  for (int j = 0; j < flags_.ny(); ++j) {
    for (int i = 0; i < flags_.nx(); ++i) {
      w(i, j) = vorticity_at(i, j);
    }
  }
  return w;
}

void SmokeSim::add_buoyancy() {
  const int nx = flags_.nx();
  const int ny = flags_.ny();
  SFN_CHECK(density_.nx() == nx && density_.ny() == ny && vel_.fits(flags_),
            "SmokeSim: density/velocity shape differs from the flag grid");
  const float buoy = static_cast<float>(params_.buoyancy * params_.dt);
  const CellType* cells = flags_.cells();
  const float* density = density_.data().data();
  float* v = vel_.v().data().data();
  // v face (i, j), 0 < j < ny, between cells (i, j-1) and (i, j).
  util::for_rows(ny - 1, [&](int r) {
    const auto above = static_cast<std::size_t>(r + 1) * nx;
    const auto below = above - nx;
    for (int i = 0; i < nx; ++i) {
      if (cells[below + i] == CellType::kFluid &&
          cells[above + i] == CellType::kFluid) {
        v[above + i] +=
            buoy * 0.5f * (density[below + i] + density[above + i]);
      }
    }
  });
}

void SmokeSim::add_vorticity_confinement() {
  // Fedkiw et al. 2001: f = eps * dx * (N x omega) with
  // N = grad|omega| / |grad|omega||. In 2-D the cross product reduces to
  // f = eps * dx * (N_y * w, -N_x * w).
  const int nx = flags_.nx();
  const int ny = flags_.ny();
  if (vorticity_.size() == 0) {
    // Sized on the first confined step, so unconfined runs carry none.
    for (GridF* g : {&vorticity_, &vorticity_mag_, &half_force_x_,
                     &half_force_y_}) {
      *g = GridF(nx, ny, 0.0f);
    }
  }
  GridF& w = vorticity_;
  GridF& mag = vorticity_mag_;
  util::for_rows(ny, [&](int j) {
    for (int i = 0; i < nx; ++i) {
      w(i, j) = vorticity_at(i, j);
      mag(i, j) = std::abs(w(i, j));
    }
  });

  // Interior fluid cells push on their four faces.
  const auto pushes = [&](int i, int j) {
    return i >= 1 && i < nx - 1 && j >= 1 && j < ny - 1 &&
           flags_.is_fluid(i, j);
  };
  const double dx = 1.0 / nx;
  const auto eps_dt =
      static_cast<float>(params_.vorticity_confinement * dx * params_.dt);
  util::for_rows(ny, [&](int j) {
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
  });

  // Each face gathers the shares of its two cells in the order a serial
  // cell loop adds them, left (lower) cell first, and only from cells that
  // push: adding 0 would turn a -0.0 face into +0.0. One thread owns each
  // face, so the bits do not depend on the team size.
  GridF& u = vel_.u();
  GridF& v = vel_.v();
  util::for_rows(ny + ny + 1, [&](int r) {
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
      return;
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
  });
}

StepTelemetry SmokeSim::step(PoissonSolver* solver, StepGuard* guard) {
  SFN_TRACE_SCOPE("sim.step");
  const util::Timer timer;
  StepTelemetry out;

  if (!scene_.moving_obstacles.empty()) {
    // Rigid-body obstacles move before the step: rasterise their pose at
    // the current world time so advection, projection and pinning all see
    // one consistent geometry for the whole step.
    SFN_TRACE_SCOPE("sim.moving_flags");
    refresh_moving_geometry(static_cast<double>(steps_) * params_.dt,
                            /*clear_density=*/true);
  }

  {
    // 1. Advection (Algorithm 1 line 4).
    SFN_TRACE_SCOPE("sim.advect");
    advect_scalar(vel_, flags_, params_.dt, density_, &density_scratch_,
                  params_.advection);
    std::swap(density_, density_scratch_);
    advect_velocity(vel_, flags_, params_.dt, &vel_scratch_,
                    params_.advection);
    std::swap(vel_, vel_scratch_);
  }

  {
    // 2.-3. Body force (line 5: Boussinesq buoyancy on v faces), optional
    // vorticity confinement, sources, and solid-face pinning before
    // measuring div.
    SFN_TRACE_SCOPE("sim.forces");
    add_buoyancy();
    if (params_.vorticity_confinement > 0.0) {
      add_vorticity_confinement();
    }
    apply_sources();
    pin_boundary_velocities();
  }

  {
    // 4. Pressure projection (lines 6-18): solve A p = -div(u*).
    SFN_TRACE_SCOPE("sim.project");
    negated_divergence(vel_, flags_, &rhs_);
    if (!params_.warm_start_pressure) {
      pressure_.fill(0.0f);  // Algorithm 1 line 9: initial guess p = 0.
    }
    out.solve = solver->solve(flags_, rhs_, &pressure_);
    if (guard != nullptr) {
      // Health guard: inspect (and possibly re-solve) the pressure before
      // it touches the velocity field, so one bad solve degrades to one
      // exact solve instead of contaminating the rollout.
      out.guard = guard->inspect(flags_, rhs_, &pressure_, out.solve);
    }
    // The gradient skips every face that touches a solid, inflow or
    // out-of-grid cell: exactly the faces the pin above wrote, which
    // nothing has written since, so they need no second pin. The safety
    // clamp rides in the same pass: approximate pressure solves can feed
    // energy back into the velocity field, and clamping keeps components
    // finite and bounded so telemetry and quality metrics stay
    // well-defined.
    subtract_pressure_gradient_and_clamp(
        pressure_, flags_, static_cast<float>(params_.max_velocity), &vel_);
  }

  {
    // 5. Telemetry: DivNorm of the projected velocity (Eq. 5) and its
    // running accumulation (Eq. 9).
    SFN_TRACE_SCOPE("sim.divnorm");
    out.div_norm =
        div_norm(vel_, flags_, solid_distance_, params_.divnorm_weight_k);
  }
  cum_div_norm_ += out.div_norm;
  out.cum_div_norm = cum_div_norm_;
  ++steps_;
  out.step_seconds = timer.seconds();

  static obs::Counter& steps_counter = obs::counter("sim.steps");
  static obs::Histogram& divnorm_hist = obs::histogram("sim.div_norm");
  steps_counter.add();
  divnorm_hist.observe(out.div_norm);
  return out;
}

}  // namespace sfn::fluid
