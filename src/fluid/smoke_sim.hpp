#pragma once

#include "fluid/advection.hpp"
#include "fluid/flags.hpp"
#include "fluid/grid2.hpp"
#include "fluid/guard.hpp"
#include "fluid/mac_grid.hpp"
#include "fluid/poisson.hpp"
#include "fluid/scene.hpp"

#include <vector>

namespace sfn::fluid {

/// Disk-shaped smoke/velocity source re-stamped every step (the classic
/// rising-plume emitter). Coordinates are in world units over a unit-width
/// domain so a problem description is resolution-independent.
struct SmokeSource {
  double cx = 0.5;
  double cy = 0.12;
  double radius = 0.08;
  double density = 1.0;   ///< Density value stamped inside the disk.
  double velocity = 0.6;  ///< Upward velocity stamped inside the disk.
};

struct SmokeParams {
  double dt = 0.05;          ///< World-time step.
  double buoyancy = 2.0;     ///< Upward acceleration per unit density.
  AdvectionScheme advection = AdvectionScheme::kSemiLagrangian;
  int divnorm_weight_k = 3;  ///< k in w_i = max(1, k - d_i) (paper Eq. 5).
  /// Algorithm 1 line 9 sets the initial guess p = 0 each step; enable
  /// this to warm-start PCG from the previous step's pressure instead
  /// (an optimisation the paper's baseline does not use).
  bool warm_start_pressure = false;
  /// Safety clamp on velocity components (world units). An inaccurate
  /// surrogate can pump energy into the field; this keeps the simulation
  /// finite so quality loss is measured instead of crashing. Generous:
  /// physical plume speeds here are O(1).
  double max_velocity = 20.0;
  /// Vorticity-confinement strength (Fedkiw et al.): re-injects the
  /// small-scale swirl that semi-Lagrangian advection dissipates.
  /// 0 disables it (the paper's baseline configuration).
  double vorticity_confinement = 0.0;
};

/// Telemetry recorded each step; the runtime controller consumes
/// div_norm/cum_div_norm (paper §6.1), the benches consume the rest.
struct StepTelemetry {
  double div_norm = 0.0;       ///< Post-projection DivNorm (Eq. 5).
  double cum_div_norm = 0.0;   ///< Running sum of div_norm (Eq. 9).
  SolveStats solve;            ///< Pressure-solve outcome this step.
  GuardOutcome guard;          ///< Health-guard verdict (when guarded).
  double step_seconds = 0.0;   ///< Wall time of the full step.
};

/// 2-D smoke plume simulation (paper §2.1, Algorithm 1): per step —
/// advect density and velocity, add buoyancy, stamp sources, then project
/// pressure with a pluggable PoissonSolver (PCG or a neural surrogate).
class SmokeSim {
 public:
  /// `flags` is the static scene (walls, open cells, inflow stamps,
  /// static obstacles). A non-empty `scene` adds inflow face pinning and
  /// rigid-body moving obstacles, which are re-rasterised onto the static
  /// flags at the start of every step; an empty scene reproduces the
  /// legacy static behaviour exactly.
  SmokeSim(SmokeParams params, FlagGrid flags, SceneSpec scene = {});

  /// Advance one time step using `solver` for the pressure projection.
  /// An optional `guard` is consulted between the solve and the velocity
  /// update; it may re-solve a rejected step in place (per-step graceful
  /// degradation — see fluid/guard.hpp and runtime::FallbackPolicy).
  StepTelemetry step(PoissonSolver* solver, StepGuard* guard = nullptr);

  [[nodiscard]] int nx() const { return flags_.nx(); }
  [[nodiscard]] int ny() const { return flags_.ny(); }

  [[nodiscard]] GridF& density() { return density_; }
  [[nodiscard]] const GridF& density() const { return density_; }
  [[nodiscard]] MacGrid2& velocity() { return vel_; }
  [[nodiscard]] const MacGrid2& velocity() const { return vel_; }
  [[nodiscard]] const FlagGrid& flags() const { return flags_; }
  [[nodiscard]] const GridF& pressure() const { return pressure_; }
  /// The last step's projection rhs, b = -div(u*): -div on fluid cells,
  /// -0.0f on the others.
  [[nodiscard]] const GridF& last_rhs() const { return rhs_; }

  [[nodiscard]] double cum_div_norm() const { return cum_div_norm_; }
  [[nodiscard]] int steps_taken() const { return steps_; }
  [[nodiscard]] const SmokeParams& params() const { return params_; }

  std::vector<SmokeSource>& sources() { return sources_; }

  /// Re-stamp all sources into the density and velocity fields (also
  /// called internally by step()).
  void apply_sources();

  /// Zero every face touching a solid cell, then re-pin prescribed faces:
  /// inflow faces to their region's (u, v) and moving-obstacle faces to
  /// the obstacle's rigid-body velocity at the face position. Static
  /// walls always win (their faces stay zero). Called internally wherever
  /// the legacy path called enforce_solid_boundaries; public so workload
  /// setup can pin the initial velocity field.
  void pin_boundary_velocities();

  [[nodiscard]] const SceneSpec& scene() const { return scene_; }

  /// Overwrite the cross-step state from a checkpoint: density, pressure
  /// (warm-start seed), velocity, the CumDivNorm accumulator and the step
  /// counter. Everything else (the rhs and scratch grids) is fully
  /// rewritten by the next step(), so this is the complete suspend/resume
  /// surface (core::SessionStepper persistence). Moving-obstacle flags
  /// are a pure function of (scene, steps) and are re-rasterised here
  /// rather than checkpointed. Throws std::invalid_argument on a
  /// grid-shape mismatch.
  void restore_state(const GridF& density, const GridF& pressure,
                     const MacGrid2& vel, double cum_div_norm, int steps);

  /// Cell-centred vorticity (dv/dx - du/dy, grid units) of the current
  /// velocity field; exposed for tests and diagnostics.
  [[nodiscard]] GridF vorticity() const;

 private:
  /// Vorticity of cell (i, j), one cell of vorticity().
  [[nodiscard]] float vorticity_at(int i, int j) const;

  /// Boussinesq buoyancy on the v faces between two fluid cells.
  void add_buoyancy();

  void add_vorticity_confinement();

  /// Re-pose the moving obstacles at world time t and rasterise them onto
  /// the static flags; recomputes the solid-distance field. When
  /// `clear_density` is set, smoke inside the moving solids is removed
  /// (step-time behaviour; restore_state skips it to keep checkpointed
  /// fields byte-identical).
  void refresh_moving_geometry(double t, bool clear_density);

  SmokeParams params_;
  SceneSpec scene_;
  FlagGrid flags_;
  /// Static scene without the moving obstacles; refresh_moving_geometry
  /// starts from this every step. Equal to flags_ when scene_ has no
  /// moving obstacles.
  FlagGrid base_flags_;
  /// Moving obstacles posed at the time of the last rasterisation; the
  /// pin pass evaluates rigid-body velocities against these.
  std::vector<Obstacle> moving_now_;
  Grid2<int> solid_distance_;
  /// BFS scratch of the per-step solid_distance_ refresh (moving
  /// obstacles only).
  std::vector<int> distance_queue_;
  GridF density_;
  GridF pressure_;
  GridF rhs_;
  MacGrid2 vel_;
  MacGrid2 vel_scratch_;
  GridF density_scratch_;
  /// Vorticity-confinement scratch, empty until the first confined step:
  /// vorticity, its magnitude, and each cell's half force (the share it
  /// adds to each of its two faces).
  GridF vorticity_;
  GridF vorticity_mag_;
  GridF half_force_x_;
  GridF half_force_y_;
  std::vector<SmokeSource> sources_;
  double cum_div_norm_ = 0.0;
  int steps_ = 0;
};

}  // namespace sfn::fluid
