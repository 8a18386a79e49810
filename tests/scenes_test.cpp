// Adversarial scene families (workload/scenes.hpp) and the fluid-layer
// capabilities behind them: inflow cells with prescribed face velocities,
// rigid-body moving obstacles re-rasterised and pinned each step, and the
// scene-hash coverage that keeps the serving result cache from returning
// stale fields for problems that differ only in motion or inflow rate.

#include "fluid/pcg.hpp"
#include "fluid/scene.hpp"
#include "serve/scene_hash.hpp"
#include "serve/session_server.hpp"
#include "serve_test_support.hpp"
#include "workload/scenes.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

namespace sfn {
namespace {

using workload::SceneFamily;

bool all_finite(const fluid::GridF& g) {
  for (std::size_t k = 0; k < g.size(); ++k) {
    if (!std::isfinite(g[k])) {
      return false;
    }
  }
  return true;
}

double total_density(const fluid::GridF& g) {
  double sum = 0.0;
  for (std::size_t k = 0; k < g.size(); ++k) {
    sum += g[k];
  }
  return sum;
}

// --- Rigid-body helpers ---------------------------------------------------

TEST(ObstacleMotion, PoseAtAdvancesCentreAndAngle) {
  fluid::Obstacle ob;
  ob.cx = 0.5;
  ob.cy = 0.4;
  ob.angle = 0.1;
  ob.vx = 0.2;
  ob.vy = -0.1;
  ob.omega = 1.5;
  const auto posed = ob.pose_at(2.0);
  EXPECT_DOUBLE_EQ(posed.cx, 0.9);
  EXPECT_DOUBLE_EQ(posed.cy, 0.2);
  EXPECT_DOUBLE_EQ(posed.angle, 3.1);
  // Motion parameters survive the pose so velocity_at stays meaningful.
  EXPECT_DOUBLE_EQ(posed.omega, 1.5);
  EXPECT_TRUE(posed.is_moving());
  EXPECT_FALSE(fluid::Obstacle{}.is_moving());
}

TEST(ObstacleMotion, VelocityAtIsRigidBodyField) {
  fluid::Obstacle ob;
  ob.cx = 0.5;
  ob.cy = 0.5;
  ob.vx = 0.1;
  ob.omega = 2.0;
  // Point directly above the centre: rotation adds -omega * dy to u.
  const auto [u, v] = ob.velocity_at(0.5, 0.7);
  EXPECT_DOUBLE_EQ(u, 0.1 - 2.0 * 0.2);
  EXPECT_DOUBLE_EQ(v, 0.0);
  // Point to the right of the centre: rotation adds +omega * dx to v.
  const auto [u2, v2] = ob.velocity_at(0.8, 0.5);
  EXPECT_DOUBLE_EQ(u2, 0.1);
  EXPECT_DOUBLE_EQ(v2, 2.0 * 0.3);
}

// --- Scene-hash sensitivity (result-cache correctness) --------------------

class SceneHashSensitivity : public ::testing::Test {
 protected:
  static std::uint64_t hash_of(const workload::InputProblem& problem) {
    static const core::OfflineArtifacts artifacts =
        test::make_test_artifacts();
    return serve::scene_hash_fixed(problem, artifacts.library[0], {});
  }
};

TEST_F(SceneHashSensitivity, ObstacleVelocityChangesHash) {
  const auto base =
      workload::make_scene(SceneFamily::kMovingObstacle, 42, {16, 12});
  ASSERT_FALSE(base.obstacles.empty());

  auto spin = base;
  spin.obstacles[0].omega += 0.25;
  EXPECT_NE(hash_of(base), hash_of(spin));

  auto drift = base;
  drift.obstacles[0].vx += 0.01;
  EXPECT_NE(hash_of(base), hash_of(drift));

  auto lift = base;
  lift.obstacles[0].vy += 0.01;
  EXPECT_NE(hash_of(base), hash_of(lift));
}

TEST_F(SceneHashSensitivity, InflowRateAndSmokeChangeHash) {
  const auto base =
      workload::make_scene(SceneFamily::kShearLayer, 42, {16, 12});
  ASSERT_FALSE(base.inflows.empty());

  auto faster = base;
  faster.inflows[0].u += 0.1;
  EXPECT_NE(hash_of(base), hash_of(faster));

  auto smokier = base;
  smokier.inflows[0].smoke += 0.5;
  EXPECT_NE(hash_of(base), hash_of(smokier));

  auto moved = base;
  moved.inflows[0].y1 += 0.05;
  EXPECT_NE(hash_of(base), hash_of(moved));
}

TEST_F(SceneHashSensitivity, QuarantineThresholdsChangeHash) {
  // A session's quarantine thresholds change which solver runs each step,
  // so two sessions differing only there must not share a cached result.
  const auto problem =
      workload::make_scene(SceneFamily::kShearLayer, 42, {16, 12});
  const auto artifacts = test::make_test_artifacts();
  const core::SessionConfig base;
  auto trips = base;
  trips.controller.quarantine_trips += 1;
  auto window = base;
  window.controller.quarantine_window += 1;
  const auto h = serve::scene_hash_adaptive(problem, artifacts, base);
  EXPECT_NE(h, serve::scene_hash_adaptive(problem, artifacts, trips));
  EXPECT_NE(h, serve::scene_hash_adaptive(problem, artifacts, window));
}

TEST_F(SceneHashSensitivity, EdgesAndVorticesChangeHash) {
  const auto base =
      workload::make_scene(SceneFamily::kVortexRing, 42, {16, 12});
  ASSERT_FALSE(base.vortices.empty());

  auto stronger = base;
  stronger.vortices[0].strength += 0.2;
  EXPECT_NE(hash_of(base), hash_of(stronger));

  auto opened = base;
  opened.edges.right = workload::EdgeType::kOpen;
  EXPECT_NE(hash_of(base), hash_of(opened));
}

TEST_F(SceneHashSensitivity, FamiliesNeverCollideOnTheSameSeed) {
  const workload::SceneParams params{16, 12};
  const auto families = workload::all_scene_families();
  for (std::size_t a = 0; a < families.size(); ++a) {
    for (std::size_t b = a + 1; b < families.size(); ++b) {
      EXPECT_NE(hash_of(workload::make_scene(families[a], 9, params)),
                hash_of(workload::make_scene(families[b], 9, params)))
          << workload::to_string(families[a]) << " vs "
          << workload::to_string(families[b]);
    }
  }
}

// --- Inflow boundaries ----------------------------------------------------

TEST(InflowScenes, CellsArePinnedToPrescribedVelocityAndFeedSmoke) {
  const auto problem =
      workload::make_scene(SceneFamily::kShearLayer, 7, {16, 12});
  auto sim = workload::make_sim(problem);
  const auto& flags = sim.flags();
  const double dx = 1.0 / sim.nx();

  int inflow_cells = 0;
  int pinned_faces = 0;
  for (int j = 0; j < sim.ny(); ++j) {
    for (int i = 0; i < sim.nx(); ++i) {
      if (!flags.is_inflow(i, j)) {
        continue;
      }
      ++inflow_cells;
      const fluid::InflowRegion* region =
          fluid::inflow_region_at(problem.inflows, i, j, dx);
      ASSERT_NE(region, nullptr) << "stamped cell without a region";
      // The band holds its smoke payload.
      EXPECT_FLOAT_EQ(sim.density()(i, j),
                      static_cast<float>(region->smoke));
      // The face toward a fluid neighbour carries the prescribed u.
      if (flags.is_fluid(i + 1, j)) {
        EXPECT_FLOAT_EQ(sim.velocity().u()(i + 1, j),
                        static_cast<float>(region->u));
        ++pinned_faces;
      }
    }
  }
  EXPECT_GT(inflow_cells, 0);
  EXPECT_GT(pinned_faces, 0);

  // Stepping with the exact solver: the inlet keeps injecting smoke and
  // momentum, the open right edge absorbs it, everything stays finite.
  fluid::PcgSolver pcg;
  const double before = total_density(sim.density());
  for (int s = 0; s < 6; ++s) {
    const auto telemetry = sim.step(&pcg);
    EXPECT_TRUE(telemetry.solve.converged) << "step " << s;
  }
  EXPECT_GT(total_density(sim.density()), before)
      << "inflow must add smoke to the domain";
  EXPECT_TRUE(all_finite(sim.density()));
  EXPECT_TRUE(all_finite(sim.velocity().u()));
  EXPECT_TRUE(all_finite(sim.velocity().v()));
}

// --- Moving obstacles -----------------------------------------------------

workload::InputProblem manual_rotor_problem() {
  workload::InputProblem problem;
  problem.seed = 77;
  problem.nx = 24;
  problem.ny = 24;
  problem.steps = 10;
  fluid::Obstacle rotor;
  rotor.kind = fluid::Obstacle::Kind::kBox;
  rotor.cx = 0.5;
  rotor.cy = 0.55;
  rotor.rx = 0.16;
  rotor.ry = 0.06;
  rotor.omega = 1.5;
  problem.obstacles = {rotor};
  return problem;
}

TEST(MovingObstacleScenes, FlagsFollowTheMotionAndDensityStaysOut) {
  const auto problem = manual_rotor_problem();
  auto sim = workload::make_sim(problem);
  const fluid::FlagGrid initial = sim.flags();

  fluid::PcgSolver pcg;
  bool flags_changed = false;
  for (int s = 0; s < 6; ++s) {
    sim.step(&pcg);
    flags_changed = flags_changed || !(sim.flags() == initial);
    for (int j = 0; j < sim.ny(); ++j) {
      for (int i = 0; i < sim.nx(); ++i) {
        if (sim.flags().at(i, j) == fluid::CellType::kSolid) {
          EXPECT_EQ(sim.density()(i, j), 0.0f)
              << "smoke inside a solid at step " << s;
        }
      }
    }
  }
  EXPECT_TRUE(flags_changed)
      << "a rotating box must re-rasterise to different flags";
  EXPECT_TRUE(all_finite(sim.density()));
}

TEST(MovingObstacleScenes, SolidFacesCarryRigidBodyVelocity) {
  const auto problem = manual_rotor_problem();
  auto sim = workload::make_sim(problem);
  fluid::PcgSolver pcg;
  const int steps = 5;
  for (int s = 0; s < steps; ++s) {
    sim.step(&pcg);
  }
  // The last step rasterised and pinned the pose at t = (steps-1) * dt.
  const auto posed =
      problem.obstacles[0].pose_at((steps - 1) * problem.sim.dt);
  const auto& flags = sim.flags();
  const double dx = 1.0 / sim.nx();

  int checked = 0;
  for (int j = 1; j < sim.ny() - 1; ++j) {
    for (int i = 1; i < sim.nx(); ++i) {
      const bool left_solid = flags.at(i - 1, j) == fluid::CellType::kSolid;
      const bool right_solid = flags.at(i, j) == fluid::CellType::kSolid;
      if (left_solid == right_solid) {
        continue;  // Interior or fully solid face.
      }
      // Restrict to faces whose solid side is the rotor: static wall
      // faces (the domain border here) stay pinned to zero instead.
      const int si = left_solid ? i - 1 : i;
      if (si == 0 || si == sim.nx() - 1) {
        continue;
      }
      const double fx = i * dx;
      const double fy = (j + 0.5) * dx;
      const auto expected =
          static_cast<float>(posed.velocity_at(fx, fy).first);
      EXPECT_FLOAT_EQ(sim.velocity().u()(i, j), expected)
          << "u face " << i << "," << j;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0) << "the rotor must expose solid-fluid faces";
}

// --- Every family is solvable end-to-end ----------------------------------

TEST(SceneFamilies, AllFamiliesProduceSolvableProblems) {
  fluid::PcgSolver pcg;
  for (const SceneFamily family : workload::all_scene_families()) {
    for (const std::uint64_t seed : {1u, 2u}) {
      const auto problem =
          workload::make_scene(family, seed, {16, 8});
      auto sim = workload::make_sim(problem);
      EXPECT_GT(sim.flags().count_fluid(), 0)
          << workload::to_string(family);
      // At least one Dirichlet (empty or open) cell keeps the Poisson
      // system non-singular.
      int dirichlet = 0;
      for (int j = 0; j < sim.ny(); ++j) {
        for (int i = 0; i < sim.nx(); ++i) {
          dirichlet += sim.flags().is_empty(i, j) ? 1 : 0;
        }
      }
      EXPECT_GT(dirichlet, 0) << workload::to_string(family);

      for (int s = 0; s < 4; ++s) {
        const auto telemetry = sim.step(&pcg);
        EXPECT_TRUE(telemetry.solve.converged)
            << workload::to_string(family) << " seed " << seed << " step "
            << s;
      }
      EXPECT_TRUE(all_finite(sim.density())) << workload::to_string(family);
      EXPECT_TRUE(all_finite(sim.velocity().u()))
          << workload::to_string(family);
      EXPECT_TRUE(all_finite(sim.velocity().v()))
          << workload::to_string(family);
    }
  }
}

// --- Served-vs-solo bit identity (acceptance criterion) -------------------

TEST(SceneFamilies, ServedCoopSchedulerMatchesSoloBitwise) {
  const auto artifacts = test::make_test_artifacts();
  serve::ServerConfig config;
  config.sched = serve::ServerConfig::Sched::kCoop;
  config.session_threads = 2;
  config.slice_steps = 1;
  serve::SessionServer server(config);

  std::vector<workload::InputProblem> problems;
  for (const SceneFamily family : workload::all_scene_families()) {
    problems.push_back(workload::make_scene(family, 777, {16, 10}));
  }
  std::vector<serve::SessionServer::JobId> ids;
  for (const auto& problem : problems) {
    ids.push_back(server.submit_adaptive(problem, artifacts));
  }
  for (std::size_t p = 0; p < problems.size(); ++p) {
    const auto served = server.wait(ids[p]);
    const auto solo = core::run_adaptive(problems[p], artifacts);
    const std::string label =
        workload::to_string(workload::all_scene_families()[p]);
    ASSERT_EQ(solo.final_density.size(), served.final_density.size())
        << label;
    for (std::size_t k = 0; k < solo.final_density.size(); ++k) {
      const float a = solo.final_density[k];
      const float b = served.final_density[k];
      ASSERT_EQ(std::memcmp(&a, &b, sizeof(float)), 0)
          << label << " cell " << k << ": " << a << " vs " << b;
    }
    EXPECT_EQ(solo.model_per_step, served.model_per_step) << label;
    EXPECT_EQ(solo.restarted_with_pcg, served.restarted_with_pcg) << label;
    EXPECT_EQ(solo.quarantined_models, served.quarantined_models) << label;
  }
}

}  // namespace
}  // namespace sfn
