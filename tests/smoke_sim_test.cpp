#include "fluid/operators.hpp"
#include "fluid/pcg.hpp"
#include "fluid/relaxation.hpp"
#include "fluid/smoke_sim.hpp"
#include "workload/problems.hpp"
#include "workload/scenes.hpp"

#include <gtest/gtest.h>
#include <omp.h>

#include <cstring>
#include <vector>

namespace sfn {
namespace {

using fluid::CellType;
using fluid::FlagGrid;
using fluid::PcgSolver;
using fluid::SmokeParams;
using fluid::SmokeSim;

SmokeSim make_default_sim(int n) {
  FlagGrid flags(n, n, CellType::kFluid);
  flags.set_smoke_box_boundary();
  return SmokeSim(SmokeParams{}, std::move(flags));
}

TEST(SmokeSim, SourceStampsDensityAndVelocity) {
  SmokeSim sim = make_default_sim(32);
  sim.apply_sources();
  EXPECT_GT(sim.density().sum(), 0.0);
  EXPECT_GT(sim.velocity().v().max_abs(), 0.0);
}

TEST(SmokeSim, PcgStepKeepsVelocityDivergenceFree) {
  SmokeSim sim = make_default_sim(32);
  PcgSolver pcg;
  for (int step = 0; step < 5; ++step) {
    const auto t = sim.step(&pcg);
    EXPECT_TRUE(t.solve.converged) << "step " << step;
  }
  EXPECT_LT(fluid::max_divergence(sim.velocity(), sim.flags()), 1e-5);
}

TEST(SmokeSim, DivNormNearZeroUnderPcg) {
  SmokeSim sim = make_default_sim(32);
  PcgSolver pcg;
  const auto t = sim.step(&pcg);
  EXPECT_LT(t.div_norm, 1e-8);
}

TEST(SmokeSim, CumDivNormAccumulatesMonotonically) {
  SmokeSim sim = make_default_sim(24);
  // Jacobi with a loose tolerance leaves residual divergence, so DivNorm
  // is positive and CumDivNorm must be non-decreasing.
  fluid::RelaxationParams params;
  params.tolerance = 1e-2;
  params.max_iterations = 20;
  fluid::JacobiSolver sloppy(params);
  double last = 0.0;
  for (int step = 0; step < 8; ++step) {
    const auto t = sim.step(&sloppy);
    EXPECT_GE(t.cum_div_norm, last);
    last = t.cum_div_norm;
  }
  EXPECT_GT(last, 0.0);
  EXPECT_DOUBLE_EQ(sim.cum_div_norm(), last);
}

TEST(SmokeSim, SmokeRisesOverTime) {
  SmokeSim sim = make_default_sim(32);
  PcgSolver pcg;
  for (int step = 0; step < 30; ++step) {
    sim.step(&pcg);
  }
  // Density above the source region (upper half) must be nonzero.
  double upper = 0.0;
  for (int j = 16; j < 32; ++j) {
    for (int i = 0; i < 32; ++i) {
      upper += sim.density()(i, j);
    }
  }
  EXPECT_GT(upper, 0.01);
}

TEST(SmokeSim, DensityStaysInUnitRange) {
  SmokeSim sim = make_default_sim(24);
  PcgSolver pcg;
  for (int step = 0; step < 20; ++step) {
    sim.step(&pcg);
  }
  for (std::size_t k = 0; k < sim.density().size(); ++k) {
    EXPECT_GE(sim.density()[k], -1e-5f);
    EXPECT_LE(sim.density()[k], 1.0f + 1e-5f);
  }
}

TEST(SmokeSim, NoDensityInsideSolids) {
  FlagGrid flags(32, 32, CellType::kFluid);
  flags.set_smoke_box_boundary();
  for (int j = 14; j < 18; ++j) {
    for (int i = 14; i < 18; ++i) {
      flags.set(i, j, CellType::kSolid);
    }
  }
  SmokeSim sim(SmokeParams{}, std::move(flags));
  PcgSolver pcg;
  for (int step = 0; step < 15; ++step) {
    sim.step(&pcg);
  }
  for (int j = 14; j < 18; ++j) {
    for (int i = 14; i < 18; ++i) {
      EXPECT_LT(sim.density()(i, j), 1e-4f) << i << "," << j;
    }
  }
}

TEST(SmokeSim, StepsCounterAdvances) {
  SmokeSim sim = make_default_sim(16);
  PcgSolver pcg;
  EXPECT_EQ(sim.steps_taken(), 0);
  sim.step(&pcg);
  sim.step(&pcg);
  EXPECT_EQ(sim.steps_taken(), 2);
}

TEST(SmokeSim, DeterministicAcrossRuns) {
  auto run = [] {
    SmokeSim sim = make_default_sim(24);
    PcgSolver pcg;
    for (int step = 0; step < 10; ++step) {
      sim.step(&pcg);
    }
    return sim.density();
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_FLOAT_EQ(a[k], b[k]);
  }
}

TEST(SmokeSim, VorticityOfRigidRotationIsUniform) {
  // u = -y, v = x (about the domain centre) has vorticity dv/dx - du/dy
  // = 2 everywhere in the interior.
  FlagGrid flags(16, 16, CellType::kFluid);
  SmokeSim sim(SmokeParams{}, std::move(flags));
  for (int j = 0; j < 16; ++j) {
    for (int i = 0; i <= 16; ++i) {
      sim.velocity().u()(i, j) = static_cast<float>(-(j + 0.5 - 8.0));
    }
  }
  for (int j = 0; j <= 16; ++j) {
    for (int i = 0; i < 16; ++i) {
      sim.velocity().v()(i, j) = static_cast<float>(i + 0.5 - 8.0);
    }
  }
  const auto w = sim.vorticity();
  for (int j = 2; j < 14; ++j) {
    for (int i = 2; i < 14; ++i) {
      EXPECT_NEAR(w(i, j), 2.0f, 1e-4f) << i << "," << j;
    }
  }
}

TEST(SmokeSim, VorticityConfinementPreservesSwirl) {
  // With confinement enabled, the simulation keeps more vorticity than
  // the plain semi-Lagrangian run (which dissipates it).
  auto total_vorticity = [](double eps) {
    SmokeParams params;
    params.vorticity_confinement = eps;
    FlagGrid flags(32, 32, CellType::kFluid);
    flags.set_smoke_box_boundary();
    SmokeSim sim(params, std::move(flags));
    fluid::PcgSolver pcg;
    for (int step = 0; step < 20; ++step) {
      sim.step(&pcg);
    }
    const auto w = sim.vorticity();
    double acc = 0.0;
    for (std::size_t k = 0; k < w.size(); ++k) {
      acc += std::abs(w[k]);
    }
    return acc;
  };
  EXPECT_GT(total_vorticity(8.0), total_vorticity(0.0));
}

TEST(SmokeSim, VorticityConfinementStaysStable) {
  SmokeParams params;
  params.vorticity_confinement = 8.0;
  FlagGrid flags(24, 24, CellType::kFluid);
  flags.set_smoke_box_boundary();
  SmokeSim sim(params, std::move(flags));
  fluid::PcgSolver pcg;
  for (int step = 0; step < 20; ++step) {
    const auto t = sim.step(&pcg);
    ASSERT_TRUE(t.solve.converged);
  }
  for (std::size_t k = 0; k < sim.density().size(); ++k) {
    ASSERT_GE(sim.density()[k], -1e-5f);
    ASSERT_LE(sim.density()[k], 1.0f + 1e-5f);
  }
}

bool same_bits(const fluid::GridF& a, const fluid::GridF& b) {
  return a.nx() == b.nx() && a.ny() == b.ny() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(float)) == 0;
}

TEST(SmokeSim, VorticityConfinementTeamSizeDoesNotChangeBits) {
  // Confinement spreads each cell's force onto its four faces, so a face
  // gets shares from two cells; on two threads those can be rows of two
  // different threads. A turbulent plume and a moving obstacle (solid
  // faces that change every step) must give the one-thread bits at every
  // team size.
  workload::ProblemSetParams plume_params;
  plume_params.grid = 48;
  plume_params.steps = 12;
  std::vector<workload::InputProblem> problems = {
      workload::generate_problems(1, plume_params, 5).front(),
      workload::make_scene(workload::SceneFamily::kMovingObstacle, 5,
                           {48, 12})};
  const int old_threads = omp_get_max_threads();
  for (workload::InputProblem& problem : problems) {
    problem.sim.vorticity_confinement = 8.0;
    std::vector<fluid::GridF> serial;
    for (const int threads : {1, 2, 3, 4, 8}) {
      omp_set_num_threads(threads);
      SmokeSim sim = workload::make_sim(problem);
      PcgSolver pcg;
      for (int step = 0; step < problem.steps; ++step) {
        sim.step(&pcg);
      }
      const fluid::GridF fields[] = {sim.density(), sim.velocity().u(),
                                     sim.velocity().v()};
      for (std::size_t f = 0; f < 3; ++f) {
        if (threads == 1) {
          serial.push_back(fields[f]);
        } else {
          EXPECT_TRUE(same_bits(serial[f], fields[f]))
              << "seed " << problem.seed << " threads=" << threads
              << " field " << f;
        }
      }
    }
  }
  omp_set_num_threads(old_threads);
}

TEST(SmokeSim, MacCormackMatchesSetting) {
  SmokeParams params;
  params.advection = fluid::AdvectionScheme::kMacCormack;
  FlagGrid flags(24, 24, CellType::kFluid);
  flags.set_smoke_box_boundary();
  SmokeSim sim(params, std::move(flags));
  PcgSolver pcg;
  for (int step = 0; step < 10; ++step) {
    const auto t = sim.step(&pcg);
    EXPECT_TRUE(t.solve.converged);
  }
  EXPECT_GT(sim.density().sum(), 0.0);
}

}  // namespace
}  // namespace sfn
