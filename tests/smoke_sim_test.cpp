#include "core/neural_projection.hpp"
#include "fluid/operators.hpp"
#include "fluid/pcg.hpp"
#include "fluid/relaxation.hpp"
#include "fluid/smoke_sim.hpp"
#include "modelgen/arch_spec.hpp"
#include "runtime/fallback.hpp"
#include "smoke_step_reference.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "workload/problems.hpp"
#include "workload/scenes.hpp"

#include <gtest/gtest.h>
#include <omp.h>

#include <cstring>
#include <limits>
#include <optional>
#include <string>
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

// --- Flat step passes against the original code (smoke_step_reference.hpp)

template <typename T>
bool same_object_bits(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

bool same_tensor_bits(const nn::Tensor& a, const nn::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.numel() * sizeof(float)) == 0;
}

/// A problem of `ny` > nx rows, so a swapped row stride cannot pass.
workload::InputProblem tall(workload::InputProblem problem) {
  problem.ny = problem.nx + 8;
  return problem;
}

/// The step oracle's inputs: a plume with a static obstacle and one
/// problem of each scene family, all 32 x 40.
std::vector<workload::InputProblem> reference_problems(int steps) {
  workload::ProblemSetParams plume_params;
  plume_params.grid = 32;
  plume_params.steps = steps;
  workload::InputProblem plume =
      workload::generate_problems(1, plume_params, 41).front();
  workload::Obstacle block;
  block.kind = workload::Obstacle::Kind::kBox;
  block.cx = 0.55;
  block.cy = 0.6;
  block.rx = 0.12;
  block.ry = 0.06;
  block.angle = 0.3;
  plume.obstacles.push_back(block);
  std::vector<workload::InputProblem> problems = {tall(plume)};
  for (const auto family : workload::all_scene_families()) {
    problems.push_back(tall(workload::make_scene(family, 41, {32, steps})));
  }
  return problems;
}

/// One step's observable state.
struct StepSnapshot {
  fluid::GridF density;
  fluid::GridF u;
  fluid::GridF v;
  fluid::GridF pressure;
  fluid::GridF rhs;
  fluid::StepTelemetry telemetry;
};

template <typename Sim>
StepSnapshot snapshot(const Sim& sim, const fluid::GridF& rhs,
                      const fluid::StepTelemetry& telemetry) {
  return {sim.density(), sim.velocity().u(), sim.velocity().v(),
          sim.pressure(), rhs, telemetry};
}

/// A pressure no solver should produce: huge values of alternating sign,
/// whose differences overflow to ±inf, with NaN, ±inf and -0.0f cells, so
/// the gradient and the clamp meet every non-finite case.
class WildPressure final : public fluid::PoissonSolver {
 public:
  fluid::SolveStats solve(const fluid::FlagGrid&, const fluid::GridF&,
                          fluid::GridF* pressure) override {
    constexpr float kInf = std::numeric_limits<float>::infinity();
    constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
    const float values[] = {3e38f, -3e38f, kNaN, kInf, -kInf, -0.0f, 0.25f};
    for (std::size_t k = 0; k < pressure->size(); ++k) {
      (*pressure)[k] = values[(k + calls_) % 7];
    }
    ++calls_;
    return {};
  }
  [[nodiscard]] std::string name() const override { return "wild"; }

 private:
  std::size_t calls_ = 0;
};

/// The solver of one oracle run: exact PCG, a wild pressure, or a tiny
/// untrained surrogate under the health guard. The surrogate's relative
/// residuals read about 0.97 to 3, so a threshold of 1.8 trips on some
/// steps, and one of 0.99 on nearly all, a few of them (0.99 to 1)
/// warm-starting the fallback PCG from the prediction.
struct SolverCase {
  enum class Kind { kPcg, kWild, kNeural };
  const char* name;
  Kind kind;
  double residual_threshold;
};

TEST(SmokeStep, MatchesReferenceBitwise) {
  constexpr int kSteps = 8;
  util::Rng rng(17);
  const nn::Network net =
      modelgen::build_network(modelgen::tompson_spec(4), rng);
  using Kind = SolverCase::Kind;
  const SolverCase solvers[] = {{"pcg", Kind::kPcg, 0.0},
                                {"wild", Kind::kWild, 0.0},
                                {"neural+guard", Kind::kNeural, 1.8},
                                {"neural+strict-guard", Kind::kNeural, 0.99}};
  const int old_threads = omp_get_max_threads();
  int trips = 0;
  int guarded_steps = 0;
  int warm_starts = 0;
  for (const workload::InputProblem& base : reference_problems(kSteps)) {
    for (const auto scheme : {fluid::AdvectionScheme::kSemiLagrangian,
                              fluid::AdvectionScheme::kMacCormack}) {
      for (const double confinement : {0.0, 8.0}) {
        for (const SolverCase& solver : solvers) {
          workload::InputProblem problem = base;
          problem.sim.advection = scheme;
          problem.sim.vorticity_confinement = confinement;
          runtime::GuardParams guard_params;
          guard_params.enabled = true;
          guard_params.residual_threshold = solver.residual_threshold;
          const std::string label =
              "seed " + std::to_string(problem.seed) + " " +
              std::to_string(problem.nx) + "x" + std::to_string(problem.ny) +
              " scheme " + std::to_string(static_cast<int>(scheme)) +
              " confinement " + std::to_string(confinement) + " " +
              solver.name;

          // The oracle runs once: its loops do not depend on the team.
          std::vector<StepSnapshot> expected;
          {
            test::ReferenceSmokeSim ref = test::make_reference_sim(problem);
            fluid::PcgSolver pcg;
            WildPressure wild;
            fluid::PoissonSolver* unguarded = &pcg;
            if (solver.kind == Kind::kWild) {
              unguarded = &wild;
            }
            test::ReferenceNeuralProjection neural(&net);
            test::ReferenceFallbackPolicy guard(guard_params);
            expected.push_back(snapshot(ref, ref.rhs(), {}));
            for (int step = 0; step < kSteps; ++step) {
              const auto t = solver.kind == Kind::kNeural
                                 ? ref.step(&neural, &guard)
                                 : ref.step(unguarded);
              expected.push_back(snapshot(ref, ref.rhs(), t));
              trips += t.guard.fallback ? 1 : 0;
              guarded_steps += t.guard.checked ? 1 : 0;
              warm_starts += t.guard.fallback &&
                                     t.guard.relative_residual < 1.0
                                 ? 1
                                 : 0;
            }
          }

          for (const int threads : {1, 2, 3, 4, 8}) {
            omp_set_num_threads(threads);
            fluid::SmokeSim sim = workload::make_sim(problem);
            fluid::PcgSolver pcg;
            WildPressure wild;
            fluid::PoissonSolver* unguarded = &pcg;
            if (solver.kind == Kind::kWild) {
              unguarded = &wild;
            }
            core::NeuralProjection neural(&net, nullptr, "tiny");
            runtime::FallbackPolicy guard(guard_params);
            for (int step = 0; step <= kSteps; ++step) {
              fluid::StepTelemetry t;
              if (step > 0) {
                t = solver.kind == Kind::kNeural ? sim.step(&neural, &guard)
                                                 : sim.step(unguarded);
              }
              const StepSnapshot& want =
                  expected[static_cast<std::size_t>(step)];
              const std::string where = label + " threads " +
                                        std::to_string(threads) + " step " +
                                        std::to_string(step);
              ASSERT_TRUE(same_bits(want.density, sim.density())) << where;
              ASSERT_TRUE(same_bits(want.u, sim.velocity().u())) << where;
              ASSERT_TRUE(same_bits(want.v, sim.velocity().v())) << where;
              if (step == 0) {
                continue;
              }
              ASSERT_TRUE(same_bits(want.pressure, sim.pressure())) << where;
              ASSERT_TRUE(same_bits(want.rhs, sim.last_rhs())) << where;
              const fluid::StepTelemetry& w = want.telemetry;
              ASSERT_TRUE(same_object_bits(w.div_norm, t.div_norm)) << where;
              ASSERT_TRUE(same_object_bits(w.cum_div_norm, t.cum_div_norm))
                  << where;
              ASSERT_EQ(w.solve.non_finite, t.solve.non_finite) << where;
              ASSERT_EQ(w.solve.iterations, t.solve.iterations) << where;
              ASSERT_EQ(w.guard.checked, t.guard.checked) << where;
              ASSERT_EQ(w.guard.fallback, t.guard.fallback) << where;
              ASSERT_TRUE(same_object_bits(w.guard.relative_residual,
                                           t.guard.relative_residual))
                  << where;
              ASSERT_EQ(w.guard.fallback_solve.iterations,
                        t.guard.fallback_solve.iterations)
                  << where;
            }
          }
        }
      }
    }
  }
  omp_set_num_threads(old_threads);
  // Both guard outcomes and both fallback starts were exercised.
  EXPECT_GT(trips, 0);
  EXPECT_LT(trips, guarded_steps);
  EXPECT_GT(warm_starts, 0);
  EXPECT_LT(warm_starts, trips);
}

/// Cell types drawn uniformly from all four, on an nx x ny grid.
fluid::FlagGrid random_flags(int nx, int ny, util::Rng& rng) {
  fluid::FlagGrid flags(nx, ny);
  constexpr CellType kTypes[] = {CellType::kFluid, CellType::kSolid,
                                 CellType::kEmpty, CellType::kInflow};
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      flags.set(i, j, kTypes[rng.uniform_int(0, 3)]);
    }
  }
  return flags;
}

/// Ordinary values with one cell in 8 special: -0.0f, 0.0f, denormals or
/// huge finite values (±3e38, whose sums overflow), and also NaN or ±inf
/// when `allow_non_finite`.
fluid::GridF seeded_field(int nx, int ny, util::Rng& rng,
                          bool allow_non_finite) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float non_finite[] = {std::numeric_limits<float>::quiet_NaN(), kInf,
                              -kInf};
  const float finite[] = {-0.0f, 0.0f, 1e-40f, -3e-42f,
                          std::numeric_limits<float>::denorm_min(), 3e38f,
                          -2e37f};
  fluid::GridF g(nx, ny, 0.0f);
  for (std::size_t k = 0; k < g.size(); ++k) {
    g[k] = static_cast<float>(rng.uniform(-2.0, 2.0));
    if (rng.uniform_int(0, 7) != 0) {
      continue;
    }
    if (allow_non_finite && rng.uniform_int(0, 2) == 0) {
      g[k] = non_finite[rng.uniform_int(0, 2)];
    } else {
      g[k] = finite[rng.uniform_int(0, 6)];
    }
  }
  return g;
}

/// Hands NeuralProjection a fixed "network output", so the decode sees
/// exactly the values a test seeds.
class FixedOutputSink final : public core::InferenceSink {
 public:
  explicit FixedOutputSink(const nn::Tensor* output) : output_(output) {}
  void infer(const nn::Network&, const nn::Tensor&, nn::Tensor* out) override {
    out->copy_from(*output_);
  }

 private:
  const nn::Tensor* output_;
};

TEST(SmokeStep, EncodeDecodeMatchReferenceBitwise) {
  util::Rng rng(23);
  const nn::Network net =
      modelgen::build_network(modelgen::tompson_spec(4), rng);
  const int old_threads = omp_get_max_threads();
  for (const auto& [nx, ny] : {std::pair{23, 17}, std::pair{1, 1},
                               std::pair{5, 40}, std::pair{48, 3}}) {
    for (int trial = 0; trial < 4; ++trial) {
      const fluid::FlagGrid flags = random_flags(nx, ny, rng);
      const fluid::GridF rhs = seeded_field(nx, ny, rng, trial != 0);
      // A network output of the grid's shape, and one a pooled and
      // upsampled network leaves a row and a column wider.
      for (const int pad : {0, 1}) {
        nn::Tensor output(nn::Shape{1, ny + pad, nx + pad});
        const fluid::GridF values =
            seeded_field(nx + pad, ny + pad, rng, true);
        std::memcpy(output.data().data(), values.data().data(),
                    output.numel() * sizeof(float));

        nn::Tensor want_input;
        double want_inv = 0.0;
        test::reference_encode_solver_input(flags, rhs, &want_inv,
                                            &want_input);
        fluid::GridF want_p(nx, ny, 7.0f);
        const int want_bad =
            test::reference_decode(flags, output, want_inv, &want_p);

        for (const int threads : {1, 3, 4}) {
          omp_set_num_threads(threads);
          const std::string where =
              std::to_string(nx) + "x" + std::to_string(ny) + " trial " +
              std::to_string(trial) + " pad " + std::to_string(pad) +
              " threads " + std::to_string(threads);
          nn::Tensor input;
          double inv = 0.0;
          core::encode_solver_input(flags, rhs, &inv, &input);
          EXPECT_TRUE(same_tensor_bits(want_input, input)) << where;
          EXPECT_TRUE(same_object_bits(want_inv, inv)) << where;

          FixedOutputSink sink(&output);
          core::NeuralProjection proj(&net, &sink, "fixed");
          fluid::GridF p(nx, ny, 7.0f);
          const auto stats = proj.solve(flags, rhs, &p);
          EXPECT_TRUE(same_bits(want_p, p)) << where;
          EXPECT_EQ(want_bad, stats.non_finite) << where;
        }
      }
    }
  }
  omp_set_num_threads(old_threads);
}

/// policy.inspect(...), or nothing when it throws util::CheckError: in
/// numerics builds the fallback PCG's finiteness checks reject a
/// non-finite rhs and the singular systems (fluid cells walled in by
/// solids) that random flags make, on both sides alike.
template <typename Policy>
std::optional<fluid::GuardOutcome> checked_inspect(
    Policy& policy, const fluid::FlagGrid& flags, const fluid::GridF& rhs,
    fluid::GridF* pressure, const fluid::SolveStats& solve) {
  try {
    return policy.inspect(flags, rhs, pressure, solve);
  } catch (const util::CheckError&) {
    return std::nullopt;
  }
}

TEST(SmokeStep, GuardMatchesReferenceBitwise) {
  util::Rng rng(29);
  const int old_threads = omp_get_max_threads();
  int trips = 0;
  int cases = 0;
  for (const auto& [nx, ny] : {std::pair{23, 17}, std::pair{1, 1},
                               std::pair{5, 40}, std::pair{48, 3}}) {
    for (int trial = 0; trial < 6; ++trial) {
      const fluid::FlagGrid flags = random_flags(nx, ny, rng);
      const fluid::GridF rhs = seeded_field(nx, ny, rng, trial % 2 == 1);
      const fluid::GridF pressure = seeded_field(nx, ny, rng, trial >= 2);
      const test::ReferenceGuardSweeps want =
          test::reference_guard_sweeps(flags, rhs, pressure);
      for (const double threshold : {8.0, 1e30}) {
        runtime::GuardParams params;
        params.enabled = true;
        params.residual_threshold = threshold;
        for (const int solve_non_finite : {0, 2}) {
          fluid::SolveStats solve;
          solve.non_finite = solve_non_finite;
          fluid::GridF want_p = pressure;
          test::ReferenceFallbackPolicy reference(params);
          const std::optional<fluid::GuardOutcome> want_outcome =
              checked_inspect(reference, flags, rhs, &want_p, solve);
          for (const int threads : {1, 3, 4}) {
            omp_set_num_threads(threads);
            const std::string where =
                std::to_string(nx) + "x" + std::to_string(ny) + " trial " +
                std::to_string(trial) + " threshold " +
                std::to_string(threshold) + " threads " +
                std::to_string(threads);
            const fluid::ResidualSweep sweep =
                fluid::residual_sweep(flags, rhs, pressure);
            EXPECT_EQ(want.bad_cells, sweep.non_finite) << where;
            EXPECT_TRUE(same_object_bits(want.residual, sweep.residual))
                << where;
            EXPECT_TRUE(same_object_bits(
                want.scale, std::max(sweep.rhs_max, 1e-12)))
                << where;
            EXPECT_TRUE(same_object_bits(
                want.residual,
                fluid::poisson_residual(flags, rhs, pressure)))
                << where;

            fluid::GridF p = pressure;
            runtime::FallbackPolicy policy(params);
            const std::optional<fluid::GuardOutcome> outcome =
                checked_inspect(policy, flags, rhs, &p, solve);
            ASSERT_EQ(want_outcome.has_value(), outcome.has_value()) << where;
            if (!outcome) {
              continue;
            }
            EXPECT_EQ(want_outcome->checked, outcome->checked) << where;
            EXPECT_EQ(want_outcome->fallback, outcome->fallback) << where;
            EXPECT_TRUE(same_object_bits(want_outcome->relative_residual,
                                         outcome->relative_residual))
                << where;
            EXPECT_EQ(want_outcome->fallback_solve.iterations,
                      outcome->fallback_solve.iterations)
                << where;
            EXPECT_TRUE(same_bits(want_p, p)) << where;
          }
          // Only a tripped guard runs the PCG that can throw.
          trips += !want_outcome || want_outcome->fallback ? 1 : 0;
          ++cases;
        }
      }
    }
  }
  omp_set_num_threads(old_threads);
  EXPECT_GT(trips, 0);
  EXPECT_LT(trips, cases);
}

}  // namespace
}  // namespace sfn
