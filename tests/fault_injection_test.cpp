// Fault-injection harness for the graceful-degradation runtime: corrupt
// the pressure solve at a controlled cadence and check that the health
// guard re-solves the poisoned steps, the controller quarantines repeat
// offenders, and the session finishes with a finite field — never a
// whole-run PCG restart.

#include "core/session.hpp"
#include "fluid/pcg.hpp"
#include "obs/metrics.hpp"
#include "runtime/fallback.hpp"
#include "util/rng.hpp"
#include "workload/scenes.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <utility>

namespace sfn {
namespace {

using fluid::CellType;
using fluid::FlagGrid;
using fluid::GridF;

/// What the injector writes into the pressure field.
enum class Fault { kNan, kSpike };

/// Wraps an exact solver and corrupts its (correct) answer every
/// `every`-th call across all instances sharing the same counters, so
/// healthy steps can never trip the guard and the injected fault count is
/// exact. Plugged in through SessionConfig::solver_decorator.
class CorruptingSolver final : public fluid::PoissonSolver {
 public:
  struct Shared {
    int calls = 0;
    int injected = 0;
  };

  CorruptingSolver(std::unique_ptr<fluid::PoissonSolver> inner, int every,
                   Fault fault, Shared* shared)
      : inner_(std::move(inner)), every_(every), fault_(fault),
        shared_(shared) {}

  fluid::SolveStats solve(const FlagGrid& flags, const GridF& rhs,
                          GridF* pressure) override {
    auto stats = inner_->solve(flags, rhs, pressure);
    if (++shared_->calls % every_ == 0) {
      ++shared_->injected;
      const float bad = fault_ == Fault::kNan
                            ? std::numeric_limits<float>::quiet_NaN()
                            : 1.0e8f;
      for (std::size_t k = 0; k < pressure->size(); ++k) {
        (*pressure)[k] = bad;
      }
    }
    return stats;
  }

  [[nodiscard]] std::string name() const override {
    return "corrupting(" + inner_->name() + ")";
  }

 private:
  std::unique_ptr<fluid::PoissonSolver> inner_;
  int every_;
  Fault fault_;
  Shared* shared_;
};

/// Hand-built two-model artifact set: real (untrained) networks for the
/// session to own, a linear KNN database, and a requirement generous
/// enough that the quality checks never escalate to a restart on their
/// own — any restart in these tests would be a guard-layer bug.
core::OfflineArtifacts make_artifacts() {
  core::OfflineArtifacts artifacts;
  util::Rng rng(7);
  for (std::size_t m = 0; m < 2; ++m) {
    core::TrainedModel model;
    model.spec = modelgen::tompson_spec(4 + 2 * static_cast<int>(m));
    model.net = modelgen::build_network(model.spec, rng);
    model.origin = "fault-injection-test";
    model.mean_seconds = 0.5 + 0.5 * static_cast<double>(m);
    model.mean_quality = 0.05 - 0.02 * static_cast<double>(m);
    model.records.model_id = m;
    artifacts.library.models.push_back(std::move(model));
    artifacts.pareto_ids.push_back(m);
    artifacts.selected_ids.push_back(m);
    quality::CandidateScore score;
    score.model_id = m;
    score.success_probability = 0.6 + 0.2 * static_cast<double>(m);
    artifacts.scores.push_back(score);
  }
  for (int i = 0; i <= 100; i += 5) {
    artifacts.quality_db.add(i, 0.01 + 0.04 * i / 100.0);
  }
  artifacts.requirement.quality_loss = 0.5;
  return artifacts;
}

workload::InputProblem make_problem(int steps) {
  workload::InputProblem problem;
  problem.seed = 11;
  problem.nx = 24;
  problem.ny = 24;
  problem.steps = steps;
  return problem;
}

core::SessionConfig make_config(int every, Fault fault,
                                CorruptingSolver::Shared* shared) {
  core::SessionConfig config;
  // Defaults, not env.
  config.controller = runtime::ControllerParams{};
  config.guard = runtime::GuardParams{};
  config.solver_decorator = [=](std::size_t,
                                std::unique_ptr<fluid::PoissonSolver>) {
    // Replace the surrogate outright with a corrupted exact solver:
    // healthy calls then sit at PCG tolerance, far below any guard
    // threshold, so runtime.fallbacks counts injected faults exactly.
    return std::make_unique<CorruptingSolver>(
        std::make_unique<fluid::PcgSolver>(), every, fault, shared);
  };
  return config;
}

bool all_finite(const GridF& g) {
  for (std::size_t k = 0; k < g.size(); ++k) {
    if (!std::isfinite(g[k])) {
      return false;
    }
  }
  return true;
}

TEST(FaultInjection, SporadicNanFaultsAreAbsorbedPerStep) {
  obs::reset_metrics();
  CorruptingSolver::Shared shared;
  const auto artifacts = make_artifacts();
  const auto problem = make_problem(/*steps=*/24);
  // Faults on solver calls 9 and 18: two trips on a 24-step run, below
  // the quarantine threshold — every poisoned step must be re-solved in
  // place and the run must complete without a restart.
  const auto result = core::run_adaptive(
      problem, artifacts, make_config(/*every=*/9, Fault::kNan, &shared));

  EXPECT_EQ(shared.injected, 2);
  EXPECT_FALSE(result.restarted_with_pcg);
  EXPECT_TRUE(all_finite(result.final_density));
  EXPECT_EQ(result.fallback_steps, 2);
  EXPECT_EQ(obs::counter("runtime.fallbacks").value(), 2u);
  EXPECT_EQ(obs::counter("runtime.quarantines").value(), 0u);
  EXPECT_TRUE(result.quarantined_models.empty());
  // Fallback re-solves cost wall time, and that overhead is both summed
  // separately and contained inside the per-model attribution.
  EXPECT_GT(result.fallback_seconds, 0.0);
  EXPECT_LT(result.fallback_seconds, result.seconds);
  ASSERT_EQ(result.model_per_step.size(),
            static_cast<std::size_t>(problem.steps));
  double attributed = 0.0;
  for (const auto& [id, seconds] : result.seconds_per_model) {
    EXPECT_GT(seconds, 0.0) << "model " << id;
    attributed += seconds;
  }
  EXPECT_GE(result.seconds, result.fallback_seconds);
  EXPECT_GE(attributed, result.fallback_seconds);
}

TEST(FaultInjection, PersistentFaultsQuarantineThenDegradeToExactSolver) {
  obs::reset_metrics();
  CorruptingSolver::Shared shared;
  const auto artifacts = make_artifacts();
  const auto problem = make_problem(/*steps=*/20);
  // Every solve is poisoned (spike, not NaN — both paths must trip): the
  // first candidate collects quarantine_trips trips and is disabled, the
  // survivor follows, and the remaining steps degrade to the exact
  // solver per step. restarted_with_pcg must stay false throughout —
  // completed steps were all re-solved exactly, nothing is replayed.
  const auto result = core::run_adaptive(
      problem, artifacts, make_config(/*every=*/1, Fault::kSpike, &shared));

  EXPECT_FALSE(result.restarted_with_pcg);
  EXPECT_TRUE(all_finite(result.final_density));
  EXPECT_EQ(obs::counter("runtime.quarantines").value(), 2u);
  EXPECT_EQ(result.quarantined_models.size(), 2u);
  // 3 trips per candidate before each quarantine, nothing after
  // exhaustion (the degraded tail runs the exact solver unguarded).
  EXPECT_EQ(result.fallback_steps, 6);
  EXPECT_EQ(obs::counter("runtime.fallbacks").value(), 6u);
  ASSERT_EQ(result.model_per_step.size(),
            static_cast<std::size_t>(problem.steps));
  for (std::size_t step = 6; step < result.model_per_step.size(); ++step) {
    EXPECT_EQ(result.model_per_step[step], core::SessionResult::kPcgModelId)
        << "step " << step;
  }
  EXPECT_GT(result.seconds_per_model.at(core::SessionResult::kPcgModelId),
            0.0);
  // Exhaustion is logged as the kRestartPcg last resort in the decision
  // trace, but it is a degradation, not a restart.
  ASSERT_FALSE(result.events.empty());
  EXPECT_EQ(result.events.back().decision, runtime::Decision::kRestartPcg);
}

TEST(FaultInjection, SessionQuarantineThresholdIsHonoured) {
  obs::reset_metrics();
  CorruptingSolver::Shared shared;
  const auto artifacts = make_artifacts();
  const auto problem = make_problem(/*steps=*/20);
  // The persistent faults above, on a session that quarantines on the
  // first trip: each candidate falls after one re-solved step, not three.
  auto config = make_config(/*every=*/1, Fault::kSpike, &shared);
  config.controller.quarantine_trips = 1;
  const auto result = core::run_adaptive(problem, artifacts, config);

  EXPECT_FALSE(result.restarted_with_pcg);
  EXPECT_EQ(result.quarantined_models.size(), 2u);
  EXPECT_EQ(obs::counter("runtime.quarantines").value(), 2u);
  EXPECT_EQ(result.fallback_steps, 2);
  ASSERT_EQ(result.model_per_step.size(),
            static_cast<std::size_t>(problem.steps));
  for (std::size_t step = 2; step < result.model_per_step.size(); ++step) {
    EXPECT_EQ(result.model_per_step[step], core::SessionResult::kPcgModelId)
        << "step " << step;
  }
}

// --- Adversarial scene families under fault injection ---------------------
//
// The degradation ladder must behave identically when the scene itself is
// adversarial: per-step flag re-rasterisation (moving obstacle) and
// inflow/outflow boundaries (shear layer) add no extra pressure solves,
// so the injected-fault arithmetic of the plume tests carries over
// unchanged — one solver call per step, nothing else ever touches the
// decorated solver.

TEST(FaultInjection, MovingObstacleSceneAbsorbsSporadicFaults) {
  obs::reset_metrics();
  CorruptingSolver::Shared shared;
  const auto artifacts = make_artifacts();
  const auto problem = workload::make_scene(
      workload::SceneFamily::kMovingObstacle, /*seed=*/19, {24, 24});
  const auto result = core::run_adaptive(
      problem, artifacts, make_config(/*every=*/9, Fault::kNan, &shared));

  EXPECT_EQ(shared.injected, 2);
  EXPECT_FALSE(result.restarted_with_pcg);
  EXPECT_TRUE(all_finite(result.final_density));
  EXPECT_EQ(result.fallback_steps, 2);
  EXPECT_EQ(obs::counter("runtime.fallbacks").value(), 2u);
  EXPECT_EQ(obs::counter("runtime.quarantines").value(), 0u);
  EXPECT_TRUE(result.quarantined_models.empty());
  ASSERT_EQ(result.model_per_step.size(),
            static_cast<std::size_t>(problem.steps));
}

TEST(FaultInjection, ShearLayerPersistentFaultsQuarantineThenDegrade) {
  obs::reset_metrics();
  CorruptingSolver::Shared shared;
  const auto artifacts = make_artifacts();
  const auto problem = workload::make_scene(
      workload::SceneFamily::kShearLayer, /*seed=*/23, {24, 20});
  const auto result = core::run_adaptive(
      problem, artifacts, make_config(/*every=*/1, Fault::kSpike, &shared));

  EXPECT_FALSE(result.restarted_with_pcg);
  EXPECT_TRUE(all_finite(result.final_density));
  EXPECT_EQ(obs::counter("runtime.quarantines").value(), 2u);
  EXPECT_EQ(result.quarantined_models.size(), 2u);
  EXPECT_EQ(result.fallback_steps, 6);
  EXPECT_EQ(obs::counter("runtime.fallbacks").value(), 6u);
  ASSERT_EQ(result.model_per_step.size(),
            static_cast<std::size_t>(problem.steps));
  for (std::size_t step = 6; step < result.model_per_step.size(); ++step) {
    EXPECT_EQ(result.model_per_step[step], core::SessionResult::kPcgModelId)
        << "step " << step;
  }
  ASSERT_FALSE(result.events.empty());
  EXPECT_EQ(result.events.back().decision, runtime::Decision::kRestartPcg);
}

// --- FallbackPolicy unit tests (no session) -------------------------------

FlagGrid open_box(int n) {
  FlagGrid flags(n, n, CellType::kFluid);
  flags.set_smoke_box_boundary();
  return flags;
}

TEST(FallbackPolicy, GarbagePressureTripsAndIsResolved) {
  obs::reset_metrics();
  const FlagGrid flags = open_box(16);
  GridF rhs(16, 16, 0.0f);
  rhs(8, 8) = 1.0f;
  GridF pressure(16, 16, std::numeric_limits<float>::quiet_NaN());

  runtime::FallbackPolicy policy{runtime::GuardParams{}};
  const auto outcome = policy.inspect(flags, rhs, &pressure, {});
  EXPECT_TRUE(outcome.checked);
  EXPECT_TRUE(outcome.fallback);
  EXPECT_EQ(policy.fallbacks(), 1);
  EXPECT_TRUE(outcome.fallback_solve.converged);
  EXPECT_TRUE(all_finite(pressure));
  // The re-solve leaves an exact answer behind.
  EXPECT_LT(fluid::poisson_residual(flags, rhs, pressure), 1e-4);
}

TEST(FallbackPolicy, ExactSolutionDoesNotTrip) {
  const FlagGrid flags = open_box(16);
  GridF rhs(16, 16, 0.0f);
  rhs(8, 8) = 1.0f;
  GridF pressure(16, 16, 0.0f);
  fluid::PcgSolver pcg;
  pcg.solve(flags, rhs, &pressure);

  runtime::FallbackPolicy policy{runtime::GuardParams{}};
  const auto outcome = policy.inspect(flags, rhs, &pressure, {});
  EXPECT_TRUE(outcome.checked);
  EXPECT_FALSE(outcome.fallback);
  EXPECT_EQ(policy.fallbacks(), 0);
}

TEST(FallbackPolicy, ZeroGuessStaysUnderThreshold) {
  // p = 0 has relative residual exactly 1 — an honest-but-lazy surrogate
  // answer must not trip a threshold meant for divergent garbage.
  const FlagGrid flags = open_box(16);
  GridF rhs(16, 16, 0.0f);
  rhs(8, 8) = 1.0f;
  GridF pressure(16, 16, 0.0f);

  runtime::FallbackPolicy policy{runtime::GuardParams{}};
  const auto outcome = policy.inspect(flags, rhs, &pressure, {});
  EXPECT_FALSE(outcome.fallback);
  EXPECT_NEAR(outcome.relative_residual, 1.0, 1e-6);
}

TEST(FallbackPolicy, NanFirewallStatsTripDespiteSmallResidual) {
  // A solve whose NaN firewall sanitised cells is untrustworthy even if
  // the surviving field happens to have a small residual.
  const FlagGrid flags = open_box(16);
  GridF rhs(16, 16, 0.0f);
  rhs(8, 8) = 1.0f;
  GridF pressure(16, 16, 0.0f);
  fluid::PcgSolver pcg;
  pcg.solve(flags, rhs, &pressure);

  fluid::SolveStats stats;
  stats.non_finite = 3;
  runtime::FallbackPolicy policy{runtime::GuardParams{}};
  const auto outcome = policy.inspect(flags, rhs, &pressure, stats);
  EXPECT_TRUE(outcome.fallback);
}

TEST(GuardParams, MalformedResidualThresholdFallsBackToDefault) {
  // Trailing junk must reject the whole value, not half-parse "2.5x" as 2.5.
  for (const char* bad : {"2.5x", "8x", "-1", "inf"}) {
    SCOPED_TRACE(bad);
    ::setenv("SFN_GUARD_RESIDUAL", bad, 1);
    EXPECT_EQ(runtime::GuardParams::from_env().residual_threshold, 8.0);
  }
  ::setenv("SFN_GUARD_RESIDUAL", "2.5", 1);
  EXPECT_EQ(runtime::GuardParams::from_env().residual_threshold, 2.5);
  ::unsetenv("SFN_GUARD_RESIDUAL");
}

TEST(FallbackPolicy, DisabledGuardInspectsNothing) {
  const FlagGrid flags = open_box(8);
  const GridF rhs(8, 8, 1.0f);
  GridF pressure(8, 8, std::numeric_limits<float>::quiet_NaN());

  runtime::GuardParams params;
  params.enabled = false;
  runtime::FallbackPolicy policy{params};
  const auto outcome = policy.inspect(flags, rhs, &pressure, {});
  EXPECT_FALSE(outcome.checked);
  EXPECT_FALSE(outcome.fallback);
}

TEST(MakeRuntimeCandidates, MissingScoreCountsAndDefaults) {
  obs::reset_metrics();
  auto artifacts = make_artifacts();
  // Drop the score entry for model 0: its candidate must fall back to an
  // uninformative 0.5 and the obs layer must record the inconsistency.
  artifacts.pareto_ids = {1};
  artifacts.scores.resize(1);
  artifacts.scores[0].model_id = 1;
  artifacts.scores[0].success_probability = 0.8;

  const auto candidates = core::make_runtime_candidates(artifacts);
  ASSERT_EQ(candidates.size(), 2u);
  // Order is fastest -> most accurate: model 0 (mean_quality 0.05) first.
  EXPECT_EQ(candidates[0].model_id, 0u);
  EXPECT_DOUBLE_EQ(candidates[0].probability, 0.5);
  EXPECT_DOUBLE_EQ(candidates[1].probability, 0.8);
  EXPECT_EQ(obs::counter("runtime.missing_score").value(), 1u);
}

}  // namespace
}  // namespace sfn
