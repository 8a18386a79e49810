#pragma once

#include "core/neural_projection.hpp"
#include "core/offline.hpp"
#include "fluid/poisson.hpp"
#include "runtime/controller.hpp"
#include "runtime/fallback.hpp"

#include <functional>
#include <map>
#include <memory>
#include <optional>

namespace sfn::core {

/// Configuration of the online phase.
struct SessionConfig {
  /// Model-switch controller, including the guard-trip quarantine
  /// thresholds. Defaults honour SFN_GUARD_TRIPS / SFN_GUARD_WINDOW.
  runtime::ControllerParams controller = runtime::ControllerParams::from_env();
  /// Per-step surrogate health guard (see runtime::FallbackPolicy).
  /// Defaults honour the SFN_GUARD_* environment knobs.
  runtime::GuardParams guard = runtime::GuardParams::from_env();
  /// Override the quality-loss requirement for this run (defaults to the
  /// requirement the artifacts were prepared with). The evaluation sweeps
  /// set this per grid size, mirroring the paper's use of the Tompson
  /// model's measured mean loss as the target.
  std::optional<double> quality_requirement;
  /// Test seam: wrap (or replace) each candidate's pressure solver before
  /// the run. The fault-injection harness uses this to corrupt solves at
  /// a controlled cadence; leave empty for production behaviour.
  using SolverDecorator = std::function<std::unique_ptr<fluid::PoissonSolver>(
      std::size_t model_id, std::unique_ptr<fluid::PoissonSolver>)>;
  SolverDecorator solver_decorator;
  /// Serving seam: when set, every surrogate forward pass is routed
  /// through this sink (non-owning; must outlive the run) so a serving
  /// layer can coalesce inference across concurrent sessions
  /// (serve::InferenceCoalescer). The sink contract requires bit-identical
  /// results to local inference, so solo and served runs agree exactly.
  InferenceSink* inference_sink = nullptr;
};

/// Outcome of one adaptive simulation (paper §6.2, Algorithm 2).
struct SessionResult {
  /// Sentinel "model id" attributed to steps the exact solver ran (the
  /// whole-run PCG restart and the all-quarantined degradation tail).
  static constexpr std::size_t kPcgModelId = static_cast<std::size_t>(-1);

  fluid::GridF final_density;
  double seconds = 0.0;           ///< Total wall time incl. any restart.
  bool restarted_with_pcg = false;
  std::vector<runtime::SwitchEvent> events;
  /// Wall time attributed to each library model id (paper Table 3).
  /// Exact-solver steps appear under kPcgModelId.
  std::map<std::size_t, double> seconds_per_model;
  /// Model id used at each step of the run that produced final_density;
  /// always exactly `problem.steps` long (a PCG restart replays every
  /// step, so the aborted neural steps stay in the time bill but not in
  /// this trace).
  std::vector<std::size_t> model_per_step;
  /// Steps whose pressure solve the health guard rejected and re-solved
  /// with the warm-started exact solver, and the wall time those
  /// re-solves cost (also contained in the owning model's attribution).
  int fallback_steps = 0;
  double fallback_seconds = 0.0;
  /// Library model ids quarantined by the guard during this run.
  std::vector<std::size_t> quarantined_models;
};

/// Runtime candidates derived from the offline artifacts, ordered
/// fastest -> most accurate (the axis Algorithm 2 walks). A selected
/// model without a Pareto score entry falls back to probability 0.5 and
/// bumps the `runtime.missing_score` counter — that combination means the
/// offline phase and the artifact set disagree and is worth alerting on.
std::vector<runtime::RuntimeCandidate> make_runtime_candidates(
    const OfflineArtifacts& artifacts);

/// Run one problem under the quality-aware runtime: start on the
/// highest-probability selected model, check the predicted final quality
/// every interval, switch models (or restart with PCG) per Algorithm 2.
/// Every step runs under the health guard: a rejected solve is re-solved
/// exactly in place, repeated offenders are quarantined, and only a
/// predicted quality violation on the most accurate survivor still
/// triggers the whole-run PCG restart.
SessionResult run_adaptive(const workload::InputProblem& problem,
                           const OfflineArtifacts& artifacts,
                           const SessionConfig& config = {});

/// Run one problem with a single fixed surrogate (no switching) — the
/// "Tompson-style" baseline mode used across the evaluation figures.
SessionResult run_fixed(const workload::InputProblem& problem,
                        const TrainedModel& model);

/// run_fixed honouring the SessionConfig seams that make sense without a
/// controller: solver_decorator (fault injection) and inference_sink
/// (serving). Controller/guard/quality fields are ignored — a fixed run
/// has no switching machinery to configure.
SessionResult run_fixed(const workload::InputProblem& problem,
                        const TrainedModel& model,
                        const SessionConfig& config);

}  // namespace sfn::core
