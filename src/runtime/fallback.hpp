#pragma once

#include "fluid/guard.hpp"
#include "fluid/pcg.hpp"

namespace sfn::runtime {

/// Per-step surrogate health-guard knobs. Defaults come from code; every
/// field has an `SFN_GUARD_*` environment override (read through
/// util::config, see from_env) so deployments can tighten or disable the
/// guard without recompiling. How many trips quarantine a candidate is the
/// controller's decision (ControllerParams::quarantine_trips).
struct GuardParams {
  /// Master switch (SFN_GUARD=on|off). Off skips the residual sweep
  /// entirely — the paper-faithful configuration with no guard.
  bool enabled = true;
  /// Trip when the post-solve residual max-norm exceeds this multiple of
  /// the rhs max-norm (SFN_GUARD_RESIDUAL). The trivial guess p = 0 sits
  /// at exactly 1, healthy surrogates well below it; the default only
  /// catches solves that actively inject divergence.
  double residual_threshold = 8.0;

  /// Code defaults overridden by the SFN_GUARD_* environment knobs.
  [[nodiscard]] static GuardParams from_env();
};

/// The production fluid::StepGuard: measures the relative residual of
/// every guarded pressure solve and, when it exceeds the threshold (or
/// the solver reported NaN-firewall trips), re-solves *that step* with
/// the owned PCG solver — warm-started from the surrogate's prediction
/// when the prediction beats the trivial guess, from zero otherwise.
///
/// One policy instance serves a whole session: the PCG preconditioner and
/// scratch grids are cached across fallbacks, so repeated trips pay only
/// the iteration cost. This class is the only sanctioned owner of a
/// PcgSolver inside src/runtime/ (lint rule pcg-in-runtime).
class FallbackPolicy final : public fluid::StepGuard {
 public:
  explicit FallbackPolicy(GuardParams params = GuardParams::from_env(),
                          fluid::PcgParams pcg = {});

  fluid::GuardOutcome inspect(const fluid::FlagGrid& flags,
                              const fluid::GridF& rhs, fluid::GridF* pressure,
                              const fluid::SolveStats& solve) override;

  /// The owned exact solver, for callers that must degrade whole steps to
  /// PCG (e.g. the session once every candidate is quarantined). Shares
  /// the preconditioner cache with the fallback path.
  [[nodiscard]] fluid::PoissonSolver* exact_solver() { return &pcg_; }

  [[nodiscard]] const GuardParams& params() const { return params_; }
  [[nodiscard]] int fallbacks() const { return fallbacks_; }

 private:
  GuardParams params_;
  fluid::PcgSolver pcg_;
  int fallbacks_ = 0;
};

}  // namespace sfn::runtime
