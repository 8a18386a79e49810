#include "runtime/fallback.hpp"

#include "obs/eventlog.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/config.hpp"

#include <algorithm>
#include <cmath>

namespace sfn::runtime {

GuardParams GuardParams::from_env() {
  GuardParams params;
  params.enabled = util::env_choice("SFN_GUARD", {"on", "off"}, "on") == "on";
  const double residual =
      util::env_double("SFN_GUARD_RESIDUAL", params.residual_threshold);
  if (std::isfinite(residual) && residual > 0.0) {
    params.residual_threshold = residual;
  }
  return params;
}

FallbackPolicy::FallbackPolicy(GuardParams params, fluid::PcgParams pcg)
    : params_(params), pcg_(pcg) {}

fluid::GuardOutcome FallbackPolicy::inspect(const fluid::FlagGrid& flags,
                                            const fluid::GridF& rhs,
                                            fluid::GridF* pressure,
                                            const fluid::SolveStats& solve) {
  fluid::GuardOutcome outcome;
  if (!params_.enabled) {
    return outcome;
  }
  outcome.checked = true;

  // One fused sweep (a 5-point stencil pass) is the entire per-step guard
  // cost. It counts non-finite pressure cells explicitly: the residual's
  // max-norm drops NaN terms (NaN comparisons are false inside std::max),
  // so an all-NaN field would otherwise read as a perfect solve. The
  // residual is relative to the rhs max-norm so the threshold is
  // resolution- and scale-independent.
  const fluid::ResidualSweep sweep =
      fluid::residual_sweep(flags, rhs, *pressure);
  const int bad_cells = sweep.non_finite;
  const double relative = sweep.residual / std::max(sweep.rhs_max, 1e-12);
  outcome.relative_residual = relative;

  static obs::Histogram& residual_hist = obs::histogram("guard.residual");
  residual_hist.observe(relative);

  const bool tripped = solve.non_finite > 0 || bad_cells > 0 ||
                       !std::isfinite(relative) ||
                       relative > params_.residual_threshold;
  if (!tripped) {
    return outcome;
  }

  // core/stepper.cpp derives SessionResult::fallback_seconds from this
  // scope's events (its kFallbackScope names the same scope).
  obs::TraceScope fallback_scope("runtime.fallback");
  static obs::Counter& fallbacks = obs::counter("runtime.fallbacks");
  fallbacks.add();
  ++fallbacks_;
  obs::Event("guard_trip")
      .field("relative_residual", relative)
      .field("bad_cells", bad_cells)
      .field("non_finite", solve.non_finite);
  obs::flight_report_guard_trip();

  // Warm start from the rejected prediction only when it is fully finite
  // and beats the trivial guess (relative residual of p = 0 is exactly
  // 1). A worse field would slow PCG down, a non-finite one makes the
  // residual untrustworthy and violates PCG's finite-initial-guess entry
  // checks — both restart from zero.
  if (bad_cells > 0 || !(relative < 1.0)) {
    pressure->fill(0.0f);
  }
  outcome.fallback = true;
  outcome.fallback_solve = pcg_.solve(flags, rhs, pressure);
  static obs::Histogram& fallback_latency =
      obs::histogram("runtime.fallback_latency");
  fallback_latency.observe(outcome.fallback_solve.seconds);
  return outcome;
}

}  // namespace sfn::runtime
