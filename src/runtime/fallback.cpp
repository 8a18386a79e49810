#include "runtime/fallback.hpp"

#include "obs/eventlog.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/config.hpp"

#include <chrono>
#include <cmath>

namespace sfn::runtime {

namespace {

/// Max-norm of `g` over fluid cells, ignoring non-finite entries (a NaN
/// rhs cell must not silence the comparison below).
double fluid_max_abs(const fluid::FlagGrid& flags, const fluid::GridF& g) {
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

}  // namespace

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

  // Count non-finite pressure cells explicitly: poisson_residual's
  // max-norm drops NaN terms (NaN comparisons are false inside std::max),
  // so an all-NaN field would otherwise read as a perfect solve.
  int bad_cells = 0;
  for (std::size_t k = 0; k < pressure->size(); ++k) {
    if (!std::isfinite((*pressure)[k])) {
      ++bad_cells;
    }
  }

  // One residual sweep (a 5-point stencil pass) is the entire per-step
  // guard cost. Relative to the rhs max-norm so the threshold is
  // resolution- and scale-independent.
  const double residual = fluid::poisson_residual(flags, rhs, *pressure);
  const double scale = std::max(fluid_max_abs(flags, rhs), 1e-12);
  const double relative = residual / scale;
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
  obs::flight_report_guard_trip(0);

  // Warm start from the rejected prediction only when it is fully finite
  // and beats the trivial guess (relative residual of p = 0 is exactly
  // 1). A worse field would slow PCG down, a non-finite one makes the
  // residual untrustworthy and violates PCG's finite-initial-guess entry
  // checks — both restart from zero.
  if (bad_cells > 0 || !(relative < 1.0)) {
    pressure->fill(0.0f);
  }
  outcome.fallback = true;
  const auto solve_begin = std::chrono::steady_clock::now();
  outcome.fallback_solve = pcg_.solve(flags, rhs, pressure);
  static obs::Histogram& fallback_latency =
      obs::histogram("runtime.fallback_latency");
  fallback_latency.observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    solve_begin)
          .count());
  return outcome;
}

}  // namespace sfn::runtime
