#pragma once

#include "fluid/flags.hpp"
#include "fluid/grid2.hpp"

#include <cstdint>
#include <memory>
#include <string>

namespace sfn::fluid {

/// Outcome of one pressure solve.
struct SolveStats {
  int iterations = 0;
  double residual = 0.0;      ///< Final max-norm residual of A p - b.
  bool converged = false;
  std::uint64_t flops = 0;    ///< Estimated floating-point operations.
  double seconds = 0.0;       ///< Wall-clock time of the solve.
  /// Cells the solver had to sanitise because it produced a non-finite
  /// value (the NaN firewall in NeuralProjection::solve). Non-zero means
  /// the solve is untrustworthy even though the returned field is finite;
  /// the runtime health guard treats it as an unconditional trip.
  int non_finite = 0;
};

/// Interface for anything that can produce a pressure field from the
/// velocity divergence: the classic iterative solvers in this module and
/// the neural surrogate in src/core/neural_projection.*. All solvers solve
/// A p = b where A is the flag-aware negated 5-point Laplacian
/// (apply_pressure_laplacian) and b = -div(u*).
class PoissonSolver {
 public:
  virtual ~PoissonSolver() = default;

  /// Solve for pressure. `rhs` is b = -div(u*); `pressure` is used as the
  /// initial guess and receives the solution on fluid cells.
  virtual SolveStats solve(const FlagGrid& flags, const GridF& rhs,
                           GridF* pressure) = 0;

  /// Human-readable solver name for reports.
  [[nodiscard]] virtual std::string name() const = 0;
};

/// What one sweep over a pressure solve's output measures (the health
/// guard's whole per-step cost, runtime::FallbackPolicy).
struct ResidualSweep {
  /// Non-finite pressure cells, over every cell type.
  int non_finite = 0;
  /// Max-norm of b - A p over fluid cells; NaN terms drop out.
  double residual = 0.0;
  /// Max-norm of the finite b over fluid cells.
  double rhs_max = 0.0;
};

/// One flat row pass on the OpenMP team gives all three results. Maxima
/// and integer counts do not depend on the order rows are combined in, so
/// they are the same bits for any team size. Throws util::CheckError when
/// rhs or pressure differs in shape from the flags.
ResidualSweep residual_sweep(const FlagGrid& flags, const GridF& rhs,
                             const GridF& pressure);

/// Max-norm of the residual b - A p over fluid cells
/// (residual_sweep(...).residual).
double poisson_residual(const FlagGrid& flags, const GridF& rhs,
                        const GridF& pressure);

}  // namespace sfn::fluid
