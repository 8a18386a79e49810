#pragma once

#include "fluid/handoff.hpp"
#include "fluid/poisson.hpp"

#include <cstdint>
#include <vector>

namespace sfn::fluid {

/// Preconditioner choices for the conjugate-gradient pressure solver.
enum class Preconditioner {
  kNone,     ///< Plain CG.
  kJacobi,   ///< Diagonal scaling.
  kIC0,      ///< Incomplete Cholesky(0).
  kMIC0,     ///< Modified Incomplete Cholesky(0) — mantaflow's "MICCG(0)",
             ///< the paper's reference solver (Algorithm 1 lines 8-17).
};

struct PcgParams {
  Preconditioner preconditioner = Preconditioner::kMIC0;
  double tolerance = 1e-6;   ///< On the max-norm of the residual.
  int max_iterations = 600;
  /// MIC(0) blend: 0 gives plain IC(0), 0.97 is the standard tuned value.
  double mic_tau = 0.97;
  /// Diagonal safety clamp for MIC(0) (Bridson's sigma).
  double mic_sigma = 0.25;
};

/// Preconditioned conjugate gradients on the flag-aware pressure Laplacian.
///
/// The 5-point stencil is cached per cell (one byte of fluid-neighbour bits
/// plus the A diagonal) together with the preconditioner, and both are
/// rebuilt only when the flag grid changes. A solve runs in one OpenMP
/// team: the rebuild, the initial residual, every iteration and the
/// write-back, with a TeamBarrier between passes. The flat passes give
/// each thread the same rows throughout (on an AVX2 CPU they run four
/// cells per instruction); the IC/MIC factor build and triangular sweeps
/// run as a pipeline over row bands. Every cell evaluates the same
/// expression on the same neighbour values whatever the team size or ISA,
/// and the dot products keep the fixed order of fluid/reduce.hpp, so a
/// solve returns the same bits under any OMP_NUM_THREADS.
class PcgSolver final : public PoissonSolver {
 public:
  explicit PcgSolver(PcgParams params = {}) : params_(params) {}

  SolveStats solve(const FlagGrid& flags, const GridF& rhs,
                   GridF* pressure) override;

  [[nodiscard]] std::string name() const override;

  [[nodiscard]] const PcgParams& params() const { return params_; }

  /// The cache the last solve used, for tests that compare it with a
  /// serial build: per-cell stencil bits (fluid 1, east 2, west 4, north
  /// 8, south 16), the A diagonal and the preconditioner diagonal (IC/MIC
  /// factor diag^(-1/2), the Jacobi inverse diagonal, or 0).
  [[nodiscard]] const std::vector<std::uint8_t>& stencil() const {
    return stencil_;
  }
  [[nodiscard]] const std::vector<double>& diagonal() const { return diag_; }
  [[nodiscard]] const std::vector<double>& preconditioner_diagonal() const {
    return precond_;
  }

 private:
  PcgParams params_;

  /// Stencil cache of cached_flags_, rebuilt (into the same buffers) when
  /// the flags change: per-cell fluid/neighbour bits, the A diagonal
  /// (count of non-solid neighbours), and the preconditioner.
  FlagGrid cached_flags_;
  bool stencil_valid_ = false;
  std::vector<std::uint8_t> stencil_;
  std::vector<double> diag_;
  std::vector<double> precond_;

  /// Per-solve vectors over the flat row-major grid, reused by every solve
  /// at this resolution. Only fluid cells are ever read, and each solve
  /// writes those before reading them. z is stored as float because the
  /// preconditioner's output is rounded to float by definition.
  std::vector<double> p_, r_, s_, as_, q_;
  std::vector<float> z_;
  /// Per-row partials of the dot products and of the residual maxima.
  std::vector<double> row_dot_;
  std::vector<double> row_max_;

  /// One progress counter per row band of the pipelined sweeps.
  std::vector<ChunkHandoff> handoffs_;
  TeamBarrier barrier_;
};

}  // namespace sfn::fluid
