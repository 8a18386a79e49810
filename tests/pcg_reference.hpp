#pragma once

// Test-only oracle for fluid::PcgSolver: the original matrix-free solver,
// which re-derives the stencil from the flag grid through bounds-checked
// FlagGrid calls on every access and runs both triangular sweeps on one
// thread. The arithmetic below is kept exactly as it was so that the
// optimised solver can be required to reproduce it bit for bit
// (solver_test's Pcg.MatchesReferenceBitwise); only the telemetry
// (trace scope, pcg.* counters) is left out. Do not "improve" this file.

#include "fluid/pcg.hpp"
#include "fluid/reduce.hpp"
#include "util/timer.hpp"

#include <algorithm>
#include <cmath>
#include <string>

namespace sfn::test {

namespace reference_pcg_detail {

using fluid::FlagGrid;
using fluid::GridD;
using fluid::GridF;

/// A_plusi(i,j) = -1 iff cells (i,j) and (i+1,j) are both fluid. We only
/// ever need the boolean, so helpers return 0/1 "coupled" flags.
inline bool coupled_x(const FlagGrid& flags, int i, int j) {
  return flags.is_fluid(i, j) && flags.is_fluid(i + 1, j);
}
inline bool coupled_y(const FlagGrid& flags, int i, int j) {
  return flags.is_fluid(i, j) && flags.is_fluid(i, j + 1);
}

inline double diag_entry(const FlagGrid& flags, int i, int j) {
  double diag = 0.0;
  if (!flags.is_solid(i + 1, j)) diag += 1.0;
  if (!flags.is_solid(i - 1, j)) diag += 1.0;
  if (!flags.is_solid(i, j + 1)) diag += 1.0;
  if (!flags.is_solid(i, j - 1)) diag += 1.0;
  return diag;
}

inline void apply_a(const FlagGrid& flags, const GridD& p, GridD* out) {
  const int nx = p.nx();
  const int ny = p.ny();
#pragma omp parallel for schedule(static)
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      if (!flags.is_fluid(i, j)) {
        (*out)(i, j) = 0.0;
        continue;
      }
      double acc = diag_entry(flags, i, j) * p(i, j);
      if (flags.is_fluid(i + 1, j)) acc -= p(i + 1, j);
      if (flags.is_fluid(i - 1, j)) acc -= p(i - 1, j);
      if (flags.is_fluid(i, j + 1)) acc -= p(i, j + 1);
      if (flags.is_fluid(i, j - 1)) acc -= p(i, j - 1);
      (*out)(i, j) = acc;
    }
  }
}

inline double dot(const FlagGrid& flags, const GridD& a, const GridD& b) {
  const int nx = a.nx();
  const int ny = a.ny();
  // Fixed accumulation order (fluid/reduce.hpp): PCG trajectories must be
  // bit-identical whatever OpenMP team size the calling thread carries, or
  // guard fallbacks/restarts would diverge between serve and solo runs.
  return fluid::deterministic_row_sum(ny, [&](int j) {
    double row = 0.0;
    for (int i = 0; i < nx; ++i) {
      if (flags.is_fluid(i, j)) {
        row += a(i, j) * b(i, j);
      }
    }
    return row;
  });
}

inline double max_abs(const FlagGrid& flags, const GridD& a) {
  const int nx = a.nx();
  const int ny = a.ny();
  double m = 0.0;
#pragma omp parallel for schedule(static) reduction(max : m)
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      if (flags.is_fluid(i, j)) {
        m = std::max(m, std::abs(a(i, j)));
      }
    }
  }
  return m;
}

}  // namespace reference_pcg_detail

/// The original PCG solver, as a PoissonSolver so it can drive whole
/// simulations as well as single solves.
class ReferencePcg final : public fluid::PoissonSolver {
 public:
  explicit ReferencePcg(fluid::PcgParams params = {}) : params_(params) {}

  fluid::SolveStats solve(const fluid::FlagGrid& flags, const fluid::GridF& rhs,
                          fluid::GridF* pressure) override;

  [[nodiscard]] std::string name() const override { return "ReferencePcg"; }

 private:
  using FlagGrid = fluid::FlagGrid;
  using GridD = fluid::GridD;
  using GridF = fluid::GridF;
  using Preconditioner = fluid::Preconditioner;

  void build_preconditioner(const FlagGrid& flags);
  void apply_preconditioner(const FlagGrid& flags, const GridF& r, GridF* z);
  void ensure_scratch(int nx, int ny);

  fluid::PcgParams params_;
  GridD precond_diag_;
  FlagGrid cached_flags_;
  bool precond_valid_ = false;

  struct Scratch {
    GridD p, r, s, as, z, ic_q;
    GridF rf, zf;
  };
  Scratch scratch_;
};

inline void ReferencePcg::build_preconditioner(const FlagGrid& flags) {
  using namespace reference_pcg_detail;
  const int nx = flags.nx();
  const int ny = flags.ny();
  precond_diag_ = GridD(nx, ny, 0.0);
  if (params_.preconditioner == Preconditioner::kJacobi) {
    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        if (flags.is_fluid(i, j)) {
          const double d = diag_entry(flags, i, j);
          precond_diag_(i, j) = d > 0.0 ? 1.0 / d : 0.0;
        }
      }
    }
    return;
  }

  // Incomplete Cholesky: precond stores 1/sqrt of the modified diagonal.
  const double tau =
      params_.preconditioner == Preconditioner::kMIC0 ? params_.mic_tau : 0.0;
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      if (!flags.is_fluid(i, j)) {
        continue;
      }
      const double adiag = diag_entry(flags, i, j);
      double e = adiag;
      if (i > 0 && coupled_x(flags, i - 1, j)) {
        const double px = precond_diag_(i - 1, j);  // -1 * px is L entry.
        e -= px * px;
        if (tau > 0.0 && coupled_y(flags, i - 1, j)) {
          e -= tau * (px * px);
        }
      }
      if (j > 0 && coupled_y(flags, i, j - 1)) {
        const double py = precond_diag_(i, j - 1);
        e -= py * py;
        if (tau > 0.0 && coupled_x(flags, i, j - 1)) {
          e -= tau * (py * py);
        }
      }
      if (e < params_.mic_sigma * adiag) {
        e = adiag;  // Safety fallback keeps the factor positive definite.
      }
      precond_diag_(i, j) = e > 0.0 ? 1.0 / std::sqrt(e) : 0.0;
    }
  }
}

inline void ReferencePcg::ensure_scratch(int nx, int ny) {
  if (scratch_.p.nx() == nx && scratch_.p.ny() == ny) {
    return;
  }
  scratch_.p = GridD(nx, ny, 0.0);
  scratch_.r = GridD(nx, ny, 0.0);
  scratch_.s = GridD(nx, ny, 0.0);
  scratch_.as = GridD(nx, ny, 0.0);
  scratch_.z = GridD(nx, ny, 0.0);
  scratch_.ic_q = GridD(nx, ny, 0.0);
  scratch_.rf = GridF(nx, ny, 0.0f);
  scratch_.zf = GridF(nx, ny, 0.0f);
}

inline void ReferencePcg::apply_preconditioner(const FlagGrid& flags,
                                               const GridF& r, GridF* z) {
  using namespace reference_pcg_detail;
  const int nx = flags.nx();
  const int ny = flags.ny();
  switch (params_.preconditioner) {
    case Preconditioner::kNone:
      for (int j = 0; j < ny; ++j) {
        for (int i = 0; i < nx; ++i) {
          (*z)(i, j) = flags.is_fluid(i, j) ? r(i, j) : 0.0f;
        }
      }
      return;
    case Preconditioner::kJacobi:
      for (int j = 0; j < ny; ++j) {
        for (int i = 0; i < nx; ++i) {
          (*z)(i, j) = flags.is_fluid(i, j)
                           ? static_cast<float>(r(i, j) * precond_diag_(i, j))
                           : 0.0f;
        }
      }
      return;
    case Preconditioner::kIC0:
    case Preconditioner::kMIC0:
      break;
  }

  // Forward solve L q = r (L has unit off-diagonals times precond). The
  // scratch grid carries stale values in non-fluid cells, but every read
  // below is guarded by a fluid check on a cell written earlier this call.
  GridD& q = scratch_.ic_q;
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      if (!flags.is_fluid(i, j)) {
        continue;
      }
      double t = r(i, j);
      if (i > 0 && coupled_x(flags, i - 1, j)) {
        t += precond_diag_(i - 1, j) * q(i - 1, j);  // A_plusi = -1.
      }
      if (j > 0 && coupled_y(flags, i, j - 1)) {
        t += precond_diag_(i, j - 1) * q(i, j - 1);
      }
      q(i, j) = t * precond_diag_(i, j);
    }
  }
  // Backward solve L^T z = q.
  for (int j = ny - 1; j >= 0; --j) {
    for (int i = nx - 1; i >= 0; --i) {
      if (!flags.is_fluid(i, j)) {
        (*z)(i, j) = 0.0f;
        continue;
      }
      double t = q(i, j);
      if (coupled_x(flags, i, j)) {
        t += precond_diag_(i, j) * (*z)(i + 1, j);
      }
      if (coupled_y(flags, i, j)) {
        t += precond_diag_(i, j) * (*z)(i, j + 1);
      }
      (*z)(i, j) = static_cast<float>(t * precond_diag_(i, j));
    }
  }
}

inline fluid::SolveStats ReferencePcg::solve(const FlagGrid& flags,
                                             const GridF& rhs,
                                             GridF* pressure) {
  using namespace reference_pcg_detail;
  const util::Timer timer;
  const int nx = flags.nx();
  const int ny = flags.ny();
  const auto cells = static_cast<std::uint64_t>(nx) * ny;
  fluid::SolveStats stats;

  if (!precond_valid_ || !(cached_flags_ == flags)) {
    build_preconditioner(flags);
    cached_flags_ = flags;
    precond_valid_ = true;
    stats.flops += cells * 12;
  }

  ensure_scratch(nx, ny);
  GridD& p = scratch_.p;
  GridD& r = scratch_.r;
  GridD& s = scratch_.s;
  GridD& as = scratch_.as;
  GridF& rf = scratch_.rf;
  GridF& zf = scratch_.zf;

  // r = b - A p0 with the caller's pressure as the initial guess.
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      p(i, j) = flags.is_fluid(i, j) ? (*pressure)(i, j) : 0.0;
    }
  }
  apply_a(flags, p, &as);
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      r(i, j) = flags.is_fluid(i, j) ? rhs(i, j) - as(i, j) : 0.0;
    }
  }

  double residual = max_abs(flags, r);
  if (residual <= params_.tolerance) {
    stats.converged = true;
    stats.residual = residual;
    stats.seconds = timer.seconds();
    return stats;
  }

  auto precondition = [&](const GridD& rin, GridD* zout) {
    for (std::size_t k = 0; k < rin.size(); ++k) {
      rf[k] = static_cast<float>(rin[k]);
    }
    apply_preconditioner(flags, rf, &zf);
    for (std::size_t k = 0; k < zf.size(); ++k) {
      (*zout)[k] = zf[k];
    }
  };

  GridD& z = scratch_.z;
  precondition(r, &z);
  s = z;
  double sigma = dot(flags, z, r);

  int iter = 0;
  for (; iter < params_.max_iterations; ++iter) {
    apply_a(flags, s, &as);
    const double s_as = dot(flags, s, as);
    if (s_as == 0.0) {
      break;
    }
    const double alpha = sigma / s_as;
#pragma omp parallel for schedule(static)
    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        if (!flags.is_fluid(i, j)) continue;
        p(i, j) += alpha * s(i, j);
        r(i, j) -= alpha * as(i, j);
      }
    }
    residual = max_abs(flags, r);
    if (residual <= params_.tolerance) {
      ++iter;
      stats.converged = true;
      break;
    }
    precondition(r, &z);
    const double sigma_new = dot(flags, z, r);
    const double beta = sigma_new / sigma;
    sigma = sigma_new;
#pragma omp parallel for schedule(static)
    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        if (!flags.is_fluid(i, j)) continue;
        s(i, j) = z(i, j) + beta * s(i, j);
      }
    }
  }

  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      (*pressure)(i, j) = flags.is_fluid(i, j)
                              ? static_cast<float>(p(i, j))
                              : 0.0f;
    }
  }

  stats.iterations = iter;
  stats.residual = residual;
  // ~7 flops/cell for A, 2x2 for dots, 3x2 for axpy, ~14 for IC solves.
  stats.flops += static_cast<std::uint64_t>(iter + 1) * cells * 33;
  stats.seconds = timer.seconds();
  return stats;
}

}  // namespace sfn::test
