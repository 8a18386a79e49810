#include "fluid/pcg.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/team.hpp"
#include "util/timer.hpp"

#include <omp.h>

#include <algorithm>
#include <cmath>

namespace sfn::fluid {

namespace {

// Stencil bits, one byte per cell. A neighbour bit is set only on a fluid
// cell whose east (+x), west (-x), north (+y) or south (-y) neighbour is
// a fluid cell inside the grid, so testing it is also the bounds check for
// the flat neighbour index: a neighbour is read only when its bit is set.
constexpr std::uint8_t kFluid = 1;
constexpr std::uint8_t kEast = 2;
constexpr std::uint8_t kWest = 4;
constexpr std::uint8_t kNorth = 8;
constexpr std::uint8_t kSouth = 16;

// IC/MIC sweeps: each thread owns a band of at least kMinBandRows rows,
// and sweeps it in column chunks of about kChunkCols. Neither changes a
// single bit of the result, only the speed.
constexpr int kMinBandRows = 4;
constexpr int kChunkCols = 8;
// Rows per parallel task in the dot-product passes: one group of the four
// rows row_dots advances together.
constexpr int kDotRows = 4;

/// (A x)(k) on a fluid cell: diagonal times x, then minus the fluid
/// neighbours in E, W, N, S order.
inline double apply_a_at(std::uint8_t bits, double diag, const double* x,
                         std::size_t k, std::size_t nx) {
  double acc = diag * x[k];
  if (bits & kEast) acc -= x[k + 1];
  if (bits & kWest) acc -= x[k - 1];
  if (bits & kNorth) acc -= x[k + nx];
  if (bits & kSouth) acc -= x[k - nx];
  return acc;
}

/// Flat views of the solver state one IC/MIC sweep touches.
struct SweepData {
  std::size_t nx;
  const std::uint8_t* stencil;
  const double* precond;
  const double* r;
  double* q;
  float* z;
};

/// Forward solve L q = r over rows [j0, j1) and columns [i0, i1), in
/// ascending order. L has unit off-diagonals times the factor; r is
/// rounded to float on the way in, as the preconditioner's input is.
void forward_block(const SweepData& d, int j0, int j1, int i0, int i1) {
  for (int j = j0; j < j1; ++j) {
    const std::size_t row = static_cast<std::size_t>(j) * d.nx;
    for (int i = i0; i < i1; ++i) {
      const std::size_t k = row + i;
      const std::uint8_t bits = d.stencil[k];
      if (!(bits & kFluid)) {
        continue;
      }
      double t = static_cast<float>(d.r[k]);
      if (bits & kWest) t += d.precond[k - 1] * d.q[k - 1];
      if (bits & kSouth) t += d.precond[k - d.nx] * d.q[k - d.nx];
      d.q[k] = t * d.precond[k];
    }
  }
}

/// Backward solve L^T z = q over rows [j0, j1) and columns [i0, i1), in
/// descending order.
void backward_block(const SweepData& d, int j0, int j1, int i0, int i1) {
  for (int j = j1 - 1; j >= j0; --j) {
    const std::size_t row = static_cast<std::size_t>(j) * d.nx;
    for (int i = i1 - 1; i >= i0; --i) {
      const std::size_t k = row + i;
      const std::uint8_t bits = d.stencil[k];
      if (!(bits & kFluid)) {
        d.z[k] = 0.0f;
        continue;
      }
      double t = d.q[k];
      if (bits & kEast) t += d.precond[k] * d.z[k + 1];
      if (bits & kNorth) t += d.precond[k] * d.z[k + d.nx];
      d.z[k] = static_cast<float>(t * d.precond[k]);
    }
  }
}

/// Dot products keep the fixed order of fluid/reduce.hpp: each row is
/// summed left to right, then the rows are added in ascending order. This
/// writes the partials of rows [j0, j1) to out[j0, j1); term(k) is the
/// product at fluid cell k. Four rows advance together so that their
/// addition chains overlap; each row's own order is unchanged.
template <typename Term>
void row_dots(const std::uint8_t* stencil, std::size_t nx, int j0, int j1,
              double* out, const Term& term) {
  auto add = [&](double* acc, std::size_t k) {
    if (stencil[k] & kFluid) {
      *acc += term(k);
    }
  };
  int j = j0;
  for (; j + 4 <= j1; j += 4) {
    const std::size_t row = static_cast<std::size_t>(j) * nx;
    double a0 = 0.0;
    double a1 = 0.0;
    double a2 = 0.0;
    double a3 = 0.0;
    for (std::size_t k = row; k < row + nx; ++k) {
      add(&a0, k);
      add(&a1, k + nx);
      add(&a2, k + 2 * nx);
      add(&a3, k + 3 * nx);
    }
    out[j] = a0;
    out[j + 1] = a1;
    out[j + 2] = a2;
    out[j + 3] = a3;
  }
  for (; j < j1; ++j) {
    const std::size_t row = static_cast<std::size_t>(j) * nx;
    double acc = 0.0;
    for (std::size_t k = row; k < row + nx; ++k) {
      add(&acc, k);
    }
    out[j] = acc;
  }
}

double sum_rows(const double* partials, int ny) {
  double acc = 0.0;
  for (int j = 0; j < ny; ++j) {
    acc += partials[j];
  }
  return acc;
}

/// std::max(m, a), except that a NaN `a` replaces m and a NaN m stays, so
/// a NaN residual term reaches the solve's residual (and stops the solve
/// unconverged) instead of being dropped. Bit-identical to std::max for
/// every other pair.
double max_keeping_nan(double m, double a) {
  return m < a || std::isnan(a) ? a : m;
}

/// Max of per-row maxima. Max is order-independent, so the grouping does
/// not matter; a NaN row maximum makes the result NaN.
double max_rows(const double* partials, int ny) {
  double m = 0.0;
  for (int j = 0; j < ny; ++j) {
    m = max_keeping_nan(m, partials[j]);
  }
  return m;
}

}  // namespace

void PcgSolver::build_stencil() {
  const FlagGrid& flags = cached_flags_;
  const int nx = flags.nx();
  const int ny = flags.ny();
  const auto cells = static_cast<std::size_t>(nx) * ny;
  stencil_.resize(cells);
  diag_.resize(cells);
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      const std::size_t k = static_cast<std::size_t>(j) * nx + i;
      if (!flags.is_fluid(i, j)) {
        stencil_[k] = 0;
        diag_[k] = 0.0;
        continue;
      }
      std::uint8_t bits = kFluid;
      if (flags.is_fluid(i + 1, j)) bits |= kEast;
      if (flags.is_fluid(i - 1, j)) bits |= kWest;
      if (flags.is_fluid(i, j + 1)) bits |= kNorth;
      if (flags.is_fluid(i, j - 1)) bits |= kSouth;
      stencil_[k] = bits;
      double diag = 0.0;
      if (!flags.is_solid(i + 1, j)) diag += 1.0;
      if (!flags.is_solid(i - 1, j)) diag += 1.0;
      if (!flags.is_solid(i, j + 1)) diag += 1.0;
      if (!flags.is_solid(i, j - 1)) diag += 1.0;
      diag_[k] = diag;
    }
  }
}

void PcgSolver::build_preconditioner() {
  const std::size_t nx = cached_flags_.nx();
  const std::size_t cells = stencil_.size();
  precond_.assign(cells, 0.0);
  if (params_.preconditioner == Preconditioner::kNone) {
    return;
  }
  if (params_.preconditioner == Preconditioner::kJacobi) {
    for (std::size_t k = 0; k < cells; ++k) {
      if (stencil_[k] & kFluid) {
        const double d = diag_[k];
        precond_[k] = d > 0.0 ? 1.0 / d : 0.0;
      }
    }
    return;
  }

  // Incomplete Cholesky: precond stores 1/sqrt of the modified diagonal.
  const double tau =
      params_.preconditioner == Preconditioner::kMIC0 ? params_.mic_tau : 0.0;
  for (std::size_t k = 0; k < cells; ++k) {
    const std::uint8_t bits = stencil_[k];
    if (!(bits & kFluid)) {
      continue;
    }
    const double adiag = diag_[k];
    double e = adiag;
    if (bits & kWest) {
      const double px = precond_[k - 1];  // -1 * px is the L entry.
      e -= px * px;
      if (tau > 0.0 && (stencil_[k - 1] & kNorth)) {
        e -= tau * (px * px);
      }
    }
    if (bits & kSouth) {
      const double py = precond_[k - nx];
      e -= py * py;
      if (tau > 0.0 && (stencil_[k - nx] & kEast)) {
        e -= tau * (py * py);
      }
    }
    if (e < params_.mic_sigma * adiag) {
      e = adiag;  // Safety fallback keeps the factor positive definite.
    }
    precond_[k] = e > 0.0 ? 1.0 / std::sqrt(e) : 0.0;
  }
}

double PcgSolver::precondition() {
  if (params_.preconditioner == Preconditioner::kIC0 ||
      params_.preconditioner == Preconditioner::kMIC0) {
    return precondition_ic();
  }
  const std::size_t nx = cached_flags_.nx();
  const int ny = cached_flags_.ny();
  const bool jacobi = params_.preconditioner == Preconditioner::kJacobi;
  const std::uint8_t* const stencil = stencil_.data();
  const double* const precond = precond_.data();
  const double* const r = r_.data();
  float* const z = z_.data();
  double* const row_partial = row_partial_.data();
  util::for_rows((ny + kDotRows - 1) / kDotRows, [&](int g) {
    const int j0 = g * kDotRows;
    const int j1 = std::min(ny, j0 + kDotRows);
    for (std::size_t k = j0 * nx; k < j1 * nx; ++k) {
      if (stencil[k] & kFluid) {
        const float rf = static_cast<float>(r[k]);
        z[k] = jacobi ? static_cast<float>(rf * precond[k]) : rf;
      }
    }
    row_dots(stencil, nx, j0, j1, row_partial, [&](std::size_t k) {
      return static_cast<double>(z[k]) * r[k];
    });
  });
  return sum_rows(row_partial, ny);
}

double PcgSolver::precondition_ic() {
  const int nx = cached_flags_.nx();
  const int ny = cached_flags_.ny();
  const SweepData d{static_cast<std::size_t>(nx), stencil_.data(),
                    precond_.data(), r_.data(),       q_.data(),
                    z_.data()};
  const int bands = std::clamp(ny / kMinBandRows, 1, omp_get_max_threads());
  const int chunks = std::max(1, (nx + kChunkCols - 1) / kChunkCols);
  if (handoffs_.size() < static_cast<std::size_t>(bands)) {
    handoffs_ = std::vector<ChunkHandoff>(static_cast<std::size_t>(bands));
  }
  ChunkHandoff* const handoff = handoffs_.data();
  for (int b = 0; b < bands; ++b) {
    handoff[b].reset();
  }
  double* const row_partial = row_partial_.data();

  // Band b owns rows [b*ny/bands, (b+1)*ny/bands) and sweeps them one
  // column chunk at a time; short rows also let consecutive rows' latency
  // chains overlap, so even a single band runs this way. Forward, cell
  // (i, j) needs (i-1, j) and (i, j-1): band b starts chunk c once band
  // b-1 has published chunk c. Backward mirrors it from the top band down
  // and from the right. A band's forward sweep publishes counts 1 ..
  // chunks, its backward sweep the next `chunks`.
  auto forward_band = [&](int b) {
    const int j0 = b * ny / bands;
    const int j1 = (b + 1) * ny / bands;
    for (int c = 0; c < chunks; ++c) {
      const auto done = static_cast<std::uint32_t>(c + 1);
      if (b > 0) {
        handoff[b - 1].wait_for(done);
      }
      forward_block(d, j0, j1, c * nx / chunks, (c + 1) * nx / chunks);
      handoff[b].publish(done);
    }
  };
  auto backward_band = [&](int b) {
    const int j0 = b * ny / bands;
    const int j1 = (b + 1) * ny / bands;
    for (int c = chunks - 1; c >= 0; --c) {
      const auto done = static_cast<std::uint32_t>(2 * chunks - c);
      if (b + 1 < bands) {
        handoff[b + 1].wait_for(done);
      }
      backward_block(d, j0, j1, c * nx / chunks, (c + 1) * nx / chunks);
      handoff[b].publish(done);
    }
    row_dots(d.stencil, d.nx, j0, j1, row_partial, [&](std::size_t k) {
      return static_cast<double>(d.z[k]) * d.r[k];
    });
  };

  if (bands == 1) {
    forward_band(0);
    backward_band(0);
  } else {
    // The region keeps the team size of the solver's other regions
    // (switching sizes makes libgomp park and wake threads); threads
    // beyond `bands` have no band. A thread runs its bands in pipeline
    // order, so a team smaller than `bands` (a nested region, say) still
    // completes: the lowest (highest, backward) unfinished band only
    // ever waits on a finished one.
    util::on_team([&](int first, int team) {
      for (int b = first; b < bands; b += team) {
        forward_band(b);
      }
      if (first < bands) {
        for (int b = first + (bands - 1 - first) / team * team; b >= 0;
             b -= team) {
          backward_band(b);
        }
      }
    });
  }
  return sum_rows(row_partial, ny);
}

SolveStats PcgSolver::solve(const FlagGrid& flags, const GridF& rhs,
                            GridF* pressure) {
  SFN_TRACE_SCOPE("pcg.solve");
  static obs::Counter& solves = obs::counter("pcg.solves");
  static obs::Counter& iterations = obs::counter("pcg.iterations");
  static obs::Counter& precond_builds = obs::counter("pcg.precond_builds");
  static obs::Histogram& residuals = obs::histogram("pcg.residual");
  solves.add();
  const util::Timer timer;
  const int nx = flags.nx();
  const int ny = flags.ny();
  const auto cells = static_cast<std::uint64_t>(nx) * ny;
  SolveStats stats;

  // The loops below index flat arrays, so the grids must match the flags.
  SFN_CHECK(rhs.nx() == nx && rhs.ny() == ny && pressure->nx() == nx &&
                pressure->ny() == ny,
            "PcgSolver::solve: rhs/pressure shape differs from the flag grid");
  // Solver-boundary invariant (opt-in SFN_CHECK_NUMERICS): a non-finite
  // rhs would silently poison p through the very first A p.
  SFN_CHECK_FINITE(rhs.data().data(), rhs.size(), "PcgSolver::solve rhs");
  SFN_CHECK_FINITE(pressure->data().data(), pressure->size(),
                   "PcgSolver::solve initial pressure guess");

  if (!stencil_valid_ || !(cached_flags_ == flags)) {
    cached_flags_ = flags;
    build_stencil();
    build_preconditioner();
    stencil_valid_ = true;
    precond_builds.add();
    stats.flops += cells * 12;
  }

  // The first solve at a resolution sizes the vectors; later ones reuse
  // them (resize to the current size allocates nothing).
  const std::size_t n = cells;
  p_.resize(n);
  r_.resize(n);
  s_.resize(n);
  as_.resize(n);
  q_.resize(n);
  z_.resize(n);
  row_partial_.resize(static_cast<std::size_t>(ny));
  const std::size_t stride = nx;
  const std::uint8_t* const stencil = stencil_.data();
  const double* const diag = diag_.data();
  double* const p = p_.data();
  double* const r = r_.data();
  double* const s = s_.data();
  double* const as = as_.data();
  const float* const z = z_.data();
  double* const row_partial = row_partial_.data();
  const int groups = (ny + kDotRows - 1) / kDotRows;
  const float* const b = rhs.data().data();
  float* const out = pressure->data().data();

  // r = b - A p0 with the caller's pressure as the initial guess.
  for (std::size_t k = 0; k < n; ++k) {
    p[k] = (stencil[k] & kFluid) ? out[k] : 0.0;
  }
  util::for_rows(ny, [&](int j) {
    const std::size_t row = static_cast<std::size_t>(j) * stride;
    double m = 0.0;
    for (std::size_t k = row; k < row + stride; ++k) {
      const std::uint8_t bits = stencil[k];
      if (!(bits & kFluid)) {
        continue;
      }
      r[k] = b[k] - apply_a_at(bits, diag[k], p, k, stride);
      m = max_keeping_nan(m, std::abs(r[k]));
    }
    row_partial[j] = m;
  });
  double residual = max_rows(row_partial, ny);
  if (residual <= params_.tolerance) {
    stats.converged = true;
    stats.residual = residual;
    stats.seconds = timer.seconds();
    residuals.observe(residual);
    return stats;
  }

  double sigma = precondition();
  for (std::size_t k = 0; k < n; ++k) {
    if (stencil[k] & kFluid) {
      s[k] = z[k];
    }
  }

  int iter = 0;
  for (; iter < params_.max_iterations; ++iter) {
    // as = A s, fused with the dot product s.as.
    util::for_rows(groups, [&](int g) {
      const int j0 = g * kDotRows;
      const int j1 = std::min(ny, j0 + kDotRows);
      for (std::size_t k = j0 * stride; k < j1 * stride; ++k) {
        const std::uint8_t bits = stencil[k];
        if (bits & kFluid) {
          as[k] = apply_a_at(bits, diag[k], s, k, stride);
        }
      }
      row_dots(stencil, stride, j0, j1, row_partial,
               [&](std::size_t k) { return s[k] * as[k]; });
    });
    const double s_as = sum_rows(row_partial, ny);
    if (s_as == 0.0) {
      break;
    }
    const double alpha = sigma / s_as;
    util::for_rows(ny, [&](int j) {
      const std::size_t row = static_cast<std::size_t>(j) * stride;
      double m = 0.0;
      for (std::size_t k = row; k < row + stride; ++k) {
        if (!(stencil[k] & kFluid)) {
          continue;
        }
        p[k] += alpha * s[k];
        r[k] -= alpha * as[k];
        m = max_keeping_nan(m, std::abs(r[k]));
      }
      row_partial[j] = m;
    });
    residual = max_rows(row_partial, ny);
    if (residual <= params_.tolerance) {
      ++iter;
      stats.converged = true;
      break;
    }
    if (std::isnan(residual)) {
      ++iter;
      break;
    }
    const double sigma_new = precondition();
    const double beta = sigma_new / sigma;
    sigma = sigma_new;
    util::for_rows(ny, [&](int j) {
      const std::size_t row = static_cast<std::size_t>(j) * stride;
      for (std::size_t k = row; k < row + stride; ++k) {
        if (stencil[k] & kFluid) {
          s[k] = z[k] + beta * s[k];
        }
      }
    });
  }

  for (std::size_t k = 0; k < n; ++k) {
    out[k] = (stencil[k] & kFluid) ? static_cast<float>(p[k]) : 0.0f;
  }

  SFN_CHECK_FINITE(pressure->data().data(), pressure->size(),
                   "PcgSolver::solve pressure result");

  stats.iterations = iter;
  stats.residual = residual;
  iterations.add(static_cast<std::uint64_t>(iter));
  if (!std::isnan(residual)) {
    residuals.observe(residual);  // A NaN would poison the histogram's sum.
  }
  // ~7 flops/cell for A, 2x2 for dots, 3x2 for axpy, ~14 for IC solves.
  stats.flops += static_cast<std::uint64_t>(iter + 1) * cells * 33;
  stats.seconds = timer.seconds();
  return stats;
}

std::string PcgSolver::name() const {
  switch (params_.preconditioner) {
    case Preconditioner::kNone: return "CG";
    case Preconditioner::kJacobi: return "JacobiPCG";
    case Preconditioner::kIC0: return "ICCG(0)";
    case Preconditioner::kMIC0: return "MICCG(0)";
  }
  return "PCG";
}

}  // namespace sfn::fluid
