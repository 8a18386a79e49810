#include "fluid/pcg.hpp"

#include "fluid/pcg_avx2.hpp"
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

using detail::kEast;
using detail::kFluid;
using detail::kNorth;
using detail::kSouth;
using detail::kWest;
using detail::PcgArrays;
using detail::PcgRowPasses;

// IC/MIC sweeps and factor build: each band holds at least kMinBandRows
// rows and runs in column chunks of about kChunkCols. Neither changes a
// single bit of the result, only the speed.
constexpr int kMinBandRows = 4;
constexpr int kChunkCols = 8;

/// (A x)(k) on a fluid cell: diagonal times x, then minus the fluid
/// neighbours in E, W, N, S order. x is the solve's p or s, or the
/// caller's float guess, whose values p takes exactly.
template <typename T>
double apply_a_at(std::uint8_t bits, double diag, const T* x, std::size_t k,
                  std::size_t nx) {
  double acc = diag * x[k];
  if (bits & kEast) acc -= x[k + 1];
  if (bits & kWest) acc -= x[k - 1];
  if (bits & kNorth) acc -= x[k + nx];
  if (bits & kSouth) acc -= x[k - nx];
  return acc;
}

/// Dot products keep the fixed order of fluid/reduce.hpp: each row is
/// summed left to right, then the rows are added in ascending order. This
/// sums columns [i0, nx) of rows [j0, j1) into out[j0, j1), continuing the
/// sums of columns [0, i0) already there when i0 > 0; term(k) is the
/// product at fluid cell k. Four rows advance together so that their
/// addition chains overlap; each row's own order is unchanged.
template <typename Term>
void row_dots(const std::uint8_t* stencil, std::size_t nx, int j0, int j1,
              std::size_t i0, double* out, const Term& term) {
  auto add = [&](double* acc, std::size_t k) {
    if (stencil[k] & kFluid) {
      *acc += term(k);
    }
  };
  const auto start = [&](int j) { return i0 > 0 ? out[j] : 0.0; };
  int j = j0;
  for (; j + 4 <= j1; j += 4) {
    const std::size_t row = static_cast<std::size_t>(j) * nx;
    double a0 = start(j);
    double a1 = start(j + 1);
    double a2 = start(j + 2);
    double a3 = start(j + 3);
    for (std::size_t k = row + i0; k < row + nx; ++k) {
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
    double acc = start(j);
    for (std::size_t k = row + i0; k < row + nx; ++k) {
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

/// The max |r| a scalar row pass resumes at column i0 of the row starting
/// at `row`: the vector passes' maximum of columns [0, i0), or, when that
/// is NaN, the scalar fold of the stored |r| there, which gives a NaN row
/// the bits the scalar pass gives it.
double resume_max(const PcgArrays& a, std::size_t row, std::size_t i0,
                  double vector_max) {
  if (!std::isnan(vector_max)) {
    return vector_max;
  }
  double m = 0.0;
  for (std::size_t k = row; k < row + i0; ++k) {
    if (a.stencil[k] & kFluid) {
      m = max_keeping_nan(m, std::abs(a.r[k]));
    }
  }
  return m;
}

// Scalar row passes over columns [i0, nx) of rows [j0, j1). With i0 > 0
// they finish rows whose first i0 columns the vector passes ran, and
// continue those columns' partials.

/// as = A s, with the rows' sums of s·as in partial.
void apply_a_rows(const PcgArrays& a, int j0, int j1, std::size_t i0,
                  double* partial) {
  const auto nx = static_cast<std::size_t>(a.nx);
  for (int j = j0; j < j1; ++j) {
    const std::size_t row = static_cast<std::size_t>(j) * nx;
    for (std::size_t k = row + i0; k < row + nx; ++k) {
      const std::uint8_t bits = a.stencil[k];
      if (bits & kFluid) {
        a.as[k] = apply_a_at(bits, a.diag[k], a.s, k, nx);
      }
    }
  }
  row_dots(a.stencil, nx, j0, j1, i0, partial,
           [&](std::size_t k) { return a.s[k] * a.as[k]; });
}

/// p += alpha s and r -= alpha as, with the rows' max |r| in partial.
void update_pr_rows(const PcgArrays& a, double alpha, int j0, int j1,
                    std::size_t i0, double* partial) {
  const auto nx = static_cast<std::size_t>(a.nx);
  for (int j = j0; j < j1; ++j) {
    const std::size_t row = static_cast<std::size_t>(j) * nx;
    double m = i0 > 0 ? resume_max(a, row, i0, partial[j]) : 0.0;
    for (std::size_t k = row + i0; k < row + nx; ++k) {
      if (!(a.stencil[k] & kFluid)) {
        continue;
      }
      a.p[k] += alpha * a.s[k];
      a.r[k] -= alpha * a.as[k];
      m = max_keeping_nan(m, std::abs(a.r[k]));
    }
    partial[j] = m;
  }
}

/// s = z + beta s.
void update_s_rows(const PcgArrays& a, double beta, int j0, int j1,
                   std::size_t i0) {
  const auto nx = static_cast<std::size_t>(a.nx);
  for (int j = j0; j < j1; ++j) {
    const std::size_t row = static_cast<std::size_t>(j) * nx;
    for (std::size_t k = row + i0; k < row + nx; ++k) {
      if (a.stencil[k] & kFluid) {
        a.s[k] = a.z[k] + beta * a.s[k];
      }
    }
  }
}

/// p = the guess on fluid cells (0 elsewhere) and r = b - A p, with the
/// rows' max |r| in partial. A p reads the guess itself, so the pass needs
/// no other row's p.
void residual_rows(const PcgArrays& a, const float* b, const float* guess,
                   int j0, int j1, std::size_t i0, double* partial) {
  const auto nx = static_cast<std::size_t>(a.nx);
  for (int j = j0; j < j1; ++j) {
    const std::size_t row = static_cast<std::size_t>(j) * nx;
    double m = i0 > 0 ? resume_max(a, row, i0, partial[j]) : 0.0;
    for (std::size_t k = row + i0; k < row + nx; ++k) {
      const std::uint8_t bits = a.stencil[k];
      if (!(bits & kFluid)) {
        a.p[k] = 0.0;
        continue;
      }
      a.p[k] = guess[k];
      a.r[k] = b[k] - apply_a_at(bits, a.diag[k], guess, k, nx);
      m = max_keeping_nan(m, std::abs(a.r[k]));
    }
    partial[j] = m;
  }
}

/// The AVX2 row passes when this build has them and this CPU runs them
/// (cpuid, tested once), else null: every row then runs on the scalar
/// passes above.
const PcgRowPasses* vector_passes() {
#if defined(__x86_64__) && !defined(SFN_FORCE_SCALAR_KERNELS)
  static const PcgRowPasses* const passes =
      __builtin_cpu_supports("avx2") ? detail::avx2_pcg_row_passes()
                                     : nullptr;
  return passes;
#else
  return nullptr;
#endif
}

/// Splits a row pass over rows [j0, j1): vector(v0, v1) runs the first
/// 4 * (nx / 4) columns of the interior rows [v0, v1) among them (the
/// vector passes' bounds), and scalar(ja, jb, i0) runs columns [i0, nx) of
/// everything else: those rows' last nx mod 4 columns (and their NaN row
/// maxima), and rows 0 and ny - 1 whole. Without vector passes, scalar
/// runs every row.
template <typename Vector, typename Scalar>
void split_rows(bool vector_rows, int nx, int ny, int j0, int j1,
                const Vector& vector, const Scalar& scalar) {
  const int cols = vector_rows ? nx / 4 * 4 : 0;
  const int v0 = std::max(j0, 1);
  const int v1 = std::min(j1, ny - 1);
  if (cols == 0 || v0 >= v1) {
    scalar(j0, j1, std::size_t{0});
    return;
  }
  scalar(j0, v0, std::size_t{0});
  vector(v0, v1);
  scalar(v0, v1, static_cast<std::size_t>(cols));
  scalar(v1, j1, std::size_t{0});
}

/// The stencil bits and A's diagonal of rows [j0, j1), from the cell
/// bytes; a position outside the grid counts as solid, as in
/// FlagGrid::is_solid. Also writes the preconditioner of those rows when
/// it is cell-local: 1/diag (Jacobi) or 0 (none).
void stencil_rows(const CellType* cells, int nx, int ny, int j0, int j1,
                  Preconditioner pre, std::uint8_t* stencil, double* diag,
                  double* precond) {
  const bool local = pre == Preconditioner::kNone ||
                     pre == Preconditioner::kJacobi;
  for (int j = j0; j < j1; ++j) {
    const std::size_t row = static_cast<std::size_t>(j) * nx;
    for (int i = 0; i < nx; ++i) {
      const std::size_t k = row + i;
      if (cells[k] != CellType::kFluid) {
        stencil[k] = 0;
        diag[k] = 0.0;
        if (local) {
          precond[k] = 0.0;
        }
        continue;
      }
      std::uint8_t bits = kFluid;
      int open = 0;
      const auto neighbour = [&](bool inside, std::size_t n,
                                 std::uint8_t bit) {
        if (inside) {
          bits |= cells[n] == CellType::kFluid ? bit : 0;
          open += is_solid_type(cells[n]) ? 0 : 1;
        }
      };
      neighbour(i + 1 < nx, k + 1, kEast);
      neighbour(i > 0, k - 1, kWest);
      neighbour(j + 1 < ny, k + nx, kNorth);
      neighbour(j > 0, k - nx, kSouth);
      stencil[k] = bits;
      const double d = open;
      diag[k] = d;
      if (pre == Preconditioner::kJacobi) {
        precond[k] = d > 0.0 ? 1.0 / d : 0.0;
      } else if (pre == Preconditioner::kNone) {
        precond[k] = 0.0;
      }
    }
  }
}

/// Flat views of the solver state one IC/MIC sweep or factor block
/// touches.
struct SweepData {
  std::size_t nx;
  const std::uint8_t* stencil;
  const double* diag;
  double* precond;
  const double* r;
  double* q;
  float* z;
  double tau;    ///< MIC(0) blend; 0 for IC(0).
  double sigma;  ///< Safety clamp of the modified diagonal.
};

/// The IC/MIC factor on rows [j0, j1) and columns [i0, i1), in ascending
/// order: precond stores 1/sqrt of the modified diagonal, 0 off fluid.
void factor_block(const SweepData& d, int j0, int j1, int i0, int i1) {
  for (int j = j0; j < j1; ++j) {
    const std::size_t row = static_cast<std::size_t>(j) * d.nx;
    for (int i = i0; i < i1; ++i) {
      const std::size_t k = row + i;
      const std::uint8_t bits = d.stencil[k];
      if (!(bits & kFluid)) {
        d.precond[k] = 0.0;
        continue;
      }
      const double adiag = d.diag[k];
      double e = adiag;
      if (bits & kWest) {
        const double px = d.precond[k - 1];  // -1 * px is the L entry.
        e -= px * px;
        if (d.tau > 0.0 && (d.stencil[k - 1] & kNorth)) {
          e -= d.tau * (px * px);
        }
      }
      if (bits & kSouth) {
        const double py = d.precond[k - d.nx];
        e -= py * py;
        if (d.tau > 0.0 && (d.stencil[k - d.nx] & kEast)) {
          e -= d.tau * (py * py);
        }
      }
      if (e < d.sigma * adiag) {
        e = adiag;  // Safety fallback keeps the factor positive definite.
      }
      d.precond[k] = e > 0.0 ? 1.0 / std::sqrt(e) : 0.0;
    }
  }
}

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

/// The row bands of the pipelined sweeps and factor build. Band b owns
/// rows [b*ny/bands, (b+1)*ny/bands) and runs them one column chunk at a
/// time; short rows also let consecutive rows' latency chains overlap, so
/// even a single band runs this way. Forward, cell (i, j) needs (i-1, j)
/// and (i, j-1): band b starts chunk c once band b-1 has published chunk
/// c. Backward mirrors it from the top band down and from the right.
///
/// Thread t of the team runs bands t, t + team, ... in pipeline order, so
/// a team smaller than `bands` (a nested region, say) still completes: the
/// lowest (highest, backward) unfinished band only ever waits on a
/// finished one. Threads beyond `bands` have no band. The counts grow
/// through the whole solve: a sweep starting at `base` publishes base + 1
/// .. base + chunks, so the handoffs are reset once, before the team
/// starts.
struct BandPipeline {
  int nx;
  int ny;
  int bands;
  int chunks;
  ChunkHandoff* handoff;

  [[nodiscard]] int row(int b) const { return b * ny / bands; }
  [[nodiscard]] int col(int c) const { return c * nx / chunks; }

  template <typename Block>
  void forward(int t, int team, std::uint64_t base, const Block& block) const {
    for (int b = t; b < bands; b += team) {
      for (int c = 0; c < chunks; ++c) {
        const std::uint64_t done = base + static_cast<std::uint64_t>(c) + 1;
        if (b > 0) {
          handoff[b - 1].wait_for(done);
        }
        block(row(b), row(b + 1), col(c), col(c + 1));
        handoff[b].publish(done);
      }
    }
  }

  /// Runs band_done(j0, j1) after each of its bands.
  template <typename Block, typename BandDone>
  void backward(int t, int team, std::uint64_t base, const Block& block,
                const BandDone& band_done) const {
    if (t >= bands) {
      return;
    }
    for (int b = t + (bands - 1 - t) / team * team; b >= 0; b -= team) {
      for (int c = chunks - 1; c >= 0; --c) {
        const std::uint64_t done =
            base + static_cast<std::uint64_t>(chunks - c);
        if (b + 1 < bands) {
          handoff[b + 1].wait_for(done);
        }
        block(row(b), row(b + 1), col(c), col(c + 1));
        handoff[b].publish(done);
      }
      band_done(row(b), row(b + 1));
    }
  }
};

}  // namespace

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

  // Every buffer is sized here, on the calling thread: the first solve at
  // a resolution allocates, later ones reuse (resize to the current size
  // allocates nothing). The team below allocates nothing.
  const bool rebuild = !stencil_valid_ || !(cached_flags_ == flags);
  if (rebuild) {
    cached_flags_ = flags;
    stencil_valid_ = true;
    precond_builds.add();
    stats.flops += cells * 12;
  }
  const std::size_t n = cells;
  stencil_.resize(n);
  diag_.resize(n);
  precond_.resize(n);
  p_.resize(n);
  r_.resize(n);
  s_.resize(n);
  as_.resize(n);
  q_.resize(n);
  z_.resize(n);
  row_dot_.resize(static_cast<std::size_t>(ny));
  row_max_.resize(static_cast<std::size_t>(ny));
  const int max_bands = std::max(1, omp_get_max_threads());
  if (handoffs_.size() < static_cast<std::size_t>(max_bands)) {
    handoffs_ = std::vector<ChunkHandoff>(static_cast<std::size_t>(max_bands));
  }
  for (ChunkHandoff& handoff : handoffs_) {
    handoff.reset();
  }

  const Preconditioner pre = params_.preconditioner;
  const bool ic = pre == Preconditioner::kIC0 || pre == Preconditioner::kMIC0;
  const PcgArrays a{nx,        ny,        stencil_.data(), diag_.data(),
                    p_.data(), r_.data(), s_.data(),       as_.data(),
                    z_.data()};
  const SweepData sweep{static_cast<std::size_t>(nx),
                        stencil_.data(),
                        diag_.data(),
                        precond_.data(),
                        r_.data(),
                        q_.data(),
                        z_.data(),
                        pre == Preconditioner::kMIC0 ? params_.mic_tau : 0.0,
                        params_.mic_sigma};
  const BandPipeline pipeline{
      nx, ny, std::clamp(ny / kMinBandRows, 1, max_bands),
      std::max(1, (nx + kChunkCols - 1) / kChunkCols), handoffs_.data()};
  const PcgRowPasses* const vec = vector_passes();
  const CellType* const cell_bytes = cached_flags_.cells();
  const float* const b = rhs.data().data();
  float* const out = pressure->data().data();
  double* const row_dot = row_dot_.data();
  double* const row_max = row_max_.data();
  const double* const precond = precond_.data();
  const double tolerance = params_.tolerance;
  const int max_iterations = params_.max_iterations;

  // What thread 0 reports once the team has joined.
  bool early = false;
  bool converged = false;
  int iter = 0;
  double residual = 0.0;

  // One team for the whole solve. Every flat pass gives thread t the same
  // rows [t*ny/team, (t+1)*ny/team); the sweeps and the factor build run
  // on the band pipeline. A barrier separates a pass from the next one
  // that reads another thread's rows. Every thread sums the row partials
  // itself, in the same fixed order, so all of them reach the same alpha,
  // beta and stop decisions with no broadcast. Dot products and residual
  // maxima go to separate partials, so a thread that has moved on to the
  // next pass never overwrites partials another thread is still summing.
  util::on_team([&](int t, int team) {
    const int j0 = t * ny / team;
    const int j1 = (t + 1) * ny / team;
    const auto sync = [&] { barrier_.arrive_and_wait(team); };
    std::uint64_t clock = 0;  // Pipeline count reached so far.
    const auto row_pass = [&](const auto& vector, const auto& scalar) {
      split_rows(vec != nullptr, nx, ny, j0, j1, vector, scalar);
    };

    if (rebuild) {
      stencil_rows(cell_bytes, nx, ny, j0, j1, pre, stencil_.data(),
                   diag_.data(), precond_.data());
      if (ic) {
        sync();
        pipeline.forward(t, team, clock,
                         [&](int r0, int r1, int c0, int c1) {
                           factor_block(sweep, r0, r1, c0, c1);
                         });
        clock += static_cast<std::uint64_t>(pipeline.chunks);
      }
    }

    // z = M^-1 r on the whole grid; returns z.r, the same on every thread.
    const auto precondition = [&]() {
      if (ic) {
        pipeline.forward(t, team, clock, [&](int r0, int r1, int c0, int c1) {
          forward_block(sweep, r0, r1, c0, c1);
        });
        clock += static_cast<std::uint64_t>(pipeline.chunks);
        pipeline.backward(
            t, team, clock,
            [&](int r0, int r1, int c0, int c1) {
              backward_block(sweep, r0, r1, c0, c1);
            },
            [&](int r0, int r1) {
              row_dots(a.stencil, a.nx, r0, r1, 0, row_dot,
                       [&](std::size_t k) {
                         return static_cast<double>(a.z[k]) * a.r[k];
                       });
            });
        clock += static_cast<std::uint64_t>(pipeline.chunks);
      } else {
        const bool jacobi = pre == Preconditioner::kJacobi;
        for (std::size_t k = static_cast<std::size_t>(j0) * nx;
             k < static_cast<std::size_t>(j1) * nx; ++k) {
          if (a.stencil[k] & kFluid) {
            const float rf = static_cast<float>(a.r[k]);
            a.z[k] = jacobi ? static_cast<float>(rf * precond[k]) : rf;
          }
        }
        row_dots(a.stencil, a.nx, j0, j1, 0, row_dot, [&](std::size_t k) {
          return static_cast<double>(a.z[k]) * a.r[k];
        });
      }
      sync();
      return sum_rows(row_dot, ny);
    };

    // r = b - A p0 with the caller's pressure as the initial guess.
    row_pass(
        [&](int v0, int v1) { vec->residual(a, b, out, v0, v1, row_max); },
        [&](int r0, int r1, std::size_t i0) {
          residual_rows(a, b, out, r0, r1, i0, row_max);
        });
    sync();
    double res = max_rows(row_max, ny);
    if (res <= tolerance) {
      if (t == 0) {
        early = true;
        residual = res;
      }
      return;
    }

    double sigma = precondition();
    for (std::size_t k = static_cast<std::size_t>(j0) * nx;
         k < static_cast<std::size_t>(j1) * nx; ++k) {
      if (a.stencil[k] & kFluid) {
        a.s[k] = a.z[k];
      }
    }

    int it = 0;
    bool done = false;
    for (; it < max_iterations; ++it) {
      sync();
      // as = A s, fused with the dot product s.as.
      row_pass(
          [&](int v0, int v1) { vec->apply_a(a, v0, v1, row_dot); },
          [&](int r0, int r1, std::size_t i0) {
            apply_a_rows(a, r0, r1, i0, row_dot);
          });
      sync();
      const double s_as = sum_rows(row_dot, ny);
      if (s_as == 0.0) {
        break;
      }
      const double alpha = sigma / s_as;
      row_pass(
          [&](int v0, int v1) { vec->update_pr(a, alpha, v0, v1, row_max); },
          [&](int r0, int r1, std::size_t i0) {
            update_pr_rows(a, alpha, r0, r1, i0, row_max);
          });
      sync();
      res = max_rows(row_max, ny);
      if (res <= tolerance) {
        ++it;
        done = true;
        break;
      }
      if (std::isnan(res)) {
        ++it;
        break;
      }
      const double sigma_new = precondition();
      const double beta = sigma_new / sigma;
      sigma = sigma_new;
      row_pass([&](int v0, int v1) { vec->update_s(a, beta, v0, v1); },
               [&](int r0, int r1, std::size_t i0) {
                 update_s_rows(a, beta, r0, r1, i0);
               });
    }

    // Each thread writes back the rows whose p it updated.
    for (std::size_t k = static_cast<std::size_t>(j0) * nx;
         k < static_cast<std::size_t>(j1) * nx; ++k) {
      out[k] = (a.stencil[k] & kFluid) ? static_cast<float>(a.p[k]) : 0.0f;
    }
    if (t == 0) {
      converged = done;
      iter = it;
      residual = res;
    }
  });

  if (early) {
    stats.converged = true;
    stats.residual = residual;
    stats.seconds = timer.seconds();
    residuals.observe(residual);
    return stats;
  }

  SFN_CHECK_FINITE(pressure->data().data(), pressure->size(),
                   "PcgSolver::solve pressure result");

  stats.converged = converged;
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
