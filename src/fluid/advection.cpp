#include "fluid/advection.hpp"

#include "fluid/advection_avx2.hpp"
#include "util/check.hpp"
#include "util/team.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

namespace sfn::fluid {

namespace {

/// Samples per stage of a row chunk (see Backtrace::chunk).
constexpr int kChunk = 64;

/// Bilinear reads from one sample lattice, bit-identical to
/// Grid2::interpolate, with one border test per read instead of a clamp.
class Lattice {
 public:
  explicit Lattice(const GridF& grid)
      : grid_(&grid),
        data_(grid.data().data()),
        nx_(grid.nx()),
        ny_(grid.ny()),
        x_end_(grid.nx() - 1),
        y_end_(grid.ny() - 1) {}

  /// Grid2::interpolate(x, y). For 0 <= x < nx-1 and 0 <= y < ny-1 (false
  /// for NaN) its clamps are identities, floor is the truncating cast and
  /// both neighbours exist; the expressions below are its own, in the same
  /// operand order. Every other position (borders, outside the grid, NaN,
  /// ±inf) goes through interpolate itself, so floor_cell still guards
  /// exactly the inputs that need it.
  [[nodiscard]] float at(double x, double y) const {
    if (inside(x, y)) {
      const int i0 = static_cast<int>(x);  // sfn-lint: safe-cast (0 <= x < nx-1)
      const int j0 = static_cast<int>(y);  // sfn-lint: safe-cast (0 <= y < ny-1)
      const double fx = x - i0;
      const double fy = y - j0;
      const float* r0 = row(j0) + i0;
      const float* r1 = r0 + nx_;
      const double v00 = r0[0];
      const double v10 = r0[1];
      const double v01 = r1[0];
      const double v11 = r1[1];
      const double v0 = v00 + fx * (v10 - v00);
      const double v1 = v01 + fx * (v11 - v01);
      return static_cast<float>(v0 + fy * (v1 - v0));
    }
    return grid_->interpolate(x, y);
  }

  /// Clamp a MacCormack-corrected value to the extrema of the bilinear
  /// stencil around (x, y), which restores unconditional stability. The
  /// extrema are taken in the order (i0, j0), (i0, j1), (i1, j0),
  /// (i1, j1), which decides the result for NaN and signed zeros.
  [[nodiscard]] float clamp_to_stencil(double x, double y, float value) const {
    int i0 = 0;
    int j0 = 0;
    if (inside(x, y)) {
      i0 = static_cast<int>(x);  // sfn-lint: safe-cast (0 <= x < nx-1)
      j0 = static_cast<int>(y);  // sfn-lint: safe-cast (0 <= y < ny-1)
    } else {
      // A NaN or huge backtraced position (bad surrogate velocity) must
      // degrade to a border stencil, not undefined behaviour.
      i0 = floor_cell(x, 0, nx_ - 1);
      j0 = floor_cell(y, 0, ny_ - 1);
    }
    const int i1 = std::min(i0 + 1, nx_ - 1);
    const int j1 = std::min(j0 + 1, ny_ - 1);
    const float* r0 = row(j0);
    const float* r1 = row(j1);
    float lo = r0[i0];
    float hi = lo;
    for (const float s : {r0[i0], r1[i0], r0[i1], r1[i1]}) {
      lo = std::min(lo, s);
      hi = std::max(hi, s);
    }
    return std::clamp(value, lo, hi);
  }

  /// The lattice as the vector rows read it (advection_avx2.hpp).
  [[nodiscard]] detail::Plane plane() const { return {data_, nx_, ny_}; }

 private:
  [[nodiscard]] bool inside(double x, double y) const {
    return x >= 0.0 && x < x_end_ && y >= 0.0 && y < y_end_;
  }

  [[nodiscard]] const float* row(int j) const {
    return data_ + static_cast<std::size_t>(j) * nx_;
  }

  const GridF* grid_;
  const float* data_;
  int nx_;
  int ny_;
  double x_end_;
  double y_end_;
};

/// RK2 (midpoint) backtrace through a MAC velocity field, in cell space
/// where (i + 0.5, j + 0.5) is the centre of cell (i, j). World velocities
/// times `cells_per_unit` (= nx, the domain is one unit wide) are cells
/// per time unit, so a problem advects alike at any resolution.
class Backtrace {
 public:
  Backtrace(const MacGrid2& vel, double dt)
      : u_(vel.u()),
        v_(vel.v()),
        dt_(dt),
        cells_per_unit_(static_cast<double>(vel.nx())) {}

  /// Source positions of samples [i0, i0 + n) of the row at height y,
  /// sample i sitting at x = i + ox. Stage-split: every midpoint, then
  /// every end point, so neighbouring samples' dependent load chains
  /// overlap. The expressions and their operand order are part of the
  /// result's bits: u1 and u2 are MacGrid2::sample's values, rounded to
  /// float, and the steps are x - 0.5 dt u1 c and x - dt u2 c.
  void chunk(int i0, int n, double ox, double y, double* sx,
             double* sy) const {
    double mx[kChunk];
    double my[kChunk];
    for (int k = 0; k < n; ++k) {
      const double x = (i0 + k) + ox;
      // u samples live at (i, j + 0.5), v samples at (i + 0.5, j).
      const float u1 = u_.at(x, y - 0.5);
      const float v1 = v_.at(x - 0.5, y);
      mx[k] = x - 0.5 * dt_ * u1 * cells_per_unit_;
      my[k] = y - 0.5 * dt_ * v1 * cells_per_unit_;
    }
    for (int k = 0; k < n; ++k) {
      const double x = (i0 + k) + ox;
      const float u2 = u_.at(mx[k], my[k] - 0.5);
      const float v2 = v_.at(mx[k] - 0.5, my[k]);
      sx[k] = x - dt_ * u2 * cells_per_unit_;
      sy[k] = y - dt_ * v2 * cells_per_unit_;
    }
  }

  /// The same backtrace, reading `from` at the end points, for the vector
  /// rows (advection_avx2.hpp).
  [[nodiscard]] detail::SemiLagrangianRow row(const Lattice& from, double ox,
                                              double oy) const {
    return {u_.plane(), v_.plane(), from.plane(), dt_, cells_per_unit_, ox,
            oy};
  }

 private:
  Lattice u_;
  Lattice v_;
  double dt_;
  double cells_per_unit_;
};

/// The AVX2 rows when this build has them and this CPU runs them (cpuid,
/// tested once), else null: every row then runs on the scalar path.
detail::SemiLagrangianGroups vector_groups() {
#if defined(__x86_64__) && !defined(SFN_FORCE_SCALAR_KERNELS)
  static const detail::SemiLagrangianGroups groups =
      __builtin_cpu_supports("avx2") ? detail::avx2_semi_lagrangian_groups()
                                     : nullptr;
  return groups;
#else
  return nullptr;
#endif
}

/// Semi-Lagrangian row j: out = `from` read at each sample's backtraced
/// position, the sample (i, j) sitting at (i + ox, j + oy). With `vec`,
/// groups of four samples run on the vector rows, and the groups they
/// leave (a read at a border, or at a non-finite or far position) and the
/// row's last n mod 4 samples run on Backtrace::chunk and Lattice::at, the
/// path that gives every sample its bits.
void semi_lagrangian_row(const Backtrace& bt, detail::SemiLagrangianGroups vec,
                         const GridF& from, double ox, double oy, int j,
                         float* out) {
  const Lattice lattice(from);
  const int n = from.nx();
  const double y = j + oy;
  const auto scalar = [&](int i0, int m) {
    double sx[kChunk];
    double sy[kChunk];
    bt.chunk(i0, m, ox, y, sx, sy);
    for (int k = 0; k < m; ++k) {
      out[i0 + k] = lattice.at(sx[k] - ox, sy[k] - oy);
    }
  };
  static_assert(kChunk == 4 * detail::kMaxGroups);
  const detail::SemiLagrangianRow row = bt.row(lattice, ox, oy);
  for (int i0 = 0; i0 < n; i0 += kChunk) {
    const int m = std::min(kChunk, n - i0);
    if (vec == nullptr) {
      scalar(i0, m);
      continue;
    }
    const int groups = m / 4;
    for (std::uint32_t left = vec(row, y, i0, groups, out); left != 0;
         left &= left - 1) {
      scalar(i0 + 4 * std::countr_zero(left), 4);
    }
    if (m % 4 != 0) {
      scalar(i0 + 4 * groups, m % 4);
    }
  }
}

/// emit(i, sx, sy) for every sample i of row j of an `n`-sample-wide
/// lattice whose sample (i, j) sits at (i + ox, j + oy), with (sx, sy) its
/// backtraced position; processed in chunks of kChunk samples.
template <typename Emit>
void trace_row(const Backtrace& bt, int n, int j, double ox, double oy,
               const Emit& emit) {
  const double y = j + oy;
  double sx[kChunk];
  double sy[kChunk];
  for (int i0 = 0; i0 < n; i0 += kChunk) {
    const int m = std::min(kChunk, n - i0);
    bt.chunk(i0, m, ox, y, sx, sy);
    for (int k = 0; k < m; ++k) {
      emit(i0 + k, sx[k], sy[k]);
    }
  }
}

/// MacCormack's two intermediate fields for one lattice shape. Kept per
/// thread (like fluid/reduce.hpp's partials), so a steady-state step
/// allocates only when the shape changes.
struct McScratch {
  GridF forward;
  GridF back;

  void fit(int nx, int ny) {
    if (forward.nx() != nx || forward.ny() != ny) {
      forward = GridF(nx, ny);
      back = GridF(nx, ny);
    }
  }
};

/// One advected field. Sample (i, j) sits at (i + ox, j + oy) in cell
/// space. A face field's sample (i, j) lies between cells (i - di, j - dj)
/// and (i, j); di = dj = 0 marks a cell-centred field. `mc` is null unless
/// the scheme is MacCormack.
struct Field {
  const GridF* src;
  GridF* dst;
  double ox;
  double oy;
  int di;
  int dj;
  McScratch* mc;
};

template <typename Grid>
auto* row_of(Grid& grid, int j) {
  return grid.data().data() + static_cast<std::size_t>(j) * grid.nx();
}

/// The solid hold on row j of `f`'s output: a solid (or inflow) cell keeps
/// its source value and a face touching one is zero, cells outside the
/// grid counting as solid (FlagGrid::is_solid and
/// MacGrid2::enforce_solid_boundaries).
void hold_row(const FlagGrid& flags, const Field& f, int j, float* out) {
  const int nx = flags.nx();
  const int ny = flags.ny();
  const CellType* cells = flags.cells();
  // FlagGrid::is_solid on the flat cell array.
  const auto is_solid = [&](int i, int jj) {
    if (i < 0 || i >= nx || jj < 0 || jj >= ny) {
      return true;
    }
    return is_solid_type(cells[static_cast<std::size_t>(jj) * nx + i]);
  };
  const bool faces = f.di != 0 || f.dj != 0;
  const float* src = row_of(*f.src, j);
  for (int i = 0; i < f.dst->nx(); ++i) {
    if (is_solid(i, j) || (faces && is_solid(i - f.di, j - f.dj))) {
      out[i] = faces ? 0.0f : src[i];
    }
  }
}

/// Advects every field through `vel`, the rows of all fields sharing one
/// parallel region per pass. Each output sample is written by one thread
/// from read-only inputs, so the bits do not depend on the team size.
void advect_fields(const MacGrid2& vel, const FlagGrid& flags, double dt,
                   std::span<const Field> fields, AdvectionScheme scheme) {
  int rows = 0;
  for (const Field& f : fields) {
    rows += f.dst->ny();
  }
  const auto each_row = [&](const auto& body) {
    util::for_rows(rows, [&](int r) {
      for (const Field& f : fields) {
        if (r < f.dst->ny()) {
          body(f, r);
          return;
        }
        r -= f.dst->ny();
      }
    });
  };
  // The vector rows index every lattice with 32-bit float offsets.
  SFN_CHECK(static_cast<std::size_t>(vel.nx() + 1) * (vel.ny() + 1) <=
                static_cast<std::size_t>(std::numeric_limits<int>::max()),
            "advect: grid too large for 32-bit lattice offsets");
  const detail::SemiLagrangianGroups vec = vector_groups();
  const Backtrace forward(vel, dt);
  if (scheme != AdvectionScheme::kMacCormack) {
    each_row([&](const Field& f, int j) {
      float* out = row_of(*f.dst, j);
      semi_lagrangian_row(forward, vec, *f.src, f.ox, f.oy, j, out);
      hold_row(flags, f, j, out);
    });
    return;
  }
  // MacCormack: a forward and a backward semi-Lagrangian pass, then the
  // corrected value clamped to the forward sample's stencil.
  const Backtrace backward(vel, -dt);
  each_row([&](const Field& f, int j) {
    semi_lagrangian_row(forward, vec, *f.src, f.ox, f.oy, j,
                        row_of(f.mc->forward, j));
  });
  each_row([&](const Field& f, int j) {
    semi_lagrangian_row(backward, vec, f.mc->forward, f.ox, f.oy, j,
                        row_of(f.mc->back, j));
  });
  each_row([&](const Field& f, int j) {
    const Lattice src(*f.src);
    const float* s = row_of(*f.src, j);
    const float* fw = row_of(f.mc->forward, j);
    const float* bk = row_of(f.mc->back, j);
    float* out = row_of(*f.dst, j);
    trace_row(forward, f.src->nx(), j, f.ox, f.oy,
              [&](int i, double sx, double sy) {
                const float corrected = fw[i] + 0.5f * (s[i] - bk[i]);
                out[i] = src.clamp_to_stencil(sx - f.ox, sy - f.oy, corrected);
              });
    hold_row(flags, f, j, out);
  });
}

}  // namespace

void advect_scalar(const MacGrid2& vel, const FlagGrid& flags, double dt,
                   const GridF& src, GridF* dst, AdvectionScheme scheme) {
  // Solver-boundary invariant (opt-in): the projection sanitises surrogate
  // output and the simulator clamps velocities, so non-finite inputs here
  // mean an upstream stage skipped its sanitisation — diagnose at once.
  SFN_CHECK_FINITE(vel.u().data().data(), vel.u().size(),
                   "advect_scalar velocity u");
  SFN_CHECK_FINITE(vel.v().data().data(), vel.v().size(),
                   "advect_scalar velocity v");
  SFN_CHECK_FINITE(src.data().data(), src.size(), "advect_scalar source");
  // The row loops read and write through flat pointers.
  SFN_CHECK(vel.nx() == flags.nx() && vel.ny() == flags.ny() &&
                src.nx() == flags.nx() && src.ny() == flags.ny(),
            "advect_scalar: velocity/source shape differs from the flag grid");
  SFN_CHECK(dst->nx() == src.nx() && dst->ny() == src.ny(),
            "advect_scalar: destination shape differs from the source");
  thread_local McScratch scratch;
  McScratch* mc = nullptr;
  if (scheme == AdvectionScheme::kMacCormack) {
    scratch.fit(src.nx(), src.ny());
    mc = &scratch;
  }
  const Field field{&src, dst, 0.5, 0.5, 0, 0, mc};
  advect_fields(vel, flags, dt, {&field, 1}, scheme);
}

void advect_velocity(const MacGrid2& vel, const FlagGrid& flags, double dt,
                     MacGrid2* dst, AdvectionScheme scheme) {
  SFN_CHECK_FINITE(vel.u().data().data(), vel.u().size(),
                   "advect_velocity velocity u");
  SFN_CHECK_FINITE(vel.v().data().data(), vel.v().size(),
                   "advect_velocity velocity v");
  SFN_CHECK(vel.nx() == flags.nx() && vel.ny() == flags.ny(),
            "advect_velocity: velocity shape differs from the flag grid");
  SFN_CHECK(dst->nx() == vel.nx() && dst->ny() == vel.ny(),
            "advect_velocity: destination shape differs from the velocity");
  thread_local McScratch u_scratch;
  thread_local McScratch v_scratch;
  McScratch* u_mc = nullptr;
  McScratch* v_mc = nullptr;
  if (scheme == AdvectionScheme::kMacCormack) {
    u_scratch.fit(vel.u().nx(), vel.u().ny());
    v_scratch.fit(vel.v().nx(), vel.v().ny());
    u_mc = &u_scratch;
    v_mc = &v_scratch;
  }
  // u faces sit at (i, j + 0.5) in cell space, v faces at (i + 0.5, j).
  const Field fields[] = {
      {&vel.u(), &dst->u(), 0.0, 0.5, 1, 0, u_mc},
      {&vel.v(), &dst->v(), 0.5, 0.0, 0, 1, v_mc},
  };
  advect_fields(vel, flags, dt, fields, scheme);
}

}  // namespace sfn::fluid
