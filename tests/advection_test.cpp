#include "advection_reference.hpp"
#include "fluid/advection.hpp"
#include "fluid/pcg.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "workload/problems.hpp"
#include "workload/scenes.hpp"

#include <gtest/gtest.h>
#include <omp.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

namespace sfn {
namespace {

using fluid::AdvectionScheme;
using fluid::CellType;
using fluid::FlagGrid;
using fluid::GridF;
using fluid::MacGrid2;

FlagGrid open_box(int n) {
  FlagGrid flags(n, n, CellType::kFluid);
  flags.set_smoke_box_boundary();
  return flags;
}

class AdvectionSchemes : public ::testing::TestWithParam<AdvectionScheme> {};

TEST_P(AdvectionSchemes, ConstantFieldIsInvariant) {
  const int n = 16;
  const FlagGrid flags = open_box(n);
  MacGrid2 vel(n, n);
  vel.fill(0.4f, -0.2f);
  GridF src(n, n, 3.0f);
  GridF dst(n, n, 0.0f);
  fluid::advect_scalar(vel, flags, 0.05, src, &dst, GetParam());
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      EXPECT_NEAR(dst(i, j), 3.0f, 1e-5f);
    }
  }
}

TEST_P(AdvectionSchemes, ZeroVelocityIsIdentityInFluid) {
  const int n = 12;
  const FlagGrid flags = open_box(n);
  const MacGrid2 vel(n, n);
  GridF src(n, n, 0.0f);
  util::Rng rng(4);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      src(i, j) = static_cast<float>(rng.uniform());
    }
  }
  GridF dst(n, n, 0.0f);
  fluid::advect_scalar(vel, flags, 0.1, src, &dst, GetParam());
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      EXPECT_NEAR(dst(i, j), src(i, j), 1e-6f) << i << "," << j;
    }
  }
}

TEST_P(AdvectionSchemes, TransportsBlobDownstream) {
  const int n = 32;
  const FlagGrid flags = open_box(n);
  MacGrid2 vel(n, n);
  vel.fill(0.5f, 0.0f);  // Rightward, world units.
  GridF src(n, n, 0.0f);
  src(8, 16) = 1.0f;
  GridF dst(n, n, 0.0f);
  // dt chosen so the blob moves exactly 4 cells: dx = 1/32, so
  // displacement = 0.5 * dt * 32 cells = 4 => dt = 0.25.
  fluid::advect_scalar(vel, flags, 0.25, src, &dst, GetParam());
  EXPECT_GT(dst(12, 16), 0.5f);
  EXPECT_LT(dst(8, 16), 0.5f);
}

TEST_P(AdvectionSchemes, MaintainsBoundsOnRandomField) {
  // Semi-Lagrangian and clamped MacCormack are both monotonicity-safe:
  // no new extrema beyond the source range.
  const int n = 24;
  const FlagGrid flags = open_box(n);
  MacGrid2 vel(n, n);
  util::Rng rng(9);
  for (std::size_t k = 0; k < vel.u().size(); ++k) {
    vel.u()[k] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  for (std::size_t k = 0; k < vel.v().size(); ++k) {
    vel.v()[k] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  GridF src(n, n, 0.0f);
  for (std::size_t k = 0; k < src.size(); ++k) {
    src[k] = static_cast<float>(rng.uniform(0.0, 1.0));
  }
  GridF dst(n, n, 0.0f);
  fluid::advect_scalar(vel, flags, 0.05, src, &dst, GetParam());
  for (std::size_t k = 0; k < dst.size(); ++k) {
    EXPECT_GE(dst[k], 0.0f - 1e-6f);
    EXPECT_LE(dst[k], 1.0f + 1e-6f);
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, AdvectionSchemes,
                         ::testing::Values(AdvectionScheme::kSemiLagrangian,
                                           AdvectionScheme::kMacCormack));

TEST(Advection, MacCormackSharperThanSemiLagrangian) {
  // Advect a smooth bump for several steps; MacCormack's second-order
  // correction must preserve more of the peak.
  const int n = 48;
  const FlagGrid flags = open_box(n);
  MacGrid2 vel(n, n);
  vel.fill(0.4f, 0.0f);

  auto make_bump = [&] {
    GridF g(n, n, 0.0f);
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        const double dx = (i - 12) / 3.0;
        const double dy = (j - 24) / 3.0;
        g(i, j) = static_cast<float>(std::exp(-(dx * dx + dy * dy)));
      }
    }
    return g;
  };

  GridF sl = make_bump();
  GridF mc = make_bump();
  GridF tmp(n, n, 0.0f);
  for (int step = 0; step < 10; ++step) {
    fluid::advect_scalar(vel, flags, 0.02, sl, &tmp,
                         AdvectionScheme::kSemiLagrangian);
    std::swap(sl, tmp);
    fluid::advect_scalar(vel, flags, 0.02, mc, &tmp,
                         AdvectionScheme::kMacCormack);
    std::swap(mc, tmp);
  }
  EXPECT_GT(mc.max_abs(), sl.max_abs());
}

TEST(Advection, VelocitySelfAdvectionKeepsSolidFacesPinned) {
  const int n = 16;
  FlagGrid flags = open_box(n);
  flags.set(8, 8, CellType::kSolid);
  MacGrid2 vel(n, n);
  vel.fill(0.5f, 0.3f);
  vel.enforce_solid_boundaries(flags);
  MacGrid2 out(n, n);
  fluid::advect_velocity(vel, flags, 0.05, &out);
  EXPECT_FLOAT_EQ(out.u()(8, 8), 0.0f);
  EXPECT_FLOAT_EQ(out.u()(9, 8), 0.0f);
  EXPECT_FLOAT_EQ(out.v()(8, 8), 0.0f);
  EXPECT_FLOAT_EQ(out.v()(8, 9), 0.0f);
}

TEST(Advection, NanVelocityDoesNotInvokeUndefinedBehaviour) {
  // Regression: the semi-Lagrangian/MacCormack backtrace used to cast the
  // backtraced coordinate straight to int. With a NaN velocity (diverged
  // surrogate) that cast is undefined behaviour; clamp_coord/floor_cell now
  // pin NaN to the grid's low edge before the cast. Under UBSan this test
  // is the gate; in default builds it asserts the output stays finite, and
  // with -DSFN_CHECK_NUMERICS=ON the entry check rejects the field instead.
  const int n = 16;
  const FlagGrid flags = open_box(n);
  const float nan_f = std::numeric_limits<float>::quiet_NaN();
  GridF src(n, n, 0.5f);

  for (const auto scheme : {AdvectionScheme::kSemiLagrangian,
                            AdvectionScheme::kMacCormack}) {
    SCOPED_TRACE(static_cast<int>(scheme));
    MacGrid2 vel(n, n);
    vel.fill(0.25f, -0.25f);
    vel.u()(7, 7) = nan_f;  // One poisoned face is enough to hit the cast.
    vel.v()(3, 9) = -std::numeric_limits<float>::infinity();
    GridF dst(n, n, 0.0f);
#ifdef SFN_CHECK_NUMERICS
    EXPECT_THROW(fluid::advect_scalar(vel, flags, 0.1, src, &dst, scheme),
                 util::CheckError);
#else
    fluid::advect_scalar(vel, flags, 0.1, src, &dst, scheme);
    for (std::size_t k = 0; k < dst.size(); ++k) {
      EXPECT_TRUE(std::isfinite(dst[k])) << "cell " << k;
    }
#endif
  }
}

TEST(Advection, NanVelocitySelfAdvectionIsDefined) {
  const int n = 12;
  const FlagGrid flags = open_box(n);
  MacGrid2 vel(n, n);
  vel.fill(0.1f, 0.1f);
  vel.u()(5, 5) = std::numeric_limits<float>::quiet_NaN();
  MacGrid2 out(n, n);
#ifdef SFN_CHECK_NUMERICS
  EXPECT_THROW(fluid::advect_velocity(vel, flags, 0.05, &out),
               util::CheckError);
#else
  // Must complete without UB (sanitizer builds verify); NaN may propagate
  // to cells whose backtrace sampled the poisoned face, but every lookup
  // stays in bounds.
  fluid::advect_velocity(vel, flags, 0.05, &out);
#endif
}

TEST(Advection, ResolutionIndependentDisplacement) {
  // The same world-space problem at two resolutions moves the blob to the
  // same world position.
  for (const int n : {16, 32}) {
    const FlagGrid flags = open_box(n);
    MacGrid2 vel(n, n);
    vel.fill(0.5f, 0.0f);
    GridF src(n, n, 0.0f);
    // Blob at world x = 0.25.
    src(n / 4, n / 2) = 1.0f;
    GridF dst(n, n, 0.0f);
    fluid::advect_scalar(vel, flags, 0.25, src, &dst);
    // Expect peak near world x = 0.375 -> cell 3n/8.
    int peak_i = 0;
    float peak = -1.0f;
    for (int i = 0; i < n; ++i) {
      if (dst(i, n / 2) > peak) {
        peak = dst(i, n / 2);
        peak_i = i;
      }
    }
    EXPECT_NEAR(static_cast<double>(peak_i) / n, 0.375, 1.5 / n) << "n=" << n;
  }
}

// ---------------------------------------------------------------------------
// Bit-identity of the flat advection against the original, kept as a test
// oracle (advection_reference.hpp), across OpenMP team sizes.

bool same_bits(const GridF& a, const GridF& b) {
  return a.nx() == b.nx() && a.ny() == b.ny() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(float)) == 0;
}

/// same_bits, except that any two NaNs match. Which NaN an operation on
/// two NaNs returns depends on the order the compiler puts the operands of
/// a commutative + or * in, which C++ leaves open; so the sign and payload
/// of a NaN differ between translation units even for identical source
/// (the oracle is compiled into this test). Every other value, -0.0
/// included, must still match bit for bit, and NaNs must sit at the same
/// samples.
bool same_bits_or_nan(const GridF& a, const GridF& b) {
  if (a.nx() != b.nx() || a.ny() != b.ny()) {
    return false;
  }
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (std::isnan(a[k]) && std::isnan(b[k])) {
      continue;
    }
    if (std::memcmp(&a[k], &b[k], sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

/// Random mix of all four cell types (the border included), crossed by
/// 1-cell fluid channels between solid walls, one ending in an empty cell
/// and one in an inflow cell.
FlagGrid random_flags(int nx, int ny, std::uint64_t seed) {
  util::Rng rng(seed);
  FlagGrid flags(nx, ny, CellType::kFluid);
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      const double u = rng.uniform(0.0, 1.0);
      if (u < 0.12) {
        flags.set(i, j, CellType::kSolid);
      } else if (u < 0.16) {
        flags.set(i, j, CellType::kEmpty);
      } else if (u < 0.20) {
        flags.set(i, j, CellType::kInflow);
      }
    }
  }
  auto set_if_inside = [&](int i, int j, CellType t) {
    if (i >= 0 && i < nx && j >= 0 && j < ny) flags.set(i, j, t);
  };
  const int cj = ny / 2;
  for (int i = 0; i < nx; ++i) {
    set_if_inside(i, cj - 1, CellType::kSolid);
    set_if_inside(i, cj, CellType::kFluid);
    set_if_inside(i, cj + 1, CellType::kSolid);
  }
  set_if_inside(nx - 1, cj, CellType::kEmpty);
  const int ci = nx / 3;
  for (int j = 0; j < ny; ++j) {
    set_if_inside(ci - 1, j, CellType::kSolid);
    set_if_inside(ci, j, CellType::kFluid);
    set_if_inside(ci + 1, j, CellType::kSolid);
  }
  set_if_inside(ci, ny - 1, CellType::kInflow);
  return flags;
}

void fill_random(GridF* g, util::Rng* rng, double lo, double hi) {
  for (std::size_t k = 0; k < g->size(); ++k) {
    (*g)[k] = static_cast<float>(rng->uniform(lo, hi));
  }
}

/// A velocity field and the time step to advect with.
struct VelocityCase {
  std::string name;
  MacGrid2 vel;
  double dt;
  bool has_nan = false;  ///< NaN/±inf faces: compare with same_bits_or_nan.
};

/// Fields whose backtraces stay inside, reach and cross every border, land
/// on exact lattice and border positions, carry -0.0, send single samples
/// far outside from the middle of groups that otherwise stay inside, and
/// (unless the numerics checks would reject them first) carry NaN and ±inf
/// faces. Velocities are in world units, so `cells` cells per step is
/// cells / (dt * nx).
std::vector<VelocityCase> velocity_cases(int nx, int ny, std::uint64_t seed) {
  util::Rng rng(seed);
  const double dt = 0.05;
  const double cell = 1.0 / (dt * nx);  // One cell per step.
  std::vector<VelocityCase> cases;
  cases.reserve(16);  // add() hands out references into the vector.
  const auto add = [&](std::string name, double step) -> MacGrid2& {
    cases.push_back({std::move(name), MacGrid2(nx, ny), step, false});
    return cases.back().vel;
  };
  MacGrid2& inside = add("inside", dt);
  fill_random(&inside.u(), &rng, -0.4 * cell, 0.4 * cell);
  fill_random(&inside.v(), &rng, -0.4 * cell, 0.4 * cell);
  MacGrid2& wild = add("wild", dt);
  fill_random(&wild.u(), &rng, -3.0 * cell, 3.0 * cell);
  fill_random(&wild.v(), &rng, -3.0 * cell, 3.0 * cell);
  // Uniform drift of 2.5 cells towards each border, so backtraces leave
  // through the opposite one, with a little noise across the drift.
  for (const auto& [name, du, dv] :
       {std::tuple{"drift+x", 2.5, 0.0}, std::tuple{"drift-x", -2.5, 0.0},
        std::tuple{"drift+y", 0.0, 2.5}, std::tuple{"drift-y", 0.0, -2.5}}) {
    MacGrid2& drift = add(name, dt);
    fill_random(&drift.u(), &rng, (du - 0.2) * cell, (du + 0.2) * cell);
    fill_random(&drift.v(), &rng, (dv - 0.2) * cell, (dv + 0.2) * cell);
  }
  // Zero velocity: every read lands on a lattice point, the last row and
  // column on the border itself. -0.0 faces too.
  add("zero", dt);
  MacGrid2& negative_zero = add("-0.0", dt);
  negative_zero.fill(-0.0f, -0.0f);
  // Whole-cell displacements: dt * u * nx = 1 and 2 exactly, so the
  // end points sit on lattice points and on the border.
  MacGrid2& whole = add("whole-cells", 1.0 / nx);
  for (std::size_t k = 0; k < whole.u().size(); ++k) {
    whole.u()[k] = (k % 3 == 0) ? 1.0f : (k % 3 == 1 ? -2.0f : -0.0f);
  }
  for (std::size_t k = 0; k < whole.v().size(); ++k) {
    whole.v()[k] = (k % 2 == 0) ? 2.0f : -1.0f;
  }
  // Finite but huge faces among small ones: a sample whose reads touch one
  // backtraces some 1e29 to 1e40 cells away while its neighbours in the
  // row stay inside, so the vector rows see groups with a single far lane
  // (at any stage) and must leave the whole group to the scalar path
  // without reading at that lane's index.
  MacGrid2& huge = add("huge", dt);
  fill_random(&huge.u(), &rng, -0.4 * cell, 0.4 * cell);
  fill_random(&huge.v(), &rng, -0.4 * cell, 0.4 * cell);
  const float giants[] = {1e30f, -1e30f, 3e38f, -3e38f};
  for (std::size_t k = 5; k < huge.u().size(); k += 13) {
    huge.u()[k] = giants[k % 4];
  }
  for (std::size_t k = 2; k < huge.v().size(); k += 17) {
    huge.v()[k] = giants[k % 4];
  }
#ifndef SFN_CHECK_NUMERICS
  MacGrid2& poisoned = add("nan-inf", dt);
  cases.back().has_nan = true;
  fill_random(&poisoned.u(), &rng, -cell, cell);
  fill_random(&poisoned.v(), &rng, -cell, cell);
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()};
  for (std::size_t k = 0; k < poisoned.u().size(); k += 7) {
    poisoned.u()[k] = specials[k % 3];
  }
  for (std::size_t k = 3; k < poisoned.v().size(); k += 11) {
    poisoned.v()[k] = specials[k % 3];
  }
#endif
  return cases;
}

/// Runs fn() with an OpenMP team of `threads`, restoring the old size.
void with_team(int threads, const std::function<void()>& fn) {
  const int old_threads = omp_get_max_threads();
  omp_set_num_threads(threads);
  fn();
  omp_set_num_threads(old_threads);
}

const AdvectionScheme kSchemes[] = {AdvectionScheme::kSemiLagrangian,
                                    AdvectionScheme::kMacCormack};

TEST(Advection, MatchesReferenceBitwise) {
  struct Shape {
    int nx, ny;
  };
  const Shape shapes[] = {{1, 1},  {2, 2},   {37, 53},
                          {5, 200}, {200, 5}, {128, 128}};
  std::uint64_t seed = 300;
  for (const Shape shape : shapes) {
    const int nx = shape.nx;
    const int ny = shape.ny;
    const FlagGrid flags = random_flags(nx, ny, ++seed);
    util::Rng rng(++seed);
    GridF src(nx, ny, 0.0f);
    fill_random(&src, &rng, -1.0, 1.0);
    for (std::size_t k = 0; k < src.size(); k += 5) {
      src[k] = -0.0f;
    }
    for (const VelocityCase& vc : velocity_cases(nx, ny, ++seed)) {
      for (const AdvectionScheme scheme : kSchemes) {
        GridF want_density(nx, ny, 7.0f);
        MacGrid2 want_vel(nx, ny);
        test::ReferenceAdvection::advect_scalar(vc.vel, flags, vc.dt, src,
                                                &want_density, scheme);
        test::ReferenceAdvection::advect_velocity(vc.vel, flags, vc.dt,
                                                  &want_vel, scheme);
        for (const int threads : {1, 2, 3, 4, 8}) {
          SCOPED_TRACE(::testing::Message()
                       << nx << "x" << ny << " " << vc.name << " scheme="
                       << static_cast<int>(scheme) << " threads=" << threads);
          GridF density(nx, ny, 7.0f);
          MacGrid2 vel(nx, ny);
          with_team(threads, [&] {
            fluid::advect_scalar(vc.vel, flags, vc.dt, src, &density,
                                 scheme);
            fluid::advect_velocity(vc.vel, flags, vc.dt, &vel, scheme);
          });
          const auto same = vc.has_nan ? same_bits_or_nan : same_bits;
          EXPECT_TRUE(same(want_density, density));
          EXPECT_TRUE(same(want_vel.u(), vel.u()));
          EXPECT_TRUE(same(want_vel.v(), vel.v()));
        }
      }
    }
  }
}

TEST(Advection, RolloutsMatchReferenceBitwise) {
  // Every state a simulation advects: a plume and each scene family
  // (inflow bands, open edges, static and moving obstacles), both schemes.
  // The simulation steps on one thread, which keeps its other parallel
  // loops cheap under ThreadSanitizer; the advection under test runs at
  // the ambient team size.
  workload::ProblemSetParams plume_params;
  plume_params.grid = 48;
  plume_params.steps = 16;
  std::vector<workload::InputProblem> problems = {
      workload::generate_problems(1, plume_params, 11).front()};
  for (const auto family : workload::all_scene_families()) {
    problems.push_back(workload::make_scene(family, 11, {48, 16}));
  }
  for (workload::InputProblem problem : problems) {
    for (const AdvectionScheme scheme : kSchemes) {
      problem.sim.advection = scheme;
      fluid::SmokeSim sim = workload::make_sim(problem);
      fluid::PcgSolver pcg;
      const int n = sim.nx();
      for (int step = 0; step < problem.steps; ++step) {
        SCOPED_TRACE(::testing::Message()
                     << "seed=" << problem.seed << " scheme="
                     << static_cast<int>(scheme) << " step=" << step);
        GridF want_density(n, sim.ny(), 0.0f);
        GridF density(n, sim.ny(), 0.0f);
        MacGrid2 want_vel(n, sim.ny());
        MacGrid2 vel(n, sim.ny());
        test::ReferenceAdvection::advect_scalar(
            sim.velocity(), sim.flags(), problem.sim.dt, sim.density(),
            &want_density, scheme);
        test::ReferenceAdvection::advect_velocity(
            sim.velocity(), sim.flags(), problem.sim.dt, &want_vel, scheme);
        fluid::advect_scalar(sim.velocity(), sim.flags(), problem.sim.dt,
                             sim.density(), &density, scheme);
        fluid::advect_velocity(sim.velocity(), sim.flags(), problem.sim.dt,
                               &vel, scheme);
        ASSERT_TRUE(same_bits(want_density, density));
        ASSERT_TRUE(same_bits(want_vel.u(), vel.u()));
        ASSERT_TRUE(same_bits(want_vel.v(), vel.v()));
        with_team(1, [&] { sim.step(&pcg); });
      }
    }
  }
}

TEST(Advection, RejectsMismatchedShapes) {
  // The row loops index flat arrays, so a mismatch must throw up front.
  const FlagGrid flags = open_box(12);
  const MacGrid2 vel(12, 12);
  const GridF src(12, 12, 0.0f);
  GridF small(11, 12, 0.0f);
  EXPECT_THROW(fluid::advect_scalar(vel, flags, 0.05, src, &small),
               util::CheckError);
  EXPECT_THROW(fluid::advect_scalar(vel, open_box(13), 0.05, src, &small),
               util::CheckError);
  MacGrid2 out(12, 13);
  EXPECT_THROW(fluid::advect_velocity(vel, flags, 0.05, &out),
               util::CheckError);
  MacGrid2 fine(12, 12);
  EXPECT_THROW(fluid::advect_velocity(vel, open_box(13), 0.05, &fine),
               util::CheckError);
}

}  // namespace
}  // namespace sfn
