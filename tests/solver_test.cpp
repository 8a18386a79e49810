#include "core/neural_projection.hpp"
#include "fluid/handoff.hpp"
#include "fluid/multigrid.hpp"
#include "fluid/operators.hpp"
#include "fluid/pcg.hpp"
#include "fluid/relaxation.hpp"
#include "modelgen/arch_spec.hpp"
#include "pcg_rebuild_reference.hpp"
#include "pcg_reference.hpp"
#include "runtime/fallback.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "workload/evaluate.hpp"
#include "workload/obstacles.hpp"
#include "workload/problems.hpp"
#include "workload/scenes.hpp"

#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

// ---------------------------------------------------------------------------
// Armed allocation counter (same scheme as packed_kernel_test.cpp).
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n ? n : 1)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
// ---------------------------------------------------------------------------

namespace sfn {
namespace {

using fluid::CellType;
using fluid::FlagGrid;
using fluid::GridF;
using fluid::MacGrid2;
using fluid::PcgParams;
using fluid::PcgSolver;
using fluid::Preconditioner;

FlagGrid open_box(int n) {
  FlagGrid flags(n, n, CellType::kFluid);
  flags.set_smoke_box_boundary();
  return flags;
}

GridF random_rhs(const FlagGrid& flags, std::uint64_t seed) {
  util::Rng rng(seed);
  GridF rhs(flags.nx(), flags.ny(), 0.0f);
  for (int j = 0; j < flags.ny(); ++j) {
    for (int i = 0; i < flags.nx(); ++i) {
      if (flags.is_fluid(i, j)) {
        rhs(i, j) = static_cast<float>(rng.uniform(-0.1, 0.1));
      }
    }
  }
  return rhs;
}

TEST(Pcg, SolvesToTolerance) {
  const FlagGrid flags = open_box(32);
  const GridF rhs = random_rhs(flags, 1);
  GridF p(32, 32, 0.0f);
  PcgSolver solver;
  const auto stats = solver.solve(flags, rhs, &p);
  EXPECT_TRUE(stats.converged);
  EXPECT_LE(stats.residual, 1e-6);
  EXPECT_LE(fluid::poisson_residual(flags, rhs, p), 1e-6);
  EXPECT_GT(stats.iterations, 0);
  EXPECT_GT(stats.flops, 0u);
}

TEST(Pcg, WarmStartConvergesInstantly) {
  const FlagGrid flags = open_box(24);
  const GridF rhs = random_rhs(flags, 2);
  GridF p(24, 24, 0.0f);
  PcgSolver solver;
  solver.solve(flags, rhs, &p);
  // Re-solving from the solution should take zero iterations.
  const auto stats = solver.solve(flags, rhs, &p);
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(stats.iterations, 0);
}

TEST(Pcg, MicPreconditionerBeatsPlainCg) {
  const FlagGrid flags = open_box(48);
  const GridF rhs = random_rhs(flags, 3);

  GridF p1(48, 48, 0.0f);
  PcgParams mic;
  mic.preconditioner = Preconditioner::kMIC0;
  PcgSolver mic_solver(mic);
  const auto mic_stats = mic_solver.solve(flags, rhs, &p1);

  GridF p2(48, 48, 0.0f);
  PcgParams none;
  none.preconditioner = Preconditioner::kNone;
  PcgSolver cg_solver(none);
  const auto cg_stats = cg_solver.solve(flags, rhs, &p2);

  EXPECT_TRUE(mic_stats.converged);
  EXPECT_TRUE(cg_stats.converged);
  EXPECT_LT(mic_stats.iterations, cg_stats.iterations);
}

TEST(Pcg, HandlesObstacles) {
  FlagGrid flags = open_box(32);
  workload::Obstacle ob;
  ob.kind = workload::Obstacle::Kind::kCircle;
  ob.cx = 0.5;
  ob.cy = 0.5;
  ob.rx = ob.ry = 0.2;
  workload::rasterize_obstacles({ob}, &flags);
  ASSERT_LT(flags.count_fluid(), 30 * 30);

  const GridF rhs = random_rhs(flags, 4);
  GridF p(32, 32, 0.0f);
  PcgSolver solver;
  const auto stats = solver.solve(flags, rhs, &p);
  EXPECT_TRUE(stats.converged);
  EXPECT_LE(fluid::poisson_residual(flags, rhs, p), 1e-6);
  // Pressure is zero outside fluid.
  EXPECT_FLOAT_EQ(p(16, 16), 0.0f);
}

TEST(Pcg, InconsistentWalledPocketReportsNonFiniteResidual) {
  // A 2-cell fluid pocket walled in by a 4x3 solid block has no empty
  // neighbour: its pressure is fixed only up to a constant, and an rhs
  // that does not sum to zero over it has no solution. Beside the open
  // box's own (solvable) rhs, the solve breaks down into NaN after 42
  // iterations, and must say so rather than report convergence.
  FlagGrid flags = open_box(8);
  for (int j = 2; j < 5; ++j) {
    for (int i = 2; i < 6; ++i) {
      flags.set(i, j, CellType::kSolid);
    }
  }
  flags.set(3, 3, CellType::kFluid);
  flags.set(4, 3, CellType::kFluid);
  GridF rhs = random_rhs(flags, 7);
  rhs(3, 3) = 0.5f;
  GridF p(8, 8, 0.0f);
  PcgSolver solver;
#ifdef SFN_CHECK_NUMERICS
  EXPECT_THROW(solver.solve(flags, rhs, &p), util::CheckError);
#else
  const auto stats = solver.solve(flags, rhs, &p);
  EXPECT_FALSE(stats.converged);
  EXPECT_FALSE(std::isfinite(stats.residual));
#endif
}

TEST(Pcg, ZeroRhsGivesZeroSolution) {
  const FlagGrid flags = open_box(16);
  const GridF rhs(16, 16, 0.0f);
  GridF p(16, 16, 0.0f);
  PcgSolver solver;
  const auto stats = solver.solve(flags, rhs, &p);
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(stats.iterations, 0);
  EXPECT_DOUBLE_EQ(p.max_abs(), 0.0);
}

// ---------------------------------------------------------------------------
// Bit-identity of the optimised solver: against the original solver kept
// as a test oracle (pcg_reference.hpp), across OpenMP team sizes, and with
// no heap traffic once warm.

bool same_bits(const GridF& a, const GridF& b) {
  return a.nx() == b.nx() && a.ny() == b.ny() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(float)) == 0;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Random mix of all four cell types (the border included, so fluid cells
/// sit on the grid edge too), crossed by 1-cell fluid channels between
/// solid walls, one ending in an empty cell and one in an inflow cell.
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

GridF random_field(int nx, int ny, std::uint64_t seed, double scale) {
  util::Rng rng(seed);
  GridF field(nx, ny, 0.0f);
  for (std::size_t k = 0; k < field.size(); ++k) {
    field[k] = static_cast<float>(rng.uniform(-scale, scale));
  }
  return field;
}

/// A right-hand side in the range of A (b = A x for a random x), so that
/// the solve converges even on enclosed, pure-Neumann fluid pockets.
GridF consistent_rhs(const FlagGrid& flags, std::uint64_t seed) {
  const GridF x = random_field(flags.nx(), flags.ny(), seed, 1.0);
  GridF rhs(flags.nx(), flags.ny(), 0.0f);
  fluid::apply_pressure_laplacian(x, flags, &rhs);
  return rhs;
}

/// Runs fn() with a one-thread OpenMP team; used for the oracle. Its
/// results do not depend on the team size, one thread is much faster under
/// ThreadSanitizer, and it keeps the oracle's plain parallel regions out of
/// the TSan legs, which are there for the optimised solver's.
template <typename Fn>
auto single_threaded(Fn&& fn) {
  const int threads = omp_get_max_threads();
  omp_set_num_threads(1);
  auto result = fn();
  omp_set_num_threads(threads);
  return result;
}

const Preconditioner kAllPreconditioners[] = {
    Preconditioner::kNone, Preconditioner::kJacobi, Preconditioner::kIC0,
    Preconditioner::kMIC0};

TEST(Pcg, MatchesReferenceBitwise) {
  struct Shape {
    int nx, ny;
  };
  const Shape shapes[] = {{37, 53}, {5, 200}, {200, 5}, {128, 128}};
  std::uint64_t seed = 100;
  for (const Shape shape : shapes) {
    const int nx = shape.nx;
    const int ny = shape.ny;
    const FlagGrid flags = random_flags(nx, ny, ++seed);
    // An arbitrary rhs leaves the enclosed pockets unsolvable, so those
    // solves run to a (short) iteration cap; the consistent one converges.
    const struct {
      GridF rhs;
      int max_iterations;
    } rhs_cases[] = {{random_field(nx, ny, ++seed, 0.1), 40},
                     {consistent_rhs(flags, ++seed), 250}};
    for (const auto& [rhs, max_iterations] : rhs_cases) {
      for (const Preconditioner pre : kAllPreconditioners) {
        PcgParams params;
        params.preconditioner = pre;
        params.max_iterations = max_iterations;
        GridF converged(nx, ny, 0.0f);
        single_threaded([&] {
          return test::ReferencePcg(params).solve(flags, rhs, &converged);
        });
        const GridF guesses[] = {GridF(nx, ny, 0.0f),
                                 random_field(nx, ny, ++seed, 0.5),
                                 converged};
        // One instance of each solver across the three solves, so the
        // stencil and factor caches are exercised too.
        PcgSolver solver(params);
        test::ReferencePcg reference(params);
        for (const GridF& guess : guesses) {
          SCOPED_TRACE(::testing::Message()
                       << solver.name() << " " << nx << "x" << ny
                       << " guess#" << (&guess - guesses)
                       << " cap=" << max_iterations);
          GridF expected = guess;
          GridF actual = guess;
          const auto want = single_threaded(
              [&] { return reference.solve(flags, rhs, &expected); });
#ifdef SFN_CHECK_NUMERICS
          // A capped unsolvable case can diverge. The oracle has no finite
          // check and returns the non-finite pressure; the solver's
          // result check refuses to.
          if (!util::all_finite(expected.data().data(), expected.size())) {
            EXPECT_THROW(solver.solve(flags, rhs, &actual), util::CheckError);
            continue;
          }
#endif
          const auto got = solver.solve(flags, rhs, &actual);
          EXPECT_TRUE(same_bits(expected, actual));
          EXPECT_EQ(want.iterations, got.iterations);
          EXPECT_TRUE(same_bits(want.residual, got.residual))
              << want.residual << " vs " << got.residual;
          EXPECT_EQ(want.converged, got.converged);
          EXPECT_EQ(want.flops, got.flops);
        }
      }
    }
  }
}

TEST(Pcg, RolloutsMatchReferenceBitwise) {
  // Whole simulations: a plume, and a moving obstacle that changes the
  // flags (and so rebuilds the stencil cache) on every step.
  workload::ProblemSetParams plume_params;
  plume_params.grid = 64;
  plume_params.steps = 16;
  const workload::InputProblem problems[] = {
      workload::generate_problems(1, plume_params, 7).front(),
      workload::make_scene(workload::SceneFamily::kMovingObstacle, 7,
                           {64, 16})};
  for (const auto& problem : problems) {
    test::ReferencePcg reference;
    PcgSolver solver;
    const auto want = single_threaded(
        [&] { return workload::run_simulation(problem, &reference); });
    const auto got = workload::run_simulation(problem, &solver);
    EXPECT_TRUE(same_bits(want.final_density, got.final_density));
    EXPECT_EQ(want.solve_flops, got.solve_flops);
  }
}

TEST(Pcg, TeamSizeDoesNotChangeBits) {
  const int old_threads = omp_get_max_threads();
  struct Case {
    FlagGrid flags;
    GridF rhs;
  };
  std::vector<Case> cases;
  // 128x8 has fewer row bands than the larger teams have threads.
  for (const auto& [nx, ny] : {std::pair{128, 128}, std::pair{37, 53},
                              std::pair{128, 8}, std::pair{5, 200}}) {
    const FlagGrid flags = random_flags(nx, ny, 40u + nx + ny);
    cases.push_back({flags, consistent_rhs(flags, 50u + nx + ny)});
  }
  cases.push_back({open_box(64), random_rhs(open_box(64), 9)});
  for (const Preconditioner pre : kAllPreconditioners) {
    PcgParams params;
    params.preconditioner = pre;
    params.max_iterations = 250;
    std::vector<GridF> serial;
    for (const int threads : {1, 2, 3, 4, 8}) {
      omp_set_num_threads(threads);
      PcgSolver solver(params);
      for (std::size_t c = 0; c < cases.size(); ++c) {
        GridF p(cases[c].flags.nx(), cases[c].flags.ny(), 0.0f);
        solver.solve(cases[c].flags, cases[c].rhs, &p);
        if (threads == 1) {
          serial.push_back(p);
        } else {
          EXPECT_TRUE(same_bits(serial[c], p))
              << solver.name() << " threads=" << threads << " case " << c;
        }
      }
    }
    // With no active parallel level allowed, the solver's regions get a
    // team of one while omp_get_max_threads() still plans four bands: the
    // one thread then runs every band in pipeline order. (A solve called
    // from inside a parallel region, nesting off, is in the same state.)
    omp_set_num_threads(4);
    const int old_levels = omp_get_max_active_levels();
    omp_set_max_active_levels(0);
    PcgSolver solver(params);
    GridF p(128, 128, 0.0f);
    solver.solve(cases[0].flags, cases[0].rhs, &p);
    omp_set_max_active_levels(old_levels);
    EXPECT_TRUE(same_bits(serial[0], p))
        << solver.name() << " team of one, four bands";
  }
  omp_set_num_threads(old_threads);
}

TEST(Pcg, SteadyStateSolveIsAllocationFree) {
  const FlagGrid flags = open_box(64);
  FlagGrid moved = flags;
  workload::Obstacle ob;
  ob.kind = workload::Obstacle::Kind::kCircle;
  ob.cx = 0.4;
  ob.cy = 0.5;
  ob.rx = ob.ry = 0.15;
  workload::rasterize_obstacles({ob}, &moved);
  const GridF rhs = random_rhs(flags, 21);
  const GridF rhs2 = random_rhs(moved, 22);

  PcgSolver solver;
  GridF p(64, 64, 0.0f);
  solver.solve(flags, rhs, &p);
  fluid::poisson_residual(flags, rhs, p);

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  const auto warm = solver.solve(flags, rhs2, &p);
  // Changed flags rebuild the stencil cache into the same buffers.
  const auto rebuilt = solver.solve(moved, rhs2, &p);
  const auto back = solver.solve(flags, rhs, &p);
  const double residual = fluid::poisson_residual(moved, rhs2, p);
  g_count_allocs.store(false);

  EXPECT_EQ(0u, g_alloc_count.load()) << "a warm solve touched the heap";
  EXPECT_TRUE(warm.converged && rebuilt.converged && back.converged);
  EXPECT_TRUE(std::isfinite(residual));
}

template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

TEST(Pcg, RebuildMatchesSerialReferenceBytewise) {
  // The stencil and preconditioner a solve rebuilds on its team (a flat
  // stencil pass, then the IC/MIC factor on the band pipeline) against the
  // original serial build (pcg_rebuild_reference.hpp), byte for byte, at
  // teams 1-8: random flags under all four preconditioners, whose 128x8
  // and 5x200 shapes leave threads without a band or give each band a
  // single column chunk; an open box whose raised mic_sigma sends some
  // cells down the safety fallback; and every step's flags of a 128²
  // moving-obstacle rollout, which rebuild on every solve. A zero rhs and
  // guess converge at once, so each solve is the rebuild alone.
  struct Case {
    FlagGrid flags;
    PcgParams params;
    test::ReferencePcgCache want;
  };
  std::vector<Case> cases;
  for (const auto& [nx, ny] : {std::pair{37, 53}, std::pair{128, 8},
                              std::pair{5, 200}, std::pair{128, 128}}) {
    const FlagGrid flags = random_flags(nx, ny, 60u + nx + ny);
    for (const Preconditioner pre : kAllPreconditioners) {
      PcgParams params;
      params.preconditioner = pre;
      cases.push_back({flags, params, test::reference_pcg_cache(flags, params)});
    }
  }
  PcgParams clamped;
  clamped.mic_sigma = 0.65;
  PcgParams unclamped = clamped;
  unclamped.mic_sigma = 0.0;
  const FlagGrid box = open_box(64);
  cases.push_back({box, clamped, test::reference_pcg_cache(box, clamped)});
  ASSERT_FALSE(same_bytes(cases.back().want.precond,
                          test::reference_pcg_cache(box, unclamped).precond))
      << "mic_sigma " << clamped.mic_sigma << " takes no fallback";

  const workload::InputProblem scene = workload::make_scene(
      workload::SceneFamily::kMovingObstacle, 11, {128, 16});
  std::vector<FlagGrid> rollout;
  {
    fluid::SmokeSim sim = workload::make_sim(scene);
    PcgSolver pcg;
    for (int step = 0; step < scene.steps; ++step) {
      sim.step(&pcg);
      rollout.push_back(sim.flags());
    }
  }
  std::vector<test::ReferencePcgCache> rollout_want;
  for (const FlagGrid& flags : rollout) {
    rollout_want.push_back(test::reference_pcg_cache(flags, PcgParams{}));
  }

  const auto expect_cache = [](const PcgSolver& solver,
                               const test::ReferencePcgCache& want,
                               const std::string& what) {
    EXPECT_TRUE(same_bytes(want.stencil, solver.stencil())) << what;
    EXPECT_TRUE(same_bytes(want.diag, solver.diagonal())) << what;
    EXPECT_TRUE(same_bytes(want.precond, solver.preconditioner_diagonal()))
        << what;
  };
  const auto rebuild = [](PcgSolver* solver, const FlagGrid& flags) {
    const GridF rhs(flags.nx(), flags.ny(), 0.0f);
    GridF p(flags.nx(), flags.ny(), 0.0f);
    solver->solve(flags, rhs, &p);
  };
  const int old_threads = omp_get_max_threads();
  for (int threads = 1; threads <= 8; ++threads) {
    omp_set_num_threads(threads);
    for (const Case& c : cases) {
      PcgSolver solver(c.params);
      rebuild(&solver, c.flags);
      expect_cache(solver, c.want,
                   ::testing::PrintToString(threads) + " threads, " +
                       solver.name() + " " + std::to_string(c.flags.nx()) +
                       "x" + std::to_string(c.flags.ny()) + " sigma " +
                       std::to_string(c.params.mic_sigma));
    }
    PcgSolver solver;
    for (std::size_t step = 0; step < rollout.size(); ++step) {
      rebuild(&solver, rollout[step]);
      expect_cache(solver, rollout_want[step],
                   ::testing::PrintToString(threads) +
                       " threads, moving-obstacle step " +
                       std::to_string(step));
    }
  }
  omp_set_num_threads(old_threads);
}

TEST(SmokeSim, SteadyStateStepIsAllocationFree) {
  // Once warm, a whole step touches no heap: MacCormack's intermediate
  // fields, the confinement scratch, a moving obstacle's per-step
  // solid-distance refresh, and the per-row partials of DivNorm, the
  // surrogate's decode and the guard's sweep (sized before each team
  // opens) all reuse their buffers, at one thread and at four.
  workload::ProblemSetParams plume_params;
  plume_params.grid = 48;
  plume_params.steps = 8;
  const workload::InputProblem bases[] = {
      workload::generate_problems(1, plume_params, 3).front(),
      workload::make_scene(workload::SceneFamily::kMovingObstacle, 3,
                           {48, 8})};
  util::Rng rng(3);
  const nn::Network net =
      modelgen::build_network(modelgen::tompson_spec(4), rng);
  const int old_threads = omp_get_max_threads();
  for (const int threads : {1, 4}) {
    omp_set_num_threads(threads);
    for (const auto& base : bases) {
      for (const auto scheme : {fluid::AdvectionScheme::kSemiLagrangian,
                                fluid::AdvectionScheme::kMacCormack}) {
        for (const double confinement : {0.0, 8.0}) {
          for (const bool neural : {false, true}) {
            workload::InputProblem problem = base;
            problem.sim.advection = scheme;
            problem.sim.vorticity_confinement = confinement;
            fluid::SmokeSim sim = workload::make_sim(problem);
            PcgSolver pcg;
            core::NeuralProjection surrogate(&net, nullptr, "tiny");
            // Trips on some steps (relative residuals of this untrained
            // network read about 1 to 3).
            runtime::GuardParams guard_params;
            guard_params.residual_threshold = 1.8;
            runtime::FallbackPolicy guard(guard_params);
            const auto step = [&] {
              return neural ? sim.step(&surrogate, &guard) : sim.step(&pcg);
            };
            step();
            step();
            // Warm the guard's fallback PCG, which may not have tripped
            // yet.
            GridF scratch = sim.pressure();
            guard.exact_solver()->solve(sim.flags(), sim.last_rhs(),
                                        &scratch);

            g_alloc_count.store(0);
            g_count_allocs.store(true);
            for (int k = 0; k < 3; ++k) {
              step();
            }
            g_count_allocs.store(false);
            EXPECT_EQ(0u, g_alloc_count.load())
                << "seed " << problem.seed << " scheme "
                << static_cast<int>(scheme) << " confinement " << confinement
                << (neural ? " neural+guard" : " pcg") << " threads "
                << threads;
          }
        }
      }
    }
  }
  omp_set_num_threads(old_threads);
}

TEST(ChunkHandoff, ChainedProducersHandOffEveryChunk) {
  // A chain of stages on plain std::threads, as the pipelined sweeps use
  // the handoff: stage t reads stage t-1's chunk c only after waiting for
  // it, then writes its own chunk c and publishes. The chunk data are
  // plain (non-atomic) writes, so a missing release/acquire edge is a
  // data race ThreadSanitizer reports. Within a phase the counts keep
  // growing over several rounds; a second phase starts from reset()
  // counters, as every PCG sweep does. Run at the core count and
  // oversubscribed, where waiters must yield to descheduled producers.
  constexpr int kChunks = 64;
  constexpr int kRounds = 8;
  const int cores =
      std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
  for (const int stages : {cores, 4 * cores + 1}) {
    std::vector<fluid::ChunkHandoff> handoff(static_cast<std::size_t>(stages));
    std::vector<long> data(static_cast<std::size_t>(kRounds) * stages *
                           kChunks);
    auto at = [&](int round, int stage, int chunk) -> long& {
      return data[(static_cast<std::size_t>(round) * stages + stage) *
                      kChunks +
                  chunk];
    };
    auto count = [](int round, int chunk) {
      return static_cast<std::uint32_t>(round * kChunks + chunk + 1);
    };
    for (int phase = 0; phase < 2; ++phase) {
      for (auto& h : handoff) {
        h.reset();
      }
      std::vector<std::thread> threads;
      for (int t = 0; t < stages; ++t) {
        threads.emplace_back([&, t] {
          for (int round = 0; round < kRounds; ++round) {
            for (int c = 0; c < kChunks; ++c) {
              long value = 1000L * round + c + phase;
              if (t > 0) {
                handoff[t - 1].wait_for(count(round, c));
                value = at(round, t - 1, c) + 1;
              }
              at(round, t, c) = value;
              handoff[t].publish(count(round, c));
            }
          }
        });
      }
      // The consumer checks the last stage's chunks as they are published.
      long mismatches = 0;
      for (int round = 0; round < kRounds; ++round) {
        for (int c = 0; c < kChunks; ++c) {
          handoff[stages - 1].wait_for(count(round, c));
          mismatches += at(round, stages - 1, c) !=
                        1000L * round + c + phase + stages - 1;
        }
      }
      for (auto& thread : threads) {
        thread.join();
      }
      EXPECT_EQ(mismatches, 0) << stages << " stages, phase " << phase;
    }
  }
}

TEST(TeamBarrier, EveryThreadSeesEveryWriteAcrossReusedGenerations) {
  // The PCG's pattern on plain std::threads: in every round each thread
  // writes its own slot, passes the barrier, then reads every other
  // thread's slot. The slots alternate with the round's parity, as the
  // solve's dot and max partials do, so one barrier per round keeps a fast
  // thread from overwriting a slot a slow one still reads. The slots are
  // plain (non-atomic), so a missing release/acquire edge is a data race
  // ThreadSanitizer reports, and a stale read is a mismatch. One barrier
  // object serves every team in turn, as a solver's serves every solve:
  // a team of one, one thread per core, and an oversubscribed team whose
  // waiters must yield to descheduled threads.
  constexpr int kRounds = 4000;
  const int cores =
      std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
  fluid::TeamBarrier barrier;
  for (const int team : {1, cores, 2 * cores}) {
    std::vector<long> slot(2 * static_cast<std::size_t>(team));
    std::vector<long> mismatches(static_cast<std::size_t>(team));
    const auto run = [&](int t) {
      for (int round = 0; round < kRounds; ++round) {
        long* const row = slot.data() + (round % 2) * team;
        row[t] = 1000L * round + t;
        barrier.arrive_and_wait(team);
        for (int other = 0; other < team; ++other) {
          mismatches[t] += row[other] != 1000L * round + other;
        }
      }
    };
    std::vector<std::thread> threads;
    for (int t = 1; t < team; ++t) {
      threads.emplace_back(run, t);
    }
    run(0);
    for (auto& thread : threads) {
      thread.join();
    }
    long total = 0;
    for (const long m : mismatches) {
      total += m;
    }
    EXPECT_EQ(total, 0) << team << " threads";
  }
}

TEST(Jacobi, ConvergesOnSmallGrid) {
  const FlagGrid flags = open_box(16);
  const GridF rhs = random_rhs(flags, 5);
  GridF p(16, 16, 0.0f);
  fluid::RelaxationParams params;
  params.tolerance = 1e-5;
  fluid::JacobiSolver solver(params);
  const auto stats = solver.solve(flags, rhs, &p);
  EXPECT_TRUE(stats.converged);
  EXPECT_LE(fluid::poisson_residual(flags, rhs, p), 1e-5);
}

TEST(GaussSeidel, ConvergesFasterThanJacobi) {
  const FlagGrid flags = open_box(24);
  const GridF rhs = random_rhs(flags, 6);
  fluid::RelaxationParams params;
  params.tolerance = 1e-5;

  GridF pj(24, 24, 0.0f);
  fluid::JacobiSolver jacobi(params);
  const auto js = jacobi.solve(flags, rhs, &pj);

  GridF pg(24, 24, 0.0f);
  fluid::GaussSeidelSolver gs(params);
  const auto gss = gs.solve(flags, rhs, &pg);

  EXPECT_TRUE(js.converged);
  EXPECT_TRUE(gss.converged);
  EXPECT_LT(gss.iterations, js.iterations);
}

TEST(Multigrid, ConvergesAndMatchesPcg) {
  const FlagGrid flags = open_box(32);
  const GridF rhs = random_rhs(flags, 7);

  GridF pmg(32, 32, 0.0f);
  fluid::MultigridSolver mg;
  const auto mg_stats = mg.solve(flags, rhs, &pmg);
  EXPECT_TRUE(mg_stats.converged);
  EXPECT_LE(fluid::poisson_residual(flags, rhs, pmg), 1e-6);

  GridF ppcg(32, 32, 0.0f);
  PcgSolver pcg;
  pcg.solve(flags, rhs, &ppcg);

  // The system is nonsingular (Dirichlet top row): solutions must agree.
  double max_diff = 0.0;
  for (int j = 0; j < 32; ++j) {
    for (int i = 0; i < 32; ++i) {
      max_diff = std::max(
          max_diff, std::abs(static_cast<double>(pmg(i, j)) - ppcg(i, j)));
    }
  }
  EXPECT_LT(max_diff, 1e-3);
}

TEST(Multigrid, BeatsGaussSeidelAtEqualSweepBudget) {
  // The coarse correction must buy accuracy: at a matched smoothing
  // budget, damped V-cycles reach a (much) lower residual than plain
  // red-black Gauss-Seidel.
  const FlagGrid flags = open_box(64);
  const GridF rhs = random_rhs(flags, 8);

  fluid::MultigridParams mg_params;
  mg_params.tolerance = 0.0;  // Run exactly max_cycles.
  mg_params.max_cycles = 20;
  GridF pmg(64, 64, 0.0f);
  fluid::MultigridSolver mg(mg_params);
  mg.solve(flags, rhs, &pmg);
  const double mg_residual = fluid::poisson_residual(flags, rhs, pmg);

  // 20 cycles x (3 pre + 3 post) fine sweeps = 120 sweeps; give GS the
  // same fine-grid budget.
  GridF pgs(64, 64, 0.0f);
  for (int s = 0; s < 120; ++s) {
    fluid::rbgs_sweep(flags, rhs, &pgs);
  }
  const double gs_residual = fluid::poisson_residual(flags, rhs, pgs);
  EXPECT_LT(mg_residual, 0.5 * gs_residual);
}

TEST(Multigrid, CoarsenFlagsSemantics) {
  FlagGrid fine(4, 4, CellType::kSolid);
  fine.set(0, 0, CellType::kFluid);   // -> coarse (0,0) fluid.
  fine.set(2, 2, CellType::kEmpty);   // -> coarse (1,1) empty.
  const auto coarse = fluid::coarsen_flags(fine);
  EXPECT_EQ(coarse.nx(), 2);
  EXPECT_EQ(coarse.at(0, 0), CellType::kFluid);
  EXPECT_EQ(coarse.at(1, 1), CellType::kEmpty);
  EXPECT_EQ(coarse.at(1, 0), CellType::kSolid);
}

// ---------------------------------------------------------------------------
// Property sweep: every solver produces the same pressure (the system is
// nonsingular) across grid sizes and preconditioners.

struct SolverCase {
  std::string name;
  std::function<std::unique_ptr<fluid::PoissonSolver>()> make;
};

class SolverAgreement
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SolverAgreement, AllPreconditionersAgree) {
  const int n = std::get<0>(GetParam());
  const int seed = std::get<1>(GetParam());
  const FlagGrid flags = open_box(n);
  const GridF rhs = random_rhs(flags, static_cast<std::uint64_t>(seed));

  GridF reference(n, n, 0.0f);
  PcgParams ref_params;
  ref_params.tolerance = 1e-8;
  PcgSolver ref(ref_params);
  ASSERT_TRUE(ref.solve(flags, rhs, &reference).converged);

  for (auto pre : {Preconditioner::kNone, Preconditioner::kJacobi,
                   Preconditioner::kIC0, Preconditioner::kMIC0}) {
    PcgParams params;
    params.preconditioner = pre;
    params.tolerance = 1e-8;
    PcgSolver solver(params);
    GridF p(n, n, 0.0f);
    ASSERT_TRUE(solver.solve(flags, rhs, &p).converged)
        << solver.name() << " n=" << n;
    double max_diff = 0.0;
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        max_diff = std::max(
            max_diff, std::abs(static_cast<double>(p(i, j)) - reference(i, j)));
      }
    }
    EXPECT_LT(max_diff, 5e-4) << solver.name() << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(GridsAndSeeds, SolverAgreement,
                         ::testing::Combine(::testing::Values(16, 24, 32),
                                            ::testing::Values(11, 22, 33)));

}  // namespace
}  // namespace sfn
