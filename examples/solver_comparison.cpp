// Solver-substrate scenario: compare every pressure Poisson solver in the
// library — MICCG(0) / ICCG(0) / Jacobi-PCG / plain CG / red-black
// Gauss-Seidel / weighted Jacobi / geometric multigrid — on the same
// smoke-plume pressure systems across resolutions.
//
// This exercises the solver substrate the paper's PCG baseline
// (Algorithm 1, lines 7-17) is built on, and shows why MICCG(0) is
// mantaflow's default: fewest iterations at every size.
//
// Usage: ./examples/solver_comparison [--max-grid=96]

#include "fluid/multigrid.hpp"
#include "fluid/operators.hpp"
#include "fluid/pcg.hpp"
#include "fluid/relaxation.hpp"
#include "util/config.hpp"
#include "util/table.hpp"
#include "workload/problems.hpp"

#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

int main(int argc, char** argv) {
  using namespace sfn;
  const auto cfg = util::BenchConfig::from_args(argc, argv);

  struct Entry {
    std::string name;
    std::function<std::unique_ptr<fluid::PoissonSolver>()> make;
  };
  const std::vector<Entry> solvers = {
      {"MICCG(0)",
       [] {
         fluid::PcgParams p;
         p.preconditioner = fluid::Preconditioner::kMIC0;
         return std::make_unique<fluid::PcgSolver>(p);
       }},
      {"ICCG(0)",
       [] {
         fluid::PcgParams p;
         p.preconditioner = fluid::Preconditioner::kIC0;
         return std::make_unique<fluid::PcgSolver>(p);
       }},
      {"JacobiPCG",
       [] {
         fluid::PcgParams p;
         p.preconditioner = fluid::Preconditioner::kJacobi;
         return std::make_unique<fluid::PcgSolver>(p);
       }},
      {"CG",
       [] {
         fluid::PcgParams p;
         p.preconditioner = fluid::Preconditioner::kNone;
         return std::make_unique<fluid::PcgSolver>(p);
       }},
      {"Multigrid",
       [] { return std::make_unique<fluid::MultigridSolver>(); }},
      {"GaussSeidel",
       [] {
         fluid::RelaxationParams p;
         p.tolerance = 1e-6;
         return std::make_unique<fluid::GaussSeidelSolver>(p);
       }},
      {"Jacobi",
       [] {
         fluid::RelaxationParams p;
         p.tolerance = 1e-6;
         return std::make_unique<fluid::JacobiSolver>(p);
       }},
  };

  for (int grid = 32; grid <= cfg.max_grid; grid *= 2) {
    // Build one representative mid-simulation pressure system.
    workload::ProblemSetParams params;
    params.grid = grid;
    params.steps = 8;
    auto problems = workload::generate_problems(1, params, cfg.seed);
    auto sim = workload::make_sim(problems[0]);
    fluid::PcgSolver warmup;
    for (int s = 0; s < 8; ++s) {
      sim.step(&warmup);
    }
    const fluid::GridF& rhs = sim.last_rhs();

    util::Table table({"Solver", "Iterations", "Residual", "Time (ms)",
                       "MFLOP"});
    for (const auto& entry : solvers) {
      auto solver = entry.make();
      fluid::GridF p(grid, grid, 0.0f);
      const auto stats = solver->solve(sim.flags(), rhs, &p);
      table.add_row({entry.name, std::to_string(stats.iterations),
                     util::fmt_sci(stats.residual, 2),
                     util::fmt(stats.seconds * 1e3, 2),
                     util::fmt(static_cast<double>(stats.flops) / 1e6, 1)});
    }
    std::printf("\n");
    table.print("Pressure solve, " + std::to_string(grid) + "x" +
                std::to_string(grid) + " grid (tolerance 1e-6):");
  }
  return 0;
}
