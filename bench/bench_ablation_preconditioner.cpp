// Ablation — preconditioner choice for the pressure solve.
//
// The paper's baseline is mantaflow's MICCG(0) (Algorithm 1, line 10).
// This ablation quantifies why: iterations and wall time of MIC(0) vs
// IC(0) vs Jacobi vs unpreconditioned CG vs geometric multigrid on the
// same mid-simulation pressure systems across grid sizes.

#include "bench/common.hpp"
#include "fluid/multigrid.hpp"
#include "fluid/pcg.hpp"

#include <functional>
#include <memory>

int main(int argc, char** argv) {
  using namespace sfn;
  const auto cfg = util::BenchConfig::from_args(argc, argv);
  bench::banner("Ablation — pressure-solver preconditioner",
                "design choice behind paper Algorithm 1 line 10", cfg);

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
  };

  // Per-grid tables stay alive past the loop so they can all be mirrored
  // into one BENCH_ablation_preconditioner.json at the end.
  std::vector<std::pair<std::string, util::Table>> per_grid;
  for (const int grid : bench::grid_sweep(cfg)) {
    workload::ProblemSetParams params;
    params.grid = grid;
    params.steps = 8;
    auto problems = workload::generate_problems(1, params, cfg.seed + 70);
    auto sim = workload::make_sim(problems[0]);
    fluid::PcgSolver warmup;
    for (int s = 0; s < 8; ++s) {
      sim.step(&warmup);
    }
    const fluid::GridF& rhs = sim.last_rhs();

    util::Table table({"Solver", "Iterations", "Time (ms)", "MFLOP"});
    int mic_iters = 0;
    int cg_iters = 0;
    for (const auto& entry : solvers) {
      auto solver = entry.make();
      fluid::GridF p(grid, grid, 0.0f);
      const auto stats = solver->solve(sim.flags(), rhs, &p);
      table.add_row({entry.name, std::to_string(stats.iterations),
                     util::fmt(stats.seconds * 1e3, 2),
                     util::fmt(static_cast<double>(stats.flops) / 1e6, 1)});
      if (entry.name == "MICCG(0)") mic_iters = stats.iterations;
      if (entry.name == "CG") cg_iters = stats.iterations;
    }
    table.print("Grid " + std::to_string(grid) + "x" + std::to_string(grid) +
                " (tolerance 1e-6):");
    std::printf("MIC(0) iteration advantage over plain CG: %.1fx\n\n",
                static_cast<double>(cg_iters) / std::max(1, mic_iters));
    per_grid.emplace_back("grid" + std::to_string(grid), std::move(table));
  }

  std::vector<std::pair<std::string, const util::Table*>> tables;
  tables.reserve(per_grid.size());
  for (const auto& [name, table] : per_grid) {
    tables.emplace_back(name, &table);
  }
  bench::write_json("BENCH_ablation_preconditioner.json", cfg, tables);
  return 0;
}
