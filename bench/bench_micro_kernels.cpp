// Micro-kernel benchmarks (google-benchmark) for the hot paths every
// experiment rides on: CNN inference (Conv2D forward), the PCG pressure
// solve, semi-Lagrangian advection, divergence, and the DivNorm metric.
//
// These are the per-kernel numbers behind the macro results: the
// surrogate wins because one CNN pass costs O(cells) while PCG pays
// O(cells * iterations), with iterations growing with resolution.

#include "bench/common.hpp"
#include "core/neural_projection.hpp"
#include "fluid/advection.hpp"
#include "fluid/operators.hpp"
#include "fluid/pcg.hpp"
#include "fluid/smoke_sim.hpp"
#include "modelgen/arch_spec.hpp"
#include "nn/conv2d.hpp"
#include "nn/kernels/isa.hpp"
#include "nn/workspace.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/problems.hpp"
#include "workload/scenes.hpp"

#include <benchmark/benchmark.h>
#include <omp.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace {

using namespace sfn;

fluid::FlagGrid make_flags(int n) {
  fluid::FlagGrid flags(n, n, fluid::CellType::kFluid);
  flags.set_smoke_box_boundary();
  return flags;
}

fluid::GridF make_rhs(int n, std::uint64_t seed) {
  util::Rng rng(seed);
  fluid::GridF rhs(n, n, 0.0f);
  for (std::size_t k = 0; k < rhs.size(); ++k) {
    rhs[k] = static_cast<float>(rng.uniform(-0.05, 0.05));
  }
  return rhs;
}

void BM_Conv2DForward(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(1);
  auto net = modelgen::build_network(modelgen::tompson_spec(), rng);
  nn::Tensor input(nn::Shape{2, n, n}, 0.1f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.forward(input, false));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
  state.counters["MFLOP"] =
      static_cast<double>(net.flops(input.shape())) / 1e6;
}
BENCHMARK(BM_Conv2DForward)->Arg(32)->Arg(64)->Arg(96);

/// Pins OpenMP to one thread for the scope of a benchmark so the
/// naive-vs-packed comparison measures kernel quality, not parallelism.
class SingleThreadScope {
 public:
  SingleThreadScope() : old_(omp_get_max_threads()) { omp_set_num_threads(1); }
  ~SingleThreadScope() { omp_set_num_threads(old_); }
  SingleThreadScope(const SingleThreadScope&) = delete;
  SingleThreadScope& operator=(const SingleThreadScope&) = delete;

 private:
  int old_;
};

nn::Tensor random_input(int c, int n, std::uint64_t seed) {
  util::Rng rng(seed);
  nn::Tensor t(nn::Shape{c, n, n});
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

/// The acceptance shape for the inference fast path: 3x3, 16->16 channels
/// on an n x n grid, single thread. Naive and packed variants share this.
void BM_ConvNaive(benchmark::State& state) {
  const SingleThreadScope st;
  const int n = static_cast<int>(state.range(0));
  nn::Conv2D conv(16, 16, 3);
  const nn::Tensor input = random_input(16, n, 11);
  nn::Tensor out;
  for (auto _ : state) {
    conv.forward_naive_into(input, out);
    benchmark::DoNotOptimize(out.data().data());
  }
  const double flops = 2.0 * 16 * 16 * 9 * n * n;
  state.counters["GFLOPS"] = benchmark::Counter(
      flops, benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}
BENCHMARK(BM_ConvNaive)->Arg(64)->Arg(128)->Arg(256);

void BM_ConvPacked(benchmark::State& state) {
  const SingleThreadScope st;
  const int n = static_cast<int>(state.range(0));
  nn::Conv2D conv(16, 16, 3);
  const nn::Tensor input = random_input(16, n, 11);
  nn::Workspace ws;
  nn::Tensor out;
  conv.prepack();  // Time the served path, which reads a built pack.
  conv.forward_packed_into(input, out, ws);  // Warm the workspace.
  for (auto _ : state) {
    conv.forward_packed_into(input, out, ws);
    benchmark::DoNotOptimize(out.data().data());
  }
  const double flops = 2.0 * 16 * 16 * 9 * n * n;
  state.counters["GFLOPS"] = benchmark::Counter(
      flops, benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}
BENCHMARK(BM_ConvPacked)->Arg(64)->Arg(128)->Arg(256);

/// Batched multi-problem evaluation: the adaptive runtime scores many
/// candidate problems per decision, so cross-problem parallelism is the
/// lever (per-problem OpenMP is disabled inside pool workers).
void BM_ForwardBatch(benchmark::State& state) {
  const int n = 64;
  const auto batch = static_cast<std::size_t>(state.range(0));
  util::Rng rng(7);
  auto net = modelgen::build_network(modelgen::tompson_spec(), rng);
  std::vector<nn::Tensor> inputs;
  for (std::size_t i = 0; i < batch; ++i) {
    inputs.push_back(random_input(2, n, 100 + i));
  }
  std::vector<nn::Tensor> outputs(batch);
  std::vector<const nn::Tensor*> in_ptrs;
  std::vector<nn::Tensor*> out_ptrs;
  for (std::size_t i = 0; i < batch; ++i) {
    in_ptrs.push_back(&inputs[i]);
    out_ptrs.push_back(&outputs[i]);
  }
  util::ThreadPool pool;
  for (auto _ : state) {
    net.forward_batch(in_ptrs, out_ptrs, pool);
    benchmark::DoNotOptimize(outputs.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_ForwardBatch)->Arg(1)->Arg(8)->Arg(32);

void BM_PcgSolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto flags = make_flags(n);
  const auto rhs = make_rhs(n, 2);
  fluid::PcgSolver solver;
  int iterations = 0;
  for (auto _ : state) {
    fluid::GridF p(n, n, 0.0f);
    const auto stats = solver.solve(flags, rhs, &p);
    iterations = stats.iterations;
    benchmark::DoNotOptimize(p);
  }
  state.counters["iterations"] = iterations;
}
BENCHMARK(BM_PcgSolve)->Arg(32)->Arg(64)->Arg(96);

void BM_NeuralSolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto flags = make_flags(n);
  const auto rhs = make_rhs(n, 3);
  util::Rng rng(4);
  core::NeuralProjection solver(
      modelgen::build_network(modelgen::tompson_spec(), rng));
  for (auto _ : state) {
    fluid::GridF p(n, n, 0.0f);
    solver.solve(flags, rhs, &p);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_NeuralSolve)->Arg(32)->Arg(64)->Arg(96);

/// What a step's advection runs: density, then velocity, on a seeded
/// random n² field whose backtraces reach up to two cells, so the samples
/// next to the walls cross the border.
class AdvectionStep {
 public:
  explicit AdvectionStep(int n)
      : flags_(make_flags(n)),
        vel_(n, n),
        src_(n, n, 0.0f),
        dst_(n, n, 0.0f),
        vel_out_(n, n) {
    const double two_cells = 2.0 / (kDt * n);  // World speed of 2 cells/step.
    util::Rng rng(5);
    for (float& u : vel_.u().data()) {
      u = static_cast<float>(rng.uniform(-two_cells, two_cells));
    }
    for (float& v : vel_.v().data()) {
      v = static_cast<float>(rng.uniform(-two_cells, two_cells));
    }
    vel_.enforce_solid_boundaries(flags_);
    for (float& d : src_.data()) {
      d = static_cast<float>(rng.uniform(0.0, 1.0));
    }
  }

  void run(fluid::AdvectionScheme scheme) {
    fluid::advect_scalar(vel_, flags_, kDt, src_, &dst_, scheme);
    fluid::advect_velocity(vel_, flags_, kDt, &vel_out_, scheme);
    benchmark::DoNotOptimize(dst_);
    benchmark::DoNotOptimize(vel_out_);
  }

 private:
  static constexpr double kDt = 0.05;
  fluid::FlagGrid flags_;
  fluid::MacGrid2 vel_;
  fluid::GridF src_;
  fluid::GridF dst_;
  fluid::MacGrid2 vel_out_;
};

/// AdvectionStep under the scheme in range(1) (0 semi-Lagrangian, 1
/// MacCormack).
void BM_Advection(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto scheme = state.range(1) == 0
                          ? fluid::AdvectionScheme::kSemiLagrangian
                          : fluid::AdvectionScheme::kMacCormack;
  AdvectionStep step(n);
  for (auto _ : state) {
    step.run(scheme);
  }
  // Samples per step: n^2 cells, (n+1) n u faces, n (n+1) v faces.
  state.SetItemsProcessed(state.iterations() * (3 * n * n + 2 * n));
  state.SetLabel(state.range(1) == 0 ? "semi_lagrangian" : "maccormack");
}
BENCHMARK(BM_Advection)->ArgsProduct({{48, 128}, {0, 1}});

void BM_Divergence(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto flags = make_flags(n);
  fluid::MacGrid2 vel(n, n);
  vel.fill(0.3f, 0.2f);
  fluid::GridF div(n, n, 0.0f);
  for (auto _ : state) {
    fluid::divergence(vel, flags, &div);
    benchmark::DoNotOptimize(div);
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_Divergence)->Arg(64)->Arg(128);

void BM_DivNorm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto flags = make_flags(n);
  const auto dist = fluid::solid_distance_field(flags);
  fluid::MacGrid2 vel(n, n);
  vel.fill(0.3f, 0.2f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fluid::div_norm(vel, flags, dist, 3));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_DivNorm)->Arg(64)->Arg(128);

// ---------------------------------------------------------------------------
// Structured per-ISA / per-algo conv sweep (DESIGN.md §13). Unlike the
// google-benchmark registrations above (which run under whatever ISA the
// host detects), this sweep pins the kernel ISA explicitly so the scalar
// reference and the SIMD microkernels are measured side by side in one
// run, and mirrors the algo × grid × GFLOP/s table into BENCH_kernels.json
// with the detected ISA recorded as provenance.

/// Seconds per call: the median of five timings, each a batch of enough
/// calls to clear timer noise, taken after the kernel has run for
/// `settle_seconds` (and at least once, to warm caches, workspace and
/// pack). On a shared VM a team whose threads have just started, or whose
/// cores another tenant holds, can run at a small fraction of speed for a
/// second or more (48² forwards of 140–780 ms instead of 0.1–0.6 ms), so
/// team-wide rows settle longer than single-thread ones.
double time_kernel(const std::function<void()>& fn,
                   double settle_seconds = 0.25) {
  using clock = std::chrono::steady_clock;
  const auto seconds_since = [](clock::time_point t0) {
    return std::chrono::duration<double>(clock::now() - t0).count();
  };
  const auto settle_start = clock::now();
  do {
    fn();
  } while (seconds_since(settle_start) < settle_seconds);
  int batch = 1;
  for (;;) {
    const auto t0 = clock::now();
    for (int i = 0; i < batch; ++i) fn();
    if (seconds_since(t0) > 0.025) {
      break;
    }
    batch *= 2;
  }
  constexpr int kRepeats = 5;
  double per_call[kRepeats];
  for (double& sec : per_call) {
    const auto t0 = clock::now();
    for (int i = 0; i < batch; ++i) fn();
    sec = seconds_since(t0) / batch;
  }
  std::sort(per_call, per_call + kRepeats);
  return per_call[kRepeats / 2];
}

struct SweepRow {
  std::string algo;
  std::string isa;
  int grid = 0;
  double seconds = 0.0;
  double gflops = 0.0;
};

std::vector<SweepRow> run_conv_sweep() {
  using nn::kernels::Isa;
  const SingleThreadScope st;
  std::vector<SweepRow> rows;
  const int grids[] = {64, 128, 256};

  for (const int n : grids) {
    nn::Conv2D conv(16, 16, 3);
    conv.prepack();
    const nn::Tensor input = random_input(16, n, 11);
    nn::Workspace ws;
    nn::Tensor out;
    const double flops = 2.0 * 16 * 16 * 9 * n * n;
    const auto push = [&](const std::string& algo, const std::string& isa,
                          double sec) {
      rows.push_back({algo, isa, n, sec, flops / sec / 1e9});
    };

    // ISA-independent baselines (scalar C++, auto-vectorised by the
    // compiler the same way regardless of the kernel-ISA override).
    push("naive", "any",
         time_kernel([&] { conv.forward_naive_into(input, out); }));

    for (const Isa isa : nn::kernels::runnable_isas()) {
      nn::kernels::set_isa_override(isa);
      const std::string name = nn::kernels::isa_name(isa);
      push("packed_f32", name, time_kernel([&] {
             conv.forward_packed_into(input, out, ws);
           }));
    }
    nn::kernels::reset_isa_override();
  }
  return rows;
}

/// The default team and, when it is wider, one thread.
std::vector<int> team_widths() {
  const int team = omp_get_max_threads();
  std::vector<int> widths = {1};
  if (team > 1) {
    widths.push_back(team);
  }
  return widths;
}

/// Whole-network rows: a prepacked tompson(8) forward_inference on the
/// served (48²) and solo (128²) grids, on one thread and on the default
/// team, pinned to each ISA the host runs, so the conv's team scaling and
/// each kernel tier show side by side.
util::Table network_forward_table() {
  util::Rng rng(7);
  const auto net = modelgen::build_network(modelgen::tompson_spec(8), rng);
  net.prepack_for_inference();
  const int team = omp_get_max_threads();
  util::Table table(
      {"model", "isa", "grid", "threads", "ms_per_forward", "gflops"});
  for (const nn::kernels::Isa isa : nn::kernels::runnable_isas()) {
    nn::kernels::set_isa_override(isa);
    for (const int n : {48, 128}) {
      const nn::Tensor input = random_input(2, n, 13);
      const double flops = static_cast<double>(net.flops(input.shape()));
      for (const int threads : team_widths()) {
        omp_set_num_threads(threads);
        nn::Workspace ws;
        const double sec =
            time_kernel([&] { net.forward_inference(input, ws); }, 1.0);
        table.add_row({"tompson8", nn::kernels::isa_name(isa),
                       std::to_string(n), std::to_string(threads),
                       util::fmt(sec * 1e3, 4),
                       util::fmt(flops / sec / 1e9, 3)});
      }
    }
  }
  nn::kernels::reset_isa_override();
  omp_set_num_threads(team);
  return table;
}

/// Advection rows: an AdvectionStep (density and velocity) under both
/// schemes on the served (48²) and solo (128²) grids, on one thread and
/// on the default team.
util::Table advection_table() {
  const int team = omp_get_max_threads();
  util::Table table({"scheme", "grid", "threads", "ms_per_step"});
  for (const auto scheme : {fluid::AdvectionScheme::kSemiLagrangian,
                            fluid::AdvectionScheme::kMacCormack}) {
    const bool sl = scheme == fluid::AdvectionScheme::kSemiLagrangian;
    for (const int n : {48, 128}) {
      AdvectionStep step(n);
      for (const int threads : team_widths()) {
        omp_set_num_threads(threads);
        const double sec = time_kernel([&] { step.run(scheme); }, 1.0);
        table.add_row({sl ? "semi_lagrangian" : "maccormack",
                       std::to_string(n), std::to_string(threads),
                       util::fmt(sec * 1e3, 4)});
      }
    }
  }
  omp_set_num_threads(team);
  return table;
}

/// A "solver" that copies one fixed pressure field, so a step spends its
/// time on the passes around the solve alone.
class FixedPressure final : public fluid::PoissonSolver {
 public:
  explicit FixedPressure(fluid::GridF pressure)
      : pressure_(std::move(pressure)) {}
  fluid::SolveStats solve(const fluid::FlagGrid&, const fluid::GridF&,
                          fluid::GridF* pressure) override {
    *pressure = pressure_;
    return {};
  }
  [[nodiscard]] std::string name() const override { return "fixed"; }
  [[nodiscard]] const fluid::GridF& pressure() const { return pressure_; }

 private:
  fluid::GridF pressure_;
};

/// Non-solve step rows: a warm SmokeSim::step of a plume (advection,
/// forces, pins, projection rhs, gradient and clamp, DivNorm) whose
/// solver copies the pressure of an exact solve of the same state, on the
/// served (48²) and solo (128²) grids, on one thread and on the default
/// team. Each call first restores that state (the copy is timed too), so
/// every call advects the same flow: left to run on, the fixed pressure
/// stops projecting and the clamped velocities change the work.
util::Table step_nonsolve_table() {
  const int team = omp_get_max_threads();
  util::Table table({"pass", "grid", "threads", "ms_per_step"});
  for (const int n : {48, 128}) {
    workload::ProblemSetParams params;
    params.grid = n;
    const workload::InputProblem problem =
        workload::generate_problems(1, params, 17).front();
    for (const int threads : team_widths()) {
      omp_set_num_threads(threads);
      fluid::SmokeSim sim = workload::make_sim(problem);
      fluid::PcgSolver pcg;
      for (int step = 0; step < 8; ++step) {
        sim.step(&pcg);
      }
      const fluid::GridF density = sim.density();
      const fluid::MacGrid2 velocity = sim.velocity();
      sim.step(&pcg);
      FixedPressure fixed(sim.pressure());
      const double sec = time_kernel(
          [&] {
            sim.restore_state(density, fixed.pressure(), velocity, 0.0, 8);
            sim.step(&fixed);
          },
          1.0);
      table.add_row({"step_nonsolve", std::to_string(n),
                     std::to_string(threads), util::fmt(sec * 1e3, 4)});
    }
  }
  omp_set_num_threads(team);
  return table;
}

/// A PcgSolver that keeps a copy of the flags and rhs of every solve a
/// simulation hands it.
class RecordingSolver final : public fluid::PoissonSolver {
 public:
  struct Solve {
    fluid::FlagGrid flags;
    fluid::GridF rhs;
  };

  fluid::SolveStats solve(const fluid::FlagGrid& flags,
                          const fluid::GridF& rhs,
                          fluid::GridF* pressure) override {
    solves_.push_back({flags, rhs});
    return pcg_.solve(flags, rhs, pressure);
  }
  [[nodiscard]] std::string name() const override { return "recording"; }
  [[nodiscard]] const std::vector<Solve>& solves() const { return solves_; }

 private:
  fluid::PcgSolver pcg_;
  std::vector<Solve> solves_;
};

/// The solves of steps [first, first + count) of `problem` (0-based), as
/// its simulation handed them to the solver (zero initial guess).
std::vector<RecordingSolver::Solve> record_solves(
    const workload::InputProblem& problem, int first, int count) {
  fluid::SmokeSim sim = workload::make_sim(problem);
  RecordingSolver recorder;
  for (int step = 0; step < first + count; ++step) {
    sim.step(&recorder);
  }
  const auto& all = recorder.solves();
  return {all.begin() + first, all.end()};
}

/// PCG rows: 128² MIC(0) solves on one thread and on the default team.
/// "plume_cached" repeats the ninth step's solve of a plume, so the
/// stencil and factor stay cached; "moving_rebuild" runs the solves of
/// steps 9-16 of a moving-obstacle scene in turn, so every call's flags
/// differ from the previous call's and the solve rebuilds both. Each call
/// starts from a zero guess (the step's default); iterations are per solve.
util::Table pcg_solve_table() {
  constexpr int kGrid = 128;
  constexpr int kFirst = 8;
  const int team = omp_get_max_threads();
  workload::ProblemSetParams params;
  params.grid = kGrid;
  params.steps = 16;
  const struct {
    const char* name;
    std::vector<RecordingSolver::Solve> solves;
  } cases[] = {
      {"plume_cached",
       record_solves(workload::generate_problems(1, params, 17).front(),
                     kFirst, 1)},
      {"moving_rebuild",
       record_solves(
           workload::make_scene(workload::SceneFamily::kMovingObstacle, 17,
                                {kGrid, 16}),
           kFirst, 8)},
  };
  util::Table table({"case", "grid", "threads", "ms_per_solve", "iterations"});
  for (const auto& c : cases) {
    for (const int threads : team_widths()) {
      omp_set_num_threads(threads);
      fluid::PcgSolver solver;
      fluid::GridF p(kGrid, kGrid, 0.0f);
      int iterations = 0;
      const double sec = time_kernel(
          [&] {
            iterations = 0;
            for (const auto& solve : c.solves) {
              p.fill(0.0f);
              iterations += solver.solve(solve.flags, solve.rhs, &p).iterations;
            }
            benchmark::DoNotOptimize(p);
          },
          1.0);
      const double per_solve = static_cast<double>(c.solves.size());
      table.add_row({c.name, std::to_string(kGrid), std::to_string(threads),
                     util::fmt(sec / per_solve * 1e3, 4),
                     util::fmt(iterations / per_solve, 4)});
    }
  }
  omp_set_num_threads(team);
  return table;
}

void report_conv_sweep(const util::BenchConfig& cfg) {
  const auto rows = run_conv_sweep();

  util::Table table({"algo", "isa", "grid", "ms_per_conv", "gflops"});
  std::map<int, double> naive_gflops;
  std::map<int, double> best_packed_gflops;
  for (const auto& r : rows) {
    table.add_row({r.algo, r.isa, std::to_string(r.grid),
                   util::fmt(r.seconds * 1e3, 4), util::fmt(r.gflops, 3)});
    if (r.algo == "naive") {
      naive_gflops[r.grid] = r.gflops;
    }
    if (r.algo == "packed_f32" && r.gflops > best_packed_gflops[r.grid]) {
      best_packed_gflops[r.grid] = r.gflops;
    }
  }
  table.print("Conv 16->16 3x3, per-algo / per-ISA (single thread)");

  // Packed f32 vs the naive per-tap loop at each grid, on the best ISA the
  // host offers.
  util::Table speedup({"grid", "naive_gflops", "packed_gflops",
                       "speedup_packed_vs_naive"});
  for (const auto& [grid, packed] : best_packed_gflops) {
    const double naive = naive_gflops[grid];
    speedup.add_row({std::to_string(grid), util::fmt(naive, 3),
                     util::fmt(packed, 3),
                     util::fmt(naive > 0.0 ? packed / naive : 0.0, 2)});
  }
  speedup.print("Packed microkernel speedup over the naive conv");

  const util::Table network = network_forward_table();
  network.print("Prepacked tompson(8) forward_inference (whole network)");

  const util::Table advection = advection_table();
  advection.print("Advection of density and velocity (one step's worth)");

  const util::Table step = step_nonsolve_table();
  step.print("SmokeSim::step around a fixed-pressure solver (non-solve work)");

  const util::Table pcg = pcg_solve_table();
  pcg.print("MIC(0)-PCG solves at 128^2 (cached factor, rebuilt factor)");

  util::Table provenance({"detected_isa", "active_isa", "omp_max_threads"});
  provenance.add_row({nn::kernels::isa_name(nn::kernels::detected_isa()),
                      nn::kernels::isa_name(nn::kernels::active_isa()),
                      std::to_string(omp_get_max_threads())});

  bench::write_json("BENCH_kernels.json", cfg,
                    {{"conv_algos", &table},
                     {"speedup", &speedup},
                     {"network_forward", &network},
                     {"advection", &advection},
                     {"step_nonsolve", &step},
                     {"pcg_solve", &pcg},
                     {"provenance", &provenance}});
}

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): run the google-benchmark suite
// (raw JSON mirrored to BENCH_kernels_gbench.json unless the caller asked
// for a --benchmark_out file), then the pinned-ISA conv sweep whose
// structured algo × grid × GFLOP/s table lands in BENCH_kernels.json so
// the packed-vs-naive comparison can be checked by scripts and tracked
// across commits without re-parsing formatted tables.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).starts_with("--benchmark_out=")) {
      has_out = true;
    }
  }
  std::string out_flag = "--benchmark_out=BENCH_kernels_gbench.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();

  const sfn::util::BenchConfig cfg =
      sfn::util::BenchConfig::from_args(argc, argv);
  report_conv_sweep(cfg);

  benchmark::Shutdown();
  return 0;
}
