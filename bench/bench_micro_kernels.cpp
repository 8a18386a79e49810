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
#include "modelgen/arch_spec.hpp"
#include "nn/conv2d.hpp"
#include "nn/im2col.hpp"
#include "nn/kernels/isa.hpp"
#include "nn/workspace.hpp"
#include "util/thread_pool.hpp"

#include <benchmark/benchmark.h>
#include <omp.h>

#include <chrono>
#include <functional>
#include <map>
#include <string>
#include <string_view>
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
  conv.forward_packed_into(input, out, ws);  // Warm workspace + pack cache.
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

void BM_ConvPackedBf16(benchmark::State& state) {
  const SingleThreadScope st;
  const int n = static_cast<int>(state.range(0));
  nn::Conv2D conv(16, 16, 3);
  const nn::Tensor input = random_input(16, n, 11);
  nn::Workspace ws;
  nn::Tensor out;
  conv.forward_packed_into(input, out, ws, nn::Precision::kBf16);
  for (auto _ : state) {
    conv.forward_packed_into(input, out, ws, nn::Precision::kBf16);
    benchmark::DoNotOptimize(out.data().data());
  }
  const double flops = 2.0 * 16 * 16 * 9 * n * n;
  state.counters["GFLOPS"] = benchmark::Counter(
      flops, benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}
BENCHMARK(BM_ConvPackedBf16)->Arg(64)->Arg(128)->Arg(256);

void BM_ConvPackedInt8(benchmark::State& state) {
  const SingleThreadScope st;
  const int n = static_cast<int>(state.range(0));
  nn::Conv2D conv(16, 16, 3);
  const nn::Tensor input = random_input(16, n, 11);
  nn::Workspace ws;
  nn::Tensor out;
  conv.forward_packed_into(input, out, ws, nn::Precision::kInt8);
  for (auto _ : state) {
    conv.forward_packed_into(input, out, ws, nn::Precision::kInt8);
    benchmark::DoNotOptimize(out.data().data());
  }
  const double flops = 2.0 * 16 * 16 * 9 * n * n;
  state.counters["GFLOPS"] = benchmark::Counter(
      flops, benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}
BENCHMARK(BM_ConvPackedInt8)->Arg(64)->Arg(128)->Arg(256);

void BM_Im2col(benchmark::State& state) {
  const SingleThreadScope st;
  const int n = static_cast<int>(state.range(0));
  const int c = 16;
  const int k = 3;
  const nn::Tensor input = random_input(c, n, 31);
  std::vector<float> col(static_cast<std::size_t>(c) * k * k * n * n);
  for (auto _ : state) {
    nn::im2col(input.data().data(), c, n, n, k, col.data());
    benchmark::DoNotOptimize(col.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(col.size()) * 4);
}
BENCHMARK(BM_Im2col)->Arg(64)->Arg(128);

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
  util::ThreadPool pool;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.forward_batch(inputs, pool));
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

void BM_Advection(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto flags = make_flags(n);
  fluid::MacGrid2 vel(n, n);
  vel.fill(0.3f, 0.2f);
  fluid::GridF src(n, n, 0.5f);
  fluid::GridF dst(n, n, 0.0f);
  for (auto _ : state) {
    fluid::advect_scalar(vel, flags, 0.05, src, &dst);
    benchmark::DoNotOptimize(dst);
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_Advection)->Arg(64)->Arg(128);

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

/// Median-of-repeats seconds per call; each repeat batches enough calls to
/// clear timer noise.
double time_kernel(const std::function<void()>& fn) {
  using clock = std::chrono::steady_clock;
  fn();  // Warm caches, workspace, pack.
  int batch = 1;
  for (;;) {
    const auto t0 = clock::now();
    for (int i = 0; i < batch; ++i) fn();
    const double elapsed = std::chrono::duration<double>(clock::now() - t0)
                               .count();
    if (elapsed > 0.025) {
      return elapsed / batch;
    }
    batch *= 2;
  }
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

  std::vector<Isa> isas = {Isa::kScalar};
  if (nn::kernels::detected_isa() != Isa::kScalar) {
    isas.push_back(nn::kernels::detected_isa());
  }

  for (const int n : grids) {
    nn::Conv2D conv(16, 16, 3);
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

    for (const Isa isa : isas) {
      nn::kernels::set_isa_override(isa);
      const std::string name = nn::kernels::isa_name(isa);
      push("packed_f32", name, time_kernel([&] {
             conv.forward_packed_into(input, out, ws);
           }));
      push("packed_bf16", name, time_kernel([&] {
             conv.forward_packed_into(input, out, ws, nn::Precision::kBf16);
           }));
      push("packed_int8", name, time_kernel([&] {
             conv.forward_packed_into(input, out, ws, nn::Precision::kInt8);
           }));
    }
    nn::kernels::reset_isa_override();
  }
  return rows;
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

  util::Table provenance({"detected_isa", "active_isa", "omp_max_threads"});
  provenance.add_row({nn::kernels::isa_name(nn::kernels::detected_isa()),
                      nn::kernels::isa_name(nn::kernels::active_isa()),
                      std::to_string(omp_get_max_threads())});

  bench::write_json("BENCH_kernels.json", cfg,
                    {{"conv_algos", &table},
                     {"speedup", &speedup},
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
