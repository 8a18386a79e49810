// Command-line driver for the Smart-fluidnet pipeline.
//
//   sfn_cli prepare --dir=models [--grid=32] [--models=paper|bench|tiny]
//                   [--q=0.02] [--t=10] [--seed=42]
//       Run the offline phase (construct + train + Pareto + MLP + select +
//       quality DB) and persist everything under --dir.
//
//   sfn_cli inspect --dir=models
//       Print the model library, the Pareto front, the selected runtime
//       set with MLP probabilities, and quality-database statistics.
//
//   sfn_cli simulate --dir=models [--grid=64] [--steps=32] [--seed=7]
//                    [--mode=adaptive|pcg|fixed]
//       Run one generated input problem and report time, quality loss vs
//       the PCG reference, and (adaptive mode) the switch trace.
//
// Everything is deterministic given --seed.

#include "core/persistence.hpp"
#include "core/smart_fluidnet.hpp"
#include "fluid/operators.hpp"
#include "fluid/pcg.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/config.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

#include <cstdio>
#include <cstring>
#include <map>
#include <string>

namespace {

using namespace sfn;

/// --name=value parser (string map; missing keys fall back to defaults).
std::map<std::string, std::string> parse_args(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      continue;
    }
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      args[arg.substr(2)] = std::string("1");
    } else {
      args[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
  return args;
}

std::string get(const std::map<std::string, std::string>& args,
                const std::string& key, const std::string& fallback) {
  const auto it = args.find(key);
  return it == args.end() ? fallback : it->second;
}

int cmd_prepare(const std::map<std::string, std::string>& args) {
  core::OfflineConfig config;
  const std::string preset = get(args, "models", "bench");
  if (preset == "tiny") {
    config = core::OfflineConfig::tiny();
  } else if (preset == "paper") {
    config = core::OfflineConfig::paper_scale();
  }  // "bench": defaults.
  config.grid = std::stoi(get(args, "grid", std::to_string(config.grid)));
  config.seed = std::stoull(get(args, "seed", "42"));

  core::UserRequirement requirement;
  requirement.quality_loss = std::stod(get(args, "q", "0.02"));
  requirement.seconds = std::stod(get(args, "t", "10"));

  const std::string dir = get(args, "dir", "sfn_models");
  std::printf("preparing model library (preset %s, grid %d, seed %llu) -> "
              "%s\n",
              preset.c_str(), config.grid,
              static_cast<unsigned long long>(config.seed), dir.c_str());
  const util::Timer timer;
  const auto artifacts = core::SmartFluidnet::prepare(config, requirement);
  core::save_artifacts(artifacts, dir);
  std::printf("done in %.1fs: %zu models, %zu Pareto, %zu selected\n",
              timer.seconds(), artifacts.library.size(),
              artifacts.pareto_ids.size(), artifacts.selected_ids.size());
  return 0;
}

int cmd_inspect(const std::map<std::string, std::string>& args) {
  const auto artifacts = core::load_artifacts(get(args, "dir", "sfn_models"));
  std::printf("requirement: q = %.4f, t = %.3fs; PCG mean %.3fs\n\n",
              artifacts.requirement.quality_loss,
              artifacts.requirement.seconds, artifacts.pcg_mean_seconds);

  util::Table table({"Id", "Origin", "Layers", "Params", "Mean Qloss",
                     "Mean time (s)", "Pareto", "Selected"});
  const auto on = [](const std::vector<std::size_t>& ids, std::size_t id) {
    return std::find(ids.begin(), ids.end(), id) != ids.end();
  };
  for (std::size_t id = 0; id < artifacts.library.size(); ++id) {
    const auto& m = artifacts.library[id];
    table.add_row({std::to_string(id), m.origin,
                   std::to_string(m.spec.layer_count()),
                   std::to_string(m.net.param_count()),
                   util::fmt(m.mean_quality, 4),
                   util::fmt(m.mean_seconds, 3),
                   on(artifacts.pareto_ids, id) ? "*" : "",
                   on(artifacts.selected_ids, id) ? "*" : ""});
  }
  table.print("Model library:");

  std::printf("\nquality database: %zu (CumDivNorm_final, Qloss) pairs",
              artifacts.quality_db.size());
  if (!artifacts.quality_db.empty()) {
    const auto& entries = artifacts.quality_db.entries();
    std::printf(", keys [%.3g, %.3g]", entries.front().first,
                entries.back().first);
  }
  std::printf("\nMLP training: %zu epochs, final loss %.5f\n",
              artifacts.mlp_curve.train_loss.size(),
              artifacts.mlp_curve.train_loss.empty()
                  ? 0.0
                  : artifacts.mlp_curve.train_loss.back());
  return 0;
}

int cmd_simulate(const std::map<std::string, std::string>& args) {
  const auto artifacts = core::load_artifacts(get(args, "dir", "sfn_models"));
  workload::ProblemSetParams params;
  params.grid = std::stoi(get(args, "grid", "64"));
  params.steps = std::stoi(get(args, "steps", "32"));
  const auto seed = std::stoull(get(args, "seed", "7"));
  const auto problems = workload::generate_problems(1, params, seed);
  const auto& problem = problems.front();
  const std::string mode = get(args, "mode", "adaptive");

  std::printf("problem: %dx%d, %d steps, seed %llu, mode %s\n", params.grid,
              params.grid, params.steps,
              static_cast<unsigned long long>(seed), mode.c_str());

  util::Timer timer;
  fluid::PcgSolver pcg;
  const auto reference = workload::run_simulation(problem, &pcg);
  const double pcg_seconds = timer.seconds();
  std::printf("PCG reference: %.3fs\n", pcg_seconds);
  if (mode == "pcg") {
    return 0;
  }

  if (mode == "fixed") {
    // Most accurate selected model, fixed for the whole run.
    std::size_t best = artifacts.selected_ids.front();
    for (std::size_t id : artifacts.selected_ids) {
      if (artifacts.library[id].mean_quality <
          artifacts.library[best].mean_quality) {
        best = id;
      }
    }
    timer.reset();
    const auto result = core::run_fixed(problem, artifacts.library[best]);
    std::printf("fixed model %zu (%s): %.3fs (%.1fx), Qloss %.4f\n", best,
                artifacts.library[best].origin.c_str(), result.seconds,
                pcg_seconds / result.seconds,
                fluid::quality_loss(reference.final_density,
                                    result.final_density));
    return 0;
  }

  timer.reset();
  const auto result = core::SmartFluidnet::simulate(problem, artifacts);
  std::printf("adaptive: %.3fs (%.1fx), Qloss %.4f%s\n", result.seconds,
              pcg_seconds / result.seconds,
              fluid::quality_loss(reference.final_density,
                                  result.final_density),
              result.restarted_with_pcg ? " [restarted with PCG]" : "");
  for (const auto& e : result.events) {
    std::printf("  step %3d: %-16s Q'=%.4f (candidate %zu -> %zu)\n", e.step,
                runtime::to_string(e.decision).c_str(), e.predicted_quality,
                e.from_candidate, e.to_candidate);
  }
  std::printf("time per model:\n");
  for (const auto& [id, seconds] : result.seconds_per_model) {
    std::printf("  model %2zu: %.3fs (%s)\n", id, seconds,
                artifacts.library[id].origin.c_str());
  }

  // With SFN_TRACE=summary|full the run also carries obs telemetry:
  // surface the phase and metrics tables, and in full mode export the
  // chrome-trace timeline to SFN_TRACE_FILE.
  if (obs::trace_mode() != obs::TraceMode::kOff) {
    obs::phase_summary_table().print("\nPhase summary (SFN_TRACE):");
    obs::metrics_table().print("\nMetrics registry:");
    if (obs::trace_mode() == obs::TraceMode::kFull) {
      const std::string trace_path =
          util::env_str("SFN_TRACE_FILE", "sfn_trace.json");
      if (obs::write_chrome_trace_file(trace_path)) {
        std::printf("\nwrote chrome-trace timeline to %s "
                    "(open in chrome://tracing)\n",
                    trace_path.c_str());
      }
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: sfn_cli <prepare|inspect|simulate> [--key=value...]\n"
                 "see the header of examples/sfn_cli.cpp for details\n");
    return 2;
  }
  const auto args = parse_args(argc, argv);
  const std::string command = argv[1];
  try {
    if (command == "prepare") return cmd_prepare(args);
    if (command == "inspect") return cmd_inspect(args);
    if (command == "simulate") return cmd_simulate(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return 2;
}
