// Benchmark binary: builds the candidate ladder (several times, to time
// set-up and to check it is reproducible), runs one workload, checks its
// outputs and prints every raw measurement as one JSON line. perfbench/run.py
// turns that line into the named metrics.
//
//   sfn_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>

#include "ladder.hpp"
#include "workloads.hpp"

#include "nn/kernels/isa.hpp"
#include "runtime/fallback.hpp"
#include "serve/session_server.hpp"
#include "util/config.hpp"

#include <omp.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>

namespace {

using namespace perfbench;

// The ladder is the deployed model set: fixed across runs, so the run seed
// varies only the workload's inputs.
constexpr std::uint64_t kLadderSeed = 1234;
constexpr int kSetupRepeats = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
      have[0] = true;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
      have[1] = true;
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
      have[2] = true;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      args.trace = value == "1";
      have[3] = true;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (argc % 2 == 0 || !(have[0] && have[1] && have[2] && have[3])) {
    throw std::invalid_argument(
        "usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>");
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    throw std::invalid_argument("unknown workload '" + args.workload + "'");
  }
  if (!(args.seconds > 0.0 && args.seconds <= 600.0)) {
    throw std::invalid_argument("--seconds must be in (0, 600]");
  }
  return args;
}

/// Minimal JSON emitter: numbers at full precision, no pretty-printing.
class Json {
 public:
  Json() { out_.precision(17); }
  Json& open(const char* key = nullptr) { return token(key, "{"); }
  Json& close() { return end('}'); }
  Json& open_array(const char* key = nullptr) { return token(key, "["); }
  Json& close_array() { return end(']'); }
  template <typename T>
  Json& value(const char* key, T v) {
    prefix(key);
    if constexpr (std::is_floating_point_v<T>) {
      if (!std::isfinite(v)) {
        out_ << "NaN";  // Python's json reads it; run.py flags it.
        return *this;
      }
    }
    out_ << v;
    return *this;
  }
  Json& str(const char* key, const std::string& v) {
    prefix(key);
    out_ << '"';
    for (const char c : v) {
      if (c == '"' || c == '\\') {
        out_ << '\\';
      }
      if (static_cast<unsigned char>(c) >= 0x20) {
        out_ << c;
      }
    }
    out_ << '"';
    return *this;
  }
  [[nodiscard]] std::string text() const { return out_.str(); }

 private:
  void prefix(const char* key) {
    if (need_comma_) {
      out_ << ',';
    }
    need_comma_ = true;
    if (key != nullptr) {
      out_ << '"' << key << "\":";
    }
  }
  Json& token(const char* key, const char* t) {
    prefix(key);
    out_ << t;
    need_comma_ = false;
    return *this;
  }
  Json& end(char c) {
    out_ << c;
    need_comma_ = true;
    return *this;
  }
  std::ostringstream out_;
  bool need_comma_ = false;
};

const char* status_name(JobRecord::Status s) {
  switch (s) {
    case JobRecord::Status::kOk:
      return "ok";
    case JobRecord::Status::kError:
      return "error";
    case JobRecord::Status::kRejected:
      return "rejected";
    case JobRecord::Status::kNonFinite:
      return "nonfinite";
  }
  return "error";
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

void provenance(Json* j, const Args& args) {
  const auto info = sfn::util::build_info();
  const auto server = sfn::serve::ServerConfig::from_env();
  const auto guard = sfn::runtime::GuardParams::from_env();
  j->open("provenance")
      .value("nproc", std::thread::hardware_concurrency())
      .str("kernel_isa",
           sfn::nn::kernels::isa_name(sfn::nn::kernels::active_isa()))
      .value("omp_max_threads", omp_get_max_threads())
      .str("git_sha", info.git_sha)
      .str("build_type", info.build_type)
      .value("seed", args.seed);
  // Every SFN_* variable set; run.py clears them, so an entry here means
  // the run was not on code defaults.
  j->open("sfn_env");
  for (char** env = environ; *env != nullptr; ++env) {
    const std::string entry = *env;
    const auto eq = entry.find('=');
    if (entry.rfind("SFN_", 0) == 0 && eq != std::string::npos) {
      j->str(entry.substr(0, eq).c_str(), entry.substr(eq + 1));
    }
  }
  j->close();
  // Effective values of the knobs the workloads depend on.
  j->open("effective")
      .str("sched", server.sched == sfn::serve::ServerConfig::Sched::kCoop
                        ? "coop"
                        : "threads")
      .value("slice_steps", server.slice_steps)
      .value("queue_capacity", server.queue_capacity)
      .value("coalesce", server.coalesce ? 1 : 0)
      .value("batch_max", server.batch.batch_max)
      .value("batch_wait_us", server.batch.batch_wait_us)
      .value("degraded_shedding", server.degraded_shedding ? 1 : 0)
      .value("result_cache_entries", server.result_cache_entries)
      .value("guard_enabled", guard.enabled ? 1 : 0)
      .close();
  j->close();
}

void emit_window(Json* j, const Window& w) {
  j->open().value("traced", w.traced ? 1 : 0).value("wall_s", w.wall_s);
  j->open_array("jobs");
  for (const auto& job : w.jobs) {
    j->open()
        .str("status", status_name(job.status))
        .value("latency_s", job.latency_s)
        .value("service_s", job.service_s)
        .value("cell_steps", job.cell_steps)
        .value("steps_executed", job.steps_executed)
        .value("discarded_steps", job.discarded_steps)
        .value("restarted", job.restarted ? 1 : 0)
        .value("fallback_steps", job.fallback_steps)
        .value("switches", job.switches)
        .value("quarantines", job.quarantines)
        .value("pcg_s", job.pcg_s)
        .close();
  }
  j->close_array();
  j->open_array("step_s");
  for (const double s : w.step_s) {
    j->value(nullptr, s);
  }
  j->close_array();
  j->open_array("solves");
  for (const auto& s : w.solves) {
    j->open_array()
        .value(nullptr, s.seconds)
        .value(nullptr, s.iterations)
        .value(nullptr, s.flops)
        .value(nullptr, s.neural ? 1 : 0)
        .close_array();
  }
  j->close_array();
  j->open_array("forwards");
  for (const auto& f : w.forwards) {
    j->open_array().value(nullptr, f.seconds).value(nullptr, f.flops).close_array();
  }
  j->close_array();
  j->value("pcg_solves", w.pcg_solves)
      .value("pcg_iterations", w.pcg_iterations)
      .value("offered_per_s", w.offered_per_s)
      .value("lag_max_s", w.lag_max_s)
      .value("batches", w.batches)
      .value("requests_batched", w.requests_batched)
      .value("requests_inline", w.requests_inline)
      .value("queue_high_water", w.queue_high_water)
      .value("degraded", w.degraded)
      .close();
}

int run(const Args& args) {
  Json j;
  j.open()
      .str("workload", args.workload)
      .value("seed", args.seed)
      .value("seconds", args.seconds)
      .value("trace", args.trace ? 1 : 0);
  provenance(&j, args);

  // Independent set-ups: the median is the set-up time, and every one must
  // reproduce the same ladder bit for bit. They train on every core even
  // when the workload runs fewer OpenMP threads (run.py pins serve_open to
  // one per session), so set-up time means the same on every workload.
  const int workload_threads = omp_get_max_threads();
  omp_set_num_threads(omp_get_num_procs());
  Ladder ladder;
  j.open_array("setups");
  for (int r = 0; r < kSetupRepeats; ++r) {
    Ladder built = build_ladder(kLadderSeed);
    j.open()
        .value("total_s", built.total_s)
        .value("train_s", built.train_s)
        .value("quality_db_s", built.quality_db_s)
        .value("prepack_s", built.prepack_s)
        .str("ladder_hash", hex(built.hash))
        .close();
    if (r == 0) {
      ladder = std::move(built);
    }
  }
  j.close_array();
  omp_set_num_threads(workload_threads);
  j.value("q", ladder.artifacts.requirement.quality_loss);
  j.str("model", ladder.artifacts.library[ladder.most_accurate].spec.name);

  const auto out = run_workload(args.workload, ladder, args.seed,
                                args.seconds, args.trace);
  j.open_array("windows");
  for (const auto& w : out.windows) {
    emit_window(&j, w);
  }
  j.close_array();
  j.open("checks").open_array("qloss");
  for (const double q : out.checks.qloss) {
    j.value(nullptr, q);
  }
  j.close_array()
      .value("solo_rerun_identical", out.checks.solo_rerun_identical)
      .value("solo_rerun_mismatch", out.checks.solo_rerun_mismatch)
      .close();

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  j.value("peak_rss_kb", usage.ru_maxrss).close();
  std::cout << j.text() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "sfn_perfbench: " << e.what() << "\n";
    return 2;
  }
}
