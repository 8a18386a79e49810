#include "workloads.hpp"

#include "core/stepper.hpp"
#include "fluid/operators.hpp"
#include "fluid/pcg.hpp"
#include "obs/metrics.hpp"
#include "serve/session_server.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "workload/evaluate.hpp"
#include "workload/scenes.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <optional>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

using namespace sfn;
using Clock = std::chrono::steady_clock;

// Job sizes (about 300 ms) put about 65 jobs in a 20 s closed-loop run
// (tail p75, which needs 40-99 jobs), away from both ends so that the
// host's speed swings and a modest speed-up or slow-down keep the tail at
// the same percentile. Long jobs keep the tail near the body of the
// distribution: with 55 ms jobs (about 400 per run, tail p95) a single
// host stall moved the tail, whose ten-seed spread reached 0.47.
// surrogate_solo: nn forward and the fluid non-solve work split the time.
constexpr int kSoloGrid = 128;
constexpr int kSoloSteps = 44;
// pcg_exact: the exact MIC(0)-PCG solve dominates; half the jobs move an
// obstacle, which rebuilds the preconditioner every step.
constexpr int kPcgGrid = 128;
constexpr int kPcgSteps = 6;
// serve_open: short adaptive sessions at light load. On a 4-core x86
// (AVX2) machine shared with other tenants, loads that kept two or more
// sessions busy (48^2 at 20-40 jobs/s, 64^2 x 32 steps at 8-16 jobs/s)
// made latency swing by 20% to 10x between runs as the host slowed and
// the backlog fed on itself. At this rate the spread stays a few percent.
// 190 jobs per 20 s run leave 19 samples beyond the p90 tail. Sixteen
// steps allow two controller check points, so sessions switch models but
// (at the ladder's q) never restart into PCG.
constexpr int kServeGrid = 48;
constexpr int kServeSteps = 16;
constexpr double kServeRate = 9.5;  ///< Jobs per second, open loop.

// Correctness sample sizes (PCG references are computed outside both the
// set-up and the timed part).
constexpr std::size_t kSoloQuality = 6;
constexpr std::size_t kPcgQuality = 2;
constexpr std::size_t kServeQuality = 6;
constexpr std::size_t kServeReruns = 3;

std::uint64_t mix(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + i + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

workload::InputProblem plume(std::uint64_t seed, int grid, int steps) {
  workload::ProblemSetParams params;
  params.grid = grid;
  params.steps = steps;
  return workload::generate_problems(1, params, seed).front();
}

using ProblemMaker = std::function<workload::InputProblem(std::size_t)>;

ProblemMaker problem_maker(const std::string& name, std::uint64_t seed) {
  if (name == "surrogate_solo") {
    return [seed](std::size_t i) {
      return plume(mix(seed, i), kSoloGrid, kSoloSteps);
    };
  }
  if (name == "pcg_exact") {
    return [seed](std::size_t i) {
      if (i % 2 == 0) {
        return plume(mix(seed, i), kPcgGrid, kPcgSteps);
      }
      return workload::make_scene(workload::SceneFamily::kMovingObstacle,
                                  mix(seed, i), {kPcgGrid, kPcgSteps});
    };
  }
  return [seed](std::size_t i) {
    const auto families = workload::all_scene_families();
    const std::size_t pick = i % (families.size() + 1);
    if (pick == families.size()) {
      return plume(mix(seed, i), kServeGrid, kServeSteps);
    }
    return workload::make_scene(families[pick], mix(seed, i),
                                {kServeGrid, kServeSteps});
  };
}

bool finite(const fluid::GridF& grid) {
  return util::all_finite(grid.data().data(), grid.size());
}

JobRecord job_from_result(const core::SessionResult& result,
                          const workload::InputProblem& problem) {
  JobRecord job;
  job.status = finite(result.final_density) ? JobRecord::Status::kOk
                                            : JobRecord::Status::kNonFinite;
  job.service_s = result.seconds;
  job.cell_steps = static_cast<double>(problem.nx) * problem.ny * problem.steps;
  job.restarted = result.restarted_with_pcg;
  for (const auto& event : result.events) {
    if (event.decision == runtime::Decision::kSwitchFaster ||
        event.decision == runtime::Decision::kSwitchAccurate) {
      ++job.switches;
    } else if (event.decision == runtime::Decision::kRestartPcg &&
               result.restarted_with_pcg) {
      job.discarded_steps = event.step + 1;
    }
  }
  job.steps_executed = problem.steps + job.discarded_steps;
  job.fallback_steps = result.fallback_steps;
  job.quarantines = static_cast<int>(result.quarantined_models.size());
  const auto pcg = result.seconds_per_model.find(core::SessionResult::kPcgModelId);
  job.pcg_s = pcg == result.seconds_per_model.end() ? 0.0 : pcg->second;
  return job;
}

JobRecord failed_job(JobRecord::Status status) {
  JobRecord job;
  job.status = status;
  return job;
}

/// Jobs whose outputs the correctness checks revisit.
struct Kept {
  std::vector<workload::InputProblem> problems;
  std::vector<fluid::GridF> finals;
  /// Served jobs shed to a fixed session: the model they ran on.
  std::vector<std::optional<std::size_t>> fixed_model;

  void add(const workload::InputProblem& problem, fluid::GridF final_density,
           std::size_t limit, std::optional<std::size_t> model = std::nullopt) {
    if (problems.size() < limit) {
      problems.push_back(problem);
      finals.push_back(std::move(final_density));
      fixed_model.push_back(model);
    }
  }
};

struct PcgCounters {
  std::uint64_t solves = obs::counter("pcg.solves").value();
  std::uint64_t iterations = obs::counter("pcg.iterations").value();

  void delta_into(Window* window) const {
    window->pcg_solves = obs::counter("pcg.solves").value() - solves;
    window->pcg_iterations =
        obs::counter("pcg.iterations").value() - iterations;
  }
};

/// Closed loop, one client: the next job starts when the previous ended.
Window solo_window(const std::string& name, const Ladder& ladder,
                   const ProblemMaker& make, double seconds, bool traced,
                   Kept* kept, std::size_t keep) {
  const auto& model = ladder.artifacts.library[ladder.most_accurate];
  Window window;
  window.traced = traced;
  SolveRecorder recorder;
  TimedSink sink;
  const PcgCounters counters;
  const util::Timer wall;
  for (std::size_t i = 0; wall.seconds() < seconds; ++i) {
    const auto problem = make(i);
    const util::Timer job_timer;
    try {
      if (name == "pcg_exact") {
        std::unique_ptr<fluid::PoissonSolver> solver =
            std::make_unique<fluid::PcgSolver>();
        if (traced) {
          solver = recorder.wrap(std::move(solver), false);
        }
        auto run = workload::run_simulation(problem, solver.get());
        JobRecord job;
        job.latency_s = job_timer.seconds();
        job.service_s = job.latency_s;
        job.status = finite(run.final_density) ? JobRecord::Status::kOk
                                               : JobRecord::Status::kNonFinite;
        job.steps_executed = problem.steps;
        job.cell_steps =
            static_cast<double>(problem.nx) * problem.ny * problem.steps;
        job.pcg_s = job.latency_s;
        if (traced) {
          for (const auto& t : run.telemetry) {
            window.step_s.push_back(t.step_seconds);
          }
        }
        window.jobs.push_back(job);
        kept->add(problem, std::move(run.final_density), keep);
        continue;
      }
      core::SessionResult result;
      if (!traced) {
        result = core::run_fixed(problem, model);
      } else {
        core::SessionConfig config;
        config.solver_decorator = recorder.decorator();
        config.inference_sink = &sink;
        core::SessionStepper stepper(problem, model, config);
        for (;;) {
          const util::Timer step_timer;
          const auto status = stepper.step();
          window.step_s.push_back(step_timer.seconds());
          if (status != core::SessionStepper::Status::kRunning) {
            break;
          }
        }
        stepper.rethrow_error();
        result = stepper.take_result();
      }
      JobRecord job = job_from_result(result, problem);
      job.latency_s = job_timer.seconds();
      window.jobs.push_back(job);
      kept->add(problem, std::move(result.final_density), keep);
    } catch (const std::exception&) {
      window.jobs.push_back(failed_job(JobRecord::Status::kError));
    }
  }
  window.wall_s = wall.seconds();
  counters.delta_into(&window);
  window.solves = recorder.records();
  window.forwards = sink.records();
  return window;
}

/// Open loop: one generator thread submits on a Poisson schedule into one
/// SessionServer; waiter threads redeem jobs in submission order.
Window serve_window(const Ladder& ladder, const ProblemMaker& make,
                    std::uint64_t seed, double seconds, bool traced,
                    Kept* kept, std::size_t keep) {
  const std::size_t nproc =
      std::max(1u, std::thread::hardware_concurrency());
  serve::ServerConfig config = serve::ServerConfig::from_env();
  config.session_threads = nproc;
  serve::SessionServer server(config);

  // A Poisson process conditioned on its count: N = rate * T arrivals,
  // uniform on [0, T). Every run offers exactly the same load.
  const auto n = static_cast<std::size_t>(
      std::max(1.0, std::round(kServeRate * seconds)));
  util::Rng rng(mix(seed, 0x5e7e));
  std::vector<double> due(n);
  for (auto& t : due) {
    t = rng.uniform(0.0, seconds);
  }
  std::sort(due.begin(), due.end());
  std::vector<workload::InputProblem> problems;
  problems.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    problems.push_back(make(i));
  }

  SolveRecorder recorder;
  core::SessionConfig session;
  if (traced) {
    session.solver_decorator = recorder.decorator();
  }
  serve::JobOptions options;
  options.cacheable = false;

  Window window;
  window.traced = traced;
  window.jobs.resize(n);
  enum class Slot { kPending, kSubmitted, kRejected, kFailed };
  struct Published {
    Slot slot = Slot::kPending;
    serve::SessionServer::JobId id = 0;
  };
  util::Mutex mutex;
  util::CondVar published_cv;
  std::vector<Published> published(n);
  std::vector<core::SessionResult> results(n);
  std::vector<Clock::time_point> finished(n);
  std::atomic<std::size_t> next{0};

  const PcgCounters counters;
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto due_at = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(due[i]));
  };

  const auto waiter = [&]() {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      Published p;
      {
        const util::MutexLock lock(mutex);
        while (published[i].slot == Slot::kPending) {
          published_cv.wait(mutex);
        }
        p = published[i];
      }
      JobRecord& job = window.jobs[i];
      if (p.slot == Slot::kRejected) {
        job = failed_job(JobRecord::Status::kRejected);
      } else if (p.slot == Slot::kFailed) {
        job = failed_job(JobRecord::Status::kError);
      } else {
        try {
          results[i] = server.wait(p.id);
          job = job_from_result(results[i], problems[i]);
        } catch (const std::exception&) {
          job = failed_job(JobRecord::Status::kError);
        }
      }
      finished[i] = Clock::now();
      job.latency_s =
          std::chrono::duration<double>(finished[i] - due_at(i)).count();
    }
  };
  std::vector<std::thread> waiters;
  for (std::size_t w = 0; w < std::max<std::size_t>(1, nproc - 1); ++w) {
    waiters.emplace_back(waiter);
  }

  for (std::size_t i = 0; i < n; ++i) {
    std::this_thread::sleep_until(due_at(i));
    window.lag_max_s = std::max(
        window.lag_max_s,
        std::chrono::duration<double>(Clock::now() - due_at(i)).count());
    Published p;
    try {
      p.id = server.submit_adaptive(problems[i], ladder.artifacts, session,
                                    options);
      p.slot = Slot::kSubmitted;
    } catch (const serve::QueueFullError&) {
      p.slot = Slot::kRejected;
    } catch (const std::exception&) {
      // Never leave a waiter blocked on an unpublished job.
      p.slot = Slot::kFailed;
    }
    const util::MutexLock lock(mutex);
    published[i] = p;
    published_cv.notify_all();
  }
  for (auto& t : waiters) {
    t.join();
  }
  const auto last = *std::max_element(finished.begin(), finished.end());
  window.wall_s = std::chrono::duration<double>(last - start).count();
  window.offered_per_s = static_cast<double>(n) / seconds;
  counters.delta_into(&window);
  window.solves = recorder.records();
  window.batches = server.coalescer().batches_dispatched();
  window.requests_batched = server.coalescer().requests_batched();
  window.requests_inline = server.coalescer().requests_inline();
  window.queue_high_water = server.queue_high_water();
  window.degraded = server.jobs_degraded();

  for (std::size_t i = 0; i < n && kept->problems.size() < keep; ++i) {
    if (window.jobs[i].status != JobRecord::Status::kOk) {
      continue;
    }
    // A job shed under overload ran as a fixed session on one model.
    std::optional<std::size_t> fixed;
    const auto& per_step = results[i].model_per_step;
    if (window.degraded > 0 && results[i].events.empty() &&
        !per_step.empty() &&
        std::all_of(per_step.begin(), per_step.end(),
                    [&](std::size_t m) { return m == per_step.front(); })) {
      fixed = per_step.front();
    }
    kept->add(problems[i], std::move(results[i].final_density), keep, fixed);
  }
  return window;
}

void warm_up(const std::string& name, const Ladder& ladder,
             const ProblemMaker& make) {
  auto problem = make(~std::size_t{0});
  problem.steps = 4;
  if (name == "pcg_exact") {
    fluid::PcgSolver pcg;
    workload::run_simulation(problem, &pcg);
  } else if (name == "surrogate_solo") {
    core::run_fixed(problem, ladder.artifacts.library[ladder.most_accurate]);
  } else {
    core::run_adaptive(problem, ladder.artifacts);
  }
}

bool bit_identical(const fluid::GridF& a, const fluid::GridF& b) {
  return a.nx() == b.nx() && a.ny() == b.ny() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(float)) == 0;
}

Checks run_checks(const std::string& name, const Ladder& ladder,
                  const Kept& kept) {
  Checks checks;
  const auto refs = workload::reference_runs(kept.problems);
  for (std::size_t k = 0; k < kept.problems.size(); ++k) {
    checks.qloss.push_back(
        fluid::quality_loss(refs[k].final_density, kept.finals[k]));
  }
  if (name != "serve_open") {
    return checks;
  }
  for (std::size_t k = 0; k < std::min(kServeReruns, kept.problems.size());
       ++k) {
    const auto solo =
        kept.fixed_model[k]
            ? core::run_fixed(kept.problems[k],
                              ladder.artifacts.library[*kept.fixed_model[k]])
            : core::run_adaptive(kept.problems[k], ladder.artifacts);
    if (bit_identical(solo.final_density, kept.finals[k])) {
      ++checks.solo_rerun_identical;
    } else {
      ++checks.solo_rerun_mismatch;
    }
  }
  return checks;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"surrogate_solo",
                                                 "pcg_exact", "serve_open"};
  return names;
}

RunOutput run_workload(const std::string& workload, const Ladder& ladder,
                       std::uint64_t seed, double seconds, bool traced) {
  if (std::find(workload_names().begin(), workload_names().end(), workload) ==
      workload_names().end()) {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  const bool serve = workload == "serve_open";
  const std::size_t keep = serve ? kServeQuality
                           : workload == "pcg_exact" ? kPcgQuality
                                                     : kSoloQuality;
  const auto make = problem_maker(workload, seed);
  warm_up(workload, ladder, make);

  // The traced window replays the untraced window's inputs, so the two
  // differ only by the probes; only the untraced window's outputs are
  // checked.
  RunOutput out;
  Kept kept;
  Kept unchecked;
  const double window_s = traced ? seconds / 2.0 : seconds;
  for (const bool with_trace : traced ? std::vector<bool>{false, true}
                                      : std::vector<bool>{false}) {
    Kept* target = with_trace ? &unchecked : &kept;
    const std::size_t limit = with_trace ? 0 : keep;
    out.windows.push_back(
        serve ? serve_window(ladder, make, seed, window_s, with_trace, target,
                             limit)
              : solo_window(workload, ladder, make, window_s, with_trace,
                            target, limit));
  }
  out.checks = run_checks(workload, ladder, kept);
  return out;
}

}  // namespace perfbench
