#pragma once

#include "ladder.hpp"
#include "probes.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Outcome of one attempted job, as the client saw it.
struct JobRecord {
  enum class Status { kOk, kError, kRejected, kNonFinite };
  Status status = Status::kOk;
  double latency_s = 0.0;  ///< Solo: wall time. Served: due -> wait() return.
  double service_s = 0.0;  ///< Time the job spent executing.
  double cell_steps = 0.0; ///< nx * ny * steps of the problem.
  int steps_executed = 0;  ///< Including any discarded pre-restart steps.
  int discarded_steps = 0; ///< Neural steps thrown away by a PCG restart.
  bool restarted = false;
  int fallback_steps = 0;
  int switches = 0;
  int quarantines = 0;
  double pcg_s = 0.0;      ///< seconds_per_model[kPcgModelId].
};

/// One timed window of a workload (the untraced run, or the traced run).
struct Window {
  bool traced = false;
  double wall_s = 0.0;
  std::vector<JobRecord> jobs;
  // Traced only.
  std::vector<double> step_s;
  std::vector<SolveRecord> solves;
  std::vector<ForwardRecord> forwards;
  std::uint64_t pcg_solves = 0;      ///< obs "pcg.solves" delta.
  std::uint64_t pcg_iterations = 0;  ///< obs "pcg.iterations" delta.
  // Open loop only.
  double offered_per_s = 0.0;
  double lag_max_s = 0.0;
  std::uint64_t batches = 0;
  std::uint64_t requests_batched = 0;
  std::uint64_t requests_inline = 0;
  std::size_t queue_high_water = 0;
  std::uint64_t degraded = 0;
};

/// Correctness evidence gathered outside the timed part.
struct Checks {
  std::vector<double> qloss;     ///< Eq. 3 loss of the quality subset.
  int solo_rerun_identical = 0;  ///< Served results equal to a solo rerun.
  int solo_rerun_mismatch = 0;
};

struct RunOutput {
  std::vector<Window> windows;
  Checks checks;
};

/// Names of the workloads the binary accepts.
const std::vector<std::string>& workload_names();

/// Run `workload` on the served ladder: an untraced window of `seconds`,
/// or with `traced` an untraced and a traced window of half as long each,
/// then the correctness checks.
RunOutput run_workload(const std::string& workload, const Ladder& ladder,
                       std::uint64_t seed, double seconds, bool traced);

}  // namespace perfbench
