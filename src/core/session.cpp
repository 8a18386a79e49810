#include "core/session.hpp"

#include "core/stepper.hpp"
#include "obs/metrics.hpp"

#include <algorithm>

namespace sfn::core {

namespace {

/// Drive a stepper to completion on the calling thread. This is the solo
/// (non-scheduled) execution mode: the same SessionStepper state machine
/// the serve-tier cooperative scheduler multiplexes, just run back to
/// back, so solo and scheduled runs are bit-identical by construction.
SessionResult run_to_completion(SessionStepper* stepper) {
  while (stepper->step() == SessionStepper::Status::kRunning) {
  }
  stepper->rethrow_error();
  return stepper->take_result();
}

}  // namespace

std::vector<runtime::RuntimeCandidate> make_runtime_candidates(
    const OfflineArtifacts& artifacts) {
  // Candidates ordered least-accurate -> most-accurate: that is the axis
  // Algorithm 2 walks ("faster" one way, "more accurate" the other).
  std::vector<std::size_t> order = artifacts.selected_ids;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return artifacts.library[a].mean_quality >
           artifacts.library[b].mean_quality;
  });

  std::vector<runtime::RuntimeCandidate> candidates;
  candidates.reserve(order.size());
  for (const std::size_t id : order) {
    const auto& model = artifacts.library[id];
    runtime::RuntimeCandidate c;
    c.model_id = id;
    c.mean_seconds = model.mean_seconds;
    c.mean_quality = model.mean_quality;
    // Probability from the offline scoring (scores are indexed against the
    // Pareto set; find this model's entry). A selected model without a
    // score means the artifact set is inconsistent with the offline phase
    // that produced it — fall back to an uninformative 0.5, but surface
    // the event through the metrics registry instead of hiding it.
    bool scored = false;
    for (std::size_t s = 0; s < artifacts.scores.size(); ++s) {
      if (artifacts.pareto_ids[s] == id) {
        c.probability = artifacts.scores[s].success_probability;
        scored = true;
        break;
      }
    }
    if (!scored) {
      c.probability = 0.5;
      static obs::Counter& missing = obs::counter("runtime.missing_score");
      missing.add();
    }
    candidates.push_back(c);
  }
  return candidates;
}

SessionResult run_adaptive(const workload::InputProblem& problem,
                           const OfflineArtifacts& artifacts,
                           const SessionConfig& config) {
  SessionStepper stepper(problem, artifacts, config);
  return run_to_completion(&stepper);
}

SessionResult run_fixed(const workload::InputProblem& problem,
                        const TrainedModel& model) {
  return run_fixed(problem, model, SessionConfig{});
}

SessionResult run_fixed(const workload::InputProblem& problem,
                        const TrainedModel& model,
                        const SessionConfig& config) {
  SessionStepper stepper(problem, model, config);
  return run_to_completion(&stepper);
}

}  // namespace sfn::core
