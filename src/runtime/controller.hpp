#pragma once

#include "runtime/predictor.hpp"
#include "util/timer.hpp"

#include <optional>
#include <string>
#include <vector>

namespace sfn::runtime {

/// A model as seen by the runtime controller. Candidates are ordered from
/// fastest/least-accurate to slowest/most-accurate (by offline mean
/// quality loss), which is the axis Algorithm 2 walks when switching.
struct RuntimeCandidate {
  std::size_t model_id = 0;     ///< Caller-owned identifier.
  double probability = 0.0;     ///< MLP success probability for U(q, t).
  double mean_seconds = 0.0;    ///< Offline mean simulation time.
  double mean_quality = 0.0;    ///< Offline mean quality loss.
};

/// Decision taken at a check point (paper Algorithm 2, lines 9-17), plus
/// the guard-driven quarantine transitions layered on top.
enum class Decision {
  kKeep,            ///< Q'loss close to q: stay on the current model.
  kSwitchFaster,    ///< Q'loss comfortably below q: drop accuracy for speed.
  kSwitchAccurate,  ///< Q'loss above q: pay for accuracy.
  kRestartPcg,      ///< No model can meet q: redo with the exact solver.
  kQuarantine,      ///< Health guard disabled a candidate; re-planned.
};

struct ControllerParams {
  PredictorParams predictor;
  /// "Close to q" band: keep the model when Q'loss is within
  /// [q * (1 - keep_band), q].
  double keep_band = 0.35;
  /// Best-effort margin before giving up: when already on the most
  /// accurate model, restart with PCG only if the predicted loss exceeds
  /// q by this factor; below it, ride out the most accurate model (the
  /// paper's runtime "makes best efforts" — a restart throws away all
  /// neural progress and should be reserved for clear violations, since
  /// the KNN prediction itself carries error).
  double restart_margin = 1.5;
  /// Hysteresis, part 1 — cooldown: for this many check points after any
  /// switch (including a quarantine re-plan), a switch that *reverses*
  /// direction is held as keep, so an oscillation needs a full interval
  /// between every reversal. Same-direction moves (the Algorithm 2
  /// escalation chain up to the restart) are never delayed: reacting
  /// slowly to a predicted quality violation would be a correctness bug,
  /// not a stability feature.
  int switch_cooldown_checks = 1;
  /// Hysteresis, part 2 — dead-band: leave the keep zone only when the
  /// prediction clears the band edge by this fraction of q (upshift above
  /// q * (1 + dead_band), downshift below q * (1 - keep_band -
  /// dead_band)). Keeps a noisy extrapolation that jitters across an edge
  /// from thrashing the model ladder.
  double switch_dead_band = 0.1;
  /// Quarantine: a candidate whose health guard trips this many times
  /// (SFN_GUARD_TRIPS)...
  int quarantine_trips = 3;
  /// ...within this many simulation steps (SFN_GUARD_WINDOW) is disabled
  /// for the rest of the run; the controller re-plans over the survivors.
  int quarantine_window = 20;

  /// Code defaults with the quarantine pair overridden by the
  /// SFN_GUARD_TRIPS / SFN_GUARD_WINDOW environment knobs.
  [[nodiscard]] static ControllerParams from_env();
};

/// Event log entry for analysis (Table 3's time distribution and the
/// switching traces shown in the paper's runtime example).
struct SwitchEvent {
  int step = 0;
  Decision decision = Decision::kKeep;
  double predicted_quality = 0.0;
  std::size_t from_candidate = 0;
  std::size_t to_candidate = 0;
  /// CumDivNorm observed at the check point that triggered this decision
  /// (the extrapolator's input, so traces can be replayed offline).
  double cum_div_norm = 0.0;
  /// Wall-clock seconds from controller construction to the check, so
  /// decision traces line up with the chrome-trace timeline.
  double seconds_offset = 0.0;
};

/// Outcome of reporting a guard trip to the controller.
enum class GuardVerdict {
  kTripRecorded,  ///< Below the quarantine threshold; nothing changed.
  kQuarantined,   ///< Candidate disabled; current_candidate() re-planned.
  kExhausted,     ///< Every candidate quarantined: degrade to the exact
                  ///< solver for the remaining steps (true last resort).
};

/// Complete mutable state of a ModelSwitchController at a step boundary.
/// Produced by checkpoint() and consumed by restore() on a controller
/// constructed with the same candidates/database/q/total_steps, so a
/// suspended session resumes with bit-identical switching decisions
/// (core::SessionStepper persistence). The construction-time inputs are
/// deliberately absent: they belong to the artifacts, not the checkpoint.
struct ControllerCheckpoint {
  std::size_t current = 0;
  bool restart = false;
  bool exhausted = false;
  int cooldown_checks_left = 0;
  int last_direction = 0;
  double last_predicted_quality = 0.0;
  std::vector<bool> quarantined;
  std::vector<std::vector<int>> trip_steps;
  std::vector<double> window_steps;
  std::vector<double> window_values;
  std::vector<SwitchEvent> events;
};

/// The quality-aware model-switch state machine. It is substrate-agnostic:
/// feed it per-step CumDivNorm telemetry, read back which candidate to run
/// next; the simulation session (src/core) owns the actual networks.
class ModelSwitchController {
 public:
  /// `candidates` must be ordered fastest -> most accurate. The initial
  /// model is the one with the highest MLP probability (Algorithm 2
  /// line 1). `q` is the quality-loss requirement, `total_steps` the
  /// simulation length.
  ModelSwitchController(ControllerParams params,
                        std::vector<RuntimeCandidate> candidates,
                        const QualityDatabase* database, double q,
                        int total_steps);

  [[nodiscard]] std::size_t current_candidate() const { return current_; }
  [[nodiscard]] const RuntimeCandidate& current() const {
    return candidates_[current_];
  }

  /// Record one completed step; at check points this evaluates the
  /// predictor and possibly switches. Returns the decision when a check
  /// happened, nullopt otherwise. After kRestartPcg (or exhaustion) the
  /// controller is inert.
  std::optional<Decision> on_step(int step, double cum_div_norm);

  /// Report that the health guard tripped (and fell back to PCG) on the
  /// current candidate at `step`. Enough trips inside the quarantine
  /// window disable the candidate: the controller re-plans onto the most
  /// trustworthy survivor (logged as a kQuarantine event) or, when none
  /// remain, declares exhaustion (logged as the kRestartPcg last resort;
  /// restart_requested() stays false — completed steps are all valid, so
  /// the session degrades the *remaining* steps instead of redoing).
  GuardVerdict on_guard_trip(int step, double cum_div_norm);

  /// Dry-run of the switch logic for a given predicted quality loss —
  /// exactly what a check point would decide in the current state, with
  /// no state change. Test/analysis seam for boundary behaviour.
  [[nodiscard]] Decision preview_decision(double predicted_quality) const;

  [[nodiscard]] bool restart_requested() const { return restart_; }
  [[nodiscard]] bool exhausted() const { return exhausted_; }
  [[nodiscard]] bool is_quarantined(std::size_t pos) const {
    return quarantined_[pos];
  }
  [[nodiscard]] std::size_t quarantined_count() const;
  [[nodiscard]] const std::vector<SwitchEvent>& events() const {
    return events_;
  }
  [[nodiscard]] double last_predicted_quality() const {
    return last_predicted_quality_;
  }

  /// Snapshot every mutable field for session suspend (step-boundary
  /// only: the controller holds no intra-step state). The wall clock
  /// stamping SwitchEvent::seconds_offset restarts on restore — offsets
  /// of post-resume events are relative to the resume, which is the
  /// documented (and determinism-test-excluded) wall-clock field.
  [[nodiscard]] ControllerCheckpoint checkpoint() const;
  /// Restore a checkpoint taken from a controller constructed with the
  /// same candidates/database/q/total_steps. Throws std::invalid_argument
  /// on a candidate-count mismatch.
  void restore(const ControllerCheckpoint& state);

 private:
  /// Nearest non-quarantined candidate strictly above/below `current_`
  /// on the accuracy ladder; nullopt when none remains.
  [[nodiscard]] std::optional<std::size_t> next_accurate() const;
  [[nodiscard]] std::optional<std::size_t> next_faster() const;
  void push_event(int step, Decision decision, std::size_t from,
                  std::size_t to, double cum_div_norm);

  ControllerParams params_;
  std::vector<RuntimeCandidate> candidates_;
  const QualityDatabase* database_;
  double q_;
  int total_steps_;
  std::size_t current_ = 0;
  bool restart_ = false;
  bool exhausted_ = false;
  int cooldown_checks_left_ = 0;
  int last_direction_ = 0;  ///< -1 faster, +1 accurate; gates reversals.
  double last_predicted_quality_ = 0.0;
  std::vector<bool> quarantined_;
  std::vector<std::vector<int>> trip_steps_;  ///< Per-candidate trip log.
  CumDivNormExtrapolator extrapolator_;
  std::vector<SwitchEvent> events_;
  util::Timer clock_;  ///< Started at construction; stamps SwitchEvents.
};

/// Human-readable decision name.
std::string to_string(Decision d);

}  // namespace sfn::runtime
