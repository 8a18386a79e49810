#include "runtime/controller.hpp"

#include "obs/eventlog.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/config.hpp"

#include <algorithm>
#include <stdexcept>

namespace sfn::runtime {

ControllerParams ControllerParams::from_env() {
  ControllerParams params;
  params.quarantine_trips = static_cast<int>(
      util::env_int("SFN_GUARD_TRIPS", params.quarantine_trips));
  params.quarantine_window = static_cast<int>(
      util::env_int("SFN_GUARD_WINDOW", params.quarantine_window));
  return params;
}

std::string to_string(Decision d) {
  switch (d) {
    case Decision::kKeep: return "keep";
    case Decision::kSwitchFaster: return "switch-faster";
    case Decision::kSwitchAccurate: return "switch-accurate";
    case Decision::kRestartPcg: return "restart-pcg";
    case Decision::kQuarantine: return "quarantine";
  }
  return "?";
}

ModelSwitchController::ModelSwitchController(
    ControllerParams params, std::vector<RuntimeCandidate> candidates,
    const QualityDatabase* database, double q, int total_steps)
    : params_(params),
      candidates_(std::move(candidates)),
      database_(database),
      q_(q),
      total_steps_(total_steps),
      quarantined_(candidates_.size(), false),
      trip_steps_(candidates_.size()),
      extrapolator_(params.predictor) {
  if (candidates_.empty()) {
    throw std::invalid_argument("ModelSwitchController: no candidates");
  }
  if (database_ == nullptr || database_->empty()) {
    throw std::invalid_argument(
        "ModelSwitchController: quality database required");
  }
  // Algorithm 2 line 1: start with the highest-probability candidate.
  current_ = static_cast<std::size_t>(std::distance(
      candidates_.begin(),
      std::max_element(candidates_.begin(), candidates_.end(),
                       [](const RuntimeCandidate& a,
                          const RuntimeCandidate& b) {
                         return a.probability < b.probability;
                       })));
}

std::optional<std::size_t> ModelSwitchController::next_accurate() const {
  for (std::size_t pos = current_ + 1; pos < candidates_.size(); ++pos) {
    if (!quarantined_[pos]) {
      return pos;
    }
  }
  return std::nullopt;
}

std::optional<std::size_t> ModelSwitchController::next_faster() const {
  for (std::size_t pos = current_; pos-- > 0;) {
    if (!quarantined_[pos]) {
      return pos;
    }
  }
  return std::nullopt;
}

std::size_t ModelSwitchController::quarantined_count() const {
  return static_cast<std::size_t>(
      std::count(quarantined_.begin(), quarantined_.end(), true));
}

Decision ModelSwitchController::preview_decision(
    double predicted_quality) const {
  // Hysteresis dead-band: the keep zone is widened past both band edges
  // by dead_band * q, so a prediction must *clearly* leave the band
  // before the controller acts on it.
  const double upshift_above = q_ * (1.0 + params_.switch_dead_band);
  const double downshift_below =
      q_ * (1.0 - params_.keep_band - params_.switch_dead_band);

  if (predicted_quality > upshift_above) {
    // Predicted violation: escalate accuracy if a survivor exists.
    if (next_accurate().has_value()) {
      return Decision::kSwitchAccurate;
    }
    // Already on the most accurate available model: restart only on a
    // clear violation; marginal predictions ride out the best we have.
    return predicted_quality > q_ * params_.restart_margin
               ? Decision::kRestartPcg
               : Decision::kKeep;
  }
  if (predicted_quality < downshift_below) {
    // Comfortably under budget: trade accuracy for speed — but only into
    // a surviving model whose offline mean quality itself meets the
    // requirement, so a noisy prediction cannot downshift the run into a
    // model that violates q on the average problem.
    const auto down = next_faster();
    if (down.has_value() && candidates_[*down].mean_quality <= q_) {
      return Decision::kSwitchFaster;
    }
  }
  return Decision::kKeep;
}

void ModelSwitchController::push_event(int step, Decision decision,
                                       std::size_t from, std::size_t to,
                                       double cum_div_norm) {
  SwitchEvent event;
  event.step = step;
  event.decision = decision;
  event.predicted_quality = last_predicted_quality_;
  event.from_candidate = from;
  event.to_candidate = to;
  event.cum_div_norm = cum_div_norm;
  event.seconds_offset = clock_.seconds();
  events_.push_back(event);
  if (decision != Decision::kKeep) {
    obs::Event("switch_decision")
        .field("step", step)
        .field("decision", to_string(decision))
        .field("from", static_cast<std::uint64_t>(from))
        .field("to", static_cast<std::uint64_t>(to))
        .field("predicted_qloss", last_predicted_quality_)
        .field("cum_div_norm", cum_div_norm);
  }
}

std::optional<Decision> ModelSwitchController::on_step(int step,
                                                       double cum_div_norm) {
  if (restart_ || exhausted_) {
    return std::nullopt;
  }
  extrapolator_.observe(step, cum_div_norm);
  if (!extrapolator_.at_check_point(step)) {
    return std::nullopt;
  }
  SFN_TRACE_SCOPE("runtime.check");
  const auto predicted_final = extrapolator_.predict_final(total_steps_ - 1);
  if (!predicted_final.has_value()) {
    return std::nullopt;
  }
  last_predicted_quality_ = database_->predict_quality_loss(
      *predicted_final, params_.predictor.knn_k);

  static obs::Counter& checks = obs::counter("runtime.checks");
  static obs::Counter& switches = obs::counter("runtime.switches");
  static obs::Counter& restarts = obs::counter("runtime.restarts");
  static obs::Histogram& qloss = obs::histogram("runtime.predicted_qloss");
  checks.add();
  qloss.observe(last_predicted_quality_);

  // Hysteresis cooldown: for a full check interval after any switch, a
  // switch that *reverses* direction is held as keep — an up-down-up
  // oscillation now needs a cooldown expiry between every reversal, so
  // noisy extrapolations cannot thrash the ladder. Same-direction moves
  // (the Algorithm 2 escalation chain up to and including the restart)
  // stay immediate: delaying a predicted quality violation would trade
  // correctness for calm.
  Decision decision = preview_decision(last_predicted_quality_);
  if (cooldown_checks_left_ > 0) {
    --cooldown_checks_left_;
    const int direction = decision == Decision::kSwitchFaster ? -1
                          : (decision == Decision::kSwitchAccurate ||
                             decision == Decision::kRestartPcg)
                              ? +1
                              : 0;
    if (direction != 0 && direction != last_direction_) {
      decision = Decision::kKeep;
    }
  }
  const std::size_t from = current_;

  switch (decision) {
    case Decision::kKeep:
      break;
    case Decision::kSwitchFaster:
      current_ = *next_faster();
      extrapolator_.reset_window();
      cooldown_checks_left_ = params_.switch_cooldown_checks;
      last_direction_ = -1;
      switches.add();
      break;
    case Decision::kSwitchAccurate:
      current_ = *next_accurate();
      extrapolator_.reset_window();
      cooldown_checks_left_ = params_.switch_cooldown_checks;
      last_direction_ = +1;
      switches.add();
      break;
    case Decision::kRestartPcg:
      restart_ = true;
      restarts.add();
      break;
    case Decision::kQuarantine:
      break;  // Never produced by preview_decision.
  }
  push_event(step, decision, from, current_, cum_div_norm);
  return decision;
}

ControllerCheckpoint ModelSwitchController::checkpoint() const {
  ControllerCheckpoint state;
  state.current = current_;
  state.restart = restart_;
  state.exhausted = exhausted_;
  state.cooldown_checks_left = cooldown_checks_left_;
  state.last_direction = last_direction_;
  state.last_predicted_quality = last_predicted_quality_;
  state.quarantined = quarantined_;
  state.trip_steps = trip_steps_;
  state.window_steps = extrapolator_.window_steps();
  state.window_values = extrapolator_.window_values();
  state.events = events_;
  return state;
}

void ModelSwitchController::restore(const ControllerCheckpoint& state) {
  if (state.quarantined.size() != candidates_.size() ||
      state.trip_steps.size() != candidates_.size() ||
      state.current >= candidates_.size()) {
    throw std::invalid_argument(
        "ModelSwitchController::restore: checkpoint does not match this "
        "controller's candidate set");
  }
  current_ = state.current;
  restart_ = state.restart;
  exhausted_ = state.exhausted;
  cooldown_checks_left_ = state.cooldown_checks_left;
  last_direction_ = state.last_direction;
  last_predicted_quality_ = state.last_predicted_quality;
  quarantined_ = state.quarantined;
  trip_steps_ = state.trip_steps;
  extrapolator_.set_window(state.window_steps, state.window_values);
  events_ = state.events;
}

GuardVerdict ModelSwitchController::on_guard_trip(int step,
                                                  double cum_div_norm) {
  if (restart_ || exhausted_) {
    return GuardVerdict::kExhausted;
  }
  auto& trips = trip_steps_[current_];
  trips.push_back(step);
  // Keep only trips inside the sliding window ending at `step`.
  const int window_start = step - params_.quarantine_window + 1;
  trips.erase(std::remove_if(trips.begin(), trips.end(),
                             [&](int s) { return s < window_start; }),
              trips.end());
  if (static_cast<int>(trips.size()) < params_.quarantine_trips) {
    return GuardVerdict::kTripRecorded;
  }

  // Quarantine: this candidate's guard keeps tripping — its offline
  // statistics no longer describe its behaviour on this problem, so it is
  // out for the rest of the run and the controller re-plans over the
  // survivors. Prefer escalating accuracy (the trips mean the current
  // rung is too aggressive here); fall back to the fastest survivor.
  static obs::Counter& quarantines = obs::counter("runtime.quarantines");
  quarantines.add();
  quarantined_[current_] = true;
  const std::size_t from = current_;

  const auto up = next_accurate();
  const auto down = next_faster();
  if (up.has_value() || down.has_value()) {
    current_ = up.has_value() ? *up : *down;
    extrapolator_.reset_window();
    cooldown_checks_left_ = params_.switch_cooldown_checks;
    last_direction_ = up.has_value() ? +1 : -1;
    push_event(step, Decision::kQuarantine, from, current_, cum_div_norm);
    return GuardVerdict::kQuarantined;
  }

  // Every candidate is quarantined: the exact solver is the true last
  // resort. Completed steps are all valid (each guard trip was re-solved
  // exactly), so this is *not* a whole-run restart — restart_requested()
  // stays false and the session finishes the remaining steps on PCG.
  exhausted_ = true;
  push_event(step, Decision::kRestartPcg, from, from, cum_div_norm);
  return GuardVerdict::kExhausted;
}

}  // namespace sfn::runtime
