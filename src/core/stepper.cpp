#include "core/stepper.hpp"

#include "fluid/pcg.hpp"
#include "nn/serialize.hpp"
#include "obs/metrics.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string_view>

namespace sfn::core {

namespace {

// Scope names for the sliced sessions. Every step() call opens one root
// scope on the calling thread; all SessionResult timing is derived from
// the captured telemetry stream (one source of truth for the chrome-trace
// export, the summary tables and the returned result). TraceCapture
// records on the calling thread even with SFN_TRACE=off.
constexpr const char* kAdaptiveScope = "session.adaptive";
constexpr const char* kFixedScope = "session.fixed";
constexpr const char* kStepScope = "session.step";
constexpr const char* kRestartScope = "session.restart_pcg";
/// Opened by runtime::FallbackPolicy around each guard-triggered PCG
/// re-solve; nests inside the owning kStepScope, so fallback time both
/// stays inside the per-model attribution and is separately summable.
constexpr const char* kFallbackScope = "runtime.fallback";

// ---- checkpoint stream helpers (nn::io fixed-width little-endian) ----

constexpr std::int32_t kCheckpointMagic = 0x53464E43;  // "SFNC"
constexpr std::int32_t kCheckpointVersion = 1;

void write_grid(std::ostream& out, const fluid::GridF& grid) {
  nn::io::write_i32(out, grid.nx());
  nn::io::write_i32(out, grid.ny());
  nn::io::write_floats(out, grid.data());
}

fluid::GridF read_grid(std::istream& in) {
  const std::int32_t nx = nn::io::read_i32(in);
  const std::int32_t ny = nn::io::read_i32(in);
  if (nx <= 0 || ny <= 0 || nx > (1 << 14) || ny > (1 << 14)) {
    throw std::runtime_error("session checkpoint: implausible grid shape");
  }
  fluid::GridF grid(nx, ny, 0.0f);
  nn::io::read_floats(in, grid.data());
  return grid;
}

void write_sim_state(std::ostream& out, const fluid::SmokeSim& sim) {
  write_grid(out, sim.density());
  write_grid(out, sim.pressure());
  write_grid(out, sim.velocity().u());
  write_grid(out, sim.velocity().v());
  nn::io::write_f64(out, sim.cum_div_norm());
  nn::io::write_i32(out, sim.steps_taken());
}

void read_sim_state(std::istream& in, fluid::SmokeSim* sim) {
  const fluid::GridF density = read_grid(in);
  const fluid::GridF pressure = read_grid(in);
  const fluid::GridF u = read_grid(in);
  const fluid::GridF v = read_grid(in);
  fluid::MacGrid2 vel(density.nx(), density.ny());
  if (u.nx() != vel.u().nx() || u.ny() != vel.u().ny() ||
      v.nx() != vel.v().nx() || v.ny() != vel.v().ny()) {
    throw std::runtime_error(
        "session checkpoint: staggered grid shape mismatch");
  }
  vel.u() = u;
  vel.v() = v;
  const double cum = nn::io::read_f64(in);
  const std::int32_t steps = nn::io::read_i32(in);
  sim->restore_state(density, pressure, vel, cum, steps);
}

void write_events(std::ostream& out,
                  const std::vector<runtime::SwitchEvent>& events) {
  nn::io::write_u64(out, events.size());
  for (const auto& ev : events) {
    nn::io::write_i32(out, ev.step);
    nn::io::write_i32(out, static_cast<std::int32_t>(ev.decision));
    nn::io::write_f64(out, ev.predicted_quality);
    nn::io::write_u64(out, ev.from_candidate);
    nn::io::write_u64(out, ev.to_candidate);
    nn::io::write_f64(out, ev.cum_div_norm);
    nn::io::write_f64(out, ev.seconds_offset);
  }
}

std::vector<runtime::SwitchEvent> read_events(std::istream& in) {
  const std::uint64_t n = nn::io::read_u64(in);
  if (n > (1u << 20)) {
    throw std::runtime_error("session checkpoint: implausible event count");
  }
  std::vector<runtime::SwitchEvent> events(n);
  for (auto& ev : events) {
    ev.step = nn::io::read_i32(in);
    ev.decision = static_cast<runtime::Decision>(nn::io::read_i32(in));
    ev.predicted_quality = nn::io::read_f64(in);
    ev.from_candidate = nn::io::read_u64(in);
    ev.to_candidate = nn::io::read_u64(in);
    ev.cum_div_norm = nn::io::read_f64(in);
    ev.seconds_offset = nn::io::read_f64(in);
  }
  return events;
}

void write_doubles(std::ostream& out, const std::vector<double>& xs) {
  nn::io::write_u64(out, xs.size());
  for (const double x : xs) {
    nn::io::write_f64(out, x);
  }
}

std::vector<double> read_doubles(std::istream& in) {
  const std::uint64_t n = nn::io::read_u64(in);
  if (n > (1u << 24)) {
    throw std::runtime_error("session checkpoint: implausible vector size");
  }
  std::vector<double> xs(n);
  for (auto& x : xs) {
    x = nn::io::read_f64(in);
  }
  return xs;
}

}  // namespace

SessionStepper::SessionStepper(const workload::InputProblem& problem,
                               const OfflineArtifacts& artifacts,
                               const SessionConfig& config)
    : problem_(problem), adaptive_(true), root_scope_(kAdaptiveScope) {
  if (artifacts.selected_ids.empty()) {
    // Message kept verbatim from the pre-extraction run_adaptive.
    throw std::invalid_argument("run_adaptive: no selected models");
  }
  candidates_ = make_runtime_candidates(artifacts);
  solvers_.reserve(candidates_.size());
  for (const auto& c : candidates_) {
    const auto& model = artifacts.library[c.model_id];
    // Shared-weights mode: the artifacts own the networks (and outlive
    // the run), so N concurrent sessions reference one weight set instead
    // of cloning it N times. Mutable per-solve state (workspace, scratch
    // tensors) stays inside each NeuralProjection instance.
    std::unique_ptr<fluid::PoissonSolver> solver =
        std::make_unique<NeuralProjection>(&model.net, config.inference_sink,
                                           model.spec.name);
    if (config.solver_decorator) {
      solver = config.solver_decorator(c.model_id, std::move(solver));
    }
    solvers_.push_back(std::move(solver));
  }

  const double quality_requirement = config.quality_requirement.value_or(
      artifacts.requirement.quality_loss);
  controller_ = std::make_unique<runtime::ModelSwitchController>(
      config.controller, candidates_, &artifacts.quality_db,
      quality_requirement, problem.steps);

  // The per-step health guard: rejected solves are re-solved in place by
  // this policy's warm-started PCG, and repeat offenders are reported to
  // the controller for quarantine. Owns the only exact solver the
  // adaptive session is allowed to touch.
  fallback_ = std::make_unique<runtime::FallbackPolicy>(config.guard);
  guard_enabled_ = config.guard.enabled;
  init_sim();
}

SessionStepper::SessionStepper(const workload::InputProblem& problem,
                               const TrainedModel& model,
                               const SessionConfig& config)
    : problem_(problem),
      adaptive_(false),
      root_scope_(kFixedScope),
      fixed_model_id_(model.records.model_id) {
  std::unique_ptr<fluid::PoissonSolver> solver =
      std::make_unique<NeuralProjection>(&model.net, config.inference_sink,
                                         model.spec.name);
  if (config.solver_decorator) {
    solver = config.solver_decorator(fixed_model_id_, std::move(solver));
  }
  solvers_.push_back(std::move(solver));
  init_sim();
}

SessionStepper::~SessionStepper() = default;

void SessionStepper::init_sim() {
  sim_ = std::make_unique<fluid::SmokeSim>(workload::make_sim(problem_));
  if (problem_.steps <= 0) {
    // Degenerate zero-step problem: finished at construction, matching
    // the pre-extraction loops (which never entered their bodies).
    collect_controller_outcome();
    result_.final_density = sim_->density();
    phase_ = Phase::kDone;
  }
}

SessionStepper::Status SessionStepper::status() const {
  switch (phase_) {
    case Phase::kDone:
      return Status::kDone;
    case Phase::kError:
      return Status::kError;
    default:
      return Status::kRunning;
  }
}

int SessionStepper::steps_completed() const { return main_step_ + redo_step_; }

void SessionStepper::rethrow_error() const {
  if (error_) {
    std::rethrow_exception(error_);
  }
}

SessionStepper::Status SessionStepper::step() {
  if (phase_ == Phase::kDone || phase_ == Phase::kError) {
    return status();
  }
  try {
    obs::TraceCapture capture;
    {
      obs::TraceScope root(root_scope_);
      if (phase_ == Phase::kMain) {
        step_main();
      } else {
        step_restart();
      }
    }
    accumulate_slice(capture.events());
  } catch (...) {
    error_ = std::current_exception();
    phase_ = Phase::kError;
  }
  return status();
}

void SessionStepper::step_main() {
  const int step = main_step_;
  if (!adaptive_) {
    obs::TraceScope step_scope(kStepScope, fixed_model_id_);
    sim_->step(solvers_[0].get());
  } else if (controller_->exhausted()) {
    // Every candidate quarantined: degrade the remaining steps to the
    // exact solver. Prior steps are all valid (each guard trip was
    // re-solved exactly), so nothing is replayed.
    obs::TraceScope step_scope(kStepScope, SessionResult::kPcgModelId);
    sim_->step(fallback_->exact_solver());
  } else {
    const std::size_t pos = controller_->current_candidate();
    fluid::StepTelemetry telemetry;
    {
      obs::TraceScope step_scope(kStepScope, candidates_[pos].model_id);
      telemetry = sim_->step(solvers_[pos].get(),
                             guard_enabled_ ? fallback_.get() : nullptr);
    }
    if (telemetry.guard.fallback) {
      ++result_.fallback_steps;
      // This step's pressure is now exact; report the trip so the
      // controller can quarantine a persistently failing candidate.
      controller_->on_guard_trip(step, telemetry.cum_div_norm);
    }
    controller_->on_step(step, telemetry.cum_div_norm);
    if (controller_->restart_requested()) {
      ++main_step_;
      begin_restart();
      return;
    }
  }
  ++main_step_;
  if (main_step_ >= problem_.steps) {
    collect_controller_outcome();
    result_.final_density = sim_->density();
    phase_ = Phase::kDone;
  }
}

void SessionStepper::begin_restart() {
  // Algorithm 2 line 16: no model can meet q — redo the whole problem
  // with the exact solver. The aborted neural time stays in the bill,
  // which is exactly the risk Eq. 8's selection prices in. Each redo
  // step runs under its own kStepScope so accumulate_slice attributes
  // the exact-solver time like any other model's.
  collect_controller_outcome();
  result_.restarted_with_pcg = true;
  pcg_ = std::make_unique<fluid::PcgSolver>();
  redo_sim_ = std::make_unique<fluid::SmokeSim>(workload::make_sim(problem_));
  redo_step_ = 0;
  phase_ = Phase::kRestart;
}

void SessionStepper::step_restart() {
  obs::TraceScope restart_scope(kRestartScope);
  {
    obs::TraceScope step_scope(kStepScope, SessionResult::kPcgModelId);
    redo_sim_->step(pcg_.get());
  }
  ++redo_step_;
  if (redo_step_ >= problem_.steps) {
    result_.final_density = redo_sim_->density();
    phase_ = Phase::kDone;
  }
}

void SessionStepper::collect_controller_outcome() {
  if (!controller_) {
    return;
  }
  result_.events = controller_->events();
  result_.quarantined_models.clear();
  for (std::size_t pos = 0; pos < candidates_.size(); ++pos) {
    if (controller_->is_quarantined(pos)) {
      result_.quarantined_models.push_back(candidates_[pos].model_id);
    }
  }
}

void SessionStepper::accumulate_slice(
    const std::vector<obs::TraceEvent>& events) {
  // Per-step latency feeds the SLO histogram straight from the captured
  // stream — the timing source of truth — so the step path itself carries
  // no extra clock reads. Root slices sum to the session's active wall
  // time; scheduler wait between slices is deliberately not billed.
  static obs::Histogram& step_latency = obs::histogram("runtime.step_latency");
  for (const auto& ev : events) {
    const std::string_view name = ev.name;
    if (name == kStepScope && ev.has_arg) {
      const auto model_id = static_cast<std::size_t>(ev.arg);
      result_.seconds_per_model[model_id] += ev.seconds();
      result_.model_per_step.push_back(model_id);
      step_latency.observe(ev.seconds());
    } else if (name == kFallbackScope) {
      result_.fallback_seconds += ev.seconds();
    } else if (name == root_scope_) {
      result_.seconds += ev.seconds();
    }
  }
}

SessionResult SessionStepper::take_result() {
  if (phase_ != Phase::kDone || result_taken_) {
    throw std::logic_error(
        "SessionStepper::take_result: session not finished (or result "
        "already taken)");
  }
  result_taken_ = true;
  // A PCG restart replays every step, so the step trace is trimmed to the
  // trailing `steps` entries — the ones that produced the final state. The
  // aborted neural steps stay in the time bill (seconds_per_model).
  const auto count = static_cast<std::size_t>(std::max(problem_.steps, 0));
  if (result_.model_per_step.size() > count) {
    result_.model_per_step.erase(
        result_.model_per_step.begin(),
        result_.model_per_step.end() - static_cast<std::ptrdiff_t>(count));
  }
  return std::move(result_);
}

void SessionStepper::save_checkpoint(std::ostream& out) const {
  if (phase_ != Phase::kMain && phase_ != Phase::kRestart) {
    throw std::logic_error(
        "SessionStepper::save_checkpoint: session is not suspendable "
        "(finished or errored)");
  }
  nn::io::write_i32(out, kCheckpointMagic);
  nn::io::write_i32(out, kCheckpointVersion);
  nn::io::write_i32(out, adaptive_ ? 1 : 2);
  nn::io::write_i32(out, phase_ == Phase::kMain ? 0 : 1);

  // Problem identity guard: restore on to a stepper built for a different
  // problem must fail loudly, not corrupt a run.
  nn::io::write_u64(out, problem_.seed);
  nn::io::write_i32(out, problem_.nx);
  nn::io::write_i32(out, problem_.ny);
  nn::io::write_i32(out, problem_.steps);

  nn::io::write_i32(out, main_step_);
  nn::io::write_i32(out, redo_step_);
  write_sim_state(out, *sim_);
  if (phase_ == Phase::kRestart) {
    write_sim_state(out, *redo_sim_);
  }

  // Accumulated result fields (final_density excluded: it only exists at
  // completion; wall-clock accumulators carry over so the finished bill
  // covers both sides of the suspension).
  nn::io::write_f64(out, result_.seconds);
  nn::io::write_f64(out, result_.fallback_seconds);
  nn::io::write_i32(out, result_.fallback_steps);
  nn::io::write_i32(out, result_.restarted_with_pcg ? 1 : 0);
  write_events(out, result_.events);
  nn::io::write_u64(out, result_.seconds_per_model.size());
  for (const auto& [model_id, seconds] : result_.seconds_per_model) {
    nn::io::write_u64(out, model_id);
    nn::io::write_f64(out, seconds);
  }
  nn::io::write_u64(out, result_.model_per_step.size());
  for (const std::size_t id : result_.model_per_step) {
    nn::io::write_u64(out, id);
  }
  nn::io::write_u64(out, result_.quarantined_models.size());
  for (const std::size_t id : result_.quarantined_models) {
    nn::io::write_u64(out, id);
  }

  if (adaptive_) {
    const runtime::ControllerCheckpoint ctl = controller_->checkpoint();
    nn::io::write_u64(out, ctl.current);
    nn::io::write_i32(out, ctl.restart ? 1 : 0);
    nn::io::write_i32(out, ctl.exhausted ? 1 : 0);
    nn::io::write_i32(out, ctl.cooldown_checks_left);
    nn::io::write_i32(out, ctl.last_direction);
    nn::io::write_f64(out, ctl.last_predicted_quality);
    nn::io::write_u64(out, ctl.quarantined.size());
    for (const bool q : ctl.quarantined) {
      nn::io::write_i32(out, q ? 1 : 0);
    }
    nn::io::write_u64(out, ctl.trip_steps.size());
    for (const auto& trips : ctl.trip_steps) {
      nn::io::write_u64(out, trips.size());
      for (const int s : trips) {
        nn::io::write_i32(out, s);
      }
    }
    write_doubles(out, ctl.window_steps);
    write_doubles(out, ctl.window_values);
    write_events(out, ctl.events);
  }
  if (!out) {
    throw std::runtime_error(
        "SessionStepper::save_checkpoint: stream write failed");
  }
}

void SessionStepper::restore_checkpoint(std::istream& in) {
  if (nn::io::read_i32(in) != kCheckpointMagic) {
    throw std::runtime_error("session checkpoint: bad magic");
  }
  if (nn::io::read_i32(in) != kCheckpointVersion) {
    throw std::runtime_error("session checkpoint: unsupported version");
  }
  const std::int32_t kind = nn::io::read_i32(in);
  if (kind != (adaptive_ ? 1 : 2)) {
    throw std::invalid_argument(
        "session checkpoint: adaptive/fixed kind mismatch");
  }
  const std::int32_t phase = nn::io::read_i32(in);
  if (phase != 0 && phase != 1) {
    throw std::runtime_error("session checkpoint: bad phase");
  }

  const std::uint64_t seed = nn::io::read_u64(in);
  const std::int32_t nx = nn::io::read_i32(in);
  const std::int32_t ny = nn::io::read_i32(in);
  const std::int32_t steps = nn::io::read_i32(in);
  if (seed != problem_.seed || nx != problem_.nx || ny != problem_.ny ||
      steps != problem_.steps) {
    throw std::invalid_argument(
        "session checkpoint: problem identity mismatch");
  }

  const std::int32_t main_step = nn::io::read_i32(in);
  const std::int32_t redo_step = nn::io::read_i32(in);
  if (main_step < 0 || main_step > problem_.steps || redo_step < 0 ||
      redo_step > problem_.steps) {
    throw std::runtime_error("session checkpoint: step counters out of range");
  }

  // Rebuild the simulations first (so a failure mid-read leaves this
  // stepper throwing rather than half-restored).
  auto sim = std::make_unique<fluid::SmokeSim>(workload::make_sim(problem_));
  read_sim_state(in, sim.get());
  std::unique_ptr<fluid::SmokeSim> redo_sim;
  if (phase == 1) {
    redo_sim =
        std::make_unique<fluid::SmokeSim>(workload::make_sim(problem_));
    read_sim_state(in, redo_sim.get());
  }

  SessionResult result;
  result.seconds = nn::io::read_f64(in);
  result.fallback_seconds = nn::io::read_f64(in);
  result.fallback_steps = nn::io::read_i32(in);
  result.restarted_with_pcg = nn::io::read_i32(in) != 0;
  result.events = read_events(in);
  const std::uint64_t n_models = nn::io::read_u64(in);
  if (n_models > (1u << 16)) {
    throw std::runtime_error("session checkpoint: implausible model count");
  }
  for (std::uint64_t i = 0; i < n_models; ++i) {
    const std::uint64_t model_id = nn::io::read_u64(in);
    result.seconds_per_model[model_id] = nn::io::read_f64(in);
  }
  const std::uint64_t n_steps = nn::io::read_u64(in);
  if (n_steps > (1u << 24)) {
    throw std::runtime_error("session checkpoint: implausible step trace");
  }
  result.model_per_step.resize(n_steps);
  for (auto& id : result.model_per_step) {
    id = nn::io::read_u64(in);
  }
  const std::uint64_t n_quarantined = nn::io::read_u64(in);
  if (n_quarantined > (1u << 16)) {
    throw std::runtime_error(
        "session checkpoint: implausible quarantine count");
  }
  result.quarantined_models.resize(n_quarantined);
  for (auto& id : result.quarantined_models) {
    id = nn::io::read_u64(in);
  }

  if (adaptive_) {
    runtime::ControllerCheckpoint ctl;
    ctl.current = nn::io::read_u64(in);
    ctl.restart = nn::io::read_i32(in) != 0;
    ctl.exhausted = nn::io::read_i32(in) != 0;
    ctl.cooldown_checks_left = nn::io::read_i32(in);
    ctl.last_direction = nn::io::read_i32(in);
    ctl.last_predicted_quality = nn::io::read_f64(in);
    const std::uint64_t n_q = nn::io::read_u64(in);
    if (n_q > (1u << 16)) {
      throw std::runtime_error(
          "session checkpoint: implausible candidate count");
    }
    ctl.quarantined.resize(n_q);
    for (std::uint64_t i = 0; i < n_q; ++i) {
      ctl.quarantined[i] = nn::io::read_i32(in) != 0;
    }
    const std::uint64_t n_t = nn::io::read_u64(in);
    if (n_t > (1u << 16)) {
      throw std::runtime_error(
          "session checkpoint: implausible candidate count");
    }
    ctl.trip_steps.resize(n_t);
    for (auto& trips : ctl.trip_steps) {
      const std::uint64_t m = nn::io::read_u64(in);
      if (m > (1u << 20)) {
        throw std::runtime_error("session checkpoint: implausible trip log");
      }
      trips.resize(m);
      for (auto& s : trips) {
        s = nn::io::read_i32(in);
      }
    }
    ctl.window_steps = read_doubles(in);
    ctl.window_values = read_doubles(in);
    ctl.events = read_events(in);
    controller_->restore(ctl);  // Validates against the candidate set.
  }

  // Commit: every field read and validated.
  sim_ = std::move(sim);
  redo_sim_ = std::move(redo_sim);
  if (phase == 1 && pcg_ == nullptr) {
    pcg_ = std::make_unique<fluid::PcgSolver>();
  }
  main_step_ = main_step;
  redo_step_ = redo_step;
  result_ = std::move(result);
  result_taken_ = false;
  error_ = nullptr;
  phase_ = phase == 0 ? Phase::kMain : Phase::kRestart;
}

}  // namespace sfn::core
