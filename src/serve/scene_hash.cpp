#include "serve/scene_hash.hpp"

namespace sfn::serve {

namespace {

void hash_problem(Fnv1a* h, const workload::InputProblem& problem) {
  h->add_u64(problem.seed);
  h->add_i32(problem.nx);
  h->add_i32(problem.ny);
  h->add_i32(problem.steps);

  const fluid::SmokeParams& sim = problem.sim;
  h->add_f64(sim.dt);
  h->add_f64(sim.buoyancy);
  h->add_i32(static_cast<std::int32_t>(sim.advection));
  h->add_i32(sim.divnorm_weight_k);
  h->add_i32(sim.warm_start_pressure ? 1 : 0);
  h->add_f64(sim.max_velocity);
  h->add_f64(sim.vorticity_confinement);

  const workload::TurbulenceParams& turb = problem.turbulence;
  h->add_f64(turb.amplitude);
  h->add_i32(turb.octaves);
  h->add_f64(turb.base_frequency);
  h->add_f64(turb.persistence);

  // Per-edge boundary spec (adversarial scene families).
  h->add_i32(static_cast<std::int32_t>(problem.edges.left));
  h->add_i32(static_cast<std::int32_t>(problem.edges.right));
  h->add_i32(static_cast<std::int32_t>(problem.edges.bottom));
  h->add_i32(static_cast<std::int32_t>(problem.edges.top));

  h->add_u64(problem.obstacles.size());
  for (const auto& ob : problem.obstacles) {
    h->add_i32(static_cast<std::int32_t>(ob.kind));
    h->add_f64(ob.cx);
    h->add_f64(ob.cy);
    h->add_f64(ob.rx);
    h->add_f64(ob.ry);
    h->add_f64(ob.angle);
    // Rigid-body motion: two problems differing only in obstacle
    // velocity trace out different trajectories, so the motion must
    // participate or the result cache would serve stale fields.
    h->add_f64(ob.vx);
    h->add_f64(ob.vy);
    h->add_f64(ob.omega);
  }

  h->add_u64(problem.inflows.size());
  for (const auto& region : problem.inflows) {
    h->add_f64(region.x0);
    h->add_f64(region.y0);
    h->add_f64(region.x1);
    h->add_f64(region.y1);
    h->add_f64(region.u);
    h->add_f64(region.v);
    h->add_f64(region.smoke);
  }

  h->add_u64(problem.vortices.size());
  for (const auto& blob : problem.vortices) {
    h->add_f64(blob.cx);
    h->add_f64(blob.cy);
    h->add_f64(blob.radius);
    h->add_f64(blob.strength);
  }

  h->add_u64(problem.sources.size());
  for (const auto& src : problem.sources) {
    h->add_f64(src.cx);
    h->add_f64(src.cy);
    h->add_f64(src.radius);
    h->add_f64(src.density);
    h->add_f64(src.velocity);
  }
}

void hash_session(Fnv1a* h, const core::SessionConfig& session) {
  // Only the fields that change the computed result participate; the
  // serving seams (inference_sink: bit-identity contract) do not. Jobs
  // carrying a solver_decorator are never cached at all (the decorator is
  // an arbitrary closure this hash cannot see), enforced at admission.
  h->add_i32(session.quality_requirement.has_value() ? 1 : 0);
  h->add_f64(session.quality_requirement.value_or(0.0));
  h->add_f64(session.controller.keep_band);
  h->add_f64(session.controller.restart_margin);
  h->add_i32(session.controller.switch_cooldown_checks);
  h->add_f64(session.controller.switch_dead_band);
  h->add_i32(session.controller.predictor.check_interval);
  h->add_i32(session.controller.predictor.warmup_steps);
  h->add_i32(session.controller.predictor.skip_per_interval);
  h->add_u64(session.controller.predictor.knn_k);
  h->add_i32(session.guard.enabled ? 1 : 0);
  h->add_f64(session.guard.residual_threshold);
  h->add_i32(session.controller.quarantine_trips);
  h->add_i32(session.controller.quarantine_window);
}

}  // namespace

std::uint64_t scene_hash_fixed(const workload::InputProblem& problem,
                               const core::TrainedModel& model,
                               const core::SessionConfig& session) {
  Fnv1a h;
  h.add_str("fixed");
  hash_problem(&h, problem);
  hash_session(&h, session);
  h.add_u64(model.records.model_id);
  h.add_str(model.spec.name);
  return h.digest();
}

std::uint64_t scene_hash_adaptive(const workload::InputProblem& problem,
                                  const core::OfflineArtifacts& artifacts,
                                  const core::SessionConfig& session) {
  Fnv1a h;
  h.add_str("adaptive");
  hash_problem(&h, problem);
  hash_session(&h, session);
  h.add_f64(artifacts.requirement.quality_loss);
  h.add_u64(artifacts.selected_ids.size());
  for (const std::size_t id : artifacts.selected_ids) {
    h.add_u64(id);
    h.add_str(artifacts.library[id].spec.name);
  }
  return h.digest();
}

}  // namespace sfn::serve
