#include "core/offline.hpp"

#include "core/neural_projection.hpp"
#include "stats/pareto.hpp"

#include <algorithm>

namespace sfn::core {

OfflineConfig OfflineConfig::tiny() {
  OfflineConfig c;
  c.generation.shallow_models = 2;
  c.generation.narrow_variants_per_model = 2;
  c.generation.dropout_models = 2;
  c.search.models = 2;
  c.search.rounds = 2;
  c.training.epochs = 1;
  c.grid = 16;
  c.train_problems = 1;
  c.train_steps = 8;
  c.sample_stride = 2;
  c.eval_problems = 2;
  c.eval_steps = 8;
  c.db_problems = 4;
  c.db_steps = 8;
  c.mlp_samples_per_model = 40;
  c.mlp_training.epochs = 10;
  return c;
}

OfflineConfig OfflineConfig::paper_scale() {
  OfflineConfig c;
  c.generation = modelgen::GenerationParams{};  // 5/10/18 => 128 models.
  c.search.models = 5;
  c.search.rounds = 8;
  c.training.epochs = 4;
  c.grid = 64;
  c.train_problems = 8;
  c.train_steps = 48;
  c.eval_problems = 16;
  c.eval_steps = 48;
  c.db_problems = 128;  // Paper: "128 small input problems".
  c.db_steps = 48;
  c.mlp_samples_per_model = 400;
  c.mlp_training.epochs = 120;
  return c;
}

TrainedModel train_model(const modelgen::ArchSpec& spec,
                         const std::vector<TrainingSample>& samples,
                         const SurrogateTrainParams& params, util::Rng& rng,
                         std::string origin) {
  TrainedModel model;
  model.spec = spec;
  model.origin = std::move(origin);
  model.net = modelgen::build_network(spec, rng);
  model.train_loss = train_surrogate(&model.net, samples, params, rng);
  // The weights are final: build the packs every later copy and
  // inference reads (DESIGN.md §8).
  model.net.prepack_for_inference();
  return model;
}

void measure_model(TrainedModel* model,
                   const std::vector<workload::InputProblem>& problems,
                   const std::vector<workload::RunResult>& references) {
  const auto evaluation = workload::evaluate_batch(
      problems, references, [&]() -> std::unique_ptr<fluid::PoissonSolver> {
        return std::make_unique<NeuralProjection>(model->net,
                                                  model->spec.name);
      });
  model->records.records.clear();
  double time_acc = 0.0;
  for (std::size_t i = 0; i < problems.size(); ++i) {
    quality::ExecutionRecord record;
    record.quality_loss = evaluation.quality_loss[i];
    record.seconds = evaluation.runs[i].total_seconds;
    time_acc += record.seconds;
    model->records.records.push_back(record);
  }
  model->mean_quality = evaluation.mean_quality_loss;
  model->mean_seconds =
      problems.empty() ? 0.0 : time_acc / static_cast<double>(problems.size());
}

namespace {

/// Problems must divide evenly for every pooled spec: the base model
/// pools down to 1/4 resolution and the pooling transformation can double
/// that, so grids that are multiples of 8 are always safe.
int sanitize_grid(int grid) { return std::max(16, (grid / 8) * 8); }

}  // namespace

OfflineArtifacts run_offline_pipeline(const OfflineConfig& config,
                                      const UserRequirement& requirement) {
  OfflineArtifacts artifacts;
  artifacts.requirement = requirement;
  util::Rng rng(config.seed);

  const int grid = sanitize_grid(config.grid);

  // --- Data collection (paper §7 "Input Datasets") -----------------------
  workload::ProblemSetParams train_params;
  train_params.grid = grid;
  train_params.steps = config.train_steps;
  auto train_problems = workload::generate_problems(
      config.train_problems, train_params, config.seed * 7919 + 1);
  if (config.multires_training) {
    // Re-home half the problems onto a 2x grid; the problem description
    // is resolution-independent so only nx/ny change.
    for (std::size_t p = 0; p < train_problems.size(); p += 2) {
      train_problems[p].nx *= 2;
      train_problems[p].ny *= 2;
    }
  }
  const auto samples =
      collect_training_data(train_problems, config.sample_stride);

  workload::ProblemSetParams eval_params = train_params;
  eval_params.steps = config.eval_steps;
  auto eval_problems = workload::generate_problems(
      config.eval_problems, eval_params, config.seed * 7919 + 2);
  if (config.multires_training) {
    // Measure accuracy across resolutions too: the runtime's
    // fast-to-accurate candidate ordering must hold on the (larger)
    // online grids, and single-resolution rankings do not transfer.
    for (std::size_t p = 0; p < eval_problems.size(); p += 2) {
      eval_problems[p].nx *= 2;
      eval_problems[p].ny *= 2;
    }
  }
  const auto references = workload::reference_runs(eval_problems);

  double pcg_acc = 0.0;
  for (const auto& ref : references) {
    pcg_acc += ref.total_seconds;
  }
  artifacts.pcg_mean_seconds =
      references.empty() ? 0.0
                         : pcg_acc / static_cast<double>(references.size());

  // --- Model construction (paper §4) --------------------------------------
  const modelgen::ArchSpec base = modelgen::tompson_spec();

  // Accurate models via the Auto-Keras-substitute search; the objective is
  // a short supervised training run scored by its final loss.
  SurrogateTrainParams probe_train = config.training;
  probe_train.epochs = std::max(1, config.training.epochs / 2);
  const auto objective = [&](const modelgen::ArchSpec& spec) {
    util::Rng probe_rng(config.seed ^ 0xacc);
    nn::Network net = modelgen::build_network(spec, probe_rng);
    return train_surrogate(&net, samples, probe_train, probe_rng);
  };
  const auto accurate_specs =
      modelgen::search_accurate_models(base, config.search, objective, rng);

  auto family = modelgen::generate_family(base, config.generation, rng);
  for (const auto& spec : accurate_specs) {
    family.push_back({spec, "search"});
  }

  // --- Train + measure every model ----------------------------------------
  for (std::size_t k = 0; k < family.size(); ++k) {
    TrainedModel model = train_model(family[k].spec, samples, config.training,
                                     rng, family[k].origin);
    model.records.model_id = k;
    measure_model(&model, eval_problems, references);
    artifacts.library.models.push_back(std::move(model));
  }

  // --- Pareto filter (paper Figure 3) --------------------------------------
  std::vector<stats::ParetoPoint> points;
  points.reserve(artifacts.library.size());
  for (std::size_t k = 0; k < artifacts.library.size(); ++k) {
    points.push_back({artifacts.library[k].mean_seconds,
                      artifacts.library[k].mean_quality, k});
  }
  artifacts.pareto_ids = stats::pareto_front(points);

  // --- MLP success-rate predictor (paper §5) -------------------------------
  std::vector<modelgen::ArchSpec> pareto_specs;
  std::vector<quality::ModelRecords> pareto_records;
  std::vector<double> pareto_seconds;
  for (std::size_t idx = 0; idx < artifacts.pareto_ids.size(); ++idx) {
    const auto& model = artifacts.library[artifacts.pareto_ids[idx]];
    pareto_specs.push_back(model.spec);
    quality::ModelRecords records = model.records;
    records.model_id = idx;  // Re-index into the Pareto set.
    pareto_records.push_back(std::move(records));
    pareto_seconds.push_back(model.mean_seconds);
  }
  const auto mlp_samples = quality::generate_mlp_samples(
      pareto_records, config.mlp_samples_per_model, rng);
  auto mlp = quality::train_mlp(config.mlp_topology, pareto_specs,
                                mlp_samples, config.mlp_training, rng);
  artifacts.mlp_curve = std::move(mlp.curve);
  artifacts.predictor =
      std::make_unique<quality::SuccessPredictor>(std::move(mlp.predictor));

  // --- Eq. 8 selection ------------------------------------------------------
  artifacts.scores = quality::select_models(
      *artifacts.predictor, pareto_specs, pareto_seconds,
      artifacts.pcg_mean_seconds, requirement.quality_loss,
      requirement.seconds, config.max_selected);
  for (std::size_t idx = 0; idx < artifacts.scores.size(); ++idx) {
    if (artifacts.scores[idx].selected) {
      artifacts.selected_ids.push_back(artifacts.pareto_ids[idx]);
    }
  }
  // Eq. 8 can reject everything when the time budget is hopeless; fall
  // back to the highest-probability candidate so the runtime always has a
  // model (it will restart with PCG if quality cannot be met either).
  if (artifacts.selected_ids.empty() && !artifacts.pareto_ids.empty()) {
    std::size_t best = 0;
    for (std::size_t idx = 1; idx < artifacts.scores.size(); ++idx) {
      if (artifacts.scores[idx].success_probability >
          artifacts.scores[best].success_probability) {
        best = idx;
      }
    }
    artifacts.selected_ids.push_back(artifacts.pareto_ids[best]);
  }

  // --- KNN quality database (paper §6.1) ------------------------------------
  workload::ProblemSetParams db_params = train_params;
  db_params.steps = config.db_steps;
  auto db_problems = workload::generate_problems(
      config.db_problems, db_params, config.seed * 7919 + 3);
  if (config.multires_training) {
    // Span the online grid regime: model divergence per cell grows with
    // resolution, so a single-resolution database would map every larger
    // online run to its worst stored quality.
    for (std::size_t p = 0; p < db_problems.size(); p += 2) {
      db_problems[p].nx *= 2;
      db_problems[p].ny *= 2;
    }
  }
  const auto db_references = workload::reference_runs(db_problems);
  for (std::size_t id : artifacts.selected_ids) {
    auto& model = artifacts.library[id];
    for (std::size_t p = 0; p < db_problems.size(); ++p) {
      NeuralProjection solver(model.net, model.spec.name);
      const auto run = workload::run_simulation(db_problems[p], &solver);
      const double qloss = workload::run_quality_loss(db_references[p], run);
      const double cdn_final = run.telemetry.back().cum_div_norm;
      artifacts.quality_db.add(cdn_final, qloss);
    }
  }

  return artifacts;
}

}  // namespace sfn::core
