#include "ladder.hpp"

#include "core/neural_projection.hpp"
#include "core/persistence.hpp"
#include "util/timer.hpp"

#include <algorithm>
#include <sstream>

namespace perfbench {

namespace {

using namespace sfn;

// Offline scale: small grids keep set-up a few seconds; every other
// problem is re-homed to twice the grid (as the offline pipeline does) so
// the fully-convolutional surrogates see larger-grid statistics.
constexpr int kGrid = 32;
constexpr int kTrainProblems = 4;
constexpr int kTrainSteps = 16;
constexpr int kSampleStride = 4;
constexpr int kEpochs = 6;
constexpr int kEvalProblems = 4;
constexpr int kEvalSteps = 16;
// The KNN database keys on CumDivNorm after a full run, so its runs are as
// long as the served sessions'.
constexpr int kDbProblems = 6;
constexpr int kDbSteps = 32;

std::vector<workload::InputProblem> problems(int count, int steps,
                                             std::uint64_t seed) {
  workload::ProblemSetParams params;
  params.grid = kGrid;
  params.steps = steps;
  auto out = workload::generate_problems(count, params, seed);
  for (std::size_t p = 0; p < out.size(); p += 2) {
    out[p].nx *= 2;
    out[p].ny *= 2;
  }
  return out;
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t ladder_hash(const core::OfflineArtifacts& artifacts) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& model : artifacts.library.models) {
    std::ostringstream out;
    core::save_spec(model.spec, out);
    model.net.save(out);
    h = fnv1a(h, out.str());
  }
  std::ostringstream q;
  q.precision(17);
  q << artifacts.requirement.quality_loss;
  return fnv1a(h, q.str());
}

double flop_cost(const nn::Network& net, int grid, int steps) {
  return static_cast<double>(net.flops({2, grid, grid})) * steps;
}

}  // namespace

Ladder build_ladder(std::uint64_t seed) {
  const util::Timer total;
  Ladder ladder;
  auto& artifacts = ladder.artifacts;

  // --- Training --------------------------------------------------------
  const util::Timer train_timer;
  const auto samples = core::collect_training_data(
      problems(kTrainProblems, kTrainSteps, seed * 7919 + 1), kSampleStride);
  core::SurrogateTrainParams train;
  train.epochs = kEpochs;
  util::Rng rng(seed ^ 0x1add3full);
  // Fast/inaccurate to slow/accurate, as the paper's candidate family.
  const std::vector<modelgen::ArchSpec> specs = {
      modelgen::yang_spec(), modelgen::tompson_spec(4),
      modelgen::tompson_spec(8)};
  for (std::size_t k = 0; k < specs.size(); ++k) {
    auto model = core::train_model(specs[k], samples, train, rng, "ladder");
    model.spec.name = model.spec.name + "-w" + std::to_string(k);
    model.records.model_id = k;
    artifacts.library.models.push_back(std::move(model));
  }
  ladder.train_s = train_timer.seconds();

  // --- Quality ranking and KNN database ----------------------------------
  const util::Timer quality_timer;
  const auto eval = problems(kEvalProblems, kEvalSteps, seed * 7919 + 2);
  const auto eval_refs = workload::reference_runs(eval);
  double pcg_flops = 0.0;
  for (const auto& ref : eval_refs) {
    pcg_flops += static_cast<double>(ref.solve_flops);
  }
  // Cost is a flop count (giga-flops per offline problem), never a wall
  // time, so every consumer of mean_seconds orders the ladder the same
  // way on every machine.
  artifacts.pcg_mean_seconds = pcg_flops / 1e9 / eval.size();
  std::size_t best = 0;
  for (std::size_t k = 0; k < artifacts.library.size(); ++k) {
    auto& model = artifacts.library[k];
    core::measure_model(&model, eval, eval_refs);
    model.mean_seconds = flop_cost(model.net, kGrid, kEvalSteps) / 1e9;
    if (model.mean_quality < artifacts.library[best].mean_quality) {
      best = k;
    }
  }
  ladder.most_accurate = best;
  artifacts.requirement.quality_loss = kQualityRequirement;

  for (std::size_t k = 0; k < artifacts.library.size(); ++k) {
    const auto& records = artifacts.library[k].records.records;
    const auto met = std::count_if(
        records.begin(), records.end(), [&](const auto& record) {
          return record.quality_loss <= artifacts.requirement.quality_loss;
        });
    quality::CandidateScore score;
    score.model_id = k;
    // Laplace-smoothed measured success rate stands in for the MLP.
    score.success_probability = (static_cast<double>(met) + 1.0) /
                                (static_cast<double>(records.size()) + 2.0);
    score.model_seconds = artifacts.library[k].mean_seconds;
    score.selected = true;
    artifacts.scores.push_back(score);
    artifacts.pareto_ids.push_back(k);
    artifacts.selected_ids.push_back(k);
  }

  const auto db = problems(kDbProblems, kDbSteps, seed * 7919 + 3);
  const auto db_refs = workload::reference_runs(db);
  for (const auto& model : artifacts.library.models) {
    for (std::size_t p = 0; p < db.size(); ++p) {
      core::NeuralProjection solver(model.net, model.spec.name);
      const auto run = workload::run_simulation(db[p], &solver);
      artifacts.quality_db.add(run.telemetry.back().cum_div_norm,
                               workload::run_quality_loss(db_refs[p], run));
    }
  }
  ladder.quality_db_s = quality_timer.seconds();

  const util::Timer prepack_timer;
  for (const auto& model : artifacts.library.models) {
    model.net.prepack_for_inference();
  }
  ladder.prepack_s = prepack_timer.seconds();

  ladder.hash = ladder_hash(artifacts);
  ladder.total_s = total.seconds();
  return ladder;
}

}  // namespace perfbench
