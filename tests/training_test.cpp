#include "core/neural_projection.hpp"
#include "core/offline.hpp"
#include "core/training.hpp"
#include "fluid/operators.hpp"
#include "fluid/pcg.hpp"

#include <gtest/gtest.h>
#include <omp.h>

#include <cmath>
#include <cstdint>
#include <sstream>

namespace sfn {
namespace {

workload::ProblemSetParams small_params() {
  workload::ProblemSetParams p;
  p.grid = 24;
  p.steps = 10;
  return p;
}

TEST(Training, CollectsSamplesAtStride) {
  const auto problems = workload::generate_problems(2, small_params(), 1);
  const auto samples = core::collect_training_data(problems, 5);
  // 10 steps, stride 5 -> snapshots at steps 0 and 5, per problem.
  EXPECT_EQ(samples.size(), 4u);
  for (const auto& s : samples) {
    EXPECT_EQ(s.rhs.nx(), 24);
    EXPECT_EQ(s.pressure.nx(), 24);
    // PCG solved this sample: residual of the stored pair is tiny.
    EXPECT_LT(fluid::poisson_residual(s.flags, s.rhs, s.pressure), 1e-5);
  }
}

TEST(Training, EncoderScaleInvariance) {
  // The solver input encoding divides by max |rhs|: scaling the rhs must
  // produce the identical normalised tensor.
  const auto problems = workload::generate_problems(1, small_params(), 2);
  const auto samples = core::collect_training_data(problems, 4);
  ASSERT_FALSE(samples.empty());
  const auto& s = samples.front();

  double inv1 = 0.0;
  const auto t1 = core::encode_solver_input(s.flags, s.rhs, &inv1);
  fluid::GridF scaled = s.rhs;
  for (std::size_t k = 0; k < scaled.size(); ++k) {
    scaled[k] *= 8.0f;
  }
  double inv2 = 0.0;
  const auto t2 = core::encode_solver_input(s.flags, scaled, &inv2);
  EXPECT_NEAR(inv1 / inv2, 8.0, 1e-4);
  for (std::size_t k = 0; k < t1.numel(); ++k) {
    ASSERT_NEAR(t1[k], t2[k], 1e-5f);
  }
}

TEST(Training, LossDecreasesOverEpochs) {
  const auto problems = workload::generate_problems(2, small_params(), 3);
  const auto samples = core::collect_training_data(problems, 3);
  ASSERT_GT(samples.size(), 4u);

  util::Rng rng(7);
  auto net = modelgen::build_network(modelgen::tompson_spec(4), rng);

  core::SurrogateTrainParams one_epoch;
  one_epoch.epochs = 1;
  auto net_copy = net;
  const double loss1 = core::train_surrogate(&net_copy, samples, one_epoch, rng);

  util::Rng rng2(7);
  core::SurrogateTrainParams many_epochs;
  many_epochs.epochs = 8;
  const double loss8 = core::train_surrogate(&net, samples, many_epochs, rng2);
  EXPECT_LT(loss8, loss1);
}

/// Residual-divergence ratio of a surrogate's single solve on held-out
/// samples: ||A p-hat - b|| / ||b||, the quantity DivNorm training drives
/// down. A useless model scores ~1 (p-hat = 0), PCG scores ~0.
double residual_ratio(nn::Network& net,
                      const std::vector<core::TrainingSample>& held_out) {
  core::NeuralProjection proj(net);
  double acc = 0.0;
  for (const auto& s : held_out) {
    const int n = s.rhs.nx();
    fluid::GridF p(n, n, 0.0f);
    proj.solve(s.flags, s.rhs, &p);
    fluid::GridF ap(n, n, 0.0f);
    fluid::apply_pressure_laplacian(p, s.flags, &ap);
    double rn = 0.0;
    double bn = 0.0;
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        if (!s.flags.is_fluid(i, j)) continue;
        const double r = static_cast<double>(ap(i, j)) - s.rhs(i, j);
        rn += r * r;
        bn += static_cast<double>(s.rhs(i, j)) * s.rhs(i, j);
      }
    }
    acc += std::sqrt(rn / std::max(bn, 1e-20));
  }
  return acc / static_cast<double>(held_out.size());
}

TEST(Training, TrainedSurrogateBeatsUntrained) {
  const auto problems = workload::generate_problems(2, small_params(), 4);
  const auto samples = core::collect_training_data(problems, 2);

  util::Rng rng(8);
  auto untrained = modelgen::build_network(modelgen::tompson_spec(4), rng);
  auto trained = untrained;  // Same initial weights.
  core::SurrogateTrainParams params;
  params.epochs = 10;
  core::train_surrogate(&trained, samples, params, rng);

  const auto held_out_problems =
      workload::generate_problems(1, small_params(), 5);
  auto held_out = core::collect_training_data(held_out_problems, 4);
  ASSERT_FALSE(held_out.empty());

  const double before = residual_ratio(untrained, held_out);
  const double after = residual_ratio(trained, held_out);
  EXPECT_LT(after, before);
  // DivNorm training must actually reduce divergence, not just tie zero.
  EXPECT_LT(after, 0.9);
}

TEST(Training, SupervisedObjectiveAlsoLearns) {
  const auto problems = workload::generate_problems(2, small_params(), 6);
  const auto samples = core::collect_training_data(problems, 2);
  util::Rng rng(9);
  auto net = modelgen::build_network(modelgen::tompson_spec(4), rng);
  core::SurrogateTrainParams params;
  params.objective = core::SurrogateTrainParams::Objective::kPressureMse;
  params.epochs = 2;
  const double loss = core::train_surrogate(&net, samples, params, rng);
  EXPECT_TRUE(std::isfinite(loss));
  // Outputs stay finite under the supervised objective too.
  const auto& s = samples.front();
  double inv = 0.0;
  const auto out = net.forward(core::encode_solver_input(s.flags, s.rhs, &inv),
                               false);
  for (std::size_t k = 0; k < out.numel(); ++k) {
    EXPECT_TRUE(std::isfinite(out[k]));
  }
}

TEST(NeuralProjection, ProducesFiniteBoundedPressure) {
  const auto problems = workload::generate_problems(1, small_params(), 10);
  const auto samples = core::collect_training_data(problems, 4);
  ASSERT_FALSE(samples.empty());

  util::Rng rng(10);
  auto net = modelgen::build_network(modelgen::tompson_spec(4), rng);
  core::SurrogateTrainParams params;
  params.epochs = 4;
  core::train_surrogate(&net, samples, params, rng);

  core::NeuralProjection proj(std::move(net), "test");
  EXPECT_EQ(proj.name(), "test");
  const auto& s = samples.front();
  fluid::GridF p(24, 24, 0.0f);
  const auto stats = proj.solve(s.flags, s.rhs, &p);
  EXPECT_TRUE(stats.converged);
  EXPECT_GT(stats.flops, 0u);
  EXPECT_EQ(stats.iterations, 1);
  for (std::size_t k = 0; k < p.size(); ++k) {
    EXPECT_TRUE(std::isfinite(p[k]));
  }
  // Pressure zero outside fluid cells.
  EXPECT_FLOAT_EQ(p(0, 0), 0.0f);
}

TEST(NeuralProjection, SimulationRemainsStable) {
  // The critical end-to-end property: an NN-projected smoke sim must not
  // blow up over a full run (velocities bounded, density in range).
  const auto train_problems =
      workload::generate_problems(2, small_params(), 11);
  const auto samples = core::collect_training_data(train_problems, 2);
  util::Rng rng(11);
  auto net = modelgen::build_network(modelgen::tompson_spec(4), rng);
  core::SurrogateTrainParams params;
  params.epochs = 6;
  core::train_surrogate(&net, samples, params, rng);

  auto eval_params = small_params();
  eval_params.steps = 24;
  const auto eval_problems = workload::generate_problems(1, eval_params, 12);
  core::NeuralProjection proj(std::move(net));
  const auto run = workload::run_simulation(eval_problems[0], &proj);
  for (std::size_t k = 0; k < run.final_density.size(); ++k) {
    ASSERT_TRUE(std::isfinite(run.final_density[k]));
  }
  for (const auto& t : run.telemetry) {
    ASSERT_TRUE(std::isfinite(t.div_norm));
  }
  EXPECT_GT(run.final_density.sum(), 0.0);
}

TEST(TrainModelHelper, ProducesMeasuredModel) {
  const auto problems = workload::generate_problems(1, small_params(), 13);
  const auto samples = core::collect_training_data(problems, 4);
  util::Rng rng(13);
  core::SurrogateTrainParams params;
  params.epochs = 1;
  auto model = core::train_model(modelgen::yang_spec(), samples, params, rng,
                                 "baseline");
  EXPECT_EQ(model.origin, "baseline");
  EXPECT_GT(model.net.param_count(), 0u);

  const auto refs = workload::reference_runs(problems);
  core::measure_model(&model, problems, refs);
  EXPECT_EQ(model.records.records.size(), 1u);
  EXPECT_GT(model.mean_seconds, 0.0);
  EXPECT_GE(model.mean_quality, 0.0);
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

TEST(Training, TrainedWeightsArePinned) {
  // The exact bits of two trained surrogates, at one thread and at a team
  // of four. The goldens run untrained synthetic models, so this is the
  // ctest that notices when training's arithmetic moves (perfbench's
  // ladder_hash, which trains yang and tompson too, would move with it).
  workload::ProblemSetParams params;
  params.grid = 16;
  params.steps = 8;
  const auto samples = core::collect_training_data(
      workload::generate_problems(2, params, 31), 4);
  ASSERT_EQ(samples.size(), 4u);
  core::SurrogateTrainParams train;
  train.epochs = 2;
  const struct {
    modelgen::ArchSpec spec;
    std::uint64_t hash;
  } cases[] = {{modelgen::yang_spec(), 0x656398c7f2898b58ull},
               {modelgen::tompson_spec(4), 0x1d35667cadb78e50ull}};

  const int old_threads = omp_get_max_threads();
  for (const int threads : {1, 4}) {
    omp_set_num_threads(threads);
    for (const auto& c : cases) {
      util::Rng rng(0x7e57);
      const auto model = core::train_model(c.spec, samples, train, rng);
      std::ostringstream bytes;
      model.net.save(bytes);
      EXPECT_EQ(fnv1a(bytes.str()), c.hash)
          << c.spec.name << " at " << threads << " OpenMP threads";
    }
  }
  omp_set_num_threads(old_threads);
}

}  // namespace
}  // namespace sfn
