#include "core/training.hpp"

#include "core/neural_projection.hpp"
#include "fluid/operators.hpp"
#include "fluid/pcg.hpp"
#include "nn/optimizer.hpp"

#include <algorithm>
#include <numeric>

namespace sfn::core {

std::vector<TrainingSample> collect_training_data(
    const std::vector<workload::InputProblem>& problems, int stride) {
  std::vector<TrainingSample> samples;
  for (const auto& problem : problems) {
    fluid::SmokeSim sim = workload::make_sim(problem);
    fluid::PcgSolver pcg;
    for (int step = 0; step < problem.steps; ++step) {
      sim.step(&pcg);
      if (step % stride != 0) {
        continue;
      }
      TrainingSample sample;
      sample.flags = sim.flags();
      sample.pressure = sim.pressure();
      sample.rhs = sim.last_rhs();
      samples.push_back(std::move(sample));
    }
  }
  return samples;
}

nn::LossResult divnorm_loss(const fluid::FlagGrid& flags,
                            const fluid::GridF& rhs,
                            const nn::Tensor& pressure_pred, int weight_k) {
  const int nx = flags.nx();
  const int ny = flags.ny();

  fluid::GridF p(nx, ny, 0.0f);
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      p(i, j) = flags.is_fluid(i, j) ? pressure_pred.at(0, j, i) : 0.0f;
    }
  }

  // Residual divergence after the velocity update: r = A p - rhs.
  fluid::GridF ap(nx, ny, 0.0f);
  fluid::apply_pressure_laplacian(p, flags, &ap);

  const auto dist = fluid::solid_distance_field(flags);
  fluid::GridF weighted(nx, ny, 0.0f);
  double value = 0.0;
  int fluid_cells = 0;
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      if (!flags.is_fluid(i, j)) {
        continue;
      }
      ++fluid_cells;
      const double r = static_cast<double>(ap(i, j)) - rhs(i, j);
      const double w =
          std::max(1.0, static_cast<double>(weight_k - dist(i, j)));
      value += w * r * r;
      weighted(i, j) = static_cast<float>(w * r);
    }
  }
  const double norm = fluid_cells > 0 ? 1.0 / fluid_cells : 0.0;

  // dLoss/dp = 2 A^T (w .* r) = 2 A (w .* r): A is symmetric because the
  // flag-aware stencil couples fluid pairs with equal -1 entries.
  fluid::GridF grad_grid(nx, ny, 0.0f);
  fluid::apply_pressure_laplacian(weighted, flags, &grad_grid);

  nn::LossResult result;
  result.value = value * norm;
  result.grad = nn::Tensor(pressure_pred.shape());
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      result.grad.at(0, j, i) =
          flags.is_fluid(i, j)
              ? static_cast<float>(2.0 * norm * grad_grid(i, j))
              : 0.0f;
    }
  }
  return result;
}

namespace {

/// Encoded sample ready for the training loop: everything lives in the
/// normalised space of encode_solver_input, so each sample contributes a
/// comparably scaled loss regardless of its physical magnitude.
struct EncodedSample {
  nn::Tensor input;
  nn::Tensor mse_target;     ///< Normalised PCG pressure (MSE objective).
  fluid::GridF rhs_normed;   ///< rhs / s (DivNorm objective).
  const TrainingSample* raw = nullptr;
};

}  // namespace

double train_surrogate(nn::Network* net,
                       const std::vector<TrainingSample>& samples,
                       const SurrogateTrainParams& params, util::Rng& rng) {
  if (samples.empty()) {
    return 0.0;
  }
  const bool supervised =
      params.objective == SurrogateTrainParams::Objective::kPressureMse;

  std::vector<EncodedSample> encoded;
  encoded.reserve(samples.size());
  for (const auto& s : samples) {
    EncodedSample e;
    double inv_scale = 1.0;
    e.input = encode_solver_input(s.flags, s.rhs, &inv_scale);
    e.raw = &s;
    const int nx = s.flags.nx();
    const int ny = s.flags.ny();
    e.rhs_normed = s.rhs;
    for (std::size_t k = 0; k < e.rhs_normed.size(); ++k) {
      e.rhs_normed[k] *= static_cast<float>(inv_scale);
    }
    if (supervised) {
      e.mse_target = nn::Tensor(nn::Shape{1, ny, nx});
      for (int j = 0; j < ny; ++j) {
        for (int i = 0; i < nx; ++i) {
          e.mse_target.at(0, j, i) =
              s.flags.is_fluid(i, j)
                  ? static_cast<float>(s.pressure(i, j) * inv_scale)
                  : 0.0f;
        }
      }
    }
    encoded.push_back(std::move(e));
  }

  nn::Adam optimizer(params.learning_rate);
  std::vector<std::size_t> order(encoded.size());
  std::iota(order.begin(), order.end(), std::size_t{0});

  double last_epoch_loss = 0.0;
  std::size_t in_batch = 0;
  net->zero_grads();
  for (int epoch = 0; epoch < params.epochs; ++epoch) {
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1],
                order[static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
    }
    double epoch_loss = 0.0;
    for (std::size_t idx : order) {
      const auto& e = encoded[idx];
      const nn::Tensor pred = net->forward(e.input, /*train=*/true);
      nn::LossResult loss =
          supervised
              ? nn::mse_loss(pred, e.mse_target)
              : divnorm_loss(e.raw->flags, e.rhs_normed, pred,
                             params.divnorm_weight_k);
      epoch_loss += loss.value;
      net->backward(loss.grad);
      if (++in_batch == static_cast<std::size_t>(params.batch_size)) {
        optimizer.step(*net, static_cast<double>(in_batch));
        net->zero_grads();
        in_batch = 0;
      }
    }
    last_epoch_loss = epoch_loss / static_cast<double>(encoded.size());
  }
  if (in_batch > 0) {
    optimizer.step(*net, static_cast<double>(in_batch));
    net->zero_grads();
  }

  return last_epoch_loss;
}

}  // namespace sfn::core
