#include "core/neural_projection.hpp"

#include "fluid/reduce.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/team.hpp"
#include "util/timer.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace sfn::core {

nn::Tensor encode_solver_input(const fluid::FlagGrid& flags,
                               const fluid::GridF& rhs, double* inv_scale) {
  nn::Tensor input;
  encode_solver_input(flags, rhs, inv_scale, &input);
  return input;
}

void encode_solver_input(const fluid::FlagGrid& flags, const fluid::GridF& rhs,
                         double* inv_scale, nn::Tensor* out) {
  const int nx = flags.nx();
  const int ny = flags.ny();
  SFN_CHECK(rhs.nx() == nx && rhs.ny() == ny,
            "encode_solver_input: rhs shape differs from the flag grid");
  out->resize(nn::Shape{2, ny, nx});
  const fluid::CellType* cells = flags.cells();
  const float* b = rhs.data().data();
  const auto plane = static_cast<std::size_t>(nx) * ny;

  // RMS scale over fluid cells: robust to single-cell outliers (a max
  // scale lets one spike shrink the whole input out of the training
  // distribution). The factor 3 keeps typical magnitudes near the max
  // normalisation the early prototypes used. The sum stays one serial
  // row-major chain: its bits fix the training inputs, and through them
  // every trained model.
  double sum_sq = 0.0;
  int fluid_cells = 0;
  for (std::size_t k = 0; k < plane; ++k) {
    if (cells[k] == fluid::CellType::kFluid) {
      const double v = b[k];
      if (std::isfinite(v)) {
        sum_sq += v * v;
        ++fluid_cells;
      }
    }
  }
  constexpr double kMinScale = 1e-8;
  double s = fluid_cells > 0 ? 3.0 * std::sqrt(sum_sq / fluid_cells) : 0.0;
  s = std::max(s, kMinScale);
  const auto inv = static_cast<float>(1.0 / s);
  *inv_scale = 1.0 / s;

  // Channel 0 the scaled rhs, channel 1 the geometry: 0 solid (or
  // inflow), 0.5 empty, 1 fluid.
  float* scaled = out->data().data();
  float* geometry = scaled + plane;
  util::for_rows(ny, [&](int j) {
    const auto base = static_cast<std::size_t>(j) * nx;
    for (std::size_t k = base; k < base + nx; ++k) {
      const float r = b[k];
      scaled[k] = (cells[k] == fluid::CellType::kFluid && std::isfinite(r))
                      ? r * inv
                      : 0.0f;
      float geom = 1.0f;
      if (fluid::is_solid_type(cells[k])) geom = 0.0f;
      else if (cells[k] == fluid::CellType::kEmpty) geom = 0.5f;
      geometry[k] = geom;
    }
  });
}

NeuralProjection::NeuralProjection(nn::Network net, std::string name)
    : net_(std::move(net)), name_(std::move(name)) {}

NeuralProjection::NeuralProjection(const nn::Network* shared_net,
                                   InferenceSink* sink, std::string name)
    : shared_(shared_net), sink_(sink), name_(std::move(name)) {
  SFN_CHECK(shared_net != nullptr,
            "NeuralProjection: shared-weights mode needs a network");
}

fluid::SolveStats NeuralProjection::solve(const fluid::FlagGrid& flags,
                                          const fluid::GridF& rhs,
                                          fluid::GridF* pressure) {
  SFN_TRACE_SCOPE("projection.inference");
  const util::Timer timer;
  fluid::SolveStats stats;

  double inv_scale = 1.0;
  encode_solver_input(flags, rhs, &inv_scale, &input_);
  const nn::Network& active = net();
  const nn::Tensor* result;
  if (sink_ != nullptr) {
    // Serving mode: hand the request to the coalescer, which may batch it
    // with other sessions' steps. Blocks until output_ is filled; the
    // sink contract guarantees bit-identity with the local path.
    sink_->infer(active, input_, &output_);
    result = &output_;
  } else {
    result = &active.forward_inference(input_, ws_);
  }
  const nn::Tensor& output = *result;

  const int nx = flags.nx();
  const int ny = flags.ny();
  SFN_CHECK(pressure->nx() == nx && pressure->ny() == ny,
            "NeuralProjection::solve: pressure shape differs from the flags");
  SFN_CHECK(output.shape().c >= 1 && output.shape().h >= ny &&
                output.shape().w >= nx,
            "NeuralProjection::solve: network output smaller than the grid");
  const auto scale = static_cast<float>(1.0 / inv_scale);
  const fluid::CellType* cells = flags.cells();
  const float* predicted = output.data().data();
  const auto out_stride = static_cast<std::size_t>(output.shape().w);
  float* p = pressure->data().data();
  // Sanitise: a surrogate must never inject non-finite values into the
  // simulation (downstream advection assumes finite velocities).
  const auto& rows = fluid::row_partials<int>(ny, [&](int j, int* bad) {
    const float* in = predicted + static_cast<std::size_t>(j) * out_stride;
    const auto base = static_cast<std::size_t>(j) * nx;
    for (int i = 0; i < nx; ++i) {
      const float v = in[i] * scale;
      const bool fluid = cells[base + i] == fluid::CellType::kFluid;
      const bool finite = std::isfinite(v);
      p[base + i] = (fluid && finite) ? v : 0.0f;
      if (fluid && !finite) {
        ++*bad;
      }
    }
  });
  int non_finite = 0;
  for (const int bad : rows) {
    non_finite += bad;
  }
  stats.non_finite = non_finite;

  // The sanitising loop above is the repo's NaN firewall (DESIGN.md §6):
  // whatever the surrogate produced, the pressure handed to the simulator
  // must be finite. Unlike the entry checks elsewhere this invariant is
  // unconditional in numerics builds — it guards the contract itself.
  SFN_CHECK_FINITE(pressure->data().data(), pressure->size(),
                   "NeuralProjection::solve sanitised pressure");

  stats.iterations = 1;
  stats.converged = true;
  stats.residual = 0.0;  // Not measured: that is the surrogate's point.
  stats.flops = net().flops(input_.shape());
  stats.seconds = timer.seconds();
  return stats;
}

}  // namespace sfn::core
