#include "nn/conv2d.hpp"

#include "nn/kernels/packed_conv.hpp"
#include "nn/serialize.hpp"
#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace sfn::nn {

Conv2D::Conv2D(int in_channels, int out_channels, int kernel, bool residual)
    : in_c_(in_channels),
      out_c_(out_channels),
      k_(kernel),
      residual_(residual),
      weights_(static_cast<std::size_t>(out_channels) * in_channels * kernel *
               kernel),
      weight_grads_(weights_.size(), 0.0f),
      bias_(out_channels, 0.0f),
      bias_grads_(out_channels, 0.0f) {
  if (kernel % 2 == 0 || kernel < 1) {
    throw std::invalid_argument("Conv2D: kernel must be odd and positive");
  }
  if (residual_ && in_c_ != out_c_) {
    throw std::invalid_argument(
        "Conv2D: residual connection needs in == out channels");
  }
  util::Rng rng(0x5eedull ^ (static_cast<std::uint64_t>(in_channels) << 16) ^
                out_channels);
  init_weights(rng);
}

void Conv2D::init_weights(util::Rng& rng) {
  // He initialisation (ReLU follows most convs in this library).
  const double fan_in = static_cast<double>(in_c_) * k_ * k_;
  const double scale = std::sqrt(2.0 / fan_in);
  for (auto& w : weights_) {
    w = static_cast<float>(rng.normal(0.0, scale));
  }
  for (auto& b : bias_) {
    b = 0.0f;
  }
  pack_.reset();
}

Shape Conv2D::output_shape(const Shape& input) const {
  if (input.c != in_c_) {
    throw std::invalid_argument("Conv2D: input channel mismatch");
  }
  return Shape{out_c_, input.h, input.w};
}

std::uint64_t Conv2D::flops(const Shape& input) const {
  const auto hw = static_cast<std::uint64_t>(input.h) * input.w;
  std::uint64_t f = 2ull * k_ * k_ * in_c_ * out_c_ * hw;
  if (residual_) {
    f += static_cast<std::uint64_t>(out_c_) * hw;
  }
  return f;
}

ConvAlgo Conv2D::choose_algo(const Shape& input) const {
  // The packed kernel wins once the column matrix (taps x channels) is
  // tall enough to amortise the slab copy and tiling over a non-trivial
  // image; below that the per-tap loop's lower setup cost wins (e.g. the
  // first 2-channel 3x3 layer on a tiny validation grid, or 1x1
  // bottlenecks with very few channels).
  const std::size_t taps = static_cast<std::size_t>(in_c_) * k_ * k_;
  const std::size_t pixels = static_cast<std::size_t>(input.h) * input.w;
  if (taps < 16 || pixels < 256) return ConvAlgo::kNaive;
  return ConvAlgo::kPacked;
}

void Conv2D::forward_naive_into(const Tensor& input, Tensor& out,
                                bool fuse_relu) const {
  const Shape in_shape = input.shape();
  out.resize(output_shape(in_shape));
  const int h = in_shape.h;
  const int w = in_shape.w;
  const int pad = k_ / 2;

  const float* in_base = input.data().data();
  float* out_base = out.data().data();
  const auto plane = static_cast<std::size_t>(h) * w;

#pragma omp parallel for schedule(static)
  for (int oc = 0; oc < out_c_; ++oc) {
    float* out_plane = out_base + static_cast<std::size_t>(oc) * plane;
    // Bias first, accumulate channel taps on top.
    std::fill(out_plane, out_plane + plane, bias_[oc]);

    for (int ic = 0; ic < in_c_; ++ic) {
      const float* in_plane = in_base + static_cast<std::size_t>(ic) * plane;
      const float* wrow =
          &weights_[((static_cast<std::size_t>(oc) * in_c_ + ic) * k_) * k_];
      for (int ky = 0; ky < k_; ++ky) {
        const int dy = ky - pad;
        for (int kx = 0; kx < k_; ++kx) {
          const int dx = kx - pad;
          const float wv = wrow[ky * k_ + kx];
          if (wv == 0.0f) continue;
          const int y0 = std::max(0, -dy);
          const int y1 = std::min(h, h - dy);
          const int x0 = std::max(0, -dx);
          const int x1 = std::min(w, w - dx);
          for (int y = y0; y < y1; ++y) {
            float* dst = out_plane + static_cast<std::size_t>(y) * w;
            const float* src =
                in_plane + static_cast<std::size_t>(y + dy) * w + dx;
            for (int x = x0; x < x1; ++x) {
              dst[x] += wv * src[x];
            }
          }
        }
      }
    }
  }

  // Epilogue, one pass over the output: residual add, then ReLU with the
  // same `x > 0 ? x : 0` as ReLU::forward_into and the packed kernels.
  if (residual_ || fuse_relu) {
    const float* res = residual_ ? in_base : nullptr;
    const auto n = static_cast<std::ptrdiff_t>(out.numel());
#pragma omp parallel for schedule(static)
    for (std::ptrdiff_t i = 0; i < n; ++i) {
      float v = out_base[i];
      if (res != nullptr) {
        v += res[i];
      }
      if (fuse_relu) {
        v = v > 0.0f ? v : 0.0f;
      }
      out_base[i] = v;
    }
  }
}

void Conv2D::prepack() const {
  if (pack_) {
    return;
  }
  kernels::PackedConvWeights packed;
  kernels::pack_conv_weights(weights_.data(), bias_.data(), out_c_,
                             in_c_ * k_ * k_, &packed);
  pack_ = std::move(packed);
}

void Conv2D::forward_packed_into(const Tensor& input, Tensor& output,
                                 Workspace& ws, bool fuse_relu) const {
  const Shape in_shape = input.shape();
  output.resize(output_shape(in_shape));
  if (!pack_) {
    kernels::pack_conv_weights(weights_.data(), bias_.data(), out_c_,
                               in_c_ * k_ * k_, &ws.pack);
  }
  kernels::ConvArgs args;
  args.in_c = in_c_;
  args.out_c = out_c_;
  args.k = k_;
  args.h = in_shape.h;
  args.w = in_shape.w;
  args.residual = residual_;
  args.relu = fuse_relu;
  args.in = input.data().data();
  args.out = output.data().data();
  kernels::packed_conv_forward(pack_ ? *pack_ : ws.pack, args, ws);
}

void Conv2D::forward_into_fused(const Tensor& input, Tensor& output,
                                Workspace& ws, bool fuse_relu) const {
  // Per-algo dispatch counters: cheap relaxed atomics that let BENCH/obs
  // tables attribute inference time to the kernel family actually run.
  static obs::Counter& naive_calls = obs::counter("nn.conv.naive_calls");
  static obs::Counter& packed_calls = obs::counter("nn.conv.packed_calls");
  static obs::Counter& fused_calls = obs::counter("nn.conv.fused_relu_calls");

  switch (choose_algo(input.shape())) {
    case ConvAlgo::kNaive:
      naive_calls.add(1);
      forward_naive_into(input, output, fuse_relu);
      break;
    case ConvAlgo::kPacked:
      packed_calls.add(1);
      forward_packed_into(input, output, ws, fuse_relu);
      break;
  }
  if (fuse_relu) {
    fused_calls.add(1);
  }
}

void Conv2D::forward_into(const Tensor& input, Tensor& output,
                          Workspace& ws) const {
  forward_into_fused(input, output, ws, /*fuse_relu=*/false);
}

Tensor Conv2D::forward(const Tensor& input, bool /*train*/) {
  cached_input_ = input;
  if (!own_ws_) {
    own_ws_ = std::make_unique<Workspace>();
  }
  Tensor out;
  forward_into(input, out, *own_ws_);
  return out;
}

Tensor Conv2D::backward(const Tensor& grad_output) {
  const Shape in_shape = cached_input_.shape();
  const int h = in_shape.h;
  const int w = in_shape.w;
  const int pad = k_ / 2;
  const auto plane = static_cast<std::size_t>(h) * w;
  const float* in_base = cached_input_.data().data();
  const float* go_base = grad_output.data().data();

  // Weight and bias gradients: each tap's gradient is the dot product of
  // the output gradient with the input plane shifted by (dy, dx).
#pragma omp parallel for schedule(static)
  for (int oc = 0; oc < out_c_; ++oc) {
    const float* go_plane = go_base + static_cast<std::size_t>(oc) * plane;
    double bias_acc = 0.0;
    for (std::size_t i = 0; i < plane; ++i) {
      bias_acc += go_plane[i];
    }
    bias_grads_[oc] += static_cast<float>(bias_acc);

    for (int ic = 0; ic < in_c_; ++ic) {
      const float* in_plane = in_base + static_cast<std::size_t>(ic) * plane;
      for (int ky = 0; ky < k_; ++ky) {
        const int dy = ky - pad;
        for (int kx = 0; kx < k_; ++kx) {
          const int dx = kx - pad;
          const int y0 = std::max(0, -dy);
          const int y1 = std::min(h, h - dy);
          const int x0 = std::max(0, -dx);
          const int x1 = std::min(w, w - dx);
          double acc = 0.0;
          for (int y = y0; y < y1; ++y) {
            const float* go_row = go_plane + static_cast<std::size_t>(y) * w;
            const float* in_row =
                in_plane + static_cast<std::size_t>(y + dy) * w + dx;
            float row_acc = 0.0f;
            for (int x = x0; x < x1; ++x) {
              row_acc += go_row[x] * in_row[x];
            }
            acc += row_acc;
          }
          weight_grads_[((static_cast<std::size_t>(oc) * in_c_ + ic) * k_ +
                         ky) *
                            k_ +
                        kx] += static_cast<float>(acc);
        }
      }
    }
  }

  // Input gradient: correlation of the output gradient with the flipped
  // kernel — the same shift-and-accumulate with the shift negated.
  Tensor grad_in(in_shape);
  float* gi_base = grad_in.data().data();
#pragma omp parallel for schedule(static)
  for (int ic = 0; ic < in_c_; ++ic) {
    float* gi_plane = gi_base + static_cast<std::size_t>(ic) * plane;
    for (int oc = 0; oc < out_c_; ++oc) {
      const float* go_plane = go_base + static_cast<std::size_t>(oc) * plane;
      const float* wrow =
          &weights_[((static_cast<std::size_t>(oc) * in_c_ + ic) * k_) * k_];
      for (int ky = 0; ky < k_; ++ky) {
        const int dy = ky - pad;
        for (int kx = 0; kx < k_; ++kx) {
          const int dx = kx - pad;
          const float wv = wrow[ky * k_ + kx];
          if (wv == 0.0f) continue;
          // grad_in[iy][ix] += wv * gout[iy - dy][ix - dx].
          const int y0 = std::max(0, dy);
          const int y1 = std::min(h, h + dy);
          const int x0 = std::max(0, dx);
          const int x1 = std::min(w, w + dx);
          for (int iy = y0; iy < y1; ++iy) {
            float* dst = gi_plane + static_cast<std::size_t>(iy) * w;
            const float* src =
                go_plane + static_cast<std::size_t>(iy - dy) * w - dx;
            for (int ix = x0; ix < x1; ++ix) {
              dst[ix] += wv * src[ix];
            }
          }
        }
      }
    }
  }

  if (residual_) {
    const auto n = static_cast<std::ptrdiff_t>(grad_in.numel());
#pragma omp parallel for schedule(static)
    for (std::ptrdiff_t i = 0; i < n; ++i) {
      grad_in[static_cast<std::size_t>(i)] +=
          grad_output[static_cast<std::size_t>(i)];
    }
  }
  return grad_in;
}

std::vector<ParamView> Conv2D::params() {
  // Handing out mutable spans is a weight-mutation route (the optimizer
  // writes through them), so the pack goes.
  pack_.reset();
  return {ParamView{weights_, weight_grads_},
          ParamView{bias_, bias_grads_}};
}

std::size_t Conv2D::param_count() const {
  return weights_.size() + bias_.size();
}

std::unique_ptr<Layer> Conv2D::clone() const {
  auto copy = std::make_unique<Conv2D>(in_c_, out_c_, k_, residual_);
  copy->weights_ = weights_;
  copy->bias_ = bias_;
  copy->pack_ = pack_;
  return copy;
}

std::string Conv2D::describe() const {
  std::ostringstream out;
  out << (residual_ ? "ResConv2D(" : "Conv2D(") << in_c_ << "->" << out_c_
      << ", k" << k_ << ")";
  return out.str();
}

void Conv2D::save(std::ostream& out) const {
  io::write_i32(out, in_c_);
  io::write_i32(out, out_c_);
  io::write_i32(out, k_);
  io::write_i32(out, residual_ ? 1 : 0);
  io::write_i32(out, io::kPrecisionTagF32);
  io::write_floats(out, weights_);
  io::write_floats(out, bias_);
}

}  // namespace sfn::nn
