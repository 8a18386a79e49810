#pragma once

#include "nn/layer.hpp"
#include "nn/kernels/pack.hpp"

#include <memory>
#include <optional>
#include <vector>

namespace sfn::nn {

/// Which kernel implementation a Conv2D forward pass runs. The layer picks
/// it from the input shape (Conv2D::choose_algo); nothing outside the
/// layer selects it.
enum class ConvAlgo {
  kNaive,   ///< Per-tap shift-and-accumulate.
  kPacked,  ///< Pre-packed weights + SIMD microkernels (nn/kernels/).
};

/// 2-D convolution, stride 1, zero "same" padding, odd kernel size.
///
/// Optionally residual (y = conv(x) + x, requires in == out channels) —
/// this is how the ArchSpec's per-layer residual-connection flag (one of
/// the paper's Eq. 6 architecture features) is realised.
class Conv2D final : public Layer {
 public:
  Conv2D(int in_channels, int out_channels, int kernel, bool residual = false);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  void forward_into(const Tensor& input, Tensor& output,
                    Workspace& ws) const override;
  std::vector<ParamView> params() override;
  [[nodiscard]] std::size_t param_count() const override;
  [[nodiscard]] Shape output_shape(const Shape& input) const override;
  [[nodiscard]] std::uint64_t flops(const Shape& input) const override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] std::string kind() const override { return "conv2d"; }
  void save(std::ostream& out) const override;
  void init_weights(util::Rng& rng) override;

  [[nodiscard]] int in_channels() const { return in_c_; }
  [[nodiscard]] int out_channels() const { return out_c_; }
  [[nodiscard]] int kernel() const { return k_; }
  [[nodiscard]] bool residual() const { return residual_; }

  /// Weight at (out channel, in channel, ky, kx); exposed for tests and
  /// for the `narrow` transformation, which copies surviving channels.
  /// Like every other weight-mutation route (params(), init_weights()),
  /// non-const access drops the layer's pack.
  float& weight(int oc, int ic, int ky, int kx) {
    pack_.reset();
    return weights_[((static_cast<std::size_t>(oc) * in_c_ + ic) * k_ + ky) *
                        k_ +
                    kx];
  }
  float& bias(int oc) {
    pack_.reset();
    return bias_[oc];
  }

  /// Which algorithm `forward`/`forward_into` runs for this input shape:
  /// shapes too small to amortise packing run naive and everything else
  /// runs packed.
  [[nodiscard]] ConvAlgo choose_algo(const Shape& input) const;

  /// Explicit-algorithm entry points, exposed for parity tests and the
  /// micro-kernel benchmarks. Both compute the full layer (bias + taps +
  /// residual, then ReLU when `fuse_relu`) without touching cached
  /// training state.
  void forward_naive_into(const Tensor& input, Tensor& output,
                          bool fuse_relu = false) const;
  void forward_packed_into(const Tensor& input, Tensor& output, Workspace& ws,
                           bool fuse_relu = false) const;

  /// forward_into with an optional fused ReLU epilogue: every algorithm
  /// applies the activation before its final store, bit-identical to a
  /// separate ReLU layer.
  void forward_into_fused(const Tensor& input, Tensor& output, Workspace& ws,
                          bool fuse_relu) const;

  /// Build the packed weights the packed kernel reads (nn/kernels/pack.hpp)
  /// unless the layer already holds them; clone() copies them and every
  /// weight-mutation route drops them. Without a pack, the packed path
  /// packs into the caller's Workspace on every call. `const` so a loaded
  /// or trained network can be prepared through a const reference, but it
  /// writes the pack that concurrent inference reads: like weight
  /// mutation, it requires the caller to own the layer exclusively
  /// (DESIGN.md §14, finding F3). Afterwards inference only reads it.
  void prepack() const;

 private:
  int in_c_;
  int out_c_;
  int k_;
  bool residual_;
  std::vector<float> weights_;
  std::vector<float> weight_grads_;
  std::vector<float> bias_;
  std::vector<float> bias_grads_;
  Tensor cached_input_;
  /// Scratch for the training forward, which runs forward_into; lazily
  /// created, excluded from clone().
  std::unique_ptr<Workspace> own_ws_;
  /// Packed weights, built by prepack() once the weights are final.
  mutable std::optional<kernels::PackedConvWeights> pack_;
};

}  // namespace sfn::nn
