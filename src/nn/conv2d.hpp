#pragma once

#include "nn/layer.hpp"
#include "nn/kernels/pack.hpp"
#include "nn/precision.hpp"
#include "util/annotations.hpp"

#include <array>
#include <atomic>
#include <memory>
#include <vector>

namespace sfn::nn {

/// Which kernel implementation a Conv2D forward pass runs. The layer picks
/// it from its own precision and the input shape (Conv2D::choose_algo);
/// nothing outside the layer selects it.
enum class ConvAlgo {
  kNaive,   ///< Per-tap shift-and-accumulate.
  kPacked,  ///< Pre-packed weights + SIMD microkernels (nn/kernels/).
  kBf16,    ///< Packed path with bfloat16 weights.
  kInt8,    ///< Packed path, int8 weights + dynamic int8 activations.
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
  [[nodiscard]] Shape output_shape(const Shape& input) const override;
  [[nodiscard]] std::uint64_t flops(const Shape& input) const override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] std::string kind() const override { return "conv2d"; }
  void save(std::ostream& out) const override;
  void load(std::istream& in) override;
  void init_weights(util::Rng& rng) override;

  [[nodiscard]] int in_channels() const { return in_c_; }
  [[nodiscard]] int out_channels() const { return out_c_; }
  [[nodiscard]] int kernel() const { return k_; }
  [[nodiscard]] bool residual() const { return residual_; }

  /// Inference execution precision (serialized; copied by clone). Weights
  /// always stay fp32 in memory — precision only selects how they are
  /// packed and executed, so transforms and (re)training are unaffected.
  [[nodiscard]] Precision precision() const { return precision_; }
  void set_precision(Precision p) { precision_ = p; }

  /// Weight at (out channel, in channel, ky, kx); exposed for tests and
  /// for the `narrow` transformation, which copies surviving channels.
  /// Non-const access bumps the weight revision so cached packed weights
  /// are rebuilt on the next packed dispatch.
  float& weight(int oc, int ic, int ky, int kx) {
    bump_revision();
    return weights_[((static_cast<std::size_t>(oc) * in_c_ + ic) * k_ + ky) *
                        k_ +
                    kx];
  }
  float& bias(int oc) {
    bump_revision();
    return bias_[oc];
  }

  /// Which algorithm `forward`/`forward_into` runs for this input shape: a
  /// quantized precision selects its own kernel; otherwise shapes too small
  /// to amortise packing run naive and everything else runs packed.
  [[nodiscard]] ConvAlgo choose_algo(const Shape& input) const;

  /// Explicit-algorithm entry points, exposed for parity tests and the
  /// micro-kernel benchmarks. Both compute the full layer (bias + taps +
  /// residual, then ReLU when `fuse_relu`) without touching cached
  /// training state.
  void forward_naive_into(const Tensor& input, Tensor& output,
                          bool fuse_relu = false) const;
  void forward_packed_into(const Tensor& input, Tensor& output, Workspace& ws,
                           Precision precision = Precision::kFloat32,
                           bool fuse_relu = false) const;

  /// forward_into with an optional fused ReLU epilogue: every algorithm
  /// applies the activation before its final store, bit-identical to a
  /// separate ReLU layer.
  void forward_into_fused(const Tensor& input, Tensor& output, Workspace& ws,
                          bool fuse_relu) const;

  /// Packed-weight snapshot for `p`, (re)built if missing or stale against
  /// the current weight revision. Thread-safe on a shared const layer:
  /// lock-free double-checked read, mutex only around a rebuild. The
  /// returned shared_ptr keeps a consistent pack alive even if another
  /// thread mutates weights concurrently.
  [[nodiscard]] std::shared_ptr<const kernels::PackedConvWeights> packed(
      Precision p) const;

 private:
  void bump_revision() {
    weights_revision_.fetch_add(1, std::memory_order_release);
  }

  int in_c_;
  int out_c_;
  int k_;
  bool residual_;
  Precision precision_ = Precision::kFloat32;
  std::vector<float> weights_;
  std::vector<float> weight_grads_;
  std::vector<float> bias_;
  std::vector<float> bias_grads_;
  Tensor cached_input_;
  /// Scratch for the packed paths when invoked through the
  /// workspace-less training-era forward(); lazily created, excluded from
  /// clone().
  mutable std::unique_ptr<Workspace> own_ws_;
  /// Packed-weight cache, one slot per Precision. Revision starts at 1 so
  /// a default pack (revision 0) can never satisfy the staleness check.
  ///
  /// Capability model (DESIGN.md §14): pack_mutex_ serialises *rebuilds*
  /// only. The cache slots are deliberately NOT SFN_GUARDED_BY it — the
  /// hot path reads them lock-free. Happens-before edges:
  ///   * bump_revision's `fetch_add(release)` pairs with packed()'s
  ///     `weights_revision_.load(acquire)`: a dispatch that observes the
  ///     new revision also observes the mutated weights, so the pack it
  ///     rebuilds is consistent;
  ///   * packed()'s `packed_cache_[i].store(release)` of a fresh pack
  ///     pairs with the lock-free `load(acquire)` on the next dispatch.
  /// Weight *mutation* itself (weight()/bias()/load()/training) requires
  /// the caller to own the layer exclusively — mutating concurrently
  /// with a rebuild would race on weights_ (§14 finding F3 documents
  /// this phase-exclusivity contract).
  mutable std::atomic<std::uint64_t> weights_revision_{1};
  mutable util::Mutex pack_mutex_;
  mutable std::array<std::atomic<std::shared_ptr<const kernels::PackedConvWeights>>,
                     kNumPrecisions>
      packed_cache_;
};

}  // namespace sfn::nn
