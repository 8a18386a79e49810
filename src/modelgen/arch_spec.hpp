#pragma once

#include "nn/network.hpp"
#include "util/rng.hpp"

#include <string>
#include <vector>

namespace sfn::modelgen {

/// One computational stage of a surrogate CNN. A stage expands to
/// [pool] -> conv -> [relu] -> [dropout] -> [unpool] in the built network,
/// which is exactly the per-layer descriptor set of the paper's Eq. 6
/// feature vector: kernel size, channel count, pooling size, unpooling
/// size and residual-connection flag for each of up to nine layers.
struct StageSpec {
  int kernel = 3;        ///< Odd convolution kernel edge.
  int channels = 8;      ///< Output channels of this stage's conv.
  int pool = 1;          ///< Downsample factor applied before the conv.
  int unpool = 1;        ///< Upsample factor applied after the conv.
  bool residual = false; ///< y = conv(x) + x when channels allow it.
  bool relu = true;      ///< Stage activation (final stage usually linear).
  double dropout = 0.0;  ///< Train-time dropout rate after the activation.
  bool max_pool = true;  ///< Max (true) or average (false) pooling.

  bool operator==(const StageSpec&) const = default;
};

/// Architecture of a fully-convolutional pressure surrogate. Input is the
/// 2-channel (divergence, geometry) field; the built network appends a
/// final linear conv down to `out_channels` so every spec emits a
/// full-resolution pressure map.
struct ArchSpec {
  int in_channels = 2;
  int out_channels = 1;
  std::vector<StageSpec> stages;
  std::string name = "unnamed";

  bool operator==(const ArchSpec& other) const {
    return in_channels == other.in_channels &&
           out_channels == other.out_channels && stages == other.stages;
  }

  /// Paper's "number of layers" feature (stage count + final projection).
  [[nodiscard]] int layer_count() const {
    return static_cast<int>(stages.size()) + 1;
  }

  /// Total downsampling factor across the spec; a valid spec returns 1 so
  /// that the output resolution matches the input.
  [[nodiscard]] int net_scale() const;

  /// Grid edges must be divisible by this for pooled stages to round-trip.
  [[nodiscard]] int required_divisor() const;

  /// Approximate "neuron" count at unit resolution: sum of stage channels
  /// weighted by their (fractional) spatial resolution. The transformation
  /// budget rules of paper §4 (e.g. "10% of total neurons") use this.
  [[nodiscard]] double neuron_count() const;

  [[nodiscard]] std::string describe() const;
};

/// Validation error text, or empty string when the spec is well-formed
/// (at least one stage, odd kernels, positive channels, pool/unpool
/// factors that return to full resolution).
std::string validate(const ArchSpec& spec);

/// Materialise the spec into a runnable network with freshly initialised
/// weights drawn from `rng`.
nn::Network build_network(const ArchSpec& spec, util::Rng& rng);

/// The reference model family of Tompson et al. (paper §2.2): five stages
/// of convolution + ReLU. `width` scales the channel counts.
ArchSpec tompson_spec(int width = 8);

/// The Yang et al. baseline (paper §2.3): a shallow patch-based model,
/// much faster and much less accurate than Tompson's.
ArchSpec yang_spec();

}  // namespace sfn::modelgen
