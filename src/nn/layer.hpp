#pragma once

#include "nn/tensor.hpp"
#include "nn/workspace.hpp"
#include "util/rng.hpp"

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>

namespace sfn::nn {

/// A learnable parameter blob paired with its gradient accumulator.
struct ParamView {
  std::span<float> values;
  std::span<float> grads;
};

/// Base class for all network layers.
///
/// Contract: `forward` caches whatever `backward` needs and computes its
/// output with the layer's own `forward_into`, so training runs the
/// arithmetic inference serves (Dropout's training mask is the one
/// deliberate difference); `backward` must be called at most once per
/// forward and receives dLoss/dOutput, returns dLoss/dInput, and
/// *accumulates* into parameter gradients (callers zero them between
/// optimizer steps).
class Layer {
 public:
  virtual ~Layer() = default;

  virtual Tensor forward(const Tensor& input, bool train) = 0;
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// The layer's one forward computation: write the output for `input`
  /// into `output`, drawing scratch memory from `ws` instead of the heap.
  ///
  /// Contract: `output` is distinct from `input` (Network ping-pongs the
  /// workspace tensors); implementations must not mutate layer state, so
  /// concurrent calls on a shared network are safe as long as each thread
  /// brings its own Workspace.
  virtual void forward_into(const Tensor& input, Tensor& output,
                            Workspace& ws) const = 0;

  /// Parameter blobs (empty for stateless layers). Mutable spans, so
  /// handing them out counts as weight mutation.
  virtual std::vector<ParamView> params() { return {}; }

  /// Number of parameter values; a read-only count, unlike params().
  [[nodiscard]] virtual std::size_t param_count() const { return 0; }

  /// Output shape for a given input shape (throws on mismatch).
  [[nodiscard]] virtual Shape output_shape(const Shape& input) const = 0;

  /// Estimated FLOPs of one forward pass at the given input shape.
  [[nodiscard]] virtual std::uint64_t flops(const Shape& input) const = 0;

  /// Deep copy including weights.
  [[nodiscard]] virtual std::unique_ptr<Layer> clone() const = 0;

  /// Short human-readable description, e.g. "Conv2D(2->8, k3)".
  [[nodiscard]] virtual std::string describe() const = 0;

  /// Stable type tag used by the serializer.
  [[nodiscard]] virtual std::string kind() const = 0;

  /// Write configuration and weights (not the kind tag). Network::load
  /// is the one reader: it validates the configuration before it builds
  /// the layer.
  virtual void save(std::ostream& out) const = 0;

  /// (Re)initialise weights; default no-op for stateless layers.
  virtual void init_weights(util::Rng& /*rng*/) {}

 protected:
  /// forward_into a new tensor on throwaway scratch: the training forward
  /// of a layer that needs no workspace.
  [[nodiscard]] Tensor forward_output(const Tensor& input) const {
    Tensor output;
    Workspace ws;
    forward_into(input, output, ws);
    return output;
  }
};

}  // namespace sfn::nn
