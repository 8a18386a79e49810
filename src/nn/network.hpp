#pragma once

#include "nn/layer.hpp"

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

namespace sfn::util {
class ThreadPool;
}

namespace sfn::nn {

/// Sequential network: the container behind every surrogate CNN, the Yang
/// baseline, and the success-rate MLP.
class Network {
 public:
  Network() = default;
  Network(Network&&) = default;
  Network& operator=(Network&&) = default;
  Network(const Network& other);
  Network& operator=(const Network& other);

  /// Append a layer; returns *this for fluent construction.
  Network& add(std::unique_ptr<Layer> layer);

  template <typename L, typename... Args>
  Network& emplace(Args&&... args) {
    return add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  [[nodiscard]] std::size_t depth() const { return layers_.size(); }
  [[nodiscard]] Layer& layer(std::size_t i) { return *layers_[i]; }
  [[nodiscard]] const Layer& layer(std::size_t i) const { return *layers_[i]; }

  /// Remove layer i (the `shallow` transformation's primitive).
  void erase_layer(std::size_t i);
  /// Insert a layer before position i (the `pooling` transformation).
  void insert_layer(std::size_t i, std::unique_ptr<Layer> layer);

  Tensor forward(const Tensor& input, bool train = false);
  /// Backprop dLoss/dOutput through the whole stack; returns dLoss/dInput.
  Tensor backward(const Tensor& grad_output);

  /// Inference fast path: run the stack through each layer's forward_into,
  /// ping-ponging activations between the workspace tensors. Returns a
  /// reference into `ws` (valid until the next call with that workspace).
  /// Does not touch layer training caches, so concurrent calls on a shared
  /// const network are safe with one Workspace per thread; after warmup at
  /// a given input shape the call performs no heap allocation.
  const Tensor& forward_inference(const Tensor& input, Workspace& ws) const;

  /// Evaluate independent inputs across `pool`, for the serving
  /// coalescer: inputs and outputs live in the requesting sessions, so the
  /// batch is described by pointers and results are written in place
  /// (outputs resized as needed, backing stores reused). Each worker runs
  /// forward_inference with its own Workspace and intra-op OpenMP disabled
  /// (restored on exit), so results are bit-identical to calling
  /// forward_inference sequentially.
  void forward_batch(const std::vector<const Tensor*>& inputs,
                     const std::vector<Tensor*>& outputs,
                     util::ThreadPool& pool) const;

  void zero_grads();
  [[nodiscard]] std::vector<ParamView> params();
  [[nodiscard]] std::size_t param_count() const;

  /// Total forward FLOPs at the given input shape.
  [[nodiscard]] std::uint64_t flops(const Shape& input) const;
  /// Output shape after the full stack.
  [[nodiscard]] Shape output_shape(Shape input) const;
  /// Bytes for parameters plus the largest single activation (a proxy for
  /// inference memory, used in the Table 4 reproduction).
  [[nodiscard]] std::size_t memory_bytes(const Shape& input) const;

  void init_weights(util::Rng& rng);

  /// Build every conv layer's packed weights (Conv2D::prepack), so
  /// inference only reads them. Called once the weights are final: at the
  /// end of core::train_model and in core::load_artifacts. A no-op for
  /// convs that already hold a pack. Like weight mutation, it requires the
  /// caller to own the network exclusively (DESIGN.md §14, finding F3).
  void prepack_for_inference() const;

  [[nodiscard]] std::string describe() const;

  void save(std::ostream& out) const;
  void save_file(const std::filesystem::path& path) const;
  static Network load(std::istream& in);
  static Network load_file(const std::filesystem::path& path);

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace sfn::nn
