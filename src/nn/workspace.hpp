#pragma once

#include "nn/kernels/pack.hpp"
#include "nn/tensor.hpp"

#include <cstddef>
#include <vector>

namespace sfn::nn {

/// Reusable scratch memory for the inference fast path.
///
/// One Workspace serves one thread of inference: layers write their outputs
/// into the ping-pong tensors `x0`/`x1`, Conv2D packs its im2col column
/// buffer into `col` and, when it holds no weight pack of its own, packs
/// its weights into `pack`. All buffers grow monotonically and are never
/// shrunk, so after the first call at a given shape the steady-state
/// inference loop performs no heap allocation (see DESIGN.md §8).
/// Workspaces are cheap to default-construct; Network::forward_batch
/// creates one per pool worker.
class Workspace {
 public:
  /// Column buffer of at least `n` floats (contents undefined).
  float* col_buffer(std::size_t n) {
    if (col_.size() < n) {
      col_.resize(n);
    }
    return col_.data();
  }

  /// Ping-pong activation tensors used by Network::forward_inference.
  Tensor x0;
  Tensor x1;

  /// Packed weights of a conv that holds no pack of its own (one never
  /// prepacked, or training between optimizer steps): the packed path
  /// repacks it here on every call, reusing the slot's capacity.
  kernels::PackedConvWeights pack;

  [[nodiscard]] std::size_t col_capacity() const { return col_.capacity(); }

 private:
  std::vector<float> col_;
};

}  // namespace sfn::nn
