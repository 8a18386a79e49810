#pragma once

#include "nn/kernels/pack.hpp"
#include "nn/tensor.hpp"

#include <cstddef>
#include <vector>

namespace sfn::nn {

/// Reusable scratch memory for the inference fast path.
///
/// One Workspace serves one inference caller: layers write their outputs
/// into the ping-pong tensors `x0`/`x1`; the packed conv copies its team's
/// zero-padded input slabs into `slab_buffer` and its tap offsets into
/// `tap_offsets`, and a conv that holds no weight pack of its own packs its
/// weights into `pack`. All buffers grow monotonically and are never
/// shrunk, so after the first call at a given shape and team width the
/// steady-state inference loop performs no heap allocation (see
/// DESIGN.md §8). Workspaces are cheap to default-construct;
/// Network::forward_batch creates one per pool worker.
class Workspace {
 public:
  /// Slab buffer of at least `n` floats (contents undefined).
  float* slab_buffer(std::size_t n) {
    if (slab_.size() < n) {
      slab_.resize(n);
    }
    return slab_.data();
  }

  /// Tap-offset table of at least `n` entries (contents undefined).
  std::ptrdiff_t* tap_offsets(std::size_t n) {
    if (tap_offsets_.size() < n) {
      tap_offsets_.resize(n);
    }
    return tap_offsets_.data();
  }

  /// Ping-pong activation tensors used by Network::forward_inference.
  Tensor x0;
  Tensor x1;

  /// Packed weights of a conv that holds no pack of its own (one never
  /// prepacked, or training between optimizer steps): the packed path
  /// repacks it here on every call, reusing the slot's capacity.
  kernels::PackedConvWeights pack;

  /// Bytes held by the activations, the slabs, the tap offsets and the
  /// pack slot.
  [[nodiscard]] std::size_t bytes() const {
    return (x0.numel() + x1.numel() + slab_.capacity() + pack.a.capacity() +
            pack.bias.capacity()) *
               sizeof(float) +
           tap_offsets_.capacity() * sizeof(std::ptrdiff_t);
  }

 private:
  std::vector<float> slab_;
  std::vector<std::ptrdiff_t> tap_offsets_;
};

}  // namespace sfn::nn
