#pragma once

#include "nn/kernels/pack.hpp"
#include "nn/workspace.hpp"

namespace sfn::nn::kernels {

/// One packed-conv invocation: geometry plus the raw CHW buffers. The
/// driver owns the row split, the zero-padded input slabs and the tiling
/// (rows × kNr microkernel calls, portable reference on row tails).
struct ConvArgs {
  int in_c = 0;
  int out_c = 0;
  int k = 0;  ///< odd, stride 1, zero "same" padding
  int h = 0;
  int w = 0;
  bool residual = false;  ///< add the input (in_c == out_c) in the epilogue
  bool relu = false;      ///< fused ReLU in the epilogue
  const float* in = nullptr;
  float* out = nullptr;
};

/// Run the convolution with pre-packed weights in one OpenMP team: each
/// thread copies a contiguous block of input rows plus a k/2 halo into its
/// own zero-padded slab in `ws` and computes those output rows from it,
/// with no cross-thread accumulation, so results are bit-identical for
/// any team size — the same determinism contract as the other conv paths
/// (DESIGN.md §8, §13). Nothing allocates once `ws` is warm for the shape
/// and team width.
void packed_conv_forward(const PackedConvWeights& pw, const ConvArgs& args,
                         Workspace& ws);

}  // namespace sfn::nn::kernels
