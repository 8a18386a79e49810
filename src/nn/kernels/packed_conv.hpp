#pragma once

#include "nn/kernels/pack.hpp"
#include "nn/workspace.hpp"

namespace sfn::nn::kernels {

/// One packed-conv invocation: geometry plus the raw CHW buffers. The
/// driver owns chunking (im2col tiles sized to stay cache-resident) and
/// tiling (kMr × kNr microkernel calls, portable reference on column
/// tails).
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

/// Run the convolution with pre-packed weights. Parallelises over kNr-pixel
/// strips with a static schedule and no cross-strip accumulation, so
/// results are bit-identical for any OpenMP team size — the same
/// determinism contract as the other conv paths (DESIGN.md §8, §13).
void packed_conv_forward(const PackedConvWeights& pw, const ConvArgs& args,
                         Workspace& ws);

}  // namespace sfn::nn::kernels
