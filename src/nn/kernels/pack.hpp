#pragma once

#include <vector>

namespace sfn::nn::kernels {

/// A Conv2D weight matrix re-laid-out for the microkernels. A layer builds
/// its own once its weights are final (Conv2D::prepack); a layer without
/// one packs into its caller's Workspace on every packed call. The M×K
/// row-major weight matrix (M = out_c, K = in_c·k·k) becomes ceil(M/kMr)
/// panels of K columns × kMr rows:
///
///   panel_base[p*kMr + r] == W[panel_row0 + r][p]
///
/// so the kernel streams the panel contiguously while broadcasting one
/// element per output row per K step. Rows past M are zero-padded (their
/// accumulators are computed and discarded; bias is padded too), which
/// keeps the kernel branch-free in the K loop.
struct PackedConvWeights {
  int out_c = 0;
  int K = 0;       ///< in_c · k · k
  int panels = 0;  ///< ceil(out_c / kMr)
  std::vector<float> a;     ///< panels · K · kMr, weights verbatim
  std::vector<float> bias;  ///< padded to panels·kMr
};

/// Pack `weights` (out_c × K row-major) + `bias` into `out`. The vectors
/// keep their capacity, so repacking a same-or-smaller layer into a
/// reused `out` allocates nothing.
void pack_conv_weights(const float* weights, const float* bias, int out_c,
                       int K, PackedConvWeights* out);

}  // namespace sfn::nn::kernels
