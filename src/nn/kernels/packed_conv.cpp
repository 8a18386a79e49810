#include "nn/kernels/packed_conv.hpp"

#include <algorithm>
#include <cstddef>

#include "nn/im2col.hpp"
#include "nn/kernels/microkernel.hpp"

namespace sfn::nn::kernels {
namespace {

/// Cache budget: the live im2col chunk stays within 256 KiB so B strips
/// are read from L2, not DRAM.
constexpr std::size_t kChunkBudgetFloats = 64 * 1024;

std::size_t chunk_pixels(int K, std::size_t n_pixels) {
  std::size_t chunk = kChunkBudgetFloats / static_cast<std::size_t>(K);
  chunk = std::max<std::size_t>(kNr, chunk - chunk % kNr);
  const std::size_t all = ((n_pixels + kNr - 1) / kNr) * kNr;
  return std::min(chunk, all);
}

}  // namespace

void packed_conv_forward(const PackedConvWeights& pw, const ConvArgs& a,
                         Workspace& ws) {
  const KernelSet& ks = active_kernels();
  const auto n_pixels = static_cast<std::size_t>(a.h) * a.w;
  const int K = pw.K;
  const std::size_t panel_elems = static_cast<std::size_t>(K) * kMr;
  const std::size_t chunk = chunk_pixels(K, n_pixels);
  // 1x1 convolutions read the input as the column matrix directly.
  float* col =
      a.k == 1 ? nullptr : ws.col_buffer(static_cast<std::size_t>(K) * chunk);

  for (std::size_t n0 = 0; n0 < n_pixels; n0 += chunk) {
    const std::size_t n1 = std::min(n_pixels, n0 + chunk);
    const std::size_t N = n1 - n0;
    const float* b;
    std::size_t ldb;
    if (a.k == 1) {
      b = a.in + n0;
      ldb = n_pixels;
    } else {
      im2col_range(a.in, a.in_c, a.h, a.w, a.k, n0, n1, col);
      b = col;
      ldb = N;
    }
    const auto tiles = static_cast<std::ptrdiff_t>((N + kNr - 1) / kNr);
#pragma omp parallel for schedule(static)
    for (std::ptrdiff_t s = 0; s < tiles; ++s) {
      const std::size_t j0 = static_cast<std::size_t>(s) * kNr;
      const int cols = static_cast<int>(std::min<std::size_t>(kNr, N - j0));
      for (int p = 0; p < pw.panels; ++p) {
        const int row0 = p * kMr;
        const int rows = std::min(kMr, pw.out_c - row0);
        float* c = a.out + static_cast<std::size_t>(row0) * n_pixels + n0 + j0;
        const float* res =
            a.residual
                ? a.in + static_cast<std::size_t>(row0) * n_pixels + n0 + j0
                : nullptr;
        const float* bias = pw.bias.data() + row0;
        const float* ap = pw.a.data() + p * panel_elems;
        if (cols == kNr) {
          ks.f32(K, ap, bias, b + j0, ldb, res, n_pixels, c, n_pixels, rows,
                 a.relu);
        } else {
          tile_f32_ref(K, ap, bias, b + j0, ldb, res, n_pixels, c, n_pixels,
                       rows, cols, a.relu);
        }
      }
    }
  }
}

}  // namespace sfn::nn::kernels
