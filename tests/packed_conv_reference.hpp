#pragma once

// Test-only oracle for nn::kernels::packed_conv_forward: the original
// driver, which unfolds the input into an im2col column matrix in ≤256 KiB
// chunks of output pixels and runs kMr × kNr tiles over each chunk. The
// arithmetic below is kept exactly as it was so that the slab-and-tap-offset
// driver can be required to reproduce it bit for bit (packed_kernel_test's
// MatchesReferenceAtEveryTeamSize). Two things are left out: its OpenMP
// pragmas (the oracle runs on the calling thread; its bits never depended
// on the team) and the ISA dispatch (every tile, full or tail, runs the
// strided std::fmaf tile whose operation sequence each ISA's tile
// reproduces). Do not "improve" this file.

#include "nn/kernels/microkernel.hpp"
#include "nn/kernels/pack.hpp"
#include "nn/kernels/packed_conv.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <vector>

namespace sfn::test {

namespace reference_conv_detail {

using nn::kernels::kMr;
using nn::kernels::kNr;

/// Column-range im2col: writes output pixels n in [n0, n1) of the
/// (c*k*k) x (h*w) column matrix, rows contiguous at stride (n1-n0).
inline void im2col_range(const float* in, int c, int h, int w, int k,
                         std::size_t n0, std::size_t n1, float* col) {
  const int pad = k / 2;
  const std::size_t cols = n1 - n0;
  const auto plane = static_cast<std::size_t>(h) * w;

  for (int ic = 0; ic < c; ++ic) {
    const float* in_plane = in + static_cast<std::size_t>(ic) * plane;
    std::size_t r = static_cast<std::size_t>(ic) * k * k;
    for (int ky = 0; ky < k; ++ky) {
      const int dy = ky - pad;
      for (int kx = 0; kx < k; ++kx, ++r) {
        const int dx = kx - pad;
        float* dst_row = col + r * cols;
        // Walk the output pixels [n0, n1) one image row at a time so every
        // in-range span is a single memcpy and padding is a single fill.
        std::size_t n = n0;
        while (n < n1) {
          const int y = static_cast<int>(n / static_cast<std::size_t>(w));
          const int x_begin = static_cast<int>(n % static_cast<std::size_t>(w));
          const int x_end = static_cast<int>(std::min<std::size_t>(
              static_cast<std::size_t>(w), x_begin + (n1 - n)));
          float* dst = dst_row + (n - n0);
          const int sy = y + dy;
          if (sy < 0 || sy >= h) {
            std::fill(dst, dst + (x_end - x_begin), 0.0f);
          } else {
            // Valid source x range within [x_begin, x_end): x + dx in [0, w).
            const int xv0 = std::max(x_begin, -dx);
            const int xv1 = std::min(x_end, w - dx);
            if (xv1 <= xv0) {
              std::fill(dst, dst + (x_end - x_begin), 0.0f);
            } else {
              std::fill(dst, dst + (xv0 - x_begin), 0.0f);
              std::memcpy(
                  dst + (xv0 - x_begin),
                  in_plane + static_cast<std::size_t>(sy) * w + xv0 + dx,
                  static_cast<std::size_t>(xv1 - xv0) * sizeof(float));
              std::fill(dst + (xv1 - x_begin), dst + (x_end - x_begin), 0.0f);
            }
          }
          n += static_cast<std::size_t>(x_end - x_begin);
        }
      }
    }
  }
}

/// Cache budget: the live im2col chunk stays within 256 KiB so B strips
/// are read from L2, not DRAM.
constexpr std::size_t kChunkBudgetFloats = 64 * 1024;

inline std::size_t chunk_pixels(int K, std::size_t n_pixels) {
  std::size_t chunk = kChunkBudgetFloats / static_cast<std::size_t>(K);
  chunk = std::max<std::size_t>(kNr, chunk - chunk % kNr);
  const std::size_t all = ((n_pixels + kNr - 1) / kNr) * kNr;
  return std::min(chunk, all);
}

/// Strided tile: B row p of the strip starts at b + p*ldb.
inline void tile_f32(int K, const float* a, const float* bias, const float* b,
                     std::size_t ldb, const float* res, std::size_t ldres,
                     float* c, std::size_t ldc, int rows, int cols,
                     bool relu) {
  for (int r = 0; r < rows; ++r) {
    for (int j = 0; j < cols; ++j) {
      float acc = bias[r];
      for (int p = 0; p < K; ++p) {
        acc = std::fmaf(a[static_cast<std::size_t>(p) * kMr + r],
                        b[static_cast<std::size_t>(p) * ldb + j], acc);
      }
      if (res != nullptr) {
        acc += res[static_cast<std::size_t>(r) * ldres + j];
      }
      c[static_cast<std::size_t>(r) * ldc + j] =
          relu ? (acc > 0.0f ? acc : 0.0f) : acc;
    }
  }
}

}  // namespace reference_conv_detail

/// The original packed_conv_forward; `col_buf` is its column buffer.
inline void reference_packed_conv_forward(
    const nn::kernels::PackedConvWeights& pw, const nn::kernels::ConvArgs& a,
    std::vector<float>& col_buf) {
  using namespace reference_conv_detail;
  const auto n_pixels = static_cast<std::size_t>(a.h) * a.w;
  const int K = pw.K;
  const std::size_t panel_elems = static_cast<std::size_t>(K) * kMr;
  const std::size_t chunk = chunk_pixels(K, n_pixels);
  // 1x1 convolutions read the input as the column matrix directly.
  if (a.k != 1 && col_buf.size() < static_cast<std::size_t>(K) * chunk) {
    col_buf.resize(static_cast<std::size_t>(K) * chunk);
  }
  float* col = a.k == 1 ? nullptr : col_buf.data();

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
        tile_f32(K, ap, bias, b + j0, ldb, res, n_pixels, c, n_pixels, rows,
                 cols, a.relu);
      }
    }
  }
}

}  // namespace sfn::test
