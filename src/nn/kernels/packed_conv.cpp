#include "nn/kernels/packed_conv.hpp"

#include <algorithm>
#include <cmath>
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

/// Saturating symmetric int8 quantization. Written as two one-sided clamps
/// so NaN (possible under fault injection) lands on a defined value
/// instead of an undefined float→int cast.
inline std::int8_t quantize1(float v, float inv_scale) {
  float q = std::nearbyintf(v * inv_scale);
  q = q >= -127.0f ? q : -127.0f;
  q = q <= 127.0f ? q : 127.0f;
  return static_cast<std::int8_t>(q);
}

void run_float_family(const PackedConvWeights& pw, const ConvArgs& a,
                      Workspace& ws) {
  const KernelSet& ks = active_kernels();
  const auto n_pixels = static_cast<std::size_t>(a.h) * a.w;
  const int K = pw.K;
  const bool bf16 = pw.precision == Precision::kBf16;
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
        if (bf16) {
          const std::uint16_t* ap = pw.a_bf16.data() + p * panel_elems;
          if (cols == kNr) {
            ks.bf16(K, ap, bias, b + j0, ldb, res, n_pixels, c, n_pixels, rows,
                    a.relu);
          } else {
            tile_bf16_ref(K, ap, bias, b + j0, ldb, res, n_pixels, c, n_pixels,
                          rows, cols, a.relu);
          }
        } else {
          const float* ap = pw.a_f32.data() + p * panel_elems;
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
}

void run_int8(const PackedConvWeights& pw, const ConvArgs& a, Workspace& ws) {
  const auto n_pixels = static_cast<std::size_t>(a.h) * a.w;
  const int K = pw.K;
  const std::size_t panel_elems = static_cast<std::size_t>(K) * kMr;
  const auto in_elems =
      static_cast<std::ptrdiff_t>(static_cast<std::size_t>(a.in_c) * n_pixels);
  const float* in = a.in;

  // Dynamic per-tensor activation scale (symmetric, zero-point 0 so the
  // conv's zero padding quantizes to 0). max is associative, so the
  // parallel reduction is deterministic for any team size.
  float maxabs = 0.0f;
#pragma omp parallel for schedule(static) reduction(max : maxabs)
  for (std::ptrdiff_t i = 0; i < in_elems; ++i) {
    maxabs = std::max(maxabs, std::fabs(in[i]));
  }
  const float sx = maxabs > 0.0f ? maxabs / 127.0f : 1.0f;
  const float inv_sx = 1.0f / sx;

  std::int8_t* qin = ws.qin_buffer(static_cast<std::size_t>(in_elems));
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t i = 0; i < in_elems; ++i) {
    qin[i] = quantize1(in[i], inv_sx);
  }

  const std::size_t chunk = chunk_pixels(K, n_pixels);
  std::int8_t* qcol =
      a.k == 1 ? nullptr : ws.qcol_buffer(static_cast<std::size_t>(K) * chunk);

  for (std::size_t n0 = 0; n0 < n_pixels; n0 += chunk) {
    const std::size_t n1 = std::min(n_pixels, n0 + chunk);
    const std::size_t N = n1 - n0;
    const std::int8_t* b;
    std::size_t ldb;
    if (a.k == 1) {
      b = qin + n0;
      ldb = n_pixels;
    } else {
      im2col_range_i8(qin, a.in_c, a.h, a.w, a.k, n0, n1, qcol);
      b = qcol;
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
        // Residual is added from the *float* input: quantization error
        // stays confined to the conv term.
        const float* res =
            a.residual
                ? a.in + static_cast<std::size_t>(row0) * n_pixels + n0 + j0
                : nullptr;
        float scale[kMr];
        for (int r = 0; r < kMr; ++r) {
          scale[r] = pw.wscale[static_cast<std::size_t>(row0) + r] * sx;
        }
        tile_i8(K, pw.a_i8.data() + p * panel_elems, pw.bias.data() + row0,
                scale, b + j0, ldb, res, n_pixels, c, n_pixels, rows, cols,
                a.relu);
      }
    }
  }
}

}  // namespace

void packed_conv_forward(const PackedConvWeights& pw, const ConvArgs& args,
                         Workspace& ws) {
  if (pw.precision == Precision::kInt8) {
    run_int8(pw, args, ws);
  } else {
    run_float_family(pw, args, ws);
  }
}

}  // namespace sfn::nn::kernels
