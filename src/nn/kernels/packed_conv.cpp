#include "nn/kernels/packed_conv.hpp"

#include <omp.h>

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "nn/kernels/microkernel.hpp"
#include "util/team.hpp"

namespace sfn::nn::kernels {
namespace {

/// Cache budget: one band of a thread's zero-padded input slab stays
/// within 128 KiB, so the strips' B rows are read from L2 at any grid.
constexpr std::size_t kSlabBudgetFloats = 32 * 1024;

/// Copies input rows [y0 - pad, y1 + pad) of every channel into `slab`
/// (channel stride `plane`, row stride w + 2·pad), +0.0f outside the
/// image: each value the strips read as B, stored once instead of k² times.
void fill_slab(const ConvArgs& a, int pad, int y0, int y1, std::size_t plane,
               float* slab) {
  const std::size_t sw = static_cast<std::size_t>(a.w) + 2 * pad;
  const std::size_t in_plane = static_cast<std::size_t>(a.h) * a.w;
  for (int ic = 0; ic < a.in_c; ++ic) {
    const float* src = a.in + ic * in_plane;
    float* dst = slab + ic * plane;
    for (int y = y0 - pad; y < y1 + pad; ++y, dst += sw) {
      if (y < 0 || y >= a.h) {
        std::fill(dst, dst + sw, 0.0f);
        continue;
      }
      std::fill(dst, dst + pad, 0.0f);
      std::memcpy(dst + pad, src + static_cast<std::size_t>(y) * a.w,
                  sizeof(float) * a.w);
      std::fill(dst + pad + a.w, dst + sw, 0.0f);
    }
  }
}

}  // namespace

void packed_conv_forward(const PackedConvWeights& pw, const ConvArgs& a,
                         Workspace& ws) {
  const KernelSet& ks = active_kernels();
  const int K = pw.K;
  const int pad = a.k / 2;
  const int sw = a.w + 2 * pad;
  const auto n_pixels = static_cast<std::size_t>(a.h) * a.w;
  const std::size_t panel_elems = static_cast<std::size_t>(K) * kMr;

  // Everything the team touches is sized here, before it opens: a team has
  // at most omp_get_max_threads() threads, each owning one slab of `band`
  // output rows plus the 2·pad halo rows, per input channel.
  const int team = omp_get_max_threads();
  const std::size_t row_floats = static_cast<std::size_t>(a.in_c) * sw;
  const int fit = static_cast<int>(kSlabBudgetFloats / row_floats) - 2 * pad;
  const int band = std::clamp(fit, 1, std::max(1, (a.h + team - 1) / team));
  const std::size_t plane = static_cast<std::size_t>(band + 2 * pad) * sw;
  const std::size_t slab_floats = a.in_c * plane;
  float* const slabs = ws.slab_buffer(slab_floats * team);

  // B row p = (ic·k + ky)·k + kx of a strip whose window origin (tap 0, 0)
  // sits at `o` in a slab is o + boff[p]: packed-K order over the slab.
  std::ptrdiff_t* const boff = ws.tap_offsets(K);
  for (int ic = 0, p = 0; ic < a.in_c; ++ic) {
    for (int ky = 0; ky < a.k; ++ky) {
      for (int kx = 0; kx < a.k; ++kx, ++p) {
        boff[p] = static_cast<std::ptrdiff_t>(ic * plane) + ky * sw + kx;
      }
    }
  }

  // One fork/join per conv: thread t owns output rows [h·t/T, h·(t+1)/T)
  // and walks them in bands through its own slab. Each output element is
  // one fma chain from the bias in packed-K order over the values of the
  // unfolded input, so the bits depend on neither the team size nor the
  // banding.
  util::on_team([&](int t, int nt) {
    const int y0 = a.h * t / nt;
    const int y1 = a.h * (t + 1) / nt;
    float* const slab = slabs + t * slab_floats;
    const int bands = (y1 - y0 + band - 1) / band;
    for (int bi = 0; bi < bands; ++bi) {
      const int b0 = y0 + (y1 - y0) * bi / bands;
      const int b1 = y0 + (y1 - y0) * (bi + 1) / bands;
      fill_slab(a, pad, b0, b1, plane, slab);
      for (int y = b0; y < b1; ++y) {
        const float* const window =
            slab + static_cast<std::size_t>(y - b0) * sw;
        for (int x0 = 0; x0 < a.w; x0 += ks.strip) {
          const int cols = std::min(ks.strip, a.w - x0);
          const TileKernelF32 tile =
              cols == ks.strip || ks.masks_tail ? ks.f32 : tile_f32_ref;
          const std::size_t n = static_cast<std::size_t>(y) * a.w + x0;
          for (int p = 0; p < pw.panels; ++p) {
            const int row0 = p * kMr;
            const int rows = std::min(kMr, pw.out_c - row0);
            const std::size_t at = row0 * n_pixels + n;
            float* c = a.out + at;
            const float* res = a.residual ? a.in + at : nullptr;
            const float* bias = pw.bias.data() + row0;
            const float* ap = pw.a.data() + p * panel_elems;
            tile(K, ap, bias, window + x0, boff, res, n_pixels, c, n_pixels,
                 rows, cols, a.relu);
          }
        }
      }
    }
  });
}

}  // namespace sfn::nn::kernels
