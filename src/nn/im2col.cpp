#include "nn/im2col.hpp"

#include <algorithm>
#include <cstring>

namespace sfn::nn {

void im2col_range(const float* in, int c, int h, int w, int k, std::size_t n0,
                  std::size_t n1, float* col) {
  const int pad = k / 2;
  const std::size_t cols = n1 - n0;
  const auto plane = static_cast<std::size_t>(h) * w;

#pragma omp parallel for schedule(static)
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

void im2col(const float* in, int c, int h, int w, int k, float* col) {
  im2col_range(in, c, h, w, k, 0,
               static_cast<std::size_t>(h) * static_cast<std::size_t>(w), col);
}

}  // namespace sfn::nn
