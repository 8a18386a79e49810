#pragma once

#include <cstddef>

namespace sfn::nn {

/// Unfold a CHW feature map into the column matrix of a stride-1, zero
/// "same"-padded convolution with odd kernel `k`.
///
/// Row r = (ic*k + ky)*k + kx of the output holds, for every output pixel
/// n = y*w + x, the input sample in[ic][y + ky - k/2][x + kx - k/2] (or 0
/// outside the image). The result is the B operand of the conv GEMM:
/// out[oc] = W[oc] · col, with W flattened to (out_c) x (c*k*k).
///
/// `col` must hold (c*k*k) * (h*w) floats, written row-major.
void im2col(const float* in, int c, int h, int w, int k, float* col);

/// Column-range variant: writes only output pixels n in [n0, n1) — the
/// (c*k*k) x (n1-n0) sub-matrix, rows contiguous at stride (n1-n0). Used
/// to tile the column buffer so large grids never materialise the full
/// (c*k*k) x (h*w) matrix at once.
void im2col_range(const float* in, int c, int h, int w, int k,
                  std::size_t n0, std::size_t n1, float* col);

}  // namespace sfn::nn
