#pragma once

// Register-blocked conv/GEMM microkernels (DESIGN.md §13).
//
// The packed conv path computes C = epilogue(A·B) where A is the layer's
// weight matrix (out_c × K, K = in_c·k·k) pre-packed into kMr-row panels
// and B is the unfolded input, never materialised: row p of a kNr-pixel
// strip starts at `b + boff[p]`, where `b` is the strip's window origin in
// a zero-padded input slab and `boff` the conv's K-entry tap-offset table
// (nn/kernels/packed_conv.cpp). A microkernel owns one rows × kNr tile of
// C: it keeps every accumulator in registers across the whole K loop and
// applies the fused epilogue (bias init, optional residual add, optional
// ReLU) before the single store pass — activation never makes a second
// trip over memory.
//
// Determinism contract: every ISA accumulates each output element in the
// same order with fused multiply-adds (std::fmaf in the scalar reference,
// vfmadd/vfma in the SIMD kernels — all correctly rounded), starting from
// the bias. Results are therefore bit-identical across scalar/AVX2/NEON,
// which is what lets golden trajectories survive the CI scalar leg.

#include <cstddef>

#include "nn/kernels/isa.hpp"

namespace sfn::nn::kernels {

/// Panel height: rows of C (output channels) per microkernel call.
inline constexpr int kMr = 6;
/// Tile width: pixels of C per microkernel call. With kMr=6 the AVX2
/// kernel holds 12 ymm accumulators + 2 B loads + 1 A broadcast — within
/// the 16 architectural registers, the NNPACK-style sweet spot.
inline constexpr int kNr = 16;

/// Full-width f32 tile: computes `rows` (≤ kMr) rows × kNr columns.
///
///   c[r*ldc + j] = relu?max(0,·) : (·)
///     where (·) = fma-chain( bias[r], Σ_p a[p*kMr + r] * b[boff[p] + j] )
///                 (+ res[r*ldres + j] when res != nullptr)
///
/// `a` is one packed panel (K × kMr, column r is output row r, padded rows
/// are zero); `bias` is the padded per-row bias; `boff` holds K offsets
/// from `b` to each B row. Only the `rows` live rows are computed and
/// stored.
using TileKernelF32 = void (*)(int K, const float* a, const float* bias,
                               const float* b, const std::ptrdiff_t* boff,
                               const float* res, std::size_t ldres,
                               float* c, std::size_t ldc, int rows,
                               bool relu);

/// Kernel table for one ISA. Only full-width tiles are ISA-specialised;
/// column tails (< kNr pixels) always go through the portable reference
/// (identical arithmetic, negligible share of the work).
struct KernelSet {
  Isa isa;
  TileKernelF32 f32;
};

/// Table for the currently active ISA (honours set_isa_override).
[[nodiscard]] const KernelSet& active_kernels();

/// Portable reference tile; also the tail path for every ISA. `cols` may
/// be any value in [1, kNr].
void tile_f32_ref(int K, const float* a, const float* bias, const float* b,
                  const std::ptrdiff_t* boff, const float* res,
                  std::size_t ldres, float* c, std::size_t ldc, int rows,
                  int cols, bool relu);

/// Hooks registered by the ISA-specific translation units (null when the
/// build excluded them).
[[nodiscard]] const KernelSet* avx2_kernels();  // microkernel_avx2.cpp
[[nodiscard]] const KernelSet* neon_kernels();  // microkernel_neon.cpp

}  // namespace sfn::nn::kernels
