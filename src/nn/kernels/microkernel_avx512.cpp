// AVX-512F microkernel translation unit. This file is compiled with
// -mavx512f even in portable builds (see src/nn/CMakeLists.txt); it is
// only ever *executed* after runtime detection confirms the CPU supports
// AVX-512F as well as AVX2+FMA (nn/kernels/isa.cpp), and builds that
// exclude the x86 kernels (SFN_FORCE_SCALAR_KERNELS, non-x86 targets)
// compile the nullptr stub at the bottom instead. Everything below is an
// intrinsic or lives in the anonymous namespace: an inline function or
// template with external linkage instantiated here would be a weak symbol
// compiled for AVX-512, and the linker could keep that copy for the whole
// program (DESIGN.md §13; the weak_symbols ctest checks the object).

#include "nn/kernels/microkernel.hpp"

#if defined(__x86_64__) && !defined(SFN_FORCE_SCALAR_KERNELS)

#include <immintrin.h>

namespace sfn::nn::kernels {
namespace {

/// Pixels per call: two R×64 tiles, or the one-row panel's 1×128 tile.
constexpr int kStrip = 128;

/// R×16V f32 tile, R ≤ kMr: R·V zmm accumulators live across the whole K
/// loop, V B loads and R A broadcasts per K step. Each lane runs the
/// scalar reference's sequence: seed from the bias, one fma per tap in
/// packed-K order, then the residual add, then ReLU. Only the last vector
/// of each row is masked (`tail` holds its live lanes, all sixteen on a
/// full tile); a masked-off lane is never read or written, so a tile may
/// end anywhere in the row. Never inlined: inside the large dispatch
/// function gcc ran short of general registers and reloaded loop-invariant
/// pointers from the stack in the narrow tiles' K loops.
template <int R, int V>
[[gnu::noinline]] void tile(int K, const float* a, const float* bias,
                            const float* b, const std::ptrdiff_t* boff,
                            const float* res, std::size_t ldres, float* c,
                            std::size_t ldc, __mmask16 tail, bool relu) {
  // Every loop over R or V must unroll fully: left as plain loops, gcc
  // keeps acc[][] on the stack and each FMA round-trips through memory,
  // which ran 2–3× slower than the AVX2 tile.
  __m512 acc[R][V];
#pragma GCC unroll 6
  for (int r = 0; r < R; ++r) {
    const __m512 seed = _mm512_set1_ps(bias[r]);
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) acc[r][v] = seed;
  }
  for (int p = 0; p < K; ++p) {
    const float* brow = b + boff[p];
    __m512 bv[V];
#pragma GCC unroll 8
    for (int v = 0; v + 1 < V; ++v) bv[v] = _mm512_loadu_ps(brow + 16 * v);
    bv[V - 1] = _mm512_maskz_loadu_ps(tail, brow + 16 * (V - 1));
    const float* acol = a + static_cast<std::size_t>(p) * kMr;
#pragma GCC unroll 6
    for (int r = 0; r < R; ++r) {
      const __m512 av = _mm512_set1_ps(acol[r]);
#pragma GCC unroll 8
      for (int v = 0; v < V; ++v) {
        acc[r][v] = _mm512_fmadd_ps(av, bv[v], acc[r][v]);
      }
    }
  }
  const __m512 zero = _mm512_setzero_ps();
#pragma GCC unroll 6
  for (int r = 0; r < R; ++r) {
    float* crow = c + static_cast<std::size_t>(r) * ldc;
    const float* rrow =
        res != nullptr ? res + static_cast<std::size_t>(r) * ldres : nullptr;
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) {
      const __mmask16 live = v + 1 < V ? __mmask16{0xFFFF} : tail;
      __m512 x = acc[r][v];
      if (rrow != nullptr) {
        x = _mm512_add_ps(x, _mm512_maskz_loadu_ps(live, rrow + 16 * v));
      }
      if (relu) {
        // max with the accumulator first returns the *second* operand on
        // NaN or signed-zero ties — exactly `x > 0 ? x : 0`, as in the
        // scalar reference. The all-lanes masked form has a defined pass-
        // through operand, where _mm512_max_ps's _mm512_undefined_ps trips
        // gcc 12's -Wmaybe-uninitialized.
        x = _mm512_maskz_max_ps(0xFFFF, x, zero);
      }
      _mm512_mask_storeu_ps(crow + 16 * v, live, x);
    }
  }
}

/// The narrowest tile<R, 1..V> that covers `vectors` vectors.
template <int R, int V>
void tile_upto(int vectors, int K, const float* a, const float* bias,
               const float* b, const std::ptrdiff_t* boff, const float* res,
               std::size_t ldres, float* c, std::size_t ldc, __mmask16 tail,
               bool relu) {
  if constexpr (V > 1) {
    if (vectors < V) {
      return tile_upto<R, V - 1>(vectors, K, a, bias, b, boff, res, ldres, c,
                                 ldc, tail, relu);
    }
  }
  tile<R, V>(K, a, bias, b, boff, res, ldres, c, ldc, tail, relu);
}

/// A strip of `cols` pixels of an R-row panel: full R×16V tiles, then the
/// rest in the narrowest tile that covers it, its last vector masked.
template <int R, int V>
void strip_rows(int K, const float* a, const float* bias, const float* b,
                const std::ptrdiff_t* boff, const float* res,
                std::size_t ldres, float* c, std::size_t ldc, int cols,
                bool relu) {
  constexpr int kWidth = 16 * V;
  int x = 0;
  for (; x + kWidth <= cols; x += kWidth) {
    tile<R, V>(K, a, bias, b + x, boff, res != nullptr ? res + x : nullptr,
               ldres, c + x, ldc, 0xFFFF, relu);
  }
  const int rest = cols - x;
  if (rest > 0) {
    const int vectors = (rest + 15) / 16;
    const auto tail = static_cast<__mmask16>(0xFFFFu >> (16 * vectors - rest));
    tile_upto<R, V>(vectors, K, a, bias, b + x, boff,
                    res != nullptr ? res + x : nullptr, ldres, c + x, ldc,
                    tail, relu);
  }
}

/// Panels of 2–6 rows take R×64 tiles: 24 accumulators at R = 6, which
/// with the four B vectors and the broadcast hold 29 of the 32 zmm
/// registers. The one-row panel (every model's final projection) takes
/// 1×128, so that it too keeps eight independent fma chains in flight
/// wherever the row is that wide (two FMA ports × four cycles of latency).
/// A 48-pixel row is one R×48 tile.
void tile_f32_avx512(int K, const float* a, const float* bias,
                     const float* b, const std::ptrdiff_t* boff,
                     const float* res, std::size_t ldres, float* c,
                     std::size_t ldc, int rows, int cols, bool relu) {
  switch (rows) {
    case 1:
      return strip_rows<1, 8>(K, a, bias, b, boff, res, ldres, c, ldc, cols,
                              relu);
    case 2:
      return strip_rows<2, 4>(K, a, bias, b, boff, res, ldres, c, ldc, cols,
                              relu);
    case 3:
      return strip_rows<3, 4>(K, a, bias, b, boff, res, ldres, c, ldc, cols,
                              relu);
    case 4:
      return strip_rows<4, 4>(K, a, bias, b, boff, res, ldres, c, ldc, cols,
                              relu);
    case 5:
      return strip_rows<5, 4>(K, a, bias, b, boff, res, ldres, c, ldc, cols,
                              relu);
    default:
      return strip_rows<6, 4>(K, a, bias, b, boff, res, ldres, c, ldc, cols,
                              relu);
  }
}

constexpr KernelSet kAvx512Set{Isa::kAvx512, tile_f32_avx512, kStrip, true};

}  // namespace

const KernelSet* avx512_kernels() { return &kAvx512Set; }

}  // namespace sfn::nn::kernels

#else  // non-x86 or scalar-forced build: keep the symbol, lose the kernels.

namespace sfn::nn::kernels {
const KernelSet* avx512_kernels() { return nullptr; }
}  // namespace sfn::nn::kernels

#endif
