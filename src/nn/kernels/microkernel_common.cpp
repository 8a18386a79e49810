#include "nn/kernels/microkernel.hpp"

#include <cmath>

namespace sfn::nn::kernels {
namespace {

/// Matches ReLU::forward_into (`x > 0 ? x : 0`): NaN and -0.0 both map to
/// +0.0, same as _mm256_max_ps(x, zero) with x in the first operand.
inline float relu1(float x) { return x > 0.0f ? x : 0.0f; }

}  // namespace

void tile_f32_ref(int K, const float* a, const float* bias, const float* b,
                  const std::ptrdiff_t* boff, const float* res,
                  std::size_t ldres, float* c, std::size_t ldc, int rows,
                  int cols, bool relu) {
  for (int r = 0; r < rows; ++r) {
    for (int j = 0; j < cols; ++j) {
      // Accumulation starts from the bias and adds taps in packed-K order
      // with correctly rounded fused multiply-adds — the exact operation
      // sequence of one SIMD lane, so the result is bit-identical to the
      // AVX2/AVX-512/NEON kernels.
      float acc = bias[r];
      for (int p = 0; p < K; ++p) {
        acc = std::fmaf(a[static_cast<std::size_t>(p) * kMr + r],
                        b[boff[p] + j], acc);
      }
      if (res != nullptr) {
        acc += res[static_cast<std::size_t>(r) * ldres + j];
      }
      c[static_cast<std::size_t>(r) * ldc + j] = relu ? relu1(acc) : acc;
    }
  }
}

namespace {

// The reference strip is the scalar kernel; like AVX2 and NEON it walks
// kNr-pixel strips, and the driver gives it each row's tail directly.
constexpr KernelSet kScalarSet{Isa::kScalar, tile_f32_ref, kNr, false};

}  // namespace

const KernelSet& active_kernels() {
  switch (active_isa()) {
    case Isa::kAvx2:
      if (const KernelSet* set = avx2_kernels()) return *set;
      break;
    case Isa::kAvx512:
      if (const KernelSet* set = avx512_kernels()) return *set;
      break;
    case Isa::kNeon:
      if (const KernelSet* set = neon_kernels()) return *set;
      break;
    case Isa::kScalar:
      break;
  }
  return kScalarSet;
}

}  // namespace sfn::nn::kernels
