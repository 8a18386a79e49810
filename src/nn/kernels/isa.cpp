#include "nn/kernels/isa.hpp"

#include <atomic>

namespace sfn::nn::kernels {
namespace {

Isa probe_isa() {
#if defined(SFN_FORCE_SCALAR_KERNELS)
  return Isa::kScalar;
#elif defined(__aarch64__) && defined(__ARM_NEON)
  return Isa::kNeon;
#elif defined(__x86_64__) || defined(_M_X64)
  // The AVX2 translation unit is compiled with -mavx2 -mfma regardless of
  // the global flags, so dispatching on the *CPU* (not the build flags) is
  // what keeps one portable binary correct on old and new machines alike.
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return Isa::kAvx2;
  }
  return Isa::kScalar;
#else
  return Isa::kScalar;
#endif
}

// Override slot: -1 = auto (follow detection), otherwise a static_cast Isa.
std::atomic<int>& override_slot() {
  static std::atomic<int> slot{-1};
  return slot;
}

}  // namespace

Isa detected_isa() {
  static const Isa isa = probe_isa();
  return isa;
}

Isa active_isa() {
  const int requested = override_slot().load(std::memory_order_acquire);
  const Isa limit = detected_isa();
  if (requested < 0) return limit;
  const auto want = static_cast<Isa>(requested);
  // Only honour a request the build + CPU can actually execute; anything
  // else degrades to the scalar reference rather than faulting.
  return want == limit || want == Isa::kScalar ? want : Isa::kScalar;
}

void set_isa_override(Isa isa) {
  override_slot().store(static_cast<int>(isa), std::memory_order_release);
}

void reset_isa_override() {
  override_slot().store(-1, std::memory_order_release);
}

std::string isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return "scalar";
    case Isa::kAvx2: return "avx2";
    case Isa::kNeon: return "neon";
  }
  return "unknown";
}

}  // namespace sfn::nn::kernels
