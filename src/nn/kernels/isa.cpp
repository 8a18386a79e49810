#include "nn/kernels/isa.hpp"

#include <algorithm>
#include <atomic>

namespace sfn::nn::kernels {
namespace {

Isa probe_isa() {
#if defined(SFN_FORCE_SCALAR_KERNELS)
  return Isa::kScalar;
#elif defined(__aarch64__) && defined(__ARM_NEON)
  return Isa::kNeon;
#elif defined(__x86_64__) || defined(_M_X64)
  // The AVX2 and AVX-512 translation units are compiled with their own ISA
  // flags regardless of the global ones, so dispatching on the *CPU* (not
  // the build flags) is what keeps one portable binary correct on old and
  // new machines alike. The AVX-512 tier also needs AVX2+FMA, so the x86
  // tiers form a chain: a CPU that runs one runs every tier below it.
  if (!__builtin_cpu_supports("avx2") || !__builtin_cpu_supports("fma")) {
    return Isa::kScalar;
  }
  return __builtin_cpu_supports("avx512f") ? Isa::kAvx512 : Isa::kAvx2;
#else
  return Isa::kScalar;
#endif
}

std::vector<Isa> list_runnable(Isa best) {
  std::vector<Isa> isas = {Isa::kScalar};
  if (best == Isa::kAvx2 || best == Isa::kAvx512) isas.push_back(Isa::kAvx2);
  if (best == Isa::kAvx512 || best == Isa::kNeon) isas.push_back(best);
  return isas;
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

const std::vector<Isa>& runnable_isas() {
  static const std::vector<Isa> isas = list_runnable(detected_isa());
  return isas;
}

Isa active_isa() {
  const int requested = override_slot().load(std::memory_order_acquire);
  if (requested < 0) return detected_isa();
  const auto want = static_cast<Isa>(requested);
  // Only honour a request the build + CPU can actually execute; anything
  // else degrades to the scalar reference rather than faulting.
  const std::vector<Isa>& ok = runnable_isas();
  return std::find(ok.begin(), ok.end(), want) != ok.end() ? want
                                                           : Isa::kScalar;
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
    case Isa::kAvx512: return "avx512";
    case Isa::kNeon: return "neon";
  }
  return "unknown";
}

}  // namespace sfn::nn::kernels
