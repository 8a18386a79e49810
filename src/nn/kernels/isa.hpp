#pragma once

#include <string>
#include <vector>

namespace sfn::nn::kernels {

/// Instruction-set families the packed conv microkernels are built for.
/// Detection is runtime (cpuid on x86), so one portable binary carries the
/// scalar fallback plus whatever SIMD kernels the build included and picks
/// at load time. Every family computes bit-identical results: the scalar
/// reference accumulates with std::fmaf in the same order the SIMD kernels
/// issue their fused multiply-adds (DESIGN.md §13), so switching ISA — or
/// running the CI scalar leg — can never move a golden trajectory.
enum class Isa {
  kScalar,  ///< Portable fallback (fmaf-based, always available).
  kAvx2,    ///< x86 AVX2 + FMA (8-wide fused multiply-add).
  kAvx512,  ///< x86 AVX-512F (16-wide fused multiply-add, masked tails).
  kNeon,    ///< AArch64 NEON (4-wide fused multiply-add).
};

/// Best ISA this build + this CPU supports (cpuid-checked once).
[[nodiscard]] Isa detected_isa();

/// Every ISA this build + this CPU can run, scalar first and
/// detected_isa() last: scalar, then AVX2 and AVX-512 up to the detected
/// x86 tier, or NEON. Tests and the kernel benchmark pin each in turn.
[[nodiscard]] const std::vector<Isa>& runnable_isas();

/// ISA the kernels actually dispatch to: detected_isa() unless a test or
/// benchmark pinned another with set_isa_override. A pin names any of
/// runnable_isas(); one the hardware or build cannot honour falls back to
/// scalar, never to an illegal instruction.
[[nodiscard]] Isa active_isa();

/// Process-wide pin for tests and the per-ISA kernel benchmark sweep
/// (atomic, release/acquire — safe to flip while inference runs; each
/// dispatch sees the old or the new value). reset_isa_override() returns
/// to detection.
void set_isa_override(Isa isa);
void reset_isa_override();

[[nodiscard]] std::string isa_name(Isa isa);

}  // namespace sfn::nn::kernels
