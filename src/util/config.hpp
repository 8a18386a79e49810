#pragma once

#include <initializer_list>
#include <string>
#include <string_view>

namespace sfn::util {

/// Experiment-scale knobs shared by every benchmark binary.
///
/// The paper evaluates 20,480 input problems on grids up to 1024x1024 on a
/// Titan X GPU. On a CPU box we preserve the *shape* of every result at a
/// reduced default scale; `scale` multiplies problem counts and
/// `max_grid` caps the largest grid swept. Both can be overridden from the
/// command line (`--scale=N`, `--max-grid=N`) or the environment
/// (SMARTFLUIDNET_SCALE, SMARTFLUIDNET_MAX_GRID).
struct BenchConfig {
  int scale = 1;       ///< Multiplies the number of input problems.
  int max_grid = 64;   ///< Largest grid edge used in grid-size sweeps.
  int time_steps = 16; ///< Simulation steps per problem (paper: 128;
                       ///< shorter here so the chaotic rollout stays
                       ///< correlated at CPU-scale surrogate fidelity).
  unsigned long long seed = 42;

  /// Parse from argv and environment; unrecognised args are ignored so the
  /// binaries still accept google-benchmark flags.
  static BenchConfig from_args(int argc, char** argv);
};

/// Read an integer environment variable with a fallback.
///
/// These helpers are the repo's only sanctioned route to the process
/// environment (enforced by the no-raw-getenv rule in tools/sfn_lint.py):
/// keeping every std::getenv behind util::config makes the read-once /
/// never-setenv-after-threads-start discipline auditable in one file.
long long env_int(const std::string& name, long long fallback);

/// Read a floating-point environment variable with a fallback. Malformed
/// values (trailing junk, empty) fall back rather than half-parse; used
/// for threshold knobs such as SFN_QUANT_MAX_QLOSS.
double env_double(const std::string& name, double fallback);

/// Read a string environment variable with a fallback (empty counts as
/// unset).
std::string env_str(const std::string& name, const std::string& fallback);

/// Read an enumerated environment variable: returns the variable's value
/// when it is one of `allowed`, otherwise `fallback` (unset, empty and
/// unrecognised all fall back). Used for e.g. SFN_GUARD.
std::string env_choice(const std::string& name,
                       std::initializer_list<std::string_view> allowed,
                       const std::string& fallback);

/// Build provenance captured at CMake configure time (git SHA, build type,
/// sanitizer preset, numeric-check state). Stamped into every
/// BENCH_*.json metadata block so artifacts are attributable to a commit
/// and build configuration; "unknown" fields mean the tree was built
/// without git or outside CMake.
struct BuildInfo {
  std::string git_sha;
  std::string build_type;
  std::string sanitize;         ///< "none" or the SFN_SANITIZE list.
  std::string check_numerics;   ///< "on" | "off".
};
BuildInfo build_info();

}  // namespace sfn::util
