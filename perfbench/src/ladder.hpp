#pragma once

#include "core/offline.hpp"

#include <cstdint>

namespace perfbench {

/// The user requirement U(q, t) the ladder is prepared for: final-frame
/// quality loss (paper Eq. 3) of at most q. At this q adaptive sessions
/// switch models but seldom restart into PCG; at 0.05 nearly all restart.
constexpr double kQualityRequirement = 0.1;

/// The candidate ladder every workload serves from, built as a pure
/// function of `seed`: fixed architecture specs trained with
/// core::train_model, ranked by measured quality loss, and costed by
/// Network::flops instead of wall-clock timings, so two builds of the same
/// code always serve the same candidates with the same controller inputs.
struct Ladder {
  sfn::core::OfflineArtifacts artifacts;
  std::size_t most_accurate = 0;  ///< Library id with the lowest mean Qloss.
  /// FNV-1a over every spec, every weight and the quality requirement;
  /// equal hashes mean the same ladder was served.
  std::uint64_t hash = 0;
  double train_s = 0.0;       ///< Training-data collection + training.
  double quality_db_s = 0.0;  ///< Quality measurement + KNN database.
  double prepack_s = 0.0;     ///< Packing weights for inference.
  double total_s = 0.0;
};

Ladder build_ladder(std::uint64_t seed);

}  // namespace perfbench
