#pragma once

#include "util/team.hpp"

#include <cstddef>
#include <vector>

namespace sfn::fluid {

/// Deterministic parallel reductions.
///
/// An `omp parallel for reduction(+)` combines per-thread partials in an
/// order that depends on the team size, so the same field summed under
/// different OMP_NUM_THREADS (or on a thread whose team was pinned by a
/// batch worker) yields different last-bit results. That is fatal for the
/// serving layer's determinism guarantee (DESIGN.md §12): CumDivNorm feeds
/// the switch controller, so a one-ulp drift can flip a model-switch
/// decision and diverge the whole trajectory.
///
/// These helpers fix the accumulation order by the *grid*, not the team:
/// each row's partial is accumulated sequentially left-to-right by whichever
/// thread owns the row, and the per-row partials are then combined in
/// ascending row order on the calling thread. The result is bit-identical
/// for any thread count, including 1. Max-reductions and integer counts do
/// not need this treatment (they do not depend on the combination order);
/// only floating-point +-reductions do, but they ride along in the same
/// per-row partials to keep one grid pass.
///
/// The partial buffers are thread_local and sized on the calling thread
/// before the team opens, so steady-state callers allocate only until the
/// largest row count has been seen once on that thread, and never inside
/// the region. (PcgSolver keeps this order in its own fused passes,
/// pcg.cpp.)

/// Runs row_fn(j, &partials[j]) for every j in [0, ny) over the team
/// (util::for_rows), each partial starting value-initialised, and returns
/// the partials in row order. The span stays valid until the next call
/// with the same Partial type on this thread.
template <typename Partial, typename RowFn>
const std::vector<Partial>& row_partials(int ny, const RowFn& row_fn) {
  static thread_local std::vector<Partial> partials;
  partials.assign(static_cast<std::size_t>(ny), Partial{});
  // Hoist the data pointer: inside the team the thread_local above would
  // resolve to each *worker's* own (empty) vector.
  Partial* const buffer = partials.data();
  util::for_rows(ny, [&](int j) { row_fn(j, &buffer[j]); });
  return partials;
}

/// Sum of row_sum(j) for j in [0, ny), accumulation order fixed.
/// `row_sum` must itself be deterministic (sequential within the row).
template <typename RowFn>
double deterministic_row_sum(int ny, const RowFn& row_sum) {
  const auto& partials = row_partials<double>(
      ny, [&](int j, double* partial) { *partial = row_sum(j); });
  double acc = 0.0;
  for (const double partial : partials) {
    acc += partial;
  }
  return acc;
}

/// Variant for reductions that carry a sum and an element count (e.g. a
/// mean over fluid cells). `row_fn(j, &sum, &count)` fills the row's
/// partials, which start at zero; combination order is fixed as above.
/// The count is exact integer arithmetic either way — it rides along to
/// keep one grid pass.
template <typename RowFn>
void deterministic_row_sum_count(int ny, const RowFn& row_fn, double* sum,
                                 long long* count) {
  struct SumCount {
    double sum;
    long long count;
  };
  const auto& partials = row_partials<SumCount>(
      ny, [&](int j, SumCount* partial) {
        row_fn(j, &partial->sum, &partial->count);
      });
  *sum = 0.0;
  *count = 0;
  for (const SumCount& partial : partials) {
    *sum += partial.sum;
    *count += partial.count;
  }
}

}  // namespace sfn::fluid
