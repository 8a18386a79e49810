#pragma once

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
/// for any thread count, including 1. Max-reductions do not need this
/// treatment (IEEE max is order-independent); only +-reductions do.
///
/// The partial buffers are thread_local so steady-state callers allocate
/// only until the largest row count has been seen once on that thread.
/// (PcgSolver keeps this order in its own fused passes, pcg.cpp.)

/// Sum of row_sum(j) for j in [0, ny), accumulation order fixed.
/// `row_sum` must itself be deterministic (sequential within the row).
template <typename RowFn>
double deterministic_row_sum(int ny, RowFn&& row_sum) {
  static thread_local std::vector<double> partials;
  partials.assign(static_cast<std::size_t>(ny), 0.0);
  // Hoist the data pointer: inside the parallel region the thread_local
  // above would resolve to each *worker's* own (empty) vector.
  double* const buffer = partials.data();
#pragma omp parallel for schedule(static)
  for (int j = 0; j < ny; ++j) {
    buffer[j] = row_sum(j);
  }
  double acc = 0.0;
  for (int j = 0; j < ny; ++j) {
    acc += buffer[j];
  }
  return acc;
}

/// Variant for reductions that carry a sum and an element count (e.g. a
/// mean over fluid cells). `row_fn(j, &sum, &count)` fills the row's
/// partials; combination order is fixed as above. The count is exact
/// integer arithmetic either way — it rides along to keep one grid pass.
template <typename RowFn>
void deterministic_row_sum_count(int ny, RowFn&& row_fn, double* sum,
                                 long long* count) {
  static thread_local std::vector<double> partial_sums;
  static thread_local std::vector<long long> partial_counts;
  partial_sums.assign(static_cast<std::size_t>(ny), 0.0);
  partial_counts.assign(static_cast<std::size_t>(ny), 0);
  // Hoisted for the same reason as in deterministic_row_sum: thread_local
  // names must not be evaluated inside the parallel region.
  double* const sums = partial_sums.data();
  long long* const counts = partial_counts.data();
#pragma omp parallel for schedule(static)
  for (int j = 0; j < ny; ++j) {
    row_fn(j, &sums[j], &counts[j]);
  }
  *sum = 0.0;
  *count = 0;
  for (int j = 0; j < ny; ++j) {
    *sum += sums[j];
    *count += counts[j];
  }
}

}  // namespace sfn::fluid
