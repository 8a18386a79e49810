#pragma once

#include <omp.h>

#include <atomic>

namespace sfn::util {

/// Runs body(thread, team) once on every thread of an OpenMP team.
///
/// libgomp's fork and closing barrier order the caller's accesses before
/// the team's, and the team's before the caller's next ones, but
/// ThreadSanitizer cannot see them. It would report every access to data
/// a thread of another region touched: slowly, as each report is matched
/// against tools/tsan.supp, and unsuppressed once the libgomp frame of
/// one side has aged out of TSan's history. The release/acquire pairs on
/// `joined` at the fork and at the join state the same order in a form
/// TSan checks.
template <typename Body>
void on_team(const Body& body) {
  std::atomic<int> joined;
  joined.store(0, std::memory_order_release);
#pragma omp parallel
  {
    static_cast<void>(joined.load(std::memory_order_acquire));
    body(omp_get_thread_num(), omp_get_num_threads());
    joined.fetch_add(1, std::memory_order_release);
  }
  static_cast<void>(joined.load(std::memory_order_acquire));
}

/// body(j) for every j in [0, n), split over the team in contiguous blocks.
/// Each j runs on exactly one thread, so a body that writes only its own
/// outputs from inputs no other j writes gives the same bits for any team
/// size. A single row runs on the caller: a team would leave every thread
/// but one idle and pay the fork and join for nothing.
template <typename Body>
void for_rows(int n, const Body& body) {
  if (n == 1) {
    body(0);
    return;
  }
  on_team([&](int thread, int team) {
    for (int j = thread * n / team; j < (thread + 1) * n / team; ++j) {
      body(j);
    }
  });
}

}  // namespace sfn::util
