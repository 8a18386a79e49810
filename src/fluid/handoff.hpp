#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

namespace sfn::fluid {

namespace detail {

/// Spins before a waiter starts yielding its core on every check: in an
/// oversubscribed team (`ctest -j`, many sessions) the thread it waits for
/// may have been descheduled and needs a core to finish.
inline constexpr int kSpinsBeforeYield = 256;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace detail

/// Progress counter between the stages of a pipelined sweep (the PCG's
/// parallel triangular solves and factor build, see pcg.cpp).
///
/// The producer writes a chunk of its output, then publishes the number
/// of chunks it has finished with a release store; a consumer's acquire
/// wait for that number therefore sees every write the chunk made. Counts
/// only grow between resets, and a reset must be ordered before the
/// sweep that uses it (pcg.cpp resets on the calling thread, before the
/// solve's parallel region starts, and counts on through every sweep of
/// the solve).
///
/// Aligned to a cache line so the counters of neighbouring stages never
/// share one. A waiter spins briefly, then yields the core on every
/// check. The waiter never sleeps on a wake-up call, so there is none to
/// lose.
class alignas(64) ChunkHandoff {
 public:
  void reset() { count_.store(0, std::memory_order_relaxed); }

  void publish(std::uint64_t count) {
    count_.store(count, std::memory_order_release);
  }

  /// Returns once the published count has reached `count`.
  void wait_for(std::uint64_t count) const {
    for (int spin = 0; spin < detail::kSpinsBeforeYield; ++spin) {
      if (count_.load(std::memory_order_acquire) >= count) {
        return;
      }
      detail::cpu_relax();
    }
    while (count_.load(std::memory_order_acquire) < count) {
      std::this_thread::yield();
    }
  }

 private:
  std::atomic<std::uint64_t> count_{0};
};

/// Barrier between the passes of one parallel region (the PCG's solve,
/// see pcg.cpp): a thread returns from arrive_and_wait(team) once all
/// `team` threads of its team have arrived, and then sees every write any
/// of them made before arriving. The barrier is reusable at once: the
/// last thread to arrive resets the count and opens the next generation.
///
/// Arrivals are acq_rel increments of one counter, so the last arrival
/// acquires every earlier one's writes; its release store of the next
/// generation passes them on to the waiters' acquire loads. Every edge is
/// an atomic ThreadSanitizer checks (libgomp's own barrier is not). A
/// waiter spins briefly, then yields the core on every check, like
/// ChunkHandoff. A team of one returns at once and touches no atomic.
///
/// Every thread of the team must call arrive_and_wait the same number of
/// times, with the team's size; the counter must be at rest (no
/// generation half-arrived) when a new team starts using it.
class TeamBarrier {
 public:
  void arrive_and_wait(int team) {
    if (team <= 1) {
      return;
    }
    const std::uint32_t generation =
        generation_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == team) {
      arrived_.store(0, std::memory_order_relaxed);
      generation_.store(generation + 1, std::memory_order_release);
      return;
    }
    for (int spin = 0; spin < detail::kSpinsBeforeYield; ++spin) {
      if (generation_.load(std::memory_order_acquire) != generation) {
        return;
      }
      detail::cpu_relax();
    }
    while (generation_.load(std::memory_order_acquire) == generation) {
      std::this_thread::yield();
    }
  }

 private:
  alignas(64) std::atomic<int> arrived_{0};
  alignas(64) std::atomic<std::uint32_t> generation_{0};
};

}  // namespace sfn::fluid
