#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

namespace sfn::fluid {

/// Progress counter between the stages of a pipelined sweep (the PCG's
/// parallel triangular solves, see pcg.cpp).
///
/// The producer writes a chunk of its output, then publishes the number
/// of chunks it has finished with a release store; a consumer's acquire
/// wait for that number therefore sees every write the chunk made. Counts
/// only grow between resets, and a reset must be ordered before the
/// sweep that uses it (pcg.cpp resets on the calling thread, before the
/// parallel region starts).
///
/// Aligned to a cache line so the counters of neighbouring stages never
/// share one. A waiter spins briefly, then yields the core on every
/// check: in an oversubscribed team (`ctest -j`, many sessions) the
/// producer may have been descheduled and needs a core to finish. The
/// waiter never sleeps on a wake-up call, so there is none to lose.
class alignas(64) ChunkHandoff {
 public:
  void reset() { count_.store(0, std::memory_order_relaxed); }

  void publish(std::uint32_t count) {
    count_.store(count, std::memory_order_release);
  }

  /// Returns once the published count has reached `count`.
  void wait_for(std::uint32_t count) const {
    for (int spin = 0; spin < kSpinsBeforeYield; ++spin) {
      if (count_.load(std::memory_order_acquire) >= count) {
        return;
      }
      cpu_relax();
    }
    while (count_.load(std::memory_order_acquire) < count) {
      std::this_thread::yield();
    }
  }

 private:
  static constexpr int kSpinsBeforeYield = 256;

  static void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }

  std::atomic<std::uint32_t> count_{0};
};

}  // namespace sfn::fluid
