#pragma once

#include <atomic>
#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace sfn::util {
class Table;
}

namespace sfn::obs {

/// Metrics recording gate, read once from SFN_METRICS (on|off, default on)
/// and overridable from code. Updates on a disabled registry are skipped
/// behind one relaxed atomic load.
[[nodiscard]] bool metrics_enabled();
void set_metrics_enabled(bool enabled);

/// Monotonic counter (PCG iterations, conv dispatches, switch decisions, ...).
/// add() is one relaxed fetch_add; safe from any thread.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    if (metrics_enabled()) {
      value_.fetch_add(n, std::memory_order_relaxed);
    }
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-value gauge (workspace bytes, current candidate, ...).
class Gauge {
 public:
  void set(double v) {
    if (metrics_enabled()) {
      value_.store(v, std::memory_order_relaxed);
    }
  }
  /// Monotone high-water update: keep the maximum of the current value
  /// and `v`. Lock-free CAS loop, safe from any thread — used for peak
  /// depths (serve.queue_depth_peak) where a plain set() would let a
  /// racing lower reading erase the peak.
  void set_max(double v) {
    if (!metrics_enabled()) {
      return;
    }
    double cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Streaming histogram over positive magnitudes (per-step DivNorm, PCG
/// residuals, predicted quality loss). Keeps count/sum/min/max plus
/// power-of-two magnitude bins; every update is a handful of relaxed
/// atomic operations, safe from any thread.
class Histogram {
 public:
  /// Bin i covers [2^(i-kBinOffset), 2^(i-kBinOffset+1)); values <= 0 or
  /// below the range land in bin 0, above it in the last bin.
  static constexpr int kBins = 64;
  static constexpr int kBinOffset = 40;  ///< Bin 40 covers [1, 2).

  /// Shared, static upper bin edges: edge[i] = 2^(i - kBinOffset + 1).
  /// Computed once at first use; both the exporter and the table renderers
  /// read this one table instead of recomputing edges per call.
  [[nodiscard]] static const std::array<double, kBins>& bucket_upper_edges();

  void observe(double v);

  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::array<std::uint64_t, kBins> bins{};

    [[nodiscard]] double mean() const {
      return count > 0 ? sum / static_cast<double>(count) : 0.0;
    }
    /// Approximate p-quantile (0..1) from the magnitude bins: the upper
    /// edge of the bin holding the p-th sample, capped at the observed
    /// max. Coarse by design; the single quantile implementation shared
    /// by the exporter and the live approx_quantile() path.
    [[nodiscard]] double quantile(double p) const;
  };
  [[nodiscard]] Snapshot snapshot() const;

  /// Convenience: snapshot().quantile(p).
  [[nodiscard]] double approx_quantile(double p) const;

  void reset();

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  /// min/max start at the CAS-loop identities (+inf / 0 for magnitudes)
  /// and are maintained purely by atomic min/max folds, so there is no
  /// first-sample initialisation window in which a concurrent snapshot()
  /// could read a half-initialised extremum (DESIGN.md §14, finding F2).
  /// Reported only while count_ > 0, where at least one fold has run.
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{0.0};
  std::array<std::atomic<std::uint64_t>, kBins> bins_{};
};

/// Named-instrument registry. Registration (first lookup of a name) takes
/// a mutex and allocates; the returned reference is stable for the process
/// lifetime, so hot call sites cache it in a function-local static and
/// updates are pure atomics:
///
///   static obs::Counter& iters = obs::counter("pcg.iterations");
///   iters.add(stats.iterations);
[[nodiscard]] Counter& counter(std::string_view name);
[[nodiscard]] Gauge& gauge(std::string_view name);
[[nodiscard]] Histogram& histogram(std::string_view name);

/// Labeled variants: compose `base{key="value"}` registry entries for
/// bounded-cardinality dimensions (session mode, flush reason — never
/// per-job ids). The exporter splits the composed name back into family
/// and label set; call sites outside src/obs must still pass a literal
/// `base` that satisfies lint rule R10.
[[nodiscard]] Counter& counter_labeled(std::string_view base,
                                       std::string_view key,
                                       std::string_view value);
[[nodiscard]] Gauge& gauge_labeled(std::string_view base, std::string_view key,
                                   std::string_view value);
[[nodiscard]] Histogram& histogram_labeled(std::string_view base,
                                           std::string_view key,
                                           std::string_view value);

struct MetricValue {
  std::string name;
  std::string type;  ///< "counter" | "gauge" | "histogram".
  Counter* counter = nullptr;
  Gauge* gauge = nullptr;
  Histogram* histogram = nullptr;
};

/// All registered instruments, sorted by name.
[[nodiscard]] std::vector<MetricValue> all_metrics();

/// Render every instrument into a util::Table
/// (Name | Type | Count | Value/Mean | Min | Max).
[[nodiscard]] util::Table metrics_table();

/// Zero every instrument (registrations persist). Test helper.
void reset_metrics();

}  // namespace sfn::obs
