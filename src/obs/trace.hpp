#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace sfn::obs {

/// Runtime tracing level, read once from SFN_TRACE (off|summary|full) via
/// util::config and overridable from code (tests, tools).
///
///   off     — scopes cost two loads and a branch; nothing is recorded.
///   summary — per-scope aggregates (count/total/min/max) only; no events.
///   full    — aggregates plus per-event records in per-thread buffers,
///             exportable as chrome-tracing JSON (obs/export.hpp).
enum class TraceMode : int { kOff = 0, kSummary = 1, kFull = 2 };

[[nodiscard]] TraceMode trace_mode();
void set_trace_mode(TraceMode mode);
[[nodiscard]] std::string to_string(TraceMode mode);

/// One completed scope. `name` points at the string literal given to the
/// scope site — static lifetime, so events never own or copy strings and
/// the record path never allocates.
struct TraceEvent {
  const char* name = nullptr;
  double begin_s = 0.0;  ///< Seconds since the process trace epoch.
  double end_s = 0.0;
  std::uint32_t thread_id = 0;  ///< Dense per-process tracing thread id.
  std::uint16_t depth = 0;      ///< Scope nesting depth on its thread.
  bool has_arg = false;
  std::uint64_t arg = 0;  ///< Optional attribution id (e.g. model id).

  [[nodiscard]] double seconds() const { return end_s - begin_s; }
};

namespace detail {
[[nodiscard]] bool thread_recording();
[[nodiscard]] double now_seconds();
int enter_scope();
void record_scope(const char* name, double begin_s, int depth, bool has_arg,
                  std::uint64_t arg);
}  // namespace detail

/// RAII scope recorder. Prefer the SFN_TRACE_SCOPE macros at
/// instrumentation sites; construct the class directly only where the
/// events are load-bearing (core/session.cpp derives SessionResult timing
/// from them) and must survive a compile-time macro disable.
///
/// A nullptr name constructs an inactive scope, which is how optional
/// instrumentation (e.g. per-layer scopes only in full mode) avoids a
/// second macro variant.
class TraceScope {
 public:
  explicit TraceScope(const char* name) noexcept { init(name, false, 0); }
  TraceScope(const char* name, std::uint64_t arg) noexcept {
    init(name, true, arg);
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  ~TraceScope() {
    if (name_ != nullptr) {
      detail::record_scope(name_, begin_s_, depth_, has_arg_, arg_);
    }
  }

 private:
  void init(const char* name, bool has_arg, std::uint64_t arg) noexcept {
    if (name == nullptr || !detail::thread_recording()) {
      name_ = nullptr;
      return;
    }
    name_ = name;
    has_arg_ = has_arg;
    arg_ = arg;
    depth_ = detail::enter_scope();
    begin_s_ = detail::now_seconds();
  }

  const char* name_ = nullptr;
  double begin_s_ = 0.0;
  int depth_ = 0;
  std::uint64_t arg_ = 0;
  bool has_arg_ = false;
};

/// Tee every scope completed on the *current thread* into a private
/// vector for the capture's lifetime, regardless of the global trace mode.
/// This is how run_adaptive/run_fixed treat telemetry as the timing source
/// of truth: the session installs a capture, steps the simulation, then
/// reconstructs per-model wall time from the captured stream. Captures
/// nest (the previous capture is restored on destruction); only the
/// innermost one receives events.
class TraceCapture {
 public:
  TraceCapture();
  ~TraceCapture();
  TraceCapture(const TraceCapture&) = delete;
  TraceCapture& operator=(const TraceCapture&) = delete;

  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }

 private:
  friend void detail::record_scope(const char*, double, int, bool,
                                   std::uint64_t);
  std::vector<TraceEvent> events_;
  TraceCapture* prev_ = nullptr;
};

/// Aggregate statistics for one scope name (summary and full modes).
struct ScopeStats {
  std::string name;
  std::uint64_t count = 0;
  double total_s = 0.0;
  double min_s = 0.0;
  double max_s = 0.0;
};

/// Copy of every event currently held in the per-thread buffers
/// (full mode), ordered by begin time.
[[nodiscard]] std::vector<TraceEvent> snapshot_events();

/// Per-name aggregates merged across all tracing threads.
[[nodiscard]] std::vector<ScopeStats> aggregate_scope_stats();

/// Events dropped because a thread buffer filled (full mode). Bounded
/// buffers drop the *newest* events: published slots stay immutable, which
/// is what keeps the writer lock-free and the exporter race-free.
[[nodiscard]] std::uint64_t dropped_events();

/// Clear all thread buffers and aggregates. Test/tool helper: callers must
/// guarantee no other thread is tracing concurrently.
void reset_thread_buffers();

/// Override the per-thread event-buffer capacity (default 16384, or the
/// SFN_TRACE_BUFFER environment variable). Applies to threads that start
/// tracing after the call; test helper.
void set_trace_buffer_capacity(std::size_t events);

}  // namespace sfn::obs

// Scoped-tracing instrumentation macros (one TraceScope local per line);
// they cost two loads and a branch while SFN_TRACE=off.
#define SFN_OBS_CONCAT_INNER(a, b) a##b
#define SFN_OBS_CONCAT(a, b) SFN_OBS_CONCAT_INNER(a, b)
#define SFN_TRACE_SCOPE(name)                                      \
  ::sfn::obs::TraceScope SFN_OBS_CONCAT(sfn_trace_scope_, __LINE__)( \
      name)
#define SFN_TRACE_SCOPE_ID(name, id)                               \
  ::sfn::obs::TraceScope SFN_OBS_CONCAT(sfn_trace_scope_, __LINE__)( \
      name, static_cast<std::uint64_t>(id))
