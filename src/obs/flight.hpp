#pragma once

#include <cstdint>
#include <string>

namespace sfn::obs {

/// Flight recorder (DESIGN.md §15): keeps the per-thread trace rings
/// continuously armed and, when a degradation signal fires, writes a
/// bounded chrome-trace dump of the breaching window for post-mortem
/// analysis.
///
/// Arming forces SFN_TRACE=full (the previous mode is restored on
/// disarm) and starts a rotator thread that every `window_s` snapshots
/// the rings and clears them, holding the previous window in memory. The
/// rings drop the *newest* events when full, so without rotation a long
/// run would freeze the recording at startup; with it the rings always
/// hold roughly the last window and a dump covers the previous plus the
/// current one. Rotation also clears the cross-thread scope aggregates,
/// so the end-of-run phase summary table is not meaningful while armed —
/// the recorder trades it for a bounded post-mortem window.
///
/// Triggers:
///   * guard-trip burst — `trip_threshold` fallback trips within
///     `trip_window_s` (reported by the runtime guard);
///   * SLO breach — queue-wait or job-duration above the configured
///     millisecond budgets (reported by the serving layer), 0 = disabled.
///
/// Dumps are bounded by `max_dumps` per process and `cooldown_s` between
/// dumps; each one is `<dir>/flight_<seq>.json` plus a `flight_dump`
/// event-log record.
struct FlightConfig {
  std::string dir = ".";
  double window_s = 2.0;
  int trip_threshold = 5;
  double trip_window_s = 1.0;
  double slo_queue_ms = 0.0;  ///< 0 disables the queue-wait SLO.
  double slo_job_ms = 0.0;    ///< 0 disables the job-duration SLO.
  int max_dumps = 4;
  double cooldown_s = 2.0;
};

/// True while armed. One relaxed atomic load; safe from any thread.
[[nodiscard]] bool flight_armed();

/// Arm with `config`. Forces full tracing and starts the rotator thread.
/// No-op (returns true) when already armed.
bool flight_arm(const FlightConfig& config);

/// Stop the rotator, restore the previous trace mode. Idempotent. Does
/// not delete dumps already written.
void flight_disarm();

/// Arm from the environment when SFN_FLIGHT=on, reading the
/// SFN_FLIGHT_* knobs (see README). Repeat calls are no-ops. Returns
/// flight_armed() afterwards.
bool flight_init_from_env();

/// Report one guard trip (runtime guard). Cheap when disarmed. A burst
/// beyond the configured threshold triggers a dump.
void flight_report_guard_trip();

/// Report one finished job's latencies (serving layer). Cheap when
/// disarmed. A breach of either configured SLO triggers a dump.
void flight_check_job_slo(const std::string& session, double queue_wait_ms,
                          double job_ms);

/// Dumps written so far / the most recent dump's path (empty when none).
[[nodiscard]] int flight_dump_count();
[[nodiscard]] std::string flight_last_dump_path();

}  // namespace sfn::obs
