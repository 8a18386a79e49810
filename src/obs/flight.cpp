#include "obs/flight.hpp"

#include "obs/eventlog.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/annotations.hpp"
#include "util/config.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <thread>
#include <vector>

namespace sfn::obs {

namespace {

std::atomic<bool> g_armed{false};
std::atomic<bool> g_env_checked{false};
std::atomic<int> g_dumps{0};

struct FlightState {
  util::Mutex mutex;
  util::CondVar cv;
  FlightConfig config SFN_GUARDED_BY(mutex);
  /// The previous rotation window, so a dump covers ~2x window_s even
  /// when the trigger lands right after a rotation.
  std::vector<TraceEvent> prev_window SFN_GUARDED_BY(mutex);
  std::deque<double> trips SFN_GUARDED_BY(mutex);
  double last_dump_s SFN_GUARDED_BY(mutex) = -1.0e300;
  std::string last_path SFN_GUARDED_BY(mutex);
  bool stop SFN_GUARDED_BY(mutex) = false;
  TraceMode prev_mode SFN_GUARDED_BY(mutex) = TraceMode::kOff;
  /// Joined by disarm only; arm/disarm themselves are serialized by the
  /// callers' use (process startup / shutdown and tests).
  std::thread rotator;
};

FlightState& state() {
  static FlightState* s = new FlightState();  // Leaked by design.
  return *s;
}

/// Write one bounded dump: previous window + current ring contents,
/// sorted by begin time. Returns the path, empty on rate-limit/IO
/// failure. The ring snapshot is safe against concurrent writers: the
/// rings publish slots with a release-store that snapshot_events()
/// acquires, and slots are never mutated after publication.
std::string trigger_dump_locked(FlightState& s, const char* reason,
                                const std::string& detail)
    SFN_REQUIRES(s.mutex) {
  const double now = obs::detail::now_seconds();
  if (g_dumps.load(std::memory_order_relaxed) >= s.config.max_dumps ||
      now - s.last_dump_s < s.config.cooldown_s) {
    return std::string();
  }
  std::vector<TraceEvent> events = s.prev_window;
  const std::vector<TraceEvent> current = snapshot_events();
  events.insert(events.end(), current.begin(), current.end());
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.begin_s < b.begin_s;
            });

  const int seq = g_dumps.fetch_add(1, std::memory_order_relaxed);
  char name[64];
  std::snprintf(name, sizeof(name), "flight_%03d.json", seq);
  std::string path = s.config.dir;
  if (!path.empty() && path.back() != '/') {
    path.push_back('/');
  }
  path.append(name);

  std::ofstream out(path);
  if (!out) {
    return std::string();
  }
  write_chrome_trace(out, events);
  out.close();

  s.last_dump_s = now;
  s.last_path = path;
  counter("obs.flight_dumps").add();
  Event("flight_dump")
      .field("reason", reason)
      .field("detail", detail)
      .field("path", path)
      .field("events", events.size());
  return path;
}

void rotator_loop() {
  FlightState& s = state();
  util::MutexLock lock(s.mutex);
  while (!s.stop) {
    const auto window = std::chrono::duration<double>(s.config.window_s);
    s.cv.wait_for(s.mutex, window);
    if (s.stop) {
      break;
    }
    // Rotate: remember the closing window, clear the rings so the next
    // window starts from empty buffers (the rings drop newest on
    // overflow — without the periodic reset a long run would pin the
    // recording at process start). Concurrent tracers are safe against
    // the reset (atomic size/publication only); at worst a scope
    // completing mid-reset lands in either window.
    s.prev_window = snapshot_events();
    reset_thread_buffers();
  }
}

}  // namespace

bool flight_armed() {
  return g_armed.load(std::memory_order_relaxed);
}

bool flight_arm(const FlightConfig& config) {
  FlightState& s = state();
  {
    const util::MutexLock lock(s.mutex);
    if (g_armed.load(std::memory_order_relaxed)) {
      return true;
    }
    s.config = config;
    s.prev_window.clear();
    s.trips.clear();
    s.stop = false;
    s.prev_mode = trace_mode();
    set_trace_mode(TraceMode::kFull);
    g_armed.store(true, std::memory_order_relaxed);
  }
  s.rotator = std::thread(rotator_loop);
  Event("flight_armed")
      .field("window_s", config.window_s)
      .field("trip_threshold", config.trip_threshold)
      .field("slo_queue_ms", config.slo_queue_ms)
      .field("slo_job_ms", config.slo_job_ms);
  return true;
}

void flight_disarm() {
  FlightState& s = state();
  {
    const util::MutexLock lock(s.mutex);
    if (!g_armed.load(std::memory_order_relaxed)) {
      return;
    }
    g_armed.store(false, std::memory_order_relaxed);
    s.stop = true;
    s.cv.notify_all();
  }
  if (s.rotator.joinable()) {
    s.rotator.join();
  }
  const util::MutexLock lock(s.mutex);
  set_trace_mode(s.prev_mode);
}

bool flight_init_from_env() {
  bool expected = false;
  if (g_env_checked.compare_exchange_strong(expected, true,
                                            std::memory_order_relaxed)) {
    if (util::env_choice("SFN_FLIGHT", {"on", "off"}, "off") == "on") {
      FlightConfig config;
      config.dir = util::env_str("SFN_FLIGHT_DIR", ".");
      config.window_s =
          util::env_double("SFN_FLIGHT_WINDOW_MS", 2000.0) / 1000.0;
      config.trip_threshold =
          static_cast<int>(util::env_int("SFN_FLIGHT_TRIPS", 5));
      config.trip_window_s =
          util::env_double("SFN_FLIGHT_TRIP_WINDOW_MS", 1000.0) / 1000.0;
      config.slo_queue_ms = util::env_double("SFN_FLIGHT_SLO_QUEUE_MS", 0.0);
      config.slo_job_ms = util::env_double("SFN_FLIGHT_SLO_JOB_MS", 0.0);
      config.max_dumps =
          static_cast<int>(util::env_int("SFN_FLIGHT_MAX_DUMPS", 4));
      config.cooldown_s =
          util::env_double("SFN_FLIGHT_COOLDOWN_MS", 2000.0) / 1000.0;
      flight_arm(config);
    }
  }
  return flight_armed();
}

void flight_report_guard_trip() {
  if (!flight_armed()) {
    return;
  }
  FlightState& s = state();
  const util::MutexLock lock(s.mutex);
  const double now = obs::detail::now_seconds();
  s.trips.push_back(now);
  while (!s.trips.empty() && now - s.trips.front() > s.config.trip_window_s) {
    s.trips.pop_front();
  }
  if (static_cast<int>(s.trips.size()) >= s.config.trip_threshold) {
    char detail[96];
    std::snprintf(detail, sizeof(detail), "%zu trips in %.3f s",
                  s.trips.size(), s.config.trip_window_s);
    if (!trigger_dump_locked(s, "guard_trip_burst", detail).empty()) {
      s.trips.clear();  // One dump per burst, not one per extra trip.
    }
  }
}

void flight_check_job_slo(const std::string& session, double queue_wait_ms,
                          double job_ms) {
  if (!flight_armed()) {
    return;
  }
  FlightState& s = state();
  const util::MutexLock lock(s.mutex);
  const bool queue_breach =
      s.config.slo_queue_ms > 0.0 && queue_wait_ms > s.config.slo_queue_ms;
  const bool job_breach =
      s.config.slo_job_ms > 0.0 && job_ms > s.config.slo_job_ms;
  if (!queue_breach && !job_breach) {
    return;
  }
  counter("obs.slo_breaches").add();
  Event("slo_breach")
      .field("session", session)
      .field("queue_wait_ms", queue_wait_ms)
      .field("job_ms", job_ms)
      .field("slo_queue_ms", s.config.slo_queue_ms)
      .field("slo_job_ms", s.config.slo_job_ms);
  char detail[128];
  std::snprintf(detail, sizeof(detail),
                "session %s queue=%.1fms job=%.1fms", session.c_str(),
                queue_wait_ms, job_ms);
  trigger_dump_locked(s, queue_breach ? "slo_queue_wait" : "slo_job_duration",
                      detail);
}

int flight_dump_count() {
  return g_dumps.load(std::memory_order_relaxed);
}

std::string flight_last_dump_path() {
  FlightState& s = state();
  const util::MutexLock lock(s.mutex);
  return s.last_path;
}

}  // namespace sfn::obs
