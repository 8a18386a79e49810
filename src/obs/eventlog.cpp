#include "obs/eventlog.hpp"

#include "obs/trace.hpp"
#include "util/annotations.hpp"
#include "util/config.hpp"
#include "util/json.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>

namespace sfn::obs {

namespace {

/// Sink state. One mutex covers open/close/rotate/append; the hot
/// disabled path never touches it (g_active relaxed load only).
struct EventLogState {
  util::Mutex mutex;
  std::ofstream out SFN_GUARDED_BY(mutex);
  std::string path SFN_GUARDED_BY(mutex);
  std::uint64_t written SFN_GUARDED_BY(mutex) = 0;
  std::uint64_t max_bytes SFN_GUARDED_BY(mutex) = 0;  // 0 = unbounded.
  bool rotated SFN_GUARDED_BY(mutex) = false;
};

std::atomic<bool> g_active{false};
std::atomic<bool> g_env_checked{false};

EventLogState& state() {
  static EventLogState* s = new EventLogState();  // Leaked by design.
  return *s;
}

std::string meta_line() {
  const util::BuildInfo info = util::build_info();
  std::string line = "{\"type\":\"meta\",\"ts\":";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", detail::now_seconds());
  line.append(buf);
  line.append(",\"git_sha\":\"");
  util::append_json_escaped(&line, info.git_sha);
  line.append("\",\"build_type\":\"");
  util::append_json_escaped(&line, info.build_type);
  line.append("\",\"sanitize\":\"");
  util::append_json_escaped(&line, info.sanitize);
  line.append("\",\"check_numerics\":\"");
  util::append_json_escaped(&line, info.check_numerics);
  line.append("\"}\n");
  return line;
}

void open_locked(EventLogState& s, const std::string& path,
                 std::uint64_t max_bytes) SFN_REQUIRES(s.mutex) {
  if (s.out.is_open()) {
    s.out.close();
  }
  s.out.open(path, std::ios::out | std::ios::trunc);
  s.path = path;
  s.max_bytes = max_bytes;
  s.rotated = false;
  const std::string meta = meta_line();
  s.out << meta;
  s.written = meta.size();
  g_active.store(s.out.good(), std::memory_order_relaxed);
}

/// Append one already-terminated line, rotating first when it would push
/// the file past max_bytes. Rotation renames <path> to <path>.1 (one
/// generation — post-mortems want the recent window, not an archive) and
/// starts a fresh file with a new meta line.
void append_line(const std::string& line) {
  EventLogState& s = state();
  const util::MutexLock lock(s.mutex);
  if (!s.out.is_open()) {
    return;
  }
  if (s.max_bytes > 0 && s.written + line.size() > s.max_bytes &&
      s.written > 0) {
    s.out.close();
    const std::string backup = s.path + ".1";
    std::remove(backup.c_str());
    std::rename(s.path.c_str(), backup.c_str());
    s.out.open(s.path, std::ios::out | std::ios::trunc);
    const std::string meta = meta_line();
    s.out << meta;
    s.written = meta.size();
    s.rotated = true;
    if (!s.out.good()) {
      g_active.store(false, std::memory_order_relaxed);
      return;
    }
  }
  s.out << line;
  s.out.flush();  // Post-mortem logs must survive a crash; flush per line.
  s.written += line.size();
}

}  // namespace

bool eventlog_enabled() {
  return g_active.load(std::memory_order_relaxed);
}

void eventlog_open(const std::string& path, double max_mb) {
  EventLogState& s = state();
  const util::MutexLock lock(s.mutex);
  const auto max_bytes =
      max_mb > 0.0 ? static_cast<std::uint64_t>(max_mb * 1024.0 * 1024.0)
                   : std::uint64_t{0};
  open_locked(s, path, max_bytes);
}

void eventlog_close() {
  EventLogState& s = state();
  const util::MutexLock lock(s.mutex);
  g_active.store(false, std::memory_order_relaxed);
  if (s.out.is_open()) {
    s.out.flush();
    s.out.close();
  }
}

bool eventlog_init_from_env() {
  bool expected = false;
  if (g_env_checked.compare_exchange_strong(expected, true,
                                            std::memory_order_relaxed)) {
    const std::string path = util::env_str("SFN_EVENTLOG", "");
    if (!path.empty()) {
      const double max_mb = util::env_double("SFN_EVENTLOG_MAX_MB", 64.0);
      eventlog_open(path, max_mb);
    }
  }
  return eventlog_enabled();
}

Event::Event(std::string_view type) {
  if (!eventlog_enabled()) {
    return;
  }
  active_ = true;
  line_ = "{\"type\":\"";
  util::append_json_escaped(&line_, type);
  line_.append("\",\"ts\":");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", detail::now_seconds());
  line_.append(buf);
}

Event::~Event() {
  emit();
}

Event& Event::field(std::string_view key, std::string_view value) {
  if (active_) {
    line_.append(",\"");
    util::append_json_escaped(&line_, key);
    line_.append("\":\"");
    util::append_json_escaped(&line_, value);
    line_.push_back('"');
  }
  return *this;
}

Event& Event::field(std::string_view key, double value) {
  if (active_) {
    line_.append(",\"");
    util::append_json_escaped(&line_, key);
    line_.append("\":");
    if (std::isfinite(value)) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.9g", value);
      line_.append(buf);
    } else {
      // NaN/inf (corrupted residuals under fault injection) are not
      // valid JSON numbers; null keeps every line machine-parseable.
      line_.append("null");
    }
  }
  return *this;
}

Event& Event::field(std::string_view key, bool value) {
  if (active_) {
    line_.append(",\"");
    util::append_json_escaped(&line_, key);
    line_.append("\":");
    line_.append(value ? "true" : "false");
  }
  return *this;
}

Event& Event::field_int(std::string_view key, std::int64_t value) {
  if (active_) {
    line_.append(",\"");
    util::append_json_escaped(&line_, key);
    line_.append("\":");
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
    line_.append(buf);
  }
  return *this;
}

void Event::emit() {
  if (!active_) {
    return;
  }
  active_ = false;
  line_.append("}\n");
  append_line(line_);
  line_.clear();
}

std::vector<std::string> eventlog_read_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      lines.push_back(line);
    }
  }
  return lines;
}

}  // namespace sfn::obs
