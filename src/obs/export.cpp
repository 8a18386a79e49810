#include "obs/export.hpp"

#include "util/json.hpp"
#include "util/table.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace sfn::obs {

namespace {

void write_event_line(std::ostream& out, const TraceEvent& ev, bool last) {
  // Scope names are compile-time literals (dotted identifiers), but escape
  // anyway so the writer can never emit broken JSON.
  std::string name;
  util::append_json_escaped(&name, ev.name);
  out << "{\"name\":\"" << name
      << "\",\"cat\":\"sfn\",\"ph\":\"X\",\"ts\":" << ev.begin_s * 1e6
      << ",\"dur\":" << ev.seconds() * 1e6
      << ",\"pid\":1,\"tid\":" << ev.thread_id << ",\"args\":{\"depth\":"
      << ev.depth;
  if (ev.has_arg) {
    out << ",\"id\":" << ev.arg;
  }
  out << "}}" << (last ? "" : ",") << "\n";
}

/// Minimal field extraction for the parser: find `"key":` and read the
/// value token after it. Good enough for the writer's own single-line
/// event objects; not a general JSON parser.
std::optional<std::string> raw_field(const std::string& line,
                                     const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) {
    return std::nullopt;
  }
  std::size_t start = pos + needle.size();
  while (start < line.size() && line[start] == ' ') {
    ++start;
  }
  if (start >= line.size()) {
    return std::nullopt;
  }
  if (line[start] == '"') {
    // Undo util::append_json_escaped.
    std::string out;
    for (std::size_t i = start + 1; i < line.size(); ++i) {
      if (line[i] == '\\' && i + 1 < line.size()) {
        switch (const char e = line[++i]) {
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u':
            out.push_back(static_cast<char>(
                std::strtol(line.substr(i + 1, 4).c_str(), nullptr, 16)));
            i += 4;
            break;
          default: out.push_back(e);
        }
      } else if (line[i] == '"') {
        return out;
      } else {
        out.push_back(line[i]);
      }
    }
    return std::nullopt;  // Unterminated string.
  }
  std::size_t end = start;
  while (end < line.size() &&
         std::strchr(",}] \t", line[end]) == nullptr) {
    ++end;
  }
  return line.substr(start, end - start);
}

}  // namespace

void write_chrome_trace(std::ostream& out,
                        const std::vector<TraceEvent>& events) {
  out << "[\n";
  for (std::size_t i = 0; i < events.size(); ++i) {
    write_event_line(out, events[i], i + 1 == events.size());
  }
  out << "]\n";
}

void write_chrome_trace(std::ostream& out) {
  write_chrome_trace(out, snapshot_events());
}

bool write_chrome_trace_file(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  write_chrome_trace(out);
  return static_cast<bool>(out);
}

std::vector<ParsedEvent> parse_chrome_trace(std::istream& in) {
  std::vector<ParsedEvent> out;
  std::string line;
  bool saw_open = false;
  bool saw_close = false;
  while (std::getline(in, line)) {
    // Trim whitespace and the trailing comma of the JSON-lines layout.
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) {
      continue;
    }
    auto last = line.find_last_not_of(" \t\r");
    std::string body = line.substr(first, last - first + 1);
    if (!body.empty() && body.back() == ',') {
      body.pop_back();
    }
    if (body == "[") {
      saw_open = true;
      continue;
    }
    if (body == "]") {
      saw_close = true;
      continue;
    }
    if (body.front() != '{' || body.back() != '}') {
      throw std::runtime_error("parse_chrome_trace: malformed line: " + body);
    }
    const auto ph = raw_field(body, "ph");
    if (!ph.has_value() || *ph != "X") {
      continue;  // Metadata/counter events are not scope samples.
    }
    ParsedEvent ev;
    const auto name = raw_field(body, "name");
    const auto ts = raw_field(body, "ts");
    const auto dur = raw_field(body, "dur");
    const auto tid = raw_field(body, "tid");
    if (!name.has_value() || !ts.has_value() || !dur.has_value() ||
        !tid.has_value()) {
      throw std::runtime_error("parse_chrome_trace: event missing field: " +
                               body);
    }
    ev.name = *name;
    ev.ts_us = std::stod(*ts);
    ev.dur_us = std::stod(*dur);
    ev.tid = std::stoi(*tid);
    if (const auto depth = raw_field(body, "depth"); depth.has_value()) {
      ev.depth = std::stoi(*depth);
    }
    if (const auto id = raw_field(body, "id"); id.has_value()) {
      ev.id = std::stoull(*id);
    }
    out.push_back(std::move(ev));
  }
  if (!saw_open || !saw_close) {
    throw std::runtime_error(
        "parse_chrome_trace: missing enclosing JSON array");
  }
  return out;
}

util::Table phase_summary_table() {
  const auto stats = aggregate_scope_stats();
  // Top-level wall time for the Share column: approximate with the largest
  // single phase total (sessions/benches wrap everything in one root
  // scope, whose total is exactly the run's wall time).
  double root_total = 0.0;
  for (const auto& s : stats) {
    root_total = std::max(root_total, s.total_s);
  }
  util::Table table({"Phase", "Count", "Total s", "Mean ms", "Min ms",
                     "Max ms", "Share"});
  for (const auto& s : stats) {
    const double mean_ms =
        s.count > 0 ? s.total_s * 1e3 / static_cast<double>(s.count) : 0.0;
    table.add_row({s.name, std::to_string(s.count), util::fmt(s.total_s, 4),
                   util::fmt(mean_ms, 3), util::fmt(s.min_s * 1e3, 3),
                   util::fmt(s.max_s * 1e3, 3),
                   root_total > 0.0 ? util::fmt_pct(s.total_s / root_total, 1)
                                    : "-"});
  }
  return table;
}

util::Table model_time_table(const std::vector<TraceEvent>& events) {
  struct PerModel {
    std::uint64_t steps = 0;
    double seconds = 0.0;
  };
  std::map<std::uint64_t, PerModel> per_model;
  double total = 0.0;
  for (const auto& ev : events) {
    if (ev.has_arg && std::strcmp(ev.name, "session.step") == 0) {
      auto& slot = per_model[ev.arg];
      ++slot.steps;
      slot.seconds += ev.seconds();
      total += ev.seconds();
    }
  }
  util::Table table({"Model", "Steps", "Seconds", "Share"});
  for (const auto& [id, slot] : per_model) {
    table.add_row({"model " + std::to_string(id), std::to_string(slot.steps),
                   util::fmt(slot.seconds, 4),
                   total > 0.0 ? util::fmt_pct(slot.seconds / total, 1)
                               : "-"});
  }
  return table;
}

}  // namespace sfn::obs
