#include "obs/exporter.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/config.hpp"
#include "util/json.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <vector>

namespace sfn::obs {

namespace {

void append_double(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out->append(buf);
}

void append_u64(std::string* out, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out->append(buf);
}

/// Split a composed registry name `base{key="value"}` into its base and
/// the raw label body (`key="value"`, no braces; empty when unlabeled).
void split_labels(const std::string& name, std::string* base,
                  std::string* labels) {
  const auto brace = name.find('{');
  if (brace == std::string::npos) {
    *base = name;
    labels->clear();
    return;
  }
  *base = name.substr(0, brace);
  const auto close = name.rfind('}');
  *labels = name.substr(brace + 1,
                        close == std::string::npos ? std::string::npos
                                                   : close - brace - 1);
}

/// Prometheus metric names allow [a-zA-Z0-9_:]; dotted registry names map
/// dots (and anything else) to underscores.
std::string prom_family(const std::string& base) {
  std::string out;
  out.reserve(base.size());
  for (const char c : base) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

/// `family` + optional base labels + optional extra label, e.g.
/// sample_name("serve_queue_wait", "mode=\"adaptive\"",
/// "quantile=\"0.5\"") → serve_queue_wait{mode="adaptive",quantile="0.5"}
std::string sample_name(const std::string& family, const std::string& labels,
                        const std::string& extra = std::string()) {
  std::string out = family;
  if (!labels.empty() || !extra.empty()) {
    out.push_back('{');
    out.append(labels);
    if (!labels.empty() && !extra.empty()) {
      out.push_back(',');
    }
    out.append(extra);
    out.push_back('}');
  }
  return out;
}

void append_json_string(std::string* out, const std::string& s) {
  out->push_back('"');
  util::append_json_escaped(out, s);
  out->push_back('"');
}

constexpr double kQuantiles[] = {0.5, 0.95, 0.99};
constexpr const char* kQuantileLabels[] = {"quantile=\"0.5\"",
                                           "quantile=\"0.95\"",
                                           "quantile=\"0.99\""};

bool send_all(int fd, const char* data, std::size_t len) {
  std::size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

void send_response(int fd, const char* status, const char* content_type,
                   const std::string& body) {
  std::string head = "HTTP/1.1 ";
  head.append(status);
  head.append("\r\nContent-Type: ");
  head.append(content_type);
  head.append("\r\nContent-Length: ");
  append_u64(&head, body.size());
  head.append("\r\nConnection: close\r\n\r\n");
  if (send_all(fd, head.data(), head.size())) {
    send_all(fd, body.data(), body.size());
  }
}

}  // namespace

std::string render_prometheus() {
  // Group samples by Prometheus family so each family gets exactly one
  // # HELP/# TYPE header even when several label sets share it.
  struct Family {
    std::string type;       // counter | gauge | summary.
    std::string help_name;  // Original dotted base name.
    std::string samples;
  };
  std::map<std::string, Family> families;

  for (const auto& m : all_metrics()) {
    std::string base;
    std::string labels;
    split_labels(m.name, &base, &labels);
    const std::string family = prom_family(base);
    auto [it, inserted] = families.emplace(family, Family{});
    Family& fam = it->second;
    if (inserted) {
      fam.help_name = base;
      fam.type = m.counter != nullptr ? "counter"
                 : m.gauge != nullptr ? "gauge"
                                      : "summary";
    }
    if (m.counter != nullptr) {
      fam.samples.append(sample_name(family, labels));
      fam.samples.push_back(' ');
      append_u64(&fam.samples, m.counter->value());
      fam.samples.push_back('\n');
    } else if (m.gauge != nullptr) {
      fam.samples.append(sample_name(family, labels));
      fam.samples.push_back(' ');
      append_double(&fam.samples, m.gauge->value());
      fam.samples.push_back('\n');
    } else if (m.histogram != nullptr) {
      const auto s = m.histogram->snapshot();
      for (int q = 0; q < 3; ++q) {
        fam.samples.append(sample_name(family, labels, kQuantileLabels[q]));
        fam.samples.push_back(' ');
        append_double(&fam.samples, s.quantile(kQuantiles[q]));
        fam.samples.push_back('\n');
      }
      fam.samples.append(sample_name(family + "_sum", labels));
      fam.samples.push_back(' ');
      append_double(&fam.samples, s.sum);
      fam.samples.push_back('\n');
      fam.samples.append(sample_name(family + "_count", labels));
      fam.samples.push_back(' ');
      append_u64(&fam.samples, s.count);
      fam.samples.push_back('\n');
    }
  }

  std::string out;
  for (const auto& [family, fam] : families) {
    out.append("# HELP ");
    out.append(family);
    out.append(" Registry instrument ");
    out.append(fam.help_name);
    out.push_back('\n');
    out.append("# TYPE ");
    out.append(family);
    out.push_back(' ');
    out.append(fam.type);
    out.push_back('\n');
    out.append(fam.samples);
  }
  return out;
}

std::string render_statz() {
  const util::BuildInfo info = util::build_info();
  std::string out = "{\"build\":{\"git_sha\":";
  append_json_string(&out, info.git_sha);
  out.append(",\"build_type\":");
  append_json_string(&out, info.build_type);
  out.append(",\"sanitize\":");
  append_json_string(&out, info.sanitize);
  out.append("},\"trace\":{\"mode\":");
  append_json_string(&out, to_string(trace_mode()));
  out.append(",\"dropped_events\":");
  append_u64(&out, dropped_events());
  out.append("},\"uptime_s\":");
  append_double(&out, detail::now_seconds());
  out.append(",\"metrics\":{");
  bool first = true;
  for (const auto& m : all_metrics()) {
    if (!first) {
      out.push_back(',');
    }
    first = false;
    append_json_string(&out, m.name);
    out.append(":{\"type\":");
    append_json_string(&out, m.type);
    if (m.counter != nullptr) {
      out.append(",\"value\":");
      append_u64(&out, m.counter->value());
    } else if (m.gauge != nullptr) {
      out.append(",\"value\":");
      append_double(&out, m.gauge->value());
    } else if (m.histogram != nullptr) {
      const auto s = m.histogram->snapshot();
      out.append(",\"count\":");
      append_u64(&out, s.count);
      out.append(",\"sum\":");
      append_double(&out, s.sum);
      out.append(",\"min\":");
      append_double(&out, s.min);
      out.append(",\"max\":");
      append_double(&out, s.max);
      out.append(",\"mean\":");
      append_double(&out, s.mean());
      out.append(",\"p50\":");
      append_double(&out, s.quantile(0.5));
      out.append(",\"p95\":");
      append_double(&out, s.quantile(0.95));
      out.append(",\"p99\":");
      append_double(&out, s.quantile(0.99));
    }
    out.push_back('}');
  }
  out.append("}}");
  return out;
}

MetricsExporter::~MetricsExporter() {
  stop();
}

bool MetricsExporter::start(int port) {
  if (running_.load(std::memory_order_acquire)) {
    return true;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return false;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // Loopback only.
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    ::close(fd);
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_.store(ntohs(bound.sin_port), std::memory_order_release);
  }
  listen_fd_ = fd;
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this, fd] { serve_loop(fd); });
  return true;
}

void MetricsExporter::stop() {
  if (!running_.load(std::memory_order_acquire)) {
    return;
  }
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) {
    thread_.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  running_.store(false, std::memory_order_release);
  port_.store(0, std::memory_order_release);
}

void MetricsExporter::serve_loop(int listen_fd) {
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{};
    pfd.fd = listen_fd;
    pfd.events = POLLIN;
    // 200 ms poll bounds both scrape latency-to-accept and stop() latency
    // without racing a close() against a blocked accept().
    const int ready = ::poll(&pfd, 1, 200);
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) {
      continue;
    }
    const int client = ::accept(listen_fd, nullptr, nullptr);
    if (client < 0) {
      continue;
    }
    timeval tv{};
    tv.tv_sec = 1;
    ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

    // Read until the end of the request head (we ignore bodies).
    std::string req;
    char buf[2048];
    while (req.size() < 16384 && req.find("\r\n\r\n") == std::string::npos) {
      const ssize_t n = ::recv(client, buf, sizeof(buf), 0);
      if (n <= 0) {
        break;
      }
      req.append(buf, static_cast<std::size_t>(n));
    }

    std::string method;
    std::string path;
    const auto line_end = req.find("\r\n");
    if (line_end != std::string::npos) {
      const std::string line = req.substr(0, line_end);
      const auto sp1 = line.find(' ');
      const auto sp2 = line.find(' ', sp1 + 1);
      if (sp1 != std::string::npos && sp2 != std::string::npos) {
        method = line.substr(0, sp1);
        path = line.substr(sp1 + 1, sp2 - sp1 - 1);
      }
    }
    const auto query = path.find('?');
    if (query != std::string::npos) {
      path.resize(query);
    }

    if (method != "GET") {
      send_response(client, "405 Method Not Allowed", "text/plain",
                    "method not allowed\n");
    } else if (path == "/metrics") {
      send_response(client, "200 OK",
                    "text/plain; version=0.0.4; charset=utf-8",
                    render_prometheus());
    } else if (path == "/healthz") {
      send_response(client, "200 OK", "text/plain", "ok\n");
    } else if (path == "/statz") {
      send_response(client, "200 OK", "application/json", render_statz());
    } else {
      send_response(client, "404 Not Found", "text/plain", "not found\n");
    }
    ::close(client);
  }
}

MetricsExporter& global_exporter() {
  static MetricsExporter* e = new MetricsExporter();  // Leaked by design.
  return *e;
}

int exporter_init_from_env() {
  static const int port = [] {
    const long long p = util::env_int("SFN_OBS_HTTP", -1);
    if (p < 0 || p > 65535) {
      return 0;
    }
    MetricsExporter& exporter = global_exporter();
    if (!exporter.start(static_cast<int>(p))) {
      return 0;
    }
    return exporter.port();
  }();
  return port;
}

}  // namespace sfn::obs
