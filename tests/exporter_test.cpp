// Metrics exposition tests: render_prometheus() is validated with a
// small in-test parser of the Prometheus text format, and the HTTP
// endpoint is scraped over a real loopback socket (start(0) picks an
// ephemeral port). The scrape-under-load case runs writers concurrently
// with scrapes so the TSan leg covers the snapshot-vs-observe races.

#include "obs/exporter.hpp"
#include "obs/metrics.hpp"
#include "runtime/fallback.hpp"
#include "serve/session_server.hpp"
#include "serve_test_support.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace sfn {
namespace {

// --- Tiny HTTP client over a blocking loopback socket ---------------------

struct HttpResponse {
  int status = 0;
  std::string headers;
  std::string body;
};

HttpResponse http_request(int port, const std::string& request) {
  HttpResponse response;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    ADD_FAILURE() << "socket() failed";
    return response;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    ADD_FAILURE() << "connect() to 127.0.0.1:" << port << " failed";
    return response;
  }
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      break;
    }
    sent += static_cast<std::size_t>(n);
  }
  // The server responds Connection: close, so read to EOF.
  std::string raw;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);

  const auto head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    ADD_FAILURE() << "malformed HTTP response: " << raw;
    return response;
  }
  response.headers = raw.substr(0, head_end);
  response.body = raw.substr(head_end + 4);
  std::sscanf(raw.c_str(), "HTTP/1.1 %d", &response.status);
  return response;
}

HttpResponse http_get(int port, const std::string& path) {
  return http_request(port, "GET " + path +
                                " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                                "Connection: close\r\n\r\n");
}

// --- Minimal Prometheus text-format parser --------------------------------

struct PromDoc {
  std::map<std::string, std::string> types;  ///< family -> counter|gauge|...
  std::map<std::string, double> samples;     ///< full sample name -> value
};

bool valid_family_chars(const std::string& name) {
  if (name.empty()) {
    return false;
  }
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) {
      return false;
    }
  }
  return true;
}

/// Strict line-by-line parse; every violation is a test failure.
PromDoc parse_prometheus(const std::string& text) {
  PromDoc doc;
  std::set<std::string> helped;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) {
      continue;
    }
    if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
      std::istringstream fields(line.substr(2));
      std::string keyword;
      std::string family;
      std::string rest;
      fields >> keyword >> family >> rest;
      EXPECT_TRUE(valid_family_chars(family)) << "line " << lineno;
      EXPECT_FALSE(rest.empty()) << "line " << lineno << ": bare " << keyword;
      if (keyword == "HELP") {
        EXPECT_TRUE(helped.insert(family).second)
            << "line " << lineno << ": duplicate HELP for " << family;
      } else {
        EXPECT_TRUE(rest == "counter" || rest == "gauge" ||
                    rest == "summary" || rest == "histogram" ||
                    rest == "untyped")
            << "line " << lineno << ": bad type " << rest;
        EXPECT_EQ(doc.types.count(family), 0u)
            << "line " << lineno << ": duplicate TYPE for " << family;
        doc.types[family] = rest;
      }
      continue;
    }
    if (line[0] == '#') {
      ADD_FAILURE() << "line " << lineno << ": unknown comment: " << line;
      continue;
    }
    const auto space = line.rfind(' ');
    if (space == std::string::npos || space == 0) {
      ADD_FAILURE() << "line " << lineno << ": not a sample: " << line;
      continue;
    }
    const std::string name = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    const auto brace = name.find('{');
    std::string base = name.substr(0, brace);
    EXPECT_TRUE(valid_family_chars(base)) << "line " << lineno << ": " << name;
    if (brace != std::string::npos) {
      EXPECT_EQ(name.back(), '}') << "line " << lineno << ": " << name;
    }
    // Every sample belongs to a declared family (directly or via a
    // summary's _sum/_count suffix).
    bool typed = doc.types.count(base) > 0;
    for (const char* suffix : {"_sum", "_count"}) {
      const std::string s = suffix;
      if (!typed && base.size() > s.size() &&
          base.compare(base.size() - s.size(), s.size(), s) == 0) {
        typed = doc.types.count(base.substr(0, base.size() - s.size())) > 0;
      }
    }
    EXPECT_TRUE(typed) << "line " << lineno << ": sample " << name
                       << " has no # TYPE header";
    char* end = nullptr;
    const double parsed = std::strtod(value.c_str(), &end);
    EXPECT_TRUE(end != value.c_str() && *end == '\0')
        << "line " << lineno << ": bad value " << value;
    doc.samples[name] = parsed;
  }
  return doc;
}

/// Trip the health guard once through the real FallbackPolicy wiring so
/// runtime.fallbacks / runtime.fallback_latency exist in the registry.
void trip_guard_once() {
  fluid::FlagGrid flags(16, 16, fluid::CellType::kFluid);
  flags.set_smoke_box_boundary();
  fluid::GridF rhs(16, 16, 0.0f);
  rhs(8, 8) = 1.0f;
  fluid::GridF pressure(16, 16, std::numeric_limits<float>::quiet_NaN());
  runtime::FallbackPolicy policy{runtime::GuardParams{}};
  const auto outcome = policy.inspect(flags, rhs, &pressure, {});
  ASSERT_TRUE(outcome.fallback);
}

/// One tiny fixed job through the SessionServer so serve.queue_wait /
/// serve.job_duration{mode="fixed"} are observed by the real wiring.
void run_one_fixed_job() {
  const auto model = test::make_test_model(7, "exporter-model", 0,
                                           /*mean_quality=*/0.02,
                                           /*mean_seconds=*/0.01);
  const auto problem = test::make_test_problem(5, /*grid=*/16, /*steps=*/4);
  serve::ServerConfig config;
  config.session_threads = 2;
  serve::SessionServer server(config);
  server.wait(server.submit_fixed(problem, model));
}

TEST(PrometheusRender, ServeAndRuntimeInstrumentsExport) {
  obs::reset_metrics();
  trip_guard_once();
  run_one_fixed_job();

  const PromDoc doc = parse_prometheus(obs::render_prometheus());

  // The serving tier's SLO histogram renders as a summary with the three
  // fixed quantiles plus _sum/_count.
  ASSERT_EQ(doc.types.count("serve_queue_wait"), 1u);
  EXPECT_EQ(doc.types.at("serve_queue_wait"), "summary");
  for (const char* q : {"0.5", "0.95", "0.99"}) {
    EXPECT_EQ(doc.samples.count("serve_queue_wait{quantile=\"" +
                                std::string(q) + "\"}"),
              1u)
        << "missing quantile " << q;
  }
  ASSERT_EQ(doc.samples.count("serve_queue_wait_count"), 1u);
  EXPECT_GE(doc.samples.at("serve_queue_wait_count"), 1.0);
  EXPECT_EQ(doc.samples.count("serve_queue_wait_sum"), 1u);

  // Composed base{key="value"} registry names come back as real labels
  // merged with the quantile label.
  EXPECT_EQ(doc.samples.count(
                "serve_job_duration{mode=\"fixed\",quantile=\"0.5\"}"),
            1u);
  EXPECT_EQ(doc.samples.count("serve_job_duration_count{mode=\"fixed\"}"),
            1u);

  // The runtime guard's trip counter.
  ASSERT_EQ(doc.types.count("runtime_fallbacks"), 1u);
  EXPECT_EQ(doc.types.at("runtime_fallbacks"), "counter");
  ASSERT_EQ(doc.samples.count("runtime_fallbacks"), 1u);
  EXPECT_GE(doc.samples.at("runtime_fallbacks"), 1.0);
}

TEST(MetricsExporter, ScrapeOverRealSocket) {
  obs::histogram("serve.queue_wait").observe(0.0015);
  // Register the family at least.
  static_cast<void>(obs::counter("runtime.fallbacks"));

  obs::MetricsExporter exporter;
  ASSERT_TRUE(exporter.start(0));
  ASSERT_GT(exporter.port(), 0);

  const HttpResponse response = http_get(exporter.port(), "/metrics");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.headers.find("text/plain; version=0.0.4"),
            std::string::npos)
      << response.headers;
  const PromDoc doc = parse_prometheus(response.body);
  EXPECT_EQ(doc.samples.count("serve_queue_wait{quantile=\"0.95\"}"), 1u);
  EXPECT_EQ(doc.samples.count("runtime_fallbacks"), 1u);

  exporter.stop();
  EXPECT_FALSE(exporter.running());
}

TEST(MetricsExporter, HealthzStatzAndErrorRoutes) {
  obs::MetricsExporter exporter;
  ASSERT_TRUE(exporter.start(0));
  const int port = exporter.port();

  const HttpResponse healthz = http_get(port, "/healthz");
  EXPECT_EQ(healthz.status, 200);
  EXPECT_EQ(healthz.body, "ok\n");

  const HttpResponse statz = http_get(port, "/statz");
  EXPECT_EQ(statz.status, 200);
  EXPECT_NE(statz.headers.find("application/json"), std::string::npos);
  ASSERT_FALSE(statz.body.empty());
  EXPECT_EQ(statz.body.front(), '{');
  EXPECT_EQ(statz.body.back(), '}');
  EXPECT_NE(statz.body.find("\"git_sha\""), std::string::npos);
  EXPECT_NE(statz.body.find("\"uptime_s\""), std::string::npos);
  EXPECT_NE(statz.body.find("\"metrics\""), std::string::npos);

  EXPECT_EQ(http_get(port, "/nope").status, 404);
  EXPECT_EQ(http_request(port,
                         "POST /metrics HTTP/1.1\r\nHost: x\r\n"
                         "Content-Length: 0\r\n\r\n")
                .status,
            405);

  // Query strings route like their bare path.
  EXPECT_EQ(http_get(port, "/healthz?verbose=1").status, 200);
  exporter.stop();
}

TEST(MetricsExporter, StartStopLifecycle) {
  obs::MetricsExporter exporter;
  ASSERT_TRUE(exporter.start(0));
  const int port = exporter.port();
  EXPECT_GT(port, 0);
  // start() on a running exporter is a no-op keeping the bound port.
  EXPECT_TRUE(exporter.start(0));
  EXPECT_EQ(exporter.port(), port);

  // A second exporter coexists on its own ephemeral port.
  obs::MetricsExporter second;
  ASSERT_TRUE(second.start(0));
  EXPECT_NE(second.port(), port);
  EXPECT_EQ(http_get(second.port(), "/healthz").status, 200);
  second.stop();
  EXPECT_FALSE(second.running());
  EXPECT_EQ(second.port(), 0);

  EXPECT_EQ(http_get(port, "/healthz").status, 200);
  exporter.stop();
  exporter.stop();  // Idempotent.
  EXPECT_FALSE(exporter.running());
}

TEST(MetricsExporter, ConcurrentScrapeUnderLoad) {
  obs::MetricsExporter exporter;
  ASSERT_TRUE(exporter.start(0));
  const int port = exporter.port();

  // Register on the main thread so even the first scrape sees the
  // families; the writers then only do atomic updates.
  obs::Histogram& hist = obs::histogram("obstest.scrape_load");
  obs::Counter& hits = obs::counter("obstest.scrape_hits");

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&stop, &hist, &hits] {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        hist.observe(1e-6 * static_cast<double>(i % 1024 + 1));
        hits.add();
        ++i;
      }
    });
  }
  for (int scrape = 0; scrape < 8; ++scrape) {
    const HttpResponse response = http_get(port, "/metrics");
    EXPECT_EQ(response.status, 200);
    const PromDoc doc = parse_prometheus(response.body);
    EXPECT_EQ(doc.samples.count("obstest_scrape_load{quantile=\"0.99\"}"),
              1u);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : writers) {
    w.join();
  }
  exporter.stop();
}

}  // namespace
}  // namespace sfn
