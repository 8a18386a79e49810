// Flight-recorder tests: an injected guard-trip burst (every solve
// corrupted through SessionConfig::solver_decorator) must produce a
// bounded chrome-trace dump containing the breaching session's scopes,
// an SLO breach must trigger its own dump, and disarmed reporting must
// be a no-op. The dump is also validated end-to-end by
// tools/check_trace.py --allow-partial (windows cut across scopes still
// open at dump time, so full nesting cannot hold).

#include "core/session.hpp"
#include "fluid/pcg.hpp"
#include "obs/eventlog.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/fallback.hpp"
#include "serve_test_support.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <utility>

namespace sfn {
namespace {

/// Corrupts every solve to NaN: each guarded step trips, giving a dense,
/// deterministic burst (see tests/fault_injection_test.cpp for the
/// cadence-controlled variant).
class NanSolver final : public fluid::PoissonSolver {
 public:
  explicit NanSolver(std::unique_ptr<fluid::PoissonSolver> inner)
      : inner_(std::move(inner)) {}

  fluid::SolveStats solve(const fluid::FlagGrid& flags, const fluid::GridF& rhs,
                          fluid::GridF* pressure) override {
    auto stats = inner_->solve(flags, rhs, pressure);
    for (std::size_t k = 0; k < pressure->size(); ++k) {
      (*pressure)[k] = std::numeric_limits<float>::quiet_NaN();
    }
    return stats;
  }

  [[nodiscard]] std::string name() const override {
    return "nan(" + inner_->name() + ")";
  }

 private:
  std::unique_ptr<fluid::PoissonSolver> inner_;
};

std::set<std::string> dump_scope_names(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::set<std::string> names;
  for (const auto& event : obs::parse_chrome_trace(in)) {
    names.insert(event.name);
  }
  return names;
}

TEST(FlightRecorder, GuardTripBurstTriggersBoundedDump) {
  const std::string dir = ::testing::TempDir() + "sfn_flight_burst";
  std::filesystem::create_directories(dir);
  const std::string log = dir + "/events.jsonl";
  obs::eventlog_open(log);

  const int before = obs::flight_dump_count();
  const obs::TraceMode prior_mode = obs::trace_mode();
  obs::FlightConfig config;
  config.dir = dir;
  config.window_s = 30.0;  // No rotation inside the test window.
  config.trip_threshold = 3;
  config.trip_window_s = 60.0;
  config.max_dumps = before + 2;
  config.cooldown_s = 0.0;
  ASSERT_TRUE(obs::flight_arm(config));
  EXPECT_TRUE(obs::flight_armed());
  EXPECT_EQ(obs::trace_mode(), obs::TraceMode::kFull);

  // Two candidates, every guarded solve poisoned: 3 trips quarantine each
  // candidate, so the run delivers exactly two bursts of trip_threshold
  // trips before degrading to the unguarded exact solver.
  const auto artifacts = test::make_test_artifacts();
  const auto problem = test::make_test_problem(17, /*grid=*/16, /*steps=*/12);
  core::SessionConfig session;
  // Defaults, not env.
  session.controller = runtime::ControllerParams{};
  session.guard = runtime::GuardParams{};
  session.solver_decorator = [](std::size_t,
                                std::unique_ptr<fluid::PoissonSolver>) {
    return std::make_unique<NanSolver>(std::make_unique<fluid::PcgSolver>());
  };
  const auto result = core::run_adaptive(problem, artifacts, session);
  obs::flight_disarm();
  EXPECT_FALSE(obs::flight_armed());
  EXPECT_EQ(obs::trace_mode(), prior_mode);
  EXPECT_EQ(result.quarantined_models.size(), 2u);

  // One dump per burst, capped by max_dumps — never one per extra trip.
  EXPECT_EQ(obs::flight_dump_count(), before + 2);
  const std::string path = obs::flight_last_dump_path();
  ASSERT_FALSE(path.empty());
  ASSERT_TRUE(std::filesystem::exists(path));

  // The dump holds the breaching session's scopes.
  const auto names = dump_scope_names(path);
  EXPECT_TRUE(names.count("session.step") == 1) << path;
  EXPECT_TRUE(names.count("runtime.fallback") == 1) << path;

  // End-to-end: the dump passes the repo's trace validator in its
  // bounded-window mode.
  if (std::system("python3 --version > /dev/null 2>&1") == 0) {
    const std::string cmd = std::string("python3 \"") + SFN_TOOLS_DIR +
                            "/check_trace.py\" \"" + path +
                            "\" --allow-partial --expect session.step "
                            "--expect runtime.fallback";
    EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
  }

  // The event log recorded the arming, the trips and each dump.
  obs::eventlog_close();
  bool saw_armed = false;
  bool saw_trip = false;
  bool saw_dump = false;
  for (const auto& line : obs::eventlog_read_lines(log)) {
    saw_armed |= line.find("\"type\":\"flight_armed\"") != std::string::npos;
    saw_trip |= line.find("\"type\":\"guard_trip\"") != std::string::npos;
    saw_dump |= line.find("\"type\":\"flight_dump\"") != std::string::npos;
  }
  EXPECT_TRUE(saw_armed);
  EXPECT_TRUE(saw_trip);
  EXPECT_TRUE(saw_dump);
}

TEST(FlightRecorder, SloBreachTriggersDump) {
  const std::string dir = ::testing::TempDir() + "sfn_flight_slo";
  std::filesystem::create_directories(dir);

  const int before = obs::flight_dump_count();
  const obs::TraceMode prior_mode = obs::trace_mode();
  obs::FlightConfig config;
  config.dir = dir;
  config.window_s = 30.0;
  config.trip_threshold = 1 << 20;  // Guard-trip trigger out of the way.
  config.slo_job_ms = 10.0;
  config.max_dumps = before + 1;
  config.cooldown_s = 0.0;
  ASSERT_TRUE(obs::flight_arm(config));

  // Put a recognisable scope into the rings before the breach.
  { obs::TraceScope scope("obstest.slo_span"); }

  obs::flight_check_job_slo("job-ok", 1.0, 5.0);  // Under budget: no dump.
  EXPECT_EQ(obs::flight_dump_count(), before);
  obs::flight_check_job_slo("job-slow", 1.0, 50.0);  // Breach: dump.
  EXPECT_EQ(obs::flight_dump_count(), before + 1);
  const std::string path = obs::flight_last_dump_path();
  obs::flight_disarm();
  EXPECT_EQ(obs::trace_mode(), prior_mode);

  ASSERT_FALSE(path.empty());
  EXPECT_TRUE(dump_scope_names(path).count("obstest.slo_span") == 1) << path;
  EXPECT_GE(obs::counter("obs.slo_breaches").value(), 1u);
}

TEST(FlightRecorder, DisarmedReportsAreNoOps) {
  ASSERT_FALSE(obs::flight_armed());
  const int before = obs::flight_dump_count();
  for (int i = 0; i < 32; ++i) {
    obs::flight_report_guard_trip();
  }
  obs::flight_check_job_slo("job-x", 1e6, 1e6);
  EXPECT_EQ(obs::flight_dump_count(), before);
}

}  // namespace
}  // namespace sfn
