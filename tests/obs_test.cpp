// Tests for the runtime telemetry subsystem (src/obs): scoped tracing,
// the metrics registry, chrome-trace export/parse round-trips, and the
// guarantees the instrumentation relies on — a zero-allocation disabled
// path and thread-safe counters.

#include "core/session.hpp"
#include "modelgen/arch_spec.hpp"
#include "nn/conv2d.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "workload/problems.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <numeric>
#include <sstream>
#include <thread>
#include <vector>

// ---------------------------------------------------------------------------
// Global allocation counter (same idiom as conv_algo_test): only counts
// while armed, so gtest bookkeeping between tests does not pollute the
// disabled-path assertions.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n ? n : 1)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t n) { return ::operator new(n); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
// ---------------------------------------------------------------------------

namespace {

using namespace sfn;

/// Every test leaves the global trace state the way it found it (off,
/// empty buffers) so tests cannot order-couple through the singletons.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_trace_mode(obs::TraceMode::kOff);
    obs::reset_thread_buffers();
    obs::set_metrics_enabled(true);
  }
  void TearDown() override {
    obs::set_trace_mode(obs::TraceMode::kOff);
    obs::reset_thread_buffers();
    obs::set_metrics_enabled(true);
  }
};

void spin_for(double seconds) {
  const auto until = obs::detail::now_seconds() + seconds;
  while (obs::detail::now_seconds() < until) {
  }
}

TEST_F(ObsTest, ScopesRecordEventsInFullMode) {
  obs::set_trace_mode(obs::TraceMode::kFull);
  {
    SFN_TRACE_SCOPE("obstest.outer");
    spin_for(1e-4);
    {
      SFN_TRACE_SCOPE("obstest.inner");
      spin_for(1e-4);
    }
  }
  const auto events = obs::snapshot_events();
  ASSERT_EQ(events.size(), 2u);
  // Snapshot is ordered by begin time: outer opened first.
  EXPECT_STREQ(events[0].name, "obstest.outer");
  EXPECT_STREQ(events[1].name, "obstest.inner");
  EXPECT_EQ(events[0].depth, 0);
  EXPECT_EQ(events[1].depth, 1);
  EXPECT_GE(events[0].seconds(), events[1].seconds());
  // Inner nests inside outer on the timeline.
  EXPECT_GE(events[1].begin_s, events[0].begin_s);
  EXPECT_LE(events[1].end_s, events[0].end_s);
}

TEST_F(ObsTest, SummaryModeAggregatesWithoutEvents) {
  obs::set_trace_mode(obs::TraceMode::kSummary);
  for (int i = 0; i < 5; ++i) {
    SFN_TRACE_SCOPE("obstest.summary_scope");
    spin_for(1e-5);
  }
  EXPECT_TRUE(obs::snapshot_events().empty());
  const auto stats = obs::aggregate_scope_stats();
  const auto it = std::find_if(
      stats.begin(), stats.end(),
      [](const obs::ScopeStats& s) { return s.name == "obstest.summary_scope"; });
  ASSERT_NE(it, stats.end());
  EXPECT_EQ(it->count, 5u);
  EXPECT_GT(it->total_s, 0.0);
  EXPECT_LE(it->min_s, it->max_s);
  EXPECT_LE(it->max_s, it->total_s);
}

TEST_F(ObsTest, ChromeTraceRoundTripReconstructsPhaseTree) {
  obs::set_trace_mode(obs::TraceMode::kFull);
  {
    SFN_TRACE_SCOPE("obstest.root");
    spin_for(1e-4);
    {
      SFN_TRACE_SCOPE("obstest.child_a");
      spin_for(1e-4);
    }
    {
      SFN_TRACE_SCOPE_ID("obstest.child_b", 7);
      spin_for(1e-4);
    }
  }

  std::stringstream buf;
  obs::write_chrome_trace(buf);
  const auto parsed = obs::parse_chrome_trace(buf);
  ASSERT_EQ(parsed.size(), 3u);

  // Reconstruct the tree: a parsed event's parent is the deepest event
  // whose [ts, ts+dur] interval contains it on the same thread.
  auto find = [&](const std::string& name) {
    for (const auto& ev : parsed) {
      if (ev.name == name) return ev;
    }
    ADD_FAILURE() << "missing event " << name;
    return obs::ParsedEvent{};
  };
  const auto root = find("obstest.root");
  const auto child_a = find("obstest.child_a");
  const auto child_b = find("obstest.child_b");

  EXPECT_EQ(root.depth, 0);
  EXPECT_EQ(child_a.depth, 1);
  EXPECT_EQ(child_b.depth, 1);
  for (const auto& child : {child_a, child_b}) {
    EXPECT_EQ(child.tid, root.tid);
    EXPECT_GE(child.ts_us, root.ts_us);
    EXPECT_LE(child.ts_us + child.dur_us, root.ts_us + root.dur_us + 1.0);
  }
  // Siblings do not overlap.
  EXPECT_TRUE(child_a.ts_us + child_a.dur_us <= child_b.ts_us ||
              child_b.ts_us + child_b.dur_us <= child_a.ts_us);
  // The attribution id survives the round trip; plain scopes carry none.
  ASSERT_TRUE(child_b.id.has_value());
  EXPECT_EQ(*child_b.id, 7u);
  EXPECT_FALSE(child_a.id.has_value());
  EXPECT_FALSE(root.id.has_value());
}

TEST_F(ObsTest, ChromeTraceRoundTripsEscapedNames) {
  // Quotes, backslashes and control bytes are escaped on one line, and the
  // parser restores every byte, UTF-8 included.
  const char* name = "a \"q\" \\ b\nc\rd\te\x01" "f caf\xc3\xa9";
  obs::TraceEvent ev;
  ev.name = name;
  ev.begin_s = 1.0;
  ev.end_s = 1.5;
  std::stringstream buf;
  obs::write_chrome_trace(buf, {ev});
  const auto parsed = obs::parse_chrome_trace(buf);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].name, name);
}

TEST_F(ObsTest, ParserRejectsStructurallyBrokenInput) {
  std::stringstream buf("not a trace at all\n");
  EXPECT_THROW(obs::parse_chrome_trace(buf), std::runtime_error);
}

TEST_F(ObsTest, DisabledPathDoesNotAllocate) {
  obs::set_trace_mode(obs::TraceMode::kOff);
  // Warm up: first lookup of a metric name registers it (allocates once);
  // steady-state call sites hold cached references, mirrored here.
  obs::Counter& counter = obs::counter("obstest.disabled_counter");
  obs::Histogram& hist = obs::histogram("obstest.disabled_hist");
  {
    SFN_TRACE_SCOPE("obstest.disabled_scope");
  }

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  for (int i = 0; i < 1000; ++i) {
    SFN_TRACE_SCOPE("obstest.disabled_scope");
    counter.add();
    hist.observe(1.5);
  }
  g_count_allocs.store(false);
  EXPECT_EQ(0u, g_alloc_count.load())
      << "SFN_TRACE=off instrumentation must stay off the heap";
  EXPECT_TRUE(obs::snapshot_events().empty());
}

TEST_F(ObsTest, EnabledScopesDoNotAllocateEither) {
  obs::set_trace_mode(obs::TraceMode::kFull);
  {
    SFN_TRACE_SCOPE("obstest.enabled_scope");  // Warm up thread buffer.
  }
  g_alloc_count.store(0);
  g_count_allocs.store(true);
  for (int i = 0; i < 100; ++i) {
    SFN_TRACE_SCOPE("obstest.enabled_scope");
  }
  g_count_allocs.store(false);
  EXPECT_EQ(0u, g_alloc_count.load())
      << "recording into preallocated ring buffers must not allocate";
}

TEST_F(ObsTest, CountersAreConsistentAcrossThreads) {
  obs::Counter& counter = obs::counter("obstest.mt_counter");
  obs::Histogram& hist = obs::histogram("obstest.mt_hist");
  counter.reset();
  hist.reset();

  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, &hist, t] {
      // Every thread also traces, so the per-thread buffer registration
      // and aggregate updates run concurrently under TSan.
      for (int i = 0; i < kPerThread; ++i) {
        SFN_TRACE_SCOPE("obstest.mt_scope");
        counter.add();
        hist.observe(static_cast<double>(t + 1));
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }

  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  const auto snap = hist.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, static_cast<double>(kThreads));
  // Sum of t+1 over threads, kPerThread times each.
  const double expected_sum =
      kPerThread * (kThreads * (kThreads + 1)) / 2.0;
  EXPECT_DOUBLE_EQ(snap.sum, expected_sum);
}

TEST_F(ObsTest, DisabledMetricsDropUpdates) {
  obs::Counter& counter = obs::counter("obstest.gated_counter");
  counter.reset();
  obs::set_metrics_enabled(false);
  counter.add(5);
  EXPECT_EQ(counter.value(), 0u);
  obs::set_metrics_enabled(true);
  counter.add(5);
  EXPECT_EQ(counter.value(), 5u);
}

TEST_F(ObsTest, HistogramQuantilesAreMonotone) {
  obs::Histogram& hist = obs::histogram("obstest.quantile_hist");
  hist.reset();
  for (int i = 1; i <= 1024; ++i) {
    hist.observe(static_cast<double>(i));
  }
  const double p50 = hist.approx_quantile(0.5);
  const double p90 = hist.approx_quantile(0.9);
  const double p99 = hist.approx_quantile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  // Bin edges are powers of two; the medians land within a factor of two.
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p99, 2048.0);
}

TEST_F(ObsTest, MetricsTableListsRegisteredInstruments) {
  obs::counter("obstest.table_counter").add(3);
  obs::gauge("obstest.table_gauge").set(1.25);
  const auto table = obs::metrics_table();
  EXPECT_GE(table.rows(), 2u);
  const auto metrics = obs::all_metrics();
  EXPECT_TRUE(std::is_sorted(metrics.begin(), metrics.end(),
                             [](const obs::MetricValue& a,
                                const obs::MetricValue& b) {
                               return a.name < b.name;
                             }));
}

TEST_F(ObsTest, TraceCaptureReceivesEventsWithTracingOff) {
  obs::set_trace_mode(obs::TraceMode::kOff);
  obs::TraceCapture capture;
  {
    SFN_TRACE_SCOPE("obstest.captured");
    spin_for(1e-5);
  }
  // Captured on this thread even though the global mode is off...
  ASSERT_EQ(capture.events().size(), 1u);
  EXPECT_STREQ(capture.events()[0].name, "obstest.captured");
  EXPECT_GT(capture.events()[0].seconds(), 0.0);
  // ...and nothing reached the global buffers.
  EXPECT_TRUE(obs::snapshot_events().empty());
}

TEST_F(ObsTest, TraceCapturesNest) {
  obs::TraceCapture outer;
  {
    SFN_TRACE_SCOPE("obstest.outer_capture");
    {
      obs::TraceCapture inner;
      { SFN_TRACE_SCOPE("obstest.inner_capture"); }
      ASSERT_EQ(inner.events().size(), 1u);
      EXPECT_STREQ(inner.events()[0].name, "obstest.inner_capture");
    }
  }
  // The outer capture saw only the scope that closed while it was the
  // innermost capture.
  ASSERT_EQ(outer.events().size(), 1u);
  EXPECT_STREQ(outer.events()[0].name, "obstest.outer_capture");
}

TEST_F(ObsTest, FullBuffersDropNewestAndCount) {
  obs::set_trace_mode(obs::TraceMode::kFull);
  obs::set_trace_buffer_capacity(16);
  // A fresh thread picks up the reduced capacity (the capacity is fixed
  // at thread-buffer creation).
  std::thread worker([] {
    for (int i = 0; i < 64; ++i) {
      SFN_TRACE_SCOPE("obstest.drop_scope");
    }
  });
  worker.join();
  EXPECT_GE(obs::dropped_events(), 48u);
  const auto stats = obs::aggregate_scope_stats();
  const auto it = std::find_if(
      stats.begin(), stats.end(),
      [](const obs::ScopeStats& s) { return s.name == "obstest.drop_scope"; });
  ASSERT_NE(it, stats.end());
  // Aggregates keep counting even after the event buffer fills.
  EXPECT_EQ(it->count, 64u);
  obs::set_trace_buffer_capacity(16384);
}

TEST_F(ObsTest, RunFixedDerivesTimingFromTelemetryStream) {
  // Hand-built single-conv surrogate: accuracy is irrelevant, the test
  // checks that SessionResult timing is reconstructed from the trace.
  core::TrainedModel model;
  model.spec.name = "obs-test-conv";
  model.records.model_id = 42;
  auto conv = std::make_unique<nn::Conv2D>(2, 1, 3, /*residual=*/false);
  util::Rng rng(7);
  conv->init_weights(rng);
  model.net.add(std::move(conv));

  workload::ProblemSetParams params;
  params.grid = 48;
  params.steps = 12;
  const auto problems = workload::generate_problems(1, params, 4242);
  const auto result = core::run_fixed(problems[0], model);

  ASSERT_EQ(result.model_per_step.size(), 12u);
  for (const std::size_t id : result.model_per_step) {
    EXPECT_EQ(id, 42u);
  }
  ASSERT_EQ(result.seconds_per_model.size(), 1u);
  const double attributed = result.seconds_per_model.at(42);
  EXPECT_GT(result.seconds, 0.0);
  EXPECT_GT(attributed, 0.0);
  // Steps happen inside the session scope, so attributed time is bounded
  // by the total and covers most of it (the remainder is sim setup).
  EXPECT_LE(attributed, result.seconds);
  EXPECT_GE(attributed, 0.5 * result.seconds);
}

TEST_F(ObsTest, ModelTimeTableMatchesSessionAttribution) {
  obs::TraceCapture capture;
  {
    obs::TraceScope session("session.fixed");
    {
      obs::TraceScope step("session.step", std::uint64_t{3});
      spin_for(1e-4);
    }
    {
      obs::TraceScope step("session.step", std::uint64_t{3});
      spin_for(1e-4);
    }
    {
      obs::TraceScope step("session.step", std::uint64_t{9});
      spin_for(1e-4);
    }
  }
  const auto table = obs::model_time_table(capture.events());
  // Two models -> two rows (Model | Steps | Seconds | Share).
  EXPECT_EQ(table.rows(), 2u);
}

TEST_F(ObsTest, PhaseSummaryTableCoversRecordedScopes) {
  obs::set_trace_mode(obs::TraceMode::kSummary);
  {
    SFN_TRACE_SCOPE("obstest.phase_root");
    spin_for(1e-4);
    SFN_TRACE_SCOPE("obstest.phase_leaf");
    spin_for(1e-4);
  }
  const auto table = obs::phase_summary_table();
  EXPECT_GE(table.rows(), 2u);
}

}  // namespace
