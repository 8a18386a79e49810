#include "util/config.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>

namespace sfn {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  util::Rng a(123);
  util::Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  util::Rng a(1);
  util::Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInRange) {
  util::Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.uniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  util::Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  util::Rng rng(77);
  double sum = 0.0;
  double sum2 = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / kN;
  const double var = sum2 / kN - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, ForkProducesIndependentStream) {
  util::Rng a(42);
  util::Rng child = a.fork();
  // The child stream must not replay the parent's outputs.
  util::Rng parent_replay(42);
  parent_replay();  // fork consumed one draw.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (child() == parent_replay()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, BernoulliExtremes) {
  util::Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Timer, MeasuresElapsedTime) {
  util::Timer t;
  // A crude lower bound: do a little work.
  volatile double x = 0.0;
  for (int i = 0; i < 100000; ++i) x = x + i;
  EXPECT_GE(t.seconds(), 0.0);
  EXPECT_LT(t.seconds(), 10.0);
}

TEST(AccumulatingTimer, SumsIntervals) {
  util::AccumulatingTimer t;
  t.add(1.5);
  t.add(0.5);
  EXPECT_DOUBLE_EQ(t.total_seconds(), 2.0);
}

TEST(AccumulatingTimer, RestartBanksInFlightInterval) {
  // Regression: start() while running used to silently discard the
  // in-flight interval; it must accumulate it before restarting.
  util::AccumulatingTimer t;
  t.start();
  volatile double x = 0.0;
  for (int i = 0; i < 200000; ++i) x = x + i;
  t.start();  // Restart without stop(): the first interval must be banked.
  const double banked = t.total_seconds();
  EXPECT_GT(banked, 0.0);
  t.stop();
  EXPECT_GE(t.total_seconds(), banked);
  // stop() after stop() is a no-op, and the banked time persists.
  const double after_stop = t.total_seconds();
  t.stop();
  EXPECT_DOUBLE_EQ(t.total_seconds(), after_stop);
}

TEST(Table, RendersAlignedAndCsv) {
  util::Table table({"Method", "Time"});
  table.add_row({"PCG", "2.34e+08"});
  table.add_row({"Tompson", "7.19e+04"});
  const std::string text = table.to_string();
  EXPECT_NE(text.find("Method"), std::string::npos);
  EXPECT_NE(text.find("PCG"), std::string::npos);
  const std::string csv = table.to_csv();
  EXPECT_NE(csv.find("Method,Time"), std::string::npos);
  EXPECT_NE(csv.find("Tompson,7.19e+04"), std::string::npos);
}

TEST(Table, RejectsMismatchedRow) {
  util::Table table({"A", "B"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, Formatters) {
  EXPECT_EQ(util::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(util::fmt_sci(234000000.0, 2), "2.34e+08");
  EXPECT_EQ(util::fmt_pct(0.8827, 2), "88.27%");
}

TEST(Json, EscapesQuotesBackslashesAndControlBytes) {
  std::string out = "x";
  util::append_json_escaped(&out, "\"\\\n\r\t\x01\xc3\xa9");
  EXPECT_EQ(out, "x\\\"\\\\\\n\\r\\t\\u0001\xc3\xa9");
  // Table's JSON export runs the same escaper.
  util::Table table({"a\"b"});
  table.add_row({"c\nd"});
  EXPECT_EQ(table.to_json(),
            "{\"columns\": [\"a\\\"b\"], \"rows\": [[\"c\\nd\"]]}");
}

TEST(Config, EnvFallback) {
  unsetenv("SFN_TEST_UNSET");
  EXPECT_EQ(util::env_int("SFN_TEST_UNSET", 17), 17);
  setenv("SFN_TEST_SET", "42", 1);
  EXPECT_EQ(util::env_int("SFN_TEST_SET", 0), 42);
  setenv("SFN_TEST_BAD", "abc", 1);
  EXPECT_EQ(util::env_int("SFN_TEST_BAD", 5), 5);
}

TEST(Config, ParsesFlags) {
  const char* argv[] = {"bench", "--scale=3", "--max-grid=64", "--steps=16",
                        "--seed=99"};
  const auto cfg =
      util::BenchConfig::from_args(5, const_cast<char**>(argv));
  EXPECT_EQ(cfg.scale, 3);
  EXPECT_EQ(cfg.max_grid, 64);
  EXPECT_EQ(cfg.time_steps, 16);
  EXPECT_EQ(cfg.seed, 99ull);
}

TEST(Config, ClampsInsaneValues) {
  const char* argv[] = {"bench", "--scale=-5", "--max-grid=2", "--steps=1"};
  const auto cfg =
      util::BenchConfig::from_args(4, const_cast<char**>(argv));
  EXPECT_GE(cfg.scale, 1);
  EXPECT_GE(cfg.max_grid, 16);
  EXPECT_GE(cfg.time_steps, 8);
}

TEST(ThreadPool, RunsAllTasks) {
  util::ThreadPool pool(4);
  std::atomic<int> counter{0};
  pool.parallel_for(1000, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPool, SubmitReturnsUsableFuture) {
  util::ThreadPool pool(2);
  std::atomic<int> value{0};
  auto f = pool.submit([&] { value = 7; });
  f.get();
  EXPECT_EQ(value.load(), 7);
}

TEST(ThreadPool, ParallelForEmptyIsNoop) {
  util::ThreadPool pool(2);
  pool.parallel_for(0, [&](std::size_t) { FAIL(); });
}

}  // namespace
}  // namespace sfn
