// Serving-engine stress suite: 32 concurrent sessions on a 4-worker
// server, a fault-injecting solver decorator poisoning a subset of them,
// with cross-session batching on. Checks the isolation and bounded-ness
// claims of DESIGN.md §12: quarantine state never leaks between sessions,
// the coalescer's queue stays bounded by the worker count, shutdown
// drains without orphaning a job, and the reject overflow policy sheds
// load instead of blocking. Runs under TSan via the sanitizer CI matrix
// like every other test binary.

#include "core/session.hpp"
#include "fluid/pcg.hpp"
#include "serve/session_server.hpp"
#include "serve_test_support.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

namespace sfn {
namespace {

/// Wraps a session's pressure solver and overwrites every `every`-th
/// answer with NaN across all candidates of that session (one shared
/// counter per session), so the health guard must trip on a precise
/// cadence — and only inside the poisoned session.
class FaultingSolver final : public fluid::PoissonSolver {
 public:
  struct Shared {
    std::atomic<int> calls{0};
    std::atomic<int> injected{0};
  };

  FaultingSolver(std::unique_ptr<fluid::PoissonSolver> inner, int every,
                 std::shared_ptr<Shared> shared)
      : inner_(std::move(inner)), every_(every), shared_(std::move(shared)) {}

  fluid::SolveStats solve(const fluid::FlagGrid& flags, const fluid::GridF& rhs,
                          fluid::GridF* pressure) override {
    auto stats = inner_->solve(flags, rhs, pressure);
    if (shared_->calls.fetch_add(1) % every_ == every_ - 1) {
      shared_->injected.fetch_add(1);
      for (std::size_t k = 0; k < pressure->size(); ++k) {
        (*pressure)[k] = std::numeric_limits<float>::quiet_NaN();
      }
    }
    return stats;
  }

  [[nodiscard]] std::string name() const override { return "faulting"; }

 private:
  std::unique_ptr<fluid::PoissonSolver> inner_;
  int every_;
  std::shared_ptr<Shared> shared_;
};

core::SessionConfig faulting_config(
    std::shared_ptr<FaultingSolver::Shared> shared, int every = 2) {
  core::SessionConfig config;
  config.solver_decorator = [shared = std::move(shared), every](
                                std::size_t,
                                std::unique_ptr<fluid::PoissonSolver> inner) {
    return std::make_unique<FaultingSolver>(std::move(inner), every, shared);
  };
  return config;
}

TEST(ServeStress, FaultedSessionsNeverLeakQuarantineIntoCleanOnes) {
  const auto artifacts = test::make_test_artifacts();
  constexpr int kSessions = 32;
  constexpr int kFaulted = 8;  // Every 4th session is poisoned.

  serve::ServerConfig config;
  config.session_threads = 4;
  config.queue_capacity = kSessions;  // Admit the whole burst.
  serve::SessionServer server(config);

  std::vector<workload::InputProblem> problems;
  std::vector<std::shared_ptr<FaultingSolver::Shared>> counters(kSessions);
  std::vector<serve::SessionServer::JobId> ids;
  std::vector<bool> faulted;
  for (int i = 0; i < kSessions; ++i) {
    problems.push_back(test::make_test_problem(1000 + i, 16, 10));
    core::SessionConfig session;
    const bool poison = i % (kSessions / kFaulted) == 0;
    if (poison) {
      counters[i] = std::make_shared<FaultingSolver::Shared>();
      session = faulting_config(counters[i]);
    }
    faulted.push_back(poison);
    ids.push_back(server.submit_adaptive(problems.back(), artifacts, session));
  }

  // Solo baselines for the clean sessions: leak-free isolation means a
  // clean served run is bit-identical to the same problem run alone.
  for (int i = 0; i < kSessions; ++i) {
    const auto result = server.wait(ids[i]);
    if (faulted[i]) {
      EXPECT_GT(counters[i]->injected.load(), 0) << "session " << i;
      EXPECT_GT(result.fallback_steps, 0) << "session " << i;
      EXPECT_FALSE(result.quarantined_models.empty()) << "session " << i;
    } else {
      EXPECT_EQ(result.fallback_steps, 0) << "session " << i;
      EXPECT_TRUE(result.quarantined_models.empty()) << "session " << i;
      const auto solo = core::run_adaptive(problems[i], artifacts);
      ASSERT_EQ(solo.final_density.size(), result.final_density.size());
      for (std::size_t k = 0; k < solo.final_density.size(); ++k) {
        ASSERT_EQ(solo.final_density[k], result.final_density[k])
            << "session " << i << " cell " << k;
      }
      EXPECT_EQ(solo.quarantined_models, result.quarantined_models);
    }
  }

  // Bounded-queue invariant: every running session has at most one
  // inference request in flight, so the coalescer's backlog can never
  // exceed the worker count (and the server's submission queue never
  // exceeded its configured capacity).
  EXPECT_LE(server.coalescer().queue_high_water(), config.session_threads);
  EXPECT_LE(server.queue_high_water(), config.queue_capacity);
  EXPECT_EQ(server.jobs_completed(), static_cast<std::uint64_t>(kSessions));
}

TEST(ServeStress, ShutdownDrainsWithoutOrphans) {
  const auto artifacts = test::make_test_artifacts();
  serve::ServerConfig config;
  config.session_threads = 4;
  serve::SessionServer server(config);

  std::vector<serve::SessionServer::JobId> ids;
  for (int i = 0; i < 12; ++i) {
    ids.push_back(server.submit_adaptive(test::make_test_problem(2000 + i),
                                         artifacts));
  }
  server.shutdown();

  // Every accepted job ran to completion and stayed redeemable; nothing
  // is stuck in the coalescer; new work is refused.
  EXPECT_EQ(server.sessions_active(), 0u);
  EXPECT_EQ(server.coalescer().pending(), 0u);
  EXPECT_EQ(server.jobs_completed(), 12u);
  for (const auto id : ids) {
    const auto result = server.wait(id);
    EXPECT_GT(result.final_density.size(), 0u);
  }
  EXPECT_THROW(server.submit_adaptive(test::make_test_problem(1), artifacts),
               serve::ServerStoppedError);
}

TEST(ServeStress, RejectOverflowPolicyShedsLoadInsteadOfBlocking) {
  const auto artifacts = test::make_test_artifacts();
  serve::ServerConfig config;
  config.session_threads = 1;
  config.queue_capacity = 2;
  config.overflow = serve::ServerConfig::Overflow::kReject;
  serve::SessionServer server(config);

  // Flood far past capacity: accepted + rejected must partition the
  // burst, and every accepted job still completes and redeems.
  std::vector<serve::SessionServer::JobId> accepted;
  int rejected = 0;
  for (int i = 0; i < 16; ++i) {
    const auto id =
        server.try_submit_adaptive(test::make_test_problem(3000 + i, 16, 6),
                                   artifacts);
    if (id.has_value()) {
      accepted.push_back(*id);
    } else {
      ++rejected;
    }
  }
  EXPECT_EQ(accepted.size() + static_cast<std::size_t>(rejected), 16u);
  EXPECT_GE(accepted.size(), 1u);
  for (const auto id : accepted) {
    EXPECT_GT(server.wait(id).final_density.size(), 0u);
  }
  EXPECT_LE(server.queue_high_water(), config.queue_capacity);
}

TEST(ServeStress, WaitRejectsUnknownAndRedeemedIds) {
  // A wait() on an id the server never issued (or already redeemed) is a
  // caller bug; it must fail loudly instead of blocking forever on a
  // result that will never arrive.
  const auto artifacts = test::make_test_artifacts();
  serve::SessionServer server;
  EXPECT_THROW(server.wait(12345), std::invalid_argument);

  const auto id =
      server.submit_fixed(test::make_test_problem(4500, 16, 4),
                          artifacts.library[0]);
  EXPECT_GT(server.wait(id).final_density.size(), 0u);
  EXPECT_THROW(server.wait(id), std::invalid_argument);
  // Id 0 is never issued (ids start at 1).
  EXPECT_THROW(server.wait(0), std::invalid_argument);
}

TEST(ServeStress, FaultedFixedSessionsStayFiniteUnderBatching) {
  // run_fixed has no guard machinery; the point here is narrower — a
  // poisoned fixed session routed through the coalescer must not corrupt
  // its neighbours' batched inferences.
  const auto artifacts = test::make_test_artifacts();
  const auto& model = artifacts.library[0];
  serve::ServerConfig config;
  config.session_threads = 4;
  serve::SessionServer server(config);

  const auto clean_problem = test::make_test_problem(4000, 16, 8);
  const auto solo = core::run_fixed(clean_problem, model);

  auto shared = std::make_shared<FaultingSolver::Shared>();
  std::vector<serve::SessionServer::JobId> clean_ids;
  for (int i = 0; i < 6; ++i) {
    server.submit_fixed(test::make_test_problem(4100 + i, 16, 8), model,
                        faulting_config(shared, /*every=*/3));
    clean_ids.push_back(server.submit_fixed(clean_problem, model));
  }
  for (const auto id : clean_ids) {
    const auto result = server.wait(id);
    ASSERT_EQ(result.final_density.size(), solo.final_density.size());
    for (std::size_t k = 0; k < result.final_density.size(); ++k) {
      ASSERT_EQ(solo.final_density[k], result.final_density[k]) << k;
    }
  }
  server.shutdown();
  EXPECT_GT(shared->injected.load(), 0);
}

}  // namespace
}  // namespace sfn
