#pragma once

#include "core/session.hpp"
#include "nn/workspace.hpp"
#include "util/annotations.hpp"

#include <cstdint>
#include <vector>

namespace perfbench {

/// One pressure solve seen through the benchmark's solver wrapper.
struct SolveRecord {
  double seconds = 0.0;
  int iterations = 0;
  std::uint64_t flops = 0;  ///< As reported by the solver (SolveStats).
  bool neural = false;      ///< Surrogate (true) or exact PCG (false).
};

/// One surrogate forward pass seen through the benchmark's InferenceSink.
struct ForwardRecord {
  double seconds = 0.0;
  std::uint64_t flops = 0;  ///< Network::flops at the input shape.
};

/// Collects solve records from any number of sessions. Its decorator wraps
/// each solver handed to it; wrappers may solve on different threads, so
/// recording is serialised by the mutex.
class SolveRecorder {
 public:
  SolveRecorder() = default;
  SolveRecorder(const SolveRecorder&) = delete;
  SolveRecorder& operator=(const SolveRecorder&) = delete;

  /// For SessionConfig::solver_decorator; the recorder must outlive every
  /// session built with it.
  sfn::core::SessionConfig::SolverDecorator decorator();

  /// Wrap one solver directly (for runs outside a session).
  std::unique_ptr<sfn::fluid::PoissonSolver> wrap(
      std::unique_ptr<sfn::fluid::PoissonSolver> inner, bool neural);

  void record(const SolveRecord& record) SFN_EXCLUDES(mutex_);
  [[nodiscard]] std::vector<SolveRecord> records() const SFN_EXCLUDES(mutex_);

 private:
  mutable sfn::util::Mutex mutex_;
  std::vector<SolveRecord> records_ SFN_GUARDED_BY(mutex_);
};

/// InferenceSink that runs the forward pass locally, exactly as
/// NeuralProjection does without a sink, and times it. Single-threaded:
/// install it only in sessions driven from one thread.
class TimedSink final : public sfn::core::InferenceSink {
 public:
  void infer(const sfn::nn::Network& net, const sfn::nn::Tensor& input,
             sfn::nn::Tensor* out) override;

  [[nodiscard]] const std::vector<ForwardRecord>& records() const {
    return records_;
  }

 private:
  sfn::nn::Workspace ws_;
  std::vector<ForwardRecord> records_;
};

}  // namespace perfbench
