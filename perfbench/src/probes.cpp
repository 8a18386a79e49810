#include "probes.hpp"

#include "nn/network.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace {

using namespace sfn;

class TimedSolver final : public fluid::PoissonSolver {
 public:
  TimedSolver(std::unique_ptr<fluid::PoissonSolver> inner, bool neural,
              SolveRecorder* recorder)
      : inner_(std::move(inner)), neural_(neural), recorder_(recorder) {}

  fluid::SolveStats solve(const fluid::FlagGrid& flags,
                          const fluid::GridF& rhs,
                          fluid::GridF* pressure) override {
    const util::Timer timer;
    auto stats = inner_->solve(flags, rhs, pressure);
    recorder_->record(
        {timer.seconds(), stats.iterations, stats.flops, neural_});
    return stats;
  }

  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<fluid::PoissonSolver> inner_;
  bool neural_;
  SolveRecorder* recorder_;
};

}  // namespace

core::SessionConfig::SolverDecorator SolveRecorder::decorator() {
  // Sessions only decorate their surrogate solvers; the exact solvers of
  // the health guard and of a PCG restart stay inside the session.
  return [this](std::size_t, std::unique_ptr<fluid::PoissonSolver> inner) {
    return wrap(std::move(inner), true);
  };
}

std::unique_ptr<fluid::PoissonSolver> SolveRecorder::wrap(
    std::unique_ptr<fluid::PoissonSolver> inner, bool neural) {
  return std::make_unique<TimedSolver>(std::move(inner), neural, this);
}

void SolveRecorder::record(const SolveRecord& record) {
  const util::MutexLock lock(mutex_);
  records_.push_back(record);
}

std::vector<SolveRecord> SolveRecorder::records() const {
  const util::MutexLock lock(mutex_);
  return records_;
}

void TimedSink::infer(const nn::Network& net, const nn::Tensor& input,
                      nn::Tensor* out) {
  const util::Timer timer;
  const nn::Tensor& result = net.forward_inference(input, ws_);
  const double seconds = timer.seconds();
  *out = result;
  records_.push_back({seconds, net.flops(input.shape())});
}

}  // namespace perfbench
