#include "nn/optimizer.hpp"

#include <cmath>

namespace sfn::nn {

void Adam::step(Network& net, double grad_scale) {
  auto params = net.params();
  if (m_.size() != params.size()) {
    m_.clear();
    v_.clear();
    t_ = 0;
    for (const auto& view : params) {
      m_.emplace_back(view.values.size(), 0.0f);
      v_.emplace_back(view.values.size(), 0.0f);
    }
  }
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, t_);
  const double bc2 = 1.0 - std::pow(beta2_, t_);
  const double inv_scale = 1.0 / grad_scale;
  for (std::size_t p = 0; p < params.size(); ++p) {
    auto& m = m_[p];
    auto& v = v_[p];
    auto& view = params[p];
    for (std::size_t i = 0; i < view.values.size(); ++i) {
      const double g = view.grads[i] * inv_scale;
      m[i] = static_cast<float>(beta1_ * m[i] + (1.0 - beta1_) * g);
      v[i] = static_cast<float>(beta2_ * v[i] + (1.0 - beta2_) * g * g);
      const double mhat = m[i] / bc1;
      const double vhat = v[i] / bc2;
      view.values[i] -=
          static_cast<float>(lr_ * mhat / (std::sqrt(vhat) + eps_));
    }
  }
}

}  // namespace sfn::nn
