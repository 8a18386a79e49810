#include "nn/dense.hpp"

#include "nn/serialize.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace sfn::nn {

Dense::Dense(int in_features, int out_features)
    : in_f_(in_features),
      out_f_(out_features),
      weights_(static_cast<std::size_t>(in_features) * out_features),
      weight_grads_(weights_.size(), 0.0f),
      bias_(out_features, 0.0f),
      bias_grads_(out_features, 0.0f) {
  if (in_features < 1 || out_features < 1) {
    throw std::invalid_argument("Dense: features must be positive");
  }
  util::Rng rng(0xdeedull ^ (static_cast<std::uint64_t>(in_features) << 20) ^
                out_features);
  init_weights(rng);
}

void Dense::init_weights(util::Rng& rng) {
  const double scale = std::sqrt(2.0 / in_f_);
  for (auto& w : weights_) {
    w = static_cast<float>(rng.normal(0.0, scale));
  }
  for (auto& b : bias_) {
    b = 0.0f;
  }
}

Shape Dense::output_shape(const Shape& input) const {
  if (static_cast<int>(input.numel()) != in_f_) {
    throw std::invalid_argument("Dense: input size mismatch");
  }
  return Shape{1, 1, out_f_};
}

std::uint64_t Dense::flops(const Shape& /*input*/) const {
  return 2ull * in_f_ * out_f_;
}

Tensor Dense::forward(const Tensor& input, bool /*train*/) {
  cached_input_ = input;
  return forward_output(input);
}

void Dense::forward_into(const Tensor& input, Tensor& output,
                         Workspace& /*ws*/) const {
  if (static_cast<int>(input.numel()) != in_f_) {
    throw std::invalid_argument("Dense: input size mismatch");
  }
  output.resize(Shape{1, 1, out_f_});
  const float* src = input.data().data();
  for (int o = 0; o < out_f_; ++o) {
    const float* row = &weights_[static_cast<std::size_t>(o) * in_f_];
    float acc = bias_[o];
    for (int i = 0; i < in_f_; ++i) {
      acc += row[i] * src[i];
    }
    output[o] = acc;
  }
}

Tensor Dense::backward(const Tensor& grad_output) {
  Tensor grad_in(cached_input_.shape());
  for (int o = 0; o < out_f_; ++o) {
    const float g = grad_output[o];
    bias_grads_[o] += g;
    float* wrow = &weights_[static_cast<std::size_t>(o) * in_f_];
    float* grow = &weight_grads_[static_cast<std::size_t>(o) * in_f_];
    for (int i = 0; i < in_f_; ++i) {
      grow[i] += g * cached_input_[i];
      grad_in[i] += g * wrow[i];
    }
  }
  return grad_in;
}

std::vector<ParamView> Dense::params() {
  return {ParamView{weights_, weight_grads_}, ParamView{bias_, bias_grads_}};
}

std::size_t Dense::param_count() const {
  return weights_.size() + bias_.size();
}

std::unique_ptr<Layer> Dense::clone() const {
  auto copy = std::make_unique<Dense>(in_f_, out_f_);
  copy->weights_ = weights_;
  copy->bias_ = bias_;
  return copy;
}

std::string Dense::describe() const {
  std::ostringstream out;
  out << "Dense(" << in_f_ << "->" << out_f_ << ")";
  return out.str();
}

void Dense::save(std::ostream& out) const {
  io::write_i32(out, in_f_);
  io::write_i32(out, out_f_);
  io::write_floats(out, weights_);
  io::write_floats(out, bias_);
}

Dropout::Dropout(double rate, std::uint64_t seed) : rate_(rate), rng_(seed) {
  if (!(rate >= 0.0 && rate < 1.0)) {
    throw std::invalid_argument("Dropout: rate must be in [0, 1)");
  }
}

Tensor Dropout::forward(const Tensor& input, bool train) {
  if (!train || rate_ == 0.0) {
    mask_.clear();
    return input;
  }
  mask_.resize(input.numel());
  Tensor out = input;
  const float keep_scale = static_cast<float>(1.0 / (1.0 - rate_));
  for (std::size_t i = 0; i < out.numel(); ++i) {
    mask_[i] = rng_.bernoulli(rate_) ? 0.0f : keep_scale;
    out[i] *= mask_[i];
  }
  return out;
}

void Dropout::forward_into(const Tensor& input, Tensor& output,
                           Workspace& /*ws*/) const {
  // Inference-time dropout is the identity.
  output.copy_from(input);
}

Tensor Dropout::backward(const Tensor& grad_output) {
  if (mask_.empty()) {
    return grad_output;
  }
  Tensor grad = grad_output;
  for (std::size_t i = 0; i < grad.numel(); ++i) {
    grad[i] *= mask_[i];
  }
  return grad;
}

std::unique_ptr<Layer> Dropout::clone() const {
  return std::make_unique<Dropout>(rate_);
}

std::string Dropout::describe() const {
  std::ostringstream out;
  out << "Dropout(p=" << rate_ << ")";
  return out.str();
}

void Dropout::save(std::ostream& out) const { io::write_f64(out, rate_); }

}  // namespace sfn::nn
