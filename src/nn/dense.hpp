#pragma once

#include "nn/layer.hpp"

#include <vector>

namespace sfn::nn {

/// Fully-connected layer. Accepts any input shape and treats it as a flat
/// vector of `in_features`; output shape is {1, 1, out_features}. Used by
/// the success-rate MLP (paper §5) and by the narrow transformation on
/// dense layers.
class Dense final : public Layer {
 public:
  Dense(int in_features, int out_features);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  void forward_into(const Tensor& input, Tensor& output,
                    Workspace& ws) const override;
  std::vector<ParamView> params() override;
  [[nodiscard]] std::size_t param_count() const override;
  [[nodiscard]] Shape output_shape(const Shape& input) const override;
  [[nodiscard]] std::uint64_t flops(const Shape& input) const override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] std::string kind() const override { return "dense"; }
  void save(std::ostream& out) const override;
  void init_weights(util::Rng& rng) override;

  [[nodiscard]] int in_features() const { return in_f_; }
  [[nodiscard]] int out_features() const { return out_f_; }

  float& weight(int out, int in) {
    return weights_[static_cast<std::size_t>(out) * in_f_ + in];
  }
  float& bias(int out) { return bias_[out]; }

 private:
  int in_f_;
  int out_f_;
  std::vector<float> weights_;
  std::vector<float> weight_grads_;
  std::vector<float> bias_;
  std::vector<float> bias_grads_;
  Tensor cached_input_;
};

/// Inverted dropout. Active only during training; at inference it is the
/// identity, so a model carrying dropout keeps its extra generalisation
/// without inference cost (paper §4 Operation 4).
class Dropout final : public Layer {
 public:
  explicit Dropout(double rate, std::uint64_t seed = 0x0d0dull);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  void forward_into(const Tensor& input, Tensor& output,
                    Workspace& ws) const override;
  [[nodiscard]] Shape output_shape(const Shape& input) const override {
    return input;
  }
  [[nodiscard]] std::uint64_t flops(const Shape& input) const override {
    return input.numel();
  }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] std::string kind() const override { return "dropout"; }
  void save(std::ostream& out) const override;

  [[nodiscard]] double rate() const { return rate_; }

 private:
  double rate_;
  util::Rng rng_;
  std::vector<float> mask_;
};

}  // namespace sfn::nn
