#pragma once

#include "nn/layer.hpp"

namespace sfn::nn {

/// Element-wise rectified linear unit.
class ReLU final : public Layer {
 public:
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
  [[nodiscard]] std::string describe() const override { return "ReLU"; }
  [[nodiscard]] std::string kind() const override { return "relu"; }
  void save(std::ostream& out) const override;

 private:
  Tensor cached_input_;
};

/// Element-wise logistic sigmoid (used as the MLP head, paper §5.2).
class Sigmoid final : public Layer {
 public:
  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  void forward_into(const Tensor& input, Tensor& output,
                    Workspace& ws) const override;
  [[nodiscard]] Shape output_shape(const Shape& input) const override {
    return input;
  }
  [[nodiscard]] std::uint64_t flops(const Shape& input) const override {
    return 4 * input.numel();
  }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  [[nodiscard]] std::string describe() const override { return "Sigmoid"; }
  [[nodiscard]] std::string kind() const override { return "sigmoid"; }
  void save(std::ostream& out) const override;

 private:
  Tensor cached_output_;
};

}  // namespace sfn::nn
