#pragma once

#include "nn/layer.hpp"

#include <vector>

namespace sfn::nn {

/// 2x2 stride-2 max pooling (the paper's pooling transformation uses a 2x2
/// matrix that "discards 75% of neurons in the intermediate layers").
class MaxPool2D final : public Layer {
 public:
  explicit MaxPool2D(int size = 2);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  void forward_into(const Tensor& input, Tensor& output,
                    Workspace& ws) const override;
  [[nodiscard]] Shape output_shape(const Shape& input) const override;
  [[nodiscard]] std::uint64_t flops(const Shape& input) const override {
    return input.numel();
  }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] std::string kind() const override { return "maxpool"; }
  void save(std::ostream& out) const override;

  [[nodiscard]] int size() const { return size_; }

 private:
  int size_;
  Shape in_shape_;
  std::vector<std::size_t> argmax_;
};

/// 2x2 stride-2 average pooling.
class AvgPool2D final : public Layer {
 public:
  explicit AvgPool2D(int size = 2);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  void forward_into(const Tensor& input, Tensor& output,
                    Workspace& ws) const override;
  [[nodiscard]] Shape output_shape(const Shape& input) const override;
  [[nodiscard]] std::uint64_t flops(const Shape& input) const override {
    return input.numel();
  }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] std::string kind() const override { return "avgpool"; }
  void save(std::ostream& out) const override;

  [[nodiscard]] int size() const { return size_; }

 private:
  int size_;
  Shape in_shape_;
};

/// Nearest-neighbour upsampling; pairs with a pool layer so a
/// pooled ("downsampled") model still emits a full-resolution pressure
/// field — the paper's pooling/unpooling layer descriptors in Eq. 6.
class Upsample2D final : public Layer {
 public:
  explicit Upsample2D(int scale = 2);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  void forward_into(const Tensor& input, Tensor& output,
                    Workspace& ws) const override;
  [[nodiscard]] Shape output_shape(const Shape& input) const override;
  [[nodiscard]] std::uint64_t flops(const Shape& input) const override {
    return input.numel() * static_cast<std::uint64_t>(scale_) * scale_;
  }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] std::string kind() const override { return "upsample"; }
  void save(std::ostream& out) const override;

  [[nodiscard]] int scale() const { return scale_; }

 private:
  int scale_;
  Shape in_shape_;
};

}  // namespace sfn::nn
