#include "nn/pooling.hpp"

#include "nn/serialize.hpp"

#include <limits>
#include <sstream>
#include <stdexcept>

namespace sfn::nn {

namespace {

int pooled_extent(int extent, int size) {
  // Ceil division: trailing partial windows pool whatever cells exist.
  return (extent + size - 1) / size;
}

/// Each window's maximum into `out` (already shaped), and, when `argmax`
/// is set, the flat input index it came from. A candidate replaces the
/// running best only when greater, so ties keep the earlier one and NaNs
/// are skipped.
void max_pool(const Tensor& input, int size, Tensor& out,
              std::size_t* argmax) {
  const Shape in_shape = input.shape();
  const Shape out_shape = out.shape();
  std::size_t o = 0;
  for (int c = 0; c < out_shape.c; ++c) {
    for (int y = 0; y < out_shape.h; ++y) {
      for (int x = 0; x < out_shape.w; ++x, ++o) {
        float best = -std::numeric_limits<float>::infinity();
        std::size_t best_idx = 0;
        for (int dy = 0; dy < size; ++dy) {
          const int iy = y * size + dy;
          if (iy >= in_shape.h) break;
          for (int dx = 0; dx < size; ++dx) {
            const int ix = x * size + dx;
            if (ix >= in_shape.w) break;
            const float v = input.at(c, iy, ix);
            if (v > best) {
              best = v;
              best_idx =
                  (static_cast<std::size_t>(c) * in_shape.h + iy) *
                      in_shape.w +
                  ix;
            }
          }
        }
        out[o] = best;
        if (argmax != nullptr) {
          argmax[o] = best_idx;
        }
      }
    }
  }
}

}  // namespace

MaxPool2D::MaxPool2D(int size) : size_(size) {
  if (size < 2) {
    throw std::invalid_argument("MaxPool2D: size must be >= 2");
  }
}

Shape MaxPool2D::output_shape(const Shape& input) const {
  return Shape{input.c, pooled_extent(input.h, size_),
               pooled_extent(input.w, size_)};
}

Tensor MaxPool2D::forward(const Tensor& input, bool /*train*/) {
  in_shape_ = input.shape();
  Tensor out(output_shape(in_shape_));
  argmax_.resize(out.numel());
  max_pool(input, size_, out, argmax_.data());
  return out;
}

void MaxPool2D::forward_into(const Tensor& input, Tensor& output,
                             Workspace& /*ws*/) const {
  output.resize(output_shape(input.shape()));
  max_pool(input, size_, output, nullptr);
}

Tensor MaxPool2D::backward(const Tensor& grad_output) {
  Tensor grad_in(in_shape_);
  for (std::size_t o = 0; o < grad_output.numel(); ++o) {
    grad_in[argmax_[o]] += grad_output[o];
  }
  return grad_in;
}

std::unique_ptr<Layer> MaxPool2D::clone() const {
  return std::make_unique<MaxPool2D>(size_);
}

std::string MaxPool2D::describe() const {
  std::ostringstream out;
  out << "MaxPool2D(" << size_ << "x" << size_ << ")";
  return out.str();
}

void MaxPool2D::save(std::ostream& out) const { io::write_i32(out, size_); }

AvgPool2D::AvgPool2D(int size) : size_(size) {
  if (size < 2) {
    throw std::invalid_argument("AvgPool2D: size must be >= 2");
  }
}

Shape AvgPool2D::output_shape(const Shape& input) const {
  return Shape{input.c, pooled_extent(input.h, size_),
               pooled_extent(input.w, size_)};
}

Tensor AvgPool2D::forward(const Tensor& input, bool /*train*/) {
  in_shape_ = input.shape();
  return forward_output(input);
}

void AvgPool2D::forward_into(const Tensor& input, Tensor& output,
                             Workspace& /*ws*/) const {
  const Shape in_shape = input.shape();
  const Shape out_shape = output_shape(in_shape);
  output.resize(out_shape);

  for (int c = 0; c < out_shape.c; ++c) {
    for (int y = 0; y < out_shape.h; ++y) {
      for (int x = 0; x < out_shape.w; ++x) {
        float acc = 0.0f;
        int count = 0;
        for (int dy = 0; dy < size_; ++dy) {
          const int iy = y * size_ + dy;
          if (iy >= in_shape.h) break;
          for (int dx = 0; dx < size_; ++dx) {
            const int ix = x * size_ + dx;
            if (ix >= in_shape.w) break;
            acc += input.at(c, iy, ix);
            ++count;
          }
        }
        output.at(c, y, x) = acc / static_cast<float>(count);
      }
    }
  }
}

Tensor AvgPool2D::backward(const Tensor& grad_output) {
  Tensor grad_in(in_shape_);
  const Shape out_shape = grad_output.shape();
  for (int c = 0; c < out_shape.c; ++c) {
    for (int y = 0; y < out_shape.h; ++y) {
      for (int x = 0; x < out_shape.w; ++x) {
        int count = 0;
        for (int dy = 0; dy < size_; ++dy) {
          const int iy = y * size_ + dy;
          if (iy >= in_shape_.h) break;
          for (int dx = 0; dx < size_; ++dx) {
            const int ix = x * size_ + dx;
            if (ix >= in_shape_.w) break;
            ++count;
          }
        }
        const float share = grad_output.at(c, y, x) / static_cast<float>(count);
        for (int dy = 0; dy < size_; ++dy) {
          const int iy = y * size_ + dy;
          if (iy >= in_shape_.h) break;
          for (int dx = 0; dx < size_; ++dx) {
            const int ix = x * size_ + dx;
            if (ix >= in_shape_.w) break;
            grad_in.at(c, iy, ix) += share;
          }
        }
      }
    }
  }
  return grad_in;
}

std::unique_ptr<Layer> AvgPool2D::clone() const {
  return std::make_unique<AvgPool2D>(size_);
}

std::string AvgPool2D::describe() const {
  std::ostringstream out;
  out << "AvgPool2D(" << size_ << "x" << size_ << ")";
  return out.str();
}

void AvgPool2D::save(std::ostream& out) const { io::write_i32(out, size_); }

Upsample2D::Upsample2D(int scale) : scale_(scale) {
  if (scale < 2) {
    throw std::invalid_argument("Upsample2D: scale must be >= 2");
  }
}

Shape Upsample2D::output_shape(const Shape& input) const {
  return Shape{input.c, input.h * scale_, input.w * scale_};
}

Tensor Upsample2D::forward(const Tensor& input, bool /*train*/) {
  in_shape_ = input.shape();
  return forward_output(input);
}

void Upsample2D::forward_into(const Tensor& input, Tensor& output,
                              Workspace& /*ws*/) const {
  const Shape in_shape = input.shape();
  const Shape out_shape = output_shape(in_shape);
  output.resize(out_shape);
  for (int c = 0; c < out_shape.c; ++c) {
    for (int y = 0; y < out_shape.h; ++y) {
      for (int x = 0; x < out_shape.w; ++x) {
        output.at(c, y, x) = input.at(c, y / scale_, x / scale_);
      }
    }
  }
}

Tensor Upsample2D::backward(const Tensor& grad_output) {
  Tensor grad_in(in_shape_);
  const Shape out_shape = grad_output.shape();
  for (int c = 0; c < out_shape.c; ++c) {
    for (int y = 0; y < out_shape.h; ++y) {
      for (int x = 0; x < out_shape.w; ++x) {
        grad_in.at(c, y / scale_, x / scale_) += grad_output.at(c, y, x);
      }
    }
  }
  return grad_in;
}

std::unique_ptr<Layer> Upsample2D::clone() const {
  return std::make_unique<Upsample2D>(scale_);
}

std::string Upsample2D::describe() const {
  std::ostringstream out;
  out << "Upsample2D(x" << scale_ << ")";
  return out.str();
}

void Upsample2D::save(std::ostream& out) const { io::write_i32(out, scale_); }

}  // namespace sfn::nn
