#include "modelgen/arch_spec.hpp"

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/pooling.hpp"

#include <sstream>

namespace sfn::modelgen {

int ArchSpec::net_scale() const {
  int scale = 1;
  for (const auto& stage : stages) {
    scale = scale * stage.pool / stage.unpool;
  }
  return scale;
}

int ArchSpec::required_divisor() const {
  int divisor = 1;
  int scale = 1;
  for (const auto& stage : stages) {
    scale *= stage.pool;
    divisor = std::max(divisor, scale);
    scale /= stage.unpool;
  }
  return divisor;
}

double ArchSpec::neuron_count() const {
  double total = 0.0;
  double resolution = 1.0;  // Fraction of input pixels at this depth.
  for (const auto& stage : stages) {
    resolution /= static_cast<double>(stage.pool) * stage.pool;
    total += stage.channels * resolution;
    resolution *= static_cast<double>(stage.unpool) * stage.unpool;
  }
  return total;
}

std::string ArchSpec::describe() const {
  std::ostringstream out;
  out << name << ": in=" << in_channels;
  for (const auto& s : stages) {
    out << " | c" << s.channels << " k" << s.kernel;
    if (s.pool > 1) out << " p" << s.pool;
    if (s.unpool > 1) out << " u" << s.unpool;
    if (s.residual) out << " R";
    if (s.dropout > 0.0) out << " d" << s.dropout;
  }
  out << " | out=" << out_channels;
  return out.str();
}

std::string validate(const ArchSpec& spec) {
  if (spec.in_channels < 1 || spec.out_channels < 1) {
    return "channel counts must be positive";
  }
  if (spec.stages.empty()) {
    return "spec needs at least one stage";
  }
  if (spec.stages.size() > 9) {
    return "at most 9 stages (the Eq. 6 feature vector width)";
  }
  int scale = 1;
  for (std::size_t i = 0; i < spec.stages.size(); ++i) {
    const auto& s = spec.stages[i];
    if (s.kernel < 1 || s.kernel % 2 == 0) {
      return "stage " + std::to_string(i) + ": kernel must be odd";
    }
    if (s.channels < 1) {
      return "stage " + std::to_string(i) + ": channels must be positive";
    }
    if (s.pool < 1 || s.unpool < 1) {
      return "stage " + std::to_string(i) + ": pool/unpool must be >= 1";
    }
    if (s.dropout < 0.0 || s.dropout >= 1.0) {
      return "stage " + std::to_string(i) + ": dropout must be in [0, 1)";
    }
    scale = scale * s.pool;
    if (scale % s.unpool != 0) {
      return "stage " + std::to_string(i) + ": unpool exceeds prior pooling";
    }
    scale /= s.unpool;
  }
  if (scale != 1) {
    return "net pooling factor must return to 1 (full-resolution output)";
  }
  return "";
}

nn::Network build_network(const ArchSpec& spec, util::Rng& rng) {
  const std::string err = validate(spec);
  if (!err.empty()) {
    throw std::invalid_argument("build_network: invalid spec: " + err);
  }
  nn::Network net;
  int channels = spec.in_channels;
  for (const auto& stage : spec.stages) {
    if (stage.pool > 1) {
      if (stage.max_pool) {
        net.emplace<nn::MaxPool2D>(stage.pool);
      } else {
        net.emplace<nn::AvgPool2D>(stage.pool);
      }
    }
    const bool residual = stage.residual && channels == stage.channels;
    net.emplace<nn::Conv2D>(channels, stage.channels, stage.kernel, residual);
    channels = stage.channels;
    if (stage.relu) {
      net.emplace<nn::ReLU>();
    }
    if (stage.dropout > 0.0) {
      net.emplace<nn::Dropout>(stage.dropout);
    }
    if (stage.unpool > 1) {
      net.emplace<nn::Upsample2D>(stage.unpool);
    }
  }
  // Final linear projection to the pressure field.
  net.emplace<nn::Conv2D>(channels, spec.out_channels, 3, false);
  net.init_weights(rng);
  return net;
}

ArchSpec tompson_spec(int width) {
  // Five stages of convolution + ReLU, the paper's description of the
  // Tompson reference model. Trained on the DivNorm objective, the local
  // receptive field is enough: the objective measures the residual in the
  // divergence metric, which de-emphasises the long-range smooth pressure
  // modes a local CNN cannot produce. (A sequentially pooled variant was
  // tried and performs much worse — the pooling bottleneck makes every
  // output blocky, which the divergence metric punishes severely.)
  ArchSpec spec;
  spec.name = "tompson";
  spec.stages = {
      StageSpec{.kernel = 3, .channels = width},
      StageSpec{.kernel = 3, .channels = width},
      StageSpec{.kernel = 3, .channels = width},
      StageSpec{.kernel = 3, .channels = width},
      StageSpec{.kernel = 3, .channels = width},
  };
  return spec;
}

ArchSpec yang_spec() {
  ArchSpec spec;
  spec.name = "yang";
  spec.stages = {
      StageSpec{.kernel = 3, .channels = 4},
  };
  return spec;
}

}  // namespace sfn::modelgen
