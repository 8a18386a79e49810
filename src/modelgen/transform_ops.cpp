#include "modelgen/transform_ops.hpp"

#include <algorithm>
#include <stdexcept>

namespace sfn::modelgen {

namespace {

void check_layer(const ArchSpec& spec, std::size_t layer, const char* op) {
  if (layer >= spec.stages.size()) {
    throw std::invalid_argument(std::string(op) + ": layer index out of range");
  }
}

}  // namespace

ArchSpec shallow(const ArchSpec& spec, std::size_t layer) {
  check_layer(spec, layer, "shallow");
  if (spec.stages.size() <= 1) {
    throw std::invalid_argument("shallow: cannot delete the only stage");
  }
  ArchSpec out = spec;
  // A pooled stage pairs its own pool/unpool, so deleting it keeps the
  // spec resolution-balanced automatically.
  out.stages.erase(out.stages.begin() + static_cast<std::ptrdiff_t>(layer));
  out.name = spec.name + "-sh" + std::to_string(layer);
  return out;
}

ArchSpec narrow(const ArchSpec& spec, std::size_t layer, int r) {
  check_layer(spec, layer, "narrow");
  if (r < 0) {
    throw std::invalid_argument("narrow: r must be non-negative");
  }
  ArchSpec out = spec;
  auto& stage = out.stages[layer];
  stage.channels = std::max(1, stage.channels - r);
  out.name = spec.name + "-nw" + std::to_string(layer) + "x" +
             std::to_string(r);
  return out;
}

ArchSpec pooling(const ArchSpec& spec, std::size_t layer, int m,
                 bool use_max) {
  check_layer(spec, layer, "pooling");
  if (m < 2) {
    throw std::invalid_argument("pooling: window must be >= 2");
  }
  ArchSpec out = spec;
  auto& stage = out.stages[layer];
  stage.pool *= m;
  stage.unpool *= m;
  stage.max_pool = use_max;
  out.name = spec.name + "-pl" + std::to_string(layer) + "m" +
             std::to_string(m);
  return out;
}

ArchSpec dropout(const ArchSpec& spec, std::size_t layer, double p) {
  check_layer(spec, layer, "dropout");
  if (p < 0.0 || p >= 1.0) {
    throw std::invalid_argument("dropout: p must be in [0, 1)");
  }
  ArchSpec out = spec;
  out.stages[layer].dropout = p;
  out.name = spec.name + "-do" + std::to_string(layer);
  return out;
}

}  // namespace sfn::modelgen
