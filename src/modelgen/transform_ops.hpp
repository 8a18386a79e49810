#pragma once

#include "modelgen/arch_spec.hpp"

namespace sfn::modelgen {

/// The four model-transformation operations of paper §4. Each takes a
/// spec and returns a new spec; none mutates its input. All enforce the
/// paper's constraints (e.g. shallow never removes the last stage) and
/// throw std::invalid_argument on out-of-range layer indices.

/// Operation 1 — shallow(G, L): delete stage `layer` ("shortens the depth
/// of the network and reduces memory consumption").
ArchSpec shallow(const ArchSpec& spec, std::size_t layer);

/// Operation 2 — narrow(G, L, r): remove `r` channels ("neurons") from
/// stage `layer`; the result keeps at least one channel. The paper uses
/// r = |L| / 10.
ArchSpec narrow(const ArchSpec& spec, std::size_t layer, int r);

/// Operation 3 — pooling(G, L, m): downsample stage `layer` with an m x m
/// pooling window (max or average) and restore resolution with a matching
/// unpool, so the network still emits a full-resolution pressure field.
ArchSpec pooling(const ArchSpec& spec, std::size_t layer, int m,
                 bool use_max = true);

/// Operation 4 — dropout(G, L, p): drop neurons of stage `layer` with
/// probability p during training ("a more flexible way to reduce the
/// number of neurons ... useful to increase the generalization capability").
ArchSpec dropout(const ArchSpec& spec, std::size_t layer, double p);

}  // namespace sfn::modelgen
