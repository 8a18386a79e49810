#include "nn/network.hpp"

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/pooling.hpp"
#include "nn/serialize.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

#include <omp.h>

#include <algorithm>
#include <fstream>
#include <future>
#include <sstream>
#include <stdexcept>

namespace sfn::nn {

namespace {

constexpr std::int32_t kMagic = 0x53464e4e;  // "SFNN"
// Version 2 added the per-conv inference Precision field. No version-1
// artifacts are checked in (tests and sessions serialize their own), so
// load() accepts only the current format.
constexpr std::int32_t kVersion = 2;

/// Construct a layer of the given kind by reading its config (and weights,
/// through params()) from the stream — the mirror of Layer::save.
std::unique_ptr<Layer> make_layer(const std::string& kind, std::istream& in) {
  if (kind == "conv2d") {
    const int ic = io::read_i32(in);
    const int oc = io::read_i32(in);
    const int k = io::read_i32(in);
    const int res = io::read_i32(in);
    const int prec = io::read_i32(in);
    if (prec < 0 || prec >= kNumPrecisions) {
      throw std::runtime_error("Network::load: bad conv2d precision field");
    }
    auto layer = std::make_unique<Conv2D>(ic, oc, k, res != 0);
    layer->set_precision(static_cast<Precision>(prec));
    for (auto& view : layer->params()) {
      io::read_floats(in, view.values);
    }
    return layer;
  }
  if (kind == "dense") {
    const int inf = io::read_i32(in);
    const int outf = io::read_i32(in);
    auto layer = std::make_unique<Dense>(inf, outf);
    for (auto& view : layer->params()) {
      io::read_floats(in, view.values);
    }
    return layer;
  }
  if (kind == "relu") return std::make_unique<ReLU>();
  if (kind == "sigmoid") return std::make_unique<Sigmoid>();
  if (kind == "tanh") return std::make_unique<Tanh>();
  if (kind == "maxpool") return std::make_unique<MaxPool2D>(io::read_i32(in));
  if (kind == "avgpool") return std::make_unique<AvgPool2D>(io::read_i32(in));
  if (kind == "upsample") {
    return std::make_unique<Upsample2D>(io::read_i32(in));
  }
  if (kind == "dropout") return std::make_unique<Dropout>(io::read_f64(in));
  throw std::runtime_error("Network::load: unknown layer kind '" + kind + "'");
}

}  // namespace

Network::Network(const Network& other) {
  layers_.reserve(other.layers_.size());
  for (const auto& l : other.layers_) {
    layers_.push_back(l->clone());
  }
}

Network& Network::operator=(const Network& other) {
  if (this != &other) {
    Network copy(other);
    layers_ = std::move(copy.layers_);
  }
  return *this;
}

Network& Network::add(std::unique_ptr<Layer> layer) {
  layers_.push_back(std::move(layer));
  return *this;
}

void Network::erase_layer(std::size_t i) {
  if (i >= layers_.size()) {
    throw std::out_of_range("Network::erase_layer");
  }
  layers_.erase(layers_.begin() + static_cast<std::ptrdiff_t>(i));
}

void Network::insert_layer(std::size_t i, std::unique_ptr<Layer> layer) {
  if (i > layers_.size()) {
    throw std::out_of_range("Network::insert_layer");
  }
  layers_.insert(layers_.begin() + static_cast<std::ptrdiff_t>(i),
                 std::move(layer));
}

Tensor Network::forward(const Tensor& input, bool train) {
  Tensor x = input;
  for (auto& layer : layers_) {
    x = layer->forward(x, train);
  }
  return x;
}

const Tensor& Network::forward_inference(const Tensor& input,
                                         Workspace& ws) const {
  SFN_TRACE_SCOPE("nn.forward_inference");
  static obs::Counter& calls = obs::counter("nn.inference_calls");
  static obs::Gauge& ws_bytes = obs::gauge("nn.workspace_bytes");
  calls.add();
  if (layers_.empty()) {
    ws.x0.copy_from(input);
    return ws.x0;
  }
  // Per-layer tracing is gated on full mode: one event per layer per call
  // is too chatty for summary aggregation but invaluable when attributing
  // inference time to individual conv/pool stages.
  const bool trace_layers = obs::trace_mode() == obs::TraceMode::kFull;
  // Ping-pong between the two workspace tensors so no layer ever reads and
  // writes the same buffer; `cur` starts at the caller's input and always
  // points at the most recent activation.
  const Tensor* cur = &input;
  Tensor* bufs[2] = {&ws.x0, &ws.x1};
  int next = 0;
  SFN_CHECK_FINITE(input.data().data(), input.numel(),
                   "Network::forward_inference input");
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const auto& layer = layers_[li];
    obs::TraceScope layer_scope(trace_layers ? "nn.layer" : nullptr,
                                static_cast<std::uint64_t>(li));
    Tensor* out = bufs[next];
    // Conv → ReLU pairs collapse into the conv's fused epilogue: the
    // activation is applied before the final store, so the output tensor
    // is written once and the ReLU layer is skipped outright. Results are
    // identical to the two-pass sequence (the epilogue computes the same
    // `x > 0 ? x : 0`), so fusion changes wall-clock, never trajectories.
    if (const auto* conv = dynamic_cast<const Conv2D*>(layer.get());
        conv != nullptr && li + 1 < layers_.size() &&
        dynamic_cast<const ReLU*>(layers_[li + 1].get()) != nullptr) {
      conv->forward_into_fused(*cur, *out, ws, /*fuse_relu=*/true);
      ++li;  // The ReLU layer's work happened in the epilogue.
    } else {
      layer->forward_into(*cur, *out, ws);
    }
#ifdef SFN_CHECK_NUMERICS
    // A blown-up layer names itself here instead of corrupting every
    // downstream DivNorm/CumDivNorm measurement. describe() allocates, so
    // scan first and build the label only on failure — the happy path must
    // stay heap-free (WorkspaceReuse.SteadyStateInferenceIsAllocationFree).
    if (!util::all_finite(out->data().data(), out->numel())) {
      util::check_finite_or_throw(out->data().data(), out->numel(),
                                  layer->describe().c_str(), __FILE__,
                                  __LINE__);
    }
#endif
    cur = out;
    next = 1 - next;
  }
  ws_bytes.set(static_cast<double>(
      (ws.col_capacity() + ws.x0.numel() + ws.x1.numel()) * sizeof(float)));
  return *cur;
}

std::vector<Tensor> Network::forward_batch(const std::vector<Tensor>& inputs,
                                           util::ThreadPool& pool) const {
  std::vector<Tensor> outputs(inputs.size());
  std::vector<const Tensor*> in_ptrs(inputs.size());
  std::vector<Tensor*> out_ptrs(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    in_ptrs[i] = &inputs[i];
    out_ptrs[i] = &outputs[i];
  }
  forward_batch(in_ptrs, out_ptrs, pool);
  return outputs;
}

void Network::forward_batch(const std::vector<const Tensor*>& inputs,
                            const std::vector<Tensor*>& outputs,
                            util::ThreadPool& pool) const {
  SFN_TRACE_SCOPE("nn.forward_batch");
  SFN_CHECK(inputs.size() == outputs.size(),
            "Network::forward_batch: inputs/outputs size mismatch");
  const std::size_t workers =
      std::min(std::max<std::size_t>(pool.size(), 1), inputs.size());
  if (workers <= 1) {
    Workspace ws;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      outputs[i]->copy_from(forward_inference(*inputs[i], ws));
    }
    return;
  }

  std::vector<std::future<void>> pending;
  pending.reserve(workers);
  for (std::size_t t = 0; t < workers; ++t) {
    pending.push_back(pool.submit([this, &inputs, &outputs, t, workers] {
      // Cross-problem parallelism only: pin this worker's intra-op OpenMP
      // team to one thread so P workers do not each spawn a full team.
      // Save/restore the thread ICV via RAII — pool workers are long-lived
      // and go on to run other tasks (a served session's fluid kernels must
      // not inherit a stale 1-thread pin), and forward_inference can throw
      // on a numeric-invariant trip, which would skip a trailing restore.
      struct OmpThreadsGuard {
        int prev;
        explicit OmpThreadsGuard(int n) : prev(omp_get_max_threads()) {
          omp_set_num_threads(n);
        }
        ~OmpThreadsGuard() { omp_set_num_threads(prev); }
      } omp_guard(1);
      Workspace ws;
      for (std::size_t i = t; i < inputs.size(); i += workers) {
        outputs[i]->copy_from(forward_inference(*inputs[i], ws));
      }
    }));
  }
  // Join every worker before propagating any failure. Rethrowing mid-loop
  // would abandon still-running workers (std::future's dtor does not block
  // for packaged tasks) while the caller unwinds and frees `outputs` — a
  // use-after-free — and the coalescer's per-request retry path would race
  // them on the same tensors.
  std::exception_ptr first_error;
  for (auto& f : pending) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) {
        first_error = std::current_exception();
      }
    }
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

Tensor Network::backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return g;
}

void Network::zero_grads() {
  for (auto& layer : layers_) {
    for (auto& view : layer->params()) {
      std::fill(view.grads.begin(), view.grads.end(), 0.0f);
    }
  }
}

std::vector<ParamView> Network::params() {
  std::vector<ParamView> all;
  for (auto& layer : layers_) {
    for (auto& view : layer->params()) {
      all.push_back(view);
    }
  }
  return all;
}

std::size_t Network::param_count() const {
  std::size_t n = 0;
  for (const auto& layer : layers_) {
    // params() is non-const because it exposes mutable spans; cloning just
    // to count would be wasteful, so we const_cast knowing we only read.
    for (auto& view : const_cast<Layer&>(*layer).params()) {
      n += view.values.size();
    }
  }
  return n;
}

std::uint64_t Network::flops(const Shape& input) const {
  std::uint64_t total = 0;
  Shape shape = input;
  for (const auto& layer : layers_) {
    total += layer->flops(shape);
    shape = layer->output_shape(shape);
  }
  return total;
}

Shape Network::output_shape(Shape input) const {
  for (const auto& layer : layers_) {
    input = layer->output_shape(input);
  }
  return input;
}

std::size_t Network::memory_bytes(const Shape& input) const {
  std::size_t activation_peak = input.numel();
  Shape shape = input;
  for (const auto& layer : layers_) {
    shape = layer->output_shape(shape);
    activation_peak = std::max(activation_peak, shape.numel());
  }
  return (param_count() + 2 * activation_peak) * sizeof(float);
}

void Network::init_weights(util::Rng& rng) {
  for (auto& layer : layers_) {
    layer->init_weights(rng);
  }
}

void Network::prepack_for_inference() const {
  for (const auto& layer : layers_) {
    if (const auto* conv = dynamic_cast<const Conv2D*>(layer.get())) {
      // Pack for the precision the layer will execute in; packs for other
      // precisions (explicit forward_packed_into calls in benchmarks) are
      // built lazily on first use.
      const Precision p = conv->precision();
      (void)conv->packed(p);
    }
  }
}

std::string Network::describe() const {
  std::ostringstream out;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (i > 0) out << " -> ";
    out << layers_[i]->describe();
  }
  return out.str();
}

void Network::save(std::ostream& out) const {
  io::write_i32(out, kMagic);
  io::write_i32(out, kVersion);
  io::write_i32(out, static_cast<std::int32_t>(layers_.size()));
  for (const auto& layer : layers_) {
    io::write_string(out, layer->kind());
    layer->save(out);
  }
}

void Network::save_file(const std::filesystem::path& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("Network::save_file: cannot open " +
                             path.string());
  }
  save(out);
}

Network Network::load(std::istream& in) {
  if (io::read_i32(in) != kMagic) {
    throw std::runtime_error("Network::load: bad magic");
  }
  if (io::read_i32(in) != kVersion) {
    throw std::runtime_error("Network::load: unsupported version");
  }
  const int n = io::read_i32(in);
  Network net;
  for (int i = 0; i < n; ++i) {
    const std::string kind = io::read_string(in);
    net.add(make_layer(kind, in));
  }
  return net;
}

Network Network::load_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("Network::load_file: cannot open " +
                             path.string());
  }
  return load(in);
}

}  // namespace sfn::nn
