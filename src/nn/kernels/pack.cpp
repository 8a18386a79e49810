#include "nn/kernels/pack.hpp"

#include <cstddef>
#include <cstring>

#include "nn/kernels/microkernel.hpp"
#include "obs/metrics.hpp"

namespace sfn::nn::kernels {

void pack_conv_weights(const float* weights, const float* bias, int out_c,
                       int K, PackedConvWeights* out) {
  static obs::Counter& pack_calls = obs::counter("nn.pack_calls");
  out->out_c = out_c;
  out->K = K;
  out->panels = (out_c + kMr - 1) / kMr;

  const std::size_t padded_rows = static_cast<std::size_t>(out->panels) * kMr;
  out->bias.assign(padded_rows, 0.0f);
  std::memcpy(out->bias.data(), bias, sizeof(float) * out_c);

  const std::size_t panel_elems = static_cast<std::size_t>(K) * kMr;
  out->a.assign(out->panels * panel_elems, 0.0f);
  for (int row = 0; row < out_c; ++row) {
    float* panel = out->a.data() + (row / kMr) * panel_elems;
    const int r = row % kMr;
    for (int p = 0; p < K; ++p) {
      panel[static_cast<std::size_t>(p) * kMr + r] =
          weights[static_cast<std::size_t>(row) * K + p];
    }
  }
  pack_calls.add(1);
}

}  // namespace sfn::nn::kernels
