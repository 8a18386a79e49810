#include "fluid/poisson.hpp"

#include "fluid/operators.hpp"

#include <cmath>

namespace sfn::fluid {

double poisson_residual(const FlagGrid& flags, const GridF& rhs,
                        const GridF& pressure) {
  // One A p grid per thread, reallocated only when the resolution changes:
  // the runtime health guard calls this on every guarded step.
  static thread_local GridF ap;
  if (ap.nx() != rhs.nx() || ap.ny() != rhs.ny()) {
    ap = GridF(rhs.nx(), rhs.ny(), 0.0f);
  }
  apply_pressure_laplacian(pressure, flags, &ap);
  double m = 0.0;
  for (int j = 0; j < rhs.ny(); ++j) {
    for (int i = 0; i < rhs.nx(); ++i) {
      if (!flags.is_fluid(i, j)) {
        continue;
      }
      m = std::max(m, std::abs(static_cast<double>(rhs(i, j)) - ap(i, j)));
    }
  }
  return m;
}

}  // namespace sfn::fluid
