#include "fluid/poisson.hpp"

#include "fluid/operators.hpp"
#include "fluid/reduce.hpp"
#include "util/check.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace sfn::fluid {

ResidualSweep residual_sweep(const FlagGrid& flags, const GridF& rhs,
                             const GridF& pressure) {
  const int nx = flags.nx();
  const int ny = flags.ny();
  SFN_CHECK(rhs.nx() == nx && rhs.ny() == ny && pressure.nx() == nx &&
                pressure.ny() == ny,
            "residual_sweep: rhs/pressure shape differs from the flag grid");
  const CellType* cells = flags.cells();
  const float* b = rhs.data().data();
  const float* p = pressure.data().data();
  const auto& rows = row_partials<ResidualSweep>(
      ny, [&](int j, ResidualSweep* row) {
        const auto base = static_cast<std::size_t>(j) * nx;
        for (int i = 0; i < nx; ++i) {
          const std::size_t k = base + i;
          if (!std::isfinite(p[k])) {
            ++row->non_finite;
          }
          if (cells[k] != CellType::kFluid) {
            continue;
          }
          // std::max keeps the running value when the new term is NaN.
          const float ap = laplacian_at(cells, p, nx, ny, i, j);
          row->residual = std::max(
              row->residual, std::abs(static_cast<double>(b[k]) - ap));
          const double magnitude = std::abs(b[k]);
          if (std::isfinite(magnitude)) {
            row->rhs_max = std::max(row->rhs_max, magnitude);
          }
        }
      });
  ResidualSweep out;
  for (const ResidualSweep& row : rows) {
    out.non_finite += row.non_finite;
    out.residual = std::max(out.residual, row.residual);
    out.rhs_max = std::max(out.rhs_max, row.rhs_max);
  }
  return out;
}

double poisson_residual(const FlagGrid& flags, const GridF& rhs,
                        const GridF& pressure) {
  return residual_sweep(flags, rhs, pressure).residual;
}

}  // namespace sfn::fluid
