#include "fluid/mac_grid.hpp"

#include "util/check.hpp"
#include "util/team.hpp"

#include <cstddef>

namespace sfn::fluid {

void MacGrid2::enforce_solid_boundaries(const FlagGrid& flags) {
  SFN_CHECK(fits(flags),
            "enforce_solid_boundaries: velocity shape differs from the "
            "flag grid");
  const int nx = nx_;
  const int ny = ny_;
  const CellType* cells = flags.cells();
  float* u = u_.data().data();
  float* v = v_.data().data();
  // Rows [0, ny) are u rows, rows [ny, 2 ny] v rows. A face between cells
  // a and b is zeroed when either is solid; cells outside the grid count
  // as solid, so the first and last face of every u row and the first and
  // last v row are always zero.
  util::for_rows(ny + ny + 1, [&](int r) {
    if (r < ny) {
      const CellType* c = cells + static_cast<std::size_t>(r) * nx;
      float* row = u + static_cast<std::size_t>(r) * (nx + 1);
      row[0] = 0.0f;
      for (int i = 1; i < nx; ++i) {
        if (is_solid_type(c[i - 1]) || is_solid_type(c[i])) {
          row[i] = 0.0f;
        }
      }
      row[nx] = 0.0f;
      return;
    }
    const int j = r - ny;
    float* row = v + static_cast<std::size_t>(j) * nx;
    if (j == 0 || j == ny) {
      for (int i = 0; i < nx; ++i) {
        row[i] = 0.0f;
      }
      return;
    }
    const CellType* below = cells + static_cast<std::size_t>(j - 1) * nx;
    const CellType* above = below + nx;
    for (int i = 0; i < nx; ++i) {
      if (is_solid_type(below[i]) || is_solid_type(above[i])) {
        row[i] = 0.0f;
      }
    }
  });
}

}  // namespace sfn::fluid
