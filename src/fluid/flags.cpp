#include "fluid/flags.hpp"

#include <cstddef>
#include <limits>

namespace sfn::fluid {

void FlagGrid::set_smoke_box_boundary() {
  const int nx = cells_.nx();
  const int ny = cells_.ny();
  for (int j = 0; j < ny; ++j) {
    cells_(0, j) = CellType::kSolid;
    cells_(nx - 1, j) = CellType::kSolid;
  }
  for (int i = 0; i < nx; ++i) {
    cells_(i, 0) = CellType::kSolid;
  }
  for (int i = 1; i < nx - 1; ++i) {
    cells_(i, ny - 1) = CellType::kEmpty;
  }
}

int FlagGrid::count_fluid() const {
  int count = 0;
  for (std::size_t k = 0; k < cells_.size(); ++k) {
    if (cells_[k] == CellType::kFluid) {
      ++count;
    }
  }
  return count;
}

Grid2<int> solid_distance_field(const FlagGrid& flags) {
  Grid2<int> dist;
  std::vector<int> queue;
  solid_distance_field(flags, &dist, &queue);
  return dist;
}

void solid_distance_field(const FlagGrid& flags, Grid2<int>* dist,
                          std::vector<int>* queue) {
  const int nx = flags.nx();
  const int ny = flags.ny();
  if (dist->nx() != nx || dist->ny() != ny) {
    *dist = Grid2<int>(nx, ny);
  }
  dist->fill(std::numeric_limits<int>::max());
  // Each cell is enqueued at most once (BFS finalises a cell's distance
  // when it first reaches it), so nx * ny slots always suffice.
  queue->resize(static_cast<std::size_t>(nx) * ny);
  std::size_t tail = 0;
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      if (flags.at(i, j) == CellType::kSolid) {
        (*dist)(i, j) = 0;
        (*queue)[tail++] = j * nx + i;
      }
    }
  }
  // No solids at all: define distance as a large constant everywhere.
  if (tail == 0) {
    dist->fill(nx + ny);
    return;
  }

  constexpr int kDx[4] = {1, -1, 0, 0};
  constexpr int kDy[4] = {0, 0, 1, -1};
  for (std::size_t head = 0; head < tail; ++head) {
    const int i = (*queue)[head] % nx;
    const int j = (*queue)[head] / nx;
    for (int d = 0; d < 4; ++d) {
      const int ni = i + kDx[d];
      const int nj = j + kDy[d];
      if (ni < 0 || ni >= nx || nj < 0 || nj >= ny) {
        continue;
      }
      if ((*dist)(ni, nj) > (*dist)(i, j) + 1) {
        (*dist)(ni, nj) = (*dist)(i, j) + 1;
        (*queue)[tail++] = nj * nx + ni;
      }
    }
  }
}

}  // namespace sfn::fluid
