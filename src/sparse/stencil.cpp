#include "sparse/stencil.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace sparse {

namespace {

/// Generic 2D stencil application: offsets and weights, Dirichlet boundary.
/// Rows are assembled in place: with the (distinct) offsets visited in
/// (dy, dx) order, the in-grid neighbors of every row come out in ascending
/// column order, because a column is (y + dy) * nx + (x + dx) with
/// 0 <= x + dx < nx.
Csr stencil_2d(int nx, int ny, std::span<const int> dx,
               std::span<const int> dy, std::span<const double> w) {
  if (nx < 1 || ny < 1) throw Error("stencil_2d: grid must be at least 1x1");
  const int n = nx * ny;
  std::vector<std::size_t> order(w.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return dy[a] != dy[b] ? dy[a] < dy[b] : dx[a] < dx[b];
  });
  std::vector<long> rowptr(n + 1, 0);
  std::vector<int> colind;
  std::vector<double> vals;
  colind.reserve(static_cast<std::size_t>(n) * w.size());
  vals.reserve(static_cast<std::size_t>(n) * w.size());
  for (int y = 0; y < ny; ++y) {
    for (int x = 0; x < nx; ++x) {
      for (std::size_t s : order) {
        const int xx = x + dx[s];
        const int yy = y + dy[s];
        if (xx < 0 || xx >= nx || yy < 0 || yy >= ny) continue;
        if (w[s] == 0.0) continue;
        colind.push_back(grid_index(nx, xx, yy));
        vals.push_back(w[s]);
      }
      rowptr[grid_index(nx, x, y) + 1] = static_cast<long>(colind.size());
    }
  }
  return Csr::from_raw(n, n, std::move(rowptr), std::move(colind),
                       std::move(vals));
}

}  // namespace

Csr laplacian_5pt(int nx, int ny) {
  const int dx[] = {0, -1, 1, 0, 0};
  const int dy[] = {0, 0, 0, -1, 1};
  const double w[] = {4.0, -1.0, -1.0, -1.0, -1.0};
  return stencil_2d(nx, ny, dx, dy, w);
}

Csr laplacian_9pt(int nx, int ny) {
  const int dx[] = {0, -1, 1, 0, 0, -1, 1, -1, 1};
  const int dy[] = {0, 0, 0, -1, 1, -1, -1, 1, 1};
  const double w[] = {8.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0};
  return stencil_2d(nx, ny, dx, dy, w);
}

Csr laplacian_27pt(int nx, int ny, int nz) {
  if (nx < 1 || ny < 1 || nz < 1)
    throw Error("laplacian_27pt: grid must be at least 1x1x1");
  const long n = static_cast<long>(nx) * ny * nz;
  std::vector<long> rowptr(n + 1, 0);
  std::vector<int> colind;
  std::vector<double> vals;
  colind.reserve(static_cast<std::size_t>(n) * 27);
  vals.reserve(static_cast<std::size_t>(n) * 27);
  auto idx = [&](int x, int y, int z) { return (z * ny + y) * nx + x; };
  // Neighbors are visited z-major, then y, then x — ascending columns, so
  // each row is assembled in place.
  for (int z = 0; z < nz; ++z)
    for (int y = 0; y < ny; ++y)
      for (int x = 0; x < nx; ++x) {
        for (int dz = -1; dz <= 1; ++dz)
          for (int dy = -1; dy <= 1; ++dy)
            for (int dx = -1; dx <= 1; ++dx) {
              const int xx = x + dx, yy = y + dy, zz = z + dz;
              if (xx < 0 || xx >= nx || yy < 0 || yy >= ny || zz < 0 ||
                  zz >= nz)
                continue;
              const double w =
                  (dx == 0 && dy == 0 && dz == 0) ? 26.0 : -1.0;
              colind.push_back(idx(xx, yy, zz));
              vals.push_back(w);
            }
        rowptr[idx(x, y, z) + 1] = static_cast<long>(colind.size());
      }
  return Csr::from_raw(static_cast<int>(n), static_cast<int>(n),
                       std::move(rowptr), std::move(colind), std::move(vals));
}

Csr rotated_aniso_7pt(int nx, int ny, double theta, double eps) {
  const double cs = std::cos(theta);
  const double sn = std::sin(theta);
  const double cx = cs * cs + eps * sn * sn;
  const double cy = sn * sn + eps * cs * cs;
  const double cxy = 2.0 * (1.0 - eps) * cs * sn;
  //               C            E              W              N
  const int dx[] = {0, 1, -1, 0, 0, 1, -1};
  const int dy[] = {0, 0, 0, 1, -1, 1, -1};
  const double w[] = {
      2 * cx + 2 * cy - cxy,  // C
      -cx + cxy / 2,          // E
      -cx + cxy / 2,          // W
      -cy + cxy / 2,          // N
      -cy + cxy / 2,          // S
      -cxy / 2,               // NE
      -cxy / 2,               // SW
  };
  return stencil_2d(nx, ny, dx, dy, w);
}

Csr paper_problem(int nx, int ny) {
  constexpr double kPi = 3.14159265358979323846;
  return rotated_aniso_7pt(nx, ny, kPi / 4.0, 0.001);
}

void factor_grid(long n, int& nx, int& ny) {
  if (n < 1) throw Error("factor_grid: n must be positive");
  long best = 1;
  while (best * 2 * best * 2 <= n * 2) best *= 2;  // largest pow2 <= sqrt(n)*~
  while (best > 1 && n % best != 0) best /= 2;
  nx = static_cast<int>(best);
  ny = static_cast<int>(n / best);
  if (static_cast<long>(nx) * ny != n)
    throw Error("factor_grid: n has no power-of-two factorization");
  if (nx < ny) std::swap(nx, ny);
}

}  // namespace sparse
