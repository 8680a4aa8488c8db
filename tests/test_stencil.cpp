/// \file test_stencil.cpp
/// \brief Problem generators: stencil structure and coefficient identities.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <random>
#include <span>
#include <vector>

#include "sparse/stencil.hpp"

using namespace sparse;

TEST(Stencil, Laplace5ptInteriorRow) {
  Csr a = laplacian_5pt(5, 5);
  const int c = grid_index(5, 2, 2);
  EXPECT_DOUBLE_EQ(a.at(c, c), 4.0);
  EXPECT_DOUBLE_EQ(a.at(c, grid_index(5, 1, 2)), -1.0);
  EXPECT_DOUBLE_EQ(a.at(c, grid_index(5, 3, 2)), -1.0);
  EXPECT_DOUBLE_EQ(a.at(c, grid_index(5, 2, 1)), -1.0);
  EXPECT_DOUBLE_EQ(a.at(c, grid_index(5, 2, 3)), -1.0);
  EXPECT_EQ(a.row_cols(c).size(), 5u);
}

TEST(Stencil, Laplace5ptCornerHasThreeEntries) {
  Csr a = laplacian_5pt(4, 4);
  EXPECT_EQ(a.row_cols(grid_index(4, 0, 0)).size(), 3u);
}

TEST(Stencil, Laplace5ptSymmetric) {
  Csr a = laplacian_5pt(6, 4);
  EXPECT_EQ(a.transpose(), a);
}

TEST(Stencil, Laplace9ptInteriorRowSumZero) {
  Csr a = laplacian_9pt(7, 7);
  const int c = grid_index(7, 3, 3);
  double sum = 0;
  for (double v : a.row_vals(c)) sum += v;
  EXPECT_NEAR(sum, 0.0, 1e-14);
  EXPECT_EQ(a.row_cols(c).size(), 9u);
}

TEST(Stencil, Laplace27ptStructure) {
  Csr a = laplacian_27pt(4, 4, 4);
  EXPECT_EQ(a.rows(), 64);
  // interior point has 27 entries
  const int c = (1 * 4 + 1) * 4 + 1;
  EXPECT_EQ(a.row_cols(c).size(), 27u);
  EXPECT_DOUBLE_EQ(a.at(c, c), 26.0);
  EXPECT_EQ(a.transpose(), a);
}

TEST(Stencil, Rotated7ptPaperCoefficients) {
  // theta = 45deg, eps = 0.001: cx = cy = 0.5005, cxy = 0.999.
  Csr a = paper_problem(8, 8);
  const int nx = 8;
  const int c = grid_index(nx, 4, 4);
  EXPECT_EQ(a.row_cols(c).size(), 7u);
  EXPECT_NEAR(a.at(c, c), 2 * 0.5005 + 2 * 0.5005 - 0.999, 1e-12);
  EXPECT_NEAR(a.at(c, grid_index(nx, 5, 4)), -0.5005 + 0.999 / 2, 1e-12);
  EXPECT_NEAR(a.at(c, grid_index(nx, 4, 5)), -0.5005 + 0.999 / 2, 1e-12);
  // strong couplings on the NE/SW diagonal
  EXPECT_NEAR(a.at(c, grid_index(nx, 5, 5)), -0.4995, 1e-12);
  EXPECT_NEAR(a.at(c, grid_index(nx, 3, 3)), -0.4995, 1e-12);
  // no coupling on the NW/SE diagonal (7-point, not 9-point)
  EXPECT_DOUBLE_EQ(a.at(c, grid_index(nx, 3, 5)), 0.0);
  EXPECT_DOUBLE_EQ(a.at(c, grid_index(nx, 5, 3)), 0.0);
}

TEST(Stencil, Rotated7ptInteriorRowSumZero) {
  Csr a = paper_problem(10, 10);
  const int c = grid_index(10, 5, 5);
  double sum = 0;
  for (double v : a.row_vals(c)) sum += v;
  EXPECT_NEAR(sum, 0.0, 1e-12);
}

TEST(Stencil, Rotated7ptSymmetric) {
  Csr a = rotated_aniso_7pt(9, 6, 0.7, 0.01);
  EXPECT_EQ(a.transpose(), a);
}

TEST(Stencil, Rotated7ptZeroAngleIsAxisAnisotropy) {
  // theta = 0: cxy = 0, stencil degenerates to a 5-point anisotropic one.
  Csr a = rotated_aniso_7pt(8, 8, 0.0, 0.1);
  const int c = grid_index(8, 4, 4);
  EXPECT_EQ(a.row_cols(c).size(), 5u);
  EXPECT_NEAR(a.at(c, grid_index(8, 5, 4)), -1.0, 1e-12);
  EXPECT_NEAR(a.at(c, grid_index(8, 4, 5)), -0.1, 1e-12);
}

TEST(Stencil, Rotated7ptPositiveDefiniteSmall) {
  // x^T A x > 0 for a few random vectors (A is SPD with Dirichlet BCs).
  Csr a = paper_problem(6, 6);
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> d(-1, 1);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> x(a.rows());
    for (auto& v : x) v = d(rng);
    std::vector<double> ax(a.rows());
    a.spmv(x, ax);
    const double xtax = std::inner_product(x.begin(), x.end(), ax.begin(),
                                           0.0);
    EXPECT_GT(xtax, 0.0);
  }
}

TEST(Stencil, FactorGridProducesPaperGrid) {
  int nx = 0, ny = 0;
  factor_grid(524288, nx, ny);
  EXPECT_EQ(static_cast<long>(nx) * ny, 524288L);
  EXPECT_EQ(nx, 1024);
  EXPECT_EQ(ny, 512);
}

TEST(Stencil, FactorGridWeakScalingSizes) {
  for (int p : {32, 64, 128, 256, 512, 1024, 2048}) {
    int nx = 0, ny = 0;
    factor_grid(256L * p, nx, ny);
    EXPECT_EQ(static_cast<long>(nx) * ny, 256L * p) << p;
    EXPECT_GE(nx, ny);
    EXPECT_LE(nx / ny, 2) << "aspect ratio stays near square";
  }
}

TEST(Stencil, RejectsDegenerateGrids) {
  EXPECT_THROW(laplacian_5pt(0, 3), Error);
  EXPECT_THROW(rotated_aniso_7pt(-1, 3, 0.0, 1.0), Error);
  EXPECT_THROW(laplacian_27pt(2, 0, 2), Error);
}

namespace {

/// Triplet-assembled reference of a 2-D stencil (Dirichlet boundary, zero
/// weights dropped): the builders must produce exactly this matrix.
Csr reference_2d(int nx, int ny, std::span<const int> dx,
                 std::span<const int> dy, std::span<const double> w) {
  std::vector<Triplet> tr;
  for (int y = 0; y < ny; ++y)
    for (int x = 0; x < nx; ++x)
      for (std::size_t s = 0; s < w.size(); ++s) {
        const int xx = x + dx[s], yy = y + dy[s];
        if (xx < 0 || xx >= nx || yy < 0 || yy >= ny || w[s] == 0.0) continue;
        tr.push_back(Triplet{grid_index(nx, x, y), grid_index(nx, xx, yy),
                             w[s]});
      }
  return Csr::from_triplets(nx * ny, nx * ny, std::move(tr));
}

Csr reference_27pt(int nx, int ny, int nz) {
  const int n = nx * ny * nz;
  auto idx = [&](int x, int y, int z) { return (z * ny + y) * nx + x; };
  std::vector<Triplet> tr;
  for (int z = 0; z < nz; ++z)
    for (int y = 0; y < ny; ++y)
      for (int x = 0; x < nx; ++x)
        for (int dz = 1; dz >= -1; --dz)  // reversed: assembly order is free
          for (int dy = 1; dy >= -1; --dy)
            for (int dx = 1; dx >= -1; --dx) {
              const int xx = x + dx, yy = y + dy, zz = z + dz;
              if (xx < 0 || xx >= nx || yy < 0 || yy >= ny || zz < 0 ||
                  zz >= nz)
                continue;
              const bool centre = dx == 0 && dy == 0 && dz == 0;
              tr.push_back(Triplet{idx(x, y, z), idx(xx, yy, zz),
                                   centre ? 26.0 : -1.0});
            }
  return Csr::from_triplets(n, n, std::move(tr));
}

}  // namespace

TEST(Stencil, RowAssembledBuildersMatchTripletReference) {
  const int dx5[] = {0, -1, 1, 0, 0};
  const int dy5[] = {0, 0, 0, -1, 1};
  const double w5[] = {4.0, -1.0, -1.0, -1.0, -1.0};
  const int dx9[] = {0, -1, 1, 0, 0, -1, 1, -1, 1};
  const int dy9[] = {0, 0, 0, -1, 1, -1, -1, 1, 1};
  const double w9[] = {8.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0};
  // rotated_aniso_7pt(theta = 0.7, eps = 0.01), offsets in the builder's
  // (unsorted) order.
  const double cs = std::cos(0.7), sn = std::sin(0.7), eps = 0.01;
  const double cx = cs * cs + eps * sn * sn, cy = sn * sn + eps * cs * cs;
  const double cxy = 2.0 * (1.0 - eps) * cs * sn;
  const int dx7[] = {0, 1, -1, 0, 0, 1, -1};
  const int dy7[] = {0, 0, 0, 1, -1, 1, -1};
  const double w7[] = {2 * cx + 2 * cy - cxy, -cx + cxy / 2, -cx + cxy / 2,
                       -cy + cxy / 2,         -cy + cxy / 2, -cxy / 2,
                       -cxy / 2};
  const int grids[][2] = {{1, 1}, {1, 5}, {5, 1}, {8, 6}};
  for (const auto& g : grids) {
    const int nx = g[0], ny = g[1];
    EXPECT_EQ(laplacian_5pt(nx, ny), reference_2d(nx, ny, dx5, dy5, w5))
        << nx << "x" << ny;
    EXPECT_EQ(laplacian_9pt(nx, ny), reference_2d(nx, ny, dx9, dy9, w9))
        << nx << "x" << ny;
    EXPECT_EQ(rotated_aniso_7pt(nx, ny, 0.7, eps),
              reference_2d(nx, ny, dx7, dy7, w7))
        << nx << "x" << ny;
  }
  EXPECT_EQ(laplacian_27pt(1, 1, 1), reference_27pt(1, 1, 1));
  EXPECT_EQ(laplacian_27pt(4, 3, 2), reference_27pt(4, 3, 2));
}
