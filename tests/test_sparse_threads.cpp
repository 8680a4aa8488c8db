/// \file test_sparse_threads.cpp
/// \brief The determinism contract of the two-phase sparse kernels and of
/// hierarchy construction: every `sparse::Threads` width produces
/// byte-identical output — rowptr/colind/vals of each kernel, deep-equal
/// hierarchies, and identical HierarchyCache files (see
/// docs/ARCHITECTURE.md, "Parallel construction").

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "amg/coarsen.hpp"
#include "amg/distribute.hpp"
#include "amg/hierarchy.hpp"
#include "amg/interp.hpp"
#include "amg/strength.hpp"
#include "harness/hierarchy_cache.hpp"
#include "sparse/csr.hpp"
#include "sparse/par_csr.hpp"
#include "sparse/partition.hpp"
#include "sparse/stencil.hpp"

namespace fs = std::filesystem;
using sparse::Csr;
using sparse::Threads;

namespace {

constexpr int kWidths[] = {2, 4, 7};

/// Byte-level equality of the three CSR arrays (EXPECT_EQ on Csr would
/// also pass for equal values that were re-derived; memcmp pins the exact
/// bytes the determinism contract promises).
void expect_bytes_identical(const Csr& a, const Csr& b, const char* what,
                            int width) {
  ASSERT_EQ(a.rows(), b.rows()) << what << " width " << width;
  ASSERT_EQ(a.cols(), b.cols()) << what << " width " << width;
  ASSERT_EQ(a.nnz(), b.nnz()) << what << " width " << width;
  EXPECT_EQ(std::memcmp(a.rowptr().data(), b.rowptr().data(),
                        a.rowptr().size_bytes()),
            0)
      << what << ": rowptr bytes diverged at width " << width;
  if (a.nnz() == 0) return;  // empty arrays may have a null data()
  EXPECT_EQ(std::memcmp(a.colind().data(), b.colind().data(),
                        a.colind().size_bytes()),
            0)
      << what << ": colind bytes diverged at width " << width;
  EXPECT_EQ(std::memcmp(a.values().data(), b.values().data(),
                        a.values().size_bytes()),
            0)
      << what << ": vals bytes diverged at width " << width;
}

/// An irregular non-symmetric test operator: the paper problem with a few
/// rows knocked out of pattern via pruning-resistant perturbation.
Csr test_matrix() {
  Csr a = sparse::paper_problem(48, 32);
  auto vals = a.values();
  for (std::size_t k = 0; k < vals.size(); k += 7) vals[k] *= 1.0 + 1e-3 * k;
  return a;
}

}  // namespace

TEST(SparseThreads, MultiplyBitIdenticalAcrossWidths) {
  const Csr a = test_matrix();
  const Csr base = a.multiply(a, Threads{1});
  for (int w : kWidths)
    expect_bytes_identical(base, a.multiply(a, Threads{w}), "multiply", w);
}

TEST(SparseThreads, TransposeBitIdenticalAcrossWidths) {
  const Csr a = test_matrix();
  const Csr base = a.transpose(Threads{1});
  for (int w : kWidths)
    expect_bytes_identical(base, a.transpose(Threads{w}), "transpose", w);
}

TEST(SparseThreads, PrunedBitIdenticalAcrossWidths) {
  const Csr a = test_matrix();
  const Csr base = a.pruned(1e-3, Threads{1});
  for (int w : kWidths)
    expect_bytes_identical(base, a.pruned(1e-3, Threads{w}), "pruned", w);
}

TEST(SparseThreads, SelectRowsAndPermutedBitIdenticalAcrossWidths) {
  const Csr a = test_matrix();
  std::vector<int> rows;
  for (int r = 0; r < a.rows(); r += 3) rows.push_back(r);
  std::vector<int> perm(a.rows());
  for (int i = 0; i < a.rows(); ++i)
    perm[i] = (i * 977 + 13) % a.rows();  // 977 coprime to 48*32
  const Csr sel1 = a.select_rows(rows, Threads{1});
  const Csr perm1 = a.permuted(perm, perm, Threads{1});
  for (int w : kWidths) {
    expect_bytes_identical(sel1, a.select_rows(rows, Threads{w}),
                           "select_rows", w);
    expect_bytes_identical(perm1, a.permuted(perm, perm, Threads{w}),
                           "permuted", w);
  }
}

TEST(SparseThreads, StrengthAndInterpBitIdenticalAcrossWidths) {
  const Csr a = test_matrix();
  const Csr s1 = amg::strength(a, 0.25, Threads{1});
  const std::vector<amg::CF> cf = amg::coarsen(s1, amg::CoarsenAlgo::rs);
  const Csr p1 = amg::direct_interpolation(a, s1, cf, 4, Threads{1});
  for (int w : kWidths) {
    const Csr sw = amg::strength(a, 0.25, Threads{w});
    expect_bytes_identical(s1, sw, "strength", w);
    expect_bytes_identical(
        p1, amg::direct_interpolation(a, sw, cf, 4, Threads{w}), "interp", w);
  }
}

TEST(SparseThreads, GalerkinProductBitIdenticalAcrossWidths) {
  const Csr a = test_matrix();
  const Csr s = amg::strength(a, 0.25, Threads{1});
  const std::vector<amg::CF> cf = amg::coarsen(s, amg::CoarsenAlgo::rs);
  const Csr p = amg::direct_interpolation(a, s, cf, 4, Threads{1});
  const Csr r = p.transpose(Threads{1});
  const Csr base = sparse::galerkin_product(r, a, p, Threads{1});
  for (int w : kWidths)
    expect_bytes_identical(base, sparse::galerkin_product(r, a, p, Threads{w}),
                           "galerkin", w);
}

TEST(SparseThreads, HierarchyBuildDeepEqualAcrossWidths) {
  const Csr a = sparse::paper_problem(64, 32);
  amg::Options opts;
  opts.threads = 1;
  const amg::Hierarchy base = amg::Hierarchy::build(a, opts);
  EXPECT_GE(base.num_levels(), 3) << "problem too small to exercise levels";
  for (int w : kWidths) {
    amg::Options wide = opts;
    wide.threads = w;
    const amg::Hierarchy h = amg::Hierarchy::build(a, wide);
    // Deep equality over every level: operators, transfer operators, CF
    // splits, coarse-point lists.  (Options differ in the threads knob by
    // construction, so compare levels, not the whole struct.)
    EXPECT_EQ(h.levels, base.levels) << "hierarchy diverged at width " << w;
  }
}

TEST(SparseThreads, HierarchyCacheFilesIdenticalAcrossWidths) {
  // The strongest end-to-end form of the contract: build + distribute +
  // serialize at every width and compare the cache files byte-for-byte
  // (the stored payload checksum is part of the file, so matching files
  // imply matching checksums).
  const Csr a = sparse::paper_problem(32, 16);
  const harness::HierarchyCache::Key key{a.rows(), 4, amg::Options{}};
  auto file_bytes = [&](int width) {
    amg::Options opts;
    opts.threads = width;
    const amg::DistHierarchy dh =
        amg::distribute_hierarchy(amg::Hierarchy::build(a, opts), 4);
    const fs::path dir = fs::temp_directory_path() /
                         ("sparse-threads-cache-" + std::to_string(::getpid()) +
                          "-w" + std::to_string(width));
    fs::create_directories(dir);
    harness::HierarchyCache cache(dir);
    EXPECT_TRUE(cache.store(key, dh));
    std::ifstream in(cache.path_of(key), std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    std::error_code ec;
    fs::remove_all(dir, ec);
    return bytes;
  };
  const std::vector<char> base = file_bytes(1);
  ASSERT_FALSE(base.empty());
  for (int w : kWidths)
    EXPECT_EQ(file_bytes(w), base)
        << "cache file (checksummed payload) diverged at width " << w;
}

namespace {

/// The triplet-based split that ParCsr::distribute replaced: per rank,
/// collect the diag/offd entries as triplets and assemble them with
/// Csr::from_triplets (sort + duplicate merge).
sparse::ParCsr reference_distribute(const Csr& a, std::vector<long> row_part,
                                    std::vector<long> col_part) {
  sparse::ParCsr out;
  out.global_rows = a.rows();
  out.global_cols = a.cols();
  const int p = static_cast<int>(row_part.size()) - 1;
  out.ranks.resize(p);
  for (int r = 0; r < p; ++r) {
    sparse::ParCsrRank& slice = out.ranks[r];
    const long r0 = row_part[r], r1 = row_part[r + 1];
    const long c0 = col_part[r], c1 = col_part[r + 1];
    slice.first_row = r0;
    slice.first_col = c0;
    std::vector<long>& offd = slice.col_map_offd;
    for (long row = r0; row < r1; ++row)
      for (int c : a.row_cols(static_cast<int>(row)))
        if (c < c0 || c >= c1) offd.push_back(c);
    std::sort(offd.begin(), offd.end());
    offd.erase(std::unique(offd.begin(), offd.end()), offd.end());
    std::vector<sparse::Triplet> diag_tr, offd_tr;
    for (long row = r0; row < r1; ++row) {
      const int lr = static_cast<int>(row - r0);
      auto cols = a.row_cols(static_cast<int>(row));
      auto vals = a.row_vals(static_cast<int>(row));
      for (std::size_t k = 0; k < cols.size(); ++k) {
        if (cols[k] >= c0 && cols[k] < c1) {
          diag_tr.push_back({lr, static_cast<int>(cols[k] - c0), vals[k]});
        } else {
          const auto it = std::lower_bound(offd.begin(), offd.end(), cols[k]);
          offd_tr.push_back({lr, static_cast<int>(it - offd.begin()),
                             vals[k]});
        }
      }
    }
    slice.diag = Csr::from_triplets(static_cast<int>(r1 - r0),
                                    static_cast<int>(c1 - c0),
                                    std::move(diag_tr));
    slice.offd = Csr::from_triplets(static_cast<int>(r1 - r0),
                                    static_cast<int>(offd.size()),
                                    std::move(offd_tr));
  }
  out.row_part = std::move(row_part);
  out.col_part = std::move(col_part);
  return out;
}

/// The serial halo derivation Halo::build replaced: receive lists from
/// each rank's offd footprint, send lists by inverting them in ascending
/// receiver order.
sparse::Halo reference_halo(const sparse::ParCsr& a) {
  const int p = a.num_ranks();
  sparse::Halo h;
  h.ranks.resize(p);
  for (int q = 0; q < p; ++q) {
    sparse::RankHalo& hq = h.ranks[q];
    hq.recv_gids = a.ranks[q].col_map_offd;
    for (long gid : hq.recv_gids) {
      const int owner = sparse::owner_of(a.col_part, gid);
      if (hq.recv_ranks.empty() || hq.recv_ranks.back() != owner) {
        hq.recv_ranks.push_back(owner);
        hq.recv_counts.push_back(0);
      }
      ++hq.recv_counts.back();
    }
  }
  for (int q = 0; q < p; ++q) {
    long pos = 0;
    for (std::size_t i = 0; i < h.ranks[q].recv_ranks.size(); ++i) {
      const int s = h.ranks[q].recv_ranks[i];
      sparse::RankHalo& hs = h.ranks[s];
      hs.send_ranks.push_back(q);
      hs.send_counts.push_back(h.ranks[q].recv_counts[i]);
      for (int k = 0; k < h.ranks[q].recv_counts[i]; ++k) {
        const long gid = h.ranks[q].recv_gids[pos++];
        hs.send_idx.push_back(static_cast<int>(gid - a.col_part[s]));
        hs.send_gids.push_back(gid);
      }
    }
  }
  return h;
}

void expect_split_identical(const sparse::ParCsr& a, const sparse::ParCsr& b,
                            const char* what, int width) {
  ASSERT_EQ(a.num_ranks(), b.num_ranks()) << what << " width " << width;
  for (int r = 0; r < a.num_ranks(); ++r) {
    expect_bytes_identical(a.ranks[r].diag, b.ranks[r].diag, what, width);
    expect_bytes_identical(a.ranks[r].offd, b.ranks[r].offd, what, width);
  }
  EXPECT_EQ(a, b) << what << ": ParCsr diverged at width " << width;
}

}  // namespace

TEST(SparseThreads, DistributeAndHaloBitIdenticalAcrossWidths) {
  struct Case {
    const char* what;
    Csr a;
    std::vector<long> row_part, col_part;
  };
  std::vector<Case> cases;
  // More ranks than rows: ranks 6..9 own nothing.
  {
    const Csr a = sparse::paper_problem(3, 2);
    const auto part = sparse::block_partition(a.rows(), 10);
    cases.push_back({"empty ranks", a, part, part});
  }
  // Rectangular P- and R-shaped splits whose coarse partition gives some
  // ranks no columns (P) or no rows (R).
  {
    const Csr a = test_matrix();
    const Csr s = amg::strength(a, 0.25, Threads{1});
    const Csr p = amg::direct_interpolation(
        a, s, amg::coarsen(s, amg::CoarsenAlgo::rs), 4, Threads{1});
    const int nranks = 9;
    std::vector<int> counts(nranks, 0);
    for (int r = 0; r < nranks; r += 2) counts[r] = p.cols() / 5;
    counts[nranks - 1] = p.cols() - 4 * (p.cols() / 5);
    const auto fine = sparse::block_partition(a.rows(), nranks);
    const auto coarse = sparse::partition_from_counts(counts);
    cases.push_back({"P split", p, fine, coarse});
    cases.push_back({"R split", p.transpose(), coarse, fine});
  }
  // A matrix with an empty row.
  {
    const Csr base = sparse::laplacian_9pt(7, 5);
    std::vector<sparse::Triplet> tr;
    for (int r = 0; r < base.rows(); ++r) {
      if (r == 17) continue;
      auto cols = base.row_cols(r);
      auto vals = base.row_vals(r);
      for (std::size_t k = 0; k < cols.size(); ++k)
        tr.push_back({r, cols[k], vals[k]});
    }
    const Csr a = Csr::from_triplets(base.rows(), base.cols(), std::move(tr));
    const auto part = sparse::block_partition(a.rows(), 4);
    cases.push_back({"empty row", a, part, part});
  }

  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    const sparse::ParCsr ref = reference_distribute(c.a, c.row_part,
                                                    c.col_part);
    const sparse::ParCsr base =
        sparse::ParCsr::distribute(c.a, c.row_part, c.col_part, Threads{1});
    expect_split_identical(ref, base, "distribute vs triplet reference", 1);
    EXPECT_EQ(sparse::Halo::build(base, Threads{1}), reference_halo(ref));
    const sparse::Halo base_halo = sparse::Halo::build(base, Threads{1});
    for (int w : kWidths) {
      const sparse::ParCsr dw =
          sparse::ParCsr::distribute(c.a, c.row_part, c.col_part, Threads{w});
      expect_split_identical(base, dw, "distribute", w);
      EXPECT_EQ(sparse::Halo::build(dw, Threads{w}), base_halo)
          << "halo diverged at width " << w;
    }
  }

  // The local-ownership check still fires from a worker: give the last
  // rank an offd column it owns itself.
  const Csr a = test_matrix();
  const auto part = sparse::block_partition(a.rows(), 16);
  sparse::ParCsr bad = sparse::ParCsr::distribute(a, part, part, Threads{4});
  auto& cmap = bad.ranks.back().col_map_offd;
  cmap.insert(std::lower_bound(cmap.begin(), cmap.end(), part[15]), part[15]);
  EXPECT_THROW(sparse::Halo::build(bad, Threads{4}), sparse::Error);
}
