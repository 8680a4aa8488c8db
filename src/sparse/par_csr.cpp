#include "sparse/par_csr.hpp"

#include <algorithm>

#include "util/worker_pool.hpp"

namespace sparse {

namespace {

/// Per-worker scratch of split_slice, indexed by global column: the last
/// rank whose offd footprint listed the column, and the column's offd index
/// in that rank's slice.  Rank ids are distinct, so the table never needs
/// a reset between the ranks a worker splits.
struct ColumnScratch {
  std::vector<int> seen_by;
  std::vector<int> offd_index;
  explicit ColumnScratch(int cols) : seen_by(cols, -1), offd_index(cols) {}
};

/// Rank `r`'s slice: rows [r0, r1) of A, columns [c0, c1) local.  A's rows
/// hold strictly ascending columns without duplicates, so each row splits
/// straight into diag/offd rows that are already sorted — the same arrays
/// Csr::from_triplets would build from the slice's entries, without the
/// triplets or the sort.
ParCsrRank split_slice(const Csr& A, int r, long r0, long r1, long c0,
                       long c1, ColumnScratch& sc) {
  ParCsrRank slice;
  slice.first_row = r0;
  slice.first_col = c0;
  const int nrows = static_cast<int>(r1 - r0);
  const auto owned = [&](int c) { return c >= c0 && c < c1; };

  // Count pass: row lengths of both blocks, plus the offd column footprint
  // (global ids), sorted unique.
  std::vector<long> diag_ptr(nrows + 1, 0), offd_ptr(nrows + 1, 0);
  std::vector<long>& offd_cols = slice.col_map_offd;
  for (int lr = 0; lr < nrows; ++lr) {
    for (int c : A.row_cols(static_cast<int>(r0 + lr))) {
      if (owned(c)) {
        ++diag_ptr[lr + 1];
      } else {
        ++offd_ptr[lr + 1];
        if (sc.seen_by[c] != r) {
          sc.seen_by[c] = r;
          offd_cols.push_back(c);
        }
      }
    }
  }
  std::sort(offd_cols.begin(), offd_cols.end());
  for (std::size_t i = 0; i < offd_cols.size(); ++i)
    sc.offd_index[offd_cols[i]] = static_cast<int>(i);
  const long diag_nnz = util::exclusive_scan_counts(diag_ptr);
  const long offd_nnz = util::exclusive_scan_counts(offd_ptr);

  // Fill pass.  offd_cols is sorted, so offd indices ascend along a row.
  std::vector<int> diag_col(diag_nnz), offd_col(offd_nnz);
  std::vector<double> diag_val(diag_nnz), offd_val(offd_nnz);
  long d = 0, o = 0;
  for (int lr = 0; lr < nrows; ++lr) {
    const auto cols = A.row_cols(static_cast<int>(r0 + lr));
    const auto vals = A.row_vals(static_cast<int>(r0 + lr));
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (owned(cols[k])) {
        diag_col[d] = static_cast<int>(cols[k] - c0);
        diag_val[d++] = vals[k];
      } else {
        offd_col[o] = sc.offd_index[cols[k]];
        offd_val[o++] = vals[k];
      }
    }
  }
  slice.diag = Csr::from_raw(nrows, static_cast<int>(c1 - c0),
                             std::move(diag_ptr), std::move(diag_col),
                             std::move(diag_val));
  slice.offd = Csr::from_raw(nrows, static_cast<int>(offd_cols.size()),
                             std::move(offd_ptr), std::move(offd_col),
                             std::move(offd_val));
  return slice;
}

/// Worker pool for a pass over `p` ranks (never wider than `p`).
int rank_width(Threads threads, int p) {
  return std::max(1, std::min(threads.resolved(), p));
}

}  // namespace

ParCsr ParCsr::distribute(const Csr& A, std::vector<long> row_part,
                          std::vector<long> col_part, Threads threads) {
  if (row_part.size() != col_part.size())
    throw Error("ParCsr::distribute: partition size mismatch");
  if (row_part.back() != A.rows() || col_part.back() != A.cols())
    throw Error("ParCsr::distribute: partition does not cover matrix");
  const int p = static_cast<int>(row_part.size()) - 1;

  ParCsr out;
  out.global_rows = A.rows();
  out.global_cols = A.cols();
  out.row_part = std::move(row_part);
  out.col_part = std::move(col_part);
  out.ranks.resize(p);

  // Each rank's slice is a function of A and the partitions alone, written
  // to its own preallocated out.ranks[r]: identical bytes at every width.
  // Scratch costs 8 bytes per column per worker; the width cap keeps the
  // total within ~256 MiB (wall-time-only, like every kernel width cap).
  const long scratch_per_worker = 8L * A.cols();
  const int nt = std::min(
      rank_width(threads, p),
      static_cast<int>(std::clamp<long>(
          (256L << 20) / std::max(1L, scratch_per_worker), 1, 512)));
  std::vector<ColumnScratch> scratch(nt, ColumnScratch(A.cols()));
  util::WorkerPool pool(nt);
  pool.run(p, 1, [&](std::size_t b, std::size_t e, int w) {
    for (std::size_t r = b; r < e; ++r)
      out.ranks[r] = split_slice(A, static_cast<int>(r), out.row_part[r],
                                 out.row_part[r + 1], out.col_part[r],
                                 out.col_part[r + 1], scratch[w]);
  });
  return out;
}

Csr ParCsr::gather() const {
  std::vector<Triplet> tr;
  for (int r = 0; r < num_ranks(); ++r) {
    const ParCsrRank& slice = ranks[r];
    for (int lr = 0; lr < slice.local_rows(); ++lr) {
      const int grow = static_cast<int>(slice.first_row + lr);
      auto dc = slice.diag.row_cols(lr);
      auto dv = slice.diag.row_vals(lr);
      for (std::size_t k = 0; k < dc.size(); ++k)
        tr.push_back(Triplet{grow, static_cast<int>(slice.first_col + dc[k]),
                             dv[k]});
      auto oc = slice.offd.row_cols(lr);
      auto ov = slice.offd.row_vals(lr);
      for (std::size_t k = 0; k < oc.size(); ++k)
        tr.push_back(Triplet{
            grow, static_cast<int>(slice.col_map_offd[oc[k]]), ov[k]});
    }
  }
  return Csr::from_triplets(static_cast<int>(global_rows),
                            static_cast<int>(global_cols), std::move(tr));
}

Halo Halo::build(const ParCsr& A, Threads threads) {
  const int p = A.num_ranks();
  Halo h;
  h.ranks.resize(p);
  util::WorkerPool pool(rank_width(threads, p));

  // Receive side, straight from each rank's offd footprint.
  pool.run(p, 1, [&](std::size_t b, std::size_t e, int) {
    for (std::size_t q = b; q < e; ++q) {
      RankHalo& hq = h.ranks[q];
      hq.recv_gids = A.ranks[q].col_map_offd;
      // Gids ascend, so owners do too: search only past the current
      // owner's last column.
      int owner = -1;
      for (long gid : hq.recv_gids) {
        if (owner < 0 || gid >= A.col_part[owner + 1]) {
          owner = owner_of(A.col_part, gid);
          if (owner == static_cast<int>(q))
            throw Error("Halo::build: offd column owned by the local rank");
          hq.recv_ranks.push_back(owner);
          hq.recv_counts.push_back(0);
        }
        ++hq.recv_counts.back();
      }
    }
  });

  // Send side: invert.  One serial pass lists each sender's segments —
  // (receiver, offset into its recv_gids, count) — in ascending receiver
  // order, which keeps send lists sorted by (destination, global id).
  struct Segment {
    int to;
    long pos;
    int count;
  };
  std::vector<long> seg_ptr(p + 1, 0);
  for (const RankHalo& hq : h.ranks)
    for (int s : hq.recv_ranks) ++seg_ptr[s + 1];
  std::vector<Segment> segs(util::exclusive_scan_counts(seg_ptr));
  std::vector<long> next(seg_ptr.begin(), seg_ptr.end() - 1);
  for (int q = 0; q < p; ++q) {
    const RankHalo& hq = h.ranks[q];
    long pos = 0;
    for (std::size_t i = 0; i < hq.recv_ranks.size(); ++i) {
      segs[next[hq.recv_ranks[i]]++] = Segment{q, pos, hq.recv_counts[i]};
      pos += hq.recv_counts[i];
    }
  }

  // Then every sender fills its own lists from its segments.
  pool.run(p, 1, [&](std::size_t b, std::size_t e, int) {
    for (std::size_t s = b; s < e; ++s) {
      RankHalo& hs = h.ranks[s];
      const long first = A.col_part[s];
      long total = 0;
      for (long k = seg_ptr[s]; k < seg_ptr[s + 1]; ++k) total += segs[k].count;
      hs.send_idx.reserve(total);
      hs.send_gids.reserve(total);
      for (long k = seg_ptr[s]; k < seg_ptr[s + 1]; ++k) {
        const Segment& seg = segs[k];
        hs.send_ranks.push_back(seg.to);
        hs.send_counts.push_back(seg.count);
        const auto gids = std::span<const long>(h.ranks[seg.to].recv_gids)
                              .subspan(seg.pos, seg.count);
        for (long gid : gids) {
          hs.send_idx.push_back(static_cast<int>(gid - first));
          hs.send_gids.push_back(gid);
        }
      }
    }
  });
  return h;
}

void spmv_local(const ParCsrRank& a, std::span<const double> x_local,
                std::span<const double> x_ext, std::span<double> y) {
  a.diag.spmv(x_local, y);
  a.offd.spmv_add(x_ext, y);
}

std::vector<std::vector<double>> split_vector(std::span<const double> x,
                                              std::span<const long> part) {
  if (static_cast<long>(x.size()) != part.back())
    throw Error("split_vector: size mismatch");
  std::vector<std::vector<double>> out(part.size() - 1);
  for (std::size_t r = 0; r + 1 < part.size(); ++r)
    out[r].assign(x.begin() + part[r], x.begin() + part[r + 1]);
  return out;
}

std::vector<double> join_vector(
    const std::vector<std::vector<double>>& chunks) {
  std::vector<double> out;
  for (const auto& c : chunks) out.insert(out.end(), c.begin(), c.end());
  return out;
}

}  // namespace sparse
