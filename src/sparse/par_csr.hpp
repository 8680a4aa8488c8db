#pragma once
/// \file par_csr.hpp
/// \brief Hypre-style distributed CSR matrices and halo exchange patterns.
///
/// Each rank owns a contiguous block of rows.  The local block is split into
/// `diag` (columns owned by this rank, local numbering) and `offd` (columns
/// owned by other ranks, compacted and mapped through `col_map_offd`, sorted
/// ascending by global index).  This is exactly Hypre's ParCSR layout; the
/// `HaloPattern` derived from the offd footprint is the irregular
/// communication pattern the paper optimizes.
///
/// Because the simulator runs all ranks in one process, the "distributed"
/// matrix is a host-side container of per-rank slices; each simulated rank's
/// coroutine only touches its own slice.

#include <span>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/partition.hpp"

namespace sparse {

/// One rank's slice of a distributed matrix.
struct ParCsrRank {
  long first_row = 0;  ///< global index of first owned row
  long first_col = 0;  ///< global index of first owned column
  Csr diag;            ///< local rows x local cols
  Csr offd;            ///< local rows x |col_map_offd|
  std::vector<long> col_map_offd;  ///< compacted offd column -> global column

  int local_rows() const { return diag.rows(); }
  int local_cols() const { return diag.cols(); }

  bool operator==(const ParCsrRank&) const = default;
};

/// A distributed matrix: row/col partitions plus every rank's slice.
struct ParCsr {
  long global_rows = 0;
  long global_cols = 0;
  std::vector<long> row_part;  ///< size P+1
  std::vector<long> col_part;  ///< size P+1
  std::vector<ParCsrRank> ranks;

  int num_ranks() const { return static_cast<int>(ranks.size()); }

  /// Split a global matrix across ranks by the given partitions.  Slices
  /// are built rank-parallel over `threads` workers; every width produces
  /// identical bytes.
  static ParCsr distribute(const Csr& A, std::vector<long> row_part,
                           std::vector<long> col_part, Threads threads = {});

  /// Reassemble the global matrix (testing aid).
  Csr gather() const;

  bool operator==(const ParCsr&) const = default;
};

/// The communication pattern of one rank's halo exchange (Hypre "comm pkg").
///
/// Receive side: values arrive ordered exactly as `col_map_offd` (owners of
/// sorted global ids are encountered in ascending rank order), so the
/// concatenated receive buffer doubles as the offd vector segment.
struct RankHalo {
  std::vector<int> recv_ranks;   ///< ranks we receive from (ascending)
  std::vector<int> recv_counts;  ///< values received from each
  std::vector<int> send_ranks;   ///< ranks we send to (ascending)
  std::vector<int> send_counts;  ///< values sent to each
  /// Concatenated local x-indices to gather, per send rank (displs from
  /// send_counts).
  std::vector<int> send_idx;
  /// Global ids of the gathered values (aligned with send_idx) — the
  /// paper's proposed API extension enabling deduplication.
  std::vector<long> send_gids;
  /// Global ids of the received values (= col_map_offd), aligned with the
  /// receive buffer.
  std::vector<long> recv_gids;

  long total_send() const { return static_cast<long>(send_idx.size()); }
  long total_recv() const { return static_cast<long>(recv_gids.size()); }

  bool operator==(const RankHalo&) const = default;
};

/// Halo patterns of all ranks of a ParCsr.
struct Halo {
  std::vector<RankHalo> ranks;
  /// Derive every rank's halo from the offd footprints; rank-parallel over
  /// `threads` workers, identical bytes at every width.  Throws
  /// sparse::Error if an offd column is owned by the local rank.
  static Halo build(const ParCsr& A, Threads threads = {});

  bool operator==(const Halo&) const = default;
};

/// Local compute part of a distributed SpMV:
/// y = diag * x_local + offd * x_ext.
void spmv_local(const ParCsrRank& a, std::span<const double> x_local,
                std::span<const double> x_ext, std::span<double> y);

/// Split a global vector by a partition (one chunk per rank).
std::vector<std::vector<double>> split_vector(std::span<const double> x,
                                              std::span<const long> part);
/// Concatenate per-rank chunks back into a global vector.
std::vector<double> join_vector(
    const std::vector<std::vector<double>>& chunks);

}  // namespace sparse
