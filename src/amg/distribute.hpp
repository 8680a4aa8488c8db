#pragma once
/// \file distribute.hpp
/// \brief Rank-aware distribution of an AMG hierarchy (Hypre renumbering).
///
/// Every coarse point inherits the owner rank of its fine point; coarse
/// points are then renumbered so each rank owns a contiguous block, ordered
/// by (owner, fine distributed index) — exactly how BoomerAMG numbers coarse
/// grids.  The result is, per level, a ParCSR operator plus its halo
/// pattern (the irregular communication the paper optimizes), and the
/// distributed transfer operators needed to run a distributed V-cycle.

#include "amg/hierarchy.hpp"
#include "sparse/par_csr.hpp"

namespace amg {

/// One distributed level.
struct DistLevel {
  sparse::ParCsr A;
  sparse::Halo halo;  ///< SpMV halo of A (the measured pattern)

  // Transfer operators to the next-coarser level (empty on coarsest).
  sparse::ParCsr P;
  sparse::Halo halo_P;
  sparse::ParCsr R;
  sparse::Halo halo_R;

  /// canonical id -> distributed id at this level.
  std::vector<int> perm;

  bool has_coarse() const { return P.global_rows != 0; }
  long n() const { return A.global_rows; }

  bool operator==(const DistLevel&) const = default;
};

/// A hierarchy distributed over `nranks` ranks.
struct DistHierarchy {
  std::vector<DistLevel> levels;
  int nranks = 0;

  int num_levels() const { return static_cast<int>(levels.size()); }

  bool operator==(const DistHierarchy&) const = default;
};

/// Distribute a canonical hierarchy over `nranks` ranks (block partition of
/// the fine grid; inherited ownership below).  Renumbering, slicing and
/// halo derivation run on `h.options.threads` workers; every width gives
/// identical bytes.
DistHierarchy distribute_hierarchy(const Hierarchy& h, int nranks);

}  // namespace amg
