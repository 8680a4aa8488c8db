#include "amg/distribute.hpp"

#include <algorithm>
#include <numeric>

namespace amg {

DistHierarchy distribute_hierarchy(const Hierarchy& h, int nranks) {
  if (nranks < 1)
    throw sparse::Error("distribute_hierarchy: nranks must be >= 1");
  DistHierarchy dh;
  dh.nranks = nranks;
  dh.levels.resize(h.num_levels());

  // Level 0: natural numbering, block partition.
  std::vector<int> perm(h.levels[0].n());
  std::iota(perm.begin(), perm.end(), 0);
  std::vector<long> part = sparse::block_partition(h.levels[0].n(), nranks);

  // Renumbering, slicing and halo derivation inherit the hierarchy's
  // construction-thread knob (their outputs are bit-identical for every
  // width).
  const sparse::Threads bt{h.options.threads};

  for (int l = 0; l < h.num_levels(); ++l) {
    const Level& lvl = h.levels[l];
    DistLevel& dl = dh.levels[l];
    dl.perm = perm;

    const sparse::Csr A_dist =
        l == 0 ? lvl.A : lvl.A.permuted(perm, perm, bt);
    dl.A = sparse::ParCsr::distribute(A_dist, part, part, bt);
    dl.halo = sparse::Halo::build(dl.A, bt);

    if (lvl.is_coarsest() || l + 1 >= h.num_levels()) break;

    // Coarse ownership: inherit from the fine point, then renumber so each
    // rank's coarse points are contiguous, ordered by fine distributed id.
    const int nc = static_cast<int>(lvl.cpoints.size());
    std::vector<int> order(nc);
    std::iota(order.begin(), order.end(), 0);
    std::vector<int> owner(nc);
    std::vector<int> fine_dist(nc);
    for (int j = 0; j < nc; ++j) {
      fine_dist[j] = perm[lvl.cpoints[j]];
      owner[j] = sparse::owner_of(part, fine_dist[j]);
    }
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return owner[a] != owner[b] ? owner[a] < owner[b]
                                  : fine_dist[a] < fine_dist[b];
    });
    std::vector<int> coarse_perm(nc);
    for (int pos = 0; pos < nc; ++pos) coarse_perm[order[pos]] = pos;
    std::vector<int> counts(nranks, 0);
    for (int j = 0; j < nc; ++j) ++counts[owner[j]];
    std::vector<long> coarse_part = sparse::partition_from_counts(counts);

    const sparse::Csr P_dist = lvl.P.permuted(perm, coarse_perm, bt);
    const sparse::Csr R_dist = lvl.R.permuted(coarse_perm, perm, bt);
    dl.P = sparse::ParCsr::distribute(P_dist, part, coarse_part, bt);
    dl.halo_P = sparse::Halo::build(dl.P, bt);
    dl.R = sparse::ParCsr::distribute(R_dist, coarse_part, part, bt);
    dl.halo_R = sparse::Halo::build(dl.R, bt);

    perm = std::move(coarse_perm);
    part = std::move(coarse_part);
  }
  return dh;
}

}  // namespace amg
