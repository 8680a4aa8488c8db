#pragma once
/// \file detail.hpp
/// \brief Pure (communication-free) helpers behind the locality-aware
/// neighbor collectives: argument validation, traffic metadata
/// serialization, leader load balancing, and the canonical layout of
/// inter-region messages.  Kept separate so the logic is unit-testable
/// without the simulator.

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "mpix/neighbor.hpp"
#include "util/flat_map.hpp"

namespace mpix::detail {

/// Validate counts/displacements against the graph and buffers (in values,
/// scaled by `args.element_size`); with `need_idx`, also require
/// send_idx/recv_idx covering the buffers.
void validate_args(const simmpi::DistGraph& graph, const AlltoallvArgs& args,
                   bool need_idx);

/// Reject duplicate entries in the graph's destination or source lists.
/// The standard method delivers duplicates deterministically (all segments
/// toward one peer share a tag; the engine's phase commit keeps each
/// (src, dst, tag) channel FIFO in program order), but the locality
/// methods key routing tables by peer rank, which would collapse
/// duplicate edges and misroute their segments — so plan construction
/// refuses them up front.  Throws SimError naming the duplicated rank.
void reject_duplicate_edges(const simmpi::DistGraph& graph);

/// Fingerprint of a communicator's membership and the machine's region
/// layout over it — what a LocalityPlan's comm-local peer ranks are only
/// valid against (see LocalityPlan::binding_fingerprint).  Mixes the
/// switch-hierarchy radixes (not the tapers, which only scale costs), so
/// a plan's per-tier link counters cannot be reused on a different tree
/// shape but survive a taper sweep.
///
/// Taken against the communicator's own engine machine.  O(P) to compute,
/// so it is computed once per communicator and read from comm_layout().
std::uint64_t binding_fingerprint(const simmpi::Comm& comm);

/// O(P) tables of one communicator on its engine's machine, which every
/// plan build on the communicator needs and which depend on nothing else.
struct CommLayout {
  std::uint64_t fingerprint = 0;  ///< binding_fingerprint(comm)
  std::vector<int> g2l;  ///< global rank -> comm-local rank (-1: no member)
  util::FlatMap<int, int> region_root;  ///< region -> smallest local rank
};

/// The communicator's CommLayout, built by the first member to ask and
/// kept in the communicator's host cache (simmpi::CommCache) for its
/// lifetime; every member and every later plan build shares it.
std::shared_ptr<const CommLayout> comm_layout(const simmpi::Comm& comm);

/// Accumulate `stats.link_msgs` / `link_values` for one network message
/// from global rank `gsrc` to `gdst`: one count per link tier the pair's
/// LCA path crosses.  No-op on flat machines and for pairs under one leaf
/// switch (including same-node pairs), mirroring what the engine charges.
void count_link_crossing(const simmpi::Machine& machine, int gsrc, int gdst,
                         long values, NeighborStats& stats);

/// Validate that `args` carries the exact pattern `plan` was built for
/// (adjacency, counts, displacements, and — for dedup plans — the index
/// annotations the routing depends on), and that the graph's communicator
/// and machine match the plan's binding fingerprint (skipped when the plan
/// carries none).  Throws SimError on any mismatch.
void validate_plan_args(const LocalityPlan& plan,
                        const simmpi::DistGraph& graph,
                        const AlltoallvArgs& args);

/// One directed traffic edge between comm-local ranks, as shared inside a
/// region during setup.
struct Edge {
  int src = -1;
  int dst = -1;
  int count = 0;
  std::vector<gidx> gids;  ///< per-value indices (dedup mode only)

  friend bool operator<(const Edge& a, const Edge& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  }
};

/// Serialize this rank's out/in edges (graph adjacency + counts + indices).
std::vector<long long> serialize_edges(const simmpi::DistGraph& graph,
                                       const AlltoallvArgs& args, bool dedup);

/// Parse concatenated rank blobs back into edge lists.  `out_edges` gets
/// one entry per (publisher, destination), `in_edges` one per (source,
/// publisher).
void parse_edges(std::span<const long long> data, bool dedup,
                 std::vector<Edge>& out_edges, std::vector<Edge>& in_edges);

/// Assign each region (loads given as (region id, total values), sorted by
/// region id) to one of `nlocal` local cores.  Returns core indices aligned
/// with `loads`.  `lpt` = longest-processing-time balancing; otherwise
/// round-robin.  Deterministic, so every region member computes the same
/// assignment.
std::vector<int> assign_leaders(std::span<const std::pair<int, long>> loads,
                                int nlocal, bool lpt);

/// Canonical composition of the single inter-region message of one region
/// pair, derived from the pair's edge set (sorted ascending by (src, dst)).
/// Both the sending and the receiving region compute this independently
/// from their own copy of the metadata and must agree; hence everything is
/// deterministic in the edge set.
struct PairLayout {
  long total = 0;  ///< values crossing the region boundary

  /// Partial (no dedup): one contiguous segment per edge, in edge order.
  struct Segment {
    int edge_index;  ///< into the pair's (sorted) edge vector
    long offset;     ///< value offset within the message
  };
  std::vector<Segment> segments;

  /// Dedup: per source rank, sorted unique gids at a block offset.
  struct SrcBlock {
    int src;
    long offset;
    std::vector<gidx> gids;  ///< sorted ascending, unique
  };
  std::vector<SrcBlock> src_blocks;

  /// Dedup: value offset of `gid` within the message for source `src`.
  long find(int src, gidx gid) const;
};

PairLayout pair_layout(std::span<const Edge* const> edges, bool dedup);

/// Sorted unique gids of one edge's value list.
std::vector<gidx> unique_sorted(std::span<const gidx> gids);

/// The region-wide half of a locality plan (Algorithms 4-6): everything a
/// region derives from its members' gathered traffic metadata, before any
/// member picks out its own gather/scatter maps.  Identical on every
/// member of the region, so one member builds it for all.
struct RegionRouting {
  std::vector<long long> metadata;  ///< the gathered blob it derives from
  bool dedup = false;
  bool lpt = false;
  /// Parsed edges in comm-local ranks, sorted by (src, dst).
  std::vector<Edge> out_edges, in_edges;
  /// Peer region -> the edges crossing to / from it (pointers into
  /// out_edges / in_edges, in edge order), ascending region ids.
  util::FlatMap<int, std::vector<const Edge*>> out_pairs, in_pairs;
  /// (peer region, values crossing), aligned with out_pairs / in_pairs.
  std::vector<std::pair<int, long>> out_loads, in_loads;
  /// Peer region -> region-local core (rank in the region communicator)
  /// that sends to it / receives from it.
  util::FlatMap<int, int> out_leader_core, in_leader_core;
  /// Peer region -> layout of the pair's single inter-region message.
  util::FlatMap<int, PairLayout> out_layout, in_layout;

  RegionRouting() = default;
  RegionRouting(RegionRouting&&) = default;
  RegionRouting& operator=(RegionRouting&&) = default;
  // Not copyable: the pair maps point into this object's edge vectors.
  RegionRouting(const RegionRouting&) = delete;
  RegionRouting& operator=(const RegionRouting&) = delete;
};

/// Build region `my_region`'s routing from `all_md`, the concatenated
/// serialize_edges() blobs of its `nlocal` members.  `members` maps the
/// parent communicator's local ranks (the ranks the blobs name) to global
/// ranks, which `machine` places in regions.  Leaders are assigned by LPT
/// when `lpt`, else round-robin.  Pure and deterministic in its inputs.
RegionRouting region_routing(std::span<const long long> all_md, bool dedup,
                             bool lpt, int nlocal, int my_region,
                             const simmpi::Machine& machine,
                             std::span<const int> members);

}  // namespace mpix::detail
