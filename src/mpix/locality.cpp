/// \file locality.cpp
/// \brief Locality-aware persistent neighbor alltoallv (Algorithms 4-6).
///
/// Communication is split into four phases (paper Section 3.2):
///   l — fully local: source and destination share a region (direct p2p);
///   s — initial redistribution: each source forwards its remote-bound
///       values to the region's designated leader per destination region;
///   g — one inter-region message per (source region, destination region)
///       pair, from the sending leader to the receiving leader;
///   r — final redistribution from the receiving leader to destinations.
///
/// The implementation is split in two halves matching the public API:
///
///  * `make_locality_plan` (collective) computes every routing decision —
///    gather/scatter index maps, staging layouts, leader assignments — from
///    metadata shared inside each region plus a root-to-root handshake, and
///    stores them in a buffer-free `LocalityPlan`.  The region-wide part
///    (`detail::region_routing`: parsed edges, peer-region pairs, leaders,
///    pair layouts) is identical on every member of a region, so the first
///    member builds it once in the region communicator's host cache and
///    the others share it; each rank then derives only its own maps;
///  * `impl::bind_locality` (purely local) attaches payload buffers and
///    fresh message channels to a plan, scaling all value offsets by the
///    arguments' `element_size`.
///
/// start/wait only move payload.  With `Method::locality_dedup`, values
/// carrying the same user-supplied index cross each region boundary once
/// (Section 3.3).

#include <cstring>
#include <numeric>

#include "mpix/detail.hpp"
#include "mpix/impl.hpp"
#include "mpix/reliable.hpp"
#include "util/flat_map.hpp"

namespace mpix {

namespace coll = simmpi::coll;

namespace {

using detail::Edge;
using detail::PairLayout;
using simmpi::Comm;
using simmpi::Context;
using simmpi::Request;
using simmpi::Task;

/// A staged message bound to its persistent buffer and channel.  The index
/// maps live in the (shared) plan; `buf` holds `element_size`-sized values.
struct BoundGather {
  std::span<const int> gather;  ///< source-array value position per value
  std::vector<std::byte> buf;
  Request req;
};
struct BoundScatter {
  std::span<const int> scatter_src;  ///< payload value position
  std::span<const int> scatter_dst;  ///< destination-array value position
  std::vector<std::byte> buf;
  Request req;
};

void gather_into(std::span<const std::byte> src, std::size_t es,
                 std::span<const int> idx, std::span<std::byte> out) {
  for (std::size_t k = 0; k < idx.size(); ++k)
    std::memcpy(out.data() + k * es, src.data() + idx[k] * es, es);
}

void scatter_from(std::span<const std::byte> buf, std::size_t es,
                  std::span<const int> src, std::span<const int> dst,
                  std::span<std::byte> out) {
  for (std::size_t k = 0; k < dst.size(); ++k)
    std::memcpy(out.data() + dst[k] * es, buf.data() + src[k] * es, es);
}

void copy_values(std::span<const std::byte> from, std::span<const int> src,
                 std::span<std::byte> to, std::span<const int> dst,
                 std::size_t es) {
  for (std::size_t k = 0; k < src.size(); ++k)
    std::memcpy(to.data() + dst[k] * es, from.data() + src[k] * es, es);
}

struct LocalityNeighbor final : NeighborAlltoallv {
  AlltoallvArgs args;
  std::shared_ptr<const LocalityPlan> routing;
  Reliability rel;
  std::vector<std::byte> s_stage, g_stage;
  std::vector<Request> l_sends, l_recvs;  // direct user-buffer p2p
  std::vector<Request> g_sends, g_recvs;  // direct stage-buffer p2p
  // Inter-region channels under Options::reliability (only the g phase
  // crosses the network; l/s/r traffic is intra-node and never dropped).
  std::vector<impl::RelSend> rel_g_sends;
  std::vector<impl::RelRecv> rel_g_recvs;
  std::vector<BoundGather> s_sends, r_sends;
  std::vector<BoundScatter> s_recvs, r_recvs;

  Task<> start(Context& ctx) override {
    const std::size_t es = args.element_size;
    // Fully local traffic goes out immediately (Algorithm 5).
    for (auto& r : l_sends) r.start(ctx);
    for (auto& r : l_recvs) r.start(ctx);
    // Initial redistribution: start AND complete before inter-region.
    for (auto& m : s_sends) {
      gather_into(args.sendbuf, es, m.gather, m.buf);
      m.req.start(ctx);
    }
    copy_values(args.sendbuf, routing->s_self.src, s_stage,
                routing->s_self.dst, es);
    for (auto& m : s_recvs) m.req.start(ctx);
    for (auto& m : s_recvs) {
      co_await ctx.wait(m.req);
      scatter_from(m.buf, es, m.scatter_src, m.scatter_dst, s_stage);
    }
    for (auto& m : s_sends) co_await ctx.wait(m.req);
    // Inter-region messages.
    for (auto& r : g_sends) r.start(ctx);
    for (auto& r : rel_g_sends) r.start(ctx);
    for (auto& r : g_recvs) r.start(ctx);
    for (auto& r : rel_g_recvs) r.start(ctx);
    co_return;
  }

  Task<> wait(Context& ctx) override {
    const std::size_t es = args.element_size;
    // Complete fully local and inter-region traffic (Algorithm 6).
    for (auto& r : l_sends) co_await ctx.wait(r);
    for (auto& r : l_recvs) co_await ctx.wait(r);
    for (auto& r : g_recvs) co_await ctx.wait(r);
    for (auto& r : g_sends) co_await ctx.wait(r);
    // Multiplexed: sequential per-channel finishing can deadlock across
    // leaders on dropped messages (see reliable.hpp).
    co_await impl::finish_channels(ctx, rel, rel_g_recvs, rel_g_sends);
    // Final redistribution.
    for (auto& m : r_sends) {
      gather_into(g_stage, es, m.gather, m.buf);
      m.req.start(ctx);
    }
    copy_values(g_stage, routing->r_self.src, args.recvbuf,
                routing->r_self.dst, es);
    for (auto& m : r_recvs) m.req.start(ctx);
    for (auto& m : r_recvs) {
      co_await ctx.wait(m.req);
      scatter_from(m.buf, es, m.scatter_src, m.scatter_dst, args.recvbuf);
    }
    for (auto& m : r_sends) co_await ctx.wait(m.req);
  }

  NeighborStats stats() const override { return routing->stats; }
  const char* name() const override {
    return routing->dedup ? "locality+dedup" : "locality";
  }
  std::shared_ptr<const LocalityPlan> plan() const override { return routing; }
};

/// Within-pair value offsets (in canonical enumeration order) of `src`'s
/// contribution to a region pair.
std::vector<long> src_item_offsets(const PairLayout& lay,
                                   const std::vector<const Edge*>& pair,
                                   int src, bool dedup) {
  std::vector<long> out;
  if (!dedup) {
    for (std::size_t e = 0; e < pair.size(); ++e)
      if (pair[e]->src == src)
        for (int k = 0; k < pair[e]->count; ++k)
          out.push_back(lay.segments[e].offset + k);
  } else {
    for (const auto& blk : lay.src_blocks)
      if (blk.src == src)
        for (std::size_t k = 0; k < blk.gids.size(); ++k)
          out.push_back(blk.offset + static_cast<long>(k));
  }
  return out;
}

/// Key of the shared RegionRouting in a region communicator's host cache.
constexpr char kRegionRoutingKey = 0;

}  // namespace

Task<std::shared_ptr<const LocalityPlan>> impl::build_locality_plan(
    Context& ctx, const simmpi::DistGraph& graph, AlltoallvArgs args,
    Method method, Options opts) {
  if (!uses_locality(method))
    throw simmpi::SimError(
        "make_locality_plan: Method::standard has no locality plan");
  const bool dedup = needs_idx(method);
  detail::validate_args(graph, args, dedup);
  detail::reject_duplicate_edges(graph);
  const Comm& comm = graph.comm;
  const auto& machine = ctx.engine().machine();
  const auto layout = detail::comm_layout(comm);

  auto plan = std::make_shared<LocalityPlan>();
  plan->dedup = dedup;
  plan->lpt_balance = opts.lpt_balance;
  plan->setup_compute_per_word = opts.setup_compute_per_word;
  plan->binding_fingerprint = layout->fingerprint;
  plan->destinations = graph.destinations;
  plan->sources = graph.sources;
  plan->sendcounts = args.sendcounts;
  plan->sdispls = args.sdispls;
  plan->recvcounts = args.recvcounts;
  plan->rdispls = args.rdispls;
  if (dedup) {
    auto si = args.send_idx.first(args.send_values());
    auto ri = args.recv_idx.first(args.recv_values());
    plan->send_idx.assign(si.begin(), si.end());
    plan->recv_idx.assign(ri.begin(), ri.end());
  }

  const int me = comm.rank();
  auto region_of = [&](int local) {
    return machine.region_of(comm.global(local));
  };
  const int my_region = region_of(me);

  const int tag_hs = ctx.engine().next_coll_tag(comm);

  // ---- l phase: straight from this rank's own arguments ------------------
  util::FlatMap<int, int> dst_index, src_index;
  for (std::size_t i = 0; i < graph.destinations.size(); ++i)
    dst_index[graph.destinations[i]] = static_cast<int>(i);
  for (std::size_t i = 0; i < graph.sources.size(); ++i)
    src_index[graph.sources[i]] = static_cast<int>(i);

  for (std::size_t i = 0; i < graph.destinations.size(); ++i) {
    const int d = graph.destinations[i];
    if (region_of(d) != my_region) continue;
    plan->l_sends.push_back({d, args.sdispls[i], args.sendcounts[i]});
    ++plan->stats.local_msgs;
    plan->stats.local_values += args.sendcounts[i];
  }
  for (std::size_t i = 0; i < graph.sources.size(); ++i) {
    const int s = graph.sources[i];
    if (region_of(s) != my_region) continue;
    plan->l_recvs.push_back({s, args.rdispls[i], args.recvcounts[i]});
  }

  // ---- metadata exchange within the region --------------------------------
  Comm rc = co_await coll::split_by_region(ctx, comm);
  const int nlocal = rc.size();
  const int my_core = rc.rank();
  auto blob = detail::serialize_edges(graph, args, dedup);
  auto all_md = co_await coll::allgatherv<long long>(ctx, rc, std::move(blob));
  ctx.compute(opts.setup_compute_per_word *
              static_cast<double>(all_md.size()));

  // ---- region-wide routing: built once, shared by the region's members ----
  // Every member holds the same gathered metadata, so the first member to
  // get here builds the routing for all.  Each compares its own copy with
  // the builder's, so no member acts on routing derived from metadata it
  // does not hold.
  const auto rt = rc.cache().take<detail::RegionRouting>(
      &kRegionRoutingKey, nlocal, [&] {
        return std::make_shared<const detail::RegionRouting>(
            detail::region_routing(all_md, dedup, opts.lpt_balance, nlocal,
                                   my_region, machine, comm.members()));
      });
  if (rt->metadata != all_md || rt->dedup != dedup ||
      rt->lpt != opts.lpt_balance)
    throw simmpi::SimError(
        "make_locality_plan: region members disagree on the gathered "
        "traffic metadata or plan options");
  const auto& out_pairs = rt->out_pairs;
  const auto& in_pairs = rt->in_pairs;
  const auto& out_leader_core = rt->out_leader_core;
  const auto& in_leader_core = rt->in_leader_core;
  const auto& out_layout = rt->out_layout;
  const auto& in_layout = rt->in_layout;

  // ---- rank translation tables ---------------------------------------------
  const auto& region_root = layout->region_root;
  auto core_to_local = [&](int core) { return layout->g2l[rc.global(core)]; };
  ctx.compute(opts.setup_compute_per_word * comm.size());

  // ---- root handshake: learn peer-region leaders ---------------------------
  // For pair (A -> B): A's root tells B's root A's send leader; B's root
  // tells A's root B's receive leader.  Message ordering per root channel is
  // deterministic (outbound loop before inbound loop on both ends).
  util::FlatMap<int, int> g_dst_leader;  // Q  -> comm-local recv leader in Q
  util::FlatMap<int, int> g_src_leader;  // R' -> comm-local send leader in R'
  std::vector<long long> hs_blob;
  if (me == *region_root.find(my_region)) {
    for (const auto& [q, core] : out_leader_core)
      co_await coll::send_val<long long>(
          ctx, comm, *region_root.find(q), core_to_local(core), tag_hs);
    for (const auto& [rr, core] : in_leader_core)
      co_await coll::send_val<long long>(
          ctx, comm, *region_root.find(rr), core_to_local(core), tag_hs);
    for (const auto& [rr, v] : in_pairs)
      g_src_leader[rr] = static_cast<int>(co_await coll::recv_val<long long>(
          ctx, comm, *region_root.find(rr), tag_hs));
    for (const auto& [q, v] : out_pairs)
      g_dst_leader[q] = static_cast<int>(co_await coll::recv_val<long long>(
          ctx, comm, *region_root.find(q), tag_hs));
    hs_blob.push_back(static_cast<long long>(g_src_leader.size()));
    for (const auto& [rr, l] : g_src_leader) {
      hs_blob.push_back(rr);
      hs_blob.push_back(l);
    }
    hs_blob.push_back(static_cast<long long>(g_dst_leader.size()));
    for (const auto& [q, l] : g_dst_leader) {
      hs_blob.push_back(q);
      hs_blob.push_back(l);
    }
  }
  co_await coll::bcast(ctx, rc, hs_blob, 0);
  if (me != *region_root.find(my_region)) {
    std::size_t pos = 0;
    const long long nin = hs_blob[pos++];
    for (long long i = 0; i < nin; ++i) {
      const int rr = static_cast<int>(hs_blob[pos++]);
      g_src_leader[rr] = static_cast<int>(hs_blob[pos++]);
    }
    const long long nout = hs_blob[pos++];
    for (long long i = 0; i < nout; ++i) {
      const int q = static_cast<int>(hs_blob[pos++]);
      g_dst_leader[q] = static_cast<int>(hs_blob[pos++]);
    }
  }

  // ---- staging buffers -----------------------------------------------------
  std::vector<int> my_out_qs, my_in_rs;
  for (const auto& [q, core] : out_leader_core)
    if (core == my_core) my_out_qs.push_back(q);
  for (const auto& [rr, core] : in_leader_core)
    if (core == my_core) my_in_rs.push_back(rr);

  util::FlatMap<int, long> s_block_off, g_block_off;
  long s_total = 0, g_total = 0;
  for (int q : my_out_qs) {
    s_block_off[q] = s_total;
    s_total += out_layout.find(q)->total;
  }
  for (int rr : my_in_rs) {
    g_block_off[rr] = g_total;
    g_total += in_layout.find(rr)->total;
  }
  plan->s_stage_values = s_total;
  plan->g_stage_values = g_total;

  // ---- g phase --------------------------------------------------------------
  for (int q : my_out_qs) {
    const long total = out_layout.find(q)->total;
    plan->g_sends.push_back({*g_dst_leader.find(q), *s_block_off.find(q), total});
    ++plan->stats.global_msgs;
    plan->stats.global_values += total;
    plan->stats.max_global_msg_values =
        std::max(plan->stats.max_global_msg_values, total);
    detail::count_link_crossing(machine, comm.global(me),
                                comm.global(*g_dst_leader.find(q)), total,
                                plan->stats);
  }
  for (int rr : my_in_rs)
    plan->g_recvs.push_back({*g_src_leader.find(rr), *g_block_off.find(rr),
                             in_layout.find(rr)->total});

  // ---- s phase: source side --------------------------------------------------
  for (int L = 0; L < nlocal; ++L) {
    std::vector<int> gather;
    std::vector<int> self_dst;
    for (const auto& [q, core] : out_leader_core) {
      if (core != L) continue;
      if (!dedup) {
        for (const Edge* e : *out_pairs.find(q)) {
          if (e->src != me) continue;
          const int i = *dst_index.find(e->dst);
          for (int k = 0; k < e->count; ++k)
            gather.push_back(args.sdispls[i] + k);
        }
      } else {
        // Unique gids this rank contributes to Q, each gathered from its
        // first occurrence in the send buffer (keep-first, gid-ascending).
        util::FlatMap<gidx, int> first;
        for (const Edge* e : *out_pairs.find(q)) {
          if (e->src != me) continue;
          const int i = *dst_index.find(e->dst);
          for (int k = 0; k < e->count; ++k) {
            const gidx gid = args.send_idx[args.sdispls[i] + k];
            if (!first.find(gid)) first[gid] = args.sdispls[i] + k;
          }
        }
        for (const auto& [gid, pos] : first) gather.push_back(pos);
      }
      if (L == my_core) {
        for (long off :
             src_item_offsets(*out_layout.find(q), *out_pairs.find(q), me,
                              dedup))
          self_dst.push_back(static_cast<int>(*s_block_off.find(q) + off));
      }
    }
    if (gather.empty()) continue;
    if (L == my_core) {
      plan->s_self.src = std::move(gather);
      plan->s_self.dst = std::move(self_dst);
    } else {
      ++plan->stats.local_msgs;
      plan->stats.local_values += static_cast<long>(gather.size());
      plan->s_sends.push_back({core_to_local(L), std::move(gather)});
    }
  }

  // ---- s phase: leader side ---------------------------------------------------
  if (!my_out_qs.empty()) {
    for (int core = 0; core < nlocal; ++core) {
      const int src = core_to_local(core);
      if (src == me) continue;
      std::vector<int> sc_dst;
      for (int q : my_out_qs)
        for (long off : src_item_offsets(*out_layout.find(q),
                                         *out_pairs.find(q), src, dedup))
          sc_dst.push_back(static_cast<int>(*s_block_off.find(q) + off));
      if (sc_dst.empty()) continue;
      LocalityPlan::ScatterMsg m;
      m.peer = src;
      m.values = static_cast<int>(sc_dst.size());
      m.scatter_dst = std::move(sc_dst);
      m.scatter_src.resize(m.scatter_dst.size());
      std::iota(m.scatter_src.begin(), m.scatter_src.end(), 0);
      plan->s_recvs.push_back(std::move(m));
    }
  }

  // ---- r phase: leader side -----------------------------------------------------
  std::vector<int> self_vals;  // value gather list when I am my own dest
  if (!my_in_rs.empty()) {
    for (int core = 0; core < nlocal; ++core) {
      const int d = core_to_local(core);
      std::vector<int> gather;
      for (int rr : my_in_rs) {
        const auto& pair = *in_pairs.find(rr);
        const auto& lay = *in_layout.find(rr);
        const long block = *g_block_off.find(rr);
        for (std::size_t e = 0; e < pair.size(); ++e) {
          if (pair[e]->dst != d) continue;
          if (!dedup) {
            for (int k = 0; k < pair[e]->count; ++k)
              gather.push_back(
                  static_cast<int>(block + lay.segments[e].offset + k));
          } else {
            for (gidx gid : detail::unique_sorted(pair[e]->gids))
              gather.push_back(
                  static_cast<int>(block + lay.find(pair[e]->src, gid)));
          }
        }
      }
      if (gather.empty()) continue;
      if (d == me) {
        self_vals = std::move(gather);
      } else {
        ++plan->stats.local_msgs;
        plan->stats.local_values += static_cast<long>(gather.size());
        plan->r_sends.push_back({d, std::move(gather)});
      }
    }
  }

  // ---- r phase: destination side ---------------------------------------------
  for (int core = 0; core < nlocal; ++core) {
    std::vector<int> sc_src, sc_dst;
    int value_pos = 0;
    for (const auto& [rr, lcore] : in_leader_core) {
      if (lcore != core) continue;
      for (const Edge* e : *in_pairs.find(rr)) {
        if (e->dst != me) continue;
        const int i = *src_index.find(e->src);
        if (!dedup) {
          for (int k = 0; k < e->count; ++k) {
            sc_src.push_back(value_pos++);
            sc_dst.push_back(args.rdispls[i] + k);
          }
        } else {
          const auto u = detail::unique_sorted(e->gids);
          for (std::size_t ui = 0; ui < u.size(); ++ui)
            for (int k = 0; k < e->count; ++k)
              if (args.recv_idx[args.rdispls[i] + k] == u[ui]) {
                sc_src.push_back(value_pos + static_cast<int>(ui));
                sc_dst.push_back(args.rdispls[i] + k);
              }
          value_pos += static_cast<int>(u.size());
        }
      }
    }
    if (sc_dst.empty()) continue;
    if (core == my_core) {
      // I am my own in-leader: resolve through the value list computed on
      // the leader side.
      plan->r_self.src.resize(sc_dst.size());
      plan->r_self.dst = sc_dst;
      for (std::size_t k = 0; k < sc_dst.size(); ++k)
        plan->r_self.src[k] = self_vals[sc_src[k]];
    } else {
      LocalityPlan::ScatterMsg m;
      m.peer = core_to_local(core);
      m.values = value_pos;
      m.scatter_src = std::move(sc_src);
      m.scatter_dst = std::move(sc_dst);
      plan->r_recvs.push_back(std::move(m));
    }
  }

  // Charge the routing computation (index map building) to this rank.
  ctx.compute(opts.setup_compute_per_word *
              static_cast<double>(s_total + g_total + rt->out_edges.size() +
                                  rt->in_edges.size() + nlocal));
  co_return plan;
}

std::unique_ptr<NeighborAlltoallv> impl::bind_locality(
    Context& ctx, const simmpi::DistGraph& graph, AlltoallvArgs args,
    std::shared_ptr<const LocalityPlan> plan, const Options& opts) {
  detail::validate_plan_args(*plan, graph, args);
  if (opts.reliability.enabled) impl::validate_reliability(opts.reliability);
  const Comm& comm = graph.comm;
  const std::size_t es = args.element_size;
  const LocalityPlan& p = *plan;

  auto obj = std::make_unique<LocalityNeighbor>();
  obj->args = std::move(args);
  obj->routing = plan;
  obj->rel = opts.reliability;
  obj->s_stage.resize(p.s_stage_values * es);
  obj->g_stage.resize(p.g_stage_values * es);

  const int tag_l = ctx.engine().next_coll_tag(comm);
  const int tag_s = ctx.engine().next_coll_tag(comm);
  const int tag_g = ctx.engine().next_coll_tag(comm);
  const int tag_r = ctx.engine().next_coll_tag(comm);
  // Minted unconditionally when reliability is on so every rank's tag
  // sequence stays uniform, leaders or not.
  const int tag_gack =
      opts.reliability.enabled ? ctx.engine().next_coll_tag(comm) : -1;

  for (const auto& m : p.l_sends)
    obj->l_sends.push_back(Request::send(
        comm, obj->args.sendbuf.subspan(m.displ * es, m.count * es), m.peer,
        tag_l));
  for (const auto& m : p.l_recvs)
    obj->l_recvs.push_back(Request::recv(
        comm, obj->args.recvbuf.subspan(m.displ * es, m.count * es), m.peer,
        tag_l));

  for (const auto& m : p.g_sends) {
    auto seg = std::span<const std::byte>(obj->s_stage)
                   .subspan(m.offset * es, m.count * es);
    if (impl::wrap_channel(comm, m.peer, seg.size(), obj->rel))
      obj->rel_g_sends.push_back(
          impl::RelSend(comm, seg, m.peer, tag_g, tag_gack));
    else
      obj->g_sends.push_back(Request::send(comm, seg, m.peer, tag_g));
  }
  for (const auto& m : p.g_recvs) {
    auto seg = std::span<std::byte>(obj->g_stage)
                   .subspan(m.offset * es, m.count * es);
    if (impl::wrap_channel(comm, m.peer, seg.size(), obj->rel))
      obj->rel_g_recvs.push_back(
          impl::RelRecv(comm, seg, m.peer, tag_g, tag_gack));
    else
      obj->g_recvs.push_back(Request::recv(comm, seg, m.peer, tag_g));
  }

  auto bind_gather = [&](const LocalityPlan::GatherMsg& m, int tag) {
    BoundGather b;
    b.gather = m.gather;
    b.buf.resize(m.gather.size() * es);
    b.req = Request::send(comm, std::span<const std::byte>(b.buf), m.peer, tag);
    return b;
  };
  auto bind_scatter = [&](const LocalityPlan::ScatterMsg& m, int tag) {
    BoundScatter b;
    b.scatter_src = m.scatter_src;
    b.scatter_dst = m.scatter_dst;
    b.buf.resize(static_cast<std::size_t>(m.values) * es);
    b.req = Request::recv(comm, std::span<std::byte>(b.buf), m.peer, tag);
    return b;
  };
  for (const auto& m : p.s_sends) obj->s_sends.push_back(bind_gather(m, tag_s));
  for (const auto& m : p.s_recvs)
    obj->s_recvs.push_back(bind_scatter(m, tag_s));
  for (const auto& m : p.r_sends) obj->r_sends.push_back(bind_gather(m, tag_r));
  for (const auto& m : p.r_recvs)
    obj->r_recvs.push_back(bind_scatter(m, tag_r));

  // Charge the buffer binding work (staging allocation + channel setup).
  ctx.compute(p.setup_compute_per_word *
              static_cast<double>(p.s_stage_values + p.g_stage_values));
  return obj;
}

}  // namespace mpix
