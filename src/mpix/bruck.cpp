/// \file bruck.cpp
/// \brief Locality-aware log-P Bruck dense alltoallv
/// (`AlltoallMethod::bruck`) — the algorithm the reference repository
/// left as a TODO.
///
/// Regions take the role Bruck's algorithm gives to ranks.  Intra-region
/// traffic never enters the rotation (direct p2p, like the neighbor
/// locality method's l phase).  Remote-bound traffic of the whole region
/// is aggregated on one leader and rotated region-by-region:
///
///   fill    — each member ships all its remote-bound values to the
///             region leader in one message; the leader assembles them
///             into a "resident" buffer ordered by distance d = 1..R-1
///             toward destination region (g + d) mod R;
///   rounds  — ⌈log2 R⌉ Bruck rounds: in round k each leader forwards,
///             in one message to the leader of region (g + 2^k) mod R,
///             every resident chunk whose remaining distance has bit k
///             set.  Chunks are never split; arriving chunks either join
///             the resident set at distance d - 2^k or, at distance 0,
///             the final set.  Each region therefore sends exactly one
///             inter-region message per round: R·⌈log2 R⌉ total, versus
///             R·(R-1) for node_aggregated and O(P^2) for standard;
///   deliver — the leader scatters the R-1 arrived chunks to its members
///             (one message each) and into its own recvbuf.
///
/// Everything is precomputed into a `BruckPlan` of value-run copy lists.
/// Determinism: the rotation schedule is a pure function of the
/// region-level traffic matrix T (exchanged collectively, identical on
/// every rank), chunks are enumerated in fixed (distance, arrival) order,
/// and all four channels use collective tags minted in the same order on
/// every rank — so payload movement is identical at every simulator
/// width.  Every rank replays the full R-region rotation symbolically
/// during plan construction; only its own region's gather/keep/merge runs
/// are recorded.

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "mpix/detail.hpp"
#include "mpix/impl.hpp"
#include "mpix/reliable.hpp"

namespace mpix {

namespace coll = simmpi::coll;

namespace {

using simmpi::Comm;
using simmpi::Context;
using simmpi::Request;
using simmpi::SimError;
using simmpi::Task;

/// Apply value-run copies, scaling by the element size.
void copy_runs(std::span<const std::byte> from, std::span<std::byte> to,
               std::span<const BruckPlan::Run> runs, std::size_t es) {
  for (const auto& r : runs)
    std::memcpy(to.data() + static_cast<std::size_t>(r.dst) * es,
                from.data() + static_cast<std::size_t>(r.src) * es,
                static_cast<std::size_t>(r.len) * es);
}

/// Append a run, coalescing with the previous one when contiguous.
void push_run(std::vector<BruckPlan::Run>& v, long long src, long long dst,
              long long len) {
  if (len <= 0) return;
  if (!v.empty() && v.back().src + v.back().len == src &&
      v.back().dst + v.back().len == dst) {
    v.back().len += len;
    return;
  }
  v.push_back({static_cast<long>(src), static_cast<long>(dst),
               static_cast<long>(len)});
}

struct BruckAlltoallv final : NeighborAlltoallv {
  AlltoallvArgs args;
  std::shared_ptr<const BruckPlan> routing;
  Reliability rel;

  std::vector<Request> l_sends, l_recvs;  // direct user-buffer p2p

  // member side (non-leader of a multi-rank region, R > 1)
  bool has_fill = false, has_deliver = false;
  std::vector<std::byte> fill_buf, deliver_buf;
  Request fill_req, deliver_req;

  // leader side
  struct Staged {
    std::span<const BruckPlan::Run> runs;
    std::vector<std::byte> buf;
    Request req;
  };
  std::vector<Staged> fill_recvs;     // per member: msg -> resident
  std::vector<Staged> deliver_sends;  // per member: resident -> msg
  std::vector<std::byte> resident_a, resident_b;
  std::vector<std::byte> round_send, round_recv;
  // Rotation messages cross region (usually network) boundaries, so each
  // direction of a round gets the reliable wrap independently when
  // Options::reliability is on (leaders of adjacent regions can share a
  // node, in which case that direction stays plain).
  struct RoundChan {
    bool send_wrapped = false, recv_wrapped = false;
    Request send, recv;
    impl::RelSend rel_send;
    impl::RelRecv rel_recv;
  };
  std::vector<RoundChan> round_chans;

  Task<> start(Context& ctx) override {
    const std::size_t es = args.element_size;
    // Intra-region traffic goes out immediately.
    for (auto& r : l_sends) r.start(ctx);
    for (auto& r : l_recvs) r.start(ctx);
    if (has_fill) {
      copy_runs(args.sendbuf, fill_buf, routing->fill_gather, es);
      fill_req.start(ctx);
    }
    if (has_deliver) deliver_req.start(ctx);
    if (routing->is_leader && routing->regions > 1) {
      // Assemble the resident buffer: members' remote-bound values plus
      // our own, ordered by distance toward their destination region.
      for (auto& f : fill_recvs) f.req.start(ctx);
      for (auto& f : fill_recvs) {
        co_await ctx.wait(f.req);
        copy_runs(f.buf, resident_a, f.runs, es);
      }
      copy_runs(args.sendbuf, resident_a, routing->fill_self, es);
    }
    co_return;
  }

  Task<> wait(Context& ctx) override {
    const std::size_t es = args.element_size;
    for (auto& r : l_sends) co_await ctx.wait(r);
    for (auto& r : l_recvs) co_await ctx.wait(r);
    if (has_fill) co_await ctx.wait(fill_req);
    if (routing->is_leader && routing->regions > 1) {
      // The rotation.  Rounds are sequential; the resident buffer
      // ping-pongs so keep/merge never overlap their sources.
      std::span<std::byte> cur = resident_a, nxt = resident_b;
      for (std::size_t k = 0; k < round_chans.size(); ++k) {
        const auto& r = routing->rounds[k];
        auto& ch = round_chans[k];
        copy_runs(cur, round_send, r.gather, es);
        if (ch.send_wrapped)
          ch.rel_send.start(ctx);
        else
          ch.send.start(ctx);
        if (ch.recv_wrapped)
          ch.rel_recv.start(ctx);
        else
          ch.recv.start(ctx);
        if (!ch.send_wrapped) co_await ctx.wait(ch.send);
        if (!ch.recv_wrapped) co_await ctx.wait(ch.recv);
        // Multiplexed even for a single pair: the recv peer's lost data
        // may need a retransmit this leader can only trigger by arming
        // its own ack timer (see reliable.hpp).
        co_await impl::finish_channels(
            ctx, rel, {&ch.rel_recv, ch.recv_wrapped ? 1u : 0u},
            {&ch.rel_send, ch.send_wrapped ? 1u : 0u});
        copy_runs(cur, nxt, r.keep, es);
        copy_runs(round_recv, nxt, r.merge, es);
        std::swap(cur, nxt);
      }
      for (auto& d : deliver_sends) {
        copy_runs(cur, d.buf, d.runs, es);
        d.req.start(ctx);
      }
      copy_runs(cur, args.recvbuf, routing->deliver_self, es);
      for (auto& d : deliver_sends) co_await ctx.wait(d.req);
    }
    if (has_deliver) {
      co_await ctx.wait(deliver_req);
      copy_runs(deliver_buf, args.recvbuf, routing->from_leader, es);
    }
  }

  NeighborStats stats() const override { return routing->stats; }
  const char* name() const override { return "bruck"; }
  std::shared_ptr<const PlanBase> plan_base() const override {
    return routing;
  }
};

/// Validate that `args` carries the exact dense pattern `plan` was built
/// for and that the communicator matches the plan's binding fingerprint.
void validate_bruck_args(const BruckPlan& plan, const Comm& comm,
                         const AlltoallvArgs& args) {
  const std::size_t p = static_cast<std::size_t>(comm.size());
  if (plan.sendcounts.size() != p)
    throw SimError("alltoallv bruck: plan was built for " +
                   std::to_string(plan.sendcounts.size()) +
                   " ranks, communicator has " + std::to_string(p));
  if (args.sendcounts != plan.sendcounts || args.sdispls != plan.sdispls ||
      args.recvcounts != plan.recvcounts || args.rdispls != plan.rdispls)
    throw SimError(
        "alltoallv bruck: arguments do not match the pattern the plan was "
        "built for");
}

}  // namespace

Task<std::shared_ptr<const BruckPlan>> impl::build_bruck_plan(
    Context& ctx, Comm comm, AlltoallvArgs args, Options opts) {
  {
    const simmpi::DistGraph graph = impl::dense_graph(comm);
    detail::validate_args(graph, args, /*need_idx=*/false);
  }
  const auto& machine = ctx.engine().machine();
  const int p = comm.size();
  const int me = comm.rank();

  auto plan = std::make_shared<BruckPlan>();
  plan->setup_compute_per_word = opts.setup_compute_per_word;
  plan->binding_fingerprint = detail::binding_fingerprint(comm);
  plan->sendcounts = args.sendcounts;
  plan->sdispls = args.sdispls;
  plan->recvcounts = args.recvcounts;
  plan->rdispls = args.rdispls;

  // ---- region table --------------------------------------------------------
  auto region_of = [&](int local) {
    return machine.region_of(comm.global(local));
  };
  std::vector<int> region_ids(static_cast<std::size_t>(p));
  for (int i = 0; i < p; ++i) region_ids[i] = region_of(i);
  std::sort(region_ids.begin(), region_ids.end());
  region_ids.erase(std::unique(region_ids.begin(), region_ids.end()),
                   region_ids.end());
  const int nregions = static_cast<int>(region_ids.size());
  plan->regions = nregions;
  auto region_index = [&](int rid) {
    return static_cast<int>(
        std::lower_bound(region_ids.begin(), region_ids.end(), rid) -
        region_ids.begin());
  };
  std::vector<std::vector<int>> members(region_ids.size());
  for (int i = 0; i < p; ++i)
    members[region_index(region_of(i))].push_back(i);  // comm-rank order
  const int gi = region_index(region_of(me));
  const auto& mem = members[gi];
  const int nlocal = static_cast<int>(mem.size());
  const int my_core = static_cast<int>(
      std::lower_bound(mem.begin(), mem.end(), me) - mem.begin());
  plan->leader = mem[0];
  plan->is_leader = my_core == 0;

  // ---- l phase: intra-region traffic straight from the arguments ----------
  for (int j : mem) {
    plan->l_sends.push_back({j, args.sdispls[j], args.sendcounts[j]});
    ++plan->stats.local_msgs;
    plan->stats.local_values += args.sendcounts[j];
    plan->l_recvs.push_back({j, args.rdispls[j], args.recvcounts[j]});
  }

  // ---- region-internal metadata: every member's counts ---------------------
  Comm rc = co_await coll::split_by_region(ctx, comm);
  {
    // split_by_region orders members by comm rank; the layouts below
    // depend on that, so fail loudly if it ever changes.
    const auto layout = detail::comm_layout(comm);
    if (rc.size() != nlocal)
      throw SimError("alltoallv bruck: region communicator size mismatch");
    for (int m = 0; m < nlocal; ++m)
      if (layout->g2l[rc.global(m)] != mem[m])
        throw SimError("alltoallv bruck: region communicator order mismatch");
  }
  std::vector<int> meta_mine(2 * static_cast<std::size_t>(p));
  std::copy(args.sendcounts.begin(), args.sendcounts.begin() + p,
            meta_mine.begin());
  std::copy(args.recvcounts.begin(), args.recvcounts.begin() + p,
            meta_mine.begin() + p);
  auto meta = co_await coll::allgatherv<int>(ctx, rc, std::move(meta_mine));
  ctx.compute(opts.setup_compute_per_word * static_cast<double>(meta.size()));
  // scount(m, j): values member m of my region sends to comm rank j.
  // rcount(k, m): values member m of my region receives from comm rank k.
  auto scount = [&](int m, int j) -> long long {
    return meta[static_cast<std::size_t>(m) * 2 * p + j];
  };
  auto rcount = [&](int k, int m) -> long long {
    return meta[static_cast<std::size_t>(m) * 2 * p + p + k];
  };

  // ---- region traffic matrix T (identical on every rank) -------------------
  // Each rank publishes its per-destination-region totals; summing rows by
  // the sender's region gives T[g][q], the basis of the shared symbolic
  // rotation below.
  std::vector<long long> row(static_cast<std::size_t>(nregions), 0);
  for (int j = 0; j < p; ++j)
    row[region_index(region_of(j))] += args.sendcounts[j];
  auto all_rows = co_await coll::allgatherv<long long>(ctx, comm,
                                                       std::move(row));
  ctx.compute(opts.setup_compute_per_word *
              static_cast<double>(all_rows.size()));
  std::vector<long long> T(static_cast<std::size_t>(nregions) * nregions, 0);
  for (int i = 0; i < p; ++i) {
    const int g = region_index(region_of(i));
    for (int q = 0; q < nregions; ++q)
      T[static_cast<std::size_t>(g) * nregions + q] +=
          all_rows[static_cast<std::size_t>(i) * nregions + q];
  }
  auto traffic = [&](int g, int q) -> long long {
    return T[static_cast<std::size_t>(g) * nregions + q];
  };

  // Cross-check sender-declared totals against what my region's members
  // expect to receive: inconsistent count arrays would otherwise corrupt
  // the rotation layout silently.
  for (int s = 0; s < nregions; ++s) {
    if (s == gi) continue;
    long long expected = 0;
    for (int k : members[s])
      for (int m = 0; m < nlocal; ++m) expected += rcount(k, m);
    if (expected != traffic(s, gi))
      throw SimError(
          "alltoallv bruck: send/recv counts are inconsistent (region " +
          std::to_string(s) + " declares " +
          std::to_string(traffic(s, gi)) + " values toward this region, "
          "receivers expect " + std::to_string(expected) + ")");
  }

  if (nregions == 1) co_return plan;  // everything is intra-region

  // ---- symbolic rotation (identical replay on every rank) ------------------
  int nrounds = 0;
  while ((1 << nrounds) < nregions) ++nrounds;

  struct SimChunk {
    int origin;         // region whose data this is
    long long size;     // values
    long long off;      // offset in the holder's resident buffer (-1: in flight)
    long long msg_off;  // offset in the current round's message
  };
  std::vector<std::vector<SimChunk>> fin(region_ids.size());  // arrival order
  std::vector<std::vector<std::vector<SimChunk>>> blocks(region_ids.size());
  for (int g = 0; g < nregions; ++g) {
    blocks[g].resize(region_ids.size());
    for (int d = 1; d < nregions; ++d)
      blocks[g][d].push_back({g, traffic(g, (g + d) % nregions), -1, -1});
  }
  // Resident layout of a region: final chunks in arrival order, then the
  // pending blocks by ascending remaining distance, chunks in list order.
  auto layout_region = [&](int g) -> long long {
    long long off = 0;
    for (auto& c : fin[g]) {
      c.off = off;
      off += c.size;
    }
    for (int d = 1; d < nregions; ++d)
      for (auto& c : blocks[g][d]) {
        c.off = off;
        off += c.size;
      }
    return off;
  };
  long long resident_max = 0;
  for (int g = 0; g < nregions; ++g) {
    const long long tot = layout_region(g);
    if (g == gi) resident_max = tot;
  }
  std::vector<long long> chunk_off0(region_ids.size(), 0);  // epoch-0, my region
  for (int d = 1; d < nregions; ++d) chunk_off0[d] = blocks[gi][d][0].off;

  for (int k = 0; k < nrounds; ++k) {
    const int step = 1 << k;
    BruckPlan::Round round;
    round.send_peer = members[(gi + step) % nregions][0];
    round.recv_peer = members[(gi - step + nregions) % nregions][0];

    // Message layout: moving chunks by ascending distance, list order.
    std::vector<long long> msg_size(region_ids.size(), 0);
    for (int g = 0; g < nregions; ++g) {
      long long mo = 0;
      for (int d = 1; d < nregions; ++d) {
        if (!((d >> k) & 1)) continue;
        for (auto& c : blocks[g][d]) {
          c.msg_off = mo;
          mo += c.size;
        }
      }
      msg_size[g] = mo;
    }
    round.send_values = msg_size[gi];
    round.recv_values = msg_size[(gi - step + nregions) % nregions];
    plan->round_send_max = std::max(plan->round_send_max,
                                    static_cast<long>(round.send_values));
    plan->round_recv_max = std::max(plan->round_recv_max,
                                    static_cast<long>(round.recv_values));
    for (int d = 1; d < nregions; ++d) {
      if (!((d >> k) & 1)) continue;
      for (const auto& c : blocks[gi][d])
        push_run(round.gather, c.off, c.msg_off, c.size);
    }

    // Move the chunks: one hop of 2^k, remaining distance d - 2^k.
    std::vector<std::vector<std::pair<int, SimChunk>>> moved(
        region_ids.size());
    for (int g = 0; g < nregions; ++g) {
      const int dst = (g + step) % nregions;
      for (int d = 1; d < nregions; ++d) {
        if (!((d >> k) & 1)) continue;
        for (auto& c : blocks[g][d]) {
          SimChunk arriving = c;
          arriving.off = -1;
          moved[dst].emplace_back(d - step, arriving);
        }
        blocks[g][d].clear();
      }
    }
    for (int g = 0; g < nregions; ++g)
      for (auto& [dn, c] : moved[g]) {
        if (dn == 0)
          fin[g].push_back(c);
        else
          blocks[g][dn].push_back(c);
      }

    // Re-pack: record my region's keep (still resident) and merge
    // (arriving) runs against the new layout.
    for (int g = 0; g < nregions; ++g) {
      if (g != gi) {
        layout_region(g);
        continue;
      }
      long long off = 0;
      auto place = [&](SimChunk& c) {
        if (c.off >= 0)
          push_run(round.keep, c.off, off, c.size);
        else
          push_run(round.merge, c.msg_off, off, c.size);
        c.off = off;
        off += c.size;
      };
      for (auto& c : fin[gi]) place(c);
      for (int d = 1; d < nregions; ++d)
        for (auto& c : blocks[gi][d]) place(c);
      resident_max = std::max(resident_max, off);
    }

    if (plan->is_leader) {
      ++plan->stats.global_msgs;
      plan->stats.global_values += round.send_values;
      plan->stats.max_global_msg_values =
          std::max(plan->stats.max_global_msg_values,
                   static_cast<long>(round.send_values));
      detail::count_link_crossing(machine, comm.global(comm.rank()),
                                  comm.global(round.send_peer),
                                  static_cast<long>(round.send_values),
                                  plan->stats);
      plan->rounds.push_back(std::move(round));
    }
  }
  plan->resident_values = static_cast<long>(resident_max);
  if (static_cast<int>(fin[gi].size()) != nregions - 1)
    throw SimError("alltoallv bruck: internal rotation error");

  // ---- fill: members -> leader resident buffer -----------------------------
  // Chunk (distance d) interior: member-major rows [k in g ascending], each
  // row the member's segments toward members of (g + d) mod R, j ascending —
  // the member's natural gather order, so each fill message is one
  // contiguous slice per chunk on both sides.
  std::vector<long long> row_out(static_cast<std::size_t>(nlocal) * nregions,
                                 0);
  for (int m = 0; m < nlocal; ++m)
    for (int q = 0; q < nregions; ++q) {
      if (q == gi) continue;
      long long t = 0;
      for (int j : members[q]) t += scount(m, j);
      row_out[static_cast<std::size_t>(m) * nregions + q] = t;
    }
  auto row_out_of = [&](int m, int q) {
    return row_out[static_cast<std::size_t>(m) * nregions + q];
  };

  if (plan->is_leader) {
    for (int d = 1; d < nregions; ++d) {
      const int q = (gi + d) % nregions;
      long long col = 0;
      for (int j : members[q]) {
        push_run(plan->fill_self, args.sdispls[j], chunk_off0[d] + col,
                 scount(0, j));
        col += scount(0, j);
      }
    }
    for (int m = 1; m < nlocal; ++m) {
      BruckPlan::Place f;
      f.peer = mem[m];
      long long pos = 0;
      for (int d = 1; d < nregions; ++d) {
        const int q = (gi + d) % nregions;
        long long rowoff = 0;
        for (int mm = 0; mm < m; ++mm) rowoff += row_out_of(mm, q);
        push_run(f.runs, pos, chunk_off0[d] + rowoff, row_out_of(m, q));
        pos += row_out_of(m, q);
      }
      f.values = pos;
      plan->fill_recvs.push_back(std::move(f));
    }
  } else {
    long long pos = 0;
    for (int d = 1; d < nregions; ++d) {
      const int q = (gi + d) % nregions;
      for (int j : members[q]) {
        push_run(plan->fill_gather, args.sdispls[j], pos, args.sendcounts[j]);
        pos += args.sendcounts[j];
      }
    }
    plan->fill_values = pos;
    ++plan->stats.local_msgs;
    plan->stats.local_values += pos;
  }

  // ---- deliver: leader resident buffer -> members' recvbufs ----------------
  // A final chunk from origin s keeps its epoch-0 interior, so member m's
  // share is one slice per sender rank k in s: row offset sum over earlier
  // senders, column offset sum over earlier members.
  auto row_in = [&](int k) {
    long long t = 0;
    for (int m = 0; m < nlocal; ++m) t += rcount(k, m);
    return t;
  };
  auto col_in = [&](int k, int m) {
    long long t = 0;
    for (int mm = 0; mm < m; ++mm) t += rcount(k, mm);
    return t;
  };
  if (plan->is_leader) {
    for (const auto& c : fin[gi]) {
      long long rowoff = 0;
      for (int k : members[c.origin]) {
        push_run(plan->deliver_self, c.off + rowoff + col_in(k, 0),
                 args.rdispls[k], rcount(k, 0));
        rowoff += row_in(k);
      }
    }
    for (int m = 1; m < nlocal; ++m) {
      BruckPlan::Place d;
      d.peer = mem[m];
      long long pos = 0;
      for (const auto& c : fin[gi]) {
        long long rowoff = 0;
        for (int k : members[c.origin]) {
          push_run(d.runs, c.off + rowoff + col_in(k, m), pos, rcount(k, m));
          pos += rcount(k, m);
          rowoff += row_in(k);
        }
      }
      d.values = pos;
      ++plan->stats.local_msgs;
      plan->stats.local_values += pos;
      plan->delivers.push_back(std::move(d));
    }
  } else {
    long long pos = 0;
    for (const auto& c : fin[gi]) {
      for (int k : members[c.origin]) {
        push_run(plan->from_leader, pos, args.rdispls[k], args.recvcounts[k]);
        pos += args.recvcounts[k];
      }
    }
    plan->from_leader_values = pos;
  }

  // Charge the symbolic rotation and layout computation to this rank.
  ctx.compute(opts.setup_compute_per_word *
              static_cast<double>(static_cast<long long>(nregions) * nregions *
                                      (nrounds + 1) +
                                  2 * p));
  co_return plan;
}

std::unique_ptr<NeighborAlltoallv> impl::bind_bruck(
    Context& ctx, Comm comm, AlltoallvArgs args,
    std::shared_ptr<const BruckPlan> plan, const Options& opts) {
  {
    const simmpi::DistGraph graph = impl::dense_graph(comm);
    detail::validate_args(graph, args, /*need_idx=*/false);
  }
  if (opts.reliability.enabled) impl::validate_reliability(opts.reliability);
  if (plan->binding_fingerprint != 0 &&
      plan->binding_fingerprint != detail::binding_fingerprint(comm))
    throw SimError(
        "alltoallv bruck: plan was built for a different communicator or "
        "machine layout");
  validate_bruck_args(*plan, comm, args);

  const std::size_t es = args.element_size;
  const BruckPlan& p = *plan;
  const int me = comm.rank();

  auto obj = std::make_unique<BruckAlltoallv>();
  obj->args = std::move(args);
  obj->routing = plan;
  obj->rel = opts.reliability;

  const int tag_l = ctx.engine().next_coll_tag(comm);
  const int tag_f = ctx.engine().next_coll_tag(comm);
  const int tag_b = ctx.engine().next_coll_tag(comm);
  const int tag_d = ctx.engine().next_coll_tag(comm);
  // Minted unconditionally when reliability is on so every rank's tag
  // sequence stays uniform, leaders or not.
  const int tag_back =
      opts.reliability.enabled ? ctx.engine().next_coll_tag(comm) : -1;

  for (const auto& m : p.l_sends)
    obj->l_sends.push_back(Request::send(
        comm, obj->args.sendbuf.subspan(m.displ * es, m.count * es), m.peer,
        tag_l));
  for (const auto& m : p.l_recvs)
    obj->l_recvs.push_back(Request::recv(
        comm, obj->args.recvbuf.subspan(m.displ * es, m.count * es), m.peer,
        tag_l));

  if (me != p.leader && p.regions > 1) {
    obj->fill_buf.resize(static_cast<std::size_t>(p.fill_values) * es);
    obj->fill_req = Request::send(
        comm, std::span<const std::byte>(obj->fill_buf), p.leader, tag_f);
    obj->has_fill = true;
    obj->deliver_buf.resize(static_cast<std::size_t>(p.from_leader_values) *
                            es);
    obj->deliver_req = Request::recv(
        comm, std::span<std::byte>(obj->deliver_buf), p.leader, tag_d);
    obj->has_deliver = true;
  }
  if (p.is_leader && p.regions > 1) {
    obj->resident_a.resize(static_cast<std::size_t>(p.resident_values) * es);
    obj->resident_b.resize(static_cast<std::size_t>(p.resident_values) * es);
    obj->round_send.resize(static_cast<std::size_t>(p.round_send_max) * es);
    obj->round_recv.resize(static_cast<std::size_t>(p.round_recv_max) * es);
    for (const auto& r : p.rounds) {
      BruckAlltoallv::RoundChan ch;
      auto sseg = std::span<const std::byte>(obj->round_send)
                      .first(static_cast<std::size_t>(r.send_values) * es);
      auto rseg = std::span<std::byte>(obj->round_recv)
                      .first(static_cast<std::size_t>(r.recv_values) * es);
      ch.send_wrapped =
          impl::wrap_channel(comm, r.send_peer, sseg.size(), obj->rel);
      ch.recv_wrapped =
          impl::wrap_channel(comm, r.recv_peer, rseg.size(), obj->rel);
      if (ch.send_wrapped)
        ch.rel_send = impl::RelSend(comm, sseg, r.send_peer, tag_b, tag_back);
      else
        ch.send = Request::send(comm, sseg, r.send_peer, tag_b);
      if (ch.recv_wrapped)
        ch.rel_recv = impl::RelRecv(comm, rseg, r.recv_peer, tag_b, tag_back);
      else
        ch.recv = Request::recv(comm, rseg, r.recv_peer, tag_b);
      obj->round_chans.push_back(std::move(ch));
    }
    for (const auto& f : p.fill_recvs) {
      BruckAlltoallv::Staged s;
      s.runs = f.runs;
      s.buf.resize(static_cast<std::size_t>(f.values) * es);
      s.req = Request::recv(comm, std::span<std::byte>(s.buf), f.peer, tag_f);
      obj->fill_recvs.push_back(std::move(s));
    }
    for (const auto& d : p.delivers) {
      BruckAlltoallv::Staged s;
      s.runs = d.runs;
      s.buf.resize(static_cast<std::size_t>(d.values) * es);
      s.req = Request::send(comm, std::span<const std::byte>(s.buf), d.peer,
                            tag_d);
      obj->deliver_sends.push_back(std::move(s));
    }
  }

  // Charge the buffer binding work (staging allocation + channel setup).
  ctx.compute(p.setup_compute_per_word *
              static_cast<double>(2 * p.resident_values + p.fill_values +
                                  p.from_leader_values));
  return obj;
}

}  // namespace mpix
