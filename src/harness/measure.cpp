#include "harness/measure.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <optional>

#include "sparse/stencil.hpp"

namespace harness {

using simmpi::Context;
using simmpi::Engine;
using simmpi::Machine;
using simmpi::Task;

namespace {

/// Deterministic test value for global row id `g`.
double x_value(long g) { return 0.5 * static_cast<double>(g) + 1.0; }

Machine machine_for(int nranks, const MeasureConfig& cfg) {
  if (cfg.regions_per_node <= 1) {
    Machine m = Machine::with_region_size(nranks, cfg.ranks_per_region);
    if (cfg.switch_levels.empty()) return m;
    simmpi::MachineConfig mc = m.config();
    mc.switch_levels = cfg.switch_levels;
    return Machine(mc);
  }
  const int per_node = cfg.regions_per_node * cfg.ranks_per_region;
  if (nranks % per_node != 0)
    throw simmpi::SimError(
        "MeasureConfig: nranks must be a multiple of regions_per_node * "
        "ranks_per_region (" +
        std::to_string(nranks) + " % " + std::to_string(per_node) + " != 0)");
  return Machine({.num_nodes = nranks / per_node,
                  .regions_per_node = cfg.regions_per_node,
                  .ranks_per_region = cfg.ranks_per_region,
                  .switch_levels = cfg.switch_levels});
}

Engine::Options engine_opts(const MeasureConfig& cfg) {
  return Engine::Options{.threads = cfg.threads};
}

/// Deterministic payload byte for the dense alltoall: byte `b` of value
/// `k` of the (src -> dst) segment.
std::byte dense_byte(int src, int dst, long k, std::size_t b) {
  return static_cast<std::byte>(
      (src * 131 + dst * 31 + k * 7 + static_cast<long>(b) * 13) & 0xff);
}

std::uint64_t dense_mix(std::uint64_t h, std::uint64_t v) {
  return (h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2)));
}

/// Mix the switch-hierarchy *radixes* into a plan-cache key.  Tapers are
/// deliberately excluded — they only scale link costs, never the plan —
/// so a taper sweep re-binds cached plans instead of rebuilding them;
/// cross-shape reuse is additionally rejected by the plan's own binding
/// fingerprint.
std::uint64_t mix_switch_shape(std::uint64_t h, const MeasureConfig& cfg) {
  h = dense_mix(h, static_cast<std::uint64_t>(cfg.switch_levels.size()));
  for (const simmpi::SwitchLevel& lvl : cfg.switch_levels)
    h = dense_mix(h, static_cast<std::uint64_t>(lvl.radix));
  return h;
}

/// Plan-cache key of a uniform dense pattern.  Plans are independent of
/// the element size (all offsets are in values), so it is excluded; the
/// machine shape and method are what binding validates against.
std::uint64_t dense_cache_key(int nranks, int count,
                              mpix::AlltoallMethod method,
                              const MeasureConfig& cfg) {
  std::uint64_t h = 0xd05eA77A11ull;  // dense-alltoall salt
  h = dense_mix(h, static_cast<std::uint64_t>(nranks));
  h = dense_mix(h, static_cast<std::uint64_t>(count));
  h = dense_mix(h, static_cast<std::uint64_t>(method));
  h = dense_mix(h, static_cast<std::uint64_t>(cfg.ranks_per_region));
  h = dense_mix(h, cfg.lpt_balance ? 1 : 0);
  h = mix_switch_shape(h, cfg);
  return h;
}

/// Plan-cache key of a generated workload.  The workload fingerprint
/// already covers adjacency, counts and the gid seed; the method, machine
/// shape and leader strategy are mixed in because they change the plan.
/// Element size is excluded (plan offsets are in values).  The dense and
/// sparse paths use distinct salts so their keys cannot collide.
std::uint64_t pattern_cache_key(const patterns::Workload& wl,
                                std::uint64_t salt, std::uint64_t method,
                                const MeasureConfig& cfg) {
  std::uint64_t h = salt;
  h = dense_mix(h, wl.fingerprint());
  h = dense_mix(h, method);
  h = dense_mix(h, static_cast<std::uint64_t>(cfg.ranks_per_region));
  h = dense_mix(h, static_cast<std::uint64_t>(cfg.regions_per_node));
  h = dense_mix(h, cfg.lpt_balance ? 1 : 0);
  h = mix_switch_shape(h, cfg);
  return h;
}

/// Shared engine body of measure_pattern / measure_pattern_dense: `init`
/// builds the collective (charging its setup against the clock), then the
/// blocking and overlapped windows run and verify.  `Init` is a callable
/// `(Context&, AlltoallvArgs, Options) -> Task<unique_ptr<...>>`.
template <class Init>
PatternMeasurement run_pattern(const patterns::Workload& wl,
                               const MeasureConfig& cfg,
                               std::size_t element_size, bool cacheable,
                               std::uint64_t key, const char* what,
                               bool dense, Init init) {
  const int p = wl.nranks;
  Engine eng(machine_for(p, cfg), cfg.cost, engine_opts(cfg));
  if (cfg.faults) eng.set_fault_plan(*cfg.faults);
  std::vector<double> init_elapsed(p, 0.0), block_elapsed(p, 0.0),
      overlap_elapsed(p, 0.0);
  std::vector<mpix::NeighborStats> stats(p);
  std::vector<std::vector<Engine::LinkStats>> link_stats(p);
  std::vector<Engine::FaultStats> fault_block(p), fault_overlap(p);

  eng.run([&](Context& ctx) -> Task<> {
    const int r = ctx.rank();
    patterns::RankBuffers buf = patterns::make_buffers(wl, r, element_size);
    mpix::AlltoallvArgs args =
        dense ? patterns::dense_args_view(wl, r, buf, element_size)
              : patterns::args_view(wl, r, buf, element_size);

    mpix::Options mopts;
    mopts.lpt_balance = cfg.lpt_balance;
    mopts.reliability = cfg.reliability;
    std::shared_ptr<const mpix::PlanBase> cached;  // keeps the plan alive
    if (cacheable) {
      cached = cfg.plans->find_base(key, r);
      mopts.plan = cached.get();
    }

    co_await ctx.engine().sync_reset(ctx);
    auto coll = co_await init(ctx, std::move(args), mopts);
    init_elapsed[r] = ctx.now();
    stats[r] = coll->stats();
    if (cacheable && !cached) cfg.plans->put(key, r, coll->plan_base());

    auto check = [&](const char* window) {
      if (!cfg.verify_payload) return;
      const long bad = patterns::verify_recv(wl, r, buf, element_size);
      if (bad != 0)
        throw simmpi::SimError(std::string(what) + ": " + wl.pattern + " " +
                               window + " window delivered " +
                               std::to_string(bad) +
                               " bad byte(s) on rank " + std::to_string(r));
    };

    // Blocking window: communication completes before the compute runs.
    co_await ctx.engine().sync_reset(ctx);
    co_await coll->start(ctx);
    co_await coll->wait(ctx);
    ctx.compute(wl.overlap_seconds);
    block_elapsed[r] = ctx.now();
    check("blocking");
    // Blocking-window link footprint: the barrier guarantees this rank's
    // journaled sends are committed (and their link charges recorded)
    // before the next sync_reset clears the stats.  The window's elapsed
    // time was captured above, but the extra barrier still shifts phase
    // alignment entering the *next* window (and with it the NIC delivery
    // interleaving), so it runs only when the link cap — and therefore a
    // link footprint worth capturing — is on: cap-off runs keep the
    // pre-contention program, and their series, bit for bit.  A fault
    // plan needs the same barrier to snapshot the window's fault
    // counters before the reset clears them; plan-free runs keep the
    // original program either way (byte-inertness).
    if (cfg.cost.use_link_cap || cfg.faults) {
      co_await simmpi::coll::barrier(ctx, ctx.world());
      const auto& rs = ctx.engine().stats(r);
      if (cfg.cost.use_link_cap)
        link_stats[r].assign(rs.link.begin(), rs.link.end());
      fault_block[r] = rs.faults;
    }
    patterns::clear_recv(buf);

    // Overlapped window: the same compute is charged between start and
    // wait, hiding transfer time behind it.
    co_await ctx.engine().sync_reset(ctx);
    co_await coll->start(ctx);
    ctx.compute(wl.overlap_seconds);
    co_await coll->wait(ctx);
    overlap_elapsed[r] = ctx.now();
    check("overlapped");

    co_await simmpi::coll::barrier(ctx, ctx.world());
    // Own counters only: this rank's sends were committed before its
    // waits completed, so the post-barrier read is settled.
    fault_overlap[r] = ctx.engine().stats(r).faults;
    co_return;
  });

  PatternMeasurement out;
  out.init_seconds =
      *std::max_element(init_elapsed.begin(), init_elapsed.end());
  out.blocking_seconds =
      *std::max_element(block_elapsed.begin(), block_elapsed.end());
  out.overlapped_seconds =
      *std::max_element(overlap_elapsed.begin(), overlap_elapsed.end());
  out.overlap_seconds = wl.overlap_seconds;
  for (const auto& s : stats) {
    out.sum_local_msgs += s.local_msgs;
    out.sum_global_msgs += s.global_msgs;
    out.sum_local_values += s.local_values;
    out.sum_global_values += s.global_values;
    out.max_global_msgs = std::max(out.max_global_msgs, s.global_msgs);
    out.max_global_msg_values =
        std::max(out.max_global_msg_values, s.max_global_msg_values);
  }
  const auto tiers =
      static_cast<std::size_t>(eng.machine().num_link_tiers());
  out.link_seconds.assign(tiers, 0.0);
  out.max_link_backlog_seconds.assign(tiers, 0.0);
  out.sum_link_msgs.assign(tiers, 0);
  for (const auto& ls : link_stats)
    for (std::size_t t = 0; t < ls.size(); ++t) {
      out.link_seconds[t] += ls[t].busy_seconds;
      out.max_link_backlog_seconds[t] =
          std::max(out.max_link_backlog_seconds[t], ls[t].max_backlog_seconds);
    }
  for (const auto& s : stats)
    for (std::size_t t = 0; t < s.link_msgs.size(); ++t)
      out.sum_link_msgs[t] += s.link_msgs[t];
  for (int r = 0; r < p; ++r) {
    out.drops += static_cast<long>(fault_block[r].drops) +
                 static_cast<long>(fault_overlap[r].drops);
    out.dups += static_cast<long>(fault_block[r].dups) +
                static_cast<long>(fault_overlap[r].dups);
    out.retransmits += static_cast<long>(fault_block[r].retransmits) +
                       static_cast<long>(fault_overlap[r].retransmits);
    out.timeouts += static_cast<long>(fault_block[r].timeouts) +
                    static_cast<long>(fault_overlap[r].timeouts);
  }
  return out;
}

}  // namespace

PatternMeasurement measure_pattern(const patterns::Workload& wl,
                                   mpix::Method method,
                                   const MeasureConfig& cfg,
                                   std::size_t element_size) {
  const bool cacheable = cfg.plans != nullptr && mpix::uses_locality(method);
  const std::uint64_t key =
      cacheable ? pattern_cache_key(wl, 0x9a77e481ull,
                                    static_cast<std::uint64_t>(method), cfg)
                : 0;
  return run_pattern(
      wl, cfg, element_size, cacheable, key, "measure_pattern",
      /*dense=*/false,
      [&wl, method, algo = cfg.graph_algo](Context& ctx,
                                           mpix::AlltoallvArgs args,
                                           mpix::Options mopts)
          -> Task<std::unique_ptr<mpix::NeighborAlltoallv>> {
        const patterns::RankExchange& ex = wl.ranks[ctx.rank()];
        simmpi::DistGraph g = co_await simmpi::dist_graph_create_adjacent(
            ctx, ctx.world(), ex.sources, ex.destinations, algo);
        auto coll = co_await mpix::neighbor_alltoallv_init(
            ctx, g, std::move(args), method, std::move(mopts));
        co_return coll;
      });
}

PatternMeasurement measure_pattern_dense(const patterns::Workload& wl,
                                         mpix::AlltoallMethod method,
                                         const MeasureConfig& cfg,
                                         std::size_t element_size) {
  const bool cacheable =
      cfg.plans != nullptr && mpix::alltoall_uses_plan(method);
  const std::uint64_t key =
      cacheable ? pattern_cache_key(wl, 0xde45e481ull,
                                    static_cast<std::uint64_t>(method), cfg)
                : 0;
  return run_pattern(
      wl, cfg, element_size, cacheable, key, "measure_pattern_dense",
      /*dense=*/true,
      [method](Context& ctx, mpix::AlltoallvArgs args, mpix::Options mopts)
          -> Task<std::unique_ptr<mpix::NeighborAlltoallv>> {
        auto coll = co_await mpix::alltoallv_init(
            ctx, ctx.world(), std::move(args), method, std::move(mopts));
        co_return coll;
      });
}

DenseMeasurement measure_dense_alltoall(int nranks, int count,
                                        std::size_t element_size,
                                        mpix::AlltoallMethod method,
                                        const MeasureConfig& cfg) {
  const int p = nranks;
  Engine eng(machine_for(p, cfg), cfg.cost, engine_opts(cfg));
  std::vector<double> init_elapsed(p, 0.0), iter_elapsed(p, 0.0);
  std::vector<mpix::NeighborStats> stats(p);

  const bool cacheable = cfg.plans && mpix::alltoall_uses_plan(method);
  const std::uint64_t key =
      cacheable ? dense_cache_key(p, count, method, cfg) : 0;

  eng.run([&](Context& ctx) -> Task<> {
    const int r = ctx.rank();
    const std::size_t es = element_size;
    const std::size_t bytes = static_cast<std::size_t>(p) *
                              static_cast<std::size_t>(count) * es;
    std::vector<std::byte> sendbuf(bytes), recvbuf(bytes);
    for (int dst = 0; dst < p; ++dst)
      for (long k = 0; k < count; ++k)
        for (std::size_t b = 0; b < es; ++b)
          sendbuf[(static_cast<std::size_t>(dst) * count + k) * es + b] =
              dense_byte(r, dst, k, b);

    mpix::Options mopts;
    mopts.lpt_balance = cfg.lpt_balance;
    std::shared_ptr<const mpix::PlanBase> cached;  // keeps the plan alive
    if (cacheable) {
      cached = cfg.plans->find_base(key, r);
      mopts.plan = cached.get();
    }

    co_await ctx.engine().sync_reset(ctx);
    auto coll = co_await mpix::alltoall_init(
        ctx, ctx.world(), std::span<const std::byte>(sendbuf),
        std::span<std::byte>(recvbuf), count, es, method, mopts);
    init_elapsed[r] = ctx.now();
    stats[r] = coll->stats();
    if (cacheable && !cached) cfg.plans->put(key, r, coll->plan_base());

    co_await ctx.engine().sync_reset(ctx);
    co_await coll->start(ctx);
    co_await coll->wait(ctx);
    iter_elapsed[r] = ctx.now();

    if (cfg.verify_payload) {
      for (int src = 0; src < p; ++src)
        for (long k = 0; k < count; ++k)
          for (std::size_t b = 0; b < es; ++b)
            if (recvbuf[(static_cast<std::size_t>(src) * count + k) * es + b] !=
                dense_byte(src, r, k, b))
              throw simmpi::SimError(
                  "measure_dense_alltoall: payload verification failed "
                  "(method " +
                  std::string(mpix::to_string(method)) + ", rank " +
                  std::to_string(r) + ")");
    }
    co_await simmpi::coll::barrier(ctx, ctx.world());
    co_return;
  });

  DenseMeasurement out;
  out.init_seconds =
      *std::max_element(init_elapsed.begin(), init_elapsed.end());
  out.start_wait_seconds =
      *std::max_element(iter_elapsed.begin(), iter_elapsed.end());
  for (const auto& s : stats) {
    out.sum_local_msgs += s.local_msgs;
    out.sum_global_msgs += s.global_msgs;
    out.sum_global_values += s.global_values;
    out.max_global_msgs = std::max(out.max_global_msgs, s.global_msgs);
    out.max_global_msg_values =
        std::max(out.max_global_msg_values, s.max_global_msg_values);
  }
  return out;
}

std::vector<LevelMeasurement> measure_protocol(const amg::DistHierarchy& dh,
                                               Protocol protocol,
                                               const MeasureConfig& cfg) {
  const int p = dh.nranks;
  const int nlevels = dh.num_levels();
  Engine eng(machine_for(p, cfg), cfg.cost, engine_opts(cfg));

  std::vector<std::vector<double>> init_elapsed(nlevels,
                                                std::vector<double>(p, 0.0));
  std::vector<std::vector<double>> iter_elapsed(nlevels,
                                                std::vector<double>(p, 0.0));
  std::vector<std::vector<mpix::NeighborStats>> stats(
      nlevels, std::vector<mpix::NeighborStats>(p));

  // Global pattern keys for the optional plan cache, one per level
  // (host-side, identical for every rank by construction).  Only the
  // locality-aware protocols consult the cache, so skip the fingerprint
  // walk for the others.
  std::vector<std::uint64_t> level_keys(nlevels, 0);
  if (cfg.plans && uses_locality(protocol))
    for (int l = 0; l < nlevels; ++l)
      level_keys[l] = pattern_fingerprint(dh.levels[l].halo);

  eng.run([&](Context& ctx) -> Task<> {
    const int r = ctx.rank();
    // One test vector reused across levels: level 0 is the largest, so the
    // first resize fixes the capacity and the per-level loop stays off the
    // heap (same buffer-hoisting rule as the engine hot path).
    std::vector<double> x;
#ifndef NDEBUG
    std::size_t x_cap = 0;
#endif
    for (int l = 0; l < nlevels; ++l) {
      const auto& lvl = dh.levels[l];
      const auto& halo = lvl.halo.ranks[r];
      const long first = lvl.A.row_part[r];
      const long nloc = lvl.A.row_part[r + 1] - first;
      x.resize(nloc);
#ifndef NDEBUG
      if (l == 0) x_cap = x.capacity();
      assert(x.capacity() == x_cap);  // levels shrink; no regrowth
#endif
      for (long i = 0; i < nloc; ++i) x[i] = x_value(first + i);

      // Init cost: topology creation + collective initialization.
      co_await ctx.engine().sync_reset(ctx);
      auto ex = co_await make_halo_exchange(
          ctx, ctx.world(), protocol, halo,
          {.graph_algo = cfg.graph_algo,
           .lpt_balance = cfg.lpt_balance,
           .plans = cfg.plans,
           .pattern_key = level_keys[l]});
      init_elapsed[l][r] = ctx.now();
      stats[l][r] = ex->stats();

      // One Start+Wait (deterministic, so one execution is exact).
      co_await ctx.engine().sync_reset(ctx);
      co_await ex->start(ctx, x);
      co_await ex->wait(ctx);
      iter_elapsed[l][r] = ctx.now();

      if (cfg.verify_payload) {
        auto xe = ex->x_ext();
        for (std::size_t k = 0; k < xe.size(); ++k)
          if (xe[k] != x_value(halo.recv_gids[k]))
            throw simmpi::SimError(
                "measure_protocol: halo verification failed (protocol " +
                std::string(to_string(protocol)) + ", level " +
                std::to_string(l) + ")");
      }
      // Drain any asymmetric completion before the next level's reset.
      co_await simmpi::coll::barrier(ctx, ctx.world());
    }
    co_return;
  });

  std::vector<LevelMeasurement> out(nlevels);
  for (int l = 0; l < nlevels; ++l) {
    out[l].level = l;
    out[l].rows = dh.levels[l].n();
    out[l].init_seconds =
        *std::max_element(init_elapsed[l].begin(), init_elapsed[l].end());
    out[l].start_wait_seconds =
        *std::max_element(iter_elapsed[l].begin(), iter_elapsed[l].end());
    for (const auto& s : stats[l]) {
      out[l].max_local_msgs = std::max(out[l].max_local_msgs, s.local_msgs);
      out[l].max_global_msgs = std::max(out[l].max_global_msgs, s.global_msgs);
      out[l].max_global_msg_values =
          std::max(out[l].max_global_msg_values, s.max_global_msg_values);
      out[l].max_local_values =
          std::max(out[l].max_local_values, s.local_values);
      out[l].max_global_values =
          std::max(out[l].max_global_values, s.global_values);
    }
  }
  return out;
}

double measure_graph_creation(const amg::DistHierarchy& dh,
                              simmpi::GraphAlgo algo,
                              const MeasureConfig& cfg) {
  const int p = dh.nranks;
  Engine eng(machine_for(p, cfg), cfg.cost, engine_opts(cfg));
  std::vector<double> elapsed(p, 0.0);
  eng.run([&](Context& ctx) -> Task<> {
    const int r = ctx.rank();
    double total = 0.0;
    for (int l = 0; l < dh.num_levels(); ++l) {
      const auto& halo = dh.levels[l].halo.ranks[r];
      co_await ctx.engine().sync_reset(ctx);
      auto g = co_await simmpi::dist_graph_create_adjacent(
          ctx, ctx.world(), halo.recv_ranks, halo.send_ranks, algo);
      total += ctx.now();
      (void)g;
      co_await simmpi::coll::barrier(ctx, ctx.world());
    }
    elapsed[r] = total;
    co_return;
  });
  return *std::max_element(elapsed.begin(), elapsed.end());
}

double total_time(const std::vector<LevelMeasurement>& self,
                  const std::vector<LevelMeasurement>* baseline) {
  double t = 0.0;
  for (std::size_t l = 0; l < self.size(); ++l) {
    double v = self[l].start_wait_seconds;
    if (baseline) v = std::min(v, (*baseline)[l].start_wait_seconds);
    t += v;
  }
  return t;
}

int crossover_iterations(double base_init, double base_iter, double opt_init,
                         double opt_iter, int max_iters) {
  for (int k = 0; k <= max_iters; ++k) {
    if (opt_init + k * opt_iter < base_init + k * base_iter) return k;
  }
  return -1;
}

const amg::Hierarchy& paper_hierarchy(long rows, int build_threads) {
  // Single-entry cache: benches sweep sizes sequentially and the largest
  // hierarchy is hundreds of MB.  build_threads is wall-time-only (the
  // built hierarchy is width-independent), so it is not part of the key.
  static long cached_rows = -1;
  static std::optional<amg::Hierarchy> cached;
  if (cached_rows != rows) {
    int nx = 0, ny = 0;
    sparse::factor_grid(rows, nx, ny);
    amg::Options opts;
    opts.threads = build_threads;
    cached.emplace(amg::Hierarchy::build(sparse::paper_problem(nx, ny), opts));
    cached_rows = rows;
  }
  return *cached;
}

const amg::DistHierarchy& paper_dist_hierarchy(long rows, int nranks,
                                               int build_threads) {
  static long cached_rows = -1;
  static int cached_ranks = -1;
  static std::optional<amg::DistHierarchy> cached;
  if (cached_rows != rows || cached_ranks != nranks) {
    cached.emplace(amg::distribute_hierarchy(
        paper_hierarchy(rows, build_threads), nranks));
    cached_rows = rows;
    cached_ranks = nranks;
  }
  return *cached;
}

}  // namespace harness
