/// \file test_engine_threads.cpp
/// \brief The determinism contract of the phase-parallel engine: any
/// `Engine::Options::threads` produces the bit-identical simulated schedule
/// — virtual clocks, tier statistics, neighbor statistics and solve
/// iterates (see docs/ARCHITECTURE.md, "Determinism contract").

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "harness/dist_solve.hpp"
#include "harness/measure.hpp"
#include "simmpi/coll.hpp"
#include "pattern_util.hpp"
#include "simmpi/engine.hpp"
#include "sparse/stencil.hpp"

using namespace simmpi;

namespace {

/// A deliberately irregular stress program: shifting p2p ring with mixed
/// payload sizes (crossing every locality tier and exercising the NIC
/// queue), interleaved collectives, a mid-run sync_reset, and self-sends.
Task<> stress_program(Context& ctx) {
  const int p = ctx.world().size();
  const int r = ctx.rank();
  for (int round = 0; round < 4; ++round) {
    const int shift = 1 + (round * 5) % (p - 1);
    const int dst = (r + shift) % p;
    const int src = (r - shift + p) % p;
    // Payload size varies per (sender, round): short/eager/rendezvous mix.
    auto size_of = [&](int sender) {
      return static_cast<std::size_t>(1 + (sender * 37 + round * 101) % 3000);
    };
    std::vector<double> out(size_of(r), r + 0.25 * round);
    std::vector<double> in(size_of(src));
    auto s = Request::send(
        ctx.world(),
        std::as_bytes(std::span<const double>(out.data(), out.size())), dst,
        round);
    auto rr = Request::recv(
        ctx.world(),
        std::as_writable_bytes(std::span<double>(in.data(), in.size())), src,
        round);
    s.start(ctx);
    rr.start(ctx);
    co_await ctx.wait(s);
    co_await ctx.wait(rr);
    EXPECT_DOUBLE_EQ(in[0], src + 0.25 * round);

    ctx.compute(1e-7 * ((r + round) % 5));
    const long sum = co_await coll::allreduce<long>(
        ctx, ctx.world(), static_cast<long>(r + round),
        [](long a, long b) { return a + b; });
    EXPECT_EQ(sum, static_cast<long>(p) * (p - 1) / 2 +
                       static_cast<long>(p) * round);
    if (round == 1) co_await ctx.engine().sync_reset(ctx);
    if (round == 2) {
      // Self-send (Locality::self path).
      double v = 3.5 + r, got = 0.0;
      auto ss = Request::send(
          ctx.world(), std::as_bytes(std::span<const double>(&v, 1)), r, 99);
      auto sr = Request::recv(
          ctx.world(), std::as_writable_bytes(std::span<double>(&got, 1)), r,
          99);
      ss.start(ctx);
      sr.start(ctx);
      co_await ctx.wait(ss);
      co_await ctx.wait(sr);
      EXPECT_DOUBLE_EQ(got, v);
    }
  }
  co_await coll::barrier(ctx, ctx.world());
}

struct Trace {
  std::vector<double> clocks;
  std::vector<Engine::RankStats> stats;
  double max_clock = 0.0;
};

Trace run_stress(int threads) {
  Engine eng(Machine({.num_nodes = 4, .regions_per_node = 2,
                      .ranks_per_region = 4}),
             CostParams::lassen(), Engine::Options{.threads = threads});
  EXPECT_EQ(eng.threads(), threads);
  eng.run(stress_program);
  Trace t;
  for (int r = 0; r < eng.machine().num_ranks(); ++r) {
    t.clocks.push_back(eng.clock(r));
    t.stats.push_back(eng.stats(r));
  }
  t.max_clock = eng.max_clock();
  return t;
}

}  // namespace

TEST(EngineThreads, StressScheduleBitIdenticalAcrossWidths) {
  const Trace base = run_stress(1);
  for (int threads : {2, 4, 7}) {
    const Trace t = run_stress(threads);
    // Bit-identical, not just approximately equal: the virtual schedule
    // must not depend on the worker count.
    ASSERT_EQ(t.clocks.size(), base.clocks.size());
    for (std::size_t r = 0; r < base.clocks.size(); ++r) {
      EXPECT_EQ(std::memcmp(&t.clocks[r], &base.clocks[r], sizeof(double)), 0)
          << "clock of rank " << r << " diverged at threads=" << threads;
      EXPECT_EQ(t.stats[r], base.stats[r])
          << "stats of rank " << r << " diverged at threads=" << threads;
    }
    EXPECT_EQ(t.max_clock, base.max_clock);
  }
}

namespace {

/// Shifting-ring exchanges with varying payloads plus an allreduce per
/// round.  Every rank is re-woken each round, so phases as wide as the
/// machine recur all run long, next to the narrower phases of the
/// allreduce.  Each rank folds every byte it receives into `digest[rank]`.
Task<> wide_phase_program(Context& ctx, std::vector<std::uint64_t>& digest) {
  const int p = ctx.world().size();
  const int r = ctx.rank();
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ull; };
  for (int round = 0; round < 6; ++round) {
    const int shift = 1 + (round * 7) % (p - 1);
    const int dst = (r + shift) % p;
    const int src = (r - shift + p) % p;
    auto size_of = [&](int sender) {
      return static_cast<std::size_t>(1 + (sender * 13 + round * 29) % 64);
    };
    std::vector<std::uint32_t> out(size_of(r));
    for (std::size_t i = 0; i < out.size(); ++i)
      out[i] = static_cast<std::uint32_t>(r * 1000003 + round * 7919) +
               static_cast<std::uint32_t>(i);
    std::vector<std::uint32_t> in(size_of(src));
    auto s = Request::send(
        ctx.world(),
        std::as_bytes(std::span<const std::uint32_t>(out.data(), out.size())),
        dst, round);
    auto rr = Request::recv(
        ctx.world(),
        std::as_writable_bytes(std::span<std::uint32_t>(in.data(), in.size())),
        src, round);
    s.start(ctx);
    rr.start(ctx);
    co_await ctx.wait(s);
    co_await ctx.wait(rr);
    for (std::uint32_t v : in) mix(v);
    ctx.compute(1e-7 * ((r * 3 + round) % 7));
    const long sum = co_await coll::allreduce<long>(
        ctx, ctx.world(), static_cast<long>(r * round),
        [](long a, long b) { return a + b; });
    mix(static_cast<std::uint64_t>(sum));
  }
  digest[static_cast<std::size_t>(r)] = h;
}

struct WideTrace {
  std::vector<double> clocks;
  std::vector<Engine::RankStats> stats;
  std::vector<std::uint64_t> digest;
  Engine::WorkCounters work;
};

/// wide_phase_program on `p` ranks (regions of up to 16 ranks, so every
/// locality tier carries traffic) at engine width `threads`.
WideTrace run_wide(int p, int threads) {
  int per_region = 16;
  while (p % per_region != 0) --per_region;
  Engine eng(Machine({.num_nodes = p / per_region, .regions_per_node = 1,
                      .ranks_per_region = per_region}),
             CostParams::lassen(), Engine::Options{.threads = threads});
  WideTrace t;
  t.digest.assign(static_cast<std::size_t>(p), 0);
  eng.run([&t](Context& ctx) { return wide_phase_program(ctx, t.digest); });
  for (int r = 0; r < p; ++r) {
    t.clocks.push_back(eng.clock(r));
    t.stats.push_back(eng.stats(r));
  }
  t.work = eng.work();
  return t;
}

}  // namespace

TEST(EngineThreads, InlineBoundaryBitIdenticalAcrossWidths) {
  // Phases of at most Engine::kInlinePhaseRanks ranks run inline, wider
  // ones on the pool.  The first phase of a run resumes every rank, so
  // these three machines put phases on both sides of the boundary and
  // exactly on it; the schedule must not notice.
  const int limit = static_cast<int>(Engine::kInlinePhaseRanks);
  for (int p : {limit - 1, limit, limit + 1}) {
    const WideTrace base = run_wide(p, 1);
    EXPECT_GT(base.work.phase_width[std::bit_width(
                  static_cast<unsigned>(p - 1))],
              0u)
        << "no phase of " << p << " ranks";
    for (int threads : {2, 4, 7}) {
      const WideTrace t = run_wide(p, threads);
      for (int r = 0; r < p; ++r) {
        EXPECT_EQ(std::memcmp(&t.clocks[r], &base.clocks[r], sizeof(double)),
                  0)
            << "clock of rank " << r << " diverged, p=" << p
            << " threads=" << threads;
        EXPECT_EQ(t.stats[r], base.stats[r])
            << "stats of rank " << r << " diverged, p=" << p
            << " threads=" << threads;
      }
      EXPECT_EQ(t.digest, base.digest)
          << "payloads diverged, p=" << p << " threads=" << threads;
    }
  }
}

TEST(EngineThreads, WorkCountersIdenticalAcrossWidths) {
  const int p = static_cast<int>(Engine::kInlinePhaseRanks) + 1;
  const WideTrace base = run_wide(p, 1);
  const Engine::WorkCounters& w = base.work;
  std::uint64_t histogram_phases = 0;
  for (std::uint64_t n : w.phase_width) histogram_phases += n;
  EXPECT_EQ(histogram_phases, w.phases);
  EXPECT_GE(w.resumes, w.phases);
  std::uint64_t sent = 0;
  for (const auto& s : base.stats) sent += s.total_msgs();
  EXPECT_EQ(w.msgs_committed, sent);
  for (int threads : {2, 4, 7})
    EXPECT_EQ(run_wide(p, threads).work, w) << "threads=" << threads;
}

TEST(EngineThreads, NeighborStatsBitIdenticalAcrossWidths) {
  // Per-rank sender-side NeighborStats of every mpix method on a random
  // irregular pattern, engines of width 1 vs 4.
  const auto pat = pattern::random_pattern(24, /*seed=*/7);
  auto run_once = [&](mpix::Method method, int threads) {
    Engine eng(Machine({.num_nodes = 3, .regions_per_node = 1,
                        .ranks_per_region = 8}),
               CostParams::lassen(), Engine::Options{.threads = threads});
    struct Out {
      std::vector<mpix::NeighborStats> stats;
      std::vector<std::vector<double>> recv;
      std::vector<double> clocks;
    } out;
    out.stats.resize(pat.nranks);
    out.recv.resize(pat.nranks);
    eng.run([&](Context& ctx) -> Task<> {
      const int r = ctx.rank();
      pattern::RankArgs a = pattern::rank_args(pat, r);
      simmpi::DistGraph g = co_await simmpi::dist_graph_create_adjacent(
          ctx, ctx.world(), a.sources, a.destinations,
          simmpi::GraphAlgo::handshake);
      auto coll =
          co_await mpix::neighbor_alltoallv_init(ctx, g, a.view(), method);
      out.stats[r] = coll->stats();
      a.fill(0);
      co_await coll->start(ctx);
      co_await coll->wait(ctx);
      out.recv[r] = a.recvbuf;
      co_return;
    });
    for (int r = 0; r < pat.nranks; ++r) out.clocks.push_back(eng.clock(r));
    return out;
  };
  for (mpix::Method method : mpix::kAllMethods) {
    const auto base = run_once(method, 1);
    const auto wide = run_once(method, 4);
    for (int r = 0; r < pat.nranks; ++r) {
      EXPECT_EQ(base.stats[r].local_msgs, wide.stats[r].local_msgs);
      EXPECT_EQ(base.stats[r].global_msgs, wide.stats[r].global_msgs);
      EXPECT_EQ(base.stats[r].local_values, wide.stats[r].local_values);
      EXPECT_EQ(base.stats[r].global_values, wide.stats[r].global_values);
      EXPECT_EQ(base.stats[r].max_global_msg_values,
                wide.stats[r].max_global_msg_values);
      EXPECT_EQ(base.recv[r], wide.recv[r]);
      EXPECT_EQ(std::memcmp(&base.clocks[r], &wide.clocks[r], sizeof(double)),
                0)
          << "rank " << r << " clock diverged";
    }
  }
}

TEST(EngineThreads, MeasurementsBitIdenticalAcrossWidths) {
  // The full measurement pipeline (hierarchy levels, all four protocols)
  // through engines of different widths.
  const auto& dh = harness::paper_dist_hierarchy(2048, 16);
  for (harness::Protocol proto : harness::kAllProtocols) {
    harness::MeasureConfig c1;
    c1.threads = 1;
    harness::MeasureConfig c4 = c1;
    c4.threads = 4;
    const auto m1 = harness::measure_protocol(dh, proto, c1);
    const auto m4 = harness::measure_protocol(dh, proto, c4);
    ASSERT_EQ(m1.size(), m4.size());
    for (std::size_t l = 0; l < m1.size(); ++l) {
      EXPECT_EQ(m1[l].init_seconds, m4[l].init_seconds);
      EXPECT_EQ(m1[l].start_wait_seconds, m4[l].start_wait_seconds);
      EXPECT_EQ(m1[l].max_local_msgs, m4[l].max_local_msgs);
      EXPECT_EQ(m1[l].max_global_msgs, m4[l].max_global_msgs);
      EXPECT_EQ(m1[l].max_global_msg_values, m4[l].max_global_msg_values);
      EXPECT_EQ(m1[l].max_local_values, m4[l].max_local_values);
      EXPECT_EQ(m1[l].max_global_values, m4[l].max_global_values);
    }
  }
}

TEST(EngineThreads, SolveIteratesBitIdenticalAcrossWidths) {
  const auto& dh = harness::paper_dist_hierarchy(2048, 16);
  std::vector<double> b(2048);
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = 1.0 + 0.001 * static_cast<double>(i % 17);

  harness::MeasureConfig c1;
  c1.threads = 1;
  harness::MeasureConfig c4 = c1;
  c4.threads = 4;
  const auto r1 = harness::run_distributed_amg(
      dh, harness::Protocol::neighbor_full, b, 1e-8, 40, c1);
  const auto r4 = harness::run_distributed_amg(
      dh, harness::Protocol::neighbor_full, b, 1e-8, 40, c4);

  EXPECT_EQ(r1.converged, r4.converged);
  EXPECT_EQ(r1.solve_seconds, r4.solve_seconds);
  ASSERT_EQ(r1.residual_history.size(), r4.residual_history.size());
  for (std::size_t i = 0; i < r1.residual_history.size(); ++i)
    EXPECT_EQ(std::memcmp(&r1.residual_history[i], &r4.residual_history[i],
                          sizeof(double)),
              0);
  ASSERT_EQ(r1.solution.size(), r4.solution.size());
  EXPECT_EQ(std::memcmp(r1.solution.data(), r4.solution.data(),
                        r1.solution.size() * sizeof(double)),
            0);
}

TEST(EngineThreads, AutoWidthHonorsEnvironment) {
  ::setenv("COLLOM_SIM_THREADS", "3", 1);
  Engine eng(Machine({.num_nodes = 1, .regions_per_node = 1,
                      .ranks_per_region = 4}),
             CostParams::lassen());
  ::unsetenv("COLLOM_SIM_THREADS");
  EXPECT_EQ(eng.threads(), 3);
}
