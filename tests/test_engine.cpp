/// \file test_engine.cpp
/// \brief Engine scheduling, p2p semantics, virtual clocks, determinism.

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <type_traits>
#include <vector>

#include "simmpi/coll.hpp"
#include "simmpi/engine.hpp"

using namespace simmpi;

namespace {

Engine make_engine(int nodes, int rpn, CostParams p = CostParams::lassen()) {
  return Engine(
      Machine({.num_nodes = nodes, .regions_per_node = 1,
               .ranks_per_region = rpn}),
      p);
}

template <class T>
std::span<const std::byte> bytes_of(const std::vector<T>& v) {
  return std::as_bytes(std::span<const T>(v.data(), v.size()));
}
template <class T>
std::span<std::byte> writable_bytes_of(std::vector<T>& v) {
  return std::as_writable_bytes(std::span<T>(v.data(), v.size()));
}

}  // namespace

TEST(Engine, PingPongDeliversPayload) {
  Engine eng = make_engine(2, 1);
  std::vector<double> got(3, 0.0);
  eng.run([&](Context& ctx) -> Task<> {
    if (ctx.rank() == 0) {
      std::vector<double> data{1.5, -2.0, 3.25};
      auto s = Request::send(ctx.world(), bytes_of(data), 1, 7);
      s.start(ctx);
      co_await ctx.wait(s);
    } else {
      auto r = Request::recv(ctx.world(), writable_bytes_of(got), 0, 7);
      r.start(ctx);
      co_await ctx.wait(r);
      EXPECT_EQ(r.received_bytes(), 3 * sizeof(double));
    }
  });
  EXPECT_DOUBLE_EQ(got[0], 1.5);
  EXPECT_DOUBLE_EQ(got[1], -2.0);
  EXPECT_DOUBLE_EQ(got[2], 3.25);
}

TEST(Engine, RecvBeforeSendParksAndWakes) {
  // Rank 1 waits before rank 0 sends: the scheduler must park rank 1 and
  // wake it when the message is posted.
  Engine eng = make_engine(2, 1);
  int value = 0;
  eng.run([&](Context& ctx) -> Task<> {
    if (ctx.rank() == 1) {
      auto r = Request::recv(
          ctx.world(),
          std::as_writable_bytes(std::span<int>(&value, 1)), 0, 0);
      r.start(ctx);
      co_await ctx.wait(r);
    } else {
      ctx.compute(1.0);  // rank 0 is "slow"
      int v = 42;
      auto s = Request::send(ctx.world(),
                             std::as_bytes(std::span<const int>(&v, 1)), 1, 0);
      s.start(ctx);
      co_await ctx.wait(s);
    }
  });
  EXPECT_EQ(value, 42);
  // Receiver clock must reflect the sender's late departure.
  EXPECT_GE(eng.clock(1), 1.0);
}

TEST(Engine, FifoOrderingPerChannel) {
  Engine eng = make_engine(2, 1);
  std::vector<int> got;
  eng.run([&](Context& ctx) -> Task<> {
    if (ctx.rank() == 0) {
      for (int i = 0; i < 5; ++i) {
        int v = i * 10;
        auto s = Request::send(
            ctx.world(), std::as_bytes(std::span<const int>(&v, 1)), 1, 3);
        s.start(ctx);
        co_await ctx.wait(s);
      }
    } else {
      for (int i = 0; i < 5; ++i) {
        int v = -1;
        auto r = Request::recv(
            ctx.world(), std::as_writable_bytes(std::span<int>(&v, 1)), 0, 3);
        r.start(ctx);
        co_await ctx.wait(r);
        got.push_back(v);
      }
    }
  });
  EXPECT_EQ(got, (std::vector<int>{0, 10, 20, 30, 40}));
}

TEST(Engine, TagsIsolateChannels) {
  Engine eng = make_engine(2, 1);
  int a = 0, b = 0;
  eng.run([&](Context& ctx) -> Task<> {
    if (ctx.rank() == 0) {
      int x = 1, y = 2;
      auto s1 = Request::send(ctx.world(),
                              std::as_bytes(std::span<const int>(&x, 1)), 1, 5);
      auto s2 = Request::send(ctx.world(),
                              std::as_bytes(std::span<const int>(&y, 1)), 1, 6);
      s1.start(ctx);
      s2.start(ctx);
      co_await ctx.wait(s1);
      co_await ctx.wait(s2);
    } else {
      // Receive in reverse tag order: matching must be by tag, not arrival.
      auto r2 = Request::recv(ctx.world(),
                              std::as_writable_bytes(std::span<int>(&b, 1)), 0,
                              6);
      r2.start(ctx);
      co_await ctx.wait(r2);
      auto r1 = Request::recv(ctx.world(),
                              std::as_writable_bytes(std::span<int>(&a, 1)), 0,
                              5);
      r1.start(ctx);
      co_await ctx.wait(r1);
    }
  });
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
}

TEST(Engine, PersistentRequestRestart) {
  Engine eng = make_engine(2, 1);
  std::vector<int> got;
  eng.run([&](Context& ctx) -> Task<> {
    int buf = 0;
    if (ctx.rank() == 0) {
      auto s = Request::send(ctx.world(),
                             std::as_bytes(std::span<const int>(&buf, 1)), 1,
                             0);
      for (int i = 0; i < 4; ++i) {
        buf = i;  // persistent requests re-read the registered buffer
        s.start(ctx);
        co_await ctx.wait(s);
      }
    } else {
      auto r = Request::recv(ctx.world(),
                             std::as_writable_bytes(std::span<int>(&buf, 1)),
                             0, 0);
      for (int i = 0; i < 4; ++i) {
        r.start(ctx);
        co_await ctx.wait(r);
        got.push_back(buf);
      }
    }
  });
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Engine, StartOnActiveRequestThrows) {
  Engine eng = make_engine(2, 1);
  EXPECT_THROW(
      eng.run([&](Context& ctx) -> Task<> {
        if (ctx.rank() == 1) {
          auto r = Request::recv(ctx.world(), {}, 0, 0);
          r.start(ctx);
          r.start(ctx);  // error: already active
        } else {
          auto s = Request::send(ctx.world(), {}, 1, 0);
          s.start(ctx);
          co_await ctx.wait(s);
        }
        co_return;
      }),
      SimError);
}

TEST(Engine, DeadlockIsDetected) {
  Engine eng = make_engine(2, 1);
  EXPECT_THROW(eng.run([&](Context& ctx) -> Task<> {
                 // Both ranks wait for a message nobody sends.
                 auto r = Request::recv(ctx.world(), {}, 1 - ctx.rank(), 9);
                 r.start(ctx);
                 co_await ctx.wait(r);
               }),
               SimError);
}

TEST(Engine, UnreceivedMessageIsAnError) {
  Engine eng = make_engine(2, 1);
  EXPECT_THROW(eng.run([&](Context& ctx) -> Task<> {
                 if (ctx.rank() == 0) {
                   auto s = Request::send(ctx.world(), {}, 1, 0);
                   s.start(ctx);
                   co_await ctx.wait(s);
                 }
                 co_return;
               }),
               SimError);
}

TEST(Engine, TruncationIsAnError) {
  Engine eng = make_engine(2, 1);
  EXPECT_THROW(
      eng.run([&](Context& ctx) -> Task<> {
        if (ctx.rank() == 0) {
          std::vector<int> data{1, 2, 3, 4};
          auto s = Request::send(ctx.world(), bytes_of(data), 1, 0);
          s.start(ctx);
          co_await ctx.wait(s);
        } else {
          std::vector<int> small(1);
          auto r =
              Request::recv(ctx.world(), writable_bytes_of(small), 0, 0);
          r.start(ctx);
          co_await ctx.wait(r);
        }
      }),
      SimError);
}

TEST(Engine, RankExceptionPropagates) {
  Engine eng = make_engine(2, 1);
  EXPECT_THROW(eng.run([&](Context& ctx) -> Task<> {
                 if (ctx.rank() == 0)
                   throw std::runtime_error("rank failure");
                 co_return;
               }),
               std::runtime_error);
}

TEST(Engine, ClockAdvancesWithComputeAndMessages) {
  Engine eng = make_engine(2, 1);
  eng.run([&](Context& ctx) -> Task<> {
    EXPECT_DOUBLE_EQ(ctx.now(), 0.0);
    ctx.compute(0.5);
    EXPECT_DOUBLE_EQ(ctx.now(), 0.5);
    co_return;
  });
}

TEST(Engine, NetworkMessageSlowerThanRegionMessage) {
  // Same payload: network delivery must complete later than intra-region.
  auto elapsed = [](int nodes, int rpn) {
    Engine eng(Machine({.num_nodes = nodes, .regions_per_node = 1,
                        .ranks_per_region = rpn}),
               CostParams::lassen());
    eng.run([&](Context& ctx) -> Task<> {
      std::vector<double> buf(512);
      if (ctx.rank() == 0) {
        auto s = Request::send(
            ctx.world(),
            std::as_bytes(std::span<const double>(buf.data(), buf.size())), 1,
            0);
        s.start(ctx);
        co_await ctx.wait(s);
      } else if (ctx.rank() == 1) {
        auto r = Request::recv(
            ctx.world(),
            std::as_writable_bytes(std::span<double>(buf.data(), buf.size())),
            0, 0);
        r.start(ctx);
        co_await ctx.wait(r);
      }
      co_return;
    });
    return eng.clock(1);
  };
  const double intra = elapsed(1, 2);    // ranks 0,1 same region
  const double inter = elapsed(2, 1);    // ranks 0,1 different nodes
  EXPECT_LT(intra, inter);
}

TEST(Engine, InjectionCapSerializesSimultaneousSenders) {
  // 8 ranks on one node each send a large message to a different node.
  // With the cap, the last arrival is later than without.
  auto last_clock = [](bool cap) {
    CostParams p = CostParams::lassen();
    p.use_injection_cap = cap;
    Engine eng(Machine({.num_nodes = 2, .regions_per_node = 1,
                        .ranks_per_region = 8}),
               p);
    eng.run([&](Context& ctx) -> Task<> {
      const int half = 8;
      std::vector<double> buf(1 << 14);
      if (ctx.rank() < half) {
        auto s = Request::send(
            ctx.world(),
            std::as_bytes(std::span<const double>(buf.data(), buf.size())),
            ctx.rank() + half, 0);
        s.start(ctx);
        co_await ctx.wait(s);
      } else {
        auto r = Request::recv(
            ctx.world(),
            std::as_writable_bytes(std::span<double>(buf.data(), buf.size())),
            ctx.rank() - half, 0);
        r.start(ctx);
        co_await ctx.wait(r);
      }
    });
    return eng.max_clock();
  };
  EXPECT_GT(last_clock(true), last_clock(false));
}

TEST(Engine, StatsCountMessagesPerTier) {
  Engine eng(Machine({.num_nodes = 2, .regions_per_node = 1,
                      .ranks_per_region = 2}),
             CostParams::lassen());
  eng.run([&](Context& ctx) -> Task<> {
    // rank 0 sends to rank 1 (region) and rank 2 (network).
    if (ctx.rank() == 0) {
      std::vector<Request> reqs;
      reqs.push_back(Request::send(ctx.world(), {}, 1, 0));
      reqs.push_back(Request::send(ctx.world(), {}, 2, 0));
      for (auto& r : reqs) r.start(ctx);
      co_await ctx.wait_all(std::span<Request>(reqs));
    } else if (ctx.rank() <= 2) {
      auto r = Request::recv(ctx.world(), {}, 0, 0);
      r.start(ctx);
      co_await ctx.wait(r);
    }
  });
  const auto& s = eng.stats(0);
  EXPECT_EQ(s.tier[static_cast<int>(Locality::region)].msgs, 1u);
  EXPECT_EQ(s.tier[static_cast<int>(Locality::network)].msgs, 1u);
  EXPECT_EQ(s.total_msgs(), 2u);
  EXPECT_EQ(eng.max_msgs({Locality::region, Locality::network}), 2u);
}

TEST(Engine, DeterministicClocksAcrossRuns) {
  auto once = [] {
    Engine eng = make_engine(4, 4);
    eng.run([&](Context& ctx) -> Task<> {
      const int p = ctx.world().size();
      std::vector<double> v(64, ctx.rank());
      std::vector<double> in(64);
      const int dst = (ctx.rank() + 5) % p;
      const int src = (ctx.rank() - 5 + p) % p;
      auto s = Request::send(
          ctx.world(),
          std::as_bytes(std::span<const double>(v.data(), v.size())), dst, 1);
      auto r = Request::recv(
          ctx.world(),
          std::as_writable_bytes(std::span<double>(in.data(), in.size())), src,
          1);
      s.start(ctx);
      r.start(ctx);
      co_await ctx.wait(s);
      co_await ctx.wait(r);
      EXPECT_DOUBLE_EQ(in[0], src);
    });
    std::vector<double> clocks;
    for (int r = 0; r < eng.machine().num_ranks(); ++r)
      clocks.push_back(eng.clock(r));
    return clocks;
  };
  EXPECT_EQ(once(), once());
}

TEST(Engine, DynamicRecvCapturesPayload) {
  Engine eng = make_engine(2, 1);
  std::vector<int> got;
  eng.run([&](Context& ctx) -> Task<> {
    if (ctx.rank() == 0) {
      std::vector<int> data{7, 8, 9};
      auto s = Request::send(ctx.world(), bytes_of(data), 1, 0);
      s.start(ctx);
      co_await ctx.wait(s);
    } else {
      auto r = Request::recv_dyn(ctx.world(), 0, 0);
      r.start(ctx);
      co_await ctx.wait(r);
      auto payload = r.take_payload();
      got.resize(payload.size() / sizeof(int));
      std::memcpy(got.data(), payload.data(), payload.size());
    }
  });
  EXPECT_EQ(got, (std::vector<int>{7, 8, 9}));
}

TEST(Engine, SyncResetIsolatesMeasurementSections) {
  // Regression: heavy pre-reset network traffic (and the zero-byte barrier
  // messages of sync_reset itself, sent by ranks whose clocks are not yet
  // reset) must not leak into post-reset arrival times through the NIC
  // injection queue.
  Engine eng = make_engine(4, 4);
  std::vector<double> elapsed(16, 0.0);
  eng.run([&](Context& ctx) -> Task<> {
    const int p = ctx.world().size();
    std::vector<double> big(1 << 15);
    const int peer = (ctx.rank() + 5) % p;
    const int from = (ctx.rank() - 5 + p) % p;
    // Phase 1: heavy traffic, clocks end up ~milliseconds apart.
    auto s = Request::send(
        ctx.world(),
        std::as_bytes(std::span<const double>(big.data(), big.size())), peer,
        1);
    auto r = Request::recv(
        ctx.world(),
        std::as_writable_bytes(std::span<double>(big.data(), big.size())),
        from, 1);
    s.start(ctx);
    r.start(ctx);
    co_await ctx.wait(s);
    co_await ctx.wait(r);
    co_await ctx.engine().sync_reset(ctx);
    // Phase 2: a small exchange must now be microseconds, not inherit the
    // pre-reset queue state.
    std::vector<double> small(8);
    auto s2 = Request::send(
        ctx.world(),
        std::as_bytes(std::span<const double>(small.data(), small.size())),
        peer, 2);
    auto r2 = Request::recv(
        ctx.world(),
        std::as_writable_bytes(std::span<double>(small.data(), small.size())),
        from, 2);
    s2.start(ctx);
    r2.start(ctx);
    co_await ctx.wait(s2);
    co_await ctx.wait(r2);
    elapsed[ctx.rank()] = ctx.now();
    co_return;
  });
  for (double t : elapsed) {
    EXPECT_GT(t, 0.0);
    EXPECT_LT(t, 5e-5) << "stale NIC/clock state leaked across sync_reset";
  }
}

TEST(Engine, SyncResetZerosClocksAndStats) {
  Engine eng = make_engine(2, 2);
  eng.run([&](Context& ctx) -> Task<> {
    ctx.compute(1.0 + ctx.rank());
    co_await ctx.engine().sync_reset(ctx);
    EXPECT_DOUBLE_EQ(ctx.now(), 0.0);
    co_return;
  });
  for (int r = 0; r < 4; ++r) {
    EXPECT_DOUBLE_EQ(eng.clock(r), 0.0);
    EXPECT_EQ(eng.stats(r).total_msgs(), 0u);
  }
}

// Comm is a non-owning handle: copying one (into every Request and
// coroutine frame) must never touch shared state such as a refcount.
static_assert(std::is_trivially_copyable_v<Comm>);

TEST(Engine, CommCreationRejectsMemberMismatch) {
  Engine eng = make_engine(1, 4);
  const CommData* a = eng.get_or_create_comm(0, 0, 1, {0, 1});
  EXPECT_EQ(eng.get_or_create_comm(0, 0, 1, {0, 1}), a);
  EXPECT_NE(eng.get_or_create_comm(0, 0, 2, {2, 3}), a);
  EXPECT_THROW(eng.get_or_create_comm(0, 0, 1, {0, 2}), SimError);
  EXPECT_THROW(eng.get_or_create_comm(0, 0, 1, {0, 1, 2}), SimError);
}

TEST(Engine, SubCommHandlesStayValidWhileEngineLives) {
  // Handles taken early in a run are used after many more communicators
  // were created (the engine's communicator table rehashes under them),
  // after the run, and in a second run: a Comm stays valid as long as its
  // engine, whatever else the engine creates meanwhile.
  Engine eng(Machine({.num_nodes = 4, .regions_per_node = 2,
                      .ranks_per_region = 4}),
             CostParams::lassen(), Engine::Options{.threads = 4});
  const int n = eng.machine().num_ranks();
  std::vector<Comm> region(n), parity(n);
  eng.run([&](Context& ctx) -> Task<> {
    const int r = ctx.rank();
    region[r] = co_await coll::split_by_region(ctx, ctx.world());
    parity[r] = co_await coll::comm_split(ctx, ctx.world(), r % 2, r);
    for (int i = 0; i < 40; ++i)
      (void)co_await coll::comm_split(ctx, ctx.world(), (r + i) % 3, r);
    const long sum = co_await coll::allreduce<long>(
        ctx, region[r], static_cast<long>(r),
        [](long a, long b) { return a + b; });
    const int first = r - region[r].rank();
    EXPECT_EQ(sum, 4L * first + 6);
    co_await coll::barrier(ctx, parity[r]);
  });
  for (int r = 0; r < n; ++r) {
    ASSERT_TRUE(region[r].valid());
    EXPECT_EQ(region[r].size(), 4);
    EXPECT_EQ(region[r].global(region[r].rank()), r);
    EXPECT_EQ(parity[r].size(), n / 2);
    EXPECT_EQ(parity[r].global(parity[r].rank()), r);
    EXPECT_EQ(parity[r].id(), parity[r % 2].id());
  }
  eng.run([&](Context& ctx) -> Task<> {
    const int r = ctx.rank();
    const int members = co_await coll::allreduce<int>(
        ctx, parity[r], 1, [](int a, int b) { return a + b; });
    EXPECT_EQ(members, n / 2);
  });
}
