/// \file test_cache_concurrency.cpp
/// \brief Concurrency battery for the shared caches and pools — the state
/// the ROADMAP's concurrent-sweep batch driver will share across
/// simultaneous simulations.
///
/// Every test here is written to be *raced*: N host threads hammer one
/// shared `harness::PlanCache` (colliding and distinct keys), one shared
/// `harness::HierarchyCache` (same-key load/store, two-writer same-key
/// stores, eviction around in-flight temp files), the process-wide
/// coroutine-frame reservoir (`util::frame_alloc`/`frame_free` with
/// cross-thread block migration), a cross-thread `util::Arena`
/// produce/consume pipeline, `util::WorkerPool` exception rethrow
/// under contention, and the per-communicator `simmpi::CommCache` from
/// rank coroutines of a width-4 engine.  The assertions pin functional
/// correctness; the real teeth are the `-DSANITIZE=thread` CI job, where
/// ThreadSanitizer turns any unsynchronized access these workloads reach
/// into a test failure (see docs/ARCHITECTURE.md, "Thread-safety
/// contract").

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness/exchange.hpp"
#include "harness/hierarchy_cache.hpp"
#include "mpix/detail.hpp"
#include "mpix/neighbor.hpp"
#include "simmpi/coll.hpp"
#include "sparse/stencil.hpp"
#include "util/arena.hpp"
#include "util/worker_pool.hpp"

namespace fs = std::filesystem;
using harness::HierarchyCache;
using harness::PlanCache;

namespace {

/// Fresh scratch directory per test, removed on destruction.
struct TempDir {
  fs::path path;
  TempDir() {
    static std::atomic<int> counter{0};
    path = fs::temp_directory_path() /
           ("cache-conc-test-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter.fetch_add(1)));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// Minimal concrete plan kind: the cache stores any PlanBase.
struct TestPlan : mpix::PlanBase {
  explicit TestPlan(std::uint64_t tag) : payload(64, tag) {}
  std::vector<std::uint64_t> payload;
};

/// Launch `n` threads running `fn(thread_index)` and join them all.
template <class Fn>
void run_threads(int n, Fn fn) {
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (int t = 0; t < n; ++t) threads.emplace_back(fn, t);
  for (auto& th : threads) th.join();
}

amg::DistHierarchy build_small(long rows = 256, int nranks = 4) {
  int nx = 0, ny = 0;
  sparse::factor_grid(rows, nx, ny);
  return amg::distribute_hierarchy(
      amg::Hierarchy::build(sparse::paper_problem(nx, ny)), nranks);
}

}  // namespace

// ---- PlanCache ------------------------------------------------------

// N threads hammer one shared cache with finds and inserts on a small
// colliding key set (every thread touches every key) *and* on per-thread
// distinct keys.  Correctness: a find never observes a torn entry (every
// retrieved plan's payload is internally consistent), the accounting adds
// up, and the final size is exactly the distinct (key, rank) set.
TEST(PlanCacheConcurrency, ConcurrentFindAndInsert) {
  constexpr int kThreads = 8;
  constexpr int kIters = 400;
  constexpr int kSharedKeys = 4;
  PlanCache cache;
  std::atomic<long> finds{0};

  run_threads(kThreads, [&](int t) {
    for (int i = 0; i < kIters; ++i) {
      // Colliding half: all threads race find/put on (key in [0,4), rank 0).
      const std::uint64_t shared_key =
          static_cast<std::uint64_t>(i % kSharedKeys);
      auto found = cache.find<TestPlan>(shared_key, /*rank=*/0);
      finds.fetch_add(1, std::memory_order_relaxed);
      if (found) {
        // Whoever put it, the entry must be whole: one uniform payload.
        ASSERT_EQ(found->payload.size(), 64u);
        for (std::uint64_t v : found->payload)
          ASSERT_EQ(v, found->payload[0]);
        ASSERT_EQ(found->payload[0] % kSharedKeys, shared_key);
      } else {
        cache.put(shared_key, 0, std::make_shared<const TestPlan>(
                                     shared_key + kSharedKeys * 1000));
      }
      // Distinct half: per-thread rank slot, no key collisions across
      // threads (the per-rank keying the engine's rank coroutines use).
      const std::uint64_t own_key = 1000 + static_cast<std::uint64_t>(t);
      if (auto own = cache.find<TestPlan>(own_key, t)) {
        ASSERT_EQ(own->payload[0], static_cast<std::uint64_t>(t));
      } else {
        cache.put(own_key, t, std::make_shared<const TestPlan>(t));
      }
      finds.fetch_add(1, std::memory_order_relaxed);
    }
  });

  EXPECT_EQ(cache.hits() + cache.misses(), finds.load());
  // Exactly the distinct (key, rank) pairs: 4 shared + one per thread.
  EXPECT_EQ(cache.size(), static_cast<std::size_t>(kSharedKeys + kThreads));
  // Every shared key was missed at least once and hit many times.
  EXPECT_GE(cache.misses(), kSharedKeys + kThreads);
  EXPECT_GT(cache.hits(), 0);
}

// find<P> on a key holding another kind must read as null under the same
// contention (the dynamic_cast miss path is part of the API contract).
TEST(PlanCacheConcurrency, WrongKindReadsNullUnderContention) {
  PlanCache cache;
  cache.put(7, 0, std::make_shared<const TestPlan>(7));
  run_threads(4, [&](int) {
    for (int i = 0; i < 200; ++i) {
      auto as_locality = cache.find<mpix::LocalityPlan>(7, 0);
      EXPECT_EQ(as_locality, nullptr);
      auto as_test = cache.find<TestPlan>(7, 0);
      ASSERT_NE(as_test, nullptr);
      EXPECT_EQ(as_test->payload[0], 7u);
    }
  });
  EXPECT_EQ(cache.size(), 1u);
}

// ---- HierarchyCache -------------------------------------------------

// Concurrent load/store of the *same key* on one shared cache instance:
// every successful load must deep-equal the stored hierarchy (the atomic
// rename publishes candidates whole), and the counters must add up.
TEST(HierarchyCacheConcurrency, ConcurrentLoadStoreSameKey) {
  TempDir tmp;
  HierarchyCache cache(tmp.path);
  const amg::DistHierarchy dh = build_small();
  const HierarchyCache::Key key{256, 4, amg::Options{}};

  constexpr int kThreads = 6;
  constexpr int kIters = 6;
  std::atomic<long> loads{0}, good_loads{0};
  run_threads(kThreads, [&](int t) {
    for (int i = 0; i < kIters; ++i) {
      if (t % 2 == 0) {
        EXPECT_TRUE(cache.store(key, dh));
      }
      auto loaded = cache.load(key);
      loads.fetch_add(1, std::memory_order_relaxed);
      if (loaded) {
        good_loads.fetch_add(1, std::memory_order_relaxed);
        EXPECT_EQ(*loaded, dh);
      }
    }
  });

  EXPECT_EQ(cache.hits() + cache.misses(), loads.load());
  EXPECT_EQ(cache.hits(), good_loads.load());
  // After the dust settles the entry is present and loads cleanly.
  auto final_load = cache.load(key);
  ASSERT_TRUE(final_load.has_value());
  EXPECT_EQ(*final_load, dh);
}

// Satellite regression: two threads storing the same key used to share one
// pid-derived temp path and interleave writes in it.  Now each writer owns
// a unique temp file, so a concurrent reader can only ever observe nothing
// or a complete, checksum-clean hierarchy — and no temp litter survives.
TEST(HierarchyCacheConcurrency, TwoWritersSameKeyPublishWholeFiles) {
  TempDir tmp;
  HierarchyCache cache(tmp.path);
  const amg::DistHierarchy dh = build_small();
  const HierarchyCache::Key key{256, 4, amg::Options{}};

  constexpr int kStores = 8;
  std::atomic<bool> writers_done{false};
  std::atomic<long> torn{0};
  std::thread reader([&] {
    while (!writers_done.load(std::memory_order_acquire)) {
      if (auto loaded = cache.load(key); loaded && !(*loaded == dh))
        torn.fetch_add(1, std::memory_order_relaxed);
    }
  });
  run_threads(2, [&](int) {
    for (int i = 0; i < kStores; ++i) EXPECT_TRUE(cache.store(key, dh));
  });
  writers_done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(torn.load(), 0);
  auto loaded = cache.load(key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, dh);
  // Every temp file was either renamed into place or cleaned up.
  int chc = 0, tmps = 0;
  for (const auto& de : fs::directory_iterator(tmp.path)) {
    if (de.path().extension() == ".chc")
      ++chc;
    else
      ++tmps;
  }
  EXPECT_EQ(chc, 1);
  EXPECT_EQ(tmps, 0);
}

// Eviction must only consider completed `.chc` entries: an in-flight
// `.tmp-*` file (here: a stale one faked in by hand) is never deleted and
// never counted against the cap.
TEST(HierarchyCacheConcurrency, EvictionSkipsTempFiles) {
  TempDir tmp;
  const amg::DistHierarchy dh = build_small();
  const HierarchyCache::Key key_a{256, 4, amg::Options{}};
  amg::Options opts_b;
  opts_b.max_levels = 2;  // distinct key -> distinct content address
  const HierarchyCache::Key key_b{256, 4, opts_b};

  // Size one entry, then cap the cache below two of them.
  std::uintmax_t one_entry = 0;
  {
    HierarchyCache sizer(tmp.path);
    ASSERT_TRUE(sizer.store(key_a, dh));
    one_entry = fs::file_size(sizer.path_of(key_a));
    fs::remove(sizer.path_of(key_a));
  }
  HierarchyCache cache(tmp.path, one_entry + one_entry / 2);

  ASSERT_TRUE(cache.store(key_a, dh));
  const fs::path fake_tmp =
      cache.path_of(key_a).string() + ".tmp-99999-0";
  {
    std::ofstream out(fake_tmp, std::ios::binary);
    out << "half-written by a crashed process";
  }
  ASSERT_TRUE(cache.store(key_b, dh));  // over cap: must evict key_a only

  EXPECT_FALSE(fs::exists(cache.path_of(key_a)));  // evicted (oldest)
  EXPECT_TRUE(fs::exists(cache.path_of(key_b)));   // just written: kept
  EXPECT_TRUE(fs::exists(fake_tmp));               // temp: never touched
  // The stale temp is inert for loads, too.
  EXPECT_FALSE(cache.load(key_a).has_value());
  EXPECT_TRUE(cache.load(key_b).has_value());
}

// ---- coroutine-frame pool / Arena ----------------------------------

// Frame-pool churn across threads: producers allocate and write blocks,
// hand them through a mutex-guarded queue, and consumers free them — so
// blocks migrate between per-thread caches through the process-wide
// reservoir, exactly like coroutine frames surviving the engine's per-run
// worker threads.  Each producer slot runs its share in several short-lived
// threads, so thread-exit drains park batches while the other slots' live
// threads take batches on their misses.  The pool must reuse blocks (that
// is its contract) and TSan must see clean handoffs.
TEST(FramePoolConcurrency, CrossThreadChurnReusesBlocks) {
  struct Block {
    void* p;
    std::size_t n;
  };
  std::mutex mu;
  std::deque<Block> queue;
  std::atomic<bool> done{false};
  constexpr int kBlocks = 2000;
  constexpr int kGenerations = 4;  // producer threads per slot, in sequence
  const std::size_t sizes[] = {64, 192, 448, 1024, 4096, 32 * 1024};

  const std::uint64_t reuses_before = util::frame_pool_reuses();

  std::thread consumer([&] {
    for (;;) {
      Block b{nullptr, 0};
      {
        std::lock_guard<std::mutex> lk(mu);
        if (!queue.empty()) {
          b = queue.front();
          queue.pop_front();
        } else if (done.load(std::memory_order_acquire)) {
          return;
        }
      }
      if (b.p) {
        // Read what the producer wrote: a handoff TSan can check.
        EXPECT_EQ(static_cast<unsigned char*>(b.p)[0],
                  static_cast<unsigned char>(b.n & 0xff));
        util::frame_free(b.p, b.n);
      }
    }
  });

  auto produce = [&](int t, int begin, int end) {
    for (int i = begin; i < end; ++i) {
      const std::size_t n = sizes[(i + t) % std::size(sizes)];
      void* p = util::frame_alloc(n);
      ASSERT_NE(p, nullptr);
      std::memset(p, static_cast<int>(n & 0xff), 8);
      if (i % 2 == 0) {
        std::lock_guard<std::mutex> lk(mu);
        queue.push_back({p, n});
      } else {
        util::frame_free(p, n);  // same-thread fast path interleaved
      }
    }
  };
  run_threads(3, [&](int t) {
    constexpr int kShare = kBlocks / kGenerations;
    for (int g = 0; g < kGenerations; ++g)
      std::thread(produce, t, g * kShare, (g + 1) * kShare).join();
  });
  done.store(true, std::memory_order_release);
  consumer.join();

  // Churn at this volume must recycle: the whole point of the pool.
  EXPECT_GT(util::frame_pool_reuses(), reuses_before);
}

// Arena produce/consume across threads: one producer bumps its own arena
// (the engine's one-bumper-per-arena contract) while consumer threads read
// the payload bytes and release the blocks from their side.  Once all
// consumers finished, every chunk must be fully released and the arena
// recycles instead of growing.
TEST(ArenaConcurrency, CrossThreadReleaseRecycles) {
  util::Arena arena(4 * 1024);
  struct Item {
    util::Arena::Alloc a;
    std::size_t n;
  };
  std::mutex mu;
  std::deque<Item> queue;
  std::atomic<bool> done{false};
  constexpr int kItems = 4000;

  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&] {
      for (;;) {
        Item it{{}, 0};
        {
          std::lock_guard<std::mutex> lk(mu);
          if (!queue.empty()) {
            it = queue.front();
            queue.pop_front();
          } else if (done.load(std::memory_order_acquire)) {
            return;
          }
        }
        if (it.a.data) {
          for (std::size_t k = 0; k < it.n; ++k)
            EXPECT_EQ(it.a.data[k], std::byte{0x5a});
          util::Arena::release(it.a.chunk);
        }
      }
    });
  }

  // Single bumper: sizes cross the chunk boundary and the oversized-spill
  // path, so recycling covers both chunk shapes.  The queue is bounded so
  // the producer cannot outrun the consumers — a stable working set is
  // what makes recycling (rather than growth) the expected behavior.
  for (int i = 0; i < kItems; ++i) {
    const std::size_t n = (i % 7 == 0) ? 8 * 1024 : 256;
    for (;;) {
      bool backlogged;
      {
        std::lock_guard<std::mutex> lk(mu);
        backlogged = queue.size() >= 64;
      }
      if (!backlogged) break;
      std::this_thread::yield();
    }
    util::Arena::Alloc a = arena.allocate(n);
    std::memset(a.data, 0x5a, n);
    std::lock_guard<std::mutex> lk(mu);
    queue.push_back({a, n});
  }
  done.store(true, std::memory_order_release);
  for (auto& t : consumers) t.join();

  EXPECT_TRUE(arena.clean());
  EXPECT_GT(arena.stats().recycles, 0u);
  // The steady working set is a handful of chunks, not thousands.
  EXPECT_LT(arena.stats().chunks, 64u);
}

// ---- WorkerPool -----------------------------------------------------

// Exception rethrow under contention: many chunks, several of which throw
// concurrently.  The pool must (a) run every chunk to completion, (b)
// rethrow exactly the first-in-block-order exception, and (c) stay usable
// for clean runs afterwards — including reuse of the same pool object.
TEST(WorkerPoolConcurrency, ExceptionRethrowUnderContention) {
  util::WorkerPool pool(4);
  constexpr std::size_t kN = 4096;
  constexpr std::size_t kChunk = 16;

  for (int round = 0; round < 10; ++round) {
    std::vector<int> touched(kN, 0);
    const std::size_t first_bad_chunk = 3 + static_cast<std::size_t>(round);
    try {
      pool.run(kN, kChunk, [&](std::size_t b, std::size_t e, int) {
        for (std::size_t i = b; i < e; ++i) touched[i] = 1;
        const std::size_t chunk_idx = b / kChunk;
        if (chunk_idx >= first_bad_chunk && chunk_idx % 7 == 0)
          throw std::runtime_error("chunk " + std::to_string(chunk_idx));
      });
      FAIL() << "expected a rethrow";
    } catch (const std::runtime_error& e) {
      // First throwing chunk in *block order*, independent of which worker
      // ran it or finished last.
      std::size_t expect = first_bad_chunk;
      while (expect % 7 != 0) ++expect;
      EXPECT_EQ(std::string(e.what()), "chunk " + std::to_string(expect));
    }
    // Every chunk ran despite the exceptions.
    for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(touched[i], 1);

    // The pool is clean for the next (non-throwing) invocation.
    std::atomic<long> sum{0};
    pool.run(kN, kChunk, [&](std::size_t b, std::size_t e, int) {
      sum.fetch_add(static_cast<long>(e - b), std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), static_cast<long>(kN));
  }
}

// Concurrent chunks of one pool invocation hammering the shared PlanCache:
// the engine resumes rank coroutines on this pool, and those coroutines
// find/put plans — this is the exact contention shape of a concurrent
// sweep, minus the engine.
TEST(WorkerPoolConcurrency, WorkersShareOnePlanCache) {
  util::WorkerPool pool(4);
  PlanCache cache;
  constexpr std::size_t kRanks = 512;

  for (int round = 0; round < 3; ++round) {
    pool.run(kRanks, 8, [&](std::size_t b, std::size_t e, int) {
      for (std::size_t r = b; r < e; ++r) {
        const std::uint64_t key = r % 16;
        if (auto p = cache.find<TestPlan>(key, static_cast<int>(r))) {
          ASSERT_EQ(p->payload[0], key);
        } else {
          cache.put(key, static_cast<int>(r),
                    std::make_shared<const TestPlan>(key));
        }
      }
    });
  }
  EXPECT_EQ(cache.size(), kRanks);  // one entry per (key, rank) pair
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<long>(3 * kRanks));
  EXPECT_EQ(cache.misses(), static_cast<long>(kRanks));
}

// ---- CommCache ------------------------------------------------------

// The locality plan build's sharing pattern on a width-4 engine: every
// member of each 16-rank region takes the region's routing from the region
// communicator's cache, and every rank reads the world communicator's
// layout.  The routing is built exactly once per region, every member gets
// the same object, and the cache drops it after the last take (the engine,
// and with it every communicator, is still alive when the weak pointers
// are checked).  The world layout is built once for all 512 ranks.
TEST(CommCacheConcurrency, RegionRoutingBuiltOncePerRegion) {
  constexpr int kRegions = 32, kPerRegion = 16;
  constexpr int kRanks = kRegions * kPerRegion;
  simmpi::Engine eng(simmpi::Machine({.num_nodes = kRegions,
                                      .regions_per_node = 1,
                                      .ranks_per_region = kPerRegion}),
                     simmpi::CostParams::lassen(),
                     simmpi::Engine::Options{.threads = 4});
  ASSERT_EQ(eng.threads(), 4);
  static const char kKey = 0;
  using mpix::detail::RegionRouting;
  std::atomic<int> builds{0};
  std::vector<const RegionRouting*> got(kRanks);
  std::vector<std::weak_ptr<const RegionRouting>> weak(kRanks);
  std::vector<const mpix::detail::CommLayout*> layouts(kRanks);

  eng.run([&](simmpi::Context& ctx) -> simmpi::Task<> {
    const simmpi::Comm world = ctx.world();
    simmpi::Comm rc = co_await simmpi::coll::split_by_region(ctx, world);
    // Each member's (edge-free) serialize_edges blob: [rank, 0, 0].
    std::vector<long long> mine{world.rank(), 0, 0};
    auto all_md = co_await simmpi::coll::allgatherv<long long>(
        ctx, rc, std::move(mine));
    const int region = ctx.engine().machine().region_of(ctx.rank());
    auto rt = rc.cache().take<RegionRouting>(&kKey, rc.size(), [&] {
      builds.fetch_add(1, std::memory_order_relaxed);
      return std::make_shared<const RegionRouting>(mpix::detail::region_routing(
          all_md, false, true, rc.size(), region, ctx.engine().machine(),
          world.members()));
    });
    EXPECT_EQ(rt->metadata, all_md);
    got[ctx.rank()] = rt.get();
    weak[ctx.rank()] = rt;
    layouts[ctx.rank()] = mpix::detail::comm_layout(world).get();
    // Hold the routing until every member has taken it.
    co_await simmpi::coll::barrier(ctx, rc);
  });

  EXPECT_EQ(builds.load(), kRegions);
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(got[r], got[r - r % kPerRegion]) << "rank " << r;
    EXPECT_TRUE(weak[r].expired()) << "rank " << r;
    EXPECT_EQ(layouts[r], layouts[0]) << "rank " << r;
  }
  // The world communicator keeps its layout after the run.
  const simmpi::Comm world(&eng, eng.world_data(), 0);
  EXPECT_EQ(mpix::detail::comm_layout(world).get(), layouts[0]);
  EXPECT_EQ(mpix::detail::binding_fingerprint(world),
            layouts[0]->fingerprint);
}
