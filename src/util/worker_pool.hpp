#pragma once
/// \file worker_pool.hpp
/// \brief Fixed pool of OS worker threads running chunked index ranges.
///
/// The pool underlies every multi-threaded phase of the codebase: the
/// simulation engine resumes one phase's rank coroutines on it, and the
/// sparse layer's two-phase kernels run their per-row count and fill passes
/// on it.  Work is handed out as contiguous chunks of an index range
/// [0, n): workers claim chunks through a single atomic cursor, so *which*
/// worker runs a chunk is nondeterministic — callers must therefore write
/// results only to chunk-owned (disjoint, preallocated) destinations, or to
/// per-worker scratch indexed by the `worker` argument.  Under that rule
/// the output bytes are independent of the worker count by construction,
/// which is how both the engine's schedule and the sparse kernels keep
/// their determinism contracts (see docs/ARCHITECTURE.md).
///
/// Cost: a multi-chunk run() returns only after *every* worker woke up and
/// checked in, so one dispatch costs a wake-up round trip of the slowest
/// worker (tens to hundreds of microseconds on a loaded 4-core host).
/// Callers with small inputs should run them inline instead; the engine
/// does so for phases of at most `Engine::kInlinePhaseRanks` ranks.
///
/// Coroutine caveat (engine use): handles are resumed on whatever worker
/// grabs their chunk, so a coroutine may migrate threads across suspension
/// points.  Nothing run on the pool may rely on thread-locals across a
/// co_await — and the g++ 12 braced-temporary lifetime bug applies to
/// coroutine code run by this pool exactly as it does single-threaded (see
/// docs/COROUTINE_PITFALLS.md).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <initializer_list>
#include <thread>
#include <vector>

#include "util/thread_annotations.hpp"

namespace util {

/// Resolve a thread-count knob.  A positive `requested` wins; otherwise the
/// first environment variable in `env_vars` holding a positive integer;
/// otherwise `std::thread::hardware_concurrency()`.  Always in [1, 512].
int resolve_threads(int requested,
                    std::initializer_list<const char*> env_vars);

/// Fixed pool of `nthreads` workers (the caller of run() included).
///
/// run() only executes *between* invocations: it hands out the chunks,
/// every worker claims and runs disjoint chunks until none remain, and
/// run() returns only after all of them finished.  The mutex handoffs
/// around an invocation give the caller (and the next invocation's
/// workers) a view of every byte written during it.
///
/// OS threads are spawned lazily, by the first run() with more than one
/// chunk: a pool constructed for a small input (or destroyed without a
/// multi-chunk run) never pays thread creation, so per-kernel transient
/// pools are cheap on the serial path.
class WorkerPool {
 public:
  /// A unit of work: the half-open index range [begin, end), plus the id
  /// (in [0, threads())) of the worker running it — for per-worker scratch
  /// only; chunk-to-worker assignment is not deterministic.
  using ChunkFn =
      std::function<void(std::size_t begin, std::size_t end, int worker)>;

  explicit WorkerPool(int nthreads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int threads() const { return nthreads_; }

  /// Run `fn` over [0, n) split into `chunk`-sized blocks; blocks until
  /// every block ran.  The first exception escaping `fn` (in block order)
  /// is rethrown after all blocks completed.  Single-block (or
  /// single-worker) invocations run inline without waking the pool.
  void run(std::size_t n, std::size_t chunk, const ChunkFn& fn);

 private:
  void run_chunks(int worker);
  void worker_loop(int worker);

  const int nthreads_;
  std::vector<std::thread> threads_;
  // Invocation state (fn_, n_, chunk_, errs_, next_) is *not* GUARDED_BY
  // mu_: run() writes it while the pool is quiescent, and the generation
  // handshake below publishes it — workers read it only after observing
  // the gen_ bump under mu_ (acquire), and run() reads errs_ back only
  // after pending_ drained to zero under mu_.  Annotating it GUARDED_BY
  // would claim a stronger (and false) protocol; TSan validates this one.
  const ChunkFn* fn_ = nullptr;
  std::size_t n_ = 0;
  std::size_t chunk_ = 1;
  std::vector<std::exception_ptr> errs_;
  std::atomic<std::size_t> next_{0};
  Mutex mu_;
  CondVar cv_, done_cv_;
  std::uint64_t gen_ GUARDED_BY(mu_) = 0;
  int pending_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;
};

/// Chunk size of a row-parallel pass over `rows` items on `threads`
/// workers: ~8 chunks per worker to balance irregular rows, clamped to
/// [64, 8192] to amortize the chunk cursor.  Chunk boundaries must never
/// influence output bytes (rows write only their own slices), so this is
/// a pure tuning knob shared by every two-phase kernel.
std::size_t row_chunk(std::size_t rows, int threads);

/// In-place exclusive scan of per-slot counts stored at counts[i + 1]
/// (counts[0] stays 0) into final offsets; returns the total.  Step 2 of
/// every two-phase kernel: count pass → offsets → preallocate → fill.
long exclusive_scan_counts(std::vector<long>& counts);

}  // namespace util
