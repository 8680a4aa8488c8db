#include "util/worker_pool.hpp"

#include <algorithm>
#include <cstdlib>

namespace util {

int resolve_threads(int requested,
                    std::initializer_list<const char*> env_vars) {
  int t = requested;
  if (t <= 0) {
    for (const char* var : env_vars) {
      // Read-only env lookup.  Safe because every setenv() of these
      // variables (benchfig::init, the hostbench driver, a few tests)
      // runs while no other thread does.
      // NOLINTNEXTLINE(concurrency-mt-unsafe)
      if (const char* env = std::getenv(var)) {
        t = std::atoi(env);
        if (t > 0) break;
      }
    }
  }
  if (t <= 0) t = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(t, 1, 512);
}

WorkerPool::WorkerPool(int nthreads) : nthreads_(std::max(1, nthreads)) {}

WorkerPool::~WorkerPool() {
  {
    MutexLock lk(mu_);
    stop_ = true;
    ++gen_;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void WorkerPool::run(std::size_t n, std::size_t chunk, const ChunkFn& fn) {
  if (n == 0) return;
  chunk = std::max<std::size_t>(1, chunk);
  const std::size_t nchunks = (n + chunk - 1) / chunk;
  errs_.assign(nchunks, nullptr);
  fn_ = &fn;
  n_ = n;
  chunk_ = chunk;
  next_.store(0, std::memory_order_relaxed);
  // A single block (or a single worker) isn't worth a pool wakeup; running
  // inline is identical because chunk-owned outputs never depend on which
  // worker runs a chunk.
  if (nthreads_ == 1 || nchunks == 1) {
    run_chunks(0);
  } else {
    if (threads_.empty()) {
      // First multi-chunk run: spawn the workers now (lazily, so pools
      // that only ever see single-chunk inputs cost no OS threads).
      threads_.reserve(nthreads_ - 1);
      for (int i = 0; i < nthreads_ - 1; ++i)
        threads_.emplace_back([this, i] { worker_loop(i + 1); });
    }
    {
      MutexLock lk(mu_);
      pending_ = nthreads_ - 1;
      ++gen_;
    }
    cv_.notify_all();
    run_chunks(0);
    MutexLock lk(mu_);
    while (pending_ != 0) done_cv_.wait(mu_);
  }
  fn_ = nullptr;
  for (auto& e : errs_)
    if (e) std::rethrow_exception(e);
}

void WorkerPool::run_chunks(int worker) {
  for (;;) {
    const std::size_t idx = next_.fetch_add(1, std::memory_order_relaxed);
    const std::size_t begin = idx * chunk_;
    if (begin >= n_) break;
    const std::size_t end = std::min(n_, begin + chunk_);
    try {
      (*fn_)(begin, end, worker);
    } catch (...) {
      errs_[idx] = std::current_exception();
    }
  }
}

void WorkerPool::worker_loop(int worker) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      MutexLock lk(mu_);
      while (!stop_ && gen_ == seen) cv_.wait(mu_);
      if (stop_) return;
      seen = gen_;
    }
    run_chunks(worker);
    {
      MutexLock lk(mu_);
      if (--pending_ == 0) done_cv_.notify_one();
    }
  }
}

std::size_t row_chunk(std::size_t rows, int threads) {
  if (threads <= 1 || rows == 0) return std::max<std::size_t>(rows, 1);
  const std::size_t target = rows / (static_cast<std::size_t>(threads) * 8);
  return std::clamp<std::size_t>(target, 64, 8192);
}

long exclusive_scan_counts(std::vector<long>& counts) {
  for (std::size_t i = 1; i < counts.size(); ++i) counts[i] += counts[i - 1];
  return counts.empty() ? 0 : counts.back();
}

}  // namespace util
