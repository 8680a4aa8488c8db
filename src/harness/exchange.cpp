#include "harness/exchange.hpp"

#include <numeric>

#include "simmpi/dist_graph.hpp"
#include "util/hash.hpp"

namespace harness {

// The Protocol <-> Method mapping must round-trip for every neighbor
// protocol (and every method): the harness dispatch relies on it.
static_assert(protocol_of(method_of(Protocol::neighbor_standard)) ==
              Protocol::neighbor_standard);
static_assert(protocol_of(method_of(Protocol::neighbor_partial)) ==
              Protocol::neighbor_partial);
static_assert(protocol_of(method_of(Protocol::neighbor_full)) ==
              Protocol::neighbor_full);
static_assert(method_of(protocol_of(mpix::Method::standard)) ==
              mpix::Method::standard);
static_assert(method_of(protocol_of(mpix::Method::locality)) ==
              mpix::Method::locality);
static_assert(method_of(protocol_of(mpix::Method::locality_dedup)) ==
              mpix::Method::locality_dedup);

namespace {

using simmpi::Comm;
using simmpi::Context;
using simmpi::Request;
using simmpi::Task;

/// Shared bookkeeping: owned buffers + gather list.
struct Buffers {
  std::vector<int> send_gather;   ///< local x index per sendbuf slot
  std::vector<double> sendbuf;
  std::vector<double> xext;
  std::vector<int> sendcounts, sdispls, recvcounts, rdispls;
  std::vector<mpix::gidx> send_idx, recv_idx;
  std::vector<int> destinations, sources;

  explicit Buffers(const sparse::RankHalo& halo) {
    destinations = halo.send_ranks;
    sources = halo.recv_ranks;
    sendcounts = halo.send_counts;
    recvcounts = halo.recv_counts;
    sdispls.resize(sendcounts.size());
    rdispls.resize(recvcounts.size());
    int acc = 0;
    for (std::size_t i = 0; i < sendcounts.size(); ++i) {
      sdispls[i] = acc;
      acc += sendcounts[i];
    }
    acc = 0;
    for (std::size_t i = 0; i < recvcounts.size(); ++i) {
      rdispls[i] = acc;
      acc += recvcounts[i];
    }
    send_gather = halo.send_idx;
    send_idx.assign(halo.send_gids.begin(), halo.send_gids.end());
    recv_idx.assign(halo.recv_gids.begin(), halo.recv_gids.end());
    sendbuf.resize(send_gather.size());
    xext.resize(recv_idx.size());
  }

  mpix::AlltoallvArgs args() {
    return mpix::AlltoallvArgsT<double>{
        .sendbuf = sendbuf,
        .sendcounts = sendcounts,
        .sdispls = sdispls,
        .recvbuf = xext,
        .recvcounts = recvcounts,
        .rdispls = rdispls,
        .send_idx = send_idx,
        .recv_idx = recv_idx,
    };
  }

  void gather(std::span<const double> x_local) {
    for (std::size_t k = 0; k < send_gather.size(); ++k)
      sendbuf[k] = x_local[send_gather[k]];
  }
};

/// Hypre-style persistent point-to-point exchange (no topology object).
class HypreExchange final : public HaloExchange {
 public:
  HypreExchange(Context& ctx, Comm comm, const sparse::RankHalo& halo)
      : buf_(halo) {
    const int tag = ctx.engine().next_coll_tag(comm);
    const auto& machine = ctx.engine().machine();
    const int my_region = machine.region_of(comm.global(comm.rank()));
    for (std::size_t i = 0; i < buf_.destinations.size(); ++i) {
      auto seg = std::span<const double>(buf_.sendbuf)
                     .subspan(buf_.sdispls[i], buf_.sendcounts[i]);
      sends_.push_back(Request::send(comm, std::as_bytes(seg),
                                     buf_.destinations[i], tag));
      const bool global =
          machine.region_of(comm.global(buf_.destinations[i])) != my_region;
      if (global) {
        ++stats_.global_msgs;
        stats_.global_values += buf_.sendcounts[i];
        stats_.max_global_msg_values =
            std::max(stats_.max_global_msg_values,
                     static_cast<long>(buf_.sendcounts[i]));
      } else {
        ++stats_.local_msgs;
        stats_.local_values += buf_.sendcounts[i];
      }
    }
    for (std::size_t i = 0; i < buf_.sources.size(); ++i) {
      auto seg = std::span<double>(buf_.xext).subspan(buf_.rdispls[i],
                                                      buf_.recvcounts[i]);
      recvs_.push_back(Request::recv(comm, std::as_writable_bytes(seg),
                                     buf_.sources[i], tag));
    }
  }

  Task<> start(Context& ctx, std::span<const double> x_local) override {
    buf_.gather(x_local);
    for (auto& s : sends_) s.start(ctx);
    for (auto& r : recvs_) r.start(ctx);
    co_return;
  }
  Task<> wait(Context& ctx) override {
    for (auto& s : sends_) co_await ctx.wait(s);
    for (auto& r : recvs_) co_await ctx.wait(r);
  }
  std::span<const double> x_ext() const override { return buf_.xext; }
  mpix::NeighborStats stats() const override { return stats_; }

 private:
  Buffers buf_;
  std::vector<Request> sends_, recvs_;
  mpix::NeighborStats stats_;
};

/// Any mpix neighbor collective behind the same interface.
class NeighborExchange final : public HaloExchange {
 public:
  NeighborExchange(Buffers buf, simmpi::DistGraph graph,
                   std::unique_ptr<mpix::NeighborAlltoallv> coll)
      : buf_(std::move(buf)),
        graph_(std::move(graph)),
        coll_(std::move(coll)) {}

  Task<> start(Context& ctx, std::span<const double> x_local) override {
    buf_.gather(x_local);
    co_await coll_->start(ctx);
  }
  Task<> wait(Context& ctx) override { co_await coll_->wait(ctx); }
  std::span<const double> x_ext() const override { return buf_.xext; }
  mpix::NeighborStats stats() const override { return coll_->stats(); }

 private:
  Buffers buf_;
  simmpi::DistGraph graph_;
  std::unique_ptr<mpix::NeighborAlltoallv> coll_;
};

/// Mix one whole 64-bit word into `h`: an FNV-1a step over the word rather
/// than its bytes, then an xor-shift that carries high input bits into the
/// low key bits.  Both halves are bijections of `h`, so two equal-length
/// inputs that differ in a single word never collide.  Keys are in-process
/// PlanCache keys only, never persisted, so their values may change.
std::uint64_t mix_word(std::uint64_t h, std::uint64_t v) {
  h = (h ^ v) * util::kFnvPrime;
  return h ^ (h >> 32);
}

template <class T>
std::uint64_t mix_vec(std::uint64_t h, const std::vector<T>& v) {
  h = mix_word(h, v.size());
  for (const T& x : v) h = mix_word(h, static_cast<std::uint64_t>(x));
  return h;
}

/// Full cache key: global pattern fingerprint + method + leader strategy +
/// machine/communicator shape.  Only O(1) scalars are mixed in here (this
/// runs on every locality init); a key collision across communicators with
/// different membership cannot misroute, because binding a plan validates
/// the full membership fingerprint baked into it and throws on mismatch.
std::uint64_t cache_key(std::uint64_t pattern_key, mpix::Method method,
                        bool lpt, const simmpi::Comm& comm) {
  std::uint64_t h = mix_word(pattern_key, static_cast<std::uint64_t>(method));
  h = mix_word(h, lpt ? 1 : 0);
  const auto& machine = comm.engine().machine();
  h = mix_word(h, static_cast<std::uint64_t>(machine.num_ranks()));
  h = mix_word(h, static_cast<std::uint64_t>(machine.ranks_per_region()));
  h = mix_word(h, static_cast<std::uint64_t>(machine.ranks_per_node()));
  h = mix_word(h, static_cast<std::uint64_t>(comm.size()));
  // Switch-hierarchy radixes (not tapers: those never change a plan), so
  // plans built on different tree shapes get distinct keys.
  h = mix_word(h, static_cast<std::uint64_t>(machine.num_switch_levels()));
  for (const simmpi::SwitchLevel& lvl : machine.config().switch_levels)
    h = mix_word(h, static_cast<std::uint64_t>(lvl.radix));
  return h;
}

}  // namespace

std::shared_ptr<const mpix::PlanBase> PlanCache::find_base(std::uint64_t key,
                                                           int rank) {
  util::MutexLock lk(mu_);
  const auto* slots = plans_.find(key);
  const auto r = static_cast<std::size_t>(rank);
  if (!slots || r >= slots->size() || !(*slots)[r]) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return (*slots)[r];
}

void PlanCache::put(std::uint64_t key, int rank,
                    std::shared_ptr<const mpix::PlanBase> plan) {
  if (!plan) return;
  util::MutexLock lk(mu_);
  auto& slots = plans_[key];
  const auto r = static_cast<std::size_t>(rank);
  if (r >= slots.size()) slots.resize(r + 1);
  if (!slots[r]) ++stored_;
  slots[r] = std::move(plan);
}

std::uint64_t pattern_fingerprint(const sparse::Halo& halo) {
  std::uint64_t h = mix_word(util::kFnvOffsetBasis, halo.ranks.size());
  for (const sparse::RankHalo& r : halo.ranks) {
    h = mix_vec(h, r.recv_ranks);
    h = mix_vec(h, r.recv_counts);
    h = mix_vec(h, r.send_ranks);
    h = mix_vec(h, r.send_counts);
    h = mix_vec(h, r.send_idx);
    h = mix_vec(h, r.send_gids);
    h = mix_vec(h, r.recv_gids);
  }
  return h;
}

Task<std::unique_ptr<HaloExchange>> make_halo_exchange(
    Context& ctx, Comm comm, Protocol protocol, const sparse::RankHalo& halo,
    const ExchangeOptions& opts) {
  if (protocol == Protocol::hypre)
    co_return std::make_unique<HypreExchange>(ctx, comm, halo);

  // Neighbor collectives bind spans into the Buffers vectors at init.
  // Moving `Buffers` afterwards is safe: vector moves transfer the heap
  // storage the spans point into.
  auto buf = std::make_unique<Buffers>(halo);
  const mpix::Method method = method_of(protocol);
  mpix::Options mopts{.lpt_balance = opts.lpt_balance};

  const bool cacheable = opts.plans && mpix::uses_locality(method);
  std::uint64_t key = 0;
  std::shared_ptr<const mpix::LocalityPlan> cached;  // keeps the plan alive
  if (cacheable) {
    key = cache_key(opts.pattern_key, method, opts.lpt_balance, comm);
    cached = opts.plans->find(key, comm.rank());
    mopts.plan = cached.get();
  }

  simmpi::DistGraph graph = co_await simmpi::dist_graph_create_adjacent(
      ctx, comm, buf->sources, buf->destinations, opts.graph_algo);
  std::unique_ptr<mpix::NeighborAlltoallv> coll =
      co_await mpix::neighbor_alltoallv_init(ctx, graph, buf->args(), method,
                                             mopts);
  if (cacheable && !cached) opts.plans->put(key, comm.rank(), coll->plan());
  co_return std::make_unique<NeighborExchange>(std::move(*buf),
                                               std::move(graph),
                                               std::move(coll));
}

}  // namespace harness
