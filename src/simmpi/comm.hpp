#pragma once
/// \file comm.hpp
/// \brief Communicators, channels and (persistent) point-to-point requests.
///
/// The API deliberately mirrors MPI semantics (LLNL MPI tutorial / MPI 4.0):
/// nonblocking `isend`/`irecv`, persistent `send_init`/`recv_init` +
/// `start`/`wait`, FIFO matching per (communicator, source, destination,
/// tag) channel.  Wildcards (`MPI_ANY_SOURCE`/`MPI_ANY_TAG`) are not
/// supported — the neighborhood collective implementations never need them.
///
/// A `Comm` is a trivially copyable, non-owning handle to engine-owned
/// `CommData`: it is valid while its Engine lives, and copying it writes no
/// shared memory.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "simmpi/types.hpp"
#include "util/arena.hpp"
#include "util/thread_annotations.hpp"

namespace simmpi {

class Engine;
class Context;

/// Identifies one ordered message channel.
struct ChannelKey {
  std::uint32_t ctx = 0;  ///< communicator context id
  std::int32_t src = -1;  ///< global source rank
  std::int32_t dst = -1;  ///< global destination rank
  std::int32_t tag = -1;
  bool operator==(const ChannelKey&) const = default;
  /// Total order for diagnostics and containers (the order itself carries
  /// no meaning; only identity does).
  auto operator<=>(const ChannelKey&) const = default;
};

/// A message in flight: a view of payload bytes in the *sender's* rank
/// arena (see Engine::RankState), plus the modeled arrival time.  The
/// bytes stay valid until the receive completes and releases `chunk` back
/// to the arena (zero-size messages carry no bytes and no chunk).
struct Message {
  const std::byte* data = nullptr;
  std::size_t size = 0;
  util::Arena::Chunk* chunk = nullptr;
  double arrival = 0.0;
};

/// Host-side attribute cache of one communicator, in the spirit of
/// `MPI_Comm_set_attr`: values derived from data every member holds
/// identically, built once by whichever member asks first and shared by
/// the rest.  It moves no simulated byte and charges no virtual time —
/// callers charge `ctx.compute` exactly as if each member had built the
/// value itself — so which member wins the build never shows in the
/// schedule (docs/ARCHITECTURE.md, "Determinism contract").
///
/// A key is the address of a caller-owned tag object (one per kind of
/// value, like an MPI keyval) and must always be used with one value type.
/// Builders run under the cache's lock, so members asking concurrently
/// wait for the first build instead of repeating it; a builder must not
/// use the same cache.
class CommCache {
 public:
  using Key = const void*;

  /// The value under `key`, built by `make()` (returning
  /// `std::shared_ptr<const T>`) on first use and kept for the
  /// communicator's lifetime.
  template <class T, class Make>
  std::shared_ptr<const T> get(Key key, Make&& make) {
    util::MutexLock lk(mu_);
    if (Entry* e = find(key))
      return std::static_pointer_cast<const T>(e->value);
    std::shared_ptr<const T> v = make();
    entries_.push_back({key, v, -1});
    return v;
  }

  /// A value shared by exactly `takers` calls: the first builds it with
  /// `make()`, every call returns it, and the `takers`-th call drops the
  /// entry, so the value lives only as long as some taker holds it.
  template <class T, class Make>
  std::shared_ptr<const T> take(Key key, int takers, Make&& make) {
    util::MutexLock lk(mu_);
    Entry* e = find(key);
    if (!e) {
      entries_.push_back({key, make(), takers});
      e = &entries_.back();
    }
    auto v = std::static_pointer_cast<const T>(e->value);
    if (--e->takes_left == 0)
      entries_.erase(entries_.begin() + (e - entries_.data()));
    return v;
  }

 private:
  struct Entry {
    Key key;
    std::shared_ptr<const void> value;
    int takes_left;  ///< -1 for `get` entries, which never expire
  };
  Entry* find(Key key) REQUIRES(mu_) {
    auto it = std::find_if(entries_.begin(), entries_.end(),
                           [key](const Entry& e) { return e.key == key; });
    return it == entries_.end() ? nullptr : &*it;
  }

  util::Mutex mu_;
  std::vector<Entry> entries_ GUARDED_BY(mu_);
};

/// Shared membership data of a communicator: immutable apart from its
/// host-side attribute cache.  The Engine creates and owns every CommData
/// (the world's and each sub-communicator's) until it is destroyed.
struct CommData {
  std::uint32_t ctx_id = 0;
  std::vector<int> members;  ///< global rank of each local rank
  mutable CommCache cache;
};

/// Per-rank communicator handle: a non-owning view of engine-owned
/// membership data plus the calling rank's local rank.
///
/// All peer arguments of its methods are *local* ranks within the
/// communicator, as in MPI.  A `Comm` is valid while its Engine lives,
/// because the Engine owns every CommData for its whole lifetime; like a
/// Context, it must never outlive its Engine.  The handle is trivially
/// copyable on purpose:
/// every rank copies it into each Request and coroutine frame, and a
/// shared reference count would make each copy an atomic write to one
/// cache line that all ranks of the communicator read.
class Comm {
 public:
  Comm() = default;
  Comm(Engine* eng, const CommData* data, int local_rank)
      : eng_(eng), data_(data), rank_(local_rank) {}

  bool valid() const { return data_ != nullptr; }
  int rank() const { return rank_; }
  int size() const { return static_cast<int>(data_->members.size()); }
  std::uint32_t id() const { return data_->ctx_id; }
  /// Translate a local rank to the global (world) rank.
  int global(int local) const { return data_->members[local]; }
  std::span<const int> members() const { return data_->members; }
  Engine& engine() const { return *eng_; }
  /// Host-side attribute cache shared by every member (see CommCache).
  CommCache& cache() const { return data_->cache; }

  /// Locality tier between this rank and local rank `peer`.
  Locality locality_of(int peer) const;

 private:
  Engine* eng_ = nullptr;
  const CommData* data_ = nullptr;
  int rank_ = -1;
};

/// A point-to-point request (persistent or one-shot).
///
/// Lifecycle mirrors MPI persistent requests: build with `Request::send` /
/// `Request::recv` (equivalents of `MPI_Send_init` / `MPI_Recv_init`),
/// then repeatedly `start()` and `co_await ctx.wait(req)`.
/// The buffer span must stay valid for the lifetime of the request.
class Request {
 public:
  Request() = default;

  /// Persistent-send request to local rank `dst` with message tag `tag`.
  static Request send(const Comm& comm, std::span<const std::byte> buf,
                      int dst, int tag);
  /// Persistent-receive request from local rank `src` with tag `tag`.
  static Request recv(const Comm& comm, std::span<std::byte> buf, int src,
                      int tag);
  /// Receive request with no pre-sized buffer: the payload is captured into
  /// an internal vector, retrievable with `take_payload()`.  Used where the
  /// receiver cannot know the message size up front.
  static Request recv_dyn(const Comm& comm, int src, int tag);

  /// Begin the communication: posts the message (send) or arms the
  /// matching slot (recv).  Equivalent of `MPI_Start`.
  void start(Context& ctx);

  bool is_send() const { return is_send_; }
  bool started() const { return started_; }
  /// Mark a send request as *control* traffic (protocol acknowledgements,
  /// not payload).  With `FaultPlan::protect_control` (the default),
  /// control messages are exempt from drop/duplication so reliable
  /// delivery terminates.  No effect on receives or on fault-free runs.
  void set_control(bool c) { control_ = c; }
  bool is_control() const { return control_; }
  const Comm& comm() const { return comm_; }
  int peer() const { return peer_; }
  int tag() const { return tag_; }
  /// Channel key this request matches on.
  ChannelKey key() const;
  /// Bytes actually received by the last completed receive.
  std::size_t received_bytes() const { return received_; }
  /// Move out the payload captured by a completed `recv_dyn` request.
  std::vector<std::byte> take_payload() { return std::move(payload_); }

 private:
  friend class Engine;
  friend class Context;
  friend struct WaitAwaiter;
  Comm comm_{};
  std::span<const std::byte> sbuf_{};
  std::span<std::byte> rbuf_{};
  std::vector<std::byte> payload_{};
  int peer_ = -1;
  int tag_ = -1;
  bool is_send_ = false;
  bool dyn_ = false;
  bool started_ = false;
  bool control_ = false;
  std::size_t received_ = 0;
};

}  // namespace simmpi
