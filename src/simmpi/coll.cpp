#include "simmpi/coll.hpp"

namespace simmpi::coll {

namespace {
struct SplitEntry {
  int color;
  int key;
  int rank;  // local rank in parent
};
}  // namespace

Task<Comm> comm_split(Context& ctx, Comm comm, int color, int key) {
  if (color < 0) throw SimError("comm_split: color must be >= 0");
  const int round = ctx.engine().next_split_round(comm);
  auto entries = co_await allgather<SplitEntry>(
      ctx, comm, SplitEntry{color, key, comm.rank()});

  std::vector<SplitEntry> mine;
  mine.reserve(static_cast<std::size_t>(std::count_if(
      entries.begin(), entries.end(),
      [color](const SplitEntry& e) { return e.color == color; })));
  for (const auto& e : entries)
    if (e.color == color) mine.push_back(e);
  // Parent ranks are unique, so (key, rank) is a total order.  Keys that
  // follow the parent order (every dup_for_topology and split_by_region
  // call) leave the entries sorted already: check in O(P), skip the sort.
  auto by_key_rank = [](const SplitEntry& a, const SplitEntry& b) {
    return a.key != b.key ? a.key < b.key : a.rank < b.rank;
  };
  if (!std::is_sorted(mine.begin(), mine.end(), by_key_rank))
    std::stable_sort(mine.begin(), mine.end(), by_key_rank);
  std::vector<int> members;
  members.reserve(mine.size());
  int my_local = -1;
  for (std::size_t i = 0; i < mine.size(); ++i) {
    members.push_back(comm.global(mine[i].rank));
    if (mine[i].rank == comm.rank()) my_local = static_cast<int>(i);
  }
  auto data =
      ctx.engine().get_or_create_comm(comm.id(), round, color, members);
  co_return Comm(&ctx.engine(), data, my_local);
}

Task<Comm> split_by_region(Context& ctx, Comm comm) {
  const auto& machine = ctx.engine().machine();
  const int region = machine.region_of(comm.global(comm.rank()));
  co_return co_await comm_split(ctx, comm, region, comm.rank());
}

}  // namespace simmpi::coll
