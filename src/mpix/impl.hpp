#pragma once
/// \file impl.hpp
/// \brief Internal factories behind the public `neighbor_alltoallv_init`
/// dispatcher (init.cpp).  Not part of the mpix API.

#include <memory>

#include "mpix/alltoall.hpp"
#include "mpix/neighbor.hpp"

namespace mpix::impl {

/// The dense adjacency: every rank is both source and destination (self
/// included), in comm-rank order — the neighbor machinery then applies
/// unchanged, with counts arrays indexed by comm rank (alltoall.cpp).
simmpi::DistGraph dense_graph(const simmpi::Comm& comm);

/// Coroutine behind the public `make_locality_plan` wrapper.  Takes the
/// pattern by value so the frame owns it for the plan build's lifetime.
///
/// The public entry points are deliberately *plain* functions delegating
/// to internal coroutines: g++ 12 miscompiles by-value coroutine
/// parameters initialized from a user-defined conversion at the call site
/// (the `AlltoallvArgsT<T>` -> `AlltoallvArgs` conversion every typed
/// caller performs), double-destroying the converted temporary.  A regular
/// call boundary sidesteps the bug for every caller.
simmpi::Task<std::shared_ptr<const LocalityPlan>> build_locality_plan(
    simmpi::Context& ctx, const simmpi::DistGraph& graph, AlltoallvArgs args,
    Method method, Options opts);

/// Standard method: persistent point-to-point wrap.  Purely local setup
/// (with `opts.reliability.enabled`, network channels get the reliable
/// stop-and-wait wrap — see reliable.hpp).
std::unique_ptr<NeighborAlltoallv> make_standard(simmpi::Context& ctx,
                                                 const simmpi::DistGraph& graph,
                                                 AlltoallvArgs args,
                                                 const Options& opts);

/// Locality methods: bind buffers and channels to a finished plan.  Purely
/// local — all setup communication already happened in make_locality_plan.
std::unique_ptr<NeighborAlltoallv> bind_locality(
    simmpi::Context& ctx, const simmpi::DistGraph& graph, AlltoallvArgs args,
    std::shared_ptr<const LocalityPlan> plan, const Options& opts);

/// Dense `AlltoallMethod::bruck`: collectively build the rotation
/// schedule (bruck.cpp).  Counts/displacements carry one entry per comm
/// rank; payload spans are never read.  Same plain-wrapper caveat as
/// build_locality_plan.
simmpi::Task<std::shared_ptr<const BruckPlan>> build_bruck_plan(
    simmpi::Context& ctx, simmpi::Comm comm, AlltoallvArgs args, Options opts);

/// Dense `AlltoallMethod::bruck`: bind buffers and channels to a finished
/// BruckPlan.  Purely local.
std::unique_ptr<NeighborAlltoallv> bind_bruck(
    simmpi::Context& ctx, simmpi::Comm comm, AlltoallvArgs args,
    std::shared_ptr<const BruckPlan> plan, const Options& opts);

}  // namespace mpix::impl
