#pragma once
/// \file measure.hpp
/// \brief Experiment runner: reproduces the measurements behind Figures
/// 6-13 on the simulated machine.
///
/// Timing methodology (paper Section 4): the paper times 1000 Start/Wait
/// calls and averages, min over 3 runs, to suppress machine noise.  The
/// simulator is deterministic — for every `MeasureConfig::threads` width —
/// so a single simulated execution is exact; reported times are the
/// maximum rank-local elapsed virtual time.
///
/// Two caches amortize repeated runs within a process:
/// `MeasureConfig::plans` (locality setup per halo pattern, see
/// harness::PlanCache) and the single-entry `paper_hierarchy` /
/// `paper_dist_hierarchy` memos, which spare a sweep over one instance
/// from rebuilding or redistributing the paper problem at every point.

#include <vector>

#include "amg/distribute.hpp"
#include "amg/hierarchy.hpp"
#include "harness/exchange.hpp"
#include "mpix/alltoall.hpp"
#include "patterns/pattern.hpp"
#include "simmpi/engine.hpp"

namespace harness {

/// Measurements of one protocol on one AMG level.
struct LevelMeasurement {
  int level = 0;
  long rows = 0;
  double init_seconds = 0.0;        ///< topology + collective init (max rank)
  double start_wait_seconds = 0.0;  ///< one Start+Wait (max rank)
  long max_local_msgs = 0;          ///< max per process (Figure 8)
  long max_global_msgs = 0;         ///< max per process (Figure 9)
  long max_global_msg_values = 0;   ///< max single message (Figure 10)
  long max_local_values = 0;        ///< max per-process local value total
  long max_global_values = 0;       ///< max per-process global value total
};

/// Configuration of a measurement run.
struct MeasureConfig {
  int ranks_per_region = 16;  ///< the paper's Lassen setting
  /// NUMA regions per node of the simulated machine.  1 (the default)
  /// keeps the paper's one-region-per-node layout and allows a single
  /// partially filled region; >1 requires nranks to be a multiple of
  /// regions_per_node * ranks_per_region.
  int regions_per_node = 1;
  /// Switch hierarchy of the simulated machine (fat-tree core),
  /// bottom-up; see simmpi::MachineConfig::switch_levels.  Empty (the
  /// default) keeps the flat core.  Pair with `cost.use_link_cap` to
  /// charge shared up/down links; the shape alone changes nothing.
  std::vector<simmpi::SwitchLevel> switch_levels;
  simmpi::CostParams cost = simmpi::CostParams::lassen();
  /// Scheduler width of the simulation engine (simmpi::Engine::Options
  /// ::threads: 0 = auto via COLLOM_SIM_THREADS / hardware concurrency).
  /// Any value produces the same measured virtual times.
  int threads = 0;
  /// Worker threads of hierarchy *construction* (amg::Options::threads:
  /// 0 = auto via COLLOM_BUILD_THREADS, else COLLOM_SIM_THREADS, else
  /// hardware).  The measure/solve runners never build hierarchies
  /// themselves — callers that do (e.g. measure_all in
  /// bench/bench_amg_figures.cpp) forward this to paper_dist_hierarchy.
  /// Wall-time-only: built hierarchies are bit-identical for every width,
  /// so measured results never depend on it.
  int build_threads = 0;
  simmpi::GraphAlgo graph_algo = simmpi::GraphAlgo::handshake;
  bool verify_payload = true;  ///< check delivered halos against truth
  bool lpt_balance = true;     ///< leader assignment (ablation knob)
  /// Optional locality-plan reuse (see harness::PlanCache): the runners
  /// key each level's exchanges by the global halo fingerprint, so a solve
  /// or measurement repeated on the same hierarchy re-binds cached plans
  /// instead of redoing the aggregation setup communication.
  PlanCache* plans = nullptr;
  /// Optional fault schedule attached to the engine before the run (see
  /// simmpi::FaultPlan).  nullptr — the default — keeps the engine's
  /// byte-inert fault-free hot path, so series without a plan are
  /// bit-identical to builds that predate fault injection.  The pattern
  /// runners' sync_reset brackets rewind rank clocks, so time windows in
  /// the plan apply within each measured window.
  const simmpi::FaultPlan* faults = nullptr;
  /// Reliable-delivery knobs forwarded to every collective the runners
  /// initialize (mpix::Options::reliability).  Off by default; required
  /// for completion when `faults` drops messages.
  mpix::Reliability reliability{};
};

/// Measure one protocol across every level of a distributed hierarchy.
/// Runs the full simulated machine; returns one entry per level.
std::vector<LevelMeasurement> measure_protocol(const amg::DistHierarchy& dh,
                                               Protocol protocol,
                                               const MeasureConfig& cfg = {});

/// Measurements of one dense alltoall method on one configuration
/// (uniform counts; aggregated over all ranks of the simulated machine).
struct DenseMeasurement {
  double init_seconds = 0.0;        ///< collective init (max rank)
  double start_wait_seconds = 0.0;  ///< one Start+Wait (max rank)
  long sum_local_msgs = 0;          ///< intra-region messages, all ranks
  long sum_global_msgs = 0;         ///< network message total, all ranks
  long sum_global_values = 0;       ///< network value total, all ranks
  long max_global_msgs = 0;         ///< max per rank
  long max_global_msg_values = 0;   ///< largest single network message
};

/// Run one uniform dense alltoall (`mpix::alltoall_init`) of `count`
/// values x `element_size` bytes per rank pair over the full simulated
/// machine, and collect timings plus sender-side message counters.  With
/// `cfg.verify_payload`, every delivered byte is checked against the
/// deterministic pattern.  `cfg.plans` caches node_aggregated / bruck
/// plans across calls keyed by (method, count, machine shape).
DenseMeasurement measure_dense_alltoall(int nranks, int count,
                                        std::size_t element_size,
                                        mpix::AlltoallMethod method,
                                        const MeasureConfig& cfg = {});

/// Measurements of one generated workload (patterns layer) under one
/// method.  Three simulated windows, each bracketed by `Engine::sync_reset`
/// and reported as the max rank-local elapsed virtual time:
///  * init — topology + collective init (plan-cache-aware),
///  * blocking — start; wait; then the workload's overlap window of
///    simulated compute (communication and compute serialize),
///  * overlapped — start; compute; wait (compute hides transfer time).
/// With a non-zero overlap window, overlapped <= blocking always, and the
/// gap is the pattern's exploitable overlap.
struct PatternMeasurement {
  double init_seconds = 0.0;
  double blocking_seconds = 0.0;
  double overlapped_seconds = 0.0;
  double overlap_seconds = 0.0;  ///< simulated compute charged per window
  long sum_local_msgs = 0;       ///< intra-region messages, all ranks
  long sum_global_msgs = 0;      ///< network messages, all ranks
  long sum_local_values = 0;
  long sum_global_values = 0;
  long max_global_msgs = 0;          ///< max per rank
  long max_global_msg_values = 0;    ///< largest single network message
  /// Shared-link contention of the blocking window, one entry per link
  /// tier (empty on flat machines): occupancy summed over all ranks, and
  /// the worst per-rank queue backlog.  All zeros while
  /// `MeasureConfig::cost.use_link_cap` is off.
  std::vector<double> link_seconds;
  std::vector<double> max_link_backlog_seconds;
  /// Network messages crossing each link tier — a static property of the
  /// method's plan (mpix::NeighborStats::link_msgs summed over ranks),
  /// counted whether or not the link cap charges for them.
  std::vector<long> sum_link_msgs;
  /// Fault-injection and reliability activity of the two measured windows
  /// (blocking + overlapped), summed over ranks
  /// (simmpi::Engine::FaultStats).  All zeros without
  /// MeasureConfig::faults.
  long drops = 0;
  long dups = 0;
  long retransmits = 0;
  long timeouts = 0;
};

/// Run one generated workload through a sparse neighbor method
/// (`mpix::neighbor_alltoallv_init` over the pattern's adjacency).  With
/// `cfg.verify_payload`, both windows' delivered bytes are checked against
/// the pattern's gid scheme.  `cfg.plans` caches locality plans keyed by
/// (workload fingerprint, method, machine shape).
PatternMeasurement measure_pattern(const patterns::Workload& wl,
                                   mpix::Method method,
                                   const MeasureConfig& cfg = {},
                                   std::size_t element_size = sizeof(double));

/// Run one generated workload through a dense alltoallv method (counts
/// expanded to one entry per rank, zero for non-neighbors).
PatternMeasurement measure_pattern_dense(
    const patterns::Workload& wl, mpix::AlltoallMethod method,
    const MeasureConfig& cfg = {}, std::size_t element_size = sizeof(double));

/// Figure 6: cost of creating the per-level topology communicators
/// (dist_graph_create_adjacent once per level), for one graph algorithm.
double measure_graph_creation(const amg::DistHierarchy& dh,
                              simmpi::GraphAlgo algo,
                              const MeasureConfig& cfg = {});

/// Sum of per-level Start+Wait times (Figures 12/13), optionally taking the
/// cheaper of `self` and `baseline` per level ("maximum possible
/// improvement" selection of Section 4.2).
double total_time(const std::vector<LevelMeasurement>& self,
                  const std::vector<LevelMeasurement>* baseline = nullptr);

/// Smallest iteration count at which `opt` (init + k * iter) beats `base`;
/// -1 if never within `max_iters` (Figure 7 crossovers).
int crossover_iterations(double base_init, double base_iter, double opt_init,
                         double opt_iter, int max_iters = 100000);

/// Build the canonical hierarchy of the paper's rotated anisotropic
/// diffusion problem with `rows` unknowns.  Memoized in a single entry
/// keyed by `rows` alone: a call with other rows replaces it.
/// `build_threads` sets the construction width (0 = auto, see
/// MeasureConfig::build_threads); it never changes the built hierarchy,
/// so it is not part of the key.
const amg::Hierarchy& paper_hierarchy(long rows, int build_threads = 0);

/// Distribution of the paper hierarchy over `nranks`, memoized in a single
/// entry keyed by (rows, nranks).
const amg::DistHierarchy& paper_dist_hierarchy(long rows, int nranks,
                                               int build_threads = 0);

}  // namespace harness
