#pragma once
/// \file bench_common.hpp
/// \brief Shared scaffolding for the figure-reproduction benchmarks.
///
/// Every binary regenerates one figure of the paper (bench_amg_figures:
/// all of Figures 7-13) or an ablation: it computes the data series on the
/// simulated machine (cached across registered benchmarks), exposes each
/// point as a google-benchmark counter (`sim_seconds` etc. — wall time of
/// these benchmarks is meaningless; the simulator's virtual seconds are the
/// measurement), and prints paper-style tables.  See
/// docs/BENCHMARKS.md for the figure-by-figure map and how to read the
/// emitted BENCH_*.json.
///
/// Knobs (all leave the measured virtual times bit-identical):
///  * `COLLOM_BENCH_QUICK=1` (the `run_benches_quick` target / CI smoke
///    job) caps every sweep at 256 simulated ranks and shrinks the
///    fixed-size problems to match, so each binary finishes in seconds
///    while still exercising the full measurement pipeline;
///  * `--sim-threads=N` / `COLLOM_SIM_THREADS=N` sets the engine's worker
///    count (wall-time-only; the simulated schedule is deterministic);
///  * `--build-threads=N` / `COLLOM_BUILD_THREADS=N` sets the hierarchy
///    *construction* width (defaults from COLLOM_SIM_THREADS; built
///    hierarchies are bit-identical for every width);
///  * `--link-taper=T` / `COLLOM_LINK_TAPER=T` restricts the link-
///    contention benches (bench_link_taper) to the one taper ratio T
///    instead of their full {1, 2, 4} sweep (this one changes *which*
///    points are computed, not their values);
///  * the hierarchy disk cache (`COLLOM_HIER_CACHE[_DIR]`, plus the
///    `COLLOM_HIER_CACHE_MAX_BYTES` size cap — see harness::
///    HierarchyCache) lets the binaries share built hierarchies under
///    build/hier-cache instead of each re-running the coarsening.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness/dist_solve.hpp"
#include "harness/measure.hpp"
#include "harness/table.hpp"

namespace benchfig {

/// Bench argv handling: consumes `--sim-threads=N` (exported as
/// COLLOM_SIM_THREADS so every simmpi::Engine of the binary picks it up)
/// and `--build-threads=N` (exported as COLLOM_BUILD_THREADS so every
/// hierarchy construction picks it up; unset, construction defaults from
/// COLLOM_SIM_THREADS), then hands the remaining arguments to
/// google-benchmark.
inline void init(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--sim-threads=", 14) == 0) {
      ::setenv("COLLOM_SIM_THREADS", arg + 14, 1);
      continue;
    }
    if (std::strncmp(arg, "--build-threads=", 16) == 0) {
      ::setenv("COLLOM_BUILD_THREADS", arg + 16, 1);
      continue;
    }
    if (std::strncmp(arg, "--link-taper=", 13) == 0) {
      ::setenv("COLLOM_LINK_TAPER", arg + 13, 1);
      continue;
    }
    argv[out++] = argv[i];
  }
  *argc = out;
  benchmark::Initialize(argc, argv);
}

/// The paper's evaluation configuration (Section 4).
inline constexpr long kPaperRows = 524288;  // 1024 x 512 grid
inline constexpr int kPaperRanks = 2048;
inline constexpr int kRanksPerRegion = 16;  // one CPU of a Lassen node
inline constexpr long kWeakRowsPerRank = 256;  // 524288 rows at 2048 ranks

/// Rank cap of the `--quick` smoke mode (COLLOM_BENCH_QUICK=1).
inline constexpr int kQuickMaxRanks = 256;

inline bool quick_mode() {
  static const bool q = [] {
    const char* v = std::getenv("COLLOM_BENCH_QUICK");
    return v != nullptr && *v != '\0' && *v != '0';
  }();
  return q;
}

/// Rank count of the fixed-size (non-sweeping) figures.
inline int paper_ranks() { return quick_mode() ? kQuickMaxRanks : kPaperRanks; }

/// Taper restriction of the link-contention benches: `--link-taper=T` /
/// COLLOM_LINK_TAPER=T computes only the one ratio T; 0 (unset, the
/// default) keeps the full sweep.  T must be a positive number: anything
/// else is an error that ends the binary with exit status 2, rather than
/// a silent full sweep.
inline double link_taper_override() {
  static const double t = [] {
    const char* v = std::getenv("COLLOM_LINK_TAPER");
    if (v == nullptr) return 0.0;
    char* end = nullptr;
    const double r = std::strtod(v, &end);
    if (end == v || *end != '\0' || !std::isfinite(r) || r <= 0.0) {
      std::fprintf(stderr,
                   "error: --link-taper / COLLOM_LINK_TAPER: '%s' is not a "
                   "positive number\n",
                   v);
      std::exit(2);
    }
    return r;
  }();
  return t;
}

/// Problem size of the fixed-size figures (weak-scaling-consistent in
/// quick mode, the paper's 524288 rows otherwise).
inline long paper_rows() {
  return quick_mode() ? kWeakRowsPerRank * paper_ranks() : kPaperRows;
}

/// Graph-creation sweep (Figure 6).
inline const std::vector<int>& graph_ranks() {
  static const std::vector<int> full{16, 64, 256, 512, 1024, 2048};
  static const std::vector<int> quick{16, 64, 256};
  return quick_mode() ? quick : full;
}

/// Dense benchmark-argument range 0..n-1, sized at registration time to
/// the active sweep, so quick mode registers exactly the points its
/// shortened series computes (indexing past the series is UB and emitted
/// garbage counters before this existed).
inline std::vector<std::int64_t> index_range(std::size_t n) {
  return benchmark::CreateDenseRange(0, static_cast<int>(n) - 1, 1);
}

/// Locality plans reused across benchmark repetitions and protocols (the
/// per-pattern aggregation setup is paid once per sweep point, not once
/// per google-benchmark iteration).
inline harness::PlanCache& plan_cache() {
  static harness::PlanCache cache;
  return cache;
}

inline harness::MeasureConfig paper_config() {
  harness::MeasureConfig cfg;
  cfg.ranks_per_region = kRanksPerRegion;
  cfg.plans = &plan_cache();
  return cfg;
}

}  // namespace benchfig
