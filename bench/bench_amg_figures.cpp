/// \file bench_amg_figures.cpp
/// \brief Figures 7-13: every series the paper reads off its BoomerAMG
/// hierarchy (rotated anisotropic diffusion, 524 288 rows on 2048 cores)
/// under the four protocols of harness::Protocol.
///
///  * Fig. 7 — init plus k iterations of Start+Wait, summed over levels,
///    and the iteration counts at which the optimized collectives overtake
///    Standard Hypre (paper: 40 partially, 22 fully optimized);
///  * Fig. 8 / 9 — max intra-region ("local") / inter-region ("global")
///    messages per process and level: aggregation trades extra local
///    traffic for fewer global messages;
///  * Fig. 10 — max single inter-region message size per level, partially
///    vs fully optimized (dedup; paper: up to 35 % smaller, at level 4);
///  * Fig. 11 — Start+Wait time per level, all four protocols;
///  * Fig. 12 / 13 — total SpMV communication over all levels, strong-
///    scaled (524 288 rows) and weakly scaled (256 rows per rank), 32-2048
///    processes.  The optimized lines take the cheaper of standard and
///    optimized communication per level (the paper's "maximum possible
///    improvement", Section 4.2; see model::select_protocol).
///
/// Every figure reads one memoized measurement per (rows, nranks)
/// instance, so the paper instance — also the 2048-process point of
/// Figures 12 and 13 — is simulated once per run.

#include <map>
#include <set>
#include <string>
#include <utility>

#include "bench_common.hpp"

#ifdef __GLIBC__
#include <malloc.h>  // malloc_trim
#endif

namespace {

using namespace benchfig;
using harness::LevelMeasurement;
using harness::Protocol;

/// Measurements of all four protocols for one problem instance.
struct ProtocolSet {
  std::vector<LevelMeasurement> per[4];  // indexed by Protocol
  const std::vector<LevelMeasurement>& of(Protocol p) const {
    return per[static_cast<int>(p)];
  }
};

/// All four protocols on the paper problem with `rows` unknowns over
/// `nranks`, memoized per instance.  A new instance is measured cold: the
/// plan cache is cleared first, which also keeps the previous instance's
/// plans from piling up (mirrors the single-entry memoization of
/// paper_dist_hierarchy).  The previous instance's freed heap goes back to
/// the OS, so the binary's peak RSS is that of its largest instance, not of
/// the largest stacked on the leftovers of an earlier one.
const ProtocolSet& measure_all(long rows, int nranks) {
  static std::map<std::pair<long, int>, ProtocolSet> memo;
  auto [it, fresh] = memo.try_emplace({rows, nranks});
  if (fresh) {
    plan_cache().clear();
#ifdef __GLIBC__
    malloc_trim(0);
#endif
    const auto cfg = paper_config();
    const auto& dh =
        harness::paper_dist_hierarchy(rows, nranks, cfg.build_threads);
    for (Protocol p : harness::kAllProtocols)
      it->second.per[static_cast<int>(p)] =
          harness::measure_protocol(dh, p, cfg);
  }
  return it->second;
}

/// Families that ran in this process.  A table is printed only when one of
/// its families ran, so a `--benchmark_filter` run measures only the
/// instances its families read.
std::set<std::string>& ran() {
  static std::set<std::string> families;
  return families;
}

bool any_ran(std::initializer_list<const char*> families) {
  for (const char* f : families)
    if (ran().count(f)) return true;
  return false;
}

const ProtocolSet& paper_set() {
  return measure_all(paper_rows(), paper_ranks());
}

/// Strong/weak scaling sweep (Figures 12/13).
const std::vector<int>& scaling_ranks() {
  static const std::vector<int> full{32, 64, 128, 256, 512, 1024, 2048};
  static const std::vector<int> quick{32, 64, 128, 256};
  return quick_mode() ? quick : full;
}

// ---- Figure 7: init + k iterations, summed over levels -------------------

struct Sums {
  double init[4] = {};  // per protocol
  double iter[4] = {};
};

Sums paper_sums() {
  Sums s;
  for (int p = 0; p < 4; ++p) {
    for (const auto& lm : paper_set().per[p]) {
      s.init[p] += lm.init_seconds;
      s.iter[p] += lm.start_wait_seconds;
    }
  }
  return s;
}

int crossover_vs_hypre(const Sums& s, Protocol opt) {
  const int o = static_cast<int>(opt);
  return harness::crossover_iterations(s.init[0], s.iter[0], s.init[o],
                                       s.iter[o]);
}

void BM_InitPlusIterations(benchmark::State& state) {
  ran().insert("BM_InitPlusIterations");
  const Sums s = paper_sums();
  const int p = static_cast<int>(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(p);
  state.counters["init_sim_seconds"] = s.init[p];
  state.counters["per_iter_sim_seconds"] = s.iter[p];
  state.SetLabel(harness::to_string(static_cast<Protocol>(p)));
}

void BM_Crossover(benchmark::State& state) {
  ran().insert("BM_Crossover");
  const Sums s = paper_sums();
  for (auto _ : state) benchmark::DoNotOptimize(s.init[0]);
  state.counters["crossover_partial_iters"] =
      crossover_vs_hypre(s, Protocol::neighbor_partial);
  state.counters["crossover_full_iters"] =
      crossover_vs_hypre(s, Protocol::neighbor_full);
}

void print_fig07() {
  const Sums s = paper_sums();
  std::vector<double> iterations;
  std::vector<double> series[4];
  for (int k = 0; k <= 60; k += 5) {
    iterations.push_back(k);
    for (int p = 0; p < 4; ++p) series[p].push_back(s.init[p] + k * s.iter[p]);
  }
  harness::print_figure(
      std::cout,
      "Figure 7: init + k iterations (seconds, 524288 rows, 2048 cores)",
      "Iterations", iterations,
      {{"Standard Hypre", series[0]},
       {"Standard Neighbor", series[1]},
       {"Partially Optimized", series[2]},
       {"Fully Optimized", series[3]}});
  std::printf(
      "crossover vs Standard Hypre: partial at %d iterations (paper: 40), "
      "full at %d iterations (paper: 22)\n",
      crossover_vs_hypre(s, Protocol::neighbor_partial),
      crossover_vs_hypre(s, Protocol::neighbor_full));
}

// ---- Figures 8-11: one value per AMG level of the paper instance ---------

struct Line {
  Protocol protocol;
  const char* label;
  const char* legend = nullptr;  ///< table column when narrower than label
};

void print_dedup_reduction() {
  const auto& par = paper_set().of(Protocol::neighbor_partial);
  const auto& ful = paper_set().of(Protocol::neighbor_full);
  double best = 0.0;
  int best_level = -1;
  for (std::size_t l = 0; l < par.size(); ++l) {
    if (par[l].max_global_msg_values <= 0) continue;
    const double red =
        1.0 - static_cast<double>(ful[l].max_global_msg_values) /
                  par[l].max_global_msg_values;
    if (red > best) {
      best = red;
      best_level = static_cast<int>(l);
    }
  }
  std::printf("largest dedup reduction: %.0f%% at level %d "
              "(paper: 35%% at level 4)\n",
              100.0 * best, best_level);
}

struct LevelFigure {
  const char* bench;  ///< google-benchmark family
  const char* counter;
  double (*value)(const LevelMeasurement&);
  std::vector<Line> lines;
  const char* title;
  void (*note)() = nullptr;  ///< printed under the table
};

const LevelFigure kLevelFigures[] = {
    {"BM_LocalMessages", "max_local_msgs",
     [](const LevelMeasurement& m) -> double { return m.max_local_msgs; },
     {{Protocol::neighbor_standard, "Standard Local"},
      {Protocol::neighbor_partial, "Optimized Local"}},
     "Figure 8: max intra-region messages per process, per SpMV level "
     "(524288 rows, 2048 cores)"},
    {"BM_GlobalMessages", "max_global_msgs",
     [](const LevelMeasurement& m) -> double { return m.max_global_msgs; },
     {{Protocol::neighbor_standard, "Standard Global"},
      {Protocol::neighbor_partial, "Optimized Global"}},
     "Figure 9: max inter-region messages per process, per SpMV level "
     "(524288 rows, 2048 cores)"},
    {"BM_GlobalMessageSize", "max_global_msg_values",
     [](const LevelMeasurement& m) -> double {
       return m.max_global_msg_values;
     },
     {{Protocol::neighbor_partial, "Partially Optimized"},
      {Protocol::neighbor_full, "Fully Optimized"}},
     "Figure 10: max single inter-region message size (values), per SpMV "
     "level (524288 rows, 2048 cores)",
     print_dedup_reduction},
    {"BM_PerLevelTime", "sim_seconds",
     [](const LevelMeasurement& m) { return m.start_wait_seconds; },
     {{Protocol::hypre, "Standard Hypre"},
      {Protocol::neighbor_standard, "Unoptimized Neighbor"},
      {Protocol::neighbor_partial, "Partially Optimized Neighbor",
       "Partially Optim. Neighbor"},
      {Protocol::neighbor_full, "Fully Optimized Neighbor",
       "Fully Optim. Neighbor"}},
     "Figure 11: SpMV Start+Wait time per AMG level (seconds, 524288 rows, "
     "2048 cores)"},
};

void register_level_figure(const LevelFigure& f) {
  benchmark::RegisterBenchmark(
      f.bench,
      [&f](benchmark::State& state) {
        ran().insert(f.bench);
        const auto l = static_cast<std::size_t>(state.range(0));
        const Line& line = f.lines[static_cast<std::size_t>(state.range(1))];
        const auto& per = paper_set().of(line.protocol);
        for (auto _ : state) benchmark::DoNotOptimize(l);
        if (l < per.size()) {
          state.counters["level"] = static_cast<double>(l);
          state.counters[f.counter] = f.value(per[l]);
        }
        state.SetLabel(line.label);
      })
      // A fixed 12-level range: series stay paired across hierarchies.
      ->ArgsProduct({benchmark::CreateDenseRange(0, 11, 1),
                     index_range(f.lines.size())})
      ->Iterations(1);
}

void print_level_figure(const LevelFigure& f) {
  const ProtocolSet& s = paper_set();
  std::vector<double> levels;
  for (std::size_t l = 0; l < s.per[0].size(); ++l)
    levels.push_back(static_cast<double>(l));
  std::vector<harness::Series> series;
  for (const Line& line : f.lines) {
    harness::Series col{line.legend ? line.legend : line.label, {}};
    for (const auto& m : s.of(line.protocol)) col.y.push_back(f.value(m));
    series.push_back(std::move(col));
  }
  harness::print_figure(std::cout, f.title, "AMG level", levels, series);
  if (f.note) f.note();
}

// ---- Figures 12/13: total over all levels, per process count -------------

struct ScalingFigure {
  const char* bench;
  long (*rows)(int nranks);
  const char* title;
  double paper_partial, paper_full;  ///< paper speedups at 2048
};

const ScalingFigure kScalingFigures[] = {
    {"BM_StrongScaling", [](int) { return paper_rows(); },
     "Figure 12: strong scaling of SpMV communication over all AMG levels "
     "(seconds, 524288 rows)",
     1.32, 1.39},
    {"BM_WeakScaling", [](int p) { return kWeakRowsPerRank * p; },
     "Figure 13: weak scaling of SpMV communication over all AMG levels "
     "(seconds, 256 rows/rank)",
     1.96, 2.17},
};

/// Total over levels; the optimized protocols take the cheaper of
/// themselves and Standard Hypre on each level.
double total(const ProtocolSet& s, Protocol p) {
  const bool best_of =
      p == Protocol::neighbor_partial || p == Protocol::neighbor_full;
  return harness::total_time(s.of(p),
                             best_of ? &s.of(Protocol::hypre) : nullptr);
}

void register_scaling_figure(const ScalingFigure& f) {
  benchmark::RegisterBenchmark(
      f.bench,
      [&f](benchmark::State& state) {
        ran().insert(f.bench);
        const int procs =
            scaling_ranks()[static_cast<std::size_t>(state.range(0))];
        const auto p = static_cast<Protocol>(state.range(1));
        const double t = total(measure_all(f.rows(procs), procs), p);
        for (auto _ : state) benchmark::DoNotOptimize(t);
        state.counters["procs"] = procs;
        state.counters["sim_seconds"] = t;
        state.SetLabel(harness::to_string(p));
      })
      ->ArgsProduct({index_range(scaling_ranks().size()),
                     benchmark::CreateDenseRange(0, 3, 1)})
      ->Iterations(1);
}

void print_scaling_figure(const ScalingFigure& f) {
  std::vector<double> procs;
  std::vector<double> series[4];
  for (int n : scaling_ranks()) {
    const ProtocolSet& s = measure_all(f.rows(n), n);
    procs.push_back(n);
    for (Protocol p : harness::kAllProtocols)
      series[static_cast<int>(p)].push_back(total(s, p));
  }
  harness::print_figure(std::cout, f.title, "Processes", procs,
                        {{"Standard Hypre", series[0]},
                         {"Unoptimized Neighbor", series[1]},
                         {"Partially Optimized", series[2]},
                         {"Fully Optimized", series[3]}});
  std::printf(
      "speedup vs Standard Hypre at %d: partial %.2fx (paper at 2048: "
      "%.2fx), full %.2fx (paper: %.2fx)\n",
      scaling_ranks().back(), series[0].back() / series[2].back(),
      f.paper_partial, series[0].back() / series[3].back(), f.paper_full);
}

}  // namespace

int main(int argc, char** argv) {
  benchfig::init(&argc, argv);
  benchmark::RegisterBenchmark("BM_InitPlusIterations", BM_InitPlusIterations)
      ->DenseRange(0, 3)
      ->Iterations(1);
  benchmark::RegisterBenchmark("BM_Crossover", BM_Crossover)->Iterations(1);
  for (const LevelFigure& f : kLevelFigures) register_level_figure(f);
  for (const ScalingFigure& f : kScalingFigures) register_scaling_figure(f);
  benchmark::RunSpecifiedBenchmarks();

  if (any_ran({"BM_InitPlusIterations", "BM_Crossover"})) print_fig07();
  for (const LevelFigure& f : kLevelFigures)
    if (any_ran({f.bench})) print_level_figure(f);
  for (const ScalingFigure& f : kScalingFigures)
    if (any_ran({f.bench})) print_scaling_figure(f);
  benchmark::Shutdown();
  return 0;
}
