/// \file hostbench.cpp
/// \brief Host-cost benchmark driver: runs one pass of one named workload
/// in this process and prints one JSON object describing it.  run.py
/// starts the processes and turns their reports into metrics (README.md).
///
/// A workload is a fixed input processed to completion by one closed-loop
/// client: a set-up step (hierarchy build or pattern generation), then one
/// pass over its measure calls ("points") with a fresh PlanCache.  Every
/// point runs with `verify_payload` on; a point that throws is recorded as
/// failed and the remaining points still run.  Each
/// point's measured series is digested (FNV-1a over the exact bytes of
/// every simulated number) so run.py can compare it with the stored
/// reference, across processes and across widths.
///
/// With `--trace-out FILE` the driver also records spans around every call
/// into a library layer, writes them to FILE as Chrome trace-event JSON,
/// and runs microprobes on the workload's machine before the pass.  With
/// `--reruns` it instead re-runs each call to difference plan build and
/// verification (outside wall_s).
///
/// The library is driven only through its public entry points.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "harness/measure.hpp"
#include "patterns/pattern.hpp"
#include "simmpi/coll.hpp"
#include "simmpi/engine.hpp"
#include "simmpi/fault.hpp"
#include "util/worker_pool.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double now_s() {
  static const Clock::time_point t0 = Clock::now();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Resident set right now, MB (from /proc/self/statm).
double current_rss_mb() {
  long pages_total = 0, pages_rss = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages_total, &pages_rss) != 2) pages_rss = 0;
    std::fclose(f);
  }
  return static_cast<double>(pages_rss) * 4096.0 / (1024.0 * 1024.0);
}

/// CPU time (user + system, all threads) of this process so far, s.
double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// Peak resident set of this process, MB.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- spans --------------------------------------------------------------

/// In-memory span recorder.  Spans are named `<layer>.<call>`; each
/// records its start, end and parent (the innermost span open when it
/// began).  Everything runs on the main thread, so a stack suffices.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };

  /// RAII span; a no-op while the tracer is off.
  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(t.on ? &t : nullptr) {
      if (t_) idx_ = t_->open(name);
    }
    ~Scope() {
      if (t_) t_->close(idx_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int idx_ = -1;
  };

  bool on = false;

  std::size_t size() const { return spans_.size(); }

  /// Chrome trace-event JSON ("X" complete events, microseconds), which
  /// Perfetto and chrome://tracing open directly.  Parent links are kept
  /// in each event's args.
  bool write_chrome(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::string layer = s.name.substr(0, s.name.find('.'));
      char buf[512];
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                    "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%d}}",
                    i ? ",\n" : "\n", s.name.c_str(), layer.c_str(),
                    s.start * 1e6, (s.end - s.start) * 1e6, i, s.parent);
      out << buf;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  int open(const char* name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, now_s(), 0.0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int idx) {
    spans_[idx].end = now_s();
    stack_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// ---- output digests -----------------------------------------------------

/// FNV-1a over the exact bytes of every value added.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;

  template <class T>
  void add(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    unsigned char b[sizeof(T)];
    std::memcpy(b, &v, sizeof(T));
    for (unsigned char c : b) {
      h ^= c;
      h *= 0x100000001b3ull;
    }
  }
  template <class T>
  void add(const std::vector<T>& v) {
    add(v.size());
    for (const T& x : v) add(x);
  }
};

/// What one measure call produced: its digest plus the simulated windows
/// and counters the metrics sum.
struct Outcome {
  std::uint64_t digest = 0;
  double comm = 0.0;  ///< exchange windows (Start+Wait or blocking), sim s
  double init = 0.0;  ///< collective init windows, sim s
  long msgs = 0;      ///< local + global messages (pattern points only)
  long drops = 0, retransmits = 0, timeouts = 0;
};

Outcome outcome_of(const std::vector<harness::LevelMeasurement>& levels) {
  Outcome o;
  Digest d;
  d.add(levels.size());
  for (const harness::LevelMeasurement& m : levels) {
    d.add(m.level);
    d.add(m.rows);
    d.add(m.init_seconds);
    d.add(m.start_wait_seconds);
    d.add(m.max_local_msgs);
    d.add(m.max_global_msgs);
    d.add(m.max_global_msg_values);
    d.add(m.max_local_values);
    d.add(m.max_global_values);
    o.comm += m.start_wait_seconds;
    o.init += m.init_seconds;
  }
  o.digest = d.h;
  return o;
}

Outcome outcome_of(const harness::PatternMeasurement& m) {
  Digest d;
  d.add(m.init_seconds);
  d.add(m.blocking_seconds);
  d.add(m.overlapped_seconds);
  d.add(m.overlap_seconds);
  d.add(m.sum_local_msgs);
  d.add(m.sum_global_msgs);
  d.add(m.sum_local_values);
  d.add(m.sum_global_values);
  d.add(m.max_global_msgs);
  d.add(m.max_global_msg_values);
  d.add(m.link_seconds);
  d.add(m.max_link_backlog_seconds);
  d.add(m.sum_link_msgs);
  d.add(m.drops);
  d.add(m.dups);
  d.add(m.retransmits);
  d.add(m.timeouts);
  Outcome o;
  o.digest = d.h;
  o.comm = m.blocking_seconds;
  o.init = m.init_seconds;
  o.msgs = m.sum_local_msgs + m.sum_global_msgs;
  o.drops = m.drops;
  o.retransmits = m.retransmits;
  o.timeouts = m.timeouts;
  return o;
}

// ---- workloads ----------------------------------------------------------

/// One measure call of a workload.
struct Call {
  std::string label;   ///< unique point name
  std::string method;  ///< harness.measure.<method>_s group
  const char* span;    ///< span name of the entry point
  bool faulted = false;
  std::function<Outcome(harness::PlanCache&, bool verify)> run;
};

struct Options {
  std::string workload;
  bool tiny = false;
  unsigned seed = 1;            ///< request order within each call group
  unsigned pattern_seed = 9;    ///< pattern generators (bench_fault_sweep's)
  std::uint64_t fault_seed = 42;  ///< fault plans (bench_fault_sweep's)
  int width = 4;
  bool trace = false;
  std::string trace_out;
  bool reruns = false;
};

/// A workload's inputs (built by set-up) and its measure calls.  Calls
/// capture references into this object, which outlives every pass.
struct Bench {
  int ranks = 0;
  harness::MeasureConfig cfg;
  std::optional<simmpi::Machine> machine;
  std::vector<double> setup_s;
  // Set-up split by layer (zero where the layer does not run).
  double amg_build_s = 0.0, amg_distribute_s = 0.0, generate_s = 0.0;
  double setup_rss_mb = 0.0;
  long amg_levels = 0, amg_nnz = 0;
  patterns::Workload sparse_wl, dense_wl;
  std::vector<std::unique_ptr<simmpi::FaultPlan>> fault_plans;
  std::vector<Call> calls;
  /// Calls [group_ends[g-1], group_ends[g]) use distinct PlanCache keys,
  /// so they may run in any order without changing any simulated output.
  std::vector<std::size_t> group_ends;
};

harness::MeasureConfig with(const harness::MeasureConfig& base,
                            harness::PlanCache& plans, bool verify) {
  harness::MeasureConfig cfg = base;
  cfg.plans = &plans;
  cfg.verify_payload = verify;
  return cfg;
}

/// The paper instance: the rotated anisotropic hierarchy (524288 rows)
/// over 2048 ranks, 16 per region, flat core; all four protocols.
void setup_paper_amg(Bench& b, const Options& o, Tracer& tr) {
  const long rows = o.tiny ? 256L * 64 : 524288L;
  b.ranks = o.tiny ? 64 : 2048;
  b.cfg.ranks_per_region = 16;
  b.machine.emplace(simmpi::Machine::with_region_size(b.ranks, 16));

  const double t0 = now_s();
  {
    Tracer::Scope s(tr, "amg.build");
    harness::paper_hierarchy(rows, o.width);
  }
  const double t1 = now_s();
  const amg::DistHierarchy* dh = nullptr;
  {
    Tracer::Scope s(tr, "amg.distribute");
    dh = &harness::paper_dist_hierarchy(rows, b.ranks, o.width);
  }
  const double t2 = now_s();
  b.setup_s.push_back(t2 - t0);
  b.amg_build_s = t1 - t0;
  b.amg_distribute_s = t2 - t1;
  b.setup_rss_mb = current_rss_mb();
  const amg::Hierarchy& h = harness::paper_hierarchy(rows, o.width);
  b.amg_levels = h.num_levels();
  for (const amg::Level& lvl : h.levels) b.amg_nnz += lvl.A.nnz();

  for (harness::Protocol p : harness::kAllProtocols) {
    const std::string name = harness::to_string(p);
    // neighbor_{standard,partial,full} are mpix's standard / locality /
    // locality_dedup methods (1:1), so they share a metric group with the
    // pattern workloads' sparse calls.
    const std::string method =
        p == harness::Protocol::hypre
            ? "hypre"
            : mpix::to_string(harness::method_of(p));
    b.calls.push_back(
        {name, method, "harness.measure_protocol", false,
         [&b, dh, p](harness::PlanCache& plans, bool verify) {
           return outcome_of(
               harness::measure_protocol(*dh, p, with(b.cfg, plans, verify)));
         }});
    // One call per group: the protocols run in the figure binaries' order.
    // Their plans pile up in the pass's PlanCache, so the order sets the
    // peak RSS (1.79-2.12 GB across the orders of ten seeds).
    b.group_ends.push_back(b.calls.size());
  }
}

/// Generations per pattern workload's set-up; set-up time is their median.
constexpr int kGenReps = 15;

/// Generates `kGenReps` times, appending each time to `samples`, and
/// keeps the last result.
patterns::Workload generate_timed(const Bench& b, const char* name,
                                  const patterns::PatternParams& params,
                                  Tracer& tr, std::vector<double>& samples) {
  patterns::Workload wl;
  for (int r = 0; r < kGenReps; ++r) {
    Tracer::Scope s(tr, "patterns.generate");
    const double t0 = now_s();
    wl = patterns::generate(name, *b.machine, params);
    samples.push_back(now_s() - t0);
  }
  return wl;
}

void add_pattern_calls(Bench& b, const harness::MeasureConfig& cfg,
                       const std::string& tag, bool faulted) {
  for (mpix::Method m : mpix::kAllMethods) {
    b.calls.push_back(
        {tag + " sparse/" + mpix::to_string(m), mpix::to_string(m),
         "harness.measure_pattern", faulted,
         [&b, cfg, m](harness::PlanCache& plans, bool verify) {
           return outcome_of(harness::measure_pattern(
               b.sparse_wl, m, with(cfg, plans, verify)));
         }});
  }
  if (b.dense_wl.nranks == 0) {
    b.group_ends.push_back(b.calls.size());
    return;
  }
  for (mpix::AlltoallMethod m : mpix::kAllAlltoallMethods) {
    b.calls.push_back(
        {tag + " dense/" + mpix::to_string(m),
         std::string("dense_") + mpix::to_string(m),
         "harness.measure_pattern_dense", faulted,
         [&b, cfg, m](harness::PlanCache& plans, bool verify) {
           return outcome_of(harness::measure_pattern_dense(
               b.dense_wl, m, with(cfg, plans, verify)));
         }});
  }
  b.group_ends.push_back(b.calls.size());
}

/// bench_fault_sweep's grid at 4x its ranks: 512 ranks (32 nodes x 2
/// regions x 8) under a tapered two-level fat tree with the link cap on.
void setup_fault_taper(Bench& b, const Options& o, Tracer& tr) {
  const int nodes = o.tiny ? 4 : 32;
  b.cfg.ranks_per_region = 8;
  b.cfg.regions_per_node = 2;
  b.cfg.switch_levels = {{.radix = o.tiny ? 2 : 8, .taper = 2.0},
                         {.radix = o.tiny ? 2 : 4, .taper = 1.0}};
  b.cfg.cost.use_link_cap = true;
  b.cfg.cost.link_msg_bytes = 256.0;
  b.machine.emplace(
      simmpi::MachineConfig{.num_nodes = nodes,
                            .regions_per_node = 2,
                            .ranks_per_region = 8,
                            .switch_levels = b.cfg.switch_levels});
  b.ranks = b.machine->num_ranks();

  std::vector<double> sparse_t, dense_t;
  b.sparse_wl = generate_timed(
      b, "random_sparse", {.values = 32, .seed = o.pattern_seed, .degree = 6},
      tr, sparse_t);
  b.dense_wl = generate_timed(
      b, "incast",
      {.values = 16, .seed = o.pattern_seed, .fan_in = 0, .sinks = 4}, tr,
      dense_t);
  for (int r = 0; r < kGenReps; ++r)
    b.setup_s.push_back(sparse_t[r] + dense_t[r]);
  b.generate_s = median(b.setup_s);

  for (double drop : {0.0, 0.05, 0.15, 0.30}) {
    for (double sev : {1.0, 0.5, 0.25}) {
      auto plan = std::make_unique<simmpi::FaultPlan>();
      plan->seed = o.fault_seed;
      if (drop > 0.0)
        plan->events.push_back(
            {.kind = simmpi::FaultSpec::Kind::msg_drop, .rate = drop});
      if (sev < 1.0)
        plan->events.push_back(
            {.kind = simmpi::FaultSpec::Kind::link_brownout, .severity = sev});
      harness::MeasureConfig cfg = b.cfg;
      const bool faulted = !plan->events.empty();
      if (faulted) cfg.faults = plan.get();
      if (drop > 0.0) {
        cfg.reliability.enabled = true;
        cfg.reliability.timeout = 5e-4;
      }
      char tag[64];
      std::snprintf(tag, sizeof tag, "drop=%.2f sev=%.2f", drop, sev);
      add_pattern_calls(b, cfg, tag, faulted);
      b.fault_plans.push_back(std::move(plan));
    }
  }
}

/// stencil3d27 (64 values per face) on 8192 ranks, 16 per region, flat
/// core, through the three sparse methods.
void setup_stencil(Bench& b, const Options& o, Tracer& tr) {
  b.ranks = o.tiny ? 64 : 8192;
  b.cfg.ranks_per_region = 16;
  b.machine.emplace(simmpi::Machine::with_region_size(b.ranks, 16));
  b.sparse_wl = generate_timed(
      b, "stencil3d27", {.values = 64, .seed = o.pattern_seed}, tr, b.setup_s);
  b.generate_s = median(b.setup_s);
  add_pattern_calls(b, b.cfg, "stencil3d27", false);
}

// ---- passes -------------------------------------------------------------

struct PointResult {
  const Call* call = nullptr;
  double host_s = 0.0;
  Outcome out;
  std::string error;
  long misses = 0;  ///< PlanCache misses during this call
};

/// Time one call; an exception marks the point failed and is not rethrown,
/// so the remaining points still run.
PointResult run_call(const Call& c, harness::PlanCache& plans, bool verify,
                     Tracer& tr) {
  PointResult r;
  r.call = &c;
  const long m0 = plans.misses();
  const double t0 = now_s();
  try {
    Tracer::Scope s(tr, c.span);
    r.out = c.run(plans, verify);
  } catch (const std::exception& e) {
    r.error = e.what();
    if (r.error.empty()) r.error = "exception";
  }
  r.host_s = now_s() - t0;
  r.misses = plans.misses() - m0;
  return r;
}

struct Pass {
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< CPU time of the pass, all threads
  std::vector<PointResult> points;
  // With `reruns` (outside wall_s and the PlanCache counts):
  double plan_build_s = 0.0;  ///< sum of cold minus warm host time
  double verify_s = 0.0;      ///< sum of verify-on minus verify-off
  long hits = 0, misses = 0;
  std::size_t entries = 0;
};

/// The order the client issues the calls in: each group shuffled
/// (Fisher-Yates over splitmix64) by `seed`, groups in sequence.
std::vector<std::size_t> call_order(const Bench& b, unsigned seed) {
  std::uint64_t state = seed;
  auto next = [&state] {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  std::vector<std::size_t> order(b.calls.size());
  std::size_t begin = 0;
  for (std::size_t end : b.group_ends) {
    for (std::size_t i = begin; i < end; ++i) order[i] = i;
    for (std::size_t i = end; i > begin + 1; --i)
      std::swap(order[i - 1], order[begin + next() % (i - begin)]);
    begin = end;
  }
  return order;
}

/// The process's one pass over every call of the workload, in the seed's
/// order, with a fresh PlanCache and verification on.  Points are reported
/// in call order.  With `reruns`, each call is re-run at once: against the
/// warm PlanCache if it built plans (cold minus warm is plan build), then
/// with verification off and on again (off against the mean of the on runs
/// either side of it is verification, which cancels the process's aging to
/// first order).  Adjacent calls share the host's state, which differences
/// of whole processes on a noisy host do not.
Pass run_pass(const Bench& b, unsigned seed, bool reruns, Tracer& tr) {
  Pass p;
  p.points.resize(b.calls.size());
  harness::PlanCache plans;
  Tracer::Scope s(tr, "bench.pass");
  double excluded = 0.0;
  long rerun_hits = 0;
  const double t0 = now_s();
  const double c0 = cpu_s();
  for (std::size_t i : call_order(b, seed)) {
    const Call& c = b.calls[i];
    p.points[i] = run_call(c, plans, true, tr);
    const PointResult& cold = p.points[i];
    if (!reruns || !cold.error.empty()) continue;
    Tracer::Scope w(tr, "bench.rerun");
    const double w0 = now_s();
    const long h0 = plans.hits();
    double on_a = cold.host_s;
    if (cold.misses > 0) {
      on_a = run_call(c, plans, true, tr).host_s;
      p.plan_build_s += cold.host_s - on_a;
    }
    const double off = run_call(c, plans, false, tr).host_s;
    const double on_b = run_call(c, plans, true, tr).host_s;
    p.verify_s += 0.5 * (on_a + on_b) - off;
    rerun_hits += plans.hits() - h0;
    excluded += now_s() - w0;
  }
  p.wall_s = now_s() - t0 - excluded;
  p.cpu_s = cpu_s() - c0;
  p.hits = plans.hits() - rerun_hits;
  p.misses = plans.misses();
  p.entries = plans.size();
  return p;
}

// ---- microprobes ----------------------------------------------------------

/// Median host time of `reps` runs of `program` on a fresh engine over the
/// workload's machine (engine construction included).
double time_engine(const Bench& b, int width, int reps, Tracer& tr,
                   const simmpi::Engine::RankProgram& program) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    Tracer::Scope s(tr, "simmpi.run");
    const double t0 = now_s();
    simmpi::Engine eng(*b.machine, b.cfg.cost, {.threads = width});
    eng.run(program);
    t.push_back(now_s() - t0);
  }
  return median(t);
}

constexpr int kBarrierRounds = 8;

simmpi::Task<> empty_program(simmpi::Context&) { co_return; }

simmpi::Task<> barrier_program(simmpi::Context& ctx) {
  for (int k = 0; k < kBarrierRounds; ++k)
    co_await simmpi::coll::barrier(ctx, ctx.world());
}

simmpi::Task<> split_program(simmpi::Context& ctx) {
  co_await simmpi::coll::split_by_region(ctx, ctx.world());
}

/// Host time to record one span (open + close), s.  A pass's tracing
/// overhead is its span count times this: the difference of a traced and
/// an untraced process is dominated by host noise (see README.md).
double span_cost_s() {
  Tracer scratch;
  scratch.on = true;
  constexpr int kSpans = 100000;
  const double t0 = now_s();
  for (int i = 0; i < kSpans; ++i) Tracer::Scope s(scratch, "bench.probe");
  return (now_s() - t0) / kSpans;
}

/// Mean host time of one WorkerPool::run over `width` trivial chunks, µs.
double pool_dispatch_us(int width, Tracer& tr) {
  util::WorkerPool pool(width);
  std::vector<std::uint64_t> sink(static_cast<std::size_t>(width), 0);
  const util::WorkerPool::ChunkFn fn = [&sink](std::size_t begin,
                                               std::size_t end, int) {
    for (std::size_t i = begin; i < end; ++i) ++sink[i];
  };
  pool.run(sink.size(), 1, fn);  // spawn the threads outside the timing
  constexpr int kCalls = 2000;
  std::vector<double> batches;
  for (int r = 0; r < 5; ++r) {
    Tracer::Scope s(tr, "util.pool_run");
    const double t0 = now_s();
    for (int i = 0; i < kCalls; ++i) pool.run(sink.size(), 1, fn);
    batches.push_back((now_s() - t0) / kCalls * 1e6);
  }
  return median(batches);
}

// ---- JSON output ----------------------------------------------------------

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string points_json(const Pass& p) {
  std::string s = "[";
  for (std::size_t i = 0; i < p.points.size(); ++i) {
    const PointResult& r = p.points[i];
    s += (i ? "," : "") + std::string("{\"label\":") + json_str(r.call->label) +
         ",\"digest\":" + json_str(r.error.empty() ? hex(r.out.digest) : "") +
         ",\"error\":" + json_str(r.error) +
         ",\"sim_comm_s\":" + num(r.out.comm) +
         ",\"sim_init_s\":" + num(r.out.init) + "}";
  }
  return s + "]";
}

// ---- per-layer metrics (traced run) -------------------------------------

struct Layer {
  double value;
  const char* unit;
};

/// Microprobe results on the workload's machine, taken before the pass.
struct Probes {
  double empty_s = 0.0;     ///< Engine construction + no-op program
  double barriers_s = 0.0;  ///< the same plus kBarrierRounds world barriers
  double split_s = 0.0;     ///< the same plus one split_by_region
  double pool_us = 0.0;     ///< one WorkerPool dispatch
  double span_s = 0.0;      ///< recording one span
};

Probes run_probes(const Bench& b, int width, Tracer& tr) {
  Probes p;
  p.empty_s = time_engine(b, width, 5, tr, empty_program);
  p.barriers_s = time_engine(b, width, 3, tr, barrier_program);
  p.split_s = time_engine(b, width, 3, tr, split_program);
  p.pool_us = pool_dispatch_us(width, tr);
  p.span_s = span_cost_s();
  return p;
}

/// Per-layer metrics of the traced process, whose pass recorded
/// `pass_spans` spans.  run.py adds the re-run process's harness.verify_s
/// and mpix.plan_build_s.
std::map<std::string, Layer> layer_metrics(const Bench& b, const Probes& pr,
                                           const Pass& traced,
                                           std::size_t pass_spans) {
  std::map<std::string, Layer> m;
  auto set = [&m](const std::string& name, double v, const char* unit) {
    m[name] = {v, unit};
  };
  set("amg.build_s", b.amg_build_s, "s");
  set("amg.distribute_s", b.amg_distribute_s, "s");
  set("amg.levels", static_cast<double>(b.amg_levels), "count");
  set("amg.nnz", static_cast<double>(b.amg_nnz), "count");
  set("amg.rss_mb", b.amg_levels ? b.setup_rss_mb : 0.0, "MB");
  set("patterns.generate_s", b.generate_s, "s");

  auto measure_key = [](std::string method) {
    std::replace(method.begin(), method.end(), '+', '_');
    return "harness.measure." + method + "_s";
  };
  for (const char* method :
       {"hypre", "standard", "locality", "locality+dedup", "dense_standard",
        "dense_node_aggregated", "dense_bruck"})
    set(measure_key(method), 0.0, "s");
  double faulted = 0.0, fault_free = 0.0;
  long msgs = 0, drops = 0, retransmits = 0, timeouts = 0;
  for (const PointResult& r : traced.points) {
    m[measure_key(r.call->method)].value += r.host_s;
    (r.call->faulted ? faulted : fault_free) += r.host_s;
    msgs += r.out.msgs;
    drops += r.out.drops;
    retransmits += r.out.retransmits;
    timeouts += r.out.timeouts;
  }
  set("harness.measure.faulted_s", faulted, "s");
  set("harness.measure.fault_free_s", fault_free, "s");
  set("harness.plan_cache.misses", static_cast<double>(traced.misses), "count");
  set("harness.plan_cache.hits", static_cast<double>(traced.hits), "count");
  set("harness.plan_cache.entries", static_cast<double>(traced.entries),
      "count");


  const double rounds = std::ceil(std::log2(static_cast<double>(b.ranks)));
  set("simmpi.empty_run_s", pr.empty_s, "s");
  set("simmpi.phase_us",
      (pr.barriers_s - pr.empty_s) / (kBarrierRounds * rounds) * 1e6, "us");
  set("simmpi.split_s", pr.split_s - pr.empty_s, "s");
  set("simmpi.msgs", static_cast<double>(msgs), "count");
  set("simmpi.host_us_per_msg", msgs ? traced.wall_s / msgs * 1e6 : 0.0, "us");
  set("simmpi.drops", static_cast<double>(drops), "count");
  set("simmpi.retransmits", static_cast<double>(retransmits), "count");
  set("simmpi.timeouts", static_cast<double>(timeouts), "count");
  set("simmpi.faulted_wall_share",
      faulted + fault_free > 0 ? faulted / (faulted + fault_free) : 0.0,
      "ratio");
  set("simmpi.rss_per_rank_kb", peak_rss_mb() * 1024.0 / b.ranks, "KiB");
  set("util.pool_dispatch_us", pr.pool_us, "us");
  set("trace.overhead_s", static_cast<double>(pass_spans) * pr.span_s, "s");
  return m;
}

int usage() {
  std::fprintf(stderr,
               "usage: hostbench --workload paper_amg_2k|fault_taper_512|"
               "stencil_8k [--tiny] [--seed N] [--pattern-seed N] "
               "[--fault-seed N] [--width W] "
               "[--trace-out FILE | --reruns]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--seed" && has_value) {
      o.seed = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (a == "--pattern-seed" && has_value) {
      o.pattern_seed =
          static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (a == "--fault-seed" && has_value) {
      o.fault_seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--width" && has_value) {
      o.width = std::atoi(argv[++i]);
    } else if (a == "--trace-out" && has_value) {
      o.trace = true;
      o.trace_out = argv[++i];
    } else if (a == "--reruns") {
      o.reruns = true;
    } else {
      return usage();
    }
  }
  if (o.width < 1 || (o.trace && o.reruns)) return usage();

  // Isolation from the caller's environment: explicit widths everywhere,
  // and no hierarchy disk cache, so set-up always builds from scratch.
  const std::string width = std::to_string(o.width);
  ::setenv("COLLOM_SIM_THREADS", width.c_str(), 1);
  ::setenv("COLLOM_BUILD_THREADS", width.c_str(), 1);
  ::setenv("COLLOM_HIER_CACHE", "0", 1);

  Bench b;
  b.cfg.threads = o.width;
  b.cfg.build_threads = o.width;
  Tracer tr;
  tr.on = o.trace;
  now_s();  // start the clock

  {
    Tracer::Scope s(tr, "bench.setup");
    if (o.workload == "paper_amg_2k")
      setup_paper_amg(b, o, tr);
    else if (o.workload == "fault_taper_512")
      setup_fault_taper(b, o, tr);
    else if (o.workload == "stencil_8k")
      setup_stencil(b, o, tr);
    else
      return usage();
  }

  // One pass per process: repeated passes in one process slow down as the
  // process ages (see README.md), so run.py repeats whole processes.
  Probes probes;
  if (o.trace) probes = run_probes(b, o.width, tr);
  const std::size_t spans0 = tr.size();
  const Pass pass = run_pass(b, o.seed, o.reruns, tr);
  const std::size_t pass_spans = tr.size() - spans0;

  std::string out = "{\"workload\":" + json_str(o.workload) +
                    ",\"tiny\":" + (o.tiny ? "true" : "false") +
                    ",\"seed\":" + std::to_string(o.seed) +
                    ",\"pattern_seed\":" + std::to_string(o.pattern_seed) +
                    ",\"fault_seed\":" + std::to_string(o.fault_seed) +
                    ",\"width\":" + std::to_string(o.width) +
                    ",\"ranks\":" + std::to_string(b.ranks) + ",\"setup_s\":[";
  for (std::size_t i = 0; i < b.setup_s.size(); ++i)
    out += (i ? "," : "") + num(b.setup_s[i]);
  out += "],\"wall_s\":" + num(pass.wall_s) +
         ",\"cpu_s\":" + num(pass.cpu_s) +
         ",\"points\":" + points_json(pass) + ",\"layers\":{";
  std::map<std::string, Layer> layers;
  if (o.trace) layers = layer_metrics(b, probes, pass, pass_spans);
  if (o.reruns) {
    layers["harness.verify_s"] = {pass.verify_s, "s"};
    layers["mpix.plan_build_s"] = {pass.plan_build_s, "s"};
  }
  bool first = true;
  for (const auto& [name, l] : layers) {
    out += (first ? "" : ",") + json_str(name) + ":{\"value\":" +
           num(l.value) + ",\"unit\":" + json_str(l.unit) + "}";
    first = false;
  }
  if (o.trace) {
    if (!tr.write_chrome(o.trace_out)) {
      std::fprintf(stderr, "hostbench: cannot write %s\n", o.trace_out.c_str());
      return 1;
    }
  }
  out += "},\"peak_rss_mb\":" + num(peak_rss_mb()) + "}";
  std::printf("%s\n", out.c_str());
  return 0;
}
