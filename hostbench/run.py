#!/usr/bin/env python3
"""Host-cost benchmark of the simulator: wall time, set-up time and peak RSS
of producing the deterministic virtual-time series, end to end and per layer.

Run from the repository root:

    python3 hostbench/run.py --workload paper_amg_2k --seed 1 --trace 0
    python3 hostbench/run.py --workload fault_taper_512 --trace 1  # layers
    python3 hostbench/run.py --workload stencil_8k --check   # width 1 vs 4
    python3 hostbench/run.py --self-test                     # tiny variants

The first call configures and builds hostbench/ (the layer libraries from
src/ plus the driver) into .bench_build/.  Each workload runs in its own
process at engine and build width 4; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD, "hostbench")
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("paper_amg_2k", "fault_taper_512", "stencil_8k")
WIDTH = 4  # engine and hierarchy-build width of every timed run
# --seed orders the calls within each group of a pass (groups use distinct
# PlanCache keys, so no simulated output depends on it); the pattern and
# fault-plan seeds choose the inputs.  reference.json holds the digests of
# the default inputs, which bench_fault_sweep also uses.
DEFAULT_SEED = 1
DEFAULT_PATTERN_SEED = 9
DEFAULT_FAULT_SEED = 42
RUN_LIMIT_S = 170  # all driver processes of one invocation, after the build
DEADLINE = None  # monotonic time by which they must end; set by main()

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_comm_s": "sim_s",
    "sim_init_s": "sim_s",
    "pass_frac": "ratio",
}

# Per-layer metric -> (end-to-end metric it should move, workloads where it
# is expected to show).  The driver computes the values; this table is what
# the traced run prints next to them.
LAYER_TARGETS = {
    "amg.build_s": ("setup_s", "paper_amg_2k"),
    "amg.distribute_s": ("setup_s", "paper_amg_2k"),
    "amg.levels": ("none (exact)", "paper_amg_2k"),
    "amg.nnz": ("none (exact)", "paper_amg_2k"),
    "amg.rss_mb": ("peak_rss_mb", "paper_amg_2k"),
    "harness.measure.hypre_s": ("wall_s", "paper_amg_2k"),
    "harness.measure.standard_s": ("wall_s", "all"),
    "harness.measure.locality_s": ("wall_s", "all"),
    "harness.measure.locality_dedup_s": ("wall_s", "all"),
    "harness.measure.dense_standard_s": ("wall_s", "fault_taper_512"),
    "harness.measure.dense_node_aggregated_s": ("wall_s", "fault_taper_512"),
    "harness.measure.dense_bruck_s": ("wall_s", "fault_taper_512"),
    "harness.measure.faulted_s": ("wall_s", "fault_taper_512"),
    "harness.measure.fault_free_s": ("wall_s", "all"),
    "harness.verify_s": ("wall_s", "fault_taper_512, paper_amg_2k"),
    "harness.plan_cache.misses": ("wall_s", "paper_amg_2k"),
    "harness.plan_cache.hits": ("wall_s", "fault_taper_512"),
    "harness.plan_cache.entries": ("peak_rss_mb", "paper_amg_2k"),
    "mpix.plan_build_s": ("wall_s", "paper_amg_2k, stencil_8k"),
    "simmpi.empty_run_s": ("wall_s", "fault_taper_512, stencil_8k"),
    "simmpi.phase_us": ("wall_s", "fault_taper_512; flat on paper_amg_2k"),
    "simmpi.split_s": ("wall_s", "stencil_8k"),
    "simmpi.msgs": ("none (exact; base of host_us_per_msg)",
                    "fault_taper_512, stencil_8k"),
    "simmpi.host_us_per_msg": ("wall_s", "fault_taper_512"),
    "simmpi.drops": ("wall_s", "fault_taper_512"),
    "simmpi.retransmits": ("wall_s", "fault_taper_512"),
    "simmpi.timeouts": ("wall_s", "fault_taper_512"),
    "simmpi.faulted_wall_share": ("wall_s", "fault_taper_512"),
    "simmpi.rss_per_rank_kb": ("peak_rss_mb", "stencil_8k"),
    "patterns.generate_s": ("setup_s", "fault_taper_512, stencil_8k"),
    "util.pool_dispatch_us": ("wall_s",
                              "fault_taper_512; flat on paper_amg_2k"),
    "trace.overhead_s": ("none (pass spans x cost of one span)", "all"),
}

# What the traced run cannot measure from outside the library, and why.
UNMEASURED = (
    ("simmpi resume vs commit split, phase counts",
     "engine-internal; needs spans inside src/simmpi/engine.cpp"),
    ("mpix bind vs start/wait split",
     "inside harness::measure_*; only plan build is separable "
     "(cold minus warm PlanCache)"),
    ("simmpi.msgs on paper_amg_2k",
     "harness::LevelMeasurement carries per-rank maxima only, not totals"),
)


def fail(msg):
    print("hostbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (once) and build the driver; any failure exits non-zero."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at %s/src; run from a full checkout" % ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(WIDTH),
                  "--target", "hostbench"])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail("build step failed: " + " ".join(cmd))


def drive(workload, seed, width=WIDTH, tiny=False, trace_out=None,
          reruns=False, inputs=(DEFAULT_PATTERN_SEED, DEFAULT_FAULT_SEED)):
    """Run one workload pass in its own process; returns its JSON report."""
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--pattern-seed", str(inputs[0]), "--fault-seed", str(inputs[1]),
           "--width", str(width)]
    if tiny:
        cmd.append("--tiny")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    if reruns:
        cmd.append("--reruns")
    # The caller's COLLOM_* knobs (widths, hierarchy cache) must not leak in.
    env = {k: v for k, v in os.environ.items() if not k.startswith("COLLOM_")}
    env["COLLOM_HIER_CACHE"] = "0"
    timeout = None
    if DEADLINE is not None:
        timeout = max(1.0, DEADLINE - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_LIMIT_S))
    if proc.returncode != 0:
        fail("driver exited with %d on %s" % (proc.returncode, workload))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reference_key(workload, tiny):
    return workload + ("/tiny" if tiny else "")


def load_reference():
    with open(REFERENCE) as f:
        return json.load(f)


def digests(report):
    return {p["label"]: p["digest"] for p in report["points"]}


def default_inputs(report):
    return (report["pattern_seed"], report["fault_seed"]) == (
        DEFAULT_PATTERN_SEED, DEFAULT_FAULT_SEED)


def check_points(reports, perturb=False):
    """Count attempted and failed points over every process's pass.

    A point fails when its call threw, or when its digest differs from the
    reference (default inputs) or else from the same point of the first
    process.  `perturb` flips one digest bit first, to prove that a
    mismatch is caught.
    """
    first = reports[0]
    expected = None
    if default_inputs(first):
        expected = load_reference().get(
            reference_key(first["workload"], first["tiny"]))
    if expected is None:
        expected = digests(first)
    if perturb:
        point = first["points"][0]
        point["digest"] = "%016x" % (int(point["digest"], 16) ^ 1)
    attempted = failed = 0
    for i, r in enumerate(reports):
        for point in r["points"]:
            attempted += 1
            want = expected.get(point["label"])
            if point["error"] or point["digest"] != want:
                failed += 1
                print("FAILED point (process %d) %s: %s" % (
                    i, point["label"],
                    point["error"] or "digest " + point["digest"]))
    return attempted, failed


def end_to_end(reports, attempted, failed):
    points = reports[0]["points"]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in reports),
        "cpu_s": statistics.median(r["cpu_s"] for r in reports),
        "setup_s": statistics.median(
            statistics.median(r["setup_s"]) for r in reports),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
        "sim_comm_s": sum(p["sim_comm_s"] for p in points),
        "sim_init_s": sum(p["sim_init_s"] for p in points),
        "pass_frac": (attempted - failed) / attempted,
    }


def self_times(trace_path):
    """Self time per layer (each span's duration minus its children's) and
    the number of spans."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    child = [0.0] * len(events)
    for e in events:
        if e["args"]["parent"] >= 0:
            child[e["args"]["parent"]] += e["dur"]
    layers = {}
    for e, c in zip(events, child):
        layers[e["cat"]] = layers.get(e["cat"], 0.0) + (e["dur"] - c) / 1e6
    return layers, len(events)


def timed_processes(job, seconds):
    """Closed loop of whole processes, one pass each, as many as fill
    `seconds` at the first process's pace (at least one)."""
    t0 = time.monotonic()
    reports = [drive(**job)]
    n = max(1, round(seconds / (time.monotonic() - t0)))
    reports += [drive(**job) for _ in range(n - 1)]
    return reports


def traced_processes(job):
    """A traced pass and a pass with re-runs (plan build and verification
    differences), one process each.

    Returns (reports, per-layer metrics, trace path)."""
    os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
    trace_out = os.path.join(BUILD, "traces", "%s%s-seed%d.json" % (
        job["workload"], "-tiny" if job["tiny"] else "", job["seed"]))
    traced = drive(trace_out=trace_out, **job)
    rerun = drive(reruns=True, **job)
    return [traced, rerun], dict(traced["layers"], **rerun["layers"]), \
        trace_out


def describe(report):
    return "workload %s%s  seed %d  inputs %d/%d  ranks %d" % (
        report["workload"], " (tiny)" if report["tiny"] else "",
        report["seed"], report["pattern_seed"], report["fault_seed"],
        report["ranks"])


def run(job, seconds, trace, perturb=False):
    """One benchmark run; returns the result object and prints the report."""
    if trace:
        reports, layers, trace_out = traced_processes(job)
    else:
        reports = timed_processes(job, seconds)
    attempted, failed = check_points(reports, perturb)
    print("%s  width %d  processes %d" % (
        describe(reports[0]), reports[0]["width"], len(reports)))
    print("  %-12s %.6g (%d of %d points failed)" % (
        "fail_frac", failed / attempted, failed, attempted))
    if trace:
        metrics = layers
        for name, m in sorted(metrics.items()):
            moves, on = LAYER_TARGETS.get(name, ("?", "?"))
            print("  %-40s %14.6g %-6s moves %s on %s" % (
                name, m["value"], m["unit"], moves, on))
        self_s, spans = self_times(trace_out)
        print("  self time per layer (traced process, s):")
        for layer, t in sorted(self_s.items()):
            print("    %-10s %.6f" % (layer, t))
        print("  tracing overhead: %.6f s of the traced pass's wall_s %.6f s "
              "(%d spans in the trace file)" % (
                  layers["trace.overhead_s"]["value"], reports[0]["wall_s"],
                  spans))
        for what, why in UNMEASURED:
            print("  not measured: %s (%s)" % (what, why))
        print("  trace: " + os.path.relpath(trace_out, ROOT))
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in end_to_end(reports, attempted, failed).items()}
        for name, m in metrics.items():
            print("  %-12s %r %s" % (name, m["value"], m["unit"]))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def width_check(job, record=False):
    """Digests at width 1 must equal width 4 (and the reference on the
    default inputs).  With `record`, store them as the new reference."""
    wide = drive(**job)
    narrow = drive(width=1, **job)
    ok = digests(wide) == digests(narrow) and not any(
        p["error"] for p in wide["points"])
    print("check %s: width 1 vs %d digests %s" % (
        describe(wide), WIDTH, "equal" if ok else "DIFFER"))
    key = reference_key(job["workload"], job["tiny"])
    if ok and record and default_inputs(wide):
        ref = load_reference() if os.path.isfile(REFERENCE) else {}
        ref[key] = digests(wide)
        with open(REFERENCE, "w") as f:
            json.dump(ref, f, indent=1, sort_keys=True)
            f.write("\n")
        print("  recorded reference " + key)
    elif default_inputs(wide):
        same = load_reference().get(key) == digests(wide)
        print("  reference digests %s" % ("equal" if same else "DIFFER"))
        ok = ok and same
    return ok


def self_test():
    """Tiny (64-rank) variants: every named metric is printed with its
    unit, a perturbed digest counts as failed, and widths agree."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    want_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []
    for w in WORKLOADS:
        job = dict(workload=w, seed=DEFAULT_SEED, tiny=True)
        for trace, want in ((False, want_e2e), (True, want_layer)):
            res = run(job, 0, trace)
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            if got != want:
                problems.append("%s trace=%d metrics %s != %s" % (
                    w, trace, sorted(got.items()), sorted(want.items())))
            if not res["correct"]:
                problems.append("%s trace=%d not correct" % (w, trace))
        res = run(job, 0, False, perturb=True)
        if res["correct"] or res["failed"] != 1:
            problems.append("%s: perturbed digest counted %d failed" % (
                w, res["failed"]))
        if not width_check(job):
            problems.append("%s: width check failed" % w)
    for p in problems:
        print("SELF-TEST PROBLEM: " + p)
    print("self-test " + ("FAILED" if problems else "passed"))
    return not problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="order of the calls within each group of a pass")
    ap.add_argument("--pattern-seed", type=int, default=DEFAULT_PATTERN_SEED,
                    help="pattern-generator seed (input)")
    ap.add_argument("--fault-seed", type=int, default=DEFAULT_FAULT_SEED,
                    help="fault-plan seed (input)")
    ap.add_argument("--seconds", type=float, default=50.0,
                    help="time budget of the timed processes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: traced per-layer run")
    ap.add_argument("--tiny", action="store_true",
                    help="64-rank variant of the workload")
    ap.add_argument("--check", action="store_true",
                    help="untimed width 1 vs 4 (and reference) digest check")
    ap.add_argument("--record", action="store_true",
                    help="with --check: store the default-input digests")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    build()
    global DEADLINE
    DEADLINE = time.monotonic() + RUN_LIMIT_S
    if args.self_test:
        return 0 if self_test() else 1
    if not args.workload:
        ap.error("--workload is required")
    job = dict(workload=args.workload, seed=args.seed, tiny=args.tiny,
               inputs=(args.pattern_seed, args.fault_seed))
    if args.check:
        return 0 if width_check(job, args.record) else 1
    print(json.dumps(run(job, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
