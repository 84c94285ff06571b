#!/usr/bin/env python3
"""rcsim benchmark: builds rcbench from the checkout, runs passes of one
workload (each pass a fresh process) for a fixed time, checks every
output, and prints the metrics.

    python3 rcbench/run.py --workload paper_suite --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics (medians over the passes);
--trace 1 runs the serial traced replay and prints per-layer metrics.
--workload all runs the three workloads in turn.  The last line of
standard output is one JSON object: correct, attempted, failed,
metrics.  Exit codes: 0 ok, 1 a correctness or determinism check
failed (or the build failed), 2 usage, 3 no rcsim sources to build.

Results are written only to the paths given with --json and
--trace-out; neither may name a BENCH_*.json file.
"""

import argparse
import fnmatch
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "rcbench")
WORKLOADS = ("paper_suite", "config_churn", "fuzz_campaign")
PASS_TIMEOUT_S = 150
MIN_PASSES = 3

# End-to-end metrics: name -> unit.  Every run prints all of them.
END_TO_END = {
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Printed with the end-to-end metrics but left out of the bounded set:
# on fuzz_campaign they follow the seed's random programs, and on the
# sweeps sim_mips is tasks_per_s times a constant.  The exact counts
# are checked for determinism instead.
REPORTED = {
    "sim_mips": "MIPS",
    "sim_cycles": "cycles",
    "code_size": "instructions",
}

# Per-layer metrics of the traced run: name -> unit.
PER_LAYER = {
    "pipeline.frontend.calls": "count",
    "pipeline.frontend.busy_ms": "ms",
    "pipeline.frontend.hit_ratio": "ratio",
    "pipeline.backend.calls": "count",
    "pipeline.backend.busy_ms": "ms",
    "pipeline.backend.distinct_key_share": "ratio",
    "pipeline.pass.allocate_ms": "ms",
    "pipeline.pass.schedule_ms": "ms",
    "pipeline.pass.rewrite_ms": "ms",
    "pipeline.pass.connect_ms": "ms",
    "harness.predecode.calls": "count",
    "harness.predecode.busy_ms": "ms",
    "harness.predecode.hit_ratio": "ratio",
    "harness.verify.busy_ms": "ms",
    "harness.executor.parallel_efficiency": "ratio",
    "sim.setup.busy_ms": "ms",
    "sim.run.busy_ms": "ms",
    "sim.run.ns_per_instr": "ns",
    "sim.ipc": "ratio",
    "sim.cycles": "cycles",
    "sim.rc16_of_unlimited": "ratio",
    "pipeline.code_size": "instructions",
    "sim.connects": "count",
    "sim.stall_src": "count",
    "sim.stall_dest_busy": "count",
    "sim.stall_mem_channel": "count",
    "sim.stall_map_update": "count",
    "sim.cycles_redirect": "count",
    "regalloc.spill_ops": "count",
    "regalloc.connect_ops": "count",
    "regalloc.save_restore_ops": "count",
    "fuzz.generate_ms": "ms",
    "fuzz.compile_ms": "ms",
    "fuzz.bank_ms": "ms",
    "fuzz.coverage.features": "count",
    "fuzz.coverage.admit_ratio": "ratio",
    "analysis.xval_ms": "ms",
    "analysis.instr_per_s": "1/s",
    "analysis.claims_observed_ratio": "ratio",
    "trace.unattributed_share": "ratio",
    "trace.overhead_ratio": "ratio",
}

# The paper's headline: with RC at 16 int / 32 fp cores, fig8 reaches
# about 90% of the unlimited-register speedup.
PAPER_RC16_OF_UNLIMITED = 0.90


class BenchError(Exception):
    """A correctness or determinism failure; carries the task counts of
    the pass that reported it, if any."""

    def __init__(self, message, attempted=0, failed=0):
        super().__init__(message)
        self.attempted = attempted
        self.failed = failed


def log(msg):
    print(msg, flush=True)


def refuse_committed(path, flag):
    if path and fnmatch.fnmatch(os.path.basename(path), "BENCH_*.json"):
        print(f"run.py: {flag} must not name a BENCH_*.json file "
              f"({path})", file=sys.stderr)
        sys.exit(2)


def build():
    """Configure (once) and build the rcbench target; exit on failure."""
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"run.py: no rcsim sources ({needed} missing under "
                  f"{ROOT})", file=sys.stderr)
            sys.exit(3)
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(BUILD)  # configured for another checkout
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "rcbench",
                  "-j", jobs])
    with open(os.path.join(BUILD, "build.log"), "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                out.flush()
                with open(os.path.join(BUILD, "build.log")) as f:
                    sys.stderr.write(f.read()[-4000:])
                print("run.py: build failed", file=sys.stderr)
                sys.exit(1)


def rcbench(args):
    """Run the rcbench binary; returns (parsed JSON, spawn time)."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run([BINARY] + args, capture_output=True,
                              text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"rcbench {' '.join(args)} timed out")
    try:
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"rcbench {' '.join(args)} exited "
                         f"{proc.returncode} without a result: "
                         f"{proc.stderr.strip()[-500:]}")
    errors = doc.get("errors", [])
    if proc.returncode != 0 or errors:
        raise BenchError(f"rcbench {' '.join(args)} exited "
                         f"{proc.returncode}: {'; '.join(errors)[:2000]}",
                         doc.get("tasks", 0), doc.get("failed", 0))
    return doc, spawned


def host_fingerprint():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    calib, _ = rcbench(["calibrate"])
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "calibration_msteps_per_s":
                calib["calibration_msteps_per_s"]}


def run_pass(workload, seed, jobs=None):
    args = ["pass", "--workload", workload, "--seed", str(seed)]
    if jobs:
        args += ["--jobs", str(jobs)]
    doc, spawned = rcbench(args)
    doc["setup_s"] = doc["ready_mono"] - spawned
    return doc


def pass_metrics(p):
    return {
        "setup_s": p["setup_s"],
        "tasks_per_s": p["tasks"] / p["wall_s"],
        "sim_mips": p["instructions"] / p["wall_s"] / 1e6,
        "peak_rss_mb": p["peak_rss_mb"],
        "sim_cycles": p["sim_cycles"],
        "code_size": p["code_size"],
    }


def committed_rc16_cycles():
    """Per-kernel cycles of BENCH_sim_throughput.json (4-issue, RC,
    16 int / 32 fp cores) — the same cells as fig8's rc16 column."""
    path = os.path.join(ROOT, "BENCH_sim_throughput.json")
    with open(path) as f:
        doc = json.load(f)
    cfg = doc["config"]
    if (cfg["issue"], cfg["load_latency"], cfg["core_int"],
            cfg["core_fp"], cfg["rc"]) != (4, 2, 16, 32, True):
        raise BenchError(f"{path}: unexpected config {cfg}")
    return {b["name"]: b["cycles"] for b in doc["benchmarks"]}


def check_passes(workload, passes):
    """Determinism across passes, plus the workload's own checks."""
    first = passes[0]
    exact = ["tasks", "instructions", "sim_cycles", "code_size"]
    if workload == "paper_suite":
        exact += ["rc16_of_unlimited", "rc16_cycles"]
    if workload == "fuzz_campaign":
        exact += ["summary_fnv", "admitted", "features"]
    for p in passes[1:]:
        for key in exact:
            if p[key] != first[key]:
                raise BenchError(f"{workload}: {key} differs between "
                                 f"passes ({first[key]} vs {p[key]})")
    if workload == "paper_suite":
        want = committed_rc16_cycles()
        if first["rc16_cycles"] != want:
            diff = {k: (first["rc16_cycles"].get(k), v)
                    for k, v in want.items()
                    if first["rc16_cycles"].get(k) != v}
            raise BenchError("paper_suite: 4-issue 16/32-core with-RC "
                             "cycles differ from BENCH_sim_throughput."
                             f"json (got, committed): {diff}")


def measure(workload, seed, seconds):
    """Untraced passes for `seconds`; returns (metrics, attempted,
    failed, report)."""
    passes = []
    start = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - start < seconds:
        passes.append(run_pass(workload, seed))
    check_passes(workload, passes)
    samples = {name: [pass_metrics(p)[name] for p in passes]
               for name in {**END_TO_END, **REPORTED}}
    metrics = {name: statistics.median(samples[name])
               for name in END_TO_END}
    first = passes[0]
    log(f"--- {workload} (seed {seed}): {len(passes)} passes, "
        f"{first['tasks']} tasks each, jobs {first['jobs']}")
    for name, unit in {**END_TO_END, **REPORTED}.items():
        v = samples[name]
        log(f"  {name:<18} {statistics.median(v):>14.6g} {unit:<12} "
            f"median of {len(v)}, min {min(v):.6g}, max {max(v):.6g}")
    attempted = sum(p["tasks"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    log(f"  failed_share       {failed / attempted:>14.6g} ratio        "
        f"{failed} of {attempted} tasks")
    if workload == "paper_suite":
        log(f"  rc16_of_unlimited  {first['rc16_of_unlimited']:>14.6g} "
            f"ratio        paper: ~{PAPER_RC16_OF_UNLIMITED}")
    if workload == "config_churn":
        log(f"  capped_share       {first['capped'] / first['tasks']:>14.6g}"
            f" ratio        points that reached the "
            f"2000-cycle cap")
    if workload == "fuzz_campaign":
        log(f"  corpus: {first['admitted']} admitted, "
            f"{first['features']} features, xval "
            f"{first['xval_claims_hit']}/{first['xval_claims']} claims "
            f"observed, summary fnv {first['summary_fnv']}")
    report = {"workload": workload, "seed": seed, "passes": passes,
              "samples": samples, "metrics": metrics}
    return metrics, attempted, failed, report


def traced(workload, seed, trace_out):
    """Serial traced replay plus the untraced passes it is set against."""
    serial = run_pass(workload, seed, jobs=1)
    check_passes(workload, [serial])
    args = ["replay", "--workload", workload, "--seed", str(seed)]
    if trace_out:
        args += ["--trace-out", trace_out]
    replay, _ = rcbench(args)
    if (replay["tasks"], replay["sim_cycles"], replay["code_size"]) != (
            serial["tasks"], serial["sim_cycles"], serial["code_size"]):
        raise BenchError(f"{workload}: replay disagrees with the pass "
                         f"(tasks, sim_cycles, code_size): "
                         f"{replay['tasks'], replay['sim_cycles'], replay['code_size']}"
                         f" vs {serial['tasks'], serial['sim_cycles'], serial['code_size']}")
    metrics = dict(replay["metrics"])
    if workload == "paper_suite" and (metrics["sim.rc16_of_unlimited"]
                                      != serial["rc16_of_unlimited"]):
        raise BenchError("paper_suite: replay rc16_of_unlimited "
                         f"{metrics['sim.rc16_of_unlimited']} differs "
                         f"from the pass's {serial['rc16_of_unlimited']}")
    if workload == "fuzz_campaign" and replay["admitted"] != serial["admitted"]:
        raise BenchError("fuzz_campaign: replay admitted "
                         f"{replay['admitted']} inputs, the campaign "
                         f"{serial['admitted']}")
    serial_wall = serial["setup_inner_s"] + serial["wall_s"]
    metrics["trace.overhead_ratio"] = replay["wall_s"] / serial_wall
    efficiency = 0.0
    if workload == "paper_suite":
        parallel = run_pass(workload, seed)
        check_passes(workload, [serial, parallel])
        efficiency = serial["wall_s"] / (parallel["jobs"] * parallel["wall_s"])
    metrics["harness.executor.parallel_efficiency"] = efficiency
    missing = set(PER_LAYER) - set(metrics)
    if missing:
        raise BenchError(f"replay did not report {sorted(missing)}")
    metrics = {name: metrics[name] for name in PER_LAYER}

    log(f"--- {workload} (seed {seed}): traced replay "
        f"{replay['wall_s']:.3f} s, untraced serial pass "
        f"{serial_wall:.3f} s, {replay['trace_events']} trace events")
    log("  layer self time:")
    for name, layer in sorted(replay["layers"].items(),
                              key=lambda kv: -kv[1]["self_ms"]):
        share = layer["self_ms"] / 1000 / replay["wall_s"]
        log(f"    {name:<20} {layer['self_ms']:>12.3f} ms {share:>7.2%} "
            f"{layer['calls']:>6} calls")
    for name, unit in PER_LAYER.items():
        log(f"  {name:<38} {metrics[name]:>14.6g} {unit}")
    if metrics["trace.unattributed_share"] >= 0.05:
        log("  WARNING: more than 5% of the replay is in no named span")
    report = {"workload": workload, "seed": seed, "replay": replay,
              "serial_pass": serial, "metrics": metrics}
    return metrics, replay["tasks"] + serial["tasks"], 0, report


def main():
    ap = argparse.ArgumentParser(
        description="rcsim benchmark (see rcbench/README.md)")
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", metavar="PATH",
                    help="write the full result document here")
    ap.add_argument("--trace-out", metavar="PATH",
                    help="write the replay's trace-event JSON here "
                         "(--trace 1)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    trace_outs = {name: args.trace_out for name in names}
    if args.trace_out and len(names) > 1:
        stem, ext = os.path.splitext(args.trace_out)
        trace_outs = {name: f"{stem}.{name}{ext}" for name in names}
    refuse_committed(args.json, "--json")
    for path in trace_outs.values():
        refuse_committed(path, "--trace-out")

    build()
    units = PER_LAYER if args.trace else END_TO_END
    correct, attempted, failed = True, 0, 0
    metrics, reports, host = {}, [], {}
    try:
        host = host_fingerprint()
        log(f"host: {host['nproc']} cpus, {host['cpu_model']}, "
            f"calibration {host['calibration_msteps_per_s']:.6g} "
            f"Msteps/s")
        for name in names:
            m, a, f, report = (traced(name, args.seed, trace_outs[name])
                               if args.trace else
                               measure(name, args.seed, args.seconds))
            attempted += a
            failed += f
            reports.append(report)
            prefix = f"{name}." if len(names) > 1 else ""
            for key, value in m.items():
                metrics[prefix + key] = {"value": value,
                                         "unit": units[key]}
    except BenchError as e:
        print(f"run.py: FAILED: {e}", file=sys.stderr)
        log(f"FAILED: {e}")
        correct = False
        attempted += e.attempted
        failed += e.failed

    if args.json:
        with open(args.json, "w") as f:
            json.dump({"host": host, "workload": args.workload,
                       "seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "correct": correct,
                       "reports": reports}, f, indent=1)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
