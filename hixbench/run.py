#!/usr/bin/env python3
"""Run the simulator's benchmark on one workload and print its metrics.

    python3 hixbench/run.py --workload svc-hix|svc-gdev|fig-solo \
        --seed N --seconds S --trace 0|1

Builds hixbench/ (and the simulator libraries from src/) into
.bench_build/, then runs one pass per process until --seconds have
passed. Service workloads cycle through STREAMS arrival streams derived
from --seed and run one stream twice, so every run covers the same
inputs and checks that the simulated outputs repeat exactly.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced passes on the same stream, checks that they agree bit for
bit, and reports the per-layer metrics. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
See hixbench/README.md for what each metric means.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("svc-hix", "svc-gdev", "fig-solo")

# Arrival streams per service run. Simulated latency depends on the
# stream; the median over six streams is what keeps it steady from one
# --seed to the next.
STREAMS = 6
# After the build, a run ends within RUN_LIMIT_S: it starts no pass that
# would end after RUN_BUDGET_S, and stops a pass that runs past the limit.
RUN_BUDGET_S = 150
RUN_LIMIT_S = 170
_run_start = time.monotonic()

# Host times are given at reference host speed: seconds measured in a
# pass process, times (REFERENCE_LOOP_S / loop) ** SPEED_EXPONENT, where
# loop is the CPU seconds the host needed for a fixed reference loop in
# the same process right after the pass (calibrationSeconds in
# src/probes.h). On a shared host the CPU time of the same work drifts
# by tens of percent within minutes; the ratio cancels most of that.
# The loop is more memory-bound than the simulator and slows down more
# under co-tenant load, so it is only partly applied: over eight sets of
# five to ten runs, an exponent of 0.75 gave the smallest worst-case
# spread of the run medians (1.0 overcorrects, 0.5 undercorrects).
# 35 ms is about what the loop takes on an idle 4-vCPU x86 host; the
# constant only sets the scale.
REFERENCE_LOOP_S = 0.035
SPEED_EXPONENT = 0.75


def at_reference_speed(seconds, loop_seconds):
    return seconds * (REFERENCE_LOOP_S / loop_seconds) ** SPEED_EXPONENT


def pass_run_s(p):
    """Wall-clock of a pass without the time the hypervisor stole, at
    reference host speed. Unlike CPU time, it grows when the pass's
    threads wait for each other or run one after another."""
    return at_reference_speed(p["run_s"] * (1.0 - p["steal_share"]),
                              p["calib_pass_s"])


def host_values(passes):
    """The end-to-end host metrics: medians over completed passes."""
    return {
        "run_s": statistics.median(pass_run_s(p) for p in passes),
        "pass_cpu_s": statistics.median(
            at_reference_speed(p["cpu_s"], p["calib_pass_s"])
            for p in passes),
        "setup_s": statistics.median(
            at_reference_speed(p["setup_s"], p["calib_setup_s"])
            for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


END_TO_END = [
    ("run_s", "s"),
    ("pass_cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_p50_ms", "sim_ms"),
    ("sim_p99_ms", "sim_ms"),
    ("sim_makespan_ms", "sim_ms"),
    ("sim_hix_overhead_pct", "%"),
    ("paper_err_pp", "pp"),
]

OP_KINDS = ("compute", "crypto_cpu", "crypto_gpu", "transfer", "control", "init")

# (name, unit, better)
PER_LAYER = [
    ("workloads.run_ms", "ms", "lower"),
    ("workloads.self_ms", "ms", "lower"),
    ("workloads.repeat_share", "ratio", "lower"),
    ("workloads.record_ms", "ms", "lower"),
    ("workloads.schedule_ms", "ms", "lower"),
    ("workloads.boot_ms", "ms", "lower"),
    ("hix.htod_ms", "ms", "lower"),
    ("hix.dtoh_ms", "ms", "lower"),
    ("hix.launch_ms", "ms", "lower"),
    ("hix.alloc_ms", "ms", "lower"),
    ("hix.module_ms", "ms", "lower"),
    ("hix.htod_bytes", "bytes", "lower"),
    ("hix.dtoh_bytes", "bytes", "lower"),
    ("hix.launches", "count", "lower"),
    ("crypto.ocb_seal_mbps", "MB/s", "higher"),
    ("crypto.x25519_us", "us", "lower"),
    ("mem.rw_ns", "ns", "lower"),
    ("mem.tlb_hits", "count", "higher"),
    ("mem.tlb_misses", "count", "lower"),
    ("mem.iotlb_hits", "count", "higher"),
    ("mem.resident_pages", "count", "lower"),
    ("sim.schedule_ms", "ms", "lower"),
    ("sim.host_ns_per_op", "ns", "lower"),
    ("sim.ops", "count", "lower"),
    *[(f"sim.ops.{k}", "count", "lower") for k in OP_KINDS],
    *[(f"sim.busy_ms.{k}", "sim_ms", "lower") for k in OP_KINDS],
    ("sim.ctx_switches", "count", "lower"),
    ("sim.util.gpu", "ratio", "higher"),
    ("sim.util.dma_h2d", "ratio", "higher"),
    ("sim.util.dma_d2h", "ratio", "higher"),
    ("svc.probe_share", "ratio", "lower"),
    ("svc.plan_share", "ratio", "lower"),
    ("svc.reduce_share", "ratio", "lower"),
    ("svc.admit_wait_share", "ratio", "lower"),
    ("svc.admit_queue_max", "count", "lower"),
    ("svc.concurrency_max", "count", "higher"),
    ("svc.planner_err", "ratio", "lower"),
    ("bench.pass_wall_s", "s", "lower"),
    ("bench.host_slowdown", "ratio", "lower"),
    ("bench.steal_share", "ratio", "lower"),
    ("bench.span_coverage", "ratio", "higher"),
    ("bench.trace_overhead", "ratio", "lower"),
    ("bench.fail_ratio", "ratio", "lower"),
]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def run_quiet(cmd):
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        log(proc.stdout + proc.stderr)
        log(f"hixbench: command failed: {' '.join(cmd)}")
        sys.exit(1)


def build():
    """Configure once, then build incrementally; returns the binary."""
    if not any((BUILD / f).exists() for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", str(BUILD), "--target", "hixbench",
               "--parallel", jobs])
    return BUILD / "hixbench"


def stream_seed(seed, stream):
    return (seed * 16 + stream) % (1 << 63)


def run_pass(binary, workload, seed, traced=False, spans=None):
    """One pass in a fresh process; the result dict, or one with a
    "crash" entry if the process did not produce one."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    if spans:
        cmd += ["--spans", str(spans)]
    timeout = max(1.0, _run_start + RUN_LIMIT_S - time.monotonic())
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"crash": f"pass stopped at the {RUN_LIMIT_S} s run limit"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crash": f"exit {proc.returncode}: {proc.stderr.strip()}"}
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        return {"crash": f"unreadable pass output: {e}"}
    result["stream_seed"] = seed
    return result


class Checks:
    def __init__(self):
        self.problems = []

    def require(self, ok, what):
        if not ok:
            self.problems.append(what)
        return ok


def check_pass(checks, p, label):
    if "crash" in p:
        checks.require(False, f"{label}: {p['crash']}")
        return False
    for err in p["errors"]:
        checks.require(False, f"{label}: {err}")
    return not p["errors"]


def time_loop(seconds, min_passes, one_pass):
    """Call one_pass(i) until `seconds` have passed and at least
    `min_passes` ran, within the run's time budget."""
    start = time.monotonic()
    i = 0
    longest = 0.0
    while True:
        t = time.monotonic()
        one_pass(i)
        longest = max(longest, time.monotonic() - t)
        i += 1
        elapsed = time.monotonic() - start
        if elapsed + longest > RUN_BUDGET_S:
            break
        if i >= min_passes and elapsed >= seconds:
            break
    return i


def end_to_end(binary, args, checks, report):
    streams = 1 if args.workload == "fig-solo" else STREAMS
    passes = []

    def one(i):
        p = run_pass(binary, args.workload, stream_seed(args.seed, i % streams))
        check_pass(checks, p, f"pass {i}")
        passes.append(p)

    # One pass more than there are streams: stream 0 runs twice.
    time_loop(args.seconds, streams + 1, one)
    ok = [p for p in passes if "crash" not in p]
    if not ok:
        return None

    by_stream = {}
    for p in ok:
        first = by_stream.setdefault(p["stream_seed"], p)
        checks.require(p["digest"] == first["digest"],
                       f"stream {p['stream_seed']}: simulated outputs differ "
                       f"between passes ({first['digest']} vs {p['digest']})")
    # A run cut short by the time budget covers fewer streams, so its
    # medians are over other inputs, and it may repeat none of them.
    checks.require(len(by_stream) == streams and len(ok) > streams,
                   f"{len(ok)} passes over {len(by_stream)} streams: a run "
                   f"needs every one of the {streams} streams and one of "
                   f"them twice")
    report.append(f"passes: {len(passes)} ({len(ok)} completed), "
                  f"streams: {len(by_stream)}")
    for s, p in by_stream.items():
        report.append(f"  stream {s}: digest {p['digest']}")
    for label, key in (("pass CPU s", "cpu_s"), ("pass wall s", "run_s"),
                       ("steal share", "steal_share"),
                       ("reference loop s", "calib_pass_s")):
        report.append(f"  {label}: " + " ".join(f"{p[key]:.4g}" for p in ok))

    if args.workload == "fig-solo":
        ratios = ok[0]["hix_over_gdev"]
    else:
        # The paper comparison comes from one untimed fig-solo pass.
        solo = run_pass(binary, "fig-solo", args.seed)
        check_pass(checks, solo, "fig-solo paper check")
        ratios = solo.get("hix_over_gdev", {})

    sims = list(by_stream.values())
    values = {
        **host_values(ok),
        "sim_p50_ms": statistics.median(p["sim"]["p50_ms"] for p in sims),
        "sim_p99_ms": statistics.median(p["sim"]["p99_ms"] for p in sims),
        "sim_makespan_ms": statistics.median(
            p["sim"]["makespan_ms"] for p in sims),
        "sim_hix_overhead_pct": metrics.hix_overhead_pct(ratios),
        "paper_err_pp": metrics.paper_err_pp(ratios),
    }
    report.append("paper comparison (HIX overhead over gdev, %):")
    for label, sim, paper in metrics.paper_comparison(ratios):
        report.append(f"  {label:<13} simulated {sim:+8.2f}  paper {paper:+8.2f}")
    samples = {name: len(ok) for name in host_values(ok)}
    for name in ("sim_p50_ms", "sim_p99_ms", "sim_makespan_ms"):
        samples[name] = len(sims)
    return passes, {name: (values[name], unit, samples.get(name, 1))
                    for name, unit in END_TO_END}


def per_layer(binary, args, checks, report):
    streams = 1 if args.workload == "fig-solo" else STREAMS
    spans_dir = BUILD / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    spans = spans_dir / f"{args.workload}-seed{args.seed}.json"
    plain, traced = [], []

    def one(i):
        seed = stream_seed(args.seed, i % streams)
        u = run_pass(binary, args.workload, seed)
        t = run_pass(binary, args.workload, seed, traced=True, spans=spans)
        u_ok = check_pass(checks, u, f"untraced pass {i}")
        t_ok = check_pass(checks, t, f"traced pass {i}")
        if u_ok and t_ok:
            checks.require(u["digest"] == t["digest"],
                           f"stream {seed}: traced pass digest {t['digest']} "
                           f"!= untraced {u['digest']}")
            report.append(f"  stream {seed}: untraced {u['digest']} "
                          f"traced {t['digest']}")
        plain.append(u)
        traced.append(t)

    time_loop(args.seconds, 1, one)
    ok_plain = [p for p in plain if "crash" not in p]
    ok_traced = [p for p in traced if "crash" not in p]
    if not ok_plain or not ok_traced:
        return None
    report.append(f"pairs: {len(traced)}; spans of the last traced pass: "
                  f"{spans.relative_to(ROOT)}")

    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes if "crash" not in p)
    failed = sum(p["failed"] for p in passes if "crash" not in p)
    layers = {}
    for name, unit, _ in PER_LAYER:
        if name == "bench.trace_overhead":
            # Raw CPU time: the passes alternate, so host drift cancels.
            value = (statistics.median(p["cpu_s"] for p in ok_traced) /
                     statistics.median(p["cpu_s"] for p in ok_plain) - 1.0)
        elif name == "bench.pass_wall_s":
            value = statistics.median(p["run_s"] for p in ok_plain)
        elif name == "bench.host_slowdown":
            value = statistics.median(
                p["calib_pass_s"] for p in ok_plain) / REFERENCE_LOOP_S
        elif name == "bench.steal_share":
            value = statistics.median(p["steal_share"] for p in ok_plain)
        elif name == "bench.fail_ratio":
            value = failed / attempted if attempted else 1.0
        else:
            present = [p["layers"][name] for p in ok_traced if name in p["layers"]]
            if not checks.require(len(present) == len(ok_traced),
                                  f"layer metric {name} missing"):
                continue
            value = statistics.median(present)
            if name == "bench.span_coverage":
                checks.require(value >= 0.95,
                               f"top-level spans cover {value:.3f} of the "
                               f"traced pass; at least 0.95 is needed")
        layers[name] = (value, unit, len(ok_traced))
    return passes, layers


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    binary = build()
    global _run_start
    _run_start = time.monotonic()
    checks = Checks()
    report = [f"workload {args.workload}, seed {args.seed}, "
              f"trace {args.trace}, host threads {os.cpu_count()}"]
    measure = per_layer if args.trace else end_to_end
    out = measure(binary, args, checks, report)
    if out is None:
        log("\n".join(report + checks.problems))
        log("hixbench: no pass completed")
        sys.exit(1)
    passes, values = out

    attempted = sum(p.get("attempted", 0) for p in passes)
    failed = sum(p.get("failed", 0) for p in passes)
    crashed = sum(1 for p in passes if "crash" in p)
    attempted += crashed
    failed += crashed
    checks.require(failed == 0, f"{failed} of {attempted} sessions failed")
    report.append(f"sessions: {attempted} attempted, {failed} failed")

    for line in report:
        print(line)
    print(f"{'metric':<24} {'value':>16}  {'unit':<8} samples")
    for name, (value, unit, n) in values.items():
        print(f"{name:<24} {value:>16.6g}  {unit:<8} {n}")
    for problem in checks.problems:
        print(f"CHECK FAILED: {problem}")

    result = {
        "correct": not checks.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in values.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
