#!/usr/bin/env python3
"""Geomancy decision-loop benchmark.

Usage (from the root of a checkout):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                           [--quick]

Builds perfbench_driver from this checkout's sources (CMake, Release,
into .bench_build/perfbench), runs the named workload as one closed-loop
client for about S seconds, checks the outputs and prints, as the last
line of standard output, one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are the per-layer metrics, read from a traced run
next to a plain one. The lines before it name the host/build
fingerprint and how the tail percentile was taken. The full record
(fingerprint included) is also written to
.bench_build/perfbench/results/<workload>-seed<N>-trace<T>.json, which
perfbench/compare.py reads.

Exit status: 0 when every correctness check passed, 1 when a check
failed (the JSON line still says which run failed) or the build or
driver failed, 2 on a bad argument.
"""

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("belle2-paper", "fleet-4x4", "chaos-durable")
# The reference kernel's time, in ms, on the unloaded host the benchmark
# was tuned on (4-vCPU Intel Xeon VM, GCC 12.2, Release). Host timings
# are reported as ms at that kernel speed; see README.md.
REFERENCE_KERNEL_MS = 5.8
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

END_TO_END_UNITS = {
    "setup_s": "s",
    "accesses_per_s": "1/s",
    "cycle_ms_p50": "ms",
    "cycle_ms_tail": "ms",
    "achieved_gbps": "GB/s",
    "gain_vs_best_static": "ratio",
    "attempts_per_applied_move": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "workload.run_ms": "ms",
    "workload.accesses": "count",
    "storage.migrated_bytes": "bytes",
    "monitoring_agent.records": "count",
    "monitoring_agent.batches": "count",
    "replay_db.rows": "count",
    "replay_db.file_bytes": "bytes",
    "geomancy.cycle_ms": "ms",
    "geomancy.monitor_ms": "ms",
    "geomancy.train_ms": "ms",
    "geomancy.propose_ms": "ms",
    "geomancy.migrate_ms": "ms",
    "geomancy.unaccounted_frac": "ratio",
    "drl_engine.train_ms": "ms",
    "drl_engine.train_rows": "count",
    "drl_engine.train_us_per_row_epoch": "us",
    "drl_engine.predict_ms": "ms",
    "drl_engine.score_rows": "count",
    "drl_engine.val_mae_pct": "%",
    "drl_engine.rollbacks": "count",
    "thread_pool.tasks": "count",
    "thread_pool.task_ms": "ms",
    "thread_pool.busy_frac": "ratio",
    "action_checker.proposed": "count",
    "action_checker.vetoed": "count",
    "action_checker.applied_per_proposed": "ratio",
    "control_agent.moves_requested": "count",
    "control_agent.moves_applied": "count",
    "control_agent.moves_failed": "count",
    "control_agent.retries": "count",
    "guardrails.quarantined": "count",
    "guardrails.safe_mode_cycles": "count",
    "guardrails.deadline_exceeded": "count",
    "decision_ledger.rows": "count",
    "decision_ledger.bytes": "bytes",
    "checkpoint.write_ms": "ms",
    "checkpoint.bytes": "bytes",
    "shard_coordinator.round_ms": "ms",
    "shard_coordinator.shard_cycle_ms_sum": "ms",
    "shard_coordinator.round_parallelism": "ratio",
    "shard_coordinator.moves_denied": "count",
    "shard_coordinator.peak_device_moves": "count",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    """The build or the driver failed; no result can be printed."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--quick", action="store_true",
                        help="short sessions and no result record, for "
                             "the self-test only")
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[0-9]{1,19}", args.seed):
        parser.error(f"--seed must be a non-negative integer, "
                     f"not {args.seed!r}")
    if not re.fullmatch(r"[0-9]{1,4}", args.seconds) or \
            not 1 <= int(args.seconds) <= 3600:
        parser.error(f"--seconds must be an integer in [1, 3600], "
                     f"not {args.seconds!r}")
    return args


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the driver; returns its path."""
    started = time.monotonic()
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd, BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    run_build_step(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                    "perfbench_driver"],
                   BUILD_TIMEOUT_S - (time.monotonic() - started))
    return os.path.join(BUILD_DIR, "perfbench_driver")


def run_build_step(cmd, timeout):
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        raise BenchError(f"build step timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        raise BenchError(f"build step failed: {' '.join(cmd)}")


def run_driver(driver, args, deadline):
    work = os.path.join(BUILD_DIR, f"work-{os.getpid()}")
    raw_path = os.path.join(BUILD_DIR, f"raw-{os.getpid()}.json")
    cmd = [driver, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--out", raw_path, "--work", work]
    if args.quick:
        cmd.append("--quick")
    env = dict(os.environ)
    # At most four pool threads, whatever the host offers.
    env["GEO_THREADS"] = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    try:
        try:
            proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=max(1.0, deadline -
                                              time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError("driver exceeded the time limit")
        if proc.returncode != 0:
            log(proc.stderr[-4000:])
            raise BenchError(f"driver exited with {proc.returncode}")
        with open(raw_path) as fh:
            raw = json.load(fh)
        # Load the traces before the work directory goes away.
        for session in raw["sessions"]:
            if session["traced"]:
                with open(session["trace_path"]) as fh:
                    session["spans"] = host_spans(json.load(fh))
        return raw
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.exists(raw_path):
            os.remove(raw_path)


def host_spans(trace):
    """Total host duration (us) and count of each span name."""
    totals = {}
    for event in trace["traceEvents"]:
        if event.get("ph") == "X" and event.get("pid") == 1:
            total, count = totals.get(event["name"], (0.0, 0))
            totals[event["name"]] = (total + event["dur"], count + 1)
    return totals


def fingerprint(raw):
    cache = {}
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as fh:
        for line in fh:
            m = re.match(r"([A-Za-z_0-9]+):[A-Z]+=(.*)", line.rstrip("\n"))
            if m:
                cache[m.group(1)] = m.group(2)
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "hw_concurrency": raw["hw_concurrency"],
        "pool_threads": raw["pool_threads"],
        "compiler": cache.get("CMAKE_CXX_COMPILER", "") + " " +
                    raw["compiler"],
        "build_type": build_type,
        "cxx_flags": (cache.get("CMAKE_CXX_FLAGS", "") + " " +
                      cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(),
                                "")).strip(),
        "geo_check_bounds": raw["geo_check_bounds"],
        "geo_trace": raw["geo_trace"],
    }


def scoped(session, section, name):
    """A registry metric's values in the monolith and every shard scope."""
    pattern = r"(shard[0-9]+\.)?" + re.escape(name)
    return [value for key, value in session["registry"][section].items()
            if re.fullmatch(pattern, key)]


def counter_sum(session, name):
    return sum(scoped(session, "counters", name))


def histogram_sum(session, name, field):
    return sum(h[field] for h in scoped(session, "histograms", name))


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count):
    """The highest whole percentile with at least ten samples beyond it;
    the maximum when there are too few samples for one (quick mode)."""
    for pct in range(99, 49, -1):
        if count - math.ceil(pct / 100.0 * count) >= 10:
            return pct
    return 100


def scaled(ms, kernel_ms):
    """A host timing at the reference kernel's speed."""
    return ms * REFERENCE_KERNEL_MS / kernel_ms


def ratio(num, den):
    return num / den if den else 0.0


def check(raw):
    """Correctness checks; returns (problems, failed session count)."""
    problems = []
    bad_sessions = set()
    digests = {}
    for i, s in enumerate(raw["sessions"]):
        for key in ("gbps", "best_static_gbps"):
            value = s[key]
            if value is None or not math.isfinite(value) or value <= 0:
                problems.append(f"session {i}: {key} = {value}")
                bad_sessions.add(i)
        if s["accesses"] <= 0 or not s["cycle_ms"]:
            problems.append(f"session {i}: no measured work")
            bad_sessions.add(i)
        if s["budget_violations"]:
            problems.append(f"session {i}: {s['budget_violations']} "
                            f"per-device budget violations")
            bad_sessions.add(i)
        if s["trace_dropped"]:
            problems.append(f"session {i}: trace dropped "
                            f"{s['trace_dropped']} events")
            bad_sessions.add(i)
        first = digests.setdefault(s["seed"], (i, s["digest"]))
        if first[1] != s["digest"]:
            problems.append(f"session {i}: decision digest {s['digest']} "
                            f"differs from session {first[0]}'s "
                            f"{first[1]} on the same inputs")
            bad_sessions.add(i)
    return problems, len(bad_sessions)


def end_to_end(raw, details):
    sessions = [s for s in raw["sessions"] if not s["traced"]]
    cycles = [scaled(ms, s["step_kernel_ms"][int(step)])
              for s in sessions
              for ms, step in zip(s["cycle_ms"], s["cycle_step"])]
    measure_ms = sum(scaled(ms, kernel)
                     for s in sessions
                     for ms, kernel in zip(s["step_ms"], s["step_kernel_ms"]))
    per_seed = {s["seed"]: s for s in sessions}
    attempts = applied = 0.0
    for s in per_seed.values():
        applied += counter_sum(s, "control.moves_applied")
        attempts += (counter_sum(s, "control.moves_applied") +
                     counter_sum(s, "control.moves_failed") +
                     counter_sum(s, "control.moves_abandoned"))
    tail = tail_percentile(len(cycles))
    details["cycle_ms_tail"] = (f"p{tail} of {len(cycles)} decision "
                                f"cycles/rounds over {len(sessions)} "
                                f"sessions")
    kernels = [k for s in sessions for k in s["step_kernel_ms"]]
    unscaled = statistics.median(ms for s in sessions for ms in s["cycle_ms"])
    details["reference kernel"] = (
        f"median {statistics.median(kernels):.3f} ms, min "
        f"{min(kernels):.3f} ms over {len(kernels)} steps; host timings "
        f"are scaled to {REFERENCE_KERNEL_MS} ms; unscaled cycle p50 "
        f"{unscaled:.6g} ms")
    return {
        "setup_s": statistics.median(
            scaled(s["setup_s"], s["setup_kernel_ms"]) for s in sessions),
        "accesses_per_s": sum(s["accesses"] for s in sessions) /
                          (measure_ms / 1e3),
        "cycle_ms_p50": statistics.median(cycles),
        "cycle_ms_tail": percentile(cycles, tail),
        "achieved_gbps": statistics.fmean(s["gbps"]
                                          for s in per_seed.values()),
        "gain_vs_best_static": statistics.fmean(
            s["gbps"] / s["best_static_gbps"] for s in per_seed.values()),
        "attempts_per_applied_move": ratio(attempts, applied),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }


def per_layer(raw):
    traced = [s for s in raw["sessions"] if s["traced"]]
    plain = [s for s in raw["sessions"] if not s["traced"]]
    n = len(traced)

    def mean_of(fn):
        return sum(fn(s) for s in traced) / n

    def counter(name):
        return mean_of(lambda s: counter_sum(s, name))

    def span_us(name):
        return sum(s["spans"].get(name, (0.0, 0))[0] for s in traced)

    cycles = sum(s["spans"].get("cycle", (0.0, 0))[1] for s in traced)
    cycle_us = span_us("cycle")
    phases = {p: span_us(p) for p in ("monitor", "train", "propose",
                                      "migrate", "retrain", "predict")}
    rounds = sum(len(s["cycle_ms"]) for s in traced)
    round_ms = sum(ms for s in traced for ms in s["cycle_ms"])
    train_rows = sum(histogram_sum(s, "drl.train_rows", "sum")
                     for s in traced)
    trainings = sum(histogram_sum(s, "drl.train_rows", "count")
                    for s in traced)
    task_ms = sum(histogram_sum(s, "pool.task_ms", "sum") for s in traced)
    tasks = sum(histogram_sum(s, "pool.task_ms", "count") for s in traced)
    measure_s = sum(s["measure_s"] for s in traced)
    vetoes = ("checker.veto_readonly", "checker.veto_capacity",
              "checker.veto_unhealthy", "checker.below_min_gain",
              "geomancy.sanity_vetoes")
    mae = [v for s in traced
           for v in scoped(s, "gauges", "drl.val_mae_pct")]
    sharded = raw["shards"] > 0
    checkpoint_ms = [ms for s in traced for ms in s["checkpoint_ms"]]
    checkpoint_bytes = [b for s in traced for b in s["checkpoint_bytes"]]
    return {
        "workload.run_ms": statistics.median(
            ms for s in traced for ms in s["run_ms"]),
        "workload.accesses": mean_of(lambda s: s["accesses"]),
        "storage.migrated_bytes": mean_of(lambda s: s["bytes_moved"]),
        "monitoring_agent.records": counter("monitor.records_observed"),
        "monitoring_agent.batches": counter("monitor.batches_sent"),
        "replay_db.rows": mean_of(lambda s: s["replay_rows"]),
        "replay_db.file_bytes": mean_of(lambda s: s["replay_file_bytes"]),
        "geomancy.cycle_ms": ratio(cycle_us, cycles) / 1e3,
        "geomancy.monitor_ms": ratio(phases["monitor"], cycles) / 1e3,
        "geomancy.train_ms":
            ratio(phases["train"] - phases["retrain"], cycles) / 1e3,
        "geomancy.propose_ms":
            ratio(phases["propose"] - phases["predict"], cycles) / 1e3,
        "geomancy.migrate_ms": ratio(phases["migrate"], cycles) / 1e3,
        "geomancy.unaccounted_frac": 1.0 - ratio(
            phases["monitor"] + phases["train"] + phases["propose"] +
            phases["migrate"], cycle_us),
        "drl_engine.train_ms": ratio(phases["retrain"], cycles) / 1e3,
        "drl_engine.train_rows": ratio(train_rows, trainings),
        "drl_engine.train_us_per_row_epoch": ratio(
            phases["retrain"], train_rows * raw["epochs"]),
        "drl_engine.predict_ms": ratio(phases["predict"], cycles) / 1e3,
        "drl_engine.score_rows": ratio(
            sum(histogram_sum(s, "drl.score_rows", "sum") for s in traced),
            sum(histogram_sum(s, "drl.score_rows", "count")
                for s in traced)),
        "drl_engine.val_mae_pct": statistics.fmean(mae) if mae else 0.0,
        "drl_engine.rollbacks": counter("drl.train.rollbacks"),
        "thread_pool.tasks": ratio(tasks, n),
        "thread_pool.task_ms": ratio(task_ms, tasks),
        "thread_pool.busy_frac": ratio(
            task_ms, measure_s * 1e3 * raw["pool_threads"]),
        "action_checker.proposed": counter("geomancy.moves_proposed"),
        "action_checker.vetoed": sum(counter(v) for v in vetoes),
        "action_checker.applied_per_proposed": ratio(
            counter("control.moves_applied"),
            counter("geomancy.moves_proposed")),
        "control_agent.moves_requested": counter("control.moves_requested"),
        "control_agent.moves_applied": counter("control.moves_applied"),
        "control_agent.moves_failed": counter("control.moves_failed"),
        "control_agent.retries": counter("control.retries"),
        "guardrails.quarantined": counter("guardrails.quarantined"),
        "guardrails.safe_mode_cycles": counter("guardrails.safe_mode_cycles"),
        "guardrails.deadline_exceeded":
            counter("guardrails.deadline_exceeded"),
        "decision_ledger.rows": mean_of(lambda s: s["ledger_rows"]),
        "decision_ledger.bytes": mean_of(lambda s: s["ledger_bytes"]),
        "checkpoint.write_ms":
            statistics.median(checkpoint_ms) if checkpoint_ms else 0.0,
        "checkpoint.bytes":
            statistics.fmean(checkpoint_bytes) if checkpoint_bytes else 0.0,
        "shard_coordinator.round_ms":
            ratio(round_ms, rounds) if sharded else 0.0,
        "shard_coordinator.shard_cycle_ms_sum":
            ratio(cycle_us / 1e3, rounds) if sharded else 0.0,
        "shard_coordinator.round_parallelism":
            ratio(cycle_us / 1e3, round_ms) if sharded else 0.0,
        "shard_coordinator.moves_denied": counter("coord.moves_denied"),
        "shard_coordinator.peak_device_moves":
            max(s["peak_round_device_moves"] for s in traced),
        "trace.overhead_frac": ratio(
            statistics.fmean(s["measure_s"] for s in traced),
            statistics.fmean(s["measure_s"] for s in plain)) - 1.0,
    }


def main(argv):
    args = parse_args(argv)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        driver = build()
        # The first run in a checkout spends its time building; the run
        # itself still gets its full limit.
        deadline = max(deadline, time.monotonic() + RUN_TIMEOUT_S - 30)
        raw = run_driver(driver, args, deadline)
    except (BenchError, OSError, ValueError, KeyError) as err:
        log(f"perfbench: {err}")
        return 1

    problems, failed_sessions = check(raw)
    details = {}
    if args.trace == "1":
        units = PER_LAYER_UNITS
        values = per_layer(raw)
    else:
        units = END_TO_END_UNITS
        values = end_to_end(raw, details)
    for name, value in values.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {name} = {value}")
    runs_per_session = raw["measured_runs"]
    result = {
        "correct": not problems,
        "attempted": len(raw["sessions"]) * runs_per_session,
        "failed": failed_sessions * runs_per_session,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    fp = fingerprint(raw)
    record = {"schema": "perfbench-result-1", "workload": args.workload,
              "seed": int(args.seed), "trace": int(args.trace),
              "sessions": len(raw["sessions"]),
              "fingerprint": fp, "details": details,
              "problems": problems, **result}
    if not args.quick:
        results_dir = os.path.join(BUILD_DIR, "results")
        os.makedirs(results_dir, exist_ok=True)
        with open(os.path.join(results_dir,
                               f"{args.workload}-seed{args.seed}-"
                               f"trace{args.trace}.json"), "w") as fh:
            json.dump(record, fh, indent=1)

    print(f"fingerprint: {json.dumps(fp, sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}: "
          f"{len(raw['sessions'])} sessions of {raw['warmup_runs']} warmup "
          f"+ {runs_per_session} measured runs in {raw['wall_s']:.1f} s")
    for name, unit in units.items():
        print(f"  {name:40s} {values[name]:16.6g} {unit}")
    for name, text in details.items():
        print(f"  ({name}: {text})")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
