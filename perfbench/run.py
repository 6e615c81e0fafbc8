#!/usr/bin/env python3
"""The repository's benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. It builds perfbench_driver (Release, in
.bench_build/), runs the workload's fixed, seeded op sequence, checks
its outputs and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 they are its per-layer metrics, from a
traced run made after an untraced one of the same seed (their
difference is the tracing overhead). The line before it is the run
record: thread budgets, host probe, guards, labels and the metrics that
only some workloads support. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("synth-fresh", "exec-large", "edit-storm", "serve-mix")
BUILD_DIR = ".bench_build"
DRIVER_TIMEOUT_S = 170
# Cold set-ups per run: the workload run's own and SETUP_RUNS - 1
# set-up-only processes; setup_s is their median.
SETUP_RUNS = 5
# A workload run during which the hypervisor took more than this share
# of the machine's CPU time (steal) is made once more, time allowing,
# and the attempt with less steal is kept. Steal is outside the
# program: on the 4-vCPU VM the benchmark was tuned on, runs with 5-12%
# steal were up to 1.6x slower than runs with the usual < 1%.
STEAL_LIMIT = 0.02
MAX_ATTEMPTS = 2


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(root):
    """Configure (once) and build the driver; returns its path."""
    build_dir = os.path.join(root, BUILD_DIR)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "perfbench_driver", "-j", "4"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench_driver")


def probe(driver):
    """Host probe time (ms), in its own process."""
    done = subprocess.run([driver, "--probe"], stdout=subprocess.PIPE,
                          text=True, timeout=60, check=True)
    return float(done.stdout.strip())


def steal_s():
    """CPU time the hypervisor has taken from the CPUs so far (s),
    from the steal column of /proc/stat; None where there is none."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def run_driver(driver, args, out_dir, deadline, tag):
    """One driver process; tag is "untraced", "traced", "setupN" (a
    set-up-only run) or "untraced-retryN"."""
    trace = tag == "traced"
    name = "%s-%d-%s" % (args.workload, args.seed, tag)
    out = os.path.join(out_dir, name + ".json")
    command = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "1" if trace else "0",
               "--out", out,
               "--setup-only", "1" if tag.startswith("setup") else "0"]
    if trace:
        command += ["--trace-file", os.path.join(out_dir, name + ".trace.json")]
    timeout = max(1.0, deadline - time.monotonic())
    # Anything the program writes to a temporary directory (the serve
    # daemon's metrics op probes for a native compiler) stays in the
    # build tree.
    env = dict(os.environ, TMPDIR=os.path.join(out_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    try:
        done = subprocess.run(command, timeout=timeout, env=env)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %.0f s" % timeout)
    if done.returncode != 0:
        fail("driver exited with %d" % done.returncode)
    with open(out) as handle:
        return json.load(handle)


def end_to_end(result, setups):
    """Every end-to-end metric of one untraced run and its cold set-up
    times, plus the extras."""
    op_ms = result["op_ms"]
    n = len(op_ms)
    metrics = {
        "setup_s": stats.median(setups),
        "ops_per_s": n / (result["phase_ms"] / 1e3),
        "op_p50_ms": stats.percentile(op_ms, 0.50),
        "op_p95_ms": stats.percentile(op_ms, 0.95),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    extras = {"fail_ratio": {"value": result["failed"] / n, "unit": "ratio"}}
    if stats.supports(n, 0.99):
        extras["op_p99_ms"] = {"value": stats.percentile(op_ms, 0.99),
                               "unit": "ms"}
    if result["workload"] == "synth-fresh":
        extras["synth_geomean_ms"] = {
            "value": stats.geomean_of_medians(op_ms, result["op_kind"]),
            "unit": "ms"}
    supported = {"p50": stats.supports(n, 0.5), "p95": stats.supports(n, 0.95),
                 "p99": stats.supports(n, 0.99)}
    return metrics, extras, supported


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")
    trace = args.trace == "1"
    started = time.monotonic()

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("run from the repository root (BENCHMARK.json not found)")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("hecate sources (src/) not found next to perfbench/")
    with open(spec_path) as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    driver = build(root)
    # The 180 s limit of a run starts after the build (a first build
    # in a fresh checkout may take minutes).
    deadline = time.monotonic() + DRIVER_TIMEOUT_S
    out_dir = os.path.join(root, BUILD_DIR, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)

    probe_before = probe(driver)
    steal_before = steal_s()
    # Set-up samples bracket the workload run, so that they span the
    # run's time rather than one stretch of it: a virtual machine's
    # speed can drift over tens of seconds.
    def setup_only(i):
        return run_driver(driver, args, out_dir, deadline,
                          "setup%d" % i)["setup_s"]
    setups = [setup_only(i) for i in range(1, SETUP_RUNS // 2 + 1)]
    attempts = []
    while True:
        started_at, steal_at = time.monotonic(), steal_s()
        result = run_driver(driver, args, out_dir, deadline,
                            "untraced-retry%d" % len(attempts) if attempts
                            else "untraced")
        wall = time.monotonic() - started_at
        steal = steal_s()
        share = (None if steal is None or steal_at is None
                 else (steal - steal_at) / (wall * os.cpu_count()))
        attempts.append({"steal_share": share, "wall_s": wall,
                         "result": result})
        reserve = wall * (2 if trace else 1) + 20
        if (share is None or share <= STEAL_LIMIT
                or len(attempts) == MAX_ATTEMPTS
                or deadline - time.monotonic() < reserve):
            break
    kept = min(range(len(attempts)),
               key=lambda i: attempts[i]["steal_share"] or 0.0)
    untraced = attempts[kept]["result"]
    runs = [a.pop("result") for a in attempts]
    if trace:
        runs.append(run_driver(driver, args, out_dir, deadline, "traced"))
    setups.append(untraced["setup_s"])
    setups += [setup_only(i) for i in range(SETUP_RUNS // 2 + 1, SETUP_RUNS)]
    steal_after = steal_s()
    probe_after = probe(driver)

    e2e, extras, supported = end_to_end(untraced, setups)
    counts = [tuple(c) for r in runs for c in r["counts"]]
    mismatched = stats.determinism_guard(counts)
    trend, drift_ok = stats.drift_guard(untraced["op_ms"], untraced["op_kind"],
                                        bounds["op_p50_ms"])
    attempted = sum(len(r["op_ms"]) for r in runs)
    failed = sum(r["failed"] for r in runs)
    check_failures = sum(r["check_failures"] for r in runs)
    correct = failed == 0 and check_failures == 0 and not mismatched

    if trace:
        traced = runs[-1]
        layers = dict(traced["layers"])
        layers["trace.overhead_ms"] = (
            stats.median(traced["op_ms"]) - stats.median(untraced["op_ms"]))
        names = [m["name"] for m in spec["per_layer"]]
        # A layer this workload does not exercise did no work: 0.
        metrics = {n: {"value": layers.get(n, 0.0), "unit": units[n]}
                   for n in names}
    else:
        metrics = {n: {"value": e2e[n], "unit": units[n]}
                   for n in bounds}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": trace, "ops": len(untraced["op_ms"]), "setup_s": setups,
        "nproc": len(os.sched_getaffinity(0)),
        "hardware_threads": untraced["hardware_threads"],
        "threads": untraced["threads"],
        "host_probe_ms": {"before": probe_before, "after": probe_after},
        "host_steal_s": (None if steal_before is None or steal_after is None
                         else steal_after - steal_before),
        "attempts": attempts, "kept_attempt": kept,
        "percentiles_supported": supported,
        "extra_metrics": extras,
        "determinism_guard": {"ok": not mismatched, "keys": len(set(
            k for k, _ in counts)), "mismatched": mismatched},
        "drift_guard": {"ok": drift_ok, "trend": trend,
                        "bound": bounds["op_p50_ms"]},
        "labels": runs[-1]["labels"],
        "failures": [f for r in runs for f in r["failures"]][:8],
        "wall_s": time.monotonic() - started,
    }
    if not drift_ok:
        print("perfbench: drift guard: %s op time trended %+.1f%% from the "
              "first to the last quarter (bound %.0f%%) - workload defect"
              % (args.workload, 100 * trend, 100 * bounds["op_p50_ms"]),
              file=sys.stderr)
    with open(os.path.join(out_dir, "record-%s-%d-%d.json"
                           % (args.workload, args.seed, trace)), "w") as h:
        json.dump(record, h, indent=1)
    print(json.dumps({"perfbench_record": record}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
