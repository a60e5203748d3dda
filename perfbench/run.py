#!/usr/bin/env python3
"""flowery's benchmark of record.

Run from the repository root:

    python3 perfbench/run.py --workload campaign-native --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

The first call builds `perfbench` (the Rust package next to this file) into
`$CARGO_TARGET_DIR` (default `.bench_build`). A run then

* builds the workload's untimed inputs (diff-edit's baseline checkpoint);
* repeats the workload, each repetition in a fresh `perfbench rep` process,
  until `--seconds` have passed and at least three repetitions ran;
* re-executes a seeded sample of the recorded work on the reference path
  (`perfbench verify`) and checks that every repetition wrote the same
  result bytes;
* with `--trace 1`, runs one traced repetition, which must write the same
  bytes again, and reports the per-layer metrics; its spans are written as
  Chrome trace-event JSON to `.bench_out/<workload>-seed<seed>.trace.json`.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object: the end-to-end metrics (medians over the
repetitions) with `--trace 0`, the per-layer metrics with `--trace 1`.
The exit code is nonzero when a correctness check failed or the run could
not be made. `--workload all` runs every workload with `--trace 1` and
prints both sets of metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# BENCHMARK.json, next to this directory, declares the workloads and every
# metric (name -> unit).
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
    DECLARED = json.load(f)
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}

# Counters that vary with thread interleaving: reported as their observed
# min and max over the untraced repetitions of the run, never pinned.
VARYING = {
    "snap_captures": "cache.snap_captures",
    "jit_programs": "backend.jit_programs",
    "trials_run": "harness.trials_run",
}

MIN_REPS = 3
# The repetition loop starts no new repetition after this long.
REPS_DEADLINE_S = 60.0
# A run gives up (killing its child, printing no result) this long after
# the build, so that it always ends within three minutes.
RUN_BUDGET_S = 165.0


class BenchError(Exception):
    pass


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"[perfbench] check failed: {what}", file=sys.stderr)

    def add(self, out):
        self.attempted += out["attempted"]
        self.failed += out["failed"]


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path",
           os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, env=env).returncode != 0:
        raise BenchError("building perfbench failed")
    return os.path.join(target, "release", "perfbench")


def child(binary, args, logdir, deadline):
    """Run one perfbench process, killing it at `deadline`; returns (parsed
    last stdout line, peak RSS in MB). Its output goes to files so that no
    pipe can fill up."""
    os.makedirs(logdir, exist_ok=True)
    out_path, err_path = os.path.join(logdir, "stdout"), os.path.join(logdir, "stderr")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        proc = subprocess.Popen([binary] + args, stdout=out, stderr=err)
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                raise BenchError(f"perfbench {args[0]} ran out of the run's time budget")
            time.sleep(0.02)
    except BaseException:
        # Timed out or interrupted: never leave the child running.
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path) as f:
        sys.stderr.write(f.read())
    with open(out_path) as f:
        lines = f.read().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"perfbench {args[0]} failed with exit code {proc.returncode}")
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def run_workload(binary, workload, seed, seconds, trace):
    """One benchmark run; returns (metrics, checks, repetitions run)."""
    checks = Checks()
    deadline = time.monotonic() + RUN_BUDGET_S
    work = os.path.abspath(os.path.join(".bench_work", f"{workload}-{os.getpid()}"))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = ["--workload", workload, "--seed", str(seed)]
    try:
        if workload == "diff-edit":
            fixture, _ = child(binary, ["fixture"] + common + ["--dir", work], os.path.join(work, "fixture"),
                               deadline)
            checks.add(fixture)
            common += ["--baseline", fixture["baseline"]]

        reps, rss, digests = [], [], []
        first_result = None
        start = time.monotonic()
        while len(reps) < MIN_REPS or time.monotonic() - start < seconds:
            if time.monotonic() - start > REPS_DEADLINE_S:
                break
            rdir = os.path.join(work, f"rep{len(reps)}")
            try:
                out, peak = child(binary, ["rep"] + common + ["--dir", rdir], rdir, deadline)
            except BenchError as e:
                checks.check(False, f"repetition {len(reps)}: {e}")
                break
            checks.add(out)
            reps.append(out)
            rss.append(peak)
            digests.append(digest(out["result"]))
            if first_result is None:
                first_result = out["result"]
            else:
                shutil.rmtree(rdir)
        for i, d in enumerate(digests[1:], 1):
            checks.check(d == digests[0], f"repetition {i} wrote a different result than repetition 0")
        if not reps:
            raise BenchError("no repetition completed")

        verify, _ = child(binary, ["verify"] + common + ["--result", first_result], os.path.join(work, "verify"),
                          deadline)
        checks.add(verify)

        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            "setup_s": statistics.median(r["setup_s"] for r in reps),
            "peak_rss_mb": statistics.median(rss),
        }
        if trace:
            os.makedirs(".bench_out", exist_ok=True)
            trace_file = os.path.abspath(os.path.join(".bench_out", f"{workload}-seed{seed}.trace.json"))
            tdir = os.path.join(work, "trace")
            traced, _ = child(binary, ["trace"] + common + ["--dir", tdir, "--trace-out", trace_file], tdir,
                              deadline)
            checks.add(traced)
            checks.check(digest(traced["result"]) == digests[0],
                         "the traced run wrote a different result than the untraced runs")
            layer = dict(traced["metrics"])
            undeclared = set(layer) - set(PER_LAYER)
            checks.check(not undeclared, f"traced run reported undeclared metrics {sorted(undeclared)}")
            # A layer with no span in this workload has no self time.
            for name in PER_LAYER:
                if name.startswith("self."):
                    layer.setdefault(name, 0.0)
            for key, name in VARYING.items():
                layer[f"{name}_min"] = min(r[key] for r in reps)
                layer[f"{name}_max"] = max(r[key] for r in reps)
            layer["cache.dup_captures"] = layer["cache.snap_captures_max"] - traced["distinct_sets"] \
                if layer["cache.snap_captures_max"] else 0
            layer["trace.overhead_s"] = traced["wall_s"] - metrics["wall_s"]
            metrics.update(layer)
            missing = set(PER_LAYER) - set(layer)
            checks.check(not missing, f"traced run did not report {sorted(missing)}")
        return metrics, checks, len(reps)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_metrics(workload, metrics, names):
    for name, unit in names.items():
        print(f"{workload:<16} {name:<26} {metrics[name]:>16.6g} {unit}")


def print_checks(workload, checks, reps):
    frac = checks.failed / checks.attempted if checks.attempted else 1.0
    print(f"{workload:<16} {'failed_frac':<26} {frac:>16.6g} ratio "
          f"({checks.failed} of {checks.attempted} checks, {reps} repetitions)")


def main():
    # A terminated run stops its child and removes its scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description="flowery's benchmark of record")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be a nonnegative integer")

    try:
        binary = build()
        if args.workload == "all":
            # A traced run also reports the untraced repetitions' medians.
            total, result = Checks(), {}
            for w in WORKLOADS:
                metrics, checks, reps = run_workload(binary, w, args.seed, args.seconds, 1)
                names = {**END_TO_END, **PER_LAYER}
                print_metrics(w, metrics, names)
                print_checks(w, checks, reps)
                total.attempted += checks.attempted
                total.failed += checks.failed
                for name, unit in names.items():
                    result[f"{w}/{name}"] = {"value": metrics[name], "unit": unit}
            checks = total
        else:
            metrics, checks, reps = run_workload(binary, args.workload, args.seed, args.seconds, args.trace)
            names = PER_LAYER if args.trace else END_TO_END
            if args.trace:
                print_metrics(args.workload, metrics, END_TO_END)
            print_metrics(args.workload, metrics, names)
            print_checks(args.workload, checks, reps)
            result = {name: {"value": metrics[name], "unit": unit} for name, unit in names.items()}
    except BenchError as e:
        print(f"[perfbench] error: {e}", file=sys.stderr)
        return 2
    correct = checks.failed == 0
    print(json.dumps({"correct": correct, "attempted": checks.attempted, "failed": checks.failed,
                      "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
