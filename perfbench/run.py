"""Run one benchmark workload (or all four) and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload gaussian-wide --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 1

Every workload runs in fresh worker processes (``worker.py``): one that sets
up and runs closed-loop jobs for ``--seconds``, with a set-up-only worker
before and after it to time set-up.  Each metric is printed as ``workload metric value unit``; the
last line of standard output is the JSON result.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` its per-layer ones.
Full records (jobs, environment, every function's figures, spans) go to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
NAMES = tuple(w["name"] for w in SPEC["workloads"])
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
SETUP_REPEATS = 3  # set-up samples per untraced run, the measuring worker's included
RUN_TIMEOUT_S = 170  # a run must end within 180 s


def _start_worker(name, seed, workdir, extra):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
           "--seed", str(seed), "--workdir", workdir, *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    return proc, t0


def _await_ready(proc, t0):
    line = proc.stdout.readline()
    if line.strip() != "ready":
        raise RuntimeError(f"worker failed during set-up: {line!r}")
    return time.perf_counter() - t0


def _finish(proc, deadline):
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return out


def _dataset_mean(jobs, key):
    """Mean over the run's datasets of each dataset's median over passes."""
    by_dataset = {}
    for job in jobs:
        by_dataset.setdefault(job["dataset"], []).append(job[key])
    return statistics.fmean(statistics.median(v) for v in by_dataset.values())


def run_workload(name, seed, seconds, trace):
    """Set up SETUP_REPEATS times (once when traced), measure once; returns the record.

    The set-up-only workers run half before and half after the measuring one,
    so that the samples span the run rather than one moment of the host.
    """
    workdir = os.path.join(ROOT, ".bench_run", f"{name}-s{seed}-{os.getpid()}")
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setup = []

    def setup_only(count):
        for _ in range(count):
            proc, t0 = _start_worker(name, seed, workdir, ["--setup-only"])
            try:
                setup.append(_await_ready(proc, t0))
            finally:
                _finish(proc, deadline)

    extra = 0 if trace else SETUP_REPEATS - 1
    try:
        setup_only(extra // 2)
        proc, t0 = _start_worker(
            name, seed, workdir, ["--seconds", str(seconds), "--trace", str(trace)]
        )
        try:
            setup.append(_await_ready(proc, t0))
        finally:
            out = _finish(proc, deadline)
        setup_only(extra - extra // 2)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = json.loads(out.strip().splitlines()[-1])
    jobs = record["jobs"]
    record["setup_s_samples"] = setup
    record["failed"] = sum(1 for j in jobs if j["errors"])
    record["attempted"] = len(jobs)
    if trace:
        layers = record.pop("layers")
        # a function the workload never calls has no spans: it reads 0
        record["metrics"] = {m["name"]: layers.get(m["name"], 0) for m in SPEC["per_layer"]}
        record["all_layers"] = layers
    else:
        ok = [j for j in jobs if not j["errors"]] or [j for j in jobs if math.isfinite(j["wall_s"])]
        if not ok:
            raise RuntimeError("every job raised; nothing was measured")
        record["metrics"] = {
            "wall_s": _dataset_mean(ok, "wall_s"),
            "fit_s": _dataset_mean(ok, "fit_s"),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": record["peak_rss_mb"],
            "pred_error": _dataset_mean(ok, "pred_error"),
        }
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    path = os.path.join(ROOT, ".bench_out", f"{name}-s{seed}-t{trace}.json")
    with open(path, "w") as fh:
        json.dump(dict(workload=name, **record), fh)
    return record


def _report(name, record):
    for j in record["jobs"]:
        for err in j["errors"]:
            print(f"{name} FAILED CHECK: {err}", file=sys.stderr)
    print(f"{name} env {json.dumps(record['env'], sort_keys=True)}")
    print(f"{name} fail_rate {record['failed']}/{record['attempted']} jobs failed")
    for metric, value in record["metrics"].items():
        print(f"{name} {metric} {value:.6g} {UNITS[metric]}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ecpc", "__init__.py")):
        print(f"error: no ecpc sources under {ROOT}/src", file=sys.stderr)
        return 2

    names = NAMES if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        try:
            record = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1
        _report(name, record)
        attempted += record["attempted"]
        failed += record["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, value in record["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": UNITS[metric]}
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
