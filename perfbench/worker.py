"""One workload in one fresh process: set up, then run closed-loop jobs.

Started by ``run.py``.  Prints ``ready`` once the inputs exist, so the parent
can time set-up from process start, then (unless ``--setup-only``) runs jobs
one after another and prints one JSON line with the jobs, the environment
record and, when traced, every function's per-layer figures and the spans.
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = "1"
# pinned before numpy is imported; ECPC_THREADS keeps the CLI's own pool off
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "ECPC_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

CV_GRID_POINTS = 50  # estimate_global_variance's default penalty grid

def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        # the ceiling keeps git from finding a repository above the checkout
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "git_commit": commit,
        "seed": seed,
    }


def one_job(inp, outdir):
    """Run a job; an exception counts as a failed job, not a crashed run."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = workloads.run_job(inp, outdir)
    except Exception:
        res = workloads.JobResult(float("nan"), float("nan"), float("nan"))
        res.errors.append(traceback.format_exc(limit=3))
    shutil.rmtree(outdir, ignore_errors=True)
    return {
        "dataset": inp["dataset"], "wall_s": res.wall_s, "fit_s": res.fit_s,
        "select_s": res.select_s, "pred_error": res.pred_error, "errors": res.errors,
    }


def closed_loop(seconds, step):
    """Call ``step`` back to back while the next call should end within ``seconds``."""
    results = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(step(len(results)))
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > seconds:
            return results


def layer_metrics(spans, n_jobs, cfg):
    """Per job: ``m.f.s``, ``m.f.self_s`` and ``m.f.calls`` of every traced
    function, plus the global-variance CV's Newton steps per fit."""
    table = tracing.layer_table(spans)
    table.pop("job", None)
    out = {
        f"{name}.{field}": value / n_jobs
        for name, row in table.items()
        for field, value in row.items()
    }
    steps = sum(
        1 for i, s in enumerate(spans)
        if s[0] == "glm.solve_penalized_system"
        and tracing.has_ancestor(spans, i, "glm.estimate_global_variance")
    ) / n_jobs
    fits = CV_GRID_POINTS * cfg.get("cv_folds", 0)  # one warm-started path per fold
    out["glm.cv_newton_steps"] = steps
    out["glm.cv_fits"] = fits
    out["glm.cv_newton_steps_per_fit"] = steps / fits if fits else 0.0
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    inputs = workloads.generate(args.workload, args.seed, workdir=args.workdir)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    def job_pass(i):
        """One job on each of the run's datasets."""
        return [
            one_job(inp, os.path.join(args.workdir, f"out{i}-{inp['dataset']}"))
            for inp in inputs
        ]

    result = {"env": environment(args.seed)}
    if not args.trace:
        result["jobs"] = [job for p in closed_loop(args.seconds, job_pass) for job in p]
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        tracer = tracing.Tracer()

        def pair(i):
            plain = job_pass(2 * i)
            tracer.run_id = i
            with tracer:
                tracer.open("job")
                try:
                    traced = job_pass(2 * i + 1)
                finally:
                    tracer.close()
            return plain, traced

        pairs = closed_loop(args.seconds, pair)
        plain = [job for p in pairs for job in p[0]]
        traced = [job for p in pairs for job in p[1]]
        result["jobs"] = plain + traced
        layers = layer_metrics(tracer.spans, len(traced), inputs[0]["cfg"])
        layers["select_s"] = statistics.fmean(j["select_s"] for j in plain)
        layers["trace.overhead_frac"] = (
            statistics.fmean(j["wall_s"] for j in traced)
            / statistics.fmean(j["wall_s"] for j in plain) - 1.0
        )
        result["layers"] = layers
        result["spans"] = tracer.spans
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
