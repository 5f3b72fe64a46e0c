"""Self-tests of the benchmark: tracer bindings, span arithmetic, checks.

Run from the repository root with ``PYTHONPATH=src python -m pytest perfbench/tests``.
"""

import inspect
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import ecpc  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _ecpc_functions():
    """Every function object bound in any ecpc module, by (module, attribute)."""
    return {
        (name, attr): obj
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "ecpc" or name.startswith("ecpc."))
        for attr, obj in vars(mod).items()
        if inspect.isfunction(obj)
    }


def test_tracer_rebinds_every_alias_and_restores_it(tmp_path):
    original = ecpc.glm.fit_weighted_ridge
    before = _ecpc_functions()
    inp = workloads.generate("gaussian-wide", 0, "toy")[0]
    tr = tracer.Tracer()
    with tr:
        assert ecpc.estimator.fit_weighted_ridge is ecpc.glm.fit_weighted_ridge
        assert ecpc.glm.fit_weighted_ridge is not original
        res = workloads.run_job(inp, str(tmp_path))
    assert not res.errors
    assert ecpc.estimator.fit_weighted_ridge is ecpc.glm.fit_weighted_ridge
    assert ecpc.glm.fit_weighted_ridge is original
    assert _ecpc_functions() == before

    table = tracer.layer_table(tr.spans)
    # the estimator's calls, made through its own binding, were seen
    assert table["glm.fit_weighted_ridge"]["calls"] == 2
    assert table["mom.build_split_systems"]["calls"] == 10
    fit = [i for i, s in enumerate(tr.spans) if s[0] == "estimator.fit_ecpc"]
    assert len(fit) == 1
    assert all(
        tracer.has_ancestor(tr.spans, i, "estimator.fit_ecpc")
        for i, s in enumerate(tr.spans)
        if s[0] == "glm.estimate_global_variance"
    )


def test_layer_table_self_time_on_hand_built_tree():
    spans = [
        ["a", 0.0, 10.0, -1, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["c", 5.0, 9.0, 0, 0],
        ["b", 6.0, 7.0, 2, 0],
        ["b", 6.2, 6.5, 3, 0],  # b nested in itself
        ["a", 20.0, 21.0, -1, 1],
    ]
    table = tracer.layer_table(spans)
    assert table["a"] == {"s": pytest.approx(11.0), "self_s": pytest.approx(4.0), "calls": 2}
    assert table["c"] == {"s": pytest.approx(4.0), "self_s": pytest.approx(3.0), "calls": 1}
    # inclusive time is the union of b's spans; self time excludes the nested b
    assert table["b"]["s"] == pytest.approx(4.0)
    assert table["b"]["self_s"] == pytest.approx(3.0 + 0.7 + 0.3)
    assert table["b"]["calls"] == 3


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_passes_its_checks_at_toy_size(name, tmp_path):
    for inp in workloads.generate(name, 0, "toy", workdir=str(tmp_path / "in")):
        res = workloads.run_job(inp, str(tmp_path / f"out{inp['dataset']}"))
        assert res.errors == []
        assert math.isfinite(res.pred_error) and 0 < res.pred_error < 1.5
        assert 0 < res.fit_s <= res.wall_s


def test_same_seed_same_inputs():
    a = workloads.generate("codata-hier", 3, "toy")[0]
    b = workloads.generate("codata-hier", 3, "toy")[0]
    c = workloads.generate("codata-hier", 4, "toy")[0]
    assert np.array_equal(a["y"], b["y"]) and np.array_equal(a["annotation"], b["annotation"])
    assert not np.array_equal(a["y"], c["y"])
    assert not np.array_equal(a["annotation"], c["annotation"])
    # codata-hier's design is part of the workload, the other designs are drawn
    assert np.array_equal(a["X"], c["X"])
    d = workloads.generate("binomial-cv", 3, "toy")[0]
    e = workloads.generate("binomial-cv", 4, "toy")[0]
    assert not np.array_equal(d["X"], e["X"])


def test_checks_reject_a_wrong_fit_and_a_wrong_count():
    inp = workloads.generate("binomial-cv", 0, "toy")[0]
    resp = ecpc.ResponseFamily.binomial(inp["y"])
    codata = [ecpc.Grouping(groups=tuple(map(tuple, inp["groups"])), p=inp["X"].shape[1])]
    model = ecpc.fit_ecpc(inp["X"], resp, codata, intercept=True)
    assert workloads.check_model(model, inp["X"], resp) == []
    model.beta[0] += 0.1
    assert workloads.check_model(model, inp["X"], resp)
    sel = ecpc.select_credible(model, inp["X"], resp, 3)
    assert workloads.check_selection(sel, 3) == []
    assert workloads.check_selection(sel, 4)


def test_benchmark_json_names_what_the_runner_reports():
    assert tuple(w["name"] for w in SPEC["workloads"]) == workloads.NAMES
    assert [m["name"] for m in SPEC["end_to_end"]] == [
        "wall_s", "fit_s", "setup_s", "peak_rss_mb", "pred_error"
    ]
    derived = {
        "glm.cv_newton_steps", "glm.cv_fits", "glm.cv_newton_steps_per_fit",
        "select_s", "trace.overhead_frac",
    }
    for m in SPEC["per_layer"]:
        if m["name"] in derived:
            continue
        layer, func, field = m["name"].split(".")
        assert layer in tracer.LAYERS and field in ("s", "self_s", "calls")
        assert inspect.isfunction(getattr(sys.modules[f"ecpc.{layer}"], func))


def test_runner_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cox-cli", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
