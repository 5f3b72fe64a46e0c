"""The four benchmark workloads: input generation, the timed job, output checks.

Each workload run draws its datasets from ``numpy.random.default_rng([index,
seed, dataset])`` and hands the library only the generated arrays (or, for
``cox-cli``, the CSV and JSON files written at set-up).  A job is what a user
waits for: the fit and the selection calls, or the whole CLI command.  Checks
and the held-out prediction error are computed afterwards, outside the timed
region, by code of this file; it uses the library only for its data classes
and, in the round-trip check, its JSON functions.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

import ecpc
import ecpc.cli

NAMES = ("gaussian-wide", "binomial-cv", "codata-hier", "cox-cli")

# Problem sizes that define each workload.  ``datasets`` is how many
# independent samples one run fits: a run's figures are means over them, which
# narrows their spread across seeds.  ``toy`` sizes exist only for the
# self-tests, which run every check on them.
SIZES = {
    "full": {
        "gaussian-wide": dict(n=150, p=8000, groups=40, datasets=1),
        "binomial-cv": dict(n=100, p=2000, groups=20, select=25, cv_folds=10, datasets=2),
        "codata-hier": dict(
            n=200, p=200, groups=20, min_group_size=40, select=25, datasets=3
        ),
        "cox-cli": dict(n=100, p=200, groups=10, select=20, cv_folds=5, datasets=2),
    },
    "toy": {
        "gaussian-wide": dict(n=40, p=200, groups=4),
        "binomial-cv": dict(n=60, p=60, groups=4, select=5, cv_folds=10, datasets=2),
        "codata-hier": dict(n=100, p=100, groups=10, min_group_size=25, select=5),
        "cox-cli": dict(n=50, p=40, groups=4, select=5, cv_folds=3),
    },
}

N_TEST = 500  # held-out samples per dataset, for pred_error
# Co-expressed groups, as in omics data.  With independent covariates at
# p >> n the gaussian marginal likelihood often puts sigma2 near zero (see
# README, known defect 3), and the final fit then misses the score check.
WITHIN_GROUP_CORR = 0.5
FIXED_STREAM = 2**32 - 1  # keeps the workload's fixed draws apart from every seed's
TAU_LOCAL_FLOOR = 1e-6  # the floor fit_ecpc applies before its final fit


@dataclass
class JobResult:
    wall_s: float
    fit_s: float
    select_s: float
    errors: list = field(default_factory=list)
    pred_error: float = float("nan")


# ---------------------------------------------------------------------------
# input generation


def _equal_groups(p, G):
    return [list(range(g * p // G, (g + 1) * p // G)) for g in range(G)]


def _scaled(beta, signal_var):
    """Rescale to the signal variance ``|beta|^2 = signal_var``."""
    return beta * np.sqrt(signal_var / (beta @ beta))


def _informative_beta(rng, p, G, signal_var):
    """Coefficients whose variance decays over equal contiguous groups."""
    group_sd = np.repeat(np.exp(-np.arange(G) / (G / 2.0)), p // G)
    return _scaled(rng.normal(0.0, group_sd), signal_var)


def _design(rng, n, p, G=None):
    """Standard-normal covariates; with ``G`` groups, equicorrelated within a group."""
    X = rng.standard_normal((n, p))
    if G is None:
        return X
    factors = np.repeat(rng.standard_normal((n, G)), p // G, axis=1)
    return np.sqrt(WITHIN_GROUP_CORR) * factors + np.sqrt(1.0 - WITHIN_GROUP_CORR) * X


def generate(name, seed, size="full", workdir=None):
    """The ``datasets`` inputs of one workload run, all drawn from ``seed``.

    ``workdir`` receives the files of ``cox-cli``, one directory per dataset.
    """
    cfg = SIZES[size][name]
    return [
        _dataset(name, cfg, seed, k, workdir and os.path.join(workdir, f"d{k}"))
        for k in range(cfg.get("datasets", 1))
    ]


def _dataset(name, cfg, seed, k, workdir):
    # The true coefficients (and codata-hier's design) are fixed per workload;
    # the seed draws the rest of each sample (design, noise, censoring,
    # annotation noise, partition), so every seed poses the same problem.
    fixed_rng = np.random.default_rng([NAMES.index(name), FIXED_STREAM])
    rng = np.random.default_rng([NAMES.index(name), seed, k])
    n, p, G, m = cfg["n"], cfg["p"], cfg["groups"], N_TEST
    inp = {"name": name, "cfg": cfg, "seed": seed, "dataset": k}

    if name == "gaussian-wide":
        beta = _informative_beta(fixed_rng, p, G, signal_var=1.0)
        X = _design(rng, n + m, p, G)
        y = X @ beta + rng.standard_normal(n + m)
        inp.update(groups=_equal_groups(p, G))
    elif name == "binomial-cv":
        beta = _informative_beta(fixed_rng, p, G, signal_var=4.0)
        X = _design(rng, n + m, p, G)
        y = (rng.random(n + m) < expit(X @ beta)).astype(float)
        inp.update(groups=_equal_groups(p, G))
    elif name == "codata-hier":
        beta = _scaled(fixed_rng.standard_normal(p), signal_var=4.0)
        # A fixed design: the cost of each FISTA solve follows the conditioning
        # of X.  With X drawn per seed the per-dataset fit time varied about
        # twice as much (coefficient of variation 0.12 against 0.066 over 8
        # seeds), far more than the other workloads' fit times do.
        X = _design(fixed_rng, n + m, p)
        y = X @ beta + rng.standard_normal(n + m)
        inp.update(
            annotation=np.abs(beta) + rng.normal(0.0, 0.1, p),
            partition=np.array_split(rng.permutation(p), G),
        )
    else:
        beta = _informative_beta(fixed_rng, p, G, signal_var=1.0)
        X = _design(rng, n + m, p, G)
        event = rng.exponential(1.0, n + m) / np.exp(X @ beta)
        censor = rng.exponential(2.0, n + m)
        times = np.minimum(event, censor)
        status = (event <= censor).astype(float)
        inp.update(
            times=times[:n], status=status[:n], times_test=times[n:], status_test=status[n:]
        )
        inp["files"] = _write_cox_files(
            workdir, X[:n], times[:n], status[:n], _equal_groups(p, G)
        )
        y = None
    inp["X"], inp["X_test"] = X[:n], X[n:]
    if y is not None:
        inp["y"], inp["y_test"] = y[:n], y[n:]
    return inp


def _write_cox_files(workdir, X, times, status, groups):
    os.makedirs(workdir, exist_ok=True)
    files = {k: os.path.join(workdir, f) for k, f in
             (("x", "X.csv"), ("y", "y.csv"), ("codata", "groups.json"))}
    with open(files["x"], "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow([f"x{j + 1}" for j in range(X.shape[1])])
        wr.writerows([[repr(float(v)) for v in row] for row in X])
    with open(files["y"], "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["time", "status"])
        wr.writerows([[repr(float(t)), int(s)] for t, s in zip(times, status)])
    with open(files["codata"], "w") as fh:
        json.dump({f"g{g + 1}": [j + 1 for j in idx] for g, idx in enumerate(groups)}, fh)
    return files


# ---------------------------------------------------------------------------
# jobs


def run_job(inp, outdir):
    """One closed-loop job; returns its timings and the outputs to check."""
    if inp["name"] == "cox-cli":
        return _cli_job(inp, outdir)
    return _library_job(inp)


def _library_job(inp):
    name, cfg, X = inp["name"], inp["cfg"], inp["X"]
    t0 = time.perf_counter()
    if name == "gaussian-wide":
        resp = ecpc.ResponseFamily.gaussian(inp["y"])
        codata = [ecpc.Grouping(groups=tuple(map(tuple, inp["groups"])), p=X.shape[1])]
        kwargs = dict(hyper="ridge")
    elif name == "binomial-cv":
        resp = ecpc.ResponseFamily.binomial(inp["y"])
        codata = [ecpc.Grouping(groups=tuple(map(tuple, inp["groups"])), p=X.shape[1])]
        kwargs = dict(intercept=True, n_folds=cfg["cv_folds"])
    else:
        resp = ecpc.ResponseFamily.gaussian(inp["y"])
        hier, _tree = ecpc.codata.build_hierarchy_from_continuous(
            inp["annotation"], min_group_size=cfg["min_group_size"], name="annotation"
        )
        part = ecpc.Grouping(
            groups=tuple(tuple(g.tolist()) for g in inp["partition"]),
            p=X.shape[1], name="partition",
        )
        codata = [hier, part]
        kwargs = dict(hyper=["hierarchical_lasso", "lasso"])
    t_fit = time.perf_counter()
    model = ecpc.estimator.fit_ecpc(X, resp, codata, **kwargs)
    t_sel = time.perf_counter()
    selections = []
    if "select" in cfg:
        k = cfg["select"]
        selections = [
            (k, ecpc.selection.select_l1(model, X, resp, k)),
            (k, ecpc.selection.select_credible(model, X, resp, k)),
        ]
    t1 = time.perf_counter()
    res = JobResult(wall_s=t1 - t0, fit_s=t_sel - t_fit, select_s=t1 - t_sel)
    res.errors += check_model(model, X, resp)
    for k, sel in selections:
        res.errors += check_selection(sel, k)
    res.pred_error = prediction_error(model, inp)
    return res


class _Timed:
    """Time the calls the CLI makes through one of its module bindings."""

    def __init__(self, attr):
        self.attr, self.seconds = attr, 0.0

    def __enter__(self):
        self.inner = getattr(ecpc.cli, self.attr)

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return self.inner(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - t0

        setattr(ecpc.cli, self.attr, timed)
        return self

    def __exit__(self, *exc):
        setattr(ecpc.cli, self.attr, self.inner)


def _cli_job(inp, outdir):
    cfg, files = inp["cfg"], inp["files"]
    argv = [
        "--command", "fit", "--family", "cox",
        "--x", files["x"], "--y", files["y"], "--codata", files["codata"],
        "--folds", str(cfg["cv_folds"]), "--seed", str(inp["seed"]),
        "--select", f"l1:{cfg['select']}:dense", "--out", outdir,
    ]
    with _Timed("fit_ecpc") as fit, _Timed("select_l1") as sel:
        t0 = time.perf_counter()
        rc = ecpc.cli.main(argv)
        t1 = time.perf_counter()
    res = JobResult(wall_s=t1 - t0, fit_s=fit.seconds, select_s=sel.seconds)
    if rc != 0:
        res.errors.append(f"cli exited {rc}")
        return res
    errors, model = check_cli_outputs(inp, outdir)
    res.errors += errors
    if model is not None:
        res.pred_error = prediction_error(model, inp)
    return res


# ---------------------------------------------------------------------------
# checks


def _cox_risk_sums(times, lp):
    """Breslow risk-set sums ``sum_{t_j >= t_i} exp(lp_j)`` for every sample."""
    order = np.argsort(times, kind="stable")
    suffix = np.cumsum(np.exp(lp[order])[::-1])[::-1]
    first = np.searchsorted(times[order], times, side="left")
    return suffix[first]


def _cox_cumhaz(times, status, lp):
    risk = _cox_risk_sums(times, lp)
    inc = np.where(status > 0, 1.0 / risk, 0.0)
    # H0(t_i) = sum of increments at event times <= t_i
    order = np.argsort(times, kind="stable")
    cum = np.cumsum(inc[order])
    last = np.searchsorted(times[order], times, side="right") - 1
    return cum[last]


def penalised_score(model, X, y=None, times=None, status=None):
    """Max-norm of the penalised score at the fit and the penalised objective."""
    keep = model.tau_local > 0
    omega = 1.0 / (model.tau_global * np.maximum(model.tau_local[keep], TAU_LOCAL_FLOOR))
    beta = model.beta[keep]
    lp = X @ model.beta + model.intercept
    if model.family == "gaussian":
        resid = (y - lp) / model.sigma2
        loglik = -0.5 * float((y - lp) @ (y - lp)) / model.sigma2 - 0.5 * len(y) * np.log(
            2 * np.pi * model.sigma2
        )
    elif model.family == "binomial":
        resid = y - expit(lp)
        loglik = float(y @ lp - np.logaddexp(0.0, lp).sum())
    else:
        resid = status - _cox_cumhaz(times, status, lp) * np.exp(lp)
        loglik = float(status @ (lp - np.log(_cox_risk_sums(times, lp))))
    grad = X[:, keep].T @ resid - omega * beta
    if model.has_intercept:
        grad = np.append(grad, resid.sum())
    objective = loglik - 0.5 * float(beta @ (omega * beta))
    return float(np.max(np.abs(grad))), objective


def check_model(model, X, resp):
    errors = []
    score, objective = penalised_score(
        model, X, y=resp.y, times=resp.times, status=resp.status
    )
    # fit_weighted_ridge accepts a gradient below 1e-5 * (1 + |objective|)
    if not score <= 1e-5 * (1.0 + abs(objective)):
        errors.append(f"penalised score {score:.3g} not zero at the final fit")
    for d, g in enumerate(model.gammas):
        if not (np.isfinite(g).all() and (g >= 0).all()):
            errors.append(f"gammas of source {d} not finite and non-negative")
    if not (np.isfinite(model.w).all() and (model.w >= 0).all()):
        errors.append("source weights w not finite and non-negative")
    return errors


def check_selection(sel, k):
    errors = []
    if len(sel.selected) != k or len(np.unique(sel.selected)) != k:
        errors.append(f"{sel.method} selected {len(sel.selected)} covariates, wanted {k}")
    outside = np.setdiff1d(np.flatnonzero(sel.beta), sel.selected)
    if outside.size:
        errors.append(f"{sel.method} refit has {outside.size} non-zero unselected covariates")
    return errors


def check_cli_outputs(inp, outdir):
    errors = []
    for f in ("model.json", "group_weights.csv", "fit.log", "selection.csv"):
        if not os.path.isfile(os.path.join(outdir, f)):
            errors.append(f"cli wrote no {f}")
    if errors:
        return errors, None
    with open(os.path.join(outdir, "model.json")) as fh:
        doc = json.load(fh)
    model = ecpc.model_from_json(json.dumps(doc))
    doc.pop("feature_names", None)
    if json.loads(ecpc.model_to_json(model)) != doc:
        errors.append("model.json does not round-trip through model_from_json")
    resp = ecpc.ResponseFamily.cox(inp["times"], inp["status"])
    errors += check_model(model, inp["X"], resp)
    with open(os.path.join(outdir, "selection.csv"), newline="") as fh:
        sel_rows = list(csv.reader(fh))[1:]
    k = inp["cfg"]["select"]
    if len(sel_rows) != k or len({r[0] for r in sel_rows}) != k:
        errors.append(f"selection.csv has {len(sel_rows)} rows, wanted {k}")
    return errors, model


def _auc(scores, labels):
    """Area under the ROC curve from average ranks (ties count half)."""
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    first = np.searchsorted(sorted_scores, sorted_scores, side="left")
    last = np.searchsorted(sorted_scores, sorted_scores, side="right")
    ranks[order] = 0.5 * (first + last + 1)
    pos = labels == 1
    n_pos, n_neg = pos.sum(), (~pos).sum()
    return (ranks[pos].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)


def _harrell_c(risk, times, status):
    """Harrell's C over pairs whose earlier time is an event (risk ties count half)."""
    earlier = (times[:, None] < times[None, :]) & (status[:, None] > 0)
    conc = (risk[:, None] > risk[None, :]) & earlier
    ties = (risk[:, None] == risk[None, :]) & earlier
    return (conc.sum() + 0.5 * ties.sum()) / earlier.sum()


def prediction_error(model, inp):
    """Held-out error: MSE / null MSE, 1 - AUC or 1 - Harrell's C."""
    lp = inp["X_test"] @ model.beta + model.intercept
    if model.family == "gaussian":
        y, y_tr = inp["y_test"], inp["y"]
        return float(np.mean((y - lp) ** 2) / np.mean((y - y_tr.mean()) ** 2))
    if model.family == "binomial":
        return float(1.0 - _auc(lp, inp["y_test"]))
    return float(1.0 - _harrell_c(lp, inp["times_test"], inp["status_test"]))
