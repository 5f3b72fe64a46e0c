"""Command-line front end.

Commands: ``fit`` (write a model file plus group-weight table), ``cv``
(cross-validated metrics), ``simulate`` (synthetic benchmark comparing the
co-data model with and without hypershrinkage against ordinary ridge),
``predict`` (apply a stored model to new samples) and ``stability``
(selection overlap across subsamples).  All randomness is driven by the
``--seed`` flag; reruns produce byte-identical outputs.

Exit codes: 0 on success, 1 on numeric failure, 2 on I/O or configuration
errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .codata import (
    Grouping,
    build_hierarchy_from_continuous,
    load_continuous_csv,
    load_grouping_json,
)
from .errors import ConvergenceError, DataError, EcpcError, SingularSystemError
from .estimator import (
    FittedModel,
    fit_ecpc,
    model_from_json,
    model_to_json,
    predict,
)
from .glm import (
    PenaltyState,
    ResponseFamily,
    estimate_global_variance,
    fit_weighted_ridge,
    stratified_folds,
)
from .hypershrinkage import KINDS
from .selection import select_credible, select_dss, select_l1

__all__ = ["main"]


def _max_workers() -> int:
    try:
        return max(1, int(os.environ.get("ECPC_THREADS", "1")))
    except ValueError:
        return 1


def _pmap(fn, items):
    """Order-preserving map, parallel when ECPC_THREADS allows it."""
    workers = _max_workers()
    if workers == 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# I/O helpers


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for row in rows:
            wr.writerow([_fmt(x) for x in row])


def load_design_csv(path: str):
    """Design matrix CSV: header row of covariate names, one sample per row."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DataError(f"cannot read design file {path}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: empty file")
    names = [c.strip() for c in rows[0]]
    data = []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(names):
            raise DataError(
                f"{path}: row {i} has {len(row)} columns, expected {len(names)}"
            )
        try:
            vals = [float(c) for c in row]
        except ValueError as exc:
            raise DataError(f"{path}: row {i}: {exc}") from exc
        data.append(vals)
    X = np.asarray(data, dtype=float).reshape(len(data), len(names))
    bad = np.argwhere(~np.isfinite(X))
    if bad.size:
        r, c = bad[0]
        raise DataError(
            f"{path}: non-finite value at row {r + 2}, column '{names[c]}'"
        )
    return X, names


def load_response_csv(path: str, family: str) -> ResponseFamily:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DataError(f"cannot read response file {path}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: empty file")
    try:
        float(rows[0][0])
        body = rows
    except (ValueError, IndexError):
        body = rows[1:]
    want = 2 if family == "cox" else 1
    vals = []
    for i, row in enumerate(body, start=1):
        if len(row) != want:
            raise DataError(f"{path}: row {i} has {len(row)} columns, expected {want}")
        try:
            vals.append([float(c) for c in row])
        except ValueError as exc:
            raise DataError(f"{path}: row {i}: {exc}") from exc
    arr = np.asarray(vals, dtype=float)
    if family == "gaussian":
        return ResponseFamily.gaussian(arr[:, 0])
    if family == "binomial":
        return ResponseFamily.binomial(arr[:, 0])
    if family == "cox":
        return ResponseFamily.cox(arr[:, 0], arr[:, 1])
    raise DataError(f"unknown family '{family}'")


def load_codata_spec(path: str, p: int, index: int) -> Grouping:
    """A co-data source: a grouping JSON, or a continuous-annotation spec.

    A continuous spec is a JSON object with ``"continuous"`` naming a
    single-column CSV of per-covariate values, plus optional
    ``"min_group_size"`` and ``"initial_threshold"``.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read co-data file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from exc
    name = f"codata{index}"
    if isinstance(doc, dict) and "continuous" in doc:
        values = load_continuous_csv(doc["continuous"])
        if len(values) != p:
            raise DataError(
                f"{path}: {len(values)} annotation values for {p} covariates"
            )
        grouping, tree = build_hierarchy_from_continuous(
            values,
            min_group_size=int(doc.get("min_group_size", 10)),
            initial_threshold=doc.get("initial_threshold"),
            name=doc.get("name", name),
        )
        return grouping
    return load_grouping_json(path, p, name=name)


# ---------------------------------------------------------------------------
# metrics


def auc_mann_whitney(scores, labels) -> float:
    """Area under the ROC curve via the rank-sum statistic (ties count half)."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        raise DataError("AUC undefined: only one class present")
    greater = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return float((greater + 0.5 * ties) / (len(pos) * len(neg)))


def concordance_index(risk, times, status) -> float:
    """Harrell's concordance over comparable pairs (ties in risk count half)."""
    risk = np.asarray(risk, dtype=float)
    times = np.asarray(times, dtype=float)
    status = np.asarray(status, dtype=float)
    # pair (i, j), i an event: comparable when j outlives i or is censored at its time
    ev = status == 1
    t_i, r_i = times[ev, None], risk[ev, None]
    comparable = (times > t_i) | ((times == t_i) & (status == 0))
    comp = int(comparable.sum())
    conc = int((comparable & (r_i > risk)).sum())
    ties = int((comparable & (r_i == risk)).sum())
    if comp == 0:
        raise DataError("no comparable pairs for concordance")
    return float((conc + 0.5 * ties) / comp)


def evaluate(model: FittedModel, X, resp: ResponseFamily) -> tuple[str, float]:
    pred = predict(model, X)
    if resp.family == "gaussian":
        return "mse", float(((pred - resp.y) ** 2).mean())
    if resp.family == "binomial":
        return "auc", auc_mann_whitney(pred, resp.y)
    return "concordance", concordance_index(pred, resp.times, resp.status)


# ---------------------------------------------------------------------------
# commands


def _parse_select(spec: str):
    parts = spec.split(":")
    if len(parts) != 3:
        raise DataError("--select expects method:count:mode, e.g. l1:25:dense")
    method, count, mode = parts
    if method not in ("l1", "dss", "credible"):
        raise DataError(f"unknown selection method '{method}'")
    if mode not in ("dense", "recalibrated"):
        raise DataError(f"unknown refit mode '{mode}'")
    try:
        count = int(count)
    except ValueError as exc:
        raise DataError(f"--select count must be an integer: {count!r}") from exc
    return method, count, mode


def _run_select(method, count, mode, model, X, resp):
    if method == "l1":
        return select_l1(model, X, resp, count, mode=mode)
    if method == "credible":
        return select_credible(model, X, resp, count, mode=mode)
    if not 1 <= count <= model.p:
        raise DataError("target count must be in [1, p]")
    n = X.shape[0]
    if count > n:
        # the adaptive lasso keeps at most n covariates
        raise DataError(f"dss selects at most min(n, p) = {n} covariates, not {count}")
    # dss is tuned by strength, not count: bisect without refits, refit once
    lo, hi = 1e-8, 1e8
    while hi / lo > 1.0 + 1e-12:
        mid = np.sqrt(lo * hi)
        got = len(select_dss(model, X, mid).selected)
        if got == count:
            break
        if got > count:
            lo = mid
        else:
            hi = mid
    res = select_dss(model, X, mid, resp=resp, mode=mode)
    if len(res.selected) != count:
        warnings.warn(
            f"exact dss count {count} not attainable; selected {len(res.selected)}",
            stacklevel=2,
        )
    return res


def _load_fit_inputs(args):
    X, names = load_design_csv(args.x)
    resp = load_response_csv(args.y, args.family)
    if resp.n != X.shape[0]:
        raise DataError(
            f"{resp.n} responses for {X.shape[0]} samples"
        )
    if not args.codata:
        raise DataError("at least one --codata source is required")
    codata = [
        load_codata_spec(path, X.shape[1], d) for d, path in enumerate(args.codata)
    ]
    hyper = args.hyper if args.hyper else None
    if hyper is not None and len(hyper) != len(codata):
        raise DataError("--hyper must be given once per --codata source")
    return X, names, resp, codata, hyper


def _fit_from_args(args, X, resp, codata, hyper):
    return fit_ecpc(
        X,
        resp,
        codata,
        hyper=hyper,
        intercept=args.intercept,
        n_splits=args.splits,
        n_folds=args.folds,
        seed=args.seed,
    )


def cmd_fit(args) -> int:
    X, names, resp, codata, hyper = _load_fit_inputs(args)
    model = _fit_from_args(args, X, resp, codata, hyper)
    os.makedirs(args.out, exist_ok=True)

    doc = json.loads(model_to_json(model))
    doc["feature_names"] = names
    with open(os.path.join(args.out, "model.json"), "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")

    rows = []
    for d, g in enumerate(codata):
        for gi, gamma in enumerate(model.gammas[d]):
            rows.append(
                [g.name, gi, gamma, model.hyperlambdas[d], model.w[d]]
            )
    _write_csv(
        os.path.join(args.out, "group_weights.csv"),
        ["grouping", "group", "gamma", "hyperlambda", "w"],
        rows,
    )
    with open(os.path.join(args.out, "fit.log"), "w") as fh:
        fh.write(
            f"family={model.family} n={X.shape[0]} p={X.shape[1]} "
            f"tau_global={_fmt(model.tau_global)} sigma2={_fmt(model.sigma2)} "
            f"converged={model.diagnostics.get('converged')} "
            f"iterations={model.diagnostics.get('iterations')} "
            f"initial_iterations={model.diagnostics.get('initial_iterations')} "
            f"cv_newton_steps={model.diagnostics['global_variance']['newton_steps']}\n"
        )
        for name, rec in zip(model.grouping_names, model.diagnostics["moments"]):
            fh.write(f"moments grouping={name} route={rec['route']} rank={rec['rank']}\n")

    if args.select:
        method, count, mode = _parse_select(args.select)
        res = _run_select(method, count, mode, model, X, resp)
        _write_csv(
            os.path.join(args.out, "selection.csv"),
            ["index", "name", "beta"],
            [[int(j) + 1, names[j], res.beta[j]] for j in res.selected],
        )
    return 0


def cmd_cv(args) -> int:
    X, names, resp, codata, hyper = _load_fit_inputs(args)
    if args.folds < 2:
        raise DataError("cross-validation needs at least 2 folds")
    folds = stratified_folds(resp, args.folds, seed=args.seed)
    select = _parse_select(args.select) if args.select else None

    def one_fold(k):
        train = folds != k
        test = folds == k
        model = fit_ecpc(
            X[train],
            resp.subset(train),
            codata,
            hyper=hyper,
            intercept=args.intercept,
            n_splits=args.splits,
            n_folds=min(args.folds, int(train.sum())),
            seed=args.seed + k + 1,
        )
        n_sel = ""
        if select is not None:
            method, count, mode = select
            res = _run_select(method, count, mode, model, X[train], resp.subset(train))
            sparse = FittedModel(**{**model.__dict__, "beta": res.beta})
            metric, value = evaluate(sparse, X[test], resp.subset(test))
            n_sel = len(res.selected)
        else:
            metric, value = evaluate(model, X[test], resp.subset(test))
        return ["ecpc", k, metric, value, n_sel]

    rows = _pmap(one_fold, list(range(args.folds)))
    os.makedirs(args.out, exist_ok=True)
    _write_csv(
        os.path.join(args.out, "cv_metrics.csv"),
        ["method", "fold", "metric", "value", "selected"],
        rows,
    )
    return 0


def _simulate_one(seed, n, p, G, informative, n_splits):
    rng = np.random.default_rng(seed)
    tau2, sigma2 = 0.1, 1.0
    beta0 = rng.normal(0.0, np.sqrt(tau2), p)
    X = rng.standard_normal((n, p))
    y = X @ beta0 + rng.normal(0.0, np.sqrt(sigma2), n)
    Xt = rng.standard_normal((n, p))
    yt = Xt @ beta0 + rng.normal(0.0, np.sqrt(sigma2), n)
    resp = ResponseFamily.gaussian(y)

    if informative:
        order = np.argsort(-np.abs(beta0), kind="stable")
    else:
        order = rng.permutation(p)
    bounds = np.linspace(0, p, G + 1).astype(int)
    groups = tuple(
        tuple(sorted(order[bounds[g] : bounds[g + 1]].tolist())) for g in range(G)
    )
    grouping = Grouping(groups=groups, p=p, name="sim")

    out = {}
    for label, hyper in (("ecpc_hyper", "ridge"), ("ecpc_nohyper", "none")):
        model = fit_ecpc(X, resp, [grouping], hyper=hyper, n_splits=n_splits, seed=seed)
        out[label] = float(((predict(model, Xt) - yt) ** 2).mean())

    gv = estimate_global_variance(X, resp, seed=seed)
    state = PenaltyState.uniform(gv.tau_global, p)
    fit = fit_weighted_ridge(X, resp.with_sigma2(gv.sigma2), state)
    out["ridge"] = float(((Xt @ fit.beta - yt) ** 2).mean())
    return out


def cmd_simulate(args) -> int:
    if args.replicates < 1:
        raise DataError("need at least one replicate")
    G_list = [int(g) for g in args.groups.split(",")]
    informative = args.codata_type == "informative"
    tasks = [(G, rep) for G in G_list for rep in range(args.replicates)]

    def one(task):
        G, rep = task
        res = _simulate_one(
            args.seed + 7919 * rep, args.n, args.p, G, informative, args.splits
        )
        return [
            [label, args.codata_type, G, rep, mse]
            for label, mse in sorted(res.items())
        ]

    chunks = _pmap(one, tasks)
    rows = [row for chunk in chunks for row in chunk]
    os.makedirs(args.out, exist_ok=True)
    _write_csv(
        os.path.join(args.out, "simulation.csv"),
        ["method", "codata", "G", "replicate", "test_mse"],
        rows,
    )
    if args.gnuplot:
        with open(os.path.join(args.out, "simulation.gp"), "w") as fh:
            fh.write(
                "set datafile separator ','\n"
                "set key autotitle columnhead\n"
                "set xlabel 'G'; set ylabel 'test MSE'\n"
                "plot 'simulation.csv' using 3:5 with points\n"
            )
    return 0


def cmd_predict(args) -> int:
    try:
        with open(args.model) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read model file {args.model}: {exc}") from exc
    feature_names = doc.pop("feature_names", None)
    model = model_from_json(json.dumps(doc))
    X, names = load_design_csv(args.x)
    if feature_names is not None and names and set(names) == set(feature_names):
        pos = {nm: i for i, nm in enumerate(names)}
        X = X[:, [pos[nm] for nm in feature_names]]
    elif X.shape[1] != model.p:
        raise DataError(
            f"model expects {model.p} covariates, design has {X.shape[1]}"
        )
    lp = predict(model, X, kind="link") if X.size else np.zeros(len(X))
    resp_scale = predict(model, X) if X.size else np.zeros(len(X))
    os.makedirs(args.out, exist_ok=True)
    _write_csv(
        os.path.join(args.out, "predictions.csv"),
        ["sample", "linear_predictor", "prediction"],
        [[i + 1, lp[i], resp_scale[i]] for i in range(len(X))],
    )
    return 0


def cmd_stability(args) -> int:
    X, names, resp, codata, hyper = _load_fit_inputs(args)
    if not args.select:
        raise DataError("stability analysis requires --select")
    method, count, mode = _parse_select(args.select)
    n = X.shape[0]
    m = max(2, int(round(2 * n / 3)))

    def one(rep):
        rng = np.random.default_rng(args.seed + rep)
        if resp.family == "binomial":
            idx = []
            for cls in (0.0, 1.0):
                members = np.flatnonzero(resp.y == cls)
                take = max(1, int(round(len(members) * m / n)))
                if take > len(members):
                    raise DataError("subsample too small to stratify")
                idx.append(rng.choice(members, size=take, replace=False))
            sub = np.sort(np.concatenate(idx))
        else:
            sub = np.sort(rng.choice(n, size=m, replace=False))
        hold = np.setdiff1d(np.arange(n), sub)
        model = fit_ecpc(
            X[sub],
            resp.subset(sub),
            codata,
            hyper=hyper,
            intercept=args.intercept,
            n_splits=args.splits,
            n_folds=min(args.folds, len(sub)),
            seed=args.seed + rep,
        )
        res = _run_select(method, count, mode, model, X[sub], resp.subset(sub))
        metric_val = ""
        if len(hold) and resp.family == "binomial" and len(set(resp.y[hold])) == 2:
            sparse = FittedModel(**{**model.__dict__, "beta": res.beta})
            _, metric_val = evaluate(sparse, X[hold], resp.subset(hold))
        return set(res.selected.tolist()), metric_val

    results = _pmap(one, list(range(args.replicates)))
    os.makedirs(args.out, exist_ok=True)
    pair_rows = []
    for i in range(len(results)):
        for j in range(i + 1, len(results)):
            pair_rows.append([i, j, len(results[i][0] & results[j][0])])
    baseline = count**2 / X.shape[1]
    _write_csv(
        os.path.join(args.out, "stability_pairs.csv"),
        ["subsample_a", "subsample_b", "overlap"],
        pair_rows,
    )
    _write_csv(
        os.path.join(args.out, "stability_summary.csv"),
        ["subsample", "selected", "holdout_metric", "random_overlap_baseline"],
        [
            [i, len(sel), metric, baseline]
            for i, (sel, metric) in enumerate(results)
        ],
    )
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ecpc",
        description="Co-data adaptive group-ridge models for GLMs and Cox regression.",
    )
    ap.add_argument(
        "--command",
        required=True,
        choices=["fit", "cv", "simulate", "predict", "stability"],
    )
    ap.add_argument("--x", help="design matrix CSV (header row, one sample per row)")
    ap.add_argument("--y", help="response CSV (cox: time,status)")
    ap.add_argument(
        "--family", default="gaussian", choices=["gaussian", "binomial", "cox"]
    )
    ap.add_argument(
        "--codata",
        action="append",
        default=[],
        help="co-data spec JSON (repeatable, one per source)",
    )
    ap.add_argument(
        "--hyper",
        action="append",
        default=[],
        choices=KINDS,
        help="hypershrinkage kind, one per --codata (default ridge)",
    )
    ap.add_argument("--folds", type=int, default=10)
    ap.add_argument("--splits", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--select", help="posterior selection: method:count:mode")
    ap.add_argument("--out", default=".", help="output directory")
    ap.add_argument("--intercept", action="store_true", help="add an unpenalised intercept")
    ap.add_argument("--model", help="model JSON (for predict)")
    ap.add_argument("--replicates", type=int, default=30)
    ap.add_argument("--groups", default="1,5,10,20,30", help="simulate: G values")
    ap.add_argument(
        "--codata-type",
        default="random",
        choices=["random", "informative"],
        help="simulate: grouping construction",
    )
    ap.add_argument("--n", type=int, default=100, help="simulate: samples")
    ap.add_argument("--p", type=int, default=300, help="simulate: covariates")
    ap.add_argument("--gnuplot", action="store_true", help="emit a gnuplot script")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "fit": cmd_fit,
        "cv": cmd_cv,
        "simulate": cmd_simulate,
        "predict": cmd_predict,
        "stability": cmd_stability,
    }
    try:
        if args.command in ("fit", "cv", "stability"):
            if not args.x or not args.y:
                raise DataError(f"--command {args.command} requires --x and --y")
        if args.command == "predict" and (not args.model or not args.x):
            raise DataError("--command predict requires --model and --x")
        return handlers[args.command](args)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, SingularSystemError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
