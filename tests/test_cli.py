import csv
import json

import numpy as np
import pytest

from ecpc import Grouping, ResponseFamily, model_from_json, predict
from ecpc.cli import (
    auc_mann_whitney,
    concordance_index,
    load_design_csv,
    load_response_csv,
    main,
)


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        if header is not None:
            wr.writerow(header)
        wr.writerows(rows)


def make_dataset(dirpath, seed=0, n=60, p=20, G=2, family="gaussian", k=5):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[:k] = rng.normal(0.0, 1.5, k)
    lp = X @ beta
    if family == "gaussian":
        y_rows = [[v] for v in lp + rng.normal(0.0, 1.0, n)]
    elif family == "binomial":
        y_rows = [[float(rng.random() < 1 / (1 + np.exp(-v)))] for v in lp]
    else:
        y_rows = [
            [t, s]
            for t, s in zip(
                rng.exponential(np.exp(-0.3 * lp)), (rng.random(n) < 0.7).astype(float)
            )
        ]
    names = [f"f{j}" for j in range(p)]
    xpath = str(dirpath / "x.csv")
    ypath = str(dirpath / "y.csv")
    write_csv(xpath, names, X.tolist())
    write_csv(ypath, None, y_rows)
    size = p // G
    grouping = {
        f"g{g}": [j + 1 for j in range(g * size, (g + 1) * size)] for g in range(G)
    }
    cpath = str(dirpath / "codata.json")
    with open(cpath, "w") as fh:
        json.dump(grouping, fh)
    return xpath, ypath, cpath, X, beta, names


class TestIO:
    def test_design_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((5, 3))
        path = str(tmp_path / "x.csv")
        write_csv(path, ["a", "b", "c"], X.tolist())
        X2, names = load_design_csv(path)
        assert names == ["a", "b", "c"]
        assert np.allclose(X2, X, atol=1e-15)

    def test_design_rejects_nan_with_coordinates(self, tmp_path):
        from ecpc import DataError

        path = str(tmp_path / "x.csv")
        write_csv(path, ["a", "b"], [[1.0, 2.0], [3.0, "nan"]])
        with pytest.raises(DataError, match="row 3, column 'b'"):
            load_design_csv(path)

    def test_design_ragged_row(self, tmp_path):
        from ecpc import DataError

        path = str(tmp_path / "x.csv")
        with open(path, "w") as fh:
            fh.write("a,b\n1.0,2.0\n3.0\n")
        with pytest.raises(DataError, match="row 3"):
            load_design_csv(path)

    def test_response_with_and_without_header(self, tmp_path):
        p1 = str(tmp_path / "y1.csv")
        p2 = str(tmp_path / "y2.csv")
        write_csv(p1, None, [[1.5], [2.5]])
        write_csv(p2, ["y"], [[1.5], [2.5]])
        for p in (p1, p2):
            resp = load_response_csv(p, "gaussian")
            assert np.allclose(resp.y, [1.5, 2.5])

    def test_cox_response_two_columns(self, tmp_path):
        p = str(tmp_path / "y.csv")
        write_csv(p, ["time", "status"], [[1.0, 1], [2.0, 0]])
        resp = load_response_csv(p, "cox")
        assert np.allclose(resp.times, [1.0, 2.0])
        assert np.allclose(resp.status, [1, 0])


class TestMetrics:
    def test_auc_hand_example(self):
        # pairs: (3,1) (3,2) (2,1) (2,2) -> 3 wins + 1 tie of 4 pairs
        scores = np.array([3.0, 2.0, 1.0, 2.0])
        labels = np.array([1, 1, 0, 0])
        assert auc_mann_whitney(scores, labels) == pytest.approx(0.875)

    def test_auc_perfect_separation(self):
        assert auc_mann_whitney([4.0, 3.0, 1.0, 0.5], [1, 1, 0, 0]) == 1.0

    def test_auc_random_labels_near_half(self):
        rng = np.random.default_rng(0)
        scores = rng.random(2000)
        labels = (rng.random(2000) < 0.5).astype(int)
        assert 0.45 < auc_mann_whitney(scores, labels) < 0.55

    def test_auc_single_class_rejected(self):
        from ecpc import DataError

        with pytest.raises(DataError):
            auc_mann_whitney([1.0, 2.0], [1, 1])

    def test_concordance_hand_example(self):
        # event at t=1 (risk 3) precedes t=2 (risk 1) and t=3 (risk 2): both
        # concordant; event at t=2 precedes t=3: risk 1 < 2, discordant
        c = concordance_index([3.0, 1.0, 2.0], [1.0, 2.0, 3.0], [1, 1, 1])
        assert c == pytest.approx(2 / 3)

    def test_concordance_ties_count_half(self):
        c = concordance_index([1.0, 1.0], [1.0, 2.0], [1, 0])
        assert c == pytest.approx(0.5)


class TestFitCommand:
    def test_fit_writes_outputs(self, tmp_path):
        xp, yp, cp, X, beta, names = make_dataset(tmp_path)
        out = tmp_path / "out"
        rc = main(
            ["--command", "fit", "--x", xp, "--y", yp, "--codata", cp, "--out", str(out)]
        )
        assert rc == 0
        assert (out / "model.json").exists()
        assert (out / "group_weights.csv").exists()
        log = (out / "fit.log").read_text()
        doc = json.loads((out / "model.json").read_text())
        diag = doc["diagnostics"]
        assert f"iterations={diag['iterations']} " in log
        assert f"initial_iterations={diag['initial_iterations']}" in log
        assert doc["feature_names"] == names
        assert len(doc["beta"]) == X.shape[1]

    def test_fit_with_selection(self, tmp_path):
        xp, yp, cp, X, beta, names = make_dataset(tmp_path, seed=3)
        out = tmp_path / "out"
        rc = main(
            [
                "--command", "fit", "--x", xp, "--y", yp, "--codata", cp,
                "--out", str(out), "--select", "l1:5:dense",
            ]
        )
        assert rc == 0
        with open(out / "selection.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "name", "beta"]
        assert len(rows) == 6
        # selection should find the strong leading signals
        chosen = {r[1] for r in rows[1:]}
        strong = {f"f{j}" for j in np.flatnonzero(np.abs(beta) > 1.0)}
        assert strong <= chosen

    def test_dss_selection_refits_once(self, tmp_path, monkeypatch):
        import ecpc.selection

        calls = []
        refit = ecpc.selection.refit_selected

        def counting_refit(*args, **kwargs):
            calls.append(1)
            return refit(*args, **kwargs)

        monkeypatch.setattr(ecpc.selection, "refit_selected", counting_refit)
        xp, yp, cp, *_ = make_dataset(tmp_path, seed=3)
        out = tmp_path / "out"
        rc = main(
            [
                "--command", "fit", "--x", xp, "--y", yp, "--codata", cp,
                "--out", str(out), "--select", "dss:5:dense",
            ]
        )
        assert rc == 0
        assert len(calls) == 1
        with open(out / "selection.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 6

    @pytest.mark.parametrize("count", [0, 21])
    def test_dss_count_outside_range_exit_2(self, tmp_path, capsys, count):
        xp, yp, cp, *_ = make_dataset(tmp_path)
        rc = main(
            [
                "--command", "fit", "--x", xp, "--y", yp, "--codata", cp,
                "--out", str(tmp_path / "o"), "--select", f"dss:{count}:dense",
            ]
        )
        assert rc == 2
        assert "target count must be in [1, p]" in capsys.readouterr().err

    def test_dss_count_above_n_exit_2(self, tmp_path, capsys):
        # p > n: the adaptive lasso keeps at most n = 30 covariates
        xp, yp, cp, *_ = make_dataset(tmp_path, n=30, p=40)
        rc = main(
            [
                "--command", "fit", "--x", xp, "--y", yp, "--codata", cp,
                "--out", str(tmp_path / "o"), "--select", "dss:31:dense",
            ]
        )
        assert rc == 2
        assert "at most min(n, p) = 30" in capsys.readouterr().err

    def test_dss_unattainable_count_warns(self, tmp_path):
        from ecpc import fit_ecpc
        from ecpc.cli import _run_select

        *_, X, beta, _ = make_dataset(tmp_path)
        y = X @ beta + np.random.default_rng(1).standard_normal(X.shape[0])
        resp = ResponseFamily.gaussian(y)
        model = fit_ecpc(X, resp, [Grouping(groups=(tuple(range(20)),), p=20)])
        # only three covariates left to select from
        model.beta[3:] = 0.0
        with pytest.warns(UserWarning, match="dss count 5 not attainable; selected 3"):
            res = _run_select("dss", 5, "dense", model, X, resp)
        assert len(res.selected) == 3

    def test_missing_file_exit_2(self, tmp_path, capsys):
        rc = main(
            [
                "--command", "fit", "--x", str(tmp_path / "no.csv"),
                "--y", str(tmp_path / "no.csv"), "--codata", str(tmp_path / "no.json"),
            ]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_required_args_exit_2(self, capsys):
        assert main(["--command", "fit"]) == 2

    def test_bad_select_spec_exit_2(self, tmp_path, capsys):
        xp, yp, cp, *_ = make_dataset(tmp_path)
        rc = main(
            [
                "--command", "fit", "--x", xp, "--y", yp, "--codata", cp,
                "--out", str(tmp_path / "o"), "--select", "l1:5",
            ]
        )
        assert rc == 2

    def test_deterministic_outputs(self, tmp_path):
        xp, yp, cp, *_ = make_dataset(tmp_path, seed=5)
        o1, o2 = tmp_path / "o1", tmp_path / "o2"
        for o in (o1, o2):
            assert (
                main(
                    ["--command", "fit", "--x", xp, "--y", yp, "--codata", cp, "--out", str(o)]
                )
                == 0
            )
        assert (o1 / "model.json").read_bytes() == (o2 / "model.json").read_bytes()
        assert (o1 / "group_weights.csv").read_bytes() == (
            o2 / "group_weights.csv"
        ).read_bytes()

    def test_threaded_outputs_identical(self, tmp_path, monkeypatch):
        xp, yp, cp, *_ = make_dataset(tmp_path, seed=6, n=40, p=10)
        o1, o2 = tmp_path / "o1", tmp_path / "o2"
        args = ["--command", "cv", "--x", xp, "--y", yp, "--codata", cp, "--folds", "4"]
        monkeypatch.setenv("ECPC_THREADS", "1")
        assert main(args + ["--out", str(o1)]) == 0
        monkeypatch.setenv("ECPC_THREADS", "4")
        assert main(args + ["--out", str(o2)]) == 0
        assert (o1 / "cv_metrics.csv").read_bytes() == (o2 / "cv_metrics.csv").read_bytes()


class TestPredictCommand:
    def test_predictions_match_library(self, tmp_path):
        xp, yp, cp, X, beta, names = make_dataset(tmp_path, seed=7)
        out = tmp_path / "out"
        assert (
            main(["--command", "fit", "--x", xp, "--y", yp, "--codata", cp, "--out", str(out)])
            == 0
        )
        pout = tmp_path / "pred"
        assert (
            main(
                ["--command", "predict", "--model", str(out / "model.json"), "--x", xp, "--out", str(pout)]
            )
            == 0
        )
        doc = json.loads((out / "model.json").read_text())
        doc.pop("feature_names")
        model = model_from_json(json.dumps(doc))
        expected = predict(model, X)
        with open(pout / "predictions.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        got = np.array([float(r[2]) for r in rows])
        assert np.abs(got - expected).max() < 1e-12

    def test_shuffled_columns_matched_by_name(self, tmp_path):
        xp, yp, cp, X, beta, names = make_dataset(tmp_path, seed=8)
        out = tmp_path / "out"
        main(["--command", "fit", "--x", xp, "--y", yp, "--codata", cp, "--out", str(out)])
        perm = np.random.default_rng(0).permutation(len(names))
        xshuf = str(tmp_path / "x_shuf.csv")
        write_csv(xshuf, [names[j] for j in perm], X[:, perm].tolist())
        p1, p2 = tmp_path / "p1", tmp_path / "p2"
        main(["--command", "predict", "--model", str(out / "model.json"), "--x", xp, "--out", str(p1)])
        main(["--command", "predict", "--model", str(out / "model.json"), "--x", xshuf, "--out", str(p2)])
        assert (p1 / "predictions.csv").read_bytes() == (p2 / "predictions.csv").read_bytes()

    def test_empty_design_ok(self, tmp_path):
        xp, yp, cp, X, beta, names = make_dataset(tmp_path, seed=9)
        out = tmp_path / "out"
        main(["--command", "fit", "--x", xp, "--y", yp, "--codata", cp, "--out", str(out)])
        xempty = str(tmp_path / "x_empty.csv")
        write_csv(xempty, names, [])
        pout = tmp_path / "p"
        rc = main(
            ["--command", "predict", "--model", str(out / "model.json"), "--x", xempty, "--out", str(pout)]
        )
        assert rc == 0
        with open(pout / "predictions.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1  # header only


class TestCvCommand:
    def test_cv_rows_and_metric(self, tmp_path):
        xp, yp, cp, *_ = make_dataset(tmp_path, seed=10)
        out = tmp_path / "out"
        rc = main(
            ["--command", "cv", "--x", xp, "--y", yp, "--codata", cp, "--folds", "5", "--out", str(out)]
        )
        assert rc == 0
        with open(out / "cv_metrics.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["method", "fold", "metric", "value", "selected"]
        assert len(rows) == 6
        assert all(r[2] == "mse" and float(r[3]) > 0 for r in rows[1:])

    def test_cv_binomial_auc(self, tmp_path):
        xp, yp, cp, *_ = make_dataset(tmp_path, seed=11, family="binomial", n=80)
        out = tmp_path / "out"
        rc = main(
            [
                "--command", "cv", "--x", xp, "--y", yp, "--codata", cp,
                "--family", "binomial", "--folds", "4", "--out", str(out), "--intercept",
            ]
        )
        assert rc == 0
        with open(out / "cv_metrics.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        assert all(r[2] == "auc" and 0.0 <= float(r[3]) <= 1.0 for r in rows)


class TestSimulateCommand:
    def test_rows_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        args = [
            "--command", "simulate", "--replicates", "2", "--groups", "2,4",
            "--n", "40", "--p", "30", "--splits", "3",
        ]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "simulation.csv").read_bytes() == (out2 / "simulation.csv").read_bytes()
        with open(out1 / "simulation.csv") as fh:
            rows = list(csv.reader(fh))
        # 2 G values x 2 replicates x 3 methods
        assert len(rows) == 1 + 12
        methods = {r[0] for r in rows[1:]}
        assert methods == {"ecpc_hyper", "ecpc_nohyper", "ridge"}

    def test_gnuplot_script(self, tmp_path):
        out = tmp_path / "o"
        assert (
            main(
                [
                    "--command", "simulate", "--replicates", "1", "--groups", "2",
                    "--n", "30", "--p", "20", "--splits", "2", "--gnuplot", "--out", str(out),
                ]
            )
            == 0
        )
        assert "plot" in (out / "simulation.gp").read_text()


class TestStabilityCommand:
    def test_pair_counts(self, tmp_path):
        xp, yp, cp, *_ = make_dataset(tmp_path, seed=12, n=50, p=16)
        out = tmp_path / "out"
        rc = main(
            [
                "--command", "stability", "--x", xp, "--y", yp, "--codata", cp,
                "--replicates", "5", "--select", "l1:4:dense", "--out", str(out),
                "--splits", "3",
            ]
        )
        assert rc == 0
        with open(out / "stability_pairs.csv") as fh:
            pairs = list(csv.reader(fh))[1:]
        assert len(pairs) == 10  # 5 choose 2
        assert all(0 <= int(r[2]) <= 4 for r in pairs)
        with open(out / "stability_summary.csv") as fh:
            summary = list(csv.reader(fh))[1:]
        assert len(summary) == 5
        assert all(float(r[3]) == pytest.approx(16 / 16) for r in summary)

    def test_requires_select(self, tmp_path):
        xp, yp, cp, *_ = make_dataset(tmp_path, seed=13)
        rc = main(
            ["--command", "stability", "--x", xp, "--y", yp, "--codata", cp, "--out", str(tmp_path / "o")]
        )
        assert rc == 2
