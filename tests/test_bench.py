"""Benchmark protocol, report shape, determinism, and the CLI surface."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from msknn.bench import BenchConfig, BenchReport, bundled_path, run_benchmark, sniff_header
from msknn.cli import main
from msknn.dataset import Dataset, SplitSpec, load_csv, normalize, split
from msknn.multiscale import MsknnConfig, msknn_classify, select_ks
from msknn.neighbors import NeighborList
from oracles import sort_oracle, unweighted_knn


def iris_cfg(**kw):
    base = dict(
        datasets=(("iris", str(bundled_path("iris"))),),
        repeats=3,
        base_seed=0,
    )
    base.update(kw)
    return BenchConfig(**base)


class TestRunBenchmark:
    def test_report_shape_and_stats(self):
        report = run_benchmark(iris_cfg())
        assert len(report.rows) == 5
        for row in report.rows:
            assert (row.n, row.d, row.m) == (150, 4, 3)
            assert 0.0 <= row.mean_acc <= 1.0
            assert len(row.accuracies) == 3
            a = np.asarray(row.accuracies)
            assert row.mean_acc == pytest.approx(a.mean(), abs=1e-12)
            assert row.std_acc == pytest.approx(a.std(ddof=1), abs=1e-12)

    def test_single_class_dataset_scores_one(self, tmp_path):
        rng = np.random.default_rng(0)
        p = tmp_path / "mono.csv"
        lines = [f"{rng.normal()},{rng.normal()},only" for _ in range(60)]
        p.write_text("\n".join(lines) + "\n")
        cfg = BenchConfig(datasets=(("mono", str(p)),), repeats=2)
        report = run_benchmark(cfg)
        assert report.rows
        for row in report.rows:
            assert row.mean_acc == 1.0

    def test_too_small_dataset_skipped_with_diagnostic(self, tmp_path):
        p = tmp_path / "tiny.csv"
        p.write_text("1,0,a\n2,1,b\n3,0,a\n4,1,b\n5,0,a\n6,1,b\n")
        cfg = BenchConfig(datasets=(("tiny", str(p)),), repeats=1)
        report = run_benchmark(cfg)
        assert not report.rows
        assert report.diagnostics and "tiny" in report.diagnostics[0]

    def test_determinism_excluding_timing(self):
        a = run_benchmark(iris_cfg())
        b = run_benchmark(iris_cfg())
        assert [r.accuracies for r in a.rows] == [r.accuracies for r in b.rows]
        strip = lambda csv: ["," .join(line.split(",")[:7]) for line in csv.splitlines()]
        assert strip(a.csv()) == strip(b.csv())

    def test_different_seed_changes_partition(self):
        a = run_benchmark(iris_cfg(base_seed=0, repeats=2))
        b = run_benchmark(iris_cfg(base_seed=123, repeats=2))
        assert [r.accuracies for r in a.rows] != [r.accuracies for r in b.rows]

    def test_protocol_k_rule(self):
        # Iris: n_pred = 105, d = 4 -> base 10, baseline k = 50, V equal scales
        data = load_csv(bundled_path("iris"), -1, has_header=True)
        train, _ = split(data, SplitSpec(0.7, 0))
        assert train.n == 105
        assert select_ks(train.n, data.d, 5) == [10, 20, 30, 40, 50]

    def test_minmax_toggle_runs(self):
        report = run_benchmark(iris_cfg(norm="minmax", repeats=2))
        assert all(r.mean_acc > 0.5 for r in report.rows)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            iris_cfg(methods=("nope",))

    def test_csv_layout(self):
        report = run_benchmark(iris_cfg(repeats=2, methods=("uniform",)))
        lines = report.csv().strip().split("\n")
        assert lines[0] == "dataset,n,d,m,method,mean_acc,std_acc,seconds"
        fields = lines[1].split(",")
        assert fields[0] == "iris" and fields[4] == "uniform"
        assert len(fields) == 8


class TestBatchAgreesWithPerQuery:
    """The vectorized bench evaluator must match the per-query pipeline."""

    def test_msknn_radius_matches_classifier(self):
        data = load_csv(bundled_path("iris"), -1, has_header=True)
        train, test = split(data, SplitSpec(0.7, 3))
        train_norm, stats = normalize(train)
        test_pts = stats.transform(test.points)

        from msknn.bench import _class_cumsums, _estimates
        from msknn.neighbors import knn_search_batch

        ks = select_ks(train.n, data.d, 5)
        idx, dists = knn_search_batch(train_norm.points, test_pts, ks[-1])
        csums = _class_cumsums(train.labels[idx], data.m)
        cfg = MsknnConfig(V=5, C=1, lam=1e-4)
        for meth, predictor in (("msknn-r", "radius"), ("msknn-log", "log_k")):
            est, _ = _estimates(meth, csums, dists, ks, data.d, 1, 1e-4)
            batch_pred = np.argmax(est, axis=1)
            c = MsknnConfig(V=5, C=1, lam=1e-4, predictor=predictor)
            for i in range(0, test.n, 5):
                assert batch_pred[i] == msknn_classify(train_norm, test_pts[i], c)

    def test_uniform_matches_unweighted(self):
        data = load_csv(bundled_path("iris"), -1, has_header=True)
        train, test = split(data, SplitSpec(0.7, 1))
        train_norm, stats = normalize(train)
        test_pts = stats.transform(test.points)

        from msknn.bench import _class_cumsums, _estimates
        from msknn.neighbors import knn_search_batch

        ks = select_ks(train.n, data.d, 5)
        idx, dists = knn_search_batch(train_norm.points, test_pts, ks[-1])
        csums = _class_cumsums(train.labels[idx], data.m)
        est, _ = _estimates("uniform", csums, dists, ks, data.d, 1, 1e-4)
        for i in range(0, test.n, 7):
            nl = NeighborList(*sort_oracle(train_norm.points, test_pts[i], ks[-1]))
            for c in range(data.m):
                direct = unweighted_knn(nl, (train.labels == c).astype(float), ks[-1])
                assert est[i, c] == pytest.approx(direct, abs=1e-12)


class TestSniffHeader:
    def test_detects_header(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("a,b,label\n1,2,x\n")
        assert sniff_header(p)

    def test_detects_no_header(self, tmp_path):
        p = tmp_path / "nh.csv"
        p.write_text("1,2,3\n4,5,6\n")
        assert not sniff_header(p)


class TestCli:
    def test_bench_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main([
            "bench", "--data", "iris", "--seed", "7", "--repeats", "2",
            "--methods", "uniform,msknn-log", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("dataset,")
        assert len(lines) == 3

    def test_bench_determinism_byte_identical_minus_timing(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["bench", "--data", "iris", "--seed", "5", "--repeats", "2",
                         "--methods", "uniform", "--out", str(out)]) == 0
            outs.append(out.read_text())
        strip = lambda text: [",".join(l.split(",")[:7]) for l in text.splitlines()]
        assert strip(outs[0]) == strip(outs[1])

    def test_weights_csv(self, capsys):
        assert main(["weights", "--n", "1000", "--d", "10", "--k-star", "100",
                     "--V", "5", "--C", "2"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "scheme,i,weight"
        assert len(lines) == 1 + 3 * 100

    def test_theory_passes(self, capsys):
        assert main(["theory"]) == 0
        out = capsys.readouterr().out
        assert "quadratic-1d" in out and "quadratic-2d" in out

    def test_rates_runs(self, capsys):
        code = main(["rates", "--n-grid", "128,256", "--reps", "3", "--n-test", "16",
                     "--methods", "bayes,unweighted"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].startswith("method,")
        assert len(lines) == 5

    def test_unknown_flag_exits_one(self, capsys):
        assert main(["bench", "--data", "iris", "--frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_data_exits_two(self):
        assert main(["bench", "--data", "/does/not/exist.csv"]) == 2

    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "msknn.cli", "theory", "--grid", "5"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0

    def test_rates_config_roundtrip(self, tmp_path, capsys):
        cfg_file = tmp_path / "exp.cfg"
        code = main(["rates", "--n-grid", "64,128", "--reps", "2", "--n-test", "8",
                     "--methods", "bayes", "--save-config", str(cfg_file)])
        assert code == 0
        first = capsys.readouterr().out
        text = cfg_file.read_text()
        assert "n_grid=64,128" in text and "reps=2" in text
        # rerun purely from the config file
        code = main(["rates", "--config", str(cfg_file)])
        assert code == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("flag", ["--lambda", "--lam", "--lambda="])
    def test_rates_flags_override_config(self, tmp_path, flag):
        cfg_file, saved = tmp_path / "exp.cfg", tmp_path / "saved.cfg"
        cfg_file.write_text("lam=0.5\nreps=2\nn_test=8\nn_grid=64,128\nmethods=bayes\n")
        value = [flag + "0"] if flag.endswith("=") else [flag, "0"]
        assert main(["rates", "--config", str(cfg_file), *value, "--save-config", str(saved)]) == 0
        text = saved.read_text()
        assert "lam=0.0" in text and "reps=2" in text

    @pytest.mark.parametrize("C, message", [
        ("4", "C=4 needs at least C+1 scales, got V=3"),
        ("-1", "C must be non-negative"),
    ])
    @pytest.mark.parametrize("argv", [
        ["bench", "--data", "iris"],
        ["bench", "--data", "iris", "--verbose"],
        ["rates", "--n-grid", "64", "--reps", "2", "--n-test", "8"],
        ["weights"],
    ])
    def test_order_outside_scales_exits_one(self, capsys, argv, C, message):
        assert main([*argv, "--V", "3", "--C", C]) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv, message", [
        (["--V", "1", "--C", "1"], "V must be at least 2"),
        (["--n", "100", "--d", "2", "--k-star", "2", "--V", "5", "--C", "4"],
         "k_star=2 rounds the V=5 scales to ks=[1, 2], fewer than C+1=5"),
    ])
    def test_weights_too_few_scales_exits_one(self, capsys, argv, message):
        assert main(["weights", *argv]) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["bench", "--data", "iris"],
        ["rates", "--n-grid", "64", "--reps", "2", "--n-test", "8"],
    ])
    def test_negative_lambda_exits_one(self, capsys, argv):
        assert main([*argv, "--lambda", "-1"]) == 1
        captured = capsys.readouterr()
        assert "lambda must be non-negative" in captured.err
        assert captured.out == ""

    def test_weights_names_merged_scales(self, capsys):
        argv = ["weights", "--n", "100", "--d", "2", "--k-star", "3", "--C", "1"]
        assert main([*argv, "--V", "5"]) == 0
        merged = capsys.readouterr()
        assert merged.err == "# k_star=3 rounds the V=5 scales to ks=[1, 2, 3]; " \
            "msknn_implicit uses these 3\n"
        # the profile is the one V = 3 gives, and unmerged scales print nothing
        assert main([*argv, "--V", "3"]) == 0
        distinct = capsys.readouterr()
        assert merged.out == distinct.out and distinct.err == ""

    def test_rates_config_rejects_baseline_k_factor(self, tmp_path, capsys):
        # no flag sets the baseline k, so neither may a config line
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("baseline_k_factor=1\nreps=2\nn_test=8\nn_grid=64\nmethods=bayes\n")
        assert main(["rates", "--config", str(cfg_file)]) == 1
        captured = capsys.readouterr()
        assert "baseline_k_factor" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_rates_unreadable_config_exits_two(self, tmp_path, capsys, where):
        path = tmp_path / "absent.cfg" if where == "missing" else tmp_path
        assert main(["rates", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"data error: cannot read experiment config {path}: ")
        assert captured.out == ""

    def test_weights_unwritable_out_exits_two(self, tmp_path, capsys):
        path = tmp_path / "absent" / "x.csv"
        assert main(["weights", "--out", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"data error: cannot write {path}: ")
        assert captured.out == ""

    def test_rates_unwritable_save_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "absent" / "x.cfg"
        argv = ["rates", "--n-grid", "64", "--reps", "2", "--n-test", "8",
                "--save-config", str(path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"data error: cannot write experiment config {path}: ")
        assert captured.out == ""

    def test_rates_one_rep_prints_nan_stderr(self, capsys):
        assert main(["rates", "--n-grid", "256,512", "--reps", "1", "--n-test", "16"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 4
        assert [row[3] for row in rows] == ["nan"] * 4
        assert all(row[4] != "nan" for row in rows)

    @pytest.mark.parametrize("n_grid", ["256", "256,256"])
    def test_rates_one_size_prints_nan_slope(self, capsys, n_grid):
        assert main(["rates", "--n-grid", n_grid, "--reps", "2", "--n-test", "16"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert rows
        assert all(row[4:] == ["nan", "nan"] and row[3] != "nan" for row in rows)

    @pytest.mark.parametrize("flag, name", [("--reps", "reps"), ("--n-test", "n_test")])
    def test_rates_rejects_zero_counts(self, capsys, flag, name):
        argv = ["rates", "--n-grid", "256,512", "--reps", "2", "--n-test", "16", flag, "0"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert f"{name} must be at least 1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("frac", ["1.5", "0"])
    def test_bench_fraction_outside_unit_interval_exits_one(self, capsys, frac):
        assert main(["bench", "--data", "iris", "--frac", frac]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: train_fraction must lie in (0, 1]\n"
        assert captured.out == ""

    def test_theory_names_each_failed_problem(self, capsys):
        # balls of radius 2-3 leave the problems' support, so both fits fail
        assert main(["theory", "--r-min", "2", "--r-max", "3"]) == 3
        captured = capsys.readouterr()
        rows = captured.out.splitlines()
        assert rows[0] == "problem,d,b0_fitted,eta_at_center,b1_fitted,b1_analytic,rel_err"
        errors = captured.err.splitlines()
        assert len(errors) == 2
        for row, error in zip(rows[1:], errors):
            name, rel_err = row.split(",")[0], row.split(",")[-1]
            assert error.startswith(f"numerical failure: {name}: rel_err {rel_err} exceeds 0.05")

    def test_verbose_fit_diagnostics(self, capsys):
        report = run_benchmark(iris_cfg(repeats=1, methods=("msknn-r",)), verbose=True)
        assert report.rows
        err = capsys.readouterr().err
        assert "fit diagnostics" in err and "cond=" in err and "max|z|=" in err


class TestNonFiniteFeatures:
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_cli_exits_two_naming_row_and_column(self, tmp_path, capsys, cell):
        rng = np.random.default_rng(0)
        rows = [f"{rng.normal():.6f},{rng.normal():.6f},{i % 2}" for i in range(80)]
        rows[17] = f"0.5,{cell},1"
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(rows) + "\n")
        assert main(["bench", "--data", str(path), "--repeats", "1"]) == 2
        err = capsys.readouterr().err
        assert f"{path}: row 17, column 1: non-finite feature value '{cell}'" in err
        assert "SVD" not in err and "DLASCL" not in err


class TestSingularQueriesDegradePerQuery:
    def test_lambda_zero_grid_reports_every_method(self, tmp_path, capsys):
        # 3x3 integer grid: tied radii make many lambda = 0 designs singular
        rng = np.random.default_rng(0)
        pts = rng.integers(0, 3, size=(300, 2))
        labels = (pts.sum(axis=1) + rng.integers(0, 2, 300)) % 2
        path = tmp_path / "grid.csv"
        np.savetxt(path, np.column_stack([pts, labels]), fmt="%d", delimiter=",")
        for verbose in ([], ["--verbose"]):
            assert main(["bench", "--data", str(path), "--lambda", "0", "--C", "4", *verbose]) == 0
            captured = capsys.readouterr()
            methods = [line.split(",")[4] for line in captured.out.splitlines()[1:]]
            assert sorted(methods) == sorted(["uniform", "snn", "srw", "msknn-r", "msknn-log"])
            assert "skipped" not in captured.err
            counts = {}
            for line in captured.err.splitlines():
                if "rank-deficient design" in line:
                    meth, rest = line.removeprefix("# grid ").split(": ")
                    counts[meth] = int(rest.split(" of ")[0])
                    assert rest.split(" of ")[1].startswith("900 queries")
            assert set(counts) == {"msknn-r", "msknn-log"}
            assert counts["msknn-r"] > 0 and counts["msknn-log"] == 0


class TestTracerProbes:
    def test_every_probed_name_resolves(self):
        # perfbench's --trace 1 wraps these names; a rename must fail here too
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        for name, _, _ in tracer.PROBES:
            owner, attr = tracer.resolve(name)
            assert callable(vars(owner)[attr]), name
