import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rboost.io as rio
from rboost.cli import _build_parser, main
from rboost.io import read_delimited


def run_cli(args):
    return main(list(args))


def write_constant_csv(path, rows=24, value=5.0):
    lines = ["x0,x1,y"]
    rng = np.random.default_rng(90)
    for _ in range(rows):
        a, b = rng.uniform(-1, 1, 2)
        lines.append(f"{float(a)!r},{float(b)!r},{float(value)!r}")
    path.write_text("\n".join(lines) + "\n")


_BENCH_DEFAULTS = {
    "trials": 20, "j": 4, "k_max": 500, "grid": "20:1:1e6", "seed": 0, "clip": None, "train_m": 500,
    "test_m": 1000, "workers": 1, "out": None,
}
_SCHEMA_DEFAULTS = {"target_column": None, "no_header": False, "delimiter": ","}

# Each subcommand with only its required positionals, and what it parses to.
_PARSED_DEFAULTS = [
    (["simulate"], {"target": [3], "sigma": [0.0], "algo": "all", **_BENCH_DEFAULTS}),
    (["ucurve"], {"target": 4, "sigma": 0.5, **_BENCH_DEFAULTS}),
    (["adaptive"], {"target": 4, "sigma": 0.5, **_BENCH_DEFAULTS}),
    (["fit", "d.csv"], {"data": "d.csv", "algo": "rboost", "u": 1, "j": 4, "k_max": 500, "seed": 0,
                        "clip": None, "out": ".", **_SCHEMA_DEFAULTS}),
    (["predict", "m.json", "d.csv"], {"model": "m.json", "data": "d.csv", "clip": None, "out": None, "seed": 0,
                                      **_SCHEMA_DEFAULTS}),
    (["realdata"], {"data": None, "pre_split": None, "j": 1, "k_max": 500, "grid": "20:1:1e6", "seed": 0,
                    "clip": None, "out": None, **_SCHEMA_DEFAULTS}),
    (["report", "r.csv"], {"rows": ["r.csv"]}),
]


class TestDispatch:
    @pytest.mark.parametrize("args, status, stream, text", [
        (["--help"], 0, "stdout", "usage: rboost"),
        (["frobnicate"], 2, "stderr", "invalid choice"),
    ])
    def test_module_form_runs_the_cli(self, args, status, stream, text):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "rboost.cli", *args], capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == status
        assert text in getattr(done, stream)

    def test_unknown_subcommand_exits_2(self, capsys):
        assert run_cli(["frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag_exits_2(self, capsys):
        assert run_cli(["simulate", "--bogus"]) == 2

    def test_missing_file_exits_1(self, capsys):
        assert run_cli(["fit", "no-such-file.csv"]) == 1
        assert "error" in capsys.readouterr().err

    def test_version_exits_0(self, capsys):
        assert run_cli(["--version"]) == 0
        assert "rboost" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, defaults", _PARSED_DEFAULTS, ids=[argv[0] for argv, _ in _PARSED_DEFAULTS])
    def test_each_subcommand_parses_to_its_defaults(self, argv, defaults):
        args = vars(_build_parser().parse_args(argv))
        del args["handler"]
        assert args == {"subcommand": argv[0], **defaults}


class TestSimulate:
    def test_emits_table_and_rows(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_cli(
            [
                "simulate", "--target", "3", "--sigma", "0", "--trials", "2",
                "--j", "1", "--k-max", "5", "--grid", "2:1:100", "--seed", "7",
                "--train-m", "40", "--test-m", "30", "--out", str(out),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "mean_rmse" in stdout and "rboosting" in stdout
        columns, rows = read_delimited(out / "results.csv")
        assert columns == ["target", "sigma", "algorithm", "trial", "rmse", "selected_u", "selected_k"]
        # 3 algorithms x (2 trials + mean + std)
        assert len(rows) == 12
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["results.csv"]
        assert manifest["config"]["trials"] == 2

    def test_single_algorithm_selection(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            [
                "simulate", "--target", "1", "--sigma", "0.5", "--algo", "boost",
                "--trials", "2", "--j", "1", "--k-max", "4", "--train-m", "30",
                "--test-m", "20", "--out", str(out),
            ]
        )
        assert code == 0
        _, rows = read_delimited(out / "results.csv")
        assert {r[2] for r in rows} == {"boosting"}

    def test_rerun_is_byte_identical(self, tmp_path):
        args = [
            "simulate", "--target", "3", "--sigma", "0.5", "--trials", "2",
            "--j", "1", "--k-max", "4", "--grid", "2:1:10", "--train-m", "30",
            "--test-m", "20",
        ]
        out = tmp_path / "run"
        assert run_cli([*args, "--out", str(out)]) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run_cli([*args, "--out", str(out)]) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second


    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_a_sigma_that_is_not_a_finite_number_fails_before_any_output(self, tmp_path, capsys, sigma):
        out = tmp_path / "run"
        assert run_cli(["simulate", "--target", "3", "--sigma", sigma, *_TINY_BENCH, "--out", str(out)]) == 1
        assert f"noise_sigma must be a finite number >= 0, got {sigma}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid, message", [
        ("3:1:inf", "hi must be finite, got inf"), ("2.5:1:10", "count must be an integer, got 2.5"),
    ])
    def test_a_fractional_grid_count_or_an_infinite_grid_end_fails_by_name(self, tmp_path, capsys, grid, message):
        out = tmp_path / "run"
        assert run_cli(["simulate", "--target", "3", *_TINY_BENCH, "--grid", grid, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

class TestUcurve:
    def test_emits_one_row_per_grid_point(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            [
                "ucurve", "--target", "4", "--sigma", "0.5", "--trials", "2",
                "--j", "1", "--k-max", "4", "--grid", "3:1:100", "--train-m", "30",
                "--test-m", "20", "--out", str(out),
            ]
        )
        assert code == 0
        columns, rows = read_delimited(out / "ucurve.csv")
        assert columns == ["u", "mean_rmse", "std_rmse"]
        assert [r[0] for r in rows] == ["1", "10", "100"]


class TestAdaptive:
    def test_reports_adaptive_and_ideal(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_cli(
            [
                "adaptive", "--target", "3", "--sigma", "0.5", "--trials", "2",
                "--j", "1", "--k-max", "5", "--grid", "2:1:100", "--train-m", "40",
                "--test-m", "20", "--out", str(out),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "rboosting_adaptive" in stdout and "rboosting_ideal" in stdout
        _, rows = read_delimited(out / "adaptive.csv")
        assert {r[2] for r in rows} == {"rboosting_adaptive", "rboosting_ideal"}


class TestFitPredict:
    def test_constant_target_round_trip(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        write_constant_csv(data, value=5.0)
        out = tmp_path / "model"
        assert run_cli(["fit", str(data), "--algo", "boost", "--j", "1", "--k-max", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        # predict on the same file (target column present and ignored)
        assert run_cli(["predict", str(out / "model.json"), str(data)]) == 0
        values = [float(line) for line in capsys.readouterr().out.splitlines()]
        assert values == pytest.approx([5.0] * 24, abs=1e-12)

    def test_predict_features_only_and_outdir(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        write_constant_csv(data, value=2.0)
        model_dir = tmp_path / "model"
        assert run_cli(["fit", str(data), "--algo", "rboost", "--u", "3", "--j", "1", "--k-max", "2", "--out", str(model_dir)]) == 0
        features = tmp_path / "features.csv"
        features.write_text("x0,x1\n0.1,0.2\n-0.5,0.9\n")
        pred_dir = tmp_path / "preds"
        assert run_cli(["predict", str(model_dir / "model.json"), str(features), "--out", str(pred_dir)]) == 0
        columns, rows = read_delimited(pred_dir / "predictions.csv")
        assert columns == ["prediction"]
        assert [float(r[0]) for r in rows] == pytest.approx([2.0, 2.0], abs=1e-12)

    @pytest.mark.parametrize("target_flags", [[], ["--target-column", "y"], ["--target-column", "1"]])
    def test_predict_drops_target_after_one_read(self, tmp_path, capsys, monkeypatch, target_flags):
        rng = np.random.default_rng(5)
        X = rng.uniform(-1, 1, (30, 2))
        y = np.sin(3 * X[:, 0]) + X[:, 1]
        train = tmp_path / "train.csv"
        train.write_text("x0,x1,y\n" + "".join(f"{a!r},{b!r},{t!r}\n" for (a, b), t in zip(X.tolist(), y.tolist())))
        model = tmp_path / "model"
        assert run_cli(["fit", str(train), "--algo", "rboost", "--u", "3", "--j", "2", "--k-max", "5", "--out", str(model)]) == 0
        capsys.readouterr()
        features = tmp_path / "features.csv"
        features.write_text("x0,x1\n" + "".join(f"{a!r},{b!r}\n" for a, b in X.tolist()))
        assert run_cli(["predict", str(model / "model.json"), str(features)]) == 0
        want = capsys.readouterr().out

        # target last by default, else in the middle, named or by index
        cols = [0, 1, 2] if not target_flags else [0, 2, 1]
        table = np.column_stack([X, y])[:, cols]
        header = ",".join(["x0", "x1", "y"][c] for c in cols)
        scored = tmp_path / "scored.csv"
        scored.write_text(header + "\n" + "".join(",".join(repr(v) for v in row) + "\n" for row in table.tolist()))
        reads = []
        real_open_table = rio._open_table
        monkeypatch.setattr(rio, "_open_table", lambda path: reads.append(path) or real_open_table(path))
        assert run_cli(["predict", str(model / "model.json"), str(scored), *target_flags]) == 0
        assert capsys.readouterr().out == want
        assert reads == [str(scored)]

    def test_predict_writes_one_rendered_line_per_row(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        X = rng.uniform(-1, 1, (40, 2))
        train = tmp_path / "train.csv"
        train.write_text("x0,x1,y\n" + "".join(f"{a!r},{b!r},{a * b!r}\n" for a, b in X.tolist()))
        model = tmp_path / "model"
        assert run_cli(["fit", str(train), "--algo", "boost", "--j", "2", "--k-max", "4", "--out", str(model)]) == 0
        capsys.readouterr()
        assert run_cli(["predict", str(model / "model.json"), str(train)]) == 0
        preds = rio.load_model(model / "model.json")[0].predict(X)
        assert capsys.readouterr().out == "".join(rio.fmt(p) + "\n" for p in preds.tolist())

    def test_predict_stdout_lines_are_the_data_lines_of_the_predictions_file(self, tmp_path, capsys):
        rng = np.random.default_rng(9)
        X = rng.uniform(-1, 1, (50, 2))
        train = tmp_path / "train.csv"
        train.write_text("x0,x1,y\n" + "".join(f"{a!r},{b!r},{a - b * b!r}\n" for a, b in X.tolist()))
        model = tmp_path / "model"
        assert run_cli(["fit", str(train), "--j", "2", "--k-max", "6", "--out", str(model)]) == 0
        capsys.readouterr()
        assert run_cli(["predict", str(model / "model.json"), str(train)]) == 0
        stdout = capsys.readouterr().out
        assert run_cli(["predict", str(model / "model.json"), str(train), "--out", str(tmp_path / "preds")]) == 0
        lines = (tmp_path / "preds" / "predictions.csv").read_text().splitlines(keepends=True)
        assert lines[:3] == ["# manifest: manifest.json\n", "# columns: prediction\n", "prediction\n"]
        assert stdout == "".join(lines[3:]) and len(lines[3:]) == 50

    @pytest.mark.parametrize("bound", ['"abc"', "[1]", "true"])
    def test_predict_rejects_a_hand_edited_clip_bound(self, tmp_path, capsys, bound):
        data = tmp_path / "train.csv"
        write_constant_csv(data)
        model = tmp_path / "model"
        assert run_cli(["fit", str(data), "--j", "1", "--k-max", "2", "--out", str(model)]) == 0
        text = (model / "model.json").read_text()
        assert '"clip_bound": null' in text
        (model / "model.json").write_text(text.replace('"clip_bound": null', f'"clip_bound": {bound}'))
        capsys.readouterr()
        assert run_cli(["predict", str(model / "model.json"), str(data)]) == 1
        captured = capsys.readouterr()
        assert f"meta.clip_bound: clip bound must be null or a JSON number, got {bound}" in captured.err
        assert captured.out == ""

    def test_fit_rejects_all(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        write_constant_csv(data)
        assert run_cli(["fit", str(data), "--algo", "all"]) == 2  # not a valid choice

    def test_fit_names_the_first_column_after_a_byte_order_mark(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        rng = np.random.default_rng(92)
        rows = "".join(f"5.0,{float(x)!r}\n" for x in rng.uniform(-1, 1, 24))
        data.write_text("a,x0\n" + rows, encoding="utf-8-sig")
        out = tmp_path / "model"
        assert run_cli(["fit", str(data), "--target-column", "a", "--j", "1", "--k-max", "2", "--out", str(out)]) == 0
        model_doc = json.loads((out / "model.json").read_text())
        assert model_doc["meta"]["train_rows"] == 24
        assert "training rmse" in capsys.readouterr().out

    def test_fit_manifest_references_model(self, tmp_path):
        data = tmp_path / "train.csv"
        write_constant_csv(data)
        out = tmp_path / "model"
        assert run_cli(["fit", str(data), "--j", "1", "--k-max", "2", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["model.json"]
        assert manifest["seed"] == 0 and manifest["config"]["seed"] == 0
        model_doc = json.loads((out / "model.json").read_text())
        assert model_doc["meta"]["algorithm"] == "rboosting"

    @pytest.mark.parametrize("algo", ["boost", "rboost", "ddr"])
    @pytest.mark.parametrize("u", ["0", "-2"])
    def test_fit_rejects_a_u_that_is_not_a_positive_integer_under_every_algorithm(self, tmp_path, capsys, algo, u):
        # Every algorithm records u in the model meta, so every one checks it, before reading the data.
        out = tmp_path / "model"
        assert run_cli(["fit", str(tmp_path / "missing.csv"), "--algo", algo, "--u", u, "--out", str(out)]) == 1
        assert f"u must be a positive integer, got {u}" in capsys.readouterr().err
        assert not out.exists()

    def test_fit_takes_no_seed(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        write_constant_csv(data)
        assert run_cli(["fit", str(data), "--seed", "3", "--out", str(tmp_path / "model")]) == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
        assert not (tmp_path / "model").exists()


_TINY_BENCH = ["--trials", "1", "--k-max", "1", "--grid", "2:1:10", "--train-m", "6", "--test-m", "4"]


class TestWorkersFlag:
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_ucurve_rejects_a_workers_count_below_one(self, tmp_path, capsys, workers):
        out = tmp_path / "run"
        assert run_cli(["ucurve", *_TINY_BENCH, "--target", "1", "--workers", workers, "--out", str(out)]) == 1
        assert f"workers must be a positive integer, got {workers}" in capsys.readouterr().err
        assert not out.exists()


class TestClipFlag:
    """A bound M <= 0 is rejected while the arguments are parsed, before any work starts."""

    def test_fit_rejects_a_nonpositive_clip_before_training(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        write_constant_csv(data)
        out = tmp_path / "model"
        assert run_cli(["fit", str(data), "--j", "1", "--k-max", "2", "--clip", "0", "--out", str(out)]) == 1
        assert "--clip must be > 0, got 0" in capsys.readouterr().err
        assert not (out / "model.json").exists()

    def test_simulate_rejects_a_negative_clip(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli(["simulate", *_TINY_BENCH, "--clip", "-1", "--out", str(out)]) == 1
        assert "--clip must be > 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["ucurve", *_TINY_BENCH], ["adaptive", *_TINY_BENCH], ["predict", "model.json", "x.csv"],
         ["realdata", "data.csv"]],
    )
    @pytest.mark.parametrize("bound", ["0", "-0.5", "nan"])
    def test_every_subcommand_checks_the_bound_while_parsing(self, argv, bound, capsys):
        # The files do not exist: only a parse-time rejection names the bound.
        assert run_cli([*argv, "--clip", bound]) == 1
        assert f"--clip must be > 0, got {bound}" in capsys.readouterr().err

    def test_a_non_number_stays_a_usage_error(self, capsys):
        assert run_cli(["fit", "train.csv", "--clip", "abc"]) == 2
        assert "usage" in capsys.readouterr().err.lower()


class TestRealdataCommand:
    def _write_tabular(self, path, m=60, seed=91):
        rng = np.random.default_rng(seed)
        lines = ["a,b,y"]
        for _ in range(m):
            x1, x2 = rng.uniform(-1, 1, 2)
            y = 2 * x1 - x2 + 0.1 * rng.standard_normal()
            lines.append(f"{float(x1)!r},{float(x2)!r},{float(y)!r}")
        path.write_text("\n".join(lines) + "\n")

    def test_shuffled_half_split(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        self._write_tabular(data)
        out = tmp_path / "run"
        code = run_cli(
            ["realdata", str(data), "--k-max", "10", "--grid", "2:1:100", "--out", str(out)]
        )
        assert code == 0
        columns, rows = read_delimited(out / "realdata.csv")
        assert columns[:2] == ["algorithm", "test_rmse"]
        assert {r[0] for r in rows} == {"boosting", "rboosting", "ddrboosting"}

    def test_pre_split_mode(self, tmp_path, capsys):
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        self._write_tabular(train, m=40, seed=92)
        self._write_tabular(test, m=20, seed=93)
        code = run_cli(
            ["realdata", "--pre-split", str(train), str(test), "--k-max", "8", "--grid", "2:1:10"]
        )
        assert code == 0
        assert "rboosting" in capsys.readouterr().out

    def test_requires_some_input(self, capsys):
        assert run_cli(["realdata", "--k-max", "5"]) == 1

    @pytest.mark.parametrize("pre_split", [False, True], ids=["data", "pre_split"])
    def test_rejects_a_negative_seed(self, tmp_path, capsys, pre_split):
        data = tmp_path / "d.csv"
        self._write_tabular(data, m=20)
        inputs = ["--pre-split", str(data), str(data)] if pre_split else [str(data)]
        out = tmp_path / "run"
        assert run_cli(["realdata", *inputs, "--k-max", "2", "--grid", "2:1:10", "--seed", "-3", "--out", str(out)]) == 1
        assert "seed must be >= 0, got -3" in capsys.readouterr().err
        assert not out.exists()

    def test_rejects_both_inputs(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        self._write_tabular(data, m=20)
        code = run_cli(["realdata", str(data), "--pre-split", str(data), str(data)])
        assert code == 1
        assert "not both" in capsys.readouterr().err


class TestReport:
    def test_renders_stored_rows(self, tmp_path, capsys):
        out = tmp_path / "run"
        run_cli(
            [
                "ucurve", "--target", "1", "--sigma", "0", "--trials", "2", "--j", "1",
                "--k-max", "3", "--grid", "2:1:10", "--train-m", "30", "--test-m", "20",
                "--out", str(out),
            ]
        )
        capsys.readouterr()
        assert run_cli(["report", str(out / "ucurve.csv")]) == 0
        stdout = capsys.readouterr().out
        assert "mean_rmse" in stdout
        assert stdout.splitlines()[0].startswith("u")
