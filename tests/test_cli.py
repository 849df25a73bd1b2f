import json

import numpy as np
import pytest

import rboost.io as rio
from rboost.cli import main
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


class TestDispatch:
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
        model_doc = json.loads((out / "model.json").read_text())
        assert model_doc["meta"]["algorithm"] == "rboosting"


_TINY_BENCH = ["--trials", "1", "--k-max", "1", "--grid", "2:1:10", "--train-m", "6", "--test-m", "4"]


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
