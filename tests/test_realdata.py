import numpy as np
import pytest

from rboost import Dataset, realdata_experiment


def make_tabular(rng, m=120, d=4):
    X = rng.uniform(-1, 1, (m, d))
    y = 2.0 * X[:, 0] - X[:, 1] + 0.5 * np.abs(X[:, 2]) + 0.2 * rng.standard_normal(m)
    return Dataset(X, y)


class TestRealDataExperiment:
    def test_reports_all_methods(self):
        data = make_tabular(np.random.default_rng(81))
        report = realdata_experiment(data=data, k_max=25, grid=[1, 10, 100], seed=3)
        assert set(report.methods) == {"boosting", "rboosting", "ddrboosting"}
        assert report.train_m == 60 and report.test_m == 60
        for name, outcome in report.methods.items():
            assert outcome.test_rmse >= 0.0
            assert outcome.selected["k"] >= 1
            if name == "rboosting":
                assert outcome.selected["u"] in (1, 10, 100)

    def test_deterministic_with_same_seed(self):
        data = make_tabular(np.random.default_rng(82))
        a = realdata_experiment(data=data, k_max=15, grid=[1, 100], seed=5)
        b = realdata_experiment(data=data, k_max=15, grid=[1, 100], seed=5)
        assert {k: v.test_rmse for k, v in a.methods.items()} == {
            k: v.test_rmse for k, v in b.methods.items()
        }

    def test_seed_changes_split(self):
        data = make_tabular(np.random.default_rng(83))
        a = realdata_experiment(data=data, k_max=15, grid=[1, 100], seed=5)
        b = realdata_experiment(data=data, k_max=15, grid=[1, 100], seed=6)
        assert any(
            a.methods[k].test_rmse != b.methods[k].test_rmse for k in a.methods
        )

    def test_pre_split_degenerate_train_equals_test(self):
        # With test == train, the re-scaled model's test RMSE equals its
        # training RMSE at the selected iteration.
        rng = np.random.default_rng(84)
        data = make_tabular(rng, m=80)
        report = realdata_experiment(pre_split=(data, data), k_max=20, grid=[1, 10], seed=0)
        from rboost import TrainConfig, TreeLearnerSpec
        from rboost.boosters import train_rboosting

        sel = report.methods["rboosting"].selected
        cfg = TrainConfig("rboosting", sel["k"], TreeLearnerSpec(1), u=sel["u"])
        model, trace = train_rboosting(data, cfg)
        assert report.methods["rboosting"].test_rmse == pytest.approx(
            float(np.sqrt(trace.risk[-1])), rel=1e-12
        )

    def test_all_zero_learning_half_gives_empty_models(self):
        # Selection sees only zero targets, so every method picks k = 0; the
        # reported model is then the zero predictor, not a one-stage refit on
        # the whole training half.
        from rboost.bench import rmse
        from rboost.realdata import _SELECT_SALT
        from rboost.selection import split_learn_validate

        rng = np.random.default_rng(87)
        train = make_tabular(rng, m=40)
        test = make_tabular(rng, m=30)
        select_seed = int(np.random.SeedSequence([4, _SELECT_SALT]).generate_state(1)[0])
        learn_rows = np.random.default_rng(select_seed).permutation(train.m)[: train.m // 2]
        y = train.targets.copy()
        y[learn_rows] = 0.0
        train = Dataset(train.features, y)
        assert not split_learn_validate(train, select_seed)[0].targets.any()
        report = realdata_experiment(pre_split=(train, test), k_max=10, grid=[1, 10], seed=4)
        for name, outcome in report.methods.items():
            assert outcome.selected["k"] == 0, name
            assert outcome.test_rmse == rmse(np.zeros(test.m), test.targets), name

    def test_rejects_ambiguous_inputs(self):
        data = make_tabular(np.random.default_rng(85))
        with pytest.raises(ValueError):
            realdata_experiment()
        with pytest.raises(ValueError):
            realdata_experiment(data=data, pre_split=(data, data))

    def test_rejects_tiny_data(self):
        tiny = Dataset([[0.0], [1.0]], [0.0, 1.0])
        with pytest.raises(ValueError):
            realdata_experiment(data=tiny)

    @pytest.mark.parametrize("bound", [0, float("nan")])
    def test_bad_clip_bound_fails_before_training(self, monkeypatch, bound):
        import rboost.realdata
        import rboost.selection

        def no_training(*args):
            raise AssertionError("train was called")

        for module in (rboost.realdata, rboost.selection):
            monkeypatch.setattr(module, "train", no_training)
        data = make_tabular(np.random.default_rng(88), m=20)
        with pytest.raises(ValueError, match="clip bound"):
            realdata_experiment(data=data, k_max=3, grid=[1], clip_bound=bound)

    @pytest.mark.parametrize("mode", ["data", "pre_split"])
    def test_rejects_a_negative_seed_before_training(self, monkeypatch, mode):
        # Both input modes reject it before any fit, naming the field.
        import rboost.realdata
        import rboost.selection

        def no_training(*args):
            raise AssertionError("train was called")

        for module in (rboost.realdata, rboost.selection):
            monkeypatch.setattr(module, "train", no_training)
        data = make_tabular(np.random.default_rng(89), m=20)
        inputs = {"data": data} if mode == "data" else {"pre_split": (data, data)}
        with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
            realdata_experiment(**inputs, k_max=3, grid=[1], seed=-3)

    @pytest.mark.parametrize("seed", [1.5, np.nan])
    def test_rejects_a_seed_that_is_not_an_integer_before_training(self, monkeypatch, seed):
        import rboost.realdata
        import rboost.selection

        def no_training(*args):
            raise AssertionError("train was called")

        for module in (rboost.realdata, rboost.selection):
            monkeypatch.setattr(module, "train", no_training)
        data = make_tabular(np.random.default_rng(89), m=20)
        with pytest.raises(ValueError, match="seed must be an integer, got"):
            realdata_experiment(data=data, k_max=3, grid=[1], seed=seed)

    def test_rejects_pre_split_halves_of_two_widths_before_training(self, monkeypatch):
        import rboost.realdata
        import rboost.selection

        def no_training(*args):
            raise AssertionError("train was called")

        for module in (rboost.realdata, rboost.selection):
            monkeypatch.setattr(module, "train", no_training)
        rng = np.random.default_rng(90)
        train, test = make_tabular(rng, m=20, d=3), make_tabular(rng, m=20, d=3)
        test = Dataset(test.features[:, :2], test.targets)
        with pytest.raises(ValueError, match="pre_split train has d=3 features but test has d=2"):
            realdata_experiment(pre_split=(train, test), k_max=3, grid=[1])

    def test_stumps_by_default(self):
        data = make_tabular(np.random.default_rng(86))
        report = realdata_experiment(data=data, k_max=10, grid=[1], seed=1)
        assert report.methods["rboosting"].test_rmse > 0.0
