import numpy as np
import pytest

from rboost import (
    Dataset,
    TrainConfig,
    TreeLearnerSpec,
    adaptive_select,
    split_learn_validate,
    train,
    u_grid,
)
from rboost.boosters import train_rboosting
from rboost.selection import select_k_by_validation


class TestUGrid:
    def test_printed_endpoints(self):
        grid = u_grid(20, 1, 10**6)
        assert grid[0] == 1
        assert grid[-1] == 1000000

    def test_two_point_grid(self):
        assert u_grid(2, 1, 100) == [1, 100]

    def test_matches_independent_log_space_computation(self):
        # Oracle: 10**(6 i / 19) rounded half-up, computed from scratch.
        grid = u_grid(20, 1, 10**6)
        expected = []
        for i in range(20):
            v = max(1, int(np.floor(10 ** (6 * i / 19) + 0.5)))
            if not expected or expected[-1] != v:
                expected.append(v)
        assert grid == expected

    def test_non_decreasing_and_deduplicated(self):
        grid = u_grid(25, 1, 50)
        assert all(b > a for a, b in zip(grid[:-1], grid[1:]))
        assert grid[0] == 1 and grid[-1] == 50

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            u_grid(1, 1, 10)
        with pytest.raises(ValueError):
            u_grid(5, 0.5, 10)
        with pytest.raises(ValueError):
            u_grid(5, 10, 10)


class TestSplitLearnValidate:
    def test_even_split_sizes(self):
        data = Dataset(np.arange(500, dtype=float).reshape(-1, 1), np.zeros(500))
        learn, validate = split_learn_validate(data)
        assert (learn.m, validate.m) == (250, 250)

    def test_odd_sizes(self):
        data = Dataset(np.arange(5, dtype=float).reshape(-1, 1), np.zeros(5))
        learn, validate = split_learn_validate(data)
        assert (learn.m, validate.m) == (2, 3)

    def test_minimal(self):
        data = Dataset(np.arange(2, dtype=float).reshape(-1, 1), np.zeros(2))
        learn, validate = split_learn_validate(data)
        assert (learn.m, validate.m) == (1, 1)

    def test_rejects_single_row(self):
        with pytest.raises(ValueError):
            split_learn_validate(Dataset([[1.0]], [1.0]))

    def test_no_shuffle_keeps_order(self):
        data = Dataset(np.arange(6, dtype=float).reshape(-1, 1), np.arange(6, dtype=float))
        learn, validate = split_learn_validate(data)
        assert learn.targets.tolist() == [0, 1, 2]
        assert validate.targets.tolist() == [3, 4, 5]

    def test_seeded_shuffle_is_deterministic_partition(self):
        data = Dataset(np.arange(20, dtype=float).reshape(-1, 1), np.arange(20, dtype=float))
        l1, v1 = split_learn_validate(data, shuffle_seed=7)
        l2, v2 = split_learn_validate(data, shuffle_seed=7)
        assert np.array_equal(l1.targets, l2.targets)
        assert np.array_equal(v1.targets, v2.targets)
        combined = sorted(l1.targets.tolist() + v1.targets.tolist())
        assert combined == list(range(20))
        l3, _ = split_learn_validate(data, shuffle_seed=8)
        assert not np.array_equal(l1.targets, l3.targets)


def toy_config(k):
    return TrainConfig("rboosting", k, learner_spec=TreeLearnerSpec(1), u=1)


class TestAdaptiveSelect:
    def test_singleton_grid(self):
        rng = np.random.default_rng(51)
        X = rng.uniform(-2, 2, (60, 1))
        y = np.sign(X[:, 0]) + 0.2 * rng.standard_normal(60)
        data = Dataset(X, y)
        learn, validate = split_learn_validate(data)
        result = adaptive_select(learn, validate, [7], 15, toy_config(15))
        assert result.chosen_u == 7
        assert len(result.per_u_curve) == 1
        # chosen_k is the argmin over truncations of the validation risk
        model, _ = train_rboosting(learn, TrainConfig("rboosting", 15, TreeLearnerSpec(1), u=7))
        risks = np.mean((model.staged_predict(validate.features) - validate.targets) ** 2, axis=1)
        assert result.chosen_k == int(np.argmin(risks)) + 1
        assert result.validation_risk == pytest.approx(float(risks.min()), rel=1e-12)

    def test_validation_equal_to_learning_half(self):
        # Duplicated rows make the unshuffled halves identical; a noiseless
        # perfectly fittable step target then drives risk to ~0 at the first
        # k that captures the step.
        x = np.linspace(-1, 1, 16)
        y = np.where(x > 0, 1.0, -1.0)
        data = Dataset(np.concatenate([x, x]).reshape(-1, 1), np.concatenate([y, y]))
        result = adaptive_select(*split_learn_validate(data), [1000000], 6, toy_config(6))
        assert result.validation_risk == pytest.approx(0.0, abs=1e-20)
        assert result.chosen_k == 1  # a single stump already fits the step

    def test_curve_covers_grid_and_min_matches(self):
        rng = np.random.default_rng(52)
        X = rng.uniform(-2, 2, (80, 1))
        y = X[:, 0] ** 2 + 0.3 * rng.standard_normal(80)
        data = Dataset(X, y)
        grid = [1, 10, 1000]
        result = adaptive_select(*split_learn_validate(data, shuffle_seed=3), grid, 12, toy_config(12))
        assert [u for u, _, _ in result.per_u_curve] == grid
        assert result.validation_risk == min(r for _, _, r in result.per_u_curve)
        assert (result.chosen_u, result.chosen_k, result.validation_risk) in [
            (u, k, r) for u, k, r in result.per_u_curve
        ]

    def test_the_chosen_pair_trains_on_the_rows_the_caller_picks(self):
        rng = np.random.default_rng(53)
        X = rng.uniform(-2, 2, (40, 1))
        y = X[:, 0] + 0.1 * rng.standard_normal(40)
        data = Dataset(X, y)
        learn, validate = split_learn_validate(data)
        result = adaptive_select(learn, validate, [5], 8, toy_config(8))
        chosen = TrainConfig("rboosting", result.chosen_k, TreeLearnerSpec(1), u=result.chosen_u)
        retrained, _ = train(data, chosen)
        half_only, _ = train(learn, chosen)
        assert len(retrained) == result.chosen_k
        assert len(half_only) == min(result.chosen_k, 8)
        # Retraining sees all 40 rows, so the models genuinely differ.
        assert not np.allclose(retrained.predict(X), half_only.predict(X))

    def test_sweeps_select_k_by_validation_once_per_grid_value(self, monkeypatch):
        import rboost.selection as selection

        rng = np.random.default_rng(59)
        X = rng.uniform(-2, 2, (30, 1))
        data = Dataset(X, np.sin(X[:, 0]))
        learn, validate = split_learn_validate(data)
        real = selection.select_k_by_validation
        configs = []
        monkeypatch.setattr(
            selection, "select_k_by_validation", lambda *a: configs.append(a[2]) or real(*a)
        )
        grid = [1, 4, 40]
        result = adaptive_select(learn, validate, grid, 5, TrainConfig("boosting", 2, TreeLearnerSpec(1)))
        assert [(c.algorithm, c.u) for c in configs] == [("rboosting", u) for u in grid]
        assert list(result.per_u_curve) == [
            (u, *real(learn, validate, TrainConfig("rboosting", 5, TreeLearnerSpec(1), u=u), 5)) for u in grid
        ]

    def test_hands_the_clip_bound_to_every_fit(self, monkeypatch):
        import rboost.selection as selection

        rng = np.random.default_rng(62)
        X = rng.uniform(-2, 2, (30, 1))
        learn, validate = split_learn_validate(Dataset(X, 2 * np.sin(X[:, 0])))
        real = selection.select_k_by_validation
        bounds = []
        monkeypatch.setattr(selection, "select_k_by_validation", lambda *a: bounds.append(a[4]) or real(*a))
        result = adaptive_select(learn, validate, [1, 40], 5, toy_config(5), clip_bound=0.5)
        assert bounds == [0.5, 0.5]
        assert list(result.per_u_curve) == [
            (u, *real(learn, validate, TrainConfig("rboosting", 5, TreeLearnerSpec(1), u=u), 5, 0.5)) for u in [1, 40]
        ]

    def test_rejects_a_bad_bound_before_training(self, monkeypatch):
        import rboost.selection as selection

        monkeypatch.setattr(selection, "train", lambda *a: pytest.fail("trained with a bad bound"))
        data = Dataset([[0.0], [1.0]], [0.0, 1.0])
        for bound in (0.0, float("nan")):
            with pytest.raises(ValueError, match="clip bound"):
                adaptive_select(*split_learn_validate(data), [1], 5, toy_config(5), clip_bound=bound)

    def test_rejects_non_integer_grid_values(self):
        data = Dataset(np.arange(8.0).reshape(-1, 1), np.arange(8.0))
        with pytest.raises(ValueError, match="u must be a positive integer"):
            adaptive_select(*split_learn_validate(data), [2.5, 7.9], 3, toy_config(3))

    def test_integral_grid_values_are_recorded_as_python_ints(self):
        data = Dataset(np.arange(8.0).reshape(-1, 1), np.arange(8.0))
        result = adaptive_select(*split_learn_validate(data), [np.int64(2), 7.0], 3, toy_config(3))
        assert [type(u) for u, _, _ in result.per_u_curve] == [int, int]
        assert [u for u, _, _ in result.per_u_curve] == [2, 7]
        assert type(result.chosen_u) is int

    def test_rejects_empty_grid(self):
        data = Dataset([[0.0], [1.0]], [0.0, 1.0])
        with pytest.raises(ValueError):
            adaptive_select(*split_learn_validate(data), [], 5, toy_config(5))


class TestSelectKByHoldout:
    """select_k_by_validation handed any holdout, as the benchmark's oracle hands it the test set."""

    def _learn(self, rng):
        X = rng.uniform(-2, 2, (60, 1))
        y = np.sin(2 * X[:, 0]) + 0.2 * rng.standard_normal(60)
        return Dataset(X, y)

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(54)
        learn = self._learn(rng)
        model, _ = train_rboosting(learn, toy_config(12))
        Xh = rng.uniform(-2, 2, (40, 1))
        holdout = Dataset(Xh, np.sin(2 * Xh[:, 0]))
        k, risk = select_k_by_validation(learn, holdout, toy_config(12), 12)
        # oracle: evaluate every truncation independently
        rmses = [
            np.sqrt(np.mean((model.truncate(j).predict(Xh) - holdout.targets) ** 2))
            for j in range(1, len(model) + 1)
        ]
        assert k == int(np.argmin(rmses)) + 1
        assert np.sqrt(risk) == pytest.approx(min(rmses), rel=1e-12)

    def test_monotone_improvement_selects_full_length(self):
        # Noiseless holdout equal to the training rows: training risk falls
        # monotonically for plain boosting, so the argmin is the last stage.
        rng = np.random.default_rng(55)
        X = rng.uniform(-2, 2, (50, 1))
        y = np.sin(X[:, 0])
        data = Dataset(X, y)
        config = TrainConfig("rboosting", 10, TreeLearnerSpec(1), u=10**9)
        model, trace = train_rboosting(data, config)
        assert np.all(np.diff(trace.risk) < 0)
        k, _ = select_k_by_validation(data, data, config, 10)
        assert k == len(model)

    def test_risk_minimized_at_first_stage(self):
        # Holdout targets equal to the first-stage prediction force k = 1.
        rng = np.random.default_rng(56)
        learn = self._learn(rng)
        model, _ = train_rboosting(learn, toy_config(6))
        Xh = rng.uniform(-2, 2, (30, 1))
        holdout = Dataset(Xh, model.truncate(1).predict(Xh))
        k, risk = select_k_by_validation(learn, holdout, toy_config(6), 6)
        assert k == 1
        assert np.sqrt(risk) == pytest.approx(0.0, abs=1e-15)

    def test_empty_model_is_the_zero_predictor(self):
        from rboost.bench import rmse

        zeros = Dataset(np.arange(10.0).reshape(-1, 1), np.zeros(10))  # trains no stage
        assert select_k_by_validation(zeros, Dataset([[0.0]], [0.0]), toy_config(5), 5) == (0, 0.0)
        holdout = Dataset(np.zeros((3, 1)), [1.0, -2.0, 0.5])
        k, risk = select_k_by_validation(zeros, holdout, toy_config(5), 5, clip_bound=0.25)
        assert k == 0
        assert np.sqrt(risk) == rmse(np.zeros(3), holdout.targets)  # same bits as scoring the zero predictor

    def test_rejects_a_nan_bound(self):
        learn = self._learn(np.random.default_rng(60))
        with pytest.raises(ValueError, match="clip bound"):
            select_k_by_validation(learn, Dataset([[0.0], [1.0]], [0.0, 1.0]), toy_config(3), 3, float("nan"))

    def test_rejects_a_bad_bound_for_an_empty_model(self):
        zeros = Dataset(np.arange(10.0).reshape(-1, 1), np.zeros(10))
        with pytest.raises(ValueError, match="clip bound"):
            select_k_by_validation(zeros, Dataset([[0.0]], [1.0]), toy_config(3), 3, 0.0)

    def test_clipped_risk_scores_the_clipped_predictions(self):
        rng = np.random.default_rng(61)
        learn = self._learn(rng)
        model, _ = train_rboosting(learn, toy_config(8))
        Xh = rng.uniform(-2, 2, (30, 1))
        holdout = Dataset(Xh, np.sin(2 * Xh[:, 0]))
        k, risk = select_k_by_validation(learn, holdout, toy_config(8), 8, clip_bound=0.5)
        risks = [np.mean((model.truncate(j).predict(Xh, clip_bound=0.5) - holdout.targets) ** 2) for j in range(1, 9)]
        assert k == int(np.argmin(risks)) + 1
        assert risk == pytest.approx(min(risks), rel=1e-12)


class TestEmptyModelRule:
    """An empty model is k = 0, predicting zeros, wherever a truncation is chosen."""

    def test_validation_selects_zero_stages(self):
        data = Dataset(np.arange(10.0).reshape(-1, 1), np.zeros(10))
        for algorithm in ("boosting", "ddrboosting"):
            cfg = TrainConfig(algorithm, 5, TreeLearnerSpec(1))
            assert select_k_by_validation(*split_learn_validate(data, shuffle_seed=1), cfg, 5) == (0, 0.0)

    def test_adaptive_select_keeps_the_empty_model(self):
        rng = np.random.default_rng(58)
        X = rng.uniform(-2, 2, (20, 1))
        y = np.concatenate([np.zeros(10), rng.standard_normal(10)])  # the learning half is all zeros
        result = adaptive_select(*split_learn_validate(Dataset(X, y)), [1, 10], 6, toy_config(6))
        assert (result.chosen_k, result.validation_risk) == (0, float(np.mean(y[10:] ** 2)))
        assert [k for _, k, _ in result.per_u_curve] == [0, 0]


class TestStagedMse:
    def test_one_staged_pass_and_the_same_bits_as_the_explicit_curve(self, monkeypatch):
        from rboost.core import Ensemble, clip
        from rboost.selection import _staged_mse

        rng = np.random.default_rng(57)
        X = rng.uniform(-2, 2, (40, 1))
        model, _ = train_rboosting(Dataset(X, np.sin(2 * X[:, 0])), toy_config(9))
        Xh = rng.uniform(-2, 2, (30, 1))
        holdout = Dataset(Xh, 1.5 * np.sin(2 * Xh[:, 0]))
        calls = []
        real = Ensemble.staged_predict
        monkeypatch.setattr(Ensemble, "staged_predict", lambda self, X: calls.append(None) or real(self, X))
        for bound in (None, 0.8):
            preds = real(model, Xh)
            if bound is not None:
                preds = clip(preds, bound)
            err = preds - holdout.targets
            assert _staged_mse(model, holdout, bound).tobytes() == np.mean(err * err, axis=1).tobytes()
        assert len(calls) == 2
        assert _staged_mse(model.truncate(0), holdout).shape == (0,)
