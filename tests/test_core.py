import numpy as np
import pytest

from dictionary_learner import DictionaryAtom
from rboost import Dataset, Ensemble, TrainConfig
from rboost.core import Stage, as_feature_matrix, empirical_norm, empirical_risk, inner


def constant_atom(value):
    return DictionaryAtom(0, lambda X, v=value: np.full(X.shape[0], float(v)))


class TestEmpiricalGeometry:
    def test_norm_zero_vector(self):
        assert empirical_norm([0, 0, 0, 0]) == 0.0

    def test_norm_constant_ones(self):
        assert empirical_norm([1, 1, 1, 1]) == 1.0
        assert empirical_norm(np.ones(17)) == 1.0

    def test_norm_direct_formula(self):
        assert empirical_norm([3, 4]) == pytest.approx(np.sqrt(12.5), rel=1e-15)

    def test_norm_rejects_empty(self):
        with pytest.raises(ValueError):
            empirical_norm([])

    def test_risk_perfect_fit(self):
        v = np.array([0.3, -1.2, 4.0])
        assert empirical_risk(v, v) == 0.0

    def test_risk_unit(self):
        assert empirical_risk([0, 0], [1, -1]) == 1.0

    def test_risk_direct(self):
        assert empirical_risk([1, 2, 3], [0, 0, 0]) == pytest.approx(14 / 3)

    def test_risk_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            empirical_risk([1], [1, 2])

    def test_norm_rejects_two_dimensional_values(self):
        with pytest.raises(ValueError, match=r"values must be 1-d, got shape \(2, 2\)"):
            empirical_norm(np.ones((2, 2)))

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 1000, 4097])
    def test_inner_has_the_bits_of_np_mean(self, n):
        rng = np.random.default_rng(n)
        a, b = rng.standard_normal(n) * 1e3, rng.standard_normal(n)
        for x, y in ((a, b), (a, a), (b, a)):
            assert np.float64(inner(x, y)).tobytes() == np.float64(np.mean(x * y)).tobytes()

    def test_features_of_three_dimensions_are_rejected(self):
        with pytest.raises(ValueError, match=r"features must be 1-d or 2-d, got shape \(2, 2, 2\)"):
            as_feature_matrix(np.zeros((2, 2, 2)))


def _identity_model():
    """A one-stage model whose prediction is the first feature, bit for bit: 0 * 1.0 + 1.0 * x."""
    return Ensemble([Stage(0.0, 1.0, DictionaryAtom(0, lambda X: X[:, 0]))])


class TestPredictClip:
    """Ensemble.predict(clip_bound=M) truncates the prediction to [-M, M]."""

    def test_above_bound(self):
        assert _identity_model().predict(np.array([5.0]), clip_bound=3.0).tolist() == [3.0]

    def test_below_bound(self):
        assert _identity_model().predict(np.array([-5.0]), clip_bound=3.0).tolist() == [-3.0]

    def test_identity_region(self):
        assert _identity_model().predict(np.array([2.0]), clip_bound=3.0).tolist() == [2.0]

    def test_array_input(self):
        out = _identity_model().predict(np.array([-10.0, 0.5, 10.0]), clip_bound=1.0)
        assert out.tolist() == [-1.0, 0.5, 1.0]

    def test_rejects_a_bound_that_is_not_positive(self):
        model = _identity_model()
        for bound in (0.0, -2.0, float("nan")):
            with pytest.raises(ValueError, match="clip bound must be > 0"):
                model.predict(np.array([1.0, -3.0]), clip_bound=bound)

    def test_nan_stays_nan_and_every_other_value_is_the_clipped_one(self):
        values = [float("nan"), float("inf"), -float("inf"), 0.0, 0.25, -0.75, 1.0, -1.0, 3.0, -3.0, 5e-324]
        out = _identity_model().predict(np.array(values), clip_bound=1.0)
        assert np.isnan(out[0])
        assert out[1:].tolist() == [1.0, -1.0, 0.0, 0.25, -0.75, 1.0, -1.0, 1.0, -1.0, 5e-324]

    def test_pointwise_loss_never_increases(self):
        # For |y| <= M, squared error against y cannot grow under clipping.
        rng = np.random.default_rng(11)
        model = _identity_model()
        for _ in range(200):
            M = float(rng.uniform(0.1, 5.0))
            t = rng.uniform(-20, 20, 5)
            y = rng.uniform(-M, M, 5)
            assert np.all((model.predict(t, clip_bound=M) - y) ** 2 <= (t - y) ** 2 + 1e-15)


class TestDataset:
    def test_shapes_and_accessors(self):
        ds = Dataset([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], [1.0, 2.0, 3.0])
        assert (ds.m, ds.d) == (3, 2)
        assert len(ds) == 3

    def test_one_dimensional_features_become_column(self):
        ds = Dataset([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
        assert ds.features.shape == (3, 1)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Dataset([[1.0], [np.nan]], [0.0, 0.0])
        with pytest.raises(ValueError):
            Dataset([[1.0], [2.0]], [np.inf, 0.0])

    def test_rejects_two_dimensional_targets(self):
        with pytest.raises(ValueError, match=r"targets must be 1-d, got shape \(2, 1\)"):
            Dataset([[1.0], [2.0]], [[1.0], [2.0]])

    def test_rejects_row_mismatch(self):
        with pytest.raises(ValueError):
            Dataset([[1.0], [2.0]], [1.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Dataset(np.empty((0, 1)), np.empty(0))

    def test_immutable(self):
        ds = Dataset([[1.0], [2.0]], [1.0, 2.0])
        with pytest.raises(ValueError):
            ds.features[0, 0] = 9.0

    def test_subset_preserves_order(self):
        ds = Dataset([[1.0], [2.0], [3.0]], [1.0, 2.0, 3.0])
        sub = ds.subset([2, 0])
        assert sub.targets.tolist() == [3.0, 1.0]


class TestTrainConfig:
    def test_valid(self):
        cfg = TrainConfig("rboosting", 10, learner_spec=object(), u=3)
        assert cfg.u == 3

    def test_rejects_bad_algorithm(self):
        with pytest.raises(ValueError):
            TrainConfig("adaboost", 10, learner_spec=object())

    def test_rejects_bad_u_for_rboosting(self):
        with pytest.raises(ValueError):
            TrainConfig("rboosting", 10, learner_spec=object(), u=0)

    def test_u_ignored_elsewhere(self):
        TrainConfig("boosting", 10, learner_spec=object(), u=0)  # no error

    def test_rejects_zero_iterations(self):
        with pytest.raises(ValueError):
            TrainConfig("boosting", 0, learner_spec=object())

    @pytest.mark.parametrize("bad", [10.5, "10", None, float("nan"), float("inf")])
    def test_rejects_a_non_integral_budget(self, bad):
        with pytest.raises(ValueError, match=f"max_iterations must be a positive integer, got {bad!r}"):
            TrainConfig("rboosting", bad, learner_spec=object())

    @pytest.mark.parametrize("bad", [2.5, "3", None, float("nan")])
    def test_rejects_a_non_integral_u_for_rboosting(self, bad):
        with pytest.raises(ValueError, match=f"u must be a positive integer, got {bad!r}"):
            TrainConfig("rboosting", 10, learner_spec=object(), u=bad)

    def test_requires_a_learner_spec(self):
        with pytest.raises(ValueError, match="learner_spec is required"):
            TrainConfig("boosting", 10, learner_spec=None)

    def test_integral_values_are_stored_as_ints(self):
        cfg = TrainConfig("rboosting", 10.0, learner_spec=object(), u=np.int64(3))
        assert (cfg.max_iterations, cfg.u) == (10, 3)
        assert type(cfg.max_iterations) is int and type(cfg.u) is int


def random_ensemble(rng, n_stages, d=2):
    """Stages with random alpha in [0, 1), beta, and random-direction linear atoms."""
    stages = []
    for _ in range(n_stages):
        w = rng.standard_normal(d)
        b = rng.standard_normal()
        atom = DictionaryAtom(0, lambda X, w=w, b=b: X @ w + b)
        stages.append(Stage(float(rng.uniform(0, 1)), float(rng.standard_normal()), atom))
    return Ensemble(stages)


class TestEnsemble:
    def test_empty_predicts_offset_zero(self):
        model = Ensemble()
        assert np.array_equal(model.predict(np.zeros((4, 3))), np.zeros(4))
        assert model.l1_norm() == 0.0
        coefficients = model.effective_coefficients()
        assert coefficients.dtype == np.float64 and coefficients.shape == (0,)

    def test_single_stage(self):
        model = Ensemble([Stage(0.0, 0.5, constant_atom(1.0))])
        assert model.predict(np.zeros((2, 1))).tolist() == [0.5, 0.5]

    def test_two_stage_hand_recursion(self):
        # f1 = 1, f2 = (1 - 0.5) * 1 + 1 * 1 = 1.5
        stages = [Stage(0.0, 1.0, constant_atom(1.0)), Stage(0.5, 1.0, constant_atom(1.0))]
        model = Ensemble(stages)
        assert model.predict(np.zeros((3, 1))).tolist() == [1.5, 1.5, 1.5]

    def test_l1_hand_computation(self):
        stages = [Stage(0.0, 2.0, constant_atom(1.0)), Stage(0.5, 1.0, constant_atom(1.0))]
        assert Ensemble(stages).l1_norm() == pytest.approx(2.0)

    def test_l1_single_stage_is_abs_beta(self):
        model = Ensemble([Stage(0.7, -3.0, constant_atom(1.0))])
        assert model.l1_norm() == pytest.approx(3.0)
        assert model.effective_coefficients().tolist() == [-3.0]  # no later stage discounts it

    def test_staged_predict_rows_match_truncations(self):
        rng = np.random.default_rng(3)
        model = random_ensemble(rng, 8)
        X = rng.standard_normal((5, 2))
        staged = model.staged_predict(X)
        for k in range(1, 9):
            assert np.allclose(staged[k - 1], model.truncate(k).predict(X), rtol=0, atol=0)

    def test_staged_rows_start_from_a_positive_zero(self):
        # f_1 = (1 - 0) * 0 + 1 * (-0.0) = +0.0: row 0 is scaled from f_0 = 0, not the first output copied
        model = Ensemble([Stage(0.0, 1.0, constant_atom(-0.0)), Stage(0.5, 2.0, constant_atom(-0.0))])
        X = np.zeros((3, 1))
        staged = model.staged_predict(X)
        assert not np.signbit(staged).any()
        for k in (1, 2):
            assert staged[k - 1].tobytes() == model.truncate(k).predict(X).tobytes()

    def test_staged_equals_expanded(self):
        # Coefficient expansion c_j = beta_j * prod_{i>j}(1 - alpha_i) must
        # reproduce the staged recursion on sizeable random models.
        rng = np.random.default_rng(5)
        for _ in range(10):
            model = random_ensemble(rng, int(rng.integers(1, 51)))
            X = rng.uniform(-2, 2, (20, 2))
            a = model.predict(X)
            b = model.expanded_predict(X)
            assert np.allclose(a, b, rtol=1e-10, atol=1e-10 * max(1.0, np.abs(a).max()))

    def test_l1_recursion_bound(self):
        # Appending (alpha, beta, g): L_new <= (1 - alpha) * L_old + |beta| + 1e-12.
        rng = np.random.default_rng(9)
        model = Ensemble()
        for _ in range(50):
            alpha = float(rng.uniform(0, 1))
            beta = float(rng.standard_normal())
            extended = Ensemble([*model.stages, Stage(alpha, beta, constant_atom(1.0))])
            assert extended.l1_norm() <= (1 - alpha) * model.l1_norm() + abs(beta) + 1e-12
            model = extended

    def test_truncate_to_zero_and_full(self):
        rng = np.random.default_rng(1)
        model = random_ensemble(rng, 4)
        X = rng.standard_normal((6, 2))
        assert np.array_equal(model.truncate(0).predict(X), np.zeros(6))
        assert np.array_equal(model.truncate(4).predict(X), model.predict(X))

    def test_truncate_rejects_overlong(self):
        model = random_ensemble(np.random.default_rng(2), 3)
        with pytest.raises(ValueError):
            model.truncate(4)

    def test_predict_clip_bound(self):
        model = Ensemble([Stage(0.0, 10.0, constant_atom(1.0))])
        assert model.predict(np.zeros((2, 1)), clip_bound=2.5).tolist() == [2.5, 2.5]

    def test_predict_rejects_a_nan_clip_bound(self):
        model = Ensemble([Stage(0.0, 10.0, constant_atom(1.0))])
        with pytest.raises(ValueError, match="clip bound"):
            model.predict(np.zeros((2, 1)), clip_bound=float("nan"))
