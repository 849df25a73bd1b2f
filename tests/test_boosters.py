import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dictionary_learner import DictionaryAtom, DictionaryLearnerSpec
from rboost import Dataset, TrainConfig, TreeLearnerSpec, train
from rboost.boosters import shrinkage_alpha, train_boosting, train_ddrboosting, train_rboosting, two_dim_linear_search
from rboost.core import empirical_risk


def random_data(rng, m=120, d=1, noise=0.3):
    X = rng.uniform(-2, 2, (m, d))
    y = np.sin(1.5 * X[:, 0]) + 0.4 * X[:, 0] + noise * rng.standard_normal(m)
    return Dataset(X, y)


def stump_config(algorithm, k, **kw):
    return TrainConfig(algorithm, k, learner_spec=TreeLearnerSpec(1), **kw)


class TestShrinkageSchedule:
    def test_printed_values(self):
        assert shrinkage_alpha(1, 1) == 1.0
        assert shrinkage_alpha(2, 1) == pytest.approx(2 / 3)
        assert shrinkage_alpha(98, 2) == pytest.approx(0.02)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            shrinkage_alpha(0, 1)
        with pytest.raises(ValueError):
            shrinkage_alpha(1, 0)

    def test_schedule_in_unit_interval_and_decreasing(self):
        for u in (1, 2, 17, 10**6):
            values = [shrinkage_alpha(k, u) for k in range(1, 200)]
            assert all(0 < a <= 1 for a in values)
            assert all(a > b for a, b in zip(values[:-1], values[1:]))

    def test_schedule_rejects_bad_u(self):
        with pytest.raises(ValueError):
            shrinkage_alpha(5, 0)


class TestTwoDimLinearSearch:
    def test_rejects_vectors_of_different_lengths(self):
        with pytest.raises(ValueError, match=r"length mismatch: \(3,\), \(2,\), \(3,\)"):
            two_dim_linear_search(np.ones(3), np.ones(2), np.ones(3))

    def test_orthogonal_unit_norm_projection(self):
        f = np.array([1.0, -1.0, 1.0, -1.0])
        g = np.array([1.0, 1.0, -1.0, -1.0])
        y = 0.7 * f - 0.3 * g
        res = two_dim_linear_search(f, g, y)
        assert res.alpha == pytest.approx(1 - 0.7, abs=1e-12)
        assert res.beta == pytest.approx(-0.3, abs=1e-12)
        assert not res.gram_fallback

    def test_y_equal_previous(self):
        rng = np.random.default_rng(2)
        f = rng.standard_normal(30)
        g = rng.standard_normal(30)
        res = two_dim_linear_search(f, g, f)
        assert res.alpha == 0.0
        assert res.beta == 0.0
        new = (1 - res.alpha) * f + res.beta * g
        assert empirical_risk(new, f) == 0.0

    def test_exact_two_dim_representation(self):
        rng = np.random.default_rng(3)
        f = rng.standard_normal(50)
        g = rng.standard_normal(50)
        y = 2.0 * f + 3.0 * g
        res = two_dim_linear_search(f, g, y)
        assert res.alpha == pytest.approx(-1.0, abs=1e-9)  # a = 2: search covers all of R^2
        assert res.beta == pytest.approx(3.0, abs=1e-9)

    def test_zero_previous_falls_back_to_one_dim(self):
        rng = np.random.default_rng(4)
        g = rng.standard_normal(20)
        y = rng.standard_normal(20)
        res = two_dim_linear_search(np.zeros(20), g, y)
        assert not res.gram_fallback  # span{0, g} is span{g}: the 1-d step is the exact optimum
        assert res.alpha == 0.0
        assert res.beta == pytest.approx(np.mean(y * g) / np.mean(g * g), rel=1e-12)

    def test_collinear_falls_back(self):
        f = np.array([1.0, 2.0, 3.0])
        res = two_dim_linear_search(f, 2.0 * f, np.array([1.0, 1.0, 1.0]))
        assert res.gram_fallback
        assert res.alpha == 0.0

    def test_rejects_zero_g(self):
        with pytest.raises(ValueError):
            two_dim_linear_search(np.ones(3), np.zeros(3), np.ones(3))

    def test_matches_refined_grid_oracle(self):
        # Brute-force oracle: 41x41 grid over (alpha, beta) in [-2, 2]^2,
        # twice refined around the incumbent; closed form must land within
        # 1e-4 of the oracle's risk.
        rng = np.random.default_rng(5)
        for _ in range(20):
            f = rng.standard_normal(60)
            g = rng.standard_normal(60)
            g /= np.sqrt(np.mean(g * g))
            y = rng.uniform(0.0, 1.5) * f + rng.uniform(-1.5, 1.5) * g + 0.3 * rng.standard_normal(60)

            def grid_best(center_a, center_b, half_width):
                alphas = np.linspace(center_a - half_width, center_a + half_width, 41)
                betas = np.linspace(center_b - half_width, center_b + half_width, 41)
                risks = np.array(
                    [[empirical_risk((1 - a) * f + b * g, y) for b in betas] for a in alphas]
                )
                i, j = np.unravel_index(np.argmin(risks), risks.shape)
                return alphas[i], betas[j], risks[i, j]

            a, b, risk = grid_best(0.0, 0.0, 2.0)
            step = 4.0 / 40
            for _ in range(2):
                a, b, risk = grid_best(a, b, step)
                step = 2 * step / 40
            res = two_dim_linear_search(f, g, y)
            closed_risk = empirical_risk((1 - res.alpha) * f + res.beta * g, y)
            assert abs(closed_risk - risk) <= 1e-4
            assert closed_risk <= risk + 1e-12  # closed form is the global optimum


class TestTrainBoosting:
    def test_zero_targets_give_empty_model(self):
        data = Dataset([[0.0], [1.0], [2.0]], np.zeros(3))
        model, trace = train_boosting(data, stump_config("boosting", 5))
        assert len(model) == 0
        assert trace.stop_reason == "zero_residual"
        for steps in (trace.alpha, trace.beta):
            assert steps.dtype == np.float64 and steps.shape == (0,)

    def test_projection_onto_constant_dictionary(self):
        data = Dataset([[0.0], [1.0], [2.0]], [3.0, 3.0, 3.0])
        atoms = (DictionaryAtom(0, lambda X: np.ones(X.shape[0])),)
        cfg = TrainConfig("boosting", 4, learner_spec=DictionaryLearnerSpec(atoms))
        model, trace = train_boosting(data, cfg)
        assert trace.beta[0] == pytest.approx(3.0)
        assert trace.risk[0] == pytest.approx(0.0, abs=1e-28)
        assert trace.stop_reason == "zero_residual"  # nothing left after one stage

    def test_trace_matches_hand_simulation(self):
        # Independent replay of the loop over the traced learners.
        rng = np.random.default_rng(6)
        data = random_data(rng)
        model, trace = train_boosting(data, stump_config("boosting", 10))
        X, y = data.features, data.targets
        f = np.zeros(data.m)
        for k, stage in enumerate(model.stages):
            g = stage.learner.predict(X)
            beta = np.mean((y - f) * g)
            assert beta == pytest.approx(trace.beta[k], abs=1e-12)
            assert stage.alpha == 0.0
            f = f + beta * g
            assert np.mean((f - y) ** 2) == pytest.approx(trace.risk[k], abs=1e-12)

    def test_risk_identity_every_iteration(self):
        # With unit-norm g, E(f_k) = E(f_{k-1}) - beta_k^2 exactly.
        rng = np.random.default_rng(7)
        data = random_data(rng, m=150)
        model, trace = train_boosting(data, stump_config("boosting", 40))
        prev = float(np.mean(data.targets**2))
        for k in range(len(trace)):
            assert abs(trace.risk[k] - (prev - trace.beta[k] ** 2)) <= 1e-10
            prev = trace.risk[k]

    def test_truncation_equals_fresh_shorter_run(self):
        rng = np.random.default_rng(8)
        data = random_data(rng, m=60)
        model3, _ = train_boosting(data, stump_config("boosting", 3))
        model2, _ = train_boosting(data, stump_config("boosting", 2))
        X = data.features
        assert np.max(np.abs(model3.truncate(2).predict(X) - model2.predict(X))) <= 1e-12

    def test_determinism(self):
        rng = np.random.default_rng(9)
        data = random_data(rng, m=80)
        cfg = stump_config("boosting", 15)
        model_a, trace_a = train_boosting(data, cfg)
        model_b, trace_b = train_boosting(data, cfg)
        assert np.array_equal(trace_a.risk, trace_b.risk)
        assert np.array_equal(trace_a.beta, trace_b.beta)
        assert np.array_equal(model_a.predict(data.features), model_b.predict(data.features))

    def test_degenerate_learner_stops_early(self):
        # One distinct x value: the first stage fits the mean, after which
        # the tree on the centered residual is the zero leaf.
        data = Dataset([[0.0], [0.0]], [1.0, 2.0])
        model, trace = train_boosting(data, stump_config("boosting", 5))
        assert len(model) == 1
        assert trace.stop_reason == "degenerate_learner"

    def test_algorithm_mismatch_rejected(self):
        data = Dataset([[0.0], [1.0]], [1.0, 2.0])
        with pytest.raises(ValueError):
            train_boosting(data, stump_config("rboosting", 3))

    def test_overflowing_target_scale_is_rejected(self):
        # At 1e160 the targets' mean square overflows float64; training used
        # to report zero_residual after 0 stages instead of failing.
        X = np.linspace(-2, 2, 40)
        config = TrainConfig("boosting", 20, TreeLearnerSpec(2))
        with pytest.raises(ValueError, match="mean square of the targets overflows"):
            train(Dataset(X, 1e160 * np.sin(1.5 * X)), config)
        model, trace = train(Dataset(X, 1e150 * np.sin(1.5 * X)), config)
        assert len(model) == len(trace) == 20
        assert trace.stop_reason is None

    def test_underflowing_target_scale_is_rejected(self):
        # At 1e-162 and 1e-170 the targets' squares underflow; training used
        # to report zero_residual after 0 stages instead of failing.
        X = np.random.default_rng(24).uniform(-2, 2, (40, 2))
        y = np.sin(X).sum(axis=1)
        config = TrainConfig("rboosting", 30, TreeLearnerSpec(2), u=3)
        for scale in (1e-170, 1e-162):
            with pytest.raises(ValueError, match=r"mean square of the targets underflows float64 \(max \|y\| = "):
                train(Dataset(X, scale * y), config)
        model, trace = train(Dataset(X, 1e-150 * y), config)
        assert len(model) == len(trace) == 30
        assert trace.stop_reason is None

    def test_integral_float_settings_train(self):
        # An integral float budget, u or split count is used as an int; a
        # 10.0 budget used to reach np.empty and fail with a TypeError.
        data = random_data(np.random.default_rng(20), m=50)
        model, trace = train(data, TrainConfig("rboosting", 10.0, TreeLearnerSpec(2.0), u=3.0))
        want, want_trace = train(data, TrainConfig("rboosting", 10, TreeLearnerSpec(2), u=3))
        assert len(model) == len(trace) == 10
        assert trace.beta.tobytes() == want_trace.beta.tobytes()
        assert model.predict(data.features).tobytes() == want.predict(data.features).tobytes()

    @pytest.mark.parametrize("scale", [1e-11, 1e-14, 1e-20])
    def test_small_target_scales_train_every_stage(self, scale):
        # The stop test and the tree fitter's degenerate floor are relative
        # to rms(y) below 1; with absolute ones these runs stopped after 3
        # stages (degenerate_learner) or 0 (zero_residual).
        X = np.linspace(-2, 2, 200)
        config = TrainConfig("boosting", 20, TreeLearnerSpec(2))
        _, base = train(Dataset(X, np.sin(1.5 * X)), config)
        model, trace = train(Dataset(X, scale * np.sin(1.5 * X)), config)
        assert len(model) == len(trace) == len(base) == 20
        assert trace.stop_reason is base.stop_reason is None
        np.testing.assert_allclose(trace.risk / scale**2, base.risk, rtol=1e-9)


class TestTrainRBoosting:
    def test_u1_first_step_discards_offset(self):
        # alpha_1 = 2/(1+1) = 1, so f_1 = beta_1 g_1 with beta_1 = <y, g_1>.
        data = Dataset([[0.0], [1.0], [2.0]], [1.0, 2.0, 3.0])
        atoms = (DictionaryAtom(0, lambda X: np.ones(X.shape[0])),)
        cfg = TrainConfig("rboosting", 1, learner_spec=DictionaryLearnerSpec(atoms), u=1)
        model, trace = train_rboosting(data, cfg)
        assert trace.alpha[0] == 1.0
        assert trace.beta[0] == pytest.approx(2.0)  # <y, 1> = mean(y)
        assert np.allclose(model.predict(data.features), 2.0)

    def test_u1_second_step_alpha(self):
        rng = np.random.default_rng(10)
        data = random_data(rng, m=50)
        _, trace = train_rboosting(data, stump_config("rboosting", 2, u=1))
        assert trace.alpha[0] == 1.0
        assert trace.alpha[1] == pytest.approx(2 / 3)

    def test_huge_u_degenerates_to_boosting(self):
        rng = np.random.default_rng(11)
        data = random_data(rng, m=120)
        model_r, _ = train_rboosting(data, stump_config("rboosting", 100, u=10**12))
        model_b, _ = train_boosting(data, stump_config("boosting", 100))
        pr = model_r.predict(data.features)
        pb = model_b.predict(data.features)
        assert np.max(np.abs(pr - pb)) <= 1e-6 * np.max(np.abs(pb))

    def test_per_step_beta_optimality(self):
        # The applied beta_k minimizes E((1-alpha_k) f_{k-1} + beta g_k)
        # over beta; check against a 101-point grid in [-2 beta_k, 2 beta_k].
        rng = np.random.default_rng(12)
        data = random_data(rng, m=90)
        model, trace = train_rboosting(data, stump_config("rboosting", 12, u=3))
        X, y = data.features, data.targets
        staged = model.staged_predict(X)
        for k in range(len(model)):
            f_prev = staged[k - 1] if k > 0 else np.zeros(data.m)
            g = model.stages[k].learner.predict(X)
            alpha, beta = trace.alpha[k], trace.beta[k]
            base = (1 - alpha) * f_prev
            for b in np.linspace(-2 * beta, 2 * beta, 101):
                assert trace.risk[k] <= empirical_risk(base + b * g, y) + 1e-12

    def test_l1_recursion_along_trace(self):
        rng = np.random.default_rng(13)
        data = random_data(rng, m=90)
        model, trace = train_rboosting(data, stump_config("rboosting", 25, u=2))
        prev = 0.0
        for k in range(len(trace)):
            assert trace.l1_norm[k] <= (1 - trace.alpha[k]) * prev + abs(trace.beta[k]) + 1e-12
            prev = trace.l1_norm[k]

    def test_trace_l1_matches_truncated_ensembles(self):
        # Incrementally maintained coefficients agree with the suffix-product
        # recomputation at every truncation.
        rng = np.random.default_rng(14)
        data = random_data(rng, m=70)
        model, trace = train_rboosting(data, stump_config("rboosting", 20, u=5))
        for k in range(1, len(model) + 1):
            assert trace.l1_norm[k - 1] == pytest.approx(model.truncate(k).l1_norm(), rel=1e-10)


class TestTrainDDRBoosting:
    def test_first_step_reduces_to_one_dim(self):
        rng = np.random.default_rng(15)
        data = random_data(rng, m=40)
        model, trace = train_ddrboosting(data, stump_config("ddrboosting", 1))
        assert trace.alpha[0] == 0.0
        assert bool(trace.gram_fallback[0]) is False  # f_0 = 0: the 1-d step is exact, not a fallback
        g = model.stages[0].learner.predict(data.features)
        assert trace.beta[0] == pytest.approx(np.mean(data.targets * g), rel=1e-12)

    def test_risk_non_increasing(self):
        rng = np.random.default_rng(16)
        data = random_data(rng, m=100)
        _, trace = train_ddrboosting(data, stump_config("ddrboosting", 30))
        risks = np.concatenate([[np.mean(data.targets**2)], trace.risk])
        assert np.all(np.diff(risks) <= 1e-12)

    def test_dominates_plain_step_with_shared_learner(self):
        # Feasibility: alpha = 0 with the plain beta is inside the DDR search
        # region, so the DDR update can never do worse given the same g.
        rng = np.random.default_rng(17)
        data = random_data(rng, m=110)
        X, y = data.features, data.targets
        fitter = TreeLearnerSpec(1).bind(data)
        f = np.zeros(data.m)
        for _ in range(25):
            step = fitter.fit_step(y - f)
            if step is None:
                break
            _, g = step
            res = two_dim_linear_search(f, g, y)
            ddr_risk = empirical_risk((1 - res.alpha) * f + res.beta * g, y)
            plain_beta = np.mean((y - f) * g)
            plain_risk = empirical_risk(f + plain_beta * g, y)
            assert ddr_risk <= plain_risk + 1e-12
            f = (1 - res.alpha) * f + res.beta * g

    def test_trace_records_fallbacks(self):
        rng = np.random.default_rng(18)
        data = random_data(rng, m=60)
        _, trace = train_ddrboosting(data, stump_config("ddrboosting", 10))
        assert trace.gram_fallback.dtype == bool
        assert bool(trace.gram_fallback[0]) is False
        assert not trace.gram_fallback[1:].any()  # later states are independent of g


class TestDispatch:
    def test_train_routes_by_algorithm(self):
        rng = np.random.default_rng(19)
        data = random_data(rng, m=50)
        for algorithm in ("boosting", "rboosting", "ddrboosting"):
            cfg = stump_config(algorithm, 5, u=2)
            model, trace = train(data, cfg)
            assert len(model) == len(trace) == 5


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 60),
    d=st.integers(1, 3),
    n_splits=st.integers(1, 4),
    k_max=st.integers(1, 30),
    algorithm=st.sampled_from(["boosting", "ddrboosting"]),
    decimals=st.sampled_from([None, 0, 1]),
)
def test_training_risk_never_increases(seed, m, d, n_splits, k_max, algorithm, decimals):
    # Boosting removes <r, g>^2 each step (Buehlmann & Yu 2003); DDR searches a
    # plane that contains the plain step, so it can do no worse.
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, (m, d))
    if decimals is not None:
        X = np.round(X, decimals)  # ties and repeated rows
    y = np.sin(2 * X[:, 0]) + 0.3 * rng.standard_normal(m)
    _, trace = train(Dataset(X, y), TrainConfig(algorithm, k_max, TreeLearnerSpec(n_splits)))
    risks = np.concatenate([[np.mean(y * y)], trace.risk])
    assert np.all(np.diff(risks) <= 1e-12 * risks[0])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 40),
    d=st.integers(1, 3),
    n_splits=st.integers(1, 4),
    k_max=st.integers(1, 15),
    algorithm=st.sampled_from(["boosting", "rboosting", "ddrboosting"]),
    decimals=st.sampled_from([None, 0, 1]),
    exponents=st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
)
@example(seed=0, m=5, d=1, n_splits=2, k_max=2, algorithm="boosting", decimals=0, exponents=(1, 13))
def test_power_of_two_target_scaling_scales_the_model_exactly(
    seed, m, d, n_splits, k_max, algorithm, decimals, exponents
):
    # Scaling by 2**k is exact and every tolerance is relative to rms(y),
    # so both runs take the same decisions on values 2**k apart, also when
    # the two scales lie on opposite sides of rms(y) = 1. The exponents keep
    # rms(y) within 2**-41 .. 2**40: all values normal. The example is a
    # round-off tree that an absolute floor rejected at 2**1 and took as a
    # stage at 2**13.
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, (m, d))
    if decimals is not None:
        X = np.round(X, decimals)
    y = np.sin(2 * X[:, 0]) + 0.3 * rng.standard_normal(m)
    y = np.ldexp(y, -np.frexp(np.sqrt(np.mean(y * y)))[1])  # rms(y) in [0.5, 1)
    a, b = exponents
    k = b - a
    config = TrainConfig(algorithm, k_max, TreeLearnerSpec(n_splits), u=3)
    model_a, trace_a = train(Dataset(X, np.ldexp(y, a)), config)
    model_b, trace_b = train(Dataset(X, np.ldexp(y, b)), config)
    assert len(model_b) == len(model_a)
    assert trace_b.stop_reason == trace_a.stop_reason
    assert model_b.predict(X).tobytes() == np.ldexp(model_a.predict(X), k).tobytes()
    assert trace_b.alpha.tobytes() == trace_a.alpha.tobytes()
    assert trace_b.beta.tobytes() == np.ldexp(trace_a.beta, k).tobytes()
    for stage_a, stage_b in zip(model_a.stages, model_b.stages):
        assert stage_b.learner.value.tobytes() == np.ldexp(stage_a.learner.value, k).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 60),
    d=st.integers(1, 3),
    n_splits=st.integers(1, 4),
    decimals=st.sampled_from([None, 0, 1]),
    exponent=st.integers(-40, 40),
    u=st.integers(2**55, 2**62),
)
@example(seed=0, m=2, d=1, n_splits=1, decimals=None, exponent=0, u=2**55)
@example(seed=1, m=30, d=2, n_splits=3, decimals=0, exponent=7, u=2**55)  # integer features: ties and repeats
def test_a_re_scale_factor_past_two_to_the_55_trains_plain_boosting_bit_for_bit(
    seed, m, d, n_splits, decimals, exponent, u
):
    # For k <= 40 and u >= 2**55, alpha_k = 2 / (k + u) < 2**-54, half the
    # spacing of the doubles just below 1, so 1 - alpha_k rounds to 1.0:
    # the bits of plain boosting's 1 - 0.0. Every update and stage then
    # computes what plain boosting computes; only the recorded alphas,
    # tiny but nonzero, differ.
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, (m, d))
    if decimals is not None:
        X = np.round(X, decimals)
    y = np.ldexp(np.sin(2 * X[:, 0]) + 0.3 * rng.standard_normal(m), exponent)
    data = Dataset(X, y)
    plain_model, plain = train(data, TrainConfig("boosting", 40, TreeLearnerSpec(n_splits)))
    model, trace = train(data, TrainConfig("rboosting", 40, TreeLearnerSpec(n_splits), u=u))
    assert trace.stop_reason == plain.stop_reason
    for name in ("risk", "beta", "l1_norm"):
        assert getattr(trace, name).tobytes() == getattr(plain, name).tobytes(), name
    assert np.all((trace.alpha > 0) & (1.0 - trace.alpha == 1.0))
    assert model.predict(X).tobytes() == plain_model.predict(X).tobytes()
    assert model.staged_predict(X).tobytes() == plain_model.staged_predict(X).tobytes()


# The acceptance identities as properties. Each tolerance is twice a
# first-order rounding bound, in units of eps = 2u (u the unit roundoff),
# times the magnitudes that the identity's terms sum; a sum of n terms in
# any order errs by at most (n - 1)u times the sum of their magnitudes
# (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 4.2).
EPS = float(np.finfo(np.float64).eps)
IDENTITY_ROUNDS = 25
IDENTITY_SAMPLES = dict(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 79),
    d=st.integers(1, 3),
    n_splits=st.integers(1, 5),
    decimals=st.sampled_from([None, 0, 1]),  # rounded features: ties and repeated rows
    exponent=st.integers(-40, 40),  # a power-of-two target scale, exact
)


def identity_sample(seed, m, d, decimals, exponent):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, (m, d))
    if decimals is not None:
        X = np.round(X, decimals)
    return X, np.ldexp(np.sin(2 * X[:, 0]) + 0.3 * rng.standard_normal(m), exponent)


def identity_fit(X, y, algorithm, n_splits):
    return train(Dataset(X, y), TrainConfig(algorithm, IDENTITY_ROUNDS, TreeLearnerSpec(n_splits), u=2))


def expansion_magnitudes(model, X):
    """Row k-1: sum_j |c_j| |g_j(X)| over the effective coefficients of truncate(k), row by row of X.

    The coefficients of truncate(k) are those of truncate(k - 1) times
    1 - alpha_k, plus beta_k, so the rows follow the staged recursion in
    absolute values. Carried to stage k by the later factors 1 - alpha,
    every term that training or scoring adds up to stage k is, row by
    row, at most row k-1 in magnitude.
    """
    out, row = [], np.zeros(X.shape[0])
    for stage in model.stages:
        row = abs(1.0 - stage.alpha) * row + abs(stage.beta) * np.abs(stage.learner.predict(X))
        out.append(row)
    return np.array(out)


def rms(v):
    return float(np.sqrt(np.mean(v * v)))


@settings(max_examples=60, deadline=None)
@given(**IDENTITY_SAMPLES)
@example(seed=0, m=2, d=1, n_splits=1, decimals=None, exponent=0)
@example(seed=1, m=30, d=2, n_splits=3, decimals=0, exponent=7)  # integer features: ties and repeats
def test_plain_boosting_removes_beta_squared_from_the_risk_each_step(seed, m, d, n_splits, decimals, exponent):
    # E_k = E_{k-1} - beta_k^2 for unit-norm g and beta_k = <r_{k-1}, g>.
    # To first order, with E_0 = mean(y^2) >= E_{k-1} >= E_k, beta_k^2 <= E_{k-1}
    # and mean(f^2) <= 4 E_0: the rounded risks err by (m + 3)u E each; beta
    # by (m + 1)u sqrt(E) times 2|beta|; mean(g^2) = 1 within (m + 5)u, times
    # beta^2; f_k and r_k, formed row by row, add 6u E_0 through <r, e>.
    # That sums to (5m + 20)u E_0, so twice that is (5m + 20) eps E_0.
    X, y = identity_sample(seed, m, d, decimals, exponent)
    _, trace = identity_fit(X, y, "boosting", n_splits)
    e0 = float(np.mean(y * y))
    previous = np.concatenate([[e0], trace.risk[:-1]])
    gap = np.abs(trace.risk - (previous - trace.beta**2))
    assert np.all(gap <= (5 * m + 20) * EPS * e0), gap.max() / (EPS * e0)


@settings(max_examples=60, deadline=None)
@given(**IDENTITY_SAMPLES)
@example(seed=0, m=2, d=1, n_splits=1, decimals=None, exponent=0)
@example(seed=1, m=30, d=2, n_splits=3, decimals=0, exponent=7)
def test_each_ddr_step_leaves_a_residual_orthogonal_to_its_plane(seed, m, d, n_splits, decimals, exponent):
    # (alpha_k, beta_k) solve the normal equations of y on span{f_{k-1}, g_k},
    # so r_k = y - f_k is orthogonal to f_{k-1} and to g_k. Here f comes from
    # staged_predict and g from the stage's tree, whose 1/nrm * value can
    # differ from training's value / nrm in the last bit (the trace = model
    # gap in ROADMAP.md), so the bound covers both recursions, not training's.
    # With Q = |y| + B_{k-1} + B_k (B from expansion_magnitudes) and V = B_{k-1}
    # for f, |g| for g, first-order terms in units of u ||Q|| ||V||: Cramer's
    # rule on the 2x2 system leaves 12 / (1 - cos^2) + 1, cos the cosine of
    # f and g (Higham 1.10.1: forward stable, its residual grows with the
    # condition); the Gram means m + 1; 1 - (1 - a) != a, 2; forming r_k and
    # the test's own mean, m + 5; training and scoring each round twice a
    # stage, and the two g differ by 3u|g|: 8k + 2. That is at most
    # (2m + 8k + 22) u / (1 - cos^2), and twice it 2(m + 4k + 11) eps / (1 - cos^2).
    X, y = identity_sample(seed, m, d, decimals, exponent)
    model, trace = identity_fit(X, y, "ddrboosting", n_splits)
    staged = model.staged_predict(X)
    bound = expansion_magnitudes(model, X)
    for k in range(2, len(model) + 1):
        if trace.gram_fallback[k - 1]:
            continue
        f, g, r = staged[k - 2], model.stages[k - 1].learner.predict(X), y - staged[k - 1]
        q = np.abs(y) + bound[k - 2] + bound[k - 1]
        cos2 = np.mean(f * g) ** 2 / (np.mean(f * f) * np.mean(g * g))
        for v, size in ((f, bound[k - 2]), (g, np.abs(g))):
            tol = 2 * (m + 4 * k + 11) * EPS * rms(q) * rms(size) / (1 - cos2)
            assert abs(np.mean(r * v)) <= tol, (k, abs(np.mean(r * v)) / tol)


@settings(max_examples=60, deadline=None)
@given(**IDENTITY_SAMPLES)
@example(seed=0, m=2, d=1, n_splits=1, decimals=None, exponent=0)
@example(seed=1, m=30, d=2, n_splits=3, decimals=0, exponent=7)
def test_the_traced_l1_norm_is_the_l1_norm_of_each_truncation(seed, m, d, n_splits, decimals, exponent):
    # Training scales the coefficients by 1 - alpha once a stage; the model
    # forms the same products as a reversed cumprod times beta. Either way
    # c_j takes k - j roundings, so the two differ by 2(k - 1)u |c_j|, and the
    # two sums of k magnitudes add (k - 1)u l1 each: 4(k - 1)u l1 in all,
    # and twice that is below 4k eps l1.
    X, y = identity_sample(seed, m, d, decimals, exponent)
    for algorithm in ("boosting", "rboosting", "ddrboosting"):
        model, trace = identity_fit(X, y, algorithm, n_splits)
        for k in range(1, len(model) + 1):
            l1 = model.truncate(k).l1_norm()
            assert abs(trace.l1_norm[k - 1] - l1) <= 4 * k * EPS * l1, (algorithm, k)


@settings(max_examples=60, deadline=None)
@given(**IDENTITY_SAMPLES)
@example(seed=0, m=2, d=1, n_splits=1, decimals=None, exponent=0)
@example(seed=1, m=30, d=2, n_splits=3, decimals=0, exponent=7)
def test_staged_rows_are_the_expansion_of_each_truncation(seed, m, d, n_splits, decimals, exponent):
    # Both sides use the same floats 1 - alpha_j, beta_j and g_j(X). A staged
    # row rounds twice a stage, 2u times magnitudes that, carried to stage k,
    # sum to at most B_k (expansion_magnitudes): 2k u B_k. The expansion rounds
    # each c_j k - j times, each c_j g_j once, and sums k terms: (2k - 1)u B_k.
    # So |staged - expanded| <= (4k - 1)u B_k, and twice that is below 4k eps B_k.
    X, y = identity_sample(seed, m, d, decimals, exponent)
    for algorithm in ("boosting", "rboosting", "ddrboosting"):
        model, _ = identity_fit(X, y, algorithm, n_splits)
        staged = model.staged_predict(X)
        bound = expansion_magnitudes(model, X)
        for k in range(1, len(model) + 1):
            gap = np.abs(staged[k - 1] - model.truncate(k).expanded_predict(X))
            assert np.all(gap <= 4 * k * EPS * bound[k - 1]), (algorithm, k)
