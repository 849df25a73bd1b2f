import numpy as np
import pytest

from dictionary_learner import DictionaryAtom, DictionaryLearnerSpec
from rboost import SyntheticSpec, TrainConfig, TreeLearnerSpec, run_comparison
from rboost.bench import rmse, sample_dataset, selected_u_stats, target_values
from rboost.core import empirical_risk
from rboost.selection import adaptive_select, select_k_by_validation


class TestEvalTarget:
    def test_one_dimensional_values(self):
        assert target_values(1, [[0.0]])[0] == 6.0
        assert target_values(1, [[-2.0]])[0] == 2.0  # clamp branch: max(1, -1)
        assert target_values(1, [[-0.1]])[0] == pytest.approx(5.6)
        assert target_values(3, [[1.0]])[0] == pytest.approx(3.0)
        assert target_values(3, [[0.0]])[0] == 0.0
        assert target_values(3, [[-1.0]])[0] == pytest.approx(-3.0)

    def test_m2_support_and_values(self):
        assert target_values(2, [[-0.25]])[0] == pytest.approx(0.0, abs=1e-14)  # sin(-2*pi)
        assert target_values(2, [[-1 / 16]])[0] == pytest.approx(-2.5, rel=1e-12)  # 10*0.25*sin(-pi/2)
        assert target_values(2, [[0.0]])[0] == 0.0  # right boundary excluded
        assert target_values(2, [[0.1]])[0] == 0.0
        assert target_values(2, [[-0.3]])[0] == 0.0

    def test_two_dimensional_values(self):
        assert target_values(4, [[0.0, 0.0]])[0] == 0.0
        assert target_values(4, [[1.0, 1.0]])[0] == 0.0
        assert target_values(4, [[1.0, 0.0]])[0] == pytest.approx(np.sin(1.0))
        assert target_values(5, [[0.0, 0.0]])[0] == 4.0
        assert target_values(5, [[1.0, 1.0]])[0] == pytest.approx(4 / 9)
        assert target_values(6, [[0.0, 0.0]])[0] == 6.0
        assert target_values(6, [[1.0, 0.0]])[0] == 0.0  # min saturates at 3
        assert target_values(6, [[0.0, 0.5]])[0] == 2.0

    def test_ten_dimensional_values(self):
        e1 = np.zeros(10)
        e1[0] = 1.0
        assert target_values(7, [e1])[0] == pytest.approx(np.sin(1.0))
        e2 = np.zeros(10)
        e2[1] = 1.0
        assert target_values(7, [e2])[0] == pytest.approx(-np.sin(1.0))  # alternating signs
        assert target_values(7, [np.full(10, 0.5)])[0] == pytest.approx(0.0, abs=1e-15)
        assert target_values(8, [np.zeros(10)])[0] == 6.0  # m6(0, 0)
        x = np.zeros(10)
        x[:5] = 0.2
        assert target_values(8, [x])[0] == pytest.approx(0.0, abs=1e-12)  # m6(1, 0)
        x9 = np.zeros(10)
        x9[3] = -1 / 16
        assert target_values(9, [x9])[0] == pytest.approx(-2.5, rel=1e-12)  # m2 of the sum

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            target_values(4, [[1.0]])
        with pytest.raises(ValueError):
            target_values(1, [[1.0, 2.0]])
        with pytest.raises(ValueError):
            target_values(7, np.zeros((3, 2)))

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError):
            target_values(10, [[0.0]])

    def test_vectorized_matches_pointwise(self):
        rng = np.random.default_rng(61)
        for tid, d in [(1, 1), (2, 1), (4, 2), (6, 2), (7, 10), (8, 10), (9, 10)]:
            X = rng.uniform(-2, 2, (15, d))
            vec = target_values(tid, X)
            for i in range(15):
                assert vec[i] == pytest.approx(target_values(tid, [X[i]])[0], rel=1e-14, abs=1e-14)


class TestRmse:
    def test_examples(self):
        v = np.array([1.0, -2.0])
        assert rmse(v, v) == 0.0
        assert rmse([0, 0], [1, -1]) == 1.0

    def test_squares_to_empirical_risk(self):
        rng = np.random.default_rng(62)
        a, b = rng.standard_normal(30), rng.standard_normal(30)
        assert rmse(a, b) ** 2 == pytest.approx(empirical_risk(a, b), rel=1e-12)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            rmse([1.0], [1.0, 2.0])


class TestSampleDataset:
    def test_noiseless_targets_exact(self):
        spec = SyntheticSpec(target_id=4, noise_sigma=0.0, train_m=50, test_m=30, trials=2)
        train, test = sample_dataset(spec, 0)
        assert np.array_equal(train.targets, target_values(4, train.features))
        assert np.array_equal(test.targets, target_values(4, test.features))

    def test_support(self):
        spec = SyntheticSpec(target_id=7, noise_sigma=1.0, train_m=200, test_m=100, trials=1)
        train, test = sample_dataset(spec, 0)
        for ds in (train, test):
            assert np.all(ds.features >= -2.0) and np.all(ds.features <= 2.0)

    def test_test_set_is_noiseless(self):
        spec = SyntheticSpec(target_id=3, noise_sigma=1.0, train_m=50, test_m=40, trials=1)
        train, test = sample_dataset(spec, 0)
        assert np.array_equal(test.targets, target_values(3, test.features))
        assert not np.array_equal(train.targets, target_values(3, train.features))

    def test_noise_variance_law_of_large_numbers(self):
        spec = SyntheticSpec(target_id=3, noise_sigma=1.0, train_m=100_000, test_m=1, trials=1)
        train, _ = sample_dataset(spec, 0)
        noise = train.targets - target_values(3, train.features)
        assert abs(np.var(noise) - 1.0) <= 0.03
        assert abs(np.mean(noise)) <= 0.02

    def test_reproducible_and_trial_independent(self):
        spec = SyntheticSpec(target_id=1, noise_sigma=0.5, train_m=40, test_m=20, trials=3)
        a1, b1 = sample_dataset(spec, 1)
        a2, b2 = sample_dataset(spec, 1)
        assert np.array_equal(a1.features, a2.features)
        assert np.array_equal(a1.targets, a2.targets)
        assert np.array_equal(b1.features, b2.features)
        other, _ = sample_dataset(spec, 2)
        assert not np.array_equal(a1.features, other.features)

    def test_trial_index_bounds(self):
        spec = SyntheticSpec(target_id=1, trials=2)
        with pytest.raises(ValueError):
            sample_dataset(spec, 2)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(target_id=0)
        with pytest.raises(ValueError):
            SyntheticSpec(target_id=1, noise_sigma=-0.1)
        with pytest.raises(ValueError):
            SyntheticSpec(target_id=1, seed_base=-1)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf, -0.1])
    def test_a_noise_sigma_that_is_not_a_finite_number_at_least_zero_is_named(self, sigma):
        with pytest.raises(ValueError, match=r"noise_sigma must be a finite number >= 0, got"):
            SyntheticSpec(target_id=1, noise_sigma=sigma)

    @pytest.mark.parametrize("field, value", [
        ("train_m", 0), ("train_m", 2.5), ("test_m", -1), ("test_m", "7"), ("trials", 2.5), ("trials", np.nan),
    ])
    def test_a_size_that_is_not_a_positive_integer_is_named(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a positive integer, got"):
            SyntheticSpec(target_id=1, **{field: value})

    @pytest.mark.parametrize("seed_base", [1.5, np.nan, "3"])
    def test_a_seed_base_that_is_not_an_integer_is_named(self, seed_base):
        with pytest.raises(ValueError, match="seed_base must be an integer, got"):
            SyntheticSpec(target_id=1, seed_base=seed_base)

    def test_integral_sizes_and_seed_base_are_stored_as_ints(self):
        spec = SyntheticSpec(target_id=1, train_m=50.0, test_m=np.int64(30), trials=2.0, seed_base=3.0)
        values = (spec.train_m, spec.test_m, spec.trials, spec.seed_base)
        assert values == (50, 30, 2, 3) and all(type(v) is int for v in values)

    def test_dimensions_follow_target(self):
        assert SyntheticSpec(target_id=2).dimension == 1
        assert SyntheticSpec(target_id=5).dimension == 2
        assert SyntheticSpec(target_id=9).dimension == 10


def sine_dictionary():
    return DictionaryLearnerSpec(
        (
            DictionaryAtom(0, lambda X: np.sin(np.pi * X[:, 0] / 2.0)),
            DictionaryAtom(1, lambda X: X[:, 0]),
        )
    )


class TestRunComparison:
    def test_trivially_fittable_dictionary_target(self):
        # Target 3 is a scalar multiple of atom 0, so every algorithm nails
        # it at the first stage under oracle truncation selection.
        spec = SyntheticSpec(target_id=3, noise_sigma=0.0, train_m=40, test_m=30, trials=1)
        report = run_comparison(
            spec, k_max=3, grid=[1, 100], learner_spec=sine_dictionary()
        )
        for algo in ("boosting", "rboosting", "ddrboosting"):
            assert report.algorithms[algo].rmse_mean <= 1e-10

    def test_report_shape_and_aggregates(self):
        spec = SyntheticSpec(target_id=3, noise_sigma=0.5, train_m=60, test_m=40, trials=3)
        report = run_comparison(spec, k_max=8, grid=[1, 50], learner_spec=TreeLearnerSpec(1))
        for algo, summary in report.algorithms.items():
            assert len(summary.rmse_per_trial) == 3
            assert summary.rmse_mean == pytest.approx(np.mean(summary.rmse_per_trial))
            assert summary.rmse_std == pytest.approx(np.std(summary.rmse_per_trial, ddof=1))
            for sel in summary.selected:
                assert sel["k"] >= 0
                if algo == "rboosting":
                    assert sel["u"] in (1, 50)

    def test_deterministic_reruns(self):
        spec = SyntheticSpec(target_id=1, noise_sigma=0.5, train_m=50, test_m=30, trials=2)
        kw = dict(k_max=6, grid=[1, 10], learner_spec=TreeLearnerSpec(1))
        a = run_comparison(spec, **kw)
        b = run_comparison(spec, **kw)
        for algo in a.algorithms:
            assert a.algorithms[algo].rmse_per_trial == b.algorithms[algo].rmse_per_trial

    def test_curve_populated_when_grid_swept(self):
        spec = SyntheticSpec(target_id=1, noise_sigma=0.5, train_m=40, test_m=25, trials=2)
        report = run_comparison(spec, k_max=5, grid=[1, 10], learner_spec=TreeLearnerSpec(1))
        assert [p.u for p in report.curve] == [1, 10]
        # the oracle pick equals the curve's best point on every trial mean
        assert report.algorithms["rboosting"].rmse_mean <= min(p.mean_rmse for p in report.curve) + 1e-12
        boost_only = run_comparison(spec, algorithms=("boosting",), k_max=5, learner_spec=TreeLearnerSpec(1))
        assert boost_only.curve is None

    @pytest.mark.parametrize("bound", [0, -1.0, float("nan")])
    def test_bad_clip_bound_fails_before_training(self, monkeypatch, bound):
        import rboost.selection

        def no_training(*args):
            raise AssertionError("train was called")

        monkeypatch.setattr(rboost.selection, "train", no_training)  # the selectors do all of bench's training
        spec = SyntheticSpec(target_id=1, train_m=20, test_m=10, trials=1)
        with pytest.raises(ValueError, match="clip bound"):
            run_comparison(spec, k_max=3, grid=[1, 10], learner_spec=TreeLearnerSpec(1), clip_bound=bound)

    @pytest.mark.parametrize("workers", [0, -3, 1.5, None])
    def test_a_workers_value_that_is_not_a_positive_integer_fails_before_training(self, monkeypatch, workers):
        import rboost.selection

        def no_training(*args):
            raise AssertionError("train was called")

        monkeypatch.setattr(rboost.selection, "train", no_training)
        spec = SyntheticSpec(target_id=1, train_m=20, test_m=10, trials=1)
        with pytest.raises(ValueError, match=f"workers must be a positive integer, got {workers}"):
            run_comparison(spec, k_max=3, grid=[1, 10], learner_spec=TreeLearnerSpec(1), workers=workers)

    @pytest.mark.parametrize("clip_bound", [None, 1.5])
    def test_oracle_rows_are_the_selectors_handed_the_test_set(self, clip_bound):
        spec = SyntheticSpec(target_id=4, noise_sigma=0.5, train_m=50, test_m=30, trials=2)
        grid, k_max = [1, 10, 1000], 6
        report = run_comparison(
            spec, ("boosting", "rboosting"), k_max, grid, TreeLearnerSpec(2), clip_bound=clip_bound
        )
        config = TrainConfig("rboosting", k_max, TreeLearnerSpec(2))
        curves = []
        for t in range(2):
            train_ds, test_ds = sample_dataset(spec, t)
            oracle = adaptive_select(train_ds, test_ds, grid, config, clip_bound=clip_bound)
            assert report.algorithms["rboosting"].rmse_per_trial[t] == np.sqrt(oracle.validation_risk)
            assert report.algorithms["rboosting"].selected[t] == {"u": oracle.chosen_u, "k": oracle.chosen_k}
            boost_config = TrainConfig("boosting", k_max, TreeLearnerSpec(2))
            k, risk = select_k_by_validation(train_ds, test_ds, boost_config, clip_bound=clip_bound)
            assert report.algorithms["boosting"].rmse_per_trial[t] == np.sqrt(risk)
            assert report.algorithms["boosting"].selected[t] == {"k": k}
            curves.append([np.sqrt(r) for _, _, r in oracle.per_u_curve])
        assert [p.mean_rmse for p in report.curve] == np.mean(curves, axis=0).tolist()

    def test_parallel_matches_sequential(self):
        spec = SyntheticSpec(target_id=1, noise_sigma=0.5, train_m=40, test_m=25, trials=3)
        kw = dict(k_max=5, grid=[1, 10], learner_spec=TreeLearnerSpec(1))
        seq = run_comparison(spec, workers=1, **kw)
        par = run_comparison(spec, workers=2, **kw)
        for algo in seq.algorithms:
            assert seq.algorithms[algo].rmse_per_trial == par.algorithms[algo].rmse_per_trial
            assert seq.algorithms[algo].selected == par.algorithms[algo].selected


def ucurve(spec, grid, k_max, learner_spec):
    """The u-curve: the per-u test RMSEs of the oracle comparison of the re-scaled booster alone."""
    return run_comparison(spec, ("rboosting",), k_max=k_max, grid=grid, learner_spec=learner_spec).curve


class TestRunUcurve:
    def test_one_point_per_grid_value(self):
        spec = SyntheticSpec(target_id=1, noise_sigma=0.5, train_m=40, test_m=25, trials=2)
        curve = ucurve(spec, grid=[1, 10, 1000], k_max=5, learner_spec=TreeLearnerSpec(1))
        assert [p.u for p in curve] == [1, 10, 1000]

    def test_largest_u_approaches_plain_boosting(self):
        spec = SyntheticSpec(target_id=3, noise_sigma=0.0, train_m=120, test_m=80, trials=2)
        curve = ucurve(spec, grid=[1, 10, 10**6], k_max=60, learner_spec=TreeLearnerSpec(2))
        report = run_comparison(
            spec, algorithms=("boosting",), k_max=60, grid=[1], learner_spec=TreeLearnerSpec(2)
        )
        boost = report.algorithms["boosting"].rmse_mean
        assert abs(curve[-1].mean_rmse - boost) <= 0.05 * boost

    def test_noisy_two_dim_target_has_interior_valley(self):
        # Small-scale version of the published curve shape: some interior u
        # beats the effectively-unshrunk endpoint.
        spec = SyntheticSpec(target_id=4, noise_sigma=0.5, train_m=500, test_m=300, trials=2)
        curve = ucurve(spec, grid=[1, 10, 100, 10**6], k_max=80, learner_spec=TreeLearnerSpec(4))
        assert min(p.mean_rmse for p in curve[:-1]) < curve[-1].mean_rmse


ADAPTIVE_VS_ORACLE = ("rboosting_adaptive", "rboosting")


class TestRunAdaptiveEval:
    def test_singleton_grid_equals_retrained_rboosting(self):
        spec = SyntheticSpec(target_id=3, noise_sigma=0.5, train_m=60, test_m=40, trials=2)
        report = run_comparison(spec, ADAPTIVE_VS_ORACLE, k_max=8, grid=[5], learner_spec=TreeLearnerSpec(1))
        adaptive = report.algorithms["rboosting_adaptive"]
        for t in range(2):
            train_ds, test = sample_dataset(spec, t)
            cfg = TrainConfig("rboosting", 8, TreeLearnerSpec(1), u=5)
            _, expected = select_k_by_validation(train_ds, test, cfg)
            assert adaptive.rmse_per_trial[t] == np.sqrt(expected)
            assert adaptive.selected[t]["u"] == 5

    def test_ideal_never_worse_than_adaptive_u(self):
        # The oracle sweeps every u including the adaptive choice.
        spec = SyntheticSpec(target_id=4, noise_sigma=0.5, train_m=80, test_m=50, trials=2)
        report = run_comparison(spec, ADAPTIVE_VS_ORACLE, k_max=10, grid=[1, 10, 100], learner_spec=TreeLearnerSpec(1))
        for a, i in zip(
            report.algorithms["rboosting_adaptive"].rmse_per_trial,
            report.algorithms["rboosting"].rmse_per_trial,
        ):
            assert i <= a + 1e-12

    def test_selected_u_stats(self):
        spec = SyntheticSpec(target_id=3, noise_sigma=0.5, train_m=60, test_m=30, trials=2)
        report = run_comparison(spec, ADAPTIVE_VS_ORACLE, k_max=5, grid=[2], learner_spec=TreeLearnerSpec(1))
        mean_u, std_u = selected_u_stats(report.algorithms["rboosting_adaptive"])
        assert mean_u == 2.0
        assert std_u == 0.0
        assert all("k_valid" in s for s in report.algorithms["rboosting_adaptive"].selected)
