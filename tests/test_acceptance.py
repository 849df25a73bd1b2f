"""Acceptance gate: one test per release criterion, at pinned tolerances.

Each test prints a single `ACCEPTANCE Cn PASS` line with the measured
numbers (run pytest with -s to watch them stream). The benchmark-scale
checks (C3-C7) dominate the runtime; with two workers the whole module
takes on the order of ten minutes. They carry the `slow` marker, so
`pytest -m "not slow"` skips them for a fast inner loop.
"""

import os
import time

import numpy as np
import pytest

from rboost import (
    Dataset,
    DictionaryAtom,
    Ensemble,
    Stage,
    SyntheticSpec,
    TrainConfig,
    TreeLearnerSpec,
    empirical_risk,
    fit_tree,
    run_adaptive_eval,
    run_comparison,
    two_dim_linear_search,
)
from rboost.boosters import train_boosting, train_rboosting
from rboost.cli import main as cli_main

WORKERS = min(2, os.cpu_count() or 1)
FULL_GRID = "20:1:1e6"


def _grid20():
    from rboost import u_grid

    return u_grid(20, 1, 1e6)


def _report(criterion, detail, t0):
    print(f"\nACCEPTANCE {criterion} PASS ({time.perf_counter() - t0:.1f}s): {detail}")


def _wavy_data(rng, m, d=1, noise=0.3):
    X = rng.uniform(-2, 2, (m, d))
    y = np.sin(1.5 * X[:, 0]) + 0.4 * X[:, 0] + noise * rng.standard_normal(m)
    return Dataset(X, y)


def test_c1_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)

    # (a) plain-boosting risk identity E_k = E_{k-1} - beta_k^2, every iteration
    for m, spec in ((150, TreeLearnerSpec(1)), (120, TreeLearnerSpec(4))):
        data = _wavy_data(rng, m)
        _, trace = train_boosting(data, TrainConfig("boosting", 40, spec))
        prev = float(np.mean(data.targets**2))
        for k in range(len(trace)):
            assert abs(trace.risk[k] - (prev - trace.beta[k] ** 2)) <= 1e-10
            prev = trace.risk[k]

    # (b) DDR closed form within 1e-4 of a twice-refined 41x41 grid oracle
    for _ in range(20):
        f = rng.standard_normal(60)
        g = rng.standard_normal(60)
        g /= np.sqrt(np.mean(g * g))
        y = rng.uniform(0, 1.5) * f + rng.uniform(-1.5, 1.5) * g + 0.3 * rng.standard_normal(60)

        def grid_best(ca, cb, half):
            alphas = np.linspace(ca - half, ca + half, 41)
            betas = np.linspace(cb - half, cb + half, 41)
            risks = np.array([[empirical_risk((1 - a) * f + b * g, y) for b in betas] for a in alphas])
            i, j = np.unravel_index(np.argmin(risks), risks.shape)
            return alphas[i], betas[j], risks[i, j]

        a, b, risk = grid_best(0.0, 0.0, 2.0)
        step = 4.0 / 40
        for _ in range(2):
            a, b, risk = grid_best(a, b, step)
            step = 2 * step / 40
        res = two_dim_linear_search(f, g, y)
        assert abs(empirical_risk((1 - res.alpha) * f + res.beta * g, y) - risk) <= 1e-4

    # (c) DDR step never loses to the plain step given the same learner
    data = _wavy_data(rng, 110)
    fitter = TreeLearnerSpec(1).bind(data)
    f = np.zeros(data.m)
    y = data.targets
    for _ in range(25):
        step = fitter.fit_step(y - f)
        if step is None:
            break
        _, g = step
        res = two_dim_linear_search(f, g, y)
        ddr = empirical_risk((1 - res.alpha) * f + res.beta * g, y)
        plain = empirical_risk(f + np.mean((y - f) * g) * g, y)
        assert ddr <= plain + 1e-12
        f = (1 - res.alpha) * f + res.beta * g

    # (d) l1 recursion along boosting and re-scaled traces
    for maker, kw in ((train_boosting, {}), (train_rboosting, {"u": 2})):
        algo = "boosting" if maker is train_boosting else "rboosting"
        data = _wavy_data(rng, 90)
        _, trace = maker(data, TrainConfig(algo, 30, TreeLearnerSpec(1), **kw))
        prev = 0.0
        for k in range(len(trace)):
            assert trace.l1_norm[k] <= (1 - trace.alpha[k]) * prev + abs(trace.beta[k]) + 1e-12
            prev = trace.l1_norm[k]

    # (e) staged recursion equals coefficient expansion on random ensembles
    for _ in range(10):
        stages = []
        for _ in range(int(rng.integers(1, 51))):
            w, b = rng.standard_normal(2), rng.standard_normal()
            atom = DictionaryAtom(0, lambda X, w=w, b=b: X @ w + b)
            stages.append(Stage(float(rng.uniform(0, 1)), float(rng.standard_normal()), atom))
        model = Ensemble(stages)
        X = rng.uniform(-2, 2, (25, 2))
        a, bvals = model.predict(X), model.expanded_predict(X)
        assert np.max(np.abs(a - bvals)) <= 1e-10 * max(1.0, np.max(np.abs(a)))

    # (f) u = 10^12 re-scaling is plain boosting to 1e-6 relative, k <= 100
    data = _wavy_data(rng, 120)
    pr = train_rboosting(data, TrainConfig("rboosting", 100, TreeLearnerSpec(1), u=10**12))[0].predict(data.features)
    pb = train_boosting(data, TrainConfig("boosting", 100, TreeLearnerSpec(1)))[0].predict(data.features)
    sup_gap = np.max(np.abs(pr - pb)) / np.max(np.abs(pb))
    assert sup_gap <= 1e-6

    _report("C1", f"risk identity, DDR oracle/dominance, l1 recursion, staged=expanded, u->inf gap {sup_gap:.1e}", t0)


def test_c2_stump_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2002)
    for _ in range(100):
        m = int(rng.integers(5, 201))
        d = int(rng.integers(1, 6))
        X = rng.uniform(-2, 2, (m, d))
        r = rng.standard_normal(m)
        tree = fit_tree(Dataset(X, np.zeros(m)), r, 1)

        # exhaustive (feature, midpoint) search with the documented tie-breaks
        sse_parent = np.sum((r - r.mean()) ** 2)
        best = None
        for fidx in range(d):
            vals = np.unique(X[:, fidx])
            for lo, hi in zip(vals[:-1], vals[1:]):
                thr = 0.5 * (lo + hi)
                if not lo <= thr < hi:
                    thr = lo
                mask = X[:, fidx] <= thr
                left, right = r[mask], r[~mask]
                red = sse_parent - np.sum((left - left.mean()) ** 2) - np.sum((right - right.mean()) ** 2)
                key = (-red, fidx, thr)
                if best is None or key < best[0]:
                    best = (key, fidx, thr, left.mean(), right.mean())

        assert (tree.feature[0], tree.threshold[0]) == (best[1], best[2])
        assert abs(tree.value[tree.left[0]] - best[3]) <= 1e-12
        assert abs(tree.value[tree.right[0]] - best[4]) <= 1e-12
    _report("C2", "fit_tree(J=1) == exhaustive stump search on 100 random datasets", t0)


@pytest.mark.slow
def test_c3_table1_spot_check_m3():
    t0 = time.perf_counter()
    spec = SyntheticSpec(target_id=3, noise_sigma=0.0, trials=20, seed_base=0)
    report = run_comparison(
        spec,
        algorithms=("boosting", "rboosting"),
        k_max=200,
        grid=_grid20(),
        learner_spec=TreeLearnerSpec(4),
        workers=WORKERS,
    )
    rb = report.algorithms["rboosting"].rmse_mean
    bo = report.algorithms["boosting"].rmse_mean
    assert 0.005 <= rb <= 0.06, f"rboosting mean {rb:.4f} outside [0.005, 0.06]"
    assert rb <= bo, f"rboosting mean {rb:.4f} > boosting mean {bo:.4f}"
    _report("C3", f"m3/sigma=0: rboosting {rb:.4f} in [0.005, 0.06], boosting {bo:.4f}", t0)


@pytest.mark.slow
def test_c4_table3_spot_check_m7():
    t0 = time.perf_counter()
    spec = SyntheticSpec(target_id=7, noise_sigma=0.0, trials=20, seed_base=0)
    report = run_comparison(
        spec,
        algorithms=("boosting", "rboosting"),
        k_max=200,
        grid=_grid20(),
        learner_spec=TreeLearnerSpec(4),
        workers=WORKERS,
    )
    rb = report.algorithms["rboosting"].rmse_mean
    bo = report.algorithms["boosting"].rmse_mean
    ratio = rb / bo
    assert ratio <= 0.70, f"ratio {ratio:.3f} > 0.70 (rboost {rb:.4f}, boost {bo:.4f})"
    _report("C4", f"m7/sigma=0: rboost/boost = {rb:.4f}/{bo:.4f} = {ratio:.3f} <= 0.70", t0)


@pytest.mark.slow
def test_c5_table2_spot_check_m4():
    t0 = time.perf_counter()
    spec = SyntheticSpec(target_id=4, noise_sigma=0.0, trials=20, seed_base=0)
    report = run_comparison(
        spec,
        algorithms=("boosting", "rboosting"),
        k_max=200,
        grid=_grid20(),
        learner_spec=TreeLearnerSpec(4),
        workers=WORKERS,
    )
    rb = report.algorithms["rboosting"].rmse_mean
    bo = report.algorithms["boosting"].rmse_mean
    ratio = rb / bo
    assert ratio <= 0.60, f"ratio {ratio:.3f} > 0.60 (rboost {rb:.4f}, boost {bo:.4f})"
    _report("C5", f"m4/sigma=0: rboost/boost = {rb:.4f}/{bo:.4f} = {ratio:.3f} <= 0.60", t0)


@pytest.mark.slow
def test_c6_ucurve_interior_minimum():
    t0 = time.perf_counter()
    spec = SyntheticSpec(target_id=4, noise_sigma=0.5, trials=10, seed_base=0)
    curve = run_comparison(
        spec, ("rboosting",), k_max=150, grid=_grid20(), learner_spec=TreeLearnerSpec(4), workers=WORKERS
    ).curve
    interior = min(p.mean_rmse for p in curve[:-1])
    endpoint = curve[-1].mean_rmse
    assert interior <= 0.95 * endpoint, f"interior {interior:.4f} not 5% below endpoint {endpoint:.4f}"
    _report(
        "C6",
        f"m4/sigma=0.5 u-curve: interior min {interior:.4f} is {(1 - interior / endpoint) * 100:.0f}% below u=1e6 endpoint {endpoint:.4f}",
        t0,
    )


@pytest.mark.slow
def test_c7_adaptive_selection_fidelity():
    t0 = time.perf_counter()
    spec = SyntheticSpec(target_id=4, noise_sigma=0.5, trials=20, seed_base=0)
    report = run_adaptive_eval(spec, grid=_grid20(), k_max=200, learner_spec=TreeLearnerSpec(4), workers=WORKERS)
    adaptive = report.algorithms["rboosting_adaptive"].rmse_mean
    ideal = report.algorithms["rboosting_ideal"].rmse_mean
    ratio = adaptive / ideal
    assert ratio <= 1.10, f"adaptive {adaptive:.4f} vs ideal {ideal:.4f}: ratio {ratio:.3f} > 1.10"
    _report(
        "C7",
        f"m4/sigma=0.5: adaptive {adaptive:.4f} <= 1.10 x ideal {ideal:.4f} (ratio {ratio:.3f})",
        t0,
    )


def test_c8_benchmark_commands_are_byte_stable(tmp_path, capsys):
    t0 = time.perf_counter()
    cases = [
        (
            "simulate",
            [
                "simulate", "--target", "3", "--sigma", "0.5", "--trials", "3", "--j", "2",
                "--k-max", "8", "--grid", "3:1:1000", "--seed", "11", "--train-m", "60",
                "--test-m", "40",
            ],
            ["results.csv", "manifest.json"],
        ),
        (
            "ucurve",
            [
                "ucurve", "--target", "4", "--sigma", "0.5", "--trials", "2", "--j", "1",
                "--k-max", "6", "--grid", "3:1:100", "--seed", "3", "--train-m", "50",
                "--test-m", "30",
            ],
            ["ucurve.csv", "manifest.json"],
        ),
        (
            "adaptive",
            [
                "adaptive", "--target", "3", "--sigma", "0.5", "--trials", "2", "--j", "1",
                "--k-max", "6", "--grid", "2:1:100", "--seed", "5", "--train-m", "40",
                "--test-m", "30",
            ],
            ["adaptive.csv", "manifest.json"],
        ),
    ]
    for name, args, expected in cases:
        out = tmp_path / name
        assert cli_main([*args, "--out", str(out)]) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert set(first) == set(expected)
        assert cli_main([*args, "--out", str(out)]) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second, f"{name}: rerun changed bytes"
    capsys.readouterr()
    _report("C8", "simulate/ucurve/adaptive reruns with the same manifest are byte-identical", t0)
