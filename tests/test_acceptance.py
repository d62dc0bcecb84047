"""Acceptance gate: eleven checks covering the package's core guarantees.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all
live). The first six and the last three are exact algebraic or property
checks; 7 and 8 are directional statistical replications on synthetic data
with fixed seeds and bounded runtimes.
"""

import dataclasses
import json
import time

import numpy as np

from scorefusion import (
    ExperimentConfig,
    GridSpec,
    MethodSpec,
    OracleSettings,
    StratumDensity,
    TransferSettings,
    WeightFunction,
    augmented_objective_and_grad,
    derive_p3,
    feasibility_threshold,
    fit_adaptive_weights,
    fit_additive_calibrator,
    fit_cell_calibrator,
    fit_constant_weight,
    fusion_objective,
    grid_index,
    grid_round,
    regularized_logloss,
    regularized_logloss_grad,
    run_experiment,
    run_transfer_experiment,
    sigmoid,
)
from scorefusion.config import BaseSettings
from scorefusion.data import LabeledDataset
from scorefusion.cli import main as cli_main


def _line(num, title, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:2d} [{title}]: {status}{suffix}", flush=True)
    assert ok, f"criterion {num} ({title}) failed{suffix}"


def _random_instances(rng, count=100, n=50):
    for _ in range(count):
        yield rng.uniform(size=n), rng.uniform(size=n), rng.integers(0, 2, size=n)


def test_c01_constant_weight_matches_grid_search():
    rng = np.random.default_rng(101)
    grid = np.arange(0.0, 1.0 + 1e-4, 1e-4)
    elapsed = 0.0  # library time only; the 10,001-point reference grid is not timed
    worst_da, worst_gap = 0.0, -np.inf
    for y_cv, z, y in _random_instances(rng):
        start = time.perf_counter()
        alpha = fit_constant_weight(y_cv, z, y)
        obj_alpha = fusion_objective(WeightFunction.constant(alpha), y_cv, z, y)
        elapsed += time.perf_counter() - start
        fused = grid[:, None] * y_cv[None, :] + (1.0 - grid[:, None]) * z[None, :]
        objectives = ((fused - y[None, :]) ** 2).mean(axis=1)
        alpha_grid = grid[int(np.argmin(objectives))]
        worst_da = max(worst_da, abs(alpha - alpha_grid))
        worst_gap = max(worst_gap, obj_alpha - float(objectives.min()))
    ok = worst_da <= 1e-3 and worst_gap <= 1e-8 and elapsed < 1.0
    _line(1, "closed-form weight vs 1e-4 grid search", ok,
          f"max |d_alpha| {worst_da:.2e}, max objective gap {worst_gap:.2e}, {elapsed:.2f}s")


def test_c02_single_piece_reduction_is_bitwise():
    rng = np.random.default_rng(102)
    ok = True
    for y_cv, z, y in _random_instances(rng):
        adaptive = fit_adaptive_weights(y_cv, z, y, r=1).weights[0]
        constant = fit_constant_weight(y_cv, z, y)
        ok = ok and (adaptive == constant)
    _line(2, "r=1 adaptive fit equals constant fit bitwise", ok)


def test_c03_adaptive_never_worse_than_constant():
    rng = np.random.default_rng(103)
    worst = -np.inf
    for y_cv, z, y in _random_instances(rng):
        const_obj = fusion_objective(
            WeightFunction.constant(fit_constant_weight(y_cv, z, y)), y_cv, z, y
        )
        for r in (2, 4, 10):
            adaptive_obj = fusion_objective(
                fit_adaptive_weights(y_cv, z, y, r=r), y_cv, z, y
            )
            worst = max(worst, adaptive_obj - const_obj)
    ok = worst <= 1e-12
    _line(3, "adaptive fit dominates the best constant (r in {2,4,10})", ok,
          f"max objective excess {worst:.2e}")


def _calibration_sample(n=500, seed=104):
    rng = np.random.default_rng(seed)
    f = rng.uniform(size=n)
    z = rng.uniform(size=n)
    y = (rng.uniform(size=n) < f).astype(int)
    return f, z, y


def test_c04_cell_calibrator_zero_bias_per_cell():
    f, z, y = _calibration_sample()
    grid = GridSpec(10, 2)
    cal = fit_cell_calibrator(f, z, y, grid)
    raw = cal.calibrate_raw(f, z)
    i = grid_index(f, 10)
    j = grid_index(z, 2)
    worst, cells = 0.0, 0
    for a in range(11):
        for b in range(3):
            mask = (i == a) & (j == b)
            if mask.any():
                cells += 1
                worst = max(worst, abs(float(np.mean(y[mask] - raw[mask]))))
    ok = worst <= 1e-9
    _line(4, "cell calibrator mean residual per nonempty cell", ok,
          f"{cells} nonempty cells, max |mean residual| {worst:.2e}")


def test_c05_additive_calibrator_residual_sums_and_size():
    f, z, y = _calibration_sample()
    grid = GridSpec(10, 2)
    cal = fit_additive_calibrator(f, z, y, grid)
    resid = y - cal.calibrate_raw(f, z)
    i = grid_index(f, 10)
    j = grid_index(z, 2)
    worst = 0.0
    for a in np.unique(i):
        worst = max(worst, abs(float(resid[i == a].sum())))
    for b in np.unique(j):
        worst = max(worst, abs(float(resid[j == b].sum())))
    ok = worst <= 1e-6 and cal.parameter_count == 10 + 2 + 2
    _line(5, "additive calibrator row/column residual sums and M+M'+2 parameters", ok,
          f"max |residual sum| {worst:.2e}, {cal.parameter_count} parameters")


def test_c06_mixture_identity_and_clamping():
    rng = np.random.default_rng(106)
    worst = 0.0
    feasible_checked = infeasible_checked = 0
    ok = True
    while feasible_checked < 100 or infeasible_checked < 50:
        size = int(rng.integers(2, 6))
        tags = tuple(f"s{t}" for t in range(size))
        w1 = rng.dirichlet(np.ones(size))
        w2 = rng.dirichlet(np.ones(size)) + 0.02
        w2 = w2 / w2.sum()
        p1 = StratumDensity(dict(zip(tags, w1)))
        p2 = StratumDensity(dict(zip(tags, w2)))
        n = int(rng.integers(1, 2000))
        threshold = feasibility_threshold(p1, p2, n)
        if feasible_checked < 100:
            m = int(np.ceil(threshold * 1.01)) + 1
            p3, clamped = derive_p3(p1, p2, n, m)
            mix = (n * p1.as_array(tags) + m * p3.as_array(tags)) / (n + m)
            worst = max(worst, float(np.abs(mix - p2.as_array(tags)).max()))
            ok = ok and not clamped
            feasible_checked += 1
        elif threshold >= 2.0:
            m = max(1, int(threshold * 0.5))
            p3, clamped = derive_p3(p1, p2, n, m)
            arr = p3.as_array(tags)
            ok = ok and clamped and np.all(arr >= 0) and abs(arr.sum() - 1.0) <= 1e-9
            infeasible_checked += 1
    ok = ok and worst <= 1e-9
    _line(6, "mixture identity for feasible m; clamp flag for infeasible", ok,
          f"{feasible_checked} feasible (max gap {worst:.2e}), {infeasible_checked} infeasible")


def _shift_dataset(seed):
    """Two strata with disjoint informative coordinates: 2500 source rows (A)
    live on coordinates 0-4, 3000 target rows (B) on 5-9."""
    rng = np.random.default_rng([97, seed])
    n_a, n_b = 2500, 3000
    Xa = np.hstack([rng.standard_normal((n_a, 5)) + 1.0, np.zeros((n_a, 5))])
    Xb = np.hstack([np.zeros((n_b, 5)), rng.standard_normal((n_b, 5)) + 1.0])
    X = np.vstack([Xa, Xb])
    logits = X[:, :5] @ np.array([1.0, -1.0, 1.0, -1.0, 1.0]) \
        + X[:, 5:] @ np.array([1.0, 1.0, -1.0, -1.0, 1.0])
    y = (rng.uniform(size=n_a + n_b) < sigmoid(logits)).astype(int)
    strata = ["A"] * n_a + ["B"] * n_b
    return LabeledDataset.from_arrays(X, y=y, strata=strata, prefix=f"s{seed}_")


def test_c07_transfer_gains_on_the_target_stratum():
    cfg = ExperimentConfig(
        methods=(MethodSpec("transfer", (2000,)),),
        seeds=(0,),
        k=5,
        base=BaseSettings(reg_lambda=1e-3, max_iter=600, tol=1e-5),
        oracle=OracleSettings(kind="synthetic", accuracy=0.85, seed=11),
        transfer=TransferSettings(source_strata=("A",), target_strata=("B",)),
    )
    start = time.perf_counter()
    target_gains, source_drops = [], []
    for seed in range(20):
        report = run_transfer_experiment(
            dataclasses.replace(cfg, seeds=(seed,)), dataset=_shift_dataset(seed)
        )
        target_gains.append(
            report.mean("transfer(2000)@target") - report.mean("ml@target")
        )
        source_drops.append(
            report.mean("ml@source") - report.mean("transfer(2000)@source")
        )
    elapsed = time.perf_counter() - start
    gain = float(np.mean(target_gains))
    drop = float(np.mean(source_drops))
    ok = gain >= 0.03 and drop <= 0.03 and elapsed < 120.0
    _line(7, "transfer lifts target accuracy without hurting the source", ok,
          f"mean target gain {gain:+.3f}, mean source drop {drop:+.3f}, {elapsed:.1f}s")


def _boundary_noise_dataset(seed):
    """Label noise concentrated near the decision boundary mis-specifies the
    plain logistic fit; 8000 rows split 50/50 into train and test."""
    rng = np.random.default_rng([131, seed])
    n, d = 8000, 10
    X = rng.standard_normal((n, d))
    w = 1.2 * np.array([1.0, -1.0, 0.8, -0.8, 0.6, -0.6, 0.4, -0.4, 0.2, -0.2])
    t = X @ w
    y = (rng.uniform(size=n) < sigmoid(3.0 * t)).astype(int)
    flip = rng.uniform(size=n) < 0.30 * np.exp(-((t / 0.8) ** 2))
    y = np.where(flip, 1 - y, y)
    return LabeledDataset.from_arrays(X, y=y, prefix=f"n{seed}_")


def test_c08_fusion_methods_beat_both_inputs():
    cfg = ExperimentConfig(
        methods=(
            MethodSpec("ml"), MethodSpec("llm"), MethodSpec("linear"),
            MethodSpec("adalinear", (4,)), MethodSpec("calibration", (10, 2)),
        ),
        seeds=(0,),
        k=5,
        test_fraction=0.5,
        base=BaseSettings(reg_lambda=1e-3, max_iter=600, tol=1e-5),
        oracle=OracleSettings(kind="synthetic", accuracy=0.75, seed=23),
    )
    start = time.perf_counter()
    sums = {name: 0.0 for name in ("ml", "llm", "linear", "adalinear(4)", "calibration(10,2)")}
    for seed in range(20):
        report = run_experiment(
            dataclasses.replace(cfg, seeds=(seed,)), dataset=_boundary_noise_dataset(seed)
        )
        for name in sums:
            sums[name] += report.mean(name)
    elapsed = time.perf_counter() - start
    means = {name: total / 20 for name, total in sums.items()}
    floor = max(means["ml"], means["llm"]) - 0.01
    fusion = {k: means[k] for k in ("linear", "adalinear(4)", "calibration(10,2)")}
    ok = all(v >= floor for v in fusion.values()) and elapsed < 120.0
    detail = ", ".join(f"{k} {v:.3f}" for k, v in means.items())
    _line(8, "every fusion method within 0.01 of the better input or above", ok,
          f"{detail}, floor {floor:.3f}, {elapsed:.1f}s")


def test_c09_gradients_match_central_differences():
    rng = np.random.default_rng(109)
    h = 1e-6
    worst = 0.0
    n, d = 15, 4
    X = rng.standard_normal((n, d))
    y = rng.integers(0, 2, n).astype(float)
    for _ in range(20):
        w = rng.standard_normal(d) * 0.7
        b = float(rng.standard_normal() * 0.7)
        lam = float(rng.uniform(0.0, 0.1))
        gw, gb = regularized_logloss_grad(w, b, X, y, lam)
        grad = np.append(gw, gb)
        num = np.empty(d + 1)
        for j in range(d + 1):
            ew = np.zeros(d)
            eb = 0.0
            if j < d:
                ew[j] = h
            else:
                eb = h
            num[j] = (
                regularized_logloss(w + ew, b + eb, X, y, lam)
                - regularized_logloss(w - ew, b - eb, X, y, lam)
            ) / (2 * h)
        worst = max(worst, np.linalg.norm(num - grad) / max(np.linalg.norm(grad), 1e-10))

    m = 10
    Xa = rng.standard_normal((m, d))
    slack = 0.1
    checked = 0
    while checked < 20:
        theta = rng.standard_normal(d + 1) * 0.7
        z = rng.uniform(size=m)
        lam = float(rng.uniform(0.0, 0.1))
        preds = sigmoid(Xa @ theta[:d] + theta[d])
        # the relaxed loss is not differentiable on the band boundary itself
        if np.min(np.abs(np.abs(preds - z) - slack)) < 1e-3:
            continue
        checked += 1
        _, grad = augmented_objective_and_grad(theta, X, y, Xa, z, slack, lam)
        num = np.empty(d + 1)
        for j in range(d + 1):
            e = np.zeros(d + 1)
            e[j] = h
            vp, _ = augmented_objective_and_grad(theta + e, X, y, Xa, z, slack, lam)
            vm, _ = augmented_objective_and_grad(theta - e, X, y, Xa, z, slack, lam)
            num[j] = (vp - vm) / (2 * h)
        worst = max(worst, np.linalg.norm(num - grad) / max(np.linalg.norm(grad), 1e-10))

    ok = worst <= 1e-5
    _line(9, "log-loss and relaxed-loss gradients vs central differences", ok,
          f"max relative error {worst:.2e}")


def test_c10_grid_rounding_property():
    rng = np.random.default_rng(110)
    worst_excess = -np.inf
    tie_ok = True
    for res in (1, 2, 10, 20):
        v = rng.uniform(size=100_000)
        rounded = grid_index(v, res) / res
        # half-spacing bound, with one ulp of slack for products like 0.05 * 10
        worst_excess = max(worst_excess, float(np.max(np.abs(rounded - v))) - 0.5 / res)
        for i in range(res):
            mid = (2 * i + 1) / (2 * res)
            if mid * res % 1.0 == 0.5:  # exact float tie
                tie_ok = tie_ok and grid_round(mid, res) == i / res
    ok = worst_excess <= 1e-12 and tie_ok
    _line(10, "rounding error at most half a grid step; ties go down", ok,
          f"max excess over 1/(2M): {worst_excess:.2e}")


def test_c11_experiment_is_byte_deterministic(tmp_path, capsys):
    work = tmp_path / "determinism"
    cfg_synth = tmp_path / "synth.cfg"
    cfg_synth.write_text(
        "synth.d = 3\nsynth.n = 300\nsynth.weights = 1.5, -1.0, 0.5, 0.0\nsynth.seed = 41\n"
    )
    assert cli_main(["synth", "--config", str(cfg_synth), "--out", str(work)]) == 0
    cfg_score = tmp_path / "score.cfg"
    cfg_score.write_text(f"dataset.path = {work / 'synthetic.csv'}\noracle.accuracy = 0.8\n")
    assert cli_main(["score", "--config", str(cfg_score), "--out", str(work)]) == 0

    cfg_run = tmp_path / "run.cfg"
    cfg_run.write_text(
        f"dataset.path = {work / 'synthetic.csv'}\n"
        f"oracle.kind = cached\noracle.cache = {work / 'scores.csv'}\n"
        "methods = ml, llm, linear, adalinear(4), calibration(10,2)\n"
        "folds.k = 5\nseeds = 0, 1\n"
    )
    assert cli_main(["experiment", "--config", str(cfg_run), "--out", str(tmp_path / "a")]) == 0
    assert cli_main(["experiment", "--config", str(cfg_run), "--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()  # the subcommand prints are not part of the check

    report_a = (tmp_path / "a" / "report.json").read_bytes()
    report_b = (tmp_path / "b" / "report.json").read_bytes()
    csv_a = (tmp_path / "a" / "report.csv").read_bytes()
    csv_b = (tmp_path / "b" / "report.csv").read_bytes()
    json.loads(report_a)  # must be valid JSON, not just identical bytes
    ok = report_a == report_b and csv_a == csv_b
    _line(11, "cached-oracle experiment reports are byte-identical", ok,
          f"{len(report_a)} JSON bytes compared")
