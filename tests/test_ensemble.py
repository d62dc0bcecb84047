"""Constant and piecewise fusion weights and the fused scorer."""

import re

import numpy as np
import pytest

from scorefusion import (
    EnsembleError,
    WeightFunction,
    choose_pieces,
    fit_adaptive_weights,
    fit_constant_weight,
    fuse,
    fusion_objective,
    fusion_report,
    piece_index,
)
from scorefusion.data import fold_index
from scorefusion.ensemble import _fold_weights


def _random_case(rng, n=40):
    y_cv = rng.uniform(size=n)
    z = rng.uniform(size=n)
    y = rng.integers(0, 2, size=n)
    return y_cv, z, y


def _grid_best(y_cv, z, y, step=1e-5):
    """Independent brute-force minimizer of the constant-weight objective."""
    grid = np.arange(0.0, 1.0 + step, step)
    fused = grid[:, None] * y_cv[None, :] + (1 - grid[:, None]) * z[None, :]
    obj = ((fused - y[None, :]) ** 2).mean(axis=1)
    return grid[int(np.argmin(obj))], float(obj.min())


class TestConstantWeight:
    def test_two_sample_interior_solution(self):
        alpha = fit_constant_weight([0.8, 0.4], [0.6, 0.0], [1, 0])
        assert alpha == pytest.approx(0.4, abs=1e-12)

    def test_two_sample_clamped_to_zero(self):
        alpha = fit_constant_weight([0.6, 0.4], [0.9, 0.1], [1, 0])
        assert alpha == 0.0

    def test_clamped_to_one_when_labels_lie_beyond_base(self):
        # y - z = 2 (y_cv - z) pushes the unclamped solution to 2
        alpha = fit_constant_weight([0.75], [0.5], [1])
        assert alpha == 1.0

    def test_identical_streams_default_to_base(self):
        s = np.array([0.2, 0.7, 0.5])
        assert fit_constant_weight(s, s, [0, 1, 1]) == 1.0

    def test_matches_brute_force_on_random_cases(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            y_cv, z, y = _random_case(rng)
            alpha = fit_constant_weight(y_cv, z, y)
            alpha_grid, obj_grid = _grid_best(y_cv, z, y)
            assert abs(alpha - alpha_grid) <= 1e-4
            obj = fusion_objective(WeightFunction.constant(alpha), y_cv, z, y)
            assert obj <= obj_grid + 1e-12

    def test_input_validation(self):
        with pytest.raises(EnsembleError):
            fit_constant_weight([0.5], [0.5, 0.6], [1])
        with pytest.raises(EnsembleError):
            fit_constant_weight([], [], [])
        with pytest.raises(EnsembleError):
            fit_constant_weight([1.5], [0.5], [1])
        with pytest.raises(EnsembleError):
            fit_constant_weight([0.5], [0.5], [2])


class TestPieceIndex:
    def test_pieces_are_left_closed(self):
        assert piece_index(0.0, 4) == 0
        assert piece_index(0.25, 4) == 1
        assert piece_index(0.5, 4) == 2
        assert piece_index(0.25 - 1e-12, 4) == 0

    def test_last_piece_includes_one(self):
        assert piece_index(1.0, 4) == 3
        assert piece_index(1.0, 1) == 0

    def test_consistent_with_breakpoints(self):
        wf = WeightFunction(r=5, weights=(0.1, 0.2, 0.3, 0.4, 0.5), support_counts=(1,) * 5)
        for j, (lo, hi) in enumerate(wf.breakpoints):
            assert piece_index(lo, 5) == j
            assert piece_index((lo + hi) / 2, 5) == j


class TestAdaptiveWeights:
    def test_four_sample_two_piece_fit(self):
        y_cv = [0.2, 0.3, 0.8, 0.6]
        z = [1.0, 0.0, 0.6, 0.0]
        y = [1, 0, 1, 0]
        wf = fit_adaptive_weights(y_cv, z, y, r=2)
        np.testing.assert_allclose(wf.weights, [0.0, 0.2], atol=1e-12)
        assert wf.support_counts == (2, 2)
        assert fuse(wf, 0.8, 0.6) == pytest.approx(0.64, abs=1e-12)

    def test_single_piece_is_bitwise_constant(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            y_cv, z, y = _random_case(rng)
            wf = fit_adaptive_weights(y_cv, z, y, r=1)
            assert wf.weights[0] == fit_constant_weight(y_cv, z, y)

    def test_never_worse_than_the_best_constant(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            y_cv, z, y = _random_case(rng, n=60)
            const = WeightFunction.constant(fit_constant_weight(y_cv, z, y))
            base = fusion_objective(const, y_cv, z, y)
            for r in (2, 3, 5, 8):
                wf = fit_adaptive_weights(y_cv, z, y, r=r)
                assert fusion_objective(wf, y_cv, z, y) <= base + 1e-12

    def test_pieces_are_fit_independently(self):
        rng = np.random.default_rng(31)
        y_cv = np.concatenate([rng.uniform(0.0, 0.5, 20), rng.uniform(0.5, 1.0, 20)])
        z = rng.uniform(size=40)
        y = rng.integers(0, 2, size=40)
        wf = fit_adaptive_weights(y_cv, z, y, r=2)
        # perturbing only lower-half samples must leave the upper piece alone
        y2 = y.copy()
        y2[:20] = 1 - y2[:20]
        wf2 = fit_adaptive_weights(y_cv, z, y2, r=2)
        assert wf2.weights[1] == wf.weights[0 + 1]
        assert wf2.weights[0] != wf.weights[0]

    def test_matches_a_per_piece_loop(self):
        rng = np.random.default_rng(47)
        y_cv, z, y = _random_case(rng, n=90)
        y_cv[y_cv > 0.8] = 0.5  # leaves the top pieces empty
        wf = fit_adaptive_weights(y_cv, z, y, r=7)
        idx = np.minimum((y_cv * 7).astype(int), 6)
        for j in range(7):
            m = idx == j
            a, b = y_cv[m] - z[m], y[m] - z[m]
            if not m.any():
                want = 0.0
            elif a @ a == 0:
                want = 1.0
            else:
                want = min(1.0, max(0.0, (b @ a) / (a @ a)))
            assert wf.weights[j] == pytest.approx(want, abs=1e-12)
            assert wf.support_counts[j] == m.sum()

    def test_empty_piece_weight_default_and_override(self):
        y_cv = [0.1, 0.2]
        z = [0.5, 0.5]
        y = [1, 0]
        wf = fit_adaptive_weights(y_cv, z, y, r=4)
        assert wf.weights[2:] == (0.0, 0.0)
        assert wf.support_counts[2:] == (0, 0)

    def test_rejects_bad_configuration(self):
        with pytest.raises(EnsembleError):
            fit_adaptive_weights([0.5], [0.5], [1], r=0)


class TestWeightFunction:
    def test_alpha_is_a_step_function(self):
        wf = WeightFunction(r=3, weights=(0.2, 0.5, 0.9), support_counts=(4, 5, 6))
        np.testing.assert_array_equal(wf.alpha([0.0, 0.4, 0.99, 1.0]), [0.2, 0.5, 0.9, 0.9])
        assert wf.alpha(0.5) == 0.5

    def test_constant_ignores_the_score(self):
        wf = WeightFunction.constant(0.3)
        assert wf.r == 1
        np.testing.assert_array_equal(wf.alpha([0.0, 0.5, 1.0]), [0.3, 0.3, 0.3])

    def test_json_round_trip(self, tmp_path):
        wf = WeightFunction(r=4, weights=(0.0, 0.25, 0.5, 1.0), support_counts=(0, 3, 9, 2))
        path = tmp_path / "weights.json"
        wf.save(path)
        back = WeightFunction.load(path)
        assert back == wf

    def test_validation(self):
        with pytest.raises(EnsembleError):
            WeightFunction(r=2, weights=(0.5,), support_counts=(1, 1))
        with pytest.raises(EnsembleError):
            WeightFunction(r=1, weights=(1.5,), support_counts=(1,))

    @pytest.mark.parametrize("r, weights, counts, message", [
        (0, (), (), "piece count must be >= 1, got 0"),
        (2, (0.5,), (1, 1), "weights and support_counts must both have length r"),
        (1, (1.5,), (1,), "piece weights must lie in [0, 1]"),
    ], ids=["no-pieces", "length", "weight-range"])
    def test_construction_checks_name_the_bad_field(self, r, weights, counts, message):
        with pytest.raises(EnsembleError, match=f"^{re.escape(message)}$"):
            WeightFunction(r=r, weights=weights, support_counts=counts)


class TestFuse:
    def test_endpoint_weights_select_a_stream(self):
        y_hat = np.array([0.2, 0.9])
        z = np.array([0.7, 0.1])
        np.testing.assert_array_equal(fuse(WeightFunction.constant(1.0), y_hat, z), y_hat)
        np.testing.assert_array_equal(fuse(WeightFunction.constant(0.0), y_hat, z), z)

    def test_output_between_the_two_streams(self):
        rng = np.random.default_rng(37)
        y_hat, z = rng.uniform(size=50), rng.uniform(size=50)
        wf = fit_adaptive_weights(y_hat, z, rng.integers(0, 2, 50), r=4)
        out = fuse(wf, y_hat, z)
        assert np.all(out >= np.minimum(y_hat, z) - 1e-15)
        assert np.all(out <= np.maximum(y_hat, z) + 1e-15)

    def test_scalar_in_scalar_out(self):
        out = fuse(WeightFunction.constant(0.5), 0.8, 0.2)
        assert isinstance(out, float) and out == pytest.approx(0.5)


class TestFusionReport:
    def test_fitted_weight_never_hurts_any_piece(self):
        rng = np.random.default_rng(41)
        y_cv, z, y = _random_case(rng, n=80)
        wf = fit_adaptive_weights(y_cv, z, y, r=4)
        report = fusion_report(wf, y_cv, z, y)
        for before, after, count in zip(
            report.objective_before, report.objective_after, report.piece_counts
        ):
            if count:
                assert after <= before + 1e-12

    def test_cv_objective_matches_direct_evaluation(self):
        rng = np.random.default_rng(43)
        y_cv, z, y = _random_case(rng)
        wf = fit_adaptive_weights(y_cv, z, y, r=3)
        report = fusion_report(wf, y_cv, z, y)
        assert report.cv_objective == pytest.approx(fusion_objective(wf, y_cv, z, y), abs=1e-15)

    def test_piece_objectives_match_direct_means(self):
        rng = np.random.default_rng(53)
        y_cv, z, y = _random_case(rng, n=80)
        wf = fit_adaptive_weights(y_cv, z, y, r=4)
        report = fusion_report(wf, y_cv, z, y)
        idx = piece_index(y_cv, 4)
        for j, w in enumerate(wf.weights):
            m = idx == j
            before = np.mean((y_cv[m] - y[m]) ** 2)
            after = np.mean((w * y_cv[m] + (1 - w) * z[m] - y[m]) ** 2)
            assert report.objective_before[j] == pytest.approx(before, abs=1e-12)
            assert report.objective_after[j] == pytest.approx(after, abs=1e-12)

    def test_empty_pieces_report_nan(self):
        wf = fit_adaptive_weights([0.1], [0.5], [1], r=2)
        report = fusion_report(wf, [0.1], [0.5], [1])
        assert report.piece_counts == (1, 0)
        assert np.isnan(report.objective_before[1]) and np.isnan(report.objective_after[1])


class TestNanInputs:
    # NaN compares false against both ends of [0, 1], so the range check must
    # require v >= 0 and v <= 1 rather than reject v < 0 or v > 1
    def test_constant_weight_rejects_nan_scores(self):
        with pytest.raises(EnsembleError):
            fit_constant_weight([np.nan, 0.2], [0.3, 0.4], [1, 0])
        with pytest.raises(EnsembleError):
            fit_constant_weight([0.6, 0.2], [0.3, np.nan], [1, 0])

    def test_adaptive_weights_reject_nan_scores(self):
        with pytest.raises(EnsembleError):
            fit_adaptive_weights([np.nan, 0.9], [0.3, 0.4], [1, 0], r=2)

    def test_fuse_rejects_nan_scores(self):
        wf = WeightFunction.constant(0.5)
        with pytest.raises(EnsembleError, match=r"\[0, 1\]"):
            fuse(wf, [np.nan, 0.3], [0.2, 0.4])
        with pytest.raises(EnsembleError):
            fuse(wf, [0.1, 0.3], [0.2, np.nan])

    def test_fuse_rejects_scores_outside_the_unit_interval(self):
        wf = WeightFunction.constant(0.5)
        with pytest.raises(EnsembleError):
            fuse(wf, 1.5, 1.5)
        with pytest.raises(EnsembleError):
            fuse(wf, 0.5, -0.1)
        assert fuse(wf, 1.0, 0.0) == 0.5  # both ends of [0, 1] are in range


def _reference_choose_pieces(y_cv, z, y, candidates, k, seed):
    """Refit-every-fold search: fit on the other k-1 folds, score the held-out one."""
    perm = np.random.default_rng(seed).permutation(len(y))
    best_r, best_loss = None, float("inf")
    for r in sorted(set(candidates)):
        total = 0.0
        for start in range(k):
            held = perm[start::k]
            mask = np.ones(len(y), dtype=bool)
            mask[held] = False
            wf = fit_adaptive_weights(y_cv[mask], z[mask], y[mask], r=r)
            total += fusion_objective(wf, y_cv[held], z[held], y[held]) * held.size
        if total / len(y) < best_loss:
            best_r, best_loss = r, total / len(y)
    return best_r


def _skewed_case(seed, n):
    """Scores whose top piece holds a single row, so one fold leaves it empty."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    y_cv = np.clip(np.where(y == 1, 0.6, 0.35) + rng.normal(0, 0.15, n), 0.0, 0.89)
    y_cv[0] = 0.97
    z = np.clip(np.where(y == 1, 0.7, 0.3) + rng.normal(0, 0.3, n), 0.0, 1.0)
    return y_cv, z, y


class TestChoosePieces:
    @pytest.mark.parametrize("n,k,seed", [(203, 5, 0), (150, 4, 1), (97, 3, 2), (61, 7, 3)])
    def test_matches_the_refit_every_fold_search(self, n, k, seed):
        y_cv, z, y = _skewed_case(seed, n)
        candidates = [1, 2, 3, 5, 8, 10]
        got = choose_pieces(y_cv, z, y, candidates, k=k, seed=seed)
        assert got == _reference_choose_pieces(y_cv, z, y, candidates, k, seed)

    def test_fold_fits_match_direct_fits(self):
        # n = 103 is not a multiple of k, and the single top-piece row leaves
        # that piece empty in the fit that holds its fold out
        y_cv, z, y = _skewed_case(4, 103)
        k, r = 4, 10
        fold = fold_index(y.size, k, seed=9)
        held, weights = _fold_weights(y_cv, z, y, r, fold, k)
        # row 0 is the only top-piece row: the fit without its fold has none
        assert held[0].sum(0)[-1] - held[0][fold[0], -1] == 0
        for g in range(k):
            mask = fold != g
            direct = fit_adaptive_weights(y_cv[mask], z[mask], y[mask], r=r)
            np.testing.assert_allclose(weights[g], direct.weights, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(held[0].sum(0) - held[0][g], direct.support_counts)

    def test_validation(self):
        with pytest.raises(EnsembleError):
            choose_pieces([0.5, 0.2], [0.5, 0.1], [1, 0], [])
        with pytest.raises(EnsembleError):
            choose_pieces([0.5, 0.2], [0.5, 0.1], [1, 0], [0, 2])
        with pytest.raises(EnsembleError):
            choose_pieces([0.5], [0.5], [1], [1, 2])
