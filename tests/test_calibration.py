"""Grid rounding and the two post-hoc calibrators."""

import re

import numpy as np
import pytest

from scorefusion import (
    AdditiveCalibrator,
    CalibrationError,
    CellCalibrator,
    GridSpec,
    choose_grid,
    fit_additive_calibrator,
    fit_cell_calibrator,
    grid_index,
    grid_round,
    load_calibrator,
)
from scorefusion.calibration import _fold_offsets
from scorefusion.data import fold_index


def _sample(n=400, seed=0):
    rng = np.random.default_rng(seed)
    f = rng.uniform(size=n)
    z = rng.uniform(size=n)
    y = rng.integers(0, 2, size=n)
    return f, z, y


class TestGridRounding:
    def test_known_values(self):
        assert grid_round(0.0, 10) == 0.0
        assert grid_round(1.0, 10) == 1.0
        assert grid_round(0.06, 10) == pytest.approx(0.1)
        assert grid_round(0.97, 10) == 1.0
        assert grid_round(0.4, 1) == 0.0

    def test_midpoints_round_down(self):
        assert grid_round(0.05, 10) == 0.0
        assert grid_round(0.15, 10) == pytest.approx(0.1)
        assert grid_round(0.5, 1) == 0.0
        assert grid_round(0.25, 2) == 0.0

    def test_error_never_exceeds_half_spacing(self):
        rng = np.random.default_rng(11)
        for res in (1, 3, 7, 16):
            v = rng.uniform(size=2000)
            rounded = np.array([grid_round(x, res) for x in v])
            assert np.max(np.abs(rounded - v)) <= 0.5 / res + 1e-15

    def test_vectorized_index(self):
        idx = grid_index(np.array([0.0, 0.26, 1.0]), 4)
        np.testing.assert_array_equal(idx, [0, 1, 4])

    def test_domain_is_enforced(self):
        with pytest.raises(CalibrationError):
            grid_round(1.2, 4)
        with pytest.raises(CalibrationError):
            grid_round(-0.1, 4)

    def test_nan_is_outside_the_domain(self):
        with pytest.raises(CalibrationError):
            grid_index(np.array([0.2, np.nan]), 4)

    def test_grid_spec_validation(self):
        with pytest.raises(CalibrationError):
            GridSpec(0, 2)


class TestTableShapes:
    @pytest.mark.parametrize("build, message", [
        pytest.param(lambda: CellCalibrator(GridSpec(2, 1), np.zeros((3, 3)), np.zeros((3, 2))),
                     "delta/counts must have shape (3, 2)", id="cell-delta"),
        pytest.param(lambda: CellCalibrator(GridSpec(2, 1), np.zeros((3, 2)), np.zeros(6)),
                     "delta/counts must have shape (3, 2)", id="cell-counts"),
        pytest.param(lambda: AdditiveCalibrator(GridSpec(2, 1), np.zeros(3), np.zeros(3)),
                     "offset vectors do not match the grid resolutions", id="additive-columns"),
        pytest.param(lambda: AdditiveCalibrator(GridSpec(2, 1), np.zeros((3, 1)), np.zeros(2)),
                     "offset vectors do not match the grid resolutions", id="additive-rows"),
    ])
    def test_a_table_that_does_not_fit_the_grid_is_rejected(self, build, message):
        with pytest.raises(CalibrationError, match=f"^{re.escape(message)}$"):
            build()


class TestCellCalibrator:
    def test_offset_is_the_mean_cell_residual(self):
        # two cells, hand-computable means
        f = np.array([0.1, 0.12, 0.9])
        z = np.array([0.0, 0.0, 1.0])
        y = np.array([1, 0, 1])
        cal = fit_cell_calibrator(f, z, y, GridSpec(10, 1))
        assert cal.offset(0.1, 0.0) == pytest.approx(((1 - 0.1) + (0 - 0.12)) / 2)
        assert cal.offset(0.9, 1.0) == pytest.approx(1 - 0.9)

    def test_nonempty_cells_are_exactly_unbiased(self):
        f, z, y = _sample(500, seed=1)
        grid = GridSpec(10, 2)
        cal = fit_cell_calibrator(f, z, y, grid)
        i = np.array([grid_index(v, 10) for v in f])
        j = np.array([grid_index(v, 2) for v in z])
        raw = cal.calibrate_raw(f, z)
        for a in range(11):
            for b in range(3):
                mask = (i == a) & (j == b)
                if mask.any():
                    assert abs(np.mean(y[mask] - raw[mask])) < 1e-12

    def test_empty_cells_apply_no_correction(self):
        f, z, y = np.array([0.1]), np.array([0.0]), np.array([1])
        cal = fit_cell_calibrator(f, z, y, GridSpec(2, 1))
        assert cal.offset(0.9, 1.0) == 0.0
        assert cal.counts[0][0] == 1

    def test_parameter_count(self):
        cal = fit_cell_calibrator(*_sample(50), GridSpec(4, 2))
        assert cal.parameter_count == 5 * 3

    def test_clamped_and_raw_outputs(self):
        f = np.array([0.95, 0.97])
        z = np.array([1.0, 1.0])
        y = np.array([1, 1])
        cal = fit_cell_calibrator(f, z, y, GridSpec(1, 1))
        raw = cal.calibrate_raw(0.99, 1.0)
        assert raw > 1.0
        assert cal.calibrate(0.99, 1.0) == 1.0

    def test_json_round_trip(self, tmp_path):
        cal = fit_cell_calibrator(*_sample(60, seed=2), GridSpec(3, 2))
        cal.save(tmp_path / "cell.json")
        back = load_calibrator(tmp_path / "cell.json")
        assert isinstance(back, CellCalibrator)
        np.testing.assert_array_equal(back.delta, cal.delta)
        np.testing.assert_array_equal(back.counts, cal.counts)
        f, z, _ = _sample(20, seed=3)
        np.testing.assert_array_equal(back.calibrate(f, z), cal.calibrate(f, z))


class TestAdditiveCalibrator:
    def test_row_and_column_residual_sums_vanish(self):
        f, z, y = _sample(300, seed=4)
        grid = GridSpec(10, 2)
        cal = fit_additive_calibrator(f, z, y, grid)
        raw = cal.calibrate_raw(f, z)
        resid = y - raw
        i = np.array([grid_index(v, 10) for v in f])
        j = np.array([grid_index(v, 2) for v in z])
        for a in np.unique(i):
            assert abs(resid[i == a].sum()) < 1e-9
        for b in np.unique(j):
            assert abs(resid[j == b].sum()) < 1e-9

    def test_offsets_compose_additively(self):
        f, z, y = _sample(200, seed=5)
        cal = fit_additive_calibrator(f, z, y, GridSpec(5, 2))
        got = cal.offset(0.42, 0.8)
        assert got == pytest.approx(cal.row_offsets[grid_index(0.42, 5)]
                                    + cal.col_offsets[grid_index(0.8, 2)])

    def test_parameter_count_is_row_plus_column_levels(self):
        cal = fit_additive_calibrator(*_sample(100, seed=6), GridSpec(10, 2))
        assert cal.parameter_count == 11 + 3

    def test_matches_the_dense_least_squares_fit(self):
        # the minimum-norm solution of the indicator design, which the
        # normal-equations solve must reproduce
        f, z, y = _sample(300, seed=16)
        f[f > 0.8] = 0.1  # leaves the top base levels unoccupied
        grid = GridSpec(8, 3)
        rows, cols = grid_index(f, 8), grid_index(z, 3)
        design = np.zeros((f.size, 9 + 4))
        design[np.arange(f.size), rows] = 1.0
        design[np.arange(f.size), 9 + cols] = 1.0
        want, *_ = np.linalg.lstsq(design, y - f, rcond=None)
        cal = fit_additive_calibrator(f, z, y, grid)
        np.testing.assert_allclose(cal.row_offsets, want[:9], rtol=0, atol=1e-12)
        np.testing.assert_allclose(cal.col_offsets, want[9:], rtol=0, atol=1e-12)

    def test_fit_is_deterministic(self):
        f, z, y = _sample(150, seed=7)
        a = fit_additive_calibrator(f, z, y, GridSpec(6, 2))
        b = fit_additive_calibrator(f, z, y, GridSpec(6, 2))
        np.testing.assert_array_equal(a.row_offsets, b.row_offsets)
        np.testing.assert_array_equal(a.col_offsets, b.col_offsets)

    def test_minimum_norm_gauge(self):
        # shifting all rows by +c and all columns by -c leaves predictions
        # unchanged, so offsets are identified only up to that gauge; the
        # least-squares fit picks the representative orthogonal to it
        f, z, y = _sample(250, seed=8)
        cal = fit_additive_calibrator(f, z, y, GridSpec(6, 2))
        assert cal.row_offsets.sum() == pytest.approx(cal.col_offsets.sum(), abs=1e-9)

    def test_unoccupied_levels_get_zero_offset(self):
        f = np.array([0.1, 0.12, 0.9, 0.95])
        z = np.array([0.0, 0.0, 0.0, 0.0])
        y = np.array([0, 1, 1, 1])
        cal = fit_additive_calibrator(f, z, y, GridSpec(2, 1))
        assert cal.row_offsets[1] == 0.0  # no sample rounds to 0.5
        assert cal.col_offsets[1] == 0.0  # no oracle score rounds to 1

    def test_json_round_trip(self, tmp_path):
        cal = fit_additive_calibrator(*_sample(80, seed=9), GridSpec(3, 1))
        cal.save(tmp_path / "add.json")
        back = load_calibrator(tmp_path / "add.json")
        assert isinstance(back, AdditiveCalibrator)
        np.testing.assert_array_equal(back.row_offsets, cal.row_offsets)
        np.testing.assert_array_equal(back.col_offsets, cal.col_offsets)


def grid_round_array(values, res):
    return np.array([grid_round(v, res) for v in values])


class TestApplyAndValidation:
    def test_apply_with_and_without_clipping(self):
        f, z, y = _sample(100, seed=10)
        cal = fit_cell_calibrator(f, z, y, GridSpec(5, 1))
        raw = cal.calibrate_raw(f, z)
        clipped = cal.calibrate(f, z)
        np.testing.assert_array_equal(raw, f + cal.offset(f, z))
        np.testing.assert_array_equal(clipped, np.clip(raw, 0.0, 1.0))

    def test_fit_rejects_bad_inputs(self):
        with pytest.raises(CalibrationError):
            fit_cell_calibrator([], [], [], GridSpec(2, 1))
        with pytest.raises(CalibrationError):
            fit_cell_calibrator([0.5], [0.5, 0.1], [1], GridSpec(2, 1))
        with pytest.raises(CalibrationError):
            fit_cell_calibrator([1.2], [0.5], [1], GridSpec(2, 1))
        with pytest.raises(CalibrationError):
            fit_additive_calibrator([0.5], [0.5], [3], GridSpec(2, 1))

    def test_fit_rejects_nan_scores(self):
        # a NaN score must not be rounded into cell (0, 0) as a NaN offset
        with pytest.raises(CalibrationError):
            fit_cell_calibrator([np.nan, 0.4], [0.5, 0.1], [1, 0], GridSpec(2, 1))
        with pytest.raises(CalibrationError):
            fit_additive_calibrator([0.3, 0.4], [np.nan, 0.1], [1, 0], GridSpec(2, 1))

    def test_load_calibrator_rejects_unknown_kind(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "mystery"}')
        with pytest.raises(CalibrationError):
            load_calibrator(path)


class TestChooseGrid:
    def test_single_candidate_skips_cross_validation(self):
        grid = choose_grid([0.5], [0.5], [1], candidate_res=[7], oracle_res=2)
        assert grid == GridSpec(7, 2)

    def test_result_is_always_a_candidate(self):
        f, z, y = _sample(120, seed=12)
        grid = choose_grid(f, z, y, candidate_res=[2, 5, 10], oracle_res=2, seed=1)
        assert grid.base_res in (2, 5, 10)
        assert grid.oracle_res == 2

    def test_oversized_grids_lose_to_the_right_one(self):
        # y steps at 0.75, a rounding boundary for res 2 ({0, 1/2, 1}) and for
        # res 50 alike: both are unbiased, the finer grid just adds variance
        rng = np.random.default_rng(13)
        f = rng.uniform(size=800)
        z = rng.uniform(size=800)
        y = (rng.uniform(size=800) < np.where(f >= 0.75, 0.7, 0.3)).astype(int)
        grid = choose_grid(f, z, y, candidate_res=[2, 50], oracle_res=1, seed=2, kind="cell")
        assert grid.base_res == 2

    def test_duplicate_candidates_collapse(self):
        grid = choose_grid([0.5], [0.5], [1], candidate_res=[4, 4, 4], oracle_res=1)
        assert grid.base_res == 4

    def test_deterministic_in_the_seed(self):
        f, z, y = _sample(90, seed=14)
        a = choose_grid(f, z, y, candidate_res=[2, 4, 8], oracle_res=2, seed=5)
        b = choose_grid(f, z, y, candidate_res=[2, 4, 8], oracle_res=2, seed=5)
        assert a == b

    def test_works_for_the_additive_kind(self):
        f, z, y = _sample(150, seed=15)
        grid = choose_grid(f, z, y, candidate_res=[2, 6], oracle_res=2, kind="additive")
        assert grid.base_res in (2, 6)

    def test_rejects_empty_candidates_and_bad_kind(self):
        with pytest.raises(CalibrationError):
            choose_grid([0.5], [0.5], [1], candidate_res=[], oracle_res=1)
        with pytest.raises(CalibrationError):
            choose_grid([0.5], [0.5], [1], candidate_res=[2, 3], oracle_res=1, kind="spline")


_FITTERS = {"cell": fit_cell_calibrator, "additive": fit_additive_calibrator}


def _reference_choose_grid(f, z, y, candidates, oracle_res, kind, k, seed):
    """Refit-every-fold search: fit on the other k-1 folds, score the held-out one."""
    perm = np.random.default_rng(seed).permutation(f.size)
    best_res, best_loss = None, float("inf")
    for res in sorted(set(candidates)):
        grid = GridSpec(res, oracle_res)
        total = 0.0
        for start in range(k):
            held = perm[start::k]
            mask = np.ones(f.size, dtype=bool)
            mask[held] = False
            cal = _FITTERS[kind](f[mask], z[mask], y[mask], grid)
            total += float(np.sum((cal.calibrate(f[held], z[held]) - y[held]) ** 2))
        if total / f.size < best_loss:
            best_res, best_loss = res, total / f.size
    return best_res


def _skewed_sample(n, seed):
    """Calibration data whose top base-grid cells hold a single row."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    f = np.clip(np.where(y == 1, 0.6, 0.35) + rng.normal(0, 0.15, n), 0.0, 0.85)
    f[0] = 1.0
    z = np.clip(np.where(y == 1, 0.7, 0.3) + rng.normal(0, 0.3, n), 0.0, 1.0)
    return f, z, y


class TestChooseGridMatchesRefitting:
    @pytest.mark.parametrize("kind", ["cell", "additive"])
    @pytest.mark.parametrize("n,k,seed", [(203, 5, 0), (150, 4, 1), (97, 3, 2), (61, 7, 3)])
    def test_same_choice_as_the_refit_every_fold_search(self, kind, n, k, seed):
        f, z, y = _skewed_sample(n, seed)
        candidates = [1, 2, 3, 5, 8, 12]
        got = choose_grid(f, z, y, candidates, oracle_res=2, kind=kind, k=k, seed=seed)
        assert got.base_res == _reference_choose_grid(f, z, y, candidates, 2, kind, k, seed)

    @pytest.mark.parametrize("kind", ["cell", "additive"])
    def test_fold_fits_match_direct_fits(self, kind):
        # n = 103 is not a multiple of k; row 0 is alone in the top base level,
        # so the fit that holds its fold out has that level empty
        f, z, y = _skewed_sample(103, seed=4)
        k, grid = 4, GridSpec(10, 2)
        fold = fold_index(f.size, k, seed=9)
        cell, offsets = _fold_offsets(f, z, y, grid, kind, fold, k)
        np.testing.assert_array_equal(cell, grid_index(f, 10) * 3 + grid_index(z, 2))
        for g in range(k):
            mask = fold != g
            cal = _FITTERS[kind](f[mask], z[mask], y[mask], grid)
            if kind == "cell":
                direct = cal.delta
            else:
                direct = np.add.outer(cal.row_offsets, cal.col_offsets)
            np.testing.assert_allclose(offsets[g], direct.ravel(), rtol=0, atol=1e-12)
        out = fold != fold[0]
        assert fit_cell_calibrator(f[out], z[out], y[out], grid).counts[10].sum() == 0
