"""Grid-discretized calibration of a base scorer against an oracle score.

Scores are rounded to uniform grids ({i/M} for the base score, {j/M'} for the
oracle score); the pair of rounded values indexes a cell. Two post-hoc
correctors are provided:

* ``CellCalibrator`` stores one offset per cell, the mean training residual
  y - f(x) there: (M+1)(M'+1) parameters, exactly unbiased per nonempty cell.
* ``AdditiveCalibrator`` stores one offset per base-grid level plus one per
  oracle-grid level, fitted jointly by least squares: M+M'+2 parameters, with
  residual sums zero over every occupied row and column level.

Both fits read one table, the row count and residual sum Σ(y - f) of every
cell (``data.bin_sums``): cell offsets are its ratios, and additive offsets
solve the normal equations built from it. ``choose_grid`` builds the table per
fold and fits each fold from the total minus that fold.

Both apply as f(x) + table[i, j], one offset table over the cells (for the
additive kind, the outer sum of its two vectors), clamped to [0, 1]; the
pre-clamp value is exposed separately because the unbiasedness properties are
statements about the unclamped corrector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Artifact, bin_sums, check_scores, cv_select, json_field, load_artifact


class CalibrationError(ValueError):
    """Raised for invalid grids or unusable fitting inputs."""


@dataclass(frozen=True)
class GridSpec:
    """Grid resolutions: base scores round to {i/base_res}, oracle scores to {j/oracle_res}."""

    base_res: int
    oracle_res: int

    def __post_init__(self):
        if self.base_res < 1 or self.oracle_res < 1:
            raise CalibrationError(
                f"grid resolutions must be positive integers, got ({self.base_res}, {self.oracle_res})"
            )


def grid_index(v, res: int):
    """Index of the nearest grid point i/res, ties broken toward the lower point."""
    v = np.asarray(v, dtype=float)
    if not np.all((v >= 0) & (v <= 1)):
        raise CalibrationError("grid rounding requires values in [0, 1]")
    idx = np.ceil(v * res - 0.5).astype(int)
    idx = np.clip(idx, 0, res)
    return idx if idx.ndim else int(idx)


def grid_round(v: float, res: int) -> float:
    """Round a score in [0, 1] to the nearest point of the grid {i/res}."""
    return grid_index(v, res) / res


class _GridCalibrator(Artifact):
    """Application shared by both calibrators: f + table[grid_index(f), grid_index(z)].

    A subclass sets ``grid``, and ``table`` (its offset per cell, shape
    (base_res+1, oracle_res+1)) when it is built. ``ARRAYS`` names its array
    fields and their JSON kind, in the order its constructor takes them after
    ``grid``; the document holds the two resolutions and those arrays.
    """

    def to_doc(self) -> dict:
        arrays = {name: getattr(self, name).tolist() for name, _ in self.ARRAYS}
        return {"base_res": self.grid.base_res, "oracle_res": self.grid.oracle_res, **arrays}

    @classmethod
    def from_doc(cls, doc: dict):
        grid = GridSpec(json_field(doc, "base_res", int), json_field(doc, "oracle_res", int))
        return cls(grid, *(json_field(doc, name, kind, list) for name, kind in cls.ARRAYS))

    def offset(self, base_score, oracle_score):
        i = grid_index(base_score, self.grid.base_res)
        j = grid_index(oracle_score, self.grid.oracle_res)
        out = self.table[i, j]
        return out if np.ndim(out) else float(out)

    def calibrate_raw(self, base_score, oracle_score):
        """Corrected score before clamping; unbiasedness holds for this value."""
        out = np.asarray(base_score, dtype=float) + self.offset(base_score, oracle_score)
        return out if out.ndim else float(out)

    def calibrate(self, base_score, oracle_score):
        out = np.clip(self.calibrate_raw(base_score, oracle_score), 0.0, 1.0)
        return out if np.ndim(out) else float(out)


@dataclass(frozen=True)
class CellCalibrator(_GridCalibrator):
    """Per-cell mean-residual offsets on the (base grid) x (oracle grid) table."""

    KIND = "cell_calibrator"
    ERROR = CalibrationError
    ARRAYS = (("delta", float), ("counts", int))

    grid: GridSpec
    delta: np.ndarray  # (base_res+1, oracle_res+1)
    counts: np.ndarray

    # bound here too, for code that wraps methods by looking them up in a class's own __dict__
    calibrate = _GridCalibrator.calibrate

    def __post_init__(self):
        delta = np.asarray(self.delta, dtype=float)
        counts = np.asarray(self.counts, dtype=int)
        shape = (self.grid.base_res + 1, self.grid.oracle_res + 1)
        if delta.shape != shape or counts.shape != shape:
            raise CalibrationError(f"delta/counts must have shape {shape}")
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "table", delta)

    @property
    def parameter_count(self) -> int:
        return (self.grid.base_res + 1) * (self.grid.oracle_res + 1)


@dataclass(frozen=True)
class AdditiveCalibrator(_GridCalibrator):
    """Row-plus-column offsets: cell (i, j) adds row_offsets[i] + col_offsets[j]."""

    KIND = "additive_calibrator"
    ERROR = CalibrationError
    ARRAYS = (("row_offsets", float), ("col_offsets", float))

    grid: GridSpec
    row_offsets: np.ndarray  # base_res+1
    col_offsets: np.ndarray  # oracle_res+1

    calibrate = _GridCalibrator.calibrate  # as in CellCalibrator

    def __post_init__(self):
        rows = np.asarray(self.row_offsets, dtype=float)
        cols = np.asarray(self.col_offsets, dtype=float)
        if rows.shape != (self.grid.base_res + 1,) or cols.shape != (self.grid.oracle_res + 1,):
            raise CalibrationError("offset vectors do not match the grid resolutions")
        object.__setattr__(self, "row_offsets", rows)
        object.__setattr__(self, "col_offsets", cols)
        object.__setattr__(self, "table", np.add.outer(rows, cols))

    @property
    def parameter_count(self) -> int:
        return (self.grid.base_res + 1) + (self.grid.oracle_res + 1)


def load_calibrator(path):
    """Load either calibrator kind from its JSON file."""
    return load_artifact(path, CellCalibrator, AdditiveCalibrator)


def _cell_sums(f, z, y, grid: GridSpec, fold=None, k: int = 1):
    """Cell key i·(M'+1) + j of each row, and the (count, Σ(y - f)) table per fold and cell."""
    cell = grid_index(f, grid.base_res) * (grid.oracle_res + 1) + grid_index(z, grid.oracle_res)
    n_cells = (grid.base_res + 1) * (grid.oracle_res + 1)
    return cell, bin_sums(cell, n_cells, (y - f,), fold, k)


def _cell_offsets(count, total) -> np.ndarray:
    return np.divide(total, count, out=np.zeros(total.shape), where=count > 0)


def _additive_offsets(count, total, grid: GridSpec):
    """Row and column offsets from one flat (count, Σ(y - f)) cell table.

    With N the count table, the normal equations are
    [[diag(row n), N], [Nᵀ, diag(col n)]] @ offsets = [row Σ(y - f), col Σ(y - f)];
    pinv(gram) @ rhs is the design's minimum-norm solution, as X⁺ = (XᵀX)⁺Xᵀ.
    Unoccupied levels stay out of the solve and get exactly 0.
    """
    shape = (grid.base_res + 1, grid.oracle_res + 1)
    n, r = count.reshape(shape), total.reshape(shape)
    gram = np.block([[np.diag(n.sum(1)), n], [n.T, np.diag(n.sum(0))]])
    rhs = np.concatenate([r.sum(1), r.sum(0)])
    used = np.diag(gram) > 0
    rcond = used.sum() * np.finfo(float).eps  # numpy's matrix_rank cut-off drops the gauge
    solution = np.zeros(rhs.size)
    solution[used] = np.linalg.pinv(gram[np.ix_(used, used)], rcond=rcond, hermitian=True) @ rhs[used]
    return solution[: shape[0]], solution[shape[0]:]


def fit_cell_calibrator(base_scores, oracle_scores, labels, grid: GridSpec) -> CellCalibrator:
    """Offsets are the mean of y - f(x) per cell; empty cells stay at 0."""
    f, z, y = check_scores(base_scores, oracle_scores, labels, error=CalibrationError)
    count, total = _cell_sums(f, z, y, grid)[1][:, 0]
    shape = (grid.base_res + 1, grid.oracle_res + 1)
    return CellCalibrator(grid, _cell_offsets(count, total).reshape(shape), count.reshape(shape))


def fit_additive_calibrator(base_scores, oracle_scores, labels, grid: GridSpec) -> AdditiveCalibrator:
    """Least-squares offsets; the rank-deficient system takes the minimum-norm solution.

    The model regresses the residuals y - f(x) on indicator columns for each
    base-grid level and each oracle-grid level. Any constant can shift the row
    offsets and counter-shift the column offsets without changing predictions,
    so the minimum-norm solution is used to make the fitted parameters
    reproducible. It is solved from the cell table by the normal equations
    (``_additive_offsets``), never from a per-row design matrix.
    """
    f, z, y = check_scores(base_scores, oracle_scores, labels, error=CalibrationError)
    rows, cols = _additive_offsets(*_cell_sums(f, z, y, grid)[1][:, 0], grid)
    return AdditiveCalibrator(grid=grid, row_offsets=rows, col_offsets=cols)


def _fold_offsets(f, z, y, grid: GridSpec, kind: str, fold, k: int):
    """Cell key of each row, and row g = the flat offset table fitted without fold g."""
    cell, held = _cell_sums(f, z, y, grid, fold, k)
    count, total = held.sum(1, keepdims=True) - held  # total minus fold
    if kind == "cell":
        return cell, _cell_offsets(count, total)
    fits = [_additive_offsets(c, t, grid) for c, t in zip(count, total)]
    return cell, np.array([np.add.outer(rows, cols).ravel() for rows, cols in fits])


def choose_grid(
    base_scores,
    oracle_scores,
    labels,
    candidate_res,
    oracle_res: int,
    kind: str = "cell",
    k: int = 5,
    seed: int = 0,
) -> GridSpec:
    """Pick the base-grid resolution minimizing k-fold squared error.

    ``data.cv_select`` deals the rows into k folds. Per candidate, one
    bincount pass builds every fold's cell table; fold g's calibrator comes
    from the total minus fold g (the same fit as refitting on the other k-1
    folds), and one gather scores its clamped output on fold g's rows. Ties
    break toward the smaller resolution. A single candidate is returned as-is
    without cross-validation.
    """
    candidates = sorted(set(int(m) for m in candidate_res))
    if not candidates:
        raise CalibrationError("choose_grid needs at least one candidate resolution")
    if kind not in ("cell", "additive"):
        raise CalibrationError(f"unknown calibrator kind {kind!r}")
    if len(candidates) == 1:
        return GridSpec(candidates[0], oracle_res)
    f, z, y = check_scores(base_scores, oracle_scores, labels, error=CalibrationError)

    def cv_loss(res, fold, k):
        cell, offsets = _fold_offsets(f, z, y, GridSpec(res, oracle_res), kind, fold, k)
        pred = np.clip(f + offsets[fold, cell], 0.0, 1.0)
        return float(np.sum((pred - y) ** 2)) / f.size

    res = cv_select(candidates, cv_loss, f.size, k, seed, CalibrationError, "choose_grid")
    return GridSpec(res, oracle_res)
