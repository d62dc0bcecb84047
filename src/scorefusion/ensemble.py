"""Linear fusion of base-classifier scores with oracle scores.

The fused prediction is alpha(s) * s + (1 - alpha(s)) * z where s is the base
score and z the oracle score. The weight function alpha is piecewise constant
on a uniform partition of [0, 1] into r pieces; r = 1 recovers a single
constant weight. Weights are fitted on out-of-fold base scores by squared
error, for which each piece has a closed-form solution: the unconstrained
scalar regression coefficient, projected onto [0, 1] (exact for a 1-d convex
quadratic). Fits, reports and the k-fold choice of r all read per-piece sums
(``data.bin_sums``) instead of the rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Artifact, bin_sums, check_scores, cv_select, json_field


class EnsembleError(ValueError):
    """Raised for mismatched, empty, or out-of-range fitting inputs."""


def fit_constant_weight(y_cv, z, y) -> float:
    """Best constant fusion weight in [0, 1] under squared error (``fit_adaptive_weights``, r = 1).

    Equivalent to regressing (y - z) on (y_cv - z) and projecting the
    coefficient onto [0, 1]. When y_cv and z coincide everywhere the weight is
    immaterial; 1.0 is returned so the base model stays nominal.
    """
    return fit_adaptive_weights(y_cv, z, y, r=1).weights[0]


def piece_index(value, r: int):
    """0-based index of the partition piece containing each value (scalar or array).

    Pieces are [(j-1)/r, j/r) for j < r and [(r-1)/r, 1] for the last piece.
    """
    idx = np.clip(np.floor(np.asarray(value, dtype=float) * r).astype(int), 0, r - 1)
    return idx if idx.ndim else int(idx)


@dataclass(frozen=True)
class WeightFunction(Artifact):
    """Piecewise-constant fusion weight on a uniform partition of [0, 1]."""

    KIND = "piecewise_weight"
    ERROR = EnsembleError

    r: int
    weights: tuple
    support_counts: tuple

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        object.__setattr__(self, "support_counts", tuple(int(c) for c in self.support_counts))
        if self.r < 1:
            raise EnsembleError(f"piece count must be >= 1, got {self.r}")
        if len(self.weights) != self.r or len(self.support_counts) != self.r:
            raise EnsembleError("weights and support_counts must both have length r")
        if any(not 0.0 <= w <= 1.0 for w in self.weights):
            raise EnsembleError("piece weights must lie in [0, 1]")

    @classmethod
    def constant(cls, alpha: float) -> "WeightFunction":
        return cls(r=1, weights=(alpha,), support_counts=(0,))

    @property
    def breakpoints(self) -> tuple:
        """(lo, hi) bounds of each piece; the last piece is closed at 1."""
        return tuple((j / self.r, (j + 1) / self.r) for j in range(self.r))

    def alpha(self, base_score):
        """Weight of the piece containing each base score (scalar or array)."""
        out = np.asarray(self.weights)[piece_index(base_score, self.r)]
        return out if out.ndim else float(out)

    def to_doc(self) -> dict:
        return {"r": self.r, "weights": list(self.weights),
                "support_counts": list(self.support_counts)}

    @classmethod
    def from_doc(cls, doc: dict) -> "WeightFunction":
        return cls(r=json_field(doc, "r", int), weights=json_field(doc, "weights", float, list),
                   support_counts=json_field(doc, "support_counts", int, list))


def _piece_sums(y_cv, z, y, r: int, fold=None, k: int = 1) -> np.ndarray:
    """(count, Σab, Σa², Σb²) per fold and piece, where a = y_cv - z and b = y - z."""
    a, b = y_cv - z, y - z
    return bin_sums(piece_index(y_cv, r), r, (a * b, a * a, b * b), fold, k)


def _piece_weights(count, sab, saa) -> np.ndarray:
    """Σab / Σa² clamped to [0, 1]; 1 where Σa² = 0, and 0 in empty pieces."""
    w = np.clip(np.divide(sab, saa, out=np.ones(saa.shape), where=saa != 0), 0.0, 1.0)
    return np.where(count > 0, w, 0.0)


def _piece_loss(w, sab, saa, sbb) -> np.ndarray:
    """Per-piece Σ(w·y_cv + (1 - w)·z - y)² at weight w, read off the tables."""
    return w * w * saa - 2.0 * w * sab + sbb


def fit_adaptive_weights(y_cv, z, y, r: int) -> WeightFunction:
    """Fit one constant weight per partition piece of the base-score axis.

    Samples are routed to pieces by their out-of-fold base score; each piece
    solves the constant-weight problem from its own Σab and Σa². Pieces with
    no samples get weight 0 (defer fully to the oracle, the only estimator
    with evidence there) and support count 0.
    """
    if r < 1:
        raise EnsembleError(f"piece count must be >= 1, got {r}")
    count, sab, saa, _ = _piece_sums(*check_scores(y_cv, z, y, error=EnsembleError), r)[:, 0]
    return WeightFunction(r=r, weights=_piece_weights(count, sab, saa), support_counts=count)


def _fold_weights(y_cv, z, y, r: int, fold, k: int):
    """Every fold's piece table, and row g = the weights fitted without fold g."""
    held = _piece_sums(y_cv, z, y, r, fold, k)
    return held, _piece_weights(*(held.sum(1, keepdims=True) - held)[:3])  # total minus fold


def choose_pieces(y_cv, z, y, candidates, k: int = 5, seed: int = 0) -> int:
    """Pick the piece count r minimizing k-fold squared error of the fused score.

    ``data.cv_select`` deals the rows into k folds. Per candidate, one
    bincount pass builds every fold's piece table; fold g's weights come from
    the total minus fold g (the same fit as refitting on the other k-1 folds)
    and are scored on fold g's own table. Ties break toward the smaller r.
    """
    candidates = sorted(set(int(r) for r in candidates))
    if not candidates or candidates[0] < 1:
        raise EnsembleError(f"candidate piece counts must be >= 1, got {candidates}")
    y_cv, z, y = check_scores(y_cv, z, y, error=EnsembleError)

    def cv_loss(r, fold, k):
        held, w = _fold_weights(y_cv, z, y, r, fold, k)
        return float(np.sum(_piece_loss(w, *held[1:]))) / y.size

    return cv_select(candidates, cv_loss, y.size, k, seed, EnsembleError, "choosing r")


def fuse(weight: WeightFunction, y_hat, z):
    """Convex combination alpha(y_hat) * y_hat + (1 - alpha(y_hat)) * z.

    Inputs must be scores in [0, 1] (NaN is rejected), so the output is in
    [0, 1] too. Accepts scalars or equal-shaped arrays.
    """
    y_hat = np.asarray(y_hat, dtype=float)
    z = np.asarray(z, dtype=float)
    if not (np.all((y_hat >= 0) & (y_hat <= 1)) and np.all((z >= 0) & (z <= 1))):
        raise EnsembleError("base and oracle scores must lie in [0, 1]")
    a = weight.alpha(y_hat)
    out = a * y_hat + (1.0 - a) * z
    return out if np.ndim(out) else float(out)


def fusion_objective(weight: WeightFunction, y_cv, z, y) -> float:
    """Mean squared error of the fused scores against labels."""
    y_cv, z, y = check_scores(y_cv, z, y, error=EnsembleError)
    return float(np.mean((fuse(weight, y_cv, z) - y) ** 2))


@dataclass(frozen=True)
class FusionReport:
    """Per-piece fitting diagnostics.

    ``objective_before`` is each piece's mean squared error of the raw base
    scores (weight 1); ``objective_after`` uses the fitted weight, so it never
    exceeds the former. Empty pieces report NaN objectives.
    """

    piece_weights: tuple
    piece_counts: tuple
    objective_before: tuple
    objective_after: tuple
    cv_objective: float


def fusion_report(weight: WeightFunction, y_cv, z, y) -> FusionReport:
    """Evaluate a fitted weight function piece by piece on its fitting data."""
    y_cv, z, y = check_scores(y_cv, z, y, error=EnsembleError)
    count, sab, saa, sbb = _piece_sums(y_cv, z, y, weight.r)[:, 0]
    with np.errstate(invalid="ignore"):  # empty pieces: 0 / 0 = NaN
        before, after = (_piece_loss(w, sab, saa, sbb) / count for w in (1.0, np.array(weight.weights)))
    return FusionReport(
        piece_weights=weight.weights,
        piece_counts=tuple(int(c) for c in count),
        objective_before=tuple(before.tolist()),
        objective_after=tuple(after.tolist()),
        cv_objective=fusion_objective(weight, y_cv, z, y),
    )
