"""Logistic base scorer trained by full-batch gradient descent.

The trainer minimizes mean log-loss plus an l2 penalty on the weights (the
intercept is unpenalized) with backtracking (Armijo) line search. Features
are standardized per coordinate using statistics from the training split; the
transform is stored in the model and applied inside ``score``, so callers
always pass raw features.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import Artifact, DatasetError, LabeledDataset, json_field, sigmoid
from .metrics import LOSS_CLAMP, mean_log_loss  # LOSS_CLAMP stays importable from here


class TrainingError(ValueError):
    """Raised for unusable training inputs (missing labels, non-finite features)."""


class SingleClassFoldWarning(UserWarning):
    """A cross-validation fold-model saw only one class; regularization keeps it well-posed."""


def _regularized_logloss_deferred(weights, intercept, X, y, reg_lambda):
    """Value of ``regularized_logloss`` and a zero-argument callable that builds its
    gradient, grad_w followed by grad_b, from the value's own sigmoid pass."""
    t = X @ weights
    t += intercept
    p = sigmoid(t)
    value = float(mean_log_loss(p, y) + 0.5 * reg_lambda * np.dot(weights, weights))

    def grad():
        resid = p - y
        return np.append(X.T @ resid / len(y) + reg_lambda * weights, np.mean(resid))

    return value, grad


def regularized_logloss(weights, intercept, X, y, reg_lambda):
    """Mean log-loss of sigmoid(X w + b) against y, plus (reg_lambda/2)||w||^2."""
    return _regularized_logloss_deferred(weights, intercept, X, y, reg_lambda)[0]


def regularized_logloss_grad(weights, intercept, X, y, reg_lambda):
    """Gradient of ``regularized_logloss`` with respect to (weights, intercept)."""
    grad = _regularized_logloss_deferred(weights, intercept, X, y, reg_lambda)[1]()
    return grad[:-1], float(grad[-1])


def minimize_gd(value_and_grad, theta0, max_iter, tol):
    """Full-batch gradient descent with Armijo backtracking.

    ``value_and_grad(theta)`` returns (objective, build_grad), where
    ``build_grad`` is a zero-argument callable that returns the gradient
    array. It is called only for the start point and for accepted steps, so
    an objective can keep the intermediates of its value and skip the
    gradient's work for every Armijo candidate the line search rejects.
    Stops when the gradient infinity-norm drops to ``tol`` or after
    ``max_iter`` accepted steps. Accepted steps never increase the objective.
    Returns (theta, iterations, final objective).
    """
    armijo_c = 1e-4
    shrink = 0.5
    theta = np.asarray(theta0, dtype=float).copy()
    value, build_grad = value_and_grad(theta)
    grad = build_grad()
    step = 1.0
    iterations = 0
    for iterations in range(max_iter + 1):
        gnorm = float(np.max(np.abs(grad))) if grad.size else 0.0
        if gnorm <= tol or iterations == max_iter:
            break
        sq = float(np.dot(grad, grad))
        step = min(step * 2.0, 1e8)  # let the accepted step grow back after cautious phases
        accepted = False
        for _ in range(60):
            candidate = theta - step * grad
            cand_value, build_grad = value_and_grad(candidate)
            if cand_value <= value - armijo_c * step * sq:
                grad = build_grad()
                theta, value = candidate, cand_value
                accepted = True
                break
            step *= shrink
        if not accepted:
            break  # step underflow: no descent direction left at float precision
    return theta, iterations, value


@dataclass(frozen=True)
class TrainMeta:
    iterations: int
    objective: float
    seed: int


@dataclass(frozen=True)
class BaseModel(Artifact):
    """Trained logistic scorer: sigmoid(w . standardize(x) + b)."""

    KIND = "logistic"
    ERROR = TrainingError

    weights: np.ndarray
    intercept: float
    reg_lambda: float
    feature_mean: np.ndarray
    feature_scale: np.ndarray
    train_meta: TrainMeta

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "feature_mean", np.asarray(self.feature_mean, dtype=float))
        object.__setattr__(self, "feature_scale", np.asarray(self.feature_scale, dtype=float))
        shapes = [v.shape for v in (self.weights, self.feature_mean, self.feature_scale)]
        if len(shapes[0]) != 1 or len(set(shapes)) != 1:
            raise TrainingError("weights, feature_mean and feature_scale must be 1-d arrays of one "
                                f"length, got shapes {shapes}")

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    def score(self, x):
        """Score one feature vector or a stacked (n, d) matrix of them."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise DatasetError(f"feature dimension {x.shape[-1]} does not match model dim {self.dim}")
        xs = (x - self.feature_mean) / self.feature_scale
        return sigmoid(xs @ self.weights + self.intercept)

    def score_dataset(self, ds: LabeledDataset) -> np.ndarray:
        return np.atleast_1d(self.score(ds.feature_matrix()))

    def to_doc(self) -> dict:
        return {
            "dim": int(self.dim),
            "weights": [float(w) for w in self.weights],
            "intercept": float(self.intercept),
            "reg_lambda": float(self.reg_lambda),
            "feature_mean": [float(v) for v in self.feature_mean],
            "feature_scale": [float(v) for v in self.feature_scale],
            "train_meta": {
                "iterations": int(self.train_meta.iterations),
                "objective": float(self.train_meta.objective),
                "seed": int(self.train_meta.seed),
            },
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "BaseModel":
        meta = doc["train_meta"]
        model = cls(
            weights=json_field(doc, "weights", float, list),
            intercept=float(json_field(doc, "intercept", float)),
            reg_lambda=float(json_field(doc, "reg_lambda", float)),
            feature_mean=json_field(doc, "feature_mean", float, list),
            feature_scale=json_field(doc, "feature_scale", float, list),
            train_meta=TrainMeta(json_field(meta, "iterations", int),
                                 float(json_field(meta, "objective", float)),
                                 json_field(meta, "seed", int)),
        )
        if type(doc["dim"]) is not int or doc["dim"] != model.dim:
            raise TrainingError(f"dim is {doc['dim']!r} but the model has {model.dim} weights")
        return model


def _standardized(X: np.ndarray, total=None):
    """(X - mean) / scale, mean, scale, with ``X - mean`` computed once.

    The scale is the root mean square of the centered matrix; constant
    coordinates get scale 1. Both column sums run over a C-ordered copy of
    ``X`` (no copy when it already is one), where ``einsum`` adds each column
    row by row, the same order and bits as ``X.mean(axis=0)`` and
    ``X.std(axis=0)`` on C-ordered input, without their per-row inner loops.
    ``total`` is ``einsum("ij->j", X)`` when the caller already has it.
    """
    X = np.ascontiguousarray(X)
    n = X.shape[0]
    mean = (np.einsum("ij->j", X) if total is None else total) / n
    centered = X - mean
    scale = np.sqrt(np.einsum("ij,ij->j", centered, centered) / n)
    scale = np.where(scale > 0.0, scale, 1.0)
    centered /= scale
    return centered, mean, scale


def _training_inputs(ds: LabeledDataset, reg_lambda: float, role: str = "training"):
    """(standardized X, y, mean, scale) of a fully labeled set with finite features.

    ``role`` names ``ds`` in the error texts, which both trainers share.
    """
    if ds.n < 1:
        noun = "dataset" if role == "training" else f"{role} dataset"
        raise TrainingError(f"cannot train on an empty {noun}")
    if not reg_lambda >= 0:
        raise TrainingError(f"reg_lambda must be >= 0, got {reg_lambda}")
    if not ds.has_labels:
        raise TrainingError(f"{role} dataset has instances with missing labels")
    X = np.ascontiguousarray(ds.feature_matrix())
    total = np.einsum("ij->j", X)
    # a NaN or infinite feature leaves its column sum non-finite; only then, or
    # when finite features overflowed the sum, is every feature looked at
    if not np.isfinite(total).all() and not np.isfinite(X).all():
        raise TrainingError(f"{role} dataset contains non-finite features")
    Xs, mean, scale = _standardized(X, total)
    return Xs, ds.y, mean, scale  # has_labels above: no NaN label


def _fitted_model(fit, reg_lambda: float, mean, scale, seed: int) -> BaseModel:
    """The model of a ``minimize_gd`` result (theta = weights then intercept, iterations, objective)."""
    theta, iterations, objective = fit
    return BaseModel(weights=theta[:-1], intercept=float(theta[-1]), reg_lambda=reg_lambda,
                     feature_mean=mean, feature_scale=scale,
                     train_meta=TrainMeta(iterations=iterations, objective=objective, seed=seed))


def train(
    ds: LabeledDataset,
    reg_lambda: float = 1e-3,
    max_iter: int = 5000,
    tol: float = 1e-6,
    seed: int = 0,
) -> BaseModel:
    """Fit the logistic scorer on a fully labeled dataset."""
    Xs, y, mean, scale = _training_inputs(ds, reg_lambda)

    def value_and_grad(theta):
        return _regularized_logloss_deferred(theta[:-1], theta[-1], Xs, y, reg_lambda)

    fit = minimize_gd(value_and_grad, np.zeros(ds.dim + 1), max_iter=max_iter, tol=tol)
    return _fitted_model(fit, reg_lambda, mean, scale, seed)


def _single_class(y: np.ndarray) -> bool:
    """Whether a label column (0, 1 or NaN) holds fewer than two distinct values.

    A column with both a zero and a nonzero holds two; ``np.unique`` (which
    counts NaN as one value) decides only when every label is nonzero.
    """
    nonzero = np.count_nonzero(y)
    return nonzero == 0 or (nonzero == y.size and np.unique(y).size < 2)


def cv_predict(ds: LabeledDataset, fold, trainer=None) -> np.ndarray:
    """Out-of-fold scores: each row scored by the fold-model trained on the other folds.

    ``fold`` is the fold column of ``ds`` (``make_folds``), one fold in
    [0, k) per row; the result is aligned with the rows of ``ds``, and folds
    with no rows are skipped. ``trainer`` overrides the model-fitting routine;
    it receives a LabeledDataset and must return an object with
    ``score_dataset``. The default is ``train`` with its default
    hyperparameters.
    """
    trainer = train if trainer is None else trainer
    scores = np.full(ds.n, np.nan)
    for held_out in _fold_masks(ds, fold):
        scores[held_out] = trainer(ds.take(~held_out)).score_dataset(ds.take(held_out))
    return scores


def _fold_masks(ds: LabeledDataset, fold):
    """The held-out mask of each fold of ``ds`` that has rows, in fold order, after the checks
    ``cv_predict`` makes: ``fold`` has one entry per row, and a fold whose training complement
    holds a single class warns ``SingleClassFoldWarning`` to the caller of ``cv_predict``."""
    fold = np.asarray(fold)
    if fold.shape != (ds.n,):
        raise DatasetError(f"fold assignment has shape {fold.shape}, expected ({ds.n},)")
    for f in range(int(fold.max(initial=-1)) + 1):
        held_out = fold == f
        if not held_out.any():
            continue
        if _single_class(ds.y[~held_out]):
            warnings.warn(f"fold {f + 1}: training complement contains a single class",
                          SingleClassFoldWarning, stacklevel=3)
        yield held_out
