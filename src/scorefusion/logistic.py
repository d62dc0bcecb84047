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

from .data import Artifact, DatasetError, FoldAssignment, LabeledDataset, sigmoid


class TrainingError(ValueError):
    """Raised for unusable training inputs (missing labels, non-finite features)."""


class SingleClassFoldWarning(UserWarning):
    """A cross-validation fold-model saw only one class; regularization keeps it well-posed."""


LOSS_CLAMP = 1e-12  # scores are clamped this far from {0, 1} inside log-loss


def _regularized_logloss_deferred(weights, intercept, X, y, reg_lambda):
    """Value of ``regularized_logloss_and_grad`` and a zero-argument callable that
    builds its (grad_w, grad_b) from the value's own sigmoid pass."""
    t = X @ weights
    t += intercept
    p = sigmoid(t)
    clamped = np.clip(p, LOSS_CLAMP, 1.0 - LOSS_CLAMP)
    nll = -np.mean(y * np.log(clamped) + (1.0 - y) * np.log(1.0 - clamped))
    value = float(nll + 0.5 * reg_lambda * np.dot(weights, weights))

    def grad():
        resid = p - y
        return X.T @ resid / len(y) + reg_lambda * weights, float(np.mean(resid))

    return value, grad


def regularized_logloss_and_grad(weights, intercept, X, y, reg_lambda):
    """Mean log-loss of sigmoid(X w + b) against y, plus (reg_lambda/2)||w||^2,
    and its gradient with respect to (weights, intercept), from one pass.

    Returns (value, grad_w, grad_b).
    """
    value, grad = _regularized_logloss_deferred(weights, intercept, X, y, reg_lambda)
    return (value, *grad())


def regularized_logloss(weights, intercept, X, y, reg_lambda):
    """Mean log-loss of sigmoid(X w + b) against y, plus (reg_lambda/2)||w||^2."""
    return _regularized_logloss_deferred(weights, intercept, X, y, reg_lambda)[0]


def regularized_logloss_grad(weights, intercept, X, y, reg_lambda):
    """Gradient of ``regularized_logloss`` with respect to (weights, intercept)."""
    return regularized_logloss_and_grad(weights, intercept, X, y, reg_lambda)[1:]


def minimize_gd(value_and_grad, theta0, max_iter, tol):
    """Full-batch gradient descent with Armijo backtracking.

    ``value_and_grad(theta)`` returns (objective, gradient), where the
    gradient is either an array or a zero-argument callable that builds it.
    A callable is called only for the start point and for accepted steps, so
    an objective can keep the intermediates of its value and skip the
    gradient's work for every Armijo candidate the line search rejects.
    Stops when the gradient infinity-norm drops to ``tol`` or after
    ``max_iter`` accepted steps. Accepted steps never increase the objective.
    Returns (theta, iterations, final objective).
    """
    armijo_c = 1e-4
    shrink = 0.5
    theta = np.asarray(theta0, dtype=float).copy()
    value, grad = value_and_grad(theta)
    grad = grad() if callable(grad) else grad
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
            cand_value, cand_grad = value_and_grad(candidate)
            if cand_value <= value - armijo_c * step * sq:
                grad = cand_grad() if callable(cand_grad) else cand_grad
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
        return cls(
            weights=doc["weights"], intercept=float(doc["intercept"]),
            reg_lambda=float(doc["reg_lambda"]),
            feature_mean=doc["feature_mean"], feature_scale=doc["feature_scale"],
            train_meta=TrainMeta(int(meta["iterations"]), float(meta["objective"]), int(meta["seed"])),
        )


def _standardized(X: np.ndarray):
    """(X - mean) / scale, mean, scale, with ``X - mean`` computed once.

    The scale is the root mean square of the centered matrix; constant
    coordinates get scale 1. Both column sums run over a C-ordered copy of
    ``X`` (no copy when it already is one), where ``einsum`` adds each column
    row by row, the same order and bits as ``X.mean(axis=0)`` and
    ``X.std(axis=0)`` on C-ordered input, without their per-row inner loops.
    """
    X = np.ascontiguousarray(X)
    n = X.shape[0]
    mean = np.einsum("ij->j", X) / n
    centered = X - mean
    scale = np.sqrt(np.einsum("ij,ij->j", centered, centered) / n)
    scale = np.where(scale > 0.0, scale, 1.0)
    centered /= scale
    return centered, mean, scale


def standardization(X: np.ndarray):
    """Per-coordinate mean and scale; constant coordinates get scale 1."""
    return _standardized(X)[1:]


def _training_inputs(ds: LabeledDataset, reg_lambda: float, role: str = "training"):
    """(standardized X, y, mean, scale) of a fully labeled set with finite features.

    ``role`` names ``ds`` in the error texts, which both trainers share.
    """
    if ds.n < 1:
        noun = "dataset" if role == "training" else f"{role} dataset"
        raise TrainingError(f"cannot train on an empty {noun}")
    if reg_lambda < 0:
        raise TrainingError(f"reg_lambda must be >= 0, got {reg_lambda}")
    if not ds.has_labels:
        raise TrainingError(f"{role} dataset has instances with missing labels")
    X = ds.feature_matrix()
    if not np.all(np.isfinite(X)):
        raise TrainingError(f"{role} dataset contains non-finite features")
    Xs, mean, scale = _standardized(X)
    return Xs, ds.labels(), mean, scale


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
    d = ds.dim

    def value_and_grad(theta):
        value, grad = _regularized_logloss_deferred(theta[:d], theta[d], Xs, y, reg_lambda)
        return value, lambda: np.append(*grad())

    fit = minimize_gd(value_and_grad, np.zeros(d + 1), max_iter=max_iter, tol=tol)
    return _fitted_model(fit, reg_lambda, mean, scale, seed)


@dataclass(frozen=True)
class CvPredictions:
    """Out-of-fold scores: each row was scored by the model that never saw it.

    ``scores`` is aligned with the rows of the dataset that was scored.
    """

    scores: np.ndarray
    folds: FoldAssignment


def cv_predict(ds: LabeledDataset, folds: FoldAssignment, trainer=None) -> CvPredictions:
    """Score every row with the fold-model trained on the other folds.

    ``folds.fold`` must hold one fold per row of ``ds``. ``trainer``
    overrides the model-fitting routine; it receives a LabeledDataset and
    must return an object with ``score_dataset``. The default is ``train``
    with its default hyperparameters.
    """
    fold = np.asarray(folds.fold)
    if fold.shape != (ds.n,):
        raise DatasetError(f"fold assignment has shape {fold.shape}, expected ({ds.n},)")
    trainer = train if trainer is None else trainer
    scores = np.full(ds.n, np.nan)
    for f in range(folds.k):
        held_out = fold == f
        if not held_out.any():
            continue
        train_part = ds.take(~held_out)
        if np.unique(train_part.y).size < 2:
            warnings.warn(
                f"fold {f + 1}: training complement contains a single class",
                SingleClassFoldWarning,
                stacklevel=2,
            )
        scores[held_out] = trainer(train_part).score_dataset(ds.take(held_out))
    return CvPredictions(scores=scores, folds=folds)
