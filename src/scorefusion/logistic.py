"""Logistic base scorer trained by full-batch gradient descent.

The trainer minimizes mean log-loss plus an l2 penalty on the weights (the
intercept is unpenalized) with backtracking (Armijo) line search. Features
are standardized per coordinate using statistics from the training split; the
transform is stored in the model and applied inside ``score``, so callers
always pass raw features.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import DatasetError, FoldAssignment, LabeledDataset, sigmoid


class TrainingError(ValueError):
    """Raised for unusable training inputs (missing labels, non-finite features)."""


class SingleClassFoldWarning(UserWarning):
    """A cross-validation fold-model saw only one class; regularization keeps it well-posed."""


LOSS_CLAMP = 1e-12  # scores are clamped this far from {0, 1} inside log-loss


def regularized_logloss_and_grad(weights, intercept, X, y, reg_lambda):
    """Mean log-loss of sigmoid(X w + b) against y, plus (reg_lambda/2)||w||^2,
    and its gradient with respect to (weights, intercept), from one pass.

    Returns (value, grad_w, grad_b).
    """
    p = sigmoid(X @ weights + intercept)
    clamped = np.clip(p, LOSS_CLAMP, 1.0 - LOSS_CLAMP)
    nll = -np.mean(y * np.log(clamped) + (1.0 - y) * np.log(1.0 - clamped))
    value = float(nll + 0.5 * reg_lambda * np.dot(weights, weights))
    resid = p - y
    grad_w = X.T @ resid / len(y) + reg_lambda * weights
    grad_b = float(np.mean(resid))
    return value, grad_w, grad_b


def regularized_logloss(weights, intercept, X, y, reg_lambda):
    """Mean log-loss of sigmoid(X w + b) against y, plus (reg_lambda/2)||w||^2."""
    return regularized_logloss_and_grad(weights, intercept, X, y, reg_lambda)[0]


def regularized_logloss_grad(weights, intercept, X, y, reg_lambda):
    """Gradient of ``regularized_logloss`` with respect to (weights, intercept)."""
    return regularized_logloss_and_grad(weights, intercept, X, y, reg_lambda)[1:]


def minimize_gd(value_and_grad, theta0, max_iter, tol):
    """Full-batch gradient descent with Armijo backtracking.

    ``value_and_grad(theta)`` returns (objective, gradient). Stops when the
    gradient infinity-norm drops to ``tol`` or after ``max_iter`` accepted
    steps. Accepted steps never increase the objective. Returns
    (theta, iterations, final objective).
    """
    armijo_c = 1e-4
    shrink = 0.5
    theta = np.asarray(theta0, dtype=float).copy()
    value, grad = value_and_grad(theta)
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
                theta, value, grad = candidate, cand_value, cand_grad
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
class BaseModel:
    """Trained logistic scorer: sigmoid(w . standardize(x) + b)."""

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

    def to_json(self) -> str:
        doc = {
            "kind": "logistic",
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
        return json.dumps(doc, sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "BaseModel":
        doc = json.loads(text)
        meta = doc["train_meta"]
        return cls(
            weights=np.array(doc["weights"], dtype=float),
            intercept=float(doc["intercept"]),
            reg_lambda=float(doc["reg_lambda"]),
            feature_mean=np.array(doc["feature_mean"], dtype=float),
            feature_scale=np.array(doc["feature_scale"], dtype=float),
            train_meta=TrainMeta(int(meta["iterations"]), float(meta["objective"]), int(meta["seed"])),
        )

    def save(self, path) -> None:
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "BaseModel":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


def standardization(X: np.ndarray):
    """Per-coordinate mean and scale; constant coordinates get scale 1."""
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale = np.where(scale > 0.0, scale, 1.0)
    return mean, scale


def train(
    ds: LabeledDataset,
    reg_lambda: float = 1e-3,
    max_iter: int = 5000,
    tol: float = 1e-6,
    seed: int = 0,
) -> BaseModel:
    """Fit the logistic scorer on a fully labeled dataset."""
    if ds.n < 1:
        raise TrainingError("cannot train on an empty dataset")
    if reg_lambda < 0:
        raise TrainingError(f"reg_lambda must be >= 0, got {reg_lambda}")
    if not ds.has_labels:
        raise TrainingError("training dataset has instances with missing labels")
    X = ds.feature_matrix()
    if not np.all(np.isfinite(X)):
        raise TrainingError("training dataset contains non-finite features")
    y = ds.labels()

    mean, scale = standardization(X)
    Xs = (X - mean) / scale
    d = ds.dim

    def value_and_grad(theta):
        w, b = theta[:d], theta[d]
        value, gw, gb = regularized_logloss_and_grad(w, b, Xs, y, reg_lambda)
        return value, np.append(gw, gb)

    theta, iterations, objective = minimize_gd(
        value_and_grad, np.zeros(d + 1), max_iter=max_iter, tol=tol
    )
    return BaseModel(
        weights=theta[:d],
        intercept=float(theta[d]),
        reg_lambda=reg_lambda,
        feature_mean=mean,
        feature_scale=scale,
        train_meta=TrainMeta(iterations=iterations, objective=objective, seed=seed),
    )


@dataclass(frozen=True)
class CvPredictions:
    """Out-of-fold scores: each instance was scored by the model that never saw it.

    ``scores`` is aligned with ``ids``, the order of the dataset that was scored.
    """

    ids: list
    scores: np.ndarray
    folds: FoldAssignment

    @property
    def pairs(self) -> tuple:
        """(id, score) pairs ordered by id."""
        return tuple(sorted(zip(self.ids, self.scores.tolist())))

    def as_dict(self) -> dict:
        return dict(zip(self.ids, self.scores.tolist()))

    def scores_for(self, ids) -> np.ndarray:
        lookup = self.as_dict()
        return np.array([lookup[i] for i in ids], dtype=float)


def cv_predict(
    ds: LabeledDataset,
    folds: FoldAssignment,
    reg_lambda: float = 1e-3,
    max_iter: int = 5000,
    tol: float = 1e-6,
    seed: int = 0,
    trainer=None,
) -> CvPredictions:
    """Score every instance with the fold-model trained on the other folds.

    ``trainer`` overrides the model-fitting routine; it receives a
    LabeledDataset and must return an object with ``score_dataset``. The
    default trains the logistic scorer with the given hyperparameters.
    """
    ids = ds.ids()
    try:
        fold = np.array([folds.fold_of[i] for i in ids], dtype=np.intp)
    except KeyError:
        missing = sorted(set(ids) - set(folds.fold_of))
        raise DatasetError(f"fold assignment missing ids, e.g. {missing[0]!r}") from None
    if trainer is None:
        def trainer(subset):
            return train(subset, reg_lambda=reg_lambda, max_iter=max_iter, tol=tol, seed=seed)

    scores = np.full(ds.n, np.nan)
    for f in range(1, folds.k + 1):
        held_out = fold == f
        if not held_out.any():
            continue
        train_part = ds.take(~held_out)
        if np.unique(train_part.y).size < 2:
            warnings.warn(
                f"fold {f}: training complement contains a single class",
                SingleClassFoldWarning,
                stacklevel=2,
            )
        scores[held_out] = trainer(train_part).score_dataset(ds.take(held_out))
    return CvPredictions(ids=ids, scores=scores, folds=folds)
