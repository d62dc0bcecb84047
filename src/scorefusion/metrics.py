"""Evaluation metrics for probabilistic binary scores."""

from __future__ import annotations

import numpy as np

LOSS_CLAMP = 1e-12  # scores are clamped this far from {0, 1} inside log-loss


class MetricError(ValueError):
    """Raised for mismatched or empty score/label vectors."""


def _validate(scores, labels):
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=float)
    if s.ndim != 1 or s.shape != y.shape:
        raise MetricError(f"scores and labels must be equal-length vectors, got {s.shape} and {y.shape}")
    if s.size == 0:
        raise MetricError("metrics need at least one (score, label) pair")
    if not np.all(np.isfinite(s)):
        raise MetricError("scores must be finite")
    if np.any((y != 0) & (y != 1)):
        raise MetricError("labels must be 0 or 1")
    return s, y


def accuracy(scores, labels) -> float:
    """Fraction of labels matched by thresholding at 0.5.

    A score above 0.5 predicts 1; a score of exactly 0.5 predicts 0.
    """
    s, y = _validate(scores, labels)
    return float(np.mean((s > 0.5).astype(float) == y))


def brier_score(scores, labels) -> float:
    """Mean squared error between scores and binary labels."""
    s, y = _validate(scores, labels)
    return float(np.mean((s - y) ** 2))


def mean_log_loss(p, y):
    """Mean negative log-likelihood of labels y under probabilities p clamped
    ``LOSS_CLAMP`` away from {0, 1}, as a numpy float; no validation."""
    p = np.clip(p, LOSS_CLAMP, 1.0 - LOSS_CLAMP)
    return -np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))


def log_loss(scores, labels) -> float:
    """Mean negative log-likelihood; scores are clamped 1e-12 away from {0, 1}."""
    return float(mean_log_loss(*_validate(scores, labels)))


def metric_dict(scores, labels, **extra) -> dict:
    """Accuracy, Brier score and log-loss of ``scores``, plus the ``extra`` entries."""
    return {
        "accuracy": accuracy(scores, labels),
        "brier": brier_score(scores, labels),
        "log_loss": log_loss(scores, labels),
        **extra,
    }
