"""Evaluation metrics for probabilistic binary scores."""

from __future__ import annotations

import numpy as np

from .data import check_scores

LOSS_CLAMP = 1e-12  # scores are clamped this far from {0, 1} inside log-loss


class MetricError(ValueError):
    """Raised for mismatched or empty vectors, scores outside [0, 1] or labels other than 0/1."""


def accuracy(scores, labels) -> float:
    """Fraction of labels matched by thresholding at 0.5.

    A score above 0.5 predicts 1; a score of exactly 0.5 predicts 0.
    """
    s, y = check_scores(scores, labels, error=MetricError)
    return float(np.mean((s > 0.5).astype(float) == y))


def brier_score(scores, labels) -> float:
    """Mean squared error between scores and binary labels."""
    s, y = check_scores(scores, labels, error=MetricError)
    return float(np.mean((s - y) ** 2))


def mean_log_loss(p, y):
    """Mean negative log-likelihood of labels y under probabilities p clamped
    ``LOSS_CLAMP`` away from {0, 1}, as a numpy float; no validation. The
    terms are built in place in a clipped copy of p and one log array, with
    the bits of ``y * log(c) + (1 - y) * log(1 - c)``."""
    c = np.empty(np.shape(p))
    np.clip(p, LOSS_CLAMP, 1.0 - LOSS_CLAMP, out=c)
    loss = np.log(c)
    loss *= y
    np.log(np.subtract(1.0, c, out=c), out=c)
    c *= 1.0 - y
    loss += c
    return -np.mean(loss)


def log_loss(scores, labels) -> float:
    """Mean negative log-likelihood; scores are clamped 1e-12 away from {0, 1}."""
    return float(mean_log_loss(*check_scores(scores, labels, error=MetricError)))


def metric_dict(scores, labels, **extra) -> dict:
    """Accuracy, Brier score and log-loss of ``scores``, plus the ``extra`` entries."""
    return {
        "accuracy": accuracy(scores, labels),
        "brier": brier_score(scores, labels),
        "log_loss": log_loss(scores, labels),
        **extra,
    }
