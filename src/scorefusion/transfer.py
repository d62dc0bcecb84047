"""Covariate-shift transfer training with oracle-labeled augmentation.

The labeled pool was drawn with stratum density p1 but the deployment
distribution is p2 (same label-given-features law). Augmenting the n labeled
rows with m extra rows drawn from the sampling density

    p3(s) = p2(s) + (n/m) * (p2(s) - p1(s))

makes the combined pool match p2 exactly whenever p3 is a proper density;
otherwise the negative part is clamped to zero and the rest renormalized.
The extra rows carry oracle scores instead of labels, so training uses a
slack-banded squared loss on them: residuals within ``slack_a`` of the oracle
score are not penalized at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Artifact, LabeledDataset, json_field
from .logistic import BaseModel, TrainingError, _fitted_model, _training_inputs, minimize_gd, sigmoid
from .oracle import attach_scores

DENSITY_TOL = 1e-9


class TransferError(ValueError):
    """Raised for invalid densities, infeasible plans, or exhausted pools."""


@dataclass(frozen=True)
class StratumDensity:
    """Discrete probability distribution over stratum tags."""

    weights: dict

    def __post_init__(self):
        weights = {str(tag): float(p) for tag, p in dict(self.weights).items()}
        if not weights:
            raise TransferError("a stratum density needs at least one tag")
        if any(p < 0 for p in weights.values()):
            raise TransferError(f"negative stratum probability in {weights}")
        total = sum(weights.values())
        if abs(total - 1.0) > DENSITY_TOL:
            raise TransferError(f"stratum probabilities sum to {total!r}, expected 1")
        object.__setattr__(self, "weights", weights)

    @classmethod
    def from_counts(cls, counts, tags=None) -> "StratumDensity":
        """Normalize nonnegative counts; ``tags`` widens the universe with zeros."""
        counts = {str(t): float(c) for t, c in dict(counts).items()}
        for tag in tags or ():
            counts.setdefault(str(tag), 0.0)
        total = sum(counts.values())
        if total <= 0:
            raise TransferError("cannot normalize counts that sum to zero")
        return cls({t: c / total for t, c in counts.items()})

    @property
    def tags(self) -> tuple:
        return tuple(sorted(self.weights))

    def prob(self, tag) -> float:
        return self.weights.get(str(tag), 0.0)

    def support(self) -> tuple:
        return tuple(t for t in self.tags if self.weights[t] > 0)

    def as_array(self, tags) -> np.ndarray:
        return np.array([self.prob(t) for t in tags])


@dataclass(frozen=True)
class RelaxedLoss:
    """Squared loss with a dead band: l0(x, y) = max(|x - y| - slack_a, 0)^2."""

    slack_a: float = 0.1

    def __post_init__(self):
        if not self.slack_a >= 0:
            raise TransferError(f"slack_a must be >= 0, got {self.slack_a}")

    def excess(self, pred, target):
        """(pred - target, how far |pred - target| lies outside the band, 0 inside)."""
        diff = np.asarray(pred, dtype=float) - np.asarray(target, dtype=float)
        return diff, np.maximum(np.abs(diff) - self.slack_a, 0.0)

    def value(self, pred, target):
        out = self.excess(pred, target)[1] ** 2
        return out if out.ndim else float(out)

    def grad(self, pred, target):
        """Derivative in the prediction: 0 inside the band, shrunk residual outside."""
        diff, excess = self.excess(pred, target)
        out = 2.0 * excess * np.sign(diff)
        return out if out.ndim else float(out)


def _check_same_tags(p1: StratumDensity, p2: StratumDensity):
    if set(p1.weights) != set(p2.weights):
        raise TransferError(
            f"densities cover different tag sets: {sorted(p1.weights)} vs {sorted(p2.weights)}"
        )


def derive_p3(p1: StratumDensity, p2: StratumDensity, n: int, m: int):
    """Sampling density making n rows of p1 plus m rows of p3 mix to p2.

    Returns (p3, clamped). The exact solution is
    raw(s) = p2(s) + (n/m)(p2(s) - p1(s)); when some raw mass is negative the
    exact mixture is infeasible at this m, so the negative part is zeroed and
    the remainder renormalized, with ``clamped`` set to True.
    """
    _check_same_tags(p1, p2)
    if n < 1 or m < 1:
        raise TransferError(f"derive_p3 needs n, m >= 1, got n={n}, m={m}")
    tags = p1.tags
    raw = p2.as_array(tags) + (n / m) * (p2.as_array(tags) - p1.as_array(tags))
    if np.all(raw >= 0):
        return StratumDensity(dict(zip(tags, raw))), False
    clipped = np.maximum(raw, 0.0)
    clipped = clipped / clipped.sum()
    return StratumDensity(dict(zip(tags, clipped))), True


def feasibility_threshold(p1: StratumDensity, p2: StratumDensity, n: int) -> float:
    """Smallest augmentation count m for which derive_p3 needs no clamping.

    Equals n * max over target-supported strata of (p1(s) - p2(s)) / p2(s),
    floored at 0. Strata with p2(s) = 0 but p1(s) > 0 can never be mixed away,
    so the threshold is infinite there.
    """
    _check_same_tags(p1, p2)
    if n < 1:
        raise TransferError(f"feasibility threshold needs n >= 1, got n={n}")
    worst = 0.0
    for tag in p1.tags:
        a, b = p1.prob(tag), p2.prob(tag)
        if b > 0:
            worst = max(worst, (a - b) / b)
        elif a > 0:
            return float("inf")
    return n * worst


@dataclass(frozen=True)
class TransferPlan(Artifact):
    """Everything needed to reproduce one augmentation run."""

    KIND = "transfer_plan"
    ERROR = TransferError

    n: int
    m: int
    source: StratumDensity
    target: StratumDensity
    sampling: StratumDensity
    slack_a: float = 0.1
    clamped: bool = False

    def __post_init__(self):
        RelaxedLoss(self.slack_a)  # raises for a slack_a the loss rejects
        if not self.clamped:
            for tag in self.target.tags:
                mixed = (self.n * self.source.prob(tag) + self.m * self.sampling.prob(tag)) / (
                    self.n + self.m
                )
                if abs(mixed - self.target.prob(tag)) > DENSITY_TOL:
                    raise TransferError(
                        f"unclamped plan fails the mixture identity at stratum {tag!r}: "
                        f"{mixed!r} != {self.target.prob(tag)!r}"
                    )

    def to_doc(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "slack_a": self.slack_a,
            "clamped": self.clamped,
            "source": self.source.weights,
            "target": self.target.weights,
            "sampling": self.sampling.weights,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "TransferPlan":
        densities = {side: StratumDensity(json_field(doc, side, float, dict))
                     for side in ("source", "target", "sampling")}
        return cls(n=json_field(doc, "n", int), m=json_field(doc, "m", int),
                   slack_a=float(json_field(doc, "slack_a", float)),
                   clamped=json_field(doc, "clamped", bool), **densities)


def make_plan(
    p1: StratumDensity, p2: StratumDensity, n: int, m: int, slack_a: float = 0.1
) -> TransferPlan:
    p3, clamped = derive_p3(p1, p2, n, m)
    return TransferPlan(
        n=n, m=m, source=p1, target=p2, sampling=p3, slack_a=slack_a, clamped=clamped
    )


def sample_augmentation(
    pool: LabeledDataset, p3: StratumDensity, m: int, seed: int
) -> LabeledDataset:
    """Draw m pool instances: stratum counts multinomial(m, p3), then without
    replacement within each stratum. Rows keep their pool order."""
    return pool.take(_drawn_rows(pool, p3, m, seed))


def _drawn_rows(pool: LabeledDataset, p3: StratumDensity, m: int, seed: int) -> np.ndarray:
    """Bool mask of the m rows of ``pool`` that ``sample_augmentation`` draws."""
    if m < 0:
        raise TransferError(f"augmentation count must be >= 0, got {m}")
    drawn = np.zeros(pool.n, dtype=bool)
    if m == 0:
        return drawn
    groups = {str(tag): rows for tag, rows in pool.stratum_rows().items() if tag is not None}
    missing = [t for t in p3.support() if t not in groups]
    if missing:
        raise TransferError(f"pool has no instances in stratum {missing[0]!r} (p3 > 0 there)")
    tags = p3.support()
    probs = p3.as_array(tags)
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(m, probs / probs.sum())
    for tag, count in zip(tags, counts):
        if count == 0:
            continue
        rows = groups[tag]
        if count > len(rows):
            raise TransferError(
                f"stratum {tag!r} exhausted: need {count} instances, pool has {len(rows)}"
            )
        drawn[rows[rng.choice(len(rows), size=count, replace=False)]] = True
    return drawn


def label_with_oracle(ds: LabeledDataset, provider) -> LabeledDataset:
    """Attach oracle scores to every instance and drop any labels."""
    if ds.n == 0:
        return ds
    return attach_scores(ds, provider).without_labels()


def _augmented_objective_deferred(theta, X_labeled, y, X_aug, z, slack_a, reg_lambda):
    """Value of ``augmented_objective_and_grad`` and a zero-argument callable
    that builds its gradient from the value's residuals and band excess.

    Each side's ``X @ w`` buffer takes the intercept in place, the labeled
    one then holds the residual ``p - y``, and ``RelaxedLoss.excess(q, z)``
    gives the augmented residual and band excess; the gradient's in-place
    products keep the order of ``2.0 * resid * p * (1.0 - p)`` and
    ``RelaxedLoss.grad(q, z) * q * (1.0 - q)``.
    The callable writes only into arrays it allocates, so every call gives
    the same bits.
    """
    d = X_labeled.shape[1] if X_labeled.size else X_aug.shape[1]
    w, b = theta[:d], theta[d]
    loss0 = RelaxedLoss(slack_a)
    n, m = len(y), len(z)
    total = n + m
    if total == 0:
        raise TransferError("augmented objective needs at least one row")

    value = 0.0
    if n:
        resid = X_labeled @ w
        resid += b
        p = sigmoid(resid)
        np.subtract(p, y, out=resid)
        value += float(np.sum(np.square(resid)))
    if m:
        t = X_aug @ w
        t += b
        q = sigmoid(t)
        diff, excess = loss0.excess(q, z)
        value += float(np.sum(np.square(excess)))
    value = value / total + 0.5 * reg_lambda * float(np.dot(w, w))

    def grad():
        out = np.zeros(d + 1)
        if n:
            back = 2.0 * resid
            back *= p
            back *= 1.0 - p
            out[:d] += X_labeled.T @ back
            out[d] += float(np.sum(back))
        if m:
            back = 2.0 * excess
            back *= np.sign(diff)
            back *= q
            back *= 1.0 - q
            out[:d] += X_aug.T @ back
            out[d] += float(np.sum(back))
        out = out / total
        out[:d] += reg_lambda * w
        return out

    return value, grad


def augmented_objective_and_grad(
    theta: np.ndarray,
    X_labeled: np.ndarray,
    y: np.ndarray,
    X_aug: np.ndarray,
    z: np.ndarray,
    slack_a: float,
    reg_lambda: float,
):
    """Objective and gradient of the augmented squared-loss training problem.

    Feature matrices must already be standardized. The objective is
    (1/(n+m)) * [sum over labeled (sigmoid - y)^2
                 + sum over augmented max(|sigmoid - z| - slack_a, 0)^2]
    + (reg_lambda/2)||w||^2, with the intercept (last theta entry) unpenalized.
    """
    value, grad = _augmented_objective_deferred(theta, X_labeled, y, X_aug, z, slack_a, reg_lambda)
    return value, grad()


def train_augmented(
    labeled: LabeledDataset,
    augmented: LabeledDataset | None = None,
    slack_a: float = 0.1,
    reg_lambda: float = 1e-3,
    max_iter: int = 5000,
    tol: float = 1e-6,
    seed: int = 0,
    round_oracle_scores: bool = False,
) -> BaseModel:
    """Train the logistic scorer on labeled rows (squared loss) plus
    oracle-labeled rows (slack-banded squared loss).

    Standardization statistics come from the labeled rows only, so adding
    augmentation never changes how inputs are scaled. With an empty
    ``augmented`` set this is plain squared-loss training.
    ``round_oracle_scores`` snaps each z to {0, 1} (z > 0.5 rounds up) before
    training, for oracles whose confidence should not be trusted as a soft
    target.
    """
    Xs, y, mean, scale = _training_inputs(labeled, reg_lambda, role="labeled")
    if augmented is None:
        augmented = labeled.take([])
    if augmented.dim != labeled.dim:
        raise TrainingError(
            f"dimension mismatch: labeled d={labeled.dim}, augmented d={augmented.dim}"
        )
    Xa, z = np.zeros((0, labeled.dim)), np.zeros(0)
    if augmented.n:
        if not augmented.has_oracle_scores:
            raise TrainingError("augmented dataset has instances with missing oracle scores")
        Xa = augmented.feature_matrix()
        if not np.all(np.isfinite(Xa)):
            raise TrainingError("augmented dataset contains non-finite features")
        Xa = (Xa - mean) / scale
        z = augmented.z  # has_oracle_scores above: no NaN score
        if round_oracle_scores:
            z = (z > 0.5).astype(float)

    def value_and_grad(theta):
        return _augmented_objective_deferred(theta, Xs, y, Xa, z, slack_a, reg_lambda)

    fit = minimize_gd(value_and_grad, np.zeros(labeled.dim + 1), max_iter=max_iter, tol=tol)
    return _fitted_model(fit, reg_lambda, mean, scale, seed)
