"""
Fusing a logistic base model with an auxiliary oracle score
===========================================================

A base classifier trained on noisy labels is combined with a second,
independent score stream. A single mixing weight already helps; letting
the weight depend on where the base score falls helps more, because the
base model is only unreliable near its own decision boundary.
"""

import numpy as np

from scorefusion import (
    SyntheticOracle,
    SyntheticOracleSpec,
    accuracy,
    cv_predict,
    fit_adaptive_weights,
    fit_constant_weight,
    fuse,
    fusion_report,
    make_folds,
    score_batch,
    sigmoid,
    train,
)
from scorefusion.data import LabeledDataset, split

rng = np.random.default_rng(7)

# --- synthetic task: labels flip most often near the decision boundary ---
n, d = 6000, 10
X = rng.standard_normal((n, d))
w_true = 1.2 * np.array([1, -1, 0.8, -0.8, 0.6, -0.6, 0.4, -0.4, 0.2, -0.2])
t = X @ w_true
y = (rng.uniform(size=n) < sigmoid(3.0 * t)).astype(int)
flip = rng.uniform(size=n) < 0.30 * np.exp(-((t / 0.8) ** 2))
y = np.where(flip, 1 - y, y)

data = LabeledDataset.from_arrays(X, y=y, prefix="fuse_")
train_ds, test_ds = split(data, test_fraction=0.5, seed=0)
print(f"dataset: {train_ds.n} train rows, {test_ds.n} test rows, d={d}")

# --- base model plus out-of-fold predictions for honest weight fitting ---
model = train(train_ds)
folds = make_folds(train_ds, k=5, seed=0)
cv = cv_predict(train_ds, folds)
y_cv = cv.scores
y_train = train_ds.labels()

# --- an oracle that agrees with the true label 75% of the time ---
oracle = SyntheticOracle(SyntheticOracleSpec(accuracy=0.75, seed=13))
z_train = score_batch(oracle, train_ds, column=True)
z_test = score_batch(oracle, test_ds, column=True)

# --- constant weight: one alpha for every sample ---
alpha = fit_constant_weight(y_cv, z_train, y_train)
print(f"fitted constant weight alpha = {alpha:.3f}")

# --- adaptive weights: one alpha per slice of the base-score axis ---
adaptive = fit_adaptive_weights(y_cv, z_train, y_train, r=4)
for (lo, hi), w, c in zip(adaptive.breakpoints, adaptive.weights, adaptive.support_counts):
    print(f"  piece [{lo:.2f}, {hi:.2f}): alpha = {w:.3f}  ({c} samples)")

report = fusion_report(adaptive, y_cv, z_train, y_train)
print(f"cv squared error of the adaptive fusion: {report.cv_objective:.4f}")

# --- held-out comparison ---
base_scores = model.score_dataset(test_ds)
fused_const = alpha * base_scores + (1 - alpha) * z_test
fused_adapt = fuse(adaptive, base_scores, z_test)
y_test = test_ds.labels()

print()
print(f"base model alone     accuracy = {accuracy(base_scores, y_test):.3f}")
print(f"oracle alone         accuracy = {accuracy(z_test, y_test):.3f}")
print(f"constant fusion      accuracy = {accuracy(fused_const, y_test):.3f}")
print(f"adaptive fusion r=4  accuracy = {accuracy(fused_adapt, y_test):.3f}")
