"""
Two-dimensional grid calibration of (base score, oracle score) pairs
====================================================================

Instead of mixing the two score streams linearly, both are rounded onto a
coarse grid and a correction is learned per grid location. The full
per-cell table is the most expressive; the additive row+column form uses
far fewer parameters and holds up when data is thin. A small k-fold search
picks the grid resolution.
"""

import numpy as np

from scorefusion import (
    GridSpec,
    SyntheticOracle,
    SyntheticOracleSpec,
    brier_score,
    choose_grid,
    cv_predict,
    fit_additive_calibrator,
    fit_cell_calibrator,
    make_folds,
    score_batch,
    sigmoid,
    train,
)
from scorefusion.data import LabeledDataset, split

rng = np.random.default_rng(21)

# --- base model with a systematic miscalibration: labels flip near 0.5 ---
n, d = 6000, 8
X = rng.standard_normal((n, d))
t = X @ (np.linspace(1.2, 0.2, d) * np.array([1, -1] * (d // 2)))
y = (rng.uniform(size=n) < sigmoid(3.0 * t)).astype(int)
flip = rng.uniform(size=n) < 0.25 * np.exp(-((t / 0.7) ** 2))
y = np.where(flip, 1 - y, y)

data = LabeledDataset.from_arrays(X, y=y, prefix="cal_")
train_ds, test_ds = split(data, test_fraction=0.5, seed=1)

model = train(train_ds)
f_train = cv_predict(train_ds, make_folds(train_ds, k=5, seed=0))  # out-of-fold base scores
y_train = train_ds.labels()

oracle = SyntheticOracle(SyntheticOracleSpec(accuracy=0.8, seed=5))
z_train = score_batch(oracle, train_ds, column=True)

# --- pick the base-score resolution by cross-validation ---
grid = choose_grid(f_train, z_train, y_train, candidate_res=(2, 5, 10, 20), oracle_res=2, k=5, seed=0)
print(f"cross-validation picked base resolution M = {grid.base_res}")
cell = fit_cell_calibrator(f_train, z_train, y_train, grid)
additive = fit_additive_calibrator(f_train, z_train, y_train, grid)
print(f"cell table size: {cell.parameter_count} parameters")
print(f"additive form:   {additive.parameter_count} parameters")

# --- the learned per-cell corrections, one row per oracle level ---
for j in range(grid.oracle_res + 1):
    row = ", ".join(f"{cell.delta[i][j]:+.2f}" for i in range(grid.base_res + 1))
    print(f"  oracle level {j / grid.oracle_res:.1f}: [{row}]")

# --- held-out comparison by Brier score (lower is better) ---
f_test = model.score_dataset(test_ds)
z_test = score_batch(oracle, test_ds, column=True)
y_test = test_ds.labels()

print()
print(f"raw base scores      brier = {brier_score(f_test, y_test):.4f}")
print(f"cell calibrated      brier = {brier_score(cell.calibrate(f_test, z_test), y_test):.4f}")
print(f"additive calibrated  brier = {brier_score(additive.calibrate(f_test, z_test), y_test):.4f}")
