"""Regularized logistic scorer: loss, optimizer, training, cross-validation."""

import json
import re
import warnings

import numpy as np
import pytest

from scorefusion import (
    BaseModel,
    DatasetError,
    LabeledDataset,
    RelaxedLoss,
    SingleClassFoldWarning,
    TrainingError,
    cv_predict,
    make_folds,
    minimize_gd,
    regularized_logloss,
    regularized_logloss_grad,
    sigmoid,
    train,
    train_augmented,
)
from scorefusion import logistic
from scorefusion.data import id_keys


def _reference_sigmoid(t):
    """The two-branch sigmoid that ``sigmoid`` must reproduce bit for bit."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out if out.ndim else float(out)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _separable(n=80, d=3, seed=0, margin=2.0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = (X[:, 0] > 0).astype(int)
    X[:, 0] += margin * (2 * y - 1)
    return LabeledDataset.from_arrays(X, y=y)


class TestSigmoid:
    def test_symmetry(self):
        t = np.linspace(-8, 8, 33)
        np.testing.assert_allclose(sigmoid(-t), 1.0 - sigmoid(t), atol=1e-15)

    def test_extreme_arguments_stay_finite(self):
        vals = sigmoid(np.array([-800.0, 800.0]))
        assert np.all(np.isfinite(vals))
        assert vals[0] == 0.0 and vals[1] == 1.0

    def test_scalar_in_scalar_out(self):
        out = sigmoid(0.0)
        assert isinstance(out, float) and out == 0.5
        for t in (-3.0, np.float64(2.5), np.array(-40.0), 7):
            out = sigmoid(t)
            assert isinstance(out, float) and out == _reference_sigmoid(t)

    def test_special_values_match_reference_bits(self):
        nan_bits = np.array([0x7FF8000000000000, -0x0008000000000000,  # +NaN, -NaN
                             0x7FF8000000000123, 0x7FF0000000000001], dtype=np.int64)
        t = np.concatenate([
            [0.0, -0.0, 745.0, -745.0, 800.0, -800.0, np.inf, -np.inf, np.nan,
             5e-324, -5e-324, 709.8, -709.8, 36.8, -36.8],
            nan_bits.view(float),
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = sigmoid(t)
            scalars = [sigmoid(v) for v in t]
        np.testing.assert_array_equal(_bits(out), _bits(_reference_sigmoid(t)))
        np.testing.assert_array_equal(_bits(scalars), _bits(out))

    @pytest.mark.parametrize("scale", [1.0, 10.0, 400.0])
    def test_normal_draws_match_reference_bits(self, scale):
        t = np.random.default_rng(int(scale)).standard_normal(1_000_003) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = sigmoid(t)
        np.testing.assert_array_equal(_bits(out), _bits(_reference_sigmoid(t)))


class TestLoss:
    def test_value_and_gradient_match_reference_bits(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((2000, 5)) * 4.0
        y = rng.integers(0, 2, 2000).astype(float)
        w, b, lam = rng.standard_normal(5) * 3.0, -0.7, 0.05
        p = _reference_sigmoid(X @ w + b)
        clamped = np.clip(p, logistic.LOSS_CLAMP, 1.0 - logistic.LOSS_CLAMP)
        nll = -np.mean(y * np.log(clamped) + (1.0 - y) * np.log(1.0 - clamped))
        value = float(nll + 0.5 * lam * np.dot(w, w))
        resid = p - y
        gw, gb = regularized_logloss_grad(w, b, X, y, lam)
        assert _bits(regularized_logloss(w, b, X, y, lam)) == _bits(value)
        np.testing.assert_array_equal(_bits(gw), _bits(X.T @ resid / len(y) + lam * w))
        assert _bits(gb) == _bits(float(np.mean(resid)))

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((30, 4))
        y = rng.integers(0, 2, 30).astype(float)
        w, b, lam = rng.standard_normal(4), 0.3, 0.05
        gw, gb = regularized_logloss_grad(w, b, X, y, lam)
        h = 1e-6
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            num = (regularized_logloss(w + e, b, X, y, lam)
                   - regularized_logloss(w - e, b, X, y, lam)) / (2 * h)
            assert abs(num - gw[j]) < 1e-6
        num_b = (regularized_logloss(w, b + h, X, y, lam)
                 - regularized_logloss(w, b - h, X, y, lam)) / (2 * h)
        assert abs(num_b - gb) < 1e-6

    def test_intercept_is_not_penalized(self):
        X = np.zeros((5, 2))
        y = np.array([1.0, 0, 1, 0, 1])
        a = regularized_logloss(np.zeros(2), 3.0, X, y, 0.0)
        b = regularized_logloss(np.zeros(2), 3.0, X, y, 100.0)
        assert a == b

    def test_penalty_scales_with_weights(self):
        X = np.zeros((4, 2))
        y = np.array([1.0, 0, 1, 0])
        w = np.array([2.0, -1.0])
        base = regularized_logloss(np.zeros(2), 0.0, X, y, 0.0)
        full = regularized_logloss(w, 0.0, X, y, 0.4)
        assert full == pytest.approx(base + 0.2 * 5.0)


class TestMinimizeGd:
    def test_finds_quadratic_minimum(self):
        target = np.array([1.0, -2.0, 0.5])

        def vag(theta):
            diff = theta - target
            return 0.5 * float(diff @ diff), lambda: diff

        theta, iters, value = minimize_gd(vag, np.zeros(3), max_iter=500, tol=1e-10)
        np.testing.assert_allclose(theta, target, atol=1e-9)
        assert 0 < iters <= 500
        assert value < 1e-18

    def test_already_converged_returns_start(self):
        def vag(theta):
            return 0.0, lambda: np.zeros_like(theta)

        theta, iters, _ = minimize_gd(vag, np.ones(2), max_iter=10, tol=1e-6)
        np.testing.assert_array_equal(theta, np.ones(2))
        assert iters == 0

    def test_no_descent_returns_the_start_after_sixty_halvings(self):
        # the value never falls along -grad, so every Armijo candidate is rejected
        steps = []

        def vag(theta):
            steps.append(-float(theta[0]))
            return 0.0, lambda: np.ones_like(theta)

        theta, iters, value = minimize_gd(vag, np.zeros(2), max_iter=10, tol=1e-6)
        np.testing.assert_array_equal(theta, np.zeros(2))
        assert (iters, value) == (0, 0.0)
        assert steps == [0.0] + [2.0 * 0.5**h for h in range(60)]


class TestTrain:
    def test_learns_separable_data(self):
        ds = _separable()
        model = train(ds)
        scores = model.score_dataset(ds)
        assert ((scores > 0.5).astype(int) == ds.labels()).mean() >= 0.95

    def test_final_gradient_satisfies_tolerance(self):
        ds = _separable(60, 2, seed=1)
        tol = 1e-6
        model = train(ds, tol=tol)
        Xs = (ds.feature_matrix() - model.feature_mean) / model.feature_scale
        gw, gb = regularized_logloss_grad(
            model.weights, model.intercept, Xs, ds.labels().astype(float), model.reg_lambda
        )
        assert max(np.abs(gw).max(), abs(gb)) <= tol

    def test_regularization_shrinks_weights(self):
        ds = _separable(100, 2, seed=2)
        loose = train(ds, reg_lambda=1e-6)
        tight = train(ds, reg_lambda=10.0)
        assert np.linalg.norm(tight.weights) < np.linalg.norm(loose.weights)

    def test_training_is_deterministic(self):
        ds = _separable(50, 3, seed=4)
        a, b = train(ds), train(ds)
        assert a.to_json() == b.to_json()

    def test_constant_feature_is_harmless(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((40, 2))
        X[:, 1] = 7.0
        y = (X[:, 0] > 0).astype(int)
        model = train(LabeledDataset.from_arrays(X, y=y))
        assert model.feature_scale[1] == 1.0
        assert np.all(np.isfinite(model.score_dataset(LabeledDataset.from_arrays(X, y=y))))

    def test_scores_live_in_unit_interval(self):
        ds = _separable(30, 2, seed=6, margin=10.0)
        scores = train(ds).score_dataset(ds)
        assert np.all((scores >= 0) & (scores <= 1))

    def test_rejects_unlabeled_and_empty(self):
        ds = _separable(10)
        with pytest.raises(TrainingError):
            train(ds.without_labels())
        with pytest.raises(TrainingError):
            train(ds, reg_lambda=-1.0)
        with pytest.raises(TrainingError, match="^reg_lambda must be >= 0, got nan$"):
            train(ds, reg_lambda=float("nan"))

    def test_rejects_non_finite_features(self):
        # the column constructor checks nothing, so the bad matrix reaches train
        X, nan = np.array([[1.0], [np.nan]]), np.full(2, np.nan)
        ids = np.array(["a", "b"], dtype=object)
        ds = LabeledDataset(ids, id_keys(ids), X, nan, np.array([0.0, 1.0]), np.full(2, -1), ())
        with pytest.raises(TrainingError):
            train(ds)


class TestModelPersistence:
    def test_json_round_trip_is_exact(self, tmp_path):
        model = train(_separable(40, 3, seed=7))
        path = tmp_path / "model.json"
        model.save(path)
        back = BaseModel.load(path)
        np.testing.assert_array_equal(back.weights, model.weights)
        assert back.intercept == model.intercept
        np.testing.assert_array_equal(back.feature_mean, model.feature_mean)
        np.testing.assert_array_equal(back.feature_scale, model.feature_scale)

    @pytest.mark.parametrize("mean, scale", [
        ([0.0], [1.0, 1.0]), ([0.0, 0.0], [1.0]), ([0.0, 0.0], [[1.0, 1.0]]),
    ])
    def test_columns_of_unequal_length_or_rank_are_rejected(self, mean, scale):
        meta = logistic.TrainMeta(1, 0.5, 0)
        with pytest.raises(TrainingError, match="1-d arrays of one length"):
            BaseModel([1.0, 2.0], 0.0, 0.1, mean, scale, meta)
        with pytest.raises(TrainingError, match="1-d arrays of one length"):
            BaseModel(1.0, 0.0, 0.1, 0.0, 1.0, meta)

    @pytest.mark.parametrize("dim", [5, 1, "2"])
    def test_a_dim_that_is_not_the_weight_count_is_rejected(self, tmp_path, dim):
        path = tmp_path / "model.json"
        train(_separable(30, 2, seed=7)).save(path)
        path.write_text(json.dumps({**json.loads(path.read_text()), "dim": dim}))
        message = f"{path}: the 'logistic' artifact holds a bad field: dim is {dim!r} but"
        with pytest.raises(TrainingError, match=re.escape(message) + " the model has 2 weights$"):
            BaseModel.load(path)

    @pytest.mark.parametrize("shape", [(3,), (4, 1), (2, 3)])
    def test_features_of_another_dimension_are_rejected(self, shape):
        model = train(_separable(30, 2, seed=7))
        message = f"feature dimension {shape[-1]} does not match model dim 2"
        with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
            model.score(np.zeros(shape))

    def test_loaded_model_scores_identically(self, tmp_path):
        ds = _separable(25, 2, seed=8)
        model = train(ds)
        model.save(tmp_path / "m.json")
        back = BaseModel.load(tmp_path / "m.json")
        np.testing.assert_array_equal(back.score_dataset(ds), model.score_dataset(ds))


class _RecordingStub:
    """Trainer double that notes the ids it saw and scores everything 0.5."""

    def __init__(self, log):
        self.log = log

    def __call__(self, ds):
        self.log.append(set(ds.ids()))
        return self

    def score_dataset(self, ds):
        return np.full(ds.n, 0.5)


class TestCvPredict:
    def test_predictions_are_out_of_fold(self):
        ds = _separable(20, 2, seed=9)
        fold = make_folds(ds, 4, seed=0)
        log = []
        cv_predict(ds, fold, trainer=_RecordingStub(log))
        # one training call per fold, never containing that fold's rows
        assert len(log) == 4
        ids = np.array(ds.ids(), dtype=object)
        for f, seen in enumerate(log):
            assert not seen & set(ids[fold == f])

    def test_scores_cover_every_row(self):
        ds = _separable(13, 2, seed=10)
        scores = cv_predict(ds, make_folds(ds, 3, seed=1))
        assert scores.shape == (ds.n,)
        assert np.all((scores >= 0) & (scores <= 1))

    def test_scores_follow_the_dataset_row_order(self):
        ds = _separable(9, 2, seed=11)
        fold = make_folds(ds, 3, seed=2)
        scores = cv_predict(ds, fold)
        # each row's score comes from the model fitted without that row's fold
        for f in range(3):
            held = fold == f
            model = train(ds.take(~held))
            np.testing.assert_array_equal(scores[held], model.score_dataset(ds.take(held)))
        flipped = ds.take(np.arange(ds.n)[::-1])
        again = cv_predict(flipped, fold[::-1])
        np.testing.assert_allclose(again, scores[::-1], rtol=1e-12)

    def test_separable_data_gives_informative_cv_scores(self):
        ds = _separable(120, 3, seed=12)
        scores = cv_predict(ds, make_folds(ds, 5, seed=3))
        acc = ((scores > 0.5).astype(int) == ds.labels()).mean()
        assert acc >= 0.9

    def test_single_class_complement_warns_but_completes(self):
        X = np.array([[0.0], [0.1], [1.0], [1.1]])
        ds = LabeledDataset.from_arrays(X, y=[0, 0, 1, 1], prefix="q")
        with pytest.warns(SingleClassFoldWarning) as caught:
            scores = cv_predict(ds, np.array([0, 0, 1, 1]))
        assert [str(w.message)[:7] for w in caught] == ["fold 1:", "fold 2:"]
        assert scores.shape == (4,)
        assert all(0.0 <= s <= 1.0 for s in scores)

    def test_a_fold_id_with_no_rows_is_skipped(self):
        ds = _separable(10, 2, seed=15)
        fold = np.array([0, 2] * 5)
        scored = []

        class Stub(_RecordingStub):
            def score_dataset(self, part):
                scored.extend(part.ids())
                return np.full(part.n, 0.25)

        log = []
        scores = cv_predict(ds, fold, trainer=Stub(log))
        assert log == [set(ds.take(fold == 2).ids()), set(ds.take(fold == 0).ids())]
        assert sorted(scored) == sorted(ds.ids())
        np.testing.assert_array_equal(scores, np.full(10, 0.25))

    def test_missing_fold_assignment_is_an_error(self):
        ds = _separable(6, 2, seed=13)
        with pytest.raises(DatasetError, match="fold assignment"):
            cv_predict(ds, np.array([0]))

    def test_folds_of_a_dataset_of_another_length_are_rejected(self):
        ds = _separable(12, 2, seed=14)
        for other in (ds.take(np.arange(11)), _separable(13, 2, seed=14)):
            with pytest.raises(DatasetError, match=r"expected \(12,\)"):
                cv_predict(ds, make_folds(other, 3, seed=0))


def _reference_standardized(X):
    """Column means and scales as ``X.mean``/``np.add.reduce`` give them, and the scaled matrix."""
    mean = X.mean(axis=0)
    centered = X - mean
    scale = np.sqrt(np.add.reduce(centered * centered, axis=0) / X.shape[0])
    scale = np.where(scale > 0.0, scale, 1.0)
    return (X - mean) / scale, mean, scale


class TestStandardization:
    """``_standardized`` sums each column row by row, as the reference formula does on C-ordered input."""

    @pytest.mark.parametrize("shape", [(1, 3), (2, 1), (40_000, 16), (5, 200)])
    @pytest.mark.parametrize("kind", ["plain", "constant-column", "magnitude-1e9"])
    def test_matches_reference_bits(self, shape, kind):
        X = np.random.default_rng(shape[0]).standard_normal(shape) * 3.0 + 1.0
        if kind == "constant-column":
            X[:, 0] = 2.5
        elif kind == "magnitude-1e9":
            X = X * 1e9 + 1e9
        want = _reference_standardized(X)
        for got, ref in zip(logistic._standardized(X), want):
            np.testing.assert_array_equal(_bits(got), _bits(ref))

    def test_fortran_ordered_input_standardizes_like_its_c_ordered_copy(self):
        X = np.random.default_rng(7).standard_normal((1000, 16)) * 5.0 + 2.0
        for got, ref in zip(logistic._standardized(np.asfortranarray(X)), logistic._standardized(X)):
            np.testing.assert_array_equal(_bits(got), _bits(ref))


def _noisy(n=300, d=4, seed=11):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d)) * np.arange(1, d + 1) + 3.0
    y = (rng.uniform(size=n) < _reference_sigmoid(X[:, 0] - 3.0 - 0.5 * X[:, 1] + 1.5)).astype(int)
    return LabeledDataset.from_arrays(X, y=y)


def _same_fit(model, theta, iterations, objective):
    d = model.dim
    np.testing.assert_array_equal(_bits(model.weights), _bits(theta[:d]))
    assert _bits(model.intercept) == _bits(theta[d])
    assert model.train_meta.iterations == iterations
    assert _bits(model.train_meta.objective) == _bits(objective)


class TestBitwiseTraining:
    """Training matches a two-pass objective built on the reference sigmoid, bit for bit."""

    CASES = [
        pytest.param(_noisy, 5000, False, id="converges"),
        pytest.param(lambda: _separable(120, 3, seed=9), 7, True, id="max-iter"),
    ]

    @pytest.mark.parametrize("make, max_iter, stops_at_max_iter", CASES)
    def test_train(self, make, max_iter, stops_at_max_iter, monkeypatch):
        ds = make()
        X, y, lam = ds.feature_matrix(), ds.labels(), 1e-3
        mean, scale = logistic._standardized(X)[1:]
        Xs = (X - mean) / scale
        d = ds.dim

        def reference(theta):
            w, b = theta[:d], theta[d]
            value = regularized_logloss(w, b, Xs, y, lam)
            gw, gb = regularized_logloss_grad(w, b, Xs, y, lam)
            return value, lambda: np.append(gw, gb)

        model = train(ds, reg_lambda=lam, max_iter=max_iter)
        with monkeypatch.context() as m:
            m.setattr(logistic, "sigmoid", _reference_sigmoid)
            fit = minimize_gd(reference, np.zeros(d + 1), max_iter=max_iter, tol=1e-6)
        _same_fit(model, *fit)
        assert (model.train_meta.iterations == max_iter) is stops_at_max_iter

    @pytest.mark.parametrize("make, max_iter, stops_at_max_iter", CASES)
    def test_train_augmented(self, make, max_iter, stops_at_max_iter):
        ds = make()
        labeled, augmented = ds.take(np.arange(ds.n) % 3 == 0), ds.take(np.arange(ds.n) % 3 != 0)
        z = _reference_sigmoid(np.linspace(-4.0, 4.0, augmented.n))
        augmented = augmented.without_labels().with_oracle_scores(dict(zip(augmented.ids(), z)))
        slack, lam = 0.1, 1e-3
        X, y = labeled.feature_matrix(), labeled.labels()
        mean, scale = logistic._standardized(X)[1:]
        Xs, Xa = (X - mean) / scale, (augmented.feature_matrix() - mean) / scale
        loss0, d, total = RelaxedLoss(slack), ds.dim, labeled.n + augmented.n

        def reference(theta):
            w, b = theta[:d], theta[d]
            p = _reference_sigmoid(Xs @ w + b)
            q = _reference_sigmoid(Xa @ w + b)
            resid = p - y
            back_p = 2.0 * resid * p * (1.0 - p)
            back_q = loss0.grad(q, z) * q * (1.0 - q)
            value = float(np.sum(resid**2)) + float(np.sum(loss0.value(q, z)))
            grad = np.zeros(d + 1)
            grad[:d] += Xs.T @ back_p
            grad[d] += float(np.sum(back_p))
            grad[:d] += Xa.T @ back_q
            grad[d] += float(np.sum(back_q))
            value = value / total + 0.5 * lam * float(np.dot(w, w))
            grad = grad / total
            grad[:d] += lam * w
            return value, lambda: grad

        model = train_augmented(labeled, augmented, slack_a=slack, reg_lambda=lam, max_iter=max_iter)
        fit = minimize_gd(reference, np.zeros(d + 1), max_iter=max_iter, tol=1e-6)
        _same_fit(model, *fit)
        assert (model.train_meta.iterations == max_iter) is stops_at_max_iter


def _split_for_augmentation(ds):
    """Every third row labeled; the rest unlabeled with oracle scores spread over (0, 1)."""
    labeled, augmented = ds.take(np.arange(ds.n) % 3 == 0), ds.take(np.arange(ds.n) % 3 != 0)
    z = _reference_sigmoid(np.linspace(-4.0, 4.0, augmented.n))
    return labeled, augmented.without_labels().with_oracle_scores(dict(zip(augmented.ids(), z)))


def _count_evaluations(monkeypatch):
    """Count objective evaluations of every ``minimize_gd`` call, by wrapping its first argument."""
    from scorefusion import transfer

    counts = {"evals": 0}
    original = logistic.minimize_gd

    def minimize(value_and_grad, *args, **kwargs):
        def counted(theta):
            counts["evals"] += 1
            return value_and_grad(theta)
        return original(counted, *args, **kwargs)

    for module in (logistic, transfer):
        monkeypatch.setattr(module, "minimize_gd", minimize)
    return counts


class TestEvaluationCounts:
    """Iterations and objective evaluations per training call on fixed problems."""

    CASES = [
        # make, max_iter, (iterations, evaluations) for train, train_augmented, train_augmented alone
        pytest.param(_noisy, 5000, [(16, 30), (16, 29), (19, 35)], id="converges"),
        pytest.param(lambda: _separable(120, 3, seed=9), 7, [(7, 8), (7, 11), (7, 8)], id="max-iter"),
    ]

    @pytest.mark.parametrize("make, max_iter, expected", CASES)
    def test_counts(self, make, max_iter, expected, monkeypatch):
        ds = make()
        labeled, augmented = _split_for_augmentation(ds)
        counts = _count_evaluations(monkeypatch)
        runs = [
            lambda: train(ds, max_iter=max_iter),
            lambda: train_augmented(labeled, augmented, max_iter=max_iter),
            lambda: train_augmented(labeled, None, max_iter=max_iter),
        ]
        seen = []
        for run in runs:
            counts["evals"] = 0
            model = run()
            seen.append((model.train_meta.iterations, counts["evals"]))
        assert seen == expected


class TestDeferredGradient:
    """Training objectives defer the gradient, so only accepted steps pay for it."""

    @pytest.mark.parametrize("make, max_iter", [
        pytest.param(_noisy, 5000, id="converges"),
        pytest.param(lambda: _separable(120, 3, seed=9), 7, id="max-iter"),
    ])
    def test_gradient_built_once_per_accepted_step(self, make, max_iter, monkeypatch):
        from scorefusion import transfer

        ds = make()
        labeled, augmented = _split_for_augmentation(ds)
        built = {"grads": 0}
        original = logistic.minimize_gd

        def minimize(value_and_grad, *args, **kwargs):
            def counted(theta):
                value, grad = value_and_grad(theta)
                assert callable(grad)

                def build():
                    built["grads"] += 1
                    return grad()
                return value, build
            return original(counted, *args, **kwargs)

        for module in (logistic, transfer):
            monkeypatch.setattr(module, "minimize_gd", minimize)
        for run in (
            lambda: train(ds, max_iter=max_iter),
            lambda: train_augmented(labeled, augmented, max_iter=max_iter),
            lambda: train_augmented(labeled, None, max_iter=max_iter),
        ):
            built["grads"] = 0
            model = run()
            assert built["grads"] == model.train_meta.iterations + 1

    @pytest.mark.parametrize("make, max_iter", [
        pytest.param(_noisy, 5000, id="converges"),
        pytest.param(lambda: _separable(120, 3, seed=9), 7, id="max-iter"),
    ])
    def test_gradient_callable_gives_the_same_bits_when_called_twice(self, make, max_iter, monkeypatch):
        from scorefusion import transfer

        ds = make()
        labeled, augmented = _split_for_augmentation(ds)
        runs = [
            lambda: train(ds, max_iter=max_iter),
            lambda: train_augmented(labeled, augmented, max_iter=max_iter),
            lambda: train_augmented(labeled, None, max_iter=max_iter),
        ]
        plain = [run() for run in runs]
        original = logistic.minimize_gd

        def minimize(value_and_grad, *args, **kwargs):
            def twice(theta):
                value, grad = value_and_grad(theta)

                def build():
                    first, second = grad(), grad()
                    np.testing.assert_array_equal(_bits(first), _bits(second))
                    return second
                return value, build
            return original(twice, *args, **kwargs)

        for module in (logistic, transfer):
            monkeypatch.setattr(module, "minimize_gd", minimize)
        for run, model in zip(runs, plain):
            again = run()
            assert again.to_json() == model.to_json()


def _stored(X, y):
    """A dataset built from stored columns, so ``X`` may hold values ``from_arrays`` rejects."""
    n = len(X)
    ids = np.array([f"r{k}" for k in range(n)], dtype=object)
    return LabeledDataset(ids, id_keys(ids), np.array(X, dtype=float, order="C"), np.full(n, np.nan),
                          np.asarray(y, dtype=float), np.full(n, -1, dtype=np.intp), ())


class TestNonFiniteFeatures:
    """Checking the column sums rejects exactly what an elementwise ``isfinite`` pass rejects."""

    @pytest.mark.parametrize("bad", ["nan", "+inf", "-inf", "+inf and -inf"])
    def test_a_non_finite_feature_is_rejected_before_any_arithmetic(self, bad):
        X = np.random.default_rng(5).standard_normal((20, 3))
        if bad == "nan":
            X[4, 1] = np.nan
        elif bad == "+inf":
            X[0, 2] = np.inf
        elif bad == "-inf":
            X[19, 0] = -np.inf
        else:
            X[2, 1], X[9, 1] = np.inf, -np.inf  # the column sums to NaN, not to an infinity
        ds = _stored(X, [k % 2 for k in range(20)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # nothing computes on the bad values first
            with pytest.raises(TrainingError, match="^training dataset contains non-finite features"):
                train(ds)
            with pytest.raises(TrainingError, match="^labeled dataset contains non-finite features"):
                train_augmented(ds)

    def test_finite_features_whose_column_sum_overflows_are_accepted(self):
        X = np.array([[1e308, 0.0], [1e308, 1.0], [-1e308, 2.0], [5.0, 3.0]])
        assert np.isinf(np.einsum("ij->j", X)[0]) and np.isfinite(X).all()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the overflow itself
            Xs, y, mean, scale = logistic._training_inputs(_stored(X, [0, 1, 0, 1]), 1e-3)
            want = logistic._standardized(X)
        for got, ref in zip((Xs, mean, scale), want):
            np.testing.assert_array_equal(_bits(got), _bits(ref))
        assert y.tolist() == [0, 1, 0, 1]


class TestSingleClass:
    """``_single_class`` agrees with ``np.unique(y).size < 2``, which counts NaN as one value."""

    @pytest.mark.parametrize("column", [
        [], [0], [1], [np.nan], [0, 0, 0], [1, 1], [np.nan, np.nan], [0, 1], [1, np.nan],
        [0, np.nan], [np.nan, 1, 1], [0, 1, np.nan],
    ])
    def test_small_columns(self, column):
        y = np.array(column, dtype=float)
        assert logistic._single_class(y) == (np.unique(y).size < 2)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_columns(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(200):
            y = rng.choice(np.array([0.0, 1.0, np.nan])[rng.permutation(3)[:rng.integers(1, 4)]],
                           size=rng.integers(0, 6))
            assert logistic._single_class(y) == (np.unique(y).size < 2)
