"""Covariate-shift transfer: density algebra, sampling, slack-banded training."""

import re

import numpy as np
import pytest

from scorefusion import (
    LabeledDataset,
    RelaxedLoss,
    StratumDensity,
    SyntheticOracle,
    SyntheticOracleSpec,
    TransferError,
    TransferPlan,
    TrainingError,
    augmented_objective_and_grad,
    derive_p3,
    feasibility_threshold,
    label_with_oracle,
    make_plan,
    sample_augmentation,
    sigmoid,
    train_augmented,
)
from scorefusion.data import id_keys


def _pool(n_per=50, d=2, seed=0, tags=("A", "B")):
    rng = np.random.default_rng(seed)
    parts = []
    for t, tag in enumerate(tags):
        X = rng.standard_normal((n_per, d)) + 2.0 * t
        y = rng.integers(0, 2, size=n_per)
        parts.append(
            LabeledDataset.from_arrays(X, y=y, strata=[tag] * n_per, prefix=f"{tag.lower()}_")
        )
    ds = parts[0]
    for p in parts[1:]:
        ds = ds.concat(p)
    return ds


class TestArgumentChecks:
    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: StratumDensity.from_counts({"a": 0, "b": 0.0}),
                     "cannot normalize counts that sum to zero", id="zero-counts"),
        pytest.param(lambda: feasibility_threshold(StratumDensity({"a": 1.0}), StratumDensity({"a": 1.0}), 0),
                     "feasibility threshold needs n >= 1, got n=0", id="threshold-n"),
        pytest.param(lambda: sample_augmentation(_pool(5), StratumDensity({"A": 0.5, "B": 0.5}), -1, seed=0),
                     "augmentation count must be >= 0, got -1", id="negative-m"),
    ])
    def test_a_bad_argument_is_rejected_naming_it(self, call, message):
        with pytest.raises(TransferError, match=f"^{re.escape(message)}$"):
            call()


class TestStratumDensity:
    def test_validation(self):
        with pytest.raises(TransferError):
            StratumDensity({})
        with pytest.raises(TransferError):
            StratumDensity({"a": -0.1, "b": 1.1})
        with pytest.raises(TransferError):
            StratumDensity({"a": 0.3, "b": 0.3})

    def test_from_counts_normalizes_and_widens(self):
        dens = StratumDensity.from_counts({"a": 3, "b": 1}, tags=("a", "b", "c"))
        assert dens.prob("a") == 0.75
        assert dens.prob("c") == 0.0
        assert dens.support() == ("a", "b")

    def test_as_array_orders_by_request(self):
        dens = StratumDensity({"x": 0.2, "y": 0.8})
        np.testing.assert_array_equal(dens.as_array(("y", "x")), [0.8, 0.2])


class TestDeriveP3:
    def test_worked_example(self):
        p1 = StratumDensity({"A": 0.5, "B": 0.5})
        p2 = StratumDensity({"A": 0.4, "B": 0.6})
        p3, clamped = derive_p3(p1, p2, n=100, m=50)
        assert not clamped
        assert p3.prob("A") == pytest.approx(0.2, abs=1e-12)
        assert p3.prob("B") == pytest.approx(0.8, abs=1e-12)

    def test_disjoint_supports_clamp(self):
        p1 = StratumDensity({"A": 1.0, "B": 0.0})
        p2 = StratumDensity({"A": 0.0, "B": 1.0})
        p3, clamped = derive_p3(p1, p2, n=10, m=5)
        assert clamped
        assert p3.prob("A") == 0.0 and p3.prob("B") == 1.0

    def test_feasible_mixture_reconstructs_the_target(self):
        rng = np.random.default_rng(3)
        tags = ("a", "b", "c")
        for _ in range(50):
            w1 = rng.dirichlet(np.ones(3))
            w2 = rng.dirichlet(np.ones(3)) + 0.05
            w2 = w2 / w2.sum()
            p1 = StratumDensity(dict(zip(tags, w1)))
            p2 = StratumDensity(dict(zip(tags, w2)))
            n = int(rng.integers(1, 500))
            thresh = feasibility_threshold(p1, p2, n)
            m = int(np.ceil(thresh * 1.01)) + 1
            p3, clamped = derive_p3(p1, p2, n, m)
            assert not clamped
            mix = (n * p1.as_array(tags) + m * p3.as_array(tags)) / (n + m)
            np.testing.assert_allclose(mix, p2.as_array(tags), atol=1e-9)

    def test_infeasible_m_clamps_to_a_valid_density(self):
        p1 = StratumDensity({"a": 0.9, "b": 0.1})
        p2 = StratumDensity({"a": 0.1, "b": 0.9})
        thresh = feasibility_threshold(p1, p2, n=100)
        m = max(1, int(thresh * 0.5))
        p3, clamped = derive_p3(p1, p2, 100, m)
        assert clamped
        arr = p3.as_array(p3.tags)
        assert np.all(arr >= 0) and arr.sum() == pytest.approx(1.0, abs=1e-12)

    def test_mismatched_tag_sets_rejected(self):
        with pytest.raises(TransferError):
            derive_p3(StratumDensity({"a": 1.0}), StratumDensity({"b": 1.0}), 1, 1)

    def test_counts_must_be_positive(self):
        p = StratumDensity({"a": 1.0})
        with pytest.raises(TransferError):
            derive_p3(p, p, 0, 5)
        with pytest.raises(TransferError):
            derive_p3(p, p, 5, 0)


class TestFeasibilityThreshold:
    def test_matched_densities_need_nothing(self):
        p = StratumDensity({"a": 0.5, "b": 0.5})
        assert feasibility_threshold(p, p, 100) == 0.0

    def test_scales_linearly_in_n(self):
        p1 = StratumDensity({"a": 0.6, "b": 0.4})
        p2 = StratumDensity({"a": 0.4, "b": 0.6})
        t1 = feasibility_threshold(p1, p2, 100)
        t2 = feasibility_threshold(p1, p2, 200)
        assert t2 == pytest.approx(2 * t1)
        assert t1 == pytest.approx(100 * (0.6 - 0.4) / 0.4)

    def test_unreachable_stratum_is_infinite(self):
        p1 = StratumDensity({"a": 0.5, "b": 0.5})
        p2 = StratumDensity({"a": 1.0, "b": 0.0})
        assert feasibility_threshold(p1, p2, 10) == float("inf")

    def test_is_the_exact_clamping_boundary(self):
        p1 = StratumDensity({"a": 0.7, "b": 0.3})
        p2 = StratumDensity({"a": 0.3, "b": 0.7})
        n = 60
        thresh = feasibility_threshold(p1, p2, n)  # 60 * (0.4 / 0.3) = 80
        assert thresh == pytest.approx(80.0)
        assert not derive_p3(p1, p2, n, 80)[1]
        assert derive_p3(p1, p2, n, 79)[1]


class TestRelaxedLoss:
    def test_values_inside_and_outside_the_band(self):
        loss = RelaxedLoss(slack_a=0.1)
        assert loss.value(0.95, 1.0) == 0.0
        assert loss.value(0.85, 1.0) == pytest.approx(0.0025, abs=1e-15)
        assert loss.value(1.0, 0.0) == pytest.approx(0.81, abs=1e-15)

    def test_gradient_is_zero_in_the_band(self):
        loss = RelaxedLoss(slack_a=0.2)
        assert loss.grad(0.5, 0.6) == 0.0
        assert loss.grad(0.6, 0.5) == 0.0

    def test_gradient_matches_finite_differences_off_the_boundary(self):
        loss = RelaxedLoss(slack_a=0.1)
        h = 1e-7
        for pred, target in [(0.9, 0.2), (0.1, 0.8), (0.75, 0.5), (0.42, 0.45)]:
            num = (loss.value(pred + h, target) - loss.value(pred - h, target)) / (2 * h)
            assert abs(num - loss.grad(pred, target)) < 1e-6

    def test_zero_slack_is_plain_squared_error(self):
        loss = RelaxedLoss(slack_a=0.0)
        rng = np.random.default_rng(5)
        p, t = rng.uniform(size=10), rng.uniform(size=10)
        np.testing.assert_allclose(loss.value(p, t), (p - t) ** 2, atol=1e-15)

    def test_configuration_validated(self):
        with pytest.raises(TransferError):
            RelaxedLoss(slack_a=-0.1)


class TestTransferPlan:
    def test_make_plan_round_trips_through_json(self, tmp_path):
        p1 = StratumDensity({"A": 0.5, "B": 0.5})
        p2 = StratumDensity({"A": 0.4, "B": 0.6})
        plan = make_plan(p1, p2, n=100, m=50)
        plan.save(tmp_path / "plan.json")
        back = TransferPlan.load(tmp_path / "plan.json")
        assert back == plan

    def test_unclamped_plans_must_satisfy_the_mixture_identity(self):
        p1 = StratumDensity({"A": 0.5, "B": 0.5})
        p2 = StratumDensity({"A": 0.4, "B": 0.6})
        bogus = StratumDensity({"A": 0.5, "B": 0.5})
        with pytest.raises(TransferError, match="mixture"):
            TransferPlan(n=100, m=50, source=p1, target=p2, sampling=bogus)


class TestSampleAugmentation:
    def test_sampling_is_deterministic_and_replacement_free(self):
        pool = _pool(40)
        p3 = StratumDensity({"A": 0.25, "B": 0.75})
        a = sample_augmentation(pool, p3, 30, seed=7)
        b = sample_augmentation(pool, p3, 30, seed=7)
        assert a.ids() == b.ids()
        assert len(set(a.ids())) == 30
        assert set(a.ids()) <= set(pool.ids())

    def test_rows_keep_pool_order(self):
        pool = _pool(30)
        p3 = StratumDensity({"A": 0.5, "B": 0.5})
        sample = sample_augmentation(pool, p3, 20, seed=1)
        order = {pid: k for k, pid in enumerate(pool.ids())}
        positions = [order[i] for i in sample.ids()]
        assert positions == sorted(positions)

    def test_stratum_counts_follow_the_density(self):
        pool = _pool(4000, seed=2)
        p3 = StratumDensity({"A": 0.2, "B": 0.8})
        sample = sample_augmentation(pool, p3, 1000, seed=3)
        assert abs(sample.stratum_counts()["A"] / sample.n - 0.2) < 0.05

    def test_zero_draws_give_an_empty_dataset(self):
        pool = _pool(10)
        out = sample_augmentation(pool, StratumDensity({"A": 1.0, "B": 0.0}), 0, seed=0)
        assert out.n == 0 and out.dim == pool.dim

    def test_missing_stratum_is_an_error(self):
        pool = _pool(10, tags=("A",))
        with pytest.raises(TransferError, match="no instances in stratum"):
            sample_augmentation(pool, StratumDensity({"A": 0.5, "B": 0.5}), 5, seed=0)

    def test_exhausted_stratum_is_an_error(self):
        pool = _pool(3)
        with pytest.raises(TransferError, match="exhausted"):
            sample_augmentation(pool, StratumDensity({"A": 1.0, "B": 0.0}), 10, seed=0)


class TestLabelWithOracle:
    def _oracle(self):
        return SyntheticOracle(SyntheticOracleSpec(accuracy=1.0, seed=0))

    def test_fills_scores_and_hides_labels(self):
        pool = _pool(5)
        out = label_with_oracle(pool, self._oracle())
        assert out.has_oracle_scores and not out.has_labels
        assert out.ids() == pool.ids()
        # a perfect binary oracle reproduces the hidden labels
        np.testing.assert_array_equal(out.oracle_scores(), pool.labels())

    def test_empty_dataset_passes_through(self):
        empty = LabeledDataset.from_arrays(np.zeros((0, 2)))
        assert label_with_oracle(empty, self._oracle()) is empty


class TestAugmentedObjective:
    def _random_problem(self, rng, n=12, m=8, d=3):
        X = rng.standard_normal((n, d))
        y = rng.integers(0, 2, n).astype(float)
        Xa = rng.standard_normal((m, d))
        z = rng.uniform(size=m)
        theta = rng.standard_normal(d + 1) * 0.5
        return theta, X, y, Xa, z

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(11)
        theta, X, y, Xa, z = self._random_problem(rng)
        slack, lam = 0.1, 0.01
        # stay away from the dead-band boundary where l0 is not differentiable
        preds = sigmoid(Xa @ theta[:-1] + theta[-1])
        assert np.all(np.abs(np.abs(preds - z) - slack) > 1e-4)
        _, grad = augmented_objective_and_grad(theta, X, y, Xa, z, slack, lam)
        h = 1e-6
        for j in range(len(theta)):
            e = np.zeros(len(theta))
            e[j] = h
            vp, _ = augmented_objective_and_grad(theta + e, X, y, Xa, z, slack, lam)
            vm, _ = augmented_objective_and_grad(theta - e, X, y, Xa, z, slack, lam)
            assert abs((vp - vm) / (2 * h) - grad[j]) < 1e-6

    def test_in_band_rows_contribute_nothing_but_their_count(self):
        rng = np.random.default_rng(13)
        theta, X, y, _, _ = self._random_problem(rng, m=0)
        Xa = rng.standard_normal((6, 3))
        preds = sigmoid(Xa @ theta[:-1] + theta[-1])
        z = np.clip(preds + rng.uniform(-0.05, 0.05, size=6), 0, 1)  # inside slack 0.1
        v_with, g_with = augmented_objective_and_grad(theta, X, y, Xa, z, 0.1, 0.0)
        v_without, g_without = augmented_objective_and_grad(
            theta, X, y, np.zeros((0, 3)), np.zeros(0), 0.1, 0.0
        )
        n, m = len(y), 6
        assert v_with * (n + m) == pytest.approx(v_without * n, abs=1e-12)
        np.testing.assert_allclose(g_with * (n + m), g_without * n, atol=1e-12)

    def test_empty_problem_rejected(self):
        with pytest.raises(TransferError):
            augmented_objective_and_grad(
                np.zeros(3), np.zeros((0, 2)), np.zeros(0), np.zeros((0, 2)), np.zeros(0), 0.1, 0.0
            )


class TestTrainAugmented:
    def _labeled(self, n=60, d=2, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, d))
        y = (X[:, 0] + 0.5 * rng.standard_normal(n) > 0).astype(int)
        return LabeledDataset.from_arrays(X, y=y)

    def test_learns_without_augmentation(self):
        ds = self._labeled()
        model = train_augmented(ds)
        acc = ((model.score_dataset(ds) > 0.5).astype(int) == ds.labels()).mean()
        assert acc > 0.8

    def test_in_band_augmentation_reaches_the_same_optimum(self):
        # in-band rows scale the data term but add no pull of their own, so
        # with no regularizer both problems share their stationary points;
        # heavy label noise keeps the optimum interior and well conditioned
        rng = np.random.default_rng(1)
        X = rng.standard_normal((60, 2))
        y = (rng.uniform(size=60) < sigmoid(X[:, 0])).astype(int)
        ds = LabeledDataset.from_arrays(X, y=y)
        base = train_augmented(ds, reg_lambda=0.0, tol=1e-10)
        preds = base.score_dataset(ds)
        aug = LabeledDataset.from_arrays(
            ds.feature_matrix(), z=np.clip(preds, 0.02, 0.98), prefix="aug"
        )
        with_aug = train_augmented(ds, aug, slack_a=0.5, reg_lambda=0.0, tol=1e-10)
        np.testing.assert_allclose(
            with_aug.score_dataset(ds), preds, atol=1e-5
        )

    def test_standardization_ignores_augmentation(self):
        ds = self._labeled(30, 2, seed=2)
        rng = np.random.default_rng(3)
        aug = LabeledDataset.from_arrays(
            rng.standard_normal((20, 2)) * 50 + 100, z=rng.uniform(size=20), prefix="aug"
        )
        model = train_augmented(ds, aug)
        plain = train_augmented(ds)
        np.testing.assert_array_equal(model.feature_mean, plain.feature_mean)
        np.testing.assert_array_equal(model.feature_scale, plain.feature_scale)

    def test_rounding_switch_equals_pre_rounded_scores(self):
        ds = self._labeled(30, 2, seed=4)
        rng = np.random.default_rng(5)
        Xa = rng.standard_normal((15, 2))
        z = rng.uniform(size=15)
        aug_soft = LabeledDataset.from_arrays(Xa, z=z, prefix="aug")
        aug_hard = LabeledDataset.from_arrays(Xa, z=(z > 0.5).astype(float), prefix="aug")
        a = train_augmented(ds, aug_soft, round_oracle_scores=True)
        b = train_augmented(ds, aug_hard)
        assert a.to_json() == b.to_json()

    def test_augmentation_pulls_predictions_toward_oracle_targets(self):
        ds = self._labeled(25, 2, seed=6)
        rng = np.random.default_rng(7)
        # augmented region far from the labeled cloud, all pushed toward 1
        Xa = rng.standard_normal((50, 2)) + np.array([0.0, 8.0])
        aug = LabeledDataset.from_arrays(Xa, z=np.ones(50), prefix="aug")
        plain = train_augmented(ds, reg_lambda=1e-4)
        pulled = train_augmented(ds, aug, reg_lambda=1e-4)
        probe = LabeledDataset.from_arrays(Xa)
        assert pulled.score_dataset(probe).mean() > plain.score_dataset(probe).mean()

    def test_validation_errors(self):
        ds = self._labeled(10)
        with pytest.raises(TrainingError):
            train_augmented(LabeledDataset.from_arrays(np.zeros((0, 2))))
        with pytest.raises(TrainingError):
            train_augmented(ds.without_labels())
        with pytest.raises(TrainingError):
            train_augmented(ds, LabeledDataset.from_arrays(np.zeros((2, 3)), z=[0.5, 0.5]))
        unscored = LabeledDataset.from_arrays(np.zeros((2, 2)))
        with pytest.raises(TrainingError):
            train_augmented(ds, unscored)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_augmented_features(self, bad):
        ds = self._labeled(30, 2, seed=8)
        Xa = np.random.default_rng(9).standard_normal((20, 2))
        Xa[7, 1] = bad
        # the column constructor checks nothing, so the bad matrix reaches train_augmented
        ids = np.array([f"aug{k}" for k in range(20)], dtype=object)
        aug = LabeledDataset(ids, id_keys(ids), Xa, np.full(20, 0.5), np.full(20, np.nan), np.full(20, -1), ())
        with pytest.raises(TrainingError, match="augmented dataset contains non-finite features"):
            train_augmented(ds, aug)
