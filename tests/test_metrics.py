"""Evaluation metrics for probabilistic scores against binary labels."""

import numpy as np
import pytest

from scorefusion import MetricError, accuracy, brier_score, log_loss
from scorefusion.metrics import LOSS_CLAMP, mean_log_loss


class TestAccuracy:
    def test_threshold_at_one_half(self):
        scores = np.array([0.9, 0.2, 0.51, 0.49])
        labels = np.array([1, 0, 1, 0])
        assert accuracy(scores, labels) == 1.0

    def test_exactly_one_half_predicts_zero(self):
        assert accuracy([0.5], [0]) == 1.0
        assert accuracy([0.5], [1]) == 0.0

    def test_fraction_correct(self):
        assert accuracy([0.9, 0.9, 0.1, 0.9], [1, 0, 0, 1]) == 0.75


class TestBrierScore:
    def test_hand_computed_value(self):
        # ((0.8-1)^2 + (0.3-0)^2) / 2 = (0.04 + 0.09) / 2
        assert brier_score([0.8, 0.3], [1, 0]) == pytest.approx(0.065, abs=1e-15)

    def test_perfect_and_worst_cases(self):
        assert brier_score([1.0, 0.0], [1, 0]) == 0.0
        assert brier_score([0.0, 1.0], [1, 0]) == 1.0


class TestLogLoss:
    def test_hand_computed_value(self):
        want = -(np.log(0.8) + np.log(1 - 0.3)) / 2
        assert log_loss([0.8, 0.3], [1, 0]) == pytest.approx(want, abs=1e-12)

    def test_confident_mistakes_are_clamped_not_infinite(self):
        value = log_loss([0.0], [1])
        assert np.isfinite(value)
        assert value == pytest.approx(-np.log(1e-12))

    def test_clamp_leaves_interior_scores_alone(self):
        assert log_loss([0.5], [1]) == pytest.approx(np.log(2.0))

    def test_in_place_form_has_the_bits_of_the_plain_formula(self):
        def plain(p, y):
            c = np.clip(p, LOSS_CLAMP, 1.0 - LOSS_CLAMP)
            return -np.mean(y * np.log(c) + (1.0 - y) * np.log(1.0 - c))

        rng = np.random.default_rng(7)
        for n in (1, 2, 17, 4096, 24000):
            p, y = rng.random(n), (rng.random(n) < 0.5).astype(float)
            p[rng.random(n) < 0.05], p[rng.random(n) < 0.05] = 0.0, 1.0
            kept = p.copy()
            assert mean_log_loss(p, y).tobytes() == plain(p, y).tobytes()
            assert p.tobytes() == kept.tobytes()  # the scores are not overwritten
        for p, y in ((0.3, 1.0), (0.0, 0.0), (np.float64(1.0), 1.0), (np.array(0.2), np.array(0.0))):
            assert np.asarray(mean_log_loss(p, y)).tobytes() == np.asarray(plain(p, y)).tobytes()


class TestValidation:
    def test_shape_and_content_checks(self):
        with pytest.raises(MetricError):
            accuracy([0.5, 0.5], [1])
        with pytest.raises(MetricError):
            brier_score([], [])
        with pytest.raises(MetricError):
            log_loss([0.5], [2])
        with pytest.raises(MetricError):
            accuracy([[0.5]], [[1]])
        with pytest.raises(MetricError, match=r"\[0, 1\]"):
            accuracy([1.5], [1])

    def test_non_finite_scores_are_rejected(self):
        # a NaN score must not count as a prediction of class 0
        with pytest.raises(MetricError):
            accuracy([np.nan, 0.9], [0, 1])
        with pytest.raises(MetricError):
            brier_score([np.inf], [1])
        with pytest.raises(MetricError):
            log_loss([0.2, np.nan], [0, 1])
