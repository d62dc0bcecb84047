"""Fixtures shared by the test modules."""

import pytest

from scorefusion import HttpOracle
from scorefusion import oracle as oracle_mod


class FakeClock:
    """A monotonic clock at 0.0 that only ``sleep`` moves, so every backoff wait is exact.

    ``slept`` lists the sleeps, and ``starts`` maps each row id to the clock
    reading at the start of each of its attempts.
    """

    def __init__(self):
        self.now, self.slept, self.starts = 0.0, [], {}

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.slept.append(seconds)
        self.now += seconds


@pytest.fixture
def fake_clock(monkeypatch):
    """Runs ``HttpOracle`` on a ``FakeClock`` that records when each attempt starts."""
    clock = FakeClock()
    monkeypatch.setattr(oracle_mod.time, "monotonic", clock.monotonic)
    monkeypatch.setattr(oracle_mod.time, "sleep", clock.sleep)
    score_once = HttpOracle._score_once

    def recorded(oracle, session, fields, headers):
        clock.starts.setdefault(fields["id"], []).append(clock.now)
        return score_once(oracle, session, fields, headers)

    monkeypatch.setattr(HttpOracle, "_score_once", recorded)
    return clock
