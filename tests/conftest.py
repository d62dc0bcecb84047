"""Fixtures shared by the test modules."""

import threading

import pytest

from scorefusion import HttpOracle
from scorefusion import oracle as oracle_mod


class FakeClock:
    """A monotonic clock at 0.0 that only a wait on the halt moves, so every backoff wait is exact.

    ``slept`` lists the waits, and ``starts`` maps each row id to the clock
    reading at the start of each of its attempts.
    """

    def __init__(self):
        self.now, self.slept, self.starts = 0.0, [], {}

    def monotonic(self):
        return self.now

    def event(self):
        """A ``threading.Event`` whose ``wait(timeout)`` moves the clock instead of blocking."""
        clock, event = self, threading.Event()

        def wait(timeout):
            if not event.is_set():  # a set halt ends the wait at once
                clock.slept.append(timeout)
                clock.now += timeout
            return event.is_set()

        event.wait = wait
        return event


@pytest.fixture
def fake_clock(monkeypatch):
    """Runs ``HttpOracle`` on a ``FakeClock`` that records when each attempt starts.

    Only ``oracle.py``'s own names are patched, so ``time`` and ``threading``
    stay real for every other thread, a test server's too.
    """
    clock = FakeClock()
    monkeypatch.setattr(oracle_mod, "monotonic", clock.monotonic)
    monkeypatch.setattr(oracle_mod, "Event", clock.event)
    score_once = HttpOracle._score_once

    def recorded(oracle, session, fields, headers):
        clock.starts.setdefault(fields["id"], []).append(clock.now)
        return score_once(oracle, session, fields, headers)

    monkeypatch.setattr(HttpOracle, "_score_once", recorded)
    return clock
