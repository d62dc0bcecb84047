"""In-process stand-in for an LLM scoring endpoint, injected through ``HttpOracle(session=...)``.

No network is involved: ``post`` sleeps a fixed service time and answers
from ``inputs.served_answer``, so every answer is a pure function of the
workload seed and the instance id. The session counts POSTs, retries and the
time spent inside ``post``, and keeps every score it served so the benchmark
can check what the program saved against what it was paid for.
"""

from __future__ import annotations

import re
import threading
import time
from dataclasses import dataclass

from inputs import served_answer

SERVICE_TIME_S = 0.001
_ID_RE = re.compile(r"item (\S+) with")


@dataclass(frozen=True)
class FakeResponse:
    status_code: int
    text: str


class FakeSession:
    """Thread-safe fake transport; ``reset`` starts a fresh tally for a new session."""

    def __init__(self, seed: int, poison_id: str):
        self.seed = seed
        self.poison_id = poison_id
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.posts = 0
            self.retries = 0
            self.wait_s = 0.0
            self.attempts: dict[str, int] = {}
            self.served: dict[str, float] = {}

    def post(self, url, json=None, headers=None, timeout=None):
        start = time.perf_counter()
        instance_id = _ID_RE.search(json["prompt"]).group(1)
        _, body, score, flaky = served_answer(self.seed, instance_id)
        with self._lock:
            attempt = self.attempts.get(instance_id, 0)
            self.attempts[instance_id] = attempt + 1
        time.sleep(SERVICE_TIME_S)
        if instance_id == self.poison_id:
            response = FakeResponse(400, "bad request")
        elif flaky and attempt == 0:
            response = FakeResponse(503, "busy")
        else:
            response = FakeResponse(200, body)
        with self._lock:
            self.posts += 1
            self.retries += attempt > 0
            if response.status_code == 200:
                self.served[instance_id] = score
            self.wait_s += time.perf_counter() - start
        return response

    def expected_attempts(self, instance_id: str, retries: int) -> int:
        """POSTs one id should cost when the program never re-asks for a cached score."""
        if instance_id == self.poison_id:
            return retries
        return 2 if served_answer(self.seed, instance_id)[3] else 1
