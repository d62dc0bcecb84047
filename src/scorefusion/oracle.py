"""Per-instance oracle scores from cached files, HTTP endpoints, or a seeded simulator.

Every provider maps instances to scores z in [0, 1]. Providers are
deterministic given their own state: the synthetic provider derives one RNG
stream per instance id (so scores do not depend on batch composition or
order), the cached provider replays a CSV file, and the HTTP provider's
results become deterministic once captured in a cache file.

``score_batch`` is the single entry point: it consults the provider's cache
before issuing any remote work, appends fresh results to the cache (also when
other instances of the batch fail), collects per-instance failures, and
returns (id, score) pairs sorted by id.
"""

from __future__ import annotations

import csv
import json
import os
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path

import numpy as np
import requests

from .data import LabeledDataset


class OracleError(RuntimeError):
    """Oracle-level failure; ``failures`` lists (instance id, reason) pairs."""

    def __init__(self, message, failures=()):
        super().__init__(message)
        self.failures = tuple(failures)


class ScoreParseError(ValueError):
    """No score in [0, 1] could be extracted from a response."""


class PromptError(ValueError):
    """A template placeholder has no value in the instance metadata."""


# ---------------------------------------------------------------------------
# prompt rendering and response parsing
# ---------------------------------------------------------------------------

_PLACEHOLDER_RE = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")
_NUMBER_RE = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)")

# Checked in order; first keyword present in the text wins. The defaults fit
# the relevance task where label 1 means "irrelevant".
DEFAULT_KEYWORDS = (
    ("irrelevant", 1.0),
    ("relevant", 0.0),
    ("yes", 1.0),
    ("no", 0.0),
)


def render_prompt(template: str, metadata: dict) -> str:
    """Substitute {placeholder} fields literally; unknown keys are an error."""

    def _sub(match):
        key = match.group(1)
        if key not in metadata:
            raise PromptError(f"prompt template references missing placeholder {key!r}")
        return str(metadata[key])

    return _PLACEHOLDER_RE.sub(_sub, template)


def parse_score(text: str, keywords=DEFAULT_KEYWORDS) -> float:
    """Extract a score in [0, 1] from a raw response.

    Ladder: a JSON body with a numeric "score" field wins (out-of-range values
    are rejected, not clamped); otherwise the first decimal number in [0, 1]
    anywhere in the text; otherwise the first matching keyword. Anything else
    raises ScoreParseError.
    """
    stripped = text.strip()
    try:
        doc = json.loads(stripped)
    except (json.JSONDecodeError, RecursionError):
        doc = None
    if isinstance(doc, dict) and "score" in doc:
        value = doc["score"]
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            if not 0.0 <= value <= 1.0:
                raise ScoreParseError(f"JSON score {value} outside [0, 1]")
            return float(value)

    for match in _NUMBER_RE.finditer(text):
        value = float(match.group(0))
        if 0.0 <= value <= 1.0:
            return value

    for word, value in keywords:
        if re.search(rf"\b{re.escape(word)}\b", text, re.IGNORECASE):
            return float(value)

    preview = text if len(text) <= 120 else text[:117] + "..."
    raise ScoreParseError(f"could not extract a score in [0, 1] from {preview!r}")


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------


class OracleCache:
    """CSV-backed id -> score map; rows round-trip at full float precision."""

    HEADER = ("id", "z")

    def __init__(self, path):
        self.path = Path(path)
        self._scores: dict[str, float] = {}
        if self.path.exists():
            self._read()

    def _read(self):
        with open(self.path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                return
            if tuple(h.strip() for h in header) != self.HEADER:
                raise OracleError(f"cache file {self.path} must start with header 'id,z'")
            for row_num, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 2:
                    raise OracleError(f"cache file {self.path} line {row_num}: expected 2 cells")
                self._scores[row[0]] = self._check(row[0], row[1], row_num)

    def _check(self, instance_id, text, row_num) -> float:
        try:
            z = float(text)
        except ValueError:
            raise OracleError(
                f"cache file {self.path} line {row_num}: bad score {text!r}"
            ) from None
        if not 0.0 <= z <= 1.0:
            raise OracleError(
                f"cache file {self.path} line {row_num}: score {z} outside [0, 1] for id {instance_id!r}"
            )
        return z

    def __contains__(self, instance_id) -> bool:
        return instance_id in self._scores

    def __len__(self) -> int:
        return len(self._scores)

    def get(self, instance_id):
        return self._scores.get(instance_id)

    def scores(self) -> dict:
        return dict(self._scores)

    def update(self, new_scores: dict) -> None:
        """Merge scores and append them to the backing file (17 significant digits)."""
        fresh = {str(i): float(z) for i, z in new_scores.items()}
        for i, z in fresh.items():
            if not 0.0 <= z <= 1.0:
                raise OracleError(f"refusing to cache out-of-range score {z} for id {i!r}")
        if not fresh:
            return
        new_file = not self.path.exists()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            if new_file:
                writer.writerow(self.HEADER)
            for i in sorted(fresh):
                writer.writerow([i, "%.17g" % fresh[i]])
        self._scores.update(fresh)


# ---------------------------------------------------------------------------
# providers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticOracleSpec:
    """Simulated judge: accuracy q, emitting hard {0,1} or soft [0,1] scores."""

    accuracy: float = 0.85
    mode: str = "binary"
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.5 <= self.accuracy <= 1.0:
            raise OracleError(f"oracle accuracy must be in [0.5, 1], got {self.accuracy}")
        if self.mode not in ("binary", "soft"):
            raise OracleError(f"oracle mode must be 'binary' or 'soft', got {self.mode!r}")
        if not self.noise >= 0:
            raise OracleError(f"oracle noise width must be >= 0, got {self.noise}")


class SyntheticOracle:
    """Scores derive from the instance's true label through a noisy channel.

    Each instance gets its own RNG stream seeded by (oracle seed, hash of the
    instance id), so z is a pure function of (seed, id, label) independent of
    how instances are batched. Binary mode emits the true label with
    probability q and its flip otherwise; soft mode emits
    clamp(y*q + (1-y)*(1-q) + Normal(0, noise), 0, 1).
    """

    kind = "synthetic"
    cache = None

    def __init__(self, spec: SyntheticOracleSpec, truth: dict | None = None):
        self.spec = spec
        self.truth = dict(truth) if truth else {}

    def _label_of(self, instance):
        if getattr(instance, "label", None) is not None:
            return int(instance.label)
        return self.truth.get(instance.id)

    def _rng(self, instance_id: str):
        digest = sha256(instance_id.encode("utf-8")).digest()
        return np.random.default_rng([self.spec.seed, int.from_bytes(digest[:16], "little")])

    def score(self, instance) -> float:
        y = self._label_of(instance)
        if y is None:
            raise OracleError(
                f"synthetic oracle has no label for instance {instance.id!r}",
                failures=((instance.id, "no true label available"),),
            )
        rng = self._rng(instance.id)
        if self.spec.mode == "binary":
            hit = rng.uniform() < self.spec.accuracy
            return float(y if hit else 1 - y)
        center = y * self.spec.accuracy + (1 - y) * (1.0 - self.spec.accuracy)
        return float(np.clip(center + rng.normal(0.0, self.spec.noise), 0.0, 1.0))

    def score_uncached(self, instances):
        results, failures = {}, []
        for inst in instances:
            if self._label_of(inst) is None:
                failures.append((inst.id, "no true label available"))
            else:
                results[inst.id] = self.score(inst)
        return results, failures


class CachedOracle:
    """Replays a cache file; optionally falls through to another provider."""

    kind = "cached"

    def __init__(self, cache: OracleCache, fallback=None):
        self.cache = cache
        self.fallback = fallback

    def score(self, instance) -> float:
        hit = self.cache.get(instance.id)
        if hit is not None:
            return hit
        if self.fallback is not None:
            return self.fallback.score(instance)
        raise OracleError(
            f"no cached score for instance {instance.id!r}",
            failures=((instance.id, "not in cache"),),
        )

    def score_uncached(self, instances):
        if self.fallback is not None:
            return self.fallback.score_uncached(instances)
        return {}, [(inst.id, "not in cache") for inst in instances]


@dataclass(frozen=True)
class HttpOracleConfig:
    """Generic chat-completions-style scoring endpoint.

    The bearer token is read from the environment variable named by
    ``auth_env`` at request time (never stored); ``prompt_template`` is
    rendered per instance with {id} and {stratum} available by default.
    """

    url: str
    model: str
    prompt_template: str = "Rate the relevance of item {id} with a score between 0 and 1."
    auth_env: str | None = None
    timeout: float = 30.0
    retries: int = 3
    backoff: float = 0.5
    max_concurrency: int = 4

    def __post_init__(self):
        if self.retries < 1:
            raise OracleError(f"retries must be >= 1, got {self.retries}")
        if self.max_concurrency < 1:
            raise OracleError(f"max_concurrency must be >= 1, got {self.max_concurrency}")


class HttpOracle:
    """POSTs {"model", "prompt"} per instance and parses the response body.

    Each instance is attempted up to ``retries`` times with exponential
    backoff; instances still failing are reported, not silently dropped.
    Requests for one batch run on a bounded thread pool, but results are
    committed in instance-id order so downstream artifacts are deterministic.
    ``session`` only needs a ``post`` method, which keeps the transport
    injectable for tests.
    """

    kind = "http"

    def __init__(self, config: HttpOracleConfig, cache: OracleCache | None = None,
                 session=None, metadata=None, keywords=DEFAULT_KEYWORDS):
        self.config = config
        self.cache = cache
        self.session = session if session is not None else requests.Session()
        self.metadata = metadata if metadata is not None else self._default_metadata
        self.keywords = keywords

    @staticmethod
    def _default_metadata(instance) -> dict:
        return {"id": instance.id, "stratum": getattr(instance, "stratum", None) or ""}

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        if self.config.auth_env:
            token = os.environ.get(self.config.auth_env)
            if not token:
                raise OracleError(
                    f"environment variable {self.config.auth_env!r} is not set; "
                    "it must hold the bearer token for the oracle endpoint"
                )
            headers["Authorization"] = f"Bearer {token}"
        return headers

    def _score_once(self, instance, headers) -> float:
        prompt = render_prompt(self.config.prompt_template, self.metadata(instance))
        response = self.session.post(
            self.config.url,
            json={"model": self.config.model, "prompt": prompt},
            headers=headers,
            timeout=self.config.timeout,
        )
        status = getattr(response, "status_code", 200)
        if status != 200:
            raise OracleError(f"endpoint returned HTTP {status}")
        return parse_score(response.text, self.keywords)

    def _score_with_retries(self, instance, headers):
        last = None
        for attempt in range(self.config.retries):
            try:
                return instance.id, self._score_once(instance, headers), None
            except (OracleError, ScoreParseError, PromptError, requests.RequestException) as exc:
                last = str(exc)
                if attempt + 1 < self.config.retries:
                    time.sleep(self.config.backoff * 2.0**attempt)
        return instance.id, None, last

    def score_uncached(self, instances):
        headers = self._headers()
        results, failures = {}, []
        with ThreadPoolExecutor(max_workers=self.config.max_concurrency) as pool:
            outcomes = list(pool.map(lambda i: self._score_with_retries(i, headers), instances))
        for instance_id, score, error in sorted(outcomes, key=lambda t: t[0]):
            if error is None:
                results[instance_id] = score
            else:
                failures.append((instance_id, error))
        return results, failures

    def score(self, instance) -> float:
        instance_id, score, error = self._score_with_retries(instance, self._headers())
        if error is not None:
            raise OracleError(
                f"oracle request failed for instance {instance_id!r}: {error}",
                failures=((instance_id, error),),
            )
        return score


# ---------------------------------------------------------------------------
# batch entry point
# ---------------------------------------------------------------------------


def score_batch(provider, batch):
    """Score a LabeledDataset or a list of instances, returning (id, z) pairs sorted by id.

    The provider's cache (when it has one) is looked up by id first; only the
    misses go to the provider, as ``Instance`` views, and every score it
    returns in range is appended to the cache before anything can raise, so
    paid-for results are kept. If any instance still fails after the
    provider's retry policy, the batch then raises OracleError listing every
    failure, so partial results never leak into downstream artifacts.
    """
    if isinstance(batch, LabeledDataset):
        ids, row = batch.ids(), batch.row
    else:
        instances = list(batch)
        ids, row = [inst.id for inst in instances], instances.__getitem__
    if not ids:
        raise OracleError("score_batch needs at least one instance")
    order = sorted(range(len(ids)), key=ids.__getitem__)

    cache = getattr(provider, "cache", None)
    results: dict[str, float] = {}
    misses = []
    for k in order:
        hit = cache.get(ids[k]) if cache is not None else None
        if hit is not None:
            results[ids[k]] = hit
        else:
            misses.append(k)

    if misses:
        fetched, failures = provider.score_uncached([row(k) for k in misses])
        bad = {i: z for i, z in fetched.items() if not 0.0 <= z <= 1.0}
        if cache is not None:
            cache.update({i: z for i, z in fetched.items() if i not in bad})
        if failures:
            shown = "; ".join(f"{i}: {msg}" for i, msg in failures[:3])
            raise OracleError(
                f"oracle failed on {len(failures)} instance(s): {shown}", failures=failures
            )
        if bad:
            first = next(iter(bad))
            raise OracleError(
                f"provider returned out-of-range score {bad[first]} for id {first!r}",
                failures=tuple((i, f"score {z} outside [0, 1]") for i, z in bad.items()),
            )
        results.update(fetched)

    return [(ids[k], results[ids[k]]) for k in order]
