"""Per-row oracle scores from cached files, HTTP endpoints, or a seeded simulator.

Every provider works on columns. It is built with an optional ``cache``
(an ``OracleCache``), and its ``score_uncached(ds)`` takes a
``LabeledDataset`` (with zero feature columns when ``score_batch`` calls it)
and returns a float column aligned with ``ds``'s rows, NaN where a row
failed, together with the (id, reason) failures. Providers are deterministic
given their own state: the synthetic provider gives each id its own RNG
stream, so scores do not depend on batch composition or order; the cached
provider replays a CSV file; and the HTTP provider's results become
deterministic once captured in a cache file. Binary synthetic scores come
from vectorized passes over fixed-size row blocks of the dataset's stored id
keys that equal each id's first ``default_rng`` draw bit for bit; soft mode
still builds the per-id streams, from the same keys.

``score_batch`` is the single entry point, and a ``LabeledDataset`` is the
only batch it takes: it consults the provider's cache before issuing any
remote work, appends fresh results to the cache (also when other rows of the
batch fail), collects per-row failures, and returns either (id, score) pairs
sorted by id (the default) or, with ``column=True``, a float array of the
scores in the batch's row order, which is what attaching scores to a dataset
needs.
"""

from __future__ import annotations

import csv
import io
import os
import re
import selectors
import threading
import time
import warnings
from dataclasses import dataclass
from itertools import compress, repeat
from json import JSONDecodeError, dumps, loads
from pathlib import Path
from types import SimpleNamespace
from urllib.parse import urlsplit

import numpy as np

from .data import LabeledDataset


class OracleError(RuntimeError):
    """Oracle-level failure; ``failures`` lists (instance id, reason) pairs."""

    def __init__(self, message, failures=()):
        super().__init__(message)
        self.failures = tuple(failures)


class ScoreParseError(ValueError):
    """No score in [0, 1] could be extracted from a response."""


class PromptError(ValueError):
    """A template placeholder has no value among the row's prompt fields."""


# ---------------------------------------------------------------------------
# prompt rendering and response parsing
# ---------------------------------------------------------------------------

_PLACEHOLDER_RE = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")
_NUMBER = r"[-+]?(?:\d+\.\d*|\.\d+|\d+)"
_NUMBER_RE = re.compile(_NUMBER)
_FRACTION_RE = re.compile(rf"({_NUMBER})\s*/\s*({_NUMBER})")

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
    are rejected, not clamped); otherwise the first fraction a/b with b > 0
    and a/b in [0, 1]; otherwise the first decimal number in [0, 1] outside
    any fraction; otherwise the first matching keyword, whose value v becomes
    1 - v when the word directly before it is "not". Anything else raises
    ScoreParseError.
    """
    stripped = text.strip()
    try:
        doc = loads(stripped)
    except (JSONDecodeError, RecursionError):
        doc = None
    if isinstance(doc, dict) and "score" in doc:
        value = doc["score"]
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            if not 0.0 <= value <= 1.0:
                raise ScoreParseError(f"JSON score {value} outside [0, 1]")
            return float(value)

    for match in _FRACTION_RE.finditer(text):
        numerator, denominator = float(match.group(1)), float(match.group(2))
        if denominator > 0 and 0.0 <= numerator / denominator <= 1.0:
            return numerator / denominator

    for match in _NUMBER_RE.finditer(_FRACTION_RE.sub(" ", text)):
        value = float(match.group(0))
        if 0.0 <= value <= 1.0:
            return value

    for word, value in keywords:
        match = re.search(rf"\b(not\s+)?{re.escape(word)}\b", text, re.IGNORECASE)
        if match:
            return 1.0 - float(value) if match.group(1) else float(value)

    preview = text if len(text) <= 120 else text[:117] + "..."
    raise ScoreParseError(f"could not extract a score in [0, 1] from {preview!r}")


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------


class OracleCache:
    """CSV-backed id -> score map; rows round-trip at full float precision.

    Only rows that end in a newline count. A partial last row, left by an
    append that was cut short, is dropped with a warning and cut off the file
    before the next ``update`` appends, so a torn ``b,0.`` is never read as 0.
    """

    HEADER = ("id", "z")

    def __init__(self, path):
        self.path = Path(path)
        self._scores: dict[str, float] = {}
        # get(id) -> score or None: the dict's own lookup, so a map over ids stays in C
        self.get = self._scores.get
        self._torn_at = None  # byte offset where a partial last row starts
        if self.path.exists():
            try:
                self._read()
            except (OSError, UnicodeDecodeError) as exc:
                raise OracleError(f"cannot read cache file {self.path} as UTF-8 text: {exc}") from None

    def _read(self):
        with open(self.path, "rb") as fh:
            size = fh.seek(0, os.SEEK_END)
            fh.seek(max(size - 1, 0))
            torn = fh.read(1) not in (b"", b"\n")
            fh.seek(0)
            source = fh
            if torn:
                head = fh.read()
                self._torn_at = head.rfind(b"\n") + 1
                line = head.count(b"\n", 0, self._torn_at) + 1
                warnings.warn(
                    f"cache file {self.path} line {line}: dropping partial last row "
                    f"{head[self._torn_at:]!r} (no trailing newline)",
                    stacklevel=3,
                )
                source = io.BytesIO(head[: self._torn_at])
            reader = csv.reader(io.TextIOWrapper(source, encoding="utf-8", newline=""))
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
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", newline="", encoding="utf-8") as fh:
            if self._torn_at is not None:
                fh.truncate(self._torn_at)
                self._torn_at = None
            writer = csv.writer(fh)
            if fh.seek(0, os.SEEK_END) == 0:
                writer.writerow(self.HEADER)
            for i in sorted(fresh):
                writer.writerow([i, "%.17g" % fresh[i]])
        self._scores.update(fresh)


# ---------------------------------------------------------------------------
# providers
# ---------------------------------------------------------------------------


# numpy's SeedSequence hash constants (pool of 4 uint32 words) and PCG64's multiplier
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _int_words(n: int) -> list[int]:
    """Little-endian uint32 words of n >= 0 as SeedSequence takes them: no high zero words."""
    words = [n & _MASK32]
    while n >> 32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hashmix(value, hash_const: int, mult: int):
    """SeedSequence's hash of a uint32 column; returns it and the next hash constant."""
    following = (hash_const * mult) & _MASK32
    value = (value ^ np.uint32(hash_const)) * np.uint32(following)
    return value ^ (value >> 16), following


def _mix_entropy(entropy: list) -> list:
    """SeedSequence.mix_entropy over a 4-word pool, one uint32 column per entropy word."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value, hash_const = _hashmix(value, hash_const, _MULT_A)
        return value

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros_like(entropy[0])) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _generate_state(pool: list) -> list:
    """SeedSequence.generate_state(4, np.uint64): four uint64 columns."""
    hash_const, out = _INIT_B, []
    for k in range(8):
        value, hash_const = _hashmix(pool[k % 4], hash_const, _MULT_B)
        out.append(value.astype(np.uint64))
    return [out[2 * k] | (out[2 * k + 1] << 32) for k in range(4)]


def _mulhi64(a, b):
    """High 64 bits of the 128-bit products a * b, from 32-bit limbs."""
    a0, a1, b0, b1 = a & _MASK32, a >> 32, b & _MASK32, b >> 32
    low, cross1, cross2 = a0 * b0, a0 * b1, a1 * b0
    mid = (low >> 32) + (cross1 & _MASK32) + (cross2 & _MASK32)
    return a1 * b1 + (cross1 >> 32) + (cross2 >> 32) + (mid >> 32)


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One LCG step of PCG64's 128-bit state: state * multiplier + increment."""
    mult_hi, mult_lo = np.uint64(_PCG_MULT_HI), np.uint64(_PCG_MULT_LO)
    hi = _mulhi64(lo, mult_lo) + hi * mult_lo + lo * mult_hi
    return _add128(hi, lo * mult_lo, inc_hi, inc_lo)


def _seeded_first_draws(seed: int, words: np.ndarray) -> np.ndarray:
    """First ``random_raw()`` of ``default_rng([seed, h])`` for each row of hash words.

    ``words`` is an (n, 4) uint32 array holding each h as little-endian words.
    The seed words come first in the entropy, then the hash words without its
    high zero words, exactly as numpy assembles them; rows are grouped by how
    many significant words (1 to 4) their hash has, because that sets the
    entropy length.
    """
    nonzero = words != 0
    counts = np.where(nonzero.any(axis=1), 4 - np.argmax(nonzero[:, ::-1], axis=1), 1)
    raw = np.empty(words.shape[0], dtype=np.uint64)
    for count in range(1, 5):
        rows = counts == count
        size = np.count_nonzero(rows)
        if not size:
            continue
        entropy = [np.full(size, w, dtype=np.uint32) for w in _int_words(int(seed))]
        entropy += [words[rows, j] for j in range(count)]
        state_hi, state_lo, seq_hi, seq_lo = _generate_state(_mix_entropy(entropy))
        inc_hi, inc_lo = (seq_hi << 1) | (seq_lo >> 63), (seq_lo << 1) | 1
        hi, lo = _add128(inc_hi, inc_lo, state_hi, state_lo)
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        rot = hi >> 58
        xored = hi ^ lo
        raw[rows] = (xored >> rot) | (xored << ((64 - rot) & 63))
    return raw


_DRAW_BLOCK = 1 << 14  # rows per block of _first_draws: about 4 MB of temporaries, and faster than one pass


def _first_draws(seed: int, keys: np.ndarray) -> np.ndarray:
    """First ``random_raw()`` of each row's ``default_rng([seed, h])`` stream, h read from its id key.

    ``keys`` is an (n, 4) uint32 id-key column (``data.id_keys``). Works on
    blocks of ``_DRAW_BLOCK`` rows, so its memory does not grow with the
    batch; each row's draw depends only on that row's key.
    """
    raw = np.empty(len(keys), dtype=np.uint64)
    for start in range(0, len(keys), _DRAW_BLOCK):
        raw[start:start + _DRAW_BLOCK] = _seeded_first_draws(seed, keys[start:start + _DRAW_BLOCK])
    return raw


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
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise OracleError(f"oracle seed must be a non-negative integer, got {self.seed!r}")


class SyntheticOracle:
    """Scores derive from the instance's true label through a noisy channel.

    z is a pure function of (seed, id, label), independent of how instances
    are batched: each id owns the stream ``default_rng([seed, h])``, where h
    is the first 16 bytes of the id's sha256 read little-endian. h is not
    computed here: it is the dataset's id-key column (``data.id_keys``),
    hashed once where the ids entered and stored in a loaded file's sidecar,
    so scoring hashes no id. Binary mode emits the true label when the
    stream's first uniform is below q and its flip otherwise; it computes
    that uniform in vectorized passes (SeedSequence mixing, PCG64 seeding and
    one output step over uint32/uint64 columns) that equal the per-id
    ``default_rng`` draw bit for bit. The passes run over fixed-size blocks
    of ``_DRAW_BLOCK`` rows, so their temporaries stay a few MB however large
    the batch is. Soft mode emits clamp(y*q + (1-y)*(1-q) + Normal(0, noise),
    0, 1) and still builds each row's ``default_rng`` from its key, because
    numpy does not expose the ziggurat tables behind its normal draws. A row
    without a label gets a NaN score and is listed as failed.
    """

    def __init__(self, spec: SyntheticOracleSpec, cache: OracleCache | None = None):
        self.spec = spec
        self.cache = cache

    def _rng(self, key: np.ndarray):
        """The stream of the row whose id key is ``key``, one row of ``data.id_keys``."""
        h = int.from_bytes(key.astype("<u4").tobytes(), "little")
        return np.random.default_rng([self.spec.seed, h])

    def score_uncached(self, ds: LabeledDataset):
        y = ds.y  # a NaN label flows through to a NaN score
        failures = [(ds._ids[k], "no true label available") for k in np.flatnonzero(np.isnan(y)).tolist()]
        q = self.spec.accuracy
        if self.spec.mode == "binary":
            u = (_first_draws(self.spec.seed, ds._keys) >> 11) * 2.0**-53  # Generator.uniform()
            z = np.where(u < q, y, 1 - y)
        else:
            noise = np.array([self._rng(key).normal(0.0, self.spec.noise) for key in ds._keys])
            z = np.clip(y * q + (1 - y) * (1.0 - q) + noise, 0.0, 1.0)
        return z, failures


class CachedOracle:
    """Replays its cache and nothing else: every row the cache lacks fails."""

    def __init__(self, cache: OracleCache | None = None):
        self.cache = cache

    def score_uncached(self, ds: LabeledDataset):
        return np.full(ds.n, np.nan), [(i, "not in cache") for i in ds.ids()]


@dataclass(frozen=True)
class HttpOracleConfig:
    """Generic chat-completions-style scoring endpoint.

    The bearer token is read from the environment variable named by
    ``auth_env`` at request time (never stored); ``prompt_template`` is
    rendered per row with its {id} and {stratum} ("" for an untagged row),
    and any other placeholder is rejected here, before a row is scored.
    ``timeout`` must be > 0 and ``backoff`` >= 0, so neither the transport
    nor the sleep between attempts can reject them mid-batch.
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
        if urlsplit(self.url).scheme not in ("http", "https"):  # else a token could go out in clear text
            raise OracleError(f"url must start with http:// or https://, got {self.url!r}")
        if self.retries < 1:
            raise OracleError(f"retries must be >= 1, got {self.retries}")
        if self.max_concurrency < 1:
            raise OracleError(f"max_concurrency must be >= 1, got {self.max_concurrency}")
        if not self.timeout > 0:
            raise OracleError(f"timeout must be > 0, got {self.timeout}")
        if not self.backoff >= 0:
            raise OracleError(f"backoff must be >= 0, got {self.backoff}")
        unknown = sorted(set(_PLACEHOLDER_RE.findall(self.prompt_template)) - {"id", "stratum"})
        if unknown:
            raise OracleError("prompt_template may use only {id} and {stratum}, not "
                              + ", ".join(f"{{{key}}}" for key in unknown))


class _KeepAliveSession:
    """The default transport: one keep-alive ``http.client`` connection, for one pool task.

    Its ``post`` and ``close`` are an injected session's. An idle connection
    that the server dropped (seen by a zero-timeout selector) is reopened
    before the request, so no POST is ever sent twice. The proxy comes from
    the environment, as ``urllib.request`` reads it. Redirects are not
    followed. The body is asked for unencoded (``http.client`` sends
    ``Accept-Encoding: identity``) and decoded by its charset, UTF-8 by
    default. A protocol error (``http.client.HTTPException``) is raised as a
    ``ConnectionError``, so it is retried like any ``OSError``.
    """

    _route = _conn = None

    def _connect(self, url, timeout):
        """A connection to ``url``'s host or proxy, and the request target (the whole URL via an http proxy)."""
        import http.client
        from urllib.request import getproxies, proxy_bypass

        parts = urlsplit(url)
        parts = parts._replace(path=parts.path or "/", fragment="")
        proxy = None if proxy_bypass(parts.hostname) else getproxies().get(parts.scheme)
        via = urlsplit(proxy if "://" in proxy else "http://" + proxy) if proxy else parts
        tls = parts.scheme == "https"  # with http.client's default context, ssl.create_default_context()
        connection = http.client.HTTPSConnection if tls else http.client.HTTPConnection
        conn = connection(via.hostname, via.port, timeout=timeout)
        if proxy and tls:
            conn.set_tunnel(parts.hostname, parts.port)  # CONNECT, then TLS to the endpoint itself
        return conn, parts.geturl() if proxy and not tls else parts._replace(scheme="", netloc="").geturl()

    def post(self, url, json, headers, timeout):
        if (url, timeout) != self._route:
            self.close()
            (self._conn, self._target), self._route = self._connect(url, timeout), (url, timeout)
        conn = self._conn
        if conn.sock is not None:  # a selector, as select(2) refuses a descriptor above 1023
            with selectors.DefaultSelector() as idle:
                idle.register(conn.sock, selectors.EVENT_READ)
                if idle.select(0):  # dropped (or sent unasked bytes) while idle: the request reconnects
                    conn.close()
        try:
            conn.request("POST", self._target, dumps(json).encode("utf-8"), headers)
            response = conn.getresponse()
            body = response.read()
        except BaseException as exc:  # the connection's state is unknown: the next request reconnects
            conn.close()
            from http.client import HTTPException

            if isinstance(exc, HTTPException):
                raise ConnectionError(f"{type(exc).__name__}: {exc}") from exc
            raise
        text = body.decode(response.headers.get_content_charset("utf-8"), "replace")
        return SimpleNamespace(status_code=response.status, text=text)

    def close(self):
        if self._conn is not None:
            self._conn.close()


# retried: a non-200 status, an unreadable body, and a network, TLS or protocol error
_RETRYABLE = (OracleError, ScoreParseError, OSError)


class HttpOracle:
    """POSTs {"model", "prompt"} per row and parses the response body.

    Each row is attempted up to ``retries`` times with exponential backoff
    while its attempts raise one of ``_RETRYABLE``; rows still failing are
    reported, not silently dropped. Any other exception fails its own row as
    ``"<Type>: <message>"`` and halts the batch: no further row is handed out
    and the rest fail as "not attempted", so the scores already paid for
    still reach the cache. A batch runs as at most ``max_concurrency`` pool
    tasks, each pulling row indices from one shared iterator, and the scores
    come back in the batch's row order, whatever order the responses arrive
    in. ``session`` only needs a ``post`` method, which keeps the transport
    injectable; an injected session is shared by the tasks, so it must be
    thread-safe. Without one, each task opens its own ``_KeepAliveSession``
    and closes it when it ends, and an ``OSError`` from that close is only a
    warning. The thread pool and ``http.client`` load when a batch is scored.
    """

    def __init__(self, config: HttpOracleConfig, cache: OracleCache | None = None,
                 session=None, keywords=DEFAULT_KEYWORDS):
        self.config = config
        self.cache = cache
        self.session = session
        self.keywords = keywords

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

    def _score_once(self, session, fields, headers) -> float:
        prompt = render_prompt(self.config.prompt_template, fields)
        response = session.post(
            self.config.url,
            json={"model": self.config.model, "prompt": prompt},
            headers=headers,
            timeout=self.config.timeout,
        )
        status = getattr(response, "status_code", 200)
        if status != 200:
            raise OracleError(f"endpoint returned HTTP {status}")
        return parse_score(response.text, self.keywords)

    def _score_with_retries(self, session, fields, headers):
        """(score, None) on success, (NaN, last error) once every attempt failed."""
        last = None
        for attempt in range(self.config.retries):
            try:
                return self._score_once(session, fields, headers), None
            except _RETRYABLE as exc:
                last = str(exc)
                if attempt + 1 < self.config.retries:
                    time.sleep(self.config.backoff * 2.0**attempt)
        return np.nan, last

    def score_uncached(self, ds: LabeledDataset):
        from concurrent.futures import ThreadPoolExecutor

        headers = self._headers()
        ids, strata = ds.ids(), ds.strata.tolist()
        scores, errors = np.full(ds.n, np.nan), [None] * ds.n
        rows, lock, halt = iter(range(ds.n)), threading.Lock(), threading.Event()

        def next_row():
            with lock:
                return None if halt.is_set() else next(rows, None)

        def task():
            session = self.session if self.session is not None else _KeepAliveSession()
            try:
                while (k := next_row()) is not None:
                    fields = {"id": ids[k], "stratum": strata[k] or ""}
                    try:
                        scores[k], errors[k] = self._score_with_retries(session, fields, headers)
                    except Exception as exc:  # not retryable: fail this row, hand out no more
                        errors[k] = f"{type(exc).__name__}: {exc}"
                        halt.set()
            finally:
                if session is not self.session:
                    try:
                        session.close()
                    except OSError as exc:  # every row is already scored or failed on its own
                        warnings.warn(f"closing an HTTP session failed: {exc}")

        with ThreadPoolExecutor(max_workers=self.config.max_concurrency) as pool:
            tasks = [pool.submit(task) for _ in range(min(self.config.max_concurrency, ds.n))]
        for done in tasks:
            done.result()  # re-raise what a task did not catch
        for k in rows:  # left in the iterator only when the batch was halted
            errors[k] = "not attempted"
        return scores, [(i, error) for i, error in zip(ids, errors) if error is not None]


# ---------------------------------------------------------------------------
# batch entry point
# ---------------------------------------------------------------------------


def score_batch(provider, batch, *, column=False):
    """Score the rows of a LabeledDataset; any other batch raises OracleError.

    Returns (id, z) pairs sorted by id, or with ``column=True`` a float array
    of the scores aligned with the dataset's rows. The provider's cache (when
    it has one) is looked up by id first; only the misses go to
    ``provider.score_uncached``, as a dataset of those rows in id order. It
    holds their ids, strata, labels and scores but zero feature columns
    (``dim`` 0), so scoring never copies the batch's feature matrix.
    Every in-range score it returns is appended to the cache before anything
    can raise, so paid-for results are kept. If any row failed after the
    provider's retry policy, or came back NaN or out of range without being
    listed as failed, the batch then raises OracleError listing those rows,
    so partial results never leak into downstream artifacts.
    """
    if not isinstance(batch, LabeledDataset):
        raise OracleError(f"score_batch takes a LabeledDataset, got {type(batch).__name__}")
    if not batch.n:
        raise OracleError("score_batch needs at least one instance")
    ids = batch.ids()
    cache = provider.cache
    if cache is not None:  # NaN marks a miss: a cached score is always in [0, 1]
        z = np.fromiter(map(cache.get, ids, repeat(np.nan)), float, len(ids))
    else:
        z = np.full(len(ids), np.nan)
    misses = sorted(np.flatnonzero(np.isnan(z)).tolist(), key=ids.__getitem__)

    if misses:
        fetched, failures = provider.score_uncached(batch.without_features().take(misses))
        fetched = np.asarray(fetched, dtype=float)
        if fetched.shape != (len(misses),):
            raise OracleError(f"provider returned a score column of shape {fetched.shape}, "
                              f"expected ({len(misses)},)")
        ok = (fetched >= 0) & (fetched <= 1)  # False for NaN
        if cache is not None:
            cache.update(dict(zip(map(ids.__getitem__, compress(misses, ok)), fetched[ok].tolist())))
        if failures:
            shown = "; ".join(f"{i}: {msg}" for i, msg in failures[:3])
            raise OracleError(
                f"oracle failed on {len(failures)} instance(s): {shown}", failures=failures
            )
        if not ok.all():
            bad = [(ids[misses[k]], float(fetched[k])) for k in np.flatnonzero(~ok).tolist()]
            raise OracleError(
                f"provider returned out-of-range score {bad[0][1]} for id {bad[0][0]!r}",
                failures=tuple((i, f"score {s} outside [0, 1]") for i, s in bad),
            )
        z[misses] = fetched

    if column:
        return z
    order = sorted(range(len(ids)), key=ids.__getitem__)
    return list(zip(map(ids.__getitem__, order), z[order].tolist()))


def attach_scores(ds: LabeledDataset, provider) -> LabeledDataset:
    """``ds`` with every row's oracle score from ``score_batch``."""
    return ds.with_oracle_scores(score_batch(provider, ds, column=True))
