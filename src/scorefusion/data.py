"""Datasets of feature vectors with optional oracle scores and binary labels.

A dataset is a set of aligned columns with one entry per row: a string id, a
dense feature vector (a row of the read-only (n, d) matrix ``X``), an oracle
score ``z`` in [0, 1] (an external judge's estimate of the label), a binary
label ``y``, and a stratum tag (a discrete category used by the
transfer-learning utilities). ``z`` and ``y`` are float columns in which NaN
means "absent"; no way in accepts NaN as a value, so it cannot clash with a
real one. Strata are stored as an int code per row indexing a tuple of tags,
with -1 for an untagged row (stratum None). Each row also holds its id key
h, the first 16 bytes of the sha256 of the id's UTF-8 text (``id_keys``),
computed once where the ids enter and carried by every operation, so that
the synthetic judge never hashes an id. Splits, subsets, folds and stratum
groups are index operations on the columns, and a fold assignment is itself
an int column aligned with the rows. Datasets are immutable after
construction; every randomized operation takes an explicit seed and uses
numpy's PCG64 generator, so results are reproducible across runs and
platforms.

Columns are the only way in: ``Instance`` is a read-only row view that
iteration builds, and nothing takes one as input. ``from_arrays`` and both
file parsers end in one checked builder. It applies each rule to every row
before the next, in this order, and names the first row that breaks one:
finite features; z a number in [0, 1]; y a number in {0, 1}; a stratum that
is a string or None; ids and strata that are UTF-8 text; unique ids.

A dataset file is parsed once. ``load_dataset`` stores the columns it parsed,
id keys included, in a hidden sidecar next to the file
(``.data.csv.sfcache.npz`` for ``data.csv``), keyed by the sha256 of a
format version, the format and the file's bytes. A later load hashes the
file again and reads the sidecar instead of parsing when the keys match; an
edited file, a changed format or a missing, stale or unreadable sidecar
costs a parse and a rewrite. The sidecar is a plain ``np.savez`` archive
read with ``allow_pickle=False``, so it never holds pickles, and deleting it
is always safe.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import re
from array import array
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from itertools import count, islice
from pathlib import Path

import numpy as np


class DatasetError(ValueError):
    """Raised for schema violations, malformed rows, or invalid parameters."""


class _NoRows(DatasetError):
    """A dataset file holds no data rows: it is empty, or holds a header alone."""


@dataclass(frozen=True, eq=False)
class Instance:
    """Read-only view of one dataset row, as ``LabeledDataset.row`` and iteration give it.

    ``oracle_score``, ``label`` and ``stratum`` are None where the row has none.
    Views compare and hash by identity, as ``features`` is an array.
    """

    id: str
    features: np.ndarray
    oracle_score: float | None
    label: int | None
    stratum: str | None


def _objects(values: list) -> np.ndarray:
    """1-d object array of ``values``, even when the values are themselves sequences."""
    return np.fromiter(values, dtype=object, count=len(values))


def _stratum_codes(strata) -> tuple:
    """(int code per row, -1 where the stratum is None; the distinct tags in first-seen order)."""
    tags = tuple(tag for tag in dict.fromkeys(strata) if tag is not None)
    code_of = {tag: k for k, tag in enumerate(tags)}
    code_of[None] = -1
    return np.fromiter(map(code_of.__getitem__, strata), np.intp, len(strata)), tags


_KEY_BLOCK = 1 << 14  # ids per block of id_keys, so the joined digests stay about 0.5 MB


def id_keys(ids) -> np.ndarray:
    """The (n, 4) uint32 key column of ``ids``: row k holds h, the first 16 bytes
    of the sha256 of ``ids[k]`` encoded as UTF-8, as four little-endian words.

    An id that UTF-8 cannot encode (a lone surrogate) raises ``UnicodeEncodeError``.
    """
    keys = np.empty((len(ids), 4), dtype=np.uint32)
    for start in range(0, len(ids), _KEY_BLOCK):
        block = ids[start:start + _KEY_BLOCK]
        digests = b"".join([hashlib.sha256(i.encode()).digest() for i in block])  # no per-id slice
        keys[start:start + len(block)] = np.frombuffer(digests, dtype="<u4").reshape(-1, 8)[:, :4]
    return keys


_SURROGATE = re.compile(r"[\ud800-\udfff]")  # the only code points UTF-8 cannot encode


def _text_keys(ids, strata, where) -> np.ndarray:
    """``id_keys(ids)``, once every id and stratum is known to be UTF-8 text.

    The first row k whose id or stratum holds a lone surrogate (a JSON
    ``\\ud800`` escape or a Python string can) raises ``DatasetError`` naming
    ``where(k)``. None strata are untagged rows.
    """
    try:
        for tag in set(strata) - {None}:
            tag.encode()
        return id_keys(ids)
    except UnicodeEncodeError:
        k, what, text = next((k, what, text) for k, row in enumerate(zip(ids, strata))
                             for what, text in zip(("id", "stratum"), row)
                             if text is not None and _SURROGATE.search(text))
        raise DatasetError(f"{where(k)}: {what} {text!r} is not UTF-8 text") from None


def _check_unique(ids, where=None) -> None:
    """Raise ``DatasetError`` at the first repeated id, naming ``where(k)`` of its row k when given."""
    if len(set(ids)) != len(ids):
        seen = set()
        for k, i in enumerate(ids):
            if i in seen:
                raise DatasetError(f"{where(k) + ': ' if where else ''}duplicate instance id {i!r}")
            seen.add(i)


class LabeledDataset:
    """Immutable ordered rows sharing one feature dimension, stored as aligned columns.

    ``X`` is the read-only (n, d) feature matrix; ``z`` and ``y`` are read-only
    float columns with NaN where a row has no oracle score or label; ``strata``
    is an object column with None for untagged rows, built from the stored
    stratum codes on each access; ``ids()`` lists the row ids, which are
    unique, and the read-only ``_keys`` holds ``id_keys`` of them. Iteration
    gives ``Instance`` row views, built as they are reached.

    The constructor takes the columns as they are stored and checks nothing:
    an object column of unique ids, their (n, 4) uint32 keys, X, z in [0, 1]
    or NaN, y in {0, 1} or NaN, and an int stratum code per row in
    [-1, len(tags)) indexing the tuple of tags. Outside input goes through
    ``from_arrays``, ``load_dataset`` or ``synthesize``.
    """

    _COLUMNS = ("_ids", "_keys", "X", "z", "y", "_codes")  # aligned columns, in constructor order
    __slots__ = ("dim", "_tags", *_COLUMNS)

    def __init__(self, ids, keys, X, z, y, codes, tags):
        for name, column in zip(self._COLUMNS, (ids, keys, X, z, y, codes)):
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        object.__setattr__(self, "_tags", tags)
        object.__setattr__(self, "dim", X.shape[1])

    def _replace(self, **new) -> "LabeledDataset":
        """A dataset of these columns and tags, with the ones named in ``new`` replaced."""
        return LabeledDataset(*(new.get(c, getattr(self, c)) for c in (*self._COLUMNS, "_tags")))

    def __setattr__(self, name, value):
        raise AttributeError(f"LabeledDataset is immutable; cannot set {name!r}")

    @classmethod
    def from_arrays(cls, X, y=None, z=None, strata=None, ids=None, prefix="r"):
        """Build a dataset from parallel arrays; omitted annotations stay absent.

        ``X`` is copied into C order. A None (or ``""``) entry of ``y`` or
        ``z`` leaves that row's label or score absent, and a None stratum
        leaves the row untagged. A column whose length is not X's row count
        raises ``DatasetError``, and so does, naming the row by its id and in
        this order of checks: a non-finite feature, a score outside [0, 1], a
        label other than 0 or 1, an id or stratum that is not UTF-8 text (a
        lone surrogate), a repeated id.
        """
        X = np.array(X, dtype=float, order="C")
        if X.ndim != 2:
            raise DatasetError(f"feature matrix must be 2-d, got shape {X.shape}")
        n = X.shape[0]
        if ids is None:
            width = max(6, len(str(max(n - 1, 0))))
            ids = [f"{prefix}{i:0{width}d}" for i in range(n)]
        ids = [str(i) for i in ids]
        strata = [None] * n if strata is None else [None if s is None else str(s) for s in strata]
        cells = {name: _objects(list(v)) for name, v in (("z", z), ("y", y)) if v is not None}
        if not len(ids) == len(strata) == n or any(len(v) != n for v in cells.values()):
            raise DatasetError(f"ids, z, y and strata must each have one entry per row of X (n={n})")
        return _checked(X, cells, ids, strata, lambda k: f"instance {ids[k]!r}")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    def __len__(self) -> int:
        return self.X.shape[0]

    def __iter__(self):
        return map(self.row, range(self.n))

    def row(self, k: int) -> Instance:
        """View of row k as an ``Instance``."""
        z, y, code = self.z[k], self.y[k], self._codes[k]
        return Instance(
            self._ids[k], self.X[k], None if z != z else float(z),
            None if y != y else int(y), None if code < 0 else self._tags[code],
        )

    @property
    def instances(self) -> "LabeledDataset":
        """The dataset itself: the sequence of its rows, with ``len`` and ``Instance`` views on iteration."""
        return self

    def ids(self) -> list[str]:
        return self._ids.tolist()

    @property
    def strata(self) -> np.ndarray:
        """Object column of stratum tags, None for untagged rows (built on each access)."""
        return _objects([*self._tags, None])[self._codes]

    def feature_matrix(self) -> np.ndarray:
        """The read-only (n, d) feature matrix."""
        return self.X

    @property
    def has_labels(self) -> bool:
        return not np.isnan(self.y).any()

    @property
    def has_oracle_scores(self) -> bool:
        return not np.isnan(self.z).any()

    def _present(self, column, what) -> np.ndarray:
        missing = np.isnan(column)
        if missing.any():
            raise DatasetError(
                f"missing {what} for {int(missing.sum())} instance(s), "
                f"e.g. {self._ids[missing.argmax()]!r}"
            )
        return column

    def labels(self) -> np.ndarray:
        """The read-only label column; raises if any row has no label."""
        return self._present(self.y, "labels")

    def oracle_scores(self) -> np.ndarray:
        """The read-only oracle-score column; raises if any row has no score."""
        return self._present(self.z, "oracle scores")

    def take(self, rows) -> "LabeledDataset":
        """Rows picked by a bool mask or by distinct integer indices, in that order.

        ``rows`` is either a 1-d bool mask of length n or a 1-d sequence of
        distinct integer indices in [0, n); an empty sequence picks no rows.
        Anything else (floats, strings, a mask of another length, a scalar or
        a 2-d array) raises ``DatasetError``. A mask becomes one index array,
        and each column is gathered once by it. Rows are not re-validated:
        distinct rows of a valid dataset form one.
        """
        rows = np.asarray(rows)
        if rows.ndim != 1:
            raise DatasetError(f"take needs a 1-d mask or index sequence, got shape {rows.shape}")
        if rows.dtype == bool:
            if rows.size != self.n:
                raise DatasetError(f"take needs a bool mask of length {self.n}, got {rows.size}")
            rows = np.flatnonzero(rows)
        elif not rows.size:  # [] arrives as float64
            rows = rows.astype(np.intp)
        elif rows.dtype.kind not in "iu":
            raise DatasetError(f"take needs a bool mask or integer row indices, got dtype {rows.dtype}")
        else:
            rows = rows.astype(np.intp, copy=False)
            if rows.min() < 0 or rows.max() >= self.n:
                raise DatasetError(f"take needs row indices in [0, {self.n})")
            seen = np.zeros(self.n, dtype=bool)
            seen[rows] = True
            if np.count_nonzero(seen) != rows.size:
                raise DatasetError("take needs distinct row indices")
        return self._replace(**{c: getattr(self, c).take(rows, axis=0) for c in self._COLUMNS})

    def subset(self, ids) -> "LabeledDataset":
        """Dataset restricted to the given ids, keeping this dataset's order."""
        wanted = set(ids)
        own = self._ids.tolist()
        unknown = wanted - set(own)
        if unknown:
            raise DatasetError(f"unknown instance id(s): {sorted(unknown)[:3]}")
        return self.take(np.fromiter((i in wanted for i in own), bool, self.n))

    def filter(self, predicate) -> "LabeledDataset":
        """Rows whose ``Instance`` view satisfies ``predicate``."""
        return self.take(np.fromiter((bool(predicate(row)) for row in self), bool, self.n))

    def with_oracle_scores(self, scores) -> "LabeledDataset":
        """Copy with oracle scores attached from an id -> z mapping, or from a
        float array with one score per row in row order (it is copied)."""
        if isinstance(scores, np.ndarray):
            if scores.shape != (self.n,):
                raise DatasetError(
                    f"oracle score column has shape {scores.shape}, expected ({self.n},)"
                )
            z = scores.astype(float)
        else:
            try:
                z = np.fromiter(map(scores.__getitem__, self._ids.tolist()), float, self.n)
            except KeyError as exc:
                raise DatasetError(f"no oracle score provided for instance {exc.args[0]!r}") from None
        bad = ~((z >= 0) & (z <= 1))
        if bad.any():
            k = int(bad.argmax())
            raise DatasetError(f"instance {self._ids[k]!r}: oracle score {float(z[k])} outside [0, 1]")
        return self._replace(z=z)

    def without_labels(self) -> "LabeledDataset":
        return self._replace(y=np.full(self.n, np.nan))

    def without_features(self) -> "LabeledDataset":
        """The same rows with zero feature columns (``dim`` 0), so a ``take`` copies no features."""
        return self._replace(X=np.empty((self.n, 0)))

    def stratum_rows(self) -> dict:
        """Row indices of each stratum tag (None for untagged rows), tags in first-seen order."""
        order = np.argsort(self._codes, kind="stable")  # grouped by code, row order within
        groups = np.split(order, np.flatnonzero(np.diff(self._codes[order])) + 1) if self.n else []
        groups.sort(key=lambda rows: rows[0])
        tags = (*self._tags, None)  # code -1 (untagged) indexes None
        return {tags[self._codes[rows[0]]]: rows for rows in groups}

    def stratum_counts(self) -> dict:
        """Row count of each stratum tag (None for untagged rows), tags in first-seen order."""
        return {tag: len(rows) for tag, rows in self.stratum_rows().items()}

    def in_strata(self, tags) -> np.ndarray:
        """Bool mask of the rows whose stratum is one of ``tags``."""
        tags = tuple(tags)
        return np.array([tag in tags for tag in (*self._tags, None)], dtype=bool)[self._codes]

    def concat(self, other: "LabeledDataset") -> "LabeledDataset":
        if other.dim != self.dim:
            raise DatasetError(f"dimension mismatch: {self.dim} vs {other.dim}")
        appended = lambda k: f"row {k - self.n + 1} of the appended dataset"  # self's ids are unique
        _check_unique(self.ids() + other.ids(), appended)
        tags = self._tags + tuple(tag for tag in other._tags if tag not in self._tags)
        remap = np.array([tags.index(tag) for tag in other._tags] + [-1], dtype=np.intp)
        other = other._replace(_codes=remap[other._codes])
        joined = {c: np.concatenate([getattr(self, c), getattr(other, c)]) for c in self._COLUMNS}
        return self._replace(_tags=tags, **joined)


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a synthetic logistic-model dataset.

    Feature vectors are standard normal per coordinate, optionally shifted by
    a per-stratum mean vector; labels are Bernoulli draws from
    sigmoid(w . x + b) where ``true_weights`` lists w followed by the
    intercept b (length d + 1). ``strata`` entries are
    (tag, mean-shift vector, mixture weight) triples.
    """

    d: int
    n: int
    true_weights: tuple
    strata: tuple | None = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "true_weights", tuple(float(w) for w in self.true_weights))
        if not np.isfinite(self.true_weights).all():
            raise DatasetError(f"true_weights must be finite, got {list(self.true_weights)}")
        if self.d < 1 or self.n < 1:
            raise DatasetError("synthetic spec needs d >= 1 and n >= 1")
        if self.seed < 0:
            raise DatasetError(f"synthetic spec seed must be >= 0, got {self.seed}")
        if len(self.true_weights) != self.d + 1:
            raise DatasetError(
                f"true_weights must have length d+1={self.d + 1}, got {len(self.true_weights)}"
            )
        if self.strata is not None:
            strata = tuple(
                (str(tag), tuple(float(s) for s in shift), float(w))
                for tag, shift, w in self.strata
            )
            object.__setattr__(self, "strata", strata)
            weights = [w for _, _, w in strata]
            if not np.isfinite([*weights, *(s for _, shift, _ in strata for s in shift)]).all():
                raise DatasetError("stratum mean shifts and mixture weights must be finite")
            if any(w < 0 for w in weights):
                raise DatasetError("stratum mixture weights must be nonnegative")
            if abs(sum(weights) - 1.0) > 1e-9:
                raise DatasetError(f"stratum mixture weights sum to {sum(weights)}, expected 1")
            for tag, shift, _ in strata:
                if len(shift) != self.d:
                    raise DatasetError(f"stratum {tag!r} mean shift must have length d={self.d}")


# ---------------------------------------------------------------------------
# loading and saving
# ---------------------------------------------------------------------------

_FORMATS = ("csv", "jsonl")


def _infer_format(path, fmt):
    if fmt is not None:
        if fmt not in _FORMATS:
            raise DatasetError(f"unknown dataset format {fmt!r}; expected one of {_FORMATS}")
        return fmt
    suffix = Path(path).suffix.lower().lstrip(".")
    if suffix in _FORMATS:
        return suffix
    raise DatasetError(f"cannot infer format from {path!r}; pass format='csv' or 'jsonl'")


def load_dataset(path, format: str | None = None) -> LabeledDataset:
    """Read a dataset from CSV or JSONL.

    CSV schema: header ``id,f0,...,f{d-1}[,z][,y][,stratum]``. JSONL schema:
    one object per line with keys ``id`` and ``features`` plus optional ``z``,
    ``y``, ``stratum``. The feature dimension is inferred from the first row;
    every later row must match it, and it may be 0 (the header ``id[,z][,y][,stratum]``
    or ``"features": []``), as in an ``id,z`` score cache (``oracle.OracleCache``).
    Missing z/y columns or keys leave those fields absent, and so do empty z/y cells
    and JSONL nulls. A JSONL feature, z or y must be a JSON number: a string or a
    boolean there is malformed (an unreadable z or y, checked in z's or y's turn).

    CSV dialect: cells are separated by ``,`` and may be quoted with ``"``
    (a doubled ``""`` inside quotes is one quote), as ``csv.writer`` writes
    them. ``#`` has no special meaning: there are no comment lines. Blank lines
    are skipped but still counted in the row numbers of error messages.
    Whitespace around a number is ignored; id and stratum cells are kept as
    written. A path that cannot be read, bytes that are not UTF-8 and a
    malformed row raise ``DatasetError`` as the file is read. The parsed
    columns then go through the checks ``from_arrays`` applies, in its order,
    each naming the first row that breaks it: a NaN or infinite feature, z
    outside [0, 1], y other than 0 or 1, a JSONL stratum that is neither a
    string nor null, a JSONL id or stratum that is not UTF-8 text (a
    ``\\ud800`` escape, a lone surrogate), a repeated id.

    The file is parsed once. A successful parse writes its columns to the
    hidden sidecar ``.<name>.sfcache.npz`` in the file's directory, whole or
    not at all, as ``save_dataset`` writes (costs included); a write that
    fails is skipped, and so is one whose file changed while it was parsed.
    A file that ``save_dataset`` was writing when it was stopped holds its
    old rows, not a prefix of the new ones, so it never loads as a smaller
    dataset. Every load streams the file through sha256 together with a
    format version and the format, and reads the sidecar instead of parsing
    when it holds that key. The sidecar is an ``np.savez`` archive of
    numeric and UTF-8 byte arrays, read with ``allow_pickle=False``: it
    never holds pickles. Besides the parsed
    columns it stores the id keys (``id_keys``) as ``keys``, so a warm load
    hashes no id. Its columns go through the same checks a parse applies,
    vectorized, and ``keys`` must be an (n, 4) uint32 array; one that fails
    raises ``DatasetError`` naming the sidecar. Like ``X``, the keys are
    otherwise protected by the content key and the archive's CRCs. Editing or
    appending to the file invalidates the sidecar; a missing, stale,
    truncated or foreign sidecar (one from an older sidecar version too)
    costs a parse and a rewrite, so deleting it is always safe.

    The commands that fit on out-of-fold base scores keep those scores
    beside the file too, in ``.<name>.cv-<32 hex>.sfcache.npz`` memos keyed
    by the rows, folds, settings and code they come from (see
    ``harness.fit_inputs``); deleting them is safe as well.
    """
    fmt = _infer_format(path, format)
    path = Path(path)
    try:
        return _load_dataset(path, fmt)
    except FileNotFoundError:
        raise DatasetError(f"dataset file not found: {path}") from None
    except OSError as exc:
        raise DatasetError(f"cannot read dataset file {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: {exc}") from None


def _load_dataset(path: Path, fmt: str, where=None) -> LabeledDataset:
    """``load_dataset`` leaving an unreadable path as ``OSError`` and non-UTF-8 bytes as
    ``UnicodeDecodeError``. ``OracleCache`` calls it, so a wrapped ``load_dataset`` sees datasets
    only, and passes ``where``, the namer of a CSV parse's errors (see ``_load_csv``)."""
    sidecar = path.with_name(f".{path.name}.sfcache.npz")
    key, stamp = _file_key(path, fmt)
    ds = _read_sidecar(sidecar, path, key)
    if ds is None:
        ds = _load_csv(path, where=where) if fmt == "csv" else _load_jsonl(path)
        _write_sidecar(sidecar, path, key, stamp, ds)
    return ds


# ---------------------------------------------------------------------------
# the column sidecar of a dataset file
# ---------------------------------------------------------------------------

_SIDECAR_VERSION = b"scorefusion dataset sidecar 3"


def _stamp(st: os.stat_result) -> tuple:
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def _file_key(path: Path, fmt: str) -> tuple:
    """(sidecar key of the file, its ``_stamp`` when opened). The key is the
    sha256 of the sidecar version, the format and the file's bytes, streamed."""
    digest = hashlib.sha256(b"%s\0%s\0" % (_SIDECAR_VERSION, fmt.encode()))
    with open(path, "rb") as fh:
        stamp = _stamp(os.fstat(fh.fileno()))
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest(), stamp


def _pack(strings) -> np.ndarray:
    """``strings`` as one uint8 column: the UTF-8 bytes of a character none of
    them holds, then the strings joined by it; empty for no strings."""
    if not strings:
        return np.zeros(0, np.uint8)
    used = set("".join(strings))
    sep = next(c for c in map(chr, count()) if c not in used)
    return np.frombuffer((sep + sep.join(strings)).encode("utf-8", "surrogatepass"), np.uint8)


def _unpack(column: np.ndarray) -> list:
    text = column.tobytes().decode("utf-8", "surrogatepass")
    return text[1:].split(text[0]) if text else []


def _read_sidecar(sidecar: Path, source: Path, key: str):
    """The dataset stored in ``sidecar`` under ``key``, after the column checks a parse of
    ``source`` applies; None when the sidecar is missing, holds another key or cannot be read.
    Columns that fail a check raise ``DatasetError`` naming both files."""
    columns = _stored(sidecar, key, lambda stored: [_unpack(stored[c]) for c in ("ids", "tags")]
                      + [stored[c] for c in ("keys", "X", "z", "y", "codes")])
    if columns is None:
        return None
    ids, tags, keys, X, z, y, codes = columns
    n = len(ids)
    if not (n and X.ndim == 2 and X.shape[0] == n and X.flags.c_contiguous
            and keys.shape == (n, 4) and keys.dtype == np.uint32
            and all(c.shape == (n,) for c in (z, y, codes))
            and all(c.dtype == np.float64 for c in (X, z, y)) and codes.dtype == np.intp):
        what = "columns of unequal length or type"
    elif not np.isfinite(X).all():
        what = "a non-finite feature value"
    elif ((z < 0) | (z > 1)).any():
        what = "an oracle score outside [0, 1]"
    elif not ((y == 0) | (y == 1) | np.isnan(y)).all():
        what = "a label other than 0 or 1"
    elif len(set(ids)) != n:
        what = "a repeated id"
    elif len(set(tags)) != len(tags) or not ((codes >= -1) & (codes < len(tags))).all():
        what = "a stratum code out of range"
    else:
        return LabeledDataset(_objects(ids), keys, X, z, y, codes, tuple(tags))
    raise DatasetError(f"{sidecar} holds {what}; delete it to reparse {source}")


def _write_sidecar(sidecar: Path, source: Path, key: str, stamp: tuple, ds: LabeledDataset) -> None:
    """Store the columns of ``ds``, parsed from ``source``, in ``sidecar`` under ``key``, through
    ``_write_whole``. Skipped when ``source`` no longer has ``stamp`` or the write fails."""
    with suppress(OSError):
        if _stamp(os.stat(source)) == stamp:
            _store(sidecar, key, ids=_pack(ds._ids.tolist()), keys=ds._keys, X=ds.X, z=ds.z, y=ds.y,
                   codes=ds._codes, tags=_pack(ds._tags))


def _stored(path: Path, key: str, read):
    """``read(archive)`` of the ``np.savez`` archive at ``path`` when it holds ``key``; None when it
    is missing, holds another key or cannot be read."""
    try:
        # np.load leaves a file it opened unclosed when the archive is damaged
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as archive:
            return read(archive) if archive["key"].item() == key else None
    except Exception:
        # np.load, zipfile and zlib reject a damaged or foreign archive with many exception
        # types, and whatever is wrong with a stored archive costs only the work it saves
        return None


def _store(path: Path, key: str, **arrays) -> None:
    """Write ``arrays`` and ``key`` to ``path`` as an ``np.savez`` archive through ``_write_whole``;
    a write that fails is skipped."""
    with suppress(OSError), _write_whole(path, "wb") as fh:
        np.savez(fh, key=np.array(key), **arrays)


@contextmanager
def _write_whole(path, mode: str, **text):
    """The file object through which ``path`` is written whole or not at all, for a ``with`` block.

    It is a new temporary file beside ``path``, opened as ``open(tmp, mode, **text)`` with the
    ``"w"`` of ``mode`` made ``"x"``, so the umask sets its permissions. ``os.replace`` moves it
    onto ``path`` when the block ends; anything raised before that, an interrupt too, removes it
    and is raised again.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, mode.replace("w", "x"), **text) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            tmp.unlink()
        raise


def _place(path, fmt: str, k: int) -> tuple:
    """(record, line) of row k loaded from the ``fmt`` file ``path``: the 1-based number of its
    record (a JSONL line or a CSV record after the header; blank ones count but never load) and
    the line it ends on as the csv reader counts lines (a quoted cell may hold line breaks)."""
    with open(path, newline="" if fmt == "csv" else None, encoding="utf-8") as fh:
        reader = csv.reader(fh) if fmt == "csv" else None
        records = islice(reader, 1, None) if reader else map(str.strip, fh)
        num = next(islice((num for num, record in enumerate(records, start=1) if record), k, None))
        return num, reader.line_num if reader else num


def _checked(X, cells: dict, ids: list, strata: list, where) -> LabeledDataset:
    """The dataset of a C-ordered X, the raw z and y ``cells`` and lists of ids and strata, where
    every way in ends. Each rule runs over all rows before the next, in the module docstring's
    order, and the first row k that breaks one raises ``DatasetError`` naming ``where(k)``."""
    z, y = _annotations(X, cells, where)
    try:  # JSON values other than strings and null are unhashable or not str
        tagged = all(isinstance(tag, str) for tag in set(strata) - {None})
    except TypeError:
        tagged = False
    if not tagged:
        k = next(k for k, tag in enumerate(strata) if not (tag is None or isinstance(tag, str)))
        raise DatasetError(f"{where(k)}: 'stratum' must be a string or null")
    keys = _text_keys(ids, strata, where)
    _check_unique(ids, where)
    return LabeledDataset(_objects(ids), keys, X, z, y, *_stratum_codes(strata))


def _annotations(X, cells: dict, where) -> tuple:
    """Float (z, y) columns for the rows of X from raw cells, after the checks every dataset builder applies.

    ``cells`` maps ``"z"`` and ``"y"`` to object columns in which ``""`` or
    None marks an absent value (NaN in the result); a name it lacks is a
    column absent from the input. The first row k with a non-finite feature,
    a z or y that ``float`` cannot read, a z outside [0, 1] or a y other than
    0 or 1 raises ``DatasetError`` naming ``where(k)``.
    """
    bad = ~np.isfinite(X).all(axis=1)
    if bad.any():
        raise DatasetError(f"{where(int(bad.argmax()))}: non-finite feature value")
    n = X.shape[0]
    columns = []
    for name, accept, rule in (
        ("z", lambda v: (v >= 0) & (v <= 1), "outside [0, 1]"),
        ("y", lambda v: (v == 0) | (v == 1), "not in {0, 1}"),
    ):
        if name not in cells:
            columns.append(np.full(n, np.nan))
            continue
        absent = (cells[name] == "") | np.equal(cells[name], None)
        values = np.where(absent, np.nan, cells[name])
        try:
            values = values.astype(float)
        except (TypeError, ValueError, OverflowError):
            k = next(k for k, value in enumerate(values) if not _reads_as_float(value))
            raise DatasetError(f"{where(k)}: bad {name} value {values[k]!r}") from None
        bad = ~absent & ~accept(values)
        if bad.any():
            k = int(bad.argmax())
            raise DatasetError(f"{where(k)}: {name}={values[k]} {rule}")
        columns.append(values)
    return tuple(columns)


def _reads_as_float(value) -> bool:
    try:
        float(value)
    except (TypeError, ValueError, OverflowError):
        return False
    return True


# np.loadtxt numbers the rows it loads, skipping blank lines: 1-based in a
# cell-count error and 0-based in a value error.
_LOADTXT_CELLS = re.compile(r"requires (\d+) columns but (\d+) were found at row (\d+)")
_LOADTXT_VALUE = re.compile(r"at row (\d+), column \d+\.$")


def _csv_error(path, exc: ValueError, where) -> DatasetError:
    """``DatasetError`` for an ``np.loadtxt`` error, naming ``where(k)`` of the row k it loaded."""
    message = str(exc)
    if match := _LOADTXT_CELLS.search(message):
        want, got, row = map(int, match.groups())
        return DatasetError(f"{where(row - 1)}: expected {want} cells, got {got}")
    if match := _LOADTXT_VALUE.search(message):
        return DatasetError(f"{where(int(match[1]))}: malformed feature value")
    return DatasetError(f"{path}: {message}")


def _load_csv(path, text=None, where=None) -> LabeledDataset:
    """The dataset of the CSV file ``path``, or of ``text`` (a prefix of its contents) when given.
    ``where(k)`` names loaded row k in errors, by default ``row N`` (see ``_place``)."""
    where = where or (lambda k: f"row {_place(path, 'csv', k)[0]}")
    with open(path, newline="", encoding="utf-8") if text is None else io.StringIO(text, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise _NoRows(f"empty CSV file: {path}") from None
        header = [h.strip() for h in header]
        if not header or header[0] != "id":
            raise DatasetError(f"CSV header must start with 'id', got {header[:1]}")
        d = 0
        while 1 + d < len(header) and header[1 + d] == f"f{d}":
            d += 1
        extras = header[1 + d :]
        if extras != [c for c in ("z", "y", "stratum") if c in extras]:  # unknown, repeated or out of order
            raise DatasetError(f"unexpected trailing CSV columns {extras}; "
                               "expected subset of [z, y, stratum] in order")
        if not any(reader):
            raise _NoRows(f"no data rows in {path}")
        fh.seek(0)
        dtype = [("id", object), ("f", float, (d,))] + [(name, object) for name in extras]
        try:
            table = np.loadtxt(
                fh, dtype=dtype, delimiter=",", quotechar='"', comments=None, skiprows=1, ndmin=1
            )
        except ValueError as exc:
            raise _csv_error(path, exc, where) from None
    cells = {name: table[name] for name in ("z", "y") if name in extras}
    strata = table["stratum"].tolist() if "stratum" in extras else [None] * len(table)
    strata = [s or None for s in strata]
    return _checked(np.ascontiguousarray(table["f"]), cells, table["id"].tolist(), strata, where)


_decode_json = json.JSONDecoder().raw_decode
_JSON_NUMBER_OR_NULL = {int, float, type(None)}


class _NotANumber:
    """A JSON z or y value other than a number or null: ``float`` cannot read it, so the
    checked builder reports it as unreadable at its place in the order of rules."""

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return repr(self.value)


def _load_jsonl(path) -> LabeledDataset:
    ids, features, zs, ys, strata = [], array("d"), [], [], []
    d = None
    with open(path, encoding="utf-8") as fh:
        for row_num, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj, end = _decode_json(line)
            except json.JSONDecodeError as exc:
                # worded as json.loads words a leading byte-order mark
                bom = line[0] == "\ufeff"
                message = "Unexpected UTF-8 BOM (decode using utf-8-sig)" if bom else exc.msg
                raise DatasetError(f"row {row_num}: invalid JSON ({message})") from None
            if end != len(line):
                raise DatasetError(f"row {row_num}: invalid JSON (Extra data)")
            if not isinstance(obj, dict) or "id" not in obj or "features" not in obj:
                raise DatasetError(f"row {row_num}: each line needs 'id' and 'features'")
            feats = obj["features"]
            if not isinstance(feats, list):
                raise DatasetError(f"row {row_num}: 'features' must be an array")
            if d is None:
                d = len(feats)
            elif len(feats) != d:
                raise DatasetError(
                    f"row {row_num}: dimension {len(feats)} inconsistent with first row ({d})"
                )
            try:  # an array of doubles takes JSON numbers (and booleans) only
                features.extend(feats)
            except (TypeError, OverflowError):
                raise DatasetError(f"row {row_num}: malformed feature value") from None
            # every false holds an "l", the cheapest letter to look for, and no number holds one
            if ("l" in line or "true" in line) and bool in map(type, feats):
                raise DatasetError(f"row {row_num}: malformed feature value")
            ids.append(str(obj["id"]))
            zs.append(obj.get("z"))
            ys.append(obj.get("y"))
            strata.append(obj.get("stratum"))
    if not ids:
        raise _NoRows(f"no data rows in {path}")
    cells = {}
    for name, values in (("z", zs), ("y", ys)):
        if not set(map(type, values)) <= _JSON_NUMBER_OR_NULL:  # a string or boolean is no number
            values = [v if type(v) in _JSON_NUMBER_OR_NULL else _NotANumber(v) for v in values]
        cells[name] = _objects(values)
    X = np.frombuffer(features, dtype=float).reshape(len(ids), d)
    return _checked(X, cells, ids, strata, lambda k: f"row {_place(path, 'jsonl', k)[0]}")


def save_dataset(ds: LabeledDataset, path, format: str | None = None) -> None:
    """Write a dataset in the CSV or JSONL schema accepted by ``load_dataset``.

    Optional columns are emitted when at least one instance carries the field;
    instances missing it get an empty cell (CSV) or no key (JSONL).

    The file appears whole or not at all, as does every file the package
    writes but the score cache's appends: the rows go to a temporary file
    ``<name>.<hex>.tmp`` beside ``path``, which ``os.replace`` moves onto it.
    A write that raises or is interrupted removes it and leaves ``path`` as
    it was; a SIGKILL leaves ``path`` as it was and the temporary file too.
    Costs: a replaced file takes the umask's mode, not its own; a symlink at
    ``path`` is replaced, not written through; nothing is fsynced.
    """
    fmt = _infer_format(path, format)
    path = Path(path)
    # absent z/y become None; each value is a Python float, whose str is its shortest round-trip text
    zs = [None if v != v else v for v in ds.z.tolist()]
    ys = [None if v != v else int(v) for v in ds.y.tolist()]
    strata = ds.strata.tolist()
    ids, xs = ds.ids(), ds.X.tolist()
    if fmt == "csv":
        tail = {name: col for name, col in (("z", zs), ("y", ys), ("stratum", strata))
                if any(v is not None for v in col)}
        with _write_whole(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)  # writes None as an empty cell
            writer.writerow(["id"] + [f"f{j}" for j in range(ds.dim)] + list(tail))
            writer.writerows([i, *x, *t] for i, x, *t in zip(ids, xs, *tail.values()))
    else:
        with _write_whole(path, "w", encoding="utf-8") as fh:
            for instance_id, x, z, y, stratum in zip(ids, xs, zs, ys, strata):
                obj = {"id": instance_id, "features": x}
                if z is not None:
                    obj["z"] = z
                if y is not None:
                    obj["y"] = y
                if stratum is not None:
                    obj["stratum"] = stratum
                fh.write(json.dumps(obj) + "\n")


class Artifact:
    """A fitted object stored as one JSON document whose ``"kind"`` names its class.

    A subclass sets the class attributes ``KIND`` and ``ERROR`` (its module's
    error class) and defines ``to_doc`` (every field but the kind) and the
    classmethod ``from_doc``. The file is the document with sorted keys,
    indented by two.
    """

    def to_json(self) -> str:
        return json.dumps({"kind": self.KIND, **self.to_doc()}, sort_keys=True, indent=2)

    def save(self, path) -> None:
        with _write_whole(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path):
        return load_artifact(path, cls)


_JSON_KINDS = {float: ((int, float), "numbers"), int: ((int,), "integers"),
               bool: ((bool,), "true or false")}


def json_field(doc: dict, name: str, kind: type, container: type | None = None):
    """``doc[name]`` when it is a JSON value of ``kind`` (float: a number, int: an integer, bool:
    true or false), or with ``container`` an array (list, nested to any depth) or object (dict)
    whose values are; else a ``TypeError`` naming the field. A boolean is never a number."""
    value = doc[name]
    types, what = _JSON_KINDS[kind]
    if container is not None and type(value) is not container:
        shape = "array" if container is list else "object"
        raise TypeError(f"{name} must be a JSON {shape}, got {value!r}")
    entries = [value] if container is None else list(value.values() if container is dict else value)
    while entries:
        entry = entries.pop()
        if container is list and type(entry) is list:
            entries.extend(entry)
        elif type(entry) not in types:
            raise TypeError(f"{name} must hold JSON {what}, got {entry!r}")
    return value


def load_artifact(path, *classes):
    """Read an artifact file and build it with whichever of ``classes`` has its kind.

    A path that cannot be read as UTF-8 text (missing, a directory, undecodable
    bytes), a file that is not JSON, one that holds another kind, one that
    lacks a field, or one whose field has the wrong type or value raises the
    first class's ``ERROR``, naming the path and the expected kind.
    """
    by_kind = {cls.KIND: cls for cls in classes}
    expected = " or ".join(repr(kind) for kind in by_kind)
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise classes[0].ERROR(f"cannot read {path} as an artifact of kind {expected}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise classes[0].ERROR(f"{path} is not a JSON artifact of kind {expected}: {exc}") from None
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind not in by_kind:
        raise classes[0].ERROR(f"{path} holds an artifact of kind {kind!r}, expected {expected}")
    try:
        return by_kind[kind].from_doc(doc)
    except KeyError as exc:
        raise classes[0].ERROR(f"{path}: the {kind!r} artifact lacks the field {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise classes[0].ERROR(f"{path}: the {kind!r} artifact holds a bad field: {exc}") from None


# ---------------------------------------------------------------------------
# splitting, folding and per-bin tables
# ---------------------------------------------------------------------------


def split(ds: LabeledDataset, test_fraction: float, seed: int):
    """Random disjoint (train, test) partition with round(n * test_fraction) test rows."""
    test = _test_rows(ds.n, test_fraction, seed)
    return ds.take(~test), ds.take(test)


def _test_rows(n: int, test_fraction: float, seed: int) -> np.ndarray:
    """Bool mask of the test rows that ``split`` deals from n rows."""
    if n < 2:
        raise DatasetError(f"cannot split a dataset with n={n}")
    if not 0.0 < test_fraction < 1.0:
        raise DatasetError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n_test = int(round(n * test_fraction))
    if n_test == 0 or n_test == n:
        raise DatasetError(f"split leaves an empty side: n={n}, test_fraction={test_fraction}")
    test = np.zeros(n, dtype=bool)
    test[np.random.default_rng(seed).permutation(n)[:n_test]] = True
    return test


def fold_index(n: int, k: int, seed: int) -> np.ndarray:
    """0-based fold of each of n rows: row perm[p] of a seeded permutation gets fold p % k."""
    fold = np.empty(n, dtype=np.intp)
    fold[np.random.default_rng(seed).permutation(n)] = np.arange(n) % k
    return fold


def make_folds(ds: LabeledDataset, k: int, seed: int) -> np.ndarray:
    """The read-only fold column of ``ds``: its rows dealt into k balanced folds
    (sizes differ by <= 1) as ``fold_index`` does."""
    if k < 2:
        raise DatasetError(f"fold count must be >= 2, got {k}")
    if k > ds.n:
        raise DatasetError(f"cannot make {k} folds from {ds.n} instances")
    fold = fold_index(ds.n, k, seed)
    fold.flags.writeable = False
    return fold


def cv_select(candidates, cv_loss, n: int, k: int, seed: int, error, what: str):
    """The candidate with the least ``cv_loss(candidate, fold, k)``, ties to the earliest.

    The n rows are dealt into k = min(k, n) folds by ``fold_index``; ``error``
    is raised, naming ``what``, when that leaves fewer than 2 folds.
    """
    k = min(k, n)
    if k < 2:
        raise error(f"{what} needs at least 2 samples for cross-validation")
    fold = fold_index(n, k, seed)
    return min(candidates, key=lambda candidate: cv_loss(candidate, fold, k))


def check_scores(*columns, error):
    """The columns as float arrays: score columns, then labels last.

    Raises ``error`` unless they are non-empty equal-length vectors, every
    score lies in [0, 1] (so none is NaN or infinite) and every label is 0 or 1.
    """
    *scores, labels = (np.asarray(v, dtype=float) for v in columns)
    shape = labels.shape
    if len(shape) != 1 or not shape[0] or any(s.shape != shape for s in scores):
        got = ", ".join(str(c.shape) for c in (*scores, labels))
        raise error(f"inputs must be non-empty equal-length vectors, got {got}")
    if not all(np.all((s >= 0) & (s <= 1)) for s in scores):
        raise error("scores must lie in [0, 1]")
    if np.any((labels != 0) & (labels != 1)):
        raise error("labels must be 0 or 1")
    return (*scores, labels)


def bin_sums(key, n_bins: int, columns, fold=None, k: int = 1) -> np.ndarray:
    """Row count and column sums per (fold, bin), shape (1 + len(columns), k, n_bins).

    These are the sufficient statistics every fusion and calibration fit reads,
    from one ``np.bincount`` pass per column over the bin key, offset by fold
    (``fold * n_bins + key``) when ``fold`` is given.
    """
    key = key if fold is None else fold * n_bins + key
    tables = [np.bincount(key, minlength=k * n_bins)]
    tables += [np.bincount(key, weights=c, minlength=k * n_bins) for c in columns]
    return np.array(tables, dtype=float).reshape(len(tables), k, n_bins)


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------


def sigmoid(t):
    """Numerically stable logistic function, elementwise.

    ``e = exp(-|t|)`` lies in [0, 1], so neither branch can overflow:
    1 / (1 + e) for t >= 0 and e / (1 + e) otherwise. ``minimum(t, -t)`` is
    -|t| except that a NaN keeps its own sign bit. The numerator is picked
    without a branch: ``maximum(e, t >= 0)`` is 1.0 where t >= 0 (e <= 1
    there) and e elsewhere, and a NaN ``t`` keeps ``e``'s own NaN.
    """
    t = np.asarray(t, dtype=float)
    e = np.exp(np.minimum(t, -t))
    out = np.maximum(e, t >= 0)
    out /= 1.0 + e
    return out if out.ndim else float(out)


def synthesize(spec: SyntheticSpec) -> LabeledDataset:
    """Draw a dataset from the configured logistic model, deterministically per seed."""
    rng = np.random.default_rng(spec.seed)
    n, d = spec.n, spec.d
    if spec.strata is not None:
        tags = [tag for tag, _, _ in spec.strata]
        shifts = np.array([shift for _, shift, _ in spec.strata])
        mix = np.array([w for _, _, w in spec.strata])
        assignment = rng.choice(len(tags), size=n, p=mix / mix.sum())
    else:
        tags, shifts, assignment = None, None, None

    X = rng.standard_normal((n, d))
    if assignment is not None:
        X = X + shifts[assignment]
    w = np.array(spec.true_weights[:d])
    b = spec.true_weights[d]
    p = sigmoid(X @ w + b)
    y = (rng.uniform(size=n) < p).astype(int)

    width = max(6, len(str(n - 1)))
    ids = _objects([f"syn{i:0{width}d}" for i in range(n)])
    if assignment is None:
        codes, distinct = np.full(n, -1, dtype=np.intp), ()
    else:  # strata that share a tag share its code
        distinct = tuple(dict.fromkeys(tags))
        codes = np.array([distinct.index(tag) for tag in tags], dtype=np.intp)[assignment]
    return LabeledDataset(ids, id_keys(ids), X, np.full(n, np.nan), y.astype(float), codes, distinct)
