"""Datasets of feature vectors with optional oracle scores and binary labels.

A dataset is a set of aligned columns with one entry per row: a string id, a
dense feature vector (a row of the read-only (n, d) matrix ``X``), an oracle
score ``z`` in [0, 1] (an external judge's estimate of the label), a binary
label ``y``, and a stratum tag (a discrete category used by the
transfer-learning utilities). ``z`` and ``y`` are float columns in which NaN
means "absent"; the loaders and ``from_arrays`` reject NaN as a value, so it
cannot clash with a real one. Strata are stored as an int code per row
indexing a tuple of tags, with -1 for an untagged row (stratum None). Splits,
subsets, folds and stratum groups are index operations on the columns, and a
fold assignment is itself an int column aligned with the rows. Columns are
the only way in: ``Instance`` is a read-only row view that iteration builds,
and nothing takes one as input. Datasets are immutable after construction;
every randomized operation takes an explicit seed and uses numpy's PCG64
generator, so results are reproducible across runs and platforms.
"""

from __future__ import annotations

import csv
import json
import re
from array import array
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np


class DatasetError(ValueError):
    """Raised for schema violations, malformed rows, or invalid parameters."""


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


def _check_unique(ids) -> None:
    if len(set(ids)) != len(ids):
        seen = set()
        for i in ids:
            if i in seen:
                raise DatasetError(f"duplicate instance id {i!r}")
            seen.add(i)


class LabeledDataset:
    """Immutable ordered rows sharing one feature dimension, stored as aligned columns.

    ``X`` is the read-only (n, d) feature matrix; ``z`` and ``y`` are read-only
    float columns with NaN where a row has no oracle score or label; ``strata``
    is an object column with None for untagged rows, built from the stored
    stratum codes on each access; ``ids()`` lists the row ids, which are
    unique. Iteration gives ``Instance`` row views, built as they are reached.

    The constructor takes the columns as they are stored and checks nothing:
    an object column of unique ids, X, z in [0, 1] or NaN, y in {0, 1} or
    NaN, and an int stratum code per row in [-1, len(tags)) indexing the
    tuple of tags. Outside input goes through ``from_arrays``,
    ``load_dataset`` or ``synthesize``.
    """

    __slots__ = ("dim", "X", "z", "y", "_codes", "_tags", "_ids")

    def __init__(self, ids, X, z, y, codes, tags):
        for name, column in (("_ids", ids), ("X", X), ("z", z), ("y", y), ("_codes", codes)):
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        object.__setattr__(self, "_tags", tags)
        object.__setattr__(self, "dim", X.shape[1])

    def __setattr__(self, name, value):
        raise AttributeError(f"LabeledDataset is immutable; cannot set {name!r}")

    @classmethod
    def from_arrays(cls, X, y=None, z=None, strata=None, ids=None, prefix="r"):
        """Build a dataset from parallel arrays; omitted annotations stay absent.

        ``X`` is copied into C order. A None (or ``""``) entry of ``y`` or
        ``z`` leaves that row's label or score absent, and a None stratum
        leaves the row untagged. A score outside [0, 1], a label other than
        0 or 1, a non-finite feature, a column whose length is not X's row
        count, or a repeated id raises ``DatasetError``.
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
        zs, ys = _annotations(X, cells, lambda k: f"instance {ids[k]!r}")
        _check_unique(ids)
        return cls(_objects(ids), X, zs, ys, *_stratum_codes(strata))

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
        """Rows picked by a bool mask or by distinct int indices in [0, n), in that order.

        Rows are not re-validated: distinct rows of a valid dataset form one.
        """
        rows = np.asarray(rows)
        if rows.dtype != bool:
            rows = rows.astype(np.intp)
            if rows.size and (rows.min() < 0 or rows.max() >= self.n):
                raise DatasetError(f"take needs row indices in [0, {self.n})")
            seen = np.zeros(self.n, dtype=bool)
            seen[rows] = True
            if np.count_nonzero(seen) != rows.size:
                raise DatasetError("take needs distinct row indices")
        return LabeledDataset(
            self._ids[rows], self.X[rows], self.z[rows], self.y[rows], self._codes[rows], self._tags
        )

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
        return LabeledDataset(self._ids, self.X, z, self.y, self._codes, self._tags)

    def without_labels(self) -> "LabeledDataset":
        return LabeledDataset(
            self._ids, self.X, self.z, np.full(self.n, np.nan), self._codes, self._tags
        )

    def _strata_present(self) -> tuple:
        """(shifted codes of the strata with rows, in first-seen order; row count per shifted code).

        A shifted code is the stored code + 1, so 0 is untagged and it indexes ``(None, *tags)``.
        """
        shifted = self._codes + 1
        counts = np.bincount(shifted, minlength=len(self._tags) + 1)
        first = np.full(counts.size, self.n)
        np.minimum.at(first, shifted, np.arange(self.n))
        present = np.flatnonzero(counts)
        return present[np.argsort(first[present])].tolist(), counts.tolist()

    def stratum_rows(self) -> dict:
        """Row indices of each stratum tag (None for untagged rows), tags in first-seen order."""
        present, counts = self._strata_present()
        order = np.argsort(self._codes, kind="stable")  # grouped by code, row order within
        ends = np.cumsum(counts).tolist()
        tags = (None, *self._tags)
        return {tags[c]: order[ends[c] - counts[c]:ends[c]] for c in present}

    def stratum_counts(self) -> dict:
        """Row count of each stratum tag (None for untagged rows), tags in first-seen order."""
        present, counts = self._strata_present()
        tags = (None, *self._tags)
        return {tags[c]: counts[c] for c in present}

    def in_strata(self, tags) -> np.ndarray:
        """Bool mask of the rows whose stratum is one of ``tags``."""
        tags = tuple(tags)
        return np.array([tag in tags for tag in (*self._tags, None)], dtype=bool)[self._codes]

    def concat(self, other: "LabeledDataset") -> "LabeledDataset":
        if other.dim != self.dim:
            raise DatasetError(f"dimension mismatch: {self.dim} vs {other.dim}")
        _check_unique(self.ids() + other.ids())
        tags = self._tags + tuple(tag for tag in other._tags if tag not in self._tags)
        remap = np.array([tags.index(tag) for tag in other._tags] + [-1], dtype=np.intp)
        return LabeledDataset(
            *(np.concatenate([getattr(self, name), getattr(other, name)])
              for name in ("_ids", "X", "z", "y")),
            np.concatenate([self._codes, remap[other._codes]]), tags,
        )


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
        if self.d < 1 or self.n < 1:
            raise DatasetError("synthetic spec needs d >= 1 and n >= 1")
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
    every later row must match it. Missing z/y columns or keys yield
    instances with those fields absent, and so do empty z/y cells.

    CSV dialect: cells are separated by ``,`` and may be quoted with ``"``
    (a doubled ``""`` inside quotes is one quote), as ``csv.writer`` writes
    them. ``#`` has no special meaning: there are no comment lines. Blank lines
    are skipped but still counted in the row numbers of error messages.
    Whitespace around a number is ignored; id and stratum cells are kept as
    written. Feature values must be finite in both formats: NaN or infinite
    features are rejected, and so are z outside [0, 1], y other than 0 or 1,
    a JSONL stratum that is neither a string nor null, and bytes that are not
    UTF-8.
    """
    fmt = _infer_format(path, format)
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"dataset file not found: {path}")
    try:
        return _load_csv(path) if fmt == "csv" else _load_jsonl(path)
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: {exc}") from None


def _row_number(records, k: int) -> int:
    """1-based number of the record loaded as row k; blank (falsy) records are counted but never loaded."""
    return next(islice((num for num, record in enumerate(records, start=1) if record), k, None))


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


def _csv_row_number(path, k: int) -> int:
    with open(path, newline="", encoding="utf-8") as fh:
        records = csv.reader(fh)
        next(records)
        return _row_number(records, k)


def _jsonl_row_number(path, k: int) -> int:
    with open(path, encoding="utf-8") as fh:
        return _row_number((line.strip() for line in fh), k)


# np.loadtxt numbers the rows it loads, skipping blank lines: 1-based in a
# cell-count error and 0-based in a value error.
_LOADTXT_CELLS = re.compile(r"requires (\d+) columns but (\d+) were found at row (\d+)")
_LOADTXT_VALUE = re.compile(r"at row (\d+), column \d+\.$")


def _csv_error(path, exc: ValueError) -> DatasetError:
    """``DatasetError`` for an ``np.loadtxt`` error, naming the row as the file numbers it."""
    message = str(exc)
    if match := _LOADTXT_CELLS.search(message):
        want, got, row = map(int, match.groups())
        return DatasetError(f"row {_csv_row_number(path, row - 1)}: expected {want} cells, got {got}")
    if match := _LOADTXT_VALUE.search(message):
        return DatasetError(f"row {_csv_row_number(path, int(match[1]))}: malformed feature value")
    return DatasetError(f"{path}: {message}")


def _load_csv(path) -> LabeledDataset:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"empty CSV file: {path}") from None
        header = [h.strip() for h in header]
        if not header or header[0] != "id":
            raise DatasetError(f"CSV header must start with 'id', got {header[:1]}")
        d = 0
        while 1 + d < len(header) and header[1 + d] == f"f{d}":
            d += 1
        if d == 0:
            raise DatasetError("CSV header has no feature columns f0..f{d-1}")
        extras = header[1 + d :]
        allowed = [c for c in ("z", "y", "stratum")]
        if [c for c in extras if c not in allowed] or extras != [
            c for c in allowed if c in extras
        ]:
            raise DatasetError(
                f"unexpected trailing CSV columns {extras}; expected subset of [z, y, stratum] in order"
            )
        if not any(reader):
            raise DatasetError(f"no data rows in {path}")
        fh.seek(0)
        dtype = [("id", object), ("f", float, (d,))] + [(name, object) for name in extras]
        try:
            table = np.loadtxt(
                fh, dtype=dtype, delimiter=",", quotechar='"', comments=None, skiprows=1, ndmin=1
            )
        except ValueError as exc:
            raise _csv_error(path, exc) from None
    X = np.ascontiguousarray(table["f"])
    cells = {name: table[name] for name in ("z", "y") if name in extras}
    z, y = _annotations(X, cells, lambda k: f"row {_csv_row_number(path, k)}")
    ids = table["id"].copy()
    _check_unique(ids.tolist())
    strata = table["stratum"].tolist() if "stratum" in extras else [None] * len(table)
    return LabeledDataset(ids, X, z, y, *_stratum_codes([s or None for s in strata]))


_decode_json = json.JSONDecoder().raw_decode


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
            try:
                features.extend(map(float, feats))
            except (TypeError, ValueError, OverflowError):
                raise DatasetError(f"row {row_num}: malformed feature value") from None
            ids.append(str(obj["id"]))
            zs.append(obj.get("z"))
            ys.append(obj.get("y"))
            strata.append(obj.get("stratum"))
    if not ids:
        raise DatasetError(f"no data rows in {path}")
    X = np.frombuffer(features, dtype=float).reshape(len(ids), d)
    cells = {"z": _objects(zs), "y": _objects(ys)}
    z, y = _annotations(X, cells, lambda k: f"row {_jsonl_row_number(path, k)}")
    try:  # JSON values other than strings and null are unhashable or not str
        tagged = all(isinstance(tag, str) for tag in set(strata) - {None})
    except TypeError:
        tagged = False
    if not tagged:
        k = next(k for k, tag in enumerate(strata) if not (tag is None or isinstance(tag, str)))
        raise DatasetError(f"row {_jsonl_row_number(path, k)}: 'stratum' must be a string or null")
    _check_unique(ids)
    return LabeledDataset(_objects(ids), X, z, y, *_stratum_codes(strata))


def save_dataset(ds: LabeledDataset, path, format: str | None = None) -> None:
    """Write a dataset in the CSV or JSONL schema accepted by ``load_dataset``.

    Optional columns are emitted when at least one instance carries the field;
    instances missing it get an empty cell (CSV) or no key (JSONL).
    """
    fmt = _infer_format(path, format)
    path = Path(path)
    # absent z/y become None; every value written is a Python float, so repr gives the shortest round-trip text
    zs = [None if v != v else v for v in ds.z.tolist()]
    ys = [None if v != v else int(v) for v in ds.y.tolist()]
    strata = ds.strata.tolist()
    rows = zip(ds.ids(), ds.X, zs, ys, strata)
    if fmt == "csv":
        has_z, has_y, has_stratum = (any(v is not None for v in col) for col in (zs, ys, strata))
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            header = ["id"] + [f"f{j}" for j in range(ds.dim)]
            header += ["z"] * has_z + ["y"] * has_y + ["stratum"] * has_stratum
            writer.writerow(header)
            for instance_id, x, z, y, stratum in rows:
                row = [instance_id] + [repr(v) for v in x.tolist()]
                if has_z:
                    row.append("" if z is None else repr(z))
                if has_y:
                    row.append("" if y is None else str(y))
                if has_stratum:
                    row.append(stratum or "")
                writer.writerow(row)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            for instance_id, x, z, y, stratum in rows:
                obj = {"id": instance_id, "features": x.tolist()}
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
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path):
        return load_artifact(path, cls)


def load_artifact(path, *classes):
    """Read an artifact file and build it with whichever of ``classes`` has its kind.

    A path that cannot be read as UTF-8 text (missing, a directory, undecodable
    bytes), a file that is not JSON, one that holds another kind, or one that
    lacks a field raises the first class's ``ERROR``, naming the path and the
    expected kind.
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


# ---------------------------------------------------------------------------
# splitting, folding and per-bin tables
# ---------------------------------------------------------------------------


def split(ds: LabeledDataset, test_fraction: float, seed: int):
    """Random disjoint (train, test) partition with round(n * test_fraction) test rows."""
    if ds.n < 2:
        raise DatasetError(f"cannot split a dataset with n={ds.n}")
    if not 0.0 < test_fraction < 1.0:
        raise DatasetError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n_test = int(round(ds.n * test_fraction))
    if n_test == 0 or n_test == ds.n:
        raise DatasetError(
            f"split leaves an empty side: n={ds.n}, test_fraction={test_fraction}"
        )
    test = np.zeros(ds.n, dtype=bool)
    test[np.random.default_rng(seed).permutation(ds.n)[:n_test]] = True
    return ds.take(~test), ds.take(test)


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
    return LabeledDataset(ids, X, np.full(n, np.nan), y.astype(float), codes, distinct)
