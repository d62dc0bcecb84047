"""The id-key column: h, the first 16 bytes of each id's sha256, is computed
once where ids enter, carried by every dataset operation and stored in the
dataset sidecar, so a warm load followed by synthetic scoring hashes no id."""

import csv
from hashlib import sha256
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scorefusion import (
    LabeledDataset,
    SyntheticOracle,
    SyntheticOracleSpec,
    SyntheticSpec,
    data,
    load_dataset,
    save_dataset,
    score_batch,
    synthesize,
)

DATA = Path(__file__).parent / "data"

_ODD_IDS = ["", "ünïcødé", "日本語", "x" * 1000, "a,b\n", "\U0001f600", "nul\0", "q" * 55, "q" * 56]


def _reference_keys(ids):
    return np.array([np.frombuffer(sha256(i.encode("utf-8")).digest()[:16], dtype="<u4") for i in ids],
                    dtype=np.uint32).reshape(len(ids), 4)


def _assert_keys(ds):
    assert ds._keys.dtype == np.uint32 and ds._keys.shape == (ds.n, 4)
    assert not ds._keys.flags.writeable
    assert ds._keys.tobytes() == data.id_keys(ds.ids()).tobytes()


class TestIdKeys:
    @pytest.mark.parametrize("block", [1, 2, 5, 64])
    def test_every_block_size_gives_the_sha256_prefix(self, block, monkeypatch):
        ids = [f"r{k}" for k in range(23)] + _ODD_IDS
        monkeypatch.setattr(data, "_KEY_BLOCK", block)
        assert data.id_keys(ids).tobytes() == _reference_keys(ids).tobytes()

    def test_an_object_column_and_a_list_give_the_same_keys(self):
        ids = [f"b{k:06d}" for k in range(data._KEY_BLOCK + 7)]
        keys = data.id_keys(np.array(ids, dtype=object))
        assert keys.shape == (len(ids), 4) and keys.dtype == np.uint32
        assert keys.tobytes() == data.id_keys(ids).tobytes()
        assert keys[-40:].tobytes() == _reference_keys(ids[-40:]).tobytes()
        assert data.id_keys([]).shape == (0, 4)

    def test_a_lone_surrogate_cannot_be_hashed(self):
        with pytest.raises(UnicodeEncodeError):
            data.id_keys(["ok", "x\ud800"])

    def test_every_way_in_computes_the_keys(self, tmp_path):
        built = LabeledDataset.from_arrays(np.zeros((len(_ODD_IDS), 1)), ids=_ODD_IDS)
        _assert_keys(built)
        _assert_keys(synthesize(SyntheticSpec(d=2, n=30, true_weights=(1.0, -1.0, 0.5), seed=3)))
        for fmt in ("csv", "jsonl"):
            save_dataset(built, tmp_path / f"d.{fmt}")
            cold, warm = load_dataset(tmp_path / f"d.{fmt}"), load_dataset(tmp_path / f"d.{fmt}")
            _assert_keys(cold)
            _assert_keys(warm)


_OPERATIONS = ("take", "subset", "filter", "concat", "split", "scores", "score_map",
               "without_labels", "without_features")


class _Row(NamedTuple):
    id: str
    key: bytes
    x: tuple
    z: float | None
    y: float | None
    stratum: str | None


def _rows(ds):
    """The dataset's rows read back from its columns, None where z or y is NaN."""
    absent = lambda v: None if v != v else v
    return [_Row(i, k.tobytes(), tuple(x), absent(z), absent(y), s) for i, k, x, z, y, s in zip(
        ds._ids.tolist(), ds._keys, ds.X.tolist(), ds.z.tolist(), ds.y.tolist(), ds.strata.tolist())]


def _apply(ds, rows, operation, rng):
    """(``operation`` on the dataset, the rows it must hold, worked out row by row)."""
    if operation == "take":
        picked = rng.permutation(ds.n)[: rng.integers(0, ds.n + 1)]
        return ds.take(picked), [rows[k] for k in picked]
    if operation == "subset":
        wanted = {i for i in ds.ids() if rng.uniform() < 0.6}
        return ds.subset(wanted), [r for r in rows if r.id in wanted]
    if operation == "filter":
        return ds.filter(lambda row: row.label != 1), [r for r in rows if r.y != 1]
    if operation == "concat":
        mask = rng.uniform(size=ds.n) < 0.5
        rest = [r for r, m in zip(rows, mask) if not m]
        # rebuilt from its rows, so its tags are numbered in its own first-seen order
        other = LabeledDataset.from_arrays(
            np.array([r.x for r in rest]).reshape(len(rest), ds.dim), y=[r.y for r in rest],
            z=[r.z for r in rest], strata=[r.stratum for r in rest], ids=[r.id for r in rest])
        return ds.take(mask).concat(other), [r for r, m in zip(rows, mask) if m] + rest
    if operation == "split":
        if ds.n < 2:
            return ds, rows
        part = data.split(ds, 0.5, int(rng.integers(0, 100)))[int(rng.integers(0, 2))]
        kept = set(part.ids())
        return part, [r for r in rows if r.id in kept]
    if operation == "scores":
        z = rng.uniform(size=ds.n)
        return ds.with_oracle_scores(z), [r._replace(z=v) for r, v in zip(rows, z.tolist())]
    if operation == "score_map":
        return ds.with_oracle_scores({i: 0.25 for i in ds.ids()}), [r._replace(z=0.25) for r in rows]
    if operation == "without_labels":
        return ds.without_labels(), [r._replace(y=None) for r in rows]
    return ds.without_features(), [r._replace(x=()) for r in rows]


def _assert_columns(ds, rows):
    """The columns hold ``rows``, read-only with one entry per row; the codes index distinct tags."""
    assert _rows(ds) == rows
    for name in ds._COLUMNS:
        column = getattr(ds, name)
        assert len(column) == ds.n and not column.flags.writeable
    assert ds.dim == ds.X.shape[1] and ds._codes.dtype == np.intp
    assert len(set(ds._tags)) == len(ds._tags)
    assert ((ds._codes >= -1) & (ds._codes < len(ds._tags))).all()


@st.composite
def _datasets(draw):
    ids = draw(st.lists(st.text(max_size=6), min_size=1, max_size=14, unique=True))
    n = len(ids)
    labels = draw(st.lists(st.sampled_from([None, 0, 1]), min_size=n, max_size=n))
    scores = draw(st.lists(st.sampled_from([None, 0.0, 0.5, 1.0]), min_size=n, max_size=n))
    strata = draw(st.lists(st.sampled_from([None, "A", "B", "日"]), min_size=n, max_size=n))
    X = np.arange(2.0 * n).reshape(n, 2)
    return LabeledDataset.from_arrays(X, y=labels, z=scores, strata=strata, ids=ids)


class TestEveryOperationCarriesEveryColumn:
    @settings(max_examples=150, deadline=None, database=None)
    @given(_datasets(), st.lists(st.sampled_from(_OPERATIONS), max_size=6), st.integers(0, 2**32 - 1))
    def test_rows_keep_their_values_and_keys(self, ds, operations, seed):
        rng = np.random.default_rng(seed)
        rows = _rows(ds)
        _assert_keys(ds)
        _assert_columns(ds, rows)
        for operation in operations:
            ds, rows = _apply(ds, rows, operation, rng)
            _assert_keys(ds)
            _assert_columns(ds, rows)


class TestTheWarmPathHashesNothing:
    def test_a_warm_load_scores_the_pinned_values_without_hashing(self, tmp_path, monkeypatch):
        # tests/data/synthetic_oracle.csv pins scores at accuracy 0.7 for ten ids under five seeds
        with open(DATA / "synthetic_oracle.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        seeds = sorted({int(r["seed"]) for r in rows})
        paths = {}
        for seed in seeds:
            mine = [r for r in rows if int(r["seed"]) == seed]
            ds = LabeledDataset.from_arrays(np.ones((len(mine), 1)), y=[int(r["label"]) for r in mine],
                                            ids=[r["id"] for r in mine])
            paths[seed] = tmp_path / f"seed{seed}.jsonl"
            save_dataset(ds, paths[seed])
            load_dataset(paths[seed])  # the cold load writes the sidecar

        def no_hashing(ids):
            raise AssertionError("id_keys ran on the warm path")

        monkeypatch.setattr(data, "id_keys", no_hashing)
        for seed in seeds:
            warm = load_dataset(paths[seed])
            oracle = SyntheticOracle(SyntheticOracleSpec(accuracy=0.7, seed=seed))
            want = [float(r["z"]) for r in rows if int(r["seed"]) == seed]
            assert score_batch(oracle, warm, column=True).tolist() == want
            assert oracle.score_uncached(warm.take(np.arange(warm.n)[::-1]))[0].tolist() == want[::-1]
