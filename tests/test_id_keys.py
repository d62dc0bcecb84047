"""The id-key column: h, the first 16 bytes of each id's sha256, is computed
once where ids enter, carried by every dataset operation and stored in the
dataset sidecar, so a warm load followed by synthetic scoring hashes no id."""

import csv
from hashlib import sha256
from pathlib import Path

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


def _apply(ds, operation, rng):
    if operation == "take":
        return ds.take(rng.permutation(ds.n)[: rng.integers(0, ds.n + 1)])
    if operation == "subset":
        return ds.subset([i for i in ds.ids() if rng.uniform() < 0.6])
    if operation == "filter":
        return ds.filter(lambda row: row.label != 1)
    if operation == "concat":
        mask = rng.uniform(size=ds.n) < 0.5
        return ds.take(mask).concat(ds.take(~mask))
    if operation == "split":
        if ds.n < 2:
            return ds
        return data.split(ds, 0.5, int(rng.integers(0, 100)))[int(rng.integers(0, 2))]
    if operation == "scores":
        return ds.with_oracle_scores(rng.uniform(size=ds.n))
    if operation == "score_map":
        return ds.with_oracle_scores({i: 0.25 for i in ds.ids()})
    if operation == "without_labels":
        return ds.without_labels()
    return ds.without_features()


@st.composite
def _datasets(draw):
    ids = draw(st.lists(st.text(max_size=6), min_size=1, max_size=14, unique=True))
    n = len(ids)
    labels = draw(st.lists(st.sampled_from([None, 0, 1]), min_size=n, max_size=n))
    strata = draw(st.lists(st.sampled_from([None, "A", "B", "日"]), min_size=n, max_size=n))
    X = np.arange(2.0 * n).reshape(n, 2)
    return LabeledDataset.from_arrays(X, y=labels, strata=strata, ids=ids)


class TestEveryOperationCarriesTheKeys:
    @settings(max_examples=150, deadline=None, database=None)
    @given(_datasets(), st.lists(st.sampled_from(_OPERATIONS), max_size=6), st.integers(0, 2**32 - 1))
    def test_keys_equal_the_hash_of_the_ids(self, ds, operations, seed):
        rng = np.random.default_rng(seed)
        _assert_keys(ds)
        for operation in operations:
            ds = _apply(ds, operation, rng)
            _assert_keys(ds)


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
