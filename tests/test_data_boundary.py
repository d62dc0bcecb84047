"""Stratum columns and the dataset file boundary: tag order, untagged rows,
concatenation, byte round trips, and the inputs loaders must reject."""

import numpy as np
import pytest

from scorefusion import DatasetError, LabeledDataset, load_dataset, save_dataset


def _tagged(strata, prefix="r", seed=0):
    """Dataset with one row per entry of ``strata`` (None leaves the row untagged)."""
    rng = np.random.default_rng(seed)
    X, z, y = zip(*((rng.standard_normal(2), rng.uniform(), int(rng.integers(0, 2))) for _ in strata))
    ids = [f"{prefix}{k}" for k in range(len(strata))]
    return LabeledDataset.from_arrays(X, y=y, z=z, strata=strata, ids=ids)


def _groups(ds):
    return {tag: rows.tolist() for tag, rows in ds.stratum_rows().items()}


class TestStratumColumns:
    def test_tags_follow_the_subset_not_the_parent(self):
        ds = _tagged(["A", "B", "C", "B", "A", "C"])
        subset = ds.take(np.array([1, 2, 4, 5]))
        assert list(subset.stratum_rows()) == ["B", "C", "A"]
        assert _groups(subset) == {"B": [0], "C": [1, 3], "A": [2]}
        assert list(subset.stratum_counts()) == ["B", "C", "A"]

    def test_untagged_rows_group_under_none(self):
        ds = _tagged([None, "A", None, "B"])
        assert _groups(ds) == {None: [0, 2], "A": [1], "B": [3]}
        assert ds.strata.tolist() == [None, "A", None, "B"]
        assert ds.in_strata(["A"]).tolist() == [False, True, False, False]
        assert ds.in_strata([None]).tolist() == [True, False, True, False]
        assert ds.stratum_counts() == {None: 2, "A": 1, "B": 1}
        assert [ds.row(k).stratum for k in range(ds.n)] == [None, "A", None, "B"]

    def test_concat_of_disjoint_tag_sets(self):
        left = _tagged(["A", None, "B"], prefix="a")
        right = _tagged(["C", "D", None, "C"], prefix="b", seed=1)
        both = left.concat(right)
        assert both.strata.tolist() == ["A", None, "B", "C", "D", None, "C"]
        assert _groups(both) == {"A": [0], None: [1, 5], "B": [2], "C": [3, 6], "D": [4]}
        assert both.in_strata(["B", "C"]).tolist() == [False, False, True, True, False, False, True]

    def test_concat_remaps_shared_tags(self):
        left = _tagged(["A", "B"], prefix="a")
        right = _tagged(["B", "A", "B"], prefix="b", seed=1)
        assert _groups(left.concat(right)) == {"A": [0, 3], "B": [1, 2, 4]}


def _reference_groups(ds):
    """The per-row loop: row indices per stratum, tags in first-seen order."""
    groups = {}
    for k, tag in enumerate(ds.strata.tolist()):
        groups.setdefault(tag, []).append(k)
    return groups


class TestStratumCodesMatchTheRowLoop:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_tags_through_take_and_concat(self, seed):
        rng = np.random.default_rng(seed)
        pick = rng.choice(["A", "B", "C", None], size=60, p=[0.4, 0.3, 0.2, 0.1]).tolist()
        left, right = _tagged(pick[:40], prefix="a", seed=seed), _tagged(pick[40:], prefix="b")
        both = left.concat(right)
        for ds in (left, right, both, both.take(rng.permutation(60)[:25])):
            expected = _reference_groups(ds)
            assert _groups(ds) == expected and list(_groups(ds)) == list(expected)
            assert ds.stratum_counts() == {tag: len(rows) for tag, rows in expected.items()}
            for tags in (["A"], ["B", "C"], [None], ["Z"]):
                assert ds.in_strata(tags).tolist() == [s in tags for s in ds.strata.tolist()]


class TestByteRoundTrip:
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_save_load_save_keeps_the_bytes(self, tmp_path, fmt):
        ds = _tagged(["s,1", None, "t", "s,1", None, "#"])
        first, second = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
        save_dataset(ds, first)
        back = load_dataset(first)
        save_dataset(back, second)
        assert first.read_bytes() == second.read_bytes()
        assert back.strata.tolist() == ["s,1", None, "t", "s,1", None, "#"]
        assert _groups(back) == _groups(ds)


class TestUndecodableBytes:
    def test_csv_bad_byte_in_the_first_buffer(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"id,f0\nr1,1\nx\xff,1\n")
        with pytest.raises(DatasetError, match="bad.csv"):
            load_dataset(path)

    def test_csv_bad_byte_far_into_the_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        body = b"".join(b"r%d,1\n" % k for k in range(5000))
        path.write_bytes(b"id,f0\n" + body + b"x\xff,1\n")
        with pytest.raises(DatasetError, match="bad.csv"):
            load_dataset(path)

    def test_jsonl_bad_byte_in_an_id(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"id": "a\xff", "features": [1.0]}\n')
        with pytest.raises(DatasetError, match="bad.jsonl"):
            load_dataset(path)


class TestJsonlStratumType:
    @pytest.mark.parametrize("value", ["1", "[1]", "true", '{"a": 1}', "1.5"])
    def test_non_string_stratum_is_rejected(self, tmp_path, value):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"id": "a", "features": [1.0], "stratum": "A"}\n\n'
            f'{{"id": "b", "features": [2.0], "stratum": {value}}}\n',
            encoding="utf-8",
        )
        with pytest.raises(DatasetError, match=r"^row 3: 'stratum' must be a string or null$"):
            load_dataset(path)

    def test_string_and_null_strata_load(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"id": "a", "features": [1.0], "stratum": "1"}\n'
            '{"id": "b", "features": [2.0], "stratum": null}\n'
            '{"id": "c", "features": [3.0]}\n',
            encoding="utf-8",
        )
        assert load_dataset(path).strata.tolist() == ["1", None, None]


class TestTakeIndices:
    @pytest.mark.parametrize("rows", [[2, -1], [-3], [0, 3]])
    def test_indices_outside_the_dataset_are_rejected(self, rows):
        ds = _tagged(["A", "B", "C"])
        with pytest.raises(DatasetError, match="take"):
            ds.take(rows)

    def test_empty_index_list_gives_an_empty_dataset(self):
        assert _tagged(["A", "B"]).take([]).n == 0
