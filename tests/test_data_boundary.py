"""Stratum columns and the dataset file boundary: tag order, untagged rows,
concatenation, byte round trips, and the inputs loaders must reject."""

import re

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


class TestTextThatIsNotUtf8:
    """A lone surrogate in an id or stratum is refused where it enters, naming its row;
    loaded, it broke synthetic scoring, CSV saving and cache writes later on."""

    @pytest.mark.parametrize("line, message", [
        ('{"id": "x\\ud800", "features": [2.0]}', "row 3: id 'x\\ud800' is not UTF-8 text"),
        ('{"id": "\\udc80", "features": [2.0], "stratum": "A"}', "row 3: id '\\udc80' is not UTF-8 text"),
        ('{"id": "b", "features": [2.0], "stratum": "B\\udfff"}', "row 3: stratum 'B\\udfff' is not UTF-8 text"),
    ], ids=["id", "id-lone-low-surrogate", "stratum"])
    def test_a_jsonl_escape_is_rejected_naming_the_row(self, tmp_path, line, message):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "a", "features": [1.0], "stratum": "A"}\n\n' + line + "\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
            load_dataset(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.jsonl"]

    def test_an_escaped_surrogate_pair_is_one_character_and_loads(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "\\ud83d\\ude00", "features": [1.0], "stratum": "\\ud83d\\ude00"}\n',
                        encoding="utf-8")
        ds = load_dataset(path)
        assert ds.ids() == ["\U0001f600"] and ds.strata.tolist() == ["\U0001f600"]

    def test_from_arrays_rejects_a_lone_surrogate(self):
        with pytest.raises(DatasetError, match=re.escape("instance 'b\\ud800': id 'b\\ud800' is not UTF-8 text")):
            LabeledDataset.from_arrays(np.zeros((2, 1)), ids=["a", "b\ud800"])
        with pytest.raises(DatasetError, match=re.escape("instance 'r1': stratum 'S\\udc00' is not UTF-8 text")):
            LabeledDataset.from_arrays(np.zeros((2, 1)), ids=["r0", "r1"], strata=[None, "S\udc00"])


class TestFailedLoadsWriteNoSidecar:
    # each bad file is loaded twice: both loads raise the same message, and
    # neither leaves anything next to the file
    @pytest.mark.parametrize("name, content, message", [
        ("d.csv", b"id,f0,y\nr1,0.5,1\nr2,0.5,7\n", "row 2: y=7.0 not in {0, 1}"),
        ("d.csv", b"id,f0,y\nr1,0.5,1\nr2,0.5\n", "row 2: expected 3 cells, got 2"),
        ("d.csv", b"id,f0,y\nr1,0.5,1\nr2,inf,0\n", "row 2: non-finite feature value"),
        ("d.csv", b"id,f0\nr1,0.5\nr1,1.5\n", "duplicate instance id 'r1'"),
        ("d.csv", b"id,f0\nr1,0.5\nx\xff,1\n", "can't decode byte 0xff"),
        ("d.jsonl", b'{"id": "a", "features": [1.0], "y": 1}\n{"id": "b", "features": [2.0], "y": 3}\n',
         "row 2: y=3.0 not in {0, 1}"),
        ("d.jsonl", b'{"id": "a", "features": [1.0, 2.0]}\n{"id": "b", "features": [2.0]}\n',
         "row 2: dimension 1 inconsistent with first row (2)"),
        ("d.jsonl", b'{"id": "a", "features": [1.0]}\n{"id": "b", "features": [NaN]}\n',
         "row 2: non-finite feature value"),
        ("d.jsonl", b'{"id": "a", "features": [1.0]}\n{"id": "a", "features": [2.0]}\n',
         "duplicate instance id 'a'"),
        ("d.jsonl", b'{"id": "a\xff", "features": [1.0]}\n', "can't decode byte 0xff"),
        ("d.jsonl", b'{"id": "a", "features": [1.0]}\n{"id": "a\\ud800", "features": [2.0]}\n',
         "row 2: id 'a\\ud800' is not UTF-8 text"),
    ], ids=["csv-label", "csv-short-row", "csv-non-finite", "csv-duplicate-id", "csv-undecodable",
            "jsonl-label", "jsonl-short-row", "jsonl-non-finite", "jsonl-duplicate-id", "jsonl-undecodable",
            "jsonl-lone-surrogate"])
    def test_the_same_error_twice_and_no_sidecar(self, tmp_path, name, content, message):
        path = tmp_path / name
        path.write_bytes(content)
        errors = []
        for _ in range(2):
            with pytest.raises(DatasetError) as info:
                load_dataset(path)
            errors.append(str(info.value))
        assert message in errors[0] and errors[1] == errors[0]
        assert sorted(p.name for p in tmp_path.iterdir()) == [name]


class TestUnreadablePaths:
    @pytest.mark.parametrize("name", ["x.csv", "x.jsonl"])
    def test_a_directory_is_a_dataset_error_naming_it(self, tmp_path, name):
        path = tmp_path / name
        path.mkdir()
        with pytest.raises(DatasetError, match=f"^cannot read dataset file {re.escape(str(path))}: "):
            load_dataset(path)

    def test_a_path_through_a_file_is_a_dataset_error_naming_it(self, tmp_path):
        (tmp_path / "file").write_text("id,f0\n", encoding="utf-8")
        path = tmp_path / "file" / "x.csv"
        with pytest.raises(DatasetError, match=f"^cannot read dataset file {re.escape(str(path))}: "):
            load_dataset(path)

    def test_a_missing_file_is_named(self, tmp_path):
        with pytest.raises(DatasetError, match="^dataset file not found: .*nope.csv$"):
            load_dataset(tmp_path / "nope.csv")


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

    @pytest.mark.parametrize("rows", [[0.7, 1.9], [1.0], ["1"], [b"0"], [None], np.array([1, 2], dtype=object)])
    def test_indices_that_are_not_integers_are_rejected(self, rows):
        # fancy indexing used to truncate [0.7, 1.9] to rows 0 and 1 and read "1" as row 1
        ds = _tagged(["A", "B", "C"])
        with pytest.raises(DatasetError, match="integer row indices"):
            ds.take(rows)

    @pytest.mark.parametrize("length", [0, 2, 4])
    def test_a_mask_of_another_length_is_rejected(self, length):
        ds = _tagged(["A", "B", "C"])
        with pytest.raises(DatasetError, match="mask of length 3"):
            ds.take(np.ones(length, dtype=bool))

    @pytest.mark.parametrize("rows", [np.intp(1), np.array([[0, 1]]), np.ones((3, 1), dtype=bool)])
    def test_a_scalar_or_2d_selection_is_rejected(self, rows):
        with pytest.raises(DatasetError, match="1-d"):
            _tagged(["A", "B", "C"]).take(rows)

    def test_empty_sequences_of_any_type_give_an_empty_dataset(self):
        ds = _tagged(["A", "B"])
        for rows in ([], (), np.array([], dtype=float), np.array([], dtype=np.uint8)):
            empty = ds.take(rows)
            assert empty.n == 0 and empty.X.shape == (0, 2)
        assert ds.take([]).take(np.zeros(0, dtype=bool)).n == 0


def _fancy_take(ds, rows):
    """The columns of ``ds.take(rows)`` by plain numpy fancy indexing, as it was gathered before."""
    rows = np.asarray(rows)
    if rows.dtype != bool:
        rows = rows.astype(np.intp)
    return ds._ids[rows], ds.X[rows], ds.z[rows], ds.y[rows], ds._codes[rows]


def _odd_dataset(n, seed):
    """Rows with ids holding NUL and line breaks, absent scores and labels, and untagged rows."""
    rng = np.random.default_rng(seed)
    ids = [f"r\0{k}" if k % 3 == 0 else f"r\n{k}\r\n" if k % 3 == 1 else f"r{k}" for k in range(n)]
    z = [None if k % 5 == 0 else rng.uniform() for k in range(n)]
    y = [None if k % 7 == 0 else int(rng.integers(0, 2)) for k in range(n)]
    strata = [None if k % 4 == 0 else "AB"[k % 2] for k in range(n)]
    return LabeledDataset.from_arrays(rng.standard_normal((n, 3)), y=y, z=z, strata=strata, ids=ids)


class TestTakeEqualsFancyIndexing:
    """One index array per gather gives every column's bits that fancy indexing gave."""

    def _assert_same_columns(self, ds, rows):
        taken = ds.take(rows)
        ids, X, z, y, codes = _fancy_take(ds, rows)
        assert taken.ids() == ids.tolist()
        assert taken.X.shape == X.shape and taken.X.tobytes() == X.tobytes()
        assert taken.X.flags.c_contiguous and not taken.X.flags.writeable
        for mine, theirs in ((taken.z, z), (taken.y, y), (taken._codes, codes)):
            assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()
        assert taken.strata.tolist() == [ds.strata[k] for k in np.arange(ds.n)[rows]]

    @pytest.mark.parametrize("seed", range(6))
    def test_random_masks(self, seed):
        ds = _odd_dataset(40, seed)
        rng = np.random.default_rng(100 + seed)
        for p in (0.0, 0.1, 0.5, 0.9, 1.0):
            self._assert_same_columns(ds, rng.uniform(size=ds.n) < p)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_indices(self, seed):
        ds = _odd_dataset(40, seed)
        rng = np.random.default_rng(200 + seed)
        for size in (0, 1, 17, 40):
            rows = rng.permutation(ds.n)[:size]
            self._assert_same_columns(ds, rows)
            self._assert_same_columns(ds, rows.tolist())
            self._assert_same_columns(ds, rows.astype(np.uint16))

    def test_empty_and_all_true_selections(self):
        ds = _odd_dataset(12, 0)
        self._assert_same_columns(ds, np.zeros(ds.n, dtype=bool))
        self._assert_same_columns(ds, np.ones(ds.n, dtype=bool))
        self._assert_same_columns(ds, np.arange(ds.n))
        assert ds.take(np.ones(ds.n, dtype=bool)).ids() == ds.ids()
        assert ds.take([]).ids() == []

    def test_a_feature_free_take_keeps_every_other_column(self):
        ds = _odd_dataset(30, 3)
        rows = np.random.default_rng(4).permutation(ds.n)[:11]
        bare, full = ds.without_features().take(rows), ds.take(rows)
        assert bare.X.shape == (11, 0) and bare.dim == 0 and len(bare) == 11
        assert bare.ids() == full.ids() and bare.strata.tolist() == full.strata.tolist()
        assert bare.z.tobytes() == full.z.tobytes() and bare.y.tobytes() == full.y.tobytes()
