"""Dataset containers, file formats, splitting, synthesis, and artifact files."""

import json

import numpy as np
import pytest

from scorefusion import (
    AdditiveCalibrator,
    BaseModel,
    CalibrationError,
    CellCalibrator,
    DatasetError,
    EnsembleError,
    GridSpec,
    Instance,
    LabeledDataset,
    SyntheticSpec,
    TrainingError,
    TransferError,
    TransferPlan,
    WeightFunction,
    load_dataset,
    make_folds,
    save_dataset,
    sigmoid,
    split,
    synthesize,
)
from scorefusion.calibration import load_calibrator
from scorefusion.data import fold_index
from scorefusion.transfer import StratumDensity, sample_augmentation


def _toy(n=6, d=3, seed=0, with_z=True, with_y=True, strata=None):
    rng = np.random.default_rng(seed)
    return LabeledDataset.from_arrays(
        rng.standard_normal((n, d)),
        y=rng.integers(0, 2, size=n) if with_y else None,
        z=rng.uniform(size=n) if with_z else None,
        strata=strata,
    )


class TestLabeledDataset:
    def test_rejects_duplicate_ids(self):
        with pytest.raises(DatasetError, match="duplicate instance id 'a'"):
            LabeledDataset.from_arrays([[1.0], [2.0]], ids=["a", "a"])

    def test_from_arrays_reads_none_as_absent(self):
        ds = LabeledDataset.from_arrays(np.zeros((3, 1)), y=[None, 1, 0], z=[0.5, None, 1.0],
                                        strata=["a", None, "a"])
        np.testing.assert_array_equal(ds.y, [np.nan, 1.0, 0.0])
        np.testing.assert_array_equal(ds.z, [0.5, np.nan, 1.0])
        assert ds.strata.tolist() == ["a", None, "a"]
        assert ds.stratum_counts() == {"a": 2, None: 1}
        assert (ds.row(0).label, ds.row(1).oracle_score, ds.row(1).stratum) == (None, None, None)

    @pytest.mark.parametrize("column,values,message", [
        ("y", [1.7, 0.0], "instance 'r000000': y=1.7 not in {0, 1}"),
        ("y", [0, -1], "instance 'r000001': y=-1.0 not in {0, 1}"),
        ("y", [0, float("nan")], "instance 'r000001': y=nan not in {0, 1}"),
        ("z", [0.5, float("nan")], "instance 'r000001': z=nan outside [0, 1]"),
        ("z", [1.5, 0.5], "instance 'r000000': z=1.5 outside [0, 1]"),
        ("z", ["high", 0.5], "instance 'r000000': bad z value 'high'"),
    ])
    def test_from_arrays_rejects_scores_and_labels_outside_the_schema(self, column, values, message):
        with pytest.raises(DatasetError) as info:
            LabeledDataset.from_arrays(np.zeros((2, 1)), **{column: values})
        assert str(info.value) == message

    @pytest.mark.parametrize("X,message", [
        ([[np.nan], [np.inf]], "instance 'r000000': non-finite feature value"),
        ([[0.0, 1.0], [2.0, -np.inf]], "instance 'r000001': non-finite feature value"),
    ])
    def test_from_arrays_rejects_non_finite_features_as_the_loaders_do(self, X, message):
        with pytest.raises(DatasetError) as info:
            LabeledDataset.from_arrays(X, y=[0, 1])
        assert str(info.value) == message

    def test_row_views_compare_and_hash_by_identity(self):
        ds = _toy(3, 2)
        view = ds.row(0)
        assert view == view and ds.row(0) != ds.row(0)
        assert len({view, view, ds.row(1)}) == 2

    def test_feature_matrix_round_trip(self):
        ds = _toy(5, 4)
        assert ds.feature_matrix().shape == (5, 4)
        np.testing.assert_array_equal(ds.feature_matrix()[2], ds.row(2).features)

    def test_from_arrays_stores_a_fortran_ordered_matrix_in_c_order(self):
        X = np.asfortranarray(np.arange(12.0).reshape(4, 3))
        ds = LabeledDataset.from_arrays(X)
        assert ds.X.flags.c_contiguous and not np.shares_memory(ds.X, X)
        np.testing.assert_array_equal(ds.X, X)

    def test_labels_error_names_missing_instance(self):
        ds = _toy(with_y=False)
        with pytest.raises(DatasetError, match="missing labels"):
            ds.labels()

    def test_subset_preserves_order(self):
        ds = _toy(6)
        ids = ds.ids()
        sub = ds.subset([ids[4], ids[1]])
        assert sub.ids() == [ids[1], ids[4]]

    def test_with_oracle_scores_requires_every_id(self):
        ds = _toy(3, with_z=False)
        with pytest.raises(DatasetError, match="no oracle score"):
            ds.with_oracle_scores({ds.ids()[0]: 0.5})

    def test_without_labels_keeps_everything_else(self):
        ds = _toy(4, strata=["s"] * 4)
        stripped = ds.without_labels()
        assert not any(i.label is not None for i in stripped)
        assert [i.stratum for i in stripped] == ["s"] * 4
        np.testing.assert_array_equal(stripped.oracle_scores(), ds.oracle_scores())


def _mixed(n=40, d=3, seed=0, prefix="m"):
    """Reference rows with some oracle scores, labels and strata absent, drawn one row at a time."""
    rng = np.random.default_rng(seed)
    rows = []
    for k in range(n):
        rows.append(Instance(
            f"{prefix}{(k * 7) % n:03d}",  # ids not in sorted order
            rng.standard_normal(d),
            None if k % 5 == 0 else float(rng.uniform()),
            None if k % 7 == 3 else int(rng.integers(0, 2)),
            (None, "a", "b")[k % 3],
        ))
    return rows


def _dataset(rows):
    """The dataset of reference rows, built by ``from_arrays`` with None for each absent field."""
    return LabeledDataset.from_arrays(
        [r.features for r in rows], ids=[r.id for r in rows], z=[r.oracle_score for r in rows],
        y=[r.label for r in rows], strata=[r.stratum for r in rows],
    )


def _columns(rows, dim):
    """(ids, X, z, y, strata) of a list of Instance rows, with NaN for absent z/y."""
    nan = float("nan")
    return (
        [r.id for r in rows],
        np.array([r.features for r in rows], dtype=float).reshape(len(rows), dim),
        np.array([nan if r.oracle_score is None else r.oracle_score for r in rows]),
        np.array([nan if r.label is None else r.label for r in rows], dtype=float),
        [r.stratum for r in rows],
    )


def _assert_same(ds, rows):
    ids, X, z, y, strata = _columns(rows, ds.dim)
    assert ds.ids() == ids and ds.strata.tolist() == strata
    assert ds.X.shape == X.shape
    np.testing.assert_array_equal(ds.X, X)
    np.testing.assert_array_equal(ds.z, z)
    np.testing.assert_array_equal(ds.y, y)


def _reference_sample(rows, p3, m, seed):
    """Row-wise sample_augmentation: per-stratum lists, multinomial counts, pool order kept."""
    groups = {}
    for r in rows:
        if r.stratum is not None:
            groups.setdefault(str(r.stratum), []).append(r)
    tags = p3.support()
    probs = p3.as_array(tags)
    rng = np.random.default_rng(seed)
    chosen = set()
    for tag, count in zip(tags, rng.multinomial(m, probs / probs.sum())):
        if count:
            chosen |= {groups[tag][i].id for i in rng.choice(len(groups[tag]), size=count, replace=False)}
    return [r for r in rows if r.id in chosen]


class TestColumnarMatchesRowwise:
    # every row operation is an index operation on the columns; each must
    # give the rows the old tuple-of-instances code gave, in the same order
    def setup_method(self):
        self.rows = _mixed()
        self.ds = _dataset(self.rows)

    def test_from_arrays_keeps_every_field(self):
        _assert_same(self.ds, self.rows)

    @pytest.mark.parametrize("fraction,seed", [(0.25, 0), (0.5, 3), (0.1, 11)])
    def test_split(self, fraction, seed):
        n_test = int(round(len(self.rows) * fraction))
        test_idx = set(np.random.default_rng(seed).permutation(len(self.rows))[:n_test].tolist())
        train, test = split(self.ds, fraction, seed)
        _assert_same(train, [r for k, r in enumerate(self.rows) if k not in test_idx])
        _assert_same(test, [r for k, r in enumerate(self.rows) if k in test_idx])

    def test_subset(self):
        wanted = [self.rows[k].id for k in (30, 2, 17, 5)]
        _assert_same(self.ds.subset(wanted), [r for r in self.rows if r.id in wanted])

    def test_take_by_index_and_by_mask(self):
        _assert_same(self.ds.take([9, 0, 4]), [self.rows[k] for k in (9, 0, 4)])
        mask = np.arange(len(self.rows)) % 4 == 1
        _assert_same(self.ds.take(mask), [r for r, keep in zip(self.rows, mask) if keep])
        _assert_same(self.ds.take([]), [])
        with pytest.raises(DatasetError, match="distinct"):
            self.ds.take([1, 1])

    def test_filter(self):
        kept = self.ds.filter(lambda inst: inst.stratum == "a" and inst.label is not None)
        _assert_same(kept, [r for r in self.rows if r.stratum == "a" and r.label is not None])

    def test_concat(self):
        other = _mixed(12, seed=1, prefix="o")
        _assert_same(self.ds.concat(_dataset(other)), self.rows + other)

    def test_concat_rejects_a_duplicate_id_across_sides(self):
        clash = _dataset([Instance("o1", np.zeros(3), None, None, None), self.rows[4]])
        with pytest.raises(DatasetError, match=f"duplicate instance id {self.rows[4].id!r}"):
            self.ds.concat(clash)

    def test_with_oracle_scores(self):
        scores = {r.id: (k % 10) / 10 for k, r in enumerate(self.rows)}
        expected = [Instance(r.id, r.features, scores[r.id], r.label, r.stratum) for r in self.rows]
        _assert_same(self.ds.with_oracle_scores(scores), expected)
        with pytest.raises(DatasetError, match="outside"):
            self.ds.with_oracle_scores(dict(scores, **{self.rows[3].id: float("nan")}))

    def test_with_oracle_scores_from_a_row_aligned_column(self):
        scores = {r.id: (k % 10) / 10 for k, r in enumerate(self.rows)}
        column = np.array([scores[r.id] for r in self.rows])
        _assert_same(self.ds.with_oracle_scores(column), list(self.ds.with_oracle_scores(scores)))
        assert column.flags.writeable
        with pytest.raises(DatasetError, match="outside"):
            self.ds.with_oracle_scores(np.where(np.arange(len(column)) == 3, np.nan, column))
        with pytest.raises(DatasetError, match="shape"):
            self.ds.with_oracle_scores(column[:-1])

    def test_without_labels(self):
        expected = [Instance(r.id, r.features, r.oracle_score, None, r.stratum) for r in self.rows]
        _assert_same(self.ds.without_labels(), expected)

    @pytest.mark.parametrize("m,seed", [(5, 0), (12, 4), (16, 9)])
    def test_sample_augmentation(self, m, seed):
        p3 = StratumDensity({"a": 0.3, "b": 0.7})
        _assert_same(sample_augmentation(self.ds, p3, m, seed), _reference_sample(self.rows, p3, m, seed))

    def test_feature_matrix_is_read_only(self):
        with pytest.raises(ValueError):
            self.ds.feature_matrix()[0, 0] = 1.0
        with pytest.raises(AttributeError):
            self.ds.X = np.zeros((1, 3))

    def test_row_views_round_trip(self):
        _assert_same(_dataset(list(self.ds)), self.rows)
        assert [i.id for i in self.ds] == [r.id for r in self.rows]
        assert self.ds.instances is self.ds and len(self.ds.instances) == len(self.rows)

    def test_absent_fields_are_none_in_row_views_and_errors_in_columns(self):
        views = list(self.ds)
        assert views[0].oracle_score is None and views[3].label is None and views[0].stratum is None
        assert views[1].oracle_score == self.rows[1].oracle_score and views[1].label == self.rows[1].label
        with pytest.raises(DatasetError, match=f"missing labels for 6 instance\\(s\\), e.g. {self.rows[3].id!r}"):
            self.ds.labels()
        with pytest.raises(DatasetError, match=f"missing oracle scores for 8 instance\\(s\\), e.g. {self.rows[0].id!r}"):
            self.ds.oracle_scores()


class TestFileFormats:
    def test_csv_round_trip(self, tmp_path):
        ds = _toy(8, 3, strata=["x"] * 8)
        path = tmp_path / "data.csv"
        save_dataset(ds, path)
        back = load_dataset(path)
        np.testing.assert_array_equal(back.feature_matrix(), ds.feature_matrix())
        np.testing.assert_array_equal(back.labels(), ds.labels())
        np.testing.assert_array_equal(back.oracle_scores(), ds.oracle_scores())
        assert back.ids() == ds.ids()

    def test_jsonl_round_trip(self, tmp_path):
        ds = _toy(5, 2)
        path = tmp_path / "data.jsonl"
        save_dataset(ds, path)
        back = load_dataset(path)
        np.testing.assert_array_equal(back.feature_matrix(), ds.feature_matrix())
        np.testing.assert_array_equal(back.oracle_scores(), ds.oracle_scores())

    def test_optional_columns_can_be_absent(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("id,f0,f1\nr1,0.5,1.5\nr2,-1.0,2.0\n")
        ds = load_dataset(path)
        assert ds.n == 2 and ds.dim == 2
        assert not ds.has_labels and not ds.has_oracle_scores

    def test_csv_rejects_out_of_order_extras(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,f0,y,z\nr1,0.5,1,0.5\n")
        with pytest.raises(DatasetError, match="trailing"):
            load_dataset(path)

    def test_csv_reports_row_number_for_bad_label(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,f0,y\nr1,0.5,1\nr2,0.5,7\n")
        with pytest.raises(DatasetError, match="row 2"):
            load_dataset(path)

    def test_jsonl_rejects_inconsistent_dimension(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "features": [1.0]}\n{"id": "b", "features": [1.0, 2.0]}\n')
        with pytest.raises(DatasetError, match="dimension"):
            load_dataset(path)

    def test_format_inferred_from_suffix_or_explicit(self, tmp_path):
        path = tmp_path / "data.dat"
        with pytest.raises(DatasetError, match="infer"):
            load_dataset(path)
        save_dataset(_toy(3), tmp_path / "x.csv")
        assert load_dataset(tmp_path / "x.csv", format="csv").n == 3


def _load_text(tmp_path, text, name="data.csv", newline=None):
    path = tmp_path / name
    with open(path, "w", encoding="utf-8", newline=newline) as fh:
        fh.write(text)
    return load_dataset(path)


def _load_error(tmp_path, text, name="data.csv"):
    with pytest.raises(DatasetError) as info:
        _load_text(tmp_path, text, name)
    return str(info.value)


class TestCsvDialect:
    """The CSV dialect ``load_dataset`` reads: quoting, line endings, blank lines, whitespace, errors."""

    def test_ids_with_delimiters_quotes_and_hashes_round_trip(self, tmp_path):
        ids = ["a,b", 'say "hi"', "a#1", "#lead", 'both,"#"', "plain", "line\nbreak", "cr\rlf\r\n"]
        ds = LabeledDataset.from_arrays(
            np.arange(16.0).reshape(8, 2) / 7, y=[0, 1, 0, 1, 1, 0, 1, 1], ids=ids,
            strata=["s,1", "#", "t", "", "u", "v", "w", "x"],
        )
        path = tmp_path / "quoted.csv"
        save_dataset(ds, path)
        assert '"say ""hi"""' in path.read_text(encoding="utf-8")
        back = load_dataset(path)
        assert back.ids() == ids
        assert back.strata.tolist() == ["s,1", "#", "t", None, "u", "v", "w", "x"]
        np.testing.assert_array_equal(back.X, ds.X)
        np.testing.assert_array_equal(back.y, ds.y)

    def test_a_line_starting_with_hash_is_a_row_not_a_comment(self, tmp_path):
        ds = _load_text(tmp_path, "id,f0,y\n#r1,0.5,1\nr2#,1.5,0\n")
        assert ds.ids() == ["#r1", "r2#"]
        np.testing.assert_array_equal(ds.X[:, 0], [0.5, 1.5])

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_crlf_and_cr_line_endings(self, tmp_path, end):
        text = f"id,f0,f1,z,y{end}r1,0.5,-1.5,0.25,1{end}{end}r2,2.0,3.0,,0{end}"
        ds = _load_text(tmp_path, text, newline="")
        assert ds.ids() == ["r1", "r2"]
        np.testing.assert_array_equal(ds.X, [[0.5, -1.5], [2.0, 3.0]])
        np.testing.assert_array_equal(ds.z, [0.25, np.nan])
        np.testing.assert_array_equal(ds.y, [1.0, 0.0])

    def test_blank_lines_are_skipped(self, tmp_path):
        ds = _load_text(tmp_path, "id,f0,y\n\nr1,0.5,1\n\n\nr2,1.5,0\n\n")
        assert ds.ids() == ["r1", "r2"]
        np.testing.assert_array_equal(ds.y, [1.0, 0.0])

    @pytest.mark.parametrize("row, message", [
        ("r2,0.5,7", "row 4: y=7.0 not in {0, 1}"),
        ("r2,0.5", "row 4: expected 3 cells, got 2"),
        ("r2,abc,1", "row 4: malformed feature value"),
    ])
    def test_row_numbers_count_blank_lines(self, tmp_path, row, message):
        assert _load_error(tmp_path, f"id,f0,y\nr1,0.5,1\n\n\n{row}\nr3,0.5,1\n") == message

    def test_row_numbers_count_blank_lines_for_scores(self, tmp_path):
        text = "id,f0,z\n\nr1,0.5,0.5\n\nr2,0.5,1.5\n"
        assert _load_error(tmp_path, text) == "row 4: z=1.5 outside [0, 1]"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("body", ["", "\n", "\n\n"])
    def test_header_only_file_has_no_data_rows(self, tmp_path, body):
        path = tmp_path / "empty.csv"
        path.write_text("id,f0,y\n" + body, encoding="utf-8")
        with pytest.raises(DatasetError) as info:
            load_dataset(path)
        assert str(info.value) == f"no data rows in {path}"

    def test_whitespace_around_cells(self, tmp_path):
        ds = _load_text(tmp_path, "id,f0,f1,z,y,stratum\n r1 , 0.5 ,\t-2\t, 0.25 , 1 , s \n")
        assert ds.ids() == [" r1 "] and ds.strata.tolist() == [" s "]
        np.testing.assert_array_equal(ds.X, [[0.5, -2.0]])
        np.testing.assert_array_equal(ds.z, [0.25])
        np.testing.assert_array_equal(ds.y, [1.0])

    @pytest.mark.parametrize("header, cell, message", [
        ("z", "nan", "row 2: z=nan outside [0, 1]"),
        ("z", "inf", "row 2: z=inf outside [0, 1]"),
        ("z", "-inf", "row 2: z=-inf outside [0, 1]"),
        ("y", "nan", "row 2: y=nan not in {0, 1}"),
        ("y", "inf", "row 2: y=inf not in {0, 1}"),
        ("z", "abc", "row 2: bad z value 'abc'"),
        ("y", "0.5", "row 2: y=0.5 not in {0, 1}"),
    ])
    def test_non_finite_and_bad_score_or_label_text(self, tmp_path, header, cell, message):
        text = f"id,f0,{header}\nr1,0.5,1\nr2,0.5,{cell}\n"
        assert _load_error(tmp_path, text) == message

    def test_empty_score_and_label_cells_are_absent(self, tmp_path):
        ds = _load_text(tmp_path, "id,f0,z,y,stratum\nr1,0.5,,,\nr2,0.5,0.5,1,a\n")
        np.testing.assert_array_equal(ds.z, [np.nan, 0.5])
        np.testing.assert_array_equal(ds.y, [np.nan, 1.0])
        assert ds.strata.tolist() == [None, "a"]

    @pytest.mark.parametrize("text, message", [
        ("id,f0,y\nr1,0.5,1\nr2,0.5\n", "row 2: expected 3 cells, got 2"),
        ("id,f0,y\nr1,0.5,1\nr2,0.5,1,0\n", "row 2: expected 3 cells, got 4"),
        ("id,f0,y\nr1,0.5,1\n   \n", "row 2: expected 3 cells, got 1"),
        ("id,f0,f1\nr1,0.5,1\nr2,0.5,\n", "row 2: malformed feature value"),
        ("id,f0,f1\nr1,0.5,1\nr2,0x10,1\n", "row 2: malformed feature value"),
        ("id,f0,y\nr1,0.5,1\nr2,0.5,0\nr1,0.5,1\n", "duplicate instance id 'r1'"),
    ])
    def test_malformed_rows_and_duplicate_ids(self, tmp_path, text, message):
        assert _load_error(tmp_path, text) == message

    def test_features_parse_to_the_bits_float_gives(self, tmp_path):
        rng = np.random.default_rng(7)
        values = np.concatenate([rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500), [5e-324, -0.0, 1e308]])
        cells = [repr(v) for v in values.tolist()] + ["1e5", "-.5", "+3.", " 7 "]
        text = "id,f0\n" + "".join(f"r{k},{c}\n" for k, c in enumerate(cells))
        ds = _load_text(tmp_path, text)
        expected = np.array([float(c) for c in cells])
        assert ds.X[:, 0].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("text", ["id,f0,y\nr1,0.5,1\nr2,nan,0\n", "id,f0,y\nr1,0.5,1\nr2,-inf,0\n", "id,f0,y\nr1,0.5,1\nr2,1e400,0\n"])
    def test_non_finite_features_are_rejected(self, tmp_path, text):
        assert _load_error(tmp_path, text) == "row 2: non-finite feature value"

    def test_underscore_digit_groups_are_malformed_features(self, tmp_path):
        # float("1_0") is 10.0, but numpy's parser does not read digit groups
        assert _load_error(tmp_path, "id,f0\nr1,1_0\n") == "row 1: malformed feature value"

    def test_undecodable_bytes_past_the_header_raise_a_dataset_error(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"id,f0\n" + b"".join(b"r%d,1\n" % k for k in range(5000)) + b"caf\xe9,1\n")
        with pytest.raises(DatasetError, match="can't decode byte 0xe9"):
            load_dataset(path)

    def test_non_finite_feature_row_counts_blank_lines(self, tmp_path):
        assert _load_error(tmp_path, "id,f0,f1\n\nr1,0.5,1\n\nr2,0.5,NaN\n") == "row 4: non-finite feature value"


class TestJsonlBoundary:
    @pytest.mark.parametrize("feature", ["NaN", "Infinity", "-Infinity", '"nan"'])
    def test_non_finite_features_are_rejected(self, tmp_path, feature):
        text = f'{{"id": "a", "features": [1.0]}}\n\n{{"id": "b", "features": [{feature}]}}\n'
        assert _load_error(tmp_path, text, "data.jsonl") == "row 3: non-finite feature value"

    @pytest.mark.parametrize("key, value, message", [
        ("z", "NaN", "row 2: z=nan outside [0, 1]"),
        ("z", "1.5", "row 2: z=1.5 outside [0, 1]"),
        ("y", "2", "row 2: y=2.0 not in {0, 1}"),
        ("y", "NaN", "row 2: y=nan not in {0, 1}"),
        ("z", '"abc"', "row 2: bad z value 'abc'"),
        ("y", "[1]", "row 2: bad y value [1]"),
        pytest.param("y", "1" + "0" * 400, f"row 2: bad y value 1{'0' * 400}", id="y-huge-int"),
    ])
    def test_scores_and_labels_are_checked(self, tmp_path, key, value, message):
        text = f'{{"id": "a", "features": [1.0], "{key}": 1}}\n{{"id": "b", "features": [1.0], "{key}": {value}}}\n'
        assert _load_error(tmp_path, text, "data.jsonl") == message

    @pytest.mark.parametrize("feature", ['"abc"', "null", "[1.0]", pytest.param("1" + "0" * 400, id="huge-int")])
    def test_malformed_features(self, tmp_path, feature):
        text = f'{{"id": "a", "features": [1.0]}}\n{{"id": "b", "features": [{feature}]}}\n'
        assert _load_error(tmp_path, text, "data.jsonl") == "row 2: malformed feature value"

    def test_null_and_missing_annotations_are_absent(self, tmp_path):
        text = '{"id": "a", "features": [1.0], "z": null, "y": 1}\n{"id": "b", "features": [2.0], "z": 0.5}\n'
        ds = _load_text(tmp_path, text, "data.jsonl")
        np.testing.assert_array_equal(ds.z, [np.nan, 0.5])
        np.testing.assert_array_equal(ds.y, [1.0, np.nan])


class TestSplit:
    def test_split_is_a_partition(self):
        ds = _toy(20)
        train, test = split(ds, 0.25, seed=1)
        assert train.n == 15 and test.n == 5
        assert set(train.ids()) | set(test.ids()) == set(ds.ids())
        assert not set(train.ids()) & set(test.ids())

    def test_split_deterministic_per_seed(self):
        ds = _toy(30)
        a = split(ds, 0.5, seed=7)[1].ids()
        b = split(ds, 0.5, seed=7)[1].ids()
        c = split(ds, 0.5, seed=8)[1].ids()
        assert a == b
        assert a != c

    def test_split_rejects_empty_side(self):
        ds = _toy(4)
        with pytest.raises(DatasetError):
            split(ds, 0.01, seed=0)


class TestFolds:
    def test_fold_sizes_are_balanced(self):
        ds = _toy(23)
        fold = make_folds(ds, 5, seed=0)
        sizes = np.bincount(fold, minlength=5)
        assert sum(sizes) == 23
        assert max(sizes) - min(sizes) <= 1

    def test_every_instance_assigned_once(self):
        ds = _toy(12)
        fold = make_folds(ds, 3, seed=2)
        # one fold in [0, k) per row, aligned with the rows
        assert fold.shape == (ds.n,)
        assert set(fold.tolist()) == {0, 1, 2}

    def test_k_bounds(self):
        ds = _toy(4)
        with pytest.raises(DatasetError):
            make_folds(ds, 1, seed=0)
        with pytest.raises(DatasetError):
            make_folds(ds, 5, seed=0)


_FOLD_CASES = [(12, 3, 2), (23, 5, 0), (7, 7, 4), (100, 3, 11), (41, 2, 5)]


class TestFoldIndex:
    @pytest.mark.parametrize("n,k,seed", _FOLD_CASES)
    def test_reproduces_make_folds(self, n, k, seed):
        # rows of a seeded permutation dealt round-robin: perm[p] gets fold p % k
        ds = _toy(n)
        perm = np.random.default_rng(seed).permutation(n)
        dealt = {ds.ids()[idx]: pos % k for pos, idx in enumerate(perm)}
        assert make_folds(ds, k, seed=seed).tolist() == [dealt[i] for i in ds.ids()]
        assert fold_index(n, k, seed).tolist() == [dealt[i] for i in ds.ids()]

    @pytest.mark.parametrize("n,k,seed", _FOLD_CASES)
    def test_reproduces_strided_permutation_folds(self, n, k, seed):
        perm = np.random.default_rng(seed).permutation(n)
        fold = fold_index(n, k, seed)
        for start in range(k):
            assert sorted(np.flatnonzero(fold == start)) == sorted(perm[start::k])


class TestSynthesize:
    def test_deterministic_per_seed(self):
        spec = SyntheticSpec(d=3, n=50, true_weights=(1.0, -1.0, 0.5, 0.0), seed=5)
        a, b = synthesize(spec), synthesize(spec)
        np.testing.assert_array_equal(a.feature_matrix(), b.feature_matrix())
        np.testing.assert_array_equal(a.labels(), b.labels())

    def test_weight_length_validated(self):
        with pytest.raises(DatasetError):
            SyntheticSpec(d=3, n=10, true_weights=(1.0, 2.0))

    def test_label_rate_tracks_the_logistic_law(self):
        # strongly positive intercept drives the positive rate toward sigmoid(b)
        spec = SyntheticSpec(d=2, n=4000, true_weights=(0.0, 0.0, 1.5), seed=9)
        ds = synthesize(spec)
        rate = ds.labels().mean()
        expected = sigmoid(1.5)
        assert abs(rate - expected) < 3 * np.sqrt(expected * (1 - expected) / 4000)

    def test_strata_shift_means_and_tag_rows(self):
        spec = SyntheticSpec(
            d=2, n=3000, true_weights=(1.0, 1.0, 0.0),
            strata=(("lo", (-2.0, 0.0), 0.5), ("hi", (2.0, 0.0), 0.5)), seed=3,
        )
        ds = synthesize(spec)
        groups = ds.stratum_rows()
        assert set(groups) == {"lo", "hi"}
        lo, hi = ds.X[groups["lo"]], ds.X[groups["hi"]]
        assert lo[:, 0].mean() < -1.5 and hi[:, 0].mean() > 1.5

    def test_stratum_weights_must_sum_to_one(self):
        with pytest.raises(DatasetError):
            SyntheticSpec(d=1, n=10, true_weights=(1.0, 0.0),
                          strata=(("a", (0.0,), 0.6), ("b", (0.0,), 0.6)))


class TestArtifactFiles:
    """``X.load`` on a file it cannot read raises X's module error, naming the path and kind."""

    CLASSES = [
        pytest.param(BaseModel, TrainingError, "logistic", id="BaseModel"),
        pytest.param(WeightFunction, EnsembleError, "piecewise_weight", id="WeightFunction"),
        pytest.param(CellCalibrator, CalibrationError, "cell_calibrator", id="CellCalibrator"),
        pytest.param(AdditiveCalibrator, CalibrationError, "additive_calibrator",
                     id="AdditiveCalibrator"),
        pytest.param(TransferPlan, TransferError, "transfer_plan", id="TransferPlan"),
    ]

    @staticmethod
    def _other_kind(cls, tmp_path):
        path = tmp_path / "other.json"
        if cls is WeightFunction:
            CellCalibrator(GridSpec(1, 1), np.zeros((2, 2)), np.zeros((2, 2))).save(path)
        else:
            WeightFunction.constant(0.5).save(path)
        return path

    @pytest.mark.parametrize("cls, error, kind", CLASSES)
    def test_a_file_of_another_kind(self, cls, error, kind, tmp_path):
        path = self._other_kind(cls, tmp_path)
        with pytest.raises(error, match=kind) as exc:
            cls.load(path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("cls, error, kind", CLASSES)
    def test_a_file_that_is_not_json(self, cls, error, kind, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"kind": ')
        with pytest.raises(error, match=kind):
            cls.load(path)

    @pytest.mark.parametrize("cls, error, kind", CLASSES)
    def test_a_file_of_the_right_kind_without_its_fields(self, cls, error, kind, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"kind": kind}))
        with pytest.raises(error, match=kind):
            cls.load(path)

    @pytest.mark.parametrize("cls, error, kind", CLASSES)
    def test_a_missing_file(self, cls, error, kind, tmp_path):
        path = tmp_path / "absent" / "m.json"
        with pytest.raises(error, match=kind) as exc:
            cls.load(path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("cls, error, kind", CLASSES)
    def test_a_directory(self, cls, error, kind, tmp_path):
        with pytest.raises(error, match=kind) as exc:
            cls.load(tmp_path)
        assert str(tmp_path) in str(exc.value)

    @pytest.mark.parametrize("cls, error, kind", CLASSES)
    def test_a_file_that_is_not_utf8(self, cls, error, kind, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"kind": "caf\xe9"}')
        with pytest.raises(error, match=kind) as exc:
            cls.load(path)
        assert str(path) in str(exc.value)

    def test_a_missing_base_model_at_an_absolute_path(self):
        with pytest.raises(TrainingError, match="/nonexistent/m.json"):
            BaseModel.load("/nonexistent/m.json")

    def test_load_calibrator_on_a_directory(self, tmp_path):
        with pytest.raises(CalibrationError, match="cell_calibrator' or 'additive_calibrator"):
            load_calibrator(tmp_path)
