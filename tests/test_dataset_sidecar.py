"""The column sidecar in front of ``load_dataset``: a warm load gives the bits a
parse gives, re-runs the column checks, and anything wrong with a sidecar
costs only a reparse."""

import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from scorefusion import DatasetError, LabeledDataset, cli, data, load_dataset, save_dataset

DATA = Path(__file__).parent / "data"

# ids with a delimiter, a quote, a line break, non-ASCII text and (JSONL only) NUL
_IDS = ["a,b", 'say "hi"', "two\nlines", "café", "日本", "plain"]
_JSONL_IDS = _IDS[:-1] + ["nul\u0000"]


def _sidecar(path: Path) -> Path:
    return path.with_name(f".{path.name}.sfcache.npz")


def _fixture(tmp_path, fmt, with_annotations=True):
    """A dataset file with untagged rows, absent z/y (or no z/y columns at all), and awkward ids."""
    ids = _IDS if fmt == "csv" else _JSONL_IDS
    n = len(ids)
    rng = np.random.default_rng(3)
    ds = LabeledDataset.from_arrays(
        rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-200, 200, (n, 3)),
        y=[1, None, 0, 1, None, 0, 1][:n] if with_annotations else None,
        z=[0.5, None, 0.25, None, 1.0, 0.0, 0.125][:n] if with_annotations else None,
        strata=["A", None, "" if fmt == "jsonl" else "B", "A", None, None, "C"][:n],
        ids=ids,
    )
    path = tmp_path / f"data.{fmt}"
    save_dataset(ds, path)
    return path


def _columns(ds):
    return (ds.ids(), ds._keys.tobytes(), ds._keys.shape, ds.X.tobytes(), ds.X.shape, ds.z.tobytes(),
            ds.y.tobytes(), ds._codes.tolist(), ds._tags, ds.strata.tolist())


def _no_parse(monkeypatch):
    def fail(path):
        raise AssertionError(f"parsed {path} despite a valid sidecar")
    monkeypatch.setattr(data, "_load_csv", fail)
    monkeypatch.setattr(data, "_load_jsonl", fail)


class TestSameBits:
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("with_annotations", [True, False])
    def test_a_warm_load_equals_the_cold_one(self, tmp_path, monkeypatch, fmt, with_annotations):
        path = _fixture(tmp_path, fmt, with_annotations)
        cold = load_dataset(path)
        assert _sidecar(path).is_file()
        _no_parse(monkeypatch)
        warm = load_dataset(path)
        assert _columns(warm) == _columns(cold)
        assert warm.ids() == (_IDS if fmt == "csv" else _JSONL_IDS)
        assert not warm.X.flags.writeable and not warm.z.flags.writeable

    def test_the_fixed_files_load_warm_to_the_same_bits(self, tmp_path, monkeypatch):
        for name in ("fixed.csv", "fixed.jsonl"):
            shutil.copy(DATA / name, tmp_path / name)
            cold = load_dataset(tmp_path / name)
            with monkeypatch.context() as patch:
                _no_parse(patch)
                assert _columns(load_dataset(tmp_path / name)) == _columns(cold)

    def test_cli_outputs_are_byte_identical_cold_and_warm(self, tmp_path, capsys):
        shutil.copy(DATA / "fixed.csv", tmp_path / "fixed.csv")
        config = tmp_path / "exp.cfg"
        config.write_text(
            f"dataset.path = {tmp_path / 'fixed.csv'}\nseeds = 0, 1\nfolds.k = 3\n"
            "methods = ml, llm, linear, adalinear(4), calibration(10,2)\n"
            "tune.parameter = M\ntune.candidates = 2, 5, 10\n",
            encoding="utf-8",
        )
        outputs = []
        for run in ("cold", "warm"):
            for sub in ("experiment", "tune"):
                assert cli.main([sub, "--config", str(config), "--out", str(tmp_path / run / sub)]) == 0
            outputs.append({p.relative_to(tmp_path / run).as_posix(): p.read_bytes()
                            for p in sorted((tmp_path / run).rglob("*")) if p.is_file()})
            assert _sidecar(tmp_path / "fixed.csv").is_file()
        capsys.readouterr()
        assert {"experiment/report.json", "tune/tuned.json", "experiment/seed_0/base_model.json"} <= set(outputs[0])
        assert outputs[0] == outputs[1]


def _rewrite_sidecar(path, fmt, **changes):
    """Replace the sidecar of ``path`` with its parsed columns, some altered, under the file's own key."""
    ds = load_dataset(path)
    columns = {"ids": ds.ids(), "keys": ds._keys.copy(), "X": ds.X.copy(), "z": ds.z.copy(),
               "y": ds.y.copy(), "codes": ds._codes.copy(), "tags": list(ds._tags)}
    for name, change in changes.items():
        columns[name] = change(columns[name])
    key, _ = data._file_key(path, fmt)
    np.savez(_sidecar(path), key=np.array(key), ids=data._pack(columns["ids"]), keys=columns["keys"],
             X=columns["X"], z=columns["z"], y=columns["y"], codes=columns["codes"],
             tags=data._pack(columns["tags"]))


def _set(column, k, value):
    column[k] = value
    return column


class TestWarmLoadsAreChecked:
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("changes, what", [
        ({"X": lambda X: _set(X, (2, 1), np.inf)}, "a non-finite feature value"),
        ({"X": lambda X: _set(X, (0, 0), np.nan)}, "a non-finite feature value"),
        ({"z": lambda z: _set(z, 0, 1.5)}, "an oracle score outside [0, 1]"),
        ({"y": lambda y: _set(y, 2, 2.0)}, "a label other than 0 or 1"),
        ({"ids": lambda ids: [ids[1]] + ids[1:]}, "a repeated id"),
        ({"codes": lambda codes: _set(codes, 0, 7)}, "a stratum code out of range"),
        ({"codes": lambda codes: _set(codes, 0, -2)}, "a stratum code out of range"),
        ({"tags": lambda tags: tags + [tags[0]]}, "a stratum code out of range"),
        ({"z": lambda z: z[:-1]}, "columns of unequal length or type"),
        ({"ids": lambda ids: ids[:-1]}, "columns of unequal length or type"),
        ({"X": lambda X: np.ones(X.shape, np.float32)}, "columns of unequal length or type"),
        ({"X": lambda X: X[:, :0]}, "columns of unequal length or type"),
        ({"X": np.asfortranarray}, "columns of unequal length or type"),
        ({"keys": lambda keys: keys[:, :3]}, "columns of unequal length or type"),
        ({"keys": lambda keys: keys[:-1]}, "columns of unequal length or type"),
        ({"keys": lambda keys: keys.ravel()}, "columns of unequal length or type"),
        ({"keys": lambda keys: keys.astype(np.int64)}, "columns of unequal length or type"),
        ({"keys": lambda keys: keys.astype(np.int32)}, "columns of unequal length or type"),
    ])
    def test_an_altered_column_under_the_right_key_raises(self, tmp_path, fmt, changes, what):
        path = _fixture(tmp_path, fmt)
        _rewrite_sidecar(path, fmt, **changes)
        with pytest.raises(DatasetError) as err:
            load_dataset(path)
        assert str(err.value) == f"{_sidecar(path)} holds {what}; delete it to reparse {path}"
        _sidecar(path).unlink()
        assert load_dataset(path).n == len(_IDS if fmt == "csv" else _JSONL_IDS)

    def test_unaltered_columns_under_the_right_key_load(self, tmp_path, monkeypatch):
        path = _fixture(tmp_path, "csv")
        _rewrite_sidecar(path, "csv")
        cold = load_dataset(path)
        _no_parse(monkeypatch)
        assert _columns(load_dataset(path)) == _columns(cold)


class _Tripwire:
    unpickled = []

    def __reduce__(self):
        return (_Tripwire.unpickled.append, ("unpickled",))


class TestStaleOrBrokenSidecars:
    def test_an_equal_size_rewrite_with_the_old_mtime_gives_the_new_values(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,f0,y\nr1,0.5,1\nr2,1.5,0\n", encoding="utf-8")
        assert load_dataset(path).X[:, 0].tolist() == [0.5, 1.5]
        before = os.stat(path)
        path.write_text("id,f0,y\nr1,0.5,1\nr2,2.5,1\n", encoding="utf-8")
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = os.stat(path)
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        ds = load_dataset(path)
        assert ds.X[:, 0].tolist() == [0.5, 2.5] and ds.y.tolist() == [1.0, 1.0]

    def test_loading_the_file_as_another_format_does_not_read_its_sidecar(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('{"id": "a", "features": [1.0]}\n', encoding="utf-8")
        with pytest.raises(DatasetError, match="CSV header must start with 'id'"):
            load_dataset(path)
        assert load_dataset(path, format="jsonl").ids() == ["a"]
        with pytest.raises(DatasetError, match="CSV header must start with 'id'"):
            load_dataset(path)

    @pytest.mark.parametrize("damage", ["truncated", "garbage", "empty", "npy", "foreign", "pickled"])
    def test_a_broken_sidecar_is_reparsed_and_rewritten(self, tmp_path, monkeypatch, damage):
        path = _fixture(tmp_path, "jsonl")
        cold = load_dataset(path)
        sidecar = _sidecar(path)
        good = sidecar.read_bytes()
        if damage == "truncated":
            sidecar.write_bytes(good[: len(good) // 2])
        elif damage == "garbage":
            sidecar.write_bytes(b"PK\x03\x04 not a zip archive at all")
        elif damage == "empty":
            sidecar.write_bytes(b"")
        elif damage == "npy":
            with sidecar.open("wb") as fh:
                np.save(fh, np.arange(3))
        elif damage == "foreign":
            other = tmp_path / "other.jsonl"
            other.write_text('{"id": "x", "features": [1.0, 2.0, 3.0]}\n', encoding="utf-8")
            load_dataset(other)
            shutil.copy(_sidecar(other), sidecar)
        else:
            key, _ = data._file_key(path, "jsonl")
            np.savez(sidecar, key=np.array(key), ids=np.array([_Tripwire()], dtype=object))
        assert _columns(load_dataset(path)) == _columns(cold)
        assert _Tripwire.unpickled == []
        _no_parse(monkeypatch)
        assert _columns(load_dataset(path)) == _columns(cold)

    @pytest.mark.parametrize("version", [b"scorefusion dataset sidecar 1", data._SIDECAR_VERSION])
    def test_a_sidecar_without_keys_is_reparsed_once(self, tmp_path, monkeypatch, version):
        # version 1 stored no id keys; under the current key a sidecar without them is damaged
        path = _fixture(tmp_path, "jsonl")
        cold = load_dataset(path)
        with monkeypatch.context() as patch:
            patch.setattr(data, "_SIDECAR_VERSION", version)
            key, _ = data._file_key(path, "jsonl")
        np.savez(_sidecar(path), key=np.array(key), ids=data._pack(cold.ids()), X=cold.X, z=cold.z,
                 y=cold.y, codes=cold._codes, tags=data._pack(list(cold._tags)))
        parses, parse = [], data._load_jsonl
        monkeypatch.setattr(data, "_load_jsonl", lambda source: parses.append(source) or parse(source))
        assert _columns(load_dataset(path)) == _columns(cold)
        assert _columns(load_dataset(path)) == _columns(cold)
        assert parses == [path]
        with np.load(_sidecar(path)) as stored:
            assert stored["keys"].tobytes() == data.id_keys(cold.ids()).tobytes()

    def test_a_failing_sidecar_write_still_returns_the_dataset(self, tmp_path, monkeypatch):
        path = _fixture(tmp_path, "csv")

        def full(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(data.np, "savez", full)
        assert load_dataset(path).ids() == _IDS
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]

    def test_a_failing_rename_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        path = _fixture(tmp_path, "jsonl")

        def refuse(src, dst):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(data.os, "replace", refuse)
        assert load_dataset(path).ids() == _JSONL_IDS
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl"]

    @pytest.mark.parametrize("change", ["mtime", "size"])
    def test_a_file_changed_while_parsed_gets_no_sidecar(self, tmp_path, monkeypatch, change):
        path = tmp_path / "d.csv"
        path.write_text("id,f0\nr1,0.5\n", encoding="utf-8")
        parse = data._load_csv

        def parse_then_change(source):
            ds = parse(source)
            if change == "mtime":
                os.utime(source, ns=(0, os.stat(source).st_mtime_ns + 10**9))
            else:
                with open(source, "a", encoding="utf-8") as fh:
                    fh.write("r2,1.5\n")
            return ds

        monkeypatch.setattr(data, "_load_csv", parse_then_change)
        assert load_dataset(path).ids() == ["r1"]
        assert not _sidecar(path).exists()
        monkeypatch.undo()
        assert load_dataset(path).ids() == (["r1"] if change == "mtime" else ["r1", "r2"])
        assert _sidecar(path).is_file()

    def test_the_sidecar_takes_the_umask_permissions(self, tmp_path):
        path = _fixture(tmp_path, "csv")
        old = os.umask(0o027)
        try:
            load_dataset(path)
        finally:
            os.umask(old)
        assert _sidecar(path).stat().st_mode & 0o777 == 0o640
