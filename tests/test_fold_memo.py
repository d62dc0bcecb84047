"""The out-of-fold memo beside a dataset file: every command that reads the file with the same
training side, folds, ``base.*`` settings and code trains its fold models once, a hit gives the
bits a retrain gives, and anything wrong with a memo costs only a retrain."""

import builtins
import fnmatch
import importlib.util
import os
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from scorefusion import (
    DatasetError,
    ExperimentConfig,
    LabeledDataset,
    MethodSpec,
    OracleSettings,
    SingleClassFoldWarning,
    TransferSettings,
    cv_predict,
    data,
    harness,
    load_dataset,
    run_experiment,
    run_transfer_experiment,
    save_dataset,
    sigmoid,
)
from scorefusion.cli import main
from scorefusion.config import BaseSettings

ROOT = Path(__file__).resolve().parent.parent


def _cfg(path, **overrides):
    defaults = dict(methods=(MethodSpec("ml"), MethodSpec("llm"), MethodSpec("linear")), seeds=(0,),
                    k=3, base=BaseSettings(reg_lambda=1e-3, max_iter=300, tol=1e-5),
                    oracle=OracleSettings(kind="synthetic", accuracy=0.8, seed=5), dataset_path=str(path))
    return ExperimentConfig(**{**defaults, **overrides})


def _dataset(n=120, y=None):
    rng = np.random.default_rng(8)
    X = rng.standard_normal((n, 3))
    p = sigmoid(2.0 * X[:, 0] - X[:, 1])
    if y is None:
        y = (rng.uniform(size=n) < p).astype(float)
    return LabeledDataset.from_arrays(X, y=y, z=p, prefix="m")


def _file(tmp_path, ds=None):
    path = tmp_path / "data" / "d.csv"
    path.parent.mkdir(exist_ok=True)
    save_dataset(_dataset() if ds is None else ds, path)
    return path


def _memos(path):
    return sorted(path.parent.glob(f".{path.name}.cv-*.sfcache.npz"))


@pytest.fixture
def trained(monkeypatch):
    """The datasets ``cv_predict`` trains fold models on, through the harness, in call order."""
    calls = []

    def counted(ds, fold, trainer=None):
        calls.append(ds)
        return cv_predict(ds, fold, trainer=trainer)

    monkeypatch.setattr(harness, "cv_predict", counted)
    return calls


def _fresh(cfg, ds, seed=0):
    """The out-of-fold scores of ``ds`` from a retrain, as the parent's ``fit_inputs`` gave them."""
    fold, _ = harness._folds_and_labels(cfg, ds, seed)
    return cv_predict(ds, fold, trainer=harness._base_trainer(cfg, seed))


class TestHits:
    def test_a_hit_gives_the_bits_of_a_fresh_cv_predict(self, tmp_path, trained):
        path = _file(tmp_path)
        cfg, ds = _cfg(path), load_dataset(path)
        cold = harness.fit_inputs(cfg, ds, 0)
        assert len(trained) == 1 and len(_memos(path)) == 1
        warm = harness.fit_inputs(cfg, load_dataset(path), 0)
        assert len(trained) == 1
        want = _fresh(cfg, ds)
        for got in (cold, warm):
            assert got[0].dtype == want.dtype and got[0].tobytes() == want.tobytes()
            assert got[2].tobytes() == cold[2].tobytes()

    def test_the_memo_holds_its_whole_key_and_the_scores(self, tmp_path):
        path = _file(tmp_path)
        y_cv = harness.fit_inputs(_cfg(path), load_dataset(path), 0)[0]
        (memo,) = _memos(path)
        with np.load(memo, allow_pickle=False) as stored:
            key, scores = stored["key"].item(), stored["scores"]
        assert len(key) == 64 and memo.name == f".d.csv.cv-{key[:32]}.sfcache.npz"
        assert scores.tobytes() == y_cv.tobytes()

    def test_experiment_tune_and_the_fitting_commands_each_train_once_per_training_side(
            self, tmp_path, trained, capsys):
        path = _file(tmp_path)
        config = tmp_path / "run.cfg"
        config.write_text(f"dataset.path = {path}\nfolds.k = 3\nseeds = 4\noracle.seed = 5\n"
                          "methods = ml, llm, linear, adalinear(2), calibration(4,2)\n"
                          "tune.parameter = r\ntune.candidates = 1, 2, 4\n")
        commands = ["experiment", "tune", "fit-linear", "fit-adaptive", "calibrate"]

        def run_all(out):
            for command in commands:
                assert main([command, "--config", str(config), "--out", str(out)]) == 0
            return {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}

        cold = run_all(tmp_path / "cold")
        # experiment and tune share the training side; the fitting commands use every row
        assert [ds.n for ds in trained] == [96, 120] and len(_memos(path)) == 2
        warm = run_all(tmp_path / "warm")
        assert len(trained) == 2
        for memo in _memos(path):
            memo.unlink()
        assert run_all(tmp_path / "retrained") == warm == cold
        assert len(trained) == 4
        capsys.readouterr()


def _label_flipped(ds):
    y = ds.y.copy()
    y[7] = 1 - y[7]
    return LabeledDataset.from_arrays(ds.feature_matrix(), y=y, z=ds.z, ids=ds.ids())


def _feature_moved(ds):
    X = ds.feature_matrix().copy()
    X[7, 1] = np.nextafter(X[7, 1], np.inf)
    return LabeledDataset.from_arrays(X, y=ds.y, z=ds.z, ids=ds.ids())


# each change to what the fold models see, as (config, dataset, seed) from the unchanged ones
_CHANGES = {
    "reg_lambda": lambda cfg, ds: (replace(cfg, base=replace(cfg.base, reg_lambda=2e-3)), ds, 0),
    "tol": lambda cfg, ds: (replace(cfg, base=replace(cfg.base, tol=1e-4)), ds, 0),
    "max_iter": lambda cfg, ds: (replace(cfg, base=replace(cfg.base, max_iter=299)), ds, 0),
    "seed": lambda cfg, ds: (cfg, ds, 1),
    "k": lambda cfg, ds: (replace(cfg, k=4), ds, 0),
    "feature": lambda cfg, ds: (cfg, _feature_moved(ds), 0),
    "label": lambda cfg, ds: (cfg, _label_flipped(ds), 0),
}


class TestKey:
    @pytest.mark.parametrize("change", [*_CHANGES, "code"])
    def test_a_change_to_what_the_fold_models_see_retrains(self, tmp_path, trained, monkeypatch, change):
        path = _file(tmp_path)
        cfg, ds = _cfg(path), load_dataset(path)
        before = harness.fit_inputs(cfg, ds, 0)[0]
        changed = (cfg, ds, 0) if change == "code" else _CHANGES[change](cfg, ds)
        with monkeypatch.context() as patch:
            if change == "code":
                patch.setattr(harness, "_code_fingerprint", lambda: b"another build")
            got, again = (harness.fit_inputs(*changed)[0] for _ in range(2))
        assert len(trained) == 2 and len(_memos(path)) == 2
        assert got.tobytes() == again.tobytes() == _fresh(*changed).tobytes()
        # the first memo still serves its own inputs
        assert harness.fit_inputs(cfg, ds, 0)[0].tobytes() == before.tobytes()
        assert len(trained) == 2

    def test_the_code_fingerprint_is_read_on_first_use_and_binds_the_sources(self, monkeypatch):
        probe = "from scorefusion import harness; print(harness._code_fingerprint.cache_info().currsize)"
        imported = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                                  env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True)
        assert imported.stdout == "0\n"
        harness._code_fingerprint.cache_clear()
        first = harness._code_fingerprint()
        assert harness._code_fingerprint() is first and len(first) == 32
        harness._code_fingerprint.cache_clear()
        read = []
        monkeypatch.setattr(Path, "read_bytes", lambda self: read.append(self.name) or b"")
        assert harness._code_fingerprint() != first
        assert "harness.py" in read and "logistic.py" in read
        monkeypatch.undo()
        harness._code_fingerprint.cache_clear()
        assert harness._code_fingerprint() == first

    def test_a_run_without_a_dataset_file_writes_no_memo(self, tmp_path, trained):
        cfg = replace(_cfg(tmp_path / "unused.csv"), dataset_path=None)
        harness.fit_inputs(cfg, _dataset(), 0)
        harness.fit_inputs(cfg, _dataset(), 0)
        assert len(trained) == 2 and list(tmp_path.iterdir()) == []


class TestDamage:
    @pytest.mark.parametrize("damage", ["truncated", "garbage", "empty", "foreign-key", "no-scores"])
    def test_a_broken_memo_is_retrained_and_rewritten(self, tmp_path, trained, damage):
        path = _file(tmp_path)
        cfg = _cfg(path)
        good = harness.fit_inputs(cfg, load_dataset(path), 0)[0]
        (memo,) = _memos(path)
        with np.load(memo) as stored:
            key = stored["key"].item()
        blob = memo.read_bytes()
        if damage == "truncated":
            memo.write_bytes(blob[: len(blob) // 2])
        elif damage == "garbage":
            memo.write_bytes(b"PK\x03\x04 not a zip archive at all")
        elif damage == "empty":
            memo.write_bytes(b"")
        elif damage == "foreign-key":
            np.savez(memo, key=np.array("0" * 64), scores=np.zeros_like(good))
        else:
            np.savez(memo, key=np.array(key))
        assert harness.fit_inputs(cfg, load_dataset(path), 0)[0].tobytes() == good.tobytes()
        assert len(trained) == 2
        assert harness.fit_inputs(cfg, load_dataset(path), 0)[0].tobytes() == good.tobytes()
        assert len(trained) == 2 and _memos(path) == [memo]

    @pytest.mark.parametrize("scores, what", [
        *(pytest.param(lambda good, bad=bad: np.where(np.arange(len(good)) == 3, bad, good),
                       "a score that is not a number in [0, 1]", id=str(bad)) for bad in (np.nan, np.inf, 1.5)),
        pytest.param(lambda good: good[:-1], "a score column of the wrong length or type", id="short"),
        pytest.param(lambda good: good.reshape(-1, 1), "a score column of the wrong length or type", id="2-d"),
        pytest.param(lambda good: good.astype(np.float32), "a score column of the wrong length or type",
                     id="float32"),
    ])
    def test_a_bad_column_under_the_right_key_raises(self, tmp_path, scores, what):
        path = _file(tmp_path)
        cfg = _cfg(path)
        good = harness.fit_inputs(cfg, load_dataset(path), 0)[0]
        (memo,) = _memos(path)
        with np.load(memo) as stored:
            key = stored["key"].item()
        np.savez(memo, key=np.array(key), scores=scores(good))
        with pytest.raises(DatasetError) as err:
            harness.fit_inputs(cfg, load_dataset(path), 0)
        assert str(err.value) == f"{memo} holds {what}; delete it to retrain on {path}"
        memo.unlink()
        assert harness.fit_inputs(cfg, load_dataset(path), 0)[0].tobytes() == good.tobytes()

    def test_a_read_only_directory_still_runs(self, tmp_path, trained, monkeypatch):
        path = _file(tmp_path)
        cfg = _cfg(path)
        real_open = builtins.open

        def read_only(file, mode="r", *args, **kwargs):
            # the directory refuses a new file even to a process that may write anywhere
            if Path(file).parent == path.parent and set(mode) & set("wxa+"):
                raise PermissionError(13, "Permission denied", str(file))
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(data, "open", read_only, raising=False)
        path.parent.chmod(0o555)
        try:
            want = _fresh(cfg, load_dataset(path))
            for _ in range(2):
                assert harness.fit_inputs(cfg, load_dataset(path), 0)[0].tobytes() == want.tobytes()
        finally:
            path.parent.chmod(0o755)
        assert len(trained) == 2 and sorted(p.name for p in path.parent.iterdir()) == ["d.csv"]


class TestWarnings:
    def test_a_hit_warns_of_a_single_class_fold_as_a_retrain_does(self, tmp_path, trained):
        y = np.zeros(30)
        y[4] = 1.0  # the fold holding row 4 leaves its complement with label 0 alone
        path = _file(tmp_path, _dataset(30, y=y))
        cfg = _cfg(path)

        def caught():
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                harness.fit_inputs(cfg, load_dataset(path), 0)
            return [str(w.message) for w in seen if w.category is SingleClassFoldWarning]

        cold, warm = caught(), caught()
        assert len(trained) == 1
        assert len(cold) == 1 and cold[0].endswith(": training complement contains a single class")
        assert warm == cold


class TestScope:
    def test_transfer_never_writes_a_memo(self, tmp_path, trained):
        path = tmp_path / "data" / "fixed.jsonl"
        path.parent.mkdir()
        shutil.copy(ROOT / "tests" / "data" / "fixed.jsonl", path)
        cfg = _cfg(path, methods=(MethodSpec("transfer", (0,)), MethodSpec("transfer", (60,))),
                   test_fraction=0.3, transfer=TransferSettings(source_strata=("A",), target_strata=("B",)))
        for _ in range(2):
            run_transfer_experiment(cfg)
        assert len(trained) == 2 and _memos(path) == []

    def test_a_given_dataset_and_a_dataset_file_bind_the_rows_given(self, tmp_path, trained):
        # the memo sits beside dataset.path, but its key is the rows the folds are dealt from
        path = _file(tmp_path)
        cfg = _cfg(path)
        run_experiment(cfg)
        other = _label_flipped(load_dataset(path))
        assert run_experiment(cfg, dataset=other).to_json() == run_experiment(
            replace(cfg, dataset_path=None), dataset=other).to_json()
        assert len(trained) == 3 and len(_memos(path)) == 2


class TestNaming:
    def test_the_memo_and_its_temporary_file_are_ignored_and_skipped(self, tmp_path, monkeypatch):
        patterns = (ROOT / ".gitignore").read_text(encoding="utf-8").splitlines()
        path = _file(tmp_path)
        replaced, real_replace = [], data.os.replace
        monkeypatch.setattr(data.os, "replace", lambda src, dst: replaced.append((src, dst)) or real_replace(src, dst))
        harness.fit_inputs(_cfg(path), load_dataset(path), 0)
        (memo,) = _memos(path)
        (tmp,) = [Path(src) for src, dst in replaced if Path(dst) == memo]
        assert ".*.sfcache.npz" in patterns and ".*.sfcache.npz.*.tmp" in patterns
        assert fnmatch.fnmatchcase(memo.name, ".*.sfcache.npz")
        assert fnmatch.fnmatchcase(tmp.name, ".*.sfcache.npz.*.tmp")
        spec = importlib.util.spec_from_file_location("same_bits", ROOT / "tools" / "same_bits.py")
        same_bits = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(same_bits)
        assert sorted(same_bits._hashes(tmp_path)) == ["data/d.csv"]
