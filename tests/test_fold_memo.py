"""The memos beside a dataset file: every command that reads the file trains each model once, as
long as the inputs, settings and code that model sees are the same. That covers the fold models'
out-of-fold scores, the base model and each transfer(m) model. A hit gives the bits a retrain
gives, anything wrong with a memo costs only a retrain or names the memo, and the memos that
other code wrote are pruned."""

import builtins
import fnmatch
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import warnings
from dataclasses import asdict, replace
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
    train,
    train_augmented,
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


def _memos(path, kind="cv"):
    return sorted(path.parent.glob(f".{path.name}.{kind}-*.sfcache.npz"))


@pytest.fixture
def models(monkeypatch):
    """The kind of each model the harness trains, in call order: "log" (``train``), "squared"
    (``train_augmented`` without augmented rows) or "transfer" (with them)."""
    calls = []
    real_train, real_augmented = harness.train, harness.train_augmented

    def train(ds, *args, **kwargs):
        calls.append("log")
        return real_train(ds, *args, **kwargs)

    def train_augmented(ds, augmented=None, *args, **kwargs):
        calls.append("squared" if augmented is None else "transfer")
        return real_augmented(ds, augmented, *args, **kwargs)

    monkeypatch.setattr(harness, "train", train)
    monkeypatch.setattr(harness, "train_augmented", train_augmented)
    return calls


@pytest.fixture
def trained(monkeypatch):
    """The datasets ``cv_predict`` trains fold models on, through the harness, in call order."""
    calls = []

    def counted(ds, fold, trainer=None):
        calls.append(ds)
        return cv_predict(ds, fold, trainer=trainer)

    monkeypatch.setattr(harness, "cv_predict", counted)
    return calls


def _fresh(cfg, ds, seed=0, loss="log"):
    """The out-of-fold scores of ``ds`` from a retrain of the ``loss`` fold models."""
    fold, _ = harness._folds_and_labels(cfg, ds, seed)
    return cv_predict(ds, fold, trainer=harness._base_trainer(cfg, seed, loss))


def _tag():
    """The code's tag in each memo name."""
    return harness._code_fingerprint().hex()[:8]


def _fixed_jsonl(tmp_path):
    path = tmp_path / "data" / "fixed.jsonl"
    path.parent.mkdir()
    shutil.copy(ROOT / "tests" / "data" / "fixed.jsonl", path)
    return path


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
        assert len(key) == 64 and memo.name == f".d.csv.cv-{_tag()}-{key[:32]}.sfcache.npz"
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
        assert got.tobytes() == again.tobytes() == _fresh(*changed).tobytes()
        if change == "code":
            # the new memo's write prunes the old one, and going back to this code prunes it in turn
            assert len(trained) == 2 and len(_memos(path)) == 1
            assert harness.fit_inputs(cfg, ds, 0)[0].tobytes() == before.tobytes()
            assert len(trained) == 3 and _memos(path)[0].name.startswith(f".d.csv.cv-{_tag()}-")
            return
        assert len(trained) == 2 and len(_memos(path)) == 2
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


class TestLoss:
    def test_each_loss_has_its_own_memo_and_its_own_bits(self, tmp_path, trained):
        path = _file(tmp_path)
        cfg, ds = _cfg(path), load_dataset(path)
        losses = ("log", "squared")
        cold = {loss: harness.fit_inputs(cfg, ds, 0, loss=loss)[0] for loss in losses}
        assert len(trained) == 2 and len(_memos(path)) == 2
        warm = {loss: harness.fit_inputs(cfg, load_dataset(path), 0, loss=loss)[0] for loss in losses}
        assert len(trained) == 2
        for loss in losses:
            want = _fresh(cfg, ds, loss=loss)
            assert cold[loss].tobytes() == warm[loss].tobytes() == want.tobytes()
        assert cold["log"].tobytes() != cold["squared"].tobytes()

    @pytest.mark.parametrize("settings", [dict(slack_a=0.35), dict(round_oracle=True)], ids=str)
    def test_the_transfer_settings_reuse_the_squared_loss_memo(self, tmp_path, trained, settings):
        # no fold model gets augmented rows, the only rows these settings act on
        path = _file(tmp_path)
        cfg, ds = _cfg(path), load_dataset(path)
        harness.fit_inputs(cfg, ds, 0, loss="squared")
        changed = replace(cfg, transfer=TransferSettings(**settings))
        got = harness.fit_inputs(changed, load_dataset(path), 0, loss="squared")[0]
        assert len(trained) == 1 and len(_memos(path)) == 1
        fold, _ = harness._folds_and_labels(cfg, ds, 0)
        tr = changed.transfer
        want = cv_predict(ds, fold, trainer=lambda subset: train_augmented(
            subset, None, slack_a=tr.slack_a, **asdict(cfg.base), seed=0,
            round_oracle_scores=tr.round_oracle))
        assert got.tobytes() == want.tobytes()


class TestScope:
    def test_transfer_trains_each_seeds_fold_models_once(self, tmp_path, trained):
        path = _fixed_jsonl(tmp_path)
        cfg = _cfg(path, methods=(MethodSpec("transfer", (0,)), MethodSpec("transfer", (60,))),
                   seeds=(0, 1), test_fraction=0.3,
                   transfer=TransferSettings(source_strata=("A",), target_strata=("B",)))

        def reports():
            report = run_transfer_experiment(cfg)
            return report.to_json(), report.to_csv()

        cold = reports()
        assert len(trained) == 2 and len(_memos(path)) == 2
        warm = reports()
        assert len(trained) == 2
        for memo in _memos(path):
            memo.unlink()
        assert reports() == warm == cold
        assert len(trained) == 4 and len(_memos(path)) == 2

    def test_transfer_through_the_cli_trains_cold_and_reads_the_memo_warm(self, tmp_path, trained):
        path = _fixed_jsonl(tmp_path)
        config = tmp_path / "run.cfg"
        config.write_text(f"dataset.path = {path}\nfolds.k = 3\nseeds = 0, 1\noracle.seed = 5\n"
                          "dataset.test_fraction = 0.3\nmethods = transfer(0), transfer(60)\n"
                          "transfer.source_strata = A\ntransfer.target_strata = B\n")

        def run(out):
            assert main(["transfer", "--config", str(config), "--out", str(out)]) == 0
            return {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}

        cold = run(tmp_path / "cold")
        assert len(trained) == 2 and len(_memos(path)) == 2
        assert run(tmp_path / "warm") == cold
        assert len(trained) == 2

    def test_a_given_dataset_and_a_dataset_file_bind_the_rows_given(self, tmp_path, trained):
        # the memo sits beside dataset.path, but its key is the rows the folds are dealt from
        path = _file(tmp_path)
        cfg = _cfg(path)
        run_experiment(cfg)
        other = _label_flipped(load_dataset(path))
        assert run_experiment(cfg, dataset=other).to_json() == run_experiment(
            replace(cfg, dataset_path=None), dataset=other).to_json()
        assert len(trained) == 3 and len(_memos(path)) == 2


class TestPruning:
    def test_a_write_unlinks_the_memos_of_other_code_and_keeps_live_settings(self, tmp_path, monkeypatch):
        path = _file(tmp_path)
        cfg, ds = _cfg(path), load_dataset(path)
        untagged = path.with_name(".d.csv.cv-" + "0" * 32 + ".sfcache.npz")
        foreign = path.with_name(".d.csv.cv-ffffffff-" + "0" * 32 + ".sfcache.npz")
        # another file's memos, the memo of a file whose name extends this one's, a temporary file
        kept = [path.with_name(".e.csv.cv-ffffffff-" + "0" * 32 + ".sfcache.npz"),
                path.with_name(".d.csv.cv-x.cv-ffffffff-" + "0" * 32 + ".sfcache.npz"),
                path.with_name(foreign.name + ".1a2b.tmp")]
        for blob in (untagged, *kept):
            blob.write_bytes(b"")
        live = [(cfg, 0, "log"), (cfg, 1, "log"), (cfg, 0, "squared"), (replace(cfg, k=4), 0, "log"),
                (replace(cfg, base=replace(cfg.base, tol=1e-4)), 0, "log")]
        for conf, seed, loss in live:
            harness.fit_inputs(conf, ds, seed, loss=loss)
        memos = sorted(set(_memos(path)) - set(kept))
        assert len(memos) == len(live) and all(m.name.startswith(f".d.csv.cv-{_tag()}-") for m in memos)
        assert not untagged.exists()
        # a hit writes nothing, so it prunes nothing
        foreign.write_bytes(b"")
        harness.fit_inputs(cfg, ds, 0)
        assert sorted(set(_memos(path)) - set(kept)) == sorted([*memos, foreign])
        # the first write under other code unlinks every memo of this file but its own
        monkeypatch.setattr(harness, "_code_fingerprint", lambda: b"another build")
        harness.fit_inputs(cfg, ds, 0)
        (memo,) = set(_memos(path)) - set(kept)
        assert memo.name.startswith(f".d.csv.cv-{b'another build'.hex()[:8]}-")
        assert all(blob.exists() for blob in kept)

    def test_a_memo_that_cannot_be_unlinked_is_left(self, tmp_path, monkeypatch):
        path = _file(tmp_path)
        cfg = _cfg(path)
        untagged = path.with_name(".d.csv.cv-" + "0" * 32 + ".sfcache.npz")
        untagged.write_bytes(b"")
        real_unlink = Path.unlink

        def refuse(self, missing_ok=False):
            if self == untagged:
                raise PermissionError(13, "Permission denied", str(self))
            return real_unlink(self, missing_ok)

        monkeypatch.setattr(Path, "unlink", refuse)
        want = _fresh(cfg, load_dataset(path))
        assert harness.fit_inputs(cfg, load_dataset(path), 0)[0].tobytes() == want.tobytes()
        assert untagged.exists() and len(_memos(path)) == 2


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


def _write_config(tmp_path, path, **keys):
    config = tmp_path / "run.cfg"
    lines = {"dataset.path": path, "folds.k": 3, "seeds": "0, 1", "oracle.seed": 5, **keys}
    config.write_text("".join(f"{key} = {value}\n" for key, value in lines.items()))
    return config


def _run(command, config, out):
    """The bytes of every file that ``command`` writes under ``out``, by relative path."""
    assert main([command, "--config", str(config), "--out", str(out)]) == 0
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}


def _every_memo(path):
    return sorted(path.parent.glob(f".{path.name}.*-*.sfcache.npz"))


class TestEveryModel:
    @pytest.mark.parametrize("command, keys, cold", [
        pytest.param("experiment", {"methods": "ml, linear"}, ["log"] * 8, id="experiment"),
        pytest.param("transfer", {"methods": "transfer(0), transfer(60)", "dataset.test_fraction": 0.3,
                                  "transfer.source_strata": "A", "transfer.target_strata": "B"},
                     (["squared"] * 4 + ["transfer"]) * 2, id="transfer"),
    ])
    def test_a_warm_run_trains_no_model_and_writes_the_same_bytes(
            self, tmp_path, models, capsys, command, keys, cold):
        path = _fixed_jsonl(tmp_path)
        config = _write_config(tmp_path, path, **keys)
        first = _run(command, config, tmp_path / "cold")
        assert models == cold
        kinds = ["base", "cv"] + (["transfer"] if command == "transfer" else [])
        assert sorted({memo.name.split(".")[3].split("-")[0] for memo in _every_memo(path)}) == kinds
        assert all(fnmatch.fnmatchcase(memo.name, ".*.sfcache.npz") for memo in _every_memo(path))
        assert _run(command, config, tmp_path / "warm") == first
        assert len(models) == len(cold)
        for memo in _every_memo(path):
            memo.unlink()
        assert _run(command, config, tmp_path / "retrained") == first
        assert models == cold * 2
        capsys.readouterr()

    def test_fit_base_trains_once_and_writes_the_same_model(self, tmp_path, models, capsys):
        path = _file(tmp_path)
        config = _write_config(tmp_path, path, seeds=3)
        first = _run("fit-base", config, tmp_path / "cold")
        assert models == ["log"] and len(_memos(path, "base")) == 1
        assert _run("fit-base", config, tmp_path / "warm") == first == _run("fit-base", config, tmp_path / "again")
        assert models == ["log"]
        want = train(load_dataset(path), **asdict(BaseSettings()), seed=3)
        assert first == {"base_model.json": (want.to_json() + "\n").encode()}
        # fit-linear shares the side's digest, not its memo
        _run("fit-linear", config, tmp_path / "linear")
        assert models == ["log"] * 4 and len(_memos(path, "base")) == 1
        capsys.readouterr()


def _drawn(n=20):
    """Oracle-scored rows without labels, as a transfer(m) model gets them."""
    rng = np.random.default_rng(9)
    return LabeledDataset.from_arrays(rng.standard_normal((n, 3)), z=rng.uniform(size=n), prefix="a")


def _z_moved(drawn):
    z = drawn.z.copy()
    z[3] = 1.0 - z[3]
    return LabeledDataset.from_arrays(drawn.feature_matrix(), z=z, ids=drawn.ids())


def _x_moved(drawn):
    X = drawn.feature_matrix().copy()
    X[3, 1] = np.nextafter(X[3, 1], np.inf)
    return LabeledDataset.from_arrays(X, z=drawn.z, ids=drawn.ids())


def _transfer_settings(cfg, **settings):
    return replace(cfg, transfer=replace(cfg.transfer, **settings))


# each change to what a transfer(m) model sees, as (config, drawn rows, seed, m) from the unchanged ones
_TRANSFER_CHANGES = {
    "z": lambda cfg, drawn: (cfg, _z_moved(drawn), 0, 20),
    "feature": lambda cfg, drawn: (cfg, _x_moved(drawn), 0, 20),
    "slack_a": lambda cfg, drawn: (_transfer_settings(cfg, slack_a=0.35), drawn, 0, 20),
    "round_oracle": lambda cfg, drawn: (_transfer_settings(cfg, round_oracle=True), drawn, 0, 20),
    "m": lambda cfg, drawn: (cfg, drawn, 0, 21),
    "seed": lambda cfg, drawn: (cfg, drawn, 1, 20),
    "reg_lambda": lambda cfg, drawn: (replace(cfg, base=replace(cfg.base, reg_lambda=2e-3)), drawn, 0, 20),
}


def _transfer_model(cfg, ds, drawn, seed, m):
    return harness._Side(cfg, ds, seed, "squared").transfer_model(drawn, m)


class TestTransferKey:
    @pytest.mark.parametrize("change", list(_TRANSFER_CHANGES))
    def test_a_change_retrains_the_transfer_model_and_keeps_the_other_memos(
            self, tmp_path, models, change):
        path = _file(tmp_path)
        cfg, ds, drawn = _cfg(path), load_dataset(path), _drawn()
        side = harness._Side(cfg, ds, 0, "squared")
        side.fit_inputs()
        side.base_model()
        before = side.transfer_model(drawn, 20)
        assert models == ["squared"] * 4 + ["transfer"]
        changed = _TRANSFER_CHANGES[change](cfg, drawn)
        got = _transfer_model(changed[0], ds, *changed[1:])
        assert models[5:] == ["transfer"] and len(_memos(path, "transfer")) == 2
        c_cfg, c_drawn, c_seed, _ = changed
        want = train_augmented(ds, c_drawn, slack_a=c_cfg.transfer.slack_a, **asdict(c_cfg.base),
                               seed=c_seed, round_oracle_scores=c_cfg.transfer.round_oracle)
        assert got.to_json() == want.to_json()
        # every memo of the unchanged inputs still serves them
        side = harness._Side(cfg, load_dataset(path), 0, "squared")
        assert side.transfer_model(drawn, 20).to_json() == before.to_json()
        side.fit_inputs()
        side.base_model()
        assert len(models) == 6 and len(_every_memo(path)) == 4

    def test_a_hit_gives_the_model_a_retrain_gives(self, tmp_path, models):
        path = _file(tmp_path)
        cfg, ds, drawn = _cfg(path), load_dataset(path), _drawn()
        cold, warm = (_transfer_model(cfg, load_dataset(path), drawn, 0, 20) for _ in range(2))
        assert models == ["transfer"]
        want = train_augmented(ds, drawn, slack_a=cfg.transfer.slack_a, **asdict(cfg.base), seed=0)
        for got in (cold, warm):
            assert got.to_json() == want.to_json()
            assert got.score_dataset(ds).tobytes() == want.score_dataset(ds).tobytes()


def _model_memo(tmp_path, kind):
    """(config, dataset file, the ``kind`` memo, its key, a thunk that reads or trains the model)."""
    path = _file(tmp_path)
    cfg, drawn = _cfg(path), _drawn()

    def model():
        side = harness._Side(cfg, load_dataset(path), 0, "squared")
        return side.base_model() if kind == "base" else side.transfer_model(drawn, 20)

    good = model()
    (memo,) = _memos(path, kind)
    with np.load(memo) as stored:
        key = stored["key"].item()
    return good, memo, key, model


def _doc(good, **fields):
    return np.array(json.dumps({**json.loads(good.to_json()), **fields}))


class TestBaseKey:
    def test_the_base_model_key_binds_the_seed_and_the_loss(self, tmp_path, models):
        path = _file(tmp_path)
        cfg, ds = _cfg(path), load_dataset(path)
        sides = [(0, "log"), (1, "log"), (2**70, "log"), (0, "squared")]
        cold = [harness._Side(cfg, ds, seed, loss).base_model() for seed, loss in sides]
        warm = [harness._Side(cfg, ds, seed, loss).base_model() for seed, loss in sides]
        assert models == ["log", "log", "log", "squared"] and len(_memos(path, "base")) == 4
        assert [model.train_meta.seed for model in warm] == [0, 1, 2**70, 0]
        assert [model.to_json() for model in warm] == [model.to_json() for model in cold]


class TestModelDamage:
    @pytest.mark.parametrize("kind", ["base", "transfer"])
    @pytest.mark.parametrize("damage", ["truncated", "garbage", "empty", "foreign-key", "no-model",
                                        "not-json", "inconsistent"])
    def test_a_broken_model_memo_is_retrained_and_rewritten(self, tmp_path, models, kind, damage):
        good, memo, key, model = _model_memo(tmp_path, kind)
        blob = memo.read_bytes()
        if damage == "truncated":
            memo.write_bytes(blob[: len(blob) // 2])
        elif damage == "garbage":
            memo.write_bytes(b"PK\x03\x04 not a zip archive at all")
        elif damage == "empty":
            memo.write_bytes(b"")
        elif damage == "foreign-key":
            np.savez(memo, key=np.array("0" * 64), model=np.array(good.to_json()))
        elif damage == "no-model":
            np.savez(memo, key=np.array(key))
        elif damage == "not-json":
            np.savez(memo, key=np.array(key), model=np.array("{"))
        else:
            np.savez(memo, key=np.array(key), model=_doc(good, dim=good.dim + 1))
        for _ in range(2):
            assert model().to_json() == good.to_json()
        assert len(models) == 2 and len(_memos(memo.parent / "d.csv", kind)) == 1

    @pytest.mark.parametrize("kind", ["base", "transfer"])
    @pytest.mark.parametrize("fields, what", [
        pytest.param(lambda doc: {"weights": [np.nan] + doc["weights"][1:]},
                     "a model parameter that is not a finite number", id="nan-weight"),
        pytest.param(lambda doc: {"intercept": np.inf}, "a model parameter that is not a finite number",
                     id="inf-intercept"),
        pytest.param(lambda doc: {"feature_scale": [0.0] + doc["feature_scale"][1:]},
                     "a feature scale that is not positive", id="zero-scale"),
        pytest.param(lambda doc: {"feature_scale": [-1.0] + doc["feature_scale"][1:]},
                     "a feature scale that is not positive", id="negative-scale"),
        pytest.param(lambda doc: {key: doc[key][:2] for key in ("weights", "feature_mean", "feature_scale")}
                     | {"dim": 2}, "a model of dimension 2, not 3", id="dimension"),
    ])
    def test_a_bad_model_under_the_right_key_raises(self, tmp_path, kind, fields, what):
        good, memo, key, model = _model_memo(tmp_path, kind)
        np.savez(memo, key=np.array(key), model=_doc(good, **fields(json.loads(good.to_json()))))
        with pytest.raises(DatasetError) as err:
            model()
        assert str(err.value) == f"{memo} holds {what}; delete it to retrain on {memo.parent / 'd.csv'}"
        memo.unlink()
        assert model().to_json() == good.to_json()
