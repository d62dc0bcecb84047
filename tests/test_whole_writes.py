"""Every file the package writes appears whole or not at all.

Each writer fills a temporary file beside its target and renames it onto the
target. A writer that is killed, interrupted or fails mid-write therefore
leaves the target as it was: its old bytes, or no file if there was none,
never a prefix that loads as a smaller dataset.

The kill tests run the writer in a child process whose file objects stop in
the middle of the write: once 64 KiB have reached a file opened for writing,
the write in progress puts half of its text in the file, flushes it, prints
``paused`` and sleeps. The test then kills the child.
"""

import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scorefusion
from scorefusion import LabeledDataset, WeightFunction, data, load_dataset, save_dataset

SRC = str(Path(scorefusion.__file__).resolve().parent.parent)

_CHILD = r"""
import builtins, io, signal, sys, time
import numpy as np
from scorefusion import BaseModel, LabeledDataset, MetricReport, save_dataset
from scorefusion.logistic import TrainMeta

signal.signal(signal.SIGINT, signal.default_int_handler)  # even if the parent ignores SIGINT
case, target = sys.argv[1:]
rng = np.random.default_rng(0)
if case in ("csv", "jsonl"):
    ds = LabeledDataset.from_arrays(rng.standard_normal((20000, 4)), y=rng.integers(0, 2, 20000),
                                    z=rng.uniform(size=20000))
elif case == "artifact":
    w = rng.standard_normal(20000)
    model = BaseModel(w, 0.5, 0.01, w, np.abs(w) + 1, TrainMeta(10, 0.5, 0))
else:
    report = MetricReport.build([(s, {"ml": {"accuracy": rng.uniform()}}) for s in range(20000)], {})

real_open, written = io.open, [0]

class Paused:
    def __init__(self, fh):
        self._fh = fh
    def __enter__(self):
        return self
    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)
    def __getattr__(self, name):
        return getattr(self._fh, name)
    def write(self, text):
        written[0] += len(text)
        if written[0] < 1 << 16:
            return self._fh.write(text)
        self._fh.write(text[: len(text) // 2])
        self._fh.flush()
        print("paused", flush=True)
        time.sleep(120)

def pausing_open(file, mode="r", *args, **kwargs):
    fh = real_open(file, mode, *args, **kwargs)
    return Paused(fh) if set(mode) & set("wxa+") else fh

builtins.open = io.open = pausing_open  # the package's open, and pathlib's
if case in ("csv", "jsonl"):
    save_dataset(ds, target)
elif case == "artifact":
    model.save(target)
else:
    report.save(target)
print("finished", flush=True)
"""

# case -> the target's file name; a report is saved into a directory and writes report.json first
_CASES = {"csv": "data.csv", "jsonl": "data.jsonl", "artifact": "base_model.json", "report": "report.json"}


def _files(folder: Path) -> dict:
    return {p.name: p.read_bytes() for p in folder.iterdir()}


@pytest.mark.parametrize("existing", [True, False], ids=["over-a-file", "new-file"])
@pytest.mark.parametrize("sig", [signal.SIGKILL, signal.SIGINT], ids=["SIGKILL", "SIGINT"])
@pytest.mark.parametrize("case", sorted(_CASES))
def test_a_writer_stopped_mid_write_leaves_the_target_as_it_was(tmp_path, case, sig, existing):
    folder = tmp_path / "out"
    folder.mkdir()
    if existing:
        (folder / _CASES[case]).write_bytes(b"the previous run's bytes\n")
        if case == "report":
            (folder / "report.csv").write_bytes(b"seed,method,metric,value\n")
    before = _files(folder)
    target = folder if case == "report" else folder / _CASES[case]
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    with subprocess.Popen([sys.executable, "-c", _CHILD, case, str(target)], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as child:
        try:
            said = child.stdout.readline()
            child.send_signal(sig)
            out, err = child.communicate(timeout=120)
        finally:
            child.kill()  # a no-op once it has exited
    assert said == "paused\n", said + out + err
    after = _files(folder)
    pattern = re.escape(_CASES[case]) + r"\.[0-9a-f]{12}\.tmp"
    temporary = {name for name in after if re.fullmatch(pattern, name)}
    assert {name: after[name] for name in set(after) - temporary} == before
    if sig == signal.SIGINT:  # the writer removes its temporary file on the way out
        assert "KeyboardInterrupt" in err and not temporary
    else:  # nothing runs after a SIGKILL: the temporary file stays, holding the prefix
        assert len(temporary) == 1 and after[temporary.pop()]


def _dataset(n=50):
    rng = np.random.default_rng(1)
    return LabeledDataset.from_arrays(rng.standard_normal((n, 2)), y=rng.integers(0, 2, n))


class _FullDisk:
    """A file object whose tenth write fails as a full disk does."""

    def __init__(self, fh):
        self._fh, self._writes = fh, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)

    def write(self, text):
        self._writes += 1
        if self._writes == 10:
            raise OSError(28, "No space left on device")
        return self._fh.write(text)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_a_write_that_fails_leaves_the_old_file_and_no_temporary_file(tmp_path, monkeypatch, fmt):
    path = tmp_path / f"d.{fmt}"
    save_dataset(_dataset(3), path)
    before = path.read_bytes()
    monkeypatch.setattr(data, "open", lambda *args, **kwargs: _FullDisk(open(*args, **kwargs)), raising=False)
    with pytest.raises(OSError, match="No space left"):
        save_dataset(_dataset(), path)
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    assert path.read_bytes() == before


def test_a_symlinked_target_is_replaced_not_written_through(tmp_path):
    real = tmp_path / "real.json"
    real.write_text("old\n")
    link = tmp_path / "link.json"
    link.symlink_to(real)
    WeightFunction.constant(0.25).save(link)
    assert not link.is_symlink() and real.read_text() == "old\n"
    assert WeightFunction.load(link) == WeightFunction.constant(0.25)


_MODES = r"""
import json, os, sys
from types import SimpleNamespace
from scorefusion import LabeledDataset, MetricReport, WeightFunction, cli, load_dataset, save_dataset

os.umask(int(sys.argv[1], 8))
out = sys.argv[2]
ds = LabeledDataset.from_arrays([[0.5], [1.5]], y=[0, 1])
save_dataset(ds, f"{out}/d.csv")
save_dataset(ds, f"{out}/d.jsonl")
load_dataset(f"{out}/d.csv")
WeightFunction.constant(0.25).save(f"{out}/alpha.json")
MetricReport.build([(0, {"ml": {"accuracy": 1.0}})], {}).save(out)
cli._write_doc(SimpleNamespace(out_dir=out), "tuned.json", "{}")
print(json.dumps({name: os.stat(f"{out}/{name}").st_mode & 0o777 for name in sorted(os.listdir(out))}))
"""


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
def test_a_new_file_takes_the_umask_permissions(tmp_path, umask):
    # as an open(path, "w") that creates the file gives it: 0o666 without the umask's bits
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", _MODES, oct(umask), str(tmp_path)], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    modes = json.loads(done.stdout.splitlines()[-1])  # after _write_doc's "wrote ..."
    assert sorted(modes) == [".d.csv.sfcache.npz", "alpha.json", "d.csv", "d.jsonl", "report.csv",
                             "report.json", "tuned.json"]
    assert set(modes.values()) == {0o666 & ~umask}


def test_a_replaced_file_takes_the_umask_permissions_not_its_own(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("old\n")
    path.chmod(0o600)
    old = os.umask(0o022)
    try:
        save_dataset(_dataset(), path)
    finally:
        os.umask(old)
    assert path.stat().st_mode & 0o777 == 0o644
    assert load_dataset(path).n == 50
