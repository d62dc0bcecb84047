"""tools/same_bits.py: the output-byte comparison of two source trees on the benchmark's workloads."""

import importlib.util
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "same_bits.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("same_bits", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _copy_tree(dest: Path) -> Path:
    for part in ("src", "bench"):
        shutil.copytree(ROOT / part, dest / part, ignore=shutil.ignore_patterns("__pycache__", ".*.sfcache.npz*"))
    return dest


def test_two_copies_of_this_tree_write_the_same_bytes(tmp_path):
    old, new = _copy_tree(tmp_path / "old"), _copy_tree(tmp_path / "new")
    proc = subprocess.run([sys.executable, str(TOOL), "--trees", str(old), str(new),
                           "--workload", "experiment-csv", "--seed", "2001"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    compared = re.search(r"^experiment-csv seed 2001: (\d+) outputs, 0 differ$", proc.stdout, re.M)
    assert compared and int(compared.group(1)) > 0, proc.stdout  # reports, tuned values and artifacts
    assert proc.stdout.splitlines()[-1] == "same bits: no output differs"
    assert sorted(p.name for p in old.iterdir()) == ["bench", "src"]  # the trees are only read


def test_differing_and_missing_outputs_are_listed(tmp_path, monkeypatch, capsys):
    tool = _load_tool()
    runs = {"old": {"cold/out/report.json": "1", "warm/out/report.json": "1", "cold/out/a.json": "2"},
            "new": {"cold/out/report.json": "1", "warm/out/report.json": "9", "cold/out/b.json": "2"}}

    def fake_outputs(tree, workload, seed, run):
        run.mkdir(parents=True)
        return runs[run.parent.name]  # the run directory sits under scratch/old or scratch/new

    monkeypatch.setattr(tool, "_outputs", fake_outputs)
    trees = [_copy_tree(tmp_path / side) for side in ("old", "new")]
    differ = tool.compare(*trees, ["experiment-csv"], [7], tmp_path / "scratch")
    assert differ == ["experiment-csv/7/cold/out/a.json", "experiment-csv/7/cold/out/b.json",
                      "experiment-csv/7/warm/out/report.json"]
    assert capsys.readouterr().out.splitlines() == [
        "experiment-csv seed 7: 4 outputs, 3 differ",
        "  only in old: cold/out/a.json",
        "  only in new: cold/out/b.json",
        "  differs: warm/out/report.json",
    ]


def test_a_tree_without_sources_is_refused(tmp_path):
    (tmp_path / "empty").mkdir()
    proc = subprocess.run([sys.executable, str(TOOL), "--trees", str(tmp_path / "empty"), str(ROOT),
                           "--workload", "experiment-csv", "--seed", "1"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "holds no src/scorefusion" in proc.stderr
