"""Each demo prints exactly what it printed when its output was pinned in tests/data/demo_<name>.txt.

Every demo runs in a fresh interpreter, from an empty working directory, with
the package's sources first on its path; the demos are seeded, so their
output is fixed byte for byte. README's Python quick start runs too.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scorefusion

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(scorefusion.__file__).resolve().parent.parent)
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_pinned_output():
    pinned = sorted(p.stem[len("demo_"):] for p in (ROOT / "tests" / "data").glob("demo_*.txt"))
    assert pinned == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_is_unchanged(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, str(demo)], env=env, cwd=tmp_path,
                          capture_output=True, check=True, timeout=300)
    assert done.stdout == (ROOT / "tests" / "data" / f"demo_{demo.stem}.txt").read_bytes()


def test_readme_quick_start_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    rng = np.random.default_rng(0)
    X = rng.standard_normal((200, 3))
    y = (X @ np.array([1.5, -1.0, 0.5]) + 0.3 * rng.standard_normal(200) > 0).astype(int)
    exec(compile(block, "README.md quick start", "exec"), {"X": X, "y": y})
    assert 0.5 < float(capsys.readouterr().out) <= 1.0
