"""Check that two source trees write the same bytes on the benchmark's workloads.

Run from anywhere:

    python3 tools/same_bits.py --parent REV       # this checkout against `git archive REV`
    python3 tools/same_bits.py --trees OLD NEW    # two source trees; needs no git

``--workload NAME`` and ``--seed N`` (each repeatable) narrow the run; by
default it covers every workload in ``bench/inputs.py`` on seeds 2001-2003.

For each tree, workload and seed, one child process puts that tree's ``src/``
and ``bench/`` first on the path, writes the workload's inputs with
``bench/inputs.py`` and runs one session of ``bench/workloads.py`` on them
(cold: no dataset sidecar or cache index on disk yet). A second child sets
the workload up again and runs one more session over the same files (warm).
After each session the child hashes every file under its work directory
except the inputs as written (configs included), the manifest and the
``.sfcache.npz`` files, the dataset sidecars and the out-of-fold memos
(``.<name>.cv-<hex>.sfcache.npz``) beside them: reports, tuned values,
per-seed artifacts, saved datasets and score caches. So the warm session
reads both the sidecars and the memos that the cold one wrote. Both trees are read only: the children
cache no bytecode, and every file they write goes to a temporary directory
that is removed at the end.

Exit status: 0 when every output matches, 1 when some output differs or
exists in one tree only (each is listed), 2 when a tree cannot be run or a
session fails the workload's own output checks.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (2001, 2002, 2003)
PHASES = ("cold", "warm")
CHILD_TIMEOUT_S = 600


class SameBitsError(RuntimeError):
    """A tree could not be run, or a session failed its own output checks."""


def _hashes(work: Path) -> dict:
    """sha256 of every file under ``work`` but the manifest, dataset sidecars and out-of-fold memos,
    by relative path."""
    out = {}
    for path in sorted(work.rglob("*")):
        rel = path.relative_to(work).as_posix()
        if path.is_file() and rel != "manifest.json" and ".sfcache.npz" not in path.name:
            out[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def run_phase(tree: Path, workload: str, seed: int, run: Path, phase: str) -> None:
    """Child process body: one session of ``workload`` from ``tree``, outputs hashed into ``run``."""
    sys.dont_write_bytecode = True
    src = (tree / "src").resolve()
    sys.path[:0] = [str(src), str(tree / "bench")]
    import inputs
    import scorefusion
    import workloads

    if not Path(scorefusion.__file__).resolve().is_relative_to(src):
        raise SameBitsError(f"scorefusion was imported from {scorefusion.__file__}, not from {src}")
    work = run / "work"
    if phase == "cold":
        work.mkdir()
        manifest = inputs.WRITERS[workload](work, seed)
        (work / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        (run / "inputs.json").write_text(json.dumps(_hashes(work)), encoding="utf-8")
    manifest = json.loads((work / "manifest.json").read_text(encoding="utf-8"))
    record = workloads.WORKLOADS[workload](manifest, work).session()
    written = json.loads((run / "inputs.json").read_text(encoding="utf-8"))
    outputs = {rel: h for rel, h in _hashes(work).items() if written.get(rel) != h}
    (run / f"{phase}.json").write_text(json.dumps({"outputs": outputs, "problems": record["problems"]}),
                                       encoding="utf-8")


def _outputs(tree: Path, workload: str, seed: int, run: Path) -> dict:
    """{phase/path: sha256} of the cold and the warm session of ``tree``."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    run.mkdir(parents=True)
    outputs = {}
    for phase in PHASES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--phase", str(tree), workload,
                str(seed), str(run), phase]
        proc = subprocess.run(argv, env=env, cwd=run, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise SameBitsError(f"{tree}: {workload} seed {seed} {phase} exited with "
                                f"{proc.returncode}\n{proc.stderr.strip()}")
        doc = json.loads((run / f"{phase}.json").read_text(encoding="utf-8"))
        if doc["problems"]:
            raise SameBitsError(f"{tree}: {workload} seed {seed} {phase} failed its checks:\n"
                                + "\n".join(p.strip() for p in doc["problems"]))
        outputs.update({f"{phase}/{rel}": h for rel, h in doc["outputs"].items()})
    return outputs


def compare(old: Path, new: Path, workloads, seeds, scratch: Path) -> list:
    """Paths, as ``workload/seed/phase/path``, whose bytes differ between the trees or exist in one only.

    Prints one line per workload and seed. Raises ``SameBitsError`` when a
    tree cannot be run or a session fails its own checks.
    """
    for tree in (old, new):
        if not (tree / "src" / "scorefusion" / "__init__.py").is_file() or \
                not (tree / "bench" / "workloads.py").is_file():
            raise SameBitsError(f"{tree} holds no src/scorefusion or bench/workloads.py")
    differ = []
    for workload in workloads:
        for seed in seeds:
            a, b = (_outputs(tree, workload, seed, scratch / side / f"{workload}-{seed}")
                    for side, tree in (("old", old), ("new", new)))
            bad = sorted(rel for rel in a.keys() | b.keys() if a.get(rel) != b.get(rel))
            print(f"{workload} seed {seed}: {len(a.keys() | b.keys())} outputs, {len(bad)} differ",
                  flush=True)
            for rel in bad:
                where = "differs" if rel in a and rel in b else f"only in {'old' if rel in a else 'new'}"
                print(f"  {where}: {rel}", flush=True)
            differ += [f"{workload}/{seed}/{rel}" for rel in bad]
            for side in ("old", "new"):
                shutil.rmtree(scratch / side / f"{workload}-{seed}")
    return differ


def _archive(rev: str, dest: Path) -> Path:
    """Unpack ``git archive rev`` of this checkout into ``dest``."""
    proc = subprocess.run(["git", "-C", str(ROOT), "archive", rev], capture_output=True)
    if proc.returncode != 0:
        raise SameBitsError(f"git archive {rev} failed: {proc.stderr.decode(errors='replace').strip()}")
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return dest


def main(argv=None) -> int:
    if argv is None and sys.argv[1:2] == ["--phase"]:
        tree, workload, seed, run, phase = sys.argv[2:]
        run_phase(Path(tree), workload, int(seed), Path(run), phase)
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    side = parser.add_mutually_exclusive_group(required=True)
    side.add_argument("--parent", metavar="REV", help="compare this checkout with git archive REV")
    side.add_argument("--trees", nargs=2, type=Path, metavar=("OLD", "NEW"),
                      help="compare two source trees")
    parser.add_argument("--workload", action="append", help="a workload name (default: all)")
    parser.add_argument("--seed", action="append", type=int, help="a workload seed (default: 2001-2003)")
    args = parser.parse_args(argv)

    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "bench"))
    from inputs import WRITERS

    workloads = args.workload or list(WRITERS)
    unknown = sorted(set(workloads) - set(WRITERS))
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(WRITERS)}")
    with tempfile.TemporaryDirectory(prefix="same_bits-") as tmp:
        scratch = Path(tmp)
        try:
            old, new = args.trees or (_archive(args.parent, scratch / "parent"), ROOT)
            differ = compare(old.resolve(), new.resolve(), workloads, args.seed or SEEDS, scratch)
        except (SameBitsError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    print(f"same bits: {len(differ)} outputs differ" if differ else "same bits: no output differs")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
