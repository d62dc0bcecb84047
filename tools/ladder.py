"""Wall time and memory of `experiment` and `transfer` as the row count grows.

Run from the repository root:

    python3 tools/ladder.py                     # 1e4, 1e5 and 1e6 rows
    python3 tools/ladder.py --rows 10000 --rows 100000

Per row count n, a child process writes the inputs with ``bench/inputs.py``'s
own writers (the file is read, never edited): ``EXPERIMENT_ROWS`` and
``TRANSFER_ROWS`` become n, and every ``TRANSFER_M`` value is scaled by
n / ``TRANSFER_ROWS``, so the transfer protocol's pool holds its draws at
1e4 rows too. Then ``experiment`` and ``transfer`` each run twice through
``scorefusion.cli.main``, every run in a fresh process with one BLAS thread:
cold (no dataset sidecar or cache index on disk yet), then warm. The warm run
finds the dataset sidecars the cold run wrote, but not its out-of-fold memos
(``.<name>.cv-*.sfcache.npz``), which are deleted first: it trains its fold
models again, so its memory still covers them.

Each run reports its wall time, its peak RSS (the child's own ``VmHWM`` from
``/proc/self/status``) and the RSS it added above what the imports left,
per row. The numbers are unscaled: single runs on whatever machine runs the
tool, not normalized to any reference. Everything is written under
``.bench_work/ladder/``, which is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work" / "ladder"
DEFAULT_ROWS = (10_000, 100_000, 1_000_000)
SEED = 7
# each command of the CLI, and the benchmark workload whose inputs it runs on
COMMANDS = {"experiment": "experiment-csv", "transfer": "transfer-jsonl-cached"}
PHASES = ("cold", "warm")
CHILD_TIMEOUT_S = 1800


def _status_kib(field: str) -> int:
    """A ``kB`` field of this process's ``/proc/self/status``, such as ``VmHWM``."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/self/status has no {field}")


def write_inputs(work: Path, rows: int) -> None:
    """Child process body: the inputs of every command at ``rows`` rows, and their manifest."""
    sys.path.insert(0, str(ROOT / "bench"))
    import inputs

    inputs.TRANSFER_M = tuple(m * rows // inputs.TRANSFER_ROWS for m in inputs.TRANSFER_M)
    inputs.EXPERIMENT_ROWS = inputs.TRANSFER_ROWS = rows
    manifest = {}
    for command, workload in COMMANDS.items():
        (work / command).mkdir(parents=True)
        manifest[command] = inputs.WRITERS[workload](work / command, SEED)
    (work / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


def run_command(work: Path, command: str) -> None:
    """Child process body: one run of ``command`` on the written inputs; prints its record as JSON."""
    import contextlib
    import io
    import time

    sys.path.insert(0, str(ROOT / "src"))
    from scorefusion.cli import main

    manifest = json.loads((work / "manifest.json").read_text(encoding="utf-8"))[command]
    config = manifest["configs"]["experiment"] if command == "experiment" else manifest["config"]
    imported = _status_kib("VmRSS")
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--config", config])
    wall = time.perf_counter() - start
    peak = _status_kib("VmHWM")
    print(json.dumps({"code": code, "wall_s": wall, "peak_kib": peak, "imported_kib": imported}))


def _child(*argv) -> subprocess.CompletedProcess:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child", *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        what = " ".join(map(str, argv))
        raise RuntimeError(f"{what} exited with {proc.returncode}\n{proc.stderr.strip()}")
    return proc


def measure(rows: int, work: Path, commands=tuple(COMMANDS)) -> list:
    """One record per command and phase at ``rows`` rows, written under ``work`` (left in place)."""
    _child("write", work, rows)
    records = []
    for command in commands:
        for phase in PHASES:
            if phase == "warm":  # keep the dataset sidecars, so a warm run still trains its folds
                for memo in (work / command).glob(".*.cv-*.sfcache.npz"):
                    memo.unlink()
            record = json.loads(_child("run", work, command).stdout)
            if record["code"] != 0:
                raise RuntimeError(f"{command} at {rows} rows ({phase}) exited with {record['code']}")
            above = (record["peak_kib"] - record["imported_kib"]) * 1024 / rows
            records.append({"rows": rows, "command": command, "phase": phase,
                            "wall_s": record["wall_s"], "peak_mb": record["peak_kib"] / 1024,
                            "bytes_per_row": above})
    return records


def main(argv=None) -> int:
    if argv is None and sys.argv[1:2] == ["--child"]:
        what, work, arg = sys.argv[2:]
        if what == "write":
            write_inputs(Path(work), int(arg))
        else:
            run_command(Path(work), arg)
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", action="append", type=int, metavar="N",
                        help="a row count (repeatable; default: 1e4, 1e5 and 1e6)")
    args = parser.parse_args(argv)
    if any(n < 100 for n in args.rows or ()):
        parser.error("--rows must be at least 100")

    print("unscaled: single runs on this machine, one BLAS thread, a fresh process per run")
    print("| rows | command | phase | wall s | peak RSS MB | RSS above import, bytes/row |")
    print("| --- | --- | --- | --- | --- | --- |")
    try:
        for rows in args.rows or DEFAULT_ROWS:
            shutil.rmtree(WORK, ignore_errors=True)
            for r in measure(rows, WORK / str(rows)):
                print(f"| {r['rows']:,} | {r['command']} | {r['phase']} | {r['wall_s']:.2f} | "
                      f"{r['peak_mb']:.1f} | {r['bytes_per_row']:,.0f} |", flush=True)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
