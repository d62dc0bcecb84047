"""scorefusion benchmark: end-to-end and per-layer metrics of three workloads.

Run from the repository root:

    python3 bench/run.py --workload experiment-csv --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

``--workload`` is one of the workloads in ``inputs.WRITERS``, or ``all`` to
run each in turn. One run generates the workload's inputs from ``--seed``,
sets the workload up several times to measure set-up time, then runs
sessions of it in a separate process for about ``--seconds`` seconds and
checks every output. With ``--trace 0`` it prints the end-to-end metrics;
with ``--trace 1`` it runs one untraced and one traced process, half the
time each, and prints the per-layer metrics and the tracing overhead.
Timings are scaled to a reference machine speed measured while they run
(``speed.py``); the unscaled figures are printed too.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 only when every
output check passed. The package is imported from ``src/`` next to this
directory, never from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import WRITERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 3  # set-up-only processes before the timed process, and as many after it
# Peak RSS is read after this many sessions, so it does not depend on how many
# sessions fit in the run; the timed process runs at least this many.
PEAK_RSS_SESSIONS = 2
RUN_LIMIT_S = 170  # a run must end within 180 s, whatever --seconds says


class BenchError(RuntimeError):
    """The benchmark could not run: missing sources, a crashed or hung workload process."""


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _child(workload, work, deadline, *, tag, seconds=0.0, min_sessions=1,
           trace=False, setup_only=False) -> dict:
    """Run one workload process and return its result; raise BenchError if it fails."""
    result = work / f"result-{tag}.json"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    t0 = time.monotonic()
    argv = [sys.executable, str(BENCH / "session.py"), "--workload", workload,
            "--work", str(work), "--t0", repr(t0), "--seconds", repr(seconds),
            "--min-sessions", str(min_sessions), "--result", str(result)]
    argv += ["--trace"] * trace + ["--setup-only"] * setup_only
    try:
        proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, cwd=ROOT,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} process {tag} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} process {tag} exited with {proc.returncode}")
    doc = json.loads(result.read_text(encoding="utf-8"))
    if not Path(doc["package"]).resolve().is_relative_to(SRC):
        raise BenchError(f"scorefusion was imported from {doc['package']}, not from {SRC}")
    return doc


def _context(blas_threads) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py")),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Generate inputs, measure, check; return the printable summary of one run."""
    if not (SRC / "scorefusion" / "__init__.py").is_file():
        raise BenchError(f"no package sources at {SRC}; run from a full checkout")
    deadline = time.monotonic() + RUN_LIMIT_S
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        manifest = WRITERS[workload](work, seed)
        (work / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")

        def setup_probes(first):
            return [_child(workload, work, deadline, tag=f"setup{first + i}", setup_only=True)
                    for i in range(SETUP_PROBES)]

        setups = setup_probes(0)
        if trace:
            runs = [_child(workload, work, deadline, tag="untraced", seconds=seconds / 2),
                    _child(workload, work, deadline, tag="traced", seconds=seconds / 2, trace=True)]
            traces = WORK / "traces"
            traces.mkdir(exist_ok=True)
            shutil.copy(work / f"spans-{workload}.jsonl", traces / f"{workload}-{seed}.jsonl")
        else:
            runs = [_child(workload, work, deadline, tag="timed", seconds=seconds,
                           min_sessions=PEAK_RSS_SESSIONS)]
        setups += setup_probes(SETUP_PROBES)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    sessions = [s for run in runs for s in run["sessions"]]
    problems = [p for s in sessions for p in s["problems"]]
    if len({s["digest"] for s in sessions}) != 1:
        problems.append("outputs differ between sessions of one seed")
    if len({s["accuracy"] for s in sessions}) != 1:
        problems.append("accuracy differs between sessions of one seed")

    timed = runs[0]["sessions"]
    ops = sum(s["ops"] for s in sessions)
    summary = {
        "workload": workload, "seed": seed, "trace": trace,
        "session_s": [[round(s["wall"], 3) for s in run["sessions"]] for run in runs],
        "correct": not problems, "problems": problems,
        "attempted": ops, "failed": sum(s["unexpected"] for s in sessions),
        "failed_frac": sum(s["ops_failed"] for s in sessions) / ops,
        "rows_per_s": _quartiles([s["rows"] * s["slowness"] / s["wall"] for s in timed]),
        "raw_rows_per_s": statistics.median(s["rows"] / s["wall"] for s in timed),
        "peak_rss_mb": timed[min(PEAK_RSS_SESSIONS, len(timed)) - 1]["peak_rss_mb"],
        "setup_s": _quartiles([p["setup_s"] / p["setup_slowness"] for p in setups]),
        "raw_setup_s": statistics.median(p["setup_s"] for p in setups),
        "slowness": statistics.median([s["slowness"] for s in timed] + [p["setup_slowness"] for p in setups]),
        "accuracy": sessions[0]["accuracy"],
        "context": _context(runs[0]["blas_threads"]),
    }
    if trace:
        untraced, traced = (statistics.median(s["wall"] / s["slowness"] for s in run["sessions"])
                            for run in runs)
        # Layer times are scaled like the end-to-end ones; counts are not.
        slowness = statistics.median(s["slowness"] for s in runs[1]["sessions"])
        layers = {name: value / slowness if name.endswith("_s") else value
                  for name, value in runs[1]["layers"].items()}
        summary["layers"] = dict(layers, **{"trace.overhead_frac": traced / untraced - 1.0})
    return summary


END_TO_END = (
    ("rows_per_s", "rows/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("accuracy", "fraction"),
)


def _value(entry):
    return entry[1] if isinstance(entry, tuple) else entry


def print_summary(s: dict) -> None:
    print(f"workload {s['workload']}  seed {s['seed']}  trace {int(s['trace'])}  "
          f"session seconds {' | '.join(map(str, s['session_s']))}")
    for name, unit in END_TO_END:
        entry = s[name]
        spread = f"  (q1 {entry[0]:.6g}, q3 {entry[2]:.6g})" if isinstance(entry, tuple) else ""
        print(f"  {name:<12} {_value(entry):>14.6g} {unit}{spread}")
    print(f"  unscaled: rows_per_s {s['raw_rows_per_s']:.6g} rows/s, setup_s {s['raw_setup_s']:.6g} s; "
          f"machine ran {s['slowness']:.3g}x slower than the reference speed")
    print(f"  {'failed_frac':<12} {s['failed_frac']:>14.6g} ratio  "
          f"(of {s['attempted']} operations; {s['failed']} failed unexpectedly)")
    for name, value in s.get("layers", {}).items():
        print(f"  {name:<28} {value:.6g}")
    for problem in s["problems"][:20]:
        print(f"  CHECK FAILED: {problem.strip()}")
    print("context " + json.dumps(s["context"], sort_keys=True))


def result_line(s: dict, per_layer_units: dict) -> str:
    if s["trace"]:
        metrics = {name: {"value": value, "unit": per_layer_units[name]}
                   for name, value in s["layers"].items()}
    else:
        metrics = {name: {"value": _value(s[name]), "unit": unit} for name, unit in END_TO_END}
    return json.dumps({"correct": s["correct"], "attempted": s["attempted"],
                       "failed": s["failed"], "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WRITERS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    per_layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    workloads = sorted(WRITERS) if args.workload == "all" else [args.workload]
    summaries = []
    try:
        for workload in workloads:
            summary = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            if args.trace and set(summary["layers"]) != set(per_layer_units):
                raise BenchError("traced metrics do not match per_layer in BENCHMARK.json")
            print_summary(summary)
            summaries.append(summary)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(summaries) == 1:
        print(result_line(summaries[0], per_layer_units))
    return 0 if all(s["correct"] for s in summaries) else 1


if __name__ == "__main__":
    sys.exit(main())
