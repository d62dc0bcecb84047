"""One workload process: set up, then run sessions of the workload until its time is up.

``run.py`` starts this script once per measurement, with ``src`` on
PYTHONPATH and OpenBLAS pinned to one thread, and reads the JSON result file
it writes. Set-up time runs from ``--t0``, the parent's monotonic clock just
before it started this process, to the first timed call, so it covers
interpreter start, ``import scorefusion`` and the workload's own set-up. With
``--setup-only`` the process stops there.

The speed sampler starts before the package is imported, so set-up time and
every session can be scaled to reference machine speed (see ``speed.py``).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import resource
import time
from pathlib import Path

from speed import SpeedSampler


def blas_threads():
    """Threads OpenBLAS will use, asked of the library numpy loaded; None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            lib = next(line.split()[-1] for line in fh if "openblas" in line)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    except (OSError, StopIteration):
        pass
    return None


def main() -> None:
    sampler = SpeedSampler()
    sampler.start()
    try:
        run(sampler)
    finally:
        sampler.stop()  # an alarm after the handler is gone would kill the process


def run(sampler: SpeedSampler) -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--t0", required=True, type=float)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--min-sessions", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result", required=True, type=Path)
    args = parser.parse_args()

    import scorefusion
    import tracing
    import workloads

    tracer = tracing.Tracer.install() if args.trace else None
    manifest = json.loads((args.work / "manifest.json").read_text(encoding="utf-8"))
    workload = workloads.WORKLOADS[args.workload](manifest, args.work)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s, "setup_slowness": sampler.slowness(),
              "package": scorefusion.__file__, "sessions": []}
    if not args.setup_only:
        if not workload.cpu_bound:
            sampler.stop()
        if tracer is not None:
            tracer.end_segment()
        start = time.perf_counter()
        while True:
            record = workload.session()
            record["slowness"] = sampler.slowness() if workload.cpu_bound else 1.0
            record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if tracer is not None:
                tracer.end_segment(record.get("http"))
            result["sessions"].append(record)
            done = len(result["sessions"])
            elapsed = time.perf_counter() - start
            if done >= args.min_sessions and elapsed * (done + 1) / done > args.seconds:
                break
        result["blas_threads"] = blas_threads()
        if tracer is not None:
            result["layers"] = tracer.layer_metrics()
            tracer.write(args.work / f"spans-{args.workload}.jsonl")
    args.result.write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
