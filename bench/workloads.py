"""The benchmark's three workloads and the checks on their outputs.

A workload is set up once per process (``__init__``) and then run as
sessions; ``session`` times the calls into the package, checks every output
after the timer stops, and returns a record with the wall time, the rows
pushed through, the operations attempted and failed, a digest of the output
bytes, the headline accuracy and the problems the checks found.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
import time
import traceback
from pathlib import Path

from scorefusion import cli, config, data, harness, oracle

from fake_http import FakeSession

# ---------------------------------------------------------------------------
# output checks shared by the report-writing workloads
# ---------------------------------------------------------------------------

_RANGES = {"accuracy": (0.0, 1.0), "brier": (0.0, 1.0), "log_loss": (0.0, math.inf),
           "n_test": (1.0, math.inf)}


def check_report(text: str, methods: list, keys: list, seeds: list) -> list[str]:
    """Problems with a report.json: it must parse, list every method, and hold sane metrics."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report.json does not parse: {exc}"]
    problems = []
    if doc.get("meta", {}).get("methods") != methods:
        problems.append(f"report lists methods {doc.get('meta', {}).get('methods')}, expected {methods}")
    if sorted(doc.get("aggregate", {})) != sorted(keys):
        problems.append(f"report aggregates {sorted(doc.get('aggregate', {}))}, expected {sorted(keys)}")
    if [entry.get("seed") for entry in doc.get("per_seed", [])] != seeds:
        problems.append(f"report covers seeds {[e.get('seed') for e in doc.get('per_seed', [])]}")
    for entry in doc.get("per_seed", []):
        for method, values in entry.get("methods", {}).items():
            if sorted(values) != sorted(_RANGES):
                problems.append(f"seed {entry.get('seed')} {method}: metrics {sorted(values)}")
            for metric, value in values.items():
                low, high = _RANGES.get(metric, (-math.inf, math.inf))
                if not (isinstance(value, (int, float)) and math.isfinite(value) and low <= value <= high):
                    problems.append(f"seed {entry.get('seed')} {method} {metric} = {value!r}")
    for method, values in doc.get("aggregate", {}).items():
        for metric, stats in values.items():
            for stat, value in stats.items():
                if not (isinstance(value, (int, float)) and math.isfinite(value)):
                    problems.append(f"aggregate {method} {metric} {stat} = {value!r}")
    return problems


def _digest(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(len(blob).to_bytes(8, "little"))
        h.update(blob)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class ExperimentCsv:
    """experiment, tune M (additive calibration), tune r: three CLI commands in-process."""

    cpu_bound = True

    def __init__(self, manifest: dict, work: Path):
        self.m = manifest
        for path in manifest["configs"].values():
            config.load_config(path)
        self.commands = [
            ("experiment", manifest["configs"]["experiment"], work / "out" / "experiment"),
            ("tune", manifest["configs"]["tune_M"], work / "out" / "tune_M"),
            ("tune", manifest["configs"]["tune_r"], work / "out" / "tune_r"),
        ]

    def session(self) -> dict:
        failed, problems = 0, []
        for _, _, out in self.commands:
            shutil.rmtree(out, ignore_errors=True)
        start = time.perf_counter()
        for sub, cfg, out in self.commands:
            try:
                code = cli.main([sub, "--config", cfg, "--out", str(out)])
            except Exception:
                code = None
                problems.append(traceback.format_exc())
            if code != 0:
                failed += 1
                problems.append(f"{sub} --config {cfg} exited with {code}")
        record = {"wall": time.perf_counter() - start, "rows": self.m["rows"] * len(self.commands),
                  "ops": len(self.commands), "ops_failed": failed, "unexpected": failed,
                  "digest": None, "accuracy": 0.0, "problems": problems}
        if failed:
            return record

        report = (self.commands[0][2] / "report.json").read_bytes()
        methods = self.m["methods"]
        problems += check_report(report.decode("utf-8"), methods, methods, self.m["seeds"])
        tuned = []
        for (_, _, out), parameter in zip(self.commands[1:], ("M", "r")):
            blob = (out / "tuned.json").read_bytes()
            doc = json.loads(blob)
            if doc.get("parameter") != parameter or doc.get("selected") not in self.m["tune"][parameter]:
                problems.append(f"tune {parameter} wrote {doc}")
            tuned.append(blob)
        if not problems:
            record["accuracy"] = json.loads(report)["aggregate"]["adalinear(4)"]["accuracy"]["mean"]
        record["digest"] = _digest(report, *tuned)
        return record


class TransferJsonlCached:
    """run_transfer_experiment over three seeds, replaying a warm cache opened at set-up."""

    cpu_bound = True

    def __init__(self, manifest: dict, work: Path):
        self.m = manifest
        self.cfg = config.load_config(manifest["config"])
        self.provider = harness.build_provider(self.cfg.oracle)
        self.keys = [f"{name}@{side}" for name in manifest["methods"] for side in ("source", "target")]
        self.headline = f"{manifest['methods'][-1]}@target"

    def session(self) -> dict:
        failed, problems = 0, []
        shutil.rmtree(self.m["out"], ignore_errors=True)
        start = time.perf_counter()
        try:
            harness.run_transfer_experiment(self.cfg, provider=self.provider)
        except Exception:
            failed = 1
            problems.append(traceback.format_exc())
        record = {"wall": time.perf_counter() - start, "rows": self.m["rows"] * len(self.m["seeds"]),
                  "ops": 1, "ops_failed": failed, "unexpected": failed,
                  "digest": None, "accuracy": 0.0, "problems": problems}
        if failed:
            return record

        report = (Path(self.m["out"]) / "report.json").read_bytes()
        problems += check_report(report.decode("utf-8"), self.m["methods"], self.keys, self.m["seeds"])
        if not problems:
            record["accuracy"] = json.loads(report)["aggregate"][self.headline]["accuracy"]["mean"]
        record["digest"] = _digest(report)
        return record


def _read_scored(path: Path) -> dict:
    """id -> (z, y) from a saved dataset, read without the package's loader."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.DictReader(fh)
        return {row["id"]: (float(row["z"]), int(row["y"])) for row in rows}


def _read_cache(path: Path) -> tuple[list, list]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class ScoreHttp:
    """The ``score`` pipeline as library calls, against the fake endpoint, in three passes."""

    cpu_bound = False  # the endpoint's fixed service time sets the pace
    RETRIES = 3

    def __init__(self, manifest: dict, work: Path):
        self.m = manifest
        self.out = work / "out"
        self.out.mkdir(parents=True, exist_ok=True)
        self.config = oracle.HttpOracleConfig(
            url="http://judge.invalid/v1/score", model="fake-judge", timeout=5.0,
            retries=self.RETRIES, backoff=0.001, max_concurrency=2,
        )
        self.fake = FakeSession(manifest["seed"], manifest["poison"])

    def _provider(self, cache_path):
        return oracle.HttpOracle(self.config, cache=oracle.OracleCache(cache_path), session=self.fake)

    def session(self) -> dict:
        cache_path = self.out / "scores.csv"
        cache_path.unlink(missing_ok=True)
        self.fake.reset()
        passes = self.m["passes"]
        submitted, returned = {}, {}
        error = None

        start = time.perf_counter()
        for name in ("pass1", "pass2"):
            ds = data.load_dataset(passes[name])
            pairs = oracle.score_batch(self._provider(cache_path), ds.instances)
            data.save_dataset(ds.with_oracle_scores(dict(pairs)), self.out / f"{name}.csv")
            submitted[name], returned[name] = [inst.id for inst in ds.instances], dict(pairs)
        ds = data.load_dataset(passes["pass3"])
        submitted["pass3"] = [inst.id for inst in ds.instances]
        try:
            returned["pass3"] = dict(oracle.score_batch(self._provider(cache_path), ds.instances))
        except oracle.OracleError as exc:
            returned["pass3"], error = {}, exc
        wall = time.perf_counter() - start

        return self._check(cache_path, submitted, returned, error, wall)

    def _check(self, cache_path, submitted, returned, error, wall) -> dict:
        served, poison, problems = self.fake.served, self.m["poison"], []
        header, rows = _read_cache(cache_path)
        cached = {row[0]: float(row[1]) for row in rows}
        if header != ["id", "z"] or len(cached) != len(rows):
            problems.append(f"cache file has header {header} and {len(rows) - len(cached)} repeated ids")
        problems += [f"cache holds {z!r} for {i}, endpoint served {served.get(i)!r}"
                     for i, z in cached.items() if served.get(i) != z][:5]

        scored = {}
        for name in ("pass1", "pass2"):
            saved = _read_scored(self.out / f"{name}.csv")
            if sorted(saved) != sorted(submitted[name]):
                problems.append(f"{name}: saved ids differ from the submitted ids")
            problems += [f"{name}: saved z {z!r} for {i}, endpoint served {served.get(i)!r}"
                         for i, (z, _) in saved.items() if served.get(i) != z][:5]
            problems += [f"{name}: {i} scored but not cached"
                         for i in submitted[name] if i not in cached][:5]
            scored.update(saved)

        if error is None or poison not in {i for i, _ in error.failures}:
            problems.append(f"pass 3 did not report the rejected id {poison}: {error!r}")
        if poison in returned["pass3"] or poison in cached:
            problems.append(f"pass 3 produced a score for the rejected id {poison}")
        lost = [i for name, ids in submitted.items() for i in ids
                if i not in returned[name] and i not in cached]
        attempts = self.fake.attempts
        problems += [f"{i}: {n} POSTs, expected {self.fake.expected_attempts(i, self.RETRIES)}"
                     for i, n in attempts.items()
                     if n != self.fake.expected_attempts(i, self.RETRIES)][:5]

        z = [v for v, _ in scored.values()]
        y = [label for _, label in scored.values()]
        accuracy = sum((v > 0.5) == bool(label) for v, label in zip(z, y)) / len(z)
        rows = sum(len(ids) for ids in submitted.values())
        return {
            "wall": wall, "rows": rows, "ops": rows, "ops_failed": len(lost),
            "unexpected": len(set(lost) - set(submitted["pass3"])),
            "digest": _digest(*(p.read_bytes() for p in (self.out / "pass1.csv", self.out / "pass2.csv",
                                                           cache_path))),
            "accuracy": accuracy, "problems": problems,
            "http": {
                "http_posts": self.fake.posts, "http_retries": self.fake.retries,
                "http_wait_s": self.fake.wait_s, "http_served": len(served),
                "paid_lost": len(set(served) - set(cached)),
            },
        }


WORKLOADS = {
    "experiment-csv": ExperimentCsv,
    "transfer-jsonl-cached": TransferJsonlCached,
    "score-http": ScoreHttp,
}
