"""The names ``bench/tracing.py`` wraps exist, every oracle join goes through them,
and the calls ``bench/workloads.py`` makes still run.

The benchmark's tracer wraps package functions by name from outside the
package and derives ``oracle.rows`` and ``oracle.cache_hits`` from the calls
to ``score_batch``. These tests read its span table without running or
changing anything under ``bench/``.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import scorefusion
from scorefusion import LabeledDataset, cli, data, harness, oracle
import test_harness
from test_harness import _cfg, _dataset, _two_strata

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing_table(name):
    """The literal value of a module-level assignment in ``bench/tracing.py``."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{TRACING} assigns no {name}")


def test_every_span_target_resolves_to_a_callable():
    modules = set(_tracing_table("MODULES"))
    spans = _tracing_table("SPANS")
    assert spans
    for _, module, attr in spans:
        assert module in modules
        target = importlib.import_module(f"scorefusion.{module}")
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), f"scorefusion.{module}.{attr}"


def test_the_tracer_installs_on_the_package():
    # getattr above also finds a method inherited from a base class; the tracer reads
    # each class's own __dict__, so run its install in a fresh interpreter
    root = TRACING.parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "bench")]))
    done = subprocess.run([sys.executable, "-c", "import tracing; tracing.Tracer.install()"],
                          env=env, cwd=root, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_score_batch_takes_the_batch_as_its_second_positional_argument():
    # the tracer counts oracle.rows as len(args[1]) of each score_batch call
    params = list(inspect.signature(oracle.score_batch).parameters.values())
    assert [p.name for p in params[:2]] == ["provider", "batch"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params[:2])
    assert all(p.kind is p.KEYWORD_ONLY for p in params[2:])


@pytest.fixture
def joins(monkeypatch):
    """Rows passed to ``score_batch`` and rows given oracle scores, counted by
    rebinding every package attribute bound to ``score_batch``, as the tracer does."""
    counts = {"scored": 0, "joined": 0}
    original = oracle.score_batch

    def score_batch(provider, batch, *args, **kwargs):
        counts["scored"] += len(batch)
        return original(provider, batch, *args, **kwargs)

    namespaces = [scorefusion] + [importlib.import_module(f"scorefusion.{m}")
                                  for m in _tracing_table("MODULES")]
    for ns in namespaces:
        for key, value in list(vars(ns).items()):
            if value is original:
                monkeypatch.setattr(ns, key, score_batch)

    attach = LabeledDataset.with_oracle_scores

    def with_oracle_scores(self, scores):
        counts["joined"] += self.n
        return attach(self, scores)

    monkeypatch.setattr(data.LabeledDataset, "with_oracle_scores", with_oracle_scores)
    return counts


@pytest.mark.parametrize("run", [
    pytest.param(lambda: scorefusion.run_experiment(_cfg(seeds=(0,)), dataset=_dataset(120)),
                 id="run_experiment"),
    pytest.param(lambda: scorefusion.run_transfer_experiment(
        test_harness.TestRunTransferExperiment()._transfer_cfg(), dataset=_two_strata()),
                 id="run_transfer_experiment"),
    pytest.param(lambda: scorefusion.tune_hyperparameter(
        _cfg(seeds=(0,)), parameter="r", candidates=[1, 2], dataset=_dataset(120)),
                 id="tune_hyperparameter"),
])
def test_every_oracle_join_goes_through_score_batch(run, joins):
    run()
    assert joins["joined"] > 0
    assert joins["scored"] == joins["joined"]


@pytest.mark.parametrize("command, attr", [
    ("experiment", "run_experiment"),
    ("transfer", "run_transfer_experiment"),
])
def test_cli_calls_the_experiment_runners_as_rebound(command, attr, monkeypatch, capsys):
    # the tracer's harness.run spans wrap the runners under every package name bound to them
    calls = []
    original = getattr(harness, attr)

    def runner(cfg, *args, **kwargs):
        calls.append(cfg)
        return harness.MetricReport.build([], meta={})

    namespaces = [scorefusion] + [importlib.import_module(f"scorefusion.{m}")
                                  for m in _tracing_table("MODULES")]
    for ns in namespaces:
        for key, value in list(vars(ns).items()):
            if value is original:
                monkeypatch.setattr(ns, key, runner)

    assert cli.main([command, "--seed", "7"]) == 0
    assert [cfg.seeds for cfg in calls] == [(7,)]


class _Judge:
    """Thread-safe fake endpoint: row ``i<k>`` scores k/100, and ``poison`` answers no score."""

    def __init__(self, poison):
        self.poison = poison
        self.posted = []

    def post(self, url, json=None, headers=None, timeout=None):
        row_id = json["prompt"].split()[5]  # "Rate the relevance of item <id> with ..."
        self.posted.append(row_id)
        text = "???" if row_id == self.poison else str(int(row_id[1:]) / 100)
        return SimpleNamespace(status_code=200, text=text)


def test_the_score_http_call_sequence_runs_on_the_package(tmp_path):
    # bench/workloads.py ScoreHttp.session makes exactly these calls, and it is frozen with
    # the benchmark: a dataset change that breaks one of them must fail here first
    passes = {}
    for name, ids in (("pass1", [3, 11, 0, 7]), ("pass2", [7, 2, 11, 5]), ("pass3", [4, 9, 2])):
        passes[name] = tmp_path / f"{name}.csv"
        data.save_dataset(LabeledDataset.from_arrays(
            np.arange(2.0 * len(ids)).reshape(-1, 2), y=[k % 2 for k in ids], ids=[f"i{k}" for k in ids],
        ), passes[name])
    config = oracle.HttpOracleConfig(url="http://judge.invalid/v1/score", model="fake-judge",
                                     timeout=5.0, retries=2, backoff=0.0, max_concurrency=2)
    judge, cache_path = _Judge(poison="i9"), tmp_path / "scores.csv"

    def provider():
        return oracle.HttpOracle(config, cache=oracle.OracleCache(cache_path), session=judge)

    for name in ("pass1", "pass2"):
        ds = data.load_dataset(passes[name])
        pairs = oracle.score_batch(provider(), ds.instances)
        data.save_dataset(ds.with_oracle_scores(dict(pairs)), tmp_path / f"out_{name}.csv")
        submitted = [inst.id for inst in ds.instances]
        assert pairs == sorted(pairs) and sorted(submitted) == [i for i, _ in pairs]
        assert submitted == ds.ids() and len(ds.instances) == ds.n
        saved = data.load_dataset(tmp_path / f"out_{name}.csv")
        assert saved.z.tolist() == [int(i[1:]) / 100 for i in submitted]
    ds = data.load_dataset(passes["pass3"])
    assert [inst.id for inst in ds.instances] == ["i4", "i9", "i2"]
    with pytest.raises(oracle.OracleError) as info:
        oracle.score_batch(provider(), ds.instances)
    assert [i for i, _ in info.value.failures] == ["i9"]
    cached = oracle.OracleCache(cache_path).scores()
    assert cached == {f"i{k}": k / 100 for k in (0, 2, 3, 4, 5, 7, 11)}
    assert sorted(judge.posted) == ["i0", "i11", "i2", "i3", "i4", "i5", "i7", "i9", "i9"]
