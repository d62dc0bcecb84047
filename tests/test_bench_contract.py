"""The names ``bench/tracing.py`` wraps exist, and every oracle join goes through them.

The benchmark's tracer wraps package functions by name from outside the
package and derives ``oracle.rows`` and ``oracle.cache_hits`` from the calls
to ``score_batch``. These tests read its span table without running or
changing anything under ``bench/``.
"""

import ast
import importlib
import inspect
from pathlib import Path

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
