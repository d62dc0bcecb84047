"""Experiment orchestration: providers, reports, both protocols, tuning."""

import json
import re
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from scorefusion import (
    AdditiveCalibrator,
    BaseModel,
    CachedOracle,
    CellCalibrator,
    ExperimentConfig,
    HarnessError,
    HttpOracle,
    LabeledDataset,
    MethodSpec,
    MetricReport,
    OracleCache,
    OracleError,
    OracleSettings,
    StratumDensity,
    SyntheticOracle,
    SyntheticOracleSpec,
    SyntheticSpec,
    TransferError,
    TransferPlan,
    TransferSettings,
    WeightFunction,
    build_provider,
    child_seed,
    run_experiment,
    run_transfer_experiment,
    score_batch,
    sigmoid,
    tune_hyperparameter,
)
from scorefusion import harness
from scorefusion.config import BaseSettings
from scorefusion.data import load_artifact

DATA = Path(__file__).parent / "data"


def _dataset(n=200, d=3, seed=0, flip=0.0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    p = sigmoid(2.0 * X[:, 0] - X[:, 1])
    y = (rng.uniform(size=n) < p).astype(int)
    if flip:
        y = np.where(rng.uniform(size=n) < flip, 1 - y, y)
    return LabeledDataset.from_arrays(X, y=y, prefix=f"h{seed}_")


def _two_strata(n_per=300, d=4, seed=0):
    rng = np.random.default_rng([55, seed])
    Xa = np.hstack([rng.standard_normal((n_per, 2)) + 1.0, np.zeros((n_per, 2))])
    Xb = np.hstack([np.zeros((n_per, 2)), rng.standard_normal((n_per, 2)) + 1.0])
    X = np.vstack([Xa, Xb])
    logits = X[:, 0] - X[:, 1] + X[:, 2] - X[:, 3]
    y = (rng.uniform(size=2 * n_per) < sigmoid(2 * logits)).astype(int)
    strata = ["A"] * n_per + ["B"] * n_per
    return LabeledDataset.from_arrays(X, y=y, strata=strata, prefix=f"t{seed}_")


def _cfg(**overrides):
    defaults = dict(
        methods=(MethodSpec("ml"), MethodSpec("llm"), MethodSpec("linear")),
        seeds=(0, 1),
        k=3,
        base=BaseSettings(reg_lambda=1e-3, max_iter=300, tol=1e-5),
        oracle=OracleSettings(kind="synthetic", accuracy=0.8, seed=5),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestChildSeed:
    def test_deterministic_and_sensitive_to_every_part(self):
        assert child_seed(3, 7) == child_seed(3, 7)
        assert child_seed(3, 7) != child_seed(7, 3)
        assert child_seed(3, 0) != child_seed(3, 1)

    def test_fits_an_unsigned_64_bit_word(self):
        for parts in ((0,), (1, 2, 3), (2**31, 5)):
            s = child_seed(*parts)
            assert 0 <= s < 2**64


class TestBuildProvider:
    def test_synthetic_without_cache(self):
        provider = build_provider(OracleSettings(kind="synthetic", accuracy=0.9))
        assert isinstance(provider, SyntheticOracle)
        assert provider.spec.accuracy == 0.9

    def test_synthetic_with_cache_wraps_even_an_empty_cache(self, tmp_path):
        settings = OracleSettings(
            kind="synthetic", accuracy=0.9, cache_path=str(tmp_path / "c.csv")
        )
        provider = build_provider(settings)
        assert isinstance(provider, SyntheticOracle) and provider.spec.accuracy == 0.9
        assert isinstance(provider.cache, OracleCache) and len(provider.cache) == 0

    def test_cached_kind_replays_only(self, tmp_path):
        cache = OracleCache(tmp_path / "c.csv")
        cache.update({"a": 0.5})
        settings = OracleSettings(kind="cached", cache_path=str(tmp_path / "c.csv"))
        provider = build_provider(settings)
        assert isinstance(provider, CachedOracle) and provider.cache.scores() == {"a": 0.5}
        with pytest.raises(OracleError, match="not in cache"):
            score_batch(provider, LabeledDataset.from_arrays(np.zeros((2, 1)), ids=["a", "b"]))

    def test_http_kind_carries_the_config(self, tmp_path):
        settings = OracleSettings(
            kind="http", url="http://127.0.0.1:9/v1", model="judge", retries=2,
            cache_path=str(tmp_path / "c.csv"),
        )
        provider = build_provider(settings)
        assert isinstance(provider, HttpOracle)
        assert provider.config.url == "http://127.0.0.1:9/v1"
        assert provider.config.retries == 2
        assert isinstance(provider.cache, OracleCache) and provider.cache.path == tmp_path / "c.csv"


class TestMetricReport:
    def _report(self):
        per_seed = [
            (0, {"ml": {"accuracy": 0.8, "brier": 0.15}}),
            (1, {"ml": {"accuracy": 0.6, "brier": 0.25}}),
        ]
        return MetricReport.build(per_seed, meta={"experiment": "fusion"})

    def test_aggregate_mean_and_population_stdev(self):
        report = self._report()
        assert report.mean("ml") == pytest.approx(0.7)
        assert report.aggregate["ml"]["accuracy"]["stdev"] == pytest.approx(0.1)
        assert report.aggregate["ml"]["brier"]["mean"] == pytest.approx(0.2)

    def test_json_is_sorted_and_parses(self):
        report = self._report()
        doc = json.loads(report.to_json())
        assert doc["kind"] == "metric_report"
        assert doc["per_seed"][0]["seed"] == 0
        assert report.to_json() == self._report().to_json()

    def test_csv_layout_round_trips_floats(self):
        lines = self._report().to_csv().splitlines()
        assert lines[0] == "seed,method,metric,value"
        seed, method, metric, value = lines[1].split(",")
        assert (seed, method, metric) == ("0", "ml", "accuracy")
        assert float(value) == 0.8

    def test_save_writes_both_files(self, tmp_path):
        self._report().save(tmp_path / "out")
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "report.csv").exists()


class TestRunExperiment:
    def test_reports_every_method_and_metric(self):
        cfg = _cfg(methods=(
            MethodSpec("ml"), MethodSpec("llm"), MethodSpec("linear"),
            MethodSpec("adalinear", (4,)), MethodSpec("calibration", (10, 2)),
        ))
        report = run_experiment(cfg, dataset=_dataset(240))
        assert set(report.aggregate) == {
            "ml", "llm", "linear", "adalinear(4)", "calibration(10,2)"
        }
        for metrics in report.aggregate.values():
            assert set(metrics) == {"accuracy", "brier", "log_loss", "n_test"}
        assert len(report.per_seed) == 2

    def test_oracle_accuracy_matches_its_quality_setting(self):
        report = run_experiment(_cfg(seeds=(0,)), dataset=_dataset(400))
        assert abs(report.mean("llm") - 0.8) < 0.1

    def test_base_model_learns_the_signal(self):
        report = run_experiment(_cfg(seeds=(0,)), dataset=_dataset(400))
        assert report.mean("ml") > 0.7

    def test_fused_training_objective_never_exceeds_either_stream(self):
        # the fitted constant weight minimizes a convex quadratic over [0, 1],
        # so it is at least as good as its endpoints (base alone, oracle alone)
        from scorefusion import WeightFunction, fit_constant_weight, fusion_objective

        rng = np.random.default_rng(2)
        y_cv, z = rng.uniform(size=100), rng.uniform(size=100)
        y = rng.integers(0, 2, 100)
        alpha = fit_constant_weight(y_cv, z, y)
        fused = fusion_objective(WeightFunction.constant(alpha), y_cv, z, y)
        assert fused <= fusion_objective(WeightFunction.constant(1.0), y_cv, z, y) + 1e-12
        assert fused <= fusion_objective(WeightFunction.constant(0.0), y_cv, z, y) + 1e-12

    def test_runs_are_deterministic(self):
        cfg = _cfg()
        a = run_experiment(cfg, dataset=_dataset(150))
        b = run_experiment(cfg, dataset=_dataset(150))
        assert a.to_json() == b.to_json()

    def test_artifacts_written_per_seed(self, tmp_path):
        out = tmp_path / "runs"
        cfg = _cfg(seeds=(3,), out_dir=str(out),
                   methods=(MethodSpec("linear"), MethodSpec("calibration", (5, 2))))
        run_experiment(cfg, dataset=_dataset(120))
        assert (out / "report.json").exists()
        assert (out / "report.csv").exists()
        assert (out / "seed_3" / "base_model.json").exists()
        assert (out / "seed_3" / "weights_linear.json").exists()
        assert (out / "seed_3" / "calibrator_5_2.json").exists()

    def test_synthetic_data_varies_per_seed_but_not_per_run(self):
        from scorefusion import SyntheticSpec

        cfg = _cfg(synth=SyntheticSpec(d=2, n=120, true_weights=(1.0, -1.0, 0.0), seed=9))
        report = run_experiment(cfg)
        again = run_experiment(cfg)
        assert report.to_json() == again.to_json()
        accs = [m["ml"]["accuracy"] for _, m in report.per_seed]
        assert accs[0] != accs[1]  # different seeds draw different datasets

    def test_transfer_methods_are_rejected_here(self):
        cfg = _cfg(methods=(MethodSpec("ml"), MethodSpec("transfer", (10,))))
        with pytest.raises(HarnessError, match="transfer"):
            run_experiment(cfg, dataset=_dataset(100))


class TestRunTransferExperiment:
    def _transfer_cfg(self, **overrides):
        defaults = dict(
            methods=(MethodSpec("transfer", (0,)), MethodSpec("transfer", (150,))),
            seeds=(0,),
            k=3,
            test_fraction=0.3,
            base=BaseSettings(reg_lambda=1e-3, max_iter=300, tol=1e-5),
            oracle=OracleSettings(kind="synthetic", accuracy=0.9, seed=7),
            transfer=TransferSettings(source_strata=("A",), target_strata=("B",)),
        )
        defaults.update(overrides)
        return ExperimentConfig(**defaults)

    def test_reports_split_by_side(self):
        report = run_transfer_experiment(self._transfer_cfg(), dataset=_two_strata())
        names = set(report.aggregate)
        for base in ("llm", "ml", "linear", "transfer(0)", "transfer(150)"):
            assert f"{base}@source" in names and f"{base}@target" in names

    def test_zero_augmentation_equals_source_training_exactly(self):
        report = run_transfer_experiment(self._transfer_cfg(), dataset=_two_strata(seed=1))
        for side in ("source", "target"):
            for metric in ("accuracy", "brier", "log_loss"):
                assert (
                    report.aggregate[f"transfer(0)@{side}"][metric]["mean"]
                    == report.aggregate[f"ml@{side}"][metric]["mean"]
                )

    def test_augmentation_helps_on_the_target_side(self):
        cfg = self._transfer_cfg(seeds=(0, 1, 2))
        report = run_transfer_experiment(cfg, dataset=_two_strata(n_per=400))
        gain = report.mean("transfer(150)@target") - report.mean("ml@target")
        assert gain > 0.0

    def test_target_density_override_is_used(self):
        cfg = self._transfer_cfg(
            transfer=TransferSettings(
                source_strata=("A",), target_strata=("B",),
                target_density={"A": 0.5, "B": 0.5},
            )
        )
        report = run_transfer_experiment(cfg, dataset=_two_strata(seed=2))
        assert "transfer(150)@target" in report.aggregate

    def test_missing_target_configuration_is_an_error(self):
        cfg = self._transfer_cfg(transfer=TransferSettings(source_strata=("A",)))
        with pytest.raises(HarnessError, match="target"):
            run_transfer_experiment(cfg, dataset=_two_strata(seed=3))

    def test_unstratified_data_is_an_error(self):
        cfg = self._transfer_cfg()
        with pytest.raises(HarnessError):
            run_transfer_experiment(cfg, dataset=_dataset(100))

    @pytest.mark.parametrize("methods, source, density, data, message", [
        pytest.param((0,), (), {"B": 1.0}, _dataset,
                     "transfer experiment needs stratum tags on the dataset", id="no-tags"),
        pytest.param((0, 150), ("A",), {"B": 1.0}, lambda: _two_strata().filter(lambda row: row.stratum == "A"),
                     "augmentation pool is empty but transfer(m > 0) was requested", id="empty-pool"),
        pytest.param((0,), ("A",), {"B": 1.0}, lambda: _two_strata().filter(lambda row: row.stratum == "A"),
                     "test split has no rows in the target strata", id="no-target-test-rows"),
        # no target density to fall back on: nothing derives one from the empty pool
        pytest.param((0,), ("A",), None, lambda: _two_strata().filter(lambda row: row.stratum == "A"),
                     "test split has no rows in the target strata", id="no-target-rows-no-density"),
    ])
    def test_strata_that_cannot_run_the_protocol_are_named(self, methods, source, density, data, message):
        transfer = TransferSettings(source_strata=source, target_strata=("B",), target_density=density)
        cfg = self._transfer_cfg(methods=tuple(MethodSpec("transfer", (m,)) for m in methods), transfer=transfer)
        provider = _CountingOracle(SyntheticOracleSpec(accuracy=0.9, seed=7))
        with pytest.raises(HarnessError, match=f"^{re.escape(message)}$"):
            run_transfer_experiment(cfg, dataset=data(), provider=provider)
        assert provider.calls == 0

    def test_an_exhausted_stratum_fails_before_any_score_or_training(self, monkeypatch):
        trainings = []
        train_augmented = harness.train_augmented
        monkeypatch.setattr(harness, "train_augmented",
                            lambda *args, **kwargs: trainings.append(1) or train_augmented(*args, **kwargs))
        provider = _CountingOracle(SyntheticOracleSpec(accuracy=0.9, seed=7))
        cfg = self._transfer_cfg(methods=(MethodSpec("transfer", (0,)), MethodSpec("transfer", (5000,))))
        with pytest.raises(TransferError, match="^stratum 'B' exhausted: need 5000 instances"):
            run_transfer_experiment(cfg, dataset=_two_strata(), provider=provider)
        assert provider.calls == 0 and trainings == []

    def test_zero_augmentation_derives_no_density(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("transfer(0) needs no stratum density")

        monkeypatch.setattr(StratumDensity, "from_counts", refuse)
        cfg = self._transfer_cfg(methods=(MethodSpec("transfer", (0,)),))
        report = run_transfer_experiment(cfg, dataset=_two_strata())
        assert report.meta["methods"] == ["llm", "ml", "linear", "transfer(0)"]


class _CountingOracle(SyntheticOracle):
    """A synthetic oracle that counts its score_uncached calls."""

    def __init__(self, spec):
        super().__init__(spec)
        self.calls = 0

    def score_uncached(self, ds):
        self.calls += 1
        return super().score_uncached(ds)


class TestMethodKindsCheckedFirst:
    # each protocol rejects a method kind it does not evaluate before it loads
    # the dataset, asks the oracle for a score or creates the output directory
    @pytest.mark.parametrize("run, method", [
        (run_transfer_experiment, MethodSpec("adalinear", (4,))),
        (run_transfer_experiment, MethodSpec("calibration", (10, 2))),
        (run_experiment, MethodSpec("transfer", (50,))),
    ])
    def test_rejected_before_any_data_or_oracle_call(self, run, method, tmp_path, monkeypatch):
        loads = []
        monkeypatch.setattr(harness, "load_dataset", lambda *args: loads.append(args))
        provider = _CountingOracle(SyntheticOracleSpec(accuracy=0.8, seed=5))
        cfg = _cfg(methods=(MethodSpec("ml"), method),
                   dataset_path=str(DATA / "fixed.jsonl"), out_dir=str(tmp_path / "out"),
                   transfer=TransferSettings(source_strata=("A",), target_strata=("B",)))
        other = "run_experiment" if run is run_transfer_experiment else "run_transfer_experiment"
        with pytest.raises(HarnessError, match=re.escape(f"method '{method.name}' needs")) as err:
            run(cfg, provider=provider)
        assert other in str(err.value)
        assert provider.calls == 0 and loads == []
        assert not (tmp_path / "out").exists()

    def test_missing_target_strata_are_rejected_before_the_provider_or_the_dataset(self, monkeypatch):
        loads, builds = [], []
        monkeypatch.setattr(harness, "load_dataset", lambda *args: loads.append(args))
        monkeypatch.setattr(harness, "build_provider", lambda *args: builds.append(args))
        cfg = _cfg(methods=(MethodSpec("transfer", (0,)),), dataset_path=str(DATA / "fixed.jsonl"),
                   transfer=TransferSettings(source_strata=("A",)))
        with pytest.raises(HarnessError, match=re.escape("needs transfer.target_strata")):
            run_transfer_experiment(cfg)
        assert loads == [] and builds == []

    def test_the_transfer_message_names_the_kinds_it_takes(self):
        cfg = _cfg(methods=(MethodSpec("adalinear", (4,)),))
        with pytest.raises(HarnessError, match=re.escape("takes only llm, ml, linear and transfer(m)")):
            run_transfer_experiment(cfg, dataset=_two_strata())

    def test_the_transfer_protocol_reports_its_three_baselines_for_any_accepted_list(self):
        cfg = _cfg(methods=(MethodSpec("linear"), MethodSpec("transfer", (0,))), seeds=(0,),
                   transfer=TransferSettings(source_strata=("A",), target_strata=("B",)))
        report = run_transfer_experiment(cfg, dataset=_two_strata())
        assert report.meta["methods"] == ["llm", "ml", "linear", "transfer(0)"]


class TestTuneHyperparameter:
    def test_single_candidate_short_circuits(self, monkeypatch):
        # the training side's folds and labels are checked, then the one candidate is the answer
        monkeypatch.setattr(harness, "build_provider", lambda settings: pytest.fail("built a provider"))
        cfg = _cfg(tune_parameter="r", tune_candidates=(6,))
        assert tune_hyperparameter(cfg, dataset=_dataset(200)) == 6

    def test_parameter_and_candidates_validated(self):
        with pytest.raises(HarnessError):
            tune_hyperparameter(_cfg(tune_parameter="q", tune_candidates=(1, 2)))
        with pytest.raises(HarnessError):
            tune_hyperparameter(_cfg(tune_parameter="r", tune_candidates=()))

    def test_r_selection_returns_a_candidate_deterministically(self):
        cfg = _cfg(seeds=(0,), tune_parameter="r")
        ds = _dataset(200, seed=4)
        a = tune_hyperparameter(replace(cfg, tune_candidates=(1, 2, 4)), dataset=ds)
        b = tune_hyperparameter(replace(cfg, tune_candidates=(4, 2, 1)), dataset=ds)
        assert a == b and a in (1, 2, 4)

    def test_perfect_oracle_ties_break_to_the_smallest_r(self):
        # a perfect oracle drives every piece weight to 0 and every candidate
        # to zero loss, so the tie must resolve to the smallest r
        cfg = _cfg(seeds=(0,), oracle=OracleSettings(kind="synthetic", accuracy=1.0),
                   tune_parameter="r", tune_candidates=(2, 5, 9))
        got = tune_hyperparameter(cfg, dataset=_dataset(150))
        assert got == 2

    def test_m_selection_uses_grid_cross_validation(self):
        cfg = _cfg(seeds=(0,), tune_parameter="M", tune_candidates=(2, 5, 10))
        got = tune_hyperparameter(cfg, dataset=_dataset(200))
        assert got in (2, 5, 10)

    def test_config_carries_the_tuning_block(self):
        cfg = _cfg(tune_parameter="r", tune_candidates=(3,),
                   synth=SyntheticSpec(d=3, n=300, true_weights=(2.0, -1.0, 0.5, 0.0), seed=11))
        assert tune_hyperparameter(cfg) == 3

    # the selections that tuned.json records for the fixed dataset file
    @pytest.mark.parametrize("parameter, kind, candidates, selected", [
        ("M", "cell", (2, 5, 10, 20, 40), 2),
        ("M", "additive", (2, 5, 10, 20, 40), 20),
        ("r", "cell", (1, 2, 4, 8, 16), 4),
    ])
    def test_selection_on_the_fixed_file_is_pinned(self, parameter, kind, candidates, selected, tmp_path):
        cfg = _cfg(dataset_path=_fixed_copy(tmp_path, "fixed.csv"), calibration_kind=kind)
        tuned = replace(cfg, tune_parameter=parameter, tune_candidates=candidates)
        assert tune_hyperparameter(tuned) == selected


def _fixed_copy(tmp_path, name):
    """Path of a copy of tests/data/<name> under ``tmp_path``: loading it leaves the
    dataset sidecar there, not in the source tree, and every test loads it cold."""
    (tmp_path / "data").mkdir(exist_ok=True)
    return str(shutil.copy(DATA / name, tmp_path / "data" / name))


def _fixed_file_runs(tmp_path):
    """The fusion and transfer runs over copies of the dataset files in tests/data, by report name."""
    fusion = _cfg(
        methods=(
            MethodSpec("ml"), MethodSpec("llm"), MethodSpec("linear"),
            MethodSpec("adalinear", (4,)), MethodSpec("calibration", (10, 2)),
        ),
        dataset_path=_fixed_copy(tmp_path, "fixed.csv"),
    )
    transfer = _cfg(
        methods=(MethodSpec("transfer", (0,)), MethodSpec("transfer", (60,))),
        test_fraction=0.3,
        oracle=OracleSettings(kind="synthetic", accuracy=0.9, seed=7),
        transfer=TransferSettings(source_strata=("A",), target_strata=("B",)),
        dataset_path=_fixed_copy(tmp_path, "fixed.jsonl"),
    )
    return {"experiment": (run_experiment, fusion), "transfer": (run_transfer_experiment, transfer)}


def _synthetic_seed_runs():
    """The fusion and transfer runs that draw a new synthetic dataset for each of two seeds."""
    fusion = _cfg(
        methods=(
            MethodSpec("ml"), MethodSpec("llm"), MethodSpec("linear"),
            MethodSpec("adalinear", (4,)), MethodSpec("calibration", (10, 2)),
        ),
        synth=SyntheticSpec(d=3, n=300, true_weights=(2.0, -1.0, 0.5, 0.0), seed=11),
    )
    strata = (("A", (1.0, 0.0, 0.0), 0.5), ("B", (0.0, 1.0, 1.0), 0.5))
    transfer = _cfg(
        methods=(MethodSpec("transfer", (0,)), MethodSpec("transfer", (40,))),
        test_fraction=0.3,
        transfer=TransferSettings(source_strata=("A",), target_strata=("B",)),
        synth=SyntheticSpec(d=3, n=400, true_weights=(1.0, -1.0, 1.0, 0.0), strata=strata, seed=12),
    )
    return {"experiment": (run_experiment, fusion), "transfer": (run_transfer_experiment, transfer)}


def _assert_report_close(got, want, path=()):
    """Equal structure; accuracy and n_test exactly equal, other numbers within 1e-12."""
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            _assert_report_close(got[key], want[key], path + (key,))
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for k, (g, w) in enumerate(zip(got, want)):
            _assert_report_close(g, w, path + (k,))
    elif isinstance(want, float) and not {"accuracy", "n_test"} & set(path):
        assert abs(got - want) <= 1e-12, (path, got, want)
    else:
        assert got == want, (path, got, want)


class TestResultsUnchanged:
    # tests/data/report_*.json were written by the code that stored datasets
    # as tuples of Instance objects, before the columnar dataset core
    @pytest.mark.parametrize("name", ["experiment", "transfer"])
    def test_report_matches_the_reference(self, name, tmp_path):
        run, cfg = _fixed_file_runs(tmp_path)[name]
        want = json.loads((DATA / f"report_{name}.json").read_text(encoding="utf-8"))
        _assert_report_close(json.loads(run(cfg).to_json()), want)

    # tests/data/artifacts_*.json were written by the code that still wrote
    # out each protocol's seed loop and each trainer's checks on its own
    @pytest.mark.parametrize("name", ["experiment", "transfer"])
    def test_per_seed_artifacts_match_the_reference(self, name, tmp_path):
        run, cfg = _fixed_file_runs(tmp_path)[name]
        run(replace(cfg, out_dir=str(tmp_path)))
        got = {path.relative_to(tmp_path).as_posix(): json.loads(path.read_text(encoding="utf-8"))
               for path in tmp_path.glob("seed_*/*")}
        want = json.loads((DATA / f"artifacts_{name}.json").read_text(encoding="utf-8"))
        _assert_report_close(got, want)

    @pytest.mark.parametrize("name", ["experiment", "transfer"])
    def test_every_reference_and_written_artifact_loads(self, name, tmp_path):
        classes = (BaseModel, WeightFunction, CellCalibrator, AdditiveCalibrator, TransferPlan)
        run, cfg = _fixed_file_runs(tmp_path)[name]
        run(replace(cfg, out_dir=str(tmp_path / "out")))
        reference = json.loads((DATA / f"artifacts_{name}.json").read_text(encoding="utf-8"))
        for rel, doc in reference.items():
            (tmp_path / "ref" / rel).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / "ref" / rel).write_text(json.dumps(doc), encoding="utf-8")
        paths = sorted(tmp_path.glob("*/seed_*/*.json"))
        assert len(paths) == 2 * len(reference)
        for path in paths:
            assert load_artifact(path, *classes).KIND == json.loads(path.read_text())["kind"]

    @pytest.mark.parametrize("name", ["experiment", "transfer"])
    def test_a_dataset_file_is_loaded_once_per_run(self, name, monkeypatch, tmp_path):
        original, loads = harness.load_dataset, []
        monkeypatch.setattr(harness, "load_dataset", lambda *args: loads.append(args) or original(*args))
        run, cfg = _fixed_file_runs(tmp_path)[name]
        assert len(run(cfg).per_seed) == 2
        assert len(loads) == 1

    # tests/data/report_synthetic_seeds.json was written by the code that still
    # scored each seed's sides on their own, inside the seed loop
    @pytest.mark.parametrize("name", ["experiment", "transfer"])
    def test_per_seed_synthetic_report_matches_the_reference(self, name):
        run, cfg = _synthetic_seed_runs()[name]
        want = json.loads((DATA / "report_synthetic_seeds.json").read_text(encoding="utf-8"))[name]
        _assert_report_close(json.loads(run(cfg).to_json()), want)
