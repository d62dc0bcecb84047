"""No run buys an oracle score before the checks that need none, nor any row twice.

Every test scores through a provider that answers every row, labeled or not,
as a paid judge does, and asserts that no row reaches ``score_uncached``
before the run fails, or that a run asks for each row it needs once.
"""

from dataclasses import replace

import numpy as np
import pytest

from scorefusion import (
    ConfigError,
    DatasetError,
    ExperimentConfig,
    HarnessError,
    LabeledDataset,
    MethodSpec,
    OracleCache,
    OracleError,
    OracleSettings,
    SyntheticOracle,
    SyntheticOracleSpec,
    SyntheticSpec,
    TransferSettings,
    run_experiment,
    run_transfer_experiment,
    save_dataset,
    sigmoid,
    split,
    train,
    tune_hyperparameter,
)
from scorefusion import harness, oracle
from scorefusion.cli import main


@pytest.fixture
def paid(monkeypatch):
    """The rows every synthetic provider is asked to score; each gets 0.5."""
    rows = []

    def score_uncached(self, ds):
        rows.extend(ds.ids())
        return np.full(ds.n, 0.5), []

    monkeypatch.setattr(oracle.SyntheticOracle, "score_uncached", score_uncached)
    return rows


def _dataset(n=40, strata=None):
    rng = np.random.default_rng(3)
    X = rng.standard_normal((n, 2))
    y = (rng.uniform(size=n) < sigmoid(2.0 * X[:, 0])).astype(float)
    return LabeledDataset.from_arrays(X, y=y, strata=strata, prefix="p")


def _without_labels(ds, ids):
    """``ds`` with the labels of ``ids`` removed."""
    drop = set(ids)
    y = [None if i in drop else v for i, v in zip(ds.ids(), ds.y.tolist())]
    return LabeledDataset.from_arrays(ds.feature_matrix(), y=y, strata=ds.strata.tolist(), ids=ds.ids())


def _cfg(**overrides):
    defaults = dict(methods=(MethodSpec("ml"), MethodSpec("llm"), MethodSpec("linear")), seeds=(0,),
                    k=3, oracle=OracleSettings(kind="synthetic", seed=5))
    return ExperimentConfig(**{**defaults, **overrides})


def _transfer_cfg(**overrides):
    transfer = TransferSettings(source_strata=("A",), target_strata=("B",), target_density={"B": 1.0})
    return _cfg(methods=(MethodSpec("transfer", (0,)),), transfer=transfer, **overrides)


def _strata_dataset():
    return _dataset(80, strata=["A", "B"] * 40)


def _side_ids(cfg, ds, side):
    """Ids of the training (0) or test (1) side of ``ds`` for the first seed of ``cfg``."""
    return split(ds, cfg.test_fraction, cfg.seeds[0])[side].ids()


def _refusal(run, *args, **kwargs):
    """The exception that ``run(*args, **kwargs)`` raises."""
    with pytest.raises(Exception) as err:
        run(*args, **kwargs)
    return err.value


class TestProtocols:
    @pytest.mark.parametrize("run", [run_experiment, tune_hyperparameter])
    def test_more_folds_than_training_rows(self, paid, run):
        tune = {"tune_parameter": "r", "tune_candidates": (1, 2)} if run is tune_hyperparameter else {}
        exc = _refusal(run, _cfg(k=35, **tune), dataset=_dataset())
        assert paid == []
        assert isinstance(exc, DatasetError) and str(exc) == "cannot make 35 folds from 32 instances"

    def test_a_missing_training_label(self, paid):
        cfg, ds = _cfg(), _dataset()
        unlabeled = _side_ids(cfg, ds, 0)[:3]
        exc = _refusal(run_experiment, cfg, dataset=_without_labels(ds, unlabeled))
        assert paid == []
        assert isinstance(exc, DatasetError)
        assert str(exc) == f"missing labels for 3 instance(s), e.g. {unlabeled[0]!r}"

    def test_a_missing_source_label_in_a_transfer_run(self, paid):
        cfg, ds = _transfer_cfg(), _strata_dataset()
        source = [i for i in _side_ids(cfg, ds, 0) if ds.subset([i]).strata[0] == "A"]
        exc = _refusal(run_transfer_experiment, cfg, dataset=_without_labels(ds, source[:1]))
        assert paid == []
        assert isinstance(exc, DatasetError)
        assert str(exc) == f"missing labels for 1 instance(s), e.g. {source[0]!r}"

    @pytest.mark.parametrize("run, cfg, data", [
        pytest.param(run_experiment, _cfg(), _dataset, id="fusion"),
        pytest.param(run_transfer_experiment, _transfer_cfg(), _strata_dataset, id="transfer"),
    ])
    def test_a_missing_test_label(self, paid, run, cfg, data):
        ds = data()
        unlabeled = _side_ids(cfg, ds, 1)[-1]
        exc = _refusal(run, cfg, dataset=_without_labels(ds, [unlabeled]))
        assert paid == []
        assert isinstance(exc, DatasetError)
        assert str(exc) == f"missing labels for 1 instance(s), e.g. {unlabeled!r}"

    @pytest.mark.parametrize("parameter", ["r", "M"])
    def test_a_candidate_below_one_is_refused_before_the_provider(self, paid, parameter, monkeypatch):
        builds, build = [], harness.build_provider
        monkeypatch.setattr(harness, "build_provider", lambda settings: builds.append(1) or build(settings))
        exc = _refusal(lambda: tune_hyperparameter(
            replace(_cfg(), tune_parameter=parameter, tune_candidates=(0, 4)), dataset=_dataset()))
        assert paid == [] and builds == []
        assert isinstance(exc, ConfigError) and str(exc) == "tune.candidates must be >= 1, got [0, 4]"


class TestOnePayerPerRun:
    def test_a_later_seed_failing_its_strata_check_pays_nothing(self, paid):
        cfg, probe = _transfer_cfg(seeds=(0, 1)), _dataset(200)
        test0, test1 = (set(split(probe, cfg.test_fraction, seed)[1].ids()) for seed in cfg.seeds)
        ids = probe.ids()
        # one target row in seed 0's test split and none in seed 1's
        target = [i for i in ids if i in test0 - test1][:1] + [i for i in ids if i not in test0 | test1][:3]
        ds = LabeledDataset.from_arrays(probe.feature_matrix(), y=probe.y.tolist(), ids=ids,
                                        strata=["B" if i in target else "A" for i in ids])
        exc = _refusal(run_transfer_experiment, cfg, dataset=ds)
        assert paid == []
        assert isinstance(exc, HarnessError) and str(exc) == "test split has no rows in the target strata"

    def test_a_three_seed_experiment_asks_for_each_row_once(self, paid):
        ds = _dataset(2000)
        run_experiment(_cfg(seeds=(0, 1, 2)), dataset=ds)
        assert sorted(paid) == ds.ids()

    def test_a_three_seed_transfer_asks_for_each_needed_row_once(self, paid):
        cfg = replace(_transfer_cfg(seeds=(0, 1, 2)),
                      methods=(MethodSpec("transfer", (0,)), MethodSpec("transfer", (200,))))
        ds = _dataset(2000, strata=["A", "B"] * 1000)
        run_transfer_experiment(cfg, dataset=ds)
        source = {i for i, tag in zip(ds.ids(), ds.strata) if tag == "A"}
        tested = {i for seed in cfg.seeds for i in split(ds, cfg.test_fraction, seed)[1].ids()}
        assert len(paid) == len(set(paid))
        assert set(paid) >= source | tested
        # the target training rows asked for are the ones drawn: at most 200 per seed
        assert 0 < len(set(paid) - source - tested) <= 600

    def test_a_cache_lacking_a_row_only_a_later_seed_draws_fails_before_any_fit(self, tmp_path, monkeypatch):
        cfg = replace(_transfer_cfg(seeds=(0, 1)),
                      methods=(MethodSpec("transfer", (0,)), MethodSpec("transfer", (30,))))
        ds = _dataset(400, strata=["A", "B"] * 200)
        needed = []
        for seed in cfg.seeds:  # the rows each seed needs, as a one-seed run caches them
            oracle_cfg = OracleSettings(kind="synthetic", seed=5, cache_path=str(tmp_path / f"{seed}.csv"))
            run_transfer_experiment(replace(cfg, seeds=(seed,), oracle=oracle_cfg), dataset=ds)
            needed.append(OracleCache(tmp_path / f"{seed}.csv").scores())
        target = {i for i, tag in zip(ds.ids(), ds.strata) if tag == "B"}
        tested = set(split(ds, cfg.test_fraction, 1)[1].ids())
        missing = sorted((set(needed[1]) - set(needed[0]) - tested) & target)[0]
        scores = {**needed[0], **needed[1]}
        del scores[missing]
        OracleCache(tmp_path / "replay.csv").update(scores)
        fits, train_augmented = [], harness.train_augmented
        monkeypatch.setattr(harness, "train_augmented", lambda *a, **kw: fits.append(1) or train_augmented(*a, **kw))
        cached = OracleSettings(kind="cached", cache_path=str(tmp_path / "replay.csv"))
        exc = _refusal(run_transfer_experiment, replace(cfg, oracle=cached, out_dir=str(tmp_path / "out")),
                       dataset=ds)
        assert isinstance(exc, OracleError) and f"{missing}: not in cache" in str(exc)
        assert fits == [] and not (tmp_path / "out" / "seed_0").exists()

    @pytest.mark.parametrize("via", ["config", "provider"])
    def test_seeds_that_each_draw_a_synthetic_dataset_refuse_a_cache(self, paid, tmp_path, monkeypatch, via):
        # every draw names its rows syn0..., so seed 1 would replay seed 0's scores for other rows
        draws, synthesize = [], harness.synthesize
        monkeypatch.setattr(harness, "synthesize", lambda spec: draws.append(spec) or synthesize(spec))
        cache = str(tmp_path / "scores.csv")
        oracle_cfg = OracleSettings(kind="synthetic", seed=5, cache_path=cache if via == "config" else None)
        provider = SyntheticOracle(SyntheticOracleSpec(seed=5), cache=OracleCache(cache)) if via == "provider" else None
        cfg = _cfg(seeds=(0, 1), oracle=oracle_cfg,
                   synth=SyntheticSpec(d=2, n=400, true_weights=(2.0, -1.0, 0.0)))
        exc = _refusal(run_experiment, cfg, provider=provider)
        assert paid == [] and draws == []
        assert isinstance(exc, HarnessError) and "oracle.cache" in str(exc) and "synth.*" in str(exc)


SYNTH = "synth.d = 2\nsynth.n = 40\nsynth.weights = 2.0, -1.0, 0.0\nsynth.seed = 3\nfolds.k = 3\n"


def _main(capsys, tmp_path, text, *argv):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code = main([*argv, "--config", str(cfg)])
    return code, *capsys.readouterr()


class TestCommandLine:
    def test_fit_linear_with_more_folds_than_rows(self, paid, tmp_path, capsys):
        code, out, err = _main(capsys, tmp_path, SYNTH + "folds.k = 50\n", "fit-linear",
                               "--out", str(tmp_path / "o"))
        assert paid == []
        assert (code, out, err) == (2, "", "error: cannot make 50 folds from 40 instances\n")

    @pytest.mark.parametrize("command, text", [
        pytest.param("experiment", SYNTH, id="experiment"),
        pytest.param("tune", SYNTH + "tune.parameter = r\ntune.candidates = 1, 4\n", id="tune"),
    ])
    def test_an_out_directory_under_a_regular_file(self, paid, tmp_path, capsys, command, text):
        (tmp_path / "afile").write_text("")
        code, out, err = _main(capsys, tmp_path, text, command, "--out", str(tmp_path / "afile" / "sub"))
        assert paid == []
        assert code == 2 and out == "" and err.startswith("error: ")

    def test_eval_with_a_broken_weights_file(self, paid, tmp_path, capsys):
        data = tmp_path / "data.csv"
        save_dataset(_dataset(), data)
        model = tmp_path / "base_model.json"
        train(_dataset()).save(model)
        weights = tmp_path / "weights.json"
        weights.write_text('{"kind": "piecewise_weight", "r": 1')
        text = f"dataset.path = {data}\neval.model = {model}\neval.weights = {weights}\n"
        code, out, err = _main(capsys, tmp_path, text, "eval")
        assert paid == []
        assert code == 2 and out == "" and err.startswith(f"error: {weights} is not a JSON artifact")

    @pytest.mark.parametrize("command, text, named", [
        *(pytest.param(command, SYNTH + "folds.k = 500\n", "cannot make 500 folds", id=f"{command}-k500")
          for command in ("experiment", "fit-linear")),
        *(pytest.param(command, "dataset.path = GONE\n", "gone.csv", id=f"{command}-missing-dataset")
          for command in ("score", "fit-base", "fit-linear", "calibrate")),
        pytest.param("tune", SYNTH + "tune.parameter = q\ntune.candidates = 1, 4\n", "'q'", id="tune-q"),
        pytest.param("tune", SYNTH + "tune.candidates = 1, 4\n", "got None", id="tune-unset"),
        pytest.param("tune", SYNTH + "tune.parameter = r\n", "tune.candidates", id="tune-no-candidates"),
        pytest.param("tune", "dataset.path = GONE\ntune.parameter = r\ntune.candidates = 4\n", "gone.csv",
                     id="tune-one-candidate-missing-dataset"),
        pytest.param("tune", SYNTH + "folds.k = 500\ntune.parameter = r\ntune.candidates = 4\n",
                     "cannot make 500 folds", id="tune-one-candidate-k500"),
    ])
    def test_a_failed_free_check_leaves_no_out_directory(self, paid, tmp_path, capsys, command, text, named):
        text = text.replace("GONE", str(tmp_path / "gone.csv"))
        code, out, err = _main(capsys, tmp_path, text, command, "--out", str(tmp_path / "o"))
        assert paid == []
        assert code == 2 and out == "" and err.startswith("error: ") and len(err.splitlines()) == 1
        assert named in err
        assert not (tmp_path / "o").exists()
