"""End-to-end command-line interface checks (all in-process via main)."""

import json

import pytest

from scorefusion import BaseModel, OracleCache, WeightFunction, load_calibrator, load_dataset
from scorefusion.cli import main

SYNTH_BLOCK = """
synth.d = 2
synth.n = 160
synth.weights = 2.0, -1.0, 0.0
synth.seed = 3
"""

STRATA_BLOCK = """
synth.d = 2
synth.n = 400
synth.weights = 1.5, -1.5, 0.0
synth.seed = 3
synth.strata = A:0.5:1|0, B:0.5:-1|0
"""


def _write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParser:
    def test_help_lists_subcommands_and_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for sub in ("synth", "score", "fit-base", "fit-linear", "fit-adaptive",
                    "calibrate", "transfer", "eval", "experiment", "tune"):
            assert sub in out
        assert "folds.k = 5" in out
        assert "oracle.accuracy = 0.85" in out

    def test_subcommand_help_carries_the_common_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiment", "--help"])
        out = capsys.readouterr().out
        assert "--config" in out and "--seed" in out and "--out" in out

    def test_seed_must_fit_u64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--seed", "-1"])
        assert exc.value.code == 2


class TestErrorHandling:
    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        code, _, err = _run(capsys, "experiment", "--config", str(tmp_path / "nope.cfg"))
        assert code == 2
        assert "error:" in err and "not found" in err

    @pytest.mark.parametrize("kind", ["directory", "undecodable"])
    def test_unreadable_config_file_exits_2_with_one_error_line(self, tmp_path, capsys, kind):
        path = tmp_path / "exp.cfg"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"folds.k = 4 \xff\n")
        code, _, err = _run(capsys, "experiment", "--config", str(path))
        assert code == 2
        assert err.splitlines() == [err.strip()] and err.startswith(f"error: cannot read config file {path}")

    @pytest.mark.parametrize("density", ["A:0, B:0", "A:-1, B:2"])
    def test_transfer_with_an_unusable_target_density_exits_2_before_running(self, tmp_path, capsys, density):
        cfg = _write_cfg(
            tmp_path,
            STRATA_BLOCK + "methods = transfer(0)\ntransfer.source_strata = A\n"
            + f"transfer.target_strata = B\ntransfer.target_density = {density}\nseeds = 0\n",
        )
        code, out, err = _run(capsys, "transfer", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 2 and out == ""
        assert err.splitlines() == [err.strip()] and err.startswith("error: transfer.target_density")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, methods, message", [
        ("transfer", "ml, adalinear(4)", "method 'adalinear(4)' needs the fusion protocol"),
        ("transfer", "calibration(10,2)", "method 'calibration(10,2)' needs the fusion protocol"),
        ("experiment", "ml, transfer(50)", "method 'transfer(50)' needs the transfer protocol"),
    ])
    def test_a_method_of_the_other_protocol_exits_2_before_running(self, tmp_path, capsys,
                                                                   command, methods, message):
        cfg = _write_cfg(tmp_path, STRATA_BLOCK + f"methods = {methods}\n"
                         + "transfer.source_strata = A\ntransfer.target_strata = B\n")
        code, out, err = _run(capsys, command, "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 2 and out == ""
        assert err.splitlines() == [err.strip()] and err.startswith(f"error: {message}")
        assert not (tmp_path / "o").exists()

    def test_a_repeated_seed_exits_2(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, SYNTH_BLOCK + "seeds = 3, 3\n")
        code, _, err = _run(capsys, "experiment", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 2 and "repeated: 3" in err
        assert not (tmp_path / "o").exists()

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "bogus.key = 1\n")
        code, _, err = _run(capsys, "experiment", "--config", cfg)
        assert code == 2 and "bogus.key" in err

    def test_writing_subcommand_requires_out(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, SYNTH_BLOCK)
        code, _, err = _run(capsys, "synth", "--config", cfg)
        assert code == 2 and "--out" in err

    def test_score_with_an_unknown_prompt_placeholder_exits_2_before_any_post(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, SYNTH_BLOCK + "oracle.kind = http\noracle.url = http://127.0.0.1:9/score\n"
                         "oracle.model = judge-1\noracle.prompt_template = rate {item}\noracle.backoff = 0\n")
        code, out, err = _run(capsys, "score", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 2 and out == ""
        assert err == "error: prompt_template may use only {id} and {stratum}, not {item}\n"

    def test_synth_requires_the_synth_block(self, tmp_path, capsys):
        code, _, err = _run(capsys, "synth", "--out", str(tmp_path / "o"))
        assert code == 2 and "synth" in err


class TestDataPipeline:
    def test_synth_then_score_then_fit_base(self, tmp_path, capsys):
        out = tmp_path / "work"
        cfg = _write_cfg(tmp_path, SYNTH_BLOCK + "oracle.accuracy = 0.9\n")
        code, msg, _ = _run(capsys, "synth", "--config", cfg, "--out", str(out))
        assert code == 0 and "160 rows" in msg
        ds = load_dataset(out / "synthetic.csv")
        assert ds.n == 160 and ds.has_labels

        data_cfg = _write_cfg(
            tmp_path,
            f"dataset.path = {out / 'synthetic.csv'}\noracle.accuracy = 0.9\n",
            "score.cfg",
        )
        code, msg, _ = _run(capsys, "score", "--config", data_cfg, "--out", str(out))
        assert code == 0 and "scored 160 instances" in msg
        scored = load_dataset(out / "scored.csv")
        assert scored.has_oracle_scores
        cache = OracleCache(out / "scores.csv")
        assert len(cache) == 160

        code, msg, _ = _run(capsys, "fit-base", "--config", data_cfg, "--out", str(out))
        assert code == 0 and "trained on 160 rows" in msg
        model = BaseModel.load(out / "base_model.json")
        assert model.dim == 2

    def test_fit_linear_and_adaptive_and_calibrate(self, tmp_path, capsys):
        out = tmp_path / "fit"
        cfg = _write_cfg(tmp_path, SYNTH_BLOCK + "fusion.r = 3\nfolds.k = 4\n")
        code, msg, _ = _run(capsys, "fit-linear", "--config", cfg, "--out", str(out))
        assert code == 0 and "constant weight alpha" in msg
        wf = WeightFunction.load(out / "weights_constant.json")
        assert wf.r == 1

        code, msg, _ = _run(capsys, "fit-adaptive", "--config", cfg, "--out", str(out))
        assert code == 0 and "r=3" in msg
        wf = WeightFunction.load(out / "weights_adaptive.json")
        assert wf.r == 3

        code, msg, _ = _run(capsys, "calibrate", "--config", cfg, "--out", str(out))
        assert code == 0 and "(10, 2)" in msg
        cal = load_calibrator(out / "calibrator.json")
        assert cal.parameter_count == 11 * 3

        additive_cfg = _write_cfg(
            tmp_path, SYNTH_BLOCK + "calibration.kind = additive\ncalibration.base_res = 5\n",
            "add.cfg",
        )
        code, msg, _ = _run(capsys, "calibrate", "--config", additive_cfg, "--out", str(out))
        assert code == 0
        cal = load_calibrator(out / "calibrator.json")
        assert cal.parameter_count == 6 + 3

    def test_score_writes_a_cache_it_can_read_back(self, tmp_path, capsys):
        # ids holding a comma or a quote must be quoted in scores.csv
        data = tmp_path / "quoted.csv"
        data.write_text('id,f0,y\n"a,b",0.5,1\n"d""q",-0.5,0\nplain,1.0,1\n')
        cfg = _write_cfg(tmp_path, f"dataset.path = {data}\n")
        out = tmp_path / "sc"
        for _ in range(2):  # a second run replaces the file instead of appending to it
            code, msg, _ = _run(capsys, "score", "--config", cfg, "--out", str(out))
            assert code == 0 and "scored 3 instances" in msg
        scored = load_dataset(out / "scored.csv")
        cache = OracleCache(out / "scores.csv")
        assert cache.scores() == dict(zip(scored.ids(), scored.oracle_scores().tolist()))
        assert set(cache.scores()) == {"a,b", 'd"q', "plain"}
        assert len((out / "scores.csv").read_bytes().splitlines()) == 4


class TestExperimentCommands:
    def test_experiment_prints_and_saves_reports(self, tmp_path, capsys):
        out = tmp_path / "exp"
        cfg = _write_cfg(
            tmp_path, SYNTH_BLOCK + "methods = ml, llm, linear\nseeds = 0, 1\nfolds.k = 3\n"
        )
        code, msg, _ = _run(capsys, "experiment", "--config", cfg, "--out", str(out))
        assert code == 0
        for line in ("llm: accuracy", "ml: accuracy", "linear: accuracy"):
            assert line in msg
        report = json.loads((out / "report.json").read_text())
        assert {e["seed"] for e in report["per_seed"]} == {0, 1}
        assert (out / "report.csv").exists()
        assert (out / "seed_0" / "base_model.json").exists()

    def test_seed_flag_overrides_config_seeds(self, tmp_path, capsys):
        out = tmp_path / "seeded"
        cfg = _write_cfg(tmp_path, SYNTH_BLOCK + "seeds = 0, 1, 2\nfolds.k = 3\n")
        code, _, _ = _run(capsys, "experiment", "--config", cfg,
                          "--seed", "9", "--out", str(out))
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert [e["seed"] for e in report["per_seed"]] == [9]

    def test_transfer_experiment_reports_both_sides(self, tmp_path, capsys):
        cfg = _write_cfg(
            tmp_path,
            STRATA_BLOCK
            + "methods = transfer(0), transfer(100)\n"
            + "transfer.source_strata = A\ntransfer.target_strata = B\n"
            + "folds.k = 3\ndataset.test_fraction = 0.3\n",
        )
        code, msg, _ = _run(capsys, "transfer", "--config", cfg)
        assert code == 0
        assert "ml@source: accuracy" in msg
        assert "transfer(100)@target: accuracy" in msg

    def test_tune_prints_and_writes_the_selection(self, tmp_path, capsys):
        out = tmp_path / "tuned"
        cfg = _write_cfg(
            tmp_path, SYNTH_BLOCK + "tune.parameter = r\ntune.candidates = 1, 2, 4\nfolds.k = 3\n"
        )
        code, msg, _ = _run(capsys, "tune", "--config", cfg, "--out", str(out))
        assert code == 0 and msg.startswith("r = ")
        doc = json.loads((out / "tuned.json").read_text())
        assert doc["parameter"] == "r" and doc["selected"] in (1, 2, 4)


class TestEvalCommand:
    def _fitted_artifacts(self, tmp_path, capsys):
        out = tmp_path / "arts"
        cfg = _write_cfg(tmp_path, SYNTH_BLOCK + "folds.k = 3\n")
        assert _run(capsys, "fit-base", "--config", cfg, "--out", str(out))[0] == 0
        assert _run(capsys, "fit-linear", "--config", cfg, "--out", str(out))[0] == 0
        assert _run(capsys, "calibrate", "--config", cfg, "--out", str(out))[0] == 0
        assert _run(capsys, "synth", "--config", cfg, "--out", str(out))[0] == 0
        return out

    def test_eval_with_fusion_weights(self, tmp_path, capsys):
        arts = self._fitted_artifacts(tmp_path, capsys)
        cfg = _write_cfg(
            tmp_path,
            f"dataset.path = {arts / 'synthetic.csv'}\n"
            f"eval.model = {arts / 'base_model.json'}\n"
            f"eval.weights = {arts / 'weights_constant.json'}\n",
            "eval.cfg",
        )
        code, msg, _ = _run(capsys, "eval", "--config", cfg, "--out", str(tmp_path / "ev"))
        assert code == 0
        doc = json.loads((tmp_path / "ev" / "eval.json").read_text())
        assert set(doc) == {"ml", "llm", "fused"}
        assert 0.0 <= doc["fused"]["accuracy"] <= 1.0

    def test_eval_with_a_calibrator(self, tmp_path, capsys):
        arts = self._fitted_artifacts(tmp_path, capsys)
        cfg = _write_cfg(
            tmp_path,
            f"dataset.path = {arts / 'synthetic.csv'}\n"
            f"eval.model = {arts / 'base_model.json'}\n"
            f"eval.calibrator = {arts / 'calibrator.json'}\n",
            "evalc.cfg",
        )
        code, msg, _ = _run(capsys, "eval", "--config", cfg)
        assert code == 0
        doc = json.loads(msg)
        assert set(doc) == {"ml", "llm", "calibrated"}

    def test_weights_and_calibrator_are_mutually_exclusive(self, tmp_path, capsys):
        arts = self._fitted_artifacts(tmp_path, capsys)
        cfg = _write_cfg(
            tmp_path,
            f"dataset.path = {arts / 'synthetic.csv'}\n"
            f"eval.model = {arts / 'base_model.json'}\n"
            f"eval.weights = {arts / 'weights_constant.json'}\n"
            f"eval.calibrator = {arts / 'calibrator.json'}\n",
            "evalboth.cfg",
        )
        code, _, err = _run(capsys, "eval", "--config", cfg)
        assert code == 2 and "mutually exclusive" in err

    def test_eval_with_an_artifact_of_the_wrong_kind_exits_2(self, tmp_path, capsys):
        arts = self._fitted_artifacts(tmp_path, capsys)
        cfg = _write_cfg(
            tmp_path,
            f"dataset.path = {arts / 'synthetic.csv'}\n"
            f"eval.model = {arts / 'base_model.json'}\n"
            f"eval.weights = {arts / 'calibrator.json'}\n",
            "evalwrong.cfg",
        )
        code, _, err = _run(capsys, "eval", "--config", cfg)
        assert code == 2 and err.startswith("error:")
        assert "calibrator.json" in err and "piecewise_weight" in err

    def test_eval_requires_a_model(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, SYNTH_BLOCK, "nomodel.cfg")
        code, _, err = _run(capsys, "eval", "--config", cfg)
        assert code == 2 and "eval.model" in err


class TestDeterminism:
    def test_cached_scores_make_reports_byte_identical(self, tmp_path, capsys):
        work = tmp_path / "w"
        base_cfg = SYNTH_BLOCK + "folds.k = 3\nmethods = ml, llm, linear\n"
        cfg = _write_cfg(tmp_path, base_cfg)
        assert _run(capsys, "synth", "--config", cfg, "--out", str(work))[0] == 0
        score_cfg = _write_cfg(
            tmp_path, f"dataset.path = {work / 'synthetic.csv'}\n", "s.cfg"
        )
        assert _run(capsys, "score", "--config", score_cfg, "--out", str(work))[0] == 0

        run_cfg = _write_cfg(
            tmp_path,
            f"dataset.path = {work / 'synthetic.csv'}\n"
            f"oracle.kind = cached\noracle.cache = {work / 'scores.csv'}\n"
            "methods = ml, llm, linear\nfolds.k = 3\nseeds = 0\n",
            "run.cfg",
        )
        assert _run(capsys, "experiment", "--config", run_cfg, "--out", str(tmp_path / "r1"))[0] == 0
        assert _run(capsys, "experiment", "--config", run_cfg, "--out", str(tmp_path / "r2"))[0] == 0
        a = (tmp_path / "r1" / "report.json").read_bytes()
        b = (tmp_path / "r2" / "report.json").read_bytes()
        assert a == b
