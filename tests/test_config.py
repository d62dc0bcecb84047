"""Flat key = value configuration files and method specifications."""

import re

import pytest

from scorefusion import (
    ConfigError,
    ExperimentConfig,
    MethodSpec,
    load_config,
    parse_config_text,
)
from scorefusion.config import DEFAULT_LINES, BaseSettings, config_from_mapping


class TestParseConfigText:
    def test_keys_values_and_comments(self):
        text = """
        # experiment setup
        folds.k = 3
        seeds = 1, 2, 3

        methods = ml, linear
        """
        values = parse_config_text(text)
        assert values["folds.k"] == "3"
        assert values["seeds"] == "1, 2, 3"
        assert values["methods"] == "ml, linear"

    def test_comments_are_whole_lines_only(self):
        # '#' inside a value is literal (prompt templates may contain it)
        values = parse_config_text("oracle.prompt_template = item #{id}")
        assert values["oracle.prompt_template"] == "item #{id}"

    def test_unknown_keys_are_rejected_with_the_name(self):
        with pytest.raises(ConfigError, match="fold.count"):
            parse_config_text("fold.count = 5")

    def test_missing_equals_sign(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("folds.k 5")

    def test_values_may_contain_equals_signs(self):
        values = parse_config_text("oracle.url = http://h/score?a=b")
        assert values["oracle.url"] == "http://h/score?a=b"


class TestMethodSpec:
    def test_bare_and_parameterized_forms(self):
        assert MethodSpec.parse("ml") == MethodSpec("ml")
        assert MethodSpec.parse("adalinear(6)") == MethodSpec("adalinear", (6,))
        assert MethodSpec.parse("calibration(8, 3)") == MethodSpec("calibration", (8, 3))
        assert MethodSpec.parse("transfer(500)") == MethodSpec("transfer", (500,))

    def test_defaults_fill_in_missing_parameters(self):
        assert MethodSpec.parse("adalinear").params == (4,)
        assert MethodSpec.parse("calibration").params == (10, 2)

    def test_transfer_requires_a_count(self):
        with pytest.raises(ConfigError):
            MethodSpec.parse("transfer")

    def test_name_round_trips(self):
        for text in ("ml", "llm", "linear", "adalinear(4)", "calibration(10,2)", "transfer(9)"):
            assert MethodSpec.parse(text).name == text

    def test_bad_methods_rejected(self):
        for text in ("boost", "adalinear(0)", "calibration(10)", "transfer(-1)", "linear(2,"):
            with pytest.raises(ConfigError):
                MethodSpec.parse(text)

    @pytest.mark.parametrize("kind, params, message", [
        ("adalinear", (0,), "'adalinear' parameters must be >= (1,)"),
        ("calibration", (10, 0), "'calibration' parameters must be >= (1, 1)"),
        ("transfer", (-1,), "'transfer' parameters must be >= (0,)"),
        ("ml", (1,), "'ml' takes 0 parameter(s)"),
        ("calibration", (10,), "'calibration' takes 2 parameter(s)"),
        ("boost", (), "unknown method 'boost'"),
    ])
    def test_arity_and_least_values_are_checked_on_construction(self, kind, params, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            MethodSpec(kind, params)


class TestConfigFromMapping:
    def test_defaults(self):
        cfg = config_from_mapping({})
        assert cfg.k == 5 and cfg.seeds == (0,) and cfg.test_fraction == 0.2
        assert tuple(m.name for m in cfg.methods) == ("ml", "llm", "linear")
        assert cfg.base.reg_lambda == 1e-3
        assert cfg.oracle.kind == "synthetic" and cfg.oracle.accuracy == 0.85

    def test_method_list_with_parenthesized_arguments(self):
        cfg = config_from_mapping({"methods": "ml, calibration(10,2), adalinear(3)"})
        assert tuple(m.name for m in cfg.methods) == ("ml", "calibration(10,2)", "adalinear(3)")

    def test_synth_block_builds_a_spec(self):
        cfg = config_from_mapping({
            "synth.d": "2",
            "synth.n": "100",
            "synth.weights": "1.0, -1.0, 0.5",
            "synth.strata": "A:0.5:0|0, B:0.5:2|0",
            "synth.seed": "7",
        })
        assert cfg.synth.d == 2 and cfg.synth.n == 100
        assert cfg.synth.true_weights == (1.0, -1.0, 0.5)
        assert cfg.synth.strata == (("A", (0.0, 0.0), 0.5), ("B", (2.0, 0.0), 0.5))
        assert cfg.synth.seed == 7

    def test_partial_synth_block_is_an_error(self):
        with pytest.raises(ConfigError, match="synth"):
            config_from_mapping({"synth.d": "2"})

    def test_transfer_block(self):
        cfg = config_from_mapping({
            "transfer.source_strata": "A",
            "transfer.target_strata": "B, C",
            "transfer.target_density": "B:0.25, C:0.75",
            "transfer.round_oracle": "true",
            "transfer.slack_a": "0.2",
        })
        assert cfg.transfer.source_strata == ("A",)
        assert cfg.transfer.target_strata == ("B", "C")
        assert cfg.transfer.target_density == {"B": 0.25, "C": 0.75}
        assert cfg.transfer.round_oracle is True
        assert cfg.transfer.slack_a == 0.2

    @pytest.mark.parametrize("density", ["A:0, B:0", "A:-1, B:2", "A:0.5, B:-0.1"])
    def test_a_target_density_without_positive_mass_is_rejected_at_load(self, density):
        with pytest.raises(ConfigError, match="transfer.target_density"):
            config_from_mapping({"transfer.target_density": density})

    def test_a_target_density_with_zero_weights_beside_positive_ones_loads(self):
        cfg = config_from_mapping({"transfer.target_density": "A:0, B:2"})
        assert cfg.transfer.target_density == {"A": 0.0, "B": 2.0}

    @pytest.mark.parametrize("key", [
        "methods", "seeds", "tune.candidates", "synth.strata",
        "transfer.source_strata", "transfer.target_strata", "transfer.target_density",
    ])
    def test_an_empty_list_value_keeps_the_default(self, key):
        synth = {"synth.d": "2", "synth.n": "10", "synth.weights": "1, -1, 0"}
        assert config_from_mapping({**synth, key: " "}) == config_from_mapping(synth)

    def test_type_errors_name_the_key(self):
        with pytest.raises(ConfigError, match="folds.k"):
            config_from_mapping({"folds.k": "five"})
        with pytest.raises(ConfigError, match="true or false"):
            config_from_mapping({"transfer.round_oracle": "maybe"})

    def test_validation_of_ranges(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"dataset.test_fraction": "1.5"})
        with pytest.raises(ConfigError):
            config_from_mapping({"folds.k": "1"})
        with pytest.raises(ConfigError):
            config_from_mapping({"oracle.kind": "psychic"})
        with pytest.raises(ConfigError):
            config_from_mapping({"oracle.kind": "cached"})  # no cache path

    @pytest.mark.parametrize("key, value, repeated", [
        ("seeds", "3, 3", "seed may be listed once; repeated: 3"),
        ("seeds", "1, 2, 1, 2", "seed may be listed once; repeated: 1, 2"),
        ("methods", "ml, ml, linear", "method may be listed once; repeated: ml"),
        ("methods", "transfer(500), transfer(0), transfer(500)",
         "method may be listed once; repeated: transfer(500)"),
        ("methods", "adalinear, adalinear(4)", "method may be listed once; repeated: adalinear(4)"),
    ])
    def test_a_repeated_seed_or_method_is_rejected_at_load(self, key, value, repeated):
        with pytest.raises(ConfigError, match=re.escape(repeated)):
            config_from_mapping({key: value})

    @pytest.mark.parametrize("key, value, message", [
        ("methods", "ml, adalinear(x)", "method parameters must be integers in 'adalinear(x)'"),
        ("base.reg_lambda", "-1", "invalid base-model hyperparameters: reg_lambda=-1.0"),
        ("oracle.kind", "http", "oracle.kind = http requires oracle.url and oracle.model"),
        ("transfer.slack_a", "-0.5", "transfer.slack_a must be >= 0, got -0.5"),
        ("fusion.r", "0", "fusion.r must be >= 1, got 0"),
        ("tune.candidates", "0, 4", "tune.candidates must be >= 1, got [0, 4]"),
        ("calibration.base_res", "0", "calibration grid resolutions must be >= 1"),
        ("calibration.kind", "grid", "calibration.kind must be cell or additive, got 'grid'"),
        ("seeds", "1, x", "seeds must be comma-separated integers"),
        ("seeds", "2, -1", "seeds must be >= 0, got [2, -1]"),
        ("base.reg_lambda", "nan", "base.reg_lambda must be a finite number, got 'nan'"),
        ("synth.weights", "nan, -1, 0", "synth.weights must be comma-separated finite numbers"),
        ("synth.strata", "A:nan:0|0", "synth.strata entry 'A:nan:0|0' has non-numeric fields"),
        ("transfer.target_density", "A:inf", "transfer.target_density entry 'A:inf' has a bad number"),
        ("synth.strata", "A:0.5", "synth.strata entry 'A:0.5' must be tag:weight:s0|s1|..."),
        ("synth.strata", "A:x:0|0", "synth.strata entry 'A:x:0|0' has non-numeric fields"),
        ("transfer.target_density", "A", "transfer.target_density entry 'A' must be tag:prob"),
        ("transfer.target_density", "A:x", "transfer.target_density entry 'A:x' has a bad number"),
        ("bogus.key", "1", "unknown config key(s): ['bogus.key']"),
    ])
    def test_a_bad_value_is_rejected_naming_it(self, key, value, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            config_from_mapping({key: value})

    @pytest.mark.parametrize("field, message", [
        ("seeds", "at least one seed is required"),
        ("methods", "at least one method is required"),
    ])
    def test_an_empty_seed_or_method_tuple_is_rejected_on_construction(self, field, message):
        # an empty config list keeps the default, so only a direct construction reaches this
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(**{field: ()})

    @pytest.mark.parametrize("name", ["reg_lambda", "tol"])
    def test_a_nan_base_setting_is_rejected_on_construction(self, name):
        with pytest.raises(ConfigError, match=f"^invalid base-model hyperparameters: .*{name}=nan"):
            BaseSettings(**{name: float("nan")})

    def test_distinct_seeds_and_methods_load(self):
        cfg = config_from_mapping({"seeds": "3, 4", "methods": "transfer(500), transfer(50), ml"})
        assert cfg.seeds == (3, 4)
        assert [m.name for m in cfg.methods] == ["transfer(500)", "transfer(50)", "ml"]

    def test_data_source_requirement(self):
        cfg = config_from_mapping({})
        with pytest.raises(ConfigError):
            cfg.require_data_source()
        with_path = config_from_mapping({"dataset.path": "x.csv"})
        with_path.require_data_source()

    def test_literal_help_defaults_parse_to_the_defaults(self):
        defaults = config_from_mapping({})
        checked = []
        for line in DEFAULT_LINES.splitlines():
            key, _, rest = line.partition(" = ")
            shown = rest.split(" -- ")[0].strip()
            if key.startswith("synth.") or shown.startswith("("):
                continue  # synth.* builds a spec only as a block; (unset)-style placeholders
            assert config_from_mapping({key: shown}) == defaults, line
            checked.append(key)
        assert "base.tol" in checked and "methods" in checked and "transfer.round_oracle" in checked


class TestLoadConfig:
    def test_reads_a_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("folds.k = 4\nseeds = 5\nmethods = ml\n")
        cfg = load_config(path)
        assert cfg.k == 4 and cfg.seeds == (5,)
        assert isinstance(cfg, ExperimentConfig)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.cfg")

    def test_a_directory_is_a_config_error_naming_it(self, tmp_path):
        with pytest.raises(ConfigError, match=re.escape(f"cannot read config file {tmp_path}")):
            load_config(tmp_path)

    def test_undecodable_bytes_are_a_config_error_naming_the_file(self, tmp_path):
        path = tmp_path / "latin1.cfg"
        path.write_bytes("# caf\xe9\nfolds.k = 4\n".encode("latin-1"))
        with pytest.raises(ConfigError, match=re.escape(f"cannot read config file {path} as UTF-8")):
            load_config(path)
