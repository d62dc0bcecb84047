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
from scorefusion.config import DEFAULT_LINES, config_from_mapping


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

    def test_missing_referenced_files_reported(self, tmp_path):
        cfg = config_from_mapping({"dataset.path": str(tmp_path / "absent.csv")})
        with pytest.raises(ConfigError, match="missing file"):
            cfg.validate_paths()


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
