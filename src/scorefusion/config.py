"""Flat key = value experiment configuration.

The config file is plain text: one ``key = value`` pair per line, ``#``
comments, blank lines ignored, later duplicates override earlier ones. Dotted
keys group related settings (``oracle.accuracy``); list values are
comma-separated. ``KEYS`` is the one table of keys: each maps to a settings
group, a field, a parser and its meaning. Defaults live only on the dataclass
fields, and the oracle's on the provider specs, so a config file needs only
the keys it changes; ``DEFAULT_LINES`` (which the CLI prints under --help) is
built from the table and the fields.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from pathlib import Path

from .data import SyntheticSpec
from .oracle import HttpOracleConfig, SyntheticOracleSpec


class ConfigError(ValueError):
    """Raised for unparseable files, unknown keys, or invalid values."""


_METHOD_RE = re.compile(r"^([a-z_]+)\s*(?:\(\s*([^)]*?)\s*\))?$")

_METHOD_KINDS = {
    # kind: (least value of each integer parameter, defaults or None when required)
    "llm": ((), ()),
    "ml": ((), ()),
    "linear": ((), ()),
    "adalinear": ((1,), (4,)),
    "calibration": ((1, 1), (10, 2)),
    "transfer": ((0,), None),
}


@dataclass(frozen=True)
class MethodSpec:
    """One entry of the method set, e.g. adalinear(4) or calibration(10,2)."""

    kind: str
    params: tuple = ()

    def __post_init__(self):
        if self.kind not in _METHOD_KINDS:
            raise ConfigError(f"unknown method {self.kind!r}; expected one of {sorted(_METHOD_KINDS)}")
        object.__setattr__(self, "params", tuple(int(p) for p in self.params))
        least, _ = _METHOD_KINDS[self.kind]
        if len(self.params) != len(least):
            raise ConfigError(f"method {self.kind!r} takes {len(least)} parameter(s), got {self.params}")
        if any(p < lo for p, lo in zip(self.params, least)):
            raise ConfigError(f"method {self.kind!r} parameters must be >= {least}, got {self.params}")

    @property
    def name(self) -> str:
        if not self.params:
            return self.kind
        return f"{self.kind}({','.join(str(p) for p in self.params)})"

    @classmethod
    def parse(cls, text: str) -> "MethodSpec":
        match = _METHOD_RE.match(text.strip().lower())
        if not match:
            raise ConfigError(f"cannot parse method {text!r}")
        kind, raw = match.group(1), match.group(2)
        if not raw:
            least, defaults = _METHOD_KINDS.get(kind, ((), ()))  # an unknown kind fails in cls()
            if defaults is None:
                raise ConfigError(f"method {kind!r} needs {len(least)} parameter(s), e.g. {kind}(1000)")
            return cls(kind, defaults)
        try:
            params = tuple(int(p.strip()) for p in raw.split(","))
        except ValueError:
            raise ConfigError(f"method parameters must be integers in {text!r}") from None
        return cls(kind, params)


@dataclass(frozen=True)
class BaseSettings:
    """Hyperparameters shared by every trainer."""

    reg_lambda: float = 1e-3
    max_iter: int = 5000
    tol: float = 1e-6

    def __post_init__(self):
        if self.reg_lambda < 0 or self.max_iter < 1 or self.tol <= 0:
            raise ConfigError(
                f"invalid base-model hyperparameters: reg_lambda={self.reg_lambda}, "
                f"max_iter={self.max_iter}, tol={self.tol}"
            )


@dataclass(frozen=True)
class OracleSettings:
    """The ``oracle.*`` keys; the provider defaults come from the provider specs."""

    kind: str = "synthetic"
    accuracy: float = SyntheticOracleSpec.accuracy
    mode: str = SyntheticOracleSpec.mode
    noise: float = SyntheticOracleSpec.noise
    seed: int = SyntheticOracleSpec.seed
    cache_path: str | None = None
    url: str | None = None
    model: str | None = None
    auth_env: str | None = None
    prompt_template: str = HttpOracleConfig.prompt_template
    timeout: float = HttpOracleConfig.timeout
    retries: int = HttpOracleConfig.retries
    backoff: float = HttpOracleConfig.backoff
    max_concurrency: int = HttpOracleConfig.max_concurrency

    def __post_init__(self):
        if self.kind not in ("synthetic", "cached", "http"):
            raise ConfigError(f"oracle.kind must be synthetic, cached, or http, got {self.kind!r}")
        if self.kind == "cached" and not self.cache_path:
            raise ConfigError("oracle.kind = cached requires oracle.cache")
        if self.kind == "http" and (not self.url or not self.model):
            raise ConfigError("oracle.kind = http requires oracle.url and oracle.model")


@dataclass(frozen=True)
class TransferSettings:
    slack_a: float = 0.1
    source_strata: tuple = ()
    target_strata: tuple = ()
    target_density: dict | None = None
    round_oracle: bool = False

    def __post_init__(self):
        object.__setattr__(self, "source_strata", tuple(str(t) for t in self.source_strata))
        object.__setattr__(self, "target_strata", tuple(str(t) for t in self.target_strata))
        if self.slack_a < 0:
            raise ConfigError(f"transfer.slack_a must be >= 0, got {self.slack_a}")
        density = self.target_density
        if density is not None and (any(p < 0 for p in density.values()) or not sum(density.values()) > 0):
            raise ConfigError(
                f"transfer.target_density weights must be >= 0 and sum to more than 0, got {density}"
            )


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything an experiment run needs; mirrors the flat config keys."""

    dataset_path: str | None = None
    dataset_format: str | None = None
    synth: SyntheticSpec | None = None
    test_fraction: float = 0.2
    k: int = 5
    methods: tuple = (MethodSpec("ml"), MethodSpec("llm"), MethodSpec("linear"))
    seeds: tuple = (0,)
    base: BaseSettings = field(default_factory=BaseSettings)
    oracle: OracleSettings = field(default_factory=OracleSettings)
    transfer: TransferSettings = field(default_factory=TransferSettings)
    out_dir: str | None = None
    fusion_r: int = 4
    calibration_base_res: int = 10
    calibration_oracle_res: int = 2
    calibration_kind: str = "cell"
    eval_model: str | None = None
    eval_weights: str | None = None
    eval_calibrator: str | None = None
    tune_parameter: str | None = None
    tune_candidates: tuple = ()

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError(f"test fraction must be in (0, 1), got {self.test_fraction}")
        if self.k < 2:
            raise ConfigError(f"fold count must be >= 2, got {self.k}")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if not self.methods:
            raise ConfigError("at least one method is required")
        for label, values in (("seed", self.seeds), ("method", [m.name for m in self.methods])):
            repeated = dict.fromkeys(str(v) for v in values if values.count(v) > 1)
            if repeated:
                raise ConfigError(f"each {label} may be listed once; repeated: {', '.join(repeated)}")
        if self.fusion_r < 1:
            raise ConfigError(f"fusion.r must be >= 1, got {self.fusion_r}")
        if self.calibration_base_res < 1 or self.calibration_oracle_res < 1:
            raise ConfigError("calibration grid resolutions must be >= 1")
        if self.calibration_kind not in ("cell", "additive"):
            raise ConfigError(
                f"calibration.kind must be cell or additive, got {self.calibration_kind!r}"
            )

    def validate_paths(self) -> None:
        """Check that every referenced input file exists."""
        for label, path in (
            ("dataset.path", self.dataset_path),
            ("eval.model", self.eval_model),
            ("eval.weights", self.eval_weights),
            ("eval.calibrator", self.eval_calibrator),
        ):
            if path is not None and not Path(path).exists():
                raise ConfigError(f"{label} refers to a missing file: {path}")

    def require_data_source(self) -> None:
        if self.dataset_path is None and self.synth is None:
            raise ConfigError("config needs either dataset.path or the synth.* keys")


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _text(key, text):
    return text


def _scalar(convert, noun):
    def parse(key, text):
        try:
            return convert(text)
        except ValueError:
            raise ConfigError(f"{key} must be {noun}, got {text!r}") from None
    return parse


def _bool(key, text):
    if text.lower() in ("true", "yes", "1"):
        return True
    if text.lower() in ("false", "no", "0"):
        return False
    raise ConfigError(f"{key} must be true or false, got {text!r}")


def _parts(text: str):
    """The non-empty comma-separated pieces of ``text``, stripped."""
    return [p.strip() for p in text.split(",") if p.strip()]


def _sequence(convert, noun):
    """Parser of a comma-separated list; an empty list yields None, which keeps the default."""
    def parse(key, text):
        try:
            return tuple(convert(p) for p in _parts(text)) or None
        except ValueError:
            raise ConfigError(f"{key} must be comma-separated {noun}") from None
    return parse


_int, _float = _scalar(int, "an integer"), _scalar(float, "a number")
_ints, _floats = _sequence(int, "integers"), _sequence(float, "numbers")
_strings = _sequence(str, "strings")


def _methods(key, text):
    parts, depth = [""], 0  # split on commas outside parentheses: calibration(10,2) is one entry
    for ch in text:
        if ch in "()":
            depth = depth + 1 if ch == "(" else max(depth - 1, 0)
        if ch == "," and depth == 0:
            parts.append("")
        else:
            parts[-1] += ch
    return tuple(MethodSpec.parse(m.strip()) for m in parts if m.strip()) or None


def _strata(key, text):
    """Parse 'tag:weight:s0|s1|...' entries into SyntheticSpec strata triples; None when empty."""
    strata = []
    for entry in _parts(text):
        parts = entry.split(":")
        if len(parts) != 3:
            raise ConfigError(f"synth.strata entry {entry!r} must be tag:weight:s0|s1|...")
        tag, weight, shift = parts
        try:
            strata.append(
                (tag.strip(), tuple(float(s) for s in shift.split("|")), float(weight))
            )
        except ValueError:
            raise ConfigError(f"synth.strata entry {entry!r} has non-numeric fields") from None
    return tuple(strata) or None


def _density(key, text) -> dict | None:
    """Parse 'tag:prob' entries into a density mapping; None when empty."""
    density = {}
    for entry in _parts(text):
        tag, sep, prob = entry.partition(":")
        if not sep:
            raise ConfigError(f"transfer.target_density entry {entry!r} must be tag:prob")
        try:
            density[tag.strip()] = float(prob)
        except ValueError:
            raise ConfigError(f"transfer.target_density entry {entry!r} has a bad number") from None
    return density or None


# The settings group each key fills: "" is ExperimentConfig itself, the rest are its fields.
_GROUPS = {"": ExperimentConfig, "synth": SyntheticSpec, "base": BaseSettings,
           "oracle": OracleSettings, "transfer": TransferSettings}

# key: (group, field, parser, default shown by --help or None for the field's own, meaning).
# Defaults live on the dataclass fields; a key that is not given keeps its field's default.
KEYS = {
    "dataset.path": ("", "dataset_path", _text, "(unset)", "CSV/JSONL dataset file"),
    "dataset.format": ("", "dataset_format", _text, "(inferred)",
                       "csv or jsonl when the suffix is ambiguous"),
    "dataset.test_fraction": ("", "test_fraction", _float, None, "held-out fraction per seed"),
    "synth.d": ("synth", "d", _int, "(unset)", "synthetic data: feature dimension"),
    "synth.n": ("synth", "n", _int, "(unset)", "synthetic data: row count"),
    "synth.weights": ("synth", "true_weights", _floats, "(unset)",
                      "d+1 comma-separated floats, intercept last"),
    "synth.seed": ("synth", "seed", _int, None, "synthetic data base seed"),
    "synth.strata": ("synth", "strata", _strata, "(none)",
                     "tag:weight:s0|s1|... entries, comma-separated"),
    "oracle.kind": ("oracle", "kind", _text, None, "synthetic, cached, or http"),
    "oracle.accuracy": ("oracle", "accuracy", _float, None,
                        "synthetic oracle accuracy q in [0.5, 1]"),
    "oracle.mode": ("oracle", "mode", _text, None, "binary or soft"),
    "oracle.noise": ("oracle", "noise", _float, None, "soft-mode Gaussian width"),
    "oracle.seed": ("oracle", "seed", _int, None, "synthetic oracle seed"),
    "oracle.cache": ("oracle", "cache_path", _text, "(none)",
                     "CSV cache file (id,z); required for kind=cached"),
    "oracle.url": ("oracle", "url", _text, "(none)", "http endpoint; required for kind=http"),
    "oracle.model": ("oracle", "model", _text, "(none)", "model name sent to the endpoint"),
    "oracle.auth_env": ("oracle", "auth_env", _text, "(none)", "env var holding the bearer token"),
    "oracle.prompt_template": ("oracle", "prompt_template", _text, None, ""),
    "oracle.timeout": ("oracle", "timeout", _float, None, "http timeout in seconds"),
    "oracle.retries": ("oracle", "retries", _int, None, "attempts per instance"),
    "oracle.backoff": ("oracle", "backoff", _float, None, "base delay, doubled per retry"),
    "oracle.max_concurrency": ("oracle", "max_concurrency", _int, None, "parallel HTTP calls"),
    "base.reg_lambda": ("base", "reg_lambda", _float, None,
                        "ridge strength (intercept unpenalized)"),
    "base.max_iter": ("base", "max_iter", _int, None, "gradient-descent iteration cap"),
    "base.tol": ("base", "tol", _float, None, "stop when the gradient max-norm reaches this"),
    "folds.k": ("", "k", _int, None, "folds for out-of-fold predictions"),
    "methods": ("", "methods", _methods, None,
                "experiment: ml, llm, linear, adalinear(r), calibration(M,M'); transfer: "
                "transfer(m), always with llm, ml, linear; other kinds fail before data loads"),
    "seeds": ("", "seeds", _ints, None, "comma-separated experiment seeds"),
    "out": ("", "out_dir", _text, "(none)", "output directory (--out overrides)"),
    "fusion.r": ("", "fusion_r", _int, None, "piece count for the fit-adaptive subcommand"),
    "calibration.base_res": ("", "calibration_base_res", _int, None,
                             "base-score grid M for the calibrate subcommand"),
    "calibration.oracle_res": ("", "calibration_oracle_res", _int, None,
                               "oracle-score grid M' for the calibrate subcommand"),
    "calibration.kind": ("", "calibration_kind", _text, None, "cell or additive"),
    "transfer.slack_a": ("transfer", "slack_a", _float, None,
                         "dead-band half-width of the augmented loss"),
    "transfer.source_strata": ("transfer", "source_strata", _strings, "(all)",
                               "tags whose labeled rows form the training set"),
    "transfer.target_strata": ("transfer", "target_strata", _strings, "(none)",
                               "tags whose rows form the augmentation pool"),
    "transfer.target_density": ("transfer", "target_density", _density, "(pool frequencies)",
                                "tag:prob entries, comma-separated"),
    "transfer.round_oracle": ("transfer", "round_oracle", _bool, None,
                              "snap oracle scores to {0,1} before training"),
    "eval.model": ("", "eval_model", _text, "(unset)", "base-model JSON for the eval subcommand"),
    "eval.weights": ("", "eval_weights", _text, "(none)",
                     "weight-function JSON to fuse with oracle scores"),
    "eval.calibrator": ("", "eval_calibrator", _text, "(none)",
                        "calibrator JSON to apply instead of weights"),
    "tune.parameter": ("", "tune_parameter", _text, "(unset)", "r or M, for the tune subcommand"),
    "tune.candidates": ("", "tune_candidates", _ints, "(unset)",
                        "comma-separated integer candidates"),
}


def _field_default(group: str, name: str) -> str:
    """A field's default as a config value: lower-case booleans, comma-joined tuples."""
    value = next(f.default for f in fields(_GROUPS[group]) if f.name == name)
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ", ".join(str(getattr(v, "name", v)) for v in value)
    return str(value)


def _default_line(key, group, name, shown, meaning) -> str:
    line = f"{key} = {shown or _field_default(group, name)}"
    return f"{line:<31} -- {meaning}\n" if meaning else line + "\n"


# One line per key: "key = default  -- meaning". Printed by the CLI's --help.
DEFAULT_LINES = "".join(
    _default_line(key, group, name, shown, meaning)
    for key, (group, name, _, shown, meaning) in KEYS.items()
)


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines into a string-to-string mapping."""
    values: dict[str, str] = {}
    for line_num, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_num}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in KEYS:
            raise ConfigError(f"line {line_num}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


def config_from_mapping(values: dict) -> ExperimentConfig:
    unknown = set(values) - KEYS.keys()
    if unknown:
        raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
    groups = {group: {} for group in _GROUPS}
    for key, text in values.items():
        group, name, parse, _, _ = KEYS[key]
        value = parse(key, text)
        if value is not None:
            groups[group][name] = value
    top, synth = groups.pop(""), groups.pop("synth")
    if any(KEYS[key][0] == "synth" for key in values):
        if not {"d", "n", "true_weights"} <= synth.keys():
            raise ConfigError("synthetic data needs synth.d, synth.n, and synth.weights")
        top["synth"] = SyntheticSpec(**synth)
    return ExperimentConfig(**top, **{group: _GROUPS[group](**kw) for group, kw in groups.items()})


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path} as UTF-8 text: {exc}") from None
    return config_from_mapping(parse_config_text(text))
