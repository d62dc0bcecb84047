"""Command-line interface.

Every subcommand reads the same flat key = value config file (--config);
--seed and --out override the config's seeds and output directory. Defaults
for every config key are listed at the bottom of --help.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .calibration import CalibrationError, GridSpec, fit_additive_calibrator, fit_cell_calibrator, load_calibrator
from .config import DEFAULT_LINES, ConfigError, ExperimentConfig, config_from_mapping, load_config
from .data import DatasetError, _write_whole, save_dataset, synthesize
from .ensemble import EnsembleError, WeightFunction, fit_adaptive_weights, fit_constant_weight, fuse
from .harness import HarnessError, _Side, _folds_and_labels, _pay, build_provider, fit_inputs
from .harness import fixed_dataset, run_experiment, run_transfer_experiment, tune_hyperparameter
from .logistic import BaseModel, TrainingError
from .metrics import MetricError, metric_dict
from .oracle import OracleCache, OracleError
from .transfer import TransferError

_ERRORS = (
    ConfigError, DatasetError, TrainingError, EnsembleError, CalibrationError,
    TransferError, OracleError, HarnessError, MetricError,
)


def _u64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed must fit in u64, got {text}")
    return value


def _prepare(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else config_from_mapping({})
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    if args.seed is not None:
        synth = None if cfg.synth is None else replace(cfg.synth, seed=args.seed)
        cfg = replace(cfg, seeds=(args.seed,), synth=synth, oracle=replace(cfg.oracle, seed=args.seed))
    return cfg


def _require_out(cfg: ExperimentConfig) -> Path:
    if cfg.out_dir is None:
        raise ConfigError("this subcommand writes files; pass --out or set out = <dir>")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_input_dataset(cfg: ExperimentConfig):
    """The configured dataset file, or one synthetic draw with ``synth.seed``."""
    ds = fixed_dataset(cfg)
    return synthesize(cfg.synth) if ds is None else ds


def _fit_inputs(cfg):
    """The output directory and the input dataset's ``fit_inputs``, scored by the configured
    oracle unless every row holds a score, for the fitting subcommands."""
    ds = _load_input_dataset(cfg)
    _folds_and_labels(cfg, ds, cfg.seeds[0])
    provider = None if ds.has_oracle_scores else build_provider(cfg.oracle)
    out = _require_out(cfg)
    return out, fit_inputs(cfg, _pay(cfg, ds, provider), cfg.seeds[0])


def _write_doc(cfg, name: str, text: str) -> None:
    """Write ``text`` to ``name`` in the output directory, when one is configured."""
    if cfg.out_dir is not None:
        path = _require_out(cfg) / name
        with _write_whole(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {path}")


def _print_report(cfg, report) -> int:
    for method in sorted(report.aggregate):
        acc = report.aggregate[method]["accuracy"]
        print(f"{method}: accuracy {acc['mean']:.4f} +- {acc['stdev']:.4f}")
    if cfg.out_dir is not None:
        print(f"wrote {Path(cfg.out_dir) / 'report.json'} and report.csv")
    return 0


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_synth(cfg, args) -> int:
    if cfg.synth is None:
        raise ConfigError("synth needs the synth.* config keys")
    ds = synthesize(cfg.synth)
    path = _require_out(cfg) / "synthetic.csv"
    save_dataset(ds, path)
    print(f"wrote {ds.n} rows (d={ds.dim}) to {path}")
    return 0


def cmd_score(cfg, args) -> int:
    ds, provider = _load_input_dataset(cfg), build_provider(cfg.oracle)
    out = _require_out(cfg)
    ds = _pay(cfg, ds, provider)
    data_path = out / "scored.csv"
    save_dataset(ds, data_path)
    cache_path = out / "scores.csv"
    cache_path.unlink(missing_ok=True)  # replaced, never appended to
    OracleCache(cache_path).update(dict(zip(ds.ids(), ds.z.tolist())))
    print(f"scored {ds.n} instances; wrote {data_path} and {cache_path}")
    return 0


def cmd_fit_base(cfg, args) -> int:
    ds = _load_input_dataset(cfg)
    ds.labels()  # a missing label fails before --out is created
    path = _require_out(cfg) / "base_model.json"
    model = _Side(cfg, ds, cfg.seeds[0], "log").base_model()
    model.save(path)
    print(f"trained on {ds.n} rows ({model.train_meta.iterations} iterations, "
          f"objective {model.train_meta.objective:.6f}); wrote {path}")
    return 0


def cmd_fit_linear(cfg, args) -> int:
    out, inputs = _fit_inputs(cfg)
    alpha = fit_constant_weight(*inputs)
    path = out / "weights_constant.json"
    WeightFunction.constant(alpha).save(path)
    print(f"constant weight alpha = {alpha:.6f}; wrote {path}")
    return 0


def cmd_fit_adaptive(cfg, args) -> int:
    out, inputs = _fit_inputs(cfg)
    wf = fit_adaptive_weights(*inputs, r=cfg.fusion_r)
    path = out / "weights_adaptive.json"
    wf.save(path)
    pieces = ", ".join(f"{w:.4f}" for w in wf.weights)
    print(f"adaptive weights (r={cfg.fusion_r}): [{pieces}]; wrote {path}")
    return 0


def cmd_calibrate(cfg, args) -> int:
    out, inputs = _fit_inputs(cfg)
    grid = GridSpec(cfg.calibration_base_res, cfg.calibration_oracle_res)
    fitter = fit_cell_calibrator if cfg.calibration_kind == "cell" else fit_additive_calibrator
    path = out / "calibrator.json"
    fitter(*inputs, grid).save(path)
    print(f"fitted {cfg.calibration_kind} calibrator on grid "
          f"({grid.base_res}, {grid.oracle_res}); wrote {path}")
    return 0


def cmd_experiment(cfg, args) -> int:
    return _print_report(cfg, run_experiment(cfg))


def cmd_transfer(cfg, args) -> int:
    return _print_report(cfg, run_transfer_experiment(cfg))


def cmd_eval(cfg, args) -> int:
    if cfg.eval_model is None:
        raise ConfigError("eval needs eval.model = <base model JSON>")
    if cfg.eval_weights is not None and cfg.eval_calibrator is not None:
        raise ConfigError("eval.weights and eval.calibrator are mutually exclusive")
    model = BaseModel.load(cfg.eval_model)
    weights = None if cfg.eval_weights is None else WeightFunction.load(cfg.eval_weights)
    calibrator = None if cfg.eval_calibrator is None else load_calibrator(cfg.eval_calibrator)
    ds = _load_input_dataset(cfg)
    base_scores = model.score_dataset(ds)
    y = ds.labels()
    fused = weights is not None or calibrator is not None
    ds = _pay(cfg, ds, build_provider(cfg.oracle) if fused and not ds.has_oracle_scores else None)
    results = {"ml": metric_dict(base_scores, y, n=len(y))}
    if fused:
        z = ds.z
        results["llm"] = metric_dict(z, y, n=len(y))
        if weights is not None:
            results["fused"] = metric_dict(fuse(weights, base_scores, z), y, n=len(y))
        else:
            results["calibrated"] = metric_dict(calibrator.calibrate(base_scores, z), y, n=len(y))
    text = json.dumps(results, sort_keys=True, indent=2)
    print(text)
    _write_doc(cfg, "eval.json", text)
    return 0


def cmd_tune(cfg, args) -> int:
    selected = tune_hyperparameter(cfg)
    print(f"{cfg.tune_parameter} = {selected}")
    doc = {"parameter": cfg.tune_parameter, "selected": selected}
    _write_doc(cfg, "tuned.json", json.dumps(doc, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_SUBCOMMANDS = (
    ("synth", cmd_synth, "generate a synthetic dataset from the synth.* keys"),
    ("score", cmd_score, "run the configured oracle over a dataset"),
    ("fit-base", cmd_fit_base, "train the logistic base model"),
    ("fit-linear", cmd_fit_linear, "fit the constant fusion weight"),
    ("fit-adaptive", cmd_fit_adaptive, "fit piecewise fusion weights (fusion.r pieces)"),
    ("calibrate", cmd_calibrate, "fit a grid calibrator (calibration.* keys)"),
    ("transfer", cmd_transfer, "run the covariate-shift transfer experiment"),
    ("eval", cmd_eval, "evaluate saved artifacts on a labeled dataset"),
    ("experiment", cmd_experiment, "run the full multi-seed fusion experiment"),
    ("tune", cmd_tune, "select r or M by cross-validation (tune.* keys)"),
)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="<path>", default=None,
                        help="flat key = value config file (default: all defaults)")
    common.add_argument("--seed", metavar="<u64>", type=_u64, default=None,
                        help="override the config's seeds with this single seed")
    common.add_argument("--out", metavar="<dir>", default=None,
                        help="output directory, overriding the config's out key")

    keys_epilog = {"epilog": "config keys and defaults:\n" + DEFAULT_LINES,
                   "formatter_class": argparse.RawDescriptionHelpFormatter}
    parser = argparse.ArgumentParser(
        prog="scorefusion", **keys_epilog,
        description="Fuse a trained classifier with an auxiliary oracle score stream.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="<subcommand>")
    for name, handler, help_text in _SUBCOMMANDS:
        p = sub.add_parser(name, parents=[common], help=help_text, description=help_text, **keys_epilog)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _prepare(args)
        return args.func(cfg, args)
    except (*_ERRORS, OSError) as exc:  # an OSError names the path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
