"""Experiment orchestration: split, train, score, fuse, evaluate, report.

``run_experiment`` reproduces the fusion evaluation protocol: per seed, the
data is split, the base model is trained on the training side only, oracle
scores are fetched for both sides, fusion weights and calibrators are fitted
on out-of-fold training predictions, and every requested method is evaluated
on the held-out side. ``run_transfer_experiment`` does the covariate-shift
variant, where training labels exist only in the source strata and each
Transfer(m) method augments them with m oracle-labeled rows sampled from the
target pool.

Reports are deterministic: identical config plus seeds (and a cached or
synthetic oracle) produce byte-identical JSON and CSV, since nothing
timestamped or machine-specific is recorded.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .calibration import GridSpec, choose_grid, fit_cell_calibrator
from .config import ExperimentConfig, MethodSpec
from .data import LabeledDataset, load_dataset, make_folds, split, synthesize
from .ensemble import WeightFunction, choose_pieces, fit_adaptive_weights, fit_constant_weight, fuse
from .logistic import cv_predict, train
from .metrics import metric_dict
from .oracle import CachedOracle, HttpOracle, HttpOracleConfig, OracleCache, SyntheticOracle, SyntheticOracleSpec, attach_scores
from .transfer import StratumDensity, label_with_oracle, make_plan, sample_augmentation, train_augmented


class HarnessError(RuntimeError):
    """Raised when an experiment cannot be run as configured."""


def child_seed(*parts) -> int:
    """Deterministic derived seed for an independent substream."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1, np.uint64)[0])


def build_provider(settings):
    """Construct the oracle provider described by OracleSettings.

    Every kind gets the ``oracle.cache`` file (when set) as its ``cache``:
    ``score_batch`` consults it first and extends it with fresh scores. The
    synthetic spec and the HTTP config take every field from the same-named
    setting.
    """
    cache = OracleCache(settings.cache_path) if settings.cache_path else None
    if settings.kind == "cached":
        return CachedOracle(cache=cache)
    provider, spec = {"synthetic": (SyntheticOracle, SyntheticOracleSpec),
                      "http": (HttpOracle, HttpOracleConfig)}[settings.kind]
    return provider(spec(**{f.name: getattr(settings, f.name) for f in fields(spec)}), cache=cache)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricReport:
    """Per-seed method metrics plus their mean and population stdev over seeds."""

    per_seed: tuple  # ((seed, {method: {metric: value}}), ...)
    aggregate: dict  # {method: {metric: {"mean": m, "stdev": s}}}
    meta: dict

    @classmethod
    def build(cls, per_seed, meta) -> "MetricReport":
        methods = sorted(per_seed[0][1]) if per_seed else []
        aggregate: dict = {}
        for method in methods:
            aggregate[method] = {}
            for metric in sorted(per_seed[0][1][method]):
                values = np.array([entry[method][metric] for _, entry in per_seed])
                aggregate[method][metric] = {
                    "mean": float(values.mean()),
                    "stdev": float(values.std()),
                }
        return cls(per_seed=tuple(per_seed), aggregate=aggregate, meta=dict(meta))

    def mean(self, method: str, metric: str = "accuracy") -> float:
        return self.aggregate[method][metric]["mean"]

    def to_json(self) -> str:
        doc = {
            "kind": "metric_report",
            "meta": self.meta,
            "per_seed": [
                {"seed": seed, "methods": methods} for seed, methods in self.per_seed
            ],
            "aggregate": self.aggregate,
        }
        return json.dumps(doc, sort_keys=True, indent=2)

    def to_csv(self) -> str:
        lines = ["seed,method,metric,value"]
        for seed, methods in self.per_seed:
            for method in sorted(methods):
                for metric in sorted(methods[method]):
                    lines.append(f"{seed},{method},{metric},{methods[method][metric]!r}")
        return "\n".join(lines) + "\n"

    def save(self, out_dir) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(self.to_json() + "\n", encoding="utf-8")
        (out / "report.csv").write_text(self.to_csv(), encoding="utf-8")


def _save_artifacts(out_dir, seed, artifacts: dict) -> None:
    if out_dir is None:
        return
    seed_dir = Path(out_dir) / f"seed_{seed}"
    seed_dir.mkdir(parents=True, exist_ok=True)
    for filename, artifact in artifacts.items():
        artifact.save(seed_dir / filename)


# ---------------------------------------------------------------------------
# data and oracle plumbing shared by both experiment kinds
# ---------------------------------------------------------------------------


def fixed_dataset(cfg: ExperimentConfig, dataset=None) -> LabeledDataset | None:
    """The dataset every seed shares: the one given, else the configured file,
    loaded once; None when each seed draws its own synthetic dataset."""
    if dataset is not None:
        return dataset
    cfg.require_data_source()
    if cfg.dataset_path is None:
        return None
    cfg.validate_paths()
    return load_dataset(cfg.dataset_path, cfg.dataset_format)


def _split(cfg: ExperimentConfig, fixed, seed: int):
    """(train, test) of ``seed``: the fixed dataset if there is one, else a
    fresh synthetic draw for this seed, split with ``seed``."""
    if fixed is None:
        fixed = synthesize(replace(cfg.synth, seed=child_seed(cfg.synth.seed, seed)))
    return split(fixed, cfg.test_fraction, seed)


def fit_inputs(cfg: ExperimentConfig, ds: LabeledDataset, seed: int, trainer=None):
    """(out-of-fold base scores, oracle scores, labels) of ``ds``, which every fitter takes.

    The folds are ``make_folds(ds, cfg.k, seed=child_seed(seed, 1))``; each fold
    model comes from ``trainer``, or by default from ``train`` with the
    configured ``base.*`` settings and ``seed``.
    """
    if trainer is None:
        def trainer(subset):
            return train(subset, **asdict(cfg.base), seed=seed)
    fold = make_folds(ds, cfg.k, seed=child_seed(seed, 1))
    return cv_predict(ds, fold, trainer=trainer), ds.oracle_scores(), ds.labels()


def _run_seeds(cfg: ExperimentConfig, dataset, provider, body, meta: dict) -> MetricReport:
    """The seed loop of both protocols.

    Builds the configured provider unless one is given and resolves the
    fixed dataset once. Per seed it splits, calls
    ``body(train_ds, test_ds, seed, provider)`` for that seed's
    ({method: metrics}, {file name: artifact}) and saves the artifacts. The
    report's meta is ``meta`` plus the keys both protocols share; the report
    is saved when an output directory is configured.
    """
    provider = provider if provider is not None else build_provider(cfg.oracle)
    fixed = fixed_dataset(cfg, dataset)
    per_seed = []
    for seed in cfg.seeds:
        methods, artifacts = body(*_split(cfg, fixed, seed), seed, provider)
        _save_artifacts(cfg.out_dir, seed, artifacts)
        per_seed.append((seed, methods))
    shared = {"seeds": list(cfg.seeds), "k": cfg.k, "test_fraction": cfg.test_fraction,
              "oracle_kind": cfg.oracle.kind}
    report = MetricReport.build(per_seed, meta={**meta, **shared})
    if cfg.out_dir is not None:
        report.save(cfg.out_dir)
    return report


# ---------------------------------------------------------------------------
# the fusion experiment
# ---------------------------------------------------------------------------


def _fit_method_scores(spec: MethodSpec, fit_inputs, test_inputs, artifacts):
    """Test-set scores for one method, fitted on training-side inputs only."""
    y_cv, z_tr, y_tr = fit_inputs
    base_test, z_test = test_inputs
    if spec.kind == "llm":
        return z_test
    if spec.kind == "ml":
        return base_test
    if spec.kind == "linear":
        wf = WeightFunction.constant(fit_constant_weight(y_cv, z_tr, y_tr))
        artifacts[f"weights_{spec.name}.json"] = wf
        return fuse(wf, base_test, z_test)
    if spec.kind == "adalinear":
        wf = fit_adaptive_weights(y_cv, z_tr, y_tr, r=spec.params[0])
        artifacts[f"weights_{spec.name}.json"] = wf
        return fuse(wf, base_test, z_test)
    if spec.kind == "calibration":
        grid = GridSpec(spec.params[0], spec.params[1])
        cal = fit_cell_calibrator(y_cv, z_tr, y_tr, grid)
        artifacts[f"calibrator_{spec.params[0]}_{spec.params[1]}.json"] = cal
        return cal.calibrate(base_test, z_test)
    raise HarnessError(
        f"method {spec.name!r} needs the transfer protocol; "
        "use run_transfer_experiment (CLI subcommand: transfer)"
    )


def run_experiment(cfg: ExperimentConfig, dataset=None, provider=None) -> MetricReport:
    """Evaluate every configured method once per seed on held-out data.

    Per seed: split the data, fetch oracle scores for both sides, train the
    base model and its out-of-fold predictions on the training side, fit each
    method's parameters there, and measure accuracy, Brier score, and log-loss
    on the test side. Artifacts (base model, weight functions, calibrators)
    are written under ``out_dir/seed_<seed>/`` when an output directory is
    configured, and report.json / report.csv at the top level.
    """
    def body(train_ds, test_ds, seed, provider):
        train_ds = attach_scores(train_ds, provider)
        test_ds = attach_scores(test_ds, provider)
        base = train(train_ds, **asdict(cfg.base), seed=seed)
        train_inputs = fit_inputs(cfg, train_ds, seed)
        test_inputs = (base.score_dataset(test_ds), test_ds.oracle_scores())
        y_test = test_ds.labels()
        artifacts: dict = {"base_model.json": base}
        methods = {}
        for spec in cfg.methods:
            scores = _fit_method_scores(spec, train_inputs, test_inputs, artifacts)
            methods[spec.name] = metric_dict(scores, y_test, n_test=float(len(y_test)))
        return methods, artifacts

    meta = {"experiment": "fusion", "methods": [s.name for s in cfg.methods]}
    return _run_seeds(cfg, dataset, provider, body, meta)


# ---------------------------------------------------------------------------
# the covariate-shift experiment
# ---------------------------------------------------------------------------


def _strata_of(ds: LabeledDataset) -> dict:
    return {tag: count for tag, count in ds.stratum_counts().items() if tag is not None}


def run_transfer_experiment(cfg: ExperimentConfig, dataset=None, provider=None) -> MetricReport:
    """Covariate-shift protocol: labels only in the source strata.

    Per seed the data splits as usual, but training labels come solely from
    the source-stratum rows; target-stratum training rows act as the unlabeled
    augmentation pool (their labels are hidden behind the oracle). The
    evaluated methods are the oracle alone (llm), source-only training (ml),
    constant-weight fusion (linear), and transfer(m) for every transfer entry
    in the method list; each is reported on the source and target test rows
    separately as ``name@source`` / ``name@target``.
    """
    m_values = [s.params[0] for s in cfg.methods if s.kind == "transfer"]
    tr = cfg.transfer

    def body(train_all, test_ds, seed, provider):
        source_tags = tuple(tr.source_strata) or tuple(sorted(_strata_of(train_all)))
        target_tags = tuple(tr.target_strata)
        if not source_tags:
            raise HarnessError("transfer experiment needs stratum tags on the dataset")
        if not target_tags:
            raise HarnessError("transfer experiment needs transfer.target_strata")

        labeled = train_all.take(train_all.in_strata(source_tags))
        pool_ds = train_all.take(train_all.in_strata(target_tags))
        if labeled.n == 0:
            raise HarnessError(f"no training rows in source strata {source_tags}")
        if pool_ds.n == 0 and any(m > 0 for m in m_values):
            raise HarnessError("augmentation pool is empty but transfer(m > 0) was requested")

        universe = sorted(
            set(_strata_of(labeled)) | set(_strata_of(pool_ds)) | set(tr.target_density or ())
        )
        p1 = StratumDensity.from_counts(_strata_of(labeled), tags=universe)
        if tr.target_density is not None:
            p2 = StratumDensity.from_counts(tr.target_density, tags=universe)
        else:
            p2 = StratumDensity.from_counts(_strata_of(pool_ds), tags=universe)

        labeled = attach_scores(labeled, provider)
        test_ds = attach_scores(test_ds, provider)
        y_test = test_ds.labels()
        z_test = test_ds.oracle_scores()

        def l2_trainer(ds, augmented=None):
            return train_augmented(ds, augmented, slack_a=tr.slack_a, **asdict(cfg.base),
                                   seed=seed, round_oracle_scores=tr.round_oracle)

        ml_model = l2_trainer(labeled)
        alpha = fit_constant_weight(*fit_inputs(cfg, labeled, seed, trainer=l2_trainer))
        wf = WeightFunction.constant(alpha)

        ml_test = ml_model.score_dataset(test_ds)
        scores = {"llm": z_test, "ml": ml_test, "linear": fuse(wf, ml_test, z_test)}
        artifacts: dict = {"base_model.json": ml_model, "weights_linear.json": wf}
        for m in m_values:
            if m == 0:
                model_m = ml_model
            else:
                plan = make_plan(p1, p2, labeled.n, m, slack_a=tr.slack_a)
                sampled = sample_augmentation(pool_ds, plan.sampling, m, child_seed(seed, 2, m))
                model_m = l2_trainer(labeled, label_with_oracle(sampled, provider))
                artifacts[f"transfer_plan_{m}.json"] = plan
                artifacts[f"transfer_model_{m}.json"] = model_m
            scores[f"transfer({m})"] = model_m.score_dataset(test_ds)

        sides = {"source": test_ds.in_strata(source_tags), "target": test_ds.in_strata(target_tags)}
        for side, mask in sides.items():
            if not mask.any():
                raise HarnessError(f"test split has no rows in the {side} strata")
        methods = {}
        for name, s in scores.items():
            for side, mask in sides.items():
                y_side = y_test[mask]
                methods[f"{name}@{side}"] = metric_dict(s[mask], y_side, n_test=float(len(y_side)))
        return methods, artifacts

    meta = {"experiment": "transfer", "slack_a": tr.slack_a,
            "methods": ["llm", "ml", "linear"] + [f"transfer({m})" for m in m_values]}
    return _run_seeds(cfg, dataset, provider, body, meta)


# ---------------------------------------------------------------------------
# hyperparameter tuning
# ---------------------------------------------------------------------------


def tune_hyperparameter(
    cfg: ExperimentConfig,
    parameter: str | None = None,
    candidates=None,
    dataset=None,
    provider=None,
) -> int:
    """Select r (weight pieces) or M (base grid) by cross-validation on the
    training split only. Ties break toward the smaller candidate."""
    parameter = parameter if parameter is not None else cfg.tune_parameter
    candidates = tuple(candidates) if candidates is not None else cfg.tune_candidates
    if parameter not in ("r", "M"):
        raise HarnessError(f"tunable parameters are 'r' and 'M', got {parameter!r}")
    if not candidates:
        raise HarnessError("tuning needs at least one candidate value")
    candidates = sorted(set(int(c) for c in candidates))
    if len(candidates) == 1:
        return candidates[0]

    provider = provider if provider is not None else build_provider(cfg.oracle)
    seed = cfg.seeds[0]
    train_ds, _ = _split(cfg, fixed_dataset(cfg, dataset), seed)
    y_cv, z, y = fit_inputs(cfg, attach_scores(train_ds, provider), seed)

    if parameter == "M":
        return choose_grid(y_cv, z, y, candidates, oracle_res=cfg.calibration_oracle_res,
                           kind=cfg.calibration_kind, k=cfg.k, seed=child_seed(seed, 3)).base_res
    return choose_pieces(y_cv, z, y, candidates, k=cfg.k, seed=child_seed(seed, 3))
