"""Experiment orchestration: split, train, score, fuse, evaluate, report.

``run_experiment`` reproduces the fusion evaluation protocol: per seed, the
data is split, the base model is trained on the training side only, fusion
weights and calibrators are fitted on out-of-fold training predictions and
oracle scores, and every requested method is evaluated on the held-out side.
``run_transfer_experiment`` does the covariate-shift variant: training labels
exist only in the source strata, and each Transfer(m) method adds m
oracle-labeled rows sampled from the target pool. Their shared seed loop checks
every seed, scores each row they need once in one batch, then fits each seed.
Each seed trains its models on one training side (``_Side``) with one loss,
log for fusion and squared for transfer: the fold models whose out-of-fold
scores ``fit_inputs`` gives, the base model and each transfer(m > 0) model.
On a dataset file each of them is trained once: its result is kept in a
content-keyed memo beside the file and read back by every later command.

Reports are deterministic: identical config plus seeds (and a cached or
synthetic oracle) produce byte-identical JSON and CSV, since nothing
timestamped or machine-specific is recorded.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from contextlib import suppress
from dataclasses import asdict, dataclass, fields, replace
from functools import cache, cached_property
from pathlib import Path

import numpy as np

from .calibration import GridSpec, choose_grid, fit_cell_calibrator
from .config import ExperimentConfig, MethodSpec
from .data import DatasetError, LabeledDataset, _store, _stored, _test_rows, _write_whole
from .data import load_dataset, make_folds, synthesize
from .ensemble import WeightFunction, choose_pieces, fit_adaptive_weights, fit_constant_weight, fuse
from .logistic import BaseModel, _fold_masks, cv_predict, train
from .metrics import metric_dict
from .oracle import CachedOracle, HttpOracle, HttpOracleConfig, OracleCache, attach_scores
from .oracle import SyntheticOracle, SyntheticOracleSpec
from .transfer import StratumDensity, _drawn_rows, make_plan, train_augmented


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
                v = np.array([entry[method][metric] for _, entry in per_seed])
                aggregate[method][metric] = {"mean": float(v.mean()), "stdev": float(v.std())}
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
        """``seed,method,metric,value`` rows, quoted where needed as ``save_dataset`` quotes."""
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows([("seed", "method", "metric", "value")] + [
            (seed, method, metric, repr(value)) for seed, methods in self.per_seed
            for method in sorted(methods) for metric, value in sorted(methods[method].items())])
        return out.getvalue()

    def save(self, out_dir) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name, text in (("report.json", self.to_json() + "\n"), ("report.csv", self.to_csv())):
            with _write_whole(out / name, "w", encoding="utf-8") as fh:
                fh.write(text)


def _save_artifacts(out_dir, seed, artifacts: dict) -> None:
    if out_dir is None:
        return
    seed_dir = Path(out_dir) / f"seed_{seed}"
    seed_dir.mkdir(parents=True, exist_ok=True)
    for filename, artifact in artifacts.items():
        artifact.save(seed_dir / filename)


# ---------------------------------------------------------------------------
# data, oracle, fit-and-score and seed-loop plumbing shared by both protocols
# ---------------------------------------------------------------------------


def fixed_dataset(cfg: ExperimentConfig, dataset=None) -> LabeledDataset | None:
    """The dataset every seed shares: the one given, else the configured file,
    loaded once; None when each seed draws its own synthetic dataset."""
    if dataset is not None:
        return dataset
    cfg.require_data_source()
    if cfg.dataset_path is None:
        return None
    return load_dataset(cfg.dataset_path, cfg.dataset_format)


def _seed_draw(cfg: ExperimentConfig, seed: int) -> LabeledDataset:
    """The synthetic dataset that ``seed`` draws when the run has no fixed dataset."""
    return synthesize(replace(cfg.synth, seed=child_seed(cfg.synth.seed, seed)))


def _base_trainer(cfg: ExperimentConfig, seed: int, loss: str):
    """The fold and base trainer of ``loss``, ``"log"`` (``train``) or ``"squared"``
    (``train_augmented`` with no augmented rows), with the ``base.*`` settings and ``seed``."""
    base = asdict(cfg.base)
    if loss == "log":
        return lambda subset: train(subset, **base, seed=seed)
    return lambda subset: train_augmented(subset, None, **base, seed=seed)


def _folds_and_labels(cfg: ExperimentConfig, ds: LabeledDataset, seed: int):
    """(fold column, labels) of ``ds``, the checks of ``fit_inputs`` that need no score."""
    return make_folds(ds, cfg.k, seed=child_seed(seed, 1)), ds.labels()


def fit_inputs(cfg: ExperimentConfig, ds: LabeledDataset, seed: int, loss: str = "log"):
    """(out-of-fold base scores, oracle scores, labels) of the scored ``ds``, which every fitter
    takes. Each fold model is ``_base_trainer(cfg, seed, loss)``'s; on a dataset file their
    scores are trained once and kept in a memo beside it (see ``_Side``)."""
    return _Side(cfg, ds, seed, loss).fit_inputs()


_MEMO_VERSION = b"scorefusion model memo 2"


@cache
def _code_fingerprint() -> bytes:
    """sha256 of the numpy version and of the name and bytes of each of the package's ``.py``
    files: the code that every memo's result comes from. Read on first use, not at import."""
    digest = hashlib.sha256(np.__version__.encode())
    for path in sorted(Path(__file__).parent.glob("*.py")):
        source = path.read_bytes()
        digest.update(b"\0%s\0%d\0%s" % (path.name.encode(), len(source), source))
    return digest.digest()


def _hash(digest, *parts) -> None:
    """Add the dtype, shape and bytes of each of ``parts`` (arrays, floats, bools, bytes) to
    ``digest``."""
    for part in parts:
        part = np.ascontiguousarray(part)
        digest.update(b"%s%r\0" % (part.dtype.str.encode(), part.shape))
        digest.update(memoryview(part))


class _Side:
    """One training side: the rows ``ds`` that ``seed`` trains every model on with ``loss``
    (``"log"`` or ``"squared"``, see ``_base_trainer``) and the ``base.*`` settings.

    When the run reads ``dataset.path``, each model of the side is trained once: its result is
    kept in a hidden memo beside that file, ``.<name>.<kind>-<8 hex>-<32 hex>.sfcache.npz``, and
    read back by every later command whose key is the same. The kinds are ``cv`` (the fold
    models' out-of-fold scores), ``base`` (the base model) and ``transfer`` (a transfer(m > 0)
    model). Every key of the side derives from one sha256 of the memo version,
    ``_code_fingerprint``, ``loss``, the ``base.*`` settings and the dtype, shape and bytes of
    ``X`` and ``y``, taken once; each kind adds what its result also depends on (see its
    method). A run with no file trains each time.

    A hit gives the bits a retrain gives. The checks a trainer makes hold for every memo: one is
    only written after training passed them on the same keyed inputs and code. The warnings
    ``cv_predict`` gives are given again.
    """

    def __init__(self, cfg: ExperimentConfig, ds: LabeledDataset, seed: int, loss: str):
        self.cfg, self.ds, self.seed, self.loss = cfg, ds, seed, loss

    @cached_property
    def _digest(self):
        base = sorted(asdict(self.cfg.base).items())
        digest = hashlib.sha256(b"%s\0%s\0%s\0%r\0" % (
            _MEMO_VERSION, _code_fingerprint(), self.loss.encode(), base))
        _hash(digest, self.ds.X, self.ds.y)
        return digest

    def fit_inputs(self):
        """``fit_inputs`` of the side; the ``cv`` key adds the fold column (so the seed and ``k``).
        ``transfer.slack_a`` and ``transfer.round_oracle`` act only on augmented rows, which no
        fold model gets, so they are not in it."""
        ds, train = self.ds, _base_trainer(self.cfg, self.seed, self.loss)
        fold, y = _folds_and_labels(self.cfg, ds, self.seed)
        y_cv = self._memo("cv", [fold], lambda: cv_predict(ds, fold, trainer=train),
                          hit=lambda: list(_fold_masks(ds, fold)))  # the SingleClassFoldWarnings
        return y_cv, ds.oracle_scores(), y

    def base_model(self):
        """The base model of the side; the ``base`` key adds the seed, which its
        ``train_meta`` holds."""
        train = _base_trainer(self.cfg, self.seed, self.loss)
        return self._memo("base", [b"%d" % self.seed], lambda: train(self.ds))

    def transfer_model(self, drawn: LabeledDataset, m: int):
        """The transfer(m) model of the side, trained with the oracle-scored ``drawn`` rows; the
        ``transfer`` key adds the seed, the bytes of ``drawn``'s X and z (so scores from another
        oracle never replay a model), ``transfer.slack_a``, ``transfer.round_oracle`` and m."""
        tr, base = self.cfg.transfer, asdict(self.cfg.base)
        parts = [b"%d" % self.seed, drawn.X, drawn.z, tr.slack_a, tr.round_oracle, b"%d" % m]
        return self._memo("transfer", parts, lambda: train_augmented(
            self.ds, drawn, slack_a=tr.slack_a, **base, seed=self.seed,
            round_oracle_scores=tr.round_oracle))

    def _memo(self, kind: str, parts, make, hit=None):
        """``make()``, read from or written to the ``kind`` memo keyed by ``parts``, with ``hit()``
        called on a hit.

        The memo is named by the first 8 hex digits of ``_code_fingerprint`` and the first 32 of
        the key, and holds the key whole. A missing, damaged or foreign memo costs a retrain and a
        rewrite, which is skipped when it fails. Each write unlinks the file's memos, of any kind,
        that other code wrote. Deleting a memo is safe.
        """
        if self.cfg.dataset_path is None:
            return make()
        digest = self._digest.copy()
        _hash(digest, kind.encode(), *parts)
        key, source = digest.hexdigest(), Path(self.cfg.dataset_path)
        tag = _code_fingerprint().hex()[:8]
        memo = source.with_name(f".{source.name}.{kind}-{tag}-{key[:32]}.sfcache.npz")
        result = _read_memo(memo, source, key, kind, self.ds)
        if result is not None:
            if hit is not None:
                hit()
            return result
        result = make()
        stored = {"scores": result} if kind == "cv" else {"model": np.array(result.to_json())}
        _store(memo, key, **stored)
        memos = re.compile(re.escape(f".{source.name}.") +
                           r"(?:cv|base|transfer)-(?:([0-9a-f]{8})-)?[0-9a-f]{32}\.sfcache\.npz")
        with suppress(OSError):  # unlink this file's memos that other code wrote
            for other in source.parent.iterdir():
                found = memos.fullmatch(other.name)
                if found and found[1] != tag:
                    other.unlink()
        return result


def _read_memo(memo: Path, source: Path, key: str, kind: str, ds: LabeledDataset):
    """The out-of-fold scores (``kind`` ``cv``) or model stored in ``memo`` under ``key``, for the
    training side ``ds``; None when the memo is missing, holds another key or cannot be read.
    Scores that are not n float64 numbers in [0, 1], or a model whose dimension is not ``ds``'s,
    with a parameter that is not finite or a feature scale that is not positive, raise
    ``DatasetError`` naming the memo and its dataset file, as a dataset sidecar's columns do."""
    def read(stored):
        if kind == "cv":
            return stored["scores"]
        return BaseModel.from_doc(json.loads(stored["model"].item()))

    got = _stored(memo, key, read)
    if got is None:
        return None
    if kind == "cv":
        if got.shape != (ds.n,) or got.dtype != np.float64:
            what = "a score column of the wrong length or type"
        elif not ((got >= 0) & (got <= 1)).all():
            what = "a score that is not a number in [0, 1]"
        else:
            return got
    elif got.dim != ds.dim:
        what = f"a model of dimension {got.dim}, not {ds.dim}"
    elif not all(np.isfinite(v).all() for v in (got.weights, got.intercept, got.feature_mean,
                                                got.feature_scale)):
        what = "a model parameter that is not a finite number"
    elif not (got.feature_scale > 0).all():
        what = "a feature scale that is not positive"
    else:
        return got
    raise DatasetError(f"{memo} holds {what}; delete it to retrain on {source}")


def _pay(cfg: ExperimentConfig, ds: LabeledDataset, provider, need=None) -> LabeledDataset:
    """The ``need`` rows of ``ds`` (a bool mask, None for all) scored by ``provider`` (None keeps
    the scores ``ds`` holds): the one place a command buys scores, once its free checks pass.
    It creates ``out_dir``, when set, first."""
    if cfg.out_dir is not None:
        Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
    ds = ds if need is None or need.all() else ds.take(need)
    return ds if provider is None else attach_scores(ds, provider)


def _fit_method_scores(spec: MethodSpec, fit_inputs, test_inputs, artifacts):
    """Test-set scores for one method (any kind but transfer), fitted on training-side inputs only."""
    y_cv, z_tr, y_tr = fit_inputs
    base_test, z_test = test_inputs
    if spec.kind == "llm":
        return z_test
    if spec.kind == "ml":
        return base_test
    if spec.kind == "calibration":
        grid = GridSpec(spec.params[0], spec.params[1])
        cal = fit_cell_calibrator(y_cv, z_tr, y_tr, grid)
        artifacts[f"calibrator_{spec.params[0]}_{spec.params[1]}.json"] = cal
        return cal.calibrate(base_test, z_test)
    if spec.kind == "linear":
        wf = WeightFunction.constant(fit_constant_weight(y_cv, z_tr, y_tr))
    else:
        wf = fit_adaptive_weights(y_cv, z_tr, y_tr, r=spec.params[0])
    artifacts[f"weights_{spec.name}.json"] = wf
    return fuse(wf, base_test, z_test)


def _fit_and_score(side: _Side, test_ds, specs):
    """({method name: test scores}, {file name: artifact}) of one seed, the core of both protocols.

    Both sides hold their oracle scores. Trains the training ``side``'s base model
    (``base_model.json``), whose fold models give ``fit_inputs`` its out-of-fold scores; fits each
    of ``specs`` on the training side and applies it to the test side.
    """
    train_inputs = side.fit_inputs()
    base = side.base_model()
    test_inputs = (base.score_dataset(test_ds), test_ds.oracle_scores())
    artifacts: dict = {"base_model.json": base}
    scores = {spec.name: _fit_method_scores(spec, train_inputs, test_inputs, artifacts) for spec in specs}
    return scores, artifacts


# The method kinds each protocol evaluates, and where any other kind belongs.
_PROTOCOL_KINDS = {
    "fusion": (("ml", "llm", "linear", "adalinear", "calibration"),
               "the transfer protocol; use run_transfer_experiment (CLI subcommand: transfer)"),
    "transfer": (("llm", "ml", "linear", "transfer"),
                 "the fusion protocol; use run_experiment (CLI subcommand: experiment), "
                 "since the transfer protocol takes only llm, ml, linear and transfer(m)"),
}


def _check_methods(cfg: ExperimentConfig, experiment: str) -> None:
    """Reject any configured method kind that the ``experiment`` protocol does not evaluate."""
    kinds, elsewhere = _PROTOCOL_KINDS[experiment]
    for spec in cfg.methods:
        if spec.kind not in kinds:
            raise HarnessError(f"method {spec.name!r} needs {elsewhere}")


def _run_seeds(cfg: ExperimentConfig, dataset, provider, plan, meta: dict) -> MetricReport:
    """The seed loop of both protocols.

    Builds the provider unless one is given and resolves the fixed dataset once.
    ``plan(rows, seed)``, given the rows without features, makes each check that needs no score
    and returns (bool mask of the rows the seed needs, ``fit``). One ``_pay`` scores the union
    of the masks. ``fit(take)``, where ``take(mask)`` is the scored rows a mask within its
    seed's picks, gives ({method: metrics}, {file: artifact}). A per-seed synthetic draw (ids
    repeat across draws) is planned, paid and fitted alone. The shared keys join ``meta``.
    """
    provider = provider if provider is not None else build_provider(cfg.oracle)
    ds = fixed_dataset(cfg, dataset)
    per_draw = ds is None
    if per_draw and len(cfg.seeds) > 1 and provider.cache is not None:
        raise HarnessError("oracle.cache cannot serve several seeds that each draw a dataset from "
                           "the synth.* keys: the draws reuse their row ids for other rows")
    per_seed = []
    for seeds in [(seed,) for seed in cfg.seeds] if per_draw else [cfg.seeds]:
        ds = _seed_draw(cfg, seeds[0]) if per_draw else ds
        fits = [plan(ds.without_features(), seed) for seed in seeds]
        need = np.logical_or.reduce([rows for rows, _ in fits])
        ds = _pay(cfg, ds, provider, need)
        for seed, (_, fit) in zip(seeds, fits):
            methods, artifacts = fit(lambda rows: ds.take(rows[need]))
            _save_artifacts(cfg.out_dir, seed, artifacts)
            per_seed.append((seed, methods))
    shared = {"seeds": list(cfg.seeds), "k": cfg.k, "test_fraction": cfg.test_fraction,
              "oracle_kind": cfg.oracle.kind}
    report = MetricReport.build(per_seed, meta={**meta, **shared})
    if cfg.out_dir is not None:
        report.save(cfg.out_dir)
    return report


# ---------------------------------------------------------------------------
# the two protocols: fusion, and covariate-shift transfer
# ---------------------------------------------------------------------------


def run_experiment(cfg: ExperimentConfig, dataset=None, provider=None) -> MetricReport:
    """Evaluate every configured method once per seed on held-out data.

    Per seed: split the data, train the base model and its out-of-fold
    predictions on the training side, fit each method's parameters there with
    its oracle scores, and measure accuracy, Brier score, and log-loss on the
    test side. Artifacts (base model, weight functions, calibrators) are
    written under ``out_dir/seed_<seed>/`` when an output directory is
    configured, and report.json / report.csv at the top level. A transfer(m)
    method raises HarnessError before any data is loaded or scored; every seed
    reads its labels and deals its folds before the run scores each row once.
    """
    _check_methods(cfg, "fusion")

    def plan(rows, seed):
        test = _test_rows(rows.n, cfg.test_fraction, seed)
        rows.take(test).labels()
        _folds_and_labels(cfg, rows.take(~test), seed)

        def fit(take):
            train_ds, test_ds = take(~test), take(test)
            y_test = test_ds.labels()
            side = _Side(cfg, train_ds, seed, "log")
            scores, artifacts = _fit_and_score(side, test_ds, cfg.methods)
            n_test = float(len(y_test))
            return {k: metric_dict(s, y_test, n_test=n_test) for k, s in scores.items()}, artifacts

        return np.ones(rows.n, dtype=bool), fit

    meta = {"experiment": "fusion", "methods": [s.name for s in cfg.methods]}
    return _run_seeds(cfg, dataset, provider, plan, meta)


def _strata_of(ds: LabeledDataset) -> dict:
    return {tag: count for tag, count in ds.stratum_counts().items() if tag is not None}


def run_transfer_experiment(cfg: ExperimentConfig, dataset=None, provider=None) -> MetricReport:
    """Covariate-shift protocol: labels only in the source strata.

    Per seed the data splits as usual, but training labels come solely from
    the source-stratum rows; target-stratum training rows act as the unlabeled
    augmentation pool (their labels are hidden behind the oracle). The
    evaluated methods are always the oracle alone (llm), source-only training
    (ml) and constant-weight fusion (linear), plus transfer(m) for every
    transfer entry in the method list; each is reported on the source and
    target test rows separately as ``name@source`` / ``name@target``. An
    adalinear or calibration entry, or no ``transfer.target_strata``, raises
    HarnessError before any data is loaded or scored; ``run_experiment``
    evaluates adalinear and calibration. Every seed reads its test labels, checks
    its source rows, its pool (when some m > 0) and both test sides, makes every
    plan and draw, and deals its folds before the run scores each source training,
    test and drawn row once; transfer(0) is the source-only model and needs no plan.
    """
    _check_methods(cfg, "transfer")
    if not cfg.transfer.target_strata:
        raise HarnessError("transfer experiment needs transfer.target_strata")
    baselines = (MethodSpec("llm"), MethodSpec("ml"), MethodSpec("linear"))
    m_values = [s.params[0] for s in cfg.methods if s.kind == "transfer"]
    augment_m = [m for m in m_values if m > 0]
    tr = cfg.transfer

    def plan(rows, seed):
        test = _test_rows(rows.n, cfg.test_fraction, seed)
        rows.take(test).labels()
        source_tags = tuple(tr.source_strata) or tuple(sorted(_strata_of(rows.take(~test))))
        target_tags = tuple(tr.target_strata)
        if not source_tags:
            raise HarnessError("transfer experiment needs stratum tags on the dataset")

        source, target = rows.in_strata(source_tags), rows.in_strata(target_tags)
        labeled, pool = source & ~test, target & ~test
        if not labeled.any():
            raise HarnessError(f"no training rows in source strata {source_tags}")
        if not pool.any() and augment_m:
            raise HarnessError("augmentation pool is empty but transfer(m > 0) was requested")
        sides = {"source": source[test], "target": target[test]}
        for side, mask in sides.items():
            if not mask.any():
                raise HarnessError(f"test split has no rows in the {side} strata")

        labeled_rows, draws = rows.take(labeled), {}
        if augment_m:
            pool_rows = rows.take(pool)
            source_counts, pool_counts = _strata_of(labeled_rows), _strata_of(pool_rows)
            universe = sorted(set(source_counts) | set(pool_counts) | set(tr.target_density or ()))
            p1 = StratumDensity.from_counts(source_counts, tags=universe)
            p2 = StratumDensity.from_counts(tr.target_density or pool_counts, tags=universe)
            for m in augment_m:
                plan_m = make_plan(p1, p2, labeled_rows.n, m, slack_a=tr.slack_a)
                drawn = pool.copy()
                drawn[pool] = _drawn_rows(pool_rows, plan_m.sampling, m, child_seed(seed, 2, m))
                draws[m] = plan_m, drawn
        _folds_and_labels(cfg, labeled_rows, seed)

        def fit(take):
            side, test_ds = _Side(cfg, take(labeled), seed, "squared"), take(test)
            y_test = test_ds.labels()
            scores, artifacts = _fit_and_score(side, test_ds, baselines)
            for m in m_values:
                if m == 0:
                    model_m = artifacts["base_model.json"]
                else:
                    plan_m, drawn = draws[m]
                    model_m = side.transfer_model(take(drawn).without_labels(), m)
                    artifacts[f"transfer_plan_{m}.json"] = plan_m
                    artifacts[f"transfer_model_{m}.json"] = model_m
                scores[f"transfer({m})"] = model_m.score_dataset(test_ds)
            return {f"{name}@{side}": metric_dict(s[mask], y_test[mask], n_test=float(mask.sum()))
                    for name, s in scores.items() for side, mask in sides.items()}, artifacts

        return np.logical_or.reduce([labeled, test, *(drawn for _, drawn in draws.values())]), fit

    meta = {"experiment": "transfer", "slack_a": tr.slack_a,
            "methods": [s.name for s in baselines] + [f"transfer({m})" for m in m_values]}
    return _run_seeds(cfg, dataset, provider, plan, meta)


# ---------------------------------------------------------------------------
# hyperparameter tuning
# ---------------------------------------------------------------------------


def tune_hyperparameter(cfg: ExperimentConfig, dataset=None, provider=None) -> int:
    """Select ``tune.parameter`` (r, the weight pieces, or M, the base grid) among
    ``tune.candidates`` by cross-validation on the training split only, whose folds and labels
    it checks before it pays. A single candidate is returned once those checks pass, with no
    score paid for. Ties break toward the smaller candidate."""
    if cfg.tune_parameter not in ("r", "M"):
        raise HarnessError(f"tunable parameters are 'r' and 'M', got {cfg.tune_parameter!r}")
    candidates = sorted(set(map(int, cfg.tune_candidates)))
    if not candidates:
        raise HarnessError("tune needs at least one value in tune.candidates")

    seed = cfg.seeds[0]
    ds = fixed_dataset(cfg, dataset)
    ds = _seed_draw(cfg, seed) if ds is None else ds
    train = ~_test_rows(ds.n, cfg.test_fraction, seed)
    _folds_and_labels(cfg, ds.without_features().take(train), seed)
    if len(candidates) == 1:
        return candidates[0]
    provider = provider if provider is not None else build_provider(cfg.oracle)
    y_cv, z, y = fit_inputs(cfg, _pay(cfg, ds, provider, train), seed)

    if cfg.tune_parameter == "M":
        return choose_grid(y_cv, z, y, candidates, oracle_res=cfg.calibration_oracle_res,
                           kind=cfg.calibration_kind, k=cfg.k, seed=child_seed(seed, 3)).base_res
    return choose_pieces(y_cv, z, y, candidates, k=cfg.k, seed=child_seed(seed, 3))
