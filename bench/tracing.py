"""Spans around the package's layer boundaries, recorded from outside the package.

``Tracer.install`` wraps each function listed in ``SPANS`` under every name
its callers look it up by: every scorefusion module attribute bound to the
original function is rebound to one shared wrapper, and methods are wrapped
on their class. For example ``scorefusion.logistic.train`` and
``scorefusion.harness.train`` both get the wrapper, because ``cv_predict``
calls the module-global ``train`` in ``logistic``.

Each wrapper records a span (name, start, end, parent) in memory. A call
whose direct parent span has the same name (``fit_adaptive_weights`` calling
``fit_constant_weight``) is folded into that parent. Spans opened on pool
threads have no parent, so they never reduce a main-thread span's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict

# (span name, module, attribute); "Class.method" wraps a method on its class.
SPANS = (
    ("data.load", "data", "load_dataset"),
    ("data.save", "data", "save_dataset"),
    ("data.reshape", "data", "split"),
    ("data.reshape", "data", "make_folds"),
    ("data.reshape", "data", "LabeledDataset.filter"),
    ("data.reshape", "data", "LabeledDataset.subset"),
    ("data.reshape", "data", "LabeledDataset.with_oracle_scores"),
    ("data.reshape", "data", "LabeledDataset.concat"),
    ("data.to_array", "data", "LabeledDataset.feature_matrix"),
    ("data.to_array", "data", "LabeledDataset.labels"),
    ("data.to_array", "data", "LabeledDataset.oracle_scores"),
    ("data.to_array", "data", "LabeledDataset.ids"),
    ("oracle.score_batch", "oracle", "score_batch"),
    ("oracle.provider", "oracle", "SyntheticOracle.score_uncached"),
    ("oracle.provider", "oracle", "CachedOracle.score_uncached"),
    ("oracle.provider", "oracle", "HttpOracle.score_uncached"),
    ("oracle.cache_open", "oracle", "OracleCache.__init__"),
    ("oracle.cache_append", "oracle", "OracleCache.update"),
    ("oracle.parse", "oracle", "parse_score"),
    ("logistic.train", "logistic", "train"),
    ("logistic.cv_predict", "logistic", "cv_predict"),
    ("logistic.score", "logistic", "BaseModel.score"),
    ("ensemble.fit", "ensemble", "fit_constant_weight"),
    ("ensemble.fit", "ensemble", "fit_adaptive_weights"),
    ("ensemble.fuse", "ensemble", "fuse"),
    ("calibration.fit", "calibration", "fit_cell_calibrator"),
    ("calibration.fit", "calibration", "fit_additive_calibrator"),
    ("calibration.choose_grid", "calibration", "choose_grid"),
    ("calibration.apply", "calibration", "CellCalibrator.calibrate"),
    ("calibration.apply", "calibration", "AdditiveCalibrator.calibrate"),
    ("transfer.plan", "transfer", "make_plan"),
    ("transfer.sample", "transfer", "sample_augmentation"),
    ("transfer.label", "transfer", "label_with_oracle"),
    ("transfer.train", "transfer", "train_augmented"),
    ("metrics.eval", "metrics", "accuracy"),
    ("metrics.eval", "metrics", "brier_score"),
    ("metrics.eval", "metrics", "log_loss"),
    ("harness.run", "harness", "run_experiment"),
    ("harness.run", "harness", "run_transfer_experiment"),
    ("harness.run", "harness", "tune_hyperparameter"),
    ("harness.report", "harness", "MetricReport.build"),
    ("harness.report", "harness", "MetricReport.save"),
    ("harness.report", "harness", "_save_artifacts"),
    ("config.load", "config", "load_config"),
)

MODULES = ("calibration", "cli", "config", "data", "ensemble", "harness",
           "logistic", "metrics", "oracle", "transfer")


def _count_len(counter, position):
    def hook(tracer, args):
        tracer.add(counter, len(args[position]))
    return hook


def _add_result(counter, value):
    def hook(tracer, result):
        tracer.add(counter, value(result))
    return hook


ON_CALL = {
    "score_batch": _count_len("oracle_rows", 1),
    "SyntheticOracle.score_uncached": _count_len("oracle_misses", 1),
    "CachedOracle.score_uncached": _count_len("oracle_misses", 1),
    "HttpOracle.score_uncached": _count_len("oracle_misses", 1),
}
ON_RETURN = {
    "load_dataset": _add_result("rows_loaded", lambda ds: ds.n),
    "train": _add_result("gd_iters", lambda model: model.train_meta.iterations),
}


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent span or None]
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._segments: list[tuple[int, dict]] = []

    def add(self, counter: str, value: float) -> None:
        with self._lock:
            self.counts[counter] += value

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, fn, on_call=None, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            if parent is not None and parent[0] == name:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(tracer, args)
            span = [name, time.perf_counter(), None, parent]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if on_return is not None:
                on_return(tracer, result)
            return result

        return traced

    def counted_minimize(self, counter, fn):
        """Wrap ``minimize_gd`` so every objective evaluation it makes is counted."""
        tracer = self

        @functools.wraps(fn)
        def minimize(value_and_grad, *args, **kwargs):
            def counted(theta):
                tracer.add(counter, 1)
                return value_and_grad(theta)
            return fn(counted, *args, **kwargs)

        return minimize

    @classmethod
    def install(cls) -> "Tracer":
        tracer = cls()
        modules = {m: importlib.import_module(f"scorefusion.{m}") for m in MODULES}
        namespaces = [importlib.import_module("scorefusion")] + list(modules.values())
        for name, module, attr in SPANS:
            owner = modules[module]
            hooks = (ON_CALL.get(attr), ON_RETURN.get(attr))
            if "." in attr:
                cls_name, method = attr.split(".")
                klass = getattr(owner, cls_name)
                raw = klass.__dict__[method]
                if isinstance(raw, classmethod):
                    setattr(klass, method, classmethod(tracer.span(name, raw.__func__, *hooks)))
                else:
                    setattr(klass, method, tracer.span(name, raw, *hooks))
                continue
            original = getattr(owner, attr)
            wrapper = tracer.span(name, original, *hooks)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
        # One original, two counters: train and train_augmented each look
        # minimize_gd up in their own module.
        for module, counter in (("logistic", "gd_evals"), ("transfer", "transfer_gd_evals")):
            owner = modules[module]
            owner.minimize_gd = tracer.counted_minimize(counter, owner.minimize_gd)
        return tracer

    def end_segment(self, extra_counts: dict | None = None) -> None:
        """Close the current segment (the set-up, or one session) and start the next."""
        start = sum(n for n, _ in self._segments)
        counts = dict(self.counts)
        for key, value in (extra_counts or {}).items():
            counts[key] = counts.get(key, 0.0) + value
        self._segments.append((len(self.spans) - start, counts))
        self.counts = defaultdict(float)

    def layer_metrics(self) -> dict:
        """Per-layer metrics of one set-up plus one average session."""
        raws, start = [], 0
        for n, counts in self._segments:
            raws.append(_raw(self.spans[start:start + n], counts))
            start += n
        setup, sessions = raws[0], raws[1:]
        combined = defaultdict(float, setup)
        for raw in sessions:
            for key, value in raw.items():
                combined[key] += value / len(sessions)
        return derive_metrics(combined)

    def write(self, path) -> None:
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "i": i, "name": name, "start": start, "end": end,
                    "parent": None if parent is None else index[id(parent)],
                }) + "\n")


def _raw(spans, counts) -> dict:
    """Inclusive time, self time and call count per span name, plus counters."""
    child_time: dict[int, float] = defaultdict(float)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[id(parent)] += end - start
    raw: dict[str, float] = defaultdict(float)
    for span in spans:
        name, start, end, _ = span
        raw[f"incl:{name}"] += end - start
        raw[f"self:{name}"] += end - start - child_time[id(span)]
        raw[f"calls:{name}"] += 1
        raw["spans"] += 1
    for key, value in counts.items():
        raw[f"count:{key}"] += value
    return raw


def derive_metrics(raw) -> dict:
    def incl(name):
        return raw[f"incl:{name}"]

    def self_time(name):
        return raw[f"self:{name}"]

    def calls(name):
        return raw[f"calls:{name}"]

    def count(name):
        return raw[f"count:{name}"]

    rows = count("oracle_rows")
    misses = count("oracle_misses")
    served = count("http_served")
    return {
        "data.load_s": incl("data.load"),
        "data.save_s": incl("data.save"),
        "data.rows_loaded": count("rows_loaded"),
        "data.reshape_s": self_time("data.reshape"),
        "data.to_array_s": incl("data.to_array"),
        "oracle.score_batch_s": self_time("oracle.score_batch"),
        "oracle.provider_s": incl("oracle.provider"),
        "oracle.rows": rows,
        "oracle.cache_hits": rows - misses,
        "oracle.cache_misses": misses,
        "oracle.hit_ratio": (rows - misses) / rows if rows else 0.0,
        "oracle.cache_open_s": incl("oracle.cache_open"),
        "oracle.cache_append_s": incl("oracle.cache_append"),
        "oracle.parse_s": incl("oracle.parse"),
        "oracle.http_posts": count("http_posts"),
        "oracle.http_retries": count("http_retries"),
        "oracle.posts_per_scored_row": count("http_posts") / served if served else 0.0,
        "oracle.http_wait_s": count("http_wait_s"),
        "oracle.paid_lost": count("paid_lost"),
        "logistic.train_s": incl("logistic.train"),
        "logistic.train_calls": calls("logistic.train"),
        "logistic.gd_iters": count("gd_iters"),
        "logistic.gd_evals": count("gd_evals"),
        "logistic.cv_predict_s": self_time("logistic.cv_predict"),
        "logistic.score_s": incl("logistic.score"),
        "ensemble.fit_s": incl("ensemble.fit"),
        "ensemble.fit_calls": calls("ensemble.fit"),
        "ensemble.fuse_s": incl("ensemble.fuse"),
        "calibration.fit_s": incl("calibration.fit"),
        "calibration.fit_calls": calls("calibration.fit"),
        "calibration.choose_grid_s": self_time("calibration.choose_grid"),
        "calibration.apply_s": incl("calibration.apply"),
        "transfer.plan_s": incl("transfer.plan"),
        "transfer.sample_s": incl("transfer.sample"),
        "transfer.label_s": incl("transfer.label"),
        "transfer.train_s": incl("transfer.train"),
        "transfer.train_calls": calls("transfer.train"),
        "transfer.gd_evals": count("transfer_gd_evals"),
        "metrics.eval_s": incl("metrics.eval"),
        "harness.self_s": self_time("harness.run"),
        "harness.report_s": incl("harness.report"),
        "config.load_s": incl("config.load"),
        "trace.spans": raw["spans"],
    }
