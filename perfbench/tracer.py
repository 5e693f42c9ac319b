"""Spans around the public functions of every mixreg module, and the
per-layer metrics derived from them.

Each public function is wrapped where it is looked up: a function is
replaced in every mixreg namespace that holds it (``train`` as imported into
``experiment``, ``mixup_minibatch`` as imported into ``training``), and a
public method is replaced on its class (``RffModel.features``). Nothing
under ``src/`` changes; wrappers are installed around a traced operation and
removed after it.

A span is (id, parent, name, start, end, attrs). Spans stay in memory and
are written once, when the run ends. A span's self time is its duration
minus the durations of its wrapped children; children never overlap because
the program is single-threaded.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import statistics
import time

import numpy as np

from checks import CERTIFIED_CHECKS

LAYERS = (
    "data",
    "truncbeta",
    "losses",
    "models",
    "mixup",
    "regularizers",
    "training",
    "metrics",
    "verification",
    "experiment",
    "cli",
)

TRAIN_METHODS = ("erm", "erm_modified", "mixup", "mixup_approx")

# (name, unit, better); the order is the order printed
PER_LAYER = (
    [
        ("models.features_s", "s", "lower"),
        ("models.cos_evals", "count", "lower"),
        ("models.unique_row_ratio", "ratio", "higher"),
        ("models.max_phase_mb", "MB", "lower"),
        ("models.derivative_s", "s", "lower"),
    ]
    + [(f"training.train_s.{m}", "s", "lower") for m in TRAIN_METHODS]
    + [
        ("training.natural_predictions_s", "s", "lower"),
        ("training.approx_self_s", "s", "lower"),
        ("mixup.minibatch_s", "s", "lower"),
        ("mixup.mc_s", "s", "lower"),
        ("mixup.mc_draws", "count", "higher"),
        ("losses.rows_s", "s", "lower"),
        ("losses.bundle_calls", "count", "lower"),
        ("regularizers.r_terms_s", "s", "lower"),
        ("regularizers.rows", "count", "higher"),
        ("regularizers.covariance_calls", "count", "lower"),
        ("regularizers.eig_calls", "count", "lower"),
        ("data.modify_calls", "count", "lower"),
    ]
    + [(f"verification.check_s.{c}", "s", "lower") for c in CERTIFIED_CHECKS]
    + [
        ("verification.quadrature_s", "s", "lower"),
        ("metrics.metrics_s", "s", "lower"),
    ]
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [("trace.overhead_s", "s", "lower")]
)

_FEATURES = ("models.RffModel.features", "models.RffModel.sin_features")
_ESTIMATORS = ("mixup.mixup_risk_mc", "mixup.perturbed_erm_risk_mc")
_R_TERMS = tuple(
    f"regularizers.r_terms_{k}" for k in ("general", "ce", "lr", "se")
)
_EIGS = tuple(f"regularizers.{k}" for k in ("psd_sqrt", "psd_pinv", "psd_pinv_sqrt"))
_ATTRS_SPAN = "trace.attrs"
_OP_SPAN = "bench.op"


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "attrs")

    def __init__(self, sid, parent, name, start):
        self.id = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.end = None
        self.attrs = None

    def as_row(self):
        return [self.id, self.parent, self.name, self.start, self.end, self.attrs]


def _public_functions(module, layer):
    """(span name, owner, attribute, function) for every public callable."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    found = []
    for name in names:
        obj = getattr(module, name)
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            found.append((f"{layer}.{name}", module, name, obj))
        elif inspect.isclass(obj):
            for meth, fn in vars(obj).items():
                if not meth.startswith("_") and inspect.isfunction(fn):
                    found.append((f"{layer}.{name}.{meth}", obj, meth, fn))
    return found


class Tracer:
    """Installs span-recording wrappers and keeps every span in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list = []
        self._rows: dict = {}
        self._featurized = 0
        self._modules = {layer: importlib.import_module(f"mixreg.{layer}") for layer in LAYERS}
        self._namespaces = [importlib.import_module("mixreg")] + list(self._modules.values())

    # -- spans ---------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def _annotate(self, span, attrs_fn, args, kwargs, out):
        """Attach attributes; the work is a child span so no layer pays for it."""
        cost = self._open(_ATTRS_SPAN)
        try:
            span.attrs = attrs_fn(args, kwargs, out)
        finally:
            self._close(cost)

    def _wrap(self, name, fn):
        attrs_fn = self._attrs_for(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs_fn is not None:
                self._annotate(span, attrs_fn, args, kwargs, out)
            return out

        return wrapper

    def _attrs_for(self, name, fn):
        if name in _FEATURES:
            return self._feature_attrs
        if name == "training.train":
            return lambda a, kw, out: {"method": (a[2] if len(a) > 2 else kw["cfg"]).method}
        if name in _ESTIMATORS:
            sig = inspect.signature(fn)
            return lambda a, kw, out: {"draws": int(sig.bind(*a, **kw).arguments["n_draws"])}
        if name == "mixup.pair_loss_values":
            return lambda a, kw, out: {"draws": int(len(out))}
        if name in _R_TERMS:
            return lambda a, kw, out: {"rows": int((a[0] if a else kw["ds"]).n)}
        if name.startswith("verification.check_"):
            return lambda a, kw, out: {"check": out.name}
        return None

    def _feature_attrs(self, args, kwargs, out):
        model = args[0]
        x = np.asarray(args[1] if len(args) > 1 else kwargs["x"], dtype=float)
        rows = np.atleast_2d(x)
        n_rows, M = rows.shape[0], model.n_features
        key = hashlib.blake2b(
            np.ascontiguousarray(model.S).tobytes() + np.ascontiguousarray(model.B).tobytes(),
            digest_size=16,
        ).digest()
        self._rows.setdefault(key, set()).update(map(bytes, np.ascontiguousarray(rows)))
        self._featurized += n_rows
        return {"cos": n_rows * M, "phase_mb": n_rows * M * 8 / 2**20}

    # -- installation --------------------------------------------------------

    def install(self):
        """Replace every public function and method with its wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, module in self._modules.items():
            for name, owner, attr, fn in _public_functions(module, layer):
                wrapper = self._wrap(name, fn)
                if inspect.isclass(owner):
                    self._patches.append((owner, attr, fn))
                    setattr(owner, attr, wrapper)
                    continue
                for ns in self._namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._patches.append((ns, key, fn))
                            setattr(ns, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def run_op(self, op):
        """Run one operation under a root span; returns (output, wall seconds, root)."""
        self._rows = {}
        self._featurized = 0
        self.install()
        try:
            root = self._open(_OP_SPAN)
            try:
                out = op()
            finally:
                self._close(root)
        finally:
            self.uninstall()
        distinct = sum(len(s) for s in self._rows.values())
        root.attrs = {
            "featurized_rows": self._featurized,
            "distinct_rows": distinct,
            "end_id": len(self.spans),
        }
        return out, root.end - root.start, root

    def write(self, path, header: dict):
        with open(path, "w") as fh:
            json.dump(dict(header, spans=[s.as_row() for s in self.spans]), fh)


def op_metrics(spans: list[Span], root: Span) -> dict:
    """Per-layer metrics of the operation under ``root``."""
    # the root stays open for the whole operation, so every span recorded
    # between it and the operation's end descends from it
    members = spans[root.id + 1 : root.attrs["end_id"]]
    by_id = {s.id: s for s in members}
    child_time: dict = {}
    tracing: dict = {}  # time spent on span attributes inside each span
    for s in reversed(members):  # children have larger ids than parents
        if s.name == _ATTRS_SPAN:
            tracing[s.id] = s.end - s.start
        tracing[s.parent] = tracing.get(s.parent, 0.0) + tracing.get(s.id, 0.0)
        child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)

    def dur(s):
        return s.end - s.start - tracing.get(s.id, 0.0)

    def self_time(s):
        return s.end - s.start - child_time.get(s.id, 0.0)

    def named(*names):
        return [s for s in members if s.name in names]

    def attr(s, key, default=0):
        return (s.attrs or {}).get(key, default)

    m = {name: 0.0 for name, _, _ in PER_LAYER}
    feats = named(*_FEATURES)
    m["models.features_s"] = sum(map(self_time, named(*_FEATURES, "models.RffModel.predict")))
    m["models.cos_evals"] = sum(attr(s, "cos") for s in feats)
    rows = root.attrs["featurized_rows"]
    m["models.unique_row_ratio"] = root.attrs["distinct_rows"] / rows if rows else 0.0
    m["models.max_phase_mb"] = max((attr(s, "phase_mb") for s in feats), default=0.0)
    m["models.derivative_s"] = sum(
        self_time(s)
        for s in members
        if s.name.startswith("models.") and s.name.endswith((".input_jacobian", ".input_hessian"))
    )
    for s in named("training.train"):
        m[f"training.train_s.{s.attrs['method']}"] += dur(s)
        if s.attrs["method"] == "mixup_approx":
            m["training.approx_self_s"] += self_time(s)
    m["training.natural_predictions_s"] = sum(map(dur, named("training.natural_predictions")))
    m["mixup.minibatch_s"] = sum(map(dur, named("mixup.mixup_minibatch")))
    m["mixup.mc_s"] = sum(map(self_time, named(*_ESTIMATORS, "mixup.pair_loss_values")))
    estimator_ids = {s.id for s in named(*_ESTIMATORS)}
    m["mixup.mc_draws"] = sum(attr(s, "draws") for s in named(*_ESTIMATORS)) + sum(
        attr(s, "draws")
        for s in named("mixup.pair_loss_values")
        if not _has_ancestor(s, estimator_ids, by_id)
    )
    m["losses.rows_s"] = sum(map(self_time, named("losses.loss_values", "losses.grad_u_rows")))
    m["losses.bundle_calls"] = len(named("losses.bundle"))
    m["regularizers.r_terms_s"] = sum(map(self_time, named(*_R_TERMS)))
    m["regularizers.rows"] = sum(attr(s, "rows") for s in named(*_R_TERMS))
    m["regularizers.covariance_calls"] = len(named("regularizers.per_example_covariances"))
    m["regularizers.eig_calls"] = len(named(*_EIGS))
    m["data.modify_calls"] = len(named("data.modify"))
    check_spans = [s for s in members if s.name.startswith("verification.check_")]
    check_ids = {s.id for s in check_spans}
    for s in check_spans:
        # a check that retries by calling itself is counted once, outermost
        if not _has_ancestor(s, check_ids, by_id):
            m[f"verification.check_s.{s.attrs['check']}"] += dur(s)
    m["verification.quadrature_s"] = sum(map(dur, named("verification.expected_quadratic_loss")))
    m["metrics.metrics_s"] = sum(map(dur, named("metrics.metrics")))
    for s in members:
        layer = s.name.split(".", 1)[0]
        if layer in LAYERS:
            m[f"{layer}.self_s"] += self_time(s)
    return m


def _has_ancestor(span, ids, by_id) -> bool:
    parent = span.parent
    while parent in by_id:
        if parent in ids:
            return True
        parent = by_id[parent].parent
    return False


def summarize(per_op: list[dict], traced_s: list[float], untraced_s: list[float]) -> dict:
    """Mean of each metric over the traced operations, plus tracing overhead."""
    out = {}
    for name, unit, _ in PER_LAYER:
        if name == "trace.overhead_s":
            value = statistics.median(traced_s) - statistics.median(untraced_s)
        elif name == "models.max_phase_mb":
            value = max(m[name] for m in per_op)
        else:
            value = statistics.fmean(m[name] for m in per_op)
        out[name] = {"value": value, "unit": unit}
    return out
