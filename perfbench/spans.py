"""Spans around genflow's layer boundaries, recorded from outside ``src``.

``Tracer.installed()`` swaps each traced name, in the module that calls
it, for a wrapper that records a span (name, layer, start, end, parent,
operation id, attributes), and puts the originals back on exit.  Nothing
in genflow's source is edited.  A name that no longer exists is listed in
``Tracer.absent`` instead of failing, so later refactors need not edit
this file.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

FAMILIES = ("lssvm", "logreg", "boosted_tree", "decision_forest", "neural_net",
            "multinomial_logreg", "ova_boosted_tree", "ova_svm", "ova_logreg")
LAYERS = ("cli", "dataset", "flow", "selection", "ranking", "models",
          "models.tree", "models.lssvm", "models.neural", "models.ova",
          "metrics", "report")


def _fit_family(args, kwargs) -> str:
    return (args[0] if args else kwargs["spec"]).family


def _fit_layer(args, kwargs):
    family = _fit_family(args, kwargs)
    if family == "lssvm":
        return "models.lssvm"
    if family == "neural_net":
        return "models.neural"
    if family.startswith("ova_"):
        return "models.ova"
    return "models"


def _fit_attrs(args, kwargs, result):
    return {"family": _fit_family(args, kwargs)}


def _kernel_attrs(args, kwargs, result):
    return {"cells": len(args[0]) * len(args[1])}


def _roc_attrs(args, kwargs, result):
    return {"thresholds": len(result.roc or ()) if result is not None else 0}


# (module, attribute, span name, layer or layer(args, kwargs), attrs(args, kwargs, result))
# Each entry replaces the name where the caller looks it up, so e.g.
# ``flow.fit_model`` covers only the refits made by flow itself.
CALL_SITES = [
    ("genflow.cli", "load_dataset", "cli.load_dataset", "dataset", None),
    ("genflow.cli", "run_flow", "cli.run_flow", "flow", None),
    ("genflow.cli", "emit_bundle", "cli.emit_bundle", "report", None),
    ("genflow.flow", "stratified_split", "flow.stratified_split", "dataset", None),
    ("genflow.flow", "select_best_model", "flow.select_best_model", "selection", None),
    ("genflow.flow", "dimensionality_sweep", "flow.dimensionality_sweep", "selection", None),
    ("genflow.flow", "compute_rankings", "flow.compute_rankings", "ranking", None),
    ("genflow.flow", "fisher_score", "flow.fisher_score", "ranking", None),
    ("genflow.flow", "mutual_information", "flow.mutual_information", "ranking", None),
    ("genflow.flow", "chi_squared", "flow.chi_squared", "ranking", None),
    ("genflow.flow", "roc_and_auc", "flow.roc_and_auc", "metrics", _roc_attrs),
    ("genflow.flow", "_final_score", "flow._final_score", "flow", None),
    ("genflow.flow", "_cv_out_of_fold_metrics", "flow._cv_out_of_fold_metrics", "flow", None),
    ("genflow.flow", "fit_model", "flow.fit_model", _fit_layer, _fit_attrs),
    ("genflow.selection", "cv_accuracy", "selection.cv_accuracy", "selection", None),
    ("genflow.selection", "fit_model", "selection.fit_model", _fit_layer, _fit_attrs),
    ("genflow.models.base", "TrainedModel.predict_scores", "models.predict_scores", "models", None),
    ("genflow.models.boosting", "grow_regression_tree", "boosting.grow_regression_tree",
     "models.tree", None),
    ("genflow.models.boosting", "tree_predict", "boosting.tree_predict", "models.tree", None),
    ("genflow.models.forest", "grow_random_classification_tree",
     "forest.grow_random_classification_tree", "models.tree", None),
    ("genflow.models.forest", "tree_predict", "forest.tree_predict", "models.tree", None),
    ("genflow.models.lssvm", "rbf_kernel", "lssvm.rbf_kernel", "models.lssvm", _kernel_attrs),
]


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "op", "attrs", "child_s")

    def __init__(self, name, layer, parent, op):
        self.name, self.layer, self.parent, self.op = name, layer, parent, op
        self.attrs = {}
        self.child_s = 0.0
        self.start = self.end = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s


class Tracer:
    """Records spans in memory; one instance per benchmark process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self.op = 0

    @contextlib.contextmanager
    def span(self, name, layer):
        parent = self._stack[-1] if self._stack else None
        s = Span(name, layer, parent, self.op)
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_s += s.seconds

    def _wrapper(self, fn, name, layer, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_layer = layer(args, kwargs) if callable(layer) else layer
            result = None
            with self.span(name, span_layer) as s:
                try:
                    result = fn(*args, **kwargs)
                finally:  # a call that raises still gets its attributes
                    if attrs is not None:
                        s.attrs = attrs(args, kwargs, result)
                return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every call site in ``CALL_SITES`` for the duration."""
        undo = []
        self.absent = []
        try:
            for module, attr, name, layer, attrs in CALL_SITES:
                try:
                    owner = importlib.import_module(module)
                except ModuleNotFoundError:
                    owner = None
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                fn = getattr(owner, leaf, None) if owner is not None else None
                if fn is None:
                    self.absent.append(name)
                    continue
                # Class attributes must be read from __dict__ so that the
                # original (not a bound method) is put back.
                original = owner.__dict__[leaf] if isinstance(owner, type) else fn
                setattr(owner, leaf, self._wrapper(fn, name, layer, attrs))
                undo.append((owner, leaf, original))
            yield self
        finally:
            for owner, leaf, original in reversed(undo):
                setattr(owner, leaf, original)

    def op_spans(self, op: int) -> list[Span]:
        return [s for s in self.spans if s.op == op]

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "layer": s.layer, "start": s.start, "end": s.end,
                 "parent": s.parent, "op": s.op, **s.attrs} for s in self.spans]


def _total(spans, name):
    picked = [s for s in spans if s.name == name]
    return len(picked), sum(s.seconds for s in picked)


def layer_metrics(spans: list[Span], all_spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and seconds for the spans of one traced operation.

    ``all_spans`` is the tracer's full list, which ``Span.parent`` indexes.
    """
    m: dict[str, float] = {}
    for key, name in (("grow_regression", "boosting.grow_regression_tree"),
                      ("grow_random", "forest.grow_random_classification_tree")):
        m[f"models.tree.{key}_calls"], m[f"models.tree.{key}_s"] = _total(spans, name)
    n1, s1 = _total(spans, "boosting.tree_predict")
    n2, s2 = _total(spans, "forest.tree_predict")
    m["models.tree.predict_calls"], m["models.tree.predict_s"] = n1 + n2, s1 + s2

    kernels = [s for s in spans if s.name == "lssvm.rbf_kernel"]
    m["models.lssvm.kernel_s"] = sum(s.seconds for s in kernels)
    m["models.lssvm.kernel_cells"] = sum(s.attrs["cells"] for s in kernels)

    fits = [s for s in spans if s.name in ("selection.fit_model", "flow.fit_model")]
    m["models.lssvm.fit_self_s"] = sum(s.self_s for s in fits
                                       if s.attrs["family"] == "lssvm")
    m["models.fit_calls"] = len(fits)
    m["models.fit_s"] = sum(s.seconds for s in fits)
    for fam in FAMILIES:
        mine = [s for s in fits if s.attrs["family"] == fam]
        m[f"models.fit_calls.{fam}"] = len(mine)
        m[f"models.fit_s.{fam}"] = sum(s.seconds for s in mine)
    m["models.refit_calls"] = sum(s.name == "flow.fit_model" for s in fits)
    m["models.predict_s"] = _total(spans, "models.predict_scores")[1]

    m["selection.cv_calls"] = _total(spans, "selection.cv_accuracy")[0]
    m["flow.tasks"], m["selection.sweep_s"] = _total(spans, "flow.select_best_model")
    m["selection.dimsweep_s"] = _total(spans, "flow.dimensionality_sweep")[1]
    m["selection.dimsweep_fits"] = sum(
        _under(s, "flow.dimensionality_sweep", all_spans) for s in fits)

    m["ranking.calls"] = _total(spans, "flow.compute_rankings")[0]
    for key, name in (("fisher", "flow.fisher_score"),
                      ("mutual_info", "flow.mutual_information"),
                      ("chi_squared", "flow.chi_squared")):
        m[f"ranking.{key}_s"] = _total(spans, name)[1]

    m["dataset.load_s"] = _total(spans, "cli.load_dataset")[1]
    m["dataset.split_s"] = _total(spans, "flow.stratified_split")[1]
    m["metrics.roc_s"] = _total(spans, "flow.roc_and_auc")[1]
    m["metrics.roc_thresholds"] = sum(s.attrs["thresholds"] for s in spans
                                      if s.name == "flow.roc_and_auc")
    m["flow.oof_s"] = _total(spans, "flow._cv_out_of_fold_metrics")[1]
    m["flow.final_s"] = _total(spans, "flow._final_score")[1]
    m["report.emit_s"] = _total(spans, "cli.emit_bundle")[1]

    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(s.self_s for s in spans if s.layer == layer)
    return m


def _under(span: Span, name: str, all_spans: list[Span]) -> bool:
    p = span.parent
    while p is not None:
        if all_spans[p].name == name:
            return True
        p = all_spans[p].parent
    return False
