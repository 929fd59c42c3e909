"""The report bundle's one writer.  ``run_flow`` returns a complete
report; ``emit_bundle`` only reads it and writes a structured JSON
report, delimited curve files, serialized winning models and
self-contained SVG plots, walking each task once.

Layout under the output directory:
    report.json
    curves/dimsweep_<task>_<method>.csv
    curves/roc_<task>.csv
    models/<task>.json
    plots/dimsweep_<task>.svg
    plots/roc_<task>.svg
Every number plotted also appears in a curve file.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .flow import FlowReport, TaskResult, file_stem
from .metrics import EvalMetrics

__all__ = ["emit_bundle", "report_body"]


def _metrics_dict(m: EvalMetrics | None) -> dict | None:
    if m is None:
        return None
    out = {
        "micro_precision": m.micro_precision,
        "micro_recall": m.micro_recall,
        "micro_accuracy": m.micro_accuracy,
        "macro_precision": m.macro_precision,
        "macro_recall": m.macro_recall,
        "macro_accuracy": m.macro_accuracy,
        "overall_accuracy": m.overall_accuracy,
        "auc": m.auc,
        "degenerate_flags": m.degenerate_flags,
    }
    if m.precision is not None:
        out["per_class"] = {
            "precision": [float(x) for x in m.precision],
            "recall": [float(x) for x in m.recall],
            "accuracy": [float(x) for x in m.accuracy],
        }
    if m.confusion is not None:
        out["confusion"] = m.confusion.matrix.tolist()
    return out


def _task_dict(t: TaskResult) -> dict:
    return {
        "name": t.name,
        "winner": {
            "family": t.chosen_spec.family,
            "hyperparameters": dict(t.chosen_spec.hyperparameters),
            "seed": t.chosen_spec.seed,
        },
        "cv_accuracy": t.sweep.cv_accuracy,
        "leaderboard": t.leaderboard,
        "feature_selection": {
            "method": t.dim.best_method,
            "k": t.dim.best_k,
            "cv_accuracy": t.dim.cv_accuracy,
        },
        "dimensionality_curves": t.dim.curves,
        "cv_metrics": _metrics_dict(t.cv_metrics),
        "test_metrics": _metrics_dict(t.test_metrics),
    }


def report_body(report: FlowReport) -> dict:
    """The deterministic portion of the report (no timestamp)."""
    return {
        "route": report.route,
        "source": report.source_id,
        "class_names": list(report.class_names),
        "config": report.config,
        "randomized_baseline": report.baseline,
        "flat": _task_dict(report.flat) if report.flat else None,
        "hierarchy_levels": [_task_dict(t) for t in report.levels],
        "combined_hierarchy_metrics": report.combined,
        "combined_hierarchy_cv_metrics": report.combined_cv,
        "decision_trail": report.decision_trail,
        "advisories": report.advisories,
    }


def _csv(header: list[str], rows) -> str:
    return "".join(",".join(f"{v:.10g}" if isinstance(v, float) else str(v) for v in row)
                   + "\n" for row in [header, *rows])


# ---------------------------------------------------------------- SVG plots

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 30, 50
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]
# XML text escapes: xml.sax.saxutils.escape imports urllib.request, +3 MB peak RSS
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _svg_header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title.translate(_XML_TEXT)}</text>',
    ]


def _axes(xlab: str, ylab: str, xticks, yticks, xmap, ymap) -> list[str]:
    s = []
    x0, x1 = _ML, _W - _MR
    y0, y1 = _H - _MB, _MT
    s.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>')
    s.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>')
    for v in xticks:
        px = xmap(v)
        s.append(f'<line x1="{px:.1f}" y1="{y0}" x2="{px:.1f}" y2="{y0 + 5}" stroke="black"/>')
        s.append(f'<text x="{px:.1f}" y="{y0 + 18}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="10">{v:g}</text>')
    for v in yticks:
        py = ymap(v)
        s.append(f'<line x1="{x0 - 5}" y1="{py:.1f}" x2="{x0}" y2="{py:.1f}" stroke="black"/>')
        s.append(f'<text x="{x0 - 8}" y="{py + 3:.1f}" text-anchor="end" '
                 f'font-family="sans-serif" font-size="10">{v:g}</text>')
    s.append(f'<text x="{(x0 + x1) / 2}" y="{_H - 12}" text-anchor="middle" '
             f'font-family="sans-serif" font-size="12">{xlab}</text>')
    s.append(f'<text x="16" y="{(y0 + y1) / 2}" text-anchor="middle" '
             f'font-family="sans-serif" font-size="12" '
             f'transform="rotate(-90 16 {(y0 + y1) / 2})">{ylab}</text>')
    return s


def _polyline(points, color: str) -> str:
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'


def dimsweep_svg(curves: dict[str, list[float]], title: str) -> str:
    d = max(len(c) for c in curves.values())
    ys = [v for c in curves.values() for v in c]
    ylo = max(0.0, min(ys) - 0.02)
    yhi = min(1.0, max(ys) + 0.02)
    if yhi <= ylo:
        ylo, yhi = ylo - 0.01, yhi + 0.01

    def xmap(k):
        return _ML + (k - 1) / max(d - 1, 1) * (_W - _ML - _MR)

    def ymap(a):
        return _H - _MB - (a - ylo) / (yhi - ylo) * (_H - _MT - _MB)

    s = _svg_header(title)
    xticks = sorted({1, d, *range(0, d + 1, max(1, d // 8))} - {0})
    yticks = np.linspace(ylo, yhi, 5).round(3)
    s += _axes("number of top-ranked features", "mean CV accuracy",
               xticks, yticks, xmap, ymap)
    for i, (method, curve) in enumerate(curves.items()):
        color = _COLORS[i % len(_COLORS)]
        s.append(_polyline([(xmap(k + 1), ymap(v)) for k, v in enumerate(curve)],
                           color))
        s.append(f'<rect x="{_W - 190}" y="{_MT + 14 * i}" width="12" height="3" '
                 f'fill="{color}"/>')
        s.append(f'<text x="{_W - 172}" y="{_MT + 14 * i + 5}" '
                 f'font-family="sans-serif" font-size="11">{method}</text>')
    s.append("</svg>")
    return "\n".join(s)


def roc_svg(points: list[tuple[float, float, float]], title: str,
            auc: float | None = None) -> str:
    def xmap(v):
        return _ML + v * (_W - _ML - _MR)

    def ymap(v):
        return _H - _MB - v * (_H - _MT - _MB)

    label = title if auc is None else f"{title} (AUC = {auc:.3f})"
    s = _svg_header(label)
    ticks = [0, 0.25, 0.5, 0.75, 1.0]
    s += _axes("false positive rate", "true positive rate",
               ticks, ticks, xmap, ymap)
    s.append(f'<line x1="{xmap(0):.1f}" y1="{ymap(0):.1f}" x2="{xmap(1):.1f}" '
             f'y2="{ymap(1):.1f}" stroke="#999" stroke-dasharray="4 3"/>')
    curve = sorted([(f, t) for f, t, _ in points])
    curve = [(0.0, 0.0)] + curve + [(1.0, 1.0)]
    s.append(_polyline([(xmap(f), ymap(t)) for f, t in curve], _COLORS[0]))
    s.append("</svg>")
    return "\n".join(s)


def emit_bundle(report: FlowReport, out_dir) -> list[Path]:
    """Write the bundle of a finished report as UTF-8; the report is not changed."""
    out = Path(out_dir)
    for sub in ("curves", "models", "plots"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    written = []

    def write(name: str, text: str) -> None:
        path = out / name
        path.write_text(text, encoding="utf-8")
        written.append(path)

    doc = {"generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
           **report_body(report)}
    write("report.json", json.dumps(doc, indent=2, sort_keys=False) + "\n")
    for task in report.tasks():
        slug = file_stem(task.name)
        for method, curve in task.dim.curves.items():
            write(f"curves/dimsweep_{slug}_{method}.csv",
                  _csv(["method", "k", "mean_cv_accuracy"],
                       [(method, k + 1, float(a)) for k, a in enumerate(curve)]))
        write(f"plots/dimsweep_{slug}.svg",
              dimsweep_svg(task.dim.curves, f"accuracy vs top-k features: {task.name}"))
        if task.roc is not None and task.roc.roc:
            write(f"curves/roc_{slug}.csv",
                  _csv(["threshold", "fpr", "tpr"],
                       [(float(t), float(f), float(tp)) for f, tp, t in task.roc.roc]))
            write(f"plots/roc_{slug}.svg",
                  roc_svg(task.roc.roc, f"ROC: {task.name}", auc=task.roc.auc))
        if task.model is not None:
            write(f"models/{slug}.json", json.dumps(task.model.to_document()) + "\n")
    return written
