#!/usr/bin/env python3
"""Single-fit seconds per model family at its first thin-grid point.

Families that fit binary tasks run on seeded WBC-shaped data (9 integer
features in 1..10 with many ties, about 35% positives, classes overlapping
so trees grow deep) at 168 and 4000 rows.  Families that fit multi-class
tasks (every family not marked ``binary_only``) run on one cross-validation
fold of a seeded six-class set (2400 x 5, six imbalanced classes A-F): the
30% stratified training split minus the validation rows of the first of its
five interleaved folds whose fit rows hold every class, 574 x 5 rows at
seed 0 (the second fold).  ``lssvm`` also
runs on a telescope-shaped fold: 4565 x 10 continuous rows, about 35%
positives, the fit rows of one of five folds of a 30% split of 19020.
Each line is the median seconds of ``--repeats`` fits, the median seconds
of ``--repeats`` ``predict_scores`` calls of the last fit on its own fit
rows, and the traced peak memory (``tracemalloc``, MB) of one more fit;
lines of a family whose record bounds its fit memory (``lssvm`` and
``ova_svm``) add the memory guard's estimate, ``peak_bytes``, for the same
rows.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/bench_fits.py
        [--families a,b] [--seed N] [--repeats R]
"""

import argparse
import statistics
import time
import tracemalloc

import numpy as np

from genflow import Dataset, make_interleaved_folds, stratified_split
from genflow.models import BINARY_FAMILIES, FAMILIES, ModelSpec, fit_model
from genflow.selection import _resolve_spec

DEFAULT_FAMILIES = "boosted_tree,decision_forest,logreg,lssvm,multinomial_logreg,neural_net"
WBC_ROWS = (168, 4000)
SIX_CLASS_PROPS = np.array([0.049, 0.0018, 0.026, 0.69, 0.13, 0.10])
TELESCOPE_ROWS = 4565


def wbc_shaped(n: int, seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 241 / 699).astype(int)
    loc = np.where(y, 6.5, 2.0)[:, None]
    scale = np.where(y, 2.5, 1.5)[:, None]
    X = np.clip(np.rint(rng.normal(loc, scale, size=(n, 9))), 1, 10)
    return Dataset(X, y, tuple(f"f{i}" for i in range(9)), ("2", "4"), f"wbc-{n}")


def telescope_fold(seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    y = (rng.random(TELESCOPE_ROWS) < 6688 / 19020).astype(int)
    X = rng.normal(size=(TELESCOPE_ROWS, 10)) + y[:, None] * np.linspace(0.6, 0.1, 10)
    return Dataset(X, y, tuple(f"f{i}" for i in range(10)), ("g", "h"), "telescope")


def traced_peak_mb(spec: ModelSpec, data: Dataset) -> float:
    tracemalloc.start()
    try:
        fit_model(spec, data)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def six_class_fold(seed: int) -> Dataset:
    """A group feature, group-internal separators and weak separators for
    the rare classes; class B has 4 rows, one of them in the training split,
    so the fold is one whose fit rows hold it (one-vs-all needs every class)."""
    rng = np.random.default_rng(seed)
    counts = np.maximum((SIX_CLASS_PROPS * 2400).round().astype(int), 4)
    y = np.concatenate([np.full(c, i) for i, c in enumerate(counts)])
    X = rng.normal(size=(len(y), 5))
    X[:, 0] += np.where(np.isin(y, [0, 1, 2]), -2.0, 2.0)
    X[:, 1] += np.where(y == 0, -2.0, np.where(np.isin(y, [1, 2]), 2.0, 0.0))
    X[:, 2] += np.where(y == 3, -2.0, np.where(np.isin(y, [4, 5]), 2.0, 0.0))
    X[:, 3] += np.where(y == 1, -0.2, np.where(y == 2, 0.2, 0.0))
    X[:, 4] += np.where(y == 4, -0.15, np.where(y == 5, 0.15, 0.0))
    data = Dataset(X, y, tuple(f"f{i}" for i in range(5)), tuple("ABCDEF"), "six")
    train = stratified_split(data, 0.30, seed).train
    for fit_rows, _ in make_interleaved_folds(train, 5, seed).folds():
        if len(np.unique(train.labels[fit_rows])) == train.n_classes:
            return train.restrict_rows(fit_rows)
    raise SystemExit("no fold's fit rows hold every class")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--families", default=DEFAULT_FAMILIES,
                   help=f"comma-separated families (default: {DEFAULT_FAMILIES})")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeats", type=int, default=1)
    args = p.parse_args()
    families = args.families.split(",")
    # (label, data, the families that fit it)
    shapes = [(f"n={n}", wbc_shaped(n, args.seed), BINARY_FAMILIES) for n in WBC_ROWS]
    six = six_class_fold(args.seed)
    shapes.append((f"{six.n_samples}x{six.n_features} C={six.n_classes}", six,
                   [f for f, rec in FAMILIES.items() if not rec.binary_only]))
    shapes.append((f"{TELESCOPE_ROWS}x10", telescope_fold(args.seed), ("lssvm",)))
    if unrun := [f for f in families if not any(f in fits for _, _, fits in shapes)]:
        p.error(f"no shape runs {unrun}; known families: {sorted(FAMILIES)}")
    for label, data, fits in shapes:
        for family in families:
            if family not in fits:
                continue
            point = {k: v[0] for k, v in FAMILIES[family].thin_grid.items()}
            spec = _resolve_spec(family, point, data.n_features, args.seed)
            fit_s = []
            for _ in range(args.repeats):
                t0 = time.perf_counter()
                model = fit_model(spec, data)
                fit_s.append(time.perf_counter() - t0)
            predict_s = []
            for _ in range(args.repeats):
                t0 = time.perf_counter()
                model.predict_scores(data)
                predict_s.append(time.perf_counter() - t0)
            bound = FAMILIES[family].fit_bytes(data.n_samples)
            estimate = f"  peak_bytes {bound / 2**20:.1f} MB" if bound else ""
            print(f"{family:18s} {label:13s} {point}  fit {statistics.median(fit_s):.4f} s"
                  f"  predict {statistics.median(predict_s):.4f} s"
                  f"  {traced_peak_mb(spec, data):.1f} MB{estimate}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
