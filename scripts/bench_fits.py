#!/usr/bin/env python3
"""Single-fit seconds per model family at its first thin-grid point.

Families that fit binary tasks run on seeded WBC-shaped data (9 integer
features in 1..10 with many ties, about 35% positives, classes overlapping
so trees grow deep) at 168 and 4000 rows.  Families that fit multi-class
tasks run on one cross-validation fold of a seeded six-class set (2400 x 5,
six imbalanced classes A-F): the 30% stratified training split minus its
first of five interleaved folds, 574 x 5 rows at seed 0.  Each line is the
median seconds of ``--repeats`` fits.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/bench_fits.py
        [--families a,b] [--seed N] [--repeats R]
"""

import argparse
import statistics
import time

import numpy as np

from genflow import Dataset, make_interleaved_folds, stratified_split
from genflow.models import (BINARY_FAMILIES, FAMILIES, MULTICLASS_FAMILIES, ModelSpec,
                            fit_model)
from genflow.selection import THIN_GRIDS

DEFAULT_FAMILIES = "boosted_tree,decision_forest,multinomial_logreg"
WBC_ROWS = (168, 4000)
SIX_CLASS_PROPS = np.array([0.049, 0.0018, 0.026, 0.69, 0.13, 0.10])


def wbc_shaped(n: int, seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 241 / 699).astype(int)
    loc = np.where(y, 6.5, 2.0)[:, None]
    scale = np.where(y, 2.5, 1.5)[:, None]
    X = np.clip(np.rint(rng.normal(loc, scale, size=(n, 9))), 1, 10)
    return Dataset(X, y, tuple(f"f{i}" for i in range(9)), ("2", "4"), f"wbc-{n}")


def six_class_fold(seed: int) -> Dataset:
    """A group feature, group-internal separators and weak separators for
    the rare classes; class B has 4 rows."""
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
    fit_rows, _ = next(make_interleaved_folds(train, 5, seed).folds())
    return train.restrict_rows(fit_rows)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--families", default=DEFAULT_FAMILIES,
                   help=f"comma-separated families (default: {DEFAULT_FAMILIES})")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeats", type=int, default=1)
    args = p.parse_args()
    families = args.families.split(",")
    if unknown := [f for f in families if f not in FAMILIES]:
        p.error(f"unknown families {unknown}; known: {sorted(FAMILIES)}")
    shapes = [(f"n={n}", wbc_shaped(n, args.seed)) for n in WBC_ROWS]
    six = six_class_fold(args.seed)
    shapes.append((f"{six.n_samples}x{six.n_features} C={six.n_classes}", six))
    for label, data in shapes:
        for family in families:
            if family not in (BINARY_FAMILIES if data.n_classes == 2
                              else MULTICLASS_FAMILIES):
                continue
            point = {k: v[0] for k, v in THIN_GRIDS[family].items()}
            spec = ModelSpec(family, point, seed=args.seed)
            times = []
            for _ in range(args.repeats):
                t0 = time.perf_counter()
                fit_model(spec, data)
                times.append(time.perf_counter() - t0)
            print(f"{family:18s} {label:13s} {point}  {statistics.median(times):.3f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
