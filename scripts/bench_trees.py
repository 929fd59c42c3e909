#!/usr/bin/env python3
"""Single-fit seconds for the two tree families at the thin-grid point.

Fits ``boosted_tree`` and ``decision_forest`` on seeded WBC-shaped data
(9 integer features in 1..10 with many ties, about 35% positives, classes
overlapping so trees grow deep) at 168 and 4000 rows, and prints the
median seconds of ``--repeats`` fits per line.

    PYTHONPATH=src python3 scripts/bench_trees.py [--seed N] [--repeats R]
"""

import argparse
import statistics
import time

import numpy as np

from genflow import Dataset
from genflow.models import ModelSpec, fit_model
from genflow.selection import THIN_GRIDS

FAMILIES = ("boosted_tree", "decision_forest")
ROWS = (168, 4000)


def wbc_shaped(n: int, seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 241 / 699).astype(int)
    loc = np.where(y, 6.5, 2.0)[:, None]
    scale = np.where(y, 2.5, 1.5)[:, None]
    X = np.clip(np.rint(rng.normal(loc, scale, size=(n, 9))), 1, 10)
    return Dataset(X, y, tuple(f"f{i}" for i in range(9)), ("2", "4"), f"wbc-{n}")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeats", type=int, default=1)
    args = p.parse_args()
    for n in ROWS:
        data = wbc_shaped(n, args.seed)
        for family in FAMILIES:
            point = {k: v[0] for k, v in THIN_GRIDS[family].items()}
            spec = ModelSpec(family, point, seed=args.seed)
            times = []
            for _ in range(args.repeats):
                t0 = time.perf_counter()
                fit_model(spec, data)
                times.append(time.perf_counter() - t0)
            print(f"{family:16s} n={n:5d} {point}  {statistics.median(times):.3f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
