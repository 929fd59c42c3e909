"""Seeded synthetic inputs for the genflow benchmark.

Each workload is a CSV (plus a hierarchy file where the route needs one)
shaped like one of the paper's datasets, and the CLI arguments that run
it.  The same seed always writes byte-identical files.

Run as a script, this module is the benchmark's set-up step: it imports
genflow from the checkout's ``src`` and writes one workload's files, so
its wall time is what a user pays before the first run.

    python3 perfbench/workloads.py --workload wbc-thin --seed 0 --dir DIR
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WBC_FEATURES = ("clump_thickness", "cell_size", "cell_shape", "adhesion",
                "epithelial_size", "bare_nuclei", "chromatin", "nucleoli",
                "mitoses")
TELESCOPE_FEATURES = ("fLength", "fWidth", "fSize", "fConc", "fConc1", "fAsym",
                      "fM3Long", "fM3Trans", "fAlpha", "fDist")
TELESCOPE_SHIFT = np.linspace(0.6, 0.1, 10)
# The five-level decomposition of tests/conftest.py::group_hierarchy.
SIX_CLASS_HIERARCHY = [
    {"name": "level1", "positive": [0, 1, 2], "negative": [3, 4, 5]},
    {"name": "level2", "positive": [0], "negative": [1, 2]},
    {"name": "level3", "positive": [3], "negative": [4, 5]},
    {"name": "level4", "positive": [2], "negative": [1]},
    {"name": "level5", "positive": [4], "negative": [5]},
]


def _write_csv(path: Path, X: np.ndarray, labels, names, fmt: str) -> None:
    lines = [",".join(names) + ",class"]
    lines += [",".join(fmt % v for v in row) + "," + lab
              for row, lab in zip(X.tolist(), labels)]
    path.write_text("\n".join(lines) + "\n")


def _wbc(rng: np.random.Generator, d: Path) -> None:
    """699 x 9, integer features 1-10, 458 benign ('2') / 241 malignant ('4').

    Rows are kept only on their side of a gap in the feature sum, so the
    classes are linearly separable: logreg scores 1.0 in every fold and
    wins the tie against the costlier families on every seed.
    """
    def draw(n, loc, scale, keep):
        out = np.empty((0, 9))
        while len(out) < n:
            X = np.clip(np.rint(rng.normal(loc, scale, size=(4 * n, 9))), 1, 10)
            out = np.vstack([out, X[keep(X.sum(axis=1))]])
        return out[:n]

    X = np.vstack([draw(458, 2.0, 1.5, lambda s: s <= 27),
                   draw(241, 6.5, 2.5, lambda s: s >= 45)])
    y = np.array(["2"] * 458 + ["4"] * 241)
    perm = rng.permutation(len(y))
    _write_csv(d / "data.csv", X[perm], y[perm], WBC_FEATURES, "%d")


def _six_class(rng: np.random.Generator, d: Path) -> None:
    """2400 x 5, six imbalanced classes A-F; tests/conftest.py::make_imbalanced6.

    Class B has 4 rows, so the training split holds one of them and one
    fold of every one-vs-all family fits without it.
    """
    props = np.array([0.049, 0.0018, 0.026, 0.69, 0.13, 0.10])
    counts = np.maximum((props * 2400).round().astype(int), 4)
    y = np.concatenate([np.full(c, i) for i, c in enumerate(counts)])
    X = rng.normal(size=(len(y), 5))
    X[:, 0] += np.where(np.isin(y, [0, 1, 2]), -2.0, 2.0)
    X[:, 1] += np.where(y == 0, -2.0, np.where(np.isin(y, [1, 2]), 2.0, 0.0))
    X[:, 2] += np.where(y == 3, -2.0, np.where(np.isin(y, [4, 5]), 2.0, 0.0))
    X[:, 3] += np.where(y == 1, -0.2, np.where(y == 2, 0.2, 0.0))
    X[:, 4] += np.where(y == 4, -0.15, np.where(y == 5, 0.15, 0.0))
    labels = np.array(list("ABCDEF"))[y]
    _write_csv(d / "data.csv", X, labels, [f"f{i}" for i in range(5)], "%.6f")
    (d / "hierarchy.json").write_text(json.dumps(SIX_CLASS_HIERARCHY) + "\n")


def _telescope(rng: np.random.Generator, d: Path) -> None:
    """19020 x 10 continuous, 12332 'g' / 6688 'h' (64.8% / 35.2%).

    The class shift per feature is fixed, so every seed samples the same
    population; LS-SVM at lambda 1e-6 overfits it and logreg wins.
    """
    y = np.array(["g"] * 12332 + ["h"] * 6688)
    rng.shuffle(y)
    X = rng.normal(size=(len(y), 10)) + (y == "h")[:, None] * TELESCOPE_SHIFT
    _write_csv(d / "data.csv", X, y, TELESCOPE_FEATURES, "%.6f")


# name -> (input writer, CLI arguments beyond --data/--seed/--out)
WORKLOADS = {
    "wbc-thin": (_wbc, ["--grid-preset", "thin"]),
    "six-class-hier": (_six_class, [
        "--grid-preset", "thin", "--hierarchy", "{dir}/hierarchy.json",
        "--families", "multinomial_logreg,ova_logreg,logreg", "--rankers", "fisher",
    ]),
    "telescope-kernel": (_telescope, [
        "--grid-preset", "thin", "--families", "lssvm,logreg",
    ]),
}


def write_inputs(name: str, seed: int, d: Path) -> None:
    d.mkdir(parents=True, exist_ok=True)
    WORKLOADS[name][0](np.random.default_rng(seed), d)


def cli_argv(name: str, seed: int, d: Path, out: Path) -> list[str]:
    extra = [a.format(dir=d) for a in WORKLOADS[name][1]]
    return ["--data", f"{d}/data.csv", "--label-col", "class",
            "--seed", str(seed), "--out", str(out), *extra]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True, type=Path)
    args = p.parse_args()
    sys.path.insert(0, str(SRC))
    import genflow  # noqa: F401  (import cost belongs to set-up)
    write_inputs(args.workload, args.seed, args.dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
