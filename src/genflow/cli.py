"""Command-line entry point.

Exit statuses: 0 success, 1 usage error, 2 data error, 3 internal
pipeline failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from pathlib import Path

from .dataset import DataError, load_dataset
from .flow import FlowConfig, load_hierarchy_spec, run_flow
from .models import FAMILIES, ModelError
from .ranking import RANKING_METHODS
from .report import emit_bundle

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="genflow",
        description="Automated classification pipeline: stratified split, "
        "filter feature ranking, cross-validated model sweeps, dimensionality "
        "reduction, and binary/multi-class/hierarchical routing.",
    )
    p.add_argument("--data", required=True, help="delimited text file with header row")
    p.add_argument("--label-col", required=True,
                   help="label column name (or 0-based index)")
    p.add_argument("--delimiter", default=",",
                   help="cell delimiter (use 'tab' for tab-separated)")
    p.add_argument("--na-policy", choices=["fail", "drop_row"], default="fail")
    p.add_argument("--train-fraction", type=float, default=0.30)
    p.add_argument("--fold-count", type=int, default=5)
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (default: GENFLOW_SEED env var, else 0)")
    p.add_argument("--families", default=None,
                   help="comma-separated candidate families (default: all applicable)")
    p.add_argument("--rankers", default=",".join(RANKING_METHODS),
                   help="comma-separated ranking methods (mrmr also available)")
    p.add_argument("--bin-count", type=int, default=10)
    p.add_argument("--hierarchy", default=None,
                   help="JSON hierarchy file: [{name, positive:[ids], negative:[ids]}]")
    p.add_argument("--decision3-metric", choices=["recall", "accuracy"],
                   default="recall")
    p.add_argument("--grid-preset", choices=["full", "thin"], default="full",
                   help="'thin' sweeps a reduced grid for large datasets")
    p.add_argument("--folds-positional", action="store_true",
                   help="skip the pre-fold shuffle (strict positional folds)")
    p.add_argument("--out", required=True, help="output directory")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE

    delimiter = "\t" if args.delimiter in ("tab", "\\t") else args.delimiter

    try:
        if args.seed is None:
            env_seed = os.environ.get("GENFLOW_SEED", "0")
            try:
                args.seed = int(env_seed)
            except ValueError:
                raise DataError(f"GENFLOW_SEED is not an integer: {env_seed!r}") from None
        data = load_dataset(args.data, args.label_col, na_policy=args.na_policy,
                            delimiter=delimiter)
        hierarchy = load_hierarchy_spec(args.hierarchy) if args.hierarchy else None
        config = FlowConfig(
            train_fraction=args.train_fraction,
            fold_count=args.fold_count,
            seed=args.seed,
            candidate_families=tuple(args.families.split(",")) if args.families else None,
            grids={n: f.thin_grid if args.grid_preset == "thin" else f.grid
                   for n, f in FAMILIES.items()},
            ranking_methods=tuple(args.rankers.split(",")),
            bin_count=args.bin_count,
            hierarchy=hierarchy,
            decision3_metric=args.decision3_metric,
            folds_positional=args.folds_positional,
        )
        out = Path(args.out)
        nearest = next((p for p in (out, *out.parents) if p.exists()), out)
        if not nearest.is_dir():
            raise DataError(f"--out {args.out}: {nearest} is not a directory")
        report = run_flow(data, config)
        emit_bundle(report, args.out)
    except (DataError, ModelError) as exc:
        print(f"genflow: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception:
        print("genflow: internal pipeline failure:", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
