"""genflow benchmark: closed-loop CLI runs on seeded synthetic datasets.

    python3 perfbench/run.py --workload wbc-thin --seed 0 --seconds 30 --trace 0

One operation is one in-process ``genflow.cli.main(argv)`` call: load the
workload's CSV, ``run_flow``, write the bundle.  Operations run one after
another in this process until ``--seconds`` is used up.  Every operation
is checked: exit code 0, a report body (``report.json`` without
``generated_at``) equal to the run's first and, at the reference seed,
to the pinned hash, and a reloaded flat-task model that reproduces the
report's test confusion matrix.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` untraced and traced operations alternate and it holds the
per-layer metrics.  ``--workload all`` runs every workload, each in a fresh
process.  Inputs, bundles, spans and results go under ``.perfbench/``.
See perfbench/README.md for the workloads and what each metric predicts.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: the thread count moves timings, and the pinned
# report hashes were taken with one BLAS thread.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, cli_argv  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = Path(".perfbench")  # relative to ROOT, so report bodies name the same paths
SETUP_REPEATS = 5
MIN_OPS = 2  # run_s is a median even when one operation fills --seconds
REFERENCE = json.loads((BENCH / "reference.json").read_text())

END_TO_END_UNITS = {"run_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
                    "ok_frac": "frac", "test_accuracy": "frac"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def digest_dir(d: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(d.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(d)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def set_up(name: str, seed: int, d: Path) -> float:
    """Median wall time of fresh processes that import genflow and write the
    workload's inputs; every repeat must write the same bytes."""
    times, digests = [], set()
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(d, ignore_errors=True)
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(BENCH / "workloads.py"),
                               "--workload", name, "--seed", str(seed), "--dir", str(d)])
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"set-up exited with {proc.returncode}")
        digests.add(digest_dir(d))
    if len(digests) != 1:
        raise BenchError("the same seed wrote different inputs")
    return statistics.median(times)


def import_genflow():
    sys.path.insert(0, str(SRC))
    try:
        import genflow
        import genflow.cli
    except ImportError as exc:
        raise BenchError(f"cannot import genflow from {SRC}: {exc}") from exc
    if SRC not in Path(genflow.__file__).resolve().parents:
        raise BenchError(f"genflow was imported from {genflow.__file__}, not {SRC}")
    return genflow


def machine_facts() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_name, "machine": platform.machine(),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


class Checker:
    """Output checks for the operations of one run."""

    def __init__(self, genflow, name: str, seed: int, data: Path):
        self.genflow, self.data = genflow, data
        self.pinned = (REFERENCE["body_sha256"].get(name)
                       if seed == REFERENCE["seed"] else None)
        self.first_hash = None
        self.test = None

    def __call__(self, out: Path) -> tuple[list[str], dict]:
        problems = []
        report = json.loads((out / "report.json").read_text())
        report.pop("generated_at", None)
        body = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        self.first_hash = self.first_hash or body
        if body != self.first_hash:
            problems.append("report body differs from the run's first operation")
        if self.pinned and body != self.pinned:
            problems.append(f"report body {body[:12]} differs from the pinned {self.pinned[:12]}")
        if not self._round_trip(out, report):
            problems.append("reloaded flat model does not reproduce the test confusion matrix")

        flat = report["flat"]
        tasks = [flat, *report["hierarchy_levels"]]
        rows = [row for t in tasks for e in t["leaderboard"] for row in e["table"]]
        facts = {
            "body_sha256": body,
            "route": report["route"],
            "winner": flat["winner"]["family"],
            "feature_selection": [flat["feature_selection"]["method"],
                                  flat["feature_selection"]["k"]],
            "level_winners": [t["winner"]["family"] for t in report["hierarchy_levels"]],
            "test_accuracy": (report["combined_hierarchy_metrics"]["accuracy"]
                              if report["route"] == "multiclass_hierarchical"
                              else flat["test_metrics"]["overall_accuracy"]),
            "grid_points": len(rows),
            "failed_points": sum(bool(row["note"]) for row in rows),
            "bundle_bytes": sum(p.stat().st_size for p in out.rglob("*") if p.is_file()),
            "model_bytes": sum(p.stat().st_size for p in (out / "models").glob("*")),
        }
        return problems, facts

    def _round_trip(self, out: Path, report: dict) -> bool:
        g = self.genflow
        if self.test is None:
            cfg = report["config"]
            data = g.load_dataset(str(self.data), "class")
            self.test = g.stratified_split(data, cfg["train_fraction"], cfg["seed"]).test
        slug = "".join(c if c.isalnum() else "_" for c in report["flat"]["name"])
        doc = json.loads((out / "models" / f"{slug}.json").read_text())
        model = g.model_from_document(doc)
        cols = [self.test.feature_names.index(n) for n in doc["feature_names"]]
        view = dataclasses.replace(self.test, features=self.test.features[:, cols],
                                   feature_names=tuple(doc["feature_names"]))
        pred = model.predict_labels(view)
        counts = g.confusion_counts(self.test.labels, pred, n_classes=self.test.n_classes)
        return counts.matrix.tolist() == report["flat"]["test_metrics"]["confusion"]


def run_workload(args) -> dict:
    d = WORK / f"{args.workload}-s{args.seed}"
    setup_s = set_up(args.workload, args.seed, d)
    genflow = import_genflow()
    out = d / "out"
    argv = cli_argv(args.workload, args.seed, d, out)
    check = Checker(genflow, args.workload, args.seed, d / "data.csv")
    tracer = Tracer() if args.trace else None

    untraced, traced, failures, op_facts = [], [], [], {}
    deadline = time.perf_counter() + args.seconds
    while True:
        op = len(untraced) + len(traced)
        trace_this = tracer is not None and len(traced) < len(untraced)
        shutil.rmtree(out, ignore_errors=True)
        t0 = time.perf_counter()
        try:
            if trace_this:
                tracer.op = op
                with tracer.installed():
                    t0 = time.perf_counter()
                    with tracer.span("cli.main", "cli"):
                        rc = genflow.cli.main(argv)
                    dt = time.perf_counter() - t0
            else:
                rc = genflow.cli.main(argv)
                dt = time.perf_counter() - t0
            problems, facts = check(out) if rc == 0 else ([f"exit status {rc}"], {})
        except Exception as exc:  # a crashed operation is a failed one
            dt, problems, facts = time.perf_counter() - t0, [repr(exc)], {}
        (traced if trace_this else untraced).append(dt)
        op_facts[op] = facts
        if problems:
            failures.append({"op": op, "problems": problems})
        done = (len(untraced) + len(traced) >= MIN_OPS
                and untraced and (traced or tracer is None))
        if done and time.perf_counter() + statistics.median(untraced + traced) > deadline:
            break

    attempted = len(untraced) + len(traced)
    facts = next((f for f in op_facts.values() if f), {})
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "machine": machine_facts(), "ops": attempted,
            "untraced_op_s": untraced, "traced_op_s": traced,
            "failures": failures, **{k: v for k, v in facts.items()
                                     if k not in ("grid_points", "failed_points")}}
    if tracer is None:
        metrics = {
            "run_s": statistics.median(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
            "ok_frac": (attempted - len(failures)) / attempted,
            "test_accuracy": facts.get("test_accuracy", 0.0),
        }
        units = END_TO_END_UNITS
    else:
        metrics, units = traced_metrics(tracer, op_facts, untraced, traced)
        info["absent_call_sites"] = tracer.absent
        (d / "spans.json").write_text(json.dumps(tracer.to_json()) + "\n")
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    (d / f"result-trace{args.trace}.json").write_text(
        json.dumps({"info": info, **result}, indent=1) + "\n")
    return {"info": info, **result}


def traced_metrics(tracer: Tracer, op_facts: dict, untraced, traced):
    """Median over traced operations of each per-layer metric."""
    per_op = []
    for op in sorted({s.op for s in tracer.spans}):
        spans = tracer.op_spans(op)
        m = layer_metrics(spans, tracer.spans)
        root = next(s for s in spans if s.name == "cli.main")
        facts = op_facts[op]
        m["selection.grid_points"] = facts.get("grid_points", 0)
        m["selection.failed_points"] = facts.get("failed_points", 0)
        m["report.bundle_bytes"] = facts.get("bundle_bytes", 0)
        m["report.model_bytes"] = facts.get("model_bytes", 0)
        m["trace.unattributed_frac"] = root.self_s / root.seconds
        per_op.append(m)
    metrics = {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
    metrics["trace.absent_call_sites"] = len(tracer.absent)
    units = {k: ("B" if k.endswith("_bytes") else "frac" if k.endswith("_frac")
                 else "s" if k.endswith("_s") or "_s." in k else "count")
             for k in metrics}
    return metrics, units


def print_result(res: dict) -> None:
    info = res["info"]
    print(json.dumps({"info": info}))
    print(f"{info['workload']:>16}  medians over {len(info['untraced_op_s'])} untraced"
          f" and {len(info['traced_op_s'])} traced operations")
    for k, m in res["metrics"].items():
        print(f"{info['workload']:>16}  {k:<34} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))


def run_all(args) -> int:
    """Every workload in a fresh process, so no peak RSS carries over."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main() -> int:
    p = argparse.ArgumentParser(description="genflow benchmark")
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=REFERENCE["seed"])
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    try:
        res = run_workload(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print_result(res)
    return 0


if __name__ == "__main__":
    sys.exit(main())
