"""The sweeps' fold jobs on one forked helper process: with the helper
forced on and off, sweep tables, curves and out-of-fold labels are
hex-equal; each job runs once across the two processes; failures come back
typed; and no child process outlives a call."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from genflow import (
    Dataset,
    ModelError,
    ModelSpec,
    fisher_score,
    make_interleaved_folds,
    mutual_information,
    run_flow,
    stratified_split,
)
from genflow import flow, selection
from genflow.cli import main
from genflow.models.lssvm import peak_bytes
from genflow.report import report_body
from genflow.selection import cross_validate, dimensionality_sweep, sweep_parameters
from tests import selection_reference as ref
from tests.conftest import make_binary, make_imbalanced6
from tests.test_evaluation_paths import hier_config
from tests.test_flow import fast_config
from tests.test_report_cli import write_toy_csv

# Forcing the helper on beside a multi-threaded BLAS forks a multi-threaded
# process, which Python 3.12 and later warn about.  genflow forks on its own
# only under the one-thread pin: test_pinned_cli_forks_without_a_warning.
pytestmark = pytest.mark.filterwarnings(
    "ignore:This process .* is multi-threaded:DeprecationWarning")


def helper(mp, on: bool) -> list:
    """Force the helper on or off; the returned list gains one entry per fork."""
    forks = []
    real = os.fork

    def fork():
        forks.append(os.getpid())
        return real()

    mp.setattr(selection, "second_core_free", lambda: on)
    mp.setattr(os, "fork", fork)
    return forks


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def exact(obj):
    """``obj`` with every float as its hex string and arrays as bytes."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {k: exact(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [exact(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.dtype.str, obj.tobytes()
    return obj


def wbc_like(n=160, seed=0):
    """Integer features 1..10 on 9 columns, as the WBC set's."""
    rng = np.random.default_rng(seed)
    X = rng.integers(1, 11, size=(n, 9)).astype(float)
    y = (X[:, :3].sum(axis=1) + rng.normal(scale=4.0, size=n) > 17).astype(int)
    return Dataset(X, y, tuple(f"f{i}" for i in range(9)), ("benign", "malignant"), "wbc")


CASES = {
    "wbc": (wbc_like, {"logreg": {"l2": [1e-6, 1.0]},
                       "boosted_tree": {"leaves": [4], "learning_rate": [0.2],
                                        "trees": [5, 10]}}),
    "six-class": (lambda: make_imbalanced6(n=600), {
        "multinomial_logreg": {"l2": [1e-6, 1e-2]},
        "ova_logreg": {"l2": [1e-6]}}),
    "lssvm": (lambda: make_binary(n=300, d=4, seed=2), {
        "lssvm": {"lambda": [1e-6, 1e-2], "kernel_gamma_scale": [1.0, 10.0]}}),
}


class TestSameBitsEitherWay:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_tables_curves_and_labels_are_hex_equal(self, case):
        make, grids = CASES[case]
        data = make()
        folds = make_interleaved_folds(data, 5, seed=1)
        rankings = [fisher_score(data), mutual_information(data, 10)]
        runs = []
        for on in (False, True):
            with pytest.MonkeyPatch.context() as mp:
                forks = helper(mp, on)
                sweeps = [sweep_parameters(f, g, data, folds, seed=3) for f, g in grids.items()]
                best = max(sweeps, key=lambda s: s.cv_accuracy).best_spec
                dim = dimensionality_sweep(best, data, folds, rankings)
            assert bool(forks) == on
            runs.append([[(exact(s.table), s.best_spec) for s in sweeps],
                         exact(dim.curves), dim.best_method, dim.best_k,
                         exact(dim.oof_labels)])
        assert runs[0] == runs[1]
        assert_no_children()

    def test_report_bodies_are_equal(self):
        data = make_imbalanced6(n=1200, seed=0)
        bodies = []
        for on in (False, True):
            with pytest.MonkeyPatch.context() as mp:
                forks = helper(mp, on)
                report = run_flow(data, hier_config())
            assert bool(forks) == on
            bodies.append(json.dumps(report_body(report), sort_keys=True))
        assert report.route == "multiclass_hierarchical"
        assert bodies[0] == bodies[1]
        assert_no_children()


def job_log(mp, path: Path, delay: float = 0.0):
    """Append one line per fit, in whichever process makes it: the pid,
    then the spec and a digest of the fit rows, which name the job."""
    original = selection.fit_model

    def logged(spec, train):
        time.sleep(delay)
        digest = hashlib.sha1(train.features.tobytes()).hexdigest()
        with open(path, "a") as fh:  # one short append per line
            fh.write(f"{os.getpid()} {spec.family} {spec.hyperparameters} {digest}\n")
        return original(spec, train)

    mp.setattr(selection, "fit_model", logged)


class TestJobsRunOnce:
    def test_each_job_once_across_two_processes(self, tmp_path):
        data = make_binary(n=120, d=3, seed=5)
        folds = make_interleaved_folds(data, 5, seed=0)
        grid = {"l2": [1e-6, 1e-3, 1.0]}
        logs = {}
        for on in (False, True):
            logs[on] = tmp_path / f"jobs-{on}.log"
            with pytest.MonkeyPatch.context() as mp:
                helper(mp, on)
                job_log(mp, logs[on], delay=0.02)
                sweep_parameters("logreg", grid, data, folds)
        serial = [line.split(" ", 1) for line in logs[False].read_text().splitlines()]
        shared = [line.split(" ", 1) for line in logs[True].read_text().splitlines()]
        assert len(serial) == 15 and len({job for _, job in serial}) == 15
        assert sorted(job for _, job in shared) == sorted(job for _, job in serial)
        assert {pid for pid, _ in serial} == {str(os.getpid())}
        assert len({pid for pid, _ in shared}) == 2  # both processes took jobs
        assert_no_children()


class TestFailures:
    def test_typed_failure_in_the_helper_scores_the_point(self, monkeypatch):
        data = make_binary(n=120, d=3, seed=5)
        folds = make_interleaved_folds(data, 5, seed=0)
        parent = os.getpid()
        original = selection.fit_model

        def fails_in_helper(spec, train):
            if os.getpid() != parent:
                raise ModelError(f"refused {spec.hyperparameters['l2']}")
            time.sleep(0.02)  # the helper takes some jobs
            return original(spec, train)

        helper(monkeypatch, True)
        monkeypatch.setattr(selection, "fit_model", fails_in_helper)
        with pytest.warns(UserWarning, match="fit failed: refused"):
            res = sweep_parameters("logreg", {"l2": [1e-6, 1.0]}, data, folds)
        failed = [row for row in res.table if row["note"]]
        assert failed
        for row in failed:
            assert row["note"] == f"fit failed: refused {row['point']['l2']}"
            assert row["mean_accuracy"] == 0.0 and row["fold_accuracies"] == []
        assert_no_children()

    def test_first_failing_fold_in_fold_order_gives_the_note(self):
        data = make_binary(n=120, d=3, seed=5)
        folds = make_interleaved_folds(data, 5, seed=0)
        splits = list(folds.folds())
        original = selection.fit_model

        def fails_after_fold_1(spec, train):
            fold = next(k for k, (fit, _) in enumerate(splits) if len(fit) == train.n_samples
                        and np.array_equal(train.features, data.features[fit]))
            if fold >= 2:
                raise ModelError(f"fold {fold}")
            return original(spec, train)

        tables = []
        for on in (False, True):
            with pytest.MonkeyPatch.context() as mp:
                helper(mp, on)
                mp.setattr(selection, "fit_model", fails_after_fold_1)
                with pytest.warns(UserWarning):
                    tables.append(sweep_parameters("logreg", {"l2": [1e-6]}, data,
                                                   folds).table)
        assert tables[0] == tables[1]
        assert tables[0][0]["note"] == "fit failed: fold 2"
        with pytest.raises(ModelError, match="fold 2"), pytest.MonkeyPatch.context() as mp:
            helper(mp, True)
            mp.setattr(selection, "fit_model", fails_after_fold_1)
            cross_validate(ModelSpec("logreg"), data, folds)
        assert_no_children()

    def test_programming_error_in_the_helper_exits_3(self, tmp_path, monkeypatch, capsys):
        parent = os.getpid()
        original = selection.fit_model

        def broken_in_helper(spec, train):
            if os.getpid() != parent:
                raise KeyError("helper-side bug")
            time.sleep(0.02)
            return original(spec, train)

        helper(monkeypatch, True)
        monkeypatch.setattr(selection, "fit_model", broken_in_helper)
        data = write_toy_csv(tmp_path / "toy.csv")
        code = main(["--data", str(data), "--label-col", "label", "--families", "logreg",
                     "--rankers", "fisher", "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert "KeyError: 'helper-side bug'" in err and "raised in the fold helper" in err
        assert_no_children()

    def test_helper_that_dies_names_its_exit_status(self, monkeypatch):
        data = make_binary(n=120, d=3, seed=5)
        folds = make_interleaved_folds(data, 5, seed=0)
        parent = os.getpid()
        original = selection.fit_model

        def dies_in_helper(spec, train):
            if os.getpid() != parent:
                os._exit(7)
            time.sleep(0.02)
            return original(spec, train)

        helper(monkeypatch, True)
        monkeypatch.setattr(selection, "fit_model", dies_in_helper)
        with pytest.raises(RuntimeError, match="exit status 7"):
            sweep_parameters("logreg", {"l2": [1e-6, 1.0]}, data, folds)
        assert_no_children()

    def test_interrupt_kills_and_reaps_the_helper(self, monkeypatch):
        data = make_binary(n=120, d=3, seed=5)
        folds = make_interleaved_folds(data, 5, seed=0)
        parent = os.getpid()
        original = selection.fit_model
        fits = []

        def interrupted(spec, train):
            if os.getpid() == parent:
                fits.append(spec)
                if len(fits) == 2:
                    raise KeyboardInterrupt
            else:
                time.sleep(60)  # still running when the parent is interrupted
            return original(spec, train)

        helper(monkeypatch, True)
        monkeypatch.setattr(selection, "fit_model", interrupted)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            sweep_parameters("logreg", {"l2": [1e-6, 1.0]}, data, folds)
        assert time.monotonic() - started < 30
        assert_no_children()


class TestWhenItForks:
    def test_one_job_runs_in_process(self, monkeypatch):
        forks = helper(monkeypatch, True)
        assert selection._run_jobs([lambda: 5]) == [5]
        assert selection._run_jobs([]) == []
        assert not forks

    def test_two_lssvm_systems_must_fit_in_memory(self, monkeypatch):
        data = make_binary(n=120, d=3, seed=5)
        config = fast_config(candidate_families=("lssvm",),
                             grids={"lssvm": {"lambda": [1e-6], "kernel_gamma_scale": [1.0]}})
        n_train = stratified_split(data, config.train_fraction, config.seed).train.n_samples
        forks = helper(monkeypatch, True)
        for memory, forked in ((2 * peak_bytes(n_train) - 1, False),
                               (2 * peak_bytes(n_train), True)):
            forks.clear()
            monkeypatch.setattr(flow, "physical_memory_bytes", lambda: memory)
            report = run_flow(data, config)  # accepted either way
            assert report.flat.sweep.best_spec.family == "lssvm"
            assert bool(forks) == forked
        assert_no_children()


class TestOneVsAllCoverage:
    def test_missing_class_costs_no_fit_and_keeps_the_note(self, monkeypatch):
        # class 2 has one row, so the fold that validates it fits without it
        y = np.array([0, 1] * 12 + [2])
        X = np.random.default_rng(0).normal(size=(len(y), 2)) + y[:, None]
        data = Dataset(X, y, ("a", "b"), ("c0", "c1", "c2"))
        folds = make_interleaved_folds(data, 3, seed=0)
        grid = {"l2": [1e-6, 1e-2]}
        with pytest.warns(UserWarning) as expected:
            want = ref.sweep_parameters("ova_logreg", grid, data, folds)
        calls = []
        helper(monkeypatch, True)
        monkeypatch.setattr(selection, "fit_model", lambda *a: calls.append(a))
        with pytest.warns(UserWarning) as seen:
            got = sweep_parameters("ova_logreg", grid, data, folds)
        assert calls == []
        assert got.table == want.table
        assert got.table[0]["note"] == "fit failed: one-vs-all: class 2 has no training samples"
        assert [str(w.message) for w in seen] == [str(w.message) for w in expected]


def test_pinned_cli_forks_without_a_warning(tmp_path):
    """Under the one-thread pin the CLI forks its helper itself, and Python
    3.12's warning about forking a multi-threaded process, made an error
    here, does not fire: no thread is running when it forks."""
    data = write_toy_csv(tmp_path / "toy.csv")
    script = "\n".join([
        "import os, sys",
        "forks, real = [], os.fork",
        "os.fork = lambda: forks.append(1) or real()",
        "from genflow.cli import main",
        "code = main(sys.argv[1:])",
        "print(len(forks))",
        "sys.exit(code)",
    ])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", "-c", script,
         "--data", str(data), "--label-col", "label", "--families", "logreg,lssvm",
         "--grid-preset", "thin", "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert (int(proc.stdout.split()[-1]) > 0) == (cpus >= 2)
