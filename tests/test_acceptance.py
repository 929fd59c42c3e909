"""Acceptance gate: one test per release criterion.

Run ``pytest -v tests/test_acceptance.py`` to get exactly one
pass/fail/skip line per criterion.  Criteria 1-3 and the data-backed
part of criterion 4 need the public benchmark CSVs under data/; when
those files are absent (they are fetched over the network by
scripts/fetch_datasets.py) the criteria skip with an explicit reason
rather than silently passing.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from genflow import (
    Dataset,
    FlowConfig,
    combine_level_metrics,
    load_dataset,
    make_interleaved_folds,
    mutual_information,
    randomized_recall,
    run_flow,
    stratified_split,
)
from genflow.metrics import ConfusionCounts, averaged_metrics
from genflow.models import FAMILIES
from genflow.models.lssvm import LssvmModel
from genflow.models.neural import nn_grad
from genflow.models.base import ModelSpec
from genflow.report import report_body
from tests.conftest import make_binary, make_imbalanced6, group_hierarchy
from tests import linear_reference as reference
from tests.linear_engine import logistic_nll_grad, softmax_nll_grad
from tests.test_flow import FAST_GRIDS, fast_config, metrics_with
from tests.test_metrics import recount_oracle
from tests.test_ranking import ds_from, joint_table_mi

DATA_DIR = Path(__file__).resolve().parents[1] / "data"

NO_DATA = ("data/{name} not found: the public source archive is not "
           "reachable from this environment; run scripts/fetch_datasets.py "
           "on a machine with network access and re-run")


def load_benchmark(name: str, label_col: str):
    path = DATA_DIR / name
    if not path.exists():
        pytest.skip(NO_DATA.format(name=name))
    return load_dataset(path, label_col)


def mean_test_accuracy(data, seeds, **config_overrides):
    accs = []
    for seed in seeds:
        report = run_flow(data, FlowConfig(seed=seed, **config_overrides))
        accs.append(report.flat.test_metrics.overall_accuracy)
    return float(np.mean(accs)), report


def test_criterion_01_wbc_accuracy():
    """End-to-end mean test accuracy >= 95.5% over 5 seeds, <= 2 min each."""
    data = load_benchmark("wbc.csv", "class")
    start = time.time()
    acc, _ = mean_test_accuracy(data, range(5))
    assert acc >= 0.955
    assert (time.time() - start) / 5 <= 120


def test_criterion_02_german_credit_accuracy():
    """End-to-end mean test accuracy >= 74% over 5 seeds, <= 5 min each."""
    data = load_benchmark("german.csv", "risk")
    start = time.time()
    acc, _ = mean_test_accuracy(data, range(5))
    assert acc >= 0.74
    assert (time.time() - start) / 5 <= 300


def test_criterion_03_telescope_accuracy_and_auc():
    """End-to-end accuracy >= 84% and AUC >= 0.90, single seed, <= 30 min.

    The thinned sweep grid is used (the CLI equivalent records
    ``grid_preset=thin`` in the report config).
    """
    data = load_benchmark("telescope.csv", "class")
    start = time.time()
    thin = {n: f.thin_grid for n, f in FAMILIES.items()}
    report = run_flow(data, FlowConfig(seed=0, grids=thin))
    assert report.flat.test_metrics.overall_accuracy >= 0.84
    assert report.flat.roc.auc >= 0.90
    assert time.time() - start <= 1800


def test_criterion_04_dimensionality_curve_shape():
    """Some k* < d matches or beats the all-features CV accuracy, and the
    emitted curves have exactly d points per ranking method."""
    data = load_benchmark("wbc.csv", "class")
    report = run_flow(data, FlowConfig(seed=0))
    dim = report.flat.dim
    d = data.n_features
    for curve in dim.curves.values():
        assert len(curve) == d
    assert any(max(curve[:-1]) >= curve[-1] for curve in dim.curves.values())
    assert dim.best_k < d or dim.cv_accuracy == pytest.approx(
        max(c[-1] for c in dim.curves.values()))


def test_criterion_05_randomized_baseline_arithmetic():
    """10,967 majority of 15,945 -> recall 0.68780 +/- 0.00005, exactly."""
    value = randomized_recall([4978, 10967])
    assert value == pytest.approx(0.68780, abs=0.00005)
    assert value == 10967 / 15945


def test_criterion_06_hierarchy_combiner_published_values():
    """The five printed per-level metric triples combine to macro
    precision 0.880 +/- 0.001, recall 0.823 +/- 0.001, accuracy
    89.84% +/- 0.2pp (the source text prints 89.72%; the 0.12pp residual
    is consistent with rounding of the unprinted per-level values)."""
    levels = [
        metrics_with(r, precision1=p, accuracy1=a)
        for a, p, r in zip(
            [0.994, 0.957, 0.853, 0.971, 0.717],
            [0.995, 0.975, 0.727, 0.976, 0.727],
            [0.998, 0.905, 0.656, 0.993, 0.562],
        )
    ]
    combined = combine_level_metrics(levels)
    assert combined["precision"] == pytest.approx(0.880, abs=0.001)
    assert combined["recall"] == pytest.approx(0.823, abs=0.001)
    assert combined["accuracy"] == pytest.approx(0.8984, abs=0.002)


def test_criterion_07_hierarchical_route_on_imbalanced_six_class():
    """A 6-class imbalanced fixture whose rare classes are only weakly
    separable flat must be routed hierarchically, with combined macro
    recall above the flat macro recall."""
    data = make_imbalanced6(seed=0)
    config = FlowConfig(
        seed=0,
        grids={"multinomial_logreg": {"l2": [1e-6]}, "logreg": {"l2": [1e-6]}},
        candidate_families=("multinomial_logreg", "logreg"),
        ranking_methods=("fisher",),
        hierarchy=group_hierarchy(),
    )
    report = run_flow(data, config)
    flat_recall = report.flat.cv_metrics.macro_recall
    assert flat_recall < report.baseline
    assert report.route == "multiclass_hierarchical"
    assert report.combined_cv["recall"] > flat_recall
    assert report.combined is not None


def test_criterion_08_oracle_equivalences():
    """Mutual information matches a brute-force joint-table computation
    within 1e-10; micro/macro metrics match an independent per-class
    recount on 100 random confusion matrices within 1e-12."""
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 200))
        bins = int(rng.integers(2, 5))
        X = rng.normal(size=(n, 2))
        y = (rng.random(n) < 0.4).astype(int)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        r = mutual_information(ds_from(X, y), bin_count=bins)
        for col in range(2):
            assert r.scores[col] == pytest.approx(
                joint_table_mi(X[:, col], y, bins), abs=1e-10)

    rng = np.random.default_rng(1234)
    for _ in range(100):
        mat = rng.integers(0, 25, size=(4, 4))
        if mat.sum() == 0:
            mat[0, 0] = 1
        m = averaged_metrics(ConfusionCounts(mat))
        prec, rec, acc, micro, macro = recount_oracle(mat)
        assert np.allclose(m.precision, prec, atol=1e-12)
        assert np.allclose(m.recall, rec, atol=1e-12)
        assert np.allclose(m.accuracy, acc, atol=1e-12)
        assert np.allclose(
            [m.micro_precision, m.micro_recall, m.micro_accuracy], micro,
            atol=1e-12)
        assert np.allclose(
            [m.macro_precision, m.macro_recall, m.macro_accuracy], macro,
            atol=1e-12)


def central_diff(f, w, h=1e-6):
    g = np.zeros_like(w, dtype=float)
    flat = g.reshape(-1)
    wf = w.reshape(-1)
    for i in range(wf.size):
        step = h * max(1.0, abs(wf[i]))
        orig = wf[i]
        wf[i] = orig + step
        hi = f()
        wf[i] = orig - step
        lo = f()
        wf[i] = orig
        flat[i] = (hi - lo) / (2 * step)
    return g


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-12)


def test_criterion_09_numerical_checks():
    """Analytic gradients match central finite differences (logistic and
    multinomial within 1e-5 relative, neural net within 1e-4 relative,
    20 random instances each); LS-SVM dual residual <= 1e-8 relative."""
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(5, 20)), int(rng.integers(1, 4))
        X = rng.normal(size=(n, d))
        y = (rng.random(n) < 0.5).astype(int)
        w = rng.normal(size=d + 1)
        _, g = logistic_nll_grad(w, X, y, l2=0.1)
        num = central_diff(lambda: logistic_nll_grad(w, X, y, 0.1)[0], w)
        assert rel_err(g, num) < 1e-5

        C = int(rng.integers(2, 5))
        yc = rng.integers(0, C, size=n)
        B = rng.normal(size=(C, d + 1))
        _, gB = softmax_nll_grad(B, X, yc, l2=0.1)
        num = central_diff(lambda: softmax_nll_grad(B, X, yc, 0.1)[0], B)
        assert rel_err(gB, num) < 1e-5

    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        n, d, h_nodes = int(rng.integers(5, 15)), 2, 3
        C = 2 if seed % 2 == 0 else 3
        X = rng.normal(size=(n, d))
        y = rng.integers(0, C, size=n)
        out_cols = 1 if C == 2 else C
        W1 = rng.normal(scale=0.5, size=(d, h_nodes))
        b1 = rng.normal(scale=0.5, size=h_nodes)
        W2 = rng.normal(scale=0.5, size=(h_nodes, out_cols))
        b2 = rng.normal(scale=0.5, size=out_cols)
        gW1, gb1, gW2, gb2 = nn_grad(W1, b1, W2, b2, X, y, C)
        for param, grad in ((W1, gW1), (b1, gb1), (W2, gW2), (b2, gb2)):
            num = central_diff(
                lambda: reference.nn_loss_grad(W1, b1, W2, b2, X, y)[0], param)
            assert rel_err(grad, num) < 1e-4

    ds = make_binary(n=60, sep=1.5, seed=0)
    model = LssvmModel.fit(
        ModelSpec("lssvm", {"lambda": 1e-4, "kernel_gamma": 0.5}), ds)
    assert model.system_residual(ds) <= 1e-8


def test_criterion_10_structural_properties():
    """Fold partition exactness, split partition/stratification,
    no-leakage decision trail, and same-seed determinism."""
    ds = make_binary(n=137, sep=1.2, seed=13)

    plan = make_interleaved_folds(ds, 5, seed=3)
    seen = np.zeros(ds.n_samples, dtype=int)
    for fit_rows, val_rows in plan.folds():
        assert np.intersect1d(fit_rows, val_rows).size == 0
        seen[val_rows] += 1
    assert (seen == 1).all()

    split = stratified_split(ds, 0.30, seed=3)
    union = np.sort(np.concatenate([split.train_index, split.test_index]))
    assert np.array_equal(union, np.arange(ds.n_samples))
    for c, size in enumerate(ds.class_counts()):
        got = int((split.train.labels == c).sum())
        assert abs(got - 0.30 * size) <= 0.5

    tampered_X = ds.features.copy()
    noise_split = stratified_split(ds, 0.30, seed=0)
    tampered_X[noise_split.test_index] = np.random.default_rng(7).normal(
        size=(noise_split.test.n_samples, ds.n_features))
    tampered = Dataset(tampered_X, ds.labels, ds.feature_names,
                       ds.class_names, ds.source_id)
    a = run_flow(ds, fast_config())
    b = run_flow(tampered, fast_config())
    assert a.decision_trail == b.decision_trail

    c = run_flow(ds, fast_config())
    assert report_body(a) == report_body(c)
