"""The LS-SVM system K + lam I is built packed, as block rows of its lower
triangle in one buffer: each block row has the bits of ``rbf_kernel`` on
its own row block, and the whole triangle stays within a stated rounding
bound of the dense reference kernel in ``tests/lssvm_reference.py``.  A
fit holds no square system and scoring no whole kernel, and a run whose
LS-SVM would not fit in memory is refused before any fit."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genflow import DataError, Dataset, FlowConfig, HierarchyLevel, HierarchySpec, flow, run_flow
from genflow.cli import main
from genflow.models import ModelSpec, fit_model, lssvm
from genflow.models.lssvm import (BLOCK, ROW_BLOCK, LssvmModel, _packed_system, _packed_words,
                                  peak_bytes, rbf_kernel)
from tests import lssvm_reference as ref
from tests.conftest import make_binary, make_multiclass
from tests.test_evaluation_paths import forbid_fits
from tests.test_report_cli import write_toy_csv


def same_bits(a, b):
    """Float-hex equality of whole arrays: -0.0 differs from 0.0."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def dual_inputs(draw):
    n = draw(st.integers(1, 400))
    d = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Wide scales drive far kernel entries to 0.0, which Omega signs.
    X = rng.normal(size=(n, d)) * draw(st.sampled_from([0.1, 1.0, 30.0]))
    if draw(st.booleans()) and n > 1:  # duplicated rows
        X[rng.integers(0, n, size=n // 2)] = X[rng.integers(0, n, size=n // 2)]
    if draw(st.booleans()):  # a constant column
        X[:, rng.integers(0, d)] = draw(st.sampled_from([0.0, 3.5]))
    side = draw(st.sampled_from(["mixed", "positive", "negative"]))
    y = {"mixed": np.where(rng.random(n) < 0.5, -1.0, 1.0),
         "positive": np.ones(n), "negative": -np.ones(n)}[side]
    Q = rng.normal(size=(draw(st.integers(1, 60)), d))
    return X, y, Q


def lower_triangle(rows):
    """The dense n x n lower triangle that the block rows hold, with zeros
    above the diagonal."""
    n = rows[-1].shape[1]
    H = np.zeros((n, n))
    for R in rows:
        b, j = R.shape
        H[j - b:j, :j] = R
    return np.tril(H)


def block_row(X, gamma, lam, i, j):
    """Rows i:j, columns 0:j of K + lam I from ``rbf_kernel`` on the row block."""
    R = rbf_kernel(X[i:j], X[:j], gamma)
    R[:, i:] += lam * np.eye(j - i)
    return R


class TestInPlaceBuild:
    @settings(max_examples=120, deadline=None)
    @given(inputs=dual_inputs(), gamma=st.sampled_from([1e-3, 0.1, 1.0, 10.0]),
           lam=st.sampled_from([1e-6, 1e-2]))
    def test_matches_reference_bits(self, inputs, gamma, lam):
        X, _, Q = inputs
        rows = _packed_system(X, gamma, lam)
        assert [R.shape for R in rows] == [(min(i + BLOCK, len(X)) - i, min(i + BLOCK, len(X)))
                                           for i in range(0, len(X), BLOCK)]
        for R in rows:
            b, j = R.shape
            assert same_bits(R, block_row(X, gamma, lam, j - b, j))
        assert same_bits(rbf_kernel(Q, X, gamma), ref.rbf_kernel(Q, X, gamma))

    @settings(max_examples=120, deadline=None)
    @given(inputs=dual_inputs(), gamma=st.sampled_from([1e-3, 0.1, 1.0, 10.0]),
           lam=st.sampled_from([1e-6, 1e-2]))
    def test_lower_triangle_near_reference(self, inputs, gamma, lam):
        # A block row's GEMM X[i:j] @ X[:j]' may round differently from the
        # whole X @ X'.  Each product 2 a.b then moves by at most
        # d eps (|a|^2 + |b|^2), so K moves by a factor of at most
        # exp(gamma d eps (|a|^2 + |b|^2)); exp and the lam sum add an ulp each.
        X, _, _ = inputs
        H = lower_triangle(_packed_system(X, gamma, lam))
        H_ref = np.tril(ref.rbf_kernel(X, X, gamma) + lam * np.eye(len(X)))
        norms = np.sum(X * X, axis=1)
        drift = np.expm1(gamma * X.shape[1] * np.finfo(float).eps
                         * (norms[:, None] + norms[None, :]))
        bound = np.abs(H_ref) * drift + 4 * np.spacing(np.abs(H_ref))
        assert (np.abs(H - H_ref) <= bound).all()
        assert not (np.signbit(H) & (H == 0)).any()

    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    def test_block_rows_share_one_buffer(self, n):
        rows = _packed_system(np.random.default_rng(n).normal(size=(n, 3)), 0.5, 1e-3)
        base = rows[0].base
        assert all(R.base is base and R.flags.c_contiguous for R in rows)
        assert sum(R.size for R in rows) == base.size
        assert base.size <= n * (n + BLOCK) // 2 + BLOCK * BLOCK

    def test_signed_zeros_cleared(self):
        # Far rows give K = 0.0, and no label sign can make it -0.0.
        X = np.array([[0.0], [100.0]])
        (R,) = _packed_system(X, 10.0, 1e-6)
        assert R[1, 0] == 0.0 and np.signbit(R).sum() == 0

    def test_out_is_filled_and_returned(self):
        rng = np.random.default_rng(0)
        A, B = rng.normal(size=(7, 3)), rng.normal(size=(5, 3))
        out = np.full((9, 9), np.nan)
        K = rbf_kernel(A, B, 0.5, out=out[2:, 4:])
        assert np.shares_memory(K, out)
        assert same_bits(out[2:, 4:], ref.rbf_kernel(A, B, 0.5))
        assert np.isnan(out[:2]).all() and np.isnan(out[:, :4]).all()

    @pytest.mark.parametrize("m", [1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1,
                                   2 * ROW_BLOCK + 1])
    @pytest.mark.parametrize("n", [1, 2, 40])
    @pytest.mark.parametrize("layout", ["new", "bordered", "offset"])
    def test_row_block_edges(self, m, n, layout):
        rng = np.random.default_rng(m * 100 + n)
        A, B = rng.normal(size=(m, 4)), rng.normal(size=(n, 4)) * 2.0
        expected = ref.rbf_kernel(A, B, 0.3)
        if layout == "new":
            assert same_bits(rbf_kernel(A, B, 0.3), expected)
            return
        # the strided [1:, 1:] block of a bordered buffer, or an offset view
        buf = np.full((m + 1, n + 1) if layout == "bordered" else (m + 5, n + 7), np.nan)
        out = buf[1:, 1:] if layout == "bordered" else buf[2:m + 2, 4:n + 4]
        K = rbf_kernel(A, B, 0.3, out=out)
        assert np.shares_memory(K, buf)
        assert same_bits(out, expected)
        assert np.isnan(buf).sum() == buf.size - m * n


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def traced_fit_peak(n, lanes, monkeypatch):
    monkeypatch.setattr(lssvm, "_lane_count", lambda block_rows: lanes)
    rng = np.random.default_rng(1)
    ds = Dataset(rng.normal(size=(n, 10)), (rng.random(n) < 0.4).astype(int),
                 tuple(f"f{i}" for i in range(10)), ("neg", "pos"))
    return traced_peak(fit_model, ModelSpec("lssvm", {"lambda": 1e-6, "kernel_gamma": 0.1}), ds)


class TestPeakMemory:
    def test_kernel_two_buffers(self):
        m, n = 3000, 1500
        rng = np.random.default_rng(2)
        Q, X = rng.normal(size=(m, 10)), rng.normal(size=(n, 10))
        assert traced_peak(rbf_kernel, Q, X, 0.1) <= 2.1 * m * n * 8

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_fit_within_peak_bytes(self, monkeypatch, lanes):
        assert traced_fit_peak(1500, lanes, monkeypatch) <= peak_bytes(1500)

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_fit_allocates_no_block_row_temporary(self, monkeypatch, lanes):
        # The diagonal blocks' inverses take their blocks' place, so nothing
        # held beside the packed system is as large as BLOCK x n.
        n = 1500
        assert traced_fit_peak(n, lanes, monkeypatch) - 8 * _packed_words(n) < 8 * BLOCK * n

    def test_scoring_peak_independent_of_m(self):
        n, d = 1500, 10
        rng = np.random.default_rng(4)
        model = LssvmModel(ModelSpec("lssvm", {"kernel_gamma": 0.1}), (), ("neg", "pos"),
                           rng.normal(size=(n, d)), rng.normal(size=n), 0.5,
                           np.zeros(d), np.ones(d))
        Q = rng.normal(size=(3000, d))
        small = traced_peak(model.decision_values, Q[:BLOCK + 1])
        large = traced_peak(model.decision_values, Q)
        # only the m x d standardized rows, its temporary and the m values grow
        assert large - small <= 8 * (len(Q) - BLOCK - 1) * (2 * d + 1)
        assert large <= 8 * (2 * ROW_BLOCK * n + len(Q) * (2 * d + 1)) + (1 << 16)

    def test_kernel_one_buffer(self):
        m, n = 3000, 1500
        rng = np.random.default_rng(2)
        Q, X = rng.normal(size=(m, 10)), rng.normal(size=(n, 10))
        assert traced_peak(rbf_kernel, Q, X, 0.1) <= 1.1 * m * n * 8

    def test_kernel_into_out_allocates_no_product(self):
        # A NumPy that copied a strided ``out`` would allocate an m x n temporary.
        m, n = 3000, 1500
        rng = np.random.default_rng(3)
        Q, X = rng.normal(size=(m, 10)), rng.normal(size=(n, 10))
        out = np.empty((m + 1, n + 1))[1:, 1:]
        assert traced_peak(rbf_kernel, Q, X, 0.1, out) < 0.1 * m * n * 8


class TestOversizedKernelRefused:
    def test_cli_exit_2_before_any_fit(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(flow, "physical_memory_bytes", lambda: 1 << 18)
        forbid_fits(monkeypatch)
        data = write_toy_csv(tmp_path / "toy.csv", n=600)
        code = main(["--data", str(data), "--label-col", "label", "--grid-preset", "thin",
                     "--families", "lssvm,logreg", "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "lssvm/ova_svm" in err and "--train-fraction" in err
        assert not (tmp_path / "out").exists()

    def test_run_without_lssvm_proceeds(self, tmp_path, monkeypatch):
        monkeypatch.setattr(flow, "physical_memory_bytes", lambda: 1 << 18)
        data = write_toy_csv(tmp_path / "toy.csv", n=600)
        code = main(["--data", str(data), "--label-col", "label", "--grid-preset", "thin",
                     "--families", "logreg", "--rankers", "fisher",
                     "--out", str(tmp_path / "out")])
        assert code == 0

    @pytest.mark.parametrize("data, families, hierarchy", [
        (make_binary(n=600, seed=1), ("lssvm",), None),
        (make_multiclass(n=600, seed=1), ("ova_svm",), None),
        # lssvm applies only to the hierarchy's binary levels
        (make_multiclass(n=600, seed=1), ("multinomial_logreg", "lssvm"),
         HierarchySpec((HierarchyLevel("top", (0,), (1, 2)),))),
    ])
    def test_kernel_families_refused_on_every_route(self, monkeypatch, data, families,
                                                    hierarchy):
        monkeypatch.setattr(flow, "physical_memory_bytes", lambda: 1 << 18)
        forbid_fits(monkeypatch)
        with pytest.raises(DataError, match="physical memory"):
            run_flow(data, FlowConfig(candidate_families=families, hierarchy=hierarchy))

    @pytest.mark.parametrize("n_train, gib", [(5706, 0.13), (13314, 0.68)])
    def test_bound_is_the_packed_refit(self, monkeypatch, n_train, gib):
        # the telescope split at the default --train-fraction 0.3 and at 0.7
        blocks = [(i, min(i + BLOCK, n_train)) for i in range(0, n_train, BLOCK)]
        estimate = 8 * (sum((j - i) * j for i, j in blocks) + ROW_BLOCK * n_train
                        + 4 * BLOCK * BLOCK)
        assert peak_bytes(n_train) == estimate
        assert round(estimate / 2**30, 2) == gib
        config = FlowConfig(candidate_families=("lssvm",))
        monkeypatch.setattr(flow, "physical_memory_bytes", lambda: estimate)
        flow._refuse_oversized(config, "binary", n_train, 2)
        monkeypatch.setattr(flow, "physical_memory_bytes", lambda: estimate - 1)
        with pytest.raises(DataError, match=f"{gib:.2f} GiB to fit {n_train} training rows"):
            flow._refuse_oversized(config, "binary", n_train, 2)

    def test_paper_split_refused_before_any_fit(self, monkeypatch):
        # MAGIC Telescope's 12332 / 6688 classes at --train-fraction 0.7
        labels = np.repeat([0, 1], [12332, 6688])
        data = Dataset(np.random.default_rng(0).normal(size=(len(labels), 10)), labels,
                       tuple(f"f{i}" for i in range(10)), ("g", "h"))
        monkeypatch.setattr(flow, "physical_memory_bytes", lambda: peak_bytes(13314) - 1)
        forbid_fits(monkeypatch)
        with pytest.raises(DataError, match="0.68 GiB to fit 13314 training rows"):
            run_flow(data, FlowConfig(candidate_families=("lssvm",), train_fraction=0.7))
