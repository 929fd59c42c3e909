"""The LS-SVM dual system and RBF kernel are built in place: the same bits
as the reference builders in ``tests/lssvm_reference.py`` with half the
live n x n buffers, and a run whose LS-SVM would not fit in memory is
refused before any fit."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genflow import DataError, FlowConfig, HierarchyLevel, HierarchySpec, flow, run_flow
from genflow.cli import main
from genflow.models.lssvm import ROW_BLOCK, _dual_system, peak_bytes, rbf_kernel
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


class TestInPlaceBuild:
    @settings(max_examples=120, deadline=None)
    @given(inputs=dual_inputs(), gamma=st.sampled_from([1e-3, 0.1, 1.0, 10.0]),
           lam=st.sampled_from([1e-6, 1e-2]))
    def test_matches_reference_bits(self, inputs, gamma, lam):
        X, y, Q = inputs
        A, rhs = _dual_system(X, y, gamma, lam)
        A_ref, rhs_ref = ref._dual_system(X, y, gamma, lam)
        assert same_bits(A, A_ref)
        assert same_bits(rhs, rhs_ref)
        assert same_bits(np.linalg.solve(A, rhs), np.linalg.solve(A_ref, rhs_ref))
        assert same_bits(rbf_kernel(Q, X, gamma), ref.rbf_kernel(Q, X, gamma))

    def test_signed_zeros_cleared(self):
        # Far rows give K = 0.0; y_i y_j = -1 would make it -0.0 in Omega.
        X = np.array([[0.0], [100.0]])
        A, _ = _dual_system(X, np.array([1.0, -1.0]), 10.0, 1e-6)
        assert A[1, 2] == 0.0 and np.signbit(A[1:, 1:]).sum() == 0

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
        # the dual system's strided [1:, 1:] block, or an offset view
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


class TestPeakMemory:
    def test_dual_system_two_matrices(self):
        n = 1500
        rng = np.random.default_rng(1)
        X = rng.normal(size=(n, 10))
        y = np.where(rng.random(n) < 0.4, -1.0, 1.0)
        assert traced_peak(_dual_system, X, y, 0.1, 1e-6) <= 2.1 * (n + 1) ** 2 * 8

    def test_kernel_two_buffers(self):
        m, n = 3000, 1500
        rng = np.random.default_rng(2)
        Q, X = rng.normal(size=(m, 10)), rng.normal(size=(n, 10))
        assert traced_peak(rbf_kernel, Q, X, 0.1) <= 2.1 * m * n * 8

    def test_dual_system_one_matrix(self):
        n = 1500
        rng = np.random.default_rng(1)
        X = rng.normal(size=(n, 10))
        y = np.where(rng.random(n) < 0.4, -1.0, 1.0)
        assert traced_peak(_dual_system, X, y, 0.1, 1e-6) <= 1.1 * (n + 1) ** 2 * 8

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

    def test_bound_is_the_refit_or_the_test_kernel(self, monkeypatch):
        n_train, n_test = 5706, 13314  # the telescope split: the test kernel dominates
        estimate = 8 * (n_test * n_train + ROW_BLOCK * n_train)
        assert peak_bytes(n_train, n_test) == estimate
        assert peak_bytes(n_train, 10) == 8 * ((n_train + 1) ** 2 + ROW_BLOCK * n_train)
        config = FlowConfig(candidate_families=("lssvm",))
        monkeypatch.setattr(flow, "physical_memory_bytes", lambda: estimate)
        flow._refuse_oversized_kernel(config, "binary", n_train, n_test)
        monkeypatch.setattr(flow, "physical_memory_bytes", lambda: estimate - 1)
        with pytest.raises(DataError):
            flow._refuse_oversized_kernel(config, "binary", n_train, n_test)
