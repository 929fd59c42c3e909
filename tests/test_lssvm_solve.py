"""The LS-SVM fit solves its dual, as ridge regression on the +-1 labels,
by an up-looking Cholesky of the packed K + lam I.  It must give the
factor ``np.linalg.cholesky`` gives, coef = alpha * y and the bias of the
dense bordered solve in ``tests/lssvm_reference.py`` and decision values of
the same sign, across the block edges; it must keep the bits of the signed
packed fit and of the fit with separate block inverses that it replaced;
scoring by row chunks must match the whole kernel;
a matrix that is not positive definite is a typed fit failure."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genflow.cli import main
from genflow.models import ModelSpec, lssvm
from genflow.models.lssvm import (BLOCK, ROW_BLOCK, LssvmModel, _dual_coefficients,
                                  _kernel_times, _packed_system, rbf_kernel)
from tests import lssvm_reference as ref
from tests.test_lssvm_builder import dual_inputs, lower_triangle, same_bits
from tests.test_report_cli import write_toy_csv


def check_against_oracle(X, y, Q, gamma, lam):
    A, rhs = ref._dual_system(X, y, gamma, lam)
    H = A[1:, 1:] * np.outer(y, y)  # K + lam I: Omega + lam I with its signs undone
    coef, bias = _dual_coefficients(_packed_system(X, gamma, lam), y)
    rows = _packed_system(X, gamma, lam)
    ref.factor_in_place(rows)
    L = lower_triangle(rows)
    # L L' reproduces H at every lam.  At lam = 1e-6 with duplicated wide
    # rows H is nearly singular: over 300 random draws the error reached
    # 3.6e-11 relative, in a single diagonal block, so from
    # np.linalg.cholesky itself (the square factor gave the same).
    assert np.abs(L @ L.T - H).max() <= 1e-10 * np.abs(H).max()

    sol = ref.solve_dual(A, rhs)
    if lam == 1e-2:  # cond(H) <= (n + lam) / lam, so forward errors stay small
        L_ref = np.linalg.cholesky(H)
        assert np.abs(L - L_ref).max() <= 1e-10 * np.abs(L_ref).max()
        scale = np.abs(sol).max()
        np.testing.assert_allclose(coef, sol[1:] * y, rtol=1e-8, atol=1e-8 * scale)
        np.testing.assert_allclose(bias, sol[0], rtol=1e-8, atol=1e-8 * scale)

    K = rbf_kernel(Q, X, gamma)
    f_ref = K @ (sol[1:] * y) + sol[0]
    f = K @ coef + bias
    decided = np.abs(f_ref) > 1e-6
    assert (np.sign(f[decided]) == np.sign(f_ref[decided])).all()


class TestBlockedCholesky:
    @settings(max_examples=120, deadline=None)
    @given(inputs=dual_inputs(), gamma=st.sampled_from([1e-3, 0.1, 1.0, 10.0]),
           lam=st.sampled_from([1e-6, 1e-2]))
    def test_matches_dense_oracle(self, inputs, gamma, lam):
        check_against_oracle(*inputs, gamma, lam)

    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    @pytest.mark.parametrize("lam", [1e-6, 1e-2])
    def test_block_edges(self, n, lam):
        rng = np.random.default_rng(n)
        X = rng.normal(size=(n, 5))
        y = np.where(rng.random(n) < 0.4, -1.0, 1.0)
        check_against_oracle(X, y, rng.normal(size=(50, 5)), 0.2, lam)

    @pytest.mark.parametrize("n", [1, BLOCK + 3])
    def test_not_positive_definite_raises(self, n):
        rng = np.random.default_rng(5)
        rows = _packed_system(rng.normal(size=(n, 3)), 0.5, -2.0 * n)
        with pytest.raises(np.linalg.LinAlgError):
            _dual_coefficients(rows, np.ones(n))


def check_signed_bits(X, y, Q, gamma, lam):
    """coef, bias and decision values hex-equal to the signed packed fit's
    alpha * y, bias and decision values.  ``+ 0.0`` maps -0.0 to +0.0: only
    the sign of an exact zero may differ, and no prediction sees it."""
    coef, bias = _dual_coefficients(_packed_system(X, gamma, lam), y)
    alpha, bias_ref = ref.signed_dual_coefficients(ref.signed_packed_system(X, y, gamma, lam), y)
    assert same_bits(coef + 0.0, alpha * y + 0.0)
    assert bias.hex() == bias_ref.hex()
    d = X.shape[1]
    model = LssvmModel(ModelSpec("lssvm", {"kernel_gamma": gamma}), (), ("neg", "pos"),
                       X, coef, bias, np.zeros(d), np.ones(d))
    f_ref = _kernel_times(Q, X, gamma, alpha * y) + bias_ref
    assert same_bits(model.decision_values(Q) + 0.0, f_ref + 0.0)


class TestSignedOracleBits:
    @settings(max_examples=120, deadline=None)
    @given(inputs=dual_inputs(), gamma=st.sampled_from([1e-3, 0.1, 1.0, 10.0]),
           lam=st.sampled_from([1e-6, 1e-2]))
    def test_matches_signed_fit(self, inputs, gamma, lam):
        check_signed_bits(*inputs, gamma, lam)

    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    @pytest.mark.parametrize("lam", [1e-6, 1e-2])
    def test_block_edges(self, n, lam):
        rng = np.random.default_rng(n)
        X = rng.normal(size=(n, 5))
        y = np.where(rng.random(n) < 0.4, -1.0, 1.0)
        check_signed_bits(X, y, rng.normal(size=(50, 5)), 0.2, lam)


def check_reference_bits(X, y, Q, gamma, lam):
    """The factored rows are the reference factor's with each diagonal block
    replaced by its inverse, coef and bias are hex-equal to the reference
    fit's, and decision values are within rtol 1e-12 of its ``BLOCK``-row
    scoring, with the same sign wherever |f| > 1e-9."""
    rows = _packed_system(X, gamma, lam)
    coef, bias = _dual_coefficients(rows, y)
    ref_rows = _packed_system(X, gamma, lam)
    inverses = ref.factor_in_place(ref_rows)
    coef_ref, bias_ref = ref.dual_coefficients(ref_rows, inverses, y)
    assert same_bits(coef, coef_ref)
    assert bias.hex() == bias_ref.hex()
    for R, inv in zip(ref_rows, inverses):
        R[:, R.shape[1] - len(inv):] = inv
    assert all(same_bits(R, R_ref) for R, R_ref in zip(rows, ref_rows))
    d = X.shape[1]
    model = LssvmModel(ModelSpec("lssvm", {"kernel_gamma": gamma}), (), ("neg", "pos"),
                       X, coef, bias, np.zeros(d), np.ones(d))
    f = model.decision_values(Q)
    f_ref = ref.kernel_times(Q, X, gamma, coef_ref) + bias_ref
    scale = np.abs(coef).sum() + abs(bias)
    np.testing.assert_allclose(f, f_ref, rtol=1e-12, atol=1e-12 * scale)
    decided = np.abs(f_ref) > 1e-9
    assert (np.sign(f[decided]) == np.sign(f_ref[decided])).all()


class TestInPlaceInverseBits:
    @settings(max_examples=120, deadline=None)
    @given(inputs=dual_inputs(), gamma=st.sampled_from([1e-3, 0.1, 1.0, 10.0]),
           lam=st.sampled_from([1e-6, 1e-2]))
    def test_matches_reference_fit(self, inputs, gamma, lam):
        check_reference_bits(*inputs, gamma, lam)

    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    @pytest.mark.parametrize("lam", [1e-6, 1e-2])
    def test_block_edges(self, n, lam):
        rng = np.random.default_rng(n)
        X = rng.normal(size=(n, 5))
        y = np.where(rng.random(n) < 0.4, -1.0, 1.0)
        # more query rows than one reference chunk, so both chunkings split
        check_reference_bits(X, y, rng.normal(size=(BLOCK + 45, 5)), 0.2, lam)


class TestStreamedScoring:
    @settings(max_examples=60, deadline=None)
    @given(inputs=dual_inputs(), gamma=st.sampled_from([1e-3, 0.1, 1.0, 10.0]),
           m=st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 1]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_the_whole_kernel(self, inputs, gamma, m, seed):
        X, _, _ = inputs
        n, d = X.shape
        rng = np.random.default_rng(seed)
        coef, bias = rng.normal(size=n), float(rng.normal())
        Q = X[rng.integers(0, n, size=m)] + rng.normal(size=(m, d)) * rng.random((m, 1))
        model = LssvmModel(ModelSpec("lssvm", {"kernel_gamma": gamma}), (), ("neg", "pos"),
                           X, coef, bias, np.zeros(d), np.ones(d))
        f = model.decision_values(Q)
        f_whole = rbf_kernel(Q, X, gamma) @ coef + bias
        scale = np.abs(coef).sum() + abs(bias)
        np.testing.assert_allclose(f, f_whole, rtol=1e-12, atol=1e-12 * scale)
        decided = np.abs(f_whole) > 1e-9
        assert (np.sign(f[decided]) == np.sign(f_whole[decided])).all()

    @settings(max_examples=60, deadline=None)
    @given(inputs=dual_inputs(), gamma=st.sampled_from([1e-3, 0.1, 1.0, 10.0]))
    def test_chunks_keep_the_kernel_bits(self, inputs, gamma):
        # The support's squared norms, summed once, are the kernel's own.
        # A lone last row is scored with the row before it.
        X, _, Q = inputs
        w = np.random.default_rng(len(X)).normal(size=len(X))
        cuts = list(range(0, len(Q), ROW_BLOCK)) + [len(Q)]
        if len(Q) > 1 and len(Q) % ROW_BLOCK == 1:
            cuts[-2] -= 1
        f = [rbf_kernel(Q[i:j], X, gamma) @ w for i, j in zip(cuts, cuts[1:])]
        assert same_bits(_kernel_times(Q, X, gamma, w), np.concatenate(f))


def test_failed_factor_is_a_failed_grid_point(tmp_path, monkeypatch):
    real = lssvm._packed_system
    monkeypatch.setattr(lssvm, "_packed_system",
                        lambda Xs, gamma, lam: real(Xs, gamma, -1e3))
    data = write_toy_csv(tmp_path / "toy.csv")
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="lssvm grid point .* fit failed"):
        code = main(["--data", str(data), "--label-col", "label", "--grid-preset", "thin",
                     "--families", "lssvm,logreg", "--rankers", "fisher",
                     "--out", str(out)])
    assert code == 0
    flat = json.loads((out / "report.json").read_text())["flat"]
    board = {row["family"]: row for row in flat["leaderboard"]}
    assert [row["note"][:10] for row in board["lssvm"]["table"]] == ["fit failed"]
    assert flat["winner"]["family"] == "logreg"
