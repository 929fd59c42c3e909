"""The LS-SVM fit solves its dual, as ridge regression on the +-1 labels,
by an up-looking Cholesky of the packed K + lam I.  It must give the
factor ``np.linalg.cholesky`` gives, coef = alpha * y and the bias of the
dense bordered solve in ``tests/lssvm_reference.py`` and decision values of
the same sign, across the block edges; it must keep the bits of the signed
packed fit and of the fit with separate block inverses that it replaced;
scoring by row chunks must match the whole kernel;
a matrix that is not positive definite is a typed fit failure.  The factor
on two lanes must keep the bits of one lane, and a failure in either lane
must reach the caller with no thread left behind."""

import json
import os
import sys
import threading
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from genflow.cli import main
from genflow.dataset import Dataset
from genflow.models import ModelSpec, fit_model, lssvm
from genflow.models.lssvm import (BLOCK, ROW_BLOCK, LssvmModel, _dual_coefficients,
                                  _factor_in_place, _kernel_times, _lane_count, _packed_system,
                                  _solve_in_place, rbf_kernel)
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


def seeded_inputs(n, d, q, seed, scale=1.0):
    """Inputs shaped like ``dual_inputs`` from one seed: n support rows
    scaled by ``scale`` and q query rows, each of d features."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * scale
    return X, np.ones(n), rng.normal(size=(q, d))


class TestStreamedScoring:
    # The explicit examples are lone-row cases: with one support row and
    # gamma = 10, a one-row last chunk, or a 31-row chunk before a two-row
    # one, moves these decision values over the bound or off the bits of
    # the reference chunks (on an x86-64 OpenBLAS).
    @settings(max_examples=60, deadline=None)
    @given(inputs=dual_inputs(), gamma=st.sampled_from([1e-3, 0.1, 1.0, 10.0]),
           m=st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 1]),
           seed=st.integers(0, 2**32 - 1))
    @example(inputs=seeded_inputs(1, 9, 1, seed=1009, scale=30.0), gamma=10.0,
             m=2 * BLOCK + 1, seed=17)
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

    @pytest.mark.parametrize("m", [ROW_BLOCK + 1, 8 * ROW_BLOCK + 1])
    def test_one_support_row_and_a_lone_last_row(self, m):
        # With one support row every product is a GEMV, whose sums depend on
        # a row's place in it, and wide rows with gamma = 10 amplify that.
        rng = np.random.default_rng(0)
        X = rng.normal(size=(1, 9)) * 30.0
        w = rng.normal(size=1)
        Q = X[np.zeros(m, dtype=int)] + rng.normal(size=(m, 9)) * rng.random((m, 1))
        np.testing.assert_allclose(_kernel_times(Q, X, 10.0, w), rbf_kernel(Q, X, 10.0) @ w,
                                   rtol=1e-12, atol=1e-12 * np.abs(w).sum())

    @settings(max_examples=60, deadline=None)
    @given(inputs=dual_inputs(), gamma=st.sampled_from([1e-3, 0.1, 1.0, 10.0]))
    @example(inputs=seeded_inputs(1, 9, 1, seed=1009, scale=30.0), gamma=10.0)
    @example(inputs=seeded_inputs(1, 9, ROW_BLOCK + 1, seed=22), gamma=10.0)
    @example(inputs=seeded_inputs(1, 9, 2 * ROW_BLOCK + 1, seed=16), gamma=10.0)
    def test_chunks_keep_the_kernel_bits(self, inputs, gamma):
        # The support's squared norms, summed once, are the kernel's own.
        # A lone last row joins the chunk before it.
        X, _, Q = inputs
        w = np.random.default_rng(len(X)).normal(size=len(X))
        cuts = list(range(0, len(Q), ROW_BLOCK)) + [len(Q)]
        if len(Q) > 1 and len(Q) % ROW_BLOCK == 1:
            del cuts[-2]
        f = [rbf_kernel(Q[i:j], X, gamma) @ w for i, j in zip(cuts, cuts[1:])]
        assert same_bits(_kernel_times(Q, X, gamma, w), np.concatenate(f))


@contextmanager
def lanes_forced(lanes):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lssvm, "_lane_count", lambda block_rows: lanes)
        yield


class TestFactorLanes:
    @settings(max_examples=40, deadline=None)
    @given(n=st.one_of(st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1,
                                        2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 1]),
                       st.integers(2, 1300)),
           gamma=st.sampled_from([0.01, 0.1, 1.0]), lam=st.sampled_from([1e-6, 1e-3, 1e-1]),
           seed=st.integers(0, 2**32 - 1))
    def test_two_lanes_keep_the_bits_of_one(self, n, gamma, lam, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 6)) * rng.choice([0.1, 1.0, 30.0])
        y = np.where(rng.random(n) < 0.4, -1.0, 1.0)
        rhs = np.column_stack([np.ones(n), y])
        factors, solutions = [], []
        for lanes in (1, 2):
            rows = _packed_system(X, gamma, lam)
            with lanes_forced(lanes):
                _factor_in_place(rows)
            factors.append(rows)
            solutions.append(_solve_in_place(rows, rhs.copy()))
        assert all(same_bits(a, b) for a, b in zip(*factors))
        assert same_bits(*solutions)
        if n == 1:  # a Dataset holds at least two rows
            return
        train = Dataset(X, (y > 0).astype(int), tuple(f"f{i}" for i in range(6)),
                        ("neg", "pos"))
        spec = ModelSpec("lssvm", {"lambda": lam, "kernel_gamma": gamma})
        with lanes_forced(1):
            one = fit_model(spec, train)
        with lanes_forced(2):
            two = fit_model(spec, train)
        assert same_bits(one.coef, two.coef)
        assert one.bias.hex() == two.bias.hex()

    def test_more_lanes_than_cores_under_fast_switching(self):
        # Lanes hand block rows over through their events alone: with a
        # thread switch every microsecond, a row read before it is final
        # would change the bits.
        X = np.random.default_rng(11).normal(size=(6 * BLOCK + 7, 5))
        factors = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for lanes in (1, 4):
                rows = _packed_system(X, 0.3, 1e-6)
                with lanes_forced(lanes):
                    _factor_in_place(rows)
                factors.append(rows)
        finally:
            sys.setswitchinterval(interval)
        assert all(same_bits(a, b) for a, b in zip(*factors))

    @pytest.mark.parametrize("bad_row", [0, 1, 2, 3])  # lane 0 takes even rows, lane 1 odd
    def test_failure_in_either_lane_is_raised(self, monkeypatch, bad_row):
        n = 4 * BLOCK
        rows = _packed_system(np.random.default_rng(7).normal(size=(n, 3)), 0.5, 1e-3)
        R = rows[bad_row]
        b, j = R.shape
        R.reshape(-1)[j - b::j + 1] -= 10.0 * n  # rows above stay positive definite
        monkeypatch.setattr(lssvm, "_lane_count", lambda block_rows: 2)
        threads = threading.active_count()
        raised = []

        def factor():
            try:
                _factor_in_place(rows)
            except np.linalg.LinAlgError as exc:
                raised.append(exc)

        caller = threading.Thread(target=factor, daemon=True)  # a hang fails, not stalls, the run
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert len(raised) == 1
        assert threading.active_count() == threads


class TestLaneCount:
    @pytest.mark.parametrize("env, cpus, block_rows, lanes", [
        ({}, 2, 3, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 3, 2),
        ({"OPENBLAS_NUM_THREADS": "2"}, 2, 3, 1),
        ({"OMP_NUM_THREADS": "1"}, 2, 3, 2),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, 3, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 1, 3, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 1, 1),
    ])
    def test_two_lanes_only_under_one_blas_thread(self, monkeypatch, env, cpus, block_rows,
                                                  lanes):
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        assert _lane_count(block_rows) == lanes

    @pytest.mark.parametrize("n, threads", [(BLOCK, 1), (2 * BLOCK + 1, 2)])
    def test_fit_factors_on_the_chosen_lanes(self, monkeypatch, n, threads):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        seen = set()
        real = lssvm._factor_lane

        def factor_lane(*args):
            seen.add(threading.get_ident())
            real(*args)

        monkeypatch.setattr(lssvm, "_factor_lane", factor_lane)
        rng = np.random.default_rng(n)
        train = Dataset(rng.normal(size=(n, 4)), (rng.random(n) < 0.5).astype(int),
                        ("a", "b", "c", "d"), ("neg", "pos"))
        fit_model(ModelSpec("lssvm", {"kernel_gamma": 0.1}), train)
        assert len(seen) == threads


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
