import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from genflow import (
    DataError,
    Dataset,
    chi_squared,
    fisher_score,
    mrmr_rank,
    mutual_information,
    project_top_k,
)
from genflow.ranking import discretize
from tests import ranking_reference as reference


def ds_from(X, y, n_classes=None):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    C = n_classes or int(y.max()) + 1
    return Dataset(X, y, tuple(f"f{i}" for i in range(X.shape[1])),
                   tuple(f"c{i}" for i in range(C)))


def joint_table_mi(values, labels, bins):
    """Brute-force MI oracle: enumerate the joint table and sum
    P log(P / (Px Py)) directly, in nats."""
    b = discretize(np.asarray(values, float), bins)
    total = 0.0
    n = len(labels)
    for v in np.unique(b):
        for c in np.unique(labels):
            pxy = np.mean((b == v) & (labels == c))
            if pxy == 0:
                continue
            px = np.mean(b == v)
            py = np.mean(labels == c)
            total += pxy * np.log(pxy / (px * py))
    return total


def contingency_chi2(values, labels):
    """Oracle: per distinct value, the classic 2x2 chi-square
    N * (ad - bc)^2 / ((a+b)(c+d)(a+c)(b+d)), summed over values."""
    v = np.asarray(values)
    y = np.asarray(labels)
    n = len(y)
    total = 0.0
    for x in np.unique(v):
        a = np.sum((v == x) & (y == 1))
        b = np.sum((v == x) & (y == 0))
        c = np.sum((v != x) & (y == 1))
        d = np.sum((v != x) & (y == 0))
        denom = (a + b) * (c + d) * (a + c) * (b + d)
        if denom == 0:
            continue
        total += n * (a * d - b * c) ** 2 / denom
    return total


class TestFisher:
    def test_hand_example(self):
        # class0 {0,0,1,1}, class1 {2,2,3,3}: (2.5-0.5)^2/(0.25+0.25) = 8
        X = np.array([[0.0], [0.0], [1.0], [1.0], [2.0], [2.0], [3.0], [3.0]])
        y = [0, 0, 0, 0, 1, 1, 1, 1]
        r = fisher_score(ds_from(X, y))
        assert r.scores[0] == pytest.approx(8.0)

    def test_equal_means_score_zero(self):
        X = np.array([[1.0, 0.0], [3.0, 1.0], [1.0, 0.0], [3.0, 1.0]])
        r = fisher_score(ds_from(X, [0, 0, 1, 1]))
        assert r.scores[0] == 0.0

    def test_affine_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=60)
        y = (rng.random(60) < 0.5).astype(int)
        x[y == 1] += 1.3
        X = np.column_stack([x, 3.0 * x + 2.0, rng.normal(size=60)])
        r = fisher_score(ds_from(X, y))
        assert r.scores[0] == pytest.approx(r.scores[1], rel=1e-12)

    def test_zero_variance_distinct_means_ranks_first(self):
        X = np.column_stack([
            np.array([0.0, 0.0, 1.0, 1.0]),      # constant per class
            np.array([0.0, 10.0, 0.2, 9.0]),     # noisy but separating
        ])
        r = fisher_score(ds_from(X, [0, 0, 1, 1]))
        assert np.isinf(r.scores[0])
        assert r.order[0] == 0

    def test_tie_broken_by_index(self):
        X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        r = fisher_score(ds_from(X, [0, 0, 1, 1]))
        assert list(r.order) == [0, 1]

    def test_empty_side_rejected(self):
        with pytest.raises(DataError, match="empty"):
            fisher_score(ds_from([[0.0], [1.0]], [0, 0], n_classes=2))


class TestMutualInformation:
    def test_perfect_balanced_binary_is_ln2(self):
        X = np.array([[0.0], [0.0], [1.0], [1.0]] * 5)
        y = [0, 0, 1, 1] * 5
        r = mutual_information(ds_from(X, y), bin_count=2)
        assert r.scores[0] == pytest.approx(np.log(2), abs=1e-12)

    def test_independent_feature_zero(self):
        # all four joint cells 0.25
        X = np.array([[0.0], [1.0], [0.0], [1.0]])
        y = [0, 0, 1, 1]
        r = mutual_information(ds_from(X, y), bin_count=2)
        assert r.scores[0] == pytest.approx(0.0, abs=1e-12)

    def test_constant_feature_scores_zero(self):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        y = [0, 1] * 5
        r = mutual_information(ds_from(X, y), bin_count=4)
        assert r.scores[0] == 0.0

    def test_bin_count_validated(self, binary_ds):
        with pytest.raises(DataError, match="bin_count"):
            mutual_information(binary_ds, bin_count=1)

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(10, 200),
        bins=st.integers(2, 4),
        seed=st.integers(0, 10_000),
    )
    def test_matches_joint_table_oracle(self, n, bins, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 2))
        y = (rng.random(n) < 0.4).astype(int)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        r = mutual_information(ds_from(X, y), bin_count=bins)
        for l in range(2):
            assert r.scores[l] == pytest.approx(
                joint_table_mi(X[:, l], y, bins), abs=1e-10)

    def test_bin_relabel_invariance(self):
        rng = np.random.default_rng(7)
        x = rng.integers(0, 3, size=90).astype(float)
        y = (rng.random(90) < 0.5).astype(int)
        # Permute the bin identities: 0->2, 1->0, 2->1 (same partition)
        x_perm = np.array([2.0, 0.0, 1.0])[x.astype(int)]
        a = mutual_information(ds_from(x[:, None], y), bin_count=3).scores[0]
        b = mutual_information(ds_from(x_perm[:, None], y), bin_count=3).scores[0]
        assert a == pytest.approx(b, abs=1e-12)


class TestChiSquared:
    def test_independent_zero(self):
        X = np.array([[0.0], [1.0], [0.0], [1.0]])
        r = chi_squared(ds_from(X, [0, 0, 1, 1]), bin_count=2)
        assert r.scores[0] == pytest.approx(0.0, abs=1e-12)

    def test_perfect_two_bin_predictor(self):
        # 2 bins perfectly predicting a balanced label, N=8: each bin
        # contributes N -> summed statistic 16.
        X = np.repeat([[0.0], [1.0]], 4, axis=0)
        y = [0] * 4 + [1] * 4
        r = chi_squared(ds_from(X, y), bin_count=2)
        assert r.scores[0] == pytest.approx(16.0)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(10, 200), seed=st.integers(0, 10_000))
    def test_matches_contingency_oracle(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 4, size=n).astype(float)
        y = (rng.random(n) < 0.5).astype(int)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        # 4 integer values land in 4 distinct bins
        r = chi_squared(ds_from(x[:, None], y), bin_count=4)
        assert r.scores[0] == pytest.approx(contingency_chi2(x, y), abs=1e-10)

    def test_scores_nonnegative(self, binary_ds):
        assert (chi_squared(binary_ds, 5).scores >= 0).all()
        assert (mutual_information(binary_ds, 5).scores >= 0).all()


class TestMrmr:
    def test_k1_matches_mutual_information_top(self, binary_ds):
        mi = mutual_information(binary_ds, 10)
        mr = mrmr_rank(binary_ds, 10)
        assert mr.order[0] == mi.order[0]

    def test_duplicate_top_feature_not_selected_second(self):
        rng = np.random.default_rng(5)
        n = 200
        y = (rng.random(n) < 0.5).astype(int)
        strong = y + rng.normal(scale=0.1, size=n)
        weak = y + rng.normal(scale=1.0, size=n)
        X = np.column_stack([strong, strong.copy(), weak, rng.normal(size=n)])
        ds = ds_from(X, y)
        mr = mrmr_rank(ds, bin_count=4)
        chosen = set(mr.order[:2].tolist())
        # Oracle: evaluate the greedy criterion on every size-2 subset
        # that starts with the best single feature.
        mi = mutual_information(ds, 4)
        first = int(np.argmax(mi.scores))
        pair_crit = {}
        for j in range(4):
            if j == first:
                continue
            pair_crit[j] = mi.scores[j] - pairwise_mi(ds, first, j, 4)
        best_second = max(pair_crit, key=pair_crit.get)
        assert chosen == {first, best_second}
        assert 1 not in chosen or 0 not in chosen  # not both duplicates

    def test_order_is_full_permutation(self, binary_ds):
        mr = mrmr_rank(binary_ds, 10)
        assert sorted(mr.order.tolist()) == list(range(binary_ds.n_features))


def pairwise_mi(ds, a, b, bins):
    xa = discretize(ds.features[:, a], bins)
    xb = discretize(ds.features[:, b], bins)
    total = 0.0
    for va in np.unique(xa):
        for vb in np.unique(xb):
            p = np.mean((xa == va) & (xb == vb))
            if p == 0:
                continue
            total += p * np.log(p / (np.mean(xa == va) * np.mean(xb == vb)))
    return total


class TestProjectTopK:
    def test_k_equals_d_same_columns(self, binary_ds):
        r = fisher_score(binary_ds)
        proj = project_top_k(binary_ds, r, binary_ds.n_features)
        assert set(proj.feature_names) == set(binary_ds.feature_names)
        # column content preserved under reordering
        for j, name in enumerate(proj.feature_names):
            src = binary_ds.feature_names.index(name)
            assert np.array_equal(proj.features[:, j], binary_ds.features[:, src])

    def test_k1_single_top_column(self, binary_ds):
        r = fisher_score(binary_ds)
        proj = project_top_k(binary_ds, r, 1)
        assert proj.n_features == 1
        assert proj.feature_names[0] == binary_ds.feature_names[r.order[0]]
        assert np.array_equal(proj.labels, binary_ds.labels)

    def test_k_out_of_range(self, binary_ds):
        r = fisher_score(binary_ds)
        with pytest.raises(DataError):
            project_top_k(binary_ds, r, 0)
        with pytest.raises(DataError):
            project_top_k(binary_ds, r, binary_ds.n_features + 1)


def test_descending_order_invariant(binary_ds):
    for r in (fisher_score(binary_ds), mutual_information(binary_ds, 8),
              chi_squared(binary_ds, 8)):
        s = r.scores[r.order]
        assert all(s[i] >= s[i + 1] for i in range(len(s) - 1))


FEATURE_KINDS = ("normal", "integer", "ramp", "constant", "spike")


def reference_set(n_classes, n, kinds, seed):
    """n rows holding every one of n_classes classes, one column per kind:
    normal draws, small integers (ties), a shuffled ramp (every bin
    occupied once n >= bin_count), a constant (one bin holds every row) and
    a spike (one row away from the rest)."""
    rng = np.random.default_rng(seed)
    y = rng.permutation(np.concatenate([np.arange(n_classes),
                                        rng.integers(0, n_classes, n - n_classes)]))
    columns = {
        "normal": lambda: rng.normal(size=n),
        "integer": lambda: rng.integers(0, 5, n).astype(float),
        "ramp": lambda: rng.permutation(n).astype(float),
        "constant": lambda: np.full(n, 1.5),
        "spike": lambda: np.where(np.arange(n) == rng.integers(n), 10.0, 0.0),
    }
    return ds_from(np.column_stack([columns[k]() for k in kinds]), y, n_classes)


@st.composite
def reference_cases(draw):
    n_classes = draw(st.integers(2, 6))
    n = draw(st.integers(max(4, n_classes), 300))
    kinds = draw(st.lists(st.sampled_from(FEATURE_KINDS), min_size=1, max_size=5))
    seed = draw(st.integers(0, 2**32 - 1))
    return reference_set(n_classes, n, kinds, seed), draw(st.integers(2, 13))


class TestReferenceBits:
    """Every ranker reproduces the pre-table code (``tests/ranking_reference``)
    bit for bit: the bin terms' summation order and the class sum of
    chi-squared included, so a drift on one Python version fails there."""

    @settings(max_examples=200, deadline=None)
    @given(case=reference_cases())
    # a ramp over 13 bins: more than 8 terms in one chi-squared bin sum
    @example(case=(reference_set(2, 120, ("ramp", "normal"), 0), 13))
    # C > 2: chi-squared's sum over the one-vs-rest views
    @example(case=(reference_set(6, 300, FEATURE_KINDS, 1), 10))
    @example(case=(reference_set(3, 4, ("constant", "spike", "integer"), 2), 2))
    def test_scores_and_orders_match_the_reference(self, case):
        ds, bins = case
        for ranker, oracle, args in (
                (fisher_score, reference.fisher_score, ()),
                (mutual_information, reference.mutual_information, (bins,)),
                (chi_squared, reference.chi_squared, (bins,)),
                (mrmr_rank, reference.mrmr_rank, (bins,))):
            got, want = ranker(ds, *args), oracle(ds, *args)
            assert got.method == want.method
            assert [v.hex() for v in got.scores.tolist()] == \
                [v.hex() for v in want.scores.tolist()], got.method
            assert got.order.tolist() == want.order.tolist(), got.method

    def test_ramp_example_fills_more_than_eight_bins(self):
        ds = reference_set(2, 120, ("ramp", "normal"), 0)
        assert np.unique(discretize(ds.features[:, 0], 13)).size == 13


@pytest.mark.parametrize("ranker", [mutual_information, chi_squared, mrmr_rank])
@pytest.mark.parametrize("bins", [1, 0, -3])
def test_binned_rankers_refuse_fewer_than_two_bins(binary_ds, ranker, bins):
    # one check, ahead of any discretization (mRMR's linspace once raised
    # a ValueError first for bin_count < -1)
    with pytest.raises(DataError, match=rf"bin_count must be >= 2, got {bins}$"):
        ranker(binary_ds, bins)


def with_empty_class(ds, position):
    """``ds`` with a class name holding no rows inserted at ``position``."""
    labels = ds.labels + (ds.labels >= position)
    names = ds.class_names[:position] + ("empty",) + ds.class_names[position:]
    return Dataset(ds.features, labels, ds.feature_names, names)


class TestEmptyClass:
    """A one-vs-rest view with an empty side is skipped by both Fisher and
    chi-squared, so a set that names a class with no rows scores as the
    same rows without that name, bit for bit and without a warning."""

    @pytest.mark.parametrize("n_classes", [3, 4, 5, 6])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_scores_equal_the_set_without_the_class(self, n_classes, where, seed):
        present = reference_set(n_classes - 1, 40, FEATURE_KINDS, seed)
        position = {"first": 0, "middle": n_classes // 2, "last": n_classes - 1}[where]
        ds = with_empty_class(present, position)
        assert ds.n_classes == n_classes and ds.class_counts()[position] == 0
        rankers = [fisher_score]
        # Dropping a class from three leaves a binary set, whose chi-squared
        # has one view (class 1) where the three-class set has two.
        if n_classes > 3:
            rankers.append(lambda d: chi_squared(d, 10))
        for ranker in rankers:
            got, want = ranker(ds), ranker(present)
            assert [v.hex() for v in got.scores.tolist()] == \
                [v.hex() for v in want.scores.tolist()], got.method
            assert got.order.tolist() == want.order.tolist(), got.method

    def test_no_view_left(self):
        # every row in one class of three: no view has rows on both sides
        ds = ds_from([[0.0], [1.0], [2.0]], [1, 1, 1], n_classes=3)
        with pytest.raises(DataError, match="every one-vs-rest view has an empty side"):
            fisher_score(ds)
        assert chi_squared(ds, 4).scores.tolist() == [0.0]
