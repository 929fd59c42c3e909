import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from genflow import (
    ConfusionCounts,
    averaged_metrics,
    confusion_counts,
    randomized_recall,
    roc_and_auc,
)
from tests import metrics_reference as reference


class TestConfusion:
    def test_enumerated_example(self):
        c = confusion_counts([1, 1, 1, 0, 0], [1, 1, 0, 0, 1])
        tp, fp, fn, tn = c.one_vs_rest(1)
        assert (tp, fn, tn, fp) == (2, 1, 1, 1)

    def test_perfect_is_diagonal(self):
        y = [0, 1, 2, 1, 0, 2]
        c = confusion_counts(y, y)
        assert np.array_equal(c.matrix, np.diag([2, 2, 2]))

    def test_all_predicted_class_zero(self):
        y = [0, 1, 2, 3, 3, 3]
        c = confusion_counts(y, [0] * 6, n_classes=4)
        assert c.matrix[:, 1:].sum() == 0
        assert c.matrix[:, 0].sum() == 6

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            confusion_counts([0, 1], [0])

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            ConfusionCounts(np.array([[1, -1], [0, 2]]))


class TestBinaryMetrics:
    def test_arithmetic_example(self):
        # tp=3, fp=1, fn=2, tn=4
        c = ConfusionCounts(np.array([[4, 1], [2, 3]]))
        m = averaged_metrics(c)
        assert m.precision[1] == pytest.approx(0.75)
        assert m.recall[1] == pytest.approx(0.6)
        assert m.accuracy[1] == pytest.approx(0.7)

    def test_perfect(self):
        c = ConfusionCounts(np.array([[5, 0], [0, 5]]))
        m = averaged_metrics(c)
        assert m.precision[1] == m.recall[1] == m.accuracy[1] == 1.0

    def test_degenerate_precision_flagged(self):
        c = ConfusionCounts(np.array([[4, 0], [2, 0]]))  # tp=fp=0
        m = averaged_metrics(c)
        assert m.precision[1] == 0.0
        assert any("precision" in f for f in m.degenerate_flags)


def recount_oracle(matrix):
    """Independent per-class tp/fp/fn/tn recount from scratch."""
    m = np.asarray(matrix)
    C = m.shape[0]
    N = m.sum()
    prec, rec, acc = [], [], []
    for i in range(C):
        tp = m[i, i]
        fp = sum(m[j, i] for j in range(C) if j != i)
        fn = sum(m[i, j] for j in range(C) if j != i)
        tn = N - tp - fp - fn
        prec.append(tp / (tp + fp) if tp + fp else 0.0)
        rec.append(tp / (tp + fn) if tp + fn else 0.0)
        acc.append((tp + tn) / N)
    n_i = m.sum(axis=1)
    micro = [sum(n_i[i] * v[i] for i in range(C)) / N for v in (prec, rec, acc)]
    macro = [sum(v) / C for v in (prec, rec, acc)]
    return prec, rec, acc, micro, macro


@st.composite
def count_matrices(draw):
    """C x C counts, C from 2 to 12, with some rows and columns zeroed
    (a class never true, a class never predicted); high == 0 is the
    all-zero matrix."""
    C = draw(st.integers(2, 12))
    high = draw(st.sampled_from([0, 1, 3, 50, 10**6]))
    mat = np.array(draw(st.lists(st.integers(0, high), min_size=C * C,
                                 max_size=C * C))).reshape(C, C)
    mat[draw(st.lists(st.integers(0, C - 1), max_size=C)), :] = 0
    mat[:, draw(st.lists(st.integers(0, C - 1), max_size=C))] = 0
    return mat


class TestAveragedMetrics:
    def test_perfect_multiclass(self):
        m = averaged_metrics(ConfusionCounts(np.diag([3, 4, 5])))
        assert m.micro_precision == m.macro_precision == 1.0
        assert m.micro_recall == m.macro_recall == 1.0
        assert m.micro_accuracy == m.macro_accuracy == 1.0

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_matches_recount_oracle(self, seed):
        rng = np.random.default_rng(seed)
        mat = rng.integers(0, 20, size=(4, 4))
        if mat.sum() == 0:
            mat[0, 0] = 1
        m = averaged_metrics(ConfusionCounts(mat))
        prec, rec, acc, micro, macro = recount_oracle(mat)
        assert np.allclose(m.precision, prec, atol=1e-12)
        assert np.allclose(m.recall, rec, atol=1e-12)
        assert np.allclose(m.accuracy, acc, atol=1e-12)
        assert m.micro_precision == pytest.approx(micro[0], abs=1e-12)
        assert m.micro_recall == pytest.approx(micro[1], abs=1e-12)
        assert m.micro_accuracy == pytest.approx(micro[2], abs=1e-12)
        assert m.macro_precision == pytest.approx(macro[0], abs=1e-12)
        assert m.macro_recall == pytest.approx(macro[1], abs=1e-12)
        assert m.macro_accuracy == pytest.approx(macro[2], abs=1e-12)

    def test_relabel_invariance(self):
        rng = np.random.default_rng(0)
        mat = rng.integers(0, 15, size=(3, 3))
        perm = [2, 0, 1]
        permuted = mat[np.ix_(perm, perm)]
        a = averaged_metrics(ConfusionCounts(mat))
        b = averaged_metrics(ConfusionCounts(permuted))
        for attr in ("micro_precision", "micro_recall", "micro_accuracy",
                     "macro_precision", "macro_recall", "macro_accuracy"):
            assert getattr(a, attr) == pytest.approx(getattr(b, attr), abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(mat=count_matrices())
    @example(mat=np.zeros((2, 2), dtype=int))
    @example(mat=np.zeros((12, 12), dtype=int))
    @example(mat=np.array([[0, 0, 0], [0, 0, 0], [4, 0, 1]]))
    def test_bits_match_the_per_class_loop(self, mat):
        got = averaged_metrics(ConfusionCounts(mat))
        want = reference.averaged_metrics(ConfusionCounts(mat))
        for name in ("precision", "recall", "accuracy"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
        for name in ("micro_precision", "micro_recall", "micro_accuracy",
                     "macro_precision", "macro_recall", "macro_accuracy",
                     "overall_accuracy"):
            a, b = getattr(got, name), getattr(want, name)
            assert type(a) is float and a.hex() == b.hex(), name
        assert got.degenerate_flags == want.degenerate_flags

    def test_micro_recall_equals_overall_accuracy(self):
        # Micro-averaged one-vs-rest recall collapses to trace/total.
        rng = np.random.default_rng(1)
        mat = rng.integers(0, 10, size=(5, 5)) + np.eye(5, dtype=int)
        m = averaged_metrics(ConfusionCounts(mat))
        assert m.micro_recall == pytest.approx(m.overall_accuracy, abs=1e-12)


class TestRocAuc:
    def test_scores_equal_labels_auc_one(self):
        y = np.array([0, 1, 0, 1, 1, 0])
        m = roc_and_auc(y.astype(float), y)
        assert m.auc == pytest.approx(1.0)

    def test_constant_scores_auc_half(self):
        y = np.array([0, 1, 0, 1])
        m = roc_and_auc(np.full(4, 0.7), y)
        assert m.auc == pytest.approx(0.5)

    def test_single_class_flagged(self):
        m = roc_and_auc(np.array([0.2, 0.8]), np.array([1, 1]))
        assert m.auc is None
        assert any("single-class" in f for f in m.degenerate_flags)

    def test_flip_symmetry(self):
        # Complementing the scores reverses the ranking: AUCs sum to 1.
        # Complementing scores AND labels leaves the AUC unchanged.
        rng = np.random.default_rng(2)
        s = rng.random(80)
        y = (rng.random(80) < 0.5).astype(int)
        a = roc_and_auc(s, y).auc
        assert a + roc_and_auc(1.0 - s, y).auc == pytest.approx(1.0, abs=1e-9)
        assert roc_and_auc(1.0 - s, 1 - y).auc == pytest.approx(a, abs=1e-9)

    def test_matches_mann_whitney_oracle(self):
        rng = np.random.default_rng(5)
        s = rng.random(70)
        y = (rng.random(70) < 0.5).astype(int)
        pos, neg = s[y == 1], s[y == 0]
        mw = np.mean([(p > n) + 0.5 * (p == n) for p in pos for n in neg])
        assert roc_and_auc(s, y).auc == pytest.approx(mw, abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        s = rng.random(60)
        y = (s + rng.normal(scale=0.3, size=60) > 0.5).astype(int)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        a = roc_and_auc(s, y).auc
        b = roc_and_auc(s**3, y).auc  # strictly increasing on [0,1]
        assert a == pytest.approx(b, abs=1e-12)

    def test_roc_points_monotone(self):
        rng = np.random.default_rng(4)
        s = rng.random(50)
        y = (rng.random(50) < 0.5).astype(int)
        m = roc_and_auc(s, y)
        fprs = [p[0] for p in m.roc]  # sorted by descending threshold
        tprs = [p[1] for p in m.roc]
        assert all(a <= b + 1e-12 for a, b in zip(fprs, fprs[1:]))
        assert all(a <= b + 1e-12 for a, b in zip(tprs, tprs[1:]))


class TestRandomizedRecall:
    def test_majority_fraction_example(self):
        # 10,967 of 15,945 in the majority class
        counts = [4978 - 4200, 28, 4200 - 28, 10967, 0, 0]
        counts = [c for c in counts if c >= 0]
        assert randomized_recall([4978, 10967]) == pytest.approx(10967 / 15945)

    def test_balanced_classes(self):
        assert randomized_recall([7, 7, 7]) == pytest.approx(1 / 3)

    def test_simple(self):
        assert randomized_recall([5, 3, 2]) == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            randomized_recall([])
        with pytest.raises(ValueError):
            randomized_recall([0, 0])


def roc_oracle(scores, true_labels):
    """``roc_and_auc``'s per-threshold loop, kept unchanged as the oracle of
    its vectorized counts: (roc points, auc)."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(true_labels, dtype=int)
    grid = np.unique(np.concatenate([np.linspace(0.0, 1.0, 101), s]))
    pos = int((y == 1).sum())
    neg = int((y == 0).sum())
    points = []
    for t in grid:
        pred = s >= t
        tpr = float((pred & (y == 1)).sum() / pos)
        fpr = float((pred & (y == 0)).sum() / neg)
        points.append((fpr, tpr, float(t)))
    points.sort(key=lambda q: -q[2])
    fprs = np.array([0.0] + [q[0] for q in points] + [1.0])
    tprs = np.array([0.0] + [q[1] for q in points] + [1.0])
    return points, float(np.trapezoid(tprs, fprs))


def hex_points(points):
    """Float hex per coordinate: -0.0 differs from 0.0 and NaN equals NaN."""
    return [tuple(v.hex() for v in p) for p in points]


SCORE_VALUES = st.one_of(st.floats(-2.0, 2.0), st.sampled_from(
    [0.0, -0.0, 0.5, 1.0, np.inf, -np.inf, np.nan]))


class TestVectorizedRoc:
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(2, 120), distinct=st.integers(1, 200), seed=st.integers(0, 2**32 - 1),
           specials=st.lists(SCORE_VALUES, max_size=6),
           third_label=st.booleans())
    def test_matches_loop_oracle(self, n, distinct, seed, specials, third_label):
        rng = np.random.default_rng(seed)
        s = rng.integers(0, distinct, size=n) / distinct  # ties when distinct < n
        s[rng.choice(n, size=min(len(specials), n), replace=False)] = specials[:n]
        y = rng.integers(0, 3 if third_label else 2, size=n)
        y[:2] = [0, 1]
        m = roc_and_auc(s, y)
        scored = ~np.isnan(s)  # rows with a NaN score are dropped, then counted
        assert any("NaN scores dropped" in f for f in m.degenerate_flags) != scored.all()
        if not ((y[scored] == 0).any() and (y[scored] == 1).any()):
            assert m.auc is None
            return
        points, auc = roc_oracle(s[scored], y[scored])
        assert hex_points(m.roc) == hex_points(points)
        assert m.auc.hex() == auc.hex()

    def test_nan_scores_dropped_and_flagged(self):
        # Kept, the NaN row would run the curve back to (0, 0): AUC 0.75.
        m = roc_and_auc([0.2, 0.9, 0.8, np.nan], [0, 1, 1, 0])
        assert m.auc == 1.0
        assert "NaN scores dropped: 1" in m.degenerate_flags
        assert all(not np.isnan(t) for _, _, t in m.roc)

    def test_nan_scores_leaving_one_class(self):
        m = roc_and_auc([np.nan, 0.9, 0.8], [0, 1, 1])
        assert m.auc is None
        assert m.degenerate_flags == ["NaN scores dropped: 1",
                                      "single-class labels: AUC undefined"]

    def test_many_distinct_scores(self):
        rng = np.random.default_rng(7)
        s = rng.random(5000)
        y = (s + rng.normal(scale=0.4, size=5000) > 0.6).astype(int)
        m = roc_and_auc(s, y)
        points, auc = roc_oracle(s, y)
        assert len(m.roc) == len(np.unique(np.r_[np.linspace(0, 1, 101), s]))
        assert m.roc == points
        assert m.auc == auc
