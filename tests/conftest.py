import os

import numpy as np
import pytest

from genflow import Dataset, HierarchyLevel, HierarchySpec


def make_binary(n=200, d=4, sep=1.0, seed=0, noise_labels=False):
    """Two-class Gaussian toy set; class 1 shifted by sep along axis 0."""
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.5).astype(int)
    X = rng.normal(size=(n, d))
    if not noise_labels:
        X[:, 0] += sep * (2 * y - 1)
    names = tuple(f"f{i}" for i in range(d))
    return Dataset(X, y, names, ("neg", "pos"), "toy-binary")


def make_multiclass(n=300, d=3, n_classes=3, sep=3.0, seed=0):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, n_classes, size=n)
    centers = rng.normal(scale=sep, size=(n_classes, d))
    X = centers[y] + rng.normal(size=(n, d))
    names = tuple(f"f{i}" for i in range(d))
    return Dataset(X, y, names, tuple(f"c{i}" for i in range(n_classes)), "toy-multi")


def make_imbalanced6(n=2400, seed=0, within_sep=(0.2, 0.15)):
    """Six classes with heavily imbalanced proportions and a two-level
    group structure: a strong group feature, strong group-internal
    separators, and weak pairwise separators for the rare classes.
    """
    rng = np.random.default_rng(seed)
    props = np.array([0.049, 0.0018, 0.026, 0.69, 0.13, 0.10])
    counts = np.maximum((props * n).round().astype(int), 4)
    y = np.concatenate([np.full(c, i) for i, c in enumerate(counts)])
    X = rng.normal(size=(len(y), 5))
    bright = np.isin(y, [0, 1, 2])
    X[:, 0] += np.where(bright, -2.0, 2.0)
    X[:, 1] += np.where(y == 0, -2.0, np.where(np.isin(y, [1, 2]), 2.0, 0.0))
    X[:, 2] += np.where(y == 3, -2.0, np.where(np.isin(y, [4, 5]), 2.0, 0.0))
    s1, s2 = within_sep
    X[:, 3] += np.where(y == 1, -s1, np.where(y == 2, s1, 0.0))
    X[:, 4] += np.where(y == 4, -s2, np.where(y == 5, s2, 0.0))
    names = tuple(f"f{i}" for i in range(5))
    return Dataset(X, y, names, tuple("ABCDEF"), "toy-6class")


def group_hierarchy():
    """Five binary levels over the 6-class fixture, mirroring a
    bright-vs-red lesion style decomposition."""
    return HierarchySpec((
        HierarchyLevel("level1", (0, 1, 2), (3, 4, 5)),
        HierarchyLevel("level2", (0,), (1, 2)),
        HierarchyLevel("level3", (3,), (4, 5)),
        HierarchyLevel("level4", (2,), (1,)),
        HierarchyLevel("level5", (4,), (5,)),
    ))


@pytest.fixture(autouse=True)
def no_child_process_left():
    """After each test, this process has no child left: every fold helper
    was reaped, whether the test passed or raised."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)  # 0: a child is still running
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process ({pid or 'still running'})")


@pytest.fixture
def binary_ds():
    return make_binary()


@pytest.fixture
def multiclass_ds():
    return make_multiclass()
