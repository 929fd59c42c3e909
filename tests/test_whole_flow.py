"""The whole flow on drawn inputs: small sets with integer, constant,
duplicate and huge columns, one or two families on shrunken grids, drawn
rankers, bin and fold counts and an optional hierarchy level.  Under the
suite's warning filter (a RuntimeWarning is an error) ``run_flow`` returns
or raises ``DataError``/``ModelError``, and a rerun gives the same
``report_body`` bytes."""

import json

import numpy as np
from hypothesis import given, settings, strategies as st

from genflow import (
    DataError,
    Dataset,
    FlowConfig,
    HierarchyLevel,
    HierarchySpec,
    ModelError,
    run_flow,
)
from genflow.models import BINARY_FAMILIES, FAMILIES
from genflow.ranking import RANKING_METHODS
from genflow.report import report_body

# One point per family, at the small end: 5 trees, 3 hidden nodes.
SHRUNKEN = {
    "boosted_tree": {"leaves": [4], "learning_rate": [0.3], "trees": [5]},
    "decision_forest": {"split_count": [8], "depth": [4], "ensemble_count": [2]},
    "lssvm": {"lambda": [1e-6], "kernel_gamma_scale": [1.0]},
    "logreg": {"l2": [1e-6]},
    "multinomial_logreg": {"l2": [1e-6]},
    "neural_net": {"learning_rate": [0.1], "hidden_nodes": [3]},
}
GRIDS = {name: SHRUNKEN[rec.ova_base or name] for name, rec in FAMILIES.items()}

COLUMNS = st.tuples(st.sampled_from(["normal", "integer", "constant", "duplicate"]),
                    st.integers(0, 150).map(lambda e: 10.0**e))
# A huge column, at times: around the refusal's bound and up to the float limit.
HUGE = st.none() | st.none() | st.sampled_from(
    [1e150, 1e153, 1e154, 1e200, 1e307, 1.7976931348623157e308])


@st.composite
def flows(draw):
    n_classes = draw(st.integers(2, 5))
    counts = draw(st.lists(st.integers(2, 40), min_size=n_classes, max_size=n_classes))
    columns = draw(st.lists(COLUMNS, min_size=1, max_size=6))
    if (huge := draw(HUGE)) is not None:
        columns[draw(st.integers(0, len(columns) - 1))] = ("normal", huge)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    y = np.repeat(np.arange(n_classes), counts)
    X = np.empty((len(y), len(columns)))
    for j, (kind, size) in enumerate(columns):
        if kind == "integer":
            X[:, j] = rng.integers(0, 4, size=len(y)) + y
        elif kind == "constant":
            X[:, j] = size * rng.uniform(-1, 1)
        elif kind == "duplicate" and j:
            X[:, j] = X[:, rng.integers(j)]
        else:  # |x| <= size, shifted by class, so finite up to the limit
            X[:, j] = size * np.clip(rng.normal(y / n_classes, 0.3), -1, 1)
    data = Dataset(X, y, tuple(f"f{j}" for j in range(len(columns))),
                   tuple(f"c{i}" for i in range(n_classes)), "drawn")
    # the first family fits the flat task; a second may fit only the levels
    first = [f for f in sorted(FAMILIES) if n_classes == 2 and f in BINARY_FAMILIES
             or n_classes > 2 and not FAMILIES[f].binary_only]
    families = [draw(st.sampled_from(first))]
    if draw(st.booleans()):
        families.append(draw(st.sampled_from(sorted(FAMILIES))))
    hierarchy = None
    if n_classes > 2 and draw(st.booleans()):
        sides = draw(st.permutations(range(n_classes)))
        cut = draw(st.integers(1, n_classes - 1))
        hierarchy = HierarchySpec((HierarchyLevel("drawn level", tuple(sides[:cut]),
                                                  tuple(sides[cut:])),))
    config = FlowConfig(
        train_fraction=draw(st.sampled_from([0.3, 0.5, 0.7])),
        fold_count=draw(st.integers(2, 5)),
        seed=draw(st.integers(0, 3)),
        candidate_families=tuple(dict.fromkeys(families)),
        grids=GRIDS,
        ranking_methods=tuple(draw(st.lists(st.sampled_from(RANKING_METHODS), min_size=1,
                                            max_size=2, unique=True))),
        bin_count=draw(st.integers(2, 12)),
        hierarchy=hierarchy,
        decision3_metric=draw(st.sampled_from(["recall", "accuracy"])),
    )
    return data, config


def outcome(data: Dataset, config: FlowConfig) -> str:
    """The report body's JSON, or the refusal's type and text."""
    try:
        return json.dumps(report_body(run_flow(data, config)), sort_keys=True)
    except (DataError, ModelError) as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=30, deadline=None)
@given(flow=flows())
def test_returns_or_refuses_and_reruns_the_same(flow):
    data, config = flow
    assert outcome(data, config) == outcome(data, config)
