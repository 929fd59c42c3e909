"""The benchmark's tracer wraps genflow's layer boundaries by name
(``perfbench/spans.py`` ``CALL_SITES``).  A refactor that deletes or moves a
traced name would silently zero that layer's metrics; here it fails instead."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# Wrapped by the tracer, but deleted when the out-of-fold metrics began
# pooling the dimensionality sweep's own fits.
KNOWN_ABSENT = {"flow._cv_out_of_fold_metrics"}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    spans = load_spans()
    tracer = spans.Tracer()
    with tracer.installed():
        absent = set(tracer.absent)
    assert absent <= KNOWN_ABSENT
