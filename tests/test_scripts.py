"""The scripts under ``scripts/`` import library internals; run them so a
refactor that breaks one fails here."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_fits_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_fits.py"),
         "--families", "logreg", "--repeats", "1"],
        env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 2  # logreg at both WBC-shaped sizes
    assert all(line.startswith("logreg") for line in lines)
