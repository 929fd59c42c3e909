import codecs
import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import replace
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

from genflow import flow, run_flow
from genflow.flow import file_stem
from genflow.cli import main
from genflow.models import FAMILIES
from genflow.report import dimsweep_svg, emit_bundle, report_body, roc_svg
from tests.test_flow import fast_config
from tests.conftest import group_hierarchy, make_binary, make_imbalanced6


@pytest.fixture(scope="module")
def binary_report():
    return run_flow(make_binary(n=150, sep=2.0, seed=4), fast_config())


class TestBundle:
    def test_file_set(self, binary_report, tmp_path):
        files = emit_bundle(binary_report, tmp_path)
        rel = sorted(str(p.relative_to(tmp_path)) for p in files)
        assert rel == [
            "curves/dimsweep_binary_fisher.csv",
            "curves/roc_binary.csv",
            "models/binary.json",
            "plots/dimsweep_binary.svg",
            "plots/roc_binary.svg",
            "report.json",
        ]
        for p in files:
            assert p.stat().st_size > 0

    def test_report_json_structure(self, binary_report, tmp_path):
        emit_bundle(binary_report, tmp_path)
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["route"] == "binary"
        assert "generated_at" in doc
        winner = doc["flat"]["winner"]
        assert winner["family"] == "logreg"
        board = doc["flat"]["leaderboard"]
        assert {e["family"] for e in board} == {"logreg"}
        for entry in board:
            assert entry["table"], "every swept point must be recorded"
            for row in entry["table"]:
                assert len(row["fold_accuracies"]) == 5

    def test_generated_at_is_utc_with_offset(self, binary_report, tmp_path):
        emit_bundle(binary_report, tmp_path)
        doc = json.loads((tmp_path / "report.json").read_text())
        stamp = datetime.fromisoformat(doc["generated_at"])
        assert stamp.utcoffset() == timedelta(0)

    def test_dimsweep_csv_matches_curves(self, binary_report, tmp_path):
        emit_bundle(binary_report, tmp_path)
        lines = (tmp_path / "curves" / "dimsweep_binary_fisher.csv"
                 ).read_text().strip().splitlines()
        assert lines[0] == "method,k,mean_cv_accuracy"
        curve = binary_report.flat.dim.curves["fisher"]
        assert len(lines) - 1 == len(curve)
        for k, line in enumerate(lines[1:]):
            method, kk, acc = line.split(",")
            assert method == "fisher" and int(kk) == k + 1
            assert float(acc) == pytest.approx(curve[k], abs=1e-9)

    def test_roc_csv_matches_metrics(self, binary_report, tmp_path):
        emit_bundle(binary_report, tmp_path)
        lines = (tmp_path / "curves" / "roc_binary.csv"
                 ).read_text().strip().splitlines()
        assert lines[0] == "threshold,fpr,tpr"
        assert len(lines) - 1 == len(binary_report.flat.roc.roc)

    def test_model_round_trips(self, binary_report, tmp_path):
        from genflow.models import model_from_document

        emit_bundle(binary_report, tmp_path)
        doc = json.loads((tmp_path / "models" / "binary.json").read_text())
        model = model_from_document(doc)
        assert model.spec.family == binary_report.flat.chosen_spec.family

    def test_rerun_same_seed_identical_body(self, tmp_path):
        ds = make_binary(n=120, seed=11)
        a = emit_and_load(run_flow(ds, fast_config()), tmp_path / "a")
        b = emit_and_load(run_flow(ds, fast_config()), tmp_path / "b")
        a.pop("generated_at")
        b.pop("generated_at")
        assert a == b


def test_empty_roc_advisory_is_in_the_returned_report(monkeypatch, tmp_path):
    real_roc = flow.roc_and_auc

    def no_points(scores, labels):
        roc = real_roc(scores, labels)
        roc.roc = []
        roc.degenerate_flags.append("no ROC points")
        return roc

    monkeypatch.setattr(flow, "roc_and_auc", no_points)
    report = run_flow(make_binary(n=150, sep=2.0, seed=4), fast_config())
    body = json.loads(json.dumps(report_body(report)))
    assert body["advisories"] == ["ROC plot skipped for binary: ['no ROC points']"]
    for name in ("first", "second"):  # emitting twice neither edits nor grows it
        written = emit_and_load(report, tmp_path / name)
        written.pop("generated_at")
        assert written == body
        assert not (tmp_path / name / "plots" / "roc_binary.svg").exists()


def emit_and_load(report, out):
    emit_bundle(report, out)
    return json.loads((out / "report.json").read_text())


class TestSvg:
    def test_dimsweep_polyline_point_counts(self, binary_report):
        curves = binary_report.flat.dim.curves
        svg = dimsweep_svg(curves, "t")
        polylines = re.findall(r'<polyline[^>]*points="([^"]+)"', svg)
        assert len(polylines) == len(curves)
        for pts, curve in zip(polylines, curves.values()):
            assert len(pts.split()) == len(curve)

    def test_dimsweep_legend_names_methods(self, binary_report):
        svg = dimsweep_svg(binary_report.flat.dim.curves, "t")
        for method in binary_report.flat.dim.curves:
            assert f">{method}</text>" in svg

    def test_roc_svg_contains_auc_and_diagonal(self, binary_report):
        roc = binary_report.flat.roc
        svg = roc_svg(roc.roc, "roc", auc=roc.auc)
        assert f"AUC = {roc.auc:.3f}" in svg
        assert "stroke-dasharray" in svg
        pts = re.search(r'<polyline[^>]*points="([^"]+)"', svg).group(1)
        # curve points plus the appended (0,0) and (1,1) endpoints
        assert len(pts.split()) == len(roc.roc) + 2

    def test_markup_in_a_level_name_is_escaped(self, binary_report, tmp_path):
        level = replace(binary_report.flat, name="hierarchy:A&B <top> é")
        emit_bundle(replace(binary_report, flat=None, levels=[level]), tmp_path)
        for plot in ("dimsweep", "roc"):
            root = ET.parse(tmp_path / "plots" / f"{plot}_{file_stem(level.name)}.svg").getroot()
            assert level.name in root.find("{http://www.w3.org/2000/svg}text").text

    def test_plotted_values_exist_in_curve_file(self, binary_report, tmp_path):
        # Every accuracy rendered in the SVG is backed by a CSV row.
        emit_bundle(binary_report, tmp_path)
        csv_text = (tmp_path / "curves" / "dimsweep_binary_fisher.csv").read_text()
        stored = {float(line.split(",")[2])
                  for line in csv_text.strip().splitlines()[1:]}
        for v in binary_report.flat.dim.curves["fisher"]:
            assert any(abs(v - s) < 1e-9 for s in stored)


def write_toy_csv(path, n=90, seed=0):
    ds = make_binary(n=n, sep=2.5, seed=seed)
    with open(path, "w") as fh:
        fh.write(",".join(ds.feature_names) + ",label\n")
        for row, y in zip(ds.features, ds.labels):
            fh.write(",".join(f"{v:.6f}" for v in row) + f",{y}\n")
    return path


class TestCli:
    def test_happy_path_exit_0(self, tmp_path):
        data = write_toy_csv(tmp_path / "toy.csv")
        out = tmp_path / "out"
        code = main(["--data", str(data), "--label-col", "label",
                     "--families", "logreg", "--rankers", "fisher",
                     "--grid-preset", "thin", "--out", str(out)])
        assert code == 0
        assert (out / "report.json").exists()
        assert (out / "plots" / "roc_binary.svg").exists()

    @pytest.mark.parametrize("preset", ["full", "thin"])
    def test_report_grids_are_the_registry_grids(self, tmp_path, preset):
        data = write_toy_csv(tmp_path / "toy.csv")
        out = tmp_path / "out"
        assert main(["--data", str(data), "--label-col", "label",
                     "--families", "logreg", "--rankers", "fisher",
                     "--grid-preset", preset, "--out", str(out)]) == 0
        grids = json.loads((out / "report.json").read_text())["config"]["grids"]
        expected = {n: f.thin_grid if preset == "thin" else f.grid
                    for n, f in FAMILIES.items()}
        # Key order too: json.loads keeps it, and dict equality ignores it.
        assert [(n, list(g.items())) for n, g in grids.items()] == [
            (n, list(g.items())) for n, g in expected.items()]

    def test_missing_required_flag_exit_1(self, tmp_path):
        assert main(["--data", "x.csv", "--out", str(tmp_path)]) == 1

    def test_bad_choice_exit_1(self, tmp_path):
        assert main(["--data", "x.csv", "--label-col", "y",
                     "--na-policy", "bogus", "--out", str(tmp_path)]) == 1

    def test_missing_file_exit_2(self, tmp_path):
        code = main(["--data", str(tmp_path / "nope.csv"), "--label-col", "y",
                     "--out", str(tmp_path / "out")])
        assert code == 2

    def test_unknown_family_exit_2(self, tmp_path):
        data = write_toy_csv(tmp_path / "toy.csv")
        code = main(["--data", str(data), "--label-col", "label",
                     "--families", "perceptron",
                     "--out", str(tmp_path / "out")])
        assert code == 2

    def test_bad_hierarchy_file_exit_2(self, tmp_path):
        data = write_toy_csv(tmp_path / "toy.csv")
        h = tmp_path / "h.json"
        h.write_text("not json")
        code = main(["--data", str(data), "--label-col", "label",
                     "--hierarchy", str(h), "--out", str(tmp_path / "out")])
        assert code == 2

    @pytest.mark.parametrize("levels", ['[[0, 1]]', '["x"]'])
    def test_non_object_hierarchy_level_exit_2(self, tmp_path, levels, capsys):
        data = write_toy_csv(tmp_path / "toy.csv")
        h = tmp_path / "h.json"
        h.write_text(levels)
        code = main(["--data", str(data), "--label-col", "label",
                     "--hierarchy", str(h), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "bad level record 0: expected a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--fold-count", "0"),
                                             ("--fold-count", "1")])
    def test_bad_seed_or_fold_count_exit_2_before_split(self, tmp_path, monkeypatch,
                                                         flag, value):
        from genflow import flow

        def no_split(*args, **kwargs):
            raise AssertionError("split reached")  # would exit 3

        monkeypatch.setattr(flow, "stratified_split", no_split)
        data = write_toy_csv(tmp_path / "toy.csv")
        code = main(["--data", str(data), "--label-col", "label",
                     "--families", "logreg", "--rankers", "fisher", flag, value,
                     "--out", str(tmp_path / "out")])
        assert code == 2

    def test_planted_bug_in_fitter_exit_3(self, tmp_path, monkeypatch):
        from genflow import models

        def buggy_fit(spec, train):
            raise TypeError("planted bug")

        monkeypatch.setattr(models.LogisticRegressionModel, "fit", buggy_fit)
        data = write_toy_csv(tmp_path / "toy.csv")
        code = main(["--data", str(data), "--label-col", "label",
                     "--families", "logreg", "--rankers", "fisher",
                     "--grid-preset", "thin", "--out", str(tmp_path / "out")])
        assert code == 3
        assert not (tmp_path / "out" / "report.json").exists()

    def test_planted_bug_in_loader_exit_3(self, tmp_path, monkeypatch, capsys):
        from genflow import cli

        def buggy_load(*args, **kwargs):
            raise RuntimeError("planted bug")

        monkeypatch.setattr(cli, "load_dataset", buggy_load)
        data = write_toy_csv(tmp_path / "toy.csv")
        code = main(["--data", str(data), "--label-col", "label",
                     "--families", "logreg", "--rankers", "fisher",
                     "--grid-preset", "thin", "--out", str(tmp_path / "out")])
        assert code == 3
        assert "internal pipeline failure" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        data = write_toy_csv(tmp_path / "toy.csv")
        outs = []
        for name, env in (("a", "3"), ("b", "3")):
            monkeypatch.setenv("GENFLOW_SEED", env)
            out = tmp_path / name
            assert main(["--data", str(data), "--label-col", "label",
                         "--families", "logreg", "--rankers", "fisher",
                         "--grid-preset", "thin", "--out", str(out)]) == 0
            doc = json.loads((out / "report.json").read_text())
            doc.pop("generated_at")
            outs.append(doc)
        assert outs[0] == outs[1]
        assert outs[0]["config"]["seed"] == 3

    def test_non_integer_seed_env_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GENFLOW_SEED", "abc")
        data = write_toy_csv(tmp_path / "toy.csv")
        assert main(["--data", str(data), "--label-col", "label",
                     "--families", "logreg", "--out", str(tmp_path / "out")]) == 2
        assert "data error: GENFLOW_SEED" in capsys.readouterr().err


def test_report_body_independent_of_the_interpreter_process(tmp_path):
    """Two fresh interpreters with different string-hash seeds write the
    same report body: no set or dict order leaks into the report."""
    ds = make_imbalanced6(n=600)
    data = tmp_path / "six.csv"
    with open(data, "w") as fh:
        fh.write(",".join(ds.feature_names) + ",class\n")
        for row, y in zip(ds.features, ds.labels):
            fh.write(",".join(f"{v:.6f}" for v in row) + f",{ds.class_names[y]}\n")
    hier = tmp_path / "hierarchy.json"
    hier.write_text(json.dumps(group_hierarchy().to_list()))
    src = Path(__file__).resolve().parents[1] / "src"
    bodies = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed,
                   OPENBLAS_NUM_THREADS="1")
        out = tmp_path / f"out{hash_seed}"
        proc = subprocess.run(
            [sys.executable, "-m", "genflow.cli", "--data", str(data),
             "--label-col", "class", "--hierarchy", str(hier),
             "--rankers", "fisher,mutual_info,chi_squared,mrmr",
             "--families", "multinomial_logreg,logreg", "--grid-preset", "thin",
             "--fold-count", "3", "--train-fraction", "0.5", "--seed", "3",
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads((out / "report.json").read_text())
        doc.pop("generated_at")
        assert doc["route"] == "multiclass_hierarchical"
        bodies.append(json.dumps(doc))  # a string keeps key order in the comparison
    assert bodies[0] == bodies[1]


def test_non_ascii_level_name_under_an_ascii_locale(tmp_path):
    """The bundle is UTF-8 whatever the locale: a level named with a
    non-ASCII character runs under the C locale with UTF-8 mode off."""
    ds = make_imbalanced6(n=600)
    data = tmp_path / "six.csv"
    with open(data, "w") as fh:
        fh.write(",".join(ds.feature_names) + ",class\n")
        for row, y in zip(ds.features, ds.labels):
            fh.write(",".join(f"{v:.6f}" for v in row) + f",{ds.class_names[y]}\n")
    levels = group_hierarchy().to_list()
    levels[0]["name"] = "grade \u2265 2"
    hier = tmp_path / "hierarchy.json"
    hier.write_text(json.dumps(levels, ensure_ascii=False), encoding="utf-8")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    env.update(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0", PYTHONPATH=str(src),
               OPENBLAS_NUM_THREADS="1")
    encoding = subprocess.run(
        [sys.executable, "-c", "import locale; print(locale.getpreferredencoding(False))"],
        env=env, capture_output=True, text=True, check=True).stdout.strip()
    assert codecs.lookup(encoding).name == "ascii"
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "genflow.cli", "--data", str(data), "--label-col", "class",
         "--hierarchy", str(hier), "--families", "multinomial_logreg,logreg",
         "--grid-preset", "thin", "--fold-count", "3", "--train-fraction", "0.5",
         "--seed", "3", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((out / "report.json").read_text())["route"] == "multiclass_hierarchical"
    svg = (out / "plots" / "dimsweep_hierarchy_grade___2.svg").read_text(encoding="utf-8")
    assert "hierarchy:grade \u2265 2" in svg
