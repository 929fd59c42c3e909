import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genflow import (
    DataError,
    Dataset,
    encode_sign_labels,
    load_dataset,
    load_hierarchy_spec,
    stratified_split,
)
from genflow.dataset import train_count


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for r in rows:
            fh.write(",".join(str(v) for v in r) + "\n")
    return path


class TestLoader:
    def test_basic_load(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", ["a", "b", "cls"],
                      [[1, 2, 0], [3, 4, 1], [5, 6, 0]])
        ds = load_dataset(p, "cls")
        assert ds.n_samples == 3
        assert ds.n_features == 2
        assert ds.feature_names == ("a", "b")
        assert list(ds.labels) == [0, 1, 0]

    def test_raw_labels_reindexed_by_ascending_value(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", ["x", "cls"],
                      [[1.0, 5], [2.0, 9], [3.0, 5]])
        ds = load_dataset(p, "cls")
        assert list(ds.labels) == [0, 1, 0]
        assert ds.class_names == ("5", "9")
        assert ds.n_classes == 2

    def test_label_column_by_index(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", ["cls", "x"], [[0, 1.5], [1, 2.5]])
        ds = load_dataset(p, 0)
        assert ds.feature_names == ("x",)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot open"):
            load_dataset(tmp_path / "nope.csv", "cls")

    def test_missing_label_column(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", ["a", "b"], [[1, 2], [3, 4]])
        with pytest.raises(DataError, match="label column"):
            load_dataset(p, "cls")

    def test_unparsable_cell_fail_policy(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", ["a", "cls"], [[1, 0], ["?", 1], [3, 1]])
        with pytest.raises(DataError, match="unparsable"):
            load_dataset(p, "cls", na_policy="fail")

    def test_unparsable_cell_drop_policy(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", ["a", "cls"],
                      [[1, 0], ["?", 1], [3, 1], [4, 0]])
        with pytest.warns(UserWarning, match="dropped 1"):
            ds = load_dataset(p, "cls", na_policy="drop_row")
        assert ds.n_samples == 3

    def test_single_class_rejected(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", ["a", "cls"], [[1, 7], [2, 7]])
        with pytest.raises(DataError, match="fewer than 2"):
            load_dataset(p, "cls")

    def test_tab_delimiter(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("a\tcls\n1\t0\n2\t1\n")
        ds = load_dataset(p, "cls", delimiter="\t")
        assert ds.n_samples == 2

    def test_loader_idempotence(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", ["a", "b", "cls"],
                      [[1.25, -3, 0], [2.5, 4, 1], [0.1, 9, 1]])
        d1 = load_dataset(p, "cls")
        d2 = load_dataset(p, "cls")
        assert np.array_equal(d1.features, d2.features)
        assert np.array_equal(d1.labels, d2.labels)
        assert d1.class_names == d2.class_names

    def test_nonfinite_rejected(self):
        with pytest.raises(DataError, match="non-finite"):
            Dataset(np.array([[1.0], [np.nan]]), np.array([0, 1]),
                    ("a",), ("x", "y"))


class TestSplit:
    def test_wbc_proportions(self):
        # 683 samples split 444/239 at fraction 0.30 -> 133+72 train, 478 test
        rng = np.random.default_rng(0)
        y = np.array([0] * 444 + [1] * 239)
        X = rng.normal(size=(683, 3))
        ds = Dataset(X, y, ("a", "b", "c"), ("n", "p"))
        sp = stratified_split(ds, 0.30, seed=1)
        assert sp.train.n_samples == 205
        assert sp.test.n_samples == 478
        assert list(sp.train.class_counts()) == [133, 72]

    def test_half_split_symmetry(self):
        ds = Dataset(np.arange(40).reshape(20, 2), [0] * 10 + [1] * 10,
                     ("a", "b"), ("x", "y"))
        sp = stratified_split(ds, 0.5, seed=0)
        assert list(sp.train.class_counts()) == [5, 5]

    def test_small_class_rejected(self):
        ds = Dataset(np.ones((11, 1)) * np.arange(11)[:, None],
                     [0] * 10 + [1], ("a",), ("x", "y"))
        with pytest.raises(DataError, match="need >= 2"):
            stratified_split(ds, 0.3, seed=0)

    def test_same_seed_identical(self, binary_ds):
        a = stratified_split(binary_ds, 0.3, seed=42)
        b = stratified_split(binary_ds, 0.3, seed=42)
        assert np.array_equal(a.train_index, b.train_index)
        assert np.array_equal(a.test_index, b.test_index)

    def test_different_seed_differs(self, binary_ds):
        a = stratified_split(binary_ds, 0.3, seed=1)
        b = stratified_split(binary_ds, 0.3, seed=2)
        assert not np.array_equal(a.train_index, b.train_index)

    def test_underdetermined_warns(self):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.normal(size=(10, 8)), [0] * 5 + [1] * 5,
                     tuple(f"f{i}" for i in range(8)), ("x", "y"))
        with pytest.warns(UserWarning, match="unstable"):
            stratified_split(ds, 0.3, seed=0)

    @settings(max_examples=40, deadline=None)
    @given(
        sizes=st.lists(st.integers(2, 60), min_size=2, max_size=4),
        frac=st.floats(0.05, 0.95),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_partition_and_stratification(self, sizes, frac, seed):
        rng = np.random.default_rng(0)
        y = np.concatenate([np.full(s, i) for i, s in enumerate(sizes)])
        ds = Dataset(rng.normal(size=(len(y), 2)), y, ("a", "b"),
                     tuple(f"c{i}" for i in range(len(sizes))))
        import warnings as w
        with w.catch_warnings():
            w.simplefilter("ignore")
            sp = stratified_split(ds, frac, seed=seed)
        union = np.sort(np.concatenate([sp.train_index, sp.test_index]))
        assert np.array_equal(union, np.arange(len(y)))
        for i, s in enumerate(sizes):
            got = int((sp.train.labels == i).sum())
            want = min(max(train_count(s, frac), 1), s - 1)
            assert got == want
            if 1 <= train_count(s, frac) <= s - 1:
                assert abs(got - frac * s) <= 0.5


class TestSignEncoding:
    def test_basic(self, binary_ds):
        signs = encode_sign_labels(binary_ds)
        assert set(np.unique(signs)) <= {-1, 1}
        assert np.array_equal(signs == -1, binary_ds.labels == 0)

    def test_example(self):
        ds = Dataset(np.zeros((3, 1)) + np.arange(3)[:, None],
                     [0, 1, 0], ("a",), ("x", "y"))
        assert list(encode_sign_labels(ds)) == [-1, 1, -1]

    def test_round_trip(self, binary_ds):
        assert np.array_equal(
            np.where(encode_sign_labels(binary_ds) < 0, 0, 1), binary_ds.labels
        )

    def test_rejects_multiclass(self, multiclass_ds):
        with pytest.raises(DataError, match="binary"):
            encode_sign_labels(multiclass_ds)


def test_train_count_round_half_up():
    assert train_count(10, 0.25) == math.floor(2.5 + 0.5) == 3
    assert train_count(444, 0.30) == 133
    assert train_count(239, 0.30) == 72


# Byte fragments that make files close to CSV: cells, separators, quotes,
# line ends, NUL, bytes that are not UTF-8 and numbers that do not parse.
FRAGMENTS = [b"1", b"2.5", b"-0", b"x", b"nan", b"1e999", b",", b";", b"\t", b'"',
             b"\n", b"\r\n", b"\r", b"\x00", b"\xff", b"\xc3", b"\xc3\xa9", b" "]


@st.composite
def near_csv_bytes(draw):
    """A header and rows of two feature cells and a label, some cells not
    numbers, with up to three fragments spliced in anywhere."""
    cells = st.sampled_from([b"1", b"2.5", b"-0", b"7", b"x", b"nan", b"1e999", b""])
    rows = draw(st.lists(st.tuples(cells, cells, st.sampled_from([b"p", b"q", b"3"])),
                         max_size=12))
    text = b"\n".join([b"a,b,label"] + [b",".join(r) for r in rows]) + b"\n"
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from(FRAGMENTS)) + text[i:]
    return text


class TestLoaderRaisesOnlyDataError:
    @pytest.mark.filterwarnings("ignore:.*dropped")
    @settings(max_examples=300, deadline=None)
    @given(content=near_csv_bytes()
           | st.lists(st.sampled_from(FRAGMENTS), max_size=60).map(b"".join)
           | st.binary(max_size=200),
           label_column=st.sampled_from(["label", "a", 0, -1, "2", "-9"]),
           na_policy=st.sampled_from(["fail", "drop_row"]),
           delimiter=st.sampled_from([",", ";", "\t", '"']))
    def test_arbitrary_bytes_load_or_raise_data_error(self, tmp_path_factory, content,
                                                      label_column, na_policy, delimiter):
        path = tmp_path_factory.mktemp("bytes") / "data.csv"
        path.write_bytes(content)
        try:
            data = load_dataset(path, label_column, na_policy=na_policy,
                                delimiter=delimiter)
        except DataError:
            return
        assert data.n_classes >= 2
        assert np.all(np.isfinite(data.features))

    def test_non_utf8_byte_exit_2(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_bytes(b"a,b,label\n1,2,x\n3,\xff4,y\n")
        self.assert_exit_2(path, [], capsys)

    def test_field_over_csv_limit_exit_2(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_text("a,label\n" + "1" * 131073 + ",x\n2,y\n")
        self.assert_exit_2(path, [], capsys)

    def test_multi_character_delimiter_exit_2(self, tmp_path, capsys):
        path = write_csv(tmp_path / "data.csv", ["a", "label"], [[1, "x"], [2, "y"]])
        self.assert_exit_2(path, ["--delimiter", ";;"], capsys)

    # A second label column would stay in as a feature; twin features could
    # not be told apart in a saved model document.
    @pytest.mark.parametrize("header, repeated", [(["f0", "label", "label"], "'label'"),
                                                  (["f0", "f0", "label"], "'f0'")])
    def test_repeated_column_names_exit_2(self, tmp_path, capsys, header, repeated):
        from genflow.cli import main

        path = write_csv(tmp_path / "data.csv", header, [[1, 0, 0], [2, 1, 1]] * 20)
        out = tmp_path / "out"
        assert main(["--data", str(path), "--label-col", "label", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and f"repeated column names [{repeated}]" in err
        assert not out.exists()

    def test_empty_label_fail_policy_exit_2(self, tmp_path, capsys):
        from genflow.cli import main

        path = write_csv(tmp_path / "data.csv", ["f0", "f1", "label"],
                         [[1, 2, "a"], [3, 4, ""], [5, 6, "b"]] * 10)
        out = tmp_path / "out"
        assert main(["--data", str(path), "--label-col", "label", "--out", str(out)]) == 2
        assert f"{path}:3: empty label in column 'label'" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def assert_exit_2(path, extra, capsys):
        from genflow.cli import main

        out = path.parent / "out"
        assert main(["--data", str(path), "--label-col", "label", "--out", str(out),
                     *extra]) == 2
        assert "data error" in capsys.readouterr().err
        assert not out.exists()


class TestLoaderText:
    def test_empty_label_drop_policy(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", ["f0", "f1", "class"],
                      [[1, 2, "a"], [3, 4, ""], [5, 6, "b"], [7, 8, " "]])
        with pytest.warns(UserWarning, match="dropped 2 rows"):
            ds = load_dataset(p, "class", na_policy="drop_row")
        assert ds.class_names == ("a", "b")
        assert ds.features.tolist() == [[1.0, 2.0], [5.0, 6.0]]

    # Spreadsheet tools that save "CSV UTF-8" start the file with a BOM.
    @pytest.mark.parametrize("text", ["class,f0,f1\n0,1,2\n1,3,4\n",
                                      "f0,f1,class\n1,2,0\n3,4,1\n"])
    def test_byte_order_mark_is_not_part_of_a_name(self, tmp_path, text):
        p = tmp_path / "t.csv"
        p.write_text(text, encoding="utf-8-sig")
        ds = load_dataset(p, "class")
        assert ds.feature_names == ("f0", "f1")
        assert ds.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_hierarchy_file_with_byte_order_mark(self, tmp_path):
        p = tmp_path / "h.json"
        p.write_text('[{"name": "top", "positive": [0], "negative": [1, 2]}]',
                     encoding="utf-8-sig")
        spec = load_hierarchy_spec(p)
        assert spec.to_list() == [{"name": "top", "positive": [0], "negative": [1, 2]}]

    def test_hierarchy_file_not_utf8_is_a_data_error(self, tmp_path):
        p = tmp_path / "h.json"
        p.write_bytes(b'[{"name": "t\xff", "positive": [0], "negative": [1]}]')
        with pytest.raises(DataError, match="invalid hierarchy document"):
            load_hierarchy_spec(p)


    def test_nan_label_sorts_as_text_in_every_interpreter(self, tmp_path):
        # NaN compares false with every number, so a sort keyed on the
        # parsed label left the order to set iteration, which follows the
        # string-hash seed; seeds 0 and 2 gave different orders.
        p = write_csv(tmp_path / "t.csv", ["x", "cls"],
                      [[i, label] for i, label in enumerate(["nan", "1", "2", "10"] * 2)])
        src = Path(__file__).resolve().parents[1] / "src"
        code = ("import sys; from genflow import load_dataset; "
                "print(load_dataset(sys.argv[1], 'cls').class_names)")
        names = []
        for hash_seed in ("0", "2"):
            env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed)
            proc = subprocess.run([sys.executable, "-c", code, str(p)], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            names.append(proc.stdout.strip())
        assert names == [str(("1", "2", "10", "nan"))] * 2


def test_loader_peak_stays_near_its_array(tmp_path):
    """A telescope-shaped CSV loads within twice its feature array's bytes."""
    rng = np.random.default_rng(0)
    n, d = 19020, 10
    path = tmp_path / "big.csv"
    np.savetxt(path, np.column_stack([rng.normal(size=(n, d)), rng.integers(0, 2, n)]),
               fmt=["%.6f"] * d + ["%d"], delimiter=",", comments="",
               header=",".join([f"f{i}" for i in range(d)] + ["class"]))
    tracemalloc.start()
    try:
        data = load_dataset(path, "class")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert data.features.shape == (n, d)
    assert peak <= 2 * data.features.nbytes, peak / data.features.nbytes


FINITE = (st.floats(allow_nan=False, allow_infinity=False)
          | st.sampled_from([-0.0, 5e-324, -2.225073858507201e-308,
                             sys.float_info.max, -sys.float_info.max]))


@st.composite
def clean_and_spoiled_rows(draw):
    """Clean rows of finite doubles labelled a or b (both present), with
    rows that have one unparsable feature cell or an empty label mixed in."""
    d = draw(st.integers(1, 4))
    row = st.lists(FINITE, min_size=d, max_size=d)
    clean = draw(st.lists(row, min_size=2, max_size=20))
    labels = ["a", "b"] + draw(st.lists(st.sampled_from("ab"), min_size=len(clean) - 2,
                                        max_size=len(clean) - 2))
    records = [[repr(v) for v in r] + [label] for r, label in zip(clean, labels)]
    spoiled = draw(st.integers(0, 5))
    for _ in range(spoiled):
        rec = [repr(v) for v in draw(row)] + [draw(st.sampled_from("ab"))]
        col = draw(st.integers(0, d))
        rec[col] = draw(st.sampled_from(["", " "] if col == d
                                        else ["x", "", "nan", "-inf", "1e999"]))
        records.insert(draw(st.integers(0, len(records))), rec)
    return d, clean, labels, records, spoiled


@settings(max_examples=150, deadline=None)
@given(case=clean_and_spoiled_rows())
def test_every_bit_of_every_kept_cell_survives(tmp_path_factory, case):
    d, clean, labels, records, spoiled = case
    path = write_csv(tmp_path_factory.mktemp("bits") / "t.csv",
                     [f"f{i}" for i in range(d)] + ["cls"], records)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        data = load_dataset(path, "cls", na_policy="drop_row")
    assert data.features.tobytes() == np.array(clean, dtype=float).tobytes()
    assert data.class_names == ("a", "b")
    assert data.labels.tolist() == ["ab".index(label) for label in labels]
    assert [str(w.message) for w in caught] == (
        [f"{path}: dropped {spoiled} rows with unparsable cells or empty labels"]
        if spoiled else [])
