import csv
import os
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fehd import data
from fehd.data import (CategoricalColumn, DataError, Dataset, FactorIndex,
                       NumericColumn, build_mask, evaluate_subset,
                       first_appearance_codes, load_csv, make_factor_index,
                       panel_shift, SampleMask)
from fehd.estimators import fit_ols, fixef

from oracles import scipubs_like


def write(tmp_path, text, name="d.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


RAGGED = [
    ("a,b\n1,2\n3\n", "row 3 has 1 fields, expected 2"),
    ("a,b\n1,2\n\n3\n", "row 4 has 1 fields, expected 2"),
    ("a,b\n1,2,3\n4,5\n", "row 2 has 3 fields, expected 2"),
    ('a,b\n1,2\n"3,4\n', "row 3 has 1 fields, expected 2"),
]


class TestLoadCsv:
    def test_basic(self, tmp_path):
        ds = load_csv(write(tmp_path, "y,x,fe\n1,2,a\n3,4,b\n5,6,a\n7,8,c\n"))
        assert ds.n_rows == 4
        assert isinstance(ds.columns["y"], NumericColumn)
        assert isinstance(ds.columns["fe"], CategoricalColumn)
        assert ds.columns["fe"].levels == ("a", "b", "c")

    def test_missing_numeric(self, tmp_path):
        ds = load_csv(write(tmp_path, "y,x\n1,\n2,5\n,6\n"))
        assert np.isnan(ds.numeric("y")[2]) and np.isnan(ds.numeric("x")[0])

    def test_na_string_is_missing(self, tmp_path):
        ds = load_csv(write(tmp_path, "y\n1\nNA\n3\n"))
        assert np.isnan(ds.numeric("y")[1])

    def test_duplicate_header(self, tmp_path):
        with pytest.raises(DataError, match="duplicate"):
            load_csv(write(tmp_path, "a,a\n1,2\n"))

    def test_ragged(self, tmp_path):
        with pytest.raises(DataError, match="row 3"):
            load_csv(write(tmp_path, "a,b\n1,2\n3\n"))

    def test_zero_rows(self, tmp_path):
        with pytest.raises(DataError, match="no data rows"):
            load_csv(write(tmp_path, "a,b\n"))

    def test_unreadable(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_csv(str(tmp_path / "absent.csv"))

    @pytest.mark.parametrize("text, expected", [
        pytest.param('g,y\n"a,b",1\nc,2\n', {"g": ["a,b", "c"], "y": [1, 2]},
                     id="quoted-comma"),
        pytest.param('g,y\n"a\nb",1\nc,2\n', {"g": ["a\nb", "c"], "y": [1, 2]},
                     id="quoted-newline"),
        pytest.param('g,y\n"say ""hi""",1\n', {"g": ['say "hi"'], "y": [1]},
                     id="doubled-quote"),
        pytest.param("g,y\n#a,1\nb,2\n", {"g": ["#a", "b"], "y": [1, 2]},
                     id="hash-is-data"),
        pytest.param("g,y\r\na,1\r\nb,2\r\n", {"g": ["a", "b"], "y": [1, 2]},
                     id="crlf"),
        pytest.param("g,y\n a ,1\na,2\n", {"g": [" a ", "a"], "y": [1, 2]},
                     id="padded-level-kept"),
        pytest.param("g,y\na, NA \n NA ,2\n", {"g": ["a", None], "y": [np.nan, 2]},
                     id="padded-NA-missing"),
        pytest.param("g,y\na,1\n\nb,2\n", {"g": ["a", "b"], "y": [1, 2]},
                     id="blank-line-skipped"),
        pytest.param("y\n 1.5 \n1e3\ninf\n1_0\nnan\n",
                     {"y": [1.5, 1000, np.inf, 10, np.nan]}, id="float-syntax"),
    ])
    def test_tokens(self, tmp_path, text, expected):
        ds = load_csv(write(tmp_path, text))
        assert list(ds.columns) == list(expected)
        for name, want in expected.items():
            col = ds.columns[name]
            if any(isinstance(v, str) for v in want):
                assert isinstance(col, CategoricalColumn)
                assert col.values().tolist() == want
            else:
                np.testing.assert_array_equal(ds.numeric(name), np.array(want, float))

    @pytest.mark.parametrize("text, message", RAGGED)
    def test_ragged_row_named(self, tmp_path, text, message):
        with pytest.raises(DataError, match=message):
            load_csv(write(tmp_path, text))

    @pytest.mark.parametrize("columns", [["a"], ["b"], []])
    @pytest.mark.parametrize("text, message", RAGGED + [
        ("a,b\n1,x\n3\n", "row 3 has 1 fields, expected 2")])
    def test_ragged_row_named_with_columns(self, tmp_path, text, message, columns):
        # a short or long row counts whether or not its columns are read
        with pytest.raises(DataError, match=message):
            load_csv(write(tmp_path, text), columns=columns)

    @pytest.mark.parametrize("text", ["a,b\n", "a,b\n\n\n"])
    def test_empty_body_raises_without_warning(self, tmp_path, text):
        path = write(tmp_path, text)
        for columns in (None, ["a"]):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(DataError, match="no data rows"):
                    load_csv(path, columns=columns)
            assert caught == []

    def test_columns_selects_in_header_order(self, tmp_path):
        path = write(tmp_path, "y,g,x,note\n1,a,2,日本語\n3,b,4,\"é, ü\"\n")
        ds = load_csv(path, columns=["x", "y", "absent"])
        assert list(ds.columns) == ["y", "x"] and ds.n_rows == 2
        np.testing.assert_array_equal(ds.numeric("x"), [2.0, 4.0])
        ds = load_csv(path, columns=["note", "g"])
        assert ds.columns["note"].levels == ("日本語", "é, ü")
        assert load_csv(path, columns=[]).columns == {}

    def test_unread_column_not_utf8_still_raises(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b"y,g\n1,a\n2,\xff\n")
        with pytest.raises(DataError, match="not UTF-8"):
            load_csv(str(p), columns=["y"])

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_read_in_one_pass(self):
        # more than one read buffer, less than the pipe's capacity
        body = "".join(f"{k}.5,g{k}\n" for k in range(3000))
        r, w = os.pipe()
        os.write(w, ("y,g\n" + body).encode())
        os.close(w)
        try:
            ds = load_csv(f"/dev/fd/{r}", columns=["y"])
        finally:
            os.close(r)
        np.testing.assert_array_equal(ds.numeric("y"), np.arange(3000) + 0.5)

    @pytest.mark.parametrize("sep", ["\x1c", "\x1f"])
    def test_information_separator_is_not_space(self, tmp_path, sep):
        # float() rejects a number padded with one; numpy's parser would strip it
        ds = load_csv(write(tmp_path, f"y,x\n{sep}1,1\n2,2\n"))
        assert ds.columns["y"].levels == (f"{sep}1", "2")
        assert isinstance(ds.columns["x"], NumericColumn)

    @pytest.mark.parametrize("block_rows", [1, 2, 4])
    def test_strings_after_typed_blocks(self, tmp_path, monkeypatch, block_rows):
        # rows 1-4 parse as floats; the cells after them do not
        monkeypatch.setattr(data, "TYPED_BLOCK_ROWS", block_rows)
        path = write(tmp_path, "g,y,x\n1.0,1,0\n2,2,0\n1,3,0\n2,4,0\n1e0,NA,0\nb,6,0\n")
        ds = load_csv(path)
        assert ds.columns["g"].levels == ("1.0", "2", "1", "1e0", "b")
        assert ds.columns["g"].codes.tolist() == [0, 1, 2, 1, 3, 4]
        np.testing.assert_array_equal(ds.numeric("y"), [1, 2, 3, 4, np.nan, 6])
        np.testing.assert_array_equal(ds.numeric("x"), np.zeros(6))
        with pytest.raises(DataError, match="row 7 has 2 fields, expected 3"):
            load_csv(write(tmp_path, "g,y,x\n1,1,0\n2,2,0\n3,3,0\n4,4,0\nNA,5,0\n6,6\n"),
                     columns=["y"])

    def test_not_utf8_after_typed_blocks(self, tmp_path):
        # past the first read buffer: a retry from the failing block must not
        # skip the bytes that did not decode
        body = "".join(f"{k},{k}\n" for k in range(20000)).encode()
        p = tmp_path / "d.csv"
        p.write_bytes(b"a,b\n" + body[:50000] + b"\xff" + body[50000:])
        with pytest.raises(DataError, match="not UTF-8"):
            load_csv(str(p))

    def test_not_utf8(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b"g\n\xff\n")
        with pytest.raises(DataError, match="not UTF-8"):
            load_csv(str(p))


MISSING = {"", "NA", "NaN", "nan"}


def reference_load_csv(path):
    """The loader's semantics, one cell at a time: csv.reader and float()."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    columns = {}
    for k, name in enumerate(header):
        cells = [row[k] for row in rows]
        missing = [c.strip() in MISSING for c in cells]
        try:
            columns[name] = np.array(
                [np.nan if m else float(c) for c, m in zip(cells, missing)])
            continue
        except ValueError:
            pass
        levels = {}
        codes = [-1 if m else levels.setdefault(c, len(levels))
                 for c, m in zip(cells, missing)]
        columns[name] = (codes, tuple(levels))
    return len(rows), columns


# numbers numpy's float parser reads as float() does, borderline ones included
NUMBER_TOKENS = ["0", "-2.5", " 1.5 ", "1e3", "inf", "-inf", "nan", "NaN",
                 "\xa01", "-nan", "Infinity", "1e400"]
# missing values, and numbers only float() reads (underscores, non-ASCII digits)
FALLBACK_TOKENS = ["NA", " NA ", "", "1_0", "١"]
# float() rejects a number padded with an information separator; numpy does not
TEXT_TOKENS = ["a", " b ", "#c", "x,y", "p\nq", 'say "hi"', "é", "NA x", "日本語",
               "\x1c1"]


@st.composite
def csv_tables(draw):
    n_cols = draw(st.integers(1, 4))
    n_rows = draw(st.integers(1, 6))
    columns = []
    for _ in range(n_cols):
        tokens = NUMBER_TOKENS + (FALLBACK_TOKENS if draw(st.booleans()) else []) \
            + (TEXT_TOKENS if draw(st.booleans()) else [])
        columns.append(draw(st.lists(st.sampled_from(tokens),
                                     min_size=n_rows, max_size=n_rows)))
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    terminator = draw(st.sampled_from(["\n", "\r\n"]))
    read = draw(st.none() | st.lists(st.sampled_from(
        [f"c{k}" for k in range(n_cols)] + ["absent"]), unique=True))
    block_rows = draw(st.sampled_from([1, 2, 3, data.TYPED_BLOCK_ROWS]))
    return columns, quoting, terminator, read, block_rows


@given(csv_tables())
@settings(max_examples=200, deadline=None)
def test_load_csv_matches_cellwise_reference(tmp_path_factory, table):
    columns, quoting, terminator, read, block_rows = table
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, quoting=quoting, lineterminator=terminator)
        writer.writerow([f"c{k}" for k in range(len(columns))])
        writer.writerows(zip(*columns))
    n_rows, expected = reference_load_csv(path)
    if read is not None:
        expected = {name: want for name, want in expected.items() if name in read}
    with mock.patch.object(data, "TYPED_BLOCK_ROWS", block_rows):
        ds = load_csv(str(path), columns=read)
    assert ds.n_rows == n_rows and list(ds.columns) == list(expected)
    for name, want in expected.items():
        col = ds.columns[name]
        if isinstance(want, tuple):
            assert isinstance(col, CategoricalColumn)
            assert col.codes.tolist() == want[0] and col.levels == want[1]
        else:
            assert isinstance(col, NumericColumn)
            assert col.values.tobytes() == want.tobytes()


class TestBuildMask:
    def test_na_lhs_counted(self):
        y = np.ones(153)
        y[:37] = np.nan
        ds = Dataset(n_rows=153, columns={
            "y": NumericColumn(y), "x": NumericColumn(np.ones(153)),
            "m": NumericColumn(np.repeat(np.arange(5.0), 31)[:153])})
        mask = build_mask(ds, {"lhs": ["y"], "rhs": ["x"], "fe": ["m"]})
        assert mask.reason_counts == {"NA-LHS": 37}
        assert mask.n_used == 116

    def test_all_true_when_clean(self):
        ds = Dataset(n_rows=5, columns={"y": NumericColumn(np.arange(5.0))})
        mask = build_mask(ds, {"lhs": ["y"]})
        assert mask.n_used == 5 and mask.reason_counts == {}

    def test_priority_order(self):
        y = np.array([np.nan, 1.0, np.nan, 1.0])
        x = np.array([np.nan, np.nan, 1.0, 1.0])
        ds = Dataset(n_rows=4, columns={"y": NumericColumn(y), "x": NumericColumn(x)})
        mask = build_mask(ds, {"lhs": ["y"], "rhs": ["x"]})
        assert mask.reason_counts == {"NA-LHS": 2, "NA-RHS": 1}

    def test_infinite_values_counted_as_na(self):
        y = np.array([1.0, np.inf, 2.0, 3.0, 4.0])
        x = np.array([1.0, 2.0, -np.inf, np.nan, 5.0])
        ds = Dataset(n_rows=5, columns={"y": NumericColumn(y), "x": NumericColumn(x)})
        mask = build_mask(ds, {"lhs": ["y"], "rhs": ["x"]})
        assert mask.reason_counts == {"NA-LHS": 1, "NA-RHS": 2}
        assert mask.keep.tolist() == [True, False, False, False, True]

    def test_unknown_variable(self):
        ds = Dataset(n_rows=2, columns={"y": NumericColumn(np.ones(2))})
        with pytest.raises(DataError, match="unknown variable 'z'"):
            build_mask(ds, {"lhs": ["z"]})

    def test_split_level_counts(self):
        ds = scipubs_like()
        eu = evaluate_subset(ds, "eu_us == EU")
        mask = build_mask(ds, {"lhs": ["articles"], "rhs": ["funding"]},
                          split_keep=eu)
        assert mask.n_used == 550
        us = evaluate_subset(ds, "eu_us == US")
        mask2 = build_mask(ds, {"lhs": ["articles"]}, split_keep=us)
        assert mask2.n_used == 530

    def test_monotone_in_variables(self, rng):
        n = 200
        cols = {f"c{k}": NumericColumn(
            np.where(rng.random(n) < 0.1, np.nan, rng.normal(size=n)))
            for k in range(4)}
        ds = Dataset(n_rows=n, columns=cols)
        used = []
        kept = []
        for k in range(4):
            used.append(f"c{k}")
            kept.append(build_mask(ds, {"rhs": list(used)}).n_used)
        assert all(a >= b for a, b in zip(kept, kept[1:]))


class TestFactorIndex:
    def test_combined_all_observed(self):
        o = np.repeat(np.arange(15.0), 20)
        p = np.tile(np.arange(20.0), 15)
        ds = Dataset(n_rows=300, columns={"o": NumericColumn(o), "p": NumericColumn(p)})
        mask = build_mask(ds, {})
        idx = make_factor_index(ds, mask, ["o", "p"])
        assert idx.n_groups == 300

    def test_single_level(self):
        ds = Dataset(n_rows=4, columns={"g": NumericColumn(np.ones(4))})
        idx = make_factor_index(ds, build_mask(ds, {}), ["g"])
        assert idx.n_groups == 1
        assert idx.group_of_row.tolist() == [0, 0, 0, 0]

    def test_unobserved_tuple_absent(self):
        a = np.array([0.0, 0, 1, 1])
        b = np.array([0.0, 1, 0, 1])
        ds = Dataset(n_rows=4, columns={"a": NumericColumn(a), "b": NumericColumn(b[::-1])})
        # tuples observed: (0,1),(0,0),(1,1),(1,0) reversed order -> 4 groups; now
        # restrict to 3 rows so one tuple is never co-observed
        mask = SampleMask(keep=np.array([True, True, True, False]))
        idx = make_factor_index(ds, mask, ["a", "b"])
        assert idx.n_groups == 3

    def test_first_appearance_numbering(self):
        g = np.array([7.0, 3.0, 7.0, 5.0])
        ds = Dataset(n_rows=4, columns={"g": NumericColumn(g)})
        idx = make_factor_index(ds, build_mask(ds, {}), ["g"])
        assert idx.group_of_row.tolist() == [0, 1, 0, 2]

    def test_combining_equals_tuple_partition(self, rng):
        n = 300
        a = rng.integers(0, 7, n).astype(float)
        b = rng.integers(0, 5, n).astype(float)
        ds = Dataset(n_rows=n, columns={"a": NumericColumn(a), "b": NumericColumn(b),
                                        "t": NumericColumn(a * 100 + b)})
        mask = build_mask(ds, {})
        combined = make_factor_index(ds, mask, ["a", "b"])
        direct = make_factor_index(ds, mask, ["t"])
        assert np.array_equal(combined.group_of_row, direct.group_of_row)

    def test_levels_label_each_group_at_its_first_kept_row(self, rng):
        g = np.array([7.0, -3.0, 7.0, 5.0, -3.0, 12.0])
        c = CategoricalColumn(codes=np.array([1, 0, 1, 2, 1, 0], dtype=np.int32),
                              levels=("lo", "mid", "hi"))
        ds = Dataset(n_rows=6, columns={"g": NumericColumn(g), "c": c})
        mask = SampleMask(keep=np.array([False, True, True, True, True, True]))
        assert make_factor_index(ds, mask, ["g"]).levels == ("-3", "7", "5", "12")
        assert make_factor_index(ds, mask, ["c"]).levels == ("lo", "mid", "hi")
        idx = make_factor_index(ds, mask, ["g", "c"])
        assert idx.levels == ("-3^lo", "7^mid", "5^hi", "-3^mid", "12^lo")
        assert idx.levels is idx.levels  # built once, on first read

        # larger masked draws label as the eager per-group formula did
        n = 500
        g = rng.integers(-40, 40, n).astype(float)
        c = CategoricalColumn(codes=rng.integers(0, 6, n).astype(np.int32),
                              levels=tuple(f"L{k}" for k in range(6)))
        ds = Dataset(n_rows=n, columns={"g": NumericColumn(g), "c": c})
        mask = SampleMask(keep=rng.random(n) < 0.7)
        kept = np.flatnonzero(mask.keep)
        for factors in (["g"], ["c"], ["g", "c"]):
            idx = make_factor_index(ds, mask, factors)
            labels = {}
            for code, row in zip(idx.group_of_row.tolist(), kept.tolist()):
                labels.setdefault(code, "^".join(
                    c.levels[c.codes[row]] if name == "c" else str(int(g[row]))
                    for name in factors))
            assert idx.levels == tuple(labels[k] for k in range(idx.n_groups))

    def test_direct_index_has_no_levels_and_fixef_numbers_groups(self, rng):
        n = 80
        f = rng.integers(10, 15, n).astype(float)
        x = rng.normal(size=n)
        ds = Dataset(n_rows=n, columns={"y": NumericColumn(x + f + rng.normal(size=n)),
                                        "x": NumericColumn(x), "f": NumericColumn(f)})
        fit = fit_ols("y ~ x | f", ds, demean_tol=1e-12)
        labelled, _ = fixef(fit)
        (dim,) = fit.design.dims
        idx = dim.index
        direct = FactorIndex(idx.group_of_row, idx.n_groups)
        assert direct.levels == ()
        fit.design.dims = [replace(dim, index=direct)]
        numbered, _ = fixef(fit)
        assert numbered["f"].levels == [str(k) for k in range(idx.n_groups)]
        assert labelled["f"].levels == list(idx.levels)
        assert np.array_equal(numbered["f"].coef, labelled["f"].coef)

    def test_non_integer_factor_rejected(self):
        ds = Dataset(n_rows=3, columns={"g": NumericColumn(np.array([1.0, 2.5, 3.0]))})
        with pytest.raises(DataError, match="non-integer"):
            make_factor_index(ds, build_mask(ds, {}), ["g"])

    @pytest.mark.parametrize("big", [1e20, 2.0 ** 63, -2.0 ** 64])
    def test_factor_beyond_int64_rejected(self, big):
        # cast to int64, these values would all fall into one group
        rng = np.random.default_rng(0)
        ds = Dataset(n_rows=40, columns={
            "y": NumericColumn(rng.normal(size=40)), "x": NumericColumn(rng.normal(size=40)),
            "g": NumericColumn(np.where(np.arange(40) % 2 == 0, big, 3.0 * big))})
        with pytest.raises(DataError, match="factor 'g' has values beyond the 64-bit"):
            fit_ols("y ~ x | g", ds)

    @pytest.mark.parametrize("whole", [True, False], ids=["whole", "masked"])
    @pytest.mark.parametrize("column, message", [
        pytest.param(NumericColumn(np.array([1.0, np.nan, 3.0, 4.0])),
                     "has missing values inside the sample", id="nan"),
        pytest.param(NumericColumn(np.array([1.0, 2.5, 3.0, 4.0])),
                     "numeric non-integer column 'g' used as factor", id="non-integer"),
        pytest.param(CategoricalColumn(codes=np.array([0, -1, 1, 0], dtype=np.int32),
                                       levels=("a", "b")),
                     "has missing values inside the sample", id="categorical-missing")])
    def test_bad_factor_value_names_its_error(self, whole, column, message):
        # a mask that keeps the column whole reads it without a copy
        ds = Dataset(n_rows=4, columns={"g": column})
        with pytest.raises(DataError, match=message):
            make_factor_index(ds, SampleMask(keep=np.array([True, True, True, whole])), ["g"])


def unique_codes(values):
    """First-appearance codes through the ``np.unique`` sort."""
    uniq, first_idx, inv = np.unique(values, return_index=True, return_inverse=True)
    order = np.argsort(first_idx, kind="stable")
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[order] = np.arange(len(uniq))
    return rank[inv.ravel()], len(uniq), np.sort(first_idx)


@st.composite
def code_inputs(draw):
    n = draw(st.integers(0, 40))
    kind = draw(st.sampled_from(["int8", "int32", "int64", "uint8", "uint64",
                                 "span", "str", "float"]))
    if kind == "float":  # integer-valued, as factor columns are
        return np.array(draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n)),
                        dtype=np.float64)
    if kind == "str":
        return np.array(draw(st.lists(st.sampled_from(["a", "b", "", "é", "x,y"]),
                                      min_size=n, max_size=n)), dtype=object)
    if kind == "span":  # max - min + 1 just below, at, or just above 2n + 1024
        if n < 2:
            return np.zeros(n, dtype=np.int64)
        lo = draw(st.integers(-2**62, 2**62))
        span = 2 * n + 1024 + draw(st.sampled_from([-1, 0, 1]))
        inner = draw(st.lists(st.integers(lo, lo + span - 1), min_size=n - 2,
                              max_size=n - 2))
        return np.array([lo + span - 1] + inner + [lo], dtype=np.int64)
    info = np.iinfo(kind)
    bounds = st.integers(info.min, info.max)
    small = draw(st.booleans())  # a narrow value range, or the type's whole range
    if small:  # the type's ends included: uint64 values above the int64 range
        lo = draw(st.one_of(st.sampled_from([info.min, info.max - 60]), bounds))
        bounds = st.integers(lo, min(lo + draw(st.integers(0, 60)), info.max))
    return np.array(draw(st.lists(bounds, min_size=n, max_size=n)), dtype=kind)


@given(code_inputs())
@settings(max_examples=300, deadline=None)
def test_first_appearance_codes_match_unique_sort(values):
    given_values = values.copy()
    codes, n, first_rows = first_appearance_codes(values, return_first_rows=True)
    assert np.array_equal(values, given_values)  # the input is left as it was
    want_codes, want_n, want_rows = unique_codes(values)
    assert codes.dtype == want_codes.dtype and np.array_equal(codes, want_codes)
    assert type(n) is type(want_n) and n == want_n
    assert first_rows.dtype == want_rows.dtype and np.array_equal(first_rows, want_rows)
    short = first_appearance_codes(values)
    assert len(short) == 2 and np.array_equal(short[0], codes) and short[1] == n


class TestPanelShift:
    def make_panel(self, n_units=3, n_periods=10):
        unit = np.repeat(np.arange(n_units, dtype=float), n_periods)
        time = np.tile(np.arange(n_periods, dtype=float), n_units)
        rng = np.random.default_rng(1)
        x = rng.normal(size=n_units * n_periods)
        return Dataset(n_rows=len(x), columns={
            "unit": NumericColumn(unit), "time": NumericColumn(time),
            "x": NumericColumn(x)}, panel=("unit", "time")), x

    def test_lag_range(self):
        ds, x = self.make_panel(1, 10)
        cols = panel_shift(ds, "x", "l", (0, 1, 2, 3))
        assert [n for n, _ in cols] == ["l(x,0)", "l(x,1)", "l(x,2)", "l(x,3)"]
        l3 = dict(cols)["l(x,3)"]
        assert np.isnan(l3[:3]).all()
        assert np.allclose(l3[3:], x[:-3])

    def test_lead_then_lag_identity(self):
        ds, x = self.make_panel(2, 8)
        f1 = dict(panel_shift(ds, "x", "f", (1,)))["f(x,1)"]
        ds2 = ds.with_columns({"fx": NumericColumn(f1)})
        back = dict(panel_shift(ds2, "fx", "l", (1,)))["l(fx,1)"]
        interior = ~np.isnan(back)
        assert np.allclose(back[interior], x[interior])

    def test_diff_constant_zero(self):
        ds, _ = self.make_panel(1, 6)
        ds = ds.with_columns({"c": NumericColumn(np.full(6, 3.25))})
        d = dict(panel_shift(ds, "c", "d", (1,)))["d(c,1)"]
        assert np.isnan(d[0]) and np.allclose(d[1:], 0.0)

    def test_offset_zero_identity(self):
        ds, x = self.make_panel(2, 5)
        l0 = dict(panel_shift(ds, "x", "l", (0,)))["l(x,0)"]
        assert np.allclose(l0, x)

    def test_gap_produces_missing(self):
        unit = np.zeros(4)
        time = np.array([1.0, 2.0, 4.0, 5.0])  # gap at 3
        ds = Dataset(n_rows=4, columns={
            "unit": NumericColumn(unit), "time": NumericColumn(time),
            "x": NumericColumn(np.arange(4.0))}, panel=("unit", "time"))
        l1 = dict(panel_shift(ds, "x", "l", (1,)))["l(x,1)"]
        assert np.isnan(l1[0]) and l1[1] == 0.0 and np.isnan(l1[2]) and l1[3] == 2.0

    def test_duplicate_pair_rejected(self):
        ds = Dataset(n_rows=3, columns={
            "unit": NumericColumn(np.zeros(3)), "time": NumericColumn(np.array([1.0, 1.0, 2.0])),
            "x": NumericColumn(np.arange(3.0))}, panel=("unit", "time"))
        with pytest.raises(DataError, match="duplicate"):
            panel_shift(ds, "x", "l", (1,))

    def test_panel_unset_rejected(self):
        ds = Dataset(n_rows=2, columns={"x": NumericColumn(np.zeros(2))})
        with pytest.raises(DataError, match="panel identifiers unset"):
            panel_shift(ds, "x", "l", (1,))


class TestSubset:
    def test_numeric(self):
        ds = Dataset(n_rows=4, columns={"x": NumericColumn(np.array([1.0, 2, 3, np.nan]))})
        assert evaluate_subset(ds, "x >= 2").tolist() == [False, True, True, False]

    def test_categorical(self):
        ds = Dataset(n_rows=3, columns={"g": CategoricalColumn(
            np.array([0, 1, 0], dtype=np.int32), ("a", "b"))})
        assert evaluate_subset(ds, "g == a").tolist() == [True, False, True]
        assert evaluate_subset(ds, "g != a").tolist() == [False, True, False]

    def test_categorical_non_finite_value_compared_as_token(self):
        ds = Dataset(n_rows=3, columns={"g": CategoricalColumn(
            np.array([0, 1, 0], dtype=np.int32), ("a", "inf"))})
        assert evaluate_subset(ds, "g == inf").tolist() == [False, True, False]
        assert evaluate_subset(ds, "g != inf").tolist() == [True, False, True]
        assert evaluate_subset(ds, "g == -inf").tolist() == [False, False, False]
        assert evaluate_subset(ds, "g == nan").tolist() == [False, False, False]

    def test_bad_expression(self):
        ds = Dataset(n_rows=1, columns={"x": NumericColumn(np.zeros(1))})
        with pytest.raises(DataError, match="subset"):
            evaluate_subset(ds, "x ** 2")


@pytest.mark.parametrize("value, label", [(3, "3"), (3.0, "3"), (-0.0, "0"),
                                          (np.float64(12.0), "12"), (2.5, "2.5"),
                                          ("3.0", "3.0")])
def test_level_label(value, label):
    assert data._level_label(value) == label


def test_take_of_a_full_mask_is_the_column_itself():
    values = np.arange(5.0)
    assert SampleMask(np.ones(5, dtype=bool)).take(values) is values
    kept = SampleMask(np.array([True, False, True, True, False])).take(values)
    assert kept.tolist() == [0.0, 2.0, 3.0]
