import csv
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fehd.data import (CategoricalColumn, DataError, Dataset, NumericColumn,
                       build_mask, evaluate_subset, load_csv,
                       make_factor_index, panel_shift, SampleMask)

from oracles import scipubs_like


def write(tmp_path, text, name="d.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


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

    def test_schema_hint(self, tmp_path):
        path = write(tmp_path, "g\n1\n2\n1\n")
        ds = load_csv(path, schema_hints={"g": "categorical"})
        assert isinstance(ds.columns["g"], CategoricalColumn)

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

    @pytest.mark.parametrize("text, message", [
        ("a,b\n1,2\n3\n", "row 3 has 1 fields, expected 2"),
        ("a,b\n1,2\n\n3\n", "row 4 has 1 fields, expected 2"),
        ("a,b\n1,2,3\n4,5\n", "row 2 has 3 fields, expected 2"),
        ('a,b\n1,2\n"3,4\n', "row 3 has 1 fields, expected 2"),
    ])
    def test_ragged_row_named(self, tmp_path, text, message):
        with pytest.raises(DataError, match=message):
            load_csv(write(tmp_path, text))

    @pytest.mark.parametrize("text", ["a,b\n", "a,b\n\n\n"])
    def test_empty_body_raises_without_warning(self, tmp_path, text):
        path = write(tmp_path, text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DataError, match="no data rows"):
                load_csv(path)
        assert caught == []

    def test_numeric_hint_names_first_bad_value(self, tmp_path):
        path = write(tmp_path, "g\n1\nNA\nabc\nxyz\n")
        with pytest.raises(DataError, match="non-numeric value 'abc'"):
            load_csv(path, schema_hints={"g": "numeric"})

    def test_categorical_hint_keeps_missing(self, tmp_path):
        ds = load_csv(write(tmp_path, "g\n2\nNA\n1\n2\n"),
                      schema_hints={"g": "categorical"})
        assert ds.columns["g"].levels == ("2", "1")
        assert ds.columns["g"].codes.tolist() == [0, -1, 1, 0]

    def test_not_utf8(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b"g\n\xff\n")
        with pytest.raises(DataError, match="not UTF-8"):
            load_csv(str(p))


MISSING = {"", "NA", "NaN", "nan"}


def reference_load_csv(path, hints):
    """The loader's semantics, one cell at a time: csv.reader and float()."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    columns = {}
    for k, name in enumerate(header):
        cells = [row[k] for row in rows]
        missing = [c.strip() in MISSING for c in cells]
        if hints.get(name) != "categorical":
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


NUMBER_TOKENS = ["0", "-2.5", " 1.5 ", "1e3", "inf", "-inf", "1_0",
                 "nan", "NaN", "NA", " NA ", ""]
TEXT_TOKENS = ["a", " b ", "#c", "x,y", "p\nq", 'say "hi"', "é", "NA x"]


@st.composite
def csv_tables(draw):
    n_cols = draw(st.integers(1, 4))
    n_rows = draw(st.integers(1, 6))
    columns = []
    for _ in range(n_cols):
        tokens = NUMBER_TOKENS + (TEXT_TOKENS if draw(st.booleans()) else [])
        columns.append(draw(st.lists(st.sampled_from(tokens),
                                     min_size=n_rows, max_size=n_rows)))
    hints = {f"c{k}": "categorical" for k in range(n_cols) if draw(st.booleans())}
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    terminator = draw(st.sampled_from(["\n", "\r\n"]))
    return columns, hints, quoting, terminator


@given(csv_tables())
@settings(max_examples=150, deadline=None)
def test_load_csv_matches_cellwise_reference(tmp_path_factory, table):
    columns, hints, quoting, terminator = table
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, quoting=quoting, lineterminator=terminator)
        writer.writerow([f"c{k}" for k in range(len(columns))])
        writer.writerows(zip(*columns))
    n_rows, expected = reference_load_csv(path, hints)
    ds = load_csv(str(path), schema_hints=hints)
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
        assert idx.group_sizes.tolist() == [4]

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

    def test_non_integer_factor_rejected(self):
        ds = Dataset(n_rows=3, columns={"g": NumericColumn(np.array([1.0, 2.5, 3.0]))})
        with pytest.raises(DataError, match="non-integer"):
            make_factor_index(ds, build_mask(ds, {}), ["g"])


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
        cols = panel_shift(ds, None, "x", "l", (0, 1, 2, 3))
        assert [n for n, _ in cols] == ["l(x,0)", "l(x,1)", "l(x,2)", "l(x,3)"]
        l3 = dict(cols)["l(x,3)"]
        assert np.isnan(l3[:3]).all()
        assert np.allclose(l3[3:], x[:-3])

    def test_lead_then_lag_identity(self):
        ds, x = self.make_panel(2, 8)
        f1 = dict(panel_shift(ds, None, "x", "f", (1,)))["f(x,1)"]
        ds2 = ds.with_columns({"fx": NumericColumn(f1)})
        back = dict(panel_shift(ds2, None, "fx", "l", (1,)))["l(fx,1)"]
        interior = ~np.isnan(back)
        assert np.allclose(back[interior], x[interior])

    def test_diff_constant_zero(self):
        ds, _ = self.make_panel(1, 6)
        ds = ds.with_columns({"c": NumericColumn(np.full(6, 3.25))})
        d = dict(panel_shift(ds, None, "c", "d", (1,)))["d(c,1)"]
        assert np.isnan(d[0]) and np.allclose(d[1:], 0.0)

    def test_offset_zero_identity(self):
        ds, x = self.make_panel(2, 5)
        l0 = dict(panel_shift(ds, None, "x", "l", (0,)))["l(x,0)"]
        assert np.allclose(l0, x)

    def test_gap_produces_missing(self):
        unit = np.zeros(4)
        time = np.array([1.0, 2.0, 4.0, 5.0])  # gap at 3
        ds = Dataset(n_rows=4, columns={
            "unit": NumericColumn(unit), "time": NumericColumn(time),
            "x": NumericColumn(np.arange(4.0))}, panel=("unit", "time"))
        l1 = dict(panel_shift(ds, None, "x", "l", (1,)))["l(x,1)"]
        assert np.isnan(l1[0]) and l1[1] == 0.0 and np.isnan(l1[2]) and l1[3] == 2.0

    def test_duplicate_pair_rejected(self):
        ds = Dataset(n_rows=3, columns={
            "unit": NumericColumn(np.zeros(3)), "time": NumericColumn(np.array([1.0, 1.0, 2.0])),
            "x": NumericColumn(np.arange(3.0))}, panel=("unit", "time"))
        with pytest.raises(DataError, match="duplicate"):
            panel_shift(ds, None, "x", "l", (1,))

    def test_panel_unset_rejected(self):
        ds = Dataset(n_rows=2, columns={"x": NumericColumn(np.zeros(2))})
        with pytest.raises(DataError, match="panel identifiers unset"):
            panel_shift(ds, None, "x", "l", (1,))


class TestSubset:
    def test_numeric(self):
        ds = Dataset(n_rows=4, columns={"x": NumericColumn(np.array([1.0, 2, 3, np.nan]))})
        assert evaluate_subset(ds, "x >= 2").tolist() == [False, True, True, False]

    def test_categorical(self):
        ds = Dataset(n_rows=3, columns={"g": CategoricalColumn(
            np.array([0, 1, 0], dtype=np.int32), ("a", "b"))})
        assert evaluate_subset(ds, "g == a").tolist() == [True, False, True]
        assert evaluate_subset(ds, "g != a").tolist() == [False, True, False]

    def test_bad_expression(self):
        ds = Dataset(n_rows=1, columns={"x": NumericColumn(np.zeros(1))})
        with pytest.raises(DataError, match="subset"):
            evaluate_subset(ds, "x ** 2")
