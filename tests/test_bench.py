import csv
import importlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fehd import bench
from fehd.bench import (BenchCase, DgpConfig, benchmark_csv, dataset_to_csv,
                        parse_cases, run_benchmark, simulate_panel)
from fehd.data import CategoricalColumn, Dataset, NumericColumn, load_csv
from fehd.estimators import fit_ols
from fehd.inference import VcovSpec, compute_vcov


class TestDgp:
    def test_counts(self):
        cfg = DgpConfig(n=1000, seed=1)
        assert cfg.nb_indiv == 100
        assert cfg.nb_firm == 4
        ds = simulate_panel(cfg)
        assert ds.n_rows == 1000
        assert len(np.unique(ds.numeric("indiv_id"))) == 100
        assert len(np.unique(ds.numeric("year"))) == 10

    def test_difficult_pattern(self):
        # rep(1:nb_firm, length.out = n) semantics
        cfg = DgpConfig(n=1000, seed=0)
        ds = simulate_panel(cfg)
        first10 = ds.numeric("firm_id_difficult")[:10]
        assert first10.tolist() == [1, 2, 3, 4, 1, 2, 3, 4, 1, 2]

    def test_seeded_determinism(self):
        a = simulate_panel(DgpConfig(n=2000, seed=42))
        b = simulate_panel(DgpConfig(n=2000, seed=42))
        for name in a.columns:
            assert np.array_equal(a.numeric(name), b.numeric(name))
        c = simulate_panel(DgpConfig(n=2000, seed=43))
        assert not np.array_equal(a.numeric("y"), c.numeric("y"))

    def test_x2_is_x1_squared(self):
        ds = simulate_panel(DgpConfig(n=500, seed=3))
        assert np.allclose(ds.numeric("x2"), ds.numeric("x1") ** 2)

    def test_coefficient_recovery(self):
        ds = simulate_panel(DgpConfig(n=20_000, seed=5))
        fit = fit_ols("y ~ x1 + x2 | indiv_id + firm_id + year", ds)
        se = np.sqrt(np.diag(compute_vcov(fit, VcovSpec("iid")).matrix))
        assert abs(fit.coef[0] - 1.0) < 3 * se[0]
        assert abs(fit.coef[1] - 0.05) < 3 * se[1]

    def test_n_below_minimum_rejected(self):
        with pytest.raises(ValueError, match="nb_year"):
            DgpConfig(n=5)


class TestDatasetToCsv:
    def test_roundtrip_with_missing_and_awkward_levels(self, tmp_path):
        x = np.array([1.0, np.nan, np.inf, -np.inf, 2.5, -3.0])
        levels = ("a,b", 'say "hi"', " lead", "#h", "p\nq")
        codes = np.array([0, 1, -1, 2, 3, 4], dtype=np.int32)
        ds = Dataset(n_rows=6, columns={"x": NumericColumn(x),
                                        "g": CategoricalColumn(codes, levels)})
        path = str(tmp_path / "d.csv")
        dataset_to_csv(ds, path)
        back = load_csv(path)
        assert back.n_rows == 6
        assert back.numeric("x").tobytes() == x.tobytes()
        g = back.columns["g"]
        assert g.levels == levels and g.codes.tolist() == codes.tolist()

    def test_integral_floats_without_decimal_point(self, tmp_path):
        ds = Dataset(n_rows=3, columns={"x": NumericColumn(np.array([3.0, -0.5, np.nan]))})
        path = tmp_path / "d.csv"
        dataset_to_csv(ds, str(path))
        # a lone empty field is quoted, so the row is not a blank line
        assert path.read_text().splitlines() == ["x", "3", "-0.5", '""']


def row_loop_csv(ds, path):
    """The writer as one ``csv.writer`` row at a time (the reference layout)."""
    def cell(v):
        if isinstance(v, float):
            if math.isnan(v):
                return ""
            if math.isfinite(v) and v == int(v):
                return int(v)
        return v

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(list(ds.columns))
        cols = [c.values if isinstance(c, NumericColumn) else c.values()
                for c in ds.columns.values()]
        for i in range(ds.n_rows):
            w.writerow([cell(vals[i]) for vals in cols])


@st.composite
def datasets(draw):
    n = draw(st.integers(0, 9))
    columns = {}
    for k in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            values = draw(st.lists(st.floats() | st.sampled_from(
                [0.0, -0.0, 3.0, -2.0, 1e22, -1e300, 0.1, np.nan, np.inf]),
                min_size=n, max_size=n))
            columns[f"c{k}"] = NumericColumn(np.array(values, dtype=float))
        else:
            levels = draw(st.lists(st.text(alphabet='a,"\n\r #é\t'), min_size=1,
                                   max_size=4, unique=True))
            codes = draw(st.lists(st.integers(-1, len(levels) - 1), min_size=n, max_size=n))
            columns[f"c{k}"] = CategoricalColumn(np.array(codes, dtype=np.int32),
                                                 tuple(levels))
    return Dataset(n_rows=n, columns=columns), draw(st.integers(1, 4))


@given(datasets())
@settings(max_examples=150, deadline=None)
def test_dataset_to_csv_matches_row_loop(tmp_path_factory, case):
    ds, block_rows = case
    base = tmp_path_factory.mktemp("csv")
    row_loop_csv(ds, base / "rows.csv")
    with mock.patch.object(bench, "CSV_BLOCK_ROWS", block_rows):
        dataset_to_csv(ds, str(base / "blocks.csv"))
    assert (base / "blocks.csv").read_bytes() == (base / "rows.csv").read_bytes()


class TestCases:
    def test_parse(self):
        cases = parse_cases("simple2fe, difficult3fe-poisson")
        assert cases[0] == BenchCase("simple", 2, "ols")
        assert cases[1] == BenchCase("difficult", 3, "poisson")

    def test_parse_slopes(self):
        case, = parse_cases("difficult2fe-slopes")
        assert case == BenchCase("difficult", 2, "ols", slopes=True)
        assert case.name == "difficult2fe-slopes"
        assert case.formula() == "y ~ x1 | indiv_id + firm_id_difficult[x2]"

    def test_parse_bad(self):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_cases("medium2fe")

    def test_formulas(self):
        assert BenchCase("simple", 2, "ols").formula() == \
            "y ~ x1 + x2 | indiv_id + firm_id"
        assert BenchCase("difficult", 3, "poisson").formula() == \
            "ypois ~ x1 + x2 | indiv_id + firm_id_difficult + year"


class TestRunBenchmark:
    def test_smoke_simple(self):
        rows = run_benchmark([2000], [BenchCase("simple", 2, "ols")], reps=1, seed=1)
        assert len(rows) == 1
        assert rows[0]["status"] == "ok"
        assert rows[0]["seconds"] > 0
        assert rows[0]["demean_iterations"] >= 1

    def test_irls_iterations_reported_for_poisson_only(self):
        rows = run_benchmark([2000], [BenchCase("simple", 2, "ols"),
                                      BenchCase("simple", 2, "poisson")], seed=1)
        assert [r["status"] for r in rows] == ["ok", "ok"]
        assert rows[0]["irls_iterations"] == -1 and rows[1]["irls_iterations"] >= 1

    def test_factorization_columns(self, monkeypatch):
        # -1 where A was never formed; a switch forced at product 1 reports it
        case = BenchCase("difficult", 2, "ols")
        plain = run_benchmark([2000], [case], seed=1)[0]
        assert plain["factor_s"] == plain["switch_at"] == -1
        module = importlib.import_module("fehd.demean")
        monkeypatch.setattr(module, "_factor_pays", lambda ratios, *_: len(ratios) > 1)
        monkeypatch.setattr(module, "FACTOR_NNZ_BUDGET", np.inf)
        row = run_benchmark([2000], [case], seed=1)[0]
        assert row["status"] == "ok" and row["switch_at"] == 1 and row["factor_s"] > 0
        assert "factor_s,switch_at,status" in benchmark_csv([row]).splitlines()[0]

    def test_difficult_needs_more_iterations(self):
        simple = run_benchmark([5000], [BenchCase("simple", 2, "ols")], seed=2)
        hard = run_benchmark([5000], [BenchCase("difficult", 2, "ols")], seed=2)
        assert hard[0]["demean_iterations"] > simple[0]["demean_iterations"]

    def test_accelerated_beats_plain_on_difficult(self):
        acc = run_benchmark([5000], [BenchCase("difficult", 2, "ols")], seed=2)
        plain = run_benchmark([5000], [BenchCase("difficult", 2, "ols")], seed=2,
                              accelerate=False)
        assert acc[0]["demean_iterations"] < plain[0]["demean_iterations"]

    def test_plain_rejects_poisson(self):
        with pytest.raises(ValueError, match="plain mode times OLS"):
            run_benchmark([1000], [BenchCase("simple", 2, "poisson")], accelerate=False)

    def test_slopes_case_runs_in_both_modes(self):
        case = BenchCase("difficult", 2, "ols", slopes=True)
        acc = run_benchmark([5000], [case], seed=2)
        plain = run_benchmark([5000], [case], seed=2, accelerate=False)
        assert acc[0]["status"] == plain[0]["status"] == "ok"
        assert acc[0]["demean_iterations"] < plain[0]["demean_iterations"]

    def test_sizes_must_be_sorted(self):
        with pytest.raises(ValueError, match="sorted"):
            run_benchmark([100, 50], [BenchCase("simple", 2, "ols")])
