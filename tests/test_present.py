import json

import numpy as np
import pytest

from fehd.data import Dataset, NumericColumn
from fehd.estimators import fit_glm_irls, fit_ols
from fehd.inference import VcovSpec, compute_vcov
from fehd.multiest import MultiOptions, run_multi
from fehd.present import TableSpec, format_number, plot_data, render_table, row_patterns

from oracles import scipubs_like


@pytest.fixture(scope="module")
def sci_fits():
    ds = scipubs_like()
    multi = run_multi("articles ~ funding | indiv + year", ds, MultiOptions())
    return ds, multi.fits()


class TestTextTable:
    def test_fe_yes_block(self, sci_fits):
        ds, fits = sci_fits
        out = render_table(TableSpec(models=fits * 2, ds=ds))
        lines = out.splitlines()
        indiv = [l for l in lines if l.startswith("indiv")][0]
        assert indiv.split()[1:] == ["Yes", "Yes"]
        assert any(l.startswith("year") and l.split()[1:] == ["Yes", "Yes"]
                   for l in lines)

    def test_two_vcovs_same_estimates_different_se(self, sci_fits):
        ds, fits = sci_fits
        out = render_table(TableSpec(
            models=fits, ds=ds, output="json",
            vcov_specs=[VcovSpec("iid"), VcovSpec("cluster", factors=("indiv",))]))
        payload = json.loads(out)
        m1, m2 = payload["models"]
        c1 = m1["coefficients"]["funding"]
        c2 = m2["coefficients"]["funding"]
        assert c1["estimate"] == c2["estimate"]
        assert c1["se"] != c2["se"]
        assert m1["se_type"] == "IID" and m2["se_type"] == "by: indiv"

    def test_keep_negation_drops_intercept(self):
        ds = Dataset(n_rows=40, columns={
            "y": NumericColumn(np.arange(40.0)),
            "x": NumericColumn(np.arange(40.0) ** 1.5)})
        fit = fit_ols("y ~ x", ds)
        out = render_table(TableSpec(models=[fit], keep=["!Intercept"]))
        assert "(Intercept)" not in out and "x" in out

    def test_row_patterns_are_compiled_once(self):
        pats = row_patterns(["x", "!^b"])
        assert [(p.regex.pattern, p.negate) for p in pats] == [("x", False), ("^b", True)]
        assert row_patterns(pats) == pats
        spec = TableSpec(models=[], keep=pats, drop=["y"])
        assert spec.keep == pats and spec.drop == row_patterns(["y"])

    @pytest.mark.parametrize("pattern", ["[", "(", "*x", "!["])
    def test_invalid_row_pattern_is_a_value_error(self, pattern):
        with pytest.raises(ValueError, match="invalid pattern"):
            row_patterns([pattern])
        with pytest.raises(ValueError, match="invalid pattern"):
            TableSpec(models=[], order=[pattern])

    def test_selection_does_not_alter_values(self, sci_fits):
        ds, fits = sci_fits
        full = json.loads(render_table(TableSpec(models=fits, ds=ds, output="json")))
        ordered = json.loads(render_table(TableSpec(
            models=fits, ds=ds, output="json", order=["fund"])))
        assert full["models"][0]["coefficients"] == ordered["models"][0]["coefficients"]

    def test_signif_legend_toggle(self, sci_fits):
        ds, fits = sci_fits
        with_codes = render_table(TableSpec(models=fits, ds=ds, signif=True))
        without = render_table(TableSpec(models=fits, ds=ds, signif=False))
        assert "Signif. codes" in with_codes
        assert "Signif. codes" not in without

    def test_sample_row_for_split(self):
        ds = scipubs_like()
        multi = run_multi("articles ~ funding | indiv + year", ds,
                          MultiOptions(fsplit="eu_us"))
        out = render_table(TableSpec(models=multi.fits(), ds=ds))
        sample_line = [l for l in out.splitlines() if l.startswith("Sample")][0]
        assert "Full sample" in sample_line and "EU" in sample_line and "US" in sample_line

    def test_dict_relabels(self, sci_fits):
        ds, fits = sci_fits
        out = render_table(TableSpec(models=fits, ds=ds,
                                     dict={"funding": "Funding ('000 $US)",
                                           "articles": "# Articles"}))
        assert "Funding ('000 $US)" in out and "# Articles" in out


class TestJson:
    def test_round_trip_full_precision(self, sci_fits):
        ds, fits = sci_fits
        spec = TableSpec(models=fits, ds=ds, output="json",
                         fitstat_selection=["n", "r2", "wr2", "rmse"])
        payload = json.loads(render_table(spec))
        m = payload["models"][0]
        fit = fits[0]
        from fehd.inference import compute_vcov, coeftable
        rows = coeftable(fit, compute_vcov(fit, VcovSpec("iid")))
        for r in rows:
            got = m["coefficients"][r["name"]]
            assert got["estimate"] == r["estimate"]  # exact float round trip
            assert got["se"] == r["se"]
        assert m["fitstats"]["r2"] == pytest.approx(1 - fit.ssr / fit.sst, rel=0, abs=0)


class TestLatex:
    def test_self_contained_tabular(self, sci_fits):
        ds, fits = sci_fits
        out = render_table(TableSpec(models=fits, ds=ds, output="latex",
                                     caption="Results", label="tab:x"))
        assert out.count(r"\begin{tabular}") == 1 and out.count(r"\end{tabular}") == 1
        assert r"\begin{table}" in out and r"\caption{" in out and r"\label{tab:x}" in out
        assert r"\toprule" in out and r"\bottomrule" in out

    def test_underscores_escaped(self, sci_fits):
        ds, fits = sci_fits
        out = render_table(TableSpec(models=fits, ds=ds, output="latex"))
        assert "eu_us" not in out  # no raw underscores outside escapes


class TestPlotData:
    def test_normal_ci(self):
        rng = np.random.default_rng(0)
        n = 5000
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        ds = Dataset(n_rows=n, columns={"y": NumericColumn(y), "x": NumericColumn(x)})
        fit = fit_ols("y ~ x", ds)
        csv_text = plot_data([fit], ci_level=0.95)
        line = [l for l in csv_text.splitlines() if ",x," in l][0]
        _, _, est, lo, hi, lvl = line.split(",")
        est, lo, hi = float(est), float(lo), float(hi)
        se = np.sqrt(compute_vcov(fit, VcovSpec("iid")).matrix[1, 1])
        assert (hi - est) / se == pytest.approx(1.96, abs=0.01)
        assert lo <= est <= hi

    @pytest.mark.parametrize("family", ["poisson", "logit"])
    def test_glm_ci_is_normal_as_its_test(self, family):
        # at df 298 a t quantile would give 1.9680 SE instead of 1.9600
        rng = np.random.default_rng(3)
        n = 300
        x = rng.normal(size=n)
        y = rng.poisson(np.exp(0.5 * x)) if family == "poisson" else \
            rng.random(n) < 1.0 / (1.0 + np.exp(-x))
        ds = Dataset(n_rows=n, columns={"y": NumericColumn(y.astype(float)),
                                        "x": NumericColumn(x)})
        fit = fit_glm_irls("y ~ x", ds, family=family)
        line = [l for l in plot_data([fit]).splitlines() if ",x," in l][0]
        _, _, est, lo, hi, _ = line.split(",")
        se = np.sqrt(compute_vcov(fit, VcovSpec("iid")).matrix[1, 1])
        assert (float(hi) - float(est)) / se == pytest.approx(1.959964, abs=1e-5)
        assert (float(est) - float(lo)) / se == pytest.approx(1.959964, abs=1e-5)

    def test_level_zero_degenerate(self, sci_fits):
        ds, fits = sci_fits
        csv_text = plot_data(fits, ci_level=0.0, ds=ds)
        for line in csv_text.splitlines()[1:]:
            _, _, est, lo, hi, _ = line.split(",")
            assert float(est) == float(lo) == float(hi)

    def test_split_groups_in_one_file(self):
        ds = scipubs_like()
        multi = run_multi("articles ~ funding | indiv + year", ds,
                          MultiOptions(fsplit="eu_us"))
        csv_text = plot_data(multi.fits(), ds=ds)
        labels = {l.split(",")[0] for l in csv_text.splitlines()[1:]}
        assert len(labels) == 3


class TestPlotDataReadsTheTable:
    """Per (model, vcov) column, plot data's estimates are the JSON table's
    and its half-widths the row's se times the quantile of the distribution
    the row is tested with: Student t on df_resid, or normal for Poisson."""

    @pytest.fixture(scope="class")
    def counts(self):
        rng = np.random.default_rng(5)
        n = 600
        g = rng.integers(0, 30, n).astype(float)
        x1, x2 = rng.normal(size=(2, n))
        y = rng.poisson(np.exp(0.3 * x1 - 0.2 * x2 + g / 30)).astype(float)
        cols = {"y": y, "x1": x1, "x2": x2, "g": g, "s": (np.arange(n) % 2).astype(float)}
        return Dataset(n_rows=n, columns={k: NumericColumn(v) for k, v in cols.items()})

    @pytest.mark.parametrize("family", ["ols", "poisson"])
    @pytest.mark.parametrize("keep, drop, names", [
        ([], [], ["x1", "x2"]), (["x"], ["2$"], ["x1"]), (["!1"], [], ["x2"])])
    def test_plot_data_agrees_with_json(self, counts, family, keep, drop, names):
        from scipy import stats
        fits = run_multi("y ~ x1 + x2 | g", counts,
                         MultiOptions(family=family, split="s")).fits()
        vcovs = [VcovSpec("iid"), VcovSpec("cluster", factors=("g",))]
        table = json.loads(render_table(TableSpec(models=fits, vcov_specs=vcovs, ds=counts,
                                                  output="json")))["models"]
        lines = plot_data(fits, vcovs, ci_level=0.9, ds=counts, keep=keep,
                          drop=drop).splitlines()[1:]
        assert len(table) == 4 and len(lines) == 4 * len(names)
        for k, m in enumerate(table):
            q = stats.norm.ppf(0.95) if family == "poisson" else \
                stats.t.ppf(0.95, m["df_resid"])
            for line, name in zip(lines[k * len(names):], names):
                label, coef, est, lo, hi, level = line.split(",")
                row = m["coefficients"][name]
                assert (label, coef, level) == (f"{m['label']} {m['sample']}", name, "0.9")
                assert float(est) == row["estimate"]
                assert (float(hi) - float(lo)) / 2 == pytest.approx(q * row["se"], rel=1e-9)


class TestFormatNumber:
    def test_four_significant_digits(self):
        assert format_number(0.096365) == "0.09637"
        assert format_number(1234.5678) == "1235"

    def test_scientific_below_threshold(self):
        assert "e" in format_number(5.4e-05)

    def test_integers_with_separator(self):
        assert format_number(1080) == "1,080"
