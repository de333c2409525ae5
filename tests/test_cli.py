import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fehd import cli
from fehd.bench import DgpConfig, dataset_to_csv, simulate_panel
from fehd.cli import main
from fehd.data import CategoricalColumn, Dataset, NumericColumn, load_csv
from fehd.estimators import fit_2sls, fit_glm_irls
from fehd.inference import VcovSpec, compute_vcov, iv_tests

from oracles import scipubs_like


@pytest.fixture
def data_csv(tmp_path):
    rng = np.random.default_rng(3)
    n = 120
    fe = np.repeat(np.arange(6), 20)
    x = rng.normal(size=n)
    y = 2 * x + fe * 0.5 + rng.normal(size=n)
    lines = ["y,x,fe"] + [f"{float(y[i])!r},{float(x[i])!r},{fe[i]}" for i in range(n)]
    p = tmp_path / "d.csv"
    p.write_text("\n".join(lines) + "\n")
    return str(p)


def run_cli(args):
    import io
    from contextlib import redirect_stdout, redirect_stderr
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


class TestFit:
    def test_text_table_exit_zero(self, data_csv):
        code, out, err = run_cli(["fit", "--formula", "y ~ x | fe", "--data", data_csv])
        assert code == 0
        assert "Dependent Var.:" in out and "S.E. type" in out

    def test_unknown_flag_exit_one(self, data_csv):
        code, out, err = run_cli(["fit", "--formula", "y ~ x", "--data", data_csv,
                                  "--frobnicate"])
        assert code == 1
        assert "usage" in err.lower()

    def test_missing_column_exit_two_names_it(self, data_csv):
        code, out, err = run_cli(["fit", "--formula", "y ~ nope | fe",
                                  "--data", data_csv])
        assert code == 2
        assert "nope" in err

    def test_formula_syntax_error_exit_one(self, data_csv):
        code, out, err = run_cli(["fit", "--formula", "y ~ +", "--data", data_csv])
        assert code == 1

    def test_json_output_and_file(self, data_csv, tmp_path):
        out_file = str(tmp_path / "res.json")
        code, *_ = run_cli(["fit", "--formula", "y ~ x | fe", "--data", data_csv,
                            "--output", "json", "--file", out_file])
        assert code == 0
        payload = json.loads(Path(out_file).read_text())
        assert payload["models"][0]["coefficients"]["x"]["estimate"] == pytest.approx(2.0, abs=0.2)

    def test_infinite_value_dropped_exit_zero(self, data_csv, tmp_path):
        lines = Path(data_csv).read_text().splitlines()
        y, x, fe = lines[5].split(",")
        lines[5] = f"{y},inf,{fe}"
        path = tmp_path / "inf.csv"
        path.write_text("\n".join(lines) + "\n")
        code, text, _ = run_cli(["fit", "--formula", "y ~ x | fe", "--data", str(path),
                                 "--output", "json"])
        assert code == 0
        assert json.loads(text)["models"][0]["nobs"] == 119

    @pytest.mark.parametrize("value, code", [("inf", 0), ("nan", 2), ("-inf", 2)])
    def test_subset_categorical_non_finite_value(self, tmp_path, value, code):
        rng = np.random.default_rng(4)
        levels = ["a", "b", "inf"]
        lines = ["y,x,g"] + [f"{rng.normal()!r},{rng.normal()!r},{levels[i % 3]}"
                             for i in range(30)]
        path = tmp_path / "g.csv"
        path.write_text("\n".join(lines) + "\n")
        got, text, err = run_cli(["fit", "--formula", "y ~ x", "--data", str(path),
                                  "--subset", f"g == {value}", "--output", "json"])
        assert got == code
        if code == 0:
            assert json.loads(text)["models"][0]["nobs"] == 10
        else:  # no row matches: a named error, not a traceback
            assert err.startswith("error: ") and "Traceback" not in err

    def test_multiple_vcov_columns(self, data_csv):
        code, out, _ = run_cli(["fit", "--formula", "y ~ x | fe", "--data", data_csv,
                                "--vcov", "iid", "--vcov", "cluster=fe"])
        assert code == 0
        assert "by: fe" in out and "IID" in out

    def test_plotdata_output(self, data_csv):
        code, out, _ = run_cli(["fit", "--formula", "y ~ x | fe", "--data", data_csv,
                                "--output", "plotdata"])
        assert code == 0
        assert out.splitlines()[0] == "model,coef,estimate,ci_low,ci_high,level"

    def test_fe_coefs_dump(self, data_csv, tmp_path):
        path = str(tmp_path / "fe.csv")
        code, *_ = run_cli(["fit", "--formula", "y ~ x | fe", "--data", data_csv,
                            "--fe-coefs", path])
        assert code == 0
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "model,sample,fe,level,col,value"
        assert len(lines) == 7  # header + 6 groups

    def test_split_and_fsplit_exclusive(self, data_csv):
        code, _, err = run_cli(["fit", "--formula", "y ~ x", "--data", data_csv,
                                "--split", "fe", "--fsplit", "fe"])
        assert code == 1

    @pytest.mark.parametrize("option", ["--split", "--fsplit"])
    def test_non_integral_split_column_exit_two_names_it(self, data_csv, option):
        code, out, err = run_cli(["fit", "--formula", "y ~ x | fe", "--data", data_csv,
                                  option, "x"])
        assert code == 2 and out == ""
        assert "'x'" in err and "every model failed" not in err

    def test_config_file_defaults(self, data_csv, tmp_path):
        cfg = tmp_path / "fehd.conf"
        cfg.write_text("output = json\n# comment\nvcov = hc1\n")
        code, out, _ = run_cli(["fit", "--formula", "y ~ x", "--data", data_csv,
                                "--config", str(cfg)])
        assert code == 0
        payload = json.loads(out)
        assert payload["models"][0]["se_type"] == "Heteroskedasticity-robust"

    def test_flag_beats_config(self, data_csv, tmp_path):
        cfg = tmp_path / "fehd.conf"
        cfg.write_text("vcov = hc1\n")
        code, out, _ = run_cli(["fit", "--formula", "y ~ x", "--data", data_csv,
                                "--config", str(cfg), "--vcov", "iid",
                                "--output", "json"])
        payload = json.loads(out)
        assert payload["models"][0]["se_type"] == "IID"

    @pytest.mark.parametrize("line, message", [
        ("ci_level = abc", "ci_level: invalid float value 'abc'"),
        ("collin_tol = x", "collin_tol: invalid float value 'x'"),
        ("demean_maxiter = 2.5", "demean_maxiter: invalid int value '2.5'"),
        ("output = jsn", "output: invalid choice 'jsn'"),
        ("family = probit", "family: invalid choice 'probit'"),
        ("signif = maybe", "signif takes true or false"),
        ("threads = 2", "unknown config key 'threads'"),
        ("vcvo = hc1", "unknown config key 'vcvo'"),
        ("formula = y ~ x", "formula cannot be set in a config file"),
    ])
    def test_bad_config_value_is_usage_error(self, data_csv, tmp_path, line, message):
        cfg = tmp_path / "fehd.conf"
        cfg.write_text(f"# settings\n{line}\n")
        code, out, err = run_cli(["fit", "--formula", "y ~ x", "--data", data_csv,
                                  "--config", str(cfg)])
        assert code == 1 and out == ""
        assert f"fehd.conf:2: {message}" in err

    def test_bad_config_value_rejected_even_when_flag_given(self, data_csv, tmp_path):
        cfg = tmp_path / "fehd.conf"
        cfg.write_text("output = jsn\n")
        code, _, err = run_cli(["fit", "--formula", "y ~ x", "--data", data_csv,
                                "--config", str(cfg), "--output", "json"])
        assert code == 1 and "invalid choice 'jsn'" in err

    @pytest.mark.parametrize("option, pattern", [("--keep", "["), ("--drop", "("),
                                                 ("--order", "*x"), ("--keep", "!(")])
    @pytest.mark.parametrize("output", ["text", "plotdata"])
    def test_invalid_row_pattern_is_usage_error(self, data_csv, option, pattern, output):
        code, out, err = run_cli(["fit", "--formula", "y ~ x | fe", "--data", data_csv,
                                  "--output", output, option, "x", option, pattern])
        assert code == 1 and out == ""
        assert err.startswith(f"{option}: invalid pattern {pattern!r}: ")

    def test_invalid_row_pattern_in_config_is_usage_error(self, data_csv, tmp_path):
        cfg = tmp_path / "fehd.conf"
        cfg.write_text("keep = [\n")
        code, out, err = run_cli(["fit", "--formula", "y ~ x", "--data", data_csv,
                                  "--config", str(cfg)])
        assert code == 1 and err.startswith("--keep: invalid pattern '['")

    @pytest.mark.parametrize("option, value, message", [
        ("--demean-tol", "inf", "demeaning tol must be finite and > 0, got inf"),
        ("--demean-tol", "nan", "demeaning tol must be finite and > 0, got nan"),
        ("--demean-tol", "0", "demeaning tol must be finite and > 0, got 0.0"),
        ("--collin-tol", "nan", "collin_tol must be finite and >= 0, got nan"),
        ("--collin-tol", "-1", "collin_tol must be finite and >= 0, got -1.0"),
        ("--collin-tol", "inf", "collin_tol must be finite and >= 0, got inf"),
    ])
    @pytest.mark.parametrize("family", ["ols", "poisson"])
    def test_unusable_tolerance_exit_two(self, tmp_path, option, value, message, family):
        rng = np.random.default_rng(5)
        n = 400
        g, h = rng.integers(0, 20, n), rng.integers(0, 15, n)
        x = rng.normal(size=n)
        y = rng.poisson(np.exp(0.3 * x + 0.3 * rng.normal(size=20)[g]))
        path = tmp_path / "gh.csv"
        path.write_text("y,x,g,h\n" + "".join(
            f"{y[i]},{float(x[i])!r},{g[i]},{h[i]}\n" for i in range(n)))
        code, out, err = run_cli(["fit", "--formula", "y ~ x | g + h", "--data", str(path),
                                  "--family", family, option, value])
        assert code == 2 and out == ""
        assert message in err

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("formula", ["y ~ x | g + h", "y ~ x"])
    @pytest.mark.parametrize("family", ["ols", "poisson"])
    def test_unusable_demean_maxiter_exit_two(self, tmp_path, value, formula, family):
        # with FE it was reported as a demeaning that did not converge within
        # -3 iterations, and without FE it was accepted without a word
        rng = np.random.default_rng(5)
        n = 400
        y, x = rng.poisson(1.0, n), rng.normal(size=n)
        path = tmp_path / "gh.csv"
        path.write_text("y,x,g,h\n" + "".join(
            f"{y[i]},{float(x[i])!r},{i % 20},{i % 15}\n" for i in range(n)))
        code, out, err = run_cli(["fit", "--formula", formula, "--data", str(path),
                                  "--family", family, "--demean-maxiter", value])
        assert code == 2 and out == ""
        assert f"demeaning max_iter must be >= 1, got {value}" in err

    @pytest.mark.parametrize("family", ["poisson", "logit"])
    def test_outcome_at_a_bound_everywhere_exit_two(self, tmp_path, family):
        rng = np.random.default_rng(6)
        n = 3000
        path = tmp_path / "zero.csv"
        path.write_text("y,x,g,h\n" + "".join(
            f"0,{float(x)!r},{g},{h}\n" for x, g, h in
            zip(rng.normal(size=n), rng.integers(0, 50, n), rng.integers(0, 30, n))))
        code, out, err = run_cli(["fit", "--formula", "y ~ x | g + h", "--data", str(path),
                                  "--family", family])
        assert code == 2 and out == ""
        assert "every observation is in a fixed-effect group whose 'y' is all 0" in err

    def test_config_vcov_line_is_one_spec_and_repeats_append(self, data_csv, tmp_path):
        lines = Path(data_csv).read_text().splitlines()
        csv = tmp_path / "g.csv"
        csv.write_text("\n".join([lines[0] + ",g"] + [f"{row},{i % 4}" for i, row
                                                      in enumerate(lines[1:])]) + "\n")
        cfg = tmp_path / "fehd.conf"
        cfg.write_text("vcov = twoway=fe,g\nvcov = hc1\noutput = json\n")
        code, out, _ = run_cli(["fit", "--formula", "y ~ x", "--data", str(csv),
                                "--config", str(cfg)])
        assert code == 0
        assert [m["se_type"] for m in json.loads(out)["models"]] == [
            "by: fe & g", "Heteroskedasticity-robust"]

    @pytest.mark.parametrize("line, stars", [("signif = false", False),
                                             ("signif = yes", True),
                                             ("no_signif = true", False)])
    def test_config_switch(self, data_csv, tmp_path, line, stars):
        cfg = tmp_path / "fehd.conf"
        cfg.write_text(line + "\n")
        code, out, _ = run_cli(["fit", "--formula", "y ~ x", "--data", data_csv,
                                "--config", str(cfg)])
        assert code == 0 and ("***" in out) == stars

    def test_latex_output(self, data_csv):
        code, out, _ = run_cli(["fit", "--formula", "y ~ x | fe", "--data", data_csv,
                                "--output", "latex", "--caption", "T", "--label", "t"])
        assert code == 0 and r"\begin{tabular}" in out


@pytest.fixture(scope="module")
def roles_csv(tmp_path_factory):
    """The researcher panel with a column for every role, and some that no fit reads."""
    ds = scipubs_like()
    rng = np.random.default_rng(7)
    n = ds.n_rows
    grp = rng.integers(0, 4, n).astype(np.int32)
    xm = rng.normal(size=n)
    xm[rng.uniform(size=n) < 0.03] = np.nan
    cols = dict(ds.columns)
    cols.update({
        "w": NumericColumn(rng.uniform(0.5, 2, n)),
        "off": NumericColumn(rng.normal(size=n)),
        "grp": CategoricalColumn(grp, ("alpha", "beta", "gamma", "delta")),
        # a literal column takes precedence over computing log(funding)
        "log(funding)": NumericColumn(np.round(rng.normal(size=n), 3)),
        "zz": NumericColumn(ds.numeric("funding") / 2 + rng.normal(size=n)),
        "xm": NumericColumn(xm),
        "note": CategoricalColumn(rng.integers(0, 2, n).astype(np.int32),
                                  ("héllo, wörld", "日本語")),
    })
    path = tmp_path_factory.mktemp("roles") / "roles.csv"
    dataset_to_csv(Dataset(n_rows=n, columns=cols), str(path))
    return str(path)


class TestColumnPruning:
    """``fehd fit`` reads only the columns its run uses, with the output of a full load."""

    @pytest.mark.parametrize("formula, extra", [
        pytest.param("articles ~ policy + funding | indiv + year", ["--weights", "w"],
                     id="weights"),
        pytest.param("articles ~ policy + funding | indiv", ["--offset", "off"],
                     id="offset"),
        pytest.param("articles ~ policy | indiv + year", ["--subset", "eu_us == EU"],
                     id="subset-categorical"),
        pytest.param("articles ~ policy | indiv + year", ["--split", "grp"], id="split"),
        pytest.param("articles ~ policy | indiv + year", ["--fsplit", "grp"], id="fsplit"),
        pytest.param("articles ~ l(funding, 1) + policy | indiv", ["--panel", "indiv,year"],
                     id="panel-lag"),
        pytest.param("articles ~ funding | indiv", ["--vcov", "cluster=grp"], id="cluster"),
        pytest.param("articles ~ funding | indiv", ["--vcov", "twoway=indiv,grp"],
                     id="twoway"),
        pytest.param("articles ~ funding | indiv", ["--vcov", "nw=indiv,year"], id="nw"),
        pytest.param("articles ~ funding | indiv", ["--vcov", "dk=year,2"], id="dk"),
        pytest.param("articles ~ i(policy, funding) | indiv", [], id="i-interact"),
        pytest.param("articles ~ funding | indiv + year[policy]", [], id="slopes"),
        pytest.param("articles ~ funding | eu_us^year + indiv", [], id="combined-fe"),
        pytest.param("articles ~ policy | indiv + year | funding ~ zz",
                     ["--fitstat", "n,r2,ivf,wh"], id="iv"),
        pytest.param("c(articles, funding) ~ csw(policy, xm) | sw(indiv, indiv + year)", [],
                     id="stepwise"),
        pytest.param("articles ~ log(funding) + policy | indiv", [], id="literal-log"),
        pytest.param("articles ~ policy + nosuch | indiv", [], id="unknown-variable"),
        pytest.param("articles ~ policy | indiv", ["--vcov", "cluster=nosuch"],
                     id="unknown-cluster"),
    ])
    def test_same_output_as_full_load(self, roles_csv, monkeypatch, formula, extra):
        argv = ["fit", "--formula", formula, "--data", roles_csv, "--output", "json",
                *extra]
        requested = []
        real_load = cli.load_csv

        def load(path, columns=None):
            requested.append(columns)
            return real_load(path, columns=columns)

        monkeypatch.setattr(cli, "load_csv", load)
        pruned = run_cli(argv)
        assert requested[0] is not None and "note" not in requested[0]
        monkeypatch.setattr(cli, "_run_columns", lambda args, panel: None)
        assert pruned == run_cli(argv)
        if pruned[0] == 2:  # the unknown variable's error lists every column
            assert requested[1] is None and "note, off" in pruned[2]

    def test_literal_column_is_requested(self, roles_csv, monkeypatch):
        requested = []
        monkeypatch.setattr(cli, "load_csv", lambda path, columns=None:
                            requested.append(columns) or load_csv(path, columns=columns))
        code, *_ = run_cli(["fit", "--formula", "articles ~ log(funding) | indiv",
                            "--data", roles_csv])
        assert code == 0
        assert requested == [{"articles", "funding", "log(funding)", "indiv"}]

    @pytest.mark.parametrize("formula", ["articles ~ (", "articles ~ policy"])
    def test_unreadable_file_error_comes_first(self, tmp_path, formula):
        code, out, err = run_cli(["fit", "--formula", formula,
                                  "--data", str(tmp_path / "absent.csv")])
        assert code == 2 and err.startswith("error: cannot read")


class TestVcovRequests:
    FIT = ["fit", "--formula", "articles ~ funding | indiv", "--output", "json"]

    @pytest.mark.parametrize("request_, lag", [("nw=indiv,year,abc", "'abc'"),
                                               ("dk=year,-1", "'-1'")])
    def test_bad_lag_is_a_named_error(self, roles_csv, request_, lag):
        code, out, err = run_cli([*self.FIT, "--data", roles_csv, "--vcov", request_])
        assert (code, out) == (2, "")
        assert err == f"error: vcov lag must be a non-negative integer, got {lag}\n"

    @pytest.mark.parametrize("bare, explicit", [("nw", "nw=indiv,year"), ("dk", "dk=year")])
    def test_bare_hac_request_uses_the_panel(self, roles_csv, bare, explicit):
        from_panel = run_cli([*self.FIT, "--data", roles_csv, "--panel", "indiv,year",
                              "--vcov", bare])
        assert from_panel[0] == 0
        assert from_panel == run_cli([*self.FIT, "--data", roles_csv, "--vcov", explicit])

    def test_bare_hac_request_without_panel_is_a_named_error(self, roles_csv):
        code, out, err = run_cli([*self.FIT, "--data", roles_csv, "--vcov", "nw"])
        assert (code, out) == (2, "")
        assert err.startswith("error: nw vcov needs unit/time identifiers")


def _fe_csv_effects(path, labels, codes):
    """Per-row sum of the intercept FE recovered into a --fe-coefs CSV."""
    rows = [line.split(",") for line in Path(path).read_text().splitlines()[1:]]
    total = 0.0
    for label, c in zip(labels, codes):
        value = {lv: float(v) for _, _, fe, lv, col, v in rows if fe == label and col == "0"}
        total = total + np.array([value[str(k)] for k in c])
    return total


class TestIvAndGlmPlumbing:
    @pytest.fixture
    def iv_csv(self, tmp_path):
        rng = np.random.default_rng(8)
        n = 240
        f1 = np.arange(n) % 10
        f2 = rng.integers(0, 4, n)
        x, z, u = rng.normal(size=(3, n))
        e = z + 0.4 * x + 0.1 * f1 + u + rng.normal(size=n)
        y = e - x + 0.2 * f2 + 0.5 * u + rng.normal(size=n)
        count = rng.poisson(np.exp(0.3 * x + 0.05 * f1))
        cols = [y, x, e, z]
        lines = ["y,x,e,z,count,f1,f2"] + [
            ",".join(repr(float(c[i])) for c in cols) + f",{count[i]},{f1[i]},{f2[i]}"
            for i in range(n)]
        path = tmp_path / "iv.csv"
        path.write_text("\n".join(lines) + "\n")
        return str(path), f1, f2

    def test_iv_json_matches_in_process(self, iv_csv, tmp_path):
        path, f1, f2 = iv_csv
        formula = "y ~ x | f1 + f2 | e ~ z"
        fe_path = str(tmp_path / "fe.csv")
        code, out, err = run_cli(["fit", "--formula", formula, "--data", path,
                                  "--output", "json", "--vcov", "iid",
                                  "--vcov", "cluster=f1",
                                  "--fitstat", "n,r2,ivf,wh,sq.cor", "--fe-coefs", fe_path])
        assert code == 0, err
        ds = load_csv(path)
        fit = fit_2sls(formula, ds)
        specs = [VcovSpec("iid"), VcovSpec("cluster", factors=("f1",))]
        models = json.loads(out)["models"]
        assert len(models) == 2
        for model, spec in zip(models, specs):
            se = np.sqrt(np.diag(compute_vcov(fit, spec, ds).matrix))
            coefs = model["coefficients"]
            assert list(coefs) == fit.coef_names == ["fit_e", "x"]
            for k, name in enumerate(fit.coef_names):
                assert coefs[name]["estimate"] == pytest.approx(fit.coef[k], rel=1e-12)
                assert coefs[name]["se"] == pytest.approx(se[k], rel=1e-12)
            stats = model["fitstats"]
            tests = iv_tests(fit, spec, ds)
            assert stats["n"] == fit.dof.n_used == 240
            assert stats["r2"] == pytest.approx(1 - fit.ssr / fit.sst, rel=1e-12)
            for name in ("ivf", "wh"):
                for key in ("stat", "p"):
                    assert stats[name][key] == pytest.approx(tests[name][key], rel=1e-12)
                assert (stats[name]["df1"], stats[name]["df2"]) == \
                    (tests[name]["df1"], tests[name]["df2"])
            y = ds.numeric("y")
            sq_cor = np.corrcoef(y, fit.fitted)[0, 1] ** 2
            assert stats["sq.cor"] == pytest.approx(sq_cor, rel=1e-12)
        part = np.column_stack([ds.numeric("e"), ds.numeric("x")]) @ fit.coef
        fe = _fe_csv_effects(fe_path, ["f1", "f2"], [f1, f2])
        assert np.allclose(part + fe, fit.fitted, atol=1e-6)

    def test_poisson_fe_coefs_reproduce_fitted(self, iv_csv, tmp_path):
        path, f1, f2 = iv_csv
        formula = "count ~ x | f1 + f2"
        fe_path = str(tmp_path / "fe.csv")
        code, _, err = run_cli(["fit", "--formula", formula, "--data", path,
                                "--family", "poisson", "--output", "json",
                                "--fe-coefs", fe_path])
        assert code == 0, err
        fit = fit_glm_irls(formula, load_csv(path), family="poisson")
        fe = _fe_csv_effects(fe_path, ["f1", "f2"], [f1, f2])
        x = load_csv(path).numeric("x")
        assert np.allclose(x * fit.coef[0] + fe, np.log(fit.fitted), atol=1e-6)

    def test_gaussian_prints_what_ols_prints(self, tmp_path):
        # a Gaussian GLM with the identity link is OLS: the same pooled fits,
        # byte for byte, and only the family label apart
        ds = simulate_panel(DgpConfig(n=2_000, seed=3))
        rng = np.random.default_rng(9)
        n = ds.n_rows
        extra = {"w": rng.uniform(0.5, 2.0, n), "off": rng.normal(size=n),
                 "z": rng.normal(size=n)}
        path = str(tmp_path / "panel.csv")
        dataset_to_csv(ds.with_columns({k: NumericColumn(v) for k, v in extra.items()}),
                       path)
        args = ["fit", "--formula", "c(y, x2) ~ csw(x1, z) | indiv_id + firm_id",
                "--data", path, "--weights", "w", "--offset", "off",
                "--vcov", "cluster=firm_id", "--fitstat", "n,r2,wr2,ll,apr2,sq.cor",
                "--output", "json"]
        out = {}
        for family in ("ols", "gaussian"):
            code, out[family], err = run_cli(args + ["--family", family])
            assert code == 0, err
        models = json.loads(out["gaussian"])["models"]
        assert [m["family"] for m in models] == ["gaussian"] * 4
        assert all(math.isfinite(m["fitstats"]["wr2"]) for m in models)
        assert out["gaussian"].replace('"family": "gaussian"', '"family": "ols"') \
            == out["ols"]

    @pytest.mark.parametrize("family", ["poisson", "logit", "gaussian"])
    def test_iv_part_under_glm_family_exit_two(self, tmp_path, family):
        # the endogenous column is blank in 50 rows: a fit that dropped the IV
        # part would run on the other rows without a word
        rng = np.random.default_rng(4)
        n = 400
        f, x, z = rng.integers(1, 20, n), rng.normal(size=n), rng.normal(size=n)
        e = z + rng.normal(size=n)
        y = (rng.normal(size=n) + x > 0) * 1
        lines = ["y,x,f,e,z"] + [
            f"{y[i]},{float(x[i])!r},{f[i]},{'' if i < 50 else repr(float(e[i]))},"
            f"{float(z[i])!r}" for i in range(n)]
        path = tmp_path / "iv.csv"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(["fit", "--formula", "y ~ x | f | e ~ z", "--data",
                                  str(path), "--family", family, "--output", "json"])
        assert code == 2 and out == ""
        assert "IV estimation is only available for OLS models" in err


def _inf_panel_csv(tmp_path, column):
    """60 rows, 6 units over times 1..10, with one +inf cell in ``column``.

    ``g`` and ``h`` hold 6 and 5 clusters and ``s`` is positive throughout.
    """
    rng = np.random.default_rng(8)
    n = 60
    cols = {"y": rng.normal(size=n), "x": rng.normal(size=n),
            "u": np.repeat(np.arange(1.0, 7.0), 10), "t": np.tile(np.arange(1.0, 11.0), 6),
            "g": np.arange(n) % 6 + 1.0, "h": np.arange(n) % 5 + 1.0,
            "s": np.arange(1.0, n + 1.0)}
    cols[column][4] = np.inf  # unit 1, time 5
    path = tmp_path / "inf.csv"
    path.write_text(",".join(cols) + "\n" + "".join(
        ",".join(repr(float(cols[c][i])) for c in cols) + "\n" for i in range(n)))
    return str(path)


class TestInfiniteFactorValues:
    """An infinite value in a column read as groups or times is a missing value."""

    CASES = {
        "cluster": ("g", ["--formula", "y ~ x", "--vcov", "cluster=g"],
                    "error: factor 'g' has missing values inside the sample"),
        "twoway": ("h", ["--formula", "y ~ x", "--vcov", "twoway=g,h"],
                   "error: factor 'h' has missing values inside the sample"),
        "nw unit": ("u", ["--formula", "y ~ x", "--vcov", "nw=u,t"],
                    "error: factor 'u' has missing values inside the sample"),
        "nw time": ("t", ["--formula", "y ~ x", "--vcov", "nw=u,t"],
                    "error: time column 't' must be integer-valued"),
        "dk time": ("t", ["--formula", "y ~ x", "--vcov", "dk=t"],
                    "error: time column 't' must be integer-valued"),
        # the row at time inf and the row at time 6, which lags onto time 5,
        # lose their lags: 54 - 2 rows
        "lag panel time": ("t", ["--formula", "y ~ l(x, 1)", "--panel", "u,t"], 52),
        "numeric subset": ("s", ["--formula", "y ~ x", "--subset", "s > 0"], 59),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_named_error_or_row_dropped(self, tmp_path, case):
        column, args, expected = self.CASES[case]
        src = str(Path(__file__).parents[1] / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "fehd.cli", "--threads", "1", "fit",
             "--data", _inf_panel_csv(tmp_path, column), "--output", "json", *args],
            capture_output=True, text=True, env=env)
        assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
        if isinstance(expected, int):
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout)["models"][0]["nobs"] == expected
        else:
            assert (proc.returncode, proc.stdout) == (2, "")
            assert expected in proc.stderr.splitlines()


def test_factor_beyond_int64_is_a_named_error(tmp_path):
    rng = np.random.default_rng(4)
    path = tmp_path / "big.csv"
    path.write_text("y,x,g\n" + "".join(
        f"{rng.normal()!r},{rng.normal()!r},{(1e20, 3e20)[i % 2]!r}\n" for i in range(40)))
    code, out, err = run_cli(["fit", "--formula", "y ~ x | g", "--data", str(path)])
    assert (code, out) == (2, "")
    assert "factor 'g' has values beyond the 64-bit integer range" in err


def test_exp_overflow_drops_the_row_without_a_warning(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("y,x\n1.0,0.1\n2.5,0.4\n2.0,0.3\n4.0,0.9\n3.0,800\n")
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "fehd.cli", "--threads", "1", "fit", "--data", str(path),
         "--output", "json", "--formula", "y ~ exp(x)"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert json.loads(proc.stdout)["models"][0]["nobs"] == 4


class TestSimulateBench:
    def test_simulate_writes_csv(self, tmp_path):
        out = str(tmp_path / "panel.csv")
        code, *_ = run_cli(["simulate", "--n", "1e3", "--seed", "5", "--out", out])
        assert code == 0
        lines = Path(out).read_text().splitlines()
        assert lines[0].split(",") == ["indiv_id", "year", "firm_id",
                                       "firm_id_difficult", "x1", "x2", "y"]
        assert len(lines) == 1001

    @pytest.mark.parametrize("n", ["5", "0", "nan", "inf", "-20", "abc"])
    def test_simulate_bad_size_exit_one(self, tmp_path, n):
        out = str(tmp_path / "sim.csv")
        code, _, err = run_cli(["simulate", "--n", n, "--out", out])
        assert code == 1 and err.startswith("--n takes finite row counts of at least 10")
        assert not Path(out).exists()

    def test_simulated_csv_roundtrips_through_fit(self, tmp_path):
        out = str(tmp_path / "panel.csv")
        run_cli(["simulate", "--n", "2e3", "--seed", "5", "--out", out])
        code, text, _ = run_cli(["fit", "--formula", "y ~ x1 + x2 | indiv_id + firm_id",
                                 "--data", out])
        assert code == 0 and "x1" in text

    def test_ols_offset_exit_zero(self, tmp_path):
        out = str(tmp_path / "panel.csv")
        run_cli(["simulate", "--n", "2e3", "--seed", "5", "--out", out])
        code, text, _ = run_cli(["fit", "--formula", "y ~ x1 | indiv_id + firm_id",
                                 "--data", out, "--offset", "x2"])
        assert code == 0 and "x1" in text

    def test_poisson_capped_demeaning_exit_two(self, tmp_path):
        ds = simulate_panel(DgpConfig(n=20_000, seed=0))
        rng = np.random.default_rng(1)
        ycount = rng.poisson(np.exp(ds.numeric("y") - 1)).astype(float)
        out = str(tmp_path / "panel.csv")
        dataset_to_csv(ds.with_columns({"ycount": NumericColumn(ycount)}), out)
        args = ["fit", "--formula", "ycount ~ x1 | indiv_id + firm_id_difficult",
                "--data", out, "--family", "poisson"]
        code, _, err = run_cli(args + ["--demean-maxiter", "1"])
        assert code == 2
        assert "demeaning did not converge within 1 iterations" in err
        code, text, _ = run_cli(args)
        assert code == 0 and "x1" in text

    def test_bench_smoke(self, tmp_path):
        out = str(tmp_path / "bench.csv")
        code, *_ = run_cli(["bench", "--sizes", "1000", "--cases",
                            "simple2fe,simple2fe-poisson", "--reps", "1", "--out", out])
        assert code == 0
        lines = Path(out).read_text().splitlines()
        assert lines[0].startswith("case,n,rep,seconds,demean_iterations,irls_iterations")
        assert lines[1].startswith("simple2fe-ols,1000,0,")
        assert lines[1].endswith(",-1,ok")  # no IRLS steps for OLS
        assert lines[2].startswith("simple2fe-poisson,1000,0,")
        assert int(lines[2].split(",")[5]) >= 1

    @pytest.mark.parametrize("args, message", [
        (["--sizes", "1000", "--cases", "simple2fe-poisson", "--plain"],
         "plain mode times OLS"),
        (["--sizes", "100,50", "--cases", "simple2fe"], "sorted"),
        (["--sizes", "inf", "--cases", "simple2fe"], "--sizes takes finite row counts"),
        (["--sizes", "100,nan", "--cases", "simple2fe"], "got 'nan'"),
        (["--sizes", "5", "--cases", "simple2fe"], "at least 10, got '5'"),
        (["--sizes", "1e4,abc", "--cases", "simple2fe"], "got 'abc'")])
    def test_bench_bad_request_exit_one(self, args, message):
        code, _, err = run_cli(["bench"] + args)
        assert code == 1 and message in err

    def test_bench_bad_case_exit_one(self):
        code, _, err = run_cli(["bench", "--sizes", "100", "--cases", "weird"])
        assert code == 1


class TestDumpAst:
    def test_dump(self):
        code, out, _ = run_cli(["dump-ast", "--formula", "y ~ sw(x1, x2) | fe"])
        assert code == 0
        ast = json.loads(out)
        assert ast["rhs"][0]["kind"] == "sw"


class TestDeterminism:
    def test_threads_do_not_change_json(self, data_csv):
        args = ["fit", "--formula", "c(y, x) ~ sw(x, y) | fe".replace("x, y", "x"),
                "--data", data_csv, "--output", "json"]
        # two lhs, shared fe: exercises the pooled path
        args = ["fit", "--formula", "c(y, x) ~ 1 | fe", "--data", data_csv,
                "--output", "json"]
        code1, out1, _ = run_cli(["--threads", "1"] + args)
        code8, out8, _ = run_cli(["--threads", "8"] + args)
        assert code1 == code8 == 0
        assert out1 == out8

    def test_env_threads(self, data_csv, monkeypatch):
        monkeypatch.setenv("FEHD_THREADS", "2")
        code, out, _ = run_cli(["fit", "--formula", "y ~ x | fe", "--data", data_csv])
        assert code == 0

    def test_installed_entry_point(self, data_csv):
        proc = subprocess.run([sys.executable, "-m", "fehd.cli", "dump-ast",
                               "--formula", "y ~ x"], capture_output=True, text=True)
        assert proc.returncode == 0
