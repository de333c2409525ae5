import numpy as np
import pytest
import scipy.stats

from fehd.data import Dataset, NumericColumn
from fehd.estimators import EstimationError, fit_2sls, fit_ols
from fehd.inference import (VcovSpec, coeftable, compute_vcov, default_lag,
                            fit_stats, iv_tests, parse_vcov_spec, wald_test)

import oracles
from oracles import (dummy_design, random_instance, sandwich_cluster, sandwich_dk,
                     sandwich_hc1, sandwich_iid, sandwich_nw, sandwich_twoway,
                     scipubs_like)


def make_ds(**cols):
    n = len(next(iter(cols.values())))
    return Dataset(n_rows=n, columns={k: NumericColumn(np.asarray(v, dtype=float))
                                      for k, v in cols.items()})


def small_fit(rng, n=90, with_panel=False):
    unit = np.repeat(np.arange(n // 6, dtype=float), 6)
    time = np.tile(np.arange(6, dtype=float), n // 6)
    x1 = rng.normal(size=n)
    x2 = rng.normal(size=n)
    g = (np.arange(n) % 5).astype(float)
    y = 1 + x1 - 0.5 * x2 + 0.3 * g + rng.normal(size=n)
    ds = make_ds(y=y, x1=x1, x2=x2, g=g, unit=unit, time=time)
    if with_panel:
        ds = ds.with_panel("unit", "time")
    fit = fit_ols("y ~ x1 + x2", ds, demean_tol=1e-12)
    return ds, fit


class TestParseSpec:
    def test_forms(self):
        assert parse_vcov_spec("iid").kind == "iid"
        assert parse_vcov_spec("hetero").kind == "hc1"
        assert parse_vcov_spec("cluster=g") == VcovSpec("cluster", factors=("g",))
        assert parse_vcov_spec("cluster=a,b").kind == "twoway"
        s = parse_vcov_spec("nw=unit,time,2")
        assert (s.kind, s.unit, s.time, s.lag) == ("nw", "unit", "time", 2)
        assert parse_vcov_spec("dk=time").lag is None

    def test_bad(self):
        with pytest.raises(Exception, match="unknown vcov"):
            parse_vcov_spec("bootstrap")


class TestDefaultLag:
    def test_dk_16(self):
        assert default_lag("dk", 16) == 2

    def test_dk_10(self):
        assert default_lag("dk", 10) == 1

    def test_nw_8(self):
        assert default_lag("nw", 8) == 1


class TestComputeVcov:
    def test_hand_computed_cluster_toy(self):
        # 6 rows, 2 clusters; sandwich computed from the textbook formula
        y = np.array([1.0, 2, 1.5, 4, 3, 5])
        x = np.array([0.0, 1, 2, 3, 4, 5])
        g = np.array([0.0, 0, 0, 1, 1, 1])
        ds = make_ds(y=y, x=x, g=g)
        fit = fit_ols("y ~ x", ds)
        vc = compute_vcov(fit, VcovSpec("cluster", factors=("g",)), ds)
        X = np.column_stack([np.ones(6), x])
        beta = np.linalg.solve(X.T @ X, X.T @ y)
        r = y - X @ beta
        A_inv = np.linalg.inv(X.T @ X)
        meat = np.zeros((2, 2))
        for gg in (0, 1):
            sg = (X[g == gg] * r[g == gg][:, None]).sum(axis=0)
            meat += np.outer(sg, sg)
        expected = A_inv @ meat @ A_inv * (2 / 1) * (5 / 4)
        assert np.allclose(vc.matrix, expected, atol=1e-12)

    def test_every_obs_own_cluster_vs_hc1(self, rng):
        ds, fit = small_fit(rng)
        own = NumericColumn(np.arange(fit.dof.n_used, dtype=float))
        ds2 = ds.with_columns({"rowid": own})
        vc = compute_vcov(fit, VcovSpec("cluster", factors=("rowid",)), ds2)
        hc = compute_vcov(fit, VcovSpec("hc1"))
        n, k = fit.dof.n_used, fit.dof.k_total
        ratio = ((n / (n - 1)) * ((n - 1) / (n - k))) / (n / (n - k))
        assert np.allclose(vc.matrix, hc.matrix * ratio, rtol=1e-12)

    def test_nw_lag0_equals_hc_meat(self, rng):
        ds, fit = small_fit(rng, with_panel=True)
        nw = compute_vcov(fit, VcovSpec("nw", unit="unit", time="time", lag=0), ds)
        hc = compute_vcov(fit, VcovSpec("hc1"))
        assert np.allclose(nw.matrix, hc.matrix, rtol=1e-12)

    @pytest.mark.parametrize("kind", ["iid", "hc1", "cluster", "twoway", "nw", "dk"])
    def test_dense_oracle(self, kind, rng):
        for rep in range(4):
            ds, fit = small_fit(np.random.default_rng(100 + rep), with_panel=True)
            Xt = np.column_stack([np.ones(fit.dof.n_used),
                                  ds.numeric("x1"), ds.numeric("x2")])
            r = fit.residuals
            k = fit.dof.k_total
            units = ds.numeric("unit").astype(int)
            times = ds.numeric("time").astype(int)
            gvals = ds.numeric("g").astype(int)
            if kind == "iid":
                spec, expected = VcovSpec("iid"), sandwich_iid(Xt, r, None, k)
            elif kind == "hc1":
                spec, expected = VcovSpec("hc1"), sandwich_hc1(Xt, r, None, k)
            elif kind == "cluster":
                spec = VcovSpec("cluster", factors=("g",))
                expected = sandwich_cluster(Xt, r, None, k, gvals)
            elif kind == "twoway":
                spec = VcovSpec("twoway", factors=("g", "time"))
                expected = sandwich_twoway(Xt, r, None, k, gvals, times)
            elif kind == "nw":
                spec = VcovSpec("nw", unit="unit", time="time", lag=2)
                expected = sandwich_nw(Xt, r, None, k, units, times, 2)
            else:
                spec = VcovSpec("dk", time="time", lag=1)
                expected = sandwich_dk(Xt, r, None, k, times, 1)
            vc = compute_vcov(fit, spec, ds)
            assert np.abs(vc.matrix - expected).max() < 1e-10 * (1 + np.abs(expected).max())

    def test_recompute_equals_refit_bitwise(self, rng):
        ds, fit = small_fit(rng)
        spec = VcovSpec("cluster", factors=("g",))
        v1 = compute_vcov(fit, spec, ds)
        fit2 = fit_ols("y ~ x1 + x2", ds, demean_tol=1e-12)
        v2 = compute_vcov(fit2, spec, ds)
        assert np.array_equal(v1.matrix, v2.matrix)

    def test_coefficients_invariant_to_vcov(self, rng):
        ds, fit = small_fit(rng, with_panel=True)
        base = fit.coef.copy()
        for spec in (VcovSpec("hc1"), VcovSpec("cluster", factors=("g",)),
                     VcovSpec("dk", time="time")):
            compute_vcov(fit, spec, ds)
            assert np.array_equal(fit.coef, base)

    def test_symmetric_psd_diag(self, rng):
        ds, fit = small_fit(rng, with_panel=True)
        for spec in (VcovSpec("iid"), VcovSpec("hc1"),
                     VcovSpec("twoway", factors=("g", "time"))):
            vc = compute_vcov(fit, spec, ds)
            assert np.allclose(vc.matrix, vc.matrix.T)
            assert (np.diag(vc.matrix) >= 0).all()

    def test_single_cluster_error(self, rng):
        ds, fit = small_fit(rng)
        ds2 = ds.with_columns({"one": NumericColumn(np.zeros(fit.dof.n_used))})
        with pytest.raises(EstimationError, match="single cluster"):
            compute_vcov(fit, VcovSpec("cluster", factors=("one",)), ds2)

    def test_ssc_none(self, rng):
        ds, fit = small_fit(rng)
        v = compute_vcov(fit, VcovSpec("hc1", ssc="none"))
        vd = compute_vcov(fit, VcovSpec("hc1"))
        n, k = fit.dof.n_used, fit.dof.k_total
        assert np.allclose(vd.matrix, v.matrix * n / (n - k), rtol=1e-12)

    def test_labels(self, rng):
        ds, fit = small_fit(rng, with_panel=True)
        assert compute_vcov(fit, VcovSpec("iid")).label == "IID"
        assert compute_vcov(fit, VcovSpec("cluster", factors=("g",)), ds).label == "by: g"
        assert compute_vcov(fit, VcovSpec("nw", unit="unit", time="time", lag=1),
                            ds).label == "Newey-West (L=1)"


class TestFitStats:
    def test_perfect_fit(self):
        ds = make_ds(y=[2, 4, 6, 8], x=[1, 2, 3, 4])
        fit = fit_ols("y ~ x", ds)
        st = fit_stats(fit, ["r2", "rmse"])
        assert st["r2"] == pytest.approx(1.0)
        assert st["rmse"] == pytest.approx(0.0, abs=1e-12)

    def test_wald_single_coef_equals_t_squared(self, rng):
        n = 80
        x = rng.normal(size=n)
        y = 0.3 * x + rng.normal(size=n)
        ds = make_ds(y=y, x=x)
        fit = fit_ols("y ~ x", ds)
        vc = compute_vcov(fit, VcovSpec("iid"))
        rows = coeftable(fit, vc)
        w = wald_test(fit, vc)
        t_x = [r["stat"] for r in rows if r["name"] == "x"][0]
        assert w["stat"] == pytest.approx(t_x ** 2, rel=1e-12)
        assert w["df1"] == 1

    def test_within_r2_zero_for_fe_only(self, rng):
        n = 60
        g = (np.arange(n) % 4).astype(float)
        y = g + rng.normal(size=n)
        ds = make_ds(y=y, g=g)
        fit = fit_ols("y ~ 1 | g", ds)
        assert fit_stats(fit, ["wr2"])["wr2"] == pytest.approx(0.0, abs=1e-12)

    def test_poisson_stats_finite(self, rng):
        from fehd.estimators import fit_glm_irls
        n = 200
        x = rng.normal(size=n, scale=0.3)
        y = rng.poisson(np.exp(1 + 0.4 * x)).astype(float)
        ds = make_ds(y=y, x=x)
        fit = fit_glm_irls("y ~ x", ds, family="poisson")
        st = fit_stats(fit, ["n", "ll", "bic", "apr2", "sq.cor"])
        assert st["n"] == n and np.isfinite(st["ll"]) and np.isfinite(st["bic"])
        assert 0 <= st["sq.cor"] <= 1

    def test_sq_cor_ols_offset_uses_observed_outcome(self, rng):
        n = 200
        x = rng.normal(size=n)
        off = rng.normal(size=n, scale=3.0)
        y = x + off + rng.normal(size=n)
        fit = fit_ols("y ~ x", make_ds(y=y, x=x, off=off), offset="off")
        expected = np.corrcoef(y, fit.fitted)[0, 1] ** 2
        assert expected > 0.8
        assert fit_stats(fit, ["sq.cor"])["sq.cor"] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("formula", ["y ~ x", "y ~ x | g"])
    def test_sq_cor_without_offset_unchanged(self, rng, formula):
        n = 120
        x = rng.normal(size=n)
        g = (np.arange(n) % 6).astype(float)
        y = 0.5 * x + g + rng.normal(size=n)
        fit = fit_ols(formula, make_ds(y=y, x=x, g=g))
        expected = np.corrcoef(y, fit.fitted)[0, 1] ** 2
        assert fit_stats(fit, ["sq.cor"])["sq.cor"] == pytest.approx(expected, rel=1e-12)

    def test_gaussian_ll_and_unknown_stat(self, rng):
        ds, fit = small_fit(rng)
        assert np.isfinite(fit_stats(fit, ["ll"])["ll"])
        with pytest.raises(EstimationError, match="unknown fit statistic"):
            fit_stats(fit, ["magic"])


class TestIvTests:
    def test_dof_shapes_match_pattern(self):
        ds = scipubs_like()
        fit = fit_2sls("articles ~ 1 | indiv + year | funding ~ policy", ds)
        out = iv_tests(fit, None, ds)
        n, kfe = 1080, 108 + 10 - 1
        assert out["ivf"]["df1"] == 1
        assert out["ivf"]["df2"] == n - kfe - 1
        assert out["wh"]["df1"] == 1
        assert out["wh"]["df2"] == n - kfe - 2

    @pytest.mark.parametrize("weighted", [False, True])
    def test_wh_equals_dense_control_function(self, weighted):
        # Wu-Hausman F against a regression with explicit FE dummies: add the
        # first-stage residual to the structural equation and compare SSRs
        rng = np.random.default_rng(23)
        n = 240
        f1 = np.arange(n) % 12
        f2 = rng.integers(0, 5, n)
        z = rng.normal(size=n)
        x = rng.normal(size=n)
        u = rng.normal(size=n)
        e = z + 0.3 * x + 0.2 * f1 + u
        y = e - x + 0.1 * f2 + 0.6 * u + rng.normal(size=n)
        w = rng.uniform(0.5, 2.0, n) if weighted else None
        cols = dict(y=y, x=x, z=z, e=e, f1=f1.astype(float), f2=f2.astype(float))
        if weighted:
            cols["w"] = w
        ds = make_ds(**cols)
        fit = fit_2sls("y ~ x | f1 + f2 | e ~ z", ds, demean_tol=1e-13,
                       weights="w" if weighted else None)
        wh = iv_tests(fit, None, ds)["wh"]

        fe_specs = [(f1, 12, None, True), (f2, 5, None, True)]
        sw = np.sqrt(w) if weighted else np.ones(n)

        def resid_and_rank(target, X):
            D = dummy_design(X, fe_specs)
            beta, _, rank, _ = np.linalg.lstsq(D * sw[:, None], target * sw, rcond=None)
            return target - D @ beta, rank

        v, _ = resid_and_rank(e, np.column_stack([x, z]))
        r_r, _ = resid_and_rank(y, np.column_stack([e, x]))
        r_u, rank_u = resid_and_rank(y, np.column_stack([e, x, v]))
        ssr_r = float(np.sum(sw ** 2 * r_r ** 2))
        ssr_u = float(np.sum(sw ** 2 * r_u ** 2))
        df2 = n - rank_u
        stat = (ssr_r - ssr_u) / (ssr_u / df2)
        assert wh["df1"] == 1 and wh["df2"] == df2
        assert wh["stat"] == pytest.approx(stat, rel=1e-8)

    def test_ivf_pvalues_uniform_under_null(self):
        # instruments orthogonal to the endo: first-stage F p-values ~ U(0,1)
        reps, n = 400, 120
        rng = np.random.default_rng(7)
        pvals = np.empty(reps)
        for k in range(reps):
            z = rng.normal(size=n)
            x = rng.normal(size=n)
            y = 0.5 * x + rng.normal(size=n)
            ds = make_ds(y=y, x=x, z=z)
            fit = fit_2sls("y ~ 1 | x ~ z", ds)
            pvals[k] = iv_tests(fit, None, ds)["ivf"]["p"]
        ks = scipy.stats.kstest(pvals, "uniform")
        assert ks.pvalue > 0.01

    def test_wh_size_under_exogeneity(self):
        # x truly exogenous: Wu-Hausman rejects at roughly the nominal 5% rate
        reps, n = 400, 150
        rng = np.random.default_rng(11)
        rej = 0
        for k in range(reps):
            z = rng.normal(size=n)
            x = 0.9 * z + rng.normal(size=n)
            y = 0.5 * x + rng.normal(size=n)
            ds = make_ds(y=y, x=x, z=z)
            fit = fit_2sls("y ~ 1 | x ~ z", ds)
            rej += iv_tests(fit, None, ds)["wh"]["p"] < 0.05
        rate = rej / reps
        assert 0.02 <= rate <= 0.09
