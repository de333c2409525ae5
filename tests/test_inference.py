import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

import fehd

from fehd import inference
from fehd.data import DataError, Dataset, NumericColumn, make_factor_index
from fehd.estimators import EstimationError, FitResult, fit_2sls, fit_ols
from fehd.inference import (VcovSpec, _pair_codes, coeftable, compute_vcov, default_lag,
                            fit_stats, iv_tests, parse_vcov_spec, wald_test)

import oracles
from oracles import (dummy_2sls, dummy_design, dummy_residualize, random_instance,
                     sandwich_cluster, sandwich_dk, sandwich_hc1, sandwich_iid,
                     sandwich_nw, sandwich_twoway, scipubs_like)


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

    def test_bare_hac_requests_leave_the_panel_to_the_dataset(self):
        assert parse_vcov_spec("nw") == VcovSpec("nw")
        assert parse_vcov_spec("dk=") == VcovSpec("dk")
        with pytest.raises(DataError, match="nw vcov takes unit,time"):
            parse_vcov_spec("nw=unit")

    @pytest.mark.parametrize("text", ["nw=u,t,abc", "nw=u,t,1.5", "dk=t,-1", "dk=t,+2"])
    def test_lag_must_be_a_non_negative_integer(self, text):
        with pytest.raises(DataError, match="vcov lag must be a non-negative integer"):
            parse_vcov_spec(text)


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

    def test_nw_rejects_duplicate_unit_time(self, rng):
        # 400 rows: 50 units x 8 periods, then unit 0's time-5 row made a
        # second time 4; dk sums the periods first, so it is unaffected
        n = 400
        unit = np.repeat(np.arange(50.0), 8)
        time = np.tile(np.arange(8.0), 50)
        time[5] = 4.0
        x = rng.normal(size=n)
        ds = make_ds(y=x + rng.normal(size=n), x=x, unit=unit, time=time)
        fit = fit_ols("y ~ x", ds)
        for lag in (0, 2, None):
            with pytest.raises(DataError, match=r"duplicate \(unit, time\) pairs"):
                compute_vcov(fit, VcovSpec("nw", unit="unit", time="time", lag=lag), ds)
        with pytest.raises(DataError, match=r"duplicate \(unit, time\) pairs"):
            compute_vcov(fit, VcovSpec("nw"), ds.with_panel("unit", "time"))
        assert np.isfinite(compute_vcov(fit, VcovSpec("dk", time="time"), ds).matrix).all()

    @pytest.mark.parametrize("lag", [6, 13])
    def test_nw_lag_past_the_time_span_pairs_no_other_unit(self, lag, rng):
        # 6 periods: a lag of 6 or more pairs nothing, never rows of two units
        ds, fit = small_fit(rng, with_panel=True)
        Xt = np.column_stack([np.ones(fit.dof.n_used), ds.numeric("x1"), ds.numeric("x2")])
        expected = sandwich_nw(Xt, fit.residuals, None, fit.dof.k_total,
                               ds.numeric("unit").astype(int), ds.numeric("time").astype(int),
                               lag)
        vc = compute_vcov(fit, VcovSpec("nw", unit="unit", time="time", lag=lag), ds)
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

    @pytest.mark.parametrize("ssc", ["default", "none"])
    @pytest.mark.parametrize("kind", ["iid", "hc1", "cluster", "twoway", "nw", "dk"])
    def test_small_sample_factors_and_sandwich_by_hand(self, kind, ssc, rng):
        # every recorded factor is its textbook formula (1 under ssc='none'),
        # and the matrix is A^-1 M A^-1 c with M formed here from the scores
        ds, _ = small_fit(rng, with_panel=True)
        fit = fit_ols("y ~ x1 + x2 | g", ds, demean_tol=1e-12)
        N, K, df = fit.dof.n_used, fit.dof.k_total, fit.dof.df_resid
        on = ssc == "default"
        A = fit.xtx_inv
        S = fit.score_rows()
        unit = ds.numeric("unit").astype(int)
        time = ds.numeric("time").astype(int)

        def cluster_factor(codes):
            G = len(np.unique(codes))
            return (G / (G - 1)) * ((N - 1) / (N - K)) if on else 1.0

        def sums(codes):
            levels, inv = np.unique(codes, return_inverse=True)
            out = np.zeros((len(levels), S.shape[1]))
            np.add.at(out, inv, S)
            return out, levels

        def bartlett(rows, at, lag):
            # rows[i] paired with rows[j] where at[j] = at[i] - l, same series
            meat = rows.T @ rows
            for l in range(1, lag + 1):
                for i, j in ((i, j) for i in range(len(at)) for j in range(len(at))
                             if at[j] == at[i] - l):
                    g = np.outer(rows[i], rows[j]) * (1 - l / (lag + 1))
                    meat += g + g.T
            return meat

        spec = {"iid": VcovSpec("iid", ssc=ssc), "hc1": VcovSpec("hc1", ssc=ssc),
                "cluster": VcovSpec("cluster", factors=("unit",), ssc=ssc),
                "twoway": VcovSpec("twoway", factors=("unit", "time"), ssc=ssc),
                "nw": VcovSpec("nw", unit="unit", time="time", lag=2, ssc=ssc),
                "dk": VcovSpec("dk", time="time", lag=2, ssc=ssc)}[kind]
        vc = compute_vcov(fit, spec, ds)
        if kind == "iid":
            denom = df if on else N
            assert vc.ssc == {"sigma2_denominator": float(denom)}
            want = fit.ssr / denom * A
        elif kind in ("hc1", "nw"):
            c = N / (N - K) if on else 1.0
            assert vc.ssc == {kind: c}
            if kind == "hc1":
                meat = S.T @ S
            else:
                meat = sum(bartlett(S[unit == u], time[unit == u], 2)
                           for u in np.unique(unit))
            want = A @ meat @ A * c
        elif kind == "cluster":
            c = cluster_factor(unit)
            assert vc.ssc == {"cluster": c, "n_clusters": 15.0}
            su, _ = sums(unit)
            want = A @ (su.T @ su) @ A * c
        elif kind == "twoway":
            both = unit * 100 + time
            c1, c2, c12 = cluster_factor(unit), cluster_factor(time), cluster_factor(both)
            assert vc.ssc == {"cluster1": c1, "cluster2": c2, "intersection": c12}
            meat = sum(f * m.T @ m for f, m in ((c1, sums(unit)[0]), (c2, sums(time)[0]),
                                                (-c12, sums(both)[0])))
            want = A @ meat @ A
        else:
            c = cluster_factor(time)
            assert vc.ssc == {"dk": c}
            st, periods = sums(time)
            want = A @ bartlett(st, periods, 2) @ A * c
        assert np.abs(vc.matrix - want).max() <= 1e-12 * np.abs(want).max()

    def test_labels(self, rng):
        ds, fit = small_fit(rng, with_panel=True)
        assert compute_vcov(fit, VcovSpec("iid")).label == "IID"
        assert compute_vcov(fit, VcovSpec("cluster", factors=("g",)), ds).label == "by: g"
        assert compute_vcov(fit, VcovSpec("nw", unit="unit", time="time", lag=1),
                            ds).label == "Newey-West (L=1)"


class TestNoPerRowState:
    """A VCOV call forms its score rows and codes and keeps none of them."""

    SPECS = (VcovSpec("iid"), VcovSpec("hc1"), VcovSpec("cluster", factors=("g",)),
             VcovSpec("twoway", factors=("unit", "g")),
             VcovSpec("nw", unit="unit", time="time", lag=1), VcovSpec("dk", time="time"))

    @staticmethod
    def fe_fit(rng, formula="y ~ x1 + x2 | unit + g + time"):
        ds, _ = small_fit(rng, with_panel=True)
        w = NumericColumn(rng.uniform(0.5, 2.0, ds.n_rows))
        ds = ds.with_columns({"w": w, **{f"{c}_copy": ds.column(c) for c in ("g", "unit", "time")}})
        return ds, fit_ols(formula, ds, weights="w", demean_tol=1e-12)

    def test_fit_has_no_scores_field(self):
        assert "scores" not in {f.name for f in dataclasses.fields(FitResult)}

    def test_call_order_changes_no_bit(self):
        def fresh():
            return self.fe_fit(np.random.default_rng(0))
        ds, fit = fresh()
        # each kind computed first on a fit of its own
        first = [compute_vcov(fresh()[1], spec, ds).matrix for spec in self.SPECS]
        for order in (self.SPECS, self.SPECS[::-1]):
            got = {spec: compute_vcov(fit, spec, ds).matrix for spec in order}
            for spec, want in zip(self.SPECS, first):
                assert np.array_equal(got[spec], want), spec

    @pytest.mark.parametrize("spec, rebuilt", [
        (VcovSpec("cluster", factors=("g",)), VcovSpec("cluster", factors=("g_copy",))),
        (VcovSpec("twoway", factors=("unit", "g")),
         VcovSpec("twoway", factors=("unit_copy", "g_copy"))),
        (VcovSpec("nw", unit="unit", time="time", lag=2),
         VcovSpec("nw", unit="unit_copy", time="time_copy", lag=2)),
        (VcovSpec("dk", time="time", lag=1), VcovSpec("dk", time="time_copy", lag=1)),
    ])
    def test_fe_variables_read_the_fit_codes(self, spec, rebuilt, rng, monkeypatch):
        ds, fit = self.fe_fit(rng)
        want = compute_vcov(fit, rebuilt, ds)
        calls = []
        monkeypatch.setattr(inference, "make_factor_index",
                            lambda *a: calls.append(a) or make_factor_index(*a))
        got = compute_vcov(fit, spec, ds)
        assert calls == []
        assert np.array_equal(got.matrix, want.matrix)
        assert got.ssc == want.ssc

    def test_fe_with_slopes_or_two_factors_rebuilds_codes(self, rng, monkeypatch):
        # a column named like a two-factor FE is not that FE
        ds, fit = self.fe_fit(rng, "y ~ x1 | g[x2] + time^g")
        ds = ds.with_columns({"time^g": ds.column("unit")})
        calls = []
        monkeypatch.setattr(inference, "make_factor_index",
                            lambda *a: calls.append(a[2]) or make_factor_index(*a))
        for name, copy in (("g", "g_copy"), ("time^g", "unit_copy")):
            got = compute_vcov(fit, VcovSpec("cluster", factors=(name,)), ds).matrix
            want = compute_vcov(fit, VcovSpec("cluster", factors=(copy,)), ds).matrix
            assert np.array_equal(got, want)
        assert calls == [["g"], ["g_copy"], ["time^g"], ["unit_copy"]]

    @pytest.mark.parametrize("n", [0, 1, 2, 1000])
    def test_pair_codes_match_unique_inverse(self, n, rng):
        n1, n2 = 7, 40
        c1, c2 = rng.integers(0, n1, n), rng.integers(0, n2, n)
        levels, inv = np.unique(c1 * np.int64(n2) + c2, return_inverse=True)
        codes, G = _pair_codes(c1, c2, n2)
        assert codes.dtype == np.int64 and G == len(levels)
        assert np.array_equal(codes, inv)


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

    @pytest.mark.parametrize("estimator", ["ols", "2sls"])
    def test_sq_cor_offset_uses_observed_outcome(self, rng, estimator):
        n = 400
        z = rng.normal(size=n)
        x = z + rng.normal(size=n)
        g = (np.arange(n) % 8).astype(float)
        off = rng.normal(size=n, scale=3.0)
        y = x + off + rng.normal(size=n)
        ds = make_ds(y=y, x=x, z=z, g=g, off=off)
        if estimator == "ols":
            fit = fit_ols("y ~ x", ds, offset="off")
        else:
            fit = fit_2sls("y ~ 1 | g | x ~ z", ds, offset="off")
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

    def test_wh_does_not_vanish_with_a_small_first_stage_residual(self):
        # the first-stage residual is 1e-6 of E's scale, but it is no
        # combination of E and x, so it is not dropped as collinear
        rng = np.random.default_rng(2)
        n = 500
        z, x, v, u = rng.normal(size=(4, n))
        stats = []
        for eps in (1e-2, 1e-6):
            e = z + eps * v
            ds = make_ds(y=e + x + u + 0.5 * v, x=x, e=e, z=z)
            stats.append(iv_tests(fit_2sls("y ~ x | e ~ z", ds), None, ds)["wh"]["stat"])
        assert stats[1] == pytest.approx(stats[0], rel=0.01)

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("regression", ["first_stage", "wu_hausman"])
    def test_near_exact_fits_match_dense(self, regression, weighted):
        # the regression under test leaves about 1e-10 of its outcome: a Gram
        # difference would keep about 6 digits of its SSR, so that SSR has to
        # come from summed residuals.  (The first-stage residual is kept tiny
        # only in the first case: at 1e-10 of E's scale the collinearity rule
        # drops it from the Wu-Hausman regression.)
        rng = np.random.default_rng(29)
        n = 240
        f1 = np.arange(n) % 12
        f2 = rng.integers(0, 5, n)
        z, x, u = rng.normal(size=(3, n))
        if regression == "first_stage":
            e = z + 0.3 * x + 0.2 * f1 + 1e-5 * u
            y = e - x + 0.1 * f2 + 0.6 * u + rng.normal(size=n)
        else:
            e = z + 0.3 * x + 0.2 * f1 + 1e-3 * u
            y = 100 * e - x + 0.1 * f2 + 1e-3 * (0.6 * u + rng.normal(size=n))
        w = rng.uniform(0.5, 2.0, n) if weighted else None
        cols = dict(y=y, x=x, z=z, e=e, f1=f1.astype(float), f2=f2.astype(float))
        if weighted:
            cols["w"] = w
        ds = make_ds(**cols)
        fit = fit_2sls("y ~ x | f1 + f2 | e ~ z", ds, demean_tol=1e-13,
                       weights="w" if weighted else None)
        out = iv_tests(fit, None, ds)

        fe_specs = [(f1, 12, None, True), (f2, 5, None, True)]
        sw = np.sqrt(w) if weighted else np.ones(n)

        def ssr(target, X):
            D = dummy_design(X, fe_specs)
            beta, _, rank, _ = np.linalg.lstsq(D * sw[:, None], target * sw, rcond=None)
            r = target - D @ beta
            return float(np.sum(sw ** 2 * r ** 2)), r, rank

        if regression == "first_stage":
            ssr1, _, rank1 = ssr(e, np.column_stack([x, z]))
            ssr1_r, _, _ = ssr(e, x[:, None])
            ivf = (ssr1_r - ssr1) / (ssr1 / (n - rank1))
            assert fit.iv_diag.first_stages[0].ssr == pytest.approx(ssr1, rel=1e-8)
            assert out["ivf"]["stat"] == pytest.approx(ivf, rel=1e-8)
        else:
            _, v, _ = ssr(e, np.column_stack([x, z]))
            ssr_r, _, _ = ssr(y, np.column_stack([e, x]))
            ssr_u, _, rank_u = ssr(y, np.column_stack([e, x, v]))
            wh = (ssr_r - ssr_u) / (ssr_u / (n - rank_u))
            assert out["wh"]["stat"] == pytest.approx(wh, rel=1e-8)

    def test_iid_ivf_follows_ssc(self):
        # each first-stage F is the joint F under compute_vcov of that stage,
        # so ssc="none" moves it under IID as under the sandwiches
        ds = scipubs_like()
        fit = fit_2sls("articles ~ 1 | indiv + year | funding ~ policy", ds)
        (first,) = fit.iv_diag.first_stages
        sub = [first.coef_names.index("policy")]
        for ssc in ("default", "none"):
            spec = VcovSpec("iid", ssc=ssc)
            V = compute_vcov(first, spec, ds).matrix[np.ix_(sub, sub)]
            g = first.coef[sub]
            want = float(g @ np.linalg.solve(V, g))
            assert iv_tests(fit, spec, ds)["ivf"]["stat"] == pytest.approx(want, rel=1e-12)

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


def assert_rel_close(got, want, rtol=1e-8):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


class TestTwoSlsOracle:
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("n_endo, n_inst", [(1, 2), (2, 3)])
    def test_matches_dummy_2sls(self, n_endo, n_inst, weighted):
        # two FE, one exogenous regressor; coefficients, residuals, SEs and
        # first-stage F against explicit dummies and textbook sandwiches
        rng = np.random.default_rng(40 + n_endo)
        n = 300
        f1 = np.arange(n) % 12
        f2 = rng.integers(0, 5, n)
        x = rng.normal(size=n)
        Z = rng.normal(size=(n, n_inst))
        u = rng.normal(size=n)
        E = (Z @ (rng.normal(size=(n_inst, n_endo)) + 0.5) + 0.3 * x[:, None]
             + 0.2 * f1[:, None] + u[:, None] + rng.normal(size=(n, n_endo)))
        y = E @ np.array([1.0, -0.5])[:n_endo] - x + 0.1 * f2 + 0.6 * u + rng.normal(size=n)
        w = rng.uniform(0.5, 2.0, n) if weighted else None
        endo = [f"e{j}" for j in range(n_endo)]
        inst = [f"z{k}" for k in range(n_inst)]
        cols = dict(y=y, x=x, f1=f1, f2=f2, **dict(zip(endo, E.T)), **dict(zip(inst, Z.T)))
        if weighted:
            cols["w"] = w
        ds = make_ds(**cols)
        fit = fit_2sls(f"y ~ x | f1 + f2 | {' + '.join(endo)} ~ {' + '.join(inst)}", ds,
                       demean_tol=1e-13, weights="w" if weighted else None)

        fe_specs = [(f1, 12, None, True), (f2, 5, None, True)]
        k_fe = 12 + 5 - 1
        coef, resid, E_hat = dummy_2sls(y, x[:, None], E, Z, fe_specs, w)
        assert fit.coef_names == [f"fit_{e}" for e in endo] + ["x"]
        assert_rel_close(fit.coef, coef)
        assert_rel_close(fit.residuals, resid)

        k2 = n_endo + 1 + k_fe
        assert fit.dof.k_total == k2
        D2t = dummy_residualize(np.column_stack([E_hat, x]), fe_specs, w)
        for spec, oracle in ((VcovSpec("iid"), sandwich_iid(D2t, resid, w, k2)),
                             (VcovSpec("hc1"), sandwich_hc1(D2t, resid, w, k2)),
                             (VcovSpec("cluster", factors=("f1",)),
                              sandwich_cluster(D2t, resid, w, k2, f1))):
            V = compute_vcov(fit, spec, ds).matrix
            assert_rel_close(np.sqrt(np.diag(V)), np.sqrt(np.diag(oracle)))

        # first-stage F on the instruments, per endogenous variable
        wv = w if weighted else np.ones(n)
        D1t = dummy_residualize(np.column_stack([x, Z]), fe_specs, w)
        Et = dummy_residualize(E, fe_specs, w)
        k1 = 1 + n_inst + k_fe
        for kind in ("iid", "cluster"):
            spec = VcovSpec(kind, factors=("f1",) if kind == "cluster" else ())
            ivf = iv_tests(fit, spec, ds)["ivf_all"]
            for j, e in enumerate(endo):
                A = D1t.T @ (D1t * wv[:, None])
                delta = np.linalg.solve(A, D1t.T @ (wv * Et[:, j]))
                v = Et[:, j] - D1t @ delta
                V1 = (sandwich_iid(D1t, v, w, k1) if kind == "iid"
                      else sandwich_cluster(D1t, v, w, k1, f1))
                g = delta[1:]
                stat = float(g @ np.linalg.solve(V1[1:, 1:], g)) / n_inst
                assert (ivf[e]["df1"], ivf[e]["df2"]) == (n_inst, n - k1)
                assert_rel_close(ivf[e]["stat"], stat)

        # Wu-Hausman: the first-stage residuals join the structural equation
        sw = np.sqrt(wv)

        def ssr(X):
            D = dummy_design(X, fe_specs)
            beta, _, rank, _ = np.linalg.lstsq(D * sw[:, None], y * sw, rcond=None)
            return float(np.sum((sw * (y - D @ beta)) ** 2)), rank

        ssr_r, _ = ssr(np.column_stack([E, x]))
        ssr_u, rank_u = ssr(np.column_stack([E, x, E - E_hat]))
        wh = iv_tests(fit, None, ds)["wh"]
        assert (wh["df1"], wh["df2"]) == (n_endo, n - rank_u)
        assert_rel_close(wh["stat"], (ssr_r - ssr_u) / n_endo / (ssr_u / (n - rank_u)))


def loaded_modules(code: str, modules: tuple[str, ...]) -> list[str]:
    """Which of ``modules`` a fresh interpreter has loaded after running ``code``."""
    code += f"\nimport json, sys; print(json.dumps([m for m in {modules!r} if m in sys.modules]))"
    src = str(Path(fehd.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_import_leaves_out_scipy_stats():
    # p-values and quantiles come from scipy.special: importing scipy.stats
    # would also load scipy.optimize and scipy.sparse.linalg on every run
    assert loaded_modules("import fehd", ("scipy.stats", "scipy.sparse.linalg")) == []


def test_fits_load_no_dense_linalg_or_special_functions():
    # the solves run on numpy's LAPACK; scipy.special loads with the first
    # p-value or quantile, scipy.sparse.linalg with the first factored A
    code = """
import numpy as np
from fehd.data import Dataset, NumericColumn
from fehd.estimators import fit_glm_irls, fit_ols
rng = np.random.default_rng(0)
n = 2000
x = rng.normal(size=n)
cols = {"f1": rng.integers(0, 50, n), "f2": rng.integers(0, 30, n), "x": x,
        "y": x + rng.normal(size=n), "yc": rng.poisson(np.exp(0.3 * x))}
ds = Dataset(n, {k: NumericColumn(np.asarray(v, dtype=float)) for k, v in cols.items()})
fit_ols("y ~ x | f1 + f2", ds)
fit_glm_irls("yc ~ x | f1 + f2", ds, family="poisson")
"""
    assert loaded_modules(code, ("scipy.linalg", "scipy.special",
                                 "scipy.sparse.linalg")) == []
