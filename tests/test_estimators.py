import numpy as np
import pytest

from fehd.bench import DgpConfig, simulate_panel
from fehd.data import Dataset, NumericColumn
from fehd.estimators import (EstimationError, fit_2sls, fit_glm_irls, fit_model,
                             fit_ols, fixef, pivoted_cholesky_kept)

from oracles import dummy_irls, dummy_ols, random_instance, scipubs_like


def make_ds(**cols):
    n = len(next(iter(cols.values())))
    return Dataset(n_rows=n, columns={k: NumericColumn(np.asarray(v, dtype=float))
                                      for k, v in cols.items()})


class TestFitOls:
    def test_exact_line(self):
        ds = make_ds(y=[2, 4, 6, 8], x=[1, 2, 3, 4])
        fit = fit_ols("y ~ x", ds)
        assert fit.coef_names == ["(Intercept)", "x"]
        assert np.allclose(fit.coef, [0.0, 2.0], atol=1e-12)
        assert np.allclose(fit.residuals, 0.0, atol=1e-12)
        assert np.allclose(fit.fitted + fit.residuals, ds.numeric("y"))

    def test_duplicate_column_dropped_by_name(self, rng):
        x = rng.normal(size=50)
        ds = make_ds(y=2 * x + rng.normal(size=50), x=x, x_copy=x)
        fit = fit_ols("y ~ x + x_copy", ds)
        assert fit.dropped_collinear == ["x_copy"]

    def test_all_collinear_raises(self):
        ds = make_ds(y=[1, 2, 3, 4], x=[0, 0, 0, 0])
        with pytest.raises(EstimationError, match="collinear"):
            fit_ols("y ~ x | y", make_ds(y=[1.0, 1, 2, 2], x=[0, 0, 0, 0]))

    def test_fwl_oracle_small_suite(self):
        rng = np.random.default_rng(99)
        for _ in range(12):
            ds, formula, y, X, fe_specs, w = random_instance(rng, n_max=300)
            fit = fit_ols(formula, ds, weights="w" if w is not None else None,
                          demean_tol=1e-12)
            gamma, resid, df = dummy_ols(y, X, fe_specs, weights=w)
            scale = np.abs(gamma).max() + 1.0
            assert np.abs(fit.coef - gamma).max() < 1e-8 * scale
            assert np.abs(fit.residuals - resid).max() < 1e-8 * (np.abs(resid).max() + 1.0)
            assert fit.dof.df_resid == df

    def test_row_replication_equals_weights(self, rng):
        n = 60
        x = rng.normal(size=n)
        f = (np.arange(n) % 4).astype(float)
        y = x + f + rng.normal(size=n)
        reps = rng.integers(1, 4, n)
        idx = np.repeat(np.arange(n), reps)
        ds_rep = make_ds(y=y[idx], x=x[idx], f=f[idx])
        ds_w = make_ds(y=y, x=x, f=f, w=reps.astype(float))
        fit_rep = fit_ols("y ~ x | f", ds_rep, demean_tol=1e-12)
        fit_w = fit_ols("y ~ x | f", ds_w, weights="w", demean_tol=1e-12)
        assert np.abs(fit_rep.coef - fit_w.coef).max() < 1e-10

    @pytest.mark.parametrize("formula", ["y ~ x | f", "y ~ x"])
    def test_infinite_value_dropped_like_na(self, rng, formula):
        n = 40
        x = rng.normal(size=n)
        f = (np.arange(n) % 5).astype(float)
        y = x + f + rng.normal(size=n)
        x_inf, y_inf = x.copy(), y.copy()
        x_inf[3], y_inf[7] = np.inf, -np.inf
        fit = fit_ols(formula, make_ds(y=y_inf, x=x_inf, f=f))
        keep = np.ones(n, dtype=bool)
        keep[[3, 7]] = False
        clean = fit_ols(formula, make_ds(y=y[keep], x=x[keep], f=f[keep]))
        assert fit.mask.reason_counts == {"NA-LHS": 1, "NA-RHS": 1}
        assert fit.dof.n_used == n - 2 and fit.dof.df_resid == clean.dof.df_resid
        assert np.abs(fit.coef - clean.coef).max() <= 1e-12
        assert np.abs(fit.residuals - clean.residuals).max() <= 1e-12

    def test_offset_shifts_dependent(self, rng):
        x = rng.normal(size=40)
        off = rng.normal(size=40)
        y = 1.0 + 2 * x + off
        ds = make_ds(y=y, x=x, off=off)
        fit = fit_ols("y ~ x", ds, offset="off")
        assert np.allclose(fit.coef, [1.0, 2.0], atol=1e-10)
        assert np.allclose(fit.fitted, y, atol=1e-10)

    def test_df_resid_guard(self):
        ds = make_ds(y=[1, 2], x=[3, 4])
        with pytest.raises(EstimationError, match="degrees of freedom"):
            fit_ols("y ~ x", ds)

    def test_categorical_rhs_rejected(self, tmp_path):
        from fehd.data import load_csv
        p = tmp_path / "c.csv"
        p.write_text("y,g\n1,a\n2,b\n3,a\n4,b\n5,a\n")
        ds = load_csv(str(p))
        with pytest.raises(EstimationError, match="i\\(g\\)"):
            fit_ols("y ~ g", ds)


class TestPivotedCholesky:
    def test_keeps_independent_columns(self, rng):
        X = rng.normal(size=(30, 4))
        kept, dropped = pivoted_cholesky_kept(X.T @ X, 1e-10)
        assert kept == [0, 1, 2, 3] and dropped == []

    def test_drops_exact_duplicates(self, rng):
        x = rng.normal(size=30)
        X = np.column_stack([x, x, rng.normal(size=30)])
        kept, dropped = pivoted_cholesky_kept(X.T @ X, 1e-10)
        assert dropped == [1]


class TestFit2sls:
    def test_instrument_equals_endo_reduces_to_ols(self, rng):
        n = 150
        x = rng.normal(size=n)
        f = (np.arange(n) % 5).astype(float)
        y = 1.3 * x + f * 0.2 + rng.normal(size=n)
        ds = make_ds(y=y, x=x, f=f)
        iv = fit_2sls("y ~ 1 | f | x ~ x", ds, demean_tol=1e-13)
        ols = fit_ols("y ~ x | f", ds, demean_tol=1e-13)
        assert np.abs(iv.coef[0] - ols.coef[0]) < 1e-10
        assert iv.coef_names == ["fit_x"]

    def test_just_identified_wald_ratio(self, rng):
        n = 200
        z = rng.normal(size=n)
        x = 0.8 * z + rng.normal(size=n)
        f = (np.arange(n) % 4).astype(float)
        y = 0.5 * x + 0.3 * f + rng.normal(size=n)
        ds = make_ds(y=y, x=x, z=z, f=f)
        fit = fit_2sls("y ~ 1 | f | x ~ z", ds, demean_tol=1e-13)
        from oracles import dummy_residualize
        fe_specs = [((np.arange(n) % 4), 4, None, True)]
        M = dummy_residualize(np.column_stack([y, x, z]), fe_specs)
        yt, xt, zt = M.T
        wald = np.dot(yt, zt) / np.dot(xt, zt)
        assert abs(fit.coef[0] - wald) < 1e-10

    def test_under_identified_raises(self, rng):
        n = 50
        ds = make_ds(y=rng.normal(size=n), x1=rng.normal(size=n),
                     x2=rng.normal(size=n), z=rng.normal(size=n))
        with pytest.raises(EstimationError, match="under-identification"):
            fit_2sls("y ~ 1 | x1 + x2 ~ z", ds)

    def test_fit_prefix_and_diag(self):
        ds = scipubs_like()
        fit = fit_2sls("articles ~ 1 | indiv + year | funding ~ policy", ds)
        assert fit.coef_names == ["fit_funding"]
        assert fit.iv_diag.endo_names == ["funding"]
        assert fit.iv_diag.first_stages[0].dof.df_resid == 1080 - 117 - 1


class TestGlm:
    def test_poisson_intercept_only(self):
        ds = make_ds(y=[3, 3, 3])
        fit = fit_glm_irls("y ~ 1", ds, family="poisson")
        assert np.allclose(fit.coef, np.log(3.0), atol=1e-10)

    def test_poisson_fe_only_log_group_means(self):
        ds = make_ds(y=[1, 2, 3, 6, 2, 4], g=[0, 0, 0, 1, 1, 1])
        fit = fit_glm_irls("y ~ 1 | g", ds, family="poisson")
        coefs, _ = fixef(fit)
        assert np.abs(coefs["g"][:, 0] - np.log([2.0, 4.0])).max() < 1e-10

    def test_poisson_matches_dummy_irls(self, rng):
        n = 300
        x = rng.normal(size=n, scale=0.4)
        c1 = rng.integers(0, 6, n)
        c2 = rng.integers(0, 4, n)
        eta = 0.5 * x + rng.normal(size=6, scale=0.3)[c1] + rng.normal(size=4, scale=0.3)[c2]
        y = rng.poisson(np.exp(eta)).astype(float)
        ds = make_ds(y=y, x=x, f1=c1, f2=c2)
        fit = fit_glm_irls("y ~ x | f1 + f2", ds, family="poisson", demean_tol=1e-12)
        oracle, _ = dummy_irls(y, x[:, None], [(c1, 6, None, True), (c2, 4, None, True)],
                               family="poisson")
        assert np.abs(fit.coef - oracle).max() < 1e-6

    def test_poisson_score_equations(self, rng):
        n = 400
        x = rng.normal(size=n, scale=0.5)
        c1 = rng.integers(0, 8, n)
        y = rng.poisson(np.exp(0.4 * x + 0.2 * (c1 % 3))).astype(float)
        ds = make_ds(y=y, x=x, f1=c1)
        fit = fit_glm_irls("y ~ x | f1", ds, family="poisson", demean_tol=1e-12)
        grad = fit.scores.sum(axis=0)
        assert np.abs(grad).max() <= 1e-6 * n

    def test_logit_matches_dummy_irls(self, rng):
        n = 500
        x = rng.normal(size=n)
        c1 = rng.integers(0, 5, n)
        p = 1 / (1 + np.exp(-(0.8 * x + 0.3 * (c1 - 2))))
        y = (rng.random(n) < p).astype(float)
        ds = make_ds(y=y, x=x, f1=c1)
        fit = fit_glm_irls("y ~ x | f1", ds, family="logit", demean_tol=1e-12)
        oracle, _ = dummy_irls(y, x[:, None], [(c1, 5, None, True)], family="logit")
        assert np.abs(fit.coef - oracle).max() < 1e-6

    def test_gaussian_family_equals_ols(self, rng):
        ds, formula, *_ = random_instance(rng, n_max=200, weighted=False)
        g = fit_glm_irls(formula, ds, family="gaussian", demean_tol=1e-12)
        o = fit_ols(formula, ds, demean_tol=1e-12)
        assert np.abs(g.coef - o.coef).max() < 1e-8

    def test_family_domain_validation(self):
        ds = make_ds(y=[-1, 2, 3])
        with pytest.raises(EstimationError, match="Poisson requires"):
            fit_glm_irls("y ~ 1", ds, family="poisson")
        ds2 = make_ds(y=[0, 1, 2])
        with pytest.raises(EstimationError, match="logit requires"):
            fit_glm_irls("y ~ 1", ds2, family="logit")

    def test_weights_respected(self, rng):
        n = 200
        x = rng.normal(size=n, scale=0.5)
        y = rng.poisson(np.exp(0.5 * x + 1.0)).astype(float)
        w = rng.uniform(0.5, 2.0, n)
        ds = make_ds(y=y, x=x, w=w)
        fit = fit_glm_irls("y ~ x", ds, family="poisson", weights="w")
        oracle, _ = dummy_irls(y, np.column_stack([np.ones(n), x]), [],
                               family="poisson", weights=w)
        assert np.abs(fit.coef - oracle).max() < 1e-6

    def test_inner_demean_convergence_reported(self):
        ds = simulate_panel(DgpConfig(n=10_000, seed=0))
        rng = np.random.default_rng(1)
        ycount = rng.poisson(np.exp(ds.numeric("y") - 1)).astype(float)
        ds = ds.with_columns({"ycount": NumericColumn(ycount)})
        formula = "ycount ~ x1 | indiv_id + firm_id_difficult"
        capped = fit_glm_irls(formula, ds, family="poisson", demean_max_iter=1)
        assert capped.convergence.irls_converged
        assert not capped.convergence.demean_converged
        full = fit_glm_irls(formula, ds, family="poisson")
        assert full.convergence.demean_converged


class TestFixef:
    def test_ols_fixef_matches_dummy_coefs(self, rng):
        n = 120
        x = rng.normal(size=n)
        c1 = rng.integers(0, 6, n)
        c2 = rng.integers(0, 4, n)
        y = x + 0.5 * c1 + 0.25 * c2 + rng.normal(size=n)
        ds = make_ds(y=y, x=x, f1=c1, f2=c2)
        fit = fit_ols("y ~ x | f1 + f2", ds, demean_tol=1e-12)
        coefs, report = fixef(fit)
        D = np.column_stack([x, np.ones(n)]
                            + [(c1 == k).astype(float) for k in range(1, 6)]
                            + [(c2 == k).astype(float) for k in range(1, 4)])
        beta, *_ = np.linalg.lstsq(D, y, rcond=None)
        f2 = coefs["f2"].by_level
        ours_f2 = np.array([f2[str(k)][0] - f2["0"][0] for k in range(1, 4)])
        assert np.allclose(ours_f2, beta[-3:], atol=1e-7)
        assert report.free_constants == 1

    def test_fixef_reconstructs_fitted(self, rng):
        n = 90
        x = rng.normal(size=n)
        c1 = rng.integers(0, 5, n)
        c2 = rng.integers(0, 3, n)
        y = x + c1 * 0.3 - c2 * 0.2 + rng.normal(size=n)
        ds = make_ds(y=y, x=x, f1=c1, f2=c2)
        fit = fit_ols("y ~ x | f1 + f2", ds, demean_tol=1e-12)
        coefs, _ = fixef(fit)
        a1 = np.array([coefs["f1"].by_level[str(v)][0] for v in c1])
        a2 = np.array([coefs["f2"].by_level[str(v)][0] for v in c2])
        recon = x * fit.coef[0] + a1 + a2
        assert np.allclose(recon, fit.fitted, atol=1e-6)


def test_fit_model_dispatch():
    ds = make_ds(y=[1, 2, 3, 4, 5, 6], x=[0, 1, 0, 1, 0, 1], z=[1, 0, 1, 0, 1, 0])
    assert fit_model("y ~ x", ds).family == "ols"
    with pytest.raises(EstimationError, match="only available for OLS"):
        fit_model("y ~ 1 | x ~ z", ds, family="poisson")
