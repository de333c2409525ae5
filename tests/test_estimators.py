import importlib
import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from fehd.bench import DgpConfig, simulate_panel
from fehd.data import Dataset, NumericColumn
from fehd.demean import DEFAULT_TOL, DemeanProblem, column_drops, demean, recover_fixef
from fehd.estimators import (FAMILIES, INNER_TOL_MAX, EstimationError, _gram, _mu_at_bound,
                             _rows_at_bound, _solve_spd, build_frame, finish_ols_group,
                             fit_2sls, fit_glm_irls, fit_model, fit_ols, fixef, ols_targets)
from fehd.formula import expand_models, parse_formula
from fehd.inference import VcovSpec, compute_vcov
from fehd.multiest import MultiOptions, run_multi

from oracles import (connected_fe, dummy_design, dummy_irls, dummy_ols, random_instance,
                     scipubs_like)


def make_ds(**cols):
    n = len(next(iter(cols.values())))
    return Dataset(n_rows=n, columns={k: NumericColumn(np.asarray(v, dtype=float))
                                      for k, v in cols.items()})


class TestNumpySolves:
    """The dense solves on numpy's LAPACK, against scipy's where it has the routine."""

    @pytest.mark.parametrize("A", [[[1.0, 1.0], [1.0, 1.0]],   # singular
                                   [[1.0, 2.0], [2.0, 1.0]]])  # indefinite
    def test_solve_spd_falls_back_off_positive_definite(self, A):
        A, b = np.array(A), np.array([1.0, 2.0])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(A)
        x, inv = _solve_spd(A, b)
        assert np.array_equal(x, np.linalg.lstsq(A, b, rcond=None)[0])
        assert np.array_equal(inv, np.linalg.pinv(A))

    def test_solve_spd_matches_scipy_cholesky(self, rng):
        X = rng.normal(size=(200, 6))
        A, b = X.T @ X, rng.normal(size=6)
        x, inv = _solve_spd(A, b)
        factor = scipy.linalg.cho_factor(A)
        assert np.allclose(x, scipy.linalg.cho_solve(factor, b), rtol=1e-13, atol=0)
        assert np.allclose(inv, scipy.linalg.cho_solve(factor, np.eye(6)), rtol=1e-13,
                           atol=1e-16)
        assert np.array_equal(inv, inv.T)

    @pytest.mark.parametrize("shape", [(1_000_000, 3), (60_000, 24), (50_000, 3)])
    def test_gram_is_the_syrk_result(self, rng, shape):
        R = np.asfortranarray(rng.normal(size=shape))
        upper = scipy.linalg.get_blas_funcs("syrk", (R,))(1.0, R, trans=1)
        assert np.array_equal(_gram(R, None), upper + np.triu(upper, 1).T)

    def test_pooled_solve_reads_the_block_and_has_no_n_row_temporary(self, rng):
        n = 200_000
        x1, x2 = rng.normal(size=(2, n))
        ds = make_ds(f1=rng.integers(0, 2000, n), f2=rng.integers(0, 100, n), x1=x1,
                     x2=x2, **{f"y{k}": x1 - x2 + rng.normal(size=n) for k in range(4)})
        frames = [build_frame(ds, m) for m in
                  expand_models(parse_formula("c(y0, y1, y2, y3) ~ x1 + x2 | f1 + f2"))]
        problem, sel_map = ols_targets(frames)
        dres = demean(problem)
        before = dres.residuals.copy()
        tracemalloc.start()
        try:
            fits = finish_ols_group(frames, sel_map, dres, 1e-10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the solve forms no residual: less than one n-row column is ever
        # allocated, and the demeaned block is left as demean returned it
        assert peak < 8 * n
        assert np.array_equal(dres.residuals, before)
        for k, fit in enumerate(fits):
            want = before[:, k] - before[:, 4:] @ fit.coef
            assert np.allclose(fit.residuals, want, rtol=0, atol=1e-12)


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


class TestRegressorDrops:
    """The regressor drops of ``solve_gram``, through its kernel ``column_drops``."""

    @staticmethod
    def kept_dropped(A, tol):
        drop = column_drops(A[None], tol)[0]
        return np.flatnonzero(~drop).tolist(), np.flatnonzero(drop).tolist()

    def test_keeps_independent_columns(self, rng):
        X = rng.normal(size=(30, 4))
        kept, dropped = self.kept_dropped(X.T @ X, 1e-10)
        assert kept == [0, 1, 2, 3] and dropped == []

    def test_drops_exact_duplicates(self, rng):
        x = rng.normal(size=30)
        X = np.column_stack([x, x, rng.normal(size=30)])
        kept, dropped = self.kept_dropped(X.T @ X, 1e-10)
        assert dropped == [1]


class TestScaleFreeCollinearity:
    def test_small_scale_regressor_kept(self):
        # x1 is independent of x2 and carries the largest effect; only its
        # units are small, so it must not be dropped as collinear
        rng = np.random.default_rng(1)
        x1, x2, e = rng.normal(size=(3, 500))
        ds = make_ds(y=x2 + x1 + e, x1=x1 * 1e-6, x2=x2)
        fit = fit_ols("y ~ x1 + x2", ds)
        assert fit.dropped_collinear == []
        ref = fit_ols("y ~ x1 + x2", make_ds(y=x2 + x1 + e, x1=x1, x2=x2))
        np.testing.assert_allclose(fit.coef, ref.coef * [1, 1e6, 1], rtol=1e-9)

    @pytest.mark.parametrize("unit", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("fit", ["ols", "poisson", "2sls"])
    def test_regressor_absorbed_by_fe_dropped(self, rng, unit, fit):
        n = 240
        g = np.arange(n) % 12
        x, z, u = rng.normal(size=(3, n))
        absorbed = rng.normal(size=12)[g] * unit
        e = z + u + rng.normal(size=n)
        y = x + 0.5 * e + 0.1 * g + u
        ds = make_ds(y=y, x=x, a=absorbed, g=g, e=e, z=z,
                     count=rng.poisson(np.exp(0.3 * x)))
        if fit == "ols":
            res = fit_ols("y ~ x + a | g", ds)
        elif fit == "poisson":
            res = fit_glm_irls("count ~ x + a | g", ds)
        else:
            res = fit_2sls("y ~ x + a | g | e ~ z", ds)
        assert res.dropped_collinear == ["a"]

    @pytest.mark.parametrize("unit", [1e-6, 1e-3, 1e-2, 1.0, 1e6])
    @pytest.mark.parametrize("fit", ["ols", "weighted", "poisson", "2sls"])
    def test_regressor_absorbed_by_two_fe_dropped(self, unit, fit):
        # two dimensions are demeaned iteratively, to an absolute tolerance:
        # the remnant of a column g2 absorbs is noise at any unit
        rng = np.random.default_rng(7)
        n = 3000
        g1, g2 = rng.integers(0, 300, n), rng.integers(0, 40, n)
        x, z, u, w = rng.normal(size=(4, n))
        absorbed = rng.normal(size=40)[g2] * unit
        e = z + u + rng.normal(size=n)
        y = x + 0.5 * e + 0.1 * g2 + 0.01 * g1 + u
        ds = make_ds(y=y, x=x, a=absorbed, g1=g1, g2=g2, e=e, z=z, w=np.exp(w),
                     count=rng.poisson(np.exp(0.3 * x)))
        if fit == "ols":
            res = fit_ols("y ~ x + a | g1 + g2", ds)
        elif fit == "weighted":
            res = fit_ols("y ~ x + a | g1 + g2", ds, weights="w")
        elif fit == "poisson":
            res = fit_glm_irls("count ~ x + a | g1 + g2", ds)
        else:
            res = fit_2sls("y ~ x + a | g1 + g2 | e ~ z", ds)
        assert res.dropped_collinear == ["a"]

    @pytest.mark.parametrize("fe, unit", [("g1", 1e-6), ("g1", 1.0), ("g1 + g2", 1e-6),
                                          ("g1 + g2", 1e-3), ("g1 + g2", 1.0),
                                          ("g1 + g2", 1e6)])
    def test_small_regressor_kept_under_fe(self, fe, unit):
        # x1 carries a unit effect on y; its units alone must not get it dropped
        rng = np.random.default_rng(8)
        n = 3000
        g1, g2 = rng.integers(0, 300, n), rng.integers(0, 40, n)
        x1, x2, e = rng.normal(size=(3, n))
        y = x1 + x2 + 0.1 * g2 + e
        fit = fit_ols(f"y ~ x1 + x2 | {fe}",
                      make_ds(y=y, x1=x1 * unit, x2=x2, g1=g1, g2=g2))
        assert fit.dropped_collinear == []
        assert fit.coef[0] * unit == pytest.approx(1.0, abs=0.1)

    @pytest.mark.parametrize("fe", ["g1", "g1 + g2"])
    def test_small_regressor_carrying_the_outcome_kept(self, fe):
        # s varies within the FE by 1e-6 but carries most of y: dropping it
        # would push its effect into x
        rng = np.random.default_rng(0)
        n = 3000
        g1, g2 = rng.integers(0, 100, n), rng.integers(0, 30, n)
        x = rng.normal(size=n)
        s = 1e-6 * rng.normal(size=n)
        y = x + 1e6 * s + 0.1 * rng.normal(size=n)
        fit = fit_ols(f"y ~ x + s | {fe}", make_ds(y=y, x=x, s=s, g1=g1, g2=g2))
        assert fit.dropped_collinear == []
        assert fit.coef[0] == pytest.approx(1.0, abs=0.005)

    @pytest.mark.parametrize("demean_tol", [1e-6, 1e-12, 1e-14])
    @pytest.mark.parametrize("fe", ["g1", "g1 + g2", "g1 + g2 + g3"])
    @pytest.mark.parametrize("level", [1e-7, 0.1, 3.7, 1e9])
    @pytest.mark.parametrize("fit", ["ols", "poisson", "2sls"])
    def test_constant_regressor_dropped_under_fe(self, fit, level, fe, demean_tol):
        rng = np.random.default_rng(3)
        n = 3000
        g1, g2, g3 = rng.integers(0, 100, n), rng.integers(0, 30, n), rng.integers(0, 7, n)
        x, z, u = rng.normal(size=(3, n))
        e = z + u + rng.normal(size=n)
        y = x + 0.5 * e + 0.1 * g2 + u
        ds = make_ds(y=y, x=x, c=np.full(n, level), e=e, z=z, g1=g1, g2=g2, g3=g3,
                     count=rng.poisson(np.exp(0.3 * x)))
        if fit == "ols":
            res = fit_ols(f"y ~ x + c | {fe}", ds, demean_tol=demean_tol)
        elif fit == "poisson":
            res = fit_glm_irls(f"count ~ x + c | {fe}", ds, demean_tol=demean_tol)
        else:
            res = fit_2sls(f"y ~ x + c | {fe} | e ~ z", ds, demean_tol=demean_tol)
        assert res.dropped_collinear == ["c"]



@st.composite
def rescaled_designs(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    k = draw(st.integers(1, 3))
    fe = draw(st.booleans())
    which = draw(st.integers(0, k - 1))
    factor = 10.0 ** draw(st.integers(-6, 6))
    return seed, k, fe, which, factor


@given(rescaled_designs())
@settings(max_examples=40, deadline=None)
def test_rescaling_a_regressor_keeps_the_kept_set(case):
    seed, k, fe, which, factor = case
    rng = np.random.default_rng(seed)
    n = 80
    X = rng.normal(size=(n, k)) * rng.uniform(0.1, 10, k)
    g = rng.integers(0, 6, n).astype(float)
    y = X @ rng.normal(size=k) + g + rng.normal(size=n)
    names = [f"x{j}" for j in range(k)]
    formula = "y ~ " + " + ".join(names) + (" | g" if fe else "")
    fits = []
    for c in (1.0, factor):
        cols = {nm: X[:, j] * (c if j == which else 1.0) for j, nm in enumerate(names)}
        fits.append(fit_ols(formula, make_ds(y=y, g=g, **cols)))
    base, scaled = fits
    assert scaled.coef_names == base.coef_names and scaled.dropped_collinear == []
    expect = base.coef.copy()
    expect[base.coef_names.index(names[which])] /= factor
    np.testing.assert_allclose(scaled.coef, expect, rtol=1e-7, atol=1e-12)


class TestDropOrder:
    """Of two collinear columns the later one is dropped, whatever the units."""

    @pytest.mark.parametrize("fe", ["", " | g"])
    @pytest.mark.parametrize("unit", [1e-3, 1.0, 1e3])
    def test_later_of_two_collinear_regressors_dropped(self, unit, fe):
        rng = np.random.default_rng(0)
        n = 200
        a, c, e = rng.normal(size=(3, n))
        ds = make_ds(y=a + c + e, a=a * unit, b=2 * a, c=c, g=rng.integers(0, 5, n))
        fit = fit_ols("y ~ a + b + c" + fe, ds)
        assert fit.dropped_collinear == ["b"] and fit.coef_names[-2:] == ["a", "c"]

    @pytest.mark.parametrize("unit", [1e-3, 1.0, 1e3])
    def test_instrument_collinear_with_exogenous_dropped(self, unit):
        rng = np.random.default_rng(1)
        n = 300
        x, z, u = rng.normal(size=(3, n))
        e = z + u + rng.normal(size=n)
        ds = make_ds(y=x + e + u, x=x, e=e, z=z, zx=unit * x, g=rng.integers(0, 6, n))
        fit = fit_2sls("y ~ x | g | e ~ z + zx", ds)
        first = fit.iv_diag.first_stages[0]
        assert first.dropped_collinear == ["zx"] and first.coef_names == ["x", "z"]
        assert fit.dropped_collinear == [] and fit.coef_names == ["fit_e", "x"]

    @pytest.mark.parametrize("unit", [1e-3, 1.0, 1e3])
    def test_only_instrument_collinear_with_exogenous_is_an_error(self, unit):
        rng = np.random.default_rng(2)
        n = 300
        x, e = rng.normal(size=(2, n))
        ds = make_ds(y=x + e, x=x, e=e, zx=unit * x, g=rng.integers(0, 6, n))
        with pytest.raises(EstimationError) as err:
            fit_2sls("y ~ x | g | e ~ zx", ds)
        assert str(err.value) == ("instruments for 'e' are collinear with the "
                                  "exogenous regressors")


@st.composite
def scaled_slope_designs(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    k = draw(st.integers(-9, 9))
    n_fe = draw(st.integers(1, 3))
    slope_dim = draw(st.integers(0, n_fe - 1))
    n_const = draw(st.integers(0, 2))  # groups whose slope is constant within the group
    return seed, k, n_fe, slope_dim, n_const


@given(scaled_slope_designs())
@settings(max_examples=30, deadline=None)
def test_k_fe_is_the_rank_of_the_dense_fe_design(case):
    # a slope column in units of 10^k spans what it spans in units of 1: the
    # FE count is the rank of the dense FE design and x's estimate does not move
    seed, k, n_fe, slope_dim, n_const = case
    rng = np.random.default_rng(seed)
    n = 200
    counts = [int(rng.integers(2, 9)) for _ in range(n_fe)]
    codes = connected_fe(rng, n, counts)
    g = codes[slope_dim]
    z = rng.normal(size=n)
    for grp in range(n_const):
        z[g == grp] = rng.normal()
    x = rng.normal(size=n)
    y = x + rng.normal(size=counts[slope_dim])[g] * z + rng.normal(size=n)
    for c, G in zip(codes, counts):
        y += rng.normal(size=G)[c]
    specs = [(c, G, z[:, None] if q == slope_dim else None, True)
             for q, (c, G) in enumerate(zip(codes, counts))]
    D = dummy_design(np.empty((n, 0)), specs)
    rank = np.linalg.matrix_rank(D / np.linalg.norm(D, axis=0))
    formula = "y ~ x | " + " + ".join(f"f{q}[zs]" if q == slope_dim else f"f{q}"
                                      for q in range(n_fe))
    fits = [fit_ols(formula, make_ds(y=y, x=x, zs=z * unit,
                                     **{f"f{q}": c for q, c in enumerate(codes)}))
            for unit in (1.0, 10.0 ** k)]
    assert [f.dof.k_fe for f in fits] == [rank, rank]
    assert fits[1].coef[0] == pytest.approx(fits[0].coef[0], rel=1e-8)


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
        grad = fit.score_rows().sum(axis=0)
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
        g = fit_model(formula, ds, family="gaussian", demean_tol=1e-12)
        o = fit_ols(formula, ds, demean_tol=1e-12)
        assert np.abs(g.coef - o.coef).max() < 1e-8

    def test_gaussian_family_measures_r2_about_y_less_the_offset(self, rng):
        ds, formula, *_ = random_instance(rng, n_max=200, weighted=False)
        ds = ds.with_columns({"off": NumericColumn(rng.normal(size=ds.n_rows))})
        g = fit_model(formula, ds, family="gaussian", offset="off", demean_tol=1e-12)
        o = fit_ols(formula, ds, offset="off", demean_tol=1e-12)
        assert g.sst == pytest.approx(o.sst, rel=1e-12)

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
        # a capped inner solve is an error, as in fit_ols and run_multi,
        # not a fit that differs from the converged one in the 7th digit
        ds = simulate_panel(DgpConfig(n=20_000, seed=0))
        rng = np.random.default_rng(1)
        ycount = rng.poisson(np.exp(ds.numeric("y") - 1)).astype(float)
        ds = ds.with_columns({"ycount": NumericColumn(ycount)})
        formula = "ycount ~ x1 | indiv_id + firm_id_difficult"
        with pytest.raises(EstimationError,
                           match="demeaning did not converge within 1 iterations"):
            fit_glm_irls(formula, ds, family="poisson", demean_max_iter=1)
        full = fit_glm_irls(formula, ds, family="poisson")
        assert full.convergence.demean_converged


class TestSolverRecord:
    """``Convergence.demean_factor`` reports the Schur complement factorization."""

    @pytest.fixture(scope="class")
    def panel(self):
        return simulate_panel(DgpConfig(n=100_000, seed=0))

    def test_simple_assignment_never_factors(self, panel):
        fit = fit_ols("y ~ x1 + x2 | indiv_id + firm_id + year", panel)
        assert fit.convergence.demean_converged and fit.convergence.demean_factor is None

    @pytest.mark.parametrize("shift", [None, 1e-6])
    def test_difficult_assignment_factors_and_converges(self, panel, monkeypatch, shift):
        # a large shift leaves an error of about shift / (A's smallest
        # eigenvalue) in one plain solve with the factor; refinement cubes it
        module = importlib.import_module("fehd.demean")
        if shift is not None:
            monkeypatch.setattr(module, "FACTOR_SHIFT", shift)
        formula = "y ~ x1 + x2 | indiv_id + firm_id_difficult"
        fit = fit_ols(formula, panel)
        record = fit.convergence.demean_factor
        assert fit.convergence.demean_converged
        assert record.dim == 435 and record.lu_nnz >= record.nnz > 0 and record.seconds > 0
        tight = fit_ols(formula, panel, demean_tol=1e-12)
        monkeypatch.setattr(module, "_factor_pays", lambda *args: False)
        unfactored = fit_ols(formula, panel, demean_tol=1e-12)
        assert unfactored.convergence.demean_factor is None
        for ref in (tight, unfactored):
            assert np.abs(fit.residuals - ref.residuals).max() <= 1e-8
            assert np.abs(fit.coef - ref.coef).max() <= 1e-8

    def test_poisson_reports_the_factorization(self, panel):
        rng = np.random.default_rng(1)
        ycount = rng.poisson(np.exp(panel.numeric("y") - 1)).astype(float)
        ds = panel.with_columns({"ycount": NumericColumn(ycount)})
        fit = fit_glm_irls("ycount ~ x1 | indiv_id + firm_id_difficult", ds,
                           family="poisson")
        assert fit.convergence.demean_converged and fit.convergence.irls_converged
        # the steps after the first switch switch at their first product
        assert fit.convergence.demean_factor.lu_nnz > 0
        assert fit.convergence.demean_factor.switch_at == 0

    @pytest.mark.parametrize("family", ["ols", "poisson"])
    def test_simple_assignment_forms_no_part_of_a(self, panel, monkeypatch, family):
        # random graphs stop within a few products, and a Poisson step that
        # runs longer meets a dense A that the cost rule turns down
        module = importlib.import_module("fehd.demean")

        def formed(*args):
            raise AssertionError("a simple-assignment fit formed A")
        monkeypatch.setattr(module, "_factor_schur", formed)
        monkeypatch.setattr(module, "_schur_matrix", formed)
        if family == "ols":
            fit = fit_ols("y ~ x1 + x2 | indiv_id + firm_id + year", panel)
        else:
            ycount = np.random.default_rng(1).poisson(np.exp(panel.numeric("y") - 1))
            ds = panel.with_columns({"ycount": NumericColumn(ycount.astype(float))})
            fit = fit_glm_irls("ycount ~ x1 + x2 | indiv_id + firm_id", ds,
                               family="poisson")
        assert fit.convergence.demean_converged and fit.convergence.demean_factor is None

    def test_dense_graph_estimates_a_once_per_irls_fit(self, panel, monkeypatch):
        # the switch forced at every column's first product: the first one
        # estimates A, which passes its budget on the random graph; the
        # refusal holds for the rest of the fit
        module = importlib.import_module("fehd.demean")
        ycount = np.random.default_rng(1).poisson(np.exp(panel.numeric("y") - 1))
        ds = panel.with_columns({"ycount": NumericColumn(ycount.astype(float))})
        formula = "ycount ~ x1 + x2 | indiv_id + firm_id"
        free = fit_glm_irls(formula, ds, family="poisson")
        calls = {"_schur_nnz_estimate": 0, "_factor_schur": 0}
        for name in calls:
            def counted(*args, name=name, run=getattr(module, name)):
                calls[name] += 1
                return run(*args)
            monkeypatch.setattr(module, name, counted)
        monkeypatch.setattr(module, "_factor_pays", lambda ratios, *_: len(ratios) > 1)
        fit = fit_glm_irls(formula, ds, family="poisson")
        record = fit.convergence.demean_factor
        assert calls == {"_schur_nnz_estimate": 1, "_factor_schur": 1}
        assert fit.convergence.irls_iterations > 1
        assert record.refused and record.lu_nnz == 0 and record.switch_at == 1
        # C1 holds at most one entry per row
        assert record.nnz > module.FACTOR_NNZ_BUDGET * panel.n_rows
        # a refusal leaves every column on block Jacobi: the same fit
        assert np.array_equal(fit.coef, free.coef)
        assert [st.sweeps for st in fit.convergence.irls_path] == \
            [st.sweeps for st in free.convergence.irls_path]

    def test_difficult_assignment_switches_early(self, monkeypatch):
        panel = simulate_panel(DgpConfig(n=250_000, seed=0))
        module = importlib.import_module("fehd.demean")
        formula = "y ~ x1 + x2 | indiv_id + firm_id_difficult"
        fit = fit_ols(formula, panel)
        record = fit.convergence.demean_factor
        assert fit.convergence.demean_converged
        assert record.switch_at <= 5 and record.lu_nnz > 0 and not record.refused
        monkeypatch.setattr(module, "_factor_pays", lambda *args: False)
        unfactored = fit_ols(formula, panel, demean_tol=1e-12)
        assert unfactored.convergence.demean_factor is None
        assert np.abs(fit.residuals - unfactored.residuals).max() <= 1e-8
        assert np.abs(fit.coef - unfactored.coef).max() <= 1e-8


def log_form_poisson_deviance(y, mu, w):
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(y > 0, y * np.log(y / mu), 0.0)
    return float(2.0 * np.sum(w * (t - (y - mu))))


@pytest.fixture(scope="module")
def glm_panel():
    """Weights, an offset, three FE dimensions and a slope dimension."""
    rng = np.random.default_rng(11)
    n = 4000
    g1, g2, g3 = rng.integers(0, 400, n), rng.integers(0, 40, n), rng.integers(0, 7, n)
    x, s, x2 = rng.normal(size=(3, n))
    off = 0.2 * rng.normal(size=n)
    eta = (0.3 * x - 0.2 * x2 + off + 0.3 * rng.normal(size=400)[g1]
           + 0.2 * rng.normal(size=40)[g2] * s + 0.2 * rng.normal(size=7)[g3])
    return make_ds(count=rng.poisson(np.exp(eta)),
                   binary=(rng.random(n) < 1 / (1 + np.exp(-eta))).astype(float),
                   x=x, x2=x2, s=s, off=off, w=rng.uniform(0.5, 2.0, n),
                   g1=g1, g2=g2, g3=g3)


GLM_FORMULA = {"poisson": "count ~ x + x2 | g1 + g2[s] + g3",
               "logit": "binary ~ x + x2 | g1 + g2[s] + g3"}


class TestIrlsSchedule:
    """Log-free Poisson deviance, reused mu and the inner tolerance schedule."""

    def test_log_free_deviance_matches_the_log_form(self, rng):
        n = 5000
        y = rng.poisson(0.7, n).astype(float)  # about half zero counts
        y[:10] = 0.0
        w = rng.uniform(0.2, 3.0, n)
        eta = rng.normal(size=n) + 0.3 * rng.normal(size=n)  # offset included
        mu = np.exp(eta)
        dev = FAMILIES["poisson"].deviance(y, w)(eta, mu)
        ref = log_form_poisson_deviance(y, mu, w)
        assert abs(dev - ref) <= 1e-12 * abs(ref)

    def test_fit_deviance_is_the_log_form_at_the_fit(self, glm_panel):
        fit = fit_glm_irls(GLM_FORMULA["poisson"], glm_panel, family="poisson",
                           weights="w", offset="off")
        y = glm_panel.numeric("count")
        assert (y == 0).any()
        ref = log_form_poisson_deviance(y, fit.fitted, glm_panel.numeric("w"))
        assert abs(fit.deviance - ref) <= 1e-12 * abs(ref)

    def test_mu_eta_reuses_mu_bit_for_bit(self, rng):
        eta = rng.normal(scale=3.0, size=1000)
        pois, logit = FAMILIES["poisson"], FAMILIES["logit"]
        assert np.array_equal(pois.mu_eta(eta, pois.linkinv(eta)), np.exp(eta))
        m = 1.0 / (1.0 + np.exp(-eta))
        assert np.array_equal(logit.mu_eta(eta, logit.linkinv(eta)), m * (1 - m))

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_every_link_is_canonical(self, rng, family):
        # IRLS takes mu_eta as its working weight.  That weight is
        # (d mu / d eta)^2 / V(mu), which is d mu / d eta only under the
        # canonical link, where d mu / d eta = V(mu).  A family with another
        # link, or with no variance function here, fails
        variance = {"poisson": lambda mu: mu, "logit": lambda mu: mu * (1 - mu)}[family]
        fam = FAMILIES[family]
        eta = rng.uniform(-fam.eta_bound, fam.eta_bound, 10_000)
        mu = fam.linkinv(eta)
        np.testing.assert_allclose(fam.mu_eta(eta, mu), variance(mu), rtol=1e-15, atol=0)

    @pytest.mark.parametrize("family", ["poisson", "logit"])
    def test_default_tolerance_matches_a_tight_fit(self, glm_panel, family):
        kw = dict(family=family, weights="w", offset="off")
        fit = fit_glm_irls(GLM_FORMULA[family], glm_panel, **kw)
        tight = fit_glm_irls(GLM_FORMULA[family], glm_panel, demean_tol=1e-12, **kw)
        assert fit.coef_names == tight.coef_names == ["x", "x2"]
        np.testing.assert_allclose(fit.coef, tight.coef, rtol=1e-6)
        assert any(st.demean_tol > 1e-6 for st in fit.convergence.irls_path)

    @pytest.mark.parametrize("family", ["poisson", "logit"])
    @pytest.mark.parametrize("demean_tol", [1e-6, 1e-12])
    def test_path_records_every_step(self, glm_panel, family, demean_tol):
        fit = fit_glm_irls(GLM_FORMULA[family], glm_panel, family=family, weights="w",
                           offset="off", demean_tol=demean_tol)
        conv = fit.convergence
        path = conv.irls_path
        assert len(path) == conv.irls_iterations
        assert path[-1].demean_tol == demean_tol and path[0].demean_tol == demean_tol
        assert path[-1].deviance == fit.deviance
        assert sum(st.sweeps for st in path) == conv.demean_sweeps
        tols = [st.demean_tol for st in path[1:]]
        assert all(demean_tol <= t <= INNER_TOL_MAX for t in tols)
        assert tols == sorted(tols, reverse=True)  # never looser than the step before

    def test_inner_tolerance_never_loosens(self):
        # large counts: step 1 starts next to the fit, so the loose step 2
        # raises the deviance, and step 3 moves it more than step 2 did
        rng = np.random.default_rng(5)
        n = 3000
        g1, g2 = rng.integers(0, 300, n), rng.integers(0, 30, n)
        x = rng.normal(size=n)
        eta = (np.log(1e4) + 0.3 * x + 0.3 * rng.normal(size=300)[g1]
               + 0.2 * rng.normal(size=30)[g2])
        ds = make_ds(y=rng.poisson(np.exp(eta)), x=x, g1=g1, g2=g2)
        path = fit_glm_irls("y ~ x | g1 + g2", ds, family="poisson").convergence.irls_path
        tols = [st.demean_tol for st in path]
        moves = [abs(b.deviance - a.deviance) / (abs(b.deviance) + 0.1)
                 for a, b in zip(path, path[1:])]
        capped = [k for k in range(1, len(moves))
                  if 0.1 * moves[k] > tols[k + 1] > DEFAULT_TOL]
        assert capped and tols[capped[0] + 2] == tols[capped[0] + 1]
        assert tols[1:] == sorted(tols[1:], reverse=True)

    def test_never_stops_on_a_loosely_demeaned_step(self, glm_panel):
        # at demean_tol=1e-12 the steps stay loose until the deviance moves by
        # 1e-11; with glm_tol=1e-6 the stopping rule holds on a loose step first
        demean_tol, glm_tol = 1e-12, 1e-6
        fit = fit_glm_irls(GLM_FORMULA["poisson"], glm_panel, family="poisson",
                           weights="w", offset="off", demean_tol=demean_tol,
                           glm_tol=glm_tol)
        path = fit.convergence.irls_path
        moves = [abs(b.deviance - a.deviance) / (abs(b.deviance) + 0.1)
                 for a, b in zip(path, path[1:])]
        met = [k + 1 for k, m in enumerate(moves) if m <= glm_tol]
        assert met and met[0] < len(path) - 1
        assert path[met[0]].demean_tol > demean_tol  # met on a loose step: go on
        assert path[-1].demean_tol == demean_tol and moves[-1] <= glm_tol
        assert fit.convergence.irls_converged and fit.convergence.demean_converged

    def test_inner_solve_capped_on_a_later_step_raises(self, glm_panel, monkeypatch):
        module = importlib.import_module("fehd.estimators")
        calls = []

        def capped_on_step_three(problem, **kw):
            res = demean(problem, **kw)
            calls.append(problem.tol)
            if len(calls) == 3:
                res.converged = False
            return res
        monkeypatch.setattr(module, "demean", capped_on_step_three)
        with pytest.raises(EstimationError, match="demeaning did not converge"):
            fit_glm_irls(GLM_FORMULA["poisson"], glm_panel, family="poisson",
                         weights="w", offset="off")
        assert len(calls) == 3 and calls[2] > calls[0]  # a loose step

    @pytest.mark.parametrize("fe", ["", " | g1"])
    def test_exact_demeaning_runs_every_step_at_demean_tol(self, glm_panel, fe):
        fit = fit_glm_irls("count ~ x + x2" + fe, glm_panel, family="poisson",
                           demean_tol=1e-12)
        assert {st.demean_tol for st in fit.convergence.irls_path} == {1e-12}


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

    @pytest.mark.parametrize("tol", [1e-12, DEFAULT_TOL])
    @pytest.mark.parametrize("case", ["ols", "ols-weighted-offset", "2sls",
                                      "poisson-weighted", "firm-slope"])
    def test_fixef_reconstructs_fitted(self, difficult_panel, case, tol):
        # the fit's own fixed effects plus the regressor part reproduce its
        # fitted values (their log for Poisson) to rounding, at any demeaning
        # tolerance; a re-solve of the FE would miss them by its own error
        ds = difficult_panel
        x, e, off = ds.numeric("x1"), ds.numeric("e"), ds.numeric("off")
        fe = "indiv_id + firm_id_difficult"
        if case == "ols":
            fit = fit_ols(f"y ~ x1 | {fe}", ds, demean_tol=tol)
            part, target = x * fit.coef[0], fit.fitted
        elif case == "ols-weighted-offset":
            fit = fit_ols(f"y ~ x1 | {fe}", ds, demean_tol=tol, weights="w", offset="off")
            part, target = x * fit.coef[0] + off, fit.fitted
        elif case == "2sls":
            fit = fit_2sls(f"y ~ x1 | {fe} | e ~ z", ds, demean_tol=tol, offset="off")
            part, target = np.column_stack([e, x]) @ fit.coef + off, fit.fitted
        elif case == "poisson-weighted":
            fit = fit_glm_irls(f"count ~ x1 | {fe}", ds, family="poisson",
                               demean_tol=tol, weights="w")
            part, target = x * fit.coef[0], np.log(fit.fitted)
        else:
            fit = fit_ols("y ~ x1 | indiv_id + firm_id_difficult[x2]", ds, demean_tol=tol)
            part, target = x * fit.coef[0], fit.fitted
        assert np.abs(part + fe_rows(fit) - target).max() <= 1e-10

    def test_fixef_matches_a_tight_resolve(self, difficult_panel):
        ds = difficult_panel
        fit = fit_ols("y ~ x1 | indiv_id + firm_id_difficult", ds, demean_tol=1e-13)
        dims = fit.design.dims
        target = ds.numeric("y") - fit.coef[0] * ds.numeric("x1")
        tight = demean(DemeanProblem(targets=target, dims=dims, tol=1e-14))
        want, _ = recover_fixef(tight, dims, np.ones(1))
        coefs, _ = fixef(fit)
        for got, ref in zip(coefs.values(), want):
            assert np.abs(got.coef - ref).max() <= 1e-10

    def test_fixef_makes_no_demeaning_call(self, difficult_panel, monkeypatch):
        fit = fit_ols("y ~ x1 | indiv_id + firm_id_difficult", difficult_panel)

        def refuse(*args, **kw):
            raise AssertionError("fixef demeaned again")
        monkeypatch.setattr(importlib.import_module("fehd.estimators"), "demean", refuse)
        coefs, report = fixef(fit)
        assert set(coefs) == {"indiv_id", "firm_id_difficult"}
        assert report.free_constants == 1


@pytest.fixture(scope="module")
def difficult_panel():
    """A 3000-row difficult firm chain (``simulate_panel``), where a demeaning
    at the default tolerance leaves FE errors near 1e-6, plus the columns of
    weighted, offset, IV and Poisson fits."""
    ds = simulate_panel(DgpConfig(n=3000, seed=1))
    g = np.random.default_rng(5)
    n = ds.n_rows
    x = ds.numeric("x1")
    z = g.normal(size=n)
    extra = {"w": g.uniform(0.5, 2.0, n), "off": g.normal(size=n), "z": z,
             "e": z + 0.5 * x + g.normal(size=n),
             "count": g.poisson(np.exp(0.3 * x)).astype(float)}
    return ds.with_columns({k: NumericColumn(v) for k, v in extra.items()})


def fe_rows(fit) -> np.ndarray:
    """Each row's fixed-effect part, from ``fixef``: sum over dimensions of
    its group's coefficients times the dimension's design row."""
    coefs, _ = fixef(fit)
    n = fit.dof.n_used
    return sum(np.einsum("ij,ij->i", fset.coef[dim.index.group_of_row], dim.design(n))
               for fset, dim in zip(coefs.values(), fit.design.dims))


class TestDesignRule:
    """A fit's residual is ``design.block @ design.resid_map``, and its block
    is what ``demean`` returned for the fit's problem, untouched."""

    FE2 = "indiv_id + firm_id"

    def check(self, fit, block):
        d = fit.design
        r = fit.residuals
        assert np.abs(d.block @ d.resid_map - r).max() <= 1e-12 * np.abs(r).max()
        assert np.array_equal(d.block, block)

    @pytest.mark.parametrize("formula, kw", [
        (f"y ~ x1 + x2 | {FE2}", {}),
        ("y ~ x1 + x2", {}),
        (f"y ~ x1 + x2 | {FE2}", {"weights": "w"}),
        (f"y ~ x1 | {FE2}", {"offset": "off"}),
    ], ids=["fe", "no-fe", "weighted", "offset"])
    def test_single_ols(self, difficult_panel, formula, kw):
        fit = fit_ols(formula, difficult_panel, **kw)
        frame = build_frame(difficult_panel, expand_models(parse_formula(formula))[0], **kw)
        self.check(fit, demean(ols_targets([frame])[0]).residuals)

    @pytest.mark.parametrize("rhs, models", [("x1 + x2", 2), ("csw(x1, x2)", 4)])
    def test_pooled_ols(self, difficult_panel, rhs, models):
        formula = f"c(y, e) ~ {rhs} | {self.FE2}"
        multi = run_multi(formula, difficult_panel, MultiOptions())
        assert multi.shared_work_report[0]["models"] == models
        frames = [build_frame(difficult_panel, m)
                  for m in expand_models(parse_formula(formula))]
        block = demean(ols_targets(frames)[0]).residuals
        for fit in multi.fits():
            self.check(fit, block)

    def test_2sls_and_its_first_stages(self, difficult_panel):
        formula = f"y ~ x2 | {self.FE2} | e ~ z + x1"
        fit = fit_2sls(formula, difficult_panel)
        fr = build_frame(difficult_panel, expand_models(parse_formula(formula))[0])
        cols = [fr.shifted_y] + fr.x_cols + fr.endo + fr.inst
        block = demean(DemeanProblem(np.column_stack(cols), fr.dims)).residuals
        for f in [fit] + fit.iv_diag.first_stages:
            self.check(f, block)


def test_fit_model_dispatch():
    ds = make_ds(y=[1, 2, 3, 4, 5, 6], x=[0, 1, 0, 1, 0, 1], z=[1, 0, 1, 0, 1, 0])
    assert fit_model("y ~ x", ds).family == "ols"
    assert fit_model("y ~ x", ds, family="poisson").family == "poisson"
    assert fit_model("y ~ x", ds, family="gaussian").family == "gaussian"
    with pytest.raises(EstimationError, match="unknown family 'gaussian'"):
        fit_glm_irls("y ~ x", ds, family="gaussian")
    assert fit_model("y ~ 1 | x ~ z", ds).family == "2sls"
    for family in ("poisson", "logit", "gaussian"):
        with pytest.raises(EstimationError, match="only available for OLS"):
            fit_model("y ~ 1 | x ~ z", ds, family=family)
    with pytest.raises(EstimationError, match="several models"):
        fit_model("y ~ sw(x, z)", ds)


@pytest.mark.parametrize("fit", [fit_ols, fit_2sls, fit_glm_irls, fit_model])
def test_prebuilt_frame_rejects_weights_and_offset(rng, fit):
    n = 60
    x = rng.normal(size=n)
    z = x + rng.normal(size=n)
    ds = make_ds(y=rng.poisson(1.0, n), x=x, z=z, w=rng.uniform(0.5, 2.0, n),
                 off=rng.normal(size=n))
    formula = "y ~ 1 | x ~ z" if fit is fit_2sls else "y ~ x"
    frame = build_frame(ds, expand_models(parse_formula(formula))[0])
    kw = {"family": "poisson"} if fit is fit_glm_irls else {}
    for extra in ({"weights": "w"}, {"offset": "off"}, {"weights": "w", "offset": "off"}):
        with pytest.raises(EstimationError, match="prebuilt ModelFrame"):
            fit(frame, **kw, **extra)
    alone = fit(frame, **kw)
    assert np.array_equal(alone.coef, fit(formula, ds, **kw).coef)


@pytest.mark.parametrize("formula, fes", [
    ("y ~ x1 + x2", ("indiv_id", "firm_id_difficult")),
    ("y ~ x1 + x2", ("indiv_id", "firm_id_difficult", "year")),
    ("count ~ x1", ("indiv_id", "firm_id_difficult")),
])
def test_fe_order_changes_no_estimate(difficult_panel, formula, fes):
    """Every order of the FE dimensions gives the same coefficients, SEs and
    fitted values, within the demeaning tolerance."""
    tol = 1e-8
    spec = VcovSpec("cluster", factors=("firm_id_difficult",))
    out = []
    for order in itertools.permutations(fes):
        fit = fit_model(f"{formula} | {' + '.join(order)}", difficult_panel,
                        family="poisson" if formula.startswith("count") else "ols",
                        demean_tol=tol)
        se = np.sqrt(np.diag(compute_vcov(fit, spec, difficult_panel).matrix))
        out.append((fit.coef, se, fit.fitted))
    for got in out[1:]:
        for g, want in zip(got, out[0]):
            assert np.abs(g - want).max() <= 10 * tol * (1 + np.abs(want).max())


def bound_design(rng, family, weighted, two_factor):
    """A 2FE design with groups whose outcomes all sit at a bound of the
    family's mean in both dimensions: Poisson groups of zeros; logit groups
    of zeros, and groups of ones in the first dimension.  With
    ``two_factor`` the second dimension is ``f2^f3``.  Returns the dataset,
    the formula, the rows marked at a bound and the oracle's FE specs over
    the other rows."""
    n, G1, G2, G3 = 900, 40, 6, 4
    c1, c2, c3 = (rng.integers(0, G, n) for G in (G1, G2, G3))
    x = rng.normal(size=n, scale=0.4)
    if family == "logit" and two_factor:
        # groups 3 and 4 of f1 will be all ones: none of their rows is in
        # group 5 of f2^f3.  Group 5 of a plain f2 keeps such rows, so it is
        # all zeros only once they are set aside: marking takes two passes.
        c2[np.isin(c1, [3, 4]) & (c2 * G3 + c3 == 5)] = 0
    c23 = c2 * G3 + c3 if two_factor else c2
    eta = 0.5 * x + rng.normal(size=G1, scale=0.3)[c1] + \
        rng.normal(size=G2 * G3, scale=0.3)[c23]
    if family == "poisson":
        y = rng.poisson(np.exp(eta)).astype(float)
    else:
        y = (rng.random(n) < 1 / (1 + np.exp(-eta))).astype(float)
    at = np.isin(c1, [0, 1, 2]) | (c23 == 5)
    assert at.any() and (c23 == 5).any()
    y[at] = 0.0
    if family == "logit":
        ones = np.isin(c1, [3, 4])
        y[ones] = 1.0
        at |= ones
    cols = dict(y=y, x=x, f1=c1, f2=c2, f3=c3)
    formula = "y ~ x | f1 + " + ("f2^f3" if two_factor else "f2")
    if weighted:
        cols["w"] = rng.uniform(0.5, 3.0, n)
    specs = []
    for c in (c1[~at], c23[~at]):
        codes = np.unique(c, return_inverse=True)[1]
        # the other rows have no group at a bound: the rule leaves nothing behind
        sums = np.bincount(codes, weights=y[~at])
        assert sums.all() and (family == "poisson" or (sums < np.bincount(codes)).all())
        specs.append((codes, codes.max() + 1, None, True))
    return make_ds(**cols), formula, at, specs


def without_rows(ds, rows):
    return make_ds(**{k: ds.numeric(k)[~rows] for k in ds.columns})


class TestGroupsAtABound:
    """Rows of FE groups whose outcomes all sit at a bound of the mean start
    and stay next to it."""

    @pytest.mark.parametrize("family", ["poisson", "logit"])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("two_factor", [False, True])
    def test_matches_a_fit_on_the_other_rows(self, family, weighted, two_factor,
                                             monkeypatch):
        rng = np.random.default_rng([7, weighted, two_factor])
        ds, formula, at, specs = bound_design(rng, family, weighted, two_factor)
        w = ds.numeric("w") if weighted else None
        kw = dict(family=family, weights="w" if weighted else None, demean_tol=1e-12)
        fit = fit_glm_irls(formula, ds, **kw)
        oracle, _ = dummy_irls(ds.numeric("y")[~at], ds.numeric("x")[~at, None], specs,
                               family=family, weights=None if w is None else w[~at])
        assert np.abs(fit.coef - oracle).max() <= 1e-8 * np.abs(oracle).max()
        assert fit.dof.n_used == ds.n_rows and fit.convergence.irls_converged
        # held rows pull on nothing: the fit without them, to rounding
        without = fit_glm_irls(formula, without_rows(ds, at), **kw)
        assert np.abs(fit.coef / without.coef - 1).max() <= 1e-12
        if family == "poisson" or two_factor:  # no cascade: see the next test
            assert fit.deviance == pytest.approx(without.deviance, rel=1e-7)
        # every row from init_eta, as before the rule: the same sample and,
        # for Poisson, the same coefficients in more steps; the logit groups
        # of ones run past the family's eta_bound
        monkeypatch.setattr(importlib.import_module("fehd.estimators"), "_rows_at_bound",
                            lambda *a: None)
        if family == "logit":
            with pytest.raises(EstimationError, match="possible separation"):
                fit_glm_irls(formula, ds, **kw)
            return
        before = fit_glm_irls(formula, ds, **kw)
        assert fit.dof == before.dof
        assert np.abs(fit.coef - before.coef).max() <= 1e-8 * np.abs(before.coef).max()
        assert fit.convergence.irls_iterations < before.convergence.irls_iterations

    @pytest.mark.xfail(strict=True, reason="a row in an all-one group and in a group "
                       "all zeros only without it is held at a mean far from its outcome")
    @pytest.mark.parametrize("weighted", [False, True])
    def test_logit_cascade_deviance_is_that_of_the_fit_without_the_rows(self, weighted):
        rng = np.random.default_rng([7, weighted, False])
        ds, formula, at, _ = bound_design(rng, "logit", weighted, two_factor=False)
        kw = dict(family="logit", weights="w" if weighted else None, demean_tol=1e-12)
        fit = fit_glm_irls(formula, ds, **kw)
        without = fit_glm_irls(formula, without_rows(ds, at), **kw)
        assert fit.deviance == pytest.approx(without.deviance, rel=1e-7)

    @staticmethod
    def dims(formula, **cols):
        return build_frame(make_ds(**cols), expand_models(parse_formula(formula))[0]).dims

    def test_rows_at_a_bound(self):
        y = np.array([0.0, 0, 1, 0, 1, 1])
        dims = self.dims("y ~ 1 | g + h", y=y, g=[0, 0, 1, 1, 2, 2], h=[0, 1, 0, 1, 0, 1])
        assert np.array_equal(_rows_at_bound(y, dims, (0.0,)), [1, 1, 0, 0, 0, 0])
        # without g's all-0 and all-1 groups, h = 0 is all ones, h = 1 all zeros
        assert _rows_at_bound(y, dims, (0.0, 1.0)).all()
        assert _rows_at_bound(y, dims[1:], (0.0, 1.0)) is None
        assert _rows_at_bound(y, [], (0.0,)) is None
        slopes = self.dims("y ~ 1 | g[[x]]", y=y, g=[0, 0, 1, 1, 2, 2], x=np.arange(6))
        assert _rows_at_bound(y, slopes, (0.0, 1.0)) is None

    def test_marking_repeats_until_no_group_is_left_at_a_bound(self):
        # g = 0 is all ones; without its rows h = 0 is all zeros, and then
        # g = 2 all ones; g = 1 and h = 1 keep both outcomes
        y = np.array([1.0, 1, 0, 1, 0, 0, 1])
        dims = self.dims("y ~ 1 | g + h", y=y, g=[0, 0, 1, 1, 1, 2, 2],
                         h=[0, 0, 0, 1, 1, 0, 1])
        assert np.array_equal(_rows_at_bound(y, dims, (0.0, 1.0)), [1, 1, 1, 0, 0, 1, 1])
        assert _rows_at_bound(y, dims, (0.0,)) is None

    @pytest.mark.parametrize("family, mu", [("poisson", 0.0), ("logit", 0.0),
                                            ("logit", 1.0)])
    def test_start_stays_inside_the_logit_clip(self, family, mu):
        fam = FAMILIES[family]
        for glm_tol, dev in [(1e-8, 1e4), (1e-14, 1.0), (0.5, 1e6)]:
            m = _mu_at_bound(np.full(3, mu), np.ones(3), dev, glm_tol)
            assert np.all((m > 1e-12) & (m < 1 - 1e-12))
            assert np.all(np.abs(m - mu) <= 0.1)
            np.testing.assert_allclose(fam.linkinv(fam.link(m)), m, rtol=1e-6)

    @pytest.mark.parametrize("family", ["poisson", "logit"])
    def test_no_row_left_is_a_named_error(self, rng, family):
        n = 3000
        ds = make_ds(y=np.zeros(n), x=rng.normal(size=n), g=rng.integers(0, 50, n),
                     h=rng.integers(0, 30, n))
        with pytest.raises(EstimationError, match="every observation is in a "
                                                  "fixed-effect group whose 'y' is all 0"):
            fit_glm_irls("y ~ x | g + h", ds, family=family)

    def test_without_such_groups_no_row_is_held(self, glm_panel, monkeypatch):
        # a call would raise
        monkeypatch.setattr(importlib.import_module("fehd.estimators"), "_mu_at_bound", None)
        fit_glm_irls(GLM_FORMULA["poisson"], glm_panel, family="poisson", weights="w",
                     offset="off")


class TestTolerances:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
    def test_collin_tol(self, rng, value):
        ds = make_ds(y=rng.poisson(1.0, 60), x=rng.normal(size=60), g=np.arange(60) % 5)
        for fit, kw in [(fit_ols, {}), (fit_glm_irls, {"family": "poisson"})]:
            with pytest.raises(EstimationError, match="collin_tol must be finite and >= 0"):
                fit("y ~ x | g", ds, collin_tol=value, **kw)
        with pytest.raises(EstimationError, match="collin_tol must be finite and >= 0"):
            fit_2sls("y ~ 1 | g | x ~ y", ds, collin_tol=value)

    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1e-8])
    def test_glm_tol(self, rng, value):
        ds = make_ds(y=rng.poisson(1.0, 60), x=rng.normal(size=60))
        with pytest.raises(EstimationError, match="glm_tol must be finite and > 0"):
            fit_glm_irls("y ~ x", ds, family="poisson", glm_tol=value)

    @pytest.mark.parametrize("value", [0, -3])
    def test_irls_max_iter(self, rng, value):
        ds = make_ds(y=rng.poisson(1.0, 60), x=rng.normal(size=60))
        with pytest.raises(EstimationError, match=f"irls_max_iter must be >= 1, got {value}"):
            fit_glm_irls("y ~ x", ds, family="poisson", irls_max_iter=value)

    def test_zero_collin_tol_is_allowed(self, rng):
        ds = make_ds(y=rng.normal(size=60), x=rng.normal(size=60), g=np.arange(60) % 5)
        assert fit_ols("y ~ x | g", ds, collin_tol=0.0).coef_names == ["x"]
