import numpy as np
import pytest

from fehd.data import DataError, Dataset, NumericColumn
from fehd.estimators import EstimationError, fit_glm_irls, fit_model, fit_ols
from fehd.inference import VcovSpec, compute_vcov
from fehd.multiest import MultiOptions, run_multi

from oracles import scipubs_like


def make_ds(**cols):
    n = len(next(iter(cols.values())))
    return Dataset(n_rows=n, columns={k: NumericColumn(np.asarray(v, dtype=float))
                                      for k, v in cols.items()})


@pytest.fixture
def panel(rng):
    n = 400
    f1 = (np.arange(n) % 20).astype(float)
    f2 = rng.integers(0, 10, n).astype(float)
    x1 = rng.normal(size=n)
    x2 = rng.normal(size=n)
    y1 = x1 + 0.5 * f1 / 10 + f2 / 5 + rng.normal(size=n)
    y2 = -x1 + x2 + f2 / 3 + rng.normal(size=n)
    region = np.repeat([0.0, 1.0], n // 2)
    return make_ds(y1=y1, y2=y2, x1=x1, x2=x2, f1=f1, f2=f2, region=region)


def assert_same_fit(fit, solo, ds):
    """Bit for bit: coefficients, residuals and a clustered vcov matrix."""
    assert fit.coef_names == solo.coef_names
    assert np.array_equal(fit.coef, solo.coef)
    assert np.array_equal(fit.residuals, solo.residuals)
    spec = VcovSpec("cluster", ("f1",))
    assert np.array_equal(compute_vcov(fit, spec, ds).matrix,
                          compute_vcov(solo, spec, ds).matrix)


class TestPooling:
    def test_pooled_equals_standalone(self, panel):
        multi = run_multi("c(y1, y2) ~ x1 + x2 | f1 + f2", panel, MultiOptions())
        for fit, lhs in zip(multi.fits(), ("y1", "y2")):
            assert_same_fit(fit, fit_ols(f"{lhs} ~ x1 + x2 | f1 + f2", panel), panel)

    def test_pooled_collinear_drop_equals_standalone(self, panel):
        # x3 is dropped, so the kept design (x1, x2) is not a block of the
        # batched matrix's columns
        ds = panel.with_columns({"x3": NumericColumn(0.5 * panel.numeric("x1"))})
        multi = run_multi("c(y1, y2) ~ x1 + x3 + x2 | f1 + f2", ds, MultiOptions())
        for fit, lhs in zip(multi.fits(), ("y1", "y2")):
            solo = fit_ols(f"{lhs} ~ x1 + x3 + x2 | f1 + f2", ds)
            assert fit.coef_names == ["x1", "x2"]
            assert_same_fit(fit, solo, ds)

    def test_one_batch_for_shared_structure(self, panel):
        multi = run_multi("c(y1, y2) ~ x1 | f1 + f2", panel, MultiOptions())
        assert len(multi.shared_work_report) == 1
        rep = multi.shared_work_report[0]
        assert rep["models"] == 2 and rep["targets"] == 3  # y1, y2, x1

    def test_different_fe_not_pooled(self, panel):
        multi = run_multi("y1 ~ x1 | sw(f1, f2)", panel, MultiOptions())
        assert len(multi.shared_work_report) == 2
        assert all(r["models"] == 1 for r in multi.shared_work_report)

    def test_offset_ols_equals_shifted_dependent(self, panel):
        multi = run_multi("y1 ~ x1 | f1 + f2", panel, MultiOptions(offset="x2"))
        shifted = panel.with_columns({"ys": NumericColumn(
            panel.numeric("y1") - panel.numeric("x2"))})
        solo = fit_ols("ys ~ x1 | f1 + f2", shifted)
        fit = multi.results[0].fit
        assert np.abs(fit.coef - solo.coef).max() <= 1e-10
        assert np.abs(fit.residuals - solo.residuals).max() <= 1e-10

    @pytest.mark.parametrize("formula, kw", [
        ("y1 ~ x1 + x2 | f1 + f2", {}),
        ("y1 ~ x1 + x2", {}),
        ("y1 ~ x1 + x2 | f1 + f2", {"weights": "w"}),
        ("y1 ~ x1 | f1 + f2", {"offset": "x2"}),
    ], ids=["fe", "no-fe", "weighted", "offset"])
    def test_one_model_equals_fit_ols_bit_for_bit(self, panel, formula, kw):
        ds = panel.with_columns({"w": NumericColumn(1.0 + panel.numeric("f2"))})
        multi = run_multi(formula, ds, MultiOptions(**kw))
        assert multi.shared_work_report[0]["models"] == 1
        fit = multi.results[0].fit
        solo = fit_ols(formula, ds, **kw)
        assert fit.coef_names == solo.coef_names
        assert np.array_equal(fit.coef, solo.coef)
        assert np.array_equal(fit.residuals, solo.residuals)
        assert np.array_equal(fit.xtx_inv, solo.xtx_inv)
        assert fit.dof.df_resid == solo.dof.df_resid

    def test_offset_models_pool_apart_from_lhs_regressor(self, panel):
        # the target y1 - x2 must not be confused with the regressor y1
        multi = run_multi("c(y1, y2) ~ x1 + sw0(y1) | f1 + f2", panel,
                          MultiOptions(offset="x2"))
        assert len(multi.shared_work_report) == 1
        rep = multi.shared_work_report[0]
        assert rep["models"] == 4 and rep["targets"] == 4  # y1-x2, x1, y1, y2-x2
        shifted = panel.with_columns({
            f"{lhs}s": NumericColumn(panel.numeric(lhs) - panel.numeric("x2"))
            for lhs in ("y1", "y2")})
        expected = ["y1s ~ x1 | f1 + f2", "y1s ~ x1 + y1 | f1 + f2",
                    "y2s ~ x1 | f1 + f2", "y2s ~ x1 + y1 | f1 + f2"]
        for rec, formula in zip(multi.results, expected):
            solo = fit_ols(formula, shifted)
            assert rec.fit.coef_names == solo.coef_names
            assert np.abs(rec.fit.coef - solo.coef).max() <= 1e-10
            assert np.abs(rec.fit.residuals - solo.residuals).max() <= 1e-10
            assert np.abs(rec.fit.fitted + rec.fit.residuals
                          - panel.numeric(rec.fit.lhs_name)).max() <= 1e-10

    def test_gaussian_models_pool_as_ols(self, panel):
        # a Gaussian GLM with the identity link is OLS, and pools as OLS
        multi = run_multi("c(y1, y2) ~ csw(x1, region) | f1 + f2", panel,
                          MultiOptions(family="gaussian", offset="x2"))
        assert [r["pooled"] for r in multi.shared_work_report] == [True]
        formulas = [f"{lhs} ~ {rhs} | f1 + f2" for lhs in ("y1", "y2")
                    for rhs in ("x1", "x1 + region")]
        for rec, formula in zip(multi.results, formulas):
            solo = fit_model(formula, panel, family="gaussian", offset="x2")
            assert rec.fit.family == solo.family == "gaussian"
            assert rec.fit.coef_names == solo.coef_names
            assert np.array_equal(rec.fit.coef, solo.coef)

    def test_glm_never_pooled(self, panel):
        ds = panel.with_columns({"cnt": NumericColumn(
            np.round(np.exp(panel.numeric("y1") / 4)))})
        multi = run_multi("cnt ~ sw(x1, x2) | f1", ds, MultiOptions(family="poisson"))
        assert multi.shared_work_report == []
        solo = fit_glm_irls("cnt ~ x1 | f1", ds, family="poisson")
        assert np.abs(multi.results[0].fit.coef - solo.coef).max() < 1e-12


class TestSplit:
    def test_split_level_order(self):
        ds = scipubs_like()
        multi = run_multi("articles ~ funding | indiv + year", ds,
                          MultiOptions(split="eu_us"))
        labels = [r.provenance.sample_label for r in multi.results]
        assert labels == ["EU", "US"]
        assert multi.results[0].fit.dof.n_used == 550
        assert multi.results[1].fit.dof.n_used == 530

    def test_fsplit_adds_full_sample_first(self):
        ds = scipubs_like()
        multi = run_multi("articles ~ funding | indiv + year", ds,
                          MultiOptions(fsplit="eu_us"))
        labels = [r.provenance.sample_label for r in multi.results]
        assert labels == ["Full sample", "EU", "US"]
        assert multi.results[0].fit.dof.n_used == 1080

    def test_split_equals_subset_fit(self):
        ds = scipubs_like()
        multi = run_multi("articles ~ funding | indiv + year", ds,
                          MultiOptions(split="eu_us"))
        solo = run_multi("articles ~ funding | indiv + year", ds,
                         MultiOptions(subset="eu_us == EU"))
        assert np.abs(multi.results[0].fit.coef - solo.results[0].fit.coef).max() < 1e-12

    def test_infinite_split_value_is_missing(self, panel):
        region = panel.numeric("region").copy()
        region[0] = np.inf
        ds = panel.with_columns({"region": NumericColumn(region)})
        multi = run_multi("y1 ~ x1 | f1", ds, MultiOptions(split="region"))
        assert [r.provenance.sample_label for r in multi.results] == ["0", "1"]
        assert multi.results[0].fit.dof.n_used == 199

    @pytest.mark.parametrize("option", ["split", "fsplit"])
    def test_non_integral_split_column_is_an_error(self, panel, option):
        # one sample per distinct value would be one single-row fit per row
        with pytest.raises(DataError, match="'x2'"):
            run_multi("y1 ~ x1 | f1", panel, MultiOptions(**{option: "x2"}))

    def test_result_count_law(self, panel):
        multi = run_multi("c(y1, y2) ~ sw0(x2) | f1", panel,
                          MultiOptions(fsplit="region"))
        # 2 lhs x 2 rhs steps x 1 fe x (2 levels + full) = 12
        assert len(multi.results) == 12

    def test_ordering_model_major_then_split(self, panel):
        multi = run_multi("c(y1, y2) ~ x1 | f1", panel, MultiOptions(split="region"))
        sig = [(r.provenance.lhs_index, r.provenance.sample_label) for r in multi.results]
        assert sig == [(0, "0"), (0, "1"), (1, "0"), (1, "1")]


class TestErrors:
    def test_failed_model_recorded_others_continue(self, panel):
        # second split level has a constant x2 -> all-collinear there
        ds = panel.with_columns({"x2": NumericColumn(
            np.where(panel.numeric("region") == 1.0, 0.0, panel.numeric("x2")))})
        multi = run_multi("y1 ~ x2 | f1", ds, MultiOptions(split="region"))
        assert multi.results[0].ok
        assert not multi.results[1].ok
        assert "collinear" in multi.results[1].error

    def test_all_failing_raises(self, panel):
        with pytest.raises(EstimationError, match="every model failed"):
            run_multi("y1 ~ x1 | f1", panel, MultiOptions(subset="x1 > 99"))

    def test_unconverged_group_gives_fit_ols_message(self, panel):
        multi = run_multi("y1 ~ x1 | sw(f1 + f2, f1)", panel, MultiOptions(demean_max_iter=1))
        assert multi.results[0].fit is None and multi.results[1].ok
        with pytest.raises(EstimationError) as solo:
            fit_ols("y1 ~ x1 | f1 + f2", panel, demean_max_iter=1)
        assert multi.results[0].error == str(solo.value) == \
            "demeaning did not converge within 1 iterations"
        assert [r["fe"] for r in multi.shared_work_report] == [["f1"]]

    @pytest.mark.parametrize("family", ["poisson", "logit", "gaussian"])
    def test_iv_part_under_glm_family_is_an_error(self, panel, family):
        # the IV part is shared by every model of a formula, so every record
        # fails and the run reports the first record's error
        ds = panel.with_columns({"cnt": NumericColumn((panel.numeric("y1") > 0) * 1.0)})
        with pytest.raises(EstimationError, match="every model failed; first error: "
                           "IV estimation is only available for OLS models"):
            run_multi("cnt ~ x1 | f1 | x2 ~ y2", ds, MultiOptions(family=family))

    @pytest.mark.parametrize("family", ["ols", "gaussian", "poisson"])
    def test_unusable_demean_max_iter_is_recorded_per_model(self, panel, family):
        # a pooled group builds its demeaning problem where a single fit does,
        # so the problem's own error is recorded as every family records it
        ds = panel.with_columns({"cnt": NumericColumn((panel.numeric("y1") > 0) * 1.0)})
        with pytest.raises(EstimationError) as exc:
            run_multi("cnt ~ x1 | f1 + f2", ds,
                      MultiOptions(family=family, demean_max_iter=-3))
        assert str(exc.value) == ("every model failed; first error: "
                                  "demeaning max_iter must be >= 1, got -3")

    def test_threads_give_same_results(self, panel):
        ds = panel.with_columns({"f3": NumericColumn(np.arange(panel.n_rows) % 7 * 1.0)})
        # one pooled group, then three groups that finish in any order
        for formula in ("c(y1, y2) ~ sw(x1, x2) | f1",
                        "c(y1, y2) ~ x1 | sw(f1 + f2, f3, f1 + f3)"):
            a = run_multi(formula, ds, MultiOptions(threads=1))
            b = run_multi(formula, ds, MultiOptions(threads=4))
            for ra, rb in zip(a.results, b.results):
                assert np.array_equal(ra.fit.coef, rb.fit.coef)
            assert a.shared_work_report == b.shared_work_report
