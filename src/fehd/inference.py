"""Variance-covariance matrices, fit statistics and IV diagnostics.

Estimation is separate from inference: every estimator stores its bread matrix
and per-observation score rows, so any VCOV can be computed after the fact
without refitting.  Small-sample corrections use K = K_vars + K_fe from the
degrees-of-freedom ledger; pass ``ssc='none'`` to disable them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.stats
from scipy.special import gammaln

from .data import DataError, Dataset, _factor_codes
# unused here; still bound because the benchmark's tracing test
# (perfbench/tests/test_tracing.py) looks the name up in this module
from .data import make_factor_index  # noqa: F401
from .estimators import DEFAULT_COLLIN_TOL, EstimationError, FitResult, _wls_solve

__all__ = [
    "VcovSpec",
    "VcovMatrix",
    "parse_vcov_spec",
    "compute_vcov",
    "default_lag",
    "coeftable",
    "fit_stats",
    "iv_tests",
    "wald_test",
]

VCOV_KINDS = ("iid", "hc1", "cluster", "twoway", "nw", "dk")


@dataclass(frozen=True)
class VcovSpec:
    kind: str
    factors: tuple[str, ...] = ()
    unit: Optional[str] = None
    time: Optional[str] = None
    lag: Optional[int] = None
    ssc: str = "default"  # 'default' | 'none'

    def __post_init__(self):
        if self.kind not in VCOV_KINDS:
            raise DataError(f"unknown vcov kind {self.kind!r}; choose from "
                            + ", ".join(VCOV_KINDS))
        if self.kind == "cluster" and len(self.factors) != 1:
            raise DataError("cluster vcov takes exactly one factor")
        if self.kind == "twoway" and len(self.factors) != 2:
            raise DataError("twoway vcov takes exactly two factors")
        if self.ssc not in ("default", "none"):
            raise DataError("ssc must be 'default' or 'none'")


@dataclass
class VcovMatrix:
    matrix: np.ndarray
    ssc: dict[str, float]
    label: str
    spec: VcovSpec


def parse_vcov_spec(text: str, ssc: str = "default") -> VcovSpec:
    """Parse a CLI-style vcov request: ``iid``, ``hc1``, ``cluster=col``,
    ``twoway=c1,c2``, ``nw=unit,time[,lag]``, ``dk=time[,lag]``."""
    head, _, rest = text.partition("=")
    head = head.strip().lower()
    args = [a.strip() for a in rest.split(",") if a.strip()] if rest else []
    if head in ("iid", "hc1", "hetero"):
        return VcovSpec("hc1" if head == "hetero" else head, ssc=ssc)
    if head == "cluster":
        if len(args) == 2:
            return VcovSpec("twoway", factors=tuple(args), ssc=ssc)
        return VcovSpec("cluster", factors=tuple(args), ssc=ssc)
    if head == "twoway":
        return VcovSpec("twoway", factors=tuple(args), ssc=ssc)
    if head == "nw":
        if len(args) < 2:
            raise DataError("nw vcov needs unit,time[,lag]")
        lag = int(args[2]) if len(args) > 2 else None
        return VcovSpec("nw", unit=args[0], time=args[1], lag=lag, ssc=ssc)
    if head == "dk":
        if len(args) < 1:
            raise DataError("dk vcov needs time[,lag]")
        lag = int(args[1]) if len(args) > 1 else None
        return VcovSpec("dk", time=args[0], lag=lag, ssc=ssc)
    raise DataError(f"unknown vcov request {text!r}")


def default_lag(kind: str, n_periods: int) -> int:
    """Default HAC bandwidth: DK uses floor(N_T^0.25), NW floor(0.75 N_T^(1/3))."""
    if kind == "dk":
        return max(int(np.floor(n_periods ** 0.25)), 0)
    if kind == "nw":
        return max(int(np.floor(0.75 * n_periods ** (1.0 / 3.0))), 0)
    raise DataError(f"no default lag for vcov kind {kind!r}")


# ---------------------------------------------------------------------------
# VCOV computation
# ---------------------------------------------------------------------------

def _cluster_meat(scores: np.ndarray, codes: np.ndarray, n_groups: int) -> np.ndarray:
    K = scores.shape[1]
    S = np.empty((n_groups, K))
    for k in range(K):
        S[:, k] = np.bincount(codes, weights=scores[:, k], minlength=n_groups)
    return S.T @ S


def _pair_codes(c1: np.ndarray, n1: int, c2: np.ndarray, n2: int) -> tuple[np.ndarray, int]:
    combined = c1 * np.int64(n2) + c2
    uniq, inv = np.unique(combined, return_inverse=True)
    return inv.astype(np.int64), len(uniq)


def _lag_pairs(unit_codes: np.ndarray, times: np.ndarray, lag: int):
    """Row index pairs (a, b) with same unit and time_a - time_b == lag."""
    span = int(times.max() - times.min() + 1) if len(times) else 1
    base = int(times.min()) if len(times) else 0
    key = unit_codes * np.int64(2 * span + 1) + (times - base)
    order = np.argsort(key, kind="stable")
    sorted_keys = key[order]
    target = key - lag
    pos = np.searchsorted(sorted_keys, target)
    pos_c = np.minimum(pos, len(sorted_keys) - 1)
    hit = sorted_keys[pos_c] == target
    a = np.flatnonzero(hit)
    b = order[pos_c[hit]]
    return a, b


def compute_vcov(fit: FitResult, spec: VcovSpec, ds: Optional[Dataset] = None) -> VcovMatrix:
    """Sandwich VCOV A^-1 M A^-1 from a fit's stored bread and scores."""
    if fit.xtx_inv is None:
        raise EstimationError("fit does not retain its bread matrix; cannot compute vcov")
    A_inv = fit.xtx_inv
    scores = fit.ensure_scores()
    N = fit.dof.n_used
    K = fit.dof.k_total
    df_resid = fit.dof.df_resid
    ssc: dict[str, float] = {}
    use_ssc = spec.ssc == "default"

    if spec.kind == "iid":
        if fit.family in ("poisson", "logit"):
            sigma2 = 1.0
        else:
            denom = df_resid if use_ssc else N
            sigma2 = fit.ssr / denom
            ssc["sigma2_denominator"] = float(denom)
        V = sigma2 * A_inv
        label = "IID"
    elif spec.kind == "hc1":
        meat = scores.T @ scores
        c = N / (N - K) if use_ssc else 1.0
        ssc["hc1"] = c
        V = A_inv @ meat @ A_inv * c
        label = "Heteroskedasticity-robust"
    elif spec.kind == "cluster":
        if ds is None:
            raise EstimationError("cluster vcov needs the dataset for the cluster column")
        codes, G = _factor_codes(ds, fit.mask, spec.factors[0])
        if G <= 1:
            raise EstimationError(
                f"cluster variable {spec.factors[0]!r} has a single cluster; "
                f"clustered variance is undefined")
        meat = _cluster_meat(scores, codes, G)
        c = (G / (G - 1)) * ((N - 1) / (N - K)) if use_ssc else 1.0
        ssc["cluster"] = c
        ssc["n_clusters"] = float(G)
        V = A_inv @ meat @ A_inv * c
        label = f"by: {spec.factors[0]}"
    elif spec.kind == "twoway":
        if ds is None:
            raise EstimationError("twoway vcov needs the dataset for the cluster columns")
        c1, G1 = _factor_codes(ds, fit.mask, spec.factors[0])
        c2, G2 = _factor_codes(ds, fit.mask, spec.factors[1])
        if G1 <= 1 or G2 <= 1:
            raise EstimationError("twoway clustering needs at least two clusters per factor")
        c12, G12 = _pair_codes(c1, G1, c2, G2)
        meat = np.zeros((scores.shape[1], scores.shape[1]))
        for codes, G, name in ((c1, G1, "cluster1"), (c2, G2, "cluster2")):
            cf = (G / (G - 1)) * ((N - 1) / (N - K)) if use_ssc else 1.0
            ssc[name] = cf
            meat += cf * _cluster_meat(scores, codes, G)
        cf = (G12 / (G12 - 1)) * ((N - 1) / (N - K)) if use_ssc else 1.0
        ssc["intersection"] = cf
        meat -= cf * _cluster_meat(scores, c12, G12)
        V = A_inv @ meat @ A_inv
        label = f"by: {spec.factors[0]} & {spec.factors[1]}"
    elif spec.kind in ("nw", "dk"):
        if ds is None:
            raise EstimationError(f"{spec.kind} vcov needs the dataset for panel columns")
        unit_name, time_name = spec.unit, spec.time
        if time_name is None and ds.panel is not None:
            time_name = ds.panel[1]
        if spec.kind == "nw" and unit_name is None and ds.panel is not None:
            unit_name = ds.panel[0]
        if time_name is None or (spec.kind == "nw" and unit_name is None):
            raise EstimationError(f"{spec.kind} vcov needs unit/time identifiers")
        tvals = ds.numeric(time_name)[fit.mask.keep]
        rounded = np.rint(tvals)
        if np.isnan(tvals).any() or not np.array_equal(rounded, tvals):
            raise EstimationError(f"time column {time_name!r} must be integer-valued")
        times = rounded.astype(np.int64)
        n_periods = len(np.unique(times))
        lag = spec.lag if spec.lag is not None else default_lag(spec.kind, n_periods)
        if spec.kind == "nw":
            ucodes, _ = _factor_codes(ds, fit.mask, unit_name)
            meat = scores.T @ scores
            for l in range(1, lag + 1):
                a, b = _lag_pairs(ucodes, times, l)
                if not len(a):
                    continue
                gamma = scores[a].T @ scores[b]
                wgt = 1.0 - l / (lag + 1.0)
                meat += wgt * (gamma + gamma.T)
            c = N / (N - K) if use_ssc else 1.0
            ssc["nw"] = c
            V = A_inv @ meat @ A_inv * c
            label = f"Newey-West (L={lag})"
        else:
            tcodes, GT = _factor_codes(ds, fit.mask, time_name)
            if GT <= 1:
                raise EstimationError("dk vcov needs at least two time periods")
            Kc = scores.shape[1]
            H = np.empty((GT, Kc))
            for k in range(Kc):
                H[:, k] = np.bincount(tcodes, weights=scores[:, k], minlength=GT)
            tval_of_code = np.zeros(GT, dtype=np.int64)
            tval_of_code[tcodes] = times
            meat = H.T @ H
            for l in range(1, lag + 1):
                a, b = _lag_pairs(np.zeros(GT, dtype=np.int64), tval_of_code, l)
                if not len(a):
                    continue
                gamma = H[a].T @ H[b]
                wgt = 1.0 - l / (lag + 1.0)
                meat += wgt * (gamma + gamma.T)
            c = (GT / (GT - 1)) * ((N - 1) / (N - K)) if use_ssc else 1.0
            ssc["dk"] = c
            V = A_inv @ meat @ A_inv * c
            label = f"Driscoll-Kraay (L={lag})"
    else:  # pragma: no cover
        raise EstimationError(f"unknown vcov kind {spec.kind!r}")

    V = (V + V.T) / 2.0
    if V.shape[0] and (np.diag(V) < 0).any():
        evals, evecs = np.linalg.eigh(V)
        if evals.min() < 0:
            warnings.warn("vcov had negative eigenvalues; clamped at zero", RuntimeWarning)
            evals = np.clip(evals, 0.0, None)
            V = (evecs * evals) @ evecs.T
            V = (V + V.T) / 2.0
    return VcovMatrix(matrix=V, ssc=ssc, label=label, spec=spec)


# ---------------------------------------------------------------------------
# Coefficient table and tests
# ---------------------------------------------------------------------------

def coeftable(fit: FitResult, vcov: VcovMatrix) -> list[dict]:
    """Per-coefficient rows: estimate, se, t/z statistic, p-value."""
    se = np.sqrt(np.maximum(np.diag(vcov.matrix), 0.0))
    rows = []
    student = fit.family in ("ols", "2sls", "gaussian")
    for name, est, s in zip(fit.coef_names, fit.coef, se):
        with np.errstate(divide="ignore", invalid="ignore"):
            stat = est / s if s > 0 else np.inf * np.sign(est) if est else np.nan
        if student:
            p = 2.0 * scipy.stats.t.sf(abs(stat), fit.dof.df_resid)
        else:
            p = 2.0 * scipy.stats.norm.sf(abs(stat))
        rows.append({"name": name, "estimate": float(est), "se": float(s),
                     "stat": float(stat), "p": float(p)})
    return rows


def wald_test(fit: FitResult, vcov: VcovMatrix,
              which: Optional[list[int]] = None) -> dict:
    """Joint nullity F-test of the (non-intercept) coefficients under a vcov."""
    if which is None:
        which = [k for k, nm in enumerate(fit.coef_names) if nm != "(Intercept)"]
    q = len(which)
    if q == 0:
        raise EstimationError("wald test: no testable coefficients")
    g = fit.coef[which]
    Vq = vcov.matrix[np.ix_(which, which)]
    stat = float(g @ np.linalg.solve(Vq, g)) / q
    df2 = fit.dof.df_resid
    p = float(scipy.stats.f.sf(stat, q, df2))
    return {"stat": stat, "p": p, "df1": q, "df2": df2, "vcov": vcov.label}


def _loglik(fit: FitResult) -> float:
    y = fit._y_response
    w = fit._weights if fit._weights is not None else np.ones(len(y))
    mu = fit.fitted
    if fit.family == "poisson":
        with np.errstate(divide="ignore", invalid="ignore"):
            lmu = np.log(mu)
        return float(np.sum(w * (y * lmu - mu - gammaln(y + 1.0))))
    if fit.family == "logit":
        eps = 1e-12
        m = np.clip(mu, eps, 1 - eps)
        return float(np.sum(w * (y * np.log(m) + (1 - y) * np.log(1 - m))))
    n = fit.dof.n_used
    s2 = fit.ssr / n
    return float(-0.5 * n * (np.log(2 * np.pi * s2) + 1.0))


def _loglik_null(fit: FitResult) -> float:
    y = fit._y_response
    w = fit._weights if fit._weights is not None else np.ones(len(y))
    mu0 = float((w * y).sum() / w.sum())
    if fit.family == "poisson":
        return float(np.sum(w * (y * np.log(mu0) - mu0 - gammaln(y + 1.0))))
    if fit.family == "logit":
        eps = 1e-12
        m = min(max(mu0, eps), 1 - eps)
        return float(np.sum(w * (y * np.log(m) + (1 - y) * np.log(1 - m))))
    n = fit.dof.n_used
    s2 = float(np.sum(w * (y - mu0) ** 2)) / n
    return float(-0.5 * n * (np.log(2 * np.pi * s2) + 1.0))


SUPPORTED_STATS = ("n", "r2", "ar2", "wr2", "rmse", "ll", "bic", "apr2",
                   "sq.cor", "wald", "ivf", "wh")


def fit_stats(fit: FitResult, requested: list[str],
              vcov: Optional[VcovMatrix] = None,
              ds: Optional[Dataset] = None) -> dict:
    """Named fit statistics; wald/ivf/wh use the supplied (or IID) vcov."""
    out: dict = {}
    n = fit.dof.n_used
    centered = fit.has_intercept or bool(fit.fe_labels)
    for name in requested:
        if name not in SUPPORTED_STATS:
            raise EstimationError(f"unknown fit statistic {name!r}; supported: "
                                  + ", ".join(SUPPORTED_STATS))
        if name == "n":
            out["n"] = n
        elif name == "r2":
            out["r2"] = 1.0 - fit.ssr / fit.sst if fit.sst > 0 else float("nan")
        elif name == "ar2":
            if fit.sst <= 0:
                out["ar2"] = float("nan")
            else:
                denom_tot = n - 1 if centered else n
                out["ar2"] = 1.0 - (fit.ssr / fit.dof.df_resid) / (fit.sst / denom_tot)
        elif name == "wr2":
            out["wr2"] = (1.0 - fit.ssr / fit.ssr_fe_only
                          if fit.fe_labels and fit.ssr_fe_only > 0 else float("nan"))
        elif name == "rmse":
            out["rmse"] = float(np.sqrt(fit.ssr / n))
        elif name == "ll":
            out["ll"] = _loglik(fit)
        elif name == "bic":
            out["bic"] = -2.0 * _loglik(fit) + fit.dof.k_total * np.log(n)
        elif name == "apr2":
            ll = _loglik(fit)
            ll0 = _loglik_null(fit)
            out["apr2"] = 1.0 - (ll - fit.dof.k_total) / ll0 if ll0 != 0 else float("nan")
        elif name == "sq.cor":
            # an OLS response excludes the offset, while its fitted values include it
            y = fit.fitted + fit.residuals if fit.family == "ols" else fit._y_response
            if np.std(fit.fitted) == 0 or np.std(y) == 0:
                out["sq.cor"] = float("nan")
            else:
                out["sq.cor"] = float(np.corrcoef(y, fit.fitted)[0, 1] ** 2)
        elif name == "wald":
            v = vcov if vcov is not None else compute_vcov(fit, VcovSpec("iid"), ds)
            out["wald"] = wald_test(fit, v)
        elif name in ("ivf", "wh"):
            if fit.iv_diag is None:
                raise EstimationError(f"{name} requires a 2SLS fit")
            out.update({name: iv_tests(fit, vcov.spec if vcov else VcovSpec("iid"), ds)[name]})
    return out


def iv_tests(fit: FitResult, vcov_spec: Optional[VcovSpec] = None,
             ds: Optional[Dataset] = None) -> dict:
    """First-stage F per endogenous variable plus the Wu-Hausman test."""
    if fit.iv_diag is None:
        raise EstimationError("iv_tests requires a 2SLS fit")
    spec = vcov_spec or VcovSpec("iid")
    diag = fit.iv_diag
    ivf = {}
    for fs in diag.first_stages:
        sub = fs.instrument_idx
        q = len(sub)
        if spec.kind == "iid":
            V1 = (fs.ssr / fs.dof.df_resid) * fs.xtx_inv
        else:
            proxy = FitResult(
                coef=fs.coef, coef_names=fs.coef_names, dropped_collinear=[],
                residuals=fs.residuals, fitted=np.zeros(0), xtx_inv=fs.xtx_inv,
                scores=fs.scores, dof=fs.dof, convergence=fit.convergence,
                family="ols", lhs_name=fs.endo_name, fe_labels=fit.fe_labels,
                mask=fit.mask, has_intercept=fit.has_intercept,
                ssr=fs.ssr, sst=fs.sst_within, ssr_fe_only=fs.sst_within,
                weights_sum=fit.weights_sum, y_mean=0.0,
                _weights=fit._weights)
            V1 = compute_vcov(proxy, spec, ds).matrix
        g = fs.coef[sub]
        Vq = V1[np.ix_(sub, sub)]
        stat = float(g @ np.linalg.solve(Vq, g)) / q
        df2 = fs.dof.df_resid
        ivf[fs.endo_name] = {"stat": stat, "p": float(scipy.stats.f.sf(stat, q, df2)),
                             "df1": q, "df2": df2}

    # Wu-Hausman: add first-stage residuals to the structural OLS equation
    w = fit._weights
    V = np.column_stack([fs.residuals for fs in diag.first_stages])
    D_r = np.column_stack([diag.endo_t, diag.exog_t])
    D_u = np.column_stack([D_r, V])
    names = diag.endo_names + diag.exog_names

    def ssr_and_rank(D):
        kept, _, coef, _ = _wls_solve(D, diag.y_t, w, names, DEFAULT_COLLIN_TOL)
        r = diag.y_t - D[:, kept] @ coef
        return float(np.dot(r if w is None else w * r, r)), len(kept)

    ssr_r, _ = ssr_and_rank(D_r)
    ssr_u, k_u = ssr_and_rank(D_u)
    q = V.shape[1]
    df2 = fit.dof.n_used - fit.dof.k_fe - k_u
    stat = ((ssr_r - ssr_u) / q) / (ssr_u / df2)
    wh = {"stat": float(stat), "p": float(scipy.stats.f.sf(stat, q, df2)),
          "df1": q, "df2": df2}
    first = diag.first_stages[0].endo_name if len(diag.first_stages) == 1 else None
    return {"ivf": ivf[first] if first else ivf, "wh": wh, "ivf_all": ivf}
