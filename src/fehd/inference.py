"""Variance-covariance matrices, fit statistics and IV diagnostics.

Estimation is separate from inference: every estimator stores its bread matrix
and a design record (``FitResult.design``) from which the per-observation
score rows are formed on first use, so any VCOV can be computed after the fact
without refitting.  Likelihoods and ``sq.cor`` read the observed outcome from
the same record.  The IV tests are least-squares solves on the Gram of the
2SLS block; the first stages are ordinary fits.  Every robust VCOV is one
sandwich A^-1 M A^-1 c, its kind choosing only the meat M and the factor c,
and every cluster factor is G/(G-1) (N-1)/(N-K), with K = K_vars + K_fe from
the degrees-of-freedom ledger; pass ``ssc='none'`` to disable the factors.
The families in ``estimators.FIXED_DISPERSION`` take sigma^2 = 1 and z tests.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import DataError, Dataset, _time_values, make_factor_index, panel_pairs
from .estimators import (DEFAULT_COLLIN_TOL, FIXED_DISPERSION, EstimationError,
                         FitResult, _wssr, solve_gram)

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
    ``twoway=c1,c2``, ``nw[=unit,time[,lag]]``, ``dk[=time[,lag]]``.

    Bare ``nw`` and ``dk`` take their unit and time from the dataset's panel.
    """
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
        if len(args) == 1 or len(args) > 3:
            raise DataError("nw vcov takes unit,time[,lag], or nothing to use the panel")
        lag = _parse_lag(args[2]) if len(args) > 2 else None
        return VcovSpec("nw", unit=args[0] if args else None,
                        time=args[1] if args else None, lag=lag, ssc=ssc)
    if head == "dk":
        if len(args) > 2:
            raise DataError("dk vcov takes time[,lag], or nothing to use the panel")
        lag = _parse_lag(args[1]) if len(args) > 1 else None
        return VcovSpec("dk", time=args[0] if args else None, lag=lag, ssc=ssc)
    raise DataError(f"unknown vcov request {text!r}")


def _parse_lag(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise DataError(f"vcov lag must be a non-negative integer, got {text!r}")
    return int(text)


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

def _group_sums(scores: np.ndarray, codes: np.ndarray, n_groups: int) -> np.ndarray:
    """Per-group column sums of the score rows, (n_groups, K)."""
    S = np.empty((n_groups, scores.shape[1]))
    for k in range(scores.shape[1]):
        S[:, k] = np.bincount(codes, weights=scores[:, k], minlength=n_groups)
    return S


def _hac_meat(S: np.ndarray, pairs=()) -> np.ndarray:
    """S'S plus, for the l-th (a, b) of ``pairs`` (the row pairs of one unit
    l apart, l = 1..L), Bartlett weight (1 - l / (L + 1)) times G_l + G_l',
    G_l the sum of S[a]' S[b]."""
    meat = S.T @ S
    lag = len(pairs)
    for l, (a, b) in enumerate(pairs, 1):
        if not len(a):
            continue
        gamma = S[a].T @ S[b]
        wgt = 1.0 - l / (lag + 1.0)
        meat += wgt * (gamma + gamma.T)
    return meat


def _pair_codes(c1: np.ndarray, n1: int, c2: np.ndarray, n2: int) -> tuple[np.ndarray, int]:
    combined = c1 * np.int64(n2) + c2
    uniq, inv = np.unique(combined, return_inverse=True)
    return inv.astype(np.int64), len(uniq)


def compute_vcov(fit: FitResult, spec: VcovSpec, ds: Optional[Dataset] = None) -> VcovMatrix:
    """The VCOV of a fit from its stored bread A^-1 and, past IID, its scores.

    IID is sigma^2 A^-1, sigma^2 = SSR / df_resid (SSR / N under
    ``ssc='none'``) or 1 for the fixed-dispersion families; it forms no
    scores.  Every other kind is the one sandwich A^-1 M A^-1 c, the kind
    choosing the meat M of the score rows s_i and the factor c (``_meat``).
    K = K_vars + K_fe; each factor is recorded in ``ssc``, and is 1 under
    ``ssc='none'``:

    =======  ====================================  ===========================
    hc1      sum of s_i s_i'                       N/(N-K)
    cluster  sum of S_g S_g' over G clusters       G/(G-1) (N-1)/(N-K)
    twoway   c1 M1 + c2 M2 - c12 M12 (12: pairs)   1; each c_j is the above
    nw       hc1's plus Bartlett lags within units N/(N-K)
    dk       nw's on the sums of G periods         G/(G-1) (N-1)/(N-K)
    =======  ====================================  ===========================
    """
    A_inv = fit.xtx_inv
    ssc: dict[str, float] = {}
    if spec.kind == "iid":
        if fit.family in FIXED_DISPERSION:
            sigma2 = 1.0
        else:
            denom = fit.dof.df_resid if spec.ssc == "default" else fit.dof.n_used
            sigma2 = fit.ssr / denom
            ssc["sigma2_denominator"] = float(denom)
        V, label = sigma2 * A_inv, "IID"
    else:
        meat, c, label = _meat(fit, spec, ds, ssc)
        V = A_inv @ meat @ A_inv * c

    V = (V + V.T) / 2.0
    if V.shape[0] and (np.diag(V) < 0).any():
        evals, evecs = np.linalg.eigh(V)
        if evals.min() < 0:
            warnings.warn("vcov had negative eigenvalues; clamped at zero", RuntimeWarning)
            evals = np.clip(evals, 0.0, None)
            V = (evecs * evals) @ evecs.T
            V = (V + V.T) / 2.0
    return VcovMatrix(matrix=V, ssc=ssc, label=label, spec=spec)


def _meat(fit: FitResult, spec: VcovSpec, ds: Optional[Dataset],
          ssc: dict[str, float]) -> tuple[np.ndarray, float, str]:
    """The meat M, the factor c (recorded in ``ssc``) and the label of a
    sandwich kind; see ``compute_vcov``."""
    N = fit.dof.n_used
    K = fit.dof.k_total
    use_ssc = spec.ssc == "default"
    hc_factor = N / (N - K) if use_ssc else 1.0
    if spec.kind != "hc1" and ds is None:
        raise EstimationError(f"{spec.kind} vcov needs the dataset for its cluster "
                              f"or panel columns")

    def clusters(name: str) -> tuple[np.ndarray, int]:
        idx = make_factor_index(ds, fit.mask, [name])
        if idx.n_groups <= 1:
            raise EstimationError(f"cluster variable {name!r} has a single cluster; "
                                  f"clustered variance is undefined")
        return idx.group_of_row, idx.n_groups

    def cluster_factor(G: int) -> float:
        return (G / (G - 1)) * ((N - 1) / (N - K)) if use_ssc else 1.0

    scores = fit.ensure_scores()
    if spec.kind == "hc1":
        c = ssc["hc1"] = hc_factor
        return scores.T @ scores, c, "Heteroskedasticity-robust"
    if spec.kind == "cluster":
        codes, G = clusters(spec.factors[0])
        c = ssc["cluster"] = cluster_factor(G)
        ssc["n_clusters"] = float(G)
        return _hac_meat(_group_sums(scores, codes, G)), c, f"by: {spec.factors[0]}"
    if spec.kind == "twoway":
        (c1, G1), (c2, G2) = clusters(spec.factors[0]), clusters(spec.factors[1])
        c12, G12 = _pair_codes(c1, G1, c2, G2)
        meat = np.zeros((scores.shape[1], scores.shape[1]))
        for codes, G, name in ((c1, G1, "cluster1"), (c2, G2, "cluster2")):
            cf = ssc[name] = cluster_factor(G)
            meat += cf * _hac_meat(_group_sums(scores, codes, G))
        cf = ssc["intersection"] = cluster_factor(G12)
        meat -= cf * _hac_meat(_group_sums(scores, c12, G12))
        # the factors are inside the meat; times 1.0 is exact
        return meat, 1.0, f"by: {spec.factors[0]} & {spec.factors[1]}"

    # nw, dk
    unit_name, time_name = (spec.unit, spec.time) if ds.panel is None else \
        (spec.unit or ds.panel[0], spec.time or ds.panel[1])
    if time_name is None or (spec.kind == "nw" and unit_name is None):
        raise EstimationError(f"{spec.kind} vcov needs unit/time identifiers: name "
                              "them in the request or give the data a panel")
    times = _time_values(ds, fit.mask, time_name)
    lag = spec.lag if spec.lag is not None else \
        default_lag(spec.kind, len(np.unique(times)))
    if spec.kind == "nw":
        ucodes = make_factor_index(ds, fit.mask, [unit_name]).group_of_row
        c = ssc["nw"] = hc_factor
        return (_hac_meat(scores, panel_pairs(ucodes, times, range(1, lag + 1))), c,
                f"Newey-West (L={lag})")
    tcodes, GT = clusters(time_name)
    tval_of_code = np.zeros(GT, dtype=np.int64)
    tval_of_code[tcodes] = times
    c = ssc["dk"] = cluster_factor(GT)
    # the period sums form one series: a single unit
    meat = _hac_meat(_group_sums(scores, tcodes, GT),
                     panel_pairs(np.zeros(GT, dtype=np.int64), tval_of_code,
                                 range(1, lag + 1)))
    return meat, c, f"Driscoll-Kraay (L={lag})"


# ---------------------------------------------------------------------------
# Coefficient table and tests
# ---------------------------------------------------------------------------

def _f_sf(stat: float, df1: int, df2: int) -> float:
    """Upper tail of F(df1, df2) at ``stat``; 1 at or below zero."""
    from scipy.special import fdtrc  # loaded by the first tail a run computes
    return float(fdtrc(df1, df2, max(stat, 0.0)))


def coeftable(fit: FitResult, vcov: VcovMatrix) -> list[dict]:
    """Per-coefficient rows: estimate, se, t/z statistic, p-value."""
    from scipy.special import ndtr, stdtr  # loaded by the first tail a run computes
    se = np.sqrt(np.maximum(np.diag(vcov.matrix), 0.0))
    rows = []
    student = fit.family not in FIXED_DISPERSION
    for name, est, s in zip(fit.coef_names, fit.coef, se):
        with np.errstate(divide="ignore", invalid="ignore"):
            stat = est / s if s > 0 else np.inf * np.sign(est) if est else np.nan
        if student:
            p = 2.0 * stdtr(fit.dof.df_resid, -abs(stat))  # Student t upper tail
        else:
            p = 2.0 * ndtr(-abs(stat))
        rows.append({"name": name, "estimate": float(est), "se": float(s),
                     "stat": float(stat), "p": float(p)})
    return rows


def _joint_f(fit: FitResult, V: np.ndarray, which: list[int]) -> dict:
    """Joint nullity F-test of ``fit.coef[which]`` under the vcov matrix V."""
    q = len(which)
    g = fit.coef[which]
    stat = float(g @ np.linalg.solve(V[np.ix_(which, which)], g)) / q
    df2 = fit.dof.df_resid
    return {"stat": stat, "p": _f_sf(stat, q, df2), "df1": q, "df2": df2}


def wald_test(fit: FitResult, vcov: VcovMatrix,
              which: Optional[list[int]] = None) -> dict:
    """Joint nullity F-test of the (non-intercept) coefficients under a vcov."""
    if which is None:
        which = [k for k, nm in enumerate(fit.coef_names) if nm != "(Intercept)"]
    if not which:
        raise EstimationError("wald test: no testable coefficients")
    return {**_joint_f(fit, vcov.matrix, which), "vcov": vcov.label}


def _family_loglik(fit: FitResult, y, w, mu, ssr: float) -> float:
    """Log-likelihood of outcome ``y`` at mean ``mu``; Gaussian from the SSR."""
    if fit.family == "poisson":
        from scipy.special import gammaln  # only Poisson likelihoods read it
        with np.errstate(divide="ignore", invalid="ignore"):
            lmu = np.log(mu)
        return float(np.sum(w * (y * lmu - mu - gammaln(y + 1.0))))
    if fit.family == "logit":
        eps = 1e-12
        m = np.clip(mu, eps, 1 - eps)
        return float(np.sum(w * (y * np.log(m) + (1 - y) * np.log(1 - m))))
    n = fit.dof.n_used
    s2 = ssr / n
    return float(-0.5 * n * (np.log(2 * np.pi * s2) + 1.0))


def _loglik(fit: FitResult) -> float:
    d = fit.design
    w = d.weights if d.weights is not None else np.ones(len(d.y))
    return _family_loglik(fit, d.y, w, fit.fitted, fit.ssr)


def _loglik_null(fit: FitResult) -> float:
    d = fit.design
    y = d.y
    # the Gaussian null model is a constant plus the offset
    if d.offset is not None and fit.family not in FIXED_DISPERSION:
        y = y - d.offset
    w = d.weights if d.weights is not None else np.ones(len(y))
    mu0 = float((w * y).sum() / w.sum())
    return _family_loglik(fit, y, w, mu0, float(np.sum(w * (y - mu0) ** 2)))


SUPPORTED_STATS = ("n", "r2", "ar2", "wr2", "rmse", "ll", "bic", "apr2",
                   "sq.cor", "wald", "ivf", "wh")


def fit_stats(fit: FitResult, requested: list[str],
              vcov: Optional[VcovMatrix] = None,
              ds: Optional[Dataset] = None) -> dict:
    """Named fit statistics; wald/ivf/wh use the supplied (or IID) vcov."""
    out: dict = {}
    iv = None  # iv_tests output, shared by ivf and wh
    n = fit.dof.n_used
    for name in requested:
        if name not in SUPPORTED_STATS:
            raise EstimationError(f"unknown fit statistic {name!r}; supported: "
                                  + ", ".join(SUPPORTED_STATS))
        if name == "n":
            out["n"] = n
        elif name == "r2":
            out["r2"] = 1.0 - fit.ssr / fit.sst if fit.sst > 0 else float("nan")
        elif name == "ar2":
            out["ar2"] = (1.0 - (fit.ssr / fit.dof.df_resid) / (fit.sst / (n - 1))
                          if fit.sst > 0 else float("nan"))
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
            y = fit.design.y
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
            if iv is None:
                iv = iv_tests(fit, vcov.spec if vcov else VcovSpec("iid"), ds)
            out[name] = iv[name]
    return out


def iv_tests(fit: FitResult, vcov_spec: Optional[VcovSpec] = None,
             ds: Optional[Dataset] = None) -> dict:
    """First-stage F per endogenous variable, under ``vcov_spec`` (IID by
    default), plus the Wu-Hausman test."""
    if fit.iv_diag is None:
        raise EstimationError("iv_tests requires a 2SLS fit")
    spec = vcov_spec or VcovSpec("iid")
    diag = fit.iv_diag
    ivf = {}
    for fs in diag.first_stages:
        # the instruments: the first stage's regressors that follow E in the block
        sub = [i for i, j in enumerate(fs.design.regressors) if j > diag.endo_cols[-1]]
        ivf[fs.lhs_name] = _joint_f(fs, compute_vcov(fs, spec, ds).matrix, sub)

    # Wu-Hausman: y on [E, X, V], V_j = E_j - E_hat_j the first-stage
    # residuals, solved on the Gram of the block [R, V].  V is formed over the
    # rows: as a Gram difference E'WE - E_hat'WE_hat, V'WV would lose digits
    # as the square of the first stage's 1 - R^2.  By FWL the restricted
    # regression (without V) leaves SSR_r = SSR_u + g_V' (A^-1_VV)^-1 g_V
    R, w = fit.design.block, fit.design.weights
    V = R @ np.column_stack([fs.design.resid_map for fs in diag.first_stages])
    WV = V if w is None else V * w[:, None]
    RWV = R.T @ WV
    p, q = R.shape[1], V.shape[1]
    ixs = diag.endo_cols + diag.exog_cols + list(range(p, p + q))
    names = diag.endo_names + diag.exog_names + [f"resid_{e}" for e in diag.endo_names]
    sol = solve_gram(np.block([[diag.gram, RWV], [RWV.T, V.T @ WV]]), 0, ixs,
                     DEFAULT_COLLIN_TOL, names)
    v = [i for i, k in enumerate(sol.kept) if ixs[k] >= p]
    g = sol.coef[v]
    ssr_gain = float(g @ np.linalg.solve(sol.xtx_inv[np.ix_(v, v)], g)) if v else 0.0
    ssr_u = sol.ssr
    if ssr_u is None:
        c = np.zeros(p + q)
        c[0] = 1.0
        c[[ixs[k] for k in sol.kept]] = -sol.coef
        ssr_u = _wssr(R @ c[:p] + V @ c[p:], w)
    df2 = fit.dof.n_used - fit.dof.k_fe - len(sol.kept)
    stat = (ssr_gain / q) / (ssr_u / df2)
    wh = {"stat": float(stat), "p": _f_sf(stat, q, df2),
          "df1": q, "df2": df2}
    first = diag.endo_names[0] if q == 1 else None
    return {"ivf": ivf[first] if first else ivf, "wh": wh, "ivf_all": ivf}
