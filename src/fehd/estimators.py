"""Model fitting: OLS, 2SLS and IRLS-GLM on demeaned data.

The design pipeline materializes virtual columns (logs, panel shifts), applies
listwise deletion, expands ``i()`` terms, and builds the fixed-effect
dimensions.  All estimators then share one weighted-least-squares core with
pivoted-Cholesky collinearity pruning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from . import formula as fml
from .data import (CategoricalColumn, DataError, Dataset, NumericColumn,
                   SampleMask, build_mask, make_factor_index, panel_shift)
from .demean import DemeanProblem, DemeanResult, FeDim, demean, recover_fixef

__all__ = [
    "EstimationError",
    "FamilySpec",
    "FAMILIES",
    "DofLedger",
    "Convergence",
    "FitResult",
    "ModelFrame",
    "build_frame",
    "fit_ols",
    "fit_2sls",
    "fit_glm_irls",
    "fit_model",
    "fixef",
]

DEFAULT_COLLIN_TOL = 1e-10
GLM_TOL = 1e-8
IRLS_MAX_ITER = 200
ETA_BOUND = {"poisson": 500.0, "logit": 30.0, "gaussian": np.inf}


class EstimationError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# GLM families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilySpec:
    name: str
    linkinv: Callable[[np.ndarray], np.ndarray]
    mu_eta: Callable[[np.ndarray], np.ndarray]      # d mu / d eta
    variance: Callable[[np.ndarray], np.ndarray]
    deviance: Callable[[np.ndarray, np.ndarray, np.ndarray], float]
    init_eta: Callable[[np.ndarray], np.ndarray]
    validate: Callable[[np.ndarray], Optional[str]]


def _pois_dev(y, mu, w):
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(y > 0, y * np.log(y / mu), 0.0)
    return float(2.0 * np.sum(w * (t - (y - mu))))


def _logit_dev(y, mu, w):
    eps = 1e-12
    mu = np.clip(mu, eps, 1 - eps)
    return float(-2.0 * np.sum(w * (y * np.log(mu) + (1 - y) * np.log(1 - mu))))


FAMILIES = {
    "poisson": FamilySpec(
        name="poisson",
        linkinv=np.exp,
        mu_eta=np.exp,
        variance=lambda mu: mu,
        deviance=_pois_dev,
        init_eta=lambda y: np.log(y + 0.1),
        validate=lambda y: None if (y >= 0).all() else "Poisson requires y >= 0",
    ),
    "logit": FamilySpec(
        name="logit",
        linkinv=lambda eta: 1.0 / (1.0 + np.exp(-eta)),
        mu_eta=lambda eta: (m := 1.0 / (1.0 + np.exp(-eta))) * (1 - m),
        variance=lambda mu: mu * (1 - mu),
        deviance=_logit_dev,
        init_eta=lambda y: np.log((y + 0.5) / (1.5 - y)),
        validate=lambda y: None if np.isin(y, (0.0, 1.0)).all() else "logit requires y in {0, 1}",
    ),
    "gaussian": FamilySpec(
        name="gaussian",
        linkinv=lambda eta: eta,
        mu_eta=lambda eta: np.ones_like(eta),
        variance=lambda mu: np.ones_like(mu),
        deviance=lambda y, mu, w: float(np.sum(w * (y - mu) ** 2)),
        init_eta=lambda y: y.copy(),
        validate=lambda y: None,
    ),
}


# ---------------------------------------------------------------------------
# Fit bookkeeping
# ---------------------------------------------------------------------------

@dataclass
class DofLedger:
    n_used: int
    k_vars: int
    k_fe: int

    @property
    def df_resid(self) -> int:
        return self.n_used - self.k_vars - self.k_fe

    @property
    def k_total(self) -> int:
        return self.k_vars + self.k_fe


@dataclass
class Convergence:
    demean_iterations: int = 0
    demean_sweeps: int = 0
    demean_converged: bool = True
    irls_iterations: int = 0
    irls_converged: bool = True


@dataclass
class FirstStage:
    endo_name: str
    coef: np.ndarray
    coef_names: list[str]
    xtx_inv: np.ndarray
    scores: np.ndarray
    residuals: np.ndarray
    dof: DofLedger
    instrument_idx: list[int]  # positions of instrument coefficients
    ssr: float
    sst_within: float


@dataclass
class IvDiag:
    endo_names: list[str]
    first_stages: list[FirstStage]
    y_t: np.ndarray            # demeaned dependent
    exog_t: np.ndarray         # demeaned exogenous block (kept stage-2 exog columns)
    exog_names: list[str]
    endo_t: np.ndarray         # demeaned original endogenous block


@dataclass
class FitResult:
    coef: np.ndarray
    coef_names: list[str]
    dropped_collinear: list[str]
    residuals: np.ndarray
    fitted: np.ndarray
    xtx_inv: np.ndarray
    scores: np.ndarray
    dof: DofLedger
    convergence: Convergence
    family: str
    lhs_name: str
    fe_labels: list[str]
    mask: SampleMask
    has_intercept: bool
    ssr: float
    sst: float
    ssr_fe_only: float
    weights_sum: float
    y_mean: float
    deviance: float = float("nan")
    iv_diag: Optional[IvDiag] = None
    model: Optional[fml.ModelSpec] = None
    vcov_requests: list = field(default_factory=list)
    sample_label: str = ""
    # retained internals (used by on-the-fly vcov and fixef recovery)
    _weights: Optional[np.ndarray] = None
    _dims: Optional[list[FeDim]] = None
    _fixef_target: Optional[np.ndarray] = None
    _fixef_parts: Optional[tuple] = None  # (response, [(coef, x column), ...])
    _fixef_weights: Optional[np.ndarray] = None
    _y_response: Optional[np.ndarray] = None
    _score_parts: Optional[tuple] = None  # (demeaned kept columns, weighted residual)

    def coef_map(self) -> dict[str, float]:
        return dict(zip(self.coef_names, self.coef.tolist()))

    def ensure_scores(self) -> np.ndarray:
        """Materialize the per-observation score rows on first use."""
        if self.scores is None:
            if self._score_parts is None:
                raise EstimationError("fit does not retain scores")
            cols, wr = self._score_parts
            mat = np.column_stack(cols) if cols else np.empty((len(wr), 0))
            self.scores = mat * wr[:, None]
        return self.scores


# ---------------------------------------------------------------------------
# Design assembly
# ---------------------------------------------------------------------------

def _term_pool_columns(term) -> list[str]:
    """Pool column names a term reads (virtual names for computed columns)."""
    if isinstance(term, fml.Var):
        return [term.name]
    if isinstance(term, fml.Func):
        return [f"{term.fn}({term.var})"]
    if isinstance(term, fml.LagOp):
        return [f"{term.op}({term.var},{k})" for k in term.offsets]
    if isinstance(term, fml.InteractionI):
        cols = [term.var]
        if term.interact is not None:
            cols.append(term.interact)
        return cols
    raise EstimationError(f"cannot use {fml.format_term(term)} as a concrete term")


def _materialize(ds: Dataset, model: fml.ModelSpec) -> Dataset:
    """Add virtual columns (log/exp transforms, panel shifts) needed by a model."""
    extra: dict[str, NumericColumn] = {}
    terms = list(model.rhs_terms) + [model.lhs]
    if model.iv is not None:
        terms.extend(model.iv.instruments)
    for term in terms:
        if isinstance(term, fml.Func):
            name = f"{term.fn}({term.var})"
            if ds.has_column(name) or name in extra:
                continue
            vals = ds.numeric(term.var)
            with np.errstate(divide="ignore", invalid="ignore"):
                out = np.log(vals) if term.fn == "log" else np.exp(vals)
            out = np.where(np.isfinite(out), out, np.nan)
            extra[name] = NumericColumn(out)
        elif isinstance(term, fml.LagOp):
            needed = [k for k in term.offsets
                      if not ds.has_column(f"{term.op}({term.var},{k})")]
            if not needed:
                continue
            for name, col in panel_shift(ds, None, term.var, term.op, tuple(needed)):
                extra[name] = NumericColumn(col)
    return ds.with_columns(extra) if extra else ds


def role_columns(model: fml.ModelSpec, weights: Optional[str] = None,
                 offset: Optional[str] = None) -> dict[str, list[str]]:
    roles: dict[str, list[str]] = {
        "lhs": _term_pool_columns(model.lhs),
        "rhs": [],
        "fe": [],
        "iv": [],
        "weights": [],
    }
    for term in model.rhs_terms:
        roles["rhs"].extend(_term_pool_columns(term))
    if offset:
        roles["rhs"].append(offset)
    for fe in model.fe_terms:
        roles["fe"].extend(fe.factors)
        roles["fe"].extend(fe.slope_vars)
    if model.iv is not None:
        roles["iv"].extend(model.iv.endo)
        for term in model.iv.instruments:
            roles["iv"].extend(_term_pool_columns(term))
    if weights:
        roles["weights"].append(weights)
    return roles


def _take_rows(values: np.ndarray, mask: SampleMask) -> np.ndarray:
    # full-sample masks return the column itself; treated as read-only downstream
    if mask.n_used == len(values):
        return values
    return values[mask.keep]


def _produced_columns(ds: Dataset, mask: SampleMask, term) -> list[tuple[str, np.ndarray]]:
    keep = mask.keep
    if isinstance(term, (fml.Var, fml.Func)):
        name = _term_pool_columns(term)[0]
        col = ds.column(name)
        if isinstance(col, CategoricalColumn):
            raise EstimationError(
                f"variable {name!r} is categorical; use i({name}) or move it "
                f"to the fixed-effects part")
        return [(name, _take_rows(col.values, mask))]
    if isinstance(term, fml.LagOp):
        return [(name, _take_rows(ds.numeric(name), mask))
                for name in _term_pool_columns(term)]
    if isinstance(term, fml.InteractionI):
        base = ds.column(term.var)
        base_vals = base.values() if isinstance(base, CategoricalColumn) else base.values
        interacting = None
        if term.interact is not None:
            icol = ds.column(term.interact)
            if term.interact_categorical:
                interacting = (icol.values() if isinstance(icol, CategoricalColumn)
                               else icol.values)[keep]
            else:
                if isinstance(icol, CategoricalColumn):
                    raise EstimationError(
                        f"i({term.var}, {term.interact}): interacting variable is "
                        f"categorical; prefix it with i. to interact two categoricals")
                interacting = icol.values[keep]
        return fml.expand_i(term, base_vals[keep], interacting)
    raise EstimationError(f"cannot build columns for {fml.format_term(term)}")


@dataclass
class ModelFrame:
    model: fml.ModelSpec
    mask: SampleMask
    lhs_name: str
    y: np.ndarray
    x_cols: list[np.ndarray]
    x_names: list[str]
    dims: list[FeDim]
    fe_labels: list[str]
    has_intercept: bool
    weights: Optional[np.ndarray] = None
    offset: Optional[np.ndarray] = None
    endo: Optional[np.ndarray] = None
    endo_names: list[str] = field(default_factory=list)
    inst: Optional[np.ndarray] = None
    inst_names: list[str] = field(default_factory=list)
    _X: Optional[np.ndarray] = None

    @property
    def shifted_y(self) -> np.ndarray:
        """The OLS and 2SLS outcome: ``y`` less the offset, if any."""
        return self.y if self.offset is None else self.y - self.offset

    @property
    def X(self) -> np.ndarray:
        if self._X is None:
            n = len(self.y)
            self._X = np.column_stack(self.x_cols) if self.x_cols else np.empty((n, 0))
        return self._X


def build_frame(ds: Dataset, model: fml.ModelSpec,
                weights: Optional[str] = None,
                subset: Optional[np.ndarray] = None,
                split_keep: Optional[np.ndarray] = None,
                offset: Optional[str] = None,
                index_cache: Optional[dict] = None,
                column_cache: Optional[dict] = None) -> ModelFrame:
    pool = _materialize(ds, model)
    roles = role_columns(model, weights=weights, offset=offset)
    mask = build_mask(pool, roles, subset=subset, split_keep=split_keep)
    n = mask.n_used
    if n == 0:
        raise EstimationError("zero usable rows after listwise deletion")
    keep = mask.keep

    def produce(term):
        if column_cache is None:
            return _produced_columns(pool, mask, term)
        key = (mask.signature(), fml.format_term(term))
        got = column_cache.get(key)
        if got is None:
            got = column_cache[key] = _produced_columns(pool, mask, term)
        return got

    lhs_name, y = produce(model.lhs)[0]

    cols: list[tuple[str, np.ndarray]] = []
    for term in model.rhs_terms:
        cols.extend(produce(term))
    has_intercept = len(model.fe_terms) == 0
    names = ["(Intercept)"] if has_intercept else []
    arrays = [np.ones(n)] if has_intercept else []
    for name, arr in cols:
        names.append(name)
        arrays.append(arr)

    dims = []
    fe_labels = []
    for fe in model.fe_terms:
        if index_cache is not None:
            ckey = (mask.signature(), fe.factors)
            idx = index_cache.get(ckey)
            if idx is None:
                idx = index_cache[ckey] = make_factor_index(pool, mask, list(fe.factors))
        else:
            idx = make_factor_index(pool, mask, list(fe.factors))
        slopes = None
        if fe.slope_vars:
            slopes = np.column_stack([_take_rows(pool.numeric(v), mask)
                                      for v in fe.slope_vars])
        label = fml.format_fe_term(fe)
        dims.append(FeDim(index=idx, slopes=slopes, intercept=fe.intercept, label=label))
        fe_labels.append(label)

    w = None
    if weights:
        w = _take_rows(pool.numeric(weights), mask)
        if (w <= 0).any():
            raise EstimationError(f"weights column {weights!r} must be strictly positive")
    off = _take_rows(pool.numeric(offset), mask) if offset else None

    endo = inst = None
    endo_names: list[str] = []
    inst_names: list[str] = []
    if model.iv is not None:
        endo_names = list(model.iv.endo)
        endo = np.column_stack([_take_rows(pool.numeric(e), mask) for e in endo_names])
        icols: list[tuple[str, np.ndarray]] = []
        for term in model.iv.instruments:
            icols.extend(_produced_columns(pool, mask, term))
        inst_names = [nm for nm, _ in icols]
        inst = np.column_stack([arr for _, arr in icols])

    return ModelFrame(model=model, mask=mask, lhs_name=lhs_name, y=y, x_cols=arrays,
                      x_names=names, dims=dims, fe_labels=fe_labels,
                      has_intercept=has_intercept, weights=w, offset=off,
                      endo=endo, endo_names=endo_names, inst=inst, inst_names=inst_names)


# ---------------------------------------------------------------------------
# Weighted LS core with pivoted-Cholesky collinearity pruning
# ---------------------------------------------------------------------------

def pivoted_cholesky_kept(A: np.ndarray, tol: float) -> tuple[list[int], list[int]]:
    """Greedy pivoted Cholesky column selection on a Gram matrix.

    Columns whose residual pivot falls below ``tol * max initial pivot`` are
    dropped.  Returns (kept, dropped) index lists, kept in original order.
    """
    K = A.shape[0]
    if K == 0:
        return [], []
    S = np.array(A, dtype=np.float64, copy=True)
    d = np.diag(S).copy()
    thr = tol * max(d.max(), np.finfo(float).tiny)
    kept: list[int] = []
    alive = np.ones(K, dtype=bool)
    for _ in range(K):
        dv = np.where(alive, d, -np.inf)
        j = int(np.argmax(dv))
        if dv[j] <= thr:
            break
        kept.append(j)
        alive[j] = False
        col = S[:, j].copy()
        piv = col[j]
        upd = np.outer(col, col) / piv
        S -= upd
        d = np.diag(S).copy()
    dropped = [k for k in range(K) if k not in set(kept)]
    return sorted(kept), dropped


def _solve_spd(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve A x = b and return (x, A^-1); Cholesky with QR-style fallback."""
    if A.shape[0] == 0:
        return np.zeros(0), np.zeros((0, 0))
    try:
        c, low = scipy.linalg.cho_factor(A)
        x = scipy.linalg.cho_solve((c, low), b)
        inv = scipy.linalg.cho_solve((c, low), np.eye(A.shape[0]))
        return x, inv
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
        x, *_ = np.linalg.lstsq(A, b, rcond=None)
        inv = np.linalg.pinv(A)
        return x, inv


def _stack_f(cols: list[np.ndarray]) -> np.ndarray:
    """Stack 1-D columns into an F-order matrix (cheap column views later)."""
    n = len(cols[0]) if cols else 0
    out = np.empty((n, len(cols)), order="F")
    for j, c in enumerate(cols):
        out[:, j] = c
    return out


def _wls_solve(Xt: np.ndarray, yt: np.ndarray, w: Optional[np.ndarray],
               names: list[str], collin_tol: float):
    """Weighted normal equations on a demeaned design with collinearity drop."""
    Xw = Xt if w is None else Xt * w[:, None]
    gram = Xt.T @ Xw
    xy = Xw.T @ yt
    kept, dropped = pivoted_cholesky_kept(gram, collin_tol)
    if Xt.shape[1] and not kept:
        raise EstimationError("all regressors are collinear (or zero) after demeaning: "
                              + ", ".join(names))
    sub = np.ix_(kept, kept)
    coef, inv = _solve_spd(gram[sub], xy[kept])
    return kept, dropped, coef, inv


# ---------------------------------------------------------------------------
# OLS
# ---------------------------------------------------------------------------

def _k_fe(dims: list[FeDim], dropped: list) -> int:
    if not dims:
        return 0
    total = sum(d.index.n_groups * d.n_coef_cols for d in dims) - len(dropped)
    n_intercept = sum(1 for d in dims if d.intercept)
    return total - max(0, n_intercept - 1)


def _sst(y, w, centered):
    if w is None:
        ss = float(np.dot(y, y))
        if not centered:
            return ss
        s = float(y.sum())
        return ss - s * s / len(y)
    ss = float(np.einsum("i,i,i->", w, y, y))
    if not centered:
        return ss
    sw = float(w.sum())
    sy = float(np.dot(w, y))
    return ss - sy * sy / sw


def fit_ols(frame_or_model, ds: Optional[Dataset] = None,
            mask_options: Optional[dict] = None,
            weights: Optional[str] = None,
            collin_tol: float = DEFAULT_COLLIN_TOL,
            demean_tol: float = 1e-6,
            demean_max_iter: int = 10_000,
            offset: Optional[str] = None) -> FitResult:
    """OLS / within estimator.  Accepts a prebuilt ModelFrame or (model, ds).

    The fit is a pooled group of one: ``[y - offset] + x`` is demeaned in one
    call and ``finish_ols_group`` solves it, as ``run_multi`` does for groups.
    """
    frame = _as_frame(frame_or_model, ds, weights=weights, offset=offset,
                      **(mask_options or {}))
    problem = DemeanProblem(targets=_stack_f([frame.shifted_y] + frame.x_cols),
                            dims=frame.dims, weights=frame.weights, tol=demean_tol,
                            max_iter=demean_max_iter)
    dres = demean(problem, keep_coefs=False, consume_targets=True)
    if not dres.converged:
        raise EstimationError(
            f"demeaning did not converge within {demean_max_iter} iterations")
    return _finish_ols_one(frame, dres, collin_tol)


def _as_frame(frame_or_model, ds, **kw) -> ModelFrame:
    if isinstance(frame_or_model, ModelFrame):
        return frame_or_model
    model = frame_or_model
    if isinstance(model, str):
        spec = fml.parse_formula(model)
        models = fml.expand_models(spec)
        if len(models) != 1:
            raise EstimationError("formula expands to several models; use run_multi")
        model = models[0]
    return build_frame(ds, model, **kw)


def _finish_ols_one(frame: ModelFrame, dres: DemeanResult,
                    collin_tol: float) -> FitResult:
    """Solve one model whose ``[y - offset] + x`` columns ``dres`` demeaned."""
    sel = (0, list(range(1, len(frame.x_cols) + 1)))
    out = finish_ols_group([frame], [sel], dres.residuals, dres, collin_tol)[0]
    if isinstance(out, Exception):
        raise out
    return out


def finish_ols_group(frames: list[ModelFrame], sel_map: list[tuple[int, list[int]]],
                     R: np.ndarray, dres, collin_tol: float):
    """Solve a pooled group of OLS models from one batched demeaned matrix.

    ``R`` holds the demeaned distinct target columns; ``sel_map`` gives each
    model its (lhs index, rhs indices) into R.  One cross-product of R serves
    every model's normal equations, and models sharing a kept design solve
    their residuals in a single matrix product.  Returns a FitResult or an
    exception per model, aligned with ``frames``.  This is the only code that
    builds an OLS FitResult; a single fit is a group of one.
    """
    base = frames[0]
    w = base.weights
    n = R.shape[0]
    if w is None:
        blas_syrk = scipy.linalg.get_blas_funcs("syrk", (R,))
        G_all = blas_syrk(1.0, R, trans=1)  # upper triangle of R'R
        G_all = G_all + np.triu(G_all, 1).T
    else:
        G_all = R.T @ (R * w[:, None])

    solved: list = [None] * len(frames)
    by_design: dict[tuple, list[int]] = {}
    for m, (frame, (iy, ixs)) in enumerate(zip(frames, sel_map)):
        try:
            gram = G_all[np.ix_(ixs, ixs)]
            xy = G_all[np.asarray(ixs, dtype=np.intp), iy] if ixs else np.zeros(0)
            kept_rel, dropped_rel = pivoted_cholesky_kept(gram, collin_tol)
            if frame.x_names and not kept_rel:
                raise EstimationError(
                    "all regressors are collinear (or zero) after demeaning: "
                    + ", ".join(frame.x_names))
            sub = np.ix_(kept_rel, kept_rel)
            coef, xtx_inv = _solve_spd(gram[sub], xy[kept_rel])
            kept_cols = tuple(ixs[k] for k in kept_rel)
            solved[m] = (iy, kept_rel, dropped_rel, coef, xtx_inv, kept_cols)
            by_design.setdefault(kept_cols, []).append(m)
        except EstimationError as exc:
            solved[m] = exc

    resid: dict[int, np.ndarray] = {}
    for kept_cols, members in by_design.items():
        RES = _stack_f([R[:, solved[m][0]] for m in members])
        if kept_cols:
            Gamma = np.column_stack([solved[m][3] for m in members])
            lo = kept_cols[0]
            if kept_cols == tuple(range(lo, lo + len(kept_cols))):
                X = R[:, lo:lo + len(kept_cols)]  # a view: no n-row copy
            else:
                X = _stack_f([R[:, j] for j in kept_cols])
            # RES -= X Gamma in place, without an n-row temporary
            gemm = scipy.linalg.get_blas_funcs("gemm", (X, Gamma))
            RES = gemm(-1.0, X, Gamma, beta=1.0, c=RES, overwrite_c=True)
        for j, m in enumerate(members):
            resid[m] = np.ascontiguousarray(RES[:, j])

    # a demeaned outcome that no model uses as a regressor is dead now that
    # G_all and the residuals are formed: its column takes one fitted vector
    spare = {iy for iy, _ in sel_map} - {j for _, ixs in sel_map for j in ixs}
    sst_cache: dict[str, float] = {}
    out = []
    for m, (frame, (iy, ixs)) in enumerate(zip(frames, sel_map)):
        if isinstance(solved[m], Exception):
            out.append(solved[m])
            continue
        iy, kept_rel, dropped_rel, coef, xtx_inv, kept_cols = solved[m]
        try:
            dof = DofLedger(n_used=n, k_vars=len(kept_rel),
                            k_fe=_k_fe(frame.dims, dres.dropped))
            if dof.df_resid < 1:
                raise EstimationError(
                    f"no residual degrees of freedom (n={n}, K={dof.k_total})")
            y = frame.shifted_y
            r = resid[m]
            fitted = np.subtract(y, r, out=R[:, iy] if iy in spare else None)
            spare.discard(iy)
            if frame.offset is not None:
                fitted += frame.offset
            wr = r if w is None else w * r
            ssr = float(np.dot(wr, r))
            if frame.lhs_name not in sst_cache:
                sst_cache[frame.lhs_name] = _sst(
                    y, w, centered=frame.has_intercept or bool(frame.dims))
            wsum = float(w.sum()) if w is not None else float(n)
            ymean = float((w * y).sum() / wsum) if w is not None else float(y.mean())
            kept_names = [frame.x_names[k] for k in kept_rel]
            out.append(FitResult(
                coef=coef, coef_names=kept_names,
                dropped_collinear=[frame.x_names[k] for k in dropped_rel],
                residuals=r, fitted=fitted, xtx_inv=xtx_inv, scores=None, dof=dof,
                convergence=Convergence(demean_iterations=dres.iterations,
                                        demean_sweeps=dres.sweeps,
                                        demean_converged=dres.converged),
                family="ols", lhs_name=frame.lhs_name,
                fe_labels=list(frame.fe_labels), mask=frame.mask,
                has_intercept=frame.has_intercept,
                ssr=ssr, sst=sst_cache[frame.lhs_name],
                ssr_fe_only=float(G_all[iy, iy]),
                weights_sum=wsum, y_mean=ymean, model=frame.model,
                _weights=w, _dims=frame.dims,
                _fixef_parts=(y, [(float(c), frame.x_cols[k])
                                  for k, c in zip(kept_rel, coef)])
                if frame.dims else None,
                _fixef_weights=w,
                _y_response=y,
                _score_parts=([R[:, j] for j in kept_cols], wr),
            ))
        except EstimationError as exc:
            out.append(exc)
    return out


# ---------------------------------------------------------------------------
# 2SLS
# ---------------------------------------------------------------------------

def fit_2sls(frame_or_model, ds: Optional[Dataset] = None,
             mask_options: Optional[dict] = None,
             weights: Optional[str] = None,
             collin_tol: float = DEFAULT_COLLIN_TOL,
             demean_tol: float = 1e-6,
             demean_max_iter: int = 10_000,
             offset: Optional[str] = None) -> FitResult:
    frame = _as_frame(frame_or_model, ds, weights=weights, offset=offset,
                      **(mask_options or {}))
    if frame.endo is None:
        raise EstimationError("fit_2sls requires an IV part (endo ~ instruments)")
    n_endo = frame.endo.shape[1]
    n_inst = frame.inst.shape[1]
    if n_inst < n_endo:
        raise EstimationError(
            f"under-identification: {n_endo} endogenous variable(s) but only "
            f"{n_inst} instrument(s)")
    y = frame.shifted_y
    n = len(y)
    w = frame.weights

    targets = _stack_f([y] + frame.x_cols
                       + [frame.endo[:, j] for j in range(n_endo)]
                       + [frame.inst[:, j] for j in range(frame.inst.shape[1])])
    problem = DemeanProblem(targets=targets, dims=frame.dims, weights=w,
                            tol=demean_tol, max_iter=demean_max_iter)
    dres = demean(problem, keep_coefs=False, consume_targets=True)
    if not dres.converged:
        raise EstimationError(
            f"demeaning did not converge within {demean_max_iter} iterations")
    kx = frame.X.shape[1]
    yt = dres.residuals[:, 0]
    Xt = dres.residuals[:, 1:1 + kx]
    Et = dres.residuals[:, 1 + kx:1 + kx + n_endo]
    Zt = dres.residuals[:, 1 + kx + n_endo:]

    k_fe = _k_fe(frame.dims, dres.dropped)

    # first stages
    stage1_design = np.column_stack([Xt, Zt]) if kx else Zt
    stage1_names = frame.x_names + frame.inst_names
    first_stages = []
    fitted_endo = np.empty((n, n_endo))
    for j in range(n_endo):
        ej = Et[:, j]
        kept, dropped_idx, delta, inv1 = _wls_solve(
            stage1_design, ej, w, stage1_names, collin_tol)
        inst_idx = [i for i, k in enumerate(kept) if k >= kx]
        if not inst_idx:
            raise EstimationError(
                f"instruments for {frame.endo_names[j]!r} are collinear with the "
                f"exogenous regressors")
        D1 = stage1_design[:, kept]
        fit1 = D1 @ delta
        v1 = ej - fit1
        fitted_endo[:, j] = fit1
        wr1 = v1 if w is None else w * v1
        dof1 = DofLedger(n_used=n, k_vars=len(kept), k_fe=k_fe)
        first_stages.append(FirstStage(
            endo_name=frame.endo_names[j],
            coef=delta, coef_names=[stage1_names[k] for k in kept],
            xtx_inv=inv1, scores=D1 * wr1[:, None], residuals=v1, dof=dof1,
            instrument_idx=inst_idx,
            ssr=float(np.dot(wr1, v1)),
            sst_within=float(np.dot(ej if w is None else w * ej, ej)),
        ))

    # second stage: y on [fitted endo, exogenous]
    names2 = [f"fit_{e}" for e in frame.endo_names] + frame.x_names
    D2 = np.column_stack([fitted_endo, Xt])
    kept2, dropped2, gamma, inv2 = _wls_solve(D2, yt, w, names2, collin_tol)
    kept_names = [names2[k] for k in kept2]
    dropped_names = [names2[k] for k in dropped2]
    D2k = D2[:, kept2]
    # residuals evaluated at the ORIGINAL endogenous values
    orig = np.column_stack([Et, Xt])
    r = yt - orig[:, kept2] @ gamma
    fitted = y - r + (frame.offset if frame.offset is not None else 0.0)
    wr = r if w is None else w * r
    scores = D2k * wr[:, None]
    dof = DofLedger(n_used=n, k_vars=len(kept2), k_fe=k_fe)
    if dof.df_resid < 1:
        raise EstimationError(f"no residual degrees of freedom (n={n}, K={dof.k_total})")
    ssr = float(np.dot(wr, r))
    sst = _sst(y, w, centered=frame.has_intercept or bool(frame.dims))
    wyt = yt if w is None else w * yt
    wsum = float(w.sum()) if w is not None else float(n)
    ymean = float((w * y).sum() / wsum) if w is not None else float(y.mean())
    exog_kept = [k - n_endo for k in kept2 if k >= n_endo]
    iv_diag = IvDiag(endo_names=list(frame.endo_names), first_stages=first_stages,
                     y_t=yt, exog_t=Xt[:, exog_kept],
                     exog_names=[frame.x_names[k] for k in exog_kept],
                     endo_t=Et)
    return FitResult(
        coef=gamma, coef_names=kept_names, dropped_collinear=dropped_names,
        residuals=r, fitted=fitted, xtx_inv=inv2, scores=scores, dof=dof,
        convergence=Convergence(demean_iterations=dres.iterations,
                                demean_sweeps=dres.sweeps,
                                demean_converged=dres.converged),
        family="2sls", lhs_name=frame.lhs_name, fe_labels=list(frame.fe_labels),
        mask=frame.mask, has_intercept=frame.has_intercept,
        ssr=ssr, sst=sst, ssr_fe_only=float(np.dot(wyt, yt)),
        weights_sum=wsum, y_mean=ymean,
        iv_diag=iv_diag, model=frame.model,
        _weights=w, _dims=frame.dims,
        _fixef_target=(y - np.column_stack([frame.endo, frame.X])[:, kept2] @ gamma)
        if frame.dims else None,
        _fixef_weights=w,
        _y_response=y,
    )


# ---------------------------------------------------------------------------
# GLM via IRLS
# ---------------------------------------------------------------------------

def fit_glm_irls(frame_or_model, ds: Optional[Dataset] = None,
                 family: str = "poisson",
                 mask_options: Optional[dict] = None,
                 weights: Optional[str] = None,
                 collin_tol: float = DEFAULT_COLLIN_TOL,
                 demean_tol: float = 1e-6,
                 demean_max_iter: int = 10_000,
                 glm_tol: float = GLM_TOL,
                 irls_max_iter: int = IRLS_MAX_ITER,
                 offset: Optional[str] = None) -> FitResult:
    frame = _as_frame(frame_or_model, ds, weights=weights, offset=offset,
                      **(mask_options or {}))
    fam = FAMILIES.get(family)
    if fam is None:
        raise EstimationError(f"unknown family {family!r}; choose from "
                              + ", ".join(sorted(FAMILIES)))
    y = frame.y
    bad = fam.validate(y)
    if bad:
        raise EstimationError(f"{bad} (variable {frame.lhs_name!r})")
    n = len(y)
    w_user = frame.weights if frame.weights is not None else np.ones(n)
    off = frame.offset if frame.offset is not None else 0.0
    eta_bound = ETA_BOUND[family]

    eta = fam.init_eta(y)
    mu = fam.linkinv(eta)
    dev = fam.deviance(y, mu, w_user)
    kept = dropped_idx = None
    warm_state = None
    total_demean_iters = 0
    total_sweeps = 0
    demean_converged = True
    converged = False
    Xt = None
    zt = None
    coef = np.zeros(0)
    wtot = w_user

    for it in range(1, irls_max_iter + 1):
        mue = fam.mu_eta(eta)
        var = fam.variance(mu)
        w_work = mue * mue / var
        z = eta + (y - mu) / mue - off
        wtot = w_user * w_work
        targets = _stack_f([z] + frame.x_cols)
        problem = DemeanProblem(targets=targets, dims=frame.dims, weights=wtot,
                                tol=demean_tol, max_iter=demean_max_iter)
        dres = demean(problem, keep_coefs=True, init_state=warm_state,
                      consume_targets=True)
        total_demean_iters += dres.iterations
        total_sweeps += dres.sweeps
        demean_converged = demean_converged and dres.converged
        warm_state = _state_from_coefs(dres)
        zt = dres.residuals[:, 0]
        Xt = dres.residuals[:, 1:]
        if kept is None:
            kept, dropped_idx, coef, _ = _wls_solve(
                Xt, zt, wtot, frame.x_names, collin_tol)
        else:
            Xw = Xt[:, kept] * wtot[:, None]
            gram = Xt[:, kept].T @ Xw
            coef, _ = _solve_spd(gram, Xw.T @ zt)
        resid_work = zt - Xt[:, kept] @ coef
        eta = off + (z - resid_work)
        if not np.all(np.isfinite(eta)):
            raise EstimationError("IRLS diverged: non-finite linear predictor")
        if np.abs(eta).max() > eta_bound:
            raise EstimationError(
                "IRLS diverged: unbounded coefficients (possible separation)")
        mu = fam.linkinv(eta)
        dev_new = fam.deviance(y, mu, w_user)
        if not math.isfinite(dev_new):
            raise EstimationError("IRLS diverged: non-finite deviance")
        if abs(dev_new - dev) <= glm_tol * (abs(dev_new) + 0.1):
            dev = dev_new
            converged = True
            break
        dev = dev_new
    irls_iters = it
    if not converged:
        raise EstimationError(f"IRLS did not converge within {irls_max_iter} iterations")

    kept_names = [frame.x_names[k] for k in kept]
    dropped_names = [frame.x_names[k] for k in dropped_idx]
    Xt_kept = Xt[:, kept]
    Xw = Xt_kept * wtot[:, None]
    gram = Xt_kept.T @ Xw
    coef, xtx_inv = _solve_spd(gram, Xw.T @ zt)
    resid_work = zt - Xt_kept @ coef
    eta = off + (z - resid_work)
    mu = fam.linkinv(eta)
    r = y - mu
    scores = Xt_kept * (w_user * r)[:, None]
    dof = DofLedger(n_used=n, k_vars=len(kept), k_fe=_k_fe(frame.dims, dres.dropped))
    if dof.df_resid < 1:
        raise EstimationError(f"no residual degrees of freedom (n={n}, K={dof.k_total})")
    ssr = float(np.sum(w_user * r * r))
    sst = _sst(y, frame.weights, centered=True)
    wsum = float(w_user.sum())
    return FitResult(
        coef=coef, coef_names=kept_names, dropped_collinear=dropped_names,
        residuals=r, fitted=mu, xtx_inv=xtx_inv, scores=scores, dof=dof,
        convergence=Convergence(demean_iterations=total_demean_iters,
                                demean_sweeps=total_sweeps,
                                demean_converged=demean_converged,
                                irls_iterations=irls_iters, irls_converged=converged),
        family=family, lhs_name=frame.lhs_name, fe_labels=list(frame.fe_labels),
        mask=frame.mask, has_intercept=frame.has_intercept,
        ssr=ssr, sst=sst, ssr_fe_only=float("nan"),
        weights_sum=wsum, y_mean=float((w_user * y).sum() / wsum),
        deviance=dev, model=frame.model,
        _weights=frame.weights, _dims=frame.dims,
        _fixef_target=(z - frame.X[:, kept] @ coef) if frame.dims else None,
        _fixef_weights=wtot,
        _y_response=y,
    )


def _state_from_coefs(dres: DemeanResult) -> Optional[np.ndarray]:
    if dres.fe_coef is None or len(dres.fe_coef) <= 1:
        return None
    T = dres.fe_coef[0].shape[2]
    parts = [c.reshape(-1, T) for c in dres.fe_coef[1:]]
    return np.concatenate(parts, axis=0) if parts else None


# ---------------------------------------------------------------------------
# Dispatcher and fixed-effect recovery
# ---------------------------------------------------------------------------

def fit_model(model, ds: Dataset, family: str = "ols", **kw) -> FitResult:
    """Fit one concrete model with the appropriate estimator."""
    if isinstance(model, str):
        spec = fml.parse_formula(model)
        models = fml.expand_models(spec)
        if len(models) != 1:
            raise EstimationError("formula expands to several models; use run_multi")
        model = models[0]
    if family == "ols":
        if model.iv is not None:
            return fit_2sls(model, ds, **kw)
        return fit_ols(model, ds, **kw)
    if model.iv is not None:
        raise EstimationError("IV estimation is only available for OLS models")
    return fit_glm_irls(model, ds, family=family, **kw)


@dataclass
class FixefSet:
    levels: list[str]         # group display labels
    coef: np.ndarray          # (n_groups, n_coef_cols), intercept column first

    def __getitem__(self, key):
        return self.coef[key]

    @property
    def by_level(self) -> dict[str, np.ndarray]:
        return {lv: self.coef[g] for g, lv in enumerate(self.levels)}


def fixef(fit: FitResult) -> tuple[dict[str, FixefSet], object]:
    """Recover the fixed-effect coefficient sets of a fitted model.

    Returns a map from the fixed-effect label to its coefficient set
    (group labels plus an n_groups x n_coef_cols array), and the
    identification report.
    """
    if not fit._dims:
        raise EstimationError("model has no fixed-effects")
    target = fit._fixef_target
    if target is None and fit._fixef_parts is not None:
        y, terms = fit._fixef_parts
        target = y.copy()
        for c, col in terms:
            target -= c * col
    if target is None:
        raise EstimationError("fit does not retain what fixef recovery needs")
    problem = DemeanProblem(targets=target, dims=fit._dims,
                            weights=fit._fixef_weights)
    res = demean(problem, keep_coefs=True)
    coefs, report = recover_fixef(res, problem, target=0)
    out = {}
    for q, d in enumerate(fit._dims):
        label = d.label or f"fe{q + 1}"
        levels = list(d.index.levels) or [str(g) for g in range(d.index.n_groups)]
        out[label] = FixefSet(levels=levels, coef=coefs[q])
    return out, report
