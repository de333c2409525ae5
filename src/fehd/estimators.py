"""Model fitting: OLS, 2SLS and IRLS-GLM on demeaned data.

The design pipeline materializes virtual columns (logs, panel shifts), applies
listwise deletion, expands ``i()`` terms, and builds the fixed-effect
dimensions.  Each estimator demeans its columns in one batched call and forms
their weighted cross-product (Gram) once; every least-squares solve is then
``solve_gram`` on that Gram, which drops collinear regressors in column
order, by the rule that drops FE slope coefficients (``column_drops``).  By
Frisch-Waugh-Lovell the 2SLS stages are solves on the Gram ``G`` of the
demeaned block ``[y - offset, X, E, Z]`` or on ``T'GT`` for a map ``T`` of the
block; IRLS solves each step on the Gram of ``[z, X]`` under the working
weights, d mu / d eta under the canonical link of Poisson and logit, the IRLS
families.  A gaussian fit is an OLS fit.  Every fit keeps one ``Design``
record, from which inference forms the score rows at each call and ``fixef``
reads the fit's own fixed effects.  ``fit_model`` is the one estimator
dispatch, ``ols_targets`` the one layout of OLS target columns, for single
and pooled fits alike, and ``_fit_result`` the one ``FitResult`` builder.  A
fit stores no fact it can derive: its FE labels are its dimensions' labels,
its residuals are formed from the design record at each read (and its SSR
from them, where its Gram gives none), and OLS and 2SLS fitted values on
first use.  No code writes into a demeaning's residuals once ``demean``
returns, so a pooled fit reads the same block, and forms the same residuals,
as a standalone fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Optional, Union

import numpy as np

from . import formula as fml
from .data import (CategoricalColumn, Dataset, NumericColumn, SampleMask, build_mask,
                   make_factor_index, panel_shift)
from .demean import (DEFAULT_MAX_ITER, DEFAULT_TOL, DemeanProblem, DemeanResult,
                     FactorRecord, FeDim, FeStructure, column_drops, demean,
                     recover_fixef)

__all__ = [
    "EstimationError",
    "FamilySpec",
    "FAMILIES",
    "DofLedger",
    "Convergence",
    "IrlsStep",
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
# An OLS SSR formed from the Gram (y'Wy - coef'X'Wy) keeps about
# -log10(eps / SSR_GRAM_RTOL) = 12 digits when SSR >= SSR_GRAM_RTOL * y'Wy
SSR_GRAM_RTOL = 1e-4
IRLS_MAX_ITER = 200
# the loosest inner demeaning tolerance of an IRLS step (see fit_glm_irls)
INNER_TOL_MAX = 1e-3
# how far from its bound a row held at a bound starts (see _mu_at_bound): far
# enough to stay inside _logit_dev's clip, near enough to beat init_eta
MU_START_RANGE = (1e-10, 0.1)


class EstimationError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# GLM families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilySpec:
    name: str
    linkinv: Callable[[np.ndarray], np.ndarray]
    # d mu / d eta at (eta, mu = linkinv(eta)), reusing mu where it can: under the
    # canonical link, V(mu) and the IRLS working weight (McCullagh and Nelder 1989, 2.5)
    mu_eta: Callable[[np.ndarray, np.ndarray], np.ndarray]
    # (y, user weights) -> the deviance at (eta, mu); what depends on y alone
    # is formed once per fit
    deviance: Callable[[np.ndarray, np.ndarray],
                       Callable[[np.ndarray, np.ndarray], float]]
    init_eta: Callable[[np.ndarray], np.ndarray]
    validate: Callable[[np.ndarray], Optional[str]]
    link: Callable[[np.ndarray], np.ndarray]
    eta_bound: float  # |eta| past which IRLS stops as diverged (possible separation)
    # the ends of the mean's range an outcome can reach: a fixed-effect group
    # whose outcomes all sit at one has its ML effect at -inf or +inf
    bounds: tuple = ()


def _pois_dev(y, w):
    """The Poisson deviance 2 sum w (y log(y / mu) - (y - mu)) without a log
    per step: log mu = eta, so it is 2 sum w y (log y - eta) - 2 sum w (y - mu),
    with log y (0 where y = 0) formed once.  Both sums are grouped so that
    their large parts cancel row by row, not in the totals."""
    with np.errstate(divide="ignore"):
        logy = np.where(y > 0, np.log(y), 0.0)
    wy = w * y

    def dev(eta, mu):
        return 2.0 * float(np.einsum("i,i->", wy, logy - eta)
                           - np.einsum("i,i->", w, y - mu))
    return dev


def _logit_dev(y, w):
    def dev(eta, mu):
        mu = np.clip(mu, 1e-12, 1 - 1e-12)
        return float(-2.0 * np.sum(w * (y * np.log(mu) + (1 - y) * np.log(1 - mu))))
    return dev


FAMILIES = {
    "poisson": FamilySpec(
        name="poisson",
        linkinv=np.exp,
        mu_eta=lambda eta, mu: mu,  # exp' = exp
        deviance=_pois_dev,
        init_eta=lambda y: np.log(y + 0.1),
        validate=lambda y: None if (y >= 0).all() else "Poisson requires y >= 0",
        link=np.log,
        eta_bound=500.0,
        bounds=(0.0,),
    ),
    "logit": FamilySpec(
        name="logit",
        linkinv=lambda eta: 1.0 / (1.0 + np.exp(-eta)),
        mu_eta=lambda eta, mu: mu * (1 - mu),
        deviance=_logit_dev,
        init_eta=lambda y: np.log((y + 0.5) / (1.5 - y)),
        validate=lambda y: None if np.isin(y, (0.0, 1.0)).all() else "logit requires y in {0, 1}",
        link=lambda mu: np.log(mu / (1 - mu)),
        eta_bound=30.0,
        bounds=(0.0, 1.0),
    ),
}
# the families whose dispersion is fixed at 1: their IID variance is the
# bread, their tests are z tests, and their null model keeps the offset
FIXED_DISPERSION = ("poisson", "logit")
_OLS_FAMILIES = ("ols", "gaussian")  # a Gaussian GLM with the identity link is OLS


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


class IrlsStep(NamedTuple):
    deviance: float    # after the step
    demean_tol: float  # of the step's inner demeaning
    sweeps: int        # of the step's inner demeaning


@dataclass
class Convergence:
    demean_sweeps: int = 0
    demean_converged: bool = True
    irls_iterations: int = 0
    irls_converged: bool = True
    # the Schur complement factorization of the demeaning, or its refusal;
    # for IRLS, of the last step that made one (a step after the first
    # switch switches at product 0, and one after a refusal never estimates)
    demean_factor: Optional[FactorRecord] = None
    irls_path: list[IrlsStep] = field(default_factory=list)  # one per IRLS step


@dataclass
class Design:
    """What a fit retains of its design; every estimator fills it the same way.

    ``demeaned`` is the fit's one demeaning: its residuals are ``block``, and
    its ``fe_coef`` the fixed effects each target column lost.  No fit
    writes into ``block``.  The fit's residual is ``block @ resid_map`` (for
    a GLM, the last IRLS step's working residual), so ``fixef()`` reads its
    fixed effects as ``fe_coef @ resid_map``; ``FitResult.residuals`` forms
    it from this record at each read.  ``FitResult.score_rows()`` forms the
    score rows ``D * (weights * r)`` at each call, ``D`` the demeaned kept
    regressors drawn from ``block`` and ``r`` the fit's residual.  Each
    dimension's ``FactorIndex`` also serves as the codes of a cluster, NW
    unit or DK time variable that is the dimension's one factor.
    """
    dims: list[FeDim]                 # the fixed-effect dimensions
    weights: Optional[np.ndarray]     # user weights; None when unweighted
    y: np.ndarray                     # observed outcome
    offset: Optional[np.ndarray]
    demeaned: DemeanResult
    # D = block[:, regressors] for a list of positions, block @ regressors
    # for a (block columns x kept) map
    regressors: Union[list[int], np.ndarray]
    resid_map: np.ndarray             # c: the residual is block @ c
    # OLS: the outcome's block column, the residual being formed as
    # block[:, outcome] - D @ coef; None for 2SLS, its first stages and GLMs
    outcome: Optional[int] = None

    @property
    def block(self) -> np.ndarray:
        """The demeaned columns D and the residual are formed from."""
        return self.demeaned.residuals


@dataclass
class IvDiag:
    """What the IV tests read of a 2SLS fit besides its design record.

    ``gram`` is the weighted cross-product of the fit's ``design.block``, the
    demeaned ``[y - offset, X, E, Z]``; the ``*_cols`` fields are positions
    in that block.
    """
    endo_names: list[str]
    # E_j on [X, Z]: ordinary FitResults, whose residuals (block @ resid_map)
    # and fitted values are formed from the shared block when read
    first_stages: list["FitResult"]
    gram: np.ndarray
    endo_cols: list[int]
    exog_cols: list[int]              # the exogenous columns kept in stage 2
    exog_names: list[str]


@dataclass
class FitResult:
    """One fit, built by ``_fit_result``; what it can derive (FE labels,
    residuals, OLS and 2SLS fitted values) it reads from ``design`` instead
    of storing."""
    coef: np.ndarray                  # of the kept regressors
    coef_names: list[str]
    dropped_collinear: list[str]
    xtx_inv: np.ndarray               # the bread: the kept Gram's inverse
    dof: DofLedger
    convergence: Convergence
    family: str                       # "ols", "gaussian" (OLS), "2sls" or a FAMILIES key
    lhs_name: str
    mask: SampleMask
    ssr: float
    sst: float                        # about the weighted mean
    ssr_fe_only: float                # of the demeaned outcome; NaN for a GLM
    design: Design
    deviance: float = float("nan")
    iv_diag: Optional[IvDiag] = None
    sample_label: str = ""            # the split sample; "" for all rows
    _fitted: Optional[np.ndarray] = None  # see fitted

    @property
    def fe_labels(self) -> list[str]:  # the FE terms as written, one per dimension
        return [d.label for d in self.design.dims]

    @property
    def residuals(self) -> np.ndarray:
        """The residuals, formed from ``design`` at each read: ``y - fitted``
        for a GLM, ``block[:, outcome] - D @ coef`` for OLS, and ``block @
        resid_map`` for 2SLS and its first stages."""
        d = self.design
        if self.family in FAMILIES:
            return d.y - self._fitted
        if d.outcome is None:
            return d.block @ d.resid_map
        return d.block[:, d.outcome] - d.block[:, d.regressors] @ self.coef

    @property
    def fitted(self) -> np.ndarray:
        """Fitted values.  A GLM fit stores them; OLS and 2SLS fits, first
        stages included, form ``(y - offset) - residuals + offset`` from
        their design on first use."""
        if self._fitted is None:
            d = self.design
            y = d.y if d.offset is None else d.y - d.offset
            self._fitted = np.subtract(y, self.residuals)
            if d.offset is not None:
                self._fitted += d.offset
        return self._fitted

    def score_rows(self) -> np.ndarray:
        """The per-observation score rows, (n_used, K), formed anew at each
        call: a fit keeps none."""
        cols = list(self._score_columns())
        return np.column_stack(cols) if cols else np.empty((len(self.design.y), 0))

    def _score_columns(self) -> Iterator[np.ndarray]:
        """The columns of ``score_rows()``, D[:, k] * (weights * r), each
        formed as it is read; a 2SLS map forms D whole first."""
        d = self.design
        r = self.residuals
        wr = r if d.weights is None else d.weights * r
        if isinstance(d.regressors, np.ndarray):
            D, cols = d.block @ d.regressors, range(d.regressors.shape[1])
        else:
            D, cols = d.block, d.regressors
        for j in cols:
            yield D[:, j] * wr


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


def _computed_terms(model: fml.ModelSpec) -> list:
    """The model's log/exp transforms and panel shifts (Func and LagOp terms)."""
    terms = list(model.rhs_terms) + [model.lhs]
    if model.iv is not None:
        terms.extend(model.iv.instruments)
    return [t for t in terms if isinstance(t, (fml.Func, fml.LagOp))]


def _materialize(ds: Dataset, model: fml.ModelSpec) -> Dataset:
    """Add virtual columns (log/exp transforms, panel shifts) needed by a model."""
    extra: dict[str, NumericColumn] = {}
    for term in _computed_terms(model):
        if isinstance(term, fml.Func):
            name = f"{term.fn}({term.var})"
            if ds.has_column(name) or name in extra:
                continue
            vals = ds.numeric(term.var)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                out = np.log(vals) if term.fn == "log" else np.exp(vals)
            extra[name] = NumericColumn(out)  # +-inf results count as missing
        elif isinstance(term, fml.LagOp):
            needed = [k for k in term.offsets
                      if not ds.has_column(f"{term.op}({term.var},{k})")]
            if not needed:
                continue
            for name, col in panel_shift(ds, term.var, term.op, tuple(needed)):
                extra[name] = NumericColumn(col)
    return ds.with_columns(extra) if extra else ds


def model_columns(model: fml.ModelSpec, weights: Optional[str] = None,
                  offset: Optional[str] = None) -> tuple[set[str], set[str]]:
    """(variables, computed names) a model reads from a dataset.

    The variables are every role's columns (see ``role_columns``) and the
    inputs of its computed terms; the computed names are those terms' column
    names, such as ``log(x)``, which a dataset column of that name overrides
    (see ``_materialize``).
    """
    computed: set[str] = set()
    raw: set[str] = set()
    for cols in role_columns(model, weights, offset).values():
        raw.update(cols)
    for term in _computed_terms(model):
        raw.add(term.var)
        computed.update(_term_pool_columns(term))
    return raw - computed, computed


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


def _produced_columns(ds: Dataset, mask: SampleMask, term) -> list[tuple[str, np.ndarray]]:
    if isinstance(term, (fml.Var, fml.Func)):
        name = _term_pool_columns(term)[0]
        col = ds.column(name)
        if isinstance(col, CategoricalColumn):
            raise EstimationError(
                f"variable {name!r} is categorical; use i({name}) or move it "
                f"to the fixed-effects part")
        return [(name, mask.take(col.values))]
    if isinstance(term, fml.LagOp):
        return [(name, mask.take(ds.numeric(name)))
                for name in _term_pool_columns(term)]
    if isinstance(term, fml.InteractionI):
        base = ds.column(term.var)
        base_vals = base.values() if isinstance(base, CategoricalColumn) else base.values
        interacting = None
        if term.interact is not None:
            icol = ds.column(term.interact)
            if term.interact_categorical:
                interacting = mask.take(icol.values() if isinstance(icol, CategoricalColumn)
                                        else icol.values)
            else:
                if isinstance(icol, CategoricalColumn):
                    raise EstimationError(
                        f"i({term.var}, {term.interact}): interacting variable is "
                        f"categorical; prefix it with i. to interact two categoricals")
                interacting = mask.take(icol.values)
        return fml.expand_i(term, mask.take(base_vals), interacting)
    raise EstimationError(f"cannot build columns for {fml.format_term(term)}")


@dataclass
class ModelFrame:
    """One model's columns on its estimation sample."""
    mask: SampleMask
    lhs_name: str
    y: np.ndarray
    x_cols: list[np.ndarray]          # without FE, the intercept's ones first
    x_names: list[str]
    dims: list[FeDim]                 # their labels are the FE terms as written
    weights: Optional[np.ndarray] = None
    offset: Optional[np.ndarray] = None
    endo: list[np.ndarray] = field(default_factory=list)  # empty without an IV part
    endo_names: list[str] = field(default_factory=list)
    inst: list[np.ndarray] = field(default_factory=list)
    inst_names: list[str] = field(default_factory=list)

    @property
    def shifted_y(self) -> np.ndarray:
        """The OLS and 2SLS outcome: ``y`` less the offset, if any."""
        return self.y if self.offset is None else self.y - self.offset


def build_frame(ds: Dataset, model: fml.ModelSpec,
                weights: Optional[str] = None,
                subset: Optional[np.ndarray] = None,
                split_keep: Optional[np.ndarray] = None,
                offset: Optional[str] = None,
                cache: Optional[dict] = None) -> ModelFrame:
    """The design of one model on its estimation sample.  ``cache`` shares
    produced columns and factor indexes between the frames of one dataset."""
    pool = _materialize(ds, model)
    roles = role_columns(model, weights=weights, offset=offset)
    mask = build_mask(pool, roles, subset=subset, split_keep=split_keep)
    n = mask.n_used
    if n == 0:
        raise EstimationError("zero usable rows after listwise deletion")

    def cached(key, make):
        if cache is None:
            return make()
        key = (mask.signature(), key)
        got = cache.get(key)
        if got is None:
            got = cache[key] = make()
        return got

    def produce(term):
        return cached(fml.format_term(term), lambda: _produced_columns(pool, mask, term))

    lhs_name, y = produce(model.lhs)[0]

    cols = [] if model.fe_terms else [("(Intercept)", np.ones(n))]
    for term in model.rhs_terms:
        cols.extend(produce(term))

    dims = []
    for fe in model.fe_terms:
        idx = cached(fe.factors, lambda: make_factor_index(pool, mask, list(fe.factors)))
        slopes = None
        if fe.slope_vars:
            slopes = np.column_stack([mask.take(pool.numeric(v))
                                      for v in fe.slope_vars])
        dims.append(FeDim(index=idx, slopes=slopes, intercept=fe.intercept,
                          label=fml.format_fe_term(fe)))

    w = None
    if weights:
        w = mask.take(pool.numeric(weights))
        if (w <= 0).any():
            raise EstimationError(f"weights column {weights!r} must be strictly positive")
    off = mask.take(pool.numeric(offset)) if offset else None

    endo_names = list(model.iv.endo) if model.iv is not None else []
    icols = [c for term in (model.iv.instruments if model.iv is not None else ())
             for c in produce(term)]
    return ModelFrame(mask=mask, lhs_name=lhs_name, y=y, x_cols=[arr for _, arr in cols],
                      x_names=[nm for nm, _ in cols], dims=dims, weights=w, offset=off,
                      endo=[mask.take(pool.numeric(e)) for e in endo_names],
                      endo_names=endo_names, inst=[arr for _, arr in icols],
                      inst_names=[nm for nm, _ in icols])


# ---------------------------------------------------------------------------
# Weighted LS core with column-order collinearity pruning
# ---------------------------------------------------------------------------

def _collin_scale(dres: DemeanResult, w: Optional[np.ndarray]) -> np.ndarray:
    """Each column's weighted sum of squares about its mean before demeaning,
    from its (floored) demeaning scale; zeros without fixed effects."""
    if dres.scale is None:
        return np.zeros(dres.residuals.shape[1])
    return (len(dres.residuals) if w is None else float(w.sum())) * dres.scale ** 2


def _solve_spd(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve A x = b and return (x, A^-1) through the Cholesky factor A = LL'.

    With L^-1 in hand, A^-1 = L^-T L^-1 (exactly symmetric: numpy forms the
    product with syrk) and x = L^-T (L^-1 b).  A Gram that is not positive
    definite, singular or indefinite, makes ``cholesky`` raise and falls
    back to least squares and the pseudo-inverse.
    """
    if A.shape[0] == 0:
        return np.zeros(0), np.zeros((0, 0))
    try:
        Linv = np.linalg.inv(np.linalg.cholesky(A))
    except np.linalg.LinAlgError:
        x, *_ = np.linalg.lstsq(A, b, rcond=None)
        return x, np.linalg.pinv(A)
    return Linv.T @ (Linv @ b), Linv.T @ Linv


def _gram(R: np.ndarray, w: Optional[np.ndarray]) -> np.ndarray:
    """The weighted cross-product R'WR of an F-order matrix.

    Unweighted, numpy sees ``R.T @ R`` as one operand times its own
    transpose and calls BLAS syrk: half the multiply-adds of a gemm, and an
    exactly symmetric result.
    """
    if w is None:
        return R.T @ R
    return R.T @ (R * w[:, None])


def _wssr(r: np.ndarray, w: Optional[np.ndarray]) -> float:
    # einsum, not np.dot: on 2 cores a two-thread OpenBLAS dot of two 1e6-row
    # vectors takes about 8 ms, einsum's single pass 0.5 ms
    wr = r if w is None else w * r
    return float(np.einsum("i,i->", wr, r))


class GramSolve(NamedTuple):
    kept: list[int]        # positions in ``ixs`` of the kept regressors
    dropped: list[int]
    coef: np.ndarray       # aligned with ``kept``
    xtx_inv: np.ndarray    # inverse of the kept sub-Gram: the bread
    ssr: Optional[float]   # y'Wy - coef'X'Wy; None where it keeps too few digits


def solve_gram(G: np.ndarray, iy: int, ixs, collin_tol: float,
               names: list[str], kept: Optional[list[int]] = None,
               scale: Optional[np.ndarray] = None) -> GramSolve:
    """Weighted least squares of column ``iy`` on columns ``ixs`` of a Gram.

    ``G`` is the weighted cross-product of demeaned columns (or of a linear
    map of them, ``T'GT``).  Unless ``kept`` fixes the kept positions, the
    regressors are eliminated in column order and one is dropped once its
    residual pivot is at most ``collin_tol`` relative to its own scale
    (``demean.column_drops``): the larger of its diagonal in the Gram and
    ``scale`` (aligned with ``ixs``), its ``_collin_scale``, the sum of
    squares before demeaning, so that a column the fixed effects absorb, a
    constant among them, is dropped too.  Units decide no drop, and of two
    collinear regressors the later one is dropped.  Every least-squares
    solve in fehd goes through here.
    """
    gram = G[np.ix_(ixs, ixs)]
    xy = G[np.asarray(ixs, dtype=np.intp), iy] if ixs else np.zeros(0)
    if kept is None:
        drop = column_drops(gram[None], collin_tol,
                            None if scale is None else scale[None])[0]
        kept, dropped = np.flatnonzero(~drop).tolist(), np.flatnonzero(drop).tolist()
        if ixs and not kept:
            raise EstimationError("all regressors are collinear (or zero) after "
                                  "demeaning: " + ", ".join(names))
    else:
        dropped = [k for k in range(len(ixs)) if k not in kept]
    sub = np.ix_(kept, kept)
    coef, xtx_inv = _solve_spd(gram[sub], xy[kept])
    # r'Wr = y'Wy - coef'X'Wy at the solution of the normal equations; when
    # the fit leaves little of y the difference has lost too many digits
    ssr = float(G[iy, iy] - np.dot(xy[kept], coef))
    return GramSolve(kept, dropped, coef, xtx_inv,
                     ssr if ssr > SSR_GRAM_RTOL * G[iy, iy] else None)


# ---------------------------------------------------------------------------
# OLS
# ---------------------------------------------------------------------------

def _check_tol(name: str, value: float, zero_ok: bool = False) -> None:
    """A tolerance is finite and > 0 (>= 0 where ``zero_ok``): NaN or inf
    would change what a fit computes without a word."""
    if not (0 <= value if zero_ok else 0 < value) or not math.isfinite(value):
        raise EstimationError(f"{name} must be finite and {'>=' if zero_ok else '>'} 0, "
                              f"got {value!r}")


def _k_fe(dims: list[FeDim], dropped: list) -> int:
    if not dims:
        return 0
    total = sum(d.index.n_groups * d.n_coef_cols for d in dims) - len(dropped)
    n_intercept = sum(1 for d in dims if d.intercept)
    return total - max(0, n_intercept - 1)


def _dof(n: int, k_vars: int, k_fe: int) -> DofLedger:
    dof = DofLedger(n_used=n, k_vars=k_vars, k_fe=k_fe)
    if dof.df_resid < 1:
        raise EstimationError(f"no residual degrees of freedom (n={n}, K={dof.k_total})")
    return dof


def _demean_converged(problem: DemeanProblem, **kw) -> DemeanResult:
    dres = demean(problem, **kw)
    if not dres.converged:
        raise EstimationError(
            f"demeaning did not converge within {problem.max_iter} iterations")
    return dres


def _sst(y, w) -> float:
    """Total sum of squares of y about its weighted mean."""
    if w is None:
        sw = float(len(y))
        sy = float(y.sum())
        ss = float(np.einsum("i,i->", y, y))
    else:
        sw = float(w.sum())
        sy = float(np.einsum("i,i->", w, y))
        ss = float(np.einsum("i,i,i->", w, y, y))
    return ss - sy * sy / sw


def _fit_result(frame: ModelFrame, sol: GramSolve, names: list[str],
                dres: DemeanResult, regressors: Union[list[int], np.ndarray],
                resid_map: np.ndarray, outcome: Optional[int] = None,
                y: Optional[np.ndarray] = None,
                convergence: Optional[Convergence] = None,
                ssr: Optional[float] = None, **kw) -> FitResult:
    """The one FitResult builder: fills what comes from the frame, the solve
    (of regressors ``names``) and the demeaning ``dres``; ``kw`` holds the
    rest.  ``outcome`` is ``Design.outcome``.  ``y`` replaces the frame's
    outcome and offset, as a first stage's endogenous column does.  Without
    an ``ssr`` the fit's SSR is summed over its residuals' rows."""
    if convergence is None:
        convergence = Convergence(demean_sweeps=dres.sweeps, demean_converged=dres.converged,
                                  demean_factor=dres.factor)
    design = Design(dims=frame.dims, weights=frame.weights,
                    y=frame.y if y is None else y,
                    offset=frame.offset if y is None else None,
                    demeaned=dres, regressors=regressors, resid_map=resid_map,
                    outcome=outcome)
    fit = FitResult(coef=sol.coef, coef_names=[names[k] for k in sol.kept],
                    dropped_collinear=[names[k] for k in sol.dropped],
                    xtx_inv=sol.xtx_inv, convergence=convergence, mask=frame.mask,
                    design=design, ssr=ssr, **kw)
    if ssr is None:
        fit.ssr = _wssr(fit.residuals, frame.weights)
    return fit


def fit_ols(frame_or_model, ds: Optional[Dataset] = None,
            weights: Optional[str] = None,
            collin_tol: float = DEFAULT_COLLIN_TOL,
            demean_tol: float = DEFAULT_TOL,
            demean_max_iter: int = DEFAULT_MAX_ITER,
            offset: Optional[str] = None) -> FitResult:
    """OLS / within estimator.  Accepts a prebuilt ModelFrame or (model, ds).

    The fit takes the pooled layout of ``ols_targets`` as a group of one and
    ``finish_ols_group`` solves it, as ``run_multi`` does for its groups.
    """
    frame = _as_frame(frame_or_model, ds, weights=weights, offset=offset)
    problem, sel_map = ols_targets([frame], demean_tol, demean_max_iter)
    dres = _demean_converged(problem)
    fit = finish_ols_group([frame], sel_map, dres, collin_tol)[0]
    if isinstance(fit, Exception):
        raise fit
    return fit


def _as_frame(frame_or_model, ds, **kw) -> ModelFrame:
    """The frame of one model; the only place a formula becomes a single model.

    A prebuilt frame already holds its weights and offset, so passing either
    with it is an error rather than silently ignored.
    """
    if isinstance(frame_or_model, ModelFrame):
        given = [k for k in ("weights", "offset") if kw.get(k) is not None]
        if given:
            raise EstimationError(f"{' and '.join(given)} cannot be given with a "
                                  f"prebuilt ModelFrame; pass them to build_frame")
        return frame_or_model
    model = frame_or_model
    if isinstance(model, str):
        models = fml.expand_models(fml.parse_formula(model))
        if len(models) != 1:
            raise EstimationError("formula expands to several models; use run_multi")
        model = models[0]
    return build_frame(ds, model, **kw)


def ols_targets(frames: list[ModelFrame], tol: float = DEFAULT_TOL,
                max_iter: int = DEFAULT_MAX_ITER
                ) -> tuple[DemeanProblem, list[tuple[int, list[int]]]]:
    """Lay out the OLS target columns of frames that share a mask and FE dims.

    This is the one OLS layout, for a single fit and a pooled group alike.
    The outcomes, less the offset, come first, each once and in model order,
    so that models sharing a design have their outcome columns side by side.
    The regressors follow, each once by name.  An outcome less an offset is
    keyed apart from the same column used as a regressor; an outcome without
    one is the column of that name.  Returns the demeaning problem of the
    columns and each model's (outcome index, regressor indices) into them.
    """
    col_of: dict = {}
    columns: list[np.ndarray] = []
    lhs_keys = [fr.lhs_name if fr.offset is None else (fr.lhs_name, "offset")
                for fr in frames]
    for key, fr in zip(lhs_keys, frames):
        if key not in col_of:
            col_of[key] = len(columns)
            columns.append(fr.shifted_y)
    for fr in frames:
        for nm, arr in zip(fr.x_names, fr.x_cols):
            if nm not in col_of:
                col_of[nm] = len(columns)
                columns.append(arr)
    sel_map = [(col_of[key], [col_of[nm] for nm in fr.x_names])
               for key, fr in zip(lhs_keys, frames)]
    base = frames[0]
    problem = DemeanProblem(targets=columns, dims=base.dims,
                            weights=base.weights, tol=tol, max_iter=max_iter)
    return problem, sel_map


def finish_ols_group(frames: list[ModelFrame], sel_map: list[tuple[int, list[int]]],
                     dres: DemeanResult, collin_tol: float):
    """Solve a pooled group of OLS models from one batched demeaning.

    Its residuals R hold the demeaned distinct target columns; ``sel_map``
    gives each model its (lhs index, rhs indices) into R.  One cross-product
    of R serves every model's normal equations.  R is only read: each fit
    forms its residuals from it when they are read (``FitResult.residuals``),
    and only an SSR that the Gram leaves with too few digits is summed over
    the rows here.  Returns a FitResult or an exception per model, aligned
    with ``frames``.  This is the only code that builds an OLS FitResult; a
    single fit is a group of one.
    """
    _check_tol("collin_tol", collin_tol, zero_ok=True)
    w = frames[0].weights
    R = dres.residuals
    n, p = R.shape
    G_all = _gram(R, w)
    scale = _collin_scale(dres, w)
    sst_cache: dict[str, float] = {}
    out = []
    for frame, (iy, ixs) in zip(frames, sel_map):
        try:
            sol = solve_gram(G_all, iy, ixs, collin_tol, frame.x_names, scale=scale[ixs])
            dof = _dof(n, len(sol.kept), _k_fe(frame.dims, dres.dropped))
        except EstimationError as exc:
            out.append(exc)
            continue
        kept_cols = [ixs[k] for k in sol.kept]
        c = np.zeros(p)
        c[iy] = 1.0
        c[kept_cols] -= sol.coef
        if frame.lhs_name not in sst_cache:
            sst_cache[frame.lhs_name] = _sst(frame.shifted_y, w)
        fit = _fit_result(
            frame, sol, frame.x_names, dres, kept_cols, c, outcome=iy, dof=dof,
            family="ols", lhs_name=frame.lhs_name, ssr=sol.ssr,
            sst=sst_cache[frame.lhs_name], ssr_fe_only=float(G_all[iy, iy]))
        out.append(fit)
    return out


# ---------------------------------------------------------------------------
# 2SLS
# ---------------------------------------------------------------------------

def fit_2sls(frame_or_model, ds: Optional[Dataset] = None,
             weights: Optional[str] = None,
             collin_tol: float = DEFAULT_COLLIN_TOL,
             demean_tol: float = DEFAULT_TOL,
             demean_max_iter: int = DEFAULT_MAX_ITER,
             offset: Optional[str] = None) -> FitResult:
    _check_tol("collin_tol", collin_tol, zero_ok=True)
    frame = _as_frame(frame_or_model, ds, weights=weights, offset=offset)
    if not frame.endo:
        raise EstimationError("fit_2sls requires an IV part (endo ~ instruments)")
    n_endo = len(frame.endo)
    n_inst = len(frame.inst)
    if n_inst < n_endo:
        raise EstimationError(
            f"under-identification: {n_endo} endogenous variable(s) but only "
            f"{n_inst} instrument(s)")
    y = frame.shifted_y
    n = len(y)
    w = frame.weights
    kx = len(frame.x_cols)

    # the block [y - offset, X, E, Z]; every stage is a solve on its Gram
    cols = [y] + frame.x_cols + frame.endo + frame.inst
    problem = DemeanProblem(targets=cols, dims=frame.dims, weights=w,
                            tol=demean_tol, max_iter=demean_max_iter)
    dres = _demean_converged(problem)
    R = dres.residuals
    G = _gram(R, w)
    p = R.shape[1]
    x_pos = list(range(1, 1 + kx))
    endo_pos = list(range(1 + kx, 1 + kx + n_endo))
    stage1 = x_pos + list(range(1 + kx + n_endo, p))
    stage1_names = frame.x_names + frame.inst_names
    scale = _collin_scale(dres, w)
    k_fe = _k_fe(frame.dims, dres.dropped)

    # first stages: E_j on [X, Z]; E_hat_j = R @ first_map[:, j]
    first_map = np.zeros((p, n_endo))
    first_stages = []
    for j, ie in enumerate(endo_pos):
        sol = solve_gram(G, ie, stage1, collin_tol, stage1_names,
                         scale=scale[stage1])
        if all(k < kx for k in sol.kept):
            raise EstimationError(
                f"instruments for {frame.endo_names[j]!r} are collinear with the "
                f"exogenous regressors")
        kept_pos = [stage1[k] for k in sol.kept]
        first_map[kept_pos, j] = sol.coef
        resid_map = -first_map[:, j]
        resid_map[ie] = 1.0
        first_stages.append(_fit_result(
            frame, sol, stage1_names, dres, kept_pos, resid_map, y=cols[ie],
            dof=DofLedger(n_used=n, k_vars=len(sol.kept), k_fe=k_fe),
            family="ols", lhs_name=frame.endo_names[j],
            ssr=sol.ssr, sst=float(G[ie, ie]), ssr_fe_only=float(G[ie, ie])))

    # second stage: y on [E_hat, X] = R @ T[:, 1:], solved from T'GT
    names2 = [f"fit_{e}" for e in frame.endo_names] + frame.x_names
    T = np.zeros((p, 1 + n_endo + kx))
    T[0, 0] = 1.0
    T[:, 1:1 + n_endo] = first_map
    T[x_pos, range(1 + n_endo, 1 + n_endo + kx)] = 1.0
    # a fitted endogenous is measured against its endogenous before demeaning
    sol = solve_gram(T.T @ G @ T, 0, range(1, 1 + n_endo + kx), collin_tol, names2,
                     scale=scale[endo_pos + x_pos])
    # residuals at the ORIGINAL endogenous values, in one n-row product
    orig_pos = [(endo_pos + x_pos)[k] for k in sol.kept]
    c = np.zeros(p)
    c[0] = 1.0
    c[orig_pos] = -sol.coef
    dof = _dof(n, len(sol.kept), k_fe)
    exog_kept = [k - n_endo for k in sol.kept if k >= n_endo]
    iv_diag = IvDiag(endo_names=list(frame.endo_names), first_stages=first_stages,
                     gram=G, endo_cols=endo_pos,
                     exog_cols=[x_pos[k] for k in exog_kept],
                     exog_names=[frame.x_names[k] for k in exog_kept])
    return _fit_result(
        frame, sol, names2, dres, T[:, [1 + k for k in sol.kept]], c,
        dof=dof, family="2sls", lhs_name=frame.lhs_name,
        sst=_sst(y, w), ssr_fe_only=float(G[0, 0]), iv_diag=iv_diag)


# ---------------------------------------------------------------------------
# GLM via IRLS
# ---------------------------------------------------------------------------

def _rows_at_bound(y: np.ndarray, dims: list[FeDim], bounds: tuple) -> Optional[np.ndarray]:
    """The rows IRLS starts at a bound of the family's mean (a Poisson count
    of 0, a logit outcome of 0 or 1): those of every group, in a dimension
    with an intercept, whose rows not yet marked all sit at one of
    ``bounds``; None when there are none.  Such a group's ML effect lies at
    -inf or +inf.  Marking rows at one bound can leave a group whose other
    rows all sit at the other, so marking repeats until it finds no group;
    with one bound the first pass is final.  Weights are positive, so a group
    sits at bound b when its sum of |y - b| over the unmarked rows is 0."""
    dims = [d for d in dims if d.intercept]
    keep = np.ones(len(y))  # 0.0 on the marked rows
    while True:
        found = np.zeros(len(y), dtype=bool)
        for d in dims:
            g, G = d.index.group_of_row, d.index.n_groups
            live = np.bincount(g, weights=keep, minlength=G) > 0
            for b in bounds:
                at = live & (np.bincount(g, weights=np.abs(y - b) * keep, minlength=G) == 0)
                found |= at[g]
        found &= keep > 0
        if not found.any():
            break
        keep[found] = 0.0
        if len(bounds) == 1:
            break
    return None if keep.all() else keep == 0


def _mu_at_bound(y: np.ndarray, w: np.ndarray, dev: float, glm_tol: float) -> np.ndarray:
    """The means at which IRLS starts and holds the rows whose groups sit at
    a bound (``y`` and ``w`` are those rows'; see ``_rows_at_bound``).

    Their groups' ML effects lie at -inf or +inf.  Left to IRLS from
    ``init_eta``, each step would move them by about one, and the fit would
    spend its last steps on their shrinking deviance.  Instead they start at
    ``mu_s`` from their bound, chosen so that their whole deviance, about
    ``2 mu_s sum w``, is a tenth of what the stopping rule resolves at the
    start's deviance ``dev``.  Every step then holds them: their working
    weights are those of ``mu_s``, and their working response is ``eta``
    itself (y - mu taken as 0), so they pull on no coefficient.  The fixed
    point solves the score equations of the other rows alone, those of the
    fit on the sample without them, with nobs and df kept; and a row in
    several such groups, whose ``eta`` sums their effects, never gets a
    working weight that rounds to 0.
    """
    mu_s = 0.1 * glm_tol * (abs(dev) + 0.1) / (2.0 * float(w.sum()))
    mu_s = min(max(mu_s, MU_START_RANGE[0]), MU_START_RANGE[1])
    return np.where(y == 0, mu_s, y - mu_s)


def fit_glm_irls(frame_or_model, ds: Optional[Dataset] = None,
                 family: str = "poisson",
                 weights: Optional[str] = None,
                 collin_tol: float = DEFAULT_COLLIN_TOL,
                 demean_tol: float = DEFAULT_TOL,
                 demean_max_iter: int = DEFAULT_MAX_ITER,
                 glm_tol: float = GLM_TOL,
                 irls_max_iter: int = IRLS_MAX_ITER,
                 offset: Optional[str] = None) -> FitResult:
    """GLM by iteratively reweighted least squares on the demeaned ``[z, X]``.

    ``family`` is a ``FAMILIES`` key (not gaussian, which ``fit_model``
    fits as OLS).  The fit stops once a step moves the deviance by at most
    ``glm_tol * (|deviance| + 0.1)``.  With two or more FE dimensions the
    inner demeaning follows a tolerance schedule (Correia, Guimaraes and
    Zylkin 2020).  Step 1 runs at ``demean_tol``, since it decides
    collinearity.  Each later step runs at ``max(demean_tol,
    min(INNER_TOL_MAX, 0.1 * |d dev| / (|dev| + 0.1)))``, where ``d dev``
    and ``dev`` are the deviance move and deviance of the step before, and
    from step 2 on never looser than the step before.  The fit stops only
    on a step demeaned at ``demean_tol``: a step that meets the stopping
    rule at a looser tolerance is followed by one at ``demean_tol``.  So
    ``demean_tol`` (``--demean-tol``) is the tolerance of the first and of
    the last step.  With fewer dimensions the demeaning is exact and every
    step runs at ``demean_tol``.  Every step refills the cross-tables of
    one ``FeStructure`` and starts from the FE coefficients the step before
    ended at.  ``Convergence.irls_path`` records each step's deviance, inner
    tolerance and sweeps.  Rows of fixed-effect groups whose outcomes all
    sit at a bound of the mean (``_rows_at_bound``) stay in the sample but
    start and stay next to it (``_mu_at_bound``), so the coefficients are
    those of the fit without them.  A fit with no other row is an error.
    """
    _check_tol("collin_tol", collin_tol, zero_ok=True)
    _check_tol("glm_tol", glm_tol)
    if irls_max_iter < 1:
        raise EstimationError(f"irls_max_iter must be >= 1, got {irls_max_iter!r}")
    frame = _as_frame(frame_or_model, ds, weights=weights, offset=offset)
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
    deviance = fam.deviance(y, w_user)
    structure = FeStructure(frame.dims)
    schedule = len(frame.dims) > 1

    eta = fam.init_eta(y)
    mu = fam.linkinv(eta)
    dev = deviance(eta, mu)
    at_bound = _rows_at_bound(y, frame.dims, fam.bounds)
    if at_bound is not None:
        if at_bound.all():
            raise EstimationError(
                f"every observation is in a fixed-effect group whose {frame.lhs_name!r} "
                f"is all " + " or all ".join(f"{b:g}" for b in fam.bounds)
                + ": nothing is left to identify the coefficients")
        mu_held = _mu_at_bound(y[at_bound], w_user[at_bound], dev, glm_tol)
        eta[at_bound] = fam.link(mu_held)
        mu = fam.linkinv(eta)
        dev = deviance(eta, mu)
    sol = None
    factor = None
    converged = False
    path: list[IrlsStep] = []
    tol = demean_tol

    for it in range(1, irls_max_iter + 1):
        if at_bound is not None:  # rows at a bound are held (see _mu_at_bound)
            mu[at_bound] = mu_held
        w_work = fam.mu_eta(eta, mu)  # the canonical link's working weight
        u = y - mu
        if at_bound is not None:
            u[at_bound] = 0.0
        z = eta + u / w_work - off
        wtot = w_user * w_work
        problem = DemeanProblem(targets=[z] + frame.x_cols, dims=frame.dims, weights=wtot,
                                tol=tol, max_iter=demean_max_iter)
        dres = _demean_converged(problem, structure=structure)
        factor = dres.factor or factor
        # the weighted LS step on [z, X]; the kept columns stay those of step 1
        R = dres.residuals
        sol = solve_gram(_gram(R, wtot), 0, range(1, R.shape[1]), collin_tol,
                         frame.x_names, kept=None if sol is None else sol.kept,
                         scale=_collin_scale(dres, wtot)[1:])
        c = np.zeros(R.shape[1])
        c[0] = 1.0
        c[[1 + k for k in sol.kept]] = -sol.coef
        eta = off + (z - R @ c)  # R @ c is the working residual
        if not np.all(np.isfinite(eta)):
            raise EstimationError("IRLS diverged: non-finite linear predictor")
        # a row in two groups at a bound sits near twice its start: only the
        # other rows can diverge
        if np.abs(eta).max() > fam.eta_bound and (
                at_bound is None or np.abs(eta[~at_bound]).max() > fam.eta_bound):
            raise EstimationError(
                "IRLS diverged: unbounded coefficients (possible separation)")
        mu = fam.linkinv(eta)
        dev_new = deviance(eta, mu)
        if not math.isfinite(dev_new):
            raise EstimationError("IRLS diverged: non-finite deviance")
        path.append(IrlsStep(dev_new, tol, dres.sweeps))
        move = abs(dev_new - dev) / (abs(dev_new) + 0.1)
        dev = dev_new
        if move <= glm_tol and tol == demean_tol:
            converged = True
            break
        if schedule:
            # from step 2 on, never looser than the step before
            loosest = INNER_TOL_MAX if it == 1 else tol
            tol = demean_tol if move <= glm_tol else \
                max(demean_tol, min(loosest, 0.1 * move))
    irls_iters = it
    if not converged:
        raise EstimationError(f"IRLS did not converge within {irls_max_iter} iterations")

    dof = _dof(n, len(sol.kept), _k_fe(frame.dims, dres.dropped))
    # every inner solve converged: _demean_converged raises otherwise
    conv = Convergence(demean_sweeps=sum(st.sweeps for st in path),
                       demean_converged=dres.converged,
                       irls_iterations=irls_iters, irls_converged=converged,
                       demean_factor=factor, irls_path=path)
    return _fit_result(
        frame, sol, frame.x_names, dres, [1 + k for k in sol.kept], c, convergence=conv,
        _fitted=mu, dof=dof, family=family, lhs_name=frame.lhs_name,
        sst=_sst(y, frame.weights), ssr_fe_only=float("nan"), deviance=dev)


# ---------------------------------------------------------------------------
# Dispatcher and fixed-effect recovery
# ---------------------------------------------------------------------------

def fit_model(frame_or_model, ds: Optional[Dataset] = None, family: str = "ols",
              weights: Optional[str] = None, offset: Optional[str] = None,
              **kw) -> FitResult:
    """Fit one model with its estimator; the one estimator dispatch of fehd.

    An IV part goes to ``fit_2sls`` and is an error under a GLM family; other
    OLS and gaussian models (``_OLS_FAMILIES``) go to ``fit_ols``, and the
    fit keeps the family's label; Poisson and logit go to ``fit_glm_irls``.
    ``kw`` holds the estimator's solver options.
    """
    frame = _as_frame(frame_or_model, ds, weights=weights, offset=offset)
    if frame.endo:
        if family != "ols":
            raise EstimationError("IV estimation is only available for OLS models")
        return fit_2sls(frame, **kw)
    if family in _OLS_FAMILIES:
        fit = fit_ols(frame, **kw)
        fit.family = family
        return fit
    return fit_glm_irls(frame, family=family, **kw)


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
    """The fit's own fixed-effect coefficient sets, at its demeaning tolerance.

    They are read off the fit's demeaning (``Design``), not solved again, so
    with the regressor part they reproduce the fitted values (their link for
    a GLM) to rounding.  Returns a map from the fixed-effect label to its
    coefficient set (group labels plus an n_groups x n_coef_cols array), and
    the identification report.
    """
    d = fit.design
    if not d.dims:
        raise EstimationError("model has no fixed-effects")
    coefs, report = recover_fixef(d.demeaned, d.dims, d.resid_map)
    out = {}
    for q, dim in enumerate(d.dims):
        label = dim.label or f"fe{q + 1}"
        levels = list(dim.index.levels) or [str(g) for g in range(dim.index.n_groups)]
        out[label] = FixefSet(levels=levels, coef=coefs[q])
    return out, report
