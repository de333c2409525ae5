"""Residualization on fixed-effect dimensions by conjugate gradients.

Demeaning projects each target column off the columns of Q fixed-effect
designs: group dummies, optionally times slope variables.  One solver serves
every structure with two or more dimensions (Gaure 2013; Correia 2017):

* dimension 1 is eliminated in closed form, by group-weight division or, when
  it carries slopes, by a per-group L x L block solve;
* the stacked coefficients of dimensions 2..Q solve the Schur complement
  system A b = c with A = K - C1' M1^+ C1, where K = D'W D for D = [D2 ... DQ],
  C1 = D1'W D and M1 = D1'W D1.  K's diagonal blocks are per-group and its
  other blocks, like C1, are sparse cross-tables with one entry per observed
  group pair; a product with A never reads the rows.  The tables live in an
  ``FeStructure``, one per fit.  Its first call builds them: a table with
  few possible group pairs, such as firms by years, by ``np.bincount`` over
  the pair key, any other through scipy's sort (``_cross``).  A later call
  under new weights, such as the next IRLS step, refills their values with
  one ``np.bincount`` per table over a row -> entry map, since the pattern
  depends on the codes alone.  The map is built at that first refill, so a
  fit with one set of weights (OLS, 2SLS, pooled fits) never builds it;
* conjugate gradients run on that system.  The preconditioned residual on
  K's diagonal blocks (group weights for intercept-only dimensions, the
  per-group L x L blocks otherwise), block Jacobi on K, is the column's
  move: the stopping test and the switch below read it in every case.  Each
  block is eliminated in column order, intercept first, and a coefficient
  whose residual pivot is at most ``PIVOT_RTOL`` relative to its own
  diagonal is dropped (fixed at 0) and reported in ``DemeanResult.dropped``
  (``column_drops``, the rule the estimators apply to regressors too): a
  slope constant within its group is dropped and its intercept kept, and
  units decide no drop;
* CG's direction is preconditioned by block Jacobi on K too, except with
  exactly two weighted intercept-only dimensions: there it is Jacobi on A's
  own diagonal, d_A = k - (C1 o C1)' m1^-1 (``_schur_diagonal``; Saad 2003,
  ch. 10), formed once per call.  d_A is smaller than K's diagonal k where a
  group's weight sits on few dimension-1 groups, as IRLS weights make it;
  on the paper's panel under such weights, individuals eliminated first,
  CG then needs about half the products.  Unweighted, d_A is about a
  constant times k and saved no product there, so it is not formed.  Should
  p'Ap lose its sign on that direction, the column goes on from its
  iterate on K's diagonal;
* a column whose remaining diagonal-preconditioned work costs more than
  forming and factoring A restarts CG with a sparse LU factorization of A
  as the preconditioner.  That pays on sparse FE graphs, such as firms that
  share workers only with their neighbours, where A is a small
  Laplacian-like matrix (Kline, Saggio and Soelvsten 2020; Davis 2006) and
  a diagonal preconditioner needs many products; random graphs shrink
  30-50x per product and never switch.  The decision weighs the products a column and the columns after
  it are predicted to need against the flops of forming and factoring A
  (``_factor_pays``); A's nonzeros are estimated first, in O(nnz C1), and a
  dense A is refused unformed or priced out.  A is formed in one pass and
  factored once per call; the later columns, and the later calls of the same
  fit (``FeStructure``), switch at their first product, and after a refusal
  none estimates again.

Each target column is measured once, on entry.  Its scale is its weighted SD,
floored at ``SCALE_FLOOR`` times its RMS so that a constant column has one.
It stops once its move, the sup norm of its block-Jacobi preconditioned
residual (also after the switch), is at most ``tol`` times its scale, but
never below ``LEVEL_EPS`` machine epsilons of its RMS, the roundoff its level
allows: units decide neither the sweeps nor the relative error.  With two
dimensions the move is exactly that of a plain sweep from the current
iterate.  The estimators judge collinearity against the same scales
(``DemeanResult.scale``).  Work is counted in sweeps: the initial residual is one sweep and each product with A
is one, before and after the switch; forming and factoring A is reported
apart, in ``DemeanResult.factor``.  One dimension, and the comparison mode
``accelerate=False``, run plain alternating sweeps over the rows instead (one
group-sum and one gather per dimension per sweep, stopping once no
coefficient of dimensions 2..Q moves by more than the threshold).  Each
target column runs its own iteration, restarts on its own when it switches
and stops on its own, so a batched run reproduces the single-column results
bit for bit, wherever each of them switched.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .data import FactorIndex

__all__ = [
    "FeDim",
    "DemeanProblem",
    "DemeanResult",
    "FactorRecord",
    "FeStructure",
    "FixefReport",
    "demean",
    "recover_fixef",
]

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 10_000
# a slope-block coefficient is dropped once its residual pivot is at most
# PIVOT_RTOL relative to its own diagonal, in column order (``column_drops``)
PIVOT_RTOL = 1e-12
# a column's scale and stopping threshold (see the module doc)
SCALE_FLOOR = 1e-7
LEVEL_EPS = 64
# The Schur complement factorization (see the module doc).  A column switches
# to it once the unfactored products it and the columns after it still need
# cost more than forming and factoring A (``_factor_pays``).  Costs are in
# flops of a product with A, which reads each cross-table entry twice at 2
# flops a read (about 2 Gflop/s on one 2.5 GHz core).  Forming A makes
# sum_g r_g^2 multiply-adds over C1's rows (r_g entries in row g, in the
# tables of sparse dimensions) and the LU about nnz(A)^2 / order; scipy makes
# them with scattered writes, at about FACTOR_SCATTER product flops each.  A
# dense block (``DENSE_COLS``) costs 2 flops per C1 entry and dense column,
# and a formation FACTOR_FIXED_FLOPS more.  A switched column restarts and
# makes about one product, with two applications of the factored
# preconditioner, each six LU solves and a product with A at about 60 nnz(A)
# flops (the LU holds about 2.3 nnz(A), and each solve is a scipy call).  A
# is refused, unformed, when its nonzeros, estimated from the exact degrees
# of up to FACTOR_SAMPLE rows per dimension, pass FACTOR_NNZ_BUDGET per
# cross-table (C1) nonzero, both counted per group pair (a chain of firms
# gives about 0.08, a random graph about 1); the factored matrix is
# A + FACTOR_SHIFT * diag(K).
FACTOR_SCATTER = 10.0
FACTOR_FIXED_FLOPS = 1e6
FACTOR_SAMPLE = 8
FACTOR_NNZ_BUDGET = 0.5
FACTOR_SHIFT = 1e-10
DENSE_COLS = 64  # a dimension with at most this many coefficients has dense blocks in A
SCALE_SLICE = 1 << 16  # entries of C1 read at a time while A or its diagonal is formed
# A's diagonal entry of a group stands in for its K-diagonal entry, the group's
# weight, unless it is at most DIAG_FLOOR times that weight (``_schur_diagonal``)
DIAG_FLOOR = 1e-8


class DemeanError(RuntimeError):
    pass


@dataclass(frozen=True)
class FeDim:
    """One fixed-effect dimension: a factor index plus optional slope columns."""

    index: FactorIndex
    slopes: Optional[np.ndarray] = None  # (n_used, n_slope_vars)
    intercept: bool = True
    label: str = ""

    @property
    def n_coef_cols(self) -> int:
        s = 0 if self.slopes is None else self.slopes.shape[1]
        return s + (1 if self.intercept else 0)

    def design(self, n: int) -> np.ndarray:
        """Per-row regressor matrix Z (intercept column first when present)."""
        cols = []
        if self.intercept:
            cols.append(np.ones(n))
        if self.slopes is not None:
            cols.extend(self.slopes[:, j] for j in range(self.slopes.shape[1]))
        return np.column_stack(cols)


@dataclass
class DemeanProblem:
    """Target columns to demean, in a block the problem owns: a list of 1-D
    columns is stacked into it and an array is copied, F-order (cheap
    per-column access).  ``demean`` writes the residuals into that block."""

    targets: np.ndarray  # (n_used, n_targets) float64
    dims: list[FeDim]
    weights: Optional[np.ndarray] = None
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER

    def __post_init__(self):
        if isinstance(self.targets, list):
            cols = self.targets
            self.targets = np.empty((len(cols[0]), len(cols)), order="F")
            for j, c in enumerate(cols):
                self.targets[:, j] = c
        else:
            arr = np.asarray(self.targets, dtype=np.float64)
            self.targets = np.array(arr[:, None] if arr.ndim == 1 else arr, order="F")
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=np.float64)
            if (self.weights <= 0).any():
                raise DemeanError("weights must be strictly positive")
        if not 0 < self.tol < math.inf:  # NaN fails too
            raise DemeanError(f"demeaning tol must be finite and > 0, got {self.tol!r}")
        if self.max_iter < 1:
            raise DemeanError(f"demeaning max_iter must be >= 1, got {self.max_iter!r}")
        n = self.targets.shape[0]
        for d in self.dims:
            if len(d.index.group_of_row) != n:
                raise DemeanError("factor index length does not match targets")
            if d.slopes is not None and d.slopes.shape[0] != n:
                raise DemeanError("slope matrix length does not match targets")
            if d.n_coef_cols == 0:
                raise DemeanError("fixed-effect dimension with no intercept and no slopes")


@dataclass(frozen=True)
class FactorRecord:
    """One demean call's factorization of the Schur complement A."""

    dim: int        # order of A over the kept coefficients
    nnz: int        # nonzeros of A; when refused, the budget estimate's
    lu_nnz: int     # nonzeros of the LU factors; 0 when A was not factored
    seconds: float  # forming and factoring A
    switch_at: int  # unfactored products of the first column that switched
    refused: bool = False  # the budget estimate refused A, which was not formed


@dataclass
class DemeanResult:
    residuals: np.ndarray  # (n_used, n_targets)
    converged: bool
    fe_coef: list[np.ndarray] = field(default_factory=list)  # per dim: (G_q, L_q, n_targets)
    dropped: list[tuple[int, int, int]] = field(default_factory=list)  # (dim, group, col)
    sweeps: int = 0
    factor: Optional[FactorRecord] = None  # None: no column switched to a factored A
    # per target column: weighted SD floored at SCALE_FLOOR * RMS; None without FE
    scale: Optional[np.ndarray] = None

    @property
    def iterations(self) -> int:  # the slowest column's CG steps, sweeps - 1
        return max(self.sweeps - 1, 0)


@dataclass
class FixefReport:
    free_constants: int
    dropped: list[tuple[int, int, int]]


# ---------------------------------------------------------------------------
# Collinearity
# ---------------------------------------------------------------------------

def column_drops(M: np.ndarray, tol: float,
                 scale: Optional[np.ndarray] = None) -> np.ndarray:
    """The collinear columns of each block of a (G, L, L) stack of Gram blocks.

    Each symmetric PSD block is eliminated column by column, in column order,
    without pivoting.  Column k is dropped once its residual pivot, what is
    left of its diagonal after the kept columns before it are eliminated, is
    at most ``tol`` times its own scale: its diagonal, or the larger of that
    and ``scale`` (G, L).  Rescaling a column rescales its pivot and its
    scale alike, so units decide no drop, and of two collinear columns the
    later one is dropped.  This is the one collinearity rule: FE slope
    blocks (``_DimWork``) and regressor Grams (``estimators.solve_gram``)
    both go through it.  Returns the dropped mask (G, L).
    """
    S = np.array(M, dtype=np.float64)
    d = np.diagonal(S, axis1=1, axis2=2)
    thr = tol * (d if scale is None else np.maximum(d, scale))
    dropped = np.zeros(thr.shape, dtype=bool)
    for k in range(S.shape[1]):
        piv = S[:, k, k]
        dropped[:, k] = bad = piv <= thr[:, k]
        inv = np.divide(1.0, piv, out=np.zeros_like(piv), where=~bad)
        col = S[:, k + 1:, k] * inv[:, None]
        S[:, k + 1:, k + 1:] -= col[:, :, None] * S[:, k, None, k + 1:]
    return dropped


# ---------------------------------------------------------------------------
# Per-dimension machinery
# ---------------------------------------------------------------------------

class _DimWork:
    """One dimension's group sums, block solves and row updates (fixed weights).

    Coefficients are flat vectors of length G*L, group-major: entry g*L + l is
    group g's l-th coefficient (intercept first).  Intercept-only dimensions
    keep the group weights ``wsum``; slope dimensions keep the per-group
    blocks ``M`` = Z'WZ and the inverses ``Minv`` of their kept parts; the
    collinear coefficients (``column_drops``) are recorded in ``dropped``.
    """

    def __init__(self, dim: FeDim, w: Optional[np.ndarray], n: int):
        self.g = dim.index.group_of_row
        self.G = dim.index.n_groups
        self.L = dim.n_coef_cols
        self.w = w
        if dim.slopes is None or dim.slopes.shape[1] == 0:
            if not dim.intercept:
                raise DemeanError("dimension with neither intercept nor slopes")
            self.Z = None
            # float64 also unweighted, where bincount counts in int64
            self.wsum = np.bincount(self.g, weights=w,
                                    minlength=self.G).astype(np.float64, copy=False)
            self.dropped = np.zeros((self.G, 1), dtype=bool)
            return
        Z = np.asfortranarray(dim.design(n))
        M = np.empty((self.G, self.L, self.L))
        for a in range(self.L):
            for c in range(a, self.L):
                prod = Z[:, a] * Z[:, c]
                if w is not None:
                    prod *= w
                M[:, a, c] = M[:, c, a] = np.bincount(self.g, weights=prod,
                                                      minlength=self.G)
        self.Z, self.M = Z, M
        self.dropped = column_drops(M, PIVOT_RTOL)
        # invert the kept part of each block: dropped rows and columns are
        # identity in the inverted block and zero in Minv
        off = self.dropped[:, :, None] | self.dropped[:, None, :]
        self.Minv = np.linalg.inv(np.where(off, np.eye(self.L), M))
        self.Minv[off] = 0.0

    def sums(self, v: np.ndarray) -> np.ndarray:
        """D'W v: weighted per-group sums of one row vector (times each slope)."""
        return self.sums_of(v if self.w is None else self.w * v)

    def sums_of(self, wv: np.ndarray) -> np.ndarray:
        """D' wv: per-group sums of a row vector already weighted (times each slope)."""
        if self.Z is None:
            return np.bincount(self.g, weights=wv, minlength=self.G)
        out = np.empty((self.G, self.L))
        for a in range(self.L):
            out[:, a] = np.bincount(self.g, weights=self.Z[:, a] * wv, minlength=self.G)
        return out.ravel()

    def solve(self, c: np.ndarray) -> np.ndarray:
        """Block solve M x = c per group; dropped coefficients stay at 0."""
        if self.Z is None:
            return c / self.wsum
        return np.einsum("gab,gb->ga", self.Minv, c.reshape(self.G, self.L)).ravel()

    def blocks(self) -> np.ndarray:
        """The per-group blocks of D'W D as (G, L, L)."""
        if self.Z is None:
            return self.wsum[:, None, None]
        return self.M

    def gram(self, p: np.ndarray) -> np.ndarray:
        """D'W D p: the block-diagonal product with this dimension's own blocks."""
        if self.Z is None:
            return self.wsum * p
        return np.einsum("gab,gb->ga", self.M, p.reshape(self.G, self.L)).ravel()

    def subtract(self, coef: np.ndarray, v: np.ndarray, buf: np.ndarray):
        """v -= D coef in place, through the row buffer ``buf``.

        Group codes lie in [0, G) by construction, so the gathers use
        ``mode="clip"``: with the default mode numpy buffers ``out`` through
        a temporary, which doubles the cost of the gather.
        """
        if self.Z is None:
            np.take(coef, self.g, out=buf, mode="clip")
            v -= buf
            return
        c = coef.reshape(self.G, self.L)
        for a in range(self.L):
            np.take(c[:, a], self.g, out=buf, mode="clip")
            buf *= self.Z[:, a]
            v -= buf


def _cross_values(wa: _DimWork, wb: _DimWork, buf: np.ndarray) -> np.ndarray:
    """Each row's contribution to Da'W Db: its weight, times each slope pair.

    Without weights or slopes the row buffer holds the unit weights.
    """
    if wa.Z is None and wb.Z is None:
        if wa.w is None:
            buf.fill(1.0)
            return buf
        return wa.w
    n = len(wa.g)
    za = np.ones((n, 1)) if wa.Z is None else wa.Z
    zb = np.ones((n, 1)) if wb.Z is None else wb.Z
    vals = za[:, :, None] * zb[:, None, :]
    if wa.w is not None:
        vals *= wa.w[:, None, None]
    return vals


def _cross_entries(wa: _DimWork, wb: _DimWork) -> tuple[np.ndarray, np.ndarray]:
    """The (row, column) of each of ``_cross_values`` in Da'W Db."""
    if wa.Z is None and wb.Z is None:
        return wa.g, wb.g
    shape = (len(wa.g), wa.L, wb.L)
    rows = np.broadcast_to((wa.g * wa.L)[:, None, None] + np.arange(wa.L)[:, None], shape)
    cols = np.broadcast_to((wb.g * wb.L)[:, None, None] + np.arange(wb.L), shape)
    return rows, cols


def _cross_keys(wa: _DimWork, wb: _DimWork) -> np.ndarray:
    """The key row * n_columns + column of each of ``_cross_values``, flattened."""
    rows, cols = _cross_entries(wa, wb)
    keys = rows.astype(np.int64)
    keys *= wb.G * wb.L
    keys += cols
    return keys.ravel()


def _cross(wa: _DimWork, wb: _DimWork, buf: np.ndarray) -> sp.csr_matrix:
    """Cross-table Da'W Db: one entry per observed group pair (and slope pair).

    A table whose pair-key space, rows times columns, is at most a quarter
    of its entries (one per row and slope pair) is built in canonical CSR
    directly, by one ``np.bincount`` of the pattern and one of the values
    over the pair key, in row order like the refill: its key and count
    arrays then cost less than scipy's COO staging, about 20 bytes an
    entry.  Any other table goes through scipy, which sorts the rows' pairs
    and sums the duplicates into fresh arrays.
    """
    shape = (wa.G * wa.L, wb.G * wb.L)
    vals = _cross_values(wa, wb, buf).ravel()
    if 4 * shape[0] * shape[1] > len(vals):
        rows, cols = _cross_entries(wa, wb)
        return sp.csr_matrix((vals, (rows.ravel(), cols.ravel())), shape=shape)
    keys = _cross_keys(wa, wb)
    size = shape[0] * shape[1]
    count = np.bincount(keys, minlength=size)
    present = np.flatnonzero(count)  # sorted: row by row, columns ascending
    data = np.bincount(keys, weights=vals, minlength=size)[present]
    indptr = np.zeros(shape[0] + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(count.reshape(shape), axis=1), out=indptr[1:])
    indices = (present % shape[1]).astype(np.int32)
    return sp.csr_matrix((data, indices, indptr), shape=shape)


def _entry_map(table: sp.csr_matrix, wa: _DimWork, wb: _DimWork) -> np.ndarray:
    """The position in ``table.data`` of each of ``_cross_values``, flattened.

    A canonical CSR table lists its entries in (row, column) order, so their
    keys row * n_columns + column are sorted and a binary search finds each.
    """
    table.sum_duplicates()  # a no-op on the canonical tables ``_cross`` builds
    ncols = table.shape[1]
    keys = np.repeat(np.arange(table.shape[0], dtype=np.int64) * ncols,
                     np.diff(table.indptr)) + table.indices
    return np.searchsorted(keys, _cross_keys(wa, wb))


class FeStructure:
    """The fixed-effect structure of one fit, shared by its demean calls.

    It keeps the cross-table Da'W Db of each dimension pair that
    ``_schur_cg`` reads.  The first call builds a table by ``np.bincount``
    over the pair key when its key space is at most a quarter of its
    entries, where the key arrays cost less memory than scipy's staging,
    and through scipy's sort otherwise (``_cross``).  A later call, under
    other weights, refills the values of that table with one
    ``np.bincount`` over a row -> entry map, the table's pattern being fixed
    by the codes.  The map is built at the first refill, so a structure used
    once, as by every fit with one set of weights, never builds it.  Tables
    and maps hold O(n) memory: keep a structure no longer than its fit.

    It also keeps what the fit learned about factoring the Schur complement
    A: ``costs``, the switch's costs on the tables' pattern (``_SwitchCosts``,
    made at the first decision), and ``factor_pays``, None until a column
    switches, then True once A was factored, or False once A was refused or
    found singular.  After a switch a later call switches at its first
    product; after a refusal it never estimates A again.  ``state`` holds
    the coefficients of dimensions 2..Q (``fe_coef[1:]`` stacked) that the
    last call ended at; the next call with as many targets starts from them.
    """

    def __init__(self, dims: list[FeDim]):
        self.dims = dims
        self.tables: dict[tuple[int, int], sp.csr_matrix] = {}
        self.maps: dict[tuple[int, int], np.ndarray] = {}
        self.costs: Optional[_SwitchCosts] = None
        self.factor_pays: Optional[bool] = None
        self.state: Optional[np.ndarray] = None

    def cross(self, a: int, b: int, works: list[_DimWork],
              buf: np.ndarray) -> sp.csr_matrix:
        """Da'W Db of dimensions a and b under the weights of ``works``."""
        wa, wb = works[a], works[b]
        table = self.tables.get((a, b))
        if table is None:
            table = self.tables[a, b] = _cross(wa, wb, buf)
            return table
        entry = self.maps.get((a, b))
        if entry is None:
            entry = self.maps[a, b] = _entry_map(table, wa, wb)
        table.data = np.bincount(entry, weights=_cross_values(wa, wb, buf).ravel(),
                                 minlength=table.nnz)
        return table


def _block_diag(blocks: np.ndarray) -> sp.csr_matrix:
    """Block-diagonal sparse matrix of (G, L, L) blocks."""
    G, L, _ = blocks.shape
    return sp.bsr_matrix((blocks, np.arange(G), np.arange(G + 1)),
                         shape=(G * L, G * L)).tocsr()


def _dense_dims(widths: list[int]) -> list[bool]:
    """Dimensions whose blocks of A are formed as dense arrays (``DENSE_COLS``)."""
    return [n <= DENSE_COLS for n in widths]


class _SwitchCosts:
    """What switching to the factored A costs on one fit's tables, in product flops.

    ``product`` is one product with A, ``form`` forming A with the fixed
    cost of a formation; both follow from the tables' pattern alone.
    ``nnz()`` estimates A's nonzeros (``_schur_nnz_estimate``) at its first
    call and keeps the figure.
    """

    def __init__(self, rest: list[_DimWork], C1: list[sp.csr_matrix], K: list):
        self.C1 = C1
        self.widths = [wk.G * wk.L for wk in rest]
        self.order = sum(self.widths)
        entries = sum(C.nnz for C in C1)
        self.product = 4.0 * (entries + sum(Kqs.nnz for *_, Kqs in K))
        # r_g over the sparse dimensions' tables; a dense block streams each
        # entry of C1 against a dense row instead
        dense = _dense_dims(self.widths)
        r = sum((np.diff(C.indptr) for C, d in zip(C1, dense) if not d),
                np.zeros(C1[0].shape[0]))
        dense_width = sum(n for n, d in zip(self.widths, dense) if d)
        self.form = FACTOR_SCATTER * float(r @ r) + 2.0 * entries * dense_width \
            + FACTOR_FIXED_FLOPS
        self._nnz: Optional[int] = None

    def nnz(self) -> int:
        if self._nnz is None:
            self._nnz = _schur_nnz_estimate(self.C1, self.widths)
        return self._nnz


def _schur_nnz_estimate(C1: list[sp.csr_matrix], widths: list[int]) -> int:
    """A's nonzeros, from the exact degrees of up to ``FACTOR_SAMPLE`` rows per dimension.

    Row i of A, a coefficient of dimension q, is nonzero in the columns that
    share a row of C1 with it: K's pattern lies inside that one, since every
    observation has a dimension-1 group.  Evenly spaced rows are counted
    exactly, one at a time, as the distinct columns of the rows of C1 they
    share, and a block that touches a dense dimension counts whole, as
    ``_schur_matrix`` forms it.  One gather over C1's entries finds the
    sampled columns; the rest of the work is the sample's.
    """
    dense = _dense_dims(widths)
    sparse_C = [C for C, d in zip(C1, dense) if not d]
    dense_width = sum(n for n, d in zip(widths, dense) if d)
    total = 0.0
    for C, n, d in zip(C1, widths, dense):
        if d:
            total += n * sum(widths)
            continue
        rows = np.unique(np.linspace(0, n - 1, min(n, FACTOR_SAMPLE)).astype(np.int64))
        picked = np.zeros(n, dtype=bool)
        picked[rows] = True
        hit = np.flatnonzero(picked[C.indices]).astype(C.indptr.dtype)
        at = np.searchsorted(rows, C.indices[hit])  # the sample row of each hit
        groups = np.searchsorted(C.indptr, hit, side="right") - 1
        degree = 0
        for t in range(len(rows)):
            shared = groups[at == t]
            for P in sparse_C:
                start = P.indptr[shared]
                length = P.indptr[shared + 1] - start
                ends = np.cumsum(length)
                entry = np.repeat(start - ends + length, length) + np.arange(length.sum())
                degree += len(np.unique(P.indices[entry]))
        total += n * (degree / len(rows) + dense_width)
    return int(round(total))


def _schur_diagonal(C1: sp.csr_matrix, m1: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The diagonal of A = K - C1' M1^-1 C1 for two intercept-only dimensions.

    With m1 and k the group weights of dimensions 1 and 2, entry j is
    d_A[j] = k[j] - sum_i C1[i, j]^2 / m1[i].  A group whose d_A is at most
    ``DIAG_FLOOR`` times k[j] keeps k[j]: its weight sits on dimension-1
    groups it alone links to, which with it form a component of their own,
    and d_A there is roundoff.  C1's rows are read in runs of about
    ``SCALE_SLICE`` entries, so that no temporary as large as C1 is held.
    """
    d = k.copy()
    indptr = C1.indptr
    cuts = np.searchsorted(indptr, np.arange(0, C1.nnz, SCALE_SLICE))
    for r0, r1 in zip(cuts, [*cuts[1:], C1.shape[0]]):
        lo, hi = indptr[r0], indptr[r1]
        vals = C1.data[lo:hi]
        # rows r0..r1 of C1 as the columns of a CSC view: one transposed product
        run = sp.csc_matrix((vals * vals, C1.indices[lo:hi], indptr[r0:r1 + 1] - lo),
                            shape=(len(k), r1 - r0))
        d -= run @ (1.0 / m1[r0:r1])
    return np.where(d > DIAG_FLOOR * k, d, k)


def _schur_matrix(w1: _DimWork, rest: list[_DimWork], C1: list[sp.csr_matrix],
                  K: list) -> sp.csr_matrix:
    """A = K - C1' M1^+ C1 over the coefficients of dimensions 2..Q, in one pass.

    Block (q, s) is K_qs - (M1^+ C1_q)' C1_s, and the block under the
    diagonal is its transpose.  (M1^+ C1_q)' is the one copy of a table
    made: C1_q' in CSR with each entry divided by its group's weight when
    dimension 1 has no slopes, or the transpose of one block-diagonal
    product when it has.  A block that touches a dimension of at most
    ``DENSE_COLS`` coefficients, such as the years of a panel, is formed as
    a dense array, by sparse-times-dense products.
    """
    Q = len(rest)
    dense = _dense_dims([wk.G * wk.L for wk in rest])
    if w1.Z is None:
        left = [C.T.tocsr() for C in C1]
        for Lq in left:  # in slices, so that no temporary as large as C1 is held
            for lo in range(0, Lq.nnz, SCALE_SLICE):
                Lq.data[lo:lo + SCALE_SLICE] /= w1.wsum[Lq.indices[lo:lo + SCALE_SLICE]]
    else:
        M1inv = _block_diag(w1.Minv)
        left = [(M1inv @ C).T.tocsr() for C in C1]
    Kd = {(q, s): Kqs for q, s, Kqs in K}
    grid = [[None] * Q for _ in rest]
    for q in range(Q):
        for s in range(q, Q):
            Kqs = _block_diag(rest[q].blocks()) if q == s else Kd[q, s]
            if dense[s]:
                b = Kqs.toarray() - left[q] @ C1[s].toarray()
            elif dense[q]:
                b = Kqs.toarray() - (left[s] @ C1[q].toarray()).T
            else:
                b = Kqs - left[q] @ C1[s]
            grid[q][s] = b = sp.csr_matrix(b)
            if q != s:
                grid[s][q] = b.T
    return grid[0][0] if Q == 1 else sp.bmat(grid, format="csr")


def _factor_schur(w1: _DimWork, rest: list[_DimWork], C1: list[sp.csr_matrix],
                  K: list, costs: _SwitchCosts,
                  switch_at: int) -> tuple[Optional[Callable], FactorRecord]:
    """Form and factor A; returns (preconditioner, record).

    A is refused, and not formed, when the estimate of its nonzeros
    (``costs.nnz()``) passes ``FACTOR_NNZ_BUDGET`` per cross-table nonzero.
    A is singular (a null direction per connected component of the FE
    graph, more with three or more dimensions), so SuperLU factors
    P = A + FACTOR_SHIFT * diag(K) on the kept coefficients; dropped ones
    stay at 0.  The preconditioner is R A R with R = P^-1 (I + E + E^2),
    E = (P - A) P^-1, two steps of iterative refinement towards A's own
    solve:
    * R cubes the shift's relative error on A's low modes, which a switched
      column meets at full size, since it restarts from its initial
      residual;
    * the product with A in the middle removes what P^-1 makes of the
      roundoff along A's null directions, amplified by 1 / FACTOR_SHIFT;
      left in, it swamps a residual near the stopping tolerance.
    It is None when A was refused or could not be factored.
    """
    t0 = time.perf_counter()
    kept = ~np.concatenate([wk.dropped.ravel() for wk in rest])
    # per group pair, C1's blocks hold L1 x Lq entries and A's about Lq x Lq
    pairs = sum(C.nnz * wk.L for C, wk in zip(C1, rest)) / w1.L
    nnz = costs.nnz()
    if nnz > FACTOR_NNZ_BUDGET * pairs:
        return None, FactorRecord(int(kept.sum()), nnz, 0, time.perf_counter() - t0,
                                  switch_at, refused=True)
    from scipy.sparse.linalg import splu  # fits that never switch skip the import

    A = _schur_matrix(w1, rest, C1, K)
    if not kept.all():
        A = A[kept][:, kept]
    diag = np.concatenate([wk.blocks().diagonal(axis1=1, axis2=2).ravel()
                           for wk in rest])
    shift = FACTOR_SHIFT * diag[kept]
    try:
        # P is symmetric up to roundoff, and P' is a CSC view of its arrays
        lu = splu((A + sp.diags(shift)).T, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError:  # exactly singular: stay unfactored
        lu = None
    record = FactorRecord(int(kept.sum()), A.nnz,
                          0 if lu is None else lu.L.nnz + lu.U.nnz,
                          time.perf_counter() - t0, switch_at)
    if lu is None:
        return None, record

    def refine(v):
        return lu.solve(v + shift * lu.solve(v + shift * lu.solve(v)))

    def solve(res):
        z = np.zeros_like(res)
        z[kept] = refine(A @ refine(res[kept]))
        return z
    return solve, record


def _factor_pays(ratios: list[float], columns_after: int, costs: _SwitchCosts) -> bool:
    """Whether a column not yet on the factored A switches to it now.

    ``ratios`` holds the column's sup norm of z over its threshold: for its
    initial residual, then after each of its k products.  From k = 2 on, the
    mean shrink per product so far predicts the products the column still needs, and
    each of the ``columns_after`` columns after it is predicted to need as
    many as this one in all.  The mean includes the first product, which
    removes the fast modes: on small chains the sup norm stalls for a few
    products and then drops, and a recent rate would overstate what is left
    there, switching where the unfactored run is cheaper.  The switch pays once
    those products cost more than forming and factoring A and the factored
    run of each of these columns, as the module constants' comment prices
    them.  A's nonzeros are estimated only when the products alone outweigh
    forming A.  This is the one place the switch is decided.
    """
    k = len(ratios) - 1
    if k < 2:  # the first product's drop alone is no rate
        return False
    shrink = math.log(ratios[0] / ratios[-1])  # over k products
    left = k * math.log(ratios[-1]) / shrink if shrink > 0.0 else math.inf
    columns = 1 + columns_after
    block_jacobi = (columns * left + columns_after * k) * costs.product
    factored = costs.form + columns * costs.product
    if block_jacobi <= factored:
        return False
    nnz = costs.nnz()
    factored += FACTOR_SCATTER * nnz * nnz / costs.order \
        + columns * 120.0 * nnz
    return block_jacobi > factored


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------

def _plain_sweeps(works: list[_DimWork], bounds: list[int], S: np.ndarray,
                  coef0: np.ndarray, r: np.ndarray, buf: np.ndarray,
                  thr: np.ndarray, max_iter: int) -> tuple[np.ndarray, np.ndarray]:
    """Alternating projections on the rows, column by column.

    One sweep solves every dimension in turn against the current residual
    (Gauss-Seidel order) and subtracts the increment; column j stops once no
    coefficient of dimensions 2..Q moved by more than ``thr[j]``.  With one
    dimension this is the closed-form solve: one sweep, then no move.
    Mutates S, coef0 and r; returns per-column (sweeps, converged).
    """
    T = r.shape[1]
    steps = np.zeros(T, dtype=np.int64)
    converged = np.zeros(T, dtype=bool)
    for j in range(T):
        e = r[:, j]
        k = 0
        move = np.inf
        while k < max_iter and move > thr[j]:
            d = works[0].solve(works[0].sums(e))
            coef0[:, j] += d
            works[0].subtract(d, e, buf)
            move = 0.0
            for q, wk in enumerate(works[1:]):
                d = wk.solve(wk.sums(e))
                S[bounds[q]:bounds[q + 1], j] += d
                wk.subtract(d, e, buf)
                move = max(move, float(np.abs(d).max()))
            k += 1
        steps[j] = k
        converged[j] = move <= thr[j]
    return steps, converged


def _schur_cg(works: list[_DimWork], bounds: list[int], S: np.ndarray,
              coef0: np.ndarray, r: np.ndarray, buf: np.ndarray,
              thr: np.ndarray, max_iter: int, structure: FeStructure
              ) -> tuple[np.ndarray, np.ndarray, Optional[FactorRecord]]:
    """Preconditioned CG on the Schur complement of dimension 1.

    With D1 the design of dimension 1 (dummies, times its slopes) and
    D = [D2 ... DQ] the stacked designs of the others, the coefficients b of
    D solve A b = D'W (I - P1) y, with P1 the W-projection on D1's columns and
    A = K - C1' M1^+ C1, where K = D'W D, C1 = D1'W D and M1 = D1'W D1 is
    block diagonal (group weights, or L x L blocks with collinear drops).  K's
    diagonal blocks are the dimensions' own group blocks; its off-diagonal
    blocks and C1 are sparse cross-tables with one entry per observed group
    pair, built or refilled once per call (``structure``), so a product with
    A reads no row.  The
    residual preconditioned by block Jacobi on K's diagonal blocks is the
    column's move, exactly the move a plain sweep would make from b when
    Q = 2; column j stops once its sup norm is at most ``thr[j]``.  CG's
    direction takes the same preconditioner, except with two weighted
    intercept-only dimensions, where it takes Jacobi on A's own diagonal
    (``_schur_diagonal``, formed once per call); the stop and the switch
    below still read the move on K's diagonal, so ``thr`` keeps its meaning.
    Forming the initial residual counts as one sweep and each product as
    one.  Dimension 1 follows the iterate in coefficient space
    (a = a0 - M1^+ C1 (b - b0)); the rows are read once for the initial
    residual and written once at the end, with y - D b - D1 a.

    Before each product, a column not yet switched records the ratio
    sup|z| / thr[j] of its move and asks ``_factor_pays`` whether to switch
    to the factored A (``_factor_schur``, formed at the first column that
    switches and reused by later ones, which switch at their first product,
    as do the calls after it on the same ``structure``).  A switched column restarts
    CG from its initial residual, so where it switched changes no digit of
    its result, and keeps the stopping rule on K's diagonal.  Once A is
    refused or found singular, no column of this call or a later one
    switches.  If a step on the factored A or on A's diagonal finds no
    descent direction (p'Ap is not positive, as on a group with almost no
    weight), the column continues from its iterate on K's diagonal.
    The weighted column w e is formed once, in the row buffer, and every
    dimension's group sums read it.

    Precondition: r == targets - D S.  Mutates S, coef0 and r in place
    (r becomes the residuals).  Returns per-column (CG steps, converged) and
    the factorization's record (None when no column switched).
    """
    w1, rest = works[0], works[1:]
    blocks = [slice(bounds[q], bounds[q + 1]) for q in range(len(rest))]
    C1 = [structure.cross(0, q, works, buf) for q in range(1, len(works))]
    C1t = [C.T for C in C1]  # CSC views of the same arrays, as is Kt
    K = [(q, s, structure.cross(q + 1, s + 1, works, buf))
         for q in range(len(rest)) for s in range(q + 1, len(rest))]
    Kt = [Kqs.T for *_, Kqs in K]

    def precondition(res):
        if len(rest) == 1:
            return rest[0].solve(res)
        return np.concatenate([wk.solve(res[blk]) for wk, blk in zip(rest, blocks)])

    # the direction's preconditioner before any switch; None: K's diagonal.
    # After a switch in this fit every column switches at its first product,
    # so A's diagonal would go unread.
    jacobi = None
    if w1.w is not None and len(rest) == 1 and w1.Z is None and rest[0].Z is None \
            and not structure.factor_pays:
        d_A = _schur_diagonal(C1[0], w1.wsum, rest[0].wsum)

        def jacobi(res):
            return res / d_A

    def product(p):
        parts = [p[blk] for blk in blocks]
        t = C1[0] @ parts[0]
        for C, pq in zip(C1[1:], parts[1:]):
            t += C @ pq
        m = w1.solve(t)
        Ap = np.empty_like(p)
        for q, wk in enumerate(rest):
            Ap[blocks[q]] = wk.gram(parts[q])
        for (q, s, Kqs), Kst in zip(K, Kt):
            Ap[blocks[q]] += Kqs @ parts[s]
            Ap[blocks[s]] += Kst @ parts[q]
        for q, Ct in enumerate(C1t):
            Ap[blocks[q]] -= Ct @ m
        return m, Ap

    def pays(ratios, columns_after):
        if structure.factor_pays or factor is not None:
            return True  # A is or was factored in this fit
        if structure.costs is None:
            structure.costs = _SwitchCosts(rest, C1, K)
        return _factor_pays(ratios, columns_after, structure.costs)

    factor = None  # (factored preconditioner or None, record), formed once
    T = r.shape[1]
    steps = np.zeros(T, dtype=np.int64)
    converged = np.zeros(T, dtype=bool)
    for j in range(T):
        e = r[:, j]
        db = np.zeros(S.shape[0])
        we = e if w1.w is None else np.multiply(w1.w, e, out=buf)
        a0 = w1.solve(w1.sums_of(we))
        res0 = np.concatenate([wk.sums_of(we) - Ct @ a0 for wk, Ct in zip(rest, C1t)])
        a, res = a0.copy(), res0.copy()
        z = precondition(res)
        direct = jacobi  # the direction's preconditioner; None: K's diagonal, z
        ratios = []  # sup|z| / thr[j] before the switch, None once the column decided
        p = z.copy() if direct is None else direct(res)
        rz = float(np.dot(res, p))
        k = 0
        while k < max_iter and (zmax := float(np.abs(z).max())) > thr[j]:
            if ratios is not None and structure.factor_pays is not False:
                ratios.append(zmax / thr[j])
                if pays(ratios, T - 1 - j):
                    ratios = None
                    if factor is None:
                        factor = _factor_schur(w1, rest, C1, K, structure.costs, k)
                        structure.factor_pays = factor[0] is not None
                    if factor[0] is not None:  # restart from the initial residual
                        direct = factor[0]
                        db.fill(0.0)
                        a, res = a0.copy(), res0.copy()
                        z = precondition(res)
                        p = direct(res)
                        rz = float(np.dot(res, p))
            m, Ap = product(p)
            k += 1
            pAp = float(np.dot(p, Ap))
            if not pAp > 0.0:
                if direct is None:
                    break  # no descent direction left: report the column unconverged
                direct = None  # continue on K's diagonal from the iterate
                p = z.copy()
                rz = float(np.dot(res, z))
                continue
            alpha = rz / pAp
            db += alpha * p
            a -= alpha * m
            res -= alpha * Ap
            z = precondition(res)
            zs = z if direct is None else direct(res)
            rz_new = float(np.dot(res, zs))
            p = zs + (rz_new / rz) * p
            rz = rz_new
        for wk, blk in zip(rest, blocks):
            wk.subtract(db[blk], e, buf)
        w1.subtract(a, e, buf)
        S[:, j] += db
        coef0[:, j] = a
        steps[j] = k
        converged[j] = np.abs(z).max() <= thr[j]
    return steps, converged, None if factor is None else factor[1]


def _column_scales(targets: np.ndarray, w: Optional[np.ndarray],
                   buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column's scale and RMS under the weights (see the module doc).
    Centred through the row buffer, a large level cannot cancel the SD."""
    n, T = targets.shape
    sw = n if w is None else float(w.sum())
    sd, rms = np.empty(T), np.empty(T)
    for j in range(T):
        c = targets[:, j]
        mean = (c.sum() if w is None else np.einsum("i,i->", w, c)) / sw
        np.subtract(c, mean, out=buf)
        var = (np.einsum("i,i->", buf, buf) if w is None else
               np.einsum("i,i,i->", w, buf, buf)) / sw
        sd[j], rms[j] = np.sqrt(var), np.sqrt(var + mean * mean)
    return np.maximum(sd, SCALE_FLOOR * rms), rms


def demean(problem: DemeanProblem, accelerate: bool = True,
           structure: Optional[FeStructure] = None) -> DemeanResult:
    """Demean every target column against the problem's fixed-effect structure.

    With two or more dimensions and ``accelerate`` set, dimension 1 is
    eliminated in closed form and the coefficients of dimensions 2..Q are
    found by conjugate gradients on their Schur complement A, preconditioned
    by block Jacobi on K or, for two weighted intercept-only dimensions, by
    A's own diagonal (``_schur_cg``); a sweep is the initial residual or one
    operator product on the cross-tables.  A column whose predicted
    products cost more than forming and factoring A restarts with a sparse
    LU factorization of A as the preconditioner; its products
    still count as sweeps, and forming and factoring A, once per call, is
    reported in ``factor`` (``FactorRecord``: A's order and nonzeros, the
    factors' nonzeros, the seconds spent and the products the first column
    made before it switched; ``refused`` when the estimate of A's nonzeros
    passed the budget and A was not formed).  Otherwise, and always with one
    dimension, plain alternating sweeps over the rows run to their fixed
    point; a sweep is one group-sum and one gather per dimension.  A column
    stops once the move a plain sweep would make (for CG: the sup norm of
    the residual preconditioned by block Jacobi on K) is at most ``tol``
    times its ``scale``, its weighted SD floored as the module doc says.
    Each target column runs its own iteration, so a batched run reproduces
    the single-column results bit for bit.  ``sweeps`` reports the slowest
    column's count and ``iterations`` its CG steps (sweeps - 1 in the plain
    mode); ``fe_coef`` the FE coefficients the residuals were formed with.  The residuals
    overwrite the problem's own target block.  ``structure`` carries the
    cross-tables, what the fit learned about factoring A and the warm start
    (where the last call ended) from one call to the next over the same
    dimensions, as the steps of an IRLS fit do; without it the call starts
    cold.
    """
    r = problem.targets
    n, T = r.shape
    if not problem.dims:
        return DemeanResult(residuals=r, converged=True)

    if structure is None:
        structure = FeStructure(problem.dims)
    elif structure.dims is not problem.dims:
        raise DemeanError("the FE structure belongs to other dimensions")
    works = [_DimWork(d, problem.weights, n) for d in problem.dims]
    bounds = [0]
    for wk in works[1:]:
        bounds.append(bounds[-1] + wk.G * wk.L)
    S = np.zeros((bounds[-1], T))
    if structure.state is not None and structure.state.shape == S.shape:
        S[:] = structure.state  # the warm start: where the last call ended
    coef0 = np.zeros((works[0].G * works[0].L, T))
    buf = np.empty(n)  # the one row buffer every gather goes through
    scale, rms = _column_scales(r, problem.weights, buf)  # before r is overwritten
    thr = np.maximum(problem.tol * scale, LEVEL_EPS * np.finfo(np.float64).eps * rms)
    if np.any(S):
        for j in range(T):
            for q, wk in enumerate(works[1:]):
                wk.subtract(S[bounds[q]:bounds[q + 1], j], r[:, j], buf)

    if accelerate and len(works) > 1:
        steps, converged, factor = _schur_cg(works, bounds, S, coef0, r, buf,
                                             thr, problem.max_iter, structure)
        sweeps = int(steps.max(initial=0)) + 1
    else:
        factor = None
        steps, converged = _plain_sweeps(works, bounds, S, coef0, r, buf,
                                         thr, problem.max_iter)
        sweeps = int(steps.max(initial=0))

    structure.state = S
    fe_coef = [coef0.reshape(works[0].G, works[0].L, T)] + [
        S[bounds[q]:bounds[q + 1]].reshape(wk.G, wk.L, T)
        for q, wk in enumerate(works[1:])]
    dropped = [(q, int(g), int(c)) for q, wk in enumerate(works)
               for g, c in zip(*np.nonzero(wk.dropped))]
    return DemeanResult(residuals=r, converged=bool(converged.all()), fe_coef=fe_coef,
                        dropped=dropped, sweeps=sweeps, factor=factor,
                        scale=scale)


# ---------------------------------------------------------------------------
# Fixed-effect coefficient recovery
# ---------------------------------------------------------------------------

def recover_fixef(result: DemeanResult, dims: list[FeDim],
                  combination: np.ndarray) -> tuple[list[np.ndarray], FixefReport]:
    """Per-dimension coefficient sets of sum_j c_j target_j: ``fe_coef @ c``.

    Intercept-carrying dimensions beyond the first are normalized so their
    first group's intercept is zero, the shifts being folded into the first
    intercept-carrying dimension.  Slope coefficients are left untouched.
    """
    coefs = [c @ combination for c in result.fe_coef]
    intercept_dims = [q for q, d in enumerate(dims) if d.intercept]
    if len(intercept_dims) > 1:
        base = intercept_dims[0]
        shift_total = 0.0
        for q in intercept_dims[1:]:
            shift = coefs[q][0, 0]
            coefs[q][:, 0] -= shift
            shift_total += shift
        coefs[base][:, 0] += shift_total
    report = FixefReport(free_constants=max(0, len(intercept_dims) - 1),
                         dropped=list(result.dropped))
    return coefs, report
