"""Residualization on fixed-effect dimensions via alternating closed-form solves.

One sweep updates every dimension in turn: pure-intercept dimensions get
weighted group means of the current partial residual, slope-augmented
dimensions get per-group normal-equation solves by Gaussian elimination with
partial pivoting.  Which solver runs depends on the problem:

* one dimension: a single closed-form pass;
* exactly two pure-intercept dimensions (weights allowed): conjugate gradients
  with a Jacobi preconditioner on the Schur complement of dimension 2, i.e.
  on the normal equations of dimension 2 after dimension 1 has been
  projected out (Gaure 2013; Correia 2017).  The plain sweep map on the
  dimension-2 coefficients is exactly one Jacobi step on that system, so the
  Krylov solve reaches the same fixed point in far fewer passes on poorly
  connected graphs.  The operator is applied through the weighted cross-table
  of the two dimensions, built once per call, so the iterations never walk
  the rows;
* otherwise (slopes, or three or more dimensions): the sweep map is iterated
  as a fixed-point problem on the coefficients of dimensions 2..Q (dimension
  1 is solved in closed form inside each sweep) and accelerated with the
  Irons-Tuck update.

Every solver counts its work in sweeps.  On the fixed-point paths a sweep is
one group-sum and one gather over the rows per dimension.  On the
conjugate-gradient path it is one product with the Schur complement, two
passes over the nonzeros of the cross-table (at most one per row), or the
initial residual.  All solvers stop a column when the move a plain sweep
would make from its current iterate is at most ``tol`` in the sup norm.  Each
target column runs its own iteration and is frozen the moment it converges,
so a batched run reproduces the single-column trajectories bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .data import FactorIndex

__all__ = [
    "FeDim",
    "DemeanProblem",
    "DemeanResult",
    "FixefReport",
    "irons_tuck_step",
    "sweep_once",
    "demean",
    "recover_fixef",
    "gauss_solve_batched",
]

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 10_000
PIVOT_RTOL = 1e-12


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
    targets: np.ndarray  # (n_used, n_targets) float64
    dims: list[FeDim]
    weights: Optional[np.ndarray] = None
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER

    def __post_init__(self):
        arr = np.asarray(self.targets, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[:, None]
        self.targets = np.asfortranarray(arr)  # cheap per-column access
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=np.float64)
            if (self.weights <= 0).any():
                raise DemeanError("weights must be strictly positive")
        if self.tol <= 0:
            raise DemeanError("tol must be positive")
        n = self.targets.shape[0]
        for d in self.dims:
            if len(d.index.group_of_row) != n:
                raise DemeanError("factor index length does not match targets")
            if d.slopes is not None and d.slopes.shape[0] != n:
                raise DemeanError("slope matrix length does not match targets")
            if d.n_coef_cols == 0:
                raise DemeanError("fixed-effect dimension with no intercept and no slopes")


@dataclass
class DemeanResult:
    residuals: np.ndarray  # (n_used, n_targets)
    iterations: int
    converged: bool
    fe_coef: Optional[list[np.ndarray]] = None  # per dim: (G_q, L_q, n_targets)
    dropped: list[tuple[int, int, int]] = field(default_factory=list)  # (dim, group, col)
    sweeps: int = 0


@dataclass
class FixefReport:
    free_constants: int
    dropped: list[tuple[int, int, int]]
    notes: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Batched per-group linear solves
# ---------------------------------------------------------------------------

def gauss_solve_batched(M: np.ndarray, B: np.ndarray,
                        rtol: float = PIVOT_RTOL) -> tuple[np.ndarray, np.ndarray]:
    """Solve M[g] x[g] = B[g] for every group by Gaussian elimination.

    Partial pivoting by rows; a pivot below ``rtol * max |diag|`` of its group
    marks that coefficient as dropped (fixed at 0) and elimination continues.
    ``M`` is (G, L, L), ``B`` is (G, L, R).  Returns (solution (G, L, R),
    dropped mask (G, L)).
    """
    A = np.array(M, dtype=np.float64, copy=True)
    b = np.array(B, dtype=np.float64, copy=True)
    if b.ndim == 2:
        b = b[:, :, None]
    G, L, _ = A.shape
    gid = np.arange(G)
    thresh = rtol * np.abs(A[:, np.arange(L), np.arange(L)]).max(axis=1)
    dropped = np.zeros((G, L), dtype=bool)

    for k in range(L):
        piv = k + np.abs(A[:, k:, k]).argmax(axis=1)
        swap = piv != k
        if swap.any():
            gi = gid[swap]
            pi = piv[swap]
            A[gi, k, :], A[gi, pi, :] = A[gi, pi, :].copy(), A[gi, k, :].copy()
            b[gi, k, :], b[gi, pi, :] = b[gi, pi, :].copy(), b[gi, k, :].copy()
        bad = np.abs(A[:, k, k]) <= thresh
        if bad.any():
            dropped[bad, k] = True
            A[bad, k, :] = 0.0
            A[bad, :, k] = 0.0
            A[bad, k, k] = 1.0
            b[bad, k, :] = 0.0
        if k + 1 < L:
            factor = A[:, k + 1:, k] / A[:, k, k][:, None]
            A[:, k + 1:, :] -= factor[:, :, None] * A[:, k, None, :]
            b[:, k + 1:, :] -= factor[:, :, None] * b[:, k, None, :]

    x = np.zeros_like(b)
    for k in range(L - 1, -1, -1):
        acc = b[:, k, :].copy()
        if k + 1 < L:
            acc -= np.einsum("gj,gjr->gr", A[:, k, k + 1:], x[:, k + 1:, :])
        x[:, k, :] = acc / A[:, k, k][:, None]
    x[dropped, :] = 0.0
    return x, dropped


# ---------------------------------------------------------------------------
# Irons-Tuck fixed-point acceleration
# ---------------------------------------------------------------------------

def _select_cols_f(arr: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Column subset of a tall matrix as a fresh F-order array (fast copies)."""
    idx = np.flatnonzero(keep)
    out = np.empty((arr.shape[0], len(idx)), order="F")
    for j, src in enumerate(idx):
        out[:, j] = arr[:, src]
    return out


def _it_extrapolate(beta: np.ndarray, f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """Irons-Tuck update from beta, F(beta), F(F(beta))."""
    d1 = f1 - beta
    d2 = f2 - f1
    dd = d2 - d1
    denom = float(np.dot(dd.ravel(), dd.ravel()))
    eps = 1e-14 * (1.0 + float(np.dot(d2.ravel(), d2.ravel())))
    if denom < eps:
        return f2
    coef = float(np.dot(d2.ravel(), dd.ravel())) / denom
    return f2 - coef * d2


def irons_tuck_step(beta: np.ndarray, F: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """One accelerated update: F(F(b)) - [dF(b).d2b / ||d2b||^2] dF(b)."""
    beta = np.asarray(beta, dtype=np.float64)
    f1 = np.asarray(F(beta), dtype=np.float64)
    f2 = np.asarray(F(f1), dtype=np.float64)
    return _it_extrapolate(beta, f1, f2)


# ---------------------------------------------------------------------------
# Sweep machinery
# ---------------------------------------------------------------------------

class _DimWork:
    """Precomputed per-dimension solve machinery (weights are fixed per run)."""

    def __init__(self, dim: FeDim, w: Optional[np.ndarray], n: int):
        self.g = dim.index.group_of_row
        self.G = dim.index.n_groups
        self.L = dim.n_coef_cols
        self.n = n
        self._buf = np.empty(n)
        self.simple = dim.slopes is None or dim.slopes.shape[1] == 0
        if self.simple and not dim.intercept:
            raise DemeanError("dimension with neither intercept nor slopes")
        if self.simple:
            self.wsum = np.bincount(self.g, weights=w, minlength=self.G)
            self.Z = None
            self.w = w
            self.dropped = np.zeros((self.G, 1), dtype=bool)
        else:
            Z = dim.design(n)
            self.Z = Z
            self.w = w
            wvec = w if w is not None else None
            M = np.empty((self.G, self.L, self.L))
            for a in range(self.L):
                za = Z[:, a]
                for c in range(a, self.L):
                    prod = za * Z[:, c]
                    if wvec is not None:
                        prod = prod * wvec
                    s = np.bincount(self.g, weights=prod, minlength=self.G)
                    M[:, a, c] = s
                    M[:, c, a] = s
            self.M = M
            self.dropped = None  # filled on first solve

    def group_sum(self, v: np.ndarray) -> np.ndarray:
        """Weighted per-group sums of one row vector (intercept dimensions)."""
        return np.bincount(self.g, weights=v if self.w is None else self.w * v,
                           minlength=self.G)

    def solve(self, r: np.ndarray) -> np.ndarray:
        """Coefficients (G, L, T) minimizing the weighted SSR of r per group.

        Because r is a residual, the same computation also yields coefficient
        increments when the current coefficients' contribution has already
        been removed from r (the group normal equations are linear).
        """
        T = r.shape[1]
        if self.simple:
            coef = np.empty((self.G, 1, T))
            for j in range(T):
                coef[:, 0, j] = self.group_sum(r[:, j]) / self.wsum
            return coef
        B = np.empty((self.G, self.L, T))
        for a in range(self.L):
            za = self.Z[:, a]
            for j in range(T):
                col = za * r[:, j] if self.w is None else self.w * za * r[:, j]
                B[:, a, j] = np.bincount(self.g, weights=col, minlength=self.G)
        coef, dropped = gauss_solve_batched(self.M, B)
        if self.dropped is None:
            self.dropped = dropped
        return coef

    def contribution(self, coef: np.ndarray) -> np.ndarray:
        """Per-row fitted part (n, T) implied by coefficients (G, L, T)."""
        if self.simple:
            return coef[self.g, 0, :]
        out = np.zeros((len(self.g), coef.shape[2]))
        gathered = coef[self.g]  # (n, L, T)
        for a in range(self.L):
            out += self.Z[:, a][:, None] * gathered[:, a, :]
        return out

    def subtract_contribution(self, coef: np.ndarray, r: np.ndarray):
        """r -= contribution(coef) column by column, without big temporaries."""
        buf = self._buf
        T = r.shape[1]
        if self.simple:
            for j in range(T):
                np.take(coef[:, 0, j], self.g, out=buf)
                r[:, j] -= buf
            return
        for j in range(T):
            cj = coef[:, :, j]
            col = r[:, j]
            for a in range(self.L):
                np.take(np.ascontiguousarray(cj[:, a]), self.g, out=buf)
                buf *= self.Z[:, a]
                col -= buf

    def update(self, coef_view: np.ndarray, r: np.ndarray):
        """One Gauss-Seidel step: add the increment to coef_view, update r."""
        d = self.solve(r)
        coef_view += d
        self.subtract_contribution(d, r)


def sweep_once(state: list[np.ndarray], problem: DemeanProblem) -> list[np.ndarray]:
    """One full update of every dimension's coefficients (Gauss-Seidel order).

    ``state`` holds one (G_q, L_q, T) array per dimension; returns the updated
    coefficient arrays.  Exposed mainly for tests and the plain-iteration mode.
    """
    works = [_DimWork(d, problem.weights, problem.targets.shape[0]) for d in problem.dims]
    r = problem.targets.copy()
    for q, wk in enumerate(works):
        if state[q] is not None and np.any(state[q]):
            r -= wk.contribution(state[q])
    new_state = []
    for q, wk in enumerate(works):
        if state[q] is not None and np.any(state[q]):
            r += wk.contribution(state[q])
        coef = wk.solve(r)
        r -= wk.contribution(coef)
        new_state.append(coef)
    return new_state


# ---------------------------------------------------------------------------
# Main driver
# ---------------------------------------------------------------------------

class _Driver:
    def __init__(self, problem: DemeanProblem):
        self.p = problem
        n = problem.targets.shape[0]
        self.works = [_DimWork(d, problem.weights, n) for d in problem.dims]
        self.Q = len(self.works)
        self.sizes = [(wk.G, wk.L) for wk in self.works]
        self.state_dims = list(range(1, self.Q))  # accelerated dimensions
        self.offsets = []
        off = 0
        for q in self.state_dims:
            G, L = self.sizes[q]
            self.offsets.append(off)
            off += G * L
        self.P = off

    def unflatten(self, S: np.ndarray) -> list[np.ndarray]:
        out = []
        for k, q in enumerate(self.state_dims):
            G, L = self.sizes[q]
            off = self.offsets[k]
            out.append(S[off:off + G * L].reshape(G, L, -1))
        return out

    def sweep_inplace(self, S: np.ndarray, coef0: np.ndarray, r: np.ndarray):
        """One full sweep via coefficient increments; mutates S, coef0 and r.

        Precondition: r == targets - contribution(coef0) - contributions(S).
        The same invariant holds on return with the updated coefficients.
        """
        self.works[0].update(coef0, r)
        for k, q in enumerate(self.state_dims):
            G, L = self.sizes[q]
            off = self.offsets[k]
            self.works[q].update(S[off:off + G * L].reshape(G, L, -1), r)

    def shift_residual(self, S_old: np.ndarray, S_new: np.ndarray, r: np.ndarray):
        """Update r in place for a state jump (after an extrapolation)."""
        dS = S_new - S_old
        for k, q in enumerate(self.state_dims):
            G, L = self.sizes[q]
            off = self.offsets[k]
            self.works[q].subtract_contribution(
                dS[off:off + G * L].reshape(G, L, -1), r)


# ---------------------------------------------------------------------------
# Two-FE conjugate gradients
# ---------------------------------------------------------------------------

def _schur_pcg(drv: _Driver, S: np.ndarray, coef0: np.ndarray, r: np.ndarray,
               tol: float, max_iter: int) -> tuple[np.ndarray, np.ndarray]:
    """Jacobi-preconditioned CG on the dimension-2 Schur complement, per column.

    With D1, D2 the dummy matrices of the two dimensions, W the weights and P1
    the W-projection on D1's columns, the dimension-2 coefficients b solve
    A b = D2'W (I - P1) y with A = D2'W (I - P1) D2.  Through the cross-table
    C = D1'W D2, built once per call, A p = W2 p - C' (C p / W1), where W1 and
    W2 are the group weights: a product costs two passes over the nonzeros of
    C (the observed group pairs, at most n of them) and none over the rows.
    The preconditioner is D = diag(W2), so D^-1 (c - A b) is exactly the move
    a plain sweep would make from b; a column stops once its sup norm is at
    most ``tol``.  Forming the initial residual counts as one sweep and each
    product as one sweep.  The dimension-1 coefficients follow the iterate in
    coefficient space (a = a0 - C (b - b0) / W1); the rows are read once to
    form the initial residual and written once at the end, with the residuals
    y - D2 b - D1 a.

    Precondition: r == targets - D2 S.  Mutates S, coef0 and r in place
    (r becomes the residuals).  Returns per-column (CG steps, converged).
    """
    w1, w2 = drv.works
    # C = D1'W D2, the summed weight of each observed group pair; without
    # weights the row buffer holds the unit weights while C is built
    buf = np.ones(w1.n) if w1.w is None else np.empty(w1.n)
    C = sp.csr_matrix((buf if w1.w is None else w1.w, (w1.g, w2.g)),
                      shape=(w1.G, w2.G))
    Ct = C.T  # CSC view of the same arrays
    T = r.shape[1]
    steps = np.zeros(T, dtype=np.int64)
    converged = np.zeros(T, dtype=bool)
    for j in range(T):
        e = r[:, j]
        db = np.zeros(w2.G)
        a = w1.group_sum(e) / w1.wsum
        res = w2.group_sum(e) - Ct @ a
        z = res / w2.wsum
        p = z.copy()
        rz = float(np.dot(res, z))
        k = 0
        while k < max_iter and np.abs(z).max() > tol:
            m = (C @ p) / w1.wsum
            Ap = w2.wsum * p - Ct @ m
            k += 1
            pAp = float(np.dot(p, Ap))
            if not pAp > 0.0:
                break  # no descent direction left: report the column unconverged
            alpha = rz / pAp
            db += alpha * p
            a -= alpha * m
            res -= alpha * Ap
            z = res / w2.wsum
            rz_new = float(np.dot(res, z))
            p = z + (rz_new / rz) * p
            rz = rz_new
        np.take(db, w2.g, out=buf)
        e -= buf
        np.take(a, w1.g, out=buf)
        e -= buf
        S[:, j] += db
        coef0[:, 0, j] = a
        steps[j] = k
        converged[j] = np.abs(z).max() <= tol
    return steps, converged


def demean(problem: DemeanProblem, accelerate: bool = True,
           keep_coefs: bool = True,
           init_state: Optional[np.ndarray] = None,
           consume_targets: bool = False) -> DemeanResult:
    """Demean every target column against the problem's fixed-effect structure.

    Single-dimension problems are solved in one closed-form pass.  With two
    pure-intercept dimensions (weighted or not) and ``accelerate`` set, the
    dimension-2 coefficients are found by Jacobi-preconditioned conjugate
    gradients on their Schur complement; there one sweep is the initial
    residual or one operator product on the cross-table.  Otherwise the
    coefficients of dimensions 2..Q are iterated to their fixed point,
    Irons-Tuck accelerated unless ``accelerate`` is False; there one sweep is
    one application of the sweep map.  Each target converges independently
    (sup-norm move of a plain sweep <= tol) and is frozen once converged;
    ``sweeps`` reports the slowest column's sweep count.  ``init_state``
    warm-starts the coefficients of dimensions 2..Q (``fe_coef[1:]``
    flattened to (sum G_q L_q, n_targets)).
    ``consume_targets`` lets the solver reuse (and destroy) the problem's
    target buffer; only set it on throwaway problems.
    """
    drv = _Driver(problem)
    targets = problem.targets
    n, T = targets.shape

    if drv.Q == 0:
        return DemeanResult(residuals=targets.copy(), iterations=0, converged=True,
                            fe_coef=[] if keep_coefs else None)

    if drv.Q == 1:
        wk = drv.works[0]
        coef = wk.solve(targets)
        resid = targets - wk.contribution(coef)
        dropped = _collect_dropped(drv)
        return DemeanResult(residuals=resid, iterations=0, converged=True,
                            fe_coef=[coef] if keep_coefs else None,
                            dropped=dropped, sweeps=1)

    tol = problem.tol
    max_iter = problem.max_iter

    S = np.zeros((drv.P, T)) if init_state is None else \
        np.array(init_state, dtype=np.float64, copy=True)
    G0, L0 = drv.sizes[0]
    coef0 = np.zeros((G0, L0, T))
    # F-order for contiguous per-column views in the sweeps; copied unless the
    # caller explicitly hands over ownership of the target buffer
    if consume_targets and targets.flags.f_contiguous:
        r = targets
    else:
        r = np.array(targets, order="F", copy=True)
    if init_state is not None and np.any(S):
        drv.shift_residual(np.zeros_like(S), S, r)

    if accelerate and drv.Q == 2 and all(wk.simple for wk in drv.works):
        steps, converged = _schur_pcg(drv, S, coef0, r, tol, max_iter)
        return DemeanResult(residuals=r,
                            iterations=int(steps.max(initial=0)),
                            converged=bool(converged.all()),
                            fe_coef=[coef0] + drv.unflatten(S) if keep_coefs else None,
                            dropped=_collect_dropped(drv),
                            sweeps=int(steps.max(initial=0)) + 1)

    residuals = np.empty_like(targets, order="F")
    final_S = np.empty_like(S)
    final_coef0 = np.empty_like(coef0)
    active = np.arange(T)
    sweeps = 0
    iterations = np.zeros(T, dtype=np.int64)
    target_sweeps = np.zeros(T, dtype=np.int64)
    converged = np.zeros(T, dtype=bool)

    def freeze(local_idx: np.ndarray, S_act, coef0_act, r_act):
        nonlocal active
        for li in local_idx:
            t = active[li]
            residuals[:, t] = r_act[:, li]
            final_S[:, t] = S_act[:, li]
            final_coef0[:, :, t] = coef0_act[:, :, li]
            converged[t] = True
            iterations[t] = max(target_sweeps[t] - 1, 0)
        keep = np.ones(len(active), dtype=bool)
        keep[local_idx] = False
        active = active[keep]
        return keep

    # Each target column follows the exact (F, check, F, check, extrapolate)
    # cycle it would follow alone: freezing one column never changes the
    # phase of the others, so batched and standalone runs agree bit for bit.
    while len(active) and sweeps < max_iter:
        S_base = S.copy()
        drv.sweep_inplace(S, coef0, r)  # S is now F(S_base)
        sweeps += 1
        target_sweeps[active] += 1
        delta1 = np.abs(S - S_base).max(axis=0)
        done = np.flatnonzero(delta1 <= tol)
        if len(done):
            keep = freeze(done, S, coef0, r)
            S, S_base, coef0, r = S[:, keep], S_base[:, keep], \
                coef0[:, :, keep], _select_cols_f(r, keep)
            if not len(active):
                break
        if not accelerate:
            continue
        S_mid = S.copy()
        drv.sweep_inplace(S, coef0, r)  # S is now F(F(S_base))
        sweeps += 1
        target_sweeps[active] += 1
        delta2 = np.abs(S - S_mid).max(axis=0)
        done = np.flatnonzero(delta2 <= tol)
        if len(done):
            keep = freeze(done, S, coef0, r)
            S, S_base, S_mid, coef0, r = S[:, keep], S_base[:, keep], \
                S_mid[:, keep], coef0[:, :, keep], _select_cols_f(r, keep)
            if not len(active):
                break
        S_new = np.empty_like(S)
        for j in range(S.shape[1]):
            S_new[:, j] = _it_extrapolate(S_base[:, j], S_mid[:, j], S[:, j])
        drv.shift_residual(S, S_new, r)
        S = S_new

    all_converged = bool(converged.all())
    if len(active):
        # iteration cap reached: finish the stragglers with one last sweep
        drv.sweep_inplace(S, coef0, r)
        for li, t in enumerate(active):
            residuals[:, t] = r[:, li]
            final_S[:, t] = S[:, li]
            final_coef0[:, :, t] = coef0[:, :, li]
            iterations[t] = target_sweeps[t]
        active = np.array([], dtype=np.int64)

    fe_coef = None
    if keep_coefs:
        fe_coef = [final_coef0] + drv.unflatten(final_S)
    return DemeanResult(residuals=residuals,
                        iterations=int(iterations.max(initial=0)),
                        converged=all_converged,
                        fe_coef=fe_coef,
                        dropped=_collect_dropped(drv),
                        sweeps=sweeps)


def _collect_dropped(drv: _Driver) -> list[tuple[int, int, int]]:
    dropped = []
    for q, wk in enumerate(drv.works):
        if wk.dropped is None:
            continue
        for g, c in zip(*np.nonzero(wk.dropped)):
            dropped.append((q, int(g), int(c)))
    return dropped


# ---------------------------------------------------------------------------
# Fixed-effect coefficient recovery
# ---------------------------------------------------------------------------

def recover_fixef(result: DemeanResult, problem: DemeanProblem,
                  target: int = 0) -> tuple[list[np.ndarray], FixefReport]:
    """Per-dimension coefficient sets for one target column.

    Intercept-carrying dimensions beyond the first are normalized so their
    first group's intercept is zero, the shifts being folded into the first
    intercept-carrying dimension.  Slope coefficients are left untouched.
    """
    if result.fe_coef is None:
        raise DemeanError("fe_coef not retained; rerun demean with keep_coefs=True")
    coefs = [np.array(c[:, :, target], copy=True) for c in result.fe_coef]
    intercept_dims = [q for q, d in enumerate(problem.dims) if d.intercept]
    notes = []
    if len(intercept_dims) > 1:
        base = intercept_dims[0]
        shift_total = 0.0
        for q in intercept_dims[1:]:
            shift = coefs[q][0, 0]
            coefs[q][:, 0] -= shift
            shift_total += shift
        coefs[base][:, 0] += shift_total
        notes.append(
            f"{len(intercept_dims) - 1} intercept dimension(s) normalized to zero "
            f"at their first group; constants folded into dimension {base}")
    report = FixefReport(free_constants=max(0, len(intercept_dims) - 1),
                         dropped=list(result.dropped), notes=notes)
    return coefs, report
