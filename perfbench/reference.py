"""Reference computations the benchmark checks fehd's outputs against.

Nothing here imports fehd.  Fixed effects are projected out by eliminating
the first dimension (the individual) in closed form and solving the remaining
dimensions' Schur complement, held as an explicit sparse matrix, by
Jacobi-preconditioned conjugate gradients to a relative residual of 1e-13,
far tighter than the program's stopping rule.  Each projection then checks its
own normal equations.  Variances are the textbook sandwiches at fehd's
documented small-sample conventions (K = K_vars + K_fe).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

CG_RTOL = 1e-13
# largest accepted normal-equation residual of a reference projection, as a
# share of the sum of the absolute terms it is made of
SELF_CHECK_RTOL = 1e-9


class ReferenceError(RuntimeError):
    pass


@dataclass(frozen=True)
class FeDim:
    """One fixed-effect dimension: dense group codes, an intercept per group
    and optional slope columns."""
    codes: np.ndarray                    # int, 0 .. n_groups - 1
    slopes: Optional[np.ndarray] = None  # (n, L) or None

    @property
    def n_groups(self) -> int:
        return int(self.codes.max()) + 1


def dense_codes(values: np.ndarray) -> np.ndarray:
    """Group codes 0..G-1 of an integer-valued column."""
    return np.unique(values, return_inverse=True)[1].ravel()


def _dummies(dim: FeDim) -> sp.csr_matrix:
    n = len(dim.codes)
    rows = np.arange(n)
    blocks = [sp.csr_matrix((np.ones(n), (rows, dim.codes)), shape=(n, dim.n_groups))]
    if dim.slopes is not None:
        for j in range(dim.slopes.shape[1]):
            blocks.append(sp.csr_matrix((dim.slopes[:, j], (rows, dim.codes)),
                                        shape=(n, dim.n_groups)))
    return sp.hstack(blocks, format="csr")


class FeProjector:
    """Weighted residuals of columns on the span of fixed-effect dummies.

    ``dims[0]`` must be a pure-intercept dimension; it is eliminated in closed
    form.  The dummies of the remaining dimensions form B, and their
    coefficients solve S b = B'W(I - P1) y with the Schur complement
    S = B'WB - B'WD1 (D1'WD1)^-1 D1'WB.  S is built once, so projecting more
    columns costs one CG solve each.
    """

    def __init__(self, dims: Sequence[FeDim], weights: Optional[np.ndarray] = None):
        first = dims[0]
        if first.slopes is not None:
            raise ReferenceError("the first dimension must be a plain intercept")
        self.w = np.ones(len(first.codes)) if weights is None else np.asarray(weights, float)
        self.c1 = first.codes
        self.d1 = np.bincount(self.c1, weights=self.w, minlength=first.n_groups)
        self.D1 = _dummies(first)
        self.B = (sp.hstack([_dummies(d) for d in dims[1:]], format="csr")
                  if len(dims) > 1 else None)
        self.all_dummies = sp.hstack([self.D1] + ([self.B] if self.B is not None else []),
                                     format="csr")
        if self.B is not None:
            WB = sp.diags(self.w) @ self.B
            E = (self.D1.T @ WB).tocsr()
            self.WB = WB
            self.S = (self.B.T @ WB - E.T @ sp.diags(1.0 / self.d1) @ E).tocsr()
            diag = self.S.diagonal()
            inv = np.where(diag > 0, 1.0 / np.where(diag > 0, diag, 1.0), 0.0)
            self.precond = sp.diags(inv)

    def _within_first(self, v: np.ndarray) -> np.ndarray:
        a = np.bincount(self.c1, weights=self.w * v, minlength=len(self.d1)) / self.d1
        return v - a[self.c1]

    def residualize(self, M: np.ndarray) -> np.ndarray:
        """Residuals (n, T) of every column of M; raises if a solve is inexact."""
        M = np.asarray(M, dtype=np.float64)
        one = M.ndim == 1
        M2 = M[:, None] if one else M
        out = np.empty_like(M2)
        for j in range(M2.shape[1]):
            y = M2[:, j]
            if self.B is None:
                e = self._within_first(y)
            else:
                c = self.WB.T @ self._within_first(y)
                b = np.zeros(self.S.shape[0])
                if np.any(c):
                    b = spla.cg(self.S, c, rtol=CG_RTOL, atol=0.0,
                                maxiter=50 * self.S.shape[0], M=self.precond)[0]
                e = self._within_first(y - self.B @ b)
            self.check_normal_equations(y, e)
            out[:, j] = e
        return out[:, 0] if one else out

    def check_normal_equations(self, y: np.ndarray, e: np.ndarray) -> float:
        """Relative residual of D'W e = 0; raises above SELF_CHECK_RTOL."""
        num = np.abs(self.all_dummies.T @ (self.w * e)).max()
        den = (abs(self.all_dummies).T @ np.abs(self.w * y)).max()
        rel = float(num / den) if den > 0 else float(num)
        if not rel <= SELF_CHECK_RTOL:
            raise ReferenceError(f"reference projection inexact: normal-equation "
                                 f"residual {rel:.2e} > {SELF_CHECK_RTOL:.0e}")
        return rel


def n_components(dims: Sequence[FeDim]) -> int:
    """Connected components of the graph joining the levels met on a row."""
    if len(dims) == 1:
        return 1
    offsets = np.cumsum([0] + [d.n_groups for d in dims])
    a = np.concatenate([dims[0].codes] * (len(dims) - 1))
    b = np.concatenate([d.codes + off for d, off in zip(dims[1:], offsets[1:])])
    g = sp.coo_matrix((np.ones(len(a)), (a, b)), shape=(offsets[-1], offsets[-1]))
    return int(connected_components(g, directed=False)[0])


def k_fe(dims: Sequence[FeDim]) -> int:
    """Fixed-effect parameters counted fehd's way on a connected FE graph."""
    if n_components(dims) != 1:
        raise ReferenceError("FE graph is not connected; the K_fe convention needs one component")
    total = sum(d.n_groups * (1 + (0 if d.slopes is None else d.slopes.shape[1]))
                for d in dims)
    return total - (len(dims) - 1)


# ---------------------------------------------------------------------------
# Least squares and sandwiches on demeaned columns
# ---------------------------------------------------------------------------

def ols(Xt: np.ndarray, yt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(coefficients, residuals) of demeaned y on demeaned X by QR least squares."""
    beta = np.linalg.lstsq(Xt, yt, rcond=None)[0]
    return beta, yt - Xt @ beta


def _meat(scores: np.ndarray, groups: np.ndarray) -> tuple[np.ndarray, int]:
    codes = dense_codes(groups)
    G = int(codes.max()) + 1
    sums = np.zeros((G, scores.shape[1]))
    np.add.at(sums, codes, scores)
    return sums.T @ sums, G


def vcov_iid(bread_X: np.ndarray, r: np.ndarray, df_resid: int) -> np.ndarray:
    return float(r @ r) / df_resid * np.linalg.inv(bread_X.T @ bread_X)


def vcov_cluster(bread_X: np.ndarray, r: np.ndarray, k_total: int,
                 groups: np.ndarray) -> np.ndarray:
    n = len(r)
    A_inv = np.linalg.inv(bread_X.T @ bread_X)
    meat, G = _meat(bread_X * r[:, None], groups)
    c = (G / (G - 1)) * ((n - 1) / (n - k_total))
    return A_inv @ meat @ A_inv * c


def vcov_twoway(bread_X: np.ndarray, r: np.ndarray, k_total: int,
                g1: np.ndarray, g2: np.ndarray) -> np.ndarray:
    """Cameron-Gelbach-Miller two-way clustering; negative eigenvalues clamped."""
    n = len(r)
    A_inv = np.linalg.inv(bread_X.T @ bread_X)
    scores = bread_X * r[:, None]
    c1, c2 = dense_codes(g1), dense_codes(g2)
    inter = c1.astype(np.int64) * (int(c2.max()) + 1) + c2
    meat = np.zeros((scores.shape[1], scores.shape[1]))
    for groups, sign in ((c1, 1.0), (c2, 1.0), (inter, -1.0)):
        m, G = _meat(scores, groups)
        meat += sign * m * (G / (G - 1)) * ((n - 1) / (n - k_total))
    V = A_inv @ meat @ A_inv
    V = (V + V.T) / 2
    if (np.diag(V) < 0).any():
        evals, evecs = np.linalg.eigh(V)
        V = (evecs * np.clip(evals, 0, None)) @ evecs.T
        V = (V + V.T) / 2
    return V


def tsls(yt: np.ndarray, exog_t: np.ndarray, endo_t: np.ndarray,
         inst_t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Textbook 2SLS on demeaned columns.

    Returns (coefficients ordered [endogenous..., exogenous...], structural
    residuals at the observed endogenous values, second-stage design with the
    first-stage fitted endogenous columns).
    """
    Z = np.column_stack([exog_t, inst_t])
    fitted = Z @ np.linalg.lstsq(Z, endo_t, rcond=None)[0]
    D = np.column_stack([fitted, exog_t])
    gamma = np.linalg.lstsq(D, yt, rcond=None)[0]
    r = yt - np.column_stack([endo_t, exog_t]) @ gamma
    return gamma, r, D
