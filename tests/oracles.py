"""Independent oracles: dense dummy-variable solvers and textbook sandwiches.

Everything here goes through full dummy designs and numpy.linalg.lstsq (or
explicit loops), never through the package's demeaning path, so agreement is a
genuine cross-check.
"""

from __future__ import annotations

import numpy as np

from fehd.data import Dataset, NumericColumn, CategoricalColumn
from fehd.formula import FormulaError


def dummy_design(X, fe_specs):
    """Dense design [X | dummies and dummy-slope interactions].

    fe_specs: list of (codes, n_groups, slope_matrix_or_None, intercept_flag).
    """
    n = X.shape[0] if X.ndim == 2 else len(X)
    cols = [X] if X.size else []
    for codes, G, Z, intercept in fe_specs:
        D = np.zeros((n, G))
        D[np.arange(n), codes] = 1.0
        if intercept:
            cols.append(D)
        if Z is not None:
            for j in range(Z.shape[1]):
                cols.append(D * Z[:, j][:, None])
    return np.column_stack(cols) if cols else np.empty((n, 0))


def dummy_ols(y, X, fe_specs, weights=None):
    """OLS with explicit dummies; returns (gamma, residuals, df_resid)."""
    D = dummy_design(X, fe_specs)
    sw = np.sqrt(weights) if weights is not None else None
    Dw = D * sw[:, None] if sw is not None else D
    yw = y * sw if sw is not None else y
    beta, _, rank, _ = np.linalg.lstsq(Dw, yw, rcond=None)
    resid = y - D @ beta
    k_x = X.shape[1]
    return beta[:k_x], resid, len(y) - rank


def dummy_2sls(y, X, E, Z, fe_specs, weights=None):
    """2SLS with explicit dummies.

    Each endogenous column of E is regressed on [X | Z | dummies]; y is then
    regressed on [E_hat | X | dummies].  Returns (coef on [E_hat, X],
    residuals at the original E, E_hat).
    """
    sw = np.sqrt(weights) if weights is not None else np.ones(len(y))
    D1 = dummy_design(np.column_stack([X, Z]), fe_specs)
    E_hat = np.empty_like(E, dtype=float)
    for j in range(E.shape[1]):
        beta, *_ = np.linalg.lstsq(D1 * sw[:, None], E[:, j] * sw, rcond=None)
        E_hat[:, j] = D1 @ beta
    D2 = dummy_design(np.column_stack([E_hat, X]), fe_specs)
    beta, *_ = np.linalg.lstsq(D2 * sw[:, None], y * sw, rcond=None)
    k = E.shape[1] + X.shape[1]
    D_orig = dummy_design(np.column_stack([E, X]), fe_specs)
    return beta[:k], y - D_orig @ beta, E_hat


def dummy_residualize(M, fe_specs, weights=None):
    """Residuals of each column of M on the dummy design alone."""
    D = dummy_design(np.empty((M.shape[0], 0)), fe_specs)
    if D.shape[1] == 0:
        return M.copy()
    sw = np.sqrt(weights) if weights is not None else None
    Dw = D * sw[:, None] if sw is not None else D
    out = np.empty_like(M, dtype=float)
    for j in range(M.shape[1]):
        yw = M[:, j] * sw if sw is not None else M[:, j]
        beta, *_ = np.linalg.lstsq(Dw, yw, rcond=None)
        out[:, j] = M[:, j] - D @ beta
    return out


def dummy_irls(y, X, fe_specs, family="poisson", weights=None, tol=1e-10,
               max_iter=100):
    """IRLS with explicit dummies; returns the X-part coefficients."""
    n = len(y)
    w_user = weights if weights is not None else np.ones(n)
    D = dummy_design(X, fe_specs)
    if family == "poisson":
        eta = np.log(y + 0.1)
    elif family == "logit":
        eta = np.log((y + 0.5) / (1.5 - y))
    else:
        eta = y.astype(float).copy()
    dev = np.inf
    for _ in range(max_iter):
        if family == "poisson":
            mu = np.exp(eta)
            w_work = mu
            z = eta + (y - mu) / mu
            with np.errstate(divide="ignore", invalid="ignore"):
                t = np.where(y > 0, y * np.log(y / mu), 0.0)
            dev_new = 2 * np.sum(w_user * (t - (y - mu)))
        elif family == "logit":
            mu = 1 / (1 + np.exp(-eta))
            w_work = mu * (1 - mu)
            z = eta + (y - mu) / w_work
            m = np.clip(mu, 1e-12, 1 - 1e-12)
            dev_new = -2 * np.sum(w_user * (y * np.log(m) + (1 - y) * np.log(1 - m)))
        else:
            mu = eta
            w_work = np.ones(n)
            z = y.astype(float)
            dev_new = np.sum(w_user * (y - mu) ** 2)
        sw = np.sqrt(w_user * w_work)
        beta, *_ = np.linalg.lstsq(D * sw[:, None], z * sw, rcond=None)
        eta = D @ beta
        if abs(dev_new - dev) <= 1e-8 * (abs(dev_new) + 0.1):
            break
        dev = dev_new
    return beta[:X.shape[1]], eta


# ---------------------------------------------------------------------------
# Sandwich oracle: explicit loops over clusters / lags
# ---------------------------------------------------------------------------

def sandwich_iid(Xt, r, w, k_total):
    n = len(r)
    wv = w if w is not None else np.ones(n)
    A = Xt.T @ (Xt * wv[:, None])
    A_inv = np.linalg.inv(A)
    sigma2 = float(np.sum(wv * r * r)) / (n - k_total)
    return sigma2 * A_inv


def _bread_scores(Xt, r, w):
    n = len(r)
    wv = w if w is not None else np.ones(n)
    A_inv = np.linalg.inv(Xt.T @ (Xt * wv[:, None]))
    s = Xt * (wv * r)[:, None]
    return A_inv, s


def sandwich_hc1(Xt, r, w, k_total):
    n = len(r)
    A_inv, s = _bread_scores(Xt, r, w)
    meat = sum(np.outer(s[i], s[i]) for i in range(n))
    return A_inv @ meat @ A_inv * (n / (n - k_total))


def sandwich_cluster(Xt, r, w, k_total, groups):
    n = len(r)
    A_inv, s = _bread_scores(Xt, r, w)
    K = Xt.shape[1]
    meat = np.zeros((K, K))
    for g in np.unique(groups):
        sg = s[groups == g].sum(axis=0)
        meat += np.outer(sg, sg)
    G = len(np.unique(groups))
    c = (G / (G - 1)) * ((n - 1) / (n - k_total))
    return A_inv @ meat @ A_inv * c


def sandwich_twoway(Xt, r, w, k_total, g1, g2):
    n = len(r)
    A_inv, s = _bread_scores(Xt, r, w)
    K = Xt.shape[1]

    def cmeat(groups):
        meat = np.zeros((K, K))
        for g in np.unique(groups):
            sg = s[groups == g].sum(axis=0)
            meat += np.outer(sg, sg)
        G = len(np.unique(groups))
        return meat * (G / (G - 1)) * ((n - 1) / (n - k_total))

    inter = np.array([f"{a}|{b}" for a, b in zip(g1, g2)])
    V = A_inv @ (cmeat(g1) + cmeat(g2) - cmeat(inter)) @ A_inv
    V = (V + V.T) / 2
    evals, evecs = np.linalg.eigh(V)
    if (np.diag(V) < 0).any() and evals.min() < 0:
        evals = np.clip(evals, 0, None)
        V = (evecs * evals) @ evecs.T
        V = (V + V.T) / 2
    return V


def sandwich_nw(Xt, r, w, k_total, units, times, lag):
    n = len(r)
    A_inv, s = _bread_scores(Xt, r, w)
    K = Xt.shape[1]
    meat = np.zeros((K, K))
    for i in range(n):
        meat += np.outer(s[i], s[i])
    for l in range(1, lag + 1):
        wgt = 1 - l / (lag + 1)
        gam = np.zeros((K, K))
        for i in range(n):
            for j in range(n):
                if units[i] == units[j] and times[i] - times[j] == l:
                    gam += np.outer(s[i], s[j])
        meat += wgt * (gam + gam.T)
    return A_inv @ meat @ A_inv * (n / (n - k_total))


def sandwich_dk(Xt, r, w, k_total, times, lag):
    n = len(r)
    A_inv, s = _bread_scores(Xt, r, w)
    tvals = np.unique(times)
    H = {t: s[times == t].sum(axis=0) for t in tvals}
    K = Xt.shape[1]
    meat = np.zeros((K, K))
    for t in tvals:
        meat += np.outer(H[t], H[t])
    for l in range(1, lag + 1):
        wgt = 1 - l / (lag + 1)
        gam = np.zeros((K, K))
        for t in tvals:
            if t - l in H:
                gam += np.outer(H[t], H[t - l])
        meat += wgt * (gam + gam.T)
    GT = len(tvals)
    c = (GT / (GT - 1)) * ((n - 1) / (n - k_total))
    return A_inv @ meat @ A_inv * c


# ---------------------------------------------------------------------------
# Random instance generation
# ---------------------------------------------------------------------------

def connected_fe(rng, n, group_counts):
    """Random FE code arrays whose multipartite group graph is connected."""
    while True:
        codes = [ _dense_codes(rng, n, G) for G in group_counts ]
        if _is_connected(codes):
            return codes


def _dense_codes(rng, n, G):
    # every group appears at least once
    base = np.arange(G)
    extra = rng.integers(0, G, size=n - G)
    codes = np.concatenate([base, extra])
    rng.shuffle(codes)
    return codes


def _is_connected(codes_list) -> bool:
    if len(codes_list) == 1:
        return True  # rank of a single dummy block never depends on connectivity
    offs = []
    off = 0
    for c in codes_list:
        offs.append(off)
        off += c.max() + 1
    parent = list(range(off))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    n = len(codes_list[0])
    for i in range(n):
        first = codes_list[0][i] + offs[0]
        for q in range(1, len(codes_list)):
            union(first, codes_list[q][i] + offs[q])
    roots = {find(a) for a in range(off)}
    return len(roots) == 1


def random_instance(rng, n_max=500, max_fe=3, max_slopes=2, weighted=None):
    """One random (Dataset, formula) estimation problem plus its raw pieces."""
    n = int(rng.integers(60, n_max + 1))
    kx = int(rng.integers(1, 4))
    qfe = int(rng.integers(1, max_fe + 1))
    group_counts = [int(rng.integers(2, 13)) for _ in range(qfe)]
    codes = connected_fe(rng, n, group_counts)
    n_slopes = int(rng.integers(0, max_slopes + 1))
    X = rng.normal(size=(n, kx))
    slope_cols = rng.normal(size=(n, n_slopes)) if n_slopes else None
    y = X @ rng.normal(size=kx)
    fe_specs = []
    cols = {}
    fe_parts = []
    for q, (c, G) in enumerate(zip(codes, group_counts)):
        y = y + rng.normal(size=G)[c]
        cols[f"f{q}"] = NumericColumn(c.astype(float))
        term = f"f{q}"
        Zq = None
        if slope_cols is not None and q < n_slopes:
            zname = f"z{q}"
            cols[zname] = NumericColumn(slope_cols[:, q])
            y = y + rng.normal(size=G)[c] * slope_cols[:, q]
            term = f"f{q}[{zname}]"
            Zq = slope_cols[:, q][:, None]
        fe_parts.append(term)
        fe_specs.append((c, G, Zq, True))
    y = y + rng.normal(size=n)
    for k in range(kx):
        cols[f"x{k}"] = NumericColumn(X[:, k])
    cols["y"] = NumericColumn(y)
    if weighted is None:
        weighted = bool(rng.integers(0, 2))
    w = None
    if weighted:
        w = rng.uniform(0.5, 3.0, size=n)
        cols["w"] = NumericColumn(w)
    ds = Dataset(n_rows=n, columns=cols)
    formula = "y ~ " + " + ".join(f"x{k}" for k in range(kx)) + " | " + " + ".join(fe_parts)
    return ds, formula, y, X, fe_specs, w


def scipubs_like(seed=0):
    """1080-row researcher panel: 108 individuals x 10 years, 55 EU / 53 US."""
    rng = np.random.default_rng(seed)
    n_indiv, n_year = 108, 10
    n = n_indiv * n_year
    indiv = np.repeat(np.arange(1, n_indiv + 1), n_year)
    year = np.tile(np.arange(1, n_year + 1), n_indiv)
    is_eu = indiv <= 55
    indiv_fe = rng.normal(0, 2, n_indiv)[indiv - 1]
    year_fe = rng.normal(0, 1, n_year)[year - 1]
    policy = ((year - indiv % 7) > 3).astype(float)
    funding = np.round(np.clip(60 + 8 * policy + indiv_fe * 3 + rng.normal(0, 20, n), 0, None))
    articles = np.round(np.clip(
        0.1 * funding + indiv_fe + year_fe + rng.normal(0, 3, n) + 8, 0, None))
    eu_us = np.where(is_eu, "EU", "US")
    return Dataset(n_rows=n, columns={
        "articles": NumericColumn(articles),
        "funding": NumericColumn(funding),
        "eu_us": CategoricalColumn(
            codes=np.where(is_eu, 0, 1).astype(np.int32), levels=("EU", "US")),
        "policy": NumericColumn(policy),
        "indiv": NumericColumn(indiv.astype(float)),
        "year": NumericColumn(year.astype(float)),
    }, panel=("indiv", "year"))


# ---------------------------------------------------------------------------
# i() expansion, coded row by row
# ---------------------------------------------------------------------------

def _level_sort_key(v):
    if isinstance(v, (int, float, np.integer, np.floating)):
        return (0, float(v), "")
    return (1, 0.0, str(v))


def _is_missing(v) -> bool:
    return v is None or (isinstance(v, float) and not np.isfinite(v))


def _coerce_key(v):
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating, float)):
        f = float(v)
        return int(f) if f == int(f) else f
    if isinstance(v, (np.str_,)):
        return str(v)
    if isinstance(v, bytes):
        return v.decode()
    return v


def expand_i_rows(term, column, interacting=None):
    """``formula.expand_i`` coding each row's level in Python: names, columns
    and errors as the package gives them, by the plainest route."""
    values = np.asarray(column)
    keys = [None if _is_missing(v) else _coerce_key(v) for v in values.tolist()]

    bin_of = {}
    for label, members in term.bin:
        for m in members:
            bin_of[_coerce_key(m)] = label
    # a label sorts as its least member over all of its bins
    bin_min_key = {label: min(_level_sort_key(m) for lab, members in term.bin
                              if lab == label for m in members)
                   for label, _ in term.bin}
    binned = [None if v is None else bin_of.get(v, v) for v in keys]

    observed = {v for v in keys if v is not None}
    for label, members in term.bin:
        member_keys = {_coerce_key(m) for m in members}
        if label in observed - member_keys:
            raise FormulaError(
                f"i({term.var}): bin label {label!r} collides with an existing level")

    levels = sorted({v for v in binned if v is not None},
                    key=lambda v: bin_min_key.get(v, _level_sort_key(v)))
    if not levels:
        raise FormulaError(f"i({term.var}): no observed levels")

    if term.ref:
        ref_levels = []
        for r in term.ref:
            k = _coerce_key(r)
            if k not in levels:
                raise FormulaError(f"i({term.var}): unknown reference level {r!r}")
            ref_levels.append(k)
    else:
        ref_levels = [levels[0]]
    kept = [lv for lv in levels if lv not in ref_levels]

    level_code = {lv: k for k, lv in enumerate(levels)}
    codes = np.array([-1 if v is None else level_code[v] for v in binned], dtype=np.int64)

    out = []
    if term.interact is not None and term.interact_categorical:
        ivalues = np.asarray(interacting)
        ikeys = [None if _is_missing(v) else _coerce_key(v) for v in ivalues.tolist()]
        ilevels = sorted({v for v in ikeys if v is not None}, key=_level_sort_key)
        icode = {lv: k for k, lv in enumerate(ilevels)}
        icodes = np.array([-1 if v is None else icode[v] for v in ikeys], dtype=np.int64)
        for lv in kept:
            for ilv in ilevels:
                col = ((codes == level_code[lv]) & (icodes == icode[ilv])).astype(np.float64)
                col[(codes < 0) | (icodes < 0)] = np.nan
                out.append((f"{term.var}::{lv}:{term.interact}::{ilv}", col))
        return out

    z = None
    if term.interact is not None:
        z = np.asarray(interacting, dtype=np.float64)
    for lv in kept:
        col = (codes == level_code[lv]).astype(np.float64)
        col[codes < 0] = np.nan
        if z is not None:
            col = col * z
            name = f"{term.var}::{lv}:{term.interact}"
        else:
            name = f"{term.var}::{lv}"
        out.append((name, col))
    return out
