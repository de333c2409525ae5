"""Checks of every recorded operation against computations made apart from fehd.

Bounds come from the program's tolerances and from the standard errors, not
from any saved output:

* Coefficients must lie within ``COEF_SE_SHARE`` of their reference standard
  error: a smaller error moves no t statistic by more than 0.001.
* OLS residuals must lie within ``RESID_SHARE`` of the residual standard
  deviation of the reference fit.
* Standard errors are sandwiches of the demeaned columns and residuals, so
  column errors of ``RESID_SHARE`` move them by about twice that share;
  ``SE_RTOL`` allows twice as much again.
* Poisson: the IRLS loop stops once the deviance moves by at most
  ``GLM_TOL * (deviance + 0.1)``, which bounds the Newton decrement lambda of
  the last step, and with it every score component s_k by
  sqrt(I_kk) * lambda (I the Fisher information).  Inexact demeaning shifts
  the linear predictor by up to ``ETA_TOL``, which moves s_k by at most
  ``ETA_TOL * sum(mu |d eta / d theta_k|)``.  The bound used is twice the
  first term plus the second.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

import reference as ref
from workloads import DEMEAN_TOL, GLM_TOL, Workload

COEF_SE_SHARE = 1e-3
RESID_SHARE = 1e-3
SE_RTOL = 4 * RESID_SHARE
# the demeaning stops on a plain sweep's move of DEMEAN_TOL; the real error is
# that move over the sweep map's spectral gap, taken here to be at least 1e-3
ETA_TOL = 1e3 * DEMEAN_TOL


def parse_formula(formula: str) -> tuple[str, list[str], list[tuple[str, Optional[str]]]]:
    """(lhs, regressors, [(factor, slope or None)]) of 'y ~ a + b | f1 + f2[s]'."""
    lhs, rest = (s.strip() for s in formula.split("~", 1))
    rhs, fe = rest.split("|", 1)
    xs = [t.strip() for t in rhs.split("+")]
    fes = []
    for term in fe.split("+"):
        m = re.fullmatch(r"\s*(\w+)(?:\[(\w+)\])?\s*", term)
        if m is None:
            raise ValueError(f"cannot read fixed-effect term {term!r}")
        fes.append((m.group(1), m.group(2)))
    return lhs, xs, fes


def fe_dims(cols: dict, fes) -> list[ref.FeDim]:
    return [ref.FeDim(ref.dense_codes(cols[f]),
                      slopes=cols[s][:, None] if s else None) for f, s in fes]


@dataclass
class OlsReference:
    coef: np.ndarray
    se: np.ndarray
    resid: np.ndarray
    sigma: float


def ols_reference(cols: dict, formula: str) -> OlsReference:
    lhs, xs, fes = parse_formula(formula)
    dims = fe_dims(cols, fes)
    M = ref.FeProjector(dims).residualize(np.column_stack([cols[lhs]] + [cols[x] for x in xs]))
    beta, r = ref.ols(M[:, 1:], M[:, 0])
    df = len(r) - len(xs) - ref.k_fe(dims)
    se = np.sqrt(np.diag(ref.vcov_iid(M[:, 1:], r, df)))
    return OlsReference(beta, se, r, float(np.sqrt(r @ r / df)))


def check_ols(rec: dict, output: np.ndarray, formula: str, r: OlsReference) -> list[str]:
    _, xs, _ = parse_formula(formula)
    if rec["coef_names"] != xs:
        return [f"coefficients {rec['coef_names']} != {xs}"]
    bad = []
    coef = np.asarray(rec["coef"])
    dev = np.abs(coef - r.coef)
    if not np.all(dev <= COEF_SE_SHARE * r.se):
        bad.append(f"coefficients off by {dev / r.se} standard errors")
    rdev = float(np.abs(output - r.resid).max())
    if not rdev <= RESID_SHARE * r.sigma:
        bad.append(f"residuals off by {rdev:.3g} (sigma {r.sigma:.3g})")
    return bad


@dataclass
class PoissonReference:
    y: np.ndarray
    X: np.ndarray
    groups: list[np.ndarray]
    projector: ref.FeProjector


def poisson_reference(cols: dict, formula: str) -> PoissonReference:
    lhs, xs, fes = parse_formula(formula)
    dims = fe_dims(cols, fes)
    return PoissonReference(cols[lhs], np.column_stack([cols[x] for x in xs]),
                            [d.codes for d in dims], ref.FeProjector(dims))


def poisson_deviance(y: np.ndarray, mu: np.ndarray) -> float:
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(y > 0, y * np.log(y / mu), 0.0)
    return float(2.0 * np.sum(t - (y - mu)))


def check_poisson(rec: dict, mu: np.ndarray, formula: str, r: PoissonReference) -> list[str]:
    _, xs, _ = parse_formula(formula)
    if rec["coef_names"] != xs:
        return [f"coefficients {rec['coef_names']} != {xs}"]
    if not rec["irls_converged"]:
        return ["IRLS reported no convergence"]
    if not (np.all(np.isfinite(mu)) and np.all(mu > 0)):
        return ["fitted means are not all positive and finite"]
    bad = []
    lam = 2.0 * np.sqrt(GLM_TOL * (poisson_deviance(r.y, mu) + 0.1))
    e = r.y - mu
    for q, g in enumerate(r.groups):
        score = np.bincount(g, weights=e)
        info = np.bincount(g, weights=mu)
        excess = np.abs(score) - (np.sqrt(info) * lam + ETA_TOL * info)
        if excess.max() > 0:
            bad.append(f"FE dimension {q}: {int((excess > 0).sum())} group scores "
                       f"exceed their bound")
    score = r.X.T @ e
    bound = np.sqrt((r.X ** 2).T @ mu) * lam + ETA_TOL * (np.abs(r.X).T @ mu)
    if np.any(np.abs(score) > bound):
        bad.append(f"X'(y - mu) = {score} exceeds {bound}")
    # log mu - X beta must be a sum of fixed effects
    v = np.log(mu) - r.X @ np.asarray(rec["coef"])
    off_span = float(np.abs(r.projector.residualize(v)).max())
    if not off_span <= 2 * ETA_TOL:
        bad.append(f"log(mu) - X beta lies {off_span:.3g} from the FE span")
    return bad


# ---------------------------------------------------------------------------
# CLI session
# ---------------------------------------------------------------------------

class CliReference:
    """Reference fits for the JSON tables of the CLI operations, computed once each."""

    def __init__(self, cols: dict):
        self.cols = cols
        self.n = len(cols["y"])
        self._projectors: dict[tuple, tuple] = {}
        self._columns: dict[tuple, np.ndarray] = {}
        self._models: dict[tuple, dict] = {}

    def demeaned(self, fes: tuple, name: str) -> np.ndarray:
        if fes not in self._projectors:
            dims = fe_dims(self.cols, [(f, None) for f in fes])
            self._projectors[fes] = (ref.FeProjector(dims), ref.k_fe(dims))
        if (fes, name) not in self._columns:
            self._columns[fes, name] = self._projectors[fes][0].residualize(self.cols[name])
        return self._columns[fes, name]

    def model(self, m: dict) -> dict:
        """Reference coefficients and standard errors of one JSON model."""
        fes = tuple(m["fixed_effects"])
        names = list(m["coefficients"])
        key = (m["family"], m["lhs"], tuple(names), fes, m["se_type"])
        if key in self._models:
            return self._models[key]
        D = {c: self.demeaned(fes, c) for c in
             [m["lhs"]] + [c[len("fit_"):] if c.startswith("fit_") else c for c in names]
             + (["z"] if m["family"] == "2sls" else [])}
        if m["family"] == "2sls":
            endo = [c[len("fit_"):] for c in names if c.startswith("fit_")]
            exog = [c for c in names if not c.startswith("fit_")]
            coef, r, bread = ref.tsls(D[m["lhs"]], np.column_stack([D[c] for c in exog]),
                                      np.column_stack([D[c] for c in endo]), D["z"][:, None])
        else:
            bread = np.column_stack([D[c] for c in names])
            coef, r = ref.ols(bread, D[m["lhs"]])
        k = len(names) + self._projectors[fes][1]
        by = re.fullmatch(r"by: (\w+)(?: & (\w+))?", m["se_type"])
        if m["se_type"] == "IID":
            V = ref.vcov_iid(bread, r, self.n - k)
        elif by is not None and by.group(2) is None:
            V = ref.vcov_cluster(bread, r, k, self.cols[by.group(1)])
        elif by is not None:
            V = ref.vcov_twoway(bread, r, k, self.cols[by.group(1)], self.cols[by.group(2)])
        else:
            raise ValueError(f"no reference for standard errors {m['se_type']!r}")
        y = self.cols[m["lhs"]]
        out = {"coef": coef, "se": np.sqrt(np.diag(V)), "k_total": k, "ssr": float(r @ r),
               "abs_resid": float(np.abs(r).sum()), "sst": float(((y - y.mean()) ** 2).sum())}
        self._models[key] = out
        return out


def expected_cli_models(op_name: str) -> list[tuple]:
    """(lhs, coefficient names, fixed effects, se_type) of every JSON model."""
    if op_name == "multi":
        return [(lhs, xs, fes, se)
                for lhs in ("y", "y2")
                for fes in (("indiv_id", "firm_id"), ("indiv_id", "firm_id", "year"))
                for xs in (("x1",), ("x1", "x2"))
                for se in ("IID", "by: firm_id", "by: indiv_id & firm_id")]
    return [("y3", ("fit_xe", "x2"), ("indiv_id", "firm_id"), "by: firm_id")]


def check_cli(rec: dict, op_name: str, r: CliReference) -> list[str]:
    if rec.get("code") != 0:
        return [f"exit code {rec.get('code')}: {rec.get('stderr', '')[-500:]}"]
    try:
        models = json.loads(rec["stdout"])["models"]
    except (ValueError, KeyError) as exc:
        return [f"unreadable JSON output: {exc}"]
    got = sorted((m["lhs"], tuple(m["coefficients"]), tuple(m["fixed_effects"]), m["se_type"])
                 for m in models)
    if got != sorted(expected_cli_models(op_name)):
        return [f"models {got} are not the expected ones"]
    bad = []
    for m in models:
        where = f"{m['lhs']} ~ {list(m['coefficients'])} | {m['fixed_effects']} [{m['se_type']}]"
        want = r.model(m)
        est = np.array([c["estimate"] for c in m["coefficients"].values()])
        se = np.array([c["se"] for c in m["coefficients"].values()])
        if not np.all(np.abs(est - want["coef"]) <= COEF_SE_SHARE * want["se"]):
            bad.append(f"{where}: estimates {est} != {want['coef']}")
        if not np.all(np.abs(se - want["se"]) <= SE_RTOL * want["se"]):
            bad.append(f"{where}: standard errors {se} != {want['se']}")
        if m["nobs"] != r.n:
            bad.append(f"{where}: nobs {m['nobs']} != {r.n}")
        if m["df_resid"] != r.n - want["k_total"]:
            bad.append(f"{where}: df_resid {m['df_resid']} != {r.n - want['k_total']}")
        stats = m.get("fitstats", {})
        if "n" in stats and stats["n"] != r.n:
            bad.append(f"{where}: fitstat n {stats['n']} != {r.n}")
        if "r2" in stats:
            # residual errors of RESID_SHARE * sigma move the SSR by at most
            # 2 * sum|r| * RESID_SHARE * sigma
            r2 = 1.0 - want["ssr"] / want["sst"]
            sigma = np.sqrt(want["ssr"] / r.n)
            tol = 2.0 * want["abs_resid"] * RESID_SHARE * sigma / want["sst"]
            if not abs(stats["r2"] - r2) <= tol:
                bad.append(f"{where}: r2 {stats['r2']} != {r2}")
    return bad


# ---------------------------------------------------------------------------
# All records of a run
# ---------------------------------------------------------------------------

def check_records(workload: Workload, panels: dict[str, dict], recdir: Path
                  ) -> tuple[int, int, int, list[str]]:
    """(attempted, failed, wrong, messages) over every record in ``recdir``.

    An operation fails when it raises or when its output fails a check; the
    latter also count as wrong.
    """
    refs: dict[str, object] = {}
    ops = {op.name: op for op in workload.ops}
    attempted = failed = wrong = 0
    messages: list[str] = []
    for path in sorted(recdir.glob("*.json")):
        tag = path.stem
        op = ops[tag.split("-", 2)[2]]  # <process>-<pass>-<operation>
        with open(path) as fh:
            rec = json.load(fh)
        attempted += 1
        if "error" in rec:
            failed += 1
            messages.append(f"{tag}: raised {rec['error'].strip().splitlines()[-1]}")
            continue
        cols = panels[op.panel]
        if op.kind == "cli":
            if op.panel not in refs:
                refs[op.panel] = CliReference(cols)
            bad = check_cli(rec, op.name, refs[op.panel])
        else:
            if op.name not in refs:
                make = ols_reference if op.kind == "ols" else poisson_reference
                refs[op.name] = make(cols, op.formula)
            check = check_ols if op.kind == "ols" else check_poisson
            bad = check(rec, np.load(path.with_suffix(".npy")), op.formula, refs[op.name])
        if bad:
            failed += 1
            wrong += 1
            messages.extend(f"{tag}: {b}" for b in bad)
    return attempted, failed, wrong, messages
