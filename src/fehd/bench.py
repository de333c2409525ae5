"""Simulated employee-firm panel generator and timing benchmarks.

The generator builds a balanced panel of individuals over 10 years working in
firms, with a simple (random) and a difficult (sequential) firm assignment.
The outcome is y = x1 + 0.05 x2 + unit, year and firm effects plus noise, with
x2 = x1^2 and all effects standard normal.  The RNG is numpy's counter-based
PCG64, seeded explicitly, so identical configs reproduce identical data.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import Dataset, NumericColumn
from .estimators import EstimationError, fit_glm_irls, fit_ols

__all__ = ["DgpConfig", "simulate_panel", "dataset_to_csv", "BenchCase",
           "parse_cases", "run_benchmark"]

NB_YEAR = 10
NB_INDIV_PER_FIRM = 23


@dataclass(frozen=True)
class DgpConfig:
    n: int
    seed: int = 0
    nb_year: int = NB_YEAR
    nb_indiv_per_firm: int = NB_INDIV_PER_FIRM

    def __post_init__(self):
        if self.n < self.nb_year:
            raise ValueError(f"n must be at least nb_year={self.nb_year}")

    @property
    def nb_indiv(self) -> int:
        return int(round(self.n / self.nb_year))

    @property
    def nb_firm(self) -> int:
        return max(int(round(self.nb_indiv / self.nb_indiv_per_firm)), 1)

    @property
    def n_rows(self) -> int:
        # the panel is balanced: nb_indiv individuals x nb_year years
        return self.nb_indiv * self.nb_year


def simulate_panel(cfg: DgpConfig) -> Dataset:
    """Generate the benchmark panel; deterministic under (n, seed)."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_rows
    nb_indiv, nb_firm, nb_year = cfg.nb_indiv, cfg.nb_firm, cfg.nb_year

    indiv_id = np.repeat(np.arange(1, nb_indiv + 1), nb_year)
    year = np.tile(np.arange(1, nb_year + 1), nb_indiv)
    firm_id = rng.integers(1, nb_firm + 1, size=n)          # random assignment
    firm_id_difficult = np.arange(n) % nb_firm + 1           # sequential pattern

    unit_fe = rng.standard_normal(nb_indiv)[indiv_id - 1]
    year_fe = rng.standard_normal(nb_year)[year - 1]
    firm_fe = rng.standard_normal(nb_firm)[firm_id - 1]
    x1 = rng.standard_normal(n)
    x2 = x1 ** 2
    y = 1.0 * x1 + 0.05 * x2 + firm_fe + unit_fe + year_fe + rng.standard_normal(n)

    return Dataset(n_rows=n, columns={
        "indiv_id": NumericColumn(indiv_id.astype(np.float64)),
        "year": NumericColumn(year.astype(np.float64)),
        "firm_id": NumericColumn(firm_id.astype(np.float64)),
        "firm_id_difficult": NumericColumn(firm_id_difficult.astype(np.float64)),
        "x1": NumericColumn(x1),
        "x2": NumericColumn(x2),
        "y": NumericColumn(y),
    }, panel=("indiv_id", "year"))


def dataset_to_csv(ds: Dataset, path: str):
    names = list(ds.columns)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(names)
        cols = []
        for nm in names:
            col = ds.columns[nm]
            vals = col.values if isinstance(col, NumericColumn) else col.values()
            cols.append(vals)
        for i in range(ds.n_rows):
            w.writerow([_csv_cell(vals[i]) for vals in cols])


def _csv_cell(v):
    """NaN as an empty field, integral floats without a decimal point."""
    if isinstance(v, float):
        if math.isnan(v):
            return ""
        if math.isfinite(v) and v == int(v):
            return int(v)
    return v


@dataclass(frozen=True)
class BenchCase:
    assignment: str  # 'simple' | 'difficult'
    n_fe: int        # 2 | 3
    family: str      # 'ols' | 'poisson'

    @property
    def name(self) -> str:
        return f"{self.assignment}{self.n_fe}fe-{self.family}"

    def formula(self) -> str:
        firm = "firm_id" if self.assignment == "simple" else "firm_id_difficult"
        fes = f"indiv_id + {firm}"
        if self.n_fe == 3:
            fes += " + year"
        lhs = "y" if self.family == "ols" else "ypois"
        return f"{lhs} ~ x1 + x2 | {fes}"


def parse_cases(text: str) -> list[BenchCase]:
    """Parse 'simple2fe,difficult3fe-poisson'-style case lists."""
    import re
    out = []
    for tok in text.split(","):
        tok = tok.strip().lower()
        if not tok:
            continue
        m = re.fullmatch(r"(simple|difficult)(2|3)fe(?:[-_](ols|poisson))?", tok)
        if m is None:
            raise ValueError(f"cannot parse benchmark case {tok!r}; expected e.g. "
                             f"simple2fe, difficult3fe-poisson")
        out.append(BenchCase(m.group(1), int(m.group(2)), m.group(3) or "ols"))
    if not out:
        raise ValueError("no benchmark cases given")
    return out


def run_benchmark(sizes: list[int], cases: list[BenchCase], reps: int = 1,
                  seed: int = 0, demean_tol: float = 1e-6,
                  timeout: Optional[float] = None,
                  accelerate: bool = True) -> list[dict]:
    """Wall-clock benchmark rows: (case, n, rep, seconds, demean_iterations).

    Runs sequentially; a case whose run exceeds ``timeout`` seconds is recorded
    and skipped at larger sizes.
    """
    if sorted(sizes) != list(sizes):
        raise ValueError("sizes must be sorted ascending")
    rows = []
    timed_out: set[str] = set()
    for n in sizes:
        for case in cases:
            if case.name in timed_out:
                rows.append({"case": case.name, "n": n, "rep": 0, "seconds": float("nan"),
                             "demean_iterations": -1, "status": "skipped"})
                continue
            for rep in range(reps):
                cfg = DgpConfig(n=int(n), seed=seed + rep)
                ds = simulate_panel(cfg)
                if case.family == "poisson":
                    ds = ds.with_columns({"ypois": NumericColumn(
                        np.exp(ds.numeric("y")))})
                t0 = time.perf_counter()
                status = "ok"
                iters = -1
                try:
                    fit = _fit_case(ds, case, demean_tol, accelerate)
                    iters = fit.convergence.demean_sweeps
                except EstimationError as exc:
                    status = f"error: {exc}"
                dt = time.perf_counter() - t0
                rows.append({"case": case.name, "n": int(n), "rep": rep,
                             "seconds": dt, "demean_iterations": iters,
                             "status": status})
                if timeout is not None and dt > timeout:
                    timed_out.add(case.name)
                    break
    return rows


def _fit_case(ds, case: BenchCase, demean_tol: float, accelerate: bool):
    if not accelerate:
        # plain alternating mode, exposed for solver-mode comparisons
        from . import formula as fml
        from .demean import DemeanProblem, demean
        from .estimators import _finish_ols_one, _stack_f, build_frame
        spec = fml.parse_formula(case.formula())
        model = fml.expand_models(spec)[0]
        frame = build_frame(ds, model)
        problem = DemeanProblem(targets=_stack_f([frame.shifted_y] + frame.x_cols),
                                dims=frame.dims, tol=demean_tol)
        dres = demean(problem, accelerate=False, keep_coefs=False, consume_targets=True)
        return _finish_ols_one(frame, dres, 1e-10)
    if case.family == "poisson":
        return fit_glm_irls(case.formula(), ds, family="poisson", demean_tol=demean_tol)
    return fit_ols(case.formula(), ds, demean_tol=demean_tol)


def benchmark_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=["case", "n", "rep", "seconds",
                                        "demean_iterations", "status"])
    w.writeheader()
    for r in rows:
        w.writerow(r)
    return buf.getvalue()
