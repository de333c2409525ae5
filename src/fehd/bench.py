"""Simulated employee-firm panel generator and timing benchmarks.

The generator builds a balanced panel of individuals over 10 years working in
firms, with a simple (random) and a difficult (sequential) firm assignment.
The outcome is y = x1 + 0.05 x2 + unit, year and firm effects plus noise, with
x2 = x1^2 and all effects standard normal.  The RNG is numpy's PCG64, a
permuted congruential generator, seeded explicitly, so identical configs
reproduce identical data.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import Dataset, NumericColumn
from .demean import DEFAULT_TOL
from .estimators import EstimationError, fit_glm_irls, fit_ols

__all__ = ["DgpConfig", "simulate_panel", "dataset_to_csv", "BenchCase",
           "parse_cases", "run_benchmark"]

NB_YEAR = 10
NB_INDIV_PER_FIRM = 23


@dataclass(frozen=True)
class DgpConfig:
    n: int
    seed: int = 0

    def __post_init__(self):
        if self.n < NB_YEAR:
            raise ValueError(f"n must be at least nb_year={NB_YEAR}")

    @property
    def nb_indiv(self) -> int:
        return int(round(self.n / NB_YEAR))

    @property
    def nb_firm(self) -> int:
        return max(int(round(self.nb_indiv / NB_INDIV_PER_FIRM)), 1)

    @property
    def n_rows(self) -> int:
        # the panel is balanced: nb_indiv individuals x NB_YEAR years
        return self.nb_indiv * NB_YEAR


def simulate_panel(cfg: DgpConfig) -> Dataset:
    """Generate the benchmark panel; deterministic under (n, seed)."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_rows
    nb_indiv, nb_firm, nb_year = cfg.nb_indiv, cfg.nb_firm, NB_YEAR

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


CSV_BLOCK_ROWS = 1 << 16


def dataset_to_csv(ds: Dataset, path: str):
    """Write a dataset as CSV, as ``csv.writer`` writes it, a block of rows at a time.

    Floats are written by ``repr``, integral ones without a decimal point and
    NaN as an empty field; levels are quoted where the csv module quotes
    them, and a missing level is an empty field.  A row that is one empty
    field is written ``""``.  Lines end in CRLF.
    """
    formatters = [_cell_formatter(col) for col in ds.columns.values()]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(list(ds.columns))
        for lo in range(0, ds.n_rows, CSV_BLOCK_ROWS):
            rows = slice(lo, lo + CSV_BLOCK_ROWS)
            lines = map(",".join, zip(*(fmt(rows) for fmt in formatters)))
            if len(formatters) == 1:
                lines = (line or '""' for line in lines)
            fh.write("".join(line + "\r\n" for line in lines))


def _cell_formatter(col):
    """A function from a row slice to the column's CSV fields on those rows."""
    if isinstance(col, NumericColumn):
        return lambda rows: _float_cells(col.values[rows])
    table = np.array([_quoted(level) for level in col.levels] + [""], dtype=object)
    return lambda rows: table[col.codes[rows]].tolist()  # code -1 picks ""


def _float_cells(v: np.ndarray) -> list[str]:
    whole = np.isfinite(v) & (v == np.trunc(v))
    frac = ~whole & ~np.isnan(v)
    out = np.full(len(v), "", dtype=object)
    out[whole] = np.array(list(map(str, map(int, v[whole].tolist()))), dtype=object)
    out[frac] = np.array(list(map(repr, v[frac].tolist())), dtype=object)
    return out.tolist()


def _quoted(level: str) -> str:
    """A level as ``csv.writer`` writes it in a row of several fields."""
    buf = io.StringIO()
    csv.writer(buf).writerow([level, ""])
    return buf.getvalue()[:-3]  # less the "," and "\r\n" after it


@dataclass(frozen=True)
class BenchCase:
    assignment: str  # 'simple' | 'difficult'
    n_fe: int        # 2 | 3
    family: str      # 'ols' | 'poisson'
    slopes: bool = False  # OLS with a varying slope on x2 by firm

    @property
    def name(self) -> str:
        kind = "slopes" if self.slopes else self.family
        return f"{self.assignment}{self.n_fe}fe-{kind}"

    def formula(self) -> str:
        firm = "firm_id" if self.assignment == "simple" else "firm_id_difficult"
        if self.slopes:
            fes = f"indiv_id + {firm}[x2]" + (" + year" if self.n_fe == 3 else "")
            return f"y ~ x1 | {fes}"
        fes = f"indiv_id + {firm}"
        if self.n_fe == 3:
            fes += " + year"
        lhs = "y" if self.family == "ols" else "ypois"
        return f"{lhs} ~ x1 + x2 | {fes}"


def parse_cases(text: str) -> list[BenchCase]:
    """Parse 'simple2fe,difficult3fe-poisson,difficult2fe-slopes'-style lists."""
    import re
    out = []
    for tok in text.split(","):
        tok = tok.strip().lower()
        if not tok:
            continue
        m = re.fullmatch(r"(simple|difficult)(2|3)fe(?:[-_](ols|poisson|slopes))?", tok)
        if m is None:
            raise ValueError(f"cannot parse benchmark case {tok!r}; expected e.g. "
                             f"simple2fe, difficult3fe-poisson, difficult2fe-slopes")
        kind = m.group(3) or "ols"
        out.append(BenchCase(m.group(1), int(m.group(2)),
                             "ols" if kind == "slopes" else kind, slopes=kind == "slopes"))
    if not out:
        raise ValueError("no benchmark cases given")
    return out


def run_benchmark(sizes: list[int], cases: list[BenchCase], reps: int = 1,
                  seed: int = 0, timeout: Optional[float] = None,
                  accelerate: bool = True) -> list[dict]:
    """Wall-clock benchmark rows: (case, n, rep, seconds, demean_iterations,
    irls_iterations, factor_s, switch_at, status); the iteration counts are
    -1 where there are none (IRLS steps for OLS) or the fit failed.
    ``factor_s`` and ``switch_at`` are the demeaning's factorization of the
    Schur complement (``FactorRecord``: seconds spent, and products before
    the first column switched; for IRLS, of the last step that made one),
    -1 when A was never formed.

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
                             "demean_iterations": -1, "irls_iterations": -1,
                             "factor_s": -1, "switch_at": -1, "status": "skipped"})
                continue
            for rep in range(reps):
                cfg = DgpConfig(n=int(n), seed=seed + rep)
                ds = simulate_panel(cfg)
                if case.family == "poisson":
                    ds = ds.with_columns({"ypois": NumericColumn(
                        np.exp(ds.numeric("y")))})
                t0 = time.perf_counter()
                status = "ok"
                iters = irls = switch_at = factor_s = -1
                try:
                    fit = _fit_case(ds, case, DEFAULT_TOL, accelerate)
                    iters = fit.convergence.demean_sweeps
                    if case.family != "ols":
                        irls = fit.convergence.irls_iterations
                    factor = fit.convergence.demean_factor
                    if factor is not None and not factor.refused:
                        factor_s, switch_at = factor.seconds, factor.switch_at
                except EstimationError as exc:
                    status = f"error: {exc}"
                dt = time.perf_counter() - t0
                rows.append({"case": case.name, "n": int(n), "rep": rep,
                             "seconds": dt, "demean_iterations": iters,
                             "irls_iterations": irls, "factor_s": factor_s,
                             "switch_at": switch_at, "status": status})
                if timeout is not None and dt > timeout:
                    timed_out.add(case.name)
                    break
    return rows


def _fit_case(ds, case: BenchCase, demean_tol: float, accelerate: bool):
    if not accelerate:
        # plain alternating sweeps over the rows, for solver comparisons
        if case.family != "ols":
            raise ValueError(f"plain mode times OLS demeaning only; "
                             f"{case.name} is a {case.family} case")
        from . import formula as fml
        from .demean import demean
        from .estimators import (DEFAULT_COLLIN_TOL, build_frame, finish_ols_group,
                                 ols_targets)
        frame = build_frame(ds, fml.expand_models(fml.parse_formula(case.formula()))[0])
        problem, sel_map = ols_targets([frame], tol=demean_tol)
        dres = demean(problem, accelerate=False)
        fit = finish_ols_group([frame], sel_map, dres, DEFAULT_COLLIN_TOL)[0]
        if isinstance(fit, Exception):
            raise fit
        return fit
    if case.family == "poisson":
        return fit_glm_irls(case.formula(), ds, family="poisson", demean_tol=demean_tol)
    return fit_ols(case.formula(), ds, demean_tol=demean_tol)


def benchmark_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=["case", "n", "rep", "seconds",
                                        "demean_iterations", "irls_iterations",
                                        "factor_s", "switch_at", "status"])
    w.writeheader()
    for r in rows:
        w.writerow(r)
    return buf.getvalue()
