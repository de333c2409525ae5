"""Multiple estimations: multi-LHS, stepwise families, sample splits.

OLS and gaussian (OLS under its own label) models without an IV part that
share a sample mask and fixed-effect structure are pooled.
``estimators.ols_targets`` lays out their distinct target columns, the
outcomes less any offset first and then the regressors; the columns are
demeaned in one batched call, and ``finish_ols_group`` solves each model's
normal equations on the shared residuals.  Each target column runs its own
demeaning iteration inside the batch and stops on its own, and each fit
forms its residuals from the shared block, which no fit writes into, as a
standalone fit forms them from its own.  ``fit_ols`` takes the same layout
and the same solve as a group of one.  So an unweighted pooled model gives
the numbers of its standalone fit, bit for bit on the test panels in
coefficients, residuals and a clustered vcov (``tests/test_multiest.py``).
The one source of a last-digit difference left is the Gram, whose sums
depend on the block's width.  Unweighted, BLAS may sum a wider block's
cross-products in another order (1.1e-17 in the coefficients of the
30-column pooled fit of ``tests/test_acceptance.py::test_08``).  Weighted,
the Gram is a gemm, and about half of the weighted pooled models of the
test panels differ from their standalone fits in the last digits.
Every other model goes through ``estimators.fit_model``, the one estimator
dispatch: 2SLS, GLMs, and the error for an IV part under a GLM family.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import formula as fml
from .data import (CategoricalColumn, DataError, Dataset, SampleMask, _factor_values,
                   _level_label, evaluate_subset)
from .demean import DEFAULT_MAX_ITER, DEFAULT_TOL, DemeanError
# unused here; still bound because the benchmark's tracing test
# (perfbench/tests/test_tracing.py) looks the name up in this module
from .demean import demean  # noqa: F401
from .estimators import (_OLS_FAMILIES, DEFAULT_COLLIN_TOL, EstimationError, FitResult,
                         ModelFrame, _demean_converged, build_frame, finish_ols_group,
                         fit_model, ols_targets)

__all__ = ["MultiOptions", "FitRecord", "MultiResult", "run_multi"]


@dataclass
class MultiOptions:
    family: str = "ols"
    split: Optional[str] = None
    fsplit: Optional[str] = None
    weights: Optional[str] = None
    subset: Optional[str] = None
    offset: Optional[str] = None
    collin_tol: float = DEFAULT_COLLIN_TOL
    demean_tol: float = DEFAULT_TOL
    demean_max_iter: int = DEFAULT_MAX_ITER
    threads: int = 1


@dataclass
class FitRecord:
    provenance: fml.Provenance  # its sample_label names the record's sample
    fit: Optional[FitResult] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.fit is not None


@dataclass
class MultiResult:
    results: list[FitRecord]
    shared_work_report: list[dict] = field(default_factory=list)

    def fits(self) -> list[FitResult]:
        return [r.fit for r in self.results if r.fit is not None]


def _split_plans(ds: Dataset, options: MultiOptions):
    """(label, keep-array-or-None) pairs, sorted by level display order.  A
    numeric split column follows the factor rule: its present values must be
    integral."""
    var = options.fsplit or options.split
    if var is None:
        return [("", None)]
    col = ds.column(var)
    plans = []
    if isinstance(col, CategoricalColumn):
        for label in sorted(col.levels):
            code = col.levels.index(label)
            plans.append((label, col.codes == code))
    else:
        vals, present = col.values, ~col.missing
        _factor_values(ds, SampleMask(keep=present), var)  # raises unless integral
        for v in np.unique(vals[present]):
            plans.append((_level_label(v), vals == v))
    if options.fsplit:
        plans = [("Full sample", None)] + plans
    return plans


def run_multi(spec, ds: Dataset, options: Optional[MultiOptions] = None) -> MultiResult:
    """Expand a formula and fit every (model, sample) combination."""
    options = options or MultiOptions()
    if isinstance(spec, str):
        spec = fml.parse_formula(spec)
    models = fml.expand_models(spec)
    subset = evaluate_subset(ds, options.subset) if options.subset else None
    plans = _split_plans(ds, options)

    jobs = []  # (record_index, model, split_keep)
    records: list[FitRecord] = []
    for model in models:
        for label, keep in plans:
            prov = fml.Provenance(model.provenance.lhs_index, model.provenance.rhs_step,
                                  model.provenance.fe_step, label)
            records.append(FitRecord(provenance=prov))
            jobs.append((len(records) - 1, model, keep))

    cache: dict = {}
    frames: dict[int, ModelFrame] = {}
    poolable: dict[tuple, list[int]] = {}
    singles: list[int] = []

    for ridx, model, keep in jobs:
        try:
            frame = build_frame(ds, model, weights=options.weights, subset=subset,
                                split_keep=keep, offset=options.offset, cache=cache)
        except (EstimationError, DataError, DemeanError) as exc:
            records[ridx].error = str(exc)
            continue
        frames[ridx] = frame
        if options.family in _OLS_FAMILIES and not frame.endo:
            key = (frame.mask.signature(), tuple(d.label for d in frame.dims))
            poolable.setdefault(key, []).append(ridx)
        else:
            singles.append(ridx)

    group_items = sorted(poolable.items(), key=lambda kv: kv[1][0])
    # one slot per group, so that the report keeps group order under threads
    reports: list[Optional[dict]] = [None] * len(group_items)

    def run_group(g):
        key, ridxs = group_items[g]
        group_frames = [frames[r] for r in ridxs]
        try:
            problem, sel_map = ols_targets(group_frames, options.demean_tol,
                                           options.demean_max_iter)
            dres = _demean_converged(problem)
        except (EstimationError, DemeanError) as exc:
            for r in ridxs:
                records[r].error = str(exc)
            return
        results = finish_ols_group(group_frames, sel_map, dres, options.collin_tol)
        for r, res in zip(ridxs, results):
            if isinstance(res, Exception):
                records[r].error = str(res)
            else:
                res.sample_label = records[r].provenance.sample_label
                res.family = options.family
                records[r].fit = res
        reports[g] = {"models": len(ridxs), "targets": dres.residuals.shape[1],
                      "fe": list(key[1]), "pooled": len(ridxs) > 1}

    def run_single(ridx):
        try:
            fit = fit_model(frames[ridx], family=options.family,
                            collin_tol=options.collin_tol,
                            demean_tol=options.demean_tol,
                            demean_max_iter=options.demean_max_iter)
            fit.sample_label = records[ridx].provenance.sample_label
            records[ridx].fit = fit
        except (EstimationError, DataError, DemeanError) as exc:
            records[ridx].error = str(exc)

    if options.threads > 1 and (len(group_items) + len(singles)) > 1:
        with ThreadPoolExecutor(max_workers=options.threads) as pool:
            futs = [pool.submit(run_group, g) for g in range(len(group_items))]
            futs += [pool.submit(run_single, r) for r in singles]
            for f in futs:
                f.result()
    else:
        for g in range(len(group_items)):
            run_group(g)
        for r in singles:
            run_single(r)

    if records and all(r.error is not None for r in records):
        raise EstimationError("every model failed; first error: " + records[0].error)
    return MultiResult(results=records,
                       shared_work_report=[r for r in reports if r is not None])
