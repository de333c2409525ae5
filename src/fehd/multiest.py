"""Multiple estimations: multi-LHS, stepwise families, sample splits.

OLS models that share a sample mask and fixed-effect structure are pooled:
all their distinct target columns are demeaned in one batched call, then each
model solves its own normal equations on the shared residuals.  Offset models
pool too; their target is the outcome less the offset.  Each target column
runs its own frozen fixed-point iteration inside the batch, so pooled results
match the standalone fits to rounding.  ``fit_ols`` is itself a pooled group
of one on the same ``finish_ols_group`` path, so a one-model group reproduces
it bit for bit by construction.  GLM and IV models are never pooled.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import formula as fml
from .data import (CategoricalColumn, DataError, Dataset, evaluate_subset)
from .demean import DemeanError, DemeanProblem, demean
from .estimators import (EstimationError, FitResult, ModelFrame, _stack_f,
                         build_frame, finish_ols_group, fit_2sls, fit_glm_irls)

__all__ = ["MultiOptions", "FitRecord", "MultiResult", "run_multi"]


@dataclass
class MultiOptions:
    family: str = "ols"
    split: Optional[str] = None
    fsplit: Optional[str] = None
    weights: Optional[str] = None
    subset: Optional[str] = None
    offset: Optional[str] = None
    collin_tol: float = 1e-10
    demean_tol: float = 1e-6
    demean_max_iter: int = 10_000
    threads: int = 1


@dataclass
class FitRecord:
    provenance: fml.Provenance
    sample_label: str
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
    """(label, keep-array-or-None) pairs, sorted by level display order."""
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
        vals = col.values
        for v in np.unique(vals[~col.missing]):
            label = str(int(v)) if v == int(v) else str(v)
            plans.append((label, vals == v))
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

    jobs = []  # (record_index, model, sample_label, split_keep)
    records: list[FitRecord] = []
    for model in models:
        for label, keep in plans:
            prov = fml.Provenance(model.provenance.lhs_index, model.provenance.rhs_step,
                                  model.provenance.fe_step, label)
            records.append(FitRecord(provenance=prov, sample_label=label))
            jobs.append((len(records) - 1, model, label, keep))

    index_cache: dict = {}
    column_cache: dict = {}
    frames: dict[int, ModelFrame] = {}
    poolable: dict[tuple, list[int]] = {}
    singles: list[int] = []

    for ridx, model, label, keep in jobs:
        try:
            frame = build_frame(ds, model, weights=options.weights, subset=subset,
                                split_keep=keep, offset=options.offset,
                                index_cache=index_cache,
                                column_cache=column_cache)
        except (EstimationError, DataError, DemeanError) as exc:
            records[ridx].error = str(exc)
            continue
        frames[ridx] = frame
        if options.family == "ols" and model.iv is None:
            key = (frame.mask.signature(),
                   tuple(fml.format_fe_term(t) for t in model.fe_terms))
            poolable.setdefault(key, []).append(ridx)
        else:
            singles.append(ridx)

    report = []

    def run_group(key, ridxs):
        group_frames = [frames[r] for r in ridxs]
        col_of: dict[str, int] = {}
        columns: list[np.ndarray] = []
        sel_map = []
        for fr in group_frames:
            # the outcome less the offset is keyed apart from the same column
            # used as a regressor
            lhs = fr.lhs_name if fr.offset is None else f"{fr.lhs_name} - {options.offset}"
            if lhs not in col_of:
                col_of[lhs] = len(columns)
                columns.append(fr.shifted_y)
            for nm, arr in zip(fr.x_names, fr.x_cols):
                if nm not in col_of:
                    col_of[nm] = len(columns)
                    columns.append(arr)
            sel_map.append((col_of[lhs], [col_of[nm] for nm in fr.x_names]))
        targets = _stack_f(columns)
        base = group_frames[0]
        problem = DemeanProblem(targets=targets, dims=base.dims,
                                weights=base.weights, tol=options.demean_tol,
                                max_iter=options.demean_max_iter)
        dres = demean(problem, keep_coefs=False, consume_targets=True)
        if not dres.converged:
            for r in ridxs:
                records[r].error = "demeaning did not converge"
            return
        results = finish_ols_group(group_frames, sel_map, dres.residuals, dres,
                                   options.collin_tol)
        for r, res in zip(ridxs, results):
            if isinstance(res, Exception):
                records[r].error = str(res)
            else:
                res.sample_label = records[r].sample_label
                records[r].fit = res
        report.append({"models": len(ridxs), "targets": len(columns),
                       "fe": list(key[1]), "pooled": len(ridxs) > 1})

    def run_single(ridx):
        fr = frames[ridx]
        try:
            if options.family == "ols":
                fit = fit_2sls(fr, collin_tol=options.collin_tol,
                               demean_tol=options.demean_tol,
                               demean_max_iter=options.demean_max_iter)
            else:
                fit = fit_glm_irls(fr, family=options.family,
                                   collin_tol=options.collin_tol,
                                   demean_tol=options.demean_tol,
                                   demean_max_iter=options.demean_max_iter)
            fit.sample_label = records[ridx].sample_label
            records[ridx].fit = fit
        except (EstimationError, DataError, DemeanError) as exc:
            records[ridx].error = str(exc)

    group_items = sorted(poolable.items(), key=lambda kv: kv[1][0])
    if options.threads > 1 and (len(group_items) + len(singles)) > 1:
        with ThreadPoolExecutor(max_workers=options.threads) as pool:
            futs = [pool.submit(run_group, key, ridxs) for key, ridxs in group_items]
            futs += [pool.submit(run_single, r) for r in singles]
            for f in futs:
                f.result()
    else:
        for key, ridxs in group_items:
            run_group(key, ridxs)
        for r in singles:
            run_single(r)

    if records and all(r.error is not None for r in records):
        raise EstimationError("every model failed; first error: " + records[0].error)
    return MultiResult(results=records, shared_work_report=report)
