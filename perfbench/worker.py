"""One workload process: cold start, timed passes, optional tracing.

Run by ``run.py`` with the inputs already written to ``--workdir``; it
imports fehd and drives it through public functions and ``fehd.cli.main``
only.  Modes:

* ``run``: import fehd and run the workload's first operation (the cold
  start), then an untimed first call of every other operation, and whole
  timed passes over the operations for ``--seconds``; peak resident memory
  is read after the last pass.
* ``trace``: like ``run``, but the second half of the time runs passes with
  spans around fehd's public functions.

Every operation's output goes to ``<workdir>/records`` for ``run.py`` to
check; the timings go to ``<workdir>/result-<tag>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import time
import traceback
from pathlib import Path

from workloads import DEMEAN_TOL, GLM_TOL, WORKLOADS, cli_argv


def _load_inputs(fehd, np, workload, workdir: Path) -> dict:
    """Freshly built input objects: a Dataset per panel, or the CSV path."""
    out = {}
    for panel in workload.panels:
        if workload.csv:
            out[panel] = str(workdir / f"{panel}.csv")
            continue
        cols = {c: fehd.NumericColumn(np.load(workdir / panel / f"{c}.npy"))
                for c in workload.columns}
        out[panel] = fehd.Dataset(n_rows=len(next(iter(cols.values()))), columns=cols)
    return out


def _run_op(fehd, op, inputs) -> tuple[dict, float]:
    """Run one operation; returns (record for the checks, wall seconds)."""
    data = inputs[op.panel]
    t0 = time.perf_counter()
    try:
        if op.kind == "ols":
            fit = fehd.fit_ols(op.formula, data, demean_tol=DEMEAN_TOL)
        elif op.kind == "poisson":
            fit = fehd.fit_glm_irls(op.formula, data, family="poisson",
                                    demean_tol=DEMEAN_TOL, glm_tol=GLM_TOL)
        else:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = fehd.cli.main(cli_argv(op, data))
    except Exception:  # an operation that fails is counted, and the run goes on
        dt = time.perf_counter() - t0
        return {"error": traceback.format_exc()}, dt
    dt = time.perf_counter() - t0
    if op.kind == "cli":
        return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}, dt
    rec = {"coef_names": list(fit.coef_names), "coef": fit.coef.tolist(),
           "output": fit.residuals if op.kind == "ols" else fit.fitted}
    if op.kind == "poisson":
        rec["irls_converged"] = bool(fit.convergence.irls_converged)
    return rec, dt


def _save_record(np, recdir: Path, tag: str, rec: dict) -> None:
    output = rec.pop("output", None)
    if output is not None:
        np.save(recdir / f"{tag}.npy", output)
    with open(recdir / f"{tag}.json", "w") as fh:
        json.dump(rec, fh)


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--workdir", required=True)
    p.add_argument("--mode", required=True, choices=["run", "trace"])
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--tag", required=True)
    p.add_argument("--spans", default=None, help="span file of a traced run")
    args = p.parse_args(argv)
    workload = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    recdir = workdir / "records"

    # cold start: from importing fehd to the end of the first operation,
    # less the time spent reading the benchmark's input files
    t0 = time.perf_counter()
    import fehd
    import numpy as np
    if workload.csv:
        import fehd.cli  # noqa: F401  (the CLI module is not imported by the package)
    t_load = time.perf_counter()
    inputs = _load_inputs(fehd, np, workload, workdir)
    load_s = time.perf_counter() - t_load
    first = workload.ops[0]
    rec, _ = _run_op(fehd, first, inputs)
    setup_s = time.perf_counter() - t0 - load_s
    _save_record(np, recdir, f"{args.tag}-setup-{first.name}", rec)
    del inputs, rec
    result = {"setup_s": setup_s, "operations": 1}

    # untimed first calls of the other operations
    inputs = _load_inputs(fehd, np, workload, workdir)
    for op in workload.ops[1:]:
        rec, _ = _run_op(fehd, op, inputs)
        _save_record(np, recdir, f"{args.tag}-warm-{op.name}", rec)
        result["operations"] += 1
        del rec
    del inputs

    def passes(budget_s: float, label: str, tracer=None) -> list[float]:
        times: list[float] = []
        start = time.perf_counter()
        while not times or time.perf_counter() - start < budget_s:
            inputs = _load_inputs(fehd, np, workload, workdir)
            gc.collect()  # every pass starts from a collected heap
            total = 0.0
            for op in workload.ops:
                tag = f"{args.tag}-{label}{len(times)}-{op.name}"
                if tracer is not None:
                    tracer.op = tag
                rec, dt = _run_op(fehd, op, inputs)
                total += dt
                _save_record(np, recdir, tag, rec)
                result["operations"] += 1
                del rec
            del inputs
            times.append(total)
        return times

    if args.mode == "run":
        result["pass_s"] = passes(args.seconds, "p")
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        from tracing import Tracer, reduce_pass
        plain = passes(args.seconds / 2, "p")
        tracer = Tracer()
        tracer.install()
        try:
            traced = passes(args.seconds / 2, "t", tracer)
        finally:
            tracer.uninstall()
        per_pass = []
        for k, pass_s in enumerate(traced):
            spans = [s for op in workload.ops
                     for s in tracer.spans(f"{args.tag}-t{k}-{op.name}")]
            metrics, outside = reduce_pass(spans, pass_s)
            per_pass.append({"pass_s": pass_s, "outside_s": outside, "metrics": metrics})
        # the pass of median duration (the lower one of an even count)
        order = sorted(range(len(traced)), key=traced.__getitem__)
        median_pass = per_pass[order[(len(order) - 1) // 2]]
        metrics = dict(median_pass["metrics"])
        metrics["trace.overhead_s"] = median_pass["pass_s"] - statistics.median(plain)
        result.update(pass_s=plain, traced_pass_s=traced, per_layer=metrics,
                      outside_s=median_pass["outside_s"])
        if args.spans:
            tracer.dump(args.spans, {"workload": workload.name, "passes": per_pass})

    with open(workdir / f"result-{args.tag}.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
