"""Spans around fehd's public functions, recorded from the benchmark's side.

``install`` wraps the functions each fehd module lists in ``__all__`` (plus
``estimators.finish_ols_group`` and ``cli.main``) and puts the wrapper at
every module-level name bound to the original, so that a call is traced
wherever the caller looks the name up (``fehd.estimators.demean``,
``fehd.multiest.demean`` ...).  Each call records a span: name, start, end,
parent span and the operation it belongs to.  Spans stay in memory until
``dump`` writes them out.  The program itself is not changed.

A span's self time is its duration minus its children's durations; calls run
on one thread, so children nest inside their parent and never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from typing import Callable, Optional

MODULES = ("data", "formula", "demean", "estimators", "inference", "multiest",
           "present", "cli")
EXTRA_NAMES = {"estimators": ("finish_ols_group",), "cli": ("main",)}

# per-module metrics that count events; the others are seconds
COUNT_METRICS = frozenset({
    "data.make_factor_index_calls", "estimators.irls_iterations", "demean.calls",
    "demean.sweeps", "multiest.models_per_demean_call", "inference.compute_vcov_calls"})

FIT_FUNCTIONS = ("estimators.fit_ols", "estimators.fit_glm_irls",
                 "estimators.fit_2sls", "estimators.finish_ols_group")


def _demean_counts(args, kwargs, out):
    problem = args[0] if args else kwargs["problem"]
    return {"sweeps": int(out.sweeps), "columns": int(problem.targets.shape[1])}


def _fit_counts(args, kwargs, out):
    if isinstance(out, list):  # finish_ols_group: a result or an exception per model
        return {"models": sum(1 for r in out if not isinstance(r, Exception))}
    conv = getattr(out, "convergence", None)
    return {"models": 1,
            "irls_iterations": int(conv.irls_iterations) if conv is not None else 0}


COUNTERS: dict[str, Callable] = {"demean.demean": _demean_counts}
COUNTERS.update({name: _fit_counts for name in FIT_FUNCTIONS})


class Tracer:
    """In-memory span store; one instance per traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[Optional[str]] = []
        self.counts: list[Optional[dict]] = []
        self.op: Optional[str] = None  # tag of the operation now running
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ops.append(self.op)
            self.counts.append(None)
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(self.clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.ends[idx] = self.clock()
                self._stack.pop()
            if count is not None:
                self.counts[idx] = count(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap fehd's public functions at every name they are bound to."""
        originals = {}
        for short in MODULES:
            mod = importlib.import_module(f"fehd.{short}")
            names = list(getattr(mod, "__all__", ())) + list(EXTRA_NAMES.get(short, ()))
            for attr in names:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    originals[id(fn)] = (fn, self.wrap(f"{short}.{attr}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "fehd" and not modname.startswith("fehd."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._installed.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._installed):
            setattr(mod, attr, value)
        self._installed.clear()

    def spans(self, op: Optional[str] = None) -> list[dict]:
        """Spans (optionally of one operation) with their self times."""
        child_time = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child_time[p] += self.ends[i] - self.starts[i]
        out = []
        for i, name in enumerate(self.names):
            if op is not None and self.ops[i] != op:
                continue
            dur = self.ends[i] - self.starts[i]
            out.append({"id": i, "name": name, "parent": self.parents[i], "op": self.ops[i],
                        "start": self.starts[i], "end": self.ends[i],
                        "self": dur - child_time[i], "counts": self.counts[i]})
        return out

    def dump(self, path: str, extra: Optional[dict] = None) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans(), **(extra or {})}, fh)


def reduce_pass(spans: list[dict], pass_s: float) -> tuple[dict[str, float], float]:
    """Per-module metrics of one pass, and the time outside any span.

    ``spans`` are the spans of the pass's operations and ``pass_s`` the sum
    of those operations' wall times.  The self times plus the time outside any
    span add up to ``pass_s`` when every child lies inside its parent and every
    top-level span inside the pass; raises if a self time or the outside time
    is negative, or if the sum is off.
    """
    self_of: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in spans:
        self_of[s["name"]] = self_of.get(s["name"], 0.0) + s["self"]
        calls[s["name"]] = calls.get(s["name"], 0) + 1
    outside = pass_s - sum(s["end"] - s["start"] for s in spans if s["parent"] < 0)
    total_self = sum(self_of.values())
    if min([s["self"] for s in spans] + [outside]) < -1e-9:
        raise AssertionError("a span exceeds its parent or the pass")
    if abs(total_self + outside - pass_s) > 1e-9 * max(pass_s, 1.0):
        raise AssertionError(f"self times {total_self!r} + outside {outside!r} "
                             f"!= pass time {pass_s!r}")

    def t(*names):
        return sum(self_of.get(n, 0.0) for n in names)

    def counted(name, key):
        return sum(s["counts"][key] for s in spans
                   if s["name"] == name and s["counts"] and key in s["counts"])

    sweeps = counted("demean.demean", "sweeps")
    sweep_columns = sum(s["counts"]["sweeps"] * s["counts"]["columns"] for s in spans
                        if s["name"] == "demean.demean" and s["counts"])
    models = sum(counted(name, "models") for name in FIT_FUNCTIONS)
    demean_calls = calls.get("demean.demean", 0)
    metrics = {
        "data.load_csv_s": t("data.load_csv"),
        "data.build_mask_s": t("data.build_mask"),
        "data.make_factor_index_s": t("data.make_factor_index"),
        "data.make_factor_index_calls": calls.get("data.make_factor_index", 0),
        "formula.parse_s": t("formula.parse_formula", "formula.expand_models"),
        "estimators.build_frame_s": t("estimators.build_frame"),
        "estimators.fit_s": t(*FIT_FUNCTIONS),
        "estimators.irls_iterations": counted("estimators.fit_glm_irls", "irls_iterations"),
        "demean.demean_s": t("demean.demean"),
        "demean.calls": demean_calls,
        "demean.sweeps": sweeps,
        "demean.s_per_sweep": t("demean.demean") / sweep_columns if sweep_columns else 0.0,
        "multiest.run_multi_s": t("multiest.run_multi"),
        "multiest.models_per_demean_call": models / demean_calls if demean_calls else 0.0,
        "inference.compute_vcov_s": t("inference.compute_vcov"),
        "inference.compute_vcov_calls": calls.get("inference.compute_vcov", 0),
        "present.render_table_s": t("present.render_table"),
        "cli.main_s": t("cli.main"),
    }
    return metrics, outside
