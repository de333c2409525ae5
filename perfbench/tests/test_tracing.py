"""Span bookkeeping: self times, the per-pass sum, and wrapper installation."""

import importlib

import numpy as np
import pytest

import fehd
from tracing import Tracer, reduce_pass


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_children():
    # outer [0, 10] holds inner [1, 4] and inner [5, 9], which holds leaf [6, 8]
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 4.0, 5.0, 6.0, 8.0, 9.0, 10.0]))
    leaf = tracer.wrap("demean.leaf", lambda: None)
    inner = tracer.wrap("demean.inner", lambda deep: leaf() if deep else None)
    outer = tracer.wrap("estimators.outer", lambda: (inner(False), inner(True)))
    tracer.op = "op"
    outer()
    spans = {(s["name"], s["start"]): s for s in tracer.spans("op")}
    assert spans[("estimators.outer", 0.0)]["self"] == 10.0 - 3.0 - 4.0
    assert spans[("demean.inner", 1.0)]["self"] == 3.0
    assert spans[("demean.inner", 5.0)]["self"] == 4.0 - 2.0
    assert spans[("demean.leaf", 6.0)]["self"] == 2.0
    assert spans[("demean.inner", 5.0)]["parent"] == spans[("estimators.outer", 0.0)]["id"]


def test_pass_adds_up_and_counts_outside_time():
    tracer = Tracer(clock=FakeClock([1.0, 2.0, 2.5, 3.0, 4.0, 6.0]))
    tracer.wrap("data.make_factor_index", lambda: None)()
    tracer.wrap("formula.parse_formula", lambda: None)()
    tracer.wrap("formula.expand_models", lambda: None)()
    metrics, outside = reduce_pass(tracer.spans(), pass_s=7.0)
    assert outside == 7.0 - 1.0 - 0.5 - 2.0
    assert metrics["data.make_factor_index_s"] == 1.0
    assert metrics["data.make_factor_index_calls"] == 1
    assert metrics["formula.parse_s"] == 2.5
    assert metrics["demean.calls"] == 0


def test_pass_shorter_than_its_spans_is_rejected():
    tracer = Tracer(clock=FakeClock([0.0, 5.0]))
    tracer.wrap("data.build_mask", lambda: None)()
    with pytest.raises(AssertionError):
        reduce_pass(tracer.spans(), pass_s=4.0)


def test_install_wraps_every_lookup_site_and_uninstall_restores():
    est = importlib.import_module("fehd.estimators")
    multi = importlib.import_module("fehd.multiest")
    inference = importlib.import_module("fehd.inference")
    originals = (est.demean, multi.demean, inference.make_factor_index, est.finish_ols_group)
    tracer = Tracer()
    tracer.install()
    try:
        assert est.demean is multi.demean is fehd.demean
        assert est.demean is not originals[0]
        assert inference.make_factor_index is not originals[2]
        assert multi.finish_ols_group is est.finish_ols_group is not originals[3]
        ds = fehd.Dataset(n_rows=6, columns={
            "y": fehd.NumericColumn(np.array([1.0, 2.0, 0.5, 3.0, 2.5, 1.5])),
            "x": fehd.NumericColumn(np.array([0.1, 0.4, 0.2, 0.9, 0.3, 0.8])),
            "f": fehd.NumericColumn(np.array([1.0, 1.0, 2.0, 2.0, 3.0, 3.0]))})
        tracer.op = "t"
        fehd.fit_ols("y ~ x | f", ds)
    finally:
        tracer.uninstall()
    assert (est.demean, multi.demean, inference.make_factor_index,
            est.finish_ols_group) == originals
    names = [s["name"] for s in tracer.spans("t")]
    assert names[0] == "estimators.fit_ols"
    assert {"formula.parse_formula", "estimators.build_frame", "data.build_mask",
            "data.make_factor_index", "demean.demean"} <= set(names)
    demean_span = next(s for s in tracer.spans("t") if s["name"] == "demean.demean")
    assert demean_span["counts"] == {"sweeps": 1, "columns": 2}
