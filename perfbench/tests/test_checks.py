"""The output checks pass on fehd's real outputs and fail on perturbed ones."""

import contextlib
import io
import json

import numpy as np
import pytest

import checks
import dgp
import fehd
import fehd.cli
from workloads import DEMEAN_TOL, GLM_TOL, WORKLOADS, cli_argv

N = 3000  # 300 individuals, 13 firms


@pytest.fixture(scope="module")
def cols():
    return dgp.panel(N, [0, 0])


def _dataset(cols):
    return fehd.Dataset(n_rows=len(cols["y"]),
                        columns={k: fehd.NumericColumn(v) for k, v in cols.items()})


OLS_FORMULAS = sorted({op.formula for name in ("ols-difficult", "ols-simple")
                       for op in WORKLOADS[name].ops})


@pytest.mark.parametrize("formula", OLS_FORMULAS)
def test_ols_check(cols, formula):
    fit = fehd.fit_ols(formula, _dataset(cols), demean_tol=DEMEAN_TOL)
    rec = {"coef_names": list(fit.coef_names), "coef": fit.coef.tolist()}
    r = checks.ols_reference(cols, formula)
    assert checks.check_ols(rec, fit.residuals, formula, r) == []

    nudged = list(rec["coef"])
    nudged[0] += 0.01 * r.se[0]
    assert checks.check_ols(dict(rec, coef=nudged), fit.residuals, formula, r)
    resid = fit.residuals.copy()
    resid[5] += 0.01 * r.sigma
    assert checks.check_ols(rec, resid, formula, r)
    assert checks.check_ols(dict(rec, coef_names=rec["coef_names"] + ["x3"]),
                            fit.residuals, formula, r)


def test_poisson_check(cols):
    op = WORKLOADS["poisson"].ops[0]
    fit = fehd.fit_glm_irls(op.formula, _dataset(cols), family="poisson",
                            demean_tol=DEMEAN_TOL, glm_tol=GLM_TOL)
    rec = {"coef_names": list(fit.coef_names), "coef": fit.coef.tolist(),
           "irls_converged": True}
    r = checks.poisson_reference(cols, op.formula)
    assert checks.check_poisson(rec, fit.fitted, op.formula, r) == []

    nudged = list(rec["coef"])
    nudged[0] *= 1.01
    assert checks.check_poisson(dict(rec, coef=nudged), fit.fitted, op.formula, r)
    mu = fit.fitted.copy()
    mu[cols["firm_id"] == 3] *= 1.01
    assert checks.check_poisson(rec, mu, op.formula, r)
    assert checks.check_poisson(dict(rec, irls_converged=False), fit.fitted, op.formula, r)


@pytest.fixture(scope="module")
def cli_records(cols, tmp_path_factory):
    workload = WORKLOADS["cli-session"]
    path = tmp_path_factory.mktemp("cli") / "panel.csv"
    dgp.write_csv(cols, list(workload.columns), str(path))
    out = {}
    for op in workload.ops:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = fehd.cli.main(cli_argv(op, str(path)))
        out[op.name] = {"code": code, "stdout": buf.getvalue(), "stderr": ""}
    return out


def _edit(rec, fn):
    doc = json.loads(rec["stdout"])
    fn(doc["models"])
    return dict(rec, stdout=json.dumps(doc))


@pytest.mark.parametrize("op_name", ["multi", "iv"])
def test_cli_check(cols, cli_records, op_name):
    workload = WORKLOADS["cli-session"]
    r = checks.CliReference({c: cols[c] for c in workload.columns})
    rec = cli_records[op_name]
    assert checks.check_cli(rec, op_name, r) == []

    def nudge(field, factor):
        def fn(models):
            coef = next(iter(models[-1]["coefficients"].values()))
            coef[field] += factor * coef["se"]
        return fn

    assert checks.check_cli(_edit(rec, nudge("estimate", 0.01)), op_name, r)
    assert checks.check_cli(_edit(rec, nudge("se", 0.01)), op_name, r)

    def df(models):
        models[0]["df_resid"] += 1
    assert checks.check_cli(_edit(rec, df), op_name, r)

    def drop(models):
        models.pop()
    assert checks.check_cli(_edit(rec, drop), op_name, r)
    assert checks.check_cli(dict(rec, code=2), op_name, r)
