"""The benchmark's workloads: which panels each one draws and which operations a pass runs.

Shared by the orchestrator (``run.py``), which makes the inputs and checks
the outputs, and by the worker process, which runs the operations.  Nothing
here imports fehd.
"""

from __future__ import annotations

from dataclasses import dataclass

# the program's documented defaults, passed explicitly so that the checks'
# bounds hold and every commit is measured at the same accuracy
DEMEAN_TOL = 1e-6
GLM_TOL = 1e-8


@dataclass(frozen=True)
class Op:
    """One operation: a model fit on a panel, or one CLI invocation on its CSV."""
    name: str
    kind: str          # 'ols' | 'poisson' | 'cli'
    panel: str
    formula: str = ""
    args: tuple = ()   # extra CLI arguments after the formula


@dataclass(frozen=True)
class Workload:
    name: str
    panels: dict       # panel key -> number of rows asked of the DGP
    columns: tuple     # columns the operations read
    ops: tuple
    csv: bool = False  # panels are handed over as CSV files


CLI_FLAGS = ("--output", "json", "--demean-tol", repr(DEMEAN_TOL))

def _on_each(op: Op, panels) -> tuple:
    """The operation once on each panel, named after it."""
    return tuple(Op(f"{op.name}-{p}", op.kind, p, op.formula, op.args) for p in panels)


# Models whose iteration counts depend on the draw run on several smaller
# panels with their own draws, so that a pass averages over draws and its
# time varies less from seed to seed.
SMALL = ("a", "b", "c", "d")

WORKLOADS = {w.name: w for w in (
    Workload(
        name="ols-difficult",
        # 2.5e5 rows give 1087 firms and 2.5e4 rows 109: neither is a multiple
        # of 10, so the sequential assignment links every firm into one chain
        panels={"large": 250_000, **{p: 25_000 for p in SMALL}},
        columns=("indiv_id", "year", "firm_id_difficult", "x1", "x2", "y"),
        ops=(
            Op("2fe", "ols", "large", "y ~ x1 + x2 | indiv_id + firm_id_difficult"),
            *_on_each(Op("3fe", "ols", "", "y ~ x1 + x2 | indiv_id + firm_id_difficult + year"),
                      SMALL),
            *_on_each(Op("slopes", "ols", "", "y ~ x1 | indiv_id + firm_id_difficult[x2]"),
                      SMALL),
        )),
    Workload(
        name="ols-simple",
        panels={"main": 1_000_000},
        columns=("indiv_id", "year", "firm_id", "x1", "x2", "y"),
        ops=(
            Op("2fe", "ols", "main", "y ~ x1 + x2 | indiv_id + firm_id"),
            Op("3fe", "ols", "main", "y ~ x1 + x2 | indiv_id + firm_id + year"),
        )),
    Workload(
        name="poisson",
        panels={p: 50_000 for p in SMALL},
        columns=("indiv_id", "firm_id", "x1", "x2", "ycount"),
        ops=_on_each(Op("2fe", "poisson", "", "ycount ~ x1 + x2 | indiv_id + firm_id"), SMALL)),
    Workload(
        name="cli-session",
        panels={"main": 60_000},
        columns=("indiv_id", "year", "firm_id", "x1", "x2", "y", "y2", "z", "xe", "y3"),
        csv=True,
        ops=(
            Op("multi", "cli", "main",
               "c(y, y2) ~ x1 + csw0(x2) | sw(indiv_id + firm_id, indiv_id + firm_id + year)",
               ("--vcov", "iid", "--vcov", "cluster=firm_id",
                "--vcov", "twoway=indiv_id,firm_id") + CLI_FLAGS),
            Op("iv", "cli", "main", "y3 ~ x2 | indiv_id + firm_id | xe ~ z",
               ("--vcov", "cluster=firm_id", "--fitstat", "n,r2,ivf,wh") + CLI_FLAGS),
        )),
)}


def panel_seed(seed: int, workload: Workload, panel: str) -> list[int]:
    """Seed of one panel: the run's seed and the panel's position in the workload."""
    return [seed, list(workload.panels).index(panel)]


def cli_argv(op: Op, csv_path: str) -> list[str]:
    return ["--threads", "1", "fit", "--formula", op.formula, "--data", csv_path,
            *op.args]
