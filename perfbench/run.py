"""Benchmark of fehd on the paper's simulated employee-firm panel.

Usage, from the repository root:

    python3 perfbench/run.py --workload ols-simple --seed 1 --seconds 12 --trace 0

(``--seed 1``, ``--seconds 12`` and ``--trace 0`` are the defaults.)  The
inputs are made from ``--seed`` here and written under ``perfbench/out``;
fehd runs in separate worker processes (``worker.py``), so neither input
generation nor the reference solves touch the measured process.  Every
operation's output is then checked against ``reference.py``.  The last line
of standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``, the end-to-end metrics with ``--trace 0`` and the per-module
metrics with ``--trace 1``.
"""

from __future__ import annotations

import os

# one BLAS thread and one fehd worker thread, here and in the workers: steady
# timings on a shared two-core machine, and spans that never overlap
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "FEHD_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import dgp  # noqa: E402
from tracing import COUNT_METRICS  # noqa: E402
from workloads import WORKLOADS, Workload, panel_seed  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# Untraced runs split the timed passes over this many worker processes, each
# with its own cold start: timings shift with each process's memory layout
# more than from pass to pass, and the medians are taken over all of them.
WORKER_PROCESSES = 3
WORKER_TIMEOUT_S = 150


def make_inputs(workload: Workload, seed: int, workdir: Path) -> dict[str, dict]:
    """Write every panel of the workload; returns its columns for the checks."""
    panels = {}
    for key, n in workload.panels.items():
        cols = dgp.panel(n, panel_seed(seed, workload, key))
        if workload.csv:
            dgp.write_csv(cols, list(workload.columns), str(workdir / f"{key}.csv"))
        else:
            (workdir / key).mkdir()
            for c in workload.columns:
                np.save(workdir / key / f"{c}.npy", cols[c])
        panels[key] = {c: cols[c] for c in workload.columns}
    return panels


def run_worker(workload: Workload, workdir: Path, mode: str, tag: str,
               seconds: float = 0.0, spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload.name,
           "--workdir", str(workdir), "--mode", mode, "--tag", tag,
           "--seconds", repr(seconds)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)
    subprocess.run(cmd, env=env, check=True, timeout=WORKER_TIMEOUT_S)
    with open(workdir / f"result-{tag}.json") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not (SRC / "fehd" / "__init__.py").is_file():
        print(f"fehd sources not found under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{workload.name}-{args.seed}-{os.getpid()}"
    phases = {}
    clock = time.perf_counter()
    try:
        workdir.mkdir()
        (workdir / "records").mkdir()
        panels = make_inputs(workload, args.seed, workdir)
        phases["inputs"] = time.perf_counter() - clock
        if args.trace:
            spans = OUT / f"spans-{workload.name}-seed{args.seed}.json"
            main_run = run_worker(workload, workdir, "trace", "w", args.seconds, spans)
            runs = [main_run]
            passes = main_run["pass_s"]
            metrics = {name: {"value": value,
                              "unit": "count" if name in COUNT_METRICS else "s"}
                       for name, value in main_run["per_layer"].items()}
        else:
            runs = [run_worker(workload, workdir, "run", f"w{k}",
                               args.seconds / WORKER_PROCESSES)
                    for k in range(WORKER_PROCESSES)]
            passes = [t for r in runs for t in r["pass_s"]]
            metrics = {
                "setup_s": {"value": statistics.median([r["setup_s"] for r in runs]),
                            "unit": "s"},
                "pass_s": {"value": statistics.median(passes), "unit": "s"},
                "peak_rss_mb": {"value": statistics.median([r["peak_rss_mb"] for r in runs]),
                                "unit": "MB"},
            }
        phases["runs"] = time.perf_counter() - clock - phases["inputs"]
        attempted, failed, wrong, messages = checks.check_records(workload, panels,
                                                                  workdir / "records")
        phases["checks"] = time.perf_counter() - clock - phases["inputs"] - phases["runs"]
        if attempted != sum(r["operations"] for r in runs):
            raise RuntimeError(f"{attempted} records for "
                               f"{sum(r['operations'] for r in runs)} operations")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for m in messages[:20]:
        print(f"check failed: {m}", file=sys.stderr)
    print(f"{workload.name} seed {args.seed}: passes {[round(t, 3) for t in passes]}, "
          f"{attempted} operations, {failed} failed; "
          + ", ".join(f"{k} {v:.1f} s" for k, v in phases.items()), file=sys.stderr)
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
