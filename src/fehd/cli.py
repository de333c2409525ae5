"""Command-line entry point: fit, simulate, bench, dump-ast."""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

import numpy as np

from . import bench as bench_mod
from . import formula as fml
from .data import DataError, Dataset, load_csv
from .demean import DemeanError
from .estimators import EstimationError, fixef
from .formula import FormulaError
from .inference import VcovSpec, parse_vcov_spec
from .multiest import MultiOptions, run_multi
from .present import TableSpec, plot_data, render_table

USAGE_EXIT = 1
ESTIMATION_EXIT = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _build_parser() -> _Parser:
    p = _Parser(prog="fehd", description="Fixed-effects regression engine")
    p.add_argument("--threads", type=int, default=None,
                   help="worker threads (0 = auto: half the available cores)")
    sub = p.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit one or many models on a CSV file")
    fit.add_argument("--formula", required=True)
    fit.add_argument("--data", required=True)
    fit.add_argument("--family", default=None, choices=["ols", "poisson", "logit", "gaussian"])
    fit.add_argument("--vcov", action="append", default=None,
                     help="iid|hc1|cluster=col|twoway=c1,c2|nw=unit,time[,lag]|dk=time[,lag]"
                          " (repeatable)")
    fit.add_argument("--weights", default=None)
    fit.add_argument("--offset", default=None)
    fit.add_argument("--subset", default=None, help="predicate like col==value")
    fit.add_argument("--split", default=None)
    fit.add_argument("--fsplit", default=None)
    fit.add_argument("--panel", default=None, help="unit,time")
    fit.add_argument("--output", default=None, choices=["text", "latex", "json", "plotdata"])
    fit.add_argument("--file", default=None, help="write output here instead of stdout")
    fit.add_argument("--dict", dest="labels", default=None, help="name=label,... display map")
    fit.add_argument("--keep", action="append", default=None)
    fit.add_argument("--drop", action="append", default=None)
    fit.add_argument("--order", action="append", default=None)
    fit.add_argument("--fitstat", default=None, help="comma list, e.g. n,r2,wr2")
    fit.add_argument("--ssc", default=None, choices=["default", "none"])
    fit.add_argument("--signif", dest="signif", action="store_true", default=None)
    fit.add_argument("--no-signif", dest="signif", action="store_false")
    fit.add_argument("--ci-level", type=float, default=None)
    fit.add_argument("--collin-tol", type=float, default=None)
    fit.add_argument("--demean-tol", type=float, default=None)
    fit.add_argument("--demean-maxiter", type=int, default=None)
    fit.add_argument("--fe-coefs", default=None, help="dump recovered FE coefficients (CSV path)")
    fit.add_argument("--caption", default=None)
    fit.add_argument("--label", default=None)
    fit.add_argument("--seed", type=int, default=None)
    fit.add_argument("--config", default=None, help="key = value config file")
    fit.add_argument("--dump-ast", action="store_true")

    sim = sub.add_parser("simulate", help="generate the benchmark panel as CSV")
    sim.add_argument("--n", type=float, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True)

    bn = sub.add_parser("bench", help="run timing benchmarks on the simulated DGP")
    bn.add_argument("--sizes", required=True, help="comma list, e.g. 1e4,1e5")
    bn.add_argument("--cases", required=True,
                    help="comma list, e.g. simple2fe,difficult3fe-poisson")
    bn.add_argument("--reps", type=int, default=1)
    bn.add_argument("--seed", type=int, default=0)
    bn.add_argument("--out", default=None)
    bn.add_argument("--timeout", type=float, default=None)
    bn.add_argument("--plain", action="store_true",
                    help="disable fixed-point acceleration (comparison mode)")

    du = sub.add_parser("dump-ast", help="print the parsed formula AST as JSON")
    du.add_argument("--formula", required=True)
    return p


FIT_DEFAULTS = {
    "family": "ols", "vcov": ["iid"], "output": "text", "ssc": "default",
    "signif": True, "ci_level": 0.95, "collin_tol": 1e-10, "demean_tol": 1e-6,
    "demean_maxiter": 10_000, "keep": [], "drop": [], "order": [],
}


def _load_config(path: str) -> dict:
    out = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key = value")
                k, v = (s.strip() for s in line.split("=", 1))
                if v.startswith(("'", '"')) and v.endswith(v[0]):
                    v = v[1:-1]
                out[k.replace("-", "_")] = v
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}")
    return out


def _apply_config_and_defaults(args):
    cfg = _load_config(args.config) if getattr(args, "config", None) else {}
    for key, default in FIT_DEFAULTS.items():
        if getattr(args, key, None) is None:
            if key in cfg:
                raw = cfg[key]
                if isinstance(default, bool):
                    val = raw.lower() in ("1", "true", "yes")
                elif isinstance(default, float):
                    val = float(raw)
                elif isinstance(default, int):
                    val = int(float(raw))
                elif isinstance(default, list):
                    val = [s.strip() for s in raw.split(",") if s.strip()]
                else:
                    val = raw
                setattr(args, key, val)
            else:
                setattr(args, key, default if not isinstance(default, list) else list(default))
    for key in ("weights", "offset", "subset", "split", "fsplit", "panel", "fitstat"):
        if getattr(args, key, None) is None and key in cfg:
            setattr(args, key, cfg[key])


def _resolve_threads(value: Optional[int]) -> int:
    if value is None:
        env = os.environ.get("FEHD_THREADS")
        value = int(env) if env else 0
    if value < 0:
        raise UsageError("--threads must be >= 0")
    if value == 0:
        value = max((os.cpu_count() or 2) // 2, 1)
    return value


def cmd_fit(args, threads: int) -> int:
    _apply_config_and_defaults(args)
    if args.dump_ast:
        spec = fml.parse_formula(args.formula)
        _emit(json.dumps(fml.ast_to_dict(spec), indent=2) + "\n", args.file)
        return 0
    ds = load_csv(args.data)
    if args.panel:
        parts = [s.strip() for s in args.panel.split(",")]
        if len(parts) != 2:
            raise UsageError("--panel expects unit,time")
        ds = ds.with_panel(parts[0], parts[1])
    if args.split and args.fsplit:
        raise UsageError("--split and --fsplit are mutually exclusive")
    options = MultiOptions(
        family=args.family, split=args.split, fsplit=args.fsplit,
        weights=args.weights, subset=args.subset, offset=args.offset,
        collin_tol=args.collin_tol, demean_tol=args.demean_tol,
        demean_max_iter=args.demean_maxiter, threads=threads)
    multi = run_multi(args.formula, ds, options)

    for rec in multi.results:
        if rec.error is not None:
            print(f"note: model {rec.provenance} failed: {rec.error}", file=sys.stderr)

    fits = [(None, r.fit) for r in multi.results if r.fit is not None]
    vcov_specs = [parse_vcov_spec(v, ssc=args.ssc) for v in args.vcov]
    labels = {}
    if args.labels:
        for pair in args.labels.split(","):
            if "=" not in pair:
                raise UsageError(f"--dict entries must be name=label, got {pair!r}")
            k, v = pair.split("=", 1)
            labels[k.strip()] = v.strip()
    fitstats = [s.strip() for s in args.fitstat.split(",")] if args.fitstat else None

    if args.fe_coefs:
        _dump_fe_coefs(multi, args.fe_coefs)

    if args.output == "plotdata":
        out = plot_data([f for f in fits], vcov_specs, ci_level=args.ci_level,
                        ds=ds, keep=args.keep or None, drop=args.drop or None)
    else:
        table = TableSpec(models=fits, vcov_specs=vcov_specs, ds=ds, dict=labels,
                          keep=args.keep, drop=args.drop, order=args.order,
                          fitstat_selection=fitstats, signif=args.signif,
                          output=args.output, caption=args.caption, label=args.label)
        out = render_table(table)
    _emit(out, args.file)
    return 0


def _dump_fe_coefs(multi, path: str):
    lines = ["model,sample,fe,level,col,value"]
    k = 0
    for rec in multi.results:
        if rec.fit is None:
            continue
        k += 1
        if not rec.fit.fe_labels:
            continue
        coefs, _report = fixef(rec.fit)
        for label, fset in coefs.items():
            for g, level in enumerate(fset.levels):
                for c in range(fset.coef.shape[1]):
                    lines.append(
                        f"({k}),{rec.sample_label},{label},{level},{c},{fset.coef[g, c]!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _emit(text: str, path: Optional[str]):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_simulate(args) -> int:
    cfg = bench_mod.DgpConfig(n=int(float(args.n)), seed=args.seed)
    ds = bench_mod.simulate_panel(cfg)
    bench_mod.dataset_to_csv(ds, args.out)
    print(f"wrote {ds.n_rows} rows to {args.out}", file=sys.stderr)
    return 0


def cmd_bench(args) -> int:
    sizes = [int(float(s)) for s in args.sizes.split(",") if s.strip()]
    try:
        cases = bench_mod.parse_cases(args.cases)
    except ValueError as exc:
        raise UsageError(str(exc))
    rows = bench_mod.run_benchmark(sizes, cases, reps=args.reps, seed=args.seed,
                                   timeout=args.timeout, accelerate=not args.plain)
    out = bench_mod.benchmark_csv(rows)
    _emit(out, args.out)
    return 0


def cmd_dump_ast(args) -> int:
    spec = fml.parse_formula(args.formula)
    sys.stdout.write(json.dumps(fml.ast_to_dict(spec), indent=2) + "\n")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        threads = _resolve_threads(args.threads)
        if args.command == "fit":
            return cmd_fit(args, threads)
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "bench":
            return cmd_bench(args)
        if args.command == "dump-ast":
            return cmd_dump_ast(args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return USAGE_EXIT
    except FormulaError as exc:
        print(f"formula error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (DataError, EstimationError, DemeanError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ESTIMATION_EXIT


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
