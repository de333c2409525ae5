"""Command-line entry point: fit, simulate, bench, dump-ast.

``fehd fit`` loads only the CSV columns its run reads: the formula's
variables over every stepwise step, weights, offset, split, subset, panel
and vcov columns.  Computed names such as ``log(x)`` are loaded too when the
file has a column of that name, since such a column takes precedence over the
computation.  When the names cannot be worked out (a malformed formula,
subset, panel or vcov), or one of them is not in the file, every column is
loaded, so errors and their "available:" lists are those of a full load.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import bench as bench_mod
from . import formula as fml
from .data import SUBSET_RE, DataError, load_csv
from .demean import DEFAULT_MAX_ITER, DEFAULT_TOL, DemeanError
from .estimators import DEFAULT_COLLIN_TOL, EstimationError, fixef, model_columns
from .formula import FormulaError
from .inference import parse_vcov_spec
from .multiest import MultiOptions, run_multi
from .present import TableSpec, plot_data, render_table

USAGE_EXIT = 1
ESTIMATION_EXIT = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")

    def long_options(self) -> dict[str, argparse.Action]:
        """Each long option's action, keyed by its name with '-' as '_'."""
        return {opt[2:].replace("-", "_"): action for action in self._actions
                for opt in action.option_strings if opt.startswith("--")}


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
    fit.add_argument("--collin-tol", type=float, default=None,
                     help="drop a regressor once what the regressors before it "
                          "in the formula leave of it is at most this, relative "
                          "to its own sum of squares (the larger of it after and "
                          "before demeaning): of two collinear regressors the "
                          "later is dropped, whatever their units")
    fit.add_argument("--demean-tol", type=float, default=None,
                     help="demeaning stop: largest fixed-effect move per sweep, "
                          "relative to each column's standard deviation; for a "
                          "GLM, that of the first and the last IRLS step, the "
                          "steps between being demeaned more loosely")
    fit.add_argument("--demean-maxiter", type=int, default=None)
    fit.add_argument("--fe-coefs", default=None, help="dump recovered FE coefficients (CSV path)")
    fit.add_argument("--caption", default=None)
    fit.add_argument("--label", default=None)
    fit.add_argument("--config", default=None,
                     help="file of 'option = value' lines, one --option value "
                          "each (a switch takes true or false); options given "
                          "on the command line win")
    fit.set_defaults(fit_parser=fit)

    sim = sub.add_parser("simulate", help="generate the benchmark panel as CSV")
    sim.add_argument("--n", required=True, help="rows, e.g. 1e5")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True)

    bn = sub.add_parser("bench", help="run timing benchmarks on the simulated DGP")
    bn.add_argument("--sizes", required=True, help="comma list, e.g. 1e4,1e5")
    bn.add_argument("--cases", required=True,
                    help="comma list, e.g. simple2fe,difficult3fe-poisson,"
                         "difficult2fe-slopes")
    bn.add_argument("--reps", type=int, default=1)
    bn.add_argument("--seed", type=int, default=0)
    bn.add_argument("--out", default=None)
    bn.add_argument("--timeout", type=float, default=None)
    bn.add_argument("--plain", action="store_true",
                    help="time OLS cases with plain alternating sweeps over the "
                         "rows instead of conjugate gradients (comparison mode)")

    du = sub.add_parser("dump-ast", help="print the parsed formula AST as JSON")
    du.add_argument("--formula", required=True)
    return p


FIT_DEFAULTS = {
    "family": "ols", "vcov": ["iid"], "output": "text", "ssc": "default",
    "signif": True, "ci_level": 0.95, "collin_tol": DEFAULT_COLLIN_TOL,
    "demean_tol": DEFAULT_TOL, "demean_maxiter": DEFAULT_MAX_ITER,
    "keep": [], "drop": [], "order": [],
}


# fit options a config file cannot set
NOT_IN_CONFIG = ("help", "formula", "data", "config")
SWITCH_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _load_config(path: str) -> list[tuple[str, str]]:
    """The (where, key, value) of each ``key = value`` line, in file order."""
    out = []
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
                out.append((f"{path}:{lineno}", k.replace("-", "_"), v))
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}")
    return out


def _config_value(where: str, key: str, raw: str, action: argparse.Action):
    """A config value read as ``--key raw`` would be: the option's own type and
    choices; a switch takes a true/false word."""
    if action.nargs == 0:
        if raw.lower() not in SWITCH_WORDS:
            raise UsageError(f"{where}: {key} takes true or false, got {raw!r}")
        return action.const if SWITCH_WORDS[raw.lower()] else not action.const
    try:
        val = raw if action.type is None else action.type(raw)
    except (TypeError, ValueError):
        raise UsageError(f"{where}: {key}: invalid {action.type.__name__} value {raw!r}")
    if action.choices is not None and val not in action.choices:
        raise UsageError(f"{where}: {key}: invalid choice {raw!r} (choose from "
                         + ", ".join(map(str, action.choices)) + ")")
    return val


def _apply_config_and_defaults(args):
    """Fill the fit options not given on the command line from ``--config``,
    then from ``FIT_DEFAULTS``.  A repeatable option's lines append."""
    options = args.fit_parser.long_options()
    given = {k for k, v in vars(args).items() if v is not None}
    cfg: dict = {}
    for where, key, raw in _load_config(args.config) if args.config else []:
        action = options.get(key)
        if action is None:
            raise UsageError(f"{where}: unknown config key {key!r}")
        if action.dest in NOT_IN_CONFIG:
            raise UsageError(f"{where}: {key} cannot be set in a config file")
        val = _config_value(where, key, raw, action)
        if action.dest in given:
            continue
        if isinstance(FIT_DEFAULTS.get(action.dest), list):
            cfg.setdefault(action.dest, []).append(val)
        else:
            cfg[action.dest] = val
    for key, val in cfg.items():
        setattr(args, key, val)
    for key, default in FIT_DEFAULTS.items():
        if getattr(args, key) is None:
            setattr(args, key, list(default) if isinstance(default, list) else default)


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
    panel = [s.strip() for s in args.panel.split(",")] if args.panel else None
    ds = _load_run_columns(args, panel)
    if panel is not None:
        if len(panel) != 2:
            raise UsageError("--panel expects unit,time")
        ds = ds.with_panel(panel[0], panel[1])
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


def _load_run_columns(args, panel: Optional[list[str]]):
    """The CSV of a fit run, with the columns the run reads (see the module doc)."""
    names = _run_columns(args, panel)
    if names is None:
        return load_csv(args.data)
    raw, computed = names
    ds = load_csv(args.data, columns=raw | computed)
    if not raw <= ds.columns.keys():
        return load_csv(args.data)  # the unknown-variable error lists every column
    return ds


def _run_columns(args, panel: Optional[list[str]]) -> Optional[tuple[set[str], set[str]]]:
    """(variables, computed names) a fit run reads; None if they cannot be told."""
    raw: set[str] = set()
    computed: set[str] = set()
    try:
        for model in fml.expand_models(fml.parse_formula(args.formula)):
            model_raw, model_computed = model_columns(model, args.weights, args.offset)
            raw |= model_raw
            computed |= model_computed
        for spec in (parse_vcov_spec(v, ssc=args.ssc) for v in args.vcov):
            raw.update(spec.factors)
            raw.update(n for n in (spec.unit, spec.time) if n is not None)
    except (ValueError, EstimationError):  # FormulaError and DataError included
        return None
    raw.update(n for n in (args.split, args.fsplit) if n)
    if args.subset:
        m = SUBSET_RE.fullmatch(args.subset)
        if m is None:
            return None
        raw.add(m.group(1))
    if panel is not None:
        if len(panel) != 2:
            return None
        raw.update(panel)
    return raw - computed, computed


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
        head = f"({k}),{rec.provenance.sample_label}"
        for label, fset in coefs.items():
            for g, level in enumerate(fset.levels):
                for c in range(fset.coef.shape[1]):
                    lines.append(f"{head},{label},{level},{c},{float(fset.coef[g, c])!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _emit(text: str, path: Optional[str]):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _row_count(flag: str, text: str) -> int:
    """A panel size given to ``flag``: a finite number such as 1e5, truncated
    to an integer of at least ``NB_YEAR``, the rows of one simulated person."""
    try:
        n = int(float(text))
    except (ValueError, OverflowError):  # not a number, nan, +-inf
        n = 0
    if n < bench_mod.NB_YEAR:
        raise UsageError(f"{flag} takes finite row counts of at least "
                         f"{bench_mod.NB_YEAR}, got {text.strip()!r}")
    return n


def cmd_simulate(args) -> int:
    cfg = bench_mod.DgpConfig(n=_row_count("--n", args.n), seed=args.seed)
    ds = bench_mod.simulate_panel(cfg)
    bench_mod.dataset_to_csv(ds, args.out)
    print(f"wrote {ds.n_rows} rows to {args.out}", file=sys.stderr)
    return 0


def cmd_bench(args) -> int:
    sizes = [_row_count("--sizes", s) for s in args.sizes.split(",") if s.strip()]
    try:
        cases = bench_mod.parse_cases(args.cases)
    except ValueError as exc:
        raise UsageError(str(exc))
    try:
        rows = bench_mod.run_benchmark(sizes, cases, reps=args.reps, seed=args.seed,
                                       timeout=args.timeout, accelerate=not args.plain)
    except ValueError as exc:
        raise UsageError(str(exc))
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
