"""Rendering of fit results: console tables, minimal LaTeX, JSON, plot-data CSV."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data import Dataset
from .estimators import FIXED_DISPERSION, EstimationError, FitResult
from .inference import VcovSpec, coeftable, compute_vcov, fit_stats

__all__ = ["TableSpec", "render_table", "plot_data", "format_number"]

STAT_LABELS = {
    "n": "Observations",
    "r2": "R2",
    "ar2": "Adj. R2",
    "wr2": "Within R2",
    "rmse": "RMSE",
    "ll": "Log-Likelihood",
    "bic": "BIC",
    "apr2": "Adj. Pseudo R2",
    "sq.cor": "Squared Cor.",
    "wald": "Wald (joint nullity)",
    "ivf": "F-test (1st stage)",
    "wh": "Wu-Hausman",
}

CONSOLE_SIGNIF = ((0.001, "***"), (0.01, "**"), (0.05, "*"), (0.1, "."))
LATEX_SIGNIF = ((0.01, "***"), (0.05, "**"), (0.1, "*"))
CONSOLE_LEGEND = "Signif. codes: 0 '***' 0.001 '**' 0.01 '*' 0.05 '.' 0.1 ' ' 1"
LATEX_LEGEND = r"Signif. Codes: ***: 0.01, **: 0.05, *: 0.1"


def format_number(v) -> str:
    """4 significant digits, scientific below 1e-4."""
    if v is None:
        return "--"
    if isinstance(v, (int, np.integer)):
        return f"{int(v):,}"
    if not np.isfinite(v):
        return "--"
    if v == 0:
        return "0"
    out = f"{v:.4g}"
    if "e" in out and abs(v) >= 1e-4:  # large magnitudes: keep positional with separators
        out = f"{v:,.1f}" if abs(v) >= 1e6 else f"{v:.6g}"
    return out


def stars_for(p: float, thresholds) -> str:
    for cut, mark in thresholds:
        if p < cut:
            return mark
    return ""


@dataclass
class TableSpec:
    models: list  # FitResult or (label, FitResult)
    vcov_specs: list = field(default_factory=lambda: [VcovSpec("iid")])
    ds: Optional[Dataset] = None
    dict: dict = field(default_factory=dict)
    keep: list = field(default_factory=list)
    drop: list = field(default_factory=list)
    order: list = field(default_factory=list)
    fitstat_selection: Optional[list] = None
    signif: bool = True
    output: str = "text"  # text | latex | json
    caption: Optional[str] = None
    label: Optional[str] = None


def _default_stats(fit: FitResult) -> list[str]:
    if fit.family in FIXED_DISPERSION:
        return ["n", "ll", "bic", "apr2", "sq.cor"]
    stats = ["n", "r2"]
    if fit.fe_labels:
        stats.append("wr2")
    return stats


@dataclass
class _Col:
    label: str
    fit: FitResult
    rows: dict
    se_label: str
    stats: dict


def _build_columns(spec: TableSpec) -> list[_Col]:
    cols = []
    k = 0
    for entry in spec.models:
        if isinstance(entry, tuple):
            base_label, fit = entry
        else:
            base_label, fit = None, entry
        for vspec in spec.vcov_specs:
            k += 1
            vc = compute_vcov(fit, vspec, spec.ds)
            rows = {r["name"]: r for r in coeftable(fit, vc)}
            stats_names = spec.fitstat_selection or _default_stats(fit)
            stats = fit_stats(fit, stats_names, vcov=vc, ds=spec.ds)
            cols.append(_Col(label=base_label or f"({k})", fit=fit, rows=rows,
                             se_label=vc.label, stats=stats))
    return cols


def _match_any(name: str, patterns: list[str]) -> bool:
    for pat in patterns:
        negate = pat.startswith("!")
        body = pat[1:] if negate else pat
        hit = re.search(body, name) is not None
        if hit != negate:
            return True
    return False


def _select_rows(names: list[str], spec: TableSpec) -> list[str]:
    out = list(names)
    if spec.keep:
        out = [n for n in out if _match_any(n, spec.keep)]
    if spec.drop:
        out = [n for n in out if not _match_any(n, spec.drop)]
    for pat in reversed(spec.order):
        front = [n for n in out if _match_any(n, [pat])]
        back = [n for n in out if not _match_any(n, [pat])]
        out = front + back
    return out


def render_table(spec: TableSpec) -> str:
    if not spec.models:
        raise EstimationError("render_table requires at least one model")
    cols = _build_columns(spec)
    coef_names: list[str] = []
    for c in cols:
        for n in c.rows:
            if n not in coef_names:
                coef_names.append(n)
    coef_names = _select_rows(coef_names, spec)
    fe_names: list[str] = []
    for c in cols:
        for f in c.fit.fe_labels:
            if f not in fe_names:
                fe_names.append(f)
    stat_names: list[str] = []
    for c in cols:
        for s in c.stats:
            if s not in stat_names:
                stat_names.append(s)
    if spec.output == "json":
        return _render_json(spec, cols)
    if spec.output == "latex":
        return _render_latex(spec, cols, coef_names, fe_names, stat_names)
    return _render_text(spec, cols, coef_names, fe_names, stat_names)


def _label(spec: TableSpec, name: str) -> str:
    return spec.dict.get(name, name)


def _cell(row, signif, thresholds) -> str:
    est = format_number(row["estimate"])
    if signif:
        est += stars_for(row["p"], thresholds)
    return f"{est} ({format_number(row['se'])})"


def _stat_cell(name: str, value) -> str:
    if isinstance(value, dict):  # wald / iv tests
        return f"{format_number(value['stat'])} (p={format_number(value['p'])})"
    if name == "n":
        return f"{int(value):,}"
    return format_number(value)


def _render_text(spec, cols, coef_names, fe_names, stat_names) -> str:
    body: list[list[str]] = []

    def row(label, cells):
        body.append([label] + cells)

    if any(c.fit.sample_label for c in cols):
        row("Sample", [c.fit.sample_label or "Full sample" for c in cols])
    row("Dependent Var.:", [_label(spec, c.fit.lhs_name) for c in cols])
    body.append(["", *[""] * len(cols)])
    for name in coef_names:
        cells = []
        for c in cols:
            r = c.rows.get(name)
            cells.append(_cell(r, spec.signif, CONSOLE_SIGNIF) if r else "")
        row(_label(spec, name), cells)
    if fe_names:
        row("Fixed-Effects:", ["" for _ in cols])
        for f in fe_names:
            row(_label(spec, f), ["Yes" if f in c.fit.fe_labels else "No" for c in cols])
    row("S.E. type", [c.se_label for c in cols])
    for s in stat_names:
        row(STAT_LABELS.get(s, s), [_stat_cell(s, c.stats[s]) if s in c.stats else "--"
                                    for c in cols])

    headers = ["", *[c.label for c in cols]]
    widths = [max(len(r[k]) for r in [headers] + body) for k in range(len(headers))]
    lines = []
    lines.append("  ".join(h.ljust(widths[0]) if k == 0 else h.rjust(widths[k])
                           for k, h in enumerate(headers)).rstrip())
    sep_done = {"coef": False}
    for r in body:
        if r[0] in ("S.E. type",) and not sep_done["coef"]:
            lines.append("  ".join("_" * widths[k] for k in range(len(widths))))
            sep_done["coef"] = True
        if r[0] == "Fixed-Effects:":
            lines.append("Fixed-Effects:".ljust(widths[0]) + "  "
                         + "  ".join("-" * widths[k + 1] for k in range(len(cols))))
            continue
        lines.append("  ".join(cell.ljust(widths[0]) if k == 0 else cell.rjust(widths[k])
                               for k, cell in enumerate(r)).rstrip())
    if spec.signif:
        lines.append("---")
        lines.append(CONSOLE_LEGEND)
    return "\n".join(lines) + "\n"


def _tex_escape(s: str) -> str:
    return (s.replace("\\", r"\textbackslash{}").replace("&", r"\&")
            .replace("%", r"\%").replace("#", r"\#").replace("_", r"\_")
            .replace("$", r"\$"))


def _render_latex(spec, cols, coef_names, fe_names, stat_names) -> str:
    ncol = len(cols)
    lines = []
    wrap = spec.caption is not None or spec.label is not None
    if wrap:
        lines.append(r"\begin{table}[htbp]")
        if spec.caption:
            lab = f"\\label{{{spec.label}}}" if spec.label else ""
            lines.append(f"   \\caption{{{lab}{_tex_escape(spec.caption)}}}")
        elif spec.label:
            lines.append(f"   \\label{{{spec.label}}}")
        lines.append(r"   \centering")
    lines.append(r"\begin{tabular}{l" + "c" * ncol + "}")
    lines.append(r"   \toprule")
    dep = " & ".join(_tex_escape(_label(spec, c.fit.lhs_name)) for c in cols)
    lines.append(f"   Dependent Variables: & {dep}\\\\")
    if any(c.fit.sample_label for c in cols):
        samp = " & ".join(_tex_escape(c.fit.sample_label or "Full sample") for c in cols)
        lines.append(f"   Sample & {samp}\\\\")
    lines.append("   Model: & " + " & ".join(f"({k + 1})" for k in range(ncol)) + r"\\")
    lines.append(r"   \midrule")
    lines.append(r"   \emph{Variables}\\")
    for name in coef_names:
        est_cells, se_cells = [], []
        for c in cols:
            r = c.rows.get(name)
            if r is None:
                est_cells.append("")
                se_cells.append("")
            else:
                star = f"$^{{{stars_for(r['p'], LATEX_SIGNIF)}}}$" if \
                    (spec.signif and stars_for(r["p"], LATEX_SIGNIF)) else ""
                est_cells.append(format_number(r["estimate"]) + star)
                se_cells.append(f"({format_number(r['se'])})")
        lines.append(f"   {_tex_escape(_label(spec, name))} & " + " & ".join(est_cells) + r"\\")
        lines.append("    & " + " & ".join(se_cells) + r"\\")
    if fe_names:
        lines.append(r"   \midrule")
        lines.append(r"   \emph{Fixed-effects}\\")
        for f in fe_names:
            cells = ["Yes" if f in c.fit.fe_labels else "No" for c in cols]
            lines.append(f"   {_tex_escape(_label(spec, f))} & " + " & ".join(cells) + r"\\")
    lines.append(r"   \midrule")
    lines.append(r"   \emph{Fit statistics}\\")
    for s in stat_names:
        cells = [_stat_cell(s, c.stats[s]) if s in c.stats else "--" for c in cols]
        lines.append(f"   {_tex_escape(STAT_LABELS.get(s, s))} & " + " & ".join(cells) + r"\\")
    lines.append(r"   \midrule")
    se_types = " & ".join(_tex_escape(c.se_label) for c in cols)
    lines.append(f"   S.E. type & {se_types}\\\\")
    lines.append(r"   \bottomrule")
    if spec.signif:
        lines.append(rf"   \multicolumn{{{ncol + 1}}}{{l}}{{\emph{{{LATEX_LEGEND}}}}}\\")
    lines.append(r"\end{tabular}")
    if wrap:
        lines.append(r"\end{table}")
    return "\n".join(lines) + "\n"


def _render_json(spec: TableSpec, cols) -> str:
    models = []
    for c in cols:
        fit = c.fit
        stats_out = {}
        for k, v in c.stats.items():
            stats_out[k] = v if not isinstance(v, dict) else dict(v)
        models.append({
            "label": c.label,
            "lhs": fit.lhs_name,
            "sample": fit.sample_label,
            "family": fit.family,
            "se_type": c.se_label,
            "nobs": fit.dof.n_used,
            "df_resid": fit.dof.df_resid,
            "coefficients": {name: {"estimate": r["estimate"], "se": r["se"],
                                    "stat": r["stat"], "p": r["p"]}
                             for name, r in c.rows.items()},
            "dropped_collinear": fit.dropped_collinear,
            "fixed_effects": fit.fe_labels,
            "fitstats": stats_out,
        })
    return json.dumps({"models": models}, indent=2, allow_nan=True) + "\n"


def plot_data(models: list, vcov_specs: Optional[list] = None,
              ci_level: float = 0.95, ds: Optional[Dataset] = None,
              keep: Optional[list] = None, drop: Optional[list] = None) -> str:
    """Coefficient-plot data as CSV: point estimates and Student-t CIs."""
    from scipy.special import stdtrit  # loaded by the first plot a run makes
    vcov_specs = vcov_specs or [VcovSpec("iid")]
    if not 0.0 <= ci_level < 1.0:
        raise EstimationError("ci_level must be in [0, 1)")
    lines = ["model,coef,estimate,ci_low,ci_high,level"]
    k = 0
    for entry in models:
        label, fit = entry if isinstance(entry, tuple) else (None, entry)
        for vspec in vcov_specs:
            k += 1
            mlabel = label or f"({k})"
            if fit.sample_label:
                mlabel = f"{mlabel} {fit.sample_label}"
            vc = compute_vcov(fit, vspec, ds)
            rows = coeftable(fit, vc)
            names = [r["name"] for r in rows]
            if keep:
                names = [n for n in names if _match_any(n, keep)]
            if drop:
                names = [n for n in names if not _match_any(n, drop)]
            # the Student t quantile
            tq = stdtrit(fit.dof.df_resid, 0.5 + ci_level / 2.0) if ci_level > 0 else 0.0
            for r in rows:
                if r["name"] not in names:
                    continue
                half = float(tq) * r["se"]
                est = r["estimate"]
                lines.append(f"{mlabel},{r['name']},{est!r},"
                             f"{float(est - half)!r},{float(est + half)!r},{ci_level}")
    return "\n".join(lines) + "\n"
