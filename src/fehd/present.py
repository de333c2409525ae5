"""Rendering of fit results: console tables, minimal LaTeX, JSON, plot-data CSV."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .data import Dataset
from .estimators import FIXED_DISPERSION, EstimationError, FitResult
from .inference import VcovSpec, coeftable, compute_vcov, fit_stats

__all__ = ["TableSpec", "RowPattern", "row_patterns", "render_table", "plot_data",
           "format_number"]

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


class RowPattern(NamedTuple):
    """A keep, drop or order pattern: a regex searched for in a row name,
    its match negated when the pattern was written with a leading '!'."""
    regex: re.Pattern
    negate: bool


def row_patterns(patterns) -> list[RowPattern]:
    """Compile row patterns once; a ``RowPattern`` passes through.  An
    invalid regex raises ValueError."""
    out = []
    for pat in patterns:
        if not isinstance(pat, RowPattern):
            negate = pat.startswith("!")
            try:
                pat = RowPattern(re.compile(pat[1:] if negate else pat), negate)
            except re.error as exc:
                raise ValueError(f"invalid pattern {pat!r}: {exc}") from None
        out.append(pat)
    return out


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

    def __post_init__(self):
        # keep, drop and order: regex strings ('!' negates) or RowPatterns
        self.keep, self.drop, self.order = (row_patterns(p)
                                            for p in (self.keep, self.drop, self.order))


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


def _build_columns(spec: TableSpec, stats: bool = True) -> list[_Col]:
    """The column list every output reads: one per model and vcov kind, (1),
    (2), ... unless labelled, with its rows by name and, under ``stats``, its
    fit statistics."""
    cols = []
    for entry in spec.models:
        base_label, fit = entry if isinstance(entry, tuple) else (None, entry)
        for vspec in spec.vcov_specs:
            vc = compute_vcov(fit, vspec, spec.ds)
            names = (spec.fitstat_selection or _default_stats(fit)) if stats else []
            cols.append(_Col(label=base_label or f"({len(cols) + 1})", fit=fit,
                             rows={r["name"]: r for r in coeftable(fit, vc)},
                             se_label=vc.label, stats=fit_stats(fit, names, vc, spec.ds)))
    return cols


def _match_any(name: str, patterns: list[RowPattern]) -> bool:
    return any((p.regex.search(name) is not None) != p.negate for p in patterns)


def _select_rows(names, spec: TableSpec) -> list[str]:
    out = [n for n in names if (not spec.keep or _match_any(n, spec.keep))
           and not _match_any(n, spec.drop)]
    for pat in reversed(spec.order):  # a stable sort: matching rows first
        out.sort(key=lambda n: not _match_any(n, [pat]))
    return out


def _union(name_lists) -> list[str]:
    """The names of ``name_lists`` in order of first appearance."""
    return list(dict.fromkeys(n for names in name_lists for n in names))


def render_table(spec: TableSpec) -> str:
    """The table of ``spec.models`` as text, LaTeX or JSON.  Text and LaTeX
    apply ``keep``, ``drop`` and ``order``; JSON applies none of them and
    lists every coefficient (``plot_data`` applies keep and drop)."""
    if not spec.models:
        raise EstimationError("render_table requires at least one model")
    cols = _build_columns(spec)
    if spec.output == "json":
        return _render_json(cols)
    coef_names = _select_rows(_union(c.rows for c in cols), spec)
    fe_names = _union(c.fit.fe_labels for c in cols)
    stat_names = _union(c.stats for c in cols)
    render = _render_latex if spec.output == "latex" else _render_text
    return render(spec, cols, coef_names, fe_names, stat_names)


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


def _render_json(cols) -> str:
    models = []
    for c in cols:
        fit = c.fit
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
            "fitstats": c.stats,
        })
    return json.dumps({"models": models}, indent=2, allow_nan=True) + "\n"


def plot_data(models: list, vcov_specs: Optional[list] = None,
              ci_level: float = 0.95, ds: Optional[Dataset] = None,
              keep: Optional[list] = None, drop: Optional[list] = None) -> str:
    """Coefficient-plot data as CSV: per table column (model and vcov kind)
    and row that ``keep`` and ``drop`` select (no ``order``), the estimate
    and its ``ci_level`` interval in the distribution ``coeftable`` tests the
    row with.  No fit statistic is computed."""
    from scipy.special import ndtri, stdtrit  # loaded by the first plot a run makes
    spec = TableSpec(models=models, vcov_specs=vcov_specs or [VcovSpec("iid")], ds=ds,
                     keep=keep or [], drop=drop or [])
    if not 0.0 <= ci_level < 1.0:
        raise EstimationError("ci_level must be in [0, 1)")
    q = 0.5 + ci_level / 2.0
    lines = ["model,coef,estimate,ci_low,ci_high,level"]
    for c in _build_columns(spec, stats=False):
        label = f"{c.label} {c.fit.sample_label}" if c.fit.sample_label else c.label
        for name in _select_rows(c.rows, spec):
            r = c.rows[name]
            tq = 0.0 if ci_level == 0 else ndtri(q) if r["df"] is None else stdtrit(r["df"], q)
            half = float(tq) * r["se"]
            est = r["estimate"]
            lines.append(f"{label},{name},{est!r},"
                         f"{float(est - half)!r},{float(est + half)!r},{ci_level}")
    return "\n".join(lines) + "\n"
