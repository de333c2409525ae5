"""Columnar dataset, CSV loading, sample masks, factor indexing and panel shifts."""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field, replace
from typing import Optional, Union

import numpy as np

__all__ = [
    "DataError",
    "NumericColumn",
    "CategoricalColumn",
    "Dataset",
    "SampleMask",
    "FactorIndex",
    "load_csv",
    "build_mask",
    "make_factor_index",
    "panel_shift",
    "first_appearance_codes",
]

MISSING_STRINGS = {"", "NA", "NaN", "nan"}


class DataError(ValueError):
    pass


@dataclass(frozen=True)
class NumericColumn:
    values: np.ndarray  # float64, NaN encodes missing; +-inf also counts as missing

    def __len__(self):
        return len(self.values)

    @property
    def missing(self) -> np.ndarray:
        cached = getattr(self, "_missing", None)
        if cached is None:
            cached = ~np.isfinite(self.values)
            object.__setattr__(self, "_missing", cached)
        return cached


@dataclass(frozen=True)
class CategoricalColumn:
    codes: np.ndarray  # int32 level codes, -1 encodes missing
    levels: tuple[str, ...]

    def __len__(self):
        return len(self.codes)

    @property
    def missing(self) -> np.ndarray:
        return self.codes < 0

    def values(self) -> np.ndarray:
        out = np.array(self.levels, dtype=object)[np.maximum(self.codes, 0)]
        out[self.codes < 0] = None
        return out


Column = Union[NumericColumn, CategoricalColumn]


@dataclass(frozen=True)
class Dataset:
    """Immutable column store; all columns share ``n_rows``."""

    n_rows: int
    columns: dict[str, Column]
    panel: Optional[tuple[str, str]] = None  # (unit column, time column)

    def __post_init__(self):
        for name, col in self.columns.items():
            if len(col) != self.n_rows:
                raise DataError(
                    f"column {name!r} has {len(col)} rows, expected {self.n_rows}")
        if self.panel is not None:
            for name in self.panel:
                self.column(name)

    def column(self, name: str) -> Column:
        try:
            return self.columns[name]
        except KeyError:
            raise DataError(f"unknown variable {name!r}; available: "
                            + ", ".join(sorted(self.columns))) from None

    def numeric(self, name: str) -> np.ndarray:
        col = self.column(name)
        if isinstance(col, NumericColumn):
            return col.values
        raise DataError(f"variable {name!r} is categorical, expected numeric")

    def has_column(self, name: str) -> bool:
        return name in self.columns

    def with_columns(self, extra: dict[str, Column]) -> "Dataset":
        merged = dict(self.columns)
        merged.update(extra)
        return replace(self, columns=merged)

    def with_panel(self, unit: str, time: str) -> "Dataset":
        return replace(self, panel=(unit, time))


@dataclass(frozen=True)
class SampleMask:
    keep: np.ndarray  # bool, length n_rows
    reason_counts: dict[str, int] = field(default_factory=dict)

    @property
    def n_used(self) -> int:
        cached = getattr(self, "_n_used", None)
        if cached is None:
            cached = int(self.keep.sum())
            object.__setattr__(self, "_n_used", cached)
        return cached

    def signature(self) -> bytes:
        sig = getattr(self, "_sig", None)
        if sig is None:
            sig = self.keep.tobytes()
            object.__setattr__(self, "_sig", sig)
        return sig


@dataclass(frozen=True)
class FactorIndex:
    """Row-to-group mapping over the kept rows, numbered in first-appearance order."""

    group_of_row: np.ndarray  # int64, length n_used
    n_groups: int
    group_sizes: np.ndarray
    levels: tuple[str, ...] = ()  # display label per group id (may be empty)

    def __post_init__(self):
        if self.n_groups > 0 and (self.group_of_row.min() < 0
                                  or self.group_of_row.max() >= self.n_groups):
            raise DataError("group ids out of range")


# ---------------------------------------------------------------------------
# CSV loading
# ---------------------------------------------------------------------------

def load_csv(path: str, schema_hints: Optional[dict[str, str]] = None) -> Dataset:
    """Load an RFC-4180-style CSV (UTF-8, header row required).

    Columns whose non-missing fields all parse as floats become numeric;
    everything else becomes categorical.  Empty fields and the strings
    NA / NaN / nan, with any surrounding whitespace, are treated as missing.
    ``schema_hints`` maps column names to 'numeric' or 'categorical' to
    override the inference.

    Blank lines are skipped.  There is no comment character: a field that
    starts with ``#`` is data.  Quoted fields may hold commas, doubled quotes
    and line breaks, so one row may span several lines of the file.
    """
    hints = schema_hints or {}
    try:
        fh = open(path, "r", newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    try:
        with fh:
            header, cells = _read_cells(path, fh)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None

    columns = {name: _parse_column(name, cells[:, k], hints.get(name))
               for k, name in enumerate(header)}
    return Dataset(n_rows=len(cells), columns=columns)


def _read_cells(path: str, fh) -> tuple[list[str], np.ndarray]:
    """The header and the body as an (n_rows, n_fields) array of strings.

    The body is tokenised in one C pass (``np.loadtxt``), which follows
    ``csv.reader``'s quoting rules and skips blank lines.
    """
    header = next(csv.reader(fh), None)
    if header is None:
        raise DataError(f"{path}: empty file")
    if len(set(header)) != len(header):
        dupes = sorted({h for h in header if header.count(h) > 1})
        raise DataError(f"{path}: duplicate header names: {', '.join(dupes)}")
    with warnings.catch_warnings():
        # an empty body is reported below as a DataError
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            cells = np.loadtxt(fh, delimiter=",", dtype=object, quotechar='"',
                               comments=None, ndmin=2)
        except ValueError as exc:
            raise _ragged_error(path, len(header), exc) from None
    if cells.size == 0:
        raise DataError(f"{path}: no data rows")
    if cells.shape[1] != len(header):
        raise _ragged_error(path, len(header))
    return header, cells


def _ragged_error(path: str, n_fields: int,
                  exc: Optional[Exception] = None) -> DataError:
    """An error naming the first row whose field count differs from the header's.

    Rows are numbered as ``csv.reader`` records with the header as row 1, and
    skipped blank lines keep their numbers.  This rescan runs only after the
    tokeniser has rejected the file.
    """
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for rownum, row in enumerate(reader, start=2):
            if row and len(row) != n_fields:
                return DataError(
                    f"{path}: row {rownum} has {len(row)} fields, expected {n_fields}")
    return DataError(f"{path}: cannot parse: {exc}")


_strip = np.frompyfunc(str.strip, 1, 1)


def _parse_column(name: str, cells: np.ndarray, hint: Optional[str]) -> Column:
    """A numeric or categorical column from an object array of field strings."""
    if hint not in (None, "numeric", "categorical"):
        raise DataError(f"bad schema hint for {name!r}: {hint!r}")
    if hint != "categorical":
        try:  # float() of every cell: ' 1.5 ', 'nan' and 'inf' parse as floats
            return NumericColumn(cells.astype(np.float64))
        except ValueError:
            pass
    present = ~np.isin(_strip(cells), list(MISSING_STRINGS))
    kept = cells[present]
    if hint != "categorical":
        try:
            values = np.full(len(cells), np.nan)
            values[present] = kept.astype(np.float64)
            return NumericColumn(values)
        except ValueError:
            if hint == "numeric":
                raise DataError(f"column {name!r}: non-numeric value "
                                f"{_first_non_float(kept)!r}") from None
    codes = np.full(len(cells), -1, dtype=np.int32)
    kept_codes, _, first_rows = first_appearance_codes(kept, return_first_rows=True)
    codes[present] = kept_codes
    return CategoricalColumn(codes, tuple(kept[first_rows]))


def _first_non_float(cells: np.ndarray) -> str:
    for c in cells:
        try:
            float(c)
        except ValueError:
            return c


# ---------------------------------------------------------------------------
# Sample masks
# ---------------------------------------------------------------------------

def build_mask(ds: Dataset,
               role_columns: dict[str, list[str]],
               subset: Optional[np.ndarray] = None,
               split_keep: Optional[np.ndarray] = None) -> SampleMask:
    """Listwise-deletion mask over the columns used by a model.

    ``role_columns`` maps a reason label (``lhs``, ``rhs``, ``fe``, ``iv``,
    ``weights``) to the column names it uses.  Rows failing several criteria
    are attributed to the first applicable reason, in the order: split,
    subset, then missing values per role.  Infinite values count as missing
    and fall under the same ``NA-<role>`` reasons.
    """
    keep = np.ones(ds.n_rows, dtype=bool)
    counts: dict[str, int] = {}

    def knock_out(bad: np.ndarray, reason: str):
        if not bad.any():
            return
        hit = bad & keep
        n = np.count_nonzero(hit)
        if n:
            counts[reason] = counts.get(reason, 0) + n
            keep[hit] = False

    if split_keep is not None:
        knock_out(~np.asarray(split_keep, dtype=bool), "split-level")
    if subset is not None:
        knock_out(~np.asarray(subset, dtype=bool), "subset")
    for role in ("lhs", "rhs", "fe", "iv", "weights"):
        seen = set()
        for name in role_columns.get(role, []):
            if name in seen:
                continue
            seen.add(name)
            knock_out(ds.column(name).missing, f"NA-{role.upper() if role != 'weights' else 'weights'}")
    return SampleMask(keep=keep, reason_counts=counts)


def evaluate_subset(ds: Dataset, expr: str) -> np.ndarray:
    """Evaluate a simple comparison predicate ``col OP value`` over the rows.

    OP is one of == != < <= > >=; values may be numbers or (quoted or bare)
    strings.  Rows with missing values never satisfy the predicate.
    """
    import re
    m = re.fullmatch(r"\s*([A-Za-z_][A-Za-z0-9._]*)\s*(==|!=|<=|>=|<|>)\s*(.+?)\s*", expr)
    if m is None:
        raise DataError(f"cannot parse subset expression {expr!r}; "
                        f"expected 'column OP value'")
    name, op, raw = m.groups()
    col = ds.column(name)
    if raw.startswith(("'", '"')) and raw.endswith(raw[0]) and len(raw) >= 2:
        value: object = raw[1:-1]
    else:
        try:
            value = float(raw)
        except ValueError:
            value = raw
    if isinstance(col, CategoricalColumn):
        if op not in ("==", "!="):
            raise DataError(f"subset on categorical {name!r} supports == and != only")
        target = str(int(value)) if isinstance(value, float) and value == int(value) else str(value)
        if target in col.levels:
            code = col.levels.index(target)
            hit = col.codes == code
        else:
            hit = np.zeros(ds.n_rows, dtype=bool)
        return hit if op == "==" else (~hit & (col.codes >= 0))
    vals = col.values
    if not isinstance(value, float):
        raise DataError(f"subset value {raw!r} is not numeric but {name!r} is")
    with np.errstate(invalid="ignore"):
        out = {"==": vals == value, "!=": vals != value, "<": vals < value,
               "<=": vals <= value, ">": vals > value, ">=": vals >= value}[op]
    out = out & ~np.isnan(vals)
    return out


# ---------------------------------------------------------------------------
# Factor indexing
# ---------------------------------------------------------------------------

def first_appearance_codes(values: np.ndarray,
                           return_first_rows: bool = False):
    """Dense integer codes numbered in order of first appearance.

    With ``return_first_rows`` also returns the row index at which each group
    (in first-appearance numbering) first occurs.
    """
    uniq, first_idx, inv = np.unique(values, return_index=True, return_inverse=True)
    order = np.argsort(first_idx, kind="stable")
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[order] = np.arange(len(uniq))
    codes = rank[inv.ravel()]
    if return_first_rows:
        return codes, len(uniq), np.sort(first_idx)
    return codes, len(uniq)


def _factor_values(ds: Dataset, mask: SampleMask, name: str) -> np.ndarray:
    """Validated raw integer values of a factor column on the kept rows."""
    col = ds.column(name)
    keep = mask.keep
    if isinstance(col, CategoricalColumn):
        codes = col.codes[keep].astype(np.int64)
        if (codes < 0).any():
            raise DataError(f"factor {name!r} has missing values inside the sample")
        return codes
    vals = col.values[keep]
    if np.isnan(vals).any():
        raise DataError(f"factor {name!r} has missing values inside the sample")
    rounded = np.rint(vals)
    if not np.array_equal(rounded, vals):
        raise DataError(f"numeric non-integer column {name!r} used as factor")
    return rounded.astype(np.int64)


def _factor_codes(ds: Dataset, mask: SampleMask, name: str) -> tuple[np.ndarray, int]:
    return first_appearance_codes(_factor_values(ds, mask, name))


def _label_at_rows(ds: Dataset, mask: SampleMask, name: str,
                   rows: np.ndarray) -> list[str]:
    col = ds.column(name)
    if isinstance(col, CategoricalColumn):
        kept_codes = col.codes[mask.keep]
        return [col.levels[kept_codes[r]] for r in rows]
    vals = col.values[mask.keep]
    return [str(int(vals[r])) for r in rows]


def make_factor_index(ds: Dataset, mask: SampleMask, factors: list[str]) -> FactorIndex:
    """Index for one factor or an observed-tuples combination of several."""
    if not factors:
        raise DataError("make_factor_index requires at least one factor")
    codes, n, first_rows = first_appearance_codes(
        _factor_values(ds, mask, factors[0]), return_first_rows=True)
    for name in factors[1:]:
        codes2, n2 = _factor_codes(ds, mask, name)
        combined = codes * np.int64(n2) + codes2
        codes, n, first_rows = first_appearance_codes(combined, return_first_rows=True)
    sizes = np.bincount(codes, minlength=n)
    parts = [_label_at_rows(ds, mask, name, first_rows) for name in factors]
    levels = tuple("^".join(p[g] for p in parts) for g in range(n))
    return FactorIndex(group_of_row=codes, n_groups=n, group_sizes=sizes, levels=levels)


# ---------------------------------------------------------------------------
# Panel lags / leads / differences
# ---------------------------------------------------------------------------

def _panel_keys(ds: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(composite int64 key, valid mask, x-independent) over all rows."""
    if ds.panel is None:
        raise DataError("panel identifiers unset; pass --panel unit,time")
    unit_name, time_name = ds.panel
    ucol = ds.column(unit_name)
    if isinstance(ucol, CategoricalColumn):
        ucodes = ucol.codes.astype(np.int64)
        uvalid = ucodes >= 0
    else:
        uvals = ucol.values
        uvalid = ~np.isnan(uvals)
        ucodes = np.zeros(ds.n_rows, dtype=np.int64)
        ucodes[uvalid], _ = first_appearance_codes(uvals[uvalid])
    tvals = ds.numeric(time_name)
    tvalid = ~np.isnan(tvals)
    valid = uvalid & tvalid
    t_int = np.zeros(ds.n_rows, dtype=np.int64)
    tv = tvals[valid]
    rounded = np.rint(tv)
    if not np.array_equal(rounded, tv):
        raise DataError(f"time column {time_name!r} must be integer-valued for panel shifts")
    t_int[valid] = rounded.astype(np.int64)
    span = np.int64(1)
    if valid.any():
        span = np.int64(t_int[valid].max() - t_int[valid].min() + 1)
    base = np.int64(t_int[valid].min()) if valid.any() else np.int64(0)
    key = np.full(ds.n_rows, -1, dtype=np.int64)
    key[valid] = ucodes[valid] * (2 * span + 1) + (t_int[valid] - base)
    return key, valid, span


def panel_shift(ds: Dataset, mask: Optional[SampleMask], var: str,
                op: str, offsets: tuple[int, ...]) -> list[tuple[str, np.ndarray]]:
    """Lag (``l``), lead (``f``) or difference (``d``) columns of ``var``.

    Shifts follow time-value arithmetic (lag 1 means time t-1) within units;
    rows without a matching shifted time come back missing.  ``d(x, k)`` is
    ``x - l(x, k)``.
    """
    if op not in ("l", "f", "d"):
        raise DataError(f"unknown panel operator {op!r}")
    keep = mask.keep if mask is not None else np.ones(ds.n_rows, dtype=bool)
    key, valid, span = _panel_keys(ds)
    use = valid & keep
    keys_used = key[use]
    order = np.argsort(keys_used, kind="stable")
    sorted_keys = keys_used[order]
    if len(sorted_keys) > 1 and (np.diff(sorted_keys) == 0).any():
        raise DataError("duplicate (unit, time) pairs in the panel")
    x = ds.numeric(var)
    x_used = x[use]
    rows_used = np.flatnonzero(use)

    out = []
    for k in offsets:
        shift = -k if op == "f" else k
        if abs(shift) >= span:  # no within-unit pair can be this far apart
            out.append((f"{op}({var},{k})", np.full(ds.n_rows, np.nan)))
            continue
        target = keys_used - shift  # source key providing the shifted value
        pos = np.searchsorted(sorted_keys, target)
        pos_clipped = np.minimum(pos, len(sorted_keys) - 1)
        hit = sorted_keys[pos_clipped] == target if len(sorted_keys) else np.zeros(0, bool)
        col = np.full(ds.n_rows, np.nan)
        src = order[pos_clipped]
        vals = np.where(hit, x_used[src], np.nan)
        if op == "d":
            vals = x_used - vals
        col[rows_used] = vals
        out.append((f"{op}({var},{k})", col))
    return out
