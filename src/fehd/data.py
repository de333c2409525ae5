"""Columnar dataset, CSV loading, sample masks, factor indexing and panel shifts."""

from __future__ import annotations

import csv
import itertools
import re
import warnings
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Union

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
# a --subset predicate: column, comparison, value
SUBSET_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9._]*)\s*(==|!=|<=|>=|<|>)\s*(.+?)\s*")


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
            cached = int(np.count_nonzero(self.keep))  # a bool sum() is ~9x slower
            object.__setattr__(self, "_n_used", cached)
        return cached

    def signature(self) -> bytes:
        """A key equal for equal masks over one dataset's rows.

        Packed to one bit per row: frames sharing a mask look each other up
        by it, and every hit compares the whole key.
        """
        sig = getattr(self, "_sig", None)
        if sig is None:
            sig = np.packbits(self.keep).tobytes()
            object.__setattr__(self, "_sig", sig)
        return sig


@dataclass(frozen=True)
class FactorIndex:
    """Row-to-group mapping over the kept rows, numbered in first-appearance order.

    ``levels`` holds a display label per group id.  The labels are built from
    ``label_parts`` on first read and cached; an index without label parts
    has ``levels == ()``.
    """

    group_of_row: np.ndarray  # int64, length n_used
    n_groups: int
    # per factor: its raw values at each group's first row (floats, or the
    # codes of a categorical) and the categorical's levels (None if numeric)
    label_parts: tuple[tuple[np.ndarray, Optional[tuple[str, ...]]], ...] = ()

    def __post_init__(self):
        if self.n_groups > 0 and (self.group_of_row.min() < 0
                                  or self.group_of_row.max() >= self.n_groups):
            raise DataError("group ids out of range")

    @property
    def levels(self) -> tuple[str, ...]:
        cached = getattr(self, "_levels", None)
        if cached is None:
            parts = [_labels(raw, levels) for raw, levels in self.label_parts]
            cached = tuple(map("^".join, zip(*parts)))
            object.__setattr__(self, "_levels", cached)
        return cached


# ---------------------------------------------------------------------------
# CSV loading
# ---------------------------------------------------------------------------

def load_csv(path: str, schema_hints: Optional[dict[str, str]] = None,
             columns: Optional[Iterable[str]] = None) -> Dataset:
    """Load an RFC-4180-style CSV (UTF-8, header row required).

    Columns whose non-missing fields all parse as floats become numeric;
    everything else becomes categorical.  Empty fields and the strings
    NA / NaN / nan, with any surrounding whitespace, are treated as missing.
    ``schema_hints`` maps column names to 'numeric' or 'categorical' to
    override the inference.

    ``columns`` names the columns to load, in header order; header columns
    not named are skipped, and names the header lacks are ignored.  ``None``
    loads every column.  Every row must still have the header's field count.

    Blank lines are skipped.  There is no comment character: a field that
    starts with ``#`` is data.  Quoted fields may hold commas, doubled quotes
    and line breaks, so one row may span several lines of the file.

    The body is read in blocks of ``TYPED_BLOCK_ROWS`` rows by a C parser
    (``np.loadtxt`` with a structured dtype) that turns the loaded columns
    straight into float64 and keeps one character of each skipped field.
    From the first block holding a loaded cell that parser rejects (a missing
    value, text, ``1_0``, non-ASCII digits) to the end of the file, the loaded
    fields are kept as strings and converted with ``float()`` semantics as
    described above; a column hinted categorical is read that way throughout.
    So a file with missing values costs at most one block more than a string
    read.  A column that turns out categorical after numeric blocks rereads
    those rows as strings.  Both ways give the same values.
    """
    hints = schema_hints or {}
    try:
        fh = open(path, "r", newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    try:
        with fh:
            header = _read_header(path, fh)
            wanted = set(header if columns is None else columns)
            read = [k for k, name in enumerate(header) if name in wanted]
            # a text column after numeric blocks rereads them, so a pipe skips
            # the typed blocks
            typed = fh.seekable() and not _has_info_separators(path) \
                and all(hints.get(header[k]) != "categorical" for k in read)
            blocks, rest = _read_body(path, fh, len(header), read, typed)
            n_typed = sum(len(b) for b in blocks)
            n_rows = n_typed + (0 if rest is None else len(rest))
            if n_rows == 0:
                raise DataError(f"{path}: no data rows")
            parsed = {}
            for k, name in enumerate(header):
                hint = hints.get(name)
                if hint not in (None, "numeric", "categorical"):
                    raise DataError(f"bad schema hint for {name!r}: {hint!r}")
                if k not in read:
                    continue
                typed_part = [b[f"f{k}"] for b in blocks]
                if rest is None:
                    parsed[name] = NumericColumn(np.concatenate(typed_part))
                    continue
                col = _parse_column(name, rest[f"f{k}"], hint)
                if typed_part and isinstance(col, NumericColumn):
                    col = NumericColumn(np.concatenate(typed_part + [col.values]))
                elif typed_part:  # its levels need the typed rows' strings
                    fh.seek(0)
                    _read_header(path, fh)
                    head = _loadtxt(fh, len(header), [k], "O", n_typed)
                    col = _parse_column(name, np.concatenate([head[f"f{k}"], rest[f"f{k}"]]),
                                        hint)
                parsed[name] = col
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    return Dataset(n_rows=n_rows, columns=parsed)


# Rows per typed block: a block with a cell the float parser rejects is
# parsed again as strings, so this bounds the work a failed block wastes.
TYPED_BLOCK_ROWS = 1 << 12


def _read_header(path: str, fh) -> list[str]:
    header = next(csv.reader(fh), None)
    if header is None:
        raise DataError(f"{path}: empty file")
    if len(set(header)) != len(header):
        dupes = sorted({h for h in header if header.count(h) > 1})
        raise DataError(f"{path}: duplicate header names: {', '.join(dupes)}")
    return header


def _read_body(path: str, fh, n_fields: int, read: list[int],
               typed: bool) -> tuple[list[np.ndarray], Optional[np.ndarray]]:
    """The body as (typed blocks, string rest); the rest is None if all parsed.

    With ``typed``, blocks of ``TYPED_BLOCK_ROWS`` rows are parsed with
    float64 loaded fields until one fails; that block's lines are replayed
    and, with every later line, parsed in one pass with the loaded fields as
    strings.  A failure there (a ragged row) ends in a rescan naming the row.
    """
    lines = iter(fh)
    blocks: list[np.ndarray] = []
    while typed:
        lines, replay = itertools.tee(lines)
        try:
            block = _loadtxt(lines, n_fields, read, "f8", TYPED_BLOCK_ROWS)
        except UnicodeDecodeError as exc:  # a replay would skip the undecoded bytes
            raise _ragged_error(path, n_fields, exc) from None
        except ValueError:  # a cell numpy's float parser rejects, or a ragged row
            lines = replay
            break
        blocks.append(block)
        if len(block) < TYPED_BLOCK_ROWS:
            return blocks, None
    try:
        return blocks, _loadtxt(lines, n_fields, read, "O")
    except ValueError as exc:
        raise _ragged_error(path, n_fields, exc) from None


def _loadtxt(lines, n_fields: int, read: list[int], kind: str,
             max_rows: Optional[int] = None) -> np.ndarray:
    """Rows of ``lines`` as a 1-d structured array with field ``f<k>`` for column k.

    The fields of the columns in ``read`` have dtype ``kind``; every other
    field is ``U1``, so its text is cut to one character but each row's field
    count is still checked.  (``usecols`` would not check it on rows that lack
    a skipped field, and ``S1`` would reject non-Latin-1 text.)  The rows are
    tokenised in one C pass, which follows ``csv.reader``'s quoting rules and
    skips blank lines; with ``max_rows`` it stops after that many rows and
    leaves the lines that follow unread.
    """
    read = set(read)
    dtype = np.dtype([(f"f{k}", kind if k in read else "U1") for k in range(n_fields)])
    with warnings.catch_warnings():
        # an empty body is reported by the caller as a DataError, and blank
        # lines are skipped whether or not ``max_rows`` is given
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        warnings.filterwarnings("ignore", "Input line [0-9]+ contained no data", UserWarning)
        return np.loadtxt(lines, delimiter=",", dtype=dtype, quotechar='"',
                          comments=None, ndmin=1, max_rows=max_rows)


_INFO_SEPARATORS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _has_info_separators(path: str) -> bool:
    """Whether the file holds an ASCII information separator (0x1c-0x1f).

    numpy's float parser strips these around a number like whitespace, but
    ``float()`` rejects them, so a file holding one takes the string pass.
    """
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            if any(sep in block for sep in _INFO_SEPARATORS):
                return True
    return False


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
    m = SUBSET_RE.fullmatch(expr)
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
        if not isinstance(value, float):
            target = value
        elif not np.isfinite(value):
            target = raw  # inf and nan have no integer form: compare the token
        else:
            target = str(int(value)) if value == int(value) else str(value)
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

    Integer input whose value span ``max - min + 1`` is at most ``2n + 1024``
    is coded through a table indexed by value, in O(n + span); any other
    input (floats, objects, wide spans) goes through the ``np.unique`` sort.
    Both paths give the same arrays.
    """
    n = len(values)
    if n and np.issubdtype(values.dtype, np.integer):
        lo, hi = int(values.min()), int(values.max())
        if hi - lo + 1 <= 2 * n + 1024:  # Python ints: no overflow
            return _table_codes(values, lo, hi - lo + 1, return_first_rows)
    uniq, first_idx, inv = np.unique(values, return_index=True, return_inverse=True)
    order = np.argsort(first_idx, kind="stable")
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[order] = np.arange(len(uniq))
    codes = rank[inv.ravel()]
    if return_first_rows:
        return codes, len(uniq), np.sort(first_idx)
    return codes, len(uniq)


def _table_codes(values: np.ndarray, lo: int, span: int, return_first_rows: bool):
    """``first_appearance_codes`` of integers in ``[lo, lo + span)``."""
    n = len(values)
    if values.dtype == np.uint64:
        offsets = (values - np.uint64(lo)).view(np.int64)  # < span: no sign bit
    else:  # every other integer type fits int64; the caller's array is not written
        offsets = values.astype(np.int64)
        offsets -= lo
    first = np.full(span, n, dtype=np.intp)  # each value's first row; n = absent
    np.minimum.at(first, offsets, np.arange(n, dtype=np.intp))
    present = np.flatnonzero(first < n)
    first_rows = first[present]
    order = np.argsort(first_rows, kind="stable")
    rank = np.empty(span, dtype=np.int64)
    rank[present[order]] = np.arange(len(present))
    # gathered over the offsets, whose last read this is: no second n-row array
    codes = np.take(rank, offsets, out=offsets, mode="clip")
    if return_first_rows:
        return codes, len(present), first_rows[order]
    return codes, len(present)


def _factor_values(ds: Dataset, mask: SampleMask, name: str) -> np.ndarray:
    """Validated raw integer values of a factor column on the kept rows.

    A column the mask keeps whole is read as it is, without a copy.
    """
    col = ds.column(name)
    keep = mask.keep
    whole = mask.n_used == len(keep)
    if isinstance(col, CategoricalColumn):
        codes = col.codes if whole else col.codes[keep]
        if (codes < 0).any():
            raise DataError(f"factor {name!r} has missing values inside the sample")
        return codes
    vals = col.values if whole else col.values[keep]
    rounded = np.rint(vals)
    if not np.array_equal(rounded, vals):  # NaN equals nothing, so it fails here too
        if np.isnan(vals).any():
            raise DataError(f"factor {name!r} has missing values inside the sample")
        raise DataError(f"numeric non-integer column {name!r} used as factor")
    return rounded.astype(np.int64)


def _factor_codes(ds: Dataset, mask: SampleMask, name: str) -> tuple[np.ndarray, int]:
    return first_appearance_codes(_factor_values(ds, mask, name))


def _label_part(ds: Dataset, name: str, rows: np.ndarray):
    """A factor column's raw values at the given dataset rows, in one gather."""
    col = ds.column(name)
    if isinstance(col, CategoricalColumn):
        return col.codes[rows], col.levels
    return col.values[rows], None


def _labels(raw: np.ndarray, levels: Optional[tuple[str, ...]]) -> list[str]:
    """Display labels of one ``FactorIndex.label_parts`` entry."""
    if levels is not None:
        return [levels[c] for c in raw.tolist()]
    # no list of Python ints here: one held while the strings are made left
    # a 1e6-row fit's peak RSS 3 MB higher at a 1e5-group factor
    return [str(int(v)) for v in raw]


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
    # each group's first dataset row
    keep = mask.keep
    rows = first_rows if mask.n_used == len(keep) else np.flatnonzero(keep)[first_rows]
    return FactorIndex(group_of_row=codes, n_groups=n,
                       label_parts=tuple(_label_part(ds, name, rows) for name in factors))


# ---------------------------------------------------------------------------
# Panel lags / leads / differences
# ---------------------------------------------------------------------------

def _panel_codes(ds: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(unit codes, integer times, valid mask) over all rows of a panel."""
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
    return ucodes, t_int, valid


def panel_pairs(units: np.ndarray, times: np.ndarray,
                shifts) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per shift, the row pairs (a, b) of one unit with times[a] - times[b] == shift.

    ``units`` holds integer unit codes and ``times`` integer times, one per
    row.  Rows meet through one sorted key, unit * (2 span + 1) + time - min,
    span being the range of the times, so a shift of at least span pairs
    nothing.  A (unit, time) pair held by two rows is a ``DataError``.  This
    is the one place that pairs panel rows: lags, leads and differences, and
    the Newey-West and Driscoll-Kraay lag sums.
    """
    empty = np.zeros(0, dtype=np.intp)
    if not len(times):
        return [(empty, empty) for _ in shifts]
    base = int(times.min())
    span = int(times.max()) - base + 1
    key = units.astype(np.int64) * np.int64(2 * span + 1) + (times - base)
    order = np.argsort(key, kind="stable")
    sorted_keys = key[order]
    if (np.diff(sorted_keys) == 0).any():
        raise DataError("duplicate (unit, time) pairs in the panel")
    out = []
    for shift in shifts:
        if abs(shift) >= span:
            out.append((empty, empty))
            continue
        target = key - shift  # the key of the row each row pairs with
        pos = np.minimum(np.searchsorted(sorted_keys, target), len(key) - 1)
        hit = sorted_keys[pos] == target
        out.append((np.flatnonzero(hit), order[pos[hit]]))
    return out


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
    units, times, valid = _panel_codes(ds)
    use = valid & keep
    x_used = ds.numeric(var)[use]
    rows_used = np.flatnonzero(use)
    shifts = [-k if op == "f" else k for k in offsets]
    out = []
    for k, (a, b) in zip(offsets, panel_pairs(units[use], times[use], shifts)):
        vals = np.full(len(rows_used), np.nan)
        vals[a] = x_used[b]
        if op == "d":
            vals = x_used - vals
        col = np.full(ds.n_rows, np.nan)
        col[rows_used] = vals
        out.append((f"{op}({var},{k})", col))
    return out
