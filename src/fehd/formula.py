"""Multi-part regression formula language.

Grammar (whitespace-insensitive)::

    formula   :=  lhs '~' rhs [ '|' fe_part ] [ '|' iv_part ]
    lhs       :=  column_term  |  'c' '(' column_term (',' column_term)* ')'
    rhs       :=  '1'  |  term ('+' term)*
    term      :=  ident | 'log'/'exp' '(' ident ')' | i_call | lag_call | stepwise
    fe_part   :=  fe_term ('+' fe_term)*
    fe_term   :=  ident ('^' ident)* [ '[' slopes ']' | '[[' slopes ']]' ] | fe stepwise
    iv_part   :=  ident ('+' ident)* '~' term ('+' term)*

Stepwise combinators (``sw``, ``sw0``, ``csw``, ``csw0``, ``mvsw``) expand a
single formula into a family of models; at most one combinator is allowed in
the rhs part and one in the fixed-effects part.  ``i(...)`` builds indicator
columns for a categorical variable with optional reference levels, binning and
interaction.  ``l``/``f``/``d`` are panel lag/lead/difference operators.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

__all__ = [
    "FormulaError",
    "Var",
    "Func",
    "LagOp",
    "InteractionI",
    "Stepwise",
    "FeTerm",
    "FeStepwise",
    "IvPart",
    "FormulaSpec",
    "Provenance",
    "ModelSpec",
    "parse_formula",
    "format_formula",
    "expand_models",
    "expand_i",
    "ast_to_dict",
]

STEPWISE_KINDS = ("sw", "sw0", "csw", "csw0", "mvsw")
LAG_OPS = ("l", "f", "d")
UNARY_FUNCS = ("log", "exp")


class FormulaError(ValueError):
    """Syntax or structural error in a formula, with a byte offset."""

    def __init__(self, message: str, offset: Optional[int] = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)


# ---------------------------------------------------------------------------
# AST node types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Func:
    fn: str  # 'log' or 'exp'
    var: str


@dataclass(frozen=True)
class LagOp:
    op: str  # 'l', 'f' or 'd'
    var: str
    offsets: tuple[int, ...] = (1,)


@dataclass(frozen=True)
class InteractionI:
    """``i(var, interact?, ref=..., bin=...)`` indicator expansion."""

    var: str
    interact: Optional[str] = None
    interact_categorical: bool = False
    ref: tuple = ()
    bin: tuple = ()  # tuple of (label, tuple_of_values)


@dataclass(frozen=True)
class Stepwise:
    kind: str
    args: tuple  # tuple of tuples of terms


Term = Union[Var, Func, LagOp, InteractionI, Stepwise]


@dataclass(frozen=True)
class FeTerm:
    factors: tuple[str, ...]
    slope_vars: tuple[str, ...] = ()
    intercept: bool = True


@dataclass(frozen=True)
class FeStepwise:
    kind: str
    args: tuple  # tuple of tuples of FeTerm


@dataclass(frozen=True)
class IvPart:
    endo: tuple[str, ...]
    instruments: tuple[Term, ...]


@dataclass(frozen=True)
class FormulaSpec:
    lhs: tuple[Term, ...]
    rhs: tuple[Term, ...]
    fe: tuple = ()
    iv: Optional[IvPart] = None
    intercept_only: bool = False  # rhs was a literal `1`


@dataclass(frozen=True)
class Provenance:
    lhs_index: int = 0
    rhs_step: int = 0
    fe_step: int = 0
    sample_label: str = ""


@dataclass(frozen=True)
class ModelSpec:
    lhs: Term
    rhs_terms: tuple[Term, ...]
    fe_terms: tuple[FeTerm, ...] = ()
    iv: Optional[IvPart] = None
    provenance: Provenance = field(default_factory=Provenance)


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>-?\d+\.\d*(?:[eE][+-]?\d+)?|-?\.\d+(?:[eE][+-]?\d+)?|-?\d+(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9._]*)
  | (?P<string>"[^"]*"|'[^']*')
  | (?P<punct>\[\[|\]\]|[~+|^,()\[\]{}:=])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Tok:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            toks.append(_Tok(m.lastgroup, m.group(), pos))
        pos = m.end()
    toks.append(_Tok("eof", "", n))
    return toks


def _num(text: str):
    f = float(text)
    i = int(f)
    return i if i == f else f


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    # -- token helpers --
    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def accept(self, text: str) -> Optional[_Tok]:
        if self.peek().text == text and self.peek().kind != "eof":
            return self.next()
        return None

    def expect(self, text: str) -> _Tok:
        t = self.peek()
        if t.text != text or t.kind == "eof":
            raise FormulaError(f"expected {text!r}, found {t.text or 'end of input'!r}", t.pos)
        return self.next()

    def ident(self, what: str = "identifier") -> str:
        t = self.peek()
        if t.kind != "ident":
            raise FormulaError(f"expected {what}, found {t.text or 'end of input'!r}", t.pos)
        return self.next().text

    def items(self, item, sep: str) -> list:
        """``item (sep item)*``: the one list grammar of the language."""
        out = [item()]
        while self.accept(sep):
            out.append(item())
        return out

    def at_call(self, names) -> bool:
        """Whether the next tokens are one of ``names`` and an opening '('."""
        t = self.peek()
        return t.kind == "ident" and t.text in names and self.toks[self.i + 1].text == "("

    # -- entry --
    def parse(self) -> FormulaSpec:
        lhs = self.parse_lhs()
        self.expect("~")
        rhs, intercept_only = self.parse_rhs()
        fe: tuple = ()
        iv = None
        parts = []
        while self.peek().text == "|":
            if len(parts) == 2:
                raise FormulaError("too many formula parts: expected lhs ~ rhs | fe | iv",
                                   self.peek().pos)
            self.next()
            parts.append(self.parse_post_part())
        if len(parts) == 1:
            kind, payload, pos = parts[0]
            if kind == "iv":
                iv = payload
            else:
                fe = payload
        elif len(parts) == 2:
            kind1, payload1, pos1 = parts[0]
            kind2, payload2, pos2 = parts[1]
            if kind1 == "iv":
                raise FormulaError("IV part must be the last formula part", pos1)
            if kind2 != "iv":
                raise FormulaError("expected IV part (endo ~ instruments) as third part", pos2)
            fe = payload1
            iv = payload2
        self._check_eof()
        return FormulaSpec(lhs=lhs, rhs=rhs, fe=fe, iv=iv, intercept_only=intercept_only)

    def _check_eof(self):
        t = self.peek()
        if t.kind != "eof":
            raise FormulaError(f"unexpected trailing input {t.text!r}", t.pos)

    # -- lhs --
    def parse_lhs(self) -> tuple[Term, ...]:
        def column_term():
            return self.parse_column_term("left-hand side")
        if self.at_call(("c",)):
            self.i += 2
            terms = self.items(column_term, ",")
            self.expect(")")
            return tuple(terms)
        return (column_term(),)

    def parse_column_term(self, where: str) -> Term:
        """A term producing exactly one column: var, log/exp(var), l/f/d(var, k)."""
        t = self.peek()
        if t.kind != "ident":
            raise FormulaError(f"expected a variable in {where}, found {t.text!r}", t.pos)
        name = t.text
        if self.at_call(STEPWISE_KINDS):
            raise FormulaError(f"stepwise function {name!r} is not allowed in {where}", t.pos)
        if self.at_call(UNARY_FUNCS):
            self.next()
            return self.parse_func(name)
        if self.at_call(LAG_OPS):
            lag = self.parse_lag_call()
            if len(lag.offsets) != 1:
                raise FormulaError(
                    f"{lag.op}() in {where} must have a single offset", t.pos)
            return lag
        self.next()
        return Var(name)

    def parse_func(self, name: str) -> Func:
        """The ``(var)`` of a log/exp call whose name was read."""
        self.expect("(")
        var = self.ident("variable name")
        self.expect(")")
        return Func(name, var)

    # -- rhs --
    def parse_rhs(self) -> tuple[tuple[Term, ...], bool]:
        t = self.peek()
        if t.kind == "number" and t.text == "1":
            self.next()
            if self.peek().text == "+":
                raise FormulaError(
                    "literal 1 is only supported as the sole right-hand-side term", t.pos)
            return (), True
        return tuple(self.part_terms(self.parse_term, "the rhs part")), False

    def part_terms(self, item, where: str) -> list:
        """``item ('+' item)*`` of a formula part, with one stepwise call at most."""
        stepwise = []

        def located():
            pos = self.peek().pos
            term = item()
            if isinstance(term, (Stepwise, FeStepwise)):
                if stepwise:
                    raise FormulaError(
                        f"only one stepwise function is allowed in {where}", pos)
                stepwise.append(term)
            return term
        return self.items(located, "+")

    def parse_term(self) -> Term:
        t = self.peek()
        if t.kind == "number":
            raise FormulaError(f"unexpected numeric literal {t.text!r} in term position", t.pos)
        name = self.ident("term")
        nxt = self.peek()
        if nxt.text != "(":
            return Var(name)
        if name in STEPWISE_KINDS:
            args, pos = self.stepwise_args(self.parse_term)
            if any(isinstance(term, Stepwise) for group in args for term in group):
                raise FormulaError("nested stepwise functions are not allowed", pos)
            return Stepwise(name, args)
        if name == "i":
            return self.parse_i_call()
        if name in LAG_OPS:
            self.i -= 1  # rewind to the op name
            return self.parse_lag_call()
        if name in UNARY_FUNCS:
            return self.parse_func(name)
        raise FormulaError(
            f"unknown function {name!r}; supported calls are "
            f"i, sw, sw0, csw, csw0, mvsw, l, f, d, log, exp", t.pos)

    def stepwise_args(self, item) -> tuple[tuple, int]:
        """The ``(group, ...)`` of a stepwise call whose name was read, each
        group ``item ('+' item)*``; returns the groups and the '(' position."""
        pos = self.expect("(").pos
        args = self.items(lambda: tuple(self.items(item, "+")), ",")
        self.expect(")")
        return tuple(args), pos

    def parse_lag_call(self) -> LagOp:
        op = self.ident()
        pos = self.expect("(").pos
        var = self.ident("variable name")
        offsets: list[int] = []
        while self.accept(","):
            offsets.extend(self.parse_offset_group())
        self.expect(")")
        if not offsets:
            offsets = [1]
        if any(not isinstance(k, int) for k in offsets):
            raise FormulaError(f"{op}() offsets must be integers", pos)
        return LagOp(op, var, tuple(offsets))

    def parse_offset_group(self) -> list[int]:
        t = self.peek()

        def as_int(v):
            if not isinstance(v, int):
                raise FormulaError(f"offsets must be integers, got {v!r}", t.pos)
            return v

        if t.text == "[" or (t.kind == "ident" and t.text == "c"):
            return [as_int(v) for v in self.parse_value_list()]
        if t.kind != "number":
            raise FormulaError(f"expected offset, found {t.text!r}", t.pos)
        a = as_int(_num(self.next().text))
        if self.accept(":"):
            b_tok = self.peek()
            if b_tok.kind != "number":
                raise FormulaError("expected integer after ':'", b_tok.pos)
            b = as_int(_num(self.next().text))
            step = 1 if b >= a else -1
            return list(range(a, b + step, step))
        return [a]

    def parse_i_call(self) -> InteractionI:
        self.expect("(")
        var = self.ident("variable name")
        interact = None
        interact_cat = False
        ref: tuple = ()
        bins: list[tuple] = []
        while self.accept(","):
            t = self.peek()
            if t.kind == "ident" and t.text == "ref" and self.toks[self.i + 1].text == "=":
                self.i += 2
                ref = tuple(self.parse_value_or_list())
            elif t.kind == "ident" and t.text == "bin" and self.toks[self.i + 1].text == "=":
                self.i += 2
                bins = self.parse_bin_map()
            elif t.kind == "ident":
                if interact is not None:
                    raise FormulaError("i() accepts a single interacting variable", t.pos)
                name = self.next().text
                if name.startswith("i.") and len(name) > 2:
                    interact = name[2:]
                    interact_cat = True
                else:
                    interact = name
            else:
                raise FormulaError(f"unexpected token {t.text!r} in i()", t.pos)
        self.expect(")")
        return InteractionI(var=var, interact=interact, interact_categorical=interact_cat,
                            ref=ref, bin=tuple(bins))

    def parse_value(self):
        t = self.peek()
        if t.kind == "number":
            return _num(self.next().text)
        if t.kind == "string":
            return self.next().text[1:-1]
        if t.kind == "ident":
            return self.next().text
        raise FormulaError(f"expected a value, found {t.text!r}", t.pos)

    def parse_value_list(self) -> list:
        """``[v, ...]`` or ``c(v, ...)``."""
        if self.accept("["):
            closer = "]"
        elif self.at_call(("c",)):
            self.i += 2
            closer = ")"
        else:
            raise FormulaError(f"expected a list, found {self.peek().text!r}", self.peek().pos)
        vals = self.items(self.parse_value, ",")
        self.expect(closer)
        return vals

    def parse_value_or_list(self) -> list:
        t = self.peek()
        if t.text == "[" or self.at_call(("c",)):
            return self.parse_value_list()
        v = self.parse_value()
        if self.accept(":"):
            b = self.parse_value()
            if not isinstance(v, int) or not isinstance(b, int):
                raise FormulaError("range bounds must be integers", t.pos)
            step = 1 if b >= v else -1
            return list(range(v, b + step, step))
        return [v]

    def parse_bin_map(self) -> list[tuple]:
        def entry():
            t = self.peek()
            if t.kind != "string":
                raise FormulaError("bin keys must be quoted strings", t.pos)
            label = self.next().text[1:-1]
            self.expect(":")
            return label, tuple(self.parse_value_or_list())
        self.expect("{")
        bins = self.items(entry, ",")
        self.expect("}")
        return bins

    # -- post parts (fe or iv) --
    def parse_post_part(self):
        start = self.i
        pos = self.peek().pos
        # scan ahead for a top-level '~' before the next '|' to detect an IV part
        depth = 0
        is_iv = False
        j = self.i
        while j < len(self.toks):
            tk = self.toks[j]
            if tk.kind == "eof":
                break
            if tk.text in "([{":
                depth += 1
            elif tk.text in ")]}":
                depth -= 1
            elif depth == 0 and tk.text == "|":
                break
            elif depth == 0 and tk.text == "~":
                is_iv = True
                break
            j += 1
        if is_iv:
            return ("iv", self.parse_iv_part(), pos)
        self.i = start
        return ("fe", tuple(self.part_terms(self.parse_fe_term, "the fixed-effects part")),
                pos)

    def parse_iv_part(self) -> IvPart:
        endo = self.items(lambda: self.ident("endogenous variable"), "+")
        self.expect("~")

        def instrument():
            pos = self.peek().pos
            term = self.parse_term()
            if isinstance(term, Stepwise):
                raise FormulaError("stepwise functions are not allowed among instruments",
                                   pos)
            return term
        return IvPart(tuple(endo), tuple(self.items(instrument, "+")))

    def parse_fe_term(self):
        if self.at_call(STEPWISE_KINDS):
            kind = self.next().text
            return FeStepwise(kind, self.stepwise_args(self.parse_fe_atom)[0])
        return self.parse_fe_atom()

    def parse_fe_atom(self) -> FeTerm:
        pos = self.peek().pos
        factors = self.items(lambda: self.ident("fixed-effect factor"), "^")
        slope_vars: tuple[str, ...] = ()
        intercept = True
        if self.accept("[["):
            slope_vars = self.parse_slope_list("]]")
            intercept = False
        elif self.accept("["):
            slope_vars = self.parse_slope_list("]")
        term = FeTerm(tuple(factors), slope_vars, intercept)
        if set(term.slope_vars) & set(term.factors):
            raise FormulaError("slope variables must be distinct from factors", pos)
        return term

    def parse_slope_list(self, closer: str) -> tuple[str, ...]:
        names = self.items(lambda: self.ident("slope variable"), ",")
        if closer == "]]":
            # the tokenizer may have produced ']' ']' or ']]'
            if not self.accept("]]"):
                self.expect("]")
                self.expect("]")
        else:
            self.expect("]")
        return tuple(names)


def parse_formula(text: str) -> FormulaSpec:
    """Parse a formula string into a :class:`FormulaSpec`."""
    if not text or not text.strip():
        raise FormulaError("empty formula")
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Pretty printing (canonical form; reparsing yields an identical AST)
# ---------------------------------------------------------------------------

def _fmt_value(v) -> str:
    if isinstance(v, str):
        return f'"{v}"'
    return repr(v)


def _fmt_offsets(offsets: tuple[int, ...]) -> str:
    if len(offsets) >= 2 and all(
            offsets[k + 1] == offsets[k] + 1 for k in range(len(offsets) - 1)):
        return f"{offsets[0]}:{offsets[-1]}"
    return ",".join(str(k) for k in offsets)


def format_term(term: Term) -> str:
    if isinstance(term, Var):
        return term.name
    if isinstance(term, Func):
        return f"{term.fn}({term.var})"
    if isinstance(term, LagOp):
        return f"{term.op}({term.var},{_fmt_offsets(term.offsets)})"
    if isinstance(term, InteractionI):
        parts = [term.var]
        if term.interact is not None:
            parts.append(("i." if term.interact_categorical else "") + term.interact)
        if term.ref:
            if len(term.ref) == 1:
                parts.append(f"ref={_fmt_value(term.ref[0])}")
            else:
                parts.append("ref=[" + ",".join(_fmt_value(v) for v in term.ref) + "]")
        if term.bin:
            body = ",".join(
                f'"{label}":[' + ",".join(_fmt_value(v) for v in vals) + "]"
                for label, vals in term.bin)
            parts.append("bin={" + body + "}")
        return "i(" + ", ".join(parts) + ")"
    if isinstance(term, Stepwise):
        body = ", ".join(" + ".join(format_term(t) for t in group) for group in term.args)
        return f"{term.kind}({body})"
    raise TypeError(f"not a term: {term!r}")


def format_fe_term(term) -> str:
    if isinstance(term, FeStepwise):
        body = ", ".join(" + ".join(format_fe_term(t) for t in group) for group in term.args)
        return f"{term.kind}({body})"
    s = "^".join(term.factors)
    if term.slope_vars:
        inner = ", ".join(term.slope_vars)
        s += f"[[{inner}]]" if not term.intercept else f"[{inner}]"
    return s


def format_formula(spec: FormulaSpec) -> str:
    lhs = format_term(spec.lhs[0]) if len(spec.lhs) == 1 else \
        "c(" + ", ".join(format_term(t) for t in spec.lhs) + ")"
    rhs = "1" if spec.intercept_only or not spec.rhs else \
        " + ".join(format_term(t) for t in spec.rhs)
    out = f"{lhs} ~ {rhs}"
    if spec.fe:
        out += " | " + " + ".join(format_fe_term(t) for t in spec.fe)
    if spec.iv is not None:
        endo = " + ".join(spec.iv.endo)
        inst = " + ".join(format_term(t) for t in spec.iv.instruments)
        out += f" | {endo} ~ {inst}"
    return out


def ast_to_dict(obj):
    """JSON-friendly dump of a FormulaSpec / ModelSpec / term."""
    if isinstance(obj, (list, tuple)):
        return [ast_to_dict(x) for x in obj]
    if isinstance(obj, (Var, Func, LagOp, InteractionI, Stepwise, FeTerm, FeStepwise,
                        IvPart, FormulaSpec, ModelSpec, Provenance)):
        d = {"node": type(obj).__name__}
        for name in obj.__dataclass_fields__:
            d[name] = ast_to_dict(getattr(obj, name))
        return d
    return obj


# ---------------------------------------------------------------------------
# Stepwise expansion
# ---------------------------------------------------------------------------

def _stepwise_steps(kind: str, args: tuple) -> list[list]:
    """Term lists contributed by one combinator, one list per step."""
    groups = [list(g) for g in args]
    if kind == "sw":
        return groups
    if kind == "sw0":
        return [[]] + groups
    if kind == "csw":
        return [sum(groups[: k + 1], []) for k in range(len(groups))]
    if kind == "csw0":
        return [[]] + [sum(groups[: k + 1], []) for k in range(len(groups))]
    if kind == "mvsw":
        steps = []
        for size in range(len(groups) + 1):
            for combo in itertools.combinations(range(len(groups)), size):
                steps.append(sum((groups[k] for k in combo), []))
        return steps
    raise FormulaError(f"unknown stepwise kind {kind!r}")


def _part_steps(terms) -> list[list]:
    """Expand a part (rhs or fe) into its stepwise steps, in place."""
    sw_index = None
    for k, t in enumerate(terms):
        if isinstance(t, (Stepwise, FeStepwise)):
            sw_index = k
            break
    if sw_index is None:
        return [list(terms)]
    head = list(terms[:sw_index])
    tail = list(terms[sw_index + 1:])
    node = terms[sw_index]
    return [head + step + tail for step in _stepwise_steps(node.kind, node.args)]


def expand_models(spec: FormulaSpec) -> list[ModelSpec]:
    """Cartesian expansion into concrete models: lhs-major, then rhs step, then fe step."""
    rhs_steps = _part_steps(spec.rhs)
    fe_steps = _part_steps(spec.fe)
    models = []
    for li, lhs in enumerate(spec.lhs):
        for ri, rhs in enumerate(rhs_steps):
            for fi, fe in enumerate(fe_steps):
                models.append(ModelSpec(
                    lhs=lhs,
                    rhs_terms=tuple(rhs),
                    fe_terms=tuple(fe),
                    iv=spec.iv,
                    provenance=Provenance(lhs_index=li, rhs_step=ri, fe_step=fi),
                ))
    return models


# ---------------------------------------------------------------------------
# i() expansion
# ---------------------------------------------------------------------------

def _level_sort_key(v):
    if isinstance(v, (int, float, np.integer, np.floating)):
        return (0, float(v), "")
    return (1, 0.0, str(v))


def _level_codes(values) -> tuple[np.ndarray, list]:
    """Each row's level code, -1 where the value is missing (None, NaN or
    +-inf), and the level keys the codes index, sorted.  A numeric column
    takes one ``np.unique``; any other column one pass over its rows."""
    values = np.asarray(values)
    if values.dtype.kind in "biuf":
        present = np.isfinite(values)
        uniq, inv = np.unique(values[present], return_inverse=True)
        codes = np.full(len(values), -1, dtype=np.int64)
        codes[present] = inv
        return codes, [_coerce_key(v) for v in uniq.tolist()]
    index: dict = {}
    codes = np.array([-1 if _is_missing(v) else index.setdefault(_coerce_key(v), len(index))
                      for v in values.tolist()], dtype=np.int64)
    keys = sorted(index, key=_level_sort_key)
    rank = np.append(np.argsort([index[k] for k in keys]), -1)  # code -1 stays -1
    return rank[codes], keys


def expand_i(term: InteractionI, column: np.ndarray,
             interacting: Optional[np.ndarray] = None) -> list[tuple[str, np.ndarray]]:
    """Expand an ``i()`` term into named indicator (or indicator-product) columns.

    ``column`` holds the categorical values (any dtype); ``interacting`` is the
    companion column when the term interacts.  Binning is applied before the
    reference levels are removed; when no reference is given the lowest level
    is used.  Returns ``(name, float64 column)`` pairs, one per retained level
    (times the interacting levels for a categorical interaction).  Rows
    missing in either column are NaN.
    """
    codes, keys = _level_codes(column)

    # binning: map member values to the bin label, which sorts as its least member
    bin_of = {}
    bin_min_key = {}
    for label, members in term.bin:
        member_keys = {_coerce_key(m) for m in members}
        if label in set(keys) - member_keys:
            raise FormulaError(
                f"i({term.var}): bin label {label!r} collides with an existing level")
        bin_of.update(dict.fromkeys(member_keys, label))
        bin_min_key[label] = min(_level_sort_key(m) for m in members)
    binned = [bin_of.get(k, k) for k in keys]
    levels = sorted(dict.fromkeys(binned),
                    key=lambda v: bin_min_key.get(v, _level_sort_key(v)))
    if not levels:
        raise FormulaError(f"i({term.var}): no observed levels")
    level_code = {lv: j for j, lv in enumerate(levels)}
    codes = np.append([level_code[b] for b in binned], -1)[codes]

    unknown = [r for r in term.ref if _coerce_key(r) not in level_code]
    if unknown:
        raise FormulaError(f"i({term.var}): unknown reference level {unknown[0]!r}")
    ref_levels = [_coerce_key(r) for r in term.ref] or [levels[0]]

    missing = codes < 0
    z = icodes = None
    tails = [""] if term.interact is None else [f":{term.interact}"]
    if term.interact is not None and term.interact_categorical:
        icodes, ilevels = _level_codes(interacting)
        missing |= icodes < 0
        tails = [f":{term.interact}::{ilv}" for ilv in ilevels]
    elif term.interact is not None:
        z = np.asarray(interacting, dtype=np.float64)
    out = []
    for lv in [lv for lv in levels if lv not in ref_levels]:
        hit = codes == level_code[lv]
        for j, tail in enumerate(tails):
            col = (hit if icodes is None else hit & (icodes == j)).astype(np.float64)
            col[missing] = np.nan
            out.append((f"{term.var}::{lv}{tail}", col if z is None else col * z))
    return out


def _is_missing(v) -> bool:
    """The data presence rule: None, NaN and +-inf are missing."""
    return v is None or (isinstance(v, float) and not np.isfinite(v))


def _coerce_key(v):
    """Canonical hashable level key: integral floats collapse to int."""
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating, float)):
        f = float(v)
        return int(f) if f == int(f) else f
    if isinstance(v, (np.str_,)):
        return str(v)
    if isinstance(v, bytes):
        return v.decode()
    return v
