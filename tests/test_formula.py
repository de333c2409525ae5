import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import expand_i_rows

from fehd.formula import (FeTerm, FormulaError, FormulaSpec, InteractionI,
                          LagOp, Stepwise, Var, ast_to_dict, expand_i,
                          expand_models, format_formula, parse_formula)


def model_sig(m):
    """(lhs, rhs names, fe strings) signature for golden comparisons."""
    from fehd.formula import format_term, format_fe_term
    return (format_term(m.lhs),
            tuple(format_term(t) for t in m.rhs_terms),
            tuple(format_fe_term(t) for t in m.fe_terms))


class TestParse:
    def test_simple_fe(self):
        spec = parse_formula("y ~ x | fe")
        assert spec.lhs == (Var("y"),)
        assert spec.rhs == (Var("x"),)
        assert spec.fe == (FeTerm(("fe",)),)
        assert spec.iv is None

    def test_iv_without_exog(self):
        spec = parse_formula("y ~ 1 | fe | endo ~ inst")
        assert spec.intercept_only and spec.rhs == ()
        assert spec.fe == (FeTerm(("fe",)),)
        assert spec.iv.endo == ("endo",)
        assert [t.name for t in spec.iv.instruments] == ["inst"]

    def test_single_part(self):
        spec = parse_formula("y ~ x")
        assert spec.fe == () and spec.iv is None

    def test_whitespace_insensitive(self):
        a = parse_formula("y~x|fe1^fe2+fe3[z]")
        b = parse_formula(" y ~ x |  fe1 ^ fe2 + fe3[ z ] ")
        assert a == b

    def test_combined_and_slopes(self):
        spec = parse_formula("y ~ x | a^b^c[z1, z2] + d[[z3]]")
        assert spec.fe[0] == FeTerm(("a", "b", "c"), ("z1", "z2"), True)
        assert spec.fe[1] == FeTerm(("d",), ("z3",), False)

    def test_lag_ranges(self):
        spec = parse_formula("y ~ l(x, 0:3) + f(x) + d(x, 2)")
        assert spec.rhs[0] == LagOp("l", "x", (0, 1, 2, 3))
        assert spec.rhs[1] == LagOp("f", "x", (1,))
        assert spec.rhs[2] == LagOp("d", "x", (2,))

    def test_i_forms(self):
        spec = parse_formula(
            'y ~ i(m) + i(m, ref=9) + i(m, bin={"8 - 9": 8:9}) + i(g, t) + i(g, i.t)')
        t = spec.rhs
        assert t[0] == InteractionI("m")
        assert t[1].ref == (9,)
        assert t[2].bin == (("8 - 9", (8, 9)),)
        assert t[3] == InteractionI("g", interact="t")
        assert t[4] == InteractionI("g", interact="t", interact_categorical=True)

    def test_i_negative_refs(self):
        spec = parse_formula("y ~ i(t, ref=c(-1000, -1)) | id + year")
        assert spec.rhs[0].ref == (-1000, -1)

    def test_errors(self):
        with pytest.raises(FormulaError):
            parse_formula("")
        with pytest.raises(FormulaError, match="stepwise"):
            parse_formula("y ~ sw(a) + sw(b)")
        with pytest.raises(FormulaError, match="stepwise"):
            parse_formula("sw(y1, y2) ~ x")
        with pytest.raises(FormulaError, match="last"):
            parse_formula("y ~ x | endo ~ inst | fe")
        with pytest.raises(FormulaError, match="unknown function"):
            parse_formula("y ~ poly(x, 2)")
        with pytest.raises(FormulaError, match="offset"):
            parse_formula("y ~ l(x, 1.5)")

    def test_error_offset_reported(self):
        with pytest.raises(FormulaError) as err:
            parse_formula("y ~ x + + z")
        assert err.value.offset is not None

    def test_ast_dump_is_jsonable(self):
        import json
        spec = parse_formula("y ~ x + i(g, ref=2) | fe1^fe2[z] | endo ~ inst")
        json.dumps(ast_to_dict(spec))


# malformed formulas: (formula, message, offset of the offending token)
MALFORMED = [
    ("y ~ x +", "expected term, found 'end of input'", 7),
    ("c(y, ) ~ x", "expected a variable in left-hand side, found ')'", 5),
    ("sw(y) ~ x", "stepwise function 'sw' is not allowed in left-hand side", 0),
    ("l(y, 1:2) ~ x", "l() in left-hand side must have a single offset", 0),
    ("y ~ 1 + x", "literal 1 is only supported as the sole right-hand-side term", 4),
    ("y ~ 3", "unexpected numeric literal '3' in term position", 4),
    ("y ~ sw(x, sw(a, b))", "nested stepwise functions are not allowed", 6),
    ("y ~ sw(x,)", "expected term, found ')'", 9),
    ("y ~ l(x, 1.5)", "offsets must be integers, got 1.5", 9),
    ("y ~ l(x, 1:a)", "expected integer after ':'", 11),
    ("y ~ l(x, c)", "expected a list, found 'c'", 9),
    ("y ~ i(g, x, z)", "i() accepts a single interacting variable", 12),
    ("y ~ i(g, ref=1.5:3)", "range bounds must be integers", 13),
    ("y ~ i(g, bin={'a': [1],})", "bin keys must be quoted strings", 23),
    ("y ~ x | f1[f1]", "slope variables must be distinct from factors", 8),
    ("y ~ x | f1[[z] ]x", "unexpected trailing input 'x'", 16),
    ("y ~ x | sw(f1,)", "expected fixed-effect factor, found ')'", 14),
    ("y ~ x | e ~ z | f", "IV part must be the last formula part", 8),
    ("y ~ x | e ~ sw(z)", "stepwise functions are not allowed among instruments", 12),
    ("y ~ x | e ~ z + sw(z)", "stepwise functions are not allowed among instruments", 16),
    ("y ~ sw(a) + sw(b)", "only one stepwise function is allowed in the rhs part", 12),
    ("y ~ x | sw(a) + csw(b)",
     "only one stepwise function is allowed in the fixed-effects part", 16),
    ("y ~ x | f | e ~ z | g", "too many formula parts: expected lhs ~ rhs | fe | iv", 18),
    ("y ~ log(x", "expected ')', found 'end of input'", 9),
]


@pytest.mark.parametrize("text, message, offset", MALFORMED)
def test_malformed_formula_message_and_offset(text, message, offset):
    with pytest.raises(FormulaError) as err:
        parse_formula(text)
    assert err.value.offset == offset
    assert str(err.value) == f"{message} (at offset {offset})"


class TestExpansion:
    def test_multiple_lhs(self):
        models = expand_models(parse_formula("c(y1, y2) ~ x"))
        assert [model_sig(m) for m in models] == [
            ("y1", ("x",), ()), ("y2", ("x",), ())]

    def test_sw(self):
        models = expand_models(parse_formula("y ~ sw(x1, x2)"))
        assert [model_sig(m)[1] for m in models] == [("x1",), ("x2",)]

    def test_sw0_in_fe(self):
        models = expand_models(parse_formula("y ~ x | sw0(fe)"))
        assert [model_sig(m)[2] for m in models] == [(), ("fe",)]

    def test_csw_cross(self):
        models = expand_models(parse_formula("y ~ x1 + csw0(x2) | csw(fe1, fe2)"))
        assert [model_sig(m) for m in models] == [
            ("y", ("x1",), ("fe1",)),
            ("y", ("x1",), ("fe1", "fe2")),
            ("y", ("x1", "x2"), ("fe1",)),
            ("y", ("x1", "x2"), ("fe1", "fe2")),
        ]

    def test_mvsw(self):
        models = expand_models(parse_formula("y ~ mvsw(x1, x2, x3)"))
        assert [model_sig(m)[1] for m in models] == [
            (), ("x1",), ("x2",), ("x3",),
            ("x1", "x2"), ("x1", "x3"), ("x2", "x3"), ("x1", "x2", "x3")]

    def test_provenance_unique(self):
        models = expand_models(parse_formula("c(a,b) ~ sw(x1,x2) | sw0(f)"))
        provs = [(m.provenance.lhs_index, m.provenance.rhs_step, m.provenance.fe_step)
                 for m in models]
        assert len(set(provs)) == len(models) == 8

    def test_stepwise_free_is_identity(self):
        spec = parse_formula("y ~ x1 + x2 | f1 + f2")
        models = expand_models(spec)
        assert len(models) == 1
        assert models[0].rhs_terms == spec.rhs
        assert models[0].fe_terms == spec.fe


# -- round trip and count-law properties -------------------------------------

idents = st.sampled_from(["y", "x1", "x2", "alpha", "v_3", "Temp"])
fe_idents = st.sampled_from(["f1", "f2", "g", "unit", "year"])

simple_terms = st.one_of(
    idents.map(Var),
    st.builds(lambda v: parse_formula(f"y ~ log({v})").rhs[0], idents),
    st.builds(LagOp, st.sampled_from(["l", "f", "d"]), idents,
              st.lists(st.integers(0, 4), min_size=1, max_size=3, unique=True).map(tuple)),
    st.builds(lambda v, r: InteractionI(v, ref=(r,)), idents, st.integers(-2, 9)),
)

stepwise_terms = st.builds(
    Stepwise,
    st.sampled_from(["sw", "sw0", "csw", "csw0", "mvsw"]),
    st.lists(st.lists(idents.map(Var), min_size=1, max_size=2).map(tuple),
             min_size=1, max_size=3).map(tuple))

fe_terms = st.builds(
    FeTerm,
    st.lists(fe_idents, min_size=1, max_size=2, unique=True).map(tuple),
    st.lists(st.sampled_from(["z1", "z2"]), min_size=0, max_size=2, unique=True).map(tuple),
    st.booleans())


@st.composite
def formulas(draw):
    lhs = tuple(draw(st.lists(idents.map(Var), min_size=1, max_size=2, unique=True)))
    rhs = draw(st.lists(simple_terms, min_size=0, max_size=3))
    if draw(st.booleans()):
        rhs.insert(draw(st.integers(0, len(rhs))), draw(stepwise_terms))
    intercept_only = not rhs
    fe = tuple(draw(st.lists(fe_terms, min_size=0, max_size=2)))
    fe = tuple(t if t.intercept or t.slope_vars else FeTerm(t.factors, (), True)
               for t in fe)
    iv = None
    return FormulaSpec(lhs=lhs, rhs=tuple(rhs), fe=fe, iv=iv,
                       intercept_only=intercept_only)


@given(formulas())
@settings(max_examples=120, deadline=None)
def test_round_trip(spec):
    assert parse_formula(format_formula(spec)) == spec


@given(formulas())
@settings(max_examples=120, deadline=None)
def test_count_law(spec):
    def steps(terms):
        for t in terms:
            if isinstance(t, Stepwise):
                k = len(t.args)
                return {"sw": k, "sw0": k + 1, "csw": k, "csw0": k + 1,
                        "mvsw": 2 ** k}[t.kind]
        return 1
    expected = len(spec.lhs) * steps(spec.rhs) * steps(spec.fe)
    assert len(expand_models(spec)) == expected


# -- i() expansion ------------------------------------------------------------

class TestExpandI:
    def test_default_ref_drops_lowest(self):
        col = np.repeat(np.arange(1, 11), 3).astype(float)
        out = expand_i(InteractionI("year"), col)
        assert [n for n, _ in out] == [f"year::{k}" for k in range(2, 11)]
        total = sum(arr for _, arr in out)
        ref_indicator = (col == 1).astype(float)
        assert np.array_equal(total + ref_indicator, np.ones_like(col))

    def test_explicit_ref(self):
        col = np.repeat(np.arange(1, 11), 2).astype(float)
        out = expand_i(InteractionI("year", ref=(9,)), col)
        assert "year::9" not in [n for n, _ in out]
        assert len(out) == 9

    def test_bin_merges_before_ref(self):
        col = np.repeat(np.arange(1, 11), 2).astype(float)
        out = expand_i(InteractionI("year", bin=(("8 - 9", (8, 9)),)), col)
        names = [n for n, _ in out]
        assert "year::8 - 9" in names
        assert "year::8" not in names and "year::9" not in names
        assert len(names) == 8  # 10 levels -> 9 after binning -> ref dropped
        merged = dict(out)["year::8 - 9"]
        assert np.array_equal(merged, np.isin(col, (8, 9)).astype(float))

    def test_infinite_values_are_missing(self):
        out = expand_i(parse_formula("y ~ i(x)").rhs[0], np.array([1.0, 2.0, np.inf, -np.inf]))
        assert [n for n, _ in out] == ["x::2"]
        assert np.array_equal(out[0][1], [0.0, 1.0, np.nan, np.nan], equal_nan=True)

    def test_unknown_ref_raises(self):
        with pytest.raises(FormulaError, match="unknown reference"):
            expand_i(InteractionI("g", ref=(42,)), np.array([1.0, 2.0]))

    def test_bin_collision_raises(self):
        with pytest.raises(FormulaError, match="collides"):
            expand_i(InteractionI("g", bin=(("3", (1, 2)),)),
                     np.array(["1", "2", "3"], dtype=object))

    @pytest.mark.parametrize("bins, column, message", [
        ((("lo", (1, 5)), ("hi", (1, 2))), np.array([1.0, 2.0, 3.0, 5.0]),
         "value 1 is in bin 'lo' and in bin 'hi'"),
        ((("a", ("x",)), ("b", ("y", "x"))), np.array(["x", "y", "z"], dtype=object),
         "value 'x' is in bin 'a' and in bin 'b'"),
    ])
    def test_value_in_two_bins_raises(self, bins, column, message):
        with pytest.raises(FormulaError, match=message):
            expand_i(InteractionI("g", bin=bins), column)

    def test_value_named_twice_in_one_bin_label(self):
        term = InteractionI("g", bin=(("lo", (1, 2)), ("lo", (2,))))
        out = expand_i(term, np.array([1.0, 2.0, 3.0]))
        assert [n for n, _ in out] == ["g::3"]

    def test_numeric_interaction(self):
        col = np.array(["a", "a", "b", "b"], dtype=object)
        z = np.array([1.0, 2.0, 3.0, 4.0])
        out = expand_i(InteractionI("g", interact="z"), col, z)
        assert [n for n, _ in out] == ["g::b:z"]
        assert np.array_equal(out[0][1], np.array([0, 0, 3.0, 4.0]))

    def test_categorical_interaction(self):
        col = np.array(["a", "a", "b", "b"], dtype=object)
        other = np.array([1.0, 2.0, 1.0, 2.0])
        out = expand_i(InteractionI("g", interact="t", interact_categorical=True),
                       col, other)
        names = [n for n, _ in out]
        assert names == ["g::b:t::1", "g::b:t::2"]


# Level values whose keys are pairwise distinct (integral floats key as ints),
# so that bins drawn from disjoint slices never share a member: the labels of
# two bins that share one tie in the level sort, and the row-by-row coding
# breaks that tie by hash order
FLOAT_LEVELS = (-2.0, -0.5, 0.0, 1.0, 2.5, 3.0, 7.0, 1e6)
INT_LEVELS = (-3, 0, 1, 2, 5, 40)
OBJ_LEVELS = ("a", "b", "c", "1", "2.5", "x y", 3, 4.5)
MISSING_FLOATS = (np.nan, np.inf, -np.inf)


def i_column(draw, kind, n):
    """A column of ``n`` rows of one kind, with the level values it draws from."""
    pool, extra, dtype = {
        "float": (FLOAT_LEVELS, MISSING_FLOATS + (-0.0,), np.float64),
        "int": (INT_LEVELS, (), np.int64),
        "object": (OBJ_LEVELS, (None, np.nan), object)}[kind]
    out = np.empty(n, dtype=dtype)
    out[:] = draw(st.lists(st.sampled_from(pool + extra), min_size=n, max_size=n))
    return out, pool


KINDS = st.sampled_from(("float", "int", "object"))


@st.composite
def i_cases(draw):
    """An ``i()`` term with its columns: refs (some unknown), bins (some
    labels colliding with a level) and each kind of interaction."""
    n = draw(st.integers(0, 25))
    column, pool = i_column(draw, draw(KINDS), n)
    refs = draw(st.lists(st.sampled_from(pool + (99, "zz")), max_size=2))
    order = draw(st.permutations(range(len(pool))))
    bins = []
    for k in range(draw(st.integers(0, 2))):
        members = tuple(pool[j] for j in order[3 * k:3 * k + draw(st.integers(1, 3))])
        label = draw(st.sampled_from(("lo", "hi", "a", "c", "1", "8 - 9")))
        bins.append((label, members))
    interact = draw(st.sampled_from((None, "numeric", "categorical")))
    interacting = None
    if interact == "numeric":
        interacting = np.array(draw(st.lists(
            st.sampled_from((0.0, -0.0, 1.5, -2.0, np.nan, np.inf)), min_size=n, max_size=n)))
    elif interact == "categorical":
        interacting = i_column(draw, draw(KINDS), n)[0]
    term = InteractionI("g", interact=interact and "t",
                        interact_categorical=interact == "categorical",
                        ref=tuple(refs), bin=tuple(bins))
    return term, column, interacting


def _expansion(fn, term, column, interacting):
    try:
        with np.errstate(invalid="ignore"):  # 0 * inf in a numeric interaction
            out = fn(term, column, interacting)
    except FormulaError as exc:
        return str(exc)
    return [(name, col.dtype, col.tobytes()) for name, col in out]


@given(i_cases())
@settings(max_examples=300, deadline=None)
def test_expand_i_matches_row_by_row_coding(case):
    """Names, columns bit for bit (NaN and -0.0 included) and error messages
    equal those of the row-by-row coding in ``oracles.expand_i_rows``."""
    assert _expansion(expand_i, *case) == _expansion(expand_i_rows, *case)
