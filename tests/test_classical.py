from fractions import Fraction
import math
import random

import pytest
from hypothesis import given, settings, strategies as hst

from cqhoare import classical as cl
from cqhoare import qsyntax as qs
from cqhoare.qsyntax import parse_expr, parse_formula, format_expr


def ev(src, **bindings):
    return cl.eval_expr(cl.ClassicalState(bindings), parse_expr(src))


def sat(src, **bindings):
    return cl.satisfies(cl.ClassicalState(bindings), parse_formula(src))


def test_arithmetic():
    assert ev("1 + 2 * 3") == 7
    assert ev("(1 + 2) * 3") == 9
    assert ev("7 % 4") == 3
    assert ev("-x", x=5) == -5


def test_exact_integer_division():
    # 1/3 * 3 must be exactly 1, not 0.999...
    assert ev("1 / 3 * 3") == 1
    assert ev("1 / 2") == 0.5


def test_comparisons_and_booleans():
    assert sat("1 <= 2 and not (2 < 1)")
    assert sat("x = 1 or x = 2", x=2)
    assert sat("x = 1 -> y = 0", x=0, y=5)
    assert not sat("x != x", x=3)
    # short circuit: the right operand would be an unbound-variable error
    assert sat("true or zzz = 1")
    assert not sat("false and zzz = 1")


def test_float_equality_tolerance():
    assert sat("x = 1", x=1.0 + 1e-13)
    assert not sat("x = 1", x=1.0 + 1e-9)


def test_calls():
    assert abs(ev("sqrt(2)") - math.sqrt(2)) < 1e-12
    assert abs(ev("cos(0)") - 1.0) < 1e-12
    assert abs(ev("exp2pi(1/2)") - (-1.0)) < 1e-12
    assert ev("max(2, 5)") == 5
    assert ev("floor(3/2)") == 1
    assert abs(ev("pi") - math.pi) < 1e-15


def test_bits_and_binary_fraction():
    bits = cl.Bits(1, (1, 0, 1))
    st = cl.ClassicalState({"j": bits})
    assert cl.eval_expr(st, parse_expr("j[1]")) == 1
    assert cl.eval_expr(st, parse_expr("j[2]")) == 0
    assert bits.as_int() == 5
    # 0.101 = 1/2 + 0/4 + 1/8
    assert abs(cl.eval_expr(st, parse_expr("0.j[1:3]")) - 0.625) < 1e-15
    assert abs(cl.eval_expr(st, parse_expr("0.j[3:3]")) - 0.5) < 1e-15
    assert cl.eval_expr(st, parse_expr("0.j[3:2]")) == 0.0


def test_quantifiers():
    assert sat("forall i in 0..3 . i < 4")
    assert not sat("forall i in 0..3 . i < 3")
    assert sat("exists i in 0..3 . i = x", x=2)
    assert not sat("exists i in 0..3 . i = x", x=9)


def test_unbound_variable():
    with pytest.raises(cl.EvalError):
        ev("x + 1")


def test_types_json_roundtrip():
    for t in (cl.BoolType(), cl.IntType(-2, 5), cl.EnumType("ab", ("a", "b")),
              cl.RealType(), cl.ComplexType(), cl.BitArrayType(1, 3)):
        assert cl.type_from_json(cl.type_to_json(t)) == t


def test_state_json_roundtrip():
    st = cl.ClassicalState({"x": 3, "b": True, "j": cl.Bits(1, (0, 1))})
    back = cl.ClassicalState.from_json(st.to_json())
    assert back.key() == st.key()


def test_iter_states_and_domain_size():
    typing = {"x": cl.IntType(0, 2), "b": cl.BoolType()}
    states = list(cl.iter_states(typing, {"x", "b"}))
    assert len(states) == 6
    assert cl.state_count(typing, {"x", "b"}) == 6
    typing["r"] = cl.RealType()
    with pytest.raises(cl.EvalError, match="^no enumerable domain for r, w$"):
        cl.state_count(typing, {"x", "w", "r"})
    with pytest.raises(cl.EvalError, match="^no enumerable domain for r$"):
        next(cl.iter_states(typing, set(typing)))


def test_type_sizes_match_their_values():
    for t in (cl.BoolType(), cl.IntType(0, 2), cl.IntType(3, 2),
              cl.EnumType("e", ("a", "b", "c")), cl.BitArrayType(1, 3)):
        assert t.size() == len(t.values()), t
    for t in (cl.RealType(), cl.ComplexType()):
        assert t.size() is None and t.values() is None
    assert cl.BitArrayType(1, 3).width() == 3


def test_subst_basic():
    e = parse_expr("x + y")
    got = cl.subst(e, parse_expr("2 * y"), "x")
    st = cl.ClassicalState({"y": 3})
    assert cl.eval_expr(st, got) == 9


def test_subst_capture_avoiding():
    f = parse_formula("exists y in 0..3 . x = y")
    got = cl.subst(f, parse_expr("y + 1"), "x")
    # the bound y must not capture the substituted free y
    assert cl.satisfies(cl.ClassicalState({"y": 2}), got)
    assert not cl.satisfies(cl.ClassicalState({"y": 3}), got)


def test_fresh_names_depend_only_on_the_formula():
    f = parse_formula("forall i in 0..1 . i = x")
    first = cl.subst(f, cl.Var("i"), "x")
    assert cl.subst(f, cl.Var("i"), "x") == first
    assert first.var != "i" and cl.free_vars(first) == {"i"}
    # captured, the body would read i = i and hold
    assert not cl.satisfies(cl.ClassicalState({"i": 0}), first)


def test_reads_names_bits_at_literal_positions():
    x = cl.Var("x")
    frac = cl.BinFrac("j", cl.Lit(2), cl.Lit(4))
    assert cl.reads(cl.Call("exp2pi", (frac,))) == {("j", 2), ("j", 3), ("j", 4)}
    assert cl.reads(cl.BitIndex("j", cl.Lit(1))) == {("j", 1)}
    assert cl.reads(cl.BitIndex("j", x)) == {"j", "x"}
    assert cl.reads(cl.BitIndex("j", cl.Lit(True))) == {"j"}
    assert cl.reads(cl.BinFrac("j", cl.Lit(3), cl.Lit(2))) == {"j"}  # empty
    body = cl.BinOp("=", cl.BitIndex("k", cl.Lit(1)), cl.BitIndex("j", cl.Lit(2)))
    q = cl.Quant("forall", "k", cl.BitArrayType(1, 2), body)
    assert cl.reads(q) == {("j", 2)}
    assert cl.free_vars(q) == {"j"}
    assert cl.free_vars(cl.BinOp("+", x, cl.Call("exp2pi", (frac,)))) == {"x", "j"}


def test_formula_equal_normalizes_associativity_and_binders():
    a = parse_formula("(p = 1 and q = 1) and r = 1")
    b = parse_formula("p = 1 and (q = 1 and r = 1)")
    assert cl.formula_equal(a, b)
    assert cl.formula_equal(parse_formula("forall i in 0..1 . i <= x"),
                            parse_formula("forall k in 0..1 . k <= x"))
    assert not cl.formula_equal(parse_formula("x = 1"), parse_formula("x = 2"))


_exprs = hst.sampled_from([
    "x", "y", "x + y", "x * y - 1", "(x + 1) % 4", "y / 2", "x * x",
    "max(x, y)", "x - 2 * y",
])


@settings(max_examples=200, deadline=None)
@given(e=_exprs, r=_exprs, x=hst.sampled_from(["x", "y"]),
       xv=hst.integers(0, 3), yv=hst.integers(0, 3))
def test_substitution_lemma_for_expressions(e, r, x, xv, yv):
    """eval(e[r/x], sigma) == eval(e, sigma[x := eval(r, sigma)])."""
    sigma = cl.ClassicalState({"x": xv, "y": yv})
    e, r = parse_expr(e), parse_expr(r)
    lhs = cl.eval_expr(sigma, cl.subst(e, r, x))
    rhs = cl.eval_expr(sigma.update(x, cl.eval_expr(sigma, r)), e)
    assert abs(lhs - rhs) < 1e-12


_names = hst.from_regex(r"[a-z][a-z0-9_]{0,3}", fullmatch=True).filter(
    lambda n: n not in qs._KEYWORDS and n != "pi")
_floats = hst.floats(min_value=0.0, allow_nan=False, allow_infinity=False).filter(
    lambda v: math.copysign(1.0, v) > 0 and (v == math.pi or abs(v - math.pi) >= 1e-15))
# The printable subset: negative literals print as "-1" and read back as
# unary minus, so every literal here is non-negative.
_printable = hst.recursive(
    hst.one_of(hst.booleans().map(cl.Lit), hst.integers(0, 10 ** 20).map(cl.Lit),
               _floats.map(cl.Lit), _names.map(cl.Var)),
    lambda sub: hst.one_of(
        hst.builds(cl.BinOp, hst.sampled_from(sorted(qs._LEVEL)), sub, sub),
        hst.builds(cl.UnOp, hst.sampled_from(["not", "-"]), sub),
        hst.builds(cl.BitIndex, _names, sub),
        hst.builds(cl.BinFrac, _names, sub, sub),
        hst.builds(cl.Call, _names, hst.lists(sub, max_size=2).map(tuple)),
        hst.builds(lambda kind, var, lo, n, body: cl.Quant(
            kind, var, cl.IntType(lo, lo + n), body),
            hst.sampled_from(["forall", "exists"]), _names,
            hst.integers(0, 3), hst.integers(0, 3), sub)),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(e=_printable)
def test_format_expr_parse_roundtrip(e):
    assert repr(parse_expr(format_expr(e))) == repr(e)


def test_boolean_operators_check_every_operand_they_evaluate():
    for src in ("true and 1", "1 and true", "false or 0", "0 or false",
                "true -> 1", "1 -> true"):
        with pytest.raises(cl.EvalError, match="non-boolean"):
            ev(src)
    # short circuit: the right operand is never evaluated
    assert ev("false and 1") is False
    assert ev("true or 1") is True
    assert ev("false -> 1") is True


def _eval_or_error(expr):
    try:
        return ("value", cl.eval_expr(cl.ClassicalState({}), expr))
    except cl.EvalError:
        return ("error", None)


def _denormalize(e):
    """A normal form back as an expression that `eval_expr` takes."""
    if isinstance(e, cl._TypedLit):
        return cl.Lit(e.value)
    return cl.BinOp(e.op, _denormalize(e.left), _denormalize(e.right))


_bool_int_trees = hst.recursive(
    hst.sampled_from([True, False, 0, 1, 2]).map(cl.Lit),
    lambda sub: hst.builds(cl.BinOp, hst.sampled_from(["and", "or"]), sub, sub),
    max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(e=_bool_int_trees)
def test_and_or_regrouping_keeps_value_or_error(e):
    """`normalize` regroups and/or chains; evaluation must not tell the
    groupings apart, in the value or in raising."""
    assert _eval_or_error(e) == _eval_or_error(_denormalize(cl.normalize(e)))


def test_regrouped_mixed_operands_evaluate_alike():
    left = parse_formula("(true and 1) and true")
    right = parse_formula("true and (1 and true)")
    assert cl.formula_equal(left, right)
    for f in (left, right):
        with pytest.raises(cl.EvalError):
            cl.satisfies(cl.ClassicalState({}), f)


def _binfrac_by_fractions(bits, k, l):
    return float(sum((Fraction(bits[r - k], 2 ** (r - k + 1)) for r in range(k, l + 1)),
                     Fraction(0)))


def test_binary_fraction_is_the_correctly_rounded_sum_of_its_bits():
    rng = random.Random(4)
    cases = [tuple((i >> (w - 1 - b)) & 1 for b in range(w))
             for w in range(1, 13) for i in range(2 ** w)]
    cases += [tuple(rng.randrange(2) for _ in range(rng.randrange(13, 81)))
              for _ in range(500)]
    for bits in cases:
        lo = rng.randrange(-3, 4)
        sigma = cl.ClassicalState({"j": cl.Bits(lo, bits)})
        for k, l in ((lo, lo + len(bits) - 1), (lo + len(bits) // 2, lo + len(bits) - 1)):
            got = cl.eval_expr(sigma, cl.BinFrac("j", cl.Lit(k), cl.Lit(l)))
            want = _binfrac_by_fractions(bits[k - lo:], k, l)
            assert type(got) is float and got.hex() == want.hex()
