import inspect
import sys

import pytest

from cqhoare import classical as cl
from cqhoare import qsyntax as qs
from cqhoare import assertions as asrt


def rt(src, **kw):
    """Parse, pretty-print, re-parse; the two trees must be identical."""
    p = qs.parse_program(src, **kw)
    again = qs.parse_program(qs.pretty(p), **kw)
    assert p == again
    return p


def test_parse_all_command_forms():
    p = rt("skip; x := 1; q := |0>; H[q]; x := M[q]; "
           "if x = 0 then skip else X[q] fi; "
           "while x = 1 do x := M[q] od", measurements={"M"})
    assert isinstance(p, qs.Seq)


def test_gate_with_params_and_subscripts():
    p = rt("CR(2)[q[2], q[1]]; Rz(pi / 2)[q[1 + x]]")
    g = p.first
    assert g.name == "CR" and g.params == (cl.Lit(2),)
    assert g.targets[0] == qs.QVar("q", (cl.Lit(2),))


def test_measurement_name_heuristic():
    # uppercase first letter means a measurement symbol
    p = qs.parse_program("x := M2[q]")
    assert isinstance(p, qs.Measure)
    # lowercase right-hand side is an ordinary assignment
    p = qs.parse_program("x := m + 1")
    assert isinstance(p, qs.Assign)
    # an explicit measurement set overrides the heuristic
    p = qs.parse_program("x := meas[q]", measurements={"meas"})
    assert isinstance(p, qs.Measure)


def test_sections_expand_only_when_enabled():
    p = qs.parse_program("REVERSE3[q[1:3]]", allow_sections=True)
    assert p.targets == tuple(qs.QVar("q", (cl.Lit(i),)) for i in (1, 2, 3))
    with pytest.raises(qs.ParseError):
        qs.parse_program("REVERSE3[q[1:3]]")


def test_parse_errors_carry_position():
    with pytest.raises(qs.ParseError) as exc:
        qs.parse_program("if x = 1 then skip")
    assert exc.value.line == 1


def test_seq_is_right_associative():
    p = qs.parse_program("skip; skip; skip")
    assert isinstance(p, qs.Seq) and isinstance(p.second, qs.Seq)


def test_quantum_and_classical_vars():
    p = qs.parse_program("H[q[1]]; x := M[p]; y := x + 1", measurements={"M"})
    qv = qs.quantum_vars(p)
    assert qv["q"] == {(1,)}
    assert "p" in qv
    assert qs.classical_vars(p) == {"x", "y"}
    # non-constant subscripts are tracked conservatively
    qv = qs.quantum_vars(qs.parse_program("H[q[x]]"))
    assert qv["q"] is None


def test_same_syntax_compares_programs_up_to_normal_form():
    p = qs.parse_program
    assert qs.same_syntax(
        p("if (x = 0 and y = 0) and true then x := 1 else skip fi"),
        p("if x = 0 and (y = 0 and true) then x := 1 else skip fi"))
    for a, b in (("x := 0", "x := false"), ("x := 1", "x := 1.0"),
                 ("x := 0; skip", "x := 0"), ("H[q[1]]", "H[q[true]]"),
                 ("H[q]", "X[q]"), ("x := M[q]", "y := M[q]")):
        assert not qs.same_syntax(p(a), p(b)), (a, b)


def test_expr_precedence_text():
    e = qs.parse_expr("1 + 2 * 3 - 4")
    assert cl.eval_expr(cl.ClassicalState(), e) == 3
    f = qs.parse_formula("x = 1 or x = 2 and y = 0")
    st = cl.ClassicalState({"x": 1, "y": 5})
    assert cl.satisfies(st, f)  # 'and' binds tighter than 'or'


def test_comments_and_whitespace():
    p = qs.parse_program("skip; # trailing comment\n  skip")
    assert isinstance(p, qs.Seq)


def test_long_sequences_need_no_recursion():
    p = qs.seq_all([qs.Skip()] * 1999 + [qs.Assign("x", cl.Var("y"))])
    assert qs.pretty(p) == "skip; " * 1999 + "x := y"
    assert qs.classical_vars(p) == {"x", "y"}
    assert qs.quantum_vars(p) == {}
    copy = qs.seq_all([qs.Skip()] * 1999 + [qs.Assign("x", cl.Var("y"))])
    assert qs.same_syntax(p, copy)
    assert not qs.same_syntax(p, qs.seq_all([qs.Skip()] * 2000))
    left = qs.Skip()
    for _ in range(1999):
        left = qs.Seq(left, qs.Skip())
    assert qs.seq_parts(left) == [qs.Skip()] * 2000
    assert qs.pretty(left) == "; ".join(["skip"] * 2000)


a, b, c, x = (cl.Var(n) for n in "abcx")
_PINNED = [
    # comparisons do not chain; "not" is not an operand of a comparison,
    # and a quantifier is not an operand of a binary operator
    ("a < b < c", None),
    ("x and a < b < c", None),
    ("a = not b", None),
    ("a and forall i in 0..1 . b", None),
    ("not a = b", cl.UnOp("not", cl.BinOp("=", a, b))),
    ("a -> b -> c", cl.BinOp("->", a, cl.BinOp("->", b, c))),
    ("a - b - c", cl.BinOp("-", cl.BinOp("-", a, b), c)),
    ("- - 1", cl.UnOp("-", cl.UnOp("-", cl.Lit(1)))),
    ("(not a) < b", cl.BinOp("<", cl.UnOp("not", a), b)),
    ("0.j[1:2]", cl.BinFrac("j", cl.Lit(1), cl.Lit(2))),
    ("1e5", cl.Lit(1e5)),
    ("1e", None),  # the number 1, then the name e
    ("2.5e-3", cl.Lit(2.5e-3)),
]


@pytest.mark.parametrize("src, tree", _PINNED)
def test_pinned_expressions(src, tree):
    if tree is None:
        with pytest.raises(qs.ParseError):
            qs.parse_expr(src)
    else:
        assert repr(qs.parse_expr(src)) == repr(tree)


@pytest.mark.parametrize("bounds, col", [("1.5..2", 13), ("1..1e5", 16)])
def test_quantifier_bound_is_an_integer_literal(bounds, col):
    with pytest.raises(qs.ParseError, match=r"expected an integer, found .*"
                       r"\(line 1, column %d\)" % col):
        qs.parse_expr("forall i in %s . true" % bounds)


def test_ket_value_is_a_sum():
    s = asrt.parse_state("|x + 1>_q")
    assert repr(s) == repr(asrt.Ket(cl.BinOp("+", x, cl.Lit(1)), qs.QVar("q")))


def test_tokens_after_a_comment_and_non_decimal_digits():
    # the end of input sits after a trailing comment, not at its start
    assert [(t.kind, t.col) for t in qs.tokenize("x # c")] == [("IDENT", 1), ("EOF", 6)]
    assert [t.text for t in qs.tokenize("1e")] == ["1", "e", ""]
    # a number is decimal digits: a superscript is no digit and no letter
    with pytest.raises(qs.ParseError, match="unexpected character '\u00b2'"):
        qs.parse_program("x := \u00b2")


def test_long_operator_chain_needs_no_recursion():
    # the chain as deep as the bound allows, read within 50 frames
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 50)
    try:
        e = qs.parse_expr(" + ".join(["x"] * qs.MAX_DEPTH))
    finally:
        sys.setrecursionlimit(limit)
    depth = 0
    while isinstance(e, cl.BinOp):
        assert e.op == "+" and e.right == x
        e, depth = e.left, depth + 1
    assert e == x and depth == qs.MAX_DEPTH - 1


_DEEP = [
    ("chain", lambda n: " + ".join(["x"] * n), qs.parse_expr),
    ("implications", lambda n: " -> ".join(["x"] * n), qs.parse_expr),
    ("brackets", lambda n: "(" * n + "x" + ")" * n, qs.parse_expr),
    ("minus", lambda n: "- " * n + "x", qs.parse_expr),
    ("not", lambda n: "not " * n + "x", qs.parse_expr),
    ("quantifiers", lambda n: "forall i in 0..1 . " * n + "true", qs.parse_expr),
    ("conditionals", lambda n: "if x = 0 then " * n + "skip" + " else skip fi" * n,
     qs.parse_program),
    ("loops", lambda n: "while x = 0 do " * n + "skip" + " od" * n, qs.parse_program),
    ("sum", lambda n: " + ".join(["|0>_q"] * n), asrt.parse_state),
    ("tensor", lambda n: " ".join(["|0>_q"] * n), asrt.parse_state),
    ("state brackets", lambda n: "(" * n + "|0>_q" + ")" * n, asrt.parse_state),
    ("gates", lambda n: "H[q] " * n + "|0>_q", asrt.parse_state),
]


@pytest.mark.parametrize("name, text, parse", _DEEP, ids=[d[0] for d in _DEEP])
def test_nesting_past_the_bound_is_a_parse_error(name, text, parse):
    for n in (qs.MAX_DEPTH + 1, 3000):
        with pytest.raises(qs.DepthError, match=r"nested more than %d levels deep "
                           r"\(line 1, column \d+\)" % qs.MAX_DEPTH):
            parse(text(n))
    # below the bound the tree is read, printed and walked without recursion errors
    tree = parse(text(qs.MAX_DEPTH - 3))
    if parse is asrt.parse_state:
        asrt.format_state(tree)
    elif parse is qs.parse_program:
        qs.pretty(tree)
        qs.classical_vars(tree)
    else:
        qs.format_expr(tree)
        cl.free_vars(tree)


def test_deepest_bundled_text_is_well_inside_the_bound(monkeypatch):
    # the QFT n = 8 scripts nest 13 levels, the corpus 4 (and the README 3)
    from cqhoare import harness as hz, prover as pv, qft
    depths = []
    real = qs._Parser.nest

    def nest(self):
        real(self)
        depths.append(self.depth)

    monkeypatch.setattr(qs._Parser, "nest", nest)
    interp, accepted, mutants = hz.build_corpus()
    for script in [qft.generate_qft(8)[1], qft.perturbed_qft_script(8)[1],
                   *accepted.values(), *mutants.values()]:
        pv.node_from_json(pv.node_to_json(script), measurements=set(interp.measurements))
    assert max(depths) == 13 and 10 * max(depths) < qs.MAX_DEPTH
