import traceback

from hypothesis import given, settings, strategies as hst
import numpy as np
import pytest

from cqhoare import classical as cl
from cqhoare import linalg as la
from cqhoare import qsyntax as qs
from cqhoare import structures as st
from cqhoare import assertions as asrt
from cqhoare.assertions import (Atomic, StateProj, Neg, PTensor, Kraus,
                                CqAssertion)
from cqhoare.qsyntax import QVar

from conftest import subst_interp, random_predicate, random_expr


def interp2():
    interp = st.default_interpretation()
    interp.declare_classical("x", cl.IntType(0, 3))
    interp.declare_quantum("q1", 2)
    interp.declare_quantum("q2", 2)
    return interp


SIGMA = cl.ClassicalState({"x": 0, "y": 0})


def evp(a, interp, sigma=SIGMA):
    return asrt.eval_predicate(sigma, a, interp)


# ---------------------------------------------------------------------------
# Formal states


def test_state_evaluation():
    interp = interp2()
    s = asrt.parse_state("|0>_q1 |1>_q2")
    vec, layout = asrt.eval_state(SIGMA, s, interp)
    assert layout.dim == 4
    assert abs(vec[0b01] - 1.0) < 1e-12


def test_state_tensor_order_is_canonical():
    interp = interp2()
    a = asrt.parse_state("|0>_q1 |1>_q2")
    b = asrt.parse_state("|1>_q2 |0>_q1")
    va, la_ = asrt.eval_state(SIGMA, a, interp)
    vb, lb = asrt.eval_state(SIGMA, b, interp)
    assert la_.ids == lb.ids
    assert np.allclose(va, vb)


def test_superposition_norm_gate():
    interp = interp2()
    ok = asrt.parse_state("(1/sqrt(2)) * (|0>_q1) + (1/sqrt(2)) * (|1>_q1)")
    asrt.eval_state(SIGMA, ok, interp)
    bad = asrt.parse_state("(1/2) * (|0>_q1) + (1/2) * (|1>_q1)")
    with pytest.raises(asrt.NotWellDefined):
        asrt.eval_state(SIGMA, bad, interp)


def test_superposition_requires_matching_signatures():
    interp = interp2()
    s = asrt.parse_state("(1/sqrt(2)) * (|0>_q1) + (1/sqrt(2)) * (|1>_q2)")
    with pytest.raises(asrt.NotWellDefined):
        asrt.eval_state(SIGMA, s, interp)


def test_overlapping_tensor_not_well_defined():
    interp = interp2()
    s = asrt.parse_state("|0>_q1 |1>_q1")
    with pytest.raises(asrt.NotWellDefined):
        asrt.eval_state(SIGMA, s, interp)


def test_gate_application():
    interp = interp2()
    s = asrt.parse_state("H[q1] (|0>_q1)")
    vec, _ = asrt.eval_state(SIGMA, s, interp)
    assert np.allclose(vec, np.array([1, 1]) / np.sqrt(2))


def test_ket_value_out_of_range():
    interp = interp2()
    s = asrt.Ket(cl.Lit(3), QVar("q1"))
    with pytest.raises(asrt.NotWellDefined):
        asrt.eval_state(SIGMA, s, interp)


# ---------------------------------------------------------------------------
# Predicates


def test_atomic_and_negation():
    interp = interp2()
    r = evp(Atomic("P0", (), (QVar("q1"),)), interp)
    assert r.well_defined
    assert np.allclose(r.op, np.diag([1.0, 0.0]))
    r = evp(Neg(Atomic("P0", (), (QVar("q1"),))), interp)
    assert np.allclose(r.op, np.diag([0.0, 1.0]))


def test_tensor_of_predicates():
    interp = interp2()
    a = PTensor(Atomic("P0", (), (QVar("q1"),)),
                Atomic("P1", (), (QVar("q2"),)))
    r = evp(a, interp)
    assert r.layout.dim == 4
    assert abs(la.trace_product(r.op, np.diag([0, 1.0, 0, 0]))) > 0.99


def test_overlapping_tensor_predicate_nwd():
    interp = interp2()
    a = PTensor(Atomic("P0", (), (QVar("q1"),)),
                Atomic("P1", (), (QVar("q1"),)))
    r = evp(a, interp)
    assert not r.well_defined


def test_kraus_application_is_heisenberg_adjoint():
    interp = interp2()
    # F_H applied to |0><0| gives |+><+|
    a = Kraus("F_H", (), (QVar("q1"),), (Atomic("P0", (), (QVar("q1"),)),))
    r = evp(a, interp)
    plus = np.array([1, 1]) / np.sqrt(2)
    assert np.allclose(r.op, np.outer(plus, plus))


def test_scalar_kraus_scales():
    interp = interp2()
    a = Kraus("WSUM1", (cl.Lit(0.5),), (), (Atomic("ID1", (), (QVar("q1"),)),))
    r = evp(a, interp)
    assert np.allclose(r.op, 0.5 * np.eye(2))


def test_predicate_evaluations_are_effects():
    interp = subst_interp()
    rng = np.random.default_rng(0)
    sigmas = list(cl.iter_states(
        {"x": cl.IntType(0, 3), "y": cl.IntType(0, 3)}, {"x", "y"}))
    checked = 0
    for _ in range(60):
        a = random_predicate(rng)
        sigma = sigmas[int(rng.integers(len(sigmas)))]
        r = asrt.eval_predicate(sigma, a, interp)
        if r.well_defined:
            assert la.is_effect(r.op, 1e-9)
            checked += 1
    assert checked > 20


def test_substitution_lemma_randomized():
    """sigma(A[e/x]) == (sigma[x := sigma(e)])(A), including agreement of
    the well-definedness verdicts."""
    interp = subst_interp()
    rng = np.random.default_rng(42)
    sigmas = list(cl.iter_states(
        {"x": cl.IntType(0, 3), "y": cl.IntType(0, 3)}, {"x", "y"}))
    for _ in range(150):
        a = random_predicate(rng)
        e = cl.BinOp("%", random_expr(rng), cl.Lit(4))
        x = "xy"[int(rng.integers(2))]
        sigma = sigmas[int(rng.integers(len(sigmas)))]
        lhs = asrt.eval_predicate(sigma, asrt.subst_predicate(a, e, x), interp)
        shifted = sigma.update(x, cl.eval_expr(sigma, e))
        rhs = asrt.eval_predicate(shifted, a, interp)
        assert lhs.well_defined == rhs.well_defined
        if lhs.well_defined:
            assert lhs.layout.ids == rhs.layout.ids
            assert np.max(np.abs(lhs.op - rhs.op)) < 1e-12


def test_classical_vars_and_substitution_reach_every_expression():
    state = asrt.parse_state("(c) * G(t)[r[i]] |v>_q[j] + (d) * |w>_q[k]")
    a = Kraus("F", (cl.Var("p"),), (QVar("s", (cl.Var("m"),)),),
              (PTensor(Neg(StateProj(state)), Atomic("P0", (cl.Var("u"),), ())),))
    names = set("cdtivjwkpmu")
    assert qs.classical_vars(a) == names
    b = asrt.subst_predicate(a, cl.Var("z"), "k")
    assert qs.classical_vars(b) == names - {"k"} | {"z"}
    assert asrt.subst_predicate(b, cl.Var("k"), "z") == a


# ---------------------------------------------------------------------------
# Entailment


def test_entailment_holds_and_fails():
    interp = interp2()
    p0 = Atomic("P0", (), (QVar("q1"),))
    id1 = Atomic("ID1", (), (QVar("q1"),))
    assert asrt.entails(cl.TRUE, p0, id1, interp).holds
    v = asrt.entails(cl.TRUE, id1, p0, interp)
    assert v.status == "fails"
    # conditioned on an unsatisfiable formula everything holds
    assert asrt.entails(cl.FALSE, id1, p0, interp).holds


def test_entailment_across_different_signatures():
    interp = interp2()
    p0 = Atomic("P0", (), (QVar("q1"),))
    both = PTensor(p0, Atomic("ID1", (), (QVar("q2"),)))
    assert asrt.entails(cl.TRUE, p0, both, interp).status == "holds"


def test_entailment_inconclusive_without_domain():
    interp = interp2()
    p0 = Atomic("P0", (), (QVar("q1"),))
    v = asrt.entails(cl.BinOp("=", cl.Var("w"), cl.Lit(0)), p0, p0, interp)
    assert (v.status, v.reason) == ("inconclusive", "no enumerable domain for w")


def test_cq_entails_checks_classical_side():
    interp = interp2()
    p0 = Atomic("P0", (), (QVar("q1"),))
    pre = CqAssertion(cl.BinOp("=", cl.Var("x"), cl.Lit(1)), p0)
    post = CqAssertion(cl.BinOp("<=", cl.Lit(1), cl.Var("x")), p0)
    assert asrt.cq_entails(pre, post, interp).holds
    assert asrt.cq_entails(post, pre, interp).status == "fails"


def test_wd_disagreement_fails_entailment():
    interp = interp2()
    ok = Atomic("P0", (), (QVar("q1"),))
    nwd = PTensor(ok, ok)  # overlapping, never well-defined
    assert asrt.entails(cl.TRUE, ok, nwd, interp).status == "fails"


# ---------------------------------------------------------------------------
# Serialization


def test_predicate_json_roundtrip():
    rng = np.random.default_rng(9)
    for _ in range(30):
        a = random_predicate(rng)
        b = asrt.pred_from_json(asrt.pred_to_json(a))
        assert asrt.pred_equal(a, b)


def test_state_text_roundtrip():
    rng = np.random.default_rng(10)
    for src in ("|0>_q1", "|x + 1>_a[2]", "H[q1] (|0>_q1)",
                "(1/sqrt(2)) * (|0>_q1) + (1/sqrt(2)) * (|1>_q1)",
                "|0>_q1 |1>_q2 |0>_a[0]"):
        s = asrt.parse_state(src)
        assert asrt.parse_state(asrt.format_state(s)) == s


def test_assertion_json_roundtrip():
    a = CqAssertion(qs.parse_formula("x = 1 and y < 2"),
                    Kraus("F_H", (), (QVar("q1"),),
                          (Atomic("P0", (), (QVar("q1"),)),)))
    b = asrt.assertion_from_json(asrt.assertion_to_json(a))
    assert cl.formula_equal(a.phi, b.phi)
    assert asrt.pred_equal(a.a, b.a)


# ---------------------------------------------------------------------------
# Evaluation memo


def _product_ket(lit):
    """|(x < 2) * lit>_q1: equal as dataclasses for Lit(1) and Lit(True),
    and both label |1> where x < 2 and |0> elsewhere."""
    value = cl.BinOp("*", cl.BinOp("<", cl.Var("x"), cl.Lit(2)), lit)
    return StateProj(asrt.Ket(value, QVar("q1")))


def _counting_eval(monkeypatch):
    """Records (predicate, batch size) of every predicate evaluation."""
    calls = []
    real = asrt._eval_pred

    def counted(sigmas, a, interp, memo=None):
        calls.append((id(a), len(sigmas)))
        return real(sigmas, a, interp, memo)

    monkeypatch.setattr(asrt, "_eval_pred", counted)
    return calls


def test_reflexive_entailment_evaluates_one_side(monkeypatch):
    interp = interp2()
    a, b = _product_ket(cl.Lit(1)), _product_ket(cl.Lit(1))  # equal trees: one object
    assert a is b
    calls = _counting_eval(monkeypatch)
    plain = asrt.entails(cl.TRUE, a, b, interp)
    assert calls == [(id(a), 4), (id(b), 4)]  # each side once, at all 4 states
    del calls[:]
    memoized = asrt.entails(cl.TRUE, a, b, interp, {})
    assert calls == [(id(a), 4)]  # A only, never B
    assert (plain.status, plain.reason) == (memoized.status, memoized.reason)
    assert memoized.reason == "4 states checked"


def test_memo_tells_literal_types_apart(monkeypatch):
    interp = interp2()
    one, true = _product_ket(cl.Lit(1)), _product_ket(cl.Lit(True))
    assert one == true and one is not true  # equal, but two trees
    calls = _counting_eval(monkeypatch)
    memo = {}
    v = asrt.entails(cl.TRUE, one, true, interp, memo)
    assert v.holds and v.reason == "4 states checked"
    assert calls == [(id(one), 4), (id(true), 4)]  # not reflexive: both sides
    t1, t2 = id(one.state), id(true.state)
    entries = [k for k in memo if isinstance(k, tuple) and isinstance(k[0], int)]
    assert {k[0] for k in entries} >= {t1, t2}
    assert len({k[1] for k in entries if k[0] in (t1, t2)}) == 1  # one batch


def test_memo_shares_entries_between_equal_trees():
    interp = interp2()
    memo = {}
    s1 = asrt.parse_state("(1/sqrt(2)) * (|0>_q1) + (1/sqrt(2)) * (|1>_q1)")
    s2 = asrt.parse_state("(1/sqrt(2)) * (|0>_q1) + (1/sqrt(2)) * (|1>_q1)")
    assert s1 is s2  # equal trees are one object, parsed apart
    v1, l1 = asrt.eval_state(SIGMA, s1, interp, memo=memo)
    v2, l2 = asrt.eval_state(SIGMA, s2, interp, memo=memo)
    assert v1.base is v2.base and l1 is l2  # rows of one stored stack
    assert len([k for k in memo if isinstance(k, tuple) and k[0] == id(s1)]) == 1
    assert not v1.flags.writeable
    ref, _ = asrt.eval_state(SIGMA, s1, interp)
    assert np.array_equal(ref, v1)


def test_memo_keeps_not_well_defined_but_not_errors():
    interp = interp2()
    memo = {}
    overlap = asrt.parse_state("|0>_q1 |1>_q1")
    for _ in range(2):
        with pytest.raises(asrt.NotWellDefined, match="overlapping"):
            asrt.eval_state(SIGMA, overlap, interp, memo=memo)
    undeclared = asrt.Ket(cl.Lit(0), QVar("nowhere"))
    for _ in range(2):
        with pytest.raises(st.ResolutionError):
            asrt.eval_state(SIGMA, undeclared, interp, memo=memo)
    stored = {k: v for k, v in memo.items()
              if isinstance(k, tuple) and isinstance(k[0], int)}
    reasons = [v for v in stored.values() if isinstance(v, str)]
    assert reasons == ["overlapping signatures in tensor"]
    assert all(k[0] != id(undeclared) for k in stored)


# `values()` of this type would be a million-element list
_HUGE = cl.IntType(0, 10 ** 6)


def test_oversized_domain_is_inconclusive_without_listing_values(monkeypatch):
    real = cl.IntType.values

    def values(self):
        assert self != _HUGE, "values() of the oversized type was built"
        return real(self)

    monkeypatch.setattr(cl.IntType, "values", values)
    interp = interp2()
    interp.declare_classical("w", _HUGE)
    assert cl.state_count(interp.classical_vars, {"w", "x"}) == 4 * (10 ** 6 + 1)
    p0 = Atomic("P0", (), (QVar("q1"),))
    v = asrt.entails(cl.BinOp("=", cl.Var("w"), cl.Var("x")), p0, p0, interp)
    assert v.status == "inconclusive" and "exceeds cap" in v.reason


# ---------------------------------------------------------------------------
# Factored entailment

Q1, Q2 = QVar("q1"), QVar("q2")


def _proj(text):
    return StateProj(asrt.parse_state(text))


def _fb2(*branches):
    return Kraus("FB2", (), (Q1,), branches)


def _entailment_table():
    """(A, B, whether A <= B, whether both sides have factors on the same
    systems) for every predicate kind entailment meets."""
    p0, p1, id1 = (Atomic(n, (), (Q1,)) for n in ("P0", "P1", "ID1"))
    id12 = PTensor(id1, Atomic("ID1", (), (Q2,)))
    p0_id = PTensor(p0, Atomic("ID1", (), (Q2,)))
    zero_zero = _proj("|0>_q1 |0>_q2")
    half = Kraus("WSUM1", (cl.Lit(0.5),), (), (_proj("|0>_q1"),))
    split = _fb2(_proj("|0>_q1"), zero_zero)  # branches on differing layouts
    plus = _proj("H[q1] (|0>_q1)")
    f_h = Kraus("F_H", (), (Q1,), (_proj("|0>_q1"),))
    return [
        (p0, id1, True, False), (id1, p0, False, False),  # Atomic
        (Neg(p1), p0, True, False), (p0, Neg(id1), False, False),  # Neg
        (zero_zero, p0_id, True, False), (p0_id, zero_zero, False, False),
        (half, _proj("|0>_q1"), True, False),  # scalar Kraus
        (_proj("|0>_q1"), half, False, False),
        (split, id12, True, False), (id12, split, False, False),
        (zero_zero, _proj("|0>_q1"), True, False),  # differing systems
        (_proj("|0>_q1"), zero_zero, False, False),
        (plus, f_h, True, True), (f_h, plus, True, True),
        (_proj("|1>_q1"), f_h, False, True),
        (_fb2(_proj("|0>_q1"), _proj("|1>_q1")), _proj("|0>_q1"), True, True),
        (_proj("|0>_q1"), _fb2(_proj("|1>_q1"), _proj("|0>_q1")), False, True),
    ]


@pytest.mark.parametrize("memo", [None, {}])
def test_entailment_verdicts_for_every_predicate_kind(memo):
    interp = interp2()
    for a, b, holds, _ in _entailment_table():
        v = asrt.entails(cl.TRUE, a, b, interp, memo)
        assert v.status == ("holds" if holds else "fails"), (a, b)


def _forbid(monkeypatch, *names):
    def forbidden(*args, **kwargs):
        raise AssertionError("linalg call on the wrong path")
    for name in names:
        monkeypatch.setattr(la, name, forbidden)


def test_fallback_kinds_are_compared_densely(monkeypatch):
    interp = interp2()
    _forbid(monkeypatch, "min_eig_difference")
    for a, b, holds, factored in _entailment_table():
        if not factored:
            assert asrt.entails(cl.TRUE, a, b, interp).holds == holds


def test_factored_kinds_build_no_dense_operator(monkeypatch):
    interp = interp2()
    pairs = [(a, b, holds) for a, b, holds, factored in _entailment_table()
             if factored]
    for a, b, _ in pairs:  # a Kraus symbol checks its operators on first use
        asrt.entails(cl.TRUE, a, b, interp)
    _forbid(monkeypatch, "embed", "is_psd")
    for a, b, holds in pairs:
        assert asrt.entails(cl.TRUE, a, b, interp).holds == holds


def test_kraus_factor_stacks_its_branches():
    interp = interp2()
    r = evp(_fb2(_proj("|0>_q1"), _proj("|1>_q1")), interp)
    assert r.factor.shape == (2, 2) and r.dense is None
    assert np.allclose(r.op, np.diag([1.0, 0.0]))
    r = evp(Kraus("F_CNOT", (), (Q1, Q2), (_proj("|1>_q1 |1>_q2"),)), interp)
    assert r.factor.shape == (4, 1)
    assert np.allclose(r.op, np.diag([0, 0, 1.0, 0]))


def test_dense_effect_is_built_on_request():
    interp = interp2()
    r = evp(_proj("H[q1] (|0>_q1)"), interp)
    assert r.dense is None
    plus = np.array([1, 1]) / np.sqrt(2)
    assert np.allclose(r.op, np.outer(plus, plus))
    assert r.dense is r.op  # built once
    r = evp(Atomic("P0", (), (Q1,)), interp)
    assert r.factor is None and np.allclose(r.op, np.diag([1.0, 0.0]))


def test_psd_tolerance_decides_on_the_factored_path(monkeypatch):
    """|0><0| - |a><a| for |a> at angle t from |0> has eigenvalues +-sin t."""
    interp = interp2()
    t = cl.Lit(1e-6)
    tilted = StateProj(asrt.Superpose(
        cl.Call("cos", (t,)), asrt.Ket(cl.Lit(0), Q1),
        cl.Call("sin", (t,)), asrt.Ket(cl.Lit(1), Q1)))
    _forbid(monkeypatch, "embed", "is_psd")
    assert asrt.entails(cl.TRUE, tilted, _proj("|0>_q1"), interp).status == "fails"
    interp.tolerances = la.Tolerances(psd=1e-5)
    assert asrt.entails(cl.TRUE, tilted, _proj("|0>_q1"), interp).holds


# ---------------------------------------------------------------------------
# Batched evaluation


def _batch_interp():
    interp = subst_interp()
    interp.declare_classical("j", cl.BitArrayType(1, 3))
    return interp


_BATCH_SIGMAS = list(cl.iter_states(
    {"x": cl.IntType(0, 3), "y": cl.IntType(0, 3), "j": cl.BitArrayType(1, 3)},
    {"x", "y", "j"}))
_HALF = cl.BinOp("/", cl.Lit(1), cl.Call("sqrt", (cl.Lit(2),)))


def _random_qvar(rng):
    """A system; a[x + 1] is out of range at x = 3."""
    r = int(rng.integers(6))
    if r < 3:
        return QVar(("q1", "q2", "a")[r], (cl.Lit(1),) if r == 2 else ())
    return QVar("a", ((cl.Var("x"), cl.Var("y"),
                       cl.BinOp("+", cl.Var("x"), cl.Lit(1)))[r - 3],))


def _random_label(rng):
    r = int(rng.integers(6))
    return (cl.Lit(int(rng.integers(2))), cl.BitIndex("j", cl.Lit(2)),
            cl.BitIndex("j", cl.BinOp("+", cl.BinOp("%", cl.Var("x"), cl.Lit(3)),
                                      cl.Lit(1))),
            cl.BinOp("%", random_expr(rng), cl.Lit(2)),
            cl.Var("y"),  # out of range at y >= 2
            cl.BinOp("/", cl.Lit(2), cl.BinOp("-", cl.Var("x"), cl.Lit(2))))[r]


def _random_coeff(rng):
    r = int(rng.integers(4))
    frac = cl.BinFrac("j", cl.Lit(1), cl.Lit(int(rng.integers(1, 4))))
    return (_HALF, cl.BinOp("*", _HALF, cl.Call("exp2pi", (frac,))),
            cl.BinOp("*", cl.BinOp("%", cl.Var("x"), cl.Lit(2)), _HALF),
            cl.Lit(0.5))[r]


def _random_state(rng, depth=2):
    r = int(rng.integers(4 if depth > 0 else 1))
    if r == 0:
        return asrt.Ket(_random_label(rng), _random_qvar(rng))
    if r == 1:
        return asrt.STensor(_random_state(rng, depth - 1),
                            _random_state(rng, depth - 1))
    if r == 2:
        q = _random_qvar(rng)
        return asrt.Superpose(_random_coeff(rng), asrt.Ket(cl.Lit(0), q),
                              _random_coeff(rng), asrt.Ket(cl.Lit(1), q))
    angle = (cl.Lit(0.3), cl.BinOp("*", cl.Var("y"), cl.Lit(0.5)))[int(rng.integers(2))]
    gate = (("H", ()), ("Rx", (angle,)))[int(rng.integers(2))]
    return asrt.GateApp(*gate, (_random_qvar(rng),), _random_state(rng, depth - 1))


def _random_batch_pred(rng, depth=2):
    r = int(rng.integers(4 if depth > 0 else 2))
    if r == 0:
        return StateProj(_random_state(rng))
    if r == 1:
        return random_predicate(rng, 0)
    if r == 2:
        return random_predicate(rng, depth)
    return Kraus("F_H", (), (_random_qvar(rng),), (_random_batch_pred(rng, depth - 1),))


def _outcome(evaluate):
    try:
        return "ok", evaluate()
    except asrt.NotWellDefined as e:
        return "nwd", e.reason
    except Exception as e:
        return "error", (type(e), str(e))


def _bits(x):
    return None if x is None else np.ascontiguousarray(x).tobytes()


def _random_batch(rng):
    """2 to 8 distinct states; half of the batches share x and y."""
    pool = _BATCH_SIGMAS
    if rng.integers(2):
        x, y = int(rng.integers(4)), int(rng.integers(4))
        pool = [s for s in pool if (s["x"], s["y"]) == (x, y)]
    picks = rng.choice(len(pool), int(rng.integers(2, 9)), replace=False)
    return tuple(pool[i] for i in picks)


@settings(max_examples=300, deadline=None)
@given(seed=hst.integers(0, 2 ** 32 - 1))
def test_batch_evaluation_matches_each_member_alone(seed):
    """A batch either evaluates to one stack whose rows are bit for bit the
    results of the members alone, or to the NotWellDefined reason every
    member gives alone, or is _Mixed."""
    rng = np.random.default_rng(seed)
    interp = _batch_interp()
    a = _random_batch_pred(rng)
    batch = _random_batch(rng)
    alone = [_outcome(lambda s=s: asrt._eval_pred((s,), a, interp)) for s in batch]
    for memo in (None, {}):
        kind, r = _outcome(lambda: asrt._eval_pred(batch, a, interp, memo))
        if kind == "error":
            assert r[0] is asrt._Mixed
        elif kind == "nwd":
            assert all(o == ("nwd", r) for o in alone)
        else:
            for i, (k, m) in enumerate(alone):
                assert k == "ok" and m.layout.systems == r.layout.systems
                assert _bits(m.factor) == _bits(None if r.factor is None else r.factor[i])
                assert _bits(m.op) == _bits(r.op[i])


def test_batches_stack_where_members_agree():
    interp = _batch_interp()
    state = StateProj(asrt.Superpose(
        _HALF, asrt.Ket(cl.Lit(0), Q1),
        cl.BinOp("*", _HALF, cl.Call("exp2pi", (cl.BinFrac("j", cl.Lit(1), cl.Lit(3)),))),
        asrt.Ket(cl.Lit(1), Q1)))
    batch = tuple(_BATCH_SIGMAS)
    assert asrt._eval_pred(batch, state, interp).factor.shape == (128, 2, 1)
    moving = Atomic("P0", (), (QVar("a", (cl.Var("x"),)),))
    with pytest.raises(asrt._Mixed):
        asrt._eval_pred(batch, moving, interp)
    fixed = Atomic("P0", (), (Q1,))
    with pytest.raises(asrt.NotWellDefined, match="overlapping"):
        asrt._eval_pred(batch, PTensor(fixed, fixed), interp)


def test_leaf_expressions_run_once_per_bit_pattern_they_read(monkeypatch):
    interp = _batch_interp()
    frac = cl.BinFrac("j", cl.Lit(2), cl.Lit(3))
    phase = cl.Call("exp2pi", (frac,))
    seen = []
    real = cl.eval_expr

    def counted(sigma, expr):
        if expr is phase:
            seen.append(sigma)
        return real(sigma, expr)

    monkeypatch.setattr(cl, "eval_expr", counted)
    state = asrt.Superpose(_HALF, asrt.Ket(cl.Lit(0), Q1),
                           cl.BinOp("*", _HALF, phase), asrt.Ket(cl.Lit(1), Q1))
    asrt._eval_pred(tuple(_BATCH_SIGMAS), StateProj(state), interp)
    assert len(seen) == 4  # j[2] and j[3], not all 128 states


def _reference_entails(phi, a, b, interp):
    """phi |= A <= B decided one classical state after another, with a dense
    eigendecomposition at each."""
    states = asrt.enumerate_states(qs.classical_vars((phi, a, b)), interp)
    checked = 0
    for sigma in states:
        if not cl.satisfies(sigma, phi):
            continue
        checked += 1
        ra = asrt.eval_predicate(sigma, a, interp)
        rb = asrt.eval_predicate(sigma, b, interp)
        if ra.well_defined != rb.well_defined:
            return "fails", sigma, "well-definedness disagrees"
        if ra.well_defined:
            layout = la.union_layout(ra.layout, rb.layout, interp.order_key)
            diff = (la.embed(rb.op, list(rb.layout.ids), layout)
                    - la.embed(ra.op, list(ra.layout.ids), layout))
            if np.linalg.eigvalsh(diff).min() < -interp.tolerances.psd:
                return "fails", sigma, "Loewner order fails"
    return "holds", None, "%d states checked" % checked


def _at_x(label):
    return StateProj(asrt.Ket(label, Q1))


_X = cl.Var("x")
_DIV = cl.BinOp("/", cl.Lit(2), cl.BinOp("-", _X, cl.Lit(2)))  # 2 / (x - 2)
_ENTAILMENTS = {
    # sigma-dependent targets: fails where x != y, first at x = 0, y = 1
    "targets": (cl.TRUE, Atomic("P0", (), (QVar("a", (_X,)),)),
                Atomic("P0", (), (QVar("a", (cl.Var("y"),)),))),
    "targets-agree": (cl.BinOp("=", _X, cl.Var("y")),
                      Atomic("P0", (), (QVar("a", (_X,)),)),
                      Atomic("P0", (), (QVar("a", (cl.Var("y"),)),))),
    # one batch, failing at x = 1 and x = 3: the witness is the first
    "loewner-batch": (cl.TRUE, _at_x(cl.BinOp("%", _X, cl.Lit(2))), _at_x(cl.Lit(0))),
    # one batch, A not well-defined anywhere: fails at the first state
    "well-definedness-batch": (cl.TRUE, _at_x(cl.Lit(2)),
                               _at_x(cl.BinOp("%", _X, cl.Lit(2)))),
    # sigma-dependent well-definedness: |x> is out of range from x = 2
    "well-definedness": (cl.TRUE, _at_x(_X), _at_x(cl.BinOp("%", _X, cl.Lit(2)))),
    # fails at x = 1, before the division by zero at x = 2
    "error-after-failure": (cl.TRUE, _at_x(cl.BinOp("%", _DIV, cl.Lit(2))),
                            _at_x(cl.Lit(1))),
    # the division by zero at x = 2 comes before any failure
    "error-first": (cl.TRUE, _at_x(cl.BinOp("%", _DIV, cl.Lit(2))),
                    _at_x(cl.BinOp("%", _DIV, cl.Lit(2)))),
    # phi itself fails to evaluate at x = 2, after a failure at x = 1
    "phi-error": (cl.BinOp(">=", _DIV, cl.Lit(-5)), _at_x(cl.Lit(0)),
                  _at_x(cl.BinOp("%", _X, cl.Lit(2)))),
}


@pytest.mark.parametrize("name", list(_ENTAILMENTS))
@pytest.mark.parametrize("memo", [None, {}])
def test_batched_entailment_matches_a_per_state_loop(name, memo):
    phi, a, b = _ENTAILMENTS[name]
    interp = _batch_interp()
    want = _outcome(lambda: _reference_entails(phi, a, b, interp))
    got = _outcome(lambda: asrt.entails(phi, a, b, interp, memo))
    if want[0] == "ok":
        v = got[1]
        got = ("ok", (v.status, v.witness, v.reason))
    assert got == want
    assert name != "error-first" or want[0] == "error"
    assert name in ("targets-agree", "error-first") or want[1][0] == "fails"


def test_entailments_sharing_a_memo_replay_a_phi_error(monkeypatch):
    """The batches before phi's error are listed once per memo; every
    entailment that shares them decides them, then raises that error."""
    phi, fails, b = _ENTAILMENTS["phi-error"]
    holds = _at_x(cl.BinOp("%", cl.Lit(2), cl.Lit(2)))  # |0>, not A's tree
    interp, memo = _batch_interp(), {}
    decided = []
    first_failure = asrt._first_failure
    monkeypatch.setattr(asrt, "_first_failure", lambda batch, *rest: (
        decided.append(batch) or first_failure(batch, *rest)))
    for a, b in ((fails, b), (holds, _at_x(cl.Lit(0))), (holds, _at_x(cl.Lit(0)))):
        want = _outcome(lambda: _reference_entails(phi, a, b, interp))
        got = _outcome(lambda: asrt.entails(phi, a, b, interp, memo))
        if want[0] == "ok":
            got = ("ok", (got[1].status, got[1].witness, got[1].reason))
        assert got == want
    assert want[0] == "error" and want[1][0] is cl.EvalError
    # x = 0 and x = 1 satisfy phi before the error at x = 2: one batch,
    # the same object each time
    assert len(decided) == 3 and decided[0] is decided[1] is decided[2]
    assert [s["x"] for s in decided[0]] == [0, 1]
    # one kept error, raised again without growing its traceback
    raised = []
    for _ in range(3):
        with pytest.raises(cl.EvalError) as e:
            asrt.entails(phi, holds, _at_x(cl.Lit(0)), interp, memo)
        raised.append((e.value, len(traceback.extract_tb(e.value.__traceback__))))
    assert raised[0][0] is raised[2][0] and raised[0][1] == raised[2][1]


def test_dense_batches_past_the_byte_budget_go_member_by_member(monkeypatch):
    interp = interp2()
    a = PTensor(Atomic("P0", (), (Q1,)), Atomic("ID1", (), (Q2,)))
    batch = tuple(cl.iter_states(interp.classical_vars, {"x"}))
    assert asrt._eval_pred(batch, a, interp).dense.shape == (4, 4, 4)
    phi = cl.BinOp(">=", cl.Var("x"), cl.Lit(0))  # four states, one batch
    table = [(b, c, holds) for b, c, holds, _ in _entailment_table()]
    monkeypatch.setattr(asrt, "STACK_BYTES", 16 * 4 * 4 * 3)  # three members
    with pytest.raises(asrt._Mixed):
        asrt._eval_pred(batch, a, interp)
    assert asrt._eval_pred(batch[:3], a, interp).dense.shape == (3, 4, 4)
    for b, c, holds in table:
        assert asrt.entails(phi, b, c, interp, {}).holds == holds, (b, c)
