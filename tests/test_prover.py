import json

import numpy as np
import pytest

from cqhoare import classical as cl
from cqhoare import linalg as la
from cqhoare import qsyntax as qs
from cqhoare import structures as st
from cqhoare import assertions as asrt
from cqhoare import prover as pv
from cqhoare import harness as hz
from cqhoare import qft
from cqhoare.assertions import Atomic, StateProj, Kraus, CqAssertion
from cqhoare.qsyntax import QVar


@pytest.fixture()
def corpus():
    return hz.build_corpus()


def check(script, interp):
    return pv.check_script(script, interp)


def test_every_rule_has_an_accepted_script(corpus):
    interp, accepted, _ = corpus
    rules_seen = set()

    def collect(node):
        rules_seen.add(node.rule)
        for p in node.premises:
            collect(p)

    for name, script in accepted.items():
        report = check(script, interp)
        assert report.accepted, (name, report.to_json())
        collect(script)
    assert rules_seen >= set(pv.RULES)


def test_mutants_rejected(corpus):
    interp, _, mutants = corpus
    for name, script in mutants.items():
        assert check(script, interp).status == "rejected", name


def test_skip_requires_identical_assertions(corpus):
    interp, _, _ = corpus
    p0 = Atomic("P0", (), (QVar("q1"),))
    good = pv.ProofNode("Skip", pv.HoareTriple(
        CqAssertion(cl.TRUE, p0), qs.Skip(), CqAssertion(cl.TRUE, p0)))
    assert pv.check_node(good, interp).accepted
    bad = pv.ProofNode("Skip", pv.HoareTriple(
        CqAssertion(cl.TRUE, p0), qs.Skip(),
        CqAssertion(cl.BinOp("=", cl.Var("x"), cl.Lit(0)), p0)))
    assert pv.check_node(bad, interp).status == "rejected"


def test_assignment_axiom_shape(corpus):
    interp, accepted, _ = corpus
    node = accepted["assign"]
    assert pv.check_node(node, interp).accepted
    # wrong precondition formula
    broken = pv.ProofNode("Ass", pv.HoareTriple(
        CqAssertion(cl.TRUE, node.conclusion.pre.a),
        node.conclusion.program, node.conclusion.post))
    assert pv.check_node(broken, interp).status == "rejected"


def test_meas_axiom_freshness(corpus):
    interp, accepted, mutants = corpus
    assert pv.check_node(accepted["measure"], interp).accepted
    v = pv.check_node(mutants["measure_stale"], interp)
    assert v.status == "rejected" and "fresh" in v.reason


def test_meas_axiom_requires_outcome_conjunct(corpus):
    interp, accepted, _ = corpus
    node = accepted["measure"]
    broken = pv.ProofNode("Meas", pv.HoareTriple(
        node.conclusion.pre, node.conclusion.program,
        CqAssertion(cl.TRUE, node.conclusion.post.a)),
        witnesses={"y": "y"})
    assert pv.check_node(broken, interp).status == "rejected"


def test_conseq_uses_entailment(corpus):
    interp, accepted, _ = corpus
    skip = accepted["skip"]  # {true, P0} skip {true, P0}
    q1 = QVar("q1")
    weaker = CqAssertion(cl.TRUE, Atomic("ID1", (), (q1,)))
    good = pv.ProofNode("Conseq", pv.HoareTriple(
        skip.conclusion.pre, qs.Skip(), weaker), (skip,))
    assert pv.check_node(good, interp).accepted
    # strengthening the postcondition is not sound
    stronger = CqAssertion(cl.BinOp("=", cl.Var("x"), cl.Lit(0)),
                           skip.conclusion.post.a)
    bad = pv.ProofNode("Conseq", pv.HoareTriple(
        skip.conclusion.pre, qs.Skip(), stronger), (skip,))
    assert pv.check_node(bad, interp).status == "rejected"


def test_conseq_inconclusive_without_enumerable_domain(corpus):
    interp, accepted, _ = corpus
    interp.declare_classical("r", cl.RealType())
    skip_r = pv.ProofNode("Skip", pv.HoareTriple(
        CqAssertion(cl.BinOp("<", cl.Var("r"), cl.Lit(1)),
                    Atomic("P0", (), (QVar("q1"),))),
        qs.Skip(),
        CqAssertion(cl.BinOp("<", cl.Var("r"), cl.Lit(1)),
                    Atomic("P0", (), (QVar("q1"),)))))
    node = pv.ProofNode("Conseq", pv.HoareTriple(
        skip_r.conclusion.pre, qs.Skip(),
        CqAssertion(cl.TRUE, Atomic("ID1", (), (QVar("q1"),)))), (skip_r,))
    assert pv.check_node(node, interp).status == "inconclusive"


def test_conseq_decides_a_premise_variable_the_conclusion_lacks(corpus):
    """x is declared but appears only in the premise: the entailments range
    over the interpretation's typing, not over the conclusion's names."""
    interp, _, _ = corpus
    p0 = Atomic("P0", (), (QVar("q1"),))
    top = CqAssertion(cl.TRUE, p0)

    def conseq(premise_phi):
        a = CqAssertion(qs.parse_formula(premise_phi), p0)
        skip = pv.ProofNode("Skip", pv.HoareTriple(a, qs.Skip(), a))
        return pv.ProofNode("Conseq", pv.HoareTriple(top, qs.Skip(), top),
                            (skip,))

    assert pv.check_node(conseq("x = 0 or x = 1"), interp).accepted
    v = pv.check_node(conseq("x = 0"), interp)
    assert (v.status, v.reason) == ("rejected", "classical entailment fails")


def test_loop_rules_respect_mode(corpus):
    interp, accepted, _ = corpus
    par = accepted["loop"]
    wrong_mode = pv.ProofNode("LoopPar", pv.HoareTriple(
        par.conclusion.pre, par.conclusion.program, par.conclusion.post,
        "total"), par.premises)
    assert pv.check_node(wrong_mode, interp).status == "rejected"


def test_loop_total_variant_conditions(corpus):
    interp, accepted, _ = corpus
    tot = accepted["loop_total"]
    assert pv.check_node(tot, interp).accepted
    # a non-fresh ranking variable is rejected
    stale = pv.ProofNode("LoopTot", tot.conclusion, tot.premises,
                         witnesses={"t": cl.Var("x"), "z": "x"})
    assert pv.check_node(stale, interp).status == "rejected"
    # a variant that can be negative is rejected
    interp.declare_classical("w", cl.IntType(-2, 2))
    neg = pv.ProofNode(
        "LoopTot", tot.conclusion, tot.premises,
        witnesses={"t": cl.BinOp("-", cl.Var("x"), cl.Lit(1)), "z": "z"})
    assert pv.check_node(neg, interp).status == "rejected"


def test_accum1_proportionality_direction(corpus):
    interp, accepted, _ = corpus
    node = accepted["accumulate_scaled"]
    assert pv.check_node(node, interp).accepted
    # swapping the symbols breaks domination (0.7 is not <= 0.5)
    t = node.conclusion
    swapped = pv.ProofNode("Accum1", pv.HoareTriple(
        CqAssertion(t.pre.phi, Kraus("SCALEB", (), (), t.pre.a.branches)),
        t.program,
        CqAssertion(t.post.phi, Kraus("SCALEA", (), (), t.post.a.branches))),
        node.premises)
    assert pv.check_node(swapped, interp).status == "rejected"


def test_accum_rules_reject_touched_targets(corpus):
    interp, accepted, _ = corpus
    node = accepted["accumulate_branches"]
    t = node.conclusion
    prog = qs.Gate("H", (), (QVar("q1"),))
    premises = tuple(
        pv.ProofNode("Uni", pv.HoareTriple(
            CqAssertion(cl.TRUE, Kraus("F_H", (), (QVar("q1"),), (b,))),
            prog, CqAssertion(cl.TRUE, b)))
        for b in t.pre.a.branches)
    touched = pv.ProofNode("Accum2", pv.HoareTriple(
        CqAssertion(cl.TRUE, Kraus("FB2", (), (QVar("q1"),),
                                   tuple(p.conclusion.pre.a for p in premises))),
        prog,
        CqAssertion(cl.TRUE, Kraus("FB2", (), (QVar("q1"),),
                                   t.post.a.branches))), premises)
    v = pv.check_node(touched, interp)
    assert v.status == "rejected"


def test_convex_weight_validation(corpus):
    interp, accepted, _ = corpus
    node = accepted["convex_mix"]
    bad = pv.ProofNode("Convex2", node.conclusion, node.premises,
                       witnesses={"weights": [0.9, 0.9]})
    assert pv.check_node(bad, interp).status == "rejected"


def test_convex1_max_weight(corpus):
    interp, accepted, _ = corpus
    node = accepted["convex_max"]
    t = node.conclusion
    wrong_max = pv.ProofNode("Convex1", pv.HoareTriple(
        t.pre, t.program,
        CqAssertion(t.post.phi, Kraus("WSUM1", (cl.Lit(0.25),), (),
                                      t.post.a.branches))),
        node.premises, witnesses={"weights": [0.5]})
    assert pv.check_node(wrong_max, interp).status == "rejected"


@pytest.mark.parametrize("name, count", [
    ("convex_mix", 1), ("convex_mix", 4), ("convex_max", 2)])
def test_convex_post_symbol_takes_one_branch_per_premise_shape(corpus, name,
                                                              count):
    """Convex1's post symbol takes one branch, Convex2's one per premise;
    any other count is rejected before a branch is read."""
    interp, accepted, _ = corpus
    node = accepted[name]
    t = node.conclusion
    branches = (t.post.a.branches * count)[:count]
    post = CqAssertion(t.post.phi, cl.replace(t.post.a, branches=branches))
    bad = pv.ProofNode(node.rule, pv.HoareTriple(t.pre, t.program, post),
                       node.premises, node.witnesses)
    v = pv.check_node(bad, interp)
    assert v.status == "rejected" and "postcondition symbol must take" in v.reason


# One value more than DOMAIN_CAP: enumerating it must give "inconclusive".
_OVERSIZED = cl.IntType(0, cl.DOMAIN_CAP)


def test_convex1_inconclusive_over_an_oversized_domain(corpus):
    interp, _, _ = corpus
    interp.declare_classical("w", _OVERSIZED)
    psi = cl.BinOp("=", cl.Var("w"), cl.Lit(0))
    b = StateProj(asrt.Ket(cl.Lit(0), QVar("q1")))
    wsum = Kraus("WSUM1", (cl.Lit(0.5),), (), (b,))
    premise = pv.ProofNode("Skip", pv.HoareTriple(
        CqAssertion(psi, b), qs.Skip(), CqAssertion(psi, b)))
    node = pv.ProofNode("Convex1", pv.HoareTriple(
        CqAssertion(psi, wsum), qs.Skip(), CqAssertion(psi, wsum)),
        (premise,), witnesses={"weights": [0.5]})
    v = pv.check_node(node, interp)
    assert v.status == "inconclusive", v.reason
    assert "exceeds cap" in v.reason


def test_loop_total_inconclusive_over_an_oversized_domain(corpus):
    interp, accepted, _ = corpus
    interp.declare_classical("w", _OVERSIZED)
    loop = accepted["loop_total"].conclusion.program
    a = accepted["loop_total"].conclusion.pre.a
    phi = qs.parse_formula("w >= 0")
    tv, z = cl.Var("x"), cl.Var("z")

    def body(pre_phi, post_phi):
        return pv.ProofNode("Ass", pv.HoareTriple(
            CqAssertion(pre_phi, a), loop.body, CqAssertion(post_phi, a),
            "total"))

    phi_b = cl.BinOp("and", phi, loop.cond)
    node = pv.ProofNode("LoopTot", pv.HoareTriple(
        CqAssertion(phi, a), loop,
        CqAssertion(cl.BinOp("and", phi, cl.neg(loop.cond)), a), "total"),
        (body(phi_b, phi),
         body(cl.BinOp("and", phi_b, cl.BinOp("=", tv, z)),
              cl.BinOp("<", tv, z))),
        witnesses={"t": tv, "z": "z"})
    v = pv.check_node(node, interp)
    assert v.status == "inconclusive", v.reason
    assert "exceeds cap" in v.reason


# ---------------------------------------------------------------------------
# check_proportional


def sym(name, ops):
    return st.KrausSymbol(name, len(ops), (), (2,), lambda: ops)


def test_proportional_scalar_multiples():
    interp = st.default_interpretation()
    half = sym("FHALF", [np.eye(2) * 0.5, np.eye(2) * 0.5])
    ident = sym("FID", [np.eye(2)])
    assert pv.check_proportional(half, ident, (), interp).holds
    assert pv.check_proportional(ident, ident, (), interp).holds


def test_proportional_refuted():
    interp = st.default_interpretation()
    x = sym("FX", [np.array([[0, 1], [1, 0]], dtype=complex)])
    halfi = sym("FHALFI", [np.eye(2) * 0.5])
    v = pv.check_proportional(x, halfi, (), interp)
    assert v.status == "fails"


def test_proportional_non_multiple_refuted():
    interp = st.default_interpretation()
    # dominated in norm but not a scalar multiple: refuted on a pure state
    f = sym("FDIAG", [np.diag([0.5, 0.25]).astype(complex)])
    ident = sym("FID2", [np.eye(2)])
    v = pv.check_proportional(f, ident, (), interp)
    assert v.status == "fails"


def test_proportional_holds_on_degenerate_symbol():
    interp = st.default_interpretation()
    # w = 0 dominates the zero family and nothing else
    zero = sym("FZERO", [np.zeros((2, 2), dtype=complex)])
    assert pv.check_proportional(zero, zero, (), interp).holds
    x = sym("FX0", [np.array([[0, 1], [1, 0]], dtype=complex)])
    assert pv.check_proportional(x, zero, (), interp).status == "fails"


def _dominance_gap(f, w, rhos):
    """The least eigenvalue of w^dagger rho w - f^dagger rho f over `rhos`."""
    return min(np.linalg.eigvalsh(w.conj().T @ r @ w - f.conj().T @ r @ f)[0] for r in rhos)


def test_proportional_band_edge_and_residual_bound():
    """A family passes within eps = tolerances.psd of exact proportionality
    and fails just past it; what passes violates dominance by no more than
    the bound `check_proportional` states."""
    interp = st.default_interpretation()
    eps, d = interp.tolerances.psd, 2
    w = np.diag([0.5, 0.0]).astype(complex)  # |w| = 1/2, room for sub-normalization
    off = np.array([[0, 1], [0, 0]], dtype=complex)  # orthogonal to w: lambda stays
    wsym = sym("FW", [w])
    rng = np.random.default_rng(0)
    vs = rng.standard_normal((200, d)) + 1j * rng.standard_normal((200, d))
    rhos = [np.outer(v, v.conj()) / np.vdot(v, v).real for v in vs] + [np.diag([1.0, 0.0])]
    bound = (2 * eps + eps ** 2) / 4 + (1 + eps) * d * eps + (d * eps) ** 2
    for inside, outside, reason in (
            ((1 + 0.99 * eps) * w, (1 + 1.01 * eps) * w,
             "scalar multiple with |lambda| = 1.000000001 > 1"),
            (0.5 * w + 0.99 * eps * off, 0.5 * w + 1.01 * eps * off,
             "not a scalar multiple of F'")):
        assert pv.check_proportional(sym("FIN", [inside]), wsym, (), interp).holds
        v = pv.check_proportional(sym("FOUT", [outside]), wsym, (), interp)
        assert (v.status, v.reason) == ("fails", reason)
        assert -bound <= _dominance_gap(inside, w, rhos)
    assert _dominance_gap((1 + 0.99 * eps) * w, w, rhos) < -eps / 4  # the band is not empty


def test_rule_locality(corpus):
    """A node's verdict depends only on its conclusion, the premises'
    conclusions, and witnesses; swapping a premise subtree for a different
    one with the same conclusion changes nothing."""
    interp, accepted, _ = corpus
    node = accepted["consequence"]
    premise = node.premises[0]
    fake = pv.ProofNode("TotallyBogusRule", premise.conclusion)
    replaced = pv.ProofNode(node.rule, node.conclusion, (fake,),
                            node.witnesses)
    assert (pv.check_node(replaced, interp).status
            == pv.check_node(node, interp).status)


def test_script_json_roundtrip(corpus):
    interp, accepted, mutants = corpus
    for name, script in list(accepted.items()) + list(mutants.items()):
        doc = json.loads(json.dumps(pv.node_to_json(script)))
        back = pv.node_from_json(doc, measurements=set(interp.measurements))
        assert (pv.check_script(back, interp).status
                == pv.check_script(script, interp).status), name


def test_reflexive_conseq_with_ill_formed_predicate_is_rejected(corpus):
    interp, _, _ = corpus
    bad = CqAssertion(cl.TRUE, StateProj(asrt.Ket(cl.Lit(0), QVar("nowhere"))))
    skip = pv.ProofNode("Skip", pv.HoareTriple(bad, qs.Skip(), bad))
    node = pv.ProofNode("Conseq", pv.HoareTriple(bad, qs.Skip(), bad), (skip,))
    report = pv.check_script(node, interp)
    path, rule, v = report.nodes[-1]
    assert (path, rule, v.status) == ("root", "Conseq", "rejected")
    assert v.reason.startswith("error while checking")


def _scripts():
    for n in (1, 2, 3, 4, 5):
        interp = qft.qft_interpretation(n)
        yield interp, qft.generate_qft(n)[1]
        yield interp, qft.perturbed_qft_script(n)[1]
    interp, accepted, mutants = hz.build_corpus()
    for root in list(accepted.values()) + list(mutants.values()):
        yield interp, root


def test_check_node_without_memo_agrees_with_check_script():
    """check_script shares one memo, and so one list of satisfying batches
    per set of names and phi, across its nodes; each node's verdict, and each
    consequence entailment's status, witness and reason, are those of a
    check alone."""
    for interp, root in _scripts():
        report = pv.check_script(root, interp)
        alone = [(path, node.rule, pv.check_node(node, interp))
                 for path, node in pv._post_order(root)]
        assert len(alone) == len(report.nodes)
        for (p1, r1, v1), (p2, r2, v2) in zip(report.nodes, alone):
            assert (p1, r1) == (p2, r2)
            assert (v1.status, v1.reason, v1.side_conditions) == \
                (v2.status, v2.reason, v2.side_conditions), (p1, r1)
        memo = {}
        for path, node in pv._post_order(root):
            if node.rule != "Conseq" or len(node.premises) != 1:
                continue
            t, tp = node.conclusion, node.premises[0].conclusion
            for pre, post in ((t.pre, tp.pre), (tp.post, t.post)):
                shared = asrt.cq_entails(pre, post, interp, memo)
                alone = asrt.cq_entails(pre, post, interp)
                assert (shared.status, shared.witness, shared.reason) == \
                    (alone.status, alone.witness, alone.reason), path


# ---------------------------------------------------------------------------
# Syntactic matches tell literal types apart


def _and_true_ket(lit):
    """[|lit and true>_q1]"""
    value = cl.BinOp("and", lit, cl.TRUE)
    return StateProj(asrt.Ket(value, QVar("q1")))


def test_skip_rejects_a_postcondition_differing_in_literal_type(corpus):
    interp, _, _ = corpus
    good = CqAssertion(cl.TRUE, _and_true_ket(cl.TRUE))
    for lit in (cl.Lit(1), cl.Lit(1.0)):
        bad = CqAssertion(cl.TRUE, _and_true_ket(lit))
        node = pv.ProofNode("Skip", pv.HoareTriple(good, qs.Skip(), bad))
        report = check(node, interp)
        assert report.status == "rejected", report.to_json()
    same = pv.ProofNode("Skip", pv.HoareTriple(good, qs.Skip(), good))
    assert check(same, interp).accepted


def test_formula_and_predicate_equality_tell_literal_types_apart():
    one, real, true = cl.Lit(1), cl.Lit(1.0), cl.TRUE
    assert not cl.formula_equal(one, true)
    assert not cl.formula_equal(one, real)
    assert not cl.formula_equal(cl.BinOp("=", cl.Var("x"), one),
                                cl.BinOp("=", cl.Var("x"), real))
    assert cl.formula_equal(cl.BinOp("=", cl.Var("x"), one),
                            cl.BinOp("=", cl.Var("x"), cl.Lit(1)))
    assert not asrt.pred_equal(_and_true_ket(one), _and_true_ket(true))
    assert asrt.pred_equal(_and_true_ket(one), _and_true_ket(cl.Lit(1)))
    sub = Atomic("P0", (), (QVar("q", (one,)),))
    assert not asrt.pred_equal(sub, Atomic("P0", (), (QVar("q", (true,)),)))


@pytest.mark.parametrize("rule", ["Accum1", "Accum2"])
def test_accum_symbol_parameters_tell_literal_types_apart(corpus, rule):
    interp, _, _ = corpus
    s0 = hz._skip_node(cl.TRUE, hz._proj_ket(cl.Lit(0), "q1"))
    q1 = QVar("q1")

    def accum(pre_param, post_param):
        return pv.ProofNode(rule, pv.HoareTriple(
            CqAssertion(cl.TRUE, Kraus("F_M", (pre_param,), (q1,),
                                       (s0.conclusion.pre.a,))),
            qs.Skip(),
            CqAssertion(cl.TRUE, Kraus("F_M", (post_param,), (q1,),
                                       (s0.conclusion.post.a,)))), (s0,))

    assert check(accum(cl.Lit(0), cl.Lit(0)), interp).accepted
    for pre_param, post_param in ((cl.Lit(0), cl.FALSE), (cl.Lit(1), cl.Lit(1.0))):
        report = check(accum(pre_param, post_param), interp)
        assert report.status == "rejected", report.to_json()


# ---------------------------------------------------------------------------
# Programs match up to the normal form formulas use


def _id1_assertion():
    return CqAssertion(cl.TRUE, Atomic("ID1", (), (QVar("q1"),)))


def test_seq_rejects_a_premise_program_differing_in_literal_type(corpus):
    interp, _, _ = corpus
    a = _id1_assertion()
    ass = pv.ProofNode("Ass", pv.HoareTriple(a, qs.Assign("x", cl.Lit(0)), a))
    skip = pv.ProofNode("Skip", pv.HoareTriple(a, qs.Skip(), a))

    def seq(value):
        prog = qs.Seq(qs.Assign("x", cl.Lit(value)), qs.Skip())
        return pv.ProofNode("Seq", pv.HoareTriple(a, prog, a), (ass, skip))

    assert check(seq(0), interp).accepted
    v = pv.check_node(seq(False), interp)
    assert (v.status, v.reason) == (
        "rejected", "premise programs do not match the sequence")


def test_conseq_rejects_a_premise_program_differing_in_literal_type(corpus):
    interp, _, _ = corpus
    a = _id1_assertion()
    ass = pv.ProofNode("Ass", pv.HoareTriple(a, qs.Assign("x", cl.Lit(0)), a))

    def conseq(value):
        return pv.ProofNode("Conseq", pv.HoareTriple(
            a, qs.Assign("x", cl.Lit(value)), a), (ass,))

    assert pv.check_node(conseq(0), interp).accepted
    v = pv.check_node(conseq(False), interp)
    assert (v.status, v.reason) == ("rejected", "premise program differs")


def test_conseq_over_long_programs_gets_a_verdict(corpus):
    interp, _, _ = corpus
    a = _id1_assertion()

    def conseq(last):
        premise = pv.ProofNode("Skip", pv.HoareTriple(
            a, qs.seq_all([qs.Skip()] * 2000), a))
        prog = qs.seq_all([qs.Skip()] * 1999 + [last])
        return pv.ProofNode("Conseq", pv.HoareTriple(a, prog, a), (premise,))

    assert pv.check_node(conseq(qs.Skip()), interp).accepted
    v = pv.check_node(conseq(qs.Assign("x", cl.Lit(0))), interp)
    assert (v.status, v.reason) == ("rejected", "premise program differs")


def test_proportional_scalar_bound_reads_the_psd_tolerance():
    interp = st.default_interpretation()
    over = st.KrausSymbol("SOVER", 1, (), None, lambda: [0.5 * (1 + 1e-6)])
    half = st.KrausSymbol("SHALF", 1, (), None, lambda: [0.5])
    assert pv.check_proportional(over, half, (), interp).status == "fails"
    interp.tolerances = la.Tolerances(psd=1e-5)
    assert pv.check_proportional(over, half, (), interp).holds


def test_check_script_leaves_the_user_symbols_unchanged(corpus):
    interp, accepted, mutants = corpus
    interp.declare_quantum("t", 3)
    t = QVar("t")
    a = StateProj(asrt.Ket(cl.Lit(0), t))
    init = pv.ProofNode("Init", pv.HoareTriple(
        CqAssertion(cl.TRUE, Kraus("FB3", (), (t,), (a,) * 3)), qs.Init(t),
        CqAssertion(cl.TRUE, a)))
    before = dict(interp.kraus)
    assert pv.check_script(init, interp).accepted
    for root in list(accepted.values()) + list(mutants.values()):
        pv.check_script(root, interp)
    assert interp.kraus == before


def test_one_enumeration_per_name_set_and_phi_in_a_script(monkeypatch):
    """The entailments of a script list the states that satisfy phi over a
    set of names once, not once per entailment."""
    interp = qft.qft_interpretation(4)
    _, script = qft.generate_qft(4)
    seen = []
    satisfying = asrt._satisfying
    monkeypatch.setattr(asrt, "_satisfying", lambda states, phi: (
        seen.append((frozenset(states[0].names()), repr(phi)))
        or satisfying(states, phi)))
    entailments = []
    entails = asrt.entails
    monkeypatch.setattr(asrt, "entails", lambda *args: (
        entailments.append(args) or entails(*args)))
    assert pv.check_script(script, interp).accepted
    assert len(seen) == len(set(seen)) < len(entailments)
