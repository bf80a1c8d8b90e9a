"""Byte-identity of check and fuzz reports against a committed fixture.

`golden.json` holds `check_script(...).to_json()` for the QFT scripts and
their perturbed forms at n = 1..6 and for every corpus script and mutant,
and `fuzz_triple(...).to_json()` for every corpus conclusion and for the
QFT conclusions, accepted and perturbed, at n = 1..3, at a fixed seed.
A change that alters any verdict, reason, record or float shows up here
as a differing report.

`golden_rules.json` holds `check_node`'s status, reason and side conditions
for single-edit mutants of every node of the corpus scripts (the rule
renamed, an assertion part, the program, the mode, the premises or a
witness changed), plus targeted mutants that reach every reject reason of
the loop, accumulation and convexity rules.  A change to the rule checker
that alters which check fails first, or how, shows up here.

Regenerate both fixtures only when a change of output is intended, with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from cqhoare import classical as cl
from cqhoare import harness as hz
from cqhoare import prover as pv
from cqhoare import qft
from cqhoare import qsyntax as qs
from cqhoare.assertions import Atomic, CqAssertion, Kraus

FIXTURE = Path(__file__).with_name("golden.json")
RULES_FIXTURE = Path(__file__).with_name("golden_rules.json")
FUZZ_CONFIG = dict(samples=6, seed=11)
QFT_NS = (1, 2, 3, 4, 5, 6)
QFT_FUZZ_NS = (1, 2, 3)


def _dump(doc):
    return json.dumps(doc, sort_keys=True)


def golden_reports():
    """Report JSON by name, in a fixed order."""
    out = {}
    for n in QFT_NS:
        interp = qft.qft_interpretation(n)
        out["check qft n=%d" % n] = pv.check_script(
            qft.generate_qft(n)[1], interp).to_json()
        out["check qft-perturbed n=%d" % n] = pv.check_script(
            qft.perturbed_qft_script(n)[1], interp).to_json()
    interp, accepted, mutants = hz.build_corpus()
    scripts = sorted(accepted.items()) + sorted(mutants.items())
    for name, root in scripts:
        out["check corpus %s" % name] = pv.check_script(root, interp).to_json()
    for name, root in scripts:
        cfg = hz.RunConfig(**FUZZ_CONFIG)
        out["fuzz corpus %s" % name] = hz.fuzz_triple(
            root.conclusion, interp, cfg).to_json()
    for n in QFT_FUZZ_NS:
        interp = qft.qft_interpretation(n)
        for which, script in (("qft", qft.generate_qft(n)[1]),
                              ("qft-perturbed", qft.perturbed_qft_script(n)[1])):
            cfg = hz.RunConfig(**FUZZ_CONFIG)
            out["fuzz %s n=%d" % (which, n)] = hz.fuzz_triple(
                script.conclusion, interp, cfg).to_json()
    return out


@pytest.fixture(scope="module")
def reports():
    return golden_reports()


# empty while the fixture is being written; the coverage test then fails
GOLDEN = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}


def test_fixture_covers_the_same_reports(reports):
    assert sorted(reports) == sorted(GOLDEN)


@pytest.mark.parametrize("name", list(GOLDEN))
def test_report_is_byte_identical(reports, name):
    assert _dump(reports[name]) == _dump(GOLDEN[name])


# ---------------------------------------------------------------------------
# Rule mutants

Q1 = qs.QVar("q1")
P1 = Atomic("P1", (), (Q1,))
X_GATE = qs.Gate("X", (), (Q1,))


def _set(node, **triple_fields):
    return replace(node, conclusion=cl.replace(node.conclusion, **triple_fields))


def _set_assertion(node, side, **fields):
    t = node.conclusion
    return _set(node, **{side: cl.replace(getattr(t, side), **fields)})


def _premise(pre, program, post, mode="partial"):
    """A premise whose conclusion is the given triple; `check_node` reads
    only the conclusions of a node's premises."""
    return pv.ProofNode("Skip", pv.HoareTriple(pre, program, post, mode))


def single_edits(node):
    """(label, mutant) for every single edit of one node."""
    t = node.conclusion
    for rule in pv.RULES:
        if rule != node.rule:
            yield "rule=%s" % rule, replace(node, rule=rule)
    for side in ("pre", "post"):
        yield "%s.phi=false" % side, _set_assertion(node, side, phi=cl.FALSE)
        yield "%s.a=P1[q1]" % side, _set_assertion(node, side, a=P1)
    yield "program=X[q1]", _set(node, program=X_GATE)
    yield "mode flipped", _set(
        node, mode="total" if t.mode == "partial" else "partial")
    if node.premises:
        yield "last premise dropped", replace(node, premises=node.premises[:-1])
    if len(node.premises) > 1:
        yield "premises reversed", replace(node, premises=node.premises[::-1])
    extra = _premise(CqAssertion(cl.TRUE, P1), qs.Skip(),
                     CqAssertion(cl.TRUE, P1), t.mode)
    yield "extra premise", replace(node, premises=node.premises + (extra,))
    for w in sorted(node.witnesses):
        yield "witness %s removed" % w, replace(
            node, witnesses={k: v for k, v in node.witnesses.items() if k != w})


def _targeted(accepted):
    """(label, mutant) built to reach the reject reasons of LoopPar,
    LoopTot, Accum1, Accum2, Convex1 and Convex2 that no single edit
    reaches."""
    x, w = cl.Var("x"), cl.Var("w")
    x0, x1 = cl.BinOp("=", x, cl.Lit(0)), cl.BinOp("=", x, cl.Lit(1))
    p0 = Atomic("P0", (), (Q1,))

    loop = accepted["loop"]
    guard = loop.conclusion.program.cond
    skip_loop = qs.While(guard, qs.Skip())
    yield "LoopPar body differs", _set(loop, program=skip_loop)
    yield "LoopPar all modes total", replace(
        _set(loop, mode="total"),
        premises=tuple(_set(p, mode="total") for p in loop.premises))

    tot = accepted["loop_total"]
    yield "LoopTot body differs", _set(tot, program=skip_loop)
    yield "LoopTot all modes partial", replace(
        _set(tot, mode="partial"),
        premises=tuple(_set(p, mode="partial") for p in tot.premises))
    yield "LoopTot variant differs", replace(
        tot, witnesses={"t": cl.Lit(0), "z": "z"})

    def loop_tot(variant, rank):
        c = tot.conclusion
        phi_b = cl.BinOp("and", c.pre.phi, c.program.cond)
        second = _premise(
            CqAssertion(cl.BinOp("and", phi_b,
                                 cl.BinOp("=", variant, cl.Var(rank))),
                        c.pre.a),
            c.program.body,
            CqAssertion(cl.BinOp("<", variant, cl.Var(rank)), c.pre.a),
            "total")
        return replace(tot, premises=(tot.premises[0], second),
                       witnesses={"t": variant, "z": rank})

    yield "LoopTot ranking variable in the program", loop_tot(x, "x")
    yield "LoopTot boolean variant", loop_tot(cl.TRUE, "z")
    yield "LoopTot negative variant", loop_tot(
        cl.BinOp("-", x, cl.Lit(2)), "z")
    yield "LoopTot variant over an undeclared variable", loop_tot(w, "z")

    def kraus(name, branches, params=(), targets=()):
        return Kraus(name, params, targets, tuple(branches))

    def accum(rule, pre_k, post_k, posts, program=qs.Skip(), post_phi=None,
              witnesses=None):
        """A node of `rule` whose premises are {true, branch_i} program
        {psi_i, B_i} for the pre symbol's branches and `posts` (psi_i, B_i)."""
        premises = tuple(_premise(CqAssertion(cl.TRUE, b), program,
                                  CqAssertion(psi, a))
                         for b, (psi, a) in zip(pre_k.branches, posts))
        if post_phi is None:
            post_phi = posts[0][0]
            for psi, _ in posts[1:]:
                post_phi = cl.BinOp("or", post_phi, psi)
        return pv.ProofNode(rule, pv.HoareTriple(
            CqAssertion(cl.TRUE, pre_k), program,
            CqAssertion(post_phi, post_k)), premises, witnesses or {})

    scaled = accepted["accumulate_scaled"]
    s_pre, s_post = scaled.conclusion.pre.a, scaled.conclusion.post.a
    yield "Accum1 pre branch differs", _set_assertion(
        scaled, "pre", a=cl.replace(s_pre, branches=(P1,)))
    yield "Accum1 post symbol of rank 2", _set_assertion(
        scaled, "post", a=cl.replace(s_post, name="FB2"))
    yield "Accum1 post parameters differ", _set_assertion(
        scaled, "post", a=cl.replace(s_post, params=(cl.Lit(1),)))
    yield "Accum1 post targets differ", _set_assertion(
        scaled, "post", a=cl.replace(s_post, targets=(Q1,)))
    yield "Accum1 symbols swapped", _set_assertion(
        _set_assertion(scaled, "pre", a=cl.replace(s_pre, name="SCALEB")),
        "post", a=cl.replace(s_post, name="SCALEA"))
    yield "Accum1 post symbol with dimensions", _set_assertion(
        scaled, "post", a=cl.replace(s_post, name="F_H"))
    yield "Accum1 disjunct over an undeclared variable", accum(
        "Accum1", kraus("SCALEA", [p0]), kraus("SCALEB", [P1]),
        [(cl.BinOp("=", w, cl.Lit(0)), P1)])
    yield "Accum1 non-constant parameters", accum(
        "Accum1", kraus("WSUM1", [p0], params=(x,)),
        kraus("WSUM1", [P1], params=(x,)), [(x0, P1)])
    yield "Accum1 program touches the targets", accum(
        "Accum1", kraus("F_H", [p0], targets=(Q1,)),
        kraus("F_H", [P1], targets=(Q1,)), [(x0, P1)], program=X_GATE)
    fb2 = kraus("FB2", [p0, P1], targets=(Q1,))
    yield "Accum1 premise posts differ", accum(
        "Accum1", fb2, kraus("F_H", [P1], targets=(Q1,)),
        [(x0, P1), (x1, p0)])
    yield "Accum1 post branch is not the shared predicate", accum(
        "Accum1", fb2, kraus("F_H", [p0], targets=(Q1,)),
        [(x0, P1), (x1, P1)])
    yield "Accum1 disjuncts overlap", accum(
        "Accum1", fb2, kraus("F_H", [P1], targets=(Q1,)),
        [(cl.TRUE, P1), (cl.TRUE, P1)])
    yield "Accum1 dominance fails", accum(
        "Accum1", fb2, kraus("F_H", [P1], targets=(Q1,)),
        [(x0, P1), (x1, P1)])

    branches = accepted["accumulate_branches"]
    b_pre, b_post = branches.conclusion.pre.a, branches.conclusion.post.a
    yield "Accum2 pre branch differs", _set_assertion(
        branches, "pre", a=cl.replace(b_pre, branches=b_pre.branches[:1] + (P1,)))
    yield "Accum2 post targets differ", _set_assertion(
        branches, "post", a=cl.replace(b_post, targets=(qs.QVar("q2"),)))
    yield "Accum2 post parameters differ", _set_assertion(
        branches, "post", a=cl.replace(b_post, params=(cl.Lit(1),)))
    yield "Accum2 post branches swapped", _set_assertion(
        branches, "post", a=cl.replace(b_post, branches=b_post.branches[::-1]))
    yield "Accum2 premise posts differ", accum(
        "Accum2", fb2, kraus("FB2", [p0, P1], targets=(Q1,)),
        [(cl.TRUE, p0), (x0, P1)], post_phi=cl.TRUE)
    yield "Accum2 program touches the targets", accum(
        "Accum2", fb2, kraus("FB2", [p0, P1], targets=(Q1,)),
        [(cl.TRUE, p0), (cl.TRUE, P1)], program=X_GATE, post_phi=cl.TRUE)

    cmax = accepted["convex_max"]
    m_pre, m_post = cmax.conclusion.pre.a, cmax.conclusion.post.a
    yield "Convex1 pre symbol is not a weighted sum", _set_assertion(
        cmax, "pre", a=cl.replace(m_pre, name="SCALEA", params=()))
    yield "Convex1 pre branch differs", _set_assertion(
        cmax, "pre", a=cl.replace(m_pre, branches=(P1,)))
    yield "Convex1 weights differ", replace(cmax, witnesses={"weights": [0.4]})
    yield "Convex1 post weight is not the maximum", _set_assertion(
        cmax, "post", a=cl.replace(m_post, params=(cl.Lit(0.4),)))
    half = (cl.Lit(0.5), cl.Lit(0.5))
    wsum2 = kraus("WSUM2", [p0, P1], params=half)
    wmax = kraus("WSUM1", [P1], params=half[:1])
    halves = {"weights": [0.5, 0.5]}
    yield "Convex1 weights sum above one", accum(
        "Convex1", kraus("WSUM2", [p0, P1], params=(cl.Lit(0.7), cl.Lit(0.6))),
        kraus("WSUM1", [P1], params=(cl.Lit(0.7),)), [(x0, P1), (x1, P1)],
        witnesses={"weights": [0.7, 0.6]})
    yield "Convex1 premise posts differ", accum(
        "Convex1", wsum2, wmax, [(x0, P1), (x1, p0)], witnesses=halves)
    yield "Convex1 post branch is not the shared predicate", accum(
        "Convex1", wsum2, kraus("WSUM1", [p0], params=half[:1]),
        [(x0, P1), (x1, P1)], witnesses=halves)
    yield "Convex1 disjuncts overlap", accum(
        "Convex1", wsum2, wmax, [(cl.TRUE, P1), (cl.TRUE, P1)],
        witnesses=halves)
    yield "Convex1 disjunct over an undeclared variable", accum(
        "Convex1", wsum2, wmax, [(x0, P1), (cl.BinOp("=", w, cl.Lit(0)), P1)],
        witnesses=halves)

    cmix = accepted["convex_mix"]
    x_pre, x_post = cmix.conclusion.pre.a, cmix.conclusion.post.a
    yield "Convex2 pre symbol is not a weighted sum", _set_assertion(
        cmix, "pre", a=cl.replace(x_pre, name="FB2", params=(), targets=(Q1,)))
    yield "Convex2 weights differ", replace(
        cmix, witnesses={"weights": [0.4, 0.3]})
    yield "Convex2 post weights differ", _set_assertion(
        cmix, "post", a=cl.replace(x_post, params=x_post.params[::-1]))
    yield "Convex2 post branches swapped", _set_assertion(
        cmix, "post", a=cl.replace(x_post, branches=x_post.branches[::-1]))
    yield "Convex2 premise posts differ", accum(
        "Convex2", wsum2, kraus("WSUM2", [p0, P1], params=half),
        [(cl.TRUE, p0), (x0, P1)], post_phi=cl.TRUE, witnesses=halves)


def rule_mutants():
    """(interp, {label: mutant node}) over the corpus, in a fixed order."""
    interp, accepted, mutants = hz.build_corpus()
    out = {}
    for name, root in sorted(accepted.items()) + sorted(mutants.items()):
        for path, node in pv._post_order(root):
            for label, mutant in single_edits(node):
                out["%s %s: %s" % (name, path, label)] = mutant
    for label, mutant in _targeted(accepted):
        out["targeted %s" % label] = mutant
    return interp, out


def rule_verdicts():
    interp, mutants = rule_mutants()
    out = {}
    for label, node in mutants.items():
        v = pv.check_node(node, interp)
        out[label] = {"rule": node.rule, "status": v.status,
                      "reason": v.reason,
                      "side_conditions": [list(c) for c in v.side_conditions]}
    return out


RULES_GOLDEN = (json.loads(RULES_FIXTURE.read_text())
                if RULES_FIXTURE.exists() else {})


def test_rule_mutant_verdicts_are_unchanged():
    verdicts = rule_verdicts()
    assert sorted(verdicts) == sorted(RULES_GOLDEN)
    differ = [k for k in verdicts if verdicts[k] != RULES_GOLDEN[k]]
    assert not differ, [(k, verdicts[k], RULES_GOLDEN[k]) for k in differ[:5]]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(golden_reports(), indent=1, sort_keys=True)
                       + "\n")
    RULES_FIXTURE.write_text(json.dumps(rule_verdicts(), indent=1,
                                        sort_keys=True) + "\n")
