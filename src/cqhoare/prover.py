"""Hoare triples, proof scripts, and the rule checker.

The kernel checks one node at a time: a node's verdict depends only on its
conclusion, its premises' conclusions, and its witnesses.  Matching against
rule schemata is syntactic (`qsyntax.same_syntax`: programs, predicates and
assertions compared node by node, their formulas up to and/or flattening,
bound-variable renaming and literal types); semantic gaps must be bridged
with Conseq, whose entailments are discharged by exhaustive enumeration of
declared finite domains.  Side conditions over non-enumerable domains yield
the verdict "inconclusive", never a silent pass.
"""

from dataclasses import dataclass, field

import numpy as np

from . import classical as cl
from . import linalg as la
from . import qsyntax as qs
from . import structures as st
from . import assertions as asrt
from .assertions import CqAssertion, Kraus, Verdict, Domain


@dataclass(frozen=True)
class HoareTriple:
    pre: CqAssertion
    program: object
    post: CqAssertion
    mode: str = "partial"  # "partial" | "total"


@dataclass
class ProofNode:
    rule: str
    conclusion: HoareTriple
    premises: tuple = ()
    witnesses: dict = field(default_factory=dict)


@dataclass
class NodeVerdict:
    status: str  # "accepted" | "rejected" | "inconclusive"
    reason: str = ""
    side_conditions: list = field(default_factory=list)

    @property
    def accepted(self):
        return self.status == "accepted"


@dataclass
class CheckReport:
    nodes: list  # of (path, rule, NodeVerdict)

    @property
    def accepted(self):
        return all(v.accepted for _, _, v in self.nodes)

    @property
    def status(self):
        worst = "accepted"
        for _, _, v in self.nodes:
            if v.status == "rejected":
                return "rejected"
            if v.status == "inconclusive":
                worst = "inconclusive"
        return worst

    def to_json(self):
        return {
            "status": self.status,
            "accepted": self.accepted,
            "nodes": [
                {"path": path, "rule": rule, "status": v.status,
                 "reason": v.reason,
                 "side_conditions": [
                     {"name": n, "status": s, "detail": d}
                     for n, s, d in v.side_conditions]}
                for path, rule, v in self.nodes],
        }


RULES = ("Skip", "Ass", "Init", "Uni", "Meas", "Seq", "Cond", "LoopPar",
         "LoopTot", "Conseq", "Accum1", "Accum2", "Convex1", "Convex2")


def _and(a, b):
    return cl.BinOp("and", a, b)


def _or_all(parts):
    out = parts[0]
    for p in parts[1:]:
        out = cl.BinOp("or", out, p)
    return out


def _reject(reason):
    return NodeVerdict("rejected", reason)


def _domain_for(node, interp):
    """Enumeration domain for a node: the interpretation's typing for every
    classical variable mentioned anywhere in the conclusion and witnesses."""
    names = qs.classical_vars((node.conclusion, node.witnesses.get("t")))
    for w in ("y", "z"):
        if w in node.witnesses:
            names.add(node.witnesses[w])
    domain, _missing = Domain.from_interp(interp, names)
    return domain


def _premise_modes_ok(node):
    return all(p.conclusion.mode == node.conclusion.mode for p in node.premises)


def _split_last_conjunct(phi):
    parts = []
    cl._flatten("and", phi, parts)
    if len(parts) == 1:
        return cl.TRUE, parts[0]
    rest = parts[0]
    for p in parts[1:-1]:
        rest = cl.BinOp("and", rest, p)
    return rest, parts[-1]


# ---------------------------------------------------------------------------
# Proportionality of Kraus symbols


def _ginibre(rng, d, rank=None):
    rank = rank or d
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def check_proportional(f, fp, params_values, interp, samples=50, seed=0):
    """F proportional-to F': each F_i's conjugation action dominated by F'.

    Tier (a): every F_i is a scalar multiple lambda_i F' with |lambda_i| <= 1
    (sufficient).  Otherwise tier (b) randomized refutation; no violation
    found means "inconclusive".
    """
    if fp.rank != 1:
        return Verdict("fails", reason="F' must have rank 1")
    eps = interp.tolerances.psd
    if f.dims is None and fp.dims is None:
        cs = f.operators(params_values, interp.tolerances)
        cp = fp.operators(params_values, interp.tolerances)[0]
        if abs(cp) < cl.FLOAT_EQ:
            ok = all(abs(c) < cl.FLOAT_EQ for c in cs)
            return Verdict("holds" if ok else "fails",
                           reason="scalar comparison")
        bad = [c for c in cs if abs(c / cp) > 1 + eps]
        return Verdict("holds" if not bad else "fails", reason="scalar comparison")
    if f.dims is None or fp.dims is None or f.dim != fp.dim:
        return Verdict("fails", reason="dimension mismatch")
    ops = f.operators(params_values, interp.tolerances)
    w = fp.operators(params_values, interp.tolerances)[0]
    denom = np.vdot(w, w)
    tier_a = abs(denom) > cl.FLOAT_EQ
    lambdas = []
    if tier_a:
        for fi in ops:
            lam = np.vdot(w, fi) / denom
            if np.max(np.abs(fi - lam * w)) > eps or abs(lam) > 1 + eps:
                tier_a = False
                break
            lambdas.append(lam)
    if tier_a:
        return Verdict("holds", reason="scalar multiples, max |lambda| = %.3g"
                       % max((abs(l) for l in lambdas), default=0.0))
    # randomized refutation
    d = f.dim
    rng = np.random.default_rng(seed)
    rhos = [np.outer(la.basis_vector(i, d), la.basis_vector(i, d).conj())
            for i in range(d)]
    for _ in range(samples):
        rhos.append(_ginibre(rng, d))
    wd = w.conj().T
    for rho in rhos:
        bound = wd @ rho @ w
        for fi in ops:
            diff = bound - fi.conj().T @ rho @ fi
            if not la.is_psd(diff, interp.tolerances.psd):
                return Verdict("fails", reason="dominance violated on a sampled state")
    return Verdict("inconclusive",
                   reason="not scalar multiples; no refutation in %d samples" % len(rhos))


# ---------------------------------------------------------------------------
# Per-rule checking


def _check_skip(node, interp, domain, memo):
    t = node.conclusion
    if not isinstance(t.program, qs.Skip):
        return _reject("program is not skip")
    if not qs.same_syntax(t.pre, t.post):
        return _reject("pre and post must be identical")
    return NodeVerdict("accepted")


def _check_ass(node, interp, domain, memo):
    t = node.conclusion
    if not isinstance(t.program, qs.Assign):
        return _reject("program is not an assignment")
    x, e = t.program.var, t.program.expr
    want_phi = cl.subst(t.post.phi, e, x)
    want_a = asrt.subst_predicate(t.post.a, e, x)
    if not cl.formula_equal(t.pre.phi, want_phi):
        return _reject("precondition formula is not post[e/x]")
    if not asrt.pred_equal(t.pre.a, want_a):
        return _reject("quantum precondition is not post[e/x]")
    return NodeVerdict("accepted")


def axiom_pre(program, post_a, dim=None, y=None):
    """The Init, Uni or Meas precondition of `post_a`: the designated symbol
    of `program` (on a target of dimension `dim`, or with outcome variable
    `y`) applied to it."""
    if isinstance(program, qs.Init):
        return Kraus(st.designated_name("init", dim), (), (program.qvar,),
                     (post_a,) * dim)
    if isinstance(program, qs.Gate):
        return Kraus(st.designated_name("family", program.name),
                     program.params, program.targets, (post_a,))
    return Kraus(st.designated_name("family", program.meas), (cl.Var(y),),
                 program.targets,
                 (asrt.subst_predicate(post_a, cl.Var(y), program.var),))


def _check_init(node, interp, domain, memo):
    t = node.conclusion
    if not isinstance(t.program, qs.Init):
        return _reject("program is not an initialization")
    if not cl.formula_equal(t.pre.phi, t.post.phi):
        return _reject("classical parts must match")
    want = axiom_pre(t.program, t.post.a,
                     dim=interp.decl_of(t.program.qvar.name).dim)
    if not asrt.pred_equal(t.pre.a, want):
        return _reject("precondition is not %s applied to the postcondition"
                       % want.name)
    return NodeVerdict("accepted")


def _check_uni(node, interp, domain, memo):
    t = node.conclusion
    if not isinstance(t.program, qs.Gate):
        return _reject("program is not a gate application")
    if not cl.formula_equal(t.pre.phi, t.post.phi):
        return _reject("classical parts must match")
    interp.gate(t.program.name)
    want = axiom_pre(t.program, t.post.a)
    if not asrt.pred_equal(t.pre.a, want):
        return _reject("precondition is not %s applied to the postcondition"
                       % want.name)
    return NodeVerdict("accepted")


def _check_meas(node, interp, domain, memo):
    t = node.conclusion
    if not isinstance(t.program, qs.Measure):
        return _reject("program is not a measurement")
    y = node.witnesses.get("y")
    if not isinstance(y, str):
        return _reject("missing fresh-variable witness y")
    x = t.program.var
    phi, last = _split_last_conjunct(t.post.phi)
    if not cl.formula_equal(last, cl.BinOp("=", cl.Var(x), cl.Var(y))):
        return _reject("postcondition must end with the conjunct %s = %s" % (x, y))
    if y in qs.classical_vars((phi, t.post.a)) | {x}:
        return _reject("witness %s is not fresh" % y)
    if not cl.formula_equal(t.pre.phi, cl.subst(phi, cl.Var(y), x)):
        return _reject("precondition formula is not phi[y/x]")
    interp.measurement(t.program.meas)
    want = axiom_pre(t.program, t.post.a, y=y)
    if not asrt.pred_equal(t.pre.a, want):
        return _reject("quantum precondition is not %s(y) applied to A[y/x]"
                       % want.name)
    return NodeVerdict("accepted")


def _check_seq(node, interp, domain, memo):
    t = node.conclusion
    if not isinstance(t.program, qs.Seq):
        return _reject("program is not a sequence")
    if len(node.premises) != 2:
        return _reject("sequence rule takes two premises")
    t1, t2 = node.premises[0].conclusion, node.premises[1].conclusion
    if not qs.same_syntax((t1.program, t2.program),
                          (t.program.first, t.program.second)):
        return _reject("premise programs do not match the sequence")
    if not qs.same_syntax((t1.pre, t2.post), (t.pre, t.post)):
        return _reject("endpoint assertions do not match")
    if not qs.same_syntax(t1.post, t2.pre):
        return _reject("intermediate assertions do not match")
    return NodeVerdict("accepted")


def _check_cond(node, interp, domain, memo):
    t = node.conclusion
    if not isinstance(t.program, qs.If):
        return _reject("program is not a conditional")
    if len(node.premises) != 2:
        return _reject("conditional rule takes two premises")
    t1, t0 = node.premises[0].conclusion, node.premises[1].conclusion
    if not qs.same_syntax((t1.program, t0.program),
                          (t.program.then, t.program.orelse)):
        return _reject("premise programs do not match the branches")
    phi, b = t.pre.phi, t.program.cond
    if not cl.formula_equal(t1.pre.phi, _and(phi, b)):
        return _reject("then-premise precondition is not phi and b")
    if not cl.formula_equal(t0.pre.phi, _and(phi, cl.neg(b))):
        return _reject("else-premise precondition is not phi and not b")
    for tb in (t1, t0):
        if not asrt.pred_equal(tb.pre.a, t.pre.a):
            return _reject("premise quantum preconditions must match")
        if not qs.same_syntax(tb.post, t.post):
            return _reject("premise postconditions must match")
    return NodeVerdict("accepted")


def _check_loop_par(node, interp, domain, memo):
    t = node.conclusion
    if not isinstance(t.program, qs.While):
        return _reject("program is not a loop")
    if len(node.premises) != 1:
        return _reject("loop rule takes one premise")
    tb = node.premises[0].conclusion
    phi, b = t.pre.phi, t.program.cond
    if not qs.same_syntax(tb.program, t.program.body):
        return _reject("premise program is not the loop body")
    ok = (cl.formula_equal(tb.pre.phi, _and(phi, b))
          and asrt.pred_equal(tb.pre.a, t.pre.a)
          and cl.formula_equal(tb.post.phi, phi)
          and asrt.pred_equal(tb.post.a, t.pre.a))
    if not ok:
        return _reject("premise is not {phi and b, A} P {phi, A}")
    if not cl.formula_equal(t.post.phi, _and(phi, cl.neg(b))):
        return _reject("postcondition formula is not phi and not b")
    if not asrt.pred_equal(t.post.a, t.pre.a):
        return _reject("invariant predicate must be preserved")
    return NodeVerdict("accepted")


def _check_loop_tot(node, interp, domain, memo):
    t = node.conclusion
    if not isinstance(t.program, qs.While):
        return _reject("program is not a loop")
    if len(node.premises) != 2:
        return _reject("total loop rule takes two premises")
    tv = node.witnesses.get("t")
    z = node.witnesses.get("z")
    if tv is None or not isinstance(z, str):
        return _reject("missing variant witness t or ranking variable z")
    phi, b = t.pre.phi, t.program.cond
    t1, t2 = node.premises[0].conclusion, node.premises[1].conclusion
    if not qs.same_syntax((t1.program, t2.program), (t.program.body,) * 2):
        return _reject("premise programs must be the loop body")
    ok1 = (cl.formula_equal(t1.pre.phi, _and(phi, b))
           and asrt.pred_equal(t1.pre.a, t.pre.a)
           and cl.formula_equal(t1.post.phi, phi)
           and asrt.pred_equal(t1.post.a, t.pre.a))
    if not ok1:
        return _reject("first premise is not {phi and b, A} P {phi, A}")
    ok2 = (cl.formula_equal(
        t2.pre.phi, _and(_and(phi, b), cl.BinOp("=", tv, cl.Var(z))))
        and asrt.pred_equal(t2.pre.a, t.pre.a)
        and cl.formula_equal(t2.post.phi, cl.BinOp("<", tv, cl.Var(z)))
        and asrt.pred_equal(t2.post.a, t.pre.a))
    if not ok2:
        return _reject("second premise is not {phi and b and t=z, A} P {t<z, A}")
    if not cl.formula_equal(t.post.phi, _and(phi, cl.neg(b))):
        return _reject("postcondition formula is not phi and not b")
    if not asrt.pred_equal(t.post.a, t.pre.a):
        return _reject("invariant predicate must be preserved")
    side = []
    if z in qs.classical_vars((phi, tv, t.program)):
        return _reject("ranking variable %s is not fresh" % z)
    side.append(("freshness", "holds", "z fresh"))
    # phi -> t >= 0, and t integer-valued, by enumeration
    states = domain.enumerate(cl.free_vars(phi) | cl.free_vars(tv))
    if isinstance(states, Verdict):
        return NodeVerdict("inconclusive", states.reason, side)
    for sigma in states:
        if not cl.satisfies(sigma, phi):
            continue
        v = cl.eval_expr(sigma, tv)
        if isinstance(v, bool) or not isinstance(v, int):
            return _reject("variant expression is not integer-valued")
        if v < 0:
            return _reject("phi does not imply t >= 0 (witness %r)" % (sigma,))
    side.append(("variant-nonnegative", "holds", "enumerated"))
    return NodeVerdict("accepted", side_conditions=side)


def _check_conseq(node, interp, domain, memo):
    t = node.conclusion
    if len(node.premises) != 1:
        return _reject("consequence rule takes one premise")
    tp = node.premises[0].conclusion
    if not qs.same_syntax(tp.program, t.program):
        return _reject("premise program differs")
    side = []
    v1 = asrt.cq_entails(t.pre, tp.pre, domain, interp, memo)
    side.append(("pre-entailment", v1.status, v1.reason))
    v2 = asrt.cq_entails(tp.post, t.post, domain, interp, memo)
    side.append(("post-entailment", v2.status, v2.reason))
    for v in (v1, v2):
        if v.status == "fails":
            return NodeVerdict("rejected", v.reason or "entailment fails", side)
    if any(v.status == "inconclusive" for v in (v1, v2)):
        return NodeVerdict("inconclusive", "entailment inconclusive", side)
    return NodeVerdict("accepted", side_conditions=side)


def _targets_disjoint(targets, program):
    """Conservative check that no target system can be touched by the
    program."""
    qv = qs.quantum_vars(program)
    for q in targets:
        if q.name not in qv:
            continue
        used = qv[q.name]
        if used is None:
            return False
        entry = qs._qvar_entry(q)
        if entry[1] is None or entry[1] in used:
            return False
    return True


def _mutual_exclusion(psis, domain):
    states = domain.enumerate(qs.classical_vars(psis))
    if isinstance(states, Verdict):
        return states
    for sigma in states:
        hits = [i for i, p in enumerate(psis) if cl.satisfies(sigma, p)]
        if len(hits) > 1:
            return Verdict("fails", witness=sigma,
                           reason="postconditions %d and %d overlap" % (hits[0], hits[1]))
    return Verdict("holds")


def _accum_common(node, interp):
    """Shared structure for the accumulation/convexity family: conclusion
    pre must be a Kraus application whose branches match the premises."""
    t = node.conclusion
    if not isinstance(t.pre.a, Kraus):
        return None, _reject("conclusion precondition is not a Kraus application")
    k = len(node.premises)
    if k == 0:
        return None, _reject("at least one premise required")
    sym = interp.kraus_symbol(t.pre.a.name)
    if sym.rank != k or len(t.pre.a.branches) != k:
        return None, _reject("symbol rank must equal the premise count")
    for p in node.premises:
        if not qs.same_syntax(p.conclusion.program, t.program):
            return None, _reject("premise programs must match the conclusion")
        if not cl.formula_equal(p.conclusion.pre.phi, t.pre.phi):
            return None, _reject("premise preconditions must share one formula")
    for i, p in enumerate(node.premises):
        if not asrt.pred_equal(t.pre.a.branches[i], p.conclusion.pre.a):
            return None, _reject("branch %d does not match premise %d" % (i, i))
    return sym, None


def _eval_const_params(params):
    empty = cl.ClassicalState()
    out = []
    for e in params:
        out.append(cl.eval_expr(empty, e))
    return tuple(out)


def _check_accum1(node, interp, domain, memo):
    t = node.conclusion
    sym, err = _accum_common(node, interp)
    if err:
        return err
    if not isinstance(t.post.a, Kraus):
        return _reject("conclusion postcondition is not a Kraus application")
    fp = interp.kraus_symbol(t.post.a.name)
    if fp.rank != 1 or len(t.post.a.branches) != 1:
        return _reject("postcondition symbol must have rank 1")
    if not qs.same_syntax(t.post.a.params, t.pre.a.params):
        return _reject("pre and post symbol parameters must match")
    if not qs.same_syntax(t.post.a.targets, t.pre.a.targets):
        return _reject("pre and post symbol targets must match")
    b = node.premises[0].conclusion.post.a
    for p in node.premises[1:]:
        if not asrt.pred_equal(p.conclusion.post.a, b):
            return _reject("premise postcondition predicates must coincide")
    if not asrt.pred_equal(t.post.a.branches[0], b):
        return _reject("conclusion post branch must be the shared predicate")
    psis = [p.conclusion.post.phi for p in node.premises]
    if not cl.formula_equal(t.post.phi, _or_all(psis)):
        return _reject("conclusion postcondition formula must be the disjunction")
    side = []
    mex = _mutual_exclusion(psis, domain)
    side.append(("mutual-exclusion", mex.status, mex.reason))
    if mex.status == "fails":
        return NodeVerdict("rejected", mex.reason, side)
    if not _targets_disjoint(t.pre.a.targets, t.program):
        side.append(("targets-disjoint", "fails", ""))
        return NodeVerdict("rejected",
                           "symbol targets may be touched by the program", side)
    side.append(("targets-disjoint", "holds", "conservative"))
    try:
        vals = _eval_const_params(t.pre.a.params)
    except cl.EvalError:
        return NodeVerdict("inconclusive",
                           "non-constant symbol parameters", side)
    prop = check_proportional(sym, fp, vals, interp,
                              samples=node.witnesses.get("samples", 50),
                              seed=node.witnesses.get("seed", 0))
    side.append(("proportionality", prop.status, prop.reason))
    if prop.status == "fails":
        return NodeVerdict("rejected", prop.reason, side)
    if prop.status == "inconclusive":
        return NodeVerdict("inconclusive", prop.reason, side)
    if mex.status == "inconclusive":
        return NodeVerdict("inconclusive", mex.reason, side)
    return NodeVerdict("accepted", side_conditions=side)


def _check_accum2(node, interp, domain, memo):
    t = node.conclusion
    sym, err = _accum_common(node, interp)
    if err:
        return err
    if not isinstance(t.post.a, Kraus) or t.post.a.name != t.pre.a.name:
        return _reject("conclusion must apply the same symbol on both sides")
    if not qs.same_syntax(t.post.a.targets, t.pre.a.targets) or \
            len(t.post.a.branches) != sym.rank:
        return _reject("postcondition symbol application malformed")
    if not qs.same_syntax(t.post.a.params, t.pre.a.params):
        return _reject("pre and post symbol parameters must match")
    psi = node.premises[0].conclusion.post.phi
    for p in node.premises[1:]:
        if not cl.formula_equal(p.conclusion.post.phi, psi):
            return _reject("premise postcondition formulas must coincide")
    if not cl.formula_equal(t.post.phi, psi):
        return _reject("conclusion postcondition formula must be the shared one")
    for i, p in enumerate(node.premises):
        if not asrt.pred_equal(t.post.a.branches[i], p.conclusion.post.a):
            return _reject("post branch %d does not match premise %d" % (i, i))
    side = []
    if not _targets_disjoint(t.pre.a.targets, t.program):
        side.append(("targets-disjoint", "fails", ""))
        return NodeVerdict("rejected",
                           "symbol targets may be touched by the program", side)
    side.append(("targets-disjoint", "holds", "conservative"))
    return NodeVerdict("accepted", side_conditions=side)


def _weights_of(node, k, interp):
    ws = node.witnesses.get("weights")
    if ws is None or len(ws) != k:
        return None
    ws = [float(w) for w in ws]
    if any(w < -cl.FLOAT_EQ for w in ws) or sum(ws) > 1 + interp.tolerances.trace:
        return None
    return ws


def _params_close(params, values):
    try:
        got = _eval_const_params(params)
    except cl.EvalError:
        return False
    if len(got) != len(values):
        return False
    return all(abs(float(a) - float(b)) <= cl.FLOAT_EQ for a, b in zip(got, values))


def _check_convex1(node, interp, domain, memo):
    t = node.conclusion
    k = len(node.premises)
    sym, err = _accum_common(node, interp)
    if err:
        return err
    if sym.dims is not None or sym.name != st.designated_name("wsum", k):
        return _reject("conclusion must use the scalar weighted-sum symbol")
    ws = _weights_of(node, k, interp)
    if ws is None:
        return _reject("invalid or missing probability weights")
    if not _params_close(t.pre.a.params, ws):
        return _reject("symbol parameters do not match the weights")
    if not isinstance(t.post.a, Kraus) or t.post.a.name != st.designated_name("wsum", 1):
        return _reject("postcondition must scale by the maximal weight")
    if not _params_close(t.post.a.params, [max(ws)]):
        return _reject("postcondition weight is not the maximum")
    b = node.premises[0].conclusion.post.a
    for p in node.premises[1:]:
        if not asrt.pred_equal(p.conclusion.post.a, b):
            return _reject("premise postcondition predicates must coincide")
    if not asrt.pred_equal(t.post.a.branches[0], b):
        return _reject("conclusion post branch must be the shared predicate")
    psis = [p.conclusion.post.phi for p in node.premises]
    if not cl.formula_equal(t.post.phi, _or_all(psis)):
        return _reject("conclusion postcondition formula must be the disjunction")
    side = []
    mex = _mutual_exclusion(psis, domain)
    side.append(("mutual-exclusion", mex.status, mex.reason))
    if mex.status == "fails":
        return NodeVerdict("rejected", mex.reason, side)
    if mex.status == "inconclusive":
        return NodeVerdict("inconclusive", mex.reason, side)
    return NodeVerdict("accepted", side_conditions=side)


def _check_convex2(node, interp, domain, memo):
    t = node.conclusion
    k = len(node.premises)
    sym, err = _accum_common(node, interp)
    if err:
        return err
    if sym.dims is not None or sym.name != st.designated_name("wsum", k):
        return _reject("conclusion must use the scalar weighted-sum symbol")
    ws = _weights_of(node, k, interp)
    if ws is None:
        return _reject("invalid or missing probability weights")
    if not _params_close(t.pre.a.params, ws):
        return _reject("symbol parameters do not match the weights")
    if not isinstance(t.post.a, Kraus) or t.post.a.name != t.pre.a.name:
        return _reject("conclusion must apply the same weights on both sides")
    if not _params_close(t.post.a.params, ws):
        return _reject("postcondition weights differ")
    psi = node.premises[0].conclusion.post.phi
    for p in node.premises[1:]:
        if not cl.formula_equal(p.conclusion.post.phi, psi):
            return _reject("premise postcondition formulas must coincide")
    if not cl.formula_equal(t.post.phi, psi):
        return _reject("conclusion postcondition formula must be the shared one")
    for i, p in enumerate(node.premises):
        if not asrt.pred_equal(t.post.a.branches[i], p.conclusion.post.a):
            return _reject("post branch %d does not match premise %d" % (i, i))
    return NodeVerdict("accepted")


_CHECKERS = {
    "Skip": _check_skip,
    "Ass": _check_ass,
    "Init": _check_init,
    "Uni": _check_uni,
    "Meas": _check_meas,
    "Seq": _check_seq,
    "Cond": _check_cond,
    "LoopPar": _check_loop_par,
    "LoopTot": _check_loop_tot,
    "Conseq": _check_conseq,
    "Accum1": _check_accum1,
    "Accum2": _check_accum2,
    "Convex1": _check_convex1,
    "Convex2": _check_convex2,
}


# the rules whose side conditions enumerate classical states; no other
# checker reads the domain, so none is built for it
_ENUMERATING = ("Conseq", "LoopTot", "Accum1", "Convex1")


def check_node(node, interp, domain=None, memo=None):
    """Verdict for one node given its premises' conclusions.  `memo` is an
    evaluation memo (see `assertions`) shared by the nodes of one script."""
    checker = _CHECKERS.get(node.rule)
    if checker is None:
        return _reject("unknown rule %r" % node.rule)
    if node.rule not in ("Seq", "Cond", "LoopPar", "LoopTot", "Conseq",
                         "Accum1", "Accum2", "Convex1", "Convex2"):
        if node.premises:
            return _reject("axiom %s takes no premises" % node.rule)
    if not _premise_modes_ok(node):
        return _reject("premise modes must match the conclusion")
    if node.rule == "LoopPar" and node.conclusion.mode != "partial":
        return _reject("LoopPar only derives partial-correctness triples")
    if node.rule == "LoopTot" and node.conclusion.mode != "total":
        return _reject("LoopTot only derives total-correctness triples")
    if domain is None and node.rule in _ENUMERATING:
        domain = _domain_for(node, interp)
    try:
        return checker(node, interp, domain, memo)
    except la.DimensionCapError as e:
        return NodeVerdict("inconclusive", "too large to decide: %s" % e)
    except (cl.EvalError, la.LayoutError, ValueError) as e:
        return _reject("error while checking: %s" % e)


def _post_order(node, path=()):
    """(path, node) for every node of a proof tree, premises first."""
    for i, p in enumerate(node.premises):
        yield from _post_order(p, path + (i,))
    yield ".".join(str(i) for i in path) or "root", node


def check_script(root, interp, domain=None):
    """Bottom-up check of a whole proof tree.  Formal states are evaluated
    at most once per classical state across the whole script."""
    memo = {}
    return CheckReport([(path, node.rule, check_node(node, interp, domain, memo))
                        for path, node in _post_order(root)])


# ---------------------------------------------------------------------------
# JSON serialization


def triple_to_json(t):
    return {
        "pre": asrt.assertion_to_json(t.pre),
        "program": qs.pretty(t.program),
        "post": asrt.assertion_to_json(t.post),
        "mode": t.mode,
    }


def triple_from_json(d, measurements=None, parsed=None):
    """`parsed` is a `qs.parse_once` cache shared by one document."""
    return HoareTriple(
        asrt.assertion_from_json(d["pre"], parsed),
        qs.parse_once(parsed, qs.parse_program, d["program"], measurements),
        asrt.assertion_from_json(d["post"], parsed),
        d.get("mode", "partial"),
    )


def _witness_to_json(w):
    out = {}
    for k, v in w.items():
        if k == "t":
            out[k] = qs.format_expr(v)
        else:
            out[k] = v
    return out


def _witness_from_json(d):
    d = d or {}
    if not isinstance(d, dict):
        raise qs.ParseError("witnesses must be an object")
    out = {}
    for k, v in d.items():
        if k == "t":
            if not isinstance(v, str):
                raise qs.ParseError("witness t is not an expression: %r" % (v,))
            out[k] = qs.parse_expr(v)
        elif k in ("y", "z"):
            out[k] = _variable_name(k, v)
        else:
            out[k] = v
    return out


def _variable_name(k, v):
    """`v` when it is a classical variable name; raises ParseError."""
    try:
        if isinstance(v, str) and qs.parse_expr(v) == cl.Var(v):
            return v
    except qs.ParseError:
        pass
    raise qs.ParseError("witness %s is not a variable name: %r" % (k, v))


def node_to_json(n):
    return {
        "rule": n.rule,
        "conclusion": triple_to_json(n.conclusion),
        "premises": [node_to_json(p) for p in n.premises],
        "witnesses": _witness_to_json(n.witnesses),
    }


def node_from_json(d, measurements=None):
    """Each distinct formula, program and state text of the document is
    parsed once; nodes that repeat a text share its tree."""
    return _node_from_json(d, measurements, {})


def _node_from_json(d, measurements, parsed):
    return ProofNode(
        d["rule"],
        triple_from_json(d["conclusion"], measurements, parsed),
        tuple(_node_from_json(p, measurements, parsed)
              for p in d.get("premises", [])),
        _witness_from_json(d.get("witnesses")),
    )
