"""Hoare triples, proof scripts, and the rule checker.

The kernel checks one node at a time: a node's verdict depends only on its
conclusion, its premises' conclusions, and its witnesses.  Matching against
rule schemata is syntactic (`qsyntax.same_syntax`: programs, predicates and
assertions compared node by node, their formulas up to and/or flattening,
bound-variable renaming and literal types); semantic gaps must be bridged
with Conseq, whose entailments are discharged by exhaustive enumeration of
the classical states that the interpretation's declared types allow.  Side
conditions over undeclared or non-enumerable variables yield the verdict
"inconclusive", never a silent pass.
"""

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import classical as cl
from . import linalg as la
from . import qsyntax as qs
from . import structures as st
from . import assertions as asrt
from .assertions import CqAssertion, Kraus, Verdict


class HoareTriple(cl.Node):
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


def _and(a, b):
    return cl.BinOp("and", a, b)


def _or_all(parts):
    out = parts[0]
    for p in parts[1:]:
        out = cl.BinOp("or", out, p)
    return out


def _reject(reason):
    return NodeVerdict("rejected", reason)


class _Stop(Exception):
    """Ends a rule check with `verdict`, the outcome of its first failing
    check."""

    def __init__(self, verdict):
        self.verdict = verdict


def _stop(status, reason, side=()):
    raise _Stop(NodeVerdict(status, reason, list(side)))


def _require(ok, reason, side=()):
    """Reject the node for `reason` unless `ok`."""
    if not ok:
        _stop("rejected", reason, side)


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
# Per-rule checking.  A rule check returns the side conditions it
# discharged, or ends early through `_require` / `_stop` at its first
# failing check.


def _check_skip(node, interp, memo):
    t = node.conclusion
    _require(isinstance(t.program, qs.Skip), "program is not skip")
    _require(qs.same_syntax(t.pre, t.post), "pre and post must be identical")


def _check_ass(node, interp, memo):
    t = node.conclusion
    _require(isinstance(t.program, qs.Assign), "program is not an assignment")
    x, e = t.program.var, t.program.expr
    want_phi = cl.subst(t.post.phi, e, x)
    want_a = asrt.subst_predicate(t.post.a, e, x)
    _require(cl.formula_equal(t.pre.phi, want_phi),
             "precondition formula is not post[e/x]")
    _require(asrt.pred_equal(t.pre.a, want_a),
             "quantum precondition is not post[e/x]")


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


def _check_init(node, interp, memo):
    t = node.conclusion
    _require(isinstance(t.program, qs.Init),
             "program is not an initialization")
    _require(cl.formula_equal(t.pre.phi, t.post.phi),
             "classical parts must match")
    want = axiom_pre(t.program, t.post.a,
                     dim=interp.decl_of(t.program.qvar.name).dim)
    _require(asrt.pred_equal(t.pre.a, want),
             "precondition is not %s applied to the postcondition" % want.name)


def _check_uni(node, interp, memo):
    t = node.conclusion
    _require(isinstance(t.program, qs.Gate),
             "program is not a gate application")
    _require(cl.formula_equal(t.pre.phi, t.post.phi),
             "classical parts must match")
    interp.gate(t.program.name)
    want = axiom_pre(t.program, t.post.a)
    _require(asrt.pred_equal(t.pre.a, want),
             "precondition is not %s applied to the postcondition" % want.name)


def _check_meas(node, interp, memo):
    t = node.conclusion
    _require(isinstance(t.program, qs.Measure), "program is not a measurement")
    y = node.witnesses.get("y")
    _require(isinstance(y, str), "missing fresh-variable witness y")
    x = t.program.var
    phi, last = _split_last_conjunct(t.post.phi)
    _require(cl.formula_equal(last, cl.BinOp("=", cl.Var(x), cl.Var(y))),
             "postcondition must end with the conjunct %s = %s" % (x, y))
    _require(y not in qs.classical_vars((phi, t.post.a)) | {x},
             "witness %s is not fresh" % y)
    _require(cl.formula_equal(t.pre.phi, cl.subst(phi, cl.Var(y), x)),
             "precondition formula is not phi[y/x]")
    interp.measurement(t.program.meas)
    want = axiom_pre(t.program, t.post.a, y=y)
    _require(asrt.pred_equal(t.pre.a, want),
             "quantum precondition is not %s(y) applied to A[y/x]" % want.name)


def _check_seq(node, interp, memo):
    t = node.conclusion
    _require(isinstance(t.program, qs.Seq), "program is not a sequence")
    _require(len(node.premises) == 2, "sequence rule takes two premises")
    t1, t2 = node.premises[0].conclusion, node.premises[1].conclusion
    _require(qs.same_syntax((t1.program, t2.program),
                            (t.program.first, t.program.second)),
             "premise programs do not match the sequence")
    _require(qs.same_syntax((t1.pre, t2.post), (t.pre, t.post)),
             "endpoint assertions do not match")
    _require(qs.same_syntax(t1.post, t2.pre),
             "intermediate assertions do not match")


def _check_cond(node, interp, memo):
    t = node.conclusion
    _require(isinstance(t.program, qs.If), "program is not a conditional")
    _require(len(node.premises) == 2, "conditional rule takes two premises")
    t1, t0 = node.premises[0].conclusion, node.premises[1].conclusion
    _require(qs.same_syntax((t1.program, t0.program),
                            (t.program.then, t.program.orelse)),
             "premise programs do not match the branches")
    phi, b = t.pre.phi, t.program.cond
    _require(cl.formula_equal(t1.pre.phi, _and(phi, b)),
             "then-premise precondition is not phi and b")
    _require(cl.formula_equal(t0.pre.phi, _and(phi, cl.neg(b))),
             "else-premise precondition is not phi and not b")
    for tb in (t1, t0):
        _require(asrt.pred_equal(tb.pre.a, t.pre.a),
                 "premise quantum preconditions must match")
        _require(qs.same_syntax(tb.post, t.post),
                 "premise postconditions must match")


def _require_premise(premise, pre, post, reason):
    """Reject unless the premise's conclusion has exactly this pre and post."""
    tp = premise.conclusion
    _require(qs.same_syntax((tp.pre, tp.post), (pre, post)), reason)


def _invariant_premise(t):
    """(pre, post) of the invariant premise {phi and b, A} P {phi, A} of the
    loop triple `t` = {phi, A} while b do P od {...}."""
    return CqAssertion(_and(t.pre.phi, t.program.cond), t.pre.a), t.pre


def _require_loop_exit(t):
    """The loop triple `t` = {phi, A} while b do P od {phi and not b, A}."""
    exit_phi = _and(t.pre.phi, cl.neg(t.program.cond))
    _require(cl.formula_equal(t.post.phi, exit_phi),
             "postcondition formula is not phi and not b")
    _require(asrt.pred_equal(t.post.a, t.pre.a),
             "invariant predicate must be preserved")


def _check_loop_par(node, interp, memo):
    t = node.conclusion
    _require(isinstance(t.program, qs.While), "program is not a loop")
    _require(len(node.premises) == 1, "loop rule takes one premise")
    (body,) = node.premises
    _require(qs.same_syntax(body.conclusion.program, t.program.body),
             "premise program is not the loop body")
    _require_premise(body, *_invariant_premise(t),
                     "premise is not {phi and b, A} P {phi, A}")
    _require_loop_exit(t)


def _check_loop_tot(node, interp, memo):
    t = node.conclusion
    _require(isinstance(t.program, qs.While), "program is not a loop")
    _require(len(node.premises) == 2, "total loop rule takes two premises")
    tv = node.witnesses.get("t")
    z = node.witnesses.get("z")
    _require(tv is not None and isinstance(z, str),
             "missing variant witness t or ranking variable z")
    phi, b = t.pre.phi, t.program.cond
    first, second = node.premises
    _require(qs.same_syntax((first.conclusion.program,
                             second.conclusion.program),
                            (t.program.body,) * 2),
             "premise programs must be the loop body")
    _require_premise(first, *_invariant_premise(t),
                     "first premise is not {phi and b, A} P {phi, A}")
    _require_premise(
        second,
        CqAssertion(_and(_and(phi, b), cl.BinOp("=", tv, cl.Var(z))), t.pre.a),
        CqAssertion(cl.BinOp("<", tv, cl.Var(z)), t.pre.a),
        "second premise is not {phi and b and t=z, A} P {t<z, A}")
    _require_loop_exit(t)
    _require(z not in qs.classical_vars((phi, tv, t.program)),
             "ranking variable %s is not fresh" % z)
    side = [("freshness", "holds", "z fresh")]
    # phi -> t >= 0, and t integer-valued, by enumeration
    states = asrt.enumerate_states(cl.free_vars(phi) | cl.free_vars(tv), interp)
    if isinstance(states, Verdict):
        _stop("inconclusive", states.reason, side)
    for sigma in states:
        if not cl.satisfies(sigma, phi):
            continue
        v = cl.eval_expr(sigma, tv)
        _require(isinstance(v, int) and not isinstance(v, bool),
                 "variant expression is not integer-valued")
        if v < 0:
            _stop("rejected",
                  "phi does not imply t >= 0 (witness %r)" % (sigma,))
    side.append(("variant-nonnegative", "holds", "enumerated"))
    return side


def _check_conseq(node, interp, memo):
    t = node.conclusion
    _require(len(node.premises) == 1, "consequence rule takes one premise")
    tp = node.premises[0].conclusion
    _require(qs.same_syntax(tp.program, t.program), "premise program differs")
    v1 = asrt.cq_entails(t.pre, tp.pre, interp, memo)
    v2 = asrt.cq_entails(tp.post, t.post, interp, memo)
    side = [("pre-entailment", v1.status, v1.reason),
            ("post-entailment", v2.status, v2.reason)]
    for v in (v1, v2):
        _require(v.status != "fails", v.reason or "entailment fails", side)
    if "inconclusive" in (v1.status, v2.status):
        _stop("inconclusive", "entailment inconclusive", side)
    return side


# The accumulation and convexity rules: the conclusion applies a Kraus
# symbol to the premises' preconditions, and its postcondition combines
# the premises' postconditions in one of two shapes.


def _kraus_pre(node, interp):
    """The conclusion's precondition is {phi, F(A_1, ..., A_k)} for premises
    {phi, A_i} P ... about the conclusion's program, where F has rank k.
    Returns the symbol F."""
    t = node.conclusion
    _require(isinstance(t.pre.a, Kraus),
             "conclusion precondition is not a Kraus application")
    k = len(node.premises)
    _require(k > 0, "at least one premise required")
    sym = interp.kraus_symbol(t.pre.a.name)
    _require(sym.rank == k and len(t.pre.a.branches) == k,
             "symbol rank must equal the premise count")
    for p in node.premises:
        _require(qs.same_syntax(p.conclusion.program, t.program),
                 "premise programs must match the conclusion")
        _require(cl.formula_equal(p.conclusion.pre.phi, t.pre.phi),
                 "premise preconditions must share one formula")
    for i, p in enumerate(node.premises):
        _require(asrt.pred_equal(t.pre.a.branches[i], p.conclusion.pre.a),
                 "branch %d does not match premise %d" % (i, i))
    return sym


def _disjoint_posts(node, interp, side):
    """Accum1 and Convex1: the premises' postconditions {psi_i, B} share B,
    the conclusion's is {psi_1 or ... or psi_k, F'(B)}, and no classical
    state satisfies two psi_i.  Records that side condition and returns its
    verdict."""
    t = node.conclusion
    _require(len(t.post.a.branches) == 1,
             "conclusion postcondition symbol must take one branch")
    posts = [p.conclusion.post for p in node.premises]
    _require(all(asrt.pred_equal(q.a, posts[0].a) for q in posts[1:]),
             "premise postcondition predicates must coincide")
    _require(asrt.pred_equal(t.post.a.branches[0], posts[0].a),
             "conclusion post branch must be the shared predicate")
    psis = [q.phi for q in posts]
    _require(cl.formula_equal(t.post.phi, _or_all(psis)),
             "conclusion postcondition formula must be the disjunction")
    mex = _mutual_exclusion(psis, interp)
    side.append(("mutual-exclusion", mex.status, mex.reason))
    _require(mex.status != "fails", mex.reason, side)
    return mex


def _mutual_exclusion(psis, interp):
    states = asrt.enumerate_states(qs.classical_vars(psis), interp)
    if isinstance(states, Verdict):
        return states
    for sigma in states:
        hits = [i for i, p in enumerate(psis) if cl.satisfies(sigma, p)]
        if len(hits) > 1:
            return Verdict("fails", witness=sigma,
                           reason="postconditions %d and %d overlap" % (hits[0], hits[1]))
    return Verdict("holds")


def _shared_posts(node):
    """Accum2 and Convex2: the premises' postconditions {psi, B_i} share
    psi, and the conclusion's is {psi, F(B_1, ..., B_k)}."""
    t = node.conclusion
    posts = [p.conclusion.post for p in node.premises]
    _require(len(t.post.a.branches) == len(posts),
             "conclusion postcondition symbol must take one branch per premise")
    _require(all(cl.formula_equal(q.phi, posts[0].phi) for q in posts[1:]),
             "premise postcondition formulas must coincide")
    _require(cl.formula_equal(t.post.phi, posts[0].phi),
             "conclusion postcondition formula must be the shared one")
    for i, q in enumerate(posts):
        _require(asrt.pred_equal(t.post.a.branches[i], q.a),
                 "post branch %d does not match premise %d" % (i, i))


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


def _targets_untouched(t, side):
    """Accum1 and Accum2: the program touches no target of the
    precondition's symbol.  Records that side condition."""
    ok = _targets_disjoint(t.pre.a.targets, t.program)
    side.append(("targets-disjoint", "holds", "conservative") if ok
                else ("targets-disjoint", "fails", ""))
    _require(ok, "symbol targets may be touched by the program", side)


def _const_params(params):
    empty = cl.ClassicalState()
    return tuple(cl.eval_expr(empty, e) for e in params)


def _params_close(params, values):
    try:
        got = _const_params(params)
    except cl.EvalError:
        return False
    if len(got) != len(values):
        return False
    return all(abs(float(a) - float(b)) <= cl.FLOAT_EQ for a, b in zip(got, values))


def _weights(node, sym, interp):
    """Convex1 and Convex2: the precondition's symbol `sym` is WSUM<k>, and
    its parameters are the witness's probability weights.  Returns them."""
    k = len(node.premises)
    _require(sym.dims is None and sym.name == st.designated_name("wsum", k),
             "conclusion must use the scalar weighted-sum symbol")
    ws = node.witnesses.get("weights")
    _require(ws is not None and len(ws) == k,
             "invalid or missing probability weights")
    ws = [float(w) for w in ws]
    _require(not (any(w < -cl.FLOAT_EQ for w in ws)
                  or sum(ws) > 1 + interp.tolerances.trace),
             "invalid or missing probability weights")
    _require(_params_close(node.conclusion.pre.a.params, ws),
             "symbol parameters do not match the weights")
    return ws


def _check_accum1(node, interp, memo):
    t = node.conclusion
    sym = _kraus_pre(node, interp)
    _require(isinstance(t.post.a, Kraus),
             "conclusion postcondition is not a Kraus application")
    fp = interp.kraus_symbol(t.post.a.name)
    _require(fp.rank == 1 and len(t.post.a.branches) == 1,
             "postcondition symbol must have rank 1")
    _require(qs.same_syntax(t.post.a.params, t.pre.a.params),
             "pre and post symbol parameters must match")
    _require(qs.same_syntax(t.post.a.targets, t.pre.a.targets),
             "pre and post symbol targets must match")
    side = []
    mex = _disjoint_posts(node, interp, side)
    _targets_untouched(t, side)
    try:
        vals = _const_params(t.pre.a.params)
    except cl.EvalError:
        _stop("inconclusive", "non-constant symbol parameters", side)
    prop = check_proportional(sym, fp, vals, interp,
                              samples=node.witnesses.get("samples", 50),
                              seed=node.witnesses.get("seed", 0))
    side.append(("proportionality", prop.status, prop.reason))
    _require(prop.status != "fails", prop.reason, side)
    for v in (prop, mex):
        if v.status == "inconclusive":
            _stop("inconclusive", v.reason, side)
    return side


def _check_accum2(node, interp, memo):
    t = node.conclusion
    sym = _kraus_pre(node, interp)
    _require(isinstance(t.post.a, Kraus) and t.post.a.name == t.pre.a.name,
             "conclusion must apply the same symbol on both sides")
    _require(qs.same_syntax(t.post.a.targets, t.pre.a.targets)
             and len(t.post.a.branches) == sym.rank,
             "postcondition symbol application malformed")
    _require(qs.same_syntax(t.post.a.params, t.pre.a.params),
             "pre and post symbol parameters must match")
    _shared_posts(node)
    side = []
    _targets_untouched(t, side)
    return side


def _check_convex1(node, interp, memo):
    t = node.conclusion
    ws = _weights(node, _kraus_pre(node, interp), interp)
    _require(isinstance(t.post.a, Kraus)
             and t.post.a.name == st.designated_name("wsum", 1),
             "postcondition must scale by the maximal weight")
    _require(_params_close(t.post.a.params, [max(ws)]),
             "postcondition weight is not the maximum")
    side = []
    mex = _disjoint_posts(node, interp, side)
    if mex.status == "inconclusive":
        _stop("inconclusive", mex.reason, side)
    return side


def _check_convex2(node, interp, memo):
    t = node.conclusion
    ws = _weights(node, _kraus_pre(node, interp), interp)
    _require(isinstance(t.post.a, Kraus) and t.post.a.name == t.pre.a.name,
             "conclusion must apply the same weights on both sides")
    _require(_params_close(t.post.a.params, ws),
             "postcondition weights differ")
    _shared_posts(node)


class _Rule(NamedTuple):
    check: Callable  # (node, interp, memo) -> side conditions
    axiom: bool = False  # takes no premises
    mode: str = None  # the only correctness mode the rule derives


_RULES = {
    "Skip": _Rule(_check_skip, axiom=True),
    "Ass": _Rule(_check_ass, axiom=True),
    "Init": _Rule(_check_init, axiom=True),
    "Uni": _Rule(_check_uni, axiom=True),
    "Meas": _Rule(_check_meas, axiom=True),
    "Seq": _Rule(_check_seq),
    "Cond": _Rule(_check_cond),
    "LoopPar": _Rule(_check_loop_par, mode="partial"),
    "LoopTot": _Rule(_check_loop_tot, mode="total"),
    "Conseq": _Rule(_check_conseq),
    "Accum1": _Rule(_check_accum1),
    "Accum2": _Rule(_check_accum2),
    "Convex1": _Rule(_check_convex1),
    "Convex2": _Rule(_check_convex2),
}

RULES = tuple(_RULES)


def check_node(node, interp, memo=None):
    """Verdict for one node given its premises' conclusions.  `memo` is an
    evaluation memo (see `assertions`) shared by the nodes of one script."""
    rule = _RULES.get(node.rule)
    if rule is None:
        return _reject("unknown rule %r" % node.rule)
    if rule.axiom and node.premises:
        return _reject("axiom %s takes no premises" % node.rule)
    if any(p.conclusion.mode != node.conclusion.mode for p in node.premises):
        return _reject("premise modes must match the conclusion")
    if rule.mode not in (None, node.conclusion.mode):
        return _reject("%s only derives %s-correctness triples"
                       % (node.rule, rule.mode))
    try:
        side = rule.check(node, interp, memo)
    except _Stop as stop:
        return stop.verdict
    except la.DimensionCapError as e:
        return NodeVerdict("inconclusive", "too large to decide: %s" % e)
    except (cl.EvalError, la.LayoutError, ValueError) as e:
        return _reject("error while checking: %s" % e)
    return NodeVerdict("accepted", side_conditions=side or [])


def _post_order(node, path=()):
    """(path, node) for every node of a proof tree, premises first."""
    for i, p in enumerate(node.premises):
        yield from _post_order(p, path + (i,))
    yield ".".join(str(i) for i in path) or "root", node


def check_script(root, interp):
    """Bottom-up check of a whole proof tree.  Formal states are evaluated
    at most once per classical state across the whole script."""
    memo = {}
    return CheckReport([(path, node.rule, check_node(node, interp, memo))
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


_MODES = ("partial", "total")


def triple_from_json(d, measurements=None, parsed=None, at=()):
    """The Hoare triple `d`, at path `at` in its document.  `parsed` is a
    `qs.parse_once` cache shared by one document."""
    def field(key, kind, *default):
        return qs.json_field(d, (key,), kind, *default, at=at)

    mode = field("mode", "string", "partial")
    if mode not in _MODES:
        raise qs.ParseError("%s: expected %s, found %r" % (
            cl.json_path(at + ("mode",)), " or ".join(map(repr, _MODES)), mode))
    return HoareTriple(
        asrt.assertion_from_json(field("pre", "object"), parsed, at + ("pre",)),
        qs.parse_once(at + ("program",), parsed, qs.parse_program, field("program", None),
                      measurements, False, parsed),
        asrt.assertion_from_json(field("post", "object"), parsed, at + ("post",)),
        mode,
    )


def _witness_to_json(w):
    out = {}
    for k, v in w.items():
        if k == "t":
            out[k] = qs.format_expr(v)
        else:
            out[k] = v
    return out


def _witness_from_json(d, at):
    """The witnesses of the proof node `d`, at path `at` in its document."""
    ws = qs.json_field(d, ("witnesses",), "object", {}, at=at)
    at += ("witnesses",)

    def field(*path, kind):
        return qs.json_field(ws, path, kind, at=at)

    def bad(k, want):
        raise qs.ParseError("%s: expected %s, found %r" % (cl.json_path(at + (k,)), want, ws[k]))

    out = dict(ws)  # a witness no rule reads is kept as it is
    for k in ws:
        if k == "t":
            out[k] = qs.parse_once(at + (k,), None, qs.parse_expr, field(k, kind="string"))
        elif k in ("y", "z"):
            if not _is_variable_name(field(k, kind="string")):
                bad(k, "a variable name")
        elif k == "weights":
            for i in range(len(field(k, kind="array"))):
                field(k, i, kind="number")
        elif k == "samples":
            if field(k, kind="integer") <= 0:
                bad(k, "a positive integer")
        elif k == "seed":
            field(k, kind="integer")
    return out


def _is_variable_name(v):
    try:
        return qs.parse_expr(v) == cl.Var(v)
    except qs.ParseError:
        return False


def node_to_json(n):
    return {
        "rule": n.rule,
        "conclusion": triple_to_json(n.conclusion),
        "premises": [node_to_json(p) for p in n.premises],
        "witnesses": _witness_to_json(n.witnesses),
    }


def node_from_json(d, measurements=None):
    """Each distinct formula, program and state text of the document is
    parsed once, and so is each program suffix and bracketed state factor
    that texts repeat: nodes that repeat one share its tree (see
    `qs.parse_once`).  The cache lives as long as this call."""
    return _node_from_json(d, measurements, {}, ())


def _node_from_json(d, measurements, parsed, at):
    def field(key, kind, *default):
        return qs.json_field(d, (key,), kind, *default, at=at)

    if not isinstance(d, dict):
        raise qs.ParseError("%s: proof node is not an object: %r" % (cl.json_path(at), d))
    return ProofNode(
        field("rule", "string"),
        triple_from_json(field("conclusion", "object"), measurements, parsed,
                         at + ("conclusion",)),
        tuple(_node_from_json(p, measurements, parsed, at + ("premises", i))
              for i, p in enumerate(field("premises", "array", []))),
        _witness_from_json(d, at),
    )
