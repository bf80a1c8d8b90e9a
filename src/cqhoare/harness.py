"""Soundness fuzzer: empirically validates Hoare triples against the
simulator, plus the bundled example corpus of proof scripts.

For each sampled input (sigma, rho) with sigma satisfying the precondition
formula and the quantum precondition well-defined, the fuzzer compares
lhs = tr(A(sigma) rho) against the sum of tr(B(sigma') rho') over the
terminated branches whose classical state satisfies the postcondition
formula.  Partial-correctness triples additionally credit the mass that
provably has not terminated within the fuel budget.
"""

from dataclasses import dataclass
import math

import numpy as np

from . import classical as cl
from . import linalg as la
from . import qsyntax as qs
from . import structures as st
from . import semantics as sem
from . import assertions as asrt
from . import prover as pv
from .assertions import CqAssertion, StateProj, Kraus, Atomic

EXHAUSTIVE_SIGMA_CAP = 10 ** 4
# Bound on the bytes of the input states run as one stack: the inputs of
# one classical state share its branch tree, so they are simulated
# together, in chunks of at most this size.  A chunk and the kernel's
# copies of it should stay in cache: at D = 64 (QFT n = 6), 8 MiB stacks
# ran slower than one input at a time, and 512 KiB ones 1.5-2x faster.
FUZZ_STACK_BYTES = 2 ** 19


@dataclass
class RunConfig:
    """Fuzzer settings: the loop budget, the branch cap, the number of
    random pure and mixed inputs per classical state, and the seed."""

    fuel: int = 64
    branch_cap: int = sem.BRANCH_CAP
    samples: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.fuel < 0 or self.branch_cap <= 0 or self.samples <= 0:
            raise ValueError("fuel, branch cap and samples must be positive")

    def to_json(self):
        return {"fuel": self.fuel, "branch_cap": self.branch_cap,
                "samples": self.samples, "seed": self.seed}


@dataclass
class FuzzRecord:
    """One fuzzed input: its classical state and quantum input kind, the
    two sides of the triple's inequality, the non-termination credit and
    the margin between them."""

    sigma: object
    rho_kind: str
    lhs: float
    rhs: float
    nt: float
    margin: float
    status: str  # "checked" | "inconclusive-input"

    def to_json(self):
        return {"sigma": self.sigma.to_json(), "rho": self.rho_kind,
                "lhs": round(self.lhs, 12), "rhs": round(self.rhs, 12),
                "nt": round(self.nt, 12), "margin": round(self.margin, 12),
                "status": self.status}


@dataclass
class FuzzReport:
    """Every record of one `fuzz_triple` call, its verdict and worst
    margin, and the settings it ran with."""

    triple: object
    mode: str
    records: list
    verdict: str  # "consistent" | "inconsistent" | "inconclusive" | "vacuous"
    worst_margin: float
    config: RunConfig
    skipped: int = 0
    sigma_sampled: bool = False
    reason: str = ""

    def to_json(self):
        return {
            "triple": pv.triple_to_json(self.triple),
            "mode": self.mode,
            "verdict": self.verdict,
            "worst_margin": round(self.worst_margin, 12),
            "records": [r.to_json() for r in self.records],
            "skipped_inputs": self.skipped,
            "sigma_sampled": self.sigma_sampled,
            "reason": self.reason,
            "config": self.config.to_json(),
        }


def _sample_sigma(rng, typing, names):
    """A uniform draw from the domain, one index per variable, without
    listing any type's values."""
    return cl.ClassicalState({
        n: typing[n].value(int(rng.integers(typing[n].size())))
        for n in sorted(names)})


def _input_rhos(rng, d, samples):
    """Input kinds and their density matrices, stacked: d basis states,
    then `samples` random pure and `samples` random mixed states.

    The seed fixes the draws in this order: per pure state the real then
    the imaginary parts of its vector, then per mixed state its rank and
    the real then the imaginary parts of its d x rank factor.  The states
    are built as stacks, bit for bit what one state at a time gives."""
    kinds = (["basis-%d" % i for i in range(d)]
             + ["pure-%d" % i for i in range(samples)]
             + ["mixed-%d" % i for i in range(samples)])
    stack = np.zeros((d + 2 * samples, d, d), dtype=complex)
    stack[np.arange(d), np.arange(d), np.arange(d)] = 1.0
    parts = rng.standard_normal((samples, 2, d))
    v = parts[:, 0] + 1j * parts[:, 1]
    # each norm as np.linalg.norm takes it: `dot` over the strided real and
    # imaginary views; a contiguous copy or a stack may round otherwise
    v /= np.array([math.sqrt(u.real.dot(u.real) + u.imag.dot(u.imag)) for u in v])[:, None]
    stack[d:d + samples] = v[:, :, None] * v.conj()[:, None, :]
    by_rank = {}  # rank -> (indices into the mixed states, factors)
    for i in range(samples):
        rank = int(rng.integers(1, d + 1))
        re, im = rng.standard_normal((2, d, rank))
        g = re + 1j * im
        idx, gs = by_rank.setdefault(rank, ([], []))
        idx.append(d + samples + i)
        gs.append(g)
    for idx, gs in by_rank.values():
        g = np.stack(gs)
        m = g @ g.conj().transpose(0, 2, 1)
        stack[idx] = m / np.trace(m, axis1=1, axis2=2).real[:, None, None]
    return kinds, stack


def _embedded(sigma, pred, layout, interp, memo=None):
    """Effect of a predicate at sigma, embedded into the ambient layout;
    None when not well-defined there."""
    r = asrt.eval_predicate(sigma, pred, interp, memo)
    if not r.well_defined:
        return None
    try:
        return la.embed(r.op, r.layout.ids, layout)
    except la.LayoutError:
        return None


def fuzz_triple(triple, interp, cfg=None):
    """Empirical check of tr(A rho) <= sum tr(B rho') (+ unterminated mass
    in partial mode) over enumerated or sampled classical states and
    basis / random pure / random mixed quantum inputs.

    Formal states are evaluated once per classical state for the whole
    call, and the postcondition's embedded effect once per output
    classical state of each input sigma."""
    cfg = cfg or RunConfig()
    rng = np.random.default_rng(cfg.seed)
    names = qs.classical_vars(triple)
    typing = interp.classical_vars
    try:
        size = cl.state_count(typing, names)
        layout = interp.make_layout(interp.all_systems())
    except (cl.EvalError, st.InterpError, la.DimensionCapError) as e:
        return FuzzReport(triple, triple.mode, [], "inconclusive", 0.0, cfg,
                          reason=str(e))

    sampled = size > EXHAUSTIVE_SIGMA_CAP
    if sampled:
        sigmas = [_sample_sigma(rng, typing, names)
                  for _ in range(cfg.samples)]
    else:
        sigmas = list(cl.iter_states(typing, names))

    records = []
    skipped = 0
    kinds = None
    memo = {}
    for sigma in sigmas:
        if not cl.satisfies(sigma, triple.pre.phi):
            continue
        a_op = _embedded(sigma, triple.pre.a, layout, interp, memo)
        if a_op is None:
            skipped += 1
            continue
        if kinds is None:
            kinds, inputs = _input_rhos(rng, layout.dim, cfg.samples)
            chunk = max(1, FUZZ_STACK_BYTES // inputs[0].nbytes)
        post_ops = {}  # output sigma -> B there, None when it does not count
        for lo in range(0, len(kinds), chunk):
            rhos = inputs[lo:lo + chunk]
            lhs = la.trace_product(a_op, rhos)
            out = sem.run(triple.program,
                          sem.CqState(sigma, la.DensityOperator(layout, rhos)),
                          cfg.fuel, interp, branch_cap=cfg.branch_cap)
            rhs = np.zeros(len(rhos))
            for item in out.items:
                key = asrt.sigma_key(item.sigma)
                if key not in post_ops:
                    post_ops[key] = (
                        _embedded(item.sigma, triple.post.a, layout, interp, memo)
                        if cl.satisfies(item.sigma, triple.post.phi) else None)
                b_op = post_ops[key]
                if b_op is not None:
                    rhs += la.trace_product(b_op, item.rho.mat)
            if triple.mode == "partial":
                nt = np.maximum(out.input_trace - out.items_trace()
                                - out.pruned_trace, 0.0)
                unfinished = np.zeros(len(rhos), dtype=bool)
            else:
                nt = np.zeros(len(rhos))
                unfinished = np.broadcast_to(
                    out.residual_trace() > interp.tolerances.trace, len(rhos))
            margin = rhs + nt - lhs
            for i in range(len(rhos)):
                records.append(FuzzRecord(
                    sigma, kinds[lo + i], float(lhs[i]), float(rhs[i]),
                    float(nt[i]), float(margin[i]),
                    "inconclusive-input" if unfinished[i] else "checked"))

    if not records:
        return FuzzReport(triple, triple.mode, [], "vacuous", 0.0, cfg,
                          skipped=skipped, sigma_sampled=sampled,
                          reason="no input with satisfiable precondition")
    checked = [r for r in records if r.status == "checked"]
    worst = min((r.margin for r in checked), default=0.0)
    if any(r.margin < -interp.tolerances.fuzz for r in checked):
        verdict = "inconsistent"
    elif len(checked) < len(records):
        verdict = "inconclusive"
    else:
        verdict = "consistent"
    return FuzzReport(triple, triple.mode, records, verdict, worst, cfg,
                      skipped=skipped, sigma_sampled=sampled)


# ---------------------------------------------------------------------------
# Example corpus: one accepted script per proof rule, plus known-bad mutants.


def corpus_interpretation():
    interp = st.default_interpretation()
    interp.declare_classical("x", cl.IntType(0, 1))
    interp.declare_classical("y", cl.IntType(0, 1))
    interp.declare_classical("z", cl.IntType(0, 1))
    interp.declare_quantum("q1", 2)
    interp.declare_quantum("q2", 2)
    interp.kraus["SCALEA"] = st.KrausSymbol(
        "SCALEA", 1, (), None, lambda: [np.sqrt(0.5)])
    interp.kraus["SCALEB"] = st.KrausSymbol(
        "SCALEB", 1, (), None, lambda: [np.sqrt(0.7)])
    return interp


def _proj_ket(value, qname):
    return StateProj(asrt.Ket(value, qs.QVar(qname)))


def _skip_node(phi, a):
    t = pv.HoareTriple(CqAssertion(phi, a), qs.Skip(), CqAssertion(phi, a))
    return pv.ProofNode("Skip", t)


def _meas_node():
    """Measurement axiom on q1: postcondition records the outcome."""
    prog = qs.Measure("x", "M", (qs.QVar("q1"),))
    post_phi = cl.BinOp("and", cl.TRUE,
                        cl.BinOp("=", cl.Var("x"), cl.Var("y")))
    post = CqAssertion(post_phi, _proj_ket(cl.Var("x"), "q1"))
    pre = CqAssertion(cl.TRUE, Kraus("F_M", (cl.Var("y"),), (qs.QVar("q1"),),
                                     (_proj_ket(cl.Var("y"), "q1"),)))
    return pv.ProofNode("Meas", pv.HoareTriple(pre, prog, post),
                        witnesses={"y": "y"})


def _ass_node():
    prog = qs.Assign("x", cl.BinOp("+", cl.Var("x"), cl.Lit(1)))
    post = CqAssertion(cl.BinOp("=", cl.Var("x"), cl.Lit(1)),
                       Atomic("ID1", (), (qs.QVar("q1"),)))
    pre = CqAssertion(
        cl.BinOp("=", cl.BinOp("+", cl.Var("x"), cl.Lit(1)), cl.Lit(1)),
        post.a)
    return pv.ProofNode("Ass", pv.HoareTriple(pre, prog, post))


def _conseq(node, pre, post, mode="partial"):
    return pv.ProofNode(
        "Conseq",
        pv.HoareTriple(pre, node.conclusion.program, post, mode),
        (node,))


def _loop_body_premise(phi_b, mode="partial"):
    """{phi_b, ID1} x := 0 {true, ID1} via the assignment axiom and one
    consequence step."""
    a = Atomic("ID1", (), (qs.QVar("q1"),))
    prog = qs.Assign("x", cl.Lit(0))
    ass = pv.ProofNode("Ass", pv.HoareTriple(
        CqAssertion(cl.TRUE, a), prog, CqAssertion(cl.TRUE, a), mode))
    return _conseq(ass, CqAssertion(phi_b, a), CqAssertion(cl.TRUE, a), mode)


def build_corpus():
    """Named proof scripts: every rule exercised by an accepted script,
    plus deliberately broken mutants.  Returns (interp, accepted, mutants)
    where the script maps are name -> root ProofNode."""
    interp = corpus_interpretation()
    q1 = qs.QVar("q1")
    id1 = Atomic("ID1", (), (q1,))
    p0 = Atomic("P0", (), (q1,))
    accepted = {}

    # Skip
    accepted["skip"] = _skip_node(cl.TRUE, p0)

    # Ass
    accepted["assign"] = _ass_node()

    # Init
    init_prog = qs.Init(q1)
    accepted["init"] = pv.ProofNode("Init", pv.HoareTriple(
        CqAssertion(cl.TRUE, Kraus("FB2", (), (q1,), (p0, p0))),
        init_prog, CqAssertion(cl.TRUE, p0)))

    # Uni
    uni_prog = qs.Gate("H", (), (q1,))
    accepted["unitary"] = pv.ProofNode("Uni", pv.HoareTriple(
        CqAssertion(cl.TRUE, Kraus("F_H", (), (q1,), (p0,))),
        uni_prog, CqAssertion(cl.TRUE, p0)))

    # Meas
    accepted["measure"] = _meas_node()

    # Seq: the assignment then skip
    ass = _ass_node()
    skip2 = _skip_node(ass.conclusion.post.phi, ass.conclusion.post.a)
    seq_prog = qs.Seq(ass.conclusion.program, qs.Skip())
    accepted["sequence"] = pv.ProofNode("Seq", pv.HoareTriple(
        ass.conclusion.pre, seq_prog, ass.conclusion.post), (ass, skip2))

    # Cond: both branches skip
    b = cl.BinOp("=", cl.Var("x"), cl.Lit(0))
    then_skip = _skip_node(cl.BinOp("and", cl.TRUE, b), id1)
    then_br = _conseq(then_skip, then_skip.conclusion.pre,
                      CqAssertion(cl.TRUE, id1))
    else_skip = _skip_node(cl.BinOp("and", cl.TRUE, cl.neg(b)), id1)
    else_br = _conseq(else_skip, else_skip.conclusion.pre,
                      CqAssertion(cl.TRUE, id1))
    cond_prog = qs.If(b, qs.Skip(), qs.Skip())
    accepted["conditional"] = pv.ProofNode("Cond", pv.HoareTriple(
        CqAssertion(cl.TRUE, id1), cond_prog, CqAssertion(cl.TRUE, id1)),
        (then_br, else_br))

    # LoopPar: while x = 1 do x := 0 od
    guard = cl.BinOp("=", cl.Var("x"), cl.Lit(1))
    loop_prog = qs.While(guard, qs.Assign("x", cl.Lit(0)))
    body = _loop_body_premise(cl.BinOp("and", cl.TRUE, guard))
    accepted["loop"] = pv.ProofNode("LoopPar", pv.HoareTriple(
        CqAssertion(cl.TRUE, id1), loop_prog,
        CqAssertion(cl.BinOp("and", cl.TRUE, cl.neg(guard)), id1)), (body,))

    # LoopTot: same loop, variant t = x
    tvar = cl.Var("x")
    body1 = _loop_body_premise(cl.BinOp("and", cl.TRUE, guard), "total")
    pre2_phi = cl.BinOp("and", cl.BinOp("and", cl.TRUE, guard),
                        cl.BinOp("=", tvar, cl.Var("z")))
    a = id1
    ass2 = pv.ProofNode("Ass", pv.HoareTriple(
        CqAssertion(cl.BinOp("<", cl.Lit(0), cl.Var("z")), a),
        qs.Assign("x", cl.Lit(0)),
        CqAssertion(cl.BinOp("<", tvar, cl.Var("z")), a), "total"))
    body2 = _conseq(ass2, CqAssertion(pre2_phi, a), ass2.conclusion.post,
                    "total")
    accepted["loop_total"] = pv.ProofNode("LoopTot", pv.HoareTriple(
        CqAssertion(cl.TRUE, id1), loop_prog,
        CqAssertion(cl.BinOp("and", cl.TRUE, cl.neg(guard)), id1), "total"),
        (body1, body2), witnesses={"t": tvar, "z": "z"})

    # Conseq on its own: weaken the skip axiom
    strong = _skip_node(cl.TRUE, p0)
    accepted["consequence"] = _conseq(
        strong, CqAssertion(cl.BinOp("=", cl.Var("x"), cl.Lit(0)), p0),
        CqAssertion(cl.TRUE, id1))

    # Accum1: scale the measurement axiom through a dominated scalar family
    meas = _meas_node()
    accepted["accumulate_scaled"] = pv.ProofNode("Accum1", pv.HoareTriple(
        CqAssertion(cl.TRUE, Kraus("SCALEA", (), (), (meas.conclusion.pre.a,))),
        meas.conclusion.program,
        CqAssertion(meas.conclusion.post.phi,
                    Kraus("SCALEB", (), (), (meas.conclusion.post.a,)))),
        (meas,))

    # Accum2: basis projectors through skip under one branching symbol
    s0 = _skip_node(cl.TRUE, _proj_ket(cl.Lit(0), "q1"))
    s1 = _skip_node(cl.TRUE, _proj_ket(cl.Lit(1), "q1"))
    accepted["accumulate_branches"] = pv.ProofNode("Accum2", pv.HoareTriple(
        CqAssertion(cl.TRUE, Kraus("FB2", (), (q1,),
                                   (s0.conclusion.pre.a, s1.conclusion.pre.a))),
        qs.Skip(),
        CqAssertion(cl.TRUE, Kraus("FB2", (), (q1,),
                                   (s0.conclusion.post.a, s1.conclusion.post.a)))),
        (s0, s1))

    # Convex1: a single weighted premise
    accepted["convex_max"] = pv.ProofNode("Convex1", pv.HoareTriple(
        CqAssertion(cl.TRUE, Kraus("WSUM1", (cl.Lit(0.5),), (),
                                   (s0.conclusion.pre.a,))),
        qs.Skip(),
        CqAssertion(cl.TRUE, Kraus("WSUM1", (cl.Lit(0.5),), (),
                                   (s0.conclusion.post.a,)))),
        (s0,), witnesses={"weights": [0.5]})

    # Convex2: two weighted premises, same weights on both sides
    accepted["convex_mix"] = pv.ProofNode("Convex2", pv.HoareTriple(
        CqAssertion(cl.TRUE, Kraus("WSUM2", (cl.Lit(0.3), cl.Lit(0.4)), (),
                                   (s0.conclusion.pre.a, s1.conclusion.pre.a))),
        qs.Skip(),
        CqAssertion(cl.TRUE, Kraus("WSUM2", (cl.Lit(0.3), cl.Lit(0.4)), (),
                                   (s0.conclusion.post.a, s1.conclusion.post.a)))),
        (s0, s1), witnesses={"weights": [0.3, 0.4]})

    mutants = {}
    # Skip with mismatched pre/post
    mutants["skip_mismatch"] = pv.ProofNode("Skip", pv.HoareTriple(
        CqAssertion(cl.TRUE, p0), qs.Skip(),
        CqAssertion(cl.TRUE, Atomic("P1", (), (q1,)))))
    # Measurement axiom whose fresh variable leaks into the precondition
    leak_phi = cl.BinOp("=", cl.Var("y"), cl.Lit(0))
    mutants["measure_stale"] = pv.ProofNode("Meas", pv.HoareTriple(
        CqAssertion(leak_phi, Kraus("F_M", (cl.Var("y"),), (q1,),
                                    (_proj_ket(cl.Var("y"), "q1"),))),
        qs.Measure("x", "M", (q1,)),
        CqAssertion(cl.BinOp("and", leak_phi,
                             cl.BinOp("=", cl.Var("x"), cl.Var("y"))),
                    _proj_ket(cl.Var("x"), "q1"))),
        witnesses={"y": "y"})
    return interp, accepted, mutants


def qft_mutant(n=2):
    """QFT script with a perturbed output phase; its closing consequence
    must be rejected."""
    from . import qft
    return qft.qft_interpretation(n), qft.perturbed_qft_script(n)[1]
