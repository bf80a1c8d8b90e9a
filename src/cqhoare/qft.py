"""Quantum Fourier transform examples: circuits and checkable proof scripts.

The flat circuit applies, for each wire m, a Hadamard followed by controlled
phase rotations from the lower wires, and finally reverses the wire order.
After the gates acting on wire m, that wire carries
(|0> + exp(2 pi i 0.j[m..n]) |1>) / sqrt(2), where 0.j[m..n] is the binary
fraction built from the input bits; the proof script records exactly these
product states as intermediate assertions, one consequence-wrapped unitary
node per gate, glued with the sequencing rule.
"""

from . import classical as cl
from . import qsyntax as qs
from . import structures as st
from . import assertions as asrt
from . import prover as pv
from .qsyntax import QVar, Gate, Seq, If, Skip
from .assertions import CqAssertion, StateProj

MAX_N = 8


def _q(i):
    return QVar("q", (cl.Lit(i),))


def _check_n(n):
    if not (1 <= n <= MAX_N):
        raise ValueError("qubit count must be between 1 and %d" % MAX_N)


def qft_interpretation(n):
    """Declarations used by the generated circuits and scripts."""
    _check_n(n)
    interp = st.default_interpretation()
    interp.declare_quantum("q", 2, (cl.IntType(1, n),))
    interp.declare_classical("j", cl.BitArrayType(1, n))
    interp.declare_classical("n", cl.IntType(n, n))
    return interp


def _gate_list(n):
    gates = []
    for m in range(1, n + 1):
        gates.append(Gate("H", (), (_q(m),)))
        for l in range(2, n - m + 2):
            gates.append(Gate("CR", (cl.Lit(l),), (_q(m + l - 1), _q(m))))
    gates.append(Gate("REVERSE%d" % n, (), tuple(_q(i) for i in range(1, n + 1))))
    return gates


def generate_qft_program(n):
    """Flat gate-by-gate circuit, reversal included."""
    _check_n(n)
    return qs.seq_all(_gate_list(n))


def generate_qft_recursive(n):
    """The same transform written by structural recursion on the wire range,
    unrolled into nested conditionals with literal bounds."""
    _check_n(n)

    def crseq(m, hi):
        if_false = Skip() if m == hi else Seq(
            crseq(m, hi - 1),
            Gate("CR", (cl.Lit(hi - m + 1),), (_q(hi), _q(m))))
        return If(cl.BinOp("=", cl.Lit(m), cl.Lit(hi)), Skip(), if_false)

    def qftstar(m, hi):
        if m == hi:
            rest = Gate("H", (), (_q(m),))
        else:
            rest = Seq(Gate("H", (), (_q(m),)),
                       Seq(crseq(m, hi), qftstar(m + 1, hi)))
        return If(cl.BinOp("=", cl.Lit(m), cl.Lit(hi)),
                  Gate("H", (), (_q(hi),)), rest)

    reverse = Gate("REVERSE%d" % n, (), tuple(_q(i) for i in range(1, n + 1)))
    return Seq(qftstar(1, n), reverse)


# ---------------------------------------------------------------------------
# Formal-state bookkeeping for the proof script


def _half():
    return cl.BinOp("/", cl.Lit(1), cl.Call("sqrt", (cl.Lit(2),)))


def _psi(wire, lo, hi):
    """(|0> + exp(2 pi i 0.j[lo..hi]) |1>) / sqrt(2) on wire `wire`."""
    phase = cl.BinOp("*", _half(),
                     cl.Call("exp2pi",
                             (cl.BinFrac("j", cl.Lit(lo), cl.Lit(hi)),)))
    return asrt.Superpose(_half(), asrt.Ket(cl.Lit(0), _q(wire)),
                          phase, asrt.Ket(cl.Lit(1), _q(wire)))


def output_state(n):
    return asrt.tensor_all(
        [_psi(p, n + 1 - p, n) for p in range(1, n + 1)])


def _apply_gate(wires, g):
    """Advance the per-wire descriptors over one circuit gate.  A descriptor
    is ("ket", i) for |j[i]> or ("psi", wire, lo, hi) for a phase kernel."""
    out = dict(wires)
    if g.name == "H":
        m = g.targets[0].subs[0].value
        out[m] = ("psi", m, m, m)
    elif g.name == "CR":
        m = g.targets[1].subs[0].value
        _, wire, lo, hi = wires[m]
        out[m] = ("psi", wire, lo, hi + 1)
    else:  # reversal
        n = len(wires)
        for p in range(1, n + 1):
            kind = wires[n + 1 - p]
            out[p] = (kind[0], p) + kind[2:] if kind[0] == "psi" else kind
            if kind[0] == "ket":
                out[p] = ("ket", n + 1 - p)
    return out


def _state_of(wires, n):
    parts = []
    for p in range(1, n + 1):
        d = wires[p]
        if d[0] == "ket":
            parts.append(asrt.Ket(cl.BitIndex("j", cl.Lit(d[1])), _q(p)))
        else:
            parts.append(_psi(p, d[2], d[3]))
    return asrt.tensor_all(parts)


def generate_qft(n):
    """Flat circuit plus a proof script deriving, from input basis state
    |j[1]> ... |j[n]>, the phase-kernel product state after reversal.

    Returns (program, root ProofNode); conclusion is
    {1 <= n, [input]} program {true, [output]}.
    """
    _check_n(n)
    gates = _gate_list(n)
    program = qs.seq_all(gates)

    wires = {i: ("ket", i) for i in range(1, n + 1)}
    states = [_state_of(wires, n)]
    for g in gates:
        wires = _apply_gate(wires, g)
        states.append(_state_of(wires, n))

    def gate_node(i):
        g = gates[i]
        pre = CqAssertion(cl.TRUE, StateProj(states[i]))
        post = CqAssertion(cl.TRUE, StateProj(states[i + 1]))
        uni_pre = CqAssertion(cl.TRUE, pv.axiom_pre(g, post.a))
        uni = pv.ProofNode("Uni", pv.HoareTriple(uni_pre, g, post))
        return pv.ProofNode("Conseq", pv.HoareTriple(pre, g, post), (uni,))

    def suffix(i):
        if i == len(gates) - 1:
            return gate_node(i)
        rest = suffix(i + 1)
        prog = qs.seq_all(gates[i:])
        triple = pv.HoareTriple(gate_node(i).conclusion.pre, prog,
                                rest.conclusion.post)
        return pv.ProofNode("Seq", triple, (gate_node(i), rest))

    body = suffix(0)
    conclusion = pv.HoareTriple(
        CqAssertion(cl.BinOp("<=", cl.Lit(1), cl.Var("n")),
                    StateProj(states[0])),
        program,
        CqAssertion(cl.TRUE, StateProj(states[-1])))
    root = pv.ProofNode("Conseq", conclusion, (body,))
    return program, root


def perturbed_qft_script(n):
    """The same script with a wrong phase in the final state: the last
    wire's binary fraction is shifted, so the closing consequence fails."""
    program, root = generate_qft(n)
    body = root.premises[0]
    bad_out = asrt.tensor_all(
        [_psi(p, n + 1 - p, n) for p in range(1, n)] + [_psi(n, 1, n - 1)]
        if n > 1 else [_psi(1, 1, 1)])
    if n == 1:
        bad_out = asrt.Superpose(
            _half(), asrt.Ket(cl.Lit(0), _q(1)),
            cl.BinOp("*", _half(), cl.Call("exp2pi", (cl.Lit(0.25),))),
            asrt.Ket(cl.Lit(1), _q(1)))
    conclusion = pv.HoareTriple(
        root.conclusion.pre, program,
        CqAssertion(cl.TRUE, StateProj(bad_out)))
    return program, pv.ProofNode("Conseq", conclusion, (body,))
