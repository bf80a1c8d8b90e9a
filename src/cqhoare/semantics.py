"""Operational and structural semantics for cq-states.

A configuration's fuel counts loop unrollings: every transition that
expands `while b do P` with the guard true consumes one unit, all other
transitions are free.  With that convention a run always terminates, the
items reached with fuel n are exactly the outputs available within n
unrollings, and the nontermination lower bound after fuel n is the trace
still sitting in unfinished loops.
"""

from dataclasses import dataclass

import numpy as np

from . import classical as cl
from . import qsyntax as qs
from .linalg import DensityOperator
from .structures import init_operators

BRANCH_CAP = 10 ** 6


class SemanticsError(ValueError):
    pass


@dataclass
class CqState:
    sigma: cl.ClassicalState
    rho: DensityOperator

    def trace(self):
        return self.rho.trace()


@dataclass
class Configuration:
    program: object  # Program or None when terminated
    state: CqState

    @property
    def terminated(self):
        return self.program is None


@dataclass
class OutcomeMultiset:
    """Terminated items, unfinished configurations, and the blocked,
    pruned and input mass; after a stacked run, each mass is an array
    with one entry per member."""

    items: list
    residual: list  # of Configuration
    blocked_trace: float = 0.0
    pruned_trace: float = 0.0
    input_trace: float = 0.0

    def items_trace(self):
        return sum(s.trace() for s in self.items)

    def residual_trace(self):
        return sum(c.state.trace() for c in self.residual)


def _atomic(p, state, interp):
    """Successor states of an atomic statement, in outcome order, or None
    when a distinctness premise fails and the statement is blocked.

    The one implementation of skip, assignment, initialization, unitaries
    and measurement, shared by `step` and the structural semantics.
    """
    sigma, rho = state.sigma, state.rho
    if isinstance(p, qs.Skip):
        return [state]
    if isinstance(p, qs.Assign):
        v = cl.eval_expr(sigma, p.expr)
        t = interp.classical_vars.get(p.var)
        if t is not None and not t.contains(v):
            raise SemanticsError(
                "assignment of %r to %s leaves its declared type" % (v, p.var))
        return [CqState(sigma.update(p.var, v), rho)]
    if isinstance(p, qs.Init):
        fam, targets = None, (p.qvar,)
    elif isinstance(p, qs.Gate):
        fam, targets = interp.gate(p.name), p.targets
    elif isinstance(p, qs.Measure):
        fam, targets = interp.measurement(p.meas), p.targets
    else:
        raise SemanticsError("unknown program node %r" % (p,))
    sids = [interp.resolve(sigma, q) for q in targets]
    if len(set(sids)) < len(sids):
        return None
    dims = tuple(rho.layout.dim_of(s) for s in sids)
    want = (interp.dim_of(sids[0]),) if fam is None else tuple(fam.dims)
    if dims != want:
        raise SemanticsError("%s expects dimensions %s, got %s"
                             % (qs.pretty(p), want, dims))
    if fam is None:
        branches = [(sigma, init_operators(dims[0]))]
    elif isinstance(p, qs.Gate):
        params = tuple(cl.eval_expr(sigma, e) for e in p.params)
        branches = [(sigma, [fam.matrix(params, interp.tolerances)])]
    else:
        branches = [(sigma.update(p.var, m), [op])
                    for m, op in fam.operators.items()]
    out = []
    for s, ops in branches:  # sum_i E_i rho E_i^dagger
        rhos = [rho.apply(e, sids) for e in ops]
        # a sum would turn a lone operator's negative zeros positive
        out.append(CqState(s, rhos[0] if len(rhos) == 1 else DensityOperator(
            rho.layout, sum(r.mat for r in rhos))))
    return out


@dataclass
class _Succ:
    program: object
    state: CqState
    loop_step: bool = False


@dataclass
class StepResult:
    successors: list
    blocked: bool = False


def step(config, interp):
    """One small-step transition; zero successors with blocked=True when a
    distinctness premise fails."""
    p, s = config.program, config.state
    if p is None:
        raise SemanticsError("configuration already terminated")
    # (a; b); c steps as a; (b; c), so a left-nested sequence of any
    # length costs one recursion and leaves a right-nested residual
    while isinstance(p, qs.Seq) and isinstance(p.first, qs.Seq):
        p = qs.Seq(p.first.first, qs.Seq(p.first.second, p.second))
    if isinstance(p, qs.Seq):
        inner = step(Configuration(p.first, s), interp)
        succ = []
        for t in inner.successors:
            nxt = p.second if t.program is None else qs.Seq(t.program, p.second)
            succ.append(_Succ(nxt, t.state, t.loop_step))
        return StepResult(succ, blocked=inner.blocked)
    if isinstance(p, qs.If):
        branch = p.then if cl.satisfies(s.sigma, p.cond) else p.orelse
        return StepResult([_Succ(branch, s)])
    if isinstance(p, qs.While):
        if cl.satisfies(s.sigma, p.cond):
            return StepResult([_Succ(qs.Seq(p.body, p), s, loop_step=True)])
        return StepResult([_Succ(None, s)])
    succ = _atomic(p, s, interp)
    if succ is None:
        return StepResult([], blocked=True)
    return StepResult([_Succ(None, t) for t in succ])


def run(program, state, fuel, interp, branch_cap=BRANCH_CAP, prune=None):
    """Breadth-first closure of step with a loop-unrolling budget.

    `state.rho` is one density operator or a stack of B of them sharing
    the classical state.  Control flow and measurement branching depend
    only on sigma and the outcomes, so a stack's members take one branch
    tree and are run together; one operator is run as a stack of one.
    For a stack, the items and residual hold stacks and the traces are
    arrays of member traces.

    Pruning is per member: a member whose trace in a branch falls below
    `prune` is counted once into its own pruned mass and zeroed there,
    and the branch goes on while another member is above `prune`.
    Blocked and residual mass are per member too.  `branch_cap` counts
    the batch's branches, which are the union of its members' trees.
    """
    prune = interp.tolerances.prune if prune is None else prune
    layout, mat = state.rho.layout, state.rho.mat
    single = mat.ndim == 2
    state = CqState(state.sigma,
                    DensityOperator(layout, mat[None] if single else mat))
    b = state.rho.mat.shape[0]
    out = OutcomeMultiset([], [], blocked_trace=np.zeros(b),
                          pruned_trace=np.zeros(b), input_trace=state.trace())
    queue = [(program, state, fuel)]
    while queue:
        if len(queue) + len(out.items) > branch_cap:
            raise SemanticsError("branch cap exceeded")
        nxt = []
        for prog, st, f in queue:
            tr = st.trace()
            low = tr < prune
            if low.any():
                out.pruned_trace += np.where(low, np.maximum(tr, 0.0), 0.0)
                if low.all():
                    continue
                st = CqState(st.sigma, DensityOperator(
                    layout, np.where(low[:, None, None], 0, st.rho.mat)))
                tr = np.where(low, 0.0, tr)
            if prog is None:
                out.items.append(st)
                continue
            res = step(Configuration(prog, st), interp)
            if res.blocked:
                out.blocked_trace += tr
                continue
            for t in res.successors:
                if t.loop_step:
                    if f == 0:
                        out.residual.append(Configuration(prog, st))
                    else:
                        nxt.append((t.program, t.state, f - 1))
                else:
                    nxt.append((t.program, t.state, f))
        queue = nxt
    return _unstack(out) if single else out


def _unstack(out):
    """The outcome of a stack of one, with single operators and floats."""
    def one(s):
        return CqState(s.sigma, DensityOperator(s.rho.layout, s.rho.mat[0]))
    return OutcomeMultiset(
        [one(s) for s in out.items],
        [Configuration(c.program, one(c.state)) for c in out.residual],
        blocked_trace=float(out.blocked_trace[0]),
        pruned_trace=float(out.pruned_trace[0]),
        input_trace=float(out.input_trace[0]))


# ---------------------------------------------------------------------------
# Structural (denotational) semantics: control flow, fuel and residuals
# independent of `step`; only the atomic statements are shared


def _seq_residual(cfg, second):
    if second is None:
        return cfg
    prog = second if cfg.program is None else qs.Seq(cfg.program, second)
    return Configuration(prog, cfg.state)


def _ssem_seq(program, state, fuel, interp, prune):
    """A sequence, part by part in `qs.seq_parts` order, depth first with
    an explicit stack, so that a long sequence does not recurse."""
    parts = qs.seq_parts(program)
    rests = None  # rests[i]: the program left after parts[i], or None
    items, residual, blocked, pruned = [], [], 0.0, 0.0
    stack = [(0, state, fuel)]
    while stack:
        i, st, f = stack.pop()
        if i == len(parts):
            items.append((st, f))
            continue
        i1, r1, b1, p1 = _ssem(parts[i], st, f, interp, prune)
        if r1 and rests is None:
            rests = [None]
            for c in reversed(parts[1:]):
                rests.append(c if rests[-1] is None else qs.Seq(c, rests[-1]))
            rests.reverse()
        residual.extend(_seq_residual(c, rests[i]) for c in r1)
        blocked += b1
        pruned += p1
        stack.extend((i + 1, s, g) for s, g in reversed(i1))
    return items, residual, blocked, pruned


def _ssem(program, state, fuel, interp, prune):
    """Returns (list of (CqState, fuel_left), residual, blocked, pruned)."""
    sigma = state.sigma
    tr = state.trace()
    if tr < prune:
        return [], [], 0.0, max(tr, 0.0)
    if isinstance(program, qs.Seq):
        return _ssem_seq(program, state, fuel, interp, prune)
    if isinstance(program, qs.If):
        branch = program.then if cl.satisfies(sigma, program.cond) else program.orelse
        return _ssem(branch, state, fuel, interp, prune)
    if isinstance(program, qs.While):
        if not cl.satisfies(sigma, program.cond):
            return [(state, fuel)], [], 0.0, 0.0
        if fuel == 0:
            return [], [Configuration(program, state)], 0.0, 0.0
        ib, rb, bb, pb = _ssem(program.body, state, fuel - 1, interp, prune)
        items = []
        residual = [_seq_residual(c, program) for c in rb]
        blocked, pruned = bb, pb
        for st, f in ib:
            i2, r2, b2, p2 = _ssem(program, st, f, interp, prune)
            items.extend(i2)
            residual.extend(r2)
            blocked += b2
            pruned += p2
        return items, residual, blocked, pruned
    succ = _atomic(program, state, interp)
    if succ is None:
        return [], [], tr, 0.0
    items, pruned = [], 0.0
    for st in succ:
        if st.trace() < prune:
            pruned += max(st.trace(), 0.0)
        else:
            items.append((st, fuel))
    return items, [], 0.0, pruned


def structural_sem(program, state, fuel, interp, prune=None):
    """Denotational multiset by structural recursion; oracle for run."""
    prune = interp.tolerances.prune if prune is None else prune
    items, residual, blocked, pruned = _ssem(program, state, fuel, interp, prune)
    out = OutcomeMultiset(
        [st for st, _ in items], residual,
        blocked_trace=blocked, pruned_trace=pruned,
        input_trace=state.trace())
    return out


def nt_lower_bound(program, state, fuel, interp):
    """tr(rho) minus the terminated mass reachable within `fuel` unrollings."""
    out = run(program, state, fuel, interp)
    return state.trace() - out.items_trace()


# ---------------------------------------------------------------------------
# Multisets, Theta, equivalence


def theta_of(outcome, sigma):
    """Sum of the quantum parts of all items at the given classical state."""
    layout = None
    acc = None
    for st in outcome.items:
        if layout is None:
            layout = st.rho.layout
        elif st.rho.layout != layout:
            raise SemanticsError("items do not share a layout")
        if st.sigma == sigma:
            acc = st.rho.mat if acc is None else acc + st.rho.mat
    if layout is None:
        raise SemanticsError("empty outcome has no layout")
    if acc is None:
        acc = np.zeros((layout.dim, layout.dim), dtype=complex)
    return DensityOperator(layout, acc)


def normalize(outcome, prune=1e-14):
    """Merge items per classical state, dropping (near-)zero entries."""
    by_sigma = {}
    for st in outcome.items:
        key = st.sigma.key()
        if key in by_sigma:
            prev = by_sigma[key]
            by_sigma[key] = CqState(st.sigma, DensityOperator(
                prev.rho.layout, prev.rho.mat + st.rho.mat))
        else:
            by_sigma[key] = CqState(st.sigma, st.rho.copy())
    return [st for st in by_sigma.values() if st.trace() >= prune]


def multiset_equal(items1, items2, tol=1e-12):
    """Equality up to permutation: classical parts exact, quantum parts
    within tol elementwise."""
    if len(items1) != len(items2):
        return False
    rest = list(items2)
    for a in items1:
        hit = None
        for i, b in enumerate(rest):
            if a.sigma == b.sigma and a.rho.layout == b.rho.layout and \
                    np.max(np.abs(a.rho.mat - b.rho.mat)) <= tol:
                hit = i
                break
        if hit is None:
            return False
        rest.pop(hit)
    return True


@dataclass
class EquivVerdict:
    equal: object  # True / False / None (inconclusive)
    reason: str = ""
    witness: object = None


def equivalent(p1, p2, inputs, fuel, interp, tol=1e-9):
    """Test-input equivalence: per input, the per-sigma summed outputs agree
    and both runs terminate (tiny residual)."""
    for st in inputs:
        o1 = run(p1, st, fuel, interp)
        o2 = run(p2, st, fuel, interp)
        if o1.residual_trace() > tol or o2.residual_trace() > tol:
            return EquivVerdict(None, "residual trace at finite fuel", st.sigma)
        n1 = {s.sigma.key(): s for s in normalize(o1)}
        n2 = {s.sigma.key(): s for s in normalize(o2)}
        for key in set(n1) | set(n2):
            a, b = n1.get(key), n2.get(key)
            if a is None or b is None:
                m = (a or b).rho.mat
                if np.max(np.abs(m)) > tol:
                    return EquivVerdict(False, "output only on one side", key)
                continue
            if a.rho.layout != b.rho.layout:
                return EquivVerdict(False, "layout mismatch", key)
            if np.max(np.abs(a.rho.mat - b.rho.mat)) > tol:
                return EquivVerdict(False, "quantum outputs differ", key)
    return EquivVerdict(True)
