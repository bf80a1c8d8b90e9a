"""Formal quantum states, quantum predicate formulas and cq-assertions.

Evaluation is per classical state sigma, batched over a tuple of them, and
partial: an evaluation either yields an effect on the Hilbert space of the
resolved signature or is "not well-defined" (overlapping signatures, failed
distinctness, or a formal state of norm other than 1; never silently
renormalized).
"""

from dataclasses import dataclass

import numpy as np

from . import classical as cl
from . import linalg as la
from . import qsyntax as qs
from .qsyntax import (QVar, _LEVEL, MAX_DEPTH, _Parser, ParseError, format_expr,
                      format_qvar)


class AssertionError_(ValueError):
    pass


class NotWellDefined(Exception):
    def __init__(self, reason):
        self.reason = reason
        super().__init__(reason)


# ---------------------------------------------------------------------------
# ASTs


@dataclass(frozen=True)
class Ket:
    value: object  # ClassicalExpr selecting the basis element
    qvar: QVar


@dataclass(frozen=True)
class STensor:
    left: object
    right: object


@dataclass(frozen=True)
class Superpose:
    c1: object
    s1: object
    c2: object
    s2: object


@dataclass(frozen=True)
class GateApp:
    gate: str
    params: tuple
    targets: tuple
    state: object


@dataclass(frozen=True)
class Atomic:
    name: str
    params: tuple
    targets: tuple


@dataclass(frozen=True)
class StateProj:
    state: object


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class PTensor:
    left: object
    right: object


@dataclass(frozen=True)
class Kraus:
    name: str
    params: tuple
    targets: tuple
    branches: tuple


@dataclass(frozen=True)
class CqAssertion:
    phi: object  # classical Formula
    a: object  # PredicateFormula


def tensor_all(states):
    states = list(states)
    out = states[0]
    for s in states[1:]:
        out = STensor(out, s)
    return out


def scaled(coeff, state):
    """coeff * state, encoded as a superposition with a zero branch."""
    if isinstance(coeff, cl.Lit) and coeff.value == 1:
        return state
    return Superpose(coeff, state, cl.Lit(0), state)


def superpose_sum(terms):
    """Fold a list of (coeff, state) into nested binary superpositions."""
    terms = list(terms)
    if len(terms) == 1:
        return scaled(terms[0][0], terms[0][1])
    out = Superpose(terms[0][0], terms[0][1], terms[1][0], terms[1][1])
    for c, s in terms[2:]:
        out = Superpose(cl.Lit(1), out, c, s)
    return out


# ---------------------------------------------------------------------------
# Evaluation
#
# Evaluation is batched: a formal state or predicate is evaluated at a tuple
# of classical states, its batch, and gives one result stacked over the
# members, on one layout.  A batch whose members do not evaluate alike
# raises _Mixed; its caller then evaluates each member as a batch of one,
# which never does.  A leaf expression is evaluated once per distinct
# restriction of the members to what it reads (`cl.reads`).


class _Mixed(Exception):
    """The members of a batch differ in resolved targets, layout,
    parameters or well-definedness, or one of them raises, or their dense
    effects would not fit in STACK_BYTES together."""


# the most bytes a batch's stacked D x D effects may take
STACK_BYTES = 2 ** 26


def _dense_shape(sigmas, layout):
    """(S, D, D) for the dense effects of a batch of S on `layout`."""
    d = layout.dim
    if len(sigmas) > 1 and 16 * len(sigmas) * d * d > STACK_BYTES:
        raise _Mixed
    return len(sigmas), d, d


def _to_index(v, dim, what):
    if isinstance(v, bool):
        v = int(v)
    if isinstance(v, complex):
        if abs(v.imag) > cl.INT_TOL:
            raise NotWellDefined("%s is not an integer" % what)
        v = v.real
    v = cl.near_int(v)
    if isinstance(v, float):
        raise NotWellDefined("%s is not an integer" % what)
    if isinstance(v, cl.Bits):
        v = v.as_int()
    if not isinstance(v, int):
        raise NotWellDefined("%s is not a basis label" % what)
    if not 0 <= v < dim:
        raise NotWellDefined("%s out of range" % what)
    return v


def _resolve_distinct(interp, sigma, targets, what):
    sids = [interp.resolve(sigma, q) for q in targets]
    if len(set(sids)) != len(sids):
        raise NotWellDefined("distinctness fails for %s" % what)
    return sids


def _read_key(sigma, item):
    """Hashable form of the part of sigma that an item of `cl.reads` names."""
    if isinstance(item, str):
        return _value_key(sigma.get(item, _unbound))
    name, r = item
    v = sigma.get(name, _unbound)
    if not isinstance(v, cl.Bits):
        return _value_key(v)
    k = r - v.lo
    return (cl.Bits, v.bits[k] if 0 <= k < len(v.bits) else None)


def _agree(reasons):
    """Return when no member has a NotWellDefined reason; raise the reason
    when every member has the same one, and _Mixed otherwise."""
    first = reasons[0]
    if any(r != first for r in reasons):
        raise _Mixed
    if first is not None:
        raise NotWellDefined(first)


def _each(sigmas, exprs, fn):
    """[fn(sigma) for sigma in sigmas], with fn called once per distinct
    restriction of sigma to what the expressions `exprs` read.  In a batch
    of one, fn's errors pass through; in a larger batch, any error but a
    NotWellDefined that every member raises alike is _Mixed."""
    if len(sigmas) == 1:
        return [fn(sigmas[0])]
    items = tuple(set().union(*map(cl.reads, exprs)))
    done, out = {}, []
    for sigma in sigmas:
        key = tuple(_read_key(sigma, x) for x in items)
        if key not in done:
            try:
                done[key] = fn(sigma)
            except NotWellDefined as e:
                done[key] = e
            except Exception as e:  # raised again by the member alone
                raise _Mixed from e
        out.append(done[key])
    _agree([v.reason if isinstance(v, NotWellDefined) else None for v in out])
    return out


def _same(sigmas, exprs, fn, key=lambda v: v):
    """fn's value as `_each` computes it, which every member must share
    (compared by `key`), or _Mixed."""
    values = _each(sigmas, exprs, fn)
    if len(values) > 1:
        first = key(values[0])
        if any(key(v) != first for v in values[1:]):
            raise _Mixed
    return values[0]


def _params(sigmas, exprs):
    """The values of parameter expressions, one tuple for the batch."""
    if not exprs:
        return ()
    return _same(sigmas, exprs, lambda s: tuple(cl.eval_expr(s, e) for e in exprs),
                 key=lambda ps: tuple(map(_value_key, ps)))


def _targets(sigmas, interp, targets, what):
    """The resolved, distinct systems of `targets`, one list for the batch."""
    return _same(sigmas, (e for q in targets for e in q.subs),
                 lambda s: _resolve_distinct(interp, s, targets, what))


# ---------------------------------------------------------------------------
# Evaluation memo
#
# A memo is a plain dict that one call (`check_script`, `fuzz_triple`) makes
# for one interpretation and drops when it returns.  It holds
#   id(node)          -> (node, token, names): the node's intern entry, made
#                        once per node object; keeping the node keeps its id
#                        from being reused while the memo lives
#   ("tree", key)     -> token: one token per tree, literals compared with
#                        their types, so Lit(1), Lit(1.0) and Lit(True) differ
#   ("rows", rows)    -> token: one token per batch restricted to some names,
#                        `rows` holding each member's values of them
#   ("batch", id(batch), names) -> (batch, token): that token, made once per
#                        batch object of more than one member and names
#   (token, batch token) -> (stack, layout), the NotWellDefined reason, or
#                        _Mixed, of a formal state at a batch restricted to
#                        its classical variables
#   ("layout", systems) -> the one layout object those entries share
#   ("tensor", id(l1), id(l2)) -> (l1, l2, (layout, dims, perm)), or
#                        (l1, l2, reason): for a tensor of states on two of
#                        those layouts, the union layout and the axis order
#                        that takes the product to it (None if unchanged)
#   ("satisfying", names, id(phi)) -> (phi, (batches, error)): the batches
#                        of the classical states over the frozenset `names`
#                        that satisfy phi, in order, and the error phi
#                        raised after them, or None; or (phi, Verdict), the
#                        inconclusive Verdict of the enumeration.  A loaded
#                        document parses each formula text once, so every
#                        entailment of a script with that phi decides the
#                        same batch objects
# Operators are never stored: a D x D matrix per sigma would outweigh the
# vectors it is built from.


_FORMAL = (Ket, STensor, Superpose, GateApp, Atomic, StateProj, Neg, PTensor, Kraus)


def _tree_key(memo, x, names):
    """Key of a field value; adds the classical variables it mentions to
    `names`, unless that is None."""
    if isinstance(x, _FORMAL):
        _, token, sub = _intern(memo, x)
        names.update(sub)
        return token
    if isinstance(x, tuple):
        return tuple(_tree_key(memo, y, names) for y in x)
    fs = qs.field_names(type(x))
    if fs is None:
        return (type(x), repr(x))
    if names is not None and isinstance(x, cl.EXPRS):
        names |= cl.free_vars(x)
        names = None  # the variables below are counted, bound ones left out
    return (type(x),) + tuple(_tree_key(memo, getattr(x, f), names) for f in fs)


def _intern(memo, node):
    """(node, token, names) for a formal state or predicate; `names` are its
    sorted classical variables.  The key and the names of a node are built
    from its children's entries, so each node is walked once."""
    entry = memo.get(id(node))
    if entry is None:
        names = set()
        key = (type(node),) + tuple(_tree_key(memo, getattr(node, f), names)
                                    for f in qs.field_names(type(node)))
        # tokens are memo sizes, which never repeat as the memo only grows
        token = memo.setdefault(("tree", key), len(memo))
        entry = memo[id(node)] = (node, token, tuple(sorted(names)))
    return entry


_unbound = object()  # key value of a variable sigma lacks; evaluation raises


def _value_key(v):
    # 1, 1.0 and True are equal as keys but not as values, nor are 0.0 and
    # -0.0; so only an int, a string or a bit array stands for itself
    return v if type(v) in (int, str, cl.Bits) else (type(v), repr(v))


def sigma_key(sigma):
    """Hashable form of a classical state that tells 1, 1.0 and True apart."""
    return tuple((n, _value_key(v)) for n, v in sigma.key())


def _batch_token(memo, sigmas, names):
    """Token of a batch restricted to `names`: batches whose members agree
    on those values, in order, share it."""
    key = ("batch", id(sigmas), names)
    hit = memo.get(key) if len(sigmas) > 1 else None
    if hit is None:
        rows = tuple(tuple(_value_key(s.get(n, _unbound)) for n in names)
                     for s in sigmas)
        hit = (sigmas, memo.setdefault(("rows", rows), len(memo)))
        if len(sigmas) > 1:  # holding the batch keeps its id from reuse
            memo[key] = hit
    return hit[1]


def _eval_state(sigmas, s, interp, memo=None):
    """(stack, layout): the formal state's vector at each member of the
    batch `sigmas`, stacked S x D on one layout.  Raises NotWellDefined
    when every member is not well-defined for one reason, and _Mixed when
    the members differ.  With a memo, each state is evaluated once per
    batch restricted to its variables; other errors are not stored and
    recur on the next call."""
    if memo is None:
        return _eval_state_node(sigmas, s, interp, None)
    _, token, names = _intern(memo, s)
    key = (token, _batch_token(memo, sigmas, names))
    hit = memo.get(key)
    if hit is None:
        try:
            vec, layout = _eval_state_node(sigmas, s, interp, memo)
        except NotWellDefined as e:
            hit = e.reason
        except _Mixed:
            hit = _Mixed
        else:
            vec = np.array(vec)  # a compact copy, free of the views it came from
            vec.flags.writeable = False
            hit = (vec, memo.setdefault(("layout", layout.systems), layout))
        memo[key] = hit
    if hit is _Mixed:
        raise _Mixed
    if isinstance(hit, str):
        raise NotWellDefined(hit)
    return hit


def _eval_state_node(sigmas, s, interp, memo):
    if isinstance(s, Ket):
        sid = _same(sigmas, s.qvar.subs, lambda x: interp.resolve(x, s.qvar))
        dim = interp.dim_of(sid)
        idx = _each(sigmas, (s.value,), lambda x: _to_index(
            cl.eval_expr(x, s.value), dim, "ket label"))
        vec = np.zeros((len(sigmas), dim), dtype=complex)
        vec[np.arange(len(sigmas)), idx] = 1.0
        return vec, la.RegisterLayout(((sid, dim),))
    if isinstance(s, STensor):
        v1, l1 = _eval_state(sigmas, s.left, interp, memo)
        v2, l2 = _eval_state(sigmas, s.right, interp, memo)
        layout, dims, perm = _tensor_layout(l1, l2, interp, memo)
        vec = (v1[:, :, None] * v2[:, None, :]).reshape(len(sigmas), -1)
        if perm is not None:
            vec = la.permute_vector(vec, dims, perm)
        return vec, layout
    if isinstance(s, Superpose):
        a1 = _each(sigmas, (s.c1,), lambda x: complex(cl.eval_expr(x, s.c1)))
        a2 = _each(sigmas, (s.c2,), lambda x: complex(cl.eval_expr(x, s.c2)))
        v1, l1 = _eval_state(sigmas, s.s1, interp, memo)
        v2, l2 = _eval_state(sigmas, s.s2, interp, memo)
        if set(l1.ids) != set(l2.ids):
            raise NotWellDefined("superposed states have different signatures")
        v2 = la.embed_vector(v2, list(l2.ids), l1)
        return np.array(a1)[:, None] * v1 + np.array(a2)[:, None] * v2, l1
    if isinstance(s, GateApp):
        v, layout = _eval_state(sigmas, s.state, interp, memo)
        gate = interp.gate(s.gate)
        sids = _targets(sigmas, interp, s.targets, "gate targets")
        for sid in sids:
            if sid not in layout:
                raise NotWellDefined("gate target outside the state signature")
        u = gate.matrix(_params(sigmas, s.params), interp.tolerances)
        return la.apply_left(u, v[..., None], sids, layout)[..., 0], layout
    raise AssertionError_("unknown formal state node %r" % (s,))


def _tensor_layout(l1, l2, interp, memo):
    """(layout, dims, perm) of a tensor of states on `l1` and `l2`: the union
    layout, and the permutation of the product's factors (of dimensions
    `dims`) into its order, None when they are in order.  Raises
    NotWellDefined when the two overlap."""
    key = ("tensor", id(l1), id(l2))
    hit = None if memo is None else memo.get(key)
    if hit is None:
        sources = l1.ids + l2.ids
        if len(set(sources)) < len(sources):
            out = "overlapping signatures in tensor"
        else:
            layout = la.union_layout(l1, l2, interp.order_key)
            perm = [sources.index(sid) for sid in layout.ids]
            if perm == list(range(len(perm))):
                perm = None
            if memo is not None:
                layout = memo.setdefault(("layout", layout.systems), layout)
            out = (layout, l1.dims() + l2.dims(), perm)
        hit = (l1, l2, out)  # holding l1 and l2 keeps their ids from reuse
        if memo is not None:
            memo[key] = hit
    if isinstance(hit[2], str):
        raise NotWellDefined(hit[2])
    return hit[2]


def _unit_state(sigmas, s, interp, memo):
    """`_eval_state`, well-defined only at norm 1, up to the trace tolerance."""
    vec, layout = _eval_state(sigmas, s, interp, memo)
    tol = interp.tolerances.trace
    # the stacked norms are within 1e-12 of each member's own, so only a
    # stack with a norm near or past the tolerance needs those
    if not np.all(np.abs(np.linalg.norm(vec, axis=-1) - 1.0) <= tol - 1e-12):
        norms = [float(np.linalg.norm(v)) for v in vec]
        _agree(["state norm %.6g differs from 1" % n if abs(n - 1.0) > tol
                else None for n in norms])
    return vec, layout


def eval_state(sigma, s, interp, memo=None):
    """Evaluate a formal state at one classical state, the batch of one;
    well-defined only at norm 1.  The vector is read-only when it comes
    from a memo."""
    vec, layout = _unit_state((sigma,), s, interp, memo)
    return vec[0], layout


@dataclass
class EvalResult:
    """A predicate's effect, stacked over the members of a batch, or at one
    classical state (`member`).  Where the predicate has a factor V (D x r,
    effect V V^dagger), `factor` holds it and `op` builds the D x D effect
    only when it is asked for; otherwise `op` is the effect, computed
    densely."""

    well_defined: bool
    layout: object = None
    reason: str = ""
    factor: object = None
    dense: object = None

    @property
    def op(self):
        if self.dense is None and self.factor is not None:
            v = self.factor  # one column: an outer product, as np.outer builds it
            self.dense = (v * v[..., :1].conj().swapaxes(-1, -2) if v.shape[-1] == 1
                          else v @ v.conj().swapaxes(-1, -2))
        return self.dense

    def member(self, i):
        """The result at the i-th member of the batch."""
        return EvalResult(self.well_defined, self.layout, self.reason,
                          None if self.factor is None else self.factor[i],
                          None if self.dense is None else self.dense[i])


def _eval_pred(sigmas, a, interp, memo=None):
    """A well-defined EvalResult stacked over the batch `sigmas`, with a
    factor where the predicate has one; raises NotWellDefined or _Mixed as
    `_eval_state` does."""
    if isinstance(a, StateProj):
        vec, layout = _unit_state(sigmas, a.state, interp, memo)
        return EvalResult(True, layout, factor=vec[..., None])
    if isinstance(a, Atomic):
        fam = interp.predicate(a.name)
        k = fam.matrix(_params(sigmas, a.params), interp.tolerances)
        sids = _targets(sigmas, interp, a.targets, "predicate targets")
        layout = interp.make_layout(sids)
        dims = tuple(layout.dim_of(s) for s in sids)
        if dims != tuple(fam.dims):
            raise AssertionError_(
                "predicate %s dimension mismatch" % a.name)
        shape = _dense_shape(sigmas, layout)
        return EvalResult(True, layout, dense=la.embed(k, sids, layout)[None].repeat(
            shape[0], axis=0))
    if isinstance(a, Neg):
        r = _eval_pred(sigmas, a.arg, interp, memo)
        _dense_shape(sigmas, r.layout)
        return EvalResult(True, r.layout,
                          dense=np.eye(r.layout.dim, dtype=complex) - r.op)
    if isinstance(a, PTensor):
        r1 = _eval_pred(sigmas, a.left, interp, memo)
        r2 = _eval_pred(sigmas, a.right, interp, memo)
        l1, l2 = r1.layout, r2.layout
        if set(l1.ids) & set(l2.ids):
            raise NotWellDefined("overlapping signatures in predicate tensor")
        layout = la.union_layout(l1, l2, interp.order_key)
        _dense_shape(sigmas, layout)
        o2 = la.embed(r2.op, l2.ids, layout)
        return EvalResult(True, layout,
                          dense=la.apply_left(r1.op, o2, l1.ids, layout))
    if isinstance(a, Kraus):
        sym = interp.kraus_symbol(a.name)
        if len(a.branches) != sym.rank:
            raise AssertionError_(
                "kraus symbol %s expects %d branches" % (a.name, sym.rank))
        ops = sym.operators(_params(sigmas, a.params), interp.tolerances)
        evs = [_eval_pred(sigmas, b, interp, memo) for b in a.branches]
        layout = evs[0].layout
        for r in evs[1:]:
            layout = la.union_layout(layout, r.layout, interp.order_key)
        if sym.dims is None:
            out = np.zeros(_dense_shape(sigmas, layout), dtype=complex)
            for c, r in zip(ops, evs):
                out += (abs(c) ** 2) * la.embed(r.op, list(r.layout.ids), layout)
            return EvalResult(True, layout, dense=out)
        sids = _targets(sigmas, interp, a.targets, "kraus targets")
        for sid in sids:
            if sid not in layout:
                raise NotWellDefined("kraus target outside branch signature")
        dims = tuple(layout.dim_of(s) for s in sids)
        if dims != tuple(sym.dims):
            raise AssertionError_("kraus symbol %s dimension mismatch" % a.name)
        if all(r.factor is not None and r.layout.systems == layout.systems
               for r in evs):
            # E V per branch: the effect sum E V V^dagger E^dagger, factored
            return EvalResult(True, layout, factor=np.concatenate(
                [la.apply_left(f, r.factor, sids, layout) for f, r in zip(ops, evs)],
                axis=-1))
        out = np.zeros(_dense_shape(sigmas, layout), dtype=complex)
        for f, r in zip(ops, evs):
            b = la.embed(r.op, list(r.layout.ids), layout)
            out += la.conjugate(f, b, sids, layout)
        return EvalResult(True, layout, dense=out)
    raise AssertionError_("unknown predicate node %r" % (a,))


def _eval_result(sigmas, a, interp, memo):
    """`_eval_pred`, with a uniform NotWellDefined as its result."""
    try:
        return _eval_pred(sigmas, a, interp, memo)
    except NotWellDefined as e:
        return EvalResult(False, reason=e.reason)


def eval_predicate(sigma, a, interp, memo=None):
    """The predicate's EvalResult at one classical state, the batch of one."""
    return _eval_result((sigma,), a, interp, memo).member(0)


# ---------------------------------------------------------------------------
# Substitution and syntactic equality


def subst_predicate(a, e, x):
    """a[e/x], componentwise everywhere, including tensors and projectors."""
    return qs.map_exprs(a, lambda s: cl.subst(s, e, x))


def pred_equal(a, b):
    """Syntactic match of two predicates (`qs.same_syntax`)."""
    return qs.same_syntax(a, b)


# ---------------------------------------------------------------------------
# Entailment


@dataclass
class Verdict:
    status: str  # "holds" | "fails" | "inconclusive"
    witness: object = None
    reason: str = ""

    @property
    def holds(self):
        return self.status == "holds"


def enumerate_states(names, interp):
    """Every classical state over `names` under the interpretation's typing,
    or an inconclusive Verdict when a name has no enumerable type or the
    state space exceeds the cap."""
    try:
        return list(cl.iter_states(interp.classical_vars, names))
    except cl.EvalError as e:
        return Verdict("inconclusive", reason=str(e))


# the most members decided together: a batch of vectors takes S x D entries
BATCH_CAP = 64


def _satisfying(states, phi):
    """The states that satisfy phi, in batches of up to BATCH_CAP, in order.
    An error of phi at a state is raised after the batch before it is
    yielded, so that the states before it can be decided first."""
    part = []
    for sigma in states:
        try:
            ok = cl.satisfies(sigma, phi)
        except Exception:
            if part:
                yield tuple(part)
            raise
        if ok:
            part.append(sigma)
            if len(part) == BATCH_CAP:
                yield tuple(part)
                part = []
    if part:
        yield tuple(part)


def _batches(names, phi, interp, memo):
    """(batches, error): the batches `_satisfying` yields over the states of
    `names`, listed, and the error it raises after them, or None; or the
    inconclusive Verdict of the enumeration.  With a memo they are listed
    once per set of names and phi object."""
    key = memo is not None and ("satisfying", frozenset(names), id(phi))
    if key and key in memo:
        return memo[key][1]
    hit = enumerate_states(names, interp)
    if not isinstance(hit, Verdict):
        batches, error = [], None
        try:
            batches.extend(_satisfying(hit, phi))
        except Exception as e:  # raised once the batches before it are decided
            error = e.with_traceback(None)  # it pins no frame while kept
        hit = batches, error
    if key:
        memo[key] = phi, hit  # keeping phi keeps its id from being reused
    return hit


def _loewner_le(batch, ra, rb, interp):
    """Per member, A <= B up to the psd tolerance, for two well-defined
    results stacked over the batch: on their factors when both have one on
    the same systems, else densely."""
    tol = interp.tolerances.psd
    if ra.factor is not None and rb.factor is not None and \
            ra.layout.systems == rb.layout.systems:
        return la.min_eig_difference(ra.factor, rb.factor) >= -tol
    layout = la.union_layout(ra.layout, rb.layout, interp.order_key)
    _dense_shape(batch, layout)
    oa = la.embed(ra.op, list(ra.layout.ids), layout)
    ob = la.embed(rb.op, list(rb.layout.ids), layout)
    return la.is_psd(ob - oa, tol)


def _batch_failure(batch, a, b, reflexive, interp, memo):
    """(index, reason) of the first member at which A <= B fails, or None;
    raises _Mixed when the members do not evaluate alike."""
    ra = _eval_result(batch, a, interp, memo)
    if reflexive:
        return None
    rb = _eval_result(batch, b, interp, memo)
    if ra.well_defined != rb.well_defined:
        return 0, "well-definedness disagrees"
    if ra.well_defined:
        bad = np.flatnonzero(~_loewner_le(batch, ra, rb, interp))
        if bad.size:
            return int(bad[0]), "Loewner order fails"
    return None


def _first_failure(batch, a, b, reflexive, interp, memo):
    """`_batch_failure`, member by member when the batch cannot be decided
    together."""
    if len(batch) > 1:
        try:
            return _batch_failure(batch, a, b, reflexive, interp, memo)
        except (_Mixed, np.linalg.LinAlgError):
            pass
    for i, sigma in enumerate(batch):
        failure = _batch_failure((sigma,), a, b, reflexive, interp, memo)
        if failure is not None:
            return i, failure[1]
    return None


def entails(phi, a, b, interp, memo=None):
    """phi |= A <= B by exhaustive enumeration of the classical states.

    At each satisfying sigma, A and B must agree on well-definedness, and
    where both are defined, B - A must be positive semidefinite up to
    `interp.tolerances.psd`.  That is decided on the factors of A and B
    when both have one on the same systems (a projector onto a formal
    state, or a Kraus symbol with dimensions applied to such branches), on
    an r x r matrix for r their summed ranks; Atomic, Neg, PTensor, scalar
    Kraus symbols and branches on differing layouts are compared as dense
    D x D effects.

    The satisfying states are decided in batches of up to BATCH_CAP, in
    enumeration order: A and B are evaluated once per batch, and one stacked
    decomposition decides every member.  A batch whose members do not
    evaluate alike is decided member by member.  Either way the verdict,
    the witness (the first failing state) and any error raised are those
    of deciding one state after another.

    With a memo, the classical variables of A and B come from their memo
    entries, and A and B that are the same tree are reflexive: A is still
    evaluated, so its errors and well-definedness decide as before, but B
    and the Loewner comparison (B - A = 0) are skipped.  The batches that
    satisfy phi are listed before any is decided, and with a memo once per
    set of names and phi: an error phi raises is kept with the batches
    before it, and raised again after those are decided."""
    if memo is None:
        names, reflexive = qs.classical_vars((phi, a, b)), False
    else:
        (_, ta, na), (_, tb, nb) = _intern(memo, a), _intern(memo, b)
        names, reflexive = cl.free_vars(phi).union(na, nb), ta == tb
    hit = _batches(names, phi, interp, memo)
    if isinstance(hit, Verdict):
        return hit
    batches, error = hit
    checked = 0
    for batch in batches:
        failure = _first_failure(batch, a, b, reflexive, interp, memo)
        if failure is not None:
            return Verdict("fails", witness=batch[failure[0]], reason=failure[1])
        checked += len(batch)
    if error is not None:
        raise error.with_traceback(None)  # a replay adds no frames to a kept one
    return Verdict("holds", reason="%d states checked" % checked)


def classical_entails(phi, psi, interp):
    states = enumerate_states(cl.free_vars(phi) | cl.free_vars(psi), interp)
    if isinstance(states, Verdict):
        return states
    for sigma in states:
        if cl.satisfies(sigma, phi) and not cl.satisfies(sigma, psi):
            return Verdict("fails", witness=sigma, reason="classical entailment fails")
    return Verdict("holds")


def cq_entails(pre, post, interp, memo=None):
    """(phi, A) |= (psi, B): classical entailment plus Loewner entailment."""
    c = classical_entails(pre.phi, post.phi, interp)
    if c.status != "holds":
        return c
    return entails(pre.phi, pre.a, post.a, interp, memo)


# ---------------------------------------------------------------------------
# Concrete syntax for formal states


class _StateParser(_Parser):
    """With a cache, every bracketed factor "( ... )" of a document is read
    once: its tree is kept under its exact text with the levels it opens,
    and reused where the levels open before it leave room for them under
    `MAX_DEPTH` (elsewhere it is read again, to raise the same DepthError)."""

    def __init__(self, src, cache=None):
        super().__init__(src)
        self.src = src
        self.cache = cache  # the document's `qs.parse_once` cache, or None
        self._closing = {}  # token index of the ")" matching each "("
        self._around_ket = set()  # the "(" whose brackets enclose a "|"
        opened, bars = [], 0  # "|" tokens so far
        for i, t in enumerate(self.toks):
            if t.kind != "SYM":
                continue
            if t.text == "(":
                opened.append((i, bars))
            elif t.text == ")" and opened:
                j, before = opened.pop()
                self._closing[j] = i
                if bars > before:
                    self._around_ket.add(j)
            elif t.text == "|":
                bars += 1

    def shared_factor(self):
        """(key, (tree, levels) or None) for the factor at "(", or (None,
        None) without a cache or a matching ")"."""
        close = self._closing.get(self.pos)
        if self.cache is None or close is None:
            return None, None
        key = ("factor", self.src[self.toks[self.pos].offset:self.toks[close].offset + 1])
        return key, self.cache.get(key)

    def fstate(self):
        base = self.depth
        self.nest()
        terms = [self.fproduct()]
        while self.at_sym("+") or self.at_sym("-"):
            op = self.take().text
            c, s = self.fproduct()
            if op == "-":
                c = cl.UnOp("-", c)
            terms.append((c, s))
            self.nest()  # the sum so far is one level deeper
        self.depth = base
        if len(terms) == 1:
            return scaled(*terms[0])
        return superpose_sum(terms)

    def fproduct(self):
        # A coefficient is a unary-level expression (parenthesize anything
        # containing '*') followed by an explicit '*'; parsing at the
        # multiplicative level would swallow the separating star.
        coeff = cl.Lit(1)
        save, base = self.pos, self.depth
        if self.pos not in self._around_ket:  # no expression holds a ket
            try:
                e = self.unary()
                self.expect("SYM", "*")
                coeff = e
            except ParseError:
                self.pos, self.depth = save, base
        factors = [self.fapp()]
        while self.at_sym("|") or self.at_sym("(") or self._at_gate():
            factors.append(self.fapp())
            self.nest()  # the product so far is one level deeper
        self.depth = base
        return coeff, tensor_all(factors)

    def _at_gate(self):
        return self.at("IDENT") and (self.at_sym("(", 1) or self.at_sym("[", 1))

    def fapp(self):
        if self._at_gate():
            name = self.take().text
            params = ()
            if self.at_sym("("):
                self.take()
                params = tuple(self.expr_list())
                self.expect("SYM", ")")
            self.expect("SYM", "[")
            targets = tuple(self.qvar_list())
            self.expect("SYM", "]")
            self.nest()
            state = self.fapp()
            self.depth -= 1
            return GateApp(name, params, targets, state)
        return self.fatom()

    def fatom(self):
        if self.at_sym("|"):
            self.take()
            value = self.expr(_LEVEL["+"])  # a sum; ">" closes the ket
            self.expect("SYM", ">")
            t = self.peek()
            if t.kind == "IDENT" and len(t.text) > 1 and t.text[0] == "_":
                # the lexer glues "_name" into one identifier
                self.toks[self.pos] = type(t)(t.kind, t.text[1:], t.line,
                                              t.col + 1, t.offset + 1)
            else:
                self.expect("SYM", "_")
            q = self.qvar()
            if len(q) != 1:
                self.fail("a ket names a single system")
            return Ket(value, q[0])
        if self.at_sym("("):  # shared through the cache (see the class)
            key, hit = self.shared_factor()
            base, peak = self.depth, self.peak
            if hit and base + hit[1] <= MAX_DEPTH:
                self.pos = self._closing[self.pos] + 1
                self.peak = max(peak, base + hit[1])
                return hit[0]
            self.take()
            self.peak = base  # from here `peak` counts the levels this factor opens
            s = self.fstate()
            self.expect("SYM", ")")
            if key and not hit:
                self.cache[key] = (s, self.peak - base)
            self.peak = max(peak, self.peak)
            return s
        self.fail("expected a formal state")


def parse_state(text, cache=None):
    p = _StateParser(text, cache)
    s = p.fstate()
    p.done()
    return s


def format_state(s):
    if isinstance(s, Ket):
        return "|%s>_%s" % (format_expr(s.value), format_qvar(s.qvar))
    if isinstance(s, STensor):
        def part(x):
            t = format_state(x)
            return "(%s)" % t if isinstance(x, (Superpose,)) else t
        return "%s %s" % (part(s.left), part(s.right))
    if isinstance(s, Superpose):
        return "(%s) * (%s) + (%s) * (%s)" % (
            format_expr(s.c1), format_state(s.s1),
            format_expr(s.c2), format_state(s.s2))
    if isinstance(s, GateApp):
        ps = "(%s)" % ", ".join(format_expr(e) for e in s.params) if s.params else ""
        return "%s%s[%s] (%s)" % (
            s.gate, ps, ", ".join(format_qvar(q) for q in s.targets),
            format_state(s.state))
    raise AssertionError_("unknown formal state node %r" % (s,))


# ---------------------------------------------------------------------------
# JSON serialization


def _qvar_to_json(q):
    return format_qvar(q)


def _qvar_from_json(text):
    p = _Parser(text)
    qv = p.qvar()
    p.done()
    if len(qv) != 1:
        raise ParseError("expected a single quantum variable")
    return qv[0]


def pred_to_json(a):
    if isinstance(a, Atomic):
        return {"kind": "atomic", "name": a.name,
                "params": [format_expr(e) for e in a.params],
                "targets": [_qvar_to_json(q) for q in a.targets]}
    if isinstance(a, StateProj):
        return {"kind": "proj", "state": format_state(a.state)}
    if isinstance(a, Neg):
        return {"kind": "neg", "arg": pred_to_json(a.arg)}
    if isinstance(a, PTensor):
        return {"kind": "tensor", "left": pred_to_json(a.left),
                "right": pred_to_json(a.right)}
    if isinstance(a, Kraus):
        return {"kind": "kraus", "name": a.name,
                "params": [format_expr(e) for e in a.params],
                "targets": [_qvar_to_json(q) for q in a.targets],
                "branches": [pred_to_json(b) for b in a.branches]}
    raise AssertionError_("unknown predicate node %r" % (a,))


def _state_proj(text, cache):
    return StateProj(parse_state(text, cache))


def pred_from_json(d, parsed=None, at=()):
    """The predicate formula `d`, at path `at` in its document.  `parsed`
    is a `qs.parse_once` cache shared by one document."""
    def field(key, kind, *default):
        return qs.json_field(d, (key,), kind, *default, at=at)

    def texts(key, parse, *default):  # the parser reports an item that is not text
        return tuple(qs.parse_once(parsed, parse, t) for t in field(key, "array", *default))

    def sub(*path):
        return pred_from_json(qs.json_field(d, path, "object", at=at), parsed, at + path)

    kind = field("kind", "string")
    if kind == "atomic":
        return Atomic(field("name", "string"), texts("params", qs.parse_expr, []),
                      texts("targets", _qvar_from_json))
    if kind == "proj":
        return qs.parse_once(parsed, _state_proj, field("state", None), parsed)
    if kind == "neg":
        return Neg(sub("arg"))
    if kind == "tensor":
        return PTensor(sub("left"), sub("right"))
    if kind == "kraus":
        return Kraus(field("name", "string"), texts("params", qs.parse_expr, []),
                     texts("targets", _qvar_from_json, []),
                     tuple(sub("branches", i) for i in range(len(field("branches", "array")))))
    raise AssertionError_("unknown predicate kind %r" % kind)


def assertion_to_json(ca):
    return {"phi": format_expr(ca.phi), "a": pred_to_json(ca.a)}


def assertion_from_json(d, parsed=None, at=()):
    """The cq-assertion `d`, at path `at` in its document."""
    return CqAssertion(
        qs.parse_once(parsed, qs.parse_formula, qs.json_field(d, ("phi",), None, at=at)),
        pred_from_json(qs.json_field(d, ("a",), "object", at=at), parsed, at + ("a",)))
