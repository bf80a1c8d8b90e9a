"""The interpretation: classical typing, quantum variable declarations,
gate/measurement families, Kraus operator symbols and atomic predicates.

Kraus symbols act on predicates as A -> sum_i F_i A F_i^dagger and must be
sub-normalized: sum_i F_i F_i^dagger <= I.  The designated symbols are:

  initialization  FB<d>   operators |n><0| for the d basis states
  gate U          F_<U>   single operator U(params)^dagger
  measurement M   F_<M>   parameterized by outcome m, operator M_m^dagger

Each is the adjoint of its statement's Kraus operators, so its predicate
action is the Heisenberg-picture adjoint of the state transformer and it is
sub-normalized.  They and WSUM<k> are derived on lookup; no user may define one.
"""

from dataclasses import InitVar, dataclass, field
import math
import re

import numpy as np

from . import classical as cl
from . import linalg as la
from . import qsyntax as qs
from .linalg import Tolerances


class InterpError(ValueError):
    pass


class ResolutionError(InterpError):
    """Subscript evaluation failed or fell outside the declared range."""


def _key_of(params):
    out = []
    for p in params:
        if isinstance(p, float):
            out.append(("f", round(p, 14)))
        elif isinstance(p, complex):
            out.append(("c", round(p.real, 14), round(p.imag, 14)))
        else:  # the type keeps True apart from 1
            out.append((type(p), p))
    return tuple(out)


def _check_params(kind, fam, params):
    """Raise InterpError unless `params` are values of `fam.param_types`."""
    types = fam.param_types
    if len(params) != len(types) or not all(
            t.contains(v) for t, v in zip(types, params)):
        raise InterpError("%s %s takes parameters (%s), not %r" % (
            kind, fam.name, ", ".join(map(str, types)), tuple(params)))


@dataclass
class GateFamily:
    """A named family of unitaries over systems of `dims`, one for each
    tuple of parameters of `param_types`."""

    name: str
    param_types: tuple
    dims: tuple
    make: object  # params tuple -> unitary matrix

    def __post_init__(self):
        self._cache = {}

    @property
    def dim(self):
        return math.prod(self.dims)

    def matrix(self, params, tol=Tolerances()):
        key = _key_of(params)
        if key in self._cache:
            return self._cache[key]
        _check_params("gate", self, params)
        u = np.asarray(self.make(*params), dtype=complex)
        if u.shape != (self.dim, self.dim):
            raise InterpError("gate %s: wrong matrix shape" % self.name)
        if not la.is_unitary(u, tol.unitary):
            raise InterpError(
                "gate %s is not unitary at parameters %r" % (self.name, params))
        self._cache[key] = u
        return u


@dataclass
class MeasurementFamily:
    """A named measurement over systems of `dims`: one operator per
    outcome of `outcome_type`, checked for completeness against `tol`."""

    name: str
    outcome_type: object
    dims: tuple
    operators: dict  # outcome -> matrix
    tol: InitVar[Tolerances] = Tolerances()

    def __post_init__(self, tol):
        self.operators = {k: np.asarray(v, dtype=complex) for k, v in self.operators.items()}
        d = self.dim
        outs = self.outcome_type.values()
        if outs is None:
            raise InterpError("measurement %s: outcome type must be finite" % self.name)
        if set(outs) != set(self.operators):
            raise InterpError("measurement %s: outcomes do not match operators" % self.name)
        total = np.zeros((d, d), dtype=complex)
        for m in self.operators.values():
            if m.shape != (d, d):
                raise InterpError("measurement %s: wrong operator shape" % self.name)
            total += m.conj().T @ m
        if np.max(np.abs(total - np.eye(d))) > tol.completeness:
            raise InterpError("measurement %s violates completeness" % self.name)

    @property
    def dim(self):
        return math.prod(self.dims)


@dataclass
class KrausSymbol:
    """Named operator family; `dims` None means scalar operators that act as
    multiples of the identity on whatever systems they are applied to."""

    name: str
    rank: int
    param_types: tuple
    dims: object  # tuple of dims, or None for scalar symbols
    make: object  # params -> list of matrices (or complex scalars)

    def __post_init__(self):
        self._cache = {}

    @property
    def dim(self):
        return None if self.dims is None else math.prod(self.dims)

    def operators(self, params, tol=Tolerances()):
        key = _key_of(params)
        if key in self._cache:
            return self._cache[key]
        _check_params("kraus symbol", self, params)
        ops = list(self.make(*params))
        if len(ops) != self.rank:
            raise InterpError("kraus symbol %s: wrong rank" % self.name)
        if self.dims is None:
            ops = [complex(c) for c in ops]
            total = sum(abs(c) ** 2 for c in ops)
            if total > 1 + tol.psd:
                raise InterpError(
                    "kraus symbol %s violates sub-normalization" % self.name)
        else:
            d = self.dim
            ops = [np.asarray(f, dtype=complex) for f in ops]
            total = np.zeros((d, d), dtype=complex)
            for f in ops:
                if f.shape != (d, d):
                    raise InterpError("kraus symbol %s: wrong shape" % self.name)
                total += f @ f.conj().T
            if not la.is_psd(np.eye(d) - total, tol.psd):
                raise InterpError(
                    "kraus symbol %s violates sub-normalization" % self.name)
        ops = tuple(ops)
        self._cache[key] = ops
        return ops


@dataclass
class AtomicPredicate:
    """A named family of effects over systems of `dims`, one for each
    tuple of parameters of `param_types`."""

    name: str
    param_types: tuple
    dims: tuple
    make: object  # params -> effect matrix

    def __post_init__(self):
        self._cache = {}

    @property
    def dim(self):
        return math.prod(self.dims)

    def matrix(self, params, tol=Tolerances()):
        key = _key_of(params)
        if key in self._cache:
            return self._cache[key]
        _check_params("predicate", self, params)
        k = np.asarray(self.make(*params), dtype=complex)
        if k.shape != (self.dim, self.dim):
            raise InterpError("predicate %s: wrong matrix shape" % self.name)
        if not la.is_effect(k, tol.psd):
            raise InterpError(
                "predicate %s is not an effect at parameters %r" % (self.name, params))
        self._cache[key] = k
        return k


class QuantumVarDecl(cl.Node):
    name: str
    dim: int
    index_types: object = None  # tuple of finite ClassicalType, or None

    def arity(self):
        return 0 if self.index_types is None else len(self.index_types)


# ---------------------------------------------------------------------------
# Designated symbols: each is the adjoint of its statement's Kraus operators


def init_operators(d):
    """Kraus operators |0><n| of initialization; real: no -0.0 in adjoints."""
    eye = np.eye(d)
    return [np.outer(eye[0], eye[n]) for n in range(d)]


_DESIGNATED = re.compile(r"F_(.+)|FB([1-9][0-9]*)|WSUM([1-9][0-9]*)")


def designated_name(kind, arg):
    """F_<name>, FB<dim> or WSUM<count>, for kind "family", "init", "wsum"."""
    return {"family": "F_%s", "init": "FB%d", "wsum": "WSUM%d"}[kind] % arg


def _sqrt_weight(p):
    """sqrt(p) for a weight p >= 0, up to rounding; raises when negative."""
    p = float(p)
    if p < -cl.FLOAT_EQ:
        raise InterpError("negative weight %r" % p)
    return complex(math.sqrt(max(p, 0.0)))


# ---------------------------------------------------------------------------
# Built-in gate library

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
_CZ = np.diag([1, 1, 1, -1]).astype(complex)


def _rx(theta):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _ry(theta):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(theta):
    return np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)]).astype(complex)


def _rxx(theta):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    m = np.eye(4, dtype=complex) * c
    for i in range(4):
        m[i, 3 - i] += -1j * s
    return m


def _phase_r(l):
    return np.diag([1, np.exp(2j * math.pi / 2 ** int(l))]).astype(complex)


def _controlled_r(l):
    """Controlled phase; first target is the control, second the target."""
    m = np.eye(4, dtype=complex)
    m[3, 3] = np.exp(2j * math.pi / 2 ** int(l))
    return m


def _reverse(k):
    d = 2 ** k
    m = np.zeros((d, d), dtype=complex)
    for i in range(d):
        bits = [(i >> (k - 1 - b)) & 1 for b in range(k)]
        j = 0
        for b in reversed(bits):
            j = j * 2 + b
        m[j, i] = 1.0
    return m


_REAL = cl.RealType()
_INT_PARAM = cl.IntType(1, 64)

MAX_REVERSE = 8


def builtin_gates():
    gates = {
        "I1": GateFamily("I1", (), (2,), lambda: np.eye(2, dtype=complex)),
        "H": GateFamily("H", (), (2,), lambda: _H),
        "X": GateFamily("X", (), (2,), lambda: _X),
        "Y": GateFamily("Y", (), (2,), lambda: _Y),
        "Z": GateFamily("Z", (), (2,), lambda: _Z),
        "CNOT": GateFamily("CNOT", (), (2, 2), lambda: _CNOT),
        "SWAP": GateFamily("SWAP", (), (2, 2), lambda: _SWAP),
        "CZ": GateFamily("CZ", (), (2, 2), lambda: _CZ),
        "Rx": GateFamily("Rx", (_REAL,), (2,), _rx),
        "Ry": GateFamily("Ry", (_REAL,), (2,), _ry),
        "Rz": GateFamily("Rz", (_REAL,), (2,), _rz),
        "Rxx": GateFamily("Rxx", (_REAL,), (2, 2), _rxx),
        "R": GateFamily("R", (_INT_PARAM,), (2,), _phase_r),
        "CR": GateFamily("CR", (_INT_PARAM,), (2, 2), _controlled_r),
    }
    for k in range(1, MAX_REVERSE + 1):
        name = "REVERSE%d" % k
        gates[name] = GateFamily(name, (), (2,) * k, lambda k=k: _reverse(k))
    return gates


def computational_measurement(name="M", qubits=1):
    d = 2 ** qubits
    ops = {m: np.outer(la.basis_vector(m, d), la.basis_vector(m, d).conj())
           for m in range(d)}
    return MeasurementFamily(name, cl.IntType(0, d - 1), (2,) * qubits, ops)


def builtin_predicates():
    preds = {
        "P0": AtomicPredicate("P0", (), (2,), lambda: np.diag([1.0, 0.0]).astype(complex)),
        "P1": AtomicPredicate("P1", (), (2,), lambda: np.diag([0.0, 1.0]).astype(complex)),
        "PPLUS": AtomicPredicate(
            "PPLUS", (), (2,), lambda: np.full((2, 2), 0.5, dtype=complex)),
        "ID1": AtomicPredicate("ID1", (), (2,), lambda: np.eye(2, dtype=complex)),
        "ID2": AtomicPredicate("ID2", (), (2, 2), lambda: np.eye(4, dtype=complex)),
        "HALF1": AtomicPredicate(
            "HALF1", (), (2,), lambda: np.eye(2, dtype=complex) / 2),
    }
    return preds


# ---------------------------------------------------------------------------
# Interpretation


@dataclass
class Interpretation:
    """The declarations a program and its assertions are read against:
    typed classical variables, quantum systems, gates, measurements, Kraus
    symbols, atomic predicates and tolerances."""

    classical_vars: dict = field(default_factory=dict)
    quantum_vars: dict = field(default_factory=dict)
    gates: dict = field(default_factory=builtin_gates)
    measurements: dict = field(default_factory=dict)
    kraus: dict = field(default_factory=dict)
    predicates: dict = field(default_factory=builtin_predicates)
    tolerances: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self):
        if "M" not in self.measurements:
            self.measurements.setdefault("M", computational_measurement("M", 1))
        self._designated = {}  # name -> derived symbol, None if not designated
        for name in self.kraus:
            if self._derive(name):
                raise InterpError("kraus symbol %s: the name is reserved for "
                                  "a designated symbol" % name)
        self._order = {name: i for i, name in enumerate(self.quantum_vars)}

    # -- declarations

    def declare_classical(self, name, ctype):
        self.classical_vars[name] = ctype
        return self

    def declare_quantum(self, name, dim=2, index_types=None):
        self.quantum_vars[name] = QuantumVarDecl(
            name, dim, tuple(index_types) if index_types else None)
        self._order = {n: i for i, n in enumerate(self.quantum_vars)}
        return self

    # -- resolution

    def decl_of(self, name):
        d = self.quantum_vars.get(name)
        if d is None:
            raise ResolutionError("undeclared quantum variable %r" % name)
        return d

    def resolve(self, sigma, qvar):
        """Resolve a subscripted occurrence to a concrete system id."""
        decl = self.decl_of(qvar.name)
        if len(qvar.subs) != decl.arity():
            raise ResolutionError(
                "wrong subscript count for %r" % qvar.name)
        vals = []
        for s, t in zip(qvar.subs, decl.index_types or ()):
            v = cl.near_int(cl.eval_expr(sigma, s))
            if not t.contains(v):
                raise ResolutionError(
                    "subscript value %r out of range for %r" % (v, qvar.name))
            vals.append(v)
        return la.system_id(qvar.name, vals)

    def dim_of(self, sid):
        return self.decl_of(sid[0]).dim

    def order_key(self, sid):
        """Canonical global ordering of resolved systems: declaration order,
        then subscript values."""
        name, subs = sid
        return (self._order.get(name, len(self._order)), name, subs)

    def make_layout(self, sids):
        items = sorted(set(sids), key=self.order_key)
        return la.RegisterLayout(tuple((s, self.dim_of(s)) for s in items))

    def all_systems(self, names=None):
        """Every declared concrete system of the given base names."""
        out = []
        for name, decl in self.quantum_vars.items():
            if names is not None and name not in names:
                continue
            if decl.index_types is None:
                out.append(la.system_id(name))
            else:
                import itertools
                doms = [t.values() for t in decl.index_types]
                if any(d is None for d in doms):
                    raise InterpError("array %r has non-finite index type" % name)
                for combo in itertools.product(*doms):
                    out.append(la.system_id(name, combo))
        return out

    # -- registries

    def gate(self, name):
        g = self.gates.get(name)
        if g is None:
            raise InterpError("unknown gate %r" % name)
        return g

    def measurement(self, name):
        m = self.measurements.get(name)
        if m is None:
            raise InterpError("unknown measurement %r" % name)
        return m

    def kraus_symbol(self, name):
        """A designated symbol, derived from its statement on first lookup,
        or a user symbol from `kraus`."""
        if name not in self._designated:
            self._designated[name] = self._derive(name)
        f = self._designated[name] or self.kraus.get(name)
        if f is None:
            raise InterpError("unknown Kraus symbol %r" % name)
        return f

    def _derive(self, name):
        """The designated symbol called `name`, or None."""
        m = _DESIGNATED.fullmatch(name)
        fam, d, k = m.groups() if m else (None, None, None)
        gate, meas = self.gates.get(fam), self.measurements.get(fam)
        if d:
            d = int(d)
            return KrausSymbol(name, d, (), (d,),
                               lambda: [e.conj().T for e in init_operators(d)])
        if k:  # scalar operators sqrt(p_i): realizes sum_i p_i A_i
            k = int(k)
            return KrausSymbol(name, k, (cl.RealType(),) * k, None,
                               lambda *ps: [_sqrt_weight(p) for p in ps])
        if gate:
            return KrausSymbol(name, 1, gate.param_types, gate.dims, lambda *ps:
                               [gate.matrix(ps, self.tolerances).conj().T])
        if meas:  # the outcome type is checked before `make` runs
            return KrausSymbol(name, 1, (meas.outcome_type,), meas.dims,
                               lambda m: [meas.operators[m].conj().T])
        return None

    def predicate(self, name):
        k = self.predicates.get(name)
        if k is None:
            raise InterpError("unknown atomic predicate %r" % name)
        return k


def default_interpretation():
    return Interpretation()


# ---------------------------------------------------------------------------
# JSON loading


def complex_from_json(doc, path, real=True):
    """The complex number at `path` in the JSON document `doc`: [re, im],
    or, where `real` allows, a real number."""
    if real and not isinstance(qs.json_field(doc, path, ("number", "array")), list):
        return complex(qs.json_field(doc, path, "number"))
    return complex(*(qs.json_field(doc, path + (k,), "number") for k in (0, 1)))


def mat_from_json(doc, path, real=True):
    """The complex matrix at `path` in `doc`, an array of rows of entries
    read by `complex_from_json`."""
    return np.array([[complex_from_json(doc, path + (i, j), real)
                      for j in range(len(qs.json_field(doc, path + (i,), "array")))]
                     for i in range(len(qs.json_field(doc, path, "array")))],
                    dtype=complex)


def load_interpretation(doc):
    """Build an Interpretation from its JSON document, starting from the
    built-in registries.  A field of the wrong shape is a ParseError that
    names it."""
    def field(*path, kind="object", **default):
        return qs.json_field(doc, path, kind, **default)

    def dims(*path, default):
        items = field(*path, kind="array", default=None)
        if items is None:
            return default
        return tuple(field(*path, i, kind="integer") for i in range(len(items)))

    tol = Tolerances.from_dict({k: field("tolerances", k, kind="number")
                                for k in field("tolerances", default={})})
    gates, measurements, kraus = builtin_gates(), {}, {}
    for name in field("gates", default={}):
        spec = field("gates", name)
        if "builder" in spec:
            base = builtin_gates().get(field("gates", name, "builder", kind="string"))
            if base is None:
                raise InterpError("unknown gate builder %r" % spec["builder"])
            gates[name] = GateFamily(name, base.param_types, base.dims, base.make)
        else:
            m = mat_from_json(doc, ("gates", name, "matrix"))
            k = int(math.log2(m.shape[0])) if m.shape[0] > 1 else 1
            g = GateFamily(name, (), dims("gates", name, "dims", default=(2,) * k),
                           lambda m=m: m)
            g.matrix((), tol)  # eager unitarity check
            gates[name] = g
    for name in field("measurements", default={}):
        spec = field("measurements", name)
        if spec.get("builder") == "computational":
            measurements[name] = computational_measurement(
                name, field("measurements", name, "qubits", kind="integer", default=1))
        else:
            ops = {}
            for key in field("measurements", name, "operators"):
                try:
                    out = int(key)
                except ValueError:
                    out = key
                ops[out] = mat_from_json(doc, ("measurements", name, "operators", key))
            otype = cl.type_from_json(doc, ("measurements", name, "outcome"))
            measurements[name] = MeasurementFamily(
                name, otype, dims("measurements", name, "dims", default=(2,)), ops, tol)
    for name in field("kraus_symbols", default={}):
        n = len(field("kraus_symbols", name, "operators", kind="array"))
        if not n:
            raise InterpError("kraus_symbols.%s.operators is empty" % name)
        ops = [mat_from_json(doc, ("kraus_symbols", name, "operators", i))
               for i in range(n)]
        sym = KrausSymbol(name, n, (), dims("kraus_symbols", name, "dims",
                                            default=(ops[0].shape[0],)),
                          lambda ops=ops: list(ops))
        sym.operators((), tol)  # eager sub-normalization check
        kraus[name] = sym
    interp = Interpretation(gates=gates, measurements=measurements,
                            kraus=kraus, tolerances=tol)
    for name in field("classical_vars", default={}):
        interp.declare_classical(name, cl.type_from_json(doc, ("classical_vars", name)))
    for name in field("quantum_vars", default={}):
        n = len(field("quantum_vars", name, "indices", kind="array", default=()))
        interp.declare_quantum(
            name,
            dim=field("quantum_vars", name, "dim", kind="integer", default=2),
            index_types=[cl.type_from_json(doc, ("quantum_vars", name, "indices", i))
                         for i in range(n)],
        )
    for name in field("atomic_predicates", default={}):
        m = mat_from_json(doc, ("atomic_predicates", name, "matrix"))
        ap = AtomicPredicate(name, (), dims("atomic_predicates", name, "dims",
                                            default=(m.shape[0],)),
                             lambda m=m: m)
        ap.matrix((), tol)  # eager effect check
        interp.predicates[name] = ap
    return interp
