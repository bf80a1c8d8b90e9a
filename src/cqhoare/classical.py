"""Classical types, states, expressions and first-order formulas.

Formulas are boolean-typed expressions; quantifiers range over finite
declared types only.  Values: bool, int, float, complex, enum labels (str)
and bit arrays (tuples of 0/1 indexed by a declared integer range).
"""

from dataclasses import FrozenInstanceError
from fractions import Fraction
import inspect
import itertools
import math
import weakref

FLOAT_EQ = 1e-12
INT_TOL = 1e-9  # a float this close to an integer is read as that integer
DOMAIN_CAP = 10 ** 6


def near_int(v):
    """A float within INT_TOL of an integer, as that integer; any other
    value unchanged."""
    if isinstance(v, float) and abs(v - round(v)) <= INT_TOL:
        return int(round(v))
    return v


class EvalError(ValueError):
    pass


class ParseError(ValueError):
    """Text or a JSON document that does not have the expected shape."""

    def __init__(self, msg, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            msg = "%s (line %d, column %d)" % (msg, line, col)
        super().__init__(msg)


class DepthError(ParseError):
    """Text nested deeper than `qsyntax.MAX_DEPTH`: a limit of the tool,
    like the dimension cap, rather than a fault of the text."""


# The JSON types a document field may be asked to have, by name.  A boolean
# is none of them, though Python counts it an int.
_JSON_KINDS = {"object": dict, "array": list, "string": str, "integer": int,
               "number": (int, float)}
_REQUIRED = object()


def _json_types(kind):
    if isinstance(kind, str):
        return _JSON_KINDS[kind]
    return tuple(_JSON_KINDS[k] for k in kind)


def json_path(path):
    """A path into a JSON document as messages name it."""
    return ".".join(map(str, path)) or "top level"


def _json_mismatch(x, kind, path):
    found = ("boolean" if isinstance(x, bool) else "null" if x is None else
             next((k for k, t in _JSON_KINDS.items() if isinstance(x, t)),
                  type(x).__name__))
    raise ParseError("%s: expected %s, found %s" % (
        json_path(path), kind if isinstance(kind, str) else " or ".join(kind), found))


def json_field(doc, path, kind, default=_REQUIRED, at=()):
    """The value at `path`, a tuple of object keys and array indices, in
    the JSON document `doc`, when it is of `kind`: a name in `_JSON_KINDS`,
    a tuple of such names, or None for any value.  `default`, when given,
    stands for a missing last key.  Anything else is a ParseError that
    names the path, after `at`, the path of `doc` in a larger document."""
    x = doc
    for i, key in enumerate(path):
        if isinstance(key, str):
            if not isinstance(x, dict):
                _json_mismatch(x, "object", at + path[:i])
            found = key in x
        else:
            if not isinstance(x, list):
                _json_mismatch(x, "array", at + path[:i])
            found = key < len(x)
        if found:
            x = x[key]
        elif default is not _REQUIRED and i == len(path) - 1:
            return default
        else:
            raise ParseError("%s is missing" % json_path(at + path[:i + 1]))
    if kind is None or isinstance(x, _json_types(kind)) and not isinstance(x, bool):
        return x
    _json_mismatch(x, kind, at + path)


# ---------------------------------------------------------------------------
# Immutable nodes
#
# Every syntax tree and value type of the package (expressions, types,
# programs, formal states, predicates, assertions, triples, layouts) is a
# `Node`, and equal trees are one object: construction returns the live node
# of the same class with the same field nodes and field values of the same
# types, from a table that holds nodes weakly.  A node class gets its
# `__new__` from one function per number of fields, compiled once here, and
# shares the structural `__eq__` and `__hash__`.  Mutable records, and those
# needing `default_factory`, `InitVar` or slots, stay dataclasses.

_set = object.__setattr__
_nodes = {}  # (class, field keys) -> a weak reference to the node


class _Ref(weakref.ref):
    __slots__ = ("key",)


def _drop(ref, nodes=_nodes):  # bound here: a node may outlive the module's globals
    if nodes.get(ref.key) is ref:
        del nodes[ref.key]


def _key(v):
    """The part of a node's table key that stands for the field value `v`."""
    if isinstance(v, Node):
        return id(v)  # the node is live while the node holding it is
    t = type(v)
    if t is str:
        return v
    if t is tuple:
        return tuple(map(_key, v))
    if t is int or t is bool:
        return t, v
    return t, v, repr(v)  # repr tells -0.0 from 0.0; NaN objects stay apart


def _make(cls, values, key):
    """The node of class `cls` with field values `values` and table key
    `key`: the live one, or a new one, checked by `__post_init__` before it
    enters the table."""
    try:
        ref = _nodes.get(key)
    except TypeError:  # a field value that cannot be hashed: not shared
        ref = key = None
    node = ref and ref()
    if node is None:
        node = object.__new__(cls)  # fields in order: a class's nodes share their keys
        for name, v in zip(cls._fields, values):
            _set(node, name, v)
        if cls._post_init:
            node.__post_init__()
        if key is not None:
            ref = _nodes[key] = _Ref(node, _drop)
            ref.key = key
    return node


def _new_for(names, defaults):
    """The `__new__` of a node class with fields `names`, the last of them
    defaulting to `defaults`: the function below for that many fields, with
    its parameters renamed after the fields, so that a call binds its
    arguments, and reports a bad call, as the dataclass's `__init__` does."""
    if len(names) > 7:
        raise TypeError("a node class has at most 7 fields")

    def new0(cls):
        return _make(cls, (), (cls,))

    def new1(cls, a):
        return _make(cls, (a,), (cls, _key(a)))

    def new2(cls, a, b):
        return _make(cls, (a, b), (cls, _key(a), _key(b)))

    def new3(cls, a, b, c):
        return _make(cls, (a, b, c), (cls, _key(a), _key(b), _key(c)))

    def new4(cls, a, b, c, d):
        return _make(cls, (a, b, c, d), (cls, _key(a), _key(b), _key(c), _key(d)))

    def new5(cls, a, b, c, d, e):
        return _make(cls, (a, b, c, d, e),
                     (cls, _key(a), _key(b), _key(c), _key(d), _key(e)))

    def new6(cls, a, b, c, d, e, f):
        return _make(cls, (a, b, c, d, e, f),
                     (cls, _key(a), _key(b), _key(c), _key(d), _key(e), _key(f)))

    def new7(cls, a, b, c, d, e, f, g):
        return _make(cls, (a, b, c, d, e, f, g),
                     (cls, _key(a), _key(b), _key(c), _key(d), _key(e), _key(f), _key(g)))

    new = (new0, new1, new2, new3, new4, new5, new6, new7)[len(names)]
    new.__code__ = new.__code__.replace(co_name="__init__", co_varnames=("cls",) + names)
    new.__defaults__ = defaults or None
    return new


class Node:
    """Base of the immutable trees and values.  A subclass declares its
    fields as annotations, with trailing defaults as class attributes, and
    may define `__post_init__`, which construction calls.  Construction by
    position or keyword, `==`, `hash`, `repr` and the refusal to assign are
    those of a frozen dataclass; `==` is structural, so `Lit(1) == Lit(True)`
    holds although the two are distinct objects."""

    _fields = ()

    def __init_subclass__(cls, **kw):
        super().__init_subclass__(**kw)
        cls._fields = names = cls._fields + tuple(inspect.get_annotations(cls))
        defaults = tuple(getattr(cls, n) for n in names if hasattr(cls, n))
        if any(hasattr(cls, n) for n in names[:len(names) - len(defaults)]):
            raise TypeError("%s: a field without a default follows one with a default"
                            % cls.__qualname__)
        cls._post_init = hasattr(cls, "__post_init__")
        new = _new_for(names, defaults)
        new.__qualname__ = cls.__qualname__ + ".__init__"
        cls.__new__ = new

    # An instance's `__dict__` holds exactly its fields, in field order.
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return other is self or self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __reduce__(self):  # copies and unpickled trees are built, so shared, anew
        return type(self), tuple(self.__dict__.values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (n, getattr(self, n)) for n in self._fields))

    def __setattr__(self, name, value):
        raise FrozenInstanceError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise FrozenInstanceError("cannot delete field %r" % name)


def replace(node, **changes):
    """`node` with the fields named in `changes` set to their values."""
    return type(node)(**{**{n: getattr(node, n) for n in node._fields}, **changes})


# ---------------------------------------------------------------------------
# Types


# Every type has `size()`, the number of its values or None when it is not
# enumerable, and `values()`, the list of them or None; test enumerability and
# size with `size()`, which builds nothing.  An enumerable type also has
# `value(i)`, the i-th element of `values()`, built alone.


class BoolType(Node):
    def size(self):
        return 2

    def values(self):
        return [False, True]

    def value(self, i):
        return (False, True)[i]

    def contains(self, v):
        return isinstance(v, bool)

    def __str__(self):
        return "Bool"


class IntType(Node):
    lo: int
    hi: int

    def size(self):
        return max(self.hi - self.lo + 1, 0)

    def values(self):
        return list(range(self.lo, self.hi + 1))

    def value(self, i):
        return self.lo + i

    def contains(self, v):
        return isinstance(v, int) and not isinstance(v, bool) and self.lo <= v <= self.hi

    def __str__(self):
        return "Int(%d..%d)" % (self.lo, self.hi)


class EnumType(Node):
    name: str
    labels: tuple

    def size(self):
        return len(self.labels)

    def values(self):
        return list(self.labels)

    def value(self, i):
        return self.labels[i]

    def contains(self, v):
        return v in self.labels

    def __str__(self):
        return "Enum(%s)" % ",".join(self.labels)


class RealType(Node):
    def size(self):
        return None

    def values(self):
        return None

    def contains(self, v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    def __str__(self):
        return "Real"


class ComplexType(Node):
    def size(self):
        return None

    def values(self):
        return None

    def contains(self, v):
        return isinstance(v, (int, float, complex)) and not isinstance(v, bool)

    def __str__(self):
        return "Complex"


class Bits(Node):
    """A bit-array value; `lo` is the index of the first bit."""

    lo: int
    bits: tuple

    def __getitem__(self, r):
        k = r - self.lo
        if not 0 <= k < len(self.bits):
            raise EvalError("bit index %d out of range" % r)
        return self.bits[k]

    def as_int(self):
        """Big-endian integer reading: first bit is most significant."""
        out = 0
        for b in self.bits:
            out = out * 2 + b
        return out

    def __str__(self):
        return "".join(str(b) for b in self.bits)


class BitArrayType(Node):
    lo: int
    hi: int

    def __post_init__(self):
        if self.hi < self.lo:
            raise ValueError("empty bit array range")

    def width(self):
        return self.hi - self.lo + 1

    def size(self):
        return 2 ** self.width()

    def values(self):
        return [
            Bits(self.lo, bits)
            for bits in itertools.product((0, 1), repeat=self.width())
        ]

    def value(self, i):
        w = self.width()
        return Bits(self.lo, tuple((i >> (w - 1 - k)) & 1 for k in range(w)))

    def contains(self, v):
        return (
            isinstance(v, Bits)
            and v.lo == self.lo
            and len(v.bits) == self.width()
            and all(b in (0, 1) for b in v.bits)
        )

    def __str__(self):
        return "BitArray(%d..%d)" % (self.lo, self.hi)


def type_from_json(doc, path=()):
    """The classical type at `path` in the JSON document `doc`: a kind
    name, or an object with a "kind" and the fields that kind takes."""
    spec = json_field(doc, path, ("object", "string"))
    if isinstance(spec, str):
        kind = spec
    else:
        kind = json_field(spec, ("kind",), "string", at=path)

    def bound(key):
        return json_field(spec, (key,), "integer", at=path)

    if kind == "bool":
        return BoolType()
    if kind == "int":
        return IntType(bound("lo"), bound("hi"))
    if kind == "enum":
        n = len(json_field(spec, ("labels",), "array", at=path))
        return EnumType(json_field(spec, ("name",), "string", "enum", at=path),
                        tuple(json_field(spec, ("labels", i), "string", at=path)
                              for i in range(n)))
    if kind == "real":
        return RealType()
    if kind == "complex":
        return ComplexType()
    if kind == "bits":
        return BitArrayType(bound("lo"), bound("hi"))
    raise ValueError("unknown classical type %r" % (spec,))


# ---------------------------------------------------------------------------
# Classical states


class ClassicalState:
    """Immutable finite map from variable names to values."""

    __slots__ = ("_b", "_key")

    def __init__(self, bindings=None):
        self._b = dict(bindings or {})
        self._key = None

    def __getitem__(self, name):
        try:
            return self._b[name]
        except KeyError:
            raise EvalError("unbound classical variable %r" % name)

    def get(self, name, default=None):
        return self._b.get(name, default)

    def __contains__(self, name):
        return name in self._b

    def names(self):
        return set(self._b)

    def items(self):
        return self._b.items()

    def update(self, name, value):
        nb = dict(self._b)
        nb[name] = value
        return ClassicalState(nb)

    def key(self):
        """Canonical hashable form; used to group outputs by classical state."""
        if self._key is None:
            self._key = tuple(sorted(self._b.items(), key=lambda kv: kv[0]))
        return self._key

    def __eq__(self, other):
        return isinstance(other, ClassicalState) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "{%s}" % ", ".join(
            "%s=%r" % (k, v) for k, v in sorted(self._b.items())
        )

    def to_json(self):
        out = {}
        for k, v in sorted(self._b.items()):
            if isinstance(v, Bits):
                out[k] = {"lo": v.lo, "bits": list(v.bits)}
            else:
                out[k] = v
        return out

    @staticmethod
    def from_json(doc, path=()):
        """The classical state at `path` in the JSON document `doc`, empty
        when the last key is missing: an object of values, a bit array
        written {"lo": l, "bits": [...]}."""
        b = {}
        for k, v in json_field(doc, path, "object", {}).items():
            if isinstance(v, dict) and "bits" in v:
                at = path + (k,)
                n = len(json_field(v, ("bits",), "array", at=at))
                b[k] = Bits(json_field(v, ("lo",), "integer", 1, at=at),
                            tuple(json_field(v, ("bits", i), "integer", at=at)
                                  for i in range(n)))
            else:
                b[k] = v
        return ClassicalState(b)


# ---------------------------------------------------------------------------
# Expressions


class Lit(Node):
    value: object


class Var(Node):
    name: str


class BinOp(Node):
    op: str
    left: object
    right: object


class UnOp(Node):
    op: str
    arg: object


class BitIndex(Node):
    """array[index]: one bit of a bit-array variable."""

    array: str
    index: object


class BinFrac(Node):
    """Binary fraction 0.array[lo]array[lo+1]...array[hi]."""

    array: str
    lo: object
    hi: object


class Call(Node):
    fn: str
    args: tuple


class Quant(Node):
    kind: str  # "forall" | "exists"
    var: str
    vartype: object
    body: object


# the expression node types; the generic syntax walks in `qsyntax` treat an
# expression as a leaf, and its own analyses are the functions below
EXPRS = (Lit, Var, BinOp, UnOp, BitIndex, BinFrac, Call, Quant)

TRUE = Lit(True)
FALSE = Lit(False)

_ARITH = {"+", "-", "*", "/", "%"}
_CMP = {"=", "!=", "<", "<=", ">", ">="}
_BOOL = {"and", "or", "->"}

_FUNCS = {
    "sqrt": lambda x: math.sqrt(x) if not isinstance(x, complex) else x ** 0.5,
    "cos": math.cos,
    "sin": math.sin,
    "abs": abs,
    "floor": math.floor,
    "max": max,
    "min": min,
}


def _num_eq(a, b):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if isinstance(a, Bits) or isinstance(b, Bits):
        return a == b
    if isinstance(a, bool) and isinstance(b, bool):
        return a == b
    return abs(complex(a) - complex(b)) <= FLOAT_EQ


def _bool_operand(state, expr):
    v = eval_expr(state, expr)
    if not isinstance(v, bool):
        raise EvalError("boolean operator on non-boolean value")
    return v


def eval_expr(state, expr):
    """Evaluate an expression in a classical state."""
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Var):
        return state[expr.name]
    if isinstance(expr, BinOp):
        op = expr.op
        if op in _BOOL:
            # short-circuits; each operand evaluated must be a boolean
            l = _bool_operand(state, expr.left)
            if op == "and":
                return l and _bool_operand(state, expr.right)
            if op == "or":
                return l or _bool_operand(state, expr.right)
            return (not l) or _bool_operand(state, expr.right)
        l = eval_expr(state, expr.left)
        r = eval_expr(state, expr.right)
        if op in _CMP:
            if op == "=":
                return _num_eq(l, r)
            if op == "!=":
                return not _num_eq(l, r)
            if isinstance(l, complex) or isinstance(r, complex):
                raise EvalError("order comparison on complex values")
            if op == "<":
                return l < r
            if op == "<=":
                return l <= r or _num_eq(l, r)
            if op == ">":
                return l > r
            return l >= r or _num_eq(l, r)
        if op in _ARITH:
            if isinstance(l, bool):
                l = int(l)
            if isinstance(r, bool):
                r = int(r)
            if op == "+":
                return l + r
            if op == "-":
                return l - r
            if op == "*":
                return l * r
            if op == "%":
                return l % r
            # exact when both integral and divisible, float otherwise
            if isinstance(l, int) and isinstance(r, int):
                if r == 0:
                    raise EvalError("division by zero")
                f = Fraction(l, r)
                return int(f) if f.denominator == 1 else float(f)
            if r == 0:
                raise EvalError("division by zero")
            return l / r
        raise EvalError("unknown operator %r" % op)
    if isinstance(expr, UnOp):
        v = eval_expr(state, expr.arg)
        if expr.op == "-":
            return -(int(v) if isinstance(v, bool) else v)
        if expr.op == "not":
            if not isinstance(v, bool):
                raise EvalError("negation of non-boolean value")
            return not v
        raise EvalError("unknown unary operator %r" % expr.op)
    if isinstance(expr, BitIndex):
        arr = state[expr.array]
        if not isinstance(arr, Bits):
            raise EvalError("%r is not a bit array" % expr.array)
        idx = eval_expr(state, expr.index)
        return arr[int(idx)]
    if isinstance(expr, BinFrac):
        arr = state[expr.array]
        if not isinstance(arr, Bits):
            raise EvalError("%r is not a bit array" % expr.array)
        k = int(eval_expr(state, expr.lo))
        l = int(eval_expr(state, expr.hi))
        if l < k:
            return 0.0
        # sum of arr[r] / 2^(r-k+1): the bits as an integer over 2^width;
        # int / int rounds correctly, as float(Fraction) does
        num = 0
        for r in range(k, l + 1):
            num = 2 * num + arr[r]
        return num / (1 << (l - k + 1))
    if isinstance(expr, Call):
        if expr.fn == "exp2pi":
            # e^(2 pi i x)
            x = eval_expr(state, expr.args[0])
            if isinstance(x, complex):
                raise EvalError("exp2pi expects a real argument")
            return complex(math.cos(2 * math.pi * x), math.sin(2 * math.pi * x))
        if expr.fn == "pi":
            return math.pi
        fn = _FUNCS.get(expr.fn)
        if fn is None:
            raise EvalError("unknown function %r" % expr.fn)
        return fn(*[eval_expr(state, a) for a in expr.args])
    if isinstance(expr, Quant):
        dom = expr.vartype.values()
        if dom is None:
            raise EvalError("quantifier over non-enumerable type")
        for v in dom:
            r = eval_expr(state.update(expr.var, v), expr.body)
            if not isinstance(r, bool):
                raise EvalError("quantifier body is not boolean")
            if expr.kind == "exists" and r:
                return True
            if expr.kind == "forall" and not r:
                return False
        return expr.kind == "forall"
    raise EvalError("unknown expression node %r" % (expr,))


def satisfies(state, formula):
    v = eval_expr(state, formula)
    if not isinstance(v, bool):
        raise EvalError("formula did not evaluate to a boolean")
    return v


# ---------------------------------------------------------------------------
# Free variables and substitution


def _int_lit(e):
    return isinstance(e, Lit) and type(e.value) is int


def reads(expr, bits=True):
    """What `eval_expr` reads of a state: (name, r) for bit r of a bit array
    indexed only at that literal position (`BitIndex`, `BinFrac`), and
    otherwise the name of the whole variable.  States that agree on these
    agree on the value, or on the error.  With `bits` false, only names."""
    if isinstance(expr, Lit):
        return set()
    if isinstance(expr, Var):
        return {expr.name}
    if isinstance(expr, BinOp):
        return reads(expr.left, bits) | reads(expr.right, bits)
    if isinstance(expr, UnOp):
        return reads(expr.arg, bits)
    if isinstance(expr, BitIndex):
        if bits and _int_lit(expr.index):
            return {(expr.array, expr.index.value)}
        return {expr.array} | reads(expr.index, bits)
    if isinstance(expr, BinFrac):
        lo, hi = expr.lo, expr.hi
        if bits and _int_lit(lo) and _int_lit(hi) and lo.value <= hi.value:
            return {(expr.array, r) for r in range(lo.value, hi.value + 1)}
        return {expr.array} | reads(lo, bits) | reads(hi, bits)
    if isinstance(expr, Call):
        out = set()
        for a in expr.args:
            out |= reads(a, bits)
        return out
    if isinstance(expr, Quant):
        return {x for x in reads(expr.body, bits)
                if (x if isinstance(x, str) else x[0]) != expr.var}
    raise EvalError("unknown expression node %r" % (expr,))


def free_vars(expr):
    return reads(expr, bits=False)


def _fresh(base, avoid):
    """The first of base, base_0, base_1, ... not in avoid."""
    cand, i = base, 0
    while cand in avoid:
        cand, i = "%s_%d" % (base, i), i + 1
    return cand


def subst(expr, repl, var):
    """expr[repl/var], capture avoiding."""
    if isinstance(expr, Lit):
        return expr
    if isinstance(expr, Var):
        return repl if expr.name == var else expr
    if isinstance(expr, BinOp):
        return BinOp(expr.op, subst(expr.left, repl, var), subst(expr.right, repl, var))
    if isinstance(expr, UnOp):
        return UnOp(expr.op, subst(expr.arg, repl, var))
    if isinstance(expr, BitIndex):
        if expr.array == var:
            if isinstance(repl, Var):
                return BitIndex(repl.name, subst(expr.index, repl, var))
            raise EvalError("cannot substitute a non-variable for bit array %r" % var)
        return BitIndex(expr.array, subst(expr.index, repl, var))
    if isinstance(expr, BinFrac):
        arr = expr.array
        if arr == var:
            if isinstance(repl, Var):
                arr = repl.name
            else:
                raise EvalError("cannot substitute a non-variable for bit array %r" % var)
        return BinFrac(arr, subst(expr.lo, repl, var), subst(expr.hi, repl, var))
    if isinstance(expr, Call):
        return Call(expr.fn, tuple(subst(a, repl, var) for a in expr.args))
    if isinstance(expr, Quant):
        if expr.var == var:
            return expr
        if expr.var in free_vars(repl):
            avoid = free_vars(expr.body) | free_vars(repl) | {var}
            nv = _fresh(expr.var, avoid)
            body = subst(expr.body, Var(nv), expr.var)
            return Quant(expr.kind, nv, expr.vartype, subst(body, repl, var))
        return Quant(expr.kind, expr.var, expr.vartype, subst(expr.body, repl, var))
    raise EvalError("unknown expression node %r" % (expr,))


# ---------------------------------------------------------------------------
# Enumeration of classical states


def state_count(typing, names):
    """The number of classical states over the given variable names.

    typing: dict name -> ClassicalType.  Raises EvalError naming every
    variable that is undeclared or whose type is not enumerable.
    """
    names = sorted(names)
    sizes = [typing[n].size() if n in typing else None for n in names]
    missing = [n for n, size in zip(names, sizes) if size is None]
    if missing:
        raise EvalError("no enumerable domain for %s" % ", ".join(missing))
    return math.prod(sizes)


def iter_states(typing, names):
    """Yield all classical states over the given variable names.  Raises
    EvalError as `state_count` does, or when there are more than DOMAIN_CAP
    states.
    """
    names = sorted(names)
    if state_count(typing, names) > DOMAIN_CAP:
        raise EvalError("state space size exceeds cap %d" % DOMAIN_CAP)
    for combo in itertools.product(*(typing[n].values() for n in names)):
        yield ClassicalState(zip(names, combo))


# ---------------------------------------------------------------------------
# Structural normalization (for proof checking)


def _flatten(op, e, out):
    if isinstance(e, BinOp) and e.op == op:
        _flatten(op, e.left, out)
        _flatten(op, e.right, out)
    else:
        out.append(e)


def normalize(expr, bound=None):
    """Canonical form: and/or flattened right-associatively, bound variables
    renamed positionally.  Used for structural formula equality."""
    bound = bound or {}
    if isinstance(expr, Lit):
        return expr
    if isinstance(expr, Var):
        return Var(bound.get(expr.name, expr.name))
    if isinstance(expr, BinOp):
        if expr.op in ("and", "or"):
            parts = []
            _flatten(expr.op, expr, parts)
            parts = [normalize(p, bound) for p in parts]
            out = parts[-1]
            for p in reversed(parts[:-1]):
                out = BinOp(expr.op, p, out)
            return out
        return BinOp(expr.op, normalize(expr.left, bound), normalize(expr.right, bound))
    if isinstance(expr, UnOp):
        return UnOp(expr.op, normalize(expr.arg, bound))
    if isinstance(expr, BitIndex):
        return BitIndex(bound.get(expr.array, expr.array), normalize(expr.index, bound))
    if isinstance(expr, BinFrac):
        return BinFrac(
            bound.get(expr.array, expr.array),
            normalize(expr.lo, bound),
            normalize(expr.hi, bound),
        )
    if isinstance(expr, Call):
        return Call(expr.fn, tuple(normalize(a, bound) for a in expr.args))
    if isinstance(expr, Quant):
        nv = "$b%d" % len(bound)
        nb = dict(bound)
        nb[expr.var] = nv
        return Quant(expr.kind, nv, expr.vartype, normalize(expr.body, nb))
    raise EvalError("unknown expression node %r" % (expr,))


def formula_equal(a, b):
    """Whether two formulas have one normal form.  Equal trees are one
    object whose literals have the same types, so 1, 1.0 and true differ."""
    return a is b or normalize(a) is normalize(b)


def conj(*parts):
    parts = [p for p in parts if p != TRUE]
    if not parts:
        return TRUE
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = BinOp("and", p, out)
    return out


def neg(f):
    return UnOp("not", f)
