"""`classical.Node`, the base of every immutable tree and value type: each
class behaves as the frozen dataclass it replaced, checked against a twin
frozen dataclass with the same fields, and no frozen dataclass is left."""

import dataclasses
import importlib
import pkgutil

import pytest

import cqhoare
from cqhoare import assertions as asrt
from cqhoare import classical as cl
from cqhoare import linalg as la
from cqhoare import prover as pv
from cqhoare import qsyntax as qs
from cqhoare import structures as st

_REQUIRED = dataclasses.MISSING

# every node class with its fields, in order, and their defaults
FIELDS = {
    cl.BoolType: {}, cl.IntType: {"lo": _REQUIRED, "hi": _REQUIRED},
    cl.EnumType: {"name": _REQUIRED, "labels": _REQUIRED}, cl.RealType: {},
    cl.ComplexType: {}, cl.Bits: {"lo": _REQUIRED, "bits": _REQUIRED},
    cl.BitArrayType: {"lo": _REQUIRED, "hi": _REQUIRED}, cl.Lit: {"value": _REQUIRED},
    cl.Var: {"name": _REQUIRED},
    cl.BinOp: {"op": _REQUIRED, "left": _REQUIRED, "right": _REQUIRED},
    cl.UnOp: {"op": _REQUIRED, "arg": _REQUIRED},
    cl.BitIndex: {"array": _REQUIRED, "index": _REQUIRED},
    cl.BinFrac: {"array": _REQUIRED, "lo": _REQUIRED, "hi": _REQUIRED},
    cl.Call: {"fn": _REQUIRED, "args": _REQUIRED},
    cl.Quant: {"kind": _REQUIRED, "var": _REQUIRED, "vartype": _REQUIRED, "body": _REQUIRED},
    cl._TypedLit: {"kind": _REQUIRED, "value": _REQUIRED},
    qs.QVar: {"name": _REQUIRED, "subs": ()}, qs.Skip: {},
    qs.Assign: {"var": _REQUIRED, "expr": _REQUIRED}, qs.Init: {"qvar": _REQUIRED},
    qs.Gate: {"name": _REQUIRED, "params": _REQUIRED, "targets": _REQUIRED},
    qs.Measure: {"var": _REQUIRED, "meas": _REQUIRED, "targets": _REQUIRED},
    qs.Seq: {"first": _REQUIRED, "second": _REQUIRED},
    qs.If: {"cond": _REQUIRED, "then": _REQUIRED, "orelse": _REQUIRED},
    qs.While: {"cond": _REQUIRED, "body": _REQUIRED},
    asrt.Ket: {"value": _REQUIRED, "qvar": _REQUIRED},
    asrt.STensor: {"left": _REQUIRED, "right": _REQUIRED},
    asrt.Superpose: {"c1": _REQUIRED, "s1": _REQUIRED, "c2": _REQUIRED, "s2": _REQUIRED},
    asrt.GateApp: {"gate": _REQUIRED, "params": _REQUIRED, "targets": _REQUIRED,
                   "state": _REQUIRED},
    asrt.Atomic: {"name": _REQUIRED, "params": _REQUIRED, "targets": _REQUIRED},
    asrt.StateProj: {"state": _REQUIRED}, asrt.Neg: {"arg": _REQUIRED},
    asrt.PTensor: {"left": _REQUIRED, "right": _REQUIRED},
    asrt.Kraus: {"name": _REQUIRED, "params": _REQUIRED, "targets": _REQUIRED,
                 "branches": _REQUIRED},
    asrt.CqAssertion: {"phi": _REQUIRED, "a": _REQUIRED},
    la.Tolerances: {"hermitian": 1e-10, "psd": 1e-9, "trace": 1e-9, "unitary": 1e-9,
                    "completeness": 1e-9, "prune": 1e-14, "fuzz": 1e-7},
    la.RegisterLayout: {"systems": _REQUIRED},
    st.QuantumVarDecl: {"name": _REQUIRED, "dim": _REQUIRED, "index_types": None},
    pv.HoareTriple: {"pre": _REQUIRED, "program": _REQUIRED, "post": _REQUIRED,
                     "mode": "partial"},
}

# field values for the classes whose `__post_init__` checks them
VALUES = {cl.BitArrayType: (1, 3), la.RegisterLayout: (((("q", ()), 2),),)}


def _package_modules():
    return [importlib.import_module("cqhoare." + m.name)
            for m in pkgutil.iter_modules(cqhoare.__path__)]


def _package_classes():
    for mod in _package_modules():
        for obj in vars(mod).values():
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                yield obj


def _twin(cls):
    """The frozen dataclass `cls` was before it became a node."""
    spec = [(n, object) if d is _REQUIRED else (n, object, dataclasses.field(default=d))
            for n, d in FIELDS[cls].items()]
    twin = dataclasses.make_dataclass(cls.__name__, spec, frozen=True)
    twin.__qualname__ = cls.__qualname__
    return twin


def _values(cls):
    return VALUES.get(cls, tuple("f%d" % i for i in range(len(FIELDS[cls]))))


def test_every_node_class_is_listed():
    nodes = {c for c in _package_classes() if issubclass(c, cl.Node) and c is not cl.Node}
    assert nodes == set(FIELDS)


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__qualname__)
def test_a_node_behaves_as_its_frozen_dataclass(cls):
    names, twin, values = tuple(FIELDS[cls]), _twin(cls), _values(cls)
    node, same = cls(*values), cls(*values)
    assert qs.field_names(cls) == names
    assert repr(node) == repr(twin(*values))
    assert node == same and not node != same and hash(node) == hash(twin(*values))
    assert node == cls(**dict(zip(names, values)))
    assert node != values and node != twin(*values)
    # trailing defaults, by position and by keyword
    required = [n for n in names if FIELDS[cls][n] is _REQUIRED]
    given = values[:len(required)]
    assert repr(cls(*given)) == repr(twin(*given))
    assert repr(cls(**dict(zip(required, given)))) == repr(twin(*given))
    for name in names or ("other",):
        for act in (lambda x: setattr(x, name, 0), lambda x: delattr(x, name)):
            with pytest.raises(dataclasses.FrozenInstanceError) as got:
                act(node)
            with pytest.raises(dataclasses.FrozenInstanceError) as want:
                act(twin(*values))
            assert str(got.value) == str(want.value)
    assert repr(node) == repr(twin(*values))  # unchanged by the attempts


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__qualname__)
def test_a_bad_call_is_the_dataclass_type_error(cls):
    names, values = tuple(FIELDS[cls]), _values(cls)
    calls = [lambda c: c(*values, 0), lambda c: c(*values, no_such_field=0)]
    if any(d is _REQUIRED for d in FIELDS[cls].values()):
        calls.append(lambda c: c())
    if names:
        calls.append(lambda c: c(values[0], **{names[0]: values[0]}))
    for call in calls:
        with pytest.raises(TypeError) as got:
            call(cls)
        with pytest.raises(TypeError) as want:
            call(_twin(cls))
        assert str(got.value) == str(want.value)


def test_a_field_without_a_default_cannot_follow_one_with_a_default():
    with pytest.raises(TypeError, match="a field without a default follows one"):
        type("Bad", (cl.Node,), {"__annotations__": {"a": int, "b": int}, "a": 0})
    with pytest.raises(TypeError, match="at most 7 fields"):
        type("Wide", (cl.Node,), {"__annotations__": dict.fromkeys("abcdefgh", int)})


def test_reprs_are_the_dataclass_text():
    q = qs.QVar("q")
    assert repr(cl.Var("x")) == "Var(name='x')"
    assert repr(q) == "QVar(name='q', subs=())"
    assert repr(qs.Skip()) == "Skip()"
    assert repr(cl.BinOp("+", cl.Var("x"), cl.Lit(1))) == (
        "BinOp(op='+', left=Var(name='x'), right=Lit(value=1))")
    t = pv.HoareTriple(asrt.CqAssertion(cl.TRUE, asrt.Atomic("P", (), (q,))), qs.Skip(),
                       asrt.CqAssertion(cl.FALSE, asrt.Neg(asrt.Atomic("P", (), (q,)))))
    assert repr(t) == (
        "HoareTriple(pre=CqAssertion(phi=Lit(value=True), a=Atomic(name='P', params=(), "
        "targets=(QVar(name='q', subs=()),))), program=Skip(), post=CqAssertion("
        "phi=Lit(value=False), a=Neg(arg=Atomic(name='P', params=(), "
        "targets=(QVar(name='q', subs=()),)))), mode='partial')")
    assert repr(la.Tolerances(psd=0.5)) == (
        "Tolerances(hermitian=1e-10, psd=0.5, trace=1e-09, unitary=1e-09, "
        "completeness=1e-09, prune=1e-14, fuzz=1e-07)")


def test_equal_values_of_other_types_make_equal_literals():
    one, true, real = cl.Lit(1), cl.Lit(True), cl.Lit(1.0)
    assert one == true == real and hash(one) == hash(true) == hash(real) == hash((1,))
    assert cl.normalize(one) != cl.normalize(true)  # the typed form tells them apart
    nan = float("nan")
    assert cl.Lit(nan) == cl.Lit(nan)  # the same object, as a tuple compares it
    assert cl.Lit(float("nan")) != cl.Lit(float("nan"))
    # the class is part of equality, not only the fields
    assert asrt.STensor("a", "b") != asrt.PTensor("a", "b")
    assert qs.Skip() == qs.Skip() and hash(qs.Skip()) == hash(())


def test_post_init_checks_still_run():
    with pytest.raises(ValueError, match="empty bit array range"):
        cl.BitArrayType(3, 1)
    with pytest.raises(la.LayoutError, match="duplicate system q"):
        la.RegisterLayout(((("q", ()), 2), (("q", ()), 2)))
    layout = la.RegisterLayout(((("q", ()), 2),))
    with pytest.raises(la.LayoutError, match="duplicate system q"):
        cl.replace(layout, systems=layout.systems * 2)


def test_replace_changes_the_named_fields():
    k = asrt.Kraus("F_H", (), (qs.QVar("q"),), (asrt.Atomic("P", (), ()),))
    r = cl.replace(k, name="F_X", params=(cl.Lit(1),))
    assert r == asrt.Kraus("F_X", (cl.Lit(1),), k.targets, k.branches)
    assert r.targets is k.targets and cl.replace(k) == k
    with pytest.raises(TypeError, match="unexpected keyword argument 'nme'"):
        cl.replace(k, nme="F_X")


def test_no_frozen_dataclass_is_left():
    """A frozen dataclass compiles its methods at import; immutable types
    are `cl.Node` subclasses instead."""
    frozen = [c.__module__ + "." + c.__qualname__ for c in _package_classes()
              if dataclasses.is_dataclass(c) and c.__dataclass_params__.frozen]
    assert frozen == []
