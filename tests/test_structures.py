import numpy as np
import pytest

from cqhoare import classical as cl
from cqhoare import linalg as la
from cqhoare import structures as st
from cqhoare.qsyntax import QVar


def test_builtin_gates_are_unitary():
    interp = st.default_interpretation()
    for name in ("H", "X", "Y", "Z", "CNOT", "SWAP", "CZ", "REVERSE2"):
        assert la.is_unitary(interp.gate(name).matrix(()))
    assert la.is_unitary(interp.gate("Rz").matrix((0.3,)))
    assert la.is_unitary(interp.gate("CR").matrix((3,)))


def test_phase_rotation_values():
    interp = st.default_interpretation()
    r = interp.gate("R").matrix((2,))
    assert abs(r[1, 1] - 1j) < 1e-12  # e^{2 pi i / 4}
    cr = interp.gate("CR").matrix((1,))
    assert abs(cr[3, 3] + 1.0) < 1e-12


def test_reverse_gate_reverses_order():
    interp = st.default_interpretation()
    rev = interp.gate("REVERSE3").matrix(())
    v = np.zeros(8)
    v[0b100] = 1.0
    assert abs((rev @ v)[0b001] - 1.0) < 1e-12


def test_non_unitary_gate_rejected():
    g = st.GateFamily("BAD", (), (2,), lambda: np.array([[1, 0], [0, 2]]))
    with pytest.raises(st.InterpError):
        g.matrix(())


def test_measurement_completeness_enforced():
    good = st.computational_measurement("M", 1)
    total = sum(m.conj().T @ m for m in good.operators.values())
    assert np.allclose(total, np.eye(2))
    with pytest.raises(st.InterpError):
        st.MeasurementFamily("BADM", cl.IntType(0, 1), (2,),
                             {0: np.diag([1.0, 0.0]), 1: np.diag([0.0, 0.5])})


def test_measurement_completeness_reads_the_tolerance():
    # complete only to 1e-6: M1^dagger M1 = (1 + 1e-6) |1><1|
    s = np.sqrt(1 + 1e-6)
    doc = {"measurements": {"MX": {
        "outcome": {"kind": "int", "lo": 0, "hi": 1},
        "operators": {"0": [[1, 0], [0, 0]], "1": [[0, 0], [0, s]]}}}}
    with pytest.raises(st.InterpError):
        st.load_interpretation(doc)
    interp = st.load_interpretation(
        dict(doc, tolerances={"completeness": 1e-5}))
    assert set(interp.measurement("MX").operators) == {0, 1}


def test_load_interpretation_checks_read_the_tolerances():
    s = 1 + 1e-6  # unitary, sub-normalized and an effect only to 1e-6
    doc = {"gates": {"G": {"matrix": [[[s, 0], [0, 0]], [[0, 0], [1, 0]]]}},
           "kraus_symbols": {"K": {"operators": [[[s, 0], [0, 0]],
                                                  [[0, 0], [1, 0]]]}},
           "atomic_predicates": {"A": {"matrix": [[[s, 0], [0, 0]],
                                                  [[0, 0], [0, 0]]]}}}
    for part in ("gates", "kraus_symbols", "atomic_predicates"):
        with pytest.raises(st.InterpError):
            st.load_interpretation({part: doc[part]})
    loose = {"unitary": 1e-5, "psd": 1e-5}
    interp = st.load_interpretation(dict(doc, tolerances=loose))
    assert {"G", "K", "A"} <= set(interp.gates) | set(interp.kraus) | set(
        interp.predicates)


def test_kraus_subnormalization():
    with pytest.raises(st.InterpError):
        st.KrausSymbol("TOOBIG", 1, (), (2,),
                       lambda: [np.eye(2) * 1.5]).operators(())
    # scalar symbols: sum of squared magnitudes at most 1
    with pytest.raises(st.InterpError):
        st.KrausSymbol("TOOBIG2", 2, (), None,
                       lambda: [0.8, 0.8]).operators(())


def test_derived_families():
    interp = st.default_interpretation()
    fb = interp.kraus_symbol("FB2")
    ops = fb.operators(())
    total = sum(f @ f.conj().T for f in ops)
    assert np.allclose(total, np.eye(2))
    # F_U is the adjoint of the gate
    fu = interp.kraus_symbol("F_H").operators(())
    assert np.allclose(fu[0], interp.gate("H").matrix(()).conj().T)
    # F_M(m) is the adjoint of the outcome operator
    fm = interp.kraus_symbol("F_M").operators((1,))
    assert np.allclose(fm[0], np.diag([0.0, 1.0]))


def test_weighted_sum_symbols():
    interp = st.default_interpretation()
    w = interp.kraus_symbol("WSUM2")
    cs = w.operators((0.25, 0.5))
    assert abs(cs[0] - 0.5) < 1e-12 and abs(cs[1] - np.sqrt(0.5)) < 1e-12
    with pytest.raises(st.InterpError):
        w.operators((0.7, 0.7))


def test_designated_symbols_derive_on_lookup():
    interp = st.default_interpretation()
    for d in (1, 3, 5, 17):
        fb = interp.kraus_symbol("FB%d" % d)
        assert (fb.rank, fb.dims) == (d, (d,))
        for f, e in zip(fb.operators(()), st.init_operators(d)):
            assert np.array_equal(f, e.conj().T)
    for k in (1, 9, 12):
        assert interp.kraus_symbol("WSUM%d" % k).rank == k
    for name in ("FB0", "FB03", "WSUM0", "F_NOPE", "F_"):
        with pytest.raises(st.InterpError):
            interp.kraus_symbol(name)
    assert interp.kraus == {}


def test_user_symbols_may_not_take_designated_names():
    ident = st.KrausSymbol("F_H", 1, (), (2,), lambda: [np.eye(2)])
    with pytest.raises(st.InterpError, match="F_H.*reserved"):
        st.Interpretation(kraus={"F_H": ident})
    gate = {"matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}
    sym = {"operators": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}
    with pytest.raises(st.InterpError, match="F_MYX.*reserved"):
        st.load_interpretation({"gates": {"MYX": gate},
                                "kraus_symbols": {"F_MYX": sym}})
    interp = st.load_interpretation({"kraus_symbols": {"F_MYX": sym}})
    assert interp.kraus_symbol("F_MYX") is interp.kraus["F_MYX"]


def test_resolution_and_ranges():
    interp = st.default_interpretation()
    interp.declare_classical("k", cl.IntType(0, 3))
    interp.declare_quantum("q", 2, (cl.IntType(1, 4),))
    sigma = cl.ClassicalState({"k": 2})
    sid = interp.resolve(sigma, QVar("q", (cl.BinOp("+", cl.Var("k"), cl.Lit(1)),)))
    assert sid == ("q", (3,))
    with pytest.raises(st.ResolutionError):
        interp.resolve(sigma, QVar("q", (cl.Lit(9),)))
    with pytest.raises(st.ResolutionError):
        interp.resolve(sigma, QVar("q"))  # missing subscript


def test_layout_uses_declaration_order():
    interp = st.default_interpretation()
    interp.declare_quantum("b", 2)
    interp.declare_quantum("a", 2)
    lay = interp.make_layout(interp.all_systems())
    assert [s[0] for s in lay.ids] == ["b", "a"]


def test_builtin_predicates_are_effects():
    interp = st.default_interpretation()
    for name in ("P0", "P1", "PPLUS", "ID1", "HALF1"):
        k = interp.predicate(name).matrix(())
        assert la.is_effect(k)


def test_load_interpretation():
    doc = {
        "classical_vars": {"x": {"kind": "int", "lo": 0, "hi": 1}},
        "quantum_vars": {
            "q": {"dim": 2,
                  "indices": [{"kind": "int", "lo": 1, "hi": 2}]}},
        "gates": {"MYX": {"matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}},
    }
    interp = st.load_interpretation(doc)
    assert interp.classical_vars["x"] == cl.IntType(0, 1)
    assert interp.decl_of("q").index_types == (cl.IntType(1, 2),)
    assert np.allclose(interp.gate("MYX").matrix(()),
                       np.array([[0, 1], [1, 0]]))
    # the derived adjoint family comes along
    assert interp.kraus_symbol("F_MYX").rank == 1


def test_load_interpretation_rejects_bad_gate():
    doc = {"gates": {"BAD": {"matrix": [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]}}}
    with pytest.raises(st.InterpError):
        st.load_interpretation(doc)


def test_parameters_are_checked_against_their_declared_types():
    interp = st.default_interpretation()
    for bad in ((0.5,), (-3,), (65,), (True,), ()):
        with pytest.raises(st.InterpError, match="takes parameters"):
            interp.gate("CR").matrix(bad)
        with pytest.raises(st.InterpError, match="takes parameters"):
            interp.kraus_symbol("F_R").operators(bad)
    with pytest.raises(st.InterpError, match="takes parameters"):
        interp.predicate("P0").matrix((1,))
    with pytest.raises(st.InterpError, match="takes parameters"):
        interp.kraus_symbol("F_M").operators((2,))
    with pytest.raises(st.InterpError, match="takes parameters"):
        interp.kraus_symbol("WSUM1").operators((1j,))


def test_a_cached_parameter_does_not_admit_an_equal_value_of_another_type():
    interp = st.default_interpretation()
    assert la.is_unitary(interp.gate("R").matrix((1,)))
    with pytest.raises(st.InterpError):
        interp.gate("R").matrix((True,))
