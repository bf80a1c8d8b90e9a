import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from cqhoare import classical as cl
from cqhoare import linalg as la
from cqhoare import qsyntax as qs
from cqhoare import structures as st
from cqhoare import semantics as sem
from cqhoare import assertions as asrt
from cqhoare import prover as pv

from conftest import (small_interp, random_loop_free, random_input,
                      random_density)


def prog(src):
    return qs.parse_program(src, measurements={"M"})


def basis_input(interp, sigma=None, index=0):
    layout = interp.make_layout(interp.all_systems())
    rho = la.pure_state(la.basis_vector(index, layout.dim), layout)
    return sem.CqState(sigma or cl.ClassicalState({"x": 0, "y": 0}), rho)


def test_assignment_and_skip():
    interp = small_interp()
    out = sem.run(prog("skip; x := y + 1"), basis_input(
        interp, cl.ClassicalState({"x": 0, "y": 2})), 0, interp)
    assert len(out.items) == 1
    assert out.items[0].sigma["x"] == 3


def test_assignment_out_of_declared_range():
    interp = small_interp()
    with pytest.raises(sem.SemanticsError):
        sem.run(prog("x := 7"), basis_input(interp), 0, interp)


def test_init_channel_resets_to_zero():
    interp = small_interp()
    st = basis_input(interp)
    # put q1 into |1> then reset it
    out = sem.run(prog("X[q1]; q1 := |0>"), st, 0, interp)
    assert len(out.items) == 1
    rho = out.items[0].rho
    ref = basis_input(interp).rho
    assert np.allclose(rho.mat, ref.mat, atol=1e-12)


def test_measurement_branches_are_unnormalized():
    interp = small_interp()
    out = sem.run(prog("H[q1]; x := M[q1]"), basis_input(interp), 0, interp)
    assert len(out.items) == 2
    traces = sorted(round(it.trace(), 12) for it in out.items)
    assert traces == [0.5, 0.5]
    outcomes = sorted(it.sigma["x"] for it in out.items)
    assert outcomes == [0, 1]


def test_conditional_follows_guard():
    interp = small_interp()
    st = basis_input(interp, cl.ClassicalState({"x": 1, "y": 0}))
    out = sem.run(prog("if x = 1 then y := 3 else y := 2 fi"), st, 0, interp)
    assert out.items[0].sigma["y"] == 3


def test_failed_distinctness_blocks():
    interp = small_interp()
    interp.declare_quantum("q", 2, (cl.IntType(0, 3),))
    p = qs.parse_program("CNOT[q[x], q[y]]")
    st = basis_input(interp, cl.ClassicalState({"x": 1, "y": 1}))
    out = sem.run(p, st, 0, interp)
    assert out.items == [] and abs(out.blocked_trace - 1.0) < 1e-12


def test_while_true_never_terminates():
    interp = small_interp()
    for fuel in (0, 3, 7):
        out = sem.run(prog("while true do skip od"), basis_input(interp),
                      fuel, interp)
        assert out.items == []
        assert abs(out.residual_trace() - 1.0) < 1e-12


def test_fuel_counts_loop_unrollings_only():
    interp = small_interp()
    # straight-line code costs no fuel
    out = sem.run(prog("H[q1]; H[q1]; x := 1"), basis_input(interp), 0, interp)
    assert len(out.items) == 1
    p = prog("while x < 3 do x := x + 1 od")
    st = basis_input(interp)
    assert sem.run(p, st, 2, interp).items == []
    assert len(sem.run(p, st, 3, interp).items) == 1


def test_trace_non_increase_and_fuel_monotone():
    interp = small_interp()
    rng = np.random.default_rng(11)
    p = prog("x := M[q1]; while x = 1 do H[q1]; x := M[q1] od")
    st = random_input(rng, interp)
    prev_items = -1.0
    for fuel in range(5):
        out = sem.run(p, st, fuel, interp)
        total = out.items_trace() + out.residual_trace() + out.blocked_trace \
            + out.pruned_trace
        assert total <= st.trace() + 1e-12
        assert out.items_trace() >= prev_items - 1e-12
        prev_items = out.items_trace()


def test_run_matches_structural_semantics_randomized():
    interp = small_interp()
    rng = np.random.default_rng(5)
    for _ in range(40):
        p = random_loop_free(rng)
        st = random_input(rng, interp)
        a = sem.run(p, st, 3, interp)
        b = sem.structural_sem(p, st, 3, interp)
        assert sem.multiset_equal(a.items, b.items, tol=1e-12)


def test_structural_semantics_on_loops():
    interp = small_interp()
    p = prog("x := M[q1]; while x = 1 do H[q1]; x := M[q1] od")
    rng = np.random.default_rng(7)
    st = random_input(rng, interp)
    for fuel in range(4):
        a = sem.run(p, st, fuel, interp)
        b = sem.structural_sem(p, st, fuel, interp)
        assert sem.multiset_equal(a.items, b.items, tol=1e-12)
        assert abs(a.residual_trace() - b.residual_trace()) < 1e-12


def test_theta_of_and_normalize():
    interp = small_interp()
    out = sem.run(prog("H[q1]; x := M[q1]; x := 0"), basis_input(interp),
                  0, interp)
    sigma = out.items[0].sigma
    assert len(out.items) == 2  # same sigma reached on two paths, kept apart
    theta = sem.theta_of(out, sigma)
    assert abs(theta.trace() - 1.0) < 1e-12
    norm = sem.normalize(out)
    assert len(norm) == 1


def test_normalize_merges_per_sigma():
    interp = small_interp()
    out = sem.run(prog("H[q1]; x := M[q1]; x := 0"), basis_input(interp),
                  0, interp)
    norm = sem.normalize(out)
    assert len(norm) == 1


def test_equivalence_reflexive_and_skip_unit():
    interp = small_interp()
    rng = np.random.default_rng(3)
    inputs = [random_input(rng, interp) for _ in range(3)]
    p = prog("H[q1]; x := M[q1]")
    assert sem.equivalent(p, p, inputs, 4, interp).equal is True
    p2 = prog("skip; H[q1]; x := M[q1]")
    assert sem.equivalent(p, p2, inputs, 4, interp).equal is True
    p3 = prog("X[q1]; x := M[q1]")
    assert sem.equivalent(p, p3, inputs, 4, interp).equal is False


def test_equivalence_inconclusive_on_nontermination():
    interp = small_interp()
    inputs = [basis_input(interp)]
    p = prog("while true do skip od")
    v = sem.equivalent(p, p, inputs, 2, interp)
    assert v.equal is None


def test_nt_lower_bound_geometric():
    interp = small_interp()
    layout = interp.make_layout(interp.all_systems())
    plus = np.zeros(layout.dim)
    plus[0] = plus[layout.dim // 2] = 1 / np.sqrt(2)  # |+> on q1
    st = sem.CqState(cl.ClassicalState({"x": 1, "y": 0}),
                     la.pure_state(plus, layout))
    p = prog("while x = 1 do x := M[q1]; H[q1] od")
    for k in range(1, 6):
        assert abs(sem.nt_lower_bound(p, st, k, interp) - 2.0 ** -k) < 1e-12


def test_run_and_structural_sem_agree_on_a_long_sequence():
    interp = small_interp()
    body = [qs.Gate("H", (), (qs.QVar("q1"),)), qs.Skip(),
            qs.Gate("CNOT", (), (qs.QVar("q1"), qs.QVar("q2"))),
            qs.Assign("y", cl.BinOp("%", cl.BinOp("+", cl.Var("y"), cl.Lit(1)),
                                    cl.Lit(4)))]
    cmds = [qs.Measure("x", "M", (qs.QVar("q3"),))]
    cmds += [body[i % len(body)] for i in range(1997)]
    cmds += [prog("while x = 1 do H[q3]; x := M[q3] od"), qs.Skip()]
    p = qs.seq_all(cmds)
    assert len(qs.seq_parts(p)) == 2000
    st = random_input(np.random.default_rng(11), interp)
    st = sem.CqState(cl.ClassicalState({"x": 0, "y": 0}), st.rho)
    a = sem.run(p, st, 2, interp)
    b = sem.structural_sem(p, st, 2, interp)
    assert len(a.items) == len(b.items) == 3
    assert sem.multiset_equal(a.items, b.items, tol=1e-12)
    assert len(a.residual) == len(b.residual) == 1
    assert a.residual[0].program == b.residual[0].program
    assert abs(a.residual_trace() - b.residual_trace()) < 1e-12
    assert abs(a.pruned_trace - b.pruned_trace) < 1e-12
    assert a.blocked_trace == b.blocked_trace == 0.0


def test_run_and_structural_sem_agree_on_a_long_left_nested_sequence():
    """((skip; H[q1]); H[q1]) ... 3000 deep, then a measurement, a loop
    and skip: `step` re-associates the spine instead of recursing down it,
    and its residual comes out right-nested, as `structural_sem` builds it."""
    interp = small_interp()
    p = qs.Skip()
    for _ in range(3000):
        p = qs.Seq(p, qs.Gate("H", (), (qs.QVar("q1"),)))
    for c in (qs.Measure("x", "M", (qs.QVar("q3"),)),
              prog("while x = 1 do H[q3]; x := M[q3] od"), qs.Skip()):
        p = qs.Seq(p, c)
    st = random_input(np.random.default_rng(13), interp)
    st = sem.CqState(cl.ClassicalState({"x": 0, "y": 0}), st.rho)
    a = sem.run(p, st, 1, interp)
    b = sem.structural_sem(p, st, 1, interp)
    assert len(a.items) == len(b.items) == 2
    assert sem.multiset_equal(a.items, b.items, tol=1e-12)
    assert len(a.residual) == len(b.residual) == 1
    assert a.residual[0].program == b.residual[0].program
    assert abs(a.residual_trace() - b.residual_trace()) < 1e-12


# ---------------------------------------------------------------------------
# Stacked runs: one branch tree, masses per member


def _array_interp():
    interp = small_interp()
    interp.declare_quantum("r", 2, (cl.IntType(0, 1),))
    return interp


# r[1] is measured into x; for x = 1 the CNOT's operands coincide and the
# branch blocks; the loop on r[0] leaves a residual at fuel 2
STACK_PROG = ("x := M[r[1]]; CNOT[r[1], r[x]]; "
              "while y = 1 do y := M[r[0]]; H[r[0]] od")


def _stack_members(layout):
    """Three inputs on q1..q3 (x) r[0] (x) r[1]: |+> on r[0] with a tiny |1>
    amplitude on r[1], |1> on r[0] with |+> on r[1], and a random mixed
    state."""
    def on_r(v0, v1):
        rest = la.basis_vector(0, layout.dim // 4)
        return la.pure_state(np.kron(rest, np.kron(v0, v1)), layout).mat
    eps = 1e-8
    tiny = np.array([np.sqrt(1 - eps), np.sqrt(eps)])
    plus = np.array([1, 1]) / np.sqrt(2)
    one = np.array([0.0, 1.0])
    mixed = random_density(np.random.default_rng(4), layout)
    return np.stack([on_r(plus, tiny), on_r(one, plus), mixed.mat])


def test_stacked_run_keeps_masses_per_member():
    interp = _array_interp()
    layout = interp.make_layout(interp.all_systems())
    assert layout.ids[-2:] == (("r", (0,)), ("r", (1,)))
    mats = _stack_members(layout)
    sigma = cl.ClassicalState({"x": 0, "y": 1})
    p = prog(STACK_PROG)
    out = sem.run(p, sem.CqState(sigma, la.DensityOperator(layout, mats)), 2,
                  interp, prune=1e-6)
    for i, mat in enumerate(mats):
        solo = sem.run(p, sem.CqState(sigma, la.DensityOperator(layout, mat)), 2,
                       interp, prune=1e-6)
        assert out.pruned_trace[i] == solo.pruned_trace
        assert out.blocked_trace[i] == solo.blocked_trace
        assert out.residual_trace()[i] == solo.residual_trace()
        assert out.items_trace()[i] == solo.items_trace()
        assert out.input_trace[i] == solo.input_trace
        # the member's live items are the solo items, in the same order;
        # where it was pruned, it is zero
        live = [s for s in out.items if np.any(s.rho.mat[i] != 0)]
        assert len(live) == len(solo.items)
        for s, t in zip(live, solo.items):
            assert s.sigma == t.sigma
            assert np.array_equal(s.rho.mat[i], t.rho.mat)
    # the first member's x = 1 branch is pruned, the second's is blocked:
    # the branch lives on for the second member
    assert 0 < out.pruned_trace[0] < 1e-6 and out.blocked_trace[0] == 0.0
    assert out.pruned_trace[1] == 0.0 and abs(out.blocked_trace[1] - 0.5) < 1e-12
    assert np.all(out.residual_trace() > 0)


def test_stack_of_one_is_the_unstacked_run():
    interp = _array_interp()
    layout = interp.make_layout(interp.all_systems())
    mat = _stack_members(layout)[2]
    sigma = cl.ClassicalState({"x": 0, "y": 1})
    p = prog(STACK_PROG)
    a = sem.run(p, sem.CqState(sigma, la.DensityOperator(layout, mat)), 3, interp)
    b = sem.run(p, sem.CqState(sigma, la.DensityOperator(layout, mat[None])), 3,
                interp)
    assert isinstance(a.blocked_trace, float) and b.blocked_trace.shape == (1,)
    assert len(a.items) == len(b.items) and len(a.residual) == len(b.residual)
    for s, t in zip(a.items, b.items):
        assert s.sigma == t.sigma and np.array_equal(s.rho.mat, t.rho.mat[0])
    assert (a.blocked_trace, a.pruned_trace, a.residual_trace()) == \
        (b.blocked_trace[0], b.pruned_trace[0], b.residual_trace()[0])


def test_branch_cap_counts_the_batch_branches():
    interp = small_interp()
    layout = interp.make_layout(interp.all_systems())
    p = prog("H[q1]; x := M[q1]; H[q2]; y := M[q2]")
    mats = np.stack([random_density(np.random.default_rng(i), layout).mat
                     for i in range(3)])
    sigma = cl.ClassicalState({"x": 0, "y": 0})
    out = sem.run(p, sem.CqState(sigma, la.DensityOperator(layout, mats)), 0,
                  interp, branch_cap=4)
    assert len(out.items) == 4
    with pytest.raises(sem.SemanticsError):
        sem.run(p, sem.CqState(sigma, la.DensityOperator(layout, mats)), 0,
                interp, branch_cap=3)


def test_statements_check_their_target_dimensions():
    interp = small_interp()
    interp.declare_quantum("t", 3)
    layout = interp.make_layout(interp.all_systems())
    state = sem.CqState(cl.ClassicalState({"x": 0, "y": 0}), la.pure_state(
        la.basis_vector(0, layout.dim), layout))
    for src in ("H[t]", "x := M[t]"):
        with pytest.raises(sem.SemanticsError, match="expects dimensions"):
            sem.run(qs.parse_program(src, measurements={"M"}), state, 0, interp)


def _unitary(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return np.linalg.qr(g)[0]


_ONE_QUBIT = {"H": None, "Y": None, "Rx": "real", "Rz": "real", "R": "int"}
_TWO_QUBIT = {"CNOT": None, "SWAP": None, "Rxx": "real", "CR": "int"}


@settings(max_examples=200, deadline=None)
@given(seed=hst.integers(0, 2 ** 32 - 1), n=hst.integers(1, 2),
       kind=hst.sampled_from(["gate", "measure", "init"]))
def test_designated_symbols_are_the_adjoints_of_run(seed, n, kind):
    """tr(F(A) rho) = sum over the run's outputs of tr(A rho'), where F(A)
    is the precondition the Init, Uni or Meas axiom derives from A."""
    rng = np.random.default_rng(seed)
    interp = st.default_interpretation()
    interp.declare_classical("x", cl.IntType(0, 1))
    interp.declare_classical("y", cl.IntType(0, 1))
    qubits = [qs.QVar("q%d" % i) for i in range(1, n + 1)]
    for q in qubits:
        interp.declare_quantum(q.name, 2)
    # a two-outcome measurement that is neither projective nor hermitian
    theta = rng.uniform(0, 1.6, 2)
    c, s = np.cos(theta), np.sin(theta)
    interp.measurements["MR"] = st.MeasurementFamily(
        "MR", cl.IntType(0, 1), (2,), {0: _unitary(rng, 2) @ np.diag(c),
                                       1: _unitary(rng, 2) @ np.diag(s)})
    g = rng.standard_normal((2 ** n,) * 2) + 1j * rng.standard_normal((2 ** n,) * 2)
    effect = g @ g.conj().T
    effect *= rng.uniform(0, 1) / np.linalg.eigvalsh(effect)[-1]
    interp.predicates["A"] = st.AtomicPredicate(
        "A", (), (2,) * n, lambda: effect)
    a = asrt.Atomic("A", (), tuple(qubits))
    targets = [qubits[i] for i in rng.permutation(n)]
    if kind == "gate":
        table = _TWO_QUBIT if n == 2 and rng.integers(2) else _ONE_QUBIT
        name = list(table)[rng.integers(len(table))]
        param = {None: (), "real": (cl.Lit(float(rng.uniform(-4, 4))),),
                 "int": (cl.Lit(int(rng.integers(1, 6))),)}[table[name]]
        stmt = qs.Gate(name, param, tuple(targets[:len(interp.gate(name).dims)]))
    elif kind == "measure":
        stmt = qs.Measure("x", ["M", "MR"][rng.integers(2)], (targets[0],))
    else:
        stmt = qs.Init(targets[0])
    pre = pv.axiom_pre(stmt, a, dim=2, y="y")
    layout = interp.make_layout(interp.all_systems())
    rho = random_density(rng, layout)
    outcomes = (0, 1) if kind == "measure" else (0,)
    lhs = 0.0
    for m in outcomes:
        r = asrt.eval_predicate(cl.ClassicalState({"x": 0, "y": m}), pre, interp)
        lhs += la.trace_product(la.embed(r.op, r.layout.ids, layout), rho.mat)
    out = sem.run(stmt, sem.CqState(cl.ClassicalState({"x": 0, "y": 0}), rho),
                  0, interp)
    a_op = la.embed(effect, [la.system_id(q.name) for q in qubits], layout)
    rhs = sum(la.trace_product(a_op, it.rho.mat) for it in out.items)
    assert abs(lhs - rhs) <= 1e-12


@pytest.mark.parametrize("param", ["0.5", "-3"])
def test_gate_parameters_outside_their_type_are_rejected(param):
    # R declares Int(1..64); int() would read 0.5 as R(0), the identity
    interp = small_interp()
    with pytest.raises(st.InterpError, match="Int\\(1..64\\)"):
        sem.run(prog("R(%s)[q1]" % param), basis_input(interp), 0, interp)
