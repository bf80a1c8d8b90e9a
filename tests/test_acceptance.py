"""Acceptance suite.  Each test exercises one end-to-end criterion, checks it
against pinned tolerances and time budgets, and prints a single PASS line.

Tests run in definition order; criterion 4 audits the trace ledger that
criteria 1 and 3 populate.
"""

import time

import numpy as np

from cqhoare import classical as cl
from cqhoare import linalg as la
from cqhoare import qsyntax as qs
from cqhoare import structures as st
from cqhoare import assertions as asrt
from cqhoare import semantics as sem
from cqhoare import prover as pv
from cqhoare import harness as hz
from cqhoare import qft

from conftest import (small_interp, subst_interp, random_predicate,
                      random_expr, random_loop_free, random_input)

# (input trace, total output trace) pairs from every simulator run performed
# by criteria 1 and 3, audited by criterion 4
RUNS = []


def _record(out):
    total = (out.items_trace() + out.residual_trace() + out.blocked_trace
             + out.pruned_trace)
    RUNS.append((out.input_trace, total))
    return out


def _bits(j, n):
    return cl.Bits(1, tuple((j >> (n - 1 - i)) & 1 for i in range(n)))


def test_criterion_1_qft_scripts_and_simulator_agree():
    start = time.perf_counter()
    for n in range(1, 7):
        interp = qft.qft_interpretation(n)
        program, script = qft.generate_qft(n)
        assert pv.check_script(script, interp).accepted, n
        layout = interp.make_layout(interp.all_systems())
        post = script.conclusion.post.a.state
        for j in range(2 ** n):
            sigma = cl.ClassicalState({"j": _bits(j, n), "n": n})
            rho = la.pure_state(la.basis_vector(j, 2 ** n), layout)
            out = _record(sem.run(program, sem.CqState(sigma, rho), 0, interp))
            assert len(out.items) == 1
            item = out.items[0]
            vec, vlayout = asrt.eval_state(item.sigma, post, interp)
            assert vlayout.ids == item.rho.layout.ids
            overlap = np.vdot(vec, item.rho.mat @ vec).real
            assert abs(overlap - 1.0) <= 1e-9, (n, j, overlap)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, elapsed
    print("CRITERION 1 (transform scripts accepted, simulator agrees "
          "within 1e-9 for n=1..6): PASS")


def test_criterion_2_substitution_lemma_500_cases():
    interp = subst_interp()
    rng = np.random.default_rng(2024)
    sigmas = list(cl.iter_states(
        {"x": cl.IntType(0, 3), "y": cl.IntType(0, 3)}, {"x", "y"}))
    start = time.perf_counter()
    for _ in range(500):
        a = random_predicate(rng)
        e = cl.BinOp("%", random_expr(rng), cl.Lit(4))
        x = "xy"[int(rng.integers(2))]
        sigma = sigmas[int(rng.integers(len(sigmas)))]
        lhs = asrt.eval_predicate(sigma, asrt.subst_predicate(a, e, x), interp)
        shifted = sigma.update(x, cl.eval_expr(sigma, e))
        rhs = asrt.eval_predicate(shifted, a, interp)
        assert lhs.well_defined == rhs.well_defined
        if lhs.well_defined:
            assert lhs.layout.ids == rhs.layout.ids
            assert np.max(np.abs(lhs.op - rhs.op)) < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, elapsed
    print("CRITERION 2 (substitution lemma, 500 randomized cases, "
          "1e-12 agreement): PASS")


def test_criterion_3_run_matches_structural_semantics():
    interp = small_interp()
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    for _ in range(200):
        prog = random_loop_free(rng, max_cmds=5)
        state = random_input(rng, interp)
        a = _record(sem.run(prog, state, 4, interp))
        b = _record(sem.structural_sem(prog, state, 4, interp))
        assert sem.multiset_equal(a.items, b.items, tol=1e-12)
        assert not a.residual and not b.residual
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, elapsed
    print("CRITERION 3 (step-closure vs structural semantics, 200 random "
          "loop-free programs, 1e-12): PASS")


def test_criterion_4_trace_never_increases():
    assert len(RUNS) > 400
    violations = [(i, o) for i, o in RUNS if o > i + 1e-12]
    assert not violations, violations[:5]
    print("CRITERION 4 (trace non-increase over %d recorded runs, "
          "slack 1e-12): PASS" % len(RUNS))


def test_criterion_5_corpus_accepted_fuzzed_and_mutants_rejected():
    start = time.perf_counter()
    interp, accepted, mutants = hz.build_corpus()
    assert len(accepted) >= 12
    cfg = hz.RunConfig(fuel=8, samples=48, seed=0)
    for name, script in accepted.items():
        assert pv.check_script(script, interp).accepted, name
        report = hz.fuzz_triple(script.conclusion, interp, cfg)
        assert len(report.records) >= 100, (name, len(report.records))
        assert report.verdict == "consistent", (name, report.verdict)
        assert report.worst_margin >= -1e-7, (name, report.worst_margin)
    for name, script in mutants.items():
        assert pv.check_script(script, interp).status == "rejected", name
    qinterp, qbad = hz.qft_mutant(2)
    assert pv.check_script(qbad, qinterp).status == "rejected"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, elapsed
    print("CRITERION 5 (%d accepted scripts, >=100 fuzz inputs each, "
          "margins >= -1e-7, 3 mutants rejected): PASS" % len(accepted))


def test_criterion_6_nontermination_lower_bounds():
    interp = st.default_interpretation()
    interp.declare_classical("x", cl.IntType(0, 1))
    interp.declare_quantum("q", 2)
    layout = interp.make_layout(interp.all_systems())
    prog = qs.parse_program("while x = 1 do x := M[q]; H[q] od",
                            measurements={"M"})
    plus = la.pure_state(np.array([1, 1]) / np.sqrt(2), layout)
    state = sem.CqState(cl.ClassicalState({"x": 1}), plus)
    for k in range(1, 11):
        nt = sem.nt_lower_bound(prog, state, k, interp)
        assert abs(nt - 2.0 ** -k) <= 1e-12, (k, nt)
    diverge = qs.parse_program("while true do skip od")
    for k in range(11):
        nt = sem.nt_lower_bound(diverge, state, k, interp)
        assert abs(nt - 1.0) <= 1e-12, (k, nt)
    print("CRITERION 6 (nontermination bound 2^-k for k=1..10 and bound 1 "
          "for a diverging loop, 1e-12): PASS")


def test_criterion_7_distinctness_blocking():
    interp = st.default_interpretation()
    interp.declare_classical("k", cl.IntType(0, 2))
    interp.declare_quantum("q", 2, (cl.IntType(-3, 5),))
    layout = interp.make_layout(interp.all_systems())
    prog = qs.parse_program("CNOT[q[2 * k + 1], q[4 * k - 3]]")
    rho = la.pure_state(la.basis_vector(0, layout.dim), layout)
    # k = 2 aliases both operands to q[5]: the run blocks with no outputs
    out = sem.run(prog, sem.CqState(cl.ClassicalState({"k": 2}), rho), 0,
                  interp)
    assert out.items == [] and abs(out.blocked_trace - 1.0) <= 1e-12
    # k = 0 targets the distinct q[1], q[-3]: one output, trace preserved
    out = sem.run(prog, sem.CqState(cl.ClassicalState({"k": 0}), rho), 0,
                  interp)
    assert len(out.items) == 1
    assert abs(out.items[0].rho.trace() - 1.0) <= 1e-12
    print("CRITERION 7 (aliased operands block with full trace, distinct "
          "operands run trace-preserving): PASS")


def test_criterion_8_recursive_and_flat_forms_agree():
    n = 3
    interp = qft.qft_interpretation(n)
    flat = qft.generate_qft_program(n)
    rec = qft.generate_qft_recursive(n)
    layout = interp.make_layout(interp.all_systems())
    rng = np.random.default_rng(11)
    inputs = []
    for j in range(2 ** n):
        sigma = cl.ClassicalState({"j": _bits(j, n), "n": n})
        inputs.append(sem.CqState(
            sigma, la.pure_state(la.basis_vector(j, 2 ** n), layout)))
        v = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
        inputs.append(sem.CqState(
            sigma, la.pure_state(v / np.linalg.norm(v), layout)))
    assert sem.equivalent(flat, rec, inputs, 2, interp).equal is True
    # the fuzzer reaches the same verdict on either form of each conclusion
    for m in (1, 2, 3):
        _, script = qft.generate_qft(m)
        t = script.conclusion
        rec_t = pv.HoareTriple(t.pre, qft.generate_qft_recursive(m), t.post)
        cfg = hz.RunConfig(fuel=2, samples=4, seed=0)
        va = hz.fuzz_triple(t, qft.qft_interpretation(m), cfg).verdict
        vb = hz.fuzz_triple(rec_t, qft.qft_interpretation(m), cfg).verdict
        assert va == vb == "consistent", (m, va, vb)
    print("CRITERION 8 (recursive and flat transform forms equivalent at "
          "n=3, fuzz verdicts agree): PASS")
