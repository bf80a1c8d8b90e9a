import json

import numpy as np
import pytest

from cqhoare import classical as cl
from cqhoare import linalg as la
from cqhoare import qsyntax as qs
from cqhoare import structures as st
from cqhoare import prover as pv
from cqhoare import harness as hz
from cqhoare import qft
from cqhoare import semantics as sem
from cqhoare.assertions import Atomic, CqAssertion
from cqhoare.qsyntax import QVar


def interp1():
    interp = st.default_interpretation()
    interp.declare_classical("x", cl.IntType(0, 1))
    interp.declare_quantum("q", 2)
    return interp


def test_identity_skip_triple_has_zero_margin():
    interp = interp1()
    t = pv.HoareTriple(CqAssertion(cl.TRUE, Atomic("ID1", (), (QVar("q"),))),
                       qs.Skip(),
                       CqAssertion(cl.TRUE, Atomic("ID1", (), (QVar("q"),))))
    r = hz.fuzz_triple(t, interp, hz.RunConfig(samples=5, seed=0))
    assert r.verdict == "consistent"
    assert all(rec.margin == 0.0 for rec in r.records)


def test_false_triple_flagged_inconsistent():
    interp = interp1()
    prog = qs.parse_program("H[q]; x := M[q]", measurements={"M"})
    t = pv.HoareTriple(
        CqAssertion(cl.TRUE, Atomic("ID1", (), (QVar("q"),))),
        prog,
        CqAssertion(cl.BinOp("=", cl.Var("x"), cl.Lit(0)),
                    Atomic("ID1", (), (QVar("q"),))))
    r = hz.fuzz_triple(t, interp, hz.RunConfig(samples=10, seed=1))
    assert r.verdict == "inconsistent"
    assert r.worst_margin < -0.4


def test_vacuous_triple_reported_not_failed():
    interp = interp1()
    t = pv.HoareTriple(CqAssertion(cl.FALSE, Atomic("ID1", (), (QVar("q"),))),
                       qs.Skip(),
                       CqAssertion(cl.TRUE, Atomic("ID1", (), (QVar("q"),))))
    r = hz.fuzz_triple(t, interp, hz.RunConfig(samples=5, seed=0))
    assert r.verdict == "vacuous"


def test_total_mode_inconclusive_on_possible_nontermination():
    interp = interp1()
    prog = qs.parse_program("while true do skip od")
    t = pv.HoareTriple(CqAssertion(cl.TRUE, Atomic("ID1", (), (QVar("q"),))),
                       prog,
                       CqAssertion(cl.TRUE, Atomic("ID1", (), (QVar("q"),))),
                       "total")
    r = hz.fuzz_triple(t, interp, hz.RunConfig(fuel=3, samples=5, seed=0))
    assert r.verdict == "inconclusive"
    # the same triple in partial mode credits the unterminated mass
    r2 = hz.fuzz_triple(pv.HoareTriple(t.pre, t.program, t.post, "partial"),
                        interp, hz.RunConfig(fuel=3, samples=5, seed=0))
    assert r2.verdict == "consistent"


def test_reports_are_deterministic_per_seed():
    interp = interp1()
    prog = qs.parse_program("H[q]; x := M[q]", measurements={"M"})
    t = pv.HoareTriple(CqAssertion(cl.TRUE, Atomic("ID1", (), (QVar("q"),))),
                       prog,
                       CqAssertion(cl.TRUE, Atomic("ID1", (), (QVar("q"),))))
    cfg = hz.RunConfig(samples=6, seed=7)
    a = json.dumps(hz.fuzz_triple(t, interp, cfg).to_json(), sort_keys=True)
    b = json.dumps(hz.fuzz_triple(t, interp, cfg).to_json(), sort_keys=True)
    assert a == b
    c = json.dumps(hz.fuzz_triple(
        t, interp, hz.RunConfig(samples=6, seed=8)).to_json(), sort_keys=True)
    assert a != c


def test_report_records_config_and_seed():
    interp = interp1()
    t = pv.HoareTriple(CqAssertion(cl.TRUE, Atomic("ID1", (), (QVar("q"),))),
                       qs.Skip(),
                       CqAssertion(cl.TRUE, Atomic("ID1", (), (QVar("q"),))))
    doc = hz.fuzz_triple(t, interp, hz.RunConfig(samples=3, seed=5)).to_json()
    assert doc["config"]["seed"] == 5
    assert doc["config"]["samples"] == 3


def test_accepted_scripts_fuzz_consistent():
    """Empirical soundness: every accepted corpus script passes the fuzzer."""
    interp, accepted, _ = hz.build_corpus()
    cfg = hz.RunConfig(fuel=8, samples=5, seed=2)
    for name, script in accepted.items():
        report = hz.fuzz_triple(script.conclusion, interp, cfg)
        assert report.verdict == "consistent", (name, report.to_json())
        assert report.worst_margin >= -1e-7


def test_unenumerable_domain_is_inconclusive():
    interp = interp1()
    interp.declare_classical("r", cl.RealType())
    t = pv.HoareTriple(
        CqAssertion(cl.BinOp("<", cl.Var("r"), cl.Lit(1)),
                    Atomic("ID1", (), (QVar("q"),))),
        qs.Skip(),
        CqAssertion(cl.TRUE, Atomic("ID1", (), (QVar("q"),))))
    r = hz.fuzz_triple(t, interp, hz.RunConfig(samples=3, seed=0))
    assert r.verdict == "inconclusive"


def test_undeclared_variable_is_inconclusive():
    interp = interp1()
    a = Atomic("ID1", (), (QVar("q"),))
    t = pv.HoareTriple(CqAssertion(cl.BinOp("=", cl.Var("w"), cl.Lit(0)), a),
                       qs.Skip(), CqAssertion(cl.TRUE, a))
    r = hz.fuzz_triple(t, interp, hz.RunConfig(samples=3, seed=0))
    assert (r.verdict, r.reason) == ("inconclusive", "no enumerable domain for w")


def test_oversized_ambient_register_is_inconclusive():
    interp = st.default_interpretation()
    interp.declare_quantum("q", 2, (cl.IntType(1, 15),))
    a = CqAssertion(cl.TRUE, Atomic("P0", (), (QVar("q", (cl.Lit(1),)),)))
    report = hz.fuzz_triple(pv.HoareTriple(a, qs.Skip(), a), interp,
                            hz.RunConfig(samples=1))
    assert report.verdict == "inconclusive" and "exceeds cap" in report.reason


def test_fuzz_margin_reads_the_tolerance():
    interp, _, mutants = hz.build_corpus()
    t = mutants["skip_mismatch"].conclusion  # {P0} skip {P1}: margin down to -1
    cfg = hz.RunConfig(samples=3, seed=0)
    assert hz.fuzz_triple(t, interp, cfg).verdict == "inconsistent"
    interp.tolerances = la.Tolerances(fuzz=2.0)
    assert hz.fuzz_triple(t, interp, cfg).verdict == "consistent"


def test_fuzz_gives_a_verdict_on_a_long_sequence():
    interp = interp1()
    a = Atomic("P0", (), (QVar("q"),))
    prog = qs.seq_all([qs.Skip()] * 2000)
    t = pv.HoareTriple(CqAssertion(cl.TRUE, a), prog, CqAssertion(cl.TRUE, a))
    report = hz.fuzz_triple(t, interp, hz.RunConfig(samples=2))
    assert report.verdict == "consistent"
    assert report.to_json()["triple"]["program"] == "; ".join(["skip"] * 2000)


# ---------------------------------------------------------------------------
# Batched fuzzing: one run per classical state over the stacked inputs


def _records_input_by_input(triple, interp, cfg):
    """The records of `fuzz_triple`, rebuilt with one unstacked `run` and
    `trace_product` per input (enumerable domains only)."""
    rng = np.random.default_rng(cfg.seed)
    names = qs.classical_vars(triple)
    layout = interp.make_layout(interp.all_systems())
    records, inputs = [], None
    for sigma in cl.iter_states(interp.classical_vars, names):
        if not cl.satisfies(sigma, triple.pre.phi):
            continue
        a_op = hz._embedded(sigma, triple.pre.a, layout, interp)
        if a_op is None:
            continue
        if inputs is None:
            inputs = hz._input_rhos(rng, layout.dim, cfg.samples)
        for kind, mat in zip(*inputs):
            rho = la.DensityOperator(layout, mat)
            lhs = la.trace_product(a_op, rho.mat)
            out = sem.run(triple.program, sem.CqState(sigma, rho), cfg.fuel,
                          interp, branch_cap=cfg.branch_cap)
            rhs = 0.0
            for item in out.items:
                if not cl.satisfies(item.sigma, triple.post.phi):
                    continue
                b_op = hz._embedded(item.sigma, triple.post.a, layout, interp)
                if b_op is not None:
                    rhs += la.trace_product(b_op, item.rho.mat)
            nt, status = 0.0, "checked"
            if triple.mode == "partial":
                nt = max(rho.trace() - out.items_trace() - out.pruned_trace, 0.0)
            elif out.residual_trace() > 1e-9:
                status = "inconclusive-input"
            records.append(hz.FuzzRecord(sigma, kind, lhs, rhs, nt,
                                         rhs + nt - lhs, status))
    return records


def _raw(records):
    # repr keeps the sign of a zero, which == does not
    return [(r.sigma.key(), r.rho_kind, repr(r.lhs), repr(r.rhs), repr(r.nt),
             repr(r.margin), r.status) for r in records]


def _batched_cases():
    interp, accepted, mutants = hz.build_corpus()
    cfg = hz.RunConfig(fuel=8, samples=6, seed=4)
    for name, root in sorted(accepted.items()) + sorted(mutants.items()):
        yield "corpus %s" % name, root.conclusion, interp, cfg
    for n in (1, 2, 3):
        qinterp = qft.qft_interpretation(n)
        cfg = hz.RunConfig(fuel=4, samples=4, seed=n)
        yield "qft n=%d" % n, qft.generate_qft(n)[1].conclusion, qinterp, cfg
        yield ("qft-perturbed n=%d" % n, qft.perturbed_qft_script(n)[1].conclusion,
               qinterp, cfg)


def test_batched_records_equal_input_by_input_records():
    for name, triple, interp, cfg in _batched_cases():
        report = hz.fuzz_triple(triple, interp, cfg)
        rebuilt = _records_input_by_input(triple, interp, cfg)
        assert report.records, name
        assert _raw(report.records) == _raw(rebuilt), name


def test_chunked_stack_gives_the_same_records(monkeypatch):
    cases = list(_batched_cases())
    whole = [hz.fuzz_triple(t, i, c).to_json() for _, t, i, c in cases]
    # chunks of three 4x4 inputs, and a bound below one input
    for bound in (3 * 16 * 16, 1):
        monkeypatch.setattr(hz, "FUZZ_STACK_BYTES", bound)
        for (name, t, i, c), doc in zip(cases, whole):
            assert hz.fuzz_triple(t, i, c).to_json() == doc, (name, bound)


def test_one_run_per_classical_state(monkeypatch):
    interp, accepted, _ = hz.build_corpus()
    runs = []
    real = sem.run

    def counted(program, state, *args, **kwargs):
        runs.append(state.rho.mat.shape)
        return real(program, state, *args, **kwargs)

    monkeypatch.setattr(sem, "run", counted)
    report = hz.fuzz_triple(accepted["measure"].conclusion, interp,
                            hz.RunConfig(samples=48, seed=0))
    sigmas = {r.sigma.key() for r in report.records}
    assert len(runs) == len(sigmas) == 4
    assert set(runs) == {(100, 4, 4)}


def _input_rhos_one_by_one(rng, d, samples):
    """The fuzz inputs built one state at a time, as they were before the
    stacked build: the reference for its bits and its draw order."""
    kinds = ["basis-%d" % i for i in range(d)]
    stack = np.zeros((d + 2 * samples, d, d), dtype=complex)
    stack[np.arange(d), np.arange(d), np.arange(d)] = 1.0
    for i in range(samples):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v = v / np.linalg.norm(v)
        kinds.append("pure-%d" % i)
        stack[d + i] = np.outer(v, v.conj())
    for i in range(samples):
        rank = int(rng.integers(1, d + 1))
        g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
        m = g @ g.conj().T
        kinds.append("mixed-%d" % i)
        stack[d + samples + i] = m / np.trace(m).real
    return kinds, stack


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 64])
def test_stacked_inputs_equal_one_by_one_inputs(d):
    for samples in (1, 6, 10, 48):
        for seed in range(5):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            kinds, stack = hz._input_rhos(rng, d, samples)
            want_kinds, want = _input_rhos_one_by_one(ref, d, samples)
            assert kinds == want_kinds
            assert np.array_equal(stack, want), (d, samples, seed)
            assert stack.tobytes() == want.tobytes()  # signed zeros too
            # and leaves the generator where the loop leaves it
            assert rng.bit_generator.state == ref.bit_generator.state


# ---------------------------------------------------------------------------
# Sampled classical states


def _big_domain_interp(monkeypatch):
    interp = interp1()
    interp.declare_classical("w", cl.IntType(0, 1000000))

    def no_list(self):
        raise AssertionError("values() listed for sampling")

    monkeypatch.setattr(cl.IntType, "values", no_list)
    return interp


def test_sampled_fuzz_never_lists_values(monkeypatch):
    interp = _big_domain_interp(monkeypatch)
    a = Atomic("ID1", (), (QVar("q"),))
    phi = cl.BinOp("<=", cl.Var("w"), cl.Lit(1000000))
    t = pv.HoareTriple(CqAssertion(phi, a), qs.Skip(), CqAssertion(phi, a))
    report = hz.fuzz_triple(t, interp, hz.RunConfig(samples=20, seed=3))
    assert report.sigma_sampled and report.verdict == "consistent"
    assert len({r.sigma.key() for r in report.records}) > 1


def test_sampled_draws_match_the_value_lists():
    typing = {"b": cl.BoolType(), "i": cl.IntType(-3, 40),
              "e": cl.EnumType("E", ("u", "v", "w")),
              "a": cl.BitArrayType(2, 6)}
    names = set(typing)
    rng1, rng2 = np.random.default_rng(9), np.random.default_rng(9)
    for _ in range(50):
        want = {}
        for n in sorted(names):
            vals = typing[n].values()
            want[n] = vals[int(rng2.integers(len(vals)))]
        assert hz._sample_sigma(rng1, typing, names) == cl.ClassicalState(want)
