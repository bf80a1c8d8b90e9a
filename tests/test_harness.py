import json

import numpy as np

from cqhoare import classical as cl
from cqhoare import linalg as la
from cqhoare import qsyntax as qs
from cqhoare import structures as st
from cqhoare import assertions as asrt
from cqhoare import prover as pv
from cqhoare import harness as hz
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
