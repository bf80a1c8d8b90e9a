"""The four benchmark workloads and their known answers.

Every builder takes the freshly imported package modules (`cq`), the size
("standard", "smoke", or "full" for the QFT workloads), the workload seed
and a scratch directory for the JSON files the command line reads.  It
returns a `Workload`: the fixed list of operations one pass runs, a shorter
warm-up list, the least number of timed passes (which also fixes the tail
percentile, see run.py), and an optional check that runs after the timed
region.

An operation is one check, one fuzz or one simulator run.  Its `call`
returns the raw output and its `verify` turns that output into
(known answer met, units of work done, note).
"""

import contextlib
from dataclasses import dataclass, field
import io
import json

import numpy as np

FUZZ_EPS = 1e-7          # the fuzzer's own margin tolerance
TRACE_SUM_TOL = 1e-9     # items + residual + blocked + pruned = input
STRUCTURAL_TOL = 1e-12   # run against structural_sem, as in tier-1 criterion 3


@dataclass
class Op:
    key: str
    kind: str  # "check" | "fuzz" | "run"
    call: object
    verify: object


@dataclass
class Workload:
    ops: list
    warmup: list
    stat_passes: int
    work_kind: str  # the kind of operation whose work `work_per_s` counts
    post_check: object = None  # () -> list of failure messages
    notes: dict = field(default_factory=dict)


def sized(table, size):
    """The row of `table` for `size`.  Only the QFT mixes have a "full" row;
    elsewhere "full" is the same as "standard"."""
    return table.get(size, table["standard"])


# ---------------------------------------------------------------------------
# QFT family through the command line

# (accepted scripts per n, perturbed scripts per n, passes in the sample).
# Small n are repeated so that a pass holds enough verdicts for a median and
# a tail; the large n carry most of the time.  The standard size keeps a pass
# near five seconds, so that a run's median pass rides out the machine's slow
# spells; "full" adds the n = 6 check and the n = 5 and 6 fuzz, which take
# 5 s, 4 s and 35 s per operation on a 2-vCPU Xeon VM.
QFT_CHECK_MIX = {
    "standard": ({5: 1, 4: 2, 3: 4, 2: 8, 1: 8}, {5: 1, 4: 2, 3: 4, 2: 4, 1: 4}, 3),
    "full": ({6: 1, 5: 1, 4: 2, 3: 4, 2: 8, 1: 8}, {6: 1, 5: 1, 4: 2, 3: 4, 2: 4, 1: 4}, 1),
    "smoke": ({1: 1, 2: 1}, {1: 1, 2: 1}, 1),
}
QFT_FUZZ_MIX = {
    "standard": ({4: 2, 3: 4, 2: 8, 1: 8}, {4: 1, 3: 1, 2: 1, 1: 1}, 3),
    "full": ({6: 1, 5: 1, 4: 2, 3: 4, 2: 8, 1: 8}, {5: 1, 4: 1, 3: 1, 2: 1, 1: 1}, 1),
    "smoke": ({1: 1, 2: 1}, {1: 1, 2: 1}, 1),
}
QFT_FUZZ_FUEL = 4
QFT_FUZZ_SAMPLES = 10
WARMUP_MAX_N = 4  # the warm-up runs each distinct QFT operation up to this n


def _write_json(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f)
    return str(path)


def _qft_interp_doc(n):
    return {
        "classical_vars": {"j": {"kind": "bits", "lo": 1, "hi": n},
                           "n": {"kind": "int", "lo": n, "hi": n}},
        "quantum_vars": {"q": {"dim": 2,
                               "indices": [{"kind": "int", "lo": 1, "hi": n}]}},
    }


def _cli_call(cq, argv):
    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cq.cli.main(argv)
        return code, out.getvalue()
    return call


def _verify_cli_check(expected):
    want_code = {"accepted": 0, "rejected": 1}[expected]

    def verify(raw):
        code, text = raw
        doc = json.loads(text)
        ok = code == want_code and doc["status"] == expected
        return ok, len(doc["nodes"]), "exit %d, %s" % (code, doc["status"])
    return verify


def _verify_cli_fuzz(expected, n):
    want_code = {"consistent": 0, "inconsistent": 1}[expected]
    # every sigma (2^n bit strings) meets 2^n basis, `samples` pure and
    # `samples` mixed inputs
    want_records = 2 ** n * (2 ** n + 2 * QFT_FUZZ_SAMPLES)

    def verify(raw):
        code, text = raw
        doc = json.loads(text)
        worst = doc["worst_margin"]
        ok = code == want_code and doc["verdict"] == expected
        if expected == "consistent":
            ok = ok and worst >= -FUZZ_EPS and len(doc["records"]) == want_records
        else:
            ok = ok and worst < -FUZZ_EPS
        return ok, len(doc["records"]), "exit %d, %s, worst margin %.4g" % (
            code, doc["verdict"], worst)
    return verify


def _qft_files(cq, n, workdir):
    _, script = cq.qft.generate_qft(n)
    _, bad = cq.qft.perturbed_qft_script(n)
    pv = cq.prover
    return {
        "interp": _write_json(workdir / ("qft%d-interp.json" % n), _qft_interp_doc(n)),
        "script": _write_json(workdir / ("qft%d-script.json" % n), pv.node_to_json(script)),
        "perturbed": _write_json(workdir / ("qft%d-perturbed.json" % n), pv.node_to_json(bad)),
        "triple": _write_json(workdir / ("qft%d-triple.json" % n),
                              pv.triple_to_json(script.conclusion)),
        "perturbed-triple": _write_json(workdir / ("qft%d-perturbed-triple.json" % n),
                                        pv.triple_to_json(bad.conclusion)),
    }


def qft_check(cq, size, seed, workdir):
    """`cqhoare --interp I check S` on accepted and perturbed QFT scripts.
    No simulator runs here: predicate evaluation and entailment only."""
    accepted, perturbed, stat_passes = QFT_CHECK_MIX[size]
    rng = np.random.default_rng(seed)
    ops, warmup = [], []
    for n in sorted(set(accepted) | set(perturbed)):
        files = _qft_files(cq, n, workdir)
        for which, counts, expected in (("script", accepted, "accepted"),
                                        ("perturbed", perturbed, "rejected")):
            op = Op("check n=%d %s" % (n, which), "check",
                    _cli_call(cq, ["--interp", files["interp"], "check", files[which]]),
                    _verify_cli_check(expected))
            ops.extend([op] * counts.get(n, 0))
            if counts.get(n) and n <= WARMUP_MAX_N:
                warmup.append(op)
    order = rng.permutation(len(ops))
    return Workload([ops[i] for i in order], warmup, stat_passes, "check")


def qft_fuzz(cq, size, seed, workdir):
    """`cqhoare fuzz T --fuel 4 --samples 10 --seed s` on QFT conclusions:
    gate-only programs whose sigmas each meet 2^n + 20 quantum inputs."""
    accepted, perturbed, stat_passes = QFT_FUZZ_MIX[size]
    rng = np.random.default_rng(seed)
    ops, warmup = [], []
    for n in sorted(set(accepted) | set(perturbed)):
        files = _qft_files(cq, n, workdir)
        for which, counts, expected in (("triple", accepted, "consistent"),
                                        ("perturbed-triple", perturbed, "inconsistent")):
            for i in range(counts.get(n, 0)):
                fuzz_seed = int(rng.integers(2 ** 31))
                argv = ["--interp", files["interp"], "fuzz", files[which],
                        "--fuel", str(QFT_FUZZ_FUEL),
                        "--samples", str(QFT_FUZZ_SAMPLES), "--seed", str(fuzz_seed)]
                ops.append(Op("fuzz n=%d %s" % (n, which), "fuzz",
                              _cli_call(cq, argv), _verify_cli_fuzz(expected, n)))
                if i == 0 and n <= WARMUP_MAX_N:
                    warmup.append(ops[-1])
    order = rng.permutation(len(ops))
    return Workload([ops[i] for i in order], warmup, stat_passes, "fuzz")


# ---------------------------------------------------------------------------
# Measurement-driven loops through semantics.run

LOOP_FUEL = 16
# register size, runs of the plain loop and of the Init variant per pass,
# passes in the sample, runs compared against structural_sem afterwards
LOOP_MIX = {
    "standard": (8, 2, 4, 5, 2),
    "smoke": (2, 1, 1, 1, 1),
}
PLAIN_LOOP = "while x = 1 do x := M[q[%d]]; H[q[%d]] od"
INIT_LOOP = "while x = 1 do x := M[q[%d]]; q[%d] := |0>; H[q[%d]]; CNOT[q[%d], q[%d]] od"


def _random_rho(cq, rng, layout, kind):
    d = layout.dim
    if kind == "pure":
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        return cq.linalg.pure_state(v / np.linalg.norm(v), layout)
    rank = int(rng.integers(1, d + 1))
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return cq.linalg.DensityOperator(layout, m / np.trace(m).real)


def _verify_run(out):
    total = (out.items_trace() + out.residual_trace() + out.blocked_trace
             + out.pruned_trace)
    err = abs(total - out.input_trace)
    # each unrolling lets one measured branch leave the loop; the branch
    # still inside after the last unrolling is the residual
    ok = (err <= TRACE_SUM_TOL and len(out.items) == LOOP_FUEL
          and len(out.residual) == 1 and out.blocked_trace == 0.0)
    return ok, 1, "%d items, %d residual, trace error %.2g" % (
        len(out.items), len(out.residual), err)


def loop_sim(cq, size, seed, workdir):
    """semantics.run at fuel 16 on one seeded state per run: measurement
    splitting, Init, fuel exhaustion and residual mass at D = 2^qubits."""
    qubits, plain_runs, init_runs, stat_passes, compared = sized(LOOP_MIX, size)
    rng = np.random.default_rng(seed)
    cl, st = cq.classical, cq.structures
    interp = st.default_interpretation()
    interp.declare_classical("x", cl.IntType(0, 1))
    interp.declare_quantum("q", 2, (cl.IntType(1, qubits),))
    layout = interp.make_layout(interp.all_systems())
    meas = set(interp.measurements)
    sigma = cl.ClassicalState({"x": 1})

    ops, inputs = [], []
    for i in range(plain_runs + init_runs):
        a, b = (int(v) for v in rng.choice(np.arange(1, qubits + 1), 2, replace=False))
        if i < plain_runs:
            text, kind = PLAIN_LOOP % (a, a), ("pure", "mixed")[i % 2]
        else:
            text, kind = INIT_LOOP % (a, a, a, a, b), ("mixed", "pure")[i % 2]
        prog = cq.qsyntax.parse_program(text, measurements=meas)
        state = cq.semantics.CqState(sigma, _random_rho(cq, rng, layout, kind))

        def call(prog=prog, state=state):
            return cq.semantics.run(prog, state, LOOP_FUEL, interp)
        ops.append(Op("run %s %s" % ("plain" if i < plain_runs else "init", kind),
                      "run", call, _verify_run))
        inputs.append((prog, state))
    # the first Init run and a seeded choice of plain runs
    compare = [plain_runs] + [int(i) for i in
                              rng.choice(plain_runs, compared - 1, replace=False)]

    def post_check():
        failures = []
        for i in compare:
            prog, state = inputs[i]
            a = cq.semantics.run(prog, state, LOOP_FUEL, interp)
            b = cq.semantics.structural_sem(prog, state, LOOP_FUEL, interp)
            same = (cq.semantics.multiset_equal(a.items, b.items, tol=STRUCTURAL_TOL)
                    and len(a.residual) == len(b.residual)
                    and abs(a.residual_trace() - b.residual_trace()) <= STRUCTURAL_TOL
                    and abs(a.pruned_trace - b.pruned_trace) <= STRUCTURAL_TOL
                    and a.blocked_trace == b.blocked_trace)
            if not same:
                failures.append("%s: run and structural_sem disagree" % ops[i].key)
        return failures

    warmup = [ops[0], ops[plain_runs]]
    return Workload(ops, warmup, stat_passes, "run", post_check,
                    {"qubits": qubits, "dim": layout.dim, "fuel": LOOP_FUEL,
                     "compared_with_structural_sem": len(compare)})


# ---------------------------------------------------------------------------
# The bundled corpus through the Python API

CORPUS_FUEL = 8
CORPUS_SAMPLES = 48
CORPUS_MIN_RECORDS = 100
CORPUS_STAT_PASSES = {"standard": 20, "smoke": 1}


def _verify_report(expected):
    def verify(report):
        return report.status == expected, len(report.nodes), report.status
    return verify


def _verify_corpus_fuzz(report):
    ok = (report.verdict == "consistent" and report.worst_margin >= -FUZZ_EPS
          and len(report.records) >= CORPUS_MIN_RECORDS)
    return ok, len(report.records), "%s, %d records, worst margin %.3g" % (
        report.verdict, len(report.records), report.worst_margin)


def corpus(cq, size, seed, workdir):
    """check_script then fuzz_triple on every accepted corpus script, plus
    the rejected mutants: the eleven rules the QFT family never uses."""
    rng = np.random.default_rng(seed)
    pv, hz = cq.prover, cq.harness
    interp, accepted, mutants = hz.build_corpus()
    ops = []
    for name, script in accepted.items():
        cfg = hz.RunConfig(fuel=CORPUS_FUEL, samples=CORPUS_SAMPLES,
                           seed=int(rng.integers(2 ** 31)))
        ops.append(Op("check %s" % name, "check",
                      lambda s=script: pv.check_script(s, interp),
                      _verify_report("accepted")))
        ops.append(Op("fuzz %s" % name, "fuzz",
                      lambda t=script.conclusion, c=cfg: hz.fuzz_triple(t, interp, c),
                      _verify_corpus_fuzz))
    for name, script in mutants.items():
        ops.append(Op("check %s" % name, "check",
                      lambda s=script: pv.check_script(s, interp),
                      _verify_report("rejected")))
    qinterp, qbad = hz.qft_mutant(2)
    ops.append(Op("check qft_mutant(2)", "check",
                  lambda: pv.check_script(qbad, qinterp), _verify_report("rejected")))
    return Workload(ops, list(ops), sized(CORPUS_STAT_PASSES, size), "fuzz")


WORKLOADS = {
    "qft-check": qft_check,
    "qft-fuzz": qft_fuzz,
    "loop-sim": loop_sim,
    "corpus": corpus,
}
