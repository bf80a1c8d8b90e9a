"""Command-line interface.

All machine-readable reports go to stdout as JSON (stable key order); a
one-line human summary goes to stderr.  Exit codes: 0 accepted/consistent,
1 rejected/inconsistent, 2 inconclusive, 3 usage error.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from . import classical as cl
from . import linalg as la
from . import qsyntax as qs
from . import structures as st
from . import semantics as sem
from . import assertions as asrt
from . import prover as pv
from . import harness as hz
from . import qft


def _emit(doc, summary):
    print(json.dumps(doc, sort_keys=True, indent=2))
    print(summary, file=sys.stderr)


def _read_json(path):
    with open(path) as f:
        return json.load(f)


def _read_source(arg):
    """A program/script argument is a file path when one exists, otherwise
    literal text."""
    if os.path.exists(arg):
        with open(arg) as f:
            return f.read()
    return arg


def _load_interp(args):
    if getattr(args, "interp", None):
        return st.load_interpretation(_read_json(args.interp))
    return st.default_interpretation()


def _load_state(path, interp):
    doc = _read_json(path)
    sigma = cl.ClassicalState.from_json(doc, ("sigma",))
    layout = interp.make_layout(interp.all_systems())
    rho = qs.json_field(doc, ("rho",), "object", {})
    if "pure" in rho:
        n = len(qs.json_field(doc, ("rho", "pure"), "array"))
        vec = np.array([st.complex_from_json(doc, ("rho", "pure", i), real=False)
                        for i in range(n)])
        dop = la.pure_state(vec / np.linalg.norm(vec), layout)
    elif "matrix" in rho:
        mat = st.mat_from_json(doc, ("rho", "matrix"), real=False)
        dop = la.DensityOperator(layout, mat).validate(interp.tolerances)
    else:
        dop = la.pure_state(la.basis_vector(0, layout.dim), layout)
    return sem.CqState(sigma, dop)


def _parse_program(text, interp):
    return qs.parse_program(text, measurements=set(interp.measurements),
                            allow_sections=True)


def _seed(args):
    env = os.environ.get("QHL_SEED")
    if env is not None:
        return int(env)
    return getattr(args, "seed", 0)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_parse(args):
    interp = _load_interp(args)
    try:
        prog = _parse_program(_read_source(args.program), interp)
    except qs.DepthError:
        raise  # a limit, as for other caps: exit 3
    except qs.ParseError as e:
        _emit({"ok": False, "error": str(e)}, "parse error: %s" % e)
        return 1
    _emit({"ok": True, "program": qs.pretty(prog)}, "parsed")
    return 0


def _cmd_run(args):
    interp = _load_interp(args)
    prog = _parse_program(_read_source(args.program), interp)
    state = _load_state(args.state, interp)
    out = sem.run(prog, state, args.fuel, interp)
    items = sorted(
        ({"sigma": it.sigma.to_json(), "trace": round(it.trace(), 12)}
         for it in out.items),
        key=lambda d: json.dumps(d, sort_keys=True))
    doc = {
        "items": items,
        "residual_trace": round(out.residual_trace(), 12),
        "blocked_trace": round(out.blocked_trace, 12),
        "pruned_trace": round(out.pruned_trace, 12),
        "input_trace": round(out.input_trace, 12),
        "fuel": args.fuel,
        "version": __version__,
    }
    _emit(doc, "%d terminated branches, residual trace %.3g"
          % (len(out.items), out.residual_trace()))
    return 0


def _cmd_eval_assert(args):
    interp = _load_interp(args)
    ca = asrt.assertion_from_json(_read_json(args.assertion))
    state = _load_state(args.state, interp)
    sat = cl.satisfies(state.sigma, ca.phi)
    res = asrt.eval_predicate(state.sigma, ca.a, interp)
    doc = {"satisfies_phi": sat, "well_defined": res.well_defined,
           "reason": res.reason, "version": __version__}
    if res.well_defined:
        op = la.embed(res.op, res.layout.ids, state.rho.layout)
        doc["trace"] = round(la.trace_product(op, state.rho.mat), 12)
    _emit(doc, "phi %s, predicate %s" % (
        "holds" if sat else "fails",
        "well-defined" if res.well_defined else "not well-defined"))
    return 0


def _cmd_entail(args):
    interp = _load_interp(args)
    pre = asrt.assertion_from_json(_read_json(args.pre))
    post = asrt.assertion_from_json(_read_json(args.post))
    if args.domain:
        domain = _read_json(args.domain)
        interp.classical_vars = {
            n: cl.type_from_json(domain, (n,))
            for n in qs.json_field(domain, (), "object")}
    try:
        v = asrt.cq_entails(pre, post, interp)
    except la.DimensionCapError as e:
        v = asrt.Verdict("inconclusive", reason="too large to decide: %s" % e)
    doc = {"status": v.status, "reason": v.reason, "version": __version__}
    if v.witness is not None:
        doc["witness"] = v.witness.to_json() if hasattr(
            v.witness, "to_json") else str(v.witness)
    _emit(doc, "entailment %s" % v.status)
    return {"holds": 0, "fails": 1}.get(v.status, 2)


def _check_exit(status):
    return {"accepted": 0, "consistent": 0, "vacuous": 0,
            "rejected": 1, "inconsistent": 1}.get(status, 2)


def _cmd_check(args):
    interp = _load_interp(args)
    root = pv.node_from_json(_read_json(args.script),
                             measurements=set(interp.measurements))
    report = pv.check_script(root, interp)
    doc = report.to_json()
    doc["version"] = __version__
    _emit(doc, "proof script %s" % report.status)
    return _check_exit(report.status)


def _load_triple(path, interp):
    doc = _read_json(path)
    meas = set(interp.measurements)
    if isinstance(doc, dict) and "rule" in doc:
        return pv.node_from_json(doc, measurements=meas).conclusion
    return pv.triple_from_json(doc, measurements=meas)


def _cmd_fuzz(args):
    interp = _load_interp(args)
    triple = _load_triple(args.target, interp)
    cfg = hz.RunConfig(fuel=args.fuel, samples=args.samples, seed=_seed(args))
    report = hz.fuzz_triple(triple, interp, cfg)
    doc = report.to_json()
    doc["version"] = __version__
    _emit(doc, "fuzz verdict %s (worst margin %.3g)"
          % (report.verdict, report.worst_margin))
    return _check_exit(report.verdict)


def _cmd_examples(args):
    if args.example != "qft":
        raise SystemExit(3)
    try:
        interp = qft.qft_interpretation(args.n)
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return 3
    program, script = qft.generate_qft(args.n)
    report = pv.check_script(script, interp)
    cfg = hz.RunConfig(fuel=4, samples=args.samples, seed=_seed(args))
    fuzz = hz.fuzz_triple(script.conclusion, interp, cfg)
    doc = {
        "program": qs.pretty(program),
        "script": pv.node_to_json(script),
        "check": report.to_json(),
        "fuzz": fuzz.to_json(),
        "version": __version__,
    }
    _emit(doc, "qft n=%d: script %s, fuzz %s"
          % (args.n, report.status, fuzz.verdict))
    if report.status == "accepted" and fuzz.verdict == "consistent":
        return 0
    if report.status == "rejected" or fuzz.verdict == "inconsistent":
        return 1
    return 2


# ---------------------------------------------------------------------------


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="cqhoare",
        description="Quantum Hoare logic with classical variables: "
                    "simulator, proof checker and fuzzer.")
    ap.add_argument("--interp", help="interpretation JSON file")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("parse", help="parse a program (file or text)")
    p.add_argument("program")
    p.set_defaults(fn=_cmd_parse)

    p = sub.add_parser("run", help="run a program on a cq-state")
    p.add_argument("program")
    p.add_argument("--state", required=True)
    p.add_argument("--fuel", type=int, default=64)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("eval-assert", help="evaluate an assertion on a state")
    p.add_argument("assertion")
    p.add_argument("--state", required=True)
    p.set_defaults(fn=_cmd_eval_assert)

    p = sub.add_parser("entail", help="decide a cq-assertion entailment")
    p.add_argument("pre")
    p.add_argument("post")
    p.add_argument("--domain", help="typing JSON file")
    p.set_defaults(fn=_cmd_entail)

    p = sub.add_parser("check", help="check a proof script")
    p.add_argument("script")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("fuzz", help="fuzz a triple or script conclusion")
    p.add_argument("target")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fuel", type=int, default=64)
    p.set_defaults(fn=_cmd_fuzz)

    p = sub.add_parser("examples", help="bundled examples")
    p.add_argument("example", choices=["qft"])
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_examples)
    return ap


def main(argv=None):
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 3
    try:
        return args.fn(args)
    except (qs.ParseError, st.InterpError, st.ResolutionError,
            sem.SemanticsError, la.LayoutError, cl.EvalError,
            FileNotFoundError, json.JSONDecodeError, KeyError,
            ValueError, RecursionError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
