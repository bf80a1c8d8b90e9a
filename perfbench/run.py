"""Layered benchmark for cqhoare.

    python3 perfbench/run.py --workload qft-check --seed 1 --seconds 60 --trace 0

Runs one workload in this process as a closed loop with one client: each
operation starts when the previous one has returned.  The package is
imported from `src/` next to this directory and driven only through its
public entry points.  With `--trace 0` the last line of standard output is a
JSON object with the end-to-end metrics; with `--trace 1` it holds the
per-layer metrics of traced passes, which alternate with untraced passes so
that the tracing overhead can be stated.  NOTES.md explains the workloads
and metrics.  Exits with code 2, printing no result, when `src/cqhoare` is
missing.
"""

import argparse
import gc
import importlib
import json
import math
import os
from pathlib import Path
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
import types

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

MODULES = ("classical", "linalg", "qsyntax", "structures", "semantics",
           "assertions", "prover", "harness", "qft", "cli")
# set-up takes about 0.1 s, so its median over 31 repeats costs about 3 s;
# the repeats after the first are spread over the timed region (see main)
SETUP_REPEATS = {"standard": 31, "smoke": 2}
# The tail is the highest percentile with TAIL_BEYOND samples above it in
# the workload's least number of passes.  It is read from the verdict times
# of all passes: a pass repeats the same operations, so the percentile lands
# on the same operations however many passes fit in the run.
TAIL_BEYOND = 10
WORK_UNITS = {"check": "proof nodes", "fuzz": "fuzz inputs", "run": "simulator runs"}
# work per second of the time spent in each kind of operation
KIND_RATES = {"check": "check_nodes_per_s", "fuzz": "fuzz_inputs_per_s",
              "run": "sim_runs_per_s"}

# (metric prefix, owner path, attribute) of every traced layer function
LAYERS = (
    ("linalg.embed", "linalg", "embed"),
    ("linalg.apply", "linalg.DensityOperator", "apply"),
    ("linalg.is_psd", "linalg", "is_psd"),
    ("semantics.run", "semantics", "run"),
    ("semantics.step", "semantics", "step"),
    ("structures.resolve", "structures.Interpretation", "resolve"),
    ("classical.eval_expr", "classical", "eval_expr"),
    ("classical.satisfies", "classical", "satisfies"),
    ("assertions.eval_predicate", "assertions", "eval_predicate"),
    ("assertions.cq_entails", "assertions", "cq_entails"),
    ("assertions.entails", "assertions", "entails"),
    ("prover.check_node", "prover", "check_node"),
    ("harness.fuzz_triple", "harness", "fuzz_triple"),
    ("cli.main", "cli", "main"),
)
# per-layer metrics reported from the traced passes: name -> unit
PER_LAYER = {
    "linalg.embed.calls": "count", "linalg.embed.self_s": "s",
    "linalg.embed.bytes": "B",
    "linalg.apply.calls": "count", "linalg.apply.self_s": "s",
    "linalg.is_psd.calls": "count", "linalg.is_psd.self_s": "s",
    "semantics.run.calls": "count", "semantics.run.self_s": "s",
    "semantics.step.calls": "count", "semantics.step.self_s": "s",
    "semantics.run.branches": "count",
    "structures.resolve.calls": "count", "structures.resolve.self_s": "s",
    "classical.eval_expr.calls": "count", "classical.eval_expr.self_s": "s",
    "classical.satisfies.calls": "count",
    "assertions.eval_predicate.calls": "count",
    "assertions.eval_predicate.self_s": "s",
    "assertions.cq_entails.calls": "count", "assertions.entails.self_s": "s",
    "assertions.cq_entails.reflexive_frac": "ratio",
    "prover.check_node.calls": "count", "prover.check_node.self_s": "s",
    "harness.fuzz_triple.self_s": "s", "harness.fuzz.runs_per_sigma": "ratio",
    "cli.main.calls": "count", "cli.main.self_s": "s",
    "tracing.overhead_s": "s", "tracing.overhead_frac": "ratio",
}


def _pin_threads():
    # One BLAS thread keeps the load in one core's worth of threads and the
    # timings steady on a shared machine; set before numpy is imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("QHL_SEED", None)  # the CLI would let it override --seed


def _package_modules():
    return {k: v for k, v in sys.modules.items()
            if k == "cqhoare" or k.startswith("cqhoare.")}


def _import_package():
    """Import cqhoare afresh from SRC and return its modules by name."""
    for name in _package_modules():
        del sys.modules[name]
    mods = {m: importlib.import_module("cqhoare." + m) for m in MODULES}
    origin = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit("cqhoare was imported from %s, not from %s" % (origin, SRC))
    return types.SimpleNamespace(**mods)


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _machine(np):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# Passes


def _run_pass(ops, tracer=None):
    """Run the operations back to back.  Returns one record per operation:
    (key, kind, seconds to verdict, known answer met, work, note)."""
    records = []
    for op in ops:
        start = time.perf_counter()
        try:
            raw = tracer.op(op.call, op.key) if tracer else op.call()
            error = None
        except Exception:  # a failing operation is counted, not fatal
            raw, error = None, traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        if error is None:
            try:
                ok, work, note = op.verify(raw)
            except Exception:
                ok, work, note = False, 0, traceback.format_exc(limit=3)
        else:
            ok, work, note = False, 0, error
        del raw  # loop-sim outputs hold 16 MB; free them before the next run
        records.append((op.key, op.kind, elapsed, ok, work, note))
    return records


def _pass_wall(records):
    return sum(r[2] for r in records)


def _install_tracer(pkg):
    from tracer import Tracer

    tracer = Tracer()
    hooks = {
        "linalg.embed": dict(after=lambda t, a, r: t.add("embed.bytes", r.nbytes)),
        "semantics.run": dict(after=lambda t, a, r: t.add(
            "run.branches", len(r.items) + len(r.residual))),
        "assertions.cq_entails": dict(defer=lambda t, a, r: t.add(
            "cq_entails.reflexive",
            int(pkg.assertions.pred_equal(a[0].a, a[1].a)
                and pkg.classical.formula_equal(a[0].phi, a[1].phi)))),
        "harness.fuzz_triple": dict(defer=lambda t, a, r: (
            t.add("fuzz.records", len(r.records)),
            t.add("fuzz.sigmas", len({rec.sigma.key() for rec in r.records})))),
    }
    for name, owner_path, attr in LAYERS:
        owner = pkg
        for part in owner_path.split("."):
            owner = getattr(owner, part)
        tracer.wrap(owner, attr, name, **hooks.get(name, {}))
    return tracer


def _layer_metrics(snapshots, untraced_walls, traced_walls):
    first = snapshots[0]
    calls, extra = first["calls"], first["extra"]

    def self_s(name):
        return statistics.median(s["self_s"][name] for s in snapshots)

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for metric in PER_LAYER:
        layer, what = metric.rsplit(".", 1)
        if what == "calls":
            values[metric] = calls[layer]
        elif what == "self_s":
            values[metric] = self_s(layer)
    values["linalg.embed.bytes"] = extra.get("embed.bytes", 0)
    values["semantics.run.branches"] = extra.get("run.branches", 0)
    values["assertions.cq_entails.reflexive_frac"] = ratio(
        extra.get("cq_entails.reflexive", 0), calls["assertions.cq_entails"])
    values["harness.fuzz.runs_per_sigma"] = ratio(
        extra.get("fuzz.records", 0), extra.get("fuzz.sigmas", 0))
    traced = statistics.median(traced_walls)
    untraced = statistics.median(untraced_walls)
    values["tracing.overhead_s"] = traced - untraced
    values["tracing.overhead_frac"] = traced / untraced - 1.0
    return {k: values[k] for k in PER_LAYER}


def _deterministic_counts(snapshot):
    return {"calls": snapshot["calls"], "extra": snapshot["extra"]}


def _timed_passes(workload, seconds, tracer, between=None):
    """Untimed warm-up, then timed passes until the next would end after
    `seconds`, but at least `workload.stat_passes` of them (traced runs:
    untraced and traced passes alternate, at least one of each).  After
    each untraced pass, `between` is called, outside the timing, with the
    share of `seconds` gone."""
    _run_pass(workload.warmup)
    passes, traced_passes, snapshots = [], [], []
    start = time.perf_counter()
    while True:
        traced_turn = tracer is not None and len(traced_passes) < len(passes)
        if traced_turn:
            tracer.reset()
            tracer.keep_spans = not traced_passes
            tracer.install()
            try:
                records = _run_pass(workload.ops, tracer)
            finally:
                tracer.uninstall()
            tracer.finish_pass()
            traced_passes.append(records)
            snapshots.append(tracer.snapshot())
        else:
            passes.append(_run_pass(workload.ops))
            if between:
                between((time.perf_counter() - start) / seconds)
        done = (len(passes) >= (1 if tracer else workload.stat_passes)
                and len(traced_passes) >= (len(passes) if tracer else 0))
        last = _pass_wall((traced_passes if traced_turn else passes)[-1])
        if done and time.perf_counter() - start + last > seconds:
            return passes, traced_passes, snapshots


def _end_to_end(workload, passes, setup_times, failed, attempted):
    """End-to-end metrics with their units, and the details printed
    above the result line."""
    walls = [_pass_wall(p) for p in passes]
    sample = sorted(r[2] for p in passes for r in p)
    # with too few operations for a percentile with TAIL_BEYOND samples
    # above it, the tail falls back to the median
    tail_q = max(0.5, 1.0 - TAIL_BEYOND / (workload.stat_passes * len(workload.ops)))
    by_key, by_kind = {}, {}
    for key, kind, elapsed, ok, work, note in (r for p in passes for r in p):
        by_key.setdefault(key, []).append(elapsed)
        w, t = by_kind.get(kind, (0, 0.0))
        by_kind[kind] = (w + work, t + elapsed)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "verdict_p50_s": (statistics.median(sample), "s"),
        "verdict_tail_s": (sample[math.ceil(tail_q * len(sample)) - 1], "s"),
        "work_per_s": (by_kind[workload.work_kind][0] / sum(walls), "1/s"),
        "ops_ok_frac": (1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {
        "work_unit": WORK_UNITS[workload.work_kind],
        "passes": len(passes), "ops_per_pass": len(workload.ops),
        "pass_walls_s": walls,
        "setup_times_s": setup_times,
        "verdict_samples": len(sample),
        "verdict_tail_percentile": 100.0 * tail_q,
        "ops_failed_frac": failed / attempted,
        "op_median_s": {k: statistics.median(v) for k, v in sorted(by_key.items())},
        **{KIND_RATES[k]: w / t for k, (w, t) in by_kind.items()},
        **workload.notes,
    }
    return metrics, details


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["qft-check", "qft-fuzz", "loop-sim", "corpus"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["standard", "full", "smoke"], default="standard",
                    help="smoke: QFT n <= 2, D <= 4, one corpus pass; "
                         "full: adds the QFT n = 6 check and n = 5, 6 fuzz, "
                         "and is standard on loop-sim and corpus")
    args = ap.parse_args(argv)

    if not (SRC / "cqhoare" / "__init__.py").is_file():
        print("error: %s/cqhoare not found; run from a checkout of the "
              "repository" % SRC, file=sys.stderr)
        return 2
    _pin_threads()
    # set-up imports compiled bytecode, as from an installed package,
    # whatever PYTHONDONTWRITEBYTECODE says: the first import writes it
    sys.dont_write_bytecode = False
    sys.path.insert(0, str(SRC))
    import numpy as np
    from workloads import WORKLOADS, sized

    def set_up(workdir):
        """Import the package, build interpretations, scripts, JSON files
        and input states.  Returns the package, the workload and the time."""
        start = time.perf_counter()
        pkg = _import_package()
        workload = WORKLOADS[args.workload](pkg, args.size, args.seed, workdir)
        return pkg, workload, time.perf_counter() - start

    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as work:
        pkg, workload, first = set_up(Path(work))
        setup_times = [first]
        kept = _package_modules()
        (Path(work) / "setup").mkdir()
        repeats = sized(SETUP_REPEATS, args.size)

        def repeat_set_up(share):
            # The machine's speed drifts over tens of seconds, so the
            # repeats are spread over the timed region in step with the
            # passes, not bunched at its start.  Each repeat's build is
            # dropped, and the modules the passes call are put back.
            while len(setup_times) < min(repeats, 1 + math.floor(share * repeats)):
                gc.collect()
                setup_times.append(set_up(Path(work) / "setup")[2])
                for name in _package_modules():
                    del sys.modules[name]
                sys.modules.update(kept)

        tracer = _install_tracer(pkg) if args.trace else None
        passes, traced_passes, snapshots = _timed_passes(
            workload, args.seconds, tracer, None if tracer else repeat_set_up)
        if not tracer:
            repeat_set_up(1.0)
        failures = workload.post_check() if workload.post_check else []

    all_records = [r for p in passes + traced_passes for r in p]
    failed_ops = [r for r in all_records if not r[3]]
    attempted = len(all_records)
    failed = min(attempted, len(failed_ops) + len(failures))
    problems = ["%s: %s" % (r[0], r[5]) for r in failed_ops] + failures

    if tracer:
        first = _deterministic_counts(snapshots[0])
        if any(_deterministic_counts(s) != first for s in snapshots[1:]):
            problems.append("traced passes disagree on their counts")
        values = _layer_metrics(snapshots, [_pass_wall(p) for p in passes],
                                [_pass_wall(p) for p in traced_passes])
        metrics = {k: (v, PER_LAYER[k]) for k, v in values.items()}
        span_file = RESULTS / ("%s-%s.spans.npz" % (args.workload, args.size))
        details = {"traced_passes": len(traced_passes),
                   "untraced_passes": len(passes),
                   "spans_written": tracer.write_spans(span_file),
                   "span_file": str(span_file.relative_to(ROOT)),
                   "counts": first}
    else:
        metrics, details = _end_to_end(workload, passes, setup_times, failed, attempted)

    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    machine = _machine(np)
    doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "size": args.size, "machine": machine,
           "details": details, "problems": problems, "result": result}
    out = RESULTS / ("%s-%s-trace%d.json" % (args.workload, args.size, args.trace))
    out.write_text(json.dumps(doc, indent=2, sort_keys=True))

    for name, (value, unit) in metrics.items():
        print("%-40s %14.6g %s" % (name, value, unit))
    for name, value in details.items():
        if not isinstance(value, (list, dict)):
            print("# %s: %s" % (name, value))
    print("# machine: %s" % json.dumps(machine, sort_keys=True))
    for p in problems[:10]:
        print("# problem: %s" % p.replace("\n", " | "))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
