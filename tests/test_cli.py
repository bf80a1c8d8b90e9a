import json

import pytest

from cqhoare import cli
from cqhoare import classical as cl
from cqhoare import qsyntax as qs
from cqhoare import assertions as asrt
from cqhoare import prover as pv
from cqhoare import harness as hz
from cqhoare import qft
from cqhoare.assertions import Atomic, CqAssertion, Kraus, StateProj
from cqhoare.qsyntax import QVar


@pytest.fixture()
def files(tmp_path):
    interp = tmp_path / "interp.json"
    interp.write_text(json.dumps({
        "classical_vars": {"x": {"kind": "int", "lo": 0, "hi": 1}},
        "quantum_vars": {"q": {"dim": 2}},
    }))
    state = tmp_path / "state.json"
    root_half = 2 ** -0.5
    state.write_text(json.dumps({
        "sigma": {"x": 0},
        "rho": {"pure": [[root_half, 0], [root_half, 0]]},
    }))
    return tmp_path, str(interp), str(state)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    cap = capsys.readouterr()
    doc = json.loads(cap.out) if cap.out.strip() else None
    return code, doc, cap.err


def test_parse_ok_and_error(capsys, files):
    _, interp, _ = files
    code, doc, _ = run_cli(capsys, "--interp", interp, "parse", "H[q]; skip")
    assert code == 0 and doc["ok"]
    code, doc, _ = run_cli(capsys, "--interp", interp, "parse", "if x then")
    assert code == 1 and not doc["ok"]


def test_run_reports_branches(capsys, files):
    _, interp, state = files
    code, doc, _ = run_cli(capsys, "--interp", interp, "run",
                           "x := M[q]", "--state", state, "--fuel", "5")
    assert code == 0
    assert len(doc["items"]) == 2
    assert abs(doc["residual_trace"]) < 1e-9


def test_run_while_true_residual(capsys, files):
    _, interp, state = files
    code, doc, _ = run_cli(capsys, "--interp", interp, "run",
                           "while true do skip od", "--state", state,
                           "--fuel", "10")
    assert code == 0
    assert abs(doc["residual_trace"] - 1.0) < 1e-9


def _qft_interp_file(tmp_path, n):
    path = tmp_path / ("qft%d.json" % n)
    path.write_text(json.dumps({
        "classical_vars": {"j": {"kind": "bits", "lo": 1, "hi": n},
                           "n": {"kind": "int", "lo": n, "hi": n}},
        "quantum_vars": {"q": {"dim": 2,
                               "indices": [{"kind": "int", "lo": 1, "hi": n}]}},
    }))
    return path


def test_check_exit_codes(capsys, tmp_path):
    good = tmp_path / "good.json"
    _, script = qft.generate_qft(2)
    good.write_text(json.dumps(pv.node_to_json(script)))
    bad = tmp_path / "bad.json"
    _, mutant = hz.qft_mutant(2)
    bad.write_text(json.dumps(pv.node_to_json(mutant)))
    interp = _qft_interp_file(tmp_path, 2)
    code, doc, _ = run_cli(capsys, "--interp", str(interp), "check", str(good))
    assert code == 0 and doc["status"] == "accepted"
    code, doc, _ = run_cli(capsys, "--interp", str(interp), "check", str(bad))
    assert code == 1 and doc["status"] == "rejected"


@pytest.mark.parametrize("witnesses", [
    {"y": [1]}, {"z": {"name": "y"}}, {"y": "not a name"}, {"z": "and"},
    {"y": ""}, {"t": 5}, {"t": "x +"}, ["y"], {"weights": 5}, {"weights": ["0.5"]},
    {"weights": [True]}, {"weights": [None]}, {"weights": [[0.5]]}, {"t": ["x"]},
    {"y": None}, {"z": 1.5}])
def test_malformed_witness_exits_3(capsys, tmp_path, witnesses):
    doc = pv.node_to_json(qft.generate_qft(1)[1])
    doc["witnesses"] = witnesses
    script = tmp_path / "script.json"
    script.write_text(json.dumps(doc))
    interp = _qft_interp_file(tmp_path, 1)
    assert cli.main(["--interp", str(interp), "check", str(script)]) == 3
    err = capsys.readouterr().err
    field = "witnesses" + ("." + next(iter(witnesses)) if isinstance(witnesses, dict) else "")
    assert err.startswith("error: %s" % field)


def test_witnesses_no_rule_reads_are_kept_as_they_are(capsys, tmp_path):
    """`samples` and `seed` once tuned a sampled proportionality test; a
    script that still carries them loads and checks as before."""
    doc = pv.node_to_json(qft.generate_qft(1)[1])
    doc["witnesses"] = {"samples": 0, "seed": "1"}
    script = tmp_path / "script.json"
    script.write_text(json.dumps(doc))
    interp = _qft_interp_file(tmp_path, 1)
    code, report, _ = run_cli(capsys, "--interp", str(interp), "check", str(script))
    assert code == 0 and report["status"] == "accepted"


def test_cli_calls_in_one_process_leak_nothing(capsys, tmp_path, monkeypatch):
    """Each of several `main` calls in one process gets only its own
    arguments and their defaults."""
    interp = _qft_interp_file(tmp_path, 1)
    target = tmp_path / "triple.json"
    target.write_text(json.dumps(pv.triple_to_json(qft.generate_qft(1)[1].conclusion)))
    code, doc, _ = run_cli(capsys, "--interp", str(interp), "fuzz", str(target),
                           "--samples", "2", "--seed", "7")
    assert code == 0 and doc["config"]["seed"] == 7
    code, doc, _ = run_cli(capsys, "--interp", str(interp), "fuzz", str(target),
                           "--samples", "2")
    assert code == 0 and doc["config"]["seed"] == 0
    assert cli.main(["check"]) == 3  # the script argument is missing
    assert run_cli(capsys, "parse", "skip")[:2] == (0, {"ok": True, "program": "skip"})
    seen = []
    load = cli._load_interp
    monkeypatch.setattr(cli, "_load_interp", lambda args: seen.append(args) or load(args))
    assert run_cli(capsys, "--interp", str(interp), "parse", "skip")[0] == 0
    assert run_cli(capsys, "parse", "skip")[0] == 0
    assert [a.interp for a in seen] == [str(interp), None] and seen[0] is not seen[1]


def test_examples_qft_size_range(capsys, monkeypatch):
    """n = 8 is the largest QFT example, and its script is checked; its
    forward fuzz, 256 classical states of 276 inputs at D = 256, is out of
    a unit test's reach, so it is replaced by a consistent empty report."""
    def fuzz(triple, interp, cfg):
        return hz.FuzzReport(triple, triple.mode, [], "consistent", 0.0, cfg)

    monkeypatch.setattr(hz, "fuzz_triple", fuzz)
    code, doc, _ = run_cli(capsys, "examples", "qft", "--n", "8")
    assert code == 0 and doc["check"]["status"] == "accepted"
    code, doc, err = run_cli(capsys, "examples", "qft", "--n", "9")
    assert code == 3 and doc is None and "between 1 and 8" in err


def test_examples_qft(capsys):
    code, doc, err = run_cli(capsys, "examples", "qft", "--n", "2")
    assert code == 0
    assert doc["check"]["status"] == "accepted"
    assert doc["fuzz"]["verdict"] == "consistent"
    assert "accepted" in err


def test_examples_determinism_and_seed_env(capsys, monkeypatch):
    code, doc1, _ = run_cli(capsys, "examples", "qft", "--n", "1")
    code, doc2, _ = run_cli(capsys, "examples", "qft", "--n", "1")
    assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)
    # `--seed` is the one way to set the seed; the environment plays no part
    monkeypatch.setenv("QHL_SEED", "99")
    code, doc3, _ = run_cli(capsys, "examples", "qft", "--n", "1")
    assert json.dumps(doc3, sort_keys=True) == json.dumps(doc1, sort_keys=True)
    code, doc4, _ = run_cli(capsys, "examples", "qft", "--n", "1", "--seed", "7")
    assert doc4["fuzz"]["config"]["seed"] == 7


def test_usage_errors_exit_3(capsys, files):
    _, interp, _ = files
    assert cli.main(["no-such-command"]) == 3
    capsys.readouterr()
    assert cli.main(["--interp", interp, "run", "skip",
                     "--state", "/nonexistent.json"]) == 3
    capsys.readouterr()
    assert cli.main(["examples", "qft", "--n", "99"]) == 3
    capsys.readouterr()


# each command with operands that parse, and one of its integer options
_OPERANDS = {"parse": ["skip"], "run": ["skip", "--state", "S"],
             "eval-assert": ["A", "--state", "S"], "entail": ["A", "B"], "check": ["S"],
             "fuzz": ["T"], "examples": ["qft"]}
_INT_OPTION = {"run": "--fuel", "fuzz": "--samples", "examples": "--n"}


def _usage_errors():
    cases = [([], "the following arguments are required: cmd"),
             (["nope"], "argument cmd: invalid choice: 'nope'"),
             (["--interp"], "argument --interp: expected one argument")]
    for cmd, ok in _OPERANDS.items():
        cases += [([cmd], "cqhoare %s: error: the following arguments are required: " % cmd),
                  ([cmd, *ok, "extra"], "unrecognized arguments: extra"),
                  ([cmd, *ok, "--interp", "I"], "unrecognized arguments: --interp I")]
        if cmd in _INT_OPTION:
            cases.append(([cmd, *ok, _INT_OPTION[cmd], "x"], "invalid int value: 'x'"))
    return [pytest.param(argv, message, id=" ".join(argv) or "no arguments")
            for argv, message in cases]


def _no_handlers(monkeypatch, handler=None):
    """Each command's handler replaced by `handler`, or by one that fails."""
    def fail(args):
        raise AssertionError("a handler ran")

    for name, (text, _, specs) in list(cli._COMMANDS.items()):
        monkeypatch.setitem(cli._COMMANDS, name, (text, handler or fail, specs))


@pytest.mark.parametrize("argv, message", _usage_errors())
def test_usage_error_exits_3_with_its_message(capsys, monkeypatch, argv, message):
    _no_handlers(monkeypatch)
    assert cli.main(argv) == 3
    cap = capsys.readouterr()
    assert cap.out == "" and message in cap.err and cap.err.startswith("usage: cqhoare")


@pytest.mark.parametrize("cmd", [None, *_OPERANDS])
def test_help_exits_0_with_usage_on_stdout(capsys, monkeypatch, cmd):
    _no_handlers(monkeypatch)
    assert cli.main(["--help"] if cmd is None else [cmd, "--help"]) == 0
    cap = capsys.readouterr()
    assert cap.err == "" and cap.out.startswith("usage: cqhoare %s[-h]"
                                                % ("" if cmd is None else cmd + " "))
    if cmd is None:
        for name, (text, _, _) in cli._COMMANDS.items():
            assert "\n    %-20s%s\n" % (name, text) in cap.out


@pytest.mark.parametrize("argv, want", [
    (["parse", "--", "-x"], {"program": "-x", "interp": None}),
    (["run", "--state", "S", "--", "-x"], {"program": "-x", "state": "S", "fuel": 64}),
    (["eval-assert", "--state", "S", "--", "-x"], {"assertion": "-x", "state": "S"}),
    (["entail", "A", "--", "-x"], {"pre": "A", "post": "-x", "domain": None}),
    (["--interp", "I", "check", "--", "-x"], {"script": "-x", "interp": "I"}),
    (["fuzz", "--seed", "-3", "--", "-x"],
     {"target": "-x", "samples": 20, "seed": -3, "fuel": 64}),
    (["examples", "--n", "3", "--", "qft"], {"example": "qft", "n": 3, "samples": 10,
                                             "seed": 0}),
], ids=["parse", "run", "eval-assert", "entail", "check", "fuzz", "examples"])
def test_each_command_gets_its_operands_after_a_double_dash(monkeypatch, argv, want):
    seen = []
    _no_handlers(monkeypatch, lambda args: seen.append(vars(args)) or 0)
    assert cli.main(argv) == 0
    assert len(seen) == 1 and {k: seen[0][k] for k in want} == want


@pytest.mark.parametrize("value", [[1], None, {"a": 1}, 5, True],
                         ids=["list", "null", "object", "out of range", "boolean"])
def test_run_of_a_state_outside_its_declared_type_exits_3(capsys, files, value):
    tmp_path, interp, _ = files
    state = tmp_path / "bad-state.json"
    state.write_text(json.dumps({"sigma": {"x": value}}))
    code, doc, err = run_cli(capsys, "--interp", interp, "run",
                             "while x = 1 do x := M[q]; H[q] od", "--state", str(state))
    assert code == 3 and doc is None
    assert err == "error: sigma.x: expected a value of Int(0..1), found %s\n" % (
        json.dumps(value))


@pytest.mark.parametrize("value", [[1], {"a": 1}, None], ids=["list", "object", "null"])
def test_run_of_an_undeclared_variable_of_no_value_kind_exits_3(capsys, files, value):
    tmp_path, interp, _ = files
    state = tmp_path / "bad-state.json"
    state.write_text(json.dumps({"sigma": {"x": 0, "y": value}}))
    code, doc, err = run_cli(capsys, "--interp", interp, "run",
                             "if y = 1 then skip else skip fi", "--state", str(state))
    assert code == 3 and doc is None
    assert err == ("error: sigma.y: expected a boolean, number, string or bit array, "
                   "found %s\n" % json.dumps(value))


def test_deep_program_exits_3_without_traceback(capsys):
    # 2,000 nested conditionals: the recursive-descent parser cannot go deeper
    src = "skip"
    for _ in range(2000):
        src = "if true then %s else skip fi" % src
    assert cli.main(["parse", src]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_long_sequence_parses_and_prints(capsys):
    code, doc, _ = run_cli(capsys, "parse", "; ".join(["skip"] * 2000))
    assert code == 0
    assert doc["program"] == "; ".join(["skip"] * 2000)


def test_fuzz_subcommand(capsys, tmp_path):
    interp, accepted, _ = hz.build_corpus()
    target = tmp_path / "triple.json"
    target.write_text(json.dumps(
        pv.triple_to_json(accepted["unitary"].conclusion)))
    # no --interp file matches the corpus declarations, so craft one
    idoc = tmp_path / "interp.json"
    idoc.write_text(json.dumps({
        "classical_vars": {"x": {"kind": "int", "lo": 0, "hi": 1},
                           "y": {"kind": "int", "lo": 0, "hi": 1}},
        "quantum_vars": {"q1": {"dim": 2}, "q2": {"dim": 2}},
    }))
    code, doc, _ = run_cli(capsys, "--interp", str(idoc), "fuzz", str(target),
                           "--samples", "5", "--seed", "3")
    assert code == 0
    assert doc["verdict"] == "consistent"


def _uni_probe(tmp_path, kraus_symbols):
    """{true, P0[q1]} H[q1] {true, P0[q1]} by Conseq over the Uni axiom,
    under an interpretation declaring `kraus_symbols`."""
    interp = tmp_path / "interp.json"
    interp.write_text(json.dumps({"quantum_vars": {"q1": {"dim": 2}},
                                  "kraus_symbols": kraus_symbols}))
    p0 = Atomic("P0", (), (QVar("q1"),))
    prog = qs.Gate("H", (), (QVar("q1"),))
    post = CqAssertion(cl.TRUE, p0)
    uni = pv.ProofNode("Uni", pv.HoareTriple(
        CqAssertion(cl.TRUE, Kraus("F_H", (), (QVar("q1"),), (p0,))), prog, post))
    script = tmp_path / "script.json"
    script.write_text(json.dumps(pv.node_to_json(pv.ProofNode(
        "Conseq", pv.HoareTriple(post, prog, post), (uni,)))))
    return str(interp), str(script)


@pytest.mark.parametrize("name", ["F_H", "F_M", "FB2", "WSUM2"])
def test_user_symbol_with_a_designated_name_exits_3(capsys, tmp_path, name):
    # with F_H the identity, the Uni axiom would prove P0 invariant under H
    identity = [[1, 0], [0, 1]]
    interp, script = _uni_probe(tmp_path, {name: {"operators": [identity]}})
    assert cli.main(["--interp", interp, "check", script]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err and "reserved" in err


def test_entail_resolves_an_init_symbol_of_any_dimension(capsys, tmp_path):
    interp = tmp_path / "interp.json"
    interp.write_text(json.dumps({"quantum_vars": {"t": {"dim": 3}}}))
    t = QVar("t")
    proj0 = StateProj(asrt.Ket(cl.Lit(0), t))
    # FB3 applied to |0><0| three times is <0|0><0|0> I = I
    pre = CqAssertion(cl.TRUE, StateProj(asrt.Ket(cl.Lit(2), t)))
    post = CqAssertion(cl.TRUE, Kraus("FB3", (), (t,), (proj0,) * 3))
    files = []
    for name, a in (("pre", pre), ("post", post)):
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps(asrt.assertion_to_json(a)))
        files.append(str(path))
    code, doc, _ = run_cli(capsys, "--interp", str(interp), "entail", *files)
    assert code == 0 and doc["status"] == "holds"


def test_run_loads_a_state_within_the_interpretation_tolerance(capsys, tmp_path):
    interp = tmp_path / "interp.json"
    interp.write_text(json.dumps({"quantum_vars": {"q": {"dim": 2}},
                                  "tolerances": {"psd": 1e-3}}))
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"rho": {"matrix": [
        [[1.00001, 0], [0, 0]], [[0, 0], [-0.00001, 0]]]}}))
    code, doc, _ = run_cli(capsys, "--interp", str(interp), "run", "skip",
                           "--state", str(state))
    assert code == 0 and doc["input_trace"] == 1.0


def test_oversized_predicate_check_is_inconclusive_and_exits_2(capsys, tmp_path):
    n = 15
    interp = tmp_path / "interp.json"
    interp.write_text(json.dumps({"quantum_vars": {"q": {
        "dim": 2, "indices": [{"kind": "int", "lo": 1, "hi": n}]}}}))
    zeros = CqAssertion(cl.TRUE, StateProj(asrt.tensor_all(
        [asrt.Ket(cl.Lit(0), QVar("q", (cl.Lit(i),))) for i in range(1, n + 1)])))
    skip = pv.ProofNode("Skip", pv.HoareTriple(zeros, qs.Skip(), zeros))
    script = tmp_path / "script.json"
    script.write_text(json.dumps(pv.node_to_json(pv.ProofNode(
        "Conseq", pv.HoareTriple(zeros, qs.Skip(), zeros), (skip,)))))
    code, doc, _ = run_cli(capsys, "--interp", str(interp), "check", str(script))
    assert code == 2 and doc["status"] == "inconclusive"
    root = doc["nodes"][-1]
    assert root["status"] == "inconclusive" and "exceeds cap" in root["reason"]


@pytest.mark.parametrize("param", ["0.5", "-3"])
def test_run_of_a_gate_parameter_outside_its_type_exits_3(capsys, files, param):
    _, interp, state = files
    code, doc, err = run_cli(capsys, "--interp", interp, "run",
                             "R(%s)[q]" % param, "--state", state)
    assert code == 3 and doc is None
    assert err.startswith("error:") and "Int(1..64)" in err


def test_oversized_predicate_entail_is_inconclusive_and_exits_2(capsys, tmp_path):
    n = 15
    interp = tmp_path / "interp.json"
    interp.write_text(json.dumps({"quantum_vars": {"q": {
        "dim": 2, "indices": [{"kind": "int", "lo": 1, "hi": n}]}}}))
    zeros = tmp_path / "zeros.json"
    zeros.write_text(json.dumps(asrt.assertion_to_json(CqAssertion(
        cl.TRUE, StateProj(asrt.tensor_all(
            [asrt.Ket(cl.Lit(0), QVar("q", (cl.Lit(i),)))
             for i in range(1, n + 1)]))))))
    code, doc, _ = run_cli(capsys, "--interp", str(interp), "entail",
                           str(zeros), str(zeros))
    assert code == 2 and doc["status"] == "inconclusive"
    assert "exceeds cap" in doc["reason"]


def test_entail_domain_file_replaces_the_declared_types(capsys, files):
    tmp_path, interp, _ = files
    paths = []
    for name, phi in (("pre", "1 <= x"), ("post", "x = 1")):
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps({"phi": phi, "a": {
            "kind": "atomic", "name": "ID1", "targets": ["q"]}}))
        paths.append(str(path))
    domain = tmp_path / "domain.json"

    def entail(*extra):
        return run_cli(capsys, "--interp", interp, "entail", *paths, *extra)

    code, doc, _ = entail()  # x in 0..1
    assert code == 0 and doc["status"] == "holds"
    domain.write_text(json.dumps({"x": {"kind": "int", "lo": 0, "hi": 2}}))
    code, doc, _ = entail("--domain", str(domain))
    assert code == 1 and doc["witness"] == {"x": 2}
    domain.write_text(json.dumps({}))
    code, doc, _ = entail("--domain", str(domain))
    assert code == 2 and doc["reason"] == "no enumerable domain for x"


_CONCLUSION = ("conclusion",)
_UNI_PRE = ("premises", 0, "conclusion", "pre", "a")


@pytest.mark.parametrize("cmd, path, value, kind", [
    ("check", _CONCLUSION + ("pre", "phi"), 5, "int"),
    ("check", _CONCLUSION + ("pre", "phi"), None, "NoneType"),
    ("check", _CONCLUSION + ("pre", "phi"), ["x"], "list"),
    ("check", _CONCLUSION + ("pre", "a"), {"kind": "proj", "state": 7}, "int"),
    ("check", _CONCLUSION + ("program",), 5, "int"),
    ("check", _UNI_PRE + ("params",), [1], "int"),
    ("check", _UNI_PRE + ("targets",), [3], "int"),
    ("eval-assert", ("phi",), 1, "int"),
])
def test_non_text_field_exits_3(capsys, tmp_path, files, cmd, path, value, kind):
    """Every formula, state, program, parameter and target reaches the
    checker as text; anything else is a parse error naming its type."""
    if cmd == "check":
        interp, target = _uni_probe(tmp_path, {})
        extra = []
    else:
        _, interp, state = files
        target = str(tmp_path / "assertion.json")
        extra = ["--state", state]
        with open(target, "w") as f:
            json.dump({"phi": "true", "a": {
                "kind": "atomic", "name": "P0", "targets": ["q"]}}, f)
    with open(target) as f:
        doc = json.load(f)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with open(target, "w") as f:
        json.dump(doc, f)
    assert cli.main(["--interp", interp, cmd, target, *extra]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "expected text, got %s" % kind in err


@pytest.mark.parametrize("interp, script, field", [
    ({"kraus_symbols": {"K": {"operators": []}}}, None, "kraus_symbols.K.operators"),
    ({"kraus_symbols": {"K": {"operators": 5}}}, None, "kraus_symbols.K.operators"),
    ({"gates": {"G": {"matrix": 5}}}, None, "gates.G.matrix"),
    ({"atomic_predicates": {"P": {"matrix": [1, 0]}}}, None,
     "atomic_predicates.P.matrix"),
    (None, {"rule": "Skip", "conclusion": 3}, "conclusion"),
    (None, dict(pv.node_to_json(qft.generate_qft(1)[1]), premises=[1]),
     "proof node"),
])
def test_malformed_json_exits_3_naming_the_field(capsys, tmp_path, interp,
                                                 script, field):
    argv = []
    if interp is not None:
        path = tmp_path / "interp.json"
        path.write_text(json.dumps(interp))
        argv += ["--interp", str(path)]
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script or {}))
    assert cli.main(argv + ["check", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err


@pytest.mark.parametrize("interp, state, field", [
    ([1], None, "top level: expected object, found array"),
    ({"classical_vars": [1]}, None, "classical_vars: expected object"),
    ({"classical_vars": {"x": 1}}, None, "classical_vars.x: expected object or string"),
    ({"measurements": {"M2": {"operators": 5}}}, None,
     "measurements.M2.operators: expected object, found integer"),
    ({"measurements": {"M2": {"operators": {"0": [[[1]]]}}}}, None,
     "measurements.M2.operators.0.0.0.1 is missing"),
    ({"quantum_vars": {"q": {"indices": 5}}}, None,
     "quantum_vars.q.indices: expected array, found integer"),
    ({"quantum_vars": {"q": {"dim": "2"}}}, None, "quantum_vars.q.dim: expected integer"),
    ({"gates": {"G": {"matrix": [[1, 0], [0, None]]}}}, None,
     "gates.G.matrix.1.1: expected number or array, found null"),
    ({"tolerances": {"psd": [1]}}, None, "tolerances.psd: expected number"),
    (None, {"sigma": [1]}, "sigma: expected object, found array"),
    (None, {"rho": {"pure": [1, 0]}}, "rho.pure.0: expected array, found integer"),
    (None, {"rho": {"pure": [[1, "0"]]}}, "rho.pure.0.1: expected number, found string"),
    (None, {"rho": {"matrix": [[1, 0], [0, 0]]}}, "rho.matrix.0.0: expected array"),
    (None, [], "top level: expected object, found array"),
])
def test_malformed_interpretation_or_state_exits_3_naming_the_field(
        capsys, tmp_path, interp, state, field):
    ipath, spath = tmp_path / "interp.json", tmp_path / "state.json"
    ipath.write_text(json.dumps({"quantum_vars": {"q": {}}} if interp is None else interp))
    spath.write_text(json.dumps({} if state is None else state))
    assert cli.main(["--interp", str(ipath), "run", "skip", "--state", str(spath)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err and "Traceback" not in err


def test_entail_domain_of_the_wrong_shape_exits_3(capsys, files):
    tmp_path, interp, _ = files
    assertion = tmp_path / "a.json"
    assertion.write_text(json.dumps({"phi": "true", "a": {
        "kind": "atomic", "name": "P0", "targets": ["q"]}}))
    domain = tmp_path / "domain.json"
    for doc, field in (([1], "top level"), ({"x": 1}, "x: expected object or string")):
        domain.write_text(json.dumps(doc))
        assert cli.main(["--interp", interp, "entail", str(assertion), str(assertion),
                         "--domain", str(domain)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err


def test_nesting_bound_for_the_command_line(capsys):
    chain = lambda n: "x := " + " + ".join(["x"] * n)  # noqa: E731
    code, doc, _ = run_cli(capsys, "parse", chain(qs.MAX_DEPTH))
    assert code == 0 and doc["program"] == chain(qs.MAX_DEPTH)
    for n in (qs.MAX_DEPTH + 1, 3000):
        code, doc, err = run_cli(capsys, "parse", chain(n))
        assert code == 3 and doc is None
        assert err.startswith("error: nested more than %d levels deep (line 1, column "
                              % qs.MAX_DEPTH)


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


@pytest.mark.parametrize("path, value, message", [
    (("premises",), 5, "premises: expected array, found integer"),
    (("conclusion", "pre"), [1], "conclusion.pre: expected object, found array"),
    (("conclusion", "pre", "a"), 3, "conclusion.pre.a: expected object, found integer"),
    (_UNI_PRE + ("branches",), 3,
     "premises.0.conclusion.pre.a.branches: expected array, found integer"),
    (("conclusion", "mode"), "bogus",
     "conclusion.mode: expected 'partial' or 'total', found 'bogus'"),
    (("conclusion", "mode"), 3, "conclusion.mode: expected string, found integer"),
    (("rule",), ["Conseq"], "rule: expected string, found array"),
])
def test_malformed_proof_script_exits_3_naming_the_field(capsys, tmp_path, path, value,
                                                         message):
    interp, script = _uni_probe(tmp_path, {})
    with open(script) as f:
        doc = json.load(f)
    _set(doc, path, value)
    with open(script, "w") as f:
        json.dump(doc, f)
    assert cli.main(["--interp", interp, "check", script]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def test_fuzz_takes_only_a_known_mode(capsys, tmp_path):
    interp, script = _uni_probe(tmp_path, {})
    with open(script) as f:
        triple = dict(json.load(f)["conclusion"], program="skip")
    path = tmp_path / "triple.json"
    for mode, code in (("partial", 0), ("total", 0), ("bogus", 3), (3, 3)):
        triple["mode"] = mode
        path.write_text(json.dumps(triple))
        assert cli.main(["--interp", interp, "fuzz", str(path), "--samples", "2"]) == code
        err = capsys.readouterr().err
        assert (code == 3) == err.startswith("error: mode: expected")
    path.write_text("5")
    assert cli.main(["--interp", interp, "fuzz", str(path)]) == 3
    assert capsys.readouterr().err.startswith("error: top level: expected object")


@pytest.mark.parametrize("interp, state, message", [
    ({"quantum_vars": {"q": {}}, "classical_vars": {"x": {"kind": "int", "lo": [1], "hi": 2}}},
     {}, "classical_vars.x.lo: expected integer, found array"),
    ({"quantum_vars": {"q": {}}, "classical_vars": {"x": {"kind": "enum", "labels": [0]}}},
     {}, "classical_vars.x.labels.0: expected string, found integer"),
    ({"quantum_vars": {"q": {}}, "classical_vars": {"x": {"lo": 1}}},
     {}, "classical_vars.x.kind is missing"),
    ({"quantum_vars": {"q": {}}}, {"sigma": {"x": {"bits": 5}}},
     "sigma.x.bits: expected array, found integer"),
    ({"quantum_vars": {"q": {}}}, {"sigma": {"x": {"bits": [0, [1]]}}},
     "sigma.x.bits.1: expected integer, found array"),
    ({"quantum_vars": {"q": {}}}, {"sigma": {"x": {"lo": "1", "bits": [0]}}},
     "sigma.x.lo: expected integer, found string"),
])
def test_malformed_classical_type_or_state_exits_3_naming_the_field(
        capsys, tmp_path, interp, state, message):
    ipath, spath = tmp_path / "interp.json", tmp_path / "state.json"
    ipath.write_text(json.dumps(interp))
    spath.write_text(json.dumps(state))
    assert cli.main(["--interp", str(ipath), "run", "skip", "--state", str(spath)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and "Traceback" not in err
