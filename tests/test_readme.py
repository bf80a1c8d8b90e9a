"""Every `cqhoare ...` line of the README's "Command line" block runs.

The lines run through `cli.main` in a scratch directory that holds the
files they name: the README's own interpretation and state JSON, plus
small assertion, typing, script and triple files written here.  The
README's assertion example is the one in `x0.json`.
"""

import json
import shlex
from pathlib import Path

from cqhoare import cli
from cqhoare import classical as cl
from cqhoare import prover as pv
from cqhoare import qsyntax as qs
from cqhoare.assertions import Atomic, CqAssertion

README = Path(__file__).resolve().parents[1] / "README.md"


def _section():
    text = README.read_text()
    return text.split("## Command line", 1)[1].split("\n## ", 1)[0]


def _commands(section):
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("cqhoare ")]


def _json_blocks(section):
    """The section's JSON examples, by the key that tells them apart."""
    docs = [json.loads(part.split("```", 1)[0])
            for part in section.split("```json\n")[1:]]
    return {key: doc for doc in docs
            for key in ("classical_vars", "sigma", "phi") if key in doc}


def _skip_script():
    a = CqAssertion(cl.TRUE, Atomic("P0", (), (qs.QVar("q"),)))
    return pv.ProofNode("Skip", pv.HoareTriple(a, qs.Skip(), a))


def _atomic(phi, name):
    return {"phi": phi, "a": {"kind": "atomic", "name": name, "targets": ["q"]}}


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    section = _section()
    examples = _json_blocks(section)
    script = _skip_script()
    files = {
        "interp.json": examples["classical_vars"],
        "state.json": examples["sigma"],
        "x0.json": _atomic("x = 0", "P0"),
        "x1.json": _atomic("x = 1", "P1"),
        "x-positive.json": _atomic("1 <= x", "ID1"),
        "types.json": {"x": {"kind": "int", "lo": 0, "hi": 3}},
        "script.json": pv.node_to_json(script),
        "triple.json": pv.triple_to_json(script.conclusion),
    }
    for name, doc in files.items():
        (tmp_path / name).write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    commands = _commands(section)
    for argv in commands:
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code != 3, (argv, err)
    assert len(commands) == 8
    assert examples["phi"] == files["x0.json"]
