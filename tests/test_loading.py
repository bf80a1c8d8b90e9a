"""Loading a proof script: each program suffix and bracketed state factor
of a document is parsed once and shared, and the trees stay those of
parsing each text alone."""

import json
import tracemalloc

import pytest

from cqhoare import assertions as asrt
from cqhoare import cli
from cqhoare import harness as hz
from cqhoare import prover as pv
from cqhoare import qft
from cqhoare import qsyntax as qs


def _qft_docs():
    for n in range(1, 9):
        meas = set(qft.qft_interpretation(n).measurements)
        yield meas, pv.node_to_json(qft.generate_qft(n)[1])
        yield meas, pv.node_to_json(qft.perturbed_qft_script(n)[1])


def _corpus_docs():
    interp, accepted, mutants = hz.build_corpus()
    meas = set(interp.measurements)
    for script in [*accepted.values(), *mutants.values()]:
        yield meas, json.loads(json.dumps(pv.node_to_json(script)))


def _pairs(node, doc):
    yield node, doc
    for p, d in zip(node.premises, doc["premises"]):
        yield from _pairs(p, d)


@pytest.mark.parametrize("docs", [_qft_docs, _corpus_docs])
def test_shared_trees_equal_trees_of_each_text_alone(docs):
    for meas, doc in docs():
        root = pv.node_from_json(doc, meas)
        for node, d in _pairs(root, doc):
            # without a cache, each text of the triple is parsed alone
            alone = pv.triple_from_json(d["conclusion"], meas)
            assert repr(node.conclusion) == repr(alone)


def test_seq_premise_programs_are_the_conclusion_suffixes():
    interp = qft.qft_interpretation(5)
    root = pv.node_from_json(pv.node_to_json(qft.generate_qft(5)[1]),
                             set(interp.measurements))
    seqs = [n for n, _ in _pairs(root, pv.node_to_json(root)) if n.rule == "Seq"]
    assert len(seqs) > 10
    for node in seqs:
        assert node.premises[1].conclusion.program is node.conclusion.program.second


def test_shared_state_factors_are_one_object():
    cache = {}
    a = qs.parse_once((), cache, asrt.parse_state, "(|0>_q[1] + |1>_q[1]) |0>_q[2]", cache)
    b = qs.parse_once((), cache, asrt.parse_state, "(|0>_q[1] + |1>_q[1]) |1>_q[2]", cache)
    assert a.left is b.left and a.right is not b.right
    assert repr(b) == repr(asrt.parse_state("(|0>_q[1] + |1>_q[1]) |1>_q[2]"))


def _depth_error(text, cache=None):
    """(line, column, message) of the DepthError parsing `text` raises, or
    None when it parses."""
    try:
        asrt.parse_state(text, cache)
    except qs.DepthError as e:
        return e.line, e.col, str(e)
    return None


def test_a_factor_reused_near_the_bound_raises_where_parsing_alone_does():
    factor = "(" * 5 + "|0>_q" + ")" * 5
    wrapped = lambda m: "(" * m + "\n" + factor + ")" * m  # noqa: E731
    lo, hi = 0, qs.MAX_DEPTH  # wrapped(lo) parses alone, wrapped(hi) does not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _depth_error(wrapped(mid)) else (mid, hi)
    m = lo
    cache = {}
    shared = asrt.parse_state(factor, cache)
    # inside m brackets the factor still fits under the bound: it is reused
    assert any(x is shared for x in qs.nodes(asrt.parse_state(wrapped(m), cache)))
    # now wrapped(m) is a known factor too; one bracket more leaves it one
    # level short of room, so it is read again and fails where it would alone
    assert _depth_error(wrapped(m + 1), cache) == _depth_error(wrapped(m + 1))
    assert _depth_error(wrapped(m + 1), cache)[0] == 2


def test_a_witness_expression_error_names_its_field():
    doc = pv.node_to_json(qft.generate_qft(1)[1])
    deep = "\n" + "(" * (qs.MAX_DEPTH + 1) + "x" + ")" * (qs.MAX_DEPTH + 1)
    for text in ("x +", deep):
        with pytest.raises(qs.ParseError) as alone:
            qs.parse_expr(text)
        doc["witnesses"] = {"t": text}
        with pytest.raises(qs.ParseError) as got:
            pv.node_from_json(doc)
        # a DepthError stays one, at the same line and column
        assert type(got.value) is type(alone.value)
        assert (got.value.line, got.value.col) == (alone.value.line, alone.value.col)
        assert str(got.value) == "witnesses.t: %s" % alone.value
    assert type(got.value) is qs.DepthError and got.value.line == 2


_UNI = ("premises", 0, "premises", 0, "premises", 0)  # the Uni node of QFT n = 1
_DEEP = "\n" + "(" * (qs.MAX_DEPTH + 1) + "x" + ")" * (qs.MAX_DEPTH + 1)
_DEEP_STATE = "(" * (qs.MAX_DEPTH + 1) + "|0>_q[1]" + ")" * (qs.MAX_DEPTH + 1)


@pytest.mark.parametrize("path, text, parse", [
    (("premises", 0, "conclusion", "pre", "phi"), "x +", qs.parse_formula),
    (("conclusion", "post", "phi"), _DEEP, qs.parse_formula),
    (("conclusion", "program"), "H[q[1]]; if", qs.parse_program),
    (("premises", 0, "conclusion", "post", "a", "state"), "|0>_", asrt.parse_state),
    (("conclusion", "pre", "a", "state"), _DEEP_STATE, asrt.parse_state),
    (_UNI + ("conclusion", "pre", "a", "params", 0), "x +", qs.parse_expr),
    (_UNI + ("conclusion", "pre", "a", "params", 0), _DEEP, qs.parse_expr),
    (_UNI + ("conclusion", "pre", "a", "targets", 0), "q[", asrt._qvar_from_json),
    (_UNI + ("conclusion", "post", "a", "state"), 5, asrt.parse_state),
])
def test_a_text_error_names_its_path(capsys, tmp_path, path, text, parse):
    """A formula, program, state, parameter or target that does not parse
    exits 3 with its path in the document before the parser's message; a
    DepthError stays one, at the same line and column."""
    doc = pv.node_to_json(qft.generate_qft(1)[1])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, list) and path[-1] == len(parent):
        parent.append(text)
    else:
        parent[path[-1]] = text
    with pytest.raises(qs.ParseError) as alone:
        parse(text)
    with pytest.raises(qs.ParseError) as got:
        pv.node_from_json(doc)
    assert str(got.value) == "%s: %s" % (".".join(map(str, path)), alone.value)
    assert type(got.value) is type(alone.value)
    assert (got.value.line, got.value.col) == (alone.value.line, alone.value.col)

    interp = tmp_path / "interp.json"
    interp.write_text(json.dumps({
        "classical_vars": {"j": {"kind": "bits", "lo": 1, "hi": 1},
                           "n": {"kind": "int", "lo": 1, "hi": 1}},
        "quantum_vars": {"q": {"dim": 2, "indices": [{"kind": "int", "lo": 1, "hi": 1}]}}}))
    script = tmp_path / "script.json"
    script.write_text(json.dumps(doc))
    assert cli.main(["--interp", str(interp), "check", str(script)]) == 3
    assert capsys.readouterr().err == "error: %s\n" % got.value


@pytest.mark.parametrize("cache", [None, {}])
def test_nested_brackets_around_a_ket_are_read_once(monkeypatch, cache):
    # a work counter: each bracket tried as a coefficient reads the whole
    # nest inside it, 18,337 expression calls at k = 190
    calls = []
    unary = asrt._StateParser.unary
    monkeypatch.setattr(asrt._StateParser, "unary",
                        lambda self: calls.append(1) or unary(self))
    k = 190
    s = asrt.parse_state("(" * k + "(1/2) * |0>_q + (1/2) * |1>_q" + ")" * k, cache)
    assert len(calls) <= k
    assert repr(s) == repr(asrt.parse_state("(1/2) * |0>_q + (1/2) * |1>_q"))


def test_loading_tokenizes_each_repeated_text_once(monkeypatch):
    # a work counter, not a timing: loading the QFT n = 8 script read
    # 20,099 tokens when only whole texts were shared
    count = []
    real = qs.tokenize

    def tokenize(src):
        toks = real(src)
        count.append(len(toks))
        return toks

    monkeypatch.setattr(qs, "tokenize", tokenize)
    interp = qft.qft_interpretation(8)
    pv.node_from_json(pv.node_to_json(qft.generate_qft(8)[1]), set(interp.measurements))
    assert sum(count) <= 10000


def test_loading_a_long_program_copies_no_suffix():
    program = "; ".join("x := %d" % (i % 7) for i in range(3000))
    top = {"phi": "true", "a": {"kind": "atomic", "name": "I", "targets": []}}
    doc = {"rule": "Skip", "conclusion": {"pre": top, "program": program, "post": top}}
    tracemalloc.start()
    try:
        node = pv.node_from_json(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(qs.seq_parts(node.conclusion.program)) == 3000
    assert peak < 7e6  # keeping a copy of each suffix peaks near 40 MB
