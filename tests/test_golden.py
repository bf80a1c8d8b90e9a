"""Byte-identity of check and fuzz reports against a committed fixture.

`golden.json` holds `check_script(...).to_json()` for the QFT scripts and
their perturbed forms at n = 1..4 and for every corpus script and mutant,
and `fuzz_triple(...).to_json()` for every corpus conclusion and for the
QFT conclusions, accepted and perturbed, at n = 1..3, at a fixed seed.
A change that alters any verdict, reason, record or float shows up here
as a differing report.  Regenerate the fixture only when a change of
output is intended, with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import pytest

from cqhoare import harness as hz
from cqhoare import prover as pv
from cqhoare import qft

FIXTURE = Path(__file__).with_name("golden.json")
FUZZ_CONFIG = dict(samples=6, seed=11)
QFT_NS = (1, 2, 3, 4)
QFT_FUZZ_NS = (1, 2, 3)


def _dump(doc):
    return json.dumps(doc, sort_keys=True)


def golden_reports():
    """Report JSON by name, in a fixed order."""
    out = {}
    for n in QFT_NS:
        interp = qft.qft_interpretation(n)
        out["check qft n=%d" % n] = pv.check_script(
            qft.generate_qft(n)[1], interp).to_json()
        out["check qft-perturbed n=%d" % n] = pv.check_script(
            qft.perturbed_qft_script(n)[1], interp).to_json()
    interp, accepted, mutants = hz.build_corpus()
    scripts = sorted(accepted.items()) + sorted(mutants.items())
    for name, root in scripts:
        out["check corpus %s" % name] = pv.check_script(root, interp).to_json()
    for name, root in scripts:
        cfg = hz.RunConfig(**FUZZ_CONFIG)
        out["fuzz corpus %s" % name] = hz.fuzz_triple(
            root.conclusion, interp, cfg).to_json()
    for n in QFT_FUZZ_NS:
        interp = qft.qft_interpretation(n)
        for which, script in (("qft", qft.generate_qft(n)[1]),
                              ("qft-perturbed", qft.perturbed_qft_script(n)[1])):
            cfg = hz.RunConfig(**FUZZ_CONFIG)
            out["fuzz %s n=%d" % (which, n)] = hz.fuzz_triple(
                script.conclusion, interp, cfg).to_json()
    return out


@pytest.fixture(scope="module")
def reports():
    return golden_reports()


# empty while the fixture is being written; the coverage test then fails
GOLDEN = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}


def test_fixture_covers_the_same_reports(reports):
    assert sorted(reports) == sorted(GOLDEN)


@pytest.mark.parametrize("name", list(GOLDEN))
def test_report_is_byte_identical(reports, name):
    assert _dump(reports[name]) == _dump(GOLDEN[name])


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(golden_reports(), indent=1, sort_keys=True)
                       + "\n")
