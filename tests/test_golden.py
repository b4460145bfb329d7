"""Golden CLI outputs: stdout of fixture runs must match committed bytes.

Each file under tests/golden/ is the stdout of one command line on a
fixture or on an input document under tests/golden/inputs/, together with
its expected exit status.  A mismatch means the program's output moved,
not that the file needs regenerating.
"""

import json
from pathlib import Path

import pytest

from midconv import cli
from midconv.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def fixture(name: str) -> str:
    return f"fixtures/{name}.sys"


def given(name: str) -> str:
    return f"tests/golden/inputs/{name}"


FIXTURES = tuple(fixture(n) for n in ("alpha-simple", "rank1-irregular", "rigid-triple"))
SINGLE_POLE = FIXTURES[:2]
RIGID = FIXTURES[2:]
DATA = (given("rank1-irregular.datum"), given("rigid-triple.datum"))
ALPHA = ("--alpha", fixture("alpha-simple"))

# command -> (extra arguments, input files); each run exits 0 and its golden
# file is named after the command and the input's stem
COMMANDS = {
    "canon": ((), FIXTURES),
    "phi": ((), DATA),
    "hd": ((), FIXTURES),
    "add": (ALPHA, FIXTURES),
    "mc": (ALPHA, FIXTURES),
    "dr": (("--lambda", "1"), (fixture("alpha-simple"), *RIGID)),
    "stable": ((), DATA),
    "normal-form": ((), SINGLE_POLE),
    "stab-dim": ((), SINGLE_POLE),
    "select-alpha": ((), SINGLE_POLE),
    "orbit-dim": ((), FIXTURES),
    "rigidity": ((), RIGID),
    "katz-step": (ALPHA, RIGID),
    "katz-reduce": ((), RIGID),
    "irred": ((), FIXTURES),
    "equiv": ((given("rigid-triple-conjugate.sys"),), RIGID),
    "okubo": ((), (given("rank2.okubo"),)),
    "check": ((), FIXTURES),
}

THREE_LEVEL = (given("three-level.sys"), "--point", "0")

# golden name -> (argv, exit status): an inequivalent pair, error reports and
# runs at a chosen pole
RUNS = {
    "equiv__inequivalent": (("equiv", fixture("alpha-simple"), fixture("rank1-irregular")), 0),
    "mc__pole-mismatch": (("mc", fixture("rank1-irregular"), "--alpha", given("alpha-at-5.sys")), 1),
    "phi__system-document": (("phi", fixture("rigid-triple")), 1),
    "okubo__system-document": (("okubo", fixture("rigid-triple")), 1),
    "dr__not-fuchsian": (("dr", "--lambda", "1", fixture("rank1-irregular")), 1),
    "equiv__different-rank": (("equiv", fixture("alpha-simple"), fixture("rigid-triple")), 1),
    # nested splits: the three-level model of test_normalform, gauged at 0
    # by a degree-2 gauge element; pins the residue matrices byte for byte
    "normal-form__three-level": (("normal-form", *THREE_LEVEL), 0),
    "select-alpha__three-level": (("select-alpha", *THREE_LEVEL), 0),
    "stab-dim__three-level": (("stab-dim", *THREE_LEVEL), 0),
    # the kernel-modes cross-check of the invariant suite on a nested split
    "check__three-level": (("check", given("three-level.sys")), 0),
    # a rigid triple whose residue at 0 has eigenvalues +-sqrt(2): the zero
    # candidate is selected there, and the reduction names the pole
    "select-alpha__sqrt2-triple": (("select-alpha", given("sqrt2-triple.sys"), "--point", "0"), 0),
    "katz-reduce__sqrt2-triple": (("katz-reduce", given("sqrt2-triple.sys")), 1),
    # a rigid pair whose pole of order 2 at 0 has leading coefficient with
    # eigenvalues +-sqrt(2): no normal form exists there
    "select-alpha__sqrt2-irregular": (("select-alpha", given("sqrt2-irregular.sys"), "--point", "0"), 1),
    "katz-reduce__sqrt2-irregular": (("katz-reduce", given("sqrt2-irregular.sys")), 1),
    # a leading coefficient J2 at 0 is not semisimple: the normal form
    # fails, and its error names the pole
    "normal-form__nilpotent-lead": (("normal-form", given("nilpotent-lead.sys")), 1),
    "select-alpha__nilpotent-lead": (("select-alpha", given("nilpotent-lead.sys")), 1),
    # irreducible although its residue at 0 has no eigenvalue in Q(i), and a
    # conjugated block-upper-triangular triple with an invariant plane
    "irred__sqrt2-triple": (("irred", given("sqrt2-triple.sys")), 0),
    # no Jordan data over Q(i) at 0: the stabilizer dimension there comes
    # from the linear mode, and check skips the Katz inequality, which an
    # alpha outside Q(i) could decide
    "stab-dim__sqrt2-triple": (("stab-dim", given("sqrt2-triple.sys"), "--point", "0"), 0),
    "orbit-dim__sqrt2-triple": (("orbit-dim", given("sqrt2-triple.sys")), 0),
    "check__sqrt2-triple": (("check", given("sqrt2-triple.sys")), 0),
    "irred__reducible-triple": (("irred", given("reducible-triple.sys")), 0),
    # the rigid-triple datum with its Q and P entries multiplied by 10^2500 + 3:
    # its realized system has integers of more than 4300 digits, which the
    # documents layer refuses to write on every Python version
    "phi__oversized-triple": (("phi", given("oversized-triple.datum")), 1),
}

CASES = [
    (f"{command}__{Path(path).stem}", (command, path, *extra), 0)
    for command, (extra, paths) in COMMANDS.items()
    for path in paths
] + [(name, argv, status) for name, (argv, status) in RUNS.items()]


def golden_path(name: str) -> Path:
    return GOLDEN / f"{name}.json"


@pytest.mark.parametrize(
    "name,argv,status", CASES, ids=[name.replace("__", "-") for name, _, _ in CASES]
)
def test_golden_stdout(capsysbinary, monkeypatch, name, argv, status):
    monkeypatch.chdir(ROOT)
    assert main(list(argv)) == status
    assert capsysbinary.readouterr().out == golden_path(name).read_bytes()


def test_every_golden_file_is_checked():
    on_disk = {p.name for p in GOLDEN.glob("*.json")}
    assert on_disk == {golden_path(name).name for name, _, _ in CASES}
    assert len(CASES) == len(on_disk)


def test_every_command_has_a_golden_run():
    assert {argv[0] for _, argv, _ in CASES} == set(cli.COMMANDS)


def report_shape(report: dict) -> list:
    """The report's keys, with the error's keys nested under "error"."""
    return [[k, list(v)] if k == "error" else k for k, v in report.items()]


def test_every_golden_is_a_command_and_its_result_or_error():
    shapes = {p.stem: report_shape(json.loads(p.read_text())) for p in GOLDEN.glob("*.json")}
    allowed = (["command", "result"], ["command", ["error", ["type", "message"]]])
    assert {name: shape for name, shape in shapes.items() if shape not in allowed} == {}
