"""Golden CLI outputs: stdout of fixture runs must match committed bytes.

Each file under tests/golden/ is the stdout of one accepted (exit 0)
command line on a fixture.  A mismatch means the program's output moved,
not that the file needs regenerating.
"""

from pathlib import Path

import pytest

from midconv.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
FIXTURES = ("alpha-simple", "rank1-irregular", "rigid-triple")
SINGLE_POLE = ("alpha-simple", "rank1-irregular")

COMMANDS = {
    "canon": ((), FIXTURES),
    "hd": ((), FIXTURES),
    "mc": (("--alpha", "fixtures/alpha-simple.sys"), FIXTURES),
    "normal-form": ((), SINGLE_POLE),
    "stab-dim": ((), SINGLE_POLE),
    "select-alpha": ((), SINGLE_POLE),
    "orbit-dim": ((), FIXTURES),
    "rigidity": ((), ("rigid-triple",)),
    "katz-reduce": ((), ("rigid-triple",)),
    "irred": ((), FIXTURES),
    "check": ((), FIXTURES),
}

CASES = [
    (command, fixture, extra)
    for command, (extra, fixtures) in COMMANDS.items()
    for fixture in fixtures
]


def golden_path(command: str, fixture: str) -> Path:
    return GOLDEN / f"{command}__{fixture}.json"


@pytest.mark.parametrize(
    "command,fixture,extra", CASES, ids=[f"{c}-{f}" for c, f, _ in CASES]
)
def test_golden_stdout(capsysbinary, monkeypatch, command, fixture, extra):
    monkeypatch.chdir(ROOT)
    assert main([command, f"fixtures/{fixture}.sys", *extra]) == 0
    assert capsysbinary.readouterr().out == golden_path(command, fixture).read_bytes()


def test_every_golden_file_is_checked():
    on_disk = {p.name for p in GOLDEN.glob("*.json")}
    assert on_disk == {golden_path(c, f).name for c, f, _ in CASES}
