"""The CI workflow file parses as YAML, its pinned-digest step checks
every benchmark workload, and its console-script smoke test runs every
subcommand and diffs against golden files that exist.

A workflow that does not parse shows up on GitHub as a workflow error, never
as a failed run, so nothing else would catch it.  Skipped where PyYAML is
not installed.
"""

import importlib
from pathlib import Path

import pytest

from midconv import cli

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
DIGEST_STEP = "Benchmark results match the pinned digests at seed 101"
SMOKE_STEP = "Console script smoke test"


def test_workflow_parses_and_pins_every_workload(monkeypatch):
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    steps = {step.get("name"): step for step in workflow["jobs"]["tests"]["steps"]}
    # the step's here-document holds one "workload digest" line per workload
    script = steps[DIGEST_STEP]["run"]
    pinned = script.split("<<'DIGESTS'\n", 1)[1].split("\nDIGESTS", 1)[0]
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    workloads = importlib.import_module("workloads")
    assert sorted(line.split()[0] for line in pinned.splitlines()) == sorted(workloads.NAMES)


def test_console_script_smoke_test_diffs_against_existing_goldens():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    steps = {step.get("name"): step for step in workflow["jobs"]["tests"]["steps"]}
    runs = [line.split() for line in steps[SMOKE_STEP]["run"].splitlines() if line.startswith("midconv ")]
    # each line is "midconv COMMAND INPUT | diff - GOLDEN", GOLDEN named COMMAND__STEM.json;
    # every subcommand is run at least once
    assert {run[1] for run in runs} >= set(cli.COMMANDS)
    for run in runs:
        golden = ROOT / run[-1]
        assert golden.is_file()
        assert golden.name == f"{run[1]}__{Path(run[2]).stem}.json"
