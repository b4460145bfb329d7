"""The CI workflow file parses as YAML, and its pinned-digest step checks
every benchmark workload.

A workflow that does not parse shows up on GitHub as a workflow error, never
as a failed run, so nothing else would catch it.  Skipped where PyYAML is
not installed.
"""

import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
DIGEST_STEP = "Benchmark results match the pinned digests at seed 101"


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
