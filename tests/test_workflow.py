"""The CI workflow file parses as YAML, its pinned-digest step checks every
benchmark workload under two hash seeds, and its smoke test runs the goldens
on the installed package.

A workflow that does not parse shows up on GitHub as a workflow error, never
as a failed run, so nothing else would catch it.  Skipped where PyYAML is
not installed.
"""

import importlib
import re
import subprocess
from pathlib import Path

import pytest

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
    digests = [line.split() for line in pinned.splitlines()]
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    workloads = importlib.import_module("workloads")
    assert sorted(line.split()[0] for line in pinned.splitlines()) == sorted(workloads.NAMES)


def test_pinned_digests_are_checked_under_two_hash_seeds(tmp_path):
    # a digest that depends on set or dict order then fails under a named seed
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    script = {step.get("name"): step for step in workflow["jobs"]["tests"]["steps"]}[DIGEST_STEP]["run"]
    assert re.findall(r"^\s*for hashseed in ([0-9 ]+); do$", script, re.M) == ["0 12345"]
    runs = [line for line in script.splitlines() if "bench/run.py" in line]
    assert runs and all("$(PYTHONHASHSEED=$hashseed python3 bench/run.py " in line for line in runs)
    # the digest covers only the first results: the step also fails on a last
    # line that reports a wrong or failed operation later on
    pinned = script.split("<<'DIGESTS'\n", 1)[1].split("\nDIGESTS", 1)[0]
    digests = [line.split() for line in pinned.splitlines()]
    cases = {
        '{"correct": true, "attempted": 304, "failed": 0, "metrics": {}}': 0,
        '{"correct": false, "attempted": 304, "failed": 1, "metrics": {}}': 1,
        '{"correct": false, "attempted": 304, "failed": 0, "metrics": {}}': 1,
        '{"correct": true, "attempted": 304, "failed": 2, "metrics": {}}': 1,
    }
    for last, status in cases.items():
        fake = tmp_path / "run.sh"
        # "$2" is the workload, as in "run.py --workload W ..."
        fake.write_text(
            "".join(f'[ "$2" != {w} ] || echo "result_sha256 {d} (first 16 results)"\n' for w, d in digests)
            + f"echo '{last}'\n"
        )
        step = script.replace("python3 bench/run.py", f"sh {fake}")
        assert subprocess.run(["bash", "-e", "-c", step], capture_output=True).returncode == status, last


def test_console_script_smoke_test_diffs_against_existing_goldens(pytestconfig):
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    job = workflow["jobs"]["tests"]
    step = {step.get("name"): step for step in job["steps"]}[SMOKE_STEP]
    lines = step["run"].splitlines()
    # install, run every golden with nothing putting src or a root-level midconv
    # on the path, then "midconv COMMAND INPUT | diff - GOLDEN" (COMMAND__STEM.json)
    assert not any("PYTHONPATH" in str(scope.get("env", "")) for scope in (workflow, job, step))
    assert not pytestconfig.getini("pythonpath") and not (ROOT / "midconv").exists()
    assert 3 <= len(lines) <= 6
    assert lines[:2] == ["python -m pip install .", "python -m pytest -q tests/test_golden.py"]
    for run in map(str.split, lines[2:]):
        assert run[0] == "midconv" and run[-4:-1] == ["|", "diff", "-"]
        assert (ROOT / run[-1]).is_file() and Path(run[-1]).name == f"{run[1]}__{Path(run[2]).stem}.json"
