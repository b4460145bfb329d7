"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import midconv  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from midconv.exactalg import Matrix  # noqa: E402


def _input_digest(wl, pool) -> str:
    h = hashlib.sha256()
    for item in pool:
        h.update(wl.input_document(item))
    return h.hexdigest()


@pytest.fixture
def small(monkeypatch):
    """Shrink pools and prefixes so each workload runs in about a second."""
    for cls, pool, prefix in (
        (workloads.Oracle, 4, 3),
        (workloads.Reduce, 2, 2),
        (workloads.Bigcoef, 4, 4),
    ):
        monkeypatch.setattr(cls, "pool_size", pool)
        monkeypatch.setattr(cls, "prefix_ops", prefix)
    monkeypatch.setattr(workloads.Cli, "variants", 1)
    monkeypatch.setattr(workloads.Cli, "pool_size", len(workloads.CLI_COMMANDS))
    monkeypatch.setattr(workloads.Cli, "prefix_ops", 2)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "IMPORT_PROBES", 1)


def _main(*argv) -> tuple[list[str], dict]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert run.main(list(argv)) == 0
    lines = buf.getvalue().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("name", workloads.NAMES)
def test_a_seed_gives_identical_inputs(small, tmp_path, name):
    wl = workloads.make(name, run.ROOT, tmp_path / "cli")
    first = _input_digest(wl, wl.setup(workloads.rng_for(name, 7)))
    again = _input_digest(wl, wl.setup(workloads.rng_for(name, 7)))
    other = _input_digest(wl, wl.setup(workloads.rng_for(name, 8)))
    assert first == again
    assert first != other


@pytest.mark.parametrize("name", ("bigcoef", "cli"))
def test_traced_and_untraced_runs_agree(small, name):
    lines, plain = _main("--workload", name, "--seed", "3", "--seconds", "0", "--trace", "0")
    digest = next(l.split()[1] for l in lines if l.startswith("result_sha256"))
    lines, traced = _main("--workload", name, "--seed", "3", "--seconds", "0", "--trace", "1")
    both = next(l.split() for l in lines if l.startswith("result_sha256"))
    assert both[2] == both[4] == digest
    assert plain["correct"] and traced["correct"]
    assert set(plain["metrics"]) == {
        "ops_per_s", "op_p50_s", "op_p90_s", "verified_ratio", "setup_s", "peak_rss_mb"
    }
    assert "trace.overhead_ratio" in traced["metrics"]


def test_wrappers_are_removed_after_a_traced_run(small):
    originals = {
        name: getattr(sys.modules[mod], attr) for name, (mod, attr) in tracing.TRACED.items()
    }
    mul = Matrix.__dict__["__mul__"]
    _, result = _main("--workload", "bigcoef", "--seed", "1", "--seconds", "0", "--trace", "1")
    assert result["correct"]
    assert result["metrics"]["functors.mc.calls"]["value"] > 0
    assert result["metrics"]["exactalg.matmul.calls"]["value"] > 0
    assert result["metrics"]["systems.is_irreducible.calls"]["value"] == 0
    assert tracing.wrapped_names() == []
    assert Matrix.__dict__["__mul__"] is mul
    for name, (mod, attr) in tracing.TRACED.items():
        assert getattr(sys.modules[mod], attr) is originals[name]
    assert midconv.mc is originals["functors.mc"]


def test_wrappers_are_removed_when_the_run_raises():
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert tracing.wrapped_names()
            raise RuntimeError("boom")
    assert tracing.wrapped_names() == []


def test_a_wrong_result_is_counted_as_failed(small, monkeypatch, capsys):
    wl = workloads.Oracle()
    pool = wl.setup(workloads.rng_for("oracle", 5))
    real_run = workloads.Oracle.run

    def wrong_witness(self, item):
        # off the line of scalar multiples of the true witness, which an
        # irreducible pair's intertwiners all lie on
        a, b, irreducible, f = real_run(self, item)
        n = f.rows
        bump = Matrix(n, n, [midconv.gr(1 if k == 1 else 0) for k in range(n * n)])
        return a, b, irreducible, f + bump

    monkeypatch.setattr(workloads.Oracle, "run", wrong_witness)
    tally = run.timed_pass(wl, pool, 0.0, min_ops=3)
    assert (tally.attempted, tally.verified, tally.failed) == (3, 0, 3)

    def raises(self, item):
        raise ValueError("deliberate")

    monkeypatch.setattr(workloads.Oracle, "run", raises)
    tally = run.timed_pass(wl, pool, 0.0, min_ops=2)
    assert (tally.attempted, tally.failed) == (2, 2)
    assert "deliberate" in capsys.readouterr().err


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    tracer.spans = [
        ("functors.mc", 0, -1, 0.0, 1.0),
        ("functors.hd", 0, 0, 0.1, 0.4),
        ("exactalg.matmul", 0, 1, 0.2, 0.3),
    ]
    s = tracer.summary()
    assert s["calls"]["functors.mc"] == 1
    assert s["self_s"]["functors.mc"] == pytest.approx(0.7)
    assert s["self_s"]["functors.hd"] == pytest.approx(0.2)
    assert s["self_s"]["exactalg.matmul"] == pytest.approx(0.1)


def test_each_time_is_scaled_by_the_probes_nearest_it():
    speed = run.SpeedProbe()
    ref = run.PROBE_REFERENCE_S
    # the host runs at half speed for the first ten seconds
    speed.samples = [(float(t), ref * (2 if t < 10 else 1)) for t in range(20)]
    speed.samples.append((5.0, 1.0))  # a probe that lost the processor
    assert speed.scale_at(2.0) == pytest.approx(0.5)
    assert speed.scale_at(17.0) == pytest.approx(1.0)
    assert speed.scaled([(1.0, 0.4), (15.0, 0.4)]) == pytest.approx([0.2, 0.4])
