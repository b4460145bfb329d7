"""midconv benchmark: seeded workloads against the public API.

    python3 bench/run.py --workload oracle --seed 1 --seconds 20 --trace 0

Load is a closed loop with one client: the next operation starts when the
previous one has returned, in this one process (``cli`` runs one child
process at a time).  Every result is checked exactly outside the timed
region.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the input and result digests, the failure count and the metrics
before scaling to reference speed (see PROBE_REFERENCE_S).

``--trace 0`` runs operations until ``--seconds`` of operation time have
passed and at least MIN_OPS are done, and reports the end-to-end metrics.  ``--trace 1`` runs each of the
first ``prefix_ops`` operations untraced and then traced, and reports the
per-layer metrics; the spans are written to
``.bench_out/spans-<workload>-<seed>.jsonl``.  Both modes hash the
canonical documents of the first ``prefix_ops`` results, so the digests of
a traced and an untraced run of one seed must agree.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
IMPORT_PROBES = 7
# a timed run lasts at least this many operations, so that at least ten
# latency samples lie beyond the 90th percentile
MIN_OPS = 110
# The host's speed drifts by tens of percent within seconds and over
# minutes (a fixed pure-Python loop varies as much as midconv does), so
# end-to-end times are scaled to a reference speed: every PROBE_INTERVAL_S a
# fixed probe that runs no midconv code is timed, and each measured time is
# multiplied by PROBE_REFERENCE_S over the mean of the PROBE_NEIGHBOURS
# probes nearest to it.  PROBE_REFERENCE_S is the probe's mean on the
# 2-vCPU host that recorded BASELINE.json; it never changes.
PROBE_INTERVAL_S = 0.5
PROBE_NEIGHBOURS = 7
PROBE_REFERENCE_S = 0.0130


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("oracle", "reduce", "bigcoef", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_midconv() -> float:
    """Import midconv from this checkout's src/ and return the time taken."""
    src = ROOT / "src"
    if not (src / "midconv" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no midconv package under {src}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import midconv

    elapsed = time.perf_counter() - start
    if Path(midconv.__file__).resolve().parent != (src / "midconv").resolve():
        raise SystemExit(f"benchmark: imported midconv from {midconv.__file__}, not {src}")
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    return elapsed


def probe() -> float:
    """Time a fixed big-integer gcd loop."""
    a, b, c = 0x9F3B2C1D5E6F7A8B9C0D1E2F3A4B5C6D, 0xFEDCBA9876543210FEDCBA98, 0x123456789ABCDEF0123456789
    start = time.perf_counter()
    for i in range(10_000):
        math.gcd(a * (b + i), c + i)
    return time.perf_counter() - start


class SpeedProbe:
    """Probe times, with when each was taken, at most every
    PROBE_INTERVAL_S through a run."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._last = -math.inf

    def maybe(self) -> None:
        now = time.perf_counter()
        if now - self._last >= PROBE_INTERVAL_S:
            self.samples.append((now, probe()))
            self._last = time.perf_counter()

    def scale_at(self, t: float) -> float:
        """Reference seconds per second of this run around time t: the
        reference over the mean of the probes nearest t, without their
        fastest and slowest (a probe that lost the processor)."""
        near = sorted(self.samples, key=lambda s: abs(s[0] - t))[:PROBE_NEIGHBOURS]
        xs = sorted(d for _, d in near)
        return PROBE_REFERENCE_S / statistics.fmean(xs[1:-1] if len(xs) > 2 else xs)

    def scaled(self, spans) -> list[float]:
        """Durations of (start, duration) spans in reference seconds."""
        return [d * self.scale_at(start + d / 2) for start, d in spans]


class Tally:
    """Latencies, verdicts and the result digest of one pass."""

    def __init__(self, prefix_ops: int):
        self.prefix_ops = prefix_ops
        self.latencies: list[float] = []
        self.starts: list[float] = []
        self.verified = 0
        self.failed = 0
        self.digest = hashlib.sha256()
        self.memo: dict = {}

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def busy(self) -> float:
        return sum(self.latencies)


def _report_failure(what: str, k: int) -> None:
    print(f"operation {k}: {what} failed", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def run_op(wl, pool, k: int, tally: Tally, tracer=None) -> None:
    """Operation k: prepare (untimed), run (timed), check (untimed)."""
    idx = k % len(pool)
    item = wl.prepare(pool[idx])
    tracing_run = tracer is not None and not wl.runs_in_child
    traced = tracer.operation(k) if tracing_run else contextlib.nullcontext()
    result = None
    ok = True
    with traced:
        start = time.perf_counter()
        try:
            result = wl.run(item)
        except Exception:  # a failed operation is counted, never retried
            elapsed = time.perf_counter() - start
            ok = False
            _report_failure("run", k)
        else:
            elapsed = time.perf_counter() - start
    tally.latencies.append(elapsed)
    tally.starts.append(start)
    if ok and (idx not in tally.memo or tally.memo[idx] != result):
        tracing_check = tracer is not None and wl.runs_in_child
        checking = tracer.operation(k) if tracing_check else contextlib.nullcontext()
        try:
            with checking:
                ok = wl.check(item, result)
        except Exception:
            ok = False
            _report_failure("check", k)
        if ok:
            tally.memo[idx] = result
    if ok:
        tally.verified += 1
    else:
        tally.failed += 1
    if k < tally.prefix_ops:
        tally.digest.update(wl.document(result) if ok else b"failed\n")


def timed_pass(wl, pool, seconds: float, min_ops: int, speed=None) -> Tally:
    """Operations until both ``seconds`` of operation time and ``min_ops``
    operations are done, probing the host's speed between them."""
    tally = Tally(wl.prefix_ops)
    while tally.busy < seconds or tally.attempted < min_ops:
        if speed is not None:
            speed.maybe()
        run_op(wl, pool, tally.attempted, tally)
    return tally


def set_up(wl, seed: int, speed: SpeedProbe):
    """Build and certify the pool SETUP_REPEATS times, warm up once each.
    Returns the pool, the (start, duration) of each build and the input
    digest."""
    from workloads import rng_for

    times, digests = [], []
    pool = None
    for _ in range(SETUP_REPEATS):
        speed.maybe()
        start = time.perf_counter()
        pool = wl.setup(rng_for(wl.name, seed))
        wl.run(wl.prepare(pool[0]))
        times.append((start, time.perf_counter() - start))
        h = hashlib.sha256()
        for item in pool:
            h.update(wl.input_document(item))
        digests.append(h.hexdigest())
    if len(set(digests)) != 1:
        raise RuntimeError(f"one seed gave different inputs: {digests}")
    return pool, times, digests[0]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def end_to_end(latencies: list[float], verified: int, setup_s: float, rss_mb: float) -> dict:
    return {
        "ops_per_s": {"value": verified / sum(latencies), "unit": "1/s"},
        "op_p50_s": {"value": statistics.median(latencies), "unit": "s"},
        "op_p90_s": {"value": statistics.quantiles(latencies, n=10)[8], "unit": "s"},
        "verified_ratio": {"value": verified / len(latencies), "unit": "ratio"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def cli_import_s() -> float:
    """Median child time of ``import midconv`` minus that of a bare
    interpreter, alternating the two probes."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    bare, loaded = [], []
    for _ in range(IMPORT_PROBES):
        for code, out in (("pass", bare), ("import midconv", loaded)):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            out.append(time.perf_counter() - start)
    return statistics.median(loaded) - statistics.median(bare)


def src_lines() -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((ROOT / "src" / "midconv").glob("*.py"))
    )


def per_layer(summary: dict, plain: Tally, traced: Tally, import_s: float) -> dict:
    from tracing import SPAN_NAMES

    calls, self_s = summary["calls"], summary["self_s"]
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (self_s[name], "s")
    for name in ("exactalg.kernel_basis", "exactalg.quotient_projection"):
        metrics[f"{name}.cells"] = (summary["cells"].get(name, 0), "count")
    reduces = calls["rigidity.katz_reduce"]
    untraced_rate = plain.verified / plain.busy
    traced_rate = traced.verified / traced.busy
    systems_self = self_s["systems.is_irreducible"] + self_s["systems.equivalent"]
    metrics.update(
        {
            "exactalg.result_bits_max": (summary["bits_max"], "bits"),
            "systems.is_irreducible.distinct_ratio": (summary["irreducible_distinct_ratio"], "ratio"),
            "systems.self_share": (systems_self / traced.busy, "ratio"),
            "rigidity.steps_per_reduce": (
                calls["rigidity.katz_step"] / reduces if reduces else 0.0,
                "count",
            ),
            "cli.import_s": (import_s, "s"),
            "trace.untraced_ops_per_s": (untraced_rate, "1/s"),
            "trace.traced_ops_per_s": (traced_rate, "1/s"),
            "trace.overhead_ratio": (untraced_rate / traced_rate - 1.0, "ratio"),
            "src_lines": (src_lines(), "lines"),
        }
    )
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:>16.6g} {m['unit']}")
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_midconv()
    imported_at = time.perf_counter()
    import workloads

    out_dir = ROOT / ".bench_out"
    wl = workloads.make(args.workload, ROOT, out_dir / f"cli-{args.seed}-{os.getpid()}")
    speed = SpeedProbe()
    try:
        pool, setup_spans, input_digest = set_up(wl, args.seed, speed)
        print(f"workload {wl.name} seed {args.seed} trace {args.trace}: closed loop, one client")
        print(f"setup_s import {import_s:.4f} + median of {[round(d, 4) for _, d in setup_spans]}")
        print(f"input_sha256 {input_digest} ({len(pool)} inputs)")
        if args.trace:
            return traced_run(wl, pool, args, out_dir)
        tally = timed_pass(wl, pool, args.seconds, max(MIN_OPS, wl.prefix_ops), speed)
        speed.maybe()
    finally:
        wl.cleanup()
    lat = tally.latencies
    beyond = sum(1 for x in lat if x > statistics.quantiles(lat, n=10)[8])
    print(f"result_sha256 {tally.digest.hexdigest()} (first {wl.prefix_ops} results)")
    print(
        f"ops {tally.attempted} verified {tally.verified} failed {tally.failed} "
        f"failed_ratio {tally.failed / tally.attempted:.6g} samples_beyond_p90 {beyond} "
        f"busy_s {tally.busy:.3f}"
    )
    rss_mb = peak_rss_mb(children=wl.runs_in_child)
    unscaled = end_to_end(
        lat, tally.verified, import_s + statistics.median(d for _, d in setup_spans), rss_mb
    )
    print(f"speed probes {len(speed.samples)}; unscaled:")
    for name, m in unscaled.items():
        print(f"  {name:42s} {m['value']:>16.6g} {m['unit']}")
    setup_s = import_s * speed.scale_at(imported_at) + statistics.median(speed.scaled(setup_spans))
    scaled = speed.scaled(zip(tally.starts, lat))
    metrics = end_to_end(scaled, tally.verified, setup_s, rss_mb)
    emit(tally.failed == 0, tally.attempted, tally.failed, metrics)
    return 0


def traced_run(wl, pool, args, out_dir: Path) -> int:
    from tracing import Tracer, wrapped_names

    # each operation runs untraced, then traced, so that drift in machine
    # speed falls on both sides of the overhead ratio alike
    plain, traced = Tally(wl.prefix_ops), Tally(wl.prefix_ops)
    tracer = Tracer()
    for k in range(wl.prefix_ops):
        run_op(wl, pool, k, plain)
        with tracer.installed():
            run_op(wl, pool, k, traced, tracer)
    leftover = wrapped_names()
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{wl.name}-{args.seed}.jsonl"
    tracer.write(spans_path)
    same = plain.digest.hexdigest() == traced.digest.hexdigest()
    print(f"result_sha256 untraced {plain.digest.hexdigest()} traced {traced.digest.hexdigest()}")
    print(f"spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    if leftover:
        print(f"wrappers left bound: {leftover}", file=sys.stderr)
    metrics = per_layer(tracer.summary(), plain, traced, cli_import_s())
    failed = plain.failed + traced.failed
    emit(
        failed == 0 and same and not leftover,
        plain.attempted + traced.attempted,
        failed,
        metrics,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
