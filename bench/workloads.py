"""The benchmark workloads: seeded set-up, one timed operation, an exact
check per operation and the canonical bytes of each result.

A workload's ``setup`` builds and certifies its input pool; ``run`` is the
timed operation on one input; ``check`` decides, outside the timed region,
whether a result is exactly right; ``document`` gives the canonical bytes
that feed the result digest.  Inputs reach ``run`` as fresh ``System``
instances, so nothing a library cache keeps on an instance carries over
from one operation to the next.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import midconv as M
import midconv.cli  # noqa: F401  - M.cli.main for the in-process reference
from midconv.documents import (
    dumps_canonical,
    matrix_to_json,
    serialize_document,
    system_to_document,
    trace_to_document,
)
from midconv.exactalg import Matrix

import gen


class Workload:
    """Defaults shared by the workloads."""

    # An operation that runs in a child process is traced through the
    # in-process call its check makes, and its peak memory is the child's.
    runs_in_child = False

    def cleanup(self):
        pass


def fresh(p):
    """A new System instance equal to p, sharing its immutable matrices."""
    parts = tuple(M.PrincipalPart(part.point, part.coefficients) for part in p.parts)
    return M.System(p.dimension, p.constant, parts, p.declaration)


def _system_bytes(p) -> bytes:
    return dumps_canonical(system_to_document(p)).encode()


def _conjugates(f, a, b) -> bool:
    """f a(z) = b(z) f coefficient by coefficient, with f invertible."""
    finv = M.exactalg.invert(f)
    if finv is None or f * finv != Matrix.identity(f.rows):
        return False
    if f * a.constant != b.constant * f:
        return False
    zero = Matrix.zeros(a.dimension, a.dimension)
    for point in {part.point for part in a.parts} | {part.point for part in b.parts}:
        pa, pb = a.part_at(point), b.part_at(point)
        ca = pa.coefficients if pa else ()
        cb = pb.coefficients if pb else ()
        for k in range(max(len(ca), len(cb))):
            x = ca[k] if k < len(ca) else zero
            y = cb[k] if k < len(cb) else zero
            if f * x != y * f:
                return False
    return True


class Oracle(Workload):
    """mc(p, lam/z) against the two-step construction, decided by
    is_irreducible and equivalent on the two results."""

    name = "oracle"
    pool_size = 128
    prefix_ops = 16

    def setup(self, rng):
        return gen.oracle_pool(rng, self.pool_size)

    def prepare(self, item):
        p, lam = item
        return fresh(p), lam

    def run(self, item):
        p, lam = item
        via_duality = M.mc(p, M.lambda_over_z(lam))
        via_quotients = M.dr_middle_convolution(p, lam)
        irreducible = M.is_irreducible(via_duality)
        witness = M.equivalent(via_duality, via_quotients)
        return via_duality, via_quotients, irreducible, witness

    def check(self, item, result):
        a, b, irreducible, f = result
        return (
            a.dimension == b.dimension
            and irreducible is True
            and f is not None
            and _conjugates(f, a, b)
        )

    def document(self, result):
        a, b, irreducible, f = result
        return (
            _system_bytes(a)
            + _system_bytes(b)
            + dumps_canonical({"irreducible": irreducible, "witness": matrix_to_json(f)}).encode()
        )

    def input_document(self, item):
        p, lam = item
        return _system_bytes(p) + _system_bytes(M.lambda_over_z(lam))


class Reduce(Workload):
    """katz_reduce on rigid pairs of rank 6-7, half of them irregular."""

    name = "reduce"
    pool_size = 16
    prefix_ops = 16

    def setup(self, rng):
        pool = gen.reduce_pool(rng, self.pool_size)
        for p in pool:
            if M.rigidity_index(p) != 0:
                raise RuntimeError("generated pair is not rigid")
        return pool

    def prepare(self, item):
        return fresh(item)

    def run(self, item):
        return M.katz_reduce(item)

    def check(self, item, trace):
        return (
            bool(trace.steps)
            and trace.steps[0].rank_before == item.dimension
            and trace.final_rank == 1
            and all(s.result.dimension == s.rank_after for s in trace.steps)
        )

    def document(self, trace):
        return dumps_canonical(trace_to_document(trace)).encode()

    def input_document(self, item):
        return _system_bytes(item)


class Bigcoef(Workload):
    """mc(p, alpha) on irregular pairs with 64-bit Gaussian-integer
    coefficients; checked by phi(kappa(x)) == x on input and output."""

    name = "bigcoef"
    pool_size = 64
    prefix_ops = 32

    def setup(self, rng):
        return gen.bigcoef_pool(rng, self.pool_size)

    def prepare(self, item):
        p, alpha = item
        return fresh(p), alpha

    def run(self, item):
        p, alpha = item
        return M.mc(p, alpha)

    def check(self, item, out):
        p, _ = item
        return M.phi(M.kappa(p)) == p and M.phi(M.kappa(out)) == out

    def document(self, out):
        return _system_bytes(out)

    def input_document(self, item):
        p, alpha = item
        return _system_bytes(p) + _system_bytes(alpha)


CLI_COMMANDS = ("rigidity", "katz-reduce", "hd", "mc", "canon", "normal-form", "equiv")


class Cli(Workload):
    """One ``python -m midconv.cli`` process per operation, on the
    fixtures and on small seeded documents."""

    name = "cli"
    runs_in_child = True
    variants = 4
    pool_size = len(CLI_COMMANDS) * variants
    prefix_ops = 14

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def _write(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def setup(self, rng):
        """Variant 0 runs the fixtures (equiv always needs a generated
        pair); variants 1.. run seeded documents."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        fixtures = self.root / "fixtures"
        triple = str(fixtures / "rigid-triple.sys")
        irregular = str(fixtures / "rank1-irregular.sys")
        on_fixtures = [
            ["rigidity", triple],
            ["katz-reduce", triple],
            ["hd", irregular],
            ["mc", triple, "--alpha", str(fixtures / "alpha-simple.sys")],
            ["canon", irregular],
            ["normal-form", irregular],
        ]
        pool = []
        for v in range(self.variants):
            p, lam = gen.oracle_input(rng, 2, 6)
            docs = {
                "pair": p,
                "lambda": M.lambda_over_z(lam),
                "rigid": gen.reduce_input(rng, 1, ("ggg", "egg"), (2, 3)),
                "confluent": gen.reduce_input(rng, 2, ("ggg",), (3,)),
                "mc": M.mc(p, M.lambda_over_z(lam)),
                "dr": M.dr_middle_convolution(p, lam),
            }
            path = {k: self._write(f"{k}-{v}.sys", serialize_document(d)) for k, d in docs.items()}
            generated = [
                ["rigidity", path["rigid"]],
                ["katz-reduce", path["rigid"]],
                ["hd", path["pair"]],
                ["mc", path["pair"], "--alpha", path["lambda"]],
                ["canon", path["confluent"]],
                ["normal-form", path["confluent"], "--point", "0"],
                ["equiv", path["mc"], path["dr"]],
            ]
            pool.extend(on_fixtures + generated[-1:] if v == 0 else generated)
        return pool

    def prepare(self, item):
        return item

    def run(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "midconv.cli", *argv],
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            check=False,
        )
        return proc.returncode, proc.stdout

    def in_process(self, argv) -> bytes:
        """stdout of cli.main called in this process."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = M.cli.main(list(argv))
        if status != 0:
            raise RuntimeError(f"in-process cli.main {argv} exited {status}")
        return buf.getvalue().encode()

    def check(self, argv, result):
        status, out = result
        return status == 0 and out == self.in_process(argv)

    def document(self, result):
        return result[1]

    def input_document(self, argv):
        """The command and its file contents: the paths hold the pid."""
        return b"\0".join(Path(a).read_bytes() if a.endswith(".sys") else a.encode() for a in argv)

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def make(name: str, root: Path, workdir: Path):
    if name == "cli":
        return Cli(root, workdir)
    return {"oracle": Oracle, "reduce": Reduce, "bigcoef": Bigcoef}[name]()


NAMES = ("oracle", "reduce", "bigcoef", "cli")


def rng_for(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}/{seed}")
