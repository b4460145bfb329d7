"""In-memory span tracing of midconv's public functions, from outside.

``Tracer.installed()`` rebinds each function in ``TRACED`` at every place a
midconv module binds it (the defining module, the package namespace and
each ``from .x import f`` name) and wraps ``Matrix.__mul__`` on the class.
Leaving the block restores the originals.  Scalar ``GaussianRational``
arithmetic is never wrapped.

A span is (name, op id, parent span index, start, end).  Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

# span name -> (defining module, attribute)
TRACED = {
    "systems.is_irreducible": ("midconv.systems", "is_irreducible"),
    "systems.equivalent": ("midconv.systems", "equivalent"),
    "exactalg.kernel_basis": ("midconv.exactalg", "kernel_basis"),
    "exactalg.quotient_projection": ("midconv.exactalg", "quotient_projection"),
    "exactalg.generalized_eigendecomposition": ("midconv.exactalg", "generalized_eigendecomposition"),
    "exactalg.char_eigenvalues": ("midconv.exactalg", "char_eigenvalues"),
    "exactalg.char_poly": ("midconv.exactalg", "char_poly"),
    "exactalg.rank": ("midconv.exactalg", "rank"),
    "exactalg.solve": ("midconv.exactalg", "solve"),
    "exactalg.invert": ("midconv.exactalg", "invert"),
    "normalform.select_alpha": ("midconv.normalform", "select_alpha"),
    "normalform.compute_normal_form": ("midconv.normalform", "compute_normal_form"),
    "normalform.hat_kernel_dim": ("midconv.normalform", "hat_kernel_dim"),
    "rigidity.katz_reduce": ("midconv.rigidity", "katz_reduce"),
    "rigidity.katz_step": ("midconv.rigidity", "katz_step"),
    "datum.canonical": ("midconv.datum", "canonical"),
    "datum.psi": ("midconv.datum", "psi"),
    "functors.mc": ("midconv.functors", "mc"),
    "functors.hd": ("midconv.functors", "hd"),
    "functors.dr_middle_convolution": ("midconv.functors", "dr_middle_convolution"),
    "documents.parse_document": ("midconv.documents", "parse_document"),
    "documents.dumps_canonical": ("midconv.documents", "dumps_canonical"),
    "cli.main": ("midconv.cli", "main"),
}
MATMUL = "exactalg.matmul"
SPAN_NAMES = tuple(TRACED) + (MATMUL,)
# spans whose first argument's cell count (rows * cols) is summed
CELL_SPANS = ("exactalg.kernel_basis", "exactalg.quotient_projection")
# exactalg spans whose results feed result_bits_max
BITS_SPANS = (
    MATMUL,
    "exactalg.kernel_basis",
    "exactalg.quotient_projection",
    "exactalg.char_poly",
    "exactalg.solve",
    "exactalg.invert",
)


def _midconv_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "midconv" or n.startswith("midconv.")]


def _scalar_bits(x) -> int:
    return max(abs(x.p).bit_length(), abs(x.q).bit_length(), x.r.bit_length())


def _result_bits(value) -> int:
    """Largest numerator or denominator bit length in a result made of
    matrices, scalars and tuples or lists of them."""
    if value is None:
        return 0
    if isinstance(value, (list, tuple)):
        return max((_result_bits(v) for v in value), default=0)
    entries = getattr(value, "_e", None)
    if entries is not None:
        return max((_scalar_bits(x) for x in entries), default=0)
    if hasattr(value, "r"):
        return _scalar_bits(value)
    return 0


def wrapped_names() -> list[str]:
    """Every place a tracer wrapper is still bound (empty after a run)."""
    from midconv.exactalg import Matrix

    found = [
        f"{mod.__name__}.{key}"
        for mod in _midconv_modules()
        for key, val in vars(mod).items()
        if hasattr(val, "__bench_span__")
    ]
    if hasattr(Matrix.__dict__["__mul__"], "__bench_span__"):
        found.append("midconv.exactalg.Matrix.__mul__")
    return found


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = -1
        self.active = False
        self._stack: list[int] = []
        self._patches: list = []
        self.cells = defaultdict(int)
        self.bits_max = 0
        # is_irreducible inputs per operation, held so ids stay unique
        self._irreducible_args: dict[int, list] = defaultdict(list)

    # -- installation ----------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        count_cells = name in CELL_SPANS
        count_bits = name in BITS_SPANS
        irreducible = name == "systems.is_irreducible"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[index] = (name, tracer.op, parent, start, end)
            if count_cells:
                tracer.cells[name] += args[0].rows * args[0].cols
            if count_bits:
                tracer.bits_max = max(tracer.bits_max, _result_bits(result))
            if irreducible:
                tracer._irreducible_args[tracer.op].append(args[0])
            return result

        wrapper.__bench_span__ = name
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        import midconv.cli  # noqa: F401  - bind every module that can hold a name
        import midconv.documents  # noqa: F401
        from midconv.exactalg import Matrix

        try:
            modules = _midconv_modules()
            for name, (module_name, attr) in TRACED.items():
                original = getattr(sys.modules[module_name], attr)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is original:
                            self._patches.append((mod, key, original))
                            setattr(mod, key, wrapper)
            original_mul = Matrix.__dict__["__mul__"]
            self._patches.append((Matrix, "__mul__", original_mul))
            Matrix.__mul__ = self._wrap(MATMUL, original_mul)
            yield self
        finally:
            for obj, key, original in reversed(self._patches):
                setattr(obj, key, original)
            self._patches.clear()
            self.active = False

    @contextlib.contextmanager
    def operation(self, op_id: int):
        """Trace the calls made inside the block as operation op_id."""
        self.op = op_id
        self.active = True
        try:
            yield
        finally:
            self.active = False

    # -- results ---------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls and self seconds; plus cell counts, the
        largest result bit length and the distinct-input ratio."""
        child = [0.0] * len(self.spans)
        for name, op, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        for i, (name, op, parent, start, end) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
        irr_calls = sum(len(v) for v in self._irreducible_args.values())
        irr_distinct = sum(len({id(s) for s in v}) for v in self._irreducible_args.values())
        return {
            "calls": calls,
            "self_s": self_s,
            "cells": dict(self.cells),
            "bits_max": self.bits_max,
            "irreducible_distinct_ratio": irr_distinct / irr_calls if irr_calls else 0.0,
        }

    def write(self, path) -> None:
        """One JSON array per span: index, name, op, parent, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps([i, *span]) + "\n")
