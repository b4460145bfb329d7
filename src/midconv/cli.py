"""Command-line interface.

COMMANDS holds one entry per subcommand: help text, arguments, and a handler
that reads the documents, calls the pure library and returns the result
payload.  The parser is built from the table; main runs the chosen handler
and prints a deterministic JSON report, {command, result} or, on a domain
error, {command, error: {type, message}}.  Exit status: 0 success, 1 domain
error (an unreadable or malformed input file included), 2 usage.
"""

from __future__ import annotations

import argparse
import sys as _sys
from typing import Callable, NamedTuple

from .checks import run_checks
from .datum import is_stable, kappa, phi
from .documents import DOCUMENT_KINDS, datum_to_document, dumps_canonical, matrix_to_json
from .documents import normal_form_to_document, parse_document, parse_scalar_flag
from .documents import system_to_document, trace_to_document
from .errors import DomainError, ValidationError
from .functors import dr_middle_convolution, hd, mc, okubo_to_pair
from .normalform import compute_normal_form, select_alpha, stabilizer_dim
from .rigidity import katz_reduce, katz_step, orbit_dim, rigidity_index
from .systems import add_scalar, equivalent, is_irreducible, scalar_system

__all__ = ["main"]


def _read(path: str, kind: str = "system"):
    """The document in path, which must be of the given kind."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    doc = parse_document(text)
    if not isinstance(doc, DOCUMENT_KINDS[kind].type):
        article = "an" if kind[0] in "aeiou" else "a"
        raise ValidationError(f"{path}: expected {article} {kind} document")
    return doc


def _part(args):
    """The principal part of the input system at --point, or its only one."""
    sys_ = _read(args.file)
    if args.point is None and len(sys_.parts) != 1:
        raise ValidationError("--point is required unless the system has exactly one pole")
    part = sys_.parts[0] if args.point is None else sys_.part_at(parse_scalar_flag(args.point))
    if part is None:
        raise ValidationError(f"no pole at {args.point}")
    return part


def _dr(args) -> dict:
    lam = parse_scalar_flag(args.lam)
    return system_to_document(dr_middle_convolution(_read(args.file), lam))


def _equiv(args) -> dict:
    f = equivalent(_read(args.file1), _read(args.file2))
    if f is None:
        return {"equivalent": False}
    return {"equivalent": True, "witness": matrix_to_json(f)}


def _normal_form(args) -> dict:
    part = _part(args)
    return normal_form_to_document(compute_normal_form(part), part.point)


def _select_alpha(args) -> dict:
    part = _part(args)
    return system_to_document(scalar_system({part.point: select_alpha(compute_normal_form(part))}))


def _rigidity(args) -> dict:
    idx = rigidity_index(_read(args.file))
    return {"rigidity_index": idx, "rigid": idx == 0}


def _check(args) -> dict:
    if args.trials < 1:
        raise ValidationError("--trials must be at least 1")
    results = run_checks(_read(args.file), args.seed, args.trials)
    return {"seed": args.seed, "trials": args.trials, "checks": [r.as_dict() for r in results]}


FILE = (("file", {}),)
ALPHA = FILE + (("--alpha", {"required": True, "metavar": "FILE"}),)
POINT = FILE + (("--point", {"metavar": "T"}),)


class Command(NamedTuple):
    help: str
    args: tuple  # (name or flag, add_argument options) pairs
    run: Callable[[argparse.Namespace], dict]  # parsed arguments -> result payload
    status: Callable[[dict], int] = lambda payload: 0  # result payload -> exit status


COMMANDS = {
    "canon": Command("canonical datum of a system", FILE,
                     lambda a: datum_to_document(kappa(_read(a.file)))),
    "phi": Command("system realized by a datum document", FILE,
                   lambda a: system_to_document(phi(_read(a.file, "datum")))),
    "hd": Command("Harnad dual pair", FILE, lambda a: system_to_document(hd(_read(a.file)))),
    "add": Command("add a rank-1 parameter times the identity", ALPHA,
                   lambda a: system_to_document(add_scalar(_read(a.file), _read(a.alpha)))),
    "mc": Command("middle convolution with a rank-1 parameter", ALPHA,
                  lambda a: system_to_document(mc(_read(a.file), _read(a.alpha)))),
    "dr": Command("classical middle convolution of a Fuchsian pair",
                  FILE + (("--lambda", {"dest": "lam", "required": True, "metavar": "Q"}),), _dr),
    "stable": Command("stability of a datum document", FILE,
                      lambda a: {"stable": is_stable(_read(a.file, "datum"))}),
    "irred": Command("irreducibility of a pair", FILE,
                     lambda a: {"irreducible": is_irreducible(_read(a.file))}),
    "equiv": Command("constant-gauge equivalence of two pairs",
                     (("file1", {}), ("file2", {})), _equiv),
    "normal-form": Command("normal form at a pole", POINT, _normal_form),
    "stab-dim": Command("stabilizer dimension at a pole", POINT,
                        lambda a: {"stabilizer_dimension": stabilizer_dim(_part(a))}),
    "select-alpha": Command("kernel-maximizing scalar part at a pole", POINT, _select_alpha),
    "orbit-dim": Command("dimension of the truncated-gauge orbit", FILE,
                         lambda a: {"orbit_dimension": orbit_dim(_read(a.file))}),
    "rigidity": Command("rigidity index of a pair", FILE, _rigidity),
    "katz-step": Command("one add/convolve/add reduction step", ALPHA,
                         lambda a: system_to_document(katz_step(_read(a.file), _read(a.alpha)))),
    "katz-reduce": Command("iterated reduction to rank one", FILE,
                           lambda a: trace_to_document(katz_reduce(_read(a.file)))),
    "okubo": Command("pair associated with an Okubo-form document", FILE,
                     lambda a: system_to_document(okubo_to_pair(_read(a.file, "okubo")))),
    "check": Command("run the invariant suite against the input",
                     FILE + (("--seed", {"type": int, "default": 0}),
                             ("--trials", {"type": int, "default": 5})),
                     _check, lambda r: 0 if all(c["passed"] for c in r["checks"]) else 1),
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="midconv",
        description="Exact middle convolution, duality, and reduction for linear ODE systems.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag, options in command.args:
            p.add_argument(flag, **options)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    try:
        result = command.run(args)
        report, status = {"result": result}, command.status(result)
    except DomainError as exc:
        report, status = {"error": {"type": type(exc).__name__, "message": str(exc)}}, 1
    _sys.stdout.write(dumps_canonical({"command": args.command, **report}))
    return status


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
