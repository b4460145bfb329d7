"""Orbit dimension bookkeeping, the naive rigidity index, and the
generalized reduction loop.

The index of an irreducible pair with no constant term and no residue at
infinity is dim(orbit) - 2 dim GL(V) + 2; zero means the moduli space of
its truncated formal type is a single point.  On such rigid pairs each
reduction step (add the negated per-pole maximizer, convolve with the
resulting simple-pole weight, add again) strictly decreases the rank, so
the loop terminates at rank one within at most the initial rank many
steps.
"""

from __future__ import annotations

from .errors import InvariantViolation, IrrationalSpectrum, NoNormalForm, NotInD0, NotRigid, Reducible, ZeroLambda
from .exactalg import GaussianRational
from .functors import mc
from .normalform import _stabilizer_dim, compute_normal_form, irrational_alpha_could_win, select_alpha
from .systems import (
    Record,
    System,
    add_scalar,
    is_irreducible,
    lambda_over_z,
    residue_at_infinity,
    scalar_system,
)

__all__ = [
    "ReductionStep",
    "ReductionTrace",
    "orbit_dim",
    "rigidity_index",
    "katz_step",
    "katz_reduce",
]


class ReductionStep(Record):
    def __init__(
        self, alpha: System, lam: GaussianRational, rank_before: int, rank_after: int, result: System
    ):
        self.__dict__.update(
            alpha=alpha, lam=lam, rank_before=rank_before, rank_after=rank_after, result=result
        )


class ReductionTrace(Record):
    """Ordered log of reduction steps; ranks strictly decrease and the
    final rank is at most one."""

    def __init__(self, steps: tuple[ReductionStep, ...]):
        ranks = [s.rank_before for s in steps] + (
            [steps[-1].rank_after] if steps else []
        )
        for a, b in zip(ranks, ranks[1:]):
            if b >= a:
                raise ValueError("trace ranks must strictly decrease")
        if steps and steps[-1].rank_after > 1:
            raise ValueError("trace must end at rank <= 1")
        self.__dict__.update(steps=steps)

    @property
    def final_rank(self) -> int:
        return self.steps[-1].rank_after if self.steps else -1


def orbit_dim(sys: System) -> int:
    """dim of the truncated-gauge coadjoint orbit: per pole, the group
    dimension k_t (dim V)^2 minus the stabilizer dimension."""
    return _orbit_dim(sys, {})


def _orbit_dim(sys: System, forms: dict) -> int:
    """``orbit_dim``, reading the normal form of the pole at each point of forms."""
    n = sys.dimension
    return sum(
        len(part.coefficients) * n * n - _stabilizer_dim(part, forms.get(part.point)) for part in sys.parts
    )


def _require_d0(p: System):
    if not p.constant.is_zero() or not residue_at_infinity(p).is_zero():
        raise NotInD0("pair has a constant term or a nonzero residue at infinity")


def rigidity_index(p: System) -> int:
    """dim of the naive moduli space at p's truncated formal type.

    Zero means naively rigid; negative values are reported as computed
    (no irreducible system exists with that local data).
    """
    return _rigidity_index(p, {})


def _rigidity_index(p: System, forms: dict) -> int:
    """``rigidity_index``, reading the normal form of the pole at each point
    of forms."""
    _require_d0(p)
    if not is_irreducible(p):
        raise Reducible("rigidity index is defined for irreducible pairs")
    n = p.dimension
    return _orbit_dim(p, forms) - 2 * n * n + 2


def katz_step(p: System, alpha: System) -> System:
    """add_alpha then mc with weight Res_infinity(alpha) / z, then
    add_alpha again; preserves zero residue at infinity when the weight
    is nonzero."""
    shifted = add_scalar(p, alpha)
    lam = residue_at_infinity(alpha).scalar()
    convolved = mc(shifted, lambda_over_z(lam))
    if convolved.dimension == 0:
        if lam.is_zero():
            raise ZeroLambda("zero weight with exceptional intermediate")
        return convolved
    return add_scalar(convolved, alpha)


def katz_reduce(p: System) -> ReductionTrace:
    """Greedy reduction to rank one.

    Each round recomputes the per-pole maximizer of the kernel dimension,
    assembles alpha as minus their sum, and applies one step.  Strict rank
    decrease is guaranteed for naively rigid inputs; if a step fails to
    decrease the rank, NotRigid is raised carrying the index, or on a rigid
    input IrrationalSpectrum if an alpha outside Q(i) could do better.  Both
    read one normal form per pole, whose errors name the step and the pole.
    """
    _require_d0(p)
    if not is_irreducible(p):
        raise Reducible("reduction is defined for irreducible pairs")
    steps: list[ReductionStep] = []
    current = p
    cap = p.dimension
    while current.dimension >= 2:
        if len(steps) >= cap:
            raise InvariantViolation("reduction exceeded its iteration cap")  # pragma: no cover
        try:
            forms = {part.point: compute_normal_form(part) for part in current.parts}
        except (NoNormalForm, IrrationalSpectrum) as e:
            raise type(e)(f"reduction step {len(steps) + 1}, {e}") from e
        alpha = scalar_system({point: [-c for c in select_alpha(nf)] for point, nf in forms.items()})
        lam = residue_at_infinity(alpha).scalar()
        result = katz_step(current, alpha)
        if result.dimension >= current.dimension:
            index = _rigidity_index(current, forms)
            if index != 0:
                raise NotRigid(
                    f"rank did not decrease and the rigidity index is {index}",
                    index=index,
                    steps=steps,
                )
            for point, nf in forms.items():
                if irrational_alpha_could_win(nf):
                    raise IrrationalSpectrum(
                        f"reduction step {len(steps) + 1}, "
                        f"a residue at pole {point} has eigenvalues outside Q(i)"
                    )
            raise InvariantViolation("rank did not decrease on a rigid input")  # pragma: no cover
        steps.append(
            ReductionStep(
                alpha=alpha,
                lam=lam,
                rank_before=current.dimension,
                rank_after=result.dimension,
                result=result,
            )
        )
        current = result
    return ReductionTrace(tuple(steps))
