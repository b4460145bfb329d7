"""Duality and convolution functors on pairs (V, A), i.e. Systems.

hd realizes the composite: take the canonical datum of the principal
parts, swap the roles of the two vector spaces, and read the realized
system on the other side.  mc is hd . add . hd with a rank-1 parameter
whose poles must sit inside the spectrum of the constant term, with order
bounded by the nilpotency index there; its second hd dualizes a datum whose
S is the first datum's T, so swap_back reads it off that datum's blocks.
dr_middle_convolution is the classical two-step construction on Fuchsian
pairs and serves as an independent oracle for mc with a simple-pole parameter.
"""

from __future__ import annotations

from .errors import (
    DimensionMismatch,
    Exceptional,
    NonzeroConstantTerm,
    NotFuchsian,
    PoleMismatch,
)
from .exactalg import (
    GaussianRational,
    Matrix,
    gr,
    quotient_projection,
)
from .datum import Block, Datum, kappa, phi, psi, swap, swap_back
from .systems import (
    PrincipalPart,
    Record,
    System,
    add_scalar,
    equivalent,
    order,
    zero_pair,
)

__all__ = [
    "OkuboTriple",
    "hd",
    "mc",
    "dr_middle_convolution",
    "okubo_to_pair",
    "hd_double",
]

def hd(p: System) -> System:
    """The dual pair.  Pure-constant input (no effective poles) dualizes
    to the zero pair."""
    return psi(kappa(p))


def mc(p: System, alpha: System) -> System:
    """Middle convolution with the rank-1 parameter alpha.

    alpha must carry no constant term (translations are the caller's
    business) and its poles must lie in the spectrum of the constant term
    of p, with pole order at s at most the nilpotency index there.
    """
    if alpha.dimension != 1:
        raise DimensionMismatch("convolution parameter must have rank 1")
    if not alpha.constant.is_zero():
        raise NonzeroConstantTerm(
            "convolution parameter has a constant term; translate the coordinate first"
        )
    h = kappa(p)
    effective = [(part, d) for part in alpha.parts if (d := order(part))]
    if h.dim_w == 0 and not effective:
        return zero_pair()  # both duals vanish, as in psi: no spectrum of S is needed
    dual = swap(h)  # the first hd is phi(dual); its blocks bound the pole orders
    allowed = {b.point: len(b.powers) for b in dual.blocks}
    for part, d in effective:
        if part.point not in allowed:
            raise PoleMismatch(
                f"parameter pole {part.point} is outside the constant term's spectrum"
            )
        if d > allowed[part.point]:
            raise PoleMismatch(
                f"parameter pole order {d} at {part.point} exceeds the allowed {allowed[part.point]}"
            )
    # the second hd dualizes a datum whose S is h's T, so it reads back on h's blocks
    return phi(swap_back(h, kappa(add_scalar(phi(dual), alpha))))


def dr_middle_convolution(p: System, lam: GaussianRational) -> System:
    """Classical two-step middle convolution of a Fuchsian pair.

    Step one realizes the pair on W = sum of V/Ker A_t, step two quotients
    W by Ker(PQ + lambda).  Implemented literally as the independent
    oracle for mc with parameter lambda/zeta.
    """
    lam = gr(lam)
    if not p.constant.is_zero():
        raise NotFuchsian("pair has a constant term")
    if any(order(part) > 1 for part in p.parts):
        raise NotFuchsian("pair has a pole of order > 1")
    n = p.dimension
    qs, ps, points = [], [], []
    for part in p.parts:
        a = part.coefficients[0]
        if a.is_zero():
            continue
        pi, pivots = quotient_projection(a)
        points.append(part.point)
        qs.append(a.select_columns(pivots))  # injection W_t -> V induced from A_t
        ps.append(pi)  # projection V -> V/Ker A_t
    if not qs:
        return zero_pair()
    q = Matrix.hstack(qs)
    pm = Matrix.vstack(ps)
    g = (pm * q).shift(lam)
    pi, pivots = quotient_projection(g)
    m = pi.rows
    if m == 0:
        return zero_pair()
    q_lam = pi  # projection W -> V^lambda
    p_lam = g.select_columns(pivots)  # injection V^lambda -> W with P Q = G
    parts = []
    offset = 0
    for point, qt in zip(points, qs):
        wt = qt.cols
        q_block = q_lam.submatrix(0, m, offset, offset + wt)
        p_block = p_lam.submatrix(offset, offset + wt, 0, m)
        coeff = q_block * p_block
        if not coeff.is_zero():
            parts.append(PrincipalPart(point, (coeff,)))
        offset += wt
    return System(m, Matrix.zeros(m, m), tuple(parts))


class OkuboTriple(Record):
    """(W, T, R) presenting the system (z I - T) u' = R u."""

    def __init__(self, t_matrix: Matrix, r_matrix: Matrix):
        if not t_matrix.is_square() or not r_matrix.is_square() or t_matrix.rows != r_matrix.rows:
            raise DimensionMismatch("Okubo triple needs square T, R of equal size")
        self.__dict__.update(t_matrix=t_matrix, r_matrix=r_matrix)


def okubo_to_pair(o: OkuboTriple) -> System:
    """Factor R = P Q through V = W/Ker R; Q (zI - T)^{-1} P is psi of the
    datum on W with S = T and one block V at 0, with N = 0, whose maps are
    the injection P: V -> W and the projection Q: W -> V."""
    pi, pivots = quotient_projection(o.r_matrix)
    v = pi.rows
    block = Block(0, Matrix.zeros(v, v), o.r_matrix.select_columns(pivots), pi)
    return psi(Datum(o.t_matrix.rows, (block,), o.t_matrix))


def hd_double(p: System):
    """hd(hd(p)) together with the constant-gauge witness back to p.

    Raises Exceptional exactly when the first dual vanishes, i.e. when p
    is equivalent to a one-dimensional constant pair.
    """
    first = hd(p)
    if first.dimension == 0:
        raise Exceptional("the dual vanishes: pair is equivalent to (C, s)")
    back = hd(first)
    witness = equivalent(back, p)
    return back, witness
