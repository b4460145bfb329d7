"""Realizations of systems as sextuples (V, W, S, T, Q, P).

A Datum holds S on V and stores W in blocks over the pole points: per
point a nilpotent N_t together with Q_t: W_t -> V and P_t: V -> W_t, so
that the system it realizes on V is S + Sum_t Sum_k Q_t N_t^{k-1} P_t
(z-t)^{-k}, and the dual system on W is T + P (zeta - S)^{-1} Q.  The
canonical datum quotients the obvious k_t-fold suspension by the kernel
of a block-Toeplitz matrix built from the coefficients; the quotient is
represented in the pivot coordinates of that matrix's reduced echelon
form, which makes the output matrices deterministic and reproduces the
stability conditions exactly.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Sequence

from .errors import (
    DimensionMismatch,
    EmptyV,
    NotStable,
    PointMismatch,
    ValidationError,
)
from .exactalg import (
    GaussianRational,
    Matrix,
    generalized_eigendecomposition,
    gr,
    hat_matrix,
    intertwiner_basis,
    nilpotent_powers,
    quotient_projection,
    rank,
    solve,
)
from .systems import PrincipalPart, Record, System, TruncatedGauge, is_irreducible, trim, truncated_inverse

__all__ = [
    "Block",
    "Datum",
    "MomentValue",
    "phi",
    "canonical",
    "kappa",
    "is_stable",
    "gk_action",
    "moment_mu",
    "datum_isomorphism",
    "harnad_irreducible",
    "psi",
    "swap",
    "swap_back",
]


_ZERO = gr(0)


class Block(Record):
    """One pole's share of a datum: (W_t, N_t, Q_t, P_t)."""

    def __init__(self, point: GaussianRational, nilpotent: Matrix, q: Matrix, p: Matrix):
        point = gr(point)
        w = nilpotent.rows
        if not nilpotent.is_square():
            raise DimensionMismatch("nilpotent part must be square")
        if q.cols != w or p.rows != w or q.rows != p.cols:
            raise DimensionMismatch("block shapes are inconsistent")
        self.__dict__.update(point=point, nilpotent=nilpotent, q=q, p=p)
        self.powers  # raises NotNilpotent

    @cached_property
    def powers(self) -> tuple[Matrix, ...]:
        """(I, N_t, N_t^2, ...) up to the last nonzero power of N_t."""
        return tuple(nilpotent_powers(self.nilpotent))

    @property
    def dim_w(self) -> int:
        return self.nilpotent.rows

    @property
    def dim_v(self) -> int:
        return self.q.rows


def _block(point, nilpotent: Matrix, q: Matrix, p: Matrix, powers: tuple[Matrix, ...]) -> Block:
    """Block(point, nilpotent, q, p) given the powers of nilpotent, which
    it then does not build again."""
    block = object.__new__(Block)
    block.__dict__["powers"] = powers
    block.__init__(point, nilpotent, q, p)
    return block


class Datum(Record):
    """A sextuple (V, W, S, T, Q, P) in pole-blocked form; S defaults to 0.

    The zero datum (no blocks) is legal for any dim_v.
    """

    def __init__(self, dim_v: int, blocks: Sequence[Block] = (), s_matrix: Optional[Matrix] = None):
        if s_matrix is None:
            s_matrix = Matrix.zeros(dim_v, dim_v)
        if s_matrix.rows != dim_v or not s_matrix.is_square():
            raise DimensionMismatch("S must be an endomorphism of V")
        blocks = tuple(sorted(blocks, key=lambda b: b.point.sort_key()))
        seen = set()
        for b in blocks:
            if b.dim_v != dim_v:
                raise DimensionMismatch("block V-dimension differs from the datum")
            if b.point in seen:
                raise ValidationError(f"duplicate block point {b.point}")
            seen.add(b.point)
        self.__dict__.update(dim_v=dim_v, blocks=blocks, s_matrix=s_matrix)

    @property
    def dim_w(self) -> int:
        return sum(b.dim_w for b in self.blocks)

    def block_at(self, point) -> Optional[Block]:
        point = gr(point)
        for b in self.blocks:
            if b.point == point:
                return b
        return None

    def t_matrix(self) -> Matrix:
        """T on W = direct sum of the blocks, i.e. t Id + N_t per block."""
        mats = [b.nilpotent.shift(b.point) for b in self.blocks]
        return Matrix.block_diagonal(mats)

    def q_matrix(self) -> Matrix:
        return Matrix.hstack([b.q for b in self.blocks]) if self.blocks else Matrix.zeros(self.dim_v, 0)

    def p_matrix(self) -> Matrix:
        return Matrix.vstack([b.p for b in self.blocks]) if self.blocks else Matrix.zeros(0, self.dim_v)


# ---------------------------------------------------------------------------
# Phi and the canonical datum
# ---------------------------------------------------------------------------


def phi(d: Datum) -> System:
    """The realized system: S plus Sum_k Q_t N_t^{k-1} P_t (z-t)^{-k} per
    block, trimmed; only an unstable block can lose coefficients."""
    parts = []
    for b in d.blocks:
        # the first power is I, so its coefficient is Q_t P_t
        coeffs = trim((b.q * power if k else b.q) * b.p for k, power in enumerate(b.powers))
        if coeffs:
            parts.append(PrincipalPart(b.point, coeffs))
    return System(d.dim_v, d.s_matrix, tuple(parts))


def canonical(parts: Sequence[PrincipalPart], dim_v: int) -> Datum:
    """The canonical datum for Sum of the given principal parts, with S = 0.

    Per pole, the k-fold suspension C^{kn} with Q-hat = the first block row
    of A-hat, P-hat = [0; I] and N-hat the shift sending coordinate c to
    c - n is quotiented by Ker A-hat.  In the pivot coordinates of
    quotient_projection(A-hat) = (pi, pivots) each map is read off
    directly: Q = Q-hat at the pivots, P = the last block column of pi and
    N = [0 | pi] at the pivots, whose column at pivot c is column c - n of
    pi, or zero for c < n.  Poles whose A-hat vanishes are dropped.
    The result is stable whenever dim_v >= 1 and satisfies
    phi(canonical(A)) = A.
    """
    return Datum(dim_v, _canonical_blocks(parts, dim_v))


def kappa(sys: System) -> Datum:
    """Section of phi: the canonical datum of the principal parts plus S."""
    return Datum(sys.dimension, _canonical_blocks(sys.parts, sys.dimension), sys.constant)


def _canonical_blocks(parts: Sequence[PrincipalPart], dim_v: int) -> tuple[Block, ...]:
    """The blocks of ``canonical(parts, dim_v)``."""
    blocks = []
    for part in parts:
        if part.dimension != dim_v:
            raise DimensionMismatch("part dimension differs from dim V")
        n = dim_v
        ahat = hat_matrix(part.coefficients)
        pi, pivots = quotient_projection(ahat)
        if not pivots:
            continue
        shifted = [pi[i, c - n] if c >= n else _ZERO for i in range(pi.rows) for c in pivots]
        blocks.append(
            Block(
                point=part.point,
                nilpotent=Matrix(pi.rows, pi.rows, shifted),
                q=ahat.submatrix(0, n, 0, ahat.cols).select_columns(pivots),
                p=pi.submatrix(0, pi.rows, pi.cols - n, pi.cols),
            )
        )
    return tuple(blocks)


# ---------------------------------------------------------------------------
# Stability, gauge action, moment map
# ---------------------------------------------------------------------------


def is_stable(d: Datum) -> bool:
    """Both rank conditions at every block: Ker Q_t meets Ker N_t only in
    0, and Im P_t + Im N_t fills W_t."""
    if d.dim_v < 1:
        raise EmptyV("stability is defined only for dim V >= 1")
    for b in d.blocks:
        w = b.dim_w
        if rank(Matrix.vstack([b.q, b.nilpotent])) != w:
            return False
        if rank(Matrix.hstack([b.p, b.nilpotent])) != w:
            return False
    return True


def gk_action(g: TruncatedGauge, d: Datum) -> Datum:
    """Action of a truncated gauge at one pole on (Q_t, P_t):
    Q_t -> Sum g_k Q_t N_t^k,  P_t -> Sum N_t^k P_t (g^{-1})_k."""
    target = d.block_at(g.point)
    if target is None:
        raise PointMismatch(f"no block at point {g.point}")
    if g.dimension != d.dim_v:
        raise DimensionMismatch("gauge dimension differs from dim V")
    npows = target.powers
    new_q = Matrix.zeros(d.dim_v, target.dim_w)
    new_p = Matrix.zeros(target.dim_w, d.dim_v)
    for gk, npow in zip(g.coefficients, npows):
        new_q = new_q + gk * target.q * npow
    for npow, hk in zip(npows, truncated_inverse(g.coefficients, len(npows))):
        new_p = new_p + npow * target.p * hk
    blocks = tuple(
        _block(b.point, b.nilpotent, new_q, new_p, npows) if b.point == g.point else b for b in d.blocks
    )
    return Datum(d.dim_v, blocks, d.s_matrix)


class MomentValue(Record):
    """Value of the moment map for the centralizer of T.

    Per block: -P_t Q_t together with its trace pairings against the
    echelon basis of the commutant of N_t (``intertwiner_basis``).
    Equality in the dual of that centralizer is equality of all pairings.
    """

    def __init__(self, entries: tuple[tuple[GaussianRational, Matrix, tuple[GaussianRational, ...]], ...]):
        self.__dict__.update(entries=entries)

    def __eq__(self, other):
        if not isinstance(other, MomentValue):
            return NotImplemented
        lhs = [(pt, pair) for pt, _, pair in self.entries]
        rhs = [(pt, pair) for pt, _, pair in other.entries]
        return lhs == rhs

    def __hash__(self):  # pragma: no cover
        return hash(tuple((pt, pair) for pt, _, pair in self.entries))


def moment_mu(d: Datum) -> MomentValue:
    entries = []
    for b in d.blocks:
        value = -(b.p * b.q)
        commutant = intertwiner_basis([(b.nilpotent, b.nilpotent)])
        pairings = tuple((value * x).trace() for x in commutant)
        entries.append((b.point, value, pairings))
    return MomentValue(tuple(entries))


# ---------------------------------------------------------------------------
# Uniqueness
# ---------------------------------------------------------------------------


def _block_iso(b1: Block, b2: Block):
    """The f: W_t -> W'_t with f N = N' f, Q' f = Q, f P = P', or None.

    Such an f sends N^k P to N'^k P', so N and N' share their nilpotency
    index.  On a stable block those columns span W_t, so solve finds the
    only candidate; the rest is checked exactly.
    """
    w = b1.dim_w
    if b2.dim_w != w:
        return None
    k1, k2 = (
        Matrix.hstack([power * b.p for power in b.powers]) for b in (b1, b2)
    )
    if k1.cols != k2.cols:
        return None
    ft = solve(k1.transpose(), k2.transpose())
    if ft is None:
        return None
    f = ft.transpose()
    if f * b1.nilpotent != b2.nilpotent * f or b2.q * f != b1.q or rank(f) != w:
        return None
    return f


def datum_isomorphism(d1: Datum, d2: Datum):
    """An isomorphism f: W -> W' intertwining (N, Q, P), or None.

    Both inputs must be stable; under stability the solution, when an
    invertible one exists, is the unique solution of the linear system.
    """
    if d1.dim_v != d2.dim_v:
        raise DimensionMismatch("data live over different V")
    if not is_stable(d1) or not is_stable(d2):
        raise NotStable("datum isomorphism requires stable inputs")
    pts1 = [b.point for b in d1.blocks]
    pts2 = [b.point for b in d2.blocks]
    if pts1 != pts2:
        return None
    fs = []
    for b1, b2 in zip(d1.blocks, d2.blocks):
        f = _block_iso(b1, b2)
        if f is None:
            return None
        fs.append(f)
    return Matrix.block_diagonal(fs)


# ---------------------------------------------------------------------------
# The dual direction
# ---------------------------------------------------------------------------


def _dual(d: Datum, q_c: Matrix, p_c: Matrix, blocking) -> Datum:
    """The datum on W with S = T of d and one block per (point, size, nilpotent,
    powers) of blocking, in turn: the next size columns of q_c and rows of p_c."""
    blocks = []
    offset, w = 0, d.dim_w
    for point, size, nil, powers in blocking:
        end = offset + size
        q, p = q_c.submatrix(0, w, offset, end), p_c.submatrix(offset, end, 0, w)
        blocks.append(_block(point, nil, q, p, powers))
        offset = end
    return Datum(w, tuple(blocks), d.t_matrix())


def swap(d: Datum) -> Datum:
    """The dual sextuple (W, V, T, S, P, Q) blocked by the generalized
    eigenspaces of S, as ``generalized_eigendecomposition`` lists them: with
    B the hstack of the eigenbases, the block at s is (nil_s with its
    powers, P B_s, rows of B^{-1} Q at s), so
    phi(swap(d)) = T + P (zeta I - S)^{-1} Q.

    With at most one eigenvalue B is the identity, as
    ``generalized_eigendecomposition`` states, so P and Q are taken as they
    are; with two or more B is multiplied and solved exactly."""
    eig = generalized_eigendecomposition(d.s_matrix)
    q_c, p_c = d.p_matrix(), d.q_matrix()
    if len(eig) > 1:
        basis = Matrix.hstack([b for _, b, _ in eig])
        q_c, p_c = q_c * basis, solve(basis, p_c)
    return _dual(d, q_c, p_c, [(ev, b.cols, nil, tuple(nilpotent_powers(nil))) for ev, b, nil in eig])


def swap_back(h: Datum, d: Datum) -> Datum:
    """swap(d) for a datum d whose S is h's T, read off h's blocks, which are
    T's generalized eigenspaces with unit eigenbases: the block at t is (N_t
    with its powers, the W_t columns of P, the W_t rows of Q)."""
    return _dual(d, d.p_matrix(), d.q_matrix(), [(b.point, b.dim_w, b.nilpotent, b.powers) for b in h.blocks])


def psi(d: Datum) -> System:
    """The dual system on W, T + P (zeta I - S)^{-1} Q = phi(swap(d))."""
    if d.dim_w == 0:
        return System(0, Matrix.zeros(0, 0), ())
    return phi(swap(d))


def harnad_irreducible(d: Datum) -> bool:
    """Irreducibility of the sextuple: stability of the datum together
    with irreducibility of the realized pair."""
    if d.dim_v < 1:
        raise EmptyV("irreducibility needs dim V >= 1")
    return is_stable(d) and is_irreducible(phi(d))
