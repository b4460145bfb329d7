"""Systems of linear ODEs with prescribed principal parts, and the
truncated gauge group acting on them.

A System is a constant endomorphism plus finitely many principal parts
Sum_k A_{t,k} (z-t)^{-k} at distinct Gaussian-rational poles.  Pole points
are stored per part and parts are kept sorted by point, so document output
and all derived data are reproducible.  Equality of systems is semantic:
trailing zero coefficients and all-zero parts do not distinguish systems
(the declared truncation order is storage, the pole order is meaning).

Principal parts and gauges are truncated matrix power series: ``trim``
drops trailing zero coefficients, and ``series_coefficient`` (the Cauchy
product coefficient) builds ``truncated_inverse``, ``gauge_compose`` and
``gauge_coadjoint``.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Iterable, Optional, Sequence

from .errors import (
    DimensionMismatch,
    InconclusiveEquivalence,
    InvariantViolation,
    PointMismatch,
    SingularGauge,
    ValidationError,
)
from .exactalg import (
    GaussianRational,
    Matrix,
    echelon_insert,
    gr,
    intertwiner_basis,
    invert,
    rank,
)
from .modp import certified_full, spin

__all__ = [
    "Record",
    "PrincipalPart",
    "System",
    "TruncatedGauge",
    "order",
    "trim",
    "series_coefficient",
    "residue_at_infinity",
    "add_scalar",
    "gauge_coadjoint",
    "gauge_compose",
    "truncated_inverse",
    "is_irreducible",
    "equivalent",
    "conjugate_system",
    "zero_pair",
    "scalar_system",
    "lambda_over_z",
]


class Record:
    """Base of the immutable records.  The fields are the parameters of the
    subclass's ``__init__``, in order, which validates them and stores each
    in the instance ``__dict__`` once.  Equality (same class, equal fields),
    hash and repr read the fields in that order.  There are no
    ``__slots__``, so a ``cached_property`` can store its value beside the
    fields."""

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({fields})"


class PrincipalPart(Record):
    """Coefficients [A_1, ..., A_k] of (z-t)^{-1}..(z-t)^{-k} at pole t.

    Trailing zero coefficients are legal; ``order`` gives the semantic
    pole order while len(coefficients) is the storage capacity.
    """

    def __init__(self, point: GaussianRational, coefficients: Sequence[Matrix]):
        point = gr(point)
        coeffs = tuple(coefficients)
        if not coeffs:
            raise ValidationError("a principal part needs at least one coefficient")
        n = coeffs[0].rows
        for c in coeffs:
            if not c.is_square() or c.rows != n:
                raise DimensionMismatch("principal part coefficients must be square of equal size")
        self.__dict__.update(point=point, coefficients=coeffs)

    @property
    def dimension(self) -> int:
        return self.coefficients[0].rows


def trim(coeffs: Iterable) -> tuple:
    """The coefficients up to the last nonzero one; any values with
    ``is_zero``, matrices and scalars alike."""
    out = list(coeffs)
    while out and out[-1].is_zero():
        out.pop()
    return tuple(out)


def order(part: PrincipalPart) -> int:
    """The pole order: largest k with A_k nonzero, or 0."""
    return len(trim(part.coefficients))


class System(Record):
    """A pair (V, A): constant term plus principal parts at distinct poles.

    The optional exponent declaration is a tuple of (point, order) pairs
    asserting that prod (S - s)^{l_s} = 0; it is validated on construction.
    """

    def __init__(
        self,
        dimension: int,
        constant: Matrix,
        parts: Iterable[PrincipalPart] = (),
        declaration: Optional[Iterable[tuple[GaussianRational, int]]] = None,
    ):
        n = dimension
        if constant.rows != n or constant.cols != n:
            raise DimensionMismatch("constant term has wrong shape")
        parts = tuple(sorted(parts, key=lambda p: p.point.sort_key()))
        seen = set()
        for p in parts:
            if p.dimension != n:
                raise DimensionMismatch("principal part dimension differs from system dimension")
            if p.point in seen:
                raise ValidationError(f"duplicate pole point {p.point}")
            seen.add(p.point)
        if declaration is not None:
            declaration = tuple((gr(s), l) for s, l in declaration)
            for _, l in declaration:
                if type(l) is not int or l < 0:
                    raise ValidationError(f"a declared order must be a non-negative integer, got {l!r}")
            prod = Matrix.identity(n)
            for s, l in declaration:
                shifted = constant.shift(-s)
                # Ker (S - s)^l stops growing at l = n, so the verdict is the same
                for _ in range(min(l, n)):
                    prod = prod * shifted
            if not prod.is_zero():
                raise ValidationError("constant term violates the declared exponent condition")
        self.__dict__.update(dimension=dimension, constant=constant, parts=parts, declaration=declaration)

    def part_at(self, point: GaussianRational) -> Optional[PrincipalPart]:
        for p in self.parts:
            if p.point == point:
                return p
        return None

    def _semantic(self):
        parts = {}
        for p in self.parts:
            trimmed = trim(p.coefficients)
            if trimmed:
                parts[p.point] = trimmed
        return (self.dimension, self.constant, parts)

    def __eq__(self, other):
        if not isinstance(other, System):
            return NotImplemented
        return self._semantic() == other._semantic()

    def __hash__(self):  # pragma: no cover - systems are not meant as keys
        return hash((self.dimension, self.constant))


def zero_pair() -> System:
    return System(0, Matrix.zeros(0, 0), ())


def scalar_system(parts: dict, constant=0) -> System:
    """Rank-1 system from {point: [c_1, .., c_k]} with scalar coefficients."""
    pp = [
        PrincipalPart(gr(pt), tuple(Matrix.from_rows([[c]]) for c in coeffs))
        for pt, coeffs in parts.items()
    ]
    return System(1, Matrix.from_rows([[constant]]), tuple(pp))


def lambda_over_z(lam) -> System:
    """The convolution parameter lam/zeta with its single pole at 0."""
    return scalar_system({0: [lam]})


def residue_at_infinity(sys: System) -> Matrix:
    """-sum of first-order coefficients; zero iff infinity is regular for A^0."""
    acc = Matrix.zeros(sys.dimension, sys.dimension)
    for p in sys.parts:
        acc = acc + p.coefficients[0]
    return -acc


def add_scalar(sys: System, alpha: System) -> System:
    """sys(z) + alpha(z) * Id, merging poles."""
    if alpha.dimension != 1:
        raise DimensionMismatch("addition parameter must have rank 1")
    n, c = sys.dimension, alpha.constant.scalar()
    const = sys.constant.shift(c)
    if n == 0:
        return System(0, const, ())
    merged = {p.point: list(p.coefficients) for p in sys.parts}
    for ap in alpha.parts:
        coeffs = merged.setdefault(ap.point, [])
        for j, a in enumerate(ap.coefficients):
            while len(coeffs) <= j:
                coeffs.append(Matrix.zeros(n, n))
            coeffs[j] = coeffs[j].shift(a.scalar())
    parts = tuple(PrincipalPart(pt, tuple(cs)) for pt, cs in merged.items())
    # S + c has the exponents of S shifted by c
    decl = sys.declaration and tuple((s + c, l) for s, l in sys.declaration)
    return System(n, const, parts, decl)


# ---------------------------------------------------------------------------
# Truncated gauge group
# ---------------------------------------------------------------------------


class TruncatedGauge(Record):
    """g(z) = g_0 + g_1 z + ... + g_{k-1} z^{k-1} in the local coordinate
    at ``point``, with invertible g_0."""

    def __init__(self, point: GaussianRational, coefficients: Sequence[Matrix]):
        point = gr(point)
        coeffs = tuple(coefficients)
        if not coeffs:
            raise ValidationError("a gauge element needs at least one coefficient")
        n = coeffs[0].rows
        for c in coeffs:
            if not c.is_square() or c.rows != n:
                raise DimensionMismatch("gauge coefficients must be square of equal size")
        if rank(coeffs[0]) != n:
            raise SingularGauge("constant term of the gauge element is singular")
        self.__dict__.update(point=point, coefficients=coeffs)

    @property
    def dimension(self) -> int:
        return self.coefficients[0].rows


def series_coefficient(a: Sequence[Matrix], b: Sequence[Matrix], m: int, zero: Matrix) -> Matrix:
    """The z^m coefficient of a(z) b(z); coefficients past either end of a
    or b count as zero, and ``zero`` is the result when no term is left."""
    acc = zero
    for j in range(max(0, m - len(b) + 1), min(m, len(a) - 1) + 1):
        acc = acc + a[j] * b[m - j]
    return acc


def truncated_inverse(coeffs: Sequence[Matrix], length: int) -> list[Matrix]:
    """Coefficients of g(z)^{-1} mod z^length."""
    g0inv = invert(coeffs[0])
    if g0inv is None:
        raise SingularGauge("constant term of the gauge element is singular")
    zero = Matrix.zeros(coeffs[0].rows, coeffs[0].rows)
    inv = [g0inv]
    for m in range(1, length):
        # inv[m] is not there yet, so the coefficient is Sum_{j>=1} g_j inv[m-j]
        inv.append(-(g0inv * series_coefficient(coeffs, inv, m, zero)))
    return inv


def gauge_compose(g: TruncatedGauge, h: TruncatedGauge) -> TruncatedGauge:
    """(g h)(z) = g(z) h(z), truncated at the longer of the two."""
    if g.point != h.point:
        raise PointMismatch("cannot compose gauges at different points")
    k = max(len(g.coefficients), len(h.coefficients))
    zero = Matrix.zeros(g.dimension, g.dimension)
    out = tuple(series_coefficient(g.coefficients, h.coefficients, m, zero) for m in range(k))
    return TruncatedGauge(g.point, out)


def gauge_coadjoint(g: TruncatedGauge, part: PrincipalPart) -> PrincipalPart:
    """Principal part of g(z) A(z) g(z)^{-1}; the coadjoint action on the
    truncation at the pole.  Never increases the pole order."""
    if g.point != part.point:
        raise PointMismatch("gauge point differs from the pole")
    if g.dimension != part.dimension:
        raise DimensionMismatch("gauge dimension differs from the part")
    k = len(part.coefficients)
    zero = Matrix.zeros(part.dimension, part.dimension)
    # z^k A(z) is the polynomial A_k + A_{k-1} z + ... + A_1 z^{k-1}; its
    # conjugate mod z^k, read backwards, is the principal part of g A g^{-1}
    za = part.coefficients[::-1]
    gza = [series_coefficient(g.coefficients, za, m, zero) for m in range(k)]
    hp = truncated_inverse(g.coefficients, k)
    out = [series_coefficient(gza, hp, m, zero) for m in range(k)]
    return PrincipalPart(part.point, tuple(reversed(out)))


# ---------------------------------------------------------------------------
# Irreducibility and equivalence
# ---------------------------------------------------------------------------


def is_irreducible(sys: System) -> bool:
    """True iff the unital algebra generated by the constant term and all
    coefficients is the full endomorphism algebra.

    Two paths.  From dimension ``modp._MEATAXE_DIM`` on, the MeatAxe
    (Norton's criterion) may first certify True in ``modp.certified_full``
    (all arithmetic mod p is there), mod its one prime, 257, when that
    divides no denominator: reduction mod p is a ring map and rank can only
    drop under it, so the algebra over Q(i) is full as well.  Below that
    dimension, on a miss and for every False the exact word-span closure
    decides, so False is always exact: ``spin`` spins the identity under the
    nonzero generators, multiplying each new word by every generator on the
    right, until the span stops growing or is all of End(V).  The span's
    dimension over Q(i) equals its dimension over C, so the verdict
    transfers.
    """
    n = sys.dimension
    if n < 1:
        raise DimensionMismatch("irreducibility needs dimension >= 1")
    gens = [sys.constant] + [c for p in sys.parts for c in p.coefficients]
    gens = [g for g in gens if not g.is_zero()]
    if certified_full(n, [g.entries() for g in gens]):
        return True
    words, _ = spin(
        [Matrix.identity(n)], gens, lambda g, w: w * g,
        lambda rows, pivots, m: echelon_insert(rows, pivots, m.entries()), n * n,
    )
    return len(words) == n * n


def _intertwiner_space(a: System, b: System) -> list[Matrix]:
    """Basis of {f : f S_a = S_b f and f A_{t,k} = B_{t,k} f for all t,k}."""
    zero = Matrix.zeros(a.dimension, a.dimension)
    ca = {p.point: p.coefficients for p in a.parts}
    cb = {p.point: p.coefficients for p in b.parts}
    pairs = [(a.constant, b.constant)]
    for pt in ca.keys() | cb.keys():
        pairs.extend(zip_longest(ca.get(pt, ()), cb.get(pt, ()), fillvalue=zero))
    return intertwiner_basis(pairs)


def equivalent(a: System, b: System):
    """Invertible f with f a(z) f^{-1} = b(z), or None.

    Decided from the intertwiner space Hom(a, b) = {f : f a = b f} alone.
    When it has dimension at most one, every invertible intertwiner is a
    multiple of its basis element, so that element decides.  By Schur's
    lemma the dimension is at most one whenever a or b is irreducible; a
    larger space is inconclusive.  ``intertwiner_basis`` solves for it
    column by column and stops early only on an exact certificate: full
    rank, or a kernel whose every element passes f a = b f.
    """
    if a.dimension == 0 and b.dimension == 0:
        return Matrix.zeros(0, 0)
    if a.dimension != b.dimension:
        raise DimensionMismatch("equivalence of systems of different rank")
    space = _intertwiner_space(a, b)
    if len(space) > 1:
        if is_irreducible(a) or is_irreducible(b):
            raise InvariantViolation("Schur bound violated for irreducible inputs")
        raise InconclusiveEquivalence("the intertwiner space has dimension >= 2")
    if space and rank(space[0]) == a.dimension:
        return space[0]
    return None


def conjugate_system(c: Matrix, sys: System) -> System:
    """Constant gauge transformation: every matrix goes to c M c^{-1}."""
    cinv = invert(c)
    if cinv is None:
        raise SingularGauge("conjugating matrix is singular")
    parts = tuple(
        PrincipalPart(p.point, tuple(c * m * cinv for m in p.coefficients)) for p in sys.parts
    )
    return System(sys.dimension, c * sys.constant * cinv, parts, sys.declaration)
