"""Shared fixtures: named example systems and seeded random corpora."""

import random
from fractions import Fraction

import pytest

from midconv.errors import DomainError
from midconv.exactalg import Matrix, char_eigenvalues, gr
from midconv.rigidity import katz_step
from midconv.systems import (
    PrincipalPart,
    System,
    TruncatedGauge,
    gauge_coadjoint,
    is_irreducible,
    residue_at_infinity,
    scalar_system,
)
from midconv.checks import random_invertible, random_gauge, random_system

E12 = Matrix.from_rows([[0, 1], [0, 0]])
E21 = Matrix.from_rows([[0, 0], [1, 0]])
E11 = Matrix.from_rows([[1, 0], [0, 0]])
SWAP = Matrix.from_rows([[0, 1], [1, 0]])
Z2 = Matrix.zeros(2, 2)
D10 = Matrix.diagonal([1, 0])


def fuchsian(residues: dict, dim=None) -> System:
    mats = list(residues.values())
    n = dim if dim is not None else mats[0].rows
    parts = tuple(PrincipalPart(gr(pt), (m,)) for pt, m in residues.items())
    return System(n, Matrix.zeros(n, n), parts)


def gaussian_matrix(rng, rows: int, cols=None) -> Matrix:
    """Real parts in {-2..2}/{1, 2, 3, 5}, imaginary parts in {-1, 0, 1}."""
    cols = rows if cols is None else cols
    return Matrix.from_rows(
        [
            [gr(Fraction(rng.randint(-2, 2), rng.choice([1, 2, 3, 5])), rng.randint(-1, 1)) for _ in range(cols)]
            for _ in range(rows)
        ]
    )


@pytest.fixture
def rng():
    return random.Random(20260810)


@pytest.fixture
def nilpotent_triple():
    """Rank-2 Fuchsian triple with residues E12, E21, -(E12+E21); rigid."""
    return fuchsian({0: E12, 1: E21, -1: -(E12 + E21)})


@pytest.fixture
def split_triple_111():
    """Rank-2 Fuchsian triple with split spectra at each pole, d = (1,1,1)."""
    b0 = Matrix.from_rows([[0, 1], [0, 1]])  # eigenvalues 0, 1
    b1 = Matrix.from_rows([[0, 0], [4, -1]])  # eigenvalues 0, -1
    return fuchsian({0: b0, 1: b1, 2: -(b0 + b1)})  # third: eigenvalues +-2


@pytest.fixture
def irregular_300():
    """Single-pole rank-2 with d-triple (3,0,0): gauged split normal form."""
    lam = PrincipalPart(gr(0), (Matrix.diagonal([-2, 2]), Z2, Matrix.diagonal([1, -1])))
    g = TruncatedGauge(gr(0), (Matrix.identity(2), SWAP))
    return System(2, Z2, (gauge_coadjoint(g, lam),))


@pytest.fixture
def irregular_210():
    """d-triple (2,1,0): order-2 pole plus a Fuchsian pole, residues cancel."""
    c = Matrix.from_rows([[1, 1], [1, 2]])
    from midconv.exactalg import invert

    a11 = c * Matrix.diagonal([1, -1]) * invert(c)
    return System(
        2,
        Z2,
        (PrincipalPart(gr(0), (-a11, D10)), PrincipalPart(gr(1), (a11,))),
    )


def painleve_quadruples():
    """The five rank-2 local patterns with moduli dimension two."""
    from midconv.exactalg import invert

    out = {}
    # (4,0,0,0): single pole, order 4, gauged by 1 + z^2 X
    lam4 = PrincipalPart(gr(0), (Z2, Z2, Z2, D10))
    g = TruncatedGauge(gr(0), (Matrix.identity(2), Z2, SWAP))
    out["4000"] = System(2, Z2, (gauge_coadjoint(g, lam4),))
    # (3,1,0,0): order-3 pole gauged by 1 + z X plus a compensating Fuchsian pole
    lam3 = PrincipalPart(gr(0), (Z2, Z2, D10))
    gp = gauge_coadjoint(TruncatedGauge(gr(0), (Matrix.identity(2), SWAP)), lam3)
    out["3100"] = System(2, Z2, (gp, PrincipalPart(gr(1), (-gp.coefficients[0],))))
    # (2,2,0,0): two order-2 poles with opposite mixing gauges
    p0 = gauge_coadjoint(
        TruncatedGauge(gr(0), (Matrix.identity(2), SWAP)),
        PrincipalPart(gr(0), (Matrix.diagonal([1, 0]), D10)),
    )
    p1 = gauge_coadjoint(
        TruncatedGauge(gr(1), (Matrix.identity(2), -SWAP)),
        PrincipalPart(gr(1), (Matrix.diagonal([-1, 0]), D10)),
    )
    out["2200"] = System(2, Z2, (p0, p1))
    # (2,1,1,0): diagonal order-2 pole plus two antidiagonal Fuchsian poles
    out["2110"] = System(
        2,
        Z2,
        (
            PrincipalPart(gr(0), (Z2, D10)),
            PrincipalPart(gr(1), (SWAP,)),
            PrincipalPart(gr(2), (-SWAP,)),
        ),
    )
    # (1,1,1,1): four Fuchsian poles, residues sum to zero
    c0 = Matrix.from_rows([[0, 1], [0, 1]])
    c1 = Matrix.from_rows([[0, 0], [4, -1]])
    c2 = Matrix.from_rows([[1, 0], [-1, -1]])
    out["1111"] = fuchsian({0: c0, 1: c1, 2: c2, 3: -(c0 + c1 + c2)})
    return out


@pytest.fixture
def quadruples():
    return painleve_quadruples()


def irreducible_corpus(rng, count, max_dim=3, constant="zero", require_parts=True):
    """Random irreducible pairs; constants as requested."""
    out = []
    while len(out) < count:
        sys = random_system(rng, max_dim=max_dim, constant=constant)
        if require_parts and all(
            all(c.is_zero() for c in p.coefficients) for p in sys.parts
        ):
            continue
        if sys.dimension >= 2 and not is_irreducible(sys):
            continue
        out.append(sys)
    return out


def d0_corpus(rng, count, max_dim=3, irreducible=True):
    """Random pairs with zero constant and zero residue at infinity."""
    from midconv.systems import residue_at_infinity

    out = []
    while len(out) < count:
        sys = random_system(rng, max_dim=max_dim, constant="zero")
        n = sys.dimension
        parts = list(sys.parts)
        if len(parts) < 2:
            continue
        correction = Matrix.zeros(n, n)
        for p in parts[1:]:
            correction = correction + p.coefficients[0]
        first = parts[0]
        coeffs = (-correction,) + first.coefficients[1:]
        parts[0] = PrincipalPart(first.point, coeffs)
        sys = System(n, Matrix.zeros(n, n), tuple(parts))
        if not residue_at_infinity(sys).is_zero():
            continue
        if all(all(c.is_zero() for c in p.coefficients) for p in sys.parts):
            continue
        if irreducible and n >= 2 and not is_irreducible(sys):
            continue
        if irreducible and n == 1 and all(
            all(c.is_zero() for c in p.coefficients) for p in sys.parts
        ):
            continue
        out.append(sys)
    return out


def rational_spectrum_matrix(rng, n) -> Matrix:
    """Random conjugate of a Jordan matrix with small rational eigenvalues."""
    from midconv.exactalg import invert
    from midconv.normalform import jordan_matrix

    blocks = []
    remaining = n
    while remaining:
        size = rng.randint(1, remaining)
        blocks.append((gr(rng.randint(-2, 2)), size))
        remaining -= size
    c = random_invertible(rng, n)
    return c * jordan_matrix(blocks) * invert(c)


def normal_formable_parts(rng, count, max_dim=3, max_order=3):
    """Random principal parts that admit a normal form with spectrum data
    inside Q(i): gauge transforms of explicit block models with distinct
    leading eigenvalues and Jordan-built residues."""
    parts = []
    while len(parts) < count:
        n = rng.randint(1, max_dim)
        k = rng.randint(1, max_order)
        coeffs = []
        for j in range(k):
            if j == k - 1 and k > 1:
                coeffs.append(Matrix.diagonal(rng.sample([-2, -1, 1, 2, 3], n)))
            elif j == 0 and k == 1:
                coeffs.append(rational_spectrum_matrix(rng, n))
            else:
                coeffs.append(Matrix.diagonal([rng.randint(-2, 2) for _ in range(n)]))
        model = PrincipalPart(gr(0), tuple(coeffs))
        g = random_gauge(rng, gr(0), n, k)
        parts.append(gauge_coadjoint(g, model))
    return parts


KATZ_SPECTRUM = (-2, -1, 1, 2)


def katz_path_system(rng, pole_order, choices, ranks):
    """A rigid pair reached from rank one by forward Katz steps along exactly
    the given rank path.

    The rank-one start has poles at -1, 0, 1 with residues summing to zero,
    and a pole of the given order at 0.  Each choice string has one letter
    per pole, in sorted order: 'e' shifts that pole by minus an eigenvalue
    of its residue, so the rank drops there, and 'g' by an integer from
    KATZ_SPECTRUM.  Draws that miss the path start over.
    """

    def spectral():
        return gr(rng.choice(KATZ_SPECTRUM))

    while True:
        a0, a1 = spectral(), spectral()
        at_zero = [a0] + [gr(0)] * (pole_order - 1)
        if pole_order > 1:
            at_zero[-1] = spectral()
        p = scalar_system({0: at_zero, 1: [a1], -1: [-(a0 + a1)]})
        try:
            for choice, want in zip(choices, ranks):
                shifts = {}
                for part, letter in zip(p.parts, choice):
                    if letter == "e":
                        eigenvalues = char_eigenvalues(part.coefficients[0])
                        shifts[part.point] = [-eigenvalues[rng.randrange(len(eigenvalues))][0]]
                    else:
                        shifts[part.point] = [spectral()]
                alpha = scalar_system(shifts)
                if residue_at_infinity(alpha).scalar().is_zero():
                    break
                p = katz_step(p, alpha)
                if p.dimension != want:
                    break
            else:
                return p
        except DomainError:
            continue
