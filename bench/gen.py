"""Seeded input generators for the benchmark workloads.

Every generator returns plain midconv objects; the library never sees the
seed.  Structure (rank, pole orders, output dimension, reduction path) is
fixed by the position in the pool so that the op-size band stays narrow.

In exact arithmetic the cost of one ``equivalent`` or ``katz_reduce``
swings by tens of percent with the numbers drawn, and a 20-second run
completes only a hundred or two of them, so drawing the numbers from the
seed would spread the results of different seeds wider than the
benchmark's bounds.  The ``oracle`` and ``reduce`` pools therefore draw
their systems from a fixed stream per workload, and the seed draws the
basis each system is presented in: a signed permutation, the widest basis
change that leaves the cost in place (even one unimodular shear moves it
by tens of percent).  The ``bigcoef`` and ``cli`` inputs, whose cost does
not swing so, come from the seed directly.
"""

from __future__ import annotations

import random

import midconv as M
from midconv.errors import DomainError
from midconv.exactalg import Matrix, char_eigenvalues, gr, invert
from midconv.systems import conjugate_system


def _signed_permutation(rng: random.Random, n: int) -> Matrix:
    perm = list(range(n))
    rng.shuffle(perm)
    e = [gr(0)] * (n * n)
    for i, j in enumerate(perm):
        e[i * n + j] = gr(rng.choice((-1, 1)))
    return Matrix(n, n, e)


def present(rng: random.Random, p):
    """p in a seeded signed-permutation basis."""
    return conjugate_system(_signed_permutation(rng, p.dimension), p)


# -- oracle: irreducible Fuchsian pairs with three poles ---------------------

ORACLE_LAMBDAS = (gr(1), gr(-1), gr(2), gr(0, 1))
ORACLE_POINTS = (0, 1, -1, 2)
# (rank, output dimension of the middle convolution) by pool position mod 4
ORACLE_SHAPES = ((2, 6), (2, 6), (2, 6), (3, 8))


def _small_matrix(rng: random.Random, n: int, bound: int = 1) -> Matrix:
    return Matrix.from_rows([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)])


def oracle_input(rng: random.Random, rank: int, out_dim: int):
    """(p, lam): an irreducible Fuchsian pair of the given rank whose
    two-step convolution with lam has dimension out_dim."""
    while True:
        points = rng.sample(ORACLE_POINTS, 3)
        lam = rng.choice(ORACLE_LAMBDAS)
        parts = tuple(
            M.PrincipalPart(gr(pt), (_small_matrix(rng, rank),)) for pt in points
        )
        if any(part.coefficients[0].is_zero() for part in parts):
            continue
        p = M.System(rank, Matrix.zeros(rank, rank), parts)
        if M.dr_middle_convolution(p, lam).dimension != out_dim:
            continue
        if M.is_irreducible(p):
            return p, lam


def oracle_pool(rng: random.Random, size: int):
    corpus = random.Random("oracle/corpus")
    pool = []
    for i in range(size):
        p, lam = oracle_input(corpus, *ORACLE_SHAPES[i % len(ORACLE_SHAPES)])
        pool.append((present(rng, p), lam))
    return pool


# -- reduce: rigid pairs built by forward Katz steps from rank one -----------

_SPECTRAL = (-2, -1, 1, 2)
# (order of the pole at 0, per-step choices, rank after each step).  In a
# choice string, 'e' shifts that pole by minus one of its residue's
# eigenvalues (the rank there drops) and 'g' by a generic integer.  Poles
# are taken in sorted order: -1, 0, 1.  Small integer spectra keep root
# finding, and so the cost of one reduction, in a narrow band.
REDUCE_TEMPLATES = (
    (1, ("ggg", "egg", "ggg"), (2, 3, 6)),
    (2, ("ggg", "egg"), (3, 6)),
    (1, ("ggg", "egg", "ggg"), (2, 3, 6)),
    (3, ("ggg", "egg"), (4, 7)),
)


def _spectral(rng: random.Random):
    return gr(rng.choice(_SPECTRAL))


def _rank_one(rng: random.Random, pole_order: int):
    """Rank-1 pair in d0: poles at -1, 0, 1, residues summing to zero,
    and a pole of the given order at 0."""
    a0, a1 = _spectral(rng), _spectral(rng)
    at_zero = [a0] + [gr(0)] * (pole_order - 1)
    if pole_order > 1:
        at_zero[-1] = _spectral(rng)
    return M.scalar_system({0: at_zero, 1: [a1], -1: [-(a0 + a1)]})


def _forward_step(rng: random.Random, p, choice: str):
    shifts = {}
    for part, ch in zip(p.parts, choice):
        if ch == "e":
            eigs = char_eigenvalues(part.coefficients[0])
            shifts[part.point] = [-eigs[rng.randrange(len(eigs))][0]]
        else:
            shifts[part.point] = [_spectral(rng)]
    alpha = M.scalar_system(shifts)
    if M.residue_at_infinity(alpha).scalar().is_zero():
        return None
    return M.katz_step(p, alpha)


def reduce_input(rng: random.Random, pole_order: int, choices, ranks):
    """A pair reached from rank one along exactly the given rank path."""
    while True:
        p = _rank_one(rng, pole_order)
        try:
            for choice, want in zip(choices, ranks):
                p = _forward_step(rng, p, choice)
                if p is None or p.dimension != want:
                    break
            else:
                return p
        except DomainError:
            continue


def reduce_pool(rng: random.Random, size: int):
    corpus = random.Random("reduce/corpus")
    return [
        present(rng, reduce_input(corpus, *REDUCE_TEMPLATES[i % len(REDUCE_TEMPLATES)]))
        for i in range(size)
    ]


# -- bigcoef: irregular pairs with 64-bit Gaussian-integer coefficients ------

BIGCOEF_RANKS = (3, 3, 3, 4)
BIGCOEF_POLE_ORDERS = ((0, 3), (1, 2))  # (point, order)
_BIGCOEF_SPECTRUM = tuple(
    gr(a) / gr(b) for a in (-3, -2, -1, 1, 2, 3) for b in (1, 2) if b == 1 or a % 2
)


def _gaussian64(rng: random.Random):
    return gr(rng.randrange(-(2**63), 2**63), rng.randrange(-(2**63), 2**63))


def _unimodular(rng: random.Random, n: int) -> Matrix:
    """Product of 2n elementary integer matrices: determinant 1."""
    m = Matrix.identity(n)
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        e = [gr(1) if a == b else gr(0) for a in range(n) for b in range(n)]
        e[i * n + j] = gr(rng.choice((-2, -1, 1, 2)))
        m = m * Matrix(n, n, e)
    return m


def bigcoef_input(rng: random.Random, n: int):
    """(p, alpha): constant term C J C^-1 with J a Jordan matrix of small
    rational spectrum and one 2-block at s; alpha = c / (z - s)."""
    spectrum = rng.sample(_BIGCOEF_SPECTRUM, n - 1)
    s = spectrum[0]
    diag = [s] + spectrum
    j = [gr(0)] * (n * n)
    for i in range(n):
        j[i * n + i] = diag[i]
    j[1] = gr(1)
    c = _unimodular(rng, n)
    constant = c * Matrix(n, n, j) * invert(c)
    parts = tuple(
        M.PrincipalPart(
            gr(pt),
            tuple(Matrix(n, n, [_gaussian64(rng) for _ in range(n * n)]) for _ in range(k)),
        )
        for pt, k in BIGCOEF_POLE_ORDERS
    )
    weight = gr(rng.choice((-2, -1, 1, 2, 3))) / gr(rng.choice((1, 2)))
    return M.System(n, constant, parts), M.scalar_system({s: [weight]})


def bigcoef_pool(rng: random.Random, size: int):
    return [bigcoef_input(rng, BIGCOEF_RANKS[i % len(BIGCOEF_RANKS)]) for i in range(size)]
