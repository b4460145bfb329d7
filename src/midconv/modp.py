"""All arithmetic mod a prime: over F_p for the certificates, over Z[i] mod
p^(2^k) for the root candidates of ``exactalg.qi_roots``, and the
field-free ``spin``.  It imports nothing from midconv and reads a Gaussian
rational only as its integer triple (p, q, r), a Gaussian integer as a pair
(re, im).  Vectors are lists of ints, n x n matrices flat row-major lists
of ints in [0, p), polynomials lists of ascending coefficients.  True from
a certificate, ``certified_invertible`` or the MeatAxe of ``certified_full``,
proves its claim over Q(i), as rank can only drop under reduction mod p, so
any prime p = 1 (mod 4) that divides no denominator is sound; the one prime,
257, is small enough that the MeatAxe finds an eigenvalue by trying every
element of F_p."""

from __future__ import annotations

import random
from functools import partial
from math import isqrt
from typing import Optional, Sequence

__all__ = ["spin", "certified_invertible", "certified_full", "zi_root_candidates"]

# The certificate prime p = 1 (mod 4) and its square root of -1 mod p, the
# image of i.  The MeatAxe scans all of F_p for an eigenvalue, so p is small;
# a smaller one certifies less often, and a miss goes to the exact closure.
_CERT_PRIME = (257, 16)
# The dimension from which the MeatAxe is cheaper than the exact word-span
# closure of systems.is_irreducible, which alone decides below it
_MEATAXE_DIM = 4
# Random algebra elements _meataxe_mod draws before it gives up
_DRAWS = 8


def spin(seeds, gens, act, insert, full: int):
    """The span of the seeds under the generators, breadth first.

    Each seed that is not yet in the span is inserted and spun: ``act(g,
    e)`` is inserted for every inserted element e in turn and every
    generator g, until the span stops growing.  ``insert(rows, pivots, e)``
    reduces e against the echelon rows and says whether it was independent
    (``echelon_insert`` or a twin over another field).  The spin stops as
    soon as ``full`` elements are in.  Returns the inserted elements and
    their tree: None for a seed, (j, i) when element k is act(gens[i],
    element j).
    """
    rows, pivots, elems, tree = [], [], [], []
    for seed in seeds:
        if len(elems) < full and insert(rows, pivots, seed):
            j = len(elems)
            elems.append(seed)
            tree.append(None)
            while j < len(elems) < full:
                for i, g in enumerate(gens):
                    e = act(g, elems[j])
                    if insert(rows, pivots, e):
                        elems.append(e)
                        tree.append((j, i))
                        if len(elems) == full:
                            break
                j += 1
    return elems, tree


def _echelon_insert_mod(rows: list, pivots: list[int], vec: list[int], p: int) -> bool:
    """``echelon_insert`` over F_p, on lists of ints in [0, p); entries of
    vec are reduced mod p only when read as a multiplier and at the end."""
    v = list(vec)
    for row, c in zip(rows, pivots):
        f = v[c] % p
        if f:
            v[c:] = [x - f * y for x, y in zip(v[c:], row[c:])]
    v = [x % p for x in v]
    for lead, x in enumerate(v):
        if x:
            break
    else:
        return False
    inv = pow(x, -1, p)
    rows.append([y * inv % p for y in v])
    pivots.append(lead)
    return True


def _reduce_mod(gens: list, p: int, s: int) -> Optional[list[list[int]]]:
    """The Gaussian-rational matrices gens, as flat entry lists, mod p with
    i -> s, those that are zero mod p dropped; None if p divides a denominator."""
    if any(x.r % p == 0 for g in gens for x in g):
        return None
    red = [[(x.p + x.q * s) * pow(x.r, -1, p) % p for x in g] for g in gens]
    return [g for g in red if any(g)]


def certified_invertible(n: int, entries: Sequence) -> bool:
    """Whether the n x n matrix m with these row-major entries is certified
    invertible by its rank mod ``_CERT_PRIME``: False when that prime
    divides a denominator or m is singular mod it.

    Rows are reduced and inserted last first, and the first dependent one
    ends the pass: a hat matrix is block upper triangular, so its last
    rows are its shortest, and it is singular exactly when its last block
    row is.
    """
    p, s = _CERT_PRIME
    rows: list = []
    pivots: list[int] = []
    for i in range(n - 1, -1, -1):
        red = _reduce_mod([entries[i * n : (i + 1) * n]], p, s)
        if not red or not _echelon_insert_mod(rows, pivots, red[0], p):
            return False
    return True


def _matmul_mod(a: list[int], b: list[int], n: int, p: int) -> list[int]:
    """The product of two n x n matrices over F_p, as flat row-major lists."""
    cols = [b[j::n] for j in range(n)]
    return [sum(map(int.__mul__, a[i : i + n], c)) % p for i in range(0, n * n, n) for c in cols]


def _zi_eval(coeffs, x, m):
    """Value at x of a polynomial with Z[i] coefficients (pairs), mod m."""
    xr, xi = x
    ar = ai = 0
    for cr, ci in reversed(coeffs):
        ar, ai = (ar * xr - ai * xi + cr) % m, (ar * xi + ai * xr + ci) % m
    return ar, ai


def _inert_primes():
    """Primes p = 3 (mod 4), ascending; Z[i]/p is a field."""
    p = 3
    while True:
        if all(p % d for d in range(3, isqrt(p) + 1, 2)):
            yield p
        p += 4


def zi_root_candidates(g):
    """Gaussian integers that include every Z[i] root of g, a squarefree
    monic polynomial over Z[i] given as ascending (re, im) pairs.

    Every root mod p is simple at the first p that does not divide the
    discriminant; Newton's iteration then lifts it mod p^(2^k) past twice
    the Cauchy bound.  Lifts of roots outside Z[i] are returned as well.
    """
    dg = [(k * a, k * b) for k, (a, b) in enumerate(g)][1:]
    bound = 1 + max(abs(a) + abs(b) for a, b in g[:-1])
    for p in _inert_primes():
        roots = [(a, b) for a in range(p) for b in range(p) if _zi_eval(g, (a, b), p) == (0, 0)]
        if any(_zi_eval(dg, r, p) == (0, 0) for r in roots):
            continue
        q = p
        while q <= 2 * bound:
            q *= q
            lifted = []
            for r in roots:
                fr, fi = _zi_eval(g, r, q)
                dr, di = _zi_eval(dg, r, q)
                inv = pow(dr * dr + di * di, -1, q)
                # r - f(r) / g'(r), with 1/g'(r) = conj(g'(r)) / |g'(r)|^2
                lifted.append(((r[0] - (fr * dr + fi * di) * inv) % q,
                               (r[1] - (fi * dr - fr * di) * inv) % q))
            roots = lifted
        return [tuple(c - q if 2 * c > q else c for c in r) for r in roots]


def _left_kernel_mod(rows: list[list[int]], p: int) -> list[list[int]]:
    """A basis of {w : w m = 0} over F_p, for the matrix m with these rows,
    in echelon form: each row is inserted beside its unit vector, and a row
    whose m part reduces to zero leaves its combination."""
    k, n = len(rows), len(rows[0])
    ech: list = []
    pivots: list[int] = []
    for i, r in enumerate(rows):
        _echelon_insert_mod(ech, pivots, r + [int(j == i) for j in range(k)], p)
    return [e[n:] for e, c in zip(ech, pivots) if c >= n]


def _meataxe_mod(n: int, red: list[list[int]], p: int) -> bool:
    """Whether Norton's test with a degree-1 factor (the MeatAxe of Holt and
    Rees) certifies that the nonzero flat matrices red generate M_n(F_p).

    A random element theta of their algebra A, drawn from a generator
    seeded by p, is tried until some lam in F_p has Ker(theta - lam) of
    dimension one; lam is the least root in F_p of the minimal polynomial
    of a random vector under theta, found by evaluating it at each x in turn.
    Then V = F_p^n is irreducible if v in that kernel spins to V under red
    and w in Ker(theta - lam)^T spins to V under the transposes.  A proper
    submodule W would miss v, so theta - lam would be invertible on W and
    singular on V/W, and the annihilator of W would contain w.  End_A(V) is
    then a field commuting with theta, so it acts on the one-dimensional
    kernel, and is F_p: V is absolutely irreducible and, by Burnside's
    theorem, A = M_n(F_p).  A short spin, or no such lam in ``_DRAWS``
    draws, gives False.
    """
    rows = [[g[i : i + n] for i in range(0, n * n, n)] for g in red]
    cols = [[g[j::n] for j in range(n)] for g in red]

    def act(g: list[list[int]], v: list[int]) -> list[int]:
        return [sum(map(int.__mul__, r, v)) % p for r in g]

    insert = partial(_echelon_insert_mod, p=p)
    rng = random.Random(p)
    words = list(red)
    for _ in range(_DRAWS):
        words.append(_matmul_mod(rng.choice(words), rng.choice(words), n, p))
        coeffs = [rng.randrange(p) for _ in words]
        theta = [sum(map(int.__mul__, coeffs, entry)) % p for entry in zip(*words)]
        by_rows = [theta[i : i + n] for i in range(0, n * n, n)]
        krylov = [[1] + [rng.randrange(p) for _ in range(n - 1)]]
        while len(krylov) <= n:
            krylov.append(act(by_rows, krylov[-1]))
        # the first dependency among u, theta u, .. is the minimal polynomial
        # of u under theta, whose roots are eigenvalues of theta; lam is the
        # least of them, by Horner's rule at x = 0, 1, .., p - 1
        poly = _left_kernel_mod(krylov, p)[0][::-1]
        for lam in range(p):
            value = 0
            for c in poly:
                value = value * lam + c
            if not value % p:
                break
        else:
            continue
        shifted = [x - lam if k % (n + 1) == 0 else x for k, x in enumerate(theta)]
        right = _left_kernel_mod([shifted[j::n] for j in range(n)], p)
        if len(right) != 1:
            continue
        if len(spin(right, rows, act, insert, n)[0]) < n:
            return False
        left = _left_kernel_mod([shifted[i : i + n] for i in range(0, n * n, n)], p)
        return len(spin(left, cols, act, insert, n)[0]) == n
    return False


def _full_mod(n: int, gens: list, p: int, s: int) -> Optional[bool]:
    """Whether the MeatAxe certifies that the algebra of gens mod p, with
    i -> s, is all of M_n(F_p); None if p divides a denominator, False when
    every generator vanishes mod p."""
    red = _reduce_mod(gens, p, s)
    if red is None:
        return None
    return bool(red) and _meataxe_mod(n, red, p)


def certified_full(n: int, gens: list) -> bool:
    """Whether ``_full_mod`` certifies the flat n x n gens at ``_CERT_PRIME``;
    False below ``_MEATAXE_DIM``, where the exact closure is the cheaper test."""
    return n >= _MEATAXE_DIM and bool(_full_mod(n, gens, *_CERT_PRIME))
