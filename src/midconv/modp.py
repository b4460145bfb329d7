"""All arithmetic mod a prime: over F_p for the certificates, over Z[i] mod
p^(2^k) for the root candidates of ``exactalg.qi_roots``, and the
field-free ``spin``.  It imports nothing from midconv and reads a Gaussian
rational only as its integer triple (p, q, r), a Gaussian integer as a pair
(re, im).  Vectors are lists of ints, n x n matrices flat row-major lists
of ints in [0, p), polynomials lists of ascending coefficients.  True from
a certificate proves the claim over Q(i), as rank can only drop under
reduction mod p, so any prime p = 1 (mod 4) that divides no denominator is
sound, and the primes are chosen for cost: a root split in the MeatAxe
takes one squaring mod a polynomial per bit of (p-1)/2."""

from __future__ import annotations

import random
from functools import partial
from math import isqrt
from typing import Optional, Sequence

__all__ = ["spin", "certified_invertible", "certified_full", "zi_root_candidates"]

# Primes p = 1 (mod 4), each with its square root of -1 mod p: the image of i.
# The Fermat prime 257 first: (p-1)/2 = 2^7, so a root split costs 8 squarings
# and one product where 10^9+9, tried next, costs 29 and 14; a small prime
# only certifies less often.
_CERT_PRIMES = ((257, 16), (1_000_000_009, 430_477_711))
# The dimension from which _full_mod runs the MeatAxe instead of the word span
_MEATAXE_DIM = 5
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
    invertible by its rank mod the first prime of ``_CERT_PRIMES``: False
    when that prime divides a denominator or m is singular mod it.

    Rows are reduced and inserted last first, and the first dependent one
    ends the pass: a hat matrix is block upper triangular, so its last
    rows are its shortest, and it is singular exactly when its last block
    row is.
    """
    p, s = _CERT_PRIMES[0]
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


def _rem_mod(a: list[int], f: list[int], p: int) -> list[int]:
    """a mod the monic f over F_p (ascending coefficients), without zero top
    coefficients."""
    a = list(a)
    d = len(f) - 1
    for k in range(len(a) - 1, d - 1, -1):
        c = a.pop() % p
        if c:
            for j in range(d):
                a[k - d + j] -= c * f[j]
    a = [x % p for x in a]
    while a and not a[-1]:
        a.pop()
    return a


def _polymul(a: list[int], b: list[int]) -> list[int]:
    """The product of two nonempty integer polynomials (ascending coefficients)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for k, y in enumerate(b, i):
            out[k] += x * y
    return out


def _gcd_mod(a: list[int], f: list[int], p: int) -> list[int]:
    """The monic gcd over F_p of a and the monic f."""
    a = _rem_mod(a, f, p)
    while a:
        inv = pow(a[-1], -1, p)
        monic = [x * inv % p for x in a]
        a, f = _rem_mod(f, monic, p), monic
    return f


def _root_mod(f: list[int], p: int, rng: random.Random) -> Optional[int]:
    """A root in F_p of the monic f over F_p, or None if it has none.

    Equal-degree splitting of f itself, until a linear factor is left: for
    a random d with f(-d) != 0, h = (x + d)^((p-1)/2) mod f is 1 or -1 at
    each root r in F_p, by whether r + d is a square, and neither at a root
    outside F_p, whose r + d has no (p-1)-th power 1.  So gcd(h - 1, f) and
    gcd(h + 1, f) split the roots in F_p between them and share none outside
    it (one squaring chain does the work of gcd(x^p - x, f) and of the first
    split); the smaller nontrivial one is split again.
    """
    while len(f) > 2:
        d = rng.randrange(p)
        if not _rem_mod(f, [d, 1], p):
            return -d % p
        # h is a unit mod f, as f(-d) != 0, so never the zero list
        h = [1]
        for bit in bin((p - 1) // 2)[2:]:
            h = _rem_mod(_polymul(h, h), f, p)
            if bit == "1":
                h = _rem_mod(_polymul(h, [d, 1]), f, p)
        factors = [g for g in (_gcd_mod([h[0] + c] + h[1:], f, p) for c in (-1, 1)) if len(g) > 1]
        if not factors:
            return None
        f = min(factors, key=len)
    return -f[0] % p


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
    dimension one; lam is a root in F_p of the minimal polynomial of a
    random vector under theta.  Then V = F_p^n is irreducible if v in that
    kernel spins to V under red and w in Ker(theta - lam)^T spins to V
    under the transposes.  A proper submodule W would miss v, so theta - lam would be
    invertible on W and singular on V/W, and the annihilator of W would
    contain w.  End_A(V) is then a field commuting with theta, so it acts on
    the one-dimensional kernel, and is F_p: V is absolutely irreducible and,
    by Burnside's theorem, A = M_n(F_p).  A short spin, or no such lam in
    ``_DRAWS`` draws, gives False.
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
        # of u under theta, whose roots are eigenvalues of theta
        poly = _left_kernel_mod(krylov, p)[0]
        while not poly[-1]:
            poly.pop()
        lam = _root_mod([x * pow(poly[-1], -1, p) % p for x in poly], p, rng)
        if lam is None:
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


def _word_span_mod(n: int, red: list[list[int]], p: int) -> bool:
    """Whether the words in the flat matrices red span M_n(F_p), as in the
    exact closure of ``systems.is_irreducible``."""
    one = [int(k % (n + 1) == 0) for k in range(n * n)]
    words, _ = spin(
        [one], red, lambda g, w: _matmul_mod(w, g, n, p), partial(_echelon_insert_mod, p=p), n * n
    )
    return len(words) == n * n


def _full_mod(n: int, gens: list, p: int, s: int) -> Optional[bool]:
    """Whether the algebra of gens mod p, with i -> s, is certified to be all
    of M_n(F_p); None if p divides a denominator.  The MeatAxe decides from
    dimension ``_MEATAXE_DIM`` on; below it, where n^2 words cost less than
    its root finding, or when every generator vanishes mod p, the word span does."""
    red = _reduce_mod(gens, p, s)
    if red is None:
        return None
    if n >= _MEATAXE_DIM and red:
        return _meataxe_mod(n, red, p)
    return _word_span_mod(n, red, p)


def certified_full(n: int, gens: list) -> bool:
    """Whether ``_full_mod`` certifies the flat n x n gens at some prime."""
    return any(_full_mod(n, gens, p, s) for p, s in _CERT_PRIMES)
