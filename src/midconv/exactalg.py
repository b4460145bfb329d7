"""Exact linear algebra over the Gaussian rationals Q(i).

Scalars are reduced integer triples (p + q i)/r; matrices are dense and
immutable.  Everything downstream (gauge actions, canonical data, duality,
rigidity) reduces to the primitives here: the reduced row echelon form,
exact linear solves, eigenvalue extraction inside Q(i), and
nilpotent/commutant structure.  No floating point is used anywhere.

All exact elimination is one step, ``echelon_insert``, and every row
operation is one kernel, ``_sub_mul``.  Kernels, quotients and solutions
are read off the reduced row echelon form, which is unique for each
matrix, so repeated runs produce byte-identical bases whatever order the
elimination runs in.  The uniqueness allows one shortcut: a square matrix
of full rank mod a prime is invertible, its reduced echelon form is the
identity, and ``_row_reduce`` returns that without eliminating.  A
matrix that is not square, is singular mod the prime or has a denominator
the prime divides is eliminated exactly, and so, with no pass mod p, is a
matrix that is singular by construction.  All arithmetic mod p is in
``modp``: that certificate, and the root candidates ``qi_roots`` certifies
by exact deflation.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from .errors import DimensionMismatch, IrrationalSpectrum, NotNilpotent
from .modp import certified_invertible, spin, zi_root_candidates

__all__ = [
    "GaussianRational",
    "Matrix",
    "gr",
    "echelon_insert",
    "rank",
    "kernel_basis",
    "quotient_projection",
    "solve",
    "invert",
    "char_poly",
    "char_eigenvalues",
    "qi_roots",
    "nilpotent_partition",
    "nilpotent_powers",
    "generalized_eigendecomposition",
    "sylvester_operator",
    "hat_matrix",
    "intertwiner_basis",
]


class GaussianRational:
    """A number a + b*i with rational a, b, always kept reduced.

    Stored as one integer triple (p + q*i)/r with r > 0 and
    gcd(p, q, r) = 1, so every arithmetic step pays a single gcd.
    """

    __slots__ = ("p", "q", "r")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            p, q, r = re, im, 1
        elif isinstance(re, GaussianRational) or isinstance(im, GaussianRational):
            # re + im*i, with im*i = (-im.q + im.p i)/im.r
            im = _coerce(im)
            z = _coerce(re) + GaussianRational._make(-im.q, im.p, im.r)
            p, q, r = z.p, z.q, z.r
        elif not isinstance(re, (int, Fraction)) or not isinstance(im, (int, Fraction)):
            raise TypeError(f"cannot make a GaussianRational of {type(re).__name__}, {type(im).__name__}")
        else:
            re = re if type(re) is Fraction else Fraction(re)
            im = im if type(im) is Fraction else Fraction(im)
            r = re.denominator * im.denominator // gcd(re.denominator, im.denominator)
            p = re.numerator * (r // re.denominator)
            q = im.numerator * (r // im.denominator)
        _set_p(self, p)
        _set_q(self, q)
        _set_r(self, r)

    @staticmethod
    def _make(p: int, q: int, r: int) -> "GaussianRational":
        if r != 1:
            if r < 0:
                p, q, r = -p, -q, -r
            g = gcd(r, p, q)  # r first: usually the shortest, so the gcd reaches 1 early
            if g > 1:
                p //= g
                q //= g
                r //= g
        self = object.__new__(GaussianRational)
        _set_p(self, p)
        _set_q(self, q)
        _set_r(self, r)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self.p, self.r)

    @property
    def im(self) -> Fraction:
        return Fraction(self.q, self.r)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce_or_none(other)
            if other is None:
                return NotImplemented
        r1, r2 = self.r, other.r
        if r1 == r2:
            return GaussianRational._make(self.p + other.p, self.q + other.q, r1)
        return GaussianRational._make(
            self.p * r2 + other.p * r1, self.q * r2 + other.q * r1, r1 * r2
        )

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce_or_none(other)
            if other is None:
                return NotImplemented
        r1, r2 = self.r, other.r
        if r1 == r2:
            return GaussianRational._make(self.p - other.p, self.q - other.q, r1)
        return GaussianRational._make(
            self.p * r2 - other.p * r1, self.q * r2 - other.q * r1, r1 * r2
        )

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce_or_none(other)
            if other is None:
                return NotImplemented
        if self.q == 0 and other.q == 0:
            return GaussianRational._make(self.p * other.p, 0, self.r * other.r)
        return GaussianRational._make(
            self.p * other.p - self.q * other.q,
            self.p * other.q + self.q * other.p,
            self.r * other.r,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        n = other.p * other.p + other.q * other.q
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational._make(
            (self.p * other.p + self.q * other.q) * other.r,
            (self.q * other.p - self.p * other.q) * other.r,
            self.r * n,
        )

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __neg__(self):
        out = object.__new__(GaussianRational)
        _set_p(out, -self.p)
        _set_q(out, -self.q)
        _set_r(out, self.r)
        return out

    def inverse(self) -> "GaussianRational":
        n = self.p * self.p + self.q * self.q
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational._make(self.p * self.r, -self.q * self.r, n)

    # -- structure --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    def sort_key(self):
        # ints compare with Fractions, so an integer key orders the same way
        return (self.p, self.q) if self.r == 1 else (Fraction(self.p, self.r), Fraction(self.q, self.r))

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.p == other.p and self.q == other.q and self.r == other.r
        if isinstance(other, int):
            return self.q == 0 and self.r == 1 and self.p == other
        if isinstance(other, Fraction):
            return self.q == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        # a real value equals the int or Fraction with the same value, so it hashes like one
        return hash((self.p, self.q, self.r)) if self.q else hash(self.p if self.r == 1 else self.re)

    def __repr__(self):
        largest = max(abs(self.p), abs(self.q), self.r)
        if largest >= _DIGITS_BOUND:
            return f"<a number of {largest.bit_length()} bits>"
        if self.q == 0:
            return str(self.re)
        if self.p == 0:
            return f"{self.im}i"
        sign = "+" if self.q > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


# the slot setters, which bypass the __setattr__ that keeps instances immutable
_set_p, _set_q, _set_r = GaussianRational.p.__set__, GaussianRational.q.__set__, GaussianRational.r.__set__


def gr(re=0, im=0) -> GaussianRational:
    """re + im*i, for ints, Fractions or GaussianRationals."""
    if isinstance(re, GaussianRational) and type(im) is int and not im:
        return re
    return GaussianRational(re, im)


# CPython refuses int <-> str conversions of more than this many decimal
# digits by default (3.11 on, and 3.10 from 3.10.7); documents refuse such
# integers, and a GaussianRational's repr gives its size instead
_MAX_DIGITS = 4300
_DIGITS_BOUND = 10**_MAX_DIGITS


def _coerce_or_none(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    return None


def _coerce(x) -> GaussianRational:
    c = _coerce_or_none(x)
    if c is None:
        raise TypeError(f"cannot coerce {type(x).__name__} to GaussianRational")
    return c


_ZERO = GaussianRational(0)
_ONE = GaussianRational(1)


class Matrix:
    """Dense immutable matrix over GaussianRational, row-major storage."""

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, rows: int, cols: int, entries: Sequence[GaussianRational]):
        if len(entries) != rows * cols:
            raise DimensionMismatch(f"{rows}x{cols} matrix needs {rows * cols} entries")
        _set_rows(self, rows)
        _set_cols(self, cols)
        _set_e(self, tuple(entries))

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        ents = []
        for row in rows:
            if len(row) != c:
                raise DimensionMismatch("ragged rows")
            ents.extend(_coerce(x) if not isinstance(x, GaussianRational) else x for x in row)
        return Matrix(r, c, ents)

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, [_ZERO] * (rows * cols))

    @staticmethod
    def identity(n: int) -> "Matrix":
        ents = [_ZERO] * (n * n)
        ents[:: n + 1] = [_ONE] * n
        return Matrix(n, n, ents)

    @staticmethod
    def diagonal(values: Sequence) -> "Matrix":
        n = len(values)
        ents = [_ZERO] * (n * n)
        for i, v in enumerate(values):
            ents[i * n + i] = _coerce(v)
        return Matrix(n, n, ents)

    @staticmethod
    def column(values: Sequence) -> "Matrix":
        return Matrix(len(values), 1, [_coerce(v) for v in values])

    @staticmethod
    def hstack(mats: Sequence["Matrix"]) -> "Matrix":
        if not mats:
            return Matrix.zeros(0, 0)
        if len(mats) == 1:
            return mats[0]
        r = mats[0].rows
        if any(m.rows != r for m in mats):
            raise DimensionMismatch("hstack row mismatch")
        ents = []
        for i in range(r):
            for m in mats:
                ents.extend(m._e[i * m.cols : (i + 1) * m.cols])
        return Matrix(r, sum(m.cols for m in mats), ents)

    @staticmethod
    def vstack(mats: Sequence["Matrix"]) -> "Matrix":
        if not mats:
            return Matrix.zeros(0, 0)
        if len(mats) == 1:
            return mats[0]
        c = mats[0].cols
        if any(m.cols != c for m in mats):
            raise DimensionMismatch("vstack column mismatch")
        ents = []
        for m in mats:
            ents.extend(m._e)
        return Matrix(sum(m.rows for m in mats), c, ents)

    @staticmethod
    def block_diagonal(mats: Sequence["Matrix"]) -> "Matrix":
        if len(mats) == 1:
            return mats[0]
        r = sum(m.rows for m in mats)
        c = sum(m.cols for m in mats)
        ents = [_ZERO] * (r * c)
        i0 = j0 = 0
        for m in mats:
            for i in range(m.rows):
                start = (i0 + i) * c + j0
                ents[start : start + m.cols] = m._e[i * m.cols : (i + 1) * m.cols]
            i0 += m.rows
            j0 += m.cols
        return Matrix(r, c, ents)

    # -- access -----------------------------------------------------------

    def __getitem__(self, key) -> GaussianRational:
        i, j = key
        return self._e[i * self.cols + j]

    def row_list(self, i: int):
        return list(self._e[i * self.cols : (i + 1) * self.cols])

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "Matrix":
        if (c0, c1) == (0, self.cols):
            # whole rows are one slice, and the whole matrix, immutable, is its own copy
            return self if (r0, r1) == (0, self.rows) else Matrix(r1 - r0, c1, self._e[r0 * c1 : r1 * c1])
        ents = []
        for i in range(r0, r1):
            ents.extend(self._e[i * self.cols + c0 : i * self.cols + c1])
        return Matrix(r1 - r0, c1 - c0, ents)

    def select_columns(self, indices: Sequence[int]) -> "Matrix":
        """The columns of self at the given indices, in that order."""
        ents = [self._e[i * self.cols + j] for i in range(self.rows) for j in indices]
        return Matrix(self.rows, len(indices), ents)

    def entries(self):
        return self._e

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(self.rows, self.cols, [a + b for a, b in zip(self._e, other._e)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(self.rows, self.cols, [a - b for a, b in zip(self._e, other._e)])

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, [-a for a in self._e])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise DimensionMismatch(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
                )
            n, m, p = self.rows, self.cols, other.cols
            a_e, b_e, make = self._e, other._e, GaussianRational._make
            ents = [_ZERO] * (n * p)
            for i in range(n):
                # row i accumulates as integer triples (P + Q i)/R, normalized once at the end
                P, Q, R = [0] * p, [0] * p, [1] * p
                for k in range(m):
                    a = a_e[i * m + k]
                    ap, aq, ar = a.p, a.q, a.r
                    if not (ap or aq):
                        continue
                    for j, b in enumerate(b_e[k * p : (k + 1) * p]):
                        bp, bq = b.p, b.q
                        if bp or bq:
                            xp, xq, xr = ap * bp - aq * bq, ap * bq + aq * bp, ar * b.r
                            r = R[j]
                            if r == xr:
                                P[j] += xp
                                Q[j] += xq
                            else:
                                P[j] = P[j] * xr + xp * r
                                Q[j] = Q[j] * xr + xq * r
                                R[j] = r * xr
                base = i * p
                for j in range(p):
                    if P[j] or Q[j]:
                        ents[base + j] = make(P[j], Q[j], R[j])
            return Matrix(n, p, ents)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, s) -> "Matrix":
        s = _coerce(s)
        return Matrix(self.rows, self.cols, [s * a for a in self._e])

    def shift(self, c) -> "Matrix":
        """self + c*I for square self; only the diagonal changes, a zero
        entry to c itself, and self is returned as it is for c = 0."""
        if self.rows != self.cols:
            raise DimensionMismatch("shift of non-square matrix")
        c = _coerce(c)
        if not (c.p or c.q):
            return self
        ents = list(self._e)
        ents[:: self.cols + 1] = [e + c if e.p or e.q else c for e in ents[:: self.cols + 1]]
        return Matrix(self.rows, self.cols, ents)

    def transpose(self) -> "Matrix":
        ents = [self._e[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)]
        return Matrix(self.cols, self.rows, ents)

    def trace(self) -> GaussianRational:
        if self.rows != self.cols:
            raise DimensionMismatch("trace of non-square matrix")
        t = _ZERO
        for i in range(self.rows):
            t = t + self._e[i * self.cols + i]
        return t

    def is_zero(self) -> bool:
        for a in self._e:
            if a.p or a.q:
                return False
        return True

    def is_square(self) -> bool:
        return self.rows == self.cols

    def scalar(self) -> GaussianRational:
        if self.rows != 1 or self.cols != 1:
            raise DimensionMismatch("scalar() needs a 1x1 matrix")
        return self._e[0]

    def _same_shape(self, other: "Matrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self._e == other._e

    def __hash__(self):
        return hash((self.rows, self.cols, self._e))

    def __repr__(self):
        rows = ["[" + ", ".join(repr(x) for x in self.row_list(i)) + "]" for i in range(self.rows)]
        return "Matrix([" + ", ".join(rows) + "])"


# the slot setters, as for GaussianRational: cheaper than object.__setattr__
_set_rows, _set_cols, _set_e = Matrix.rows.__set__, Matrix.cols.__set__, Matrix._e.__set__


# ---------------------------------------------------------------------------
# Row reduction and solving
# ---------------------------------------------------------------------------


def _sub_mul(v: list, f: GaussianRational, row, start: int) -> None:
    """v[start + j] -= f * row[j] for every j: the one row operation.

    Each touched entry is formed as one integer triple and normalized once;
    zero entries of row are skipped.
    """
    fp, fq, fr = f.p, f.q, f.r
    make = GaussianRational._make
    for j, b in enumerate(row, start):
        bp, bq = b.p, b.q
        if bp or bq:
            x = v[j]
            yp, yq, yr = fp * bp - fq * bq, fp * bq + fq * bp, fr * b.r
            r = x.r
            if r == yr:
                v[j] = make(x.p - yp, x.q - yq, r)
            else:
                v[j] = make(x.p * yr - yp * r, x.q * yr - yq * r, r * yr)


def echelon_insert(rows: list, pivots: list[int], vec) -> bool:
    """Reduce vec against the echelon rows; append it, pivot scaled to 1,
    if it is independent of them.

    rows[k] has a 1 at column pivots[k], is zero before it and is zero at
    the pivots of the rows inserted before it, so one pass in insertion
    order clears every pivot column of vec.
    """
    v = list(vec)
    for row, c in zip(rows, pivots):
        f = v[c]
        if f.p or f.q:
            _sub_mul(v, f, row[c:], c)
    for lead, x in enumerate(v):
        if x.p or x.q:
            break
    else:
        return False
    inv = x.inverse()
    v[lead:] = [inv * e if e.p or e.q else e for e in v[lead:]]
    rows.append(v)
    pivots.append(lead)
    return True


def _echelon_rows(m: Matrix):
    """A row echelon basis of the row space of m, in insertion order."""
    rows: list[list[GaussianRational]] = []
    pivots: list[int] = []
    for i in range(m.rows):
        echelon_insert(rows, pivots, m.row_list(i))
    return rows, pivots


def _reduce_rows(rows: list, pivots: list[int]):
    """(pivot columns, rows) of the reduced echelon form of the span of
    ``echelon_insert``'s rows, reduced in place and sorted by pivot.  Each
    pivot column is cleared from the earlier rows, last inserted row first:
    a row is zero at the pivots of the rows inserted before it, so a
    cleared column never refills, and the rows stay valid for inserts.
    """
    for k in range(len(rows) - 1, 0, -1):
        c = pivots[k]
        tail = rows[k][c:]
        for row_i in rows[:k]:
            f = row_i[c]
            if f.p or f.q:
                _sub_mul(row_i, f, tail, c)
    order = sorted(range(len(rows)), key=pivots.__getitem__)
    return [pivots[k] for k in order], [rows[k] for k in order]


def _eliminate(m: Matrix):
    """``_row_reduce`` with no mod-p pass, for m singular by construction."""
    return _reduce_rows(*_echelon_rows(m))


def _row_reduce(m: Matrix):
    """The reduced row echelon form of m; returns (pivot columns, nonzero rows).

    A matrix has exactly one reduced echelon form, so the result does not
    depend on the order in which the elimination runs.

    A square m that ``certified_invertible`` certifies reduces to the identity,
    returned with no elimination; any other m is eliminated exactly.
    """
    n = m.rows
    if n == m.cols and certified_invertible(n, m.entries()):
        return list(range(n)), [[_ONE if j == i else _ZERO for j in range(n)] for i in range(n)]
    return _eliminate(m)


def rank(m: Matrix) -> int:
    return len(_echelon_rows(m)[0])


def _kernel(cols: int, pivots: list[int], grid) -> list[Matrix]:
    """Echelon-normalized basis of the kernel of the reduced echelon form
    (pivots, grid) with cols columns: one vector per free column."""
    pivot_set = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        vec = [_ZERO] * cols
        vec[free] = _ONE
        for row, pc in enumerate(pivots):
            vec[pc] = -grid[row][free]
        lead = next(x for x in vec if not x.is_zero())
        if lead != _ONE:
            inv = lead.inverse()
            vec = [inv * x for x in vec]
        basis.append(Matrix.column(vec))
    return basis


def kernel_basis(m: Matrix) -> list[Matrix]:
    """Echelon-normalized basis of Ker m (leading entry of each vector is 1)."""
    return _kernel(m.cols, *_row_reduce(m))


def quotient_projection(m: Matrix):
    """Coordinates on the quotient (domain of m) / Ker m.

    Returns (pi, pivots): pi: C^cols -> C^r is the projection along Ker m,
    the nonzero rows of the reduced echelon form of m, and pivots are its
    pivot columns, ascending.  The pivot columns of pi form the identity,
    so they are the coordinates on the quotient, and
    m == m.select_columns(pivots) * pi.  The reduced echelon form is
    unique, so the result is deterministic.
    """
    pivots, grid = _row_reduce(m)
    return Matrix(len(pivots), m.cols, [x for row in grid for x in row]), pivots


def solve(a: Matrix, b: Matrix):
    """A particular solution X of a*X = b (free variables 0), or None.
    [a | b] is singular when a solution exists, so it skips the pass mod p."""
    if a.rows != b.rows:
        raise DimensionMismatch("solve: row counts differ")
    pivots, grid = _eliminate(Matrix.hstack([a, b]))
    for pc in pivots:
        if pc >= a.cols:
            return None
    ents = [_ZERO] * (a.cols * b.cols)
    for row, pc in enumerate(pivots):
        for j in range(b.cols):
            ents[pc * b.cols + j] = grid[row][a.cols + j]
    return Matrix(a.cols, b.cols, ents)


def invert(m: Matrix):
    """Exact inverse, or None if singular.

    For square m, solving m*X = I fails exactly when m is singular.
    """
    if not m.is_square():
        raise DimensionMismatch("inverse of non-square matrix")
    return solve(m, Matrix.identity(m.rows))


# ---------------------------------------------------------------------------
# Characteristic polynomial and Q(i) eigenvalues
# ---------------------------------------------------------------------------


def char_poly(m: Matrix) -> list[GaussianRational]:
    """Coefficients c_0..c_n of det(x*I - m), ascending, in O(n^3) field
    operations (Cohen, A Course in Computational Algebraic Number Theory,
    2.2.4).

    Similarity transforms bring m to upper Hessenberg form h: column j is
    cleared below the subdiagonal by a row operation against the pivot row
    j + 1 (a nonzero entry swapped in when h[j+1][j] is zero), each paired
    with the inverse column operation.  The leading i x i minors p_i then
    obey p_(k+1) = x p_k - Sum_(i<=k) h_(i+1,i) ... h_(k,k-1) h_ik p_i,
    where a zero subdiagonal entry cuts the sum short.
    """
    if not m.is_square():
        raise DimensionMismatch("characteristic polynomial of non-square matrix")
    n = m.rows
    h = [m.row_list(i) for i in range(n)]
    for j in range(n - 2):
        k = j + 1
        pivot = next((i for i in range(k, n) if h[i][j].p or h[i][j].q), None)
        if pivot is None:
            continue
        if pivot != k:
            h[pivot], h[k] = h[k], h[pivot]
            for row in h:
                row[pivot], row[k] = row[k], row[pivot]
        inv = h[k][j].inverse()
        for r in range(k + 1, n):
            u = h[r][j]
            if not (u.p or u.q):
                continue
            u = u * inv
            # row r -= u * row k, then column k += u * column r
            _sub_mul(h[r], u, h[k][j:], j)
            col = [row[k] for row in h]
            _sub_mul(col, -u, [row[r] for row in h], 0)
            for row, x in zip(h, col):
                row[k] = x
    polys = [[_ONE]]
    for k in range(n):
        p, t = [_ZERO, *polys[k]], _ONE
        for i in range(k, -1, -1):
            c = t * h[i][k]  # t = h_(i+1,i) ... h_(k,k-1)
            if c.p or c.q:
                _sub_mul(p, c, polys[i], 0)
            t = t * h[i][i - 1] if i else _ZERO
            if not (t.p or t.q):
                break
        polys.append(p)
    return polys[n]


def _poly_divmod(a, b):
    """Quotient and remainder of a by b (ascending; b's leading entry nonzero),
    the remainder without zero top coefficients."""
    rem = list(a)
    inv = b[-1].inverse()
    quo = [_ZERO] * max(0, len(a) - len(b) + 1)
    for shift in range(len(quo) - 1, -1, -1):
        f = rem.pop() * inv
        quo[shift] = f
        if f.p or f.q:
            _sub_mul(rem, f, b[:-1], shift)
    while rem and rem[-1].is_zero():
        rem.pop()
    return quo, rem


def _squarefree_part(f):
    """f / gcd(f, f'), made monic."""
    a, b = f, [c * k for k, c in enumerate(f)][1:]
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    g = _poly_divmod(f, a)[0]
    inv = g[-1].inverse()
    return [c * inv for c in g]


def qi_roots(coeffs: list[GaussianRational]) -> dict[GaussianRational, int]:
    """All Q(i) roots with multiplicity of a monic polynomial over Q(i).

    Roots outside Q(i) are left out, so the multiplicities sum to less than
    the degree exactly when the polynomial does not split over Q(i).
    Strategy: strip zero roots and take the squarefree part g; x -> y/L
    turns g into a monic G over Z[i], whose Q(i) roots are Gaussian
    integers.  Those are found mod an inert prime and lifted by Newton's
    iteration (``modp.zi_root_candidates``); no integer is ever factored.  Each
    candidate is then certified, with its multiplicity, by exact deflation
    of the original polynomial.
    """
    work = list(coeffs)
    roots: dict[GaussianRational, int] = {}
    zero = gr(0)
    while len(work) > 1 and work[0].is_zero():
        roots[zero] = roots.get(zero, 0) + 1
        work.pop(0)
    if len(work) == 1:
        return roots
    g = _squarefree_part(work)
    denom = 1
    for c in g:
        denom = denom * c.r // gcd(denom, c.r)
    n = len(g) - 1
    # y = denom*x: G(y) = denom^n g(y/denom) is monic over Z[i]
    scaled = [
        (c.p * denom ** (n - k) // c.r, c.q * denom ** (n - k) // c.r) for k, c in enumerate(g)
    ]
    candidates = {GaussianRational._make(a, b, denom) for a, b in zi_root_candidates(scaled)}
    for cand in sorted(candidates, key=GaussianRational.sort_key):
        while len(work) > 1:
            # a root exactly when x - cand leaves no remainder; the quotient is the deflation
            quo, rem = _poly_divmod(work, [-cand, _ONE])
            if rem:
                break
            roots[cand] = roots.get(cand, 0) + 1
            work = quo
    return roots


def char_eigenvalues(m: Matrix) -> list[tuple[GaussianRational, int]]:
    """Eigenvalues in Q(i) with algebraic multiplicities, sorted.

    Raises IrrationalSpectrum when the spectrum leaves Q(i).
    """
    roots = qi_roots(char_poly(m))
    if sum(roots.values()) < m.rows:
        raise IrrationalSpectrum("characteristic polynomial has a factor with no root in Q(i)")
    return sorted(roots.items(), key=lambda t: t[0].sort_key())


# ---------------------------------------------------------------------------
# Nilpotent structure, eigenspaces, commutants
# ---------------------------------------------------------------------------


def nilpotent_powers(m: Matrix) -> list[Matrix]:
    """[I, m, m^2, ...] up to the last nonzero power, each power built once;
    [I] when m is zero or empty.  Its length is the nilpotency index of m,
    counted as 1 for zero or empty m."""
    if not m.is_square():
        raise DimensionMismatch("nilpotency of non-square matrix")
    powers = [Matrix.identity(m.rows)]
    power = m
    while not power.is_zero():
        if len(powers) == m.rows:
            raise NotNilpotent("matrix is not nilpotent")
        powers.append(power)
        power = power * m
    return powers


def nilpotent_partition(n: Matrix) -> tuple[int, ...]:
    """Jordan block sizes of a nilpotent matrix, descending.

    Recovered from the ranks r_j of the powers n^j: there are
    r_(j-1) - 2 r_j + r_(j+1) blocks of size j.
    """
    r = [n.rows] + [rank(power) for power in nilpotent_powers(n)[1:]] + [0, 0]
    return tuple(j for j in range(len(r) - 2, 0, -1) for _ in range(r[j - 1] - 2 * r[j] + r[j + 1]))


def generalized_eigendecomposition(m: Matrix) -> list[tuple[GaussianRational, Matrix, Matrix]]:
    """Triples (eigenvalue, basis, nil) in eigenvalue sort order.

    basis holds Ker (m - ev)^mult (algebraic multiplicity) as columns and
    nil is m - ev restricted to it: (m - ev) * basis == basis * nil.  The
    bases concatenate to a full basis of the space.

    The kernel chain Ker (m - ev)^j stops at the Jordan index j, the first
    with mult vectors (j = 1, no product, for a semisimple ev).  From j on
    it equals Ker (m - ev)^mult, and so does the echelon form it is read from.
    Every (m - ev)^j is singular, so it is eliminated with no mod-p pass.
    A scalar matrix c I, S = 0 among them, is one block (c, I, 0) and an
    empty one has none, with no spectrum computed.  A matrix with a single
    eigenvalue has basis I: it is the echelon kernel basis of the zero
    matrix (m - ev)^j.
    """
    n = m.rows
    if m.is_square() and (not n or m.shift(-m[0, 0]).is_zero()):
        return [(m[0, 0], Matrix.identity(n), Matrix.zeros(n, n))] if n else []
    out = []
    total = 0
    for ev, mult in char_eigenvalues(m):
        shifted = power = m.shift(-ev)
        for _ in range(mult):
            kernel = _kernel(n, *_eliminate(power))
            if len(kernel) == mult:
                break
            power = power * shifted
        basis = Matrix.hstack(kernel)
        total += basis.cols
        out.append((ev, basis, solve(basis, shifted * basis)))
    if total != n:  # pragma: no cover - guarded by char_eigenvalues
        raise IrrationalSpectrum("generalized eigenspaces do not fill the space")
    return out


def sylvester_operator(x: Matrix, y: Matrix) -> Matrix:
    """Matrix of f -> f*x - y*f on the row-major entries of f, for square
    x and y; f has y.rows rows and x.rows columns."""
    p, q = y.rows, x.rows
    size = p * q
    ents = [_ZERO] * (size * size)
    for i in range(p):
        for j in range(q):
            row = (i * q + j) * size
            # entry (i, j) of f*x - y*f: sum_l f[i,l] x[l,j] - sum_l y[i,l] f[l,j]
            for l in range(q):
                ents[row + i * q + l] = ents[row + i * q + l] + x[l, j]
            for l in range(p):
                ents[row + l * q + j] = ents[row + l * q + j] - y[i, l]
    return Matrix(size, size, ents)


def hat_matrix(coefficients: Sequence[Matrix]) -> Matrix:
    """Upper-triangular block-Toeplitz matrix with A_k on the diagonal and
    A_{k-1}, ..., A_1 on the superdiagonals."""
    k = len(coefficients)
    if k == 1:
        return coefficients[0]
    n = coefficients[0].rows
    rows = []
    for i in range(k):
        rows.append([coefficients[k - 1 - (j - i)] if j >= i else Matrix.zeros(n, n) for j in range(k)])
    return Matrix.vstack([Matrix.hstack(r) for r in rows])


def intertwiner_basis(pairs: Sequence[tuple[Matrix, Matrix]]) -> list[Matrix]:
    """Echelon basis of {f : f*x = y*f for every (x, y) in pairs}: the basis
    ``kernel_basis`` gives on the stacked ``sylvester_operator``s, read as
    y.rows x x.rows matrices.  ``intertwiner_basis([(n, n)])`` is the
    commutant of n.

    Solved on a standard basis: ``spin`` spins the standard columns under
    the x's, a column seeding only where the span so far stops short, into
    a basis B of vectors B_k = w_k(X) e_(s_k).  An intertwiner is fixed by
    the images u_s = f e_s of the m seeds: f B_k = w_k(Y) u_(s_k) = G_k u,
    so there are p*m unknowns instead of p*q (m is 1 when the x's act
    irreducibly, q when they are all zero).  G_k is read off the spin's
    tree: its seed's identity block, or y_i G_j when B_k = x_i B_j.  With
    x_i B = B C_i the conditions read Sum_k C_i[k, j] G_k u = y_i G_j u for
    every pair i and every column j; on a tree edge B_k = x_i B_j both
    sides are G_k, so only the other (i, j) give conditions.  Each solution
    maps back to f = [G_k u]_k B^-1.

    The blocks are eliminated column by column, every pair at j = 0, then
    at j = 1, and so on.  Part of the conditions has a kernel containing
    Hom, so full rank proves Hom = 0.  At a stall (a block adding no rank
    after the rank grew since the last check) each map f of the kernel so
    far is tested exactly against f*x == y*f on every pair; if all pass,
    that kernel is Hom.  After the last block it is Hom with no test.

    The Sylvester-kernel basis depends only on the space: it has one vector
    per free column c, in ascending c, which before scaling is 1 at c, 0 at
    the other free columns and 0 after c.  Those are the rows of the
    reduced echelon form of the space with its columns reversed, which is
    how the basis is put back, each vector then scaled so that its first
    nonzero entry in row-major order is 1.
    """
    if not pairs:
        raise DimensionMismatch("intertwiner_basis got an empty pair list")
    p, q = pairs[0][1].rows, pairs[0][0].rows
    if not p or not q:
        return []
    pairs = [(x, y) for x, y in pairs if not (x.is_zero() and y.is_zero())]
    units = (Matrix(q, 1, [_ONE if k == s else _ZERO for k in range(q)]) for s in range(q))
    spun, tree = spin(
        units, [x for x, _ in pairs], Matrix.__mul__,
        lambda rows, pivots, v: echelon_insert(rows, pivots, v.entries()), q,
    )
    w = p * tree.count(None)
    eye = Matrix.identity(w)
    seed_blocks = (eye.submatrix(s, s + p, 0, w) for s in range(0, w, p))
    blocks = []  # G_k, with f B_k = G_k u
    for link in tree:
        blocks.append(next(seed_blocks) if link is None else pairs[link[1]][1] * blocks[link[0]])
    stacked = Matrix.vstack(blocks)
    by_basis = Matrix(q, p * w, stacked.entries())  # row k is G_k, flattened
    binv = invert(Matrix.hstack(spun))

    def maps(kernel):
        # stacked * u lists the columns F_k = G_k u of F = f B in turn: read as
        # q x p it is F^T, and f^T = B^-T F^T
        n = len(kernel)
        ft = Matrix(q, p * n, (stacked * Matrix.hstack(kernel)).entries())
        ft = (binv.transpose() * ft).entries()
        return [Matrix(p, q, [ft[(j * p + r) * n + i] for r in range(p) for j in range(q)]) for i in range(n)]

    # on a tree edge (j, i) column j of C_i is a unit vector and the condition is 0 = 0
    edges = set(tree)
    todo = [(i, j) for j in range(q) for i in range(len(pairs)) if (j, i) not in edges]
    rows, pivots, checked = [], [], 0
    for done, (i, j) in enumerate(todo, 1):
        x, y = pairs[i]
        # Sum_k C_i[k, j] G_k - y_i G_j, with column j of C_i = B^-1 x_i B_j
        lhs = (Matrix(1, q, (binv * (x * spun[j])).entries()) * by_basis).entries()
        block = [a - c if c.p or c.q else a for a, c in zip(lhs, (y * blocks[j]).entries())]
        grew = sum(echelon_insert(rows, pivots, block[r * w : (r + 1) * w]) for r in range(p))
        if len(rows) == w:
            return []
        if not grew and checked < len(rows) and done < len(todo):
            checked = len(rows)
            fs = maps(_kernel(w, *_reduce_rows(rows, pivots)))
            if all(f * x == y * f for f in fs for x, y in pairs):
                break
    else:
        fs = maps(_kernel(w, *_reduce_rows(rows, pivots)))
    flat = [e for f in fs for e in f.entries()]
    _, reduced = _row_reduce(Matrix(len(fs), p * q, flat[::-1]))
    basis = []
    for row in reversed(reduced):
        lead = next(x for x in reversed(row) if x.p or x.q).inverse()
        basis.append(Matrix(p, q, [lead * x if x.p or x.q else x for x in reversed(row)]))
    return basis
