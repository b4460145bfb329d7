"""Exact scalar/matrix primitives: worked examples and algebraic properties."""

import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from midconv import exactalg, modp
from midconv.errors import DimensionMismatch, IrrationalSpectrum, NotNilpotent
from midconv.exactalg import (
    GaussianRational,
    Matrix,
    _poly_divmod,
    _row_reduce,
    char_eigenvalues,
    char_poly,
    echelon_insert,
    generalized_eigendecomposition,
    gr,
    hat_matrix,
    intertwiner_basis,
    invert,
    kernel_basis,
    nilpotent_partition,
    qi_roots,
    nilpotent_powers,
    quotient_projection,
    rank,
    solve,
    sylvester_operator,
)
from midconv.modp import (
    _CERT_PRIME,
    _echelon_insert_mod,
    certified_invertible,
    spin,
    zi_root_candidates,
)

from conftest import gaussian_matrix

J2 = Matrix.from_rows([[0, 1], [0, 0]])


scalars = st.builds(
    gr,
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
)


class TestScalars:
    def test_arithmetic(self):
        a = gr(Fraction(1, 2), Fraction(3, 4))
        b = gr(2, -1)
        assert a + b == gr(Fraction(5, 2), Fraction(-1, 4))
        assert a * b == gr(Fraction(7, 4), 1)
        assert (a / b) * b == a
        assert gr(0, 1) * gr(0, 1) == gr(-1)

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            gr(1) / gr(0)

    @pytest.mark.parametrize("value", [2, -7, 0, Fraction(1, 2), Fraction(-5, 3), 2**61 - 1, -(10**30)])
    def test_real_values_hash_like_the_numbers_they_equal(self, value):
        assert gr(value) == value
        assert hash(gr(value)) == hash(value)
        assert value in {gr(value)} and gr(value) in {value}
        assert gr(value, 1) not in {value}

    def test_sort_key_orders_by_real_then_imaginary_part(self):
        rng = random.Random(7)
        part = lambda: Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))
        values = [gr(part(), part()) for _ in range(300)]
        assert {v.r == 1 for v in values} == {True, False}
        assert sorted(values, key=lambda v: v.sort_key()) == sorted(values, key=lambda v: (v.re, v.im))

    @given(scalars, scalars, scalars)
    @settings(max_examples=80, deadline=None)
    def test_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a
        if not b.is_zero():
            assert (a / b) * b == a
            assert b * b.inverse() == gr(1)

    @given(scalars)
    @settings(max_examples=40, deadline=None)
    def test_representation_reduced(self, a):
        from math import gcd

        assert a.r > 0
        assert gcd(a.p, a.q, a.r) == 1
        assert gr(a.re, a.im) == a

    @pytest.mark.parametrize("re", [3, Fraction(-1, 2), gr(1, 2), gr(Fraction(2, 3), Fraction(-1, 5))])
    @pytest.mark.parametrize("im", [0, -2, Fraction(2, 3), gr(0), gr(Fraction(1, 3), 1)])
    def test_gr_is_re_plus_im_times_i_for_every_argument_type(self, re, im):
        def parts(x):
            return (x.re, x.im) if isinstance(x, GaussianRational) else (Fraction(x), Fraction(0))

        (a, b), (c, d) = parts(re), parts(im)
        expected = gr(a - d, b + c)  # (a + b i) + (c + d i) i
        assert gr(re, im) == expected
        assert GaussianRational(re, im) == expected

    @pytest.mark.parametrize("bad", [0.1, 1.0, 0.0, "1/3", "2", Decimal("0.5"), None, 1j])
    def test_only_ints_fractions_and_gaussian_rationals_are_taken(self, bad):
        # as in Matrix.from_rows: a float or a string is not an exact input
        for args in ((bad,), (1, bad), (bad, 1), (Fraction(1, 2), bad), (gr(1), bad), (bad, gr(0, 1))):
            with pytest.raises(TypeError):
                gr(*args)
            with pytest.raises(TypeError):
                GaussianRational(*args)
        with pytest.raises(TypeError):
            Matrix.from_rows([[bad]])


class TestShift:
    @pytest.mark.parametrize("c", [3, Fraction(-5, 7), gr(Fraction(1, 2), -2)])
    def test_equals_the_dense_sum(self, rng, c):
        from midconv.checks import random_matrix

        for n in range(5):
            m = random_matrix(rng, n).scale(gr(Fraction(2, 3), 1))
            assert m.shift(c) == m + c * Matrix.identity(n)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            Matrix.zeros(2, 3).shift(1)


class TestRref:
    def test_zero_matrix(self):
        m = Matrix.zeros(2, 2)
        assert rank(m) == 0
        assert [v.entries() for v in kernel_basis(m)] == [(gr(1), gr(0)), (gr(0), gr(1))]

    def test_projector(self):
        m = Matrix.from_rows([[1, 0], [0, 0]])
        assert rank(m) == 1
        assert [v.entries() for v in kernel_basis(m)] == [(gr(0), gr(1))]

    def test_rank_one_hand_reduction(self):
        # hand row-reduction: [[1,1],[1,1]] ~ [[1,1],[0,0]]; kernel (1,-1)
        m = Matrix.from_rows([[1, 1], [1, 1]])
        assert rank(m) == 1
        assert [v.entries() for v in kernel_basis(m)] == [(gr(1), gr(-1))]

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_rank_nullity(self, n, m, seed):
        import random

        rnd = random.Random(seed)
        mat = Matrix.from_rows(
            [[rnd.randint(-3, 3) for _ in range(m)] for _ in range(n)]
        )
        assert rank(mat) + len(kernel_basis(mat)) == m
        for v in kernel_basis(mat):
            assert (mat * v).is_zero()

    def test_quotient_projection_identities(self, rng):
        # m factors through its pivot columns, at which pi is the identity
        for m in [Matrix.from_rows([[1, 1], [1, 1]])] + _reduction_cases(rng):
            pi, pivots = quotient_projection(m)
            assert pivots == sorted(pivots) and pi.rows == len(pivots) == rank(m)
            assert m.select_columns(pivots) * pi == m
            assert pi.select_columns(pivots) == Matrix.identity(len(pivots))

    def test_select_columns(self):
        m = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert m.select_columns([2, 0]) == Matrix.from_rows([[3, 1], [6, 4]])
        assert m.select_columns([]) == Matrix.zeros(2, 0)


def _reduction_cases(rng):
    """Seeded Q(i) matrices: tall, wide, rank-deficient, with zero rows and
    zero columns, and the empty shapes."""

    def rational():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    def entry():
        return gr(0) if rng.random() < 0.3 else gr(rational(), rational())

    def dense(r, c):
        return Matrix(r, c, [entry() for _ in range(r * c)])

    def low_rank(r, c, k):
        return dense(r, k) * dense(k, c)

    cases = [dense(6, 3), dense(3, 6), low_rank(5, 4, 2), low_rank(4, 7, 3), low_rank(6, 6, 1)]
    for m in list(cases):
        rows = [m.row_list(i) for i in range(m.rows)]
        rows.insert(1, [gr(0)] * m.cols)
        cases.append(Matrix.from_rows([[gr(0), *row[:2], gr(0), *row[2:]] for row in rows]))
    cases += [Matrix.zeros(3, 4), Matrix.zeros(0, 4), Matrix.zeros(4, 0), Matrix.zeros(0, 0)]
    return cases


class TestRowReduce:
    def test_matches_sympy_rref(self, rng):
        sympy = pytest.importorskip("sympy")

        def to_sympy(c):
            return sympy.Rational(c.p, c.r) + sympy.I * sympy.Rational(c.q, c.r)

        def from_sympy(e):
            e = sympy.expand(e)
            return gr(Fraction(str(sympy.re(e))), Fraction(str(sympy.im(e))))

        for m in _reduction_cases(rng):
            expected, expected_pivots = sympy.Matrix(
                m.rows, m.cols, [to_sympy(c) for c in m.entries()]
            ).rref()
            pivots, rows = _row_reduce(m)
            assert tuple(pivots) == expected_pivots
            assert rows == [
                [from_sympy(expected[i, j]) for j in range(m.cols)] for i in range(len(pivots))
            ]

    def test_rank_is_the_pivot_count(self, rng):
        for m in _reduction_cases(rng):
            assert rank(m) == len(_row_reduce(m)[0])

    def test_echelon_insert_rejects_a_dependent_vector(self):
        rows, pivots = [], []
        u = [gr(0), gr(2), gr(1, 1), gr(3)]
        v = [gr(1), gr(0), gr(0, -1), gr(0)]
        assert echelon_insert(rows, pivots, u)
        assert echelon_insert(rows, pivots, v)
        assert pivots == [1, 0]
        assert all(rows[k][c] == gr(1) for k, c in enumerate(pivots))
        combination = [gr(2, -1) * a - gr(1, 3) * b for a, b in zip(u, v)]
        assert not echelon_insert(rows, pivots, combination)
        assert not echelon_insert(rows, pivots, [gr(0)] * 4)
        assert len(rows) == len(pivots) == 2


def _shortcut_cases(rng):
    """Square matrices named by kind, with whether ``_CERT_PRIME`` certifies
    them invertible.  Only the "singular-" kinds are singular over Q(i);
    "modp-singular-" ones are singular mod p alone, and the prime divides a
    denominator of the "denominator-" ones."""
    p, s = _CERT_PRIME

    def big():
        return gr(rng.randint(-(2**63), 2**63), rng.randint(-(2**63), 2**63))

    def small():
        return gr(Fraction(rng.randint(-5, 5), rng.randint(1, 4)), rng.randint(-2, 2))

    def square(n, entry):
        return Matrix(n, n, [entry() for _ in range(n * n)])

    def low_rank(n, k, entry):
        return square(n, entry).submatrix(0, n, 0, k) * square(n, entry).submatrix(0, k, 0, n)

    return [
        ("invertible-64bit-5", square(5, big), True),
        ("invertible-64bit-9", square(9, big), True),
        ("invertible-small-6", square(6, small), True),
        ("singular-64bit", low_rank(6, 4, big), False),
        ("singular-small", low_rank(5, 2, small), False),
        ("singular-zero-row", Matrix.vstack([square(3, small).submatrix(0, 2, 0, 3), Matrix.zeros(1, 3)]), False),
        ("modp-singular-diagonal", Matrix.diagonal([1, p]), False),
        ("modp-singular-dense", Matrix.from_rows([[1, 2], [3, 6 + p]]), False),
        ("modp-singular-gaussian", Matrix.diagonal([gr(3, 1), gr(-s, 1)]), False),
        ("denominator-p", Matrix.from_rows([[1, Fraction(1, p)], [0, 1]]), False),
        ("denominator-2p", Matrix.from_rows([[gr(2, Fraction(1, 2 * p)), 1], [1, 1]]), False),
    ]


class TestRowReduceShortcut:
    """``_row_reduce`` returns the identity for a square matrix of full
    rank mod the first certification prime, and eliminates every other one
    exactly; both give the reduced echelon form of the exact path."""

    @staticmethod
    def exact(monkeypatch, f, m):
        """f(m) with the shortcut switched off."""
        with monkeypatch.context() as patch:
            patch.setattr(exactalg, "certified_invertible", lambda n, entries: False)
            return f(m)

    def test_cases_are_of_their_kind(self, rng):
        for name, m, invertible in _shortcut_cases(rng):
            assert certified_invertible(m.rows, m.entries()) is invertible, name
            assert (rank(m) < m.rows) is name.startswith("singular-"), name

    def test_matches_the_exact_path(self, rng, monkeypatch):
        for name, m, _ in _shortcut_cases(rng):
            for f in (_row_reduce, kernel_basis, quotient_projection):
                assert f(m) == self.exact(monkeypatch, f, m), (name, f.__name__)
            assert list(_row_reduce(m)) == list(reference_rref(m)), name

    def test_matches_sympy_rref(self, rng):
        sympy = pytest.importorskip("sympy")
        for name, m, _ in _shortcut_cases(rng):
            expected, expected_pivots = sympy.Matrix(
                m.rows, m.cols, [sympy.Rational(c.p, c.r) + sympy.I * sympy.Rational(c.q, c.r) for c in m.entries()]
            ).rref()
            pivots, rows = _row_reduce(m)
            assert tuple(pivots) == expected_pivots, name
            got = [[sympy.Rational(c.p, c.r) + sympy.I * sympy.Rational(c.q, c.r) for c in row] for row in rows]
            assert got == expected.tolist()[: len(pivots)], name

    def test_certified_matrices_run_no_exact_elimination(self, rng, monkeypatch):
        def refused(*args):
            raise AssertionError("exact elimination ran")

        monkeypatch.setattr(exactalg, "echelon_insert", refused)
        for name, m, invertible in _shortcut_cases(rng):
            if invertible:
                pivots, rows = _row_reduce(m)
                assert pivots == list(range(m.rows)) and Matrix.from_rows(rows) == Matrix.identity(m.rows)
                assert kernel_basis(m) == []

    def test_a_hat_is_decided_by_its_last_block_row(self, rng, monkeypatch):
        # det A-hat = det(A_k)^k, and the pass inserts A-hat's last block row
        # [0 .. 0 A_k] first: a singular A_k ends it within n inserts, an
        # invertible one lets all k n rows in
        from midconv.checks import random_invertible

        inserts = []

        def counted(*args):
            inserts.append(args)
            return _echelon_insert_mod(*args)

        monkeypatch.setattr(modp, "_echelon_insert_mod", counted)
        for n, k in [(2, 1), (2, 3), (3, 2), (4, 3), (5, 2)]:
            lower = [gaussian_matrix(rng, n) for _ in range(k - 1)]
            singular = gaussian_matrix(rng, n, n - 1) * gaussian_matrix(rng, n - 1, n)
            for lead, invertible in ((singular, False), (random_invertible(rng, n), True)):
                hat = hat_matrix(lower + [lead])
                inserts.clear()
                assert certified_invertible(k * n, hat.entries()) is invertible, (n, k)
                assert len(inserts) == k * n if invertible else 1 <= len(inserts) <= n, (n, k)
                assert (rank(hat) == k * n) is invertible, (n, k)

    def test_tall_and_wide_matrices_are_never_certified(self, monkeypatch):
        def refused(n, entries):
            raise AssertionError("a matrix that is not square was reduced mod p")

        monkeypatch.setattr(exactalg, "certified_invertible", refused)
        for m in (Matrix.identity(3).submatrix(0, 3, 0, 2), Matrix.identity(3).submatrix(0, 2, 0, 3)):
            assert _row_reduce(m)[0] == [0, 1]


# entries that take every path of the fused kernels: integers (r = 1), small
# denominators and 64-bit Gaussian integers, with zero drawn twice as often
# so that the zero skips run
kernel_entries = st.one_of(
    st.just(gr(0)),
    st.just(gr(0)),
    st.builds(gr, st.integers(-3, 3), st.integers(-3, 3)),
    st.builds(
        gr,
        st.fractions(min_value=-4, max_value=4, max_denominator=6),
        st.fractions(min_value=-4, max_value=4, max_denominator=6),
    ),
    st.builds(gr, st.integers(-(2**63), 2**63), st.integers(-(2**63), 2**63)),
)


@st.composite
def kernel_matrices(draw, r, c):
    """Sparse r x c matrices with some rows and columns zeroed."""
    ents = draw(st.lists(kernel_entries, min_size=r * c, max_size=r * c))
    zero_rows = draw(st.sets(st.integers(0, 7), max_size=3))
    zero_cols = draw(st.sets(st.integers(0, 7), max_size=3))
    return Matrix(r, c, [gr(0) if i in zero_rows or j in zero_cols else ents[i * c + j] for i in range(r) for j in range(c)])


@st.composite
def kernel_systems(draw):
    """A matrix, of low rank when it is a product through a narrow middle,
    and a right-hand side with as many rows."""
    r, c = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    if draw(st.booleans()):
        k = draw(st.integers(0, 3))
        a = draw(kernel_matrices(r, k)) * draw(kernel_matrices(k, c))
    else:
        a = draw(kernel_matrices(r, c))
    return a, draw(kernel_matrices(r, draw(st.integers(0, 3))))


def assert_normalized(entries):
    """(p + q i)/r with r > 0 and gcd(p, q, r) = 1, so zero is (0, 0, 1)."""
    from math import gcd

    for x in entries:
        assert x.r > 0 and gcd(x.p, x.q, x.r) == 1, (x.p, x.q, x.r)


def reference_product(a, b):
    """The triple loop over the scalar operators."""
    ents = [gr(0)] * (a.rows * b.cols)
    for i in range(a.rows):
        for j in range(b.cols):
            for k in range(a.cols):
                ents[i * b.cols + j] = ents[i * b.cols + j] + a[i, k] * b[k, j]
    return Matrix(a.rows, b.cols, ents)


def reference_rref(m):
    """Gauss-Jordan by columns over the scalar operators: (pivots, rows)."""
    rows, pivots = [m.row_list(i) for i in range(m.rows)], []
    for c in range(m.cols):
        k = next((i for i in range(len(pivots), m.rows) if not rows[i][c].is_zero()), None)
        if k is None:
            continue
        top = len(pivots)
        rows[top], rows[k] = rows[k], rows[top]
        inv = rows[top][c].inverse()
        rows[top] = [inv * x for x in rows[top]]
        for i in range(m.rows):
            f = rows[i][c]
            if i != top and not f.is_zero():
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[top])]
        pivots.append(c)
    return pivots, rows[: len(pivots)]


def reference_kernel(m):
    """One vector per free column, scaled so that its leading entry is 1."""
    pivots, rows = reference_rref(m)
    basis = []
    for free in (c for c in range(m.cols) if c not in pivots):
        vec = [gr(0)] * m.cols
        vec[free] = gr(1)
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[free]
        lead = next(x for x in vec if not x.is_zero())
        basis.append(Matrix.column([x / lead for x in vec]))
    return basis


def reference_solve(a, b):
    pivots, rows = reference_rref(Matrix.hstack([a, b]))
    if any(pc >= a.cols for pc in pivots):
        return None
    ents = [gr(0)] * (a.cols * b.cols)
    for row, pc in zip(rows, pivots):
        ents[pc * b.cols : (pc + 1) * b.cols] = row[a.cols :]
    return Matrix(a.cols, b.cols, ents)


class TestFusedKernels:
    """The fused product and the one row operation against loops over the
    scalar operators, entry for entry and normalized: __eq__ compares the
    triples (p, q, r) directly."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_product_equals_the_triple_loop(self, data):
        n, m, p = (data.draw(st.integers(0, 8)) for _ in range(3))
        a, b = data.draw(kernel_matrices(n, m)), data.draw(kernel_matrices(m, p))
        product = a * b
        assert_normalized(product.entries())
        assert product == reference_product(a, b)

    @given(kernel_systems())
    @settings(max_examples=80, deadline=None)
    def test_elimination_equals_the_reference(self, system):
        a, b = system
        pivots, rows = _row_reduce(a)
        assert (pivots, rows) == reference_rref(a)
        assert rank(a) == len(pivots)
        kernel = kernel_basis(a)
        assert kernel == reference_kernel(a)
        x = solve(a, b)
        assert x == reference_solve(a, b)
        for v in kernel:
            assert_normalized(v.entries())
        assert_normalized(e for row in rows for e in row)
        if x is not None:
            assert_normalized(x.entries())

    @given(
        st.lists(kernel_entries, max_size=9),
        st.lists(kernel_entries, max_size=5),
        kernel_entries.filter(lambda c: not c.is_zero()),
    )
    @settings(max_examples=60, deadline=None)
    def test_poly_divmod_is_division_with_remainder(self, a, b, lead):
        b = b + [lead]
        quo, rem = _poly_divmod(a, b)
        assert len(rem) < len(b) and (not rem or not rem[-1].is_zero())
        assert_normalized(quo + rem)
        product = [gr(0)] * (len(quo) + len(b))
        for i, x in enumerate(quo):
            for j, y in enumerate(b):
                product[i + j] = product[i + j] + x * y
        total = [x + (rem[k] if k < len(rem) else gr(0)) for k, x in enumerate(product)]
        while total and total[-1].is_zero():
            total.pop()
        trimmed = list(a)
        while trimmed and trimmed[-1].is_zero():
            trimmed.pop()
        assert total == trimmed


class TestSolve:
    def test_identity(self):
        x = solve(Matrix.identity(2), Matrix.column([3, Fraction(4, 5)]))
        assert x.entries() == (gr(3), gr(Fraction(4, 5)))

    def test_unsolvable_by_rank(self):
        assert solve(Matrix.from_rows([[1, 1], [1, 1]]), Matrix.column([1, 0])) is None

    def test_substitution(self):
        a = Matrix.from_rows([[1, 1], [1, 1]])
        x = solve(a, Matrix.column([2, 2]))
        assert a * x == Matrix.column([2, 2])
        kern = kernel_basis(a)
        assert len(kern) == 1 and kern[0].entries() == (gr(1), gr(-1))

    def test_invert(self, rng):
        from midconv.checks import random_invertible

        assert invert(Matrix.from_rows([[1, 2], [2, 4]])) is None
        for _ in range(10):
            m = random_invertible(rng, 3)
            assert m * invert(m) == Matrix.identity(3)


class TestEigenvalues:
    def test_diagonal(self):
        assert char_eigenvalues(Matrix.diagonal([1, 2])) == [(gr(1), 1), (gr(2), 1)]

    def test_symmetric_pm_one(self):
        # char poly x^2 - 1
        m = Matrix.from_rows([[0, -1], [-1, 0]])
        assert char_eigenvalues(m) == [(gr(-1), 1), (gr(1), 1)]

    def test_rotation_gives_gaussian_units(self):
        # char poly x^2 + 1, roots +-i
        m = Matrix.from_rows([[0, -1], [1, 0]])
        assert char_eigenvalues(m) == [(gr(0, -1), 1), (gr(0, 1), 1)]

    def test_irrational_rejected(self):
        with pytest.raises(IrrationalSpectrum):
            char_eigenvalues(Matrix.from_rows([[0, 2], [1, 0]]))  # x^2 - 2

    def test_char_poly_annihilates(self, rng):
        for _ in range(15):
            n = rng.choice([2, 3])
            m = Matrix.from_rows(
                [[gr(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(n)] for _ in range(n)]
            )
            coeffs = char_poly(m)
            acc = Matrix.zeros(n, n)
            power = Matrix.identity(n)
            for c in coeffs:
                acc = acc + c * power
                power = power * m
            assert acc.is_zero()
            try:
                eigs = char_eigenvalues(m)
            except IrrationalSpectrum:
                continue
            assert sum(mult for _, mult in eigs) == n
            for ev, _ in eigs:
                value = gr(0)
                for c in reversed(coeffs):
                    value = value * ev + c
                assert value.is_zero()

    def test_fractional_gaussian_spectrum(self):
        m = Matrix.diagonal([gr(Fraction(1, 2)), gr(Fraction(-3, 4), Fraction(1, 2))])
        got = dict(char_eigenvalues(m))
        assert got == {gr(Fraction(1, 2)): 1, gr(Fraction(-3, 4), Fraction(1, 2)): 1}


def faddeev_leverrier(m):
    """Reference: coefficients of det(x I - m), ascending, from the traces
    of n exact matrix products."""
    n = m.rows
    coeffs = [gr(0)] * n + [gr(1)]
    mk = m
    for k in range(1, n + 1):
        ck = -(mk.trace() / gr(k))
        coeffs[n - k] = ck
        if k < n:
            mk = m * mk.shift(ck)
    return coeffs


# a zero subdiagonal pivot in column 0 that row 2 must be swapped in for,
# and a block-diagonal matrix whose Hessenberg form splits at (2, 1)
SWAP_PIVOT = Matrix.from_rows([[1, 2, 3], [0, 4, 5], [6, 7, gr(0, 1)]])
SPLIT = Matrix.block_diagonal([Matrix.from_rows([[1, 2], [3, 4]]), Matrix.from_rows([[0, 1, 1], [2, 0, 1], [1, 1, 0]])])
sparse_entries = st.one_of(
    st.just(gr(0)),
    st.builds(
        lambda a, b, c: gr(Fraction(a, b), c),
        st.integers(-2, 2), st.sampled_from([1, 2, 3]), st.integers(-1, 1),
    ),
)


@st.composite
def gaussian_square(draw):
    n = draw(st.integers(0, 8))
    return Matrix(n, n, draw(st.lists(sparse_entries, min_size=n * n, max_size=n * n)))


class TestCharPolyAgainstFaddeevLeverrier:
    @given(gaussian_square())
    @example(SWAP_PIVOT)
    @example(SPLIT)
    @example(Matrix.block_diagonal([SWAP_PIVOT, SPLIT, Matrix.from_rows([[gr(1, -1)]])]))
    @settings(max_examples=60, deadline=None)
    def test_equal_to_the_reference(self, m):
        assert char_poly(m) == faddeev_leverrier(m)

    def test_examples_take_the_swap_and_the_split(self):
        assert SWAP_PIVOT[1, 0].is_zero() and not SWAP_PIVOT[2, 0].is_zero()
        assert char_poly(SWAP_PIVOT) == faddeev_leverrier(SWAP_PIVOT)
        blocks = (SPLIT.submatrix(0, 2, 0, 2), SPLIT.submatrix(2, 5, 2, 5))
        assert char_poly(SPLIT) == poly_from_factors([faddeev_leverrier(b) for b in blocks])

    def test_empty_and_one_by_one(self):
        assert char_poly(Matrix.zeros(0, 0)) == [gr(1)]
        assert char_poly(Matrix.from_rows([[gr(2, 1)]])) == [gr(-2, -1), gr(1)]


def companion(coeffs):
    """Companion matrix of the monic polynomial with ascending coefficients."""
    n = len(coeffs) - 1
    return Matrix.from_rows(
        [[1 if j == i - 1 else 0 for j in range(n - 1)] + [-coeffs[i]] for i in range(n)]
    )


def poly_from_factors(factors):
    """Ascending coefficients of the product of the given ascending polynomials."""
    out = [gr(1)]
    for f in factors:
        prod = [gr(0)] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] = prod[i + j] + a * gr(b)
        out = prod
    return out


def spectrum_of(roots):
    """char_eigenvalues' answer for a matrix with exactly these eigenvalues."""
    return sorted(((r, roots.count(r)) for r in set(roots)), key=lambda t: t[0].sort_key())


# x^2 - 2, x^2 + x + 1, x^3 - 2, x^2 + i, x^2 + 3: irreducible over Q(i)
IRREDUCIBLE = ([-2, 0, 1], [1, 1, 1], [-2, 0, 0, 1], [gr(0, 1), 0, 1], [3, 0, 1])


class TestRootFinder:
    def test_matches_sympy_gaussian_factorization(self, rng):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")

        def to_sympy(c):
            return sympy.Rational(c.p, c.r) + sympy.I * sympy.Rational(c.q, c.r)

        def from_sympy(e):
            re, im = sympy.re(e), sympy.im(e)
            return gr(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))

        for _ in range(30):
            roots = [
                gr(Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 5])),
                   Fraction(rng.randint(-9, 9), rng.choice([1, 2, 7])))
                for _ in range(rng.randint(1, 4))
            ]
            roots += rng.sample(roots, rng.randint(0, len(roots)))
            factors = [[-r, 1] for r in roots]
            if rng.random() < 0.4:
                factors.append(rng.choice(IRREDUCIBLE))
            coeffs = poly_from_factors(factors)
            expr = sum(to_sympy(c) * x**k for k, c in enumerate(coeffs))
            _, found = sympy.factor_list(expr, x, gaussian=True)
            linear = {}
            for f, mult in found:
                poly = sympy.Poly(f, x)
                if poly.degree() == 1:
                    a, b = poly.all_coeffs()
                    root = from_sympy(sympy.expand(-b / a))
                    linear[root] = linear.get(root, 0) + mult
            if any(sympy.Poly(f, x).degree() > 1 for f, _ in found):
                with pytest.raises(IrrationalSpectrum):
                    char_eigenvalues(companion(coeffs))
            else:
                expected = sorted(linear.items(), key=lambda t: t[0].sort_key())
                assert char_eigenvalues(companion(coeffs)) == expected
                assert expected == spectrum_of(roots)

    def test_large_prime_eigenvalues(self):
        # 2^60 - 93 and 2^128 - 159 are primes; a^2 + b^2 is a 127-bit prime,
        # so a + b*i is a Gaussian prime
        p60, p128 = 2**60 - 93, 2**128 - 159
        a, b = 2**63 + 1, 2**62 + 586
        basis = Matrix.from_rows([[1, 1], [1, 2]])
        for ev1, ev2 in ((gr(p60), gr(p128)), (gr(p60), gr(a, b)), (gr(-p128), gr(a, -b))):
            m = basis * Matrix.diagonal([ev1, ev2]) * invert(basis)
            assert char_eigenvalues(m) == spectrum_of([ev1, ev2])

    def test_repeated_fractional_gaussian_roots(self):
        roots = [gr(Fraction(2, 3), 1)] * 3 + [
            gr(Fraction(-1, 3), 2),
            gr(Fraction(-2, 3), -3),
            gr(Fraction(-2, 3), Fraction(-5, 2)),
        ]
        coeffs = poly_from_factors([[-r, 1] for r in roots])
        assert char_eigenvalues(companion(coeffs)) == spectrum_of(roots)

    def test_prime_dividing_the_discriminant_is_skipped(self):
        # the discriminant (3*7*11*19*23)^2 rules out the inert primes up to 23
        roots = [gr(1), gr(1 + 3 * 7 * 11 * 19 * 23)]
        m = Matrix.from_rows([[1, 1], [0, 1 + 3 * 7 * 11 * 19 * 23]])
        assert char_eigenvalues(m) == spectrum_of(roots)
        coeffs = poly_from_factors([[-r, 1] for r in roots] + [IRREDUCIBLE[1]])
        with pytest.raises(IrrationalSpectrum):
            char_eigenvalues(companion(coeffs))

    def test_qi_roots_leave_out_the_roots_outside_q_i(self):
        assert qi_roots(poly_from_factors([[-2, 0, 1]])) == {}
        assert qi_roots(poly_from_factors([[-1, 1], [-2, 0, 1]])) == {gr(1): 1}
        # x^3 - 2 has no root mod 7, beside the root 1 that does
        assert qi_roots(poly_from_factors([[-1, 1], [-2, 0, 0, 1]])) == {gr(1): 1}


def zi_poly(factors):
    """``poly_from_factors`` of factors over Z[i], as ascending (re, im) pairs."""
    return [(c.p, c.q) for c in poly_from_factors(factors)]


def zi_value(g, x):
    """g(x), exactly, for a polynomial of (re, im) pairs and a Gaussian integer x."""
    vr = vi = 0
    for cr, ci in reversed(g):
        vr, vi = vr * x[0] - vi * x[1] + cr, vr * x[1] + vi * x[0] + ci
    return vr, vi


class TestZiRootCandidates:
    def test_prime_dividing_the_discriminant_is_skipped(self):
        # 1 and 4 meet mod 3, a double root where Newton's step has no inverse
        assert zi_root_candidates(zi_poly([[-1, 1], [-4, 1]])) == [(1, 0), (4, 0)]

    def test_large_roots_take_several_newton_squarings(self):
        # the Cauchy bound is about 2^121; 3 divides the first difference, so 7 is squared six times
        roots = [(2**40 - 87, 0), (-(2**40) + 167, 3), (5, 2**40 + 15)]
        assert sorted(zi_root_candidates(zi_poly([[-gr(*r), 1] for r in roots]))) == sorted(roots)

    def test_a_root_outside_z_i_is_lifted_and_left_to_deflation(self):
        # (x - 1)(x^2 - 2): mod 3 the roots of x^2 - 2 are +-i, lifted mod 9 to
        # +-4i, as (4i)^2 = -16 = 2 (mod 9); neither is a root over Z[i]
        g = zi_poly([[-1, 1], [-2, 0, 1]])
        candidates = zi_root_candidates(g)
        assert sorted(candidates) == [(0, -4), (0, 4), (1, 0)]
        assert [c for c in candidates if zi_value(g, c) == (0, 0)] == [(1, 0)]
        assert qi_roots([gr(*c) for c in g]) == {gr(1): 1}


class TestNilpotent:
    def test_zero(self):
        assert nilpotent_partition(Matrix.zeros(3, 3)) == (1, 1, 1)

    def test_single_jordan_block(self):
        assert nilpotent_partition(J2) == (2,)

    def test_mixed(self):
        # J2 + trivial block: rank N = 1, rank N^2 = 0
        n = Matrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
        assert nilpotent_partition(n) == (2, 1)

    def test_not_nilpotent(self):
        with pytest.raises(NotNilpotent):
            nilpotent_partition(Matrix.identity(2))
        with pytest.raises(NotNilpotent):
            nilpotent_powers(Matrix.identity(2))

    def test_powers_stop_at_the_first_zero_power(self):
        n = Matrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        assert nilpotent_powers(n) == [Matrix.identity(3), n, n * n]
        assert nilpotent_powers(Matrix.zeros(2, 2)) == [Matrix.identity(2)]
        assert nilpotent_powers(Matrix.zeros(0, 0)) == [Matrix.identity(0)]
        indices = [len(nilpotent_powers(m)) for m in (n, Matrix.zeros(2, 2), Matrix.zeros(0, 0))]
        assert indices == [3, 1, 1]

    def test_conjugation_invariance(self, rng):
        from midconv.checks import random_invertible

        base = Matrix.from_rows(
            [
                [0, 1, 0, 0],
                [0, 0, 1, 0],
                [0, 0, 0, 0],
                [0, 0, 0, 0],
            ]
        )
        for _ in range(10):
            c = random_invertible(rng, 4)
            assert nilpotent_partition(c * base * invert(c)) == (3, 1)


class TestEigendecomposition:
    def test_diagonal_split(self):
        ged = generalized_eigendecomposition(Matrix.diagonal([0, 1]))
        assert [(ev, b.cols) for ev, b, _ in ged] == [(gr(0), 1), (gr(1), 1)]

    def test_defective(self):
        ged = generalized_eigendecomposition(Matrix.from_rows([[1, 1], [0, 1]]))
        assert [(ev, b.cols) for ev, b, _ in ged] == [(gr(1), 2)]
        assert ged[0][2] == J2

    def test_zero_matrix(self):
        ged = generalized_eigendecomposition(Matrix.zeros(2, 2))
        assert ged[0][1] == Matrix.identity(2)
        assert ged[0][2].is_zero()

    def test_bases_assemble_invertibly(self, rng):
        for _ in range(10):
            n = rng.choice([2, 3])
            evs = [rng.choice([-1, 0, 1, 2]) for _ in range(n)]
            from midconv.checks import random_invertible

            c = random_invertible(rng, n)
            m = c * Matrix.diagonal(evs) * invert(c)
            ged = generalized_eigendecomposition(m)
            basis = Matrix.hstack([b for _, b, _ in ged])
            assert rank(basis) == n

    def test_nil_is_the_restriction(self, rng):
        from midconv.checks import random_invertible
        from midconv.normalform import jordan_matrix

        # semisimple with a repeated eigenvalue, derogatory, then random types
        fixed = [
            (4, [(gr(2), 1), (gr(0), 1), (gr(2), 1), (gr(2), 1)]),
            (5, [(gr(1), 2), (gr(-1), 1), (gr(1), 2)]),
        ]
        for n, blocks in fixed + [random_jordan_type(rng) for _ in range(10)]:
            c = random_invertible(rng, n)
            m = c * jordan_matrix(blocks) * invert(c)
            ged = generalized_eigendecomposition(m)
            assert [ev for ev, _, _ in ged] == sorted(
                {ev for ev, _ in blocks}, key=lambda x: x.sort_key()
            )
            for ev, basis, nil in ged:
                shifted = m - ev * Matrix.identity(n)
                assert shifted * basis == basis * nil
                assert len(nilpotent_powers(nil)) == max(s for e, s in blocks if e == ev)
                mult = sum(s for e, s in blocks if e == ev)
                assert basis.cols == mult
                # reference: the kernel of (m - ev)^mult
                power = Matrix.identity(n)
                for _ in range(mult):
                    power = power * shifted
                assert basis == Matrix.hstack(kernel_basis(power))

    def test_singular_by_construction_skips_the_pass_mod_p(self, rng, monkeypatch):
        # every (m - ev)^j is singular, and so is the square augmented matrix
        # [basis | (m - ev) basis] of the solve for nil (distinct eigenvalues, n = 2)
        from midconv.checks import random_invertible
        from midconv.normalform import jordan_matrix

        types = [(2, [(gr(1), 1), (gr(-1), 1)]), (3, [(gr(0), 2), (gr(2), 1)])]
        types += [random_jordan_type(rng) for _ in range(6)]
        matrices = []
        for n, blocks in types:
            c = random_invertible(rng, n)
            matrices.append(c * jordan_matrix(blocks) * invert(c))
        calls = []
        monkeypatch.setattr(exactalg, "certified_invertible", lambda n, entries: calls.append(entries) or False)
        for m in matrices:
            generalized_eigendecomposition(m)
        assert calls == []


def random_jordan_type(rng, max_dim=5):
    """(dimension, [(eigenvalue, block size), ...]), at most max_dim."""
    blocks = []
    n = 0
    while n < max_dim and (not blocks or rng.random() < 0.7):
        size = rng.randint(1, min(3, max_dim - n))
        blocks.append((rng.choice([gr(-1), gr(0), gr(2), gr(1, 1)]), size))
        n += size
    return n, blocks


class TestCentralizer:
    def test_empty_pair_list_is_a_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch, match="empty pair list"):
            intertwiner_basis([])

    def test_zero_is_everything(self):
        assert len(intertwiner_basis([(Matrix.zeros(2, 2), Matrix.zeros(2, 2))])) == 4

    def test_jordan_block(self):
        basis = intertwiner_basis([(J2, J2)])
        assert len(basis) == 2
        for x in basis:
            assert x * J2 == J2 * x

    def test_distinct_diagonal(self):
        d = Matrix.diagonal([1, 2])
        basis = intertwiner_basis([(d, d)])
        assert len(basis) == 2
        for x in basis:
            assert x[0, 1].is_zero() and x[1, 0].is_zero()

    def test_commutant_dimension_of_jordan_types(self, rng):
        # dim of the commutant: sum over eigenvalues of sum (conjugate part)^2
        from midconv.checks import random_invertible
        from midconv.normalform import jordan_matrix

        for _ in range(8):
            n, blocks = random_jordan_type(rng)
            c = random_invertible(rng, n)
            m = c * jordan_matrix(blocks) * invert(c)
            expected = 0
            for ev in {e for e, _ in blocks}:
                # the conjugate partition has, at j, the number of blocks of size >= j
                partition = [s for e, s in blocks if e == ev]
                expected += sum(sum(1 for s in partition if s >= j) ** 2 for j in range(1, max(partition) + 1))
            basis = intertwiner_basis([(m, m)])
            assert len(basis) == expected
            for x in basis:
                assert x * m == m * x


class TestSylvester:
    def test_operator_applies_to_row_major_entries(self, rng):
        from midconv.checks import random_matrix

        for _ in range(10):
            p, q = rng.randint(1, 3), rng.randint(1, 3)
            x, y, f = random_matrix(rng, q), random_matrix(rng, p), random_matrix(rng, p, q)
            image = sylvester_operator(x, y) * Matrix.column(f.entries())
            assert image.entries() == (f * x - y * f).entries()

    def test_intertwiner_of_conjugates(self, rng):
        # f a = b f for b = c a c^-1 is spanned by c times the commutant of a
        from midconv.checks import random_invertible

        a = Matrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 2]])
        for _ in range(5):
            c = random_invertible(rng, 3)
            b = c * a * invert(c)
            basis = intertwiner_basis([(a, b)])
            assert len(basis) == len(intertwiner_basis([(a, a)])) == 3
            for f in basis:
                assert f * a == b * f

    def test_rectangular_and_stacked(self):
        # f: C^2 -> C^1 with f*diag(1,2) = 2*f is a multiple of (0, 1),
        # which J2 keeps in the solution space and its transpose does not
        d = (Matrix.diagonal([1, 2]), Matrix.diagonal([2]))
        assert [f.entries() for f in intertwiner_basis([d])] == [(gr(0), gr(1))]
        assert intertwiner_basis([d, (J2, Matrix.zeros(1, 1))]) == intertwiner_basis([d])
        assert intertwiner_basis([d, (J2.transpose(), Matrix.zeros(1, 1))]) == []


def sylvester_kernel(pairs):
    """The reference for intertwiner_basis: the Kronecker solve, the kernel
    of the stacked Sylvester operators read back as p x q matrices."""
    p, q = pairs[0][1].rows, pairs[0][0].rows
    op = Matrix.vstack([sylvester_operator(x, y) for x, y in pairs])
    return [Matrix(p, q, v.entries()) for v in kernel_basis(op)]


def spun_dimension(xs, v) -> int:
    """dim of the span of the words in xs applied to the column v."""
    rows, pivots = [], []
    frontier = [v] if echelon_insert(rows, pivots, v.entries()) else []
    while frontier:
        images = [x * f for f in frontier for x in xs]
        frontier = [u for u in images if echelon_insert(rows, pivots, u.entries())]
    return len(rows)


def conjugated(c, xs):
    cinv = invert(c)
    return [(x, c * x * cinv) for x in xs]


def e1(n: int) -> Matrix:
    return Matrix.column([1] + [0] * (n - 1))


sparse_scalars = st.sampled_from(
    [gr(0), gr(0), gr(0), gr(1), gr(-1), gr(2), gr(0, 1), gr(Fraction(1, 2), -1)]
)


@st.composite
def intertwiner_pairs(draw):
    """1-2 pairs with sparse entries: y = c x c^-1 for c a product of two
    unitriangular matrices, or x and y of independent sizes."""

    def matrix(n, below=True, above=True, diagonal=None):
        def entry(i, j):
            if i == j and diagonal is not None:
                return diagonal
            if (i > j and not below) or (i < j and not above):
                return gr(0)
            return draw(sparse_scalars)

        return Matrix(n, n, [entry(i, j) for i in range(n) for j in range(n)])

    q = draw(st.integers(1, 3))
    xs = [matrix(q) for _ in range(draw(st.integers(1, 2)))]
    if draw(st.booleans()):
        c = matrix(q, below=False, diagonal=gr(1)) * matrix(q, above=False, diagonal=gr(1))
        return conjugated(c, xs)
    p = draw(st.integers(1, 3))
    return [(x, matrix(p)) for x in xs]


class TestIntertwinerAgainstSylvesterKernel:
    """intertwiner_basis solves on a spun standard basis; the Kronecker
    solve it replaced must give the same basis, entry for entry."""

    def check(self, pairs):
        basis = intertwiner_basis(pairs)
        assert basis == sylvester_kernel(pairs)
        for f in basis:
            assert all(f * x == y * f for x, y in pairs)
        return basis

    def test_conjugated_pairs(self, rng):
        from midconv.checks import random_invertible, random_matrix

        for n in (2, 3, 4):
            for _ in range(3):
                xs = [random_matrix(rng, n) for _ in range(rng.randint(1, 3))]
                assert len(self.check(conjugated(random_invertible(rng, n), xs))) >= 1

    def test_block_triangular_domain_needs_several_seeds(self, rng):
        # span(e_1..e_k) is invariant under every x, so spinning e_1 stops short
        from midconv.checks import random_invertible, random_matrix

        for n in (3, 4, 5):
            k = rng.randint(1, n - 1)
            for _ in range(3):
                xs = []
                for _ in range(rng.randint(1, 3)):
                    m = random_matrix(rng, n)
                    ents = [gr(0) if i >= k > j else m[i, j] for i in range(n) for j in range(n)]
                    xs.append(Matrix(n, n, ents))
                assert spun_dimension(xs, e1(n)) <= k < n
                assert len(self.check(conjugated(random_invertible(rng, n), xs))) >= 1

    def test_direct_sum_with_repeated_summand(self, rng):
        # x = s + s + t on C^5: e_1 spins inside the first summand
        from midconv.checks import random_invertible, random_matrix

        s, t = random_matrix(rng, 2), random_matrix(rng, 1)
        x = Matrix.block_diagonal([s, s, t])
        assert spun_dimension([x], e1(5)) <= 2
        assert len(self.check([(x, x)])) >= 5
        self.check(conjugated(random_invertible(rng, 5), [x]))

    def test_rectangular_pairs(self, rng):
        from midconv.checks import random_matrix

        s = random_matrix(rng, 2)
        # x = s + (7) on C^3: Hom(x, s) holds the projection onto s, Hom(s, x) the inclusion
        x = Matrix.block_diagonal([s, Matrix.diagonal([7])])
        assert len(self.check([(x, s)])) >= 1
        assert len(self.check([(s, x)])) >= 1
        for _ in range(6):
            p, q = rng.sample([1, 2, 3, 4], 2)
            pairs = [(random_matrix(rng, q), random_matrix(rng, p)) for _ in range(2)]
            self.check(pairs)
            self.check([(a, Matrix.zeros(p, p)) for a, _ in pairs])

    def test_all_zero_generators(self):
        for p, q in [(1, 1), (2, 3), (3, 2), (3, 3)]:
            zero = (Matrix.zeros(q, q), Matrix.zeros(p, p))
            assert len(self.check([zero, zero])) == p * q
        # zero on the domain only: f lands in Ker y
        y = Matrix.from_rows([[1, 0, 0], [0, 0, 0], [0, 1, 0]])
        assert len(self.check([(Matrix.zeros(2, 2), y)])) == 2

    def test_jordan_type_commutants(self, rng):
        from midconv.checks import random_invertible
        from midconv.normalform import jordan_matrix

        for _ in range(8):
            n, blocks = random_jordan_type(rng)
            m = jordan_matrix(blocks)
            self.check([(m, m)])
            c = random_invertible(rng, n)
            self.check([(m, c * m * invert(c))])

    def test_gaussian_entries(self, rng):
        for n in (2, 3):
            for _ in range(3):
                xs = [gaussian_matrix(rng, n) for _ in range(2)]
                c = gaussian_matrix(rng, n)
                if rank(c) == n:
                    self.check(conjugated(c, xs))
                self.check([(x, gaussian_matrix(rng, n + 1)) for x in xs])
        nilpotent = Matrix.from_rows([[0, gr(1, 1)], [0, 0]])
        assert len(self.check([(nilpotent, nilpotent)])) == 2

    @given(intertwiner_pairs())
    @settings(max_examples=80, deadline=None)
    def test_property(self, pairs):
        self.check(pairs)


def counted_intertwiner_basis(monkeypatch, pairs):
    """intertwiner_basis(pairs) and its counts: ``rows``, the condition rows
    it inserts itself (``echelon_insert`` calls outside ``spin`` and
    ``_echelon_rows``); ``widths``, the lengths of every vector inserted
    outside ``spin``; ``kernels``, the kernels it reads (one per stall check,
    one more when the solve runs to the last block)."""
    counts = {"rows": 0, "kernels": 0, "widths": Counter()}
    inside = Counter()

    def quiet(name, f):
        def wrapped(*args):
            inside[name] += 1
            try:
                return f(*args)
            finally:
                inside[name] -= 1

        return wrapped

    def insert(rows, pivots, vec, real=exactalg.echelon_insert):
        if not inside["spin"]:
            counts["widths"][len(vec)] += 1
            counts["rows"] += not inside["_echelon_rows"]
        return real(rows, pivots, vec)

    def kernel(*args, real=exactalg._kernel):
        counts["kernels"] += 1
        return real(*args)

    with monkeypatch.context() as patch:
        for name in ("spin", "_echelon_rows"):
            patch.setattr(exactalg, name, quiet(name, getattr(exactalg, name)))
        patch.setattr(exactalg, "echelon_insert", insert)
        patch.setattr(exactalg, "_kernel", kernel)
        basis = intertwiner_basis(pairs)
    assert basis == sylvester_kernel(pairs)
    return basis, counts


class TestIntertwinerExits:
    """intertwiner_basis eliminates its condition blocks column by column
    and stops at full rank, at a stall whose kernel passes f*x == y*f on
    every pair, or after the last block; each exit gives the Sylvester
    kernel."""

    SHIFT = Matrix.from_rows([[0, 0, 0], [1, 0, 0], [0, 1, 0]])  # e_1 -> e_2 -> e_3

    def test_hom_zero_before_the_last_column(self, monkeypatch):
        # the first block, (diagonal, column 0), has full rank 3 of 12 rows
        pairs = [(self.SHIFT, self.SHIFT), (Matrix.diagonal([1, 2, 3]), Matrix.diagonal([4, 5, 6]))]
        basis, counts = counted_intertwiner_basis(monkeypatch, pairs)
        assert basis == [] and (counts["rows"], counts["kernels"]) == (3, 0)

    def test_stall_kernel_that_passes_the_check(self, monkeypatch):
        d = Matrix.diagonal([1, 2, 3])
        basis, counts = counted_intertwiner_basis(monkeypatch, [(self.SHIFT, self.SHIFT), (d, d)])
        assert len(basis) == 1 and (counts["rows"], counts["kernels"]) == (6, 1)

    def test_stall_kernel_larger_than_hom_fails_the_check(self, monkeypatch):
        # the block (nilpotent, column 0) adds no rank to (diagonal, column 0):
        # the kernel so far has dimension 3, Hom has dimension 1
        d, n = Matrix.diagonal([0, 2]), Matrix.from_rows([[0, -1], [0, 0]])
        basis, counts = counted_intertwiner_basis(monkeypatch, [(d, d), (n, n)])
        assert len(basis) == 1 and (counts["rows"], counts["kernels"]) == (8, 2)

    def test_fall_through_to_the_last_block(self, monkeypatch):
        zero = Matrix.zeros(2, 2)
        basis, counts = counted_intertwiner_basis(monkeypatch, [(zero, zero), (zero, zero)])
        assert len(basis) == 4 and (counts["rows"], counts["kernels"]) == (0, 1)
        basis, counts = counted_intertwiner_basis(monkeypatch, [(J2, J2)])
        assert len(basis) == 2 and (counts["rows"], counts["kernels"]) == (4, 1)

    def test_oracle_pair_inserts_under_half_the_conditions(self, monkeypatch):
        # mc of the rigid triple against the two-step construction: Hom has
        # dimension 1 and is certified at a stall, after one failed check
        import json
        from pathlib import Path

        from midconv.documents import system_from_document
        from midconv.functors import dr_middle_convolution, mc
        from midconv.systems import lambda_over_z

        path = Path(__file__).resolve().parent.parent / "fixtures" / "rigid-triple.sys"
        p = system_from_document(json.loads(path.read_text(encoding="utf-8")))
        a, b = mc(p, lambda_over_z(gr(2))), dr_middle_convolution(p, gr(2))
        pairs = [(a.constant, b.constant)]
        pairs += [(part.coefficients[0], b.part_at(part.point).coefficients[0]) for part in a.parts]
        assert a.dimension == 4 and len(pairs) == 4
        basis, counts = counted_intertwiner_basis(monkeypatch, pairs)
        # the domain is irreducible, so there is one seed and a condition row has
        # p = 4 entries, where B's inverse has rows of 8 and the basis of 16; the
        # whole system has 4 rows per nonzero pair and column, less q - 1 = 3 tree edges
        nonzero = sum(not (x.is_zero() and y.is_zero()) for x, y in pairs)
        assert len(basis) == 1 and 2 * counts["widths"][4] < 4 * (nonzero * 4 - 3)


class SpinField:
    """Vectors as lists over Q(i) with ``echelon_insert``, or over F_5 with
    i -> 2 and ``_echelon_insert_mod``; generators as lists of rows."""

    def __init__(self, p=None):
        self.p = p

    def lift(self, x):
        x = gr(x)
        return x if self.p is None else (x.p + 2 * x.q) * pow(x.r, -1, self.p) % self.p

    def insert(self, rows, pivots, v) -> bool:
        if self.p is None:
            return echelon_insert(rows, pivots, v)
        return _echelon_insert_mod(rows, pivots, v, self.p)

    def act(self, g, v):
        out = [sum((a * b for a, b in zip(row, v)), self.lift(0)) for row in g]
        return out if self.p is None else [x % self.p for x in out]

    def rank(self, vectors) -> int:
        rows, pivots = [], []
        return sum(self.insert(rows, pivots, v) for v in vectors)

    def in_span(self, vectors, v) -> bool:
        return self.rank([*vectors, v]) == self.rank(vectors)


SPIN_FIELDS = [SpinField(), SpinField(5)]
SPIN_IDS = ["echelon_insert", "mod-5"]


def krylov_dimension(field, seeds, gens) -> int:
    """dim of the span of every word of length < d in gens applied to the
    seeds: the words of length d add nothing, so this is the spun span."""
    level, vectors = list(seeds), list(seeds)
    for _ in range(len(seeds[0]) - 1):
        level = [field.act(g, v) for v in level for g in gens]
        vectors += level
    return field.rank(vectors)


def check_spin(field, seeds, gens, full):
    elems, tree = spin(seeds, gens, field.act, field.insert, full)
    assert len(elems) == len(tree)
    for k, link in enumerate(tree):
        if link is not None:
            j, i = link
            assert j < k and elems[k] == field.act(gens[i], elems[j])
    # seeds are taken in the given order, each one outside the span so far
    starts = [k for k, link in enumerate(tree) if link is None] + [len(elems)]
    taken = 0
    for seed in seeds:
        before = elems[: starts[taken]]
        if taken < len(starts) - 1 and elems[starts[taken]] == seed and not field.in_span(before, seed):
            taken += 1
        else:
            assert field.in_span(before, seed) or len(before) == full
    assert taken == len(starts) - 1
    assert field.rank(elems) == len(elems)
    assert len(elems) == min(full, krylov_dimension(field, seeds, gens))
    return elems, tree


def spin_case(rng, field, d: int, triangular: bool):
    """1-3 generators on F^d with small Gaussian entries; with triangular,
    span(e_1..e_k) is invariant, so e_1 spins short of F^d."""
    k = rng.randint(1, d)

    def entry(i, j):
        if triangular and i >= k > j:
            return field.lift(0)
        return field.lift(gr(Fraction(rng.randint(-2, 2), rng.choice([1, 2, 3])), rng.randint(-1, 1)))

    gens = [[[entry(i, j) for j in range(d)] for i in range(d)] for _ in range(rng.randint(1, 3))]
    return gens, [[field.lift(int(r == c)) for r in range(d)] for c in range(d)]


@pytest.mark.parametrize("field", SPIN_FIELDS, ids=SPIN_IDS)
class TestSpin:
    def test_standard_seeds(self, rng, field):
        for trial in range(30):
            d = rng.randint(1, 4)
            gens, units = spin_case(rng, field, d, triangular=trial % 2 == 0)
            elems, _ = check_spin(field, units, gens, d)
            assert len(elems) == d
            if field.p is None:
                xs = [Matrix.from_rows(g) for g in gens]
                assert len(spin(units[:1], gens, field.act, field.insert, d)[0]) == spun_dimension(
                    xs, Matrix.column(units[0])
                )

    def test_repeated_and_dependent_seeds(self, rng, field):
        for _ in range(20):
            d = rng.randint(2, 4)
            gens, units = spin_case(rng, field, d, triangular=True)
            zero = [field.lift(0)] * d
            seeds = [units[-1], zero, units[-1], field.act(gens[0], units[0]), *units]
            check_spin(field, seeds, gens, d)

    def test_no_generators_takes_each_independent_seed(self, field):
        units = [[field.lift(int(r == c)) for r in range(3)] for c in range(3)]
        seeds = [units[0], units[0], [field.lift(2)] * 3, units[2], units[1]]
        elems, tree = check_spin(field, seeds, [], 3)
        assert elems == [units[0], seeds[2], units[2]]
        assert tree == [None, None, None]

    def test_stops_at_full(self, rng, field):
        for _ in range(20):
            d = rng.randint(2, 4)
            gens, units = spin_case(rng, field, d, triangular=False)
            whole = spin(units, gens, field.act, field.insert, d)
            for full in range(1, d + 1):
                calls = []

                def act(g, v):
                    calls.append(field.act(g, v))
                    return calls[-1]

                elems, tree = check_spin(field, units, gens, full)
                assert (elems, tree) == (whole[0][:full], whole[1][:full])
                elems, tree = spin(units, gens, act, field.insert, full)
                if tree[-1] is not None:
                    # no product is formed after the full-th element
                    assert calls[-1] == elems[-1]

    def test_words_of_matrices(self, field):
        # is_irreducible's use: words w g on the flattened 2 x 2 matrices
        e12, e21 = [[0, 1], [0, 0]], [[0, 0], [1, 0]]

        def act(g, w):
            prod = [[sum(w[2 * i + l] * g[l][j] for l in range(2)) for j in range(2)] for i in range(2)]
            return [field.lift(x) for row in prod for x in row]

        one = [field.lift(x) for x in (1, 0, 0, 1)]
        words, tree = spin([one], [e12, e21], act, field.insert, 4)
        assert len(words) == 4 and tree[1:] == [(0, 0), (0, 1), (1, 1)]
        assert len(spin([one], [e12], act, field.insert, 4)[0]) == 2

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_property(self, field, data):
        d = data.draw(st.integers(1, 4))
        small = st.sampled_from([0, 0, 0, 1, -1, 2, gr(0, 1), gr(Fraction(1, 2), -1)]).map(field.lift)
        vector = st.lists(small, min_size=d, max_size=d)
        gens = data.draw(st.lists(st.lists(vector, min_size=d, max_size=d), max_size=2))
        seeds = data.draw(st.lists(vector, min_size=1, max_size=4))
        check_spin(field, seeds, gens, data.draw(st.integers(1, d)))
