"""System data model, gauge action, irreducibility, equivalence."""

import random
from fractions import Fraction

import pytest

from midconv.errors import (
    DimensionMismatch,
    InconclusiveEquivalence,
    InvariantViolation,
    PointMismatch,
    SingularGauge,
    ValidationError,
)
from midconv.exactalg import Matrix, gr, invert, rank
from midconv.functors import mc
from midconv.systems import (
    PrincipalPart,
    System,
    TruncatedGauge,
    add_scalar,
    conjugate_system,
    equivalent,
    gauge_coadjoint,
    gauge_compose,
    is_irreducible,
    lambda_over_z,
    order,
    residue_at_infinity,
    scalar_system,
    truncated_inverse,
    zero_pair,
)
from midconv import modp, systems
from midconv.checks import random_gauge, random_invertible, random_matrix

from conftest import D10, E11, E12, E21, Z2, fuchsian, gaussian_matrix, irreducible_corpus


class TestOrder:
    def test_zero_part(self):
        assert order(PrincipalPart(gr(0), (Z2, Z2))) == 0

    def test_leading_only(self):
        assert order(PrincipalPart(gr(0), (E12, Z2))) == 1

    def test_second_order(self):
        assert order(PrincipalPart(gr(0), (Z2, Matrix.diagonal([1, 2])))) == 2


class TestSystemModel:
    def test_duplicate_points_rejected(self):
        with pytest.raises(ValidationError):
            System(2, Z2, (PrincipalPart(gr(0), (E12,)), PrincipalPart(gr(0), (E21,))))

    @pytest.mark.parametrize("point, shown", [(gr(3, -1), "3-1i"), (gr(10**5000), "<a number of 16610 bits>")])
    def test_a_duplicate_point_is_named_even_past_the_digit_limit(self, point, shown):
        part = PrincipalPart(point, (E12,))
        with pytest.raises(ValidationError) as info:
            System(2, Z2, (part, part))
        assert str(info.value) == f"duplicate pole point {shown}"

    def test_parts_sorted_by_point(self):
        s = System(2, Z2, (PrincipalPart(gr(1), (E21,)), PrincipalPart(gr(0), (E12,))))
        assert [p.point for p in s.parts] == [gr(0), gr(1)]

    def test_semantic_equality_ignores_padding(self):
        a = System(2, Z2, (PrincipalPart(gr(0), (E12,)),))
        b = System(2, Z2, (PrincipalPart(gr(0), (E12, Z2)), PrincipalPart(gr(1), (Z2,))))
        assert a == b

    def test_declaration_validated(self):
        s = Matrix.diagonal([2, 2])
        System(2, s, (), declaration=((gr(2), 1),))
        with pytest.raises(ValidationError):
            System(2, s, (), declaration=((gr(3), 1),))

    @pytest.mark.parametrize("order", [1.7, "3", -1, True, Fraction(2)], ids=repr)
    def test_declared_order_is_a_non_negative_int(self, order):
        # as documents._count requires of a document's orders; never coerced
        for n in (0, 1):
            with pytest.raises(ValidationError):
                System(n, Matrix.zeros(n, n), (), declaration=((gr(0), order),))
        assert System(1, Matrix.zeros(1, 1), (), declaration=((0, 2),)).declaration == ((gr(0), 2),)


class TestResidueAtInfinity:
    def test_no_parts(self):
        assert residue_at_infinity(System(2, Z2, ())).is_zero()

    def test_sign_convention(self):
        s = System(2, Z2, (PrincipalPart(gr(0), (E11,)),))
        assert residue_at_infinity(s) == -E11

    def test_balanced_residues_vanish(self):
        s = fuchsian({0: E11, 1: -E11})
        assert residue_at_infinity(s).is_zero()


class TestAddScalar:
    def test_zero_alpha_identity(self):
        s = fuchsian({0: E12})
        assert add_scalar(s, scalar_system({0: [0]})) == s

    def test_new_pole_scalar_matrix(self):
        s = System(2, Z2, ())
        r = add_scalar(s, scalar_system({0: [3]}))
        assert r.part_at(gr(0)).coefficients[0] == 3 * Matrix.identity(2)

    def test_entrywise_merge(self):
        s = fuchsian({0: E12})
        r = add_scalar(s, scalar_system({0: [1]}))
        assert r.part_at(gr(0)).coefficients[0] == Matrix.from_rows([[1, 1], [0, 1]])

    def test_residue_additivity(self, rng):
        for _ in range(10):
            n = rng.choice([1, 2, 3])
            s = System(
                n,
                Matrix.zeros(n, n),
                (PrincipalPart(gr(0), (random_matrix(rng, n),)),),
            )
            alpha = scalar_system({0: [rng.randint(-3, 3)], 1: [rng.randint(-3, 3)]})
            lhs = residue_at_infinity(add_scalar(s, alpha))
            rhs = residue_at_infinity(s) + residue_at_infinity(alpha).scalar() * Matrix.identity(n)
            assert lhs == rhs

    def test_declared_exponents_shift_with_the_constant(self):
        # (S - 1) = 0 for S = (1), so S + 2 satisfies (S + 2 - 3) = 0
        s = System(1, Matrix.from_rows([[1]]), (), ((1, 1),))
        r = add_scalar(s, scalar_system({0: [1]}, constant=2))
        assert r.constant == Matrix.from_rows([[3]])
        assert r.declaration == ((gr(3), 1),)


class TestGauge:
    def test_singular_gauge_rejected(self):
        with pytest.raises(SingularGauge):
            TruncatedGauge(gr(0), (Z2,))

    def test_gauges_at_two_points_do_not_compose(self):
        one = (Matrix.identity(2),)
        with pytest.raises(PointMismatch):
            gauge_compose(TruncatedGauge(gr(0), one), TruncatedGauge(gr(1), one))

    def test_gauge_acts_only_on_the_part_at_its_point(self):
        g = TruncatedGauge(gr(0, 1), (Matrix.identity(2),))
        with pytest.raises(PointMismatch):
            gauge_coadjoint(g, PrincipalPart(gr(0), (E12,)))

    def test_constant_conjugation(self):
        a = Matrix.from_rows([[1, 1], [1, 2]])
        g = TruncatedGauge(gr(0), (a,))
        part = PrincipalPart(gr(0), (E12, E21))
        res = gauge_coadjoint(g, part)
        ainv = invert(a)
        assert res.coefficients == (a * E12 * ainv, a * E21 * ainv)

    def test_first_order_no_correction_at_k1(self):
        g = TruncatedGauge(gr(0), (Matrix.identity(2), Matrix.from_rows([[1, 2], [3, 4]])))
        part = PrincipalPart(gr(0), (E21,))
        assert gauge_coadjoint(g, part).coefficients == (E21,)

    def test_first_order_commutator_at_k2(self):
        x = Matrix.from_rows([[1, 2], [0, 1]])
        lam = Matrix.diagonal([5, 7])
        g = TruncatedGauge(gr(0), (Matrix.identity(2), x))
        part = PrincipalPart(gr(0), (Z2, lam))
        res = gauge_coadjoint(g, part)
        assert res.coefficients[1] == lam
        assert res.coefficients[0] == x * lam - lam * x

    def test_group_action(self, rng):
        for _ in range(15):
            n, k = rng.choice([2, 3]), rng.choice([1, 2, 3])
            part = PrincipalPart(gr(0), tuple(random_matrix(rng, n) for _ in range(k)))
            g = random_gauge(rng, gr(0), n, k)
            h = random_gauge(rng, gr(0), n, k)
            lhs = gauge_coadjoint(gauge_compose(g, h), part)
            rhs = gauge_coadjoint(g, gauge_coadjoint(h, part))
            assert lhs.coefficients == rhs.coefficients

    def test_order_preserved(self, rng):
        for _ in range(15):
            n, k = rng.choice([2, 3]), rng.choice([1, 2, 3])
            part = PrincipalPart(gr(0), tuple(random_matrix(rng, n) for _ in range(k)))
            g = random_gauge(rng, gr(0), n, k)
            assert order(gauge_coadjoint(g, part)) == order(part)


def laurent_product(a: dict, b: dict) -> dict:
    """Product of Laurent series given as {exponent: matrix}, written out term by term."""
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out[i + j] + x * y if i + j in out else x * y
    return out


class TestSeriesAgainstLaurentProducts:
    @pytest.mark.parametrize("k", [3, 4])
    def test_truncated_inverse(self, rng, k):
        for n in (1, 2, 3):
            g = random_gauge(rng, gr(0), n, k).coefficients
            inv = truncated_inverse(g, k)
            assert len(inv) == k
            gser, iser = dict(enumerate(g)), dict(enumerate(inv))
            for prod in (laurent_product(gser, iser), laurent_product(iser, gser)):
                for e in range(k):
                    assert prod[e] == (Matrix.identity(n) if e == 0 else Matrix.zeros(n, n))

    @pytest.mark.parametrize("k", [3, 4])
    def test_gauge_coadjoint(self, rng, k):
        # B is the principal part of g A g^{-1} iff g A - B g has no negative powers
        for n, glen in ((2, k), (2, k - 1), (3, k), (2, k + 1)):
            part = PrincipalPart(gr(0), tuple(random_matrix(rng, n) for _ in range(k)))
            g = random_gauge(rng, gr(0), n, glen)
            res = gauge_coadjoint(g, part)
            assert len(res.coefficients) == k
            gser = dict(enumerate(g.coefficients))
            ga = laurent_product(gser, {-j: a for j, a in enumerate(part.coefficients, 1)})
            bg = laurent_product({-j: b for j, b in enumerate(res.coefficients, 1)}, gser)
            for e in range(-k, 0):
                assert ga[e] == bg[e]


class TestIrreducibility:
    def test_rank_one_always(self):
        assert is_irreducible(scalar_system({0: [5]}))

    def test_generating_pair(self):
        assert is_irreducible(fuchsian({0: E12, 1: E21}))

    def test_invariant_line(self):
        assert not is_irreducible(fuchsian({0: E11, 1: E21}))

    def test_conjugation_invariance(self, rng):
        from midconv.checks import random_invertible

        s = fuchsian({0: E12, 1: E21})
        t = fuchsian({0: E11, 1: E21})
        for _ in range(8):
            c = random_invertible(rng, 2)
            assert is_irreducible(conjugate_system(c, s))
            assert not is_irreducible(conjugate_system(c, t))

    def test_triangular_families_reducible(self, rng):
        # hidden common invariant line: conjugated upper-triangular families
        from midconv.checks import random_invertible

        for _ in range(10):
            n = rng.choice([2, 3])
            mats = []
            for _ in range(3):
                rows = [
                    [rng.randint(-2, 2) if j >= i else 0 for j in range(n)]
                    for i in range(n)
                ]
                mats.append(Matrix.from_rows(rows))
            c = random_invertible(rng, n)
            sys = conjugate_system(
                c,
                System(
                    n,
                    Matrix.zeros(n, n),
                    tuple(
                        PrincipalPart(gr(k), (m,)) for k, m in enumerate(mats)
                    ),
                ),
            )
            assert not is_irreducible(sys)

    def test_shift_pair_families_irreducible(self, rng):
        # E12/E21-style ladders generate the full endomorphism algebra
        from midconv.checks import random_invertible

        for n in (2, 3):
            up = Matrix.from_rows(
                [[1 if j == i + 1 else 0 for j in range(n)] for i in range(n)]
            )
            down = up.transpose()
            sys = fuchsian({0: up, 1: down}, dim=n)
            assert is_irreducible(sys)
            c = random_invertible(rng, n)
            assert is_irreducible(conjugate_system(c, sys))


def generators(sys: System) -> list:
    """The nonzero matrices of sys as flat entry lists, as ``modp`` reads them."""
    return [g.entries() for g in [sys.constant] + [c for p in sys.parts for c in p.coefficients] if not g.is_zero()]


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; these bases decide every n < 3.4e14."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17)
    if n in bases:
        return True
    if any(n % b == 0 for b in bases):
        return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def upper_triangular(rng, n: int) -> Matrix:
    return Matrix.from_rows([[rng.randint(-2, 2) if j >= i else 0 for j in range(n)] for i in range(n)])


def upper_triangular_mod_5(rng, n: int) -> Matrix:
    """Upper triangular mod 5: the entries below the diagonal are multiples of 5."""
    return Matrix.from_rows([[rng.randint(-2, 2) * (5 if j < i else 1) for j in range(n)] for i in range(n)])


def logged(monkeypatch, module, name: str, log: list) -> None:
    """Wrap module.name so that each call appends (name, its result) to log
    once it returns; a nested call is logged before the call around it."""
    inner = getattr(module, name)

    def wrapper(*args):
        out = inner(*args)
        log.append((name, out))
        return out

    monkeypatch.setattr(module, name, wrapper)


class TestIrreducibilityCertificate:
    """is_irreducible has two paths: from ``_MEATAXE_DIM`` on, the MeatAxe
    certifies True mod p (here p = 5 with i -> 2, or the module's prime);
    below it, on every miss and for every False the exact closure decides.
    A fallback test patches ``_MEATAXE_DIM`` so that ``_full_mod`` runs, and
    an exact baseline patches it above the dimensions it decides."""

    def test_certificate_primes(self):
        p, s = modp._CERT_PRIME
        assert p % 4 == 1 and is_prime(p)
        assert 0 < s < p and s * s % p == p - 1
        assert [is_prime(n) for n in (1, 2, 5, 25, 561, 1_000_000_007, 3_215_031_751)] == [
            False, True, True, False, False, True, False,
        ]

    def test_irreducible_but_not_certified_mod_5_falls_back(self, monkeypatch):
        # 5 E21 vanishes mod 5, leaving the algebra of E12 alone
        sys = fuchsian({0: E12, 1: 5 * E21})
        log = []
        logged(monkeypatch, modp, "_full_mod", log)
        monkeypatch.setattr(modp, "_MEATAXE_DIM", 2)
        monkeypatch.setattr(modp, "_CERT_PRIME", (5, 2))
        assert is_irreducible(sys)
        assert log == [("_full_mod", False)]

    def test_denominator_divisible_by_p_skips_the_prime(self, monkeypatch):
        sys = fuchsian({0: E12, 1: Fraction(1, 5) * E21})
        assert modp._full_mod(2, generators(sys), 13, 5) is True
        log = []
        logged(monkeypatch, modp, "_full_mod", log)
        monkeypatch.setattr(modp, "_MEATAXE_DIM", 2)
        monkeypatch.setattr(modp, "_CERT_PRIME", (5, 2))
        assert is_irreducible(sys)
        assert log == [("_full_mod", None)]

    def test_gaussian_entries_map_i_to_the_root(self):
        # (i - 2) E21 vanishes under i -> 2 but not under i -> 3
        sys = fuchsian({0: E12, 1: gr(-2, 1) * E21})
        assert modp._full_mod(2, generators(sys), 5, 2) is False
        assert modp._full_mod(2, generators(sys), 5, 3) is True

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_generators_that_all_vanish_mod_p_are_never_certified(self, n):
        # the algebra mod p is then the scalars, a proper subalgebra from n = 2 on
        corpus = random.Random(n)
        for p, s in (modp._CERT_PRIME, (5, 2)):
            sys = fuchsian({pt: p * random_matrix(corpus, n) for pt in (0, 1)})
            assert generators(sys) and modp._full_mod(n, generators(sys), p, s) is False

    def test_reducible_families_never_certified(self, rng):
        primes = (modp._CERT_PRIME, (5, 2), (13, 5))
        families = [fuchsian({0: E11, 1: E21}), fuchsian({0: D10, 1: 5 * E12})]
        for _ in range(10):
            n = rng.choice([2, 3, 4])
            parts = tuple(
                PrincipalPart(gr(k), tuple(upper_triangular(rng, n) for _ in range(rng.randint(1, 3))))
                for k in range(rng.randint(1, 3))
            )
            families.append(conjugate_system(random_invertible(rng, n), System(n, Matrix.zeros(n, n), parts)))
        for sys in families:
            for p, s in primes:
                assert modp._full_mod(sys.dimension, generators(sys), p, s) is not True
            assert not is_irreducible(sys)

    @pytest.mark.parametrize("prime", [modp._CERT_PRIME, (5, 2)], ids=["module-prime", "mod-5"])
    def test_verdict_agrees_with_exact_closure(self, monkeypatch, rng, prime):
        cases = []
        for trial in range(24):
            n = rng.choice([2, 3, 4])
            draw = (upper_triangular, upper_triangular_mod_5, gaussian_matrix)[trial % 3]
            parts = tuple(
                PrincipalPart(gr(pt), tuple(draw(rng, n) for _ in range(order)))
                for pt, order in zip(rng.sample([0, 1, -1, 2], rng.randint(1, 3)), [1, 2, 3])
            )
            cases.append(conjugate_system(random_invertible(rng, n), System(n, Matrix.zeros(n, n), parts)))
        # above every dimension here the exact closure alone decides
        monkeypatch.setattr(modp, "_MEATAXE_DIM", 5)
        exact = [is_irreducible(sys) for sys in cases]
        assert True in exact and False in exact
        log = []
        logged(monkeypatch, modp, "_full_mod", log)
        monkeypatch.setattr(modp, "_MEATAXE_DIM", 2)
        monkeypatch.setattr(modp, "_CERT_PRIME", prime)
        assert [is_irreducible(sys) for sys in cases] == exact
        # each case reaches _full_mod once
        assert len(log) == len(cases)
        if prime != (5, 2):
            # at 5 the Gaussian draws have denominators 5 and the others are
            # reducible mod 5, so there only the closure says True
            assert [out for _, out in log].count(True) > len(cases) // 3

    @pytest.mark.parametrize("meataxe_dim", [modp._MEATAXE_DIM, 2], ids=["as-shipped", "meataxe"])
    def test_irreducible_over_f5_but_not_absolutely(self, monkeypatch, meataxe_dim):
        # g^2 = 2 and 2 is no square mod 5: the algebra of g is F_25, which has
        # no line over F_5 to fix, but every element of it with an eigenvalue
        # in F_5 is a scalar, whose eigenspace is all of V
        sys = fuchsian({0: Matrix.from_rows([[0, 2], [1, 0]])})
        assert modp._full_mod(2, generators(sys), 5, 2) is False
        log = []
        logged(monkeypatch, modp, "_full_mod", log)
        monkeypatch.setattr(modp, "_MEATAXE_DIM", meataxe_dim)
        monkeypatch.setattr(modp, "_CERT_PRIME", (5, 2))
        assert is_irreducible(sys) is False
        # below _MEATAXE_DIM the exact closure alone decides; from it the MeatAxe runs first
        assert log == ([("_full_mod", False)] if meataxe_dim <= 2 else [])

    def test_middle_convolutions_are_certified_at_the_module_prime(self, monkeypatch):
        # a certificate that never fires would leave every other verdict in place;
        # the prime is chosen for cost, and may miss at most MISSES of these
        # irreducible systems (at p = 17 one of the draws is missed)
        MISSES = 0
        corpus = random.Random(8)
        outputs = []
        while len(outputs) < 40:
            residues = {pt: random_matrix(corpus, 3, bound=1) for pt in (0, 1, -1)}
            sys = fuchsian(residues)
            if is_irreducible(sys):
                out = mc(sys, lambda_over_z(1))
                if 6 <= out.dimension <= 9:
                    outputs.append(out)
        outputs += irreducible_corpus(corpus, 20) + irreducible_corpus(corpus, 20, max_dim=6)
        p, s = modp._CERT_PRIME
        verdicts = [modp._full_mod(out.dimension, generators(out), p, s) for out in outputs]
        assert len(outputs) - verdicts.count(True) <= MISSES

        def closure(*args):
            raise AssertionError("is_irreducible reached the exact closure")

        # below _MEATAXE_DIM the closure alone decides, so only the larger outputs must avoid it
        assert modp._MEATAXE_DIM <= 6
        large = [out for out in outputs if out.dimension >= modp._MEATAXE_DIM]
        assert len(large) > len(outputs) // 2
        monkeypatch.setattr(systems, "spin", closure)
        assert all(is_irreducible(out) for out in large)

    def test_each_path_runs_where_it_is_cheaper(self, monkeypatch, rng):
        # below _MEATAXE_DIM the closure alone; from it the MeatAxe first, and
        # the closure only after a miss at the module prime
        log = []
        for name in ("_full_mod", "_meataxe_mod"):
            logged(monkeypatch, modp, name, log)
        logged(monkeypatch, systems, "spin", log)
        corpus = random.Random(10)
        for n in range(2, 7):
            log.clear()
            assert is_irreducible(fuchsian({pt: random_matrix(corpus, n) for pt in (0, 1, -1)}))
            if n < modp._MEATAXE_DIM:
                assert [name for name, _ in log] == ["spin"]
            else:
                assert log == [("_meataxe_mod", True), ("_full_mod", True)]
            log.clear()
            assert not is_irreducible(fuchsian({0: upper_triangular(rng, n), 1: upper_triangular(rng, n)}))
            reached = [name for name, _ in log]
            if n < modp._MEATAXE_DIM:
                assert reached == ["spin"]
            else:
                assert reached == ["_meataxe_mod", "_full_mod", "spin"]

    def test_global_random_state_is_left_alone(self):
        random.seed(7)
        state = random.getstate()
        corpus = random.Random(9)
        for n in (2, 5, 6):
            assert is_irreducible(fuchsian({pt: random_matrix(corpus, n) for pt in (0, 1, -1)}))
        assert not is_irreducible(fuchsian({0: E11, 1: E21}))
        assert random.getstate() == state


class TestEquivalent:
    def test_dimension_zero_gives_the_empty_matrix(self):
        assert equivalent(zero_pair(), zero_pair()) == Matrix.zeros(0, 0)

    def test_self_equivalence(self):
        s = fuchsian({0: E12, 1: E21})
        f = equivalent(s, s)
        assert f is not None

    def test_conjugation_round_trip(self, rng):
        from midconv.checks import random_invertible

        s = fuchsian({0: E12, 1: E21})
        for _ in range(8):
            c = random_invertible(rng, 2)
            t = conjugate_system(c, s)
            f = equivalent(s, t)
            assert f is not None
            assert conjugate_system(f, s) == t

    def test_moved_pole_not_equivalent(self):
        a = fuchsian({0: E12, 1: E21})
        b = fuchsian({0: E12, 2: E21})
        assert equivalent(a, b) is None

    def test_reducible_pair_with_one_intertwiner_is_decided(self):
        # lower-triangular algebra: its commutant is the scalars, so dim Hom = 1
        a = fuchsian({0: E11, 1: E21})
        f = equivalent(a, a)
        assert f is not None and rank(f) == 2
        assert conjugate_system(f, a) == a

    def test_reducible_pair_whose_first_basis_vector_is_not_cyclic(self, rng):
        # E11 and E12 fix the line of e_1, so spinning it needs a second seed;
        # the upper-triangular algebra they generate has only scalars as commutant
        a = fuchsian({0: E11, 1: E12})
        assert not is_irreducible(a)
        for _ in range(4):
            c = random_invertible(rng, 2)
            lead = next(x for x in c.entries() if not x.is_zero())
            f = equivalent(a, conjugate_system(c, a))
            assert f == c.scale(lead.inverse())
        # a + a' with a' = a + 5 at pole 0: no map between the summands, so dim End = 2
        b = fuchsian(
            {0: Matrix.block_diagonal([E11, E11.shift(5)]), 1: Matrix.block_diagonal([E12, E12])}
        )
        assert len(systems._intertwiner_space(b, b)) == 2
        with pytest.raises(InconclusiveEquivalence):
            equivalent(b, b)

    def test_two_dimensional_intertwiner_space_is_inconclusive(self):
        # the commutant of diag(1, 0) is every diagonal matrix
        a = fuchsian({0: D10})
        with pytest.raises(InconclusiveEquivalence):
            equivalent(a, a)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            equivalent(scalar_system({0: [1]}), fuchsian({0: E12, 1: E21}))

    def test_reducible_target_without_intertwiner_is_not_equivalent(self):
        a = fuchsian({0: E12, 1: E21})
        b = fuchsian({0: E11, 1: E21})
        assert equivalent(a, b) is None

    def test_equivalent_pair_makes_no_irreducibility_test(self, monkeypatch, rng):
        from midconv.checks import random_invertible

        calls = []

        def counted(sys):
            calls.append(sys)
            return is_irreducible(sys)

        monkeypatch.setattr("midconv.systems.is_irreducible", counted)
        s = fuchsian({0: E12, 1: E21})
        t = conjugate_system(random_invertible(rng, 2), s)
        f = equivalent(s, t)
        assert conjugate_system(f, s) == t
        assert equivalent(s, fuchsian({0: E12, 2: E21})) is None
        assert calls == []

    @pytest.mark.parametrize("which", ["both", "source", "target"])
    def test_schur_bound_is_checked_for_either_irreducible_argument(self, monkeypatch, which):
        irreducible = fuchsian({0: E12, 1: E21})
        reducible = fuchsian({0: E11, 1: E21})
        a = reducible if which == "target" else irreducible
        b = reducible if which == "source" else irreducible
        monkeypatch.setattr(
            "midconv.systems._intertwiner_space", lambda a, b: [Matrix.identity(2), E12]
        )
        with pytest.raises(InvariantViolation):
            equivalent(a, b)

    def test_random_pairs_get_conjugating_witnesses(self, rng):
        # half of the sources are upper triangular (reducible); half of the
        # targets are conjugates of the source, so they must not get None
        from midconv.checks import random_invertible, random_system

        def upper(m):
            return Matrix.from_rows(
                [[m[i, j] if j >= i else 0 for j in range(m.cols)] for i in range(m.rows)]
            )

        def draw(n=None):
            while True:
                sys = random_system(rng, constant=rng.choice(["zero", "diagonal", "full"]))
                if n is None or sys.dimension == n:
                    return sys

        decided_reducible = 0
        for trial in range(40):
            a = draw()
            if trial % 2:
                a = System(
                    a.dimension,
                    upper(a.constant),
                    tuple(PrincipalPart(p.point, tuple(map(upper, p.coefficients))) for p in a.parts),
                )
            conjugate = trial % 4 < 2
            if conjugate:
                b = conjugate_system(random_invertible(rng, a.dimension), a)
            else:
                b = draw(a.dimension)
            try:
                f = equivalent(a, b)
            except InconclusiveEquivalence:
                continue
            if f is None:
                assert not conjugate
                continue
            assert rank(f) == a.dimension
            assert conjugate_system(f, a) == b
            if not is_irreducible(a):
                decided_reducible += 1
        assert decided_reducible > 0
