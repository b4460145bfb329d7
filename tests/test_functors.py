"""Duality and convolution functors."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from midconv import datum, functors
from midconv.datum import Block, kappa, psi, swap, swap_back
from midconv.errors import Exceptional, IrrationalSpectrum, NonzeroConstantTerm, NotFuchsian, PoleMismatch
from midconv.exactalg import Matrix, generalized_eigendecomposition, gr, invert, nilpotent_powers
from midconv.functors import (
    OkuboTriple,
    dr_middle_convolution,
    hd,
    hd_double,
    mc,
    okubo_to_pair,
)
from midconv.documents import serialize_document, system_to_document
from midconv.systems import (
    PrincipalPart,
    System,
    add_scalar,
    equivalent,
    is_irreducible,
    lambda_over_z,
    scalar_system,
    zero_pair,
)
from midconv.checks import random_invertible, random_matrix

from conftest import E12, E21, Z2, fuchsian, irreducible_corpus, jordan_constant_input, rational_spectrum_matrix

J = lambda d: Matrix.from_rows(
    [[1 if j == i + 1 else 0 for j in range(d)] for i in range(d)]
)


class TestHd:
    def test_rank_one_single_pole(self):
        # (C, s + a1/(z-t) + a2/(z-t)^2) -> (C^2, (tI + J2) + R/(zeta - s))
        s, t = gr(2), gr(3)
        p = System(
            1,
            Matrix.from_rows([[s]]),
            (PrincipalPart(t, (Matrix.from_rows([[5]]), Matrix.from_rows([[7]]))),),
        )
        d = hd(p)
        assert d.dimension == 2
        assert d.constant == t * Matrix.identity(2) + J(2)
        assert d.parts[0].point == s
        assert d.parts[0].coefficients[0] == Matrix.from_rows([[0, 0], [7, 5]])

    def test_pure_constant_dualizes_to_zero(self):
        assert hd(System(2, Matrix.diagonal([1, 2]), ())) == zero_pair()
        assert hd(System(1, Matrix.from_rows([[4]]), ())) == zero_pair()
        assert hd(zero_pair()) == zero_pair()
        # eigenvalues +-sqrt(2): W = 0, so psi never asks for the spectrum of S
        assert hd(System(2, Matrix.from_rows([[0, 1], [2, 0]]), ())) == zero_pair()

    def test_irrational_constant_spectrum_rejected(self):
        from midconv.errors import IrrationalSpectrum

        s = Matrix.from_rows([[0, 2], [1, 0]])  # eigenvalues +-sqrt(2)
        p = System(2, s, (PrincipalPart(gr(0), (E12,)),))
        with pytest.raises(IrrationalSpectrum):
            hd(p)

    def test_two_pole_fuchsian(self):
        p = fuchsian({0: E12, 1: E21})
        d = hd(p)
        assert d.dimension == 2
        assert d.constant == Matrix.diagonal([0, 1])
        assert d.parts[0].point == gr(0)
        assert d.parts[0].coefficients[0] == Matrix.from_rows([[0, 1], [1, 0]])

    def test_rank_one_multi_pole_block_structure(self):
        # two poles of orders 1 and 2: the dual residue R is built from
        # per-block rows (a_{t,d_t} ... a_{t,1}) placed at the last row of
        # each target block
        s = gr(4)
        p = System(
            1,
            Matrix.from_rows([[s]]),
            (
                PrincipalPart(gr(0), (Matrix.from_rows([[5]]),)),
                PrincipalPart(gr(1), (Matrix.from_rows([[7]]), Matrix.from_rows([[9]]))),
            ),
        )
        d = hd(p)
        assert d.dimension == 3
        assert d.constant == Matrix.from_rows([[0, 0, 0], [0, 1, 1], [0, 0, 1]])
        assert d.parts[0].point == s
        assert d.parts[0].coefficients[0] == Matrix.from_rows(
            [[5, 9, 7], [0, 0, 0], [5, 9, 7]]
        )

    def test_hd_preserves_irreducibility(self, rng):
        corpus = irreducible_corpus(rng, 10, max_dim=2)
        for p in corpus:
            d = hd(p)
            if d.dimension:
                assert is_irreducible(d)


class TestMc:
    def test_entry_formula_1_1_1(self):
        p = scalar_system({0: [1, 1]})
        res = mc(p, lambda_over_z(1))
        part = res.part_at(gr(0))
        assert res.dimension == 2
        assert part.coefficients[1] == Matrix.from_rows([[1, 2], [0, 0]])
        assert part.coefficients[0] == Matrix.from_rows([[1, 0], [1, 2]])

    def test_entry_formula_3_2_1(self):
        p = scalar_system({0: [3, 2]})
        res = mc(p, lambda_over_z(1))
        part = res.part_at(gr(0))
        # alpha = 3/z + 2/z^2, lambda = 1, d = 2
        # (i,j): a_{d-j+1}/z^{d-i+1} + lam/z^{j-i+1} for i<=j, else a_{d-j+1}/z^{d-i+1}
        assert part.coefficients[1] == Matrix.from_rows([[2, 3 + 1], [0, 0]])
        assert part.coefficients[0] == Matrix.from_rows([[1, 0], [2, 3 + 1]])

    def test_degenerate_weight_projects(self):
        p = scalar_system({0: [1, 1]})
        res = mc(p, lambda_over_z(-1))
        part = res.part_at(gr(0))
        assert res.dimension == 1
        assert part.coefficients[0].scalar() == gr(-1)
        assert part.coefficients[1].scalar() == gr(1)

    def test_mc_zero_is_identity(self, rng):
        for p in irreducible_corpus(rng, 6, max_dim=2):
            res = mc(p, scalar_system({}))
            assert equivalent(res, p) is not None

    def test_pole_outside_spectrum_rejected(self):
        p = fuchsian({0: E12, 1: E21})
        with pytest.raises(PoleMismatch):
            mc(p, scalar_system({5: [1]}))

    def test_order_above_nilpotency_rejected(self):
        p = fuchsian({0: E12, 1: E21})  # constant 0, nilpotency index 1
        with pytest.raises(PoleMismatch):
            mc(p, scalar_system({0: [1, 1]}))

    def test_zero_pair_convolves_to_zero_pair(self):
        assert mc(zero_pair(), scalar_system({})) == zero_pair()
        with pytest.raises(PoleMismatch):
            mc(zero_pair(), scalar_system({0: [1]}))

    def test_no_spectrum_of_s_when_w_is_zero(self):
        # S has the irrational spectrum +-sqrt(2); W = 0, so both duals vanish
        s = Matrix.from_rows([[0, 1], [2, 0]])
        for p in (System(2, s, ()), System(2, s, (PrincipalPart(gr(0), (Z2,)),))):
            assert kappa(p).dim_w == 0
            for alpha in (scalar_system({}), scalar_system({1: [0]})):
                assert mc(p, alpha) == hd(add_scalar(hd(p), alpha)) == zero_pair()
            # an effective pole still needs the spectrum
            with pytest.raises(IrrationalSpectrum):
                mc(p, scalar_system({0: [1]}))

    def test_translation_parameter_rejected(self):
        p = fuchsian({0: E12, 1: E21})
        with pytest.raises(NonzeroConstantTerm):
            mc(p, scalar_system({0: [1]}, constant=2))

    def test_multi_coefficient_parameter_on_jordan_constant(self):
        # constant S = J2 has nilpotency index 2 at eigenvalue 0
        p = System(2, J(2), (PrincipalPart(gr(0), (E21,)),))
        assert is_irreducible(p)
        res = mc(p, scalar_system({0: [1, 1]}))
        assert res.dimension > 0

    def test_parameter_with_poles_at_two_eigenvalues(self):
        p = System(
            2,
            Matrix.diagonal([0, 1]),
            (PrincipalPart(gr(0), (E12,)), PrincipalPart(gr(2), (E21,))),
        )
        assert is_irreducible(p)
        res = mc(p, scalar_system({0: [1], 1: [2]}))
        assert res.dimension > 0
        identity = mc(p, scalar_system({}))
        assert equivalent(identity, p) is not None

    def test_gaussian_pole_points(self):
        p = System(
            2,
            Z2,
            (PrincipalPart(gr(0, 1), (E12,)), PrincipalPart(gr(0, -1), (E21,))),
        )
        assert is_irreducible(p)
        back, witness = hd_double(p)
        assert witness is not None


def read_back_inputs():
    """(p, alpha) pairs: seeded Fuchsian pairs, pairs with poles of order 2
    and 3, and constant terms with a Jordan block."""
    rng = random.Random(1601)
    out = []
    for orders in ((1, 1, 1), (1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 1, 2), (3, 3, 1)):
        n = rng.randint(2, 3)
        parts = tuple(
            PrincipalPart(gr(pt), tuple(random_matrix(rng, n) for _ in range(k)))
            for pt, k in zip((0, 1, -1), orders)
        )
        out.append((System(n, Matrix.zeros(n, n), parts), lambda_over_z(rng.choice((1, -2, gr(1, 1))))))
    for n in (2, 3, 4):
        out.append(jordan_constant_input(rng, n))
    return out


class TestMcReadsBackOnHBlocks:
    @pytest.mark.parametrize("p, alpha", read_back_inputs())
    def test_read_back_is_the_swap_by_the_spectrum_of_t(self, p, alpha):
        h = kappa(p)
        assert len(h.blocks) >= 2
        # the S of the second duality is psi(h)'s constant T; swap computes its
        # spectrum, the read-back takes h's coordinate blocks
        d = kappa(psi(h))
        assert d.s_matrix == h.t_matrix()
        assert swap_back(h, d) == swap(d)

    @pytest.mark.parametrize("p, alpha", read_back_inputs())
    def test_mc_equals_the_composite_of_its_three_functors(self, p, alpha):
        assert mc(p, alpha) == hd(add_scalar(hd(p), alpha))

    @pytest.mark.parametrize("p, alpha", read_back_inputs())
    def test_nilpotent_powers_once_per_block_built(self, monkeypatch, p, alpha):
        # the parameter bound is read off the first dual's blocks, which
        # built their powers already, and the read-back takes the powers h's
        # blocks hold: no table of powers is computed twice
        handed_on = len(kappa(p).blocks)
        blocks, tables = [], []
        init = Block.__init__

        def built(block, *args, **kwargs):
            blocks.append(block)
            init(block, *args, **kwargs)

        def counted(nil):
            tables.append(nil)
            return nilpotent_powers(nil)

        monkeypatch.setattr(Block, "__init__", built)
        for module in (datum, functors):
            monkeypatch.setattr(module, "nilpotent_powers", counted, raising=False)
        mc(p, alpha)
        assert handed_on > 0
        assert len(tables) == len(blocks) - handed_on
        assert len({id(nil) for nil in tables}) == len(tables)

    def test_jordan_constant_blocks_at_the_pole_of_alpha(self):
        p, alpha = jordan_constant_input(random.Random(7), 3)
        s = alpha.parts[0].point
        nil = next(nil for ev, _, nil in generalized_eigendecomposition(kappa(p).s_matrix) if ev == s)
        assert not nil.is_zero()
        assert mc(p, alpha) == hd(add_scalar(hd(p), alpha))


class TestDrOracle:
    def test_hand_computed_example(self):
        p = fuchsian({0: E12, 1: E21})
        r = dr_middle_convolution(p, gr(1))
        expected = System(
            1,
            Matrix.zeros(1, 1),
            (
                PrincipalPart(gr(0), (Matrix.from_rows([[1]]),)),
                PrincipalPart(gr(1), (Matrix.from_rows([[1]]),)),
            ),
        )
        assert r == expected

    def test_zero_weight_identity(self):
        p = fuchsian({0: E12, 1: E21})
        r = dr_middle_convolution(p, gr(0))
        assert equivalent(r, p) is not None

    def test_invertible_pencil_dimension_count(self, rng):
        from midconv.exactalg import rank

        for _ in range(8):
            p = fuchsian({0: random_matrix(rng, 2), 1: random_matrix(rng, 2)})
            total_rank = sum(rank(part.coefficients[0]) for part in p.parts)
            r = dr_middle_convolution(p, gr(7))  # entries in [-2,2]: PQ + 7 invertible
            assert r.dimension == total_rank

    def test_not_fuchsian_rejected(self):
        p = System(1, Matrix.zeros(1, 1), (PrincipalPart(gr(0), (Matrix.from_rows([[1]]), Matrix.from_rows([[1]]))),))
        with pytest.raises(NotFuchsian):
            dr_middle_convolution(p, gr(1))

    def test_mc_matches_oracle(self, rng):
        corpus = [p for p in irreducible_corpus(rng, 12, max_dim=2) if all(
            len(part.coefficients) == 1 or all(c.is_zero() for c in part.coefficients[1:])
            for part in p.parts
        )]
        # ensure we also cover hand-picked Fuchsian pairs
        corpus.append(fuchsian({0: E12, 1: E21}))
        for p in corpus:
            fp = System(
                p.dimension,
                Matrix.zeros(p.dimension, p.dimension),
                tuple(PrincipalPart(part.point, part.coefficients[:1]) for part in p.parts),
            )
            if fp.dimension >= 2 and not is_irreducible(fp):
                continue
            for lam in [gr(0), gr(1), gr(-2)]:
                a = mc(fp, lambda_over_z(lam))
                b = dr_middle_convolution(fp, lam)
                assert a.dimension == b.dimension
                if a.dimension and is_irreducible(a):
                    assert equivalent(a, b) is not None


scalars = st.builds(gr, st.fractions(-2, 2, max_denominator=3), st.integers(-1, 1))


def matrices(rows: int, cols: int):
    return st.lists(scalars, min_size=rows * cols, max_size=rows * cols).map(lambda e: Matrix(rows, cols, e))


@st.composite
def fuchsian_d0_pairs(draw):
    """S = 0 and 1 to 3 simple poles, each residue a product n x r times
    r x n, so every rank from 0 to n occurs."""
    n = draw(st.integers(1, 3))
    points = st.sampled_from([gr(0), gr(1), gr(-1), gr(2), gr(0, 1), gr(Fraction(1, 2), -1)])
    parts = []
    for point in draw(st.lists(points, min_size=1, max_size=3, unique=True)):
        r = draw(st.integers(0, n))
        parts.append(PrincipalPart(point, (draw(matrices(n, r)) * draw(matrices(r, n)),)))
    return System(n, Matrix.zeros(n, n), tuple(parts))


class TestMcIsTheTwoStepConstruction:
    """On a Fuchsian pair with S = 0, mc(p, lambda/z) is the Dettweiler-Reiter
    construction in the same coordinates, entry for entry: the pivot
    coordinates of both quotients are the reduced echelon ones."""

    @given(fuchsian_d0_pairs(), st.one_of(st.just(gr(0)), scalars))
    @example(fuchsian({0: E12, 1: E21}), gr(0))  # lambda = 0
    @example(fuchsian({0: E12, 1: E21}), gr(1, 1))  # lambda outside Q
    @example(fuchsian({0: Z2, 1: Z2}), gr(2))  # no effective pole: both are the zero pair
    @example(fuchsian({0: E12, 1: -E12}), gr(0))  # output dimension 0
    @settings(max_examples=80, deadline=None)
    def test_mc_equals_dr_entry_for_entry(self, p, lam):
        via_duality, via_quotients = mc(p, lambda_over_z(lam)), dr_middle_convolution(p, lam)
        assert via_duality == via_quotients
        assert system_to_document(via_duality) == system_to_document(via_quotients)

    def test_the_examples_reach_dimension_zero(self):
        for p, lam in ((fuchsian({0: Z2, 1: Z2}), gr(2)), (fuchsian({0: E12, 1: -E12}), gr(0))):
            assert mc(p, lambda_over_z(lam)) == dr_middle_convolution(p, lam) == zero_pair()


def random_parts(rng, n, points, max_order):
    """Principal parts at the given points, each of order 1 to max_order."""
    return tuple(
        PrincipalPart(gr(pt), tuple(random_matrix(rng, n) for _ in range(rng.randint(1, max_order))))
        for pt in points
    )


# a seeded Random, not st.randoms(): random_invertible draws until it finds
# a full rank, which the all-zero draws st.randoms() shrinks towards never give
seeded_rngs = st.integers(0, 2**32).map(random.Random)
# nonzero weights of alpha at S != 0: Gaussian but integral, which keeps the
# dual's entries, and so the property's time, small
WEIGHTS = (gr(-2), gr(-1), gr(1), gr(2), gr(0, 1), gr(1, -1))


@st.composite
def s_zero_convolutions(draw):
    """S = 0, 1 to 3 poles of order 1 to 3, and alpha = lambda/z."""
    rng = draw(seeded_rngs)
    n = rng.randint(1, 3)
    p = System(n, Matrix.zeros(n, n), random_parts(rng, n, rng.sample((0, 1, -1, 2), rng.randint(1, 3)), 3))
    return p, lambda_over_z(draw(st.one_of(st.just(gr(0)), scalars)))


@st.composite
def semisimple_convolutions(draw):
    """S = C D C^-1 with D over {0, +-1, 2}, poles of order 1 to 2, and
    alpha with simple poles at two or more eigenvalues where S has them."""
    rng = draw(seeded_rngs)
    n = rng.randint(2, 4)
    spectrum = [rng.choice((0, 1, -1, 2)) for _ in range(n)]
    c = random_invertible(rng, n)
    p = System(n, c * Matrix.diagonal(spectrum) * invert(c), random_parts(rng, n, rng.sample((0, 1, -1, 3), 2), 2))
    evs = sorted(set(spectrum))
    poles = rng.sample(evs, rng.randint(min(2, len(evs)), len(evs)))
    return p, scalar_system({ev: [rng.choice(WEIGHTS)] for ev in poles})


@st.composite
def jordan_convolutions(draw):
    """S with a Jordan block and alpha of order 2 there: jordan_constant_input's
    S, one 2 x 2 Jordan block at s, with alpha's one pole at s, or a
    rational_spectrum_matrix, whose Jordan blocks have random sizes, with a
    pole at each eigenvalue of order the nilpotency index there."""
    rng = draw(seeded_rngs)
    if draw(st.booleans()):
        p, alpha = jordan_constant_input(rng, 2)
        orders = {alpha.parts[0].point: 2}
    else:
        n = rng.randint(2, 3)
        p = System(n, rational_spectrum_matrix(rng, n), random_parts(rng, n, rng.sample((0, 1, -1), 2), 2))
        orders = {ev: len(nilpotent_powers(nil)) for ev, _, nil in generalized_eigendecomposition(kappa(p).s_matrix)}
    # the leading coefficient of alpha at ev is nonzero, the lower ones may vanish
    coefficients = {ev: [rng.choice((gr(0),) + WEIGHTS) for _ in range(k - 1)] + [rng.choice(WEIGHTS)] for ev, k in orders.items()}
    return p, scalar_system(coefficients)


class TestMcIsHdAddHd:
    """mc(p, alpha) equals the composite of the public functors it is built
    from, hd(add_scalar(hd(p), alpha)), entry for entry and as a document,
    at S = 0, at semisimple S and at S with a Jordan block."""

    @staticmethod
    def check(p, alpha):
        via_read_back, composite = mc(p, alpha), hd(add_scalar(hd(p), alpha))
        assert via_read_back == composite
        assert serialize_document(via_read_back) == serialize_document(composite)

    @given(s_zero_convolutions())
    @settings(max_examples=40, deadline=None)
    def test_at_s_zero(self, case):
        self.check(*case)

    @given(semisimple_convolutions())
    @settings(max_examples=30, deadline=None)
    def test_at_semisimple_s(self, case):
        self.check(*case)

    @given(jordan_convolutions())
    @settings(max_examples=25, deadline=None)
    def test_at_s_with_a_jordan_block(self, case):
        self.check(*case)


class TestOkubo:
    def test_zero_r(self):
        assert okubo_to_pair(OkuboTriple(Matrix.diagonal([0, 1]), Z2)) == zero_pair()

    def test_rank_one_factorization(self):
        o = OkuboTriple(Matrix.diagonal([0, 1]), Matrix.from_rows([[1, 1], [1, 1]]))
        res = okubo_to_pair(o)
        expected = System(
            1,
            Matrix.zeros(1, 1),
            (
                PrincipalPart(gr(0), (Matrix.from_rows([[1]]),)),
                PrincipalPart(gr(1), (Matrix.from_rows([[1]]),)),
            ),
        )
        assert res == expected

    def test_invertible_r_full_dimension(self, rng):
        from midconv.exactalg import rank

        t = Matrix.diagonal([0, 1])
        while True:
            r = random_matrix(rng, 2)
            if rank(r) == 2:
                break
        res = okubo_to_pair(OkuboTriple(t, r))
        assert res.dimension == 2
        # A(z) realizes (zI - T)^{-1} R up to the choice of basis: check residues
        total = Matrix.zeros(2, 2)
        for part in res.parts:
            total = total + part.coefficients[0]
        assert total.trace() == r.trace()

    def test_projection_intertwines(self, rng):
        # Q: W -> V is a morphism from (W, (zI-T)^{-1} R) to the produced
        # pair: coefficientwise A_{t,k} Q = Q B_{t,k}
        from midconv.datum import Block, Datum
        from midconv.exactalg import quotient_projection

        for _ in range(6):
            t_mat = Matrix.diagonal([rng.choice([0, 1]), rng.choice([0, 1]), 2])
            r_mat = random_matrix(rng, 3)
            triple = OkuboTriple(t_mat, r_mat)
            pair = okubo_to_pair(triple)
            if pair.dimension == 0:
                continue
            pi, _ = quotient_projection(r_mat)
            full = psi(Datum(3, (Block(0, Matrix.zeros(3, 3), r_mat, Matrix.identity(3)),), t_mat)).parts
            for part in full:
                out_part = pair.part_at(part.point)
                for j, b in enumerate(part.coefficients):
                    a = (
                        out_part.coefficients[j]
                        if out_part and j < len(out_part.coefficients)
                        else Matrix.zeros(pair.dimension, pair.dimension)
                    )
                    assert a * pi == pi * b


class TestHdDouble:
    def test_two_pole_round_trip(self):
        p = fuchsian({0: E12, 1: E21})
        back, witness = hd_double(p)
        assert witness is not None
        from midconv.systems import conjugate_system

        assert conjugate_system(witness, back) == p

    def test_rank_one_irregular_round_trip(self):
        p = scalar_system({0: [3, 2]})
        back, witness = hd_double(p)
        assert witness is not None

    def test_exceptional(self):
        with pytest.raises(Exceptional):
            hd_double(System(1, Matrix.from_rows([[2]]), ()))

    def test_corpus_round_trip(self, rng):
        for p in irreducible_corpus(rng, 8, max_dim=2):
            back, witness = hd_double(p)
            assert witness is not None
