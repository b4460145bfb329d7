"""Canonical data, stability, gauge action on (Q,P), moments, uniqueness."""

import pytest

import midconv.datum
from midconv.datum import (
    Block,
    Datum,
    canonical,
    datum_isomorphism,
    gk_action,
    harnad_irreducible,
    is_stable,
    kappa,
    moment_mu,
    phi,
    psi,
    swap,
    swap_back,
)
from midconv.errors import DimensionMismatch, DomainError, EmptyV, NotNilpotent, NotStable, PointMismatch, ValidationError
from midconv.exactalg import (
    Matrix,
    generalized_eigendecomposition,
    gr,
    hat_matrix,
    intertwiner_basis,
    invert,
    nilpotent_powers,
    quotient_projection,
    rank,
    solve,
)
from midconv.systems import PrincipalPart, System, TruncatedGauge, gauge_coadjoint, zero_pair
from midconv.checks import random_gauge, random_invertible, random_matrix, random_system

from conftest import E11, E12, E21, SWAP, Z2, fuchsian

J2 = Matrix.from_rows([[0, 1], [0, 0]])
RANK1_BLOCK = Block(gr(0), J2, Matrix.from_rows([[2, 3]]), Matrix.column([0, 1]))


class TestBlock:
    def test_non_nilpotent_endomorphism_rejected(self):
        with pytest.raises(NotNilpotent):
            Block(gr(0), SWAP, Matrix.zeros(1, 2), Matrix.zeros(2, 1))

    def test_powers_are_built_once_at_construction(self, monkeypatch):
        calls = []
        monkeypatch.setattr(midconv.datum, "nilpotent_powers", lambda m: calls.append(m) or nilpotent_powers(m))
        block = Block(gr(0), J2, Matrix.from_rows([[2, 3]]), Matrix.column([0, 1]))
        assert calls == [J2] and block.powers == (Matrix.identity(2), J2)
        d = Datum(1, (block,))
        phi(d)
        assert datum_isomorphism(d, d) is not None
        assert calls == [J2]
        # the gauge action reads the powers and hands them to its new block
        moved = gk_action(TruncatedGauge(gr(0), (Matrix.from_rows([[2]]),)), d)
        assert calls == [J2] and moved.blocks[0].powers is block.powers

    def test_a_handed_table_is_no_field_and_is_not_built_again(self, monkeypatch):
        # _powers is keyword-only, so it is no field of the record, and a block
        # given its table equals, hashes like and prints like one that built it
        assert Block._fields == ("point", "nilpotent", "q", "p")
        built = RANK1_BLOCK
        calls = []
        monkeypatch.setattr(midconv.datum, "nilpotent_powers", lambda m: calls.append(m) or nilpotent_powers(m))
        handed = Block(*(getattr(built, f) for f in Block._fields), _powers=built.powers)
        assert calls == [] and handed.powers is built.powers
        assert handed == built and hash(handed) == hash(built) and repr(handed) == repr(built)


class TestDatum:
    def test_s_defaults_to_zero(self):
        assert Datum(2, ()).s_matrix == Z2
        assert Datum(2, ()) == Datum(2, (), Z2)

    def test_misshaped_s_rejected(self):
        for s in (Matrix.zeros(1, 1), Matrix.zeros(2, 3), Matrix.zeros(3, 2)):
            with pytest.raises(DimensionMismatch):
                Datum(2, (), s)

    def test_gk_action_keeps_s(self):
        s = Matrix.from_rows([[5]])
        g = TruncatedGauge(gr(0), (Matrix.from_rows([[2]]),))
        assert gk_action(g, Datum(1, (RANK1_BLOCK,), s)).s_matrix == s

    def test_gk_action_needs_a_block_at_the_gauge_point(self):
        g = TruncatedGauge(gr(1), (Matrix.from_rows([[2]]),))
        for d in (Datum(1, (RANK1_BLOCK,)), Datum(1, ())):
            with pytest.raises(PointMismatch):
                gk_action(g, d)

    @pytest.mark.parametrize("point, shown", [(gr(3, -1), "3-1i"), (gr(10**5000), "<a number of 16610 bits>")])
    def test_a_duplicate_block_point_is_named_even_past_the_digit_limit(self, point, shown):
        block = Block(point, J2, Matrix.from_rows([[2, 3]]), Matrix.column([0, 1]))
        with pytest.raises(ValidationError) as info:
            Datum(1, (block, block))
        assert str(info.value) == f"duplicate block point {shown}"

    @pytest.mark.parametrize("point, shown", [(gr(3, -1), "3-1i"), (gr(10**5000), "<a number of 16610 bits>")])
    def test_a_missing_block_is_named_even_past_the_digit_limit(self, point, shown):
        g = TruncatedGauge(point, (Matrix.from_rows([[2]]),))
        with pytest.raises(PointMismatch) as info:
            gk_action(g, Datum(1, (RANK1_BLOCK,)))
        assert str(info.value) == f"no block at point {shown}"

    def test_phi_inverts_kappa_with_a_constant(self, rng):
        nonzero = 0
        for constant in ("diagonal", "random"):
            for _ in range(10):
                sys = random_system(rng, constant=constant)
                d = kappa(sys)
                assert d.s_matrix == sys.constant
                assert phi(d) == sys
                nonzero += not sys.constant.is_zero()
        assert nonzero >= 10


class TestPhi:
    def test_zero_datum(self):
        assert phi(Datum(2, ())) == System(2, Z2, ())

    def test_rank_one_block(self):
        s = phi(Datum(1, (RANK1_BLOCK,)))
        coeffs = s.part_at(gr(0)).coefficients
        assert [c.scalar() for c in coeffs] == [gr(3), gr(2)]

    def test_unstable_blocks_are_trimmed(self):
        # Q N P = 0 on Ker Q meeting Ker N: one coefficient, not two
        trimmed = Block(gr(0), J2, Matrix.from_rows([[1, 0]]), Matrix.column([1, 0]))
        assert phi(Datum(1, (trimmed,))).part_at(gr(0)).coefficients == (Matrix.from_rows([[1]]),)
        # Q = 0: the part is dropped
        empty = Block(gr(0), Matrix.zeros(1, 1), Matrix.zeros(2, 1), Matrix.from_rows([[1, 0]]))
        assert phi(Datum(2, (empty,))) == System(2, Z2, ())

    def test_fuchsian_factorization_recovers_residues(self):
        sys = fuchsian({0: E11, 1: E21})
        d = canonical(sys.parts, 2)
        assert phi(d) == sys

    def test_the_power_n_to_the_zero_is_no_product(self, rng, monkeypatch):
        # each coefficient Q N^(k-1) P is formed as Q P at k = 1: blocks with
        # N = 0 and a Jordan block, so no product has an identity operand
        blocks = (
            Block(gr(0), Matrix.zeros(2, 2), random_matrix(rng, 3, 2), random_matrix(rng, 2, 3)),
            Block(gr(1), J2, random_matrix(rng, 3, 2), random_matrix(rng, 2, 3)),
        )
        d = Datum(3, blocks)
        expected = phi(d)
        operands = []
        product = Matrix.__mul__

        def recorded(a, b):
            operands.append((a, b))
            return product(a, b)

        monkeypatch.setattr(Matrix, "__mul__", recorded)
        assert phi(d) == expected
        assert len(operands) == 4  # Q P at each block, then (Q N) P at the Jordan block
        assert not [m for pair in operands for m in pair if m == Matrix.identity(m.rows)]
        for b in blocks:
            assert expected.part_at(b.point).coefficients[0] == product(b.q, b.p)


class TestCanonical:
    def test_rank_one_matches_suspension(self):
        part = PrincipalPart(gr(0), (Matrix.from_rows([[3]]), Matrix.from_rows([[2]])))
        b = canonical([part], 1).blocks[0]
        assert b.nilpotent == J2
        assert b.q == Matrix.from_rows([[2, 3]])
        assert b.p == Matrix.column([0, 1])

    def test_zero_system_gives_zero_datum(self):
        assert canonical([PrincipalPart(gr(0), (Z2,))], 2).blocks == ()

    def test_dimension_zero_gives_zero_datum(self):
        empty = Matrix.zeros(0, 0)
        assert canonical([], 0) == Datum(0, ())
        assert canonical([PrincipalPart(gr(0), (empty, empty))], 0) == Datum(0, ())
        assert kappa(zero_pair()) == Datum(0, (), empty)

    def test_blocks_match_the_suspension_formula(self, rng):
        # the quotient of the k-fold suspension through the section iota:
        # N = pi N-hat iota, Q = Q-hat iota, P = pi P-hat
        def entry():
            return gr(0) if rng.random() < 0.4 else gr(rng.randint(-2, 2), rng.randint(-2, 2))

        for k in (1, 2, 3):
            for n in (1, 2, 3):
                for trial in range(4):
                    coeffs = [Matrix(n, n, [entry() for _ in range(n * n)]) for _ in range(k)]
                    if trial % 2:
                        coeffs[-1] = Matrix.zeros(n, n)  # zero leading coefficient
                    pi, pivots = quotient_projection(hat_matrix(coeffs))
                    block = canonical([PrincipalPart(gr(1), tuple(coeffs))], n).block_at(1)
                    if not pivots:
                        assert block is None
                        continue
                    iota = Matrix.from_rows(
                        [[1 if c == pc else 0 for pc in pivots] for c in range(k * n)]
                    )
                    nhat = hat_matrix(
                        [Matrix.identity(n) if j == k - 2 else Matrix.zeros(n, n) for j in range(k)]
                    )
                    qhat = Matrix.hstack(list(reversed(coeffs)))
                    phat = Matrix.vstack([Matrix.zeros((k - 1) * n, n), Matrix.identity(n)])
                    assert block.nilpotent == pi * nhat * iota
                    assert block.q == qhat * iota
                    assert block.p == pi * phat

    def test_nilpotent_is_the_hstack_of_zero_and_pi_at_the_pivots(self, rng):
        # N's column at pivot c is column c - n of pi, or zero for c < n: the
        # columns of [0 | pi] at the pivots, built without that hstack
        def entry():
            return gr(0) if rng.random() < 0.5 else gr(rng.randint(-2, 2), rng.randint(-1, 1))

        seen = set()
        for k in (1, 2, 3):
            for n in (1, 2, 3):
                for _ in range(6):
                    coeffs = [Matrix(n, n, [entry() for _ in range(n * n)]) for _ in range(k)]
                    pi, pivots = quotient_projection(hat_matrix(coeffs))
                    block = canonical([PrincipalPart(gr(0), tuple(coeffs))], n).block_at(0)
                    if not pivots:
                        assert block is None
                        continue
                    old = Matrix.hstack([Matrix.zeros(pi.rows, n), pi]).select_columns(pivots)
                    assert block.nilpotent == old
                    seen.add((k, old.is_zero()))
        assert seen >= {(1, True), (2, False), (3, False)}

    def test_fuchsian_projector(self):
        b = canonical([PrincipalPart(gr(0), (E11,))], 2).blocks[0]
        assert b.q == Matrix.column([1, 0])
        assert b.p == Matrix.from_rows([[1, 0]])
        assert b.q * b.p == E11

    def test_section_retraction_randomized(self, rng):
        for _ in range(40):
            sys = random_system(rng)
            d = canonical(sys.parts, sys.dimension)
            assert phi(d) == System(sys.dimension, Matrix.zeros(sys.dimension, sys.dimension), sys.parts)
            assert is_stable(d)
            assert canonical(sys.parts[::-1], sys.dimension) == d

    def test_block_dim_is_toeplitz_rank(self, rng):
        for _ in range(20):
            sys = random_system(rng)
            d = canonical(sys.parts, sys.dimension)
            for p in sys.parts:
                b = d.block_at(p.point)
                assert (b.dim_w if b else 0) == rank(hat_matrix(p.coefficients))

    def test_high_order_single_pole(self, rng):
        for _ in range(5):
            n = rng.choice([1, 2])
            part = PrincipalPart(gr(0), tuple(random_matrix(rng, n) for _ in range(5)))
            sys = System(n, Matrix.zeros(n, n), (part,))
            d = canonical(sys.parts, n)
            assert phi(d) == sys
            assert is_stable(d)

    def test_padding_independence(self, rng):
        for _ in range(15):
            sys = random_system(rng)
            n = sys.dimension
            padded = [
                PrincipalPart(p.point, p.coefficients + (Matrix.zeros(n, n),))
                for p in sys.parts
            ]
            d1 = canonical(sys.parts, n)
            d2 = canonical(padded, n)
            assert datum_isomorphism(d1, d2) is not None

    def test_direct_sum_compatibility(self, rng):
        for _ in range(10):
            a = random_system(rng, max_dim=2, max_poles=2)
            b = random_system(rng, max_dim=2, max_poles=2)
            points = sorted(
                {p.point for p in a.parts} | {p.point for p in b.parts},
                key=lambda s: s.sort_key(),
            )
            n = a.dimension + b.dimension
            parts = []
            for pt in points:
                pa, pb = a.part_at(pt), b.part_at(pt)
                k = max(
                    len(pa.coefficients) if pa else 1, len(pb.coefficients) if pb else 1
                )
                coeffs = []
                for j in range(k):
                    ma = (
                        pa.coefficients[j]
                        if pa and j < len(pa.coefficients)
                        else Matrix.zeros(a.dimension, a.dimension)
                    )
                    mb = (
                        pb.coefficients[j]
                        if pb and j < len(pb.coefficients)
                        else Matrix.zeros(b.dimension, b.dimension)
                    )
                    coeffs.append(Matrix.block_diagonal([ma, mb]))
                parts.append(PrincipalPart(pt, tuple(coeffs)))
            total = System(n, Matrix.zeros(n, n), tuple(parts))
            da = canonical(a.parts, a.dimension)
            db = canonical(b.parts, b.dimension)
            dsum = canonical(total.parts, n)
            merged_blocks = []
            for pt in points:
                ba, bb = da.block_at(pt), db.block_at(pt)
                mats = [x for x in (ba, bb) if x is not None]
                if not mats:
                    continue
                nil = Matrix.block_diagonal([x.nilpotent for x in mats])
                if ba and bb:
                    q = Matrix.block_diagonal([ba.q, bb.q])
                    p = Matrix.block_diagonal([ba.p, bb.p])
                elif ba:
                    q = Matrix.vstack([ba.q, Matrix.zeros(b.dimension, ba.dim_w)])
                    p = Matrix.hstack([ba.p, Matrix.zeros(ba.dim_w, b.dimension)])
                else:
                    q = Matrix.vstack([Matrix.zeros(a.dimension, bb.dim_w), bb.q])
                    p = Matrix.hstack([Matrix.zeros(bb.dim_w, a.dimension), bb.p])
                merged_blocks.append(Block(pt, nil, q, p))
            dsum_manual = Datum(n, tuple(merged_blocks))
            assert datum_isomorphism(dsum, dsum_manual) is not None


class TestStability:
    def test_zero_datum_vacuous(self):
        assert is_stable(Datum(2, ()))

    def test_empty_v_rejected(self):
        with pytest.raises(EmptyV):
            is_stable(Datum(0, ()))

    def test_kernel_overlap_fails(self):
        bad = Block(gr(0), Matrix.zeros(2, 2), Matrix.zeros(2, 2), Matrix.identity(2))
        assert not is_stable(Datum(2, (bad,)))

    def test_image_shortfall_fails(self):
        # Ker Q_0 meets Ker N_0 only in 0, but Im P_0 + Im N_0 = 0 misses W_0 = C
        bad = Block(gr(0), Matrix.zeros(1, 1), Matrix.from_rows([[1]]), Matrix.from_rows([[0]]))
        assert not is_stable(Datum(1, (bad,)))


class TestGkAction:
    def test_constant_gauge(self):
        a = Matrix.from_rows([[2]])
        d = gk_action(TruncatedGauge(gr(0), (a,)), Datum(1, (RANK1_BLOCK,)))
        assert d.blocks[0].q == Matrix.from_rows([[4, 6]])
        assert d.blocks[0].p == Matrix.column([0, gr(1) / gr(2)])

    def test_degree_one_formula(self):
        g = TruncatedGauge(gr(0), (Matrix.identity(1), Matrix.identity(1)))
        d = gk_action(g, Datum(1, (RANK1_BLOCK,)))
        assert d.blocks[0].q == Matrix.from_rows([[2, 5]])

    def test_equivariance(self, rng):
        for _ in range(30):
            sys = random_system(rng, max_dim=2)
            d = canonical(sys.parts, sys.dimension)
            for b in d.blocks:
                k = len(nilpotent_powers(b.nilpotent))
                g = random_gauge(rng, b.point, sys.dimension, k)
                gd = gk_action(g, d)
                base = phi(d)
                expect_parts = tuple(
                    gauge_coadjoint(g, p) if p.point == b.point else p for p in base.parts
                )
                assert phi(gd) == System(sys.dimension, Matrix.zeros(sys.dimension, sys.dimension), expect_parts)
                d = gd


class TestMoment:
    def test_zero_maps(self):
        b = Block(gr(0), J2, Matrix.zeros(1, 2), Matrix.zeros(2, 1))
        mv = moment_mu(Datum(1, (b,)))
        assert all(x.is_zero() for x in mv.entries[0][2])

    def test_trace_arithmetic(self):
        mv = moment_mu(Datum(1, (RANK1_BLOCK,)))
        pt, mat, pairings = mv.entries[0]
        assert mat == Matrix.from_rows([[0, 0], [-2, -3]])
        expected = tuple((mat * x).trace() for x in intertwiner_basis([(J2, J2)]))
        assert pairings == expected
        assert sorted(p.sort_key() for p in pairings) == [gr(-3).sort_key(), gr(-2).sort_key()]

    def test_invariance(self, rng):
        for _ in range(25):
            sys = random_system(rng, max_dim=2)
            d = canonical(sys.parts, sys.dimension)
            for b in d.blocks:
                k = len(nilpotent_powers(b.nilpotent))
                g = random_gauge(rng, b.point, sys.dimension, k)
                assert moment_mu(gk_action(g, d)) == moment_mu(d)


class TestDatumIsomorphism:
    def test_identity(self):
        d = Datum(1, (RANK1_BLOCK,))
        f = datum_isomorphism(d, d)
        assert f == Matrix.identity(2)

    def test_block_conjugation_round_trip(self, rng):
        for _ in range(25):
            sys = random_system(rng)
            d = canonical(sys.parts, sys.dimension)
            nb = []
            for b in d.blocks:
                w = b.dim_w
                c = random_invertible(rng, w)
                cinv = invert(c)
                nb.append(Block(b.point, c * b.nilpotent * cinv, b.q * cinv, c * b.p))
            d2 = Datum(sys.dimension, tuple(nb))
            f = datum_isomorphism(d, d2)
            assert f is not None
            assert f * d.t_matrix() == d2.t_matrix() * f
            assert d2.q_matrix() * f == d.q_matrix()
            assert f * d.p_matrix() == d2.p_matrix()

    def test_independent_realizations_match(self):
        # canonical vs hand-built realization of the same system
        sys = fuchsian({0: E11})
        d1 = canonical(sys.parts, 2)
        d2 = Datum(2, (Block(gr(0), Matrix.zeros(1, 1), Matrix.column([1, 0]), Matrix.from_rows([[1, 0]])),))
        assert phi(d1) == phi(d2)
        assert datum_isomorphism(d1, d2) is not None

    def test_independent_irregular_realizations_match(self):
        # 3/z + 2/z^2 realized with a rescaled nilpotent: Q N P values agree
        part = PrincipalPart(gr(0), (Matrix.from_rows([[3]]), Matrix.from_rows([[2]])))
        d1 = canonical([part], 1)
        hand = Block(
            gr(0),
            Matrix.from_rows([[0, 2], [0, 0]]),
            Matrix.from_rows([[1, 3]]),
            Matrix.column([0, 1]),
        )
        d2 = Datum(1, (hand,))
        assert phi(d1) == phi(d2)
        f = datum_isomorphism(d1, d2)
        assert f is not None
        assert f * d1.t_matrix() == d2.t_matrix() * f

    def test_different_systems_are_not_isomorphic(self):
        # stable data on the same pole points that realize different systems
        def irregular(c2):
            part = PrincipalPart(gr(0), (Matrix.from_rows([[3]]), Matrix.from_rows([[c2]])))
            return System(1, Matrix.zeros(1, 1), (part,))

        # I/z against I/z + E12/z^2: equal dim_w, nilpotent indices 1 and 2
        jordan = PrincipalPart(gr(0), (Matrix.identity(2), E12))
        cases = [
            (fuchsian({0: E11, 1: E12}), fuchsian({0: E12, 1: E11})),
            (irregular(2), irregular(5)),
            (fuchsian({0: Matrix.identity(2)}), System(2, Z2, (jordan,))),
        ]
        for a, b in cases:
            d1, d2 = canonical(a.parts, a.dimension), canonical(b.parts, b.dimension)
            assert is_stable(d1) and is_stable(d2)
            assert [x.point for x in d1.blocks] == [x.point for x in d2.blocks]
            assert [x.dim_w for x in d1.blocks] == [x.dim_w for x in d2.blocks]
            assert phi(d1) != phi(d2)
            assert datum_isomorphism(d1, d2) is None
            assert datum_isomorphism(d1, d1) == Matrix.identity(d1.dim_w)

    def test_different_points_or_w_dimensions_are_not_isomorphic(self):
        # E11/z against E11/(z - 1), and against I/z, whose W_0 has dimension 2, not 1
        d1 = canonical(fuchsian({0: E11}).parts, 2)
        for other in (fuchsian({1: E11}), fuchsian({0: Matrix.identity(2)})):
            d2 = canonical(other.parts, 2)
            assert is_stable(d1) and is_stable(d2)
            assert datum_isomorphism(d1, d2) is None

    def test_requires_stability(self):
        unstable = Datum(
            2, (Block(gr(0), Matrix.zeros(2, 2), Matrix.zeros(2, 2), Matrix.identity(2)),)
        )
        with pytest.raises(NotStable):
            datum_isomorphism(unstable, unstable)


class TestHarnad:
    def test_psi_fuchsian_dual(self):
        dual = psi(Datum(1, (RANK1_BLOCK,), Matrix.zeros(1, 1)))
        assert dual.constant == J2
        assert dual.part_at(gr(0)).coefficients[0] == RANK1_BLOCK.p * RANK1_BLOCK.q

    def test_psi_zero_datum(self):
        assert psi(Datum(2, (), Z2)) == zero_pair()

    def test_harnad_irreducible_examples(self):
        assert harnad_irreducible(Datum(1, (), Matrix.from_rows([[5]])))
        assert not harnad_irreducible(Datum(2, (), Z2))
        # Q = 0 with W != 0: (0, W) is a subrepresentation
        b = Block(gr(0), Matrix.zeros(1, 1), Matrix.zeros(2, 1), Matrix.from_rows([[1, 0]]))
        assert not harnad_irreducible(Datum(2, (b,), Z2))

    @pytest.mark.parametrize("constant", ["zero", "diagonal", "random"])
    def test_swapping_twice_is_a_gauge_on_v(self, rng, constant):
        # swap_back(d, swap(d)) is d in the S-eigenbasis B: S -> B^-1 S B, Q -> B^-1 Q, P -> P B
        checked = 0
        for _ in range(60):
            d = kappa(random_system(rng, constant=constant))
            try:
                eig = generalized_eigendecomposition(d.s_matrix)
            except DomainError:
                continue
            b = Matrix.hstack([basis for _, basis, _ in eig])
            binv = invert(b)
            twice = swap_back(d, swap(d))
            assert twice.s_matrix == binv * d.s_matrix * b
            assert twice.blocks == tuple(Block(x.point, x.nilpotent, binv * x.q, x.p * b) for x in d.blocks)
            checked += 1
        assert checked

    @staticmethod
    def generic_swap(d, eig):
        """swap by its formula with every product formed: the block at s is
        (nil_s, P B_s, rows of B^-1 Q at s), for the (s, B_s, nil_s) of eig."""
        b = Matrix.hstack([basis for _, basis, _ in eig])
        q_c, p_c, w = d.p_matrix() * b, solve(b, d.q_matrix()), d.dim_w
        blocks, offset = [], 0
        for ev, basis, nil in eig:
            end = offset + basis.cols
            blocks.append(Block(ev, nil, q_c.submatrix(0, w, offset, end), p_c.submatrix(offset, end, 0, w)))
            offset = end
        return Datum(w, tuple(blocks), d.t_matrix())

    @staticmethod
    def refuse_solve(monkeypatch):
        def refused(a, b):
            raise AssertionError("swap solved against an identity eigenbasis")

        monkeypatch.setattr(midconv.datum, "solve", refused)

    def test_swap_with_s_zero_is_the_generic_formula(self, rng, monkeypatch):
        data = [kappa(random_system(rng, constant="zero")) for _ in range(12)]
        eigs = [generalized_eigendecomposition(d.s_matrix) for d in data]
        expected = [self.generic_swap(d, eig) for d, eig in zip(data, eigs)]
        self.refuse_solve(monkeypatch)
        for d, eig, e in zip(data, eigs, expected):
            assert Matrix.hstack([b for _, b, _ in eig]) == Matrix.identity(d.dim_v)
            assert swap(d) == e

    @pytest.mark.parametrize("s_rows, solves", [([[2, 1], [0, 2]], 0), ([[1, 0], [0, 2]], 1)])
    def test_swap_conjugates_by_the_eigenvalue_count(self, monkeypatch, s_rows, solves):
        # B = I for both S: one eigenvalue, a Jordan block, takes P and Q as
        # they are; two eigenvalues, diag(1, 2), multiply and solve by B
        d = kappa(System(2, Matrix.from_rows(s_rows), (PrincipalPart(gr(0), (E12,)), PrincipalPart(gr(1), (E21,)))))
        eig = generalized_eigendecomposition(d.s_matrix)
        assert len(eig) == 1 + solves and Matrix.hstack([b for _, b, _ in eig]) == Matrix.identity(2)
        expected, solved = self.generic_swap(d, eig), []
        monkeypatch.setattr(midconv.datum, "solve", lambda a, b: solved.append(a) or solve(a, b))
        assert swap(d) == expected
        assert len(solved) == solves

    def test_read_back_is_the_generic_formula(self, rng, monkeypatch):
        # the second duality of mc: a datum whose S is h's T, read back on h's blocks
        cases = []
        for _ in range(12):
            h = kappa(random_system(rng, constant="zero"))
            d = kappa(psi(h))
            assert d.s_matrix == h.t_matrix()
            cases.append((h, d, self.generic_swap(d, generalized_eigendecomposition(h.t_matrix()))))
        assert any(d.blocks for _, d, _ in cases)
        self.refuse_solve(monkeypatch)
        for h, d, expected in cases:
            assert swap_back(h, d) == expected

    def test_kappa_of_irreducible_is_irreducible(self):
        sys = fuchsian({0: E12, 1: E21})
        assert harnad_irreducible(kappa(sys))

    def test_resolvent_parts_match_the_expansion_at_infinity(self, rng):
        # L (zI - M)^{-1} R = sum_k L M^k R z^{-k-1}, and (z - ev)^{-j}
        # contributes C(k, j-1) ev^{k-j+1} to the coefficient of z^{-k-1}
        from math import comb

        from midconv.normalform import jordan_matrix

        spectrum = [gr(0), gr(1), gr(-2), gr(0, 1), gr(1, -1)]
        for _ in range(30):
            jordan = [(rng.choice(spectrum), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
            n = sum(size for _, size in jordan)
            p = random_invertible(rng, n)
            m = p * jordan_matrix(jordan) * invert(p)
            q = rng.randint(1, 3)
            left, right = random_matrix(rng, q, n), random_matrix(rng, n, q)
            parts = psi(Datum(n, (Block(0, Matrix.zeros(q, q), right, left),), m)).parts
            moment = right
            for k in range(n + 2):
                total = Matrix.zeros(q, q)
                for part in parts:
                    for j, a in enumerate(part.coefficients[: k + 1], start=1):
                        scale = gr(comb(k, j - 1))
                        for _ in range(k - j + 1):
                            scale = scale * part.point
                        total = total + scale * a
                assert total == left * moment
                moment = m * moment
