"""Orbit dimensions, rigidity indices, and the reduction loop."""

import random

import pytest

from midconv.errors import (
    DimensionMismatch,
    InvariantViolation,
    IrrationalSpectrum,
    NoNormalForm,
    NotInD0,
    NotRigid,
    Reducible,
)
from midconv.exactalg import Matrix, gr
from midconv.normalform import (
    compute_normal_form,
    select_alpha,
    stabilizer_dim_formula,
    stabilizer_dim_linear,
)
from midconv.rigidity import katz_reduce, katz_step, orbit_dim, rigidity_index
from midconv.systems import (
    PrincipalPart,
    System,
    equivalent,
    residue_at_infinity,
    scalar_system,
)

from conftest import E12, E21, Z2, fuchsian, katz_path_system

# (order of the pole at 0, per-step choices, rank after each step) for
# katz_path_system: rigid Fuchsian triples of rank 6, 11 and 12, and rigid
# pairs of rank 6 and 7 with a pole of order 2 or 3 at 0
KATZ_PATHS = {
    "fuchsian-6": (1, ("ggg", "egg", "ggg"), (2, 3, 6)),
    "fuchsian-11": (1, ("ggg", "egg", "ggg", "egg"), (2, 3, 6, 11)),
    "fuchsian-12": (1, ("ggg", "egg", "ggg", "ggg"), (2, 3, 6, 12)),
    "irregular-6": (2, ("ggg", "egg"), (3, 6)),
    "irregular-7": (3, ("ggg", "egg"), (4, 7)),
}


def greedy_alpha(p):
    parts = []
    for part in p.parts:
        sel = select_alpha(compute_normal_form(part))
        parts.append(
            PrincipalPart(
                part.point, tuple(Matrix.from_rows([[-c]]) for c in sel)
            )
        )
    return System(1, Matrix.zeros(1, 1), tuple(parts))


class TestOrbitDim:
    def test_zero_system(self):
        assert orbit_dim(System(2, Z2, ())) == 0

    def test_three_pole_fuchsian(self, nilpotent_triple):
        assert orbit_dim(nilpotent_triple) == 6

    def test_rank_one_always_zero(self):
        assert orbit_dim(scalar_system({0: [1, 2], 1: [3]})) == 0


class TestRigidityIndex:
    def test_concrete_triple_is_rigid(self, nilpotent_triple):
        assert rigidity_index(nilpotent_triple) == 0

    def test_rank_one_always_rigid(self):
        assert rigidity_index(scalar_system({0: [1], 1: [-1]})) == 0

    def test_painleve_quadruples_index_two(self, quadruples):
        for name, q in quadruples.items():
            assert rigidity_index(q) == 2, name

    def test_not_in_d0_rejected(self):
        with pytest.raises(NotInD0):
            rigidity_index(fuchsian({0: E12}))  # residue at infinity nonzero

    def test_reducible_rejected(self):
        s = fuchsian({0: E12, 1: -E12})
        with pytest.raises(Reducible):
            rigidity_index(s)

    def test_split_fixture_indices(self, split_triple_111, irregular_300, irregular_210):
        # 2 * sum(d_t) - 6 with sum(d) = 3
        assert rigidity_index(split_triple_111) == 0
        assert rigidity_index(irregular_300) == 0
        assert rigidity_index(irregular_210) == 0

    def test_conjugation_invariance(self, rng, split_triple_111):
        from midconv.checks import random_invertible
        from midconv.systems import conjugate_system

        for _ in range(5):
            c = random_invertible(rng, 2)
            assert rigidity_index(conjugate_system(c, split_triple_111)) == 0

    def test_split_rank2_index_formula(
        self, split_triple_111, irregular_300, irregular_210, quadruples
    ):
        # for rank-2 pairs whose local models split into two scalar
        # spectra, the index is 2 * sum of the split orders - 6
        from midconv.exactalg import char_eigenvalues
        from midconv.normalform import compute_normal_form

        def split_order(part):
            nf = compute_normal_form(part)
            if len(nf.blocks) == 1:
                b = nf.blocks[0]
                assert b.dim == 2
                evs = char_eigenvalues(b.gamma)
                return 1 if len(evs) == 2 else 0
            (b1, b2) = nf.blocks
            diff_tail = [x - y for x, y in zip(b1.tail, b2.tail)]
            diff_res = b1.gamma.scalar() - b2.gamma.scalar()
            for i in range(len(diff_tail), 0, -1):
                if not diff_tail[i - 1].is_zero():
                    return i + 1
            return 0 if diff_res.is_zero() else 1

        cases = [split_triple_111, irregular_300, irregular_210]
        cases += list(quadruples.values())
        for p in cases:
            total = sum(split_order(part) for part in p.parts)
            assert rigidity_index(p) == 2 * total - 6

    @pytest.mark.parametrize("path", KATZ_PATHS.values(), ids=list(KATZ_PATHS))
    def test_katz_paths_rigid_with_agreeing_stabilizer_modes(self, path):
        p = katz_path_system(random.Random(7), *path)
        assert p.dimension == path[2][-1]
        for part in p.parts:
            assert stabilizer_dim_linear(part) == stabilizer_dim_formula(compute_normal_form(part))
        assert rigidity_index(p) == 0


class TestKatzStep:
    def test_zero_alpha_is_identity(self, split_triple_111):
        res = katz_step(split_triple_111, scalar_system({}))
        assert equivalent(res, split_triple_111) is not None

    def test_rigid_triple_drops_rank(self, split_triple_111):
        res = katz_step(split_triple_111, greedy_alpha(split_triple_111))
        assert res.dimension == 1

    def test_painleve_rank_preserved(self, quadruples):
        for name, q in quadruples.items():
            res = katz_step(q, greedy_alpha(q))
            assert res.dimension == 2, name

    def test_step_stays_in_d0(self, split_triple_111):
        res = katz_step(split_triple_111, greedy_alpha(split_triple_111))
        assert res.constant.is_zero()
        assert residue_at_infinity(res).is_zero()

    def test_parameter_of_rank_two_is_rejected_as_such(self, split_triple_111):
        # the rank check of add_scalar comes before the parameter's residue is read
        with pytest.raises(DimensionMismatch, match="^addition parameter must have rank 1$"):
            katz_step(split_triple_111, split_triple_111)

    def test_zero_weight_with_exceptional_intermediate(self):
        from midconv.errors import ZeroLambda

        p = System(1, Matrix.zeros(1, 1), ())
        with pytest.raises(ZeroLambda):
            katz_step(p, scalar_system({}))


class TestKatzReduce:
    def test_rank_one_empty_trace(self):
        assert katz_reduce(scalar_system({0: [2], 1: [-2]})).steps == ()

    def test_rigid_fixtures_one_step(
        self, nilpotent_triple, split_triple_111, irregular_300, irregular_210
    ):
        for p in (nilpotent_triple, split_triple_111, irregular_300, irregular_210):
            trace = katz_reduce(p)
            assert len(trace.steps) == 1
            assert trace.steps[0].rank_before == 2
            assert trace.steps[0].rank_after == 1
            assert trace.final_rank == 1

    def test_non_rigid_reports(self, quadruples):
        with pytest.raises(NotRigid) as info:
            katz_reduce(quadruples["1111"])
        assert info.value.index == 2

    def test_irrational_residue_is_named(self):
        # rigid and irreducible, but the step that drops the rank needs
        # alpha = +-sqrt(2) at pole 0, the eigenvalues of its residue
        a0 = Matrix.from_rows([[0, 1], [2, 0]])
        a1 = Matrix.from_rows([[1, 0], [1, 3]])
        p = fuchsian({0: a0, 1: a1, -1: -(a0 + a1)})
        assert rigidity_index(p) == 0
        with pytest.raises(IrrationalSpectrum, match="^reduction step 1, a residue at pole 0 has eigenvalues"):
            katz_reduce(p)

    def test_irrational_leading_coefficient_names_the_step_and_the_pole(self):
        # rigid, but the pole of order 2 at 0 has leading coefficient with
        # eigenvalues +-sqrt(2), so it has no normal form over Q(i)
        lead = Matrix.from_rows([[0, 1], [2, 0]])
        at0 = PrincipalPart(gr(0), (Matrix.diagonal([1, -1]), lead))
        p = System(2, Z2, (at0, PrincipalPart(gr(1), (Matrix.diagonal([-1, 1]),))))
        assert rigidity_index(p) == 0
        with pytest.raises(IrrationalSpectrum, match="^pole 0: characteristic polynomial"):
            select_alpha(compute_normal_form(at0))
        with pytest.raises(IrrationalSpectrum, match="^reduction step 1, pole 0: characteristic polynomial"):
            katz_reduce(p)

    def test_nilpotent_leading_coefficient_names_the_step_and_the_pole(self):
        # irreducible with no residue at infinity, but the leading coefficient
        # E12 at 0 is not semisimple, so the first step has no normal form there
        p = System(2, Z2, (PrincipalPart(gr(0), (E21, E12)), PrincipalPart(gr(1), (-E21,))))
        with pytest.raises(NoNormalForm, match="^reduction step 1, pole 0: a leading coefficient"):
            katz_reduce(p)

    def test_stall_with_a_dominated_irrational_residue_is_an_invariant_violation(self, monkeypatch):
        # residue 1 (+) companion(x^2 - 2) at pole 0: alpha = 1 gives a kernel of
        # dimension 1, which neither of +-sqrt(2) (multiplicity one) can beat,
        # so a forced stall is an internal fault, not an irrational obstruction
        import midconv.rigidity as rigidity

        a0 = Matrix.from_rows([[1, 0, 0], [0, 0, 1], [0, 2, 0]])
        a1 = Matrix.from_rows([[0, 2, -2], [2, 1, -2], [0, -2, 1]])
        p = fuchsian({0: a0, 1: a1, -1: -(a0 + a1)})
        monkeypatch.setattr(rigidity, "rigidity_index", lambda sys: 0)
        monkeypatch.setattr(rigidity, "katz_step", lambda sys, alpha: sys)
        with pytest.raises(InvariantViolation, match="rank did not decrease"):
            katz_reduce(p)

    def test_trace_invariants_enforced(self):
        from midconv.rigidity import ReductionStep, ReductionTrace

        step = ReductionStep(scalar_system({}), gr(0), 2, 2, fuchsian({0: E12, 1: E21}))
        with pytest.raises(ValueError):
            ReductionTrace((step,))
