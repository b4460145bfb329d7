"""Normal forms, stabilizer dimensions, kernel dimensions, prediction."""

import pytest

from midconv import normalform
from midconv.errors import DimensionMismatch, InconsistentRank, IrrationalSpectrum, NoNormalForm
from midconv.exactalg import Matrix, char_eigenvalues, gr, invert
from midconv.normalform import (
    NormalForm,
    SpectralBlock,
    _candidate_scores,
    compute_normal_form,
    hat_kernel_dim,
    hat_kernel_dim_formula,
    jordan_data,
    normal_forms_conjugate,
    predicted_spectra,
    select_alpha,
    stabilizer_dim,
    stabilizer_dim_formula,
    stabilizer_dim_linear,
)
from midconv.systems import PrincipalPart, trim

from conftest import Z2, normal_formable_parts

J2 = Matrix.from_rows([[0, 1], [0, 0]])


def scalar_part(point, coeffs):
    return PrincipalPart(gr(point), tuple(Matrix.from_rows([[c]]) for c in coeffs))


class TestComputeNormalForm:
    def test_fuchsian_already_normal(self):
        g = Matrix.from_rows([[1, 2], [3, 4]])
        nf = compute_normal_form(PrincipalPart(gr(0), (g,)))
        assert len(nf.blocks) == 1
        assert nf.blocks[0].tail == ()
        assert nf.blocks[0].gamma == g

    def test_distinct_leading_eigenvalues_split(self):
        part = PrincipalPart(gr(0), (Z2, Matrix.from_rows([[1, 1], [0, 2]])))
        nf = compute_normal_form(part)
        tails = sorted(tuple(x.sort_key() for x in b.tail) for b in nf.blocks)
        assert tails == [(gr(1).sort_key(),), (gr(2).sort_key(),)]
        assert all(b.gamma.is_zero() and b.dim == 1 for b in nf.blocks)

    def test_nilpotent_leading_rejected(self):
        with pytest.raises(NoNormalForm, match="^pole 0: a leading coefficient"):
            compute_normal_form(PrincipalPart(gr(0), (Z2, J2)))

    def test_gauge_invariance(self, rng):
        from midconv.checks import random_gauge
        from midconv.systems import gauge_coadjoint

        for part in normal_formable_parts(rng, 12):
            g = random_gauge(rng, part.point, part.dimension, len(part.coefficients))
            nf1 = compute_normal_form(part)
            nf2 = compute_normal_form(gauge_coadjoint(g, part))
            assert normal_forms_conjugate(nf1, nf2)

    def test_repeated_leading_eigenvalue_recursion(self, rng):
        # leading diag(1,1,2): the double eigenvalue splits one level down
        from midconv.checks import random_gauge
        from midconv.systems import gauge_coadjoint

        lead = Matrix.diagonal([1, 1, 2])
        res = Matrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 5]])
        model = PrincipalPart(gr(0), (res, lead))
        nf_model = compute_normal_form(model)
        assert sorted(b.dim for b in nf_model.blocks) == [1, 2]
        for _ in range(5):
            g = random_gauge(rng, gr(0), 3, 2)
            nf = compute_normal_form(gauge_coadjoint(g, model))
            assert normal_forms_conjugate(nf, nf_model)

    def test_three_level_splitting(self, rng):
        from midconv.checks import random_gauge
        from midconv.systems import gauge_coadjoint

        lead = Matrix.diagonal([1, 1, 1, 2])
        mid = Matrix.diagonal([0, 3, 3, 0])
        res = Matrix.from_rows(
            [[7, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, -1]]
        )
        model = PrincipalPart(gr(0), (res, mid, lead))
        nf_model = compute_normal_form(model)
        assert len(nf_model.blocks) == 3
        assert sorted(b.dim for b in nf_model.blocks) == [1, 1, 2]
        for _ in range(5):
            g = random_gauge(rng, gr(0), 4, 3)
            gp = gauge_coadjoint(g, model)
            nf = compute_normal_form(gp)
            assert normal_forms_conjugate(nf, nf_model)
            assert stabilizer_dim_linear(gp) == stabilizer_dim_formula(nf)

    def test_assembled_model_properties_and_idempotence(self, rng):
        from midconv.normalform import assemble_normal_form

        for part in normal_formable_parts(rng, 10):
            nf = compute_normal_form(part)
            coeffs = assemble_normal_form(nf)
            for a in coeffs:
                for b in coeffs:
                    assert a * b == b * a
            model = PrincipalPart(part.point, tuple(coeffs))
            again = compute_normal_form(model)
            assert normal_forms_conjugate(again, nf)

    def test_rank_probes_match_normal_form(self, rng):
        # rank of the shifted Toeplitz pencil is a gauge invariant, so the
        # input and its assembled normal form must agree on every probe
        from midconv.normalform import assemble_normal_form

        for part in normal_formable_parts(rng, 8):
            nf = compute_normal_form(part)
            model = PrincipalPart(part.point, tuple(assemble_normal_form(nf)))
            k = len(part.coefficients)
            probes = []
            for b in nf.blocks:
                probes.append([gr(0)] + list(b.tail))
            for _ in range(3):
                probes.append([gr(rng.randint(-2, 2)) for _ in range(k)])
            for coeffs in probes:
                assert hat_kernel_dim(part, coeffs) == hat_kernel_dim(model, coeffs)


class TestStabilizerDim:
    def test_distinct_second_order(self):
        part = PrincipalPart(gr(0), (Z2, Matrix.diagonal([1, 2])))
        assert stabilizer_dim(part) == 4

    def test_jordan_residue(self):
        assert stabilizer_dim(PrincipalPart(gr(0), (J2,))) == 2

    def test_zero_padded(self):
        assert stabilizer_dim(PrincipalPart(gr(0), (Matrix.zeros(3, 3),))) == 9
        part = PrincipalPart(gr(0), (Matrix.zeros(3, 3), Matrix.zeros(3, 3)))
        assert stabilizer_dim_linear(part) == 18

    def test_irrational_residue_falls_back_to_the_linear_mode(self):
        # eigenvalues +-sqrt(2): the normal form exists, its Jordan data
        # over Q(i) does not
        part = PrincipalPart(gr(0), (Matrix.from_rows([[0, 1], [2, 0]]),))
        nf = compute_normal_form(part)
        with pytest.raises(IrrationalSpectrum):
            stabilizer_dim_formula(nf)
        assert stabilizer_dim(part) == stabilizer_dim_linear(part) == 2
        # a nilpotent leading coefficient: no normal form at all
        part = PrincipalPart(gr(0), (Z2, J2))
        with pytest.raises(NoNormalForm):
            compute_normal_form(part)
        assert stabilizer_dim(part) == stabilizer_dim_linear(part) == 4

    def test_modes_agree_on_corpus(self, rng):
        for part in normal_formable_parts(rng, 15):
            nf = compute_normal_form(part)
            assert stabilizer_dim_linear(part) == stabilizer_dim_formula(nf)

    def test_formula_answers_without_the_linear_mode(self, rng, monkeypatch):
        parts = normal_formable_parts(rng, 15)
        expected = [stabilizer_dim_linear(part) for part in parts]

        def no_linear_solve(part):
            raise AssertionError("the linear mode ran where a normal form exists")

        monkeypatch.setattr(normalform, "stabilizer_dim_linear", no_linear_solve)
        assert [stabilizer_dim(part) for part in parts] == expected


class TestHatKernelDim:
    def test_mismatched_alpha_gives_zero(self):
        part = PrincipalPart(gr(0), (Z2, Matrix.diagonal([1, 2])))
        assert hat_kernel_dim(part, [gr(5), gr(7)]) == 0

    def test_split_second_order(self):
        part = PrincipalPart(gr(0), (Z2, Matrix.diagonal([1, 2])))
        assert hat_kernel_dim(part, [gr(0), gr(1)]) == 2

    def test_short_alpha_is_padded_and_long_alpha_rejected(self):
        part = PrincipalPart(gr(0), (Matrix.diagonal([1, 2]),))
        assert hat_kernel_dim(part, []) == hat_kernel_dim(part, [gr(0)]) == 0
        assert hat_kernel_dim(part, [gr(1), gr(0), gr(0)]) == hat_kernel_dim(part, [gr(1)]) == 1
        with pytest.raises(DimensionMismatch):
            hat_kernel_dim(part, [gr(1), gr(1)])

    def test_scalar_system_full_kernel(self):
        part = PrincipalPart(gr(0), (Matrix.diagonal([3, 3]), Matrix.diagonal([2, 2])))
        assert hat_kernel_dim(part, [gr(3), gr(2)]) == 4

    def test_modes_agree_on_corpus(self, rng):
        # every candidate select_alpha scores with the formula: each tail,
        # led by 0 and by each eigenvalue of its residue; the corpus residues
        # split over Q(i), so char_eigenvalues lists all of them
        for part in normal_formable_parts(rng, 12):
            nf = compute_normal_form(part)
            candidates = [
                [ev] + list(b.tail)
                for b in nf.blocks
                for ev in [gr(0), *(ev for ev, _ in char_eigenvalues(b.gamma))]
            ]
            direct = [hat_kernel_dim(part, coeffs) for coeffs in candidates]
            assert direct == [hat_kernel_dim_formula(nf, coeffs) for coeffs in candidates]
            assert hat_kernel_dim(part, select_alpha(nf)) == max(direct)

    def test_formula_off_the_candidates_on_corpus(self, rng):
        # alpha_1 off its block's Q(i) spectrum and 0, and tails that are no
        # spectrum: one with lambda_2 moved, one (9, 0, ..., 0); each alpha as
        # the k-vector, trimmed of its trailing zeros and with a zero appended
        checked = 0
        for part in normal_formable_parts(rng, 30):
            nf = compute_normal_form(part)
            tails = {b.tail for b in nf.blocks}
            alphas = []
            for b in nf.blocks:
                spectrum = {ev for ev, _ in char_eigenvalues(b.gamma)}
                off = next(x for x in (gr(5), gr(-3), gr(1, 1), gr(0, -2)) if x not in spectrum)
                alphas.append((off, *b.tail))
                if nf.k >= 2:
                    for tail in ((b.tail[0] + 7, *b.tail[1:]), (gr(9), *[gr(0)] * (nf.k - 2))):
                        if tail not in tails:
                            alphas += [(a, *tail) for a in {gr(0), *spectrum}]
            for alpha in alphas:
                direct = hat_kernel_dim(part, alpha)
                for form in (alpha, trim(alpha), (*alpha, gr(0))):
                    assert hat_kernel_dim_formula(nf, form) == direct
                checked += direct > 0
        assert checked  # some of them score above 0, so a fallback to 0 cannot pass

    def test_formula_pads_a_short_alpha_and_rejects_a_long_one(self):
        # k = 2, spectra 1 (residue diag(1, 2)) and 0 (residue [1])
        part = PrincipalPart(gr(0), (Matrix.diagonal([1, 2, 1]), Matrix.diagonal([1, 1, 0])))
        nf = compute_normal_form(part)
        for alpha in ([], [gr(0)], [gr(1)], [gr(2)], [gr(1), gr(0), gr(0)], [gr(1), gr(1), gr(0)]):
            assert hat_kernel_dim_formula(nf, alpha) == hat_kernel_dim(part, alpha)
        assert hat_kernel_dim_formula(nf, (gr(1),)) == 2  # (1, 0): the spectrum 0, residue [1]
        for alpha in ([gr(1), gr(1), gr(1)], [gr(0), gr(0), gr(0), gr(2)]):
            with pytest.raises(DimensionMismatch):
                hat_kernel_dim_formula(nf, alpha)
            with pytest.raises(DimensionMismatch):
                hat_kernel_dim(part, alpha)


C3 = Matrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 2]])
C4 = Matrix.block_diagonal([C3, Matrix.from_rows([[1]])]) * Matrix.from_rows(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 1, 0, 1]]
)


def conjugated(m):
    c = C3 if m.rows == 3 else C4
    return c * m * invert(c)


# (name, residue): each conjugated, so no eigenspace is a coordinate block
SCORED_RESIDUES = (
    ("semisimple double root", Matrix.diagonal([2, 2, 5])),
    ("2x2 Jordan block", Matrix.from_rows([[3, 1, 0], [0, 3, 0], [0, 0, -1]])),
    ("triple root with partition (2, 1)", Matrix.from_rows([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]])),
    ("0 off the spectrum", Matrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, gr(0, 1)]])),
)


class TestCandidateScores:
    """select_alpha scores each candidate from the root multiplicities of
    its block's residue; the scores must be the direct kernel dimensions."""

    def parts(self, residue):
        n = residue.rows
        yield PrincipalPart(gr(0), (conjugated(residue),))
        # the same residue on the spectrum 7 of an order-2 part, beside a rank-1 spectrum -1
        leading = Matrix.diagonal([7] * n + [-1])
        full = Matrix.block_diagonal([residue, Matrix.from_rows([[2]])])
        c = Matrix.block_diagonal([C3 if n == 3 else C4, Matrix.from_rows([[1]])])
        yield PrincipalPart(gr(1), (c * full * invert(c), leading))

    @pytest.mark.parametrize("name, residue", SCORED_RESIDUES)
    def test_scores_are_kernel_dimensions(self, name, residue):
        roots = {ev for ev, _ in char_eigenvalues(residue)}
        for part in self.parts(residue):
            nf = compute_normal_form(part)
            scores = _candidate_scores(nf)
            own = {cand[0] for cand in scores if cand[1:] == nf.blocks[-1].tail}
            assert own == roots | {gr(0)}
            for cand, score in scores.items():
                assert score == hat_kernel_dim(part, cand) == hat_kernel_dim_formula(nf, cand)
            assert hat_kernel_dim(part, select_alpha(nf)) == max(scores.values())

    def test_geometric_not_algebraic_multiplicity(self):
        # the Jordan block at 3 and the (2, 1) triple root at 1 are scored
        # by their eigenspaces, one dimension short of their multiplicity
        for (_, residue), root, dim in zip(SCORED_RESIDUES[1:3], (3, 1), (1, 2)):
            part = PrincipalPart(gr(0), (conjugated(residue),))
            assert _candidate_scores(compute_normal_form(part))[(gr(root),)] == dim
        part = PrincipalPart(gr(0), (conjugated(SCORED_RESIDUES[0][1]),))
        assert _candidate_scores(compute_normal_form(part))[(gr(2),)] == 2
        part = PrincipalPart(gr(0), (conjugated(SCORED_RESIDUES[3][1]),))
        assert _candidate_scores(compute_normal_form(part))[(gr(0),)] == 0


class TestSelectAlpha:
    def test_rank_one_self_spectrum(self):
        part = scalar_part(0, [5, 7])
        sel = select_alpha(compute_normal_form(part))
        assert sel == (gr(5), gr(7))
        assert hat_kernel_dim(part, sel) == 2

    def test_split_tie_break(self):
        part = PrincipalPart(gr(0), (Z2, Matrix.diagonal([1, 2])))
        sel = select_alpha(compute_normal_form(part))
        assert sel == (gr(0), gr(1))

    def test_nilpotent_residue(self):
        part = PrincipalPart(gr(0), (J2,))
        sel = select_alpha(compute_normal_form(part))
        assert sel == (gr(0),)
        assert hat_kernel_dim(part, sel) == 1

    def test_irrational_residue_keeps_the_zero_candidate(self):
        # eigenvalues +-sqrt(2) lie outside Q(i): alpha_1 = 0 is the only candidate
        part = PrincipalPart(gr(0), (Matrix.from_rows([[0, 1], [2, 0]]),))
        sel = select_alpha(compute_normal_form(part))
        assert sel == (gr(0),)
        assert hat_kernel_dim(part, sel) == 0

    def test_rational_eigenvalue_beside_an_irrational_cubic(self):
        # residue 1 (+) companion(x^3 - 2): only the eigenvalue 1 lies in Q(i)
        cubic = Matrix.from_rows([[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 2, 0, 0]])
        part = PrincipalPart(gr(0), (cubic,))
        assert select_alpha(compute_normal_form(part)) == (gr(1),)
        assert hat_kernel_dim(part, (gr(1),)) == 1
        # the same residue on the spectrum 1 of an irregular part, beside a rank-1 spectrum 3
        residue = Matrix.block_diagonal([cubic, Matrix.from_rows([[7]])])
        part = PrincipalPart(gr(0), (residue, Matrix.diagonal([1, 1, 1, 1, 3])))
        assert select_alpha(compute_normal_form(part)) == (gr(1), gr(1))
        assert hat_kernel_dim(part, (gr(1), gr(1))) == 5

    def test_katz_inequality_on_corpus(self, rng):
        for part in normal_formable_parts(rng, 15):
            sel = select_alpha(compute_normal_form(part))
            n = part.dimension
            assert stabilizer_dim_linear(part) <= n * hat_kernel_dim(part, sel)


class TestPredictedSpectra:
    def test_zero_shift_keeps_everything(self):
        nf = NormalForm(
            2,
            (
                SpectralBlock((gr(1),), Matrix.from_rows([[0]])),
                SpectralBlock((gr(2),), Matrix.from_rows([[0]])),
            ),
        )
        assert normal_forms_conjugate(predicted_spectra(nf, gr(0), 2), nf)

    def test_residue_shift_by_pole_order(self):
        nf = NormalForm(
            2,
            (
                SpectralBlock((gr(1),), Matrix.from_rows([[0]])),
                SpectralBlock((gr(2),), Matrix.from_rows([[0]])),
            ),
        )
        pred = predicted_spectra(nf, gr(3), 2)
        for b in pred.blocks:
            assert b.gamma == Matrix.from_rows([[-6]])  # d_lambda = 2 for both

    def test_zero_gamma_stays_zero(self):
        nf = NormalForm(1, (SpectralBlock((), Matrix.zeros(2, 2)),))
        pred = predicted_spectra(nf, gr(1), 2)
        assert pred.blocks[0].gamma.is_zero()
        assert pred.blocks[0].dim == 2

    def test_inconsistent_rank_rejected(self):
        nf = NormalForm(2, (SpectralBlock((gr(1),), Matrix.zeros(2, 2)),))
        with pytest.raises(InconsistentRank):
            predicted_spectra(nf, gr(0), 1)


class TestJordanData:
    def test_mixed_matrix(self):
        m = Matrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 2]])
        data = dict(jordan_data(m))
        assert data[gr(1)] == (2,)
        assert data[gr(2)] == (1,)
