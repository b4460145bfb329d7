"""Each typed DomainError that a malformed library call raises, one row per
raise site: the shape and rank checks of the constructors and of the
operations that take two operands, the singular gauges, the empty V, and
the rank identities of the predicted spectra."""

import pytest

from midconv.datum import Block, Datum, canonical, datum_isomorphism, gk_action, harnad_irreducible
from midconv.errors import (
    DimensionMismatch,
    EmptyV,
    InconsistentRank,
    NotFuchsian,
    Reducible,
    SingularGauge,
    ValidationError,
)
from midconv.exactalg import Matrix, char_poly, gr, invert, nilpotent_powers, solve
from midconv.functors import OkuboTriple, dr_middle_convolution, mc
from midconv.normalform import NormalForm, SpectralBlock, predicted_spectra
from midconv.rigidity import ReductionStep, ReductionTrace, katz_reduce
from midconv.systems import (
    PrincipalPart,
    System,
    TruncatedGauge,
    conjugate_system,
    gauge_coadjoint,
    is_irreducible,
    lambda_over_z,
    truncated_inverse,
    zero_pair,
)

from conftest import E11, E12, E21, Z2, fuchsian

ROW = Matrix.zeros(1, 2)  # not square
ONE = Matrix.identity(1)
BLOCK = Block(gr(0), E12, Matrix.from_rows([[2, 3]]), Matrix.column([0, 1]))
PAIR = fuchsian({0: E12, 1: E21})


def step(rank_before: int, rank_after: int) -> ReductionStep:
    return ReductionStep(lambda_over_z(1), gr(1), rank_before, rank_after, zero_pair())


SITES = [
    # exactalg
    (DimensionMismatch, lambda: Matrix(1, 2, [gr(1)]), "matrix-entry-count"),
    (DimensionMismatch, lambda: Matrix.from_rows([[1], [1, 2]]), "from-rows-ragged"),
    (DimensionMismatch, lambda: Matrix.hstack([ONE, Z2]), "hstack-rows"),
    (DimensionMismatch, lambda: Matrix.vstack([ONE, ROW]), "vstack-columns"),
    (DimensionMismatch, lambda: ROW * ROW, "product-shapes"),
    (DimensionMismatch, lambda: ROW.trace(), "trace-not-square"),
    (DimensionMismatch, lambda: ROW.scalar(), "scalar-not-1x1"),
    (DimensionMismatch, lambda: ONE + ROW, "sum-shapes"),
    (DimensionMismatch, lambda: solve(ONE, Z2), "solve-rows"),
    (DimensionMismatch, lambda: invert(ROW), "invert-not-square"),
    (DimensionMismatch, lambda: char_poly(ROW), "char-poly-not-square"),
    (DimensionMismatch, lambda: nilpotent_powers(ROW), "nilpotent-powers-not-square"),
    # systems
    (ValidationError, lambda: PrincipalPart(0, ()), "part-without-coefficients"),
    (DimensionMismatch, lambda: PrincipalPart(0, (ROW,)), "part-not-square"),
    (ValidationError, lambda: TruncatedGauge(0, ()), "gauge-without-coefficients"),
    (DimensionMismatch, lambda: TruncatedGauge(0, (ROW,)), "gauge-not-square"),
    (DimensionMismatch, lambda: System(2, ONE), "system-constant-size"),
    (DimensionMismatch, lambda: System(2, Z2, (PrincipalPart(0, (ONE,)),)), "system-part-size"),
    (SingularGauge, lambda: truncated_inverse((Z2,), 2), "truncated-inverse-singular"),
    (DimensionMismatch, lambda: gauge_coadjoint(TruncatedGauge(0, (Matrix.identity(2),)), PrincipalPart(0, (ONE,))),
     "coadjoint-dimensions"),
    (DimensionMismatch, lambda: is_irreducible(zero_pair()), "irreducible-dimension-0"),
    (SingularGauge, lambda: conjugate_system(Z2, PAIR), "conjugate-singular"),
    # datum
    (DimensionMismatch, lambda: Block(0, ROW, ROW, ROW), "block-nilpotent-not-square"),
    (DimensionMismatch, lambda: Block(0, ONE, ROW, ONE), "block-shapes"),
    (DimensionMismatch, lambda: Datum(2, (BLOCK,)), "datum-block-over-another-v"),
    (DimensionMismatch, lambda: canonical(PAIR.parts, 1), "canonical-dimensions"),
    (DimensionMismatch, lambda: gk_action(TruncatedGauge(0, (Matrix.identity(2),)), Datum(1, (BLOCK,))),
     "gk-action-dimensions"),
    (DimensionMismatch, lambda: datum_isomorphism(Datum(1), Datum(2)), "isomorphism-over-different-v"),
    (EmptyV, lambda: harnad_irreducible(Datum(0)), "harnad-irreducible-dim-0"),
    # functors
    (DimensionMismatch, lambda: mc(PAIR, System(2, Z2)), "mc-parameter-rank"),
    (NotFuchsian, lambda: dr_middle_convolution(System(1, ONE), gr(1)), "dr-constant-term"),
    (DimensionMismatch, lambda: OkuboTriple(ONE, Z2), "okubo-shapes"),
    # normalform
    (DimensionMismatch, lambda: NormalForm(1, (SpectralBlock((), ONE), SpectralBlock((), ONE))),
     "normal-form-duplicate-spectra"),
    (DimensionMismatch, lambda: NormalForm(2, (SpectralBlock((), ONE),)), "normal-form-tail-length"),
    # a residue of rank 2 on the zero spectrum, and one whose pencil needs a second dimension
    (InconsistentRank, lambda: predicted_spectra(NormalForm(1, (SpectralBlock((), Matrix.identity(2)),)), gr(0), 1),
     "predicted-pencil-rank"),
    (InconsistentRank, lambda: predicted_spectra(NormalForm(1, (SpectralBlock((), E12),)), gr(0), 1),
     "predicted-rank-identities"),
    # rigidity: diagonal residues summing to 0, so the pair is in D0 and reducible
    (Reducible, lambda: katz_reduce(fuchsian({0: E11, 1: -E11})), "katz-reduce-reducible"),
    (ValidationError, lambda: ReductionTrace((step(3, 2), step(2, 2))), "trace-ranks-not-decreasing"),
    (ValidationError, lambda: ReductionTrace((step(3, 2),)), "trace-ends-above-rank-1"),
]


@pytest.mark.parametrize("error, call", [site[:2] for site in SITES], ids=[site[2] for site in SITES])
def test_a_malformed_call_raises_its_typed_error(error, call):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error


@pytest.mark.parametrize(
    "steps, message",
    [
        ((step(3, 2), step(2, 2)), "trace ranks must strictly decrease"),
        ((step(2, 3),), "trace ranks must strictly decrease"),
        ((step(3, 2),), "trace must end at rank <= 1"),
    ],
    ids=["repeated-rank", "rank-grows", "last-rank-2"],
)
def test_a_malformed_trace_is_a_validation_error_with_its_message(steps, message):
    with pytest.raises(ValidationError) as info:
        ReductionTrace(steps)
    assert str(info.value) == message
