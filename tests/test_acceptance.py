"""Acceptance criteria.

One test per criterion, at the stated corpus sizes, all comparisons
exact.  Run with ``pytest tests/test_acceptance.py -s`` to see one
PASS line per criterion.
"""

import random

from midconv.datum import canonical, gk_action, kappa, moment_mu, phi
from midconv.errors import DomainError
from midconv.exactalg import Matrix, gr, invert, nilpotent_powers
from midconv.functors import dr_middle_convolution, hd, hd_double, mc
from midconv.normalform import (
    compute_normal_form,
    hat_kernel_dim,
    hat_kernel_dim_formula,
    normal_forms_conjugate,
    predicted_spectra,
    select_alpha,
    stabilizer_dim_formula,
    stabilizer_dim_linear,
    NormalForm,
    SpectralBlock,
)
from midconv.rigidity import katz_reduce, katz_step, rigidity_index
from midconv.systems import (
    PrincipalPart,
    System,
    add_scalar,
    equivalent,
    gauge_coadjoint,
    is_irreducible,
    lambda_over_z,
    residue_at_infinity,
    scalar_system,
    zero_pair,
)
from midconv.checks import (
    random_gauge,
    random_invertible,
    random_matrix,
    random_system,
)

from conftest import (
    E21,
    d0_corpus,
    fuchsian,
    irreducible_corpus,
    normal_formable_parts,
    painleve_quadruples,
)


def _report(num, text):
    print(f"[criterion {num:2d}] PASS  {text}")


def rank1_mc_expected(a1, a2, lam):
    """The closed-form output matrix for the order-2 rank-1 convolution.

    Entries: a_{d-j+1}/z^{d-i+1} + lam/z^{j-i+1} above the diagonal
    (inclusive), a_{d-j+1}/z^{d-i+1} below; d = 2, indices 1-based.
    """
    d = 2
    alpha = {1: gr(a1), 2: gr(a2)}
    size = d if gr(lam) + gr(a1) != gr(0) else d - 1
    coeffs = [Matrix.zeros(size, size) for _ in range(d)]
    grids = [[[gr(0)] * size for _ in range(size)] for _ in range(d)]
    for i in range(1, size + 1):
        for j in range(1, size + 1):
            grids[d - i][i - 1][j - 1] = grids[d - i][i - 1][j - 1] + alpha[d - j + 1]
            if i <= j:
                grids[j - i][i - 1][j - 1] = grids[j - i][i - 1][j - 1] + gr(lam)
    coeffs = [Matrix.from_rows(g) for g in grids]
    return System(size, Matrix.zeros(size, size), (PrincipalPart(gr(0), tuple(coeffs)),))


def test_criterion_1_rank1_entry_formula():
    for a1, a2, lam in [(1, 1, 1), (3, 2, 1), (1, 1, -1)]:
        p = scalar_system({0: [a1, a2]})
        got = mc(p, lambda_over_z(lam))
        expected = rank1_mc_expected(a1, a2, lam)
        assert got == expected, (a1, a2, lam)
    _report(1, "rank-1 convolution matches the closed-form entries, "
               "including the degenerate weight")


def test_criterion_2_section_retraction():
    rng = random.Random(2)
    count = 0
    while count < 200:
        sys = random_system(rng, max_dim=3, max_poles=3, max_order=3)
        d = canonical(sys.parts, sys.dimension)
        zero_const = Matrix.zeros(sys.dimension, sys.dimension)
        assert phi(d) == System(sys.dimension, zero_const, sys.parts)
        assert (phi(kappa(sys))) == System(sys.dimension, sys.constant, sys.parts)
        from midconv.datum import is_stable

        assert is_stable(d)
        count += 1
    _report(2, f"phi(kappa(A)) = A and stability on {count} random systems")


def test_criterion_3_uniqueness():
    rng = random.Random(3)
    from midconv.datum import Block, Datum, datum_isomorphism

    count = 0
    while count < 100:
        sys = random_system(rng, max_dim=3, max_poles=3, max_order=3)
        d = canonical(sys.parts, sys.dimension)
        blocks = []
        for b in d.blocks:
            c = random_invertible(rng, b.dim_w)
            cinv = invert(c)
            blocks.append(Block(b.point, c * b.nilpotent * cinv, b.q * cinv, c * b.p))
        d2 = Datum(sys.dimension, tuple(blocks))
        f = datum_isomorphism(d, d2)
        assert f is not None
        assert f * d.t_matrix() == d2.t_matrix() * f
        assert d2.q_matrix() * f == d.q_matrix()
        assert f * d.p_matrix() == d2.p_matrix()
        count += 1
    _report(3, f"datum isomorphism recovered on {count} conjugated stable data")


def test_criterion_4_duality_involution():
    rng = random.Random(4)
    corpus = irreducible_corpus(rng, 30, max_dim=2, constant="zero")
    corpus += irreducible_corpus(rng, 10, max_dim=2, constant="diagonal")
    corpus += [scalar_system({0: [3, 2]}), scalar_system({0: [1], 1: [2, 1]})]
    while len(corpus) < 50:
        corpus += irreducible_corpus(rng, 1, max_dim=3, constant="zero")
    irregular = sum(
        1 for p in corpus if any(len(part.coefficients) > 1 for part in p.parts)
    )
    assert irregular >= 10, "corpus must include irregular pairs"
    for p in corpus:
        back, witness = hd_double(p)
        assert witness is not None
    for s in [0, 2, -1]:
        assert hd(System(1, Matrix.from_rows([[s]]), ())) == zero_pair()
    assert hd(System(3, Matrix.diagonal([1, 2, 2]), ())) == zero_pair()
    _report(4, f"hd . hd ~ id with witnesses on {len(corpus)} pairs "
               f"({irregular} irregular); pure-constant duals vanish")


def test_criterion_5_composition():
    rng = random.Random(5)
    corpus = d0_corpus(rng, 28, max_dim=2)
    # a couple of items with a Jordan-block constant and 2-coefficient weights
    j2 = Matrix.from_rows([[0, 1], [0, 0]])
    special = System(2, j2, (PrincipalPart(gr(0), (E21,)),))
    assert is_irreducible(special)
    jobs = []
    for p in corpus:
        a, b = gr(rng.choice([1, 2, -1])), gr(rng.choice([1, 3, -2]))
        jobs.append((p, scalar_system({0: [a]}), scalar_system({0: [b]})))
    jobs.append((special, scalar_system({0: [1, 1]}), scalar_system({0: [2]})))
    jobs.append((special, scalar_system({0: [1]}), scalar_system({0: [0, 1]})))
    done = 0
    for p, alpha, beta in jobs:
        first = mc(p, alpha)
        if first.dimension == 0:
            continue
        both = mc(first, beta)
        merged = add_scalar(alpha, beta)
        direct = mc(p, System(1, Matrix.zeros(1, 1), merged.parts))
        assert both.dimension == direct.dimension, (p, alpha, beta)
        if both.dimension:
            assert equivalent(both, direct) is not None
        identity = mc(p, scalar_system({}))
        assert equivalent(identity, p) is not None
        done += 1
    assert done >= 30
    _report(5, f"mc_b . mc_a ~ mc_(a+b) and mc_0 ~ id on {done} corpus items")


def test_criterion_6_oracle_equivalence():
    rng = random.Random(6)
    corpus = []
    while len(corpus) < 30:
        n = rng.choice([2, 2, 3])
        pts = rng.sample([0, 1, -1, 2], rng.choice([2, 3]))
        p = fuchsian({pt: random_matrix(rng, n) for pt in pts}, dim=n)
        if all(all(c.is_zero() for c in part.coefficients) for part in p.parts):
            continue
        if not is_irreducible(p):
            continue
        corpus.append(p)
    lams = [gr(0), gr(1), gr(-1), gr(2), gr(0, 1)]
    runs = 0
    for p in corpus:
        for lam in lams:
            via_duality = mc(p, lambda_over_z(lam))
            via_quotients = dr_middle_convolution(p, lam)
            assert via_duality.dimension == via_quotients.dimension
            if via_duality.dimension == 0:
                continue
            if is_irreducible(via_duality):
                assert equivalent(via_duality, via_quotients) is not None
            runs += 1
    assert runs >= 140
    _report(6, f"mc agrees with the two-step oracle on {len(corpus)} Fuchsian "
               f"pairs x {len(lams)} weights")


def test_criterion_7_equivariance_invariance():
    rng = random.Random(7)
    count = 0
    while count < 200:
        sys = random_system(rng, max_dim=3, max_poles=2, max_order=3)
        d = canonical(sys.parts, sys.dimension)
        if not d.blocks:
            continue
        b = d.blocks[rng.randrange(len(d.blocks))]
        k = len(nilpotent_powers(b.nilpotent))
        g = random_gauge(rng, b.point, sys.dimension, k)
        gd = gk_action(g, d)
        base = phi(d)
        expected = tuple(
            gauge_coadjoint(g, p) if p.point == b.point else p for p in base.parts
        )
        n = sys.dimension
        assert phi(gd) == System(n, Matrix.zeros(n, n), expected)
        assert moment_mu(gd) == moment_mu(d)
        count += 1
    _report(7, f"equivariance of phi and invariance of the moment value on {count} pairs (g, d)")


def test_criterion_8_kernel_and_stabilizer_formulas():
    rng = random.Random(8)
    parts = normal_formable_parts(rng, 50)
    for part in parts:
        nf = compute_normal_form(part)
        assert stabilizer_dim_linear(part) == stabilizer_dim_formula(nf)
        k = len(part.coefficients)
        sel = select_alpha(nf)
        for b in nf.blocks:
            coeffs = [gr(0)] + list(b.tail)
            assert hat_kernel_dim(part, coeffs) == hat_kernel_dim_formula(nf, coeffs)
        assert hat_kernel_dim(part, sel) == hat_kernel_dim_formula(nf, sel)
        assert stabilizer_dim_linear(part) <= part.dimension * hat_kernel_dim(part, sel)
    _report(8, f"kernel and stabilizer formulas agree and the maximizer "
               f"inequality holds on {len(parts)} parts")


def test_criterion_9_reflection_arithmetic():
    rng = random.Random(9)
    # first half: residue at infinity a nonzero scalar
    count = 0
    while count < 20:
        n = rng.choice([1, 2, 3])
        lam = gr(rng.choice([1, -1, 2, 3]))
        pts = rng.sample([0, 1, -1], rng.choice([2, 3]))
        parts = [
            PrincipalPart(gr(pt), tuple(random_matrix(rng, n) for _ in range(rng.choice([1, 2]))))
            for pt in pts
        ]
        correction = Matrix.zeros(n, n)
        for p in parts[1:]:
            correction = correction + p.coefficients[0]
        fixed = (-(lam * Matrix.identity(n)) - correction,) + parts[0].coefficients[1:]
        parts[0] = PrincipalPart(parts[0].point, fixed)
        sys = System(n, Matrix.zeros(n, n), tuple(parts))
        assert residue_at_infinity(sys) == lam * Matrix.identity(n)
        dim_w = canonical(sys.parts, n).dim_w
        out = mc(sys, lambda_over_z(lam))
        assert out.dimension == dim_w - n, (sys, dim_w)
        count += 1
    # second half: duals at least double the rank on the no-residue corpus
    corpus = d0_corpus(rng, 20, max_dim=2)
    for p in corpus:
        dual = hd(p)
        assert dual.dimension >= 2 * p.dimension
    _report(9, f"reflection rank identity on {count} pairs; dual rank at least "
               f"doubles on {len(corpus)} no-residue pairs")


def test_criterion_10_rigidity_table(
    nilpotent_triple, split_triple_111, irregular_300, irregular_210
):
    triples = {
        "300": irregular_300,
        "210": irregular_210,
        "111": split_triple_111,
    }
    for name, p in triples.items():
        assert rigidity_index(p) == 0, name
        trace = katz_reduce(p)
        assert len(trace.steps) == 1 and trace.final_rank == 1, name
    quadruples = painleve_quadruples()
    assert set(quadruples) == {"4000", "3100", "2200", "2110", "1111"}
    for name, q in quadruples.items():
        assert rigidity_index(q) == 2, name
        alpha_parts = []
        for part in q.parts:
            sel = select_alpha(compute_normal_form(part))
            alpha_parts.append(
                PrincipalPart(
                    part.point,
                    tuple(Matrix.from_rows([[-c]]) for c in sel),
                )
            )
        res = katz_step(q, System(1, Matrix.zeros(1, 1), tuple(alpha_parts)))
        assert res.dimension == 2, name
    assert rigidity_index(nilpotent_triple) == 0
    _report(10, "three rigid d-triples reduce in one step; five moduli-dimension-2 "
                "quadruples keep rank 2; concrete triple has index 0")


def test_criterion_11_spectra_preservation():
    rng = random.Random(11)
    jobs = []
    fixtures = [
        fx for fx in (
            painleve_quadruples()["1111"],
            painleve_quadruples()["2110"],
            painleve_quadruples()["3100"],
        )
    ]
    for fx in fixtures:
        for a in [1, -1]:
            jobs.append((fx, gr(a)))
    corpus = d0_corpus(rng, 40, max_dim=2)
    for p in corpus:
        jobs.append((p, gr(rng.choice([1, -1, 2]))))
    done = 0
    for p, a in jobs:
        if done >= 20 and (p, a) not in [(f, gr(x)) for f in fixtures for x in (1, -1)]:
            break
        try:
            nfs = {part.point: compute_normal_form(part) for part in p.parts}
        except DomainError:
            continue
        alpha = lambda_over_z(a)
        out = mc(p, alpha)
        if out.dimension == 0:
            continue
        beta = residue_at_infinity(alpha).scalar()
        ok = True
        for point, nf in nfs.items():
            out_part = out.part_at(point)
            if out_part is None:
                out_part = PrincipalPart(point, (Matrix.zeros(out.dimension, out.dimension),))
            try:
                predicted = predicted_spectra(nf, beta, out.dimension)
                actual = compute_normal_form(out_part)
            except DomainError:
                ok = False
                break
            padded_actual = _pad_nf(actual, predicted.k)
            padded_predicted = _pad_nf(predicted, padded_actual.k)
            assert normal_forms_conjugate(padded_predicted, padded_actual), (p, a, point)
            assert select_alpha(padded_predicted) == select_alpha(padded_actual), (p, a, point)
        if ok:
            done += 1
    assert done >= 20
    _report(11, f"convolution output normal forms match the prediction on {done} runs")


def _pad_nf(nf, k):
    k = max(k, nf.k)
    blocks = tuple(
        SpectralBlock(b.tail + tuple(gr(0) for _ in range(k - 1 - len(b.tail))), b.gamma)
        for b in nf.blocks
    )
    return NormalForm(k, blocks)
