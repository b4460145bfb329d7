"""Hukuhara-Turrittin-Levelt normal forms and the local dimension data
that feeds the rigidity computations.

A normal form is a direct sum over a finite spectrum set: each spectrum
is a residue-free polynomial in 1/z (coefficients of z^{-2}..z^{-k})
acting as a scalar on its block, plus an arbitrary residue matrix.  The
reduction splits the leading coefficient by eigenvalues, kills the
off-diagonal blocks order by order with explicit gauge elements, and
recurses on the diagonal blocks; it applies exactly when every leading
coefficient met along the way is semisimple with spectrum in Q(i).

The stabilizer dimension is computed two independent ways: an exact linear
solve in the truncated gauge Lie algebra, and the eigenspace formula on the
normal form.  stabilizer_dim answers by the formula where it applies and by
the solve otherwise; the check command and the tests compare the two.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import (
    DimensionMismatch,
    InconsistentRank,
    InvariantViolation,
    IrrationalSpectrum,
    NoNormalForm,
)
from .exactalg import (
    GaussianRational,
    Matrix,
    char_poly,
    generalized_eigendecomposition,
    gr,
    hat_matrix,
    nilpotent_partition,
    qi_roots,
    quotient_projection,
    rank,
    solve,
    sylvester_operator,
)
from .systems import PrincipalPart, Record, TruncatedGauge, gauge_coadjoint, trim

__all__ = [
    "SpectralBlock",
    "NormalForm",
    "compute_normal_form",
    "assemble_normal_form",
    "stabilizer_dim",
    "stabilizer_dim_linear",
    "stabilizer_dim_formula",
    "hat_kernel_dim",
    "hat_kernel_dim_formula",
    "select_alpha",
    "irrational_alpha_could_win",
    "predicted_spectra",
    "normal_forms_conjugate",
    "jordan_data",
    "jordan_matrix",
]


class SpectralBlock(Record):
    """One spectrum: tail = (lambda_2, ..., lambda_k) and the residue
    matrix on its subspace."""

    def __init__(self, tail: tuple[GaussianRational, ...], gamma: Matrix):
        self.__dict__.update(tail=tail, gamma=gamma)

    @property
    def dim(self) -> int:
        return self.gamma.rows

    def tail_key(self):
        return tuple(x.sort_key() for x in trim(self.tail))

    def is_zero_spectrum(self) -> bool:
        return not trim(self.tail)

    def pole_order(self) -> int:
        """ord(lambda(z) + Gamma/z) for this block."""
        return len(trim((self.gamma, *self.tail)))


class NormalForm(Record):
    """Finite spectrum set with dimensions and residue matrices.

    ``k`` is the ambient truncation order (number of stored coefficients
    of the part it was computed from); tails all have length k-1.
    """

    def __init__(self, k: int, blocks: Sequence[SpectralBlock]):
        blocks = tuple(sorted(blocks, key=lambda b: b.tail_key()))
        keys = [b.tail_key() for b in blocks]
        if len(set(keys)) != len(keys):
            raise DimensionMismatch("spectra of a normal form must be pairwise distinct")
        for b in blocks:
            if len(b.tail) != max(k - 1, 0):
                raise DimensionMismatch("tail length must be k-1")
        self.__dict__.update(k=k, blocks=blocks)

    @property
    def dimension(self) -> int:
        return sum(b.dim for b in self.blocks)


def assemble_normal_form(nf: NormalForm) -> list[Matrix]:
    """Coefficient matrices [Lambda_1, ..., Lambda_k] of the block-diagonal
    model."""
    out = []
    for i in range(1, nf.k + 1):
        mats = []
        for b in nf.blocks:
            if i == 1:
                mats.append(b.gamma)
            else:
                mats.append(b.tail[i - 2] * Matrix.identity(b.dim))
        out.append(Matrix.block_diagonal(mats))
    return out


# ---------------------------------------------------------------------------
# Computing the normal form
# ---------------------------------------------------------------------------


def _split(coeffs: list[Matrix], k: int) -> list[tuple[list[GaussianRational], Matrix]]:
    """Recursive reduction; returns (tail as list indexed 2..k, gamma) with
    pairwise distinct tails, as every level splits by distinct eigenvalues."""
    n = coeffs[0].rows
    d = len(trim(coeffs))
    if d <= 1:
        return [([gr(0)] * (k - 1), coeffs[0])]
    eig = generalized_eigendecomposition(coeffs[d - 1])
    if any(not nil.is_zero() for _, _, nil in eig):
        raise NoNormalForm("a leading coefficient encountered is not semisimple")
    # pass to the eigenbasis and eliminate the entries between different
    # eigenvalues (the cross pairs) one homogeneous gauge degree at a time;
    # with one eigenvalue the basis is the identity and there are none
    label = [ev for ev, b, _ in eig for _ in range(b.cols)]
    basis = Matrix.hstack([b for _, b, _ in eig])
    cur = [solve(basis, c * basis) for c in coeffs]
    cross = [(r, s) for r in range(n) for s in range(n) if label[r] != label[s]]
    for j in range(1, d):
        target = cur[d - j - 1]
        if any(not target[r, s].is_zero() for r, s in cross):
            x = [gr(0)] * (n * n)
            for r, s in cross:
                x[r * n + s] = target[r, s] / (label[r] - label[s])
            gauge_coeffs = [Matrix.identity(n)] + [Matrix.zeros(n, n)] * (j - 1) + [Matrix(n, n, x)]
            g = TruncatedGauge(gr(0), tuple(gauge_coeffs))
            new_part = gauge_coadjoint(g, PrincipalPart(gr(0), tuple(cur)))
            cur = list(new_part.coefficients)
    if any(not c[r, s].is_zero() for c in cur for r, s in cross):
        raise InvariantViolation("off-diagonal elimination failed")
    # the leading block of each eigenspace is ev * I: move ev to the tail
    out = []
    lo = 0
    for ev, b, _ in eig:
        hi = lo + b.cols
        sub = [c.submatrix(lo, hi, lo, hi) for c in cur]
        sub[d - 1] = sub[d - 1].shift(-ev)
        blocks = _split(sub, k)
        for tail, _ in blocks:
            tail[d - 2] = tail[d - 2] + ev
        out.extend(blocks)
        lo = hi
    return out


def compute_normal_form(part: PrincipalPart) -> NormalForm:
    """Normal form of one principal part.

    Parts of pole order <= 1 are already normal: single zero spectrum with
    the residue as its matrix.  Otherwise the leading coefficient must be
    semisimple with eigenvalues in Q(i) (NoNormalForm / IrrationalSpectrum
    when not, naming the pole), and likewise recursively on the diagonal
    blocks.
    """
    k = len(part.coefficients)
    try:
        blocks = _split(list(part.coefficients), k)
    except (NoNormalForm, IrrationalSpectrum) as e:
        raise type(e)(f"pole {part.point}: {e}") from e
    return NormalForm(k, tuple(SpectralBlock(tuple(tail), gamma) for tail, gamma in blocks))


# ---------------------------------------------------------------------------
# Stabilizer dimension
# ---------------------------------------------------------------------------


def stabilizer_dim_linear(part: PrincipalPart) -> int:
    """dim of {xi in g_k(V) : ad-coadjoint action of xi kills the part},
    by exact linear solve; works for any part.  Condition m reads
    sum_{i=0}^{k-m} [xi_i, A_{m+i}] = 0: the hat matrix of the operators
    xi -> [xi, A_j], with the unknown blocks in reverse order."""
    m = hat_matrix([sylvester_operator(a, a) for a in part.coefficients])
    return m.cols - rank(m)


def jordan_data(m: Matrix) -> tuple:
    """Sorted ((eigenvalue, jordan partition), ...); the conjugacy class."""
    return tuple(
        (ev, nilpotent_partition(nil)) for ev, _, nil in generalized_eigendecomposition(m)
    )


def stabilizer_dim_formula(nf: NormalForm) -> int:
    """Centralizer dimension from the normal form's eigenspace data."""
    # level 1: the commutant of each residue, Sum min(a, b) over pairs of
    # Jordan block sizes a, b of one eigenvalue
    total = sum(
        min(a, b) for blk in nf.blocks for _, sizes in jordan_data(blk.gamma) for a in sizes for b in sizes
    )
    # level i adds the squared dimension of each group of spectra sharing
    # (lambda_i, ..., lambda_k), that is Sum_b dim b * (dim of b's group)
    return total + sum(b.dim * _tail_dim(nf, b.tail) for b in nf.blocks)


def stabilizer_dim(part: PrincipalPart) -> int:
    """Stabilizer dimension by the formula mode, and by the linear mode where
    the part has no normal form (NoNormalForm) or a residue spectrum outside
    Q(i) (IrrationalSpectrum).  The check command and the tests compare them."""
    return _stabilizer_dim(part, None)


def _stabilizer_dim(part: PrincipalPart, nf: Optional[NormalForm]) -> int:
    """``stabilizer_dim`` of the part, reading its normal form nf unless it
    is None."""
    try:
        return stabilizer_dim_formula(compute_normal_form(part) if nf is None else nf)
    except (NoNormalForm, IrrationalSpectrum):
        return stabilizer_dim_linear(part)


# ---------------------------------------------------------------------------
# Kernel dimensions of the Toeplitz pencil and the Katz maximizer
# ---------------------------------------------------------------------------


def hat_kernel_dim(part: PrincipalPart, alpha: Sequence[GaussianRational]) -> int:
    """dim Ker(A-hat - alpha-hat) for the scalar coefficients
    (alpha_1, ..., alpha_k), a shorter vector padded with zeros, computed
    directly on the block-Toeplitz matrices; gauge-invariant."""
    k = len(part.coefficients)
    if len(trim(alpha)) > k:
        raise DimensionMismatch("scalar part exceeds the truncation order")
    shifted = [c.shift(-a) for c, a in zip(part.coefficients, [*alpha, *[gr(0)] * k])]
    m = hat_matrix(shifted)
    return m.cols - rank(m)


def _tail_dim(nf: NormalForm, tail: tuple) -> int:
    """Levels 2..k of the formula: Sum_i dim V(alpha_i, ..., alpha_k) for
    the tail (alpha_2, ..., alpha_k)."""
    return sum(b.dim for i in range(2, nf.k + 1) for b in nf.blocks if b.tail[i - 2 :] == tail[i - 2 :])


def hat_kernel_dim_formula(nf: NormalForm, alpha_coeffs: Sequence[GaussianRational]) -> int:
    """Sum over levels i of the simultaneous eigenspace dimensions
    dim V(alpha_i, ..., alpha_k) of the normal form coefficients, for the
    scalar coefficients (alpha_1, ..., alpha_k), a shorter vector padded
    with zeros.  An alpha that is no candidate of select_alpha meets no
    eigenspace of a residue, so only levels 2..k count."""
    k = nf.k
    if len(trim(alpha_coeffs)) > k:
        raise DimensionMismatch("scalar part exceeds the truncation order")
    padded = (*alpha_coeffs, *[gr(0)] * k)[:k]
    return _candidate_scores(nf).get(padded, _tail_dim(nf, padded[1:]))


def _candidate_scores(nf: NormalForm) -> dict[tuple, int]:
    """dim Ker(A-hat - alpha-hat) of every candidate alpha of select_alpha.

    Tails are pairwise distinct, so only the candidate's own block meets
    level 1, where it adds the geometric multiplicity of alpha_1 in the
    residue.  That is read off the algebraic multiplicity m from
    ``qi_roots``: it is m when m <= 1 and needs a rank only when m >= 2.
    """
    scores = {}
    for b in nf.blocks:
        levels = _tail_dim(nf, b.tail)
        for alpha_1, m in {gr(0): 0, **qi_roots(char_poly(b.gamma))}.items():
            if m >= 2:
                shifted = b.gamma.shift(-alpha_1)
                m = shifted.cols - rank(shifted)
            scores[(alpha_1, *b.tail)] = levels + m
    return scores


def irrational_alpha_could_win(nf: NormalForm) -> bool:
    """Whether an alpha_1 outside Q(i) might score above every candidate
    of select_alpha at this normal form.  Such an eigenvalue of a residue
    shares its multiplicity with its conjugates over Q(i), so it has at
    most half of the dimension that the Q(i) roots leave."""
    best = max(_candidate_scores(nf).values())
    for b in nf.blocks:
        outside = b.dim - sum(qi_roots(char_poly(b.gamma)).values())
        if _tail_dim(nf, b.tail) + outside // 2 > best:
            return True
    return False


def select_alpha(nf: NormalForm) -> tuple[GaussianRational, ...]:
    """Scalar coefficients (alpha_1, ..., alpha_k) maximizing
    dim Ker(A-hat - alpha-hat) for any part with normal form nf.

    Candidates are every spectrum tail, alone and extended by each Q(i)
    eigenvalue of its residue matrix (alpha lies in Q(i), so no other
    eigenvalue can match); ties break to the lexicographically smallest
    coefficient vector (highest-order coefficient first, ordered by
    (re, im))."""
    scores = _candidate_scores(nf)
    return min(scores, key=lambda cand: (-scores[cand], tuple(x.sort_key() for x in reversed(cand))))


# ---------------------------------------------------------------------------
# Spectra prediction under convolution
# ---------------------------------------------------------------------------


def jordan_matrix(blocks: Sequence[tuple[GaussianRational, int]]) -> Matrix:
    """Block-diagonal Jordan matrix from (eigenvalue, size) pairs."""
    mats = []
    for ev, size in blocks:
        rows = [
            [ev if j == i else (gr(1) if j == i + 1 else gr(0)) for j in range(size)]
            for i in range(size)
        ]
        mats.append(Matrix.from_rows(rows))
    return Matrix.block_diagonal(mats)


def predicted_spectra(
    nf: NormalForm, alpha_residue: GaussianRational, new_rank: int
) -> NormalForm:
    """Normal form of the convolution output predicted from the input's.

    alpha_residue is the residue at infinity of the convolution parameter,
    -lambda for lambda/z.  Nonzero spectra carry over, their residues
    shifted by -d_lambda * alpha_residue; the zero-spectrum block is the
    Jordan representative fixed by the rank identities of the shifted pencil.
    """
    beta = gr(alpha_residue)
    carried = []
    zero_block: Optional[SpectralBlock] = None
    for b in nf.blocks:
        if b.is_zero_spectrum():
            zero_block = b
        else:
            carried.append(SpectralBlock(b.tail, b.gamma.shift(-(b.pole_order() * beta))))
    carried_dim = sum(b.dim for b in carried)
    if new_rank < carried_dim:
        raise InconsistentRank(
            f"output rank {new_rank} is below the carried dimension {carried_dim}"
        )
    v0 = new_rank - carried_dim
    gamma0 = zero_block.gamma if zero_block is not None else Matrix.zeros(0, 0)
    pi, pivots = quotient_projection(gamma0)
    w0 = pi.rows
    m = (pi * gamma0.select_columns(pivots)).shift(-beta)
    if v0 < w0:
        raise InconsistentRank("output rank cannot accommodate the residue pencil")
    jordan_blocks: list[tuple[GaussianRational, int]] = []
    zero_count = 0
    for ev, partition in jordan_data(m):
        if ev.is_zero():
            for size in partition:
                jordan_blocks.append((gr(0), size + 1))
                zero_count += 1
        else:
            for size in partition:
                jordan_blocks.append((ev, size))
    extra_ones = v0 - w0 - zero_count
    if extra_ones < 0:
        raise InconsistentRank("rank identities are infeasible at the requested rank")
    jordan_blocks.extend([(gr(0), 1)] * extra_ones)
    if v0 > 0:
        carried.append(
            SpectralBlock(tuple([gr(0)] * max(nf.k - 1, 0)), jordan_matrix(jordan_blocks))
        )
    return NormalForm(nf.k, tuple(carried))


def normal_forms_conjugate(a: NormalForm, b: NormalForm) -> bool:
    """Same spectra (as trimmed tails), same dimensions, conjugate
    residue matrices."""
    da = {blk.tail_key(): (blk.dim, jordan_data(blk.gamma)) for blk in a.blocks}
    db = {blk.tail_key(): (blk.dim, jordan_data(blk.gamma)) for blk in b.blocks}
    return da == db
