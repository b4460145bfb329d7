"""Seeded random generators and the bundled invariant suite.

The `check` CLI subcommand runs every module's stated invariants against
a given system, using deterministic randomness: same seed and trial
count means byte-identical reports.  Tests reuse the generators; the
checks themselves are closures inside run_checks, run through the CLI.
"""

from __future__ import annotations

import random

from .datum import (
    canonical,
    datum_isomorphism,
    gk_action,
    is_stable,
    moment_mu,
    phi,
)
from .errors import DomainError, Exceptional, InvariantViolation, IrrationalSpectrum, NotInD0, Reducible
from .exactalg import (
    GaussianRational,
    Matrix,
    gr,
    kernel_basis,
    rank,
)
from .functors import hd_double
from .normalform import (
    _stabilizer_dim,
    compute_normal_form,
    hat_kernel_dim,
    hat_kernel_dim_formula,
    irrational_alpha_could_win,
    normal_forms_conjugate,
    select_alpha,
    stabilizer_dim_formula,
    stabilizer_dim_linear,
)
from .rigidity import rigidity_index
from .systems import (
    PrincipalPart,
    Record,
    System,
    TruncatedGauge,
    add_scalar,
    conjugate_system,
    gauge_coadjoint,
    gauge_compose,
    is_irreducible,
    order,
    residue_at_infinity,
    scalar_system,
)

__all__ = [
    "CheckResult",
    "run_checks",
    "random_matrix",
    "random_invertible",
    "random_gauge",
    "random_system",
]


def random_scalar(rng: random.Random, bound=3) -> GaussianRational:
    return gr(rng.randint(-bound, bound))


def random_matrix(rng: random.Random, rows: int, cols=None, bound=2) -> Matrix:
    cols = rows if cols is None else cols
    return Matrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    )


def random_invertible(rng: random.Random, n: int) -> Matrix:
    while True:
        m = random_matrix(rng, n)
        if rank(m) == n:
            return m


def random_gauge(rng: random.Random, point, n: int, k: int) -> TruncatedGauge:
    coeffs = [random_invertible(rng, n)] + [random_matrix(rng, n) for _ in range(k - 1)]
    return TruncatedGauge(point, tuple(coeffs))


def random_system(rng: random.Random, max_dim=3, max_poles=3, max_order=3, constant="zero") -> System:
    n = rng.randint(1, max_dim)
    npoles = rng.randint(1, max_poles)
    points = rng.sample([0, 1, -1, 2, -2], npoles)
    parts = []
    for pt in points:
        k = rng.randint(1, max_order)
        parts.append(PrincipalPart(gr(pt), tuple(random_matrix(rng, n) for _ in range(k))))
    if constant == "zero":
        const = Matrix.zeros(n, n)
    elif constant == "diagonal":
        const = Matrix.diagonal([random_scalar(rng) for _ in range(n)])
    else:
        const = random_matrix(rng, n)
    return System(n, const, tuple(parts))


def _require(condition: bool, message: str = "") -> None:
    """Fail a check with InvariantViolation; unlike assert, survives -O."""
    if not condition:
        raise InvariantViolation(message)


class CheckResult(Record):
    def __init__(self, name: str, passed: bool, trials: int, detail: str = ""):
        self.__dict__.update(name=name, passed=passed, trials=trials, detail=detail)

    def as_dict(self) -> dict:
        """The fields by name, in order."""
        return dict(zip(self._fields, self._values()))


def _gauged_parts(rng, sys):
    out = []
    for part in sys.parts:
        g = random_gauge(rng, part.point, sys.dimension, len(part.coefficients))
        out.append((g, part))
    return out


def run_checks(sys: System, seed: int, trials: int) -> list[CheckResult]:
    rng = random.Random(seed)
    results: list[CheckResult] = []

    def record(name, fn):
        count = 0
        try:
            while count < trials:
                state = rng.getstate()
                fn()
                # a trial that drew nothing from rng repeats exactly: count it for all
                count = trials if rng.getstate() == state else count + 1
        except AssertionError as exc:
            results.append(CheckResult(name, False, count, str(exc)))
            return
        except DomainError as exc:
            results.append(CheckResult(name, True, count, f"skipped: {type(exc).__name__}"))
            return
        results.append(CheckResult(name, True, count))

    n = sys.dimension

    def rank_nullity():
        for part in sys.parts:
            for c in part.coefficients:
                _require(rank(c) + len(kernel_basis(c)) == c.cols)

    def gauge_group_law():
        for part in sys.parts:
            k = len(part.coefficients)
            g = random_gauge(rng, part.point, n, k)
            h = random_gauge(rng, part.point, n, k)
            lhs = gauge_coadjoint(gauge_compose(g, h), part)
            rhs = gauge_coadjoint(g, gauge_coadjoint(h, part))
            _require(lhs.coefficients == rhs.coefficients, "gauge action is not a group action")

    def order_invariance():
        for g, part in _gauged_parts(rng, sys):
            _require(order(gauge_coadjoint(g, part)) == order(part), "pole order moved under gauge")

    def irreducibility_conjugation():
        c = random_invertible(rng, n)
        _require(is_irreducible(sys) == is_irreducible(conjugate_system(c, sys)))

    def residue_additivity():
        alpha = scalar_system({0: [random_scalar(rng)], 1: [random_scalar(rng)]})
        lhs = residue_at_infinity(add_scalar(sys, alpha))
        rhs = residue_at_infinity(sys) + residue_at_infinity(alpha).scalar() * Matrix.identity(n)
        _require(lhs == rhs, "residue at infinity is not additive")

    def section_retraction():
        d = canonical(sys.parts, n)
        _require(phi(d) == System(n, Matrix.zeros(n, n), sys.parts), "phi(canonical) != input")
        _require(is_stable(d), "canonical datum is not stable")

    def padding_independence():
        padded = tuple(
            PrincipalPart(p.point, p.coefficients + (Matrix.zeros(n, n),)) for p in sys.parts
        )
        d1 = canonical(sys.parts, n)
        d2 = canonical(padded, n)
        _require(datum_isomorphism(d1, d2) is not None, "canonical datum depends on padding")

    def equivariance_invariance():
        d = canonical(sys.parts, n)
        for b in d.blocks:
            k = len(b.powers)
            g = random_gauge(rng, b.point, n, k)
            gd = gk_action(g, d)
            _require(moment_mu(gd) == moment_mu(d), "moment value moved under the gauge action")
            lhs = phi(gd)
            rhs_parts = tuple(
                gauge_coadjoint(g, p) if p.point == b.point else p for p in phi(d).parts
            )
            _require(lhs == System(n, Matrix.zeros(n, n), rhs_parts), "phi is not equivariant")

    def stabilizer_modes():
        for part in sys.parts:
            nf = compute_normal_form(part)
            _require(stabilizer_dim_linear(part) == stabilizer_dim_formula(nf), "stabilizer modes disagree")

    def kernel_modes_and_katz():
        for part in sys.parts:
            nf = compute_normal_form(part)
            sel = select_alpha(nf)
            kernel = hat_kernel_dim(part, sel)
            _require(kernel == hat_kernel_dim_formula(nf, sel), "kernel modes disagree")
            if irrational_alpha_could_win(nf):  # sel may miss the largest kernel the inequality needs
                raise IrrationalSpectrum(f"pole {part.point}: an alpha outside Q(i) may score higher")
            _require(_stabilizer_dim(part, nf) <= n * kernel, "Katz inequality failed")

    def normal_form_gauge_invariance():
        for g, part in _gauged_parts(rng, sys):
            nf1 = compute_normal_form(part)
            nf2 = compute_normal_form(gauge_coadjoint(g, part))
            _require(normal_forms_conjugate(nf1, nf2), "normal form moved under gauge")

    def duality_involution():
        if not is_irreducible(sys):
            return
        try:
            back, witness = hd_double(sys)
        except Exceptional:
            return
        _require(witness is not None, "double dual is not equivalent to the input")

    def rigidity_conjugation():
        try:
            index = rigidity_index(sys)
        except (NotInD0, Reducible):
            return
        c = random_invertible(rng, n)
        _require(index == rigidity_index(conjugate_system(c, sys)))

    record("rank_nullity", rank_nullity)
    record("gauge_group_law", gauge_group_law)
    record("order_gauge_invariance", order_invariance)
    record("irreducibility_conjugation_invariance", irreducibility_conjugation)
    record("residue_at_infinity_additivity", residue_additivity)
    record("section_retraction_and_stability", section_retraction)
    record("canonical_padding_independence", padding_independence)
    record("equivariance_and_moment_invariance", equivariance_invariance)
    record("stabilizer_two_modes", stabilizer_modes)
    record("kernel_two_modes_and_katz_inequality", kernel_modes_and_katz)
    record("normal_form_gauge_invariance", normal_form_gauge_invariance)
    record("double_dual_identity", duality_involution)
    record("rigidity_index_conjugation_invariance", rigidity_conjugation)
    return results
