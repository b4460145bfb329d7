"""Typed domain errors shared by all midconv modules.

Every error the library can raise on bad mathematical input derives from
DomainError, so the CLI can map any of them to exit status 1 while
programming mistakes (plain ValueError, AssertionError) still surface loudly.
"""


class DomainError(Exception):
    """Base class for all input-dependent failures."""


class InvariantViolation(AssertionError):
    """An internal invariant or cross-check failed.  Raised explicitly so
    that python -O cannot skip it; not a DomainError, so never exit status 1."""


class DimensionMismatch(DomainError):
    pass


class IrrationalSpectrum(DomainError):
    """A characteristic polynomial has a factor with no root in Q(i)."""


class NotNilpotent(DomainError):
    pass


class SingularGauge(DomainError):
    """Constant term of a truncated gauge element is not invertible."""


class PointMismatch(DomainError):
    """A gauge element was applied at a pole it does not belong to."""


class InconclusiveEquivalence(DomainError):
    """Equivalence was requested for a pair with an intertwiner space of
    dimension >= 2, which a single basis element cannot decide."""


class EmptyV(DomainError):
    """Stability is undefined for data with a zero-dimensional V."""


class NotStable(DomainError):
    pass


class NotFuchsian(DomainError):
    pass


class Exceptional(DomainError):
    """The pair is equivalent to a one-dimensional constant system, for
    which the dual vanishes."""


class PoleMismatch(DomainError):
    """A convolution parameter has a pole outside the allowed point set."""


class NonzeroConstantTerm(DomainError):
    """A convolution parameter carries a constant term; callers must
    pre-translate the coordinate instead."""


class NoNormalForm(DomainError):
    """A leading coefficient encountered during reduction is not
    semisimple, so the splitting procedure cannot continue."""


class InconsistentRank(DomainError):
    pass


class NotInD0(DomainError):
    """The pair has a constant term or a nonzero residue at infinity."""


class Reducible(DomainError):
    pass


class ZeroLambda(DomainError):
    """A reduction step degenerated: the convolution weight vanished and
    the intermediate pair is exceptional."""


class NotRigid(DomainError):
    """A reduction step failed to decrease the rank and the rigidity
    index is nonzero."""

    def __init__(self, message, index=None, steps=()):
        super().__init__(message)
        self.index = index
        self.steps = tuple(steps)


class ParseError(DomainError):
    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class ValidationError(DomainError):
    pass
