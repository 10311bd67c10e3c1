"""Exception hierarchy.

ParameterError covers rejected inputs (CLI exit code 2), NumericError covers
failures arising during computation (CLI exit code 3).  BreakPoint is special:
it carries the two one-sided slopes at a kink, so callers can recover without
re-deriving them.
"""


class WavetrapError(Exception):
    pass


class ParameterError(WavetrapError):
    pass


class ParameterOrder(ParameterError):
    """Slopes out of order: need 0 < tan_alpha < tan_theta."""


class NonPositive(ParameterError):
    """A length or slope that must be positive is not."""


class ExtraConditionViolated(ParameterError):
    """tan_theta < 2*ell + tan_alpha, so the decrease break leaves (-1/2, 0].

    The return map itself is unaffected; pass require_extra=False to get it.
    """


class InvalidTable(ParameterError):
    pass


class InvalidFamily(ParameterError):
    pass


class BracketInvalid(ParameterError):
    pass


class NotMonotone(ParameterError):
    """Probe signs contradict the family's declared monotone orientation."""


class UnsupportedPair(ParameterError):
    pass


class DegenerateM(ParameterError):
    """m outside [1/2, 1), or an operation that needs m strictly above 1/2."""


class NegativeS(ParameterError):
    """Direction parameter s < 0; the surface correspondence is restricted to s >= 0."""


class NumericError(WavetrapError):
    pass


class BitSizeExceeded(NumericError):
    """Exact rationals grew past the configured bit budget."""


class Tangency(NumericError):
    """Trajectory slope too close to a boundary slope to intersect reliably."""


class NonTransversal(NumericError):
    """tan_theta does not exceed the steepest boundary slope."""


class InvariantViolation(NumericError):
    """An exact identity the algorithm guarantees failed; signals a bug."""


class ConjugacyFailed(NumericError):
    """The exact conjugacy identity failed; signals a bug, not bad data."""


class ParityViolation(NumericError):
    """The even/odd dichotomy for the period failed; signals a bug."""


class MonotoneViolation(NumericError):
    """A family sweep produced rotation numbers out of monotone order."""


class NotRotationNumber(NumericError):
    """fixed_set called with a (p, q) that is not the rotation number."""


class NotReducedError(NumericError):
    """Raised only on request when direction reduction gives up."""


class BreakPoint(WavetrapError):
    """Derivative queried exactly at a kink; one-sided slopes attached."""

    def __init__(self, x, left, right):
        super().__init__(f"derivative has a break at {x}: left {left}, right {right}")
        self.x = x
        self.left = left
        self.right = right
