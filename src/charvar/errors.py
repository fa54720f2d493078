"""Exception types shared across the package."""


class CharVarError(Exception):
    """Base class for all errors raised by this package."""


class SingularMatrix(CharVarError):
    """2x2 inverse requested for a matrix with near-zero determinant."""


class TraceMismatch(CharVarError):
    """Quadruple members do not share a common trace."""


class ConstraintViolated(CharVarError):
    """Input data violates a defining polynomial constraint."""


class FactorizationFailure(CharVarError):
    """Gram factor M with M^T M = S misses S beyond rounding (non-finite S)."""


class DegenerateCharacter(CharVarError):
    """The realization misses its target: the realized quadruple's trace
    vector is off the requested one beyond tolerance."""


class ExcludedParameter(CharVarError):
    """t is excluded, too near an excluded value, or overflows the sampler."""


class UnknownComponent(CharVarError, ValueError):
    """A component id that is not one of the ten catalog components."""
