"""Exception hierarchy shared across the package, and the integer check
that every config object applies to its counts."""

import sys
from numbers import Integral


class RmgError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(RmgError):
    """Array dimensions disagree with the manifold layout."""


class NotTangent(RmgError):
    """A claimed tangent vector violates the tangency constraints."""


class AntipodalPoints(RmgError):
    """No unique minimizing geodesic between (near-)antipodal points."""


class DomainError(RmgError):
    """A scalar argument lies outside its valid range."""


class InvalidConfig(RmgError):
    """A configuration object or file violates its invariants."""


def require_int(name: str, value, minimum: int) -> None:
    """Raise InvalidConfig naming ``name`` unless ``value`` is an integer of at
    least ``minimum`` and at most ``sys.maxsize // 8``, the most entries a
    float64 array can hold; NaN, 2.5 and booleans are not integers."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < minimum:
        raise InvalidConfig(f"{name} must be an integer >= {minimum}, got {value!r}")
    if value > sys.maxsize // 8:
        raise InvalidConfig(f"{name} {value} is more than any array can hold")


class ZeroQuaternion(RmgError):
    """A quaternion with (near-)zero norm cannot be normalized."""


class DegenerateConfiguration(RmgError):
    """A landmark configuration collapses to a single point."""


class SkeletonMismatch(RmgError):
    """A frame or sequence does not match the skeleton's joint count."""


class ConfigLacksRotations(RmgError):
    """A motion frame was requested from a rotation-free representation."""


class SequenceTooShort(RmgError):
    """The operation needs more frames than the sequence holds."""


class StepOutOfRange(RmgError):
    """A schedule was queried beyond its total step count."""


class ShapeMismatch(RmgError):
    """Optimizer / EMA state does not match the parameter count."""


class ChecksumMismatch(RmgError):
    """Stored data does not match the sha256 digest recorded with it."""


class UnknownConditionClass(RmgError):
    """A condition index is outside the embedding table."""


class NonFiniteLoss(RmgError):
    """Training produced a NaN or infinite loss or gradient norm."""

    def __init__(self, step: int):
        super().__init__(f"non-finite loss at step {step}")
        self.step = step


class EmptyBatch(RmgError):
    """An estimator received an empty sample batch."""
