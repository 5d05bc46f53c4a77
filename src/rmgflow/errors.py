"""Exception hierarchy shared across the package."""


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
    """A configuration object violates its invariants."""


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


class TimeTooCloseToOne(RmgError):
    """Flow time too close to 1; the target velocity would blow up."""


class BaseMismatch(RmgError):
    """Two tangent vectors do not share a base point."""


class StepOutOfRange(RmgError):
    """A schedule was queried beyond its total step count."""


class ShapeMismatch(RmgError):
    """Optimizer / EMA state does not match the parameter count."""


class ChecksumMismatch(RmgError):
    """Stored data does not match the sha256 digest recorded with it."""


class UnknownConditionClass(RmgError):
    """A condition index is outside the embedding table."""


class NonFiniteLoss(RmgError):
    """Training produced a NaN or infinite loss."""

    def __init__(self, step: int):
        super().__init__(f"non-finite loss at step {step}")
        self.step = step


class EmptyBatch(RmgError):
    """An estimator received an empty sample batch."""


class ConfigError(RmgError):
    """A command configuration file failed validation."""
