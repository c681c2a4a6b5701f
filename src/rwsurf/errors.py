"""Exception hierarchy for geometric and numerical failure modes."""

from . import _exports

__all__ = _exports(__name__)


class GeometryError(Exception):
    """Base class for all rwsurf errors."""


class DimensionMismatchError(GeometryError):
    """Vector/metric dimensions do not match the ambient space."""


class DegenerateFrameError(GeometryError):
    """An orthonormalization candidate is null or linearly dependent."""


class HorizontalSliceError(DegenerateFrameError):
    """The tangential part of the comoving field vanishes (horizontal slice)."""


class MinimalDirectionError(DegenerateFrameError):
    """The mean curvature vector is too small to define a unit direction."""


class NotSpaceLikeError(GeometryError):
    """Induced metric is not positive definite at the evaluation point."""


class SingularWarpError(GeometryError):
    """The warping function vanishes where it must not."""


class ChartDomainError(GeometryError):
    """Evaluation requested outside a chart or dense-output interval."""


class AdmissibilityError(GeometryError):
    """Initial conditions violate a solver admissibility requirement."""


class ConstraintError(GeometryError):
    """A constants constraint is violated; the message names the equation."""


class InapplicableError(GeometryError):
    """The requested check does not apply to the given configuration."""
