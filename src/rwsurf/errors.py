"""Exception hierarchy for geometric and numerical failure modes."""

import numpy as np


class GeometryError(Exception):
    """Base class for all rwsurf errors."""


class DimensionMismatchError(GeometryError):
    """Vector/metric dimensions do not match the ambient backend."""


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


def raise_where(exc_type, bad, message: str, *values):
    """Raise ``exc_type`` when ``bad`` (one point or an array over points)
    holds anywhere, with ``message`` formatted from the real parts of each
    failing point's ``values``.  ``where`` (the mask) and ``texts`` (the
    messages, in flat order) on the exception let a caller that evaluated
    many points at once record each failure and go on with the rest."""
    bad = np.asarray(bad, dtype=bool)
    if not bad.any():
        return
    cols = [np.broadcast_to(np.real(v), bad.shape)[bad] for v in values]
    texts = [message.format(*(c[k] for c in cols)) for k in range(bad.sum())]
    exc = exc_type(texts[0])
    exc.where, exc.texts = bad, texts
    raise exc
