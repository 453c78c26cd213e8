"""Exception taxonomy shared across the library.

Every operational failure mode raises a subclass of GeometryError so callers
can distinguish geometric preconditions from programming errors.
"""


class GeometryError(Exception):
    """Base class for geometric precondition and degeneracy failures."""


class UnsupportedDimension(GeometryError):
    """The operation is not defined in the dimension of its input."""


# geom-core
class NonCollinear(GeometryError):
    """Points handed to a cross-ratio style operation are not collinear."""


class DegenerateQuadruple(GeometryError):
    """A coincidence among the four points makes the cross ratio 0/0 or unbounded."""


class DegenerateCloud(GeometryError):
    """Point cloud has too few points or too little rank for the requested fit."""


class NotCoplanar(GeometryError):
    """Points are not within tolerance of the supplied plane."""


# bodies
class LineMissesBody(GeometryError):
    """The line never enters the interior of the body."""


class RayBaseNotInterior(GeometryError, ValueError):
    """A ray exit starts from a base point outside the body's interior.

    Also a ValueError, which the ray exits raised for it before."""


class BodySpecError(ValueError):
    """Malformed body spec text; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


# cones
class ApexInsideBody(GeometryError):
    """Support-cone apex lies inside (or on) the body."""


class NonSmoothBody(GeometryError):
    """Operation needs a smooth boundary; the body kind has none."""


class NonFiniteInput(GeometryError):
    """A point or direction has a NaN or infinite coordinate."""


class ZeroDirection(GeometryError):
    """A direction is the zero vector, so it points nowhere."""


class CoincidentApexes(GeometryError):
    """The two cone apexes coincide."""


class DegenerateCone(GeometryError):
    """Cone has empty interior or admits no bounded section."""


# planar
class PlaneMissesBody(GeometryError):
    """Plane does not meet the interior of the body."""


class EndpointNotOnBoundary(GeometryError):
    """Chord endpoint fails the boundary residual gate."""


class NoSignChange(GeometryError):
    """A root bracket found no sign change within its search range."""


class NotANorm(GeometryError):
    """Section is not origin-symmetric within gate, so it induces no norm."""


# theorems
class PointOnBoundary(GeometryError):
    """Pole candidate sits on the boundary, where the polar degenerates."""


class DegenerateLines(GeometryError):
    """Sampled chord lines do not determine a unique polar hyperplane."""


class BodiesNotNested(GeometryError):
    """Inner body is not strictly contained in the interior of the outer one."""


class NotOSymmetric(GeometryError):
    """Body fails the central-symmetry gate required by the check."""


class BallTooLarge(GeometryError):
    """Ball radius violates the strict-containment precondition."""
