"""Affine/projective primitives: homogeneous points, flats, maps, cross ratios.

Points at infinity are first class via homogeneous coordinates (the extra
coordinate is kept last; w=1 for affine points, w=0 at infinity), so the
harmonic-conjugate and pole/polar machinery never special-cases the centre.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateQuadruple, NonCollinear, NonFiniteInput
from .numeric import _value, normalize

_PROP_TOL = 1e-12


class HPoint:
    """Projective point with homogeneous coordinates (x_1..x_n, w)."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        c = np.asarray(coords, dtype=float).copy()
        if c.ndim != 1 or c.shape[0] < 2:
            raise ValueError("HPoint needs at least 2 homogeneous coordinates")
        if not np.any(c != 0.0):
            raise ValueError("all homogeneous coordinates are zero")
        self.coords = c
        self.coords.flags.writeable = False

    @classmethod
    def from_affine(cls, x):
        x = np.asarray(x, dtype=float)
        return cls(np.append(x, 1.0))

    @classmethod
    def at_infinity(cls, direction):
        d = np.asarray(direction, dtype=float)
        return cls(np.append(d, 0.0))

    @property
    def dim(self):
        return self.coords.shape[0] - 1

    @property
    def w(self):
        return float(self.coords[-1])

    def unit(self):
        return self.coords / np.linalg.norm(self.coords)

    def is_infinite(self, tol=_PROP_TOL):
        return abs(self.coords[-1]) <= tol * np.linalg.norm(self.coords)

    def affine(self):
        if self.is_infinite():
            raise ValueError("point at infinity has no affine coordinates")
        return self.coords[:-1] / self.coords[-1]

    def proportional_to(self, other, tol=_PROP_TOL):
        a, b = self.coords, other.coords
        if a.shape != b.shape:
            return False
        cross = np.abs(np.outer(a, b) - np.outer(b, a)).max()
        return cross <= tol * np.linalg.norm(a) * np.linalg.norm(b)

    def __eq__(self, other):
        return isinstance(other, HPoint) and self.proportional_to(other)

    def __hash__(self):  # proportional equality is not hashable; forbid use
        raise TypeError("HPoint is not hashable")

    def __repr__(self):
        return "HPoint(%s)" % np.array2string(self.coords, separator=", ")


def as_hpoint(p):
    """Promote an affine vector to HPoint; pass HPoints through."""
    if isinstance(p, HPoint):
        return p
    return HPoint.from_affine(p)


@dataclass(frozen=True)
class Line:
    """Affine line given by a point and a unit direction."""

    point: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        point = np.asarray(self.point, dtype=float)
        direction = np.asarray(self.direction, dtype=float)
        if not (np.isfinite(point).all() and np.isfinite(direction).all()):
            raise NonFiniteInput("line point %s or direction %s is not finite"
                                 % (point.tolist(), direction.tolist()))
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "direction", normalize(direction))

    def at(self, t):
        return self.point + t * self.direction


@dataclass(frozen=True)
class Hyperplane:
    """Affine hyperplane {x : <normal, x> = offset} with unit normal."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        offset = float(self.offset)
        if not (np.all(np.isfinite(n)) and np.isfinite(offset)):
            raise NonFiniteInput("hyperplane normal %s or offset %r is not "
                                 "finite" % (n.tolist(), offset))
        if abs(np.linalg.norm(n) - 1.0) > 1e-12:
            raise ValueError("hyperplane normal must be a unit vector")
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "offset", offset)

    @classmethod
    def from_point_normal(cls, point, normal):
        n = normalize(normal)
        return cls(n, float(np.dot(n, np.asarray(point, dtype=float))))

    @property
    def is_infinite(self):
        return False

    def signed_distance(self, x):
        """<normal, x> - offset for one point, or for each of (..., n) rows."""
        return _value(np.vecdot(self.normal, np.asarray(x, dtype=float)) - self.offset)

    def contains(self, x, tol=1e-9):
        return abs(self.signed_distance(x)) <= tol

    def intersect_line(self, line):
        """Meet with an affine line; HPoint at infinity when parallel."""
        denom = float(np.dot(self.normal, line.direction))
        num = self.offset - float(np.dot(self.normal, line.point))
        if abs(denom) <= 1e-14 * (1.0 + abs(num)):
            return HPoint.at_infinity(line.direction)
        return HPoint.from_affine(line.at(num / denom))


class InfinityHyperplane:
    """Singleton stand-in for the hyperplane at infinity (polar of a centre)."""

    is_infinite = True

    def intersect_line(self, line):
        return HPoint.at_infinity(line.direction)

    def __repr__(self):
        return "Hyperplane(at infinity)"


INFINITY_HYPERPLANE = InfinityHyperplane()


def _check_invertible(m):
    s = np.linalg.svd(m, compute_uv=False)
    scale = s[0]
    det = float(np.prod(s))  # |det| via singular values
    if det <= 1e-12 * scale ** m.shape[0]:
        raise ValueError("matrix is numerically singular")


class ProjectiveMap:
    """Invertible (n+1)x(n+1) matrix acting on homogeneous coordinates."""

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float).copy()
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
            raise ValueError("projective map needs a square (n+1) matrix")
        _check_invertible(m)
        self.matrix = m

    def apply(self, p):
        p = as_hpoint(p)
        return HPoint(self.matrix @ p.coords)


def _project_to_line(points):
    """Normalize homogeneous rows, check projective collinearity, return 2-D coords."""
    rows = np.stack([p.unit() for p in points])
    u, s, vt = np.linalg.svd(rows, full_matrices=False)
    resid = s[2] / s[0] if len(s) > 2 else 0.0
    if resid > 1e-9:
        raise NonCollinear("collinearity residual %.3e exceeds 1e-9" % resid)
    return rows @ vt[:2].T


def cross_ratio(a, b, c, d):
    """Projective cross ratio [a, b; c, d] of four collinear points.

    Computed from 2x2 determinants in an orthonormal chart of the projective
    line, so points at infinity need no special handling. Value -1 signals a
    harmonic quadruple.
    """
    pts = [as_hpoint(p) for p in (a, b, c, d)]
    q = _project_to_line(pts)
    d_ac = q[0, 0] * q[2, 1] - q[0, 1] * q[2, 0]
    d_bd = q[1, 0] * q[3, 1] - q[1, 1] * q[3, 0]
    d_bc = q[1, 0] * q[2, 1] - q[1, 1] * q[2, 0]
    d_ad = q[0, 0] * q[3, 1] - q[0, 1] * q[3, 0]
    num = d_ac * d_bd
    den = d_bc * d_ad
    if abs(den) < 1e-15:
        if abs(num) < 1e-15:
            raise DegenerateQuadruple("cross ratio is 0/0 for this quadruple")
        raise DegenerateQuadruple("cross ratio is unbounded for this quadruple")
    return float(num / den)


def harmonic_conjugate(a, b, o):
    """The point p with cross_ratio(a, b, o, p) = -1.

    May be the point at infinity (o the midpoint of [a, b]). Writes o in the
    homogeneous basis {a, b} and flips the sign of the b-component.
    """
    pa, pb, po = as_hpoint(a), as_hpoint(b), as_hpoint(o)
    q = _project_to_line([pa, pb, po, po])
    m = q[:2].T  # 2x2: columns are the chart images of a and b
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if abs(det) < 1e-14:
        raise DegenerateQuadruple("a and b coincide projectively")
    alpha, beta = np.linalg.solve(m, q[2])
    coords = alpha * pa.unit() - beta * pb.unit()
    if np.linalg.norm(coords) < 1e-13:
        raise DegenerateQuadruple("o coincides with a or b")
    return HPoint(coords)


def fit_hyperplane_projective(rows, spatial_scale=1.0):
    """Least-squares projective hyperplane through (m, n+1) homogeneous rows.

    Spatial coordinates are pre-divided by spatial_scale for conditioning.
    Returns (hyperplane_or_infinity, max_incidence_residual, rank_gap) where
    the residual is |c . p| over unit-normalized rows and coefficients.
    """
    m = np.array(rows, dtype=float)
    m[:, :-1] /= spatial_scale
    m /= np.sqrt(np.vecdot(m, m))[:, None]
    _, s, vt = np.linalg.svd(m, full_matrices=False)
    n1 = m.shape[1]  # n+1
    rank_gap = s[n1 - 2] / s[0] if len(s) >= n1 - 1 else 0.0
    coeff = vt[-1]
    resid = float(np.abs(m @ coeff).max())
    c_s, c_w = coeff[:-1], coeff[-1]
    if np.linalg.norm(c_s) <= 1e-9 * abs(c_w):
        return INFINITY_HYPERPLANE, resid, rank_gap
    normal = c_s / spatial_scale
    scale = np.linalg.norm(normal)
    normal = normal / scale
    offset = -c_w / scale
    k = int(np.argmax(np.abs(normal)))
    if normal[k] < 0:  # deterministic orientation
        normal, offset = -normal, -offset
    return Hyperplane(normal, offset), resid, rank_gap
