"""Correctness oracles for benchmark ops, independent of the library's oracles.

Every check here recomputes the expected geometry from the body parameters
with closed forms (ellipsoid quadrics, l_p norms) or from an H-representation
built with Qhull. None of it calls a body's support/gauge/normal methods, so
a checker never adds to the traced oracle counts and never trusts the code it
is checking. Each checker returns None when the op is correct and a short
message otherwise.
"""

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.spatial import ConvexHull

from ellipsoid_forge.bodies import AffineImage, Ellipsoid, PBall, Polytope
from ellipsoid_forge.theorems import DEFAULT_TOLERANCES

GRAZE_TOL = 1e-10       # polar-plane / shadow-plane identities on ellipsoids
GAUGE_TOL = 1e-10       # |gauge - 1| of l_p curve samples
POLYTOPE_TOL = 1e-9     # |H-gauge - 1| of polytope boundary points
CONE_TOL = 1e-8         # cone-membership identity of cone-intersection points
PLANE_TOL = 1e-10       # polar hyperplane coefficients against the closed form
CENTER_TOL = 1e-7       # section symmetry centres against the closed form
TANGENCY_TOL = DEFAULT_TOLERANCES["tangency"]
# the least gauge along a near-tangent segment is quadratic in the angular
# error, so the 1-D minimiser's tolerance, not tangency, limits this check
CONE_GAUGE_TOL = 1e-9


class Quadric:
    """{x : (x-c)^T Q (x-c) <= 1}: an ellipsoid or an affine image of one."""

    def __init__(self, c, q):
        self.center = np.asarray(c, dtype=float)
        self.q = np.asarray(q, dtype=float)

    def gauge(self, x):
        v = np.asarray(x, dtype=float) - self.center
        return float(np.sqrt(v @ self.q @ v))


class LpBody:
    """A PBall, optionally pushed forward by x -> A x + b."""

    def __init__(self, p, axes, a=None, b=None):
        self.p = float(p)
        self.axes = np.asarray(axes, dtype=float)
        n = self.axes.shape[0]
        a = np.eye(n) if a is None else np.asarray(a, dtype=float)
        self.center = np.zeros(n) if b is None else np.asarray(b, dtype=float)
        self.ainv = np.linalg.inv(a)

    def gauge(self, x):
        y = self.ainv @ (np.asarray(x, dtype=float) - self.center) / self.axes
        return float(np.sum(np.abs(y) ** self.p) ** (1.0 / self.p))

    def normal(self, x):
        y = self.ainv @ (np.asarray(x, dtype=float) - self.center) / self.axes
        g = np.sign(y) * np.abs(y) ** (self.p - 1.0) / self.axes
        g = self.ainv.T @ g
        return g / np.linalg.norm(g)


class HRep:
    """Facet inequalities A (x - c) <= b of a polytope, from Qhull."""

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        self.center = v.mean(axis=0)
        eq = ConvexHull(v).equations  # rows [a, d] with a.x + d <= 0 inside
        self.a = eq[:, :-1]
        self.b = -eq[:, -1] - self.a @ self.center

    def gauge(self, x):
        return float(np.max(self.a @ (np.asarray(x, dtype=float) - self.center) / self.b))


def model_of(body):
    """Independent model of a library body, from its parameters only."""
    if isinstance(body, Ellipsoid):
        return Quadric(body.center, body.shape_matrix)
    if isinstance(body, PBall):
        return LpBody(body.exponent, body.semi_axes)
    if isinstance(body, Polytope):
        return HRep(body.vertices)
    if isinstance(body, AffineImage):
        inner = body.inner
        a, b = body.matrix, body.offset
        ainv = np.linalg.inv(a)
        if isinstance(inner, Ellipsoid):
            return Quadric(a @ inner.center + b, ainv.T @ inner.shape_matrix @ ainv)
        if isinstance(inner, PBall):
            return LpBody(inner.exponent, inner.semi_axes, a, b)
    raise TypeError("no independent model for %r" % body.kind)


def _worst(values):
    return float(np.max(values)) if len(values) else 0.0


def check_graze(model, apex, curve):
    pts = curve.points
    if isinstance(model, Quadric):
        w = model.q @ (np.asarray(apex) - model.center)
        polar = _worst([abs(float((x - model.center) @ w) - 1.0) for x in pts])
        if polar > GRAZE_TOL:
            return "graze off the polar plane by %.3e" % polar
        return None
    gauge = _worst([abs(model.gauge(x) - 1.0) for x in pts])
    if gauge > GAUGE_TOL:
        return "graze gauge off 1 by %.3e" % gauge
    tan = _worst([abs(float((apex - x) @ model.normal(x))) / np.linalg.norm(apex - x)
                  for x in pts])
    if tan > TANGENCY_TOL:
        return "graze tangency residual %.3e" % tan
    return None


def check_shadow(model, direction, curve):
    u = np.asarray(direction, dtype=float)
    u = u / np.linalg.norm(u)
    pts = curve.points
    if isinstance(model, Quadric):
        bad = _worst([abs(float(u @ model.q @ (x - model.center)))
                      / np.linalg.norm(model.q @ (x - model.center)) for x in pts])
        if bad > GRAZE_TOL:
            return "shadow boundary off u^T Q (x-c) = 0 by %.3e" % bad
        return None
    gauge = _worst([abs(model.gauge(x) - 1.0) for x in pts])
    if gauge > GAUGE_TOL:
        return "shadow gauge off 1 by %.3e" % gauge
    tan = _worst([abs(float(u @ model.normal(x))) for x in pts])
    if tan > TANGENCY_TOL:
        return "shadow tangency residual %.3e" % tan
    return None


def _on_quadric_cone(model, apex, q):
    # q on the tangent cone from apex: (d^T Q w)^2 = (d^T Q d)(w^T Q w - 1)
    # with d = q - apex and w = apex - c
    d = q - apex
    w = apex - model.center
    lhs = float(d @ model.q @ w) ** 2
    rhs = float(d @ model.q @ d) * (float(w @ model.q @ w) - 1.0)
    return abs(lhs - rhs) / max(lhs, rhs)


def _min_gauge_on_ray(model, apex, q):
    # the gauge is convex along the ray, and the tangent point lies within
    # a few lengths of |q - apex| for the apex distances the workloads use
    d = q - apex
    r = minimize_scalar(lambda t: model.gauge(apex + t * d), bounds=(0.0, 4.0),
                        method="bounded", options={"xatol": 1e-13})
    return float(r.fun)


def check_cone_intersection(model, x, y, curve, probes=8):
    pts = curve.points
    if isinstance(model, Quadric):
        bad = _worst([max(_on_quadric_cone(model, x, q), _on_quadric_cone(model, y, q))
                      for q in pts])
        if bad > CONE_TOL:
            return "cone-intersection point off a support cone by %.3e" % bad
        return None
    # l_p body: the segment from each apex to a sampled point must graze the
    # boundary, so the least gauge along it is 1
    idx = np.linspace(0, len(pts) - 1, probes).astype(int)
    bad = _worst([abs(_min_gauge_on_ray(model, apex, pts[i]) - 1.0)
                  for i in idx for apex in (x, y)])
    if bad > CONE_GAUGE_TOL:
        return "cone-intersection ray misses tangency: |min gauge - 1| = %.3e" % bad
    return None


def check_boundary_points(model, points):
    bad = _worst([abs(model.gauge(p) - 1.0) for p in points])
    if bad > POLYTOPE_TOL:
        return "boundary point gauge off 1 by %.3e" % bad
    return None


def polar_plane(model, o):
    """Closed-form polar of o for a quadric: normal and offset, unit normal."""
    w = model.q @ (np.asarray(o, dtype=float) - model.center)
    off = 1.0 + float(model.center @ w)
    nrm = float(np.linalg.norm(w))
    return w / nrm, off / nrm


def check_polar(result, expected, plane=None):
    if result.classification != expected:
        return "polar classification %r, expected %r" % (result.classification,
                                                          expected)
    if plane is None:
        return None
    want_n, want_d = plane
    got = result.polar
    sgn = 1.0 if float(got.normal @ want_n) >= 0.0 else -1.0
    err = max(float(np.linalg.norm(sgn * got.normal - want_n)),
              abs(sgn * got.offset - want_d))
    if err > PLANE_TOL:
        return "polar plane off the closed form by %.3e" % err
    return None


def ellipse_section_center(model, normal, offset):
    """Centre of the section {n.x = d} of a quadric (closed form)."""
    qinv = np.linalg.inv(model.q)
    s = qinv @ normal
    return model.center + (offset - float(normal @ model.center)) * s / float(normal @ s)


def check_report(report, expected):
    if report.verdict == "conclusion-violated":
        return "verdict conclusion-violated"
    if report.verdict != expected:
        return "verdict %s, expected %s" % (report.verdict, expected)
    return None
