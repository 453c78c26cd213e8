"""Hand-derived oracles used to freeze expected values.

Everything here is computed by routes independent of the package: closed
forms from the tangency/support algebra, 1-D parameter identities, and
brute-force scans. Tests compare package output against these, never the
other way around.
"""

import numpy as np
from scipy.optimize import linprog, minimize_scalar


def ball_graze(radius, apex_dist):
    """Contact circle of the cone over a centered ball from an on-axis apex.

    Similar triangles: the contact plane sits at r^2/d along the axis and the
    circle radius is r sqrt(1 - (r/d)^2).
    """
    h = radius * radius / apex_dist
    rho = radius * np.sqrt(1.0 - (radius / apex_dist) ** 2)
    return h, rho


def ball_cone_midcircle(radius, apex_dist):
    """Intersection of the two cones over a centered ball from +-d e.

    Half-angle alpha has tan(alpha) = r / sqrt(d^2 - r^2); the central-plane
    circle radius is d tan(alpha).
    """
    return apex_dist * radius / np.sqrt(apex_dist ** 2 - radius ** 2)


def harmonic_parameter(ta, tb, to):
    """Harmonic conjugate on a parametrized line: [a,b;o,q] = -1.

    Affine route through real parameters; returns None for the point at
    infinity (o at the midpoint of [a, b]).
    """
    den = 2.0 * to - ta - tb
    if abs(den) < 1e-14:
        return None
    return (to * (ta + tb) - 2.0 * ta * tb) / den


def real_cross_ratio(a, b, c, d):
    """[a,b;c,d] for real line parameters."""
    return ((a - c) * (b - d)) / ((b - c) * (a - d))


def lp_norm(x, p):
    return float(np.sum(np.abs(np.asarray(x, dtype=float)) ** p) ** (1.0 / p))


def lp_support(u, p):
    """Support function of the unit lp ball: the dual lq norm."""
    q = p / (p - 1.0)
    return lp_norm(u, q)


def lp_support_point(u, p):
    """argmax of <x,u> over the unit lp ball: x_i ~ sign(u_i)|u_i|^(1/(p-1))."""
    u = np.asarray(u, dtype=float)
    v = np.sign(u) * np.abs(u) ** (1.0 / (p - 1.0))
    return v / lp_norm(v, p)


def lp_boundary_on_ray(d, p):
    return np.asarray(d, dtype=float) / lp_norm(d, p)


def lp_graze_axis_height(p, apex_dist):
    """On-axis apex (d,0,...,0) over the unit lp ball.

    Tangency <x - a, nu(x)> = 0 with nu ~ sign(x)|x|^(p-1) reduces to
    d x1^(p-1) = ||x||_p^p = 1, so the graze is planar at x1 = d^(-1/(p-1)).
    """
    return apex_dist ** (-1.0 / (p - 1.0))


def polytope_gauge_lp(vertices, x):
    """Gauge of conv(V) about the vertex mean c, by linear programming:
    min sum(mu) subject to (V - c)^T mu = x - c, mu >= 0."""
    v = np.asarray(vertices, dtype=float)
    c = v.mean(axis=0)
    res = linprog(np.ones(len(v)), A_eq=(v - c).T,
                  b_eq=np.asarray(x, dtype=float) - c,
                  bounds=[(0.0, None)] * len(v), method="highs")
    assert res.success, res.message
    return float(res.fun)


def ellipsoid_support(center, shape, u):
    """h(u) = <c,u> + sqrt(u^T Q^{-1} u) for {c + x : x^T Q x <= 1}."""
    u = np.asarray(u, dtype=float)
    return float(center @ u + np.sqrt(u @ np.linalg.solve(shape, u)))


def ellipsoid_section_center(center, shape, normal, offset):
    """Center of the section by {<n,x> = offset}: c + t Q^{-1} n with t from
    the plane equation (gradient parallel to n inside the plane)."""
    normal = np.asarray(normal, dtype=float)
    w = np.linalg.solve(shape, normal)
    t = (offset - float(normal @ center)) / float(normal @ w)
    return np.asarray(center, dtype=float) + t * w


def fit_plane_rms(points):
    """Independent plane fit: SVD of the centered cloud.

    Returns (normal, offset, rms / cloud diameter); the diameter is the max
    pairwise distance, computed directly.
    """
    pts = np.asarray(points, dtype=float)
    mu = pts.mean(axis=0)
    _, s, vt = np.linalg.svd(pts - mu, full_matrices=False)
    normal = vt[-1]
    rms = float(s[-1] / np.sqrt(len(pts)))
    gram = pts @ pts.T
    sq = np.diag(gram)
    diam = float(np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2 * gram, 0.0).max()))
    return normal, float(normal @ mu), rms / diam


def circle_residual(points, center, radius):
    """max | ||x - c|| - rho | over the cloud."""
    pts = np.asarray(points, dtype=float)
    return float(np.abs(np.linalg.norm(pts - np.asarray(center), axis=1)
                        - radius).max())


def birkhoff_min_ratio_lp(x, y, p, span=8.0):
    """min_t ||x + t y||_p / ||x||_p; Birkhoff normality iff the min is at 0."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    f = lambda t: lp_norm(x + t * y, p)
    r = minimize_scalar(f, bounds=(-span, span), method="bounded",
                        options={"xatol": 1e-12})
    return float(r.fun / lp_norm(x, p))


def line_min_gauge_scalar(body, p, d):
    """Gauge minimum along the line p + t d, one line at a time, by bounded
    scalar minimisation over [-span, span] in unit steps, span = |p - c| +
    radius_bound() (the whole chord for a line through or near the body).
    Returns (t in units of d, g)."""
    p, d = np.asarray(p, dtype=float), np.asarray(d, dtype=float)
    unit = d / np.linalg.norm(d)
    span = float(np.linalg.norm(p - body.center)) + body.radius_bound()
    r = minimize_scalar(lambda t: body.gauge(p + t * unit), bounds=(-span, span),
                        method="bounded", options={"xatol": 1e-12 * (1.0 + span)})
    return float(r.x) / float(np.linalg.norm(d)), float(r.fun)


def reflection_residual_one(sec, center2, k=48):
    """Worst gap between the reflection of one section's boundary samples
    through center2 and the section boundary along matched rays, one
    boundary2 call per direction set: the one-section form that
    theorems._reflection_residual over a list of sections must equal."""
    center2 = np.asarray(center2, dtype=float)
    th = np.linspace(0.0, np.pi, k, endpoint=False)
    u = np.column_stack([np.cos(th), np.sin(th)])
    gap = sec.boundary2(-u, base2=center2) - (2.0 * center2
                                              - sec.boundary2(u, base2=center2))
    return float(np.sqrt(np.vecdot(gap, gap)).max())


def birkhoff_min_ratio_l1(x, y):
    """min_t ||x + t y||_1 / ||x||_1, exactly: the sum of |x_i + t y_i| is
    convex and piecewise linear, so its minimum sits at a kink t = -x_i / y_i."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    kinks = [-xi / yi for xi, yi in zip(x, y) if yi != 0.0]
    return min(float(np.abs(x + t * y).sum()) for t in kinks) / float(np.abs(x).sum())


def lp_plane_conjugate(x_dir, p):
    """The conjugate-diameter direction for the lp disk: the boundary point
    where the supporting line is parallel to x (support point of rot90 x)."""
    x_dir = np.asarray(x_dir, dtype=float)
    n = np.array([-x_dir[1], x_dir[0]])
    return lp_support_point(n, p)


def lp_asymmetry_scan(p, k=720):
    """alpha-scan of Birkhoff asymmetry over lp-disk diameters.

    For each direction x(theta), the conjugate candidate y is the support
    point against rot90(x); asymmetry = max(1 - min_ratio(x, y),
    1 - min_ratio(y, x)). Returns (worst asymmetry, worst direction angle).
    """
    worst, worst_th = -1.0, 0.0
    for th in np.linspace(0.0, np.pi, k, endpoint=False):
        d = np.array([np.cos(th), np.sin(th)])
        x = lp_boundary_on_ray(d, p)
        y = lp_plane_conjugate(x, p)
        a = max(1.0 - birkhoff_min_ratio_lp(x, y, p),
                1.0 - birkhoff_min_ratio_lp(y, x, p))
        if a > worst:
            worst, worst_th = a, th
    return worst, worst_th
