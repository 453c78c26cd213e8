"""Hand-derived oracles used to freeze expected values.

Everything here is computed by routes independent of the package: closed
forms from the tangency/support algebra, 1-D parameter identities, and
brute-force scans; or, for a package route that works on stacks of rows,
by the same steps taken one section or one curve at a time; or, for a
package route that now takes fewer solves, by the route it replaced. Tests
compare package output against these, never the other way around.
"""

import numpy as np
from scipy.optimize import linprog, minimize_scalar
from scipy.spatial import ConvexHull

from ellipsoid_forge import Line, graze
from ellipsoid_forge.bodies import ray_exit
from ellipsoid_forge.errors import NotANorm
from ellipsoid_forge.numeric import normalize
from ellipsoid_forge.planar import (PlanarSection, RadonResult, Sections, _NORM_TOL,
                                    _Restriction,
                                    _birkhoff_normals, _birkhoff_ratio, _boundary2,
                                    _chords, _closure_defect, _closure_normals,
                                    _gauge2, _rot90, _where, central_symmetry)


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


def pball_oracles_by_norm(body, u, x):
    """PBall's support(u), support_point(u) and gauge(x) by the
    np.linalg.norm formula, the one the oracles used before they ran its
    ufuncs directly: each row's norm, its support point and its gauge, a
    0-d norm for one point."""
    a, p = body.semi_axes, body.exponent
    q = p / (p - 1.0)
    w = a * np.asarray(u, dtype=float)
    nq = np.linalg.norm(w, ord=q, axis=-1)
    y = np.abs(w / (nq[..., None] if nq.ndim else nq)) ** (q - 1.0)
    g = np.linalg.norm(np.asarray(x, dtype=float) / a, ord=p, axis=-1)
    return nq, a * np.sign(w) * y, g


def ellipsoid_oracles_by_vecmat(body, u, x, z, d):
    """Ellipsoid's support(u), gauge(x) and boundary_point(z, d) by the
    np.vecmat formulas, the ones the oracles used before they applied their
    matrix as x @ Q: each row's support, gauge and ray exit, 0-d or (3,) for
    one point. The stored inverse stands in for Q^-1, so only the form of the
    map differs from the oracles."""
    c, q, qinv = body.center, body.shape_matrix, body._qinv
    u, x = np.asarray(u, dtype=float), np.asarray(x, dtype=float)
    h = np.vecdot(c, u) + np.sqrt(np.vecdot(np.vecmat(u, qinv), u))
    g = np.sqrt(np.vecdot(np.vecmat(x - c, q), x - c))
    z, d = np.asarray(z, dtype=float), normalize(d)
    v = z - c
    qd = np.vecmat(d, q)
    a, b = np.vecdot(qd, d), np.vecdot(qd, v)
    c0 = np.vecdot(np.vecmat(v, q), v) - 1.0
    t = (-b + np.sqrt(b * b - a * c0)) / a
    return h, g, z + (t[..., None] if t.ndim else t) * d


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


def polytope_section_support_lp(vertices, normal, offset, w):
    """Support of the section conv(V) ∩ {<x, n> = d} in the world direction
    w, by linear programming: max <V^T lam, w> over lam >= 0, sum(lam) = 1,
    <V^T lam, n> = d."""
    v = np.asarray(vertices, dtype=float)
    res = linprog(-(v @ np.asarray(w, dtype=float)),
                  A_eq=np.vstack([np.ones(len(v)), v @ np.asarray(normal, dtype=float)]),
                  b_eq=[1.0, float(offset)], bounds=[(0.0, None)] * len(v),
                  method="highs")
    assert res.success, res.message
    return float(-res.fun)


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


def line_min_gauge_facet_pairs(vertices, p, d):
    """Gauge minimum of conv(V) about the vertex mean c along each line
    p + t d, p and d broadcast as rows, in closed form over the facets
    A (x - c) <= b: along a line the gauge is max_i (al_i + be_i t), least
    where a rising facet (be_i > 0) crosses a falling one highest, and g is
    the gauge there. Builds an (f, f) matrix of facet pairs per row, the
    route Polytope.line_min_gauge took before the polar restriction solve.
    Returns (t in units of d, g), arrays of the rows' shape."""
    v = np.asarray(vertices, dtype=float)
    eq = ConvexHull(v).equations
    c = v.mean(axis=0)
    a = eq[:, :-1]
    b = -eq[:, -1] - a @ c
    p, d = np.asarray(p, dtype=float), np.asarray(d, dtype=float)
    al = (p - c) @ a.T / b
    be = d @ a.T / b
    ai, aj = al[..., :, None], al[..., None, :]
    bi, bj = be[..., :, None], be[..., None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        level = np.where((bi > 0.0) & (bj < 0.0),
                         (ai * -bj + aj * bi) / (bi - bj), -np.inf)
        cross = (aj - ai) / (bi - bj)
    best = level == level.max(axis=(-2, -1), keepdims=True)
    t = np.where(best, cross, -np.inf).max(axis=(-2, -1))
    return t, (al + be * t[..., None]).max(axis=-1)


def stack_of(body, planes):
    """The sections of body by the planes, as one Sections stack."""
    return Sections(body, np.reshape([pl.normal for pl in planes], (-1, 3)),
                    [pl.offset for pl in planes])


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


def radon_three_solves(sec, k=128, contact_tol=1e-8, seed=0, cross_pairs=16):
    """is_radon_curve in three restriction solves, the route it replaces:
    the norm gate's central_symmetry alone; then the diameters' ends by one
    ray exit from each centre c2, their contact normals n_d from the chords
    those ends span, and one support_point2 solve over the contacts at +-n_d
    and the Birkhoff pairs' second vectors; then one support2 solve over the
    closure sides and Birkhoff normals. The reference that the two-solve
    is_radon_curve, which knows n_d = rot90(u) before the symmetry solve,
    must agree with."""
    one = isinstance(sec, PlanarSection)
    syms = central_symmetry(sec, tol=_NORM_TOL)
    syms = [syms] if one else syms
    if one and not syms[0].ok:
        raise NotANorm("section symmetry residual %.3e" % syms[0].residual)
    live = np.flatnonzero([sym.ok for sym in syms])
    if not live.size:
        return [None] * len(sec)
    rng = np.random.default_rng(seed)
    th = rng.uniform(0.0, np.pi / k) + np.pi * np.arange(k) / k
    u = np.column_stack([np.cos(th), np.sin(th)])
    p = min(k, cross_pairs)
    pairs = np.arange(p) * k // p
    secs_l = sec[live]
    c2 = np.stack([syms[i].center for i in live])[:, None]
    diam = secs_l.widths[:, None]

    d2 = np.concatenate([u, -u])
    ends = _boundary2(secs_l, np.broadcast_to(d2, (len(live),) + d2.shape), c2)
    e_plus, e_minus = ends[:, :k], ends[:, k:]
    chord, length = _chords(e_minus, e_plus, diam, _where(e_plus, secs_l))
    n_d = _rot90(chord / length[..., None])
    y_dirs = np.broadcast_to(_rot90(u[pairs]), (len(live), p, 2))
    q = _Restriction(secs_l, np.concatenate([n_d, -n_d, y_dirs], axis=1)).points()
    n_p, apart = _closure_normals(q[:, :k], q[:, k:2 * k], n_d, diam)
    xs, ys = e_plus[:, pairs] - c2, q[:, 2 * k:] - c2
    x, y = np.concatenate([xs, ys], axis=1), np.concatenate([ys, xs], axis=1)
    nx = _gauge2(secs_l, x, c2)
    n_b = _birkhoff_normals(x, y, nx, _where(x, secs_l))
    h = _Restriction(secs_l, np.concatenate([n_p, -n_p, n_b], axis=1)).values()
    defect = _closure_defect(e_minus, e_plus, n_p, apart, h[:, :k],
                             h[:, k:2 * k], diam)
    normal, ratio = _birkhoff_ratio(x, nx, n_b, h[:, 2 * k:], c2)
    asymmetry = 1.0 - np.minimum(ratio[:, :p], ratio[:, p:])

    results = [None] * len(sec)
    for j, i in enumerate(live):
        worst = int(np.argmax(defect[j]))
        conj_ok = not (defect[j] > contact_tol).any()
        norm_ok = bool(normal[j].all())
        results[i] = RadonResult(
            conj_ok and norm_ok, conj_ok, norm_ok, float(defect[j, worst]),
            u[worst], float(np.max(asymmetry[j], initial=0.0)), syms[i].center,
            detail={"k": k, "contact_tol": contact_tol,
                    "symmetry_residual": syms[i].residual})
    return results[0] if one else results


def graze_polar_agreement_per_curve(body, apexes, planes, m, seed):
    """Worst distance between each graze curve and the trace of its plane,
    one curve at a time: the plane meets the sweep axis through a Line, and
    each interior meet z is traced along u - (<u, nu> / <e, nu>) e in every
    sweep plane span(e, u), one ray exit per curve; a plane parallel to the
    axis or met outside the body scores the curve's worst distance to it.
    The per-curve form that theorems._graze_polar_agreement must equal."""
    dist = []
    for gr, pl in zip(graze(body, apexes, m=m, seed=seed), planes):
        e = np.asarray(gr.meta["axis_dir"])
        meet = pl.intersect_line(Line(np.asarray(gr.meta["axis_point"]), e))
        if meet.is_infinite() or not body.gauge(meet.affine()) < 1.0 - 1e-9:
            dist.append(np.abs(pl.signed_distance(gr.points)).max())
            continue
        w1, w2 = np.asarray(gr.meta["frame"])
        th = np.asarray(gr.meta["angles"])
        u = np.cos(th)[:, None] * w1 + np.sin(th)[:, None] * w2
        dirs = u - (np.vecdot(u, pl.normal) / float(e @ pl.normal))[:, None] * e
        q = ray_exit(body, np.broadcast_to(meet.affine(), u.shape), dirs)
        dist.append(np.linalg.norm(gr.points - q, axis=1).max())
    return np.array(dist)


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
