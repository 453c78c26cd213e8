"""Support cones, grazes, shadow boundaries, and cone-level predicates.

Every curve here is a contact set of a support cone, swept by one routine,
_tangency_sweep. Its apex is homogeneous, (a, w): w = 1 is the finite point
a, w = 0 the point at infinity in direction a (the shadow boundary's
cylinder). A boundary point p is a contact point iff g(p) = <a - w p, nu(p)>
is 0. The sweep turns 2-planes about an axis through a base point and finds,
in each, the sign change of g along the section boundary. For a smooth
strictly convex section seen from an in-plane exterior apex the visible arc
is connected, so g changes sign exactly once on the half-turn (0, pi) and a
bracketing solver is safe. All planes and apexes are one vectorised
Chandrupatla solve (numeric.find_root) over the row oracles. The sweep
needs two directions orthogonal to the axis: n >= 3.
"""

import json

import numpy as np

from .bodies import line_min_gauge, ray_exit
from .errors import (
    ApexInsideBody,
    CoincidentApexes,
    DegenerateCone,
    LineMissesBody,
    NonFiniteInput,
    NonSmoothBody,
    UnsupportedDimension,
    ZeroDirection,
)
from .fitting import ELLIPSE, fit_planar_conic
from .numeric import (check_roots, find_root, normalize, require_sizes,
                      unit_frame)
from .projective import Hyperplane, Line


class CurveSample:
    """Ordered point cloud sampled from a closed curve, with residuals."""

    def __init__(self, points, residuals, meta):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[0] < 3:
            raise ValueError("curve sample needs at least 3 points")
        steps = np.linalg.norm(np.diff(points, axis=0), axis=1)
        if steps.min() <= 0.0:
            raise ValueError("consecutive sample points must be distinct")
        self.points = points
        self.residuals = np.asarray(residuals, dtype=float)
        self.meta = dict(meta)

    def __len__(self):
        return self.points.shape[0]

    @property
    def max_residual(self):
        return float(self.residuals.max())


class SupportCone:
    """Cone generated from an exterior apex over a body, held by samples."""

    def __init__(self, apex, contact):
        self.apex = np.asarray(apex, dtype=float)
        self.contact = contact
        diffs = contact.points - self.apex
        self.generator_dirs = diffs / np.linalg.norm(diffs, axis=1)[:, None]

    @property
    def mean_generator(self):
        return normalize(self.generator_dirs.mean(axis=0))


def _require_smooth(body):
    if not body.is_smooth:
        raise NonSmoothBody(
            "tangency sweeps need a smooth body; got kind %r" % body.kind)


def _finite_vector(body, v, what):
    v = np.asarray(v, dtype=float)
    if v.shape != (body.dim,):
        raise UnsupportedDimension("%s has shape %s; the body has dimension %d"
                                   % (what, v.shape, body.dim))
    if not np.all(np.isfinite(v)):
        raise NonFiniteInput("%s %s is not finite" % (what, v.tolist()))
    return v


def _exterior_apex(body, apex):
    """apex as a point, when it is finite and strictly outside the body."""
    apex = _finite_vector(body, apex, "apex")
    g = body.gauge(apex)
    if g <= 1.0 + 1e-9:
        raise ApexInsideBody("apex gauge %.9f" % g)
    return apex


def _tangency_sweep(body, base, axis, apexes, m, seed):
    """Tangency points of homogeneous apexes in m sweep planes about an axis.

    Sweep plane j is span(axis, v_j) through base. For each apex (a, w) the
    root of g(phi) = <a - w gamma, nu(gamma)> in (0, pi) is the in-plane, and
    so the full, tangency. One find_root solves all m x apexes rows at once;
    row r is plane r // k and apex r % k, and the row indices go through
    args because find_root hands g only the rows still active. Returns the
    points, shape (m, apexes, n), their residuals |g| (divided by |a - p| for
    a finite apex), the plane directions v_j as rows, and the sweep's curve
    meta. A row that does not converge raises a GeometryError naming its
    plane and apex (NoSignChange when (0, pi) brackets no root).
    """
    if body.dim < 3:
        raise UnsupportedDimension(
            "tangency sweeps need dimension >= 3; got %d" % body.dim)
    frame = unit_frame(axis)
    w1, w2 = frame[:, 0], frame[:, 1]
    # tiny seeded phase so axis-aligned coordinate flats are never hit exactly
    phi0 = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi / max(m, 1))
    angles = phi0 + 2.0 * np.pi * np.arange(m) / m
    planes = np.cos(angles)[:, None] * w1 + np.sin(angles)[:, None] * w2
    k = len(apexes)
    a = np.array([ap for ap, _ in apexes], dtype=float)
    w = np.array([wt for _, wt in apexes], dtype=float)

    def contact(phi, r):
        """Points, aims a - w p and g on rows r at angles phi."""
        dirs = (np.cos(phi)[:, None] * axis
                + np.sin(phi)[:, None] * planes[r // k])
        p = ray_exit(body, base, dirs)
        aim = a[r % k] - w[r % k, None] * p
        return p, aim, np.vecdot(aim, body.normal_at(p))

    rows = np.arange(m * k)
    sol = find_root(lambda phi, r: contact(phi, r)[2],
                    (np.zeros(m * k), np.full(m * k, np.pi)), args=(rows,),
                    tolerances=dict(xatol=1e-14, xrtol=8.9e-16))
    check_roots(sol, lambda r: "tangency sweep, plane %d, apex %d"
                % (r // k, r % k), "g", "(0, pi)")
    p, aim, g = contact(sol.x, rows)
    finite = w[rows % k] != 0.0
    res = np.abs(g) / np.where(finite, np.sqrt(np.vecdot(aim, aim)), 1.0)
    pts = p.reshape(m, k, body.dim)
    res = res.reshape(m, k)
    meta = {
        "axis_point": [float(t) for t in base],
        "axis_dir": [float(t) for t in axis],
        "frame": [[float(t) for t in w1], [float(t) for t in w2]],
        "angles": [float(t) for t in angles],
    }
    return pts, res, planes, meta


def _curve(kind, body, inputs, m, seed, points, residuals, sweep_meta):
    meta = {"curve": kind, "body": body.body_id(), **inputs,
            "m": int(m), "seed": int(seed), **sweep_meta}
    return CurveSample(points, residuals, meta)


def graze(body, apex, m=200, seed=0):
    """Contact curve of the support cone: points of bd L whose tangent
    hyperplane passes through the apex. Ordered by sweep angle about the
    apex-center axis."""
    require_sizes("graze", {"m": m}, least={"m": 3})
    _require_smooth(body)
    apex = _exterior_apex(body, apex)
    c = body.center
    # g(0) > 0 and g(pi) < 0: the ray from the center toward the apex exits
    # through a point whose normal has positive axis component
    pts, res, _, sweep = _tangency_sweep(body, c, normalize(apex - c),
                                         [(apex, 1.0)], m, seed)
    return _curve("graze", body, {"apex": [float(t) for t in apex]}, m, seed,
                  pts[:, 0], res[:, 0], sweep)


def support_cone(body, apex, m=200, seed=0):
    return SupportCone(apex, graze(body, apex, m=m, seed=seed))


def shadow_boundary(body, direction, m=200, seed=0):
    """Contact curve of the circumscribed cylinder: boundary points whose
    outer normal is orthogonal to the illumination direction."""
    require_sizes("shadow_boundary", {"m": m}, least={"m": 3})
    _require_smooth(body)
    u = _finite_vector(body, direction, "direction")
    if not u.any():
        raise ZeroDirection("the illumination direction is zero")
    u = normalize(u)
    pts, res, _, sweep = _tangency_sweep(body, body.center, u, [(u, 0.0)],
                                         m, seed)
    return _curve("shadow", body, {"direction": [float(t) for t in u]}, m,
                  seed, pts[:, 0], res[:, 0], sweep)


def cone_intersection(body, x, y, m=200, seed=0):
    """Sampled intersection curve of the two support-cone boundaries from
    apexes x and y. Requires the apex line to cross the body interior so that
    every sweep plane through it sections the body."""
    require_sizes("cone_intersection", {"m": m}, least={"m": 3})
    _require_smooth(body)
    x, y = _exterior_apex(body, x), _exterior_apex(body, y)
    if np.linalg.norm(x - y) <= 1e-9 * body.diameter():
        raise CoincidentApexes("apexes are %.3e apart" % np.linalg.norm(x - y))
    e = normalize(y - x)
    line = Line(x, e)
    # snap the base to the center when the line passes through it, which
    # keeps reflection symmetries bit-exact
    base = line.at(float((body.center - line.point) @ line.direction))
    if not (np.linalg.norm(base - body.center) <= 1e-9 * body.diameter()
            and body.gauge(base) < 1.0 - 1e-9):
        t, g = line_min_gauge(body, line)
        if g >= 1.0 - 1e-9:
            raise LineMissesBody("minimum gauge along the line is %.9f" % g)
        base = line.at(t)
    # apex y lies on the +e side of base, apex x on the -e side
    tangents, res, planes, sweep = _tangency_sweep(
        body, base, e, [(y, 1.0), (x, 1.0)], m, seed)

    def chart(q):
        """In-plane coordinates (along e, along v_j) of q - base, per plane."""
        q = q - base
        return np.stack(np.broadcast_arrays(np.vecdot(q, e),
                                            np.vecdot(q, planes)), axis=-1)

    # intersect the two tangent rays x + t (px - x), y + s (py - y) inside
    # every sweep plane: one stacked 2x2 solve
    x2, y2 = chart(x), chart(y)
    ray_x, ray_y = chart(tangents[:, 1]) - x2, chart(tangents[:, 0]) - y2
    a_mat = np.stack([ray_x, -ray_y], axis=-1)
    det = np.linalg.det(a_mat)
    scale = np.maximum(np.linalg.norm(ray_x, axis=1), np.linalg.norm(ray_y, axis=1))
    parallel = np.abs(det) <= 1e-12 * scale * scale
    # a parallel plane gets the identity in place of its singular matrix
    ts = np.linalg.solve(np.where(parallel[:, None, None], np.eye(2), a_mat),
                         (y2 - x2)[:, :, None])[:, :, 0]
    behind = (ts <= 0.0).any(axis=1) & ~parallel
    if (parallel | behind).any():
        j = int(np.argmax(parallel | behind))
        if parallel[j]:
            raise DegenerateCone("tangent rays are parallel in sweep plane %d" % j)
        raise DegenerateCone("tangent rays meet behind an apex (plane %d)" % j)
    q2 = x2 + ts[:, :1] * ray_x
    pts = base + q2[:, :1] * e + q2[:, 1:] * planes
    apexes = [[float(t) for t in x], [float(t) for t in y]]
    return _curve("cone-intersection", body, {"apexes": apexes}, m, seed, pts,
                  res.max(axis=1), sweep)


def _bounded_section_points(cone, normal, dist=1.0, min_cos=0.05):
    g = cone.generator_dirs
    proj = g @ normal
    if proj.min() <= min_cos:
        return None
    t = dist / proj
    return cone.apex + t[:, None] * g


def is_ellipsoidal_cone(cone, tol=1e-6, seed=0):
    """Fit a conic to a bounded hyper-section of the cone; the verdict must
    not depend on the section, so 3 tilted sections are re-tested and the
    worst residual is reported."""
    if cone.apex.shape[0] != 3:
        raise UnsupportedDimension("cone sectioning needs dimension 3; got %d"
                                   % cone.apex.shape[0])
    w = cone.mean_generator
    pts = _bounded_section_points(cone, w)
    if pts is None:
        raise DegenerateCone("no bounded section orthogonal to the mean generator")
    plane = Hyperplane.from_point_normal(cone.apex + w, w)
    base_fit = fit_planar_conic(pts, plane)
    rng = np.random.default_rng(seed)
    all_ellipse = base_fit.classification == ELLIPSE and base_fit.rms_residual < tol
    worst = base_fit.rms_residual
    alt_rms = []
    for _ in range(3):
        tilt = 0.3
        for _attempt in range(6):
            xi = rng.standard_normal(3)
            xi -= (xi @ w) * w
            nrm = np.linalg.norm(xi)
            if nrm < 1e-12:
                continue
            w_alt = normalize(w + tilt * xi / nrm)
            pts_alt = _bounded_section_points(cone, w_alt)
            if pts_alt is not None:
                break
            tilt *= 0.5
        else:
            raise DegenerateCone("no bounded tilted section found")
        plane_alt = Hyperplane.from_point_normal(cone.apex + w_alt, w_alt)
        fit_alt = fit_planar_conic(pts_alt, plane_alt)
        alt_rms.append(fit_alt.rms_residual)
        worst = max(worst, fit_alt.rms_residual)
        if fit_alt.classification != ELLIPSE or fit_alt.rms_residual >= tol:
            all_ellipse = False
    base_fit.detail.update(alt_rms=alt_rms, max_rms=worst,
                           ellipsoidal=bool(all_ellipse), tol=tol)
    return base_fit


def write_curve_csv(sample, path):
    """CSV export (x1..xn, residual) with a JSON sidecar for the meta."""
    n = sample.points.shape[1]
    header = ",".join("x%d" % (i + 1) for i in range(n)) + ",residual"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for p, r in zip(sample.points, sample.residuals):
            fh.write(",".join(repr(float(t)) for t in p) + "," + repr(float(r)) + "\n")
    with open(path + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(sample.meta, fh, indent=2)
        fh.write("\n")
