"""Support cones, grazes, shadow boundaries, and cone-level predicates.

Contact curves of finite apexes are swept by one routine, _tangency_sweep.
A boundary point p is a contact point of apex a iff g(p) = <a - p, nu(p)>
is 0. The sweep turns 2-planes about an axis through a base point and
finds, in each, the sign change of g along the section boundary. For a
smooth strictly convex section seen from an in-plane exterior apex the
visible arc is connected, so g changes sign exactly once on the half-turn
(0, pi) and a bracketing solver is safe. All curves, planes and apexes of
a call are one vectorised Chandrupatla solve (numeric.find_root) over the
row oracles. A shadow boundary needs no solve: the support map inverts
the Gauss map, so it is the support points of the normals orthogonal to
its direction. Both need two directions orthogonal to an axis: n >= 3.

graze, shadow_boundary and cone_intersection take one apex, direction or
pair of shape (n,) and give one CurveSample, or (k, n) rows and give a list
of k CurveSamples from one call, each equal to the curve of its row; an
error then names the row.
"""

import json

import numpy as np

from .bodies import _at_center, _ray, _routed_exit
from .errors import (
    ApexInsideBody,
    CoincidentApexes,
    DegenerateCloud,
    DegenerateCone,
    GeometryError,
    LineMissesBody,
    NonFiniteInput,
    NonSmoothBody,
    UnsupportedDimension,
    ZeroDirection,
)
from .fitting import ELLIPSE, fit_planar_conic
from .numeric import (check_roots, find_root, normalize, require_sizes,
                      unit_frame)
from .projective import Hyperplane


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


def _require_smooth(body):
    if not body.is_smooth:
        raise NonSmoothBody(
            "cone constructions need a smooth body; got kind %r" % body.kind)
    if body.dim < 3:
        raise UnsupportedDimension(
            "cone constructions need dimension >= 3; got %d" % body.dim)


def _row(v, r):
    """' row r' when v holds (k, n) rows; '' for one (n,) vector."""
    return " row %d" % r if np.ndim(v) > 1 else ""


def _finite_vector(body, v, what, rows=False):
    """v as one (n,) vector, or as (k, n) rows when rows is set, each of
    them finite."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (body.dim,) or v.ndim > 1 + rows or not v.size:
        raise UnsupportedDimension("%s has shape %s; the body has dimension %d"
                                   % (what, v.shape, body.dim))
    if not np.isfinite(v).all():
        r = int(np.argmin(np.isfinite(np.atleast_2d(v)).all(axis=1)))
        raise NonFiniteInput("%s%s %s is not finite"
                             % (what, _row(v, r), np.atleast_2d(v)[r].tolist()))
    return v


def _exterior_apex(body, apex):
    """apex as one point or (k, n) rows, when each is finite and strictly
    outside the body."""
    apex = _finite_vector(body, apex, "apex", rows=True)
    g = np.atleast_1d(body.gauge(apex))
    inside = g <= 1.0 + 1e-9
    if inside.any():
        r = int(np.argmax(inside))
        raise ApexInsideBody("apex%s gauge %.9f" % (_row(apex, r), g[r]))
    return apex


def _circle(base, axes, m, seed):
    """cos(t_j) f0 + sin(t_j) f1, j < m, about each of S (S, n) axes, shape
    (S, m, n), (f0, f1) from the axis's unit_frame, and a meta per axis.
    A tiny seeded phase keeps the t_j off axis-aligned coordinate flats."""
    frames = unit_frame(axes)
    phi0 = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi / max(m, 1))
    angles = phi0 + 2.0 * np.pi * np.arange(m) / m
    circle = (np.cos(angles)[:, None] * frames[:, None, :, 0]
              + np.sin(angles)[:, None] * frames[:, None, :, 1])
    return circle, [{"axis_point": b.tolist(), "axis_dir": a.tolist(),
                     "frame": f.T[:2].tolist(), "angles": angles.tolist()}
                    for b, a, f in zip(np.broadcast_to(base, axes.shape), axes, frames)]


def _tangency_sweep(body, base, axes, apexes, m, seed):
    """Tangency points of apexes in m sweep planes about each of S axes.

    Sweep s turns the planes span(axes[s], v_sj), v_sj from _circle, about
    the line through base[s] (one (n,) base serves every sweep, and a base
    at the center keeps ray_exit's closed form). For each of its k apexes
    a = apexes[s, i] the root of g(phi) = <a - gamma, nu(gamma)> in (0, pi)
    is the in-plane, and so the full, tangency. One find_root solves all
    S x m x k rows at once: row r is sweep r // (m k), plane r // k % m and
    apex r % k, laid out before the solve and looked up by the row indices
    that find_root hands g. Returns the points, shape (S, m, k, n), their
    residuals |g| / |a - p|, shape (S, m, k), the v_sj, shape (S, m, n),
    and S curve metas. A row that does not converge raises a GeometryError
    naming its plane and apex, and its curve when axes are (S, n) rows
    (NoSignChange when (0, pi) brackets no root).
    """
    named = np.ndim(axes) > 1
    axes = np.atleast_2d(axes)
    n, sweeps = body.dim, len(axes)
    apexes = np.reshape(apexes, (sweeps, -1, n))
    k = apexes.shape[1]
    planes, metas = _circle(base, axes, m, seed)
    # the rows' axes, planes, apexes and bases, in row order
    row_axis = np.repeat(axes, m * k, axis=0)
    row_plane = np.repeat(planes.reshape(-1, n), k, axis=0)
    row_apex = np.broadcast_to(apexes[:, None], (sweeps, m, k, n)).reshape(-1, n)
    row_base = base if np.ndim(base) == 1 else np.repeat(base, m * k, axis=0)
    # ray_exit's checks and its route for each row's base, decided once: the
    # directions are unit by construction, and the bases stay put
    row_base, _ = _ray(row_base, axes)
    near = _at_center(body, row_base)

    def contact(phi, r):
        """Points, aims a - p and g on rows r at angles phi."""
        dirs = (np.cos(phi)[:, None] * row_axis.take(r, axis=0)
                + np.sin(phi)[:, None] * row_plane.take(r, axis=0))
        p = (_routed_exit(body, row_base, dirs, near) if near.ndim == 0
             else _routed_exit(body, row_base.take(r, axis=0), dirs, near[r]))
        aim = row_apex.take(r, axis=0) - p
        return p, aim, np.vecdot(aim, body.normal_at(p))

    rows = np.arange(sweeps * m * k)
    sol = find_root(lambda phi, r: contact(phi, r)[2],
                    (np.zeros(rows.size), np.full(rows.size, np.pi)),
                    tolerances=dict(xatol=1e-14, xrtol=8.9e-16))

    def where(r):
        s, j, i = np.unravel_index(r, (sweeps, m, k))
        return "tangency sweep, %splane %d, apex %d" % (
            "curve %d, " % s if named else "", j, i)
    check_roots(sol, where, "g", "(0, pi)")
    p, aim, g = contact(sol.x, rows)
    res = np.abs(g) / np.sqrt(np.vecdot(aim, aim))
    return (p.reshape(sweeps, m, k, n), res.reshape(sweeps, m, k), planes,
            metas)


def _curves(kind, body, inputs, m, seed, points, residuals, sweep_metas):
    """One CurveSample per row of inputs, with the body's id computed once."""
    body_id = body.body_id()
    return [CurveSample(p, r, {"curve": kind, "body": body_id, **i,
                               "m": int(m), "seed": int(seed), **sweep})
            for i, p, r, sweep in zip(inputs, points, residuals, sweep_metas)]


def graze(body, apex, m=200, seed=0):
    """Contact curve of the support cone: points of bd L whose tangent
    hyperplane passes through the apex. Ordered by sweep angle about the
    apex-center axis. apex may be (k, n) rows: the result is then a list of
    k curves from one sweep, each equal to the graze of its row."""
    require_sizes("graze", {"m": m}, least={"m": 3})
    _require_smooth(body)
    apex = _exterior_apex(body, apex)
    c = body.center
    # g(0) > 0 and g(pi) < 0: the ray from the center toward the apex exits
    # through a point whose normal has positive axis component
    pts, res, _, sweeps = _tangency_sweep(body, c, normalize(apex - c), apex,
                                          m, seed)
    curves = _curves("graze", body,
                     [{"apex": a.tolist()} for a in np.atleast_2d(apex)],
                     m, seed, pts[:, :, 0], res[:, :, 0], sweeps)
    return curves if apex.ndim > 1 else curves[0]


def shadow_boundary(body, direction, m=200, seed=0):
    """Contact curve of the circumscribed cylinder: boundary points whose
    outer normal is orthogonal to the illumination direction u: the support
    points of _circle's normals about u, with residuals |<u, nu(p)>|.
    direction may be (k, n) rows: the result is then a list of k curves,
    each equal to the shadow boundary of its row. A non-finite sample raises
    GeometryError, and a sample equal to the next one (CurveSample's test)
    DegenerateCloud, each naming the sample, and its curve in a row call."""
    require_sizes("shadow_boundary", {"m": m}, least={"m": 3})
    _require_smooth(body)
    u = _finite_vector(body, direction, "direction", rows=True)
    zero = ~np.atleast_2d(u).any(axis=1)
    if zero.any():
        raise ZeroDirection("the illumination direction%s is zero"
                            % _row(u, int(np.argmax(zero))))
    us = normalize(np.atleast_2d(u))
    nu, sweeps = _circle(body.center, us, m, seed)
    pts = body.support_point(nu)
    res = np.abs(np.vecdot(body.normal_at(pts), us[:, None]))
    same = np.linalg.norm(np.diff(pts, axis=1), axis=-1) <= 0.0
    for bad, error, why in ((~np.isfinite(res), GeometryError, "<u, nu> is not finite"),
                            (same, DegenerateCloud, "the next sample equals it")):
        if bad.any():
            s, j = np.argwhere(bad)[0]
            raise error("shadow boundary, %ssample %d: %s"
                        % ("curve %d, " % s if u.ndim > 1 else "", j, why))
    curves = _curves("shadow", body, [{"direction": d.tolist()} for d in us],
                     m, seed, pts, res, sweeps)
    return curves if u.ndim > 1 else curves[0]


def cone_intersection(body, x, y, m=200, seed=0):
    """Sampled intersection curve of the two support-cone boundaries from
    apexes x and y. Requires the apex line to cross the body interior so that
    every sweep plane through it sections the body. x and y may be (k, n)
    rows of apex pairs: the result is then a list of k curves from one
    sweep, each equal to the curve of its pair, and an error names the row
    of its pair."""
    require_sizes("cone_intersection", {"m": m}, least={"m": 3})
    _require_smooth(body)
    x, y = np.broadcast_arrays(_exterior_apex(body, x), _exterior_apex(body, y))
    xs, ys = np.atleast_2d(x), np.atleast_2d(y)
    gap = np.sqrt(np.vecdot(xs - ys, xs - ys))
    near = gap <= 1e-9 * body.diameter()
    if near.any():
        r = int(np.argmax(near))
        raise CoincidentApexes("apexes%s are %.3e apart" % (_row(x, r), gap[r]))
    e = normalize(ys - xs)
    # each sweep turns about its apex line from the line's gauge minimum,
    # the foot of the center when the line passes through it (ray_exit's
    # closed form then keeps reflection symmetries bit-exact)
    t, g = body.line_min_gauge(xs, e)
    miss = g >= 1.0 - 1e-9
    if miss.any():
        r = int(np.argmax(miss))
        raise LineMissesBody("minimum gauge along the line%s is %.9f"
                             % (_row(x, r), g[r]))
    base = xs + t[:, None] * e
    # apex y lies on the +e side of base, apex x on the -e side
    tangents, res, planes, sweeps = _tangency_sweep(
        body, base[0] if (base == base[0]).all() else base, e.reshape(x.shape),
        np.stack([ys, xs], axis=1), m, seed)

    def chart(q):
        """In-plane coordinates (along e, along v_j) of q - base, per plane."""
        q = q - base[:, None]
        return np.stack(np.broadcast_arrays(np.vecdot(q, e[:, None]),
                                            np.vecdot(q, planes)), axis=-1)

    # intersect the two tangent rays x + t (px - x), y + s (py - y) inside
    # every sweep plane: one stacked 2x2 solve
    x2, y2 = chart(xs[:, None]), chart(ys[:, None])
    ray_x, ray_y = chart(tangents[:, :, 1]) - x2, chart(tangents[:, :, 0]) - y2
    a_mat = np.stack([ray_x, -ray_y], axis=-1)
    det = np.linalg.det(a_mat)
    scale = np.maximum(np.linalg.norm(ray_x, axis=-1),
                       np.linalg.norm(ray_y, axis=-1))
    parallel = np.abs(det) <= 1e-12 * scale * scale
    # a parallel plane gets the identity in place of its singular matrix
    ts = np.linalg.solve(np.where(parallel[..., None, None], np.eye(2), a_mat),
                         (y2 - x2)[..., None])[..., 0]
    behind = (ts <= 0.0).any(axis=-1) & ~parallel
    if (parallel | behind).any():
        r, j = np.argwhere(parallel | behind)[0]
        curve = ", curve %d" % r if x.ndim > 1 else ""
        if parallel[r, j]:
            raise DegenerateCone("tangent rays are parallel in sweep plane %d%s"
                                 % (j, curve))
        raise DegenerateCone("tangent rays meet behind an apex (plane %d%s)"
                             % (j, curve))
    q2 = x2 + ts[..., :1] * ray_x
    pts = base[:, None] + q2[..., :1] * e[:, None] + q2[..., 1:] * planes
    curves = _curves("cone-intersection", body,
                     [{"apexes": [xr.tolist(), yr.tolist()]} for xr, yr in zip(xs, ys)],
                     m, seed, pts, res.max(axis=2), sweeps)
    return curves if x.ndim > 1 else curves[0]


def _bounded_sections(dirs, normal, dist=1.0, min_cos=0.05):
    """Sections of cones by the planes <p, normal> = dist relative to their
    apexes, for (k, n) normals and (k, m, n) unit generators: the rows whose
    every generator meets its plane at a cosine above min_cos, and the points
    t g of those rows, shape (rows, m, n). Relative to the apex, a section
    carries no rounding of the apex's size."""
    proj = np.matmul(dirs, normal[..., None])[..., 0]
    ok = np.flatnonzero(proj.min(axis=1) > min_cos)
    t = dist / proj[ok]
    return ok, t[..., None] * dirs[ok]


def is_ellipsoidal_cone(apex, contact, tol=1e-6, seed=0):
    """Whether the support cone from apex over its contact curve (a graze)
    is ellipsoidal, by conic fits to bounded sections in R^3.

    The base section is orthogonal to the mean generator. The verdict must
    not depend on the section, so 3 tilted sections are re-tested and the
    worst residual is reported: the base section's FitResult, with
    detail alt_rms, max_rms, ellipsoidal and tol. apex may be (k, 3) rows
    with a list of k contact curves of one length: the result is then a
    list of k fits from one fit_planar_conic call over all 4k sections,
    each equal to the fit of its row, and a fit error names section row
    4 i + s of cone i (s = 0 the base, then the tilts). Every cone draws
    its tilts from its own default_rng(seed) stream, in its own order of
    attempts.
    """
    apexes = np.atleast_2d(np.asarray(apex, dtype=float))
    if apexes.shape[-1] != 3:
        raise UnsupportedDimension("cone sectioning needs dimension 3; got %d"
                                   % apexes.shape[-1])
    curves = [contact] if np.ndim(apex) == 1 else list(contact)
    if len(curves) != len(apexes):
        raise ValueError("is_ellipsoidal_cone needs one contact curve per "
                         "apex; got %d for %d" % (len(curves), len(apexes)))
    k = len(apexes)
    diffs = np.stack([c.points for c in curves]) - apexes[:, None]
    dirs = diffs / np.linalg.norm(diffs, axis=-1)[..., None]
    w = normalize(dirs.mean(axis=1))
    ok, base = _bounded_sections(dirs, w)
    if ok.size < k:
        r = int(np.setdiff1d(np.arange(k), ok)[0])
        raise DegenerateCone("no bounded section orthogonal to the mean "
                             "generator%s" % _row(apex, r))
    # sections s = 0 (base) and 1..3 (tilts), cone by cone
    normals = np.empty((k, 4, 3))
    sections = np.empty((k, 4) + diffs.shape[1:])
    normals[:, 0], sections[:, 0] = w, base
    # default_rng(seed).standard_normal(3) drawn 18 times is this one draw;
    # each cone reads it from its own position
    draws = np.random.default_rng(seed).standard_normal((18, 3))
    drawn = np.zeros(k, dtype=int)
    for s in range(1, 4):
        tilt = np.full(k, 0.3)
        todo = np.arange(k)
        for _attempt in range(6):
            xi = draws[drawn[todo]]
            drawn[todo] += 1
            xi = xi - np.vecdot(xi, w[todo])[:, None] * w[todo]
            nrm = np.sqrt(np.vecdot(xi, xi))
            # a draw along w tilts nothing: its cone takes the next one
            live = nrm >= 1e-12
            r = todo[live]
            w_alt = normalize(w[r] + tilt[r, None] * xi[live] / nrm[live, None])
            ok, pts = _bounded_sections(dirs[r], w_alt)
            normals[r[ok], s], sections[r[ok], s] = w_alt[ok], pts
            tilt[r] *= 0.5
            todo = np.setdiff1d(todo, r[ok])
            if not todo.size:
                break
        else:
            raise DegenerateCone("no bounded tilted section found%s"
                                 % _row(apex, int(todo[0])))
    # the sections and their planes are relative to each apex; a base
    # section's centre is moved back to the world
    planes = [Hyperplane.from_point_normal(nr, nr) for nr in normals.reshape(-1, 3)]
    fits = fit_planar_conic(sections.reshape((4 * k,) + diffs.shape[1:]), planes)
    for i in range(k):
        cone = fits[4 * i:4 * i + 4]
        if "center_world" in cone[0].detail:
            cone[0].detail["center_world"] = apexes[i] + cone[0].detail["center_world"]
        cone[0].detail.update(
            alt_rms=[f.rms_residual for f in cone[1:]],
            max_rms=max(f.rms_residual for f in cone),
            ellipsoidal=all(f.classification == ELLIPSE and f.rms_residual < tol
                            for f in cone),
            tol=tol)
    return fits[::4] if np.ndim(apex) > 1 else fits[0]


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
