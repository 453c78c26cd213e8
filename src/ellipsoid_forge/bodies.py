"""Convex bodies exposed through support, gauge, and boundary oracles.

Concrete kinds: ellipsoid, p-ball, polytope, affine image. Higher modules are
kind-agnostic: everything downstream consumes the oracle interface only.
Gauges are Minkowski functionals about each body's designated center, which
makes the center ray boundary solve closed form (1-homogeneity). Off the
center the ellipsoid's and the polytope's ray exits are closed form too, an
affine image takes its inner body's exit on the preimage ray, and a p-ball
takes one row solve (numeric.find_root) on the gauge per call.

Every oracle (support, support_point, gauge, normal_at, boundary_from_center,
boundary_point, ray_exit, line_min_gauge) takes one point or direction of
shape (n,), or rows of shape (..., n), and answers row by row: a Python float
or an (n,) point for one input, an array of shape (...) or (..., n) for rows.
A row's answer equals the one-point answer to the last bit or two, so a
caller may batch freely. Ellipsoid and AffineImage apply each square matrix
to rows as x @ M with M C-contiguous, a product whose rows have the bits of
one-point calls; Polytope keeps the per-row matvec, whose rows as an @
product would not. support and support_point raise ZeroDirection for a
zero direction or row; the ray exits (boundary_point, ray_exit) raise
NonFiniteInput for a non-finite base or direction, ZeroDirection for a zero
direction or row, and RayBaseNotInterior for a base outside the interior.
line_min_gauge(p, d) gives (t, g): the least gauge g along each line p + t d,
at t in units of d, on every kind from one restriction solve of the body's
polar (the planar module's minimiser; the gauge is the polar's support
function); NonFiniteInput and ZeroDirection as for the ray exits.
"""

import hashlib
import io
from types import SimpleNamespace

import numpy as np

from .errors import (BodySpecError, LineMissesBody, NonFiniteInput,
                     NonSmoothBody, RayBaseNotInterior, ZeroDirection)
from .numeric import _value, check_roots, find_root, normalize, sphere_directions
from .projective import Line


def _finite(name, value):
    a = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("%s must be finite" % name)
    return a


def _ray(z, d):
    """A ray's base z and direction d as float arrays; NonFiniteInput when a
    coordinate of either is NaN or infinite; ZeroDirection for a zero d row."""
    z, d = np.asarray(z, dtype=float), np.asarray(d, dtype=float)
    if not (np.isfinite(z).all() and np.isfinite(d).all()):
        raise NonFiniteInput("ray base point or direction is not finite")
    if not _columns(np.logical_or, d != 0.0).all():
        raise ZeroDirection("a ray direction is zero")
    return z, d


def _nonzero(norms):
    """norms, a norm of each direction row; ZeroDirection when one is 0."""
    if not (np.count_nonzero(norms) == norms.size if norms.ndim else norms):
        raise ZeroDirection("a support direction is zero")
    return norms


def _columns(op, a):
    """op.reduce(a, axis=-1) bit for bit, and a numpy scalar on one point, by
    columns: numpy folds a short axis in the same order, but row by row."""
    s = a[..., 0][()]
    for k in range(1, a.shape[-1]):
        s = op(s, a[..., k])
    return s


def _lp_norm(x, p):
    """np.linalg.norm(x, ord=p, axis=-1) for 1 < p < inf, bit for bit: the
    ufuncs it runs, without its argument handling. Like it, p = 2 takes the
    square root, which a one-point power would not match."""
    s = _columns(np.add, np.abs(x) ** p)
    return np.sqrt(s) if p == 2.0 else s ** (1.0 / p)


class ConvexBody:
    """Oracle interface; subclasses fill in the kind-specific pieces."""

    kind = None
    is_smooth = False

    @property
    def dim(self):
        raise NotImplementedError

    @property
    def center(self):
        """A designated interior point; gauges are taken about it."""
        raise NotImplementedError

    def support(self, u):
        """h(u) = sup over the body of <x, u>, per row; u need not be unit."""
        raise NotImplementedError

    def support_point(self, u):
        """An argmax of <x, u> over the body, for each of (..., n) rows."""
        raise NotImplementedError

    def gauge(self, x):
        """Minkowski functional about the center: 1 on the boundary.
        x is one point (a float back) or (..., n) rows (an array back)."""
        raise NotImplementedError

    def normal_at(self, x):
        """Outer unit normal at a boundary point, or at each of (..., n) rows
        (smooth kinds only)."""
        raise NonSmoothBody("%s has no normal oracle" % self.kind)

    def contains(self, x, tol=1e-10):
        return self.gauge(x) <= 1.0 + tol

    def radius_bound(self):
        """Radius of a ball about the center certainly containing the body."""
        if not hasattr(self, "_radius_bound"):
            dirs = sphere_directions(self.dim, 64, seed=0)
            r = float((self.support(dirs) - np.vecdot(dirs, self.center)).max())
            self._radius_bound = 1.5 * r + 1e-12
        return self._radius_bound

    def diameter(self):
        """Deterministic scale estimate: max sampled width."""
        if not hasattr(self, "_diameter"):
            dirs = sphere_directions(self.dim, 64, seed=0)
            self._diameter = float((self.support(dirs) + self.support(-dirs)).max())
        return self._diameter

    def boundary_from_center(self, d):
        """Boundary point along the ray center + t*d, t > 0, for each row of
        d. Closed form."""
        d, c = np.asarray(d, dtype=float), self.center
        g = self.gauge(c + d)
        return c + (d / g[..., None] if d.ndim > 1 else d / g)

    def boundary_point(self, z, d):
        """Boundary point along z + t*d, t > 0, for interior z; z and d
        broadcast as rows, and one find_root on the gauge solves them all.
        Raises NonFiniteInput for a non-finite z or d, ZeroDirection for a
        zero d, RayBaseNotInterior when a z is not interior."""
        z, d = _ray(z, d)
        d = normalize(d)
        if np.any(self.gauge(z) >= 1.0 - 1e-12):
            raise RayBaseNotInterior("ray base point is not interior")
        shape = np.broadcast_shapes(z.shape, d.shape)
        z, d = (np.broadcast_to(a, shape).reshape(-1, self.dim) for a in (z, d))
        # body is inside ball(center, R): each exit time is below its t_hi;
        # each row solves for s = t / t_hi in [0, 1], to 1e-15 t_hi + 8.9e-16 t
        t_hi = np.linalg.norm(z - self.center, axis=-1) + self.radius_bound()
        f = lambda s, r: self.gauge(z.take(r, axis=0) + (s * t_hi[r])[:, None]
                                    * d.take(r, axis=0)) - 1.0
        sol = find_root(f, (np.zeros(len(z)), np.ones(len(z))),
                        tolerances=dict(xatol=1e-15, xrtol=8.9e-16))
        check_roots(sol, lambda r: "ray exit at row %d" % r, "gauge - 1", "[0, t_hi]")
        return (z + (sol.x * t_hi)[:, None] * d).reshape(shape)

    def line_min_gauge(self, p, d):
        """Gauge minimum along each line p + t d, p and d broadcast as rows:
        (t, g) with g = gauge(p + t d) least at t, in units of d. The gauge
        about c is the support function of the polar of K - c, whose support
        point at x is the gauge's gradient at c + x (_gauge_gradient), so
        one restriction solve of the polar (planar._restriction_minimizer)
        minimises every row along n = d / |d| from the foot of the centre,
        t = t_foot + tau / |d|. A line through the center (g(foot) <= 1e-13)
        takes its foot, unsolved."""
        from .planar import _restriction_minimizer  # planar imports bodies
        p, d = _ray(p, d)
        shape = np.broadcast_shapes(p.shape, d.shape)
        v, e = (np.broadcast_to(a, shape).reshape(-1, self.dim)
                for a in (p - self.center, d))
        t = -np.vecdot(v, e) / np.vecdot(e, e)
        solve = np.flatnonzero(self.gauge(self.center + v + t[:, None] * e) > 1e-13)
        if solve.size:
            polar = SimpleNamespace(dim=self.dim, is_smooth=self.is_smooth,
                                    support_point=self._gauge_gradient)
            e_s = e[solve]
            e_len = np.sqrt(np.vecdot(e_s, e_s))
            tau, _ = _restriction_minimizer(
                polar, v[solve] + t[solve, None] * e_s, e_s / e_len[:, None], 0.0,
                lambda r: " of the line minimum at row %d" % solve[r])
            t[solve] += tau / e_len
        t = t.reshape(shape[:-1])
        return _value(t), self.gauge(p + t[..., None] * d)

    def _gauge_gradient(self, x):
        """The gauge's gradient at c + x, row by row: nu(b) / <nu(b), b - c>
        at the radial boundary point b (smooth kinds only)."""
        b = self.boundary_from_center(x)
        nu = self.normal_at(b)
        return nu / np.expand_dims(np.vecdot(nu, b - self.center), -1)

    def body_id(self):
        digest = hashlib.blake2b(
            serialize_body(self).encode(), digest_size=4
        ).hexdigest()
        return "%s:%s" % (self.kind, digest)


class Ellipsoid(ConvexBody):
    """{x : (x-c)^T Q (x-c) <= 1} with Q symmetric positive definite."""

    kind = "ellipsoid"
    is_smooth = True

    def __init__(self, center, shape):
        c = _finite("center", center)
        q = _finite("shape matrix", shape)
        if q.shape != (c.shape[0], c.shape[0]):
            raise ValueError("shape matrix size does not match the center")
        if np.abs(q - q.T).max() > 1e-12 * np.abs(q).max():
            raise ValueError("shape matrix must be symmetric")
        q = 0.5 * (q + q.T)
        eig = np.linalg.eigvalsh(q)
        if eig[0] <= 0.0:
            raise ValueError("shape matrix must be positive definite")
        self._c = c
        self._q = q
        qinv = np.linalg.inv(q)
        self._qinv = 0.5 * (qinv + qinv.T)

    @classmethod
    def ball(cls, radius, center=None, dim=3):
        if center is None:
            center = np.zeros(dim)
        center = np.asarray(center, dtype=float)
        n = center.shape[0]
        return cls(center, np.eye(n) / radius**2)

    @property
    def dim(self):
        return self._c.shape[0]

    @property
    def center(self):
        return self._c

    @property
    def shape_matrix(self):
        return self._q

    def support(self, u):
        u = np.asarray(u, dtype=float)
        return _value(np.vecdot(self._c, u)
                      + _nonzero(np.sqrt(np.vecdot(u @ self._qinv, u))))

    def support_point(self, u):
        u = np.asarray(u, dtype=float)
        w = u @ self._qinv
        s = _nonzero(np.sqrt(np.vecdot(u, w)))
        return self._c + (w / s[..., None] if s.ndim else w / s)

    def gauge(self, x):
        v = np.asarray(x, dtype=float) - self._c
        return _value(np.sqrt(np.vecdot(v @ self._q, v)))

    def normal_at(self, x):
        return normalize((np.asarray(x, dtype=float) - self._c) @ self._q)

    def boundary_point(self, z, d):
        # (v + t d)^T Q (v + t d) = 1 with v = z - c, as a t^2 + 2 b t + c0 = 0
        z, d = _ray(z, d)
        d = normalize(d)
        v = z - self._c
        qd = d @ self._q
        a = np.vecdot(qd, d)
        b = np.vecdot(qd, v)
        c0 = np.vecdot(v @ self._q, v) - 1.0
        disc = b * b - a * c0
        if np.any(c0 >= -1e-14) or np.any(disc <= 0.0):
            raise RayBaseNotInterior("ray base point is not interior")
        t = (-b + np.sqrt(disc)) / a
        return z + (t[..., None] if t.ndim else t) * d


class PBall(ConvexBody):
    """{x : sum |x_i/a_i|^p <= 1}, origin-centered, p in (1, inf)."""

    kind = "pball"
    is_smooth = True

    def __init__(self, exponent, semi_axes):
        p = float(exponent)
        if not p > 1.0 or not np.isfinite(p):
            raise ValueError("exponent must satisfy 1 < p < inf")
        a = _finite("semi-axes", semi_axes)
        if np.any(a <= 0.0):
            raise ValueError("semi-axes must be positive")
        self._p = p
        self._q = p / (p - 1.0)
        self._a = a

    @property
    def dim(self):
        return self._a.shape[0]

    @property
    def center(self):
        return np.zeros(self.dim)

    @property
    def exponent(self):
        return self._p

    @property
    def semi_axes(self):
        return self._a

    def support(self, u):
        w = self._a * np.asarray(u, dtype=float)
        return _value(_nonzero(_lp_norm(w, self._q)))

    def support_point(self, u):
        w = self._a * np.asarray(u, dtype=float)
        nq = _nonzero(_lp_norm(w, self._q))
        y = np.abs(w / (nq[..., None] if nq.ndim else nq)) ** (self._q - 1.0)
        return self._a * np.sign(w) * y

    def gauge(self, x):
        return _value(_lp_norm(np.asarray(x, dtype=float) / self._a, self._p))

    def normal_at(self, x):
        v = np.asarray(x, dtype=float) / self._a
        g = np.sign(v) * np.abs(v) ** (self._p - 1.0) / self._a
        return normalize(g)


class Polytope(ConvexBody):
    """Convex hull of a finite vertex list spanning R^n (not smooth).

    The facets A (x - c) <= b are built once with Qhull, so the gauge about
    the vertex mean c is max(A (x - c) / b).
    """

    kind = "polytope"
    is_smooth = False

    def __init__(self, vertices):
        v = _finite("vertices", vertices)
        if v.ndim != 2 or v.shape[0] < v.shape[1] + 1:
            raise ValueError("polytope needs at least n+1 vertices")
        # scipy.spatial is most of a cold start, so only a polytope loads it
        from scipy.spatial import ConvexHull, QhullError
        try:
            eq = ConvexHull(v).equations  # rows (a, e): a.x + e <= 0 inside
        except QhullError as exc:
            raise ValueError("polytope vertices do not span R^%d: %s"
                             % (v.shape[1], str(exc).splitlines()[0])) from exc
        self._v = v
        self._c = v.mean(axis=0)
        self._a = eq[:, :-1]
        self._b = -eq[:, -1] - self._a @ self._c  # > 0: c is interior

    @property
    def dim(self):
        return self._v.shape[1]

    @property
    def center(self):
        return self._c

    @property
    def vertices(self):
        return self._v

    def _scores(self, u):
        """<v, u> for each vertex v, per row. The vertices span R^n, so only
        a zero row scores 0 on every vertex; such a row raises ZeroDirection,
        looked for only where the first vertex scores 0."""
        scores = np.matvec(self._v, np.asarray(u, dtype=float))
        first = scores[..., 0]
        if not (first.all() if first.ndim else first):
            _nonzero(np.abs(scores[first == 0.0]).max(axis=-1))
        return scores

    def support(self, u):
        scores = self._scores(u)
        # one reduction per row; max() without an axis keeps one point fast
        return scores.max(axis=-1) if scores.ndim > 1 else float(scores.max())

    def support_point(self, u):
        return self._v[self._scores(u).argmax(axis=-1)].copy()

    def gauge(self, x):
        v = np.asarray(x, dtype=float) - self._c
        return _value((np.matvec(self._a, v) / self._b).max(axis=-1))

    def boundary_point(self, z, d):
        # the ray leaves through the first facet it reaches: t is the least
        # slack b_i - <a_i, z - c> over <a_i, d> among the facets with <a_i, d> > 0
        z, d = _ray(z, d)
        az = np.matvec(self._a, z - self._c)
        if np.any((az / self._b).max(axis=-1) >= 1.0 - 1e-12):
            raise RayBaseNotInterior("ray base point is not interior")
        ad = np.matvec(self._a, d)
        t = np.divide(self._b - az, ad, where=ad > 0.0,
                      out=np.full(np.broadcast_shapes(az.shape, ad.shape), np.inf))
        return z + np.expand_dims(t.min(axis=-1), -1) * d

    def _gauge_gradient(self, x):
        # a_i / b_i of the facet where the gauge max(A x / b) is taken
        i = (np.matvec(self._a, np.asarray(x, dtype=float)) / self._b).argmax(axis=-1)
        return self._a[i] / self._b[i, None]


class AffineImage(ConvexBody):
    """A K + b for an invertible matrix A and an inner body K."""

    kind = "affine_image"

    def __init__(self, a, b, inner):
        a = _finite("affine image matrix", a)
        n = inner.dim
        if a.shape != (n, n):
            raise ValueError("matrix size does not match the inner body")
        s = np.linalg.svd(a, compute_uv=False)
        if s[-1] <= 1e-12 * s[0]:
            raise ValueError("affine image matrix is numerically singular")
        self._a = np.ascontiguousarray(a)
        self._b = _finite("affine image offset", b)
        self._inner = inner
        self._ainv = np.ascontiguousarray(np.linalg.inv(a))
        # transposes stored C-contiguous, so every map below is a row times
        # a C-contiguous matrix, x @ M, whose rows keep a one-point call's bits
        self._a_t = np.ascontiguousarray(self._a.T)
        self._ainv_t = np.ascontiguousarray(self._ainv.T)
        self.is_smooth = inner.is_smooth

    @property
    def dim(self):
        return self._inner.dim

    @property
    def center(self):
        return self._a @ self._inner.center + self._b

    @property
    def matrix(self):
        return self._a

    @property
    def offset(self):
        return self._b

    @property
    def inner(self):
        return self._inner

    def support(self, u):
        u = np.asarray(u, dtype=float)
        return _value(np.vecdot(self._b, u)
                      + self._inner.support(u @ self._a))

    def support_point(self, u):
        u = np.asarray(u, dtype=float) @ self._a
        return self._inner.support_point(u) @ self._a_t + self._b

    def gauge(self, x):
        return self._inner.gauge((np.asarray(x, dtype=float) - self._b) @ self._ainv_t)

    def normal_at(self, x):
        x_in = (np.asarray(x, dtype=float) - self._b) @ self._ainv_t
        return normalize(self._inner.normal_at(x_in) @ self._ainv)

    def boundary_point(self, z, d):
        # the exit of the preimage ray A^-1 (z - b) + t A^-1 d, mapped back
        z, d = _ray(z, d)
        x = self._inner.boundary_point((z - self._b) @ self._ainv_t, d @ self._ainv_t)
        return x @ self._a_t + self._b

    def line_min_gauge(self, p, d):
        # the preimage line A^-1 (p - b) + t A^-1 d has the same t
        p, d = np.asarray(p, dtype=float), np.asarray(d, dtype=float)
        t, _ = self._inner.line_min_gauge((p - self._b) @ self._ainv_t,
                                          d @ self._ainv_t)
        return t, self.gauge(p + np.expand_dims(t, -1) * d)


def ray_exit(body, base, d):
    """Boundary point along base + t*d, t > 0, for interior base; base and d
    broadcast as rows. A base at the center, one point or row by row, takes
    the closed-form ray, keeping curve symmetries bit-exact; the other rows
    take one boundary_point call. Raises NonFiniteInput for a non-finite
    base or direction, ZeroDirection for a zero direction,
    RayBaseNotInterior for a base that is not interior, on every body kind."""
    base, d = _ray(base, d)
    return _routed_exit(body, base, d, _at_center(body, base))


def _at_center(body, base):
    """Which base rows ray_exit takes in closed form: those within
    1e-13 (1 + diameter) of the center. A caller that exits from the same
    bases many times decides this once and hands it to _routed_exit."""
    off = base - body.center
    return np.sqrt(np.vecdot(off, off)) <= 1e-13 * (1.0 + body.diameter())


def _routed_exit(body, base, d, near):
    """ray_exit after its checks: the exits from the finite bases base, whose
    _at_center is near, along the nonzero directions d."""
    if near.ndim == 0:
        return body.boundary_from_center(d) if near else body.boundary_point(base, d)
    centred = np.count_nonzero(near)
    if centred == near.size:
        return body.boundary_from_center(
            np.broadcast_to(d, np.broadcast_shapes(base.shape, d.shape)))
    if not centred:
        return body.boundary_point(base, d)
    base, d = np.broadcast_arrays(base, d)
    near = np.broadcast_to(near, base.shape[:-1])
    out = np.empty(base.shape)
    out[near] = body.boundary_from_center(d[near])
    out[~near] = body.boundary_point(base[~near], d[~near])
    return out


def line_boundary_points(body, line):
    """The two intersections of a line with bd K, ordered by the parameter:
    the ray exits backwards and forwards from one interior point of the line,
    line.point when it is interior, else the gauge minimum along the line.

    Raises LineMissesBody when the line never reaches the interior (the gauge
    minimum along the line stays >= 1).
    """
    if not isinstance(line, Line):
        raise TypeError("expected a Line")
    base = line.point
    if body.gauge(base) >= 1.0 - 1e-12:
        t0, g0 = body.line_min_gauge(line.point, line.direction)
        if g0 >= 1.0 - 1e-12:
            raise LineMissesBody("gauge minimum along the line is %.6f" % g0)
        base = line.at(t0)
    return tuple(ray_exit(body, base, np.stack([-line.direction, line.direction])))


def o_symmetry_residual(body, center=None, seed=0):
    """max_u |h(u) - h(-u) - 2<c,u>| / diameter over 512 sampled directions."""
    if center is None:
        center = np.zeros(body.dim)
    center = np.asarray(center, dtype=float)
    dirs = sphere_directions(body.dim, 512, seed=seed)
    r = body.support(dirs) - body.support(-dirs) - 2.0 * np.vecdot(dirs, center)
    return float(np.abs(r).max()) / body.diameter()


def is_o_symmetric(body, center=None):
    """Centrally symmetric about center, via the support identity
    h(u) - h(-u) = 2<c,u> to 1e-7 over 512 quasi-uniform directions."""
    return o_symmetry_residual(body, center) <= 1e-7


# ---------------------------------------------------------------------------
# body spec files: structured text, bit-exact parse -> serialize -> parse
# ---------------------------------------------------------------------------

_HEADER = "ellipsoid-forge-body v1"


def _fmt(values):
    return " ".join(repr(float(v)) for v in np.atleast_1d(values))


def _serialize_into(body, out, indent):
    pad = " " * indent
    out.write("%skind %s\n" % (pad, body.kind))
    out.write("%sdim %d\n" % (pad, body.dim))
    if isinstance(body, Ellipsoid):
        out.write("%scenter %s\n" % (pad, _fmt(body.center)))
        for row in body.shape_matrix:
            out.write("%sshape-row %s\n" % (pad, _fmt(row)))
    elif isinstance(body, PBall):
        out.write("%sexponent %s\n" % (pad, repr(float(body.exponent))))
        out.write("%ssemi-axes %s\n" % (pad, _fmt(body.semi_axes)))
    elif isinstance(body, Polytope):
        for v in body.vertices:
            out.write("%svertex %s\n" % (pad, _fmt(v)))
    elif isinstance(body, AffineImage):
        for row in body.matrix:
            out.write("%smatrix-row %s\n" % (pad, _fmt(row)))
        out.write("%soffset %s\n" % (pad, _fmt(body.offset)))
        out.write("%sinner {\n" % pad)
        _serialize_into(body.inner, out, indent + 2)
        out.write("%s}\n" % pad)
    else:
        raise ValueError("unknown body kind %r" % body.kind)


def serialize_body(body):
    out = io.StringIO()
    out.write(_HEADER + "\n")
    _serialize_into(body, out, 0)
    return out.getvalue()


def _parse_floats(text, lineno):
    try:
        return np.array([float(tok) for tok in text.split()])
    except ValueError:
        raise BodySpecError("cannot parse numbers from %r" % text, lineno)


#: the fields each body kind takes besides kind and dim
_KIND_FIELDS = {
    "ellipsoid": ("center", "shape-row"),
    "pball": ("exponent", "semi-axes"),
    "polytope": ("vertex",),
    "affine_image": ("matrix-row", "offset", "inner"),
}


def _parse_block(lines, i):
    """Parse one body starting at lines[i]; returns (body, next_index)."""
    fields = {}
    rows = {"shape-row": [], "vertex": [], "matrix-row": []}
    first_line = {}  # field -> line of its first use
    inner = None
    while i < len(lines):
        lineno, raw = lines[i]
        text = raw.strip()
        if text == "}":
            break
        if not text or text.startswith("#"):
            i += 1
            continue
        key, _, rest = text.partition(" ")
        first_line.setdefault(key, lineno)
        if key == "inner":
            if rest.strip() != "{":
                raise BodySpecError("expected 'inner {'", lineno)
            inner, i = _parse_block(lines, i + 1)
            if i >= len(lines) or lines[i][1].strip() != "}":
                raise BodySpecError("unterminated inner block", lineno)
            i += 1
            continue
        if key in rows:
            rows[key].append(_parse_floats(rest, lineno))
        elif key in ("kind", "dim", "center", "exponent", "semi-axes", "offset"):
            if key in fields:
                raise BodySpecError("duplicate field %r" % key, lineno)
            fields[key] = (rest, lineno)
        else:
            raise BodySpecError("unknown field %r" % key, lineno)
        i += 1
    if "kind" not in fields:
        raise BodySpecError("missing 'kind' field", lines[i - 1][0] if i else 1)
    kind, kind_line = fields["kind"]
    kind = kind.strip()
    if kind not in _KIND_FIELDS:
        raise BodySpecError("unknown body kind %r" % kind, kind_line)
    for key, lineno in first_line.items():
        if key not in ("kind", "dim") + _KIND_FIELDS[kind]:
            raise BodySpecError("kind %s takes no field %r" % (kind, key), lineno)
    if "dim" not in fields:
        raise BodySpecError("missing 'dim' field", kind_line)
    try:
        dim = int(fields["dim"][0])
    except ValueError:
        raise BodySpecError("dim must be an integer", fields["dim"][1])

    def need(key):
        if key not in fields:
            raise BodySpecError("kind %s needs field %r" % (kind, key), kind_line)
        return fields[key]

    try:
        if kind == "ellipsoid":
            center = _parse_floats(*need("center"))
            if len(rows["shape-row"]) != dim:
                raise BodySpecError("ellipsoid needs %d shape-row lines" % dim,
                                    kind_line)
            body = Ellipsoid(center, np.vstack(rows["shape-row"]))
        elif kind == "pball":
            p = _parse_floats(*need("exponent"))
            if p.shape != (1,):
                raise BodySpecError("exponent takes one number",
                                    fields["exponent"][1])
            body = PBall(float(p[0]), _parse_floats(*need("semi-axes")))
        elif kind == "polytope":
            if not rows["vertex"]:
                raise BodySpecError("polytope needs vertex lines", kind_line)
            body = Polytope(np.vstack(rows["vertex"]))
        else:
            if inner is None:
                raise BodySpecError("affine_image needs an inner block",
                                    kind_line)
            if len(rows["matrix-row"]) != dim:
                raise BodySpecError("affine_image needs %d matrix-row lines"
                                    % dim, kind_line)
            body = AffineImage(np.vstack(rows["matrix-row"]),
                               _parse_floats(*need("offset")), inner)
    except BodySpecError:
        raise
    except ValueError as exc:
        # a constructor's complaint, reported at the body it was made for
        raise BodySpecError(str(exc), kind_line) from exc
    if body.dim != dim:
        raise BodySpecError("declared dim %d does not match parameters" % dim,
                            kind_line)
    return body, i


def parse_body(text):
    """Parse one body spec document (see serialize_body for the format)."""
    raw_lines = text.splitlines()
    if not raw_lines or raw_lines[0].strip() != _HEADER:
        raise BodySpecError("missing header %r" % _HEADER, 1)
    lines = [(i + 1, raw) for i, raw in enumerate(raw_lines[1:], start=1)]
    body, i = _parse_block(lines, 0)
    while i < len(lines):
        if lines[i][1].strip() not in ("", "}"):
            raise BodySpecError("trailing content", lines[i][0])
        i += 1
    return body


def load_body(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_body(fh.read())


def save_body(body, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_body(body))
