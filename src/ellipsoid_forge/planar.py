"""Planar-section analytics.

A PlanarSection wraps the 2-D convex figure cut from a body by a hyperplane
(dimension 3 host: the section is a planar convex curve) behind a chart and a
2-D support oracle. The support function of a section is computed by the
standard restriction formula h_sec(w) = inf_t [h_K(w + t n) - t d]. For
every body psi(t) = h_K(w + t n) - t d is convex in t, and its derivative is
selected monotonically by <support_point(w + t n), n> - d. On a smooth body
the root of that is the minimizer. On a polytope psi is piecewise linear and
its derivative a step function, so the minimizer is where the supporting
lines of psi at two support vertices tie: tie steps find it exactly, each
bringing in a new vertex. This keeps section support points at full
accuracy, which the conjugacy gates need.

The section oracles (support2, support_point2, boundary2, gauge2, normal2_at,
to_world, to_chart) take rows like the body oracles. The restriction
minimizer serves all the rows of a call at once, each row with its own
plane: on a smooth body in one vectorised Chandrupatla solve
(numeric.find_root), on a non-smooth one in tie steps over the rows still
unsettled, no more than the polytope has vertices. One restriction solve
is a _Restriction, and one ray exit a _boundary2 or _gauge2 call: each
takes a stack of rows for several sections of one body, shape (S, ..., 2)
with the rows of secs[i] at [i], and gives its results in the same layout,
so that one solve or one ray exit serves them all; a section's own oracle
is the call on a stack of one. birkhoff_normal takes rows, central_symmetry
solves a list of sections at once, and its solve also takes the rows that
a caller knows before it; is_radon_curve so tests a list of sections in
two restriction solves and two ray exits, whatever k and however many
sections. A body's line_min_gauge is the minimizer on the body's polar.
"""

from dataclasses import dataclass, field

import numpy as np

from .bodies import ray_exit
from .errors import (EndpointNotOnBoundary, GeometryError, NoSignChange,
                     NotANorm, PlaneMissesBody, UnsupportedDimension)
from .numeric import (_value, angle_between, check_roots, find_root,
                      normalize, require_sizes, unit_frame)
from .projective import Hyperplane


def _rot90(v):
    return np.stack([-v[..., 1], v[..., 0]], axis=-1)


def _row_note(index, rows):
    """' at row i' for a flat row index of an (..., 2) input; '' for one row."""
    return " at row %d" % index if np.ndim(rows) > 1 else ""


def _where(rows, index=None):
    """where(r), naming flat row r of a stack of rows, shape (S, k..., 2):
    ' at section i, row j', with i = r // k (index[i] when index renames the
    sections) and j = r % k, over two or more sections or with an index;
    else _row_note's flat index in the one section's rows. In
    _central_symmetry's solve j counts from the section's first symmetry
    row, so a caller's row j is its place after the symmetry and width
    rows."""
    if index is None and len(rows) < 2:
        return lambda r: _row_note(r, rows[0])
    k = np.prod(rows.shape[1:-1], dtype=int)
    index = range(len(rows)) if index is None else index
    return lambda r: " at section %d, row %d" % (index[r // k], r % k)


def _width_rows():
    """diameter2's 16 directions over a half-turn, then their opposites."""
    th = np.linspace(0.0, np.pi, 17)[:-1]
    u = np.column_stack([np.cos(th), np.sin(th)])
    return np.concatenate([u, -u])


def _width(h):
    """diameter2 from the section's support at the _width_rows()."""
    return float((h[:16] + h[16:]).max())


class PlanarSection:
    """Section of a convex body by a hyperplane, as a 2-D support oracle."""

    def __init__(self, body, plane):
        self.body = body
        self.plane = plane
        self.origin = self._find_origin()
        self.basis = unit_frame(plane.normal).T  # rows b1, b2
        self._diameter2 = None

    def _find_origin(self):
        """The foot of the centre c when it is interior; else the point where
        the segment from c to the support point on the far side of the plane
        crosses it. The gauge is 1-homogeneous about c, so that crossing has
        gauge reach exactly, and reach >= 1 means the plane misses the
        interior."""
        body, plane = self.body, self.plane
        n, s = plane.normal, plane.signed_distance(body.center)
        z = body.center - s * n
        if body.gauge(z) >= 1.0 - 1e-9:
            far = body.support_point(-np.sign(s) * n)
            reach = s / (s - plane.signed_distance(far))
            if not reach < 1.0 - 1e-9:
                raise PlaneMissesBody("the plane misses the interior: it cuts "
                                      "the ray to the far support point at "
                                      "reach %.6f" % reach)
            z = body.center + reach * (far - body.center)
        return z - plane.signed_distance(z) * n

    def to_world(self, p2):
        return self.origin + np.vecmat(np.asarray(p2, dtype=float), self.basis)

    def to_chart(self, z):
        return np.matvec(self.basis, np.asarray(z, dtype=float) - self.origin)

    def support2(self, w):
        return _value(_Restriction([self], [w]).values()[0])

    def support_point2(self, w):
        return _Restriction([self], [w]).points()[0]

    def boundary2(self, d2, base2=None):
        """Section boundary point from base2 (default: chart origin) along d2."""
        return _boundary2([self], [d2], None if base2 is None else [base2])[0]

    def gauge2(self, p2, base2=None):
        """Gauge of the step p2 from base2 (default: chart origin): 1 exactly
        when base2 + p2 is on the section boundary; one ray exit."""
        return _value(_gauge2([self], [p2], None if base2 is None else [base2])[0])

    def normal2_at(self, p2):
        """In-plane outer normal of the section at a boundary point."""
        nu = self.body.normal_at(self.to_world(p2))
        return normalize(np.matvec(self.basis, nu))

    def diameter2(self):
        """Widest of 16 widths h(u) + h(-u) over a half-turn; cached, and
        filled in by central_symmetry's solve when not cached yet."""
        if self._diameter2 is None:
            self._diameter2 = _width(self.support2(_width_rows()))
        return self._diameter2


#: the tie steps a restriction row on a non-smooth body may take: each step
#: brings in a support point not seen before, so on a polytope a row settles
#: within its vertex count (its facet count on the polar of a line minimum)
_TIE_STEPS = 64

#: a seeded row's first bracket, in units of its cold width 2 (1 + |w|)
_WARM = 1e-3


def _restriction_minimizer(body, w_world, n, d, where, guess=None):
    """Minimizer t of psi(t) = h(w + t n) - t d for each row w of w_world,
    each row with its own plane: n and d broadcast against the rows, so one
    solve can serve a stack of sections of one body. Returns t and, on a
    non-smooth body, the support points (v_a, v_b) whose supporting lines
    of psi meet at t; None on a smooth body.

    Each row's bracket starts at +-(1 + |w|), and an end doubles until
    the derivative <support_point(w + t n), n> - d has the right sign
    there (60 tries). A guess of t, shaped like the rows, seeds the solve:
    each row's bracket then starts at guess -+ 1e-3 (1 + |w|), both ends
    from one support_point call. A warm end whose slope has the wrong sign
    lies on the other side of the minimiser, so the row keeps it there and
    takes the cold end on its own side, doubled as above; a row whose two
    slopes do not tell the side (a zero or NaN slope) starts cold.

    On a smooth body one find_root then solves every row, starting from the
    slopes the search found at the ends, to 5e-14 of its cold width
    2 (1 + |w|), or of its bracket's width unseeded (the two differ only
    where an end doubled): a seeded row's s runs in units of the cold
    width, on [0, 1e-3] from a warm bracket. Rescaled to [0, 1], a warm
    bracket would shrink the tolerance with it, and the bisection steps it
    saves would come back. On a
    non-smooth body psi is piecewise linear: the support points v_a, v_b at
    the ends give the supporting lines <v, w> + t s of psi, s = <v, n> - d,
    and each tie step goes to where they meet, t = <v_a - v_b, w> / (s_b -
    s_a). The row is done when v_t = support_point(w + t n) ties there,
    <v_t - v_a, w + t n> = 0 to rounding, or when s_t = 0 (then v_a = v_b =
    v_t); else v_t replaces the end whose slope sign it shares. A row that
    fails raises NoSignChange or GeometryError (after _TIE_STEPS tie steps)
    naming it by where(flat index)."""
    shape, dim = w_world.shape[:-1], body.dim
    # w, n and d apart: each gather gives contiguous rows, faster for w + t n
    w = w_world.reshape(-1, dim)
    n = np.broadcast_to(n, w_world.shape).reshape(-1, dim)
    d = np.broadcast_to(d, shape).reshape(-1)

    def vertex(t, r):
        """support_point(w + t n) on rows r, and its slope <v, n> - d."""
        n_r = n.take(r, axis=0)
        v = body.support_point(w.take(r, axis=0) + t[:, None] * n_r)
        return v, np.vecdot(v, n_r) - d.take(r)

    # column 0 wants the slope < 0, column 1 > 0
    t0 = 1.0 + np.sqrt(np.vecdot(w, w))
    ends = np.stack([-t0, t0], axis=-1)
    v, slope = np.empty(ends.shape + (dim,)), np.empty(ends.shape)
    sign = np.array([-1.0, 1.0])
    wrong = np.ones(ends.shape, dtype=bool)
    if guess is not None:
        cold = 2.0 * t0
        lo = guess.reshape(-1) - 0.5 * _WARM * cold
        warm = np.stack([lo, lo + _WARM * cold], axis=-1)
        v_w, s_w = vertex(warm.reshape(-1), np.repeat(np.arange(len(w)), 2))
        v_w, s_w = v_w.reshape(v.shape), s_w.reshape(-1, 2)
        s0, s1 = s_w.T
        both = (s0 < 0.0) & (s1 > 0.0)
        below, above = (s0 > 0.0) & (s1 > 0.0), (s0 < 0.0) & (s1 < 0.0)
        # (rows, bracket end, warm end): the minimiser lies below both warm
        # ends on the rows below, above both on the rows above
        for rows, e, k in ((both, 0, 0), (both, 1, 1), (below, 1, 0), (above, 0, 1)):
            ends[rows, e], slope[rows, e], v[rows, e] = (
                warm[rows, k], s_w[rows, k], v_w[rows, k])
            wrong[rows, e] = False
    for _ in range(60):
        r, e = wrong.nonzero()
        if not r.size:
            break
        v_re, s_re = vertex(ends[r, e], r)
        wrong[r, e] = ~(sign[e] * s_re > 0.0)
        slope[r, e] = s_re
        if not body.is_smooth:  # the tie steps start from the ends
            v[r, e] = v_re
        if not np.count_nonzero(wrong):
            break
        ends[wrong] *= 2.0
    else:
        r, e = np.argwhere(wrong)[0]
        raise NoSignChange("restriction solve%s: the derivative keeps its "
                           "sign up to t = %.3g" % (where(r), ends[r, e] / 2.0))
    if body.is_smooth:
        # find_root runs on s, t = lo + s unit, with the slopes at the ends
        # s = 0 and top (1 unseeded, _WARM on a warm bracket); a row whose
        # lo + top * unit rounds off its upper end takes it there
        lo = ends[:, 0]
        unit = ends[:, 1] - lo if guess is None else cold
        top = (ends[:, 1] - lo) / unit
        if guess is not None:
            top[both] = _WARM
        off = (lo + top * unit != ends[:, 1]).nonzero()[0]
        if off.size:
            slope[off, 1] = vertex(lo[off] + top[off] * unit[off], off)[1]
        sol = find_root(lambda s, r: vertex(lo[r] + s * unit[r], r)[1],
                        (np.zeros(len(w)), top),
                        tolerances=dict(xatol=5e-14, xrtol=0.0),
                        f_init=(slope[:, 0], slope[:, 1]))
        check_roots(sol, lambda r: "restriction solve" + where(r), "the derivative")
        return (lo + sol.x * unit).reshape(shape), None
    t = np.empty(len(w))
    live = np.arange(len(w))
    for _ in range(_TIE_STEPS):
        va, vb, sa, sb = v[live, 0], v[live, 1], slope[live, 0], slope[live, 1]
        t[live] = tie_t = np.vecdot(va - vb, w[live]) / (sb - sa)
        vt, st = vertex(tie_t, live)
        q = w[live] + tie_t[:, None] * n[live]
        # v_t is an argmax at q, so <v_t - v_a, q> >= 0 but for rounding
        scale = np.sqrt(np.vecdot(q, q)) * (np.sqrt(np.vecdot(vt, vt))
                                            + np.sqrt(np.vecdot(va, va)))
        tie = np.vecdot(vt - va, q) <= 1e-14 * scale
        flat = ~tie & (st == 0.0)
        v[live[flat]] = vt[flat, None]
        go = ~(tie | flat)
        side = (st[go] > 0.0).astype(int)
        v[live[go], side], slope[live[go], side] = vt[go], st[go]
        live = live[go]
        if not live.size:
            break
    else:
        raise GeometryError("restriction solve%s: the support points did not "
                            "settle in %d tie steps" % (where(live[0]), _TIE_STEPS))
    return t.reshape(shape), tuple(v[:, e].reshape(w_world.shape) for e in (0, 1))


class _SectionRows:
    """A stack w2 of chart rows, shape (S, ..., 2) with the rows of secs[i]
    at w2[i], laid out for one restriction solve or one ray exit over
    sections of one body; ValueError for sections of two bodies or another
    leading axis. Each section's chart origin is an (S, 1..., 3) array
    that broadcasts over its block of rows, block its shape but the last
    axis. where(r) names a failed row (see _where, whose index renames the
    sections)."""

    def __init__(self, secs, w2, index=None):
        self.body = secs[0].body
        if any(sec.body is not self.body for sec in secs):
            raise ValueError("one restriction solve needs sections of one body")
        w2 = np.asarray(w2, dtype=float)
        if w2.ndim < 2 or len(w2) != len(secs):
            raise ValueError("rows of %d sections need a stack of shape (%d, ..., 2); "
                             "got %s" % (len(secs), len(secs), w2.shape))
        self.secs, self.chart = secs, w2
        self.block = (len(secs),) + (1,) * (w2.ndim - 2)
        self.origin = np.array([sec.origin for sec in secs]).reshape(self.block + (-1,))
        self.world = self.each(lambda sec, w: np.vecmat(w, sec.basis), w2)
        self.where = _where(w2, index)

    def each(self, f, x):
        """f(sec, x[i]) over the sections and their blocks of the stack x,
        stacked; a chart map then runs on each section's own basis, bits
        and all."""
        return np.array([f(sec, xi) for sec, xi in zip(self.secs, x)])

    def to_world(self, p2):
        return self.each(PlanarSection.to_world, p2)

    def to_chart(self, z):
        return self.each(PlanarSection.to_chart, z)


class _Restriction:
    """One restriction solve over the stack w2 of chart rows (see
    _SectionRows), each row on its section's plane: the minimiser t of
    every row, from which values() gives support2 and points()
    support_point2 at the rows of any cut of the last row axis, in the
    stack's layout. A failed row is named by its section and its row there
    over two or more sections or with an index, its row counted in the whole
    stack. guess, shaped like the rows, seeds the solve (see
    _restriction_minimizer); predict gives one from an earlier solve."""

    def __init__(self, secs, w2, index=None, guess=None):
        rows = self.rows = _SectionRows(secs, w2, index)
        self.n = np.array([sec.plane.normal for sec in secs]).reshape(rows.block + (-1,))
        self.d = np.array([sec.plane.offset for sec in secs]).reshape(rows.block)
        self.t, self.tied = _restriction_minimizer(rows.body, rows.world, self.n,
                                                   self.d, rows.where, guess)

    def predict(self, sel, w2):
        """The minimiser t of each row of w2, a stack of rows for the
        sections secs[sel] of this solve, predicted from this solve's rows
        of the same section. On a smooth body t is 1-homogeneous in w,
        t = |w| tau(theta) with theta the row's chart angle, and tau is
        interpolated linearly, periodic in theta, between this solve's rows
        (none of them zero)."""
        def polar(w):
            w = w.reshape(len(w), -1, 2)
            return np.arctan2(w[..., 1], w[..., 0]), np.sqrt(np.vecdot(w, w))
        (th, r), (th2, r2) = polar(self.rows.chart[sel]), polar(w2)
        tau = self.t[sel].reshape(r.shape) / r
        t = [np.interp(*args, period=2.0 * np.pi) for args in zip(th2, th, tau)]
        return (np.array(t) * r2).reshape(w2.shape[:-1])

    def values(self, cut=slice(None)):
        rows, n, d = self.rows, self.n, self.d
        world, t = rows.world[..., cut, :], self.t[..., cut]
        h = rows.body.support(world + np.expand_dims(t, -1) * n)
        return h - t * d - np.vecdot(rows.origin, world)

    def points(self, cut=slice(None)):
        rows, n, d = self.rows, self.n, self.d
        dist = lambda z: np.vecdot(n, z) - d
        if self.tied is None:
            world, t = rows.world[..., cut, :], self.t[..., cut]
            z = rows.body.support_point(world + np.expand_dims(t, -1) * n)
            return rows.to_chart(z - np.expand_dims(dist(z), -1) * n)
        # psi kinks at t: the support points that tie there (one point on the
        # plane when its slope is 0) span an exposed face of K, which meets the
        # plane in the section's support point (a itself when the face is
        # parallel to the plane)
        a, b = (v[..., cut, :] for v in self.tied)
        da, db = dist(a), dist(b)
        same = np.equal(da, db)
        frac = np.expand_dims(da / np.where(same, 1.0, da - db), -1)
        return rows.to_chart(np.where(same[..., None], a, a + frac * (b - a)))


def _boundary2(secs, d2, base2=None, index=None):
    """boundary2 of each row of the stack d2, from base2 (default: the
    chart origin; a stack that broadcasts against d2), in one ray_exit
    call. Over two or more sections, or with an index, a failed ray raises
    its error again, naming its section and its row there."""
    rows = _SectionRows(secs, d2, index)
    base = rows.origin if base2 is None else rows.to_world(base2)
    try:
        z = ray_exit(rows.body, base, rows.world)
    except GeometryError as exc:
        if index is None and len(secs) < 2:
            raise
        # find the first failing row: rows solve independently
        world = rows.world.reshape(-1, 3)
        base = np.broadcast_to(base, rows.world.shape).reshape(-1, 3)
        for r in range(len(world)):
            try:
                ray_exit(rows.body, base[r], world[r])
            except GeometryError as one:
                raise type(one)("ray exit%s: %s" % (rows.where(r), one)) from exc
        raise
    return rows.to_chart(z)


def _gauge2(secs, p2, base2=None, index=None):
    """gauge2 of each step of the stack p2, from base2 (default: the chart
    origin), in one ray exit, as _boundary2."""
    p2 = np.asarray(p2, dtype=float)
    r = np.sqrt(np.vecdot(p2, p2))
    # a zero step has gauge 0 along any ray: its ray is taken along (1, 0)
    zero = r == 0.0
    d2 = (p2 + np.multiply.outer(zero, (1.0, 0.0))) / np.expand_dims(r + zero, -1)
    q = _boundary2(secs, d2, base2, index)
    if base2 is not None:
        q = q - base2
    return r / np.sqrt(np.vecdot(q, q))


def section(body, plane):
    """Restriction oracle: the planar convex figure plane ∩ body, for a 3-D
    body and a plane in R^3."""
    if not isinstance(plane, Hyperplane):
        raise TypeError("expected a Hyperplane")
    if body.dim != 3 or plane.normal.shape != (3,):
        raise UnsupportedDimension(
            "section needs a 3-D body and a plane in R^3; the body has "
            "dimension %d, the plane normal shape %s"
            % (body.dim, plane.normal.shape))
    return PlanarSection(body, plane)


@dataclass
class SymmetryResult:
    ok: bool
    center: np.ndarray
    center_world: np.ndarray
    residual: float
    tol: float


def central_symmetry(sec, tol=1e-7, m=96, seed=0):
    """Least-squares center from h(u) - h(-u) = 2<c,u> over sampled u; m >= 3,
    one more than the centre's two unknowns.

    sec may be a list of sections of one body: the result is then the list
    of their SymmetryResults, from one restriction solve over the 2m rows of
    every section. When any section's diameter2 is not cached yet, the 32
    diameter2 width rows join every section's rows, and each uncached
    section caches its width from them. A single section is solved the same
    way."""
    require_sizes("central_symmetry", {"m": m}, least={"m": 3})
    secs = sec if isinstance(sec, list) else [sec]
    if not secs:
        return []
    results, _ = _central_symmetry(secs, tol, m, seed)
    return results if isinstance(sec, list) else results[0]


#: no caller rows, for _central_symmetry
_NO_ROWS = np.empty((0, 2))


def _central_symmetry(secs, tol, m, seed, rows=_NO_ROWS):
    """central_symmetry's results for the list secs, and its _Restriction,
    which also solves the rows a caller knows before it: (p, 2) rows
    shared by every section, or an (S, p, 2) block per section. They
    follow the symmetry and width rows, so the caller reads them at
    slice(-p, None), with solve.values for support2 or solve.points for
    support_point2; a failed row is named counting from the first symmetry
    row."""
    rng = np.random.default_rng(seed)
    th = rng.uniform(0.0, np.pi / m) + np.pi * np.arange(m) / m
    u = np.column_stack([np.cos(th), np.sin(th)])
    dirs = [u, -u]
    if any(s._diameter2 is None for s in secs):
        dirs.append(_width_rows())
    dirs = np.concatenate(dirs)
    solve = _Restriction(secs, np.concatenate(
        [np.broadcast_to(dirs, (len(secs),) + dirs.shape),
         np.broadcast_to(rows, (len(secs),) + rows.shape[-2:])], axis=1))
    hs = solve.values(slice(len(dirs)))
    lhs = 2.0 * u
    results = []
    for s, h in zip(secs, hs):
        if s._diameter2 is None:
            s._diameter2 = _width(h[2 * m:2 * m + 32])
        rhs = h[:m] - h[m:2 * m]
        c, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
        residual = float(np.abs(rhs - lhs @ c).max()) / s.diameter2()
        results.append(SymmetryResult(bool(residual <= tol), c, s.to_world(c),
                                      residual, tol))
    return results, solve


def affine_diameter_residual(sec, a2, b2):
    """Angular defect between the outer normals at the endpoints and exact
    anti-parallelism. Needs a smooth body: normal_at raises NonSmoothBody.
    a2 and b2 may be (..., 2) rows of chords, one angle per row, from one
    gauge2 and one normal2_at call; EndpointNotOnBoundary names the first
    row with an end off the boundary."""
    a2, b2 = np.broadcast_arrays(np.asarray(a2, dtype=float),
                                 np.asarray(b2, dtype=float))
    ends = np.stack([a2, b2])
    g = np.asarray(sec.gauge2(ends)).reshape(2, -1)
    off = np.argwhere((np.abs(g - 1.0) > 1e-8).T)  # (row, end), row-major
    if off.size:
        r, e = off[0]
        raise EndpointNotOnBoundary("gauge %.9f at a chord endpoint%s"
                                    % (g[e, r], _row_note(r, a2)))
    nu = sec.normal2_at(ends)
    return angle_between(nu[0], -nu[1])


def _chords(a2, b2, diam, where):
    """The chords b - a and their lengths; ValueError, naming the row by
    where, for a chord shorter than 1e-6 diam."""
    chord = b2 - a2
    length = np.sqrt(np.vecdot(chord, chord))
    short = np.flatnonzero(length < 1e-6 * diam)
    if short.size:
        raise ValueError("degenerate chord%s" % where(short[0]))
    return chord, length


def _closure_normals(q_plus, q_minus, n_d, diam):
    """Unit normal n_p of each candidate conjugate [q-, q+] and whether its
    contacts are apart. A row whose contacts coincide has no conjugate: it
    is aimed along n_d, so that support2 sees a unit direction."""
    span = q_plus - q_minus
    gap = np.sqrt(np.vecdot(span, span))
    apart = gap >= 1e-6 * diam
    n_p = np.where(np.expand_dims(apart, -1),
                   _rot90(span / np.expand_dims(np.where(apart, gap, 1.0), -1)),
                   n_d)
    return n_p, apart


def _closure_defect(a2, b2, n_p, apart, h_plus, h_minus, diam):
    """Parallelogram closure defect of each chord [a, b]: how far the sides
    with normals +-n_p (support values h+-) stand off the endpoint each
    should touch, over diam; inf where the contacts coincide."""
    sa, sb = np.vecdot(a2, n_p), np.vecdot(b2, n_p)
    defect = np.maximum(h_plus - np.maximum(sa, sb),
                        h_minus + np.minimum(sa, sb)) / diam
    return np.where(apart, np.maximum(defect, 0.0), np.inf)


@dataclass
class BirkhoffResult:
    ok: bool
    min_ratio: float


#: the norm gate: a section is a norm's unit ball when its central symmetry
#: residual is within this
_NORM_TOL = 1e-6


def _norm_gate(sym):
    """A section's SymmetryResult at the norm gate's tol; NotANorm when the
    section misses the gate."""
    if not sym.ok:
        raise NotANorm("section symmetry residual %.3e" % sym.residual)
    return sym


def _birkhoff_normals(x, y, nx, where):
    """Unit normal n of each y, turned so that <n, x> >= 0; ValueError,
    naming the row by where, when x (gauge nx) or y is zero."""
    ny = np.sqrt(np.vecdot(y, y))
    zero = np.flatnonzero((nx == 0.0) | (ny == 0.0))
    if zero.size:
        raise ValueError("birkhoff_normal needs nonzero vectors%s"
                         % where(zero[0]))
    n = _rot90(y / np.expand_dims(ny, -1))
    return np.where(np.expand_dims(np.vecdot(n, x) < 0.0, -1), -n, n)


def _birkhoff_ratio(x, nx, n, h, center):
    """Whether x ⊣ y and min_a ||x + a y|| / ||x||, for the unit normal n of
    y from _birkhoff_normals: by norm duality <n, x> / h_B(n), capped by
    a = 0, with h_B(n) = h - <center, n> and h the section's support at n."""
    fmin = np.minimum(np.vecdot(n, x) / (h - np.vecdot(center, n)), nx)
    # relative slack for rounding in the norm
    return fmin >= nx * (1.0 - 1e-9), fmin / nx


def birkhoff_normal(sec, x, y, center=None):
    """Birkhoff normality x ⊣ y in the normed plane whose unit ball B is the
    (centrally symmetric) section about center: ||x + a y|| >= ||x|| for all a.
    By norm duality the line's minimum is <n, x> / h_B(n), n the unit normal
    of y with <n, x> >= 0, h_B(n) = support2(n) - <center, n>; a = 0 caps it.
    x and y may be (..., 2) rows, tested in one gauge2 and one support2 call;
    the result then holds a row of verdicts and ratios."""
    if center is None:
        center = _norm_gate(central_symmetry(sec, tol=_NORM_TOL)).center
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float),
                               np.asarray(y, dtype=float))
    nx = np.asarray(sec.gauge2(x, base2=center))
    n = _birkhoff_normals(x, y, nx, lambda r: _row_note(r, x))
    ok, ratio = _birkhoff_ratio(x, nx, n, sec.support2(n), center)
    return BirkhoffResult(ok if ok.ndim else bool(ok), _value(ratio))


@dataclass
class RadonResult:
    ok: bool
    conjugacy_ok: bool
    normality_ok: bool
    worst_defect: float
    worst_direction: np.ndarray
    worst_asymmetry: float
    center: np.ndarray
    detail: dict = field(default_factory=dict)


def is_radon_curve(sec, k=128, contact_tol=1e-8, seed=0, cross_pairs=16):
    """Radon verdict on a centrally symmetric section.

    Primary route: every swept diameter admits a conjugate diameter (the
    circumscribed-parallelogram closure defect stays under tolerance).
    Cross-check route: Birkhoff normality is symmetric on the sampled
    conjugate pairs, min(k, cross_pairs) of the k diameters, evenly spaced,
    each tested both ways. Both are computed and both must agree for a pass.
    A section whose central symmetry residual exceeds the norm gate raises
    NotANorm.

    sec may be a list of sections of one body: the result is then the list
    of their RadonResults, None for a section that fails the norm gate.
    Every section, and a single one the same way, takes two restriction
    solves in all, whatever k and however many sections: the norm gate's
    central_symmetry, whose solve also takes every section's conjugate
    contacts and the Birkhoff pairs' second vectors as support_point2 rows;
    and one support2 over every closure side and Birkhoff normal, which on
    a smooth body starts from the first solve's minimisers (see
    _Restriction.predict). The diameters' ends are one ray exit and the
    Birkhoff gauges one more. In a list of two or more sections a failed
    row names its section in the list and its row there.
    """
    require_sizes("is_radon_curve", {"k": k, "cross_pairs": cross_pairs})
    listed = isinstance(sec, list)
    secs = sec if listed else [sec]
    if not secs:
        return []
    rng = np.random.default_rng(seed)
    th = rng.uniform(0.0, np.pi / k) + np.pi * np.arange(k) / k
    u = np.column_stack([np.cos(th), np.sin(th)])
    p = min(k, cross_pairs)
    pairs = np.arange(p) * k // p
    # every diameter is the chord through the centre c2 along u: its ends
    # are the ray exits from c2 along +-u, so the parallelogram's sides
    # parallel to it have the normals +-n_d, n_d = rot90(u), whatever c2 is.
    # Their contacts, and the Birkhoff pairs' second vectors at n_d[pairs],
    # join the norm gate's symmetry solve as support points
    n_d = _rot90(u)
    contacts = np.concatenate([n_d, -n_d, n_d[pairs]])
    syms, solve = _central_symmetry(secs, _NORM_TOL, 96, 0, rows=contacts)
    if not listed:
        _norm_gate(syms[0])
    live = np.flatnonzero([sym.ok for sym in syms])
    if not live.size:
        return [None] * len(secs)
    # the rows of the L live sections are (L, ..., 2) stacks; a failed row
    # names its section by its index in secs
    secs_l = [secs[i] for i in live]
    index = live if len(secs) > 1 else None
    c2 = np.stack([syms[i].center for i in live])[:, None]
    diam = np.array([sec.diameter2() for sec in secs_l])[:, None]
    q = solve.points(slice(-len(contacts), None))[live]

    d2 = np.concatenate([u, -u])
    ends = _boundary2(secs_l, np.broadcast_to(d2, (len(live),) + d2.shape), c2, index)
    e_plus, e_minus = ends[:, :k], ends[:, k:]
    _chords(e_minus, e_plus, diam, _where(e_plus, index))
    n_p, apart = _closure_normals(q[:, :k], q[:, k:2 * k],
                                  np.broadcast_to(n_d, e_plus.shape), diam)
    xs, ys = e_plus[:, pairs] - c2, q[:, 2 * k:] - c2
    x, y = np.concatenate([xs, ys], axis=1), np.concatenate([ys, xs], axis=1)
    nx = _gauge2(secs_l, x, c2, index)
    n_b = _birkhoff_normals(x, y, nx, _where(x, index))
    # on a smooth body the symmetry solve's minimisers, ~500 directions per
    # section, put these rows' well inside their warm brackets (at most
    # 2e-5 of the cold width off on a central e149 section, against 5e-4)
    w2 = np.concatenate([n_p, -n_p, n_b], axis=1)
    guess = solve.predict(live, w2) if solve.rows.body.is_smooth else None
    h = _Restriction(secs_l, w2, index, guess).values()
    defect = _closure_defect(e_minus, e_plus, n_p, apart, h[:, :k],
                             h[:, k:2 * k], diam)
    normal, ratio = _birkhoff_ratio(x, nx, n_b, h[:, 2 * k:], c2)
    asymmetry = 1.0 - np.minimum(ratio[:, :p], ratio[:, p:])

    results = [None] * len(secs)
    for j, i in enumerate(live):
        worst = int(np.argmax(defect[j]))
        conj_ok = not (defect[j] > contact_tol).any()
        norm_ok = bool(normal[j].all())
        results[i] = RadonResult(
            conj_ok and norm_ok, conj_ok, norm_ok, float(defect[j, worst]),
            u[worst], float(np.max(asymmetry[j], initial=0.0)), syms[i].center,
            detail={"k": k, "contact_tol": contact_tol,
                    "symmetry_residual": syms[i].residual})
    return results if listed else results[0]
