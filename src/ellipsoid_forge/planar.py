"""Planar-section analytics.

A Sections stack holds S sections of one 3-D body by planes as arrays:
normals, offsets, chart origins, bases, cached widths and each section's
name, its index in the family it was built with. One vectorised origin
search builds them all, and a mask or slice of a stack is a stack that keeps
the names. A PlanarSection, from section(body, plane), is a stack of one:
the 2-D figure cut from a body by a hyperplane behind a chart and a 2-D
support oracle. The support function of a section is computed by the
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
takes a stack of sections and its rows as one (S, ..., 2) array, the rows
of section i at [i], and gives its results in the same layout; the stack's
chart maps take (S, ..., 2) and (S, ..., 3) rows the same way. A
PlanarSection's own oracle is the call on its stack of one. A failed row is
named by its section's name and its row there. birkhoff_normal takes rows,
central_symmetry solves a stack at once, and its solve also takes the rows
that a caller knows before it; is_radon_curve so tests a stack in two
restriction solves and two ray exits, whatever k and however many
sections. A body's line_min_gauge is the minimizer on the body's polar.
"""

import copy
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


def _where(rows, secs):
    """where(r), naming flat row r of a stack of rows of secs, shape
    (S, k..., 2): ' at section i, row j', with i the name of section r // k
    and j = r % k; for a PlanarSection, _row_note's flat index in its rows.
    In _central_symmetry's solve j counts from the section's first symmetry
    row, so a caller's row j is its place after the symmetry and width
    rows."""
    if isinstance(secs, PlanarSection):
        return lambda r: _row_note(r, rows[0])
    k = np.prod(rows.shape[1:-1], dtype=int)
    return lambda r: " at section %d, row %d" % (secs.names[r // k], r % k)


def _width_rows():
    """diameter2's 16 directions over a half-turn, then their opposites."""
    th = np.linspace(0.0, np.pi, 17)[:-1]
    u = np.column_stack([np.cos(th), np.sin(th)])
    return np.concatenate([u, -u])


def _width(h):
    """diameter2 from a section's support at the _width_rows(), or of each
    section from rows (S, 32)."""
    return (h[..., :16] + h[..., 16:]).max(axis=-1)


class Sections:
    """S sections of one 3-D body, by the planes <normals[i], x> = offsets[i],
    held as arrays: normals (S, 3), offsets (S,), chart origins (S, 3),
    bases (S, 2, 3) with rows b1, b2, widths (S,) (diameter2, NaN until
    cached) and names (S,), each section's index in the family it was built
    with. Each chart origin is the foot of the centre c when it is interior;
    else where the segment from c to the support point on the far side of
    the plane crosses it. The gauge is 1-homogeneous about c, so that
    crossing has gauge reach exactly, and reach >= 1 - 1e-9 raises
    PlaneMissesBody naming the plane: it misses the interior, or all but
    grazes it. One gauge call and at most one support_point call serve
    every plane."""

    def __init__(self, body, normals, offsets):
        normals = np.asarray(normals, dtype=float)
        offsets = np.asarray(offsets, dtype=float)
        if body.dim != 3 or normals.ndim != 2 or normals.shape[1] != 3:
            raise UnsupportedDimension(
                "sections need a 3-D body and planes in R^3; the body has "
                "dimension %d, the plane normals shape %s"
                % (body.dim, normals.shape[1:]))
        c = body.center
        s = np.vecdot(normals, c) - offsets
        z = c - s[:, None] * normals
        out = body.gauge(z) >= 1.0 - 1e-9
        if out.any():
            n = normals[out]
            far = body.support_point(-np.sign(s[out])[:, None] * n)
            reach = s[out] / (s[out] - (np.vecdot(n, far) - offsets[out]))
            miss = ~(reach < 1.0 - 1e-9)
            if miss.any():
                i = np.argmax(miss)
                raise PlaneMissesBody(
                    "%s misses the interior: it cuts the ray to the far "
                    "support point at reach %r"
                    % ("plane %d" % np.flatnonzero(out)[i] if len(normals) > 1
                       else "the plane", float(reach[i])))
            z[out] = c + reach[:, None] * (far - c)
        self.body, self.normals, self.offsets = body, normals, offsets
        self.origins = z - (np.vecdot(normals, z) - offsets)[:, None] * normals
        # each basis is its unit_frame's transpose, column-major: C-contiguous
        # ones give np.vecmat and np.matvec other last bits. One normal
        # takes unit_frame's one-vector path, the same bits in less time
        frames = unit_frame(normals) if len(normals) != 1 else unit_frame(normals[0])[None]
        self.bases = frames.swapaxes(-1, -2)
        self.widths = np.full(len(normals), np.nan)
        self.names = np.arange(len(normals))

    def __len__(self):
        return len(self.names)

    def __getitem__(self, sel):
        """The sections sel, a mask, slice or index array, as a stack that
        keeps their names; an int i gives section i as a PlanarSection on
        views of the stack's arrays, so that its width caches in both."""
        part = copy.copy(self)
        if isinstance(sel, (int, np.integer)):
            i = range(len(self))[sel]
            part.__class__, sel = PlanarSection, slice(i, i + 1)
        for key in ("normals", "offsets", "origins", "bases", "widths", "names"):
            setattr(part, key, getattr(self, key)[sel])
        return part

    @property
    def planes(self):
        return [Hyperplane(n, d) for n, d in zip(self.normals, self.offsets)]

    def _block(self, x, a):
        """a, one entry per section, shaped to broadcast against the stack x
        of rows, (S, ..., k); one row (k,) is every section's."""
        if np.ndim(x) > 1:
            return a[(slice(None),) + (None,) * (np.ndim(x) - 2)]
        return a[0] if len(a) == 1 else a

    def to_world(self, p2):
        p2 = np.asarray(p2, dtype=float)
        return self._block(p2, self.origins) + np.vecmat(p2, self._block(p2, self.bases))

    def to_chart(self, z):
        z = np.asarray(z, dtype=float)
        return np.matvec(self._block(z, self.bases), z - self._block(z, self.origins))


class PlanarSection(Sections):
    """Section of a convex body by a hyperplane, as a 2-D support oracle: a
    stack of one, whose oracles take rows (..., 2) of any shape."""

    def __init__(self, body, plane):
        super().__init__(body, plane.normal[None], [plane.offset])

    plane = property(lambda self: self.planes[0])
    origin = property(lambda self: self.origins[0])
    basis = property(lambda self: self.bases[0])

    def support2(self, w):
        return _value(_Restriction(self, _one(w)).values()[0])

    def support_point2(self, w):
        return _Restriction(self, _one(w)).points()[0]

    def boundary2(self, d2, base2=None):
        """Section boundary point from base2 (default: chart origin) along d2."""
        return _boundary2(self, _one(d2), _one(base2))[0]

    def gauge2(self, p2, base2=None):
        """Gauge of the step p2 from base2 (default: chart origin): 1 exactly
        when base2 + p2 is on the section boundary; one ray exit."""
        return _value(_gauge2(self, _one(p2), _one(base2))[0])

    def normal2_at(self, p2):
        """In-plane outer normal of the section at a boundary point."""
        nu = self.body.normal_at(self.to_world(p2))
        return normalize(np.matvec(self.basis, nu))

    def diameter2(self):
        """Widest of 16 widths h(u) + h(-u) over a half-turn; cached, and
        filled in by central_symmetry's solve when not cached yet."""
        if np.isnan(self.widths[0]):
            self.widths[0] = _width(self.support2(_width_rows()))
        return float(self.widths[0])


def _one(x):
    """The rows x of one section as a stack of one; None stays None."""
    return None if x is None else np.asarray(x, dtype=float)[None]


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


def _rows(secs, x):
    """x as a stack of rows of secs, shape (S, ..., 2); ValueError for
    another leading axis."""
    x = np.asarray(x, dtype=float)
    if x.ndim < 2 or len(x) != len(secs):
        raise ValueError("rows of %d sections need a stack of shape (%d, ..., 2); "
                         "got %s" % (len(secs), len(secs), x.shape))
    return x


class _Restriction:
    """One restriction solve over the stack w2 of chart rows of the
    sections secs, shape (S, ..., 2), each row on its section's plane: the
    minimiser t of every row, from which values() gives support2 and
    points() support_point2 at the rows of any cut of the last row axis, in
    the stack's layout. A failed row is named by _where. guess, shaped like
    the rows, seeds the solve (see _restriction_minimizer); predict gives
    one from an earlier solve."""

    def __init__(self, secs, w2, guess=None):
        self.secs, self.chart = secs, _rows(secs, w2)
        self.world = np.vecmat(self.chart, secs._block(self.chart, secs.bases))
        self.n = secs._block(self.chart, secs.normals)
        self.d = secs._block(self.chart, secs.offsets)
        self.t, self.tied = _restriction_minimizer(secs.body, self.world, self.n,
                                                   self.d, _where(self.chart, secs),
                                                   guess)

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
        (th, r), (th2, r2) = polar(self.chart[sel]), polar(w2)
        tau = self.t[sel].reshape(r.shape) / r
        t = [np.interp(*args, period=2.0 * np.pi) for args in zip(th2, th, tau)]
        return (np.array(t) * r2).reshape(w2.shape[:-1])

    def values(self, cut=slice(None)):
        secs, n, d = self.secs, self.n, self.d
        world, t = self.world[..., cut, :], self.t[..., cut]
        h = secs.body.support(world + np.expand_dims(t, -1) * n)
        return h - t * d - np.vecdot(secs._block(world, secs.origins), world)

    def points(self, cut=slice(None)):
        secs, n, d = self.secs, self.n, self.d
        dist = lambda z: np.vecdot(n, z) - d
        if self.tied is None:
            world, t = self.world[..., cut, :], self.t[..., cut]
            z = secs.body.support_point(world + np.expand_dims(t, -1) * n)
            return secs.to_chart(z - np.expand_dims(dist(z), -1) * n)
        # psi kinks at t: the support points that tie there (one point on the
        # plane when its slope is 0) span an exposed face of K, which meets the
        # plane in the section's support point (a itself when the face is
        # parallel to the plane)
        a, b = (v[..., cut, :] for v in self.tied)
        da, db = dist(a), dist(b)
        same = np.equal(da, db)
        frac = np.expand_dims(da / np.where(same, 1.0, da - db), -1)
        return secs.to_chart(np.where(same[..., None], a, a + frac * (b - a)))


def _boundary2(secs, d2, base2=None):
    """boundary2 of each row of the stack d2 of rows of the sections secs,
    from base2 (default: the chart origin; a stack that broadcasts against
    d2), in one ray_exit call. Over a stack that is not a PlanarSection a
    failed ray raises its error again, naming its section and its row
    there."""
    d2 = _rows(secs, d2)
    world = np.vecmat(d2, secs._block(d2, secs.bases))
    base = secs._block(d2, secs.origins) if base2 is None else secs.to_world(base2)
    try:
        z = ray_exit(secs.body, base, world)
    except GeometryError as exc:
        if isinstance(secs, PlanarSection):
            raise
        # find the first failing row: rows solve independently
        where = _where(d2, secs)
        base = np.broadcast_to(base, world.shape).reshape(-1, 3)
        for r, d in enumerate(world.reshape(-1, 3)):
            try:
                ray_exit(secs.body, base[r], d)
            except GeometryError as one:
                raise type(one)("ray exit%s: %s" % (where(r), one)) from exc
        raise
    return secs.to_chart(z)


def _gauge2(secs, p2, base2=None):
    """gauge2 of each step of the stack p2, from base2 (default: the chart
    origin), in one ray exit, as _boundary2."""
    p2 = np.asarray(p2, dtype=float)
    r = np.sqrt(np.vecdot(p2, p2))
    # a zero step has gauge 0 along any ray: its ray is taken along (1, 0)
    zero = r == 0.0
    d2 = (p2 + np.multiply.outer(zero, (1.0, 0.0))) / np.expand_dims(r + zero, -1)
    q = _boundary2(secs, d2, base2)
    if base2 is not None:
        q = q - base2
    return r / np.sqrt(np.vecdot(q, q))


def section(body, plane):
    """Restriction oracle: the planar convex figure plane ∩ body, for a 3-D
    body and a plane in R^3."""
    if not isinstance(plane, Hyperplane):
        raise TypeError("expected a Hyperplane")
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

    sec may be a Sections stack: the result is then the list of their
    SymmetryResults, from one restriction solve over the 2m rows of every
    section. When any section's diameter2 is not cached yet, the 32
    diameter2 width rows join every section's rows, and each uncached
    section caches its width from them. A PlanarSection is solved the same
    way, as a stack of one."""
    require_sizes("central_symmetry", {"m": m}, least={"m": 3})
    if not len(sec):
        return []
    results, _ = _central_symmetry(sec, tol, m, seed)
    return results[0] if isinstance(sec, PlanarSection) else results


#: no caller rows, for _central_symmetry
_NO_ROWS = np.empty((0, 2))


def _central_symmetry(secs, tol, m, seed, rows=_NO_ROWS):
    """central_symmetry's results for the stack secs, as a list, and its
    _Restriction, which also solves the rows a caller knows before it:
    (p, 2) rows shared by every section, or an (S, p, 2) block per section.
    They follow the symmetry and width rows, so the caller reads them at
    slice(-p, None), with solve.values for support2 or solve.points for
    support_point2; a failed row is named counting from the first symmetry
    row."""
    rng = np.random.default_rng(seed)
    th = rng.uniform(0.0, np.pi / m) + np.pi * np.arange(m) / m
    u = np.column_stack([np.cos(th), np.sin(th)])
    dirs = [u, -u]
    uncached = np.isnan(secs.widths)
    if uncached.any():
        dirs.append(_width_rows())
    dirs = np.concatenate(dirs)
    solve = _Restriction(secs, np.concatenate(
        [np.broadcast_to(dirs, (len(secs),) + dirs.shape),
         np.broadcast_to(rows, (len(secs),) + rows.shape[-2:])], axis=1))
    hs = solve.values(slice(len(dirs)))
    if uncached.any():
        secs.widths[uncached] = _width(hs[uncached, 2 * m:2 * m + 32])
    lhs, rhs = 2.0 * u, hs[:, :m] - hs[:, m:2 * m]
    # one lstsq per section: a stacked right-hand side gives other last bits
    centers = np.array([np.linalg.lstsq(lhs, b, rcond=None)[0] for b in rhs])
    residuals = [float(np.abs(b - lhs @ c).max()) / w
                 for b, c, w in zip(rhs, centers, secs.widths.tolist())]
    return [SymmetryResult(bool(r <= tol), c, cw, r, tol) for c, cw, r
            in zip(centers, secs.to_world(centers), residuals)], solve


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

    sec may be a Sections stack: the result is then the list of their
    RadonResults, None for a section that fails the norm gate.
    Every section, and a single one the same way, takes two restriction
    solves in all, whatever k and however many sections: the norm gate's
    central_symmetry, whose solve also takes every section's conjugate
    contacts and the Birkhoff pairs' second vectors as support_point2 rows;
    and one support2 over every closure side and Birkhoff normal, which on
    a smooth body starts from the first solve's minimisers (see
    _Restriction.predict). The diameters' ends are one ray exit and the
    Birkhoff gauges one more. In a stack a failed row names its section
    and its row there.
    """
    require_sizes("is_radon_curve", {"k": k, "cross_pairs": cross_pairs})
    one = isinstance(sec, PlanarSection)
    if not len(sec):
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
    syms, solve = _central_symmetry(sec, _NORM_TOL, 96, 0, rows=contacts)
    if one:
        _norm_gate(syms[0])
    live = np.flatnonzero([sym.ok for sym in syms])
    if not live.size:
        return [None] * len(sec)
    # the rows of the L live sections are (L, ..., 2) stacks; their stack
    # keeps the sections' names, so a failed row names its section in sec
    secs = sec[live]
    c2 = np.stack([syms[i].center for i in live])[:, None]
    diam = secs.widths[:, None]
    q = solve.points(slice(-len(contacts), None))[live]

    d2 = np.concatenate([u, -u])
    ends = _boundary2(secs, np.broadcast_to(d2, (len(live),) + d2.shape), c2)
    e_plus, e_minus = ends[:, :k], ends[:, k:]
    _chords(e_minus, e_plus, diam, _where(e_plus, secs))
    n_p, apart = _closure_normals(q[:, :k], q[:, k:2 * k],
                                  np.broadcast_to(n_d, e_plus.shape), diam)
    xs, ys = e_plus[:, pairs] - c2, q[:, 2 * k:] - c2
    x, y = np.concatenate([xs, ys], axis=1), np.concatenate([ys, xs], axis=1)
    nx = _gauge2(secs, x, c2)
    n_b = _birkhoff_normals(x, y, nx, _where(x, secs))
    # on a smooth body the symmetry solve's minimisers, ~500 directions per
    # section, put these rows' well inside their warm brackets (at most
    # 2e-5 of the cold width off on a central e149 section, against 5e-4)
    w2 = np.concatenate([n_p, -n_p, n_b], axis=1)
    guess = solve.predict(live, w2) if secs.body.is_smooth else None
    h = _Restriction(secs, w2, guess).values()
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
