"""Planar-section analytics.

A PlanarSection wraps the 2-D convex figure cut from a body by a hyperplane
(dimension 3 host: the section is a planar convex curve) behind a chart and a
2-D support oracle. The support function of a section is computed by the
standard restriction formula h_sec(w) = inf_t [h_K(w + t n) - t d]. For
every body h_K(w + t n) - t d is convex in t, and its derivative is selected
monotonically by <support_point(w + t n), n> - d, so the root of that (on a
polytope, the point where it jumps) is the minimizer; this keeps section
support points at full solver accuracy, which the conjugacy gates need.

The section oracles (support2, support_point2, boundary2, gauge2, normal2_at,
to_world, to_chart) take rows like the body oracles. The restriction
minimizer is one vectorised Chandrupatla solve (numeric.find_root) over
all the rows of a call, each row with its own plane, so conjugate_diameter
and birkhoff_normal take rows too, is_radon_curve makes one call of each
for all its diameters and Birkhoff pairs, and central_symmetry solves a
list of sections of one body at once.
"""

from dataclasses import dataclass, field

import numpy as np

from .bodies import ray_exit
from .errors import (EndpointNotOnBoundary, NoSignChange, NotANorm, NotFound,
                     PlaneMissesBody, UnsupportedDimension)
from .numeric import (_value, angle_between, check_roots, find_root,
                      normalize, require_sizes, unit_frame)
from .projective import Hyperplane


def _rot90(v):
    return np.stack([-v[..., 1], v[..., 0]], axis=-1)


def _row_note(index, rows):
    """' at row i' for a flat row index of an (..., 2) input; '' for one row."""
    return " at row %d" % index if np.ndim(rows) > 1 else ""


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
        return _value(_support2([self], [np.asarray(w, dtype=float)])[0])

    def support_point2(self, w):
        w_world = np.vecmat(np.asarray(w, dtype=float), self.basis)
        n, dist = self.plane.normal, self.plane.signed_distance
        t, bracket = _restriction_minimizer(self.body, w_world, n,
                                            self.plane.offset,
                                            lambda r: _row_note(r, w_world))
        if self.body.is_smooth:
            z = self.body.support_point(w_world + np.multiply.outer(t, n))
            return self.to_chart(z - np.multiply.outer(dist(z), n))
        # psi kinks at t: the support points at the ends of the final bracket
        # straddle it and span an exposed face of K, which meets the plane in
        # the section's support point (a itself when the face is parallel to
        # the plane)
        a, b = self.body.support_point(
            w_world + np.multiply.outer(np.stack(bracket), n))
        da, db = dist(a), dist(b)
        same = np.equal(da, db)
        frac = np.expand_dims(da / np.where(same, 1.0, da - db), -1)
        return self.to_chart(np.where(same[..., None], a, a + frac * (b - a)))

    def boundary2(self, d2, base2=None):
        """Section boundary point from base2 (default: chart origin) along d2."""
        base_w = self.origin if base2 is None else self.to_world(base2)
        return self.to_chart(ray_exit(self.body, base_w, np.vecmat(d2, self.basis)))

    def gauge2(self, p2, base2=None):
        """Gauge of the step p2 from base2 (default: chart origin): 1 exactly
        when base2 + p2 is on the section boundary; one ray exit."""
        base2 = np.zeros(2) if base2 is None else np.asarray(base2, dtype=float)
        p2 = np.asarray(p2, dtype=float)
        r = np.sqrt(np.vecdot(p2, p2))
        # a zero step has gauge 0 along any ray: its ray is taken along (1, 0)
        zero = r == 0.0
        d2 = (p2 + np.multiply.outer(zero, (1.0, 0.0))) / np.expand_dims(r + zero, -1)
        q = self.boundary2(d2, base2=base2) - base2
        return _value(r / np.sqrt(np.vecdot(q, q)))

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


def _restriction_minimizer(body, w_world, n, d, where):
    """Minimizer t of psi(t) = h(w + t n) - t d for each row w of w_world,
    each row with its own plane: n and d broadcast against the rows, so one
    solve can serve the sections of one body. Returns t and the ends
    (t_a, t_b) of the final bracket, which straddle it.

    Each row's bracket starts at +-(1 + |w|), and an end doubles until
    the derivative <support_point(w + t n), n> - d has the right sign
    there (60 tries). One find_root then solves every row on its bracket
    rescaled to [0, 1], to 5e-14 of the bracket width. A row that fails
    raises NoSignChange or GeometryError naming it by where(flat index)."""
    shape, dim = w_world.shape[:-1], body.dim
    w = w_world.reshape(-1, dim)
    # each row as [w | n | d], so that a row's plane costs no second lookup
    rows = np.concatenate([w, np.broadcast_to(n, w.shape),
                           np.broadcast_to(d, shape).reshape(-1, 1)], axis=1)

    def dpsi(t, r):
        q = rows[r]
        n_r = q[:, dim:-1]
        return np.vecdot(body.support_point(q[:, :dim] + t[:, None] * n_r),
                         n_r) - q[:, -1]

    # column 0 wants dpsi < 0, column 1 dpsi > 0
    t0 = 1.0 + np.sqrt(np.vecdot(w, w))
    ends = np.stack([-t0, t0], axis=-1)
    sign = np.array([-1.0, 1.0])
    wrong = np.ones(ends.shape, dtype=bool)
    for _ in range(60):
        r, e = np.nonzero(wrong)
        wrong[r, e] = ~(sign[e] * dpsi(ends[r, e], r) > 0.0)
        if not wrong.any():
            break
        ends[wrong] *= 2.0
    else:
        r, e = np.argwhere(wrong)[0]
        raise NoSignChange("restriction solve%s: the derivative keeps its "
                           "sign up to t = %.3g" % (where(r), ends[r, e] / 2.0))
    lo, width = ends[:, 0], ends[:, 1] - ends[:, 0]
    sol = find_root(lambda s, r: dpsi(lo[r] + s * width[r], r),
                    (np.zeros(len(w)), np.ones(len(w))),
                    args=(np.arange(len(w)),),
                    tolerances=dict(xatol=5e-14, xrtol=0.0))
    check_roots(sol, lambda r: "restriction solve" + where(r), "the derivative")
    t = (lo + sol.x * width).reshape(shape)
    return t, [(lo + s * width).reshape(shape) for s in sol.bracket]


def _support2(secs, w2):
    """support2 of each section secs[i] at its directions w2[i], from one
    restriction solve over the rows of all of them. The sections share one
    body (ValueError otherwise); with two or more, each w2[i] is (k, 2)
    rows and a failed row is named by its section and its row there. An
    empty list returns [] without solving."""
    if not secs:
        return []
    body = secs[0].body
    if any(sec.body is not body for sec in secs):
        raise ValueError("one restriction solve needs sections of one body")
    parts = [np.vecmat(w, sec.basis) for sec, w in zip(secs, w2)]
    if len(secs) == 1:
        (sec,), (w_world,) = secs, parts
        n, d, origin = sec.plane.normal, sec.plane.offset, sec.origin
        where = lambda r: _row_note(r, w_world)
    else:
        sizes = [len(p) for p in parts]
        stops = np.cumsum(sizes)
        w_world = np.concatenate(parts)
        n = np.repeat([sec.plane.normal for sec in secs], sizes, axis=0)
        d = np.repeat([sec.plane.offset for sec in secs], sizes)
        origin = np.repeat([sec.origin for sec in secs], sizes, axis=0)

        def where(r):
            i = int(np.searchsorted(stops, r, side="right"))
            return " at section %d, row %d" % (i, r - stops[i] + sizes[i])
    t, _ = _restriction_minimizer(body, w_world, n, d, where)
    h = body.support(w_world + np.expand_dims(t, -1) * n) - t * d
    h = h - np.vecdot(origin, w_world)
    return np.split(h, stops[:-1]) if len(secs) > 1 else [h]


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
    every section, plus the 32 diameter2 width rows of each section whose
    diameter2 is not cached yet. A single section is solved the same way."""
    require_sizes("central_symmetry", {"m": m}, least={"m": 3})
    secs = sec if isinstance(sec, list) else [sec]
    rng = np.random.default_rng(seed)
    th = rng.uniform(0.0, np.pi / m) + np.pi * np.arange(m) / m
    u = np.column_stack([np.cos(th), np.sin(th)])
    rows = 2.0 * u
    dirs = np.concatenate([u, -u])
    fresh = [s._diameter2 is None for s in secs]
    hs = _support2(secs, [np.concatenate([dirs, _width_rows()]) if f else dirs
                          for f in fresh])
    results = []
    for s, f, h in zip(secs, fresh, hs):
        if f:
            s._diameter2 = _width(h[2 * m:])
        rhs = h[:m] - h[m:2 * m]
        c, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
        residual = float(np.abs(rhs - rows @ c).max()) / s.diameter2()
        results.append(SymmetryResult(bool(residual <= tol), c, s.to_world(c),
                                      residual, tol))
    return results if isinstance(sec, list) else results[0]


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


def conjugate_diameter(sec, a2, b2, contact_tol=1e-8):
    """Conjugate affine diameter via the circumscribed parallelogram.

    The sides parallel to the chord [a,b] are forced: they touch at the
    support points q± with normals ±rot90(dir). The candidate conjugate is
    the chord [q-, q+]; the parallelogram closes iff the sides parallel to it
    support the figure at a and b, and the closure defect is exactly that
    contact residual. Returns ((q-, q+), defect) or raises NotFound carrying
    the defect. a2 and b2 may be (..., 2) rows of chords, solved in one
    support_point2 and one support2 call: then q± and the defect are rows,
    and NotFound, raised when any row fails, carries the defect of every row
    (inf where the contacts coincide).
    """
    a2 = np.asarray(a2, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    diam = sec.diameter2()
    chord = b2 - a2
    length = np.sqrt(np.vecdot(chord, chord))
    short = np.flatnonzero(length < 1e-6 * diam)
    if short.size:
        raise ValueError("degenerate chord%s" % _row_note(short[0], chord))
    n_d = _rot90(chord / np.expand_dims(length, -1))
    q_plus, q_minus = sec.support_point2(np.stack([n_d, -n_d]))
    span = q_plus - q_minus
    gap = np.sqrt(np.vecdot(span, span))
    apart = gap >= 1e-6 * diam
    # a row whose contacts coincide has no conjugate: aim it along n_d, so
    # that support2 sees a unit direction, and give it an infinite defect
    n_p = np.where(np.expand_dims(apart, -1),
                   _rot90(span / np.expand_dims(np.where(apart, gap, 1.0), -1)),
                   n_d)
    # pair each original endpoint with the side it should touch
    sa, sb = np.vecdot(a2, n_p), np.vecdot(b2, n_p)
    h_plus, h_minus = sec.support2(np.stack([n_p, -n_p]))
    defect = np.maximum(h_plus - np.maximum(sa, sb),
                        h_minus + np.minimum(sa, sb)) / diam
    defect = np.where(apart, np.maximum(defect, 0.0), np.inf)
    failed = np.flatnonzero(defect > contact_tol)
    if failed.size:
        r = failed[np.argmax(defect.ravel()[failed])]
        why = ("parallelogram closure defect %.3e" % defect.ravel()[r]
               if apart.ravel()[r] else "conjugate contacts coincide")
        raise NotFound(why + _row_note(r, chord), defect=_value(defect))
    return (q_minus, q_plus), _value(defect)


@dataclass
class BirkhoffResult:
    ok: bool
    min_ratio: float


def _norm_gate(sec, tol=1e-6):
    sym = central_symmetry(sec, tol=tol)
    if not sym.ok:
        raise NotANorm("section symmetry residual %.3e" % sym.residual)
    return sym


def birkhoff_normal(sec, x, y, center=None):
    """Birkhoff normality x ⊣ y in the normed plane whose unit ball B is the
    (centrally symmetric) section about center: ||x + a y|| >= ||x|| for all a.
    By norm duality the line's minimum is <n, x> / h_B(n), n the unit normal
    of y with <n, x> >= 0, h_B(n) = support2(n) - <center, n>; a = 0 caps it.
    x and y may be (..., 2) rows, tested in one gauge2 and one support2 call;
    the result then holds a row of verdicts and ratios."""
    if center is None:
        center = _norm_gate(sec).center
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float),
                               np.asarray(y, dtype=float))
    nx = np.asarray(sec.gauge2(x, base2=center))
    ny = np.sqrt(np.vecdot(y, y))
    zero = np.flatnonzero((nx == 0.0) | (ny == 0.0))
    if zero.size:
        raise ValueError("birkhoff_normal needs nonzero vectors%s"
                         % _row_note(zero[0], x))
    n = _rot90(y / np.expand_dims(ny, -1))
    n = np.where(np.expand_dims(np.vecdot(n, x) < 0.0, -1), -n, n)
    fmin = np.minimum(np.vecdot(n, x) / (sec.support2(n) - np.vecdot(center, n)),
                      nx)
    ok = fmin >= nx * (1.0 - 1e-9)  # relative slack for rounding in the norm
    return BirkhoffResult(ok if ok.ndim else bool(ok), _value(fmin / nx))


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
    conjugate pairs. Both are computed and both must agree for a pass.
    """
    require_sizes("is_radon_curve", {"k": k, "cross_pairs": cross_pairs})
    sym = _norm_gate(sec)
    c2 = sym.center
    rng = np.random.default_rng(seed)
    th = rng.uniform(0.0, np.pi / k) + np.pi * np.arange(k) / k
    u = np.column_stack([np.cos(th), np.sin(th)])
    e_plus = sec.boundary2(u, base2=c2)
    e_minus = sec.boundary2(-u, base2=c2)
    try:
        _, defect = conjugate_diameter(sec, e_minus, e_plus,
                                       contact_tol=contact_tol)
        conj_ok = True
    except NotFound as exc:
        defect, conj_ok = exc.defect, False
    worst = int(np.argmax(defect))
    # p = min(k, cross_pairs) of the k diameters, evenly spaced, each pair
    # tested both ways in one call
    p = min(k, cross_pairs)
    pairs = np.arange(p) * k // p
    xs = e_plus[pairs] - c2
    ys = sec.support_point2(_rot90(u[pairs])) - c2
    both = birkhoff_normal(sec, np.concatenate([xs, ys]),
                           np.concatenate([ys, xs]), center=c2)
    ratio = np.minimum(both.min_ratio[:p], both.min_ratio[p:])
    worst_asym = np.max(1.0 - ratio, initial=0.0)
    norm_ok = bool(both.ok.all())
    ok = conj_ok and norm_ok
    return RadonResult(bool(ok), bool(conj_ok), bool(norm_ok),
                       float(defect[worst]), u[worst], float(worst_asym), c2,
                       detail={"k": k, "contact_tol": contact_tol,
                               "symmetry_residual": sym.residual})
