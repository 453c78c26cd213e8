"""Planar-section analytics.

A PlanarSection wraps the 2-D convex figure cut from a body by a hyperplane
(dimension 3 host: the section is a planar convex curve) behind a chart and a
2-D support oracle. The support function of a section is computed by the
standard restriction formula h_sec(w) = inf_t [h_K(w + t n) - t d]. For
every body h_K(w + t n) - t d is convex in t, and its derivative is selected
monotonically by <support_point(w + t n), n> - d, so the root of that (on a
polytope, the point where it jumps) is the minimizer; this keeps section
support points at full solver accuracy, which the conjugacy gates need.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .bodies import line_min_gauge, ray_exit
from .errors import (EndpointNotOnBoundary, NoSignChange, NotANorm, NotFound,
                     PlaneMissesBody, UnsupportedDimension)
from .numeric import angle_between, normalize, require_sizes, unit_frame
from .projective import Hyperplane, Line


def _rot90(v):
    return np.array([-v[1], v[0]])


def _widen(ok, t):
    """Double t until ok(t) holds; raise NoSignChange after 60 tries."""
    for _ in range(60):
        if ok(t):
            return t
        t *= 2.0
    raise NoSignChange("the restriction derivative keeps its sign up to "
                       "t = %.3g" % (t / 2.0))


class PlanarSection:
    """Section of a convex body by a hyperplane, as a 2-D support oracle."""

    def __init__(self, body, plane, interior_hint=None):
        self.body = body
        self.plane = plane
        self.origin = self._find_origin(interior_hint)
        self.basis = unit_frame(plane.normal).T  # rows b1, b2
        self._diameter2 = None

    def _find_origin(self, hint):
        body, plane = self.body, self.plane
        scale = body.diameter()
        candidates = []
        if hint is not None:
            candidates.append(np.asarray(hint, dtype=float))
        candidates.append(body.center - (plane.signed_distance(body.center)) * plane.normal)
        for z in candidates:
            if abs(plane.signed_distance(z)) <= 1e-9 * scale and body.gauge(z) < 1.0 - 1e-9:
                return z - plane.signed_distance(z) * plane.normal
        # alternating 1-D descent of the (convex) gauge inside the plane
        z = candidates[-1]
        frame = unit_frame(plane.normal).T
        for _ in range(12):
            for b in frame:
                line = Line(z, b)
                t, g, _ = line_min_gauge(body, line)
                z = line.at(t)
            if g < 1.0 - 1e-9:
                return z - plane.signed_distance(z) * plane.normal
        raise PlaneMissesBody("gauge on the plane stays at %.6f" % g)

    def to_world(self, p2):
        return self.origin + self.basis.T @ np.asarray(p2, dtype=float)

    def to_chart(self, z):
        return self.basis @ (np.asarray(z, dtype=float) - self.origin)

    def _restriction_minimizer(self, w_world):
        """Minimizer t of psi(t) = h(w + t n) - t d, and a step that brentq's
        tolerance guarantees to carry t across it."""
        body, n, d = self.body, self.plane.normal, self.plane.offset
        t_hi = 1.0 + float(np.linalg.norm(w_world))
        dpsi = lambda t: float(body.support_point(w_world + t * n) @ n) - d
        lo = _widen(lambda t: dpsi(t) < 0.0, -t_hi)
        hi = _widen(lambda t: dpsi(t) > 0.0, t_hi)
        xtol = 1e-13 * max(1.0, abs(lo), abs(hi))
        t = brentq(dpsi, lo, hi, xtol=xtol, rtol=8.9e-16)
        return t, 2.0 * (xtol + 8.9e-16 * abs(t))

    def support2(self, w):
        w = np.asarray(w, dtype=float)
        w_world = self.basis.T @ w
        t, _ = self._restriction_minimizer(w_world)
        n, d = self.plane.normal, self.plane.offset
        h = self.body.support(w_world + t * n) - t * d
        return float(h - self.origin @ w_world)

    def support_point2(self, w):
        w = np.asarray(w, dtype=float)
        w_world = self.basis.T @ w
        t, step = self._restriction_minimizer(w_world)
        n, dist = self.plane.normal, self.plane.signed_distance
        if self.body.is_smooth:
            z = self.body.support_point(w_world + t * n)
            return self.to_chart(z - dist(z) * n)
        # psi kinks at t: the support points just below and just above it
        # span an exposed face of K, which meets the plane in the section's
        # support point
        a = self.body.support_point(w_world + (t - step) * n)
        b = self.body.support_point(w_world + (t + step) * n)
        da, db = dist(a), dist(b)
        z = a if da == db else a + da / (da - db) * (b - a)
        return self.to_chart(z)

    def boundary2(self, d2, base2=None):
        """Section boundary point from base2 (default: chart origin) along d2."""
        if base2 is None:
            base_w = self.origin
        else:
            base_w = self.to_world(base2)
        return self.to_chart(ray_exit(self.body, base_w, self.basis.T @ normalize(d2)))

    def gauge2(self, p2):
        return _section_norm(self, np.zeros(2), p2)

    def normal2_at(self, p2):
        """In-plane outer normal of the section at a boundary point."""
        nu = self.body.normal_at(self.to_world(p2))
        return normalize(self.basis @ nu)

    def diameter2(self):
        if self._diameter2 is None:
            widths = []
            for th in np.linspace(0.0, np.pi, 17)[:-1]:
                u = np.array([np.cos(th), np.sin(th)])
                widths.append(self.support2(u) + self.support2(-u))
            self._diameter2 = max(widths)
        return self._diameter2


def section(body, plane, interior_hint=None):
    """Restriction oracle: the planar convex figure plane ∩ body, for a 3-D
    body and a plane in R^3."""
    if not isinstance(plane, Hyperplane):
        raise TypeError("expected a Hyperplane")
    if body.dim != 3 or plane.normal.shape != (3,):
        raise UnsupportedDimension(
            "section needs a 3-D body and a plane in R^3; the body has "
            "dimension %d, the plane normal shape %s"
            % (body.dim, plane.normal.shape))
    return PlanarSection(body, plane, interior_hint=interior_hint)


@dataclass
class SymmetryResult:
    ok: bool
    center: np.ndarray
    center_world: np.ndarray
    residual: float
    tol: float


def central_symmetry(sec, tol=1e-7, m=96, seed=0):
    """Least-squares center from h(u) - h(-u) = 2<c,u> over sampled u; m >= 3,
    one more than the centre's two unknowns."""
    require_sizes("central_symmetry", {"m": m}, least={"m": 3})
    rng = np.random.default_rng(seed)
    phi0 = rng.uniform(0.0, np.pi / m)
    rows = np.empty((m, 2))
    rhs = np.empty(m)
    for j in range(m):
        th = phi0 + np.pi * j / m
        u = np.array([np.cos(th), np.sin(th)])
        rows[j] = 2.0 * u
        rhs[j] = sec.support2(u) - sec.support2(-u)
    c, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
    residual = float(np.abs(rhs - rows @ c).max()) / sec.diameter2()
    return SymmetryResult(bool(residual <= tol), c, sec.to_world(c), residual, tol)


def _check_on_boundary(sec, p2, tol=1e-8):
    g = sec.gauge2(p2) if np.linalg.norm(p2) > 0 else 0.0
    if abs(g - 1.0) > tol:
        raise EndpointNotOnBoundary("gauge %.9f at a chord endpoint" % g)


def affine_diameter_residual(sec, a2, b2):
    """Angular defect between the outer normals at the endpoints and exact
    anti-parallelism. Needs a smooth body: normal_at raises NonSmoothBody."""
    a2 = np.asarray(a2, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    _check_on_boundary(sec, a2)
    _check_on_boundary(sec, b2)
    return angle_between(sec.normal2_at(a2), -sec.normal2_at(b2))


def conjugate_diameter(sec, a2, b2, contact_tol=1e-8):
    """Conjugate affine diameter via the circumscribed parallelogram.

    The sides parallel to the chord [a,b] are forced: they touch at the
    support points q± with normals ±rot90(dir). The candidate conjugate is
    the chord [q-, q+]; the parallelogram closes iff the sides parallel to it
    support the figure at a and b, and the closure defect is exactly that
    contact residual. Returns ((q-, q+), defect) or raises NotFound carrying
    the defect.
    """
    a2 = np.asarray(a2, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    diam = sec.diameter2()
    chord = b2 - a2
    if np.linalg.norm(chord) < 1e-6 * diam:
        raise ValueError("degenerate chord")
    n_d = _rot90(chord / np.linalg.norm(chord))
    q_plus = sec.support_point2(n_d)
    q_minus = sec.support_point2(-n_d)
    if np.linalg.norm(q_plus - q_minus) < 1e-6 * diam:
        raise NotFound("conjugate contacts coincide", defect=float("inf"))
    n_p = _rot90((q_plus - q_minus) / np.linalg.norm(q_plus - q_minus))
    # pair each original endpoint with the side it should touch
    hi, lo = (b2, a2) if b2 @ n_p >= a2 @ n_p else (a2, b2)
    defect = max(sec.support2(n_p) - float(hi @ n_p),
                 sec.support2(-n_p) + float(lo @ n_p)) / diam
    defect = float(max(defect, 0.0))
    if defect > contact_tol:
        raise NotFound("parallelogram closure defect %.3e" % defect, defect=defect)
    return (q_minus, q_plus), defect


@dataclass
class BirkhoffResult:
    ok: bool
    min_ratio: float
    alpha: float


def _norm_gate(sec, tol=1e-6):
    sym = central_symmetry(sec, tol=tol)
    if not sym.ok:
        raise NotANorm("section symmetry residual %.3e" % sym.residual)
    return sym


def _section_norm(sec, c2, v2):
    v2 = np.asarray(v2, dtype=float)
    r = np.linalg.norm(v2)
    if r == 0.0:
        return 0.0
    b2 = sec.boundary2(v2 / r, base2=c2)
    return float(r / np.linalg.norm(b2 - c2))


def birkhoff_normal(sec, x, y, center=None, slack=1e-9):
    """Birkhoff normality x ⊣ y in the normed plane whose unit ball is the
    (centrally symmetric) section: ||x + a y|| >= ||x|| for all a."""
    if center is None:
        center = _norm_gate(sec).center
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    nx = _section_norm(sec, center, x)
    ny = _section_norm(sec, center, y)
    if nx == 0.0 or ny == 0.0:
        raise ValueError("birkhoff_normal needs nonzero vectors")
    bound = 10.0 * nx / ny
    f = lambda a: _section_norm(sec, center, x + a * y)
    r = minimize_scalar(f, bounds=(-bound, bound), method="bounded",
                        options={"xatol": 1e-10 * (1.0 + bound)})
    fmin = min(float(r.fun), nx)  # alpha = 0 is always feasible
    ok = fmin >= nx * (1.0 - slack)
    return BirkhoffResult(bool(ok), fmin / nx, float(r.x))


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
    phi0 = rng.uniform(0.0, np.pi / k)
    worst_defect = -1.0
    worst_dir = np.array([1.0, 0.0])
    conj_ok = True
    for j in range(k):
        th = phi0 + np.pi * j / k
        u = np.array([np.cos(th), np.sin(th)])
        e_plus = sec.boundary2(u, base2=c2)
        e_minus = sec.boundary2(-u, base2=c2)
        try:
            _, defect = conjugate_diameter(
                sec, e_minus, e_plus, contact_tol=contact_tol)
        except NotFound as exc:
            defect = exc.defect
            conj_ok = False
        if defect > worst_defect:
            worst_defect = defect
            worst_dir = u
    worst_asym = 0.0
    norm_ok = True
    step = max(1, k // cross_pairs)
    for j in range(0, k, step):
        th = phi0 + np.pi * j / k
        u = np.array([np.cos(th), np.sin(th)])
        x = sec.boundary2(u, base2=c2) - c2
        n_d = _rot90(u)
        y = sec.support_point2(n_d) - c2
        fwd = birkhoff_normal(sec, x, y, center=c2)
        bwd = birkhoff_normal(sec, y, x, center=c2)
        asym = max(1.0 - fwd.min_ratio, 1.0 - bwd.min_ratio)
        worst_asym = max(worst_asym, asym)
        if not (fwd.ok and bwd.ok):
            norm_ok = False
    ok = conj_ok and norm_ok
    return RadonResult(bool(ok), bool(conj_ok), bool(norm_ok),
                       float(worst_defect), worst_dir, float(worst_asym), c2,
                       detail={"k": k, "contact_tol": contact_tol,
                               "symmetry_residual": sym.residual})
