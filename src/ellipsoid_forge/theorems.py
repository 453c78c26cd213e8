"""Numerical harness for the ellipsoid characterizations.

Each check samples a finite configuration (apexes on the outer boundary,
section planes through a point, tangent planes of an inscribed ball), runs
every stage of the corresponding implication, and assembles a CheckReport.
Stages never assert: when a hypothesis stage fails, the later stages are
still computed but reported as "info", so a counterexample body yields
hypothesis-violated rather than a numerical contradiction of the implication.
"""

import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .bodies import is_o_symmetric, o_symmetry_residual, ray_exit
from .cones import (SupportCone, _finite_vector, _row, cone_intersection, graze,
                    is_ellipsoidal_cone, shadow_boundary)
from .errors import (
    BallTooLarge,
    BodiesNotNested,
    DegenerateLines,
    DegenerateQuadruple,
    GeometryError,
    NonSmoothBody,
    NotOSymmetric,
    PlaneMissesBody,
    PointOnBoundary,
    UnsupportedDimension,
)
from .fitting import ELLIPSE, fit_hyperplane, fit_planar_conic, fit_quadric
from .numeric import (
    angle_between,
    circle_directions,
    check_roots,
    cloud_diameter,
    find_root,
    floored,
    hausdorff,
    line_angle,
    normalize,
    require_sizes,
    sphere_directions,
    unit_frame,
)
from .planar import (_boundary2, _support2, _support_point2,
                     affine_diameter_residual, central_symmetry, is_radon_curve,
                     section)
from .projective import (
    HPoint,
    Hyperplane,
    Line,
    fit_hyperplane_projective,
)

SCHEMA = "ellipsoid-forge/report-v1"

#: scale-free residual gates shared by all checks; per-run overrides allowed
DEFAULT_TOLERANCES = {
    "tangency": 1e-8,    # |<x-p, nu(p)>| / |x-p| at cone contact points
    "boundary": 1e-10,   # gauge distance of curve samples to the boundary
    "planarity": 1e-6,   # relative rms distance of a curve to a fitted plane
    "ellipse": 1e-6,     # conic / quadric fit rms
    "angular": 1e-6,     # radians between lines that must be parallel
    "diameter": 1e-7,    # radians, affine-diameter normal opposition
    "bisector": 1e-7,    # translation orthogonality ratio
    "contact": 1e-8,     # conjugacy / containment contact defect on sections
    "margin": 1e-6,      # relative slack demanded by strict containment gates
    "pole": 1e-6,        # conjugate-plane fit + cross-ratio recheck sum
    "symmetry": 1e-7,    # relative central-symmetry defect
    "hausdorff": 1e-6,   # relative distance between matched curve clouds
    "homothety": 1e-6,   # relative difference of trace-normalized shapes
    "concentric": 1e-7,  # relative distance between fitted centers
}

# reported residuals are floored here so that refining samples cannot make a
# noise-level number grow; verdicts are always taken on the raw value
RESIDUAL_FLOOR = 1e-12


def _merge_tolerances(tolerances):
    """Defaults updated by the overrides. A gate that is NaN, infinite or not
    above 0 rejects everything or nothing, so such a value is an error."""
    tol = dict(DEFAULT_TOLERANCES)
    if tolerances:
        unknown = sorted(set(tolerances) - set(tol))
        if unknown:
            raise ValueError("unknown tolerance keys: %s" % ", ".join(unknown))
        for k, v in tolerances.items():
            v = float(v)
            if not (np.isfinite(v) and v > 0.0):
                raise ValueError("tolerance %s must be finite and > 0; got %r"
                                 % (k, v))
            tol[k] = v
    return tol


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


@dataclass
class StageEntry:
    """One report row; residuals are scale-free (relative or radians)."""

    name: str
    kind: str  # hypothesis | derived | conclusion
    residual: float
    tolerance: float
    verdict: str  # pass | fail | skip | info
    detail: dict = field(default_factory=dict)

    def to_dict(self):
        return asdict(self)


def _assemble(stages):
    """Fold stage verdicts into the report verdict.

    A failed hypothesis owns the outcome: later stages are downgraded to
    "info" because the implication says nothing about such configurations.
    """
    if any(s.kind == "hypothesis" and s.verdict == "fail" for s in stages):
        for s in stages:
            if s.kind != "hypothesis" and s.verdict in ("pass", "fail"):
                s.verdict = "info"
        return "hypothesis-violated"
    if any(s.verdict == "fail" for s in stages):
        return "conclusion-violated"
    return "consistent"


@dataclass
class CheckReport:
    theorem: str
    verdict: str
    bodies: dict
    stages: list
    seed: int
    sample_counts: dict
    tolerances: dict
    branch: object = None
    inputs: dict = field(default_factory=dict)
    wall_time: float = 0.0  # measured, deliberately left out of to_dict

    def to_dict(self):
        return {
            "schema": SCHEMA,
            "theorem": self.theorem,
            "verdict": self.verdict,
            "branch": self.branch,
            "bodies": dict(self.bodies),
            "inputs": _jsonable(self.inputs),
            "seed": int(self.seed),
            "sample_counts": _jsonable(self.sample_counts),
            "tolerances": _jsonable(self.tolerances),
            "stages": [s.to_dict() for s in self.stages],
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2) + "\n"


class _CheckRun:
    """One run of a check: merged tolerances, the clock, the dimension and
    sample-size contracts, the stages under one pass rule, and the CheckReport."""

    def __init__(self, theorem, seed, tolerances, sizes, least=None, **bodies):
        self.start = time.perf_counter()
        self.theorem = theorem
        self.seed = int(seed)
        self.tol = _merge_tolerances(tolerances)
        dims = [b.dim for b in bodies.values()]
        if any(d != 3 for d in dims):
            raise UnsupportedDimension(
                "check %s needs 3-D bodies; got dimension %s"
                % (theorem, ", ".join(str(d) for d in dims)))
        self.sizes = require_sizes("check " + theorem, sizes, least)
        self.bodies = bodies
        self.stages = []

    def stage(self, name, kind, residual, key, ok=None, **detail):
        """Record a stage. It passes when its residual is within tol[key]
        (key None: a zero tolerance), unless the check passes its own ok."""
        tolerance = self.tol[key] if key else 0.0
        if ok is None:
            ok = residual <= tolerance
        self.stages.append(StageEntry(
            name, kind, floored(float(residual), RESIDUAL_FLOOR),
            float(tolerance), "pass" if ok else "fail", _jsonable(detail)))

    def skip(self, name, kind, reason, **detail):
        detail["reason"] = reason
        self.stages.append(StageEntry(name, kind, 0.0, 0.0, "skip",
                                      _jsonable(detail)))

    def fit_stage(self, name, body, role="body"):
        """Conclusion stage: the boundary is a quadric of elliptic type."""
        tol = self.tol["ellipse"]
        fit = fit_quadric(_boundary_cloud(body, 256, seed=self.seed), tol=tol)
        self.stage(name, "conclusion", fit.rms_residual, "ellipse",
                   fit.classification == ELLIPSE and fit.rms_residual < tol,
                   classification=fit.classification, samples=256, role=role)
        return fit

    def radon_stage(self, name, kind, sections, k, /, **detail):
        """Worst conjugacy defect of one is_radon_curve call over the
        sections; a section that fails the norm gate scores 1.0."""
        results = is_radon_curve(sections, k=k, contact_tol=self.tol["contact"],
                                 seed=self.seed)
        worst = max((1.0 if rr is None or not np.isfinite(rr.worst_defect)
                     else rr.worst_defect for rr in results), default=0.0)
        asymmetric = sum(rr is None for rr in results)
        if asymmetric:
            detail["not_centrally_symmetric"] = asymmetric
        self.stage(name, kind, worst, "contact",
                   all(rr is not None and rr.ok for rr in results), **detail)

    def report(self, inputs=None, branch=None):
        report = CheckReport(
            theorem=self.theorem,
            verdict=_assemble(self.stages),
            bodies={role: b.body_id() for role, b in self.bodies.items()},
            stages=self.stages,
            seed=self.seed,
            sample_counts=self.sizes,
            tolerances=self.tol,
            branch=branch,
            inputs=inputs or {},
        )
        report.wall_time = time.perf_counter() - self.start
        return report


def _require_o_symmetric(body, o, role):
    if not is_o_symmetric(body, o):
        raise NotOSymmetric("%s is not centrally symmetric about %s"
                            % (role, [float(t) for t in o]))


def _require_interior(body, p, role):
    """p as a point, when it lies in the interior of body."""
    p = np.asarray(p, dtype=float)
    if p.shape != (body.dim,):
        raise UnsupportedDimension("p has shape %s; the %s has dimension %d"
                                   % (p.shape, role, body.dim))
    if not body.gauge(p) < 1.0 - 1e-9:  # also catches a NaN coordinate
        raise GeometryError("p must be interior to the %s" % role)
    return p


@dataclass
class PoleResult:
    pole: HPoint
    polar: object  # Hyperplane or the hyperplane at infinity
    classification: str  # projective centre | projective hyperplane of symmetry | not a pole
    residual: float  # fit_residual + cr_residual
    fit_residual: float
    cr_residual: float
    graze_hausdorff: object = None  # relative, exterior poles of smooth bodies only
    detail: dict = field(default_factory=dict)


def _boundary_cloud(body, m, seed=0):
    return body.boundary_from_center(sphere_directions(body.dim, m, seed=seed))


def _nesting_gate(inner, outer, margin, m=128, seed=0):
    """Raise unless inner sits strictly inside outer with relative slack."""
    diam = outer.diameter()
    dirs = sphere_directions(inner.dim, m, seed=seed)
    gap = float((inner.support(dirs) - outer.support(dirs)).max())
    if gap > -margin * diam:
        raise BodiesNotNested("support gap %.3e, needed below %.3e"
                              % (gap, -margin * diam))


def _tangent_planes_through_line(body, p0, e):
    """Outer normals of the supporting planes containing each line p0 + t e,
    for (k, n) rows: a smooth strictly convex body missed by a line has two.
    Returns the (k,) mask of the lines whose sign sweep isolates exactly two
    roots and their normals, shape (count, 2, n), from one find_root."""
    frames = np.stack([unit_frame(normalize(row)) for row in e])
    f1, f2 = frames[..., 0], frames[..., 1]
    p0 = np.asarray(p0, dtype=float)

    def f(psi, r):
        nrm = np.cos(psi)[..., None] * f1[r] + np.sin(psi)[..., None] * f2[r]
        return body.support(nrm) - np.vecdot(p0[r], nrm)

    grid = np.linspace(0.0, 2.0 * np.pi, 257)
    vals = f(grid, np.arange(len(p0))[:, None])
    flips = vals[:, :-1] * vals[:, 1:] < 0.0
    two = np.count_nonzero(flips, axis=1) == 2
    rows, cells = np.nonzero(flips & two[:, None])
    sol = find_root(f, (grid[cells], grid[cells + 1]), args=(rows,),
                    tolerances=dict(xatol=1e-14, xrtol=8.9e-16))
    check_roots(sol, lambda r: "tangent plane %d of line %d" % (r % 2, rows[r]),
                "h(nu) - <p0, nu>")
    return two, (np.cos(sol.x)[:, None] * f1[rows]
                 + np.sin(sol.x)[:, None] * f2[rows]).reshape(-1, 2, body.dim)


def _graze_polar_agreement(body, apexes, planes, m, seed):
    """Worst distance between graze points and the matched trace of a plane.

    Every sweep plane span(e, u) holds the point z where the sweep axis meets
    the polar plane, and cuts the polar along the line through z with
    direction u - (<u, nu> / <e, nu>) e; its exit on the +u side is the graze
    point's partner. When z is not interior (a plane only a loosened pole gate
    admits) the graze points' worst distance to the plane stands in. The
    apexes are (k, n) rows, each with its plane in the list planes: one
    graze call and one ray_exit call give the array of k distances.
    """
    curves = graze(body, apexes, m=m, seed=seed)
    dist = np.empty(len(curves))
    traced = []  # (curve index, z, trace directions)
    for i, (gr, pl) in enumerate(zip(curves, planes)):
        c = np.asarray(gr.meta["axis_point"])
        e = np.asarray(gr.meta["axis_dir"])
        w1, w2 = np.asarray(gr.meta["frame"])
        meet = pl.intersect_line(Line(c, e))
        if meet.is_infinite() or not body.gauge(meet.affine()) < 1.0 - 1e-9:
            dist[i] = np.abs(pl.signed_distance(gr.points)).max()
            continue
        z, nrm = meet.affine(), pl.normal
        th = np.asarray(gr.meta["angles"])
        u = np.cos(th)[:, None] * w1 + np.sin(th)[:, None] * w2
        traced.append((i, np.broadcast_to(z, u.shape),
                       u - (np.vecdot(u, nrm) / float(e @ nrm))[:, None] * e))
    if traced:
        idx, zs, dirs = zip(*traced)
        for i, q in zip(idx, ray_exit(body, np.stack(zs), np.stack(dirs))):
            dist[i] = np.linalg.norm(curves[i].points - q, axis=1).max()
    return dist


def _reflection_residual(secs, centres2, k=48):
    """Worst absolute gap, per section, between the reflection of boundary
    samples through its chart centre and the section boundary, along matched
    rays -u then +u, from one _boundary2 call over every section."""
    centres2 = np.asarray(centres2, dtype=float)
    th = np.linspace(0.0, np.pi, k, endpoint=False)
    u = np.column_stack([np.cos(th), np.sin(th)])
    ends = _boundary2(secs, np.tile(np.concatenate([-u, u]), (len(secs), 1)),
                      np.repeat(centres2, 2 * k, axis=0),
                      np.repeat(np.arange(len(secs)), 2 * k)).reshape(-1, 2, k, 2)
    gap = ends[:, 0] - (2.0 * centres2[:, None] - ends[:, 1])
    return np.sqrt(np.vecdot(gap, gap)).max(axis=1)


def polar_of(body, o, m=64, seed=0, tolerances=None):
    """Harmonic-conjugate test: is o a pole of the body?

    Draws m lines through o meeting the interior, collects the harmonic
    conjugate of o with respect to the two boundary points of each line, and
    fits a projective hyperplane through the conjugates (the hyperplane at
    infinity is an admissible fit). The residual is the incidence residual of
    the fit plus the worst |cross ratio + 1| when the four points are read
    back against the fitted polar. Exterior poles of smooth bodies are also
    compared against the graze curve: the polar must cut the boundary exactly
    along it.

    o may be (k, n) rows of points: the result is then a list of k
    PoleResults, each equal to the one of its row, from one ray_exit call
    over every chord and one row graze call for the exterior poles that
    pass the harmonic fit; an error names the row of its point.
    """
    tol = _merge_tolerances(tolerances)
    o = _finite_vector(body, o, "point", rows=True)
    pts = np.atleast_2d(o)
    g0 = np.atleast_1d(body.gauge(o))
    on = np.abs(g0 - 1.0) <= 1e-9
    if on.any():
        r = int(np.argmax(on))
        raise PointOnBoundary("gauge of o%s is %.12f" % (_row(o, r), g0[r]))
    interior = g0 < 1.0
    n = body.dim
    if m < n + 2:
        raise DegenerateLines("need at least %d lines through o" % (n + 2))
    diam = body.diameter()
    c = body.center
    dirs = sphere_directions(n, m, seed=seed)
    # exterior lines run through interior targets, so every chord starts inside
    inner = interior[:, None, None]
    starts = np.where(inner, pts[:, None],
                      c if interior.all()
                      else c + 0.85 * (body.boundary_from_center(dirs) - c))
    aims = normalize(np.where(inner, dirs, starts - pts[:, None]))
    # on the line o + t * aim the chord ends sit at t = ta, tb, and the harmonic
    # conjugate of o at t = 2 ta tb / s: the row (s o + 2 ta tb aim, s)
    ends = ray_exit(body, starts, np.stack([-aims, aims])) - pts[:, None]
    results, grazing = [], []
    for i, (oi, ta, tb, aim) in enumerate(zip(pts, *np.vecdot(ends, aims), aims)):
        s = ta + tb
        polar, fit_residual, rank_gap = fit_hyperplane_projective(
            np.column_stack([np.multiply.outer(s, oi) + (2.0 * ta * tb)[:, None] * aim, s]),
            spatial_scale=diam)
        if rank_gap <= 1e-9:
            raise DegenerateLines("conjugate cloud%s is rank deficient (gap %.3e)"
                                  % (_row(o, i), rank_gap))
        # the polar meets each line at t = num / den, (1 : 0) where they are parallel
        num, den = ((1.0, 0.0) if polar.is_infinite
                    else (polar.offset - polar.normal @ oi, aim @ polar.normal))
        far = np.abs(den) <= 1e-14 * (1.0 + np.abs(num))
        num, den = np.where(far, 1.0, num), np.where(far, 0.0, den)
        # cross ratio [a, b; o, q] = ta (tb den - num) / (tb (ta den - num))
        gap = ta * den - num
        at_a = np.flatnonzero(np.abs(gap) <= 1e-14 * (np.abs(ta * den) + np.abs(num)))
        if at_a.size:
            raise DegenerateQuadruple("the polar%s meets chord %d at an end"
                                      % (_row(o, i), at_a[0]))
        cr_residual = float(np.abs(ta * (tb * den - num) / (tb * gap) + 1.0).max())
        residual = fit_residual + cr_residual
        if residual <= tol["pole"]:
            classification = ("projective centre" if interior[i]
                              else "projective hyperplane of symmetry")
        else:
            classification = "not a pole"
        results.append(PoleResult(
            pole=HPoint.from_affine(oi),
            polar=polar,
            classification=classification,
            residual=float(residual),
            fit_residual=float(fit_residual),
            cr_residual=float(cr_residual),
            detail={"m": int(m), "seed": int(seed), "rank_gap": float(rank_gap),
                    "interior": bool(interior[i])},
        ))
        if (not interior[i] and classification != "not a pole"
                and isinstance(polar, Hyperplane) and body.is_smooth):
            grazing.append(i)
    if grazing:
        # the polar of an exterior pole must cut the boundary along the graze
        gm = max(64, int(m))
        hausdorff = _graze_polar_agreement(
            body, pts[grazing], [results[i].polar for i in grazing], m=gm,
            seed=seed) / diam
        for i, h in zip(grazing, hausdorff):
            pr = results[i]
            pr.graze_hausdorff = float(h)
            pr.detail["graze_m"] = gm
            if h > tol["hausdorff"]:
                pr.classification = "not a pole"
                pr.detail["graze_disagrees"] = True
    return results if o.ndim > 1 else results[0]


def check_theorem1(l_body, k_body, apexes=16, m=64, pairs=8, seed=0,
                   tolerances=None):
    """Support cones over the inner body from the outer boundary.

    Hypotheses: the inner body is centrally symmetric and every sampled cone
    is ellipsoidal. Derived claims: the intersection curve of the cones from
    an apex and its reflection is planar, and the contact chord of the two
    supporting planes through an apex line is parallel to the meet of the
    fitted intersection planes. Conclusion: the inner boundary is a quadric
    of elliptic type.
    """
    # each apex is paired with the next one, so one apex would pair with itself;
    # each cone's conic fit needs 8 contact points
    run = _CheckRun("t1", seed, tolerances, dict(apexes=apexes, m=m, pairs=pairs),
                    least={"apexes": 2, "m": 8}, inner=l_body, outer=k_body)
    tol = run.tol
    _nesting_gate(l_body, k_body, tol["margin"])
    o = l_body.center

    run.stage("inner-o-symmetry", "hypothesis", o_symmetry_residual(l_body, o),
              "symmetry")

    apex_pts = _boundary_cloud(k_body, apexes, seed=seed)

    fits = [is_ellipsoidal_cone(SupportCone(x, contact), tol=tol["ellipse"],
                                seed=seed).detail
            for x, contact in zip(apex_pts, graze(l_body, apex_pts, m=m, seed=seed))]
    run.stage("ellipsoidal-cones", "hypothesis", max(f["max_rms"] for f in fits),
              "ellipse", all(f["ellipsoidal"] for f in fits), apexes=len(apex_pts))

    # intersection of the cones from x and from the reflected apex 2o - x
    fitted_normals = []
    worst_planarity = 0.0
    planar_ok = True
    for delta in cone_intersection(l_body, apex_pts, 2.0 * o - apex_pts, m=m,
                                   seed=seed):
        fit = fit_hyperplane(delta.points)
        fitted_normals.append(fit.model.normal)
        worst_planarity = max(worst_planarity, fit.rms_residual)
        planar_ok = planar_ok and fit.rms_residual < tol["planarity"]
    run.stage("cone-intersection-planarity", "derived", worst_planarity,
              "planarity", planar_ok)

    # on the first `pairs` neighbouring apex pairs whose line misses the
    # inner body, the contact chord of the supporting planes through the line
    # against the meet of the fitted intersection planes (not nearly
    # parallel, which leaves the meet ill-conditioned)
    meet = np.cross(fitted_normals, np.roll(fitted_normals, -1, axis=0))
    step = np.roll(apex_pts, -1, axis=0) - apex_pts
    cand = np.flatnonzero(
        (l_body.line_min_gauge(apex_pts, step)[1] > 1.0 + tol["margin"])
        & (np.linalg.norm(meet, axis=1) >= 1e-3))
    angles = []
    if cand.size:
        two, normals = _tangent_planes_through_line(l_body, apex_pts[cand],
                                                    step[cand])
        angles = [line_angle(np.subtract(*l_body.support_point(nrm)), meet[i])
                  for i, nrm in zip(cand[two][:pairs], normals)]
    if not angles:
        run.skip("contact-chord-parallelism", "derived",
                 "no apex pair whose line misses the inner body")
    else:
        run.stage("contact-chord-parallelism", "derived", max(angles),
                  "angular", pairs=len(angles))

    run.fit_stage("inner-ellipsoid-fit", l_body, role="inner")
    return run.report()


def _matched_section_cloud(sec, pts_world, base2):
    """Boundary points of the section in the chart directions of pts_world;
    a point at base2 is its own match."""
    d2 = sec.to_chart(pts_world) - base2
    nd = np.sqrt(np.vecdot(d2, d2))
    far = nd > 1e-14
    out = np.tile(sec.to_world(base2), (len(d2), 1))
    out[far] = sec.to_world(sec.boundary2(d2[far] / nd[far, None], base2=base2))
    return out


def check_theorem2(l_body, k_body, p, apexes=12, m=64, chords=48, radon_k=128,
                   seed=0, tolerances=None):
    """Cone-intersection curves lying on boundary sections through p.

    Hypothesis: for apex pairs x, y cut out of the outer boundary by lines
    through p, the intersection curve of the two support cones over the inner
    body matches a planar section of the outer boundary through p. Derived:
    the outer supporting planes at x and y are parallel to that section
    plane, its chords through p are affine diameters, and the section curves
    pass the conjugate-diameter test. Conclusion: both bodies are quadrics of
    elliptic type, concentric and homothetic.
    """
    run = _CheckRun("t2", seed, tolerances,
                    dict(apexes=apexes, m=m, chords=chords, radon_k=radon_k),
                    inner=l_body, outer=k_body)
    tol = run.tol
    _nesting_gate(l_body, k_body, tol["margin"])
    p = _require_interior(k_body, p, "outer body")
    diam_k = k_body.diameter()

    def intersections(xs, ys):
        """The curve of each pair from one call; when that raises, the
        pairs again one by one, each failed pair's error in its slot."""
        try:
            return cone_intersection(l_body, xs, ys, m=m, seed=seed)
        except GeometryError as exc:
            if len(xs) == 1:
                return [exc]
            return [intersections(x[None], y[None])[0] for x, y in zip(xs, ys)]

    apex_dirs = sphere_directions(k_body.dim, apexes, seed=seed)
    xs = k_body.boundary_point(p, apex_dirs)
    ys = k_body.boundary_point(p, -apex_dirs)
    kept = []  # (sec, base2, plane, x, y) per usable apex
    worst_defect = 0.0
    failures = []
    for x, y, omega in zip(xs, ys, intersections(xs, ys)):
        if isinstance(omega, GeometryError):
            failures.append(type(omega).__name__)
            worst_defect = max(worst_defect, 1.0)
            continue
        pts = omega.points
        _, _, vt = np.linalg.svd(pts - p, full_matrices=False)
        plane = Hyperplane.from_point_normal(p, vt[-1])
        sec = section(k_body, plane)
        base2 = sec.to_chart(p)
        matched = _matched_section_cloud(sec, pts, base2)
        defect = hausdorff(pts, matched) / diam_k
        worst_defect = max(worst_defect, defect)
        kept.append((sec, base2, plane, x, y))
    search_failed = worst_defect > 10.0 * tol["hausdorff"]
    run.stage("cone-intersection-matches-section", "hypothesis", worst_defect,
              "hausdorff", apexes=int(apexes), search_failed=search_failed,
              errors=failures)

    if not kept:
        for name in ("supporting-planes-parallel", "section-chords-affine-diameters",
                     "sections-are-radon"):
            run.skip(name, "derived", "no section plane found")
    else:
        worst_parallel = 0.0
        for sec, base2, plane, x, y in kept:
            worst_parallel = max(worst_parallel,
                                 line_angle(k_body.normal_at(x), plane.normal),
                                 line_angle(k_body.normal_at(y), plane.normal))
        run.stage("supporting-planes-parallel", "derived", worst_parallel,
                  "angular")

        worst_chord = 0.0
        th = np.linspace(0.0, np.pi, chords, endpoint=False)
        u2 = np.column_stack([np.cos(th), np.sin(th)])
        for sec, base2, *_ in kept[:3]:
            worst_chord = max(worst_chord, float(affine_diameter_residual(
                sec, sec.boundary2(u2, base2=base2),
                sec.boundary2(-u2, base2=base2)).max()))
        run.stage("section-chords-affine-diameters", "derived", worst_chord,
                  "diameter", chords=int(chords))
        run.radon_stage("sections-are-radon", "derived",
                        [sec for sec, *_ in kept[:2]], radon_k, k=int(radon_k))

    fit_l = fit_quadric(_boundary_cloud(l_body, 256, seed=seed),
                        tol=tol["ellipse"])
    fit_k = fit_quadric(_boundary_cloud(k_body, 256, seed=seed),
                        tol=tol["ellipse"])
    worst_fit = max(fit_l.rms_residual, fit_k.rms_residual)
    both = (fit_l.classification == ELLIPSE
            and fit_k.classification == ELLIPSE
            and worst_fit < tol["ellipse"])
    run.stage("ellipsoid-fits", "conclusion", worst_fit, "ellipse", both,
              inner=fit_l.classification, outer=fit_k.classification)
    if both:
        center_gap = float(np.linalg.norm(
            np.asarray(fit_l.detail["center_world"])
            - np.asarray(fit_k.detail["center_world"]))) / diam_k
        run.stage("concentric-centers", "conclusion", center_gap, "concentric")
        s_l = np.asarray(fit_l.detail["shape_normalized"])
        s_k = np.asarray(fit_k.detail["shape_normalized"])
        shape_gap = float(np.linalg.norm(s_l - s_k) / np.linalg.norm(s_k))
        run.stage("homothetic-shapes", "conclusion", shape_gap, "homothety")
    else:
        for name in ("concentric-centers", "homothetic-shapes"):
            run.skip(name, "conclusion", "quadric fits are not both elliptic")

    return run.report(inputs={"p": [float(t) for t in p]})


def check_theorem3(l_body, k_body, apexes=12, m=64, lines=32, w_samples=16,
                   seed=0, tolerances=None):
    """Boundary points of the outer body as poles of the inner body.

    Hypotheses: every sampled outer boundary point is a pole of the inner
    body, and the cone-intersection curve from each apex pair stays strictly
    inside the outer body. Derived: each curve lies on the central plane
    parallel to the apex's polar, and segments from an apex to that central
    section of the outer boundary miss the inner body. Conclusion: the inner
    boundary is a quadric of elliptic type.
    """
    run = _CheckRun("t3", seed, tolerances,
                    dict(apexes=apexes, m=m, lines=lines, w_samples=w_samples),
                    inner=l_body, outer=k_body)
    tol = run.tol
    o = l_body.center
    _require_o_symmetric(l_body, o, "inner body")
    _require_o_symmetric(k_body, o, "outer body")
    _nesting_gate(l_body, k_body, tol["margin"])

    apex_pts = _boundary_cloud(k_body, apexes, seed=seed)

    pole_worst = 0.0
    pole_ok = True
    polars = []
    for pr in polar_of(l_body, apex_pts, m=lines, seed=seed, tolerances=tol):
        pole_worst = max(pole_worst, pr.residual)
        pole_ok = pole_ok and pr.classification != "not a pole"
        polars.append(pr.polar)
    run.stage("boundary-points-are-poles", "hypothesis", pole_worst, "pole",
              pole_ok and pole_worst <= tol["pole"], lines=int(lines))

    omegas = []
    max_gauge = 0.0
    for omega in cone_intersection(l_body, apex_pts, 2.0 * o - apex_pts, m=m,
                                   seed=seed):
        omegas.append(omega.points)
        max_gauge = max(max_gauge, float(k_body.gauge(omega.points).max()))
    allowed = 1.0 - tol["margin"]
    run.stage("cone-intersections-inside-outer", "hypothesis",
              max(0.0, max_gauge - allowed), None, max_gauge < allowed,
              max_gauge=float(max_gauge), allowed=allowed)

    worst_align = 0.0
    aligned = 0
    for pts, polar in zip(omegas, polars):
        if not isinstance(polar, Hyperplane):
            continue
        dists = (pts - o) @ polar.normal
        worst_align = max(worst_align, float(
            np.sqrt(np.mean(dists ** 2)) / cloud_diameter(pts)))
        aligned += 1
    if aligned == 0:
        run.skip("central-plane-alignment", "derived",
                 "no affine polar planes available")
    else:
        run.stage("central-plane-alignment", "derived", worst_align,
                  "planarity", curves=aligned)

    # segments from each of the first 4 apexes to the boundary of the
    # central section parallel to its polar
    keep = [i for i, polar in enumerate(polars[:4]) if isinstance(polar, Hyperplane)]
    if not keep:
        run.skip("almost-free-segments", "derived",
                 "no affine polar planes available")
    else:
        secs = [section(k_body, Hyperplane.from_point_normal(o, polars[i].normal))
                for i in keep]
        th = np.linspace(0.0, 2.0 * np.pi, w_samples, endpoint=False)
        w2 = np.column_stack([np.cos(th), np.sin(th)])
        ends = _boundary2(secs, np.tile(w2, (len(keep), 1)),
                          of=np.repeat(np.arange(len(keep)), w_samples))
        ends = np.concatenate([sec.to_world(q) for sec, q in
                               zip(secs, np.split(ends, len(keep)))])
        z = np.repeat(apex_pts[keep], w_samples, axis=0)
        min_gauge = float(l_body.line_min_gauge(z, ends - z)[1].min())
        needed = 1.0 + tol["margin"]
        run.stage("almost-free-segments", "derived", max(0.0, needed - min_gauge),
                  None, min_gauge > needed, min_gauge=min_gauge, needed=needed,
                  segments=len(z))

    run.fit_stage("inner-ellipsoid-fit", l_body, role="inner")
    return run.report()


def check_theorem4(k_body, radius, samples=12, m=64, seed=0, tolerances=None):
    """Sections of the body by tangent planes of an inscribed ball.

    Hypotheses: every sampled tangent-plane section is an ellipse, and the
    ball fits strictly inside the hull of each section pair (checked as an
    in-plane support margin). Derived: each section equals its antipodal
    section translated by a vector phi(u) (central symmetry of the section
    about its fitted center), phi is orthogonal in the conjugate sense, and
    midpoint loci of chords parallel to a section-plane meet are lines
    parallel to phi(u). Conclusion: the boundary is an elliptic quadric whose
    scaled tangent sections are centered on the conjugate axis.
    """
    # each tangent section's conic fit needs 8 points
    run = _CheckRun("t4", seed, tolerances, dict(samples=samples, m=m),
                    least={"m": 8}, body=k_body)
    tol = run.tol
    o = k_body.center
    _require_o_symmetric(k_body, o, "body")
    if not k_body.is_smooth:
        raise NonSmoothBody("tangent-plane sections need a smooth body")
    r = float(radius)
    if not (np.isfinite(r) and r > 0.0):
        raise ValueError("ball radius must be finite and > 0; got %r" % r)
    diam = k_body.diameter()
    dirs = sphere_directions(k_body.dim, 128, seed=seed)
    inradius = float((k_body.support(dirs) - np.vecdot(dirs, o)).min())
    if r * (1.0 + tol["margin"]) >= inradius:
        raise BallTooLarge("radius %.6g does not leave the inscribed margin %.6g"
                           % (r, inradius))

    us = sphere_directions(k_body.dim, samples, seed=seed)
    secs = [section(k_body, Hyperplane.from_point_normal(o + r * u, u)) for u in us]
    clouds = _boundary2(secs, np.tile(circle_directions(m, seed=seed), (len(secs), 1)),
                        of=np.repeat(np.arange(len(secs)), m))
    fits = [fit_planar_conic(sec.to_world(q), sec.plane, tol=tol["ellipse"])
            for sec, q in zip(secs, np.split(clouds, len(secs)))]
    worst_fit = max(fit.rms_residual for fit in fits)
    run.stage("tangent-sections-ellipses", "hypothesis", worst_fit, "ellipse",
              all(fit.classification == ELLIPSE for fit in fits)
              and worst_fit < tol["ellipse"], samples=len(us))

    v2 = circle_directions(32, seed=seed)
    hs = _support2(secs, np.tile(v2, (len(secs), 1)),
                   np.repeat(np.arange(len(secs)), len(v2)))
    min_margin = min(
        float((h - np.vecdot(sec.to_chart(o + r * u), v2) - r).min())
        for u, sec, h in zip(us, secs, hs.reshape(len(secs), -1)))
    rel = min_margin / diam
    run.stage("ball-inside-section-hulls", "hypothesis",
              max(0.0, tol["margin"] - rel), None, rel > tol["margin"],
              min_margin=float(min_margin), min_margin_rel=float(rel))

    # phi(u) from the symmetry center of the section: by o-symmetry the
    # antipodal section is the reflection of this one, so the translation
    # K_u = phi(u) + K_{-u} holds iff the section is symmetric about c, and
    # then phi(u) = 2 (c - o)
    syms = central_symmetry(secs, tol=tol["symmetry"], m=m, seed=seed)
    phis = [2.0 * (np.asarray(sym.center_world) - o) for sym in syms]
    worst_translate = float(_reflection_residual(
        secs, [sym.center for sym in syms]).max()) / diam
    steps = [(angle_between(u_a, u_b), np.linalg.norm(phi_a - phi_b))
             for u_a, u_b, phi_a, phi_b in zip(us, us[1:], phis, phis[1:])]
    lipschitz = max((float(d / ang) for ang, d in steps if ang > 1e-9), default=0.0)
    run.stage("parallel-translation", "derived", worst_translate, "hausdorff",
              sections=len(phis), lipschitz_estimate=lipschitz)

    # phi at directions orthogonal to phi(u); also feeds the midpoint stage
    worst_orth = 0.0
    grid = []
    for i, phi_u in enumerate(phis[:4]):
        npu = float(np.linalg.norm(phi_u))
        if npu <= 1e-12 * diam:
            continue
        f1, f2 = unit_frame(phi_u / npu).T[:2]
        for th in np.linspace(0.0, np.pi, 8, endpoint=False):
            v = np.cos(th) * f1 + np.sin(th) * f2
            grid.append((i, v, section(k_body,
                                       Hyperplane.from_point_normal(o + r * v, v))))
    syms = central_symmetry([sec_v for _, _, sec_v in grid],
                            tol=tol["symmetry"], m=m, seed=seed)
    # each u's first usable v, unless along u, gives a midpoint locus: (phi(u),
    # sec_v, its centre c2, the chord direction d_w = u x v, its chart normal e2)
    loci, seen = [], set()
    for (i, v, sec_v), sym_v in zip(grid, syms):
        phi_v = 2.0 * (np.asarray(sym_v.center_world) - o)
        npv = float(np.linalg.norm(phi_v))
        if npv <= 1e-12 * diam:
            continue
        worst_orth = max(worst_orth, float(abs(phi_v @ us[i])) / npv)
        if i in seen:
            continue
        seen.add(i)
        d_w = np.cross(us[i], v)
        nd = float(np.linalg.norm(d_w))
        if nd >= 1e-9:
            d2 = normalize(sec_v.basis @ (d_w / nd))
            loci.append((phis[i], sec_v, np.asarray(sym_v.center), d_w / nd,
                         np.array([-d2[1], d2[0]])))
    run.stage("translation-orthogonality", "derived", worst_orth, "bisector")

    scores = []  # per locus whose midpoints spread: the worse of rms and angle
    if loci:
        phi_l, secs_l, c2, d_w, e2 = zip(*loci)
        c2, d_w, e2 = np.array(c2)[:, None], np.array(d_w), np.array(e2)[:, None]
        # the chord at offset s along e2 passes through c2 + (s / k)(q - c2), with
        # q the support point on s's side and k = <q - c2, e2>: interior by convexity
        q = _support_point2(secs_l, np.concatenate([e2, -e2], axis=1).reshape(-1, 2),
                            np.repeat(np.arange(len(loci)), 2)).reshape(-1, 2, 2)
        k = np.vecdot(q - c2, e2)
        s = np.linspace(0.8 * k[:, 1], 0.8 * k[:, 0], 15, axis=-1)
        j = (s < 0.0).astype(int)
        chart = c2 + (s / np.take_along_axis(k, j, 1))[..., None] * (
            np.take_along_axis(q, j[..., None], 1) - c2)
        bases = np.stack([sec.to_world(p) for sec, p in zip(secs_l, chart)])
        a, b = ray_exit(k_body, bases, np.stack([-d_w, d_w])[:, :, None])
        for phi_u, mids in zip(phi_l, 0.5 * (a + b)):
            spread = cloud_diameter(mids)
            if spread > 1e-12 * diam:
                _, sv, vt = np.linalg.svd(mids - mids.mean(axis=0), full_matrices=False)
                rms = float(np.sqrt(np.sum(sv[1:] ** 2) / len(mids)) / spread)
                scores.append(max(rms, line_angle(vt[0], phi_u)))
    if not scores:
        run.skip("midpoint-locus-line", "derived", "no usable section pair")
    else:
        run.stage("midpoint-locus-line", "derived", max(scores), "angular",
                  loci=len(scores))

    qfit = run.fit_stage("ellipsoid-fit", k_body)

    if qfit.classification == ELLIPSE:
        shape_inv = np.linalg.inv(np.asarray(qfit.detail["shape_normalized"]))
        # two scaled sections per u, each centred on the conjugate axis
        scaled = [(u, scale * r) for u in us[:4] for scale in (0.35, 0.7)]
        secs_s = [section(k_body, Hyperplane.from_point_normal(o + h * u, u))
                  for u, h in scaled]
        predicted = [sec.to_chart(o + h * (shape_inv @ u) / float(u @ shape_inv @ u))
                     for sec, (u, h) in zip(secs_s, scaled)]
        run.stage("scaled-section-centering", "conclusion",
                  float(_reflection_residual(secs_s, predicted).max()) / diam,
                  "symmetry", sections=len(secs_s))
    else:
        run.skip("scaled-section-centering", "conclusion",
                 "quadric fit is not elliptic")

    return run.report(inputs={"radius": r})


def check_theorem_basico(k_body, p, eps=0.2, planes=8, offsets=7, m=64,
                         sym_m=96, seed=0, tolerances=None):
    """Slab sections through p: central symmetry and its consequences.

    Hypothesis: every sampled section within the eps-slab of every sampled
    hyperplane through p is centrally symmetric. Derived (only when the
    central sections are centered at p): the translation vector between a
    section and its reflection keeps the shadow boundary outside the open
    cylinder over the section. When sections are symmetric about centers
    away from p the report takes the FCT-case branch and the derived stage
    is skipped. Conclusion: elliptic quadric fit of the boundary.
    """
    run = _CheckRun("basico", seed, tolerances,
                    dict(planes=planes, offsets=offsets, m=m, sym_m=sym_m),
                    least={"m": 3, "sym_m": 3}, body=k_body)
    tol = run.tol
    if not k_body.is_smooth:
        raise NonSmoothBody("slab sections need a strictly convex smooth body")
    p = _require_interior(k_body, p, "body")
    eps = float(eps)
    if not (np.isfinite(eps) and eps > 0.0):
        raise ValueError("slab width eps must be finite and > 0; got %r" % eps)
    diam = k_body.diameter()

    normals = sphere_directions(k_body.dim, planes, seed=seed)
    offs = np.linspace(-eps / 2.0, eps / 2.0, offsets)
    central_idx = int(np.argmin(np.abs(offs)))
    slabs = []
    missed = 0
    for i, nrm in enumerate(normals):
        base_off = float(nrm @ p)
        for k_off, off in enumerate(offs):
            plane = Hyperplane(nrm, base_off + float(off))
            try:
                slabs.append((i, k_off, plane, section(k_body, plane)))
            except PlaneMissesBody:
                missed += 1
    worst_sym = 0.0
    all_sym = True
    central = {}
    top = {}
    syms = central_symmetry([sec for *_, sec in slabs], tol=tol["symmetry"],
                            m=sym_m, seed=seed)
    for (i, k_off, plane, sec), sr in zip(slabs, syms):
        worst_sym = max(worst_sym, sr.residual)
        all_sym = all_sym and sr.ok
        if k_off == central_idx:
            central[i] = sr
        if k_off == len(offs) - 1:
            top[i] = (sec, sr, plane)
    run.stage("slab-sections-centrally-symmetric", "hypothesis", worst_sym,
              "symmetry", all_sym, planes=len(normals), offsets=int(offsets),
              sections=len(slabs), missed=missed)

    centered = bool(central) and all(
        float(np.linalg.norm(np.asarray(sr.center_world) - p)) <= 1e-6 * diam
        for sr in central.values())
    branch = "FCT-case" if (all_sym and not centered) else None

    if branch == "FCT-case":
        run.skip("translation-and-shadow-containment", "derived",
                 "sections symmetric about a centre away from p",
                 branch="FCT-case")
    else:
        # the top sections whose translation -2 (c - p) does not vanish
        moved = []
        for sec, sr, plane in top.values():
            u_g = -2.0 * (np.asarray(sr.center_world) - p)
            denom = float(u_g @ plane.normal)
            if np.linalg.norm(u_g) <= 1e-9 * diam or abs(denom) <= 1e-15:
                continue  # concentric section: the translation vanishes
            moved.append((sec, np.asarray(sr.center), plane, u_g, denom))
        if not moved:
            run.skip("translation-and-shadow-containment", "derived",
                     "translation vectors vanish")
        else:
            # one shadow sweep over every translation, each shadow point moved
            # along its translation onto its section, then one ray exit from
            # each section's centre through all of them
            shadows = shadow_boundary(k_body, np.array([t[3] for t in moved]),
                                      m=m, seed=seed)
            d2 = []
            for (sec, c2, plane, u_g, denom), shadow in zip(moved, shadows):
                q = shadow.points
                t = -plane.signed_distance(q) / denom
                d2.append(sec.to_chart(q + np.multiply.outer(t, u_g)) - c2)
            d2 = np.concatenate(d2)
            c2 = np.repeat([t[1] for t in moved], m, axis=0)
            ndq = np.sqrt(np.vecdot(d2, d2))
            # a point at the centre is measured along (1, 0)
            near = ndq <= 1e-12 * diam
            dirs = np.where(near[:, None], (1.0, 0.0),
                            d2 / np.where(near, 1.0, ndq)[:, None])
            b2 = _boundary2([sec for sec, *_ in moved], dirs, c2,
                            np.repeat(np.arange(len(moved)), m)) - c2
            signed = np.where(near, 0.0, ndq) - np.sqrt(np.vecdot(b2, b2))
            rel = float(signed.min()) / diam
            run.stage("translation-and-shadow-containment", "derived",
                      max(0.0, -rel), "contact", rel >= -tol["contact"],
                      min_signed_rel=float(rel), slabs=len(moved))

    run.fit_stage("ellipsoid-fit", k_body)
    return run.report(inputs={"p": [float(t) for t in p], "eps": eps},
                      branch=branch)


def check_theorem_radon(k_body, planes=6, diameters=128, seed=0,
                        tolerances=None):
    """Central sections as Radon curves; conclusion: elliptic quadric."""
    run = _CheckRun("radon", seed, tolerances,
                    dict(planes=planes, diameters=diameters), body=k_body)
    o = k_body.center
    _require_o_symmetric(k_body, o, "body")
    # all the sections up front: one is_radon_curve call tests them together
    sections = [section(k_body, Hyperplane.from_point_normal(o, nrm))
                for nrm in sphere_directions(k_body.dim, planes, seed=seed)]
    run.radon_stage("central-sections-radon", "hypothesis", sections,
                    diameters, planes=int(planes), diameters=int(diameters))
    run.fit_stage("ellipsoid-fit", k_body)
    return run.report()
