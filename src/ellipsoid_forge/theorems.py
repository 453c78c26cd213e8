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
from .cones import (_finite_vector, _row, cone_intersection, graze,
                    is_ellipsoidal_cone, shadow_boundary)
from .errors import (
    BallTooLarge,
    BodiesNotNested,
    DegenerateLines,
    DegenerateQuadruple,
    GeometryError,
    NonSmoothBody,
    NotOSymmetric,
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
from .planar import (Sections, _boundary2, _central_symmetry, _rot90,
                     affine_diameter_residual, central_symmetry, is_radon_curve)
from .projective import HPoint, Hyperplane, fit_hyperplane_projective

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
    frames = unit_frame(normalize(e))
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
    sol = find_root(lambda psi, i: f(psi, rows[i]), (grid[cells], grid[cells + 1]),
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
    pts = np.stack([gr.points for gr in curves])
    nrm = np.stack([pl.normal for pl in planes])
    offset = np.array([pl.offset for pl in planes])
    gap = np.abs(np.vecdot(nrm[:, None], pts) - offset[:, None])
    # graze sweeps about the axis through body.center along e, in the planes
    # span(e, u), u = cos(th) w1 + sin(th) w2 on its frame (w1, w2); the
    # axis meets the polar at distance num / den from the centre, or nowhere
    # when they are parallel (polar_of's rule, on the unit axis)
    c = body.center
    e = np.array([gr.meta["axis_dir"] for gr in curves])
    axis = normalize(e)
    num, den = offset - np.vecdot(nrm, c), np.vecdot(axis, nrm)
    parallel = np.abs(den) <= 1e-14 * (1.0 + np.abs(num))
    z = c + (num / np.where(parallel, 1.0, den))[:, None] * axis
    traced = np.flatnonzero(~parallel & (body.gauge(z) < 1.0 - 1e-9))
    if traced.size:
        w = np.array([curves[i].meta["frame"] for i in traced])[:, None]
        th = np.array([curves[i].meta["angles"] for i in traced])[..., None]
        u = np.cos(th) * w[..., 0, :] + np.sin(th) * w[..., 1, :]
        e, nrm = e[traced, None], nrm[traced, None]
        dirs = u - (np.vecdot(u, nrm) / np.vecdot(e, nrm))[..., None] * e
        q = ray_exit(body, np.broadcast_to(z[traced, None], dirs.shape), dirs)
        gap[traced] = np.linalg.norm(pts[traced] - q, axis=-1)
    return gap.max(axis=1)


def _reflection_residual(secs, centres2, k=48):
    """Worst absolute gap, per section, between the reflection of boundary
    samples through its chart centre and the section boundary, along matched
    rays -u then +u, from one _boundary2 call over every section."""
    centres2 = np.asarray(centres2, dtype=float)[:, None, None]
    th = np.linspace(0.0, np.pi, k, endpoint=False)
    u = np.column_stack([np.cos(th), np.sin(th)])
    ends = _boundary2(secs, np.broadcast_to(np.stack([-u, u]), (len(secs), 2, k, 2)),
                      centres2)
    gap = ends[:, 0] - (2.0 * centres2[:, 0] - ends[:, 1])
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
    # fewer than n + 2 lines is a DegenerateLines, 0 lines too
    m = require_sizes("polar_of", {"m": m}, least={"m": 0})["m"]
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
            detail={"m": m, "seed": int(seed), "rank_gap": float(rank_gap),
                    "interior": bool(interior[i])},
        ))
        # an exterior pole's polar is affine (the argument is in check_theorem3)
        if not interior[i] and classification != "not a pole" and body.is_smooth:
            grazing.append(i)
    if grazing:
        # the polar of an exterior pole must cut the boundary along the graze
        gm = max(64, m)
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

    fits = [fit.detail for fit in is_ellipsoidal_cone(
        apex_pts, graze(l_body, apex_pts, m=m, seed=seed), tol=tol["ellipse"],
        seed=seed)]
    run.stage("ellipsoidal-cones", "hypothesis", max(f["max_rms"] for f in fits),
              "ellipse", all(f["ellipsoidal"] for f in fits), apexes=len(apex_pts))

    # intersection of the cones from x and from the reflected apex 2o - x
    planes = fit_hyperplane(np.stack([delta.points for delta in cone_intersection(
        l_body, apex_pts, 2.0 * o - apex_pts, m=m, seed=seed)]))
    fitted_normals = [fit.model.normal for fit in planes]
    rms = [fit.rms_residual for fit in planes]
    run.stage("cone-intersection-planarity", "derived", max(rms), "planarity",
              max(rms) < tol["planarity"])

    # on the first `pairs` neighbouring apex pairs whose line misses the
    # inner body, the contact chord of the supporting planes through the line
    # against the meet of the fitted intersection planes (not nearly
    # parallel, which leaves the meet ill-conditioned)
    meet = np.cross(fitted_normals, np.roll(fitted_normals, -1, axis=0))
    step = np.roll(apex_pts, -1, axis=0) - apex_pts
    cand = np.flatnonzero(
        (l_body.line_min_gauge(apex_pts, step)[1] > 1.0 + tol["margin"])
        & (np.linalg.norm(meet, axis=1) >= 1e-3))
    angles = np.empty(0)
    if cand.size:
        two, normals = _tangent_planes_through_line(l_body, apex_pts[cand],
                                                    step[cand])
        ends = l_body.support_point(normals[:pairs])
        angles = line_angle(ends[:, 0] - ends[:, 1], meet[cand[two][:pairs]])
    if not angles.size:
        run.skip("contact-chord-parallelism", "derived",
                 "no apex pair whose line misses the inner body")
    else:
        run.stage("contact-chord-parallelism", "derived", angles.max(),
                  "angular", pairs=len(angles))

    run.fit_stage("inner-ellipsoid-fit", l_body, role="inner")
    return run.report()


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
    # a cone intersection needs 3 points
    run = _CheckRun("t2", seed, tolerances,
                    dict(apexes=apexes, m=m, chords=chords, radon_k=radon_k),
                    least={"m": 3}, inner=l_body, outer=k_body)
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
    xs, ys = k_body.boundary_point(p, np.stack([apex_dirs, -apex_dirs]))
    omegas = intersections(xs, ys)
    failures = [type(w).__name__ for w in omegas if isinstance(w, GeometryError)]
    kept = [i for i, w in enumerate(omegas) if not isinstance(w, GeometryError)]
    defects = [1.0] * len(failures)  # a failed pair scores 1.0
    if kept:
        # each curve's plane through p, normal to its least principal axis
        curves = np.stack([omegas[i].points for i in kept])
        normals = normalize(np.linalg.svd(curves - p, full_matrices=False)[2][:, -1])
        secs = Sections(k_body, normals, np.vecdot(normals, p))
        # each curve point against the boundary point of its section in its
        # chart direction from p, from one _boundary2 call over the (S, m)
        # curve points; a point at p is aimed along (1, 0) and is its own match
        base2 = secs.to_chart(p[None])[:, None]
        d2 = secs.to_chart(curves) - base2
        nd = np.sqrt(np.vecdot(d2, d2))
        far = (nd > 1e-14)[..., None]
        dirs = np.where(far, d2 / np.where(far, nd[..., None], 1.0), (1.0, 0.0))
        matched = secs.to_world(np.where(far, _boundary2(secs, dirs, base2), base2))
        defects += [hausdorff(pts, q) / diam_k for pts, q in zip(curves, matched)]
    worst_defect = max(defects)
    run.stage("cone-intersection-matches-section", "hypothesis", worst_defect,
              "hausdorff", apexes=int(apexes),
              search_failed=worst_defect > 10.0 * tol["hausdorff"], errors=failures)

    if not kept:
        for name in ("supporting-planes-parallel", "section-chords-affine-diameters",
                     "sections-are-radon"):
            run.skip(name, "derived", "no section plane found")
    else:
        run.stage("supporting-planes-parallel", "derived",
                  line_angle(k_body.normal_at(np.stack([xs[kept], ys[kept]])),
                             secs.normals).max(), "angular")

        # both chord ends of the first three sections from one _boundary2 call
        th = np.linspace(0.0, np.pi, chords, endpoint=False)
        u2 = np.column_stack([np.cos(th), np.sin(th)])
        first = secs[:3]
        ends = _boundary2(first, np.broadcast_to(np.stack([u2, -u2]),
                                                 (len(first), 2, chords, 2)),
                          base2[:3, None])
        worst_chord = max(float(affine_diameter_residual(sec, a, b).max())
                          for sec, (a, b) in zip(first, ends))
        run.stage("section-chords-affine-diameters", "derived", worst_chord,
                  "diameter", chords=int(chords))
        run.radon_stage("sections-are-radon", "derived", secs[:2], radon_k,
                        k=int(radon_k))

    fit_l, fit_k = fit_quadric(np.stack([_boundary_cloud(body, 256, seed=seed)
                                         for body in (l_body, k_body)]),
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
    # a cone intersection needs 3 points, and the polar fit n + 2 lines
    run = _CheckRun("t3", seed, tolerances,
                    dict(apexes=apexes, m=m, lines=lines, w_samples=w_samples),
                    least={"m": 3, "lines": 5}, inner=l_body, outer=k_body)
    tol = run.tol
    o = l_body.center
    _require_o_symmetric(l_body, o, "inner body")
    _require_o_symmetric(k_body, o, "outer body")
    _nesting_gate(l_body, k_body, tol["margin"])

    apex_pts = _boundary_cloud(k_body, apexes, seed=seed)

    poles = polar_of(l_body, apex_pts, m=lines, seed=seed, tolerances=tol)
    pole_worst = max(pr.residual for pr in poles)
    run.stage("boundary-points-are-poles", "hypothesis", pole_worst, "pole",
              pole_worst <= tol["pole"]
              and all(pr.classification != "not a pole" for pr in poles),
              lines=int(lines))
    # every polar is affine: _nesting_gate puts each apex outside l_body, so
    # on each chord through it both ends lie beyond it (ta, tb > 0) and each
    # harmonic conjugate, at 2 ta tb / (ta + tb), is a finite point of its
    # chord; the hyperplane at infinity is the polar of the centre only
    normals = np.stack([pr.polar.normal for pr in poles])

    omegas = np.stack([omega.points for omega in cone_intersection(
        l_body, apex_pts, 2.0 * o - apex_pts, m=m, seed=seed)])
    max_gauge = float(k_body.gauge(omegas.reshape(-1, 3)).max())
    allowed = 1.0 - tol["margin"]
    run.stage("cone-intersections-inside-outer", "hypothesis",
              max(0.0, max_gauge - allowed), None, max_gauge < allowed,
              max_gauge=float(max_gauge), allowed=allowed)

    dists = np.vecdot(omegas - o, normals[:, None])
    worst_align = float((np.sqrt(np.mean(dists ** 2, axis=1))
                         / cloud_diameter(omegas)).max())
    run.stage("central-plane-alignment", "derived", worst_align, "planarity",
              curves=len(omegas))

    # segments from each of the first 4 apexes to the boundary of the
    # central section parallel to its polar
    normals = normalize(normals[:4])
    secs = Sections(k_body, normals, np.vecdot(normals, o))
    th = np.linspace(0.0, 2.0 * np.pi, w_samples, endpoint=False)
    w2 = np.column_stack([np.cos(th), np.sin(th)])
    ends = secs.to_world(_boundary2(secs, np.broadcast_to(w2, (len(secs), w_samples, 2))))
    z = apex_pts[:len(secs), None]
    min_gauge = float(l_body.line_min_gauge(z, ends - z)[1].min())
    needed = 1.0 + tol["margin"]
    run.stage("almost-free-segments", "derived", max(0.0, needed - min_gauge),
              None, min_gauge > needed, min_gauge=min_gauge, needed=needed,
              segments=len(secs) * w_samples)

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
    # phi(u) is about 2r long, and below this floor its rounding fails the gates
    if r < 1e-6 * diam:
        raise ValueError("ball radius %.6g is below 1e-6 of the body's "
                         "diameter %.6g" % (r, diam))
    dirs = sphere_directions(k_body.dim, 128, seed=seed)
    inradius = float((k_body.support(dirs) - np.vecdot(dirs, o)).min())
    if r * (1.0 + tol["margin"]) >= inradius:
        raise BallTooLarge("radius %.6g does not leave the inscribed margin %.6g"
                           % (r, inradius))

    us = sphere_directions(k_body.dim, samples, seed=seed)
    normals = normalize(us)
    secs = Sections(k_body, normals, np.vecdot(normals, o + r * us))
    clouds = _boundary2(secs, np.broadcast_to(circle_directions(m, seed=seed),
                                              (len(secs), m, 2)))
    fits = fit_planar_conic(secs.to_world(clouds), secs.planes, tol=tol["ellipse"])
    worst_fit = max(fit.rms_residual for fit in fits)
    run.stage("tangent-sections-ellipses", "hypothesis", worst_fit, "ellipse",
              all(fit.classification == ELLIPSE for fit in fits)
              and worst_fit < tol["ellipse"], samples=len(us))

    # the margin rows join the tangent sections' symmetry solve
    v2 = circle_directions(32, seed=seed)
    syms, solve = _central_symmetry(secs, tol["symmetry"], m, seed, rows=v2)
    hs = solve.values(slice(-len(v2), None))
    min_margin = float(
        (hs - np.vecdot(secs.to_chart(o + r * us)[:, None], v2) - r).min())
    rel = min_margin / diam
    run.stage("ball-inside-section-hulls", "hypothesis",
              max(0.0, tol["margin"] - rel), None, rel > tol["margin"],
              min_margin=float(min_margin), min_margin_rel=float(rel))

    # phi(u) from the symmetry center of the section: by o-symmetry the
    # antipodal section is the reflection of this one, so the translation
    # K_u = phi(u) + K_{-u} holds iff the section is symmetric about c, and
    # then phi(u) = 2 (c - o)
    phis = [2.0 * (np.asarray(sym.center_world) - o) for sym in syms]
    worst_translate = float(_reflection_residual(
        secs, [sym.center for sym in syms]).max()) / diam
    steps = [(angle_between(u_a, u_b), np.linalg.norm(phi_a - phi_b))
             for u_a, u_b, phi_a, phi_b in zip(us, us[1:], phis, phis[1:])]
    lipschitz = max((float(d / ang) for ang, d in steps if ang > 1e-9), default=0.0)
    run.stage("parallel-translation", "derived", worst_translate, "hausdorff",
              sections=len(phis), lipschitz_estimate=lipschitz)

    # phi at 8 directions v orthogonal to each of the first 4 phi(u); |phi(u)|
    # and |phi(v)| are at least 2r, as each section's centre lies in its plane
    f = unit_frame(normalize(np.array(phis[:4])))
    th = np.linspace(0.0, np.pi, 8, endpoint=False)[:, None]
    # (4, 8) grid directions, u-major, as (32, 3) rows
    vs = (np.cos(th) * f[:, None, :, 0] + np.sin(th) * f[:, None, :, 1]).reshape(-1, 3)
    u_of_v = np.repeat(us[:4], 8, axis=0)
    normals = normalize(vs)
    secs_v = Sections(k_body, normals, np.vecdot(normals, o + r * vs))
    # each grid section's chord direction d_w = u x v, at least 2r / |phi(u)|
    # long, and its chart normal e2; e2 depends on the grid alone, so the
    # support points at +-e2 join the grid's symmetry solve
    d_w = normalize(np.cross(u_of_v, vs))
    e2 = _rot90(normalize(np.matvec(secs_v.bases, d_w)))[:, None]
    syms, solve = _central_symmetry(secs_v, tol["symmetry"], m, seed,
                                    rows=np.concatenate([e2, -e2], axis=1))
    q = solve.points(slice(-2, None))
    worst_orth = 0.0
    for u, sym_v in zip(u_of_v, syms):
        phi_v = 2.0 * (np.asarray(sym_v.center_world) - o)
        worst_orth = max(worst_orth,
                         float(abs(phi_v @ u)) / float(np.linalg.norm(phi_v)))
    run.stage("translation-orthogonality", "derived", worst_orth, "bisector")

    # each u's first v gives a midpoint locus: sec_v, its centre c2, d_w and e2
    c2 = np.array([sym_v.center for sym_v in syms[::8]])[:, None]
    d_w, e2, q = d_w[::8], e2[::8], q[::8]
    # the chord at offset s along e2 passes through c2 + (s / k)(q - c2), with
    # q the support point on s's side and k = <q - c2, e2>: interior by convexity
    k = np.vecdot(q - c2, e2)
    s = np.linspace(0.8 * k[:, 1], 0.8 * k[:, 0], 15, axis=-1)
    j = (s < 0.0).astype(int)
    chart = c2 + (s / np.take_along_axis(k, j, 1))[..., None] * (
        np.take_along_axis(q, j[..., None], 1) - c2)
    bases = secs_v[::8].to_world(chart)
    a, b = ray_exit(k_body, bases, np.stack([-d_w, d_w])[:, :, None])
    scores = []  # per locus: the worse of its rms off a line and its angle
    for phi_u, mids in zip(phis, 0.5 * (a + b)):
        spread = cloud_diameter(mids)  # the offsets span 0.8 of the width
        _, sv, vt = np.linalg.svd(mids - mids.mean(axis=0), full_matrices=False)
        rms = float(np.sqrt(np.sum(sv[1:] ** 2) / len(mids)) / spread)
        scores.append(max(rms, line_angle(vt[0], phi_u)))
    run.stage("midpoint-locus-line", "derived", max(scores), "angular",
              loci=len(scores))

    qfit = run.fit_stage("ellipsoid-fit", k_body)

    if qfit.classification == ELLIPSE:
        shape_inv = np.linalg.inv(np.asarray(qfit.detail["shape_normalized"]))
        # two scaled sections per u, each centred on the conjugate axis
        u_s, h_s = np.repeat(us[:4], 2, axis=0), r * np.array([0.35, 0.7] * 4)
        normals = normalize(u_s)
        secs_s = Sections(k_body, normals, np.vecdot(normals, o + h_s[:, None] * u_s))
        predicted = secs_s.to_chart(np.array(
            [o + h * (shape_inv @ u) / float(u @ shape_inv @ u) for u, h in zip(u_s, h_s)]))
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
    # the slab planes, plane i at offset k in row i * offsets + k; a plane
    # that does not cut the body between -h(-n) and h(n), with a 1e-9 margin
    # of the width (the section builder's own margin is within it), is missed
    plane_off = np.vecdot(normals, p)[:, None] + offs
    h = k_body.support(np.stack([normals, -normals]))[..., None]
    margin = 1e-9 * (h[0] + h[1])
    cut = (plane_off < h[0] - margin) & (plane_off > margin - h[1])
    plane_i, plane_k = np.divmod(np.flatnonzero(cut), offsets)
    secs = Sections(k_body, normals[plane_i], plane_off[plane_i, plane_k])
    syms = central_symmetry(secs, tol=tol["symmetry"], m=sym_m, seed=seed)
    worst_sym = max((sr.residual for sr in syms), default=0.0)
    all_sym = all(sr.ok for sr in syms)
    run.stage("slab-sections-centrally-symmetric", "hypothesis", worst_sym,
              "symmetry", all_sym, planes=len(normals), offsets=int(offsets),
              sections=len(secs), missed=int(cut.size - len(secs)))

    central = [sr for sr, k_off in zip(syms, plane_k) if k_off == central_idx]
    centered = bool(central) and all(
        float(np.linalg.norm(np.asarray(sr.center_world) - p)) <= 1e-6 * diam
        for sr in central)
    branch = "FCT-case" if (all_sym and not centered) else None

    if branch == "FCT-case":
        run.skip("translation-and-shadow-containment", "derived",
                 "sections symmetric about a centre away from p",
                 branch="FCT-case")
    else:
        # the top sections whose translation -2 (c - p) does not vanish
        top = np.flatnonzero(plane_k == len(offs) - 1)
        u_g = -2.0 * (np.array([syms[j].center_world for j in top]).reshape(-1, 3) - p)
        denom = np.vecdot(u_g, secs.normals[top])
        # a concentric section's translation vanishes
        kept = (np.sqrt(np.vecdot(u_g, u_g)) > 1e-9 * diam) & (np.abs(denom) > 1e-15)
        if not kept.any():
            run.skip("translation-and-shadow-containment", "derived",
                     "translation vectors vanish")
        else:
            # one shadow sweep over every translation, each shadow point moved
            # along its translation onto its section, then one ray exit from
            # each section's centre through all of them
            moved, u_g, denom = secs[top[kept]], u_g[kept], denom[kept]
            q = np.stack([shadow.points for shadow in
                          shadow_boundary(k_body, u_g, m=m, seed=seed)])
            t = -(np.vecdot(moved.normals[:, None], q) - moved.offsets[:, None]) / denom[:, None]
            c2 = np.stack([syms[j].center for j in top[kept]])[:, None]
            d2 = moved.to_chart(q + t[..., None] * u_g[:, None]) - c2
            ndq = np.sqrt(np.vecdot(d2, d2))
            # a point at the centre is measured along (1, 0)
            near = ndq <= 1e-12 * diam
            dirs = np.where(near[..., None], (1.0, 0.0),
                            d2 / np.where(near, 1.0, ndq)[..., None])
            b2 = _boundary2(moved, dirs, c2) - c2
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
    normals = normalize(sphere_directions(k_body.dim, planes, seed=seed))
    sections = Sections(k_body, normals, np.vecdot(normals, o))
    run.radon_stage("central-sections-radon", "hypothesis", sections,
                    diameters, planes=int(planes), diameters=int(diameters))
    run.fit_stage("ellipsoid-fit", k_body)
    return run.report()
