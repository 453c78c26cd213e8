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
from scipy.optimize import brentq

from .bodies import (
    is_o_symmetric,
    line_boundary_points,
    line_min_gauge,
    o_symmetry_residual,
)
from .cones import (_finite_vector, cone_intersection, graze, is_ellipsoidal_cone,
                    shadow_boundary, support_cone)
from .errors import (
    BallTooLarge,
    BodiesNotNested,
    DegenerateLines,
    GeometryError,
    LineMissesBody,
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
    cloud_diameter,
    floored,
    hausdorff,
    line_angle,
    normalize,
    require_sizes,
    sphere_directions,
    unit_frame,
)
from .planar import affine_diameter_residual, central_symmetry, is_radon_curve, section
from .projective import (
    HPoint,
    Hyperplane,
    Line,
    cross_ratio,
    fit_hyperplane_projective,
    harmonic_conjugate,
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
        """Worst conjugacy defect of is_radon_curve over the sections."""
        worst, ok = 0.0, True
        for sec in sections:
            rr = is_radon_curve(sec, k=k, contact_tol=self.tol["contact"],
                                seed=self.seed)
            ok = ok and rr.ok
            d = rr.worst_defect
            worst = max(worst, d if np.isfinite(d) else 1.0)
        self.stage(name, kind, worst, "contact", ok, **detail)

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
    dirs = sphere_directions(body.dim, m, seed=seed)
    return np.array([body.boundary_from_center(u) for u in dirs])


def _nesting_gate(inner, outer, margin, m=128, seed=0):
    """Raise unless inner sits strictly inside outer with relative slack."""
    diam = outer.diameter()
    gap = max(float(inner.support(u) - outer.support(u))
              for u in sphere_directions(inner.dim, m, seed=seed))
    if gap > -margin * diam:
        raise BodiesNotNested("support gap %.3e, needed below %.3e"
                              % (gap, -margin * diam))


def _tangent_planes_through_line(body, p0, e):
    """Outer normals of the supporting planes containing the line p0 + t e.

    A smooth strictly convex body missed by the line has exactly two; returns
    None when the sign sweep does not isolate exactly two roots.
    """
    frame = unit_frame(normalize(e))
    f1, f2 = frame[:, 0], frame[:, 1]
    p0 = np.asarray(p0, dtype=float)

    def f(psi):
        nrm = np.cos(psi) * f1 + np.sin(psi) * f2
        return float(body.support(nrm) - p0 @ nrm)

    grid = np.linspace(0.0, 2.0 * np.pi, 257)
    vals = np.array([f(t) for t in grid])
    roots = []
    for i in range(256):
        if vals[i] * vals[i + 1] < 0.0:
            roots.append(brentq(f, grid[i], grid[i + 1], xtol=1e-14, rtol=8.9e-16))
    if len(roots) != 2:
        return None
    return [np.cos(t) * f1 + np.sin(t) * f2 for t in roots]


def _graze_polar_agreement(body, apex, plane, m, seed):
    """Worst distance between graze points and the matched trace of plane.

    For every sweep angle of the graze the candidate partner is the boundary
    point of (sweep plane) cap (polar plane) on the same side of the axis, so
    the comparison is grid-matched and needs no cloud Hausdorff.
    """
    gr = graze(body, apex, m=m, seed=seed)
    c = np.asarray(gr.meta["axis_point"])
    e = np.asarray(gr.meta["axis_dir"])
    w1 = np.asarray(gr.meta["frame"][0])
    w2 = np.asarray(gr.meta["frame"][1])
    nrm, off = plane.normal, plane.offset
    worst = 0.0
    for p, th in zip(gr.points, gr.meta["angles"]):
        u = np.cos(th) * w1 + np.sin(th) * w2
        ge, gu = float(e @ nrm), float(u @ nrm)
        denom = ge * ge + gu * gu
        if denom <= 1e-18:
            worst = max(worst, abs(plane.signed_distance(p)))
            continue
        alpha = (off - float(c @ nrm)) / denom
        base = c + alpha * (ge * e + gu * u)
        direction = -gu * e + ge * u
        try:
            a, b = line_boundary_points(body, Line(base, direction))
        except LineMissesBody:
            worst = max(worst, abs(plane.signed_distance(p)))
            continue
        q = a if float((a - c) @ u) >= float((b - c) @ u) else b
        worst = max(worst, float(np.linalg.norm(p - q)))
    return worst


def _reflection_residual(sec, center2, k=48):
    """Worst absolute gap between the reflection of boundary samples through
    center2 and the section boundary, found along matched rays."""
    center2 = np.asarray(center2, dtype=float)
    worst = 0.0
    for th in np.linspace(0.0, np.pi, k, endpoint=False):
        u = np.array([np.cos(th), np.sin(th)])
        b = sec.boundary2(u, base2=center2)
        reflected = 2.0 * center2 - b
        d2 = center2 - b
        nd = float(np.linalg.norm(d2))
        if nd <= 1e-15:
            continue
        q = sec.boundary2(d2 / nd, base2=center2)
        worst = max(worst, float(np.linalg.norm(q - reflected)))
    return worst


def polar_of(body, o, m=64, seed=0, tolerances=None, graze_m=None):
    """Harmonic-conjugate test: is o a pole of the body?

    Draws m lines through o meeting the interior, collects the harmonic
    conjugate of o with respect to the two boundary points of each line, and
    fits a projective hyperplane through the conjugates (the hyperplane at
    infinity is an admissible fit). The residual is the incidence residual of
    the fit plus the worst |cross ratio + 1| when the four points are read
    back against the fitted polar. Exterior poles of smooth bodies are also
    compared against the graze curve: the polar must cut the boundary exactly
    along it.
    """
    tol = _merge_tolerances(tolerances)
    o = _finite_vector(body, o, "point")
    g0 = body.gauge(o)
    if abs(g0 - 1.0) <= 1e-9:
        raise PointOnBoundary("gauge of o is %.12f" % g0)
    interior = g0 < 1.0
    n = body.dim
    if m < n + 2:
        raise DegenerateLines("need at least %d lines through o" % (n + 2))
    diam = body.diameter()
    c = body.center
    dirs = sphere_directions(n, m, seed=seed)
    if not interior:
        # aim at interior targets so every line crosses the body
        dirs = np.array([
            normalize(c + 0.85 * (body.boundary_from_center(w) - c) - o)
            for w in dirs
        ])
    o_h = HPoint.from_affine(o)
    conjugates = []
    lines = []
    for d in dirs:
        ln = Line(o, d)
        a, b = line_boundary_points(body, ln)
        conjugates.append(
            harmonic_conjugate(HPoint.from_affine(a), HPoint.from_affine(b), o_h))
        lines.append((ln, a, b))
    polar, fit_residual, rank_gap = fit_hyperplane_projective(
        conjugates, spatial_scale=diam)
    if rank_gap <= 1e-9:
        raise DegenerateLines("conjugate cloud is rank deficient (gap %.3e)"
                              % rank_gap)
    cr_residual = 0.0
    for ln, a, b in lines:
        q = polar.intersect_line(ln)
        cr = cross_ratio(HPoint.from_affine(a), HPoint.from_affine(b), o_h, q)
        cr_residual = max(cr_residual, abs(cr + 1.0))
    residual = fit_residual + cr_residual
    if residual <= tol["pole"]:
        classification = ("projective centre" if interior
                          else "projective hyperplane of symmetry")
    else:
        classification = "not a pole"
    detail = {
        "m": int(m),
        "seed": int(seed),
        "rank_gap": float(rank_gap),
        "interior": bool(interior),
    }
    graze_hausdorff = None
    if (not interior and classification != "not a pole"
            and isinstance(polar, Hyperplane) and body.is_smooth):
        # the polar of an exterior pole must cut the boundary along the graze
        gm = int(graze_m) if graze_m else max(64, int(m))
        graze_hausdorff = _graze_polar_agreement(body, o, polar, m=gm, seed=seed) / diam
        detail["graze_m"] = gm
        if graze_hausdorff > tol["hausdorff"]:
            classification = "not a pole"
            detail["graze_disagrees"] = True
    return PoleResult(
        pole=o_h,
        polar=polar,
        classification=classification,
        residual=float(residual),
        fit_residual=float(fit_residual),
        cr_residual=float(cr_residual),
        graze_hausdorff=graze_hausdorff,
        detail=detail,
    )


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
    # each apex is paired with the next one, so one apex would pair with itself
    run = _CheckRun("t1", seed, tolerances, dict(apexes=apexes, m=m, pairs=pairs),
                    least={"apexes": 2}, inner=l_body, outer=k_body)
    tol = run.tol
    _nesting_gate(l_body, k_body, tol["margin"])
    o = l_body.center

    run.stage("inner-o-symmetry", "hypothesis", o_symmetry_residual(l_body, o),
              "symmetry")

    apex_pts = _boundary_cloud(k_body, apexes, seed=seed)

    worst_rms = 0.0
    all_ellipsoidal = True
    for x in apex_pts:
        fit = is_ellipsoidal_cone(support_cone(l_body, x, m=m, seed=seed),
                                  tol=tol["ellipse"], seed=seed)
        worst_rms = max(worst_rms, fit.detail["max_rms"])
        all_ellipsoidal = all_ellipsoidal and fit.detail["ellipsoidal"]
    run.stage("ellipsoidal-cones", "hypothesis", worst_rms, "ellipse",
              all_ellipsoidal, apexes=len(apex_pts))

    # intersection of the cones from x and from the reflected apex 2o - x
    fitted_planes = []
    worst_planarity = 0.0
    planar_ok = True
    for x in apex_pts:
        delta = cone_intersection(l_body, x, 2.0 * o - x, m=m, seed=seed)
        fit = fit_hyperplane(delta.points)
        fitted_planes.append(fit.model)
        worst_planarity = max(worst_planarity, fit.rms_residual)
        planar_ok = planar_ok and fit.rms_residual < tol["planarity"]
    run.stage("cone-intersection-planarity", "derived", worst_planarity,
              "planarity", planar_ok)

    # contact chord of the supporting planes through the apex line, against
    # the meet of the two fitted intersection planes
    worst_angle = 0.0
    used = 0
    for i in range(len(apex_pts)):
        if used >= pairs:
            break
        j = (i + 1) % len(apex_pts)
        xi, xj = apex_pts[i], apex_pts[j]
        if line_min_gauge(l_body, Line(xi, xj - xi))[1] <= 1.0 + tol["margin"]:
            continue
        meet = np.cross(fitted_planes[i].normal, fitted_planes[j].normal)
        if np.linalg.norm(meet) < 1e-3:
            continue  # nearly parallel planes leave the meet ill-conditioned
        normals = _tangent_planes_through_line(l_body, xi, xj - xi)
        if normals is None:
            continue
        a = l_body.support_point(normals[0])
        b = l_body.support_point(normals[1])
        worst_angle = max(worst_angle, line_angle(a - b, meet))
        used += 1
    if used == 0:
        run.skip("contact-chord-parallelism", "derived",
                 "no apex pair whose line misses the inner body")
    else:
        run.stage("contact-chord-parallelism", "derived", worst_angle,
                  "angular", pairs=used)

    run.fit_stage("inner-ellipsoid-fit", l_body, role="inner")
    return run.report()


def _matched_section_cloud(sec, pts_world, base2):
    """Boundary points of the section in the chart directions of pts_world."""
    out = np.empty_like(np.asarray(pts_world, dtype=float))
    for i, z in enumerate(pts_world):
        w2 = sec.to_chart(z)
        d2 = w2 - base2
        nd = float(np.linalg.norm(d2))
        if nd <= 1e-14:
            out[i] = sec.to_world(base2)
            continue
        q2 = sec.boundary2(d2 / nd, base2=base2)
        out[i] = sec.to_world(q2)
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

    apex_dirs = sphere_directions(k_body.dim, apexes, seed=seed)
    kept = []  # (sec, base2, plane, x, y) per usable apex
    worst_defect = 0.0
    failures = []
    for u in apex_dirs:
        x = k_body.boundary_point(p, u)
        y = k_body.boundary_point(p, -u)
        try:
            omega = cone_intersection(l_body, x, y, m=m, seed=seed)
        except GeometryError as exc:
            failures.append(type(exc).__name__)
            worst_defect = max(worst_defect, 1.0)
            continue
        pts = omega.points
        _, _, vt = np.linalg.svd(pts - p, full_matrices=False)
        plane = Hyperplane.from_point_normal(p, vt[-1])
        sec = section(k_body, plane, interior_hint=p)
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
        for sec, base2, plane, x, y in kept[:3]:
            for th in np.linspace(0.0, np.pi, chords, endpoint=False):
                u2 = np.array([np.cos(th), np.sin(th)])
                a2 = sec.boundary2(u2, base2=base2)
                b2 = sec.boundary2(-u2, base2=base2)
                worst_chord = max(worst_chord,
                                  affine_diameter_residual(sec, a2, b2))
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
    for x in apex_pts:
        pr = polar_of(l_body, x, m=lines, seed=seed, tolerances=tol)
        pole_worst = max(pole_worst, pr.residual)
        pole_ok = pole_ok and pr.classification != "not a pole"
        polars.append(pr.polar)
    run.stage("boundary-points-are-poles", "hypothesis", pole_worst, "pole",
              pole_ok and pole_worst <= tol["pole"], lines=int(lines))

    omegas = []
    max_gauge = 0.0
    for x in apex_pts:
        omega = cone_intersection(l_body, x, 2.0 * o - x, m=m, seed=seed)
        omegas.append(omega.points)
        max_gauge = max(max_gauge,
                        max(float(k_body.gauge(q)) for q in omega.points))
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

    min_line_gauge = np.inf
    segments = 0
    for z, polar in zip(apex_pts[:4], polars[:4]):
        if not isinstance(polar, Hyperplane):
            continue
        central = Hyperplane.from_point_normal(o, polar.normal)
        sec = section(k_body, central, interior_hint=o)
        for th in np.linspace(0.0, 2.0 * np.pi, w_samples, endpoint=False):
            w2 = sec.boundary2(np.array([np.cos(th), np.sin(th)]))
            w = sec.to_world(w2)
            min_line_gauge = min(min_line_gauge,
                                 line_min_gauge(l_body, Line(z, w - z))[1])
            segments += 1
    if segments == 0:
        run.skip("almost-free-segments", "derived",
                 "no affine polar planes available")
    else:
        needed = 1.0 + tol["margin"]
        run.stage("almost-free-segments", "derived",
                  max(0.0, needed - min_line_gauge), None,
                  min_line_gauge > needed, min_gauge=float(min_line_gauge),
                  needed=needed, segments=segments)

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
    run = _CheckRun("t4", seed, tolerances, dict(samples=samples, m=m), body=k_body)
    tol = run.tol
    o = k_body.center
    _require_o_symmetric(k_body, o, "body")
    if not k_body.is_smooth:
        raise NonSmoothBody("tangent-plane sections need a smooth body")
    r = float(radius)
    if r <= 0.0:
        raise ValueError("ball radius must be positive")
    diam = k_body.diameter()
    inradius = min(float(k_body.support(u) - o @ u)
                   for u in sphere_directions(k_body.dim, 128, seed=seed))
    if r * (1.0 + tol["margin"]) >= inradius:
        raise BallTooLarge("radius %.6g does not leave the inscribed margin %.6g"
                           % (r, inradius))

    us = sphere_directions(k_body.dim, samples, seed=seed)
    secs = []
    worst_fit = 0.0
    all_ellipse = True
    for u in us:
        plane = Hyperplane.from_point_normal(o + r * u, u)
        sec = section(k_body, plane, interior_hint=o + r * u)
        pts = np.array([sec.to_world(sec.boundary2(d2))
                        for d2 in circle_directions(m, seed=seed)])
        fit = fit_planar_conic(pts, plane, tol=tol["ellipse"])
        worst_fit = max(worst_fit, fit.rms_residual)
        all_ellipse = all_ellipse and fit.classification == ELLIPSE
        secs.append(sec)
    run.stage("tangent-sections-ellipses", "hypothesis", worst_fit, "ellipse",
              all_ellipse and worst_fit < tol["ellipse"], samples=len(us))

    min_margin = np.inf
    for u, sec in zip(us, secs):
        touch2 = sec.to_chart(o + r * np.asarray(u))
        for v2 in circle_directions(32, seed=seed):
            margin = float(sec.support2(v2) - touch2 @ v2 - r)
            min_margin = min(min_margin, margin)
    rel = min_margin / diam
    run.stage("ball-inside-section-hulls", "hypothesis",
              max(0.0, tol["margin"] - rel), None, rel > tol["margin"],
              min_margin=float(min_margin), min_margin_rel=float(rel))

    # phi(u) from the symmetry center of the section: by o-symmetry the
    # antipodal section is the reflection of this one, so the translation
    # K_u = phi(u) + K_{-u} holds iff the section is symmetric about c, and
    # then phi(u) = 2 (c - o)
    phis = {}
    worst_translate = 0.0
    lipschitz = 0.0
    for idx, (u, sec) in enumerate(zip(us, secs)):
        sym = central_symmetry(sec, tol=tol["symmetry"], m=m, seed=seed)
        phis[idx] = 2.0 * (np.asarray(sym.center_world) - o)
        worst_translate = max(
            worst_translate,
            _reflection_residual(sec, np.asarray(sym.center)) / diam)
    translated = sorted(phis)
    for a, b in zip(translated, translated[1:]):
        ang = angle_between(us[a], us[b])
        if ang > 1e-9:
            lipschitz = max(lipschitz, float(
                np.linalg.norm(phis[a] - phis[b]) / ang))
    run.stage("parallel-translation", "derived", worst_translate, "hausdorff",
              sections=len(translated), lipschitz_estimate=lipschitz)

    # phi at directions orthogonal to phi(u); also feeds the midpoint stage
    worst_orth = 0.0
    locus_jobs = []
    for idx in translated[:4]:
        u = us[idx]
        phi_u = phis[idx]
        npu = float(np.linalg.norm(phi_u))
        if npu <= 1e-12 * diam:
            continue
        frame = unit_frame(phi_u / npu)
        f1, f2 = frame[:, 0], frame[:, 1]
        first = True
        for th in np.linspace(0.0, np.pi, 8, endpoint=False):
            v = np.cos(th) * f1 + np.sin(th) * f2
            plane_v = Hyperplane.from_point_normal(o + r * v, v)
            sec_v = section(k_body, plane_v, interior_hint=o + r * v)
            sym_v = central_symmetry(sec_v, tol=tol["symmetry"], m=m, seed=seed)
            phi_v = 2.0 * (np.asarray(sym_v.center_world) - o)
            npv = float(np.linalg.norm(phi_v))
            if npv <= 1e-12 * diam:
                continue
            worst_orth = max(worst_orth, float(abs(phi_v @ u)) / npv)
            if first:
                locus_jobs.append((idx, v, sec_v, np.asarray(sym_v.center)))
                first = False
    run.stage("translation-orthogonality", "derived", worst_orth, "bisector")

    worst_locus = 0.0
    loci = 0
    for idx, v, sec_v, c2 in locus_jobs:
        u = us[idx]
        phi_u = phis[idx]
        d_w = np.cross(np.asarray(u), v)
        nd = float(np.linalg.norm(d_w))
        if nd < 1e-9:
            continue
        d_w = d_w / nd
        d2 = normalize(sec_v.basis @ d_w)
        e2 = np.array([-d2[1], d2[0]])
        h_plus = float(sec_v.support2(e2) - c2 @ e2)
        h_minus = float(sec_v.support2(-e2) + c2 @ e2)
        mids = []
        for s in np.linspace(-0.8 * h_minus, 0.8 * h_plus, 15):
            base_w = sec_v.to_world(c2 + s * e2)
            try:
                a, b = line_boundary_points(k_body, Line(base_w, d_w))
            except LineMissesBody:
                continue
            mids.append(0.5 * (a + b))
        if len(mids) < 5:
            continue
        mids = np.array(mids)
        spread = cloud_diameter(mids)
        if spread <= 1e-12 * diam:
            continue
        _, sv, vt = np.linalg.svd(mids - mids.mean(axis=0), full_matrices=False)
        rel_rms = float(np.sqrt(np.sum(sv[1:] ** 2) / len(mids)) / spread)
        angle = line_angle(vt[0], phi_u)
        worst_locus = max(worst_locus, rel_rms, angle)
        loci += 1
    if loci == 0:
        run.skip("midpoint-locus-line", "derived", "no usable section pair")
    else:
        run.stage("midpoint-locus-line", "derived", worst_locus, "angular",
                  loci=loci)

    qfit = run.fit_stage("ellipsoid-fit", k_body)

    if qfit.classification == ELLIPSE:
        shape = np.asarray(qfit.detail["shape_normalized"])
        shape_inv = np.linalg.inv(shape)
        worst_center = 0.0
        checked = 0
        for idx in translated[:4]:
            u = np.asarray(us[idx])
            for scale in (0.35, 0.7):
                h = scale * r
                plane = Hyperplane.from_point_normal(o + h * u, u)
                predicted = o + h * (shape_inv @ u) / float(u @ shape_inv @ u)
                sec_s = section(k_body, plane, interior_hint=predicted)
                worst_center = max(
                    worst_center,
                    _reflection_residual(sec_s, sec_s.to_chart(predicted)) / diam)
                checked += 1
        if checked == 0:
            run.skip("scaled-section-centering", "conclusion",
                     "no translation vectors available")
        else:
            run.stage("scaled-section-centering", "conclusion", worst_center,
                      "symmetry", sections=checked)
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
                    least={"sym_m": 3}, body=k_body)
    tol = run.tol
    if not k_body.is_smooth:
        raise NonSmoothBody("slab sections need a strictly convex smooth body")
    p = _require_interior(k_body, p, "body")
    eps = float(eps)
    if eps <= 0.0:
        raise ValueError("slab width must be positive")
    diam = k_body.diameter()

    normals = sphere_directions(k_body.dim, planes, seed=seed)
    offs = np.linspace(-eps / 2.0, eps / 2.0, offsets)
    central_idx = int(np.argmin(np.abs(offs)))
    worst_sym = 0.0
    all_sym = True
    central = {}
    top = {}
    sections_done = 0
    missed = 0
    for i, nrm in enumerate(normals):
        base_off = float(nrm @ p)
        for k_off, off in enumerate(offs):
            plane = Hyperplane(nrm, base_off + float(off))
            try:
                sec = section(k_body, plane, interior_hint=p + off * nrm)
            except PlaneMissesBody:
                missed += 1
                continue
            sr = central_symmetry(sec, tol=tol["symmetry"], m=sym_m, seed=seed)
            worst_sym = max(worst_sym, sr.residual)
            all_sym = all_sym and sr.ok
            sections_done += 1
            if k_off == central_idx:
                central[i] = sr
            if k_off == len(offs) - 1:
                top[i] = (sec, sr, plane)
    run.stage("slab-sections-centrally-symmetric", "hypothesis", worst_sym,
              "symmetry", all_sym, planes=len(normals), offsets=int(offsets),
              sections=sections_done, missed=missed)

    centered = bool(central) and all(
        float(np.linalg.norm(np.asarray(sr.center_world) - p)) <= 1e-6 * diam
        for sr in central.values())
    branch = "FCT-case" if (all_sym and not centered) else None

    if branch == "FCT-case":
        run.skip("translation-and-shadow-containment", "derived",
                 "sections symmetric about a centre away from p",
                 branch="FCT-case")
    else:
        min_signed = np.inf
        used = 0
        for i, (sec, sr, plane) in top.items():
            u_g = -2.0 * (np.asarray(sr.center_world) - p)
            denom = float(u_g @ plane.normal)
            if np.linalg.norm(u_g) <= 1e-9 * diam or abs(denom) <= 1e-15:
                continue  # concentric section: the translation vanishes
            shadow = shadow_boundary(k_body, u_g, m=m, seed=seed)
            c2 = np.asarray(sr.center)
            for q in shadow.points:
                t = (plane.offset - float(q @ plane.normal)) / denom
                q2 = sec.to_chart(q + t * u_g)
                d2 = q2 - c2
                ndq = float(np.linalg.norm(d2))
                if ndq <= 1e-12 * diam:
                    b2 = sec.boundary2(np.array([1.0, 0.0]), base2=c2)
                    signed = -float(np.linalg.norm(b2 - c2))
                else:
                    b2 = sec.boundary2(d2 / ndq, base2=c2)
                    signed = ndq - float(np.linalg.norm(b2 - c2))
                min_signed = min(min_signed, signed)
            used += 1
        if used == 0:
            run.skip("translation-and-shadow-containment", "derived",
                     "translation vectors vanish")
        else:
            rel = min_signed / diam
            run.stage("translation-and-shadow-containment", "derived",
                      max(0.0, -rel), "contact", rel >= -tol["contact"],
                      min_signed_rel=float(rel), slabs=used)

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
    # a generator: each section is cut just before its Radon test
    sections = (section(k_body, Hyperplane.from_point_normal(o, nrm),
                        interior_hint=o)
                for nrm in sphere_directions(k_body.dim, planes, seed=seed))
    run.radon_stage("central-sections-radon", "hypothesis", sections,
                    diameters, planes=int(planes), diameters=int(diameters))
    run.fit_stage("ellipsoid-fit", k_body)
    return run.report()
