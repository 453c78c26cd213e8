"""Theorem harness: witness bodies stay consistent, counterexamples break the
right stage, and failed hypotheses own the verdict."""

import json

import numpy as np
import pytest

from ellipsoid_forge import (
    DEFAULT_TOLERANCES,
    INFINITY_HYPERPLANE,
    SCHEMA,
    AffineImage,
    Ellipsoid,
    HPoint,
    Hyperplane,
    Line,
    PBall,
    Polytope,
    bodies,
    central_symmetry,
    check_theorem1,
    check_theorem2,
    check_theorem3,
    check_theorem4,
    check_theorem_basico,
    check_theorem_radon,
    cones,
    cross_ratio,
    fit_hyperplane_projective,
    harmonic_conjugate,
    line_boundary_points,
    planar,
    polar_of,
    section,
    theorems,
)
from ellipsoid_forge.errors import (
    BallTooLarge,
    BodiesNotNested,
    DegenerateQuadruple,
    GeometryError,
    NonFiniteInput,
    NonSmoothBody,
    NotOSymmetric,
    PointOnBoundary,
    UnsupportedDimension,
)
from ellipsoid_forge.numeric import find_root, normalize, sphere_directions
from ellipsoid_forge.theorems import (_graze_polar_agreement,
                                     _tangent_planes_through_line)

from conftest import random_affine
from oracles import reflection_residual_one


class _MiscenteredBall(Ellipsoid):
    """Smooth body whose designated center is not a symmetry center."""

    @property
    def center(self):
        return np.array([0.3, 0.0, 0.0])


def _stage(report, name):
    for s in report.stages:
        if s.name == name:
            return s
    raise AssertionError("no stage named %r in %r"
                         % (name, [s.name for s in report.stages]))


def _assert_clean(report):
    assert report.verdict == "consistent"
    for s in report.stages:
        assert s.verdict in ("pass", "skip"), (s.name, s.verdict, s.residual)


# ---------------------------------------------------------------- polar_of


def test_polar_of_ball_exterior_point(unit_ball):
    res = polar_of(unit_ball, np.array([2.0, 0.0, 0.0]))
    assert res.classification == "projective hyperplane of symmetry"
    assert abs(abs(res.polar.normal[0]) - 1.0) < 1e-12
    sgn = np.sign(res.polar.normal[0])
    assert sgn * res.polar.offset == pytest.approx(0.5, abs=1e-10)
    assert res.residual < 1e-10
    assert res.cr_residual < 1e-10
    assert res.graze_hausdorff is not None and res.graze_hausdorff < 1e-8


def test_polar_of_center_is_plane_at_infinity(unit_ball):
    res = polar_of(unit_ball, np.zeros(3))
    assert res.classification == "projective centre"
    assert res.polar is INFINITY_HYPERPLANE
    assert res.residual < 1e-10
    assert res.graze_hausdorff is None


def test_polar_of_generic_ellipsoid_points():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3))
    body = Ellipsoid(np.array([0.2, -0.1, 0.3]), a @ a.T + 0.5 * np.eye(3))
    inside = polar_of(body, body.center + np.array([0.1, 0.05, -0.08]))
    assert inside.classification == "projective centre"
    assert inside.residual < 1e-9
    outside = polar_of(body, body.center + np.array([2.5, 1.0, -1.5]))
    assert outside.classification == "projective hyperplane of symmetry"
    assert outside.residual < 1e-9
    # polar plane separates: o and the body sit on opposite sides of it
    o = body.center + np.array([2.5, 1.0, -1.5])
    s_o = outside.polar.signed_distance(o)
    s_c = outside.polar.signed_distance(body.center)
    assert s_o * s_c < 0


def test_polar_of_l4_is_not_a_pole(l4_unit):
    res = polar_of(l4_unit, np.array([2.0, 0.0, 0.0]))
    assert res.classification == "not a pole"
    assert res.residual > DEFAULT_TOLERANCES["pole"]
    assert 0.01 < res.fit_residual < 0.1
    assert res.cr_residual > 0.1


def test_polar_of_tolerance_plumbing(l4_unit):
    res = polar_of(l4_unit, np.array([2.0, 0.0, 0.0]),
                   tolerances={"pole": 10.0, "hausdorff": 10.0})
    assert res.classification == "projective hyperplane of symmetry"
    with pytest.raises(ValueError):
        polar_of(l4_unit, np.array([2.0, 0.0, 0.0]), tolerances={"nope": 1.0})
    # a NaN or non-positive gate fails every stage, an infinite one passes it
    for value in (np.nan, -1.0, 0.0, np.inf):
        with pytest.raises(ValueError, match="tolerance pole must be finite"):
            polar_of(l4_unit, np.array([2.0, 0.0, 0.0]),
                     tolerances={"pole": value})


def test_polar_of_graze_comparison(unit_ball, l4_unit):
    """The polar of an exterior pole cuts the boundary along the graze; a
    plane admitted only by a loosened pole gate does not, and the graze
    comparison turns the verdict."""
    a, b = random_affine(7)
    body = AffineImage(a, b, unit_ball)
    o = body.center + 2.5 * (body.boundary_from_center(np.array([1.0, 0.4, -0.3]))
                             - body.center)
    pole = polar_of(body, o)
    assert pole.classification == "projective hyperplane of symmetry"
    assert pole.graze_hausdorff < 1e-12
    loose = polar_of(l4_unit, np.array([2.0, 0.3, 0.1]), tolerances={"pole": 100.0})
    assert loose.classification == "not a pole"
    assert loose.detail["graze_disagrees"]
    assert loose.graze_hausdorff == pytest.approx(0.0968, abs=1e-4)


def test_tangent_planes_through_line_match_the_ball_closed_form():
    """A line at distance D from the centre of a ball of radius R < D lies in
    the two supporting planes whose normals sit at +-arccos(R / D) from the
    foot direction, about the line; a line through the ball lies in none."""
    r, dist = 1.3, 2.1
    c = np.array([0.2, -0.1, 0.4])
    ball = Ellipsoid.ball(r, center=c)
    foot = np.array([1.0, 0.4, -0.3]) / np.linalg.norm([1.0, 0.4, -0.3])
    e = np.cross(foot, [0.2, 1.0, 0.5])
    e /= np.linalg.norm(e)
    w = np.cross(e, foot)
    alpha = np.arccos(r / dist)
    want = [np.cos(alpha) * foot + sign * np.sin(alpha) * w for sign in (1.0, -1.0)]
    # the lines go in as rows of one call, each answered on its own
    two, got = _tangent_planes_through_line(
        ball, [c + dist * foot + 0.7 * e, c + 0.8 * r * foot], [e, e])
    assert two.tolist() == [True, False] and got.shape == (1, 2, 3)
    got = sorted(got[0], key=lambda nu: -float(nu @ w))
    assert np.abs(np.array(got) - want).max() <= 1e-12


def test_graze_polar_agreement_off_the_body(unit_ball):
    """A plane whose meet with the sweep axis is not interior, or that holds
    the axis, is scored by the graze points' worst distance to it."""
    apex = np.array([2.0, 0.0, 0.0])
    outside = Hyperplane(np.array([1.0, 0.0, 0.0]), 1.5)
    holds_axis = Hyperplane(np.array([0.0, 0.6, 0.8]), 0.0)
    far, got = _graze_polar_agreement(unit_ball, np.stack([apex, apex]),
                                      [outside, holds_axis], 16, 0)
    assert far == pytest.approx(1.0)
    # 16 points of the graze circle x = 1/2 of radius sqrt(3)/2, which the
    # plane cuts through its centre
    assert np.sqrt(3.0) / 2.0 * np.cos(np.pi / 16) <= got <= np.sqrt(3.0) / 2.0


def test_polar_of_boundary_point_rejected(unit_ball):
    with pytest.raises(PointOnBoundary):
        polar_of(unit_ball, np.array([1.0, 0.0, 0.0]))


def test_polar_of_checks_its_point(unit_ball):
    with pytest.raises(NonFiniteInput):
        polar_of(unit_ball, np.array([np.nan, 0.0, 0.0]))
    with pytest.raises(UnsupportedDimension):
        polar_of(unit_ball, np.array([2.0, 0.0]))


def _reference_polar(body, o, m, seed):
    """polar_of's projective route, one chord at a time: the harmonic
    conjugate of each chord, one fit over their coordinates, and the cross
    ratio of each chord against where the fitted polar meets its line."""
    o_h = HPoint.from_affine(o)
    dirs = sphere_directions(3, m, seed=seed)
    interior = body.gauge(o) < 1.0
    if interior:
        lines = [Line(o, d) for d in dirs]
    else:
        c = body.center
        lines = [Line(t, t - o) for t in c + 0.85 * (body.boundary_from_center(dirs) - c)]
    chords = [line_boundary_points(body, ln) for ln in lines]
    conjugates = [harmonic_conjugate(a, b, o_h) for a, b in chords]
    polar, fit_residual, _ = fit_hyperplane_projective(
        np.stack([q.coords for q in conjugates]), spatial_scale=body.diameter())
    cr_residual = max(abs(cross_ratio(a, b, o_h, polar.intersect_line(ln)) + 1.0)
                      for ln, (a, b) in zip(lines, chords))
    if fit_residual + cr_residual > DEFAULT_TOLERANCES["pole"]:
        classification = "not a pole"
    elif interior:
        classification = "projective centre"
    else:
        classification = "projective hyperplane of symmetry"
    return polar, fit_residual, cr_residual, classification


def _reference_bodies():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3))
    return {
        "ball": Ellipsoid(np.zeros(3), np.eye(3)),
        "ellipsoid": Ellipsoid(np.array([0.2, -0.1, 0.3]), a @ a.T + 0.5 * np.eye(3)),
        "l4": PBall(4.0, (1.0, 1.0, 1.0)),
        "octahedron": Polytope(np.vstack([np.eye(3), -np.eye(3)])),
        "affine l3": AffineImage(*random_affine(3), PBall(3.0, (1.0, 0.8, 1.2))),
    }


@pytest.mark.parametrize("where", ["interior", "centre", "exterior"])
@pytest.mark.parametrize("name", list(_reference_bodies()))
def test_polar_of_matches_the_projective_reference(name, where):
    """The row computation on the chord parameter gives the polar, the
    residuals and the classification of the per-chord projective route.
    The graze cross-check runs after both and is not rebuilt here."""
    body = _reference_bodies()[name]
    c = body.center
    u = normalize(np.array([0.6, -0.3, 0.45]))
    o = {"interior": c + 0.3 * (body.boundary_from_center(u) - c),
         "centre": c,
         "exterior": c + 2.5 * (body.boundary_from_center(u) - c)}[where]
    m, seed = 32, 3
    polar, fit_residual, cr_residual, classification = _reference_polar(body, o, m, seed)
    res = polar_of(body, o, m=m, seed=seed)
    assert res.classification == classification
    assert res.polar.is_infinite == polar.is_infinite
    if not polar.is_infinite:
        assert np.abs(res.polar.normal - polar.normal).max() <= 1e-12
        assert res.polar.offset == pytest.approx(polar.offset, abs=1e-12)
    assert res.fit_residual == pytest.approx(fit_residual, abs=1e-12)
    assert res.cr_residual == pytest.approx(cr_residual, abs=1e-12)


def test_polar_of_raises_when_the_polar_meets_a_chord_end(unit_ball, monkeypatch):
    """A polar through a chord end makes that chord's cross ratio unbounded:
    a typed failure naming the chord, never an inf or NaN residual."""
    m, seed = 16, 0
    end = -sphere_directions(3, m, seed=seed)[0]  # chord 0's end on the -aim side
    plane = Hyperplane.from_point_normal(end, np.array([1.0, 2.0, 3.0]))
    monkeypatch.setattr(theorems, "fit_hyperplane_projective",
                        lambda rows, spatial_scale: (plane, 0.0, 1.0))
    with pytest.raises(DegenerateQuadruple, match="chord 0"):
        polar_of(unit_ball, np.zeros(3), m=m, seed=seed)


def _assert_same_pole(row, one):
    assert row.classification == one.classification
    assert (row.residual, row.fit_residual, row.cr_residual, row.graze_hausdorff) == (
        one.residual, one.fit_residual, one.cr_residual, one.graze_hausdorff)
    assert np.array_equal(row.pole.coords, one.pole.coords)
    assert row.polar.is_infinite == one.polar.is_infinite
    if not one.polar.is_infinite:
        assert np.array_equal(row.polar.normal, one.polar.normal)
        assert row.polar.offset == one.polar.offset
    assert row.detail == one.detail


@pytest.mark.parametrize("loose", [False, True], ids=["default", "loose-gate"])
@pytest.mark.parametrize("name", ["ellipsoid", "l4", "affine l3"])
def test_polar_of_rows_equal_point_calls(name, loose):
    """Exterior points, an interior one and the centre in one call; the
    loosened pole gate sends the non-ellipsoids' exterior points through the
    row graze comparison too."""
    body = _reference_bodies()[name]
    c = body.center
    edge = body.boundary_from_center(sphere_directions(3, 4, seed=1)) - c
    o = np.stack([c + 2.5 * edge[0], c + 0.3 * edge[1], c, c + 1.8 * edge[2],
                  c + 3.0 * edge[3]])
    tol = {"pole": 100.0} if loose else None
    rows = polar_of(body, o, m=16, seed=2, tolerances=tol)
    assert len(rows) == len(o)
    for oi, row in zip(o, rows):
        _assert_same_pole(row, polar_of(body, oi, m=16, seed=2, tolerances=tol))
    # only exterior poles that pass the harmonic fit are compared with a graze
    grazed = [r.graze_hausdorff is not None for r in rows]
    pole = loose or name == "ellipsoid"
    assert grazed == [pole, False, False, pole, pole]


def test_polar_of_rows_name_the_row_of_a_bad_point(unit_ball):
    with pytest.raises(PointOnBoundary, match="gauge of o row 1 is"):
        polar_of(unit_ball, np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    with pytest.raises(NonFiniteInput, match="point row 0"):
        polar_of(unit_ball, np.array([[np.inf, 0.0, 0.0], [0.0, 2.0, 0.0]]))


# --------------------------------------------------------------------- t1


@pytest.fixture(scope="module")
def t1_witness(ellipsoid149, ball3):
    return check_theorem1(ellipsoid149, ball3, apexes=8, m=48, pairs=4)


def test_t1_ellipsoid_witness_consistent(t1_witness):
    _assert_clean(t1_witness)
    assert t1_witness.theorem == "t1"
    assert [s.name for s in t1_witness.stages] == [
        "inner-o-symmetry",
        "ellipsoidal-cones",
        "cone-intersection-planarity",
        "contact-chord-parallelism",
        "inner-ellipsoid-fit",
    ]


def test_t1_l4_inner_violates_cone_hypothesis(l4_half, ball2):
    report = check_theorem1(l4_half, ball2, apexes=8, m=48, pairs=4)
    assert report.verdict == "hypothesis-violated"
    stage = _stage(report, "ellipsoidal-cones")
    assert stage.verdict == "fail"
    assert 0.04 < stage.residual < 0.12
    # the implication says nothing once a hypothesis fails
    for s in report.stages:
        if s.kind != "hypothesis":
            assert s.verdict in ("info", "skip")


def test_t1_ball_inside_l4_consistent(l4_double):
    inner = Ellipsoid.ball(0.5)
    report = check_theorem1(inner, l4_double, apexes=8, m=48, pairs=4)
    _assert_clean(report)


def test_t1_contact_chord_skips_when_every_apex_line_meets_the_inner_body():
    # apexes on a 1.1-sphere about a unit ball: each line through two
    # neighbouring apexes cuts the ball, so no pair has a contact chord
    report = check_theorem1(Ellipsoid.ball(1.0), Ellipsoid.ball(1.1))
    stage = _stage(report, "contact-chord-parallelism")
    assert stage.verdict == "skip"
    assert stage.detail["reason"] == "no apex pair whose line misses the inner body"


def test_t1_rejects_non_nested_bodies(unit_ball, ball2):
    with pytest.raises(BodiesNotNested):
        check_theorem1(ball2, unit_ball)


def test_t1_report_shape_and_determinism(t1_witness, ellipsoid149, ball3):
    again = check_theorem1(ellipsoid149, ball3, apexes=8, m=48, pairs=4)
    assert again.to_json() == t1_witness.to_json()
    doc = json.loads(t1_witness.to_json())
    assert doc["schema"] == SCHEMA
    assert list(doc.keys()) == ["schema", "theorem", "verdict", "branch",
                                "bodies", "inputs", "seed", "sample_counts",
                                "tolerances", "stages"]
    assert doc["bodies"]["inner"].startswith("ellipsoid:")
    assert doc["tolerances"] == {k: pytest.approx(v)
                                 for k, v in t1_witness.tolerances.items()}
    assert doc["sample_counts"] == {"apexes": 8, "m": 48, "pairs": 4}
    assert t1_witness.wall_time > 0.0
    assert "wall_time" not in doc


def test_unknown_tolerance_key_rejected(ellipsoid149, ball3):
    with pytest.raises(ValueError):
        check_theorem1(ellipsoid149, ball3, tolerances={"tangentness": 1e-6})


# --------------------------------------------------------------------- t2


def test_t2_ball_witness_consistent(unit_ball):
    inner = Ellipsoid.ball(1.0 / np.sqrt(2.0))
    report = check_theorem2(inner, unit_ball, np.zeros(3),
                            apexes=6, m=48, chords=24, radon_k=64)
    _assert_clean(report)
    assert [s.name for s in report.stages] == [
        "cone-intersection-matches-section",
        "supporting-planes-parallel",
        "section-chords-affine-diameters",
        "sections-are-radon",
        "ellipsoid-fits",
        "concentric-centers",
        "homothetic-shapes",
    ]
    assert _stage(report, "concentric-centers").verdict == "pass"


def test_t2_requires_interior_point(unit_ball):
    inner = Ellipsoid.ball(0.5)
    with pytest.raises(GeometryError):
        check_theorem2(inner, unit_ball, np.array([2.0, 0.0, 0.0]))
    with pytest.raises(UnsupportedDimension):
        check_theorem2(inner, unit_ball, np.zeros(2))


def test_t2_l4_outer_violates_matching_hypothesis(l4_unit):
    inner = Ellipsoid.ball(0.5)
    report = check_theorem2(inner, l4_unit, np.zeros(3),
                            apexes=6, m=48, chords=24, radon_k=64)
    assert report.verdict == "hypothesis-violated"
    stage = _stage(report, "cone-intersection-matches-section")
    assert stage.verdict == "fail"
    assert stage.residual > stage.tolerance
    assert _stage(report, "concentric-centers").verdict == "skip"
    assert _stage(report, "homothetic-shapes").verdict == "skip"

def test_t2_off_centre_sections_that_are_not_symmetric_fail_the_radon_stage(l4_unit):
    """Sections of the l4 ball through an off-centre p are not centrally
    symmetric: each is scored as a failed Radon section, and the report
    comes back instead of the Radon test raising NotANorm."""
    report = check_theorem2(Ellipsoid.ball(0.5), l4_unit, [0.1, 0.05, -0.03],
                            apexes=4, m=32, chords=12, radon_k=16)
    assert report.verdict == "hypothesis-violated"
    stage = _stage(report, "cone-intersection-matches-section")
    assert stage.verdict == "fail"
    assert stage.residual == pytest.approx(0.296, abs=1e-3)
    radon = _stage(report, "sections-are-radon")
    assert radon.residual == 1.0
    assert radon.detail["not_centrally_symmetric"] == 2


def test_radon_stage_fails_on_sections_that_are_not_symmetric(l4_unit):
    from ellipsoid_forge.theorems import _CheckRun
    nrm = np.array([-0.4, 0.0, 1.0]) / np.linalg.norm([-0.4, 0.0, 1.0])
    tilted = section(l4_unit, Hyperplane(nrm, 0.3 * nrm[2]))
    run = _CheckRun("radon", 0, None, {}, body=l4_unit)
    run.radon_stage("sections-are-radon", "hypothesis", [tilted, tilted], 16)
    (stage,) = run.stages
    assert stage.verdict == "fail"
    assert stage.residual == 1.0
    assert stage.detail["not_centrally_symmetric"] == 2


def test_t2_attributes_failures_to_their_pairs():
    """Five of the twelve apex lines through p miss the small inner ball:
    the batched cone_intersection raises, and the pairs are run one by one,
    so each failure is recorded and the seven good pairs still feed the
    later stages."""
    report = check_theorem2(Ellipsoid.ball(0.3), Ellipsoid.ball(1.0),
                            [0.35, 0.0, 0.0], apexes=12, m=32, chords=12,
                            radon_k=16)
    first = report.stages[0].to_dict()
    assert first == {
        "name": "cone-intersection-matches-section", "kind": "hypothesis",
        "residual": 1.0, "tolerance": 1e-6, "verdict": "fail",
        "detail": {"apexes": 12, "search_failed": True,
                   "errors": ["LineMissesBody"] * 5}}
    assert report.verdict == "hypothesis-violated"
    assert [(s.name, s.verdict) for s in report.stages[1:]] == [
        ("supporting-planes-parallel", "info"),
        ("section-chords-affine-diameters", "info"),
        ("sections-are-radon", "info"),
        ("ellipsoid-fits", "info"),
        ("concentric-centers", "info"),
        ("homothetic-shapes", "info"),
    ]
    assert report.stages[1].residual == pytest.approx(np.pi / 2, rel=1e-12)
    assert report.stages[2].residual == pytest.approx(0.7151422072910205,
                                                      rel=1e-12)


# --------------------------------------------------------------------- t3


def test_t3_ellipsoid_witness_consistent(ball2):
    inner = Ellipsoid(np.zeros(3), np.diag([1.0, 2.0, 4.0]) / 0.16)
    report = check_theorem3(inner, ball2, apexes=8, m=48, lines=16,
                            w_samples=8)
    _assert_clean(report)
    assert [s.name for s in report.stages] == [
        "boundary-points-are-poles",
        "cone-intersections-inside-outer",
        "central-plane-alignment",
        "almost-free-segments",
        "inner-ellipsoid-fit",
    ]


def test_t3_l4_inner_violates_pole_hypothesis(ball2):
    inner = PBall(4.0, (0.4, 0.4, 0.4))
    report = check_theorem3(inner, ball2, apexes=8, m=48, lines=16,
                            w_samples=8)
    assert report.verdict == "hypothesis-violated"
    assert _stage(report, "boundary-points-are-poles").verdict == "fail"


def test_t3_escaping_cone_intersection(unit_ball):
    inner = Ellipsoid.ball(0.9)
    report = check_theorem3(inner, unit_ball, apexes=8, m=48, lines=16,
                            w_samples=8)
    assert report.verdict == "hypothesis-violated"
    stage = _stage(report, "cone-intersections-inside-outer")
    assert stage.verdict == "fail"
    # the intersection circle of two antipodal cones reaches 0.9/sqrt(0.19)
    assert stage.detail["max_gauge"] == pytest.approx(2.0647, abs=2e-3)


def test_t3_requires_central_symmetry(ball2):
    shifted = Ellipsoid(np.array([0.2, 0.0, 0.0]), np.eye(3) * 16.0)
    with pytest.raises(NotOSymmetric):
        check_theorem3(shifted, ball2)


# --------------------------------------------------------------------- t4


def test_t4_sphere_witness_consistent():
    report = check_theorem4(Ellipsoid.ball(2.0), 1.0, samples=8, m=48)
    _assert_clean(report)
    assert [s.name for s in report.stages] == [
        "tangent-sections-ellipses",
        "ball-inside-section-hulls",
        "parallel-translation",
        "translation-orthogonality",
        "midpoint-locus-line",
        "ellipsoid-fit",
        "scaled-section-centering",
    ]
    hulls = _stage(report, "ball-inside-section-hulls")
    # worst margin for the sphere pair (R, r) = (2, 1) is (sqrt(3)-1)/4
    assert hulls.detail["min_margin_rel"] == pytest.approx(
        (np.sqrt(3.0) - 1.0) / 4.0, abs=1e-6)


def _count_restriction_solves(monkeypatch):
    solves = []
    real = planar.find_root
    monkeypatch.setattr(planar, "find_root",
                        lambda *a, **kw: solves.append(1) or real(*a, **kw))
    return solves


def test_t4_restriction_solves_do_not_grow_with_samples(monkeypatch):
    solves = _count_restriction_solves(monkeypatch)
    counts = []
    for samples in (4, 9):
        solves.clear()
        _assert_clean(check_theorem4(Ellipsoid.ball(2.0), 1.0,
                                     samples=samples, m=16))
        counts.append(len(solves))
    # the margin, symmetry and orthogonality stages, and one support-point
    # solve over every midpoint locus
    assert counts == [4, 4]


_T4_AFFINE = AffineImage(np.array([[1.2, 0.3, 0.0], [0.0, 1.0, 0.2],
                                   [0.1, 0.0, 0.9]]),
                         np.array([0.1, -0.2, 0.3]), Ellipsoid.ball(2.0))


@pytest.mark.parametrize("body, most", [
    (Ellipsoid.ball(2.0), 4),
    (PBall(4.0, (2.0, 2.0, 2.0)), 7),
    (_T4_AFFINE, 8),
], ids=["ball", "l4", "affine-ball"])
def test_t4_solves_once_per_stage(monkeypatch, body, most):
    """Every find_root of t4, in any module: the three section solves and
    the loci's support points, plus, off the ellipsoid's closed-form rays,
    one ray exit each for the tangent-section clouds, the translation
    stage, the loci's chords and the scaled sections (skipped on l4)."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return find_root(*args, **kwargs)
    for mod in (bodies, cones, planar, theorems):
        monkeypatch.setattr(mod, "find_root", counted)
    counts = []
    for samples in (4, 9):
        calls.clear()
        check_theorem4(body, 0.8, samples=samples, m=16)
        counts.append(len(calls))
    # the ball's 4 restriction solves are pinned above, so it makes exactly 4
    assert counts[0] == counts[1] <= most


def _tangent_sections(body, radius, count):
    o = body.center
    return [section(body, Hyperplane.from_point_normal(o + radius * u, u))
            for u in sphere_directions(3, count, seed=2)]


@pytest.mark.parametrize("body", [PBall(4.0, (2.0, 2.0, 2.0)), _T4_AFFINE],
                         ids=["l4", "affine-ellipsoid"])
def test_reflection_residual_list_equals_one_section_reference(body):
    secs = _tangent_sections(body, 0.8, 5)
    # off-centre chart points: each section's centre, and a point moved off it
    centres = [sym.center for sym in central_symmetry(secs, m=32)]
    centres += [c + (0.05, -0.03) for c in centres]
    got = theorems._reflection_residual(secs + secs, centres)
    want = [reflection_residual_one(sec, c) for sec, c in zip(secs + secs, centres)]
    assert got.tolist() == want
    assert got[5:].min() > 1e-3  # the moved centres are not centres


def test_reflection_residual_failed_ray_names_section_and_row():
    secs = _tangent_sections(PBall(4.0, (2.0, 2.0, 2.0)), 0.8, 3)
    centres = [np.zeros(2), np.array([50.0, 0.0]), np.zeros(2)]
    with pytest.raises(GeometryError,
                       match=r"^ray exit at section 1, row 0: ray base point "):
        theorems._reflection_residual(secs, centres)


def test_basico_restriction_solves_do_not_grow_with_sections(monkeypatch,
                                                             ellipsoid149):
    solves = _count_restriction_solves(monkeypatch)
    counts = []
    for planes, offsets in ((2, 3), (5, 6)):
        solves.clear()
        _assert_clean(check_theorem_basico(ellipsoid149, np.zeros(3),
                                           planes=planes, offsets=offsets,
                                           m=16, sym_m=16))
        counts.append(len(solves))
    assert counts == [1, 1]


def test_radon_stages_make_three_restriction_solves(monkeypatch, ellipsoid149):
    """The radon check's and t2's radon stages test all their sections in
    one is_radon_curve call: three restriction solves, whatever the number
    of sections (the radon check made 5 per section before)."""
    solves = _count_restriction_solves(monkeypatch)
    for planes, diameters in ((2, 32), (6, 128)):
        solves.clear()
        _assert_clean(check_theorem_radon(ellipsoid149, planes=planes,
                                          diameters=diameters))
        assert len(solves) == 3
    solves.clear()
    report = check_theorem2(Ellipsoid.ball(2.0 ** -0.5), Ellipsoid.ball(1.0),
                            np.zeros(3), apexes=4, m=24, chords=8, radon_k=16)
    _assert_clean(report)
    assert _stage(report, "sections-are-radon").verdict == "pass"
    assert len(solves) == 3


def test_basico_shadow_stage_is_one_tangency_sweep(monkeypatch, ellipsoid149):
    sweeps = []
    real = cones.find_root
    monkeypatch.setattr(cones, "find_root",
                        lambda *a, **kw: sweeps.append(1) or real(*a, **kw))
    for planes in (2, 5):
        sweeps.clear()
        report = check_theorem_basico(ellipsoid149, np.zeros(3), planes=planes,
                                      offsets=3, m=16, sym_m=16)
        _assert_clean(report)
        stage = _stage(report, "translation-and-shadow-containment")
        assert stage.detail["slabs"] == planes
        assert len(sweeps) == 1


def test_cone_sweep_solves_do_not_grow_with_apexes(monkeypatch, ellipsoid149,
                                                  ball3, ball2):
    """Every cone stage of t1, t2 and t3 is one tangency sweep over all its
    apexes: t1's cones and intersections, t2's intersections, and t3's
    pole grazes and intersections."""
    solves = []
    real = cones.find_root
    monkeypatch.setattr(cones, "find_root",
                        lambda *a, **kw: solves.append(1) or real(*a, **kw))
    t3_inner = Ellipsoid(np.zeros(3), np.diag([1.0, 2.0, 4.0]) / 0.16)
    runs = {
        "t1": lambda k: check_theorem1(ellipsoid149, ball3, apexes=k, m=24,
                                       pairs=2),
        "t2": lambda k: check_theorem2(Ellipsoid.ball(2.0 ** -0.5),
                                       Ellipsoid.ball(1.0), np.zeros(3),
                                       apexes=k, m=24, chords=8, radon_k=16),
        "t3": lambda k: check_theorem3(t3_inner, ball2, apexes=k, m=24,
                                       lines=12, w_samples=4),
    }
    counts = {}
    for name, run in runs.items():
        for k in (4, 12):
            solves.clear()
            _assert_clean(run(k))
            counts[name, k] = len(solves)
    assert counts == {("t1", 4): 2, ("t1", 12): 2, ("t2", 4): 1, ("t2", 12): 1,
                      ("t3", 4): 2, ("t3", 12): 2}


def test_t4_l4_violates_section_hypothesis(l4_double):
    report = check_theorem4(l4_double, 1.0, samples=8, m=48)
    assert report.verdict == "hypothesis-violated"
    assert _stage(report, "tangent-sections-ellipses").verdict == "fail"
    assert _stage(report, "scaled-section-centering").verdict == "skip"


def test_t4_input_gates(l4_double):
    for radius in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="ball radius"):
            check_theorem4(Ellipsoid.ball(2.0), radius)
    with pytest.raises(BallTooLarge):
        check_theorem4(Ellipsoid.ball(2.0), 2.5)
    with pytest.raises(NotOSymmetric):
        check_theorem4(_MiscenteredBall(np.zeros(3), np.eye(3) / 4), 1.0)
    cube = Polytope([[sx, sy, sz] for sx in (-2, 2)
                     for sy in (-2, 2) for sz in (-2, 2)])
    with pytest.raises(NonSmoothBody):
        check_theorem4(cube, 1.0)


# ------------------------------------------------------------------ basico


def test_basico_ellipsoid_centered_consistent(ellipsoid149):
    report = check_theorem_basico(ellipsoid149, np.zeros(3), planes=6,
                                  offsets=5, m=48, sym_m=64)
    _assert_clean(report)
    assert report.branch is None
    assert _stage(report, "translation-and-shadow-containment").verdict == "pass"


def test_basico_off_center_point_takes_fct_branch(unit_ball):
    report = check_theorem_basico(unit_ball, np.array([0.1, 0.0, 0.0]),
                                  planes=6, offsets=5, m=48, sym_m=64)
    _assert_clean(report)
    assert report.branch == "FCT-case"
    assert _stage(report, "translation-and-shadow-containment").verdict == "skip"


def test_basico_l4_violates_symmetry_hypothesis(l4_unit):
    report = check_theorem_basico(l4_unit, np.zeros(3), planes=6,
                                  offsets=5, m=48, sym_m=64)
    assert report.verdict == "hypothesis-violated"
    stage = _stage(report, "slab-sections-centrally-symmetric")
    assert stage.verdict == "fail"
    assert stage.residual > stage.tolerance


def test_basico_input_gates(unit_ball):
    with pytest.raises(GeometryError):
        check_theorem_basico(unit_ball, np.array([1.5, 0.0, 0.0]))
    for eps in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="eps"):
            check_theorem_basico(unit_ball, np.zeros(3), eps=eps)
    with pytest.raises(UnsupportedDimension):
        check_theorem_basico(unit_ball, np.zeros(4))
    with pytest.raises(GeometryError, match="interior"):
        check_theorem_basico(unit_ball, np.array([np.nan, 0.0, 0.0]))
    cube = Polytope([[sx, sy, sz] for sx in (-1, 1)
                     for sy in (-1, 1) for sz in (-1, 1)])
    with pytest.raises(NonSmoothBody):
        check_theorem_basico(cube, np.zeros(3))


# ------------------------------------------------------------------- radon


def test_radon_ellipsoid_consistent(ellipsoid149):
    report = check_theorem_radon(ellipsoid149, planes=4, diameters=64)
    _assert_clean(report)
    assert [s.name for s in report.stages] == ["central-sections-radon",
                                               "ellipsoid-fit"]


def test_radon_l4_violates_hypothesis(l4_unit):
    report = check_theorem_radon(l4_unit, planes=4, diameters=64)
    assert report.verdict == "hypothesis-violated"
    stage = _stage(report, "central-sections-radon")
    assert stage.verdict == "fail"
    assert stage.residual > 0.05
    assert _stage(report, "ellipsoid-fit").verdict == "info"


def test_radon_requires_o_symmetry():
    with pytest.raises(NotOSymmetric):
        check_theorem_radon(_MiscenteredBall(np.zeros(3), np.eye(3)))


# ---------------------------------------------------- dimension contract

_B4 = (Ellipsoid.ball(1.0, dim=4), Ellipsoid.ball(2.0, dim=4))


@pytest.mark.parametrize("theorem, run", [
    ("t1", lambda: check_theorem1(*_B4)),
    ("t1", lambda: check_theorem1(Ellipsoid.ball(1.0), _B4[1])),
    ("t2", lambda: check_theorem2(*_B4, np.zeros(4))),
    ("t3", lambda: check_theorem3(*_B4)),
    ("t4", lambda: check_theorem4(_B4[1], 0.5)),
    ("t4", lambda: check_theorem4(Ellipsoid.ball(2.0, dim=2), 0.5)),
    ("basico", lambda: check_theorem_basico(_B4[0], np.zeros(4))),
    ("radon", lambda: check_theorem_radon(_B4[0])),
    ("radon", lambda: check_theorem_radon(Ellipsoid.ball(1.0, dim=2))),
], ids=["t1", "t1-3d-in-4d", "t2", "t3", "t4", "t4-2d", "basico", "radon",
        "radon-2d"])
def test_checks_need_three_dimensional_bodies(theorem, run):
    with pytest.raises(UnsupportedDimension, match="check %s " % theorem):
        run()


@pytest.mark.parametrize("size, least, run", [
    ("planes", 1, lambda: check_theorem_radon(PBall(4.0, (1, 1, 1)), planes=0)),
    ("apexes", 2, lambda: check_theorem1(PBall(4.0, (0.5,) * 3),
                                         Ellipsoid.ball(2.0), apexes=0)),
    ("samples", 1, lambda: check_theorem4(PBall(4.0, (2,) * 3), 1.0, samples=0)),
    # a conic or quadric fit needs 8 points, and a shadow boundary 3
    ("m", 8, lambda: check_theorem1(PBall(4.0, (0.5,) * 3), Ellipsoid.ball(2.0),
                                    m=7)),
    ("m", 8, lambda: check_theorem4(Ellipsoid.ball(2.0), 1.0, m=7)),
    ("m", 3, lambda: check_theorem_basico(Ellipsoid.ball(2.0), np.zeros(3),
                                          m=2)),
    # one apex would be paired with itself into a zero-length line
    ("apexes", 2, lambda: check_theorem1(PBall(4.0, (0.5,) * 3),
                                         Ellipsoid.ball(2.0), apexes=1, m=16,
                                         pairs=1)),
    # two directions fit the section centre's two unknowns exactly, so the
    # l4 sections would pass the symmetry hypothesis
    ("sym_m", 3, lambda: check_theorem_basico(PBall(4.0, (1, 1, 1)), np.zeros(3),
                                              planes=2, offsets=3, m=16,
                                              sym_m=2)),
], ids=["radon", "t1", "t4", "t1-m", "t4-m", "basico-m", "t1-one-apex",
        "basico-two-directions"])
def test_checks_reject_empty_samples(size, least, run):
    # an empty sample would pass the hypothesis stage without testing
    # anything, and a counterexample body would then end conclusion-violated
    with pytest.raises(ValueError,
                       match=r"check \w+ needs %s >= %d" % (size, least)):
        run()


# ------------------------------------------------------- verdict assembly


def test_stage_residuals_are_floored(t1_witness):
    # positive residuals are reported at >= the floor; exact zeros stay zero
    for s in t1_witness.stages:
        assert s.residual == 0.0 or s.residual >= 1e-12


def test_conclusion_violated_requires_passing_hypotheses():
    # every hypothesis stage of every counterexample run must fail first;
    # a conclusion-violated verdict would contradict the theorems themselves
    reports = [
        check_theorem_radon(PBall(4.0, (1.0, 1.0, 1.0)), planes=3,
                            diameters=48),
        check_theorem_basico(PBall(4.0, (1.0, 1.0, 1.0)), np.zeros(3),
                             planes=4, offsets=3, m=32, sym_m=48),
    ]
    for r in reports:
        assert r.verdict == "hypothesis-violated"
