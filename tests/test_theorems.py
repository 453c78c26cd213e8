"""Theorem harness: witness bodies stay consistent, counterexamples break the
right stage, and failed hypotheses own the verdict."""

import json

import numpy as np
import pytest

from ellipsoid_forge import (
    DEFAULT_TOLERANCES,
    INFINITY_HYPERPLANE,
    SCHEMA,
    Ellipsoid,
    PBall,
    Polytope,
    check_theorem1,
    check_theorem2,
    check_theorem3,
    check_theorem4,
    check_theorem_basico,
    check_theorem_radon,
    polar_of,
)
from ellipsoid_forge.errors import (
    BallTooLarge,
    BodiesNotNested,
    GeometryError,
    NonFiniteInput,
    NonSmoothBody,
    NotOSymmetric,
    PointOnBoundary,
    UnsupportedDimension,
)


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


def test_polar_of_boundary_point_rejected(unit_ball):
    with pytest.raises(PointOnBoundary):
        polar_of(unit_ball, np.array([1.0, 0.0, 0.0]))


def test_polar_of_checks_its_point(unit_ball):
    with pytest.raises(NonFiniteInput):
        polar_of(unit_ball, np.array([np.nan, 0.0, 0.0]))
    with pytest.raises(UnsupportedDimension):
        polar_of(unit_ball, np.array([2.0, 0.0]))


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


def test_t4_l4_violates_section_hypothesis(l4_double):
    report = check_theorem4(l4_double, 1.0, samples=8, m=48)
    assert report.verdict == "hypothesis-violated"
    assert _stage(report, "tangent-sections-ellipses").verdict == "fail"
    assert _stage(report, "scaled-section-centering").verdict == "skip"


def test_t4_input_gates(l4_double):
    with pytest.raises(ValueError):
        check_theorem4(Ellipsoid.ball(2.0), -1.0)
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
    with pytest.raises(ValueError):
        check_theorem_basico(unit_ball, np.zeros(3), eps=0.0)
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
    # one apex would be paired with itself into a zero-length line
    ("apexes", 2, lambda: check_theorem1(PBall(4.0, (0.5,) * 3),
                                         Ellipsoid.ball(2.0), apexes=1, m=16,
                                         pairs=1)),
    # two directions fit the section centre's two unknowns exactly, so the
    # l4 sections would pass the symmetry hypothesis
    ("sym_m", 3, lambda: check_theorem_basico(PBall(4.0, (1, 1, 1)), np.zeros(3),
                                              planes=2, offsets=3, m=16,
                                              sym_m=2)),
], ids=["radon", "t1", "t4", "t1-one-apex", "basico-two-directions"])
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
