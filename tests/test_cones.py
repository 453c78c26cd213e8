"""Graze/shadow/cone-intersection geometry against closed-form oracles.

The sphere and ball values here are exact similar-triangle facts; the l4
clouds are the standing non-ellipsoid witnesses, asserted as bands around
independently computed magnitudes rather than exact floats because they
depend on the sweep sampling.
"""

import json

import numpy as np
import pytest

from ellipsoid_forge import (
    CurveSample,
    Ellipsoid,
    PBall,
    Polytope,
    cone_intersection,
    graze,
    is_ellipsoidal_cone,
    shadow_boundary,
    support_cone,
    write_curve_csv,
)
from ellipsoid_forge.errors import (
    ApexInsideBody,
    CoincidentApexes,
    LineMissesBody,
    NonFiniteInput,
    NonSmoothBody,
    UnsupportedDimension,
    ZeroDirection,
)
from ellipsoid_forge.fitting import ELLIPSE

from oracles import (
    ball_cone_midcircle,
    ball_graze,
    circle_residual,
    fit_plane_rms,
    lp_graze_axis_height,
)


# ------------------------------------------------------------------ graze


def test_sphere_graze_is_the_analytic_circle(unit_ball):
    sample = graze(unit_ball, np.array([2.0, 0.0, 0.0]))
    h, rho = ball_graze(1.0, 2.0)
    assert h == 0.5
    assert sample.max_residual < 1e-12
    assert np.abs(sample.points[:, 0] - h).max() < 1e-10
    assert circle_residual(sample.points, [h, 0, 0], rho) < 1e-10
    _, _, rel = fit_plane_rms(sample.points)
    assert rel < 1e-10


def test_ball_graze_scales_with_radius():
    body = Ellipsoid.ball(2.0)
    sample = graze(body, np.array([0.0, 3.0, 0.0]), m=100)
    h, rho = ball_graze(2.0, 3.0)
    assert np.abs(sample.points[:, 1] - h).max() < 1e-10
    assert circle_residual(sample.points, [0, h, 0], rho) < 1e-10


def test_graze_tangency_on_generic_ellipsoid():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3))
    body = Ellipsoid(np.array([0.2, -0.1, 0.0]), a @ a.T + 0.5 * np.eye(3))
    apex = np.array([3.0, 1.0, -2.0])
    sample = graze(body, apex, m=80)
    assert sample.max_residual < 1e-10
    for p in sample.points[::13]:
        assert body.gauge(p) == pytest.approx(1.0, abs=1e-9)
        # the tangent plane at p passes through the apex
        assert abs((apex - p) @ body.normal_at(p)) < 1e-10 * np.linalg.norm(apex - p)
    assert sample.meta["curve"] == "graze"
    assert sample.meta["m"] == 80


def test_graze_rejects_bad_input(unit_ball):
    with pytest.raises(ApexInsideBody):
        graze(unit_ball, np.array([0.5, 0.0, 0.0]))
    simplex = Polytope([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(NonSmoothBody):
        graze(simplex, np.array([5.0, 5.0, 5.0]))


def test_l4_on_axis_graze_is_planar(l4_unit):
    sample = graze(l4_unit, np.array([2.0, 0.0, 0.0]), m=120)
    want = lp_graze_axis_height(4.0, 2.0)  # 2**(-1/3)
    assert np.abs(sample.points[:, 0] - want).max() < 1e-9
    assert sample.max_residual < 1e-11


def test_l4_off_axis_graze_is_nonplanar(l4_unit):
    sample = graze(l4_unit, np.array([2.0, 1.0, 0.5]), m=120)
    _, _, rel = fit_plane_rms(sample.points)
    assert 0.05 < rel < 0.10
    sample2 = graze(l4_unit, np.array([1.5, 1.2, 0.9]), m=120)
    _, _, rel2 = fit_plane_rms(sample2.points)
    assert 0.05 < rel2 < 0.11


# ------------------------------------------------------- cone intersection


def test_cone_intersection_ball_is_central_circle(unit_ball):
    sample = cone_intersection(
        unit_ball, np.array([2.0, 0.0, 0.0]), np.array([-2.0, 0.0, 0.0]))
    rho = ball_cone_midcircle(1.0, 2.0)  # 2/sqrt(3)
    assert np.abs(sample.points[:, 0]).max() < 1e-8
    assert circle_residual(sample.points, [0, 0, 0], rho) < 1e-8
    assert sample.max_residual < 1e-12


def test_cone_intersection_small_ball_unit_circle():
    body = Ellipsoid.ball(1.0 / np.sqrt(2.0))
    sample = cone_intersection(
        body, np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0]))
    assert np.abs(sample.points[:, 2]).max() < 1e-8
    assert circle_residual(sample.points, [0, 0, 0], 1.0) < 1e-8


def test_cone_intersection_error_paths(unit_ball):
    apex = np.array([2.0, 0.0, 0.0])
    with pytest.raises(CoincidentApexes):
        cone_intersection(unit_ball, apex, apex + 1e-12)
    with pytest.raises(ApexInsideBody):
        cone_intersection(unit_ball, apex, np.array([0.1, 0.0, 0.0]))
    with pytest.raises(LineMissesBody):
        cone_intersection(unit_ball, np.array([2.0, 2.0, 0.0]),
                          np.array([2.0, 2.0, 5.0]))


def test_cone_intersection_apex_line_off_centre():
    # the apex line passes 0.127 from the center, so the sweep base comes from
    # the line-gauge minimiser, not the center snap. The ellipsoid's cone from
    # x is (<z-c, Q(x-c)> - 1)^2 = alpha (<z-c, Q(z-c)> - 1), so a point z on
    # both cones has |<z-c, Q(x-c)> - 1| / sqrt(alpha) equal to the same
    # expression in y and beta
    q = np.diag([1.0, 4.0, 9.0])
    c = np.array([0.1, -0.2, 0.05])
    body = Ellipsoid(c, q)
    x = c + np.array([2.0, 0.1, 0.05])
    y = c + np.array([-1.8, 0.15, -0.02])
    sample = cone_intersection(body, x, y)
    assert np.linalg.norm(np.asarray(sample.meta["axis_point"]) - c) > 0.1
    alpha = (x - c) @ q @ (x - c) - 1.0
    beta = (y - c) @ q @ (y - c) - 1.0
    z = sample.points - c
    from_x = np.abs(z @ q @ (x - c) - 1.0) / np.sqrt(alpha)
    from_y = np.abs(z @ q @ (y - c) - 1.0) / np.sqrt(beta)
    assert np.abs(from_x - from_y).max() < 1e-10
    assert sample.max_residual < 1e-12


def test_l4_cone_intersection_nonplanar_off_axis(l4_unit):
    sample = cone_intersection(
        l4_unit, np.array([2.0, 1.0, 0.5]), np.array([-2.0, -1.0, -0.5]), m=100)
    _, _, rel = fit_plane_rms(sample.points)
    assert 0.03 < rel < 0.07


# ----------------------------------------------------------------- shadow


def test_sphere_shadow_is_a_great_circle(unit_ball):
    u = np.array([1.0, 2.0, -1.0]) / np.sqrt(6.0)
    sample = shadow_boundary(unit_ball, u, m=100)
    assert sample.max_residual < 1e-12
    assert np.abs(sample.points @ u).max() < 1e-10
    assert circle_residual(sample.points, [0, 0, 0], 1.0) < 1e-10


def test_ellipsoid_shadow_is_planar():
    # normal_at(x) ~ Q x is orthogonal to u exactly on the plane <Qu, x> = 0
    q = np.diag([1.0, 4.0, 9.0])
    body = Ellipsoid(np.zeros(3), q)
    u = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    sample = shadow_boundary(body, u, m=100)
    n = q @ u
    n = n / np.linalg.norm(n)
    assert np.abs(sample.points @ n).max() < 1e-10


def test_l4_shadow_is_nonplanar(l4_unit):
    u = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    sample = shadow_boundary(l4_unit, u, m=120)
    _, _, rel = fit_plane_rms(sample.points)
    assert 0.06 < rel < 0.10


@pytest.mark.parametrize("construct", [
    lambda body: graze(body, np.array([2.0, 0.0])),
    lambda body: shadow_boundary(body, np.array([1.0, 0.0])),
    lambda body: cone_intersection(body, np.array([2.0, 0.0]),
                                   np.array([-2.0, 0.0])),
], ids=["graze", "shadow", "cone-intersection"])
def test_tangency_sweeps_need_dimension_three(construct):
    with pytest.raises(UnsupportedDimension):
        construct(Ellipsoid.ball(1.0, dim=2))


@pytest.mark.parametrize("construct, error", [
    (lambda body: graze(body, np.array([np.nan, 0.0, 0.0])), NonFiniteInput),
    (lambda body: graze(body, np.array([np.inf, 0.0, 0.0])), NonFiniteInput),
    (lambda body: graze(body, np.array([2.0, 0.0])), UnsupportedDimension),
    (lambda body: cone_intersection(body, np.array([2.0, 0.0, 0.0]),
                                    np.array([np.nan, 0.0, 0.0])),
     NonFiniteInput),
    (lambda body: cone_intersection(body, np.array([-np.inf, 0.0, 0.0]),
                                    np.array([2.0, 0.0, 0.0])),
     NonFiniteInput),
    (lambda body: shadow_boundary(body, np.zeros(3)), ZeroDirection),
    (lambda body: shadow_boundary(body, np.array([0.0, np.nan, 1.0])),
     NonFiniteInput),
], ids=["graze-nan", "graze-inf", "graze-2d-apex", "omega-nan", "omega-inf",
        "shadow-zero", "shadow-nan"])
def test_constructions_reject_bad_points(unit_ball, construct, error):
    with pytest.raises(error):
        construct(unit_ball)


# ------------------------------------------------------------- cone tests


def test_ball_support_cone_is_ellipsoidal(unit_ball):
    cone = support_cone(unit_ball, np.array([2.0, 0.0, 0.0]), m=120)
    fit = is_ellipsoidal_cone(cone)
    assert fit.detail["ellipsoidal"]
    assert fit.classification == ELLIPSE
    assert fit.detail["max_rms"] < 1e-8


def test_cone_sectioning_needs_dimension_three():
    cone = support_cone(Ellipsoid.ball(1.0, dim=4),
                        np.array([2.0, 0.0, 0.0, 0.0]), m=16)
    with pytest.raises(UnsupportedDimension):
        is_ellipsoidal_cone(cone)


def test_l4_support_cone_is_not_ellipsoidal(l4_unit):
    cone = support_cone(l4_unit, np.array([2.0, 0.0, 0.0]), m=120)
    fit = is_ellipsoidal_cone(cone)
    assert not fit.detail["ellipsoidal"]
    assert fit.detail["max_rms"] > 0.03


# -------------------------------------------------------------------- io


def test_write_curve_csv_round_trip(tmp_path, unit_ball):
    sample = graze(unit_ball, np.array([2.0, 0.0, 0.0]), m=24)
    path = tmp_path / "curve.csv"
    write_curve_csv(sample, str(path))
    write_curve_csv(sample, str(tmp_path / "again.csv"))
    assert path.read_bytes() == (tmp_path / "again.csv").read_bytes()
    lines = path.read_text().splitlines()
    assert lines[0] == "x1,x2,x3,residual"
    back = np.array([[float(t) for t in ln.split(",")] for ln in lines[1:]])
    assert back.shape == (24, 4)
    assert np.array_equal(back[:, :3], sample.points)  # repr round trip
    meta = json.loads((tmp_path / "curve.csv.meta.json").read_text())
    assert meta["curve"] == "graze"
    assert meta["seed"] == 0


def test_curve_sample_validation():
    with pytest.raises(ValueError):
        CurveSample(np.zeros((2, 3)), np.zeros(2), {})
    pts = np.array([[0.0, 0, 0], [0.0, 0, 0], [1.0, 0, 0]])
    with pytest.raises(ValueError):
        CurveSample(pts, np.zeros(3), {})
