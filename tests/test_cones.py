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
    AffineImage,
    CurveSample,
    Ellipsoid,
    PBall,
    Polytope,
    cone_intersection,
    graze,
    is_ellipsoidal_cone,
    shadow_boundary,
    write_curve_csv,
)
from ellipsoid_forge.errors import (
    ApexInsideBody,
    CoincidentApexes,
    DegenerateCone,
    GeometryError,
    LineMissesBody,
    NoSignChange,
    NonFiniteInput,
    NonSmoothBody,
    UnsupportedDimension,
    ZeroDirection,
)
from ellipsoid_forge.fitting import ELLIPSE
from ellipsoid_forge.numeric import sphere_directions

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


def test_off_centre_ellipsoid_graze_lies_on_the_polar_plane():
    # the contact curve of {(x-c)' Q (x-c) <= 1} seen from a is its cut by the
    # polar plane <x - c, Q (a - c)> = 1
    q = np.array([[2.0, 0.3, -0.2], [0.3, 1.0, 0.1], [-0.2, 0.1, 3.0]])
    c = np.array([0.4, -0.3, 0.2])
    body = Ellipsoid(c, q)
    apex = c + np.array([1.5, 1.0, -0.8])
    sample = graze(body, apex, m=5000, seed=2)
    nrm = q @ (apex - c)
    dist = np.abs((sample.points - c) @ nrm - 1.0) / np.linalg.norm(nrm)
    assert len(sample) == 5000
    assert dist.max() < 1e-12


def test_graze_solves_all_planes_at_once():
    # one normal_at call per solver iteration over all 200 sweep planes, not
    # one per plane: a per-row loop would make thousands
    body = PBall(4.0, (1.0, 0.8, 1.2))
    calls = []
    normal_at = body.normal_at
    body.normal_at = lambda x: calls.append(np.shape(x)) or normal_at(x)
    sample = graze(body, np.array([2.0, 0.3, 0.1]), m=200)
    assert sample.max_residual < 1e-11
    assert 0 < len(calls) <= 60


class _NaNNormalBall(Ellipsoid):
    """A unit ball whose normal oracle yields NaN above the plane z = 0.5."""

    def normal_at(self, x):
        return np.where(np.asarray(x)[..., 2:] > 0.5, np.nan, super().normal_at(x))


class _FixedNormalBall(Ellipsoid):
    """A unit ball whose normal oracle always says e1: no tangency anywhere."""

    def normal_at(self, x):
        return np.broadcast_to(np.array([1.0, 0.0, 0.0]), np.shape(x))


def test_sweep_failures_are_typed():
    nan_body = _NaNNormalBall(np.zeros(3), np.eye(3))
    with pytest.raises(GeometryError, match=r"plane 1, apex 0: g is not finite"):
        graze(nan_body, np.array([2.0, 0.3, 0.1]), m=16)
    with pytest.raises(GeometryError, match=r"plane \d+, apex 0: g is not finite"):
        shadow_boundary(nan_body, np.array([1.0, 0.0, 0.0]), m=16)
    flat = _FixedNormalBall(np.zeros(3), np.eye(3))
    with pytest.raises(NoSignChange, match=r"plane 0, apex 0"):
        graze(flat, np.array([2.0, 0.3, 0.1]), m=16)


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


def test_cone_intersection_parallel_tangent_rays(unit_ball):
    """Apexes on the planes z = -1 and z = 1 that support the unit ball, on
    a line off the centre along v: in the sweep plane turned to -v the
    tangent rays of both apexes run along -v to the poles, parallel. That
    plane is read from the sweep frame of a good pair on the same axis."""
    good = cone_intersection(unit_ball, [0.0, 0.0, -3.0], [0.0, 0.0, 3.0], m=8)
    (f0, f1), a = np.array(good.meta["frame"]), good.meta["angles"][0]
    v = np.cos(a) * f0 + np.sin(a) * f1
    with pytest.raises(DegenerateCone, match="^tangent rays are parallel in "
                       "sweep plane 4$"):
        cone_intersection(unit_ball, 0.5 * v - [0.0, 0.0, 1.0],
                          0.5 * v + [0.0, 0.0, 1.0], m=8)


def test_cone_intersection_tangent_rays_meeting_behind_an_apex(unit_ball):
    """Apexes inside the slab |z| < 1, off the centre: in a sweep plane
    turned across the centre each apex's tangent ray leans away from the
    other apex, so the two rays meet only behind the apexes."""
    with pytest.raises(DegenerateCone,
                       match=r"^tangent rays meet behind an apex \(plane \d+\)$"):
        cone_intersection(unit_ball, [0.8, 0.0, -0.9], [0.8, 0.0, 0.9], m=8)


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


@pytest.mark.parametrize("body", [
    PBall(4.0, (1.0, 0.8, 1.2)),
    AffineImage(np.array([[1.2, 0.3, -0.1], [0.0, 0.9, 0.4], [0.2, -0.3, 1.1]]),
                np.array([0.1, 0.2, -0.1]), PBall(3.0, (1.0, 0.8, 1.2))),
], ids=["pball", "affine-image"])
def test_cone_intersection_off_centre_lies_on_both_cones(body):
    # the apex line passes 0.3 from the centre, so the sweep rays leave from
    # an off-centre base through the generic boundary_point's row solve
    c = body.center
    x = c + np.array([2.5, 0.2, -0.1])
    y = c + np.array([-2.5, 0.4, 0.1])
    sample = cone_intersection(body, x, y, m=24, seed=1)
    assert np.linalg.norm(np.asarray(sample.meta["axis_point"]) - c) > 0.1
    for apex in (x, y):
        _, g = body.line_min_gauge(apex, sample.points - apex)
        assert np.abs(g - 1.0).max() < 1e-9


def test_l4_cone_intersection_nonplanar_off_axis(l4_unit):
    sample = cone_intersection(
        l4_unit, np.array([2.0, 1.0, 0.5]), np.array([-2.0, -1.0, -0.5]), m=100)
    _, _, rel = fit_plane_rms(sample.points)
    assert 0.03 < rel < 0.07


# ---------------------------------------------------------------- row forms


_ROW_BODIES = {
    "ellipsoid": Ellipsoid(np.array([0.2, -0.1, 0.3]),
                           np.array([[2.0, 0.3, -0.2], [0.3, 1.0, 0.1],
                                     [-0.2, 0.1, 3.0]])),
    "pball": PBall(4.0, (1.0, 1.0, 1.0)),
    "affine-image": AffineImage(
        np.array([[1.2, 0.3, -0.1], [0.0, 0.9, 0.4], [0.2, -0.3, 1.1]]),
        np.array([0.1, 0.2, -0.1]), PBall(3.0, (1.0, 0.8, 1.2))),
}


def _assert_same_curve(row, one):
    assert np.array_equal(row.points, one.points)
    assert np.array_equal(row.residuals, one.residuals)
    assert row.meta == one.meta


def _apex_pairs(body):
    """Apex pairs as the checks place them: two reflected through the
    centre (t1, t3), and two on lines through an off-centre point (t2),
    whose sweeps leave from off-centre bases."""
    c = body.center
    u = sphere_directions(3, 4, seed=5)
    edge = body.boundary_from_center(u) - c
    p = c + 0.25 * edge[3]
    x = np.stack([c + 2.0 * edge[0], p + 2.5 * edge[1], c + 2.2 * edge[2],
                  p + 2.5 * edge[2]])
    y = np.stack([c - 2.0 * edge[0], p - 2.5 * edge[1], c - 2.2 * edge[2],
                  p - 2.0 * edge[2]])
    return x, y


@pytest.mark.parametrize("name", list(_ROW_BODIES))
def test_row_graze_equals_point_calls(name):
    body = _ROW_BODIES[name]
    x, _ = _apex_pairs(body)
    curves = graze(body, x, m=24, seed=2)
    assert isinstance(curves, list) and len(curves) == len(x)
    for apex, curve in zip(x, curves):
        _assert_same_curve(curve, graze(body, apex, m=24, seed=2))
    (one,) = graze(body, x[:1], m=24, seed=2)
    _assert_same_curve(one, curves[0])


@pytest.mark.parametrize("name", list(_ROW_BODIES))
def test_row_cone_intersection_equals_point_calls(name):
    body = _ROW_BODIES[name]
    x, y = _apex_pairs(body)
    curves = cone_intersection(body, x, y, m=24, seed=2)
    assert len(curves) == len(x)
    # pairs 1 and 3 sweep about off-centre bases, 0 and 2 about the centre
    bases = np.array([cur.meta["axis_point"] for cur in curves])
    off = np.linalg.norm(bases - body.center, axis=1) > 1e-3
    assert off.tolist() == [False, True, False, True]
    for xi, yi, curve in zip(x, y, curves):
        _assert_same_curve(curve, cone_intersection(body, xi, yi, m=24, seed=2))


@pytest.mark.parametrize("name", list(_ROW_BODIES))
def test_row_shadow_boundary_equals_direction_calls(name):
    body = _ROW_BODIES[name]
    u = np.array([[1.0, 2.0, -1.0], [0.0, 0.0, 3.0], [-0.4, 0.1, 0.2]])
    curves = shadow_boundary(body, u, m=24, seed=2)
    assert isinstance(curves, list) and len(curves) == len(u)
    for d, curve in zip(u, curves):
        _assert_same_curve(curve, shadow_boundary(body, d, m=24, seed=2))
    (one,) = shadow_boundary(body, u[:1], m=24, seed=2)
    _assert_same_curve(one, curves[0])


def test_row_shadow_boundary_names_the_row():
    nan_body = _NaNNormalBall(np.zeros(3), np.eye(3))
    # the shadows along +-e3 are the equator, below the NaN normals
    u = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
    with pytest.raises(GeometryError, match=r"^tangency sweep, curve 2, plane \d+, "
                                            r"apex 0: g is not finite"):
        shadow_boundary(nan_body, u, m=16)
    assert len(shadow_boundary(nan_body, u[:2], m=16)) == 2
    with pytest.raises(ZeroDirection, match="illumination direction row 1 is zero"):
        shadow_boundary(nan_body, np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    with pytest.raises(ZeroDirection, match="illumination direction is zero"):
        shadow_boundary(nan_body, np.zeros(3))
    with pytest.raises(NonFiniteInput, match=r"direction row 1 \[0.0, nan"):
        shadow_boundary(nan_body, np.array([[1.0, 0.0, 0.0], [0.0, np.nan, 1.0]]))


def test_row_sweep_failure_names_its_curve():
    nan_body = _NaNNormalBall(np.zeros(3), np.eye(3))
    # the first two contact circles stay at z = -0.5, below the NaN normals
    apexes = np.array([[0.0, 0.0, -2.0], [0.0, 0.0, -2.5], [2.0, 0.3, 0.1]])
    with pytest.raises(GeometryError, match=r"^tangency sweep, curve 2, plane 1, "
                                            r"apex 0: g is not finite"):
        graze(nan_body, apexes, m=16)
    assert len(graze(nan_body, apexes[:2], m=16)) == 2


def test_row_calls_name_the_row_of_a_bad_input(unit_ball):
    apexes = np.array([[2.0, 0.0, 0.0], [0.0, 3.0, 0.0], [0.5, 0.0, 0.0]])
    with pytest.raises(ApexInsideBody, match="apex row 2 gauge 0.5"):
        graze(unit_ball, apexes)
    with pytest.raises(NonFiniteInput, match=r"apex row 1 \[nan"):
        graze(unit_ball, np.array([[2.0, 0.0, 0.0], [np.nan, 2.0, 0.0]]))
    with pytest.raises(UnsupportedDimension):
        graze(unit_ball, np.zeros((0, 3)))
    x = np.array([[2.0, 0.0, 0.0], [2.0, 2.0, 0.0]])
    y = np.array([[-2.0, 0.0, 0.0], [2.0, 2.0, 5.0]])
    with pytest.raises(LineMissesBody, match="line row 1"):
        cone_intersection(unit_ball, x, y)
    with pytest.raises(CoincidentApexes, match="apexes row 0"):
        cone_intersection(unit_ball, x, x + 1e-12)


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


@pytest.mark.parametrize("construct, name", [
    (lambda body, m: graze(body, np.array([2.0, 0.0, 0.0]), m=m), "graze"),
    (lambda body, m: shadow_boundary(body, np.array([1.0, 0.0, 0.0]), m=m),
     "shadow_boundary"),
    (lambda body, m: cone_intersection(body, np.array([2.0, 0.0, 0.0]),
                                       np.array([-2.0, 0.0, 0.0]), m=m),
     "cone_intersection"),
], ids=["graze", "shadow", "cone-intersection"])
@pytest.mark.parametrize("m", [-1, 0, 2])
def test_curve_constructions_need_three_points(unit_ball, construct, name, m):
    with pytest.raises(ValueError, match="%s needs m >= 3; got %d" % (name, m)):
        construct(unit_ball, m)
    assert len(construct(unit_ball, 3)) == 3


# ------------------------------------------------------------- cone tests


def test_ball_support_cone_is_ellipsoidal(unit_ball):
    apex = np.array([2.0, 0.0, 0.0])
    fit = is_ellipsoidal_cone(apex, graze(unit_ball, apex, m=120))
    assert fit.detail["ellipsoidal"]
    assert fit.classification == ELLIPSE
    assert fit.detail["max_rms"] < 1e-8
    # the base section is fitted relative to the apex, 1 from it along the
    # axis, and its centre is reported in the world
    assert np.abs(fit.detail["center_world"] - [1.0, 0.0, 0.0]).max() < 1e-8


def test_cone_sectioning_needs_dimension_three():
    apex = np.array([2.0, 0.0, 0.0, 0.0])
    contact = graze(Ellipsoid.ball(1.0, dim=4), apex, m=16)
    with pytest.raises(UnsupportedDimension):
        is_ellipsoidal_cone(apex, contact)


def test_l4_support_cone_is_not_ellipsoidal(l4_unit):
    apex = np.array([2.0, 0.0, 0.0])
    fit = is_ellipsoidal_cone(apex, graze(l4_unit, apex, m=120))
    assert not fit.detail["ellipsoidal"]
    assert fit.detail["max_rms"] > 0.03


def test_stacked_cone_fits_equal_one_cone_calls(ellipsoid149, l4_unit):
    """One call over k apexes and their grazes gives each apex's own fit,
    tilts and all; an ellipsoid's cones pass and the l4 ball's fail."""
    apexes = 2.0 * sphere_directions(3, 5, seed=2)
    for body, ellipsoidal in ((ellipsoid149, True), (l4_unit, False)):
        apex_rows = apexes * (3.5 if ellipsoidal else 1.0)
        contacts = graze(body, apex_rows, m=32)
        fits = is_ellipsoidal_cone(apex_rows, contacts, seed=3)
        assert len(fits) == len(apex_rows)
        for apex, contact, fit in zip(apex_rows, contacts, fits):
            one = is_ellipsoidal_cone(apex, contact, seed=3)
            assert np.array_equal(fit.model, one.model)
            assert fit.detail["alt_rms"] == one.detail["alt_rms"]
            assert fit.detail["max_rms"] == one.detail["max_rms"]
            assert fit.detail["ellipsoidal"] == one.detail["ellipsoidal"] == ellipsoidal
    with pytest.raises(ValueError, match="one contact curve per apex"):
        is_ellipsoidal_cone(apexes, contacts[:2])


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


def test_cone_around_its_apex_has_no_bounded_section():
    """Generators spread over a whole circle about the apex average to
    nothing along their plane: no section orthogonal to their mean is
    bounded."""
    th = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    circle = np.column_stack([np.cos(th), np.sin(th), np.zeros(16)])
    with pytest.raises(DegenerateCone, match="^no bounded section orthogonal "
                       "to the mean generator$"):
        is_ellipsoidal_cone(np.zeros(3), CurveSample(circle, np.zeros(16), {}))


def test_curve_sample_validation():
    with pytest.raises(ValueError):
        CurveSample(np.zeros((2, 3)), np.zeros(2), {})
    pts = np.array([[0.0, 0, 0], [0.0, 0, 0], [1.0, 0, 0]])
    with pytest.raises(ValueError):
        CurveSample(pts, np.zeros(3), {})
