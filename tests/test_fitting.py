"""Hyperplane/conic/quadric fits on exact and deliberately non-quadric clouds."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ellipsoid_forge import (
    ELLIPSE,
    HYPERBOLA,
    PARABOLA_OR_DEGENERATE,
    Ellipsoid,
    FitResult,
    Hyperplane,
    PBall,
    fit_conic_2d,
    fit_hyperplane,
    fit_planar_conic,
    fit_quadric,
    section,
)
from ellipsoid_forge.errors import DegenerateCloud, NotCoplanar
from ellipsoid_forge.numeric import sphere_directions

from oracles import ellipsoid_section_center, fit_plane_rms


def _rotation(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def _ellipse_cloud(center, axes, angle, m=40, phase=0.0):
    t = phase + np.linspace(0, 2 * np.pi, m, endpoint=False)
    pts = np.column_stack([axes[0] * np.cos(t), axes[1] * np.sin(t)])
    return pts @ _rotation(angle).T + np.asarray(center)


def test_fit_hyperplane_exact_and_noisy():
    rng = np.random.default_rng(0)
    n = np.array([2.0, -1.0, 2.0]) / 3.0
    e1, e2 = np.linalg.svd(n.reshape(1, 3))[2][1:]
    flat = np.array([0.4 * n + a * e1 + b * e2
                     for a, b in rng.uniform(-1, 1, (20, 2))])
    res = fit_hyperplane(flat)
    assert res.classification == "hyperplane"
    assert res.rms_residual < 1e-14
    sign = 1.0 if res.model.normal @ n > 0 else -1.0
    assert np.allclose(sign * res.model.normal, n, atol=1e-12)
    # cross-check against the independent SVD oracle; normalizers differ
    # (diameter vs spread), so compare the absolute rms distances
    noisy = flat + rng.normal(scale=1e-3, size=flat.shape)
    res2 = fit_hyperplane(noisy)
    o_normal, o_offset, _ = fit_plane_rms(noisy)
    want = np.sqrt(np.mean((noisy @ o_normal - o_offset) ** 2))
    assert res2.rms_residual * res2.detail["diameter"] == pytest.approx(
        want, rel=1e-9)


def test_fit_hyperplane_degenerate_clouds():
    with pytest.raises(DegenerateCloud):
        fit_hyperplane(np.zeros((2, 3)))
    line = np.outer(np.linspace(0, 1, 8), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(DegenerateCloud):
        fit_hyperplane(line)


def test_fit_conic_exact_ellipse():
    center = np.array([0.3, -0.2])
    cloud = _ellipse_cloud(center, (1.5, 0.7), 0.6)
    res = fit_conic_2d(cloud)
    assert res.classification == ELLIPSE
    assert res.rms_residual < 1e-12
    assert np.allclose(res.detail["center"], center, atol=1e-10)


def test_fit_conic_hyperbola():
    t = np.linspace(-1.2, 1.2, 30)
    branch = np.column_stack([np.cosh(t), np.sinh(t)])
    cloud = np.vstack([branch, -branch])
    res = fit_conic_2d(cloud)
    assert res.classification == HYPERBOLA
    assert res.detail["disc"] > 0


@given(st.floats(0.1, 10.0), st.floats(1.0, 10.0), st.floats(-5.0, 5.0),
       st.floats(-5.0, 5.0), st.floats(0.0, np.pi))
@settings(max_examples=60)
def test_fit_conic_is_the_quadric_fit_in_the_plane(major, ratio, cx, cy, angle):
    center, axes = np.array([cx, cy]), (major, major / ratio)
    res = fit_conic_2d(_ellipse_cloud(center, axes, angle, m=24))
    assert res.classification == ELLIPSE
    assert np.abs(res.detail["center"] - center).max() <= 1e-9
    form, mu, scale = res.detail["form"], res.detail["mu"], res.detail["scale"]

    def value(p):
        z = np.append((p - mu) / scale, 1.0)
        return float(z @ form @ z)

    held_out = _ellipse_cloud(center, axes, angle, m=24, phase=np.pi / 24)
    assert max(abs(value(p)) for p in held_out) <= 1e-9
    assert value(center) < 0.0


@given(st.floats(0.2, 5.0), st.floats(0.2, 5.0), st.floats(-5.0, 5.0),
       st.floats(-5.0, 5.0), st.floats(0.0, np.pi))
@settings(max_examples=30)
def test_fit_conic_random_hyperbolas(a, b, cx, cy, angle):
    t = np.linspace(-1.2, 1.2, 15)
    branch = np.column_stack([a * np.cosh(t), b * np.sinh(t)])
    cloud = np.vstack([branch, -branch]) @ _rotation(angle).T + [cx, cy]
    res = fit_conic_2d(cloud)
    assert res.classification == HYPERBOLA
    assert res.detail["disc"] > 0


def test_fit_conic_rejects_small_or_degenerate_input():
    with pytest.raises(DegenerateCloud):
        fit_conic_2d(np.random.default_rng(1).normal(size=(5, 2)))
    with pytest.raises(DegenerateCloud):
        fit_conic_2d(np.column_stack([np.linspace(0, 1, 12), np.zeros(12)]))


def test_fit_planar_conic_center_matches_section_oracle():
    q = np.diag([1.0, 4.0, 9.0])
    body = Ellipsoid(np.array([0.1, 0.2, -0.1]), q)
    nrm = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    plane = Hyperplane(nrm, 0.25)
    sec = section(body, plane)
    t = np.linspace(0, 2 * np.pi, 48, endpoint=False)
    pts = np.array([sec.to_world(sec.boundary2(np.array([np.cos(a), np.sin(a)])))
                    for a in t])
    res = fit_planar_conic(pts, plane)
    assert res.classification == ELLIPSE
    want = ellipsoid_section_center(body.center, q, nrm, 0.25)
    assert np.allclose(res.detail["center_world"], want, atol=1e-8)


def test_fit_planar_conic_rejects_off_plane_points():
    plane = Hyperplane(np.array([0.0, 0.0, 1.0]), 0.0)
    pts = _ellipse_cloud((0, 0), (1, 1), 0.0, 12)
    pts3 = np.column_stack([pts, np.linspace(0, 0.1, 12)])
    with pytest.raises(NotCoplanar):
        fit_planar_conic(pts3, plane)


def test_l4_section_is_not_a_conic():
    """A tilted plane cut of the l4 ball stays far from every quadric."""
    body = PBall(4.0, (1.0, 1.0, 1.0))
    nrm = np.array([-0.2, 0.0, 1.0])
    nrm = nrm / np.linalg.norm(nrm)
    plane = Hyperplane(nrm, 0.3 * nrm[2])  # z = 0.3 + 0.2 x
    sec = section(body, plane)
    t = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    pts = np.array([sec.to_world(sec.boundary2(np.array([np.cos(a), np.sin(a)])))
                    for a in t])
    res = fit_planar_conic(pts, plane)
    assert res.classification != ELLIPSE
    assert 0.04 < res.rms_residual < 0.1


def _ellipsoid_cloud(body, m=120, seed=0):
    dirs = sphere_directions(3, m, seed=seed)
    return np.array([body.boundary_from_center(d) for d in dirs])


def test_fit_quadric_recovers_ellipsoid():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(3, 3))
    q = a @ a.T + 0.5 * np.eye(3)
    c = np.array([0.3, -0.1, 0.2])
    body = Ellipsoid(c, q)
    res = fit_quadric(_ellipsoid_cloud(body))
    assert res.classification == ELLIPSE
    assert res.rms_residual < 1e-10
    assert np.allclose(res.detail["center_world"], c, atol=1e-8)
    assert np.allclose(res.detail["shape_normalized"], q / np.trace(q), atol=1e-8)


def test_fit_quadric_hyperboloid():
    rng = np.random.default_rng(3)
    u = rng.uniform(-1, 1, (80, 2))
    # x^2 + y^2 - z^2 = 1
    z = u[:, 1]
    r = np.sqrt(1.0 + z * z)
    pts = np.column_stack([r * np.cos(3 * u[:, 0]), r * np.sin(3 * u[:, 0]), z])
    res = fit_quadric(pts)
    assert res.classification == HYPERBOLA


def test_fit_quadric_l4_cloud_is_not_a_quadric(l4_unit):
    res = fit_quadric(_ellipsoid_cloud(l4_unit))
    assert res.classification != ELLIPSE
    assert res.rms_residual > 1e-3


def test_fit_quadric_planar_cloud_is_degenerate():
    pts = _ellipse_cloud((0.1, 0.2), (1.0, 0.6), 0.3, 30)
    pts3 = np.column_stack([pts, np.zeros(30)])
    with pytest.raises(DegenerateCloud):
        fit_quadric(pts3)


def test_fit_result_rejects_negative_residuals():
    with pytest.raises(ValueError):
        FitResult(None, -1.0, 0.0, ELLIPSE)


def test_parabola_label_for_exact_parabola():
    t = np.linspace(-1, 1, 25)
    pts = np.column_stack([t, t * t])
    res = fit_conic_2d(pts)
    assert res.classification == PARABOLA_OR_DEGENERATE
