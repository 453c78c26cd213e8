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
    fit_hyperplane,
    fit_planar_conic,
    fit_quadric,
    section,
)
from ellipsoid_forge.errors import DegenerateCloud, NotCoplanar
from ellipsoid_forge.numeric import normalize, sphere_directions, unit_frame

from oracles import ellipsoid_section_center, fit_plane_rms


_Z0 = Hyperplane(np.array([0.0, 0.0, 1.0]), 0.0)


def _fit_conic_z0(xy):
    """fit_planar_conic on the points xy of the plane z = 0, whose chart
    coordinates are (x, y) exactly; a (k, m, 2) stack takes k planes."""
    xy = np.asarray(xy, dtype=float)
    pts = np.concatenate([xy, np.zeros(xy.shape[:-1] + (1,))], axis=-1)
    return fit_planar_conic(pts, _Z0 if xy.ndim == 2 else [_Z0] * len(xy))


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
    res = _fit_conic_z0(cloud)
    assert res.classification == ELLIPSE
    assert res.rms_residual < 1e-12
    assert np.allclose(res.detail["center"], center, atol=1e-10)


def test_fit_conic_hyperbola():
    t = np.linspace(-1.2, 1.2, 30)
    branch = np.column_stack([np.cosh(t), np.sinh(t)])
    cloud = np.vstack([branch, -branch])
    res = _fit_conic_z0(cloud)
    assert res.classification == HYPERBOLA
    assert res.detail["disc"] > 0


@given(st.floats(0.1, 10.0), st.floats(1.0, 10.0), st.floats(-5.0, 5.0),
       st.floats(-5.0, 5.0), st.floats(0.0, np.pi))
@settings(max_examples=60)
def test_fit_conic_is_the_quadric_fit_in_the_plane(major, ratio, cx, cy, angle):
    center, axes = np.array([cx, cy]), (major, major / ratio)
    res = _fit_conic_z0(_ellipse_cloud(center, axes, angle, m=24))
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
    res = _fit_conic_z0(cloud)
    assert res.classification == HYPERBOLA
    assert res.detail["disc"] > 0


def test_fit_conic_rejects_small_or_degenerate_input():
    with pytest.raises(DegenerateCloud):
        _fit_conic_z0(np.random.default_rng(1).normal(size=(5, 2)))
    with pytest.raises(DegenerateCloud):
        _fit_conic_z0(np.column_stack([np.linspace(0, 1, 12), np.zeros(12)]))
    # in a stack the collinear cloud is named by its row
    line = np.column_stack([np.linspace(0, 1, 12), np.linspace(0, 2, 12)])
    ellipse = _ellipse_cloud(np.zeros(2), (1.5, 0.7), 0.6, m=12)
    with pytest.raises(DegenerateCloud, match="^row 1: quadric coefficients"):
        _fit_conic_z0(np.stack([ellipse, line]))


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
    res = _fit_conic_z0(pts)
    assert res.classification == PARABOLA_OR_DEGENERATE


# ------------------------------------------------------------------ stacks


def _assert_same_fit(a, b):
    """Two FitResults equal bit for bit, detail and all."""
    if isinstance(a.model, Hyperplane):
        assert np.array_equal(a.model.normal, b.model.normal)
        assert a.model.offset == b.model.offset
    else:
        assert np.array_equal(a.model, b.model)
    assert (a.rms_residual, a.max_residual, a.classification) == (
        b.rms_residual, b.max_residual, b.classification)
    assert a.detail.keys() == b.detail.keys()
    for key in a.detail:
        assert np.array_equal(a.detail[key], b.detail[key]), key


def _conic_clouds(m=40, seed=0):
    """Seeded ellipses, hyperbolas and l4 circles in the plane, m points each."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0, 2 * np.pi, m, endpoint=False)
    circle = np.column_stack([np.cos(t), np.sin(t)])
    l4 = circle / (np.sum(circle**4, axis=1) ** 0.25)[:, None]
    clouds = []
    for _ in range(3):
        clouds.append(_ellipse_cloud(rng.uniform(-1, 1, 2), rng.uniform(0.3, 2.0, 2),
                                     rng.uniform(0, np.pi), m))
        s = np.linspace(-1.5, 1.5, m // 2)
        branch = rng.uniform(0.5, 2.0, 2) * np.column_stack([np.cosh(s), np.sinh(s)])
        clouds.append(np.vstack([branch, -branch]) @ _rotation(rng.uniform(0, np.pi))
                      + rng.uniform(-1, 1, 2))
        clouds.append(rng.uniform(0.5, 2.0) * l4 + rng.uniform(-1, 1, 2))
    return np.stack(clouds)


def _in_planes(xy, seed=1):
    """The planar clouds xy carried into seeded planes of R^3."""
    rng = np.random.default_rng(seed)
    planes = [Hyperplane(normalize(rng.standard_normal(3)), rng.uniform(-1, 1))
              for _ in xy]
    pts = np.stack([p.normal * p.offset + c @ unit_frame(p.normal).T
                    for c, p in zip(xy, planes)])
    return planes, pts


def _solid_clouds():
    bodies = [Ellipsoid(np.array([0.1, -0.2, 0.3]), np.diag([1.0, 4.0, 9.0])),
              PBall(4.0, (1.0, 1.0, 1.0)), PBall(4.0, (0.5, 1.0, 2.0))]
    return np.stack([_ellipsoid_cloud(b, m=60, seed=i) for i, b in enumerate(bodies)])


def test_stacked_fits_equal_their_one_cloud_calls():
    xy = _conic_clouds()
    planes, pts = _in_planes(xy)
    solid = _solid_clouds()
    noisy = pts + 1e-3 * np.random.default_rng(2).standard_normal(pts.shape)
    assert ({f.classification for f in _fit_conic_z0(xy)}
            == {ELLIPSE, HYPERBOLA, PARABOLA_OR_DEGENERATE})
    assert {f.classification for f in fit_quadric(solid)} == {
        ELLIPSE, PARABOLA_OR_DEGENERATE}
    for fit, stack in [(_fit_conic_z0, xy), (fit_quadric, xy), (fit_quadric, solid),
                       (fit_hyperplane, pts), (fit_hyperplane, noisy),
                       (fit_hyperplane, solid)]:
        fits = fit(stack)
        assert len(fits) == len(stack)
        for cloud, res in zip(stack, fits):
            _assert_same_fit(res, fit(cloud))
    fits = fit_planar_conic(pts, planes)
    assert [f.classification for f in fits] == [
        f.classification for f in _fit_conic_z0(xy)]
    for cloud, plane, res in zip(pts, planes, fits):
        _assert_same_fit(res, fit_planar_conic(cloud, plane))


def test_stacked_fits_name_the_row_of_a_bad_cloud():
    xy = _conic_clouds()[:3]
    planes, pts = _in_planes(xy)
    # a point whose mean over the cloud is exact, so that every fit sees
    # a zero spread
    coincident = np.broadcast_to([0.5, -0.25, 1.0], pts[0].shape)
    off = pts[2] + 1e-3 * np.linspace(0, 1, len(pts[2]))[:, None] * planes[2].normal
    with pytest.raises(DegenerateCloud, match="^row 1: all points coincide$"):
        fit_planar_conic(np.stack([pts[0], coincident, off]), planes)
    with pytest.raises(NotCoplanar, match="^row 2: points deviate from the plane"):
        fit_planar_conic(np.stack([pts[0], pts[1], off]), planes)
    with pytest.raises(NotCoplanar, match="^points deviate from the plane"):
        fit_planar_conic(off, planes[2])
    for fit in (fit_quadric, fit_hyperplane):
        with pytest.raises(DegenerateCloud, match="^row 1: all points coincide$"):
            fit(np.stack([pts[0], coincident]))
        with pytest.raises(DegenerateCloud, match="^all points coincide$"):
            fit(coincident)
    line = np.column_stack([np.linspace(0, 1, 40), np.zeros(40)])
    with pytest.raises(DegenerateCloud,
                       match="^row 1: quadric coefficients not determined"):
        _fit_conic_z0(np.stack([xy[0], line]))
    with pytest.raises(ValueError, match="one plane per cloud"):
        fit_planar_conic(pts, planes[:2])
