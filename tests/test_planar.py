"""Section charts, central symmetry, affine/conjugate diameters, Radon verdicts."""

import numpy as np
import pytest

from ellipsoid_forge import (
    AffineImage,
    Ellipsoid,
    Hyperplane,
    PBall,
    Polytope,
    birkhoff_normal,
    central_symmetry,
    conjugate_diameter,
    affine_diameter_residual,
    is_radon_curve,
    section,
)
from ellipsoid_forge.errors import (
    EndpointNotOnBoundary,
    NoSignChange,
    NonSmoothBody,
    NotANorm,
    NotFound,
    PlaneMissesBody,
    UnsupportedDimension,
)

from oracles import (
    birkhoff_min_ratio_lp,
    ellipsoid_section_center,
    lp_plane_conjugate,
)


def _dir2(th):
    return np.array([np.cos(th), np.sin(th)])


@pytest.fixture(scope="module")
def l4_central_section(l4_unit):
    return section(l4_unit, Hyperplane(np.array([0.0, 0.0, 1.0]), 0.0))


def test_chart_round_trip(ellipsoid149):
    nrm = np.array([1.0, 2.0, -1.0]) / np.sqrt(6.0)
    sec = section(ellipsoid149, Hyperplane(nrm, 0.1))
    assert abs(nrm @ sec.origin - 0.1) < 1e-12
    assert ellipsoid149.gauge(sec.origin) < 1.0
    rng = np.random.default_rng(0)
    for _ in range(5):
        p2 = rng.uniform(-1, 1, 2)
        assert np.allclose(sec.to_chart(sec.to_world(p2)), p2, atol=1e-12)
        z = sec.to_world(p2)
        assert abs(nrm @ z - 0.1) < 1e-12


def test_disk_section_support(unit_ball):
    c = 0.6
    sec = section(unit_ball, Hyperplane(np.array([0.0, 0.0, 1.0]), c))
    r = np.sqrt(1.0 - c * c)
    for th in np.linspace(0, 2 * np.pi, 9):
        u = _dir2(th)
        assert sec.support2(u) == pytest.approx(r, abs=1e-10)
        sp = sec.support_point2(u)
        assert float(sp @ u) == pytest.approx(r, abs=1e-10)
        assert np.linalg.norm(sec.boundary2(u)) == pytest.approx(r, abs=1e-10)
    assert sec.gauge2(np.array([r / 2, 0.0])) == pytest.approx(0.5, abs=1e-9)
    assert sec.diameter2() == pytest.approx(2 * r, abs=1e-9)


def test_support_point_consistency_on_l4(l4_central_section):
    sec = l4_central_section
    rng = np.random.default_rng(1)
    for _ in range(6):
        u = _dir2(rng.uniform(0, 2 * np.pi))
        h = sec.support2(u)
        sp = sec.support_point2(u)
        assert float(sp @ u) == pytest.approx(h, abs=1e-9)
        assert sec.gauge2(sp) == pytest.approx(1.0, abs=1e-8)


def test_section_normal_matches_body_normal(ellipsoid149):
    nrm = np.array([0.0, 0.0, 1.0])
    sec = section(ellipsoid149, Hyperplane(nrm, 0.05))
    p2 = sec.boundary2(_dir2(0.7))
    n2 = sec.normal2_at(p2)
    # in-plane normal supports the section at p2
    assert sec.support2(n2) == pytest.approx(float(p2 @ n2), abs=1e-9)


def test_plane_misses_body_raises(unit_ball):
    with pytest.raises(PlaneMissesBody):
        section(unit_ball, Hyperplane(np.array([0.0, 0.0, 1.0]), 2.0))


def test_section_origin_found_by_descent():
    # the centre's projection onto the plane has gauge 3.55, so with no hint
    # the section origin comes from the in-plane gauge descent
    c = np.array([0.3, -0.2, 0.1])
    q = np.diag([1e-2, 1.0, 1.0])  # semi-axes 10, 1, 1
    body = Ellipsoid(c, q)
    nrm = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    offset = float(nrm @ c) + 5.0
    assert body.gauge(c + 5.0 * nrm) > 3.5
    sec = section(body, Hyperplane(nrm, offset))
    assert body.gauge(sec.origin) < 1.0
    sym = central_symmetry(sec)
    want = ellipsoid_section_center(c, q, nrm, offset)
    assert np.abs(np.asarray(sym.center_world) - want).max() < 1e-12


def test_section_type_check(unit_ball):
    with pytest.raises(TypeError):
        section(unit_ball, "z=0")


def test_section_needs_three_dimensions(unit_ball):
    with pytest.raises(UnsupportedDimension):
        section(unit_ball, Hyperplane(np.array([0.0, 1.0]), 0.0))
    with pytest.raises(UnsupportedDimension):
        section(Ellipsoid.ball(1.0, dim=2), Hyperplane(np.array([0.0, 1.0]), 0.0))


# ------------------------------------------------------ polytope sections

_OCTAHEDRON = Polytope(np.vstack([np.eye(3), -np.eye(3)]))


def test_octahedron_section_support_is_closed_form():
    # the section z = 0.2 is the square |x| + |y| <= 0.8, centred on the axis
    sec = section(_OCTAHEDRON, Hyperplane(np.array([0.0, 0.0, 1.0]), 0.2))
    for th in np.linspace(0.0, 2.0 * np.pi, 97):
        w = _dir2(th)
        ww = sec.basis.T @ w
        want = 0.8 * max(abs(ww[0]), abs(ww[1])) - float(sec.origin @ ww)
        assert abs(sec.support2(w) - want) <= 1e-12


@pytest.mark.parametrize("central", [True, False], ids=["central", "off-centre"])
def test_octahedron_section_support_points_lie_on_the_section(central):
    rng = np.random.default_rng(3 if central else 4)
    for _ in range(4):
        nrm = rng.normal(size=3)
        nrm /= np.linalg.norm(nrm)
        offset = 0.0 if central else rng.uniform(-0.3, 0.3)
        sec = section(_OCTAHEDRON, Hyperplane(nrm, offset))
        for th in rng.uniform(0.0, 2.0 * np.pi, 12):
            w = _dir2(th)
            p = sec.support_point2(w)
            assert abs(_OCTAHEDRON.gauge(sec.to_world(p)) - 1.0) <= 1e-12
            assert abs(float(w @ p) - sec.support2(w)) <= 1e-12


# ------------------------------------------------------- central symmetry


def test_central_symmetry_of_ellipsoid_section():
    q = np.diag([1.0, 4.0, 9.0])
    body = Ellipsoid(np.array([0.1, -0.2, 0.05]), q)
    nrm = np.array([1.0, 1.0, 2.0]) / np.sqrt(6.0)
    sec = section(body, Hyperplane(nrm, 0.2))
    sym = central_symmetry(sec)
    assert sym.ok
    assert sym.residual < 1e-9
    want = ellipsoid_section_center(body.center, q, nrm, 0.2)
    assert np.allclose(sym.center_world, want, atol=1e-7)


def test_central_symmetry_determinism(l4_central_section):
    a = central_symmetry(l4_central_section, seed=3)
    b = central_symmetry(l4_central_section, seed=3)
    assert a.residual == b.residual
    assert np.array_equal(a.center, b.center)


def test_tilted_l4_section_is_not_symmetric(l4_unit):
    nrm = np.array([-0.4, 0.0, 1.0])
    nrm = nrm / np.linalg.norm(nrm)
    sec = section(l4_unit, Hyperplane(nrm, 0.3 * nrm[2]))  # z = 0.3 + 0.4 x
    sym = central_symmetry(sec)
    assert not sym.ok
    assert 1e-3 < sym.residual < 6e-3


# -------------------------------------------------------------- diameters


def test_central_chord_of_ellipse_is_affine_diameter():
    q = np.diag([1.0, 4.0, 9.0])
    body = Ellipsoid(np.zeros(3), q)
    sec = section(body, Hyperplane(np.array([0.0, 0.0, 1.0]), 0.1))
    c2 = central_symmetry(sec).center
    for th in (0.3, 1.2, 2.5):
        a2 = sec.boundary2(_dir2(th), base2=c2)
        b2 = sec.boundary2(-_dir2(th), base2=c2)
        assert affine_diameter_residual(sec, a2, b2) < 1e-9


def test_off_center_chord_is_not_affine_diameter(unit_ball):
    sec = section(unit_ball, Hyperplane(np.array([0.0, 0.0, 1.0]), 0.0))
    a2 = sec.boundary2(_dir2(0.0))
    b2 = sec.boundary2(_dir2(2.0))  # chord missing the center
    assert affine_diameter_residual(sec, a2, b2) > 1e-2


def test_affine_diameter_requires_boundary_endpoints(unit_ball):
    sec = section(unit_ball, Hyperplane(np.array([0.0, 0.0, 1.0]), 0.0))
    with pytest.raises(EndpointNotOnBoundary):
        affine_diameter_residual(sec, np.array([0.1, 0.0]), np.array([1.0, 0.0]))


_CUBE = Polytope([[sx, sy, sz] for sx in (-1, 1)
                  for sy in (-1, 1) for sz in (-1, 1)])


@pytest.mark.parametrize("body", [
    _CUBE,
    AffineImage(np.array([[1.0, 0.3, 0.0], [0.0, 0.8, 0.2], [0.1, 0.0, 1.2]]),
                np.array([0.1, -0.2, 0.0]), _CUBE),
], ids=["cube", "affine-cube"])
def test_affine_diameter_needs_a_smooth_section(body):
    # a polytope has no normal oracle: the angular defect is defined on
    # smooth bodies only
    sec = section(body, Hyperplane(np.array([0.0, 0.0, 1.0]), 0.0))
    d = _dir2(np.pi / 4)
    with pytest.raises(NonSmoothBody):
        affine_diameter_residual(sec, sec.boundary2(d), sec.boundary2(-d))


def test_conjugate_diameter_on_circle(unit_ball):
    sec = section(unit_ball, Hyperplane(np.array([0.0, 0.0, 1.0]), 0.0))
    a2, b2 = sec.boundary2(_dir2(0.5)), sec.boundary2(-_dir2(0.5))
    (qm, qp), defect = conjugate_diameter(sec, a2, b2)
    assert defect < 1e-9
    # conjugate of a circle diameter is the perpendicular diameter
    assert abs(float(qp @ (b2 - a2))) < 1e-8
    assert np.allclose(qm, -qp, atol=1e-8)


def test_conjugate_diameter_mutuality_on_ellipse():
    body = Ellipsoid(np.zeros(3), np.diag([1.0, 4.0, 9.0]))
    sec = section(body, Hyperplane(np.array([0.0, 0.0, 1.0]), 0.0))
    a2, b2 = sec.boundary2(_dir2(0.9)), sec.boundary2(-_dir2(0.9))
    (qm, qp), defect = conjugate_diameter(sec, a2, b2)
    assert defect < 1e-8
    (rm, rp), defect2 = conjugate_diameter(sec, qm, qp)
    assert defect2 < 1e-8
    d0 = (b2 - a2) / np.linalg.norm(b2 - a2)
    d2 = (rp - rm) / np.linalg.norm(rp - rm)
    assert min(np.linalg.norm(d2 - d0), np.linalg.norm(d2 + d0)) < 1e-6


def test_conjugate_diameter_fails_on_l4(l4_central_section):
    sec = l4_central_section
    d = np.array([1.0, 0.5]) / np.linalg.norm([1.0, 0.5])
    a2, b2 = sec.boundary2(-d), sec.boundary2(d)
    with pytest.raises(NotFound) as exc:
        conjugate_diameter(sec, a2, b2)
    assert 0.02 < exc.value.defect < 0.07


def test_degenerate_chord_rejected(unit_ball):
    sec = section(unit_ball, Hyperplane(np.array([0.0, 0.0, 1.0]), 0.0))
    a2 = sec.boundary2(_dir2(0.1))
    with pytest.raises(ValueError):
        conjugate_diameter(sec, a2, a2)


# ---------------------------------------------------------------- birkhoff


def test_birkhoff_on_circle_matches_sine(unit_ball):
    sec = section(unit_ball, Hyperplane(np.array([0.0, 0.0, 1.0]), 0.0))
    x = np.array([0.8, 0.0])
    y = _dir2(1.1)
    res = birkhoff_normal(sec, x, y)
    # Euclidean norm: min_t ||x + t y|| / ||x|| = |sin(angle)|
    assert res.min_ratio == pytest.approx(abs(np.sin(1.1)), abs=1e-9)
    assert not res.ok
    perp = birkhoff_normal(sec, x, np.array([0.0, 1.0]))
    assert perp.ok
    assert perp.min_ratio == pytest.approx(1.0, abs=1e-12)


def test_birkhoff_rejects_zero_vectors(l4_central_section):
    with pytest.raises(ValueError):
        birkhoff_normal(l4_central_section, np.zeros(2), np.array([1.0, 0.0]))


def test_birkhoff_asymmetric_pair_near_one_half(l4_central_section):
    """The standing witness pair: conjugate holds one way, dips the other."""
    sec = l4_central_section
    d = np.array([1.0, 0.5]) / np.linalg.norm([1.0, 0.5])
    x = sec.boundary2(d)
    y = sec.to_chart(np.append(lp_plane_conjugate(x, 4.0), 0.0))
    bwd = birkhoff_normal(sec, y, x)
    fwd = birkhoff_normal(sec, x, y)
    assert bwd.ok
    assert not fwd.ok
    want = birkhoff_min_ratio_lp(np.append(x, 0.0), np.append(y, 0.0), 4.0)
    assert fwd.min_ratio == pytest.approx(want, abs=1e-6)
    assert fwd.min_ratio == pytest.approx(0.91016, abs=1e-4)


# ------------------------------------------------------------------ radon


def test_ellipse_sections_are_radon():
    q = np.diag([1.0, 4.0, 9.0])
    body = Ellipsoid(np.array([0.05, 0.0, -0.1]), q)
    for nrm, off in ((np.array([0.0, 0.0, 1.0]), -0.1),
                     (np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0), 0.0)):
        sec = section(body, Hyperplane(nrm, off))
        res = is_radon_curve(sec, k=128)
        assert res.ok
        assert res.conjugacy_ok and res.normality_ok
        assert res.worst_defect < 1e-8
        assert res.worst_asymmetry < 1e-8


def test_l4_central_section_is_not_radon(l4_central_section):
    res = is_radon_curve(l4_central_section, k=128)
    assert not res.ok
    assert not res.conjugacy_ok
    assert not res.normality_ok
    assert 0.15 < res.worst_asymmetry < 0.19
    assert res.worst_defect > 0.05
    # worst parallelogram defect sits in the theta ~ 0.16 dihedral family
    th = np.arctan2(res.worst_direction[1], res.worst_direction[0]) % (np.pi / 2)
    assert min(th, np.pi / 2 - th) < 0.35


def test_radon_requires_central_symmetry(l4_unit):
    nrm = np.array([-0.4, 0.0, 1.0])
    nrm = nrm / np.linalg.norm(nrm)
    sec = section(l4_unit, Hyperplane(nrm, 0.3 * nrm[2]))
    with pytest.raises(NotANorm):
        is_radon_curve(sec)


def test_radon_determinism(l4_central_section):
    a = is_radon_curve(l4_central_section, k=64, seed=5)
    b = is_radon_curve(l4_central_section, k=64, seed=5)
    assert a.worst_defect == b.worst_defect
    assert a.worst_asymmetry == b.worst_asymmetry


def test_section_sweeps_reject_empty_samples(l4_central_section):
    with pytest.raises(ValueError, match="central_symmetry needs m >= 3"):
        central_symmetry(l4_central_section, m=0)
    # two directions fit the centre's two unknowns exactly: residual ~1e-17
    # on an l4 section that m = 3 already rejects
    with pytest.raises(ValueError, match="central_symmetry needs m >= 3; got 2"):
        central_symmetry(l4_central_section, m=2)
    for sizes in ({"k": 0}, {"cross_pairs": 0}):
        with pytest.raises(ValueError, match="is_radon_curve needs"):
            is_radon_curve(l4_central_section, **sizes)


def test_support2_without_a_sign_change_raises_typed_error():
    sec = section(Ellipsoid.ball(1.0), Hyperplane(np.array([0, 0, 1.0]), 0.2))
    with pytest.raises(NoSignChange):
        sec.support2([np.nan, 0.0])
