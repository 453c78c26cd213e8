"""Cross ratios, harmonic conjugates, and flats against 1-D parameter oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ellipsoid_forge import (
    INFINITY_HYPERPLANE,
    HPoint,
    Hyperplane,
    Line,
    ProjectiveMap,
    cross_ratio,
    fit_hyperplane_projective,
    harmonic_conjugate,
)
from ellipsoid_forge.errors import DegenerateQuadruple, NonCollinear, NonFiniteInput

from oracles import harmonic_parameter, real_cross_ratio


def _line_points(seed, params):
    rng = np.random.default_rng(seed)
    base = rng.uniform(-2, 2, 3)
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    return [base + t * d for t in params], base, d


finite_param = st.floats(-50.0, 50.0)


@given(st.integers(0, 10 ** 6),
       st.tuples(finite_param, finite_param, finite_param, finite_param))
@settings(max_examples=60)
def test_cross_ratio_matches_parameter_oracle(seed, params):
    ta, tb, tc, td = params
    # keep the quadruple away from the degenerate denominators
    if min(abs(tb - tc), abs(ta - td)) < 1e-3:
        return
    if min(abs(ta - tb), abs(tc - td)) < 1e-3:
        return
    pts, _, _ = _line_points(seed, params)
    want = real_cross_ratio(ta, tb, tc, td)
    got = cross_ratio(*pts)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_cross_ratio_with_point_at_infinity():
    # d at infinity degenerates [a,b;c,d] to the simple ratio (a-c)/(b-c)
    ta, tb, tc = 0.3, 1.7, -0.9
    pts, base, d = _line_points(7, (ta, tb, tc))
    got = cross_ratio(pts[0], pts[1], pts[2], HPoint.at_infinity(d))
    assert got == pytest.approx((ta - tc) / (tb - tc), rel=1e-12)


def test_cross_ratio_rejects_noncollinear_points():
    with pytest.raises(NonCollinear):
        cross_ratio([0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 1])


def test_cross_ratio_degenerate_quadruple():
    pts, _, _ = _line_points(3, (0.0, 1.0, 0.0, 0.0))
    with pytest.raises(DegenerateQuadruple):
        cross_ratio(*pts)


@given(st.integers(0, 10 ** 6), finite_param, finite_param, finite_param)
@settings(max_examples=60)
def test_harmonic_conjugate_matches_oracle(seed, ta, tb, to):
    if abs(ta - tb) < 1e-2 or abs(to - ta) < 1e-2 or abs(to - tb) < 1e-2:
        return
    pts, base, d = _line_points(seed, (ta, tb, to))
    p = harmonic_conjugate(*pts)
    tq = harmonic_parameter(ta, tb, to)
    if tq is None:
        assert p.is_infinite()
        assert p == HPoint.at_infinity(d)
        return
    want = base + tq * d
    scale = 1.0 + np.linalg.norm(want)
    assert np.linalg.norm(p.affine() - want) <= 1e-7 * scale
    assert cross_ratio(pts[0], pts[1], pts[2], p) == pytest.approx(-1.0, abs=1e-9)


def test_harmonic_conjugate_of_midpoint_is_infinite():
    pts, _, d = _line_points(11, (-1.0, 1.0, 0.0))
    p = harmonic_conjugate(*pts)
    assert p.is_infinite()
    assert p == HPoint.at_infinity(d)


def test_cross_ratio_projective_invariance():
    rng = np.random.default_rng(20)
    for trial in range(25):
        params = rng.uniform(-3, 3, 4)
        if min(abs(params[1] - params[2]), abs(params[0] - params[3]),
               abs(params[0] - params[1]), abs(params[2] - params[3])) < 0.1:
            continue
        pts, _, _ = _line_points(trial, params)
        while True:
            m = rng.normal(size=(4, 4))
            if abs(np.linalg.det(m)) > 0.2:
                break
        g = ProjectiveMap(m)
        before = cross_ratio(*pts)
        after = cross_ratio(*[g.apply(p) for p in pts])
        assert abs(after - before) <= 1e-9 * max(1.0, abs(before))
    with pytest.raises(ValueError):
        ProjectiveMap(np.zeros((4, 4)))


def test_hpoint_basics():
    p = HPoint.from_affine([1.0, 2.0, 3.0])
    assert p.dim == 3 and p.w == 1.0
    assert np.allclose(p.affine(), [1, 2, 3])
    assert p == HPoint([2.0, 4.0, 6.0, 2.0])
    q = HPoint.at_infinity([0, 0, 1])
    assert q.is_infinite()
    with pytest.raises(ValueError):
        q.affine()
    with pytest.raises(ValueError):
        HPoint([0.0, 0.0, 0.0])
    with pytest.raises(TypeError):
        hash(p)


def test_hyperplane_line_meet():
    h = Hyperplane(np.array([1.0, 0.0, 0.0]), 0.5)
    line = Line(np.array([0.0, 1.0, 0.0]), np.array([1.0, 0.0, 1.0]))
    x = h.intersect_line(line).affine()
    assert x[0] == pytest.approx(0.5)
    assert h.contains(x)
    parallel = Line(np.array([0.0, 0.0, 0.0]), np.array([0.0, 1.0, 1.0]))
    at_inf = h.intersect_line(parallel)
    assert at_inf.is_infinite()
    assert at_inf == HPoint.at_infinity(parallel.direction)
    assert INFINITY_HYPERPLANE.intersect_line(line).is_infinite()
    assert INFINITY_HYPERPLANE.is_infinite


def test_hyperplane_requires_unit_normal():
    with pytest.raises(ValueError):
        Hyperplane(np.array([2.0, 0.0, 0.0]), 1.0)
    for normal, offset in (([np.nan, 0.0, 1.0], 0.0), ([0.0, 0.0, 1.0], np.nan),
                           ([0.0, 0.0, 1.0], np.inf)):
        with pytest.raises(NonFiniteInput):
            Hyperplane(np.array(normal), offset)


def test_line_requires_finite_point_and_direction():
    for point, direction in (([np.nan, 0.0, 0.0], [1.0, 0.0, 0.0]),
                             ([0.0, np.inf, 0.0], [1.0, 0.0, 0.0]),
                             ([0.0, 0.0, 0.0], [np.nan, 1.0, 0.0]),
                             ([0.0, 0.0, 0.0], [-np.inf, 0.0, 0.0])):
        with pytest.raises(NonFiniteInput):
            Line(np.array(point), np.array(direction))


def test_fit_hyperplane_projective_exact_plane():
    rng = np.random.default_rng(5)
    n = np.array([1.0, -2.0, 2.0]) / 3.0
    offset = 0.7
    e1, e2 = np.linalg.svd(n.reshape(1, 3))[2][1:]
    pts = [HPoint.from_affine(offset * n + a * e1 + b * e2)
           for a, b in rng.uniform(-1, 1, (12, 2))]
    h, resid, _ = fit_hyperplane_projective(np.stack([p.coords for p in pts]))
    assert not h.is_infinite
    assert resid < 1e-12
    # orientation is normalized, so compare against both signs explicitly
    sign = 1.0 if np.dot(h.normal, n) > 0 else -1.0
    assert np.allclose(sign * h.normal, n, atol=1e-10)
    assert sign * h.offset == pytest.approx(offset, abs=1e-10)


def test_fit_hyperplane_projective_at_infinity():
    rng = np.random.default_rng(6)
    pts = [HPoint.at_infinity(rng.normal(size=3)) for _ in range(8)]
    h, resid, _ = fit_hyperplane_projective(np.stack([p.coords for p in pts]))
    assert h is INFINITY_HYPERPLANE
    assert resid < 1e-12
