"""Support oracles, boundary search, symmetry residuals, spec round trips."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import ConvexHull

from ellipsoid_forge import (
    AffineImage,
    ConvexBody,
    Ellipsoid,
    Line,
    PBall,
    Polytope,
    is_o_symmetric,
    line_boundary_points,
    o_symmetry_residual,
    parse_body,
    serialize_body,
)
from ellipsoid_forge.bodies import _columns, _lp_norm, _nonzero, ray_exit
from ellipsoid_forge.planar import _TIE_STEPS, section
from ellipsoid_forge.projective import Hyperplane
from ellipsoid_forge.errors import (BodySpecError, LineMissesBody, NoSignChange,
                                   NonFiniteInput, NonSmoothBody, RayBaseNotInterior,
                                   ZeroDirection)
from ellipsoid_forge.numeric import normalize, sphere_directions

from conftest import random_affine

from oracles import (
    ellipsoid_oracles_by_vecmat,
    ellipsoid_support,
    line_min_gauge_facet_pairs,
    line_min_gauge_scalar,
    lp_boundary_on_ray,
    lp_norm,
    lp_support,
    lp_support_point,
    pball_oracles_by_norm,
    polytope_gauge_lp,
)


def _random_spd(rng, n=3):
    a = rng.normal(size=(n, n))
    return a @ a.T + 0.5 * np.eye(n)


def _unit(rng, n=3):
    u = rng.normal(size=n)
    return u / np.linalg.norm(u)


# ---------------------------------------------------------------- ellipsoid


def test_ellipsoid_support_matches_closed_form():
    rng = np.random.default_rng(0)
    for _ in range(20):
        q = _random_spd(rng)
        c = rng.uniform(-1, 1, 3)
        body = Ellipsoid(c, q)
        u = rng.normal(size=3)
        assert body.support(u) == pytest.approx(
            ellipsoid_support(c, q, u), rel=1e-12)
        sp = body.support_point(u)
        assert body.gauge(sp) == pytest.approx(1.0, abs=1e-12)
        assert float(sp @ u) == pytest.approx(body.support(u), rel=1e-12)


def test_ellipsoid_normal_is_gradient_direction():
    rng = np.random.default_rng(1)
    q = _random_spd(rng)
    body = Ellipsoid(np.array([0.2, -0.1, 0.3]), q)
    x = body.support_point(_unit(rng))
    n = body.normal_at(x)
    grad = q @ (x - body.center)
    assert np.allclose(n, grad / np.linalg.norm(grad), atol=1e-12)


def test_ellipsoid_constructors_and_validation():
    b = Ellipsoid.ball(2.0)
    assert b.support(np.array([1.0, 0, 0])) == pytest.approx(2.0)
    e = Ellipsoid(np.zeros(3), np.diag(np.array([1.0, 0.5, 3.0]) ** -2.0))
    assert e.support(np.array([0, 0, 1.0])) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        Ellipsoid(np.zeros(3), np.eye(2))
    with pytest.raises(ValueError):
        Ellipsoid(np.zeros(2), np.array([[1.0, 0.5], [-0.5, 1.0]]))
    with pytest.raises(ValueError):
        Ellipsoid(np.zeros(2), np.diag([1.0, -1.0]))
    with pytest.raises(ValueError, match="finite"):
        Ellipsoid(np.array([np.nan, 0.0, 0.0]), np.eye(3))
    with pytest.raises(ValueError, match="finite"):
        Ellipsoid(np.zeros(2), np.diag([1.0, np.inf]))


def test_ellipsoid_boundary_point_closed_form():
    rng = np.random.default_rng(2)
    body = Ellipsoid(np.array([0.1, 0.0, -0.2]), _random_spd(rng))
    z = body.center + 0.3 * _unit(rng)
    d = _unit(rng)
    x = body.boundary_point(z, d)
    assert body.gauge(x) == pytest.approx(1.0, abs=1e-12)
    t = float((x - z) @ d)
    assert t > 0
    assert np.allclose(x, z + t * d, atol=1e-12)
    with pytest.raises(ValueError):
        body.boundary_point(body.support_point(d) + d, d)


# ------------------------------------------------------------------- pball


p_values = st.floats(1.3, 8.0)


@given(p_values, st.integers(0, 10 ** 6))
@settings(max_examples=40)
def test_pball_support_matches_dual_norm(p, seed):
    rng = np.random.default_rng(seed)
    axes = rng.uniform(0.4, 2.5, 3)
    body = PBall(p, axes)
    u = rng.normal(size=3)
    if np.linalg.norm(u) < 1e-3:
        return
    # A K with A = diag(axes): h(u) = h_K(A u)
    assert body.support(u) == pytest.approx(lp_support(axes * u, p), rel=1e-10)
    sp = body.support_point(u)
    assert np.allclose(sp, axes * lp_support_point(axes * u, p), atol=1e-10)
    assert body.gauge(sp) == pytest.approx(1.0, abs=1e-10)
    assert lp_norm(sp / axes, p) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("p", [4.0, 3.0, 2.0, 1.5])
def test_pball_oracles_equal_the_linalg_norm_formula(p):
    """support, support_point and gauge run np.linalg.norm's ufuncs
    directly, and equal the np.linalg.norm formula bit for bit on 1, 64 and
    3,000 rows and on each of those 3,000 as one point. For p = 2 norm takes
    a square root, which a one-point power would miss on a few of them."""
    body = PBall(p, (1.0, 0.8, 1.3))
    rng = np.random.default_rng(int(10 * p))
    for k in (1, 64, 3000):
        u, x = rng.normal(size=(k, 3)), rng.uniform(-1.0, 1.0, (k, 3))
        h, sp, g = pball_oracles_by_norm(body, u, x)
        assert np.array_equal(body.support(u), h)
        assert np.array_equal(body.support_point(u), sp)
        assert np.array_equal(body.gauge(x), g)
    for ui, xi in zip(u, x):
        hi, spi, gi = pball_oracles_by_norm(body, ui, xi)
        assert body.support(ui) == hi and body.gauge(xi) == gi
        assert np.array_equal(body.support_point(ui), spi)
    assert type(body.support(u[0])) is float and type(body.gauge(x[0])) is float


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0 / 3.0])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_lp_norm_column_sum_keeps_the_reduce_bits(dim, p):
    """_lp_norm sums |x|**p column by column, and equals the reduce over the
    last axis bit for bit, on single points, on (64, n) and (12,544, n)
    rows, on Fortran-ordered and strided rows and on an (S, k, n) stack; a
    one-point sum stays a numpy scalar, whose power has its own bits (in
    about 1 of 20 values), also in one dimension. The zero-row test of the
    ray exits folds its columns the same way."""
    rng = np.random.default_rng(dim * 10 + int(3 * p))

    def rows(*shape):
        return rng.normal(size=shape) * np.exp(rng.uniform(-8.0, 8.0, shape))
    wide = rows(500, 6)
    for x in (*rows(100, dim), rows(64, dim), rows(12544, dim),
              np.asfortranarray(rows(300, dim)), wide[:, 1:1 + dim],
              rows(5, 16, dim)):
        s = np.add.reduce(np.abs(x) ** p, axis=-1)
        ref = np.sqrt(s) if p == 2.0 else s ** (1.0 / p)
        assert np.array_equal(_columns(np.add, np.abs(x) ** p), s)
        assert np.array_equal(_lp_norm(x, p), ref)
        assert type(_lp_norm(x, p)) is type(ref)
        x[..., 1:] *= rng.random(x.shape[:-1] + (1,)) < 0.5
        x[..., 0] *= rng.random(x.shape[:-1]) < 0.5
        assert np.array_equal(_columns(np.logical_or, x != 0.0),
                              np.any(x, axis=-1))


def test_zero_norms_raise_and_nan_norms_pass():
    """_nonzero and normalize raise on a zero row, of one point or of rows;
    a NaN norm is not zero, and passes through."""
    for norms in (np.float64(0.0), np.array([1.0, 0.0, 2.0]), np.zeros((2, 2))):
        with pytest.raises(ZeroDirection, match="^a support direction is zero$"):
            _nonzero(norms)
    for v in (np.zeros(3), np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
              np.zeros((1, 3, 3))):
        with pytest.raises(ValueError, match="^cannot normalize the zero vector$"):
            normalize(v)
    nan = np.array([np.nan, 1.0])
    assert _nonzero(nan) is nan and np.isnan(_nonzero(np.float64(np.nan)))
    assert np.isnan(normalize([np.nan, 0.0, 0.0])).all()
    rows = normalize(np.array([[np.nan, 0.0, 0.0], [2.0, 0.0, 0.0]]))
    assert np.isnan(rows[0]).all() and rows[1].tolist() == [1.0, 0.0, 0.0]


def test_pball_generic_boundary_search():
    body = PBall(4.0, (1.0, 1.0, 1.0))
    d = np.array([1.0, 0.5, -0.25])
    x = body.boundary_from_center(d)
    assert np.allclose(x, lp_boundary_on_ray(d, 4.0), atol=1e-12)
    # off-center base goes through the bracketed root find
    z = np.array([0.2, -0.1, 0.3])
    y = body.boundary_point(z, d)
    assert body.gauge(y) == pytest.approx(1.0, abs=1e-10)
    assert float((y - z) @ d) > 0


def test_pball_normal_tangency():
    body = PBall(3.0, (1.0, 2.0, 0.7))
    rng = np.random.default_rng(3)
    for _ in range(5):
        u = _unit(rng)
        x = body.support_point(u)
        n = body.normal_at(x)
        assert np.allclose(n, u, atol=1e-9)


def test_pball_validation():
    with pytest.raises(ValueError):
        PBall(1.0, (1, 1, 1))
    with pytest.raises(ValueError):
        PBall(np.inf, (1, 1, 1))
    with pytest.raises(ValueError):
        PBall(2.0, (1, 0, 1))
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            PBall(2.0, (1, bad, 1))


# ---------------------------------------------------------- other kinds


def test_polytope_support_is_vertex_max():
    rng = np.random.default_rng(4)
    v = rng.uniform(-1, 1, (10, 3))
    body = Polytope(v)
    u = rng.normal(size=3)
    assert body.support(u) == pytest.approx(float((v @ u).max()), rel=1e-12)
    assert np.allclose(body.support_point(u), v[int(np.argmax(v @ u))])
    assert not body.is_smooth
    with pytest.raises(NonSmoothBody):
        body.normal_at(v[0])


def test_polytope_gauge_on_cube():
    cube = Polytope([[sx, sy, sz] for sx in (-1, 1)
                     for sy in (-1, 1) for sz in (-1, 1)])
    assert cube.gauge(np.array([1.0, 1.0, 1.0])) == pytest.approx(1.0, abs=1e-9)
    assert cube.gauge(np.array([0.5, 0.0, 0.0])) == pytest.approx(0.5, abs=1e-9)
    assert cube.contains(np.array([0.9, -0.9, 0.9]))


@given(st.integers(0, 10 ** 6), st.booleans(), st.integers(4, 12))
@settings(max_examples=40)
def test_polytope_facet_gauge_matches_lp(seed, symmetric, k):
    # a +-v hull or a random vertex cloud; points inside and outside it
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(k, 3))
    if symmetric:
        v = np.vstack([v, -v])
    body = Polytope(v)
    for x in body.center + rng.normal(size=(8, 3)) * rng.uniform(0.1, 3.0, (8, 1)):
        want = polytope_gauge_lp(v, x)
        assert abs(body.gauge(x) - want) <= 1e-12 * want


def test_affine_image_support_law():
    rng = np.random.default_rng(5)
    inner = PBall(4.0, (1.0, 1.0, 1.0))
    a = rng.normal(size=(3, 3)) + 2 * np.eye(3)
    b = rng.uniform(-1, 1, 3)
    body = AffineImage(a, b, inner)
    for _ in range(10):
        u = rng.normal(size=3)
        want = inner.support(a.T @ u) + float(b @ u)
        assert body.support(u) == pytest.approx(want, rel=1e-12)
        sp = body.support_point(u)
        assert body.gauge(sp) == pytest.approx(1.0, abs=1e-10)
        assert float(sp @ u) == pytest.approx(body.support(u), rel=1e-10)
    x = body.support_point(np.array([1.0, 0.2, -0.4]))
    n = body.normal_at(x)
    assert body.support(n) == pytest.approx(float(x @ n), abs=1e-10)
    assert body.is_smooth


def test_affine_image_rejects_singular_matrix():
    with pytest.raises(ValueError):
        AffineImage(np.zeros((3, 3)), np.zeros(3), Ellipsoid.ball(1.0))
    with pytest.raises(ValueError):
        AffineImage(np.eye(2), np.zeros(2), Ellipsoid.ball(1.0))
    with pytest.raises(ValueError, match="finite"):
        AffineImage(np.eye(3), np.array([0.0, np.nan, 0.0]),
                    Ellipsoid.ball(1.0))
    with pytest.raises(ValueError, match="finite"):
        Polytope([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, np.inf]])
    with pytest.raises(ValueError, match="do not span"):  # flat
        Polytope([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0.5, 0.2, 0]])


# ------------------------------------------------------------- row oracles


def _row_body(kind, p, affine, seed):
    rng = np.random.default_rng(seed)
    if kind == "ellipsoid":
        body = Ellipsoid(rng.uniform(-0.5, 0.5, 3), _random_spd(rng))
    elif kind == "pball":
        body = PBall(p, rng.uniform(0.5, 2.0, 3))
    else:
        body = Polytope(rng.normal(size=(12, 3)))
    if affine:
        body = AffineImage(*random_affine(seed), body)
    return body


@given(st.sampled_from(["ellipsoid", "pball", "polytope"]), st.floats(1.05, 40.0),
       st.booleans(), st.integers(0, 10 ** 6))
@settings(max_examples=60)
def test_row_oracles_equal_point_calls(kind, p, affine, seed):
    body = _row_body(kind, p, affine, seed)
    rng = np.random.default_rng(seed + 1)
    dirs = rng.normal(size=(2, 4, 3))
    c = body.center

    def agree(oracle, rows):
        batch = np.asarray(oracle(rows)).reshape(8, -1)
        single = np.array([np.atleast_1d(oracle(x)) for x in rows.reshape(8, 3)])
        scale = np.abs(single).max(axis=1, keepdims=True)
        assert np.all(np.abs(batch - single) <= 1e-15 * scale)

    pts = c + 0.3 * dirs
    agree(body.gauge, pts)
    assert type(body.gauge(pts[0, 0])) is float
    agree(body.support, dirs)
    assert type(body.support(dirs[0, 0])) is float
    agree(body.support_point, dirs)
    if kind == "polytope" and not affine:
        assert not np.shares_memory(body.support_point(dirs[0, 0]), body.vertices)
    agree(body.boundary_from_center, dirs)
    agree(lambda d: ray_exit(body, c, d), dirs)
    z = c + 0.4 * (body.boundary_from_center(rng.normal(size=3)) - c)
    agree(lambda d: body.boundary_point(z, d), dirs)
    agree(lambda d: ray_exit(body, z, d), dirs)
    if body.is_smooth:
        agree(body.normal_at, body.boundary_from_center(dirs))
        assert body.normal_at(pts[0, 0]).shape == (3,)


def _exact_row_bodies():
    rng = np.random.default_rng(33)
    e = Ellipsoid(rng.uniform(-0.5, 0.5, 3), _random_spd(rng))
    m, b = random_affine(7)
    return [e, AffineImage(m, b, e),
            AffineImage(m, b, Polytope(rng.normal(size=(12, 3)))),
            AffineImage(m, b, AffineImage(*random_affine(8), e)),
            AffineImage(m.T, b, e)]


@pytest.mark.parametrize("body", _exact_row_bodies(), ids=[
    "ellipsoid", "affine-ellipsoid", "affine-polytope", "affine-affine-image",
    "affine-fortran-matrix"])
def test_matrix_rows_equal_one_point_calls_exactly(body):
    """Ellipsoid and AffineImage apply their matrices to rows as x @ M, M
    C-contiguous, and every row keeps the bits of its one-point call: on 1,
    64 and 12,544 rows (where a BLAS kernel may switch) and on an (S, k, 3)
    stack, for each oracle of the kind. Of the 12,544 rows, the 32 at each
    end and every 5th are compared, every 97th for the two solved oracles.
    A p-ball inner is left out: its own rows already differ from its
    one-point calls in the last bit, numpy's array power against its scalar
    power."""
    rng = np.random.default_rng(12)
    c = body.center
    z = c + 0.05 * rng.normal(size=3)
    oracles = {"support": lambda u, x: body.support(u),
               "support_point": lambda u, x: body.support_point(u),
               "gauge": lambda u, x: body.gauge(x),
               "boundary_point": lambda u, x: body.boundary_point(z, u),
               "line_min_gauge": lambda u, x: body.line_min_gauge(x, u)}
    if body.is_smooth:
        oracles["normal_at"] = lambda u, x: body.normal_at(x)
    for shape in ((1, 3), (64, 3), (12544, 3), (4, 16, 3)):
        u, x = rng.normal(size=shape), c + 0.4 * rng.normal(size=shape)
        flat_u, flat_x = u.reshape(-1, 3), x.reshape(-1, 3)
        for name, oracle in oracles.items():
            rows = oracle(u, x)
            rows = rows if isinstance(rows, tuple) else (rows,)
            k = len(flat_u)
            step = 97 if name in ("boundary_point", "line_min_gauge") else 5
            check = np.arange(k)
            if k > 64:
                check = check[(check < 32) | (check >= k - 32) | (check % step == 0)]
            ones = [oracle(flat_u[i], flat_x[i]) for i in check]
            ones = ones if isinstance(ones[0], tuple) else [(o,) for o in ones]
            for j, got in enumerate(rows):
                got = np.asarray(got).reshape(k, -1)[check]
                want = np.array([np.atleast_1d(o[j]) for o in ones])
                assert np.array_equal(got, want), (name, shape)


def test_ellipsoid_matrix_rows_keep_the_vecmat_bits():
    """support, gauge and boundary_point apply Q and Q^-1 as x @ Q, and equal
    their former np.vecmat formulas bit for bit on 1, 64 and 3,000 rows and
    on each of those 3,000 as one point. The stored Q^-1 is exactly
    symmetric, so support_point's u @ Q^-1 needs no transpose."""
    rng = np.random.default_rng(21)
    body = Ellipsoid(rng.uniform(-0.5, 0.5, 3), _random_spd(rng))
    qinv = body._qinv
    assert np.array_equal(qinv, qinv.T)
    z = body.center + 0.1 * rng.normal(size=3)
    for k in (1, 64, 3000):
        u, x = rng.normal(size=(k, 3)), body.center + rng.normal(size=(k, 3))
        h, g, exit_ = ellipsoid_oracles_by_vecmat(body, u, x, z, u)
        assert np.array_equal(body.support(u), h)
        assert np.array_equal(body.gauge(x), g)
        assert np.array_equal(body.boundary_point(z, u), exit_)
    for ui, xi in zip(u, x):
        hi, gi, exit_i = ellipsoid_oracles_by_vecmat(body, ui, xi, z, ui)
        assert body.support(ui) == hi and body.gauge(xi) == gi
        assert np.array_equal(body.boundary_point(z, ui), exit_i)


@pytest.mark.parametrize("body", [
    Ellipsoid(np.array([0.1, -0.2, 0.05]), np.diag([1.0, 4.0, 9.0])),
    PBall(4.0, (1.0, 1.0, 1.0)),
    Polytope(np.vstack([np.eye(3), -np.eye(3)])),
    AffineImage(*random_affine(4), PBall(3.0, (1.0, 0.8, 1.2))),
], ids=["ellipsoid", "pball", "polytope", "affine-image"])
def test_support_of_a_zero_direction_raises_typed_error(body):
    rows = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    for u in (np.zeros(3), rows, rows.reshape(1, 3, 3)):
        for oracle in (body.support, body.support_point):
            with pytest.raises(ZeroDirection):
                oracle(u)
    # a NaN direction is not zero: it passes through, as before
    assert np.isnan(body.support(np.array([np.nan, 0.0, 0.0])))


@pytest.mark.parametrize("body", [
    Ellipsoid(np.array([0.1, -0.2, 0.05]), _random_spd(np.random.default_rng(6))),
    Polytope(np.random.default_rng(7).normal(size=(14, 3))),
    Polytope([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]),
    AffineImage(*random_affine(5), Ellipsoid(np.zeros(3), np.diag([1.0, 4.0, 9.0]))),
    AffineImage(*random_affine(6), Polytope(np.random.default_rng(8).normal(size=(12, 3)))),
], ids=["ellipsoid", "polytope", "cube", "affine-ellipsoid", "affine-polytope"])
def test_exact_ray_exits_match_the_generic_row_solve(body):
    # the closed-form exits (an affine image's through its inner body's)
    # against ConvexBody's row solve on the gauge, from
    # random interior bases, from bases 1e-6 inside the boundary, and, on a
    # polytope, along the facet nearest such a base (<a_i, d> = 0 rows, to
    # the last bit on the cube's axis-aligned facets)
    rng = np.random.default_rng(9)
    c = body.center
    reach = np.concatenate([rng.uniform(0.0, 0.95, 48), np.full(24, 1.0 - 1e-6)])
    z = c + reach[:, None] * (body.boundary_from_center(rng.normal(size=(72, 3))) - c)
    d = rng.normal(size=(72, 3))
    if isinstance(body, Polytope):
        eq = ConvexHull(body.vertices).equations
        a, b = eq[:, :3], -eq[:, 3] - eq[:, :3] @ c
        facet = a[(np.matvec(a, z[48:] - c) / b).argmax(axis=-1)]
        along = d[48:] - np.vecdot(d[48:], facet)[:, None] * facet
        z, d = np.concatenate([z, z[48:]]), np.concatenate([d, along])
    exact = body.boundary_point(z, d)
    generic = ConvexBody.boundary_point(body, z, d)
    assert np.abs(exact - generic).max() <= 1e-13 * body.diameter()
    for x in (exact, generic):
        assert np.abs(body.gauge(x) - 1.0).max() <= 1e-13
        assert np.all(np.vecdot(x - z, d) > 0.0)


@pytest.mark.parametrize("body", [
    Ellipsoid(np.array([0.1, -0.2, 0.05]), np.diag([1.0, 4.0, 9.0])),
    PBall(4.0, (1.0, 1.0, 1.0)),
    Polytope(np.vstack([np.eye(3), -np.eye(3)])),
    AffineImage(*random_affine(4), PBall(3.0, (1.0, 0.8, 1.2))),
], ids=["ellipsoid", "pball", "polytope", "affine-image"])
def test_ray_exit_failures_are_typed_on_every_kind(body):
    c, d = body.center, np.array([1.0, 0.0, 0.0])
    inside = c + 0.1 * (body.boundary_from_center(d) - c)
    outside = c + 3.0 * body.radius_bound() * d
    for base, dirs in ((np.array([np.nan, 0.0, 0.0]), d),
                       (c, [np.inf, 0.0, 0.0]), (inside, [0.0, np.nan, 0.0]),
                       (np.stack([inside, c + np.nan]), np.stack([d, d]))):
        with pytest.raises(NonFiniteInput):
            ray_exit(body, base, dirs)
        with pytest.raises(NonFiniteInput):
            body.boundary_point(base, dirs)
    for base in (outside, np.stack([inside, outside])):
        with pytest.raises(RayBaseNotInterior):
            ray_exit(body, base, d)
        with pytest.raises(RayBaseNotInterior):
            body.boundary_point(base, d)
    zero = np.zeros(3)
    for base, dirs in ((c, zero), (inside, zero), (c, np.stack([d, zero])),
                       (np.stack([c, inside]), np.stack([zero, d]))):
        with pytest.raises(ZeroDirection):
            ray_exit(body, base, dirs)
        with pytest.raises(ZeroDirection):
            body.boundary_point(base, dirs)
    # through a section chart too
    sec = section(body, Hyperplane(np.array([0.0, 0.0, 1.0]), float(c[2])))
    with pytest.raises(NonFiniteInput):
        sec.boundary2([1.0, 0.0], base2=[np.nan, 0.0])
    with pytest.raises(RayBaseNotInterior):
        sec.boundary2([1.0, 0.0], base2=[3.0 * body.radius_bound(), 0.0])
    for base2 in (None, sec.to_chart(inside)):
        with pytest.raises(ZeroDirection):
            sec.boundary2([0.0, 0.0], base2=base2)
        with pytest.raises(ZeroDirection):
            sec.boundary2([[1.0, 0.0], [0.0, 0.0]], base2=base2)


@pytest.mark.parametrize("body", [
    Ellipsoid(np.array([0.1, -0.2, 0.05]), np.diag([1.0, 4.0, 9.0])),
    PBall(4.0, (1.0, 1.0, 1.0)),
    Polytope(np.vstack([np.eye(3), -np.eye(3)])),
    AffineImage(*random_affine(4), PBall(3.0, (1.0, 0.8, 1.2))),
], ids=["ellipsoid", "pball", "polytope", "affine-image"])
def test_ray_exit_rows_mixing_centre_and_off_centre_bases(body):
    # centre rows take the closed form and the others one boundary_point
    # call, each row equal to its own call to the last bit
    rng = np.random.default_rng(11)
    c = body.center
    z = c + 0.6 * (body.boundary_from_center(rng.normal(size=(6, 3))) - c)
    z[[0, 3, 4]] = c
    d = rng.normal(size=(2, 6, 3))
    rows = ray_exit(body, z, d)
    assert rows.shape == (2, 6, 3)
    for i in range(2):
        for r in range(6):
            assert np.array_equal(rows[i, r], ray_exit(body, z[r], d[i, r]))
    assert np.array_equal(ray_exit(body, z[[0, 3]], d[0, [0, 3]]),
                          body.boundary_from_center(d[0, [0, 3]]))


# --------------------------------------------------------------- symmetry


def test_o_symmetry_residual_centered_bodies(unit_ball, l4_unit):
    assert o_symmetry_residual(unit_ball) < 1e-14
    assert o_symmetry_residual(l4_unit) < 1e-14
    assert is_o_symmetric(l4_unit)


def test_o_symmetry_residual_detects_offset():
    shifted = Ellipsoid(np.array([0.3, 0.0, 0.0]), np.eye(3))
    assert o_symmetry_residual(shifted) > 0.1
    assert not is_o_symmetric(shifted)
    # correct center restores the identity h(u) - h(-u) = 2<c,u>
    assert o_symmetry_residual(shifted, center=shifted.center) < 1e-14


def test_o_symmetry_asymmetric_body():
    simplex = Polytope([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert o_symmetry_residual(simplex, center=simplex.center) > 1e-2


# ------------------------------------------------------------ line meets


def test_line_boundary_points_ellipsoid_quadratic():
    rng = np.random.default_rng(6)
    q = _random_spd(rng)
    c = rng.uniform(-0.5, 0.5, 3)
    body = Ellipsoid(c, q)
    line = Line(c + 0.2 * _unit(rng), _unit(rng))
    a, b = line_boundary_points(body, line)
    for x in (a, b):
        assert body.gauge(x) == pytest.approx(1.0, abs=1e-10)
    # independent route: roots of the quadratic in the line parameter
    v = line.point - c
    d = line.direction
    qa = d @ q @ d
    qb = v @ q @ d
    qc = v @ q @ v - 1.0
    roots = np.sort(np.roots([qa, 2 * qb, qc]).real)
    assert np.allclose(a, line.at(roots[0]), atol=1e-9)
    assert np.allclose(b, line.at(roots[1]), atol=1e-9)
    # from an exterior line point the chord starts at the gauge minimum
    outside = Line(line.point - 3.0 * d, d)
    assert body.gauge(outside.point) > 1.0
    a, b = line_boundary_points(body, outside)
    roots = np.sort(np.roots([qa, 2 * qb - 6.0 * qa, qc - 6.0 * qb + 9.0 * qa]).real)
    assert np.linalg.norm(a - outside.at(roots[0])) <= 1e-12
    assert np.linalg.norm(b - outside.at(roots[1])) <= 1e-12
    assert (a - outside.point) @ d < (b - outside.point) @ d


def test_line_boundary_points_pball_and_miss(l4_unit):
    line = Line(np.array([0.1, 0.2, 0.0]), np.array([1.0, 1.0, 0.5]))
    a, b = line_boundary_points(l4_unit, line)
    for x in (a, b):
        assert l4_unit.gauge(x) == pytest.approx(1.0, abs=1e-9)
    miss = Line(np.array([3.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
    with pytest.raises(LineMissesBody):
        line_boundary_points(l4_unit, miss)
    # through the centre both ends come from the closed-form ray
    a, b = line_boundary_points(l4_unit, Line(np.zeros(3), line.direction))
    assert np.array_equal(a, -b)
    # from an exterior line point the chord starts at the gauge minimum
    d = line.direction
    outside = Line(line.point - 3.0 * d, d)
    assert l4_unit.gauge(outside.point) > 1.0
    a, b = line_boundary_points(l4_unit, outside)
    for x in (a, b):
        assert abs(lp_norm(x, 4.0) - 1.0) <= 1e-12
    assert (a - outside.point) @ d < (b - outside.point) @ d


def test_line_boundary_points_polytope():
    vertices = np.vstack([np.eye(3), -np.eye(3)])
    octahedron = Polytope(vertices)
    d = np.array([1.0, 0.5, -0.25]) / np.linalg.norm([1.0, 0.5, -0.25])
    a, b = line_boundary_points(octahedron, Line(np.zeros(3), d))
    assert np.array_equal(a, -b)
    assert polytope_gauge_lp(vertices, b) == pytest.approx(1.0, abs=1e-12)
    outside = Line(np.array([0.1, 0.2, 0.0]) - 3.0 * d, d)
    assert octahedron.gauge(outside.point) > 1.0
    a, b = line_boundary_points(octahedron, outside)
    for x in (a, b):
        assert abs(polytope_gauge_lp(vertices, x) - 1.0) <= 1e-12
    assert (a - outside.point) @ d < (b - outside.point) @ d
    with pytest.raises(LineMissesBody):
        line_boundary_points(octahedron, Line(np.array([2.0, 0.0, 0.0]), [0.0, 1.0, 0.0]))


def test_line_boundary_points_affine_polytope():
    # an affine image of a polytope takes its line minimum from its inner
    # polytope; the image vertices give an independent LP gauge
    vertices = np.vstack([np.eye(3), -np.eye(3)])
    a_mat = np.array([[1.2, 0.3, -0.1], [0.0, 0.9, 0.4], [0.2, -0.3, 1.1]])
    offset = np.array([0.1, 0.2, -0.1])
    body = AffineImage(a_mat, offset, Polytope(vertices))
    image = vertices @ a_mat.T + offset
    d = np.array([1.0, 0.5, -0.25]) / np.linalg.norm([1.0, 0.5, -0.25])
    outside = Line(offset + np.array([0.1, 0.2, 0.0]) - 3.0 * d, d)
    assert body.gauge(outside.point) > 1.0
    a, b = line_boundary_points(body, outside)
    for x in (a, b):
        assert abs(polytope_gauge_lp(image, x) - 1.0) <= 1e-12
    assert (a - outside.point) @ d < (b - outside.point) @ d
    # the preimage line (2, t, 0) misses the octahedron
    miss = Line(a_mat @ [2.0, 0.0, 0.0] + offset, a_mat @ [0.0, 1.0, 0.0])
    with pytest.raises(LineMissesBody):
        line_boundary_points(body, miss)


def test_line_min_gauge_bracket_holds_a_far_minimiser():
    # the line runs 1000 from a needle of semi-axes (100, 1, 1), and its
    # minimiser lies 5e4 along it from the foot w of the centre: 50 times the
    # restriction solve's first bracket +-(1 + |w|), whose ends double until
    # the slopes change sign
    body = Ellipsoid(np.zeros(3), np.diag(np.array([100.0, 1.0, 1.0]) ** -2.0))
    line = Line([0.0, 1000.0, 0.0], [1.0, 0.01, 0.0])
    t, g = body.line_min_gauge(line.point, line.direction)
    assert isinstance(t, float) and isinstance(g, float)
    # closed form: g(t)^2 = |L (p + t d)|^2 with L = diag(1 / a), quadratic in t
    lp, ld = line.point / [100.0, 1.0, 1.0], line.direction / [100.0, 1.0, 1.0]
    t_min = -(lp @ ld) / (ld @ ld)
    assert t_min == pytest.approx(-50002.5, abs=0.01)
    assert t == pytest.approx(t_min, rel=1e-9)
    assert g == pytest.approx(np.linalg.norm(lp + t_min * ld), rel=1e-14)
    # a line through the centre has its minimum 0 at the foot of the centre
    assert body.line_min_gauge([5.0, 0.0, 0.0], [2.0, 0.0, 0.0]) == (-2.5, 0.0)


_LINE_BODIES = {
    "ellipsoid": lambda: Ellipsoid(np.array([0.2, -0.1, 0.3]),
                                   _random_spd(np.random.default_rng(3))),
    "l4": lambda: PBall(4.0, (1.0, 0.8, 1.2)),
    "p1.3": lambda: PBall(1.3, (1.0, 0.8, 1.2)),
    "affine-l4": lambda: AffineImage(
        np.array([[1.2, 0.3, -0.1], [0.0, 0.9, 0.4], [0.2, -0.3, 1.1]]),
        np.array([0.1, 0.2, -0.1]), PBall(4.0, (1.0, 0.8, 1.2))),
    "octahedron": lambda: Polytope(np.vstack([np.eye(3), -np.eye(3)])),
    "hull-30": lambda: Polytope(np.random.default_rng(4).standard_normal((30, 3))),
}


@pytest.mark.parametrize("name", sorted(_LINE_BODIES))
def test_line_min_gauge_rows_against_scalar_minimisation(name):
    """Every row's minimum is at most the scalar minimiser's, and its g is
    the gauge at its t; one line gives two floats equal to its row."""
    body = _LINE_BODIES[name]()
    rng = np.random.default_rng(5)
    p = body.center + 2.0 * rng.standard_normal((40, 3))
    d = rng.standard_normal((40, 3)) * rng.uniform(0.1, 10.0, (40, 1))
    t, g = body.line_min_gauge(p, d)
    assert t.shape == g.shape == (40,)
    ref = np.array([line_min_gauge_scalar(body, pi, di)[1] for pi, di in zip(p, d)])
    assert np.all(g <= ref + 1e-12 * (1.0 + g))
    assert np.all(np.abs(body.gauge(p + t[:, None] * d) - g) <= 1e-14 * (1.0 + g))
    t0, g0 = body.line_min_gauge(p[0], d[0])
    assert isinstance(t0, float) and isinstance(g0, float)
    assert abs(g0 - g[0]) <= 1e-15 * (1.0 + g0)


def test_line_min_gauge_names_a_failed_row():
    """A row whose restriction solve fails is named by its row in the call,
    the rows through the centre, which take their foot unsolved, counted."""
    class Broken(Ellipsoid):
        def _gauge_gradient(self, x):
            # NaN slopes on the line x_0 = 100: its bracket never closes
            grad = super()._gauge_gradient(x)
            return np.where(x[..., :1] > 50.0, np.nan, grad)

    body = Broken(np.zeros(3), np.eye(3))
    p = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [100.0, 0.0, 0.0]])
    with pytest.raises(NoSignChange, match=r"^restriction solve of the line "
                                           r"minimum at row 2: "):
        body.line_min_gauge(p, [0.0, 1.0, 0.0])
    t, g = body.line_min_gauge(p[:2], [0.0, 1.0, 0.0])
    assert np.array_equal(t, [0.0, 0.0]) and np.array_equal(g, [0.0, 0.5])


def _facet_pair_bodies():
    """(body, the vertices of its hull) for each polytope of the facet-pair
    test: the affine image's hull is that of its mapped vertices, and the
    sphere hull's 196 facets are more than the restriction solve's
    _TIE_STEPS."""
    octahedron = np.vstack([np.eye(3), -np.eye(3)])
    hull = np.random.default_rng(4).standard_normal((30, 3))
    sphere = normalize(np.random.default_rng(6).standard_normal((100, 3)))
    m = np.array([[1.2, 0.3, -0.1], [0.0, 0.9, 0.4], [0.2, -0.3, 1.1]])
    b = np.array([0.1, 0.2, -0.1])
    return {"octahedron": (Polytope(octahedron), octahedron),
            "hull-30": (Polytope(hull), hull),
            "affine-hull-30": (AffineImage(m, b, Polytope(hull)), hull @ m.T + b),
            "sphere-hull-100": (Polytope(sphere), sphere)}


@pytest.mark.parametrize("name", ["octahedron", "hull-30", "affine-hull-30",
                                  "sphere-hull-100"])
def test_line_min_gauge_rows_match_the_facet_pair_closed_form(name):
    """A polytope's line minima, from the tie steps of the polar restriction
    solve, equal the facet-pair closed form's to 1e-14 relative in g: on 40
    lines, one passing 5e-4 from the centre, and on a hull of more facets
    than _TIE_STEPS, since each line settles among the few facets it meets.
    That line's p is its foot of the centre: from a p far along it, p + t d
    alone would round by eps |p - c|, above 1e-14 of its g ~ 1e-3. The
    affine image's gauge runs through A^-1 (x - b), and its reference hull
    through the mapped vertices: their rounding, some 3e-17 on this body,
    is 1e-13 of that g, so its rows get a floor of 1e-16."""
    body, vertices = _facet_pair_bodies()[name]
    if name == "sphere-hull-100":
        assert len(ConvexHull(vertices).equations) > _TIE_STEPS
    rng = np.random.default_rng(8)
    c = body.center
    p = c + 2.0 * rng.standard_normal((40, 3))
    d = rng.standard_normal((40, 3)) * rng.uniform(0.1, 10.0, (40, 1))
    p[0] = c + 5e-4 * normalize(np.cross(d[0], rng.standard_normal(3)))
    t, g = body.line_min_gauge(p, d)
    _, g_ref = line_min_gauge_facet_pairs(vertices, p, d)
    assert 0.0 < g_ref[0] < 1e-2
    floor = 1e-16 if isinstance(body, AffineImage) else 0.0
    assert np.all(np.abs(g - g_ref) <= 1e-14 * g_ref + floor)
    assert np.all(np.abs(body.gauge(p + t[:, None] * d) - g) <= 1e-14 * g)


def test_sphere_directions_beyond_three_dimensions():
    dirs = sphere_directions(4, 64, seed=3)
    assert dirs.shape == (64, 4)
    assert np.abs(np.linalg.norm(dirs, axis=1) - 1.0).max() <= 1e-15
    assert np.array_equal(dirs, sphere_directions(4, 64, seed=3))
    assert not np.array_equal(dirs, sphere_directions(4, 64, seed=4))


# ------------------------------------------------------------- spec files


def _bodies_for_round_trip():
    rng = np.random.default_rng(7)
    inner = PBall(4.0, (0.5, 1.25, 0.8))
    yield Ellipsoid(np.array([0.1, -0.2, 0.3]), _random_spd(rng))
    yield inner
    yield Polytope(rng.uniform(-1, 1, (6, 3)))
    yield AffineImage(rng.normal(size=(3, 3)) + 2 * np.eye(3),
                      np.array([0.3, 0.0, -0.7]), inner)


@pytest.mark.parametrize("body", list(_bodies_for_round_trip()),
                         ids=lambda b: b.kind)
def test_spec_round_trip_is_bit_exact(body):
    text = serialize_body(body)
    again = parse_body(text)
    assert serialize_body(again) == text
    rng = np.random.default_rng(8)
    for _ in range(8):
        u = rng.normal(size=3)
        assert again.support(u) == body.support(u)  # repr round trip is exact


def test_parse_rejects_bad_header():
    with pytest.raises(BodySpecError):
        parse_body("not a body spec\nkind ellipsoid\n")


def test_parse_reports_line_numbers():
    text = serialize_body(Ellipsoid.ball(1.0)).replace("1.0", "1.o", 1)
    with pytest.raises(BodySpecError) as exc:
        parse_body(text)
    assert "line" in str(exc.value)
    text = serialize_body(PBall(4.0, (1.0, 1.0, 1.0)))
    with pytest.raises(BodySpecError) as exc:
        parse_body(text.replace("exponent 4.0", "exponent", 1))
    assert exc.value.line == 4


def test_parse_rejects_unknown_kind():
    text = serialize_body(Ellipsoid.ball(1.0)).replace(
        "kind ellipsoid", "kind banana")
    with pytest.raises(BodySpecError):
        parse_body(text)


@pytest.mark.parametrize("body, field", [
    (PBall(4.0, (1.0, 1.0, 1.0)), "center 0.5 0.0 0.0"),
    (PBall(4.0, (1.0, 1.0, 1.0)), "offset 0.5 0.0 0.0"),
    (Ellipsoid.ball(1.0), "vertex 1.0 0.0 0.0"),
    (Polytope(np.vstack([np.eye(3), -np.eye(3)])), "exponent 2.0"),
], ids=["pball-center", "pball-offset", "ellipsoid-vertex", "polytope-exponent"])
def test_parse_rejects_fields_of_other_kinds(body, field):
    text = serialize_body(body)
    with pytest.raises(BodySpecError, match="takes no field") as exc:
        parse_body(text + field + "\n")
    assert exc.value.line == len(text.splitlines()) + 1


@pytest.mark.parametrize("body, old, new", [
    (Ellipsoid.ball(1.0), "shape-row 1.0", "shape-row -1.0"),  # not PD
    (Ellipsoid.ball(1.0), "center 0.0", "center nan"),
    (Ellipsoid.ball(1.0), "shape-row 1.0", "shape-row inf"),
    (PBall(4.0, (1.0, 1.0, 1.0)), "semi-axes 1.0", "semi-axes inf"),
], ids=["not-pd", "nan-center", "inf-shape", "inf-semi-axis"])
def test_parse_reports_constructor_errors_at_the_kind_line(body, old, new):
    text = serialize_body(body).replace(old, new, 1)
    with pytest.raises(BodySpecError) as exc:
        parse_body(text)
    assert exc.value.line == 2


def test_body_id_is_stable_and_kind_tagged(unit_ball, l4_unit):
    assert unit_ball.body_id() == unit_ball.body_id()
    assert unit_ball.body_id().startswith("ellipsoid:")
    assert l4_unit.body_id().startswith("pball:")
    assert unit_ball.body_id() != Ellipsoid.ball(2.0).body_id()


@pytest.mark.parametrize("body", [
    Ellipsoid(np.array([0.2, -0.1, 0.3]), np.diag([1.0, 4.0, 9.0])),
    PBall(3.0, (1.0, 0.8, 1.2)),
    AffineImage(np.array([[1.2, 0.3, -0.1], [0.0, 0.9, 0.4], [0.2, -0.3, 1.1]]),
                np.array([0.1, 0.2, -0.1]), PBall(3.0, (1.0, 0.8, 1.2))),
    Polytope(np.vstack([np.eye(3), -np.eye(3)])),
], ids=["ellipsoid", "pball", "affine-image", "polytope"])
def test_body_id_is_cached_and_survives_a_round_trip(body):
    """The id is computed once per body; it is the kind and a hash of the
    serialized body, so a parse_body copy has the same id."""
    first = body.body_id()
    assert body.body_id() is first
    text = serialize_body(body)
    fresh = "%s:%s" % (body.kind,
                       hashlib.blake2b(text.encode(), digest_size=4).hexdigest())
    assert first == fresh
    assert parse_body(text).body_id() == first
