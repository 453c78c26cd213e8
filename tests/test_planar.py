"""Section charts, central symmetry, affine/conjugate diameters, Radon verdicts."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ellipsoid_forge import planar
from ellipsoid_forge import (
    AffineImage,
    Ellipsoid,
    Hyperplane,
    PBall,
    Polytope,
    birkhoff_normal,
    central_symmetry,
    affine_diameter_residual,
    is_radon_curve,
    section,
)
from ellipsoid_forge.errors import (
    EndpointNotOnBoundary,
    GeometryError,
    NoSignChange,
    NonFiniteInput,
    NonSmoothBody,
    NotANorm,
    PlaneMissesBody,
    UnsupportedDimension,
)
from ellipsoid_forge.numeric import angle_between, normalize, sphere_directions
from ellipsoid_forge.theorems import RESIDUAL_FLOOR

from conftest import random_affine

from oracles import (
    birkhoff_min_ratio_l1,
    birkhoff_min_ratio_lp,
    ellipsoid_section_center,
    lp_plane_conjugate,
    polytope_section_support_lp,
    radon_three_solves,
    stack_of,
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
    e3 = np.array([0.0, 0.0, 1.0])
    with pytest.raises(PlaneMissesBody):
        section(unit_ball, Hyperplane(e3, 2.0))
    # within the 1e-9 gauge margin of the boundary the plane misses too, and
    # the message shows its reach to the last digit
    with pytest.raises(PlaneMissesBody, match=r"at reach 0\.9999999995$"):
        section(unit_ball, Hyperplane(e3, 1.0 - 5e-10))
    # a stack names the plane that misses
    with pytest.raises(PlaneMissesBody, match=r"^plane 2 misses the interior"):
        stack_of(unit_ball, [Hyperplane(e3, off) for off in (0.5, -0.9, -1.5, 0.0)])


def test_section_origin_from_far_support_point():
    # the centre's projection onto the plane has gauge 3.55, so the section
    # origin is where the plane cuts the segment to the far support point
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


_THIN_AXES = np.array([4.0, 1.0, 0.1])
_THIN_PLANE = Hyperplane.from_point_normal([-2.0, 0.0, 0.0], [1.0, 1.0, 1.0])


@pytest.mark.parametrize("body", [
    Ellipsoid(np.zeros(3), np.diag(_THIN_AXES ** -2.0)),
    Polytope(np.vstack([np.eye(3), -np.eye(3)]) * _THIN_AXES),
], ids=["ellipsoid", "octahedron"])
def test_thin_section_origin_is_interior(body):
    # (-2, 0, 0) lies on the plane with gauge 0.5, but the centre's foot is
    # outside and an in-plane descent stalls along the long axis
    assert body.gauge(np.array([-2.0, 0.0, 0.0])) == pytest.approx(0.5)
    sec = section(body, _THIN_PLANE)
    assert body.gauge(sec.origin) < 1.0
    assert abs(_THIN_PLANE.signed_distance(sec.origin)) < 1e-12
    if isinstance(body, Ellipsoid):
        want = ellipsoid_section_center(body.center, body.shape_matrix,
                                        _THIN_PLANE.normal, _THIN_PLANE.offset)
        got = np.asarray(central_symmetry(sec).center_world)
        assert np.abs(got - want).max() < 1e-12


def _thin_body(kind, rng):
    """A rotated and shifted body with semi-axes between 0.05 and 5."""
    axes = np.exp(rng.uniform(np.log(0.05), np.log(5.0), 3))
    rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    shift = rng.uniform(-1.0, 1.0, 3)
    if kind == "ellipsoid":
        return Ellipsoid(shift, rot @ np.diag(1.0 / axes ** 2) @ rot.T)
    if kind == "pball":
        return AffineImage(rot, shift, PBall(rng.uniform(1.2, 8.0), axes))
    pts = rng.normal(size=(int(rng.integers(6, 16)), 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    return Polytope(pts * axes @ rot.T + shift)


@given(st.sampled_from(["ellipsoid", "pball", "polytope"]),
       st.integers(0, 10 ** 6), st.floats(0.01, 0.99), st.floats(1e-6, 2.0))
@settings(max_examples=300)
def test_section_exists_exactly_when_plane_meets_interior(kind, seed, frac, beyond):
    rng = np.random.default_rng(seed)
    body = _thin_body(kind, rng)
    nrm = rng.normal(size=3)
    nrm /= np.linalg.norm(nrm)
    lo, hi = -body.support(-nrm), body.support(nrm)
    plane = Hyperplane(nrm, lo + frac * (hi - lo))
    sec = section(body, plane)
    assert body.gauge(sec.origin) < 1.0
    assert abs(plane.signed_distance(sec.origin)) <= 1e-12 * (1.0 + body.diameter())
    for offset in (hi + beyond * (hi - lo), lo - beyond * (hi - lo)):
        with pytest.raises(PlaneMissesBody):
            section(body, Hyperplane(nrm, offset))


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


_ROW_BODIES = {
    "ellipsoid": Ellipsoid(np.array([0.1, -0.2, 0.05]), np.diag([1.0, 4.0, 9.0])),
    "l4": PBall(4.0, (1.0, 1.0, 1.0)),
    "octahedron": Polytope(np.vstack([np.eye(3), -np.eye(3)])),
    "affine-image": AffineImage(*random_affine(4), PBall(3.0, (1.0, 0.8, 1.2))),
}


@pytest.mark.parametrize("kind", list(_ROW_BODIES))
@pytest.mark.parametrize("central", [True, False], ids=["central", "off-centre"])
def test_section_rows_equal_one_row_calls(kind, central):
    body = _ROW_BODIES[kind]
    nrm = np.array([1.0, 2.0, -0.5]) / np.linalg.norm([1.0, 2.0, -0.5])
    c = float(nrm @ body.center)
    offset = c if central else c + 0.3 * (body.support(nrm) - c)
    sec = section(body, Hyperplane(nrm, offset))
    rng = np.random.default_rng(7)
    w = rng.normal(size=(2, 3, 2))
    base2 = 0.1 * rng.normal(size=2)

    def agree(oracle, rows):
        batch = oracle(rows)
        single = np.array([oracle(x) for x in rows.reshape(6, -1)])
        assert batch.shape == rows.shape[:-1] + single.shape[1:]
        scale = np.abs(single).reshape(6, -1).max(axis=1)
        gap = np.abs(batch.reshape(single.shape) - single).reshape(6, -1)
        assert np.all(gap.max(axis=1) <= 1e-15 * scale)

    agree(sec.support2, w)
    agree(sec.support_point2, w)
    if kind == "octahedron":
        # z = 0 holds four vertices: each support point is a vertex on the
        # plane, so both sides of the kink give the same point
        flat = section(body, Hyperplane(np.array([0.0, 0.0, 1.0]), 0.0))
        agree(flat.support_point2, w)
    agree(sec.boundary2, w)
    agree(lambda d: sec.boundary2(d, base2=base2), w)
    steps = 0.5 * sec.boundary2(w)
    steps[0, 0] = 0.0  # a zero step has gauge 0
    agree(sec.gauge2, steps)
    agree(lambda p: sec.gauge2(p, base2=base2), steps)
    assert sec.gauge2(steps)[0, 0] == 0.0
    if body.is_smooth:
        agree(sec.normal2_at, sec.boundary2(w))
    agree(sec.to_world, w)
    agree(sec.to_chart, sec.to_world(w) + 0.1 * nrm)
    assert type(sec.support2(w[0, 0])) is float
    assert type(sec.gauge2(w[0, 0])) is float


@pytest.mark.parametrize("kind", list(_ROW_BODIES))
def test_section_stack_equals_one_section_builds(kind):
    """One build of S planes equals S section() builds bit for bit: origin,
    basis, width after central_symmetry, and a row of support2 and of
    boundary2 through the stack's row oracles. Half the planes sit at 0.97
    of the way from the centre to the support plane, where on l4 and the
    affine p = 3 ball some centre feet lie outside the body."""
    body = _ROW_BODIES[kind]
    rng = np.random.default_rng(12)
    normals = sphere_directions(3, 8, seed=4)
    c = normals @ body.center
    reach = np.concatenate([rng.uniform(-0.6, 0.6, 4), [0.97, -0.97, 0.97, -0.97]])
    h = np.where(reach >= 0.0, body.support(normals), -body.support(-normals))
    planes = [Hyperplane(n, off) for n, off in zip(normals, c + np.abs(reach) * (h - c))]
    if kind in ("l4", "affine-image"):
        feet = body.center - (c - (c + np.abs(reach) * (h - c)))[:, None] * normals
        assert (body.gauge(feet) >= 1.0).any()
    secs = stack_of(body, planes)
    w = rng.normal(size=(len(planes), 1, 2))
    syms = central_symmetry(secs, m=24)
    values = planar._Restriction(secs, w).values()
    ends = planar._boundary2(secs, w)
    for i, plane in enumerate(planes):
        one = section(body, plane)
        assert np.array_equal(one.origin, secs.origins[i])
        assert np.array_equal(one.basis, secs.bases[i])
        sym = central_symmetry(one, m=24)
        assert np.array_equal(sym.center_world, syms[i].center_world)
        assert one.diameter2() == secs.widths[i]
        assert one.support2(w[i, 0]) == values[i, 0]
        assert np.array_equal(one.boundary2(w[i, 0]), ends[i, 0])


@pytest.mark.parametrize("kind", list(_ROW_BODIES))
@pytest.mark.parametrize("central", [True, False], ids=["central", "off-centre"])
def test_restriction_solve_over_many_rows(kind, central):
    """One restriction solve over 40 rows gives each row's one-row answer, a
    boundary support point p with <p, w> = support2(w), and names a failing
    row."""
    body = _ROW_BODIES[kind]
    nrm = np.array([0.3, -1.0, 0.6]) / np.linalg.norm([0.3, -1.0, 0.6])
    c = float(nrm @ body.center)
    offset = c if central else c - 0.4 * (body.support(-nrm) + c)
    sec = section(body, Hyperplane(nrm, offset))
    w = np.random.default_rng(11).normal(size=(40, 2))
    tol = 1e-12 * sec.diameter2()
    h, p = sec.support2(w), sec.support_point2(w)
    assert h.shape == (40,) and p.shape == (40, 2)
    assert np.abs(h - [sec.support2(x) for x in w]).max() <= tol
    assert np.abs(p - [sec.support_point2(x) for x in w]).max() <= tol
    assert np.abs(np.vecdot(p, w) - h).max() <= tol
    assert np.abs(sec.gauge2(p) - 1.0).max() <= 1e-9
    bad = w.copy()
    bad[17] = np.nan
    for oracle in (sec.support2, sec.support_point2):
        with pytest.raises(GeometryError, match="row 17:"):
            oracle(bad)


def _spy_restriction_solves(monkeypatch, seeded=True):
    """Log each find_root call of planar as (f_init, f at the bracket ends
    s = 0 and 1, every s the objective then runs at); seeded=False drops
    f_init, so that the solve evaluates its ends itself."""
    log, real = [], planar.find_root

    def spied(f, init, *args, f_init=None, **kwargs):
        rows = np.arange(len(init[0]))
        ends = (f(init[0], rows), f(init[1], rows))
        seen = []

        def objective(s, r):
            seen.append(s.copy())
            return f(s, r)
        log.append((f_init, ends, seen))
        return real(objective, init, *args,
                    f_init=f_init if seeded else None, **kwargs)
    monkeypatch.setattr(planar, "find_root", spied)
    return log


@pytest.mark.parametrize("kind", ["ellipsoid", "l4", "affine-ball"])
def test_smooth_restriction_solves_start_from_their_bracket_slopes(monkeypatch,
                                                                   kind):
    """A smooth body's restriction solve hands find_root the slopes its
    bracket search found, equal bit for bit to the objective at s = 0 and
    1, and the objective never runs there."""
    body = (AffineImage(*random_affine(3), Ellipsoid.ball(1.0))
            if kind == "affine-ball" else _ROW_BODIES[kind])
    log = _spy_restriction_solves(monkeypatch)
    planar._Restriction(_row_sections(body),
                        np.random.default_rng(5).normal(size=(3, 40, 2)))
    ((f_init, ends, seen),) = log
    assert all(np.array_equal(a, b) for a, b in zip(f_init, ends))
    s = np.concatenate(seen)
    assert s.size and not np.any((s == 0.0) | (s == 1.0))


def test_doubled_restriction_brackets_equal_the_unseeded_solve(monkeypatch):
    """Rows whose minimiser lies beyond +-(1 + |w|) double their bracket,
    and some of them then have lo + 1.0 * width round off the upper end:
    the seeded slopes still equal the objective at s = 0 and 1, and the
    values and points equal those of a solve that evaluates its own ends,
    bit for bit. The body is a needle tilted 80 degrees from the planes'
    normal, so its minimisers sit at t near -tan(80 deg) |w|."""
    th = np.radians(80.0)
    axis = np.array([np.sin(th), 0.0, np.cos(th)])
    frame = np.column_stack([axis, [0.0, 1.0, 0.0], np.cross(axis, [0.0, 1.0, 0.0])])
    body = Ellipsoid(np.zeros(3), frame @ np.diag([1 / 16.0, 25.0, 25.0]) @ frame.T)
    secs = stack_of(body, [Hyperplane(np.array([0.0, 0.0, 1.0]), off)
                           for off in (0.0, 0.3)])
    w2 = np.random.default_rng(3).normal(size=(2, 64, 2))
    log = _spy_restriction_solves(monkeypatch)
    seeded = planar._Restriction(secs, w2)
    ((f_init, ends, _),) = log
    assert all(np.array_equal(a, b) for a, b in zip(f_init, ends))
    world = seeded.world
    assert np.any(np.abs(seeded.t) > 1.0 + np.sqrt(np.vecdot(world, world)))
    monkeypatch.undo()
    _spy_restriction_solves(monkeypatch, seeded=False)
    unseeded = planar._Restriction(secs, w2)
    assert np.array_equal(seeded.values(), unseeded.values())
    assert np.array_equal(seeded.points(), unseeded.points())


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


def _row_planes(body):
    """Three planes through body: a central plane and two off-centre ones."""
    planes = []
    for nrm, reach in (((1.0, 2.0, -0.5), 0.0), ((0.3, -1.0, 0.8), 0.4),
                       ((-0.7, 0.2, 1.0), -0.25)):
        nrm = np.array(nrm) / np.linalg.norm(nrm)
        c = float(nrm @ body.center)
        h = body.support(nrm) if reach >= 0.0 else -body.support(-nrm)
        planes.append(Hyperplane(nrm, c + abs(reach) * (h - c)))
    return planes


def _row_sections(body):
    """The sections of body by _row_planes, as one stack."""
    return stack_of(body, _row_planes(body))


@pytest.mark.parametrize("kind", list(_ROW_BODIES))
def test_central_symmetry_list_equals_one_section_calls(kind):
    """A stack's symmetry results and widths equal those of one section()
    at a time, bit for bit."""
    body = _ROW_BODIES[kind]
    singles = [central_symmetry(section(body, pl), m=24) for pl in _row_planes(body)]
    single_diameters = [section(body, pl).diameter2() for pl in _row_planes(body)]
    secs = _row_sections(body)
    secs[1].diameter2()  # a cached section adds no width rows to the solve
    batched = central_symmetry(secs, m=24)
    assert len(batched) == 3
    for one, many, sec, diameter in zip(singles, batched, secs, single_diameters):
        assert np.array_equal(one.center, many.center)
        assert np.array_equal(one.center_world, many.center_world)
        assert one.residual == many.residual
        assert one.ok == many.ok
        assert sec.diameter2() == diameter


def test_central_symmetry_one_solve_and_width_rows_only_when_uncached(
        solves, ellipsoid149):
    secs = _row_sections(ellipsoid149)
    secs[0].diameter2()
    solves.clear()
    central_symmetry(secs, m=24)
    # two uncached sections: the 32 width rows join every section's rows
    assert solves == [("planar", 3 * (48 + 32))]
    solves.clear()
    central_symmetry(secs, m=24)
    assert solves == [("planar", 3 * 48)]
    solves.clear()
    assert central_symmetry(secs[:0], m=24) == []
    assert solves == []


def test_batched_restriction_failure_names_section_and_row(ellipsoid149):
    secs = _row_sections(ellipsoid149)
    good = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    bad = np.array([[1.0, 0.0], [np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(GeometryError,
                       match=r"restriction solve at section 2, row 1: "):
        planar._Restriction(secs, np.stack([good, good, bad]))
    # one section keeps its flat row index
    with pytest.raises(NoSignChange, match=r"restriction solve at row 1: "):
        secs[2].support2(bad)


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


def test_affine_diameter_rows_equal_chord_calls(l4_unit):
    # off-centre chords of an l4 section: one angle per row, each equal to
    # its own call, from one gauge2 and one normal2_at call
    sec = section(l4_unit, Hyperplane(normalize(np.array([0.2, -0.3, 1.0])), 0.15))
    base2 = np.array([0.1, -0.2])
    th = np.linspace(0.0, np.pi, 7, endpoint=False)
    u2 = np.column_stack([np.cos(th), np.sin(th)])
    a2, b2 = sec.boundary2(u2, base2=base2), sec.boundary2(-u2, base2=base2)
    rows = affine_diameter_residual(sec, a2, b2)
    assert rows.shape == (7,) and rows.max() > 1e-2
    for r in range(7):
        assert rows[r] == affine_diameter_residual(sec, a2[r], b2[r])
    b2[4] *= 0.9
    with pytest.raises(EndpointNotOnBoundary, match="at row 4$"):
        affine_diameter_residual(sec, a2, b2)


def test_angle_between_rows_equal_pair_calls():
    rng = np.random.default_rng(3)
    u, v = rng.normal(size=(2, 50, 3))
    v[0] = u[0]
    v[1] = -2.0 * u[1]
    rows = angle_between(u, v)
    assert rows[0] == 0.0 and rows[1] == np.pi
    assert all(rows[r] == angle_between(u[r], v[r]) for r in range(50))
    assert isinstance(angle_between(u[2], v[2]), float)


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


def test_birkhoff_rows_equal_one_row_calls(l4_central_section):
    sec = l4_central_section
    rng = np.random.default_rng(8)
    x, y = rng.standard_normal((6, 2)), rng.standard_normal((6, 2))
    both = birkhoff_normal(sec, x, y, center=np.zeros(2))
    assert both.ok.shape == both.min_ratio.shape == (6,)
    for j in range(6):
        one = birkhoff_normal(sec, x[j], y[j], center=np.zeros(2))
        assert type(one.ok) is bool and type(one.min_ratio) is float
        assert one.ok == both.ok[j]
        assert abs(one.min_ratio - both.min_ratio[j]) <= 1e-14
    y[4] = 0.0
    with pytest.raises(ValueError, match="nonzero vectors at row 4"):
        birkhoff_normal(sec, x, y, center=np.zeros(2))


def test_degenerate_chord_rejected(unit_ball):
    sec = section(unit_ball, Hyperplane(np.array([0.0, 0.0, 1.0]), 0.0))
    a2 = sec.boundary2(_dir2(0.1))
    with pytest.raises(ValueError, match="degenerate chord$"):
        planar._chords(a2, a2, sec.diameter2(), lambda r: "")


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


def test_birkhoff_octahedron_section_is_exact_l1():
    """The octahedron's central sections carry the l1 norm of world
    coordinates, whose line minimum sits at a kink; the duality form finds it
    to rounding."""
    octahedron = Polytope(np.vstack([np.eye(3), -np.eye(3)]))
    nrm = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)
    sec = section(octahedron, Hyperplane(nrm, 0.0))
    rng = np.random.default_rng(5)
    for _ in range(200):
        x, y = rng.standard_normal(2), rng.standard_normal(2)
        got = birkhoff_normal(sec, x, y, center=np.zeros(2)).min_ratio
        want = birkhoff_min_ratio_l1(sec.basis.T @ x, sec.basis.T @ y)
        assert got == pytest.approx(want, abs=1e-11)


def test_birkhoff_tilted_off_centre_ellipse_section(ellipsoid149):
    """An off-centre section of diag(1, 4, 9) is the ellipse
    s^T A s <= 1 about its centre c2 != 0, A = B Q B^T / (1 - x0^T Q x0); the
    line minimum is sqrt(x^T A x - (x^T A y)^2 / y^T A y)."""
    q = ellipsoid149.shape_matrix
    nrm = np.array([1.0, 1.0, 2.0]) / np.sqrt(6.0)
    sec = section(ellipsoid149, Hyperplane(nrm, 0.2))
    x0 = ellipsoid_section_center(np.zeros(3), q, nrm, 0.2)
    c2 = sec.to_chart(x0)
    assert np.linalg.norm(c2) > 0.05
    a = sec.basis @ q @ sec.basis.T / (1.0 - x0 @ q @ x0)
    rng = np.random.default_rng(6)
    for _ in range(200):
        x, y = rng.standard_normal(2), rng.standard_normal(2)
        got = birkhoff_normal(sec, x, y, center=c2).min_ratio
        want = np.sqrt(x @ a @ x - (x @ a @ y) ** 2 / (y @ a @ y)) / np.sqrt(x @ a @ x)
        assert got == pytest.approx(want, abs=1e-11)


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


@pytest.mark.parametrize("k, cross_pairs, pairs", [
    (100, 16, 16), (20, 16, 16), (8, 16, 8), (128, 16, 16), (16, 1, 1)])
def test_radon_runs_min_k_cross_pairs_birkhoff_pairs(solves, k, cross_pairs,
                                                     pairs):
    """Each section adds its 2k conjugate contacts and its `pairs` Birkhoff
    y points to the norm gate's symmetry solve, and its 2k closure sides and
    2 * pairs Birkhoff normals (each pair both ways) to the support2 solve."""
    body = Ellipsoid(np.zeros(3), np.diag(np.array([1.0, 2.0, 3.0]) ** -2.0))
    cut = lambda: stack_of(body, [Hyperplane(normalize(np.array(nrm)), 0.0) for nrm
                                  in ([0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 1.0])])
    for sec in cut():
        solves.clear()
        assert is_radon_curve(sec, k=k, cross_pairs=cross_pairs).ok
        # the norm gate's 2 x 96 symmetry rows and 32 width rows
        assert solves.rows("planar") == [2 * 96 + 32 + 2 * k + pairs, 2 * k + 2 * pairs]
    solves.clear()
    assert all(rr.ok for rr in is_radon_curve(cut(), k=k, cross_pairs=cross_pairs))
    assert solves.rows("planar") == [3 * (2 * 96 + 32 + 2 * k + pairs),
                                     3 * (2 * k + 2 * pairs)]


def test_radon_section_calls_do_not_grow_with_k(monkeypatch):
    """The k diameters and the Birkhoff pairs of every section are rows of
    two restriction solves and two ray exits, whatever k and however many
    sections: the section oracles are not called one section at a time."""
    calls = []
    for name in ("support2", "support_point2", "boundary2", "gauge2"):
        real = getattr(planar.PlanarSection, name)
        monkeypatch.setattr(planar.PlanarSection, name,
                            lambda self, *a, _real=real, _name=name:
                            calls.append(_name) or _real(self, *a))
    for name in ("find_root", "ray_exit"):
        real = getattr(planar, name)
        monkeypatch.setattr(planar, name, lambda *a, _real=real, _name=name, **kw:
                            calls.append(_name) or _real(*a, **kw))
    body = PBall(4.0, (1.0, 1.0, 1.0))

    def counts(k, planes):
        secs = stack_of(body, [Hyperplane(nrm, 0.0)
                               for nrm in sphere_directions(3, planes, seed=1)])
        calls.clear()
        results = is_radon_curve(secs if planes > 1 else secs[0], k=k)
        assert not any(rr.ok for rr in np.atleast_1d(results))
        return sorted(calls)

    # one solve each: the norm gate's symmetry fit with the width rows, the
    # conjugate contacts and the Birkhoff pairs' y, and the closure sides
    # with the Birkhoff normals; one ray exit for the diameters' ends and
    # one for the Birkhoff gauges
    want = ["find_root"] * 2 + ["ray_exit"] * 2
    assert counts(16, 1) == counts(128, 1) == want
    assert counts(16, 4) == counts(128, 6) == want


def _radon_or_none(sec, **kw):
    try:
        return is_radon_curve(sec, **kw)
    except NotANorm:
        return None


@pytest.mark.parametrize("kind", list(_ROW_BODIES))
def test_radon_list_equals_one_section_calls(kind):
    """A stack's verdicts equal those of one section() at a time, and its
    residuals agree within the report's residual floor; a section that
    fails the norm gate (NotANorm alone) is None in the list."""
    body = _ROW_BODIES[kind]
    singles = [_radon_or_none(section(body, pl), k=24, seed=3)
               for pl in _row_planes(body)]
    batched = is_radon_curve(_row_sections(body), k=24, seed=3)
    assert len(batched) == 3
    assert singles[0] is not None  # the central section is a norm's ball
    for one, many in zip(singles, batched):
        assert (one is None) == (many is None)
        if one is None:
            continue
        assert (one.ok, one.conjugacy_ok, one.normality_ok) == (
            many.ok, many.conjugacy_ok, many.normality_ok)
        assert abs(one.worst_defect - many.worst_defect) <= RESIDUAL_FLOOR
        assert abs(one.worst_asymmetry - many.worst_asymmetry) <= RESIDUAL_FLOOR
        assert np.array_equal(one.center, many.center)
        assert one.detail == many.detail
    (alone,) = is_radon_curve(_row_sections(body)[:1], k=24, seed=3)
    assert alone.worst_defect == singles[0].worst_defect


def test_radon_list_keeps_a_slot_for_an_asymmetric_section(l4_unit):
    nrm = normalize(np.array([-0.4, 0.0, 1.0]))
    tilted = Hyperplane(nrm, 0.3 * nrm[2])
    central = Hyperplane(np.array([0.0, 0.0, 1.0]), 0.0)
    with pytest.raises(NotANorm, match="section symmetry residual"):
        is_radon_curve(section(l4_unit, tilted), k=16)
    secs = stack_of(l4_unit, [tilted, central, tilted])
    first, second, third = is_radon_curve(secs, k=16)
    assert first is None and third is None
    assert not second.ok and second.worst_defect > 0.05
    assert is_radon_curve(secs[:1], k=16) == [None]
    assert is_radon_curve(secs[:0], k=16) == []


def _central_planes(body, count):
    return [Hyperplane.from_point_normal(body.center, nrm)
            for nrm in sphere_directions(3, count, seed=0)]


def _central_sections(body, count):
    return stack_of(body, _central_planes(body, count))


def _radon_reference_sections(case):
    """Fresh sections for one case of the two-solve reference test, so that
    no diameter2 is cached between the two routes."""
    l4 = PBall(4.0, (1.0, 1.0, 1.0))
    if case == "ellipsoid-off-centre":
        return _row_sections(_ROW_BODIES["ellipsoid"])[1:]
    if case == "l4":
        # in the z = 0 plane every restriction row's minimiser has a zero
        # coordinate, where the support map of l4 has unbounded slope
        return stack_of(l4, _central_planes(l4, 6) + [
            Hyperplane(np.array([0.0, 0.0, 1.0]), 0.0)])
    if case == "octahedron":
        return _central_sections(Polytope(np.vstack([np.eye(3), -np.eye(3)])), 3)
    if case == "affine-l3":
        return _central_sections(
            AffineImage(*random_affine(5), PBall(3.0, (1.0, 0.8, 1.2))), 3)
    nrm = normalize(np.array([-0.4, 0.0, 1.0]))
    tilted = Hyperplane(nrm, 0.3 * nrm[2])
    return stack_of(l4, [tilted, Hyperplane(np.array([0.0, 0.0, 1.0]), 0.0), tilted])


def _reference_or_none(sec, **kw):
    try:
        return radon_three_solves(sec, **kw)
    except NotANorm:
        return None


def _assert_radon_agrees(got, want):
    assert (got is None) == (want is None)
    if got is None:
        return
    assert (got.ok, got.conjugacy_ok, got.normality_ok) == (
        want.ok, want.conjugacy_ok, want.normality_ok)
    assert np.array_equal(got.center, want.center)
    assert abs(got.worst_defect - want.worst_defect) <= 1e-14
    assert abs(got.worst_asymmetry - want.worst_asymmetry) <= 1e-14
    assert got.detail == want.detail


@pytest.mark.parametrize("case", ["ellipsoid-off-centre", "l4", "octahedron",
                                  "affine-l3", "asymmetric-slot"])
def test_radon_two_solves_equal_three_solve_reference(case):
    """is_radon_curve takes each diameter's conjugate contacts at
    +-rot90(u) in the norm gate's symmetry solve; the three-solve reference
    takes them after the diameters' ray exits, at the normals of the chords
    those ends span. The two agree on every flag and centre bit for bit,
    and on every defect and asymmetry within 1e-14, as a list (an
    asymmetric section keeps its None slot) and one section at a time."""
    kw = dict(k=64, seed=2)
    got = is_radon_curve(_radon_reference_sections(case), **kw)
    want = radon_three_solves(_radon_reference_sections(case), **kw)
    assert len(got) == len(want)
    for one_got, one_want in zip(got, want):
        _assert_radon_agrees(one_got, one_want)
    assert any(one is not None for one in got)
    if case == "asymmetric-slot":
        assert got[0] is None and got[2] is None and got[1] is not None
    for sec_got, sec_want in zip(_radon_reference_sections(case),
                                 _radon_reference_sections(case)):
        _assert_radon_agrees(_radon_or_none(sec_got, **kw),
                             _reference_or_none(sec_want, **kw))


@pytest.mark.parametrize("case", ["ellipsoid-off-centre", "l4", "octahedron"])
def test_radon_joined_rows_equal_a_restriction_of_their_own(monkeypatch, case):
    """is_radon_curve joins each section's conjugate contacts and Birkhoff
    second vectors to the norm gate's symmetry solve as shared rows, and
    reads them at the end of the stack: they equal a _Restriction of their
    own on the same rows bit for bit."""
    joined, real = [], planar._central_symmetry

    def recorded(secs, *args, rows, **kwargs):
        results, solve = real(secs, *args, rows=rows, **kwargs)
        joined.append((secs, rows, solve))
        return results, solve
    monkeypatch.setattr(planar, "_central_symmetry", recorded)
    is_radon_curve(_radon_reference_sections(case), k=16, cross_pairs=4)
    ((secs, rows, solve),) = joined
    assert rows.shape == (2 * 16 + 4, 2)
    own = planar._Restriction(secs, np.broadcast_to(rows, (len(secs),) + rows.shape))
    assert np.array_equal(solve.points(slice(-len(rows), None)), own.points())


def _seeded_sections(case):
    """Sections of one smooth body for the seeded-solve tests."""
    if case == "ellipsoid-off-centre":
        return _row_sections(Ellipsoid(np.zeros(3), np.diag([1.0, 4.0, 9.0])))[1:2]
    if case in ("l4", "affine-l3"):
        return _radon_reference_sections(case)
    return _central_sections(PBall(1.5, (1.0, 0.8, 1.2)), 3)


def _second_solve(monkeypatch, secs, **kw):
    """is_radon_curve's seeded restriction solve on secs: its sections, rows
    and guess."""
    seeded, real = [], planar._Restriction

    def logged(secs, w2, guess=None):
        if guess is not None:
            seeded.append((secs, w2, guess))
        return real(secs, w2, guess)
    monkeypatch.setattr(planar, "_Restriction", logged)
    is_radon_curve(secs, **kw)
    monkeypatch.undo()
    ((secs, w2, guess),) = seeded
    return secs, w2, guess


def _assert_same_solve(got, want, w2, lipschitz):
    """Both solves find each minimiser to 5e-14 of the cold width
    2 (1 + |w|), so their t differ by at most twice that; their values
    agree within the residual floor, and so do their support points within
    1e-12 where the body's support map is Lipschitz. An lp ball's with
    p > 2 has unbounded slope at a zero coordinate: a row whose minimiser
    sits there moves its point by about 1e-5 for a 1e-13 move of t, in
    either solve."""
    cold = 2.0 * (1.0 + np.sqrt(np.vecdot(w2, w2)))
    assert np.all(np.abs(got.t - want.t) <= 1e-13 * cold)
    assert np.abs(got.values() - want.values()).max() <= RESIDUAL_FLOOR
    if lipschitz:
        assert np.abs(got.points() - want.points()).max() <= 1e-12


@pytest.mark.parametrize("case", ["ellipsoid-off-centre", "l4", "affine-l3",
                                  "pball-1.5"])
def test_seeded_restriction_equals_the_cold_solve(monkeypatch, case):
    """is_radon_curve seeds its second restriction solve on a smooth body
    from the minimisers of its first, and the seeded solve equals the cold
    one (see _assert_same_solve). A guess off by half the cold width, up on
    even rows and down on odd ones, sends every row to a one-sided
    fallback: the warm end on the far side of the minimiser is kept, the
    cold end on the near side doubled as needed, and the result is the
    same."""
    secs, w2, guess = _second_solve(monkeypatch, _seeded_sections(case),
                                           k=64, seed=2)
    assert guess.shape == w2.shape[:-1]
    lipschitz = case in ("ellipsoid-off-centre", "pball-1.5")
    cold = planar._Restriction(secs, w2)
    _assert_same_solve(planar._Restriction(secs, w2, guess), cold, w2,
                       lipschitz)
    half = 0.5 * (1.0 + np.sqrt(np.vecdot(w2, w2)))
    flip = np.where(np.arange(w2.shape[1]) % 2, -half, half)
    _assert_same_solve(planar._Restriction(secs, w2, guess + flip), cold,
                       w2, lipschitz)


def _second_solve_nit(monkeypatch, sec, seeded):
    """Max nit of each find_root call of is_radon_curve(sec); seeded=False
    leaves the second solve cold."""
    nits, real = [], planar.find_root

    def counted(*args, **kwargs):
        sol = real(*args, **kwargs)
        nits.append(int(sol.nit.max()))
        return sol
    monkeypatch.setattr(planar, "find_root", counted)
    if not seeded:
        monkeypatch.setattr(planar._Restriction, "predict", lambda *a: None)
    is_radon_curve(sec)
    monkeypatch.undo()
    return nits


def test_seeded_second_solve_stops_within_five_steps(monkeypatch, ellipsoid149):
    """On a central section of e149 the seeded second solve's slowest row
    stops within 5 iterations; cold, it takes 8 to 10."""
    sec = section(ellipsoid149, Hyperplane(normalize(np.array([0.3, -0.5, 0.8])), 0.0))
    (_, seeded), (_, cold) = (_second_solve_nit(monkeypatch, sec, flag)
                              for flag in (True, False))
    assert seeded <= 5 and 8 <= cold <= 10


def test_polytope_sections_are_never_seeded(monkeypatch):
    """A polytope's restriction rows settle in tie steps: is_radon_curve
    never predicts them, and their solves take no guess."""
    guesses, real = [], planar._Restriction

    class Logged(real):
        def __init__(self, secs, w2, guess=None):
            guesses.append(guess)
            super().__init__(secs, w2, guess)

        def predict(self, sel, w2):
            raise AssertionError("predict called on a polytope section")
    monkeypatch.setattr(planar, "_Restriction", Logged)
    results = is_radon_curve(_radon_reference_sections("octahedron"), k=32)
    assert len(results) == 3 and guesses == [None, None]


def test_batched_support_point_failure_names_section_and_row(ellipsoid149):
    secs = _row_sections(ellipsoid149)
    good = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    bad = np.array([[1.0, 0.0], [0.0, 1.0], [np.nan, 1.0]])
    with pytest.raises(NoSignChange,
                       match=r"restriction solve at section 1, row 2: "):
        planar._Restriction(secs, np.stack([good, bad, good]))


def test_batched_ray_exit_failure_names_section_and_row(ellipsoid149):
    secs = _row_sections(ellipsoid149)
    d2 = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [np.nan, 0.0]],
                   [[0.0, 1.0], [1.0, 0.0]]])
    with pytest.raises(NonFiniteInput,
                       match=r"^ray exit at section 1, row 1: ray base point "):
        planar._boundary2(secs, d2, np.zeros((3, 2, 2)))
    with pytest.raises(NonFiniteInput, match=r"^ray exit at section 1, row 1: "):
        planar._gauge2(secs, d2, np.zeros((3, 1, 2)))
    # a part of a stack keeps the sections' names, as is_radon_curve's live
    # sections do
    with pytest.raises(NonFiniteInput, match=r"^ray exit at section 1, row 1: "):
        planar._boundary2(secs[[2, 1]], d2[[2, 1]])
    # one section keeps the ray exit's own message
    with pytest.raises(NonFiniteInput, match=r"^ray base point"):
        secs[1].boundary2(d2[1])


def test_batched_row_checks_name_section_and_row():
    # a stack of the rows of sections 0 and 2 of a stack of three
    secs = _row_sections(_ROW_BODIES["ellipsoid"])
    part = secs[np.array([True, False, True])]
    a2 = np.array([[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 0.5]]])
    b2 = -a2
    b2[1, 1] = a2[1, 1]
    with pytest.raises(ValueError, match=r"degenerate chord at section 2, row 1$"):
        planar._chords(a2, b2, 1.0, planar._where(a2, part))
    x = np.ones((2, 2, 2))
    y = x.copy()
    y[1, 0] = 0.0
    with pytest.raises(ValueError, match=r"nonzero vectors at section 2, row 0$"):
        planar._birkhoff_normals(x, y, np.ones((2, 2)), planar._where(x, part))
    # in the stack it was built as, section i is section i
    with pytest.raises(ValueError, match=r"nonzero vectors at section 1, row 0$"):
        planar._birkhoff_normals(x, y, np.ones((2, 2)), planar._where(x, secs[:2]))


def test_section_stack_needs_one_block_per_section(ellipsoid149):
    """The rows of S sections are a stack of shape (S, ..., 2): flat rows,
    or a stack with another leading axis, raise ValueError."""
    secs = _row_sections(ellipsoid149)
    w2 = np.array([[1.0, 0.0], [0.0, 1.0]])
    for rows in (w2, np.stack([w2, w2]), np.stack([w2] * 4), np.ones(2)):
        for oracle in (planar._Restriction, planar._boundary2, planar._gauge2):
            with pytest.raises(ValueError, match="rows of 3 sections need a stack"):
                oracle(secs, rows)
    assert planar._Restriction(secs, np.stack([w2] * 3)).values().shape == (3, 2)


def test_support2_without_a_sign_change_raises_typed_error():
    sec = section(Ellipsoid.ball(1.0), Hyperplane(np.array([0, 0, 1.0]), 0.2))
    with pytest.raises(NoSignChange):
        sec.support2([np.nan, 0.0])


def _lp_polytopes():
    """(body, its vertices) for an octahedron, a rotated box, a hull of +-v
    and an affine image of a polytope."""
    rng = np.random.default_rng(21)
    rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    box = np.array([[x, y, z] for x in (-1.0, 1.0) for y in (-0.5, 0.5)
                    for z in (-2.0, 2.0)]) @ rot.T + [0.2, -0.1, 0.3]
    pm = rng.normal(size=(5, 3))
    a, b = random_affine(8)
    inner = np.vstack([np.eye(3), -np.eye(3), [[0.6, 0.6, 0.6]]])
    return {"octahedron": (_OCTAHEDRON, _OCTAHEDRON.vertices),
            "rotated-box": (Polytope(box), box),
            "pm-hull": (Polytope(np.vstack([pm, -pm])), np.vstack([pm, -pm])),
            "affine-polytope": (AffineImage(a, b, Polytope(inner)), inner @ a.T + b)}


_LP_POLYTOPES = _lp_polytopes()


@pytest.mark.parametrize("kind", list(_LP_POLYTOPES))
def test_polytope_section_support_equals_lp(monkeypatch, kind):
    """On central and off-centre sections of polytopes, support2 equals a
    linear program over the vertices, every support_point2 lies on the
    plane and on the boundary, and each row settles within as many tie
    steps as the body has vertices."""
    body, verts = _LP_POLYTOPES[kind]
    monkeypatch.setattr(planar, "_TIE_STEPS", len(verts))
    rng = np.random.default_rng(5)
    planes = []
    for nrm in sphere_directions(3, 4, seed=2):
        c = float(nrm @ body.center)
        for reach in (0.0, 0.5, -0.7):
            h = body.support(nrm) if reach >= 0.0 else -body.support(-nrm)
            planes.append(Hyperplane(nrm, c + abs(reach) * (h - c)))
    secs = stack_of(body, planes)
    w2 = rng.normal(size=(len(secs), 16, 2))
    solve = planar._Restriction(secs, w2)
    h, p = solve.values(), solve.points()
    for sec, h_s, p_s, w_s in zip(secs, h, p, w2):
        world = w_s @ sec.basis
        want = np.array([polytope_section_support_lp(
            verts, sec.plane.normal, sec.plane.offset, x) for x in world])
        got = h_s + world @ sec.origin
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
        z = sec.to_world(p_s)
        assert np.abs(z @ sec.plane.normal - sec.plane.offset).max() <= 1e-12
        assert np.abs(body.gauge(z) - 1.0).max() <= 1e-12
