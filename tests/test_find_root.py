"""numeric.find_root against scipy's elementwise find_root, its reference.

Both run Chandrupatla's method with the same arithmetic, so on the same
brackets they must agree exactly: the same root, status, final bracket,
iteration count and evaluation count on every row. Ours hands f the flat
indices of the rows still active; scipy, given args=(np.arange(n),), hands
f the same indices.
"""

import os
import re
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize.elementwise import find_root as scipy_find_root

from ellipsoid_forge import (Ellipsoid, Hyperplane, PBall, Polytope, bodies, cones,
                             planar, theorems)
from ellipsoid_forge.errors import GeometryError
from ellipsoid_forge.numeric import find_root, normalize, sphere_directions

from oracles import stack_of

TOLERANCES = [dict(xatol=1e-14, xrtol=8.9e-16), dict(xatol=5e-14, xrtol=0.0)]


def _smooth(c):
    return lambda x, r: np.tanh(3.0 * (x - c[r])) + 0.1 * (x - c[r]) ** 3


def _step(c):
    return lambda x, r: np.where(x < c[r], -1.0, 2.0)


def _nan_rows(c):
    # every third row is NaN everywhere; every fifth turns NaN right of its root
    def f(x, r):
        y = np.where(r % 3 == 0, np.nan, np.expm1(x) - c[r])
        return np.where((r % 5 == 0) & (x > c[r]), np.nan, y)
    return f


def _no_sign_change(c):
    # odd rows stay positive on the whole bracket
    return lambda x, r: np.where(r % 2 == 1, (x - c[r]) ** 2 + 0.05, x - c[r])


CASES = {"smooth": _smooth, "step": _step, "nan-rows": _nan_rows,
         "no-sign-change": _no_sign_change}


def _brackets(seed, n):
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1.0, 1.0, n)
    a, b = rng.uniform(-3.0, -1.0, n), rng.uniform(1.0, 3.0, n)
    flip = rng.random(n) < 0.3  # some brackets are given right end first
    return c, np.where(flip, b, a), np.where(flip, a, b)


def _assert_same(ours, ref):
    for key in ("x", "f_x", "status", "success", "nit", "nfev"):
        assert np.array_equal(getattr(ours, key), getattr(ref, key),
                              equal_nan=True), key
        assert np.shape(getattr(ours, key)) == np.shape(getattr(ref, key)), key
    # every iteration makes one evaluation, after the two at the bracket ends
    assert np.array_equal(ours.nfev, ours.nit + 2)
    for mine, theirs in zip(ours.bracket + ours.f_bracket,
                            ref.bracket + ref.f_bracket):
        assert np.array_equal(mine, theirs, equal_nan=True)


@pytest.mark.parametrize("tolerances", TOLERANCES, ids=["xrtol", "xatol-only"])
@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("seed", range(4))
def test_find_root_equals_scipy(case, tolerances, seed):
    n = 40
    c, a, b = _brackets(seed, n)
    f = CASES[case](c)
    ours = find_root(f, (a, b), tolerances=tolerances)
    _assert_same(ours, scipy_find_root(f, (a, b), args=(np.arange(n),),
                                       tolerances=tolerances))
    # the case reaches the statuses it is there for
    want = {"smooth": {0}, "step": {0}, "nan-rows": {0, -3},
            "no-sign-change": {0, -1}}[case]
    assert want <= set(np.unique(ours.status).tolist())


@pytest.mark.parametrize("tolerances", TOLERANCES, ids=["xrtol", "xatol-only"])
@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("seed", range(4))
def test_find_root_with_f_init_equals_scipy(case, tolerances, seed):
    """Given f at the bracket ends (f_init), find_root never calls f on them,
    only once per iteration, and still equals scipy, nfev included."""
    n = 40
    c, a, b = _brackets(seed, n)
    f = CASES[case](c)
    rows = np.arange(n)
    called = []

    def spied(x, r):
        called.append((x.copy(), r.copy()))
        return f(x, r)
    ours = find_root(spied, (a, b), tolerances=tolerances,
                     f_init=(f(a, rows), f(b, rows)))
    _assert_same(ours, scipy_find_root(f, (a, b), args=(rows,),
                                       tolerances=tolerances))
    assert len(called) == ours.nit.max()
    for x, r in called:
        assert not np.any((x == a[r]) | (x == b[r]))


def test_find_root_infinite_ends_equal_scipy():
    """An infinite end stops its row at once: -1 when f has one sign on the
    bracket, else -3, as scipy orders its tests."""
    a = np.array([-np.inf, -np.inf, 0.5, -1.0])
    b = np.array([1.0, -0.5, np.inf, 1.0])
    f = lambda x: np.tanh(x)
    ours = find_root(lambda x, r: f(x), (a, b))
    _assert_same(ours, scipy_find_root(f, (a, b)))
    assert ours.status.tolist() == [-3, -1, -1, 0]
    # a finite bracket wider than the largest float steps to an infinite x,
    # so its row stops with -3 one iteration later
    a, b = np.array([-1e308, -1.0, -1.7e308]), np.array([1e308, 1.0, 1.5e308])
    with np.errstate(over="ignore"):
        ours = find_root(lambda x, r: f(x), (a, b))
        _assert_same(ours, scipy_find_root(f, (a, b)))
    assert ours.status.tolist() == [-3, 0, -3] and ours.nit.tolist() == [1, 1, 1]


@pytest.mark.parametrize("tolerances", TOLERANCES, ids=["xrtol", "xatol-only"])
def test_find_root_nan_after_iterations_equals_scipy(tolerances):
    """A row whose f turns NaN at both bracket ends only after some
    iterations stops there with -3, as in scipy. Odd rows are NaN right of
    a wall below their root: the steps bisect toward the wall, and two NaN
    steps in a row leave both ends NaN."""
    n = 40
    rng = np.random.default_rng(3)
    a, b = rng.uniform(-3.0, -1.0, n), rng.uniform(1.0, 3.0, n)
    wall = rng.uniform(-0.5, 0.5, n)
    c = wall + rng.uniform(0.1, 0.5, n)

    def f(x, r):
        return np.where((r % 2 == 1) & (x > wall[r]), np.nan,
                        np.tanh(3.0 * (x - c[r])))
    ours = find_root(f, (a, b), tolerances=tolerances)
    _assert_same(ours, scipy_find_root(f, (a, b), args=(np.arange(n),),
                                       tolerances=tolerances))
    assert np.all(ours.status[::2] == 0) and np.all(ours.status[1::2] == -3)
    assert np.count_nonzero(ours.nit[1::2] >= 3) >= 10


@pytest.mark.parametrize("tolerances", TOLERANCES, ids=["xrtol", "xatol-only"])
def test_find_root_iteration_limit_equals_scipy(tolerances):
    c, a, b = _brackets(7, 30)
    f = _smooth(c)
    ours = find_root(f, (a, b), tolerances=tolerances, maxiter=3)
    _assert_same(ours, scipy_find_root(f, (a, b), args=(np.arange(30),),
                                       tolerances=tolerances, maxiter=3))
    assert np.all(ours.status == -2) and np.all(ours.nit == 3)


@pytest.mark.parametrize("maxiter", [0, 2, 6])
@pytest.mark.parametrize("tolerances", TOLERANCES, ids=["xrtol", "xatol-only"])
def test_find_root_iteration_limit_mixed_rows_equal_scipy(tolerances, maxiter):
    """At the iteration limit, rows that converged keep status 0 and rows
    without a sign change -1, also when they stop at the limit itself
    (nit 0 for -1); only the rows still running take -2."""
    c, a, b = _brackets(7, 30)

    def f(x, r):
        # rows 0 mod 3 keep one sign, 1 mod 3 are lines (converged in 2 or
        # 3 iterations) and 2 mod 3 steps (bisected to the limit)
        k = r % 3
        return np.where(k == 0, (x - c[r]) ** 2 + 0.05,
                        np.where(k == 1, x - c[r], np.where(x < c[r], -1.0, 2.0)))
    ours = find_root(f, (a, b), tolerances=tolerances, maxiter=maxiter)
    _assert_same(ours, scipy_find_root(f, (a, b), args=(np.arange(30),),
                                       tolerances=tolerances, maxiter=maxiter))
    assert np.all(ours.status[::3] == -1) and np.all(ours.nit[::3] == 0)
    assert np.all(ours.status[2::3] == -2) and np.all(ours.nit[2::3] == maxiter)
    status, nit = ours.status[1::3], ours.nit[1::3]
    if maxiter == 0:
        assert np.all(status == -2)
    elif maxiter == 2:  # most lines converge at the limit itself
        assert np.count_nonzero((status == 0) & (nit == 2)) >= 5
    else:
        assert np.all(status == 0) and np.all(nit < maxiter)


@pytest.mark.parametrize("tolerances", TOLERANCES, ids=["xrtol", "xatol-only"])
def test_find_root_one_row_equals_scipy(tolerances):
    f = lambda x: x ** 3 - 2.0 * x - 5.0
    for init in ((0.0, 3.0), (np.zeros(1), np.full(1, 3.0))):
        ours = find_root(lambda x, r: f(x), init, tolerances=tolerances)
        _assert_same(ours, scipy_find_root(f, init, tolerances=tolerances))
        assert np.all(ours.status == 0)


def test_find_root_hands_f_the_active_rows():
    """f sees only the rows still active, as their row indices: converged
    rows leave the active set."""
    seen = []
    c = np.array([0.5, -0.25, 0.125])
    width = np.array([1.0, 1e3, 1e6])  # bisection needs more steps on wider brackets

    def f(x, r):
        seen.append(r.copy())
        return np.where(x < c[r], -1.0, 1.0)

    sol = find_root(f, (c - width, c + 0.5 * width))
    assert np.all(sol.status == 0)
    assert np.allclose(sol.x, c, atol=1e-12, rtol=0.0)
    assert [len(r) for r in seen[:3]] == [3, 3, 3]
    assert all(np.isin(later, earlier).all() for earlier, later in zip(seen, seen[1:]))
    assert len(seen[-1]) == 1 and seen[-1][0] == 2


def test_library_solves_with_its_own_find_root():
    assert all(mod.find_root is find_root for mod in (bodies, cones, planar, theorems))
    src = os.path.dirname(os.path.dirname(os.path.abspath(planar.__file__)))
    code = ("import sys; sys.path.insert(0, %r); import ellipsoid_forge.cli; "
            "import ellipsoid_forge.theorems; "
            "print(sorted(m for m in sys.modules if 'elementwise' in m "
            "or 'chandrupatla' in m or m.startswith('scipy.optimize')))" % src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_src_has_one_solver():
    """numeric.find_root is the library's one solver: no module of the
    package imports scipy.optimize or calls another solver, and no other
    module defines a find_root."""
    pkg = os.path.dirname(os.path.abspath(planar.__file__))
    other = re.compile(r"scipy\.optimize|from scipy import .*optimize"
                       r"|(brentq|minimize_scalar|linprog|bracket_root)\(")
    defines = []
    for name in sorted(f for f in os.listdir(pkg) if f.endswith(".py")):
        with open(os.path.join(pkg, name)) as fh:
            for n, line in enumerate(fh, 1):
                assert not other.search(line), "%s:%d: %s" % (name, n, line)
                if re.match(r"\s*def find_root\(", line):
                    defines.append(name)
    assert defines == ["numeric.py"]


@pytest.mark.parametrize("check, inner, outer, args, count", [
    ("check_theorem1", Ellipsoid(np.zeros(3), np.diag([1.0, 4.0, 9.0])),
     Ellipsoid.ball(3.0), (), 4),
    ("check_theorem1", PBall(4.0, (0.5, 0.5, 0.5)), Ellipsoid.ball(2.0), (), 4),
    ("check_theorem3", Ellipsoid(np.zeros(3), np.diag([1.0, 2.0, 4.0]) / 0.16),
     Ellipsoid.ball(2.0), (), 3),
    ("check_theorem3", PBall(4.0, (0.4, 0.4, 0.4)), Ellipsoid.ball(2.0), (), 3),
    ("check_theorem2", Ellipsoid.ball(2.0 ** -0.5), Ellipsoid.ball(1.0),
     (np.zeros(3),), 3),
    ("check_theorem2", Ellipsoid.ball(0.5), PBall(4.0, (1.0, 1.0, 1.0)),
     (np.zeros(3),), 4),
], ids=["t1-witness", "t1-cex", "t3-witness", "t3-cex", "t2-witness", "t2-cex"])
def test_cone_checks_solve_once_per_stage(solves, check, inner, outer, args,
                                          count):
    # at the check defaults: t1 makes its graze, cone-intersection,
    # line-minimum and tangent-plane solves, t3 its two sweeps and one
    # line-minimum solve, t2 at the centre its sweep and two Radon solves,
    # and on the l4 ball one ray exit for the apex pairs; a per-line loop
    # would make dozens
    getattr(theorems, check)(inner, outer, *args)
    assert len(solves) == count


def test_t2_solves_once_per_stage(solves):
    """Off the centre of an l4 ball, at the check defaults: one ray exit for
    the apex pairs, the cone intersection's line-minimum and sweep solves,
    one ray exit for the matched clouds and one for the chord ends, the
    three chords' gauges and the Radon norm gate, whatever the apexes."""
    counts = []
    for apexes in (4, 6, 12):
        solves.clear()
        theorems.check_theorem2(Ellipsoid.ball(0.5), PBall(4.0, (1.0, 1.0, 1.0)),
                                [0.1, 0.05, -0.03], apexes=apexes)
        counts.append(len(solves))
    assert counts[0] == counts[1] == counts[2] <= 9


_OCTAHEDRON = Polytope(np.vstack([np.eye(3), -np.eye(3)]))


def test_polytope_restriction_rows_make_no_find_root_calls(solves):
    """A polytope's restriction rows finish at the support-vertex tie, so
    central_symmetry on central and off-centre sections of the octahedron,
    is_radon_curve on the central ones and the radon check call no
    find_root; on an ellipsoid the same central_symmetry is one."""
    nrms = sphere_directions(3, 3, seed=1)
    off = Hyperplane(nrms[0], 0.3)
    secs = stack_of(_OCTAHEDRON, [Hyperplane(nrm, 0.0) for nrm in nrms] + [off])
    planar.central_symmetry(secs)
    planar.is_radon_curve(secs[:3], k=16)
    theorems.check_theorem_radon(_OCTAHEDRON, planes=2, diameters=16)
    assert solves == []
    planar.central_symmetry(planar.section(Ellipsoid.ball(1.0), off))
    assert len(solves) == 1


def test_tie_steps_that_never_settle_name_the_row(monkeypatch):
    """A support_point whose body grows with every call never ties: the
    tie loop gives up after _TIE_STEPS steps with a GeometryError that names
    the first unsettled row by its section (its name in the stack it was
    built as) and row."""
    body = Polytope(_OCTAHEDRON.vertices)
    real, grown = body.support_point, []

    def growing(u):
        grown.append(1)
        u = np.asarray(u, dtype=float)
        return real(u) + 1e-6 * len(grown) * normalize(u)
    monkeypatch.setattr(body, "support_point", growing)
    secs = stack_of(body, [Hyperplane(nrm, 0.0)
                           for nrm in sphere_directions(3, 2, seed=1)])
    w2 = np.broadcast_to([[1.0, 0.0], [0.3, -1.0]], (2, 2, 2))
    with pytest.raises(GeometryError, match=r"^restriction solve at section 1, "
                       r"row 0: the support points did not settle in 64 tie steps$"):
        planar._Restriction(secs[[1, 0]], w2).values()
    with pytest.raises(GeometryError, match=r"^restriction solve at section 0, row 0: "):
        planar._Restriction(secs, w2).points()
