"""Seeded workloads: body pools built at set-up and rounds of checked ops.

A workload is a fixed multiset of op kinds per round. Each round draws its
op order and parameters from its own generator, seeded by (seed, round), so
op k of round r is the same op in every run with that seed, traced or not,
however many rounds a run completes. Every op carries a checker from
verify.py that judges its result without the library's oracles.

Library functions are looked up on their modules at call time (cones.graze,
not a name bound at import), so a traced run sees the calls it rebinds.
"""

import numpy as np

from ellipsoid_forge import bodies, cones, planar, projective, theorems
from ellipsoid_forge.bodies import AffineImage, Ellipsoid, PBall, Polytope

import verify

P0 = np.zeros(3)
# acceptance-test (criterion 5) sizes for the checks inside the workloads
T1_PLAIN = dict(apexes=8, m=48, pairs=4)
T1_SMALL = dict(apexes=6, m=32, pairs=3)
T1_CEX = dict(apexes=6, m=48, pairs=3)
T2_WIT = dict(apexes=6, m=48, chords=24, radon_k=64)
T3_WIT = dict(apexes=8, m=48, lines=16, w_samples=8)
T3_CEX = dict(apexes=6, m=48, lines=12, w_samples=6)
T4_SIZE = dict(samples=8, m=48)
BASICO_SIZE = dict(planes=6, offsets=5, m=48, sym_m=64)
RADON_SIZE = dict(planes=4, diameters=64)
# the CLI `sweep` defaults: radon over pball exponents 1.5:3:7
SWEEP_EXPONENTS = np.linspace(1.5, 3.0, 7)
SWEEP_SIZE = dict(planes=4, diameters=64)
CURVE_M = 200  # the CLI `sample` default


class Op:
    """One closed-loop request: run() does the library work, check() judges it."""

    __slots__ = ("kind", "label", "run", "check")

    def __init__(self, kind, label, run, check):
        self.kind = kind
        self.label = label
        self.run = run
        self.check = check


def _unit(rng, n=3):
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    return q * np.sign(np.diag(r))


def _affine(rng):
    """Invertible A with singular values in [0.7, 1.5] and a bounded shift."""
    u, v = _rotation(rng), _rotation(rng)
    return u @ np.diag(rng.uniform(0.7, 1.5, 3)) @ v, rng.uniform(-0.5, 0.5, 3)


def _exponents(rng, strata):
    """One seeded exponent per stratum, so every seed spans the same range."""
    return [rng.uniform(lo, hi) for lo, hi in strata]


ANY_P = [(1.5, 3.67), (3.67, 5.83), (5.83, 8.0)]
# far enough from 2 that the l_p ball is no ellipsoid for any check
NOT_TWO_P = [(1.5, 1.75), (2.5, 5.25), (5.25, 8.0)]
# single counterexample bodies: a narrow range keeps their cost steady
CEX_P = (3.0, 5.0)


def _seeded_ellipsoid(rng):
    rot = _rotation(rng)
    axes = rng.uniform(0.6, 1.4, 3)
    return Ellipsoid(rng.uniform(-0.3, 0.3, 3), rot @ np.diag(axes ** -2.0) @ rot.T)


def _polytopes(rng):
    octahedron = Polytope(np.vstack([np.eye(3), -np.eye(3)]))
    out = [octahedron]
    for _ in range(2):
        half = rng.uniform(0.5, 1.2, 3)
        corners = np.array([[a, b, c] for a in (-1, 1) for b in (-1, 1)
                            for c in (-1, 1)]) * half
        out.append(Polytope(corners @ _rotation(rng).T))
    for _ in range(2):
        v = rng.standard_normal((5, 3))
        out.append(Polytope(np.vstack([v, -v])))
    return out


def _plane_through(center, normal, offset=0.0):
    return projective.Hyperplane(normal, float(normal @ center) + offset)


class Pool:
    """Bodies a workload hands to the library, plus their independent models."""

    def __init__(self, named, all_bodies):
        self.named = named
        self.bodies = all_bodies
        self.models = {}

    def build_models(self):
        """Checker models; built after the timed set-up, as they are not the program's."""
        self.models = {id(b): verify.model_of(b) for b in self.bodies}

    def model(self, body):
        return self.models[id(body)]


def _round_trip(body):
    """Serialize and parse back; the parsed copy is the one the ops use."""
    text = bodies.serialize_body(body)
    copy = bodies.parse_body(text)
    if bodies.serialize_body(copy) != text:
        raise RuntimeError("parse_body round trip changed %s" % body.kind)
    return copy


def _finish(named):
    """Round-trip every body and fill the lazy diameter/radius caches."""
    memo = {}

    def conv(b):
        if not isinstance(b, bodies.ConvexBody):
            return b
        if id(b) not in memo:
            c = _round_trip(b)
            c.diameter()
            c.radius_bound()
            memo[id(b)] = c
        return memo[id(b)]

    out = {}
    for key, v in named.items():
        if isinstance(v, list):
            out[key] = [tuple(conv(x) for x in b) if isinstance(b, tuple) else conv(b)
                        for b in v]
        else:
            out[key] = conv(v)
    return Pool(out, list(memo.values()))


# ---------------------------------------------------------------------------
# cone-sweeps: tangency sweeps in cones (t1, t2, t3, graze, shadow, omega)
# ---------------------------------------------------------------------------

def setup_cone_sweeps(rng):
    ub = Ellipsoid.ball(1.0)
    b2, b3 = Ellipsoid.ball(2.0), Ellipsoid.ball(3.0)
    e149 = Ellipsoid(P0, np.diag([1.0, 4.0, 9.0]))
    inner2 = Ellipsoid.ball(2.0 ** -0.5)
    inner3 = Ellipsoid(P0, np.diag([1.0, 2.0, 4.0]) / 0.16)
    smooth = [_seeded_ellipsoid(rng) for _ in range(3)]
    smooth += [PBall(p, rng.uniform(0.7, 1.3, 3)) for p in _exponents(rng, ANY_P)]
    for inner in (smooth[0], smooth[3]):
        a, b = _affine(rng)
        smooth.append(AffineImage(a, b, inner))
    a1, b1 = _affine(rng)
    a2, b2v = _affine(rng)
    a3, b3v = _affine(rng)
    named = {
        "ball": ub,
        "l4": PBall(4.0, (1.0, 1.0, 1.0)),
        "smooth": smooth + [ub],
        "t1_wit": [(e149, b3, T1_PLAIN),
                   (AffineImage(a1, b1, e149), AffineImage(a1, b1, b3), T1_SMALL)],
        "t1_cex": [(PBall(rng.uniform(*CEX_P), (0.5, 0.5, 0.5)), b2, T1_CEX)],
        "t2_wit": [(inner2, ub, P0),
                   (AffineImage(a2, b2v, inner2), AffineImage(a2, b2v, ub), b2v)],
        "t3_wit": [(inner3, b2), (AffineImage(a3, b3v, inner3), AffineImage(a3, b3v, b2))],
        "t3_cex": [(PBall(rng.uniform(*CEX_P), (0.4, 0.4, 0.4)), b2),
                   (Ellipsoid.ball(0.9), ub)],
    }
    return _finish(named)


def _boundary_along(model, u):
    c = model.center
    return c + u / model.gauge(c + u)


def _op_t1(pool, rng, r):
    cases = ([(x, "consistent") for x in pool.named["t1_wit"]]
             + [(x, "hypothesis-violated") for x in pool.named["t1_cex"]])
    (inner, outer, size), want = cases[r % len(cases)]
    seed = int(rng.integers(0, 1000))
    return Op("t1", "t1 %s %s/%s seed=%d" % (want, inner.kind, outer.kind, seed),
              lambda: theorems.check_theorem1(inner, outer, seed=seed, **size),
              lambda rep: verify.check_report(rep, want))


def _op_t2(pool, rng, r):
    inner, outer, p = pool.named["t2_wit"][r % 2]
    seed = int(rng.integers(0, 1000))
    return Op("t2", "t2 consistent %s/%s seed=%d" % (inner.kind, outer.kind, seed),
              lambda: theorems.check_theorem2(inner, outer, p, seed=seed, **T2_WIT),
              lambda rep: verify.check_report(rep, "consistent"))


def _op_t3(pool, rng, r):
    cases = ([(x, T3_WIT, "consistent") for x in pool.named["t3_wit"]]
             + [(x, T3_CEX, "hypothesis-violated") for x in pool.named["t3_cex"]])
    (inner, outer), size, want = cases[r % len(cases)]
    seed = int(rng.integers(0, 1000))
    return Op("t3", "t3 %s %s/%s seed=%d" % (want, inner.kind, outer.kind, seed),
              lambda: theorems.check_theorem3(inner, outer, seed=seed, **size),
              lambda rep: verify.check_report(rep, want))


def _op_polar(pool, rng, variant):
    ball, l4 = pool.named["ball"], pool.named["l4"]
    u = _unit(rng)
    slot = variant % 6
    if slot in (0, 1):
        s = rng.uniform(1.5, 3.0)
        body, o, want, plane = ball, s * u, "projective hyperplane of symmetry", True
    elif slot == 2:
        s = rng.uniform(0.2, 0.6)
        body, o, want, plane = ball, s * u, "projective centre", True
    elif slot == 3:
        body, o, want, plane = ball, P0, "projective centre", False
    elif slot == 4:
        s = rng.uniform(1.5, 3.0)
        o = s * _boundary_along(pool.model(l4), u)
        body, want, plane = l4, "not a pole", False
    else:
        body, o, want, plane = l4, P0, "projective centre", False
    expected = verify.polar_plane(pool.model(body), o) if plane else None
    return Op("polar", "polar_of %s o=%s" % (body.kind, np.round(o, 3).tolist()),
              lambda: theorems.polar_of(body, o),
              lambda res: verify.check_polar(res, want, expected))


def _cycle(items, variant):
    """Variants walk the pool in turn, so every run sees the same body mix."""
    return items[variant % len(items)]


def _op_graze(pool, rng, variant):
    body = _cycle(pool.named["smooth"], variant)
    model = pool.model(body)
    s = rng.uniform(1.5, 3.0)
    apex = model.center + s * (_boundary_along(model, _unit(rng)) - model.center)
    seed = int(rng.integers(0, 1000))
    return Op("graze", "graze %s s=%.3f" % (body.kind, s),
              lambda: cones.graze(body, apex, m=CURVE_M, seed=seed),
              lambda cur: verify.check_graze(model, apex, cur))


def _op_shadow(pool, rng, variant):
    body = _cycle(pool.named["smooth"], variant)
    model = pool.model(body)
    u = _unit(rng)
    seed = int(rng.integers(0, 1000))
    return Op("shadow", "shadow_boundary %s" % body.kind,
              lambda: cones.shadow_boundary(body, u, m=CURVE_M, seed=seed),
              lambda cur: verify.check_shadow(model, u, cur))


def _op_omega(pool, rng, variant):
    body = _cycle(pool.named["smooth"], variant)
    model = pool.model(body)
    c = model.center
    edge = _boundary_along(model, _unit(rng)) - c
    # apexes on a line through the centre, as the checks place them
    x = c + rng.uniform(1.5, 2.5) * edge
    y = c - rng.uniform(1.5, 2.5) * edge
    seed = int(rng.integers(0, 1000))
    return Op("omega", "cone_intersection %s" % body.kind,
              lambda: cones.cone_intersection(body, x, y, m=CURVE_M, seed=seed),
              lambda cur: verify.check_cone_intersection(model, x, y, cur))


# ---------------------------------------------------------------------------
# section-sweeps: planar restriction oracles (basico, t4, radon, sweep)
# ---------------------------------------------------------------------------

def setup_section_sweeps(rng):
    ub, b2 = Ellipsoid.ball(1.0), Ellipsoid.ball(2.0)
    e149 = Ellipsoid(P0, np.diag([1.0, 4.0, 9.0]))
    l4 = PBall(4.0, (1.0, 1.0, 1.0))
    a, b = _affine(rng)
    named = {
        "t4": [(b2, "consistent"), (PBall(4.0, (2.0, 2.0, 2.0)), "hypothesis-violated"),
               (PBall(rng.uniform(*CEX_P), (2.0, 2.0, 2.0)), "hypothesis-violated")],
        "basico": [(e149, P0, "consistent"), (ub, np.array([0.1, 0.0, 0.0]), "consistent"),
                   (l4, P0, "hypothesis-violated")],
        # radon checks and the sweep rows share one slot: both are check_theorem_radon
        "radon": ([(e149, RADON_SIZE, "consistent"),
                   (AffineImage(a, b, ub), dict(planes=3, diameters=64), "consistent"),
                   (l4, RADON_SIZE, "hypothesis-violated")]
                  + [(PBall(p, (1.0, 1.0, 1.0)), SWEEP_SIZE,
                      "consistent" if p == 2.0 else "hypothesis-violated")
                     for p in SWEEP_EXPONENTS]),
        "ellipsoids": [_seeded_ellipsoid(rng) for _ in range(3)] + [e149],
        "pballs": [PBall(p, rng.uniform(0.7, 1.3, 3)) for p in _exponents(rng, NOT_TWO_P)]
                  + [l4],
    }
    return _finish(named)


def _op_t4(pool, rng, r):
    body, want = pool.named["t4"][r % 3]
    seed = int(rng.integers(0, 1000))
    return Op("t4", "t4 %s %s p=%s seed=%d" % (want, body.kind,
                                              getattr(body, "exponent", "-"), seed),
              lambda: theorems.check_theorem4(body, 1.0, seed=seed, **T4_SIZE),
              lambda rep: verify.check_report(rep, want))


def _op_basico(pool, rng, r):
    body, p, want = pool.named["basico"][r % 3]
    seed = int(rng.integers(0, 1000))
    return Op("basico", "basico %s %s seed=%d" % (want, body.kind, seed),
              lambda: theorems.check_theorem_basico(body, p, seed=seed, **BASICO_SIZE),
              lambda rep: verify.check_report(rep, want))


def _op_radon(pool, rng, r):
    cases = pool.named["radon"]
    body, size, want = cases[r % len(cases)]
    seed = int(rng.integers(0, 1000))
    return Op("radon", "radon %s %s p=%s seed=%d" % (want, body.kind,
                                                    getattr(body, "exponent", "-"), seed),
              lambda: theorems.check_theorem_radon(body, seed=seed, **size),
              lambda rep: verify.check_report(rep, want))


def _section_case(pool, rng, variant):
    """Even variants: ellipsoid section at a seeded offset; odd: central l_p section."""
    n = _unit(rng)
    if variant % 2 == 0:
        body = _cycle(pool.named["ellipsoids"], variant // 2)
        model = pool.model(body)
        half_width = np.sqrt(float(n @ np.linalg.inv(model.q) @ n))  # h(n) - <c, n>
        plane = _plane_through(model.center, n, rng.uniform(-0.5, 0.5) * half_width)
        return body, model, plane, True
    body = _cycle(pool.named["pballs"], variant // 2)
    return body, pool.model(body), _plane_through(P0, n), False


def _op_symmetry(pool, rng, variant):
    body, model, plane, is_ellipsoid = _section_case(pool, rng, variant)
    if is_ellipsoid:
        want = verify.ellipse_section_center(model, plane.normal, plane.offset)
    else:
        want = model.center

    def check(sym):
        if not sym.ok:
            return "section symmetry residual %.3e" % sym.residual
        err = float(np.linalg.norm(sym.center_world - want))
        if err > verify.CENTER_TOL:
            return "section centre off the closed form by %.3e" % err
        return None

    return Op("symmetry", "central_symmetry %s section" % body.kind,
              lambda: planar.central_symmetry(planar.section(body, plane), m=96),
              check)


def _op_radon_curve(pool, rng, variant):
    body, _model, plane, is_ellipsoid = _section_case(pool, rng, variant)

    def check(rr):
        if bool(rr.ok) != is_ellipsoid:
            return "is_radon_curve %s on a %s section" % (rr.ok, body.kind)
        return None

    return Op("radon_curve", "is_radon_curve %s section" % body.kind,
              lambda: planar.is_radon_curve(planar.section(body, plane), k=128),
              check)


# ---------------------------------------------------------------------------
# polytope-oracles: the LP gauge against the support-only route
# ---------------------------------------------------------------------------

def setup_polytope_oracles(rng):
    polys = _polytopes(rng)
    pool = _finish({"polytopes": polys})
    # central sections built once: the support-only ops must never reach the
    # LP gauge, and building a section probes the gauge once
    sections = []
    for body in pool.named["polytopes"]:
        for _ in range(3):
            sections.append(planar.section(body, _plane_through(body.center, _unit(rng))))
    # is_radon_curve costs 4x less on a section whose fitted centre lands
    # exactly on the body centre (boundary_from_center replaces a root
    # search), and which sections do is a rounding accident; fixed octahedron
    # sections keep that mix the same for every seed
    octahedron = pool.named["polytopes"][0]
    fixed = np.random.default_rng(0)
    radon_sections = [planar.section(octahedron, _plane_through(P0, _unit(fixed)))
                      for _ in range(7)]
    for sec in sections + radon_sections:
        sec.diameter2()
    pool.named["sections"] = sections
    pool.named["radon_sections"] = radon_sections
    return pool


def _op_chord(pool, rng, variant):
    body = _cycle(pool.named["polytopes"], variant)
    model = pool.model(body)
    base = model.center + 0.3 * rng.uniform(-1.0, 1.0) * (_boundary_along(model, _unit(rng))
                                                          - model.center)
    line = projective.Line(base, _unit(rng))
    return Op("chord", "line_boundary_points %s" % body.kind,
              lambda: bodies.line_boundary_points(body, line),
              lambda ends: verify.check_boundary_points(model, ends))


def _op_boundary_sweep(pool, rng, variant):
    body = _cycle(pool.named["polytopes"], variant)
    model = pool.model(body)
    normal = _unit(rng)
    plane = _plane_through(model.center, normal)
    # an interior base point in the plane: a seeded share of the way to the boundary
    w = _unit(rng)
    w -= (w @ normal) * normal
    base = model.center + rng.uniform(0.1, 0.5) * (_boundary_along(model, w / np.linalg.norm(w))
                                                   - model.center)
    phi = rng.uniform(0.0, 2.0 * np.pi) + np.arange(4) * np.pi / 2.0
    dirs = np.column_stack([np.cos(phi), np.sin(phi)])

    def run():
        sec = planar.section(body, plane)
        base2 = sec.to_chart(base)
        return [sec.to_world(sec.boundary2(d, base2=base2)) for d in dirs]

    return Op("boundary_sweep", "boundary2 x4 off-centre %s" % body.kind, run,
              lambda pts: verify.check_boundary_points(model, pts))


def _op_polytope_polar(pool, rng, variant):
    body = _cycle(pool.named["polytopes"], variant)
    model = pool.model(body)
    centre = variant % 4 == 0
    if centre:
        o, m, want = model.center, 5, "projective centre"
    else:
        o = model.center + rng.uniform(1.5, 2.5) * (_boundary_along(model, _unit(rng))
                                                    - model.center)
        m, want = 6, "not a pole"

    def check(res):
        bad = verify.check_polar(res, want)
        if bad is None and centre and not isinstance(res.polar,
                                                        projective.InfinityHyperplane):
            return "polar of the centre is not the hyperplane at infinity"
        return bad

    return Op("polytope_polar", "polar_of polytope m=%d %s" % (m, want),
              lambda: theorems.polar_of(body, o, m=m), check)


def _op_polytope_radon(pool, rng, variant):
    sec = _cycle(pool.named["radon_sections"], variant)
    seed = int(rng.integers(0, 1000))

    def check(rr):
        if not rr.detail["symmetry_residual"] <= verify.CENTER_TOL:
            return "central section symmetry residual %.3e" % rr.detail["symmetry_residual"]
        if not np.isfinite(rr.worst_defect):
            return "non-finite conjugacy defect"
        err = float(np.linalg.norm(sec.to_world(rr.center) - sec.body.center))
        if err > verify.CENTER_TOL:
            return "central section centre off the body centre by %.3e" % err
        return None

    return Op("polytope_radon", "is_radon_curve k=16 polytope section",
              lambda: planar.is_radon_curve(sec, k=16, cross_pairs=1, seed=seed), check)


def _op_polytope_symmetry(pool, rng, variant):
    sec = _cycle(pool.named["sections"], variant)

    def check(sym):
        err = float(np.linalg.norm(sym.center_world - sec.body.center))
        if not sym.ok or err > verify.CENTER_TOL:
            return "central section symmetry: ok=%s centre error %.3e" % (sym.ok, err)
        return None

    return Op("support_symmetry", "central_symmetry polytope section",
              lambda: planar.central_symmetry(sec, m=96), check)


def _op_osym(pool, rng, variant):
    body = _cycle(pool.named["polytopes"], variant)
    seed = int(rng.integers(0, 1000))

    def check(res):
        if not res <= 1e-12:
            return "o-symmetry residual %.3e of a centrally symmetric polytope" % res
        return None

    return Op("o_symmetry", "o_symmetry_residual %s" % body.kind,
              lambda: bodies.o_symmetry_residual(body, body.center, seed=seed), check)


# ---------------------------------------------------------------------------

class Workload:
    """A name, a set-up, and the op kinds of one round as (maker, copies)."""

    def __init__(self, name, setup, round_spec):
        self.name = name
        self.setup = setup
        self.round_spec = round_spec

    def round_ops(self, pool, seed, r):
        rng = np.random.default_rng([seed, r])
        slots = [(make, copies, k) for make, copies in self.round_spec for k in range(copies)]
        # copy k of a kind in round r takes variant k + copies * r, so the
        # variants of each kind rotate evenly over rounds
        return [make(pool, rng, k + copies * r)
                for make, copies, k in (slots[i] for i in rng.permutation(len(slots)))]


WORKLOADS = {
    w.name: w for w in [
        # copies per round put p50 and p90 inside one op kind's block of the
        # sorted latencies, not on the edge between a cheap and a dear kind
        Workload("cone-sweeps", setup_cone_sweeps, [
            (_op_t1, 1), (_op_t2, 1), (_op_t3, 1), (_op_polar, 3),
            (_op_graze, 4), (_op_shadow, 3), (_op_omega, 2)]),
        Workload("section-sweeps", setup_section_sweeps, [
            (_op_t4, 1), (_op_basico, 1), (_op_radon, 1),
            (_op_symmetry, 4), (_op_radon_curve, 8)]),
        Workload("polytope-oracles", setup_polytope_oracles, [
            (_op_polytope_radon, 1), (_op_polytope_polar, 4), (_op_chord, 6),
            (_op_boundary_sweep, 4), (_op_polytope_symmetry, 6), (_op_osym, 4)]),
    ]
}


# ---------------------------------------------------------------------------
# L3: each check at its CLI defaults on one witness and one counterexample.
# Bodies are fresh per case, so each pays its own lazy caches as a CLI run does.
# ---------------------------------------------------------------------------

class L3Case:
    __slots__ = ("label", "run", "want", "bodies")

    def __init__(self, label, check, want, *args, **size):
        """check_* named by `check`, looked up at call time so a tracer sees it."""
        self.label, self.want = label, want
        self.run = lambda: getattr(theorems, check)(*args, **size)
        self.bodies = [a for a in args if isinstance(a, bodies.ConvexBody)]


# the CLI defaults (planes=6, diameters=128) take minutes on the LP gauge
OCTAHEDRON_RADON_SIZE = dict(planes=1, diameters=8)


def l3_cases(workload):
    e149 = lambda: Ellipsoid(P0, np.diag([1.0, 4.0, 9.0]))
    ball = Ellipsoid.ball
    lp = lambda p, r: PBall(p, (r, r, r))
    ok, hv = "consistent", "hypothesis-violated"
    if workload == "cone-sweeps":
        return [
            L3Case("t1 witness e149 in 3-ball", "check_theorem1", ok, e149(), ball(3.0)),
            L3Case("t1 cex l4(0.5) in 2-ball", "check_theorem1", hv, lp(4.0, 0.5), ball(2.0)),
            L3Case("t2 witness", "check_theorem2", ok, ball(2.0 ** -0.5), ball(1.0), P0),
            L3Case("t2 cex 0.5-ball in l4", "check_theorem2", hv, ball(0.5), lp(4.0, 1.0), P0),
            L3Case("t3 witness", "check_theorem3", ok,
                   Ellipsoid(P0, np.diag([1.0, 2.0, 4.0]) / 0.16), ball(2.0)),
            L3Case("t3 cex l4(0.4) in 2-ball", "check_theorem3", hv, lp(4.0, 0.4), ball(2.0)),
        ]
    if workload == "section-sweeps":
        return [
            L3Case("t4 witness 2-ball", "check_theorem4", ok, ball(2.0), 1.0),
            L3Case("t4 cex l4(2)", "check_theorem4", hv, lp(4.0, 2.0), 1.0),
            L3Case("basico witness e149", "check_theorem_basico", ok, e149(), P0),
            L3Case("basico cex l4", "check_theorem_basico", hv, lp(4.0, 1.0), P0),
            L3Case("radon witness e149", "check_theorem_radon", ok, e149()),
            L3Case("radon cex l4", "check_theorem_radon", hv, lp(4.0, 1.0)),
        ]
    octahedron = Polytope(np.vstack([np.eye(3), -np.eye(3)]))
    return [L3Case("radon octahedron planes=1 diam=8", "check_theorem_radon", hv,
                   octahedron, **OCTAHEDRON_RADON_SIZE)]
