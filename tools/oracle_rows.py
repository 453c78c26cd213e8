"""Print the time of each body oracle on one point and on rows.

Run from the repository root:

    python3 tools/oracle_rows.py [--repeat N]

One line per body and oracle: the best of N timings, in microseconds per
call, on one point of shape (3,) and on 64 and 12,544 rows of shape (k, 3).
The section lines time one section() build and a Sections build of 64
planes through an interior point, and support2 and boundary2 from a base
on one section at 1 and 64 chart rows (no 12,544 column: nan).
The bodies are one of each kind, off centre where the kind allows it, and an
affine image of each of the other three; the inputs are fixed, so two trees
time the same calls. Timings vary with the machine and its load; compare
two trees on one machine, run after run.
"""

import argparse
import os
import sys
import timeit
from time import perf_counter

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src")]

from ellipsoid_forge.bodies import AffineImage, Ellipsoid, PBall, Polytope  # noqa: E402
from ellipsoid_forge.numeric import normalize  # noqa: E402
from ellipsoid_forge.planar import Sections, section  # noqa: E402
from ellipsoid_forge.projective import Hyperplane  # noqa: E402

ROWS = (1, 64, 12544)
SAMPLE_S = 0.005  # seconds per timing sample; fast calls repeat within one


def bodies():
    """(label, body) for each timed body."""
    rng = np.random.default_rng(0)
    m = rng.normal(size=(3, 3))
    inner = {"ellipsoid": Ellipsoid(rng.uniform(-0.5, 0.5, 3), m @ m.T + 0.5 * np.eye(3)),
             "pball": PBall(3.0, (1.0, 0.8, 1.2)),
             "polytope": Polytope(rng.normal(size=(12, 3)))}
    a, b = np.eye(3) + 0.3 * rng.normal(size=(3, 3)), rng.uniform(-0.5, 0.5, 3)
    yield from inner.items()
    for kind, body in inner.items():
        yield "affine_image(%s)" % kind, AffineImage(a, b, body)


def oracles(body, k, rng):
    """(name, thunk) for each oracle of body on k rows, or on one point for
    k = 1."""
    shape = (3,) if k == 1 else (k, 3)
    c = body.center
    u = rng.normal(size=shape)
    x = c + 0.4 * rng.normal(size=shape)
    edge = body.boundary_from_center(u)
    z = c + 0.1 * (body.boundary_from_center(rng.normal(size=3)) - c)
    yield "support", lambda: body.support(u)
    yield "support_point", lambda: body.support_point(u)
    yield "gauge", lambda: body.gauge(x)
    if body.is_smooth:
        yield "normal_at", lambda: body.normal_at(edge)
    yield "boundary_from_center", lambda: body.boundary_from_center(u)
    yield "boundary_point", lambda: body.boundary_point(z, u)
    yield "line_min_gauge", lambda: body.line_min_gauge(x, u)
    if k == ROWS[-1]:
        return
    # planes through the interior point z, and chart rows on the first one's
    # section, from a base a fifth of the way to its boundary
    n = normalize(rng.normal(size=(k, 3)))
    offsets = n @ z
    plane = Hyperplane(n[0], offsets[0])
    sec = section(body, plane)
    w2 = rng.normal(size=shape[:-1] + (2,))
    base2 = 0.2 * sec.boundary2(np.array([1.0, 0.0]))
    if k == 1:
        yield "section", lambda: section(body, plane)
    else:
        yield "section", lambda: Sections(body, n, offsets)
    yield "support2", lambda: sec.support2(w2)
    yield "boundary2 from a base", lambda: sec.boundary2(w2, base2=base2)


def best_us(thunk, repeat):
    """The best of repeat timings of thunk, in microseconds per call."""
    t0 = perf_counter()
    thunk()
    number = max(1, int(SAMPLE_S / max(perf_counter() - t0, 1e-7)))
    return min(timeit.repeat(thunk, repeat=repeat, number=number)) / number * 1e6


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--repeat", type=int, default=5,
                    help="timings per oracle and row count; the best is printed")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    print("%-26s %-21s %10s %10s %10s   (best-of-%d us per call)"
          % (("body", "oracle") + tuple("%d rows" % k if k > 1 else "1 point"
                                        for k in ROWS) + (args.repeat,)))
    for label, body in bodies():
        times = {}
        for k in ROWS:
            for name, thunk in oracles(body, k, np.random.default_rng(k)):
                times.setdefault(name, []).append(best_us(thunk, args.repeat))
        for name, row in times.items():
            row += [np.nan] * (len(ROWS) - len(row))
            print("%-26s %-21s %10.1f %10.1f %10.1f" % ((label, name) + tuple(row)),
                  flush=True)


if __name__ == "__main__":
    main()
