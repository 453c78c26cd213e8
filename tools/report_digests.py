"""Print the sha1 of each report's to_json for a fixed set of check runs.

Run from the repository root:

    python3 tools/report_digests.py

One line per run: the digest, then the run's label. Two trees print the same
lines exactly when their reports are byte-identical, so a refactor that must
keep every number is checked by diffing this output before and after it.

The runs are the 13 L3 cases of perfbench (read, never changed) and 11
configurations that reach the off-centre, affine and skip paths of the
section and cone stages.
"""

import hashlib
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from ellipsoid_forge import theorems  # noqa: E402
from ellipsoid_forge.bodies import AffineImage, Ellipsoid, PBall  # noqa: E402

import workloads  # noqa: E402

A = np.array([[1.2, 0.3, 0.0], [0.0, 1.0, 0.2], [0.1, 0.0, 0.9]])
B = np.array([0.1, -0.2, 0.3])
P_OFF = np.array([0.1, 0.05, -0.03])


def aff(body):
    return AffineImage(A, B, body)


def l4(r=1.0):
    return PBall(4.0, (r, r, r))


def e149():
    return Ellipsoid(np.zeros(3), np.diag([1.0, 4.0, 9.0]))


def runs():
    """(label, thunk) for every run, in print order."""
    for workload in ("cone-sweeps", "section-sweeps", "polytope-oracles"):
        for case in workloads.l3_cases(workload):
            yield "L3 " + case.label, case.run
    t = theorems
    yield "t2 off-centre l4", lambda: t.check_theorem2(
        Ellipsoid.ball(0.5), l4(), P_OFF)
    yield "t2 affine off-centre", lambda: t.check_theorem2(
        aff(Ellipsoid.ball(2.0 ** -0.5)), aff(Ellipsoid.ball(1.0)), B + P_OFF,
        apexes=6, m=32, chords=16, radon_k=48)
    yield "t2 all-miss", lambda: t.check_theorem2(
        Ellipsoid.ball(0.01), Ellipsoid.ball(1.0), [0.9, 0.0, 0.0], apexes=12,
        m=32, chords=12, radon_k=16)
    yield "t4 affine ball", lambda: t.check_theorem4(aff(Ellipsoid.ball(2.0)), 0.8)
    yield "t4 l4(2)", lambda: t.check_theorem4(l4(2.0), 0.8)
    yield "basico l4 off-centre", lambda: t.check_theorem_basico(l4(), P_OFF)
    yield "basico affine e149", lambda: t.check_theorem_basico(aff(e149()), B)
    yield "radon affine l4", lambda: t.check_theorem_radon(aff(l4()))
    yield "radon p3(1,2,3)", lambda: t.check_theorem_radon(PBall(3.0, (1.0, 2.0, 3.0)))
    yield "t1 affine balls", lambda: t.check_theorem1(
        aff(Ellipsoid.ball(0.5)), aff(Ellipsoid.ball(2.0)))
    yield "t3 affine balls", lambda: t.check_theorem3(
        aff(Ellipsoid.ball(0.5)), aff(Ellipsoid.ball(2.0)))


def main():
    for label, run in runs():
        digest = hashlib.sha1(run().to_json().encode()).hexdigest()
        print("%s  %s" % (digest, label), flush=True)


if __name__ == "__main__":
    main()
