"""Shared bodies and helpers. Bodies are immutable, so session scope is safe."""

import numpy as np
import pytest
from hypothesis import settings

from ellipsoid_forge import AffineImage, Ellipsoid, PBall, bodies, cones, planar, theorems
from ellipsoid_forge.numeric import find_root

# every property test draws the same examples on every run, so two runs of
# one commit test the same inputs; a slow example is not a failure
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


class SolveLog(list):
    """(module, rows) of each find_root call, in call order."""

    def rows(self, module):
        """The row counts of the solves that module made."""
        return [rows for mod, rows in self if mod == module]


@pytest.fixture
def solves(monkeypatch):
    """A SolveLog that every find_root call of bodies, cones, planar and
    theorems appends to while the test runs."""
    log = SolveLog()
    for mod in (bodies, cones, planar, theorems):
        def counted(f, init, *args, _name=mod.__name__.rsplit(".", 1)[-1], **kwargs):
            log.append((_name, len(init[0])))
            return find_root(f, init, *args, **kwargs)
        monkeypatch.setattr(mod, "find_root", counted)
    return log


@pytest.fixture(scope="session")
def unit_ball():
    return Ellipsoid(np.zeros(3), np.eye(3))


@pytest.fixture(scope="session")
def ball2():
    return Ellipsoid(np.zeros(3), np.eye(3) / 4.0)


@pytest.fixture(scope="session")
def ball3():
    return Ellipsoid(np.zeros(3), np.eye(3) / 9.0)


@pytest.fixture(scope="session")
def ellipsoid149():
    # semi-axes 1, 1/2, 1/3
    return Ellipsoid(np.zeros(3), np.diag([1.0, 4.0, 9.0]))


@pytest.fixture(scope="session")
def l4_unit():
    return PBall(4.0, (1.0, 1.0, 1.0))


@pytest.fixture(scope="session")
def l4_half():
    return PBall(4.0, (0.5, 0.5, 0.5))


@pytest.fixture(scope="session")
def l4_double():
    return PBall(4.0, (2.0, 2.0, 2.0))


def random_affine(seed, dim=3, translate=True):
    """Invertible A with singular values in [0.7, 1.5] and a bounded shift.

    Built as U diag(s) V so rotations, anisotropic scalings, and shears all
    occur while the condition number stays small enough that cone sections
    remain bounded.
    """
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    v, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    a = u @ np.diag(rng.uniform(0.7, 1.5, size=dim)) @ v
    b = rng.uniform(-0.5, 0.5, size=dim) if translate else np.zeros(dim)
    return a, b


def map_body(body, a, b):
    return AffineImage(a, b, body)
