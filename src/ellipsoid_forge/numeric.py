"""Deterministic direction sampling, frames, and small numeric helpers."""

import numpy as np
from scipy.special import ndtri
from scipy.stats import qmc


def normalize(v):
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return v / n


def unit_frame(u):
    """Orthonormal columns spanning the complement of the unit vector u.

    Deterministic: built from the identity columns away from the largest
    component of u, Gram-Schmidt'ed in index order. Returns an (n, n-1) array.
    """
    u = normalize(u)
    n = u.shape[0]
    skip = int(np.argmax(np.abs(u)))
    cols = []
    for k in range(n):
        if k == skip:
            continue
        v = np.zeros(n)
        v[k] = 1.0
        v = v - np.dot(v, u) * u
        for w in cols:
            v = v - np.dot(v, w) * w
        cols.append(normalize(v))
    return np.column_stack(cols)


def rotation_from_seed(n, seed):
    """Deterministic random rotation matrix (proper, det=+1)."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def circle_directions(m, seed=0):
    """m unit vectors in the plane, equally spaced, seed-rotated."""
    rng = np.random.default_rng(seed)
    phi0 = rng.uniform(0.0, 2.0 * np.pi)
    t = phi0 + 2.0 * np.pi * np.arange(m) / m
    return np.column_stack([np.cos(t), np.sin(t)])


def sphere_directions(n, m, seed=0):
    """m quasi-uniform unit vectors in R^n, deterministic for a given seed.

    n=2 uses the rotated regular polygon; n=3 a Fibonacci lattice under a
    seed-derived rotation; higher n falls back to a Sobol/normal construction.
    """
    if n == 2:
        return circle_directions(m, seed)
    if n == 3:
        # Fibonacci sphere, then a random rotation so no sample axis is special.
        i = np.arange(m, dtype=float) + 0.5
        z = 1.0 - 2.0 * i / m
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        golden = np.pi * (3.0 - np.sqrt(5.0))
        t = golden * i
        pts = np.column_stack([r * np.cos(t), r * np.sin(t), z])
        return pts @ rotation_from_seed(3, seed).T
    eng = qmc.Sobol(d=n, scramble=True, seed=seed)
    u = eng.random(m)
    g = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return g / norms


def pairwise_sq_dists(p, q):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    d = p[:, None, :] - q[None, :, :]
    return np.einsum("ijk,ijk->ij", d, d)


def hausdorff(p, q):
    """Symmetric Hausdorff distance between two finite point clouds."""
    d2 = pairwise_sq_dists(p, q)
    return float(np.sqrt(max(d2.min(axis=1).max(), d2.min(axis=0).max())))


def cloud_diameter(p):
    """Exact max pairwise distance; fine for the few hundred points we use."""
    p = np.asarray(p, dtype=float)
    if len(p) < 2:
        return 0.0
    return float(np.sqrt(pairwise_sq_dists(p, p).max()))


def angle_between(u, v):
    """Angle in [0, pi] between two nonzero vectors.

    Kahan's 2*atan2 form: full precision near 0 and pi, where arccos of a
    rounded cosine loses half the digits.
    """
    a, b = normalize(u), normalize(v)
    return float(2.0 * np.arctan2(np.linalg.norm(a - b), np.linalg.norm(a + b)))


def line_angle(u, v):
    """Angle in [0, pi/2] between two directions regarded as unoriented lines."""
    a = angle_between(u, v)
    return min(a, np.pi - a)


def floored(value, floor):
    """Report max(value, floor) for a nonnegative residual; zero stays zero.

    The floor stabilizes noise-level residuals under sample refinement; it sits
    below every verdict gate, and verdicts are always taken on the raw value.
    """
    if value <= 0.0:
        return 0.0
    return float(max(value, floor))


def require_sizes(what, sizes, least=None):
    """Sample sizes as ints; raise ValueError naming what and the size when
    one is below its least value, by default 1 (an empty sample passes every
    test that loops over it)."""
    for name, size in sizes.items():
        low = (least or {}).get(name, 1)
        if size < low:
            raise ValueError("%s needs %s >= %d; got %s" % (what, name, low, size))
    return {name: int(size) for name, size in sizes.items()}
