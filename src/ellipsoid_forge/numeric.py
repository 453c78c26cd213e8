"""Deterministic direction sampling, frames, and small numeric helpers."""

import math
import numbers
from types import SimpleNamespace

import numpy as np

from .errors import GeometryError, NoSignChange


def _value(a):
    """One answer per row: a Python float for a 0-d result, else the array."""
    return a if a.ndim else float(a)


def normalize(v):
    """v / |v| along the last axis, so row by row for an (..., n) array."""
    v = np.asarray(v, dtype=float)
    n = np.sqrt(np.vecdot(v, v))
    if not (np.count_nonzero(n) == n.size if n.ndim else n):
        raise ValueError("cannot normalize the zero vector")
    return v / n[..., None] if n.ndim else v / n


def unit_frame(u):
    """Orthonormal columns spanning the complement of the unit vector u, or
    of each row of a (..., n) array of them: shape (n, n-1) or (..., n, n-1).

    Deterministic: built from the identity columns away from the largest
    component of u, Gram-Schmidt'ed in index order, one column for every
    row at once.
    """
    u = normalize(u)
    n = u.shape[-1]
    skip = np.abs(u).argmax(axis=-1)
    eye, frame = np.eye(n), np.empty(u.shape + (n - 1,))
    for k in range(n - 1):
        v = eye[k + (k >= skip)]
        v = v - np.vecdot(v, u)[..., None] * u
        for j in range(k):
            v = v - np.vecdot(v, frame[..., j])[..., None] * frame[..., j]
        frame[..., k] = normalize(v)
    return frame


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
    seed-derived rotation; higher n takes normalised Gaussian rows.
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
    g = np.random.default_rng(seed).standard_normal((m, n))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def pairwise_sq_dists(p, q):
    """Squared distances between the rows of p and q, or between those of
    each pair of clouds in two (..., m, n) stacks."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    d = p[..., :, None, :] - q[..., None, :, :]
    return np.einsum("...ijk,...ijk->...ij", d, d)


def hausdorff(p, q):
    """Symmetric Hausdorff distance between two finite point clouds."""
    d2 = pairwise_sq_dists(p, q)
    return float(np.sqrt(max(d2.min(axis=1).max(), d2.min(axis=0).max())))


def cloud_diameter(p):
    """Exact max pairwise distance of an (m, n) cloud, or of each cloud of a
    (..., m, n) stack; O(m^2), fine for the few hundred points we use."""
    p = np.asarray(p, dtype=float)
    if p.shape[-2] < 2:
        return _value(np.zeros(p.shape[:-2]))
    return _value(np.sqrt(pairwise_sq_dists(p, p).max(axis=(-2, -1))))


def angle_between(u, v):
    """Angle in [0, pi] between two nonzero vectors, or one per row of two
    (..., n) arrays: a float for one pair, an array of shape (...) for rows.

    Kahan's 2*atan2 form: full precision near 0 and pi, where arccos of a
    rounded cosine loses half the digits.
    """
    a, b = normalize(u), normalize(v)
    dif, tot = a - b, a + b
    return _value(2.0 * np.arctan2(np.sqrt(np.vecdot(dif, dif)),
                                   np.sqrt(np.vecdot(tot, tot))))


def line_angle(u, v):
    """Angle in [0, pi/2] between two directions regarded as unoriented lines,
    or one per row of two (..., n) arrays: a float or an array, as angle_between."""
    a = angle_between(u, v)
    return _value(np.minimum(a, np.pi - a))


def floored(value, floor):
    """Report max(value, floor) for a nonnegative residual; zero stays zero.

    The floor stabilizes noise-level residuals under sample refinement; it sits
    below every verdict gate, and verdicts are always taken on the raw value.
    """
    if value <= 0.0:
        return 0.0
    return float(max(value, floor))


def find_root(f, init, tolerances=None, maxiter=None, f_init=None):
    """Roots of f(x, r) = 0, one per row, each on its bracket init = (a, b).

    Chandrupatla's bracketed method (Chandrupatla 1997, Adv. Eng. Software
    28(3)) over rows in plain numpy, with the arithmetic, defaults and
    termination tests of scipy's elementwise find_root, so both give
    the same x, status, bracket, nit and nfev. a and b broadcast together;
    f gets x on the rows still active and r, their flat row indices, so
    that it can look up each row's own data. tolerances may set xatol
    (default 4 * smallest normal), xrtol (4 * eps), fatol (smallest normal)
    and frtol (0, scaled by min(|f(a)|, |f(b)|)). Status per row: 0
    converged, -1 no sign change, -2 iteration limit, -3 not finite.

    A caller that has f at the bracket ends already, as the restriction
    solve has its bracket slopes, passes them as f_init = (f(a), f(b)),
    broadcasting like a and b: f is then not called on them, and nfev
    still counts them, so the result is the same as without f_init.

    Even a one-row call costs about 0.3 ms, so callers gather their points
    into the rows of one call."""
    finfo = np.finfo(float)
    tol = dict(xatol=4 * finfo.smallest_normal, xrtol=4 * finfo.eps,
               fatol=finfo.smallest_normal, frtol=0.0)
    tol.update(tolerances or {})
    if maxiter is None:
        maxiter = math.log2(finfo.max) - math.log2(finfo.smallest_normal)
    x1, x2 = np.broadcast_arrays(*init)
    shape = x1.shape
    x1, x2 = (np.array(x, dtype=float).ravel() for x in (x1, x2))
    n = x1.size
    active = np.arange(n)
    if f_init is None:
        f1, f2 = (np.asarray(f(x, active), dtype=float).ravel() for x in (x1, x2))
    else:
        f1, f2 = (np.broadcast_to(np.asarray(y, dtype=float), shape).ravel()
                  for y in f_init)
    # the active rows' state: x1, f1, x2, f2, x3, f3 and the f tolerance,
    # compacted with one take when rows stop
    s = np.zeros((7, n))
    s[0], s[1], s[2], s[3] = x1, f1, x2, f2
    s[6] = tol["fatol"] + tol["frtol"] * np.minimum(np.abs(f1), np.abs(f2))
    # with xrtol 0 the x tolerance is xatol on every row: |x| * 0 + xatol is
    # NaN only at a non-finite end, and the -3 test stops that row first
    xrtol, xatol = tol["xrtol"], tol["xatol"]
    xtol = xatol
    # each stopped row's x1, f1, x2, f2 and nit; its outputs follow after the loop
    final = np.empty((4, n))
    status, nit_out = np.zeros(n, np.int32), np.empty(n, np.int32)
    nit, t, nonfinite = 0, 0.5, True
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            x1, f1, x2, f2, x3, f3, ftol = s
            # termination tests, in scipy's order: |f| within its tolerance
            # (status 0); else no sign change (-1) or a non-finite end or
            # both f NaN (-3); else the bracket within xtol (0); else the
            # iteration limit (-2)
            af1, af2 = np.abs(f1), np.abs(f2)
            i = af1 < af2
            converged = np.where(i, af1, af2) <= ftol
            d21 = x2 - x1
            dx = np.abs(d21)
            if xrtol:
                xtol = np.abs(np.where(i, x1, x2)) * xrtol + xatol
            stop = converged | (dx < xtol)
            if nonfinite:
                bad = ((~(np.isfinite(x1) & np.isfinite(x2))
                        | (np.isnan(f1) & np.isnan(f2))) & ~converged)
                status[active[bad]], stop = -3, stop | bad
            if not nit:  # scipy's first failure test, so its -1 wins over -3
                # a step keeps f1 and f2 of opposite signs: it replaces the
                # end whose sign f(x) shares, and a NaN matches no sign. So
                # only the first bracket can lack a sign change.
                bad = (np.sign(f1) == np.sign(f2)) & ~converged
                status[active[bad]], stop = -1, stop | bad
            if nit >= maxiter:
                status[active[~stop]] = -2
                stop = np.ones_like(stop)
            if np.count_nonzero(stop):
                done = stop.nonzero()[0]
                final[:, active[done]] = s[:4].take(done, axis=1)
                nit_out[active[done]] = nit
                keep = (~stop).nonzero()[0]
                active, d21, dx = active[keep], d21[keep], dx[keep]
                if xrtol:
                    xtol = xtol[keep]
                s = s.take(keep, axis=1)
                x1, f1, x2, f2, x3, f3, ftol = s
            if not active.size:
                break
            if nit:
                # inverse quadratic step where it is accepted, else
                # bisection; x1 - x2 = -d21 and f2 - f3 = -(f3 - f2) exactly
                f12, f32 = f1 - f2, f3 - f2
                xi1 = d21 / (x2 - x3)
                phi1 = f12 / f32
                alpha = (x3 - x1) / d21
                j = ((1 - np.sqrt(1 - xi1)) < phi1) & (phi1 < np.sqrt(xi1))
                t = np.where(j, f1 / f12 * f3 / f32
                             + alpha * f1 / (f3 - f1) * f2 / f32, 0.5)
                tl = 0.5 * xtol / dx
                t = np.minimum(np.maximum(t, tl), 1 - tl)
            x = x1 + t * d21
            fx = np.asarray(f(x, active), dtype=float)
            # ends stay finite, and f1 is the newest f: -3 needs this x or f(x)
            nonfinite = np.count_nonzero(np.isfinite(x + fx)) < x.size
            # the end whose sign f(x) shares becomes x3; x takes its place
            ends = s[:4].reshape(2, 2, -1)
            j = np.sign(fx) == np.sign(f1)
            s[4:6], s[2:4] = np.where(j, ends, ends[::-1])
            s[0], s[1] = x, fx
            nit += 1
    # x is the end of least |f|, NaN on a failed row; the bracket is (left, right)
    (x1, f1), (x2, f2) = ends = final.reshape(2, 2, -1)
    x, f_x = np.where((status == -1) | (status == -3), np.nan,
                      np.where(np.abs(f1) < np.abs(f2), ends[0], ends[1]))
    lo, hi = np.where(x1 < x2, ends, ends[::-1])

    def shaped(v):
        return v.reshape(shape)[()]
    return SimpleNamespace(
        x=shaped(x), f_x=shaped(f_x), status=shaped(status),
        success=shaped(status == 0), nit=shaped(nit_out), nfev=shaped(nit_out + 2),
        bracket=(shaped(lo[0]), shaped(hi[0])),
        f_bracket=(shaped(lo[1]), shaped(hi[1])))


def check_roots(sol, where, f, bracket="the bracket"):
    """Raise for the first row of a find_root result that did not converge:
    NoSignChange when f has no sign change on its bracket, else
    GeometryError. where(r) names row r in the message."""
    failed = np.flatnonzero(sol.status)
    if failed.size:
        r, status = int(failed[0]), int(sol.status[failed[0]])
        why = {-1: "%s has no sign change on %s" % (f, bracket),
               -2: "the root solve hit its iteration limit",
               -3: "%s is not finite" % f}.get(status, "failed")
        raise (NoSignChange if status == -1 else GeometryError)(
            "%s: %s (find_root status %d)" % (where(r), why, status))


def require_sizes(what, sizes, least=None):
    """Sample sizes as ints; raise ValueError naming what and the size when
    one is not an integer, or is below its least value, by default 1 (an
    empty sample passes every test that loops over it)."""
    for name, size in sizes.items():
        if not isinstance(size, numbers.Integral):
            raise ValueError("%s needs %s to be an integer; got %s"
                             % (what, name, size))
        low = (least or {}).get(name, 1)
        if size < low:
            raise ValueError("%s needs %s >= %d; got %s" % (what, name, low, size))
    return {name: int(size) for name, size in sizes.items()}
