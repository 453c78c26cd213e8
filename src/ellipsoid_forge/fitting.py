"""Least-squares fits: hyperplanes, planar conics, general quadrics.

All residuals are reported relative to the point-cloud diameter (plane fits)
or on unit-norm coefficients over rms-normalized coordinates (conic/quadric
fits), so tolerance gates are scale free.

Every fit takes one (m, n) cloud and gives one FitResult, or a (k, m, n)
stack of k clouds and gives a list of k FitResults from one batched SVD,
each equal to the fit of its cloud bit for bit; an error then names the
first row that fails its test.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateCloud, NotCoplanar
from .numeric import cloud_diameter, unit_frame
from .projective import Hyperplane

ELLIPSE = "ellipse"
PARABOLA_OR_DEGENERATE = "parabola-or-degenerate"
HYPERBOLA = "hyperbola"
HYPERPLANE = "hyperplane"

#: classification gate: "ellipse" needs normalized algebraic residual below this
DEFAULT_ELLIPSE_TOL = 1e-6


@dataclass(frozen=True)
class FitResult:
    """Fit outcome: model coefficients, residual norms, classification."""

    model: object
    rms_residual: float
    max_residual: float
    classification: str
    detail: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if self.rms_residual < 0 or self.max_residual < 0:
            raise ValueError("residuals must be nonnegative")


def _clouds(points, dim=None, what="points"):
    """points as a (k, m, n) stack, and whether they came as one cloud."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim not in (2, 3) or (dim is not None and pts.shape[-1] != dim):
        raise ValueError("%s must be (m, %s) or a (k, m, %s) stack; got %s"
                         % (what, dim or "n", dim or "n", pts.shape))
    return (pts[None], True) if pts.ndim == 2 else (pts, False)


def _check(bad, one, error, message, *values):
    """Raise error(message) for the first cloud flagged in bad, formatting
    that cloud's entry of each of values into message and naming its row
    in a stack."""
    if bad.any():
        r = int(np.argmax(bad))
        text = message % tuple(v[r] for v in values)
        raise error(text if one else "row %d: %s" % (r, text))


def _results(fits, one):
    return fits[0] if one else fits


def fit_hyperplane(points):
    """Least-squares hyperplane through the centroid of an n-D point cloud.

    The normal is the smallest principal direction of the centered scatter;
    residuals are normal distances divided by the cloud diameter.
    """
    pts, one = _clouds(points)
    k, m, n = pts.shape
    if m < n + 1:
        raise DegenerateCloud("need at least n+1 points, got %d" % m)
    centroid = pts.mean(axis=1)
    centered = pts - centroid[:, None]
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    _check(s[:, 0] == 0.0, one, DegenerateCloud, "all points coincide")
    if n >= 2:
        _check(s[:, n - 2] <= 1e-12 * s[:, 0], one, DegenerateCloud,
               "scatter rank below n-1; hyperplane not determined")
    normal = vt[:, -1]
    flip = normal[np.arange(k), np.argmax(np.abs(normal), axis=1)] < 0
    normal = normal * np.where(flip, -1.0, 1.0)[:, None]
    dists = np.abs(np.matmul(centered, normal[..., None])[..., 0])
    diam = cloud_diameter(pts)
    rms = np.sqrt(np.mean(dists**2, axis=1)) / diam
    mx = dists.max(axis=1) / diam
    offset = np.vecdot(normal, centroid)
    return _results([
        FitResult(model=Hyperplane(normal[r], offset[r]),
                  rms_residual=float(rms[r]), max_residual=float(mx[r]),
                  classification=HYPERPLANE,
                  detail={"diameter": float(diam[r]), "centroid": centroid[r]})
        for r in range(k)], one)


def fit_planar_conic(points, plane, tol=DEFAULT_ELLIPSE_TOL):
    """Conic fit of coplanar 3-D points inside an orthonormal chart of plane:
    fit_quadric on the chart points, under its ellipse rule. model is
    [a, c, b, d, e, f] for a X^2 + b XY + c Y^2 + d X + e Y + f in normalized
    chart coordinates; detail adds disc = b^2 - 4ac = -4 det Q and, for an
    ellipse, the center in the chart and center_world in R^3.

    A (k, m, 3) stack takes a sequence of k planes, one per cloud. The
    coincidence and coplanarity tests are scaled by the cloud's largest
    distance from its first point: O(m), zero exactly when all points
    coincide, and between half the diameter and the diameter, so the
    coplanarity test is no looser than one scaled by the diameter.
    """
    pts, one = _clouds(points, 3, "fit_planar_conic points")
    planes = [plane] if one else list(plane)
    if len(planes) != len(pts):
        raise ValueError("fit_planar_conic needs one plane per cloud; got %d "
                         "planes for %d clouds" % (len(planes), len(pts)))
    normal = np.array([p.normal for p in planes])
    offset = np.array([p.offset for p in planes])
    spread = pts - pts[:, :1]
    spread = np.sqrt(np.vecdot(spread, spread)).max(axis=1, initial=0.0)
    _check(spread == 0.0, one, DegenerateCloud, "all points coincide")
    off = np.abs(np.vecdot(pts, normal[:, None]) - offset[:, None]).max(axis=1)
    _check(off > 1e-9 * spread, one, NotCoplanar,
           "points deviate from the plane by %.3e relative", off / spread)
    basis = unit_frame(normal)
    origin = normal * offset[:, None]
    fits = _quadric_fits(np.matmul(pts - origin[:, None], basis), tol, one)
    for res, o, b in zip(fits, origin, basis):
        q = res.detail["form"]
        res.detail["disc"] = float(4.0 * (q[0, 1] ** 2 - q[0, 0] * q[1, 1]))
        if res.classification == ELLIPSE:
            res.detail["center"] = center = res.detail.pop("center_world")
            res.detail["center_world"] = o + b @ center
    return _results(fits, one)


def _upper_pairs(n):
    """Index arrays (i, j) of the pairs i < j < n, in row-major order."""
    return np.array([(i, j) for i in range(n) for j in range(i + 1, n)],
                    dtype=int).reshape(-1, 2).T


def quadric_design(z):
    """Monomial design matrix [x_i^2, x_i x_j (i<j), x_i, 1] for the rows of
    z, or for each cloud of a (k, m, n) stack."""
    i, j = _upper_pairs(z.shape[-1])
    return np.concatenate([z * z, z[..., i] * z[..., j], z,
                           np.ones(z.shape[:-1] + (1,))], axis=-1)


def _quadric_form(coeffs, n):
    """Homogeneous (..., n+1, n+1) matrices F with [z, 1] F [z, 1]^T the
    fitted polynomial, for (..., ncoef) coefficients in quadric_design's
    column order."""
    form = np.zeros(coeffs.shape[:-1] + (n + 1, n + 1))
    i, j = _upper_pairs(n)
    form[..., range(n), range(n)] = coeffs[..., :n]
    form[..., i, j] = form[..., j, i] = coeffs[..., n:n + len(i)] / 2.0
    form[..., :n, n] = form[..., n, :n] = coeffs[..., n + len(i):-1] / 2.0
    form[..., n, n] = coeffs[..., -1]
    return form


def fit_quadric(points, tol=DEFAULT_ELLIPSE_TOL):
    """Quadric hypersurface fit in R^n; "ellipse" classification = ellipsoid.

    detail["form"] is the homogeneous matrix of the unit-norm fit in the
    rms-normalized coordinates (x - mu) / scale; an ellipsoid also gets its
    world center and trace-normalized world shape matrix (for homothety).
    """
    pts, one = _clouds(points)
    return _results(_quadric_fits(pts, tol, one), one)


def _quadric_fits(pts, tol, one):
    """fit_quadric's results for each cloud of the (k, m, n) stack pts."""
    k, m, n = pts.shape
    ncoef = n + n * (n - 1) // 2 + n + 1
    if m < ncoef + 2:
        raise DegenerateCloud("quadric fit needs at least %d points" % (ncoef + 2))
    mu = pts.mean(axis=1)
    centered = pts - mu[:, None]
    scale = np.sqrt(np.mean(np.sum(centered**2, axis=2), axis=1))
    _check(scale == 0.0, one, DegenerateCloud, "all points coincide")
    design = quadric_design(centered / scale[:, None, None])
    _, s, vt = np.linalg.svd(design, full_matrices=False)
    _check(s[:, -2] <= 1e-13 * s[:, 0], one, DegenerateCloud,
           "quadric coefficients not determined by the cloud")
    coeffs = vt[:, -1]
    form = _quadric_form(coeffs, n)
    # deterministic sign: the quadratic part has a nonnegative trace
    sign = np.where(np.trace(form[:, :n, :n], axis1=1, axis2=2) < 0, -1.0, 1.0)
    coeffs, form = coeffs * sign[:, None], form * sign[:, None, None]
    q, half_lin, const = form[:, :n, :n], form[:, :n, n], form[:, n, n]
    resid = np.abs(np.matmul(design, coeffs[..., None])[..., 0])
    rms = np.sqrt(np.mean(resid**2, axis=1))
    mx = resid.max(axis=1)
    eig = np.linalg.eigvalsh(q)
    fit = rms < tol
    definite = fit & (eig[:, 0] > 1e-8 * eig[:, -1])
    cls = np.full(k, PARABOLA_OR_DEGENERATE, dtype=object)
    cls[fit & ~definite & (eig[:, 0] < -1e-8 * np.abs(eig).max(axis=1))] = HYPERBOLA
    # a definite form is an ellipsoid when its level set is a nonempty real one
    e = np.flatnonzero(definite)
    center_n = np.linalg.solve(q[e], -half_lin[e][..., None])[..., 0]
    level = const[e] - (center_n[:, None] @ q[e] @ center_n[..., None])[:, 0, 0]
    e, center_n = e[level < 0.0], center_n[level < 0.0]
    cls[e] = ELLIPSE
    qw = q[e] / (scale[e] * scale[e])[:, None, None]
    shape = qw / np.trace(qw, axis1=1, axis2=2)[:, None, None]
    center = mu[e] + scale[e, None] * center_n
    details = [{"mu": mu[r], "scale": float(scale[r]), "eigenvalues": eig[r],
                "form": form[r]} for r in range(k)]
    for r, c, sh in zip(e, center, shape):
        details[r].update(center_world=c, shape_normalized=sh)
    return [FitResult(coeffs[r], float(rms[r]), float(mx[r]), cls[r], details[r])
            for r in range(k)]
