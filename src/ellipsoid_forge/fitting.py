"""Least-squares fits: hyperplanes, planar conics, general quadrics.

All residuals are reported relative to the point-cloud diameter (plane fits)
or on unit-norm coefficients over rms-normalized coordinates (conic/quadric
fits), so tolerance gates are scale free.
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


def fit_hyperplane(points):
    """Least-squares hyperplane through the centroid of an n-D point cloud.

    The normal is the smallest principal direction of the centered scatter;
    residuals are normal distances divided by the cloud diameter.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-D array")
    m, n = pts.shape
    if m < n + 1:
        raise DegenerateCloud("need at least n+1 points, got %d" % m)
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    u, s, vt = np.linalg.svd(centered, full_matrices=True)
    if s[0] == 0.0:
        raise DegenerateCloud("all points coincide")
    if n >= 2 and (len(s) < n - 1 or s[n - 2] <= 1e-12 * s[0]):
        raise DegenerateCloud("scatter rank below n-1; hyperplane not determined")
    normal = vt[-1]
    k = int(np.argmax(np.abs(normal)))
    if normal[k] < 0:
        normal = -normal
    dists = np.abs(centered @ normal)
    diam = cloud_diameter(pts)
    plane = Hyperplane(normal, float(np.dot(normal, centroid)))
    return FitResult(
        model=plane,
        rms_residual=float(np.sqrt(np.mean(dists**2)) / diam),
        max_residual=float(dists.max() / diam),
        classification=HYPERPLANE,
        detail={"diameter": diam, "centroid": centroid},
    )


def _normalize_cloud(x):
    mu = x.mean(axis=0)
    centered = x - mu
    scale = float(np.sqrt(np.mean(np.sum(centered**2, axis=1))))
    if scale == 0.0:
        raise DegenerateCloud("all points coincide")
    return centered / scale, mu, scale


def fit_conic_2d(xy, tol=DEFAULT_ELLIPSE_TOL):
    """Algebraic conic fit a X^2 + b XY + c Y^2 + d X + e Y + f on 2-D points.

    Coordinates are rms-normalized and the coefficient vector has unit norm,
    so residuals are dimensionless. Classification by the discriminant
    b^2 - 4ac; the ellipse verdict additionally requires rms below tol.
    """
    xy = np.asarray(xy, dtype=float)
    if xy.ndim != 2 or xy.shape[1] != 2:
        raise ValueError("xy must be (m, 2)")
    if xy.shape[0] < 6:
        raise DegenerateCloud("conic fit needs at least 6 points")
    z, mu, scale = _normalize_cloud(xy)
    x, y = z[:, 0], z[:, 1]
    design = np.column_stack([x * x, x * y, y * y, x, y, np.ones_like(x)])
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    if s[-2] <= 1e-13 * s[0]:
        raise DegenerateCloud("conic coefficients not determined by the cloud")
    coeffs = vt[-1]
    if coeffs[0] + coeffs[2] < 0:  # deterministic sign
        coeffs = -coeffs
    resid = np.abs(design @ coeffs)
    rms = float(np.sqrt(np.mean(resid**2)))
    mx = float(resid.max())
    a, b, c, d, e, f = coeffs
    disc = b * b - 4.0 * a * c
    detail = {"disc": float(disc), "mu": mu, "scale": scale}
    if disc < -1e-10:
        qmat = np.array([[2.0 * a, b], [b, 2.0 * c]])
        center_n = np.linalg.solve(qmat, -np.array([d, e]))
        detail["center"] = mu + scale * center_n
        # real (nonempty) ellipse: with a+c>0 the value at the center is negative
        value_at_center = (
            a * center_n[0] ** 2 + b * center_n[0] * center_n[1]
            + c * center_n[1] ** 2 + d * center_n[0] + e * center_n[1] + f
        )
        real_ellipse = value_at_center < 0.0
        classification = (
            ELLIPSE if (rms < tol and real_ellipse) else PARABOLA_OR_DEGENERATE
        )
    elif disc > 1e-10:
        classification = HYPERBOLA if rms < tol else PARABOLA_OR_DEGENERATE
    else:
        classification = PARABOLA_OR_DEGENERATE
    return FitResult(coeffs, rms, mx, classification, detail)


def fit_planar_conic(points, plane, tol=DEFAULT_ELLIPSE_TOL):
    """Conic fit of coplanar 3-D points inside an orthonormal chart of plane."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("fit_planar_conic expects 3-D points")
    if pts.shape[0] < 6:
        raise DegenerateCloud("conic fit needs at least 6 points")
    diam = cloud_diameter(pts)
    if diam == 0.0:
        raise DegenerateCloud("all points coincide")
    off = np.abs(pts @ plane.normal - plane.offset)
    if off.max() > 1e-9 * diam:
        raise NotCoplanar(
            "points deviate from the plane by %.3e relative" % (off.max() / diam)
        )
    basis = unit_frame(plane.normal)
    origin = plane.normal * plane.offset
    chart = (pts - origin) @ basis
    res = fit_conic_2d(chart, tol=tol)
    detail = dict(res.detail)
    detail["chart_origin"] = origin
    detail["chart_basis"] = basis
    if "center" in detail:
        detail["center_world"] = origin + basis @ detail["center"]
    return FitResult(res.model, res.rms_residual, res.max_residual,
                     res.classification, detail)


def quadric_design(z):
    """Monomial design matrix [x_i^2, x_i x_j (i<j), x_i, 1] for rows of z."""
    m, n = z.shape
    cols = [z[:, i] * z[:, i] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            cols.append(z[:, i] * z[:, j])
    cols.extend(z[:, i] for i in range(n))
    cols.append(np.ones(m))
    return np.column_stack(cols)


def _quadric_matrix(coeffs, n):
    q = np.zeros((n, n))
    k = 0
    for i in range(n):
        q[i, i] = coeffs[k]
        k += 1
    for i in range(n):
        for j in range(i + 1, n):
            q[i, j] = q[j, i] = coeffs[k] / 2.0
            k += 1
    lin = np.array(coeffs[k:k + n])
    const = coeffs[k + n]
    return q, lin, const


def fit_quadric(points, tol=DEFAULT_ELLIPSE_TOL):
    """Quadric hypersurface fit in R^n; "ellipse" classification = ellipsoid.

    The normalized quadratic-form matrix, world center, and trace-normalized
    world shape matrix land in detail for concentricity/homothety checks.
    """
    pts = np.asarray(points, dtype=float)
    m, n = pts.shape
    ncoef = n + n * (n - 1) // 2 + n + 1
    if m < ncoef + 2:
        raise DegenerateCloud("quadric fit needs at least %d points" % (ncoef + 2))
    z, mu, scale = _normalize_cloud(pts)
    design = quadric_design(z)
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    if s[-2] <= 1e-13 * s[0]:
        raise DegenerateCloud("quadric coefficients not determined by the cloud")
    coeffs = vt[-1]
    q, lin, const = _quadric_matrix(coeffs, n)
    if np.trace(q) < 0:
        coeffs = -coeffs
        q, lin, const = -q, -lin, -const
    resid = np.abs(design @ coeffs)
    rms = float(np.sqrt(np.mean(resid**2)))
    mx = float(resid.max())
    eig = np.linalg.eigvalsh(q)
    detail = {"mu": mu, "scale": scale, "eigenvalues": eig}
    if eig[0] > 1e-8 * eig[-1] and rms < tol:
        center_n = np.linalg.solve(q, -lin / 2.0)
        level = const - center_n @ q @ center_n
        if level < 0.0:  # nonempty real ellipsoid
            classification = ELLIPSE
            qw = q / (scale * scale)
            detail["center_world"] = mu + scale * center_n
            detail["shape_normalized"] = qw / np.trace(qw)
        else:
            classification = PARABOLA_OR_DEGENERATE
    elif eig[0] < -1e-8 * abs(eig).max() and rms < tol:
        classification = HYPERBOLA
    else:
        classification = PARABOLA_OR_DEGENERATE
    return FitResult(coeffs, rms, mx, classification, detail)
