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
    """Conic fit on 2-D points: fit_quadric in the plane, under its ellipse rule.

    model is [a, c, b, d, e, f] for a X^2 + b XY + c Y^2 + d X + e Y + f in
    normalized coordinates; detail adds disc = b^2 - 4ac = -4 det Q and, for
    an ellipse, the center in the input coordinates.
    """
    xy = np.asarray(xy, dtype=float)
    if xy.ndim != 2 or xy.shape[1] != 2:
        raise ValueError("xy must be (m, 2)")
    res = fit_quadric(xy, tol=tol)
    q = res.detail["form"]
    res.detail["disc"] = float(4.0 * (q[0, 1] ** 2 - q[0, 0] * q[1, 1]))
    if res.classification == ELLIPSE:
        res.detail["center"] = res.detail.pop("center_world")
    return res


def fit_planar_conic(points, plane, tol=DEFAULT_ELLIPSE_TOL):
    """Conic fit of coplanar 3-D points inside an orthonormal chart of plane."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("fit_planar_conic expects 3-D points")
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
    if "center" in res.detail:
        res.detail["center_world"] = origin + basis @ res.detail["center"]
    return res


def _upper_pairs(n):
    """Index arrays (i, j) of the pairs i < j < n, in row-major order."""
    return np.array([(i, j) for i in range(n) for j in range(i + 1, n)],
                    dtype=int).reshape(-1, 2).T


def quadric_design(z):
    """Monomial design matrix [x_i^2, x_i x_j (i<j), x_i, 1] for rows of z."""
    i, j = _upper_pairs(z.shape[1])
    return np.column_stack([z * z, z[:, i] * z[:, j], z, np.ones(len(z))])


def _quadric_form(coeffs, n):
    """Homogeneous (n+1) x (n+1) matrix F with [z, 1] F [z, 1]^T the fitted
    polynomial, for coefficients in quadric_design's column order."""
    form = np.zeros((n + 1, n + 1))
    i, j = _upper_pairs(n)
    form[range(n), range(n)] = coeffs[:n]
    form[i, j] = form[j, i] = coeffs[n:n + len(i)] / 2.0
    form[:n, n] = form[n, :n] = coeffs[n + len(i):-1] / 2.0
    form[n, n] = coeffs[-1]
    return form


def fit_quadric(points, tol=DEFAULT_ELLIPSE_TOL):
    """Quadric hypersurface fit in R^n; "ellipse" classification = ellipsoid.

    detail["form"] is the homogeneous matrix of the unit-norm fit in the
    rms-normalized coordinates (x - mu) / scale; an ellipsoid also gets its
    world center and trace-normalized world shape matrix (for homothety).
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
    form = _quadric_form(coeffs, n)
    if np.trace(form[:n, :n]) < 0:  # deterministic sign
        coeffs, form = -coeffs, -form
    q, half_lin, const = form[:n, :n], form[:n, n], form[n, n]
    resid = np.abs(design @ coeffs)
    rms = float(np.sqrt(np.mean(resid**2)))
    mx = float(resid.max())
    eig = np.linalg.eigvalsh(q)
    detail = {"mu": mu, "scale": scale, "eigenvalues": eig, "form": form}
    if eig[0] > 1e-8 * eig[-1] and rms < tol:
        center_n = np.linalg.solve(q, -half_lin)
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
