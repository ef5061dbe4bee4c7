"""Metrics in geodesic normal coordinates centered at a point p.

A chart holds a metric field g on the ball B(0, radius) with g(0) = I and
g_ij(x) = delta_ij + O(|x|^2).  Radial lines are unit-speed geodesics, so the
distance to the center is |x| exactly.  Built-in families:

* ``euclidean``            g = I
* ``const_curvature``      sectional curvature K; tangential factor
                           (sn_K(rho)/rho)^2 with sn_K the K-sine
* ``perturbed``            g = I + eps * q(x) * (|x|^2 I - x x^T), |q| <= 1

All built-ins satisfy the Gauss lemma g(x) x = x exactly, which keeps the
radial direction unit and the chart a genuine normal-coordinate chart.
Rescaling by r (metric g(r .) on the enlarged ball) is represented by an
accumulated ``scale`` factor, so rescale-then-evaluate is bitwise identical
to evaluating the base chart at the rescaled point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalError

__all__ = [
    "NormalChart",
    "euclidean_chart",
    "constant_curvature_chart",
    "perturbed_chart",
    "rescale_chart",
    "metric_fields",
    "inverse_metric_and_density",
    "radial_log_density_derivative",
    "divergence_drift",
]

# Series coefficients for chi1(w) = ((sin sqrt(w)/sqrt(w))^2 - 1)/w, entire in w.
# chi1(w) = sum_{j>=0} b_j w^j with b_j = (-1)^{j+1} 2^{2j+3} / (2j+4)!.
_CHI1_TERMS = 40


def _chi1_coeffs():
    coef = np.empty(_CHI1_TERMS)
    fact = 24.0  # (2*0+4)! = 24
    coef[0] = -8.0 / fact
    for j in range(1, _CHI1_TERMS):
        fact *= (2 * j + 3) * (2 * j + 4)
        coef[j] = (-1) ** (j + 1) * 2.0 ** (2 * j + 3) / fact
    return coef


_CHI1_C = _chi1_coeffs()


def _chi1(w):
    """chi1 and its first derivative, vectorized; valid for |w| <~ 40."""
    w = np.asarray(w, dtype=float)
    if np.any(np.abs(w) > 40.0):
        raise NumericalError("curvature series argument out of range (|K| r^2 too large)")
    v0 = np.zeros_like(w)
    v1 = np.zeros_like(w)
    # Horner from the top coefficient down; v1 accumulates chi1' directly
    for j in range(_CHI1_TERMS - 1, -1, -1):
        v1 = v1 * w + v0
        v0 = v0 * w + _CHI1_C[j]
    return v0, v1


_PERTURBED_WAVE_DIR = np.array([1.0, 0.7, 0.4, 0.25, 0.15])


def _shape_q(shape, n, X):
    """Scalar field q with its gradient for the perturbed family."""
    m = X.shape[0]
    if shape == "const":
        return np.ones(m), np.zeros((m, n))
    if shape == "radial":
        u = np.sum(X * X, axis=1)
        f = 1.0 / (1.0 + u)
        return f, -2.0 * X * (f * f)[:, None]
    if shape == "wave":
        a = _PERTURBED_WAVE_DIR[:n]
        phase = X @ a
        return np.cos(phase), -np.sin(phase)[:, None] * a
    raise ValueError(f"unknown perturbation shape {shape!r}")


@dataclass(frozen=True, eq=False)
class NormalChart:
    """A metric field in geodesic normal coordinates, restricted to B(0, radius)."""

    dim: int
    radius: float
    family: str
    curvature: float = 0.0
    epsilon: float = 0.0
    shape: str = "wave"
    scale: float = 1.0

    def contains(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.sqrt(np.sum(X * X, axis=1)) < self.radius + 1e-12


def euclidean_chart(n, radius=1.0):
    _check_new_chart(n, radius)
    return NormalChart(dim=n, radius=float(radius), family="euclidean")


def constant_curvature_chart(n, K, radius=None):
    if radius is None:
        radius = 1.0
        if K > 0:
            radius = min(1.0, 0.9 * np.pi / np.sqrt(K))
    _check_new_chart(n, radius)
    if K > 0 and radius >= np.pi / np.sqrt(K):
        raise ValueError("chart radius exceeds the conjugate radius pi/sqrt(K)")
    return NormalChart(dim=n, radius=float(radius), family="const_curvature",
                       curvature=float(K))


def perturbed_chart(n, eps, shape="wave", radius=1.0):
    _check_new_chart(n, radius)
    if not 0.0 <= eps <= 0.1:
        raise ValueError("perturbation amplitude must lie in [0, 0.1] (keeps g SPD)")
    return NormalChart(dim=n, radius=float(radius), family="perturbed",
                       epsilon=float(eps), shape=shape)


def _check_new_chart(n, radius):
    # n = 1 is allowed for flat sanity cases even though curved geometry
    # only makes sense for n >= 2
    if int(n) != n or n < 1:
        raise ValueError("dimension must be a positive integer")
    if not 0.0 < radius <= 1.0:
        raise ValueError("chart radius must lie in (0, 1]")


# ---------------------------------------------------------------------------
# field evaluation


def _phi_field(chart, Z, order):
    """Scalar coefficient phi in g = I + phi (u I - x x^T), with its gradient.

    Returns (phi, dphi); dphi is None for order 0.
    """
    n = chart.dim
    m = Z.shape[0]
    if chart.family == "euclidean":
        return np.zeros(m), (np.zeros((m, n)) if order >= 1 else None)
    if chart.family == "const_curvature":
        K = chart.curvature
        u = np.sum(Z * Z, axis=1)
        c0, c1 = _chi1(K * u)
        dphi = (2.0 * K * K * c1)[:, None] * Z if order >= 1 else None
        return K * c0, dphi
    if chart.family == "perturbed":
        q, dq = _shape_q(chart.shape, n, Z)
        return chart.epsilon * q, (chart.epsilon * dq if order >= 1 else None)
    raise ValueError(f"unknown chart family {chart.family!r}")


def metric_fields(chart, X):
    """Vectorized metric at points X (m, n) in chart coordinates, as a dict
    with ``g`` (m,n,n)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Z = chart.scale * X
    phi, _ = _phi_field(chart, Z, 0)
    u = np.sum(Z * Z, axis=1)
    eye = np.eye(chart.dim)
    T = u[:, None, None] * eye - Z[:, :, None] * Z[:, None, :]
    return {"g": eye[None] + phi[:, None, None] * T}


def inverse_metric_and_density(chart, X):
    """(g_inv (m,n,n), sqrt_det (m,)) on a batch of points; hot path."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = chart.dim
    if chart.family == "euclidean":
        m = X.shape[0]
        return np.broadcast_to(np.eye(n), (m, n, n)), np.ones(m)
    Z = chart.scale * X
    phi, _ = _phi_field(chart, Z, 0)
    u = np.sum(Z * Z, axis=1)
    lam = 1.0 + phi * u          # tangential eigenvalue
    if np.any(lam <= 0.0):
        raise NumericalError("metric not positive definite at a sample point")
    ZZ = Z[:, :, None] * Z[:, None, :]
    g_inv = (np.eye(n)[None] + phi[:, None, None] * ZZ) / lam[:, None, None]
    dens = lam ** ((n - 1) / 2.0)
    return g_inv, dens


def volume_density(chart, X):
    return inverse_metric_and_density(chart, X)[1]


def radial_log_density_derivative(chart, X):
    """d/drho of log sqrt(det g) along the ray through each sample (m,)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = chart.dim
    if chart.family == "euclidean":
        return np.zeros(X.shape[0])
    s = chart.scale
    Z = s * X
    phi, dphi = _phi_field(chart, Z, 1)
    u = np.sum(Z * Z, axis=1)
    rho = np.sqrt(np.sum(X * X, axis=1))
    lam = 1.0 + phi * u
    with np.errstate(invalid="ignore", divide="ignore"):
        zhat = np.where(rho[:, None] > 0, X / np.where(rho[:, None] > 0, rho[:, None], 1.0), 0.0)
    dphi_r = np.einsum("mk,mk->m", dphi, zhat) * s
    du_r = 2.0 * np.einsum("mk,mk->m", Z, zhat) * s
    return (n - 1) / 2.0 * (dphi_r * u + phi * du_r) / lam


def divergence_drift(chart, X):
    """b^j = (1/dens) d_i(dens g^{ij}), the drift vector of the Laplace-Beltrami
    operator: Delta_g f = g^{ij} d_i d_j f + b^j d_j f.

    Closed form: with z = scale x, u = |z|^2 and lam = 1 + phi u, the metric
    g = I + phi (u I - z z^T) has g^{-1} = (I + phi z z^T) / lam and
    dens = lam^((n-1)/2), so with dlam = u dphi + 2 phi z
    b = scale ((n-1)/2 g^{-1} dlam / lam + d_i g^{ij}),
    d_i g^{ij} = ((z.dphi + (n+1) phi) z - g^{-1} dlam) / lam.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = chart.dim
    Z = chart.scale * X
    phi, dphi = _phi_field(chart, Z, 1)
    u = np.sum(Z * Z, axis=1)
    lam = (1.0 + phi * u)[:, None]
    dlam = u[:, None] * dphi + 2.0 * phi[:, None] * Z
    ginv_dlam = (dlam + (phi * np.sum(Z * dlam, axis=1))[:, None] * Z) / lam
    div_ginv = ((np.sum(Z * dphi, axis=1) + (n + 1) * phi)[:, None] * Z - ginv_dlam) / lam
    return chart.scale * ((n - 1) / 2.0 * ginv_dlam / lam + div_ginv)


def rescale_chart(chart, r):
    """Chart sampling g(r .), radius/r; pure reparametrization."""
    if not r > 0:
        raise ValueError("rescale factor must be positive")
    return replace(chart, radius=chart.radius / r, scale=chart.scale * r)
