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
A chart is never rescaled: the parabolic rescaling at scale r evaluates the
chart itself at r x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError

__all__ = [
    "NormalChart",
    "euclidean_chart",
    "constant_curvature_chart",
    "perturbed_chart",
    "InverseMetric",
    "metric_fields",
    "inverse_metric_and_density",
    "radial_log_density_derivative",
    "divergence_drift",
]

# chi1(w) = ((sin sqrt(w)/sqrt(w))^2 - 1)/w, entire in w (sinh of sqrt(-w) for
# w < 0).  The closed form loses about eps/|w| to the cancellation in s^2 - 1,
# so below |w| = _CHI1_SERIES the first _CHI1_TERMS terms of its series,
# b_j = (-1)^(j+1) 2^(2j+3) / (2j+4)!, serve instead; both parts stay within
# 3e-15 relative of the exact value and derivative on |w| <= _CHI1_RANGE.
_CHI1_SERIES = 2.0
_CHI1_TERMS = 12
# The range of w on which chi1 is evaluated (|K| r^2 of the built-in charts).
_CHI1_RANGE = 40.0


def _chi1_coeffs():
    coef = np.empty(_CHI1_TERMS)
    fact = 24.0  # (2*0+4)! = 24
    coef[0] = -8.0 / fact
    for j in range(1, _CHI1_TERMS):
        fact *= (2 * j + 3) * (2 * j + 4)
        coef[j] = (-1) ** (j + 1) * 2.0 ** (2 * j + 3) / fact
    return coef


_CHI1_C = _chi1_coeffs()


def _chi1(w, order):
    """chi1 and, for order >= 1, its first derivative (else None), vectorized;
    valid for |w| <= _CHI1_RANGE.  With s = sin(x)/x and c = cos(x) at
    x = sqrt(w) (sinh and cosh at sqrt(-w) for w < 0), chi1 = (s^2 - 1)/w and
    chi1' = ((s c - s^2)/w - chi1)/w; the series gives both near 0."""
    w = np.asarray(w, dtype=float)
    if np.any(np.abs(w) > _CHI1_RANGE):
        raise NumericalError("curvature series argument out of range (|K| r^2 too large)")
    near = np.abs(w) < _CHI1_SERIES
    value = np.empty_like(w)
    deriv = np.empty_like(w) if order >= 1 else None
    # series: Horner from the top coefficient down, v1 accumulating chi1'
    w_near = w[near]
    v0 = np.zeros_like(w_near)
    v1 = np.zeros_like(w_near)
    for b in _CHI1_C[::-1]:
        if deriv is not None:
            v1 = v1 * w_near + v0
        v0 = v0 * w_near + b
    value[near] = v0
    # closed form
    far = ~near
    w_far = w[far]
    x = np.sqrt(np.abs(w_far))
    s = np.where(w_far > 0.0, np.sin(x), np.sinh(x)) / x
    s_sq = s * s
    chi = (s_sq - 1.0) / w_far
    value[far] = chi
    if deriv is not None:
        deriv[near] = v1
        c = np.where(w_far > 0.0, np.cos(x), np.cosh(x))
        deriv[far] = ((s * c - s_sq) / w_far - chi) / w_far
    return value, deriv


_PERTURBED_WAVE_DIR = np.array([1.0, 0.7, 0.4, 0.25, 0.15])


def _const_q(X):
    return np.ones(X.shape[:-1]), np.zeros(X.shape)


def _radial_q(X):
    u = np.sum(X * X, axis=-1)
    f = 1.0 / (1.0 + u)
    return f, -2.0 * X * (f * f)[..., None]


def _wave_q(X):
    a = _PERTURBED_WAVE_DIR[:X.shape[-1]]
    phase = X @ a
    return np.cos(phase), -np.sin(phase)[..., None] * a


# perturbation shape -> scalar field q(X), |q| <= 1, with its gradient
_SHAPE_FIELDS = {"const": _const_q, "radial": _radial_q, "wave": _wave_q}


@dataclass(frozen=True, eq=False)
class NormalChart:
    """A metric field in geodesic normal coordinates, restricted to B(0, radius)."""

    dim: int
    radius: float
    family: str
    curvature: float = 0.0
    epsilon: float = 0.0
    shape: str = "wave"


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
        raise ConfigError("chart radius exceeds the conjugate radius pi/sqrt(K)",
                          key="manifold.K")
    # grids sample the cube [-radius, radius]^n, whose corners have
    # |x|^2 = n radius^2
    if abs(K) * n * radius ** 2 > _CHI1_RANGE:
        raise ConfigError(f"|K| n radius^2 must not exceed {_CHI1_RANGE:g}, the "
                          "range of the curvature series", key="manifold.K")
    return NormalChart(dim=n, radius=float(radius), family="const_curvature",
                       curvature=float(K))


def perturbed_chart(n, eps, shape="wave", radius=1.0):
    _check_new_chart(n, radius)
    if not 0.0 <= eps <= 0.1:
        raise ConfigError("perturbation amplitude must lie in [0, 0.1] (keeps g SPD)",
                          key="manifold.epsilon")
    if shape not in _SHAPE_FIELDS:
        raise ConfigError(f"unknown perturbation shape {shape!r} "
                          f"(known: {', '.join(_SHAPE_FIELDS)})", key="manifold.shape")
    return NormalChart(dim=n, radius=float(radius), family="perturbed",
                       epsilon=float(eps), shape=shape)


def _check_new_chart(n, radius):
    # n = 1 is allowed for flat sanity cases even though curved geometry
    # only makes sense for n >= 2
    if int(n) != n or n < 1:
        raise ConfigError("dimension must be a positive integer", key="manifold.n")
    if not 0.0 < radius <= 1.0:
        raise ConfigError("chart radius must lie in (0, 1]", key="manifold.delta_p")


# ---------------------------------------------------------------------------
# field evaluation


def _phi_field(chart, Z, u, order):
    """Scalar coefficient phi in g = I + phi (u I - z z^T), with its gradient.

    Returns (phi, dphi); dphi is None for order 0.
    """
    if chart.family == "euclidean":
        return np.zeros(Z.shape[:-1]), (np.zeros(Z.shape) if order >= 1 else None)
    if chart.family == "const_curvature":
        K = chart.curvature
        c0, c1 = _chi1(K * u, order)
        dphi = (2.0 * K * K * c1)[..., None] * Z if order >= 1 else None
        return K * c0, dphi
    if chart.family == "perturbed":
        q, dq = _SHAPE_FIELDS[chart.shape](Z)
        return chart.epsilon * q, (chart.epsilon * dq if order >= 1 else None)
    raise ValueError(f"unknown chart family {chart.family!r}")


def _dot(a, b):
    """Dot products of the vectors on the last axis of a and b, summed over
    the components in order; the leading axes broadcast."""
    return sum(a[..., i] * b[..., i] for i in range(a.shape[-1]))


@dataclass(frozen=True, eq=False)
class InverseMetric:
    """g^{-1} = (I + phi z z^T) / lam at points of any leading shape, z = x
    (..., m, n) and lam = 1 + phi |z|^2: the Gauss lemma makes the inverse of
    every built-in metric rank one over the identity, so no (m, n, n) array is
    needed.  ``form`` and ``entry`` broadcast over leading axes."""

    z: np.ndarray
    phi: np.ndarray
    lam: np.ndarray

    def form(self, v):
        """v^T g^{-1} v for vectors v (..., m, n) at the points."""
        return (_dot(v, v) + self.phi * _dot(self.z, v) ** 2) / self.lam

    def entry(self, i, j):
        """g^{ij} at every point (..., m)."""
        return (float(i == j) + self.phi * (self.z[..., i] * self.z[..., j])) / self.lam


def _rank_one(chart, X, order):
    """(z, phi, dphi, |z|^2, lam) at points X: z = x, phi with its gradient
    (None for order 0) and the tangential eigenvalue lam = 1 + phi |z|^2."""
    Z = np.atleast_2d(np.asarray(X, dtype=float))
    u = _dot(Z, Z)
    phi, dphi = _phi_field(chart, Z, u, order)
    return Z, phi, dphi, u, 1.0 + phi * u


def metric_fields(chart, X):
    """Vectorized metric at points X (m, n) in chart coordinates, as a dict
    with ``g`` (m,n,n)."""
    Z, phi, _, u, _ = _rank_one(chart, X, 0)
    eye = np.eye(chart.dim)
    T = u[:, None, None] * eye - Z[:, :, None] * Z[:, None, :]
    return {"g": eye[None] + phi[:, None, None] * T}


def inverse_metric_and_density(chart, X):
    """(InverseMetric g_inv, sqrt_det (..., m)) at points X (..., m, n); hot
    path."""
    Z, phi, _, _, lam = _rank_one(chart, X, 0)
    if np.any(lam <= 0.0):
        raise NumericalError("metric not positive definite at a sample point")
    return InverseMetric(Z, phi, lam), lam ** ((chart.dim - 1) / 2.0)


def radial_log_density_derivative(chart, X):
    """d/drho of log sqrt(det g) along the ray through each sample (m,), 0 at
    the origin: (n-1)/2 (dlam . z/|z|) / lam, dlam = |z|^2 dphi + 2 phi z."""
    Z, phi, dphi, u, lam = _rank_one(chart, X, 1)
    dlam = u[:, None] * dphi + 2.0 * phi[:, None] * Z
    zhat = Z / np.sqrt(np.where(u > 0, u, 1.0))[:, None]
    return (chart.dim - 1) / 2.0 * _dot(dlam, zhat) / lam


def divergence_drift(chart, X):
    """b^j = (1/dens) d_i(dens g^{ij}), the drift vector of the Laplace-Beltrami
    operator: Delta_g f = g^{ij} d_i d_j f + b^j d_j f.

    Closed form: with z = x, u = |z|^2 and lam = 1 + phi u, the metric
    g = I + phi (u I - z z^T) has g^{-1} = (I + phi z z^T) / lam and
    dens = lam^((n-1)/2), so with dlam = u dphi + 2 phi z
    b = (n-1)/2 g^{-1} dlam / lam + d_i g^{ij},
    d_i g^{ij} = ((z.dphi + (n+1) phi) z - g^{-1} dlam) / lam.
    """
    n = chart.dim
    Z, phi, dphi, u, lam = _rank_one(chart, X, 1)
    lam = lam[:, None]
    dlam = u[:, None] * dphi + 2.0 * phi[:, None] * Z
    ginv_dlam = (dlam + (phi * _dot(Z, dlam))[:, None] * Z) / lam
    div_ginv = ((_dot(Z, dphi) + (n + 1) * phi)[:, None] * Z - ginv_dlam) / lam
    return (n - 1) / 2.0 * ginv_dlam / lam + div_ginv

