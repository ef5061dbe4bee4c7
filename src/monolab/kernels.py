"""Gaussian-type kernel G and the order-zero short-time parametrix U = G * phi0.

phi0(x) = det(g(x))^(-1/4); since the volume density is sqrt(det g), this is
density^(-1/2).  The order-zero truncation is all the inequality checks use;
higher parametrix orders are out of scope and raise if requested.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import DomainError

__all__ = [
    "KernelSpec",
    "parametrix_phi0",
    "gauss_values",
    "kernel_values",
]

KINDS = ("gauss", "parametrix0")


@dataclass(frozen=True)
class KernelSpec:
    kind: str
    chart: geometry.NormalChart

    def __post_init__(self):
        if self.kind not in KINDS:
            if self.kind.startswith("parametrix"):
                raise NotImplementedError(
                    "parametrix orders >= 1 are out of scope; only the order-0 "
                    "truncation (kind='parametrix0') is available")
            raise ValueError(f"kernel kind must be one of {KINDS}")

    def factor(self, dens):
        """The kernel's order-zero factor at points of volume density ``dens``:
        phi0 = dens^(-1/2) for the parametrix, 1.0 for the Gauss kernel."""
        return dens ** (-0.5) if self.kind == "parametrix0" else 1.0


def gauss_values(n, rho_sq, t):
    """Gauss kernel at squared radii rho_sq and time t > 0; the prefactor is
    one scalar power per t."""
    return (4.0 * np.pi * t) ** (-n / 2.0) * np.exp(-rho_sq / (4.0 * t))


def kernel_values(spec, X, t):
    """Vectorized kernel at points X (m, n) and time t > 0."""
    if t <= 0:
        raise ValueError("kernel time must be positive")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    rho_sq = np.sum(X * X, axis=1)
    vals = gauss_values(spec.chart.dim, rho_sq, t)
    if spec.kind == "parametrix0":
        vals = vals * spec.factor(geometry.inverse_metric_and_density(spec.chart, X)[1])
    return vals


def parametrix_phi0(chart, x):
    x = np.asarray(x, dtype=float)
    if not np.all(chart.contains(x)):
        raise DomainError("point outside chart ball")
    dens = geometry.inverse_metric_and_density(chart, x[None])[1][0]
    return float(KernelSpec("parametrix0", chart).factor(dens))
