"""Radial cutoff: identically 1 on B(0, radius/4), 0 outside B(0, radius/2).

The profile is the quintic smoothstep in s = (rho - a)/(b - a),
chi = 1 - (10 s^3 - 15 s^4 + 6 s^5), which is C^2 with exact closed-form
derivatives (chi' peaks at -1.875/(b - a) mid-annulus).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry

__all__ = [
    "CutoffProfile",
    "build_cutoff",
    "smoothstep",
    "smoothstep_d1",
    "smoothstep_d2",
]


def smoothstep(s):
    """Quintic smoothstep, 0 -> 1 on [0, 1], C^2 at both ends."""
    s = np.clip(s, 0.0, 1.0)
    return s ** 3 * (10.0 - 15.0 * s + 6.0 * s * s)


def smoothstep_d1(s):
    s = np.asarray(s, dtype=float)
    inside = (s > 0.0) & (s < 1.0)
    sc = np.clip(s, 0.0, 1.0)
    return np.where(inside, 30.0 * sc ** 2 * (1.0 - sc) ** 2, 0.0)


def smoothstep_d2(s):
    s = np.asarray(s, dtype=float)
    inside = (s > 0.0) & (s < 1.0)
    sc = np.clip(s, 0.0, 1.0)
    return np.where(inside, 60.0 * sc * (1.0 - sc) * (1.0 - 2.0 * sc), 0.0)


@dataclass(frozen=True)
class CutoffProfile:
    inner: float              # plateau radius a = radius/4
    outer: float              # support radius b = radius/2
    grad_bound: float         # sup |grad chi| = 1.875/(b - a)
    laplace_bound: float      # sup |Delta_g chi| measured on samples


def chi(profile, rho):
    s = (np.asarray(rho, dtype=float) - profile.inner) / (profile.outer - profile.inner)
    return 1.0 - smoothstep(s)


def dchi(profile, rho):
    w = profile.outer - profile.inner
    s = (np.asarray(rho, dtype=float) - profile.inner) / w
    return -smoothstep_d1(s) / w


def d2chi(profile, rho):
    w = profile.outer - profile.inner
    s = (np.asarray(rho, dtype=float) - profile.inner) / w
    return -smoothstep_d2(s) / (w * w)


def _laplace_chi(profile, chart, X, rho):
    """Delta_g of the radial profile: chi'' + chi' ((n-1)/rho + (log dens)')."""
    n = chart.dim
    d1 = dchi(profile, rho)
    d2 = d2chi(profile, rho)
    out = np.where(rho > 0, d2, 0.0)
    active = d1 != 0.0
    if np.any(active):
        Xa = X[active]
        rho_a = rho[active]
        dlog = geometry.radial_log_density_derivative(chart, Xa)
        out[active] += d1[active] * ((n - 1) / rho_a + dlog)
    return out


def build_cutoff(chart):
    """Profile for the chart; records sup|grad chi| and sup|Delta_g chi| on
    200 seeded points of the annulus."""
    a = chart.radius / 4.0
    b = chart.radius / 2.0
    grad_bound = 1.875 / (b - a)
    profile = CutoffProfile(inner=a, outer=b, grad_bound=grad_bound, laplace_bound=0.0)
    rng = np.random.default_rng(20240118)
    dirs = rng.standard_normal((200, chart.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = rng.uniform(a, b, 200)
    X = dirs * radii[:, None]
    lap = _laplace_chi(profile, chart, X, radii)
    return CutoffProfile(inner=a, outer=b, grad_bound=grad_bound,
                         laplace_bound=float(np.max(np.abs(lap))))
