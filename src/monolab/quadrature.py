"""Weighted space-time integration for heat-kernel-weighted integrands.

Spatial rule per time slice: the substitution x = sqrt(-s) y turns the kernel
factor into a fixed variance-2 Gaussian in y, integrated by a uniform midpoint
rule on [-R_tail, R_tail]^n (cell edges aligned with the coordinate planes, so
half-space kinks split exactly).  Integrands supported in the cutoff ball are
split by a smooth radial partition of unity: the plateau part goes through the
scaled rule, the cutoff-annulus part is integrated on a polar rule in physical
coordinates, where the annulus is fixed.

Time integration over (-r^2, 0) uses geometric blocks shrinking toward 0
(ratio `time_ratio`, `slices_per_scale` trapezoid cells per block) plus a
rectangle for the final sliver.  The time rules integrate a scalar
`slice_at(s)`, normally a slice integral or a table lookup of one, so the
caller decides how often each slice is evaluated.  All reductions run in a
fixed order, so equal inputs give bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import geometry, kernels
from .cutoff import smoothstep

__all__ = [
    "QuadratureConfig",
    "default_config",
    "slice_integral",
    "spacetime_integral",
    "time_range_integral",
    "gauss_weighted_integral",
    "ball_rule",
    "annulus_rule",
    "plain_spacetime_integral",
]


@dataclass(frozen=True)
class QuadratureConfig:
    r_tail: float = 8.0
    nodes: int = 64                 # per-axis midpoint count, forced even
    time_ratio: float = 0.5
    slices_per_scale: int = 40      # trapezoid cells per geometric block
    time_blocks: int = 16
    annulus_radial: int = 24
    annulus_angular: int = 32       # multiples of 4 keep x1 = 0 on cell edges

    def __post_init__(self):
        if self.r_tail < 4.0:
            raise ValueError("r_tail must be >= 4")
        if self.nodes < 8:
            raise ValueError("need at least 8 nodes per axis")
        if not 0.0 < self.time_ratio < 1.0:
            raise ValueError("time grading ratio must lie in (0, 1)")


_DEFAULT_NODES = {1: 128, 2: 64, 3: 24}


def default_config(n, **overrides):
    cfg = QuadratureConfig(nodes=_DEFAULT_NODES.get(n, 16))
    return replace(cfg, **overrides) if overrides else cfg


@lru_cache(maxsize=64)
def _scaled_rule(n, nodes, r_tail):
    """Midpoint nodes Y (m, n) and weights including the variance-2 Gaussian."""
    nodes = nodes + (nodes % 2)
    dy = 2.0 * r_tail / nodes
    axis = -r_tail + (np.arange(nodes) + 0.5) * dy
    grids = np.meshgrid(*([axis] * n), indexing="ij")
    Y = np.stack([g.ravel() for g in grids], axis=1)
    w = dy ** n * (4.0 * np.pi) ** (-n / 2.0) * np.exp(-np.sum(Y * Y, axis=1) / 4.0)
    Y.setflags(write=False)
    w.setflags(write=False)
    return Y, w


def _angular_rule(n, n_ang):
    """Direction vectors and angular weights for polar rules (sum = |S^{n-1}|)."""
    if n == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if n == 2:
        n_ang = max(4, n_ang - (n_ang % 4))
        dth = 2.0 * np.pi / n_ang
        th = (np.arange(n_ang) + 0.5) * dth
        dirs = np.stack([np.cos(th), np.sin(th)], axis=1)
        return dirs, np.full(n_ang, dth)
    if n == 3:
        n_phi = max(4, n_ang - (n_ang % 4))
        n_mu = max(4, n_ang // 2)
        dphi = 2.0 * np.pi / n_phi
        phi = (np.arange(n_phi) + 0.5) * dphi
        dmu = 2.0 / n_mu
        mu = -1.0 + (np.arange(n_mu) + 0.5) * dmu
        sin_th = np.sqrt(1.0 - mu ** 2)
        # axis order keeps the x1 = 0 plane on phi cell edges
        dirs = np.stack([
            np.outer(sin_th, np.cos(phi)).ravel(),
            np.outer(sin_th, np.sin(phi)).ravel(),
            np.outer(mu, np.ones(n_phi)).ravel(),
        ], axis=1)
        w = np.full(dirs.shape[0], dmu * dphi)
        return dirs, w
    raise ValueError("polar rules implemented for n <= 3")


@lru_cache(maxsize=64)
def annulus_rule(n, a, b, n_r, n_ang):
    """Physical-coordinate rule for the shell a <= |x| <= b (flat measure)."""
    dirs, w_ang = _angular_rule(n, n_ang)
    dr = (b - a) / n_r
    radii = a + (np.arange(n_r) + 0.5) * dr
    P = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, n)
    w = (radii[:, None] ** (n - 1) * dr * w_ang[None, :]).ravel()
    P.setflags(write=False)
    w.setflags(write=False)
    return P, w


@lru_cache(maxsize=64)
def ball_rule(n, radius, n_r, n_ang):
    """Polar rule for the ball |x| <= radius (flat measure)."""
    return annulus_rule(n, 0.0, radius, n_r, n_ang)


def _eta(rho, zone):
    a, b = zone
    return 1.0 - smoothstep((np.asarray(rho) - a) / (b - a))


def slice_integral(f, kernel, s, cfg, cutoff_zone=None):
    """Approximate int f(x) K(x, -s) sqrt(det g) dx for a single time s < 0."""
    if s >= 0:
        raise ValueError("slice time must be negative")
    chart = kernel.chart
    n = chart.dim
    t = -s
    c = np.sqrt(t)
    if n > 3 and cutoff_zone is not None:
        cutoff_zone = None  # no polar rules beyond n = 3; reduced tolerance
    Y, w = _scaled_rule(n, cfg.nodes, cfg.r_tail)
    X = c * Y
    _, dens = geometry.inverse_metric_and_density(chart, X)
    vals = np.asarray(f(X), dtype=float)
    if kernel.kind == "parametrix0":
        vals = vals * dens ** 0.5
    else:
        vals = vals * dens
    if cutoff_zone is not None:
        rho = c * np.sqrt(np.sum(Y * Y, axis=1))
        vals = vals * _eta(rho, cutoff_zone)
    total = float(np.dot(w, vals))

    if cutoff_zone is not None:
        a, b = cutoff_zone
        if a * a / (4.0 * t) < 200.0:
            P, w_ann = annulus_rule(n, float(a), float(b), cfg.annulus_radial,
                                    cfg.annulus_angular)
            kv = kernels.kernel_values(kernel, P, t)
            _, dens_ann = geometry.inverse_metric_and_density(chart, P)
            rho = np.sqrt(np.sum(P * P, axis=1))
            vals_ann = np.asarray(f(P), dtype=float) * kv * dens_ann * (1.0 - _eta(rho, cutoff_zone))
            total += float(np.dot(w_ann, vals_ann))
    return total


def _time_nodes(r_sq, cfg):
    """Geometric blocks of (-r^2, 0), deepest first, plus the final sliver."""
    blocks = []
    lo = -r_sq
    for _ in range(cfg.time_blocks):
        hi = lo * cfg.time_ratio
        blocks.append((lo, hi))
        lo = hi
    return blocks, lo  # lo = -r_sq * ratio^blocks, start of the sliver


def spacetime_integral(slice_at, r, cfg):
    """int_{-r^2}^0 slice_at(s) ds on the graded time mesh.

    ``slice_at`` maps a slice time s < 0 to a float; deterministic fixed-order
    sums.  Neighbouring blocks share their boundary time, and r and r/4 share
    all but four blocks when time_ratio is 1/2.
    """
    blocks, sliver = _time_nodes(r * r, cfg)
    total = 0.0
    for lo, hi in blocks:
        s_nodes = np.linspace(lo, hi, cfg.slices_per_scale + 1)
        vals = np.array([slice_at(s) for s in s_nodes])
        total += float(np.trapezoid(vals, s_nodes))
    total += (-sliver) * slice_at(sliver)
    return total


def time_range_integral(slice_at, s_lo, s_hi, cells):
    """Trapezoid of slice_at(s) over [s_lo, s_hi] with ``cells`` cells, s_hi < 0."""
    if not s_lo < s_hi < 0:
        raise ValueError("need s_lo < s_hi < 0")
    s_nodes = np.linspace(s_lo, s_hi, cells + 1)
    vals = np.array([slice_at(s) for s in s_nodes])
    return float(np.trapezoid(vals, s_nodes))


def gauss_weighted_integral(f, n, variance, cfg):
    """int f d(nu_v) for the centered Gaussian measure of given variance.

    Uses the same scaled midpoint rule: x = sqrt(v/2) y against the fixed
    variance-2 weight.
    """
    c = np.sqrt(variance / 2.0)
    Y, w = _scaled_rule(n, cfg.nodes, cfg.r_tail)
    vals = np.asarray(f(c * Y), dtype=float)
    return float(np.dot(w, vals))


def plain_spacetime_integral(f, chart, radius, t_depth, cfg, time_cells=24):
    """int_{-t_depth}^0 int_{B(0,radius)} f dV_g ds without any kernel weight."""
    n = chart.dim
    P, w = ball_rule(n, float(radius), max(cfg.annulus_radial, 24),
                     cfg.annulus_angular)
    _, dens = geometry.inverse_metric_and_density(chart, P)
    wd = w * dens
    dt = t_depth / time_cells
    s_nodes = -t_depth + (np.arange(time_cells) + 0.5) * dt
    total = 0.0
    for s in s_nodes:
        total += float(np.dot(wd, np.asarray(f(P, s), dtype=float))) * dt
    return total
