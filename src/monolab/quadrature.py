"""Weighted space-time integration for heat-kernel-weighted integrands.

Spatial rule per time slice: the substitution x = sqrt(-s) y turns the kernel
factor into a fixed variance-2 Gaussian in y, integrated by a uniform midpoint
rule on [-R_tail, R_tail]^n (cell edges aligned with the coordinate planes, so
half-space kinks split exactly).  Integrands supported in the cutoff ball are
split by a smooth radial partition of unity: the plateau part goes through the
scaled rule, the cutoff-annulus part is integrated on a polar rule in physical
coordinates, where the annulus is fixed.

`slice_integral` evaluates a block of slice times at once: the integrand
gets one time per point, the inverse metric and density are computed once per
point and the inverse metric, a `geometry.InverseMetric`, is handed to the
integrand, and the annulus fields, which do not depend on time, are computed
once per (chart, kernel kind, zone).  Slices of a block share integrand calls
of at most `_CALL_POINTS` points each (one slice's rule when that is larger),
so memory per call stays bounded whatever the block size.

Time integration over (-r^2, 0) uses one absolute mesh for every scale:
geometric blocks (-ratio^k, -ratio^(k+1)) shrinking toward 0 (ratio
`_TIME_RATIO`, `slices_per_scale` trapezoid cells per block), starting at the
largest power of the ratio not above r^2, plus a rectangle for the final
sliver.  A scale whose r^2 is no such power gets one partial block
(-r^2, -ratio^k) of `slices_per_scale` cells above its full blocks, so any two
scales share every slice below the top block of the smaller one.  The time
rules hand all their nodes to `slice_at(s)` as one array, normally slice
integrals or table lookups of them, so the caller decides how often each
slice is evaluated.  All reductions run in a fixed order, and each slice
keeps its own dot product, so equal inputs give bit-identical results
however the slices are grouped.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import geometry, kernels
from .cutoff import smoothstep
from .errors import ConfigError

__all__ = [
    "QuadratureConfig",
    "default_config",
    "slice_integral",
    "spacetime_integral",
    "time_range_integral",
    "gauss_weighted_integral",
    "annulus_rule",
    "plain_spacetime_integral",
]


@dataclass(frozen=True)
class QuadratureConfig:
    r_tail: float = 8.0
    nodes: int = 64                 # per-axis midpoint count, forced even
    slices_per_scale: int = 40      # trapezoid cells per geometric block
    time_blocks: int = 16

    def __post_init__(self):
        if self.r_tail < 4.0:
            raise ValueError("r_tail must be >= 4")
        if self.nodes < 8:
            raise ConfigError("need at least 8 nodes per axis", key="quad.nodes")
        for name, count in (("slices_per_scale", self.slices_per_scale),
                            ("time_blocks", self.time_blocks)):
            if count < 1:
                raise ConfigError(f"{name} must be >= 1", key=f"quad.{name}")


_DEFAULT_NODES = {1: 128, 2: 64, 3: 24}

# Time block ratio, annulus rule cells (multiples of 4 angular cells keep
# x1 = 0 on cell edges) and the time cells of plain_spacetime_integral.
_TIME_RATIO = 0.5
_ANNULUS_RADIAL = 24
_ANNULUS_ANGULAR = 32
_PLAIN_TIME_CELLS = 24

# Points of the scaled rule per slice.  An integrand call gets up to one
# slice's points, at about 330 bytes each (measured at n = 2, 256 nodes), so
# 2^18 points keep a call under 100 MB; the defaults use at most 24^3 = 13824.
_MAX_SLICE_POINTS = 2 ** 18

# Points per integrand call when slices share one: about 1.4 MB at the same
# 330 bytes per point, and 16 slices of the 16^2 rule.
_CALL_POINTS = 4096


def default_config(n, nodes=0, **overrides):
    """The rule for dimension n; nodes = 0 picks the per-dimension default.
    A rule with more than _MAX_SLICE_POINTS points per slice raises
    ConfigError keyed ``quad.nodes``, before any rule array exists."""
    cfg = QuadratureConfig(nodes=nodes or _DEFAULT_NODES.get(n, 16), **overrides)
    points = (cfg.nodes + cfg.nodes % 2) ** n
    if points > _MAX_SLICE_POINTS:
        raise ConfigError(f"{cfg.nodes} nodes per axis make {points} points per "
                          f"slice, over the budget of {_MAX_SLICE_POINTS}",
                          key="quad.nodes")
    return cfg


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


def _eta(rho, zone):
    a, b = zone
    return 1.0 - smoothstep((np.asarray(rho) - a) / (b - a))


# kernel -> {zone: annulus fields}; an entry lives as long as its kernel
_ANNULUS_FIELDS = weakref.WeakKeyDictionary()


def _annulus_fields(kernel, zone):
    """Time-independent fields of the annulus rule: points, weights, g_inv,
    density, |x|^2, 1 - eta and the parametrix factor density^(-1/2) (None
    for the Gauss kernel), computed once per (chart, kernel kind, zone)."""
    per_kernel = _ANNULUS_FIELDS.setdefault(kernel, {})
    fields = per_kernel.get(zone)
    if fields is None:
        a, b = zone
        P, w = annulus_rule(kernel.chart.dim, float(a), float(b),
                            _ANNULUS_RADIAL, _ANNULUS_ANGULAR)
        g_inv, dens = geometry.inverse_metric_and_density(kernel.chart, P)
        rho_sq = np.sum(P * P, axis=1)
        kernel_factor = dens ** (-0.5) if kernel.kind == "parametrix0" else None
        fields = (P, w, g_inv, dens, rho_sq, 1.0 - _eta(np.sqrt(rho_sq), zone),
                  kernel_factor)
        per_kernel[zone] = fields
    return fields


def _runs(indices, size):
    """Consecutive runs of at most ``size`` slice indices."""
    return [indices[i:i + size] for i in range(0, len(indices), size)]


def slice_integral(f, kernel, s, cfg, cutoff_zone=None):
    """Approximate int f(x, s_k) K(x, -s_k) sqrt(det g) dx for each time s_k < 0
    of the 1-D array ``s``.

    The integrand is called as f(X, S, g_inv) with points X (m, n), one time
    per point S (m,) and the ``geometry.InverseMetric`` g_inv at X, and
    returns (m,) values, or (k, m) for k integrands sharing the points (both
    phases of a pair); the result is (len(s),) or (k, len(s)).  Slices of one
    rule share an integrand call in runs of max(1, _CALL_POINTS // rule
    size), so no call gets more than _CALL_POINTS points or one slice's rule.
    Each row keeps its own fixed-order dot product per slice and scalar Gauss
    prefactor, so a block of slices and a stack of integrands give
    bit-identical values to one call per slice and integrand.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 1 or len(s) == 0:
        raise ValueError("slice times must be a non-empty 1-D array")
    if np.any(s >= 0):
        raise ValueError("slice time must be negative")
    chart = kernel.chart
    n = chart.dim
    t = -s
    c = np.sqrt(t)
    if n > 3 and cutoff_zone is not None:
        cutoff_zone = None  # no polar rules beyond n = 3; reduced tolerance
    Y, w = _scaled_rule(n, cfg.nodes, cfg.r_tail)
    m = len(w)
    ann = []
    if cutoff_zone is not None:
        a, _ = cutoff_zone
        radius_Y = np.sqrt(np.sum(Y * Y, axis=1))
        ann = [k for k in range(len(s)) if a * a / (4.0 * t[k]) < 200.0]
    totals = None   # (rows, len(s)), once the first call shows the rows

    for run in _runs(list(range(len(s))), max(1, _CALL_POINTS // m)):
        X = (c[run, None, None] * Y).reshape(-1, n)
        g_inv, dens = geometry.inverse_metric_and_density(chart, X)
        vals = np.asarray(f(X, np.repeat(s[run], m), g_inv), dtype=float)
        lead = vals.shape[:-1]
        if kernel.kind == "parametrix0":
            vals = vals * dens ** 0.5
        else:
            vals = vals * dens
        vals = vals.reshape(-1, len(run), m)
        if cutoff_zone is not None:
            vals = vals * _eta(c[run, None] * radius_Y, cutoff_zone)
        if totals is None:
            totals = np.zeros((len(vals), len(s)))
        for row, block in zip(totals, vals):
            for j, k in enumerate(run):
                row[k] = float(np.dot(w, block[j]))

    if ann:
        P, w_ann, g_inv, dens, rho_sq, one_minus_eta, kernel_factor = (
            _annulus_fields(kernel, cutoff_zone))
        m_ann = len(w_ann)
        for run in _runs(ann, max(1, _CALL_POINTS // m_ann)):
            tiled = np.tile(np.arange(m_ann), len(run))
            vals = np.asarray(f(P[tiled], np.repeat(s[run], m_ann), g_inv[tiled]),
                              dtype=float).reshape(len(totals), -1)
            for j, k in enumerate(run):
                kv = kernels.gauss_values(n, rho_sq, float(t[k]))
                if kernel_factor is not None:
                    kv = kv * kernel_factor
                vals_k = vals[:, j * m_ann:(j + 1) * m_ann] * kv * dens * one_minus_eta
                for row, vals_row in zip(totals, vals_k):
                    row[k] += float(np.dot(w_ann, vals_row))
    return totals.reshape(lead + (len(s),))


def _time_nodes(r_sq, cfg):
    """Blocks of (-r^2, 0), deepest first, and the start of the final sliver.

    The ``time_blocks`` full blocks start at -ratio^k, the largest power of
    the ratio not above r^2, found by repeated multiplication from 1.0 (exact
    for ratio 1/2).  Unless r^2 is that power, a partial block (-r^2, -ratio^k)
    comes first.  r^2 must be a positive finite number: the search for
    ratio^k would not end at 0 or infinity."""
    if not 0.0 < r_sq < np.inf:
        raise ValueError(f"r^2 must be a positive finite number, not {r_sq!r}")
    ratio = _TIME_RATIO
    top = 1.0
    while top > r_sq:
        top *= ratio
    while top / ratio <= r_sq:
        top /= ratio
    blocks = [] if top == r_sq else [(-r_sq, -top)]
    lo = -top
    for _ in range(cfg.time_blocks):
        hi = lo * ratio
        blocks.append((lo, hi))
        lo = hi
    return blocks, lo  # lo = -ratio^(k + time_blocks), start of the sliver


def spacetime_integral(slice_at, r, cfg):
    """int_{-r^2}^0 slice_at(s) ds on the graded time mesh.

    ``slice_at`` maps a 1-D array of slice times s < 0 to one float each and
    is called once, with every block's nodes followed by the sliver's time;
    each block then gets its own trapezoid, and the block totals are summed
    deepest first, then the sliver's rectangle is added.  Neighbouring
    blocks share their boundary time, and since the mesh is absolute, two
    scales share every slice below the top block of the smaller one.
    """
    blocks, sliver = _time_nodes(r * r, cfg)
    lo, hi = np.array(blocks).T
    nodes = np.linspace(lo, hi, cfg.slices_per_scale + 1, axis=1)
    values = slice_at(np.append(nodes.ravel(), sliver))
    totals = np.trapezoid(values[:-1].reshape(nodes.shape), nodes, axis=1)
    return sum(totals.tolist()) + (-sliver) * float(values[-1])


def time_range_integral(slice_at, s_lo, s_hi, cells):
    """Trapezoid of slice_at over [s_lo, s_hi] with ``cells`` cells, s_hi < 0;
    ``slice_at`` gets all the nodes in one call."""
    if not s_lo < s_hi < 0:
        raise ValueError("need s_lo < s_hi < 0")
    s_nodes = np.linspace(s_lo, s_hi, cells + 1)
    return float(np.trapezoid(slice_at(s_nodes), s_nodes))


def gauss_weighted_integral(f, n, variance, cfg):
    """int f d(nu_v) for the centered Gaussian measure of given variance.

    Uses the same scaled midpoint rule: x = sqrt(v/2) y against the fixed
    variance-2 weight.
    """
    c = np.sqrt(variance / 2.0)
    Y, w = _scaled_rule(n, cfg.nodes, cfg.r_tail)
    vals = np.asarray(f(c * Y), dtype=float)
    return float(np.dot(w, vals))


def plain_spacetime_integral(f, chart, radius, t_depth):
    """int_{-t_depth}^0 int_{B(0,radius)} f dV_g ds without any kernel weight.

    ``f(X, S)`` gets one time per point and returns (m,) values, or (k, m)
    for k integrands sharing the points; the result is a float or (k,).
    Time cells share integrand calls of at most _CALL_POINTS points (one
    cell's rule when that is larger), and each row keeps its own dot product
    per cell and its own running sum, in time order."""
    n = chart.dim
    P, w = annulus_rule(n, 0.0, float(radius), _ANNULUS_RADIAL, _ANNULUS_ANGULAR)
    _, dens = geometry.inverse_metric_and_density(chart, P)
    wd = w * dens
    m = len(w)
    dt = t_depth / _PLAIN_TIME_CELLS
    s_nodes = -t_depth + (np.arange(_PLAIN_TIME_CELLS) + 0.5) * dt
    totals = None   # one running sum per row, once the first call shows the rows
    for run in _runs(s_nodes, max(1, _CALL_POINTS // m)):
        vals = np.asarray(f(np.tile(P, (len(run), 1)), np.repeat(run, m)),
                          dtype=float)
        lead = vals.shape[:-1]
        vals = vals.reshape(-1, len(run), m)
        if totals is None:
            totals = [0.0] * len(vals)
        for i, block in enumerate(vals):
            for row in block:
                totals[i] += float(np.dot(wd, row)) * dt
    return totals[0] if lead == () else np.array(totals)
