"""Weighted space-time integration for heat-kernel-weighted integrands.

Spatial rule per time slice: the substitution x = sqrt(-s) y turns the kernel
factor into a fixed variance-2 Gaussian in y, integrated by a uniform midpoint
rule on [-R_tail, R_tail]^n (cell edges aligned with the coordinate planes, so
half-space kinks split exactly).  Integrands supported in the cutoff ball are
split by the cutoff's own chi: the part times chi goes through the scaled
rule, the part times 1 - chi, on the cutoff annulus, is integrated on a
polar rule in physical coordinates, where the annulus is fixed.

One array contract runs from the pair samplers to the time rules: points are
rows X (p, m, n), times a 1-D array S (k,), an integrand returns rows
(rows, k, m), (plus, minus) for a pair, `slice_integral` returns (rows, k)
and the time rules (rows,).  The scaled rule's points move with the time, so
it passes one row per slice (p = k); a rule whose points are fixed in time
(the annulus, the unweighted integral) passes them once (p = 1) for all the
times of a call, so their spatial work is done once per call.  An integrand
free of the time returns a time axis of length 1, (rows, 1, m); a fixed-point
rule then calls it once per call and reuses the result for every time.
`slice_integral` evaluates a block of slice times at once, with the inverse
metric, a `geometry.InverseMetric`, computed once per point and the annulus
fields once per (chart, kernel kind, cutoff annulus).  Integrand calls hold
at most `_CALL_POINTS` times x points (one slice's rule when that is larger),
so memory per call stays bounded.

Time integration over (-r^2, 0) uses one absolute mesh for every scale:
geometric blocks (-ratio^k, -ratio^(k+1)) shrinking toward 0 (ratio
`_TIME_RATIO`, `slices_per_scale` trapezoid cells per block), starting at the
largest power of the ratio not above r^2, plus a rectangle for the final
sliver.  A scale whose r^2 is no such power gets one partial block
(-r^2, -ratio^k) of `slices_per_scale` cells above its full blocks, so any two
scales share every slice below the top block of the smaller one.  The time
rules hand all their nodes to `slice_at(s)` as one array, normally slice
integrals or table lookups of them, so the caller decides how often each
slice is evaluated; they take rows of slice values (rows, k).  All reductions
run in a fixed order, and each slice keeps its own dot product, so equal
inputs give bit-identical results however the slices and rows are grouped.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import geometry, kernels
from .cutoff import chi
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
        if self.time_blocks > _MAX_TIME_BLOCKS:
            raise ConfigError(f"time_blocks must be <= {_MAX_TIME_BLOCKS}",
                              key="quad.time_blocks")
        nodes = (self.time_blocks + 1) * (self.slices_per_scale + 1) + 1
        if nodes > _MAX_TIME_NODES:
            raise ConfigError(f"{nodes} slice times per scale, over the budget of "
                              f"{_MAX_TIME_NODES}", key="quad.slices_per_scale")


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

# Time mesh of one scale: blocks past 2^-64 r^2 lie below the rounding of
# the blocks above, and 2^14 slice times, (time_blocks + 1) (slices + 1) + 1
# at most, are 23 times the default mesh's 698.
_MAX_TIME_BLOCKS = 64
_MAX_TIME_NODES = 2 ** 14

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


@lru_cache(maxsize=64)
def _annulus_fields(kernel, cutoff):
    """Time-independent fields of the annulus rule: points (one row), weights,
    g_inv, density, |x|^2, 1 - chi and the kernel's order-zero factor
    (``KernelSpec.factor``), once per (chart, kernel kind, cutoff profile)."""
    P, w = annulus_rule(kernel.chart.dim, float(cutoff.inner), float(cutoff.outer),
                        _ANNULUS_RADIAL, _ANNULUS_ANGULAR)
    P = P[None]     # one row of points for every time
    g_inv, dens = geometry.inverse_metric_and_density(kernel.chart, P)
    rho_sq = np.sum(P * P, axis=-1)
    return (P, w, g_inv, dens, rho_sq, 1.0 - chi(cutoff, np.sqrt(rho_sq)),
            kernel.factor(dens))


def _runs(indices, size):
    """Consecutive runs of at most ``size`` slice indices."""
    return [indices[i:i + size] for i in range(0, len(indices), size)]


def _fixed_point_runs(f, P, times, *args):
    """f at the fixed row of points P (1, m, n) for the times of a rule call,
    in runs of max(1, _CALL_POINTS // m) times: a list of (run, values) with
    values (rows, len(run), m).

    An integrand that returns a time axis of length 1 for a run of several
    times does not depend on the time: that result serves the rest of the
    call, broadcast over each run, and f is not called again.  A run of one
    time tells nothing, since every integrand returns one time for it."""
    m = P.shape[-2]
    out, stationary = [], None
    for run in _runs(times, max(1, _CALL_POINTS // m)):
        vals = stationary
        if vals is None:
            vals = f(P, run, *args)
            if len(run) > 1 and vals.shape[1] == 1:
                stationary = vals
        out.append((run, np.broadcast_to(vals, (len(vals), len(run), m))))
    return out


def slice_integral(f, kernel, s, cfg, cutoff):
    """Approximate int f(x, s_k) K(x, -s_k) sqrt(det g) dx for each time s_k < 0
    of the 1-D array ``s``.

    The integrand is called as f(X, S, g_inv) with rows of points X (p, m, n)
    (p = k on the scaled rule, 1 on the annulus), the times S (k,) of the
    call and the ``geometry.InverseMetric`` g_inv at X, and returns rows
    (rows, k, m), (plus, minus) for a pair; on the annulus a time axis of
    length 1 stands for every time (see ``_fixed_point_runs``).  The result
    is (rows, len(s)).  Slices of one rule share a call in runs of
    max(1, _CALL_POINTS // rule size).  Each row keeps its own fixed-order
    dot product per slice and scalar Gauss prefactor, so a block of slices
    and a stack of integrands give bit-identical values to one call per
    slice and integrand.  The ``CutoffProfile`` ``cutoff`` splits f by its
    chi (see the module doc).
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
    Y, w = _scaled_rule(n, cfg.nodes, cfg.r_tail)
    m = len(w)
    a = cutoff.inner
    radius_Y = np.sqrt(np.sum(Y * Y, axis=1))
    ann = [k for k in range(len(s)) if a * a / (4.0 * t[k]) < 200.0]
    totals = None   # (rows, len(s)), once the first call shows the rows

    for run in _runs(list(range(len(s))), max(1, _CALL_POINTS // m)):
        X = c[run, None, None] * Y
        g_inv, dens = geometry.inverse_metric_and_density(chart, X)
        vals = (f(X, s[run], g_inv)
                * (dens ** 0.5 if kernel.kind == "parametrix0" else dens)
                * chi(cutoff, c[run, None] * radius_Y))
        if totals is None:
            totals = np.zeros((len(vals), len(s)))
        for row, block in zip(totals, vals):
            for j, k in enumerate(run):
                row[k] = float(np.dot(w, block[j]))

    if ann:
        P, w_ann, g_inv, dens, rho_sq, one_minus_chi, kernel_factor = (
            _annulus_fields(kernel, cutoff))
        # the runs hold slice indices; the integrand gets their times
        runs = _fixed_point_runs(lambda X, run, g: f(X, s[run], g), P, ann, g_inv)
        for run, vals in runs:
            for j, k in enumerate(run):
                kv = kernels.gauss_values(n, rho_sq, float(t[k])) * kernel_factor
                vals_k = vals[:, j] * kv * dens * one_minus_chi
                for row, vals_row in zip(totals, vals_k):
                    row[k] += float(np.dot(w_ann, vals_row))
    return totals


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


def _per_row(values, reduce):
    """``reduce`` of each row of slice values (rows, len), made contiguous so
    that a row sums as a 1-D array does: (rows,)."""
    values = np.ascontiguousarray(values, dtype=float)
    return np.array([reduce(row) for row in values])


def spacetime_integral(slice_at, r, cfg):
    """int_{-r^2}^0 slice_at(s) ds on the graded time mesh.

    ``slice_at`` maps a 1-D array of slice times s < 0 to rows
    (rows, len(s)) and is called once, with every block's nodes followed by
    the sliver's time; each row then gets its own trapezoid per block, the
    block totals are summed deepest first, then the sliver's rectangle is
    added.  Neighbouring blocks share their boundary time, and since the mesh
    is absolute, two scales share every slice below the top block of the
    smaller one.
    """
    blocks, sliver = _time_nodes(r * r, cfg)
    lo, hi = np.array(blocks).T
    nodes = np.linspace(lo, hi, cfg.slices_per_scale + 1, axis=1)
    return _per_row(slice_at(np.append(nodes.ravel(), sliver)), lambda row: (
        sum(np.trapezoid(row[:-1].reshape(nodes.shape), nodes, axis=1).tolist())
        + (-sliver) * float(row[-1])))


def time_range_integral(slice_at, s_lo, s_hi, cells):
    """Trapezoid of each row of slice_at over [s_lo, s_hi] with ``cells``
    cells, s_hi < 0: (rows,); ``slice_at`` gets all the nodes in one call."""
    if not s_lo < s_hi < 0:
        raise ValueError("need s_lo < s_hi < 0")
    s_nodes = np.linspace(s_lo, s_hi, cells + 1)
    return _per_row(slice_at(s_nodes),
                    lambda values: float(np.trapezoid(values, s_nodes)))


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

    ``f(X, S)`` gets the rule's points as one row X (1, m, n) and the times
    S (k,) of a call, and returns rows (rows, k, m), with a time axis of
    length 1 for an integrand free of the time (see ``_fixed_point_runs``);
    the result is (rows,).  Calls hold at most _CALL_POINTS times x points (one
    cell's rule when that is larger), and each row keeps its own dot product
    per cell and its own running sum, in time order."""
    n = chart.dim
    P, w = annulus_rule(n, 0.0, float(radius), _ANNULUS_RADIAL, _ANNULUS_ANGULAR)
    _, dens = geometry.inverse_metric_and_density(chart, P)
    wd = w * dens
    m = len(w)
    dt = t_depth / _PLAIN_TIME_CELLS
    s_nodes = -t_depth + (np.arange(_PLAIN_TIME_CELLS) + 0.5) * dt
    runs = _fixed_point_runs(f, P[None], s_nodes)
    totals = [0.0] * len(runs[0][1])    # one running sum per row
    for _, vals in runs:
        for i, block in enumerate(vals):
            for row in block:
                totals[i] += float(np.dot(wd, row)) * dt
    return np.array(totals)
