"""Admissibility certificates: disjointness and the supercaloric bound.

The weak inequality (Delta_g - d_t) u >= -1 is verified two ways, since no
single numerical criterion captures "in the weak sense".  Both read one
discretization, the residual L_h u - D_t u + 1 of the discrete operator
applied matrix-free from its triplets and the backward difference in time,
on every node and frame 1..:

* pointwise with slack, restricted to nodes whose full stencil avoids the
  other phase's positivity set (one-sided stencils at the interface are
  biased); and
* pairings against a fixed battery of nonnegative smooth space-time bumps:
  the psi-weighted mean of the residual over all nodes, the interface band
  included.  By summation by parts this is the discrete weak form of the
  stencil, exact wherever the stencil is.  The battery is built once per
  grid, so each phase's pairings are one matrix product chain.

Both checks read the phases sampled on every space-time node: ``sample_pair``
samples them once, the caller passes the frames to each, and neither writes.

u_pm(0, 0) = 0 is NOT enforced; the records carry the origin values as a flag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import geometry
from .grids import positivity_tol
from .solver import apply_laplacian, assemble_laplacian

__all__ = [
    "ValidityRecord",
    "ResidualRecord",
    "sample_pair",
    "pair_validity_check",
    "supercaloric_residual_check",
]


@dataclass(frozen=True)
class ValidityRecord:
    product_max: float        # disjointness defect max u_+ u_-
    min_plus: float           # nonnegativity margins
    min_minus: float
    scale: float
    origin_plus: float        # u_pm at (0, 0); recorded, not enforced
    origin_minus: float
    passed: bool


@dataclass(frozen=True)
class ResidualRecord:
    min_plus: float           # min over checkable nodes of (Delta_g - d_t) u + 1
    min_minus: float
    weak_min_plus: float      # min over bumps of the psi-weighted mean of that
                              # residual, all nodes
    weak_min_minus: float
    checkable_plus: int
    checkable_minus: int
    slack: float
    passed: bool


def sample_pair(pair, grid):
    """(u_+, u_-) on every space-time node, each (len(grid.times), *grid.shape()):
    the nodes are one row of points that every time of the grid reads.  A
    pair that does not depend on s returns one time; it is broadcast to every
    frame and copied, so the frames are contiguous whatever the pair."""
    values = pair.values(grid.points()[None], grid.times)
    frames = (2, len(grid.times)) + grid.shape()
    return tuple(np.ascontiguousarray(np.broadcast_to(
        values.reshape((2, -1) + grid.shape()), frames)))


def pair_validity_check(pair, grid, frames, tol=1e-10):
    """max u_+ u_- <= tol * scale^2 and min u_pm >= -tol * max(1, scale).

    ``frames`` is ``sample_pair(pair, grid)``; ``pair`` gives u_pm(0, 0)."""
    up, um = frames
    scale = max(float(np.max(np.abs(up))), float(np.max(np.abs(um))), 0.0)
    product_max = float(np.max(up * um))
    min_plus = float(np.min(up))
    min_minus = float(np.min(um))
    origin_plus, origin_minus = pair.values(np.zeros((1, 1, grid.dim)),
                                            np.zeros(1))[:, 0, 0]
    s = max(scale, 1e-300)
    return ValidityRecord(
        product_max=product_max,
        min_plus=min_plus,
        min_minus=min_minus,
        scale=scale,
        origin_plus=float(origin_plus),
        origin_minus=float(origin_minus),
        passed=(product_max <= tol * (s * s)
                and min_plus >= -tol * max(1.0, scale)
                and min_minus >= -tol * max(1.0, scale)),
    )


def _bump_battery(chart, grid):
    """Deterministic nonnegative C^2 bumps psi(x) psi_t(t), compactly supported
    inside Q, as weights on the residual's nodes and frames.

    Returns ``(psi_x, psi_t)``: one row per spatial bump
    psi = max(0, 1 - |x-c|^2/w^2)^3 on the nodes, weighted by dens h^n, and
    one row per time bump on frames 1.., each weighted by its backward step
    t_j - t_{j-1}, the step whose residual that frame carries.  Every spatial
    bump pairs with every time bump.
    """
    n = chart.dim
    L = grid.half_width
    T = -float(grid.times[0])
    pts = grid.points()
    _, dens = geometry.inverse_metric_and_density(chart, pts)
    centers = [np.zeros(n)] + [s * 0.35 * L * e for e in np.eye(n) for s in (-1.0, 1.0)]
    psi_x = [np.maximum(0.0, 1.0 - np.sum((pts - c) ** 2, axis=1) / w ** 2) ** 3
             for c in centers for w in (0.3 * L, 0.5 * L)
             if np.linalg.norm(c) + w < 0.95 * L]
    tau = (grid.times[1:] - np.array([[-0.65 * T], [-0.35 * T]])) / (0.25 * T)
    psi_t = np.maximum(0.0, 1.0 - tau ** 2) ** 3 * np.diff(grid.times)
    return np.array(psi_x) * (dens * grid.h ** n), psi_t


def _weak_pairings(resid, battery):
    """min over bump pairs of sum psi resid / sum psi, the psi-weighted mean of
    the residual ``resid`` (frames 1.., nodes) of the discrete operator."""
    psi_x, psi_t = battery
    total = (psi_x @ resid.T) @ psi_t.T
    mass = np.outer(psi_x.sum(axis=1), psi_t.sum(axis=1))
    ok = mass > 0
    return float(np.min(total[ok] / mass[ok], initial=np.inf))


def _dilate(mask):
    """Binary dilation of each frame of ``mask`` (frames, *shape) by the full
    3^n cube, with nothing outside the grid: a max over shifted slices, one
    spatial axis at a time."""
    out = mask.copy()
    for axis in range(1, mask.ndim):
        src = out.copy()
        head = [slice(None)] * mask.ndim
        tail = list(head)
        head[axis], tail[axis] = slice(None, -1), slice(1, None)
        out[tuple(tail)] |= src[tuple(head)]
        out[tuple(head)] |= src[tuple(tail)]
    return out


def supercaloric_residual_check(chart, grid, frames, tol=1e-8):
    """Certificate for (Delta_g - d_t) u_pm >= -1 of the phases ``frames``,
    ``sample_pair(pair, grid)``.

    Pointwise: min over checkable space-time nodes of the discrete residual
    plus one; pass needs min >= -tol - sqrt(h).  Weak form: the minimum over
    bump pairs of the psi-weighted mean of that residual, over every node,
    must clear the same threshold.  A margin that is
    not finite fails: NaN, an overflow, or the inf of a part that checked
    nothing (no checkable node, or no bump with positive mass on the grid).
    """
    triplets, act = assemble_laplacian(chart, grid)
    slack = np.sqrt(grid.h)
    battery = _bump_battery(chart, grid)
    up, um = frames
    dt = np.diff(grid.times)[:, None]
    results = {}
    for sign, u, v in (("plus", up, um), ("minus", um, up)):
        mask = ~_dilate(v[1:] > positivity_tol(v)).reshape(len(dt), -1) & act
        flat = u.reshape(len(u), -1)
        # phases near the float limit overflow to inf or NaN margins; a
        # non-finite margin fails the certificate below, so no warning
        with np.errstate(over="ignore", invalid="ignore"):
            resid = (apply_laplacian(triplets, flat[1:]) - (flat[1:] - flat[:-1]) / dt
                     + 1.0)
            weak = _weak_pairings(resid, battery)
        worst = float(np.min(resid[mask], initial=np.inf))   # NaN propagates
        results[sign] = (worst, weak, int(np.count_nonzero(mask)))

    wp, wkp, cp = results["plus"]
    wm, wkm, cm = results["minus"]
    bound = -tol - slack
    ok = all(np.isfinite(v) and v >= bound for v in (wp, wm, wkp, wkm))
    return ResidualRecord(min_plus=wp, min_minus=wm, weak_min_plus=wkp,
                          weak_min_minus=wkm, checkable_plus=cp,
                          checkable_minus=cm, slack=slack, passed=bool(ok))
