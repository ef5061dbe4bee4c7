"""Space-time grids and grid-backed field samplers.

The spatial grid is uniform on the cube [-L, L]^n with a node at the origin.
The time mesh lives on (-T, 0] and, for the geometric constructor, marches
from -T toward 0 with steps shrinking by a fixed ratio (coarsest step first),
the final step snapped to land exactly on 0.

Samplers interpolate through one helper pair: ``_corners`` locates the cell of
each point once (flat node indices and weights of its 2^n corners) and
``_interpolate`` reads any time frame of any field on the same grid from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError

__all__ = ["SpaceTimeGrid", "GridFunction", "GridPhaseSampler"]


# Values per array of a grid-backed solve, with nodes the grid's nodes: a
# field holds nodes x frames, and each dense slab block set of the heat
# solver (solver._slab_blocks) about nodes x (nodes per slab).  2^22 keeps
# either near 32 MB and admits the largest grid in use, acceptance 7's
# (141^2 nodes, 49 frames, 141 nodes per slab: 2.8 M).
_MAX_GRID_VALUES = 2 ** 22


def _axis_nodes(half_width, h):
    """Nodes per axis of a step h on [-L, L]."""
    if not (h > 0.0 and np.isfinite(half_width / h)) or round(half_width / h) < 1:
        raise ConfigError("the step h must be positive, with L / h finite and "
                          "round(L / h) >= 1 on [-L, L]", key="grid.h")
    return 2 * int(round(half_width / h)) + 1


def _check_size(dim, n_axis, frames):
    """Raise before any array of a grid of this shape exists, if one of its
    arrays would pass _MAX_GRID_VALUES."""
    nodes = n_axis ** dim
    values = nodes * max(frames, nodes // n_axis)
    if values > _MAX_GRID_VALUES:
        raise ConfigError(f"{n_axis}^{dim} nodes with {frames} time frames need "
                          f"{values} values per array, over the budget of "
                          f"{_MAX_GRID_VALUES}", key="grid.h")


@dataclass(frozen=True, eq=False)
class SpaceTimeGrid:
    dim: int
    half_width: float            # L; cube is [-L, L]^n
    h: float                     # actual spatial step (2L / (nodes - 1))
    times: np.ndarray            # strictly increasing, last element exactly 0
    ratio: float | None = None   # geometric grading ratio, if built that way

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or len(t) < 2:
            raise ValueError("need at least two time nodes")
        if np.any(np.diff(t) <= 0):
            raise ValueError("time nodes must be strictly increasing")
        if t[-1] != 0.0:
            raise ValueError("time mesh must end exactly at 0")
        object.__setattr__(self, "times", t)

    @classmethod
    def geometric(cls, dim, half_width, h, ratio, dt0, depth=None):
        """Mesh on (-T, 0] with steps dt0, dt0*ratio, ... snapped onto 0.

        T defaults to half_width^2 (the parabolic scaling of the cube).
        Requires dt0 > T (1 - ratio) so the geometric sum reaches 0.
        """
        if not 0.0 < ratio < 1.0:
            raise ConfigError("grading ratio must lie in (0, 1)", key="grid.q")
        T = half_width ** 2 if depth is None else float(depth)
        if dt0 <= T * (1.0 - ratio):
            raise ConfigError(f"coarsest step must exceed T (1 - ratio) = "
                              f"{T * (1.0 - ratio):g}: geometric steps never reach 0",
                              key="grid.dt0")
        n_nodes = _axis_nodes(half_width, h)
        times = [-T]
        step = float(dt0)
        floor = 1e-9 * T
        while True:
            _check_size(dim, n_nodes, len(times) + 1)
            nxt = times[-1] + step
            if nxt > -max(step * ratio * 0.5, floor):
                break
            times.append(nxt)
            step *= ratio
        times.append(0.0)
        h_eff = 2.0 * half_width / (n_nodes - 1)
        return cls(dim=dim, half_width=float(half_width), h=h_eff,
                   times=np.array(times), ratio=float(ratio))

    @classmethod
    def from_times(cls, dim, half_width, h, times):
        n_nodes = _axis_nodes(half_width, h)
        _check_size(dim, n_nodes, len(times))
        h_eff = 2.0 * half_width / (n_nodes - 1)
        return cls(dim=dim, half_width=float(half_width), h=h_eff,
                   times=np.asarray(times, dtype=float))

    @property
    def n_axis(self):
        return int(round(2.0 * self.half_width / self.h)) + 1

    def axis(self):
        return np.linspace(-self.half_width, self.half_width, self.n_axis)

    def points(self):
        """All node coordinates, flattened C-order, shape (n_axis^dim, dim)."""
        ax = self.axis()
        grids = np.meshgrid(*([ax] * self.dim), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    def shape(self):
        return (self.n_axis,) * self.dim


@dataclass(eq=False)
class GridFunction:
    grid: SpaceTimeGrid
    values: np.ndarray           # (n_times, n_axis, ..., n_axis)

    def __post_init__(self):
        want = (len(self.grid.times),) + self.grid.shape()
        if self.values.shape != want:
            raise ValueError(f"value array shape {self.values.shape} != {want}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid function carries non-finite values")


def _corners(grid, X):
    """Cell corners of points X (m, n): flat node indices and multilinear
    weights, each (2^n, m), corner bits in axis order (bit d steps axis d)."""
    n = grid.dim
    na = grid.n_axis
    c = (X + grid.half_width) / grid.h
    i0 = np.clip(np.floor(c).astype(int), 0, na - 2)
    frac = np.clip(c - i0, 0.0, 1.0)
    strides = na ** np.arange(n - 1, -1, -1)
    bits = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
    flat = (i0 @ strides)[None, :] + (bits @ strides)[:, None]
    wgt = np.ones((2 ** n, X.shape[0]))
    for d in range(n):
        wgt *= np.where(bits[:, d:d + 1] == 1, frac[:, d], 1.0 - frac[:, d])
    return flat, wgt


def _interpolate(values, frames, flat, wgt):
    """Interpolants of the time frames values[j], j in frames, at the corners
    (flat, wgt) of _corners: shape (len(frames), m).  Each is summed corner by
    corner from zero, in corner order."""
    out = np.zeros((len(frames), flat.shape[1]))
    for row, j in zip(out, frames):
        vals = np.take(values[j].reshape(-1), flat)
        for corner in range(flat.shape[0]):
            row += wgt[corner] * vals[corner]
    return out


def _in_time(v, theta):
    """Interpolants of one or two time frames (rows of v) -> the interpolant
    at the time theta of the way from the first to the second."""
    return v[0] if len(v) == 1 else (1.0 - theta) * v[0] + theta * v[1]


def _by_time(sample, X, s):
    """sample(X, t) for one time t, applied to each contiguous run of points
    of equal time when s holds one time per point (a scalar s is one run);
    each run is a view of X, so memory per call stays that of one run.
    ``sample`` returns a tuple of arrays with the points on their last axis,
    and the runs' arrays are joined along it."""
    if np.ndim(s) == 0:
        return sample(X, s)
    s = np.asarray(s)
    bounds = [0, *(np.flatnonzero(s[1:] != s[:-1]) + 1).tolist(), len(s)]
    if len(bounds) == 2:    # one time for every point
        return sample(X, s[0])
    runs = [sample(X[a:b], s[a]) for a, b in zip(bounds[:-1], bounds[1:])]
    return tuple(np.concatenate(parts, axis=-1) for parts in zip(*runs))


class GridPhaseSampler:
    """Callable value/gradient samplers backed by a GridFunction.

    Values interpolate multilinearly in space and linearly between the two
    bracketing time frames.  Gradients are central differences of the
    interpolant with the grid step; where the opposite phase is positive on
    one side, a one-sided difference from the clean side is used instead
    (interface stencils are biased).  ``fields`` samples this phase and
    ``other`` (which must live on the same grid) together: it stacks the 2n+1
    stencil points, locates their cells once and reads both grids' frames
    from the shared corners, so each grid's raw frames give the other phase
    its one-sided mask and stencil row 0, the point itself, gives the values.
    ``grad`` is this phase's row of ``fields``.  The time s is a scalar or one
    time per point, with equal times in contiguous runs.
    """

    def __init__(self, gf, other=None):
        self.gf = gf
        self.grids = (gf,) if other is None else (gf, other)
        # positivity thresholds of the grids, for the other phase's mask
        self.tols = [1e-12 * max(1.0, float(np.max(np.abs(g.values))))
                     for g in self.grids]

    def _frames(self, s):
        """The time frames bracketing s and the weight of the later one."""
        t = self.gf.grid.times
        if s <= t[0]:
            return [0], 0.0
        if s >= t[-1]:
            return [len(t) - 1], 0.0
        j = int(np.searchsorted(t, s, side="right") - 1)
        j = min(j, len(t) - 2)
        theta = float((s - t[j]) / (t[j + 1] - t[j]))
        return ([j] if theta == 0.0 else [j, j + 1]), theta

    def value(self, X, s):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return _by_time(lambda Xr, t: (self._value_at(Xr, t),), X, s)[0]

    def _value_at(self, X, s):
        frames, theta = self._frames(s)
        flat, wgt = _corners(self.gf.grid, X)
        return _in_time(_interpolate(self.gf.values, frames, flat, wgt), theta)

    def grad(self, X, s):
        return self.fields(X, s)[1][0]

    def fields(self, X, s):
        """Values (k, m) and gradients (k, m, n) of this phase and, if there
        is one, ``other`` at X (m, n), in that order."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        values, grads = _by_time(self._fields_at, X, s)
        return values, np.ascontiguousarray(grads.transpose(0, 2, 1))

    def _fields_at(self, X, s):
        """Values (k, m) and gradient components (k, n, m) at one time s."""
        m, n = X.shape
        h = self.gf.grid.h
        # stencil rows: X, then X + h e_d and X - h e_d for each axis d
        steps = np.zeros((2 * n + 1, n))
        steps[1::2] = h * np.eye(n)
        steps[2::2] = -h * np.eye(n)
        frames, theta = self._frames(s)
        flat, wgt = _corners(self.gf.grid,
                             (X[None] + steps[:, None]).reshape(-1, n))
        raw = [_interpolate(g.values, frames, flat, wgt) for g in self.grids]
        # one-sided masks: where the other grid's raw frames are positive
        if len(raw) == 1:
            masks = [np.zeros((2 * n + 1, m), dtype=bool)]
        else:
            masks = [(r.max(axis=0) > tol).reshape(2 * n + 1, m)
                     for r, tol in zip(raw[::-1], self.tols[::-1])]
        values, grads = [], []
        for r, o in zip(raw, masks):
            v = _in_time(r, theta).reshape(2 * n + 1, m)
            v_c, v_p, v_m = v[0], v[1::2], v[2::2]
            o_p, o_m = o[1::2], o[2::2]
            central = (v_p - v_m) / (2.0 * h)
            fwd = (v_p - v_c) / h
            bwd = (v_c - v_m) / h
            g = np.where(o_p & ~o_m, bwd, central)
            g = np.where(o_m & ~o_p, fwd, g)
            values.append(v_c)
            grads.append(np.where(o_m & o_p, 0.0, g))
        return np.array(values), np.array(grads)
