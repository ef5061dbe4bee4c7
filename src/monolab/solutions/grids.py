"""Space-time grids and grid-backed field samplers.

The spatial grid is uniform on the cube [-L, L]^n with a node at the origin.
The time mesh lives on (-T, 0] and, for the geometric constructor, marches
from -T toward 0 with steps shrinking by a fixed ratio (coarsest step first),
the final step snapped to land exactly on 0.

A grid pair's sampler keeps each grid's time frames padded with two
edge-copied ghost layers per face.  ``GridPhaseSampler._locate`` locates the
cell of each point once (flat indices and weights of its 2^n corners in the
padded frames) and ``_interpolate`` reads any time frame of either grid from
them; the gradient stencil X +- h e_d reads the same cell shifted by one
node, with the same weights, so it is located once too.  The sampler takes
rows of points X (p, m, n), or (m, n) for p = 1, and times s (k,) or a
scalar: p = 1 is one row that every time reads (as a fixed-point rule passes
it), p = k one row per time.  Each row is located once for both grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError

__all__ = ["SpaceTimeGrid", "GridFunction", "GridPhaseSampler",
           "positivity_tol"]


# Values per array of a grid-backed solve, with nodes the grid's nodes: a
# field holds nodes x frames, and each dense slab block set of the heat
# solver (solver._slab_blocks) about nodes x (nodes per slab).  2^22 keeps
# either near 32 MB and admits the largest grid in use, acceptance 7's
# (141^2 nodes, 49 frames, 141 nodes per slab: 2.8 M).
_MAX_GRID_VALUES = 2 ** 22

# Edge copies padding each side of every axis of a sampler's frames: a point's
# cell starts at most one node outside the cube, and its stencil shifts the
# cell one node further.
_GHOST = 2


def positivity_tol(values):
    """The level above which a phase counts as positive: 1e-12 of its largest
    magnitude in ``values``, and at least 1e-12."""
    return 1e-12 * max(1.0, float(np.max(np.abs(values))))


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
    def geometric(cls, dim, half_width, h, ratio, dt0):
        """Mesh on (-T, 0] with steps dt0, dt0*ratio, ... snapped onto 0.

        T is half_width^2 (the parabolic scaling of the cube).
        Requires dt0 > T (1 - ratio) so the geometric sum reaches 0.
        """
        if not 0.0 < ratio < 1.0:
            raise ConfigError("grading ratio must lie in (0, 1)", key="grid.q")
        T = half_width ** 2
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


def _in_time(v, theta):
    """Interpolants of one or two time frames (rows of v) -> the interpolant
    at the time theta of the way from the first to the second."""
    return v[0] if len(v) == 1 else (1.0 - theta) * v[0] + theta * v[1]


def _by_row(locate, sample, X, s):
    """locate(row) once per row of points of X, then sample(located row, t) ->
    arrays (rows, m, ...) once per time of s, stacked to (rows, *lead, m, ...)
    with lead the leading axes of X and s broadcast."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    lead = np.broadcast_shapes(X.shape[:-2], np.shape(s))
    located = [locate(row) for row in X.reshape((-1,) + X.shape[-2:])]
    parts = [sample(located[i % len(located)], t)
             for i, t in enumerate(np.broadcast_to(s, lead).ravel())]
    return [np.stack(p, axis=1).reshape(p[0].shape[:1] + lead + p[0].shape[1:])
            for p in zip(*parts)]


def _interpolate(frame, index, weights, out):
    """Multilinear interpolants read from one flat padded frame: the corners
    ``index`` (..., 2^n, m) times ``weights`` (of the same shape), each summed
    corner by corner, in corner order, into ``out`` (..., m) of zeros (a sum
    over the corner axis may pair the terms when m = 1)."""
    vals = frame.take(index)
    vals *= weights
    for corner in range(vals.shape[-2]):
        out += vals[..., corner, :]


class GridPhaseSampler:
    """Both phases of a grid pair, (plus, minus), sampled from the
    GridFunctions ``gf_plus`` and ``gf_minus`` on one grid.

    Values interpolate multilinearly in space and linearly between the two
    bracketing time frames; a point outside the cube reads the nearest point
    of it.  Gradients are central differences of the interpolant with the grid
    step; where the opposite phase is positive on one side, a one-sided
    difference from the clean side is used instead (interface stencils are
    biased).  Each row of points (see the module doc) is located once, for
    both grids and every time that reads it.  ``fields`` reads the stencil
    points X +- h e_d as the cells of X shifted by one node, with the weights
    of X, so a point is located once however many stencil points read it;
    the frames are padded with edge copies, so a shifted cell past a cube face
    reads the face.  Each grid's raw frames give the other phase its one-sided
    mask, and the point's own row of the stencil gives the values.  ``value``
    is the plus row of ``values``.  ``grids`` holds the two GridFunctions.
    """

    def __init__(self, gf_plus, gf_minus):
        self.grids = (gf_plus, gf_minus)
        self.grid = grid = gf_plus.grid
        n = grid.dim
        pad = ((0, 0),) + ((_GHOST, _GHOST),) * n
        self._padded = [np.pad(g.values, pad, mode="edge").reshape(len(grid.times), -1)
                        for g in (gf_plus, gf_minus)]
        strides = (grid.n_axis + 2 * _GHOST) ** np.arange(n - 1, -1, -1)
        self._strides = strides
        # corner bits in axis order (bit d steps axis d)
        self._bits = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1 == 1
        # stencil rows in nodes: the point, then +e_0, -e_0, +e_1, -e_1, ...
        shifts = np.concatenate([[0], np.ravel(np.stack([strides, -strides], axis=1))])
        # flat offset of each corner of each stencil row from a cell's lower
        # corner, past the ghost layers: (2n+1, 2^n)
        self._offsets = (shifts[:, None] + self._bits @ strides
                         + _GHOST * strides.sum())
        # weights of each stencil row: the point's own (0) or the stencil's (1)
        self._weight_rows = np.minimum(np.arange(2 * n + 1), 1)
        # positivity thresholds of the grids, for the other phase's mask
        self.tols = np.array([positivity_tol(g.values) for g in (gf_plus, gf_minus)])

    def _frames(self, s):
        """The time frames bracketing s and the weight of the later one."""
        t = self.grid.times
        if s <= t[0]:
            return [0], 0.0
        if s >= t[-1]:
            return [len(t) - 1], 0.0
        j = int(np.searchsorted(t, s, side="right") - 1)
        j = min(j, len(t) - 2)
        theta = float((s - t[j]) / (t[j + 1] - t[j]))
        return ([j] if theta == 0.0 else [j, j + 1]), theta

    def _locate(self, X, rows):
        """The cells of points X (m, n), located once, and of the first
        ``rows`` rows of their stencil: the flat corner indices (rows, 2^n, m)
        in the padded frames and the weights, row 0 at the point clipped to
        the cube, the other rows at the point's fractions in its cell.  A
        cell's lower corner lies in [-1, n_axis - 1] on every axis, so the
        stencil cells one node either side stay in the padded frames."""
        last = self.grid.n_axis - 1
        c = (X + self.grid.half_width) / self.grid.h
        cell = np.clip(np.floor(c), -1.0, last)
        # the point's fractions, then the stencil's (needed when rows > 1)
        frac = np.stack([np.clip(c, 0.0, last) - cell,
                         np.clip(c - cell, 0.0, 1.0)][:rows])
        w = np.where(self._bits[:, :1], frac[:, None, :, 0], 1.0 - frac[:, None, :, 0])
        for d in range(1, X.shape[1]):
            w *= np.where(self._bits[:, d:d + 1], frac[:, None, :, d],
                          1.0 - frac[:, None, :, d])
        index = (cell.astype(int) @ self._strides) + self._offsets[:rows, :, None]
        return index, w[self._weight_rows[:rows]]

    def value(self, X, s):
        return self.values(X, s)[0]

    def values(self, X, s):
        """Values (2, k, ..., m) of (plus, minus)."""
        return _by_row(lambda X: self._locate(X, 1), self._values_at, X, s)[0]

    def _values_at(self, cells, s):
        frames, theta = self._frames(s)
        return (_in_time(self._raw(cells, frames), theta)[:, 0],)

    def fields(self, X, s):
        """Values (2, k, ..., m) and gradients (2, k, ..., m, n) of (plus,
        minus)."""
        return tuple(_by_row(lambda X: self._locate(X, len(self._weight_rows)),
                             self._fields_at, X, s))

    def _raw(self, cells, frames):
        """Interpolants (frame, phase, stencil row, m) of both phases' time
        frames at the located cells."""
        index, weights = cells
        raw = np.zeros((len(frames), 2) + index.shape[:1] + index.shape[-1:])
        for j, out in zip(frames, raw):
            for p, rows in zip(self._padded, out):
                _interpolate(p[j], index, weights, rows)
        return raw

    def _fields_at(self, cells, s):
        """Values (2, m) and gradients (2, m, n) at one time s."""
        h = self.grid.h
        frames, theta = self._frames(s)
        # stencil rows: 0 the point, then X + h e_d, X - h e_d for each axis d
        raw = self._raw(cells, frames)
        # one-sided masks: where the other phase's raw frames are positive
        other = raw.max(axis=0)[::-1] > self.tols[::-1, None, None]
        v = _in_time(raw, theta)
        o_p, o_m = other[:, 1::2], other[:, 2::2]
        # central difference, or one-sided from the clean side; 0 where the
        # other phase is positive on both sides (v_c - v_c)
        v_c = v[:, :1]
        hi = np.where(o_p, v_c, v[:, 1::2])
        lo = np.where(o_m, v_c, v[:, 2::2])
        g = (hi - lo) / np.where(o_p | o_m, h, 2.0 * h)
        return v[:, 0], g.swapaxes(1, 2)
