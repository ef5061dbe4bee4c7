"""Admissible two-phase pairs: analytic families and evolved grid pairs.

Every pair has one sampler whose ``values(X, s)`` (2, k, m) and
``fields(X, s)`` (values and gradients (2, k, m, n)) read both phases,
(plus, minus) in that order, at rows of points X (p, m, n), p = 1 or k, and
a 1-D array of times s (k,), as ``grids`` describes them.  The analytic
families share one plane-pair sampler that projects the points on e once and
multiplies a spatial factor of each phase by a time factor (k, 1); a grid
pair's sampler is one ``GridPhaseSampler`` over both grids.  A pair that does
not depend on s (Null, TwoPlaneCaloric, PowerWedge) reads the k times as
one: on one row of points its arrays carry a time axis of length 1,
(2, 1, m) and (2, 1, m, n), which broadcasts against the k times, so a
caller that needs every time broadcasts it.
``pair.plus`` and ``pair.minus``, the sampler's rows, are kept only for
``bench/tracer.py``; a pair holds no admissibility state.
Families (e is the first coordinate axis):

* Null                  (0, 0)
* TwoPlaneCaloric       (alpha (x.e)_+, beta (x.e)_-), caloric on flat charts
* PowerWedge            (((x.e)_+)^(1+beta), ((x.e)_-)^(1+beta)), beta in (0,1]
* DriftTwoPlane         ((x.e)_+ (1+ct), (x.e)_- (1+ct)), c in [0, 1/2];
                        the residual is -c (x.e)_pm, genuinely negative
* NumericPair           two heat evolutions on complementary half-cubes with
                        zero interface values and a bounded-below source
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import numpy.random  # noqa: F401  (imported with the package, not on first use)

from ..errors import ConfigError
from .grids import GridPhaseSampler
from .solver import solve_heat

__all__ = ["Phase", "TwoPhasePair", "make_family", "family_params",
           "param_types", "FAMILY_NAMES"]

# family -> parameter it reads -> (type, default, admissible, the admissible
# range); admissible None takes every value of the type
_PARAMS = {
    "Null": {},
    "TwoPlaneCaloric": {"alpha": (float, 1.0, lambda v: v >= 0.0, ">= 0"),
                        "beta": (float, 1.0, lambda v: v >= 0.0, ">= 0")},
    "PowerWedge": {"beta": (float, 0.5, lambda v: 0.0 < v <= 1.0, "in (0, 1]")},
    "DriftTwoPlane": {"c": (float, 0.5, lambda v: 0.0 <= v <= 0.5,
                            "in [0, 1/2] (the residual -c (x.e)_pm must stay "
                            ">= -1 on the chart)")},
    "NumericPair": {"seed": (int, 0, lambda v: v >= 0, ">= 0"),
                    "overlap": (bool, False, None, ""),    # negative control
                    "source_depth": (float, 0.5, lambda v: 0.0 <= v <= 1.0,
                                     "in [0, 1] (keeps the residual >= -1)"),
                    "n_bumps": (int, 2, lambda v: v >= 1, ">= 1")},
}

FAMILY_NAMES = tuple(_PARAMS)


@dataclass(eq=False)
class Phase:
    value: Callable          # (X (p, m, n), s (k,)) -> (k, m)
    grad: Callable           # (X (p, m, n), s (k,)) -> (k, m, n)


@dataclass(eq=False)
class TwoPhasePair:
    """Two phases read through one ``sampler``: ``values`` (2, k, m) and
    ``fields`` (values and gradients (2, k, m, n)) of (plus, minus) at the
    rows X and times s; a pair that does not depend on s returns a time axis
    of length 1 on one row of points, (2, 1, m) and (2, 1, m, n).  ``plus``
    and ``minus`` are its rows, built once."""
    sampler: object = field(repr=False)

    def __post_init__(self):
        # the rows close over the sampler, not the pair: a pair in a reference
        # cycle would keep its arrays until the cyclic collector runs
        sampler = self.sampler
        self.plus, self.minus = (
            Phase(value=lambda X, s, i=i: sampler.values(X, s)[i],
                  grad=lambda X, s, i=i: sampler.fields(X, s)[1][i])
            for i in (0, 1))

    def values(self, X, s):
        return self.sampler.values(X, s)

    def fields(self, X, s):
        return self.sampler.fields(X, s)


@dataclass(frozen=True, eq=False)
class _PlanePair:
    """(a+ ((x.e)_+)^p, a- ((x.e)_-)^p) (1 + drift s): one projection d = X @ e
    per call, each phase reading sign * d (exact: the sign is +-1).  With
    drift = 0 the pair does not depend on s, and times s (k,) read as one:
    a row of points gives a time axis of length 1."""
    e: np.ndarray
    amps: tuple              # (a+, a-)
    power: float = 1.0
    drift: float = 0.0

    def _rows(self, X, s):
        if self.drift == 0.0:
            s = s[:1]       # stationary: one time stands for all of them
        # the time factor is a column (k, 1) against the points axis
        return X @ self.e, 1.0 + self.drift * s[:, None]

    def _values(self, d, time):
        return np.array([amp * np.maximum(sign * d, 0.0) ** self.power * time
                         for amp, sign in zip(self.amps, (1.0, -1.0))])

    def values(self, X, s):
        return self._values(*self._rows(X, s))

    def fields(self, X, s):
        d, time = self._rows(X, s)
        values, grads = self._values(d, time), []
        for amp, sign in zip(self.amps, (1.0, -1.0)):
            ds = sign * d
            pos = np.maximum(ds, 0.0)
            slope = np.where(ds > 0.0, self.power * pos ** (self.power - 1.0), 0.0)
            grads.append((amp * time * slope * sign)[..., None] * self.e)
        return values, np.array(grads)


def _bump(X, center, width):
    r2 = np.sum((X - center) ** 2, axis=1) / width ** 2
    return np.maximum(0.0, 1.0 - r2) ** 3


def param_types(name):
    """Parameter -> type of each parameter family ``name`` reads; an unknown
    family raises ConfigError (a ValueError) keyed ``pair.family``."""
    if name not in _PARAMS:
        raise ConfigError(f"unknown two-phase family {name!r} (known: "
                          f"{', '.join(FAMILY_NAMES)})", key="pair.family")
    return {key: spec[0] for key, spec in _PARAMS[name].items()}


def family_params(name, params, grid=None):
    """The parameters family ``name`` reads from ``params``, as their types,
    defaults filled in; an unknown family or a value outside its range raises
    ConfigError keyed ``pair.family`` or ``pair.<parameter>``.  On a ``grid``
    where a NumericPair phase would have no active interior node it raises
    ConfigError keyed ``grid.h``."""
    param_types(name)
    out = {}
    for key, (kind, default, admissible, what) in _PARAMS[name].items():
        value = kind(params.get(key, default))
        if admissible is not None and not admissible(value):
            raise ConfigError(f"{key} must be {what}", key=f"pair.{key}")
        out[key] = value
    # a half-cube phase holds the nodes with x_1 > 0 (or < 0) off the faces:
    # with 2N + 1 nodes per axis, N >= 2 leaves one
    if (name == "NumericPair" and grid is not None and not out["overlap"]
            and grid.n_axis < 5):
        raise ConfigError("a NumericPair phase on a half-cube needs an interior "
                          "node: round(L / h) >= 2", key="grid.h")
    return out


def _numeric_pair(values, chart, grid):
    seed, overlap = values["seed"], values["overlap"]
    depth, n_bumps = values["source_depth"], values["n_bumps"]
    if grid is None:
        raise ValueError("NumericPair needs a SpaceTimeGrid")
    rng = np.random.default_rng(seed)
    pts = grid.points()
    L = grid.half_width

    def one_side(sgn):
        margin = 0.15 * L
        centers, widths, amps = [], [], []
        for _ in range(n_bumps):
            w = rng.uniform(0.12, 0.25) * L
            c = rng.uniform(-0.6 * L, 0.6 * L, size=chart.dim)
            lo = margin + w if not overlap else -0.3 * L
            c[0] = sgn * rng.uniform(lo, max(lo + 0.05 * L, 0.65 * L - w))
            centers.append(c)
            widths.append(w)
            amps.append(rng.uniform(0.5, 1.0))
        src_amp = depth * rng.uniform(0.5, 1.0)
        src_c = np.array(centers[0])
        src_w = widths[0] * 1.5

        def initial(X):
            out = np.zeros(X.shape[0])
            for c, w, a in zip(centers, widths, amps):
                out += a * _bump(X, c, w)
            return out

        def source(X, t):
            return -src_amp * _bump(X, src_c, src_w)

        side = pts[:, 0] * sgn
        active = side > 1e-12 if not overlap else np.ones(len(pts), dtype=bool)
        zero = lambda X, t: np.zeros(X.shape[0])
        gf = solve_heat(chart, source, initial, zero, grid,
                        active=active.reshape(grid.shape()).ravel())
        return gf

    return GridPhaseSampler(one_side(+1), one_side(-1))


def make_family(name, params, chart, grid=None):
    """Build an admissible two-phase pair on ``chart``; unknown names or bad
    parameters raise ConfigError (a ValueError)."""
    values = family_params(name, params, grid)
    e = np.eye(chart.dim)[0]
    if name == "Null":      # two planes of amplitude 0
        sampler = _PlanePair(e, (0.0, 0.0))
    elif name == "TwoPlaneCaloric":
        sampler = _PlanePair(e, (values["alpha"], values["beta"]))
    elif name == "PowerWedge":
        sampler = _PlanePair(e, (1.0, 1.0), power=1.0 + values["beta"])
    elif name == "DriftTwoPlane":
        sampler = _PlanePair(e, (1.0, 1.0), drift=values["c"])
    else:                   # NumericPair
        sampler = _numeric_pair(values, chart, grid)
    return TwoPhasePair(sampler)
