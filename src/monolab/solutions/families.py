"""Admissible two-phase pairs: analytic families and evolved grid pairs.

Every phase exposes vectorized ``value(X, s)`` and ``grad(X, s)`` samplers;
s is one time or one time per point.  A pair's ``fields(X, s)`` samples both
phases at once, as the functional's integrands need them.
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
    value: Callable          # (X (m,n), s) -> (m,)
    grad: Callable           # (X (m,n), s) -> (m,n)


@dataclass(eq=False)
class TwoPhasePair:
    """Two phases; ``fields`` samples both at once.  ``joint`` is a sampler
    (X, s) -> (values (2, m), grads (2, m, n)) that shares work between the
    phases, or None to stack the phases' own calls."""
    plus: Phase
    minus: Phase
    family: str
    params: dict = field(default_factory=dict)
    admissibility: dict = field(default_factory=dict)
    joint: Callable | None = field(default=None, repr=False)

    def fields(self, X, s):
        """Values (2, m) and gradients (2, m, n) of (plus, minus) at X (m, n);
        bit-identical to the phases' own value and grad calls."""
        if self.joint is not None:
            return self.joint(X, s)
        phases = (self.plus, self.minus)
        return (np.array([np.asarray(p.value(X, s), dtype=float) for p in phases]),
                np.array([np.asarray(p.grad(X, s), dtype=float) for p in phases]))


def _null_phase(n):
    return Phase(value=lambda X, s: np.zeros(np.atleast_2d(X).shape[0]),
                 grad=lambda X, s: np.zeros(np.atleast_2d(X).shape))


def _plane_phase(e, amp, sign, power=1.0, drift=0.0):
    def value(X, s):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        d = sign * (X @ e)
        pos = np.maximum(d, 0.0)
        return amp * pos ** power * (1.0 + drift * s)

    def grad(X, s):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        d = sign * (X @ e)
        pos = np.maximum(d, 0.0)
        slope = np.where(d > 0.0, power * pos ** (power - 1.0), 0.0)
        return (amp * (1.0 + drift * s) * slope * sign)[:, None] * e[None, :]

    return Phase(value=value, grad=grad)


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


def family_params(name, params):
    """The parameters family ``name`` reads from ``params``, as their types,
    defaults filled in; an unknown family or a value outside its range raises
    ConfigError keyed ``pair.family`` or ``pair.<parameter>``."""
    param_types(name)
    out = {}
    for key, (kind, default, admissible, what) in _PARAMS[name].items():
        value = kind(params.get(key, default))
        if admissible is not None and not admissible(value):
            raise ConfigError(f"{key} must be {what}", key=f"pair.{key}")
        out[key] = value
    return out


def _numeric_pair(n, values, chart, grid):
    seed, overlap = values["seed"], values["overlap"]
    depth, n_bumps = values["source_depth"], values["n_bumps"]
    if chart is None or grid is None:
        raise ValueError("NumericPair needs a chart and a SpaceTimeGrid")
    rng = np.random.default_rng(seed)
    pts = grid.points()
    L = grid.half_width

    def one_side(sgn):
        margin = 0.15 * L
        centers, widths, amps = [], [], []
        for _ in range(n_bumps):
            w = rng.uniform(0.12, 0.25) * L
            c = rng.uniform(-0.6 * L, 0.6 * L, size=n)
            lo = margin + w if not overlap else -0.3 * L
            c[0] = sgn * rng.uniform(lo, max(lo + 0.05 * L, 0.65 * L - w))
            centers.append(c)
            widths.append(w)
            amps.append(rng.uniform(0.5, 1.0))
        src_amp = depth * rng.uniform(0.5, 1.0)
        src_c = np.array(centers[0])
        src_w = widths[0] * 1.5

        def initial(X):
            out = np.zeros(np.atleast_2d(X).shape[0])
            for c, w, a in zip(centers, widths, amps):
                out += a * _bump(np.atleast_2d(X), c, w)
            return out

        def source(X, t):
            return -src_amp * _bump(np.atleast_2d(X), src_c, src_w)

        side = pts[:, 0] * sgn
        active = side > 1e-12 if not overlap else np.ones(len(pts), dtype=bool)
        zero = lambda X, t: np.zeros(np.atleast_2d(X).shape[0])
        gf = solve_heat(chart, source, initial, zero, grid,
                        active=active.reshape(grid.shape()).ravel())
        return gf

    gf_plus = one_side(+1)
    gf_minus = one_side(-1)
    sp_plus = GridPhaseSampler(gf_plus, other=gf_minus)
    sp_minus = GridPhaseSampler(gf_minus, other=gf_plus)
    return (Phase(value=sp_plus.value, grad=sp_plus.grad),
            Phase(value=sp_minus.value, grad=sp_minus.grad),
            sp_plus.fields, {"grid_plus": gf_plus, "grid_minus": gf_minus})


def make_family(name, params=None, chart=None, grid=None):
    """Build an admissible two-phase pair; unknown names or bad parameters
    raise ConfigError (a ValueError)."""
    params = dict(params or {})
    n = chart.dim if chart is not None else int(params.get("dim", 2))
    values = family_params(name, params)
    if name == "Null":
        return TwoPhasePair(plus=_null_phase(n), minus=_null_phase(n),
                            family=name, params=params)
    e = np.eye(n)[0]
    if name == "TwoPlaneCaloric":
        return TwoPhasePair(plus=_plane_phase(e, values["alpha"], +1.0),
                            minus=_plane_phase(e, values["beta"], -1.0),
                            family=name, params=params)
    if name == "PowerWedge":
        p = 1.0 + values["beta"]
        return TwoPhasePair(plus=_plane_phase(e, 1.0, +1.0, power=p),
                            minus=_plane_phase(e, 1.0, -1.0, power=p),
                            family=name, params=params)
    if name == "DriftTwoPlane":
        return TwoPhasePair(plus=_plane_phase(e, 1.0, +1.0, drift=values["c"]),
                            minus=_plane_phase(e, 1.0, -1.0, drift=values["c"]),
                            family=name, params=params)
    plus, minus, joint, extra = _numeric_pair(n, values, chart, grid)  # NumericPair
    pair = TwoPhasePair(plus=plus, minus=minus, family=name, params=params,
                        joint=joint)
    pair.admissibility.update(extra)
    return pair

