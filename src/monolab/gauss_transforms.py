"""Reduction of curved slice measures to Gauss measure, and the Gaussian
functional inequalities.

Two maps do the reduction at a fixed slice s of the parabolic rescaling at
scale r, which reads the scenario's own chart at r y (a chart is never
rescaled).  The first integrates the metric square root along rays,
y(x) = int_0^1 g^{1/2}(tx) x dt.  Every built-in chart is an exact
normal-coordinate chart, so the Gauss lemma g(x) x = x makes this map the
identity with Jacobian 1; the pushforward uses that closed form, and
``RayTransform`` keeps the numerical map as the reference the tests compare it
against.  The remaining density deviation A(y) (volume density and, for
the order-zero kernel, its -1/4 power) is absorbed by the radial map
z -> z + psi(z) solving z . psi = v ln(1 + A) outside the unit ball (v the
Gauss variance of the slice; v = 1 is the unit-variance calibration), blended to zero
inside by a quintic profile, so |psi| and |D psi| stay O(r^2).

The inequality layer: Rayleigh quotients, the logarithmic Poincare check, the
disjoint-support two-phase lower bound (quotients summing to at least 1), and
its curved-chart version with the r^2 deficit ladder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import functional, geometry, kernels, quadrature
from .cutoff import smoothstep
from .errors import DegenerateInputError, DomainError, PreconditionError

__all__ = [
    "GaussMeasure",
    "GaussField",
    "gauss_integral",
    "rayleigh_quotient",
    "gaussian_poincare_check",
    "bkp_sum",
    "pushforward_deviation",
    "pushforward_ladder",
    "manifold_bkp_deficit",
    "bkp_deficit_ladder",
    "half_plane_field",
]

_POINCARE_TOL = 1e-8
_NOISE_FLOOR = 1e-10     # deficit-ladder values up to it are numerical zeros
# pushforward-ladder values up to it are exact zeros, left out of its slope fits
PUSHFORWARD_FLOOR = 1e-12
_BLEND_START = 0.5       # PsiMap blends psi to zero from |z| = 1 down to it


@dataclass(frozen=True)
class GaussMeasure:
    dim: int
    variance: float

    def __post_init__(self):
        if self.variance <= 0:
            raise ValueError("variance must be positive")


@dataclass(eq=False)
class GaussField:
    value: Callable            # X (m,n) -> (m,)
    grad: Callable             # X (m,n) -> (m,n)


def half_plane_field(n, sign=+1, power=1.0):
    """((x.e)_pm)^power with its gradient, e = e_1; the workhorse test field."""
    def value(X):
        return np.maximum(sign * np.atleast_2d(X)[:, 0], 0.0) ** power

    def grad(X):
        X = np.atleast_2d(X)
        d = sign * X[:, 0]
        out = np.zeros_like(X)
        out[:, 0] = np.where(d > 0, power * np.maximum(d, 0.0) ** (power - 1.0) * sign, 0.0)
        return out

    return GaussField(value=value, grad=grad)


def gauss_integral(f, measure):
    # r_tail 9 puts the truncated tail below 1e-8 even at unit variance
    return quadrature.gauss_weighted_integral(
        f, measure.dim, measure.variance,
        quadrature.default_config(measure.dim, r_tail=9.0))


def rayleigh_quotient(f, measure):
    """int |grad f|^2 dnu / int f^2 dnu; invariant under positive scaling."""
    num = gauss_integral(lambda X: np.sum(np.asarray(f.grad(X)) ** 2, axis=1),
                         measure)
    den = gauss_integral(lambda X: np.asarray(f.value(X)) ** 2, measure)
    if den <= 0:
        raise DegenerateInputError("zero-mass field in a Rayleigh quotient")
    return num / den


def gaussian_poincare_check(f, measure):
    """log(1/|f|_nu) int f^2 dnu <= 2 int |grad f|^2 dnu, with |f|_nu = int f dnu.

    Inputs outside the hypothesis class (|f|_nu not in (0,1), or vanishing
    gradient, e.g. constants) are flagged, not judged.
    """
    fnu = gauss_integral(lambda X: np.asarray(f.value(X)), measure)
    l2 = gauss_integral(lambda X: np.asarray(f.value(X)) ** 2, measure)
    if fnu <= 0 or l2 <= 0:
        raise DegenerateInputError("field must have positive mass")
    grad2 = gauss_integral(lambda X: np.sum(np.asarray(f.grad(X)) ** 2, axis=1),
                           measure)
    hypothesis_ok = bool(fnu < 1.0 and grad2 > _POINCARE_TOL * l2)
    lhs = np.log(1.0 / fnu) * l2
    rhs = 2.0 * grad2
    return {
        "f_nu": fnu,
        "l2": l2,
        "lhs": lhs,
        "rhs": rhs,
        "margin": rhs - lhs,
        "hypothesis_ok": hypothesis_ok,
        "passed": bool(lhs <= rhs + _POINCARE_TOL) if hypothesis_ok else None,
    }


def bkp_sum(f_plus, f_minus, measure):
    """Sum of the two Rayleigh quotients for disjointly supported phases
    (checked on 2000 seeded samples); it passes down to a deficit of -1e-3."""
    rng = np.random.default_rng(20240119)
    X = rng.standard_normal((2000, measure.dim)) * np.sqrt(measure.variance)
    vp = np.asarray(f_plus.value(X))
    vm = np.asarray(f_minus.value(X))
    scale = max(float(np.max(np.abs(vp))), float(np.max(np.abs(vm))), 1e-300)
    if float(np.max(vp * vm)) > 1e-10 * scale ** 2:
        raise PreconditionError("phases overlap: f_+ f_- > 0 on samples")
    lam_p = rayleigh_quotient(f_plus, measure)
    lam_m = rayleigh_quotient(f_minus, measure)
    s = lam_p + lam_m
    return {
        "lambda_plus": lam_p,
        "lambda_minus": lam_m,
        "sum": s,
        "deficit": s - 1.0,
        "passed": bool(s - 1.0 >= -1e-3),
    }


# ---------------------------------------------------------------------------
# the two reduction transforms


def _fd_jacobian(forward, X, step):
    """Central-difference Jacobian (m, n, n) of the map ``forward`` at the
    points X, column d from the steps +- step along axis d."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return np.stack([(forward(X + e) - forward(X - e)) / (2.0 * step)
                     for e in step * np.eye(X.shape[1])], axis=2)


class RayTransform:
    """y(x) = int_0^1 g^{1/2}(tx) x dt on a chart, by Gauss-Legendre nodes
    along each ray; the numerical reference for the closed form y = x."""

    def __init__(self, chart):
        self.chart = chart
        nodes, weights = np.polynomial.legendre.leggauss(16)
        self.t_nodes = 0.5 * (nodes + 1.0)
        self.t_weights = 0.5 * weights

    def forward(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.zeros_like(X)
        for t, w in zip(self.t_nodes, self.t_weights):
            g = geometry.metric_fields(self.chart, t * X)["g"]
            vals, vecs = np.linalg.eigh(g)
            if np.any(vals <= 0):
                raise DomainError("metric not SPD along a ray")
            root = (vecs * np.sqrt(vals)[:, None, :]) @ vecs.transpose(0, 2, 1)
            out += w * np.einsum("mij,mj->mi", root, X)
        return out

    def jacobian_det(self, X):
        J = _fd_jacobian(self.forward, X, 1e-3)
        return np.linalg.det(J), J

    def inverse(self, Y):
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        X = Y.copy()
        for _ in range(6):
            res = self.forward(X) - Y
            if float(np.max(np.abs(res))) < 1e-12:
                break
            _, J = self.jacobian_det(X)
            X = X - np.linalg.solve(J, res[..., None])[..., 0]
        return X


class PsiMap:
    """z -> z + psi(z) with z . psi = variance * ln(1 + A(z)) outside B_1."""

    def __init__(self, a_field, variance=1.0):
        self.a_field = a_field
        self.variance = float(variance)

    def psi(self, Z):
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        rho = np.sqrt(np.sum(Z * Z, axis=1))
        a = np.asarray(self.a_field(Z), dtype=float)
        if np.any(a <= -1.0):
            raise DomainError("density deviation A <= -1: log undefined")
        blend = smoothstep((rho - _BLEND_START) / (1.0 - _BLEND_START))
        with np.errstate(divide="ignore", invalid="ignore"):
            coef = np.where(rho > _BLEND_START,
                            self.variance * np.log1p(a) / np.maximum(rho, 1e-300) ** 2,
                            0.0)
        return (blend * coef)[:, None] * Z

    def forward(self, Z):
        return np.atleast_2d(Z) + self.psi(Z)

    def jacobian_det(self, Z):
        return np.linalg.det(_fd_jacobian(self.forward, Z, 1e-2))


def pushforward_deviation(chart, r, kernel_kind="parametrix0", s=-0.5, cfg=None):
    """Compose both transforms at slice s and measure how far the pushforward
    density sits from the Gauss density; returns the record.

    The ray map is the identity with Jacobian 1 (Gauss lemma), so the density
    after it is the kernel-weighted volume density itself: the Gauss kernel at
    y times the kernel's order-zero factor and the volume density of the
    chart at r y."""
    if s not in (-0.5, -1.0):
        raise ValueError("pushforward slices are s = -1/2 or s = -1")
    cfg = cfg or quadrature.default_config(chart.dim)
    n = chart.dim
    t = -s
    v = 2.0 * t
    kern = kernels.KernelSpec(kernel_kind, chart)

    def gauss(Y):
        # the Gauss kernel at time t is the density of the variance-v measure
        return kernels.gauss_values(n, np.sum(Y * Y, axis=1), t)

    def density_after_ray(Y):
        _, dens = geometry.inverse_metric_and_density(chart, r * Y)
        return gauss(Y) * kern.factor(dens) * dens

    def a_field(Y):
        return density_after_ray(Y) / gauss(Y) - 1.0

    psi_map = PsiMap(a_field, variance=v)

    def pushforward_density(Z):
        Y = psi_map.forward(Z)
        return density_after_ray(Y) * psi_map.jacobian_det(Z)

    ax = np.linspace(-4.0, 4.0, 17)     # the sup deviation's sample grid
    grids = np.meshgrid(*([ax] * n), indexing="ij")
    Z = np.stack([g.ravel() for g in grids], axis=1)
    dev = pushforward_density(Z) / gauss(Z) - 1.0
    mass = quadrature.gauss_weighted_integral(
        lambda W: pushforward_density(W) / gauss(W), n, v, cfg)
    return {
        "r": r,
        "s": s,
        "variance": v,
        "sup_deviation": float(np.max(np.abs(dev))),
        "mass": mass,
        "mass_defect": abs(mass - 1.0),
    }


def pushforward_ladder(chart, rs, kernel_kind="parametrix0", s=-0.5, cfg=None):
    recs = [pushforward_deviation(chart, r, kernel_kind, s, cfg) for r in rs]
    sups = [rec["sup_deviation"] for rec in recs]
    defects = [rec["mass_defect"] for rec in recs]
    fitted_mass_const = max((d / r ** 2 for r, d in zip(rs, defects)), default=np.nan)
    return {
        "rs": list(rs),
        "records": recs,
        "sup_slope": functional.fit_log_slope(rs, sups, floor=PUSHFORWARD_FLOOR),
        "mass_defect_slope": functional.fit_log_slope(rs, defects, floor=PUSHFORWARD_FLOOR),
        "fitted_mass_constant": float(fitted_mass_const),
    }


# ---------------------------------------------------------------------------
# curved-chart two-phase lower bound


def manifold_bkp_deficit(input_, r):
    """Rayleigh quotients of the rescaled truncated phases on the s = -1 slice
    under the rescaled kernel measure; their sum against 1.  Each quotient
    is read from the input at scale r: lambda = r^2 B(r) / m(-r^2)."""
    out = {}
    for name, num, den in zip(("plus", "minus"),
                              functional.boundary_energy(input_, r),
                              functional.slice_mass(input_, -r * r)):
        if den <= 0:
            raise DegenerateInputError(
                f"phase {name} vanishes on the s = -1 slice (its energy is "
                "then bounded and the dichotomy is moot)")
        out[name] = r * r * num / den
    s = out["plus"] + out["minus"]
    return {
        "r": r,
        "lambda_plus": out["plus"],
        "lambda_minus": out["minus"],
        "sum": s,
        "deficit": s - 1.0,
        "negative_part": max(0.0, 1.0 - s),
        "lower_bound_constant": (1.0 - s) / r ** 2,
    }


def bkp_deficit_ladder(input_, rs):
    recs = [manifold_bkp_deficit(input_, r) for r in rs]
    devs = [abs(rec["deficit"]) for rec in recs]
    negs = [rec["negative_part"] for rec in recs]
    return {
        "rs": list(rs),
        "records": recs,
        "deviation_slope": functional.fit_log_slope(rs, devs, floor=_NOISE_FLOOR),
        "negative_part_slope": functional.fit_log_slope(rs, negs, floor=_NOISE_FLOOR),
        "all_nonnegative": bool(max(negs) <= _NOISE_FLOOR),
        "max_negative_part": float(max(negs)),
        "fitted_lower_bound_constant": float(max(
            (rec["negative_part"] / rec["r"] ** 2 for rec in recs))),
    }
