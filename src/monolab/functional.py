"""The two-phase monotonicity functional and its inequality checks.

Both phases are truncated by the radial cutoff, w_pm = u_pm * chi, and their
kernel-weighted Dirichlet energies

    A_pm(r) = iint_{S_r} |grad_g w_pm|^2 K(x, -s) dV_g ds,
    phi(r)  = r^{-4} A_+(r) A_-(r),

drive everything else: the dyadic ladder with its two proposition checks, the
energy inequality with fitted constants, the scale-derivative identity at the
unit scale of the parabolic rescaling, the global bound check, the refinement
of phi under a growth hypothesis, and the positivity-measure predicates.

Every one of these reduces to time slices of three kernel-weighted
integrands: |grad_g w_pm|^2 (`grad_sq`: phase and boundary energies), w_pm^2
(`w_sq`: slice masses and the e322 annulus) and the positivity indicator
(`positive`).  Each integrand evaluates both phases at every quadrature point
and returns one row per phase, (plus, minus): the radius, the cutoff mask,
the inverse metric, chi, chi' and x/|x| are computed once per call, and only
u, grad u (one `TwoPhasePair.fields` call for both), grad w and the metric
form once per phase.  Every check asks for the two signs at the same times,
so nothing is wasted.  Each MonotonicityInput owns its quadrature rule and
one slice table, keyed by (integrand kind, s) with the exact float time s
and holding the (plus, minus) pair, so a slice is integrated once per input
however many checks, scales, blocks or signs reach it.  The table is filled
per request: a space-time integral asks for every slice of its scale at
once, and the misses are integrated for both phases in one `slice_integral`
call.
The values depend neither on the order of evaluation nor on the grouping into
blocks, so a warm table returns exactly what a fresh input would compute.
A copy made by `dataclasses.replace` starts with an empty table, so a copy
under another rule (`dataclasses.replace(input_, quad=...)`) integrates its
own slices.  The checks at the unit scale of a parabolic rescaling (the scale
derivative here, the curved BKP quotients in `gauss_transforms`) read the
scenario's own table through the rescaling identities, so they add no input.

All fitted constants are reported, never asserted against the non-constructive
ones; regression guards are explicit config inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import geometry, quadrature
from .cutoff import CutoffProfile, chi as chi_of, dchi as dchi_of
from .errors import PreconditionError
from .kernels import KernelSpec

__all__ = [
    "MonotonicityInput",
    "DyadicLadder",
    "LadderRow",
    "ScaleDerivativeRecord",
    "EnergyInequalityRecord",
    "phase_energy",
    "phi",
    "boundary_energy",
    "dyadic_ladder",
    "scale_derivative",
    "energy_inequality_check",
    "theorem1_check",
    "theorem2_check",
    "positivity_measure",
    "slice_mass",
    "constants_stable",
    "fit_log_slope",
]


@dataclass(eq=False)
class MonotonicityInput:
    chart: geometry.NormalChart
    pair: object
    profile: CutoffProfile
    kernel: KernelSpec
    quad: quadrature.QuadratureConfig
    # (kind, s) -> (plus, minus) slice integrals under quad; see the module doc
    slice_table: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)

    def __post_init__(self):
        if self.kernel.chart is not self.chart:
            raise ValueError("kernel must be built on the same chart")
        validity = self.pair.admissibility.get("validity")
        if validity is not None and not validity.passed:
            raise PreconditionError("pair failed its validity check")

    @property
    def zone(self):
        return (self.profile.inner, self.profile.outer)


def _values(pair, X, s):
    """(plus, minus) values at X: (2, m)."""
    return np.array([np.asarray(pair.plus.value(X, s), dtype=float),
                     np.asarray(pair.minus.value(X, s), dtype=float)])


def _grad_sq_sampler(input_):
    profile = input_.profile
    pair = input_.pair

    def f(X, s, g_inv):
        rho = np.sqrt(np.sum(X * X, axis=1))
        out = np.zeros((2, X.shape[0]))
        mask = rho < profile.outer
        if not np.any(mask):
            return out
        Xm = X[mask]
        rm = rho[mask]
        g_m = g_inv[mask]
        u, du = pair.fields(Xm, s[mask])
        c = chi_of(profile, rm)
        d1 = dchi_of(profile, rm)
        xhat = Xm / np.where(rm > 0, rm, 1.0)[:, None]
        for row, u_k, du_k in zip(out, u, du):
            dw = c[:, None] * du_k + (u_k * d1)[:, None] * xhat
            row[mask] = g_m.form(dw)
        return out

    return f


def _w_sq_sampler(input_):
    profile = input_.profile
    pair = input_.pair

    def f(X, s, g_inv):
        rho = np.sqrt(np.sum(X * X, axis=1))
        out = np.zeros((2, X.shape[0]))
        mask = rho < profile.outer
        if np.any(mask):
            u = _values(pair, X[mask], s[mask])
            out[:, mask] = (u * chi_of(profile, rho[mask])) ** 2
        return out

    return f


def _positivity_sampler(input_):
    profile = input_.profile
    pair = input_.pair

    def f(X, s, g_inv):
        rho = np.sqrt(np.sum(X * X, axis=1))
        out = np.zeros((2, X.shape[0]))
        mask = rho < profile.outer
        if np.any(mask):
            out[:, mask] = (_values(pair, X[mask], s[mask]) > 0.0).astype(float)
        return out

    return f


# kind -> input -> integrand f(X, S, g_inv) with rows (plus, minus)
_SAMPLERS = {
    "grad_sq": _grad_sq_sampler,
    "w_sq": _w_sq_sampler,
    "positive": _positivity_sampler,
}


def _slice_at(input_, kind, sign):
    """Times s (1-D array) -> slice integrals of one integrand for the phase
    of ``sign``, read through the input's slice table; the misses of one
    request are integrated for both phases in one slice_integral call."""
    table = input_.slice_table
    column = 0 if sign > 0 else 1

    def slice_at(s):
        keys = [(kind, float(t)) for t in s]
        misses = [key for key in dict.fromkeys(keys) if key not in table]
        if misses:
            values = quadrature.slice_integral(
                _SAMPLERS[kind](input_), input_.kernel,
                np.array([key[1] for key in misses]), input_.quad,
                cutoff_zone=input_.zone)
            table.update(zip(misses, zip(*values.tolist())))
        return np.array([table[key][column] for key in keys])

    return slice_at


def phase_energy(input_, r, sign):
    """A_pm(r): kernel-weighted energy of the truncated phase over S_r."""
    if not 0.0 < r <= input_.chart.radius / 2.0 + 1e-12:
        raise ValueError("scale r must lie in (0, radius/2]")
    return quadrature.spacetime_integral(_slice_at(input_, "grad_sq", sign),
                                         r, input_.quad)


def phi(input_, r):
    a_p = phase_energy(input_, r, +1)
    a_m = phase_energy(input_, r, -1)
    return a_p * a_m / r ** 4


def boundary_energy(input_, r, sign):
    """Single-slice energy at s = -r^2; dA/dr = 2 r B(r) up to quadrature."""
    return float(_slice_at(input_, "grad_sq", sign)(np.array([-r * r]))[0])


def slice_mass(input_, s, sign):
    """int w_pm^2(., s) dnu^s."""
    return float(_slice_at(input_, "w_sq", sign)(np.array([s]))[0])


# ---------------------------------------------------------------------------
# dyadic ladder


@dataclass(frozen=True)
class LadderRow:
    k: int
    r: float
    a_plus: float
    a_minus: float
    b_plus: float
    b_minus: float
    delta_k: float
    phi: float
    prop1_ratio: float
    prop1_pass: bool
    prop2_active: bool
    prop2_ratio: float


@dataclass(frozen=True)
class DyadicLadder:
    rows: tuple
    c0: float
    c1: float


def dyadic_ladder(input_, k_min, k_max, c0=10.0, c1=1.0):
    """A_k, b_k = 4^{4k} A_k, delta_k and the two proposition predicates.

    prop1: whenever b_k^pm >= c0, the product ratio 4^4 A_{k+1}^+ A_{k+1}^- /
    (A_k^+ A_k^-) must not exceed 1 + delta_k (vacuous pass below the gate).
    prop2: active when b_k^pm >= c0 and 4^4 A_{k+1}^+ > A_k^+; the decay ratio
    A_{k+1}^-/A_k^- is reported for dichotomy inspection.
    """
    if 4.0 ** (-k_min) > input_.chart.radius / 2.0 + 1e-12:
        raise ValueError("4^{-k_min} must not exceed radius/2")
    if k_max < k_min:
        raise ValueError("empty ladder")
    ks = list(range(k_min, k_max + 1))
    a_p = {k: phase_energy(input_, 4.0 ** (-k), +1) for k in ks}
    a_m = {k: phase_energy(input_, 4.0 ** (-k), -1) for k in ks}
    rows = []
    for k in ks:
        r = 4.0 ** (-k)
        bp = 4.0 ** (4 * k) * a_p[k]
        bm = 4.0 ** (4 * k) * a_m[k]
        with np.errstate(divide="ignore"):
            delta_k = c1 * ((bp ** -0.5 if bp > 0 else np.inf)
                            + (bm ** -0.5 if bm > 0 else np.inf)
                            + 4.0 ** (-2 * k))
        phi_k = a_p[k] * a_m[k] / r ** 4
        gate = bp >= c0 and bm >= c0
        if k + 1 in a_p:
            prod_k = a_p[k] * a_m[k]
            prod_next = a_p[k + 1] * a_m[k + 1]
            ratio = 256.0 * prod_next / prod_k if prod_k > 0 else np.nan
            p1 = (not gate) or (not np.isfinite(ratio)) or ratio <= 1.0 + delta_k
            p2_active = gate and (256.0 * a_p[k + 1] > a_p[k])
            p2_ratio = a_m[k + 1] / a_m[k] if (p2_active and a_m[k] > 0) else np.nan
        else:
            ratio, p1, p2_active, p2_ratio = np.nan, True, False, np.nan
        rows.append(LadderRow(k=k, r=r, a_plus=a_p[k], a_minus=a_m[k],
                              b_plus=bp, b_minus=bm, delta_k=float(delta_k),
                              phi=phi_k, prop1_ratio=float(ratio),
                              prop1_pass=bool(p1), prop2_active=bool(p2_active),
                              prop2_ratio=float(p2_ratio)))
    return DyadicLadder(rows=tuple(rows), c0=c0, c1=c1)


# ---------------------------------------------------------------------------
# scale derivative


@dataclass(frozen=True)
class ScaleDerivativeRecord:
    r: float
    a_plus: float            # A~_pm(1) of the rescaled pair
    a_minus: float
    b_plus: float            # B~_pm(1), single-slice energies at s = -1
    b_minus: float
    direct: float            # -4 A+A- + 2 B+A- + 2 A+B-
    finite_difference: float
    fd_step: float
    lambda_plus: float       # Rayleigh quotients of the s = -1 slice
    lambda_minus: float
    term_scale: float        # 4A+A- + 2B+A- + 2A+B-, the comparison yardstick


def scale_derivative(input_, r, fd_step=0.0625):
    """Direct phi~'(1) vs the centered difference of phi~, plus the slice
    Rayleigh quotients, for the parabolic rescaling u(r y, r^2 s) / r^2.

    The rescaled quantities are read from the input's own slice table:
    A~(rho) = r^-4 A(r rho), B~(1) = r^-2 B(r) and m~(-1) = r^-4 m(-r^2);
    r <= radius/4 keeps the scale r (1 + fd_step) within radius/2."""
    if r > input_.chart.radius / 4.0 + 1e-12:
        raise ValueError("scale derivative needs r <= radius/4")

    def energies(rho):
        return (phase_energy(input_, r * rho, +1) / r ** 4,
                phase_energy(input_, r * rho, -1) / r ** 4)

    def phi_rescaled(rho):
        a_plus, a_minus = energies(rho)
        return a_plus * a_minus / rho ** 4

    a_p, a_m = energies(1.0)
    b_p = boundary_energy(input_, r, +1) / r ** 2
    b_m = boundary_energy(input_, r, -1) / r ** 2
    direct = -4.0 * a_p * a_m + 2.0 * b_p * a_m + 2.0 * a_p * b_m

    fd = (phi_rescaled(1.0 + fd_step)
          - phi_rescaled(1.0 - fd_step)) / (2.0 * fd_step)
    m_p = slice_mass(input_, -r * r, +1) / r ** 4
    m_m = slice_mass(input_, -r * r, -1) / r ** 4
    lam_p = b_p / m_p if m_p > 0 else np.nan
    lam_m = b_m / m_m if m_m > 0 else np.nan
    scale = 4.0 * a_p * a_m + 2.0 * b_p * a_m + 2.0 * a_p * b_m
    return ScaleDerivativeRecord(r=r, a_plus=a_p, a_minus=a_m, b_plus=b_p,
                                 b_minus=b_m, direct=direct,
                                 finite_difference=fd, fd_step=fd_step,
                                 lambda_plus=float(lam_p),
                                 lambda_minus=float(lam_m),
                                 term_scale=scale)


# ---------------------------------------------------------------------------
# energy inequality and theorem checks


@dataclass(frozen=True)
class EnergyInequalityRecord:
    r: float
    sign: int
    energy: float             # A_pm(r)
    slice_mass_r: float       # int w^2(., -r^2) dnu^{-r^2}
    inf_slice_mass: float     # inf over s in [-4r^2, -r^2]
    annulus_mass: float       # iint_{S_2r \ S_r} w^2 dnu
    c_fixed_form: float       # smallest C in A <= C r^4 + C r^2 sqrt(M) + M/2
    c_inf_form: float         # smallest C in A <= C (r^4 + inf-mass)
    c_annulus_form: float     # smallest C in A <= C (r^4 + annulus/r^2)


def energy_inequality_check(input_, r, n_inf_samples=9):
    records = []
    for sign in (+1, -1):
        a = phase_energy(input_, r, sign)
        p = slice_mass(input_, -r * r, sign)
        masses = _slice_at(input_, "w_sq", sign)
        inf_mass = min(masses(-np.geomspace(r * r, 4 * r * r, n_inf_samples)).tolist())
        ann = quadrature.time_range_integral(masses, -4 * r * r, -r * r,
                                             input_.quad.slices_per_scale)
        c1 = max(0.0, a - 0.5 * p) / (r ** 4 + r ** 2 * np.sqrt(max(p, 0.0)))
        c2 = a / (r ** 4 + inf_mass)
        c3 = a / (r ** 4 + ann / r ** 2)
        records.append(EnergyInequalityRecord(
            r=r, sign=sign, energy=a, slice_mass_r=p, inf_slice_mass=inf_mass,
            annulus_mass=ann, c_fixed_form=c1, c_inf_form=c2, c_annulus_form=c3))
    return tuple(records)


def constants_stable(values, floor=1e-3, factor=4.0):
    """Fitted constants, ordered from the largest scale down, are 'stable'
    when none of them climbs above the running maximum by more than a fixed
    factor.  A theoretical constant is r-independent; fitted ones may decay
    (growing slack), which is better than stable, but must never blow up as
    the scale shrinks.  All-negligible counts as stable."""
    vals = list(values)
    arr = np.asarray([v for v in vals if np.isfinite(v)], dtype=float)
    if len(arr) < len(vals):
        return False
    if arr.size == 0:
        return True
    running = max(float(arr[0]), floor)
    for v in arr[1:]:
        if v > factor * running:
            return False
        running = max(running, float(v))
    return True


def theorem1_check(input_, rs, guard=100.0):
    """ratio = sup_r phi(r) / (1 + ||u_+||^2 + ||u_-||^2)^2 against a guard."""
    chart = input_.chart
    q_p, q_m = quadrature.plain_spacetime_integral(
        lambda X, s: _values(input_.pair, X, s) ** 2, chart, chart.radius,
        chart.radius ** 2).tolist()
    q = (1.0 + q_p + q_m) ** 2
    phis = {r: phi(input_, r) for r in rs}
    sup_phi = max(phis.values())
    return {
        "u2_plus": q_p,
        "u2_minus": q_m,
        "bound_base": q,
        "phis": phis,
        "sup_phi": sup_phi,
        "ratio": sup_phi / q,
        "guard": guard,
        "passed": bool(sup_phi / q <= guard),
    }


def _growth_samples(chart, n_per_axis=7, n_times=5):
    ax = np.linspace(-chart.radius * 0.95, chart.radius * 0.95, n_per_axis)
    grids = np.meshgrid(*([ax] * chart.dim), indexing="ij")
    X = np.stack([g.ravel() for g in grids], axis=1)
    X = X[np.linalg.norm(X, axis=1) < chart.radius * 0.98]
    times = -np.geomspace(1e-4, chart.radius ** 2, n_times)
    return X, times


def theorem2_check(input_, eps, rs, const_floor=1e-3):
    """phi(r) <= (1 + rho^eps) phi(rho) + C rho^eps for r <= rho in the ladder.

    The growth hypothesis |u| <= C_eps (|x|^2 + |s|)^{eps/2} is fitted on a
    deterministic sample cloud and reported as `fitted_growth_constant`; it
    is not asserted.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError("growth exponent must lie in (0, 1]")
    X, times = _growth_samples(input_.chart)
    fitted = 0.0
    for s in times:
        denom = (np.sum(X * X, axis=1) + abs(s)) ** (eps / 2.0)
        for phase in (input_.pair.plus, input_.pair.minus):
            vals = np.abs(np.asarray(phase.value(X, s), dtype=float))
            fitted = max(fitted, float(np.max(vals / denom)))
    rs = sorted(rs)
    phis = {r: phi(input_, r) for r in rs}
    per_rho = {}
    for i, rho in enumerate(rs):
        worst = 0.0
        for r in rs[: i + 1]:
            gap = phis[r] - (1.0 + rho ** eps) * phis[rho]
            worst = max(worst, gap / rho ** eps)
        per_rho[rho] = worst
    c_m = max(per_rho.values()) if per_rho else 0.0
    stable = constants_stable([per_rho[rho] for rho in reversed(rs)],
                              floor=const_floor)
    return {
        "eps": eps,
        "fitted_growth_constant": fitted,
        "phis": phis,
        "per_rho_constant": per_rho,
        "c_m": c_m,
        "stable": stable,
        "passed": bool(np.isfinite(c_m) and stable),
    }


def positivity_measure(input_, r, sign):
    """Kernel-weighted positivity measure in S_{r/2} \\ S_{r/4} and the
    energy ratio A(r/4)/A(r)."""
    if r > input_.chart.radius / 4.0 + 1e-12:
        raise ValueError("positivity measure needs r <= radius/4")
    measure = quadrature.time_range_integral(
        _slice_at(input_, "positive", sign), -(r / 2.0) ** 2,
        -(r / 4.0) ** 2, input_.quad.slices_per_scale)
    a_quarter = phase_energy(input_, r / 4.0, sign)
    a_full = phase_energy(input_, r, sign)
    return {
        "measure": measure,
        "measure_over_r2": measure / r ** 2,
        "energy_quarter": a_quarter,
        "energy_full": a_full,
        "energy_ratio": a_quarter / a_full if a_full > 0 else np.nan,
    }


def fit_log_slope(xs, ys, floor=0.0):
    """Least-squares slope of log ys against log xs (values <= floor dropped)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    keep = ys > floor
    if np.count_nonzero(keep) < 2:
        return np.nan
    lx, ly = np.log(xs[keep]), np.log(ys[keep])
    a = np.vstack([np.ones_like(lx), lx]).T
    coef, *_ = np.linalg.lstsq(a, ly, rcond=None)
    return float(coef[1])
