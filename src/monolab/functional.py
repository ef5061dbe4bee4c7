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
(`positive`).  Each integrand takes the quadrature's rows of points X
(p, m, n) and times s (k,) (see `quadrature`) and returns (plus, minus) rows
(2, k, m): the radius, chi, chi' and x/|x| once per row of points, u and grad u
for both phases in one `TwoPhasePair.fields` or `.values` call, the metric
form once for both.  The rows keep the pair's time axis by broadcasting: for
a pair that does not depend on s and one row of points it has length 1,
(2, 1, m), and the fixed-point rules reuse that result for every time.  chi
and chi' vanish outside the cutoff ball, so no mask is needed; `positive`
multiplies by the ball's indicator.  No function takes a phase sign: every
quantity comes as a (plus, minus) pair.  A MonotonicityInput derives its
cutoff profile and kernel from its chart and kernel kind, and does not check
its pair (`cli.run_scenario` is the admissibility gate).  Each input owns its
quadrature rule and one slice table, keyed by (integrand kind, s) with the
exact float time s and holding the (plus, minus) pair, so a slice is
integrated once per input however many checks, scales or blocks reach it.
The table is filled per request: a space-time integral asks for every slice
of its scale at once, and the misses are integrated for both phases in one
`slice_integral` call.  The values depend neither on the order of evaluation
nor on the grouping into blocks, so a warm table returns exactly what a
fresh input would compute.  Each pair (A_+(r), A_-(r)) is assembled from the
table once and kept in the input's `energies`, keyed by r.  A copy made by
`dataclasses.replace` starts with an empty table and no energies, so a copy
under another rule (`dataclasses.replace(input_, quad=...)`) integrates its
own slices, and its kernel, equal to the parent's, reads the cached annulus.
The checks at the unit scale of a parabolic rescaling (the scale
derivative here, the curved BKP quotients in `gauss_transforms`) read the
scenario's own table through the rescaling identities, so they add no input.

All fitted constants are reported, never asserted against the non-constructive
ones; regression guards are explicit config inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import geometry, quadrature
from .cutoff import CutoffProfile, build_cutoff, chi as chi_of, dchi as dchi_of
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

_FD_STEP = 0.0625        # scale_derivative: centred difference at 1 +- 1/16


@dataclass(eq=False)
class MonotonicityInput:
    chart: geometry.NormalChart
    pair: object
    kernel_kind: str
    quad: quadrature.QuadratureConfig
    # the chart's cutoff and the kernel of kernel_kind on it, derived here
    profile: CutoffProfile = field(init=False, repr=False, compare=False)
    kernel: KernelSpec = field(init=False, repr=False, compare=False)
    # (kind, s) -> (plus, minus) slice integrals under quad; see the module doc
    slice_table: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)
    # r -> (A_+(r), A_-(r)), each pair assembled once from the slice table
    energies: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        self.profile = build_cutoff(self.chart)
        self.kernel = KernelSpec(self.kernel_kind, self.chart)


def _grad_sq_sampler(input_):
    profile = input_.profile
    pair = input_.pair

    def f(X, s, g_inv):
        rho = np.sqrt(np.sum(X * X, axis=-1))
        u, du = pair.fields(X, s)
        c = chi_of(profile, rho)
        d1 = dchi_of(profile, rho)
        xhat = X / np.where(rho > 0, rho, 1.0)[..., None]
        return g_inv.form(c[..., None] * du + (u * d1)[..., None] * xhat)

    return f


def _w_sq_sampler(input_):
    profile = input_.profile
    pair = input_.pair

    def f(X, s, g_inv):
        rho = np.sqrt(np.sum(X * X, axis=-1))
        return (pair.values(X, s) * chi_of(profile, rho)) ** 2

    return f


def _positivity_sampler(input_):
    profile = input_.profile
    pair = input_.pair

    def f(X, s, g_inv):
        inside = np.sqrt(np.sum(X * X, axis=-1)) < profile.outer
        return ((pair.values(X, s) > 0.0) & inside).astype(float)

    return f


# kind -> input -> integrand f(X, S, g_inv) with rows (plus, minus)
_SAMPLERS = {
    "grad_sq": _grad_sq_sampler,
    "w_sq": _w_sq_sampler,
    "positive": _positivity_sampler,
}


def _slice_at(input_, kind):
    """Slice times s -> the C-contiguous (2, len(s)) slice integrals of one
    integrand, (plus, minus), read through the input's slice table; the
    misses of one request are integrated in one slice_integral call."""
    table = input_.slice_table

    def slice_at(s):
        keys = [(kind, float(t)) for t in s]
        misses = [key for key in dict.fromkeys(keys) if key not in table]
        if misses:
            values = quadrature.slice_integral(
                _SAMPLERS[kind](input_), input_.kernel,
                np.array([key[1] for key in misses]), input_.quad,
                cutoff=input_.profile)
            table.update(zip(misses, zip(*values.tolist())))
        return np.array(list(zip(*(table[key] for key in keys))))

    return slice_at


def phase_energy(input_, r):
    """(A_+(r), A_-(r)): kernel-weighted energies of the truncated phases over
    S_r, kept in the input's ``energies`` after the first request."""
    if not 0.0 < r <= input_.chart.radius / 2.0 + 1e-12:
        raise ValueError("scale r must lie in (0, radius/2]")
    if float(r) not in input_.energies:
        input_.energies[float(r)] = tuple(quadrature.spacetime_integral(
            _slice_at(input_, "grad_sq"), r, input_.quad).tolist())
    return input_.energies[float(r)]


def phi(input_, r):
    a_p, a_m = phase_energy(input_, r)
    return a_p * a_m / r ** 4


def boundary_energy(input_, r):
    """(B_+(r), B_-(r)): single-slice energies at s = -r^2; dA/dr = 2 r B(r)
    up to quadrature."""
    return tuple(_slice_at(input_, "grad_sq")([-r * r])[:, 0].tolist())


def slice_mass(input_, s):
    """(plus, minus) int w_pm^2(., s) dnu^s."""
    return tuple(_slice_at(input_, "w_sq")([s])[:, 0].tolist())


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
    a_p, a_m = {}, {}
    for k in ks:
        a_p[k], a_m[k] = phase_energy(input_, 4.0 ** (-k))
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


def scale_derivative(input_, r):
    """Direct phi~'(1) vs the centered difference of phi~, plus the slice
    Rayleigh quotients, for the parabolic rescaling u(r y, r^2 s) / r^2.

    The rescaled quantities are read from the input's own slice table:
    A~(rho) = r^-4 A(r rho), B~(1) = r^-2 B(r) and m~(-1) = r^-4 m(-r^2);
    r <= radius/4 keeps the scale r (1 + _FD_STEP) within radius/2."""
    if r > input_.chart.radius / 4.0 + 1e-12:
        raise ValueError("scale derivative needs r <= radius/4")

    def phi_rescaled(rho):
        a_plus, a_minus = phase_energy(input_, r * rho)
        return (a_plus / r ** 4) * (a_minus / r ** 4) / rho ** 4

    a_p, a_m = (a / r ** 4 for a in phase_energy(input_, r))
    b_p, b_m = (b / r ** 2 for b in boundary_energy(input_, r))
    direct = -4.0 * a_p * a_m + 2.0 * b_p * a_m + 2.0 * a_p * b_m

    fd = (phi_rescaled(1.0 + _FD_STEP)
          - phi_rescaled(1.0 - _FD_STEP)) / (2.0 * _FD_STEP)
    m_p, m_m = (m / r ** 4 for m in slice_mass(input_, -r * r))
    lam_p = b_p / m_p if m_p > 0 else np.nan
    lam_m = b_m / m_m if m_m > 0 else np.nan
    scale = 4.0 * a_p * a_m + 2.0 * b_p * a_m + 2.0 * a_p * b_m
    return ScaleDerivativeRecord(r=r, a_plus=a_p, a_minus=a_m, b_plus=b_p,
                                 b_minus=b_m, direct=direct,
                                 finite_difference=fd, fd_step=_FD_STEP,
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


def energy_inequality_check(input_, r):
    """One record per phase, (plus, minus), from one request per quantity."""
    masses = _slice_at(input_, "w_sq")
    inf_masses = [min(row) for row in
                  masses(-np.geomspace(r * r, 4 * r * r, 9)).tolist()]
    annuli = quadrature.time_range_integral(masses, -4 * r * r, -r * r,
                                            input_.quad.slices_per_scale).tolist()
    records = []
    for sign, a, p, inf_mass, ann in zip(
            (+1, -1), phase_energy(input_, r), slice_mass(input_, -r * r),
            inf_masses, annuli):
        c1 = max(0.0, a - 0.5 * p) / (r ** 4 + r ** 2 * np.sqrt(max(p, 0.0)))
        c2 = a / (r ** 4 + inf_mass)
        c3 = a / (r ** 4 + ann / r ** 2)
        records.append(EnergyInequalityRecord(
            r=r, sign=sign, energy=a, slice_mass_r=p, inf_slice_mass=inf_mass,
            annulus_mass=ann, c_fixed_form=c1, c_inf_form=c2, c_annulus_form=c3))
    return tuple(records)


def constants_stable(values):
    """Fitted constants, ordered from the largest scale down, are 'stable'
    when none of them climbs above 4 times the running maximum (at least
    1e-3).  A theoretical constant is r-independent; fitted ones may decay
    (growing slack), which is better than stable, but must never blow up as
    the scale shrinks.  All-negligible counts as stable."""
    vals = list(values)
    arr = np.asarray([v for v in vals if np.isfinite(v)], dtype=float)
    if len(arr) < len(vals):
        return False
    if arr.size == 0:
        return True
    running = max(float(arr[0]), 1e-3)
    for v in arr[1:]:
        if v > 4.0 * running:
            return False
        running = max(running, float(v))
    return True


def theorem1_check(input_, rs, guard=100.0):
    """ratio = sup_r phi(r) / (1 + ||u_+||^2 + ||u_-||^2)^2 against a guard."""
    chart = input_.chart
    q_p, q_m = quadrature.plain_spacetime_integral(
        lambda X, s: input_.pair.values(X, s) ** 2, chart, chart.radius,
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


def theorem2_check(input_, eps, rs):
    """phi(r) <= (1 + rho^eps) phi(rho) + C rho^eps for r <= rho in the ladder.

    The growth hypothesis |u| <= C_eps (|x|^2 + |s|)^{eps/2} is fitted on a
    deterministic sample cloud (7 points per axis inside the chart, 5 times)
    and reported as `fitted_growth_constant`; it is not asserted.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError("growth exponent must lie in (0, 1]")
    chart = input_.chart
    ax = np.linspace(-chart.radius * 0.95, chart.radius * 0.95, 7)
    grids = np.meshgrid(*([ax] * chart.dim), indexing="ij")
    X = np.stack([g.ravel() for g in grids], axis=1)
    X = X[np.linalg.norm(X, axis=1) < chart.radius * 0.98]   # one row of points
    times = -np.geomspace(1e-4, chart.radius ** 2, 5)          # k times
    denom = (np.sum(X * X, axis=1) + np.abs(times)[:, None]) ** (eps / 2.0)
    fitted = float(np.max(np.abs(input_.pair.values(X, times)) / denom))
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
    stable = constants_stable([per_rho[rho] for rho in reversed(rs)])
    return {
        "eps": eps,
        "fitted_growth_constant": fitted,
        "phis": phis,
        "per_rho_constant": per_rho,
        "c_m": c_m,
        "stable": stable,
        "passed": bool(np.isfinite(c_m) and stable),
    }


def positivity_measure(input_, r):
    """Kernel-weighted positivity measure in S_{r/2} \\ S_{r/4} and the
    energy ratio A(r/4)/A(r) of each phase, keyed "plus" and "minus"."""
    if r > input_.chart.radius / 4.0 + 1e-12:
        raise ValueError("positivity measure needs r <= radius/4")
    measures = quadrature.time_range_integral(
        _slice_at(input_, "positive"), -(r / 2.0) ** 2,
        -(r / 4.0) ** 2, input_.quad.slices_per_scale).tolist()
    return {name: {
        "measure": measure,
        "measure_over_r2": measure / r ** 2,
        "energy_quarter": a_quarter,
        "energy_full": a_full,
        "energy_ratio": a_quarter / a_full if a_full > 0 else np.nan,
    } for name, measure, a_quarter, a_full in zip(
        ("plus", "minus"), measures, phase_energy(input_, r / 4.0),
        phase_energy(input_, r))}


def fit_log_slope(xs, ys, floor=0.0):
    """Least-squares slope of log ys against log xs (values <= floor dropped);
    NaN unless the points kept have two distinct xs, since a line through
    one repeated scale has no slope."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    keep = ys > floor
    if len(set(xs[keep].tolist())) < 2:
        return np.nan
    lx, ly = np.log(xs[keep]), np.log(ys[keep])
    a = np.vstack([np.ones_like(lx), lx]).T
    coef, *_ = np.linalg.lstsq(a, ly, rcond=None)
    return float(coef[1])
