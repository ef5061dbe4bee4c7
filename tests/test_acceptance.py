"""Acceptance suite: twelve criteria, each printing one PASS/FAIL line.

Every tolerance is pinned here.  Oracles: half-space Gaussian mass closed
forms, one-dimensional Gaussian moments, ladder slope algebra, manufactured
solutions, and byte comparison for determinism.
"""

import filecmp
import glob
import os

import numpy as np
import pytest
from monolab import functional as fn
from monolab import gauss_transforms as gt
from monolab import geometry as geo
from monolab import kernels as ker
from monolab import quadrature as quad
from monolab.config import parse_config
from monolab.solutions import SpaceTimeGrid, solve_heat

from conftest import build_input


def _line(num, ok, detail):
    print(f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_01_caloric_phi_plateau(caloric_ladder):
    """phi(4^-k) = 0.25 within 1% for k = 2..5 under 60 s (default rules)."""
    ladder, elapsed = caloric_ladder
    worst = max(abs(row.phi / 0.25 - 1.0) for row in ladder.rows)
    ok = worst <= 0.01 and elapsed <= 60.0
    _line(1, ok, f"max phi deviation {100 * worst:.3f}%, elapsed {elapsed:.1f}s")


def test_02_caloric_ladder_identities(caloric_ladder):
    """prop1 ratio 1 +- 2%; b_k = 4^{2k}/2 within 5% for k = 2..4."""
    ladder, _ = caloric_ladder
    ratio_ok = all(abs(row.prop1_ratio - 1.0) <= 0.02
                   for row in ladder.rows if np.isfinite(row.prop1_ratio))
    b_ok = all(abs(row.b_plus / (4.0 ** (2 * row.k) / 2.0) - 1.0) <= 0.05
               and abs(row.b_minus / (4.0 ** (2 * row.k) / 2.0) - 1.0) <= 0.05
               for row in ladder.rows if row.k <= 4)
    _line(2, ratio_ok and b_ok,
          f"ratios within 2%: {ratio_ok}, b_k within 5%: {b_ok}")


def test_03_bkp_equality_case():
    """(x1+, x1-) under the variance-2 Gauss measure: both quotients 1/2."""
    m2 = gt.GaussMeasure(1, 2.0)
    rec = gt.bkp_sum(gt.half_plane_field(1, +1), gt.half_plane_field(1, -1), m2)
    ok = (abs(rec["lambda_plus"] - 0.5) <= 1e-3
          and abs(rec["lambda_minus"] - 0.5) <= 1e-3
          and abs(rec["sum"] - 1.0) <= 1e-3)
    _line(3, ok, f"lambda+ {rec['lambda_plus']:.6f}, sum {rec['sum']:.6f}")


def test_04_gaussian_poincare_numbers():
    """x1+ at unit variance: LHS log(2 pi)/4 = 0.45947, RHS exactly 1."""
    rec = gt.gaussian_poincare_check(gt.half_plane_field(1),
                                     gt.GaussMeasure(1, 1.0))
    ok = (abs(rec["lhs"] - 0.45947) <= 1e-3
          and abs(rec["rhs"] - 1.0) <= 1e-3
          and rec["passed"]
          and abs(rec["margin"] - (1.0 - 0.45947)) <= 2e-3)
    _line(4, ok, f"lhs {rec['lhs']:.5f}, rhs {rec['rhs']:.5f}, "
                 f"margin {rec['margin']:.5f}")


def test_05_perturbed_bkp_ladder(sphere2, lean_quad2):
    """Unit-curvature chart, r in {0.2, 0.1, 0.05, 0.025}: the lower bound
    sum >= 1 - C r^2 must hold with the deviation magnitude decaying at
    log-slope >= 1.8.

    Measured on this chart the deficit is POSITIVE (~ +r^2 at small r; the
    curved gradient norm and the lighter volume density both push the
    quotients up), so the 'negative deficit' branch is vacuous here: the
    negative part sits at the numerical floor and the bound holds with
    infinite margin.  Both branches are implemented; whichever part of the
    deviation is nonvacuous must show the r^2 scaling.
    """
    inp = build_input(sphere2, "TwoPlaneCaloric", {}, kind="parametrix0",
                      cfg=lean_quad2)
    lad = gt.bkp_deficit_ladder(inp, [0.2, 0.1, 0.05, 0.025])
    if lad["all_nonnegative"]:
        ok = lad["deviation_slope"] >= 1.8
        detail = (f"no negative part (max {lad['max_negative_part']:.1e}); "
                  f"|sum-1| slope {lad['deviation_slope']:.2f}")
    else:
        ok = lad["negative_part_slope"] >= 1.8
        detail = f"negative-part slope {lad['negative_part_slope']:.2f}"
    _line(5, ok, detail)


def test_06_pushforward_reduction(sphere2):
    """Sup density deviation fits log-slope >= 1.8; mass = 1 +- fitted r^2."""
    lad = gt.pushforward_ladder(sphere2, [0.2, 0.1, 0.05, 0.025],
                                "parametrix0", -0.5)
    c_fit = lad["fitted_mass_constant"]
    mass_ok = np.isfinite(c_fit) and all(
        rec["mass_defect"] <= c_fit * rec["r"] ** 2 + 1e-12
        for rec in lad["records"])
    ok = lad["sup_slope"] >= 1.8 and mass_ok and lad["mass_defect_slope"] >= 1.8
    _line(6, ok, f"sup slope {lad['sup_slope']:.3f}, "
                 f"mass-defect slope {lad['mass_defect_slope']:.3f}, "
                 f"fitted mass constant {c_fit:.3f}")


def test_07_parametrix_against_heat_evolution(sphere2):
    """phi0 matches (sin rho/rho)^(-1/2) to 1e-6 at 20 radii; the order-zero
    kernel tracks a numerically evolved near-delta solution within 5% for
    t in [1e-3, 1e-2], rho <= 0.3."""
    spec = ker.KernelSpec("parametrix0", sphere2)
    radii = np.linspace(0.01, 0.45, 20)
    rays = np.stack([radii, np.zeros_like(radii)], axis=1)
    phi0 = spec.factor(geo.inverse_metric_and_density(sphere2, rays)[1])
    phi_err = np.max(np.abs(phi0 - (np.sin(radii) / radii) ** -0.5))
    t0, t_end = 1e-3, 1e-2

    def u_ref(X, t):
        return ker.kernel_values(spec, X, t)

    # near-delta data evolve on timescale t: grade the steps geometrically
    t_nodes = np.geomspace(t0, t_end, 49)
    taus = t_nodes - t_end
    taus[-1] = 0.0
    h = 0.0075
    grid = SpaceTimeGrid.from_times(2, 0.525, h, taus)
    gf = solve_heat(sphere2,
                    lambda X, tau: np.zeros(np.atleast_2d(X).shape[0]),
                    lambda X: u_ref(X, t0),
                    lambda X, tau: u_ref(X, tau + t_end),
                    grid, method="crank_nicolson")
    pts = grid.points()
    rho = np.linalg.norm(pts, axis=1)
    worst = 0.0
    for j, tau in enumerate(grid.times):
        t = tau + t_end
        if t < 2e-3:
            continue
        ref = u_ref(pts, t)
        mask = (rho <= 0.3) & (ref >= 1e-3 * ref.max())
        rel = np.abs(gf.values[j].ravel()[mask] - ref[mask]) / ref[mask]
        worst = max(worst, float(rel.max()))
    ok = phi_err <= 1e-6 and worst <= 0.05
    _line(7, ok, f"phi0 error {phi_err:.2e}, kernel-vs-evolution "
                 f"relative error {worst:.3f}")


def test_08_solver_convergence_orders():
    """Manufactured solution on the eps = 0.05 perturbed metric: spatial
    order >= 1.8 (three levels), temporal order >= 0.9 (backward Euler)."""
    chp2 = geo.perturbed_chart(2, 0.05)

    def u_star(X, t):
        return np.cos(np.atleast_2d(X)[:, 0]) * np.exp(t)

    def source2(X, t):
        X = np.atleast_2d(X)
        ginv, _ = geo.inverse_metric_and_density(chp2, X)
        drift = geo.divergence_drift(chp2, X)
        lap = (-ginv.entry(0, 0) * np.cos(X[:, 0])
               - drift[:, 0] * np.sin(X[:, 0])) * np.exp(t)
        return lap - u_star(X, t)

    T = 0.1
    errs = []
    for h in (0.2, 0.1, 0.05):
        grid = SpaceTimeGrid.from_times(2, 1.0, h, np.linspace(-T, 0, 33))
        gf = solve_heat(chp2, source2, lambda X: u_star(X, -T), u_star, grid,
                        method="crank_nicolson")
        errs.append(np.abs(gf.values[-1].ravel()
                           - u_star(grid.points(), 0.0)).max())
    spatial_orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]

    chp1 = geo.perturbed_chart(1, 0.05)

    def source1(X, t):
        X = np.atleast_2d(X)
        ginv, _ = geo.inverse_metric_and_density(chp1, X)
        drift = geo.divergence_drift(chp1, X)
        lap = (-ginv.entry(0, 0) * np.cos(X[:, 0])
               - drift[:, 0] * np.sin(X[:, 0])) * np.exp(t)
        return lap - u_star(X, t)

    t_errs = []
    for nt in (4, 8, 16):
        grid = SpaceTimeGrid.from_times(1, 1.0, 0.004, np.linspace(-T, 0, nt + 1))
        gf = solve_heat(chp1, source1, lambda X: u_star(X, -T), u_star, grid,
                        method="backward_euler")
        t_errs.append(np.abs(gf.values[-1].ravel()
                             - u_star(grid.points(), 0.0)).max())
    temporal_orders = [np.log2(t_errs[i] / t_errs[i + 1]) for i in range(2)]
    ok = min(spatial_orders) >= 1.8 and min(temporal_orders) >= 0.9
    _line(8, ok, f"spatial orders {[f'{o:.2f}' for o in spatial_orders]}, "
                 f"temporal orders {[f'{o:.2f}' for o in temporal_orders]}")


def test_09_wedge_slopes(euclid2, lean_quad2):
    """A-slope 2 + 2 beta +- 0.1 and phi-slope 4 beta +- 0.2 for
    beta in {1/4, 1/2}; decaying ladder; stable refined-bound constant."""
    rs = [4.0 ** (-k) for k in (2, 3, 4, 5)]
    details = []
    ok = True
    for beta in (0.25, 0.5):
        inp = build_input(euclid2, "PowerWedge", {"beta": beta}, cfg=lean_quad2)
        a_vals, m_vals = zip(*(fn.phase_energy(inp, r) for r in rs))
        phis = [a * m / r ** 4 for a, m, r in zip(a_vals, m_vals, rs)]
        a_slope = fn.fit_log_slope(rs, a_vals)
        phi_slope = fn.fit_log_slope(rs, phis)
        lad = fn.dyadic_ladder(inp, 2, 4)
        ratios_below_one = all(row.prop1_ratio < 1.0 for row in lad.rows
                               if np.isfinite(row.prop1_ratio))
        t2 = fn.theorem2_check(inp, 1.0, rs)
        ok = (ok and abs(a_slope - (2 + 2 * beta)) <= 0.1
              and abs(phi_slope - 4 * beta) <= 0.2
              and ratios_below_one and t2["passed"])
        details.append(f"beta={beta}: A-slope {a_slope:.3f}, "
                       f"phi-slope {phi_slope:.3f}")
    _line(9, ok, "; ".join(details))


def test_10_theorem1_regression_guard(suite_runs):
    """Shipped six-scenario suite: sup phi / (1 + ||u+||^2 + ||u-||^2)^2
    <= 100 and a non-exploding ladder under the C0 = 10, C1 = 1 gate.
    (The global constant is non-constructive; this is a property guard.)"""
    import json

    root, code1, _ = suite_runs
    ok = code1 == 0
    details = [f"suite exit {code1}"]
    for path in sorted(glob.glob(str(root / "run1" / "*" / "report.json"))):
        with open(path) as fh:
            payload = json.load(fh)
        sid = payload["scenario"]
        checks = payload["checks"]
        ratio = checks["thm1"]["values"]["ratio"]
        ok = ok and ratio <= 100.0 and checks["prop1"]["passed"]
        details.append(f"{sid}: ratio {ratio:.3g}")
    _line(10, ok, "; ".join(details))


def test_11_scale_derivative_identity(euclid2, quad2):
    """Direct phi~'(1) against the centered difference, caloric and drifting
    pairs, within max(2%, quadrature error) of the term magnitude."""
    details = []
    ok = True
    for family, params in (("TwoPlaneCaloric", {}), ("DriftTwoPlane", {"c": 0.5})):
        inp = build_input(euclid2, family, params, cfg=quad2)
        rec = fn.scale_derivative(inp, 1.0 / 16.0)
        gap = abs(rec.direct - rec.finite_difference)
        tol = 0.02 * rec.term_scale
        ok = ok and gap <= tol
        details.append(f"{family}: gap/scale {gap / rec.term_scale:.2e}")
    _line(11, ok, "; ".join(details))


def test_12_suite_determinism(suite_runs):
    """Two runs of the suite must produce byte-identical CSV artifacts."""
    root, code1, code2 = suite_runs
    csv_1 = sorted(glob.glob(str(root / "run1" / "*" / "*.csv")))
    ok = code2 == code1 and len(csv_1) > 0
    mismatches = []
    for p1 in csv_1:
        p2 = p1.replace(str(root / "run1"), str(root / "run2"))
        if not (os.path.exists(p2) and filecmp.cmp(p1, p2, shallow=False)):
            mismatches.append(os.path.basename(os.path.dirname(p1))
                              + "/" + os.path.basename(p1))
    ok = ok and not mismatches
    _line(12, ok, f"{len(csv_1)} CSV artifacts compared, "
                  f"mismatches: {mismatches or 'none'}")
