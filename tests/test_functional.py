import dataclasses

import numpy as np
import pytest
import scipy.special

from monolab import functional as fn
from monolab import geometry as geo
from monolab import quadrature as quad
from monolab.solutions import SpaceTimeGrid, make_family

from conftest import build_input, rescaled_input


def wedge_energy_prefactor(beta):
    """A(r) = C(beta) r^{2+2beta} for the power wedge on a flat chart,
    from one-dimensional Gaussian moments."""
    return ((1.0 + beta) * scipy.special.gamma(beta + 0.5) * 4.0 ** beta
            / (2.0 * np.sqrt(np.pi)))


def _annulus(inp):
    """The cutoff annulus (inner, outer) of the input's profile."""
    return inp.profile.inner, inp.profile.outer


def test_phase_energy_caloric_closed_form(caloric_input):
    r = 1.0 / 16.0
    a, _ = fn.phase_energy(caloric_input, r)
    assert a == pytest.approx(r * r / 2.0, rel=0.01)


def test_phase_energy_null(euclid2, quad2):
    inp = build_input(euclid2, "Null", cfg=quad2)
    assert fn.phase_energy(inp, 0.25) == (0.0, 0.0)
    assert fn.phi(inp, 0.25) == 0.0


def test_phi_caloric_and_scaling(euclid2, lean_quad2):
    inp = build_input(euclid2, "TwoPlaneCaloric", {"alpha": 1.0, "beta": 1.0},
                      cfg=lean_quad2)
    assert fn.phi(inp, 1.0 / 16.0) == pytest.approx(0.25, rel=0.01)
    alpha, beta = 2.0, 3.0
    inp2 = build_input(euclid2, "TwoPlaneCaloric", {"alpha": alpha, "beta": beta},
                       cfg=lean_quad2)
    assert fn.phi(inp2, 1.0 / 16.0) == pytest.approx(
        alpha ** 2 * beta ** 2 / 4.0, rel=0.01)


def test_phi_quadratic_scaling_property(euclid2, lean_quad2):
    """phi scales by (alpha beta)^2 under phase scaling, to quadrature accuracy."""
    rng = np.random.default_rng(13)
    base = build_input(euclid2, "TwoPlaneCaloric", {"alpha": 1.0, "beta": 1.0},
                       cfg=lean_quad2)
    phi0 = fn.phi(base, 1.0 / 16.0)
    for _ in range(3):
        a, b = rng.uniform(0.3, 2.5, 2)
        inp = build_input(euclid2, "TwoPlaneCaloric", {"alpha": a, "beta": b},
                          cfg=lean_quad2)
        assert fn.phi(inp, 1.0 / 16.0) == pytest.approx(
            a * a * b * b * phi0, rel=1e-8)


def test_boundary_energy_and_consistency(caloric_input):
    # half-space Gaussian mass; at r = 1/16 the cutoff still shaves ~0.3%,
    # by 1/32 the correction is e^{-16}-small
    assert fn.boundary_energy(caloric_input, 1.0 / 16.0)[0] == pytest.approx(
        0.5, abs=2e-3)
    for r in (1.0 / 32.0, 1.0 / 64.0):
        assert fn.boundary_energy(caloric_input, r)[0] == pytest.approx(
            0.5, abs=1e-3)
    # dA/dr = 2 r B(r) via a centered difference of the phase energy
    r, dr = 1.0 / 16.0, 1.0 / 160.0
    da = (fn.phase_energy(caloric_input, r + dr)[0]
          - fn.phase_energy(caloric_input, r - dr)[0]) / (2 * dr)
    assert da == pytest.approx(2 * r * fn.boundary_energy(caloric_input, r)[0],
                               rel=0.02)


def test_boundary_energy_null(euclid2, quad2):
    inp = build_input(euclid2, "Null", cfg=quad2)
    assert fn.boundary_energy(inp, 0.1) == (0.0, 0.0)


def test_wedge_energy_slope_and_prefactor(euclid2, lean_quad2):
    beta = 0.25
    inp = build_input(euclid2, "PowerWedge", {"beta": beta}, cfg=lean_quad2)
    rs = [4.0 ** (-k) for k in (2, 3, 4)]
    a_vals = [fn.phase_energy(inp, r)[0] for r in rs]
    slope = fn.fit_log_slope(rs, a_vals)
    assert slope == pytest.approx(2.0 + 2.0 * beta, abs=0.1)
    c = wedge_energy_prefactor(beta)
    assert a_vals[1] == pytest.approx(c * rs[1] ** (2 + 2 * beta), rel=0.02)


def test_fit_log_slope_needs_two_distinct_scales():
    """A line through one scale, repeated or not, has no slope: NaN, also
    when the floor drops every other scale."""
    assert fn.fit_log_slope([0.1, 0.05], [1e-2, 2.5e-3]) == pytest.approx(2.0)
    assert np.isnan(fn.fit_log_slope([0.1], [1e-2]))
    assert np.isnan(fn.fit_log_slope([0.1, 0.1], [1e-2, 3e-2]))
    assert np.isnan(fn.fit_log_slope([0.1, 0.1, 0.05], [1e-2, 3e-2, 0.0]))


def test_ladder_caloric_identities(euclid2, lean_quad2):
    inp = build_input(euclid2, "TwoPlaneCaloric", {}, cfg=lean_quad2)
    lad = fn.dyadic_ladder(inp, 2, 4, c0=10.0, c1=1.0)
    for row in lad.rows:
        # b_k = 4^{4k} A_k holds by construction, exactly
        assert row.b_plus == 4.0 ** (4 * row.k) * row.a_plus
        assert row.b_plus == pytest.approx(4.0 ** (2 * row.k) / 2.0, rel=0.05)
        assert row.phi == pytest.approx(0.25, rel=0.02)
        if np.isfinite(row.prop1_ratio):
            assert row.prop1_ratio == pytest.approx(1.0, abs=0.02)
            assert row.prop1_pass
        # caloric planes: the plus energy grows under zoom, prop2 active,
        # and the minus phase decays by 4^{-2} exactly
        if row.prop2_active:
            assert row.prop2_ratio == pytest.approx(1.0 / 16.0, rel=0.02)


def test_ladder_null_vacuous(euclid2, lean_quad2):
    inp = build_input(euclid2, "Null", cfg=lean_quad2)
    lad = fn.dyadic_ladder(inp, 2, 3)
    for row in lad.rows:
        assert row.a_plus == 0.0 and row.phi == 0.0
        assert row.prop1_pass and not row.prop2_active


def test_ladder_wedge_decay(euclid2, lean_quad2):
    inp = build_input(euclid2, "PowerWedge", {"beta": 0.5}, cfg=lean_quad2)
    lad = fn.dyadic_ladder(inp, 2, 4)
    for row in lad.rows:
        if np.isfinite(row.prop1_ratio):
            assert row.prop1_ratio == pytest.approx(4.0 ** -2.0, rel=0.1)
            assert row.prop1_pass


def test_ladder_range_validation(caloric_input):
    with pytest.raises(ValueError):
        fn.dyadic_ladder(caloric_input, 0, 3)
    with pytest.raises(ValueError):
        fn.dyadic_ladder(caloric_input, 3, 2)


def test_scale_derivative_caloric(euclid2, lean_quad2):
    inp = build_input(euclid2, "TwoPlaneCaloric", {}, cfg=lean_quad2)
    r = 1.0 / 16.0
    rec = fn.scale_derivative(inp, r)
    # the parabolic normalization gives r^2 A~(1) = 1/2 for the caloric pair
    assert r * r * rec.a_plus == pytest.approx(0.5, rel=0.01)
    assert r * r * rec.b_plus == pytest.approx(0.5, rel=0.01)
    assert abs(rec.direct) <= 0.02 * rec.term_scale
    assert abs(rec.direct - rec.finite_difference) <= 0.02 * rec.term_scale
    assert rec.lambda_plus == pytest.approx(0.5, abs=0.01)
    assert rec.lambda_minus == pytest.approx(0.5, abs=0.01)


def test_scale_derivative_null_and_validation(euclid2, lean_quad2):
    inp = build_input(euclid2, "Null", cfg=lean_quad2)
    rec = fn.scale_derivative(inp, 1.0 / 16.0)
    assert rec.direct == 0.0 and rec.finite_difference == 0.0
    cal = build_input(euclid2, "TwoPlaneCaloric", {}, cfg=lean_quad2)
    with pytest.raises(ValueError):
        fn.scale_derivative(cal, 0.3)


def _caloric_slice_mass_oracle(s, n_r=4000):
    """Brute-force int (x1+ chi)^2 G(., -s) dx on the flat plane: dense polar
    grid, independent of the package quadrature.  The angular factor of
    x1^2 over the half circle is pi/2."""
    t = -s
    rho = np.linspace(0.0, 0.5, n_r)
    ss = np.clip((rho - 0.25) / 0.25, 0.0, 1.0)
    chi = 1.0 - ss ** 3 * (10.0 - 15.0 * ss + 6.0 * ss ** 2)
    g = np.exp(-rho ** 2 / (4.0 * t)) / (4.0 * np.pi * t)
    return float(np.trapezoid(chi ** 2 * g * rho ** 3 * (np.pi / 2.0), rho))


def test_energy_inequality_caloric_oracles(euclid2, lean_quad2):
    """Slice masses are Gaussian moments of the truncated plane; the annulus
    integral picks up a real cutoff correction at this depth (the naive
    moment 7.5 r^4 overshoots by ~25%), so the oracle is brute-force."""
    inp = build_input(euclid2, "TwoPlaneCaloric", {}, cfg=lean_quad2)
    r = 1.0 / 16.0
    rec_p, rec_m = fn.energy_inequality_check(inp, r)
    assert rec_p.slice_mass_r == pytest.approx(r * r, rel=0.02)
    assert rec_p.slice_mass_r == pytest.approx(
        _caloric_slice_mass_oracle(-r * r), rel=1e-3)
    assert rec_p.inf_slice_mass == pytest.approx(r * r, rel=0.02)
    ss = np.linspace(-4 * r * r, -r * r, 200)
    ann_oracle = float(np.trapezoid([_caloric_slice_mass_oracle(s) for s in ss], ss))
    assert rec_p.annulus_mass == pytest.approx(ann_oracle, rel=3e-3)
    # the fixed-coefficient surplus vanishes only once the cutoff effect is
    # dead: at r = 1/16 it is still ~6e-2, by r = 1/32 it is ~0
    assert rec_p.c_fixed_form <= 0.1
    small = fn.energy_inequality_check(inp, 1.0 / 32.0)[0]
    assert small.c_fixed_form <= 0.01
    assert rec_p.c_inf_form == pytest.approx(0.5, rel=0.1)
    c3_oracle = rec_p.energy / (r ** 4 + ann_oracle / r ** 2)
    assert rec_p.c_annulus_form == pytest.approx(c3_oracle, rel=0.01)
    assert rec_m.energy == pytest.approx(rec_p.energy, rel=1e-6)


def test_energy_inequality_null(euclid2, lean_quad2):
    inp = build_input(euclid2, "Null", cfg=lean_quad2)
    rec_p, rec_m = fn.energy_inequality_check(inp, 1.0 / 16.0)
    for rec in (rec_p, rec_m):
        assert rec.energy == 0.0
        assert rec.c_fixed_form == 0.0
        assert np.isfinite(rec.c_inf_form) and rec.c_inf_form == 0.0


def test_theorem2_null_trivial(euclid2, lean_quad2):
    inp = build_input(euclid2, "Null", cfg=lean_quad2)
    rec = fn.theorem2_check(inp, 1.0, [0.0625, 0.015625])
    assert rec["passed"] and rec["c_m"] == 0.0


def test_energy_inequality_drift_stability(euclid2, lean_quad2):
    inp = build_input(euclid2, "DriftTwoPlane", {"c": 0.5}, cfg=lean_quad2)
    rs = [4.0 ** (-k) for k in (2, 3, 4)]
    recs = {r: fn.energy_inequality_check(inp, r) for r in rs}
    for attr in ("c_fixed_form", "c_inf_form", "c_annulus_form"):
        series = [getattr(recs[r][0], attr) for r in rs]
        assert all(np.isfinite(series))
        assert fn.constants_stable(series)


def test_constants_stable_semantics():
    assert fn.constants_stable([0.5, 0.5, 0.49])
    assert fn.constants_stable([0.08, 0.004, 0.001])       # decay is fine
    assert fn.constants_stable([1e-9, 1e-8, 1e-9])          # all negligible
    assert not fn.constants_stable([0.1, 0.2, 3.0])         # blow-up flagged
    assert not fn.constants_stable([0.5, np.inf, 0.5])


def test_theorem1_caloric(euclid2, lean_quad2):
    inp = build_input(euclid2, "TwoPlaneCaloric", {}, cfg=lean_quad2)
    rs = [4.0 ** (-k) for k in (2, 3, 4)]
    rec = fn.theorem1_check(inp, rs)
    # iint u^2 over the unit ball x unit time: pi/8 per phase (flat chart)
    assert rec["u2_plus"] == pytest.approx(np.pi / 8.0, rel=0.01)
    assert rec["sup_phi"] == pytest.approx(0.25, rel=0.02)
    assert rec["ratio"] == pytest.approx(0.078427765441, rel=0.02)
    assert rec["passed"]


def test_theorem1_null(euclid2, lean_quad2):
    inp = build_input(euclid2, "Null", cfg=lean_quad2)
    rec = fn.theorem1_check(inp, [0.0625])
    assert rec["ratio"] == 0.0 and rec["passed"]


def test_theorem2_caloric_and_wedge(euclid2, lean_quad2):
    rs = [4.0 ** (-k) for k in (2, 3, 4)]
    cal = build_input(euclid2, "TwoPlaneCaloric", {}, cfg=lean_quad2)
    rec = fn.theorem2_check(cal, 1.0, rs)
    assert rec["passed"] and rec["c_m"] <= 1e-3
    assert rec["fitted_growth_constant"] <= 1.0 + 1e-9
    wedge = build_input(euclid2, "PowerWedge", {"beta": 0.5}, cfg=lean_quad2)
    rec_w = fn.theorem2_check(wedge, 1.0, rs)
    assert rec_w["passed"] and rec_w["c_m"] <= 1e-3


def test_theorem2_eps_validation(caloric_input):
    with pytest.raises(ValueError):
        fn.theorem2_check(caloric_input, 1.5, [0.0625])


def test_positivity_measure_caloric(euclid2, lean_quad2):
    inp = build_input(euclid2, "TwoPlaneCaloric", {}, cfg=lean_quad2)
    r = 1.0 / 16.0
    rec = fn.positivity_measure(inp, r)["plus"]
    # half-space slice mass 1/2 over the time window of length 3 r^2 / 16
    assert rec["measure_over_r2"] == pytest.approx(3.0 / 32.0, rel=0.02)
    assert rec["energy_ratio"] == pytest.approx(1.0 / 16.0, rel=0.02)


def test_positivity_measure_null(euclid2, lean_quad2):
    inp = build_input(euclid2, "Null", cfg=lean_quad2)
    recs = fn.positivity_measure(inp, 1.0 / 16.0)
    assert recs["plus"]["measure"] == recs["minus"]["measure"] == 0.0


def test_kernel_swap_sandwich(sphere2, lean_quad2):
    """Swapping G for the order-zero kernel moves the energy by no more than
    the comparability range of phi0 = dens^(-1/2) on the support."""
    inp_g = build_input(sphere2, "TwoPlaneCaloric", {}, kind="gauss",
                        cfg=lean_quad2)
    inp_u = build_input(sphere2, "TwoPlaneCaloric", {}, kind="parametrix0",
                        cfg=lean_quad2)
    r = 1.0 / 8.0
    a_g, _ = fn.phase_energy(inp_g, r)
    a_u, _ = fn.phase_energy(inp_u, r)
    rng = np.random.default_rng(20240117)
    dirs = rng.standard_normal((16, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = (np.linspace(0.0, 0.45, 12)[:, None, None] * dirs[None]).reshape(-1, 2)
    phi0 = geo.inverse_metric_and_density(sphere2, pts)[1] ** -0.5
    lo, hi = float(phi0.min()), float(phi0.max())
    assert lo * a_g * (1 - 1e-9) <= a_u <= hi * a_g * (1 + 1e-9)


# ---------------------------------------------------------------------------
# slice table


@pytest.fixture
def slice_calls(monkeypatch):
    """Slice times passed to quadrature.slice_integral from now on."""
    calls = []
    original = quad.slice_integral

    def counted(f, kernel, s, cfg, cutoff):
        calls.extend(np.asarray(s).tolist())
        return original(f, kernel, s, cfg, cutoff)

    monkeypatch.setattr(quad, "slice_integral", counted)
    return calls


def test_slice_table_serves_repeated_checks(euclid2, lean_quad2, slice_calls):
    inp = build_input(euclid2, "TwoPlaneCaloric", {}, cfg=lean_quad2)
    rs = [4.0 ** (-k) for k in (2, 3)]
    fn.dyadic_ladder(inp, 2, 3)
    first = len(slice_calls)
    assert first == len(inp.slice_table) > 0
    fn.dyadic_ladder(inp, 2, 3)
    fn.theorem1_check(inp, rs)
    fn.theorem2_check(inp, 1.0, rs)
    for r in rs:
        fn.boundary_energy(inp, r)
    assert len(slice_calls) == first


def test_slice_table_one_energy_slice_count(euclid2, lean_quad2, slice_calls):
    inp = build_input(euclid2, "TwoPlaneCaloric", {}, cfg=lean_quad2)
    fn.phase_energy(inp, 0.25)
    expected = lean_quad2.time_blocks * lean_quad2.slices_per_scale + 1
    assert len(slice_calls) == expected
    assert len(inp.slice_table) == expected
    assert {key[0] for key in inp.slice_table} == {"grad_sq"}
    assert {len(key) for key in inp.slice_table} == {2}   # (kind, s)
    assert {len(pm) for pm in inp.slice_table.values()} == {2}   # (plus, minus)
    fn.phase_energy(inp, 0.25)          # the energies are kept
    assert len(slice_calls) == len(inp.slice_table) == expected


@pytest.mark.parametrize("family, params", [("DriftTwoPlane", {"c": 0.5}),
                                            ("NumericPair", {"seed": 1})])
def test_one_miss_fills_both_phases(euclid2, lean_quad2, monkeypatch, family,
                                    params):
    """An energy, boundary energy and slice mass each fill both phases with
    one slice_integral call, and a repeated request reads the table: no
    second call (s = -0.09 is no node of the scale 1/4)."""
    calls = []
    original = quad.slice_integral
    monkeypatch.setattr(quad, "slice_integral",
                        lambda *args, **kwargs: calls.append(1) or original(
                            *args, **kwargs))
    grid = SpaceTimeGrid.geometric(2, 1.0, 0.1, ratio=0.8, dt0=0.25)
    pair = make_family(family, params, chart=euclid2, grid=grid)
    inp = fn.MonotonicityInput(chart=euclid2, pair=pair, kernel_kind="gauss",
                               quad=lean_quad2)
    for read in (lambda: fn.phase_energy(inp, 0.25),
                 lambda: fn.boundary_energy(inp, 0.3),
                 lambda: fn.slice_mass(inp, -0.0625)):
        before = len(calls)
        plus, minus = read()
        assert len(calls) == before + 1
        assert read() == (plus, minus)
        assert len(calls) == before + 1
        assert plus > 0.0 and minus > 0.0
    fresh = dataclasses.replace(inp)
    assert fn.phase_energy(fresh, 0.25) == fn.phase_energy(inp, 0.25)


def test_slice_table_warm_equals_fresh(euclid2, lean_quad2):
    warm = build_input(euclid2, "DriftTwoPlane", {"c": 0.5}, cfg=lean_quad2)
    fn.dyadic_ladder(warm, 2, 4)
    fn.energy_inequality_check(warm, 1.0 / 16.0)
    for r in (1.0 / 64.0, 1.0 / 256.0):
        fresh = build_input(euclid2, "DriftTwoPlane", {"c": 0.5}, cfg=lean_quad2)
        assert fn.phase_energy(warm, r) == fn.phase_energy(fresh, r)
        fresh = build_input(euclid2, "DriftTwoPlane", {"c": 0.5}, cfg=lean_quad2)
        assert fn.boundary_energy(warm, r) == fn.boundary_energy(fresh, r)
    fresh = build_input(euclid2, "DriftTwoPlane", {"c": 0.5}, cfg=lean_quad2)
    assert fn.slice_mass(warm, -1.0 / 256.0) == fn.slice_mass(fresh, -1.0 / 256.0)


def test_scale_derivative_radii_share_the_unit_mesh(euclid2, lean_quad2,
                                                   slice_calls):
    """At r = 1/16, r (1 + 1/16) adds only its partial block to the slices of
    r; r (1 - 1/16) adds its partial block and one full block at the bottom."""
    inp = build_input(euclid2, "TwoPlaneCaloric", {}, cfg=lean_quad2)
    r = 1.0 / 16.0

    fn.phase_energy(inp, r)
    before = len(inp.slice_table)
    fn.phi(inp, r * (1.0 + 1.0 / 16.0))
    after_up = len(inp.slice_table)
    fn.phi(inp, r * (1.0 - 1.0 / 16.0))
    after_down = len(inp.slice_table)
    spp = lean_quad2.slices_per_scale
    assert after_up - before == spp
    assert after_down - after_up == 2 * spp
    assert len(slice_calls) == len(inp.slice_table)


def _scale_derivative_on(rin, r, fd_step):
    """The scale-derivative record computed at the unit scale of the rescaled
    input ``rin`` itself, as before the check read the scenario's input."""
    a_p, a_m = fn.phase_energy(rin, 1.0)
    b_p, b_m = fn.boundary_energy(rin, 1.0)
    m_p, m_m = fn.slice_mass(rin, -1.0)
    fd = (fn.phi(rin, 1.0 + fd_step) - fn.phi(rin, 1.0 - fd_step)) / (2.0 * fd_step)
    return fn.ScaleDerivativeRecord(
        r=r, a_plus=a_p, a_minus=a_m, b_plus=b_p, b_minus=b_m,
        direct=-4.0 * a_p * a_m + 2.0 * b_p * a_m + 2.0 * a_p * b_m,
        finite_difference=fd, fd_step=fd_step, lambda_plus=b_p / m_p,
        lambda_minus=b_m / m_m,
        term_scale=4.0 * a_p * a_m + 2.0 * b_p * a_m + 2.0 * a_p * b_m)


@pytest.mark.parametrize("chart_name, kind", [("euclid2", "gauss"),
                                              ("sphere2", "parametrix0")])
def test_rescaled_quantities_read_the_parent_table(request, lean_quad2,
                                                   chart_name, kind):
    """At r = 1/16 the rescaled input's A~(rho), B~(1) and m~(-1) equal
    r^-4 A(r rho), r^-2 B(r) and r^-4 m(-r^2) of the scenario's input bit for
    bit, rho in {1, 1 +- 1/16}, and so does the scale-derivative record."""
    chart = request.getfixturevalue(chart_name)
    inp = build_input(chart, "DriftTwoPlane", {"c": 0.5}, kind=kind,
                      cfg=lean_quad2)
    r = 1.0 / 16.0
    rin = rescaled_input(inp, r)
    for rho in (1.0, 1.0 + r, 1.0 - r):
        assert fn.phase_energy(rin, rho) == tuple(
            a / r ** 4 for a in fn.phase_energy(inp, r * rho))
    assert fn.boundary_energy(rin, 1.0) == tuple(
        b / r ** 2 for b in fn.boundary_energy(inp, r))
    assert fn.slice_mass(rin, -1.0) == tuple(
        m / r ** 4 for m in fn.slice_mass(inp, -r * r))
    assert fn.scale_derivative(inp, r) == _scale_derivative_on(rin, r, 0.0625)


def test_slice_table_not_shared_by_copies(euclid2, lean_quad2):
    inp = build_input(euclid2, "TwoPlaneCaloric", {}, cfg=lean_quad2)
    fn.boundary_energy(inp, 0.25)
    assert len(inp.slice_table) == 1
    other = build_input(euclid2, "Null", cfg=lean_quad2).pair
    copy = dataclasses.replace(inp, pair=other)
    assert copy.slice_table == {} and copy.slice_table is not inp.slice_table
    assert fn.boundary_energy(copy, 0.25) == (0.0, 0.0)
    fn.phase_energy(inp, 0.25)
    copy = dataclasses.replace(inp, pair=other)
    assert copy.energies == {} and fn.phase_energy(copy, 0.25) == (0.0, 0.0)
    # a copy under another rule derives the parent's cutoff and kernel again,
    # equal to them, so it reads the parent's cached annulus fields
    coarse = dataclasses.replace(inp, quad=quad.default_config(2, nodes=16))
    assert coarse.profile == inp.profile and coarse.kernel == inp.kernel
    assert (quad._annulus_fields(coarse.kernel, coarse.profile)
            is quad._annulus_fields(inp.kernel, inp.profile))


def test_each_energy_assembled_once_per_input(euclid2, lean_quad2, monkeypatch):
    """Every check after the first reads (A_+(r), A_-(r)) from the input's
    energies: one time-rule assembly per r for both phases, however often
    it is requested."""
    assembled = []
    original = quad.spacetime_integral

    def counted(slice_at, r, cfg):
        assembled.append(r)
        return original(slice_at, r, cfg)

    monkeypatch.setattr(quad, "spacetime_integral", counted)
    inp = build_input(euclid2, "TwoPlaneCaloric", {}, cfg=lean_quad2)
    rs = [4.0 ** (-k) for k in (2, 3)]
    ladder = fn.dyadic_ladder(inp, 2, 3)
    assert assembled == rs and list(inp.energies) == rs
    assert fn.dyadic_ladder(inp, 2, 3) == ladder
    fn.theorem1_check(inp, rs)
    fn.theorem2_check(inp, 1.0, rs)
    fn.positivity_measure(inp, rs[0])         # A(r/4) and A(r): both on the ladder
    assert assembled == rs and list(inp.energies) == rs
    assert fn.phase_energy(inp, rs[0]) == (ladder.rows[0].a_plus,
                                          ladder.rows[0].a_minus)


# ---------------------------------------------------------------------------
# block evaluation guards


# Integrand calls of the phase energy below, for both rules, under the
# per-block requests and the one-slice cap that preceded the point budget.
_CALLS_UNDER_ONE_SLICE_CAP = 58


@pytest.mark.parametrize("nodes", [16, 48])
def test_integrand_calls_stay_within_the_point_budget(euclid2, monkeypatch, nodes):
    """No integrand call gets more times x points than quadrature._CALL_POINTS
    or one slice's larger rule, and a bench-size phase energy makes fewer calls than
    under one request per block and calls capped at one slice's larger rule."""
    cfg = quad.default_config(2, nodes=nodes, slices_per_scale=6, time_blocks=7)
    inp = build_input(euclid2, "DriftTwoPlane", {"c": 0.5}, cfg=cfg)
    sizes = []
    original = quad.slice_integral

    def sized(f, kernel, s, cfg, cutoff):
        def g(X, S, g_inv):
            sizes.append(len(S) * X.shape[-2])     # times x points
            return f(X, S, g_inv)

        return original(g, kernel, s, cfg, cutoff)

    monkeypatch.setattr(quad, "slice_integral", sized)
    fn.phase_energy(inp, 0.25)
    main = len(quad._scaled_rule(2, cfg.nodes, cfg.r_tail)[1])
    annulus = len(quad.annulus_rule(2, *_annulus(inp), quad._ANNULUS_RADIAL,
                                    quad._ANNULUS_ANGULAR)[1])
    assert max(sizes) <= max(quad._CALL_POINTS, main, annulus)
    assert len(sizes) < _CALLS_UNDER_ONE_SLICE_CAP


def test_metric_points_within_integrand_points(sphere2, lean_quad2, monkeypatch):
    """One phase energy evaluates the metric on no more points than the
    integrand sees: each main-rule point once, the annulus once per input."""
    inp = build_input(sphere2, "TwoPlaneCaloric", {}, kind="parametrix0",
                      cfg=lean_quad2)
    counts = {"metric": 0, "integrand": 0}
    metric = geo.inverse_metric_and_density
    original = quad.slice_integral

    def counted_metric(chart, X):
        counts["metric"] += int(np.prod(np.shape(X)[:-1]))
        return metric(chart, X)

    def counted(f, kernel, s, cfg, cutoff):
        def g(X, S, g_inv):
            counts["integrand"] += len(S) * X.shape[-2]    # times x points
            return f(X, S, g_inv)

        return original(g, kernel, s, cfg, cutoff)

    monkeypatch.setattr(geo, "inverse_metric_and_density", counted_metric)
    monkeypatch.setattr(quad, "slice_integral", counted)
    fn.phase_energy(inp, 0.25)
    assert 0 < counts["metric"] <= counts["integrand"]


# ---------------------------------------------------------------------------
# integrand convention: rows of points x times

_ROW_TIMES = -np.array([0.2, 0.05, 0.01, 1e-3, 2e-4])
_FAMILIES = [("Null", {}), ("TwoPlaneCaloric", {"alpha": 2.0, "beta": 0.5}),
             ("PowerWedge", {"beta": 0.5}), ("DriftTwoPlane", {"c": 0.5}),
             ("NumericPair", {"seed": 5, "overlap": False}),
             ("NumericPair", {"seed": 5, "overlap": True})]
_STATIONARY = ("Null", "TwoPlaneCaloric", "PowerWedge")   # pairs free of s


def _rows_input(name, params, curvature):
    chart = (geo.euclidean_chart(2) if curvature == 0.0
             else geo.constant_curvature_chart(2, curvature, radius=1.0))
    grid = SpaceTimeGrid.geometric(2, 1.0, 0.1, ratio=0.8, dt0=0.25)
    pair = make_family(name, params, chart=chart, grid=grid)
    return fn.MonotonicityInput(chart=chart, pair=pair, kernel_kind="gauss",
                                quad=quad.default_config(2, nodes=16))


@pytest.mark.parametrize("name, params", _FAMILIES)
@pytest.mark.parametrize("curvature", [0.0, 1.0])
def test_fixed_row_call_equals_per_slice_calls(name, params, curvature):
    """Each integrand, called once with one row of points (p = 1) for all the
    times, as the annulus rule and thm1's plain integral call it, equals one
    call per time bit for bit, through a time axis of length 1 for a pair
    that does not depend on s and of length k otherwise; so does a call with
    one row per time (p = k, the scaled rule) against one call per row."""
    inp = _rows_input(name, params, curvature)
    P, _ = quad.annulus_rule(2, *_annulus(inp), quad._ANNULUS_RADIAL,
                             quad._ANNULUS_ANGULAR)
    P = P[None]
    g_inv, _ = geo.inverse_metric_and_density(inp.chart, P)
    XX = np.sqrt(-_ROW_TIMES)[:, None, None] * quad._scaled_rule(2, 16, 8.0)[0]
    g_rows, _ = geo.inverse_metric_and_density(inp.chart, XX)
    g_each = [geo.inverse_metric_and_density(inp.chart, X[None])[0] for X in XX]
    k = len(_ROW_TIMES)
    times = 1 if name in _STATIONARY else k
    full = (2, k, P.shape[1])
    for kind, sampler in fn._SAMPLERS.items():
        f = sampler(inp)
        fixed = f(P, _ROW_TIMES, g_inv)
        assert fixed.shape == (2, times, P.shape[1]), kind
        per_slice = [f(P, _ROW_TIMES[j:j + 1], g_inv)[:, 0] for j in range(k)]
        assert np.array_equal(np.broadcast_to(fixed, full),
                              np.stack(per_slice, axis=1)), kind
        per_row = [f(X[None], _ROW_TIMES[j:j + 1], g)[:, 0]
                   for j, (X, g) in enumerate(zip(XX, g_each))]
        assert np.array_equal(f(XX, _ROW_TIMES, g_rows),
                              np.stack(per_row, axis=1)), kind
    plain = lambda X, s: inp.pair.values(X, s) ** 2
    assert plain(P, _ROW_TIMES).shape == (2, times, P.shape[1])
    assert np.array_equal(np.broadcast_to(plain(P, _ROW_TIMES), full),
                          np.stack([plain(P, _ROW_TIMES[j:j + 1])[:, 0]
                                    for j in range(k)], axis=1))
    if name != "Null":
        assert np.any(fixed > 0.0)


@pytest.mark.parametrize("name, params", _FAMILIES[:4])
def test_fixed_rules_call_a_stationary_integrand_once(monkeypatch, name, params):
    """With runs of two times, the annulus rule and thm1's plain integral call
    the integrand of a pair that does not depend on s once per rule call and
    that of any other pair once per run; the totals equal those of an
    integrand that spells out every time, bit for bit."""
    inp = _rows_input(name, params, 0.0)
    P, _ = quad.annulus_rule(2, *_annulus(inp), quad._ANNULUS_RADIAL,
                             quad._ANNULUS_ANGULAR)
    monkeypatch.setattr(quad, "_CALL_POINTS", 2 * len(P))
    a = inp.profile.inner
    annulus_times = [s for s in _ROW_TIMES if a * a / (4.0 * -s) < 200.0]
    assert len(annulus_times) > 2
    stationary = name in _STATIONARY
    calls = []      # times per call on the annulus rule's points
    runs = [len(run) for run in quad._runs(annulus_times, 2)]

    def counting(f):
        def g(X, S, *g_inv):
            if X.shape[-2] == len(P):
                calls.append(len(S))
            return f(X, S, *g_inv)

        return g

    def every_time(f):
        return lambda X, S, *g_inv: np.broadcast_to(
            f(X, S, *g_inv), (2, len(S), X.shape[-2])).copy()

    for kind, sampler in fn._SAMPLERS.items():
        f = sampler(inp)
        calls.clear()
        block = quad.slice_integral(counting(f), inp.kernel, _ROW_TIMES, inp.quad,
                                    cutoff=inp.profile)
        assert calls == (runs[:1] if stationary else runs), kind
        spelled_out = quad.slice_integral(every_time(f), inp.kernel, _ROW_TIMES,
                                          inp.quad, cutoff=inp.profile)
        assert np.array_equal(block, spelled_out), kind
    plain = lambda X, s: inp.pair.values(X, s) ** 2
    calls.clear()
    total = quad.plain_spacetime_integral(counting(plain), inp.chart, 1.0, 1.0)
    assert calls == ([2] if stationary else [2] * (quad._PLAIN_TIME_CELLS // 2))
    assert np.array_equal(total, quad.plain_spacetime_integral(
        every_time(plain), inp.chart, 1.0, 1.0))


@pytest.mark.parametrize("overlap", [False, True])
def test_grid_cells_located_once_per_fixed_rule_call(euclid2, monkeypatch, overlap):
    """A grid pair locates each point of a row once: m points per row of m,
    not (2n+1) m for the gradient stencil, per integrand call of the annulus
    rule and of thm1's plain integral however many times the call holds, and
    per slice of the scaled rule."""
    from monolab.solutions import grids

    inp = _rows_input("NumericPair", {"seed": 5, "overlap": overlap}, 0.0)
    located = []
    locate = grids.GridPhaseSampler._locate
    monkeypatch.setattr(grids.GridPhaseSampler, "_locate",
                        lambda self, X, rows: located.append(len(X)) or locate(self, X, rows))
    calls = []      # (rows of points, points per row, times, located points)

    def counting(f):
        def g(X, S, *g_inv):
            before = len(located)
            out = f(X, S, *g_inv)
            calls.append((X.shape[0], X.shape[-2], len(S), sum(located[before:])))
            return out

        return g

    for kind, sampler in fn._SAMPLERS.items():
        quad.slice_integral(counting(sampler(inp)), inp.kernel, _ROW_TIMES,
                            inp.quad, cutoff=inp.profile)
    fixed = [call for call in calls if call[0] == 1 and call[2] > 1]
    assert fixed and all(points == m for _, m, _, points in fixed)
    assert all(points == rows * m for rows, m, _, points in calls)
    calls.clear()
    quad.plain_spacetime_integral(counting(lambda X, s: inp.pair.values(X, s) ** 2),
                                  euclid2, 1.0, 1.0)
    assert calls and all(rows == 1 and points == m for rows, m, _, points in calls)
    assert sum(times for _, _, times, _ in calls) == quad._PLAIN_TIME_CELLS
