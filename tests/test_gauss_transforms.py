import numpy as np
import pytest

from monolab import functional as fn
from monolab import gauss_transforms as gt
from monolab import geometry as geo
from monolab.errors import (DegenerateInputError, DomainError,
                            PreconditionError)

from conftest import build_input, rescaled_input

POINCARE_LHS = 0.45946926660233637   # log(2 pi) / 4
HALF_MASS = 0.3989422804014327       # 1 / sqrt(2 pi)


def test_gauss_measure_mass():
    for n in (1, 2, 3):
        for v in (1.0, 2.0):
            m = gt.GaussMeasure(n, v)
            mass = gt.gauss_integral(lambda X: np.ones(np.atleast_2d(X).shape[0]), m)
            assert mass == pytest.approx(1.0, abs=1e-8)


def test_gauss_measure_validation():
    with pytest.raises(ValueError):
        gt.GaussMeasure(2, 0.0)


def test_rayleigh_quotients_half_plane():
    assert gt.rayleigh_quotient(gt.half_plane_field(1), gt.GaussMeasure(1, 2.0)) == \
        pytest.approx(0.5, abs=1e-3)
    assert gt.rayleigh_quotient(gt.half_plane_field(1), gt.GaussMeasure(1, 1.0)) == \
        pytest.approx(1.0, abs=1e-3)
    full = gt.GaussField(value=lambda X: np.atleast_2d(X)[:, 0],
                         grad=lambda X: np.ones_like(np.atleast_2d(X)))
    assert gt.rayleigh_quotient(full, gt.GaussMeasure(1, 2.0)) == \
        pytest.approx(0.5, abs=1e-3)


def test_rayleigh_scale_invariance():
    m = gt.GaussMeasure(2, 2.0)
    base = gt.half_plane_field(2, power=1.5)
    lam = gt.rayleigh_quotient(base, m)
    for alpha in (0.1, 7.3):
        scaled = gt.GaussField(
            value=lambda X, a=alpha: a * base.value(X),
            grad=lambda X, a=alpha: a * base.grad(X))
        assert gt.rayleigh_quotient(scaled, m) == pytest.approx(lam, rel=1e-12)


def test_rayleigh_degenerate():
    zero = gt.GaussField(value=lambda X: np.zeros(np.atleast_2d(X).shape[0]),
                         grad=lambda X: np.zeros_like(np.atleast_2d(X)))
    with pytest.raises(DegenerateInputError):
        gt.rayleigh_quotient(zero, gt.GaussMeasure(1, 1.0))


def test_poincare_half_plane_numbers():
    rec = gt.gaussian_poincare_check(gt.half_plane_field(1), gt.GaussMeasure(1, 1.0))
    assert rec["f_nu"] == pytest.approx(HALF_MASS, abs=1e-3)
    assert rec["lhs"] == pytest.approx(POINCARE_LHS, abs=1e-3)
    assert rec["rhs"] == pytest.approx(1.0, abs=1e-3)
    assert rec["hypothesis_ok"] and rec["passed"]


def test_poincare_wedge_power():
    rec = gt.gaussian_poincare_check(gt.half_plane_field(1, power=1.5),
                                     gt.GaussMeasure(1, 1.0))
    assert rec["hypothesis_ok"] and rec["passed"]


def test_poincare_constant_flagged():
    const = gt.GaussField(value=lambda X: np.full(np.atleast_2d(X).shape[0], 0.5),
                          grad=lambda X: np.zeros_like(np.atleast_2d(X)))
    rec = gt.gaussian_poincare_check(const, gt.GaussMeasure(1, 1.0))
    assert rec["hypothesis_ok"] is False
    assert rec["passed"] is None
    # the displayed inequality genuinely fails there: lhs > 0 = rhs
    assert rec["lhs"] > rec["rhs"]


def test_poincare_zero_mass_degenerate():
    zero = gt.GaussField(value=lambda X: np.zeros(np.atleast_2d(X).shape[0]),
                         grad=lambda X: np.zeros_like(np.atleast_2d(X)))
    with pytest.raises(DegenerateInputError):
        gt.gaussian_poincare_check(zero, gt.GaussMeasure(1, 1.0))


def test_bkp_equality_and_strict_cases():
    m2 = gt.GaussMeasure(1, 2.0)
    rec = gt.bkp_sum(gt.half_plane_field(1, +1), gt.half_plane_field(1, -1), m2)
    assert rec["lambda_plus"] == pytest.approx(0.5, abs=1e-3)
    assert rec["sum"] == pytest.approx(1.0, abs=1e-3)
    assert rec["passed"]
    rec2 = gt.bkp_sum(gt.half_plane_field(1, +1, power=2),
                      gt.half_plane_field(1, -1, power=2), m2)
    assert rec2["sum"] == pytest.approx(4.0 / 3.0, abs=2e-3)
    assert rec2["deficit"] > 0.1


def test_bkp_quarter_planes():
    m = gt.GaussMeasure(2, 2.0)

    def quadrant(sx, sy):
        def value(X):
            X = np.atleast_2d(X)
            return np.maximum(sx * X[:, 0], 0.0) * np.maximum(sy * X[:, 1], 0.0)

        def grad(X):
            X = np.atleast_2d(X)
            px = np.maximum(sx * X[:, 0], 0.0)
            py = np.maximum(sy * X[:, 1], 0.0)
            out = np.zeros_like(X)
            out[:, 0] = sx * (sx * X[:, 0] > 0) * py
            out[:, 1] = sy * (sy * X[:, 1] > 0) * px
            return out

        return gt.GaussField(value=value, grad=grad)

    rec = gt.bkp_sum(quadrant(+1, +1), quadrant(-1, -1), m)
    assert rec["sum"] == pytest.approx(2.0, rel=1e-2)
    assert rec["deficit"] > 0.5


def test_bkp_overlap_rejected():
    m = gt.GaussMeasure(1, 2.0)
    with pytest.raises(PreconditionError):
        gt.bkp_sum(gt.half_plane_field(1, +1), gt.half_plane_field(1, +1), m)


def test_bkp_random_wedge_sweep():
    """Disjoint wedge pairs with random powers and directions never dip more
    than quadrature noise below the unit bound."""
    m = gt.GaussMeasure(2, 2.0)
    rng = np.random.default_rng(17)
    for _ in range(8):
        th = rng.uniform(0.0, np.pi)
        e = np.array([np.cos(th), np.sin(th)])
        p, q = rng.uniform(1.0, 2.5, 2)

        def wedge(sign, power):
            def value(X):
                d = sign * (np.atleast_2d(X) @ e)
                return np.maximum(d, 0.0) ** power

            def grad(X):
                d = sign * (np.atleast_2d(X) @ e)
                s = np.where(d > 0, power * np.maximum(d, 0.0) ** (power - 1.0), 0.0)
                return (s * sign)[:, None] * e[None, :]

            return gt.GaussField(value=value, grad=grad)

        rec = gt.bkp_sum(wedge(+1, p), wedge(-1, q), m)
        assert rec["deficit"] >= -1e-3


# ---------------------------------------------------------------------------
# transforms


def _builtin_charts():
    """Every built-in chart family, in two and three dimensions."""
    for n in (2, 3):
        yield geo.euclidean_chart(n)
        for K in (1.0, -1.0):
            yield geo.constant_curvature_chart(n, K, radius=1.0)
        for shape in ("const", "radial", "wave"):
            yield geo.perturbed_chart(n, 0.1, shape)


def _ray_at_scale(chart, r):
    """The ray map of the parabolic rescaling at scale r, read on the chart
    itself as Y -> forward(r Y) / r, with the determinant of its Jacobian at
    RayTransform's own difference step."""
    ray = gt.RayTransform(chart)

    def forward(Y):
        return ray.forward(r * np.atleast_2d(Y)) / r

    def jacobian_det(Y):
        return np.linalg.det(gt._fd_jacobian(forward, Y, 1e-3))

    return forward, jacobian_det


def test_ray_map_is_identity_on_builtin_charts():
    """The Gauss lemma g(x) x = x makes the ray map y = int_0^1 g^{1/2}(tx) x dt
    the identity with Jacobian 1, which the pushforward uses in closed form;
    the numerical RayTransform is the reference."""
    rng = np.random.default_rng(31)
    r = 0.1
    for chart in _builtin_charts():
        n = chart.dim
        Y = rng.uniform(-4.0, 4.0, size=(12, n))
        g = geo.metric_fields(chart, r * Y)["g"]
        assert np.abs(np.einsum("mij,mj->mi", g, Y) - Y).max() <= 1e-14
        forward, jacobian_det = _ray_at_scale(chart, r)
        assert np.abs(forward(Y) - Y).max() <= 1e-13
        assert np.abs(jacobian_det(Y) - 1.0).max() <= 1e-10


def test_first_transform_euclid_identity(euclid2):
    forward, jacobian_det = _ray_at_scale(euclid2, 0.1)
    X = np.array([[0.7, -1.2], [3.0, 2.0]])
    assert np.abs(forward(X) - X).max() < 1e-13
    assert np.abs(jacobian_det(X) - 1.0).max() < 1e-9


def test_first_transform_sphere_properties(sphere2):
    r = 0.1
    forward, jacobian_det = _ray_at_scale(sphere2, r)
    X = np.array([[1.0, 0.0], [0.3, 0.9], [2.0, -1.0]])
    # Gauss lemma makes the ray map the identity; fitted r^2 bounds hold
    assert np.abs(forward(X) - X).max() <= 1.0 * r ** 2
    assert np.abs(jacobian_det(X) - 1.0).max() <= 1.0 * r ** 2
    # monotone along a fixed ray
    lams = np.linspace(0.1, 2.0, 8)
    ys = forward(lams[:, None] * np.array([0.6, 0.8]))
    norms = np.linalg.norm(ys, axis=1)
    assert np.all(np.diff(norms) > 0)


def test_first_transform_gradient_norm_reduction(sphere2):
    """Through the (identity) ray map the Euclidean gradient norm matches the
    norm of the metric read at r x to O(r^2 |x|^2)."""
    r = 0.1
    X = np.array([[1.0, 0.2], [0.5, -1.5], [2.0, 0.0]])
    g_inv, _ = geo.inverse_metric_and_density(sphere2, r * X)
    w = np.array([0.3, -0.8])
    curved = g_inv.form(np.broadcast_to(w, X.shape))
    flat = float(w @ w)
    bound = 2.0 * r ** 2 * np.sum(X * X, axis=1) * flat
    assert np.all(np.abs(curved - flat) <= bound + 1e-12)


def test_second_transform_identity_zero_deviation():
    psi = gt.PsiMap(lambda Z: np.zeros(np.atleast_2d(Z).shape[0]))
    Z = np.array([[2.0, 1.0], [0.2, 0.1]])
    assert np.abs(psi.psi(Z)).max() == 0.0
    assert np.abs(psi.jacobian_det(Z) - 1.0).max() < 1e-12


def test_second_transform_formula_and_bound():
    r = 0.1
    a_field = lambda Z: r * r * np.sum(np.atleast_2d(Z) ** 2, axis=1)
    psi = gt.PsiMap(a_field)
    z = np.array([[2.0, 0.0]])
    val = psi.psi(z)
    assert val[0, 0] == pytest.approx(2.0 * np.log(1.04) / 4.0, rel=1e-12)
    assert abs(val[0, 0]) <= 5.0 * r * r * 2.0  # |psi| <= C r^2 |z|


def test_second_transform_defining_identity():
    r = 0.07
    a_field = lambda Z: r * r * (1.0 + np.sum(np.atleast_2d(Z) ** 2, axis=1))
    psi = gt.PsiMap(a_field)
    rng = np.random.default_rng(23)
    Z = rng.uniform(-3, 3, size=(40, 2))
    Z = Z[np.linalg.norm(Z, axis=1) > 1.0]
    resid = np.abs(np.sum(Z * psi.psi(Z), axis=1) - np.log1p(a_field(Z)))
    assert resid.max() < 1e-14


def test_second_transform_derivative_bound_and_invertibility():
    """|D psi| = O(r^2) on the annulus and the map z + psi stays orientation
    preserving (positive Jacobian) there."""
    for r in (0.05, 0.1):
        a_field = lambda Z: r * r * (1.0 + np.sum(np.atleast_2d(Z) ** 2, axis=1))
        psi = gt.PsiMap(a_field)
        rng = np.random.default_rng(29)
        Z = rng.uniform(-4, 4, size=(60, 2))
        Z = Z[(np.linalg.norm(Z, axis=1) > 1.0) & (np.linalg.norm(Z, axis=1) < 4.0)]
        h = 1e-4
        for d in range(2):
            e = np.zeros(2)
            e[d] = h
            dpsi = (psi.psi(Z + e) - psi.psi(Z - e)) / (2.0 * h)
            assert np.abs(dpsi).max() <= 20.0 * r ** 2
        assert psi.jacobian_det(Z).min() > 0.0


def test_second_transform_log_domain_guard():
    psi = gt.PsiMap(lambda Z: np.full(np.atleast_2d(Z).shape[0], -1.5))
    with pytest.raises(DomainError):
        psi.psi(np.array([[2.0, 0.0]]))


def test_pushforward_euclid(euclid2):
    rec = gt.pushforward_deviation(euclid2, 0.1, "parametrix0", -0.5)
    assert rec["sup_deviation"] <= 1e-10
    assert rec["mass"] == pytest.approx(1.0, abs=1e-6)


def test_pushforward_slice_validation(euclid2):
    with pytest.raises(ValueError):
        gt.pushforward_deviation(euclid2, 0.1, "parametrix0", -0.7)


def test_pushforward_sphere_ladder(sphere2):
    lad = gt.pushforward_ladder(sphere2, [0.2, 0.1, 0.05], "parametrix0", -0.5)
    assert lad["sup_slope"] >= 1.8
    assert lad["mass_defect_slope"] >= 1.8
    sups = [rec["sup_deviation"] for rec in lad["records"]]
    assert np.all(np.diff(sups) < 0)  # deviation shrinks with r
    for rec in lad["records"]:
        assert rec["mass_defect"] <= lad["fitted_mass_constant"] * rec["r"] ** 2 + 1e-12


def test_pushforward_sphere_pinned():
    """Pinned against the numerical ray map (inverse, FD Jacobian) that the
    closed form y = x replaced; the two agree to 3.1e-12."""
    lad = gt.pushforward_ladder(geo.constant_curvature_chart(2, 1.0, 1.0),
                                [0.2, 0.1], "parametrix0", -0.5)
    sups = [rec["sup_deviation"] for rec in lad["records"]]
    masses = [rec["mass"] for rec in lad["records"]]
    assert sups == pytest.approx([0.011685636537855704, 0.0029246238004859704],
                                 abs=1e-11)
    assert masses == pytest.approx([0.9933439213159192, 0.9983343230641718],
                                   abs=1e-11)


@pytest.mark.parametrize("kind", ["gauss", "parametrix0"])
def test_pushforward_reads_the_chart_once_per_density(sphere2, monkeypatch, kind):
    """The pushforward reads the scenario's own chart at r y: one metric
    evaluation per density evaluation (one Gauss kernel call each) and no
    kernel_values call, with the record unchanged."""
    from monolab import kernels

    want = gt.pushforward_deviation(sphere2, 0.1, kind, -0.5)
    calls = {"metric": 0, "gauss": 0, "kernel_values": 0}

    def counted(name, fn_):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn_(*args, **kwargs)
        return wrapper

    real_metric = geo.inverse_metric_and_density

    def metric(chart, X):
        assert chart is sphere2
        return counted("metric", real_metric)(chart, X)

    monkeypatch.setattr(geo, "inverse_metric_and_density", metric)
    monkeypatch.setattr(kernels, "gauss_values", counted("gauss", kernels.gauss_values))
    monkeypatch.setattr(kernels, "kernel_values",
                        counted("kernel_values", kernels.kernel_values))
    assert gt.pushforward_deviation(sphere2, 0.1, kind, -0.5) == want
    assert calls["kernel_values"] == 0
    assert calls["metric"] == calls["gauss"] > 0


def test_pushforward_both_slices(sphere2):
    # variance-2 calibration at s = -1 must keep the deviation O(r^2) too
    for s in (-0.5, -1.0):
        rec = gt.pushforward_deviation(sphere2, 0.05, "parametrix0", s)
        assert rec["sup_deviation"] <= 0.1 * 0.05 ** 2 * 400


def test_manifold_bkp_euclid_small_r(euclid2, lean_quad2):
    inp = build_input(euclid2, "TwoPlaneCaloric", {}, cfg=lean_quad2)
    rec = gt.manifold_bkp_deficit(inp, 1.0 / 32.0)
    assert abs(rec["deficit"]) <= 1e-3


@pytest.mark.parametrize("chart_name, kind", [("euclid2", "gauss"),
                                              ("sphere2", "parametrix0")])
@pytest.mark.parametrize("r, rel", [(1.0 / 16.0, 0.0), (0.1, 1e-12)])
def test_manifold_bkp_quotients_read_the_parent_table(request, lean_quad2,
                                                      chart_name, kind, r, rel):
    """lambda = r^2 B(r) / m(-r^2) on the scenario's input against B~(1) /
    m~(-1) on the rescaled input: bit for bit at r = 1/16, where the
    rescaling is exact, and within 1e-12 relative at r = 0.1."""
    chart = request.getfixturevalue(chart_name)
    inp = build_input(chart, "DriftTwoPlane", {"c": 0.5}, kind=kind,
                      cfg=lean_quad2)
    rin = rescaled_input(inp, r)
    rec = gt.manifold_bkp_deficit(inp, r)
    for name, b, m in zip(("plus", "minus"), fn.boundary_energy(rin, 1.0),
                          fn.slice_mass(rin, -1.0)):
        assert rec[f"lambda_{name}"] == pytest.approx(b / m, rel=rel, abs=0.0)


def test_manifold_bkp_degenerate_phase(euclid2, lean_quad2):
    from monolab.solutions import make_family

    # a caloric plane against a zero phase
    pair = make_family("TwoPlaneCaloric", {"beta": 0.0}, chart=euclid2)

    inp = fn.MonotonicityInput(chart=euclid2, pair=pair, kernel_kind="gauss",
                               quad=lean_quad2)
    with pytest.raises(DegenerateInputError):
        gt.manifold_bkp_deficit(inp, 1.0 / 16.0)


def test_manifold_bkp_perturbed_bounded_by_r2(perturbed2, lean_quad2):
    inp = build_input(perturbed2, "TwoPlaneCaloric", {}, kind="parametrix0",
                      cfg=lean_quad2)
    lad = gt.bkp_deficit_ladder(inp, [0.05, 0.025])
    c_fit = lad["fitted_lower_bound_constant"]
    assert np.isfinite(c_fit)
    for rec in lad["records"]:
        assert rec["negative_part"] <= max(c_fit * rec["r"] ** 2, 1e-10) + 1e-12
        assert abs(rec["deficit"]) <= 5.0 * rec["r"] ** 2


def test_manifold_bkp_sphere_ladder_lower_bound(sphere2, lean_quad2):
    inp = build_input(sphere2, "TwoPlaneCaloric", {}, kind="parametrix0",
                      cfg=lean_quad2)
    lad = gt.bkp_deficit_ladder(inp, [0.1, 0.05, 0.025])
    # the lower bound holds with margin: no meaningful negative part
    assert lad["all_nonnegative"] or lad["negative_part_slope"] >= 1.8
    # the deviation from the unit bound decays like r^2 once the cutoff
    # contribution is subdominant
    assert lad["deviation_slope"] >= 1.8
