import numpy as np
import pytest

from monolab import geometry as geo

from conftest import rescaled_chart

SPHERE_DENS_03 = 0.98506735553779858  # sin(0.3)/0.3, Jacobi-field closed form


def _density(chart, x):
    return float(geo.inverse_metric_and_density(chart, np.asarray(x)[None])[1][0])


def _dg(chart, X):
    """dg[m, k, i, j] = d_k g_ij of g = I + phi (u I - z z^T), z = x,
    assembled from the 4-index product rule: the reference for the
    closed-form drift and the Christoffels below."""
    Z = np.atleast_2d(np.asarray(X, dtype=float))
    eye = np.eye(chart.dim)
    u = np.sum(Z * Z, axis=1)
    phi, dphi = geo._phi_field(chart, Z, u, 1)
    T = u[:, None, None] * eye - Z[:, :, None] * Z[:, None, :]
    # dT[k,i,j] = 2 z_k d_ij - d_ik z_j - z_i d_jk
    dT = (2.0 * Z[:, :, None, None] * eye[None, None, :, :]
          - eye[None, :, :, None] * Z[:, None, None, :]
          - Z[:, None, :, None] * eye[None, :, None, :])
    dg = dphi[:, :, None, None] * T[:, None, :, :] + phi[:, None, None, None] * dT
    return dg


def _einsum_drift(chart, X):
    """b^j = g^{ij} d_i log sqrt det g + d_i g^{ij} from a numerical inverse
    and dg: the general-metric route the closed form replaces."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    g_inv = np.linalg.inv(geo.metric_fields(chart, X)["g"])
    dg = _dg(chart, X)
    dlog = 0.5 * np.einsum("mji,mkij->mk", g_inv, dg)   # d_k log sqrt det g
    dginv = -np.einsum("mia,mkab,mbj->mkij", g_inv, dg, g_inv)
    return np.einsum("mij,mi->mj", g_inv, dlog) + np.einsum("mkkj->mj", dginv)


def _christoffel(chart, x):
    """Gamma^k_ij = 1/2 g^{kl} (d_i g_lj + d_j g_li - d_l g_ij) from dg."""
    x = np.asarray(x)[None]
    g_inv = np.linalg.inv(geo.metric_fields(chart, x)["g"][0])
    dg = _dg(chart, x)[0]                  # dg[k, i, j] = d_k g_ij
    lower = dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg
    return 0.5 * np.einsum("kl,lij->kij", g_inv, lower)


def test_euclid_metric_identity(euclid2):
    x = np.array([[0.3, -0.2]])
    assert np.allclose(geo.metric_fields(euclid2, x)["g"][0], np.eye(2))
    assert _density(euclid2, x[0]) == pytest.approx(1.0)


def test_sphere_density_closed_form(sphere2):
    assert _density(sphere2, [0.3, 0.0]) == pytest.approx(SPHERE_DENS_03, abs=1e-12)
    # rotation invariance of the density
    x2 = 0.3 * np.array([np.cos(1.1), np.sin(1.1)])
    assert _density(sphere2, x2) == pytest.approx(SPHERE_DENS_03, abs=1e-12)


def test_center_metric_is_identity(sphere2, perturbed2):
    for chart in (sphere2, perturbed2):
        g = geo.metric_fields(chart, np.zeros((1, 2)))["g"][0]
        assert np.allclose(g, np.eye(2), atol=1e-14)


def test_metric_inverse_consistency(sphere2, perturbed2):
    rng = np.random.default_rng(3)
    for chart in (sphere2, perturbed2):
        X = rng.uniform(-0.4, 0.4, size=(5, 2))
        g = geo.metric_fields(chart, X)["g"]
        g_inv, dens = geo.inverse_metric_and_density(chart, X)
        g_inv = np.moveaxis([[g_inv.entry(i, j) for j in range(2)] for i in range(2)], -1, 0)
        assert np.abs(g @ g_inv - np.eye(2)).max() < 1e-12
        assert np.all(dens > 0)
        assert np.abs(dens - np.sqrt(np.linalg.det(g))).max() < 1e-12


def _rank_one_charts():
    """Every chart family at n = 1..3."""
    for n in (1, 2, 3):
        yield geo.euclidean_chart(n)
        yield geo.constant_curvature_chart(n, 1.0)
        yield geo.constant_curvature_chart(n, -1.0)
        for shape in ("const", "radial", "wave"):
            yield geo.perturbed_chart(n, 0.1, shape)


def _sample(chart, rng, m=40):
    """m points inside the chart ball, the origin first."""
    X = rng.standard_normal((m, chart.dim))
    X *= (0.9 * chart.radius * rng.uniform(0.0, 1.0, m) / np.linalg.norm(X, axis=1))[:, None]
    X[0] = 0.0
    return X


def test_inverse_metric_matches_numerical_inverse():
    """form and entry equal the numerical inverse of g to 1e-14 relative on
    every family and dimension, the origin included."""
    rng = np.random.default_rng(7)
    for chart in _rank_one_charts():
        n = chart.dim
        X = _sample(chart, rng)
        ref = np.linalg.inv(geo.metric_fields(chart, X)["g"])
        g_inv, _ = geo.inverse_metric_and_density(chart, X)
        scale = np.abs(ref).max(axis=(1, 2))
        for i in range(n):
            for j in range(n):
                assert np.all(np.abs(g_inv.entry(i, j) - ref[:, i, j]) <= 1e-14 * scale)
        V = rng.standard_normal(X.shape)
        form_ref = np.einsum("mi,mij,mj->m", V, ref, V)
        assert np.all(np.abs(g_inv.form(V) - form_ref) <= 1e-14 * form_ref), chart
        # leading axes broadcast: vectors (2, m, n) against the points (m, n),
        # and points (1, m, n) against vectors (m, n)
        W = np.stack([V, rng.standard_normal(X.shape)])
        assert np.array_equal(g_inv.form(W), np.stack([g_inv.form(w) for w in W]))
        g_row, _ = geo.inverse_metric_and_density(chart, X[None])
        assert np.array_equal(g_row.form(V), g_inv.form(V)[None])
        assert np.array_equal(g_row.entry(0, n - 1), g_inv.entry(0, n - 1)[None])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_euclidean_form_is_bitwise_the_identity_contraction(n):
    """On the flat chart form(v) is v^T I v bit for bit, as the dense
    identity inverse metric gave it: flat-chart energies do not move."""
    rng = np.random.default_rng(n)
    chart = geo.euclidean_chart(n)
    X = _sample(chart, rng, m=500)
    V = 10.0 * rng.standard_normal(X.shape)
    g_inv, dens = geo.inverse_metric_and_density(chart, X)
    eye = np.broadcast_to(np.eye(n), (len(X), n, n))
    assert np.array_equal(g_inv.form(V), np.einsum("mi,mij,mj->m", V, eye, V))
    assert all(np.array_equal(g_inv.entry(i, j), eye[:, i, j])
               for i in range(n) for j in range(n))
    assert np.array_equal(dens, np.ones(len(X)))


def _zhat_radial_reference(chart, X):
    """d/drho log sqrt(det g) by the unit-vector and einsum route the closed
    form replaced."""
    u = np.sum(X * X, axis=1)
    phi, dphi = geo._phi_field(chart, X, u, 1)
    rho = np.sqrt(np.sum(X * X, axis=1))
    lam = 1.0 + phi * u
    with np.errstate(invalid="ignore", divide="ignore"):
        zhat = np.where(rho[:, None] > 0, X / np.where(rho[:, None] > 0, rho[:, None], 1.0), 0.0)
    dphi_r = np.einsum("mk,mk->m", dphi, zhat)
    du_r = 2.0 * np.einsum("mk,mk->m", X, zhat)
    return (chart.dim - 1) / 2.0 * (dphi_r * u + phi * du_r) / lam


def test_radial_log_density_derivative_closed_form():
    """The closed form equals the unit-vector reference to 1e-14 and a
    central difference of log dens along the ray to 1e-8; 0 at the origin."""
    rng = np.random.default_rng(11)
    step = 1e-5
    for chart in _rank_one_charts():
        X = _sample(chart, rng)
        dlog = geo.radial_log_density_derivative(chart, X)
        assert np.abs(dlog - _zhat_radial_reference(chart, X)).max() <= 1e-14, chart
        assert dlog[0] == 0.0
        ray = X[1:] / np.linalg.norm(X[1:], axis=1)[:, None]
        h = step * chart.radius
        diff = (np.log(geo.inverse_metric_and_density(chart, X[1:] + h * ray)[1])
                - np.log(geo.inverse_metric_and_density(chart, X[1:] - h * ray)[1])) / (2 * h)
        assert np.abs(dlog[1:] - diff).max() <= 1e-8, chart


def test_distance_on_sphere_via_geodesic_shooting(sphere2):
    """Radial lines must be unit-speed geodesics: integrate the geodesic ODE
    from the origin and check it tracks the straight ray."""
    v = np.array([np.cos(0.4), np.sin(0.4)])
    x = np.zeros(2)
    xdot = v.copy()
    n_steps = 200
    ds = 0.2 / n_steps
    for _ in range(n_steps):
        def acc(pos, vel):
            gamma = _christoffel(sphere2, pos)
            return -np.einsum("kij,i,j->k", gamma, vel, vel)

        k1x, k1v = xdot, acc(x, xdot)
        k2x, k2v = xdot + 0.5 * ds * k1v, acc(x + 0.5 * ds * k1x, xdot + 0.5 * ds * k1v)
        k3x, k3v = xdot + 0.5 * ds * k2v, acc(x + 0.5 * ds * k2x, xdot + 0.5 * ds * k2v)
        k4x, k4v = xdot + ds * k3v, acc(x + ds * k3x, xdot + ds * k3v)
        x = x + ds / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
        xdot = xdot + ds / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
    assert np.linalg.norm(x - 0.2 * v) < 1e-8
    assert np.linalg.norm(x) == pytest.approx(0.2, abs=1e-8)


def test_christoffel_against_symbolic_oracle(perturbed2):
    """The analytic metric derivative dg[k, i, j] = d_k g_ij, against sympy."""
    sympy = pytest.importorskip("sympy")
    x1, x2 = sympy.symbols("x1 x2")
    eps = perturbed2.epsilon
    a1, a2 = 1.0, 0.7  # the wave shape direction in two dimensions
    q = sympy.cos(a1 * x1 + a2 * x2)
    u = x1 ** 2 + x2 ** 2
    xs = [x1, x2]
    g = sympy.Matrix(2, 2, lambda i, j: (sympy.KroneckerDelta(i, j)
                                         + eps * q * (u * sympy.KroneckerDelta(i, j)
                                                      - xs[i] * xs[j])))
    pt = {x1: 0.25, x2: -0.15}
    dg_sym = np.zeros((2, 2, 2))
    for k in range(2):
        for i in range(2):
            for j in range(2):
                dg_sym[k, i, j] = float(sympy.diff(g[i, j], xs[k]).subs(pt))
    dg = _dg(perturbed2, np.array([[0.25, -0.15]]))[0]
    assert np.abs(dg - dg_sym).max() < 1e-12


def test_closed_form_drift_matches_einsum_reference():
    """The closed-form drift equals the numerical-inverse einsum drift on every
    built-in family, n = 1..3, at the origin included."""
    rng = np.random.default_rng(5)
    for chart in _rank_one_charts():
        n = chart.dim
        X = np.vstack([np.zeros(n), rng.uniform(-0.55, 0.55, (200, n))])
        b = geo.divergence_drift(chart, X)
        assert b.shape == X.shape
        assert np.abs(b - _einsum_drift(chart, X)).max() < 1e-14, chart
        assert np.all(b[0] == 0.0)


def test_drift_against_symbolic_oracle(perturbed2):
    """b^j = (1/sqrt det g) d_i(sqrt det g g^{ij}) on the perturbed wave chart."""
    sympy = pytest.importorskip("sympy")
    x1, x2 = sympy.symbols("x1 x2")
    xs = [x1, x2]
    eps = perturbed2.epsilon
    q = sympy.cos(1.0 * x1 + 0.7 * x2)   # the wave shape direction in two dimensions
    u = x1 ** 2 + x2 ** 2
    g = sympy.Matrix(2, 2, lambda i, j: (sympy.KroneckerDelta(i, j)
                                         + eps * q * (u * sympy.KroneckerDelta(i, j)
                                                      - xs[i] * xs[j])))
    g_inv = g.inv()
    root = sympy.sqrt(g.det())
    pt = {x1: 0.25, x2: -0.15}
    b_sym = [float((sum(sympy.diff(root * g_inv[i, j], xs[i]) for i in range(2))
                    / root).subs(pt)) for j in range(2)]
    b = geo.divergence_drift(perturbed2, np.array([[0.25, -0.15]]))[0]
    assert np.abs(b - b_sym).max() < 1e-12


def test_chi1_against_high_precision_closed_form():
    """chi1 and chi1' within 1e-14 relative of ((sin sqrt(w)/sqrt(w))^2 - 1)/w
    at 50 digits (sinh for w < 0), on both sides of the series' edge and over
    the whole range."""
    mpmath = pytest.importorskip("mpmath")
    edge = geo._CHI1_SERIES
    w = np.concatenate([np.linspace(-40.0, 40.0, 81), [0.0, 1e-8, -1e-8],
                        [edge, -edge, np.nextafter(edge, 0.0), -np.nextafter(edge, 0.0)]])

    def exact(v):
        with mpmath.workdps(50):
            def chi1(u):
                x = mpmath.sqrt(abs(u))
                s = mpmath.sin(x) / x if u > 0 else mpmath.sinh(x) / x
                return (s * s - 1) / u

            if v == 0:
                return -1.0 / 3.0, 2.0 / 45.0
            v = mpmath.mpf(v)
            return float(chi1(v)), float(mpmath.diff(chi1, v))

    want = np.array([exact(v) for v in w]).T
    got = geo._chi1(w, 1)
    for g, e in zip(got, want):
        assert np.max(np.abs(g - e) / np.abs(e)) < 1e-14


def test_chi1_value_does_not_depend_on_order():
    w = np.linspace(-40.0, 40.0, 8001)
    v0, d0 = geo._chi1(w, 0)
    assert d0 is None
    assert np.array_equal(v0, geo._chi1(w, 1)[0])


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("family", ["euclidean", "K=1", "K=-1"])
def test_closed_form_rescaled_chart_is_the_chart_at_r_y(n, family):
    """The tests' closed-form rescaled chart (flat stays flat, K becomes
    K r^2 on radius / r) reads bit for bit what the chart itself reads at r y
    for r = 1/16: the reference the rescaling-identity tests build on."""
    chart = (geo.euclidean_chart(n) if family == "euclidean"
             else geo.constant_curvature_chart(n, float(family[2:])))
    r = 1.0 / 16.0
    resc = rescaled_chart(chart, r)
    assert resc.radius == chart.radius / r
    rng = np.random.default_rng(n)
    Y = _sample(resc, rng)
    g_resc, dens_resc = geo.inverse_metric_and_density(resc, Y)
    g_base, dens_base = geo.inverse_metric_and_density(chart, r * Y)
    assert np.array_equal(dens_resc, dens_base)
    assert np.array_equal(g_resc.lam, g_base.lam)
    V = rng.standard_normal(Y.shape)
    assert np.array_equal(g_resc.form(V), g_base.form(V))
    assert all(np.array_equal(g_resc.entry(i, j), g_base.entry(i, j))
               for i in range(n) for j in range(n))


def test_rescale_flattens_metric(sphere2, euclid2):
    # |g(ry) - I| ~ K r^2 |y|^2 / 3 tangentially
    r = 0.1
    y = np.array([[1.0, 0.0]])
    dev = np.abs(geo.metric_fields(sphere2, r * y)["g"][0] - np.eye(2)).max()
    expected = r ** 2 / 3.0
    assert 0.5 * expected < dev < 2.0 * expected
    assert np.abs(geo.metric_fields(euclid2, 0.37 * y)["g"][0] - np.eye(2)).max() == 0.0


def test_quadratic_flatness_fit():
    # ||g(x) - I|| <= Lambda_fit |x|^2 with a finite fit on each family
    rng = np.random.default_rng(11)
    X = rng.uniform(-0.35, 0.35, size=(40, 2))
    X = X[np.linalg.norm(X, axis=1) > 1e-3]
    for chart in (geo.constant_curvature_chart(2, 1.0, radius=1.0),
                  geo.constant_curvature_chart(2, -0.5, radius=1.0),
                  geo.perturbed_chart(2, 0.05)):
        g = geo.metric_fields(chart, X)["g"]
        dev = np.abs(g - np.eye(2)).max(axis=(1, 2))
        fit = np.max(dev / np.sum(X * X, axis=1))
        assert np.isfinite(fit) and fit < 5.0
        vals = np.linalg.eigvalsh(g)
        assert vals.min() > 0.0


def test_factory_validation():
    with pytest.raises(ValueError):
        geo.euclidean_chart(2, radius=1.5)
    with pytest.raises(ValueError):
        geo.perturbed_chart(2, eps=0.5)
    with pytest.raises(ValueError):
        geo.constant_curvature_chart(2, K=12.0, radius=1.0)
    with pytest.raises(ValueError):
        geo.perturbed_chart(2, eps=0.05, shape="zigzag")


def test_curvature_range_holds_on_the_grid_cube():
    """|K| n radius^2 <= 40 keeps the curvature series valid at the corners
    of the cube [-radius, radius]^n that grids sample."""
    chart = geo.constant_curvature_chart(3, K=-13.0, radius=1.0)     # 39
    corner = np.ones((1, 3))
    assert np.isfinite(geo.inverse_metric_and_density(chart, corner)[1]).all()
    with pytest.raises(ValueError):
        geo.constant_curvature_chart(3, K=-14.0, radius=1.0)        # 42
