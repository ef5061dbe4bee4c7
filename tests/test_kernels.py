import numpy as np
import pytest

from monolab import geometry as geo
from monolab import kernels as ker
from monolab import quadrature as quad

GAUSS_N1_X2_T1 = 0.10377687435514868   # (4 pi)^{-1/2} e^{-1}, high-precision
SPHERE_PHI0_03 = 1.0075509955070447    # (sin 0.3 / 0.3)^{-1/2}


def gauss_at(chart, x, t):
    return float(ker.kernel_values(ker.KernelSpec("gauss", chart), x, t)[0])


def test_normalization_at_center(euclid2):
    t = 1.0 / (4.0 * np.pi)
    assert gauss_at(euclid2, np.zeros(2), t) == pytest.approx(1.0, abs=1e-14)


def test_frozen_value_n1():
    # |x| = 2 sits outside the unit chart; the Gauss kernel reads no metric
    assert gauss_at(geo.euclidean_chart(1), np.array([2.0]), 1.0) == pytest.approx(GAUSS_N1_X2_T1, abs=1e-6)


def test_kernel_mass_by_quadrature(euclid2):
    spec = ker.KernelSpec("gauss", euclid2)
    cfg = quad.default_config(2)
    mass = quad.slice_integral(lambda X, s, g_inv: np.ones(X.shape[:-1]), spec,
                               np.array([-0.01]), cfg)[0]
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_kernel_positive_and_radially_decreasing(euclid2):
    radii = np.linspace(0.0, 0.9, 12)
    X = np.stack([radii, np.zeros_like(radii)], axis=1)
    vals = ker.kernel_values(ker.KernelSpec("gauss", euclid2), X, 0.05)
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) < 0)


def test_kernel_rotation_invariance(euclid2):
    rng = np.random.default_rng(5)
    for _ in range(6):
        rho = rng.uniform(0.05, 0.9)
        th1, th2 = rng.uniform(0, 2 * np.pi, 2)
        a = gauss_at(euclid2, rho * np.array([np.cos(th1), np.sin(th1)]), 0.3)
        b = gauss_at(euclid2, rho * np.array([np.cos(th2), np.sin(th2)]), 0.3)
        assert a == pytest.approx(b, rel=1e-12)


def test_kernel_time_validation(euclid2):
    for kind in ker.KINDS:
        with pytest.raises(ValueError):
            ker.kernel_values(ker.KernelSpec(kind, euclid2), np.zeros(2), 0.0)


def test_phi0_values(euclid2, sphere2):
    assert ker.parametrix_phi0(sphere2, np.zeros(2)) == pytest.approx(1.0, abs=1e-14)
    assert ker.parametrix_phi0(euclid2, np.array([0.4, 0.1])) == 1.0
    assert ker.parametrix_phi0(sphere2, np.array([0.0, 0.3])) == pytest.approx(
        SPHERE_PHI0_03, abs=1e-9)


def test_phi0_quadratic_deviation(sphere2, perturbed2):
    rng = np.random.default_rng(9)
    X = rng.uniform(-0.3, 0.3, size=(30, 2))
    for chart in (sphere2, perturbed2):
        vals = np.array([ker.parametrix_phi0(chart, x) for x in X])
        ratio = np.abs(vals - 1.0) / np.maximum(np.sum(X * X, axis=1), 1e-12)
        assert np.max(ratio) < 2.0


def test_parametrix_kernel_product(euclid2, sphere2):
    x = np.array([0.3, 0.0])
    t = 0.01

    def parametrix_at(chart, x):
        return float(ker.kernel_values(ker.KernelSpec("parametrix0", chart), x, t)[0])

    assert parametrix_at(euclid2, x) == gauss_at(euclid2, x, t)
    assert parametrix_at(sphere2, x) == pytest.approx(
        gauss_at(sphere2, x, t) * SPHERE_PHI0_03, rel=1e-9)
    assert parametrix_at(sphere2, np.zeros(2)) == pytest.approx(
        gauss_at(sphere2, np.zeros(2), t), rel=1e-14)


def test_higher_parametrix_order_refused(euclid2):
    with pytest.raises(NotImplementedError):
        ker.KernelSpec("parametrix1", euclid2)
