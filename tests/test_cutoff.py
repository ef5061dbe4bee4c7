import numpy as np
import pytest

from monolab import cutoff as co
from monolab import geometry as geo


def cutoff_fields(profile, chart, X):
    """(chi, grad chi covector (m,n), Delta_g chi) on a batch of points."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    rho = np.sqrt(np.sum(X * X, axis=1))
    c = co.chi(profile, rho)
    d1 = co.dchi(profile, rho)
    with np.errstate(invalid="ignore", divide="ignore"):
        xhat = np.where(rho[:, None] > 0, X / np.where(rho[:, None] > 0, rho[:, None], 1.0), 0.0)
    grad = d1[:, None] * xhat
    lap = co._laplace_chi(profile, chart, X, rho)
    return c, grad, lap


def at(prof, chart, x):
    """(chi, grad chi, Delta_g chi) at one point."""
    c, grad, lap = cutoff_fields(prof, chart, np.asarray(x)[None])
    return float(c[0]), grad[0], float(lap[0])


def test_plateau_and_support(euclid2):
    prof = co.build_cutoff(euclid2)
    assert prof.inner == 0.25 and prof.outer == 0.5
    c, g, lap = at(prof, euclid2, np.array([0.1, 0.05]))
    assert c == 1.0
    assert np.abs(g).max() == 0.0 and lap == 0.0
    c, g, lap = at(prof, euclid2, np.array([0.55, 0.3]))
    assert c == 0.0 and np.abs(g).max() == 0.0 and lap == 0.0


def test_smoothstep_midpoint_and_edge():
    prof = co.build_cutoff(geo.euclidean_chart(2))
    mid = 0.5 * (prof.inner + prof.outer)
    # 1 - (10/8 - 15/16 + 6/32) = 1/2 exactly
    assert co.chi(prof, mid) == pytest.approx(0.5, abs=1e-15)
    assert co.chi(prof, prof.outer) == 0.0
    assert co.dchi(prof, prof.outer) == 0.0
    assert co.d2chi(prof, prof.outer) == 0.0


def test_c2_matching_at_joints():
    prof = co.build_cutoff(geo.euclidean_chart(2))
    w = prof.outer - prof.inner
    for joint in (prof.inner, prof.outer):
        eps = 1e-7
        # one-sided gaps bounded by each function's modulus of continuity
        for fnc, modulus in ((co.chi, 1e-12),
                             (co.dchi, 1e-10),
                             (co.d2chi, 200.0 * eps / w ** 3)):
            left = fnc(prof, joint - eps)
            right = fnc(prof, joint + eps)
            assert abs(float(left) - float(right)) <= modulus


def test_gradient_midpoint_value():
    ch1 = geo.euclidean_chart(1)
    prof = co.build_cutoff(ch1)
    mid = 0.5 * (prof.inner + prof.outer)
    _, grad, _ = at(prof, ch1, np.array([mid]))
    assert grad[0] == pytest.approx(-1.875 / (prof.outer - prof.inner), rel=1e-12)


def test_laplacian_sphere_vs_euclid_symbolic(sphere2, euclid2):
    """The curved correction is chi' * d/drho log sqrt(det g); on the unit
    curvature chart in two dimensions that is chi' (cot rho - 1/rho)."""
    prof = co.build_cutoff(euclid2)
    rng = np.random.default_rng(2)
    for _ in range(8):
        rho = rng.uniform(prof.inner + 0.01, prof.outer - 0.01)
        th = rng.uniform(0, 2 * np.pi)
        x = rho * np.array([np.cos(th), np.sin(th)])
        _, _, lap_e = at(prof, euclid2, x)
        _, _, lap_s = at(prof, sphere2, x)
        d1 = float(co.dchi(prof, rho))
        expected = d1 * (1.0 / np.tan(rho) - 1.0 / rho)
        assert lap_s - lap_e == pytest.approx(expected, abs=1e-6)


def test_recorded_bounds_hold(euclid2, perturbed2):
    rng = np.random.default_rng(4)
    for chart in (euclid2, perturbed2):
        prof = co.build_cutoff(chart)
        dirs = rng.standard_normal((300, 2))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = rng.uniform(0.0, chart.radius * 0.99, 300)
        X = dirs * radii[:, None]
        c, g, lap = cutoff_fields(prof, chart, X)
        assert np.all((0.0 <= c) & (c <= 1.0))
        assert np.max(np.linalg.norm(g, axis=1)) <= prof.grad_bound * (1 + 1e-12)
        assert np.max(np.abs(lap)) <= prof.laplace_bound * 1.05


def test_gradient_vanishes_on_plateau(euclid2):
    prof = co.build_cutoff(euclid2)
    rng = np.random.default_rng(6)
    X = rng.uniform(-0.17, 0.17, size=(50, 2))  # inside B(0, 1/4)
    _, g, _ = cutoff_fields(prof, euclid2, X)
    assert np.abs(g).max() == 0.0
