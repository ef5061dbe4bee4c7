import io
from types import SimpleNamespace

import numpy as np
import pytest

from monolab import cli, cutoff, geometry, quadrature
from monolab import functional as fn
from monolab.solutions import TwoPhasePair, make_family


@pytest.fixture(scope="session")
def suite_runs(tmp_path_factory):
    """The shipped six-scenario suite, run twice: (root, exit codes); the
    reports are under root/run1 and root/run2."""
    root = tmp_path_factory.mktemp("suite")
    paths = cli.shipped_scenario_paths()
    code1 = cli.check_suite(paths, str(root / "run1"), stream=io.StringIO())
    code2 = cli.check_suite(paths, str(root / "run2"), stream=io.StringIO())
    return root, code1, code2


@pytest.fixture(scope="session")
def euclid2():
    return geometry.euclidean_chart(2)


@pytest.fixture(scope="session")
def sphere2():
    return geometry.constant_curvature_chart(2, 1.0, radius=1.0)


@pytest.fixture(scope="session")
def perturbed2():
    return geometry.perturbed_chart(2, 0.05)


@pytest.fixture(scope="session")
def quad2():
    return quadrature.default_config(2)


@pytest.fixture(scope="session")
def far_cutoff():
    """A cutoff profile far outside every rule a test integrates on: chi is
    exactly 1.0 on the scaled rule and no slice reaches the annulus, so a
    slice integral under it is the plain kernel-weighted integral."""
    return cutoff.CutoffProfile(inner=1e3, outer=2e3, grad_bound=1.875e-3,
                                laplace_bound=0.0)


@pytest.fixture(scope="session")
def lean_quad2():
    # light config for unit tests that only need ~0.5% accuracy
    return quadrature.default_config(2, nodes=48, slices_per_scale=16,
                                     time_blocks=12)


def build_input(chart, pair_name, pair_params=None, kind="gauss", cfg=None):
    pair = make_family(pair_name, pair_params or {}, chart=chart)
    return fn.MonotonicityInput(chart=chart, pair=pair, kernel_kind=kind,
                                quad=cfg or quadrature.default_config(chart.dim))


def rescale_pair(pair, r):
    """Parabolic rescale u(y, s) -> u(r y, r^2 s) / r^2 (preserves the -1
    bound); its sampler reads both rescaled phases with one call of the
    pair's own ``values`` or ``fields``."""
    r = float(r)

    def fields(X, s):
        values, grads = pair.fields(r * X, r * r * s)
        return values / (r * r), grads / r

    def values(X, s):
        return pair.values(r * X, r * r * s) / (r * r)

    return TwoPhasePair(SimpleNamespace(values=values, fields=fields))


def rescaled_chart(chart, r):
    """The metric g(r .) on B(0, radius / r) in closed form: a flat chart stays
    flat and curvature K becomes K r^2.  Built directly, since the factories
    cap the radius at 1.  Bitwise the chart read at r x when r is a power of
    two; no test rescales a perturbed chart."""
    radius = chart.radius / r
    if chart.family == "euclidean":
        return geometry.NormalChart(dim=chart.dim, radius=radius, family="euclidean")
    if chart.family == "const_curvature":
        return geometry.NormalChart(dim=chart.dim, radius=radius,
                                    family="const_curvature",
                                    curvature=chart.curvature * r ** 2)
    raise ValueError(f"no closed-form rescaling of a {chart.family} chart")


def rescaled_input(input_, r):
    """The parabolic rescaling at scale r as a MonotonicityInput of its own:
    rescaled chart, pair, cutoff and kernel, and an empty slice table.  The
    reference for the identities through which the rescaled checks read
    the scenario's input, A~(rho) = r^-4 A(r rho) and its kin."""
    chart_r = rescaled_chart(input_.chart, r)
    return fn.MonotonicityInput(chart=chart_r, pair=rescale_pair(input_.pair, r),
                                kernel_kind=input_.kernel_kind, quad=input_.quad)


@pytest.fixture(scope="session")
def caloric_input(euclid2, quad2):
    return build_input(euclid2, "TwoPlaneCaloric", {"alpha": 1.0, "beta": 1.0},
                       cfg=quad2)


@pytest.fixture(scope="session")
def caloric_ladder(caloric_input):
    """Shared default-quadrature ladder for acceptance criteria 1 and 2."""
    import time

    t0 = time.time()
    ladder = fn.dyadic_ladder(caloric_input, 2, 5, c0=10.0, c1=1.0)
    return ladder, time.time() - t0
