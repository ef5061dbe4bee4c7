from types import SimpleNamespace

import numpy as np
import pytest

from monolab import cutoff, geometry, kernels, quadrature
from monolab import functional as fn
from monolab.solutions import TwoPhasePair, make_family


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
def lean_quad2():
    # light config for unit tests that only need ~0.5% accuracy
    return quadrature.default_config(2, nodes=48, slices_per_scale=16,
                                     time_blocks=12)


def build_input(chart, pair_name, pair_params=None, kind="gauss", cfg=None):
    pair = make_family(pair_name, pair_params or {}, chart=chart)
    return fn.MonotonicityInput(
        chart=chart,
        pair=pair,
        profile=cutoff.build_cutoff(chart),
        kernel=kernels.KernelSpec(kind, chart),
        quad=cfg or quadrature.default_config(chart.dim),
    )


def rescale_pair(pair, r):
    """Parabolic rescale u(y, s) -> u(r y, r^2 s) / r^2 (preserves the -1
    bound); its sampler reads both rescaled phases with one call of the
    pair's own ``values`` or ``fields``."""
    r = float(r)

    def fields(X, s):
        values, grads = pair.fields(r * np.atleast_2d(X), r * r * s)
        return values / (r * r), grads / r

    def values(X, s):
        return pair.values(r * np.atleast_2d(X), r * r * s) / (r * r)

    return TwoPhasePair(SimpleNamespace(values=values, fields=fields))


def rescaled_input(input_, r):
    """The parabolic rescaling at scale r as a MonotonicityInput of its own:
    rescaled chart, pair, cutoff and kernel, and an empty slice table.  The
    reference for the identities through which the rescaled checks read
    the scenario's input, A~(rho) = r^-4 A(r rho) and its kin."""
    chart_r = geometry.rescale_chart(input_.chart, r)
    return fn.MonotonicityInput(chart=chart_r, pair=rescale_pair(input_.pair, r),
                                profile=cutoff.build_cutoff(chart_r),
                                kernel=kernels.KernelSpec(input_.kernel.kind, chart_r),
                                quad=input_.quad)


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
