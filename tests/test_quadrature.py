import numpy as np
import pytest

from monolab import cutoff
from monolab import functional as fn
from monolab import geometry as geo
from monolab import kernels as ker
from monolab import quadrature as quad
from monolab.errors import ConfigError
from monolab.solutions import SpaceTimeGrid, make_family


@pytest.fixture(scope="module")
def gauss2(euclid2):
    return ker.KernelSpec("gauss", euclid2)


def ones(X, *_):
    return np.ones(np.atleast_2d(X).shape[0])


def rows(f):
    """The integrand of rows of points X (p, m, n) and times S (k,), one row
    (1, k, m), that evaluates f(points (N, n), one time per point (N,)) ->
    (N,)."""
    def integrand(X, S, g_inv):
        k, m, n = len(S), X.shape[-2], X.shape[-1]
        points = np.broadcast_to(X, (k, m, n)).reshape(-1, n)
        return f(points, np.repeat(S, m)).reshape(1, k, m)

    return integrand


def one_slice(f, kernel, s, cfg, cutoff):
    """The slice integral of f(X) at the single time s."""
    return quad.slice_integral(rows(lambda X, S: f(X)), kernel, np.array([s]),
                               cfg, cutoff)[0, 0]


def slices(f, kernel, cfg, cutoff):
    """slice_at(s) for the time rules: the slice integrals of f(., s), one
    row (1, len(s))."""
    return lambda s: quad.slice_integral(rows(f), kernel, s, cfg, cutoff)


def test_slice_mass(gauss2, quad2, far_cutoff):
    for s in (-0.9, -0.3, -0.01):
        assert one_slice(ones, gauss2, s, quad2, far_cutoff) == pytest.approx(
            1.0, abs=1e-6)


def test_slice_second_moment(far_cutoff):
    ch = geo.euclidean_chart(1)
    spec = ker.KernelSpec("gauss", ch)
    cfg = quad.default_config(1)
    for t in (0.05, 0.3, 0.8):
        val = one_slice(lambda X: X[:, 0] ** 2, spec, -t, cfg, far_cutoff)
        assert val == pytest.approx(2.0 * t, rel=1e-5)


def test_slice_half_space(gauss2, quad2, far_cutoff):
    for s in (-0.5, -0.07):
        val = one_slice(lambda X: (X[:, 0] > 0).astype(float), gauss2, s, quad2,
                        far_cutoff)
        assert val == pytest.approx(0.5, abs=1e-6)


def test_slice_time_validation(gauss2, quad2, far_cutoff):
    with pytest.raises(ValueError):
        one_slice(ones, gauss2, 0.0, quad2, far_cutoff)


def test_spacetime_mass_and_zero(gauss2, quad2, far_cutoff):
    r = 0.5
    mass = quad.spacetime_integral(
        slices(lambda X, s: ones(X), gauss2, quad2, far_cutoff), r, quad2)
    assert mass.shape == (1,)
    assert mass[0] == pytest.approx(r * r, abs=1e-5)
    assert quad.spacetime_integral(
        slices(lambda X, s: np.zeros(X.shape[0]), gauss2, quad2, far_cutoff), r,
        quad2).tolist() == [0.0]


def test_spacetime_half_space(gauss2, quad2, far_cutoff):
    r = 0.5
    val = quad.spacetime_integral(
        slices(lambda X, s: (X[:, 0] > 0).astype(float), gauss2, quad2, far_cutoff),
        r, quad2)[0]
    assert val == pytest.approx(r * r / 2.0, rel=5e-3)


def test_spacetime_range_validation(caloric_input):
    # the scale range is enforced where the chart is known, in phase_energy
    with pytest.raises(ValueError):
        fn.phase_energy(caloric_input, 1.5)


def test_linearity_exact(gauss2, quad2, far_cutoff):
    f1 = lambda X: np.cos(X[:, 0])
    f2 = lambda X: X[:, 1] ** 2
    a, b = 2.3, -1.7
    lhs = one_slice(lambda X: a * f1(X) + b * f2(X), gauss2, -0.15, quad2, far_cutoff)
    rhs = (a * one_slice(f1, gauss2, -0.15, quad2, far_cutoff)
           + b * one_slice(f2, gauss2, -0.15, quad2, far_cutoff))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_monotonicity_nonnegative(gauss2, quad2, far_cutoff):
    rng = np.random.default_rng(8)
    centers = rng.uniform(-0.5, 0.5, size=(5, 2))
    for c in centers:
        f = lambda X: np.maximum(0.0, 0.2 - np.sum((X - c) ** 2, axis=1))
        assert one_slice(f, gauss2, -0.2, quad2, far_cutoff) >= 0.0


def test_determinism_bitwise(gauss2, far_cutoff):
    cfg_a = quad.default_config(2)
    cfg_b = quad.default_config(2)
    f = lambda X, s: np.exp(-np.abs(X[:, 0])) * (1.0 + s) ** 2
    v1 = quad.spacetime_integral(slices(f, gauss2, cfg_a, far_cutoff), 0.25, cfg_a)
    v2 = quad.spacetime_integral(slices(f, gauss2, cfg_b, far_cutoff), 0.25, cfg_b)
    assert v1.tolist() == v2.tolist()


def test_gauss_weighted_moments():
    cfg = quad.default_config(1)
    m1 = quad.gauss_weighted_integral(lambda X: X[:, 0] ** 2, 1, 1.0, cfg)
    m2 = quad.gauss_weighted_integral(lambda X: X[:, 0] ** 2, 1, 2.0, cfg)
    mass = quad.gauss_weighted_integral(lambda X: np.ones(X.shape[0]), 1, 1.0, cfg)
    assert m1 == pytest.approx(1.0, rel=1e-5)
    assert m2 == pytest.approx(2.0, rel=1e-5)
    # default r_tail 8 leaves a ~1.5e-8 variance-1 tail
    assert mass == pytest.approx(1.0, abs=5e-8)


def test_polar_rules_measure():
    P, w = quad.annulus_rule(2, 0.25, 0.5, 24, 32)
    assert np.sum(w) == pytest.approx(np.pi * (0.5 ** 2 - 0.25 ** 2), rel=1e-12)
    P, w = quad.annulus_rule(1, 0.25, 0.5, 24, 2)
    assert np.sum(w) == pytest.approx(2 * 0.25, rel=1e-12)
    P, w = quad.annulus_rule(3, 0.0, 0.5, 24, 16)   # the ball |x| <= 0.5
    assert np.sum(w) == pytest.approx(4.0 / 3.0 * np.pi * 0.5 ** 3, rel=1e-3)


def test_time_range_integral(gauss2, quad2, far_cutoff):
    val = quad.time_range_integral(
        slices(lambda X, s: (-s) * ones(X), gauss2, quad2, far_cutoff), -0.2, -0.1,
        quad2.slices_per_scale)[0]
    assert val == pytest.approx((0.2 ** 2 - 0.1 ** 2) / 2.0, rel=1e-5)


def test_annulus_rule_refuses_high_dimension():
    """The annulus rule has polar rules for n <= 3 only: at n = 4 a slice
    that needs it raises instead of dropping the annulus."""
    ch = geo.euclidean_chart(4)
    spec = ker.KernelSpec("gauss", ch)
    with pytest.raises(ValueError, match="n <= 3"):
        one_slice(ones, spec, -0.05, quad.default_config(4, nodes=8),
                  cutoff=cutoff.CutoffProfile(0.25, 0.5, 7.5, 0.0))


def test_config_validation():
    with pytest.raises(ValueError):
        quad.QuadratureConfig(r_tail=2.0)
    with pytest.raises(ValueError):
        quad.QuadratureConfig(nodes=4)
    for count in ("slices_per_scale", "time_blocks"):
        with pytest.raises(ValueError):
            quad.QuadratureConfig(**{count: 0})


def test_time_mesh_limits():
    """The block and slice-time limits admit every shipped mesh, the default
    one included, and are checked from the counts; no mesh is built here."""
    assert quad.default_config(2).time_blocks == 16
    assert quad.default_config(2, time_blocks=64).time_blocks == 64
    with pytest.raises(ConfigError) as err:
        quad.default_config(2, time_blocks=65)
    assert err.value.key == "quad.time_blocks"
    # (64 + 1) (251 + 1) + 1 = 16381 slice times; 252 slices make 16446
    assert quad.default_config(2, time_blocks=64, slices_per_scale=251)
    with pytest.raises(ConfigError) as err:
        quad.default_config(2, time_blocks=64, slices_per_scale=252)
    assert err.value.key == "quad.slices_per_scale"


def test_points_per_slice_budget():
    """The budget is checked from the node count; no rule is built here."""
    assert quad.default_config(2, nodes=512).nodes == 512       # 2^18 points
    assert quad.default_config(3).nodes == 24
    with pytest.raises(ValueError):
        quad.default_config(2, nodes=513)                       # 514^2 points
    with pytest.raises(ValueError):
        quad.default_config(3, nodes=66)


# ---------------------------------------------------------------------------
# block evaluation

# With the cutoff annulus (0.25, 0.5), slices with a^2/4t < 200 (t > 7.8e-5) have the
# annulus rule; the last three do not.
BLOCK_TIMES = -np.array([0.2, 0.05, 0.01, 1e-3, 2e-4, 5e-5, 1e-5, 2e-6])


def _per_slice_reference(f, kernel, s, cfg, profile):
    """One slice time s per call, with its own metric and kernel evaluations
    on both rules: the per-slice rule a block call must match bit for bit."""
    chart = kernel.chart
    n = chart.dim
    t = -s
    c = np.sqrt(t)
    Y, w = quad._scaled_rule(n, cfg.nodes, cfg.r_tail)
    X = (c * Y)[None]
    g_inv, dens = geo.inverse_metric_and_density(chart, X)
    vals = f(X, np.array([s]), g_inv)[0]
    vals = vals * (dens[0] ** 0.5 if kernel.kind == "parametrix0" else dens[0])
    vals = vals * cutoff.chi(profile, c * np.sqrt(np.sum(Y * Y, axis=1)))
    total = float(np.dot(w, vals))
    a, b = profile.inner, profile.outer
    if a * a / (4.0 * t) < 200.0:
        P, w_ann = quad.annulus_rule(n, float(a), float(b), quad._ANNULUS_RADIAL,
                                     quad._ANNULUS_ANGULAR)
        kv = ker.kernel_values(kernel, P, t)
        g_ann, dens_ann = geo.inverse_metric_and_density(chart, P[None])
        rho = np.sqrt(np.sum(P * P, axis=1))
        vals_ann = (f(P[None], np.array([s]), g_ann)[0] * kv * dens_ann[0]
                    * (1.0 - cutoff.chi(profile, rho)))
        total += float(np.dot(w_ann, vals_ann))
    return total


@pytest.mark.parametrize("family", ["DriftTwoPlane", "NumericPair", "PowerWedge"])
@pytest.mark.parametrize("curvature, kind", [(0.0, "gauss"), (1.0, "parametrix0")])
@pytest.mark.parametrize("nodes", [16, 48])   # 16 or 1 main, 5 annulus slices per call
def test_block_equals_per_slice_calls(family, curvature, kind, nodes):
    chart = (geo.euclidean_chart(2) if curvature == 0.0
             else geo.constant_curvature_chart(2, curvature, radius=1.0))
    grid = SpaceTimeGrid.geometric(2, 1.0, 0.1, ratio=0.8, dt0=0.25)
    pair = make_family(family, {"seed": 5, "overlap": True}
                       if family == "NumericPair" else {"c": 0.5},
                       chart=chart, grid=grid)
    cfg = quad.default_config(2, nodes=nodes)
    inp = fn.MonotonicityInput(chart=chart, pair=pair, kernel_kind=kind, quad=cfg)
    a = inp.profile.inner
    assert [a * a / (4.0 * -s) < 200.0 for s in BLOCK_TIMES] == [True] * 5 + [False] * 3
    for integrand in ("grad_sq", "w_sq", "positive"):
        f = fn._SAMPLERS[integrand](inp)     # rows (plus, minus)
        block = quad.slice_integral(f, inp.kernel, BLOCK_TIMES, cfg, inp.profile)
        assert block.shape == (2, len(BLOCK_TIMES))
        single = [quad.slice_integral(f, inp.kernel, BLOCK_TIMES[k:k + 1], cfg,
                                      inp.profile)[:, 0]
                  for k in range(len(BLOCK_TIMES))]
        assert np.array_equal(block, np.array(single).T)
        for row in (0, 1):
            reference = [_per_slice_reference(
                lambda X, S, g_inv: f(X, S, g_inv)[row], inp.kernel, s, cfg,
                inp.profile) for s in BLOCK_TIMES]
            assert np.array_equal(block[row], reference)
        if integrand == "grad_sq":
            assert np.all(block[0, :5] > 0.0)


@pytest.mark.parametrize("call_points", [600, 2000])
def test_block_runs_split_at_the_call_budget(monkeypatch, call_points):
    """Runs of 2 or 7 main and 1 or 2 annulus slices: a block split into
    several integrand calls still matches one call per slice bit for bit."""
    monkeypatch.setattr(quad, "_CALL_POINTS", call_points)
    test_block_equals_per_slice_calls("DriftTwoPlane", 1.0, "parametrix0", 16)


def test_slice_times_must_be_one_dimensional(gauss2, quad2, far_cutoff):
    with pytest.raises(ValueError):
        quad.slice_integral(ones, gauss2, -0.1, quad2, far_cutoff)
    with pytest.raises(ValueError):
        quad.slice_integral(ones, gauss2, np.array([-0.1, 0.0]), quad2, far_cutoff)


# ---------------------------------------------------------------------------
# time mesh


def _time_nodes_anchored(r_sq, cfg):
    """The mesh anchored at -r^2 that every scale used before the mesh became
    absolute: dyadic scales must keep exactly these nodes."""
    blocks = []
    lo = -r_sq
    for _ in range(cfg.time_blocks):
        hi = lo * quad._TIME_RATIO
        blocks.append((lo, hi))
        lo = hi
    return blocks, lo


def _node_bytes(blocks, sliver, cfg):
    return b"".join([np.linspace(lo, hi, cfg.slices_per_scale + 1).tobytes()
                     for lo, hi in blocks] + [np.float64(sliver).tobytes()])


@pytest.mark.parametrize("r", [4.0 ** -k for k in range(5)]
                         + [2.0 ** -j for j in (1, 3, 5, 7)] + [2.0])
def test_dyadic_scales_keep_their_nodes(r, lean_quad2):
    blocks, sliver = quad._time_nodes(r * r, lean_quad2)
    old_blocks, old_sliver = _time_nodes_anchored(r * r, lean_quad2)
    assert len(blocks) == lean_quad2.time_blocks
    assert (_node_bytes(blocks, sliver, lean_quad2)
            == _node_bytes(old_blocks, old_sliver, lean_quad2))


@pytest.mark.parametrize("r_sq, top", [(0.87890625, 0.5), (1.12890625, 1.0),
                                       (0.09, 0.0625), (5.0, 4.0)])
def test_partial_block_above_the_absolute_mesh(r_sq, top, lean_quad2):
    """r^2 between powers of the ratio: one partial block (-r^2, -top), then
    the full blocks of the absolute mesh from -top; the blocks tile
    (-r^2, sliver) without gaps."""
    blocks, sliver = quad._time_nodes(r_sq, lean_quad2)
    assert blocks[0] == (-r_sq, -top)
    full, _ = _time_nodes_anchored(top, lean_quad2)
    assert blocks[1:] == full
    assert all(hi == lo for (_, hi), (lo, _) in zip(blocks, blocks[1:]))
    assert sliver == blocks[-1][1]


@pytest.mark.parametrize("r_sq", [0.0, -0.25, np.inf, np.nan])
def test_time_nodes_reject_a_degenerate_scale(r_sq, lean_quad2):
    """r^2 <= 0 (0 is an underflowed square) or inf would halve or double
    forever; nan is no scale."""
    with pytest.raises(ValueError):
        quad._time_nodes(r_sq, lean_quad2)


def _per_block_spacetime(slice_at, r, cfg):
    """One linspace and one trapezoid per block, summed in order: the loop
    the single (blocks, cells + 1) mesh must match bit for bit, for a
    slice_at of one row."""
    blocks, sliver = quad._time_nodes(r * r, cfg)
    size = cfg.slices_per_scale + 1
    nodes = [np.linspace(lo, hi, size) for lo, hi in blocks]
    values = slice_at(np.concatenate(nodes + [np.array([sliver])]))[0]
    total = 0.0
    for i, s_nodes in enumerate(nodes):
        total += float(np.trapezoid(values[i * size:(i + 1) * size], s_nodes))
    return total + (-sliver) * float(values[-1])


@pytest.mark.parametrize("r", [1.0, 0.5, 0.25, 1 / 16, 1 + 1 / 16, 1 - 1 / 16, 0.3,
                               0.937, 2.0])
def test_time_mesh_in_one_array_matches_per_block_loop(r, quad2, lean_quad2):
    """The nodes handed to slice_at and the total equal the per-block loop
    bit for bit, on the shipped and the lean time rule."""
    for cfg in (quad2, lean_quad2):
        requests = []

        def slice_at(s):
            requests.append(s.tobytes())
            return (np.exp(s) * np.cos(40.0 * s) + np.sqrt(-s))[None]

        total = quad.spacetime_integral(slice_at, r, cfg)
        reference = _per_block_spacetime(slice_at, r, cfg)
        assert requests[0] == requests[1]
        assert total.tolist() == [reference]


@pytest.mark.parametrize("r", [0.5, 0.3])
def test_spacetime_integral_asks_for_every_slice_at_once(gauss2, lean_quad2, r,
                                                         far_cutoff):
    requests = []
    f = slices(lambda X, s: ones(X), gauss2, lean_quad2, far_cutoff)

    def slice_at(s):
        requests.append(len(s))
        return f(s)

    mass = quad.spacetime_integral(slice_at, r, lean_quad2)[0]
    blocks, _ = quad._time_nodes(r * r, lean_quad2)
    assert requests == [len(blocks) * (lean_quad2.slices_per_scale + 1) + 1]
    assert mass == pytest.approx(r * r, rel=1e-6)


_ROW_SLICES = (lambda s: np.exp(s) * np.cos(40.0 * s) + np.sqrt(-s),
               lambda s: np.sin(7.0 * s) ** 2 + np.log1p(-s))


@pytest.mark.parametrize("layout", ["rows", "transposed"])
def test_time_rules_on_rows_equal_one_call_per_row(layout, quad2, lean_quad2):
    """A slice_at that returns both rows, (2, len(s)), gives each row the
    value of a call on that row alone, bit for bit, also when its rows are a
    transposed, non-contiguous view (the summation order of such a view
    differs)."""
    def pair_at(s):
        values = np.array([f(s) for f in _ROW_SLICES])
        if layout == "transposed":
            values = np.ascontiguousarray(values.T).T
            assert not values.flags.c_contiguous
        return values

    for cfg in (quad2, lean_quad2):
        for r in (0.5, 0.3, 1.0 / 16.0):
            pair = quad.spacetime_integral(pair_at, r, cfg)
            assert pair.shape == (2,)
            assert pair.tolist() == [
                quad.spacetime_integral(lambda s: f(s)[None], r, cfg)[0]
                for f in _ROW_SLICES]
    for cells in (4, 40, 333):
        pair = quad.time_range_integral(pair_at, -0.2, -0.05, cells)
        assert pair.shape == (2,)
        assert pair.tolist() == [
            quad.time_range_integral(lambda s: f(s)[None], -0.2, -0.05, cells)[0]
            for f in _ROW_SLICES]
