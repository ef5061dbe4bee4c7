import gc
import itertools
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from monolab import geometry as geo
from monolab.errors import ConfigError
from monolab.solutions import (GridPhaseSampler, SpaceTimeGrid, assemble_laplacian,
                               make_family, pair_validity_check, sample_pair,
                               solve_heat, supercaloric_residual_check)
from monolab.solutions import checks
from monolab.solutions.grids import GridFunction
from monolab.solutions.solver import apply_laplacian

from conftest import rescale_pair


def small_grid(n=2, h=0.1):
    return SpaceTimeGrid.geometric(n, 1.0, h, ratio=0.8, dt0=0.25)


def zeros_sampler(X, t=None):
    return np.zeros(np.atleast_2d(X).shape[0])


def at(read, X, s):
    """A sampler's or pair's ``values`` or ``fields`` ``read`` at the points
    X (m, n) and the single time s: one row of points and one time, with
    the time axis dropped, values (2, m) and gradients (2, m, n)."""
    out = read(X[None], np.array([s]))
    return out[:, 0] if isinstance(out, np.ndarray) else tuple(p[:, 0] for p in out)


# ---------------------------------------------------------------------------
# grids


def test_geometric_mesh_shape():
    grid = small_grid()
    t = grid.times
    assert t[0] == -1.0 and t[-1] == 0.0
    assert np.all(np.diff(t) > 0)
    steps = np.diff(t)[:-1]
    assert np.all(steps[1:] < steps[:-1] + 1e-12)  # shrinking toward 0


def test_geometric_mesh_validation():
    with pytest.raises(ValueError):
        SpaceTimeGrid.geometric(2, 1.0, 0.1, ratio=1.2, dt0=0.3)
    with pytest.raises(ValueError):
        SpaceTimeGrid.geometric(2, 1.0, 0.1, ratio=0.5, dt0=0.3)  # never reaches 0
    # two frames, -T and 0: no time bump of the weak certificate has mass
    with pytest.raises(ConfigError, match="set a smaller grid.dt0") as err:
        SpaceTimeGrid.geometric(2, 0.5, 0.1, ratio=0.85, dt0=0.2)
    assert err.value.key == "grid.dt0"
    assert len(SpaceTimeGrid.geometric(2, 0.5, 0.1, ratio=0.85, dt0=0.05).times) >= 3


def test_from_times_validation():
    with pytest.raises(ValueError):
        SpaceTimeGrid.from_times(2, 1.0, 0.1, [-1.0, -0.5, -0.1])  # no 0
    with pytest.raises(ValueError):
        SpaceTimeGrid.from_times(2, 1.0, 0.1, [-1.0, -1.0, 0.0])
    with pytest.raises(ValueError):
        SpaceTimeGrid.from_times(2, 1.0, 0.0, [-1.0, 0.0])


def test_grid_size_budget():
    """Checked from the shapes; the grids here build no node array."""
    times = np.linspace(-1.0, 0.0, 49)
    # acceptance 7: 141^2 nodes x max(49 frames, 141 per slab)
    assert SpaceTimeGrid.from_times(2, 0.525, 0.0075, times).n_axis == 141
    # 3-D h = 0.1: 21^3 nodes x 441 per slab
    assert SpaceTimeGrid.geometric(3, 1.0, 0.1, ratio=0.85, dt0=0.2).n_axis == 21
    with pytest.raises(ValueError):   # 1001 nodes: dense slab blocks of 1001^3
        SpaceTimeGrid.geometric(2, 1.0, 0.002, ratio=0.85, dt0=2.0)
    with pytest.raises(ValueError):   # 101^2 nodes x 500 frames
        SpaceTimeGrid.from_times(2, 1.0, 0.02, np.linspace(-1.0, 0.0, 500))
    with pytest.raises(ValueError):   # frames beyond the budget: stops early
        SpaceTimeGrid.geometric(1, 1.0, 0.1, ratio=1.0 - 1e-9, dt0=1.001e-9)


def test_grid_function_shape_guard():
    grid = small_grid()
    with pytest.raises(ValueError):
        GridFunction(grid=grid, values=np.zeros((3, 4, 4)))


def test_sampler_matches_nodes_and_one_sided_gradient():
    grid = small_grid(h=0.25)
    pts = grid.points()
    plus_vals = np.maximum(pts[:, 0], 0.0)
    minus_vals = np.maximum(-pts[:, 0], 0.0)
    frames_p = np.stack([plus_vals.reshape(grid.shape())] * len(grid.times))
    frames_m = np.stack([minus_vals.reshape(grid.shape())] * len(grid.times))
    gf_p = GridFunction(grid=grid, values=frames_p)
    gf_m = GridFunction(grid=grid, values=frames_m)
    sampler = GridPhaseSampler(gf_p, gf_m)
    probe = np.array([[0.6, 0.1], [0.3, -0.4]])
    assert np.allclose(at(sampler.values, probe, -0.3)[0], np.maximum(probe[:, 0], 0.0))
    assert np.allclose(at(sampler.values, probe, -0.3)[1], np.maximum(-probe[:, 0], 0.0))
    # one cell from the interface the one-sided rule must keep the clean slope
    near = np.array([[grid.h, 0.0]])
    g = at(sampler.fields, near, -0.2)[1]
    assert g[0, 0, 0] == pytest.approx(1.0, abs=1e-12)


# Reference: the per-direction stencil, one multilinear interpolation per
# stencil point, time frame and phase, with the cell located each time.

def _ref_multilinear(grid, frame, X):
    n = grid.dim
    na = grid.n_axis
    c = (X + grid.half_width) / grid.h
    i0 = np.clip(np.floor(c).astype(int), 0, na - 2)
    frac = np.clip(c - i0, 0.0, 1.0)
    out = np.zeros(X.shape[0])
    for corner in range(2 ** n):
        idx = []
        wgt = np.ones(X.shape[0])
        for d in range(n):
            bit = (corner >> d) & 1
            idx.append(i0[:, d] + bit)
            wgt = wgt * (frac[:, d] if bit else (1.0 - frac[:, d]))
        out += wgt * frame[tuple(idx)]
    return out


def _ref_frames(t, s):
    if s <= t[0]:
        return 0, 0, 0.0
    if s >= t[-1]:
        return len(t) - 1, len(t) - 1, 0.0
    j = min(int(np.searchsorted(t, s, side="right") - 1), len(t) - 2)
    return j, j + 1, float((s - t[j]) / (t[j + 1] - t[j]))


def _ref_value(gf, X, s):
    j0, j1, th = _ref_frames(gf.grid.times, s)
    v0 = _ref_multilinear(gf.grid, gf.values[j0], X)
    if j1 == j0 or th == 0.0:
        return v0
    return (1.0 - th) * v0 + th * _ref_multilinear(gf.grid, gf.values[j1], X)


def _ref_other_positive(other, X, s):
    if other is None:
        return np.zeros(X.shape[0], dtype=bool)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(other.values))))
    j0, j1, th = _ref_frames(other.grid.times, s)
    v = _ref_multilinear(other.grid, other.values[j0], X)
    if j1 != j0 and th > 0.0:
        v = np.maximum(v, _ref_multilinear(other.grid, other.values[j1], X))
    return v > tol


def _ref_grad(gf, other, X, s):
    n = gf.grid.dim
    h = gf.grid.h
    out = np.empty((X.shape[0], n))
    v_c = _ref_value(gf, X, s)
    for d in range(n):
        e = np.zeros(n)
        e[d] = h
        v_p = _ref_value(gf, X + e, s)
        v_m = _ref_value(gf, X - e, s)
        o_p = _ref_other_positive(other, X + e, s)
        o_m = _ref_other_positive(other, X - e, s)
        g = np.where(o_p & ~o_m, (v_c - v_m) / h, (v_p - v_m) / (2.0 * h))
        g = np.where(o_m & ~o_p, (v_p - v_c) / h, g)
        out[:, d] = np.where(o_m & o_p, 0.0, g)
    return out


def _random_pair(n, seed):
    """Phases with random node values on the half-cubes x_1 > 0 and x_1 < 0
    and values below the positivity tolerance elsewhere; on odd time frames
    both also take the interface nodes x_1 = 0, so the phases overlap there."""
    grid = SpaceTimeGrid.geometric(n, 1.0, 0.2, ratio=0.8, dt0=0.25)
    rng = np.random.default_rng(seed)
    x1 = grid.points()[:, 0].reshape(grid.shape())
    size = (len(grid.times),) + grid.shape()
    reach = (np.arange(size[0]) % 2).reshape((-1,) + (1,) * n) * grid.h
    plus = np.where(x1 > -reach, rng.uniform(0.1, 1.0, size), rng.choice([0.0, 1e-14], size))
    minus = np.where(x1 < reach, rng.uniform(0.1, 1.0, size), rng.choice([0.0, 1e-14], size))
    return GridFunction(grid=grid, values=plus), GridFunction(grid=grid, values=minus)


def _stencil_probes(n, h, rng):
    """Random points; points within h of a cube face and just outside it;
    points on, between and one cell either side of the interface x_1 = 0."""
    rand = rng.uniform(-1.0, 1.0, (60, n))
    face = rng.uniform(-1.0, 1.0, (40, n))
    face[:, 0] = rng.choice([-1.0, 1.0], 40) * (1.0 + rng.uniform(-h, h, 40))
    face[:20, n - 1] = 1.0 + rng.uniform(0.0, h, 20)   # outside on a second axis
    face[20:, n - 1] = -1.0 - rng.uniform(0.0, h, 20)
    near = rng.uniform(-1.0, 1.0, (12, n))
    near[:, 0] = np.repeat([-h, -0.5 * h, -1e-3 * h, 1e-3 * h, 0.5 * h, h], 2)
    cells = rng.uniform(-1.0, 1.0, (20, n))
    cells[:, 0] = rng.choice([-2.0, -1.0, 1.0, 2.0], 20) * h + rng.uniform(-0.1, 0.1, 20) * h
    return np.concatenate([rand, face, near, cells])


# The sampler reads a point's stencil X +- h e_d as its cell shifted by one
# node, with the point's weights; the reference locates every stencil point
# anew, so the two round differently and gradients agree to this much of the
# largest reference gradient.
_GRAD_TOL = 1e-13


def _assert_grads_close(got, want):
    np.testing.assert_allclose(got, want, rtol=0.0,
                               atol=_GRAD_TOL * float(np.max(np.abs(want))))


@pytest.mark.parametrize("n", [2, 3])
def test_shared_corner_stencil_matches_per_direction_reference(n):
    """values, fields' values and value are bit-identical to the
    per-direction reference of each phase, and the gradients agree with the
    reference stencil of each phase against the other within _GRAD_TOL, at
    times before the mesh, on its first node, on interior nodes, between
    nodes and at 0."""
    gf_p, gf_m = _random_pair(n, seed=n)
    t = gf_p.grid.times
    X = _stencil_probes(n, gf_p.grid.h, np.random.default_rng(10 + n))
    times = [t[0] - 1.0, t[0], t[3], t[4], 0.5 * (t[3] + t[4]), 0.5 * (t[4] + t[5]), 0.0]
    sampler = GridPhaseSampler(gf_p, gf_m)
    one_sided = 0
    for s in times:
        values, grads = at(sampler.fields, X, s)
        assert np.array_equal(at(sampler.values, X, s), values)
        assert np.array_equal(sampler.value(X[None], np.array([s]))[0], values[0])
        for v, g, gf, other in ((values[0], grads[0], gf_p, gf_m),
                                (values[1], grads[1], gf_m, gf_p)):
            assert np.array_equal(v, _ref_value(gf, X, s))
            want = _ref_grad(gf, other, X, s)
            _assert_grads_close(g, want)
            free = _ref_grad(gf, None, X, s)
            one_sided += int(np.sum(np.abs(g - free) > _GRAD_TOL * np.max(np.abs(want))))
    assert one_sided > 0   # the interface rule was exercised


@pytest.mark.parametrize("n", [2, 3])
def test_per_point_times_match_per_time_calls(n):
    """values, fields and value at rows of points and times equal one call
    per time: one row that every time reads (1, m, n) and one row per time
    (k, m, n); before the mesh, on a node (one frame), between nodes, at 0
    and past the end."""
    gf_p, gf_m = _random_pair(n, seed=n)
    t = gf_p.grid.times
    X = _stencil_probes(n, gf_p.grid.h, np.random.default_rng(20 + n))
    times = np.array([t[0] - 1.0, t[3], 0.5 * (t[3] + t[4]), t[4], 0.5 * (t[4] + t[5]),
                      0.0, 0.5, t[3]])
    XX = X[None] * (1.0 - 0.05 * np.arange(len(times)))[:, None, None]
    sampler = GridPhaseSampler(gf_p, gf_m)

    def per_time(rows):
        """(values, grads) of one fields call per (row, time), stacked on
        the time axis."""
        calls = [at(sampler.fields, x, s) for x, s in zip(rows, times)]
        return [np.stack(part, axis=1) for part in zip(*calls)]

    for rows, want in ((X[None], per_time([X] * len(times))), (XX, per_time(XX))):
        values, grads = sampler.fields(rows, times)
        assert np.array_equal(values, want[0]) and np.array_equal(grads, want[1])
        assert np.array_equal(sampler.values(rows, times), values)
        assert np.array_equal(sampler.value(rows, times), values[0])


# ---------------------------------------------------------------------------
# families


def test_null_family(euclid2):
    pair = make_family("Null", {}, chart=euclid2)
    X = np.random.default_rng(0).uniform(-1, 1, (1, 10, 2))
    assert np.all(pair.plus.value(X, np.array([-0.5])) == 0.0)
    assert np.all(pair.minus.grad(X, np.array([-0.5])) == 0.0)


def test_unknown_family_and_bad_params(euclid2):
    with pytest.raises(ValueError):
        make_family("Mystery", {}, chart=euclid2)
    with pytest.raises(ValueError):
        make_family("PowerWedge", {"beta": 1.5}, chart=euclid2)
    with pytest.raises(ValueError):
        make_family("DriftTwoPlane", {"c": 0.7}, chart=euclid2)
    with pytest.raises(ValueError):
        make_family("TwoPlaneCaloric", {"alpha": -1.0}, chart=euclid2)


def test_caloric_disjoint_and_admissible(euclid2):
    grid = small_grid()
    pair = make_family("TwoPlaneCaloric", {"alpha": 1.0, "beta": 1.0}, chart=euclid2)
    frames = sample_pair(pair, grid)
    rec = pair_validity_check(pair, grid, frames, tol=1e-10)
    assert rec["passed"] and rec["product_max"] == 0.0
    rr = supercaloric_residual_check(euclid2, grid, frames, tol=1e-10)
    assert rr["passed"]
    # caloric: discrete residual + 1 equals 1 up to stencil roundoff
    assert rr["min_plus"] == pytest.approx(1.0, abs=1e-8)


def test_all_analytic_families_pass_checks(euclid2):
    grid = small_grid()
    for name, params in (("Null", {}),
                         ("TwoPlaneCaloric", {"alpha": 2.0, "beta": 0.5}),
                         ("PowerWedge", {"beta": 0.5}),
                         ("PowerWedge", {"beta": 0.25}),
                         ("DriftTwoPlane", {"c": 0.5})):
        pair = make_family(name, params, chart=euclid2)
        frames = sample_pair(pair, grid)
        assert pair_validity_check(pair, grid, frames, tol=1e-10)["passed"], name
        assert supercaloric_residual_check(euclid2, grid, frames, tol=1e-10)["passed"], name


def test_drift_residual_depth(euclid2):
    """Residual of the drifting plane is -c (x.e)_pm: the worst checkable node
    sits one cell inside the cube, so min residual + 1 = 1 - c max(x1)."""
    grid = small_grid(h=0.1)
    pair = make_family("DriftTwoPlane", {"c": 0.5}, chart=euclid2)
    rec = supercaloric_residual_check(euclid2, grid, sample_pair(pair, grid), tol=1e-10)
    expected = 1.0 - 0.5 * (1.0 - grid.h)
    assert rec["min_plus"] == pytest.approx(expected, abs=1e-6)
    assert rec["min_plus"] >= 0.5


def test_wedge_weak_form(euclid2):
    grid = small_grid()
    pair = make_family("PowerWedge", {"beta": 0.5}, chart=euclid2)
    rec = supercaloric_residual_check(euclid2, grid, sample_pair(pair, grid), tol=1e-10)
    assert rec["weak_min_plus"] >= -1e-6
    assert rec["weak_min_minus"] >= -1e-6


def _reference_residual(u_frames, chart, grid):
    """L_h u - D_t u + 1 on frames 1.. and every node, one frame at a time:
    the stencil applied to frame j, less the backward difference to j - 1."""
    triplets, _ = assemble_laplacian(chart, grid)
    u_flat = u_frames.reshape(len(grid.times), -1)
    return np.array([apply_laplacian(triplets, u_flat[j])
                     - (u_flat[j] - u_flat[j - 1]) / (grid.times[j] - grid.times[j - 1])
                     + 1.0 for j in range(1, len(grid.times))])


def _reference_weak_pairing(resid, chart, grid):
    """The per-bump, per-frame weak pairing: for each (space bump, time bump)
    pair of the battery, sum psi resid over the nodes against dens h^n and
    over frames 1.. against the backward steps, and return the minimum of
    that sum over the same sum of psi."""
    n = chart.dim
    L = grid.half_width
    T = -float(grid.times[0])
    pts = grid.points()
    _, dens = geo.inverse_metric_and_density(chart, pts)
    cell = grid.h ** n
    times = grid.times
    centers = [np.zeros(n)]
    for d in range(n):
        for sgn in (-1.0, 1.0):
            c = np.zeros(n)
            c[d] = 0.35 * L * sgn
            centers.append(c)
    worst = np.inf
    for c in centers:
        for w in (0.3 * L, 0.5 * L):
            if np.linalg.norm(c) + w >= 0.95 * L:
                continue
            psi_x = np.maximum(0.0, 1.0 - np.sum((pts - c) ** 2, axis=1) / w ** 2) ** 3
            for tc in (-0.65 * T, -0.35 * T):
                total = mass = 0.0
                for j in range(1, len(times)):
                    psi_t = max(0.0, 1.0 - ((times[j] - tc) / (0.25 * T)) ** 2) ** 3
                    weight = psi_t * (times[j] - times[j - 1]) * psi_x * dens * cell
                    total += float(np.dot(weight, resid[j - 1]))
                    mass += float(np.sum(weight))
                if mass > 0:
                    worst = min(worst, total / mass)
    return worst


@pytest.mark.parametrize("case", ["numeric_pair", "sphere_wedge"])
def test_weak_pairings_match_per_bump_reference(euclid2, sphere2, case):
    """The stacked battery's one product chain gives the per-bump, per-frame
    psi-weighted mean of the residual, on a grid pair and on a curved chart."""
    grid = small_grid()
    if case == "numeric_pair":
        chart = euclid2
        pair = make_family("NumericPair", {"seed": 11, "source_depth": 0.5},
                           chart=chart, grid=grid)
    else:
        chart = sphere2
        pair = make_family("PowerWedge", {"beta": 0.5}, chart=chart)
    frames = sample_pair(pair, grid)
    rec = supercaloric_residual_check(chart, grid, frames, tol=1e-8)
    battery = checks._bump_battery(chart, grid)
    for u, weak in zip(frames, (rec["weak_min_plus"], rec["weak_min_minus"])):
        resid = _reference_residual(u, chart, grid)
        assert checks._weak_pairings(resid, battery) == weak
        assert weak == pytest.approx(_reference_weak_pairing(resid, chart, grid),
                                     rel=1e-13, abs=0.0)


def _plane_grid(radius, h, dt0):
    return (geo.euclidean_chart(2, radius=radius),
            SpaceTimeGrid.geometric(2, radius, h, ratio=0.85, dt0=dt0))


# the unit chart, and the small chart whose pairing once read -6.36 and -6.72
PLANE_GRIDS = [(1.0, 0.1, 0.2), (1.0, 0.05, 0.2), (0.1, 0.025, 0.002),
               (0.1, 0.0125, 0.002)]


@pytest.mark.parametrize("radius, h, dt0", PLANE_GRIDS)
@pytest.mark.parametrize("name, params", [("TwoPlaneCaloric", {}),
                                          ("DriftTwoPlane", {"c": 0.5})])
def test_planes_pair_to_their_closed_form(name, params, radius, h, dt0):
    """The stencil is exact on the planes away from the interface, where
    their residual is 1 - c |x1| (c = 0: the caloric planes), and a bump over
    the interface row averages more (its discrete delta).  So the worst bump,
    the narrow one centred at +-0.35 L e1, pairs to 1 - c x1bar, x1bar its
    psi-weighted mean of |x1| on the flat chart's nodes: exactly 1 for the
    caloric planes."""
    chart, grid = _plane_grid(radius, h, dt0)
    c = params.get("c", 0.0)
    rec = supercaloric_residual_check(chart, grid,
                                      sample_pair(make_family(name, params, chart=chart), grid))
    pts, L = grid.points(), grid.half_width
    for sgn, weak in ((1.0, rec["weak_min_plus"]), (-1.0, rec["weak_min_minus"])):
        centre = np.array([sgn * 0.35 * L, 0.0])
        psi = np.maximum(0.0, 1.0 - np.sum((pts - centre) ** 2, axis=1)
                         / (0.3 * L) ** 2) ** 3
        x1bar = sgn * np.dot(psi, pts[:, 0]) / np.sum(psi)
        assert weak == pytest.approx(1.0 - c * x1bar, abs=1e-12)
    assert rec["passed"]


def test_weak_part_reads_the_masked_interface_row():
    """Negative control: the caloric planes with u_+ growing in time by
    0.5 (t - t0) on the row x1 = 0 only.  The pointwise part masks that row
    (the other phase is positive next to it) and still reads 1; the weak
    part averages the row's residual and fails the certificate."""
    chart, grid = _plane_grid(1.0, 0.1, 0.2)
    pair = make_family("TwoPlaneCaloric", {}, chart=chart)
    up, um = sample_pair(pair, grid)
    row = (grid.points()[:, 0] == 0.0).reshape(grid.shape())
    assert row.any()
    up = up + 0.5 * (grid.times - grid.times[0])[:, None, None] * row
    rec = supercaloric_residual_check(chart, grid, (up, um))
    assert rec["min_plus"] == pytest.approx(1.0, abs=1e-12)
    assert rec["min_minus"] == pytest.approx(1.0, abs=1e-12)
    assert rec["weak_min_plus"] < -rec["slack"]
    assert rec["passed"] is False


@pytest.mark.parametrize("base, depth", [(11, 0.5), (23, 0.8)])
def test_bench_seed_variants_are_admissible(euclid2, base, depth):
    """The numeric pairs of the eight seed variants of each bench config,
    on their grid, pass both certificates."""
    grid = SpaceTimeGrid.geometric(2, 1.0, 0.1, ratio=0.85, dt0=0.2)
    for seed in range(base, base + 8):
        pair = make_family("NumericPair", {"seed": seed, "source_depth": depth},
                           chart=euclid2, grid=grid)
        frames = sample_pair(pair, grid)
        assert pair_validity_check(pair, grid, frames)["passed"], seed
        assert supercaloric_residual_check(euclid2, grid, frames)["passed"], seed


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dilation_is_the_full_cube(n):
    """The separable dilation equals an OR over all 3^n offsets, nothing
    entering from outside the grid, frame by frame."""
    rng = np.random.default_rng(40 + n)
    mask = rng.uniform(size=(3,) + (7,) * n) > 0.85
    mask[0] = False
    mask[1].flat[0] = mask[1].flat[-1] = True    # corners reach the faces
    ref = np.zeros_like(mask)
    for off in itertools.product((-1, 0, 1), repeat=n):
        dst = tuple(slice(max(o, 0), 7 + min(o, 0)) for o in off)
        src = tuple(slice(max(-o, 0), 7 + min(-o, 0)) for o in off)
        ref[(slice(None),) + dst] |= mask[(slice(None),) + src]
    np.testing.assert_array_equal(checks._dilate(mask), ref)


def test_nan_phase_fails_the_certificate(euclid2):
    """A NaN in a phase makes its margins NaN, and a NaN margin fails."""
    grid = small_grid()
    pair = make_family("TwoPlaneCaloric", {"alpha": 1.0, "beta": 1.0}, chart=euclid2)
    sampler = pair.sampler

    def values(X, s):
        out = sampler.values(X, s)
        out[0] = np.where(X[..., 1] > 0.5, np.nan, out[0])
        return out

    pair.sampler = SimpleNamespace(values=values, fields=sampler.fields)
    rec = supercaloric_residual_check(euclid2, grid, sample_pair(pair, grid), tol=1e-10)
    assert np.isnan(rec["min_plus"]) and np.isnan(rec["weak_min_plus"])
    assert not rec["passed"]


@pytest.mark.parametrize("radius, h, dt0, empty", [
    (0.5, 0.1, 0.2, "weak"),        # two frames: no time bump has mass
    (0.1, 0.1, 0.002, "pointwise"),  # 3^2 nodes: every stencil meets the other phase
])
def test_a_part_that_checked_nothing_fails_the_certificate(radius, h, dt0, empty):
    """The exactly caloric planes on a grid where one part of the certificate
    has nothing to check: that part's margin is the inf of an empty minimum,
    and the certificate fails, though the other part passes."""
    chart = geo.euclidean_chart(2, radius=radius)
    if empty == "weak":
        # geometric refuses the two-frame mesh -T, 0 that this dt0 gives;
        # the certificate must still fail it
        grid = SpaceTimeGrid.from_times(2, radius, h, [-radius ** 2, 0.0])
    else:
        grid = SpaceTimeGrid.geometric(2, radius, h, ratio=0.85, dt0=dt0)
    pair = make_family("TwoPlaneCaloric", {}, chart=chart)
    rec = supercaloric_residual_check(chart, grid, sample_pair(pair, grid))
    weak = (rec["weak_min_plus"], rec["weak_min_minus"])
    pointwise = (rec["min_plus"], rec["min_minus"])
    if empty == "weak":
        assert len(grid.times) == 2 and weak == (np.inf, np.inf)
        assert rec["checkable_plus"] > 0 and all(m == pytest.approx(1.0) for m in pointwise)
    else:
        assert (rec["checkable_plus"], rec["checkable_minus"]) == (0, 0)
        assert pointwise == (np.inf, np.inf)
        # every bump covers the interface node, whose discrete delta adds 1/h
        assert all(m == pytest.approx(1.0 + 1.0 / h) for m in weak)
    assert rec["passed"] is False


@pytest.mark.parametrize("family, params", [("TwoPlaneCaloric", {}),
                                            ("NumericPair", {"seed": 3})])
def test_a_dropped_pair_frees_its_sampler_without_the_collector(euclid2, family,
                                                                  params):
    """A pair is in no reference cycle: its sampler, and so a grid pair's
    grids and padded frames, go when the pair goes, not when the cyclic
    collector next runs."""
    grid = SpaceTimeGrid.geometric(2, 1.0, 0.25, ratio=0.85, dt0=0.2)
    pair = make_family(family, params, chart=euclid2, grid=grid)
    sampler = weakref.ref(pair.sampler)
    gc.disable()
    try:
        del pair
        assert sampler() is None
    finally:
        gc.enable()


def test_rescale_pair_preserves_slack(euclid2):
    pair = make_family("DriftTwoPlane", {"c": 0.5}, chart=euclid2)
    resc = rescale_pair(pair, 0.25)
    X = np.array([[[0.8, 0.2], [2.0, -1.0]]])
    s = np.array([-0.5])
    # u(y, s)/r^2 with u(ry, r^2 s): values match by construction
    direct = pair.plus.value(0.25 * X, 0.25 ** 2 * s) / 0.25 ** 2
    assert np.allclose(resc.plus.value(X, s), direct)


# ---------------------------------------------------------------------------
# both phases at once


def _ref_corners(grid, X):
    """Cell corners of points X (m, n), each located on its own: flat node
    indices and multilinear weights, each (2^n, m), corner bits in axis order
    (bit d steps axis d)."""
    n = grid.dim
    na = grid.n_axis
    c = (X + grid.half_width) / grid.h
    i0 = np.clip(np.floor(c).astype(int), 0, na - 2)
    frac = np.clip(c - i0, 0.0, 1.0)
    strides = na ** np.arange(n - 1, -1, -1)
    bits = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
    flat = (i0 @ strides)[None, :] + (bits @ strides)[:, None]
    wgt = np.ones((2 ** n, X.shape[0]))
    for d in range(n):
        wgt *= np.where(bits[:, d:d + 1] == 1, frac[:, d], 1.0 - frac[:, d])
    return flat, wgt


def _ref_interpolate(values, frames, flat, wgt):
    """Interpolants of the time frames values[j], j in frames, at the corners
    (flat, wgt) of _ref_corners: shape (len(frames), m), each summed corner by
    corner from zero, in corner order."""
    out = np.zeros((len(frames), flat.shape[1]))
    for row, j in zip(out, frames):
        vals = np.take(values[j].reshape(-1), flat)
        for corner in range(flat.shape[0]):
            row += wgt[corner] * vals[corner]
    return out


def _one_phase_grad(gf, other, X, s):
    """The one-phase shared-corner stencil GridPhaseSampler.grad ran before
    the phases were sampled together, at one time s: 2n+1 stencil points
    each located, this phase's frames interpolated in time, the other
    phase's raw frames for the one-sided mask."""
    m, n = X.shape
    h = gf.grid.h
    steps = np.zeros((2 * n + 1, n))
    steps[1::2] = h * np.eye(n)
    steps[2::2] = -h * np.eye(n)
    j0, j1, th = _ref_frames(gf.grid.times, s)
    frames = [j0] if j1 == j0 or th == 0.0 else [j0, j1]
    flat, wgt = _ref_corners(gf.grid, (X[None] + steps[:, None]).reshape(-1, n))
    v = _ref_interpolate(gf.values, frames, flat, wgt)
    v = v[0] if len(frames) == 1 else (1.0 - th) * v[0] + th * v[1]
    tol = 1e-12 * max(1.0, float(np.max(np.abs(other.values))))
    o = _ref_interpolate(other.values, frames, flat, wgt).max(axis=0) > tol
    v = v.reshape(2 * n + 1, m)
    o = o.reshape(2 * n + 1, m)
    v_c, v_p, v_m = v[0], v[1::2], v[2::2]
    o_p, o_m = o[1::2], o[2::2]
    g = np.where(o_p & ~o_m, (v_c - v_m) / h, (v_p - v_m) / (2.0 * h))
    g = np.where(o_m & ~o_p, (v_p - v_c) / h, g)
    return np.ascontiguousarray(np.where(o_m & o_p, 0.0, g).T)


# (amplitudes (a+, a-), power p, drift c) of the plane pairs below:
# u_pm = a_pm ((+-x_1)_+)^p (1 + c s)
_PLANES = {"Null": ((0.0, 0.0), 1.0, 0.0),
           "TwoPlaneCaloric": ((2.0, 0.5), 1.0, 0.0),
           "PowerWedge": ((1.0, 1.0), 1.5, 0.0),
           "DriftTwoPlane": ((1.0, 1.0), 1.0, 0.5)}


def _plane_phase(amp, sign, p, c, X, s):
    """Value (m,) and gradient (m, n) of a_pm ((+-x_1)_+)^p (1 + c s), in
    closed form."""
    pos = np.maximum(sign * X[:, 0], 0.0)
    time = 1.0 + c * s
    slope = np.where(sign * X[:, 0] > 0.0, p * pos ** (p - 1.0), 0.0)
    grad = np.zeros_like(X)
    grad[:, 0] = amp * time * slope * sign
    return amp * pos ** p * time, grad


def _fields_reference(name, base, r, X, s):
    """(values, grads) of the pair ``base`` of family ``name`` rescaled by r
    at one time s, one phase at a time: plane phases in closed form, grid
    phases through the per-direction reference values and _one_phase_grad."""
    Xr, sr = r * X, r * r * s
    if name == "NumericPair":
        gp, gm = base.sampler.grids
        values = np.array([_ref_value(gp, Xr, sr), _ref_value(gm, Xr, sr)])
        grads = np.array([_one_phase_grad(gp, gm, Xr, sr),
                          _one_phase_grad(gm, gp, Xr, sr)])
    else:
        amps, p, c = _PLANES[name]
        values, grads = (np.array(part) for part in zip(
            *(_plane_phase(a, sign, p, c, Xr, sr) for a, sign in zip(amps, (1.0, -1.0)))))
    return values / (r * r), grads / r


@pytest.mark.parametrize("name, params", [
    ("Null", {}),
    ("TwoPlaneCaloric", {"alpha": 2.0, "beta": 0.5}),
    ("PowerWedge", {"beta": 0.5}),
    ("DriftTwoPlane", {"c": 0.5}),
    ("NumericPair", {"seed": 3, "overlap": False}),
    ("NumericPair", {"seed": 3, "overlap": True}),
])
@pytest.mark.parametrize("r", [1.0, 0.25])
def test_pair_fields_equal_per_phase_calls(euclid2, name, params, r):
    """TwoPhasePair.fields and .values, of a family's pair (r = 1) and of its
    parabolic rescaling, equal one call per phase, at single times, on one
    row of points that every time reads and on one row per time: values
    bit-identical, and gradients bit-identical for the plane pairs and within
    _GRAD_TOL for a grid pair.  On one row of points, a pair that does not
    depend on s returns a time axis of length 1, any other pair one of k."""
    grid = small_grid()
    base = make_family(name, params, chart=euclid2, grid=grid)
    pair = base if r == 1.0 else rescale_pair(base, r)
    X = _stencil_probes(2, grid.h, np.random.default_rng(30)) / r
    t = grid.times / (r * r)
    times = np.array([t[0] - 1.0, t[3], 0.5 * (t[3] + t[4]), t[4], 0.0, t[3]])

    def check(got, want):
        assert np.array_equal(got[0], want[0])
        if name == "NumericPair":
            _assert_grads_close(got[1], want[1])
        else:
            assert np.array_equal(got[1], want[1])

    for s in times:
        got, want = at(pair.fields, X, s), _fields_reference(name, base, r, X, s)
        assert got[0].shape == (2, len(X)) and got[1].shape == (2, len(X), 2)
        check(got, want)
        assert np.array_equal(at(pair.values, X, s), want[0])
    want = [_fields_reference(name, base, r, X, s) for s in times]
    want = [np.stack(part, axis=1) for part in zip(*want)]
    k = 1 if name in ("Null", "TwoPlaneCaloric", "PowerWedge") else len(times)
    values, grads = pair.fields(X[None], times)
    assert values.shape == (2, k, len(X)) and grads.shape == (2, k, len(X), 2)
    check([np.broadcast_to(got, part.shape)
           for got, part in zip((values, grads), want)], want)
    assert np.array_equal(pair.values(X[None], times), values)
    XX = X[None] * (1.0 - 0.05 * np.arange(len(times)))[:, None, None]
    want = [_fields_reference(name, base, r, x, s) for x, s in zip(XX, times)]
    values, grads = pair.fields(XX, times)
    check((values, grads), [np.stack(part, axis=1) for part in zip(*want)])
    assert np.array_equal(pair.values(XX, times), values)
    if name == "NumericPair":
        assert np.any(grads[0] != 0.0) and np.any(grads[1] != 0.0)


# ---------------------------------------------------------------------------
# heat solver


def test_heat_gaussian_closed_form():
    ch = geo.euclidean_chart(1)
    s0, T = 0.05, 0.04

    def exact(X, tau):
        X = np.atleast_2d(X)
        return (s0 / (s0 + tau)) ** 0.5 * np.exp(-X[:, 0] ** 2 / (4 * (s0 + tau)))

    errs = []
    for h, nt in ((0.02, 20), (0.01, 80)):
        grid = SpaceTimeGrid.from_times(1, 1.0, h, np.linspace(-T, 0, nt + 1))
        gf = solve_heat(ch, zeros_sampler, lambda X: exact(X, 0.0),
                        lambda X, t: exact(X, t + T), grid)
        err = np.abs(gf.values[-1] - exact(grid.points(), T).reshape(grid.shape())).max()
        errs.append(err)
    assert errs[0] < 5e-3
    assert errs[1] < 0.5 * errs[0]


def test_heat_constant_source_profile():
    """d_t u = Delta u - 1 from zero data: u stays <= 0 and the center tracks
    -(elapsed time) until boundary influence arrives."""
    ch = geo.euclidean_chart(2)
    T = 0.05
    grid = SpaceTimeGrid.from_times(2, 1.0, 0.1, np.linspace(-T, 0, 21))
    gf = solve_heat(ch, lambda X, t: np.ones(np.atleast_2d(X).shape[0]),
                    zeros_sampler, lambda X, t: zeros_sampler(X), grid)
    assert gf.values.max() <= 1e-12
    center = gf.values[-1][grid.n_axis // 2, grid.n_axis // 2]
    assert center == pytest.approx(-T, rel=5e-2)


def test_heat_maximum_principle_backward_euler():
    ch = geo.perturbed_chart(2, 0.05)
    rng = np.random.default_rng(21)
    grid = SpaceTimeGrid.from_times(2, 1.0, 0.125, np.linspace(-0.2, 0, 9))
    for trial in range(4):
        c = rng.uniform(-0.4, 0.4, 2)
        w = rng.uniform(0.2, 0.5)
        amp = rng.uniform(0.5, 2.0)

        def initial(X):
            r2 = np.sum((np.atleast_2d(X) - c) ** 2, axis=1) / w ** 2
            return amp * np.maximum(0.0, 1.0 - r2) ** 2

        depth = rng.uniform(0.0, 1.0)
        src = lambda X, t: -depth * np.ones(np.atleast_2d(X).shape[0])
        gf = solve_heat(ch, src, initial, lambda X, t: zeros_sampler(X), grid)
        assert gf.values.min() >= -1e-12


def test_heat_manufactured_two_level():
    """cos(x1) e^t on the perturbed chart: halving h divides the error by ~4."""
    chp = geo.perturbed_chart(2, 0.05)

    def u_star(X, t):
        return np.cos(np.atleast_2d(X)[:, 0]) * np.exp(t)

    def source(X, t):
        X = np.atleast_2d(X)
        ginv, _ = geo.inverse_metric_and_density(chp, X)
        drift = geo.divergence_drift(chp, X)
        lap = (-ginv.entry(0, 0) * np.cos(X[:, 0]) - drift[:, 0] * np.sin(X[:, 0])) * np.exp(t)
        return lap - u_star(X, t)

    T = 0.1
    errs = []
    for h in (0.2, 0.1):
        grid = SpaceTimeGrid.from_times(2, 1.0, h, np.linspace(-T, 0, 33))
        gf = solve_heat(chp, source, lambda X: u_star(X, -T), u_star, grid,
                        method="crank_nicolson")
        errs.append(np.abs(gf.values[-1].ravel() - u_star(grid.points(), 0.0)).max())
    assert errs[1] < errs[0] / 3.0


def _dense_reference(chart, source, initial, boundary, grid, method, active):
    """solve_heat's scheme on the full node set: the dense matrix with
    identity rows on pinned nodes, one np.linalg.solve per step."""
    (rows, cols, vals), act = assemble_laplacian(chart, grid, active)
    size = act.size
    L = np.zeros((size, size))
    np.add.at(L, (rows, cols), vals)
    theta = 1.0 if method == "backward_euler" else 0.5
    pts = grid.points()
    times = grid.times
    u = np.asarray(initial(pts), dtype=float).copy()
    u[~act] = boundary(pts[~act], times[0])
    frames = [u]
    for m in range(1, len(times)):
        dt = times[m] - times[m - 1]
        A = np.where(act[:, None], np.eye(size) - theta * dt * L, np.eye(size))
        t_src = times[m] if theta == 1.0 else 0.5 * (times[m] + times[m - 1])
        rhs = u + (1.0 - theta) * dt * (L @ u)
        rhs[act] -= dt * source(pts[act], t_src)
        rhs[~act] = boundary(pts[~act], times[m])
        u = np.linalg.solve(A, rhs)
        frames.append(u)
    return np.stack(frames).reshape((len(times),) + grid.shape())


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("method", ["backward_euler", "crank_nicolson"])
@pytest.mark.parametrize("masked", [False, True])
def test_block_solver_matches_dense_solve(n, method, masked):
    """The slab-by-slab sweep equals a dense solve of the whole system, on a
    curved chart, with pinned faces, a pinned half-space and a hole."""
    chart = geo.perturbed_chart(n, 0.05)
    grid = SpaceTimeGrid.geometric(n, 1.0, {1: 0.1, 2: 0.2, 3: 0.4}[n],
                                   ratio=0.8, dt0=0.3)
    pts = grid.points()
    active = None
    if masked:
        active = (pts[:, 0] > -0.3) & (np.linalg.norm(pts - 0.4, axis=1) > 0.25)

    def source(X, t):
        return (1.0 + t) * np.cos(2.0 * X[:, 0]) - 0.5 * np.sum(X, axis=1)

    def initial(X):
        return np.exp(-np.sum((X - 0.1) ** 2, axis=1))

    def boundary(X, t):
        return 0.2 * np.sin(X[:, -1] + t) + 0.1

    gf = solve_heat(chart, source, initial, boundary, grid, method=method,
                    active=active)
    ref = _dense_reference(chart, source, initial, boundary, grid, method,
                           np.ones(len(pts), dtype=bool) if active is None else active)
    np.testing.assert_allclose(gf.values, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


def test_solver_method_validation(euclid2):
    grid = small_grid()
    with pytest.raises(ValueError):
        solve_heat(euclid2, zeros_sampler, zeros_sampler,
                   lambda X, t: zeros_sampler(X), grid, method="explicit")


# ---------------------------------------------------------------------------
# numeric pairs


def test_numeric_pair_admissible(euclid2):
    grid = small_grid()
    pair = make_family("NumericPair", {"seed": 11, "source_depth": 0.5},
                       chart=euclid2, grid=grid)
    frames = sample_pair(pair, grid)
    rec = pair_validity_check(pair, grid, frames, tol=1e-10)
    assert rec["passed"]
    rr = supercaloric_residual_check(euclid2, grid, frames, tol=1e-8)
    assert rr["passed"]
    assert rr["min_plus"] >= -0.5 - 1e-6  # residual equals the source, >= -depth
    # the certificates return their records; the pair holds no copy of them
    assert not hasattr(pair, "admissibility")


def test_numeric_pair_determinism(euclid2):
    grid = small_grid()
    a = make_family("NumericPair", {"seed": 7}, chart=euclid2, grid=grid)
    b = make_family("NumericPair", {"seed": 7}, chart=euclid2, grid=grid)
    assert np.array_equal(a.sampler.grids[0].values, b.sampler.grids[0].values)


def test_numeric_pair_overlap_negative_control(euclid2):
    grid = small_grid()
    pair = make_family("NumericPair", {"seed": 11, "overlap": True},
                       chart=euclid2, grid=grid)
    rec = pair_validity_check(pair, grid, sample_pair(pair, grid), tol=1e-10)
    assert not rec["passed"]


def test_origin_flag_recorded(euclid2):
    grid = small_grid()
    pair = make_family("TwoPlaneCaloric", {}, chart=euclid2)
    rec = pair_validity_check(pair, grid, sample_pair(pair, grid))
    assert rec["origin_plus"] == 0.0 and rec["origin_minus"] == 0.0
