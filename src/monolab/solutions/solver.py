"""Implicit stepping for d_t u = Delta_g u - f on a SpaceTimeGrid.

Delta_g is discretized in divergence form, (1/dens) d_i (dens g^{ij} d_j u),
with second-order flux stencils: diagonal fluxes at face midpoints and mixed
terms with averaged central cross-differences.  Backward Euler (default)
satisfies the discrete maximum principle for the near-diagonal metrics the
built-in families produce; Crank-Nicolson is available for accuracy studies.

The stencil reaches at most one slab away along axis 0, so the implicit
operator on the active (unknown) nodes is block-tridiagonal, one dense block
per pair of neighbouring slabs.  Each time step is one block-Thomas sweep with
one dense solve per slab; only slabs that hold active nodes are swept, and
pinned (Dirichlet) nodes enter through the right-hand side.
"""

from __future__ import annotations

import numpy as np

from .. import geometry
from ..errors import NumericalError
from .grids import GridFunction

__all__ = ["assemble_laplacian", "apply_laplacian", "solve_heat"]


def _interior_mask(shape):
    mask = np.zeros(shape, dtype=bool)
    core = tuple(slice(1, -1) for _ in shape)
    mask[core] = True
    return mask.ravel()


def assemble_laplacian(chart, grid, active=None):
    """Delta_g over active interior nodes as COO triplets.

    Returns ``((rows, cols, vals), active_flat)``: flat node indices and
    coefficients, rows only for active nodes, repeated entries summing (see
    ``apply_laplacian``).  ``active`` may restrict the unknowns further (phase
    masks); inactive nodes are treated as pinned (Dirichlet).
    """
    n = grid.dim
    h = grid.h
    shape = grid.shape()
    size = int(np.prod(shape))
    pts = grid.points()
    act = _interior_mask(shape)
    if active is not None:
        act = act & np.asarray(active).ravel()
    idx = np.flatnonzero(act)
    if idx.size == 0:
        raise ValueError("no active interior nodes")
    X = pts[idx]
    g_inv_c, dens_c = geometry.inverse_metric_and_density(chart, X)

    strides = np.empty(n, dtype=int)
    strides[-1] = 1
    for d in range(n - 2, -1, -1):
        strides[d] = strides[d + 1] * shape[d + 1]

    rows, cols, vals = [], [], []

    def add(r, c, v):
        rows.append(r)
        cols.append(c)
        vals.append(v)

    inv_dens = 1.0 / dens_c
    for d in range(n):
        e = np.zeros(n)
        e[d] = 0.5 * h
        for sgn in (+1, -1):
            g_inv_f, dens_f = geometry.inverse_metric_and_density(chart, X + sgn * e)
            a_dd = dens_f * g_inv_f[:, d, d]
            coef = a_dd * inv_dens / (h * h)
            add(idx, idx + sgn * strides[d], coef)
            add(idx, idx, -coef)
            for d2 in range(n):
                if d2 == d:
                    continue
                a_de = dens_f * g_inv_f[:, d, d2]
                coef2 = sgn * a_de * inv_dens / (4.0 * h * h)
                add(idx, idx + strides[d2], coef2)
                add(idx, idx - strides[d2], -coef2)
                add(idx, idx + sgn * strides[d] + strides[d2], coef2)
                add(idx, idx + sgn * strides[d] - strides[d2], -coef2)

    return (np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)), act


def apply_laplacian(triplets, u):
    """L u for the triplets of ``assemble_laplacian``; u is one flat frame
    (size,) or a stack of them (frames, size)."""
    rows, cols, vals = triplets
    u = np.asarray(u, dtype=float)
    stack = u.reshape(-1, u.shape[-1])
    frames, size = stack.shape
    flat = (np.arange(frames)[:, None] * size + rows).ravel()
    out = np.bincount(flat, weights=(vals * stack[:, cols]).ravel(),
                      minlength=frames * size)
    return out.reshape(u.shape)


def _slab_blocks(triplets, act, shape):
    """Split L on the active nodes into slabs along axis 0.

    Returns ``(slabs, blocks, boundary)``: ``slabs[j]`` the flat active nodes
    of the j-th slab that holds any; ``blocks[d][j]`` the dense coupling of
    slab j to slab j + d - 1 (d = 0, 1, 2; an empty array at either end, zero
    between slabs that are not neighbours); ``boundary`` the triplets whose
    column is pinned.
    """
    rows, cols, vals = triplets
    per_slab = int(np.prod(shape[1:]))
    idx = np.flatnonzero(act)
    slab = idx // per_slab
    keys, starts = np.unique(slab, return_index=True)
    slabs = np.split(idx, starts[1:])
    j_of = np.searchsorted(keys, slab)          # slab index of each active node
    loc = np.arange(len(idx)) - starts[j_of]    # position inside its slab
    where = np.full(act.size, -1)
    where[idx] = np.arange(len(idx))

    inner = act[cols]
    boundary = (rows[~inner], cols[~inner], vals[~inner])
    r, c = where[rows[inner]], where[cols[inner]]
    jr, jc, v = j_of[r], j_of[c], vals[inner]
    k = len(slabs)
    group = (jc - jr + 1) * k + jr
    order = np.argsort(group, kind="stable")
    bounds = np.searchsorted(group[order], np.arange(3 * k + 1))
    sizes = [len(s) for s in slabs]
    blocks = []
    for d in range(3):
        row = []
        for j in range(k):
            a, b = sizes[j], sizes[j + d - 1] if 0 <= j + d - 1 < k else 0
            sel = order[bounds[d * k + j]:bounds[d * k + j + 1]]
            row.append(np.bincount(loc[r[sel]] * b + loc[c[sel]], weights=v[sel],
                                   minlength=a * b).reshape(a, b))
        blocks.append(row)
    return slabs, blocks, boundary


def _block_thomas(blocks, c, rhs):
    """Solve (I - c L) x = rhs on the active nodes, slab by slab.

    ``rhs`` is one array per slab; forward elimination solves each reduced
    diagonal block once, against the upper coupling and the right-hand side
    together, then back substitution.  A singular block raises
    NumericalError.
    """
    lower, diag, upper = blocks
    k = len(diag)
    elim, carry = [], []
    for j in range(k):
        a = np.eye(len(diag[j])) - c * diag[j]
        r = rhs[j]
        if j > 0:
            b = -c * lower[j]
            a -= b @ elim[-1]
            r = r - b @ carry[-1]
        up = -c * upper[j]
        try:
            sol = np.linalg.solve(a, np.column_stack([up, r]))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"time-step factorization failed: {exc}") from exc
        elim.append(sol[:, :-1])
        carry.append(sol[:, -1])
    x = [None] * k
    x[-1] = carry[-1]
    for j in range(k - 2, -1, -1):
        x[j] = carry[j] - elim[j] @ x[j + 1]
    return x


def solve_heat(chart, source, initial, boundary, grid, method="backward_euler",
               active=None):
    """March d_t u = Delta_g u - source from grid.times[0] to 0.

    ``source(X, t)``, ``initial(X)`` and ``boundary(X, t)`` are vectorized
    samplers; boundary applies to every non-active node (cube faces and any
    masked-off region).  Returns a GridFunction over all time nodes.
    """
    if method not in ("backward_euler", "crank_nicolson"):
        raise ValueError("method must be backward_euler or crank_nicolson")
    theta = 1.0 if method == "backward_euler" else 0.5    # implicit weight
    shape = grid.shape()
    pts = grid.points()
    triplets, act = assemble_laplacian(chart, grid, active)
    pinned = ~act
    pts_act, pts_pinned = pts[act], pts[pinned]
    slabs, blocks, edge = _slab_blocks(triplets, act, shape)
    split = np.cumsum([len(s) for s in slabs])[:-1]

    times = grid.times
    u = np.asarray(initial(pts), dtype=float).copy()
    u[pinned] = np.asarray(boundary(pts_pinned, times[0]), dtype=float)
    frames = [u]
    for m in range(1, len(times)):
        dt = times[m] - times[m - 1]
        if theta == 1.0:
            explicit = u
            f = np.asarray(source(pts_act, times[m]), dtype=float)
        else:
            explicit = u + 0.5 * dt * apply_laplacian(triplets, u)
            f = np.asarray(source(pts_act, 0.5 * (times[m] + times[m - 1])),
                           dtype=float)
        new = np.empty_like(u)
        new[pinned] = np.asarray(boundary(pts_pinned, times[m]), dtype=float)
        rhs = (explicit[act] - dt * f
               + theta * dt * apply_laplacian(edge, new)[act])
        x = _block_thomas(blocks, theta * dt, np.split(rhs, split))
        new[act] = np.concatenate(x)
        if not np.all(np.isfinite(new)):
            raise NumericalError("time step produced non-finite values")
        u = new
        frames.append(u)
    values = np.stack(frames).reshape((len(times),) + shape)
    return GridFunction(grid=grid, values=values)
