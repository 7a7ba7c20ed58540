"""Graph infinity-Laplacian for manifold-valued vertex functions.

The operator at a vertex u picks, among ordered pairs of its neighbors
(diagonal pairs allowed), the pair maximizing

    || sqrt(w(u, v1)) log_{f(u)} f(v1) - sqrt(w(u, v2)) log_{f(u)} f(v2) ||_{f(u)}

and returns

    ( sqrt(w1) log_{f(u)} f(v1*) + sqrt(w2) log_{f(u)} f(v2*) )
    / ( sqrt(w1) + sqrt(w2) ).

Objective ties are broken by the lexicographically smallest (v1, v2) vertex
id pair, which makes every routine here deterministic.  The explicit Euler
step then moves each active vertex along exp_{f(u)}(tau * operator).

All batched work happens in the kernels' ortho coordinates, where the
Riemannian inner product is the plain dot product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SolverConfig
from .errors import CutLocusError, SolverError
from .graph import NonlocalGraph
from .image import Mask, MvImage
from .manifolds import Tangent

ZERO_OP_TOL = 1e-15


def real_graph_inf_laplacian(graph: NonlocalGraph, f: np.ndarray, u: int) -> float:
    """Max/min-difference form of the operator for real vertex functions.

    Computes max_v |max(sqrt(w)(f(v) - f(u)), 0)| minus
    max_v |min(sqrt(w)(f(v) - f(u)), 0)| over the neighbors of u.  Serves as
    an independent cross-check of the manifold operator in the real case.
    """
    ids, w = graph.neighbors(u)
    if len(ids) == 0:
        raise SolverError(f"vertex {u} has no neighbors", vertex=u)
    f = np.asarray(f, dtype=np.float64).reshape(-1)
    d = np.sqrt(np.asarray(w, dtype=np.float64)) * (f[ids] - f[u])
    up = np.abs(np.maximum(d, 0.0)).max()
    down = np.abs(np.minimum(d, 0.0)).max()
    return float(up - down)


def _extremal_batch(kernel, x, nbr_vals, sqw):
    """Extremal pairs and operator values for a batch of vertices.

    Args:
        x: (A, L) base points; nbr_vals: (A, k, L) neighbor points in
        ascending id order, padded by repeating slot 0; sqw: (A, k) root
        weights.

    Returns:
        (i_slot (A,), j_slot (A,), delta (A, L)): the slots of the extremal
        pair and delta in ortho coordinates; operator norms below 1e-15 are
        returned as exact zeros.

    The first maximum of the row-major (k, k) objective is the pair with the
    smallest (v1, v2) ids, since slots ascend by id and a padded slot, an
    exact copy of slot 0, only ever ties with an earlier one.
    """
    s = kernel.log_ortho(x[:, None, :], nbr_vals)              # (A, k, L)
    s *= sqw[..., None]
    # einsum, not BLAS: every entry comes from the same loop, so g is exactly
    # symmetric and bitwise-equal slots give bitwise-equal objective rows
    g = np.einsum("ail,ajl->aij", s, s)                        # (A, k, k)
    diag = np.diagonal(g, axis1=1, axis2=2)
    obj = diag[:, :, None] + diag[:, None, :]
    g *= 2.0
    obj -= g
    A, k = sqw.shape
    i_slot, j_slot = np.divmod(obj.reshape(A, -1).argmax(axis=1), k)
    ar = np.arange(A)
    delta = (s[ar, i_slot] + s[ar, j_slot]) / (sqw[ar, i_slot] + sqw[ar, j_slot])[:, None]
    nrm2 = np.einsum("al,al->a", delta, delta)
    delta[nrm2 < ZERO_OP_TOL * ZERO_OP_TOL] = 0.0
    return i_slot, j_slot, delta


def _batch_at(graph: NonlocalGraph, img: MvImage, active: np.ndarray):
    """Base points (A, L), extremal id pairs (A, 2) and deltas (A, L) of active."""
    rows = graph.rows(active)
    if (rows < 0).any():
        u = int(active[np.argmax(rows < 0)])
        raise SolverError(f"vertex {u} has an empty neighborhood", vertex=u)
    nbr = graph.ids[rows]
    x = img.flat[active]
    try:
        i_slot, j_slot, delta = _extremal_batch(
            img.descriptor.kernel, x, img.flat[nbr], np.sqrt(graph.weights[rows])
        )
    except CutLocusError as e:
        if e.bad_index is not None and len(e.bad_index) == 2:
            a, slot = e.bad_index
            raise CutLocusError(
                f"vertex {int(active[a])}: neighbor {int(nbr[a, slot])} is "
                "numerically at the cut locus of the current value",
                vertex=int(active[a]),
                neighbor=int(nbr[a, slot]),
            ) from e
        raise
    ar = np.arange(active.size)
    return x, np.stack([nbr[ar, i_slot], nbr[ar, j_slot]], axis=1), delta


def _vertex_ids(active) -> np.ndarray:
    """active as an ascending id array without repeats."""
    return np.unique(np.asarray(active, dtype=np.int64).reshape(-1))


def select_extremal_pair(graph: NonlocalGraph, img: MvImage, u: int):
    """The ordered neighbor pair (v1, v2) attaining the operator's argmax.

    Diagonal pairs are admissible (objective 0), so a single neighbor v
    yields (v, v); ties go to the lexicographically smallest id pair.
    """
    active = np.array([int(u)], dtype=np.int64)
    _, pair_ids, _ = _batch_at(graph, img, active)
    return int(pair_ids[0, 0]), int(pair_ids[0, 1])


def inf_laplacian(graph: NonlocalGraph, img: MvImage, u: int) -> Tangent:
    """Graph infinity-Laplacian of the image at vertex u as a Tangent there."""
    active = np.array([int(u)], dtype=np.int64)
    x, _, delta = _batch_at(graph, img, active)
    kernel = img.descriptor.kernel
    vec = kernel.tangent_from_ortho(x, delta)[0]
    return Tangent(base=img.flat[int(u)].copy(), vec=vec)


def inf_laplacian_field(graph: NonlocalGraph, img: MvImage, active) -> dict:
    """Operator tangents for every active vertex, keyed by vertex id."""
    active = _vertex_ids(active)
    if active.size == 0:
        return {}
    x, _, delta = _batch_at(graph, img, active)
    kernel = img.descriptor.kernel
    vecs = kernel.tangent_from_ortho(x, delta)
    return {
        int(u): Tangent(base=img.flat[int(u)].copy(), vec=vecs[a])
        for a, u in enumerate(active)
    }


def euler_step(graph: NonlocalGraph, img: MvImage, active, tau: float) -> MvImage:
    """One explicit Euler update of all active vertices (Jacobi semantics).

    Every read comes from the input image; non-active vertices are copied
    bitwise.  Where the operator vanishes the vertex is left bitwise
    unchanged.
    """
    if not (0.0 < tau <= 1.0):
        raise SolverError(f"tau must lie in (0, 1], got {tau}")
    active = _vertex_ids(active)
    out = img.copy()
    if active.size == 0:
        return out
    if active.min() < 0 or active.max() >= img.vertex_count:
        raise SolverError("active ids outside the grid")
    x, _, delta = _batch_at(graph, img, active)
    moving = np.einsum("al,al->a", delta, delta) > 0.0
    if moving.any():
        kernel = img.descriptor.kernel
        idx = active[moving]
        out.flat[idx] = kernel.exp_ortho(x[moving], tau * delta[moving])
    return out


def solve_dirichlet(
    graph: NonlocalGraph,
    f0: MvImage,
    mask: Mask,
    active,
    cfg: SolverConfig,
):
    """Iterate Euler steps on the active set until the relative change stalls.

    Known (mask) vertices are Dirichlet data and never move.  The relative
    change at step k is the mean geodesic displacement of the active
    vertices divided by the same mean at step 1 (1 if that mean is 0); the
    loop stops when it drops below cfg.eps or after cfg.max_iter steps.

    Returns:
        (image, iterations, trace) with trace the per-step relative changes.
    """
    cfg.validate()
    if mask.known.shape != (f0.rows, f0.cols):
        raise SolverError("mask shape does not match image")
    active = _vertex_ids(active)
    if active.size == 0:
        return f0.copy(), 0, []
    if mask.known_flat[active].any():
        u = int(active[np.argmax(mask.known_flat[active])])
        raise SolverError(f"active vertex {u} is a known pixel", vertex=u)

    kernel = f0.descriptor.kernel
    f = f0.copy()
    trace = []
    denom = None
    iterations = 0
    for _ in range(int(cfg.max_iter)):
        nxt = euler_step(graph, f, active, cfg.tau)
        change = float(kernel.dist(f.flat[active], nxt.flat[active]).mean())
        if denom is None:
            denom = change if change > 0.0 else 1.0
        rel = change / denom
        trace.append(rel)
        f = nxt
        iterations += 1
        if rel < cfg.eps:
            break
    return f, iterations, trace
