"""Graph infinity-Laplacian for manifold-valued vertex functions.

The operator at a vertex u picks, among ordered pairs of its neighbors
(diagonal pairs allowed), the pair maximizing

    || sqrt(w(u, v1)) log_{f(u)} f(v1) - sqrt(w(u, v2)) log_{f(u)} f(v2) ||_{f(u)}

and returns

    ( sqrt(w1) log_{f(u)} f(v1*) + sqrt(w2) log_{f(u)} f(v2*) )
    / ( sqrt(w1) + sqrt(w2) ).

Objective ties are broken by the lexicographically smallest (v1, v2) vertex
id pair, which makes every routine here deterministic.  The explicit Euler
step then moves each active vertex along exp_{f(u)}(tau * operator).  On a
layer whose vertices are not each other's neighbors, solve_dirichlet first
moves each vertex to the zero of its extremal pair, where the jumps find
one, and steps only the others.

All batched work happens in the kernels' ortho coordinates, where the
Riemannian inner product is the plain dot product.  The pair objective is
evaluated with einsum, exactly symmetric and equal for equal slots; one
BLAS product only screens out the pairs that its rounding bound shows are
strictly below the maximum, so the chosen pair does not depend on the BLAS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SolverConfig
from .errors import CutLocusError, SolverError
from .graph import NonlocalGraph
from .image import Mask, MvImage, check_mask_shape
from .manifolds import ZERO_TANGENT_TOL, Tangent

# _extremal_batch keeps the pairs within SCREEN_SAFETY times the rounding
# bound of a row's screened maximum
SCREEN_SAFETY = 2.0
_U = np.finfo(np.float64).eps / 2
_ETA = np.finfo(np.float64).smallest_subnormal
# solve_dirichlet's cycle ring: every step of a solve, up to RING_BYTES
RING_BYTES = 4 << 20


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
        (i_slot (A,), j_slot (A,), delta (A, L), moving (A,)): the slots of
        the extremal pair, delta in ortho coordinates, and whether its norm
        is at least 1e-15; smaller operator norms are returned as exact
        zeros.

    The objective of slots (i, j) is (d_i + d_j) - 2 g_ij, with d_i = s_i.s_i
    and g_ij = s_i.s_j each an einsum over the L coordinates, so it is
    exactly symmetric and bitwise-equal slots give bitwise-equal values.
    The first maximum of the row-major (k, k) objective is the pair with
    the smallest (v1, v2) ids, since slots ascend by id and a padded slot,
    an exact copy of slot 0, only ever ties with an earlier one.

    Only the near-maximal pairs are evaluated that way.  One batched BLAS
    product screens all k*k pairs; a pair is kept when its screened value
    is within the screen's rounding margin of the row's largest, so every
    exact maximum is kept and every pair dropped is strictly smaller.
    """
    s = kernel.log_ortho(x[:, None, :], nbr_vals)              # (A, k, L)
    s *= sqw[..., None]
    A, k, L = s.shape
    d = np.einsum("ail,ail->ai", s, s)                         # (A, k)
    # screen: ob[a, i k + j] = (s_i . -2 s_j) + d_i + d_j, one BLAS product
    q = np.empty((A, L, k))
    np.multiply(s.transpose(0, 2, 1), -2.0, out=q)
    ob = np.matmul(s, q)
    ob += d[:, :, None]
    ob += d[:, None, :]
    ob = ob.reshape(A, k * k)
    # ob is the dot product [s_i, d_i, 1] . [-2 s_j, 1, d_j] of L + 2 terms,
    # summed in the BLAS's order.  Higham (2002), 3.1: in any order, with or
    # without FMA, a dot product of n terms is off by at most about
    # n u sum|x_l y_l|, plus half a subnormal per product on underflow.  So
    # ob is within (2L + 4) u (d_i + d_j) and the objective within
    # (L + 3) u (d_i + d_j) of the exact |s_i - s_j|^2, and keeping the
    # pairs within 4 (3L + 7) u max d of the row's top ob keeps every exact
    # maximum.  The bound needs 8 max d finite; where it is not, the margin
    # is inf or NaN and the row keeps every pair.
    dmax8 = 8.0 * d.max(axis=1)
    margin = dmax8 * (SCREEN_SAFETY * (3 * L + 7) * _U / 2)
    margin += SCREEN_SAFETY * 4 * (L + 2) * _ETA
    keep = np.flatnonzero(~(ob < (ob.max(axis=1) - margin)[:, None]))
    ai, j = np.divmod(keep, k)                                 # ai = a k + i
    if keep.size == 2 * A:
        # two pairs per row: every exact maximum is kept, and the maxima of
        # a row are a pair and its mirror, or all k >= 2 diagonal zeros
        i_slot, j_slot = ai[::2] % k, j[::2]
    else:
        aj = ai - ai % k + j                                   # a k + j
        sf, df = s.reshape(-1, L), d.reshape(-1)
        ob.fill(-np.inf)
        ob.reshape(-1)[keep] = (df[ai] + df[aj]) - 2.0 * np.einsum("nl,nl->n", sf[ai], sf[aj])
        i_slot, j_slot = np.divmod(ob.argmax(axis=1), k)
    ar = np.arange(A)
    delta = (s[ar, i_slot] + s[ar, j_slot]) / (sqw[ar, i_slot] + sqw[ar, j_slot])[:, None]
    nrm2 = np.einsum("al,al->a", delta, delta)
    delta[nrm2 < ZERO_TANGENT_TOL * ZERO_TANGENT_TOL] = 0.0
    return i_slot, j_slot, delta, nrm2 >= ZERO_TANGENT_TOL * ZERO_TANGENT_TOL


def _batch_at(graph: NonlocalGraph, img: MvImage, active: np.ndarray):
    """Base points (A, L), extremal id pairs (A, 2), deltas (A, L) and moving (A,)."""
    rows = graph.rows(active)
    if (rows < 0).any():
        u = int(active[np.argmax(rows < 0)])
        raise SolverError(f"vertex {u} has an empty neighborhood", vertex=u)
    nbr = graph.ids[rows]
    x = img.flat[active]
    try:
        i_slot, j_slot, delta, moving = _extremal_batch(
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
    return x, np.stack([nbr[ar, i_slot], nbr[ar, j_slot]], axis=1), delta, moving


def _vertex_ids(active) -> np.ndarray:
    """active as an ascending id array without repeats."""
    return np.unique(np.asarray(active, dtype=np.int64).reshape(-1))


def select_extremal_pair(graph: NonlocalGraph, img: MvImage, u: int):
    """The ordered neighbor pair (v1, v2) attaining the operator's argmax.

    Diagonal pairs are admissible (objective 0), so a single neighbor v
    yields (v, v); ties go to the lexicographically smallest id pair.
    """
    active = np.array([int(u)], dtype=np.int64)
    _, pair_ids, _, _ = _batch_at(graph, img, active)
    return int(pair_ids[0, 0]), int(pair_ids[0, 1])


def inf_laplacian(graph: NonlocalGraph, img: MvImage, u: int) -> Tangent:
    """Graph infinity-Laplacian of the image at vertex u as a Tangent there."""
    active = np.array([int(u)], dtype=np.int64)
    x, _, delta, _ = _batch_at(graph, img, active)
    kernel = img.descriptor.kernel
    vec = kernel.tangent_from_ortho(x, delta)[0]
    return Tangent(base=img.flat[int(u)].copy(), vec=vec)


def inf_laplacian_field(graph: NonlocalGraph, img: MvImage, active) -> dict:
    """Operator tangents for every active vertex, keyed by vertex id."""
    active = _vertex_ids(active)
    if active.size == 0:
        return {}
    x, _, delta, _ = _batch_at(graph, img, active)
    kernel = img.descriptor.kernel
    vecs = kernel.tangent_from_ortho(x, delta)
    return {
        int(u): Tangent(base=img.flat[int(u)].copy(), vec=vecs[a])
        for a, u in enumerate(active)
    }


def euler_step(graph: NonlocalGraph, img: MvImage, active, tau: float,
               out: MvImage | None = None) -> MvImage:
    """One explicit Euler update of all active vertices (Jacobi semantics).

    Every read comes from the input image; non-active vertices are copied
    bitwise.  Where the operator vanishes the vertex is left bitwise
    unchanged.

    out, when given, is an image of the same shape that already holds img's
    values at every non-active vertex: only the active vertices are written,
    and out is returned, bitwise the image the call without out returns.
    """
    if not (0.0 < tau <= 1.0):
        raise SolverError(f"tau must lie in (0, 1], got {tau}")
    active = _vertex_ids(active)
    if out is None:
        out = img.copy()
    if active.size == 0:
        return out
    if active.min() < 0 or active.max() >= img.vertex_count:
        raise SolverError("active ids outside the grid")
    x, _, delta, moving = _batch_at(graph, img, active)
    if moving.any():
        kernel = img.descriptor.kernel
        x[moving] = kernel.exp_ortho(x[moving], tau * delta[moving])
    out.flat[active] = x
    return out


def _decoupled(graph: NonlocalGraph, active: np.ndarray) -> bool:
    """Every active vertex has a row, and no row holds an active id.

    Each active vertex then steps as a function of its own value alone,
    since its neighbors are never updated.
    """
    rows = graph.rows(active)
    return bool((rows >= 0).all()) and not np.isin(graph.ids[rows], active).any()


def _without_cut_locus(fn, p: np.ndarray):
    """fn(p) on the positions p whose rows raise no CutLocusError in it.

    A batch that raises is split in halves until each row that raises is
    alone and left out.  fn's rows do not depend on each other, so the rows
    kept come out bitwise as in one call.

    Returns:
        (kept positions, fn's tuple of per-row arrays over them)
    """
    try:
        return p, fn(p)
    except CutLocusError:
        if p.size == 1:
            return p[:0], fn(p[:0])
    h = p.size // 2
    (a, ra), (b, rb) = _without_cut_locus(fn, p[:h]), _without_cut_locus(fn, p[h:])
    return np.concatenate([a, b]), tuple(np.concatenate(r) for r in zip(ra, rb))


def _jump(graph: NonlocalGraph, f0: MvImage, active: np.ndarray):
    """Pair jumps of a decoupled layer: each vertex moves to the zero of its pair.

    The operator of a pair (i, j) vanishes at z_ij, the point at fraction
    t = sqrt(w_j) / (sqrt(w_i) + sqrt(w_j)) on the geodesic f(v_i) -> f(v_j),
    since the neighbors of a decoupled layer never move.  Each round picks
    the extremal pair of every vertex still jumping, at its current value,
    and moves it to that pair's zero.  A vertex is certified where its
    operator is an exact zero (Euler would leave it bitwise unchanged), or
    where the pair it jumped by is again its extremal pair: the operator
    there is that pair's, zero but for the rounding of z_ij.  A vertex that
    comes back to a pair it has jumped from has no zero the jumps reach and
    is dropped, as is one whose pair search or jump raises CutLocusError.
    Each round either certifies a vertex, drops it, or marks a new
    unordered pair of its row, so the jumps end within k(k+1)/2 + 1 rounds.

    Returns:
        (values (A, L), certified (A,), rounds): the certified vertices'
        values are their zeros.
    """
    kernel = f0.descriptor.kernel
    rows = graph.rows(active)
    nbr_vals = f0.flat[graph.ids[rows]]                      # (A, k, L)
    sqw = np.sqrt(graph.weights[rows])
    A, k = sqw.shape
    x = f0.flat[active]
    certified = np.zeros(A, dtype=bool)
    seen = np.zeros((A, k * k), dtype=bool)   # unordered slot pairs jumped from
    last = np.full(A, -1)                     # the pair of the last jump
    i_slot = np.empty(A, dtype=np.int64)
    j_slot = np.empty(A, dtype=np.int64)

    def extremal(p):
        return _extremal_batch(kernel, x[p], nbr_vals[p], sqw[p])

    def zero(p):
        fi, fj = nbr_vals[p, i_slot[p]], nbr_vals[p, j_slot[p]]
        si, sj = sqw[p, i_slot[p]], sqw[p, j_slot[p]]
        return (kernel.exp_ortho(fi, (sj / (si + sj))[:, None] * kernel.log_ortho(fi, fj)),)

    pend = np.arange(A)
    rounds = 0
    while pend.size:
        rounds += 1
        pend, (i, j, _, moving) = _without_cut_locus(extremal, pend)
        pair = np.minimum(i, j) * k + np.maximum(i, j)
        done = ~moving | (pair == last[pend])
        certified[pend[done]] = True
        go = ~done & ~seen[pend, pair]
        pend, pair = pend[go], pair[go]
        seen[pend, pair] = True
        last[pend] = pair
        i_slot[pend], j_slot[pend] = i[go], j[go]
        pend, (z,) = _without_cut_locus(zero, pend)
        x[pend] = z
    return x, certified, rounds


def _euler(graph: NonlocalGraph, f: MvImage, active: np.ndarray, cfg: SolverConfig,
           decoupled: bool):
    """Euler steps on the active set, freezing vertices caught in a cycle.

    Returns:
        (image, iterations, trace, vertex_steps)
    """
    if active.size == 0:
        return f, 0, [], 0
    kernel = f.descriptor.kernel
    A, L = active.size, f.flat.shape[1]
    # ring slots of the states and displacements of the steps so far, as
    # many as the solve can take within RING_BYTES; a vertex whose period
    # exceeds them keeps stepping
    slots = min(int(cfg.max_iter), RING_BYTES // (8 * A * (L + 1)))
    freeze = slots >= 2 and decoupled
    live = np.arange(A)                   # positions in active still stepped
    frozen = np.empty(0, dtype=np.int64)  # positions caught in a cycle
    if freeze:
        # vertex-major, so that a live vertex's stored values are contiguous
        ring_x = np.empty((A, slots, L))
        ring_d = np.empty((A, slots))
        ring_x[:, 0] = f.flat[active]
        ring_bits = ring_x.view(np.uint64)
        caught_at = np.zeros(A, dtype=np.int64)
        period = np.zeros(A, dtype=np.int64)

    def cycle_slot(step):
        # the step in (caught_at - period, caught_at] of the same phase
        n = caught_at[frozen]
        return (n - (n - step) % period[frozen]) % slots

    disp = np.empty(A)
    trace = []
    denom = None
    vertex_steps = 0
    # each step reads one image and writes its live vertices into the other.
    # The two then differ only at stepped vertices; a vertex leaves the live
    # set only by freezing, on a decoupled layer no vertex reads a frozen one,
    # and the frozen values are written at the end
    spare = f.copy()
    for step in range(1, int(cfg.max_iter) + 1):
        if live.size:
            ids = active[live]
            prev = f.flat[ids]
            f, spare = euler_step(graph, f, ids, cfg.tau, out=spare), f
            vertex_steps += ids.size
            x = f.flat[ids]
            disp[live] = kernel.dist(prev, x)
        if frozen.size:
            disp[frozen] = ring_d[frozen, cycle_slot(step)]
        change = float(disp.mean())
        if denom is None:
            denom = change if change > 0.0 else 1.0
        rel = change / denom
        trace.append(rel)
        if rel < cfg.eps:
            break
        if not (freeze and live.size):
            continue
        # the last n stored values, compared before this step's write, which
        # reuses the slot of the oldest when the ring is full.  The bits of
        # the first coordinates pick the rows with a candidate match, and
        # only those compare whole values
        n = min(step, slots)
        bits = x.view(np.uint64)
        rows = np.flatnonzero((ring_bits[live, :n, 0] == bits[:, None, 0]).any(axis=1))
        same = (ring_bits[live[rows], :n] == bits[rows, None]).all(axis=2)
        hit = same.any(axis=1)
        ring_x[live, step % slots] = x
        ring_d[live, step % slots] = disp[live]
        if hit.any():
            # slot j holds the value of lag[j] steps ago, and the latest
            # match is the period
            lag = (step - 1 - np.arange(n)) % slots + 1
            caught = live[rows[hit]]
            caught_at[caught] = step
            period[caught] = np.where(same[hit], lag, slots).min(axis=1)
            frozen = np.concatenate([frozen, caught])
            live = np.delete(live, rows[hit])
    if frozen.size:
        f.flat[active[frozen]] = ring_x[frozen, cycle_slot(step)]
    return f, step, trace, vertex_steps


def solve_dirichlet(
    graph: NonlocalGraph,
    f0: MvImage,
    mask: Mask,
    active,
    cfg: SolverConfig,
):
    """Solve the layer: pair jumps where it is decoupled, then Euler steps.

    Known (mask) vertices are Dirichlet data and never move.  On a
    decoupled layer (no active vertex is a neighbor of an active vertex,
    the default front layer) every vertex first jumps to the zeros of its
    extremal pairs (see _jump); a certified vertex takes its zero, which is
    the point the Euler steps below contract to, and is not stepped.

    The other vertices (all of them on a coupled layer, as
    cfg.cumulative_active makes every layer after the first) start from
    their values in f0 and take Euler steps, each through the module-level
    euler_step, until the relative change stalls: the mean geodesic
    displacement of the stepped vertices divided by the same mean at step 1
    (1 if that mean is 0) drops below cfg.eps, or cfg.max_iter steps have
    run.  On a decoupled layer each steps as a function of its own value
    alone, so it follows the trajectory it would have without the jumps.

    On a decoupled layer a vertex whose value repeats bitwise is in an
    exact cycle.  A ring keeps each stepped vertex's value at every step
    (the last ones only, where the solve's cfg.max_iter steps would pass
    RING_BYTES), and a vertex is frozen at the first step whose value bits
    equal one of them, so a cycle is caught at its first repeat; the
    period is how far back the latest match lies, 1 for a fixed point.  A
    frozen vertex is no longer stepped, and its stored cycle supplies its
    displacement at every later step and its value at the last one.  The
    iterations, the trace and the image are bitwise those of stepping
    every such vertex to the end.  Coupled layers are never frozen.

    Returns:
        (image, iterations, trace, rounds, zero_vertices, vertex_steps):
        iterations and trace (the per-step relative changes) are those of
        the Euler steps, 0 and [] when every vertex is certified; rounds
        counts the jump rounds, zero_vertices the certified vertices and
        vertex_steps the vertices passed to euler_step over all steps.
    """
    check_mask_shape(f0, mask)
    active = _vertex_ids(active)
    if active.size == 0:
        return f0.copy(), 0, [], 0, 0, 0
    if mask.known_flat[active].any():
        u = int(active[np.argmax(mask.known_flat[active])])
        raise SolverError(f"active vertex {u} is a known pixel", vertex=u)

    f = f0.copy()
    rounds = 0
    rest = active
    decoupled = _decoupled(graph, active)
    if decoupled:
        x, certified, rounds = _jump(graph, f0, active)
        f.flat[active[certified]] = x[certified]
        rest = active[~certified]
    f, iterations, trace, vertex_steps = _euler(graph, f, rest, cfg, decoupled)
    return f, iterations, trace, rounds, active.size - rest.size, vertex_steps
