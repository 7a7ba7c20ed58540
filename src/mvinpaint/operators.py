"""Graph infinity-Laplacian for manifold-valued vertex functions.

The operator at a vertex u picks, among ordered pairs of its neighbors
(diagonal pairs allowed), the pair maximizing

    || sqrt(w(u, v1)) log_{f(u)} f(v1) - sqrt(w(u, v2)) log_{f(u)} f(v2) ||_{f(u)}

and returns

    ( sqrt(w1) log_{f(u)} f(v1*) + sqrt(w2) log_{f(u)} f(v2*) )
    / ( sqrt(w1) + sqrt(w2) ).

Objective ties are broken by the lexicographically smallest (v1, v2) vertex
id pair, which makes every routine here deterministic.  The explicit Euler
step moves each active vertex along exp_{f(u)}(operator), the full step.

solve_dirichlet takes those steps only on a layer whose vertices are each
other's neighbors.  On a decoupled layer every neighbor value is fixed, and
each vertex takes its weighted 1-centre argmin_x max_v sqrt(w(u, v))
d(x, f(v)), the discrete minimizing Lipschitz extension that the operator
is built on, found by a batched search of its support set in the manner
of Welzl.  Where it has two supports it is the operator's zero on their
geodesic.

All batched work happens in the kernels' ortho coordinates, where the
Riemannian inner product is the plain dot product.  The pair objective is
evaluated with einsum, exactly symmetric and equal for equal slots; one
BLAS product only screens out the pairs that its rounding bound shows are
strictly below the maximum, so the chosen pair does not depend on the BLAS.
The support search solves its small linear systems by its own elimination.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

import numpy as np

from .config import SolverConfig
from .errors import CutLocusError, SolverError
from .graph import NonlocalGraph
from .image import Mask, MvImage, check_mask_shape, one_vertex_id, vertex_ids
from .manifolds import ZERO_TANGENT_TOL

# _extremal_batch keeps the pairs within SCREEN_SAFETY times the rounding
# bound of a row's screened maximum
SCREEN_SAFETY = 2.0
_U = np.finfo(np.float64).eps / 2
_ETA = np.finfo(np.float64).smallest_subnormal
# the 1-centres of a decoupled layer (_centres).  The support search counts
# a neighbor as covered within the relative _SLACK, plus ZERO_TANGENT_TOL,
# the norm below which a tangent is zero, times the row's largest root
# weight, and a dual weight as nonnegative down to -_SLACK.  Its Newton
# solves stop at a step below _NEWTON_TOL, or below _NEWTON_FLOOR once the
# step no longer halves, within _NEWTON_ITER steps, and give up on a row
# whose step has not fallen by a tenth over _NEWTON_LAG steps
_SLACK = 1e-9
_NEWTON_TOL = 1e-15
_NEWTON_FLOOR = 1e-12
_NEWTON_ITER = 100
_NEWTON_LAG = 4


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
        zeros.  A row with a log that is not finite, as at a cut locus, has
        delta NaN and does not move; the other rows do not depend on it.

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
    failed = ~np.isfinite(s).all(axis=(1, 2))
    delta[nrm2 < ZERO_TANGENT_TOL * ZERO_TANGENT_TOL] = 0.0
    delta[failed] = np.nan
    return i_slot, j_slot, delta, (nrm2 >= ZERO_TANGENT_TOL * ZERO_TANGENT_TOL) & ~failed


def _rows(graph: NonlocalGraph, active: np.ndarray) -> np.ndarray:
    """Row of each active vertex in the graph's table; raises where one has none."""
    rows = graph.rows(active)
    if (rows < 0).any():
        u = int(active[np.argmax(rows < 0)])
        raise SolverError(f"vertex {u} has an empty neighborhood", vertex=u)
    return rows


def _batch_at(graph: NonlocalGraph, img: MvImage, active: np.ndarray):
    """Base points (A, L), extremal id pairs (A, 2), deltas (A, L) and moving (A,).

    Raises CutLocusError naming the first active vertex with a neighbor at
    the cut locus of its value, and its first such neighbor.
    """
    rows = _rows(graph, active)
    nbr = graph.ids[rows]
    x = img.flat[active]
    kernel = img.descriptor.kernel
    i_slot, j_slot, delta, moving = _extremal_batch(kernel, x, img.flat[nbr], np.sqrt(graph.weights[rows]))
    failed = np.flatnonzero(np.isnan(delta[:, 0]))
    if failed.size:
        # the first failed row's logs again, to find its first neighbor at
        # the cut locus: the weights are positive and finite, so a row fails
        # only where a log is not finite
        a = failed[0]
        bad = ~np.isfinite(kernel.log_ortho(x[a], img.flat[nbr[a]])).all(axis=1)
        u, v = int(active[a]), int(nbr[a, np.argmax(bad)])
        raise CutLocusError(f"vertex {u}: neighbor {v} is numerically at the cut locus of the current "
                            "value", vertex=u, neighbor=v)
    ar = np.arange(active.size)
    return x, np.stack([nbr[ar, i_slot], nbr[ar, j_slot]], axis=1), delta, moving


def inf_laplacian(graph: NonlocalGraph, img: MvImage, u: int) -> np.ndarray:
    """Graph infinity-Laplacian of the image at vertex u, (L,) in ortho coordinates at f(u)."""
    u = one_vertex_id(u, img.vertex_count, "u")
    return inf_laplacian_field(graph, img, [u])[0]


def inf_laplacian_field(graph: NonlocalGraph, img: MvImage, active) -> np.ndarray:
    """The operator at every active vertex, (A, L) in ortho coordinates at its value.

    Row a belongs to the a-th id of vertex_ids(active): ascending, each once.
    """
    active = vertex_ids(active, img.vertex_count, "active")
    if active.size == 0:
        return np.empty((0, img.descriptor.point_len))
    return _batch_at(graph, img, active)[2]


def euler_step(graph: NonlocalGraph, img: MvImage, active) -> MvImage:
    """One full explicit Euler update of all active vertices (Jacobi semantics).

    Each active vertex u moves to exp_{f(u)}(operator at u).  Returns a new
    image.  Every read comes from the input image, which is left as it is;
    non-active vertices are copied bitwise.  Where the operator vanishes the
    vertex is left bitwise unchanged.
    """
    active = vertex_ids(active, img.vertex_count, "active")
    out = img.copy()
    if active.size == 0:
        return out
    x, _, delta, moving = _batch_at(graph, img, active)
    if moving.any():
        kernel = img.descriptor.kernel
        x[moving] = kernel.exp_ortho(x[moving], delta[moving])
    out.flat[active] = x
    return out


def _pair_zero(kernel, fi, fj, si, sj):
    """z_ij: the point at fraction sj / (si + sj) of the geodesic fi -> fj, per row."""
    # where fj equals fi, z_ij is fi, with its bits
    z = kernel.exp_ortho(fi, (sj / (si + sj))[:, None] * kernel.log_ortho(fi, fj))
    return np.where((fi == fj).all(axis=1)[:, None], fi, z)


def _solve_small(M, b):
    """x with M x = b for a batch of small systems, M (n, q, q) and b (n, q).

    Gaussian elimination with partial pivoting, in place on M and b.  A
    singular system gives non-finite entries, not an error.
    """
    n, q = b.shape
    ar = np.arange(n)
    x = np.empty_like(b)
    with np.errstate(divide="ignore", invalid="ignore"):
        for c in range(q):
            piv = c + np.abs(M[:, c:, c]).argmax(axis=1)
            for a in (M, b):
                row = a[ar, piv].copy()
                a[ar, piv] = a[:, c]
                a[:, c] = row
            f = M[:, c + 1:, c] / M[:, c, c][:, None]
            M[:, c + 1:] -= f[..., None] * M[:, c, None]
            b[:, c + 1:] -= f * b[:, c, None]
        for c in range(q - 1, -1, -1):
            rest = np.einsum("nj,nj->n", M[:, c, c + 1:], x[:, c + 1:])
            x[:, c] = (b[:, c] - rest) / M[:, c, c]
    return x


def _barycentric(a):
    """nu (n, m) with sum_b nu_b a_b = 0 and sum_b nu_b = 1, per row of a (n, m, L).

    The barycentric coordinates of 0 in the affine hull of each row's m
    points, from the normal equations of their differences from a_0.
    Where the points are affinely dependent the entries are not finite.
    """
    da = a[:, 1:] - a[:, :1]
    mu = _solve_small(np.einsum("nbl,ncl->nbc", da, da), -np.einsum("nbl,nl->nb", da, a[:, 0]))
    return np.concatenate([1.0 - mu.sum(axis=1, keepdims=True), mu], axis=1)


def _circumcentre(kernel, y, f, w):
    """Newton for the weighted circumcentre of each row's m >= 3 supports.

    y (n, L) are the start points, f (n, m, L) the supports and w (n, m)
    their root weights.  At a point y with p_b = log_y f_b, d_b = |p_b| and
    e_b = p_b / d_b, the step h = p_0 + sum_c a_c (p_c - p_0) lies in the
    affine hull of the p_b, and a solves the (m-1) x (m-1) linearised
    equalities (w_b e_b - w_0 e_0) . h = w_b d_b - w_0 d_0.  A row stops at
    |h| < _NEWTON_TOL, or at |h| < _NEWTON_FLOOR once the step no longer
    halves (the rounding of p_0 + sum a_c (p_c - p_0)), without taking h.
    It fails where h is not finite or |h| > 4 max_b d_b, where max_b w_b d_b
    exceeds 4 times its value at the start (no 1-centre of the supports is
    farther than the start), where |h| is above 0.9 times the step
    _NEWTON_LAG steps before (Newton that does not converge wanders at a
    steady step), or after _NEWTON_ITER steps.

    A row whose start or step meets a support's cut locus fails there too,
    as its logs are NaN; the other rows do not depend on it.

    Returns:
        (centres (n, L), nu (n, m)): nu holds the barycentric coordinates
        of 0 among the e_b at the centre, NaN where Newton failed.
    """
    y = y.copy()
    nu = np.full(w.shape, np.nan)
    steps = np.full((y.shape[0], _NEWTON_LAG), np.inf)     # the last steps, by i % lag
    live = np.arange(y.shape[0])
    for i in range(_NEWTON_ITER):
        wl = w[live]
        p = kernel.log_ortho(y[live, None], f[live])                # (n, m, L)
        d = np.sqrt(np.einsum("nbl,nbl->nb", p, p))
        far = (wl * d).max(axis=1)
        if i == 0:
            reach = 4.0 * far
        with np.errstate(divide="ignore", invalid="ignore"):
            e = p / d[..., None]
        a = wl[..., None] * e
        da, dp = a[:, 1:] - a[:, :1], p[:, 1:] - p[:, :1]
        rhs = (wl[:, 1:] * d[:, 1:] - wl[:, :1] * d[:, :1]) - np.einsum("nbl,nl->nb", da, p[:, 0])
        alpha = _solve_small(np.einsum("nbl,ncl->nbc", da, dp), rhs)
        h = p[:, 0] + np.einsum("nbl,nb->nl", dp, alpha)
        step = np.sqrt(np.einsum("nl,nl->n", h, h))
        prev = steps[live, (i - 1) % _NEWTON_LAG]
        stop = (step < _NEWTON_TOL) | ((step < _NEWTON_FLOOR) & (step > 0.5 * prev))
        if stop.any():
            nu[live[stop]] = _barycentric(e[stop])
        go = ~stop & (step <= 4.0 * d.max(axis=1)) & (far <= reach[live])
        go &= ~(step > 0.9 * steps[live, i % _NEWTON_LAG])
        steps[live[go], i % _NEWTON_LAG] = step[go]
        live = live[go]
        if not live.size:
            break
        y[live] = kernel.exp_ortho(y[live], h[go])
    return y, nu


def _drop(state, rows, col):
    """Remove column col[i] of row rows[i] from each (A, cols) array of state."""
    n = state[0].shape[1]
    src = np.arange(n - 1) + (np.arange(n - 1) >= col[:, None])
    for s in state:
        s[rows[:, None], np.arange(n - 1)] = s[rows[:, None], src]


def _centres(graph: NonlocalGraph, f0: MvImage, active: np.ndarray, rows: np.ndarray):
    """The weighted 1-centre of every vertex of a decoupled layer.

    The 1-centre c(u) = argmin_x max_v sqrt(w_uv) d(x, f(v)) is the
    discrete minimizing Lipschitz extension at u with its neighbors fixed
    (Oberman, Math. Comp. 74, 2005).  Each vertex searches its support set
    in the manner of Welzl (LNCS 555, 1991).  In the first round it takes
    the basis S = {i, j} of its extremal pair at f0, at that pair's zero
    z_ij, where the operator of the pair vanishes; where that pair is not
    defined (a log at f0 meets a cut locus), does not move it or has no
    zero, it takes S = {its first neighbor}, at that neighbor's value, with
    value r = 0.  In each later round the farthest
    neighbor v not covered (sqrt(w_v) d > r (1 + _SLACK))
    joins S, and a pivot (_pivot) finds the new basis in the way of Wolfe's
    nearest-point algorithm (Math. Programming 11, 1976), applied to the
    dual of the 1-centre problem: maximize g(l) = min_x sum_b l_b w_b
    d(x, f_b)^2 over the weights l >= 0, sum l = 1, of the members.

    Each basis carries its dual weights l.  The weighted circumcentre of a
    set T (_pair_zero for two members, _circumcentre for more) maximizes g
    over the affine span of T's weights, at l*_b proportional to nu_b /
    sqrt(w_b) for the barycentric coordinates nu of 0 among the unit
    directions to T.  Where l* >= -_SLACK, T is the new basis, at its
    circumcentre.  Otherwise l moves toward l* until a weight meets 0, and
    that member leaves T.  Before v joins a basis of d + 1 members (d the
    manifold dimension), one member leaves by the same rule along the
    affine dependence of the points w_b log_c f_b, which keeps the centre
    c fixed (_make_room).  g does not fall on the way, so in exact
    arithmetic on a manifold without positive curvature each round raises
    the value r = sqrt(g) and no basis comes back.  Where T has no
    circumcentre (weights can leave none, and Newton may not reach one),
    T is not its own support, so its 1-centre is the one of largest value
    among T without one member other than v: each of those m - 1 sets
    pivots the same way from l restricted to it, and inside them a set
    with no circumcentre gives way to the pair of v and another member of
    largest value.  So a round takes at most d steps of one circumcentre
    per vertex, and at most one of them a set with no circumcentre, which
    costs at most d^3 more: polynomial in d, where trying every subset
    would not be.

    All vertices with the same trial size are solved in one batch.  Every
    failure of a map is one vertex's alone: its row comes out not finite
    (NaN at a cut locus, in a singular solve or a Newton that fails), and
    the step that made it drops it, as above.  A search ends when every
    neighbor is covered.

    Returns:
        (values (A, L), supports (A,), rounds, lipschitz): supports counts
        the members of each vertex's final basis, rounds the rounds of the
        search, and lipschitz is the largest sqrt(w_uv) d(c(u), f(v)), as
        the round that ends each vertex's search measures it.
    Raises:
        CutLocusError naming a vertex two of whose supports have no
        geodesic between them; SolverError naming a vertex whose round does
        not raise its value, as rounding at a degenerate basis, or a
        circumcentre that Newton does not reach, can make it.
    """
    kernel = f0.descriptor.kernel
    nbr_vals = f0.flat[graph.ids[rows]]                      # (A, k, L)
    sqw = np.sqrt(graph.weights[rows])
    tol = ZERO_TANGENT_TOL * sqw.max(axis=1)
    A, k = sqw.shape
    dim = f0.descriptor.manifold_dim
    # each vertex's basis (its first `size` slots), their dual weights, its
    # centre c and value r; a lone neighbor's pair is its slot twice
    basis = np.zeros((A, min(dim + 1, max(k, 2))), dtype=np.int64)
    lam = np.zeros(basis.shape)
    lam[:, 0] = 1.0
    size = np.ones(A, dtype=np.int64)
    c = nbr_vals[:, 0].copy()
    r = np.zeros(A)
    # round 1: a vertex whose extremal pair at f0 is defined and moves it
    # starts at that pair's zero instead
    i, j, _, moving = _extremal_batch(kernel, f0.flat[active], nbr_vals, sqw)
    g, pair = np.flatnonzero(moving), np.stack([i, j], axis=1)[moving]
    T, y, target, value = _trials(kernel, nbr_vals, sqw, g, pair, c[g])
    got = np.isfinite(target).all(axis=1)
    g = g[got]
    basis[g, :2], lam[g, :2], c[g], r[g], size[g] = T[got], target[got], y[got], value[got], 2
    supports = np.empty(A, dtype=np.int64)
    lipschitz = 0.0
    pend = np.arange(A)
    for rounds in itertools.count(1):
        far = sqw[pend] * kernel.dist(c[pend, None], nbr_vals[pend])
        v = far.argmax(axis=1)
        far = far[np.arange(pend.size), v]
        done = far <= r[pend] * (1.0 + _SLACK) + tol[pend]
        supports[pend[done]] = size[pend[done]]
        lipschitz = far[done].max(initial=lipschitz)
        pend, v = pend[~done], v[~done]
        if not pend.size:
            return c, supports, rounds, float(lipschitz)
        lam_v = np.zeros(pend.size)
        full = np.flatnonzero(size[pend] == dim + 1)
        if full.size:
            lam_v[full] = _make_room(kernel, nbr_vals, sqw, c, (basis, lam), pend[full], v[full])
            size[pend[full]] -= 1
        basis[pend, size[pend]], lam[pend, size[pend]] = v, lam_v
        size[pend] += 1
        rise = r[pend]
        _pivot(kernel, nbr_vals, sqw, active, (basis, lam), size, c, r, pend)
        if not (r[pend] > rise).all():
            u = int(active[pend[np.argmin(r[pend] > rise)]])
            raise SolverError(f"vertex {u}: round {rounds + 1} of the support search for its "
                              "weighted 1-centre does not raise its value", vertex=u)


def _make_room(kernel, nbr_vals, sqw, c, state, g, v):
    """Drop one member of each full basis g before v joins it; returns v's weights.

    With a_b = w_b log_c f_b, the d + 1 members' a_b reach a_v by the
    barycentric coordinates beta.  Moving the dual weights l by -t beta,
    and v's weight from 0 to t, keeps the centre at c and raises g, up to
    the first member whose weight meets 0.  That member leaves.  Where beta
    is not finite, as where a log meets a cut locus and is NaN, the member
    of least weight leaves, and v joins with weight 0.
    """
    basis, lam = state
    T = np.concatenate([basis[g], v[:, None]], axis=1)        # (n, d + 2)
    a = sqw[g[:, None], T, None] ** 2 * kernel.log_ortho(c[g, None], nbr_vals[g[:, None], T])
    beta = _barycentric(a[:, :-1] - a[:, -1:])
    ok = np.isfinite(beta).all(axis=1)
    cur = lam[g]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(beta > 0.0, cur / beta, np.inf)
    t = np.where(ok, ratio.min(axis=1), 0.0)
    col = np.where(ok, ratio.argmin(axis=1), cur.argmin(axis=1))
    new = cur - t[:, None] * np.where(ok[:, None], beta, 0.0)
    new[np.arange(g.size), col] = 0.0
    total = new.sum(axis=1) + t
    lam[g] = new / total[:, None]
    _drop(state, g, col)
    return t / total


def _trials(kernel, nbr_vals, sqw, rows, T, start):
    """Weighted circumcentres of the member sets T (n, m >= 2) of rows.

    Two members take _pair_zero, the lower slot first; more take
    _circumcentre from start (n, L).  Returns (T, centres (n, L), target
    (n, m), value (n,)): T with each pair sorted, target the dual weights
    l*_b, proportional to nu_b / sqrt(w_b) and summing to 1, NaN where
    the circumcentre was not reached or has nonnegative weights but a
    value above that of the start or of a zero of the last member with
    another; value is the largest sqrt(w) d over T at the centre.  A row
    whose trial is not finite, as where a log meets a cut locus, keeps its
    start as its centre; a zero that is not finite bounds nothing.  Rows do
    not depend on each other.
    """
    if T.shape[1] == 2:
        T = np.sort(T, axis=1)
    fT, wT = nbr_vals[rows[:, None], T], sqw[rows[:, None], T]
    if T.shape[1] == 2:
        y, nu = _pair_zero(kernel, fT[:, 0], fT[:, 1], wT[:, 0], wT[:, 1]), np.full(T.shape, 0.5)
    else:
        y, nu = _circumcentre(kernel, start, fT, wT)
    failed = ~(np.isfinite(y).all(axis=1) & np.isfinite(nu).all(axis=1))
    y[failed], nu[failed] = start[failed], np.nan
    target = nu / wT
    target /= target.sum(axis=1, keepdims=True)
    value = (wT * kernel.dist(y[:, None], fT)).max(axis=1)
    # a 1-centre of T is no farther from T than any point, such as the
    # start or the zero of v, the last member, with another: a centre with
    # nonnegative weights beyond one of them (a far solution on the sphere)
    # is not one, and counts as none
    bound = (wT * kernel.dist(start[:, None], fT)).max(axis=1)
    if T.shape[1] > 2:
        m1, L = T.shape[1] - 1, fT.shape[2]
        fv, wv = np.repeat(fT[:, -1:], m1, axis=1), np.repeat(wT[:, -1:], m1, axis=1)
        z = _pair_zero(kernel, fT[:, :-1].reshape(-1, L), fv.reshape(-1, L),
                       wT[:, :-1].reshape(-1), wv.reshape(-1)).reshape(-1, m1, L)
        # a row with a zero that is not finite keeps the bound of its start
        at_zeros = (wT[:, None] * kernel.dist(z[:, :, None], fT[:, None])).max(axis=2)
        bound = np.fmin(bound, at_zeros.min(axis=1))
    worse = value > bound * (1.0 + _SLACK) + ZERO_TANGENT_TOL * sqw[rows].max(axis=1)
    target[worse & (target >= -_SLACK).all(axis=1)] = np.nan
    return T, y, target, value


def _pivot(kernel, nbr_vals, sqw, active, state, size, c, r, chain, nested=False):
    """Pivot each vertex of chain from its basis plus v to a new basis (see _centres).

    v is the last member.  Updates state (basis, dual weights), size, c and
    r in place.  nested marks the pivots that a set with no circumcentre
    starts for its subsets; inside them such a set gives way to the pair of
    v and another member of largest value.
    """
    basis, lam = state
    while chain.size:
        m = int(size[chain].max())
        g = chain[size[chain] == m]
        T, y, target, value = _trials(kernel, nbr_vals, sqw, g, basis[g, :m], c[g])
        # v, not covered at c, has a positive weight at the maximum of g on
        # T's span; a centre that gives it none is not that maximum
        ok = np.isfinite(target).all(axis=1) & ~(target[:, -1] < -_SLACK)
        if m == 2 and not ok.all():
            u = int(active[g[np.argmin(ok)]])
            raise CutLocusError(f"vertex {u}: two supports of its weighted 1-centre have "
                                "no geodesic between them", vertex=u)
        win = ok & (target >= -_SLACK).all(axis=1)
        a = g[win]
        basis[a, :m], lam[a, :m] = T[win], np.maximum(target[win], 0.0)
        c[a], r[a] = y[win], value[win]
        lost = g[~ok]
        if lost.size:
            # T has no circumcentre, so its 1-centre is the one of largest
            # value among the sets T without one member other than v: each
            # pivots from the weights l restricted to it
            n, j = np.divmod(np.arange(lost.size * (m - 1)), m - 1)
            if nested:
                cols = np.stack([j, np.full(j.size, m - 1)], axis=1)
            else:
                cols = np.arange(m - 1) + (np.arange(m - 1) >= j[:, None])
            at = lost[n]
            sub = (np.zeros((at.size, basis.shape[1]), dtype=np.int64), np.zeros((at.size, basis.shape[1])))
            sub[0][:, :cols.shape[1]] = np.take_along_axis(basis[at], cols, axis=1)
            w = np.take_along_axis(lam[at], cols, axis=1)
            total = w.sum(axis=1, keepdims=True)
            sub[1][:, :cols.shape[1]] = np.where(total > 0.0, w / total, 1.0 / cols.shape[1])
            sub_size, sub_c, sub_r = np.full(at.size, cols.shape[1]), c[at], r[at]
            _pivot(kernel, nbr_vals[at], sqw[at], active[at], sub, sub_size, sub_c, sub_r,
                   np.arange(at.size), nested=True)
            pick = np.arange(lost.size) * (m - 1) + sub_r.reshape(lost.size, m - 1).argmax(axis=1)
            basis[lost], lam[lost], size[lost] = sub[0][pick], sub[1][pick], sub_size[pick]
            c[lost], r[lost] = sub_c[pick], sub_r[pick]
        # the others lose one member: the first whose dual weight meets 0 on
        # the way to the target
        lose = ok & ~win
        cur = lam[g[lose], :m]
        with np.errstate(invalid="ignore"):
            ratio = np.where(target[lose] < 0.0, cur / (cur - target[lose]), np.inf)
        col = ratio.argmin(axis=1)
        new = cur + ratio.min(axis=1)[:, None] * (target[lose] - cur)
        new[np.arange(col.size), col] = 0.0
        lam[g[lose], :m] = new / new.sum(axis=1, keepdims=True)
        _drop(state, g[lose], col)
        size[g[lose]] -= 1
        chain = np.setdiff1d(chain, g[~lose], assume_unique=True)


def _euler(graph: NonlocalGraph, f: MvImage, active: np.ndarray, cfg: SolverConfig):
    """Euler steps of every active vertex, until cfg.eps or cfg.max_iter.

    Returns:
        (image, iterations, trace)
    """
    kernel = f.descriptor.kernel
    trace = []
    denom = None
    for step in range(1, int(cfg.max_iter) + 1):
        prev = f.flat[active]
        f = euler_step(graph, f, active)
        change = float(kernel.dist(prev, f.flat[active]).mean())
        if denom is None:
            denom = change if change > 0.0 else 1.0
        trace.append(change / denom)
        if trace[-1] < cfg.eps:
            break
    return f, step, trace


def _lipschitz(graph: NonlocalGraph, img: MvImage, active: np.ndarray, rows: np.ndarray) -> float:
    """max over the active u and their neighbors v of sqrt(w_uv) d(f(u), f(v))."""
    d = img.descriptor.kernel.dist(img.flat[active][:, None], img.flat[graph.ids[rows]])
    return float((np.sqrt(graph.weights[rows]) * d).max())


class LayerSolve(namedtuple("LayerSolve",
                            "image iterations trace rounds multi_support lipschitz")):
    """What solve_dirichlet returns for one layer.

    image is f0, solved.  iterations and trace (the per-step relative
    changes) are those of the Euler steps: 0 and [] on a decoupled layer.
    rounds counts the rounds of the support search and multi_support the
    vertices whose 1-centre has three supports or more: both 0 on a coupled
    layer.  lipschitz is the largest sqrt(w_uv) d(f(u), f(v)) over the
    active u and their neighbors v in image, from the support search's last
    rounds on a decoupled layer, in the graph's weights (build_graph's are 1
    at each nearest neighbor).  image, iterations and trace stay at positions
    0, 1 and 2, where the benchmark tracer reads them.  A typing.NamedTuple
    would compile its six annotations at import, which costs the
    benchmark's s2-hole64 run about 0.1 MB of peak resident memory.
    """

    __slots__ = ()


def solve_dirichlet(
    graph: NonlocalGraph,
    f0: MvImage,
    mask: Mask,
    active,
    cfg: SolverConfig,
) -> LayerSolve:
    """Solve the layer: 1-centres where it is decoupled, Euler steps otherwise.

    Known (mask) vertices are Dirichlet data and never move.  On a
    decoupled layer (no active vertex's row holds an active id, as on the
    default front layer) every vertex takes its weighted 1-centre, the
    minimizing Lipschitz extension at it given its fixed neighbors (see
    _centres): where that has two supports i < j it is, bitwise, the point
    at fraction sqrt(w_j) / (sqrt(w_i) + sqrt(w_j)) of the geodesic f(v_i)
    -> f(v_j), where the operator of that pair vanishes.  No Euler step
    runs there, and cfg.eps and cfg.max_iter do not matter.

    On a coupled layer, as the driver's coupled pass usually is, every
    active vertex starts from its value in f0 and takes full Euler steps,
    each through the module-level euler_step, until the relative change
    stalls: the mean geodesic displacement of the active vertices divided
    by the same mean at step 1 (1 if that mean is 0) drops below cfg.eps,
    or cfg.max_iter steps have run.  Every step moves every active vertex,
    so the vertex-steps of a layer are iterations times the active count.

    Returns:
        a LayerSolve whose image is f0, the layer written into its active
        vertices: a coupled layer's Euler steps each make a new image, and
        the last one's active values are written into f0.
    Raises:
        DimensionMismatch, SolverError, before solving: active is not vertex
            ids of the grid; an active vertex is known or has no row.
    """
    active = vertex_ids(active, f0.vertex_count, "active")
    check_mask_shape(f0, mask)
    if active.size == 0:
        return LayerSolve(f0, 0, [], 0, 0, 0.0)
    if mask.known_flat[active].any():
        u = int(active[np.argmax(mask.known_flat[active])])
        raise SolverError(f"active vertex {u} is a known pixel", vertex=u)

    rows = _rows(graph, active)
    if np.isin(graph.ids[rows], active).any():
        f, iterations, trace = _euler(graph, f0, active, cfg)
        f0.flat[active] = f.flat[active]
        return LayerSolve(f0, iterations, trace, 0, 0, _lipschitz(graph, f0, active, rows))
    x, supports, rounds, lipschitz = _centres(graph, f0, active, rows)
    f0.flat[active] = x
    return LayerSolve(f0, 0, [], rounds, int((supports >= 3).sum()), lipschitz)
