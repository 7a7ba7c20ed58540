"""Shared helpers for the test suite.

Most oracles here are deliberately written the slow, obvious way (plain
Python loops that call a kernel map on one point pair at a time) so they
stay independent of the vectorized implementations they check.  Tangent
vectors are in the kernels' ortho coordinates, where the metric is the dot
product.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np
import pytest

import mvinpaint as mv
from mvinpaint import operators
from mvinpaint.errors import ConfigError, CutLocusError, DimensionMismatch, SolverError
from mvinpaint.image import Mask, MvImage, check_mask_shape, one_vertex_id
from mvinpaint.manifolds import ManifoldDescriptor, wrap_angle


def all_descriptors():
    return [
        mv.ManifoldDescriptor.euclidean(1),
        mv.ManifoldDescriptor.euclidean(3),
        mv.ManifoldDescriptor.circle(),
        mv.ManifoldDescriptor.sphere2(),
        mv.ManifoldDescriptor.spd(2),
        mv.ManifoldDescriptor.spd(3),
    ]


@pytest.fixture(params=all_descriptors(), ids=lambda d: d.label())
def descriptor(request):
    return request.param


def make_graph(vertex_count, edges):
    """Build a graph from {u: (ids, weights)} adjacency dictionaries."""
    return mv.NonlocalGraph.from_adjacency(vertex_count, edges)


def path_graph(n, weight=1.0):
    """Chain 0-1-...-(n-1) with unit weights on both directions."""
    edges = {}
    for u in range(n):
        ids = [v for v in (u - 1, u + 1) if 0 <= v < n]
        edges[u] = (ids, [weight] * len(ids))
    return make_graph(n, edges)


def line_image(desc, values):
    data = np.asarray(values, dtype=np.float64).reshape(1, -1, desc.point_len)
    return mv.MvImage(desc, data)


def random_point(desc, rng, size=()):
    """Draw random valid points of desc, (*size, L)."""
    size = tuple(size)
    if desc.kind == "euclidean":
        return rng.normal(size=size + (desc.point_len,))
    if desc.kind == "circle":
        a = rng.uniform(-np.pi, np.pi, size=size + (1,))
        return wrap_angle(a)
    if desc.kind == "sphere2":
        v = rng.normal(size=size + (3,))
        return v / np.linalg.norm(v, axis=-1, keepdims=True)
    n = desc.dim
    g = rng.normal(size=size + (n, n))
    Qm, _ = np.linalg.qr(g)
    lam = np.exp(rng.uniform(-1.0, 1.0, size=size + (n,)))
    X = np.einsum("...ij,...j,...kj->...ik", Qm, lam, Qm)
    return (0.5 * (X + np.swapaxes(X, -1, -2))).reshape(size + (n * n,))


def random_ortho(desc, rng, x, max_norm):
    """Draw a random tangent at each point of x, in ortho coordinates, of norm below max_norm."""
    if desc.kind == "circle":
        return rng.uniform(-max_norm, max_norm, size=x.shape)
    if desc.kind == "spd":
        n = desc.dim
        W = rng.normal(size=x.shape[:-1] + (n, n))
        W = 0.5 * (W + np.swapaxes(W, -1, -2))
        nrm = np.sqrt(np.einsum("...ij,...ij->...", W, W))
        nrm = np.where(nrm == 0.0, 1.0, nrm)
        scale = rng.uniform(0.0, max_norm, size=nrm.shape)
        return (W * (scale / nrm)[..., None, None]).reshape(x.shape)
    v = rng.normal(size=x.shape)
    if desc.kind == "sphere2":
        v = v - np.einsum("...l,...l->...", v, x)[..., None] * x
    nrm = np.linalg.norm(v, axis=-1, keepdims=True)
    nrm = np.where(nrm == 0.0, 1.0, nrm)
    scale = rng.uniform(0.0, max_norm, size=nrm.shape)
    return v / nrm * scale


def log_at(desc, x, y):
    """log_x(y) of one point pair in ortho coordinates; CutLocusError where it is not finite."""
    v = desc.kernel.log_ortho(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64))
    if not np.isfinite(v).all():
        raise CutLocusError("log undefined: target is numerically antipodal to the base")
    return v


def brute_extremal_pair(graph, img, u):
    """Argmax over all ordered neighbor pairs, ties to the smallest id pair.

    Takes each log on its own, one pair at a time, no batching.
    """
    desc = img.descriptor
    ids, w = graph.neighbors(u)
    x = img.flat[u]
    best_key = None
    best_pair = None
    for a in range(len(ids)):
        for b in range(len(ids)):
            la = log_at(desc, x, img.flat[int(ids[a])])
            lb = log_at(desc, x, img.flat[int(ids[b])])
            diff = np.sqrt(w[a]) * la - np.sqrt(w[b]) * lb
            obj = np.sqrt(np.dot(diff, diff))
            key = (-obj, int(ids[a]), int(ids[b]))
            if best_key is None or key < best_key:
                best_key = key
                best_pair = (int(ids[a]), int(ids[b]))
    return best_pair


def brute_inf_laplacian(graph, img, u):
    """Operator value from the brute-force pair, in ortho coordinates."""
    desc = img.descriptor
    ids, w = graph.neighbors(u)
    v1, v2 = brute_extremal_pair(graph, img, u)
    a = int(np.flatnonzero(np.asarray(ids) == v1)[0])
    b = a if v1 == v2 else int(np.flatnonzero(np.asarray(ids) == v2)[0])
    x = img.flat[u]
    l1 = log_at(desc, x, img.flat[v1])
    l2 = log_at(desc, x, img.flat[v2])
    s1, s2 = np.sqrt(w[a]), np.sqrt(w[b])
    return (s1 * l1 + s2 * l2) / (s1 + s2)


def select_extremal_pair(graph, img, u):
    """The ordered neighbor pair (v1, v2) at which the batched operator takes its argmax.

    Diagonal pairs are admissible (objective 0), so a single neighbor v
    yields (v, v); ties go to the lexicographically smallest id pair.
    """
    ((v1, v2),) = operators._batch_at(graph, img, np.array([u]))[1]
    return int(v1), int(v2)


def real_graph_inf_laplacian(graph, f, u):
    """Max/min-difference form of the operator for real vertex functions.

    Computes max_v |max(sqrt(w)(f(v) - f(u)), 0)| minus
    max_v |min(sqrt(w)(f(v) - f(u)), 0)| over the neighbors of u.  Serves as
    an independent cross-check of the manifold operator in the real case.
    """
    u = one_vertex_id(u, graph.vertex_count, "u")
    f = np.asarray(f, dtype=np.float64).reshape(-1)
    if f.size != graph.vertex_count:
        raise DimensionMismatch(
            f"f has {f.size} entries, expected one per vertex ({graph.vertex_count})")
    ids, w = graph.neighbors(u)
    if len(ids) == 0:
        raise SolverError(f"vertex {u} has no neighbors", vertex=u)
    d = np.sqrt(np.asarray(w, dtype=np.float64)) * (f[ids] - f[u])
    up = np.abs(np.maximum(d, 0.0)).max()
    down = np.abs(np.minimum(d, 0.0)).max()
    return float(up - down)


def bfs_peel_depths(known):
    """Layer index each unknown pixel gets filled at (1-based), by BFS.

    Periodic 4-neighborhood, multi-source from the known set.  Matches the
    border-peeling order of the driver by construction.
    """
    known = np.asarray(known, dtype=bool)
    rows, cols = known.shape
    depth = np.where(known, 0, -1)
    queue = deque((i, j) for i in range(rows) for j in range(cols) if known[i, j])
    while queue:
        i, j = queue.popleft()
        for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            ni, nj = (i + di) % rows, (j + dj) % cols
            if depth[ni, nj] < 0:
                depth[ni, nj] = depth[i, j] + 1
                queue.append((ni, nj))
    return depth


def random_image(desc, rows, cols, rng):
    pts = random_point(desc, rng, size=(rows * cols,))
    return mv.MvImage(desc, pts.reshape(rows, cols, desc.point_len))


# The direct per-pair definition of the patch distance, the oracle that
# build_graph's shift table is checked against.

@dataclass
class Patch:
    """A (2p+1) x (2p+1) pixel neighborhood read with periodic wrap.

    values holds the pixel points row-major, known the matching mask flags.
    """

    center: tuple
    radius: int
    values: np.ndarray
    known: np.ndarray


def extract_patch(img: MvImage, mask: Mask, center, radius: int) -> Patch:
    """Copy the periodic patch of the given radius around center.

    known flags are copied from the mask; values are copied regardless of
    the flags so callers must consult known before trusting a pixel.
    """
    if radius < 0:
        raise ConfigError(f"patch radius must be nonnegative, got {radius}")
    check_mask_shape(img, mask)
    i, j = int(center[0]), int(center[1])
    if not (0 <= i < img.rows and 0 <= j < img.cols):
        raise DimensionMismatch(f"patch center {center} outside the grid")
    offsets = np.arange(-radius, radius + 1)
    ri = (i + offsets) % img.rows
    cj = (j + offsets) % img.cols
    values = img.data[np.ix_(ri, cj)].reshape(-1, img.descriptor.point_len).copy()
    known = mask.known[np.ix_(ri, cj)].reshape(-1).copy()
    return Patch(center=(i, j), radius=radius, values=values, known=known)


def patch_distance(a: Patch, b: Patch, desc: ManifoldDescriptor) -> float:
    """Masked mean patch distance (1/|I|) * sqrt(sum_I d^2), inf when |I| = 0.

    I is the set of patch positions known in both patches.
    """
    if a.radius != b.radius or a.values.shape != b.values.shape:
        raise DimensionMismatch("patches have different sizes")
    both = a.known & b.known
    cnt = int(both.sum())
    if cnt == 0:
        return float("inf")
    d2 = desc.kernel.dist2(a.values[both], b.values[both])
    return float(np.sqrt(d2.sum()) / cnt)
