"""Shared helpers for the test suite.

Most oracles here are deliberately written the slow, obvious way (plain
Python loops over public scalar API calls) so they stay independent of the
vectorized implementations they check.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np
import pytest

import mvinpaint as mv
from mvinpaint.errors import ConfigError, DimensionMismatch
from mvinpaint.image import Mask, MvImage, check_mask_shape
from mvinpaint.manifolds import ManifoldDescriptor


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


def brute_extremal_pair(graph, img, u):
    """Argmax over all ordered neighbor pairs, ties to the smallest id pair.

    Uses only scalar public API calls, no batching.
    """
    desc = img.descriptor
    ids, w = graph.neighbors(u)
    x = img.flat[u]
    best_key = None
    best_pair = None
    for a in range(len(ids)):
        for b in range(len(ids)):
            la = mv.log_map(desc, x, img.flat[int(ids[a])])
            lb = mv.log_map(desc, x, img.flat[int(ids[b])])
            diff = mv.Tangent(la.base, np.sqrt(w[a]) * la.vec - np.sqrt(w[b]) * lb.vec)
            obj = mv.tangent_norm(desc, x, diff)
            key = (-obj, int(ids[a]), int(ids[b]))
            if best_key is None or key < best_key:
                best_key = key
                best_pair = (int(ids[a]), int(ids[b]))
    return best_pair


def brute_inf_laplacian(graph, img, u):
    """Operator value from the brute-force pair, as a plain tangent vector."""
    desc = img.descriptor
    ids, w = graph.neighbors(u)
    v1, v2 = brute_extremal_pair(graph, img, u)
    a = int(np.flatnonzero(np.asarray(ids) == v1)[0])
    b = a if v1 == v2 else int(np.flatnonzero(np.asarray(ids) == v2)[0])
    x = img.flat[u]
    l1 = mv.log_map(desc, x, img.flat[v1]).vec
    l2 = mv.log_map(desc, x, img.flat[v2]).vec
    s1, s2 = np.sqrt(w[a]), np.sqrt(w[b])
    return (s1 * l1 + s2 * l2) / (s1 + s2)


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
    pts = mv.random_point(desc, rng, size=(rows * cols,))
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
