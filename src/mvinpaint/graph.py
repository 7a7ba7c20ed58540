"""Nonlocal patch graph over a manifold-valued image.

Each target vertex is compared against candidate pixels inside a periodic
search window through patch distances that only use pixels known in both
patches, and keeps directed edges to its k most similar candidates with
weights w = exp(-(d^2 - d1^2) / sigma^2), relative to its nearest one at
d1, as the solver does not see the scale of a row; a weight that
underflows to 0 is no edge.  The targets count as known in every
patch, with their current values, but only known pixels are candidates.

build_graph evaluates these distances with a shift table, the integral-image
scheme of Darbon, Cunha, Chan, Osher and Jensen (ISBI 2008) for nonlocal
means.  The candidate of target t at window offset s is t + s, and its patch
compares the pixel pairs (x, x + s) for x in the patch of t.  For each offset
the masked field

    g_s(x) = K(x) K(x+s) d^2(f(x), f(x+s))

and the overlap field k_s(x) = K(x) K(x+s) are computed once over the
periodic region the target patches cover, and a (2p+1) x (2p+1) box sum of
each, read at the targets, gives every target's patch sum and overlap count
at that offset.  A pixel pair is thus evaluated once per offset instead of
once per overlapping target patch.  When the region holds no unknown
pixel, K is 1 on it: g_s is d^2 itself, every overlap count is (2p+1)^2,
and no overlap field or box sum of one is made.  Where the patches reach
round the grid in an axis, the region is cut to one period in that axis,
and the box sums wrap across the seam, so no pixel pair is evaluated twice
for one offset.
When they cover the whole torus, the fields of s, shifted, give those of -s,

    g_{-s}(x) = g_s(x - s),    k_{-s}(x) = k_s(x - s),

so one field serves each pair {s, -s}, read at the targets' corners for s
and at the corners shifted by -s for -s, and each pixel pair is evaluated
once per build, in the order the field of s gives it: on spd(n >= 3),
whose d^2 is not bitwise symmetric, a torus build thus matches a cut one
to rounding only.  The offsets run in chunks, and each
chunk's candidates are merged into a running best of k per target, so the
memory a build holds is O(T k) for T targets plus one set of chunk fields
per worker thread, not O(T (2r+1)^2).  Each worker makes its set once per
build and reuses it for every chunk it runs, so a build does not allocate,
free and fault in chunk-sized memory over and over; only the box rows each
gather reads, 2p+1 per target and offset, are made afresh.

Every pass over a chunk runs along long contiguous arrays, because the
data are laid out column-major and offset-interleaved, in one layout:

* the shift region is gathered once from its grid rows and columns,
  column-major, one contiguous (column, row) plane per coordinate, and the
  kernels read its window fields through views whose coordinate l is a plane;
* every chunk buffer is held as (column, offset, row), and each is an
  array of its own, so each field the kernel, the overlap test and the
  mask multiply write is one contiguous block, and where the region wraps
  round the grid in columns its copies of the first columns after the
  last are one slab copy;
* a box sum is a sum of 2p+1 column sums, and column j of the sums is
  field columns j, j+1, ..., j+2p added in that order: with W the size of
  one column of every offset, term i is the one contiguous pass
  h[:n W] += f[i W : (i + n) W], over only the n columns whose sums the
  corners read (the targets' column span, or every column when the
  partners' corners are read too);
* the overlap flags are summed as bytes, in the smallest unsigned type
  that holds 2p+1, which is exact since a column sum is at most 2p+1, and
  their box sums in the smallest that holds (2p+1)^2;
* each field's 2p+1 rows of column sums are read straight from the sums:
  at the targets with one (2p+1, T) table of flat positions, made once per
  build and shared by the workers, through a window view of the sums
  whose rows step by one offset slot, so one gather reads the rows of
  every offset of a chunk; at the partners' corners with flat positions
  made per chunk from rows made per offset row.

The rows are then added one by one from the top, so each window is
summed term by term, 2p+1 columns then 2p+1 rows, and its rounding is
relative to its own sum, not to the field's: the bits do not depend on the
chunking, the thread count or the layout.  The tests check the build
against the direct per-pair definition of the patch distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import SolverConfig
from .errors import ConfigError, DimensionMismatch, GraphBuildError
from .image import Mask, MvImage, check_mask_shape, one_vertex_id, vertex_ids


@dataclass
class NonlocalGraph:
    """Directed adjacency of the target vertices as one dense table.

    targets (T,) holds the target ids in ascending order.  Row t of ids
    (T, kmax) lists the neighbors of targets[t] by ascending id, and past
    its degrees[t] real slots repeats the row's first slot; weights holds
    the matching edge weights, padded the same way; build_graph's lie in
    (0, 1], 1 at each row's nearest neighbor.  Vertices that are not
    targets have no neighbors.  build_graph also records the weight scale
    sigma and min_candidates, the smallest number of finite-distance
    candidates any target had to choose its neighbors from.
    """

    vertex_count: int
    targets: np.ndarray
    ids: np.ndarray
    weights: np.ndarray
    degrees: np.ndarray
    sigma: float = 0.0
    min_candidates: int = 0

    def rows(self, vertices) -> np.ndarray:
        """Row of each vertex, taken ascending and once, -1 where it is not a target."""
        v = vertex_ids(vertices, self.vertex_count, "vertices")
        if self.targets.size == 0:
            return np.full(v.shape, -1, dtype=np.int64)
        r = np.minimum(np.searchsorted(self.targets, v), self.targets.size - 1)
        return np.where(self.targets[r] == v, r, -1)

    def neighbors(self, u: int):
        """(ids, weights) of u without padding, ids ascending; empty for non-targets."""
        r = int(self.rows(one_vertex_id(u, self.vertex_count, "u"))[0])
        if r < 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        d = int(self.degrees[r])
        return self.ids[r, :d], self.weights[r, :d]

    @classmethod
    def empty(cls, vertex_count: int) -> "NonlocalGraph":
        return cls.from_adjacency(vertex_count, {})

    @classmethod
    def from_adjacency(cls, vertex_count: int, adjacency):
        """Graph from {u: (ids, weights)}, neighbor lists in any order.

        Vertices with an empty list are not targets.  Each u and each list
        of ids goes through the vertex-id rule, and DimensionMismatch names
        the first vertex whose ids repeat, whose lists differ in length or
        that has a weight that is not positive and finite.
        """
        adjacency = {one_vertex_id(u, vertex_count, "u"): lists
                     for u, lists in adjacency.items()}
        items = []
        for u, (ids, w) in sorted(adjacency.items()):
            ids = np.asarray(ids).reshape(-1)
            w = np.asarray(w, dtype=np.float64).reshape(-1)
            if vertex_ids(ids, vertex_count, f"vertex {u}").size != ids.size:
                raise DimensionMismatch(f"vertex {u}: repeated ids")
            if ids.size != w.size:
                raise DimensionMismatch(f"vertex {u}: {ids.size} ids but {w.size} weights")
            if not ((w > 0.0) & (w < np.inf)).all():
                raise DimensionMismatch(f"vertex {u}: a weight is not positive and finite")
            if ids.size:
                items.append((u, ids.astype(np.int64), w))
        degrees = np.array([ids.size for _, ids, _ in items], dtype=np.int64)
        ids = np.zeros((len(items), degrees.max(initial=0)), dtype=np.int64)
        weights = np.zeros(ids.shape)
        for t, (_, i, w) in enumerate(items):
            ids[t, : i.size] = i
            weights[t, : w.size] = w
        targets = np.array([u for u, _, _ in items], dtype=np.int64)
        return cls._from_rows(vertex_count, targets, ids, weights, degrees)

    @classmethod
    def _from_rows(cls, vertex_count, targets, ids, weights, degrees, sigma=0.0,
                   min_candidates=0):
        """Sort the first degrees[t] slots of each row by id, then pad with slot 0."""
        real = np.arange(ids.shape[1]) < degrees[:, None]
        order = np.argsort(np.where(real, ids, vertex_count), axis=1)
        ids = np.take_along_axis(ids, order, axis=1)
        weights = np.take_along_axis(weights, order, axis=1)
        ids = np.where(real, ids, ids[:, :1])
        weights = np.where(real, weights, weights[:, :1])
        return cls(vertex_count, targets, ids, weights, degrees, sigma, min_candidates)


# pixel pairs per kernel.dist2 call; sets the size of the chunk buffers
_CHUNK_PAIRS = 1 << 16


def _window_offsets(r: int, n: int) -> np.ndarray:
    """Contiguous offsets in [-r, r], one per distinct residue of [-r, r] mod n."""
    lo = -min(r, n // 2)
    return np.arange(lo, lo + min(2 * r + 1, n))


def _periodic_span(coords: np.ndarray, n: int):
    """Start and length of the shortest periodic interval holding coords."""
    u = np.unique(coords)
    gaps = np.diff(u, append=u[0] + n)
    g = int(np.argmax(gaps))
    return int(u[(g + 1) % u.size]), n - int(gaps[g]) + 1


def _add_rows(got: np.ndarray, out: np.ndarray) -> None:
    """Sums (F, T) of the box rows got (F, box, T), one by one from the top, into out.

    Each window is thus summed term by term, box columns then box rows, so
    its rounding is relative to its own sum and not to the whole field's.
    """
    out[...] = got[:, 0]
    for k in range(1, got.shape[1]):
        out += got[:, k]


def _nearest(d: np.ndarray, ids: np.ndarray, k: int):
    """The k smallest (d, id) entries of each row of (T, n) d and ids, ascending."""
    order = np.lexsort((ids, d))[:, :k]
    return np.take_along_axis(d, order, axis=1), np.take_along_axis(ids, order, axis=1)


def build_graph(
    img: MvImage,
    mask: Mask,
    cfg: SolverConfig,
    targets,
) -> NonlocalGraph:
    """Build directed k-nearest patch adjacency for the target vertices.

    For each target, candidates are the other pixels of its periodic
    (2r+1) x (2r+1) window that mask knows; patch distances are computed on
    the positions known in both patches, the targets counting as known with
    their current values (so callers initialize them first), and the k
    smallest finite ones are kept: among distances bitwise equal in the
    build's own summation order, the smaller vertex id first (offsets s and
    -s of a patch that spans a whole period are equal only in exact
    arithmetic, and rounding separates them).
    Weights are exp(-(d^2 - d1^2) / sigma^2) for the target's nearest
    selected distance d1, with sigma either fixed by the config or, for
    "auto", the mean of all selected finite distances of this image; the
    nearest weighs 1, and degrees counts only the positive weights.

    The distances come from the shift table of the module docstring: the
    window offsets, one per distinct candidate, are split into fixed chunks
    that each make one kernel.dist2 call over the region the target patches
    cover, cut to one period in an axis where the patches reach round the
    grid.  When the region is the whole torus, only one offset of each pair
    {s, -s} gets a field, and a chunk's box sums are read twice, for s and,
    shifted, for -s.  Every few chunks,
    their candidates are merged into a running best of the k smallest
    (d, id) per target, with a running count of finite candidates.  The
    chunks are dealt out to up to cfg.resolved_threads() threads, each with
    its own running best and one set of chunk-sized buffers, made once per
    build and reused for every chunk, each an array of its own laid out
    (column, offset, row): the masked field, which kernel.dist2 writes
    into, the overlap flags unless the region holds no unknown pixel, and
    their column sums.  Each gather of box
    rows from the sums makes its own array, (offset, box row, target), and
    the positions at the targets are one table made per build and read by
    every worker.  The bests are merged at the end.  So memory stays
    O(T k) plus one set of chunk buffers per worker.
    A target's candidate ids are distinct, so
    (d, id) orders them totally, and the graph does not depend on the
    thread count, on the chunk size, or, but on spd(n >= 3), on the cut
    or the pairing: there a torus build matches a cut one to rounding.

    Raises DimensionMismatch where targets are not vertex ids of the grid;
    ConfigError, before any buffer is made, where there are targets and a
    patch is wider than the grid (2p + 1 > min(rows, cols)), as it would
    wrap the grid again and again at a cost linear in p; and GraphBuildError
    naming the first target with no finite-distance candidate: none in its
    window, or none with a finite patch distance.
    """
    check_mask_shape(img, mask)

    rows, cols = img.rows, img.cols
    V = rows * cols
    targets = vertex_ids(targets, V, "target")
    if targets.size == 0:
        return NonlocalGraph.empty(V)

    kernel = img.descriptor.kernel
    p, r = cfg.p, cfg.r
    box = 2 * p + 1
    if box > min(rows, cols):
        raise ConfigError(f"p = {p} makes patches of side {box}, wider than the "
                          f"{rows} x {cols} grid")
    t_row, t_col = np.divmod(targets, cols)

    # window offsets (a, b) in A x B, one per candidate; the one that is zero
    # modulo the grid maps t to itself.  Offset o = ia * B.size + ib gives
    # target t the candidate cand_row[t, ia] * cols + cand_col[t, ib]
    A, B = _window_offsets(r, rows), _window_offsets(r, cols)
    cand_row = (t_row[:, None] + A) % rows
    cand_col = (t_col[:, None] + B) % cols
    eligible = mask.known_flat

    # region: the targets' periodic row/column span widened by p, so that
    # target t's patch starts at region pixel (tr, tc); Fw[ib, ia] is the
    # region shifted by the offset (A[ia], B[ib]).  An axis where the widened
    # span reaches round the grid is cut to one period, so that no pixel pair
    # is evaluated twice: box windows then wrap across the seam, rows modulo
    # the grid (the gather positions) and columns through copies of the
    # first columns after the last.  The shift region is gathered once from its
    # rows ri and columns ci, column-major, one contiguous (cols, rows) plane per
    # coordinate, and the kernels see it through views whose last axis steps
    # across the planes: their x[..., l] are planes
    r0, nr = _periodic_span(t_row, rows)
    c0, nc = _periodic_span(t_col, cols)
    nR, nC = min(nr + 2 * p, rows), min(nc + 2 * p, cols)
    ri = (r0 - p + A[0] + np.arange(nR + A[-1] - A[0])) % rows
    ci = (c0 - p + B[0] + np.arange(nC + B[-1] - B[0])) % cols
    F = np.empty((img.data.shape[2], ci.size, ri.size))
    for l, plane in enumerate(np.moveaxis(img.data, 2, 0)):
        F[l] = plane[np.ix_(ri, ci)].T
    # the targets count as known in every patch, with their current values
    known = mask.known.copy()
    known.reshape(-1)[targets] = True
    KF = known.T[np.ix_(ci, ri)]
    del known   # read only here: the chunk merges may reuse its memory
    Fw = np.moveaxis(sliding_window_view(F, (nC, nR), axis=(1, 2)), 0, -1)
    Kw = sliding_window_view(KF, (nC, nR))
    # no unknown pixel in the region: every overlap flag is 1 and every
    # overlap count box * box, so neither is computed
    full = bool(KF.all())
    X, KX = Fw[-B[0], -A[0], :, None], Kw[-B[0], -A[0], :, None]
    tr, tc = (t_row - r0) % rows, (t_col - c0) % cols

    # on the whole torus g_-s(x) = g_s(x - s) and k_-s(x) = k_s(x - s), to
    # rounding on spd(n >= 3), so the fields of s serve its partner -s too:
    # their box sums at the target corners shifted by -s are those of -s.
    # pa[ia] and pb[ib] index -A[ia] and -B[ib] modulo the grid.  Fields are
    # then made for the rows ia <= pa[ia] only, and in a self-paired row
    # (pa[ia] == ia) for the columns ib <= pb[ib]; an offset that is its own
    # partner modulo the grid gets its field alone
    paired = nR == rows and nC == cols
    pa, pb = (-A - A[0]) % rows, (-B - B[0]) % cols
    # the box corners read columns 0 .. ncn - 1 of the column sums: the
    # targets' span, or every column when the partners' corners are read
    # too.  Their windows reach wC = ncn + box - 1 field columns, which is
    # at least nC (a cut span is widened past the grid), and the columns
    # from nC on repeat the first ones periodically
    ncn = nC if paired else nc
    wC = ncn + box - 1
    wrap = np.arange(nC, wC)
    ib = np.arange(B.size)
    if paired:
        spans = [(ia, B.size if ia < pa[ia] else int((ib <= pb).sum()))
                 for ia in range(A.size) if ia <= pa[ia]]
    else:
        spans = [(ia, B.size) for ia in range(A.size)]

    k = cfg.k
    step = max(1, _CHUNK_PAIRS // (nR * nC))    # offsets per chunk
    width = min(step, B.size)                   # offset slots of a chunk buffer
    # a field's box rows at the target corners: row k of target t's window
    # is region row (tr + k) mod nR, so at[k, t] + o nR is its flat position
    # in the (ncn, width, nR) column sums of the chunk's offset o
    at = tc * (width * nR) + (tr + np.arange(box)[:, None]) % nR
    # chunk (ia, jb, je, mir): the fields of the offsets (ia, jb:je), and
    # mir, the positions among them whose partner is another offset
    chunks = []
    for ia, n in spans:
        for jb in range(0, n, step):
            je = min(jb + step, n)
            other = (pa[ia] != ia) | (pb[jb:je] != ib[jb:je])
            chunks.append((ia, jb, je, np.flatnonzero(other & paired)))
    workers = min(cfg.resolved_threads(), len(chunks))
    # chunks merged into the running best at once: about max(k, _CHUNK_PAIRS / T)
    # offsets, so a merge sorts at least as many new entries as kept ones
    per_merge = -(-max(k, _CHUNK_PAIRS // targets.size) // (step * (1 + paired)))

    def work(part):
        """Running best (d, ids) and finite-candidate count over chunks `part`."""
        # one set of chunk buffers, reused by every chunk: the masked field
        # g_s and, unless the region is full, the overlap flags k_s, and
        # their column sums over the first ncn columns, all laid out
        # (column, offset, row), so that a column of every offset of the
        # chunk is one contiguous slab.  The column sums of k_s are at most
        # box, so they are exact in the smallest unsigned type that holds
        # box.  A chunk of fewer offsets than width leaves the last slots of
        # each column with an earlier chunk's fields, or with the zeros the
        # buffers start with: their sums are made but never read
        g = np.zeros((wC, width, nR))
        fields = [(g, np.empty((ncn, width, nR)))]
        if not full:
            both = np.zeros((wC, width, nR), dtype=bool)
            fields.append((both.view(np.uint8),
                           np.empty((ncn, width, nR), dtype=np.min_scalar_type(box))))
        # sums_at[o, q] reads flat position q + o nR of sums, so
        # sums_at[:c, at] gathers the box rows of a chunk's c offsets at once
        fields = [(field, sums, sliding_window_view(sums.reshape(-1),
                                                    sums.size - (width - 1) * nR)[::nR])
                  for field, sums in fields]
        mir_ia = None
        best_d = np.empty((targets.size, 0))
        best_ids = np.empty((targets.size, 0), dtype=np.int64)
        nfin = np.zeros(targets.size, dtype=np.int64)
        for m in range(0, len(part), per_merge):
            block = part[m : m + per_merge]
            oa = np.concatenate([np.repeat([ia, pa[ia]], [je - jb, mir.size])
                                 for ia, jb, je, mir in block])
            ob = np.concatenate([np.concatenate([ib[jb:je], pb[jb + mir]])
                                 for _, jb, je, mir in block])
            ssum = np.empty((oa.size, targets.size))
            # an overlap count is at most box * box, so it is exact in the
            # smallest unsigned type that holds box * box; a full region's
            # counts are all box * box, and others overwrite them
            cnt = np.full((oa.size, targets.size), box * box,
                          dtype=np.min_scalar_type(box * box))
            lo = 0
            for ia, jb, je, mir in block:
                c = je - jb
                kernel.dist2(X, Fw[jb:je, ia].swapaxes(0, 1), g[:nC, :c])
                if not full:
                    np.logical_and(KX, Kw[jb:je, ia].swapaxes(0, 1), out=both[:nC, :c])
                    g[:nC, :c] *= both[:nC, :c]
                if mir.size:
                    # the partners' corners: t - s modulo the grid, as flat
                    # positions (mirrored field, box row, target) in the
                    # column sums, whose rows a worker makes once per offset
                    # row ia
                    if ia != mir_ia:
                        mir_ia = ia
                        mir_rows = (np.arange(box)[:, None] - A[ia] + tr) % rows
                    mir_at = mir_rows + ((tc - B[jb + mir, None]) % cols * (width * nR)
                                         + mir[:, None] * nR)[:, None]
                for (field, sums, sums_at), out in zip(fields, (ssum, cnt)):
                    # the wrap columns, one slab per period of nC columns
                    if wrap.size:
                        np.take(field[:nC], wrap, axis=0, out=field[nC:], mode="wrap")
                    # column j of the sums is field columns j, j + 1, ...,
                    # j + box - 1 added in that order, each term one
                    # contiguous pass over ncn whole columns
                    np.copyto(sums, field[:ncn])
                    for j in range(1, box):
                        sums += field[j : j + ncn]
                    _add_rows(sums_at[:c, at], out[lo : lo + c])
                    if mir.size:
                        _add_rows(np.take(sums, mir_at, mode="clip"),
                                  out[lo + c : lo + c + mir.size])
                lo += c + mir.size
            ids = cand_row[:, oa] * cols + cand_col[:, ob]
            valid = eligible[ids] & (ids != targets[:, None])
            # d = sqrt(ssum) / cnt, formed in ssum; cnt is 0 only where the id
            # is no candidate, as a candidate overlaps its target at the centers
            np.maximum(cnt, 1, out=cnt)
            np.sqrt(ssum, out=ssum)
            ssum /= cnt
            d = ssum.T
            finite = valid & np.isfinite(d)
            nfin += finite.sum(axis=1)
            d[~finite] = np.inf
            # a worker's first merge has no running best to join: copying its
            # candidates into a new pair of arrays first would only raise the
            # build's memory high-water
            if best_d.size:
                d = np.concatenate([best_d, d], axis=1)
                ids = np.concatenate([best_ids, ids], axis=1)
            best_d, best_ids = _nearest(d, ids, k)
        return best_d, best_ids, nfin

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # not loaded by one thread
        with ThreadPoolExecutor(max_workers=workers) as pool:
            bests = list(pool.map(work, [chunks[w::workers] for w in range(workers)]))
    else:
        bests = [work(chunks)]
    # candidate ids are distinct per target, so (d, id) orders them totally
    # and the k best of the union are the k best of the workers' bests
    sel_d, sel_ids = _nearest(np.concatenate([b[0] for b in bests], axis=1),
                              np.concatenate([b[1] for b in bests], axis=1), k)
    nfin = sum(b[2] for b in bests)

    empty = np.flatnonzero(nfin == 0)
    if empty.size:
        first = empty[0]
        t = int(targets[first])
        window = (cand_row[first, :, None] * cols + cand_col[first]).reshape(-1)
        if not (eligible[window] & (window != t)).any():
            raise GraphBuildError(
                f"vertex {t}: no known-center candidate in the search window",
                vertex=t,
            )
        raise GraphBuildError(
            f"vertex {t}: no candidate with a finite patch distance",
            vertex=t,
        )
    if isinstance(cfg.sigma, str):
        sigma = float(sel_d[np.isfinite(sel_d)].mean())
        if sigma <= 0.0:
            sigma = 1.0
    else:
        sigma = float(cfg.sigma)

    # relative to the nearest, d1: in this order a tie with d1 gives exactly
    # 1 and no entry gives NaN; unselected (inf) and underflowing ones give 0
    d1 = sel_d[:, :1]
    with np.errstate(over="ignore"):
        w = np.exp(-((sel_d - d1) / sigma * (sel_d + d1) / sigma))
    degrees = np.logical_and.accumulate(w > 0.0, axis=1).sum(axis=1)
    n = int(degrees.max())
    return NonlocalGraph._from_rows(
        V, targets, sel_ids[:, :n], w[:, :n], degrees, sigma, int(nfin.min())
    )
