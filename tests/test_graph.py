import tracemalloc
from itertools import product

import numpy as np
import pytest

import mvinpaint as mv
from mvinpaint import graph as graph_mod
from mvinpaint.errors import ConfigError, DimensionMismatch, GraphBuildError

from conftest import extract_patch, patch_distance, random_image

E1 = mv.ManifoldDescriptor.euclidean(1)
E2 = mv.ManifoldDescriptor.euclidean(2)
S1 = mv.ManifoldDescriptor.circle()
S2 = mv.ManifoldDescriptor.sphere2()
SPD2 = mv.ManifoldDescriptor.spd(2)
SPD3 = mv.ManifoldDescriptor.spd(3)


def cfg(**kw):
    base = dict(k=3, p=1, r=2)
    base.update(kw)
    return mv.SolverConfig(**base)


def scalar_image(values):
    data = np.asarray(values, dtype=np.float64)[..., None]
    return mv.MvImage(E1, data)


def brute_candidates(rows, cols, t, r):
    """Window vertex ids around t, periodic, without t itself."""
    i, j = divmod(t, cols)
    ids = set()
    for di, dj in product(range(-r, r + 1), repeat=2):
        ids.add(((i + di) % rows) * cols + (j + dj) % cols)
    ids.discard(t)
    return sorted(ids)


def assert_matches_oracle(g, img, mask, targets, k, p, r):
    """g selects each target's k nearest by the direct patch distances, with their weights."""
    desc, rows, cols = img.descriptor, img.rows, img.cols
    # candidates are the known pixels; in patches the targets count too
    patch_known = mask.known.copy()
    patch_known.reshape(-1)[targets] = True
    in_patches = mv.Mask(patch_known)
    selected = {}
    pooled = []
    counts = []
    for t in targets:
        pt = extract_patch(img, in_patches, divmod(t, cols), p)
        cand = []
        for cid in brute_candidates(rows, cols, t, r):
            if not mask.known_flat[cid]:
                continue
            pc = extract_patch(img, in_patches, divmod(cid, cols), p)
            d = patch_distance(pt, pc, desc)
            if np.isfinite(d):
                cand.append((d, cid))
        cand.sort()
        assert len(cand) > 0
        counts.append(len(cand))
        # the k nearest, ties by id; but candidates whose oracle
        # distances are bitwise equal may compare the same pixel pairs
        # (offsets s and -s when a patch spans a whole period), which
        # the build sums in another order, so its rounding may split
        # them either way
        last = cand[:k][-1][0]
        ids = g.neighbors(t)[0].tolist()
        assert {cid for d, cid in cand if d < last} <= set(ids)
        assert set(ids) <= {cid for d, cid in cand if d <= last}
        assert len(ids) == len(cand[:k])
        selected[t] = {cid: d for d, cid in cand if cid in ids}
        pooled.extend(selected[t].values())
    assert g.min_candidates == min(counts)
    sigma = float(np.mean(pooled))
    assert abs(g.sigma - sigma) < 1e-12
    for t in targets:
        ids, w = g.neighbors(t)
        # relative to the target's nearest selected distance
        d1 = min(selected[t].values())
        for cid, wc in zip(ids.tolist(), w):
            ref = np.exp(-(selected[t][cid] ** 2 - d1 ** 2) / sigma ** 2)
            assert abs(wc - ref) < 1e-12


class TestExtractPatch:
    def test_radius_zero(self):
        img = scalar_image([[1.0, 2.0], [3.0, 4.0]])
        mask = mv.Mask(np.array([[True, False], [True, True]]))
        p = extract_patch(img, mask, (0, 1), 0)
        assert p.values.shape == (1, 1)
        assert p.values[0, 0] == 2.0
        assert p.known.tolist() == [False]

    def test_periodic_wrap(self):
        img = scalar_image(np.arange(9.0).reshape(3, 3))
        mask = mv.Mask.all_known(3, 3)
        p = extract_patch(img, mask, (0, 0), 1)
        # scan order of rows (2,0,1) x cols (2,0,1)
        assert p.values[:, 0].tolist() == [8.0, 6.0, 7.0, 2.0, 0.0, 1.0, 5.0, 3.0, 4.0]
        assert p.known.all()

    def test_patch_is_a_copy(self):
        img = scalar_image([[1.0, 2.0], [3.0, 4.0]])
        p = extract_patch(img, mv.Mask.all_known(2, 2), (0, 0), 0)
        img.data[0, 0, 0] = 9.0
        assert p.values[0, 0] == 1.0


class TestPatchDistance:
    def test_single_pixel_values(self):
        img = scalar_image([[2.0, 6.0]])
        mask = mv.Mask.all_known(1, 2)
        a = extract_patch(img, mask, (0, 0), 0)
        b = extract_patch(img, mask, (0, 1), 0)
        assert patch_distance(a, b, E1) == 4.0
        assert patch_distance(a, a, E1) == 0.0

    def test_empty_overlap_is_infinite(self):
        img = scalar_image([[2.0, 6.0]])
        mask = mv.Mask(np.array([[True, False]]))
        a = extract_patch(img, mask, (0, 0), 0)
        b = extract_patch(img, mask, (0, 1), 0)
        assert patch_distance(a, b, E1) == float("inf")
        assert patch_distance(b, b, E1) == float("inf")

    def test_symmetry(self):
        rng = np.random.default_rng(21)
        img = random_image(E2, 5, 5, rng)
        mask = mv.Mask(rng.random((5, 5)) < 0.7)
        a = extract_patch(img, mask, (1, 2), 1)
        b = extract_patch(img, mask, (3, 4), 1)
        assert patch_distance(a, b, E2) == patch_distance(b, a, E2)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(22)
        img = random_image(S2, 6, 6, rng)
        mask = mv.Mask(rng.random((6, 6)) < 0.6)
        a = extract_patch(img, mask, (2, 3), 1)
        b = extract_patch(img, mask, (5, 0), 1)
        acc = 0.0
        cnt = 0
        for o in range(a.values.shape[0]):
            if a.known[o] and b.known[o]:
                acc += S2.kernel.dist(a.values[o], b.values[o]) ** 2
                cnt += 1
        assert cnt > 0
        assert abs(patch_distance(a, b, S2) - np.sqrt(acc) / cnt) < 1e-12


class TestNonlocalGraph:
    def test_from_adjacency_sorts_and_pads_rows(self):
        g = mv.NonlocalGraph.from_adjacency(
            8, {5: ([7, 2, 4], [0.1, 0.2, 0.3]), 1: ([6], [0.5]), 3: ([], [])}
        )
        assert g.targets.tolist() == [1, 5]
        assert g.degrees.tolist() == [1, 3]
        assert g.ids.tolist() == [[6, 6, 6], [2, 4, 7]]
        assert g.weights.tolist() == [[0.5, 0.5, 0.5], [0.2, 0.3, 0.1]]
        ids, w = g.neighbors(5)
        assert ids.tolist() == [2, 4, 7] and w.tolist() == [0.2, 0.3, 0.1]
        assert g.neighbors(1)[0].tolist() == [6]
        assert [len(g.neighbors(u)[0]) for u in (5, 3, 0)] == [3, 0, 0]
        assert g.neighbors(3)[0].size == 0
        assert g.rows([0, 1, 5, 7]).tolist() == [-1, 0, 1, -1]
        # the ids are taken ascending, each once
        assert g.rows([7, 5, 1, 0, 5]).tolist() == [-1, 0, 1, -1]

    @pytest.mark.parametrize(
        "edges",
        [{0: ([1, 2], [1.0])}, {0: ([1, 4], [1.0, 1.0])}, {0: ([1, 1], [1.0, 1.0])},
         {4: ([1], [1.0])}, {0: ([2.9, 1.2], [1.0, 1.0])},
         {2: ([1, 3], [0.0, 1.0])}, {2: ([1, 3], [-1.0, 1.0])},
         {2: ([1, 3], [np.nan, 1.0])}, {2: ([1, 3], [np.inf, 1.0])}],
        ids=["lengths", "id-range", "repeated-id", "vertex-range", "float-id",
             "zero-weight", "negative-weight", "nan-weight", "inf-weight"],
    )
    def test_from_adjacency_rejects_bad_lists(self, edges):
        with pytest.raises(DimensionMismatch) as err:
            mv.NonlocalGraph.from_adjacency(4, edges)
        if 2 in edges:
            assert str(err.value) == "vertex 2: a weight is not positive and finite"

    def test_empty_graph(self):
        g = mv.NonlocalGraph.empty(4)
        assert g.ids.shape == (0, 0)
        assert g.rows([0, 3]).tolist() == [-1, -1]
        assert all(len(g.neighbors(u)[0]) == 0 for u in range(4))


class TestBuildGraph:
    def test_window_covers_whole_small_grid(self):
        img = mv.MvImage.constant(E1, 3, 3, [7.0])
        g = mv.build_graph(img, mv.Mask.all_known(3, 3), cfg(k=8, r=1), [4])
        ids, w = g.neighbors(4)
        assert ids.tolist() == [0, 1, 2, 3, 5, 6, 7, 8]
        assert np.array_equal(w, np.ones(8))

    def test_constant_image_ties_break_by_id(self):
        img = mv.MvImage.constant(E1, 8, 8, [1.5])
        g = mv.build_graph(img, mv.Mask.all_known(8, 8), cfg(k=3, r=3), [0, 27])
        assert g.neighbors(0)[0].tolist() == [1, 2, 3]
        # (3, 3) with r=3 reaches back to the top-left corner, so the
        # all-tied distances resolve to the smallest ids of that window
        assert g.neighbors(27)[0].tolist() == [0, 1, 2]
        # all distances are zero, so the auto scale falls back to 1
        assert g.sigma == 1.0
        assert len(g.neighbors(5)[0]) == 0  # non-target rows stay empty

    def test_patch_wider_than_the_grid_rejected_before_any_buffer(self):
        # a box wider than the grid wraps it again and again, at a cost
        # linear in p: p = 20,000 on 16 x 16 used to take 69 MiB and 7 s.
        # A patch as wide as the grid is still a patch
        img = mv.generate_sphere_image(16, 16)
        mask = mv.cut_mask(16, 16, (7, 7, 2, 2))
        targets = mask.unknown_ids()
        assert mv.build_graph(img, mask, cfg(k=5, p=7, r=4), targets).targets.size == 4
        with pytest.raises(ConfigError, match=r"^p = 8 makes patches of side 17, wider "
                           r"than the 16 x 16 grid$"):
            mv.build_graph(img, mask, cfg(k=5, p=8, r=4), targets)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="^p = 20000 makes patches of side 40001"):
                mv.build_graph(img, mask, cfg(k=5, p=20000, r=4), targets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_k_larger_than_candidate_count(self):
        img = mv.MvImage.constant(E1, 3, 3, [0.0])
        g = mv.build_graph(img, mv.Mask.all_known(3, 3), cfg(k=50, r=1), [0])
        assert len(g.neighbors(0)[0]) == 8

    def test_short_rows_are_padded_with_their_first_slot(self):
        # windows of fewer than k = 8 known pixels: candidates 1, 2, 5, 6, 7
        # and 8 for target 0, the same but 8 for the known target 8
        img = scalar_image(np.arange(9.0).reshape(3, 3))
        known = np.ones((3, 3), dtype=bool)
        known[0, 0] = known[1, 0] = known[1, 1] = False
        g = mv.build_graph(img, mv.Mask(known), cfg(k=8, p=0, r=1), [8, 0])
        assert g.targets.tolist() == [0, 8]
        assert g.degrees.tolist() == [6, 5]
        assert g.ids.shape == (2, 6)
        assert g.neighbors(8)[0].tolist() == [1, 2, 5, 6, 7]
        for row, deg in enumerate(g.degrees):
            ids, w = g.ids[row], g.weights[row]
            assert (np.diff(ids[:deg]) > 0).all()
            assert (ids[deg:] == ids[0]).all() and (w[deg:] == w[0]).all()

    def test_prefers_smaller_patch_distance(self):
        img = scalar_image([[0.0, 1.0, 2.0, 4.0, 9.0]])
        g = mv.build_graph(img, mv.Mask.all_known(1, 5), cfg(k=1, p=0, r=2), [0])
        assert g.neighbors(0)[0].tolist() == [1]

    def test_equal_distances_tie_by_id(self):
        img = scalar_image([[5.0, 3.0, 7.0, 3.0, 1.0]])
        g = mv.build_graph(img, mv.Mask.all_known(1, 5), cfg(k=2, p=0, r=2), [2])
        assert g.neighbors(2)[0].tolist() == [0, 1]

    def test_weights_decay_with_distance(self):
        vals = np.zeros((8, 8))
        vals[:, 4:] = 10.0
        img = scalar_image(vals)
        g = mv.build_graph(img, mv.Mask.all_known(8, 8), cfg(k=24, p=0, r=2), [2 * 8 + 2])
        ids, w = g.neighbors(18)
        same = w[img.flat[ids, 0] == 0.0]
        cross = w[img.flat[ids, 0] == 10.0]
        assert cross.size > 0 and same.size > 0
        assert (same == 1.0).all()
        assert cross.max() < 1.0

    # the default, and one window offset per chunk
    CHUNKS = pytest.mark.parametrize("chunk_pairs", [graph_mod._CHUNK_PAIRS, 1],
                                     ids=["default-chunks", "one-offset-chunks"])

    @CHUNKS
    def test_no_candidate_in_window(self, chunk_pairs, monkeypatch):
        monkeypatch.setattr(graph_mod, "_CHUNK_PAIRS", chunk_pairs)
        known = np.zeros((8, 8), dtype=bool)
        known[4, 4] = True
        img = mv.MvImage.constant(E1, 8, 8, [0.0])
        with pytest.raises(GraphBuildError) as exc:
            mv.build_graph(img, mv.Mask(known), cfg(k=3, r=1), [0])
        assert exc.value.vertex == 0
        assert str(exc.value) == "vertex 0: no known-center candidate in the search window"

    @CHUNKS
    def test_no_finite_distance(self, chunk_pairs, monkeypatch):
        monkeypatch.setattr(graph_mod, "_CHUNK_PAIRS", chunk_pairs)
        # every candidate of the unknown target 5 holds NaN, so each patch
        # distance is NaN although the patches overlap.  An image is made of
        # valid pixels only, so the NaNs are written in place
        known = np.ones((4, 4), dtype=bool)
        known[1, 1] = False
        img = mv.MvImage.constant(E1, 4, 4, [0.0])
        img.flat[np.arange(16) != 5] = np.nan
        with pytest.raises(GraphBuildError) as exc:
            mv.build_graph(img, mv.Mask(known), cfg(k=3, p=0, r=2), [5])
        assert exc.value.vertex == 5
        assert str(exc.value) == "vertex 5: no candidate with a finite patch distance"

    @pytest.mark.parametrize("chunk_pairs, threads", [(graph_mod._CHUNK_PAIRS, 1), (1, 1), (1, 2)],
                             ids=["default-chunks", "one-offset-chunks", "two-threads"])
    def test_valid_and_finite_candidates_must_coincide(self, chunk_pairs, threads, monkeypatch):
        monkeypatch.setattr(graph_mod, "_CHUNK_PAIRS", chunk_pairs)
        # target 0 of a 1 x 5 line, offsets -2..2: ids 3 and 4 are unknown,
        # so they overlap nothing and their distances come out finite (0),
        # but they are not candidates; ids 1 and 2 are candidates holding
        # NaN, written in place.  With one offset per chunk the two kinds
        # never share a chunk, and no candidate has a finite distance
        img = scalar_image([[0.0, 1.0, 2.0, 3.0, 4.0]])
        img.flat[1:3] = np.nan
        mask = mv.Mask(np.array([[False, True, True, False, False]]))
        with pytest.raises(GraphBuildError) as exc:
            mv.build_graph(img, mask, cfg(k=2, p=0, r=2, threads=threads), [0])
        assert exc.value.vertex == 0
        assert str(exc.value) == "vertex 0: no candidate with a finite patch distance"

    def test_target_value_counts_but_target_is_no_candidate(self):
        # the unknown target 5 compares its own value with the candidates',
        # and is not a candidate itself
        known = np.ones((4, 4), dtype=bool)
        known[1, 1] = False
        img = scalar_image(np.arange(16.0).reshape(4, 4))
        g = mv.build_graph(img, mv.Mask(known), cfg(k=3, p=0, r=1), [5])
        ids, _ = g.neighbors(5)
        assert 5 not in ids.tolist()
        # nearest by value difference: 4 and 6 (diff 1), then 2 (diff 3,
        # tied with 8 and kept for its smaller id); rows list ids ascending
        assert ids.tolist() == [2, 4, 6]

    def test_target_values_move_the_selection_and_other_unknowns_do_not(self):
        # 3 x 3 patches on an 8 x 8 grid: target 27 and pixel 29 are
        # unknown, and 29 is no target
        rng = np.random.default_rng(40)
        known = np.ones((8, 8), dtype=bool)
        known[3, 3] = known[3, 5] = False
        mask = mv.Mask(known)
        img = random_image(S2, 8, 8, rng)
        config = cfg(k=4, p=1, r=3)

        def nbrs(f):
            return mv.build_graph(f, mask, config, [27]).neighbors(27)

        ref_ids, ref_w = nbrs(img)
        # a new value at pixel 29 changes no patch distance
        other = img.copy()
        other.flat[29] = -other.flat[29]
        ids, w = nbrs(other)
        assert ids.tolist() == ref_ids.tolist() and w.tobytes() == ref_w.tobytes()
        # the target's own value enters every patch distance: with the
        # values of pixel 48's patch copied round the target's, 48 is at
        # distance 0, the nearest, and a new value at the target alone
        # moves it away, and with it the selection
        same = img.copy()
        for di, dj in product((-1, 0, 1), repeat=2):
            same.data[3 + di, 3 + dj] = img.data[6 + di, dj % 8]
        ids, w = nbrs(same)
        assert w[ids.tolist().index(48)] == 1.0
        same.flat[27] = -same.flat[27]
        moved, _ = nbrs(same)
        assert moved.tolist() != ids.tolist()

    @pytest.mark.parametrize(
        "desc, rows, cols, targets, kpr, known_share, targets_known, seed",
        [
            pytest.param(E2, 7, 7, [0, 10, 24, 48], (4, 1, 2), 1.0, False, 23,
                         id="e2-all-known"),
            # every target known, as in the coupled pass (--coupled-pass), so
            # the targets are candidates of each other
            pytest.param(E2, 7, 8, [3, 17, 30, 44, 55], (4, 1, 2), 0.5, True, 26,
                         id="e2-known-targets"),
            pytest.param(S2, 8, 7, [9, 20, 33, 46], (5, 1, 3), 0.75, False, 27,
                         id="sphere2"),
            pytest.param(SPD2, 7, 7, [8, 16, 24, 40], (4, 1, 2), 0.75, False, 28,
                         id="spd2"),
            # 2r+1 = 9 exceeds both grid sides, so window offsets coincide
            # modulo the grid and every pixel is a candidate exactly once
            pytest.param(S2, 5, 6, [0, 8, 21, 29], (6, 1, 4), 0.8, False, 29,
                         id="window-wider-than-grid"),
            # targets in the first and last rows and columns: patches and
            # windows wrap across the periodic seam
            pytest.param(E2, 8, 9, [0, 8, 9, 17, 63, 71], (4, 2, 2), 0.8, False, 30,
                         id="seam"),
            # targets on every row and column: the region is the whole torus,
            # cut to one period, and the offsets s and -s share one field
            pytest.param(S2, 7, 8, [0, 9, 18, 27, 36, 45, 54, 15], (4, 1, 2), 0.75, False, 34,
                         id="sphere2-torus"),
            pytest.param(S2, 9, 10, [0, 11, 22, 33, 44, 55, 66, 77, 88, 29], (5, 4, 2), 0.8,
                         False, 35, id="sphere2-torus-9x9-patches"),
            # targets on two rows but every column: the region is cut in columns only
            pytest.param(E2, 9, 8, [24, 26, 28, 30, 33, 35, 37, 39], (4, 1, 2), 0.8, False, 36,
                         id="column-period"),
            # 17 x 17 patches on an 18 x 18 torus with 13 pixels unknown:
            # the overlap counts of patch pairs reach 17 * 17 = 289 > 255, so
            # they are summed in 2 bytes (1 byte would wrap them round and
            # fail this)
            pytest.param(S2, 18, 18, [0, 41, 115, 230], (4, 8, 1), 0.97, False, 38,
                         id="counts-past-one-byte"),
            # the ring round a 4 x 4 hole on a 12 x 13 grid: the region is 8 x 8
            # pixels, not the torus, and the corners read only the first 4 of
            # its 8 columns of column sums
            pytest.param(S2, 12, 13, [i * 13 + j for i in range(4, 8) for j in range(5, 9)
                                      if i in (4, 7) or j in (5, 8)],
                         (5, 2, 3), 0.8, False, 39, id="hole-ring"),
        ],
    )
    def test_matches_brute_force_selection(
        self, desc, rows, cols, targets, kpr, known_share, targets_known, seed
    ):
        rng = np.random.default_rng(seed)
        img = random_image(desc, rows, cols, rng)
        known = rng.random((rows, cols)) < known_share
        if targets_known:
            known.reshape(-1)[targets] = True
        mask = mv.Mask(known)
        k, p, r = kpr
        g = mv.build_graph(img, mask, cfg(k=k, p=p, r=r), targets)
        assert_matches_oracle(g, img, mask, targets, k, p, r)

    @pytest.mark.parametrize(
        "unknown, targets, kpr",
        [
            # six unknown pixels, all of them targets, on every other row and
            # every third column of the 12 x 13 torus: their 5 x 5 patches
            # cover it, and no region pixel is unknown
            pytest.param([0, 29, 58, 87, 116, 132], None, (5, 2, 3), id="torus"),
            # a 2 x 2 hole at (5, 6) whose pixels are the targets: the region
            # round it is cut in both axes and holds no unknown pixel
            pytest.param([71, 72, 84, 85], None, (5, 1, 2), id="cut"),
            # the same hole with pixel (3, 8) unknown too, and no target: it
            # lies in the region, in the patches of candidates of row 4
            pytest.param([47, 71, 72, 84, 85], [71, 72, 84, 85], (5, 1, 2),
                         id="cut-one-unknown"),
        ],
    )
    def test_regions_without_unknown_pixels(self, unknown, targets, kpr):
        # where every region pixel is known or a target, the build makes no
        # overlap fields and counts box * box pixels in every patch pair;
        # beside it the case with one unknown pixel runs the overlap fields
        # on the same image
        img = random_image(S2, 12, 13, np.random.default_rng(40))
        known = np.ones(12 * 13, dtype=bool)
        known[unknown] = False
        mask = mv.Mask(known.reshape(12, 13))
        targets = unknown if targets is None else targets
        k, p, r = kpr
        g = mv.build_graph(img, mask, cfg(k=k, p=p, r=r), targets)
        assert_matches_oracle(g, img, mask, targets, k, p, r)

    @pytest.mark.parametrize(
        "desc, rows, cols, kpr",
        [
            pytest.param(S2, 9, 11, (5, 1, 3), id="sphere2-odd"),
            pytest.param(S2, 10, 12, (5, 1, 3), id="sphere2-even"),
            pytest.param(E2, 9, 12, (5, 1, 3), id="e2-odd-even"),
            # 2r + 1 exceeds both sides, so the offsets rows/2 and cols/2 are
            # their own partners modulo the grid
            pytest.param(S2, 6, 8, (6, 1, 5), id="sphere2-window-wider-than-grid"),
            pytest.param(E2, 5, 7, (6, 1, 4), id="e2-odd-window-wider-than-grid"),
            # 9 x 9 patches: windows of more than 8 rows, which numpy's
            # pairwise sum would add in another order than one by one
            pytest.param(S2, 14, 13, (6, 4, 3), id="sphere2-9x9-patches"),
            pytest.param(S1, 9, 12, (5, 1, 3), id="circle-odd-even"),
            pytest.param(S1, 6, 8, (6, 1, 5), id="circle-window-wider-than-grid"),
            pytest.param(SPD2, 9, 11, (5, 1, 3), id="spd2-odd"),
            pytest.param(SPD2, 14, 13, (6, 4, 3), id="spd2-9x9-patches"),
            # dist2 is not bitwise symmetric on spd(3)
            pytest.param(SPD3, 9, 11, (5, 1, 3), id="spd3-odd"),
            pytest.param(SPD3, 14, 13, (6, 4, 3), id="spd3-9x9-patches"),
            pytest.param(SPD3, 6, 8, (6, 1, 5), id="spd3-window-wider-than-grid"),
        ],
    )
    @pytest.mark.parametrize("chunks, threads", [("default", 1), ("one-offset", 1),
                                                 ("three-offset", 1), ("three-offset", 2)])
    def test_pairing_changes_nothing(self, desc, rows, cols, kpr, chunks, threads,
                                     monkeypatch):
        # targets on every row and column, so the patches cover the torus and
        # the build pairs the offsets s and -s.  The same targets on the image
        # tiled 2 x 2 span half of each axis, so that build is neither cut
        # nor paired, and every patch and window holds the same values.  The
        # targets are known pixels, as in the coupled pass (--coupled-pass),
        # so that their copies in the other tiles, which are no targets,
        # count in patches as the targets do
        rng = np.random.default_rng(33)
        img = random_image(desc, rows, cols, rng)
        targets = sorted({(i % rows) * cols + i % cols for i in range(max(rows, cols))}
                         | set(rng.choice(rows * cols, size=4).tolist()))
        known = rng.random(rows * cols) < 0.8
        known[targets] = True
        mask = mv.Mask(known.reshape(rows, cols))
        k, p, r = kpr
        # the region is the whole torus, so three offsets per chunk split a
        # 7-offset row 3 + 3 + 1
        monkeypatch.setattr(graph_mod, "_CHUNK_PAIRS", {
            "default": graph_mod._CHUNK_PAIRS, "one-offset": 1,
            "three-offset": 3 * rows * cols}[chunks])
        cls = type(desc.kernel)
        real = cls.dist2
        pairs = []

        def counting(kernel, x, y, out=None):
            d2 = real(kernel, x, y, out)
            pairs.append(np.size(d2))
            return d2

        monkeypatch.setattr(cls, "dist2", counting)
        config = cfg(k=k, p=p, r=r, threads=threads)
        g = mv.build_graph(img, mask, config, targets)
        # one period per field, and one field per pair {s, -s} modulo the grid
        offsets = {(a % rows, b % cols) for a in range(-r, r + 1) for b in range(-r, r + 1)}
        partners = {frozenset({(a, b), (-a % rows, -b % cols)}) for a, b in offsets}
        assert sum(pairs) == len(partners) * rows * cols
        if 2 * r + 1 > min(rows, cols):
            # window offsets coincide modulo the grid: no tiled twin
            assert_matches_oracle(g, img, mask, targets, k, p, r)
            return
        t_row, t_col = np.divmod(targets, cols)
        tiled = mv.build_graph(mv.MvImage(desc, np.tile(img.data, (2, 2, 1))),
                               mv.Mask(np.tile(mask.known, (2, 2))), config,
                               t_row * 2 * cols + t_col)
        i, j = np.divmod(tiled.ids, 2 * cols)
        ids = (i % rows) * cols + j % cols
        order = np.argsort(ids, axis=1, kind="stable")
        assert np.take_along_axis(ids, order, axis=1).tobytes() == g.ids.tobytes()
        assert tiled.degrees.tobytes() == g.degrees.tobytes()
        assert tiled.min_candidates == g.min_candidates
        weights = np.take_along_axis(tiled.weights, order, axis=1)
        if desc.kind == "spd" and desc.dim > 2:
            # each pixel pair of -s is evaluated in the order its field of s
            # gives it, so the distances agree to rounding only
            np.testing.assert_allclose(g.weights, weights, rtol=1e-12, atol=0.0)
            assert g.sigma == pytest.approx(tiled.sigma, rel=1e-12, abs=0.0)
        else:
            assert weights.tobytes() == g.weights.tobytes()
            assert np.float64(tiled.sigma).tobytes() == np.float64(g.sigma).tobytes()

    @pytest.mark.parametrize("chunks", ["default", "three-offset"])
    def test_cut_to_one_period_changes_nothing(self, chunks, monkeypatch):
        # the same targets on the image tiled 2 x 2: there their patches span
        # only half of each axis, so the region is not cut and no offsets are
        # paired, and every patch and window holds the same values.  The
        # targets are known pixels, as in the coupled pass (--coupled-pass),
        # so that their copies in the other tiles, which are no targets,
        # count in patches as the targets do
        rows, cols, k, p, r = 14, 13, 6, 4, 3
        rng = np.random.default_rng(37)
        img = random_image(S2, rows, cols, rng)
        targets = sorted({(i % rows) * cols + i % cols for i in range(rows)}
                         | set(rng.choice(rows * cols, size=4).tolist()))
        known = rng.random(rows * cols) < 0.8
        known[targets] = True
        known = known.reshape(rows, cols)
        # three offsets per chunk: the region is the whole 14 x 13 torus here
        # and 22 x 21 pixels of the tiled image
        plain_pairs, tiled_pairs = {"default": (graph_mod._CHUNK_PAIRS,) * 2,
                                     "three-offset": (3 * rows * cols,
                                                      3 * (rows + 2 * p) * (cols + 2 * p))}[chunks]
        config = cfg(k=k, p=p, r=r)
        monkeypatch.setattr(graph_mod, "_CHUNK_PAIRS", plain_pairs)
        g = mv.build_graph(img, mv.Mask(known), config, targets)
        t_row, t_col = np.divmod(targets, cols)
        monkeypatch.setattr(graph_mod, "_CHUNK_PAIRS", tiled_pairs)
        tiled = mv.build_graph(mv.MvImage(S2, np.tile(img.data, (2, 2, 1))),
                               mv.Mask(np.tile(known, (2, 2))), config,
                               t_row * 2 * cols + t_col)
        i, j = np.divmod(tiled.ids, 2 * cols)
        ids = (i % rows) * cols + j % cols
        order = np.argsort(ids, axis=1, kind="stable")
        assert np.take_along_axis(ids, order, axis=1).tobytes() == g.ids.tobytes()
        assert np.take_along_axis(tiled.weights, order, axis=1).tobytes() == g.weights.tobytes()
        assert tiled.degrees.tobytes() == g.degrees.tobytes()
        assert np.float64(tiled.sigma).tobytes() == np.float64(g.sigma).tobytes()
        assert tiled.min_candidates == g.min_candidates

    def test_thread_count_does_not_change_output(self):
        rng = np.random.default_rng(24)
        img = random_image(S2, 8, 8, rng)
        known = rng.random((8, 8)) < 0.7
        known[0, 0] = True
        mask = mv.Mask(known)
        targets = mask.unknown_ids()
        g1 = mv.build_graph(img, mask, cfg(k=4, p=1, r=3, threads=1), targets)
        g4 = mv.build_graph(img, mask, cfg(k=4, p=1, r=3, threads=4), targets)
        assert g1.sigma == g4.sigma
        for t in targets:
            ids1, w1 = g1.neighbors(t)
            ids4, w4 = g4.neighbors(t)
            assert np.array_equal(ids1, ids4)
            assert np.array_equal(w1, w4)

    @pytest.mark.parametrize("case", ["constant", "padded", "11x11-patches", "partial-chunks"])
    def test_chunking_changes_nothing(self, case, monkeypatch):
        rng = np.random.default_rng(32)
        # offsets per chunk: three split each row of the window 3 + 3 + 1
        # (r = 3) or 3 + 3 + 3 (r = 4)
        per = 3
        if case == "11x11-patches":
            # windows of 11 rows: numpy's pairwise sum would add them in
            # another order than one by one.  Three targets, whose patches
            # span rows 5..19 and columns 5..21, a region of 15 x 17 pixels
            img = random_image(S2, 40, 40, rng)
            known = np.ones((40, 40), dtype=bool)
            known[[10, 12, 14], [10, 13, 16]] = False
            kpr, region = (10, 5, 4), 15 * 17
        elif case == "partial-chunks":
            # a 5 x 5 hole on a 30 x 30 grid: a region of 11 x 11 pixels, not
            # the torus.  Four offsets per chunk split each 9-offset row of
            # the window 4 + 4 + 1, so the last chunk of a row fills one of
            # the four offset slots of each buffer column, and the other
            # three still hold the fields of the chunk before
            img = random_image(S2, 30, 30, rng)
            known = rng.random((30, 30)) < 0.9
            known[12:17, 12:17] = False
            kpr, region, per = (8, 3, 4), 11 * 11, 4
        else:
            # a quarter known: some windows hold fewer than k = 12 known
            # pixels, so their rows are padded
            known = rng.random((12, 12)) < 0.25
            known[0, 0] = True
            if case == "constant":
                # every distance is 0, so the whole selection is the id tie-break
                img = mv.MvImage.constant(S2, 12, 12, [0.0, 0.0, 1.0])
            else:
                img = random_image(S2, 12, 12, rng)
            # the targets span every row and column, so the shift region is
            # the whole 12 x 12 torus
            kpr, region = (12, 1, 3), 12 * 12
        mask = mv.Mask(known)
        targets = mask.unknown_ids()
        k, p, r = kpr

        def build(chunk_pairs, threads=1):
            monkeypatch.setattr(graph_mod, "_CHUNK_PAIRS", chunk_pairs)
            return mv.build_graph(img, mask, cfg(k=k, p=p, r=r, threads=threads), targets)

        ref = build(graph_mod._CHUNK_PAIRS)
        if case in ("constant", "padded"):
            assert (ref.degrees < 12).any() and (ref.degrees == 12).any()
            assert np.unique(targets // 12).size == np.unique(targets % 12).size == 12
        # 1 gives one offset per chunk
        for g in (build(1), build(per * region), build(1, threads=2),
                  build(per * region, threads=2)):
            assert g.ids.tobytes() == ref.ids.tobytes()
            assert g.weights.tobytes() == ref.weights.tobytes()
            assert g.degrees.tobytes() == ref.degrees.tobytes()
            assert np.float64(g.sigma).tobytes() == np.float64(ref.sigma).tobytes()
            assert g.min_candidates == ref.min_candidates

    def test_peak_memory_is_bounded(self):
        # 128x128 sphere2 with ~2% scattered targets: a per-target gather
        # of all patches would alone hold 16384 * 169 * 3 * 8 B = 66 MB
        rng = np.random.default_rng(31)
        img = random_image(S2, 128, 128, rng)
        targets = rng.choice(128 * 128, size=328, replace=False)
        known = np.ones(128 * 128, dtype=bool)
        known[targets] = False
        mask = mv.Mask(known.reshape(128, 128))
        tracemalloc.start()
        try:
            g = mv.build_graph(img, mask, cfg(k=10, p=6, r=8, threads=1), targets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(len(g.neighbors(int(t))[0]) == 10 for t in targets)
        assert peak < 32 * 2**20

    def test_peak_memory_is_bounded_for_a_wide_window(self):
        # 1843 targets and 33 x 33 window offsets: holding every candidate
        # of every target peaked at 85.5 MB (numpy 2.4); a running best of
        # k per target plus one chunk's fields peaks at about 10 MB
        img = mv.generate_sphere_image(96, 96)
        rng = np.random.default_rng(0)
        targets = rng.choice(96 * 96, size=1843, replace=False)
        known = np.ones(96 * 96, dtype=bool)
        known[targets] = False
        mask = mv.Mask(known.reshape(96, 96))
        tracemalloc.start()
        try:
            g = mv.build_graph(img, mask, cfg(k=25, p=1, r=16, threads=1), targets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (g.degrees == 25).all()
        assert peak < 24 * 2**20

    def test_random_graph_invariants(self):
        rng = np.random.default_rng(25)
        for _ in range(5):
            img = random_image(E1, 6, 6, rng)
            known = rng.random((6, 6)) < 0.75
            known[3, 3] = True
            mask = mv.Mask(known)
            targets = mask.unknown_ids()
            if targets.size == 0:
                continue
            g = mv.build_graph(img, mask, cfg(k=5, p=1, r=2), targets)
            assert g.sigma > 0.0
            for t in targets:
                ids, w = g.neighbors(t)
                assert 1 <= ids.size <= 5
                assert len(set(ids.tolist())) == ids.size
                assert t not in ids.tolist()
                assert ((w > 0.0) & (w <= 1.0)).all() and w.max() == 1.0
                assert mask.known_flat[ids].all()

    def test_fixed_sigma_weights(self):
        img = scalar_image([[0.0, 3.0, 0.0]])
        g = mv.build_graph(img, mv.Mask.all_known(1, 3), cfg(k=2, p=0, r=1, sigma=2.0), [0])
        ids, w = g.neighbors(0)
        assert ids.tolist() == [1, 2]
        assert np.allclose(w, [np.exp(-(3.0 / 2.0) ** 2), 1.0])
        assert g.sigma == 2.0

    def test_underflowing_weight_is_no_edge(self):
        # targets 0 and 4 of a 1 x 8 line, 2 candidates each: 4's lie at
        # distances 2 and 1, 0's at 1 and 100, whose weight
        # exp(-(100^2 - 1^2) / 1^2) underflows to 0
        img = scalar_image([[0.0, 1.0, 2.0, 7.0, 5.0, 6.0, 2.0, 100.0]])
        g = mv.build_graph(img, mv.Mask.all_known(1, 8), cfg(k=2, p=0, r=1, sigma=1.0), [0, 4])
        assert g.degrees.tolist() == [1, 2]
        ids, w = g.neighbors(0)
        assert ids.tolist() == [1] and w.tolist() == [1.0]
        ids, w = g.neighbors(4)
        assert ids.tolist() == [3, 5] and w.tolist() == [np.exp(-3.0), 1.0]

    def test_nearest_weight_is_one_at_any_sigma(self):
        # integer values at the known pixels and half-integers at the
        # targets, one pixel per patch: every distance is at least 0.5 and
        # exact, and many tie
        rng = np.random.default_rng(41)
        vals = rng.integers(0, 4, size=(6, 7)).astype(np.float64)
        targets = rng.choice(42, size=8, replace=False)
        vals.reshape(-1)[targets] += 0.5
        known = np.ones(42, dtype=bool)
        known[targets] = False
        img, mask = scalar_image(vals), mv.Mask(known.reshape(6, 7))
        for sigma in ("auto", 1e-300, 1e300):
            g = mv.build_graph(img, mask, cfg(k=5, p=0, r=2, sigma=sigma), targets)
            for t in targets.tolist():
                ids, w = g.neighbors(t)
                d = np.abs(img.flat[ids, 0] - img.flat[t, 0])
                assert ((w > 0.0) & (w <= 1.0)).all()
                assert (w[d == d.min()] == 1.0).all()
                if sigma == 1e-300:
                    # every weight past the nearest distance underflows
                    assert (d == d.min()).all()
                if sigma == 1e300:
                    assert ids.size == 5 and (w == 1.0).all()

    def test_heavy_tailed_distances_build_and_inpaint(self):
        # target 20 of a 1 x 41 line, p = 0, every other pixel a candidate:
        # 39 distances below 0.04 and one of 9.979 from pixel 0, over 38
        # times the auto sigma, the mean selected distance.  Its weight
        # exp(-(9.979 / sigma)^2) would underflow; relative to the nearest,
        # it still does, and that candidate is no edge
        vals = 0.001 * np.arange(41.0)
        vals[0] = 10.0
        vals[20] = vals[21]          # the value the front copies in, from the east
        img = scalar_image([vals])
        known = np.ones((1, 41), dtype=bool)
        known[0, 20] = False
        config = cfg(k=40, p=0, r=20)
        g = mv.build_graph(img, mv.Mask(known), config, [20])
        d = np.abs(np.delete(vals, 20) - vals[20])
        assert d.max() > 27.3 * g.sigma
        ids, w = g.neighbors(20)
        assert g.degrees.tolist() == [39] and 0 not in ids.tolist()
        assert w.min() > 0.0 and w.max() == 1.0
        out, front = mv.inpaint(img, mv.Mask(known), config)
        assert len(front.log) == 1 and front.log[0].sigma == g.sigma
        assert 0.001 <= out.flat[20, 0] <= 0.04

    def test_empty_targets(self):
        img = mv.MvImage.constant(E1, 2, 2, [0.0])
        g = mv.build_graph(img, mv.Mask.all_known(2, 2), cfg(), [])
        assert all(len(g.neighbors(u)[0]) == 0 for u in range(4))

    def test_bad_targets(self):
        img = mv.MvImage.constant(E1, 2, 2, [0.0])
        with pytest.raises(DimensionMismatch):
            mv.build_graph(img, mv.Mask.all_known(2, 2), cfg(), [99])

    def test_invalid_config_rejected(self):
        img = mv.MvImage.constant(E1, 2, 2, [0.0])
        with pytest.raises(ConfigError):
            mv.build_graph(img, mv.Mask.all_known(2, 2), cfg(k=0), [0])
