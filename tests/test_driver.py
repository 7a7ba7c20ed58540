import tracemalloc
import warnings

import numpy as np
import pytest

import mvinpaint as mv
from mvinpaint import operators
from mvinpaint.errors import (
    DimensionMismatch,
    GraphBuildError,
    NotPositiveDefinite,
    SolverError,
)

from conftest import bfs_peel_depths, random_image

E1 = mv.ManifoldDescriptor.euclidean(1)
S2 = mv.ManifoldDescriptor.sphere2()


def hole_mask(rows, cols, i0, j0, h, w):
    known = np.ones((rows, cols), dtype=bool)
    known[i0 : i0 + h, j0 : j0 + w] = False
    return mv.Mask(known)


def cheap_cfg(**kw):
    base = dict(k=3, p=1, r=2, eps=1e-8, max_iter=300)
    base.update(kw)
    return mv.SolverConfig(**base)


class TestFindBorder:
    def test_square_hole_perimeter(self):
        mask = hole_mask(8, 8, 2, 2, 4, 4)
        border = mv.find_border(mask)
        expect = []
        for i in range(2, 6):
            for j in range(2, 6):
                if i in (2, 5) or j in (2, 5):
                    expect.append(i * 8 + j)
        assert border.tolist() == sorted(expect)
        assert border.size == 12

    def test_periodic_corner_hole(self):
        mask = hole_mask(4, 4, 0, 0, 2, 2)
        # wrap-around rows/cols give every hole pixel a known neighbor
        assert mv.find_border(mask).tolist() == [0, 1, 4, 5]

    def test_fully_known(self):
        assert mv.find_border(mv.Mask.all_known(3, 3)).size == 0

    # on the thin and tiny grids a neighbor wraps onto the pixel itself, or
    # N and S are the same pixel
    @pytest.mark.parametrize("shape", [(7, 9), (1, 9), (9, 1), (2, 2), (2, 5)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    def test_matches_bfs_depth_one(self, shape):
        rng = np.random.default_rng(61)
        for _ in range(10):
            known = rng.random(shape) < 0.6
            known[0, 0] = True
            depths = bfs_peel_depths(known)
            border = mv.find_border(mv.Mask(known))
            assert border.tolist() == np.flatnonzero(depths.reshape(-1) == 1).tolist()


class TestInitializeBorder:
    def grid(self):
        return mv.MvImage(E1, np.arange(9.0).reshape(3, 3, 1) * 10.0)

    def test_north_wins(self):
        img = self.grid()
        known = np.ones((3, 3), dtype=bool)
        known[1, 1] = False
        out = mv.initialize_border(img, mv.Mask(known), [4])
        assert out is img
        assert out.data[1, 1, 0] == self.grid().data[0, 1, 0]

    def test_cascade_east_south_west(self):
        img = self.grid()
        # knock out the north neighbor, then north and east, and so on
        known = np.ones((3, 3), dtype=bool)
        known[1, 1] = known[0, 1] = False
        out = mv.initialize_border(img, mv.Mask(known), [4])
        assert out.data[1, 1, 0] == img.data[1, 2, 0]

        known[1, 2] = False
        out = mv.initialize_border(img, mv.Mask(known), [4])
        assert out.data[1, 1, 0] == img.data[2, 1, 0]

        known[2, 1] = False
        out = mv.initialize_border(img, mv.Mask(known), [4])
        assert out.data[1, 1, 0] == img.data[1, 0, 0]

    def test_other_pixels_untouched(self):
        known = np.ones((3, 3), dtype=bool)
        known[1, 1] = False
        out = mv.initialize_border(self.grid(), mv.Mask(known), [4])
        same = np.delete(np.arange(9), 4)
        assert np.array_equal(out.flat[same], self.grid().flat[same])

    def test_rejects_known_pixel_in_border(self):
        img = self.grid()
        with pytest.raises(SolverError):
            mv.initialize_border(img, mv.Mask.all_known(3, 3), [4])

    def test_rejects_pixel_without_known_neighbor(self):
        img = mv.MvImage(E1, np.zeros((5, 5, 1)))
        known = np.zeros((5, 5), dtype=bool)
        known[0, 0] = True
        with pytest.raises(SolverError) as exc:
            mv.initialize_border(img, mv.Mask(known), [12])
        assert exc.value.vertex == 12

    # 4x7, so swapped rows and cols or a dropped wrap give other neighbors
    SEAM_KNOWN = np.array([[0, 0, 0, 0, 0, 1, 1],
                           [0, 1, 0, 1, 0, 1, 0],
                           [1, 0, 0, 1, 0, 0, 0],
                           [0, 1, 1, 1, 0, 0, 0]], dtype=bool)

    @staticmethod
    def known_neighbors(known, u):
        """u's N, E, S, W neighbor ids on the periodic grid, known ones only."""
        rows, cols = known.shape
        i, j = divmod(u, cols)
        nbrs = [((i - 1) % rows, j), (i, (j + 1) % cols), ((i + 1) % rows, j), (i, (j - 1) % cols)]
        return [a * cols + b for a, b in nbrs if known[a, b]]

    def test_non_square_periodic_grid(self):
        known = self.SEAM_KNOWN
        rows, cols = known.shape
        img = mv.MvImage(E1, np.arange(float(rows * cols)).reshape(rows, cols, 1))
        border = mv.find_border(mv.Mask(known))
        nbrs = {int(u): self.known_neighbors(known, u) for u in border}
        # only known neighbor across each seam: 2 (N), 26 (S), 0 (W), 20 (E)
        assert [nbrs[u] for u in (2, 26, 0, 20)] == [[23], [5], [6], [14]]
        # several known neighbors, N first or not
        assert nbrs[1] == [22, 8] and nbrs[15] == [8, 22, 14] and nbrs[16] == [17, 23]
        expected = img.flat[:, 0].copy()
        expected[border] = [nbrs[int(u)][0] for u in border]
        out = mv.initialize_border(img, mv.Mask(known), border)
        assert np.array_equal(out.flat[:, 0], expected)

    def test_error_names_first_unfillable_pixel_in_border_order(self):
        img = mv.MvImage(E1, np.zeros((4, 7, 1)))
        known = np.zeros((4, 7), dtype=bool)
        known[0, 6] = True
        # 0 reaches 6 across the seam; 24 and 10 have no known neighbor,
        # and the border is taken in ascending id order
        with pytest.raises(SolverError) as exc:
            mv.initialize_border(img, mv.Mask(known), [0, 24, 10])
        assert exc.value.vertex == 10

    @pytest.mark.parametrize("border", [[-1], [9]])
    def test_ids_outside_the_grid_rejected(self, border):
        # -1 would otherwise index pixel 8, and 9 is past the last pixel
        img = self.grid()
        known = np.ones((3, 3), dtype=bool)
        known[0, 0] = known[2, 2] = False
        with pytest.raises(DimensionMismatch, match="border ids outside the grid"):
            mv.initialize_border(img, mv.Mask(known), border)


class TestNearestKnownFill:
    def test_column_source(self):
        data = np.zeros((4, 4, 1))
        data[:, 0, 0] = [0.0, 10.0, 20.0, 30.0]
        img = mv.MvImage(E1, data)
        known = np.zeros((4, 4), dtype=bool)
        known[:, 0] = True
        out = mv.nearest_known_fill(img, mv.Mask(known))
        for i in range(4):
            assert (out.data[i, :, 0] == 10.0 * i).all()

    def test_north_beats_west(self):
        data = np.zeros((3, 3, 1))
        data[0, :, 0] = [0.0, 100.0, 200.0]
        data[:, 0, 0] = [0.0, 7.0, 14.0]
        img = mv.MvImage(E1, data)
        known = np.zeros((3, 3), dtype=bool)
        known[0, :] = True
        known[:, 0] = True
        out = mv.nearest_known_fill(img, mv.Mask(known))
        assert out.data[1, 1, 0] == 100.0

    def test_nothing_to_do(self):
        img = mv.MvImage(E1, np.ones((2, 2, 1)))
        out = mv.nearest_known_fill(img, mv.Mask.all_known(2, 2))
        assert np.array_equal(out.data, img.data)


def replicate_inpaint(img, mask, cfg):
    """The default front loop rebuilt from public pieces, keeping each
    layer's graph and active set for later residual checks."""
    work = img.copy()
    mask_now = mask.copy()
    captured = []
    while not mask_now.known.all():
        border = mv.find_border(mask_now)
        work = mv.initialize_border(work, mask_now, border)
        graph = mv.build_graph(work, mask_now, cfg, border)
        work = mv.solve_dirichlet(graph, work, mask_now, border, cfg).image
        captured.append((graph, border))
        mask_now.known_flat[border] = True
    return work, captured


class TestInpaint:
    def test_ring_two_layers(self):
        data = np.zeros((1, 8, 1))
        data[0, 4, 0] = 4.0
        img = mv.MvImage(E1, data)
        known = np.zeros((1, 8), dtype=bool)
        known[0, 0] = known[0, 4] = True
        mask = mv.Mask(known)
        cfg = cheap_cfg(k=2, p=0, r=3, eps=1e-9, max_iter=2000)
        out, front = mv.inpaint(img, mask, cfg)
        assert [rec.border_size for rec in front.log] == [4, 2]
        assert [rec.index for rec in front.log] == [1, 2]

        ref, captured = replicate_inpaint(img, mask, cfg)
        assert np.array_equal(out.data, ref.data)

        # the image is a fixed point of every layer's own equation
        for graph, border in captured:
            for u in border:
                res = mv.inf_laplacian(graph, out, int(u))
                assert np.linalg.norm(res) < 1e-4

    def test_matches_replicated_loop_on_sphere(self):
        rng = np.random.default_rng(62)
        img = random_image(S2, 6, 6, rng)
        mask = hole_mask(6, 6, 1, 2, 3, 3)
        cfg = cheap_cfg()
        out, front = mv.inpaint(img, mask, cfg)
        ref, _ = replicate_inpaint(img, mask, cfg)
        assert np.array_equal(out.data, ref.data)
        out.validate()

    def test_layers_follow_bfs_peeling(self):
        rng = np.random.default_rng(63)
        img = random_image(E1, 10, 10, rng)
        known = rng.random((10, 10)) < 0.5
        known[0, 0] = True
        mask = mv.Mask(known)
        depths = bfs_peel_depths(known)
        out, front = mv.inpaint(img, mask, cheap_cfg())
        assert len(front.log) == depths.max()
        for rec in front.log:
            assert rec.border_size == int((depths == rec.index).sum())
        assert depths.max() <= 100  # progress: far fewer layers than pixels

    def test_constant_image_stays_bitwise_constant(self):
        img = mv.MvImage.constant(S2, 16, 16, [0.0, 0.0, 1.0])
        mask = hole_mask(16, 16, 6, 6, 4, 4)
        out, front = mv.inpaint(img, mask, cheap_cfg(k=5, p=2, r=4))
        assert np.array_equal(out.data, img.data)
        # every operator is an exact zero: no vertex is left to Euler
        assert all(rec.multi_support == 0 for rec in front.log)
        assert all(rec.iterations == 0 for rec in front.log)
        assert all(rec.converged for rec in front.log)

    def test_layer_stopped_by_max_iter_is_not_converged(self):
        # with cumulative_active the second layer is coupled: it takes Euler
        # steps, which max_iter stops.  The decoupled first layer is solved
        # by its 1-centres, which max_iter does not limit
        rng = np.random.default_rng(65)
        img = random_image(S2, 8, 8, rng)
        mask = hole_mask(8, 8, 2, 2, 3, 3)
        cfg = cheap_cfg(max_iter=1, cumulative_active=True)
        _, front = mv.inpaint(img, mask, cfg)
        assert len(front.log) == 2
        first, second = front.log
        assert (first.iterations, first.residual, first.converged) == (0, 0.0, True)
        assert second.iterations == 1
        assert second.residual >= cfg.eps
        assert second.converged is False
        assert (second.rounds, second.multi_support) == (0, 0)
        assert all(rec.sigma > 0.0 for rec in front.log)

    def test_readme_example_takes_no_euler_step(self, monkeypatch):
        # the README's 64x64 example with r=16, whose truth is that of the
        # s2-hole64 benchmark input: every layer is decoupled, so each pixel
        # takes its weighted 1-centre and no Euler step runs.  Layers 1 and
        # 2 used to run to max_iter on pixels whose extremal pairs cycle
        steps = []
        monkeypatch.setattr(operators, "euler_step", lambda *a, **kw: steps.append(a))
        truth = mv.generate_sphere_image(64, 64)
        hole = mv.cut_mask(64, 64, (24, 24, 16, 16))
        cfg = mv.SolverConfig(k=25, p=12, r=16)
        _, front = mv.inpaint(truth, hole, cfg)
        assert not steps
        assert len(front.log) == 8
        for rec in front.log:
            assert rec.converged and rec.iterations == 0
        assert front.log[0].multi_support > 0

    def test_known_pixels_bitwise_preserved(self):
        rng = np.random.default_rng(64)
        img = random_image(S2, 8, 8, rng)
        mask = hole_mask(8, 8, 2, 3, 4, 3)
        out, _ = mv.inpaint(img, mask, cheap_cfg())
        kn = mask.known_flat
        assert np.array_equal(out.flat[kn], img.flat[kn])
        out.validate()

    def test_deterministic_across_runs_and_threads(self):
        img = mv.generate_sphere_image(12, 12)
        mask = hole_mask(12, 12, 4, 4, 4, 4)
        outs = []
        for threads in (1, 1, 3):
            out, _ = mv.inpaint(img, mask, cheap_cfg(threads=threads))
            outs.append(out.data.tobytes())
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize("cumulative", [False, True])
    def test_callers_image_is_left_as_it_was(self, cumulative):
        img = mv.generate_sphere_image(12, 12)
        before = img.data.tobytes()
        out, _ = mv.inpaint(img, hole_mask(12, 12, 4, 4, 4, 4),
                            cheap_cfg(cumulative_active=cumulative, max_iter=20))
        assert img.data.tobytes() == before
        assert out.data.tobytes() != before

    @pytest.mark.parametrize("generate", [mv.generate_sphere_image, mv.generate_spd_image])
    def test_peak_memory_is_about_one_image(self, generate):
        # the front loop fills one working copy of the image, and a layer's
        # graph build gathers only the region its patches cover: a run holds
        # about one image beyond its caller's
        img = generate(512, 512)
        mask = hole_mask(512, 512, 248, 248, 16, 16)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            mv.inpaint(img, mask, cheap_cfg(k=10, p=6, r=8, threads=1))
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * img.data.nbytes

    @pytest.mark.parametrize("cumulative", [False, True])
    @pytest.mark.parametrize("manifold, scale", [("sphere2", 1.0), ("spd2", 1.0),
                                                 ("spd2", 1e150), ("spd2", 1e-70)])
    def test_valid_input_raises_no_runtime_warning(self, manifold, scale, cumulative):
        # spd(2) is affine-invariant, so a scaled image is as valid as the
        # image itself; its determinants reach 1e300 and 1e-140
        if manifold == "sphere2":
            img = mv.generate_sphere_image(16, 16)
        else:
            img = mv.generate_spd_image(16, 16)
            img.data *= scale
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            img.validate()
            out, front = mv.inpaint(img, hole_mask(16, 16, 6, 6, 4, 4),
                                    cheap_cfg(k=5, p=2, r=4, max_iter=20,
                                              cumulative_active=cumulative))
            out.validate()
        assert any(rec.iterations for rec in front.log) == cumulative

    def test_fully_known_returns_copy(self):
        img = mv.MvImage.constant(E1, 3, 3, [2.0])
        out, front = mv.inpaint(img, mv.Mask.all_known(3, 3), cheap_cfg())
        assert np.array_equal(out.data, img.data)
        assert out.data is not img.data
        assert front.log == []

    def test_cumulative_active_keeps_layers_moving(self):
        rng = np.random.default_rng(65)
        img = random_image(S2, 8, 8, rng)
        mask = hole_mask(8, 8, 2, 2, 4, 4)
        out, front = mv.inpaint(img, mask, cheap_cfg(cumulative_active=True))
        sizes = [rec.active_size for rec in front.log]
        assert sizes == sorted(sizes) and sizes[-1] == 16
        assert np.array_equal(out.flat[mask.known_flat], img.flat[mask.known_flat])
        out.validate()

    def test_shape_mismatch_rejected(self):
        img = mv.MvImage.constant(E1, 3, 3, [0.0])
        with pytest.raises(DimensionMismatch):
            mv.inpaint(img, mv.Mask.all_known(2, 2), cheap_cfg())

    @pytest.mark.parametrize("error", [GraphBuildError, NotPositiveDefinite],
                             ids=lambda e: e.__name__)
    def test_failures_name_the_layer(self, error, monkeypatch):
        if error is GraphBuildError:
            # every patch distance is NaN, so no candidate has a finite one
            monkeypatch.setattr(type(E1.kernel), "_dist2",
                                lambda self, x, y, out: out.fill(np.nan))
            img = random_image(E1, 6, 6, np.random.default_rng(66))
            cfg = cheap_cfg()
        else:
            # a known pixel in the first layer's patches is 1e-200 * I, which
            # passes point validation but not the distance's definiteness test
            data = mv.generate_spd_image(6, 6).data.copy()
            data[1, 1] = [1e-200, 0.0, 0.0, 1e-200]
            img = mv.MvImage(mv.ManifoldDescriptor.spd(2), data)
            cfg = cheap_cfg()
        mask = hole_mask(6, 6, 2, 2, 2, 2)
        with pytest.raises(error) as exc:
            mv.inpaint(img, mask, cfg)
        assert exc.value.layer == 1
        if error is GraphBuildError:
            assert "no candidate with a finite patch distance" in str(exc.value)


def generic_spd2():
    """10x10 spd(2) image of random values near the identity."""
    rng = np.random.default_rng(1)
    t = 0.4 * rng.normal(size=(10, 10, 3))
    logs = np.stack([t[..., 0], t[..., 1], t[..., 1], t[..., 2]], -1)
    lam, q = np.linalg.eigh(logs.reshape(10, 10, 2, 2))
    data = np.einsum("...ij,...j,...kj->...ik", q, np.exp(lam), q)
    return data.reshape(10, 10, 4)


def generic_sphere2():
    """10x10 sphere2 image of random values near the north pole."""
    rng = np.random.default_rng(1)
    v = np.array([0.0, 0.0, 1.0]) + 0.3 * rng.normal(size=(10, 10, 3))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def assert_inpaint_commutes(desc, data, act, move_mask=lambda known: known):
    """inpaint of (act(data), move_mask(mask)) is act of the inpainted data.

    Every layer of both runs must converge; the outputs must then agree to
    1e-9 rad.
    """
    mask = hole_mask(10, 10, 3, 3, 4, 4)
    cfg = mv.SolverConfig(k=5, p=1, r=3, eps=1e-9, max_iter=3000)
    out, front = mv.inpaint(mv.MvImage(desc, data), mask, cfg)
    moved, front_moved = mv.inpaint(
        mv.MvImage(desc, act(data)), mv.Mask(move_mask(mask.known)), cfg
    )
    assert [rec.converged for rec in front.log] == [True, True]
    assert [rec.converged for rec in front_moved.log] == [True, True]
    d = desc.kernel.dist(moved.flat, act(out.data).reshape(moved.flat.shape))
    assert d.max() < 1e-9


class TestIsometryEquivariance:
    """inpaint commutes with an isometry applied to the whole image.

    The patch distances, the operator and the Euler step are all invariant
    or equivariant under the isometry, so the two runs differ by rounding
    only.  The images are generic (random values near one point, so that
    every layer converges), which keeps exact patch-distance ties, whose
    winner may legitimately flip, out of the graphs.
    """

    def test_spd_congruence(self):
        G = np.array([[1.3, 0.4], [-0.2, 0.9]])

        def act(d):
            m = G @ d.reshape(d.shape[:-1] + (2, 2)) @ G.T
            return (0.5 * (m + np.swapaxes(m, -1, -2))).reshape(d.shape)

        assert_inpaint_commutes(mv.ManifoldDescriptor.spd(2), generic_spd2(), act)

    def test_sphere_rotation(self):
        R, _ = np.linalg.qr(np.random.default_rng(99).normal(size=(3, 3)))
        assert_inpaint_commutes(S2, generic_sphere2(), lambda d: d @ R.T)

    @pytest.mark.filterwarnings("error")
    def test_spd_scaling_by_1e150_warns_nothing(self):
        # v w in spd(2)'s dist2 overflows on such pixels, and its scaled
        # recomputation serves them; no numpy warning may reach the caller
        img = mv.generate_spd_image(24, 24)
        mask = mv.cut_mask(24, 24, (10, 10, 4, 4))
        cfg = mv.SolverConfig(k=5, p=2, r=4)
        ref, _ = mv.inpaint(img, mask, cfg)
        out, _ = mv.inpaint(mv.MvImage(img.descriptor, img.data * 1e150), mask, cfg)
        assert img.descriptor.kernel.dist(out.flat, ref.flat * 1e150).max() < 1e-12


class TestPeriodicRoll:
    """inpaint commutes with a periodic roll of image and mask.

    Front layers, search windows and patches all wrap around the grid, so
    only vertex ids, and with them the order of sums, change.  The generic
    images of TestIsometryEquivariance keep ties out, as there.
    """

    @pytest.mark.parametrize("shift", [(3, -4), (-5, 7)])
    @pytest.mark.parametrize(
        "desc, data",
        [(S2, generic_sphere2()), (mv.ManifoldDescriptor.spd(2), generic_spd2())],
        ids=["sphere2", "spd2"],
    )
    def test_rolled_input_gives_rolled_output(self, desc, data, shift):
        def roll(a):
            return np.roll(a, shift, axis=(0, 1))

        assert_inpaint_commutes(desc, data, roll, roll)
