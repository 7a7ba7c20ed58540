import itertools
import tracemalloc

import numpy as np
import pytest

import mvinpaint as mv
from mvinpaint import operators
from mvinpaint.errors import CutLocusError, DimensionMismatch, SolverError

from conftest import (
    brute_extremal_pair,
    brute_inf_laplacian,
    line_image,
    make_graph,
    path_graph,
    random_image,
    random_point,
    real_graph_inf_laplacian,
    select_extremal_pair,
)

E1 = mv.ManifoldDescriptor.euclidean(1)
E2 = mv.ManifoldDescriptor.euclidean(2)
S1 = mv.ManifoldDescriptor.circle()
S2 = mv.ManifoldDescriptor.sphere2()
SPD2 = mv.ManifoldDescriptor.spd(2)
SPD3 = mv.ManifoldDescriptor.spd(3)


def star_graph(values, weights):
    """Vertex 0 carrying f(u), neighbors 1..n with the given weights."""
    n = len(weights)
    g = make_graph(n + 1, {0: (list(range(1, n + 1)), list(weights))})
    img = line_image(E1, [[v] for v in values])
    return g, img


class TestRealOperator:
    def test_all_above(self):
        # neighbors {0, 2} around value 1: the two one-sided terms cancel
        g, img = star_graph([1.0, 0.0, 2.0], [1.0, 1.0])
        assert real_graph_inf_laplacian(g, img.flat[:, 0], 0) == 0.0

    def test_one_sided(self):
        g, img = star_graph([0.0, 0.0, 2.0], [1.0, 1.0])
        assert real_graph_inf_laplacian(g, img.flat[:, 0], 0) == 2.0
        g, img = star_graph([3.0, 0.0, 2.0], [1.0, 1.0])
        assert real_graph_inf_laplacian(g, img.flat[:, 0], 0) == -3.0

    def test_weights_scale_differences(self):
        g, img = star_graph([0.0, 1.0, -1.0], [4.0, 1.0])
        # sqrt(4)*1 forward, sqrt(1)*1 backward
        assert real_graph_inf_laplacian(g, img.flat[:, 0], 0) == 1.0


class TestExtremalPair:
    def test_weighted_example(self):
        g, img = star_graph([1.0, 3.0, 0.0], [4.0, 1.0])
        v1, v2 = select_extremal_pair(g, img, 0)
        assert (v1, v2) == (1, 2)
        delta = mv.inf_laplacian(g, img, 0)
        # (2*2 + 1*(-1)) / (2 + 1)
        assert abs(delta[0] - 1.0) < 1e-14

    def test_single_neighbor_is_diagonal(self):
        g, img = star_graph([1.0, 5.0], [1.0])
        assert select_extremal_pair(g, img, 0) == (1, 1)
        delta = mv.inf_laplacian(g, img, 0)
        assert abs(delta[0] - 4.0) < 1e-14

    def test_constant_neighborhood_ties_to_smallest_ids(self):
        g, img = star_graph([2.0, 2.0, 2.0, 2.0], [1.0, 1.0, 1.0])
        assert select_extremal_pair(g, img, 0) == (1, 1)

    def test_matches_brute_force_euclidean(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            deg = int(rng.integers(1, 7))
            vals = rng.normal(size=deg + 1)
            w = rng.uniform(0.1, 2.0, size=deg)
            g, img = star_graph(vals, w)
            assert select_extremal_pair(g, img, 0) == brute_extremal_pair(g, img, 0)
            got = mv.inf_laplacian(g, img, 0)
            ref = brute_inf_laplacian(g, img, 0)
            assert np.abs(got - ref).max() < 1e-12

    def test_matches_brute_force_sphere(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            deg = int(rng.integers(1, 6))
            img = random_image(S2, 1, deg + 1, rng)
            w = rng.uniform(0.1, 2.0, size=deg)
            g = make_graph(deg + 1, {0: (list(range(1, deg + 1)), list(w))})
            assert select_extremal_pair(g, img, 0) == brute_extremal_pair(g, img, 0)
            got = mv.inf_laplacian(g, img, 0)
            ref = brute_inf_laplacian(g, img, 0)
            assert np.abs(got - ref).max() < 1e-10

    @pytest.mark.parametrize("desc", [E2, SPD3], ids=["e2", "spd3"])
    def test_batch_field_matches_scalar(self, desc):
        # bitwise: a vertex's value may not depend on which other vertices
        # share its batch, or exact ties could break differently
        rng = np.random.default_rng(33)
        img = random_image(desc, 3, 3, rng)
        edges = {}
        for u in range(9):
            others = [v for v in range(9) if v != u]
            picks = rng.choice(others, size=int(rng.integers(1, 5)), replace=False)
            edges[u] = (sorted(int(v) for v in picks), list(rng.uniform(0.2, 1.0, size=len(picks))))
        g = make_graph(9, edges)
        field = mv.inf_laplacian_field(g, img, range(9))
        for u in range(9):
            single = mv.inf_laplacian(g, img, u)
            assert np.array_equal(field[u], single)
        # the rows follow vertex_ids(active): ascending, each vertex once
        picked = mv.inf_laplacian_field(g, img, [5, 2, 5])
        assert picked.shape == (2, desc.point_len)
        for row, u in zip(picked, (2, 5)):
            assert row.tobytes() == mv.inf_laplacian(g, img, u).tobytes()

    def test_empty_neighborhood_rejected(self):
        g = make_graph(2, {0: ([1], [1.0])})
        img = line_image(E1, [[0.0], [1.0]])
        with pytest.raises(SolverError) as exc:
            mv.inf_laplacian(g, img, 1)
        assert exc.value.vertex == 1


class TestTieBreak:
    """The chosen pair depends on neighbor ids and values only.

    Adjacency lists come in shuffled order, equal values make exact
    objective ties, and rows of unequal degree share one batch, so the
    padded slots are read too.
    """

    def test_shuffled_star_ties_to_smallest_ids(self):
        # +1 and -1 twice each: every (+1, -1) pair attains the maximum
        g = make_graph(5, {0: ([4, 2, 3, 1], [1.0] * 4)})
        img = line_image(E1, [[0.0], [1.0], [-1.0], [1.0], [-1.0]])
        assert g.neighbors(0)[0].tolist() == [1, 2, 3, 4]
        assert select_extremal_pair(g, img, 0) == (1, 2)
        assert brute_extremal_pair(g, img, 0) == (1, 2)

    # seed 1 on spd(2) holds exact ties that an objective built from a BLAS
    # Gram product s @ s.T (syrk) splits: it rounds the tail block of an
    # 18-wide product differently
    @pytest.mark.parametrize("desc", [E1, S2, SPD2], ids=lambda d: d.label())
    @pytest.mark.parametrize("seed", [1, 39])
    def test_matches_brute_force(self, desc, seed):
        rng = np.random.default_rng(seed)
        n = 40
        # four distinct values and two weights: neighbors sharing both give
        # equal log vectors, hence exactly tied pairs
        pool = random_point(desc, rng, size=(4,))
        img = line_image(desc, pool[rng.integers(0, 4, size=n)])
        degrees = {0: 1, 1: 3, 2: 6, 3: 18, 4: 2}
        edges = {}
        for u, deg in degrees.items():
            ids = rng.permutation(np.arange(len(degrees), n))[:deg]
            if deg > 1 and (np.diff(ids) > 0).all():
                ids = ids[::-1]
            edges[u] = (ids.tolist(), rng.choice([0.5, 1.0], size=deg).tolist())
        g = make_graph(n, edges)
        active = list(degrees)
        field = mv.inf_laplacian_field(g, img, active)
        stepped = mv.euler_step(g, img.copy(), active)
        for row, u in enumerate(active):
            assert g.neighbors(u)[0].tolist() == sorted(edges[u][0])
            assert select_extremal_pair(g, img, u) == brute_extremal_pair(g, img, u)
            ref = brute_inf_laplacian(g, img, u)
            assert np.abs(field[row] - ref).max() < 1e-10
            moved = desc.kernel.exp_ortho(img.flat[u], ref)
            assert desc.kernel.dist(stepped.flat[u], moved) < 1e-10


def full_gram_extremal(s, sqw):
    """Slots and delta of the first maximum of the full (k, k) einsum objective.

    Every pair's objective comes from one einsum Gram product, searched with
    one argmax and no screen.
    """
    A, k, _ = s.shape
    g = np.einsum("ail,ajl->aij", s, s)
    diag = np.diagonal(g, axis1=1, axis2=2)
    obj = diag[:, :, None] + diag[:, None, :]
    g *= 2.0
    obj -= g
    i, j = np.divmod(obj.reshape(A, -1).argmax(axis=1), k)
    ar = np.arange(A)
    delta = (s[ar, i] + s[ar, j]) / (sqw[ar, i] + sqw[ar, j])[:, None]
    delta[np.einsum("al,al->a", delta, delta) < operators.ZERO_TANGENT_TOL ** 2] = 0.0
    return i, j, delta


def screen_batch(rng, A, k, L, scale):
    """Euclidean (x, nbr_vals, sqw) rows that are hard for a screened argmax.

    Each row is generic, or holds exact duplicates, mirrors s_j = -s_i and
    ulp-level near copies s_j = s_i (1 + 2u) of an extremal point, or is all
    zeros; every row is then padded from a random degree by repeating slot 0.
    """
    u = np.finfo(np.float64).eps / 2
    x = np.zeros((A, L))
    nbr = rng.normal(size=(A, k, L)) * 10.0 ** rng.uniform(-1, 1, size=(A, k, 1))
    sqw = rng.choice([0.5, 1.0, rng.uniform(0.1, 1.0)], size=(A, k))
    for a in range(A):
        kind = rng.integers(4)
        if kind == 1:
            top = rng.normal(size=L) * 20.0
            copies = [top, -top, top * (1 + 2 * u), -top * (1 + 2 * u), top, -top]
            slots = rng.permutation(k)[: len(copies)]
            nbr[a, slots] = copies[: len(slots)]
            sqw[a, slots] = sqw[a, slots[0]]
        elif kind == 2:
            i, j = rng.integers(k, size=2)
            nbr[a, j] = nbr[a, i] * rng.choice([1.0, -1.0, 1 + 2 * u])
            sqw[a, j] = sqw[a, i]
        elif kind == 3:
            nbr[a] = 0.0
        degree = rng.integers(1, k + 1)
        nbr[a, degree:] = nbr[a, 0]
        sqw[a, degree:] = sqw[a, 0]
    return x, nbr * scale, sqw


def assert_screen_matches(kernel, x, nbr, sqw):
    """_extremal_batch gives the full-Gram slots and delta bits, and moving."""
    s = kernel.log_ortho(x[:, None, :], nbr) * sqw[..., None]
    i, j, delta = full_gram_extremal(s, sqw)
    gi, gj, gdelta, moving = operators._extremal_batch(kernel, x, nbr, sqw)
    assert np.array_equal(gi, i) and np.array_equal(gj, j)
    assert gdelta.tobytes() == delta.tobytes()
    assert np.array_equal(moving, np.einsum("al,al->a", delta, delta) > 0.0)


class TestExtremalScreen:
    """The screened pair search returns the full einsum objective's first maximum.

    The reference is the full (k, k) Gram product and argmax, written here.
    """

    @pytest.mark.parametrize("scale", [1e-160, 1e-150, 1e-20, 1.0])
    @pytest.mark.parametrize("k", [1, 2, 10, 25])
    @pytest.mark.parametrize("L", [1, 3, 4, 9])
    def test_matches_full_gram(self, L, k, scale):
        rng = np.random.default_rng([L, k, round(-np.log10(scale))])
        kernel = mv.ManifoldDescriptor.euclidean(L).kernel
        for _ in range(12):
            assert_screen_matches(kernel, *screen_batch(rng, 24, k, L, scale))

    @pytest.mark.parametrize("scale", [1e153, 1e160])
    def test_rows_that_may_overflow_keep_every_pair(self, scale):
        # squared norms near or past the largest double: NaN and inf
        # objectives are searched as the full argmax searches them
        rng = np.random.default_rng(8)
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(12):
                assert_screen_matches(E2.kernel, *screen_batch(rng, 24, 10, 2, scale))

    @pytest.mark.parametrize("L", [1, 3, 9])
    def test_blas_error_at_the_assumed_bound_changes_nothing(self, L, monkeypatch):
        # the screened value is the dot product [s_i, d_i, 1] . [-2 s_j, 1, d_j]
        # of L + 2 terms; perturb the BLAS product by as much as the margin
        # assumes for all of it, (2L + 4) u (d_i + d_j)
        rng = np.random.default_rng(L)
        u = np.finfo(np.float64).eps / 2
        matmul = np.matmul

        def noisy(a, b):
            d = np.einsum("ail,ail->ai", a, a)
            bound = (2 * L + 4) * u * (d[:, :, None] + d[:, None, :])
            return matmul(a, b) + bound * rng.choice([-1.0, 1.0], size=bound.shape)

        kernel = mv.ManifoldDescriptor.euclidean(L).kernel
        batches = [screen_batch(rng, 24, 10, L, 1.0) for _ in range(30)]
        monkeypatch.setattr(operators.np, "matmul", noisy)
        for batch in batches:
            assert_screen_matches(kernel, *batch)


class TestOperatorProperties:
    def test_factor_two_against_real_operator(self):
        # manifold route on euclidean(1) with unit weights equals half the
        # one-sided real route whenever f(u) lies inside the neighbor range
        rng = np.random.default_rng(34)
        for _ in range(1000):
            deg = int(rng.integers(1, 8))
            nbr = rng.normal(size=deg)
            lo, hi = nbr.min(), nbr.max()
            fu = lo + (hi - lo) * rng.random()
            g, img = star_graph([fu] + list(nbr), np.ones(deg))
            man = mv.inf_laplacian(g, img, 0)[0]
            real = real_graph_inf_laplacian(g, img.flat[:, 0], 0)
            assert abs(2.0 * man - real) < 1e-12

    def test_zero_at_constants_is_exact(self):
        g, img = star_graph([4.0, 4.0, 4.0], [1.0, 0.3])
        delta = mv.inf_laplacian(g, img, 0)
        assert delta[0] == 0.0

    def test_scale_equivariance_euclidean(self):
        rng = np.random.default_rng(35)
        for alpha in (2.0, -3.5, 0.25):
            vals = rng.normal(size=5)
            w = rng.uniform(0.2, 1.5, size=4)
            g, img = star_graph(vals, w)
            g2, img2 = star_graph(alpha * vals, w)
            d1 = mv.inf_laplacian(g, img, 0)[0]
            d2 = mv.inf_laplacian(g2, img2, 0)[0]
            assert abs(alpha * d1 - d2) < 1e-12 * max(1.0, abs(alpha * d1))

    def test_rotation_equivariance_sphere(self):
        rng = np.random.default_rng(36)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        img = random_image(S2, 1, 5, rng)
        w = rng.uniform(0.3, 1.0, size=4)
        g = make_graph(5, {0: ([1, 2, 3, 4], list(w))})
        rot = mv.MvImage(S2, img.data @ q.T)
        d = mv.inf_laplacian(g, img, 0)
        dr = mv.inf_laplacian(g, rot, 0)
        assert np.abs(q @ d - dr).max() < 1e-9


class TestEulerStep:
    def test_reads_are_jacobi(self):
        # both vertices update from the old values of each other
        g = make_graph(2, {0: ([1], [1.0]), 1: ([0], [1.0])})
        img = line_image(E1, [[0.0], [10.0]])
        out = mv.euler_step(g, img, [0, 1])
        assert out.flat[0, 0] == 10.0
        assert out.flat[1, 0] == 0.0

    def test_non_active_pixels_bitwise_unchanged(self):
        rng = np.random.default_rng(37)
        img = random_image(S2, 2, 3, rng)
        g = make_graph(6, {0: ([1, 2], [1.0, 1.0])})
        out = mv.euler_step(g, img.copy(), [0])
        changed = np.flatnonzero((out.flat != img.flat).any(axis=1))
        assert changed.tolist() == [0]

    def test_vanishing_operator_keeps_vertex_bitwise(self):
        img = line_image(E1, [[7.25], [7.25], [7.25]])
        g = make_graph(3, {0: ([1, 2], [1.0, 1.0])})
        out = mv.euler_step(g, img.copy(), [0])
        assert np.array_equal(out.data, img.data)

    def test_step_is_written_into_the_given_image(self):
        img = line_image(E1, [[0.0], [4.0]])
        g = make_graph(2, {0: ([1], [1.0])})
        out = mv.euler_step(g, img, [0])
        assert out is img
        assert img.flat[:, 0].tolist() == [4.0, 4.0]

    def test_step_allocates_for_its_active_vertices_only(self):
        # 16 unknown pixels of a 512 x 512 sphere2 image: a copy of the
        # image alone would take 6 MiB
        img = mv.generate_sphere_image(512, 512)
        known = np.ones((512, 512), dtype=bool)
        known[200:204, 300:304] = False
        mask = mv.Mask(known)
        active = mask.unknown_ids()
        graph = mv.build_graph(img, mask, mv.SolverConfig(k=8, p=2, r=4, threads=1), active)
        before = img.flat[active].copy()
        tracemalloc.start()
        try:
            out = mv.euler_step(graph, img, active)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert out is img
        assert (img.flat[active] != before).any(axis=1).all()

    @pytest.mark.parametrize("active", [[-1], [0, 2]])
    def test_active_ids_outside_the_grid_rejected(self, active):
        img = line_image(E1, [[0.0], [4.0]])
        g = make_graph(2, {0: ([1], [1.0])})
        with pytest.raises(DimensionMismatch, match="active ids outside the grid"):
            mv.euler_step(g, img, active)

    @pytest.mark.parametrize("desc", [E1, S2, SPD2], ids=lambda d: d.label())
    def test_vanishing_operator_keeps_its_vertex_among_moving_ones(self, desc):
        graph, img, _, active = star_layer(desc, 4)
        # center 2's neighbors all carry its value, so its operator is zero
        ids, _ = graph.neighbors(2)
        img.flat[ids] = img.flat[2]
        out = mv.euler_step(graph, img.copy(), active)
        moved = (out.flat[active] != img.flat[active]).any(axis=1)
        assert moved.tolist() == [True, True, False, True, True, True]

    def test_cut_locus_error_names_vertex(self):
        img = line_image(S1, [[0.0], [np.pi]])
        g = make_graph(2, {0: ([1], [1.0])})
        with pytest.raises(CutLocusError) as exc:
            mv.euler_step(g, img, [0])
        assert exc.value.vertex == 0
        assert exc.value.neighbor == 1

    def test_cut_locus_error_names_the_first_failed_row_and_its_neighbor(self):
        # vertex 1's neighbor 6, in its third slot, and vertex 2's neighbor 4,
        # in its first, are antipodal to them; vertex 0 is fine
        img = line_image(S1, [[0.0], [1.0], [np.pi - 0.5], [0.8], [-0.5], [1.3], [1.0 - np.pi]])
        g = make_graph(7, {0: ([3, 4], [1.0, 1.0]), 1: ([3, 5, 6], [1.0, 1.0, 1.0]),
                           2: ([4, 6], [1.0, 1.0])})
        with pytest.raises(CutLocusError, match="^vertex 1: neighbor 6 is numerically at the cut "
                           "locus of the current value$") as exc:
            mv.euler_step(g, img, [0, 1, 2])
        assert (exc.value.vertex, exc.value.neighbor) == (1, 6)


class TestSolveDirichlet:
    def test_path_graph_converges_to_ramp(self):
        n = 5
        g = path_graph(n)
        img = line_image(E1, [[0.0]] * (n - 1) + [[4.0]])
        known = np.zeros((1, n), dtype=bool)
        known[0, 0] = known[0, n - 1] = True
        mask = mv.Mask(known)
        cfg = mv.SolverConfig(eps=1e-9, max_iter=2000)
        res = mv.solve_dirichlet(g, img, mask, [1, 2, 3], cfg)
        assert np.abs(res.image.flat[:, 0] - np.arange(5.0)).max() < 1e-4
        assert res.iterations == len(res.trace) <= 2000

    def test_harmonic_input_stops_after_one_sweep(self):
        g = path_graph(5)
        img = line_image(E1, [[float(v)] for v in range(5)])
        known = np.zeros((1, 5), dtype=bool)
        known[0, 0] = known[0, 4] = True
        res = mv.solve_dirichlet(g, img, mv.Mask(known), [1, 2, 3], mv.SolverConfig())
        assert res.iterations == 1
        assert res.trace == [0.0]
        assert np.array_equal(res.image.flat[:, 0], np.arange(5.0))

    def test_trace_eventually_monotone(self):
        g = path_graph(7)
        img = line_image(E1, [[0.0]] * 6 + [[6.0]])
        known = np.zeros((1, 7), dtype=bool)
        known[0, 0] = known[0, 6] = True
        trace = mv.solve_dirichlet(
            g, img, mv.Mask(known), range(1, 6), mv.SolverConfig(eps=1e-10, max_iter=500)
        ).trace
        tail = trace[10:]
        assert all(b <= a + 1e-15 for a, b in zip(tail, tail[1:]))

    def test_known_pixels_never_move(self):
        rng = np.random.default_rng(38)
        g = path_graph(6)
        img = random_image(E1, 1, 6, rng)
        known = np.zeros((1, 6), dtype=bool)
        known[0, 0] = known[0, 5] = True
        out = mv.solve_dirichlet(
            g, img.copy(), mv.Mask(known), range(1, 5), mv.SolverConfig(max_iter=50)
        ).image
        assert np.array_equal(out.flat[0], img.flat[0])
        assert np.array_equal(out.flat[5], img.flat[5])

    def test_empty_active_returns_f0(self):
        g = path_graph(3)
        img = line_image(E1, [[1.0], [2.0], [3.0]])
        res = mv.solve_dirichlet(g, img, mv.Mask.all_known(1, 3), [], mv.SolverConfig())
        assert (res.iterations, res.trace, res.rounds, res.multi_support) == (0, [], 0, 0)
        assert res.lipschitz == 0.0
        assert res.image is img
        assert np.array_equal(img.data, [[[1.0], [2.0], [3.0]]])

    def test_active_must_be_unknown(self):
        g = path_graph(3)
        img = line_image(E1, [[1.0], [2.0], [3.0]])
        known = np.array([[True, False, True]])
        with pytest.raises(SolverError) as exc:
            mv.solve_dirichlet(g, img, mv.Mask(known), [0, 1], mv.SolverConfig())
        assert exc.value.vertex == 0

    @pytest.mark.parametrize("active", [[-1], [3]])
    def test_active_ids_outside_the_grid_rejected(self, active):
        # pixel 2, which -1 would index, is known: the grid check comes first
        g = path_graph(3)
        img = line_image(E1, [[1.0], [2.0], [3.0]])
        known = np.array([[True, False, True]])
        with pytest.raises(DimensionMismatch, match="active ids outside the grid"):
            mv.solve_dirichlet(g, img, mv.Mask(known), active, mv.SolverConfig())

    def test_missing_row_raises_before_any_step(self, monkeypatch):
        # vertex 2 is active but has no row in the graph
        g = make_graph(4, {1: ([0, 3], [1.0, 1.0])})
        img = line_image(E1, [[0.0], [1.0], [2.0], [3.0]])
        known = np.array([[True, False, False, True]])
        calls = record_steps(monkeypatch)
        with pytest.raises(SolverError, match="vertex 2 has an empty neighborhood") as exc:
            mv.solve_dirichlet(g, img, mv.Mask(known), [1, 2], mv.SolverConfig())
        assert exc.value.vertex == 2
        assert calls == []

    def test_sphere_two_anchor_midpoint(self):
        x = np.array([1.0, 0.0, 0.0])
        y = np.array([0.0, 1.0, 0.0])
        data = np.stack([x, np.array([0.0, 0.0, 1.0]), y])[None, :, :]
        img = mv.MvImage(S2, data)
        g = make_graph(3, {1: ([0, 2], [1.0, 1.0])})
        known = np.array([[True, False, True]])
        cfg = mv.SolverConfig(eps=1e-12, max_iter=500)
        out = mv.solve_dirichlet(g, img, mv.Mask(known), [1], cfg).image
        mid = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        assert S2.kernel.dist(out.flat[1], mid) < 1e-6


def star_layer(desc, seed, degrees=(4, 7)):
    """A decoupled layer: centers 0..5, each with its own known neighbors.

    Each center has degrees[0] to degrees[1] - 1 neighbors.  The values are
    generic (random points near one point), so no distances tie.
    """
    rng = np.random.default_rng(seed)
    centers = 6
    degrees = rng.integers(*degrees, size=centers)
    n = centers + int(degrees.sum())
    if desc.kind == "euclidean":
        pts = rng.normal(size=(n, desc.dim))
    elif desc.kind == "sphere2":
        v = np.array([0.0, 0.0, 1.0]) + 0.4 * rng.normal(size=(n, 3))
        pts = v / np.linalg.norm(v, axis=1, keepdims=True)
    elif desc.dim == 2:
        t = 0.4 * rng.normal(size=(n, 3))
        logs = np.stack([t[:, 0], t[:, 1], t[:, 1], t[:, 2]], -1).reshape(n, 2, 2)
        lam, q = np.linalg.eigh(logs)
        pts = np.einsum("...ij,...j,...kj->...ik", q, np.exp(lam), q)
    else:
        t = 0.3 * rng.normal(size=(n, desc.dim, desc.dim))
        lam, q = np.linalg.eigh(t + t.transpose(0, 2, 1))
        pts = np.einsum("...ij,...j,...kj->...ik", q, np.exp(lam), q)
    edges, first = {}, centers
    for c, d in enumerate(degrees):
        edges[c] = (list(range(first, first + d)), list(rng.uniform(0.2, 1.0, size=d)))
        first += d
    img = mv.MvImage(desc, pts.reshape(1, n, desc.point_len))
    mask = mv.Mask(np.arange(n)[None, :] >= centers)
    return make_graph(n, edges), img, mask, np.arange(centers)


def sphere_path(n, seed):
    """Path graph 0-...-(n-1) with generic sphere2 values and known ends."""
    rng = np.random.default_rng(seed)
    v = np.array([0.0, 0.0, 1.0]) + 0.4 * rng.normal(size=(n, 3))
    img = line_image(S2, v / np.linalg.norm(v, axis=1, keepdims=True))
    known = np.zeros((1, n), dtype=bool)
    known[0, [0, n - 1]] = True
    return path_graph(n), img, mv.Mask(known), np.arange(1, n - 1)


def euler_loop(graph, f0, active, cfg):
    """The paper's Euler loop written out: (image, trace) after every active vertex
    steps at every step until the relative change drops below cfg.eps."""
    kernel = f0.descriptor.kernel
    f, trace, denom = f0, [], None
    for _ in range(cfg.max_iter):
        nxt = mv.euler_step(graph, f.copy(), active)
        change = float(kernel.dist(f.flat[active], nxt.flat[active]).mean())
        if denom is None:
            denom = change if change > 0.0 else 1.0
        trace.append(change / denom)
        f = nxt
        if trace[-1] < cfg.eps:
            break
    return f, trace


def record_steps(monkeypatch):
    """Wrap operators.euler_step, as the benchmark tracer does; returns the active lists."""
    calls = []
    step = operators.euler_step

    def euler_step(graph, img, active):
        calls.append(np.asarray(active).tolist())
        return step(graph, img, active)

    monkeypatch.setattr(operators, "euler_step", euler_step)
    return calls


def antipodal_layer(seed):
    """sphere2 centers 0..2, each with two neighbors p and -p.

    The geodesic from p to -p, on which the pair's zero lies, is undefined,
    and every point halfway between them (by weight) is a 1-centre.
    """
    rng = np.random.default_rng(seed)
    poles = rng.normal(size=(3, 3))
    poles /= np.linalg.norm(poles, axis=1, keepdims=True)
    v = poles + rng.normal(size=(3, 3))
    pts = np.concatenate([v / np.linalg.norm(v, axis=1, keepdims=True),
                          np.stack([poles, -poles], 1).reshape(-1, 3)])
    edges = {c: ([3 + 2 * c, 4 + 2 * c], list(rng.uniform(0.2, 1.0, size=2))) for c in range(3)}
    mask = mv.Mask(np.arange(9)[None, :] >= 3)
    return make_graph(9, edges), line_image(S2, pts), mask, np.arange(3)


def side_by_side(*layers):
    """One decoupled layer holding the given ones, their ids shifted apart."""
    edges, pts, known, active, offset = {}, [], [], [], 0
    for graph, img, mask, act in layers:
        for u in act.tolist():
            ids, w = graph.neighbors(u)
            edges[u + offset] = ((ids + offset).tolist(), w.tolist())
        pts.append(img.flat)
        known.append(mask.known_flat)
        active.append(act + offset)
        offset += img.vertex_count
    return (make_graph(offset, edges), line_image(layers[0][1].descriptor, np.concatenate(pts)),
            mv.Mask(np.concatenate(known)[None, :]), np.concatenate(active))


class TestStepCalls:
    """solve_dirichlet steps through the module-level euler_step, on coupled layers only.

    The benchmark tracer wraps that name and counts Euler steps and
    vertex-steps from its calls and their active sets; the solver's own
    iterations agree with it, and every step moves the whole active set.
    """

    @pytest.mark.parametrize("desc", [E1, S2, SPD2], ids=lambda d: d.label())
    def test_decoupled_layer_takes_no_step(self, desc, monkeypatch):
        graph, img, mask, active = star_layer(desc, 1)
        calls = record_steps(monkeypatch)
        res = mv.solve_dirichlet(graph, img, mask, active, mv.SolverConfig(max_iter=300))
        assert calls == [] and (res.iterations, res.trace) == (0, [])
        assert res.rounds > 0

    def test_coupled_layer_steps_every_vertex_every_iteration(self, monkeypatch):
        graph, img, mask, active = sphere_path(7, seed=4)
        calls = record_steps(monkeypatch)
        res = mv.solve_dirichlet(graph, img, mask, active, mv.SolverConfig(max_iter=400))
        assert res.iterations > 0
        assert calls == [active.tolist()] * res.iterations
        assert (res.rounds, res.multi_support) == (0, 0)

    @pytest.mark.parametrize("desc", [S2, SPD2, SPD3], ids=lambda d: d.label())
    def test_lipschitz_of_a_decoupled_layer_is_its_largest_edge_term(self, desc):
        # read from the solved image: the same bits as every edge measured
        # apart, on sphere2 and spd(2), whose distances do not depend on the
        # batch; spd(3)'s go through a batched eigensolver
        graph, img, mask, active = star_layer(desc, 2)
        res = mv.solve_dirichlet(graph, img, mask, active, mv.SolverConfig())
        assert res.rounds > 0
        out = res.image
        far = max(float(np.sqrt(w) * desc.kernel.dist(out.flat[u], out.flat[v]))
                  for u in active.tolist() for v, w in zip(*graph.neighbors(u)))
        if desc == SPD3:
            assert res.lipschitz == pytest.approx(far, rel=1e-12)
        else:
            assert np.float64(res.lipschitz).tobytes() == np.float64(far).tobytes()

    def test_coupled_layer_is_the_plain_euler_loop(self):
        graph, img, mask, active = sphere_path(7, seed=4)
        cfg = mv.SolverConfig(max_iter=400)
        ref, trace = euler_loop(graph, img, active, cfg)
        res = mv.solve_dirichlet(graph, img, mask, active, cfg)
        out = res.image
        assert (res.iterations, res.trace) == (len(trace), trace)
        assert out.data.tobytes() == ref.data.tobytes()
        # the largest weighted distance between an active vertex and a neighbor
        far = [np.sqrt(w) * S2.kernel.dist(out.flat[u], out.flat[v])
               for u in active.tolist() for v, w in zip(*graph.neighbors(u))]
        assert res.lipschitz == pytest.approx(max(far), rel=1e-12)


def row_scaled(graph, scales):
    """graph with row t's weights times scales[t % len(scales)]."""
    edges = {}
    for t, u in enumerate(graph.targets.tolist()):
        ids, w = graph.neighbors(u)
        edges[u] = (ids.tolist(), (w * scales[t % len(scales)]).tolist())
    return make_graph(graph.vertex_count, edges)


class TestRowScaleInvariance:
    """Scaling one vertex's weights by a constant changes nothing.

    Every use of a row's root weights is homogeneous of degree 0 in them:
    the extremal pair, the operator, the pair zero, the 1-centre and the
    support search's tolerances.  So the graph may hold each row's weights
    relative to any scale, as build_graph holds them relative to the
    nearest neighbor's.
    """

    SCALES = [0.37, 2.0**-40, 1e-200]

    @pytest.mark.parametrize("desc", [E2, S2, SPD2], ids=lambda d: d.label())
    @pytest.mark.parametrize("seed", range(3))
    def test_decoupled_layer(self, desc, seed):
        graph, img, mask, active = star_layer(desc, seed, degrees=(3, 6))
        scaled = row_scaled(graph, self.SCALES)
        for u in active.tolist():
            assert select_extremal_pair(scaled, img, u) == select_extremal_pair(graph, img, u)
        ref, got = mv.inf_laplacian_field(graph, img, active), mv.inf_laplacian_field(scaled, img, active)
        assert np.sqrt(np.einsum("al,al->a", ref - got, ref - got)).max() < 1e-12
        ref = mv.solve_dirichlet(graph, img.copy(), mask, active, mv.SolverConfig())
        got = mv.solve_dirichlet(scaled, img.copy(), mask, active, mv.SolverConfig())
        assert ref.rounds == got.rounds and ref.multi_support == got.multi_support
        assert desc.kernel.dist(ref.image.flat, got.image.flat).max() < 1e-12

    def test_coupled_layer(self):
        graph, img, mask, active = sphere_path(7, seed=4)
        cfg = mv.SolverConfig(max_iter=400)
        ref = mv.solve_dirichlet(graph, img.copy(), mask, active, cfg)
        got = mv.solve_dirichlet(row_scaled(graph, self.SCALES), img.copy(), mask, active, cfg)
        assert ref.iterations == got.iterations
        assert S2.kernel.dist(ref.image.flat, got.image.flat).max() < 1e-12

    def test_single_neighbor_rows_take_its_value(self):
        # a table one slot wide, as build_graph makes where every target's
        # only edge is its nearest neighbor: each vertex's 1-centre is that
        # neighbor's value
        graph = make_graph(4, {0: ([2], [1.0]), 1: ([3], [1e-200])})
        img = line_image(S2, random_point(S2, np.random.default_rng(5), size=(4,)))
        mask = mv.Mask(np.array([[False, False, True, True]]))
        res = mv.solve_dirichlet(graph, img, mask, [0, 1], mv.SolverConfig())
        assert res.image.flat[[0, 1]].tobytes() == img.flat[[2, 3]].tobytes()
        assert (res.multi_support, res.lipschitz) == (0, 0.0)


def geodesic_point(desc, a, b, t):
    """The point at fraction t on the geodesic a -> b, written out per manifold.

    euclidean: the affine point; sphere2: slerp; spd(2): the affine-invariant
    geodesic A^1/2 (A^-1/2 B A^-1/2)^t A^1/2 through eigh.
    """
    if desc.kind == "euclidean":
        return a + t * (b - a)
    if desc.kind == "sphere2":
        theta = np.arctan2(np.linalg.norm(np.cross(a, b)), a @ b)
        if theta == 0.0:
            return a
        return (np.sin((1 - t) * theta) * a + np.sin(t * theta) * b) / np.sin(theta)
    lam, q = np.linalg.eigh(a.reshape(2, 2))
    root, inv = (q * np.sqrt(lam)) @ q.T, (q / np.sqrt(lam)) @ q.T
    mu, r = np.linalg.eigh(inv @ b.reshape(2, 2) @ inv)
    return (root @ ((r * mu ** t) @ r.T) @ root).reshape(-1)


def sym_fn(m, fn):
    """fn of a symmetric matrix through eigh."""
    lam, q = np.linalg.eigh(m)
    return (q * fn(lam)) @ q.T


def ortho_log(desc, x, y):
    """log_x y in coordinates where the metric at x is the dot product.

    euclidean: y - x; sphere2: the tangent vector in R^3; spd(2): the
    whitened log(X^-1/2 Y X^-1/2), flattened, under the Frobenius product.
    """
    if desc.kind == "euclidean":
        return y - x
    if desc.kind == "sphere2":
        theta = np.arctan2(np.linalg.norm(np.cross(x, y)), x @ y)
        v = y - (x @ y) * x
        return v * (theta / np.linalg.norm(v)) if theta > 0.0 else 0.0 * v
    inv = sym_fn(x.reshape(2, 2), lambda lam: lam ** -0.5)
    return sym_fn(inv @ y.reshape(2, 2) @ inv, np.log).reshape(-1)


def chart(desc, x0):
    """(exp, coords): exp maps R^d onto the manifold near x0, with exp(0) = x0,
    and coords maps an ortho_log vector at x0 to the t that exp takes to it."""
    if desc.kind == "euclidean":
        return (lambda t: x0 + t), (lambda v: v)
    if desc.kind == "sphere2":
        basis = np.linalg.svd(x0[None, :])[2][1:]              # two unit vectors normal to x0

        def exp(t):
            v = t @ basis
            n = np.linalg.norm(v)
            return x0 if n == 0.0 else np.cos(n) * x0 + np.sin(n) * v / n
        return exp, (lambda v: basis @ v)
    root = sym_fn(x0.reshape(2, 2), np.sqrt)
    return ((lambda t: (root @ sym_fn(np.array([[t[0], t[1]], [t[1], t[2]]]), np.exp)
                        @ root).reshape(-1)),
            (lambda v: np.array([v[0], 0.5 * (v[1] + v[2]), v[3]])))


def circumcentre(desc, f, w):
    """The point equally far, by root weights w, from the points f, in their hull.

    Two points: the pair's zero.  More: Gauss-Newton in a chart at f[0],
    from the mean of the logs from f[0], with a central-difference
    Jacobian, on the equalities w_b d_b = w_0 d_0 together with the
    min-norm point of the affine hull of the logs p_b at x, which is 0
    when x lies in it.
    Returns (x, multipliers), or None where Gauss-Newton does not converge.
    """
    if len(f) == 2:
        return geodesic_point(desc, f[0], f[1], w[1] / (w[0] + w[1])), np.array([0.5, 0.5])

    def residual(x):
        p = np.array([ortho_log(desc, x, y) for y in f])
        d = np.linalg.norm(p, axis=1)
        dp = (p[1:] - p[0]).T
        alpha = np.linalg.lstsq(dp, -p[0], rcond=None)[0]
        return np.concatenate([w[1:] * d[1:] - w[0] * d[0], p[0] + dp @ alpha]), p / d[:, None]

    exp, coords = chart(desc, f[0])
    t = coords(np.mean([ortho_log(desc, f[0], y) for y in f], axis=0))
    for _ in range(60):
        r = residual(exp(t))[0]
        jac = np.array([(residual(exp(t + h))[0] - residual(exp(t - h))[0]) / 2e-7
                        for h in np.eye(t.size) * 1e-7]).T
        step = np.linalg.lstsq(jac, -r, rcond=None)[0]
        t = t + step
        if not np.isfinite(t).all() or np.linalg.norm(t) > 10.0:
            return None
        if np.linalg.norm(step) < 1e-15:
            break
    x = exp(t)
    r, e = residual(x)
    if np.abs(r).max() > 1e-13:
        return None
    # the barycentric coordinates of 0 among the unit directions e_b
    lam = np.linalg.lstsq(np.vstack([e.T, np.ones(len(f))]),
                          np.r_[np.zeros(e.shape[1]), 1.0], rcond=None)[0]
    return x, lam


def oracle_centre(desc, nbrs, w):
    """The weighted 1-centre by enumeration, and its number of supports.

    Every subset of 2 to d + 1 neighbors (d the manifold dimension) gets
    its circumcentre; a subset is feasible where its multipliers are >= 0
    and it covers every neighbor within 1e-9, and the feasible one of least
    value wins.
    """
    dim = {"euclidean": desc.dim, "sphere2": 2, "spd": 3}[desc.kind]
    best = (np.inf, None, 0)
    for m in range(2, dim + 2):
        for sub in itertools.combinations(range(len(nbrs)), m):
            got = circumcentre(desc, nbrs[list(sub)], w[list(sub)])
            if got is None or (got[1] < -1e-9).any():
                continue
            far = w * np.array([np.linalg.norm(ortho_log(desc, got[0], y)) for y in nbrs])
            value = far[list(sub)].max()
            if far.max() <= value * (1.0 + 1e-9) and value < best[0]:
                best = (value, got[0], m)
    return best[1], best[2]


def hull_gap(desc, x, nbrs, w):
    """Distance from 0 to the convex hull of the unit directions at x toward the
    neighbors within a relative 1e-7 of the farthest: 0 exactly where x
    meets the KKT condition of the 1-centre."""
    p = np.array([ortho_log(desc, x, y) for y in nbrs])
    far = w * np.linalg.norm(p, axis=1)
    e = p[far >= far.max() * (1.0 - 1e-7)]
    e /= np.linalg.norm(e, axis=1, keepdims=True)
    gap = np.inf
    for m in range(1, len(e) + 1):
        for sub in itertools.combinations(range(len(e)), m):
            lam = np.linalg.lstsq(np.vstack([e[list(sub)].T, np.ones(m)]),
                                  np.r_[np.zeros(e.shape[1]), 1.0], rcond=None)[0]
            if (lam >= -1e-12).all():
                gap = min(gap, np.linalg.norm(lam @ e[list(sub)]))
    return gap


class TestJumpCertificate:
    """A decoupled layer returns the operator's pair zeros where they are 1-centres.

    Where a vertex's two farthest neighbors i < j are equally far and
    opposite, no neighbor is farther, which is the KKT condition of the
    1-centre at the zero z_ij of the pair: the point at fraction sqrt(w_j) /
    (sqrt(w_i) + sqrt(w_j)) of the geodesic f(v_i) -> f(v_j).  The solver
    returns it bitwise as the kernel's exp and log give it from f(v_i), the
    bits an operator jump to z_ij gives.  Every other vertex comes out at a
    point meeting the KKT condition: its farthest neighbors' unit
    directions hold 0 in their convex hull.  No Euler step runs.
    """

    @pytest.mark.parametrize("desc", [E1, S2, SPD2], ids=lambda d: d.label())
    @pytest.mark.parametrize("seed", range(8))
    def test_certified_vertices_sit_at_their_pair_zero(self, desc, seed, monkeypatch):
        graph, img, mask, active = star_layer(desc, seed)
        calls = record_steps(monkeypatch)
        res = mv.solve_dirichlet(graph, img, mask, active, mv.SolverConfig(max_iter=300))
        out = res.image
        assert calls == [] and (res.iterations, res.trace) == (0, [])
        assert res.rounds >= 1
        kernel = desc.kernel
        kept, largest = 0, 0.0
        for u in active.tolist():
            ids, w = graph.neighbors(u)
            nbrs, sqw = img.flat[ids], np.sqrt(w)
            far = sqw * np.array([kernel.dist(out.flat[u], y) for y in nbrs])
            i, j = sorted(np.argsort(far)[-2:].tolist())
            t = sqw[j] / (sqw[i] + sqw[j])
            if kernel.dist(out.flat[u], geodesic_point(desc, nbrs[i], nbrs[j], t)) < 1e-12:
                jump = kernel.exp_ortho(nbrs[i][None], t * kernel.log_ortho(nbrs[i][None], nbrs[j][None]))
                assert out.flat[u].tobytes() == jump[0].tobytes()
                kept += 1
            assert hull_gap(desc, out.flat[u], nbrs, sqw) < 1e-8
            if desc == E1:
                # in 1-D the 1-centre is the weighted midrange, the zero of the operator
                assert abs(real_graph_inf_laplacian(graph, out.flat[:, 0], u)) < 1e-13
            largest = max(largest, far.max())
        # a 1-centre of at most two supports is its pair's zero
        assert kept == active.size - res.multi_support
        assert res.lipschitz == pytest.approx(largest, rel=1e-12)
        if desc == E1:
            assert (kept, res.multi_support) == (active.size, 0)

    @pytest.mark.parametrize("desc", [S1, S2, SPD2, SPD3], ids=lambda d: d.label())
    def test_neighbors_of_one_value_give_that_value(self, desc):
        # the 1-centre of two supports that hold one value is that value,
        # bitwise, though exp_ortho(x, 0) need not return x's bits; circle
        # angles are negative, where wrap_angle rounds
        rng = np.random.default_rng(41)
        graph = make_graph(3, {0: ([1, 2], [1.0, 0.3])})
        mask = mv.Mask(np.array([[False, True, True]]))
        for _ in range(50):
            start, value = random_point(desc, rng, size=(2,))
            if desc == S1:
                start, value = -np.abs(start), -np.abs(value)
            img = line_image(desc, [start, value, value])
            res = mv.solve_dirichlet(graph, img, mask, [0], mv.SolverConfig())
            assert res.image.flat[0].tobytes() == value.tobytes()

    def test_antipodal_pair_raises_naming_its_vertex(self):
        # stars that solve, beside centers whose neighbors are antipodal:
        # their 1-centre is not unique, and the search for it meets the cut
        # locus instead of returning some point silently
        graph, img, mask, active = side_by_side(star_layer(S2, 0), antipodal_layer(3))
        with pytest.raises(CutLocusError) as exc:
            mv.solve_dirichlet(graph, img, mask, active, mv.SolverConfig())
        assert exc.value.vertex in active[6:].tolist()
        assert f"vertex {exc.value.vertex}" in str(exc.value)

    def test_zero_at_a_neighbors_cut_locus_is_kept(self, monkeypatch):
        # circle centers 0 and 1 both have the zero 0 of the pair (-1, 1); the
        # light third neighbor pi of center 0 is antipodal to it, so no pair
        # can be picked there.  Distances are defined everywhere, and no
        # neighbor is farther than the pair, so 0 is kept
        vals = [0.5, 0.3, -1.0, 1.0, np.pi, -1.0, 1.0]
        graph = make_graph(7, {0: ([2, 3, 4], [1.0, 1.0, 0.01]), 1: ([5, 6], [1.0, 1.0])})
        img, mask = line_image(S1, [[v] for v in vals]), mv.Mask(np.arange(7)[None, :] >= 2)
        calls = record_steps(monkeypatch)
        res = mv.solve_dirichlet(graph, img, mask, [0, 1], mv.SolverConfig())
        assert calls == [] and res.iterations == 0
        assert res.image.flat[:2, 0].tolist() == [0.0, 0.0]
        assert (res.multi_support, res.lipschitz) == (0, 1.0)


class TestOneCentreOracle:
    """Each vertex of a decoupled layer gets its weighted 1-centre.

    The oracle enumerates every support subset of a small star and keeps
    the feasible circumcentre of least value (oracle_centre); it is
    written here with numpy alone and shares no code with the solver.
    """

    @pytest.mark.parametrize("desc", [E2, S2, SPD2], ids=lambda d: d.label())
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_subset_enumeration(self, desc, seed):
        graph, img, mask, active = star_layer(desc, seed, degrees=(3, 6))
        res = mv.solve_dirichlet(graph, img, mask, active, mv.SolverConfig())
        out = res.image
        sizes = []
        for u in active.tolist():
            ids, w = graph.neighbors(u)
            centre, m = oracle_centre(desc, img.flat[ids], np.sqrt(w))
            assert np.linalg.norm(ortho_log(desc, centre, out.flat[u])) < 1e-10
            sizes.append(m)
        assert res.multi_support == sum(m >= 3 for m in sizes)

    def test_stars_need_the_support_search(self):
        # the stars of the oracle test include 1-centres of three and more
        # supports, on every manifold
        for desc in (E2, S2, SPD2):
            counts = [mv.solve_dirichlet(*star_layer(desc, seed, degrees=(3, 6)),
                                         mv.SolverConfig()).multi_support for seed in range(3)]
            assert min(counts) >= 1, (desc, counts)

    def test_stalled_search_raises_naming_the_vertex(self, monkeypatch):
        # with no circumcentre of three or more supports, a vertex whose
        # 1-centre needs three can only move between pairs, and a round
        # comes that finds no pair of larger value
        graph, img, mask, active = star_layer(S2, 0)

        def diverges(kernel, y, f, w):
            return y, np.full(w.shape, np.nan)

        monkeypatch.setattr(operators, "_circumcentre", diverges)
        with pytest.raises(SolverError, match="does not raise its value") as exc:
            mv.solve_dirichlet(graph, img, mask, active, mv.SolverConfig())
        assert exc.value.vertex in active.tolist()

    def test_start_at_a_neighbors_cut_locus_changes_nothing(self):
        # vertex 3 starts antipodal to a neighbor, so its extremal pair is
        # undefined there; it starts from its first neighbor instead
        graph, img, mask, active = star_layer(S2, 2)
        ref = mv.solve_dirichlet(graph, img.copy(), mask, active, mv.SolverConfig()).image
        data = img.flat.copy()
        data[3] = -data[graph.neighbors(3)[0][1]]
        moved = mv.MvImage(S2, data.reshape(img.data.shape))
        out = mv.solve_dirichlet(graph, moved, mask, active, mv.SolverConfig()).image
        assert np.abs(out.flat[active] - ref.flat[active]).max() < 1e-12

    def test_a_trial_at_a_cut_locus_fails_only_its_row(self):
        # row 1 starts antipodal to a support, so its logs are NaN; the other
        # rows come out as they do without it, and row 1 has no target
        graph, img, _, active = star_layer(S2, 3, degrees=(5, 6))
        rows = graph.rows(active)
        nbr, sqw = img.flat[graph.ids[rows]], np.sqrt(graph.weights[rows])
        T = np.tile([0, 1, 2], (active.size, 1))
        start = nbr[:, 3].copy()
        start[1] = -nbr[1, 0]
        others = np.array([0, 2, 3, 4, 5])
        fT = nbr[np.arange(6)[:, None], T]
        c, nu = operators._circumcentre(S2.kernel, start, fT, sqw[:, :3])
        c2, nu2 = operators._circumcentre(S2.kernel, start[others], fT[others], sqw[others, :3])
        assert np.isnan(nu[1]).all()
        assert c[others].tobytes() == c2.tobytes() and nu[others].tobytes() == nu2.tobytes()
        _, y, target, _ = operators._trials(S2.kernel, nbr, sqw, np.arange(6), T, start)
        _, y2, target2, _ = operators._trials(S2.kernel, nbr, sqw, others, T[others], start[others])
        assert np.isnan(target[1]).all()
        assert y[others].tobytes() == y2.tobytes()
        assert np.array_equal(target[others], target2, equal_nan=True)
        assert np.isfinite(target2).any()


def kernel_hull_gap(desc, x, nbrs, w):
    """hull_gap through the kernel's own logs, for any manifold."""
    p = desc.kernel.log_ortho(x[None, None], nbrs[None])[0]
    far = w * np.linalg.norm(p, axis=1)
    e = p[far >= far.max() * (1.0 - 1e-7)]
    e /= np.linalg.norm(e, axis=1, keepdims=True)
    gap = np.inf
    for m in range(1, len(e) + 1):
        for sub in itertools.combinations(range(len(e)), m):
            lam = np.linalg.lstsq(np.vstack([e[list(sub)].T, np.ones(m)]),
                                  np.r_[np.zeros(e.shape[1]), 1.0], rcond=None)[0]
            if (lam >= -1e-12).all():
                gap = min(gap, np.linalg.norm(lam @ e[list(sub)]))
    return gap


class TestHighDimension:
    """The support search stays polynomial in the manifold dimension d.

    Each round solves at most d steps of one circumcentre per vertex, and a
    set with no circumcentre costs at most d^3 more.
    """

    @pytest.mark.parametrize("desc", [SPD3, mv.ManifoldDescriptor.euclidean(6),
                                      mv.ManifoldDescriptor.euclidean(24)],
                             ids=lambda d: d.label())
    def test_stars_finish_at_their_1_centres(self, desc, monkeypatch):
        graph, img, mask, active = star_layer(desc, 5, degrees=(8, 15))
        trials = []
        real = operators._trials

        def counted(kernel, nbr_vals, sqw, rows, T, start):
            trials.append(rows.size)
            return real(kernel, nbr_vals, sqw, rows, T, start)

        monkeypatch.setattr(operators, "_trials", counted)
        res = mv.solve_dirichlet(graph, img, mask, active, mv.SolverConfig())
        out = res.image
        assert res.multi_support >= 1
        d = desc.manifold_dim
        assert sum(trials) <= res.rounds * active.size * (d + d ** 3)
        for u in active.tolist():
            ids, w = graph.neighbors(u)
            nbrs, sqw = img.flat[ids], np.sqrt(w)
            if d <= 6:
                assert kernel_hull_gap(desc, out.flat[u], nbrs, sqw) < 1e-8
            else:
                # no point near the centre is closer to its farthest neighbor
                rng = np.random.default_rng(u)
                far = (sqw * desc.kernel.dist(out.flat[u][None], nbrs)).max()
                near = out.flat[u] + 1e-6 * rng.normal(size=(200, desc.point_len))
                moved = (sqw * desc.kernel.dist(near[:, None], nbrs[None])).max(axis=1)
                assert (moved >= far * (1.0 - 1e-12)).all()


def test_small_systems_match_lapack():
    rng = np.random.default_rng(21)
    for q in (1, 2, 3, 5):
        M = rng.normal(size=(50, q, q))
        M[:10, 0, 0] = 0.0 if q > 1 else 1.0   # rows that need a pivot swap
        b = rng.normal(size=(50, q))
        got = operators._solve_small(M.copy(), b.copy())
        assert np.allclose(got, np.linalg.solve(M, b[..., None])[..., 0], rtol=1e-10, atol=1e-12)
    singular = np.zeros((1, 2, 2))
    assert not np.isfinite(operators._solve_small(singular, np.ones((1, 2)))).all()
