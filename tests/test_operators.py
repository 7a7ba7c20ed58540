import tracemalloc

import numpy as np
import pytest

import mvinpaint as mv
from mvinpaint import operators
from mvinpaint.errors import CutLocusError, SolverError

from conftest import (
    brute_extremal_pair,
    brute_inf_laplacian,
    line_image,
    make_graph,
    path_graph,
    random_image,
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
        assert mv.real_graph_inf_laplacian(g, img.flat[:, 0], 0) == 0.0

    def test_one_sided(self):
        g, img = star_graph([0.0, 0.0, 2.0], [1.0, 1.0])
        assert mv.real_graph_inf_laplacian(g, img.flat[:, 0], 0) == 2.0
        g, img = star_graph([3.0, 0.0, 2.0], [1.0, 1.0])
        assert mv.real_graph_inf_laplacian(g, img.flat[:, 0], 0) == -3.0

    def test_weights_scale_differences(self):
        g, img = star_graph([0.0, 1.0, -1.0], [4.0, 1.0])
        # sqrt(4)*1 forward, sqrt(1)*1 backward
        assert mv.real_graph_inf_laplacian(g, img.flat[:, 0], 0) == 1.0


class TestExtremalPair:
    def test_weighted_example(self):
        g, img = star_graph([1.0, 3.0, 0.0], [4.0, 1.0])
        v1, v2 = mv.select_extremal_pair(g, img, 0)
        assert (v1, v2) == (1, 2)
        delta = mv.inf_laplacian(g, img, 0)
        # (2*2 + 1*(-1)) / (2 + 1)
        assert abs(delta.vec[0] - 1.0) < 1e-14

    def test_single_neighbor_is_diagonal(self):
        g, img = star_graph([1.0, 5.0], [1.0])
        assert mv.select_extremal_pair(g, img, 0) == (1, 1)
        delta = mv.inf_laplacian(g, img, 0)
        assert abs(delta.vec[0] - 4.0) < 1e-14

    def test_constant_neighborhood_ties_to_smallest_ids(self):
        g, img = star_graph([2.0, 2.0, 2.0, 2.0], [1.0, 1.0, 1.0])
        assert mv.select_extremal_pair(g, img, 0) == (1, 1)

    def test_matches_brute_force_euclidean(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            deg = int(rng.integers(1, 7))
            vals = rng.normal(size=deg + 1)
            w = rng.uniform(0.1, 2.0, size=deg)
            g, img = star_graph(vals, w)
            assert mv.select_extremal_pair(g, img, 0) == brute_extremal_pair(g, img, 0)
            got = mv.inf_laplacian(g, img, 0).vec
            ref = brute_inf_laplacian(g, img, 0)
            assert np.abs(got - ref).max() < 1e-12

    def test_matches_brute_force_sphere(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            deg = int(rng.integers(1, 6))
            img = random_image(S2, 1, deg + 1, rng)
            w = rng.uniform(0.1, 2.0, size=deg)
            g = make_graph(deg + 1, {0: (list(range(1, deg + 1)), list(w))})
            assert mv.select_extremal_pair(g, img, 0) == brute_extremal_pair(g, img, 0)
            got = mv.inf_laplacian(g, img, 0).vec
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
            assert np.array_equal(field[u].vec, single.vec)

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
        assert mv.select_extremal_pair(g, img, 0) == (1, 2)
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
        pool = mv.random_point(desc, rng, size=(4,))
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
        tau = 0.5
        field = mv.inf_laplacian_field(g, img, active)
        stepped = mv.euler_step(g, img, active, tau)
        for u in active:
            assert g.neighbors(u)[0].tolist() == sorted(edges[u][0])
            assert mv.select_extremal_pair(g, img, u) == brute_extremal_pair(g, img, u)
            ref = brute_inf_laplacian(g, img, u)
            assert np.abs(field[u].vec - ref).max() < 1e-10
            moved = mv.exp_map(desc, img.flat[u], mv.Tangent(img.flat[u], tau * ref))
            assert mv.distance(desc, stepped.flat[u], moved) < 1e-10


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
            man = mv.inf_laplacian(g, img, 0).vec[0]
            real = mv.real_graph_inf_laplacian(g, img.flat[:, 0], 0)
            assert abs(2.0 * man - real) < 1e-12

    def test_zero_at_constants_is_exact(self):
        g, img = star_graph([4.0, 4.0, 4.0], [1.0, 0.3])
        delta = mv.inf_laplacian(g, img, 0)
        assert delta.vec[0] == 0.0

    def test_scale_equivariance_euclidean(self):
        rng = np.random.default_rng(35)
        for alpha in (2.0, -3.5, 0.25):
            vals = rng.normal(size=5)
            w = rng.uniform(0.2, 1.5, size=4)
            g, img = star_graph(vals, w)
            g2, img2 = star_graph(alpha * vals, w)
            d1 = mv.inf_laplacian(g, img, 0).vec[0]
            d2 = mv.inf_laplacian(g2, img2, 0).vec[0]
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
        d = mv.inf_laplacian(g, img, 0).vec
        dr = mv.inf_laplacian(g, rot, 0).vec
        assert np.abs(q @ d - dr).max() < 1e-9


class TestEulerStep:
    def test_reads_are_jacobi(self):
        # both vertices update from the old values of each other
        g = make_graph(2, {0: ([1], [1.0]), 1: ([0], [1.0])})
        img = line_image(E1, [[0.0], [10.0]])
        out = mv.euler_step(g, img, [0, 1], 0.1)
        assert out.flat[0, 0] == 1.0
        assert out.flat[1, 0] == 9.0

    def test_non_active_pixels_bitwise_unchanged(self):
        rng = np.random.default_rng(37)
        img = random_image(S2, 2, 3, rng)
        g = make_graph(6, {0: ([1, 2], [1.0, 1.0])})
        out = mv.euler_step(g, img, [0], 0.5)
        changed = np.flatnonzero((out.flat != img.flat).any(axis=1))
        assert changed.tolist() == [0]

    def test_vanishing_operator_keeps_vertex_bitwise(self):
        img = line_image(E1, [[7.25], [7.25], [7.25]])
        g = make_graph(3, {0: ([1, 2], [1.0, 1.0])})
        out = mv.euler_step(g, img, [0], 1.0)
        assert np.array_equal(out.data, img.data)

    def test_input_image_not_mutated(self):
        img = line_image(E1, [[0.0], [4.0]])
        snap = img.data.copy()
        g = make_graph(2, {0: ([1], [1.0])})
        mv.euler_step(g, img, [0], 0.5)
        assert np.array_equal(img.data, snap)

    def test_bad_tau_rejected(self):
        g, img = star_graph([0.0, 1.0], [1.0])
        for tau in (0.0, -0.5, 1.5):
            with pytest.raises(SolverError):
                mv.euler_step(g, img, [0], tau)

    @pytest.mark.parametrize("desc", [E1, S2, SPD2], ids=lambda d: d.label())
    def test_out_gets_the_bits_of_the_copying_step(self, desc):
        # solve_dirichlet steps into a spare image that holds the input's
        # values everywhere but at the active vertices
        graph, img, _, active = star_layer(desc, 4)
        # center 2's neighbors all carry its value, so its operator is zero
        ids, _ = graph.neighbors(2)
        img.flat[ids] = img.flat[2]
        ref = mv.euler_step(graph, img, active, 0.1)
        moved = (ref.flat[active] != img.flat[active]).any(axis=1)
        assert moved.tolist() == [True, True, False, True, True, True]
        spare = img.copy()
        spare.flat[active] = np.nan
        assert mv.euler_step(graph, img, active, 0.1, out=spare) is spare
        assert spare.data.tobytes() == ref.data.tobytes()

    def test_cut_locus_error_names_vertex(self):
        img = line_image(S1, [[0.0], [np.pi]])
        g = make_graph(2, {0: ([1], [1.0])})
        with pytest.raises(CutLocusError) as exc:
            mv.euler_step(g, img, [0], 0.1)
        assert exc.value.vertex == 0
        assert exc.value.neighbor == 1


class TestSolveDirichlet:
    def test_path_graph_converges_to_ramp(self):
        n = 5
        g = path_graph(n)
        img = line_image(E1, [[0.0]] * (n - 1) + [[4.0]])
        known = np.zeros((1, n), dtype=bool)
        known[0, 0] = known[0, n - 1] = True
        mask = mv.Mask(known)
        cfg = mv.SolverConfig(tau=0.1, eps=1e-9, max_iter=2000)
        out, iters, trace, *_ = mv.solve_dirichlet(g, img, mask, [1, 2, 3], cfg)
        assert np.abs(out.flat[:, 0] - np.arange(5.0)).max() < 1e-4
        assert iters == len(trace) <= 2000

    def test_harmonic_input_stops_after_one_sweep(self):
        g = path_graph(5)
        img = line_image(E1, [[float(v)] for v in range(5)])
        known = np.zeros((1, 5), dtype=bool)
        known[0, 0] = known[0, 4] = True
        out, iters, trace, *_ = mv.solve_dirichlet(
            g, img, mv.Mask(known), [1, 2, 3], mv.SolverConfig()
        )
        assert iters == 1
        assert trace == [0.0]
        assert np.array_equal(out.data, img.data)

    def test_trace_eventually_monotone(self):
        g = path_graph(7)
        img = line_image(E1, [[0.0]] * 6 + [[6.0]])
        known = np.zeros((1, 7), dtype=bool)
        known[0, 0] = known[0, 6] = True
        _, _, trace, *_ = mv.solve_dirichlet(
            g, img, mv.Mask(known), range(1, 6), mv.SolverConfig(eps=1e-10, max_iter=500)
        )
        tail = trace[10:]
        assert all(b <= a + 1e-15 for a, b in zip(tail, tail[1:]))

    def test_known_pixels_never_move(self):
        rng = np.random.default_rng(38)
        g = path_graph(6)
        img = random_image(E1, 1, 6, rng)
        known = np.zeros((1, 6), dtype=bool)
        known[0, 0] = known[0, 5] = True
        out, *_ = mv.solve_dirichlet(
            g, img, mv.Mask(known), range(1, 5), mv.SolverConfig(max_iter=50)
        )
        assert np.array_equal(out.flat[0], img.flat[0])
        assert np.array_equal(out.flat[5], img.flat[5])

    def test_empty_active_returns_copy(self):
        g = path_graph(3)
        img = line_image(E1, [[1.0], [2.0], [3.0]])
        out, iters, trace, *_ = mv.solve_dirichlet(
            g, img, mv.Mask.all_known(1, 3), [], mv.SolverConfig()
        )
        assert iters == 0 and trace == []
        assert np.array_equal(out.data, img.data)
        assert out.data is not img.data

    def test_active_must_be_unknown(self):
        g = path_graph(3)
        img = line_image(E1, [[1.0], [2.0], [3.0]])
        known = np.array([[True, False, True]])
        with pytest.raises(SolverError) as exc:
            mv.solve_dirichlet(g, img, mv.Mask(known), [0, 1], mv.SolverConfig())
        assert exc.value.vertex == 0

    def test_sphere_two_anchor_midpoint(self):
        x = np.array([1.0, 0.0, 0.0])
        y = np.array([0.0, 1.0, 0.0])
        data = np.stack([x, np.array([0.0, 0.0, 1.0]), y])[None, :, :]
        img = mv.MvImage(S2, data)
        g = make_graph(3, {1: ([0, 2], [1.0, 1.0])})
        known = np.array([[True, False, True]])
        cfg = mv.SolverConfig(tau=0.5, eps=1e-12, max_iter=500)
        out, *_ = mv.solve_dirichlet(g, img, mv.Mask(known), [1], cfg)
        mid = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        assert mv.distance(S2, out.flat[1], mid) < 1e-6


def star_layer(desc, seed):
    """A decoupled layer: centers 0..5, each with 4-6 neighbors of its own.

    The values are generic (random points near one point), so no operator
    objective ties; the neighbors are the known vertices.
    """
    rng = np.random.default_rng(seed)
    centers = 6
    degrees = rng.integers(4, 7, size=centers)
    n = centers + int(degrees.sum())
    if desc.kind == "euclidean":
        pts = rng.normal(size=(n, 1))
    elif desc.kind == "sphere2":
        v = np.array([0.0, 0.0, 1.0]) + 0.4 * rng.normal(size=(n, 3))
        pts = v / np.linalg.norm(v, axis=1, keepdims=True)
    else:
        t = 0.4 * rng.normal(size=(n, 3))
        logs = np.stack([t[:, 0], t[:, 1], t[:, 1], t[:, 2]], -1).reshape(n, 2, 2)
        lam, q = np.linalg.eigh(logs)
        pts = np.einsum("...ij,...j,...kj->...ik", q, np.exp(lam), q)
    edges, first = {}, centers
    for c, d in enumerate(degrees):
        edges[c] = (list(range(first, first + d)), list(rng.uniform(0.2, 1.0, size=d)))
        first += d
    img = mv.MvImage(desc, pts.reshape(1, n, desc.point_len))
    mask = mv.Mask(np.arange(n)[None, :] >= centers)
    return make_graph(n, edges), img, mask, np.arange(centers)


def stalled_layer(desc, seed):
    """star_layer after 350 Euler steps at tau=0.1, near the cycles it stalls in."""
    graph, img, mask, active = star_layer(desc, seed)
    for _ in range(350):
        img = mv.euler_step(graph, img, active, 0.1)
    return graph, img, mask, active


def sphere_path(n, seed):
    """Path graph 0-...-(n-1) with sphere2 values and known ends.

    Vertices 1 and 2 start at vertex 0's value, so vertex 1 repeats its
    value at step 1 and moves only after vertex 2 has; the other values are
    generic.
    """
    rng = np.random.default_rng(seed)
    v = np.array([0.0, 0.0, 1.0]) + 0.4 * rng.normal(size=(n, 3))
    v[1:3] = v[0]
    img = line_image(S2, v / np.linalg.norm(v, axis=1, keepdims=True))
    known = np.zeros((1, n), dtype=bool)
    known[0, [0, n - 1]] = True
    return path_graph(n), img, mv.Mask(known), np.arange(1, n - 1)


def unfrozen_solve(graph, f0, active, cfg):
    """solve_dirichlet's Euler loop stepping every given vertex at every step.

    Returns (images, trace): the image after each step and the relative
    changes.
    """
    kernel = f0.descriptor.kernel
    f, images, trace, denom = f0, [], [], None
    for _ in range(cfg.max_iter):
        nxt = mv.euler_step(graph, f, active, cfg.tau)
        change = float(kernel.dist(f.flat[active], nxt.flat[active]).mean())
        if denom is None:
            denom = change if change > 0.0 else 1.0
        trace.append(change / denom)
        f = nxt
        images.append(f)
        if trace[-1] < cfg.eps:
            break
    return images, trace


def euler_start(graph, img, active):
    """The image the solver's Euler steps start from, and the vertices they step.

    On a decoupled layer the pair jumps put each certified vertex at its
    zero and leave only the others to Euler; a coupled layer is stepped
    whole.
    """
    active = np.asarray(active)
    if not operators._decoupled(graph, active):
        return img, active
    x, certified, _ = operators._jump(graph, img, active)
    start = img.copy()
    start.flat[active[certified]] = x[certified]
    return start, active[~certified]


def final_period(images, u):
    """Smallest p with vertex u's last value bitwise equal to the one p steps earlier."""
    last = images[-1].flat[u].tobytes()
    return next(p for p in range(1, len(images)) if images[-1 - p].flat[u].tobytes() == last)


def record_steps(monkeypatch):
    """Wrap operators.euler_step, as the benchmark tracer does; returns the active lists."""
    calls = []
    step = operators.euler_step

    def euler_step(graph, img, active, *args, **kwargs):
        calls.append(np.asarray(active).tolist())
        return step(graph, img, active, *args, **kwargs)

    monkeypatch.setattr(operators, "euler_step", euler_step)
    return calls


def assert_solves_alike(graph, img, mask, active, cfg):
    """solve_dirichlet gives the unfrozen loop's image bitwise, iterations and trace exactly.

    The loop steps the vertices that the pair jumps leave, from the image
    the jumps make.
    """
    start, rest = euler_start(graph, img, active)
    images, trace = unfrozen_solve(graph, start, rest, cfg)
    out, iters, got, *_ = mv.solve_dirichlet(graph, img, mask, active, cfg)
    assert iters == len(trace)
    assert got == trace
    assert out.data.tobytes() == images[-1].data.tobytes()
    return images, trace


def antipodal_layer(seed):
    """sphere2 centers 0..4, each with two neighbors p and -p.

    The zero of a pair p, -p is undefined, so the jumps leave every center
    to Euler.  Centers 0..3 start at random points and converge to the
    point at their weighted fraction of the half great circle from p to -p.
    Center 4 starts 5e-15 rad past the zero of its pair (0, 0, +-1),
    weighted 1 and 1: its operator is not zero, but its step is below
    ZERO_TANGENT_TOL, so it is a fixed point from step 1.
    """
    rng = np.random.default_rng(seed)
    poles = rng.normal(size=(5, 3))
    poles[4] = [0.0, 0.0, 1.0]
    poles /= np.linalg.norm(poles, axis=1, keepdims=True)
    v = poles + rng.normal(size=(5, 3))
    v[4] = [1.0, 0.0, -5e-15]
    pts = np.concatenate([v / np.linalg.norm(v, axis=1, keepdims=True),
                          np.stack([poles, -poles], 1).reshape(-1, 3)])
    edges = {c: ([5 + 2 * c, 6 + 2 * c], list(rng.uniform(0.2, 1.0, size=2))) for c in range(5)}
    edges[4] = ([13, 14], [1.0, 1.0])
    mask = mv.Mask(np.arange(15)[None, :] >= 5)
    return make_graph(15, edges), line_image(S2, pts), mask, np.arange(5)


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


class TestCycleFreeze:
    """Frozen cycling vertices leave the solve bitwise unchanged.

    The reference is the loop that steps, at every step, every vertex the
    pair jumps leave to Euler.  The inputs hold such vertices: ones whose
    extremal pairs cycle, or whose pair is antipodal.  The wrapped
    euler_step shows which vertices were frozen.
    """

    @pytest.mark.parametrize("desc, seed", [(S2, 1), (SPD2, 0)], ids=["sphere2", "spd2"])
    def test_stalled_layer_stopped_at_every_cycle_phase(self, desc, seed, monkeypatch):
        graph, img, mask, active = stalled_layer(desc, seed)
        start, rest = euler_start(graph, img, active)
        first, tail = 200, 64
        cfg = mv.SolverConfig(tau=0.1, max_iter=first + tail)
        images, trace = unfrozen_solve(graph, start, rest, cfg)
        assert len(trace) == cfg.max_iter
        periods = {int(u): final_period(images, u) for u in rest}
        longest = max(periods, key=periods.get)
        assert 2 <= periods[longest] <= tail
        calls = record_steps(monkeypatch)
        for max_iter in range(first, first + periods[longest]):
            calls.clear()
            cfg = mv.SolverConfig(tau=0.1, max_iter=max_iter)
            out, iters, got, *_ = mv.solve_dirichlet(graph, img, mask, active, cfg)
            assert iters == max_iter
            assert got == trace[:max_iter]
            assert out.data.tobytes() == images[max_iter - 1].data.tobytes()
            # every vertex in a cycle of period >= 2 was replayed at some steps
            for u in (u for u, p in periods.items() if p >= 2):
                assert sum(u in c for c in calls) < max_iter

    def test_layer_converging_by_eps(self, monkeypatch):
        graph, img, mask, active = antipodal_layer(3)
        cfg = mv.SolverConfig(tau=0.1, max_iter=2000)
        calls = record_steps(monkeypatch)
        _, trace = assert_solves_alike(graph, img, mask, active, cfg)
        assert len(trace) < cfg.max_iter and trace[-1] < cfg.eps
        # vertex 4 is a fixed point from step 1
        assert calls[0] == [0, 1, 2, 3, 4] and calls[-1] == [0, 1, 2, 3]

    def test_coupled_path_graph(self):
        graph, img, mask, active = sphere_path(7, seed=4)
        assert_solves_alike(graph, img, mask, active, mv.SolverConfig(tau=0.1, max_iter=400))

    def test_fixed_point_frozen_the_step_it_is_reached(self, monkeypatch):
        # circle stars of two antipodal neighbors: the jumps leave each
        # center to Euler, and it falls geometrically onto a floating-point
        # fixed point, mostly at a step that is not a power of two, so a
        # schedule that compares only with values saved at steps 2^j - 1
        # would catch it later
        rng = np.random.default_rng(5)
        centers = 6
        a = rng.uniform(-np.pi, 0.0, size=centers)
        vals = np.concatenate([a + rng.uniform(0.2, np.pi - 0.2, size=centers),
                               np.stack([a, a + np.pi], 1).reshape(-1)])
        edges = {c: ([centers + 2 * c, centers + 2 * c + 1], list(rng.uniform(0.2, 1.0, 2)))
                 for c in range(centers)}
        graph, img = make_graph(3 * centers, edges), line_image(S1, vals[:, None])
        mask = mv.Mask(np.arange(3 * centers)[None, :] >= centers)
        active = np.arange(centers)
        # eps below any non-zero change: the solve runs until every center is fixed
        cfg = mv.SolverConfig(tau=0.3, eps=1e-300, max_iter=400)
        assert euler_start(graph, img, active)[1].tolist() == active.tolist()
        images, trace = unfrozen_solve(graph, img, active, cfg)
        assert trace[-1] == 0.0
        states = [img] + images
        reached = {
            u: next(n for n in range(1, len(states))
                    if states[n].flat[u].tobytes() == states[n - 1].flat[u].tobytes())
            for u in active.tolist()
        }
        assert any(n & (n - 1) for n in reached.values())
        calls = record_steps(monkeypatch)
        assert_solves_alike(graph, img, mask, active, cfg)
        assert {u: sum(u in c for c in calls) for u in reached} == reached

    @pytest.mark.parametrize("ring", ["default", "longest-period"])
    @pytest.mark.parametrize("desc, seed", [(S2, 1), (SPD2, 0)], ids=["sphere2", "spd2"])
    def test_cycle_caught_at_first_repeat(self, desc, seed, ring, monkeypatch):
        graph, img, mask, active = stalled_layer(desc, seed)
        cfg = mv.SolverConfig(tau=0.1, max_iter=300)
        start, rest = euler_start(graph, img, active)
        images, trace = unfrozen_solve(graph, start, rest, cfg)
        states = [start] + images
        slots = cfg.max_iter
        if ring == "longest-period":
            # a byte budget of just as many ring slots as the longest cycle,
            # which only a comparison with every stored value catches
            slots = max(final_period(states, u) for u in rest.tolist())
            assert 2 <= slots < cfg.max_iter
            floats = rest.size * (img.flat.shape[1] + 1)
            monkeypatch.setattr(operators, "RING_BYTES", slots * floats * 8)

        def caught(u):
            """First step whose value repeats one of the `slots` values before it."""
            for n in range(1, len(states)):
                earlier = {s.flat[u].tobytes() for s in states[max(0, n - slots) : n]}
                if states[n].flat[u].tobytes() in earlier:
                    return n
            return len(trace)

        expected = {u: caught(u) for u in rest.tolist()}
        # some vertex is caught in a cycle of period two or more
        assert any(n < len(trace) and final_period(states[: n + 1], u) >= 2
                   for u, n in expected.items())
        calls = record_steps(monkeypatch)
        assert_solves_alike(graph, img, mask, active, cfg)
        for u, n in expected.items():
            assert [u in c for c in calls] == [True] * n + [False] * (len(calls) - n)

    @pytest.mark.parametrize("slots", [1, 2, 16])
    def test_fewer_ring_slots_change_nothing(self, slots, monkeypatch):
        # a vertex whose pairs cycle with period 13, and fixed points
        graph, img, mask, active = side_by_side(stalled_layer(S2, 1), antipodal_layer(3))
        rest = euler_start(graph, img, active)[1]
        # a budget of `slots` ring slots for the stepped vertices, 3 + 1 floats each
        monkeypatch.setattr(operators, "RING_BYTES", slots * rest.size * 4 * 8)
        calls = record_steps(monkeypatch)
        _, trace = assert_solves_alike(graph, img, mask, active, mv.SolverConfig(max_iter=300))
        frozen = sum(map(len, calls)) < rest.size * len(trace)
        assert frozen == (slots >= 2)

    def test_ring_stays_inside_its_byte_budget(self):
        # 8000 targets sharing 4 known neighbors whose extremal pairs cycle,
        # so the jumps leave every target to Euler.  A ring of all 32 steps
        # alone takes 32 * 8000 * 4 * 8 bytes = 8.2 MB.  Measured peaks
        # (numpy 2.4): 7.8 MB unfrozen, 11.2 MB with the 4 MiB budget, 15.2 MB
        # with an uncapped ring
        A, k = 8000, 4
        rng = np.random.default_rng(16)
        v = np.array([0.0, 0.0, 1.0]) + 0.4 * rng.normal(size=(A + k, 3))
        img = line_image(S2, v / np.linalg.norm(v, axis=1, keepdims=True))
        nbrs = list(range(A, A + k))
        graph = mv.NonlocalGraph.from_adjacency(A + k, {u: (nbrs, [1.0] * k) for u in range(A)})
        mask = mv.Mask(np.arange(A + k)[None, :] >= A)
        assert euler_start(graph, img, np.arange(A))[1].size == A
        tracemalloc.start()
        try:
            mv.solve_dirichlet(graph, img, mask, np.arange(A), mv.SolverConfig(max_iter=32))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 13_000_000


class TestStepCalls:
    """solve_dirichlet steps through the module-level euler_step.

    The benchmark tracer wraps that name and counts Euler steps and
    vertex-steps from its calls and their active sets; the solver's own
    vertex_steps count agrees with it.
    """

    def test_decoupled_layer_steps_live_vertices_only(self, monkeypatch):
        graph, img, mask, active = stalled_layer(S2, 1)
        rest = euler_start(graph, img, active)[1]
        calls = record_steps(monkeypatch)
        _, iters, _, rounds, zeros, steps = mv.solve_dirichlet(
            graph, img, mask, active, mv.SolverConfig(max_iter=300))
        assert calls and all(set(c) <= set(rest.tolist()) for c in calls)
        assert sum(map(len, calls)) < rest.size * iters
        assert steps == sum(map(len, calls))
        assert zeros == active.size - rest.size and rounds > 0

    def test_coupled_layer_steps_every_vertex_every_iteration(self, monkeypatch):
        graph, img, mask, active = sphere_path(7, seed=4)
        calls = record_steps(monkeypatch)
        _, iters, _, rounds, zeros, steps = mv.solve_dirichlet(
            graph, img, mask, active, mv.SolverConfig(max_iter=400))
        assert calls == [active.tolist()] * iters
        assert (rounds, zeros, steps) == (0, 0, active.size * iters)


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


class TestJumpCertificate:
    """A decoupled layer's certified vertices sit at the zeros of their pairs.

    For every vertex the solver does not step, the extremal pair (i, j) at
    its output is found by brute force, and the output must be the zero of
    that pair: the point at t = sqrt(w_j) / (sqrt(w_i) + sqrt(w_j)) on the
    geodesic f(v_i) -> f(v_j).  The vertices it steps must come out as the
    Euler loop stepping them alone gives them.
    """

    @pytest.mark.parametrize("desc", [E1, S2, SPD2], ids=lambda d: d.label())
    @pytest.mark.parametrize("seed", range(8))
    def test_certified_vertices_sit_at_their_pair_zero(self, desc, seed, monkeypatch):
        graph, img, mask, active = star_layer(desc, seed)
        cfg = mv.SolverConfig(tau=0.1, max_iter=300)
        calls = record_steps(monkeypatch)
        out, iters, trace, rounds, zeros, steps = mv.solve_dirichlet(graph, img, mask, active, cfg)
        rest = calls[0] if calls else []
        certified = [u for u in active.tolist() if u not in rest]
        assert certified and zeros == len(certified) and rounds >= 1
        assert steps == sum(map(len, calls))
        for u in certified:
            i, j = brute_extremal_pair(graph, out, u)
            ids, w = graph.neighbors(u)
            si, sj = np.sqrt(w[ids.tolist().index(i)]), np.sqrt(w[ids.tolist().index(j)])
            zero = geodesic_point(desc, img.flat[i], img.flat[j], sj / (si + sj))
            assert mv.distance(desc, out.flat[u], zero) < 1e-12
            if desc == E1:
                assert abs(mv.real_graph_inf_laplacian(graph, out.flat[:, 0], u)) < 1e-13
        if rest:
            images, ref = unfrozen_solve(graph, img, np.array(rest), cfg)
            assert (iters, trace) == (len(ref), ref)
            assert out.flat[rest].tobytes() == images[-1].flat[rest].tobytes()
        else:
            assert (iters, trace, steps) == (0, [], 0)

    def test_antipodal_pair_goes_to_euler(self, monkeypatch):
        # stars that all certify, beside centers whose extremal neighbors
        # are antipodal, so that the geodesic to their zero is undefined
        graph, img, mask, active = side_by_side(star_layer(S2, 0), antipodal_layer(3))
        antipodal = active[6:].tolist()
        # eps below any non-zero change: both solves run max_iter steps
        cfg = mv.SolverConfig(tau=0.1, eps=1e-300, max_iter=200)
        images, _ = unfrozen_solve(graph, img, active, cfg)
        calls = record_steps(monkeypatch)
        out, iters, *_ = mv.solve_dirichlet(graph, img, mask, active, cfg)
        assert calls[0] == antipodal and iters == len(images)
        assert out.flat[antipodal].tobytes() == images[-1].flat[antipodal].tobytes()

    def test_zero_at_a_neighbors_cut_locus_goes_to_euler(self, monkeypatch):
        # circle centers 0 and 1 both have the zero 0 of the pair (-1, 1); the
        # light third neighbor pi of center 0 is antipodal to it, so its pair
        # cannot be picked there.  Euler only nears 0, and 100 steps at
        # tau = 0.1 stay far outside the 1e-10 cut-locus band
        vals = [0.5, 0.3, -1.0, 1.0, np.pi, -1.0, 1.0]
        graph = make_graph(7, {0: ([2, 3, 4], [1.0, 1.0, 0.01]), 1: ([5, 6], [1.0, 1.0])})
        img, mask = line_image(S1, [[v] for v in vals]), mv.Mask(np.arange(7)[None, :] >= 2)
        cfg = mv.SolverConfig(tau=0.1, max_iter=100)
        images, _ = unfrozen_solve(graph, img, [0], cfg)
        calls = record_steps(monkeypatch)
        out, iters, _, _, zeros, _ = mv.solve_dirichlet(graph, img, mask, [0, 1], cfg)
        assert calls[0] == [0] and zeros == 1 and out.flat[1, 0] == 0.0
        assert iters == len(images)
        assert out.flat[0].tobytes() == images[-1].flat[0].tobytes()
