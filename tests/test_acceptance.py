"""Acceptance suite.

One test per acceptance criterion.  Each test prints a single
"[acceptance] criterion n (name): PASS/FAIL" line to the terminal so the
suite doubles as a checklist; tolerances are pinned in the assertions.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import mvinpaint as mv
from mvinpaint import cli

from conftest import (
    line_image,
    make_graph,
    path_graph,
    random_ortho,
    random_point,
    real_graph_inf_laplacian,
    select_extremal_pair,
)

E1 = mv.ManifoldDescriptor.euclidean(1)


@contextmanager
def criterion(capsys, number, name):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    with capsys.disabled():
        print(f"[acceptance] criterion {number} ({name}): PASS")


def scrub(img, mask):
    """Copy of img with every unknown pixel overwritten by a known value."""
    out = img.copy()
    fill = out.data[mask.known][0].copy()
    out.data[~mask.known] = fill
    return out


def test_criterion_1_manifold_kernels(capsys):
    cases = 1000
    suite = [
        (mv.ManifoldDescriptor.euclidean(3), 3.0),
        (mv.ManifoldDescriptor.circle(), 0.9 * np.pi),
        (mv.ManifoldDescriptor.sphere2(), 0.9 * np.pi),
        (mv.ManifoldDescriptor.spd(2), 2.0),
        (mv.ManifoldDescriptor.spd(3), 2.0),
    ]
    with criterion(capsys, 1, "manifold kernels"):
        t0 = time.perf_counter()
        for desc, max_norm in suite:
            rng = np.random.default_rng(1001)
            k = desc.kernel
            n = desc.dim
            x = random_point(desc, rng, size=(cases,))
            w = random_ortho(desc, rng, x, max_norm)
            y = k.exp_ortho(x, w)
            back = k.log_ortho(x, y)
            roundtrip = np.sqrt(k.dist2(k.exp_ortho(x, back), y))
            assert roundtrip.max() < 1e-9
            d_xy = np.sqrt(k.dist2(x, y))
            norms = np.sqrt(np.einsum("bl,bl->b", back, back))
            assert np.abs(norms - d_xy).max() < 1e-10
            z = random_point(desc, rng, size=(cases,))
            slack = d_xy + np.sqrt(k.dist2(y, z))
            assert (np.sqrt(k.dist2(x, z)) <= slack + 1e-10).all()
            if desc.kind == "spd":
                g = rng.standard_normal((cases, n, n))
                while True:
                    bad = np.abs(np.linalg.det(g)) < 0.3
                    if not bad.any():
                        break
                    g[bad] = rng.standard_normal((int(bad.sum()), n, n))

                def congruence(pts):
                    m = np.einsum(
                        "bij,bjk,blk->bil", g, pts.reshape(-1, n, n), g
                    )
                    m = 0.5 * (m + np.swapaxes(m, -1, -2))
                    return m.reshape(-1, n * n)

                moved = np.sqrt(k.dist2(congruence(x), congruence(y)))
                assert np.abs(moved - d_xy).max() < 1e-8
        assert time.perf_counter() - t0 < 10.0


def test_criterion_2_operator_identity(capsys):
    cases = 10_000
    rng = np.random.default_rng(2002)
    with criterion(capsys, 2, "operator identity and extremal pairs"):
        degrees = rng.integers(1, 9, size=cases)
        total = int(degrees.sum())
        values = np.empty(cases + total)
        edges = {}
        nxt = cases
        for c in range(cases):
            deg = int(degrees[c])
            ids = list(range(nxt, nxt + deg))
            nxt += deg
            nb = rng.uniform(-10.0, 10.0, size=deg)
            values[ids] = nb
            values[c] = rng.uniform(nb.min(), nb.max())
            edges[c] = (ids, [1.0] * deg)
        graph = make_graph(cases + total, edges)
        img = line_image(E1, values[:, None])
        field = mv.inf_laplacian_field(graph, img, np.arange(cases))

        for c in range(cases):
            real = real_graph_inf_laplacian(graph, values, c)
            assert abs(field[c, 0] - 0.5 * real) < 1e-12

            ids, w = graph.neighbors(c)
            fu = values[c]
            best = None
            for a in range(len(ids)):
                for b in range(len(ids)):
                    obj = abs(
                        math.sqrt(w[a]) * (values[ids[a]] - fu)
                        - math.sqrt(w[b]) * (values[ids[b]] - fu)
                    )
                    key = (-obj, int(ids[a]), int(ids[b]))
                    if best is None or key < best:
                        best = key
            assert select_extremal_pair(graph, img, c) == best[1:]


def test_criterion_3_lipschitz_extensions(capsys):
    with criterion(capsys, 3, "minimizing Lipschitz extensions"):
        # 9-vertex path with boundary 0 and 8 has the ramp as its unique
        # discrete minimizing Lipschitz extension
        graph = path_graph(9)
        start = [[0.0]] + [[4.0]] * 7 + [[8.0]]
        f0 = line_image(E1, start)
        known = np.zeros((1, 9), dtype=bool)
        known[0, 0] = known[0, 8] = True
        cfg = mv.SolverConfig(k=2, p=0, r=1, eps=1e-12, max_iter=1000)
        res = mv.solve_dirichlet(graph, f0, mv.Mask(known), np.arange(1, 8), cfg)
        out = res.image
        assert res.iterations <= 1000
        ramp = np.arange(9.0)
        assert np.abs(out.data[0, :, 0] - ramp).max() < 1e-4

        # single active vertex against two unit-weight anchors lands on the
        # geodesic midpoint exp_x(log_x(y) / 2)
        desc = mv.ManifoldDescriptor.sphere2()
        x = np.array([1.0, 0.0, 0.0])
        y = np.array([0.0, 1.0, 0.0])
        img = line_image(desc, [x, x, y])
        graph = make_graph(3, {0: ([1, 2], [1.0, 1.0])})
        known = np.array([[False, True, True]])
        cfg = mv.SolverConfig(k=2, p=0, r=1, eps=1e-12, max_iter=1000)
        out = mv.solve_dirichlet(graph, img, mv.Mask(known), [0], cfg).image
        k = desc.kernel
        midpoint = k.exp_ortho(x, 0.5 * k.log_ortho(x, y))
        assert k.dist(out.flat[0], midpoint) < 1e-6
        assert k.dist(out.flat[0], np.array([1.0, 1.0, 0.0]) / np.sqrt(2)) < 1e-6


def test_criterion_4_front_propagation(capsys):
    with criterion(capsys, 4, "front propagation quality"):
        t0 = time.perf_counter()
        # constant image: the fill must reproduce the constant
        desc = mv.ManifoldDescriptor.sphere2()
        point = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
        img = mv.MvImage(desc, np.broadcast_to(point, (16, 16, 3)).copy())
        hole = mv.cut_mask(16, 16, (6, 6, 4, 4))
        out, _ = mv.inpaint(img, hole, mv.SolverConfig(k=5, p=2, r=4))
        d = np.sqrt(desc.kernel.dist2(out.flat, np.broadcast_to(point, (256, 3))))
        assert d.max() < 1e-6

        # textured image: the solve must beat plain nearest-copy filling
        truth = mv.generate_sphere_image(32, 32)
        hole = mv.cut_mask(32, 32, (12, 12, 8, 8))
        damaged = scrub(truth, hole)
        cfg = mv.SolverConfig(k=10, p=4, r=16)
        solved, _ = mv.inpaint(damaged, hole, cfg)
        solved_mean = mv.compare(solved, truth, hole).mean
        copied = mv.nearest_known_fill(damaged, hole)
        copied_mean = mv.compare(copied, truth, hole).mean
        assert solved_mean < copied_mean
        assert time.perf_counter() - t0 < 60.0


def test_criterion_5_preset_smoke_runs(capsys):
    with criterion(capsys, 5, "preset smoke runs"):
        t0 = time.perf_counter()
        hole = mv.cut_mask(64, 64, (24, 24, 16, 16))

        sphere = scrub(mv.generate_sphere_image(64, 64), hole)
        out, front = mv.inpaint(sphere, hole, mv.SolverConfig(k=25, p=12, r=32))
        out.validate()
        assert len(front.log) >= 1

        spd = scrub(mv.generate_spd_image(64, 64), hole)
        desc = spd.descriptor
        sparse, _ = mv.inpaint(spd, hole, mv.SolverConfig(k=5, p=6, r=32))
        dense, _ = mv.inpaint(spd, hole, mv.SolverConfig(k=25, p=6, r=32))
        sparse.validate()
        dense.validate()

        def cross_line_gap(img):
            # mean geodesic jump between the two columns that straddle the
            # generator's center discontinuity, restricted to the hole rows
            gaps = [
                desc.kernel.dist(img.data[i, 31], img.data[i, 32])
                for i in range(24, 40)
            ]
            return float(np.mean(gaps))

        # more neighbors smooth the reconstructed discontinuity
        assert cross_line_gap(dense) < cross_line_gap(sparse)
        assert time.perf_counter() - t0 < 600.0


def test_criterion_6_bitwise_determinism(capsys, tmp_path):
    with criterion(capsys, 6, "bitwise determinism"):
        truth = mv.generate_sphere_image(32, 32)
        hole = mv.cut_mask(32, 32, (12, 12, 8, 8))
        img_p = tmp_path / "damaged.mvi"
        mask_p = tmp_path / "hole.pbm"
        mv.write_mvi(scrub(truth, hole), img_p)
        mv.write_mask(hole, mask_p)

        def run(name, threads):
            out = tmp_path / name
            argv = ["inpaint", "-i", str(img_p), "-m", str(mask_p),
                    "-o", str(out), "--k", "10", "--p", "4", "--r", "16",
                    "--threads", str(threads)]
            assert cli.run(argv) == 0
            return out.read_bytes()

        first = run("a.mvi", 1)
        second = run("b.mvi", 1)
        pooled = run("c.mvi", 4)
        assert first == second
        assert first == pooled
