import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import mvinpaint as mv
import mvinpaint.manifolds as manifolds
from mvinpaint import operators
from mvinpaint.errors import (
    CutLocusError,
    DimensionMismatch,
    EigenConvergenceError,
)
from mvinpaint.manifolds import sym_eig_batch, wrap_angle

from conftest import line_image, log_at, make_graph, random_ortho, random_point

E1 = mv.ManifoldDescriptor.euclidean(1)
E3 = mv.ManifoldDescriptor.euclidean(3)
S1 = mv.ManifoldDescriptor.circle()
S2 = mv.ManifoldDescriptor.sphere2()
P2 = mv.ManifoldDescriptor.spd(2)
P3 = mv.ManifoldDescriptor.spd(3)

# safe tangent length for random draws, comfortably inside the injectivity
# radius of each manifold
MAX_NORM = {
    "euclidean": 3.0,
    "circle": 0.9 * np.pi,
    "sphere2": 0.9 * np.pi,
    "spd": 2.0,
}


def spd_buf(*rows):
    return np.asarray(rows, dtype=np.float64).reshape(-1)


def spd_dist_oracle(xb, yb, n):
    """Distance by whitening with numpy's eigh, independent of the package."""
    x = np.asarray(xb).reshape(n, n)
    y = np.asarray(yb).reshape(n, n)
    lx, ux = np.linalg.eigh(x)
    xmh = ux @ np.diag(1.0 / np.sqrt(lx)) @ ux.T
    lam = np.linalg.eigvalsh(xmh @ y @ xmh)
    return float(np.sqrt((np.log(lam) ** 2).sum()))


def circle_log_oracle(x, y):
    best = None
    for k in (-2, -1, 0, 1, 2):
        d = (y - x) + 2.0 * np.pi * k
        if best is None or abs(d) < abs(best):
            best = d
    return best


class TestFixedValues:
    def test_euclidean_exp(self):
        y = E3.kernel.exp_ortho(np.array([1.0, 2.0, 0.0]), np.array([0.5, -1.0, 3.0]))
        assert np.array_equal(y, [1.5, 1.0, 3.0])

    def test_euclidean_log_and_distance(self):
        lg = log_at(E3, [0.0, 0.0, 0.0], [3.0, 4.0, 0.0])
        assert np.array_equal(lg, [3.0, 4.0, 0.0])
        assert E3.kernel.dist(np.zeros(3), np.array([3.0, 4.0, 0.0])) == 5.0

    def test_circle_log_wraps_short_way(self):
        # from 3 rad to -3 rad the short arc crosses the seam at pi
        lg = log_at(S1, [3.0], [-3.0])
        assert abs(lg[0] - 0.28318530717958623) < 1e-15
        assert abs(lg[0] - circle_log_oracle(3.0, -3.0)) < 1e-15
        assert abs(S1.kernel.dist(np.array([3.0]), np.array([-3.0])) - 0.28318530717958623) < 1e-15

    def test_circle_log_oracle_random(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            x = float(random_point(S1, rng)[0])
            y = float(random_point(S1, rng)[0])
            if np.pi - abs(wrap_angle(y - x)) < 1e-9:
                continue
            assert abs(log_at(S1, [x], [y])[0] - circle_log_oracle(x, y)) < 1e-12

    def test_sphere_quarter_turn(self):
        x = np.array([1.0, 0.0, 0.0])
        y = np.array([0.0, 1.0, 0.0])
        assert abs(S2.kernel.dist(x, y) - np.pi / 2.0) < 1e-15
        lg = log_at(S2, x, y)
        assert np.allclose(lg, [0.0, np.pi / 2.0, 0.0], atol=1e-15)
        back = S2.kernel.exp_ortho(x, lg)
        assert np.allclose(back, y, atol=1e-15)

    def test_spd_commuting_distance(self):
        x = spd_buf([1.0, 0.0], [0.0, 1.0])
        y = spd_buf([np.e ** 2, 0.0], [0.0, 1.0])
        assert abs(P2.kernel.dist(x, y) - 2.0) < 1e-12

    def test_spd_distance_oracle_random(self):
        rng = np.random.default_rng(4)
        for desc, n in ((P2, 2), (P3, 3)):
            x = random_point(desc, rng, size=(50,))
            y = random_point(desc, rng, size=(50,))
            for i in range(50):
                got = desc.kernel.dist(x[i], y[i])
                assert abs(got - spd_dist_oracle(x[i], y[i], n)) < 1e-10

    def test_manifold_dim(self):
        dims = {"euclidean 1": 1, "euclidean 7": 7, "circle": 1, "sphere2": 2,
                "spd 2": 3, "spd 3": 6, "spd 16": 136}
        for text, d in dims.items():
            assert mv.ManifoldDescriptor.parse(text).manifold_dim == d


class TestProperties:
    def test_exp_log_roundtrip(self, descriptor):
        rng = np.random.default_rng(42)
        k = descriptor.kernel
        max_norm = MAX_NORM[descriptor.kind]
        for _ in range(300):
            x = random_point(descriptor, rng)
            xi = random_ortho(descriptor, rng, x, max_norm)
            y = k.exp_ortho(x, xi)
            back = log_at(descriptor, x, y)
            assert k.dist(k.exp_ortho(x, back), y) < 1e-9
            assert np.abs(back - xi).max() < 1e-8

    def test_log_norm_equals_distance(self, descriptor):
        rng = np.random.default_rng(43)
        for _ in range(300):
            x = random_point(descriptor, rng)
            y = random_point(descriptor, rng)
            try:
                lg = log_at(descriptor, x, y)
            except CutLocusError:
                continue
            assert abs(np.sqrt(lg @ lg) - descriptor.kernel.dist(x, y)) < 1e-10

    def test_distance_symmetry(self, descriptor):
        rng = np.random.default_rng(44)
        k = descriptor.kernel
        for _ in range(300):
            x = random_point(descriptor, rng)
            y = random_point(descriptor, rng)
            assert abs(k.dist(x, y) - k.dist(y, x)) < 1e-10

    def test_distance_identity(self, descriptor):
        rng = np.random.default_rng(45)
        for _ in range(100):
            x = random_point(descriptor, rng)
            assert descriptor.kernel.dist(x, x) < 1e-12

    def test_triangle_inequality(self, descriptor):
        rng = np.random.default_rng(46)
        k = descriptor.kernel
        for _ in range(300):
            x, y, z = (random_point(descriptor, rng) for _ in range(3))
            dxz = k.dist(x, z)
            dxy = k.dist(x, y)
            dyz = k.dist(y, z)
            assert dxz <= dxy + dyz + 1e-10

    def test_zero_tangent_is_bitwise_identity(self, descriptor):
        # an Euler step along an operator that is exactly zero, at a vertex
        # whose one neighbor holds its value, keeps the vertex's bits
        rng = np.random.default_rng(47)
        x = random_point(descriptor, rng)
        img = line_image(descriptor, [x, x])
        out = mv.euler_step(make_graph(2, {0: ([1], [1.0])}), img, [0])
        y = out.flat[0]
        assert np.array_equal(y, x)
        assert out is not img  # a copy, the input must stay untouched

    def test_tiny_tangent_is_bitwise_identity(self, descriptor):
        # an operator of norm below 1e-15 is an exact zero, and its Euler
        # step keeps the vertex's bits: beside a neighbor holding x, one at
        # y weighted 1e-40 gives about 1e-20 log_x(y)
        rng = np.random.default_rng(48)
        x = random_point(descriptor, rng)
        y = random_point(descriptor, rng)
        img = line_image(descriptor, [x, x, y])
        g = make_graph(3, {0: ([1, 2], [1.0, 1e-40])})
        assert 0.0 < 1e-20 * np.linalg.norm(log_at(descriptor, x, y)) < 1e-15
        assert not mv.inf_laplacian(g, img, 0).any()
        assert np.array_equal(mv.euler_step(g, img, [0]).flat[0], x)


class TestCircle:
    def test_angles_stay_wrapped(self):
        rng = np.random.default_rng(50)
        for _ in range(200):
            x = random_point(S1, rng)
            xi = random_ortho(S1, rng, x, 20.0)
            y = S1.kernel.exp_ortho(x, xi)
            assert -np.pi < y[0] <= np.pi

    def test_full_turn_returns(self):
        y = S1.kernel.exp_ortho(np.array([1.0]), np.array([2.0 * np.pi]))
        assert abs(y[0] - 1.0) < 1e-12

    def test_wrap_angle_edges(self):
        assert wrap_angle(np.pi) == np.pi
        assert wrap_angle(-np.pi) == np.pi
        assert abs(wrap_angle(3.0 * np.pi) - np.pi) < 1e-12

    def test_cut_locus_raises(self):
        # the operator at 0 with one neighbor is that neighbor's log
        g = make_graph(2, {0: ([1], [1.0])})
        with pytest.raises(CutLocusError):
            mv.inf_laplacian(g, line_image(S1, [[0.0], [np.pi]]), 0)
        with pytest.raises(CutLocusError):
            mv.inf_laplacian(g, line_image(S1, [[0.0], [np.pi - 5e-11]]), 0)
        # a hair farther from the antipode is fine
        lg = mv.inf_laplacian(g, line_image(S1, [[0.0], [np.pi - 1e-9]]), 0)
        assert abs(abs(lg[0]) - (np.pi - 1e-9)) < 1e-12

    @pytest.mark.parametrize("angle", [-np.pi, np.nextafter(np.pi, 4.0), -4.0])
    def test_angle_outside_half_open_range_rejected(self, angle):
        pts = np.array([[0.0], [np.pi], [angle]])
        assert S1.kernel.validate_points(pts) == (2, "angle outside (-pi, pi]")


class TestSphere:
    def test_outputs_stay_unit(self):
        rng = np.random.default_rng(51)
        for _ in range(200):
            x = random_point(S2, rng)
            xi = random_ortho(S2, rng, x, 0.9 * np.pi)
            y = S2.kernel.exp_ortho(x, xi)
            assert abs(np.linalg.norm(y) - 1.0) < 1e-12

    def test_log_is_tangential(self):
        rng = np.random.default_rng(52)
        for _ in range(200):
            x = random_point(S2, rng)
            y = random_point(S2, rng)
            lg = log_at(S2, x, y)
            assert abs(np.dot(lg, x)) < 1e-12

    def test_antipode_raises(self):
        x = np.array([0.0, 0.0, 1.0])
        with pytest.raises(CutLocusError):
            mv.inf_laplacian(make_graph(2, {0: ([1], [1.0])}), line_image(S2, [x, -x]), 0)

    def test_near_antipode_ok(self):
        x = np.array([1.0, 0.0, 0.0])
        t = np.pi - 1e-6
        y = np.array([np.cos(t), np.sin(t), 0.0])
        lg = log_at(S2, x, y)
        assert abs(np.sqrt(lg @ lg) - t) < 1e-8

    def test_dist2_bits_do_not_depend_on_the_layout(self):
        # dist2 adds each squared norm's terms in one written-out order, so
        # the graph build's strided window fields, contiguous copies and
        # single pairs all give the bits of the closed form below.  The
        # windows of F = [P | P nearly | -P nearly] pair P with random,
        # nearly equal (and equal) and nearly antipodal points
        rng = np.random.default_rng(20)
        k = S2.kernel
        P = random_point(S2, rng, size=(6, 7))

        def nearly(x):
            scale = 10.0 ** rng.uniform(-15, -3, size=x.shape[:-1] + (1,))
            return k.exp_ortho(x, scale * random_ortho(S2, rng, x, 1.0))

        F = np.concatenate([P, nearly(P), -nearly(P)], axis=1)
        windows = np.moveaxis(sliding_window_view(F, (6, 7), axis=(0, 1)), 2, -1)[0]
        x, y = windows[0], windows
        got = k.dist2(x, y)
        assert got.shape == (15, 6, 7)
        xc, yc = np.ascontiguousarray(np.broadcast_to(x, y.shape)), np.ascontiguousarray(y)
        assert k.dist2(xc, yc).tobytes() == got.tobytes()
        pairs = [k.dist2(a, b) for a, b in zip(xc.reshape(-1, 3), yc.reshape(-1, 3))]
        assert np.array(pairs).tobytes() == got.tobytes()

        def closed_form(first, last):
            d, s = xc - yc, xc + yc
            sd = (d[..., 0] * d[..., 0] + d[..., first] * d[..., first]) + d[..., last] * d[..., last]
            ss = (s[..., 0] * s[..., 0] + s[..., first] * s[..., first]) + s[..., last] * s[..., last]

            def half(q):
                # the clamp only keeps arcsin quiet on the branch not taken
                return np.arcsin(np.minimum(np.sqrt(q) / 2.0, 1.0))

            angle = np.where(sd <= 2.0, 2.0 * half(sd), np.pi - 2.0 * half(ss))
            return angle * angle

        assert closed_form(2, 1).tobytes() == got.tobytes()
        # the pairs tell the orders apart
        assert closed_form(1, 2).tobytes() != got.tobytes()
        assert not got[0].any() and (got[7] < 1e-5).all() and (got[14] > 9.8).all()


def sphere_pairs(rng, theta):
    """Unit vectors x and y (n, 3) with y at angle theta (n,) from x, to rounding."""
    x = random_point(S2, rng, size=theta.shape)
    u = random_ortho(S2, rng, x, 1.0)
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    y = np.cos(theta)[:, None] * x + np.sin(theta)[:, None] * u
    return x, y / np.linalg.norm(y, axis=-1, keepdims=True)


def kahan_angle(x, y):
    """Kahan's 2 atan2(|x - y|, |x + y|), in long double, of the same float64 points."""
    x, y = np.asarray(x, dtype=np.longdouble), np.asarray(y, dtype=np.longdouble)
    return 2 * np.arctan2(np.sqrt(((x - y) ** 2).sum(-1)), np.sqrt(((x + y) ** 2).sum(-1)))


# angle families: uniform, both sides of the pi/2 seam between the chord
# and the antipodal form, and ever closer to the antipode
ANGLES = {
    "uniform": lambda rng, n: rng.uniform(0.0, np.pi, n),
    "seam": lambda rng, n: np.pi / 2 + rng.uniform(-1e-3, 1e-3, n),
    "pi-1e-3": lambda rng, n: np.full(n, np.pi - 1e-3),
    "pi-1e-6": lambda rng, n: np.full(n, np.pi - 1e-6),
    "pi-1e-9": lambda rng, n: np.full(n, np.pi - 1e-9),
}


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="long double is float64 here, so the oracle is no finer")
@pytest.mark.parametrize("family", ANGLES)
def test_sphere_dist_matches_a_long_double_oracle(family):
    rng = np.random.default_rng(70)
    x, y = sphere_pairs(rng, ANGLES[family](rng, 4000))
    want = kahan_angle(x, y)
    got = S2.kernel.dist(x, y)
    assert (np.abs(got - want) <= 4 * np.finfo(np.float64).eps * want).all()


def test_sphere_dist_of_antipodal_points_is_pi():
    # exactly pi (0 at the point itself is test_dist2_of_a_point_to_itself_
    # is_exactly_zero's); RuntimeWarnings are errors in this suite, so no
    # arcsin reads an argument above 1
    x = random_point(S2, np.random.default_rng(71), size=(500,))
    assert (S2.kernel.dist(x, -x) == np.pi).all()
    assert S2.kernel.dist(x[0], -x[0]) == np.pi


@pytest.mark.parametrize("family", ANGLES)
def test_sphere_log_length_is_the_distance(family):
    # up to pi - 1e-9: y - <x, y> x cancels near the antipode, so the log
    # takes only its direction from it
    rng = np.random.default_rng(72)
    x, y = sphere_pairs(rng, np.minimum(ANGLES[family](rng, 4000), np.pi - 1e-9))
    got = np.linalg.norm(S2.kernel.log_ortho(x, y), axis=-1)
    want = S2.kernel.dist(x, y)
    assert (np.abs(got - want) <= 1e-14 * want).all()


@pytest.mark.parametrize("desc", [S1, S2], ids=lambda d: d.label())
def test_batched_log_is_nan_exactly_at_the_cut_locus(desc):
    # planted rows at angle pi, pi - 5e-11 (within CUT_LOCUS_TOL) and
    # pi - 1e-9 (outside it) from their base, among random rows: the batched
    # log is NaN in the first two and raises nothing, and the others keep the
    # bits of a call without the planted rows
    k = desc.kernel
    rng = np.random.default_rng(60)
    x, y = random_point(desc, rng, size=(9,)), random_point(desc, rng, size=(9,))
    base = random_point(desc, rng, size=(3,))
    unit = random_ortho(desc, rng, base, 1.0)
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    gaps = np.array([0.0, 5e-11, 1e-9])
    far = k.exp_ortho(base, (np.pi - gaps)[:, None] * unit)
    if desc == S2:
        far[0] = -base[0]
    at = np.array([1, 4, 8])
    got = k.log_ortho(np.insert(x, at, base, axis=0), np.insert(y, at, far, axis=0))
    pos = at + np.arange(3)                     # where the planted rows land
    assert np.flatnonzero(np.isnan(got).any(axis=1)).tolist() == pos[:2].tolist()
    assert np.isnan(got[pos[:2]]).all()
    assert got[np.delete(np.arange(12), pos)].tobytes() == k.log_ortho(x, y).tobytes()
    # outside the tolerance the log keeps its length near the antipode
    assert np.linalg.norm(got[pos[2]]) == pytest.approx(np.pi - gaps[2], abs=1e-7)


class TestSpd:
    def test_outputs_stay_spd(self):
        rng = np.random.default_rng(53)
        for desc, n in ((P2, 2), (P3, 3)):
            for _ in range(100):
                x = random_point(desc, rng)
                xi = random_ortho(desc, rng, x, 2.0)
                y = desc.kernel.exp_ortho(x, xi).reshape(n, n)
                assert np.abs(y - y.T).max() < 1e-12
                assert np.linalg.eigvalsh(y).min() > 0.0

    def test_affine_invariance(self):
        rng = np.random.default_rng(54)
        for desc, n in ((P2, 2), (P3, 3)):
            for _ in range(100):
                x = random_point(desc, rng)
                y = random_point(desc, rng)
                g = rng.normal(size=(n, n))
                while abs(np.linalg.det(g)) < 0.3:
                    g = rng.normal(size=(n, n))
                gx = (g.T @ x.reshape(n, n) @ g).reshape(-1)
                gy = (g.T @ y.reshape(n, n) @ g).reshape(-1)
                assert abs(desc.kernel.dist(gx, gy) - desc.kernel.dist(x, y)) < 1e-8

    def test_closed_form_matches_generic(self):
        # the 2x2 fast path must agree with the eigenvalue route used for n=3
        rng = np.random.default_rng(55)
        k = P2.kernel
        x = random_point(P2, rng, size=(200,))
        y = random_point(P2, rng, size=(200,))
        fast = k.dist2(x, y)
        slow = np.array([spd_dist_oracle(x[i], y[i], 2) ** 2 for i in range(200)])
        assert np.abs(fast - slow).max() < 1e-10

    def test_rejects_non_spd_point(self):
        bad = spd_buf([1.0, 0.0], [0.0, -1.0])
        good = spd_buf([1.0, 0.0], [0.0, 1.0])
        with pytest.raises(DimensionMismatch, match=r"pixel \(0, 1\) invalid: not positive definite"):
            line_image(P2, [good, bad])

    def test_rejects_asymmetric_point(self):
        bad = spd_buf([1.0, 0.5], [0.0, 1.0])
        good = spd_buf([1.0, 0.0], [0.0, 1.0])
        with pytest.raises(DimensionMismatch, match=r"pixel \(0, 1\) invalid: not symmetric"):
            line_image(P2, [good, bad])


class TestArgumentChecking:
    @pytest.mark.parametrize("desc", [E1, E3, S1, S2, P2, P3], ids=lambda d: d.label())
    def test_parse_inverts_label(self, desc):
        assert mv.ManifoldDescriptor.parse(desc.label()) == desc

    @pytest.mark.parametrize("kind, dim, message", [
        ("torus", 0, "unknown manifold kind 'torus'"),
        ("circle", 2, "circle takes no size parameter"),
    ])
    def test_descriptor_rejects_unknown_kind_and_stray_size(self, kind, dim, message):
        with pytest.raises(DimensionMismatch, match=message):
            mv.ManifoldDescriptor(kind, dim)


def eigh_fn(mats, f):
    """f(M) for symmetric M (..., n, n) through numpy's eigh."""
    lam, q = np.linalg.eigh(mats)
    return np.einsum("...ij,...j,...kj->...ik", q, f(lam), q)


def spd2_from_eig(l1, l2, theta):
    """Points R(theta) diag(l1, l2) R(theta)^T as (N, 4) buffers."""
    c, s = np.cos(theta), np.sin(theta)
    q = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    m = np.einsum("...ij,...j,...kj->...ik", q, np.stack([l1, l2], -1), q)
    return (0.5 * (m + np.swapaxes(m, -1, -2))).reshape(-1, 4)


def spd2_family(name, rng, n=200):
    theta = rng.uniform(0.0, np.pi, n)
    if name == "random":
        return random_point(P2, rng, size=(n,))
    if name == "diagonal":
        lam = np.exp(rng.uniform(-3.0, 3.0, (2, n)))
        return spd2_from_eig(lam[0], lam[1], 0.0 * theta)
    if name == "isotropic":
        # exact multiples of I: the eigenvalue gap r is exactly 0
        lam = np.exp(rng.uniform(-3.0, 3.0, n))
        return spd2_from_eig(lam, lam, 0.0 * theta)
    if name == "gap":
        lam = np.full(n, 1.5)
        return spd2_from_eig(lam, lam * (1.0 + np.logspace(-9, -1, n)), theta)
    if name == "condition":
        lam = np.full(n, 2.0)
        return spd2_from_eig(lam, lam / np.logspace(0, 10, n), theta)
    raise ValueError(name)


SPD2_FAMILIES = ["random", "diagonal", "isotropic", "gap", "condition"]
ORACLE_INPUTS = SPD2_FAMILIES + ["spd3"]
SPD_MAPS = ["log_ortho", "exp_ortho"]


def spd_oracle(x, y, w):
    """Both spd(n) kernel maps at bases x by eigh: the logs of y and the exps of w."""
    n = int(round(np.sqrt(x.shape[-1])))
    X, Y, W = (a.reshape(-1, n, n) for a in (x, y, w))
    xh = eigh_fn(X, np.sqrt)
    xmh = eigh_fn(X, lambda lam: 1.0 / np.sqrt(lam))
    return {
        "log_ortho": eigh_fn(xmh @ Y @ xmh, np.log),
        "exp_ortho": xh @ eigh_fn(W, np.exp) @ xh,
    }


class TestSpd2ClosedForm:
    """The closed-form spd(2) kernel against an oracle built on numpy's eigh alone.

    A map of points with condition number kappa is accurate to about
    eps * kappa relative to max(1, |result|) in double precision, for the
    kernel and the oracle alike; the tolerance is 64 eps kappa.  Only one
    side of each pair is drawn from the family: two points with condition
    1e10 each whiten to condition 1e20, beyond double precision.  Random
    spd(3) points check the eigensolver route of n >= 3 against the same
    oracle.
    """

    @pytest.mark.parametrize("side", ["base", "target"])
    @pytest.mark.parametrize("family", ORACLE_INPUTS)
    def test_maps_match_eigh_oracle(self, family, side):
        rng = np.random.default_rng(ORACLE_INPUTS.index(family))
        if family == "spd3":
            desc, fam = P3, random_point(P3, rng, size=(200,))
        else:
            desc, fam = P2, spd2_family(family, rng)
        n, k = desc.dim, desc.kernel
        other = random_point(desc, rng, size=fam.shape[:1])
        x, y = (fam, other) if side == "base" else (other, fam)
        w = random_ortho(desc, rng, x, 2.0)
        ref = spd_oracle(x, y, w)
        args = {"log_ortho": y, "exp_ortho": w}
        kappa = np.maximum(np.linalg.cond(x.reshape(-1, n, n)),
                           np.linalg.cond(y.reshape(-1, n, n)))
        tol = 64.0 * np.finfo(np.float64).eps * kappa
        for name in SPD_MAPS:
            got = getattr(k, name)(x, args[name]).reshape(-1, n, n)
            scale = np.maximum(1.0, np.abs(ref[name]).max(axis=(1, 2)))
            err = np.abs(got - ref[name]).max(axis=(1, 2)) / scale
            assert (err < tol).all(), (name, float((err / tol).max()))

    def test_diagonal_inputs_keep_full_accuracy(self):
        # diagonal points and tangents stay diagonal, so no condition number
        # enters: the small eigenvalue must not come from m - r, which
        # cancels at condition 1e10
        rng = np.random.default_rng(63)
        k = P2.kernel
        n = 200
        lam = np.exp(rng.uniform(-11.5, 11.5, (4, n)))
        x = spd2_from_eig(lam[0], lam[1], np.zeros(n))
        y = spd2_from_eig(lam[2], lam[3], np.zeros(n))
        w = spd2_from_eig(*rng.uniform(-2.0, 2.0, (2, n)), np.zeros(n))
        ref = spd_oracle(x, y, w)
        args = {"log_ortho": y, "exp_ortho": w}
        for name in SPD_MAPS:
            got = getattr(k, name)(x, args[name]).reshape(-1, 2, 2)
            scale = np.abs(ref[name]).max(axis=(1, 2))
            err = np.abs(got - ref[name]).max(axis=(1, 2)) / scale
            assert (err < 64.0 * np.finfo(np.float64).eps).all(), name

    def test_outputs_are_exactly_symmetric(self):
        rng = np.random.default_rng(60)
        k = P2.kernel
        for family in SPD2_FAMILIES:
            x = spd2_family(family, rng)
            y = random_point(P2, rng, size=x.shape[:1])
            w = random_ortho(P2, rng, x, 2.0)
            for out in (k.log_ortho(x, y), k.exp_ortho(x, w)):
                assert np.array_equal(out[:, 1], out[:, 2])

    def test_asymmetric_buffers_are_read_as_their_symmetric_part(self):
        # each map symmetrises its input buffers once, as (M01 + M10) / 2,
        # so off-diagonal rounding in a buffer changes no bit of any output
        rng = np.random.default_rng(64)
        k = P2.kernel
        x, y = random_point(P2, rng, size=(2, 200))
        w = random_ortho(P2, rng, x, 2.0)
        asym, sym = {}, {}
        for name, buf in (("x", x), ("y", y), ("w", w)):
            a = buf.copy()
            a[:, 1] += rng.uniform(-5e-13, 5e-13, len(a))
            a[:, 2] -= rng.uniform(-5e-13, 5e-13, len(a))
            assert 0.0 < np.abs(a[:, 1] - a[:, 2]).max() <= 1e-12
            s = a.copy()
            s[:, 1] = s[:, 2] = 0.5 * (a[:, 1] + a[:, 2])
            asym[name], sym[name] = a, s
        args = {"log_ortho": "y", "dist2": "y", "exp_ortho": "w"}
        for name, arg in args.items():
            got = getattr(k, name)(asym["x"], asym[arg])
            ref = getattr(k, name)(sym["x"], sym[arg])
            assert np.array_equal(got, ref), name

    def test_equal_inputs_give_equal_outputs_at_any_position(self):
        # the extremal-pair tie rule compares log vectors of equal neighbors
        # bitwise, wherever they sit in the batch
        rng = np.random.default_rng(61)
        k = P2.kernel
        x = random_point(P2, rng, size=(5,))
        y = random_point(P2, rng, size=(5, 37))
        w = random_ortho(P2, rng, y, 2.0)
        y[:, 5:] = y[:, :1]
        w[:, 5:] = w[:, :1]
        s = k.log_ortho(x[:, None, :], y)
        for a in range(5):
            single = k.log_ortho(x[a], y[a, 0])
            assert (s[a, 5:] == single).all() and (s[a, 0] == single).all()
        out = k.exp_ortho(y, w)
        assert (out[:, 5:] == out[:, :1]).all()

    def test_non_positive_definite_points_raise(self):
        # indefinite, negative definite and singular points: an image
        # rejects each when it is made, so no map ever takes one
        good = spd_buf([2.0, 0.5], [0.5, 1.0])
        bad_points = [
            spd_buf([1.0, 0.0], [0.0, -1.0]),
            spd_buf([1.0, 2.0], [2.0, 1.0]),
            spd_buf([-1.0, 0.0], [0.0, -1.0]),
            spd_buf([1.0, 1.0], [1.0, 1.0]),
        ]
        for bad in bad_points:
            assert P2.kernel.validate_points(np.stack([good, bad])) == (1, "not positive definite")
            with pytest.raises(DimensionMismatch, match=r"pixel \(0, 1\) invalid: not positive definite"):
                line_image(P2, [good, bad])

    def test_validation_accepts_exactly_what_the_maps_accept(self):
        # near-singular points on both sides of positive definite: entries
        # from 1e-170 to 1e5, |b| within a relative 1e-17..1 of sqrt(a c),
        # a tenth with a < 0, and a I from 1e-200 to 1e-77, where det
        # underflows to 0 below about 1e-162 and is subnormal below about
        # 1e-154; and 1e154 I, whose 2 det, the log of which dist2 takes,
        # overflows
        k = P2.kernel
        rng = np.random.default_rng(63)
        n = 2000
        a, c = 10.0 ** rng.uniform(-170, 5, (2, n))
        gap = rng.choice([-1.0, 1.0], n) * 10.0 ** -rng.uniform(0, 17, n)
        b = rng.choice([-1.0, 1.0], n) * np.sqrt(a * c) * (1.0 - gap)
        a[rng.random(n) < 0.1] *= -1.0
        scaled = 10.0 ** np.array([-200.0, -163.0, -162.0, -161.0, -160.0, -155.0,
                                   -100.0, -81.0, -80.0, -77.0, 154.0])
        pts = np.concatenate([np.stack([a, b, b, c], axis=1),
                              scaled[:, None] * spd_buf([1.0, 0.0], [0.0, 1.0])])
        eye, zero = spd_buf([1.0, 0.0], [0.0, 1.0]), np.zeros(4)

        def finite(fn, *args):
            return bool(np.isfinite(fn(*args)).all())

        valid, reasons = [], []
        for x in pts:
            bad = k.validate_points(x[None])
            valid.append(bad is None)
            reasons.append(None if bad is None else bad[1])
            # x as a base and as a target.  log_ortho takes x as its target
            # against I, whose whitening leaves x's bits, and against x
            # itself, whose log is exactly zero: x against any other base
            # whitens to a determinant at rounding level
            calls = ((k.dist2, (x, x)), (k.dist2, (eye, x)), (k.dist2, (x, eye)),
                     (k.log_ortho, (eye, x)), (k.log_ortho, (x, x)), (k.exp_ortho, (x, zero)))
            if bad is None:
                # the maps' precondition holds: every map is finite, with no
                # RuntimeWarning, and the log of x at itself is exactly zero
                for fn, args in calls:
                    assert finite(fn, *args), (x, fn.__name__, args)
                assert not k.log_ortho(x, x).any()
            elif bad[1] == "distance not finite":
                # positive definite, but a distance from it is NaN or inf
                with np.errstate(all="ignore"):
                    assert not all(finite(fn, *args) for fn, args in calls[:3])
        assert reasons[-11:] == ["not positive definite"] * 3 + [None] * 7 + [
            "distance not finite"]
        # dist2 divides by no determinant, so every positive definite point
        # of the sample has finite distances, subnormal determinants too
        assert 0.15 < np.mean(valid) < 0.7
        assert "distance not finite" not in reasons[:n]
        # determinants that underflow to 0, and valid subnormal ones
        det = a * c - b * b
        assert ((a > 0.0) & (a * c == 0.0)).any()
        assert (np.array(valid[:n]) & (det < np.finfo(np.float64).tiny)).any()

    def test_validation_rule_is_a_finite_twice_determinant(self, monkeypatch):
        # a positive definite point is valid where 2 det is finite, which is
        # where its distance to I, the rule written here with the kernel's
        # own dist2, is finite: positive definite triples with entries from
        # 1e-320 to 1e308, near-singular and huge multiples of I, a point
        # whose det is tiny against its entries, indefinite points, and a
        # singular one whose det is inf - inf, which the positive definite
        # test lets through
        k = P2.kernel
        rng = np.random.default_rng(64)
        n = 200_000
        a, c = 10.0 ** rng.uniform(-320, 308, (2, n))
        b = rng.uniform(-1.0, 1.0, n) * np.sqrt(a) * np.sqrt(c)
        eye = spd_buf([1.0, 0.0], [0.0, 1.0])
        special = [1e154 * eye, 1e-160 * eye, spd_buf([1e200, 0.0], [0.0, 1e-200]),
                   spd_buf([1.0, 2.0], [2.0, 1.0]), spd_buf([-1.0, 0.0], [0.0, 1.0]),
                   spd_buf([1e200, 1e200], [1e200, 1e200])]
        pts = np.concatenate([np.stack([a, b, b, c], axis=1), special])

        a, b, c = pts[:, 0], 0.5 * (pts[:, 1] + pts[:, 2]), pts[:, 3]
        with np.errstate(over="ignore", invalid="ignore"):
            definite = (a > 0.0) & ~(a * c - b * b <= 0.0)
            d2 = k.dist2(pts[definite], eye)
        reasons = np.where(definite, None, "not positive definite")
        reasons[np.flatnonzero(definite)[~np.isfinite(d2)]] = "distance not finite"
        assert list(reasons[n:]) == ["distance not finite", None, None, "not positive definite",
                                     "not positive definite", "distance not finite"]
        assert (reasons[:n] == "distance not finite").sum() > 10_000
        assert (reasons[:n] == "not positive definite").sum() > 10_000

        def no_dist2(*args):
            raise AssertionError("validation computed a distance")

        monkeypatch.setattr(type(k), "dist2", no_dist2)
        valid = np.equal(reasons, None)
        assert k.validate_points(pts[valid]) is None
        for i in np.flatnonzero(~valid):
            assert k.validate_points(pts[i : i + 1]) == (0, reasons[i]), pts[i]


@pytest.mark.parametrize("desc", [P2, P3], ids=lambda d: d.label())
def test_spd_log_at_the_base_is_exactly_zero(desc):
    rng = np.random.default_rng(62)
    k = desc.kernel
    x = random_point(desc, rng, size=(200,))
    assert not k.log_ortho(x, x).any()
    assert not k.log_ortho(x[:, None, :], np.stack([x, x], axis=1)).any()
    assert not k.log_ortho(x[0], x[0].copy()).any()


def test_spd_eigen_calls_go_through_the_module_name(monkeypatch):
    # the benchmark tracer counts eigen work by wrapping this module-level
    # name; a direct LAPACK call would send its eigen metrics to zero
    sizes = []
    real = manifolds.sym_eig_batch

    def counting(mats):
        sizes.append(np.shape(mats)[-1])
        return real(mats)

    monkeypatch.setattr(manifolds, "sym_eig_batch", counting)
    rng = np.random.default_rng(5)
    # spd(3) validation, which making an image runs, asks the eigensolver;
    # spd(2)'s tests the triples
    mv.MvImage(P3, random_point(P3, rng, size=(3, 4)))
    mv.MvImage(P2, random_point(P2, rng, size=(3, 4)))
    assert sizes == [3]
    # the spd(2) maps are closed forms: none of them reaches the eigensolver
    k = P2.kernel
    x, y = random_point(P2, rng, size=(2, 6))
    w = random_ortho(P2, rng, x, 1.0)
    for name in ("log_ortho", "dist2"):
        getattr(k, name)(x, y)
    k.exp_ortho(x, w)
    assert sizes == [3]
    x, y = random_point(P3, rng, size=(2, 6))
    P3.kernel.log_ortho(x, y)
    assert len(sizes) > 1 and set(sizes) == {3}


def count_kernel_calls(desc, monkeypatch, coupled_pass):
    """Inpaint an 8x8 image of desc, counting the four traced kernel methods.

    Returns ({method: [calls, calls inside the Euler loop]}, the Euler
    steps of each layer and of the pass).
    """
    calls = {name: [0, 0] for name in ("dist2", "dist", "log_ortho", "exp_ortho")}
    in_euler = [False]
    cls = type(desc.kernel)
    for name in calls:
        def counting(kernel, *args, _name=name, _real=getattr(cls, name)):
            calls[_name][0] += 1
            calls[_name][1] += in_euler[0]
            return _real(kernel, *args)

        monkeypatch.setattr(cls, name, counting)

    def euler(*args, _real=operators._euler):
        in_euler[0] = True
        try:
            return _real(*args)
        finally:
            in_euler[0] = False

    monkeypatch.setattr(operators, "_euler", euler)
    if desc == S2:
        img = mv.generate_sphere_image(8, 8)
    else:
        img = mv.generate_spd_image(8, 8)
    mask = mv.cut_mask(8, 8, (3, 1, 3, 3))
    cfg = mv.SolverConfig(k=3, p=1, r=2, max_iter=5, coupled_pass=coupled_pass)
    _, front = mv.inpaint(img, mask, cfg)
    return calls, [rec.iterations for rec in front.log]


@pytest.mark.parametrize("desc", [S2, P2], ids=lambda d: d.label())
def test_solver_kernel_calls_go_through_the_class(desc, monkeypatch):
    # the benchmark tracer counts kernel work by wrapping these methods on
    # the kernel class; a call that bypasses them would zero those metrics.
    # Both layers are decoupled: the graph build and the 1-centre search
    # make every call, and no Euler step runs
    calls, steps = count_kernel_calls(desc, monkeypatch, coupled_pass=False)
    assert steps == [0, 0]
    assert all(total for total, _ in calls.values()), calls


@pytest.mark.parametrize("desc", [S2, P2], ids=lambda d: d.label())
def test_coupled_kernel_calls_go_through_the_class(desc, monkeypatch):
    # with coupled_pass, the pass after the two layers is coupled and takes
    # Euler steps: the logs and exps of euler_step and the distances of the
    # stop rule go through the class too
    calls, steps = count_kernel_calls(desc, monkeypatch, coupled_pass=True)
    assert steps[:2] == [0, 0] and steps[2] >= 1
    assert all(in_euler for _, in_euler in calls.values()), calls


@pytest.mark.parametrize("desc", [E3, S1, S2, P2, P3], ids=lambda d: d.label())
def test_dist2_into_out_keeps_the_bits(desc):
    # the graph build reuses one buffer as dist2's out for every chunk, so
    # writing into out must give the bits of the copying call
    rng = np.random.default_rng(12)
    k = desc.kernel
    field = random_point(desc, rng, size=(5, 6))
    big = random_point(desc, rng, size=(7, 8))
    # the build's operands: a (nR, nC, L) field against a strided
    # (c, nR, nC, L) stack of its shifted windows
    stack = np.moveaxis(sliding_window_view(big, (5, 6), axis=(0, 1)), 2, -1)[1, :3]
    near = k.exp_ortho(field, random_ortho(desc, rng, field, 1e-9))
    cases = {
        "single points": (field[0, 0], big[0, 0]),
        "equal single points": (field[0, 0], field[0, 0].copy()),
        "batch": (field[0], big[0, :6]),
        "nearly equal batch": (field[1], near[1]),
        "field against stack": (field, stack),
        "equal and nearly equal stack": (field, np.stack([field, near])),
    }
    for name, (x, y) in cases.items():
        ref = k.dist2(x, y)
        out = np.full(np.shape(ref), np.nan)
        assert k.dist2(x, y, out) is out, name
        assert out.tobytes() == np.asarray(ref).tobytes(), name
    # on a torus-wide region the build writes into the leading columns of a
    # wider buffer, so out can be a strided view
    x, y = cases["field against stack"]
    ref = k.dist2(x, y)
    wide = np.full(ref.shape[:-1] + (ref.shape[-1] + 4,), np.nan)
    view = wide[..., : ref.shape[-1]]
    assert k.dist2(x, y, view) is view
    assert view.tobytes() == ref.tobytes()
    assert np.isnan(wide[..., ref.shape[-1] :]).all()


@pytest.mark.parametrize("desc", [E3, S1, S2, P2], ids=lambda d: d.label())
def test_closed_form_dist2_is_bitwise_symmetric(desc):
    # a whole-torus graph build serves the window offsets s and -s from one
    # field, so it has the bits of a cut build exactly where dist2(x, y) has
    # the bits of dist2(y, x): on every kernel but spd(n >= 3)
    rng = np.random.default_rng(18)
    k = desc.kernel
    field = random_point(desc, rng, size=(6, 7))
    big = random_point(desc, rng, size=(8, 9))
    stack = np.moveaxis(sliding_window_view(big, (6, 7), axis=(0, 1)), 2, -1)[1, :3]
    batch = random_point(desc, rng, size=(500,))
    near = k.exp_ortho(batch, random_ortho(desc, rng, batch, 1e-9))
    cases = {
        "random batch": (batch, random_point(desc, rng, size=(500,))),
        "nearly equal batch": (batch, near),
        "field against stack": (field, stack),
    }
    for name, (x, y) in cases.items():
        assert k.dist2(x, y).tobytes() == k.dist2(y, x).tobytes(), name


@pytest.mark.parametrize("desc", [E1, E3, S1, S2, P2, P3], ids=lambda d: d.label())
def test_dist2_of_a_point_to_itself_is_exactly_zero(desc):
    # a geodesic distance is 0 from a point to itself, in the kernels' bits too
    rng = np.random.default_rng(65)
    k = desc.kernel
    field = random_point(desc, rng, size=(6, 7))
    stack = np.stack([field, k.exp_ortho(field, random_ortho(desc, rng, field, 1e-9))])
    assert not k.dist2(field, field.copy()).any()
    assert not k.dist2(field[0, 0], field[0, 0].copy()).any()
    # a field against a stack that holds it, as the graph build passes them
    assert not k.dist2(field, stack)[0].any()
    out = np.full((2, 6, 7), np.nan)
    assert not k.dist2(stack, field, out)[0].any()


@pytest.mark.parametrize("desc", [E1, E3, S1, S2, P2, P3], ids=lambda d: d.label())
def test_dist_is_the_root_of_dist2(desc):
    # dist2 is every kernel's one distance: dist is the base class's root of it
    assert type(desc.kernel).dist is manifolds._Kernel.dist
    rng = np.random.default_rng(66)
    k = desc.kernel
    x = random_point(desc, rng, size=(500,))
    near = k.exp_ortho(x, random_ortho(desc, rng, x, 1e-9))
    for y in (random_point(desc, rng, size=(500,)), near, x.copy()):
        assert k.dist(x, y).tobytes() == np.sqrt(k.dist2(x, y)).tobytes()
    assert k.dist(x[0], near[0]) == np.sqrt(k.dist2(x[0], near[0]))


@pytest.mark.parametrize("desc", [E1, mv.ManifoldDescriptor.euclidean(2), E3,
                                  mv.ManifoldDescriptor.euclidean(5),
                                  mv.ManifoldDescriptor.euclidean(8), S1, S2, P2, P3],
                         ids=lambda d: d.label())
def test_dist2_on_planar_fields_keeps_the_bits(desc):
    # the graph build gathers its shift region into one contiguous plane per
    # coordinate and hands dist2 windows of it whose last axis steps across
    # the planes; they must give the bits of the same points interleaved
    rng = np.random.default_rng(22)
    k = desc.kernel
    pts = random_point(desc, rng, size=(9, 10))
    planar = np.ascontiguousarray(np.moveaxis(pts, -1, 0))
    windows = np.moveaxis(sliding_window_view(planar, (6, 7), axis=(1, 2)), 0, -1)
    x, y = windows[1, 2], windows[:, 1:4]
    assert x.strides[-1] == y.strides[-1] == planar.strides[0]
    ref = k.dist2(np.ascontiguousarray(x), np.ascontiguousarray(y))
    assert ref.shape == (4, 3, 6, 7)
    assert k.dist2(x, y).tobytes() == ref.tobytes()
    out = np.full(ref.shape, np.nan)
    assert k.dist2(x, y, out).tobytes() == ref.tobytes()


def test_spd2_dist2_does_not_overflow_on_valid_points():
    # valid points far apart: the discriminant D of the crossing pair u, v
    # overflows, though X^-1 Y = diag(1e160, 1e-160) is finite; the
    # overflowing entries are recomputed, scaled, and the others keep their
    # bits.  x, y and z were points that overflowed before the distance was
    # symmetric, in one order only
    k = P2.kernel
    x, y = spd_buf([1e-80, 0.0], [0.0, 1.0]), spd_buf([1e80, 0.0], [0.0, 1.0])
    z = spd_buf([1e-150, 1e-152], [1e-152, 1.0])
    u, v = spd_buf([1e80, 0.0], [0.0, 1e-80]), spd_buf([1e-80, 0.0], [0.0, 1e80])
    assert k.validate_points(np.stack([x, y, z, u, v])) is None
    for a, b in ((x, y), (z, y), (u, v)):
        d = k.dist2(a, b)
        assert np.isfinite(d)
        assert k.dist2(b, a) == d
    ln = 160.0 * np.log(10.0)
    assert k.dist2(x, y) == pytest.approx(ln**2, rel=1e-12)     # diag(1e160, 1)
    assert k.dist2(u, v) == pytest.approx(2.0 * ln**2, rel=1e-12)
    rng = np.random.default_rng(64)
    others = random_point(P2, rng, size=(50,))
    batch = np.concatenate([others, np.stack([x, y, z, u, v])])
    got = k.dist2(batch[:, None], batch[None, :])
    assert np.isfinite(got).all()
    assert got[:50, :50].tobytes() == k.dist2(others[:, None], others[None, :]).tobytes()
    assert got[50, 51] == k.dist2(x, y)
    assert got[53, 54] == got[54, 53] == k.dist2(u, v)
    assert not np.diag(got).any()


def random_sym(rng, batch, n):
    a = rng.normal(size=tuple(batch) + (n, n))
    return (a + np.swapaxes(a, -1, -2)) / 2.0


class TestSymEigBatch:
    """sym_eig_batch, LAPACK's eigendecomposition that the spd(n != 2) kernel calls."""

    def test_diagonal_input(self):
        lam, q = sym_eig_batch(np.diag([3.0, -1.0, 2.0]))
        assert np.array_equal(lam, [-1.0, 2.0, 3.0])
        # eigenvectors of a diagonal matrix are a signed permutation
        assert np.allclose(np.abs(q), np.eye(3)[:, [1, 2, 0]])

    def test_one_by_one(self):
        lam, q = sym_eig_batch(np.array([[4.5]]))
        assert lam.shape == (1,) and q.shape == (1, 1)
        assert lam[0] == 4.5 and q[0, 0] == 1.0

    def test_reconstruction(self):
        rng = np.random.default_rng(7)
        a = random_sym(rng, (40,), 5)
        lam, q = sym_eig_batch(a)
        rebuilt = np.einsum("bij,bj,bkj->bik", q, lam, q)
        assert np.abs(rebuilt - a).max() < 1e-12

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(3)
        _, q = sym_eig_batch(random_sym(rng, (25,), 4))
        gram = np.einsum("bij,bik->bjk", q, q)
        assert np.abs(gram - np.eye(4)).max() < 1e-13

    def test_ascending_eigenvalues(self):
        rng = np.random.default_rng(5)
        lam, _ = sym_eig_batch(random_sym(rng, (30,), 6))
        assert (np.diff(lam, axis=-1) >= 0.0).all()

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 17])
    def test_matches_lapack_oracle(self, n):
        # numpy's eigvalsh serves as the independent reference here
        rng = np.random.default_rng(100 + n)
        a = random_sym(rng, (6,), n)
        lam, _ = sym_eig_batch(a)
        assert np.abs(lam - np.linalg.eigvalsh(a)).max() < 1e-11

    def test_batch_matches_single(self):
        rng = np.random.default_rng(9)
        a = random_sym(rng, (8,), 3)
        lam_b, q_b = sym_eig_batch(a)
        for i in range(8):
            lam_s, q_s = sym_eig_batch(a[i])
            assert np.array_equal(lam_s, lam_b[i])
            assert np.array_equal(q_s, q_b[i])

    def test_repeated_eigenvalue(self):
        lam, q = sym_eig_batch(np.eye(3) * 2.0)
        assert np.allclose(lam, 2.0)
        assert np.allclose(q @ q.T, np.eye(3))

    def test_convergence_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(EigenConvergenceError):
            sym_eig_batch(np.array([[1.0, 0.5], [0.5, 2.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_is_an_error(self, bad):
        a = np.eye(3)
        a[1, 2] = a[2, 1] = bad
        with pytest.raises(EigenConvergenceError):
            sym_eig_batch(np.stack([np.eye(3), a]))

    def test_spd_17_image_validates(self):
        # spd(n) has no size limit: an spd(17) image passes its point checks
        desc = mv.ManifoldDescriptor.spd(17)
        pts = random_point(desc, np.random.default_rng(17), size=(2, 3))
        mv.MvImage(desc, pts).validate()

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        a = random_sym(rng, (10,), 4)
        lam1, q1 = sym_eig_batch(a)
        lam2, q2 = sym_eig_batch(a.copy())
        assert np.array_equal(lam1, lam2) and np.array_equal(q1, q2)
