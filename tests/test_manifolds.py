import re

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import mvinpaint as mv
import mvinpaint.manifolds as manifolds
from mvinpaint.errors import (
    CutLocusError,
    DimensionMismatch,
    NotPositiveDefinite,
    TangentBaseMismatch,
)
from mvinpaint.manifolds import wrap_angle

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
        y = mv.exp_map(E3, [1.0, 2.0, 0.0], mv.Tangent(np.array([1.0, 2.0, 0.0]), np.array([0.5, -1.0, 3.0])))
        assert np.array_equal(y, [1.5, 1.0, 3.0])

    def test_euclidean_log_and_distance(self):
        lg = mv.log_map(E3, [0.0, 0.0, 0.0], [3.0, 4.0, 0.0])
        assert np.array_equal(lg.vec, [3.0, 4.0, 0.0])
        assert mv.distance(E3, [0.0, 0.0, 0.0], [3.0, 4.0, 0.0]) == 5.0

    def test_circle_log_wraps_short_way(self):
        # from 3 rad to -3 rad the short arc crosses the seam at pi
        lg = mv.log_map(S1, 3.0, -3.0)
        assert abs(lg.vec[0] - 0.28318530717958623) < 1e-15
        assert abs(lg.vec[0] - circle_log_oracle(3.0, -3.0)) < 1e-15
        assert abs(mv.distance(S1, 3.0, -3.0) - 0.28318530717958623) < 1e-15

    def test_circle_log_oracle_random(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            x = float(mv.random_point(S1, rng)[0])
            y = float(mv.random_point(S1, rng)[0])
            if np.pi - abs(wrap_angle(y - x)) < 1e-9:
                continue
            assert abs(mv.log_map(S1, x, y).vec[0] - circle_log_oracle(x, y)) < 1e-12

    def test_sphere_quarter_turn(self):
        x = np.array([1.0, 0.0, 0.0])
        y = np.array([0.0, 1.0, 0.0])
        assert abs(mv.distance(S2, x, y) - np.pi / 2.0) < 1e-15
        lg = mv.log_map(S2, x, y)
        assert np.allclose(lg.vec, [0.0, np.pi / 2.0, 0.0], atol=1e-15)
        back = mv.exp_map(S2, x, lg)
        assert np.allclose(back, y, atol=1e-15)

    def test_spd_inner_example(self):
        x = spd_buf([4.0, 0.0], [0.0, 1.0])
        a = mv.Tangent(x, spd_buf([4.0, 0.0], [0.0, 0.0]))
        assert abs(mv.tangent_inner(P2, x, a, a) - 1.0) < 1e-14

    def test_spd_commuting_distance(self):
        x = spd_buf([1.0, 0.0], [0.0, 1.0])
        y = spd_buf([np.e ** 2, 0.0], [0.0, 1.0])
        assert abs(mv.distance(P2, x, y) - 2.0) < 1e-12

    def test_spd_distance_oracle_random(self):
        rng = np.random.default_rng(4)
        for desc, n in ((P2, 2), (P3, 3)):
            x = mv.random_point(desc, rng, size=(50,))
            y = mv.random_point(desc, rng, size=(50,))
            for i in range(50):
                got = mv.distance(desc, x[i], y[i])
                assert abs(got - spd_dist_oracle(x[i], y[i], n)) < 1e-10

    def test_spd_inner_oracle_random(self):
        rng = np.random.default_rng(6)
        for desc, n in ((P2, 2), (P3, 3)):
            for _ in range(30):
                x = mv.random_point(desc, rng)
                a = mv.random_tangent(desc, rng, x, 2.0)
                b = mv.random_tangent(desc, rng, x, 2.0)
                xi = np.linalg.inv(x.reshape(n, n))
                ref = np.trace(xi @ a.vec.reshape(n, n) @ xi @ b.vec.reshape(n, n))
                assert abs(mv.tangent_inner(desc, x, a, b) - ref) < 1e-10

    def test_manifold_dim(self):
        dims = {"euclidean 1": 1, "euclidean 7": 7, "circle": 1, "sphere2": 2,
                "spd 2": 3, "spd 3": 6, "spd 16": 136}
        for text, d in dims.items():
            assert mv.ManifoldDescriptor.parse(text).manifold_dim == d


class TestProperties:
    def test_exp_log_roundtrip(self, descriptor):
        rng = np.random.default_rng(42)
        max_norm = MAX_NORM[descriptor.kind]
        for _ in range(300):
            x = mv.random_point(descriptor, rng)
            xi = mv.random_tangent(descriptor, rng, x, max_norm)
            y = mv.exp_map(descriptor, x, xi)
            back = mv.log_map(descriptor, x, y)
            assert mv.distance(descriptor, mv.exp_map(descriptor, x, back), y) < 1e-9
            assert np.abs(back.vec - xi.vec).max() < 1e-8

    def test_log_norm_equals_distance(self, descriptor):
        rng = np.random.default_rng(43)
        for _ in range(300):
            x = mv.random_point(descriptor, rng)
            y = mv.random_point(descriptor, rng)
            try:
                lg = mv.log_map(descriptor, x, y)
            except CutLocusError:
                continue
            assert abs(mv.tangent_norm(descriptor, x, lg) - mv.distance(descriptor, x, y)) < 1e-10

    def test_distance_symmetry(self, descriptor):
        rng = np.random.default_rng(44)
        for _ in range(300):
            x = mv.random_point(descriptor, rng)
            y = mv.random_point(descriptor, rng)
            assert abs(mv.distance(descriptor, x, y) - mv.distance(descriptor, y, x)) < 1e-10

    def test_distance_identity(self, descriptor):
        rng = np.random.default_rng(45)
        for _ in range(100):
            x = mv.random_point(descriptor, rng)
            assert mv.distance(descriptor, x, x) < 1e-12

    def test_triangle_inequality(self, descriptor):
        rng = np.random.default_rng(46)
        for _ in range(300):
            x, y, z = (mv.random_point(descriptor, rng) for _ in range(3))
            dxz = mv.distance(descriptor, x, z)
            dxy = mv.distance(descriptor, x, y)
            dyz = mv.distance(descriptor, y, z)
            assert dxz <= dxy + dyz + 1e-10

    def test_zero_tangent_is_bitwise_identity(self, descriptor):
        rng = np.random.default_rng(47)
        x = mv.random_point(descriptor, rng)
        xi = mv.Tangent(x, np.zeros(descriptor.point_len))
        y = mv.exp_map(descriptor, x, xi)
        assert np.array_equal(y, x)
        assert y is not x  # a copy, the input must stay untouched

    def test_tiny_tangent_is_bitwise_identity(self, descriptor):
        rng = np.random.default_rng(48)
        x = mv.random_point(descriptor, rng)
        vec = np.zeros(descriptor.point_len)
        vec[0] = 1e-16
        if descriptor.kind == "spd":
            # keep the perturbation symmetric
            vec = vec.reshape(descriptor.dim, descriptor.dim)
            vec = ((vec + vec.T) / 2.0).reshape(-1)
        assert np.array_equal(mv.exp_map(descriptor, x, mv.Tangent(x, vec)), x)


class TestCircle:
    def test_angles_stay_wrapped(self):
        rng = np.random.default_rng(50)
        for _ in range(200):
            x = mv.random_point(S1, rng)
            xi = mv.random_tangent(S1, rng, x, 20.0)
            y = mv.exp_map(S1, x, xi)
            assert -np.pi < y[0] <= np.pi

    def test_full_turn_returns(self):
        y = mv.exp_map(S1, 1.0, mv.Tangent(np.array([1.0]), np.array([2.0 * np.pi])))
        assert abs(y[0] - 1.0) < 1e-12

    def test_wrap_angle_edges(self):
        assert wrap_angle(np.pi) == np.pi
        assert wrap_angle(-np.pi) == np.pi
        assert abs(wrap_angle(3.0 * np.pi) - np.pi) < 1e-12

    def test_cut_locus_raises(self):
        with pytest.raises(CutLocusError):
            mv.log_map(S1, 0.0, np.pi)
        with pytest.raises(CutLocusError):
            mv.log_map(S1, 0.0, np.pi - 5e-11)
        # a hair farther from the antipode is fine
        lg = mv.log_map(S1, 0.0, np.pi - 1e-9)
        assert abs(abs(lg.vec[0]) - (np.pi - 1e-9)) < 1e-12

    @pytest.mark.parametrize("angle", [-np.pi, np.nextafter(np.pi, 4.0), -4.0])
    def test_angle_outside_half_open_range_rejected(self, angle):
        pts = np.array([[0.0], [np.pi], [angle]])
        assert S1.kernel.validate_points(pts) == (2, "angle outside (-pi, pi]")


class TestSphere:
    def test_outputs_stay_unit(self):
        rng = np.random.default_rng(51)
        for _ in range(200):
            x = mv.random_point(S2, rng)
            xi = mv.random_tangent(S2, rng, x, 0.9 * np.pi)
            y = mv.exp_map(S2, x, xi)
            assert abs(np.linalg.norm(y) - 1.0) < 1e-12

    def test_log_is_tangential(self):
        rng = np.random.default_rng(52)
        for _ in range(200):
            x = mv.random_point(S2, rng)
            y = mv.random_point(S2, rng)
            lg = mv.log_map(S2, x, y)
            assert abs(np.dot(lg.vec, x)) < 1e-12

    def test_antipode_raises(self):
        x = np.array([0.0, 0.0, 1.0])
        with pytest.raises(CutLocusError):
            mv.log_map(S2, x, -x)

    def test_near_antipode_ok(self):
        x = np.array([1.0, 0.0, 0.0])
        t = np.pi - 1e-6
        y = np.array([np.cos(t), np.sin(t), 0.0])
        lg = mv.log_map(S2, x, y)
        assert abs(mv.tangent_norm(S2, x, lg) - t) < 1e-8

    def test_dist2_bits_do_not_depend_on_the_layout(self):
        # dist2 adds each squared norm's terms in one written-out order, so
        # the graph build's strided window fields, contiguous copies and
        # single pairs all give the bits of the closed form below.  The
        # windows of F = [P | P nearly | -P nearly] pair P with random,
        # nearly equal (and equal) and nearly antipodal points
        rng = np.random.default_rng(20)
        k = S2.kernel
        P = mv.random_point(S2, rng, size=(6, 7))

        def nearly(x):
            scale = 10.0 ** rng.uniform(-15, -3, size=x.shape[:-1] + (1,))
            return k.exp_ortho(x, scale * k.random_ortho(rng, x, 1.0))

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
            angle = 2.0 * np.arctan2(np.sqrt(sd), np.sqrt(ss))
            return angle * angle

        assert closed_form(2, 1).tobytes() == got.tobytes()
        # the pairs tell the orders apart
        assert closed_form(1, 2).tobytes() != got.tobytes()
        assert not got[0].any() and (got[7] < 1e-5).all() and (got[14] > 9.8).all()


class TestSpd:
    def test_outputs_stay_spd(self):
        rng = np.random.default_rng(53)
        for desc, n in ((P2, 2), (P3, 3)):
            for _ in range(100):
                x = mv.random_point(desc, rng)
                xi = mv.random_tangent(desc, rng, x, 2.0)
                y = mv.exp_map(desc, x, xi).reshape(n, n)
                assert np.abs(y - y.T).max() < 1e-12
                assert np.linalg.eigvalsh(y).min() > 0.0

    def test_affine_invariance(self):
        rng = np.random.default_rng(54)
        for desc, n in ((P2, 2), (P3, 3)):
            for _ in range(100):
                x = mv.random_point(desc, rng)
                y = mv.random_point(desc, rng)
                g = rng.normal(size=(n, n))
                while abs(np.linalg.det(g)) < 0.3:
                    g = rng.normal(size=(n, n))
                gx = (g.T @ x.reshape(n, n) @ g).reshape(-1)
                gy = (g.T @ y.reshape(n, n) @ g).reshape(-1)
                assert abs(mv.distance(desc, gx, gy) - mv.distance(desc, x, y)) < 1e-8

    def test_closed_form_matches_generic(self):
        # the 2x2 fast path must agree with the eigenvalue route used for n=3
        rng = np.random.default_rng(55)
        k = P2.kernel
        x = mv.random_point(P2, rng, size=(200,))
        y = mv.random_point(P2, rng, size=(200,))
        fast = k.dist2(x, y)
        slow = np.array([spd_dist_oracle(x[i], y[i], 2) ** 2 for i in range(200)])
        assert np.abs(fast - slow).max() < 1e-10

    def test_rejects_non_spd_point(self):
        bad = spd_buf([1.0, 0.0], [0.0, -1.0])
        good = spd_buf([1.0, 0.0], [0.0, 1.0])
        with pytest.raises((DimensionMismatch, NotPositiveDefinite)):
            mv.distance(P2, bad, good)

    def test_rejects_asymmetric_point(self):
        bad = spd_buf([1.0, 0.5], [0.0, 1.0])
        good = spd_buf([1.0, 0.0], [0.0, 1.0])
        with pytest.raises(DimensionMismatch):
            mv.log_map(P2, good, bad)

    @pytest.mark.parametrize("method, x, y, message", [
        ("log_ortho", "bad", "good", "base point is not positive definite"),
        ("log_ortho", "good", "bad", "log target"),
        ("exp_ortho", "bad", "zero", "base point is not positive definite"),
        ("dist2", "bad", "good", "base point is not positive definite"),
        ("dist2", "good", "bad", "distance target is not positive definite"),
    ])
    def test_spd3_kernel_rejects_indefinite_points(self, method, x, y, message):
        # the kernel is called directly, past the validation of mv.distance
        pts = {"good": np.eye(3).reshape(1, 9), "zero": np.zeros((1, 9)),
               "bad": np.diag([2.0, -1.0, 1.0]).reshape(1, 9)}
        with pytest.raises(NotPositiveDefinite, match=message):
            getattr(P3.kernel, method)(pts[x], pts[y])


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

    def test_wrong_point_length(self):
        with pytest.raises(DimensionMismatch):
            mv.distance(E3, [1.0, 2.0], [0.0, 0.0, 0.0])

    def test_tangent_base_mismatch(self, descriptor):
        rng = np.random.default_rng(56)
        x = mv.random_point(descriptor, rng)
        other = mv.random_point(descriptor, rng)
        xi = mv.random_tangent(descriptor, rng, other, 0.5)
        with pytest.raises(TangentBaseMismatch):
            mv.exp_map(descriptor, x, xi)
        with pytest.raises(TangentBaseMismatch):
            mv.tangent_norm(descriptor, x, xi)

    def test_tangent_of_wrong_shape_rejected(self, descriptor):
        x = mv.random_point(descriptor, np.random.default_rng(57))
        n = descriptor.point_len
        for vec in (np.zeros(n + 1), np.zeros((1, n))):
            xi = mv.Tangent(base=x, vec=vec)
            with pytest.raises(DimensionMismatch,
                               match=re.escape(f"tangent has shape {vec.shape}, expected ({n},)")):
                mv.exp_map(descriptor, x, xi)

    def test_scalar_coercion_on_circle(self):
        # plain floats are accepted for 1-d manifolds
        assert mv.distance(S1, 0.5, -0.5) == 1.0

    def test_non_tangent_rejected(self):
        with pytest.raises(TypeError):
            mv.exp_map(E1, 0.0, np.array([1.0]))


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
        return mv.random_point(P2, rng, size=(n,))
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
SPD_MAPS = [
    "log_ortho", "log", "exp_ortho", "exp", "tangent_from_ortho", "ortho_from_tangent",
]


def spd_oracle(x, y, w):
    """Every spd(n) kernel map at bases x by eigh: logs of y, exps of ortho w / tangent."""
    n = int(round(np.sqrt(x.shape[-1])))
    X, Y, W = (a.reshape(-1, n, n) for a in (x, y, w))
    xh = eigh_fn(X, np.sqrt)
    xmh = eigh_fn(X, lambda lam: 1.0 / np.sqrt(lam))
    log_ortho = eigh_fn(xmh @ Y @ xmh, np.log)
    expw = xh @ eigh_fn(W, np.exp) @ xh
    v = xh @ W @ xh
    return v.reshape(-1, n * n), {
        "log_ortho": log_ortho,
        "log": xh @ log_ortho @ xh,
        "exp_ortho": expw,
        "exp": expw,
        "tangent_from_ortho": v,
        "ortho_from_tangent": W,
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
            desc, fam = P3, mv.random_point(P3, rng, size=(200,))
        else:
            desc, fam = P2, spd2_family(family, rng)
        n, k = desc.dim, desc.kernel
        other = mv.random_point(desc, rng, size=fam.shape[:1])
        x, y = (fam, other) if side == "base" else (other, fam)
        w = k.random_ortho(rng, x, 2.0)
        v, ref = spd_oracle(x, y, w)
        args = {"log_ortho": y, "log": y, "exp_ortho": w, "exp": v,
                "tangent_from_ortho": w, "ortho_from_tangent": v}
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
        v, ref = spd_oracle(x, y, w)
        args = {"log_ortho": y, "log": y, "exp_ortho": w, "exp": v,
                "tangent_from_ortho": w, "ortho_from_tangent": v}
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
            y = mv.random_point(P2, rng, size=x.shape[:1])
            w = k.random_ortho(rng, x, 2.0)
            v = k.tangent_from_ortho(x, w)
            for out in (k.log_ortho(x, y), k.log(x, y), k.exp_ortho(x, w),
                        k.exp(x, v), v, k.ortho_from_tangent(x, v)):
                assert np.array_equal(out[:, 1], out[:, 2])

    def test_asymmetric_buffers_are_read_as_their_symmetric_part(self):
        # each map symmetrises its input buffers once, as (M01 + M10) / 2,
        # so off-diagonal rounding in a buffer changes no bit of any output
        rng = np.random.default_rng(64)
        k = P2.kernel
        x, y = mv.random_point(P2, rng, size=(2, 200))
        w = k.random_ortho(rng, x, 2.0)
        v = k.tangent_from_ortho(x, w)
        asym, sym = {}, {}
        for name, buf in (("x", x), ("y", y), ("w", w), ("v", v)):
            a = buf.copy()
            a[:, 1] += rng.uniform(-5e-13, 5e-13, len(a))
            a[:, 2] -= rng.uniform(-5e-13, 5e-13, len(a))
            assert 0.0 < np.abs(a[:, 1] - a[:, 2]).max() <= 1e-12
            s = a.copy()
            s[:, 1] = s[:, 2] = 0.5 * (a[:, 1] + a[:, 2])
            asym[name], sym[name] = a, s
        args = {"log_ortho": "y", "log": "y", "dist2": "y", "exp_ortho": "w",
                "exp": "v", "tangent_from_ortho": "w", "ortho_from_tangent": "v"}
        for name, arg in args.items():
            got = getattr(k, name)(asym["x"], asym[arg])
            ref = getattr(k, name)(sym["x"], sym[arg])
            assert np.array_equal(got, ref), name

    def test_equal_inputs_give_equal_outputs_at_any_position(self):
        # the extremal-pair tie rule compares log vectors of equal neighbors
        # bitwise, wherever they sit in the batch
        rng = np.random.default_rng(61)
        k = P2.kernel
        x = mv.random_point(P2, rng, size=(5,))
        y = mv.random_point(P2, rng, size=(5, 37))
        w = k.random_ortho(rng, y, 2.0)
        y[:, 5:] = y[:, :1]
        w[:, 5:] = w[:, :1]
        s = k.log_ortho(x[:, None, :], y)
        for a in range(5):
            single = k.log_ortho(x[a], y[a, 0])
            assert (s[a, 5:] == single).all() and (s[a, 0] == single).all()
        for name in ("exp_ortho", "exp", "tangent_from_ortho", "ortho_from_tangent"):
            out = getattr(k, name)(y, w)
            assert (out[:, 5:] == out[:, :1]).all(), name

    def test_non_positive_definite_points_raise(self):
        k = P2.kernel
        good = spd_buf([2.0, 0.5], [0.5, 1.0])
        w = spd_buf([0.1, 0.0], [0.0, -0.1])
        bad_points = [
            spd_buf([1.0, 0.0], [0.0, -1.0]),
            spd_buf([1.0, 2.0], [2.0, 1.0]),
            spd_buf([-1.0, 0.0], [0.0, -1.0]),
            spd_buf([1.0, 1.0], [1.0, 1.0]),
        ]
        for bad in bad_points:
            x = np.stack([good, bad])
            for name, arg in (("log_ortho", good), ("log", good), ("exp_ortho", w),
                              ("exp", w), ("tangent_from_ortho", w),
                              ("ortho_from_tangent", w), ("dist2", good)):
                with pytest.raises(NotPositiveDefinite):
                    getattr(k, name)(x, arg)
            with pytest.raises(NotPositiveDefinite):
                k.dist2(good, np.stack([good, bad]))
        # a singular target whitens to a determinant at rounding level, of
        # either sign, so only indefinite and negative targets are checked
        for bad in bad_points[:3]:
            for name in ("log_ortho", "log"):
                with pytest.raises(NotPositiveDefinite, match="log target"):
                    getattr(k, name)(good, np.stack([good, bad]))

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

        def accepted(fn, *args):
            """fn raises no NotPositiveDefinite and returns finite values."""
            try:
                with np.errstate(all="ignore"):
                    return bool(np.isfinite(fn(*args)).all())
            except NotPositiveDefinite:
                return False

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
            if bad is None or bad[1] == "not positive definite":
                for fn, args in calls:
                    assert accepted(fn, *args) == valid[-1], (x, fn.__name__, args)
            else:
                # positive definite, but a distance from it is NaN or inf
                assert bad[1] == "distance not finite"
                assert not all(accepted(fn, *args) for fn, args in calls[:3])
            if valid[-1]:
                assert not k.log_ortho(x, x).any()
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


@pytest.mark.parametrize("desc", [P2, P3], ids=lambda d: d.label())
def test_spd_log_at_the_base_is_exactly_zero(desc):
    rng = np.random.default_rng(62)
    k = desc.kernel
    x = mv.random_point(desc, rng, size=(200,))
    assert not k.log_ortho(x, x).any()
    assert not k.log(x, x).any()
    assert not k.log_ortho(x[:, None, :], np.stack([x, x], axis=1)).any()
    assert not mv.log_map(desc, x[0], x[0]).vec.any()


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
    # spd(3) validation asks the eigensolver; spd(2)'s tests the triples
    mv.MvImage(P3, mv.random_point(P3, rng, size=(3, 4))).validate()
    mv.MvImage(P2, mv.random_point(P2, rng, size=(3, 4))).validate()
    assert sizes == [3]
    # the spd(2) maps are closed forms: none of them reaches the eigensolver
    k = P2.kernel
    x, y = mv.random_point(P2, rng, size=(2, 6))
    w = k.random_ortho(rng, x, 1.0)
    for name in ("log_ortho", "log", "dist2"):
        getattr(k, name)(x, y)
    for name in ("exp_ortho", "exp", "tangent_from_ortho", "ortho_from_tangent"):
        getattr(k, name)(x, w)
    assert sizes == [3]
    x, y = mv.random_point(P3, rng, size=(2, 6))
    P3.kernel.log(x, y)
    assert len(sizes) > 1 and set(sizes) == {3}


@pytest.mark.parametrize("desc", [S2, P2], ids=lambda d: d.label())
def test_solver_kernel_calls_go_through_the_class(desc, monkeypatch):
    # the benchmark tracer counts kernel work by wrapping these methods on
    # the kernel class; a call that bypasses them would zero those metrics
    calls = dict.fromkeys(("dist2", "dist", "log_ortho", "exp_ortho"), 0)
    cls = type(desc.kernel)
    for name in calls:
        def counting(kernel, *args, _name=name, _real=getattr(cls, name)):
            calls[_name] += 1
            return _real(kernel, *args)

        monkeypatch.setattr(cls, name, counting)
    if desc == S2:
        img = mv.generate_sphere_image(8, 8)
    else:
        img = mv.generate_spd_image(8, 8)
    # layer 1 holds a vertex whose extremal pairs cycle, so Euler runs
    mask = mv.cut_mask(8, 8, (3, 1, 3, 3))
    mv.inpaint(img, mask, mv.SolverConfig(k=3, p=1, r=2, max_iter=5))
    assert all(calls.values()), calls


@pytest.mark.parametrize("desc", [E3, S1, S2, P2, P3], ids=lambda d: d.label())
def test_dist2_into_out_keeps_the_bits(desc):
    # the graph build reuses one buffer as dist2's out for every chunk, so
    # writing into out must give the bits of the copying call
    rng = np.random.default_rng(12)
    k = desc.kernel
    field = mv.random_point(desc, rng, size=(5, 6))
    big = mv.random_point(desc, rng, size=(7, 8))
    # the build's operands: a (nR, nC, L) field against a strided
    # (c, nR, nC, L) stack of its shifted windows
    stack = np.moveaxis(sliding_window_view(big, (5, 6), axis=(0, 1)), 2, -1)[1, :3]
    near = k.exp_ortho(field, k.random_ortho(rng, field, 1e-9))
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


@pytest.mark.parametrize("desc", [E3, S1, S2, P2, P3], ids=lambda d: d.label())
def test_symmetric_dist2_says_whether_dist2_is_bitwise_symmetric(desc):
    # the graph build serves the window offsets s and -s from one field only
    # when symmetric_dist2 is true, so it must hold exactly when dist2(x, y)
    # has the bits of dist2(y, x)
    rng = np.random.default_rng(18)
    k = desc.kernel
    field = mv.random_point(desc, rng, size=(6, 7))
    big = mv.random_point(desc, rng, size=(8, 9))
    stack = np.moveaxis(sliding_window_view(big, (6, 7), axis=(0, 1)), 2, -1)[1, :3]
    batch = mv.random_point(desc, rng, size=(500,))
    near = k.exp_ortho(batch, k.random_ortho(rng, batch, 1e-9))
    cases = {
        "random batch": (batch, mv.random_point(desc, rng, size=(500,))),
        "nearly equal batch": (batch, near),
        "field against stack": (field, stack),
    }
    same = {name: k.dist2(x, y).tobytes() == k.dist2(y, x).tobytes()
            for name, (x, y) in cases.items()}
    assert type(k).symmetric_dist2 is all(same.values()), same


@pytest.mark.parametrize("desc", [E1, E3, S1, S2, P2, P3], ids=lambda d: d.label())
def test_dist2_of_a_point_to_itself_is_exactly_zero(desc):
    # a geodesic distance is 0 from a point to itself, in the kernels' bits too
    rng = np.random.default_rng(65)
    k = desc.kernel
    field = mv.random_point(desc, rng, size=(6, 7))
    stack = np.stack([field, k.exp_ortho(field, k.random_ortho(rng, field, 1e-9))])
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
    x = mv.random_point(desc, rng, size=(500,))
    near = k.exp_ortho(x, k.random_ortho(rng, x, 1e-9))
    for y in (mv.random_point(desc, rng, size=(500,)), near, x.copy()):
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
    pts = mv.random_point(desc, rng, size=(9, 10))
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
    others = mv.random_point(P2, rng, size=(50,))
    batch = np.concatenate([others, np.stack([x, y, z, u, v])])
    got = k.dist2(batch[:, None], batch[None, :])
    assert np.isfinite(got).all()
    assert got[:50, :50].tobytes() == k.dist2(others[:, None], others[None, :]).tobytes()
    assert got[50, 51] == k.dist2(x, y)
    assert got[53, 54] == got[54, 53] == k.dist2(u, v)
    assert not np.diag(got).any()
