"""Riemannian primitives for the supported manifold families.

Points and tangent vectors are flat float64 buffers whose length is fixed by
the manifold descriptor:

* ``euclidean(m)``: buffers of length m, exp/log are addition/subtraction.
* ``circle()``: one angle in (-pi, pi]; exp wraps, log is the shortest signed
  arc, the antipodal angle is the cut locus.
* ``sphere2()``: unit vectors in R^3; geodesics are great circles, the
  antipode is the cut locus.  The angle is 2 asin(|x - y| / 2) up to pi/2
  and pi - 2 asin(|x + y| / 2) beyond, full precision at tiny angles and
  near the antipode alike, and the log has that angle as its length.
* ``spd(n)``: symmetric positive definite n x n matrices stored row-major
  (length n*n) under the affine-invariant metric

      exp_X(V) = X^(1/2) expm(X^(-1/2) V X^(-1/2)) X^(1/2)
      log_X(Y) = X^(1/2) logm(X^(-1/2) Y X^(-1/2)) X^(1/2)
      d(X, Y)  = || logm(X^(-1/2) Y X^(-1/2)) ||_F
      <A, B>_X = trace(X^-1 A X^-1 B)

  For n = 2 each map reads a point once into its entries (a, b, c), runs
  closed-form square roots, congruences, matrix log/exp and distances on
  these triples with no eigensolver, and writes once; its point validation
  is closed-form too: positive definite with a finite 2 det.  For n != 2 maps
  and validation use LAPACK's symmetric eigensolver (``sym_eig_batch``).

The package holds tangent vectors in "ortho" coordinates only: an isometric
identification of the tangent space at x with R^d in which the metric is
the standard dot product (the identity map for the first three families,
the whitening V -> X^(-1/2) V X^(-1/2) for spd; Pennec, Fillard and Ayache,
IJCV 66, 2006).  Each kernel defines only its primitives: ``log_ortho``,
``exp_ortho``, ``_dist2`` (squared distances written into a given array)
and point validation; ``dist2`` and ``dist``, its root, are derived once,
in the shared base class.  Norms and inner products of tangent vectors are
plain einsums.  The sphere2 angle and the euclidean distance sum their
squares with ufuncs in an order they write out, so that their bits do not
depend on how einsum lays out its sums for a given shape, memory layout or
numpy version.

Numerical conventions: sphere2's maps take tangent norms below 1e-15 as
exact zeros, the log and ``dist2`` of a point at itself are exactly zero,
and ``log_ortho`` gives NaN in each pair within 1e-10 of the cut locus and
raises nothing there, so a failed row never changes another; the operators
built on it raise ``CutLocusError`` there.

Every map assumes valid points, those ``validate_points`` accepts, which an
image checks when it is made: on an invalid point a map returns whatever its
arithmetic gives.  Only the spd(n != 2) maps raise, where the eigensolver fails.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EigenConvergenceError

__all__ = ["ManifoldDescriptor"]

ZERO_TANGENT_TOL = 1e-15
CUT_LOCUS_TOL = 1e-10
SPHERE_NORM_TOL = 1e-10
SPD_SYM_TOL = 1e-12

# manifold kind -> number of size parameters
_KINDS = {"euclidean": 1, "circle": 0, "sphere2": 0, "spd": 1}


@dataclass(frozen=True)
class ManifoldDescriptor:
    """Identifies one manifold family plus its size parameter.

    ``dim`` is m for euclidean(m), n for spd(n) and unused (0) otherwise.
    """

    kind: str
    dim: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DimensionMismatch(f"unknown manifold kind {self.kind!r}")
        if _KINDS[self.kind] and self.dim < 1:
            raise DimensionMismatch(f"{self.kind} manifold needs dim >= 1")
        if not _KINDS[self.kind] and self.dim != 0:
            raise DimensionMismatch(f"{self.kind} takes no size parameter")

    @classmethod
    def parse(cls, text: str) -> "ManifoldDescriptor":
        """Inverse of label(), e.g. "spd 2" or "sphere2"; tokens split on whitespace.

        Raises ValueError naming what is wrong with text.
        """
        tokens = text.split()
        if not tokens:
            raise ValueError("manifold line is empty")
        kind, params = tokens[0], tokens[1:]
        if kind not in _KINDS:
            raise ValueError(f"unknown manifold kind {kind!r}")
        if len(params) != _KINDS[kind]:
            need = "needs one size parameter" if _KINDS[kind] else "takes no parameter"
            raise ValueError(f"manifold {kind} {need}")
        try:
            return cls(kind, *map(int, params))
        except ValueError as e:
            raise ValueError(f"bad manifold declaration: {e}") from e

    @classmethod
    def euclidean(cls, m: int) -> "ManifoldDescriptor":
        return cls("euclidean", int(m))

    @classmethod
    def circle(cls) -> "ManifoldDescriptor":
        return cls("circle")

    @classmethod
    def sphere2(cls) -> "ManifoldDescriptor":
        return cls("sphere2")

    @classmethod
    def spd(cls, n: int) -> "ManifoldDescriptor":
        return cls("spd", int(n))

    @property
    def point_len(self) -> int:
        """Floats per point, and per tangent vector, which shares its coordinates."""
        if self.kind == "euclidean":
            return self.dim
        if self.kind == "circle":
            return 1
        if self.kind == "sphere2":
            return 3
        return self.dim * self.dim

    @property
    def manifold_dim(self) -> int:
        """The manifold's dimension: m for euclidean m, n(n+1)/2 for spd n."""
        if self.kind == "spd":
            return self.dim * (self.dim + 1) // 2
        return {"circle": 1, "sphere2": 2}.get(self.kind, self.dim)

    def label(self) -> str:
        if _KINDS[self.kind]:
            return f"{self.kind} {self.dim}"
        return self.kind

    @property
    def kernel(self):
        return _kernel_for(self)


def wrap_angle(a):
    """Wrap angles into (-pi, pi]."""
    b = np.mod(np.asarray(a, dtype=np.float64), 2.0 * np.pi)
    return np.where(b > np.pi, b - 2.0 * np.pi, b)


class _Kernel:
    """The maps every kernel derives from its primitives.

    A concrete kernel defines ``log_ortho``, ``exp_ortho`` and ``_dist2``
    (and ``_check_values`` when its points have constraints beyond finite
    entries); ``dist2``, point validation and ``dist``, the root of
    ``dist2``, follow here once.  Every tangent vector is in ortho
    coordinates, where the metric is the dot product.

    ``dist2(x, y)`` has the bits of ``dist2(y, x)`` on every kernel but
    spd(n >= 3).  A whole-torus graph build evaluates each pixel pair in
    one order only, so there an spd(n >= 3) graph matches a cut build's
    to rounding, not bitwise.
    """

    @staticmethod
    def _pairs(x, y):
        """A new array with one entry per point pair of x against y, broadcast."""
        return np.empty(np.broadcast(np.asarray(x)[..., 0], np.asarray(y)[..., 0]).shape)

    def dist2(self, x, y, out=None):
        """Squared geodesic distance of each point pair of x and y (..., L), broadcast.

        out, when given, is a float64 array of the broadcast pair shape: the
        distances are written into it, bitwise those of the call without
        out, and out is returned.  The graph build passes one buffer as out
        for every chunk, positionally, since the benchmark's kernel wrapper
        forwards positional arguments only.
        """
        d2 = self._pairs(x, y) if out is None else out
        self._dist2(x, y, d2)
        return d2[()] if out is None else out

    def validate_points(self, pts):
        """(index, reason) of the first invalid point of pts (N, L), or None."""
        if not np.isfinite(pts).all():
            return self._first(~np.isfinite(pts).all(axis=-1), "non-finite entry")
        return self._check_values(pts)

    def _check_values(self, pts):
        return None

    @staticmethod
    def _first(bad, reason):
        """(index, reason) of the first point that bad flags, or None."""
        return (int(np.argwhere(bad)[0][0]), reason) if bad.any() else None

    def dist(self, x, y):
        return np.sqrt(self.dist2(x, y))


class _EuclideanKernel(_Kernel):
    def __init__(self, m):
        self.point_len = m

    def exp_ortho(self, x, v):
        return x + v

    def log_ortho(self, x, y):
        return y - x

    def _dist2(self, x, y, out):
        # the squares are added as ((d0^2 + d1^2) + d2^2) + ... with plain
        # ufuncs: einsum's order for m >= 3 depends on how x and y are laid
        # out in memory
        x, y = np.asarray(x), np.asarray(y)
        t = np.empty(out.shape) if self.point_len > 1 else None
        for l in range(self.point_len):
            c = out if l == 0 else t
            np.subtract(y[..., l], x[..., l], out=c)
            np.multiply(c, c, out=c)
            if l:
                out += c


class _CircleKernel(_Kernel):
    def exp_ortho(self, x, v):
        return wrap_angle(x + v)

    def log_ortho(self, x, y):
        d = wrap_angle(y - x)
        d[np.pi - np.abs(d) < CUT_LOCUS_TOL] = np.nan
        return d

    def _dist2(self, x, y, out):
        # the shorter arc; fmod is exact, with no cancellation for y < x
        r = np.abs(np.fmod(np.subtract(y, x)[..., 0], 2.0 * np.pi))
        d = np.minimum(r, 2.0 * np.pi - r)
        np.multiply(d, d, out=out)

    def _check_values(self, pts):
        a = pts[..., 0]
        return self._first((a <= -np.pi) | (a > np.pi), "angle outside (-pi, pi]")


class _Sphere2Kernel(_Kernel):
    def exp_ortho(self, x, v):
        nrm = np.sqrt(np.einsum("...l,...l->...", v, v))
        small = nrm < ZERO_TANGENT_TOL
        safe = np.where(small, 1.0, nrm)
        y = np.cos(nrm)[..., None] * x + (np.sin(nrm) / safe)[..., None] * v
        y = np.where(small[..., None], x + 0.0 * v, y)
        # renormalize against drift; |y| is already 1 to machine precision
        return y / np.sqrt(np.einsum("...l,...l->...", y, y))[..., None]

    def _angle(self, x, y, out):
        # the chord form 2 asin(|x - y| / 2) where |x - y|^2 <= 2, that is
        # up to pi/2, and pi - 2 asin(|x + y| / 2) beyond: on unit vectors
        # each arcsin then reads at most sqrt(2)/2, where it is well
        # conditioned, so the angle keeps full precision at tiny angles and
        # near the antipode alike, in 14 passes over the pairs where Kahan's
        # 2 atan2(|x - y|, |x + y|) takes 20.  Only the far pairs need
        # |x + y|: they are gathered by flat index, and their |x + y|^2,
        # clamped at 4 so that no arcsin reads more than 1, takes the place
        # of |x - y|^2 in out, so one arcsin pass serves both forms.  Each
        # squared norm adds the coordinates' squares as (c0 + c2) + c1 with
        # plain ufuncs, so its bits do not depend on how x and y are laid
        # out in memory.  Written into out and returned
        t = np.empty(out.shape)
        for l in (0, 2, 1):
            c = out if l == 0 else t
            np.subtract(x[..., l], y[..., l], out=c)
            np.multiply(c, c, out=c)
            if l:
                out += c
        shape = out.shape or (1,)               # one pair is a batch of one
        o = out.reshape(shape)
        far = np.unravel_index(np.flatnonzero(out > 2.0), shape)
        if far[0].size:
            s = np.broadcast_to(x, shape + (3,))[far] + np.broadcast_to(y, shape + (3,))[far]
            s *= s
            o[far] = np.minimum((s[:, 0] + s[:, 2]) + s[:, 1], 4.0)
        np.sqrt(out, out=out)
        out *= 0.5
        np.arcsin(out, out=out)
        out *= 2.0
        if far[0].size:
            o[far] = np.pi - o[far]
        return out

    def log_ortho(self, x, y):
        # theta along the unit direction of w = y - <x, y> x: near the
        # antipode w cancels to a tiny vector whose direction is all it
        # gives, so the norm comes from theta alone
        w = y - np.einsum("...l,...l->...", x, y)[..., None] * x
        nw = np.sqrt(np.einsum("...l,...l->...", w, w))
        theta = self._angle(x, y, self._pairs(x, y))
        zero = (theta < ZERO_TANGENT_TOL) | (nw == 0.0)
        v = w * (theta / np.where(zero, 1.0, nw))[..., None]
        v = np.where(zero[..., None], 0.0, v)
        v[np.pi - theta < CUT_LOCUS_TOL] = np.nan
        return v

    def _dist2(self, x, y, out):
        d = self._angle(x, y, out)
        np.multiply(d, d, out=out)

    def _check_values(self, pts):
        # |p| from ((p0^2 + p1^2) + p2^2), np.linalg.norm's order, in two
        # fields of one float per point
        nrm = np.multiply(pts[..., 0], pts[..., 0])
        t = np.multiply(pts[..., 1], pts[..., 1])
        nrm += t
        nrm += np.multiply(pts[..., 2], pts[..., 2], out=t)
        np.sqrt(nrm, out=nrm)
        nrm -= 1.0
        return self._first(np.abs(nrm, out=nrm) > SPHERE_NORM_TOL, "not a unit vector")


def sym_eig_batch(mats):
    """LAPACK's eigendecomposition of each symmetric slice of mats (..., n, n).

    Returns evals (..., n) ascending and evecs (..., n, n) with orthonormal
    columns; each slice is decomposed on its own.  Raises
    EigenConvergenceError for a non-finite entry, which LAPACK need not
    reject (a stack of I and a NaN-bearing matrix comes back with NaN
    eigenvalues), and where LAPACK does not converge.
    """
    if not np.isfinite(mats).all():
        raise EigenConvergenceError("matrix has a non-finite entry")
    try:
        return np.linalg.eigh(mats)
    except np.linalg.LinAlgError as e:
        raise EigenConvergenceError(f"symmetric eigensolver failed: {e}") from e


class _SpdKernel(_Kernel):
    def __init__(self, n):
        self.n = n

    def _mat(self, buf):
        buf = np.asarray(buf)
        return buf.reshape(buf.shape[:-1] + (self.n, self.n))

    def _buf(self, mat):
        return mat.reshape(mat.shape[:-2] + (self.n * self.n,))

    # the form each map holds a point in between its one read and one write;
    # _root, _congruence and _apply take and return that form
    _read = _mat
    _write = _buf

    @staticmethod
    def _sym(mat):
        return 0.5 * (mat + np.swapaxes(mat, -1, -2))

    def _eig(self, mats):
        return sym_eig_batch(self._sym(mats))

    def _apply(self, mats, fn):
        """fn(W) for symmetric W, fn being np.log (W positive definite) or np.exp."""
        lam, Q = self._eig(mats)
        out = np.einsum("...ij,...j,...kj->...ik", Q, fn(lam), Q)
        return self._sym(out)

    def _root(self, X, inverse=False):
        """X^(1/2), or X^(-1/2) if inverse, of symmetric positive definite X."""
        lam, Q = self._eig(X)
        s = np.sqrt(lam)
        if inverse:
            s = 1.0 / s
        return self._sym(np.einsum("...ij,...j,...kj->...ik", Q, s, Q))

    def _congruence(self, M, Y):
        """M Y M for symmetric M and Y, exactly symmetric."""
        return self._sym(np.einsum("...ij,...jk,...kl->...il", M, Y, M))

    def _eye_where(self, same, W):
        """W with the identity in place where same."""
        return np.where(same[..., None, None], np.eye(self.n), W)

    def _whiten(self, x, y):
        """X^(-1/2) Y X^(-1/2), and exactly the identity where y is x.

        So log_x(x) and dist2(x, x) are exactly 0, and equal neighbors tie
        exactly in the extremal-pair search instead of by rounding; near the
        singular boundary the rounded congruence need not even be positive
        definite.
        """
        W = self._congruence(self._root(self._read(x), inverse=True), self._read(y))
        return self._eye_where((np.asarray(x) == np.asarray(y)).all(axis=-1), W)

    def log_ortho(self, x, y):
        return self._write(self._apply(self._whiten(x, y), np.log))

    def exp_ortho(self, x, w):
        Xh = self._root(self._read(x))
        E = self._apply(self._read(w), np.exp)
        return self._write(self._congruence(Xh, E))

    def _dist2(self, x, y, out):
        lam, _ = self._eig(self._whiten(x, y))
        ln = np.log(lam)
        np.einsum("...i,...i->...", ln, ln, out=out)

    def _check_values(self, pts):
        # each entry pair's asymmetry in one scratch field; only symmetric
        # points get the eigensolver's positive-definite test
        t = np.empty(pts.shape[:-1])
        asym = np.zeros(t.shape, dtype=bool)
        for i, j in zip(*np.triu_indices(self.n, 1)):
            np.subtract(pts[..., i * self.n + j], pts[..., j * self.n + i], out=t)
            asym |= np.abs(t, out=t) > SPD_SYM_TOL
        return (self._first(asym, "not symmetric")
                or self._first(self._eig(self._mat(pts))[0][..., 0] <= 0.0,
                               "not positive definite"))


class _Spd2Kernel(_SpdKernel):
    """spd(2) on entry triples, with closed forms in place of the eigensolver.

    Each map reads a buffer once into the triple (a, b, c) of [[a, b], [b, c]],
    b being (M01 + M10) / 2, works on triples and writes once, so every output
    is exactly symmetric.  W = (a, b, c) has the eigenvalues m +- r, with
    m = (a + c) / 2 and r = hypot((a - c) / 2, b), and W - m I has the
    eigenvalues +-r, so f(W) = f0 I + f1 (W - m I) with f0 the mean of
    f(m + r) and f(m - r) and f1 their divided difference.  Square roots
    and congruences are closed forms too, and so is the distance, from
    invariants symmetric in its two points; see Pennec, Fillard and Ayache,
    "A Riemannian framework for tensor computing", IJCV 66 (2006).
    """

    @staticmethod
    def _read(buf):
        buf = np.asarray(buf)
        return buf[..., 0], 0.5 * (buf[..., 1] + buf[..., 2]), buf[..., 3]

    @staticmethod
    def _write(rep):
        return np.stack([rep[0], rep[1], rep[1], rep[2]], axis=-1)

    @staticmethod
    def _eye_where(same, W):
        a, b, c = W
        return np.where(same, 1.0, a), np.where(same, 0.0, b), np.where(same, 1.0, c)

    def _check_values(self, pts):
        # a > 0 and det > 0 on the triples, in views of pts and one scratch
        # field t; a positive definite point whose 2 det overflows (1e154 I)
        # has no finite distance, to I or to any other point
        a, c = pts[..., 0], pts[..., 3]
        t = np.subtract(pts[..., 1], pts[..., 2])
        asym = self._first(np.abs(t, out=t) > SPD_SYM_TOL, "not symmetric")
        if asym:
            return asym
        np.add(pts[..., 1], pts[..., 2], out=t)
        t *= 0.5                                               # t: b
        with np.errstate(over="ignore", invalid="ignore"):
            t *= t
            np.subtract(a * c, t, out=t)                       # t: det
            indefinite = self._first((a <= 0.0) | (t <= 0.0), "not positive definite")
            t *= 2.0
        return indefinite or self._first(~np.isfinite(t), "distance not finite")

    def _root(self, X, inverse=False):
        a, b, c = X
        det = a * c - b * b
        # X^(1/2) = (X + sqrt(det) I) / sqrt(tr + 2 sqrt(det)); its inverse is
        # its adjugate over its determinant sqrt(det)
        sd = np.sqrt(det)
        t = 1.0 / np.sqrt(a + c + 2.0 * sd)
        if inverse:
            ti = t / sd
            return (c + sd) * ti, -b * ti, (a + sd) * ti
        return (a + sd) * t, b * t, (c + sd) * t

    def _congruence(self, M, Y):
        p, q, s = M
        a, b, c = Y
        pq, qs, qq = p * q, q * s, q * q
        return (
            p * p * a + 2.0 * pq * b + qq * c,
            pq * a + (p * s + qq) * b + qs * c,
            qq * a + 2.0 * qs * b + s * s * c,
        )

    def _apply(self, mats, fn):
        a, b, c = mats
        m = 0.5 * (a + c)
        h = 0.5 * (a - c)
        r = np.hypot(h, b)
        nz = r > 0.0
        r2 = np.where(nz, 2.0 * r, 1.0)
        if fn is np.log:
            hi = m + r
            # the small eigenvalue from the determinant: m - r cancels, and
            # log1p keeps the divided difference accurate as r -> 0
            lo = (a * c - b * b) / hi
            f0 = 0.5 * (np.log(hi) + np.log(lo))
            f1 = np.where(nz, np.log1p(2.0 * r / lo) / r2, 1.0 / lo)
        else:
            em = np.exp(m)
            f0 = em * np.cosh(r)
            f1 = em * np.where(nz, 2.0 * np.sinh(r) / r2, 1.0)
        fh = f1 * h
        return f0 + fh, f1 * b, f0 - fh

    def _dist2(self, x, y, out):
        # X = (a, b, c) and Y = (p, q, s): X^-1 Y has the eigenvalues
        # (T +- sqrt(D)) / (2 det X), with product det Y / det X, for
        #   T = t1 + t2,  t1 = a s - b q,  t2 = c p - b q,
        #   D = u^2 + 4 v w,  u = t2 - t1,  v = c q - b s,  w = a q - b p,
        # a discriminant that does not cancel as the eigenvalues meet, so
        #   log lam1 = L - log(2 det X),  log lam2 = log(2 det Y) - L
        # with L = log(T + sqrt(D)).  Swapping x and y swaps t1 and t2 and
        # negates u, v and w; for y == x, T = 2 det X and u = v = w = 0.
        # The terms of y's shape are formed in place, in out and four scratch fields
        a, b, c = self._read(x)
        y = np.asarray(y)
        p, s = y[..., 0], y[..., 3]
        det_x = a * c - b * b
        scratch = np.empty((4,) + out.shape)
        q, s1, s2, s3 = (scratch[i, ...] for i in range(4))
        np.add(y[..., 1], y[..., 2], out=q)
        q *= 0.5
        np.multiply(p, s, out=s1)
        s1 -= np.multiply(q, q, out=s2)                        # s1: det Y
        np.multiply(c, q, out=s2)
        s2 -= np.multiply(b, s, out=s3)                        # s2: v
        np.multiply(a, q, out=s3)
        s3 -= np.multiply(b, p, out=out)                       # s3: w
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            s2 *= s3                                           # s2: v w
            np.multiply(b, q, out=s3)                          # s3: b q
            np.multiply(c, p, out=q)
            q -= s3                                            # q: t2
            np.multiply(a, s, out=out)
            out -= s3                                          # out: t1
            np.subtract(q, out, out=s3)                        # s3: u
            q += out                                           # q: T
            s2 *= 4.0
            s2 += np.multiply(s3, s3, out=s3)                  # s2: D
            np.sqrt(np.maximum(s2, 0.0, out=s2), out=s2)
            np.log(np.add(q, s2, out=q), out=q)                # q: L
            # v w and D overflow for some valid pairs (diag(1e80, 1e-80) against
            # diag(1e-80, 1e80)): those entries alone are recomputed, scaled
            if not np.max(q, initial=0.0) < np.inf:
                over = ~(q < np.inf)
                xs, ys = (np.broadcast_to(v, out.shape + (4,))[over] for v in (x, y))
                q[over] = self._log_root_scaled(*self._read(xs), *self._read(ys))
            s1 *= 2.0
            np.log(s1, out=s1)
            np.subtract(q, np.log(2.0 * det_x), out=out)       # out: log lam1
        s1 -= q                                                # s1: log lam2
        out *= out
        s1 *= s1
        out += s1

    @staticmethod
    def _log_root_scaled(a, b, c, p, q, s):
        """_dist2's L: log kappa plus L of its terms over kappa, the largest of them."""
        bq = b * q
        t1, t2 = a * s - bq, c * p - bq
        m = np.stack([t1, t2, t2 - t1, c * q - b * s, a * q - b * p])
        kappa = np.abs(m).max(axis=0)
        t1, t2, u, v, w = m / kappa
        return np.log(kappa) + np.log(t1 + t2 + np.sqrt(np.maximum(u * u + v * w * 4.0, 0.0)))


@functools.cache
def _kernel_for(desc: ManifoldDescriptor):
    if desc.kind == "euclidean":
        return _EuclideanKernel(desc.dim)
    if desc.kind == "circle":
        return _CircleKernel()
    if desc.kind == "sphere2":
        return _Sphere2Kernel()
    if desc.dim == 2:
        return _Spd2Kernel(2)
    return _SpdKernel(desc.dim)
