import numpy as np
import pytest

from mvinpaint import ManifoldDescriptor, MvImage, random_point
from mvinpaint.errors import EigenConvergenceError
from mvinpaint.manifolds import sym_eig_batch


def random_sym(rng, batch, n):
    a = rng.normal(size=tuple(batch) + (n, n))
    return (a + np.swapaxes(a, -1, -2)) / 2.0


def test_diagonal_input():
    lam, q = sym_eig_batch(np.diag([3.0, -1.0, 2.0]))
    assert np.array_equal(lam, [-1.0, 2.0, 3.0])
    # eigenvectors of a diagonal matrix are a signed permutation
    assert np.allclose(np.abs(q), np.eye(3)[:, [1, 2, 0]])


def test_one_by_one():
    lam, q = sym_eig_batch(np.array([[4.5]]))
    assert lam.shape == (1,) and q.shape == (1, 1)
    assert lam[0] == 4.5 and q[0, 0] == 1.0


def test_reconstruction():
    rng = np.random.default_rng(7)
    a = random_sym(rng, (40,), 5)
    lam, q = sym_eig_batch(a)
    rebuilt = np.einsum("bij,bj,bkj->bik", q, lam, q)
    assert np.abs(rebuilt - a).max() < 1e-12


def test_orthonormal_columns():
    rng = np.random.default_rng(3)
    _, q = sym_eig_batch(random_sym(rng, (25,), 4))
    gram = np.einsum("bij,bik->bjk", q, q)
    assert np.abs(gram - np.eye(4)).max() < 1e-13


def test_ascending_eigenvalues():
    rng = np.random.default_rng(5)
    lam, _ = sym_eig_batch(random_sym(rng, (30,), 6))
    assert (np.diff(lam, axis=-1) >= 0.0).all()


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 17])
def test_matches_lapack_oracle(n):
    # numpy's eigvalsh serves as the independent reference here
    rng = np.random.default_rng(100 + n)
    a = random_sym(rng, (6,), n)
    lam, _ = sym_eig_batch(a)
    assert np.abs(lam - np.linalg.eigvalsh(a)).max() < 1e-11


def test_batch_matches_single():
    rng = np.random.default_rng(9)
    a = random_sym(rng, (8,), 3)
    lam_b, q_b = sym_eig_batch(a)
    for i in range(8):
        lam_s, q_s = sym_eig_batch(a[i])
        assert np.array_equal(lam_s, lam_b[i])
        assert np.array_equal(q_s, q_b[i])


def test_repeated_eigenvalue():
    lam, q = sym_eig_batch(np.eye(3) * 2.0)
    assert np.allclose(lam, 2.0)
    assert np.allclose(q @ q.T, np.eye(3))


def test_convergence_error(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(EigenConvergenceError):
        sym_eig_batch(np.array([[1.0, 0.5], [0.5, 2.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_entry_is_an_error(bad):
    a = np.eye(3)
    a[1, 2] = a[2, 1] = bad
    with pytest.raises(EigenConvergenceError):
        sym_eig_batch(np.stack([np.eye(3), a]))


def test_spd_17_image_validates():
    # spd(n) has no size limit: an spd(17) image passes its point checks
    desc = ManifoldDescriptor.spd(17)
    pts = random_point(desc, np.random.default_rng(17), size=(2, 3))
    MvImage(desc, pts).validate()


def test_deterministic():
    rng = np.random.default_rng(13)
    a = random_sym(rng, (10,), 4)
    lam1, q1 = sym_eig_batch(a)
    lam2, q2 = sym_eig_batch(a.copy())
    assert np.array_equal(lam1, lam2) and np.array_equal(q1, q2)
