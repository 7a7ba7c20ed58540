"""Cyclic Jacobi eigendecomposition for small symmetric matrices.

The solver sweeps all upper-triangle pivots (p, q) in fixed cyclic order and
annihilates each with a Givens rotation, accumulating the rotations into an
orthogonal matrix.  For the matrix sizes that occur here (n <= 16, typically
n = 2 or 3) a handful of sweeps reaches machine precision unconditionally,
which is why this is used instead of a general-purpose LAPACK path.  It
serves the spd(n) matrix functions for n >= 3, spd point validation and the
spd ellipse rendering; spd(2) kernel maps use closed forms instead.

All routines are batched: an input of shape ``(..., n, n)`` yields eigenvalues
of shape ``(..., n)`` in ascending order and eigenvectors ``(..., n, n)``
stored as columns.  The rotation schedule is identical for every matrix in
the batch, so results are bitwise reproducible run to run.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, EigenConvergenceError

MAX_SWEEPS = 100
OFF_TOL = 1e-14
SYM_TOL = 1e-9
MAX_N = 16


def sym_eig_batch(mats, check_symmetry=True):
    """Eigendecomposition of a batch of small symmetric matrices.

    Args:
        mats: array of shape (..., n, n), each slice symmetric, n <= 16.
        check_symmetry: reject slices whose asymmetry exceeds 1e-9.

    Returns:
        (evals, evecs): evals (..., n) ascending, evecs (..., n, n) with
        orthonormal columns such that A = evecs @ diag(evals) @ evecs.T.

    Raises:
        DimensionMismatch: non-square input or n > 16.
        ValueError: asymmetric input.
        EigenConvergenceError: off-diagonal Frobenius norm still >= 1e-14
            after 100 sweeps.
    """
    A = np.asarray(mats, dtype=np.float64)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise DimensionMismatch(f"expected square matrices, got shape {A.shape}")
    n = A.shape[-1]
    if n > MAX_N:
        raise DimensionMismatch(f"matrix size {n} exceeds supported maximum {MAX_N}")
    if check_symmetry:
        asym = np.abs(A - np.swapaxes(A, -1, -2)).max() if A.size else 0.0
        if asym > SYM_TOL:
            raise ValueError(f"matrix asymmetry {asym:.3e} exceeds {SYM_TOL:.0e}")

    batch_shape = A.shape[:-2]
    A = A.reshape(-1, n, n).copy()
    nb = A.shape[0]
    Q = np.zeros_like(A)
    Q[:, np.arange(n), np.arange(n)] = 1.0

    if n == 1 or nb == 0:
        evals = A[:, np.arange(n), np.arange(n)].copy()
        return evals.reshape(batch_shape + (n,)), Q.reshape(batch_shape + (n, n))

    diag_idx = np.arange(n)
    converged = False
    for _ in range(MAX_SWEEPS):
        # sum the off-diagonal squares directly; the ||A||^2 - ||diag||^2
        # shortcut cancels catastrophically once A is nearly diagonal
        off = A.copy()
        off[:, diag_idx, diag_idx] = 0.0
        off2 = np.einsum("bij,bij->b", off, off)
        if off2.max(initial=0.0) < OFF_TOL * OFF_TOL:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[:, p, q]
                nz = apq != 0.0
                if not nz.any():
                    continue
                with np.errstate(over="ignore"):
                    # tau overflows to inf for denormal pivots; t then lands
                    # on 0 and the explicit zeroing below clears the entry
                    tau = np.where(
                        nz,
                        (A[:, q, q] - A[:, p, p]) / np.where(nz, 2.0 * apq, 1.0),
                        0.0,
                    )
                    sign = np.where(tau >= 0.0, 1.0, -1.0)
                    t = np.where(
                        nz, sign / (np.abs(tau) + np.sqrt(1.0 + tau * tau)), 0.0
                    )
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                cc = c[:, None]
                ss = s[:, None]
                # A <- A J  (columns p, q)
                Ap = A[:, :, p].copy()
                Aq = A[:, :, q].copy()
                A[:, :, p] = cc * Ap - ss * Aq
                A[:, :, q] = ss * Ap + cc * Aq
                # A <- J^T A  (rows p, q)
                Rp = A[:, p, :].copy()
                Rq = A[:, q, :].copy()
                A[:, p, :] = cc * Rp - ss * Rq
                A[:, q, :] = ss * Rp + cc * Rq
                # the pivot is zero in exact arithmetic; make it exactly so
                A[:, p, q] = 0.0
                A[:, q, p] = 0.0
                Qp = Q[:, :, p].copy()
                Qq = Q[:, :, q].copy()
                Q[:, :, p] = cc * Qp - ss * Qq
                Q[:, :, q] = ss * Qp + cc * Qq
    if not converged:
        raise EigenConvergenceError(
            f"Jacobi sweeps did not converge within {MAX_SWEEPS} sweeps"
        )

    evals = A[:, diag_idx, diag_idx]
    order = np.argsort(evals, axis=1, kind="stable")
    evals = np.take_along_axis(evals, order, axis=1)
    Q = np.take_along_axis(Q, order[:, None, :], axis=2)
    return evals.reshape(batch_shape + (n,)), Q.reshape(batch_shape + (n, n))


def sym_eig(mat):
    """Eigendecomposition of one symmetric matrix, ascending eigenvalues.

    Thin single-matrix wrapper around :func:`sym_eig_batch`; see there for
    tolerances and failure modes.
    """
    A = np.asarray(mat, dtype=np.float64)
    if A.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d matrix, got shape {A.shape}")
    return sym_eig_batch(A)
