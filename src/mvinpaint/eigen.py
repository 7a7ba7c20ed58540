"""Checked eigendecomposition of small symmetric matrices.

A thin wrapper over LAPACK's symmetric solver (``np.linalg.eigh``) that adds
the shape, size and symmetry checks the callers rely on.  It serves the
spd(n) matrix functions and point validation for n >= 3 and the spd ellipse
rendering; spd(2) kernel maps and validation use closed forms instead.

Inputs of shape ``(..., n, n)`` yield eigenvalues of shape ``(..., n)`` in
ascending order and eigenvectors ``(..., n, n)`` stored as columns.  Each
matrix is decomposed on its own, so its result does not depend on the other
matrices of the batch.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, EigenConvergenceError

SYM_TOL = 1e-9
MAX_N = 16


def sym_eig_batch(mats):
    """Eigendecomposition of a batch of small symmetric matrices.

    Args:
        mats: array of shape (..., n, n), each slice symmetric, n <= 16.

    Returns:
        (evals, evecs): evals (..., n) ascending, evecs (..., n, n) with
        orthonormal columns such that A = evecs @ diag(evals) @ evecs.T.

    Raises:
        DimensionMismatch: non-square input, n > 16, or a slice whose
            asymmetry exceeds 1e-9.
        EigenConvergenceError: a non-finite entry, or LAPACK did not
            converge.
    """
    A = np.asarray(mats, dtype=np.float64)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise DimensionMismatch(f"expected square matrices, got shape {A.shape}")
    n = A.shape[-1]
    if n > MAX_N:
        raise DimensionMismatch(f"matrix size {n} exceeds supported maximum {MAX_N}")
    # any non-finite entry makes asym NaN: LAPACK would return NaNs silently
    with np.errstate(invalid="ignore"):
        asym = np.abs(A - np.swapaxes(A, -1, -2)).max(initial=0.0)
    if np.isnan(asym):
        raise EigenConvergenceError("matrix has a non-finite entry")
    if asym > SYM_TOL:
        raise DimensionMismatch(f"matrix asymmetry {asym:.3e} exceeds {SYM_TOL:.0e}")
    try:
        evals, evecs = np.linalg.eigh(A)
    except np.linalg.LinAlgError as e:
        raise EigenConvergenceError(f"symmetric eigensolver failed: {e}") from e
    return evals, evecs

