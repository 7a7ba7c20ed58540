"""Output checks and geodesic errors, written independently of the program.

Distances use their own formulas (the angle between unit vectors; the
log-eigenvalues of X^-1/2 Y X^-1/2 through ``np.linalg``), never the
program's kernels, ``compare`` or its Jacobi solver.
"""

from __future__ import annotations

import numpy as np

UNIT_TOL = 1e-10
SYM_TOL = 1e-12
LOGDET_SLACK = 1e-9


def sphere_dist(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Angle between unit vectors along the last axis."""
    return np.arctan2(np.linalg.norm(np.cross(x, y), axis=-1),
                      np.einsum("...l,...l->...", x, y))


def spd_dist(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Affine-invariant distance of 2x2 s.p.d. matrices stored row-major."""
    X = x.reshape(-1, 2, 2)
    Y = y.reshape(-1, 2, 2)
    lam, Q = np.linalg.eigh(X)
    inv_half = np.einsum("bij,bj,bkj->bik", Q, 1.0 / np.sqrt(lam), Q)
    W = inv_half @ Y @ inv_half
    mu = np.linalg.eigvalsh(0.5 * (W + np.swapaxes(W, -1, -2)))
    return np.sqrt((np.log(mu) ** 2).sum(axis=-1)).reshape(x.shape[:-1])


def geo_dist(manifold: str, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return sphere_dist(x, y) if manifold == "sphere2" else spd_dist(x, y)


def rms_error(manifold, result, truth, unknown) -> float:
    d = geo_dist(manifold, result[unknown], truth[unknown])
    return float(np.sqrt(np.mean(d * d)))


def nearest_known_fill(image: np.ndarray, unknown: np.ndarray) -> np.ndarray:
    """Baseline fill: peel the hole, copying each border pixel's first known
    4-neighbor in the order N, E, S, W (periodic grid)."""
    out = image.copy()
    unknown = unknown.copy()
    while unknown.any():
        known = ~unknown
        taken = np.zeros_like(unknown)
        for di, dj in ((-1, 0), (0, 1), (1, 0), (0, -1)):
            # value and flag of neighbor (i + di, j + dj) at position (i, j)
            nbr_known = np.roll(known, (-di, -dj), axis=(0, 1))
            take = unknown & ~taken & nbr_known
            out[take] = np.roll(out, (-di, -dj), axis=(0, 1))[take]
            taken |= take
        unknown &= ~taken
    return out


def _logdet(m: np.ndarray) -> np.ndarray:
    return np.linalg.slogdet(m.reshape(-1, 2, 2))[1]


def check_output(manifold, result, image, unknown, truth) -> list:
    """Failed checks of one inpainting output, as messages; empty when all pass.

    image is the program's input (unknown pixels hold a fill value).
    """
    known = ~unknown
    if not np.array_equal(result[known].view(np.uint64), image[known].view(np.uint64)):
        return ["known pixels differ from the input"]
    if not np.isfinite(result).all():
        return ["non-finite output value"]
    failures = []
    if manifold == "sphere2":
        if np.abs(np.linalg.norm(result, axis=-1) - 1.0).max() > UNIT_TOL:
            failures.append("a sphere2 pixel is not a unit vector")
    else:
        m = result.reshape(-1, 2, 2)
        if np.abs(m - np.swapaxes(m, 1, 2)).max() > SYM_TOL * max(1.0, np.abs(m).max()):
            failures.append("an spd pixel is not symmetric")
        elif np.linalg.eigvalsh(m).min() <= 0.0:
            failures.append("an spd pixel is not positive definite")
    if failures:
        return failures
    err = rms_error(manifold, result, truth, unknown)
    if manifold == "sphere2":
        base = rms_error(manifold, nearest_known_fill(image, unknown), truth, unknown)
        if not err < base:
            failures.append(f"rms error {err:.4g} not below nearest-known fill {base:.4g}")
    else:
        lo, hi = _logdet(image[known]).min(), _logdet(image[known]).max()
        filled = _logdet(result[unknown])
        if filled.min() < lo - LOGDET_SLACK or filled.max() > hi + LOGDET_SLACK:
            failures.append(
                f"filled log det range [{filled.min():.6g}, {filled.max():.6g}] "
                f"leaves the known range [{lo:.6g}, {hi:.6g}]")
    return failures
