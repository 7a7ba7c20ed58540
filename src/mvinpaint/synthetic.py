"""Deterministic synthetic test images and rectangular hole masks."""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .image import Mask, MvImage
from .manifolds import ManifoldDescriptor


def generate_sphere_image(rows: int, cols: int) -> MvImage:
    """Smooth doubly periodic unit-sphere signal with nine jump regions.

    Pixel (i, j) carries the point

        x = (sin(phi) cos(theta), sin(phi) sin(theta), cos(phi))

    with azimuth theta = 2 pi j / cols and elevation
    phi = pi/4 + (pi/8) sin(2 pi i / rows), plus a pi/16 elevation offset
    added cumulatively past the cut lines j >= floor(cols/3),
    j >= floor(2 cols/3) and likewise in i.  The cuts split the image into
    nine parts; across a cut at fixed theta the geodesic jump is exactly
    pi/16.  Elevations stay inside (0, pi), away from both poles.
    """
    if rows < 1 or cols < 1:
        raise DimensionMismatch("image dimensions must be positive")
    i = np.arange(rows)[:, None]
    j = np.arange(cols)[None, :]
    theta = 2.0 * np.pi * j / cols
    phi = np.pi / 4.0 + (np.pi / 8.0) * np.sin(2.0 * np.pi * i / rows)
    jump = np.pi / 16.0
    phi = phi + jump * (
        (j >= cols // 3).astype(np.float64)
        + (j >= (2 * cols) // 3).astype(np.float64)
        + (i >= rows // 3).astype(np.float64)
        + (i >= (2 * rows) // 3).astype(np.float64)
    )
    theta = np.broadcast_to(theta, (rows, cols))
    phi = np.broadcast_to(phi, (rows, cols))
    data = np.stack(
        [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)],
        axis=-1,
    )
    return MvImage(ManifoldDescriptor.sphere2(), data)


def generate_spd_image(rows: int, cols: int) -> MvImage:
    """Deterministic 2x2 s.p.d. field with a central vertical discontinuity.

    Every pixel has eigenvalues (1 + a(i, j), 1) where
    a = 2 exp(-(rho / 0.35)^2) is a radial bump in the normalized radius
    rho about the grid center.  The eigenvector frame rotates smoothly with
    angle alpha = (pi/4)(sin(2 pi i / rows) + cos(2 pi j / cols)); pixels in
    the right half (j >= floor(cols/2)) rotate by an extra pi/2, producing a
    quarter-turn jump of the anisotropy axes across the center column while
    keeping the eigenvalue pair unchanged.
    """
    if rows < 1 or cols < 1:
        raise DimensionMismatch("image dimensions must be positive")
    i = np.arange(rows)[:, None]
    j = np.arange(cols)[None, :]
    ci = (rows - 1) / 2.0
    cj = (cols - 1) / 2.0
    rho2 = ((i - ci) / rows) ** 2 + ((j - cj) / cols) ** 2
    a = 2.0 * np.exp(-rho2 / 0.35**2)
    alpha = (np.pi / 4.0) * (
        np.sin(2.0 * np.pi * i / rows) + np.cos(2.0 * np.pi * j / cols)
    )
    alpha = alpha + (np.pi / 2.0) * (j >= cols // 2).astype(np.float64)
    lam1 = 1.0 + a
    c = np.cos(alpha)
    s = np.sin(alpha)
    # R(alpha) diag(lam1, 1) R(alpha)^T, written out per component
    m00 = lam1 * c * c + s * s
    m01 = (lam1 - 1.0) * c * s
    m11 = lam1 * s * s + c * c
    data = np.stack([m00, m01, m01, m11], axis=-1)
    return MvImage(ManifoldDescriptor.spd(2), data)


def cut_mask(rows: int, cols: int, rect) -> Mask:
    """Mask with the given (i0, j0, height, width) rectangle unknown.

    The rectangle must fit in the grid and leave at least one known pixel.
    """
    i0, j0, h, w = (int(v) for v in rect)
    if h < 1 or w < 1:
        raise DimensionMismatch("rectangle must have positive size")
    if i0 < 0 or j0 < 0 or i0 + h > rows or j0 + w > cols:
        raise DimensionMismatch("rectangle does not fit in the grid")
    known = np.ones((rows, cols), dtype=bool)
    known[i0 : i0 + h, j0 : j0 + w] = False
    return Mask(known)
