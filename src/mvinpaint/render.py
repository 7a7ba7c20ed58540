"""Visualization: PPM rasters for sphere images, SVG ellipse grids for spd.

Sphere colormap (documented contract): with azimuth theta = atan2(y, x) and
elevation phi = arccos(z), a pixel maps to HSV

    H = (theta + pi) / (2 pi),  S = sin(phi),  V = (1 + cos(phi)) / 2

so the north pole (0, 0, 1) is the unique brightest color (pure white), the
south pole the darkest (black), and the equator band cycles through the
hues.  Unknown pixels render neutral gray (128, 128, 128) when a mask is
given.

Spd glyphs: one ellipse per pixel with semi-axes along the eigenvectors and
lengths proportional to the eigenvalues (scaled so the largest eigenvalue of
the image fills 45% of a cell), filled with a hue driven by the geodesic
anisotropy index

    GA(X) = sqrt(sum_i (log lambda_i - mean(log lambda))^2)

normalized by the image maximum (blue isotropic, red most anisotropic).
Isotropic matrices draw circles with GA = 0 at angle 0.  Eigenvalues and
axes come in closed form from the entries [[a, b], [b, c]], b the mean of
the two off-diagonal entries, with no eigensolver: with m = (a + c) / 2 and
h = (a - c) / 2 the eigenvalues are m +- hypot(h, b), the small one taken as
det / large, and the major axis lies at atan2(b, h) / 2, in [-90, 90]
degrees.  Unknown pixels draw gray ellipses when a mask is given.
Rendering never modifies its inputs.
"""

from __future__ import annotations

import numpy as np

from .errors import FileFormatError
from .image import MvImage, check_mask_shape

GRAY = (128, 128, 128)
CELL = 12  # svg cell size in user units


def hsv_to_rgb(h, s, v):
    """Vectorized HSV -> RGB, all components in [0, 1]."""
    h = np.mod(np.asarray(h, dtype=np.float64), 1.0) * 6.0
    s = np.asarray(s, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    i = np.floor(h).astype(np.int64) % 6
    f = h - np.floor(h)
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    r = np.choose(i, [v, q, p, p, t, v])
    g = np.choose(i, [t, v, v, q, p, p])
    b = np.choose(i, [p, p, t, v, v, q])
    return r, g, b


def geodesic_anisotropy(evals) -> np.ndarray:
    """GA index from positive eigenvalues: Frobenius spread of log eigenvalues."""
    evals = np.asarray(evals, dtype=np.float64)
    ln = np.log(evals)
    ln = ln - ln.mean(axis=-1, keepdims=True)
    return np.sqrt(np.einsum("...i,...i->...", ln, ln))


def _render_sphere_ppm(img: MvImage, mask, path):
    x = img.data[..., 0]
    y = img.data[..., 1]
    z = img.data[..., 2]
    theta = np.arctan2(y, x)
    phi = np.arccos(np.clip(z, -1.0, 1.0))
    h = (theta + np.pi) / (2.0 * np.pi)
    s = np.sin(phi)
    v = 0.5 * (1.0 + np.cos(phi))
    r, g, b = hsv_to_rgb(h, s, v)
    rgb = np.stack([r, g, b], axis=-1)
    rgb = np.clip(np.rint(rgb * 255.0), 0, 255).astype(np.uint8)
    if mask is not None:
        rgb[~mask.known] = GRAY
    header = f"P6\n{img.cols} {img.rows}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(rgb.tobytes())


def _render_spd_svg(img: MvImage, mask, path):
    a, c = img.flat[:, 0], img.flat[:, 3]
    off = 0.5 * (img.flat[:, 1] + img.flat[:, 2])
    det = a * c - off * off
    h = 0.5 * (a - c)
    rad = np.hypot(h, off)
    hi = 0.5 * (a + c) + rad
    # m - hypot(h, off) cancels: the small eigenvalue comes from the determinant
    lo = det / hi
    ang = np.where(rad > 0.0, np.degrees(0.5 * np.arctan2(off, h)), 0.0)
    ga = geodesic_anisotropy(np.stack([lo, hi], axis=-1))
    ga_max = float(ga.max())
    lam_max = float(hi.max())
    scale = 0.45 * CELL / lam_max
    hue_norm = ga / ga_max if ga_max > 0.0 else np.zeros_like(ga)
    # blue (2/3) for isotropic down to red (0) for the most anisotropic
    r, g, b = hsv_to_rgb((2.0 / 3.0) * (1.0 - hue_norm), 0.85, 0.9)
    rgb = np.clip(np.rint(np.stack([r, g, b], axis=-1) * 255.0), 0, 255).astype(int)

    width = img.cols * CELL
    height = img.rows * CELL
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
    ]
    known = mask.known.reshape(-1) if mask is not None else None
    for u in range(img.vertex_count):
        i, j = divmod(u, img.cols)
        cx = (j + 0.5) * CELL
        cy = (i + 0.5) * CELL
        rx = max(hi[u] * scale, 0.05)
        ry = max(lo[u] * scale, 0.05)
        if known is not None and not known[u]:
            fill = "#%02x%02x%02x" % GRAY
        else:
            fill = "#%02x%02x%02x" % tuple(rgb[u])
        parts.append(
            f'<ellipse cx="{cx:.2f}" cy="{cy:.2f}" rx="{rx:.3f}" ry="{ry:.3f}" '
            f'transform="rotate({ang[u]:.2f} {cx:.2f} {cy:.2f})" fill="{fill}"/>\n'
        )
    parts.append("</svg>\n")
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(parts)


def render(img: MvImage, mask, path, style: str):
    """Render an image to path; style "ppm" (sphere2) or "svg" (spd).

    Raises FileFormatError for unsupported style/manifold pairings and
    DimensionMismatch for a mask that does not match the image.
    """
    if mask is not None:
        check_mask_shape(img, mask)
    kind = img.descriptor.kind
    if style == "ppm" and kind == "sphere2":
        _render_sphere_ppm(img, mask, path)
    elif style == "svg" and kind == "spd":
        if img.descriptor.dim != 2:
            raise FileFormatError("svg ellipse rendering supports spd 2 only")
        _render_spd_svg(img, mask, path)
    else:
        raise FileFormatError(
            f"no {style!r} rendering for manifold {img.descriptor.label()!r}"
        )
