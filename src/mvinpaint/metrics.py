"""Geodesic error reports between an inpainting result and a reference."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .image import Mask, MvImage, check_mask_shape


@dataclass
class ComparisonReport:
    """Geodesic error statistics over the originally unknown pixels."""

    pixels: int
    mean: float
    max: float
    rms: float

    def text(self) -> str:
        return (
            f"pixels {self.pixels}\n"
            f"mean {self.mean:.12g}\n"
            f"max {self.max:.12g}\n"
            f"rms {self.rms:.12g}\n"
        )


def compare(result: MvImage, truth: MvImage, mask: Mask) -> ComparisonReport:
    """Mean/max/RMS geodesic error of result vs truth over unknown pixels."""
    if result.descriptor != truth.descriptor:
        raise DimensionMismatch("images live on different manifolds")
    if result.data.shape != truth.data.shape:
        raise DimensionMismatch("image shapes differ")
    check_mask_shape(result, mask)
    ids = mask.unknown_ids()
    if ids.size == 0:
        raise DimensionMismatch("mask has no unknown pixel to compare on")
    d2 = result.descriptor.kernel.dist2(result.flat[ids], truth.flat[ids])
    d = np.sqrt(d2)
    return ComparisonReport(
        pixels=int(ids.size),
        mean=float(d.mean()),
        max=float(d.max()),
        rms=float(np.sqrt(d2.mean())),
    )
