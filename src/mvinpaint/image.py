"""Manifold-valued images on a periodic pixel grid, plus masks.

Pixels live on an rows x cols grid with periodic boundary in both axes.
Vertex ids enumerate pixels row-major: u = i * cols + j.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .manifolds import ManifoldDescriptor


@dataclass
class MvImage:
    """A grid of manifold points stored as one (rows, cols, point_len) buffer.

    Its pixels are validated when it is made; the kernels take them as valid.
    """

    descriptor: ManifoldDescriptor
    data: np.ndarray

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float64)
        if self.data.ndim != 3 or self.data.shape[2] != self.descriptor.point_len:
            raise DimensionMismatch(
                f"image data shape {self.data.shape} does not match "
                f"(rows, cols, {self.descriptor.point_len})"
            )
        if self.data.shape[0] < 1 or self.data.shape[1] < 1:
            raise DimensionMismatch("image needs at least one row and one column")
        self.validate()

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def vertex_count(self) -> int:
        return self.rows * self.cols

    @property
    def flat(self) -> np.ndarray:
        """(vertex_count, point_len) view sharing memory with data."""
        return self.data.reshape(self.vertex_count, self.descriptor.point_len)

    def pixel_of(self, u: int):
        return divmod(one_vertex_id(u, self.vertex_count, "u"), self.cols)

    def copy(self) -> "MvImage":
        return copy.deepcopy(self)          # runs no __post_init__: self is valid

    def validate(self):
        """Check every pixel against the manifold invariants.

        Raises DimensionMismatch naming the first offending pixel.
        """
        bad = self.descriptor.kernel.validate_points(self.flat)
        if bad is not None:
            i, j = self.pixel_of(bad[0])
            raise DimensionMismatch(f"pixel ({i}, {j}) invalid: {bad[1]}")

    @classmethod
    def constant(cls, descriptor: ManifoldDescriptor, rows: int, cols: int, value) -> "MvImage":
        value = np.asarray(value, dtype=np.float64).reshape(descriptor.point_len)
        data = np.broadcast_to(value, (rows, cols, descriptor.point_len)).copy()
        return cls(descriptor, data)


@dataclass
class Mask:
    """Known/unknown flags per pixel; True marks a known (given) pixel."""

    known: np.ndarray

    def __post_init__(self):
        self.known = np.ascontiguousarray(self.known, dtype=bool)
        if self.known.ndim != 2:
            raise DimensionMismatch(f"mask must be 2-d, got shape {self.known.shape}")
        if not self.known.any():
            raise DimensionMismatch("mask has no known pixel")

    @property
    def rows(self) -> int:
        return self.known.shape[0]

    @property
    def cols(self) -> int:
        return self.known.shape[1]

    @property
    def known_flat(self) -> np.ndarray:
        return self.known.reshape(-1)

    def unknown_ids(self) -> np.ndarray:
        return np.flatnonzero(~self.known_flat)

    def copy(self) -> "Mask":
        return Mask(self.known.copy())

    @classmethod
    def all_known(cls, rows: int, cols: int) -> "Mask":
        return cls(np.ones((rows, cols), dtype=bool))


def check_mask_shape(img: MvImage, mask: Mask):
    """Raise DimensionMismatch unless mask has the grid shape of img."""
    if mask.known.shape != (img.rows, img.cols):
        raise DimensionMismatch(
            f"mask is {mask.rows}x{mask.cols} but image is {img.rows}x{img.cols}"
        )


def vertex_ids(ids, vertex_count: int, name: str) -> np.ndarray:
    """ids as an ascending int64 array without repeats, each on the grid.

    DimensionMismatch names `name` unless ids have an integer dtype, as
    numpy index arrays do (an empty list passes), and lie on the grid.
    """
    ids = np.asarray(ids)
    if ids.size and not np.issubdtype(ids.dtype, np.integer):
        raise DimensionMismatch(f"{name} ids must have an integer dtype, got {ids.dtype}")
    ids = np.unique(ids)
    if ids.size and (ids[0] < 0 or ids[-1] >= vertex_count):
        raise DimensionMismatch(f"{name} ids outside the grid")
    return ids.astype(np.int64, copy=False)


def one_vertex_id(u, vertex_count: int, name: str) -> int:
    """The one id of vertex_ids(u); DimensionMismatch names `name` unless there is one."""
    ids = vertex_ids(u, vertex_count, name)
    if ids.size != 1:
        raise DimensionMismatch(f"{name} must be one vertex id, got {ids.size}")
    return int(ids[0])


def pixel_dist2(f: MvImage, g: MvImage, ids: np.ndarray) -> np.ndarray:
    """Squared distances of f and g at the vertex ids; both on one manifold and grid."""
    if f.descriptor != g.descriptor:
        raise DimensionMismatch("images live on different manifolds")
    if f.data.shape != g.data.shape:
        raise DimensionMismatch(f"image shapes differ: {f.data.shape} vs {g.data.shape}")
    return f.descriptor.kernel.dist2(f.flat[ids], g.flat[ids])


def image_distance(f: MvImage, g: MvImage, subset=None) -> float:
    """Root of the summed squared pixel distances over a vertex subset.

    Args:
        f, g: images on the same grid with the same descriptor.
        subset: vertex ids, each counted once; None means all pixels.

    Raises:
        DimensionMismatch: mismatched grids/descriptors, or a bad or empty subset.
    """
    ids = (np.arange(f.vertex_count) if subset is None
           else vertex_ids(subset, f.vertex_count, "subset"))
    if ids.size == 0:
        raise DimensionMismatch("empty subset")
    return float(np.sqrt(pixel_dist2(f, g, ids).sum()))
