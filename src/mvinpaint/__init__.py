"""Nonlocal inpainting of manifold-valued images via a graph infinity-Laplacian."""

from .config import SolverConfig
from .driver import (
    FrontState,
    LayerRecord,
    find_border,
    initialize_border,
    inpaint,
    nearest_known_fill,
)
from .fileio import read_mask, read_mvi, write_mask, write_mvi
from .graph import NonlocalGraph, build_graph
from .image import Mask, MvImage, image_distance
from .manifolds import ManifoldDescriptor
from .metrics import ComparisonReport, compare
from .operators import euler_step, inf_laplacian, inf_laplacian_field, solve_dirichlet
from .render import geodesic_anisotropy, render
from .synthetic import cut_mask, generate_sphere_image, generate_spd_image

__version__ = "0.1.0"

__all__ = [
    "ComparisonReport",
    "FrontState",
    "LayerRecord",
    "ManifoldDescriptor",
    "Mask",
    "MvImage",
    "NonlocalGraph",
    "SolverConfig",
    "build_graph",
    "compare",
    "cut_mask",
    "euler_step",
    "find_border",
    "generate_spd_image",
    "generate_sphere_image",
    "geodesic_anisotropy",
    "image_distance",
    "inf_laplacian",
    "inf_laplacian_field",
    "initialize_border",
    "inpaint",
    "nearest_known_fill",
    "read_mask",
    "read_mvi",
    "render",
    "solve_dirichlet",
    "write_mask",
    "write_mvi",
]
