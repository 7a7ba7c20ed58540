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
from .manifolds import (
    ManifoldDescriptor,
    Tangent,
    distance,
    exp_map,
    log_map,
    random_point,
    random_tangent,
    tangent_inner,
    tangent_norm,
)
from .metrics import ComparisonReport, compare
from .operators import (
    euler_step,
    inf_laplacian,
    inf_laplacian_field,
    real_graph_inf_laplacian,
    select_extremal_pair,
    solve_dirichlet,
)
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
    "Tangent",
    "build_graph",
    "compare",
    "cut_mask",
    "distance",
    "euler_step",
    "exp_map",
    "find_border",
    "generate_spd_image",
    "generate_sphere_image",
    "geodesic_anisotropy",
    "image_distance",
    "inf_laplacian",
    "inf_laplacian_field",
    "initialize_border",
    "inpaint",
    "log_map",
    "nearest_known_fill",
    "random_point",
    "random_tangent",
    "read_mask",
    "read_mvi",
    "real_graph_inf_laplacian",
    "render",
    "select_extremal_pair",
    "solve_dirichlet",
    "tangent_inner",
    "tangent_norm",
    "write_mask",
    "write_mvi",
]
