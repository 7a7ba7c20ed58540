"""Front-propagation inpainting driver.

Unknown pixels are filled layer by layer: the current border (unknown pixels
with at least one known 4-neighbor, periodic) is initialized by copying a
known 4-neighbor, a fresh nonlocal graph, whose patches read those values,
is built over the known pixels, the Dirichlet problem is solved on the
layer, and the layer is absorbed into the known set, where it stays frozen.
With coupled_pass set, one coupled pass follows the layers: a graph over
every unknown pixel of the input, built on the filled image with every
pixel a candidate, and one solve of those pixels with the input's known
pixels as Dirichlet data.  The config is used as given, since a
SolverConfig is checked when it is made.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .config import SolverConfig
from .errors import NumericalError, SolverError
from .graph import build_graph
from .image import Mask, MvImage, check_mask_shape, vertex_ids
from .operators import solve_dirichlet


@dataclass
class LayerRecord:
    """Per-layer log entry of one inpainting run.

    A front layer's active vertices are its border.  The coupled pass, when
    it runs, is the last record, with border_size 0, which no layer has, and
    every unknown pixel of the input active.  On a decoupled layer, as every
    front layer is, every active vertex takes its weighted 1-centre:
    multi_support counts those whose 1-centre has three supports or more,
    and rounds the rounds of the support search.  A coupled solve, as the
    pass usually is, takes full Euler steps instead, and reports 0 for
    both.  iterations counts the Euler steps (0 on a decoupled layer); each
    step moves every active vertex, so the layer's vertex-steps are
    iterations * active_size.  residual is the last relative change of
    those steps (0.0 when there is none), and converged says whether
    residual fell below cfg.eps before max_iter ran out.
    lipschitz is the largest sqrt(w_uv) d(f(u), f(v)) over the layer's
    active vertices u and their neighbors v after the solve, the quantity
    the 1-centres minimize, in weights of 1 at each nearest neighbor.  sigma
    is the weight scale of the layer's graph and min_candidates the smallest
    number of finite-distance candidates of its targets; graph_s and solve_s
    are the seconds spent building that graph and solving the layer.
    """

    index: int
    border_size: int
    active_size: int
    rounds: int
    multi_support: int
    iterations: int
    residual: float
    converged: bool
    lipschitz: float
    sigma: float
    min_candidates: int
    graph_s: float
    solve_s: float


@dataclass
class FrontState:
    """One LayerRecord per layer of an inpainting run, in order."""

    log: list = field(default_factory=list)


def _neighbors(ids: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """(4, n) ids of the N, E, S, W neighbors of each id, periodic."""
    i, j = np.divmod(ids, cols)
    return (np.stack([(i - 1) % rows, i, (i + 1) % rows, i]) * cols
            + np.stack([j, (j + 1) % cols, j, (j - 1) % cols]))


def find_border(mask: Mask) -> np.ndarray:
    """Unknown pixels with a known 4-neighbor (periodic), ascending ids."""
    unknown = mask.unknown_ids()
    nbr = _neighbors(unknown, mask.rows, mask.cols)
    return unknown[mask.known_flat[nbr].any(axis=0)]


def initialize_border(img: MvImage, mask: Mask, border) -> MvImage:
    """Copy into each border pixel of img, ids ascending, its first known
    4-neighbor (N, E, S, W); returns img."""
    border = vertex_ids(border, img.vertex_count, "border")
    check_mask_shape(img, mask)
    if border.size == 0:
        return img
    if mask.known_flat[border].any():
        raise SolverError("border contains known pixels")
    nbr = _neighbors(border, img.rows, img.cols)
    known = mask.known_flat[nbr]
    has_known = known.any(axis=0)
    if not has_known.all():
        u = int(border[np.argmin(has_known)])
        raise SolverError(f"border pixel {u} has no known 4-neighbor", vertex=u)
    img.flat[border] = img.flat[nbr[known.argmax(axis=0), np.arange(border.size)]]
    return img


def nearest_known_fill(img: MvImage, mask: Mask) -> MvImage:
    """Peel borders copying first known 4-neighbors until nothing is unknown.

    Baseline fill without any solving; deterministic.
    """
    check_mask_shape(img, mask)
    out = img.copy()
    m = mask.copy()
    while not m.known.all():
        border = find_border(m)
        initialize_border(out, m, border)
        m.known_flat[border] = True
    return out


def _solve(log, work, known, mask, ids, cfg, border_size):
    """Build the graph of ids over the known pixels, solve ids into work, and
    append their LayerRecord to log; a NumericalError raised here names it."""
    index = len(log) + 1
    try:
        t0 = time.perf_counter()
        graph = build_graph(work, known, cfg, ids)
        t1 = time.perf_counter()
        solved = solve_dirichlet(graph, work, mask, ids, cfg)    # writes into work
        t2 = time.perf_counter()
    except NumericalError as e:
        e.layer = index
        raise
    residual = float(solved.trace[-1]) if solved.trace else 0.0
    log.append(LayerRecord(
        index=index,
        border_size=int(border_size),
        active_size=int(ids.size),
        rounds=solved.rounds,
        multi_support=solved.multi_support,
        iterations=solved.iterations,
        residual=residual,
        converged=residual < cfg.eps,
        lipschitz=solved.lipschitz,
        sigma=graph.sigma,
        min_candidates=graph.min_candidates,
        graph_s=t1 - t0,
        solve_s=t2 - t1,
    ))


def inpaint(img: MvImage, mask: Mask, cfg: SolverConfig):
    """Fill all unknown pixels of img by front propagation.

    Returns:
        (image, front) where front is a FrontState whose log holds
        one LayerRecord per processed layer, and the coupled pass's last.

    Every layer is filled into one copy of img, returned even when the mask
    is fully known, which is not an error: the log is then empty.

    Raises:
        DimensionMismatch: the mask shape does not match the image.
        NumericalError: any numerical failure of a layer or of the pass (a
            SolverError, GraphBuildError, CutLocusError or
            EigenConvergenceError); its layer names the failing layer, or
            the pass's index.  The kernels take img's pixels as valid, as
            img checked them when it was made.
    """
    check_mask_shape(img, mask)

    work = img.copy()
    filled = mask.copy()
    front = FrontState()
    while not filled.known.all():
        border = find_border(filled)
        initialize_border(work, filled, border)
        _solve(front.log, work, filled, mask, border, cfg, border.size)
        filled.known_flat[border] = True
    if cfg.coupled_pass and front.log:
        _solve(front.log, work, filled, mask, mask.unknown_ids(), cfg, 0)

    return work, front
