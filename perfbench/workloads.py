"""Benchmark inputs: synthetic images, masks and the MVI/PBM files holding them.

Everything here is written from the published formulas and file formats, not
by calling the program: the sphere2 and spd(2) fields follow the formulas in
the docstrings of ``mvinpaint.synthetic``, and the files follow the MVI and
plain PBM (P1) layouts described in the README.  The program only ever sees
the files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    """One benchmark input family plus the inpainting parameters run on it.

    ``hole`` is an (i0, j0, height, width) rectangle of unknown pixels, or
    None when a ``dropout`` share of all pixels is missing instead.
    """

    name: str
    manifold: str          # "sphere2" or "spd2"
    size: int              # square grid side
    k: int
    p: int
    r: int
    hole: tuple | None = None
    dropout: float = 0.0

    def inpaint_args(self):
        return ["--k", str(self.k), "--p", str(self.p), "--r", str(self.r),
                "--threads", "1"]


WORKLOADS = {
    w.name: w
    for w in (
        # compact hole, large patches: the patch graph does most of the work
        Workload("s2-hole64", "sphere2", 64, k=25, p=12, r=16, hole=(24, 24, 16, 16)),
        # the same hole on spd(2): the Euler solve, spd kernels and eigen do most of it
        Workload("spd2-hole64", "spd2", 64, k=25, p=6, r=16, hole=(24, 24, 16, 16)),
        # scattered single pixels on a large image: one layer of many targets,
        # the whole-image gather table and the largest files
        Workload("s2-dropout256", "sphere2", 256, k=10, p=6, r=8, dropout=0.02),
    )
}


def sphere_field(rows: int, cols: int) -> np.ndarray:
    """(rows, cols, 3) unit vectors: smooth periodic angles plus nine jump regions.

    theta = 2 pi j / cols, phi = pi/4 + (pi/8) sin(2 pi i / rows) + pi/16 per
    cut line passed (j >= cols//3, j >= 2cols//3, i >= rows//3, i >= 2rows//3).
    """
    i = np.arange(rows, dtype=np.float64)[:, None]
    j = np.arange(cols, dtype=np.float64)[None, :]
    cuts = ((j >= cols // 3) * 1.0 + (j >= (2 * cols) // 3)
            + (i >= rows // 3) + (i >= (2 * rows) // 3))
    phi = np.pi / 4 + (np.pi / 8) * np.sin(2 * np.pi * i / rows) + (np.pi / 16) * cuts
    theta = np.broadcast_to(2 * np.pi * j / cols, (rows, cols))
    phi = np.broadcast_to(phi, (rows, cols))
    return np.stack([np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta),
                     np.cos(phi)], axis=-1)


def spd_field(rows: int, cols: int) -> np.ndarray:
    """(rows, cols, 4) row-major 2x2 s.p.d. matrices R(alpha) diag(1 + a, 1) R(alpha)^T.

    a = 2 exp(-(rho / 0.35)^2) for the normalized radius rho about the grid
    center; alpha = (pi/4)(sin(2 pi i / rows) + cos(2 pi j / cols)), plus pi/2
    in the right half j >= cols//2.
    """
    i = np.arange(rows, dtype=np.float64)[:, None]
    j = np.arange(cols, dtype=np.float64)[None, :]
    rho2 = ((i - (rows - 1) / 2) / rows) ** 2 + ((j - (cols - 1) / 2) / cols) ** 2
    lam = 1.0 + 2.0 * np.exp(-rho2 / 0.35**2)
    alpha = (np.pi / 4) * (np.sin(2 * np.pi * i / rows) + np.cos(2 * np.pi * j / cols))
    alpha = alpha + (np.pi / 2) * (j >= cols // 2)
    c, s = np.cos(alpha), np.sin(alpha)
    m00 = lam * c * c + s * s
    m01 = (lam - 1.0) * c * s
    m11 = lam * s * s + c * c
    return np.stack([m00, m01, m01, m11], axis=-1)


# The dropout positions come from this fixed seed, not from --seed.  On
# random positions the rms error follows a handful of pixels: in one sampled
# mask two pixels next to the grid's wrap corner, where two jump lines meet,
# held 80% of the squared error, and the rms over seeds ranged 0.0067-0.0110.
# One fixed mask keeps the error and every work count identical across seeds.
DROPOUT_SEED = 0


def dropout_unknown(n: int, share: float) -> np.ndarray:
    """n x n unknown flags: round(share n^2) random pixels, no two 4-adjacent.

    Keeping the missing pixels apart (periodically) makes every one of them a
    border pixel of the first front layer, so the run has exactly one layer.
    """
    rng = np.random.default_rng(DROPOUT_SEED)
    want = round(share * n * n)
    unknown = np.zeros((n, n), dtype=bool)
    placed = 0
    for u in rng.permutation(n * n):
        i, j = divmod(int(u), n)
        if (unknown[(i - 1) % n, j] or unknown[(i + 1) % n, j]
                or unknown[i, (j - 1) % n] or unknown[i, (j + 1) % n]):
            continue
        unknown[i, j] = True
        placed += 1
        if placed == want:
            return unknown
    raise ValueError(f"cannot place {want} isolated pixels on a {n}x{n} grid")


@dataclass
class Inputs:
    truth: np.ndarray      # (rows, cols, L) ground truth
    image: np.ndarray      # truth with every unknown pixel set to one known value
    unknown: np.ndarray    # (rows, cols) bool


def make_inputs(w: Workload, seed: int) -> Inputs:
    """The workload's inputs for one seed.

    The seed picks the known pixel whose value fills the unknown ones, so
    the input file holds no trace of the truth.  The output does not depend
    on the fill value: work, counts and results repeat exactly across seeds,
    and only the timings vary.
    """
    rng = np.random.default_rng(seed)
    field = sphere_field if w.manifold == "sphere2" else spd_field
    truth = field(w.size, w.size)
    if w.hole is not None:
        i0, j0, h, wd = w.hole
        unknown = np.zeros((w.size, w.size), dtype=bool)
        unknown[i0:i0 + h, j0:j0 + wd] = True
    else:
        unknown = dropout_unknown(w.size, w.dropout)
    known_ids = np.flatnonzero(~unknown.reshape(-1))
    fill = truth.reshape(-1, truth.shape[-1])[known_ids[rng.integers(known_ids.size)]]
    image = truth.copy()
    image[unknown] = fill
    return Inputs(truth=truth, image=image, unknown=unknown)


def mvi_header(manifold: str, rows: int, cols: int, point_len: int) -> bytes:
    kind = "spd 2" if manifold == "spd2" else "sphere2"
    return (f"MVI1\nmanifold {kind}\nrows {rows}\ncols {cols}\n"
            f"byteorder LE\ncount {rows * cols * point_len}\n").encode("ascii")


def write_mvi(path, manifold: str, data: np.ndarray):
    rows, cols, point_len = data.shape
    with open(path, "wb") as fh:
        fh.write(mvi_header(manifold, rows, cols, point_len))
        fh.write(np.ascontiguousarray(data, dtype="<f8").tobytes())


def read_mvi(path, manifold: str, rows: int, cols: int) -> np.ndarray:
    """Payload of an MVI file whose header must match the expected one exactly."""
    point_len = 4 if manifold == "spd2" else 3
    header = mvi_header(manifold, rows, cols, point_len)
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.startswith(header):
        raise ValueError(f"{path}: unexpected MVI header")
    payload = raw[len(header):]
    if len(payload) != 8 * rows * cols * point_len:
        raise ValueError(f"{path}: payload has {len(payload)} bytes")
    return np.frombuffer(payload, dtype="<f8").reshape(rows, cols, point_len).copy()


def write_pbm(path, unknown: np.ndarray):
    """Plain PBM (P1), 1 = unknown, lines kept under 70 characters."""
    rows, cols = unknown.shape
    bits = unknown.astype(np.uint8).astype(str)
    lines = [f"P1\n{cols} {rows}\n"]
    per_line = 32
    for row in bits:
        for start in range(0, cols, per_line):
            lines.append(" ".join(row[start:start + per_line]) + "\n")
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(lines)
