"""File formats: the MVI image container and PBM (P1) masks.

MVI layout: six ASCII header lines terminated by newlines,

    MVI1
    manifold <kind> [<param>]
    rows <R>
    cols <C>
    byteorder LE
    count <N>

followed immediately by N raw little-endian float64 values, row-major pixel
order, point components contiguous per pixel.  write/read round-trips are
bit exact.  The manifold line holds ManifoldDescriptor.label(), and
ManifoldDescriptor.parse reads it back.

Masks are plain PBM (P1): 1 marks an unknown pixel, 0 a known one, matching
the usual black-on-white convention for holes.
"""

from __future__ import annotations

import os
import re
import stat

import numpy as np

from .errors import DimensionMismatch, FileFormatError
from .image import Mask, MvImage
from .manifolds import ManifoldDescriptor

MAGIC = "MVI1"


def write_mvi(img: MvImage, path):
    """Write an image to an MVI file; payload bytes come straight from data."""
    img.validate()
    count = img.vertex_count * img.descriptor.point_len
    header = (
        f"{MAGIC}\n"
        f"manifold {img.descriptor.label()}\n"
        f"rows {img.rows}\n"
        f"cols {img.cols}\n"
        "byteorder LE\n"
        f"count {count}\n"
    )
    payload = np.ascontiguousarray(img.data, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(payload)


def _read_header_line(fh, what):
    # readline stops at 258 bytes, past the longest line allowed: 256
    # characters and the newline
    raw = fh.readline(258)
    line = raw.removesuffix(b"\n")
    if len(line) > 256:
        raise FileFormatError(f"header line for {what} too long")
    if line == raw:
        raise FileFormatError(f"truncated header while reading {what}")
    try:
        return line.decode("ascii").strip()
    except UnicodeDecodeError as e:
        raise FileFormatError(f"non-ascii header line for {what}") from e


def _parse_int_field(line, name):
    parts = line.split()
    if len(parts) != 2 or parts[0] != name:
        raise FileFormatError(f"expected '{name} <value>' line, got {line!r}")
    try:
        value = int(parts[1])
    except ValueError as e:
        raise FileFormatError(f"bad integer in {name!r} line") from e
    if value < 1:
        raise FileFormatError(f"{name} must be positive, got {value}")
    return value


def read_mvi(path) -> MvImage:
    """Read and validate an MVI file.

    Raises FileFormatError for malformed headers, payload size mismatches
    (reported with expected and actual byte counts) and pixels violating the
    manifold invariants (reported with the pixel index).  The payload is
    read straight into the image's buffer, with no other copy of it.
    """
    with open(path, "rb") as fh:
        magic = _read_header_line(fh, "magic")
        if magic != MAGIC:
            raise FileFormatError(f"not an MVI file: first line {magic!r}")
        man_line = _read_header_line(fh, "manifold")
        parts = man_line.split(maxsplit=1)
        if not parts or parts[0] != "manifold":
            raise FileFormatError(f"expected manifold line, got {man_line!r}")
        try:
            desc = ManifoldDescriptor.parse(parts[1] if len(parts) == 2 else "")
        except ValueError as e:
            raise FileFormatError(str(e)) from e
        rows = _parse_int_field(_read_header_line(fh, "rows"), "rows")
        cols = _parse_int_field(_read_header_line(fh, "cols"), "cols")
        order_line = _read_header_line(fh, "byteorder")
        if order_line != "byteorder LE":
            raise FileFormatError(f"expected 'byteorder LE', got {order_line!r}")
        count = _parse_int_field(_read_header_line(fh, "count"), "count")
        expected = rows * cols * desc.point_len
        if count != expected:
            raise FileFormatError(
                f"count {count} does not match rows*cols*point_len = {expected}"
            )
        # a regular file's size is checked before a buffer of count floats
        # is made; a pipe has no size to check
        st = os.fstat(fh.fileno())
        got = st.st_size - fh.tell() if stat.S_ISREG(st.st_mode) else 8 * count
        if got == 8 * count:
            data = np.empty((rows, cols, desc.point_len), dtype="<f8")
            got = fh.readinto(data) + len(fh.read())
    if got != 8 * count:
        raise FileFormatError(
            f"payload size mismatch: expected {8 * count} bytes, got {got}"
        )
    try:
        return MvImage(desc, data)
    except DimensionMismatch as e:
        raise FileFormatError(str(e)) from e


def write_mask(mask: Mask, path):
    """Write a mask as PBM P1; 1 = unknown, 0 = known."""
    lines = [f"P1\n{mask.cols} {mask.rows}\n"]
    bits = (~mask.known).astype(np.uint8)
    for i in range(mask.rows):
        row = " ".join(str(int(b)) for b in bits[i])
        # keep PBM lines under the customary 70 character limit
        while len(row) > 68:
            cut = row.rfind(" ", 0, 68)
            lines.append(row[:cut] + "\n")
            row = row[cut + 1 :]
        lines.append(row + "\n")
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(lines)


def read_mask(path) -> Mask:
    """Read a PBM P1 mask; accepts comments and arbitrary whitespace.

    A comment runs from # to the end of its line, where str.splitlines ends
    lines, and tokens are split where str.split splits ASCII text: at \t,
    \n, \v, \f, \r, \x1c-\x1f and space.
    """
    with open(path, "rb") as fh:
        text = fh.read()
    if not text.isascii():
        raise FileFormatError("mask file is not ascii")
    text = re.sub(rb"#[^\n\r\v\f\x1c-\x1e]*", b"", text)
    space, token = rb"[\t-\r\x1c-\x20]", rb"([^\t-\r\x1c-\x20]+)"
    head = re.match(space + b"*" + token + (space + b"+" + token) * 2, text)
    if head is None or head[1] != b"P1":
        raise FileFormatError("not a PBM P1 file")
    try:
        cols = int(head[2])
        rows = int(head[3])
    except ValueError as e:
        raise FileFormatError("bad PBM dimensions") from e
    if rows < 1 or cols < 1:
        raise FileFormatError("PBM dimensions must be positive")
    # P1 allows bits with or without separators: the bits are every
    # character after the header but whitespace
    bits = text.translate(None, b"\t\n\v\f\r\x1c\x1d\x1e\x1f ")
    arr = np.frombuffer(bits, dtype=np.uint8, offset=len(b"".join(head.groups())))
    if arr.size != rows * cols:
        raise FileFormatError(
            f"PBM bit count mismatch: expected {rows * cols}, got {arr.size}"
        )
    stray = (arr != ord("0")) & (arr != ord("1"))
    if stray.any():
        n = int(np.argmax(stray))
        raise FileFormatError(f"bad PBM bit {chr(arr[n])!r} at position {n}")
    try:
        return Mask((arr == ord("0")).reshape(rows, cols))
    except DimensionMismatch as e:
        raise FileFormatError(str(e)) from e
