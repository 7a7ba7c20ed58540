import re
import tracemalloc

import numpy as np
import pytest

import mvinpaint as mv
from mvinpaint.errors import DimensionMismatch, FileFormatError

from conftest import random_image

E2 = mv.ManifoldDescriptor.euclidean(2)
S1 = mv.ManifoldDescriptor.circle()
S2 = mv.ManifoldDescriptor.sphere2()
P2 = mv.ManifoldDescriptor.spd(2)


def header_of(path, lines=6):
    with open(path, "rb") as fh:
        return [fh.readline().decode("ascii").rstrip("\n") for _ in range(lines)]


class TestMvi:
    @pytest.mark.parametrize("desc", [E2, S1, S2, P2], ids=lambda d: d.label())
    def test_roundtrip_bit_exact(self, desc, tmp_path):
        rng = np.random.default_rng(71)
        img = random_image(desc, 16, 16, rng)
        path = tmp_path / "img.mvi"
        mv.write_mvi(img, path)
        back = mv.read_mvi(path)
        assert back.descriptor == desc
        assert np.array_equal(back.data, img.data)
        assert back.data.tobytes() == img.data.tobytes()

    def test_header_layout(self, tmp_path):
        img = random_image(S2, 3, 5, np.random.default_rng(72))
        path = tmp_path / "img.mvi"
        mv.write_mvi(img, path)
        assert header_of(path) == [
            "MVI1",
            "manifold sphere2",
            "rows 3",
            "cols 5",
            "byteorder LE",
            "count 45",
        ]

    def test_parameterized_manifold_header(self, tmp_path):
        img = random_image(P2, 2, 2, np.random.default_rng(73))
        path = tmp_path / "img.mvi"
        mv.write_mvi(img, path)
        assert header_of(path)[1] == "manifold spd 2"

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mvi"
        path.write_bytes(b"MVI9\nmanifold circle\nrows 1\ncols 1\nbyteorder LE\ncount 1\n" + b"\x00" * 8)
        with pytest.raises(FileFormatError):
            mv.read_mvi(path)

    def test_rejects_unknown_manifold(self, tmp_path):
        path = tmp_path / "bad.mvi"
        path.write_bytes(b"MVI1\nmanifold torus\nrows 1\ncols 1\nbyteorder LE\ncount 1\n" + b"\x00" * 8)
        with pytest.raises(FileFormatError):
            mv.read_mvi(path)

    @pytest.mark.parametrize("line, desc", [
        ("euclidean 3", mv.ManifoldDescriptor.euclidean(3)),
        ("circle", S1),
        ("sphere2", S2),
        ("spd 2", P2),
        ("spd 3", mv.ManifoldDescriptor.spd(3)),
        ("spd\t2", P2),
    ])
    def test_manifold_line_grammar_accepts(self, line, desc, tmp_path):
        img = random_image(desc, 2, 3, np.random.default_rng(76))
        path = tmp_path / "img.mvi"
        mv.write_mvi(img, path)
        raw = path.read_bytes().replace(
            f"manifold {desc.label()}\n".encode(), f"manifold {line}\n".encode(), 1)
        path.write_bytes(raw)
        back = mv.read_mvi(path)
        assert back.descriptor == desc
        assert back.data.tobytes() == img.data.tobytes()

    @pytest.mark.parametrize("line, error", [
        ("manifold", "manifold line is empty"),
        ("manifold spd", "manifold spd needs one size parameter"),
        ("manifold spd 2 3", "manifold spd needs one size parameter"),
        ("manifold sphere2 1", "manifold sphere2 takes no parameter"),
        ("manifold spd x", "bad manifold declaration: invalid literal for int"),
        ("manifold spd 0", "bad manifold declaration: spd manifold needs dim >= 1"),
        ("manifold torus", "unknown manifold kind 'torus'"),
        ("manifolds circle", "expected manifold line, got 'manifolds circle'"),
    ])
    def test_manifold_line_grammar_rejects(self, line, error, tmp_path):
        path = tmp_path / "bad.mvi"
        path.write_bytes(f"MVI1\n{line}\nrows 1\ncols 1\nbyteorder LE\ncount 1\n".encode()
                         + b"\x00" * 8)
        with pytest.raises(FileFormatError, match=error):
            mv.read_mvi(path)

    @pytest.mark.parametrize("line, bad, error", [
        ("rows 1", "rows", "expected 'rows <value>' line, got 'rows'"),
        ("cols 1", "cols 1 1", "expected 'cols <value>' line, got 'cols 1 1'"),
        ("rows 1", "rows x", "bad integer in 'rows' line"),
        ("count 1", "count 0", "count must be positive, got 0"),
        ("byteorder LE", "byteorder BE", "expected 'byteorder LE', got 'byteorder BE'"),
    ])
    def test_header_field_rejects(self, line, bad, error, tmp_path):
        path = tmp_path / "bad.mvi"
        header = "MVI1\nmanifold circle\nrows 1\ncols 1\nbyteorder LE\ncount 1\n"
        path.write_bytes(header.replace(line, bad).encode() + b"\x00" * 8)
        with pytest.raises(FileFormatError, match=f"^{re.escape(error)}$"):
            mv.read_mvi(path)

    def test_rejects_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.mvi"
        path.write_bytes(b"MVI1\nmanifold circle\nrows 2\ncols 2\nbyteorder LE\ncount 5\n" + b"\x00" * 40)
        with pytest.raises(FileFormatError):
            mv.read_mvi(path)

    def test_truncated_payload_reports_byte_counts(self, tmp_path):
        img = random_image(S1, 2, 2, np.random.default_rng(74))
        path = tmp_path / "img.mvi"
        mv.write_mvi(img, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(FileFormatError) as exc:
            mv.read_mvi(path)
        assert "32" in str(exc.value) and "24" in str(exc.value)

    @pytest.mark.parametrize("cut, got", [(-1, 31), (-8, 24), (8, 40), (1, 33)])
    def test_payload_size_mismatch_reports_byte_counts(self, cut, got, tmp_path):
        # a short payload and one with trailing bytes
        img = random_image(S1, 2, 2, np.random.default_rng(74))
        path = tmp_path / "img.mvi"
        mv.write_mvi(img, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:cut] if cut < 0 else raw + b"\x00" * cut)
        with pytest.raises(FileFormatError, match=f"^payload size mismatch: expected 32 bytes, got {got}$"):
            mv.read_mvi(path)

    def test_payload_size_checked_before_the_buffer_is_made(self, tmp_path):
        # the header claims 80 GB, and two bytes follow it
        path = tmp_path / "huge.mvi"
        path.write_bytes(b"MVI1\nmanifold spd 100000\nrows 1\ncols 1\nbyteorder LE\n"
                         b"count 10000000000\n\0\0")
        tracemalloc.start()
        try:
            with pytest.raises(FileFormatError,
                               match="^payload size mismatch: expected 80000000000 bytes, got 2$"):
                mv.read_mvi(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("generate", [mv.generate_sphere_image, mv.generate_spd_image])
    def test_read_peak_memory_is_at_most_two_images(self, generate, tmp_path):
        # the payload is read into the image's buffer, and validation's
        # temporaries, a few fields of one float per pixel, come on top of it
        img = generate(512, 512)
        path = tmp_path / "img.mvi"
        mv.write_mvi(img, path)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            back = mv.read_mvi(path)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert back.data.tobytes() == img.data.tobytes()
        assert peak <= 2 * img.data.nbytes

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "bad.mvi"
        path.write_bytes(b"MVI1\nmanifold circle\n")
        with pytest.raises(FileFormatError, match="truncated header while reading rows"):
            mv.read_mvi(path)

    @pytest.mark.parametrize("width, error", [(256, None), (257, "header line for rows too long")])
    def test_header_line_length_limit(self, width, error, tmp_path):
        img = random_image(S1, 1, 2, np.random.default_rng(75))
        path = tmp_path / "img.mvi"
        mv.write_mvi(img, path)
        # "rows", padding spaces and "1": width characters before the newline
        rows_line = b"rows" + b" " * (width - 5) + b"1\n"
        path.write_bytes(path.read_bytes().replace(b"rows 1\n", rows_line, 1))
        if error is None:
            assert mv.read_mvi(path).data.tobytes() == img.data.tobytes()
        else:
            with pytest.raises(FileFormatError, match=error):
                mv.read_mvi(path)

    @pytest.mark.parametrize("width, error", [(256, "truncated header"), (257, "too long")])
    def test_file_ending_inside_a_header_line(self, width, error, tmp_path):
        # a line over 256 characters is too long even when the file ends in it
        path = tmp_path / "bad.mvi"
        path.write_bytes(b"MVI1\n" + b"m" * width)
        with pytest.raises(FileFormatError, match=error):
            mv.read_mvi(path)

    def test_rejects_non_ascii_header_line(self, tmp_path):
        path = tmp_path / "bad.mvi"
        path.write_bytes("MVI1\nmanifold circlé\n".encode("utf-8"))
        with pytest.raises(FileFormatError, match="non-ascii header line for manifold"):
            mv.read_mvi(path)

    def test_invalid_pixel_names_location(self, tmp_path):
        img = mv.MvImage.constant(S2, 2, 3, [0.0, 0.0, 1.0])
        path = tmp_path / "img.mvi"
        mv.write_mvi(img, path)
        # overwrite pixel (1, 2) with a non-unit vector, leaving the header alone
        raw = bytearray(path.read_bytes())
        payload_at = len(raw) - 6 * 3 * 8
        bad = np.array([0.0, 0.0, 3.0]).tobytes()
        off = payload_at + (1 * 3 + 2) * 3 * 8
        raw[off : off + 24] = bad
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError) as exc:
            mv.read_mvi(path)
        assert "(1, 2)" in str(exc.value)

    def test_non_finite_pixel_rejected_on_read_and_write(self, tmp_path):
        # a NaN fails no norm test, so only the finiteness check stops it
        img = mv.MvImage.constant(S2, 2, 3, [0.0, 0.0, 1.0])
        path = tmp_path / "img.mvi"
        mv.write_mvi(img, path)
        raw = bytearray(path.read_bytes())
        off = len(raw) - 6 * 3 * 8 + (1 * 3 + 2) * 3 * 8
        raw[off : off + 8] = np.array([np.nan]).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError, match=r"pixel \(1, 2\) invalid: non-finite entry"):
            mv.read_mvi(path)
        img.data[1, 2, 0] = np.nan
        with pytest.raises(DimensionMismatch, match=r"pixel \(1, 2\) invalid: non-finite entry"):
            mv.write_mvi(img, tmp_path / "nan.mvi")
        assert not (tmp_path / "nan.mvi").exists()

    def test_rejects_directory(self, tmp_path):
        with pytest.raises(IsADirectoryError):
            mv.read_mvi(tmp_path)

    def test_write_rejects_invalid_image(self, tmp_path):
        img = mv.MvImage.constant(S2, 2, 2, [0.0, 0.0, 1.0])
        img.data[0, 0] = [9.0, 0.0, 0.0]
        with pytest.raises(Exception):
            mv.write_mvi(img, tmp_path / "img.mvi")
        assert not (tmp_path / "img.mvi").exists()


class TestPbm:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(75)
        known = rng.random((9, 13)) < 0.5
        known[0, 0] = True
        path = tmp_path / "m.pbm"
        mv.write_mask(mv.Mask(known), path)
        back = mv.read_mask(path)
        assert np.array_equal(back.known, known)

    def test_one_means_unknown(self, tmp_path):
        path = tmp_path / "m.pbm"
        path.write_text("P1\n3 2\n0 1 0\n1 1 0\n")
        m = mv.read_mask(path)
        assert m.known.tolist() == [[True, False, True], [False, False, True]]

    def test_comments_and_clumped_bits(self, tmp_path):
        path = tmp_path / "m.pbm"
        path.write_text("P1\n# a hole\n4 2 # trailing comment\n0110\n1 001\n")
        m = mv.read_mask(path)
        assert (~m.known).astype(int).tolist() == [[0, 1, 1, 0], [1, 0, 0, 1]]

    def test_wide_rows_wrap_lines(self, tmp_path):
        known = np.ones((2, 60), dtype=bool)
        known[1, 7] = False
        path = tmp_path / "m.pbm"
        mv.write_mask(mv.Mask(known), path)
        text = path.read_text()
        assert all(len(line) <= 68 for line in text.splitlines())
        assert np.array_equal(mv.read_mask(path).known, known)

    def test_rejects_all_unknown(self, tmp_path):
        path = tmp_path / "m.pbm"
        path.write_text("P1\n2 2\n1 1\n1 1\n")
        with pytest.raises(FileFormatError):
            mv.read_mask(path)

    def test_rejects_bit_count_mismatch(self, tmp_path):
        path = tmp_path / "m.pbm"
        path.write_text("P1\n2 2\n1 0 1\n")
        with pytest.raises(FileFormatError):
            mv.read_mask(path)

    def test_rejects_non_pbm(self, tmp_path):
        path = tmp_path / "m.pbm"
        path.write_text("P2\n2 2\n0 0 0 0\n")
        with pytest.raises(FileFormatError):
            mv.read_mask(path)

    @pytest.mark.parametrize("raw, error", [
        (b"P1\n2 1\n0 \xff\n", "mask file is not ascii"),
        (b"P1\nx 1\n0 0\n", "bad PBM dimensions"),
        (b"P1\n2 0\n", "PBM dimensions must be positive"),
        (b"P1\n0 2\n", "PBM dimensions must be positive"),
    ])
    def test_rejects_malformed_header(self, raw, error, tmp_path):
        path = tmp_path / "m.pbm"
        path.write_bytes(raw)
        with pytest.raises(FileFormatError, match=f"^{error}$"):
            mv.read_mask(path)

    def test_rejects_stray_characters(self, tmp_path):
        path = tmp_path / "m.pbm"
        path.write_text("P1\n2 1\n0 2\n")
        with pytest.raises(FileFormatError, match="bad PBM bit '2' at position 1"):
            mv.read_mask(path)

    @pytest.mark.parametrize("raw, expected", [
        # a comment runs to the end of its line, also in the middle of a token
        (b"P1\n# a hole\n2 1 # 1 1\n0 1\n", [[0, 1]]),
        (b"P1\n3 1\n0#1\n1 0\n", [[0, 1, 0]]),
        # CR, LF and CRLF end lines, and \v, \f and \x1c-\x1e end them too
        (b"P1\r\n2 2\r# c\r0 1\r\n1 0\n", [[0, 1], [1, 0]]),
        (b"P1 2 1 #c\x0b0#c\x0c1", [[0, 1]]),
        (b"P1 2 1 #c\x1c0#c\x1d1#c\x1e", [[0, 1]]),
        # \x1f separates tokens but ends no line, so it ends no comment
        (b"P1\x1f2\x1f1\x1f0 #c\x1f0\n1", [[0, 1]]),
        (b"\x0b\x0cP1\t2\x1c1\x1d0\x1e1\x1f", [[0, 1]]),
        # bits with or without separators
        (b"P1 3 2 010\n1 10", [[0, 1, 0], [1, 1, 0]]),
        (b"P1 3 2\n011100", [[0, 1, 1], [1, 0, 0]]),
        (b"P1 2 2 0 1\n1 x", "bad PBM bit 'x' at position 3"),
        (b"P1 2 2 01\x7f0", "bad PBM bit '\\x7f' at position 2"),
        (b"P1 2 2 0 1 1", "PBM bit count mismatch: expected 4, got 3"),
        (b"P1 2 1 0 1 1", "PBM bit count mismatch: expected 2, got 3"),
        (b"P1 2 2 0 x", "PBM bit count mismatch: expected 4, got 2"),
        (b"P1 2 1 0 1 # \xe9", "mask file is not ascii"),
        (b"P1 2 # 1\n", "not a PBM P1 file"),
        (b"P1 +2 0_1 0 1", [[0, 1]]),
    ])
    def test_edge_masks(self, raw, expected, tmp_path):
        path = tmp_path / "m.pbm"
        path.write_bytes(raw)
        if isinstance(expected, str):
            with pytest.raises(FileFormatError, match=f"^{re.escape(expected)}$"):
                mv.read_mask(path)
        else:
            assert (~mv.read_mask(path).known).astype(int).tolist() == expected

    def test_read_peak_memory_is_a_few_files(self, tmp_path):
        known = np.random.default_rng(76).random((1024, 1024)) < 0.9
        path = tmp_path / "m.pbm"
        mv.write_mask(mv.Mask(known), path)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            back = mv.read_mask(path)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.known, known)
        assert peak <= 5 * path.stat().st_size
