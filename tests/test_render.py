"""Tests for PPM sphere rendering and SVG ellipse rendering."""

import re

import numpy as np
import pytest

from mvinpaint import ManifoldDescriptor, Mask, MvImage, render
from mvinpaint.errors import DimensionMismatch, FileFormatError
from mvinpaint.render import geodesic_anisotropy

ELLIPSE_RE = re.compile(
    r'<ellipse cx="([-\d.]+)" cy="([-\d.]+)" rx="([\d.]+)" ry="([\d.]+)" '
    r'transform="rotate\((-?[\d.]+) [-\d.]+ [-\d.]+\)" fill="(#[0-9a-f]{6})"/>'
)


def sphere_fixture():
    """2x3 image hitting both poles, two equator points and a repeat."""
    north = [0.0, 0.0, 1.0]
    south = [0.0, 0.0, -1.0]
    east = [1.0, 0.0, 0.0]
    west = [-1.0, 0.0, 0.0]
    data = np.array([[north, south, east], [west, north, east]])
    return MvImage(ManifoldDescriptor.sphere2(), data)


def rot_spd(lam1, lam2, deg):
    a = np.radians(deg)
    c, s = np.cos(a), np.sin(a)
    r = np.array([[c, -s], [s, c]])
    return (r @ np.diag([lam1, lam2]) @ r.T).reshape(4)


class TestSpherePpm:
    def test_header_and_pixel_colors(self, tmp_path):
        img = sphere_fixture()
        mask = Mask(np.array([[1, 1, 1], [1, 1, 0]], dtype=bool))
        out = tmp_path / "img.ppm"
        render(img, mask, out, "ppm")
        raw = out.read_bytes()
        assert raw.startswith(b"P6\n3 2\n255\n")
        payload = raw[len(b"P6\n3 2\n255\n") :]
        assert len(payload) == 2 * 3 * 3
        px = np.frombuffer(payload, dtype=np.uint8).reshape(2, 3, 3)
        # poles carry no hue: north is white, south black
        assert px[0, 0].tolist() == [255, 255, 255]
        assert px[0, 1].tolist() == [0, 0, 0]
        # equator at azimuth 0 is cyan, azimuth pi is red, both half bright
        assert px[0, 2].tolist() == [0, 128, 128]
        assert px[1, 0].tolist() == [128, 0, 0]
        assert px[1, 1].tolist() == [255, 255, 255]

    def test_unknown_pixels_are_gray(self, tmp_path):
        img = sphere_fixture()
        mask = Mask(np.array([[1, 1, 1], [1, 1, 0]], dtype=bool))
        out = tmp_path / "img.ppm"
        render(img, mask, out, "ppm")
        px = np.frombuffer(out.read_bytes()[11:], dtype=np.uint8).reshape(2, 3, 3)
        assert px[1, 2].tolist() == [128, 128, 128]

    def test_without_mask_every_pixel_is_colored(self, tmp_path):
        img = sphere_fixture()
        out = tmp_path / "img.ppm"
        render(img, None, out, "ppm")
        px = np.frombuffer(out.read_bytes()[11:], dtype=np.uint8).reshape(2, 3, 3)
        assert px[1, 2].tolist() == [0, 128, 128]

    def test_does_not_modify_inputs(self, tmp_path):
        img = sphere_fixture()
        before = img.data.tobytes()
        known = np.array([[1, 1, 1], [1, 1, 0]], dtype=bool)
        render(img, Mask(known.copy()), tmp_path / "img.ppm", "ppm")
        assert img.data.tobytes() == before


class TestSpdSvg:
    def test_constant_isotropic_field(self, tmp_path):
        data = np.broadcast_to(np.diag([2.0, 2.0]).reshape(4), (2, 2, 4)).copy()
        img = MvImage(ManifoldDescriptor.spd(2), data)
        out = tmp_path / "img.svg"
        render(img, None, out, "svg")
        text = out.read_text()
        assert 'width="24" height="24"' in text
        assert '<rect width="24" height="24" fill="white"/>' in text
        hits = ELLIPSE_RE.findall(text)
        assert len(hits) == 4
        fills = {h[5] for h in hits}
        assert len(fills) == 1
        for _, _, rx, ry, _, _ in hits:
            # lam_max = 2 so scale = 0.45 * 12 / 2 and every radius is 5.4
            assert rx == ry == "5.400"

    def test_anisotropic_pixel_shape_and_color(self, tmp_path):
        # principal axes at 30 degrees and near 0, +-45 and +-90, where the
        # closed-form angle atan2(b, h) / 2 meets its branch cut at +-90
        degs = [30.0, 0.0, 0.3, -0.3, 44.7, 45.0, -45.0, 89.7, 90.0, -90.0, -89.7]
        pixels = [np.diag([2.0, 2.0]).reshape(4)] + [rot_spd(3.0, 1.0, d) for d in degs]
        data = np.array([pixels])
        img = MvImage(ManifoldDescriptor.spd(2), data)
        out = tmp_path / "img.svg"
        render(img, None, out, "svg")
        text = out.read_text()
        hits = ELLIPSE_RE.findall(text)
        assert len(hits) == len(pixels)
        iso, anis = hits[0], hits[1:]
        assert iso[2] == iso[3] == "3.600"
        for px, ani in zip(pixels[1:], anis):
            assert ani[2] == "5.400" and ani[3] == "1.800"
            # the printed angle is the eigensolver's major axis, mod 180
            q = np.linalg.eigh(px.reshape(2, 2))[1][:, -1]
            off = (float(ani[4]) - np.degrees(np.arctan2(q[1], q[0]))) % 180.0
            assert min(off, 180.0 - off) < 0.006
        # colormap endpoints: isotropic is blue, the most anisotropic red
        assert iso[5] == "#2222e6"
        assert {ani[5] for ani in anis} == {"#e62222"}
        assert "</svg>" in text

    def test_isotropic_pixel_draws_angle_zero(self, tmp_path):
        # a circle has no axis: angle 0, also where the off-diagonal is -0.0
        data = np.array([[[2.0, -0.0, -0.0, 2.0], [3.0, 0.0, 0.0, 3.0]]])
        out = tmp_path / "img.svg"
        render(MvImage(ManifoldDescriptor.spd(2), data), None, out, "svg")
        assert [hit[4] for hit in ELLIPSE_RE.findall(out.read_text())] == ["0.00", "0.00"]

    def test_unknown_pixels_are_gray(self, tmp_path):
        data = np.broadcast_to(np.diag([2.0, 2.0]).reshape(4), (1, 2, 4)).copy()
        img = MvImage(ManifoldDescriptor.spd(2), data)
        mask = Mask(np.array([[True, False]]))
        out = tmp_path / "img.svg"
        render(img, mask, out, "svg")
        hits = ELLIPSE_RE.findall(out.read_text())
        assert hits[1][5] == "#808080"
        assert hits[0][5] != "#808080"

    def test_does_not_modify_inputs(self, tmp_path):
        data = np.array([[rot_spd(3.0, 1.0, 10.0), rot_spd(2.0, 0.5, 70.0)]])
        img = MvImage(ManifoldDescriptor.spd(2), data)
        before = img.data.tobytes()
        render(img, None, tmp_path / "img.svg", "svg")
        assert img.data.tobytes() == before


class TestGeodesicAnisotropy:
    def test_isotropic_is_zero(self):
        assert geodesic_anisotropy(np.array([2.0, 2.0])) == 0.0

    def test_known_value(self):
        got = geodesic_anisotropy(np.array([1.0, np.e]))
        assert abs(got - np.sqrt(0.5)) < 1e-12

    def test_batched(self):
        evals = np.array([[3.0, 3.0], [1.0, np.e**2]])
        got = geodesic_anisotropy(evals)
        assert got.shape == (2,)
        assert abs(got[0]) < 1e-15
        assert abs(got[1] - np.sqrt(2.0)) < 1e-12


class TestDispatch:
    def test_rejects_unsupported_pairings(self, tmp_path):
        sphere = sphere_fixture()
        spd = MvImage(
            ManifoldDescriptor.spd(2),
            np.broadcast_to(np.eye(2).reshape(4), (2, 2, 4)).copy(),
        )
        euclid = MvImage(ManifoldDescriptor.euclidean(1), np.zeros((2, 2, 1)))
        for img, style in [
            (sphere, "svg"),
            (spd, "ppm"),
            (euclid, "ppm"),
            (euclid, "svg"),
            (sphere, "png"),
        ]:
            with pytest.raises(FileFormatError):
                render(img, None, tmp_path / "x", style)

    def test_rejects_large_spd_svg(self, tmp_path):
        img = MvImage(
            ManifoldDescriptor.spd(3),
            np.broadcast_to(np.eye(3).reshape(9), (2, 2, 9)).copy(),
        )
        with pytest.raises(FileFormatError, match="spd 2"):
            render(img, None, tmp_path / "x.svg", "svg")

    def test_rejects_mask_shape_mismatch(self, tmp_path):
        img = sphere_fixture()
        mask = Mask(np.ones((3, 3), dtype=bool))
        with pytest.raises(DimensionMismatch):
            render(img, mask, tmp_path / "x.ppm", "ppm")
