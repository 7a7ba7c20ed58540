import re

import numpy as np
import pytest

import mvinpaint as mv
from mvinpaint.errors import DimensionMismatch

from conftest import extract_patch, random_image

S2 = mv.ManifoldDescriptor.sphere2()
E2 = mv.ManifoldDescriptor.euclidean(2)


def test_shape_and_ids():
    img = mv.MvImage(E2, np.zeros((3, 4, 2)))
    assert img.rows == 3 and img.cols == 4 and img.vertex_count == 12
    assert img.pixel_of(6) == (1, 2)
    for u in range(12):
        i, j = img.pixel_of(u)
        assert i * img.cols + j == u


def test_flat_shares_memory():
    img = mv.MvImage(E2, np.zeros((2, 2, 2)))
    img.flat[3] = [5.0, 6.0]
    assert np.array_equal(img.data[1, 1], [5.0, 6.0])


def test_constant_factory():
    img = mv.MvImage.constant(S2, 4, 5, [0.0, 0.0, 1.0])
    assert img.data.shape == (4, 5, 3)
    assert (img.data == np.array([0.0, 0.0, 1.0])).all()
    img.validate()


def test_copy_is_independent():
    img = mv.MvImage.constant(E2, 2, 2, [1.0, 2.0])
    dup = img.copy()
    dup.flat[0] = [9.0, 9.0]
    assert np.array_equal(img.flat[0], [1.0, 2.0])


def test_validate_reports_pixel():
    img = mv.MvImage.constant(S2, 3, 3, [0.0, 0.0, 1.0])
    img.data[1, 2] = [0.0, 0.0, 2.0]
    with pytest.raises(DimensionMismatch) as exc:
        img.validate()
    assert "(1, 2)" in str(exc.value)


def test_rejects_wrong_point_len():
    with pytest.raises(DimensionMismatch):
        mv.MvImage(S2, np.zeros((2, 2, 2)))


@pytest.mark.parametrize("make, error", [
    (lambda: mv.MvImage(E2, np.zeros((0, 3, 2))), "image needs at least one row and one column"),
    (lambda: mv.MvImage(E2, np.zeros((3, 0, 2))), "image needs at least one row and one column"),
    (lambda: mv.Mask(np.ones(4, dtype=bool)), "mask must be 2-d, got shape (4,)"),
    (lambda: mv.Mask(np.ones((1, 2, 2), dtype=bool)), "mask must be 2-d, got shape (1, 2, 2)"),
], ids=["zero-rows", "zero-cols", "mask-1d", "mask-3d"])
def test_constructors_reject_bad_shapes(make, error):
    with pytest.raises(DimensionMismatch, match=f"^{re.escape(error)}"):
        make()


def test_mask_basics():
    known = np.ones((3, 3), dtype=bool)
    known[1, 1] = False
    m = mv.Mask(known)
    assert m.rows == 3 and m.cols == 3
    assert np.array_equal(m.unknown_ids(), [4])
    assert m.known_flat[4] == False  # noqa: E712


def test_mask_needs_a_known_pixel():
    with pytest.raises(DimensionMismatch):
        mv.Mask(np.zeros((2, 2), dtype=bool))


def test_mask_all_known():
    m = mv.Mask.all_known(2, 3)
    assert m.known.all() and m.unknown_ids().size == 0


def test_image_distance_two_pixel_sphere():
    f = mv.MvImage(S2, np.array([[[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]]))
    g = mv.MvImage(S2, np.array([[[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]]]))
    # two quarter turns: sqrt(2) * pi/2
    assert abs(mv.image_distance(f, g) - np.pi / np.sqrt(2.0)) < 1e-14


def test_image_distance_subset():
    f = mv.MvImage(E2, np.zeros((2, 2, 2)))
    g = f.copy()
    g.flat[2] = [3.0, 4.0]
    assert mv.image_distance(f, g, subset=[2]) == 5.0
    assert mv.image_distance(f, g, subset=[0, 1]) == 0.0
    assert mv.image_distance(f, g, subset=[2, 2]) == 5.0
    assert mv.image_distance(f, g) == 5.0


def test_image_distance_errors():
    f = mv.MvImage(E2, np.zeros((2, 2, 2)))
    g = mv.MvImage(E2, np.zeros((2, 3, 2)))
    with pytest.raises(DimensionMismatch):
        mv.image_distance(f, g)
    h = mv.MvImage(S2, np.tile([0.0, 0.0, 1.0], (2, 2, 1)))
    with pytest.raises(DimensionMismatch):
        mv.image_distance(f, h)
    with pytest.raises(DimensionMismatch):
        mv.image_distance(f, f, subset=[])
    with pytest.raises(DimensionMismatch):
        mv.image_distance(f, f, subset=[99])


def test_random_image_validates():
    rng = np.random.default_rng(1)
    for desc in (E2, S2, mv.ManifoldDescriptor.spd(2)):
        random_image(desc, 4, 4, rng).validate()



_CFG = mv.SolverConfig(k=3, p=1, r=1)
# every function that takes an image and a mask, called as (img, mask, dir)
MASK_USERS = {
    "inpaint": lambda img, m, d: mv.inpaint(img, m, _CFG),
    "initialize_border": lambda img, m, d: mv.initialize_border(img, m, [5]),
    "nearest_known_fill": lambda img, m, d: mv.nearest_known_fill(img, m),
    "extract_patch": lambda img, m, d: extract_patch(img, m, (1, 1), 1),
    "build_graph": lambda img, m, d: mv.build_graph(img, m, _CFG, [5]),
    "solve_dirichlet": lambda img, m, d: mv.solve_dirichlet(
        mv.NonlocalGraph.empty(16), img, m, [5], _CFG),
    "render": lambda img, m, d: mv.render(img, m, d / "o.ppm", "ppm"),
    "compare": lambda img, m, d: mv.compare(img, img.copy(), m),
}


@pytest.mark.parametrize("name", list(MASK_USERS))
def test_mask_shape_rule_everywhere(name, tmp_path):
    # a 2x8 mask has the pixel count of the 4x4 image but not its grid
    img = random_image(S2, 4, 4, np.random.default_rng(9))
    known = np.ones((2, 8), dtype=bool)
    known[0, 5] = False
    with pytest.raises(DimensionMismatch, match="mask is 2x8 but image is 4x4"):
        MASK_USERS[name](img, mv.Mask(known), tmp_path)
    assert not (tmp_path / "o.ppm").exists()


# every function that takes vertex ids: the argument's name, and the call as
# (img, mask, graph, ids)
ID_USERS = {
    "build_graph": ("target", lambda img, m, g, ids: mv.build_graph(img, m, _CFG, ids)),
    "solve_dirichlet": ("active", lambda img, m, g, ids: mv.solve_dirichlet(
        g, img, m, ids, _CFG)),
    "euler_step": ("active", lambda img, m, g, ids: mv.euler_step(g, img, ids, 0.5)),
    "inf_laplacian_field": ("active", lambda img, m, g, ids: mv.inf_laplacian_field(
        g, img, ids)),
    "inf_laplacian": ("u", lambda img, m, g, ids: mv.inf_laplacian(g, img, ids)),
    "initialize_border": ("border", lambda img, m, g, ids: mv.initialize_border(img, m, ids)),
    "image_distance": ("subset", lambda img, m, g, ids: mv.image_distance(
        img, img.copy(), ids)),
    "NonlocalGraph.rows": ("vertices", lambda img, m, g, ids: g.rows(ids)),
}


def _one_target_layer():
    """One 8x8 layer whose only unknown pixel, and only target, is 27."""
    img = random_image(S2, 8, 8, np.random.default_rng(4))
    known = np.ones((8, 8), dtype=bool)
    known.flat[27] = False
    mask = mv.Mask(known)
    return img, mask, mv.build_graph(img, mask, _CFG, [27])


@pytest.mark.parametrize("name", list(ID_USERS))
def test_vertex_id_rule_everywhere(name):
    img, mask, graph = _one_target_layer()
    arg, user = ID_USERS[name]
    for ids in ([27], range(27, 28), np.array([27], dtype=np.int64)):
        user(img, mask, graph, ids)
    # none of these is an index array of ids to numpy: it refuses floats and
    # strings, and reads a bool array as a mask
    for ids in (np.array([27.9]), np.array([27.0]), "27", np.array([True])):
        with pytest.raises(DimensionMismatch, match=f"^{arg} ids must have an integer dtype"):
            user(img, mask, graph, ids)
    for ids in ([-1], [64]):
        with pytest.raises(DimensionMismatch, match=f"^{arg} ids outside the grid"):
            user(img, mask, graph, ids)


# every function that takes one vertex id u, called as (img, graph, u)
ONE_ID_USERS = {
    "NonlocalGraph.neighbors": lambda img, g, u: g.neighbors(u),
    "MvImage.pixel_of": lambda img, g, u: img.pixel_of(u),
    "inf_laplacian": lambda img, g, u: mv.inf_laplacian(g, img, u),
}


@pytest.mark.parametrize("name", list(ONE_ID_USERS))
def test_single_vertex_rule_everywhere(name):
    # vertex_ids, then exactly one id
    img, _, graph = _one_target_layer()
    user = ONE_ID_USERS[name]
    for u in (27, np.int64(27), [27], np.array([27], dtype=np.int32)):
        user(img, graph, u)
    for u, error in ((27.9, "u ids must have an integer dtype, got float64"),
                     ("27", "u ids must have an integer dtype, got "),
                     (True, "u ids must have an integer dtype, got bool"),
                     (-1, "u ids outside the grid"),
                     (64, "u ids outside the grid"),
                     ([27, 28], "u must be one vertex id, got 2"),
                     ([], "u must be one vertex id, got 0")):
        with pytest.raises(DimensionMismatch, match=f"^{re.escape(error)}"):
            user(img, graph, u)
