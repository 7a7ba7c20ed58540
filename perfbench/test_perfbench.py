"""Tests of the benchmark's own inputs, distance formulas and output checks."""

import dataclasses
import math

import numpy as np
import pytest

import checks
from workloads import (WORKLOADS, make_inputs, read_mvi, spd_field, sphere_field,
                       write_mvi, write_pbm)

import mvinpaint as mv


def small(name):
    """The workload's input family on a 24x24 grid, for fast tests."""
    w = WORKLOADS[name]
    return dataclasses.replace(w, size=24, hole=(8, 8, 6, 6) if w.hole else None)


def filled_result(w, inputs):
    """A valid output: the truth in the unknown sphere2 pixels; on spd, copies
    of known pixels, whose log det cannot leave the known range."""
    if w.manifold == "spd2":
        return checks.nearest_known_fill(inputs.image, inputs.unknown)
    out = inputs.image.copy()
    out[inputs.unknown] = inputs.truth[inputs.unknown]
    return out


def test_distance_formulas_closed_cases():
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([0.0, 1.0, 0.0])
    assert checks.sphere_dist(x, y) == pytest.approx(math.pi / 2, abs=1e-15)
    X = np.diag([math.e, 1.0]).reshape(4)
    eye = np.eye(2).reshape(4)
    assert checks.spd_dist(X, eye) == pytest.approx(1.0, abs=1e-14)
    assert checks.spd_dist(eye, X) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generated_inputs_pass_program_validation(name, tmp_path):
    w = WORKLOADS[name]
    inputs = make_inputs(w, seed=7)
    desc = mv.ManifoldDescriptor.sphere2() if w.manifold == "sphere2" else mv.ManifoldDescriptor.spd(2)
    mv.MvImage(desc, inputs.truth).validate()
    write_mvi(tmp_path / "in.mvi", w.manifold, inputs.image)
    write_pbm(tmp_path / "mask.pbm", inputs.unknown)
    img = mv.read_mvi(tmp_path / "in.mvi")      # validates every pixel
    mask = mv.read_mask(tmp_path / "mask.pbm")
    img.validate()
    assert img.descriptor == desc
    assert np.array_equal(img.data, inputs.image)
    assert np.array_equal(mask.known, ~inputs.unknown)
    assert np.array_equal(read_mvi(tmp_path / "in.mvi", w.manifold, w.size, w.size), inputs.image)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_follow_the_seed_and_hide_the_truth(name):
    w = WORKLOADS[name]
    a, b = make_inputs(w, 3), make_inputs(w, 3)
    assert np.array_equal(a.image, b.image) and np.array_equal(a.unknown, b.unknown)
    assert np.array_equal(a.unknown, make_inputs(w, 4).unknown)
    assert not np.array_equal(a.image, make_inputs(w, 4).image)
    fills = np.unique(a.image[a.unknown], axis=0)
    assert len(fills) == 1
    assert any(np.array_equal(fills[0], v) for v in a.truth[~a.unknown])
    if w.hole:
        assert a.unknown.sum() == w.hole[2] * w.hole[3]
    else:
        assert a.unknown.sum() == round(w.dropout * w.size * w.size)
        assert not (a.unknown & np.roll(a.unknown, 1, axis=0)).any()
        assert not (a.unknown & np.roll(a.unknown, 1, axis=1)).any()


def test_synthetic_fields_match_the_program_formulas():
    assert np.allclose(sphere_field(40, 40), mv.generate_sphere_image(40, 40).data, atol=1e-15)
    assert np.allclose(spd_field(40, 40), mv.generate_spd_image(40, 40).data, atol=1e-15)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checks_accept_a_valid_output(name):
    w = small(name)
    inputs = make_inputs(w, 1)
    result = filled_result(w, inputs)
    assert checks.check_output(w.manifold, result, inputs.image, inputs.unknown, inputs.truth) == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checks_reject_an_altered_known_pixel(name):
    w = small(name)
    inputs = make_inputs(w, 1)
    result = filled_result(w, inputs)
    i, j = np.argwhere(~inputs.unknown)[5]
    result[i, j] = np.nextafter(result[i, j], 2.0)
    failures = checks.check_output(w.manifold, result, inputs.image, inputs.unknown, inputs.truth)
    assert failures == ["known pixels differ from the input"]


def test_checks_reject_a_non_unit_sphere_vector():
    w = small("s2-hole64")
    inputs = make_inputs(w, 1)
    result = filled_result(w, inputs)
    i, j = np.argwhere(inputs.unknown)[0]
    result[i, j] *= 1.0 + 1e-8
    failures = checks.check_output(w.manifold, result, inputs.image, inputs.unknown, inputs.truth)
    assert failures == ["a sphere2 pixel is not a unit vector"]


def test_checks_reject_an_spd_pixel_outside_the_log_det_range():
    w = small("spd2-hole64")
    inputs = make_inputs(w, 1)
    result = filled_result(w, inputs)
    i, j = np.argwhere(inputs.unknown)[0]
    result[i, j] *= 3.0     # log det grows by 2 log 3, past the known maximum
    failures = checks.check_output(w.manifold, result, inputs.image, inputs.unknown, inputs.truth)
    assert len(failures) == 1 and "log det range" in failures[0]


def test_checks_reject_a_sphere_fill_no_better_than_nearest_known():
    w = small("s2-hole64")
    inputs = make_inputs(w, 1)
    result = checks.nearest_known_fill(inputs.image, inputs.unknown)
    failures = checks.check_output(w.manifold, result, inputs.image, inputs.unknown, inputs.truth)
    assert len(failures) == 1 and "nearest-known fill" in failures[0]


@pytest.mark.parametrize("name", ["s2-hole64", "s2-dropout256"])
def test_nearest_known_fill_matches_the_program_baseline(name):
    w = small(name)
    inputs = make_inputs(w, 2)
    desc = mv.ManifoldDescriptor.sphere2()
    ref = mv.nearest_known_fill(mv.MvImage(desc, inputs.image), mv.Mask(~inputs.unknown))
    assert np.array_equal(checks.nearest_known_fill(inputs.image, inputs.unknown), ref.data)
