import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radrep.discretize import (MAX_GRAY_LEVELS, GeometryMismatch,
                               GrayLevelCountWarning, TooManyGrayLevels,
                               discretize_roi)

from conftest import crop_masks, make_mask, make_volume
from oracles import brute_levels


def disc_of(values, labels, width):
    return discretize_roi(make_volume(values), make_mask(labels), width)


def test_floor_rule_hand_case():
    values = np.array([0.0, 5.0, 10.0, 14.9])
    with pytest.warns(GrayLevelCountWarning):
        disc = disc_of(values, np.ones(4), 5.0)
    assert disc.levels.ravel().tolist() == [1, 2, 3, 3]
    assert disc.num_gray_levels == 3
    assert disc.roi_min == 0.0
    assert disc.roi_max == 14.9


def test_constant_roi_single_level():
    with pytest.warns(GrayLevelCountWarning):
        disc = disc_of(np.full(6, 3.25), np.ones(6), 10.0)
    assert disc.num_gray_levels == 1
    assert set(disc.levels.ravel().tolist()) == {1}


def test_paper_range_bin_count():
    # normalized range 0..600 at width 5 -> 121 levels, inside [8, 128]
    values = np.linspace(0.0, 600.0, 1000)
    disc = disc_of(values, np.ones(1000), 5.0)
    assert disc.num_gray_levels == 121
    assert 8 <= disc.num_gray_levels <= 128


def test_warning_outside_recommended_range():
    with pytest.warns(GrayLevelCountWarning):
        disc_of(np.linspace(0, 10, 50), np.ones(50), 5.0)  # Ng = 3
    with pytest.warns(GrayLevelCountWarning):
        disc_of(np.linspace(0, 1000, 50), np.ones(50), 5.0)  # Ng = 201
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        disc_of(np.linspace(0, 100, 50), np.ones(50), 5.0)  # Ng = 21, silent


def test_gray_level_count_above_the_cap_raises():
    values = np.linspace(0.0, 1023.0, 50)
    with pytest.warns(GrayLevelCountWarning):
        disc = disc_of(values, np.ones(50), 1.0)
    assert disc.num_gray_levels == MAX_GRAY_LEVELS
    with pytest.raises(TooManyGrayLevels, match=f"{MAX_GRAY_LEVELS + 1} gray"):
        disc_of(values, np.ones(50), 0.999)
    # a span of 1e10 at width 1e-300 overflows the float range
    with pytest.raises(TooManyGrayLevels, match="gives inf gray levels"):
        disc_of(np.array([0.0, 1e10]), np.ones(2), 1e-300)


def test_out_of_roi_levels_are_zero():
    # the grid covers the mask's bounding box [1, 4); the gap at 2 lies
    # inside it, the extremes at 0 and 4 outside it
    values = np.array([100.0, 1.0, -50.0, 2.0, 500.0])
    labels = np.array([0, 1, 0, 1, 0])
    disc = disc_of(values, labels, 1.0)
    assert disc.levels.shape == (3, 1, 1)
    assert disc.levels.ravel().tolist() == [1, 0, 2]
    assert disc.roi_min == 1.0 and disc.roi_max == 2.0
    assert disc.num_gray_levels == 2


@pytest.mark.parametrize("shape", [(7, 6, 1), (7, 6, 3), (6, 5, 4)])
def test_levels_equal_full_grid_reference_cropped_to_box(rng, shape):
    for _ in range(4):
        values = rng.normal(size=shape) * 30 + 100
        for labels in crop_masks(rng, shape):
            disc = disc_of(values, labels, 7.0)
            full = brute_levels(values, labels, 7.0)
            index = np.argwhere(labels)
            box = tuple(slice(lo, hi + 1)
                        for lo, hi in zip(index.min(axis=0), index.max(axis=0)))
            assert np.array_equal(disc.levels, full[box])
            assert disc.num_gray_levels == full.max()
            assert disc.num_roi_voxels == np.count_nonzero(labels)


def test_out_of_roi_tampering_changes_nothing(rng):
    values = rng.normal(size=(6, 5, 4)) * 30
    labels = (rng.random((6, 5, 4)) < 0.5).astype(np.uint8)
    labels[0, 0, 0] = 1
    labels[1, 1, 1] = 1
    base = disc_of(values, labels, 7.0)
    tampered = values.copy()
    tampered[labels == 0] = 1e9
    after = disc_of(tampered, labels, 7.0)
    assert np.array_equal(base.levels, after.levels)
    assert base.num_gray_levels == after.num_gray_levels
    assert base.roi_min == after.roi_min and base.roi_max == after.roi_max


def test_geometry_mismatch():
    with pytest.raises(GeometryMismatch):
        discretize_roi(make_volume(np.zeros((2, 2, 2))),
                       make_mask(np.ones((2, 2, 3))), 5.0)


@pytest.mark.parametrize("width", [0.0, -1.0, float("nan")])
def test_bin_width_must_be_positive(width):
    with pytest.raises(ValueError, match="bin_width must be > 0"):
        disc_of(np.arange(8.0).reshape(2, 2, 2), np.ones((2, 2, 2)), width)


def test_empty_mask_unreachable_via_constructor():
    # RoiMask refuses empty masks when it is built, by the same search
    # that finds its bounding_box, so the discretizer never sees one
    from radrep import volume_io
    with pytest.raises(volume_io.EmptyMask):
        make_mask(np.zeros((2, 2, 2)))


def test_max_maps_into_top_bin_exact_multiple():
    # range exactly divisible by the width: the maximum lands in the last
    # occupied bin without opening a new one beyond Ng
    values = np.array([0.0, 10.0])
    disc = disc_of(values, np.ones(2), 5.0)
    assert disc.num_gray_levels == 3
    assert disc.levels.ravel().tolist() == [1, 3]


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=-3, max_value=3))
def test_shift_covariance_integer_multiples(c):
    rng = np.random.default_rng(7)
    values = rng.normal(size=20) * 25
    labels = np.ones(20)
    width = 4.0
    base = disc_of(values, labels, width)
    shifted = disc_of(values + c * width, labels, width)
    assert np.array_equal(base.levels, shifted.levels)
    assert base.num_gray_levels == shifted.num_gray_levels


def test_monotonicity(rng):
    values = rng.normal(size=200) * 40
    disc = disc_of(values, np.ones(200), 6.0)
    order = np.argsort(values)
    levels = disc.levels.ravel()[order]
    assert np.all(np.diff(levels) >= 0)


def test_ng_formula_exact(rng):
    for _ in range(20):
        values = rng.normal(size=30) * rng.uniform(1, 100)
        width = rng.uniform(0.5, 20)
        disc = disc_of(values, np.ones(30), width)
        expected = int(np.floor((disc.roi_max - disc.roi_min) / width)) + 1
        assert disc.num_gray_levels == expected
        inside = disc.levels[disc.levels > 0]
        assert inside.min() >= 1 and inside.max() <= disc.num_gray_levels
