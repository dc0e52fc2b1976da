import math

import numpy as np
import pytest

from radrep.discretize import DiscretizationSpec, discretize_roi
from radrep.features import (EXCLUDED_FEATURES, FEATURE_ROSTER, FeatureMap,
                             _max_pairwise_distance, firstorder_features, glcm_features,
                             glrlm_features, glszm_features, shape_features)
from radrep.pipeline import RunSettings, _general_info
from radrep.preprocess import (FilterKind, FilterSpec, NormalizationSpec,
                               apply_filter, normalize)
from radrep.texture_matrices import (build_glcm, build_glrlm, build_glszm)
from radrep.volume_io import Structure

from conftest import (crop_masks, make_disc, make_mask, make_volume,
                      random_levels)
from oracles import (brute_levels, full_grid_firstorder, full_grid_shape,
                     glcm_feature_oracle, glrlm_feature_oracle,
                     glszm_feature_oracle)


# ---------------------------------------------------------------------------
# first order
# ---------------------------------------------------------------------------

def fo(values, width=1.0, labels=None, spacing=(1, 1, 1)):
    values = np.asarray(values, dtype=float)
    labels = np.ones_like(values) if labels is None else labels
    return firstorder_features(make_volume(values, spacing=spacing),
                               make_mask(labels, spacing=spacing),
                               DiscretizationSpec(width))


def test_firstorder_hand_case():
    fmap = fo([1, 2, 3, 4, 5])
    assert fmap.get("firstorder", "Mean") == 3
    assert fmap.get("firstorder", "Median") == 3
    assert fmap.get("firstorder", "Variance") == 2
    assert fmap.get("firstorder", "Energy") == 55
    assert fmap.get("firstorder", "Range") == 4
    assert fmap.get("firstorder", "Minimum") == 1
    assert fmap.get("firstorder", "Maximum") == 5
    assert fmap.get("firstorder", "StandardDeviation") == pytest.approx(
        math.sqrt(2))
    assert fmap.get("firstorder", "RootMeanSquared") == pytest.approx(
        math.sqrt(11))
    assert fmap.get("firstorder", "MeanAbsoluteDeviation") == pytest.approx(1.2)


def test_firstorder_constant_roi():
    fmap = fo(np.full(10, 4.2), width=1.0)
    assert fmap.get("firstorder", "Entropy") == 0.0
    assert fmap.get("firstorder", "Uniformity") == 1.0
    assert fmap.get("firstorder", "Variance") == 0.0
    assert fmap.get("firstorder", "Skewness") is None
    assert fmap.get("firstorder", "Kurtosis") is None


def test_firstorder_nearest_rank_percentiles():
    values = [0.0] * 9 + [100.0]
    fmap = fo(values, width=10.0)
    assert fmap.get("firstorder", "10Percentile") == 0.0
    assert fmap.get("firstorder", "90Percentile") == 0.0
    assert fmap.get("firstorder", "Maximum") == 100.0


def test_firstorder_median_lower_interpolation():
    assert fo([1, 2, 3, 4]).get("firstorder", "Median") == 2.0
    assert fo([1, 2, 3]).get("firstorder", "Median") == 2.0


def test_firstorder_entropy_log2_two_bins():
    fmap = fo([0.0] * 5 + [10.0] * 5, width=10.0)
    assert fmap.get("firstorder", "Entropy") == pytest.approx(1.0)
    assert fmap.get("firstorder", "Uniformity") == pytest.approx(0.5)


def test_firstorder_kurtosis_non_excess(rng):
    values = rng.standard_normal(200_000)
    fmap = fo(values, width=0.5)
    assert fmap.get("firstorder", "Kurtosis") == pytest.approx(3.0, abs=0.1)
    assert fmap.get("firstorder", "Skewness") == pytest.approx(0.0, abs=0.05)


def test_firstorder_affine_commutation(rng):
    values = rng.normal(size=60) * 7 + 3
    a, b = 2.5, -11.0
    base = fo(values, width=1.0)
    mapped = fo(a * values + b, width=1.0)
    for name in ("Mean", "Median", "10Percentile", "90Percentile",
                 "Minimum", "Maximum"):
        assert mapped.get("firstorder", name) == pytest.approx(
            a * base.get("firstorder", name) + b, abs=1e-9)


def test_skewness_kurtosis_invariant_under_normalization(rng):
    values = rng.normal(size=(6, 5, 4)) * 55 + 900
    vol = make_volume(values)
    mask = make_mask(np.ones_like(values))
    spec = DiscretizationSpec(5.0)
    base = firstorder_features(vol, mask, spec)
    whole = firstorder_features(
        normalize(vol, NormalizationSpec.whole_image()), mask, spec)
    ref_labels = np.zeros_like(values, dtype=np.uint8)
    ref_labels[:2, :2, :2] = 1
    ref = make_mask(ref_labels, structure=Structure.MUSCLE_REFERENCE)
    refnorm = firstorder_features(
        normalize(vol, NormalizationSpec.reference_region(ref)), mask, spec)
    for variant in (whole, refnorm):
        assert variant.get("firstorder", "Skewness") == pytest.approx(
            base.get("firstorder", "Skewness"), abs=1e-9)
        assert variant.get("firstorder", "Kurtosis") == pytest.approx(
            base.get("firstorder", "Kurtosis"), abs=1e-9)


# ---------------------------------------------------------------------------
# shape
# ---------------------------------------------------------------------------

def test_shape_single_voxel():
    labels = np.zeros((3, 3, 3))
    labels[1, 1, 1] = 1
    fmap = shape_features(make_mask(labels))
    assert fmap.get("shape", "Volume") == 1.0
    assert fmap.get("shape", "SurfaceArea") == 6.0
    assert fmap.get("shape", "SurfaceVolumeRatio") == 6.0
    assert fmap.get("shape", "Maximum3DDiameter") == 0.0
    assert fmap.get("shape", "MajorAxisLength") == 0.0
    assert fmap.get("shape", "Elongation") is None


def test_max_pairwise_distance_equals_pdist(rng):
    from scipy.spatial.distance import pdist
    spacing = np.array([0.6, 0.7, 3.0])
    assert _max_pairwise_distance(np.zeros((0, 3))) == 0.0
    assert _max_pairwise_distance(np.array([[1.0, 2.0, 3.0]])) == 0.0
    two = np.array([[0.0, 0.7, 3.0], [1.8, 0.0, 9.0]])
    assert _max_pairwise_distance(two) == pdist(two)[0]
    for n in (2, 3, 5, 40, 257, 600, 1200):
        # lattice points (many tied distances) and points in general position
        for points in (rng.integers(0, 12, size=(n, 3)) * spacing,
                       rng.normal(size=(n, 3)) * spacing * 7.3):
            for columns in ((0, 1, 2), (0, 1), (1, 2), (0, 2)):
                projected = points[:, columns]
                assert _max_pairwise_distance(projected) == \
                    pdist(projected).max()
    # in 3D the order of the per-coordinate sums shows in about one set
    # in eight
    for _ in range(300):
        points = rng.normal(size=(int(rng.integers(2, 30)), 3)) * spacing * 7.3
        assert _max_pairwise_distance(points) == pdist(points).max()


def test_max_pairwise_distance_of_large_sets_equals_pdist(rng):
    # past 1200 points only the convex hull's vertices are compared
    from scipy.spatial.distance import pdist
    points = rng.normal(size=(1500, 3)) * np.array([0.6, 0.7, 3.0])
    for columns in ((0, 1, 2), (0, 1)):
        projected = points[:, columns]
        assert _max_pairwise_distance(projected) == pdist(projected).max()
    line = np.outer(np.arange(1300.0), [0.6, 0.0, 0.0])
    assert _max_pairwise_distance(line) == pytest.approx(1299 * 0.6)


def test_shape_cube():
    labels = np.zeros((12, 12, 12))
    labels[1:11, 1:11, 1:11] = 1
    fmap = shape_features(make_mask(labels))
    assert fmap.get("shape", "Volume") == 1000.0
    assert fmap.get("shape", "SurfaceArea") == 600.0
    assert fmap.get("shape", "Sphericity") == pytest.approx(
        (36 * math.pi * 1e6) ** (1 / 3) / 600, rel=1e-12)
    assert fmap.get("shape", "Sphericity") == pytest.approx(0.806, abs=0.001)
    # cube corner-to-corner within the surface voxel centers: 9*sqrt(3)
    assert fmap.get("shape", "Maximum3DDiameter") == pytest.approx(
        9 * math.sqrt(3))
    assert fmap.get("shape", "Maximum2DDiameterSlice") == pytest.approx(
        9 * math.sqrt(2))


def test_shape_spacing_scaling():
    labels = np.zeros((4, 4, 4))
    labels[1:3, 1:3, 1:3] = 1
    fmap = shape_features(make_mask(labels, spacing=(2.0, 1.0, 0.5)))
    assert fmap.get("shape", "Volume") == 8 * 1.0
    # 2x2x2 voxel block: per axis 2 exposed faces x 4 voxel cross-section
    expected_area = 2 * 4 * (1.0 * 0.5) + 2 * 4 * (2.0 * 0.5) + 2 * 4 * (2.0 * 1.0)
    assert fmap.get("shape", "SurfaceArea") == pytest.approx(expected_area)


def test_shape_elongation_of_anisotropic_box():
    labels = np.zeros((20, 6, 4))
    labels[2:18, 2:4, 1:3] = 1
    fmap = shape_features(make_mask(labels))
    major = fmap.get("shape", "MajorAxisLength")
    minor = fmap.get("shape", "MinorAxisLength")
    assert major > minor > 0
    assert fmap.get("shape", "Elongation") == pytest.approx(
        minor / major, rel=1e-12)


def test_shape_independent_of_intensities(rng):
    labels = (rng.random((5, 5, 3)) < 0.4).astype(np.uint8)
    labels[2, 2, 1] = 1
    mask = make_mask(labels)
    a = shape_features(mask)
    b = shape_features(mask)
    assert a.entries == b.entries


def test_shape_bit_identical_across_filters(rng):
    # shape depends on the mask only; any filtered companion volume is
    # irrelevant by construction of the API (mask-only input)
    labels = (rng.random((6, 6, 4)) < 0.35).astype(np.uint8)
    labels[3, 3, 2] = 1
    mask = make_mask(labels)
    reference = shape_features(mask).entries
    vol = make_volume(rng.standard_normal((6, 6, 4)) + 10)
    for spec in (FilterSpec(FilterKind.ORIGINAL),
                 FilterSpec(FilterKind.LOG, sigma_mm=1.0),
                 FilterSpec(FilterKind.WAVELET, subband="HLH"),
                 FilterSpec(FilterKind.SQUARE)):
        apply_filter(vol, spec)  # must not interact with shape in any way
        assert shape_features(mask).entries == reference


# ---------------------------------------------------------------------------
# mask-only steps on the crop
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", [(6, 5, 4), (7, 6, 1)], ids=["3D", "2D"])
def test_mask_only_steps_on_the_crop_equal_the_full_grid(rng, shape):
    # each mask alone, then embedded in a larger grid at its origin, one
    # voxel in and against the far corner; a 2D grid keeps its one slice
    from scipy import ndimage
    spacing = (0.6, 0.7, 3.0)
    pad = (3, 2, 2 if shape[2] > 1 else 0)
    grid = tuple(n + p for n, p in zip(shape, pad))
    placements = [(shape, (0, 0, 0)), (grid, (0, 0, 0)),
                  (grid, tuple(min(1, p) for p in pad)), (grid, pad)]
    settings = RunSettings(("none",), (10.0,), "3D",
                           (FilterSpec(FilterKind.ORIGINAL),))
    for small in crop_masks(rng, shape):
        for dims, offset in placements:
            labels = np.zeros(dims, dtype=np.uint8)
            labels[tuple(slice(o, o + n) for o, n in zip(offset, shape))] = small
            values = rng.normal(100.0, 30.0, size=dims)
            mask = make_mask(labels, spacing=spacing)
            volume = make_volume(values, spacing=spacing)
            index = np.nonzero(labels)
            box = tuple(slice(int(i.min()), int(i.max()) + 1) for i in index)
            assert mask.bounding_box == box
            assert np.array_equal(mask.inside, labels[box] > 0)
            assert not mask.inside.flags.writeable
            assert shape_features(mask).entries == full_grid_shape(labels, spacing)
            for width in (0.3, 25.0):
                spec = DiscretizationSpec(width)
                assert (firstorder_features(volume, mask, spec).entries
                        == full_grid_firstorder(values, labels, width))
                disc = discretize_roi(volume, mask, spec)
                full = brute_levels(values, labels, width)
                assert np.array_equal(disc.levels, full[box])
                assert disc.num_gray_levels == full.max()
            info = _general_info(volume, "", mask, settings)
            assert info["general_info_BoundingBox"] == " ".join(
                str(v) for v in (*(i.min() for i in index),
                                 *(i.max() for i in index)))
            assert info["general_info_VolumeNum"] == ndimage.label(
                labels, structure=np.ones((3, 3, 3), dtype=bool))[1]
            assert info["general_info_VoxelNum"] == np.count_nonzero(labels)


# ---------------------------------------------------------------------------
# GLCM features
# ---------------------------------------------------------------------------

def test_glcm_features_hand_matrix():
    disc = make_disc([[1, 1, 2], [2, 2, 3]])
    glcm = build_glcm(disc, "2D", offsets=[(0, 1, 0)])
    fmap = glcm_features(glcm)
    assert fmap.get("glcm", "Contrast") == pytest.approx(0.5)
    assert fmap.get("glcm", "JointEnergy") == pytest.approx(0.1875)


def test_glcm_features_degenerate_single_level():
    disc = make_disc(np.ones((2, 2, 1), dtype=np.int32))
    fmap = glcm_features(build_glcm(disc, "2D"))
    assert fmap.get("glcm", "Contrast") == 0.0
    assert fmap.get("glcm", "JointEnergy") == 1.0
    assert fmap.get("glcm", "JointEntropy") == 0.0
    assert fmap.get("glcm", "Idm") == 1.0
    assert fmap.get("glcm", "Correlation") is None
    assert fmap.get("glcm", "InverseVariance") == 0.0


def test_glcm_entropy_energy_bounds(rng):
    for _ in range(10):
        levels = random_levels(rng, (5, 5, 2), ng=4)
        glcm = build_glcm(make_disc(levels), "3D")
        fmap = glcm_features(glcm)
        ng = glcm.ng
        assert fmap.get("glcm", "JointEntropy") <= math.log2(ng * ng) + 1e-12
        assert 1.0 / ng ** 2 - 1e-12 <= fmap.get("glcm", "JointEnergy") <= 1.0


def test_glcm_features_match_oracle(rng):
    for _ in range(20):
        levels = random_levels(rng, (5, 4, 3), ng=4)
        glcm = build_glcm(make_disc(levels), "3D")
        fmap = glcm_features(glcm)
        oracle = glcm_feature_oracle(glcm.probs)
        for name, expected in oracle.items():
            got = fmap.get("glcm", name)
            if expected is None:
                assert got is None
            else:
                assert got == pytest.approx(expected, abs=1e-12), name


# ---------------------------------------------------------------------------
# GLRLM features
# ---------------------------------------------------------------------------

def test_glrlm_all_runs_length_one():
    levels = np.array([[1, 2, 1, 2]], dtype=np.int32)
    glrlm = build_glrlm(make_disc(levels), "2D", directions=[(0, 1, 0)])
    fmap = glrlm_features(glrlm)
    assert fmap.get("glrlm", "ShortRunEmphasis") == 1.0
    assert fmap.get("glrlm", "LongRunEmphasis") == 1.0


def test_glrlm_single_run_hand_case():
    levels = np.array([[2, 2, 2, 2]], dtype=np.int32)
    glrlm = build_glrlm(make_disc(levels), "2D", directions=[(0, 1, 0)])
    fmap = glrlm_features(glrlm)
    assert fmap.get("glrlm", "ShortRunEmphasis") == pytest.approx(1 / 16)
    assert fmap.get("glrlm", "LongRunEmphasis") == pytest.approx(16)
    assert fmap.get("glrlm", "HighGrayLevelRunEmphasis") == pytest.approx(4)


def test_glrlm_features_match_oracle(rng):
    for _ in range(20):
        levels = random_levels(rng, (6, 6, 1), ng=3)
        glrlm = build_glrlm(make_disc(levels), "2D")
        fmap = glrlm_features(glrlm)
        oracle = glrlm_feature_oracle(np.asarray(glrlm.counts),
                                      glrlm.num_roi_voxels,
                                      glrlm.num_directions)
        for name, expected in oracle.items():
            assert fmap.get("glrlm", name) == pytest.approx(
                expected, abs=1e-12), name


# ---------------------------------------------------------------------------
# GLSZM features
# ---------------------------------------------------------------------------

def test_glszm_single_zone():
    levels = np.ones((2, 2, 2), dtype=np.int32)
    glszm = build_glszm(make_disc(levels), "3D")
    fmap = glszm_features(glszm)
    n = 8
    assert fmap.get("glszm", "SmallAreaEmphasis") == pytest.approx(1 / n ** 2)
    assert fmap.get("glszm", "ZonePercentage") == pytest.approx(1 / n)


def test_glszm_checkerboard_hand_case():
    board = (np.indices((4, 4)).sum(axis=0) % 2 + 1).astype(np.int32)
    glszm = build_glszm(make_disc(board), "2D")
    fmap = glszm_features(glszm)
    assert fmap.get("glszm", "SmallAreaEmphasis") == pytest.approx(1 / 64)
    assert fmap.get("glszm", "ZonePercentage") == pytest.approx(2 / 16)


def test_glszm_features_match_oracle(rng):
    for _ in range(20):
        levels = random_levels(rng, (5, 5, 2), ng=3)
        glszm = build_glszm(make_disc(levels), "3D")
        fmap = glszm_features(glszm)
        oracle = glszm_feature_oracle(np.asarray(glszm.counts),
                                      glszm.num_roi_voxels)
        for name, expected in oracle.items():
            assert fmap.get("glszm", name) == pytest.approx(
                expected, abs=1e-12), name


# ---------------------------------------------------------------------------
# roster and exclusions
# ---------------------------------------------------------------------------

def test_exclusions_never_emitted(rng):
    levels = random_levels(rng, (5, 5, 2), ng=3)
    disc = make_disc(levels)
    labels = (levels > 0).astype(np.uint8)
    vol = make_volume(rng.standard_normal((5, 5, 2)))
    maps = [
        firstorder_features(vol, make_mask(labels), DiscretizationSpec(0.5)),
        shape_features(make_mask(labels)),
        glcm_features(build_glcm(disc, "3D")),
        glrlm_features(build_glrlm(disc, "3D")),
        glszm_features(build_glszm(disc, "3D")),
    ]
    for fmap in maps:
        assert not fmap.names() & EXCLUDED_FEATURES


def test_full_roster_emitted(rng):
    levels = random_levels(rng, (5, 5, 2), ng=3)
    disc = make_disc(levels)
    labels = (levels > 0).astype(np.uint8)
    vol = make_volume(rng.standard_normal((5, 5, 2)))
    emitted = {
        "firstorder": firstorder_features(vol, make_mask(labels),
                                          DiscretizationSpec(0.5)),
        "shape": shape_features(make_mask(labels)),
        "glcm": glcm_features(build_glcm(disc, "3D")),
        "glrlm": glrlm_features(build_glrlm(disc, "3D")),
        "glszm": glszm_features(build_glszm(disc, "3D")),
    }
    for cls, fmap in emitted.items():
        assert fmap.names() == {(cls, name) for name in FEATURE_ROSTER[cls]}


def test_feature_map_rejects_excluded_and_nan():
    with pytest.raises(ValueError):
        FeatureMap({("glcm", "SumAverage"): 1.0})
    with pytest.raises(ValueError):
        FeatureMap({("glcm", "Contrast"): float("nan")})
    with pytest.raises(ValueError):
        FeatureMap({("glcm", "NotAFeature"): 1.0})
