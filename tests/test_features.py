import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from radrep.discretize import discretize_roi
from radrep.features import (EXCLUDED_FEATURES, FEATURE_ROSTER, FeatureMap,
                             _max_pairwise_distance, _surface_face_counts,
                             firstorder_features, glcm_features,
                             glrlm_features, glszm_features, shape_features)
from radrep.pipeline import RunSettings, _general_info
from radrep.preprocess import (FilterKind, FilterSpec, NormalizationMode,
                               apply_filter, normalize)
from radrep.texture_matrices import (OFFSETS, OFFSETS_2D, OFFSETS_3D,
                                     GlcMatrix, NeighbourGraph, build_glcm,
                                     build_glrlm, build_glszm)
from radrep.volume_io import Structure

from conftest import (crop_masks, graph_of, make_disc, make_mask,
                      make_volume, random_levels, whole_box)
from oracles import (brute_levels, dense_counts, full_grid_firstorder,
                     full_grid_shape, glcm_feature_oracle,
                     glrlm_feature_oracle, glszm_feature_oracle)


# ---------------------------------------------------------------------------
# first order
# ---------------------------------------------------------------------------

def fo(values, width=1.0, labels=None, spacing=(1, 1, 1)):
    values = np.asarray(values, dtype=float)
    labels = np.ones_like(values) if labels is None else labels
    return firstorder_features(make_volume(values, spacing=spacing),
                               make_mask(labels, spacing=spacing), width)


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


def test_firstorder_moments_whose_denominator_underflows_are_none():
    # m2 ~ 1e-200 > 0, but m2 ** 2 underflows to 0.0 (and m2 ** 1.5 does
    # not): Kurtosis is None as for a constant ROI, the rest still compute
    values = np.arange(27) * 1e-100
    fmap = fo(values, width=1e-99)
    m2 = fmap.get("firstorder", "Variance")
    assert m2 > 0 and m2 ** 2 == 0.0 < m2 ** 1.5
    assert fmap.get("firstorder", "Kurtosis") is None
    assert fmap.get("firstorder", "Skewness") == pytest.approx(0.0, abs=1e-12)
    assert fmap.get("firstorder", "Mean") == pytest.approx(13e-100)
    # at ~1e-150, m2 ** 1.5 underflows too
    fmap = fo(values * 1e-50, width=1e-149)
    assert fmap.get("firstorder", "Skewness") is None
    assert fmap.get("firstorder", "Kurtosis") is None
    assert fmap.get("firstorder", "Variance") > 0


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
    base = firstorder_features(vol, mask, 5.0)
    whole = firstorder_features(
        normalize(vol, NormalizationMode.WHOLE_IMAGE), mask, 5.0)
    ref_labels = np.zeros_like(values, dtype=np.uint8)
    ref_labels[:2, :2, :2] = 1
    ref = make_mask(ref_labels, structure=Structure.MUSCLE_REFERENCE)
    refnorm = firstorder_features(
        normalize(vol, NormalizationMode.REFERENCE_REGION, ref), mask, 5.0)
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
        # lattice points (many tied distances), collinear and coplanar
        # lattice points, and points in general position
        lattice = rng.integers(0, 12, size=(n, 3)) * spacing
        for points in (lattice, lattice * [1, 0, 0], lattice * [1, 1, 0],
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
    # many blocks of rows: the maximum is taken across block boundaries
    from scipy.spatial.distance import pdist
    points = rng.normal(size=(1500, 3)) * np.array([0.6, 0.7, 3.0])
    for columns in ((0, 1, 2), (0, 1)):
        projected = points[:, columns]
        assert _max_pairwise_distance(projected) == pdist(projected).max()
    line = np.outer(np.arange(1300.0), [0.6, 0.0, 0.0])
    assert _max_pairwise_distance(line) == 1299 * 0.6


@st.composite
def lattice_masks(draw):
    """A nonempty mask, zero-padded by 0-2 voxels per side, and a spacing."""
    shape = draw(st.tuples(*[st.integers(1, 7)] * 3))
    inside = draw(hnp.arrays(bool, shape))
    inside.flat[draw(st.integers(0, inside.size - 1))] = True
    pad = draw(st.tuples(*[st.tuples(st.integers(0, 2), st.integers(0, 2))] * 3))
    spacing = draw(st.tuples(*[st.floats(0.1, 5.0)] * 3))
    return np.pad(inside, pad), spacing


@settings(max_examples=300, deadline=None)
@given(lattice_masks())
def test_shape_diameters_equal_pdist_over_every_surface_voxel(case):
    # lines, planes, single voxels and pairs, tied distances, masks that
    # touch every face of the grid, anisotropic spacing
    from scipy.spatial.distance import pdist
    labels, spacing = case
    padded = np.pad(labels, 1)
    interior = labels.copy()
    for axis in range(3):
        for step in (-1, 1):
            interior &= np.roll(padded, step, axis)[1:-1, 1:-1, 1:-1]
    centers = np.argwhere(labels & ~interior) * np.asarray(spacing)
    fmap = shape_features(make_mask(labels, spacing=spacing))
    for name, columns in (("Maximum3DDiameter", [0, 1, 2]),
                          ("Maximum2DDiameterSlice", [0, 1]),
                          ("Maximum2DDiameterColumn", [1, 2]),
                          ("Maximum2DDiameterRow", [0, 2])):
        expected = pdist(centers[:, columns]).max() if len(centers) > 1 else 0.0
        assert fmap.get("shape", name) == expected


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
        apply_filter(vol, spec, whole_box(vol))  # must not interact with shape in any way
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
                assert (firstorder_features(volume, mask, width).entries
                        == full_grid_firstorder(values, labels, width))
                disc = discretize_roi(volume, mask, width)
                full = brute_levels(values, labels, width)
                assert np.array_equal(disc.levels, full[box])
                assert disc.num_gray_levels == full.max()
            info = _general_info(volume, "", mask,
                                 NeighbourGraph(mask.inside, OFFSETS_3D),
                                 settings)
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
    glcm = build_glcm(disc, graph_of(disc, [(0, 1, 0)]))
    fmap = glcm_features(glcm)
    assert fmap.get("glcm", "Contrast") == pytest.approx(0.5)
    assert fmap.get("glcm", "JointEnergy") == pytest.approx(0.1875)


def test_glcm_features_degenerate_single_level():
    disc = make_disc(np.ones((2, 2, 1), dtype=np.int32))
    fmap = glcm_features(build_glcm(disc, graph_of(disc, OFFSETS_2D)))
    assert fmap.get("glcm", "Contrast") == 0.0
    assert fmap.get("glcm", "JointEnergy") == 1.0
    assert fmap.get("glcm", "JointEntropy") == 0.0
    assert fmap.get("glcm", "Idm") == 1.0
    assert fmap.get("glcm", "Correlation") is None
    assert fmap.get("glcm", "InverseVariance") == 0.0


def test_glcm_entropy_energy_bounds(rng):
    for _ in range(10):
        levels = random_levels(rng, (5, 5, 2), ng=4)
        disc = make_disc(levels)
        glcm = build_glcm(disc, graph_of(disc, OFFSETS_3D))
        fmap = glcm_features(glcm)
        ng = glcm.probs.shape[0]
        assert fmap.get("glcm", "JointEntropy") <= math.log2(ng * ng) + 1e-12
        assert 1.0 / ng ** 2 - 1e-12 <= fmap.get("glcm", "JointEnergy") <= 1.0


def test_glcm_features_match_oracle(rng):
    for _ in range(20):
        levels = random_levels(rng, (5, 4, 3), ng=4)
        disc = make_disc(levels)
        glcm = build_glcm(disc, graph_of(disc, OFFSETS_3D))
        fmap = glcm_features(glcm)
        oracle = glcm_feature_oracle(glcm.probs)
        for name, expected in oracle.items():
            got = fmap.get("glcm", name)
            if expected is None:
                assert got is None
            else:
                assert got == pytest.approx(expected, abs=1e-12), name


def test_third_and_fourth_powers_are_products():
    # a long low tail: the large deviations from the mean are negative,
    # where x ** 3 and x ** 4 (libm pow) round unlike the products; on
    # this draw pow moves all four values
    values = 100.0 - np.random.default_rng(64).exponential(30.0, (6, 6, 4))
    volume, mask = make_volume(values), make_mask(np.ones(values.shape))
    first = firstorder_features(volume, mask, 10.0)
    mean = first.get("firstorder", "Mean")
    m2 = first.get("firstorder", "Variance")
    dev = [v - mean for v in values.ravel().tolist()]
    assert first.get("firstorder", "Skewness") == float(
        np.mean([d * d * d for d in dev])) / m2 ** 1.5
    assert first.get("firstorder", "Kurtosis") == float(
        np.mean([(d * d) * (d * d) for d in dev])) / m2 ** 2

    disc = discretize_roi(volume, mask, 10.0)
    glcm = build_glcm(disc, graph_of(disc, OFFSETS_3D))
    texture = glcm_features(glcm)
    mu = texture.get("glcm", "JointAverage")
    probs = glcm.probs.tolist()
    c = [[i + j - 2 * mu for j in range(1, len(probs) + 1)]
         for i in range(1, len(probs) + 1)]
    assert sum(x < 0 for row in c for x in row) > len(probs) ** 2 / 2
    assert texture.get("glcm", "ClusterShade") == float(np.sum(
        [[x * x * x * p for x, p in zip(*rows)] for rows in zip(c, probs)]))
    assert texture.get("glcm", "ClusterProminence") == float(np.sum(
        [[(x * x) * (x * x) * p for x, p in zip(*rows)]
         for rows in zip(c, probs)]))


# ---------------------------------------------------------------------------
# GLRLM features
# ---------------------------------------------------------------------------

def test_glrlm_all_runs_length_one():
    levels = np.array([[1, 2, 1, 2]], dtype=np.int32)
    disc = make_disc(levels)
    glrlm = build_glrlm(disc, graph_of(disc, [(0, 1, 0)]))
    fmap = glrlm_features(glrlm)
    assert fmap.get("glrlm", "ShortRunEmphasis") == 1.0
    assert fmap.get("glrlm", "LongRunEmphasis") == 1.0


def test_glrlm_single_run_hand_case():
    levels = np.array([[2, 2, 2, 2]], dtype=np.int32)
    disc = make_disc(levels)
    glrlm = build_glrlm(disc, graph_of(disc, [(0, 1, 0)]))
    fmap = glrlm_features(glrlm)
    assert fmap.get("glrlm", "ShortRunEmphasis") == pytest.approx(1 / 16)
    assert fmap.get("glrlm", "LongRunEmphasis") == pytest.approx(16)
    assert fmap.get("glrlm", "HighGrayLevelRunEmphasis") == pytest.approx(4)


def test_glrlm_features_match_oracle(rng):
    for _ in range(20):
        levels = random_levels(rng, (6, 6, 1), ng=3)
        disc = make_disc(levels)
        glrlm = build_glrlm(disc, graph_of(disc, OFFSETS_2D))
        fmap = glrlm_features(glrlm)
        oracle = glrlm_feature_oracle(dense_counts(glrlm),
                                      np.count_nonzero(levels),
                                      len(OFFSETS_2D))
        for name, expected in oracle.items():
            assert fmap.get("glrlm", name) == pytest.approx(
                expected, abs=1e-12), name


# ---------------------------------------------------------------------------
# GLSZM features
# ---------------------------------------------------------------------------

def test_glszm_single_zone():
    levels = np.ones((2, 2, 2), dtype=np.int32)
    disc = make_disc(levels)
    glszm = build_glszm(disc, graph_of(disc, OFFSETS_3D))
    fmap = glszm_features(glszm)
    n = 8
    assert fmap.get("glszm", "SmallAreaEmphasis") == pytest.approx(1 / n ** 2)
    assert fmap.get("glszm", "ZonePercentage") == pytest.approx(1 / n)


def test_glszm_checkerboard_hand_case():
    board = (np.indices((4, 4)).sum(axis=0) % 2 + 1).astype(np.int32)
    disc = make_disc(board)
    glszm = build_glszm(disc, graph_of(disc, OFFSETS_2D))
    fmap = glszm_features(glszm)
    assert fmap.get("glszm", "SmallAreaEmphasis") == pytest.approx(1 / 64)
    assert fmap.get("glszm", "ZonePercentage") == pytest.approx(2 / 16)


def test_glszm_features_match_oracle(rng):
    for _ in range(20):
        levels = random_levels(rng, (5, 5, 2), ng=3)
        disc = make_disc(levels)
        glszm = build_glszm(disc, graph_of(disc, OFFSETS_3D))
        fmap = glszm_features(glszm)
        oracle = glszm_feature_oracle(dense_counts(glszm),
                                      np.count_nonzero(levels))
        for name, expected in oracle.items():
            assert fmap.get("glszm", name) == pytest.approx(
                expected, abs=1e-12), name


def test_one_gray_level_gives_exactly_zero_gray_level_variance(rng):
    # the level mean is then that level exactly, so every term is 0,
    # whatever the run and zone sizes
    for _ in range(100):
        shape = tuple(int(n) for n in rng.integers(1, 9, size=3))
        levels = (rng.random(shape) < 0.7) * int(rng.integers(1, 6))
        levels.flat[int(rng.integers(levels.size))] = levels.max() or 1
        disc = make_disc(levels)
        for dim in ("2D", "3D"):
            graph = graph_of(disc, OFFSETS[dim])
            assert glrlm_features(build_glrlm(disc, graph)).get(
                "glrlm", "GrayLevelVariance") == 0.0
            assert glszm_features(build_glszm(disc, graph)).get(
                "glszm", "GrayLevelVariance") == 0.0


def test_one_item_size_gives_exactly_zero_size_variance(rng):
    # ROI voxels two apart on every axis: every run and zone is one voxel
    for shape in ((9, 7, 5), (11, 11, 1), (5, 13, 3)):
        levels = np.zeros(shape, dtype=np.int32)
        isolated = levels[::2, ::2, ::2]
        isolated[...] = rng.integers(1, 6, size=isolated.shape)
        disc = make_disc(levels)
        for dim in ("2D", "3D"):
            graph = graph_of(disc, OFFSETS[dim])
            glrlm, glszm = build_glrlm(disc, graph), build_glszm(disc, graph)
            assert glrlm.sizes.tolist() == glszm.sizes.tolist() == [1]
            assert glrlm_features(glrlm).get("glrlm", "RunVariance") == 0.0
            assert glszm_features(glszm).get("glszm", "ZoneVariance") == 0.0


# ---------------------------------------------------------------------------
# roster and exclusions
# ---------------------------------------------------------------------------

def test_exclusions_never_emitted(rng):
    levels = random_levels(rng, (5, 5, 2), ng=3)
    disc = make_disc(levels)
    labels = (levels > 0).astype(np.uint8)
    vol = make_volume(rng.standard_normal((5, 5, 2)))
    graph = graph_of(disc, OFFSETS_3D)
    maps = [
        firstorder_features(vol, make_mask(labels), 0.5),
        shape_features(make_mask(labels)),
        glcm_features(build_glcm(disc, graph)),
        glrlm_features(build_glrlm(disc, graph)),
        glszm_features(build_glszm(disc, graph)),
    ]
    for fmap in maps:
        assert not fmap.names() & EXCLUDED_FEATURES


def test_full_roster_emitted(rng):
    levels = random_levels(rng, (5, 5, 2), ng=3)
    disc = make_disc(levels)
    labels = (levels > 0).astype(np.uint8)
    vol = make_volume(rng.standard_normal((5, 5, 2)))
    graph = graph_of(disc, OFFSETS_3D)
    emitted = {
        "firstorder": firstorder_features(vol, make_mask(labels), 0.5),
        "shape": shape_features(make_mask(labels)),
        "glcm": glcm_features(build_glcm(disc, graph)),
        "glrlm": glrlm_features(build_glrlm(disc, graph)),
        "glszm": glszm_features(build_glszm(disc, graph)),
    }
    for cls, fmap in emitted.items():
        assert fmap.names() == {(cls, name) for name in FEATURE_ROSTER[cls]}


def test_feature_map_rejects_excluded_and_nan():
    # the roster check is what refuses an excluded name
    assert not {(cls, name) for cls, names in FEATURE_ROSTER.items()
                for name in names} & EXCLUDED_FEATURES
    with pytest.raises(ValueError):
        FeatureMap({("glcm", "SumAverage"): 1.0})
    with pytest.raises(ValueError):
        FeatureMap({("glcm", "Contrast"): float("nan")})
    with pytest.raises(ValueError):
        FeatureMap({("glcm", "NotAFeature"): 1.0})


# ---------------------------------------------------------------------------
# Array sums and slices equal the numpy-call forms they replaced, bit for bit
# ---------------------------------------------------------------------------

def _hex(values):
    return {name: None if v is None else float(v).hex()
            for name, v in values.items()}


def _moments_by_numpy_calls(x):
    """The first-order moments as np.mean and np.sum formed them."""
    srt = np.sort(x)
    mean = float(x.mean())
    dev = x - mean
    dev2 = dev * dev
    x2 = x * x
    m2 = 0.0 if srt[0] == srt[-1] else float(np.mean(dev2))
    return {
        "Mean": mean, "Variance": m2, "StandardDeviation": math.sqrt(m2),
        "Energy": float(np.sum(x2)),
        "RootMeanSquared": math.sqrt(float(np.mean(x2))),
        "MeanAbsoluteDeviation": float(np.mean(np.abs(dev))),
        "Skewness": (float(np.mean(dev2 * dev)) / m2 ** 1.5
                     if m2 ** 1.5 > 0 else None),
        "Kurtosis": (float(np.mean(dev2 * dev2)) / m2 ** 2
                     if m2 ** 2 > 0 else None),
    }


def _faces_by_pad_and_take(inside):
    """Exposed-face counts and surface voxels from np.pad and np.take."""
    face_counts = np.zeros(3, dtype=np.int64)
    surface = np.zeros_like(inside)
    for axis in range(3):
        padded = np.pad(inside, [(1, 1) if a == axis else (0, 0) for a in range(3)])
        lo = np.take(padded, range(0, inside.shape[axis]), axis=axis)
        hi = np.take(padded, range(2, inside.shape[axis] + 2), axis=axis)
        exposed_lo = inside & ~lo.astype(bool)
        exposed_hi = inside & ~hi.astype(bool)
        face_counts[axis] = exposed_lo.sum() + exposed_hi.sum()
        surface |= exposed_lo | exposed_hi
    return face_counts, surface


@st.composite
def intensity_rois(draw):
    """A 2D (one slice) or 3D mask of up to 256 voxels, at least one inside,
    and its intensities: finite values of any sign and size up to 1e6, or
    one value throughout."""
    shape = draw(st.tuples(st.integers(1, 8), st.integers(1, 8),
                           st.sampled_from([1, 2, 4])))
    inside = draw(hnp.arrays(bool, shape))
    inside.flat[draw(st.integers(0, inside.size - 1))] = True
    finite = st.floats(-1e6, 1e6, allow_nan=False)
    if draw(st.booleans()):
        return np.full(shape, draw(finite)), inside
    return draw(hnp.arrays(np.float64, shape, elements=finite)), inside


@settings(max_examples=300, deadline=None)
@given(intensity_rois())
@example((np.full((1, 1, 1), 7.3), np.ones((1, 1, 1), bool)))
@example((np.full((4, 3, 2), -41.9), np.ones((4, 3, 2), bool)))
def test_firstorder_moments_equal_their_np_mean_forms(case):
    values, inside = case
    mask = make_mask(inside)
    fmap = firstorder_features(make_volume(values), mask, 25.0)
    expected = _moments_by_numpy_calls(
        values[mask.bounding_box][mask.inside].astype(np.float64))
    assert _hex({name: fmap.get("firstorder", name) for name in expected}) \
        == _hex(expected)


@settings(max_examples=300, deadline=None)
@given(lattice_masks())
def test_surface_face_counts_equal_their_pad_and_take_form(case):
    inside, _ = case
    faces, surface = _surface_face_counts(inside)
    expected_faces, expected_surface = _faces_by_pad_and_take(inside)
    assert faces.dtype == expected_faces.dtype
    assert faces.tolist() == expected_faces.tolist()
    assert surface.dtype == bool
    assert np.array_equal(surface, expected_surface)


@st.composite
def co_occurrence_probs(draw):
    """A symmetric probability matrix of 1 to 12 gray levels."""
    ng = draw(st.integers(1, 12))
    counts = draw(hnp.arrays(np.int64, (ng, ng), elements=st.integers(0, 1000)))
    counts = counts + counts.T
    counts[0, 0] += counts.sum() == 0
    return counts / counts.sum()


@settings(max_examples=300, deadline=None)
@given(co_occurrence_probs())
def test_glcm_squared_differences_equal_their_power_forms(p):
    fmap = glcm_features(GlcMatrix(p))
    i = np.arange(1, p.shape[0] + 1, dtype=np.float64)
    ii, jj = i[:, None], i[None, :]
    diff = np.abs(ii - jj)
    off_diag = diff > 0
    expected = {
        "Contrast": float(np.sum((ii - jj) ** 2 * p)),
        "Idm": float(np.sum(p / (1.0 + diff ** 2))),
        "InverseVariance": float(np.sum(p[off_diag] / diff[off_diag] ** 2)),
    }
    assert _hex({name: fmap.get("glcm", name) for name in expected}) \
        == _hex(expected)
