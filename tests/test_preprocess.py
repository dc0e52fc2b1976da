import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radrep.preprocess import (LOG_SIGMAS_MM, FilterKind, FilterSpec,
                               MissingReferenceMask, NormalizationMode,
                               SigmaTooLargeForGrid, SigmaTooSmallForGrid,
                               WAVELET_SUBBANDS_2D, WAVELET_SUBBANDS_3D,
                               ZeroVariance, apply_filter, filter_log,
                               filter_pointwise, filter_wavelet, normalize)
from radrep.volume_io import Structure

from conftest import make_mask, make_volume, whole_box
from oracles import haar_subbands, ndimage_log


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------

def test_normalize_whole_image_hand_case():
    vol = make_volume([0.0, 10.0, 20.0])
    out = normalize(vol, NormalizationMode.WHOLE_IMAGE)
    # mu = 10, population sigma = sqrt(200/3)
    assert out.values.ravel() == pytest.approx([177.53, 300.00, 422.47],
                                               abs=0.01)


def test_normalize_mode_none_is_identity(rng):
    vol = make_volume(rng.standard_normal((4, 3, 2)))
    out = normalize(vol, NormalizationMode.NONE)
    assert out is vol


def test_normalize_constant_raises():
    vol = make_volume(np.full((3, 3, 1), 7.0))
    with pytest.raises(ZeroVariance):
        normalize(vol, NormalizationMode.WHOLE_IMAGE)


def test_normalize_hits_targets(rng):
    # the targets are pinned literally: bench/check.py hard-codes them too
    assert NormalizationMode.NONE.target is None
    assert NormalizationMode.WHOLE_IMAGE.target == (300.0, 100.0)
    assert NormalizationMode.REFERENCE_REGION.target == (100.0, 10.0)
    vol = make_volume(rng.standard_normal((6, 5, 4)) * 37 + 1200)
    labels = np.zeros((6, 5, 4), dtype=np.uint8)
    labels[2:5, 1:4, 1:3] = 1
    reference = make_mask(labels, structure=Structure.MUSCLE_REFERENCE)
    for mode, source in ((NormalizationMode.WHOLE_IMAGE, slice(None)),
                         (NormalizationMode.REFERENCE_REGION, labels > 0)):
        out = normalize(vol, mode, reference)
        mean, std = mode.target
        assert np.mean(out.values[source]) == pytest.approx(mean, abs=1e-6)
        assert np.std(out.values[source]) == pytest.approx(std, abs=1e-6)


def test_normalize_reference_region(rng):
    vol = make_volume(rng.standard_normal((6, 5, 4)) * 12 - 40)
    labels = np.zeros((6, 5, 4), dtype=np.uint8)
    labels[1:3, 1:3, 1:2] = 1
    reference = make_mask(labels, structure=Structure.MUSCLE_REFERENCE)
    out = normalize(vol, NormalizationMode.REFERENCE_REGION, reference)
    inside = out.values[labels > 0]
    assert np.mean(inside) == pytest.approx(100.0, abs=1e-6)
    assert np.std(inside) == pytest.approx(10.0, abs=1e-6)
    # applied to all voxels, not only the reference
    assert not np.array_equal(out.values[labels == 0], vol.values[labels == 0])


def test_normalize_reference_requires_mask(rng):
    vol = make_volume(rng.standard_normal((4, 3, 2)))
    with pytest.raises(MissingReferenceMask):
        normalize(vol, NormalizationMode.REFERENCE_REGION)


def test_normalize_reference_mask_geometry_checked(rng):
    from radrep.discretize import GeometryMismatch
    vol = make_volume(rng.standard_normal((5, 4, 3)))
    reference = make_mask(np.ones((4, 4, 3)),
                          structure=Structure.MUSCLE_REFERENCE)
    with pytest.raises(GeometryMismatch):
        normalize(vol, NormalizationMode.REFERENCE_REGION, reference)


def test_normalize_affine_invariance(rng):
    vol = make_volume(rng.standard_normal((5, 4, 3)))
    scaled = make_volume(2.5 * vol.values + 17.0)
    labels = np.zeros((5, 4, 3), dtype=np.uint8)
    labels[1:4, 1:3, 0:2] = 1
    reference = make_mask(labels, structure=Structure.MUSCLE_REFERENCE)
    for mode in (NormalizationMode.WHOLE_IMAGE,
                 NormalizationMode.REFERENCE_REGION):
        a = normalize(vol, mode, reference)
        b = normalize(scaled, mode, reference)
        assert np.allclose(a.values, b.values, atol=1e-9)


# ---------------------------------------------------------------------------
# filter_log
# ---------------------------------------------------------------------------

def test_log_constant_is_zero():
    vol = make_volume(np.full((9, 9, 9), 42.0))
    out = filter_log(vol, 1.5, whole_box(vol))
    assert np.allclose(out.values, 0.0, atol=1e-12)


def test_log_impulse_matches_analytic_value():
    sigma = 2.0
    values = np.zeros((21, 21, 21))
    values[10, 10, 10] = 1.0
    vol = make_volume(values)
    out = filter_log(vol, sigma, whole_box(vol))
    analytic = -3.0 * sigma ** 2 / ((2 * math.pi) ** 1.5 * sigma ** 5)
    center = out.values[10, 10, 10]
    assert center == pytest.approx(analytic, rel=0.02)
    assert center == pytest.approx(-0.02376, rel=0.02)


def test_log_impulse_dense_kernel_oracle():
    # dense convolution with the analytically sampled LoG kernel: on an
    # impulse the response is the kernel, so the center must match the
    # sampled sigma^2 * laplacian(G) at 0
    sigma = 3.0
    n = 31
    values = np.zeros((n, n, n))
    values[n // 2, n // 2, n // 2] = 1.0
    vol = make_volume(values)
    out = filter_log(vol, sigma, whole_box(vol))
    x = np.arange(n) - n // 2
    xx, yy, zz = np.meshgrid(x, x, x, indexing="ij")
    r2 = xx ** 2 + yy ** 2 + zz ** 2
    kernel = (sigma ** 2 * (r2 - 3 * sigma ** 2) / sigma ** 4
              * np.exp(-r2 / (2 * sigma ** 2)) / ((2 * math.pi) ** 1.5 * sigma ** 3))
    assert out.values[n // 2, n // 2, n // 2] == pytest.approx(
        kernel[n // 2, n // 2, n // 2], rel=0.02)


def test_log_affine_field_is_zero_interior():
    sigma = 2.0
    vol = make_volume(np.fromfunction(
        lambda i, j, k: 3.0 * i - 2.0 * j + 0.5 * k + 7.0, (25, 25, 25)))
    out = filter_log(vol, sigma, whole_box(vol))
    margin = math.ceil(4 * sigma)
    interior = out.values[margin:-margin, margin:-margin, margin:-margin]
    assert np.abs(interior).max() < 1e-9 * sigma ** 2


def test_log_anisotropic_spacing_ramp():
    # mm-scaled: a ramp in mm units is affine, so the interior is zero
    # even with anisotropic voxels (axis-0 kernel radius is 16 here)
    vol = make_volume(np.fromfunction(lambda i, j, k: 2.0 * i, (41, 9, 9)),
                      spacing=(0.5, 1.0, 2.0))
    out = filter_log(vol, 2.0, whole_box(vol))
    assert np.abs(out.values[20, 4, 4]) < 1e-9 * 4.0


def _edge_boxes(dims):
    """The whole grid, a slab on each face and the upper half of each axis
    (each ending on the axis's last voxel), and single voxels in every
    corner."""
    whole = tuple(slice(0, n) for n in dims)
    boxes = [whole]
    for axis, n in enumerate(dims):
        for part in (slice(0, 1), slice(n - 1, n), slice(n // 2, n)):
            boxes.append(whole[:axis] + (part,) + whole[axis + 1:])
    for corner in np.ndindex(2, 2, 2):
        boxes.append(tuple(slice(c * (n - 1), c * (n - 1) + 1)
                           for c, n in zip(corner, dims)))
    return boxes


def _assert_box_equals_oracle(values, spacing, sigma, box):
    """LoG over ``box`` equals the whole-grid correlate1d there, bit for
    bit."""
    out = filter_log(make_volume(values, spacing=spacing), sigma, box).values
    expected = ndimage_log(values, spacing, sigma)[box]
    assert out.shape == expected.shape
    assert out.tobytes() == expected.tobytes()


@st.composite
def _log_box_cases(draw):
    dims = tuple(draw(st.integers(1, 9)) for _ in range(3))
    spacing = tuple(draw(st.sampled_from((0.5, 0.8, 1.0, 2.5)))
                    for _ in range(3))
    sigma = draw(st.sampled_from(LOG_SIGMAS_MM + (1.3,)))
    box = []
    for n in dims:
        start = draw(st.integers(0, n - 1))
        box.append(slice(start, draw(st.integers(start + 1, n))))
    return dims, spacing, sigma, tuple(box), draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=150, deadline=None)
@given(_log_box_cases())
def test_log_over_a_box_equals_whole_grid_correlate1d(case):
    # kernel reaches of 2 to 40 voxels against axes of 1 to 9
    dims, spacing, sigma, box, seed = case
    values = np.random.default_rng(seed).normal(100.0, 30.0, dims)
    _assert_box_equals_oracle(values, spacing, sigma, box)


def test_log_boxes_at_faces_corners_and_single_voxels(rng):
    dims, spacing = (9, 7, 5), (0.6, 0.6, 3.0)
    values = rng.normal(200.0, 40.0, dims)
    boxes = [*_edge_boxes(dims), (slice(4, 5), slice(3, 4), slice(2, 3))]
    for sigma in LOG_SIGMAS_MM:
        for box in boxes:
            _assert_box_equals_oracle(values, spacing, sigma, box)


def test_log_sigma_too_small():
    vol = make_volume(np.zeros((5, 5, 5)), spacing=(1.0, 1.0, 5.0))
    with pytest.raises(SigmaTooSmallForGrid):
        filter_log(vol, 1.0, whole_box(vol))  # 0.2 voxels on the slice axis


def test_log_sigma_too_large_raises_before_allocating():
    # sigma 100000 mm reaches 666,667 voxels on a 0.6 mm axis: one pass
    # would gather ~3.4 GB for this 40 x 40 x 8 grid
    vol = make_volume(np.zeros((40, 40, 8)), spacing=(0.6, 0.6, 3.0))
    tracemalloc.start()
    try:
        with pytest.raises(SigmaTooLargeForGrid, match="axis 0"):
            filter_log(vol, 100000.0, whole_box(vol))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_log_sigma_bound_keeps_the_catalog_on_a_one_voxel_axis(rng):
    # 0.5 mm across one voxel: sigma 5 mm gathers 1 + 2 * 40 = 81 lines of
    # 4 x 4 per pass, sigma 8 mm 1 + 2 * 64 = 129, over 128 grids
    vol = make_volume(rng.normal(100.0, 30.0, (1, 4, 4)),
                      spacing=(0.5, 1.0, 1.0))
    for sigma in LOG_SIGMAS_MM:
        _assert_box_equals_oracle(vol.values, vol.spacing, sigma,
                                  whole_box(vol))
    with pytest.raises(SigmaTooLargeForGrid, match="axis 0"):
        filter_log(vol, 8.0, whole_box(vol))


# ---------------------------------------------------------------------------
# filter_wavelet
# ---------------------------------------------------------------------------

def _bands(vol, subbands):
    return {band: filter_wavelet(vol, band, whole_box(vol))
            for band in subbands}


def test_wavelet_constant_image():
    c = 3.0
    vol = make_volume(np.full((4, 4, 4), c))
    bands = _bands(vol, WAVELET_SUBBANDS_3D)
    assert set(bands) == set(WAVELET_SUBBANDS_3D)
    assert np.allclose(bands["LLL"].values, c * 2 ** 1.5)
    for label, band in bands.items():
        if "H" in label:
            assert np.allclose(band.values, 0.0)


def test_wavelet_haar_pair_definition():
    a, b = 5.0, 2.0
    values = np.zeros((2, 2, 1))
    values[0, :, 0] = a
    values[1, :, 0] = b
    bands = _bands(make_volume(values), WAVELET_SUBBANDS_2D)
    root2 = math.sqrt(2.0)
    l0 = (a + b) / root2  # Haar L along axis 0, first position
    h0 = (a - b) / root2  # Haar H along axis 0, first position
    # axis 1 is constant: its L step multiplies by sqrt(2), H yields zero
    assert bands["LL"].values[0, 0, 0] == pytest.approx(l0 * root2)
    assert bands["HL"].values[0, 0, 0] == pytest.approx(h0 * root2)
    assert np.allclose(bands["LH"].values, 0.0)
    assert np.allclose(bands["HH"].values, 0.0)


def test_wavelet_energy_identity_2d(rng):
    vol = make_volume(rng.standard_normal((4, 4, 1)))
    bands = _bands(vol, WAVELET_SUBBANDS_2D)
    assert len(bands) == 4
    total = sum(np.sum(b.values ** 2) for b in bands.values())
    assert total == pytest.approx(4.0 * np.sum(vol.values ** 2), rel=1e-12)


def test_wavelet_energy_identity_3d(rng):
    vol = make_volume(rng.standard_normal((5, 4, 3)))
    bands = _bands(vol, WAVELET_SUBBANDS_3D)
    assert len(bands) == 8
    total = sum(np.sum(b.values ** 2) for b in bands.values())
    assert total == pytest.approx(8.0 * np.sum(vol.values ** 2), rel=1e-12)


def test_wavelet_output_dims_match_input(rng):
    vol = make_volume(rng.standard_normal((3, 5, 2)))
    for subbands, count in ((WAVELET_SUBBANDS_2D, 4), (WAVELET_SUBBANDS_3D, 8)):
        bands = _bands(vol, subbands)
        assert len(bands) == count
        assert all(b.values.shape == vol.values.shape for b in bands.values())


def test_wavelet_2d_is_per_slice(rng):
    stacked = rng.standard_normal((4, 4, 3))
    full = _bands(make_volume(stacked), WAVELET_SUBBANDS_2D)
    for k in range(3):
        single = _bands(make_volume(stacked[:, :, k:k + 1]), WAVELET_SUBBANDS_2D)
        for label in WAVELET_SUBBANDS_2D:
            assert np.allclose(full[label].values[:, :, k],
                               single[label].values[:, :, 0])


@settings(max_examples=80, deadline=None)
@given(st.tuples(*[st.integers(2, 9)] * 3), st.integers(0, 2 ** 32 - 1))
def test_wavelet_subbands_equal_the_haar_tree(dims, seed):
    # one subband at a time matches the shared-prefix tree byte for byte
    values = np.random.default_rng(seed).normal(100.0, 30.0, dims)
    vol = make_volume(values)
    for dim, subbands in (("2D", WAVELET_SUBBANDS_2D),
                          ("3D", WAVELET_SUBBANDS_3D)):
        tree = haar_subbands(values, dim)
        for band in subbands:
            band_values = filter_wavelet(vol, band, whole_box(vol)).values
            assert band_values.tobytes() == tree[band].tobytes(), (dim, band)


def test_wavelet_axis_too_short():
    from radrep.preprocess import AxisTooShort
    vol = make_volume(np.zeros((1, 4, 4)))
    with pytest.raises(AxisTooShort):
        filter_wavelet(vol, "LL", whole_box(vol))


# ---------------------------------------------------------------------------
# filter_pointwise
# ---------------------------------------------------------------------------

_POINTWISE = (FilterKind.SQUARE, FilterKind.SQUARE_ROOT, FilterKind.LOGARITHM,
              FilterKind.EXPONENTIAL)


def test_pointwise_square_hand_case():
    vol = make_volume([0.0, 5.0, 10.0])
    out = filter_pointwise(vol, FilterKind.SQUARE, whole_box(vol))
    assert out.values.ravel() == pytest.approx([0.0, 2.5, 10.0])


def test_pointwise_logarithm_hand_case():
    e = math.e
    vol = make_volume([-(e - 1), 0.0, e - 1])
    out = filter_pointwise(vol, FilterKind.LOGARITHM, whole_box(vol))
    assert out.values.ravel() == pytest.approx([-(e - 1), 0.0, e - 1])


def test_pointwise_fixed_point_at_max():
    values = np.array([-4.0, 4.0, 4.0, -4.0])
    for kind in _POINTWISE:
        vol = make_volume(values)
        out = filter_pointwise(vol, kind, whole_box(vol))
        assert np.allclose(out.values.ravel(), values, atol=1e-12)


def test_pointwise_zero_volume_unchanged():
    vol = make_volume(np.zeros((3, 3, 1)))
    for kind in _POINTWISE:
        out = filter_pointwise(vol, kind, whole_box(vol))
        assert out.values.tobytes() == vol.values.tobytes()


def test_pointwise_exponential_large_values_safe():
    vol = make_volume([-900.0, 0.0, 900.0])
    out = filter_pointwise(vol, FilterKind.EXPONENTIAL, whole_box(vol))
    assert np.isfinite(out.values).all()
    assert out.values.ravel()[2] == pytest.approx(900.0)
    assert out.values.ravel()[0] == pytest.approx(-900.0)


# magnitudes within realistic image-intensity scales (Square underflows
# below ~1e-154 by construction of g(t) = t^2)
_intensity = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-3, max_value=1e4),
    st.floats(min_value=1e-3, max_value=1e4).map(lambda v: -v),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_intensity, min_size=2, max_size=40),
       st.sampled_from(_POINTWISE))
def test_pointwise_preserves_max_and_sign(values, kind):
    vol = make_volume(np.array(values, dtype=np.float64))
    out = filter_pointwise(vol, kind, whole_box(vol))
    in_max = np.max(np.abs(vol.values))
    out_max = np.max(np.abs(out.values))
    assert out_max == pytest.approx(in_max, abs=1e-9 * max(1.0, in_max))
    in_sign = np.sign(vol.values)
    out_sign = np.sign(out.values)
    # signs are never inverted; a zero output can only come from float
    # underflow of a legitimately tiny magnitude (e.g. exp(|x| - M))
    assert np.all(in_sign * out_sign >= 0)
    assert np.all((out_sign == in_sign) | (out.values == 0.0))
    assert np.isfinite(out.values).all()


# ---------------------------------------------------------------------------
# FilterSpec names
# ---------------------------------------------------------------------------

def test_filter_names_round_trip():
    specs = [
        FilterSpec(FilterKind.ORIGINAL),
        FilterSpec(FilterKind.LOG, sigma_mm=1.0),
        FilterSpec(FilterKind.LOG, sigma_mm=5.0),
        FilterSpec(FilterKind.WAVELET, subband="HH"),
        FilterSpec(FilterKind.WAVELET, subband="LLH"),
        FilterSpec(FilterKind.SQUARE),
        FilterSpec(FilterKind.SQUARE_ROOT),
        FilterSpec(FilterKind.LOGARITHM),
        FilterSpec(FilterKind.EXPONENTIAL),
    ]
    names = [s.name for s in specs]
    assert names == ["original", "log-sigma-1-0-mm-3D", "log-sigma-5-0-mm-3D",
                     "wavelet-HH", "wavelet-LLH", "square", "squareroot",
                     "logarithm", "exponential"]
    for spec in specs:
        assert FilterSpec.from_name(spec.name) == spec


def test_filter_spec_validation():
    with pytest.raises(ValueError):
        FilterSpec(FilterKind.ORIGINAL, sigma_mm=2.0)
    with pytest.raises(ValueError):
        FilterSpec(FilterKind.LOG)
    with pytest.raises(ValueError):
        FilterSpec(FilterKind.WAVELET, subband="LLLL")
    with pytest.raises(ValueError):
        FilterSpec(FilterKind.WAVELET, subband="L")
    for name in ("log-sigma-nan-mm-3D", "log-sigma-inf-mm-3D"):
        with pytest.raises(ValueError, match="finite and > 0"):
            FilterSpec.from_name(name)
    # the name keeps one decimal, so a finer sigma would be named as another
    for name in ("log-sigma-0-25-mm-3D", "log-sigma-1-05-mm-3D"):
        with pytest.raises(ValueError, match="does not read back"):
            FilterSpec.from_name(name)
    with pytest.raises(ValueError, match="does not read back"):
        FilterSpec(FilterKind.LOG, sigma_mm=0.25)
    assert FilterSpec.from_name("log-sigma-1-mm-3D").sigma_mm == 1.0


@pytest.mark.parametrize("call, message", [
    (lambda volume, box: FilterSpec(FilterKind.ORIGINAL, subband="HH"),
     "subband is required for wavelet and only wavelet"),
    (lambda volume, box: filter_log(volume, 0.0, box),
     "sigma_mm must be finite and > 0, got 0.0"),
    (lambda volume, box: filter_log(volume, -1.0, box),
     "sigma_mm must be finite and > 0, got -1.0"),
    (lambda volume, box: filter_wavelet(volume, "HHHH", box),
     "unknown wavelet subband 'HHHH'"),
    (lambda volume, box: filter_pointwise(volume, FilterKind.LOG, box),
     "is not a pointwise filter"),
], ids=["subband-without-wavelet", "log-sigma-0", "log-sigma-negative",
        "wavelet-unknown-subband", "pointwise-log"])
def test_filters_refuse_arguments_outside_the_catalog(call, message):
    volume = make_volume(np.arange(1.0, 65.0).reshape(4, 4, 4))
    with pytest.raises(ValueError, match=re.escape(message)):
        call(volume, whole_box(volume))


def test_apply_filter_dispatch(rng):
    vol = make_volume(rng.standard_normal((4, 4, 4)) + 5)
    box = whole_box(vol)
    original = apply_filter(vol, FilterSpec(FilterKind.ORIGINAL), box)
    assert original.values.tobytes() == vol.values.tobytes()
    band = apply_filter(vol, FilterSpec(FilterKind.WAVELET, subband="LLL"),
                        box)
    assert band.values.tobytes() == \
        filter_wavelet(vol, "LLL", box).values.tobytes()
    log = apply_filter(vol, FilterSpec(FilterKind.LOG, sigma_mm=1.0), box)
    assert log.values.tobytes() == filter_log(vol, 1.0, box).values.tobytes()
    square = apply_filter(vol, FilterSpec(FilterKind.SQUARE), box)
    assert square.values.tobytes() == \
        filter_pointwise(vol, FilterKind.SQUARE, box).values.tobytes()


# every spec of the catalog, the 2D and the 3D subbands included
_EVERY_SPEC = tuple(dict.fromkeys(
    spec for dim in ("2D", "3D") for kind in FilterKind
    for spec in FilterSpec.expand(kind.value, dim)))


@st.composite
def _filter_box_cases(draw):
    dims = tuple(draw(st.integers(2, 6)) for _ in range(3))
    spacing = tuple(draw(st.sampled_from((0.5, 1.0, 3.0))) for _ in range(3))
    box = []
    for n in dims:
        start = draw(st.integers(0, n - 1))
        box.append(slice(start, draw(st.integers(start + 1, n))))
    return dims, spacing, tuple(box), draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=15, deadline=None)
@given(_filter_box_cases())
def test_apply_filter_over_a_box_equals_the_whole_grid_output(case):
    # axes of 2 to 6 voxels; the boxes on the high faces end on the last
    # voxel, where Haar pairs it with voxel 0
    dims, spacing, box, seed = case
    vol = make_volume(np.random.default_rng(seed).normal(0.0, 30.0, dims),
                      spacing=spacing)
    for spec in _EVERY_SPEC:
        whole = apply_filter(vol, spec, whole_box(vol)).values
        for b in (box, *_edge_boxes(dims)):
            out = apply_filter(vol, spec, b).values
            assert out.shape == whole[b].shape, (spec, b)
            assert out.tobytes() == whole[b].tobytes(), (spec, b)


def test_filters_are_deterministic(rng):
    vol = make_volume(rng.standard_normal((6, 6, 4)))
    for spec in (FilterSpec(FilterKind.LOG, sigma_mm=2.0),
                 FilterSpec(FilterKind.WAVELET, subband="HLH"),
                 FilterSpec(FilterKind.EXPONENTIAL)):
        a = apply_filter(vol, spec, whole_box(vol))
        b = apply_filter(vol, spec, whole_box(vol))
        assert np.array_equal(a.values, b.values)
