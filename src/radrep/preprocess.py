"""Intensity normalization and the image pre-filter catalog.

All transforms are pure ``VolumeGrid -> VolumeGrid`` functions: same
input, bit-identical output, safe to run concurrently over shared
immutable grids. The pipeline order is fixed: normalization (if any)
first, then filtering, then discretization.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import RadrepError
from .volume_io import GeometryMismatch, RoiMask, VolumeGrid, check_geometry

LOG_SIGMAS_MM = (1.0, 2.0, 3.0, 4.0, 5.0)
WAVELET_SUBBANDS_2D = ("LL", "LH", "HL", "HH")
WAVELET_SUBBANDS_3D = ("LLL", "LLH", "LHL", "LHH", "HLL", "HLH", "HHL", "HHH")

MIN_SIGMA_VOXELS = 0.25


class PreprocessError(RadrepError):
    pass


class ZeroVariance(PreprocessError):
    """Normalization source region has zero standard deviation."""


class MissingReferenceMask(PreprocessError):
    """Reference-region normalization requested without a reference mask."""


class SigmaTooSmallForGrid(PreprocessError):
    """LoG sigma below 0.25 voxels on some axis."""


class AxisTooShort(PreprocessError):
    """Wavelet filtering requires >= 2 voxels per filtered axis."""


class NormalizationMode(Enum):
    """Normalization modes, valued by their manifest names.

    ``code`` is the word that names the mode in output file names. Feature
    CSV names leave wholeImage unmarked; a name that holds several code
    words is read as the first mode here whose word it holds.
    """

    NONE = "none", "noNormalization"
    REFERENCE_REGION = "referenceRegion", "MuscleRefNorm"
    WHOLE_IMAGE = "wholeImage", "wholeImageNorm"

    def __new__(cls, value: str, code: str):
        mode = object.__new__(cls)
        mode._value_ = value
        mode.code = code
        return mode


@dataclass(frozen=True)
class NormalizationSpec:
    """Normalization scheme: which statistics to match, over which voxels.

    Whole-image mode rescales to mean 300 / std 100 computed over every
    voxel. Reference-region mode computes the statistics over the muscle
    reference mask only (targets 100 / 10) but applies the map to all
    voxels.
    """

    mode: NormalizationMode = NormalizationMode.NONE
    target_mean: float = 0.0
    target_std: float = 1.0
    reference_mask: RoiMask | None = None

    def __post_init__(self):
        if self.mode is not NormalizationMode.NONE and self.target_std <= 0:
            raise ValueError("target_std must be > 0")
        if self.mode is NormalizationMode.REFERENCE_REGION:
            if self.reference_mask is None:
                raise MissingReferenceMask(
                    "reference-region normalization requires a reference mask"
                )

    @classmethod
    def none(cls) -> "NormalizationSpec":
        return cls()

    @classmethod
    def whole_image(cls, target_mean=300.0, target_std=100.0) -> "NormalizationSpec":
        return cls(NormalizationMode.WHOLE_IMAGE, target_mean, target_std)

    @classmethod
    def reference_region(cls, reference_mask: RoiMask,
                         target_mean=100.0, target_std=10.0) -> "NormalizationSpec":
        return cls(NormalizationMode.REFERENCE_REGION, target_mean, target_std,
                   reference_mask)


class FilterKind(Enum):
    """The filter catalog: one member per manifest filter name, in order."""

    ORIGINAL = "original"
    LOG = "log"
    WAVELET = "wavelet"
    SQUARE = "square"
    SQUARE_ROOT = "squareroot"
    LOGARITHM = "logarithm"
    EXPONENTIAL = "exponential"


@dataclass(frozen=True)
class FilterSpec:
    """One filter output: a kind plus its sigma (LoG) or subband (wavelet)."""

    kind: FilterKind
    sigma_mm: float | None = None
    subband: str | None = None

    def __post_init__(self):
        if (self.sigma_mm is not None) != (self.kind is FilterKind.LOG):
            raise ValueError("sigma_mm is required for LoG and only LoG")
        if self.sigma_mm is not None and self.sigma_mm <= 0:
            raise ValueError("sigma_mm must be > 0")
        if (self.subband is not None) != (self.kind is FilterKind.WAVELET):
            raise ValueError("subband is required for wavelet and only wavelet")
        if self.subband not in (None, *WAVELET_SUBBANDS_2D, *WAVELET_SUBBANDS_3D):
            raise ValueError(f"unknown wavelet subband {self.subband!r}")

    @classmethod
    def expand(cls, name: str, dimensionality: str) -> tuple["FilterSpec", ...]:
        """The specs a manifest filter name selects: a family expands."""
        if name == FilterKind.LOG.value:
            return tuple(cls(FilterKind.LOG, sigma_mm=s) for s in LOG_SIGMAS_MM)
        if name == FilterKind.WAVELET.value:
            subbands = (WAVELET_SUBBANDS_2D if dimensionality == "2D"
                        else WAVELET_SUBBANDS_3D)
            return tuple(cls(FilterKind.WAVELET, subband=b) for b in subbands)
        return (cls.from_name(name),)

    @property
    def name(self) -> str:
        """Serialized filter name used as the feature-column prefix."""
        if self.kind is FilterKind.LOG:
            return "log-sigma-{}-mm-3D".format(
                ("%.1f" % self.sigma_mm).replace(".", "-"))
        if self.kind is FilterKind.WAVELET:
            return f"wavelet-{self.subband}"
        return self.kind.value

    @classmethod
    def from_name(cls, name: str) -> "FilterSpec":
        """Inverse of :attr:`name`."""
        if name.startswith("log-sigma-") and name.endswith("-mm-3D"):
            core = name[len("log-sigma-"):-len("-mm-3D")]
            return cls(FilterKind.LOG, sigma_mm=float(core.replace("-", ".")))
        if name.startswith("wavelet-"):
            return cls(FilterKind.WAVELET, subband=name[len("wavelet-"):])
        try:
            return cls(FilterKind(name))
        except ValueError:
            raise ValueError(f"unknown filter name {name!r}") from None


def _replace_values(volume: VolumeGrid, values: np.ndarray) -> VolumeGrid:
    return VolumeGrid(dims=volume.dims, spacing=volume.spacing,
                      origin=volume.origin, values=values)


def normalize(volume: VolumeGrid, spec: NormalizationSpec) -> VolumeGrid:
    """Shift and scale intensities to the spec's target mean/std.

    Statistics use the population (divide-by-N) standard deviation over
    the whole image or over reference-mask voxels; the affine map is
    applied to every voxel either way.
    """
    if spec.mode is NormalizationMode.NONE:
        return volume
    if spec.mode is NormalizationMode.WHOLE_IMAGE:
        source = volume.values
    else:
        reference = spec.reference_mask
        if not check_geometry(volume, reference):
            raise GeometryMismatch(
                f"reference mask grid {reference.dims} does not "
                f"match the volume grid {volume.dims}")
        source = volume.values[reference.bounding_box][reference.inside]
    mu = float(np.mean(source))
    sigma = float(np.std(source))
    if sigma == 0.0:
        raise ZeroVariance("normalization source region is constant")
    out = spec.target_mean + (volume.values - mu) * (spec.target_std / sigma)
    return _replace_values(volume, out)


def _log_kernels_1d(sigma_mm: float, spacing_mm: float):
    """Smoothing and second-derivative kernels for one axis.

    The smoothing kernel is the sampled Gaussian, truncated at 4 sigma and
    renormalized to unit sum. The derivative kernel samples the Gaussian
    second-derivative shape, adjusted to zero sum (kills constants and,
    by symmetry, linear ramps) and calibrated to be exact on quadratics,
    which keeps the impulse response within a fraction of a percent of
    the analytic LoG even at sigma == 1 voxel.
    """
    radius = max(1, int(np.ceil(4.0 * sigma_mm / spacing_mm)))
    x = np.arange(-radius, radius + 1, dtype=np.float64) * spacing_mm
    gauss = np.exp(-(x ** 2) / (2.0 * sigma_mm ** 2))
    gauss /= gauss.sum()
    deriv = (x ** 2 - sigma_mm ** 2) * np.exp(-(x ** 2) / (2.0 * sigma_mm ** 2))
    deriv -= deriv.mean()
    deriv *= 2.0 / np.dot(deriv, x ** 2)
    return gauss, deriv


def _correlate_nearest(x: np.ndarray, weights: np.ndarray, axis: int,
                       start: int, stop: int) -> np.ndarray:
    """Correlate ``x`` along ``axis`` with a symmetric odd kernel.

    Only the output positions ``start .. stop - 1`` of that axis are
    computed. The boundary replicates the nearest voxel of ``x``. Sums
    run in the order of ``scipy.ndimage.correlate1d`` for symmetric
    kernels (centre term first, then the pairs from the outermost in),
    so the results match it bit for bit.
    """
    r = weights.size // 2
    reach = np.clip(np.arange(start - r, stop + r), 0, x.shape[axis] - 1)
    line = np.moveaxis(np.take(x, reach, axis=axis), axis, 0)
    width = stop - start
    out = line[r:r + width] * weights[r]
    for k in range(r, 0, -1):
        out += (line[r - k:r - k + width] + line[r + k:r + k + width]) \
            * weights[r - k]
    return np.moveaxis(out, 0, axis)


def filter_log(volume: VolumeGrid, sigma_mm: float,
               box: tuple[slice, slice, slice] | None = None) -> VolumeGrid:
    """Scale-normalized Laplacian-of-Gaussian response (sigma in mm).

    Separable per axis: Gaussian smoothing on two axes and the calibrated
    second-derivative kernel on the third, summed over the three axis
    choices and multiplied by sigma^2. Boundaries replicate the nearest
    voxel. Affine intensity fields map to exactly zero in the interior.

    Only the voxels of ``box`` (per-axis slices with unit step; default
    the whole grid) are computed, from the input within each axis's
    kernel reach of the box; they equal the whole-grid response bit for
    bit. Voxels outside the box are NaN.
    """
    if sigma_mm <= 0:
        raise ValueError("sigma_mm must be > 0")
    for axis, h in enumerate(volume.spacing):
        if sigma_mm / h < MIN_SIGMA_VOXELS:
            raise SigmaTooSmallForGrid(
                f"sigma {sigma_mm} mm is {sigma_mm / h:.3f} voxels on axis "
                f"{axis} (< {MIN_SIGMA_VOXELS})"
            )
    dims = volume.dims
    box = tuple(slice(None) for _ in dims) if box is None else box
    box = tuple(slice(*b.indices(n)[:2]) for b, n in zip(box, dims))
    kernels = [_log_kernels_1d(sigma_mm, h) for h in volume.spacing]
    reach = tuple(slice(max(0, b.start - k[0].size // 2),
                        min(n, b.stop + k[0].size // 2))
                  for b, k, n in zip(box, kernels, dims))
    source = volume.values[reach]
    total = np.zeros([b.stop - b.start for b in box])
    for deriv_axis in range(3):
        part = source
        for axis in (deriv_axis, *(a for a in range(3) if a != deriv_axis)):
            kernel = kernels[axis][axis == deriv_axis]
            part = _correlate_nearest(part, kernel, axis,
                                      box[axis].start - reach[axis].start,
                                      box[axis].stop - reach[axis].start)
        total += part
    total *= sigma_mm ** 2
    out = np.full(dims, np.nan)
    out[box] = total
    return _replace_values(volume, out)


def filter_wavelet(volume: VolumeGrid, subband: str) -> VolumeGrid:
    """One subband of the single-level undecimated Haar transform.

    Letter ``i`` of ``subband`` is the Haar filter along axis ``i``, L =
    (1,1)/sqrt(2) or H = (1,-1)/sqrt(2), with periodic extension, so a
    two-letter subband filters slice by slice. Output keeps input dims.
    """
    if subband not in WAVELET_SUBBANDS_2D + WAVELET_SUBBANDS_3D:
        raise ValueError(f"unknown wavelet subband {subband!r}")
    for axis in range(len(subband)):
        if volume.dims[axis] < 2:
            raise AxisTooShort(f"axis {axis} has {volume.dims[axis]} voxel(s)")
    out = volume.values
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for axis, letter in enumerate(subband):
        shifted = np.roll(out, -1, axis=axis)
        out = (out + shifted if letter == "L" else out - shifted) * inv_sqrt2
    return _replace_values(volume, out)


# The pointwise maps (|x|, M = max|x|) -> g(|x|) * M / g(M), ratios first.
_POINTWISE_MAPS = {
    FilterKind.SQUARE: lambda m, top: (m / top) * m,
    FilterKind.SQUARE_ROOT: lambda m, top: np.sqrt(m / top) * top,
    FilterKind.LOGARITHM: lambda m, top: (np.log1p(m) / np.log1p(top)) * top,
    FilterKind.EXPONENTIAL: lambda m, top: np.exp(m - top) * top,
}


def filter_pointwise(volume: VolumeGrid, kind: FilterKind) -> VolumeGrid:
    """Single-pixel filters: square, square root, logarithm, exponential.

    Each applies g(|x|), rescales so the output maximum magnitude equals
    the input's M = max|x| (out = sign(x) * g(|x|) * M / g(M)), and
    restores the original sign. Ratios are formed before products so the
    result stays finite for any finite input; a constant-zero volume is
    returned unchanged.
    """
    scale = _POINTWISE_MAPS.get(kind)
    if scale is None:
        raise ValueError(f"{kind} is not a pointwise filter")
    x = volume.values
    magnitude = np.abs(x)
    max_abs = float(np.max(magnitude))
    if max_abs == 0.0:
        return volume
    return _replace_values(volume, np.sign(x) * scale(magnitude, max_abs))


def apply_filter(volume: VolumeGrid, spec: FilterSpec,
                 box: tuple[slice, slice, slice] | None = None) -> VolumeGrid:
    """The one filter entry point: one spec, one grid.

    ``box`` bounds the voxels LoG computes (see :func:`filter_log`); the
    other filters cover the whole grid.
    """
    if spec.kind is FilterKind.ORIGINAL:
        return volume
    if spec.kind is FilterKind.LOG:
        return filter_log(volume, spec.sigma_mm, box)
    if spec.kind is FilterKind.WAVELET:
        return filter_wavelet(volume, spec.subband)
    return filter_pointwise(volume, spec.kind)
