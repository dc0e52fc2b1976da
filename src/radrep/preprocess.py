"""Intensity normalization and the image pre-filter catalog.

All transforms are pure ``VolumeGrid -> VolumeGrid`` functions: same
input, bit-identical output, safe to run concurrently over shared
immutable grids. The pipeline order is fixed: normalization (if any)
first, then filtering, then discretization. Normalization maps the whole
grid; every filter computes only the voxels of the box it is given and
returns that box, equal bit for bit to the whole-grid output there.
Each catalog is one enum:
:class:`NormalizationMode` names each mode and carries its target
mean/std, and :class:`FilterKind` names each filter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import RadrepError
from .volume_io import GeometryMismatch, RoiMask, VolumeGrid, check_geometry

LOG_SIGMAS_MM = (1.0, 2.0, 3.0, 4.0, 5.0)
WAVELET_SUBBANDS_2D = ("LL", "LH", "HL", "HH")
WAVELET_SUBBANDS_3D = ("LLL", "LLH", "LHL", "LHH", "HLL", "HLH", "HHL", "HHH")

MIN_SIGMA_VOXELS = 0.25
# A LoG pass gathers each line of the box plus the kernel's reach on both
# sides; it may hold at most this many times the grid's voxels. The
# catalog's largest reach on a one-voxel axis (sigma 5 mm at 0.5 mm) is
# 1 + 2 * 40 = 81 times.
MAX_LOG_LINE_FACTOR = 128

# Per-axis slices with explicit start and stop: the voxels a filter computes.
Box = tuple[slice, slice, slice]


class ZeroVariance(RadrepError):
    """Normalization source region has zero standard deviation."""


class MissingReferenceMask(RadrepError):
    """Reference-region normalization requested without a reference mask."""


class SigmaTooSmallForGrid(RadrepError):
    """LoG sigma below 0.25 voxels on some axis."""


class SigmaTooLargeForGrid(RadrepError):
    """One LoG pass would gather over MAX_LOG_LINE_FACTOR times the grid."""


class AxisTooShort(RadrepError):
    """Wavelet filtering requires >= 2 voxels per filtered axis."""


class NormalizationMode(Enum):
    """Normalization modes, valued by their manifest names.

    ``code`` is the word that names the mode in output file names. Feature
    CSV names leave wholeImage unmarked; a name that holds several code
    words is read as the first mode here whose word it holds.

    ``target`` is the (mean, std) the mode rescales to, None for no
    rescaling. Whole-image mode matches the statistics of every voxel;
    reference-region mode those of the muscle reference mask only.
    """

    NONE = "none", "noNormalization", None
    REFERENCE_REGION = "referenceRegion", "MuscleRefNorm", (100.0, 10.0)
    WHOLE_IMAGE = "wholeImage", "wholeImageNorm", (300.0, 100.0)

    def __new__(cls, value: str, code: str,
                target: tuple[float, float] | None):
        mode = object.__new__(cls)
        mode._value_ = value
        mode.code = code
        mode.target = target
        return mode


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
        if self.sigma_mm is not None and not 0 < self.sigma_mm < np.inf:
            raise ValueError("sigma_mm must be finite and > 0, "
                             f"got {self.sigma_mm!r}")
        if (self.sigma_mm is not None
                and float("%.1f" % self.sigma_mm) != self.sigma_mm):
            raise ValueError(f"sigma_mm {self.sigma_mm!r} does not read back "
                             f"from its name {self.name}")
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


def normalize(volume: VolumeGrid, mode: NormalizationMode,
              reference: RoiMask | None = None) -> VolumeGrid:
    """Shift and scale intensities to the mode's target mean/std.

    Statistics use the population (divide-by-N) standard deviation over
    the whole image or over the ``reference`` mask's voxels; the affine
    map is applied to every voxel either way. ``NONE`` returns the volume
    itself. Whole-image sums run in memory order: a grid in another layout
    than NRRD's axis 0 fastest (C order, say) can move the last bits.
    """
    if mode.target is None:
        return volume
    if mode is NormalizationMode.WHOLE_IMAGE:
        source = volume.values
    else:
        if reference is None:
            raise MissingReferenceMask(
                "reference-region normalization requires a reference mask")
        if not check_geometry(volume, reference):
            raise GeometryMismatch(
                f"reference mask grid {reference.labels.shape} does not "
                f"match the volume grid {volume.values.shape}")
        source = volume.values[reference.bounding_box][reference.inside]
    mu = float(np.mean(source))
    sigma = float(np.std(source))
    if sigma == 0.0:
        raise ZeroVariance("normalization source region is constant")
    target_mean, target_std = mode.target
    out = target_mean + (volume.values - mu) * (target_std / sigma)
    return VolumeGrid(volume.spacing, out)


def _log_radius(sigma_mm: float, spacing_mm: float) -> int:
    """Kernel radius in voxels: 4 sigma, at least one voxel."""
    return max(1, int(np.ceil(4.0 * sigma_mm / spacing_mm)))


def _log_kernels_1d(sigma_mm: float, spacing_mm: float):
    """Smoothing and second-derivative kernels for one axis.

    The smoothing kernel is the sampled Gaussian, truncated at 4 sigma and
    renormalized to unit sum. The derivative kernel samples the Gaussian
    second-derivative shape, adjusted to zero sum (kills constants and,
    by symmetry, linear ramps) and calibrated to be exact on quadratics,
    which keeps the impulse response within a fraction of a percent of
    the analytic LoG even at sigma == 1 voxel.
    """
    radius = _log_radius(sigma_mm, spacing_mm)
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
    so the results match it bit for bit. The lines are gathered with the
    axis first, so every term is a contiguous slice.
    """
    r = weights.size // 2
    reach = np.clip(np.arange(start - r, stop + r), 0, x.shape[axis] - 1)
    line = np.moveaxis(x, axis, 0).take(reach, axis=0)
    width = stop - start
    out = line[r:r + width] * weights[r]
    for k in range(r, 0, -1):
        out += (line[r - k:r - k + width] + line[r + k:r + k + width]) \
            * weights[r - k]
    return np.moveaxis(out, 0, axis)


def filter_log(volume: VolumeGrid, sigma_mm: float, box: Box) -> VolumeGrid:
    """Scale-normalized Laplacian-of-Gaussian response (sigma in mm).

    Separable per axis: Gaussian smoothing on two axes and the calibrated
    second-derivative kernel on the third, summed over the three axis
    choices and multiplied by sigma^2. Boundaries replicate the nearest
    voxel. Affine intensity fields map to exactly zero in the interior.

    Only the voxels of ``box`` are computed, from the input within each
    axis's kernel reach of the box. A sigma whose reach would make one
    pass gather more than ``MAX_LOG_LINE_FACTOR`` times the grid's voxels
    raises SigmaTooLargeForGrid before anything is allocated.
    """
    if not 0 < sigma_mm < np.inf:
        raise ValueError(f"sigma_mm must be finite and > 0, got {sigma_mm!r}")
    for axis, h in enumerate(volume.spacing):
        if sigma_mm / h < MIN_SIGMA_VOXELS:
            raise SigmaTooSmallForGrid(
                f"sigma {sigma_mm} mm is {sigma_mm / h:.3f} voxels on axis "
                f"{axis} (< {MIN_SIGMA_VOXELS})"
            )
    radii = [_log_radius(sigma_mm, h) for h in volume.spacing]
    reach = tuple(slice(max(0, b.start - r), min(n, b.stop + r))
                  for b, r, n in zip(box, radii, volume.values.shape))
    lengths = [s.stop - s.start for s in reach]
    for axis, (b, r) in enumerate(zip(box, radii)):
        line = (b.stop - b.start + 2 * r) * math.prod(lengths) // lengths[axis]
        if line > MAX_LOG_LINE_FACTOR * volume.values.size:
            raise SigmaTooLargeForGrid(
                f"sigma {sigma_mm} mm reaches {r} voxels on axis {axis}: one "
                f"pass would gather {line} values, more than "
                f"{MAX_LOG_LINE_FACTOR} times the grid's {volume.values.size}")
    kernels = [_log_kernels_1d(sigma_mm, h) for h in volume.spacing]
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
    return VolumeGrid(volume.spacing, total)


def filter_wavelet(volume: VolumeGrid, subband: str, box: Box) -> VolumeGrid:
    """One subband of the single-level undecimated Haar transform.

    Letter ``i`` of ``subband`` is the Haar filter along axis ``i``, L =
    (1,1)/sqrt(2) or H = (1,-1)/sqrt(2), with periodic extension, so a
    two-letter subband filters slice by slice. Voxel ``i`` pairs with
    voxel ``i + 1`` of each filtered axis, and the last voxel with voxel
    0, so the box is gathered with one more voxel, wrapped, on that side.
    """
    if subband not in WAVELET_SUBBANDS_2D + WAVELET_SUBBANDS_3D:
        raise ValueError(f"unknown wavelet subband {subband!r}")
    for axis in range(len(subband)):
        if volume.values.shape[axis] < 2:
            raise AxisTooShort(
                f"axis {axis} has {volume.values.shape[axis]} voxel(s)")
    i, j, k = (np.arange(b.start, b.stop + (axis < len(subband))) % n
               for axis, (b, n) in enumerate(zip(box, volume.values.shape)))
    out = volume.values[i[:, None, None], j[:, None], k]
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for axis, letter in enumerate(subband):
        lead = (slice(None),) * axis
        here = out[lead + (slice(None, -1),)]
        after = out[lead + (slice(1, None),)]
        out = (here + after if letter == "L" else here - after) * inv_sqrt2
    return VolumeGrid(volume.spacing, out)


# The pointwise maps (|x|, M = max|x|) -> g(|x|) * M / g(M), ratios first.
_POINTWISE_MAPS = {
    FilterKind.SQUARE: lambda m, top: (m / top) * m,
    FilterKind.SQUARE_ROOT: lambda m, top: np.sqrt(m / top) * top,
    FilterKind.LOGARITHM: lambda m, top: (np.log1p(m) / np.log1p(top)) * top,
    FilterKind.EXPONENTIAL: lambda m, top: np.exp(m - top) * top,
}


def filter_pointwise(volume: VolumeGrid, kind: FilterKind,
                     box: Box) -> VolumeGrid:
    """Single-pixel filters: square, square root, logarithm, exponential.

    Each applies g(|x|), rescales so the output maximum magnitude equals
    the whole input's M = max|x| (out = sign(x) * g(|x|) * M / g(M)), and
    restores the original sign, over the voxels of ``box``. Ratios are
    formed before products so the result stays finite for any finite
    input; a constant-zero volume is returned unchanged.
    """
    scale = _POINTWISE_MAPS.get(kind)
    if scale is None:
        raise ValueError(f"{kind} is not a pointwise filter")
    max_abs = max(float(volume.values.max()), -float(volume.values.min()))
    x = volume.values[box]
    if max_abs == 0.0:
        return VolumeGrid(volume.spacing, x)
    return VolumeGrid(volume.spacing, np.sign(x) * scale(np.abs(x), max_abs))


def apply_filter(volume: VolumeGrid, spec: FilterSpec, box: Box) -> VolumeGrid:
    """The one filter entry point: one spec, the voxels of one box.

    ``box`` holds per-axis slices with explicit start and stop. The
    result is the filtered grid over the box only, equal bit for bit to
    the whole-grid output there: LoG reads the input within its kernel's
    reach of the box, Haar one voxel past it (wrapped), and the pointwise
    maps take M over the whole input.
    """
    if spec.kind is FilterKind.ORIGINAL:
        return VolumeGrid(volume.spacing, volume.values[box])
    if spec.kind is FilterKind.LOG:
        return filter_log(volume, spec.sigma_mm, box)
    if spec.kind is FilterKind.WAVELET:
        return filter_wavelet(volume, spec.subband, box)
    return filter_pointwise(volume, spec.kind, box)
