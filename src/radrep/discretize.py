"""Fixed-bin-width quantization of ROI intensities into gray levels.

Binning considers only intensities inside the region of interest; bin
edges are anchored at the ROI minimum, which makes the resulting levels
invariant to global intensity shifts (and to shifts by integer multiples
of the bin width). The level grid covers only the ROI's bounding box;
out-of-ROI voxels inside the box get level 0 and never influence the
level range. Level 0 ends runs, pairs and zones just as the box edge
does, so texture matrices built on the box equal those built on the
whole image.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import RadrepError
from .volume_io import GeometryMismatch, RoiMask, VolumeGrid, check_geometry

# Texture analysis guidance: keep the gray-level count in [8, 128].
GRAY_LEVEL_COUNT_RANGE = (8, 128)
# Bounds Ng. The GLCM holds Ng^2 cells: at this cap one GLCM count and
# each Ng^2 float temporary of its features take 8.4 MB. Run and zone
# matrices hold Ng x (distinct sizes) cells.
MAX_GRAY_LEVELS = 1024


class TooManyGrayLevels(RadrepError):
    """The bin width splits the ROI into more than MAX_GRAY_LEVELS levels."""


class GrayLevelCountWarning(UserWarning):
    """Gray-level count outside the recommended [8, 128] range."""


@dataclass(frozen=True)
class DiscretizedRoi:
    """Integer gray-level grid over the ROI bounding box.

    ``levels`` holds 0 outside the ROI and 1..Ng inside, at the
    ``num_roi_voxels`` ROI voxels.
    """

    levels: np.ndarray = field(repr=False)
    num_gray_levels: int
    num_roi_voxels: int
    roi_min: float
    roi_max: float

    def __post_init__(self):
        self.levels.setflags(write=False)


def discretize_roi(volume: VolumeGrid, mask: RoiMask,
                   bin_width: float) -> DiscretizedRoi:
    """Quantize in-ROI intensities: level = floor((x - min)/width) + 1.

    ``bin_width`` is in intensity units (10/15/20/40 in the experiments);
    unless it is > 0 (NaN included) this raises ValueError.
    The ROI maximum maps into the top occupied bin, so
    Ng == floor((max - min)/width) + 1 exactly and no phantom overflow
    level is created. Emits :class:`GrayLevelCountWarning` when Ng falls
    outside [8, 128] and raises :class:`TooManyGrayLevels`, before any
    Ng-sized allocation, when Ng exceeds :data:`MAX_GRAY_LEVELS`. The
    returned grid is the mask's
    :attr:`~radrep.volume_io.RoiMask.bounding_box`, and the ROI within it
    is the mask's ``inside``, taken as it is.
    """
    if not bin_width > 0:
        raise ValueError(f"bin_width must be > 0, got {bin_width!r}")
    if not check_geometry(volume, mask):
        raise GeometryMismatch(f"image {volume.values.shape}/{volume.spacing} "
                               f"vs mask {mask.labels.shape}/{mask.spacing}")
    inside = mask.inside
    roi_values = volume.values[mask.bounding_box][inside]
    roi_min = float(roi_values.min())
    roi_max = float(roi_values.max())
    span = (roi_max - roi_min) / bin_width  # inf past the float range
    ng = int(np.floor(span)) + 1 if np.isfinite(span) else span
    if ng > MAX_GRAY_LEVELS:
        raise TooManyGrayLevels(
            f"bin width {bin_width:g} gives {ng} gray levels over the ROI range "
            f"[{roi_min:g}, {roi_max:g}]; at most {MAX_GRAY_LEVELS} are allowed")
    levels = np.zeros(inside.shape, dtype=np.int32)
    binned = np.floor((roi_values - roi_min) / bin_width).astype(np.int64) + 1
    levels[inside] = np.minimum(binned, ng)
    lo, hi = GRAY_LEVEL_COUNT_RANGE
    if ng < lo or ng > hi:
        warnings.warn(
            f"gray-level count {ng} outside the recommended [{lo}, {hi}] range "
            f"for bin width {bin_width}",
            GrayLevelCountWarning,
            stacklevel=1,  # one location: each text prints once per process
        )
    return DiscretizedRoi(
        levels=levels,
        num_gray_levels=ng,
        num_roi_voxels=roi_values.size,
        roi_min=roi_min,
        roi_max=roi_max,
    )
