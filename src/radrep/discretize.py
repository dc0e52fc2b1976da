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

from .volume_io import GeometryMismatch, RoiMask, VolumeGrid, check_geometry

# Texture analysis guidance: keep the gray-level count in [8, 128].
GRAY_LEVEL_COUNT_RANGE = (8, 128)


class GrayLevelCountWarning(UserWarning):
    """Gray-level count outside the recommended [8, 128] range."""


@dataclass(frozen=True)
class DiscretizationSpec:
    """Fixed bin width in intensity units (10/15/20/40 in the experiments)."""

    bin_width: float

    def __post_init__(self):
        if not self.bin_width > 0:
            raise ValueError("bin_width must be > 0")


@dataclass(frozen=True)
class DiscretizedRoi:
    """Integer gray-level grid over the ROI bounding box.

    ``levels`` (shape ``dims``) holds 0 outside the ROI and 1..Ng inside.
    """

    dims: tuple[int, int, int]
    levels: np.ndarray = field(repr=False)
    num_gray_levels: int
    roi_min: float
    roi_max: float

    def __post_init__(self):
        self.levels.setflags(write=False)

    @property
    def num_roi_voxels(self) -> int:
        return int(np.count_nonzero(self.levels))


def discretize_roi(volume: VolumeGrid, mask: RoiMask,
                   spec: DiscretizationSpec) -> DiscretizedRoi:
    """Quantize in-ROI intensities: level = floor((x - min)/width) + 1.

    The ROI maximum maps into the top occupied bin, so
    Ng == floor((max - min)/width) + 1 exactly and no phantom overflow
    level is created. Emits :class:`GrayLevelCountWarning` when Ng falls
    outside [8, 128]. The returned grid is the mask's
    :attr:`~radrep.volume_io.RoiMask.bounding_box`, and the ROI within it
    is the mask's ``inside``, taken as it is.
    """
    if not check_geometry(volume, mask):
        raise GeometryMismatch(
            f"image {volume.dims}/{volume.spacing} vs mask {mask.dims}/{mask.spacing}"
        )
    inside = mask.inside
    roi_values = volume.values[mask.bounding_box][inside]
    roi_min = float(roi_values.min())
    roi_max = float(roi_values.max())
    width = spec.bin_width
    ng = int(np.floor((roi_max - roi_min) / width)) + 1
    levels = np.zeros(inside.shape, dtype=np.int32)
    binned = np.floor((roi_values - roi_min) / width).astype(np.int64) + 1
    levels[inside] = np.minimum(binned, ng)
    lo, hi = GRAY_LEVEL_COUNT_RANGE
    if ng < lo or ng > hi:
        warnings.warn(
            f"gray-level count {ng} outside the recommended [{lo}, {hi}] range "
            f"for bin width {width}",
            GrayLevelCountWarning,
            stacklevel=2,
        )
    return DiscretizedRoi(
        dims=levels.shape,
        levels=levels,
        num_gray_levels=ng,
        roi_min=roi_min,
        roi_max=roi_max,
    )
