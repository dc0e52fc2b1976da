import numpy as np
import pytest

from radrep.discretize import DiscretizedRoi
from radrep.volume_io import RoiMask, Structure, VolumeGrid


def make_volume(values, spacing=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0)):
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values.reshape(-1, 1, 1)
    if values.ndim == 2:
        values = values[:, :, None]
    return VolumeGrid(dims=tuple(values.shape), spacing=tuple(spacing),
                      origin=tuple(origin), values=values.copy())


def make_mask(labels, spacing=(1.0, 1.0, 1.0), structure=Structure.TUMOR):
    labels = np.asarray(labels, dtype=np.uint8)
    if labels.ndim == 1:
        labels = labels.reshape(-1, 1, 1)
    if labels.ndim == 2:
        labels = labels[:, :, None]
    return RoiMask(dims=tuple(labels.shape), spacing=(float(spacing[0]),
                   float(spacing[1]), float(spacing[2])),
                   origin=(0.0, 0.0, 0.0), labels=labels.copy(),
                   structure=structure)


def make_disc(levels):
    """DiscretizedRoi straight from a level grid (0 = outside ROI)."""
    levels = np.asarray(levels, dtype=np.int32)
    if levels.ndim == 2:
        levels = levels[:, :, None]
    ng = int(levels.max())
    return DiscretizedRoi(dims=tuple(levels.shape), levels=levels.copy(),
                          num_gray_levels=ng, roi_min=0.0, roi_max=float(ng))


def random_levels(rng, shape, ng, roi_fraction=0.8):
    """Random level grid with a random ROI; guarantees >= 2 ROI voxels."""
    levels = rng.integers(1, ng + 1, size=shape).astype(np.int32)
    outside = rng.random(shape) > roi_fraction
    levels[outside] = 0
    if np.count_nonzero(levels) < 2:
        levels.flat[0] = 1
        levels.flat[1] = max(1, ng // 2)
    return levels


def crop_masks(rng, shape):
    """Masks for crop-equivalence checks, as boolean grids of ``shape``.

    A sparse random mask, one touching every grid face, a block with
    holes, a single voxel and the whole grid.
    """
    sparse = rng.random(shape) < 0.3
    sparse.flat[rng.integers(sparse.size)] = True
    faces = rng.random(shape) < 0.2
    for axis, n in enumerate(shape):
        for end in (0, n - 1):
            voxel = [int(rng.integers(m)) for m in shape]
            voxel[axis] = end
            faces[tuple(voxel)] = True
    block = tuple(slice(1, n - 1) if n > 2 else slice(None) for n in shape)
    holed = np.zeros(shape, dtype=bool)
    holed[block] = rng.random(holed[block].shape) < 0.7
    holed[tuple(s.start or 0 for s in block)] = True
    single = np.zeros(shape, dtype=bool)
    single[tuple(int(rng.integers(n)) for n in shape)] = True
    return [sparse, faces, holed, single, np.ones(shape, dtype=bool)]


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
