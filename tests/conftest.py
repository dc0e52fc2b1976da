import multiprocessing

import numpy as np
import pytest

from radrep.discretize import DiscretizedRoi
from radrep.texture_matrices import NeighbourGraph
from radrep.volume_io import RoiMask, Structure, VolumeGrid


def make_volume(values, spacing=(1.0, 1.0, 1.0)):
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values.reshape(-1, 1, 1)
    if values.ndim == 2:
        values = values[:, :, None]
    return VolumeGrid(spacing=tuple(spacing), values=values.copy())


def whole_box(volume):
    """The box of every voxel: a filter given it returns the whole grid."""
    return tuple(slice(0, n) for n in volume.values.shape)


def make_mask(labels, spacing=(1.0, 1.0, 1.0), structure=Structure.TUMOR):
    labels = np.asarray(labels, dtype=np.uint8)
    if labels.ndim == 1:
        labels = labels.reshape(-1, 1, 1)
    if labels.ndim == 2:
        labels = labels[:, :, None]
    return RoiMask(spacing=tuple(float(s) for s in spacing),
                   labels=labels.copy(), structure=structure)


def make_disc(levels):
    """DiscretizedRoi straight from a level grid (0 = outside ROI)."""
    levels = np.asarray(levels, dtype=np.int32)
    if levels.ndim == 2:
        levels = levels[:, :, None]
    ng = int(levels.max())
    return DiscretizedRoi(levels=levels.copy(), num_gray_levels=ng,
                          num_roi_voxels=int(np.count_nonzero(levels)),
                          roi_min=0.0, roi_max=float(ng))


def graph_of(disc, offsets):
    """The neighbour graph of ``disc``'s ROI (its nonzero levels), as the
    pipeline builds it from the mask's ``inside`` crop."""
    return NeighbourGraph(disc.levels > 0, offsets)


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
    holes, separate parts (voxels two apart on every axis, so no two
    touch), a single voxel and the whole grid.
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
    parts = np.zeros(shape, dtype=bool)
    parts[::2, ::2, ::2] = rng.random(parts[::2, ::2, ::2].shape) < 0.7
    parts[0, 0, 0] = parts[tuple((n - 1) // 2 * 2 for n in shape)] = True
    return [sparse, faces, holed, parts, single, np.ones(shape, dtype=bool)]


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture(autouse=True)
def no_worker_outlives_its_test():
    """Both commands fork workers; one left running fails the test that
    started it, not a later one."""
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture(autouse=True)
def no_temporary_file_outlives_its_test(tmp_path):
    """Each command writes into a hidden staging directory in its --out
    and moves the files into place on success; any hidden entry left
    under ``tmp_path`` is a leak on an error path."""
    yield
    assert sorted(tmp_path.rglob(".*")) == []
