"""GLCM, GLRLM, and GLSZM construction from a discretized ROI.

All builders count with integers and normalize (where applicable) as the
final step, so results are independent of traversal or aggregation
order. 2D variants merge counts across axial slices and in-plane
directions into a single matrix before any feature is computed; 3D
variants use the 13 unique voxel-offset directions (26-connectivity for
zones).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from . import RadrepError
from .discretize import DiscretizedRoi

# Unique distance-1 offsets: 13 in 3D (one per +/- direction pair),
# 4 in-plane (axes 0 and 1; axis 2 indexes slices).
OFFSETS_2D = ((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0))
OFFSETS_3D = tuple(
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (dx, dy, dz) > (0, 0, 0)
)
assert len(OFFSETS_3D) == 13


class TextureMatrixError(RadrepError):
    pass


class NoValidPairs(TextureMatrixError):
    """ROI too small or fragmented to contain any neighbor pair."""


@dataclass(frozen=True)
class GlcMatrix:
    """Symmetric joint probability p(i, j) of gray-level co-occurrence."""

    ng: int
    probs: np.ndarray = field(repr=False)
    dimensionality: str
    distance: int = 1

    def __post_init__(self):
        self.probs.setflags(write=False)


@dataclass(frozen=True)
class GlrlMatrix:
    """Run counts: counts[i-1, j-1] runs of level i with length j."""

    ng: int
    max_run_length: int
    counts: np.ndarray = field(repr=False)
    total_runs: int
    dimensionality: str
    num_directions: int
    num_roi_voxels: int

    def __post_init__(self):
        self.counts.setflags(write=False)


@dataclass(frozen=True)
class GlszMatrix:
    """Zone counts: counts[i-1, s-1] connected zones of level i, size s."""

    ng: int
    max_zone_size: int
    counts: np.ndarray = field(repr=False)
    total_zones: int
    dimensionality: str
    num_roi_voxels: int

    def __post_init__(self):
        self.counts.setflags(write=False)


def _select_offsets(dim: str, offsets) -> tuple:
    if offsets is not None:
        return tuple(tuple(o) for o in offsets)
    if dim == "2D":
        return OFFSETS_2D
    if dim == "3D":
        return OFFSETS_3D
    raise ValueError("dim must be '2D' or '3D'")


def _offset_views(levels: np.ndarray, offset):
    """Paired views of the grid displaced by ``offset``."""
    src = [slice(None)] * 3
    dst = [slice(None)] * 3
    for axis, d in enumerate(offset):
        if d > 0:
            src[axis] = slice(0, -d)
            dst[axis] = slice(d, None)
        elif d < 0:
            src[axis] = slice(-d, None)
            dst[axis] = slice(0, d)
    return levels[tuple(src)], levels[tuple(dst)]


def build_glcm(disc: DiscretizedRoi, dim: str, offsets=None) -> GlcMatrix:
    """Co-occurrence matrix over distance-1 offsets, symmetrized.

    Ordered in-ROI pairs are counted per offset, the transpose is added,
    and counts are normalized to probabilities. ``offsets`` restricts the
    direction set (testing hook).
    """
    offs = _select_offsets(dim, offsets)
    ng = disc.num_gray_levels
    counts = np.zeros((ng, ng), dtype=np.int64)
    for off in offs:
        a, b = _offset_views(disc.levels, off)
        valid = (a > 0) & (b > 0)
        if not valid.any():
            continue
        pair_index = (a[valid].astype(np.int64) - 1) * ng + (b[valid] - 1)
        counts += np.bincount(pair_index, minlength=ng * ng).reshape(ng, ng)
    counts = counts + counts.T
    total = counts.sum()
    if total == 0:
        raise NoValidPairs("no in-ROI voxel pair at distance 1")
    return GlcMatrix(ng=ng, probs=counts / total, dimensionality=dim)


def _run_length_encode(levels_sorted: np.ndarray, line_ids: np.ndarray,
                       ng: int) -> np.ndarray:
    """Count maximal runs of equal nonzero levels within each line."""
    n = levels_sorted.size
    if n == 0:
        return np.zeros((ng, 0), dtype=np.int64)
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    boundary[1:] = (levels_sorted[1:] != levels_sorted[:-1]) | (
        line_ids[1:] != line_ids[:-1]
    )
    starts = np.flatnonzero(boundary)
    lengths = np.diff(np.append(starts, n))
    run_levels = levels_sorted[starts]
    keep = run_levels > 0
    run_levels, lengths = run_levels[keep], lengths[keep]
    if lengths.size == 0:
        return np.zeros((ng, 0), dtype=np.int64)
    max_len = int(lengths.max())
    counts = np.zeros((ng, max_len), dtype=np.int64)
    np.add.at(counts, (run_levels - 1, lengths - 1), 1)
    return counts


def _direction_runs(levels: np.ndarray, direction, ng: int) -> np.ndarray:
    """Run-length counts along one direction for the whole grid.

    Voxels are ordered by (line id, position along line), where the line
    id is each voxel's coordinate pulled back to the line's entry point.
    Positions along a line are consecutive by construction, so run
    boundaries are exactly level changes and line changes.
    """
    dims = levels.shape
    coords = np.indices(dims).reshape(3, -1)
    t = np.full(coords.shape[1], np.iinfo(np.int64).max, dtype=np.int64)
    for axis, d in enumerate(direction):
        if d == 1:
            t = np.minimum(t, coords[axis])
        elif d == -1:
            t = np.minimum(t, dims[axis] - 1 - coords[axis])
    starts = coords - np.multiply.outer(np.asarray(direction, dtype=np.int64), t)
    line_ids = (starts[0] * dims[1] + starts[1]) * dims[2] + starts[2]
    order = np.lexsort((t, line_ids))
    return _run_length_encode(levels.reshape(-1)[order], line_ids[order], ng)


def _pad_columns(mats: list[np.ndarray], ng: int) -> np.ndarray:
    width = max((m.shape[1] for m in mats), default=0)
    if width == 0:
        return np.zeros((ng, 1), dtype=np.int64)
    out = np.zeros((ng, width), dtype=np.int64)
    for m in mats:
        out[:, : m.shape[1]] += m
    return out


def build_glrlm(disc: DiscretizedRoi, dim: str, directions=None) -> GlrlMatrix:
    """Run-length matrix, directions summed into one matrix.

    Maximal runs of consecutive equal nonzero levels are counted per
    direction (13 in 3D, the 4 in-plane directions accumulated over
    slices in 2D); out-of-ROI voxels terminate runs.
    """
    dirs = _select_offsets(dim, directions)
    ng = disc.num_gray_levels
    per_direction = [_direction_runs(disc.levels, d, ng) for d in dirs]
    counts = _pad_columns(per_direction, ng)
    total = int(counts.sum())
    return GlrlMatrix(
        ng=ng,
        max_run_length=counts.shape[1],
        counts=counts,
        total_runs=total,
        dimensionality=dim,
        num_directions=len(dirs),
        num_roi_voxels=disc.num_roi_voxels,
    )


def build_glszm(disc: DiscretizedRoi, dim: str) -> GlszMatrix:
    """Size-zone matrix: connected zones of equal nonzero level.

    Connectivity is 26-neighborhood in 3D and 8-neighborhood per axial
    slice in 2D (slices are independent: the 2D structure's two outer
    slice planes are empty). One labeling runs per level present in the
    grid; absent levels keep all-zero rows.
    """
    if dim == "3D":
        structure = np.ones((3, 3, 3), dtype=bool)
    elif dim == "2D":
        structure = np.zeros((3, 3, 3), dtype=bool)
        structure[:, :, 1] = True
    else:
        raise ValueError("dim must be '2D' or '3D'")
    ng = disc.num_gray_levels
    zone_sizes = {}
    for level in np.unique(disc.levels[disc.levels > 0]):
        labeled, _ = ndimage.label(disc.levels == level, structure=structure)
        zone_sizes[level] = np.bincount(labeled.ravel())[1:]
    max_size = max((int(s.max()) for s in zone_sizes.values()), default=1)
    counts = np.zeros((ng, max_size), dtype=np.int64)
    for level, sizes in zone_sizes.items():
        np.add.at(counts[level - 1], sizes - 1, 1)
    return GlszMatrix(
        ng=ng,
        max_zone_size=max_size,
        counts=counts,
        total_zones=int(counts.sum()),
        dimensionality=dim,
        num_roi_voxels=disc.num_roi_voxels,
    )
