"""GLCM, GLRLM, and GLSZM construction from a discretized ROI.

All builders count with integers and normalize (where applicable) as the
final step, so results are independent of traversal or aggregation
order. Each builder takes its neighbourhood as offsets, which are the
GLCM pair offsets, the GLRLM run directions and the GLSZM zone edges.
``OFFSETS`` holds the two in use, by texture dimensionality:
``OFFSETS_3D``, the 13 unique voxel offsets (26-connectivity), and
``OFFSETS_2D``, the 4 in-plane offsets (8-connectivity within an axial
slice). 2D variants merge counts across slices and in-plane directions
into a single matrix before any feature is computed.

GLRLM and GLSZM are one family: both builders return a
:class:`SizeMatrix`, items (runs or zones) counted by gray level and by
each size that occurs, so its width is the number of distinct sizes.

Each builder makes one vectorised pass per call: GLCM one bincount over
the pairs of every offset, GLRLM one run-length pass over every
direction's lines laid end to end, GLSZM one connected-components
labelling of all levels (:func:`label_zones`, in numpy). GLRLM and GLSZM
read neighbours off one layout, made per call: the level grid with a
zero border, flattened (:func:`_padded`), where each offset is one flat
shift. GLCM slices offset views of the grid, which need no copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
OFFSETS = {"2D": OFFSETS_2D, "3D": OFFSETS_3D}


class NoValidPairs(RadrepError):
    """ROI too small or fragmented to contain any neighbor pair."""


@dataclass(frozen=True)
class GlcMatrix:
    """Symmetric Ng x Ng joint probability p(i, j) of co-occurrence."""

    probs: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.probs.setflags(write=False)


@dataclass(frozen=True)
class SizeMatrix:
    """Item counts of the run and zone families.

    ``sizes`` lists the sizes that occur, ascending, and ``counts[i-1, c]``
    counts the items (runs or zones) of gray level i and size
    ``sizes[c]``: no column of ``counts`` is all zero. ``sites`` is what
    the items are a percentage of: ROI voxels times directions for runs,
    ROI voxels for zones.
    """

    counts: np.ndarray = field(repr=False)
    sizes: np.ndarray = field(repr=False)
    sites: int

    def __post_init__(self):
        self.counts.setflags(write=False)
        self.sizes.setflags(write=False)


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


def _count_pairs(rows: np.ndarray, cols: np.ndarray, shape) -> np.ndarray:
    """counts[r, c] = how often (r, c) occurs among zero-based index pairs."""
    return np.bincount(rows.astype(np.int64) * shape[1] + cols,
                       minlength=shape[0] * shape[1]).reshape(shape)


def build_glcm(disc: DiscretizedRoi, offsets) -> GlcMatrix:
    """Co-occurrence matrix over the voxel ``offsets``, symmetrized.

    Ordered voxel pairs of every offset are counted in one pass, pairs
    with an out-of-ROI voxel (level 0) are dropped, the transpose is
    added, and counts are normalized to probabilities.
    """
    ng = disc.num_gray_levels
    views = [_offset_views(disc.levels, off) for off in offsets]
    counts = _count_pairs(np.concatenate([a.ravel() for a, _ in views]),
                          np.concatenate([b.ravel() for _, b in views]),
                          (ng + 1, ng + 1))[1:, 1:]
    counts = counts + counts.T
    total = counts.sum()
    if total == 0:
        raise NoValidPairs("no in-ROI voxel pair at distance 1")
    return GlcMatrix(counts / total)


def _padded(levels: np.ndarray, offsets) -> tuple[np.ndarray, list[int]]:
    """The grid with a one-voxel zero border, flat, and each offset's shift.

    An offset from (x, y, z) to (x + dx, y + dy, z + dz) is the step
    ``shift`` in the flat array (taken as positive: a line read backwards
    holds the same runs). The border keeps every neighbour of a grid voxel
    inside the array, and no step from a grid voxel wraps from one row
    into the next: the border, like any level-0 voxel, never matches a
    nonzero voxel.
    """
    padded = np.zeros([n + 2 for n in levels.shape], dtype=levels.dtype)
    padded[1:-1, 1:-1, 1:-1] = levels
    _, ny, nz = padded.shape
    return (padded.reshape(-1),
            [abs((dx * ny + dy) * nz + dz) for dx, dy, dz in offsets])


def _size_matrix(levels: np.ndarray, sizes: np.ndarray, ng: int,
                 sites: int) -> SizeMatrix:
    """Items by level and by each size that occurs, sizes ascending."""
    occurs = np.bincount(sizes) > 0
    column = np.cumsum(occurs) - 1
    return SizeMatrix(_count_pairs(levels - 1, column[sizes],
                                   (ng, int(column[-1]) + 1)),
                      np.flatnonzero(occurs), sites)


def build_glrlm(disc: DiscretizedRoi, offsets) -> SizeMatrix:
    """Run-length matrix, directions summed into one matrix.

    Maximal runs of consecutive equal nonzero levels are counted along
    every direction of ``offsets`` (with ``OFFSETS_2D``, runs never leave
    their slice); out-of-ROI voxels terminate runs.

    The padded flat grid (:func:`_padded`), read as columns of a
    direction's shift ``s``, lays every line along it end to end, in
    order: column r holds the voxels r, r + s, r + 2s, ... Every column
    starts on the border, as no grid voxel's flat index is below the
    largest shift, and the voxels dropped past the last whole row are
    border too, so no run joins two lines or is cut short. The columns of
    every direction go into one array, whose runs are those of all
    directions pooled.
    """
    flat, shifts = _padded(disc.levels, offsets)
    widths = [flat.size - flat.size % s for s in shifts]
    # the smallest type that holds every level, so each pass reads less
    lines = np.empty(sum(widths), np.min_scalar_type(disc.num_gray_levels))
    at = 0
    for s, w in zip(shifts, widths):
        lines[at:at + w].reshape(s, w // s)[...] = flat[:w].reshape(-1, s).T
        at += w
    # lines starts and ends on the border, so a nonzero run starts just
    # after a change and ends just before one
    change = lines[1:] != lines[:-1]
    inside = lines > 0
    starts = np.flatnonzero(change & inside[1:]) + 1
    ends = np.flatnonzero(change & inside[:-1]) + 1
    return _size_matrix(lines[starts], ends - starts, disc.num_gray_levels,
                        disc.num_roi_voxels * len(offsets))


def label_zones(levels: np.ndarray, offsets) -> tuple[int, np.ndarray]:
    """Connected zones of equal nonzero level: (zone count, zone per voxel).

    The graph's nodes are the nonzero voxels of ``levels`` in C order;
    its edges join neighbours of equal level along ``offsets`` (each
    offset also joins its opposite). Every node starts as its own root.
    Each round hooks the larger root of every edge whose ends have
    different roots onto the smaller one, then jumps pointers until each
    node points at its root; the rounds end when no edge crosses two
    roots. A zone's root is its first voxel, and zones are numbered in
    that order. The returned array gives the zone of each nonzero voxel.
    """
    flat, shifts = _padded(levels, offsets)
    tails, heads = [], []
    for shift in shifts:
        near, far = flat[:-shift], flat[shift:]
        joined = np.flatnonzero((near == far) & (near > 0))
        tails.append(joined)
        heads.append(joined + shift)
    tail, head = np.concatenate(tails), np.concatenate(heads)
    root = np.arange(flat.size)
    # Edges are kept as the pair of their ends' roots: after the jumps a
    # node and its old root point at the same new root.
    while tail.size:
        np.minimum.at(root, np.maximum(tail, head), np.minimum(tail, head))
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
        tail, head = root[tail], root[head]
        crossing = tail != head
        tail, head = tail[crossing], head[crossing]
    voxels = np.flatnonzero(flat)
    is_root = np.zeros(flat.size, dtype=bool)
    is_root[voxels] = root[voxels] == voxels
    return int(is_root.sum()), (np.cumsum(is_root) - 1)[root[voxels]]


def build_glszm(disc: DiscretizedRoi, offsets) -> SizeMatrix:
    """Size-zone matrix: connected zones of equal nonzero level.

    Zones are the connected components (:func:`label_zones`) of one graph
    over the in-ROI voxels whose edges join neighbours of equal level
    along ``offsets``: with ``OFFSETS_3D`` 26-connectivity, with
    ``OFFSETS_2D`` 8-connectivity within each axial slice (no offset
    leaves its slice). One labelling covers every level; absent levels
    keep all-zero rows.
    """
    num_zones, zone = label_zones(disc.levels, offsets)
    zone_level = np.zeros(num_zones, dtype=disc.levels.dtype)
    zone_level[zone] = disc.levels[disc.levels > 0]
    sizes = np.bincount(zone, minlength=num_zones)
    return _size_matrix(zone_level, sizes, disc.num_gray_levels,
                        disc.num_roi_voxels)
