"""GLCM, GLRLM, and GLSZM construction from a discretized ROI.

All builders count with integers and normalize (where applicable) as the
final step, so results are independent of traversal or aggregation
order. Neighbourhoods come from one place: ``OFFSETS_3D``, the 13 unique
voxel offsets (26-connectivity), and ``OFFSETS_2D``, the 4 in-plane
offsets (8-connectivity within an axial slice). They are the GLCM pair
offsets, the GLRLM run directions and the GLSZM zone edges. 2D variants
merge counts across slices and in-plane directions into a single matrix
before any feature is computed.

Each builder makes one vectorised pass per call: GLCM one bincount over
the pairs of every offset, GLRLM one run-length pass over every
direction's lines laid end to end (:class:`RunLines`, 9 bytes per voxel
and direction: 117 bytes per crop voxel in 3D, 36 in 2D, built once per
mask by the caller), GLSZM one connected-components labelling of all
levels (:func:`label_zones`, in numpy).
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


class TextureMatrixError(RadrepError):
    pass


class NoValidPairs(TextureMatrixError):
    """ROI too small or fragmented to contain any neighbor pair."""


@dataclass(frozen=True)
class GlcMatrix:
    """Symmetric joint probability p(i, j) of gray-level co-occurrence."""

    ng: int
    probs: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.probs.setflags(write=False)


@dataclass(frozen=True)
class GlrlMatrix:
    """Run counts: counts[i-1, j-1] runs of level i with length j."""

    ng: int
    max_run_length: int
    counts: np.ndarray = field(repr=False)
    total_runs: int
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
    num_roi_voxels: int

    def __post_init__(self):
        self.counts.setflags(write=False)


def select_offsets(dim: str, offsets=None) -> tuple:
    """``offsets`` as a tuple, or by default the offsets of ``dim``."""
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


def _count_pairs(rows: np.ndarray, cols: np.ndarray, shape) -> np.ndarray:
    """counts[r, c] = how often (r, c) occurs among zero-based index pairs."""
    return np.bincount(rows.astype(np.int64) * shape[1] + cols,
                       minlength=shape[0] * shape[1]).reshape(shape)


def build_glcm(disc: DiscretizedRoi, dim: str, offsets=None) -> GlcMatrix:
    """Co-occurrence matrix over distance-1 offsets, symmetrized.

    Ordered voxel pairs of every offset are counted in one pass, pairs
    with an out-of-ROI voxel (level 0) are dropped, the transpose is
    added, and counts are normalized to probabilities. ``offsets``
    restricts the direction set (testing hook).
    """
    ng = disc.num_gray_levels
    views = [_offset_views(disc.levels, off)
             for off in select_offsets(dim, offsets)]
    counts = _count_pairs(np.concatenate([a.ravel() for a, _ in views]),
                          np.concatenate([b.ravel() for _, b in views]),
                          (ng + 1, ng + 1))[1:, 1:]
    counts = counts + counts.T
    total = counts.sum()
    if total == 0:
        raise NoValidPairs("no in-ROI voxel pair at distance 1")
    return GlcMatrix(ng=ng, probs=counts / total)


@dataclass(frozen=True)
class RunLines:
    """Voxel order that walks a grid line by line, direction by direction.

    ``order`` holds flat voxel indices into a C-ordered grid of ``dims``:
    for each direction in turn, every line parallel to it from its entry
    point to its exit, lines one after another. ``line_start`` marks the
    first voxel of each line, so the directions are concatenated without
    runs crossing from one line (or direction) into the next. It depends
    only on ``dims`` and ``directions``, so one layout serves every level
    grid of that shape: 9 bytes per voxel and direction (8 for the index,
    1 for the flag), 117 bytes per crop voxel in 3D and 36 in 2D.
    """

    dims: tuple[int, int, int]
    directions: tuple
    order: np.ndarray = field(repr=False)
    line_start: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.order.setflags(write=False)
        self.line_start.setflags(write=False)


def run_lines(dims, directions) -> RunLines:
    """The :class:`RunLines` of a grid of ``dims`` along ``directions``.

    A voxel's line id is its coordinate pulled back along the direction
    to the line's entry point; sorting by (line id, steps from the entry)
    lays each line out in order.
    """
    dims = tuple(int(n) for n in dims)
    directions = tuple(tuple(d) for d in directions)
    coords = np.indices(dims).reshape(3, -1)
    orders, starts = [], []
    for direction in directions:
        t = np.full(coords.shape[1], np.iinfo(np.int64).max, dtype=np.int64)
        for axis, d in enumerate(direction):
            if d == 1:
                t = np.minimum(t, coords[axis])
            elif d == -1:
                t = np.minimum(t, dims[axis] - 1 - coords[axis])
        entry = coords - np.multiply.outer(np.asarray(direction, dtype=np.int64), t)
        line_ids = (entry[0] * dims[1] + entry[1]) * dims[2] + entry[2]
        order = np.lexsort((t, line_ids))
        sorted_ids = line_ids[order]
        start = np.ones(order.size, dtype=bool)
        start[1:] = sorted_ids[1:] != sorted_ids[:-1]
        orders.append(order)
        starts.append(start)
    return RunLines(dims=dims, directions=directions,
                    order=np.concatenate(orders, dtype=np.intp),
                    line_start=np.concatenate(starts, dtype=bool))


def _run_length_encode(levels_sorted: np.ndarray, line_start: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """(level, length) of each maximal run of equal nonzero levels.

    A run ends where the level changes or a new line starts.
    """
    boundary = line_start.copy()
    boundary[1:] |= levels_sorted[1:] != levels_sorted[:-1]
    starts = np.flatnonzero(boundary)
    lengths = np.diff(starts, append=levels_sorted.size)
    run_levels = levels_sorted[starts]
    keep = run_levels > 0
    return run_levels[keep], lengths[keep]


def _size_counts(levels: np.ndarray, sizes: np.ndarray, ng: int) -> np.ndarray:
    """counts[i-1, s-1]: items of level i and size s; at least one column."""
    width = int(sizes.max(initial=1))
    return _count_pairs(levels - 1, sizes - 1, (ng, width))


def build_glrlm(disc: DiscretizedRoi, dim: str, directions=None,
                lines: RunLines | None = None) -> GlrlMatrix:
    """Run-length matrix, directions summed into one matrix.

    Maximal runs of consecutive equal nonzero levels are counted along
    every direction of ``OFFSETS_3D`` (3D) or ``OFFSETS_2D`` (2D, the 4
    in-plane directions, so runs never leave their slice); out-of-ROI
    voxels terminate runs. The runs of all directions are read in one
    pass over ``lines`` (built here when not given) and pooled, so the
    matrix is as wide as the longest run in any direction. ``directions``
    restricts the direction set (testing hook).
    """
    dirs = select_offsets(dim, directions)
    if lines is None:
        lines = run_lines(disc.levels.shape, dirs)
    elif lines.dims != disc.levels.shape or lines.directions != dirs:
        raise ValueError(
            f"run lines of a {lines.dims} grid along {len(lines.directions)} "
            f"directions do not fit a {disc.levels.shape} grid along "
            f"{len(dirs)} directions")
    run_levels, lengths = _run_length_encode(
        disc.levels.reshape(-1)[lines.order], lines.line_start)
    counts = _size_counts(run_levels, lengths, disc.num_gray_levels)
    return GlrlMatrix(
        ng=disc.num_gray_levels,
        max_run_length=counts.shape[1],
        counts=counts,
        total_runs=int(counts.sum()),
        num_directions=len(dirs),
        num_roi_voxels=disc.num_roi_voxels,
    )


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
    # A zero border keeps every neighbour inside the flat array, and no
    # edge wraps from one row into the next: the border, like any level-0
    # voxel, never matches a nonzero voxel.
    padded = np.zeros([n + 2 for n in levels.shape], dtype=levels.dtype)
    padded[1:-1, 1:-1, 1:-1] = levels
    _, ny, nz = padded.shape
    flat = padded.reshape(-1)
    tails, heads = [], []
    for dx, dy, dz in offsets:
        shift = abs((dx * ny + dy) * nz + dz)
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


def build_glszm(disc: DiscretizedRoi, dim: str) -> GlszMatrix:
    """Size-zone matrix: connected zones of equal nonzero level.

    Zones are the connected components (:func:`label_zones`) of one graph
    over the in-ROI voxels whose edges join neighbours of equal level
    along the offsets of ``OFFSETS_3D`` (26-connectivity in 3D) or
    ``OFFSETS_2D`` (8-connectivity within each axial slice in 2D: no
    offset leaves its slice). One labelling covers every level; absent
    levels keep all-zero rows.
    """
    num_zones, zone = label_zones(disc.levels, select_offsets(dim))
    zone_level = np.zeros(num_zones, dtype=disc.levels.dtype)
    zone_level[zone] = disc.levels[disc.levels > 0]
    counts = _size_counts(zone_level, np.bincount(zone, minlength=num_zones),
                          disc.num_gray_levels)
    return GlszMatrix(
        ng=disc.num_gray_levels,
        max_zone_size=counts.shape[1],
        counts=counts,
        total_zones=int(counts.sum()),
        num_roi_voxels=disc.num_roi_voxels,
    )
