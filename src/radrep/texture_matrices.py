"""GLCM, GLRLM, and GLSZM construction from a discretized ROI.

All builders count with integers and normalize (where applicable) as the
final step, so results are independent of traversal or aggregation
order. A mask's neighbourhood does not depend on intensity: it is built
once per (mask, offsets) as a :class:`NeighbourGraph`, whose pairs, lines
and edges every cell's builders read. ``OFFSETS`` holds the offsets in
use, by dimensionality: ``OFFSETS_3D``, the 13 unique voxel offsets
(26-connectivity), and ``OFFSETS_2D``, the 4 in-plane offsets
(8-connectivity within an axial slice). 2D variants merge counts across
slices and directions into one matrix before any feature is computed.

GLRLM and GLSZM are one family: both builders return a
:class:`SizeMatrix`, items (runs or zones) counted by gray level and by
each size that occurs, so its width is the number of distinct sizes.

Each builder gathers its cell's levels at the graph's nodes and makes one
vectorised pass: GLCM one bincount over the node pairs, GLRLM one
run-length pass over the lines, GLSZM one connected-components labelling
of all levels over the pairs of equal level (:func:`label_zones`).
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


class NeighbourGraph:
    """The ROI voxels of a mask's ``inside`` crop (the box of its level
    grids) and their neighbours along ``offsets``.

    The nodes are ``voxels``, the ROI voxels' flat crop indices in C
    order. ``tails[k]`` and ``heads[k]`` are the nodes of the k-th
    neighbour pair, over every offset; ``lines`` lays every direction's
    lines of ROI nodes end to end, ``breaks`` is True where a line starts;
    ``directions`` counts the offsets.

    Both come from the crop with a one-voxel border, flattened, where an
    offset is one flat step ``s`` (taken as positive: a line read
    backwards holds the same runs) that never wraps from a crop voxel
    into the next row. Read as columns of ``s``, the array lays every line
    along the offset end to end: column r holds the voxels r, r + s, ...
    Every column starts on the border, as no crop voxel's flat index is
    below the largest step, and the voxels dropped past the last whole
    row are border too, so each run of ROI voxels in a column is a line.
    """

    def __init__(self, inside: np.ndarray, offsets):
        padded = np.pad(inside, 1)
        _, ny, nz = padded.shape
        flat = padded.reshape(-1)
        node = np.full(flat.size, -1)
        node[flat] = np.arange(np.count_nonzero(flat))
        tails, heads, lines, breaks = [], [], [], []
        for dx, dy, dz in offsets:
            s = abs((dx * ny + dy) * nz + dz)
            joined = np.flatnonzero(flat[:-s] & flat[s:])
            tails.append(node[joined])
            heads.append(node[joined + s])
            w = flat.size - flat.size % s
            columns = node[:w].reshape(-1, s).T.reshape(-1)
            on = columns >= 0  # on[0] is False: index 0 is border
            lines.append(columns[on])
            breaks.append(~on[:-1][on[1:]])
        self.voxels = np.flatnonzero(inside)
        self.tails, self.heads = np.concatenate(tails), np.concatenate(heads)
        self.lines, self.breaks = np.concatenate(lines), np.concatenate(breaks)
        self.directions = len(offsets)
        for array in (self.voxels, self.tails, self.heads, self.lines,
                      self.breaks):
            array.setflags(write=False)


def _count_pairs(rows: np.ndarray, cols: np.ndarray, shape) -> np.ndarray:
    """counts[r, c] = how often (r, c) occurs among zero-based index pairs."""
    return np.bincount(rows.astype(np.int64) * shape[1] + cols,
                       minlength=shape[0] * shape[1]).reshape(shape)


def build_glcm(disc: DiscretizedRoi, graph: NeighbourGraph) -> GlcMatrix:
    """Co-occurrence matrix over the graph's node pairs, symmetrized.

    The level pairs of every offset are counted in one pass, the
    transpose is added, and counts are normalized to probabilities.
    """
    ng = disc.num_gray_levels
    level = disc.levels.reshape(-1)[graph.voxels] - 1
    counts = _count_pairs(level[graph.tails], level[graph.heads], (ng, ng))
    counts = counts + counts.T
    total = counts.sum()
    if total == 0:
        raise NoValidPairs("no in-ROI voxel pair at distance 1")
    return GlcMatrix(counts / total)


def _size_matrix(levels: np.ndarray, sizes: np.ndarray, ng: int,
                 sites: int) -> SizeMatrix:
    """Items by level and by each size that occurs, sizes ascending."""
    occurs = np.bincount(sizes) > 0
    column = np.cumsum(occurs) - 1
    return SizeMatrix(_count_pairs(levels - 1, column[sizes],
                                   (ng, int(column[-1]) + 1)),
                      np.flatnonzero(occurs), sites)


def build_glrlm(disc: DiscretizedRoi, graph: NeighbourGraph) -> SizeMatrix:
    """Run-length matrix, directions summed into one matrix.

    Maximal runs of consecutive equal levels are counted along every
    direction of the graph (with ``OFFSETS_2D``, runs never leave their
    slice); a run ends where its line does, at an out-of-ROI voxel or the
    box edge. The graph's ``lines`` hold every direction's lines end to
    end, so one pass counts the runs of all directions pooled.
    """
    level = disc.levels.reshape(-1)[graph.voxels]
    run = level[graph.lines]
    cut = np.append(graph.breaks, True)  # each run's start, then the end
    cut[1:-1] |= run[1:] != run[:-1]
    edges = np.flatnonzero(cut)
    starts = edges[:-1]
    return _size_matrix(run[starts], edges[1:] - starts,
                        disc.num_gray_levels,
                        disc.num_roi_voxels * graph.directions)


def label_zones(levels: np.ndarray, graph: NeighbourGraph
                ) -> tuple[int, np.ndarray]:
    """Connected zones of equal level: (zone count, zone per node).

    ``levels`` gives each node of ``graph`` its level, and the zones'
    edges are the graph's pairs whose ends have equal levels. Every node
    starts as its own root. Each round hooks the larger root of every
    edge whose ends have different roots onto the smaller one, then jumps
    pointers until each node points at its root; the rounds end when no
    edge crosses two roots. A zone's root is its first node (first voxel
    in C order), and zones are numbered in that order.
    """
    equal = levels[graph.tails] == levels[graph.heads]
    tail, head = graph.tails[equal], graph.heads[equal]
    root = np.arange(levels.size)
    # Edges are kept as the pair of their ends' roots: after the jumps a
    # node and its old root point at the same new root.
    while tail.size:
        np.minimum.at(root, np.maximum(tail, head), np.minimum(tail, head))
        jumped = root[root]
        while not (jumped == root).all():
            root, jumped = jumped, jumped[jumped]
        tail, head = root[tail], root[head]
        crossing = tail != head
        tail, head = tail[crossing], head[crossing]
    is_root = root == np.arange(root.size)
    return int(is_root.sum()), (np.cumsum(is_root) - 1)[root]


def build_glszm(disc: DiscretizedRoi, graph: NeighbourGraph) -> SizeMatrix:
    """Size-zone matrix: connected zones of equal level.

    Zones are the connected components (:func:`label_zones`) of the
    graph's pairs of equal level: with ``OFFSETS_3D`` 26-connectivity,
    with ``OFFSETS_2D`` 8-connectivity within each axial slice (no offset
    leaves its slice). One labelling covers every level; absent levels
    keep all-zero rows.
    """
    level = disc.levels.reshape(-1)[graph.voxels]
    num_zones, zone = label_zones(level, graph)
    zone_level = np.zeros(num_zones, dtype=level.dtype)
    zone_level[zone] = level
    sizes = np.bincount(zone, minlength=num_zones)
    return _size_matrix(zone_level, sizes, disc.num_gray_levels,
                        disc.num_roi_voxels)
