import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import radrep.texture_matrices
from radrep.features import glrlm_features, glszm_features
from radrep.texture_matrices import (OFFSETS, OFFSETS_2D, OFFSETS_3D,
                                     NeighbourGraph, NoValidPairs, SizeMatrix,
                                     build_glcm, build_glrlm, build_glszm,
                                     label_zones)

from radrep.discretize import discretize_roi

from conftest import (crop_masks, graph_of, make_disc, make_mask, make_volume,
                      random_levels)
from oracles import (brute_glcm, brute_glrlm, brute_glszm, brute_levels,
                     dense_counts)


# ---------------------------------------------------------------------------
# GLCM
# ---------------------------------------------------------------------------

def test_glcm_hand_case_horizontal():
    disc = make_disc([[1, 1, 2], [2, 2, 3]])
    glcm = build_glcm(disc, graph_of(disc, [(0, 1, 0)]))
    expected = np.array([
        [0.25, 0.125, 0.0],
        [0.125, 0.25, 0.125],
        [0.0, 0.125, 0.0],
    ])
    assert np.allclose(glcm.probs, expected)


def test_glcm_constant_roi():
    disc = make_disc(np.ones((3, 3, 2), dtype=np.int32))
    glcm = build_glcm(disc, graph_of(disc, OFFSETS_3D))
    assert glcm.probs.shape == (1, 1)
    assert glcm.probs[0, 0] == 1.0


def test_glcm_single_voxel_has_no_pairs():
    levels = np.zeros((3, 3, 1), dtype=np.int32)
    levels[1, 1, 0] = 1
    disc = make_disc(levels)
    with pytest.raises(NoValidPairs):
        build_glcm(disc, graph_of(disc, OFFSETS_2D))


def test_glcm_matches_bruteforce_3d(rng):
    for _ in range(15):
        levels = random_levels(rng, (5, 5, 3), ng=4)
        disc = make_disc(levels)
        glcm = build_glcm(disc, graph_of(disc, OFFSETS_3D))
        counts = brute_glcm(levels, OFFSETS_3D)
        assert np.allclose(glcm.probs, counts / counts.sum())


def test_glcm_matches_bruteforce_2d(rng):
    for _ in range(15):
        levels = random_levels(rng, (6, 6, 2), ng=3)
        disc = make_disc(levels)
        glcm = build_glcm(disc, graph_of(disc, OFFSETS_2D))
        counts = brute_glcm(levels, OFFSETS_2D)
        assert np.allclose(glcm.probs, counts / counts.sum())


def test_glcm_symmetry_and_mass(rng):
    levels = random_levels(rng, (7, 6, 3), ng=5)
    disc = make_disc(levels)
    glcm = build_glcm(disc, graph_of(disc, OFFSETS_3D))
    assert np.array_equal(glcm.probs, glcm.probs.T)
    assert glcm.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert (glcm.probs >= 0).all()


def test_glcm_invariant_to_out_of_roi_intensities(rng):
    # end-to-end: whatever intensity the out-of-ROI voxels carry, the
    # discretized levels there are 0 and the GLCM cannot see them
    values = rng.normal(size=(5, 5, 2)) * 20
    labels = (rng.random((5, 5, 2)) < 0.6).astype(np.uint8)
    labels[2, 2, 0] = 1
    labels[2, 3, 0] = 1
    mask = make_mask(labels)
    graph = NeighbourGraph(mask.inside, OFFSETS_3D)
    base = build_glcm(discretize_roi(make_volume(values), mask, 5.0), graph)
    tampered = values.copy()
    tampered[labels == 0] = 1e8
    again = build_glcm(discretize_roi(make_volume(tampered), mask, 5.0), graph)
    assert np.array_equal(base.probs, again.probs)


# ---------------------------------------------------------------------------
# GLRLM
# ---------------------------------------------------------------------------

def test_glrlm_hand_case_strip():
    disc = make_disc(np.array([[2, 2, 2, 1]], dtype=np.int32))
    glrlm = build_glrlm(disc, graph_of(disc, [(0, 1, 0)]))
    assert dense_counts(glrlm)[1, 2] == 1  # level 2, length 3
    assert dense_counts(glrlm)[0, 0] == 1  # level 1, length 1
    assert glrlm.counts.sum() == 2


def test_glrlm_constant_strip_single_run():
    n = 7
    disc = make_disc(np.full((1, n), 3, dtype=np.int32))
    glrlm = build_glrlm(disc, graph_of(disc, [(0, 1, 0)]))
    assert dense_counts(glrlm)[2, n - 1] == 1
    assert glrlm.counts.sum() == 1


def test_glrlm_out_of_roi_terminates_runs():
    disc = make_disc(np.array([[1, 1, 0, 1]], dtype=np.int32))
    glrlm = build_glrlm(disc, graph_of(disc, [(0, 1, 0)]))
    assert dense_counts(glrlm)[0, 1] == 1  # run of length 2
    assert dense_counts(glrlm)[0, 0] == 1  # run of length 1
    assert glrlm.counts.sum() == 2


def test_glrlm_matches_bruteforce_2d(rng):
    for _ in range(15):
        levels = random_levels(rng, (6, 6, 1), ng=3)
        disc = make_disc(levels)
        glrlm = build_glrlm(disc, graph_of(disc, OFFSETS_2D))
        expected = brute_glrlm(levels, OFFSETS_2D)
        assert np.array_equal(dense_counts(glrlm), expected)


def test_glrlm_matches_bruteforce_3d(rng):
    for _ in range(10):
        levels = random_levels(rng, (5, 4, 3), ng=4)
        disc = make_disc(levels)
        glrlm = build_glrlm(disc, graph_of(disc, OFFSETS_3D))
        expected = brute_glrlm(levels, OFFSETS_3D)
        assert np.array_equal(dense_counts(glrlm), expected)


def test_glrlm_per_direction_voxel_conservation(rng):
    levels = random_levels(rng, (5, 5, 3), ng=3)
    disc = make_disc(levels)
    nv = int(np.count_nonzero(levels))
    for direction in OFFSETS_3D:
        single = build_glrlm(disc, graph_of(disc, [direction]))
        assert int((single.counts * single.sizes).sum()) == nv


@st.composite
def run_grids(draw):
    """(levels, dim, directions) for the builders' property tests.

    Grids of 1-7 voxels per axis, cropped to the ROI's bounding box as
    ``discretize_roi`` crops them, so the ROI touches every face of the
    grid: random levels with holes, constant fills (every line is one
    run), constant fills with holes, separate parts (voxels two apart on
    every axis, so no two touch), single voxels and boxes one voxel thick
    along an axis. Ng reaches past 255 on some grids. ``directions`` is
    None or a subset of the dimension's offsets and their opposites.
    """
    shape = [draw(st.integers(1, 7)) for _ in range(3)]
    kind = draw(st.sampled_from(("random", "constant", "holed", "parts",
                                 "single", "thin")))
    if kind == "single":
        shape = [1, 1, 1]
    elif kind == "thin":
        shape[draw(st.integers(0, 2))] = 1
    ng = draw(st.sampled_from((1, 2, 3, 4, 300)))
    if kind in ("constant", "holed"):
        levels = np.full(shape, draw(st.integers(1, ng)), dtype=np.int32)
        if kind == "holed":  # the holes leave the box's corners in the ROI
            holes = draw(hnp.arrays(bool, shape))
            holes[tuple(np.indices((2, 2, 2)).reshape(3, -1)
                        * (np.array(shape) - 1)[:, None])] = False
            levels[holes] = 0
    elif kind == "parts":
        levels = np.zeros(shape, dtype=np.int32)
        lattice = levels[::2, ::2, ::2]
        lattice[...] = draw(hnp.arrays(np.int32, lattice.shape,
                                       elements=st.integers(0, ng)))
        levels[0, 0, 0] = levels[tuple((n - 1) // 2 * 2 for n in shape)] = ng
        box = tuple(slice(idx.min(), idx.max() + 1)
                    for idx in np.nonzero(levels))
        levels = levels[box]
    else:
        levels = draw(hnp.arrays(np.int32, shape, elements=st.integers(0, ng)))
        levels.flat[draw(st.integers(0, levels.size - 1))] = ng
        box = tuple(slice(idx.min(), idx.max() + 1)
                    for idx in np.nonzero(levels))
        levels = levels[box]
    dim = draw(st.sampled_from(("2D", "3D")))
    offsets = OFFSETS[dim]
    offsets += tuple(tuple(-d for d in o) for o in offsets)
    directions = draw(st.none() | st.lists(st.sampled_from(offsets),
                                           min_size=1, unique=True))
    return levels, dim, directions


@settings(max_examples=300, deadline=None)
@given(run_grids())
def test_glrlm_matches_bruteforce_on_edge_case_grids(grid):
    levels, dim, directions = grid
    dirs = OFFSETS[dim] if directions is None else directions
    disc = make_disc(levels)
    glrlm = build_glrlm(disc, graph_of(disc, dirs))
    assert np.array_equal(dense_counts(glrlm), brute_glrlm(levels, dirs))
    assert glrlm.sites == np.count_nonzero(levels) * len(dirs)


@settings(max_examples=300, deadline=None)
@given(run_grids())
def test_one_graph_serves_every_builder_on_edge_case_grids(grid):
    levels, dim, directions = grid
    dirs = OFFSETS[dim] if directions is None else directions
    disc = make_disc(levels)
    graph = graph_of(disc, dirs)
    # the nodes are the ROI voxels in C order, and every direction's lines
    # hold each node once
    assert np.array_equal(graph.voxels, np.flatnonzero(levels))
    assert graph.directions == len(dirs)
    assert (np.bincount(graph.lines, minlength=graph.voxels.size)
            == len(dirs)).all()
    pairs = brute_glcm(levels, dirs)
    if pairs.any():
        assert np.array_equal(build_glcm(disc, graph).probs,
                              pairs / pairs.sum())
    else:
        with pytest.raises(NoValidPairs):
            build_glcm(disc, graph)
    assert np.array_equal(dense_counts(build_glrlm(disc, graph)),
                          brute_glrlm(levels, dirs))
    assert np.array_equal(dense_counts(build_glszm(disc, graph)),
                          brute_glszm(levels, dirs))


# ---------------------------------------------------------------------------
# GLSZM
# ---------------------------------------------------------------------------

def test_glszm_constant_roi_single_zone():
    levels = np.zeros((4, 4, 2), dtype=np.int32)
    levels[1:3, 1:3, :] = 1
    disc = make_disc(levels)
    glszm = build_glszm(disc, graph_of(disc, OFFSETS_3D))
    assert glszm.counts.sum() == 1
    assert dense_counts(glszm)[0, 7] == 1  # 8 voxels


def test_glszm_checkerboard_2d():
    board = np.indices((4, 4)).sum(axis=0) % 2 + 1
    disc = make_disc(board.astype(np.int32))
    glszm = build_glszm(disc, graph_of(disc, OFFSETS_2D))
    # 8-connectivity joins each color diagonally: 2 zones of size 8
    assert glszm.counts.sum() == 2
    assert dense_counts(glszm)[0, 7] == 1
    assert dense_counts(glszm)[1, 7] == 1


def test_glszm_matches_bruteforce_3d(rng):
    for _ in range(12):
        levels = random_levels(rng, (5, 5, 2), ng=3)
        disc = make_disc(levels)
        glszm = build_glszm(disc, graph_of(disc, OFFSETS_3D))
        expected = brute_glszm(levels, "3D")
        assert np.array_equal(dense_counts(glszm), expected)


def test_glszm_matches_bruteforce_2d(rng):
    for _ in range(12):
        levels = random_levels(rng, (5, 4, 3), ng=3)
        disc = make_disc(levels)
        glszm = build_glszm(disc, graph_of(disc, OFFSETS_2D))
        expected = brute_glszm(levels, "2D")
        assert np.array_equal(dense_counts(glszm), expected)


def test_glszm_absent_middle_level_keeps_zero_row():
    values = np.zeros((4, 3, 2))
    values[2:, :, 1] = 25.0
    disc = discretize_roi(make_volume(values), make_mask(np.ones(values.shape)),
                          10.0)
    assert disc.num_gray_levels == 3
    assert set(np.unique(disc.levels).tolist()) == {1, 3}
    for dim in ("2D", "3D"):
        glszm = build_glszm(disc, graph_of(disc, OFFSETS[dim]))
        assert np.array_equal(dense_counts(glszm),
                              brute_glszm(disc.levels, dim))
        assert not glszm.counts[1].any()


def test_glszm_2d_keeps_adjacent_slices_apart():
    levels = np.zeros((3, 3, 3), dtype=np.int32)
    levels[1, 1, :] = 2
    levels[0, 0, 1] = 1
    disc = make_disc(levels)
    glszm_2d = build_glszm(disc, graph_of(disc, OFFSETS_2D))
    assert dense_counts(glszm_2d)[1].tolist() == [3]  # three one-voxel zones
    assert np.array_equal(dense_counts(glszm_2d), brute_glszm(levels, "2D"))
    glszm_3d = build_glszm(disc, graph_of(disc, OFFSETS_3D))
    assert dense_counts(glszm_3d)[1].tolist() == [0, 0, 1]
    assert dense_counts(glszm_3d)[0].tolist() == [1, 0, 0]


def test_glszm_voxel_conservation(rng):
    for dim in ("2D", "3D"):
        levels = random_levels(rng, (6, 5, 3), ng=4)
        disc = make_disc(levels)
        glszm = build_glszm(disc, graph_of(disc, OFFSETS[dim]))
        assert (int((glszm.counts * glszm.sizes).sum())
                == np.count_nonzero(levels))


# ---------------------------------------------------------------------------
# Only the sizes that occur
# ---------------------------------------------------------------------------

@st.composite
def size_grids(draw):
    """(levels, dim, directions, extra sizes) for the layout property test.

    Grids of 1-6 voxels per axis with Ng 1-5 and at least one ROI voxel;
    ``directions`` is None or a subset of the dimension's offsets and
    their opposites; the extra sizes are where empty columns go.
    """
    shape = [draw(st.integers(1, 6)) for _ in range(3)]
    ng = draw(st.integers(1, 5))
    levels = draw(hnp.arrays(np.int32, shape, elements=st.integers(0, ng)))
    levels.flat[draw(st.integers(0, levels.size - 1))] = ng
    dim = draw(st.sampled_from(("2D", "3D")))
    offsets = OFFSETS[dim]
    offsets += tuple(tuple(-d for d in o) for o in offsets)
    directions = draw(st.none() | st.lists(st.sampled_from(offsets),
                                           min_size=1, unique=True))
    extra = draw(st.sets(st.integers(1, 2 * max(shape) * len(offsets))))
    return levels, dim, directions, extra


def _with_empty_columns(m: SizeMatrix, extra) -> SizeMatrix:
    """``m`` with an all-zero column at every size of ``extra`` it lacks."""
    sizes = np.union1d(m.sizes, list(extra)).astype(m.sizes.dtype)
    counts = np.zeros((m.counts.shape[0], sizes.size), dtype=m.counts.dtype)
    counts[:, np.searchsorted(sizes, m.sizes)] = m.counts
    return SizeMatrix(counts, sizes, m.sites)


@settings(max_examples=200, deadline=None)
@given(size_grids())
def test_size_matrices_keep_only_the_sizes_that_occur(grid):
    levels, dim, directions, extra = grid
    disc = make_disc(levels)
    dirs = OFFSETS[dim] if directions is None else directions
    graph = graph_of(disc, dirs)
    for m, oracle, features in (
            (build_glrlm(disc, graph), brute_glrlm(levels, dirs),
             glrlm_features),
            (build_glszm(disc, graph), brute_glszm(levels, dirs),
             glszm_features)):
        assert (np.diff(m.sizes) > 0).all()
        assert m.counts.any(axis=0).all()
        assert np.array_equal(dense_counts(m), oracle)
        # empty columns, wherever they sit, leave every bit unchanged
        bits = {k: v.hex() for k, v in features(m).entries.items()}
        padded = features(_with_empty_columns(m, extra)).entries
        assert {k: v.hex() for k, v in padded.items()} == bits


def test_size_matrix_width_is_the_number_of_distinct_sizes(rng):
    levels = np.ones((60, 60, 10), dtype=np.int32)  # one zone of 36,000
    disc = make_disc(levels)
    assert build_glszm(disc, graph_of(disc, OFFSETS_3D)).counts.shape == (1, 1)
    for dim in ("2D", "3D"):
        levels = random_levels(rng, (9, 8, 4), ng=3)
        disc = make_disc(levels)
        graph = graph_of(disc, OFFSETS[dim])
        for m, oracle in ((build_glrlm(disc, graph),
                           brute_glrlm(levels, OFFSETS[dim])),
                          (build_glszm(disc, graph), brute_glszm(levels, dim))):
            assert m.counts.shape == (disc.num_gray_levels,
                                      np.count_nonzero(oracle.any(axis=0)))


# ---------------------------------------------------------------------------
# 2D/3D consistency on single-slice ROIs
# ---------------------------------------------------------------------------

def test_single_slice_2d_equals_3d(rng):
    levels = random_levels(rng, (6, 6, 1), ng=4)
    disc = make_disc(levels)

    graph_2d = graph_of(disc, OFFSETS_2D)
    glszm_2d = build_glszm(disc, graph_2d)
    glszm_3d = build_glszm(disc, graph_of(disc, OFFSETS_3D))
    assert np.array_equal(dense_counts(glszm_2d), dense_counts(glszm_3d))

    # the 3D offsets restricted to the slice plane
    in_plane = graph_of(disc, [o for o in OFFSETS_3D if o[2] == 0])
    glcm_2d = build_glcm(disc, graph_2d)
    glcm_3d_restricted = build_glcm(disc, in_plane)
    assert np.allclose(glcm_2d.probs, glcm_3d_restricted.probs)

    glrlm_2d = build_glrlm(disc, graph_2d)
    glrlm_3d_restricted = build_glrlm(disc, in_plane)
    assert np.array_equal(dense_counts(glrlm_2d),
                          dense_counts(glrlm_3d_restricted))


# ---------------------------------------------------------------------------
# Builders on the bounding-box crop of discretize_roi
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim, shape", [("2D", (7, 6, 3)), ("3D", (6, 5, 4))])
def test_cropped_builders_match_full_grid_oracles(rng, dim, shape):
    offsets = OFFSETS[dim]
    for _ in range(3):
        values = rng.normal(size=shape) * 30
        for labels in crop_masks(rng, shape):
            mask = make_mask(labels)
            disc = discretize_roi(make_volume(values), mask, 7.0)
            graph = NeighbourGraph(mask.inside, offsets)
            full = brute_levels(values, labels, 7.0)
            pairs = brute_glcm(full, offsets)
            if pairs.any():
                assert np.array_equal(build_glcm(disc, graph).probs,
                                      pairs / pairs.sum())
            else:
                with pytest.raises(NoValidPairs):
                    build_glcm(disc, graph)
            assert np.array_equal(dense_counts(build_glrlm(disc, graph)),
                                  brute_glrlm(full, offsets))
            assert np.array_equal(dense_counts(build_glszm(disc, graph)),
                                  brute_glszm(full, dim))


def test_small_roi_builders_work_on_the_crop(rng):
    values = rng.normal(size=(64, 64, 16)) * 30
    labels = np.zeros(values.shape, dtype=np.uint8)
    labels[30:35, 10:14, 7:10] = rng.random((5, 4, 3)) < 0.8
    labels[30, 10, 7] = labels[34, 13, 9] = 1
    disc = discretize_roi(make_volume(values), make_mask(labels), 10.0)
    assert disc.levels.shape == (5, 4, 3)
    full = make_disc(brute_levels(values, labels, 10.0))
    for dim in ("2D", "3D"):
        crop, whole = graph_of(disc, OFFSETS[dim]), graph_of(full, OFFSETS[dim])
        assert np.array_equal(build_glcm(disc, crop).probs,
                              build_glcm(full, whole).probs)
        assert np.array_equal(dense_counts(build_glrlm(disc, crop)),
                              dense_counts(build_glrlm(full, whole)))
        assert np.array_equal(dense_counts(build_glszm(disc, crop)),
                              dense_counts(build_glszm(full, whole)))


@pytest.mark.parametrize("dim", ["2D", "3D"])
@pytest.mark.parametrize("field", ["many-levels", "large-zones"])
def test_builders_match_oracles_at_extreme_gray_level_counts(rng, dim, field):
    shape = (8, 7, 4)
    if field == "many-levels":
        # every voxel its own intensity: bin width 1 gives Ng near the ROI size
        values = rng.permutation(np.prod(shape)).reshape(shape) * 1.0
        bin_width = 1.0
    else:
        # a smooth ramp binned coarsely: Ng <= 4, zones span the crop
        values = np.indices(shape).sum(axis=0) * 10.0 + rng.random(shape)
        bin_width = 50.0
    offsets = OFFSETS[dim]
    for labels in crop_masks(rng, shape):
        mask = make_mask(labels)
        disc = discretize_roi(make_volume(values), mask, bin_width)
        graph = NeighbourGraph(mask.inside, offsets)
        if field == "many-levels" and labels.sum() > 1:
            assert disc.num_gray_levels >= 150
        elif field == "large-zones":
            assert disc.num_gray_levels <= 4
        full = brute_levels(values, labels, bin_width)
        pairs = brute_glcm(full, offsets)
        if pairs.any():
            assert np.array_equal(build_glcm(disc, graph).probs,
                                  pairs / pairs.sum())
        assert np.array_equal(dense_counts(build_glrlm(disc, graph)),
                              brute_glrlm(full, offsets))
        assert np.array_equal(dense_counts(build_glszm(disc, graph)),
                              brute_glszm(full, dim))


@pytest.mark.parametrize("dim", ["2D", "3D"])
def test_glszm_labels_all_levels_in_one_call(rng, monkeypatch, dim):
    calls = []
    original = radrep.texture_matrices.label_zones

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(radrep.texture_matrices, "label_zones", counting)
    levels = random_levels(rng, (6, 6, 3), ng=20)
    disc = make_disc(levels)
    glszm = build_glszm(disc, graph_of(disc, OFFSETS[dim]))
    assert len(calls) == 1
    assert np.array_equal(dense_counts(glszm), brute_glszm(levels, dim))


def _serpentine(shape):
    """One path of level 1 that winds row by row through the first slice
    and, through a single voxel, on through the last one."""
    nx, ny, nz = shape
    levels = np.zeros(shape, dtype=np.int32)
    for z in (0, nz - 1):
        levels[0::2, :, z] = 1
        for x in range(1, nx, 2):  # connectors at alternating ends
            levels[x, ny - 1 if x % 4 == 1 else 0, z] = 1
    levels[nx - 1, ny - 1, 1:nz - 1] = 1
    return levels


def _zones(levels, offsets):
    """``label_zones`` of the ROI voxels (nonzero levels) of ``levels``."""
    return label_zones(levels[levels > 0],
                       NeighbourGraph(levels > 0, offsets))


def _zone_sizes(levels, dim):
    """Size of each zone ``label_zones`` finds, as a level x size matrix."""
    count, zone = _zones(levels, OFFSETS[dim])
    voxel_levels = levels[levels > 0]
    counts = np.zeros((int(levels.max()), int(np.bincount(zone).max())),
                      dtype=np.int64)
    for z in range(count):
        members = zone == z
        level = set(voxel_levels[members].tolist())
        assert len(level) == 1  # a zone never mixes levels
        counts[level.pop() - 1, members.sum() - 1] += 1
    return counts, zone


@pytest.mark.parametrize("dim", ["2D", "3D"])
def test_label_zones_match_flood_fill(rng, dim):
    grids = [random_levels(rng, shape, ng=ng, roi_fraction=fraction)
             for shape, ng, fraction in (((6, 6, 3), 2, 0.9), ((7, 5, 4), 5, 0.6),
                                         ((9, 8, 2), 1, 0.5), ((2, 1, 1), 1, 1.0),
                                         ((11, 9, 5), 3, 0.95))]
    grids += [_serpentine((9, 9, 3)), _serpentine((13, 6, 4))]
    for levels in grids:
        counts, zone = _zone_sizes(levels, dim)
        assert np.array_equal(counts, brute_glszm(levels, dim))
        # zones are numbered in the order their first voxel appears
        first = np.unique(zone, return_index=True)[1]
        assert np.array_equal(zone[np.sort(first)], np.arange(zone.max() + 1))


def test_serpentine_is_one_zone_in_3d_and_one_per_slice_in_2d():
    levels = _serpentine((9, 9, 3))
    assert _zones(levels, OFFSETS_3D)[0] == 1
    # 2D: the two winding slices and the connector voxel between them
    assert _zones(levels, OFFSETS_2D)[0] == 3
    disc = make_disc(levels)
    assert dense_counts(build_glszm(disc, graph_of(disc, OFFSETS_3D)))[0, -1] == 1
