import concurrent.futures
import csv
import hashlib
import json
import multiprocessing
import os
import re
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import radrep
from radrep.cli import main
from radrep.features import FEATURE_ROSTER
from radrep.pipeline import (GENERAL_INFO_COLUMNS, IMAGE_TYPES, META_COLUMNS,
                             ConfigCell, ManifestError, RunSettings,
                             SchemaMismatch, StaleOutputs, _analyze_group,
                             _extract_entry, _general_info, _union_box,
                             _write_csv, analyze_run, config_csv_name,
                             default_filters, extract_run, feature_columns,
                             load_manifest, parse_config_from_name,
                             plotdata_run, read_feature_csv,
                             validate_feature_csv)
from radrep.preprocess import (WAVELET_SUBBANDS_2D, WAVELET_SUBBANDS_3D,
                               FilterKind, FilterSpec, NormalizationMode)
from radrep.repeatability import FeatureKey
from radrep.texture_matrices import OFFSETS, OFFSETS_3D, NeighbourGraph
from radrep.volume_io import VolumeGrid, write_nrrd

from cohorts import DIMS, build_cohort
from conftest import make_mask, make_volume, whole_box
from oracles import brute_read_feature_csv


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


@contextmanager
def on_cpus(monkeypatch, cpus):
    """Run the block as if ``cpus`` CPUs were usable (``None``: a platform
    without ``os.sched_getaffinity``); yields the (max_workers, start
    method) of each process pool made, and checks that no worker is left."""
    pools = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, **kwargs):
            pools.append((kwargs["max_workers"],
                          kwargs["mp_context"].get_start_method()))
            super().__init__(**kwargs)

    with monkeypatch.context() as patch:
        if cpus is None:
            patch.delattr(os, "sched_getaffinity")
        else:
            patch.setattr(os, "sched_getaffinity",
                          lambda pid: set(range(cpus)))
        patch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        try:
            yield pools
        finally:
            assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

def test_manifest_missing_timepoint(tmp_path):
    manifest_path = build_cohort(tmp_path, n_subjects=1)
    doc = json.loads(manifest_path.read_text())
    doc["cohort"] = [e for e in doc["cohort"] if e["timepoint"] == 1]
    manifest_path.write_text(json.dumps(doc))
    with pytest.raises(ManifestError):
        load_manifest(manifest_path)


# int() would read the refused values as 1, 2 and 1
@pytest.mark.parametrize("timepoint, loads", [
    (1.9, False), (2.6, False), (True, False), ("2", True), (2.0, True)])
def test_manifest_timepoint_must_be_a_whole_number(tmp_path, capsys,
                                                    timepoint, loads):
    manifest_path = build_cohort(tmp_path, n_subjects=1)
    doc = json.loads(manifest_path.read_text())
    entry = next(e for e in doc["cohort"]
                 if e["timepoint"] == int(float(timepoint)))
    entry["timepoint"] = timepoint
    manifest_path.write_text(json.dumps(doc))
    if loads:
        cohort = load_manifest(manifest_path).cohort
        assert [type(e.timepoint) for e in cohort] == [int, int]
        assert sorted(e.timepoint for e in cohort) == [1, 2]
        return
    with pytest.raises(ManifestError, match="is not a whole number"):
        load_manifest(manifest_path)
    assert main(["extract", "--manifest", str(manifest_path),
                 "--out", str(tmp_path / "out")]) == 2
    assert "is not a whole number" in capsys.readouterr().err


def test_manifest_rejects_two_entries_of_one_study(tmp_path):
    manifest_path = build_cohort(tmp_path, n_subjects=2)
    doc = json.loads(manifest_path.read_text())
    doc["cohort"].append(dict(doc["cohort"][2]))
    manifest_path.write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match="subject 'sub01' has two T2AX "
                                            "entries at timepoint 1"):
        load_manifest(manifest_path)


def test_manifest_rejects_a_structure_listed_twice(tmp_path):
    manifest_path = build_cohort(tmp_path, n_subjects=1)
    doc = json.loads(manifest_path.read_text())
    masks = doc["cohort"][0]["masks"]
    masks.append(dict(masks[0]))
    manifest_path.write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match=re.escape(
            "sub00_tp1 structures repeat: ['Tumor', 'Tumor']")):
        load_manifest(manifest_path)


def test_manifest_rejects_an_entry_with_no_mask(tmp_path):
    # such an entry would be read and hashed, then write no row and no
    # failure, and its subject would lose a timepoint in every ICC
    manifest_path = build_cohort(tmp_path, n_subjects=1)
    doc = json.loads(manifest_path.read_text())
    doc["cohort"][1]["masks"] = []
    manifest_path.write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match="^sub00_tp2 lists no mask$"):
        load_manifest(manifest_path)


def test_manifest_missing_file(tmp_path):
    manifest_path = build_cohort(tmp_path, n_subjects=1)
    doc = json.loads(manifest_path.read_text())
    doc["cohort"][0]["imagePath"] = "missing.nrrd"
    manifest_path.write_text(json.dumps(doc))
    with pytest.raises(ManifestError):
        load_manifest(manifest_path)


def test_manifest_rejects_unknown_mode(tmp_path):
    manifest_path = build_cohort(tmp_path, n_subjects=1)
    doc = json.loads(manifest_path.read_text())
    doc["settings"]["normalizationModes"] = ["zscore"]
    manifest_path.write_text(json.dumps(doc))
    with pytest.raises(ManifestError):
        load_manifest(manifest_path)


@pytest.mark.parametrize("settings", [
    {"normalizationModes": ["none", "wholeImage", "none"]},
    {"binWidths": [10, 10.0]},
    {"filters": [5]},
    {"filters": "original"},
    {"binWidths": ["a"]},
    {"binWidths": 20},
    {"binWidths": [True]},
    {"binWidths": [float("nan")]},
    {"binWidths": [float("inf")]},
    {"normalizationModes": "none"},
    {"registeredMasks": "false"},
    {"biasCorrected": 1},
    {"filters": ["log-sigma-nan-mm-3D"]},
    {"filters": ["log-sigma-inf-mm-3D"]},
    {"filters": ["log-sigma-0-2-mm-3D", "log-sigma-0-25-mm-3D"]},
])
def test_manifest_rejects_repeated_cells_and_wrong_typed_settings(
        tmp_path, settings):
    manifest_path = build_cohort(tmp_path, n_subjects=1)
    doc = json.loads(manifest_path.read_text())
    doc["settings"].update(settings)
    manifest_path.write_text(json.dumps(doc))
    with pytest.raises(ManifestError):
        load_manifest(manifest_path)


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["settings"].update(dimensionality="4D"),
     "dimensionality must be 2D or 3D, got '4D'"),
    (lambda doc: doc["cohort"][0].update(timepoint=3),
     "timepoint must be 1 or 2, got 3"),
    (lambda doc: doc["cohort"][0].update(imageType="PET"),
     "unknown image type 'PET'"),
    (lambda doc: doc.update(cohort=[]), "manifest cohort is empty"),
], ids=["dimensionality-4D", "timepoint-3", "image-type-PET", "empty-cohort"])
def test_manifest_rejects_values_outside_the_study_design(tmp_path, edit,
                                                          message):
    manifest_path = build_cohort(tmp_path, n_subjects=1)
    doc = json.loads(manifest_path.read_text())
    edit(doc)
    manifest_path.write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match=f"^{re.escape(message)}$"):
        load_manifest(manifest_path)


@pytest.mark.parametrize("doc", [[], {"cohort": 5}, {"settings": []}])
def test_manifest_must_be_an_object_with_a_cohort_list(tmp_path, doc):
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match="must be a JSON object"):
        load_manifest(manifest_path)


# bin widths whose CSV-name words need an exponent, a fraction or neither
NAMED_WIDTHS = [5e-05, 1e-4, 0.5, 2.5, 10, 25, 1e5]


def test_bin_widths_round_trip_through_csv_names(tmp_path):
    widths = NAMED_WIDTHS
    manifest_path = build_cohort(tmp_path, n_subjects=1)
    doc = json.loads(manifest_path.read_text())
    doc["settings"]["binWidths"] = widths
    manifest_path.write_text(json.dumps(doc))
    settings = load_manifest(manifest_path).settings
    assert settings.bin_widths == tuple(widths)
    names = [config_csv_name("ADC", "none", w, settings) for w in widths]
    assert names[0] == "FullStudySettings_noNormalization_2D_ADC_bin5e-05.csv"
    assert [parse_config_from_name(n).bin_width for n in names] == widths


@pytest.mark.parametrize("widths", [[1234567], [1234567, 1234568]])
def test_manifest_rejects_bin_width_its_csv_name_cannot_hold(tmp_path, widths):
    # f"{1234567:g}" is 1.23457e+06, the name 1234568 gets as well
    manifest_path = build_cohort(tmp_path, n_subjects=1)
    doc = json.loads(manifest_path.read_text())
    doc["settings"]["binWidths"] = widths
    manifest_path.write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match="1234567"):
        load_manifest(manifest_path)


def test_manifest_default_filter_catalog(tmp_path):
    manifest_path = build_cohort(tmp_path, n_subjects=1)
    doc = json.loads(manifest_path.read_text())
    del doc["settings"]["filters"]
    doc["settings"]["dimensionality"] = "3D"
    manifest_path.write_text(json.dumps(doc))
    manifest = load_manifest(manifest_path)
    names = [f.name for f in manifest.settings.filters]
    assert names[0] == "original"
    assert "log-sigma-3-0-mm-3D" in names
    assert "wavelet-LLH" in names and "wavelet-HH" not in names
    assert names[-4:] == ["square", "squareroot", "logarithm", "exponential"]
    assert len(names) == 1 + 5 + 8 + 4


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------

def test_smallest_run_layout(tmp_path):
    manifest = load_manifest(build_cohort(tmp_path / "in", n_subjects=1))
    csv_paths, failures = extract_run(manifest, tmp_path / "out")
    assert not failures
    assert len(csv_paths) == 1
    name = csv_paths[0].name
    for code in ("FullStudySettings", "noNormalization", "2D", "T2AX", "bin15"):
        assert code in name
    rows = read_rows(csv_paths[0])
    assert len(rows) == 2  # 1 subject x 2 timepoints x 1 structure
    header = list(rows[0])
    for cls in ("shape", "firstorder", "glcm", "glrlm", "glszm"):
        for feature in FEATURE_ROSTER[cls]:
            assert f"original_{cls}_{feature}" in header
    assert header[-4:] == ["study", "series", "canonicalType",
                           "segmentedStructure"]
    validate_feature_csv(csv_paths[0])


def test_rows_sorted_and_meta_populated(tmp_path):
    manifest = load_manifest(build_cohort(tmp_path / "in", n_subjects=2,
                                          structures=("Tumor", "WholeGland")))
    csv_paths, _ = extract_run(manifest, tmp_path / "out")
    rows = read_rows(csv_paths[0])
    keys = [(r["study"], r["series"], r["segmentedStructure"]) for r in rows]
    assert keys == sorted(keys)
    assert {r["canonicalType"] for r in rows} == {"T2AX"}
    assert {r["segmentedStructure"] for r in rows} == {"Tumor", "WholeGland"}
    assert all(r["general_info_VoxelNum"] for r in rows)
    assert all(r["general_info_ImageHash"] != r["general_info_MaskHash"]
               for r in rows)
    # inclusive "lo_x lo_y lo_z hi_x hi_y hi_z" of each subject's block mask
    boxes = {("sub00", "Tumor"): "1 1 1 3 3 3",
             ("sub00", "WholeGland"): "2 1 1 4 3 3",
             ("sub01", "Tumor"): "1 1 1 4 4 4",
             ("sub01", "WholeGland"): "2 1 1 5 4 4"}
    for r in rows:
        subject = r["study"].split("_")[0]
        assert r["general_info_BoundingBox"] == \
            boxes[(subject, r["segmentedStructure"])]


def test_extraction_deterministic(tmp_path):
    manifest = load_manifest(build_cohort(tmp_path / "in", n_subjects=2))
    paths_a, _ = extract_run(manifest, tmp_path / "out_a")
    paths_b, _ = extract_run(manifest, tmp_path / "out_b")
    for a, b in zip(paths_a, paths_b):
        assert a.name == b.name
        assert a.read_bytes() == b.read_bytes()


def test_extraction_parallel_matches_serial(tmp_path, monkeypatch):
    settings = {"normalizationModes": ["none", "wholeImage", "referenceRegion"],
                "binWidths": [10, 20], "dimensionality": "2D"}
    manifest_path = build_cohort(tmp_path / "in", n_subjects=2,
                                 settings=settings, with_reference=True,
                                 structures=("Tumor", "WholeGland"))
    labels = np.zeros((4, 4, 2))
    labels[1, 1, 1] = 1
    write_nrrd(tmp_path / "in" / "sub01_tp1_Tumor.nrrd", labels, (1, 1, 3),
               dtype="short")
    doc = json.loads(manifest_path.read_text())
    del doc["cohort"][1]["referenceMaskPath"]
    manifest_path.write_text(json.dumps(doc))
    # the same cohort listed backwards, each entry's masks too
    doc["cohort"].reverse()
    for item in doc["cohort"]:
        item["masks"].reverse()
    manifest_path.with_name("reversed.json").write_text(json.dumps(doc))
    manifests = {order: load_manifest(manifest_path.with_name(name))
                 for order, name in (("sorted", manifest_path.name),
                                     ("reversed", "reversed.json"))}

    runs = {}
    for (jobs, cpus), order in product(((1, 2), (4, 2), (4, 1), (4, None)),
                                       manifests):
        out = tmp_path / f"jobs{jobs}_cpus{cpus}_{order}"
        with on_cpus(monkeypatch, cpus) as pools:
            paths, failures = extract_run(manifests[order], out, jobs=jobs)
        # one fork pool, of no more workers than CPUs; else in process
        assert pools == ([(2, "fork")] if (jobs, cpus) == (4, 2) else [])
        runs[jobs, cpus, order] = (
            [p.relative_to(out) for p in paths], failures,
            {p.name: p.read_bytes() for p in out.iterdir()})
    paths, failures, files = runs[1, 2, "sorted"]
    assert len(paths) == 6 and "extraction_errors.csv" in files
    assert {f.error for f in failures} == {"GeometryMismatch",
                                           "MissingReferenceMask"}
    # a failed row blanks all 6 cells, a failed mode its 2 MuscleRefNorm cells
    stems = sorted(p.stem for p in paths)
    row_failures = [f for f in failures if f.filter_name == "*"]
    assert {f.error for f in row_failures} == {"GeometryMismatch"}
    for key in {(f.study, f.structure, f.detail) for f in row_failures}:
        assert sorted(f.configuration for f in row_failures
                      if (f.study, f.structure, f.detail) == key) == stems
    mode_failures = [f for f in failures if f.error == "MissingReferenceMask"]
    assert mode_failures and all(f.detail.startswith("all: ")
                                 and "_MuscleRefNorm_" in f.configuration
                                 for f in mode_failures)
    for run in runs.values():
        assert run == runs[1, 2, "sorted"]


def _extract_entry_failing_on_sub01(entry, settings):
    # module level, so that a pool can pickle it by name
    if entry.subject_id == "sub01":
        raise RuntimeError(f"no worker may swallow this: {entry.study}")
    return _extract_entry(entry, settings)


def test_extraction_worker_error_propagates_and_leaves_no_child(
        tmp_path, monkeypatch):
    settings = {"normalizationModes": ["none"], "binWidths": [10],
                "dimensionality": "2D", "filters": ["original"]}
    manifest = load_manifest(build_cohort(tmp_path / "in", n_subjects=3,
                                          settings=settings))
    monkeypatch.setattr(radrep.pipeline, "_extract_entry",
                        _extract_entry_failing_on_sub01)
    for cpus, pool in ((2, [(2, "fork")]), (1, [])):
        out = tmp_path / f"out{cpus}"
        with on_cpus(monkeypatch, cpus) as pools:
            with pytest.raises(RuntimeError,
                               match="no worker may swallow this: sub01_tp1"):
                extract_run(manifest, out, jobs=2)
        assert pools == pool
        # the CSVs were open when the worker raised: no file, whole or
        # temporary, is left
        assert sorted(out.iterdir()) == []


def test_extraction_memory_does_not_grow_with_the_cohort(tmp_path):
    # each entry's rows are written as it finishes, so four times the
    # subjects may raise the traced peak of an in-process run by 25% at most
    settings = {"normalizationModes": ["none"], "binWidths": [10],
                "dimensionality": "3D", "filters": ["original", "wavelet"]}
    peaks = {}
    for n_subjects in (3, 12):
        manifest = load_manifest(build_cohort(
            tmp_path / f"in{n_subjects}", n_subjects=n_subjects,
            settings=settings,
            structures=("Tumor", "WholeGland", "PeripheralZone")))
        tracemalloc.start()
        try:
            extract_run(manifest, tmp_path / f"out{n_subjects}", jobs=1)
            peaks[n_subjects] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[12] <= 1.25 * peaks[3], peaks


def test_extraction_reads_and_measures_each_entry_once(tmp_path, monkeypatch):
    import radrep.pipeline
    from radrep.volume_io import VolumeGrid
    calls = {"read_volume": 0, "shape_features": 0, "payload_hash": 0}
    owners = {"read_volume": radrep.pipeline,
              "shape_features": radrep.pipeline, "payload_hash": VolumeGrid}

    def counting(name):
        original = getattr(owners[name], name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(owners[name], name, counting(name))
    settings = {"normalizationModes": ["none", "wholeImage"],
                "binWidths": [10, 20], "dimensionality": "2D",
                "filters": ["original", "square"]}
    manifest = load_manifest(build_cohort(tmp_path / "in", n_subjects=2,
                                          settings=settings,
                                          structures=("Tumor", "WholeGland")))
    csv_paths, failures = extract_run(manifest, tmp_path / "out")
    assert not failures and len(csv_paths) == 4
    entries = len(manifest.cohort)
    assert calls == {"read_volume": entries, "shape_features": 2 * entries,
                     "payload_hash": entries}


@pytest.mark.parametrize("dim", ["2D", "3D"])
def test_extraction_builds_one_neighbour_graph_per_mask_and_dimensionality(
        tmp_path, monkeypatch, dim):
    # the 3D graph serves general info, and a 2D run builds its 2D graph
    # beside it; every builder reads one of these, and none builds its own
    import radrep.pipeline
    import radrep.texture_matrices
    built = []

    class Counting(NeighbourGraph):
        def __init__(self, inside, offsets):
            super().__init__(inside, offsets)
            built.append((self, tuple(offsets)))

    def reading(name):
        original = getattr(radrep.pipeline, name)

        def wrapper(disc, graph):
            assert graph.directions == len(OFFSETS[dim])
            assert any(graph is g for g, _ in built), name
            read.append(graph)
            return original(disc, graph)
        return wrapper

    read = []
    for module in (radrep.pipeline, radrep.texture_matrices):
        monkeypatch.setattr(module, "NeighbourGraph", Counting)
    for name in ("build_glcm", "build_glrlm", "build_glszm"):
        monkeypatch.setattr(radrep.pipeline, name, reading(name))
    settings = {"normalizationModes": ["none", "wholeImage"],
                "binWidths": [10, 20], "dimensionality": dim,
                "filters": ["original", "square"]}
    manifest = load_manifest(build_cohort(tmp_path / "in", n_subjects=2,
                                          settings=settings,
                                          structures=("Tumor", "WholeGland")))
    _, failures = extract_run(manifest, tmp_path / "out")
    assert not failures
    masks = 2 * len(manifest.cohort)
    dims = ["3D"] if dim == "3D" else ["3D", "2D"]
    assert sorted(offsets for _, offsets in built) == sorted(
        OFFSETS[d] for d in dims for _ in range(masks))
    cells = masks * 2 * 2 * 2  # masks x modes x filters x bin widths
    assert len(read) == 3 * cells
    assert len({id(graph) for graph in read}) == masks


def test_extraction_finds_each_mask_box_once(tmp_path, monkeypatch):
    # the box is found by one full-grid np.nonzero when a mask is built;
    # no cell, shape or general-info step searches the grid again
    settings = {"normalizationModes": ["none", "wholeImage"],
                "binWidths": [10, 20], "dimensionality": "3D",
                "filters": ["original", "square"]}
    manifest = load_manifest(build_cohort(tmp_path / "in", n_subjects=2,
                                          settings=settings,
                                          structures=("Tumor", "WholeGland")))
    full_grid = []
    nonzero = np.nonzero

    def counting(a):
        if np.shape(a) == DIMS:
            full_grid.append(a)
        return nonzero(a)

    monkeypatch.setattr(np, "nonzero", counting)
    csv_paths, failures = extract_run(manifest, tmp_path / "out")
    assert not failures and len(csv_paths) == 4
    assert len(full_grid) == 2 * len(manifest.cohort)


def test_configuration_matrix_filenames(tmp_path):
    settings = {"normalizationModes": ["none", "wholeImage"],
                "binWidths": [10, 20], "dimensionality": "3D",
                "filters": ["original"]}
    manifest = load_manifest(build_cohort(tmp_path / "in", n_subjects=1,
                                          settings=settings))
    csv_paths, _ = extract_run(manifest, tmp_path / "out")
    names = sorted(p.name for p in csv_paths)
    assert names == [
        "FullStudySettings_3D_T2AX_bin10.csv",
        "FullStudySettings_3D_T2AX_bin20.csv",
        "FullStudySettings_noNormalization_3D_T2AX_bin10.csv",
        "FullStudySettings_noNormalization_3D_T2AX_bin20.csv",
    ]


def test_reference_region_filename_and_values(tmp_path):
    settings = {"normalizationModes": ["referenceRegion"], "binWidths": [15],
                "dimensionality": "2D", "filters": ["original"]}
    manifest = load_manifest(build_cohort(tmp_path / "in", n_subjects=1,
                                          settings=settings,
                                          with_reference=True))
    csv_paths, failures = extract_run(manifest, tmp_path / "out")
    assert not failures
    assert "MuscleRefNorm" in csv_paths[0].name
    validate_feature_csv(csv_paths[0])


def test_reference_region_without_mask_goes_to_sidecar(tmp_path):
    settings = {"normalizationModes": ["referenceRegion"],
                "binWidths": [10, 20], "dimensionality": "2D",
                "filters": ["original"]}
    manifest = load_manifest(build_cohort(tmp_path / "in", n_subjects=1,
                                          settings=settings,
                                          with_reference=False))
    csv_paths, failures = extract_run(manifest, tmp_path / "out")
    assert failures
    assert all(f.error == "MissingReferenceMask" for f in failures)
    sidecar = tmp_path / "out" / "extraction_errors.csv"
    # one row per (study, cell) it blanks, told apart by the cell's CSV stem
    sidecar_rows = read_rows(sidecar)
    assert len(sidecar_rows) == 4
    assert len({tuple(r.values()) for r in sidecar_rows}) == 4
    assert sorted(r["configuration"] for r in sidecar_rows) == sorted(
        2 * [p.stem for p in csv_paths])
    assert sorted(f.configuration for f in failures) == sorted(
        r["configuration"] for r in sidecar_rows)
    rows = read_rows(csv_paths[0])
    assert len(rows) == 2  # rows still emitted, features blank
    assert all(r["original_firstorder_Mean"] == "" for r in rows)
    # shape needs no intensities, so it still fills in
    assert all(r["original_shape_Volume"] != "" for r in rows)


def test_too_many_gray_levels_fails_its_cells_only(tmp_path, monkeypatch):
    monkeypatch.setattr(radrep.discretize, "MAX_GRAY_LEVELS", 8)
    settings = {"normalizationModes": ["none"], "binWidths": [1, 40],
                "dimensionality": "2D", "filters": ["original"]}
    manifest = load_manifest(build_cohort(tmp_path / "in", n_subjects=1,
                                          settings=settings))
    fine, coarse = extract_run(manifest, tmp_path / "out")[0]
    # one texture row per failing cell records the cause; first-order
    # blanks only its binned features
    assert sorted((r["study"], r["error"], r["detail"].split(":")[0])
                  for r in read_rows(tmp_path / "out" / "extraction_errors.csv")
                  ) == [(study, "TooManyGrayLevels", "texture")
                        for study in ("sub00_tp1", "sub00_tp2")]
    assert {r["configuration"] for r in read_rows(
        tmp_path / "out" / "extraction_errors.csv")} == {fine.stem}
    for row in read_rows(fine):
        assert row["original_shape_Volume"] != ""
        for name in FEATURE_ROSTER["firstorder"]:
            binned = name in ("Entropy", "Uniformity")
            assert (row[f"original_firstorder_{name}"] == "") == binned, name
        assert row["original_glcm_Contrast"] == ""
    for row in read_rows(coarse):
        assert row["original_glcm_Contrast"] != ""
        assert row["original_firstorder_Entropy"] != ""


def test_analyze_reads_an_extraction_directory_that_holds_failures(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(radrep.discretize, "MAX_GRAY_LEVELS", 8)
    settings = {"normalizationModes": ["none"], "binWidths": [1, 40],
                "dimensionality": "2D", "filters": ["original"]}
    manifest_path = build_cohort(tmp_path / "in", n_subjects=4,
                                 settings=settings)
    out = tmp_path / "features"
    assert main(["extract", "--manifest", str(manifest_path),
                 "--out", str(out)]) == 3
    assert (out / "extraction_errors.csv").exists()
    assert capsys.readouterr().err.endswith(
        " extraction failure(s); see extraction_errors.csv\n")
    assert main(["analyze", "--in", str(out / "*.csv"),
                 "--out", str(tmp_path / "all")]) == 0
    listed = capsys.readouterr().out
    assert main(["analyze", "--in", str(out / "Full*.csv"),
                 "--out", str(tmp_path / "csvs")]) == 0
    assert capsys.readouterr().out.replace("csvs", "all") == listed

    # inputs that hold only the sidecar are refused like an empty glob
    assert main(["analyze", "--in", str(out / "*_errors.csv"),
                 "--out", str(tmp_path / "none")]) == 2
    assert capsys.readouterr().err == (
        "error: no feature CSVs among the inputs "
        "(extraction_errors.csv is skipped)\n")
    assert not (tmp_path / "none").exists()


def test_single_slice_3d_extract_fails_only_its_3d_wavelet_subbands(tmp_path):
    # each 3D subband is its own filter: on a 1-slice grid every one of
    # them records AxisTooShort in every cell, and the 2D subbands compute
    settings = {"normalizationModes": ["none", "wholeImage"],
                "binWidths": [10, 20], "dimensionality": "3D",
                "filters": ["original", "wavelet",
                            *(f"wavelet-{b}" for b in WAVELET_SUBBANDS_2D)]}
    manifest = load_manifest(build_cohort(tmp_path / "in", n_subjects=2,
                                          settings=settings))
    rng = np.random.default_rng(7)
    labels = np.zeros((10, 10, 1))
    labels[2:6, 3:7] = 1
    for entry in manifest.cohort:
        write_nrrd(entry.image_path, rng.normal(100, 10, (10, 10, 1)),
                   (1.0, 1.0, 3.0))
        write_nrrd(entry.masks[0].path, labels, (1.0, 1.0, 3.0), dtype="short")
    csv_paths, failures = extract_run(manifest, tmp_path / "out")
    cells = len(csv_paths) * len(manifest.cohort)
    assert (len(csv_paths), len(failures)) == (4, 8 * cells)
    assert sorted((r["filter"], r["error"], r["detail"]) for r in read_rows(
        tmp_path / "out" / "extraction_errors.csv")) == sorted(
        [(f"wavelet-{b}", "AxisTooShort", "all: axis 2 has 1 voxel(s)")
         for b in WAVELET_SUBBANDS_3D] * cells)
    for path in csv_paths:
        for row in read_rows(path):
            assert all(row[f"wavelet-{b}_glcm_Contrast"] != ""
                       for b in WAVELET_SUBBANDS_2D)
            assert all(row[f"wavelet-{b}_firstorder_Mean"] == ""
                       for b in WAVELET_SUBBANDS_3D)


def test_a_sigma_too_large_for_the_grid_fails_only_its_filter(tmp_path):
    # sigma 100000 mm would gather gigabytes per LoG pass on the 10 x 10 x 6
    # grid: each row records SigmaTooLargeForGrid for it, the rest compute
    huge = "log-sigma-100000-0-mm-3D"
    settings = {"normalizationModes": ["none"], "binWidths": [10],
                "dimensionality": "3D",
                "filters": ["original", huge, "log-sigma-5-0-mm-3D"]}
    manifest = load_manifest(build_cohort(tmp_path / "in", n_subjects=2,
                                          settings=settings))
    [csv_path], failures = extract_run(manifest, tmp_path / "out")
    assert len(failures) == len(manifest.cohort)
    assert {(r["filter"], r["error"]) for r in read_rows(
        tmp_path / "out" / "extraction_errors.csv")} == {
        (huge, "SigmaTooLargeForGrid")}
    for row in read_rows(csv_path):
        assert row[f"{huge}_firstorder_Mean"] == ""
        assert row["log-sigma-5-0-mm-3D_glcm_Contrast"] != ""


def test_rerun_replaces_errors_and_refuses_stale_feature_csvs(tmp_path, capsys):
    def manifest(root, modes, with_reference):
        settings = {"normalizationModes": modes, "binWidths": [15],
                    "dimensionality": "2D", "filters": ["original"]}
        return str(build_cohort(tmp_path / root, n_subjects=1,
                                settings=settings,
                                with_reference=with_reference))

    def extract(manifest_path):
        return main(["extract", "--manifest", manifest_path, "--out", str(out)])

    def snapshot():
        return {p.name: p.read_bytes() for p in out.iterdir()}

    out = tmp_path / "out"
    fresh = tmp_path / "fresh"
    assert main(["extract", "--manifest", manifest("ok", ["none"], False),
                 "--out", str(fresh)]) == 0
    assert not (fresh / "extraction_errors.csv").exists()

    # referenceRegion without reference masks: two failures go to the sidecar
    assert extract(manifest("a", ["referenceRegion"], False)) == 3
    sidecar = out / "extraction_errors.csv"
    assert len(read_rows(sidecar)) == 2
    # the same cells, now with reference masks: the old errors are replaced
    assert extract(manifest("b", ["referenceRegion"], True)) == 0
    assert sidecar.read_text() == \
        "study,segmentedStructure,filter,error,detail,configuration\n"

    # a run that would leave the MuscleRefNorm CSV behind is refused
    before = snapshot()
    capsys.readouterr()
    assert extract(manifest("c", ["none"], True)) == 2
    assert "FullStudySettings_MuscleRefNorm_2D_T2AX_bin15.csv" in \
        capsys.readouterr().err
    assert snapshot() == before


@pytest.mark.parametrize("hook, failed, blank", [
    # the image: the entry writes no row, one "*" failure per mask
    ("read_volume", [("Tumor", "*", "boom"), ("WholeGland", "*", "boom")],
     None),
    # shape and general info of its first mask: that row keeps its filters
    ("shape_features", [("Tumor", "*", "boom")],
     ("original_shape_", "general_info_")),
    # one texture class of one filter: its other classes and filters stay
    ("build_glrlm", [("Tumor", "original", "glrlm: boom")],
     ("original_glrlm_",)),
], ids=["image", "shape-and-general-info", "one-texture-class"])
def test_a_failing_step_blanks_only_the_cells_it_computes(
        tmp_path, monkeypatch, hook, failed, blank):
    settings = {"normalizationModes": ["none"], "binWidths": [15],
                "dimensionality": "2D", "filters": ["original", "square"]}
    manifest = load_manifest(build_cohort(
        tmp_path / "in", n_subjects=3, settings=settings,
        structures=("Tumor", "WholeGland")))
    [clean], _ = extract_run(manifest, tmp_path / "clean")
    original = getattr(radrep.pipeline, hook)
    calls = []

    def first_call_fails(*args):
        calls.append(args)
        if len(calls) == 1:  # entries run in study order: sub00_tp1 first
            raise ValueError("boom")
        return original(*args)

    monkeypatch.setattr(radrep.pipeline, hook, first_call_fails)
    with on_cpus(monkeypatch, 1):  # in this process, where the hook is
        [path], failures = extract_run(manifest, tmp_path / "out")
    assert [(f.study, f.structure, f.filter_name, f.error, f.detail,
             f.configuration) for f in failures] == [
        ("sub00_tp1", structure, filter_name, "ValueError", detail, path.stem)
        for structure, filter_name, detail in failed]
    assert len(read_rows(tmp_path / "out" / "extraction_errors.csv")) == len(
        failed)
    expected = []
    for row in read_rows(clean):
        if row["study"] == "sub00_tp1":
            if blank is None:
                continue
            if row["segmentedStructure"] == "Tumor":
                assert all(v for k, v in row.items() if k.startswith(blank))
                row = {k: "" if k.startswith(blank) else v
                       for k, v in row.items()}
        expected.append(row)
    assert read_rows(path) == expected


def test_registered_and_bias_codes(tmp_path):
    settings = {"normalizationModes": ["none"], "binWidths": [15],
                "dimensionality": "2D", "filters": ["original"],
                "registeredMasks": True, "biasCorrected": True}
    manifest = load_manifest(build_cohort(tmp_path / "in", n_subjects=1,
                                          settings=settings))
    csv_paths, _ = extract_run(manifest, tmp_path / "out")
    name = csv_paths[0].name
    assert "TP2Registered" in name and "biasCorrected" in name
    assert parse_config_from_name(csv_paths[0]) == ConfigCell(
        "T2AX", "none", 15.0, "2D", registered=True, bias_corrected=True)
    assert {row["general_info_GeneralSettings"]
            for row in read_rows(csv_paths[0])} == {
        "normalization=none;binWidth=15;dimensionality=2D;"
        "registeredMasks=true;biasCorrected=true"}


def test_geometry_mismatch_recorded_not_fatal(tmp_path, monkeypatch):
    from radrep.volume_io import write_nrrd
    calls = []
    original = radrep.pipeline.apply_filter

    def counting(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(radrep.pipeline, "apply_filter", counting)
    manifest_path = build_cohort(tmp_path / "in", n_subjects=1)
    # overwrite one mask with a wrong-size grid
    bad = tmp_path / "in" / "sub00_tp2_Tumor.nrrd"
    labels = np.zeros((4, 4, 2))
    labels[1, 1, 1] = 1
    write_nrrd(bad, labels, (1, 1, 3), dtype="short")
    manifest = load_manifest(manifest_path)
    csv_paths, failures = extract_run(manifest, tmp_path / "out")
    assert any(f.error == "GeometryMismatch" for f in failures)
    rows = read_rows(csv_paths[0])
    assert len(rows) == 1  # the bad row is skipped, the good one stays
    # the entry left with no usable mask is neither normalized nor filtered
    settings = manifest.settings
    assert len(calls) == (len(settings.normalization_modes)
                          * len(settings.filters))


def test_volume_num_counts_26_connected_parts_like_ndimage_label(rng):
    from scipy import ndimage
    settings = RunSettings(("none",), (10.0,), "3D",
                           (FilterSpec(FilterKind.ORIGINAL),))
    for _ in range(40):
        shape = tuple(int(n) for n in rng.integers(1, 9, size=3))
        labels = rng.random(shape) < rng.uniform(0.05, 0.6)
        labels.flat[rng.integers(labels.size)] = True
        mask = make_mask(labels)
        info = _general_info(make_volume(np.zeros(shape)), "", mask,
                             NeighbourGraph(mask.inside, OFFSETS_3D), settings)
        assert info["general_info_VolumeNum"] == ndimage.label(
            labels, structure=np.ones((3, 3, 3), dtype=bool))[1]


def test_union_box_spans_every_mask():
    a, b = np.zeros((9, 8, 5)), np.zeros((9, 8, 5))
    a[1, 2, 0] = 1
    b[7:9, 5, 3] = 1
    boxes = _union_box([make_mask(a), make_mask(b)])
    assert boxes == (slice(1, 9), slice(2, 6), slice(0, 4))


def test_filters_are_computed_over_the_union_of_mask_boxes(tmp_path,
                                                           monkeypatch):
    # two far-apart masks per entry, one on the last voxel of every axis
    # (where Haar wraps to voxel 0): every filter is asked for the union of
    # their boxes only, returns that box, and the CSVs equal those of
    # whole-grid filters cropped afterwards
    settings = {"normalizationModes": ["none", "referenceRegion"],
                "binWidths": [10], "dimensionality": "3D",
                "filters": [kind.value for kind in FilterKind]}
    root = tmp_path / "in"
    manifest = load_manifest(build_cohort(
        root, n_subjects=3, settings=settings, with_reference=True,
        structures=("Tumor", "WholeGland")))
    far = np.zeros(DIMS)
    far[8:10, 7:10, 4:6] = 1
    for entry in manifest.cohort:
        write_nrrd(entry.masks[1].path, far, (1.0, 1.0, 3.0), dtype="short")
    original = radrep.pipeline.apply_filter
    calls = []

    def recording(volume, spec, box):
        out = original(volume, spec, box)
        calls.append((box, out.values.shape))
        return out

    monkeypatch.setattr(radrep.pipeline, "apply_filter", recording)
    cropped, failures = extract_run(manifest, tmp_path / "cropped")
    # 18 specs x 2 modes per entry; every Tumor box starts at (1, 1, 1)
    union = (slice(1, 10), slice(1, 10), slice(1, 6))
    assert calls == [(union, (9, 9, 5))] * (18 * 2 * len(manifest.cohort))

    def whole_then_cropped(volume, spec, box):
        whole = original(volume, spec, whole_box(volume)).values
        return VolumeGrid(volume.spacing, whole[box])

    monkeypatch.setattr(radrep.pipeline, "apply_filter", whole_then_cropped)
    whole, whole_failures = extract_run(manifest, tmp_path / "whole")
    assert failures == whole_failures
    assert [p.name for p in cropped] == [p.name for p in whole]
    for a, b in zip(cropped, whole):
        assert a.read_bytes() == b.read_bytes()


def test_schema_validator_rejects_bad_layouts(tmp_path):
    meta = "study,series,canonicalType,segmentedStructure"
    bad = tmp_path / "bad.csv"
    for header in ["", meta,
                   f"general_info_X,original_glcm_Contrast,bogus_column,{meta}",
                   f"general_info_X,original_glcm_NotAFeature,{meta}",
                   f"general_info_X,original_glcm_Contrast,diagnostics_X,{meta}",
                   f",general_info_X,original_glcm_Contrast,{meta}",
                   f"general_info_X,,original_glcm_Contrast,{meta}",
                   f"general_info_X,original_glcm_Contrast,general_info_Y,{meta}",
                   f"general_info_X,notafilter_glcm_Contrast,{meta}",
                   f"general_info_X,log-sigma-nan-mm-3D_glcm_Contrast,{meta}",
                   f"general_info_X,log-sigma-inf-mm-3D_glcm_Contrast,{meta}",
                   f"general_info_X,log-sigma-0-25-mm-3D_glcm_Contrast,{meta}",
                   f"general_info_X,{meta},original_glcm_Contrast",
                   f"general_info_X,study,original_glcm_Contrast,{meta}"]:
        bad.write_text(header + "\n" if header else "")
        with pytest.raises(SchemaMismatch):
            validate_feature_csv(bad)

    # analyze still reads foreign files with an index column and diagnostics
    foreign = _hand_written_csv(tmp_path / "foreign.csv",
                                ["0.5", "0.7", "0.2", "0.4", "0.9", "0.1"])
    header, *rows = foreign.read_text().splitlines()
    foreign.write_text("\n".join([f",diagnostics_Versions,{header}"] + [
        f"{i},v3.0,{row}" for i, row in enumerate(rows)]) + "\n")
    [matrix] = read_feature_csv(foreign).values()
    assert matrix.features == ("original_shape_Volume", "original_glcm_Contrast")
    _assert_reads_like_oracle(foreign)
    with pytest.raises(SchemaMismatch):
        validate_feature_csv(foreign)


@pytest.mark.parametrize("dimensionality", ["2D", "3D"])
def test_emitted_header_validates_and_parses_back(tmp_path, dimensionality):
    filters = default_filters(dimensionality)
    header = [*GENERAL_INFO_COLUMNS, *feature_columns(filters), *META_COLUMNS]
    path = tmp_path / "header.csv"
    _write_csv(path, header, [[""] * (len(header) - len(META_COLUMNS))
                              + ["sub00_tp1", "s", "T2AX", "Tumor"]])
    validate_feature_csv(path)
    [matrix] = read_feature_csv(path).values()
    written = [("original", "shape", name) for name in FEATURE_ROSTER["shape"]]
    written += [(spec.name, cls, name) for spec in filters
                for cls in ("firstorder", "glcm", "glrlm", "glszm")
                for name in FEATURE_ROSTER[cls]]
    assert [(key.filter, key.feature_class, key.name)
            for key in matrix.features] == written


# SHA-256 of the header line of a default-filter feature CSV: the column
# order is a contract, and every other test reads it off FEATURE_ROSTER
DEFAULT_HEADER_SHA256 = {
    "2D": "fc853cff30103de3cd754702161af0730e27b8f2cb3acd2a34d25b3a49f16580",
    "3D": "6d298305911f1e6675ac4aa743f4712c4b2d931db12176e2db2e4c6d1cc0404b",
}


@pytest.mark.parametrize("dimensionality", ["2D", "3D"])
def test_default_feature_csv_header_is_pinned(tmp_path, dimensionality):
    manifest = load_manifest(build_cohort(
        tmp_path / "in", n_subjects=1,
        settings={"dimensionality": dimensionality}))
    [path], _ = extract_run(manifest, tmp_path / "out")
    header = path.read_bytes().split(b"\n", 1)[0] + b"\n"
    assert hashlib.sha256(header).hexdigest() \
        == DEFAULT_HEADER_SHA256[dimensionality]


def test_schema_validator_rejects_a_repeated_feature_column(tmp_path):
    # read_feature_csv refuses the same header, so the validator must too
    manifest = load_manifest(build_cohort(tmp_path / "in", n_subjects=1))
    [path], _ = extract_run(manifest, tmp_path / "out")
    validate_feature_csv(path)
    lines = path.read_text().splitlines()
    lines[0] = lines[0].replace("original_shape_SurfaceArea",
                                "original_shape_Volume")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaMismatch, match="'original_shape_Volume' repeats"):
        validate_feature_csv(path)
    with pytest.raises(SchemaMismatch, match="'original_shape_Volume' repeats"):
        read_feature_csv(path)


def test_parse_config_from_name():
    # every CSV name reads back as the cell that wrote it
    for image_type, mode, dimensionality, registered, bias, width in product(
            IMAGE_TYPES, [mode.value for mode in NormalizationMode],
            ("2D", "3D"), (False, True), (False, True), NAMED_WIDTHS):
        settings = RunSettings((mode,), (width,), dimensionality, (),
                               registered_masks=registered,
                               bias_corrected=bias)
        cell = ConfigCell(image_type, mode, width, dimensionality,
                          registered, bias)
        name = config_csv_name(image_type, mode, width, settings)
        assert name == cell.csv_name
        assert parse_config_from_name(name) == cell, name


def test_config_cell_spells_its_code_words():
    cell = ConfigCell("ADC", "referenceRegion", 2.5, "3D", registered=True)
    assert cell.csv_name == \
        "FullStudySettings_MuscleRefNorm_3D_TP2Registered_ADC_bin2.5.csv"
    assert cell.general_settings == (
        "normalization=referenceRegion;binWidth=2.5;dimensionality=3D;"
        "registeredMasks=true;biasCorrected=false")
    assert cell.group_code == "ADC_MuscleRefNorm_3D_TP2Registered"
    whole = ConfigCell("T2AX", "wholeImage", 10.0, "2D", bias_corrected=True)
    assert whole.csv_name == "FullStudySettings_2D_biasCorrected_T2AX_bin10.csv"
    assert whole.group_code == "T2AX_wholeImageNorm_2D_biasCorrected"


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_multi_image_type_cohort(tmp_path):
    # ADC carries one subject fewer than T2AX (exclusion is expressed by
    # omitting that subject's ADC entries); files split per image type
    root = tmp_path / "in"
    build_cohort(root, n_subjects=4, image_type="T2AX")
    adc_manifest = build_cohort(tmp_path / "adc", n_subjects=3,
                                image_type="ADC", seed=123)
    main_doc = json.loads((root / "manifest.json").read_text())
    adc_doc = json.loads(adc_manifest.read_text())
    for entry in adc_doc["cohort"]:
        entry["imagePath"] = str((tmp_path / "adc" / entry["imagePath"]))
        for m in entry["masks"]:
            m["path"] = str(tmp_path / "adc" / m["path"])
    main_doc["cohort"] += adc_doc["cohort"]
    (root / "manifest.json").write_text(json.dumps(main_doc))

    manifest = load_manifest(root / "manifest.json")
    csv_paths, failures = extract_run(manifest, tmp_path / "out")
    assert not failures
    names = sorted(p.name for p in csv_paths)
    assert names == ["FullStudySettings_noNormalization_2D_ADC_bin15.csv",
                     "FullStudySettings_noNormalization_2D_T2AX_bin15.csv"]
    adc_rows = read_rows(csv_paths[0])
    t2_rows = read_rows(csv_paths[1])
    assert len(adc_rows) == 6 and len(t2_rows) == 8
    assert {r["canonicalType"] for r in adc_rows} == {"ADC"}
    assert {r["canonicalType"] for r in t2_rows} == {"T2AX"}

    written, _ = analyze_run(csv_paths, tmp_path / "reports")
    icc_files = sorted(p.name for p in written if p.name.startswith("icc__"))
    assert icc_files == [
        "icc__FullStudySettings_noNormalization_2D_ADC_bin15__Tumor.csv",
        "icc__FullStudySettings_noNormalization_2D_T2AX_bin15__Tumor.csv",
    ]


def test_analyze_insufficient_subjects(tmp_path):
    # the table is recorded as a failure, not raised, and gets no reports
    manifest = load_manifest(build_cohort(tmp_path / "in", n_subjects=1))
    csv_paths, _ = extract_run(manifest, tmp_path / "out")
    written, failures = analyze_run(csv_paths, tmp_path / "reports")
    assert written == []
    assert [(f.stem, f.structure, f.error) for f in failures] == [
        (csv_paths[0].stem, "Tumor", "InsufficientSubjects")]
    [row] = read_rows(tmp_path / "reports" / "analysis_errors.csv")
    assert row["error"] == "InsufficientSubjects"
    assert "1 subject(s) with both timepoints" in row["detail"]


def test_analyze_records_a_failing_structure_and_goes_on(tmp_path, capsys):
    # WholeGland keeps 2 complete subjects, Tumor 5: Tumor's reports are
    # the same as from the full file, WholeGland is one error row, exit 3
    manifest = load_manifest(build_cohort(
        tmp_path / "in", n_subjects=5, structures=("Tumor", "WholeGland")))
    [path], _ = extract_run(manifest, tmp_path / "out")
    full, _ = analyze_run([path], tmp_path / "full")
    with open(path, newline="") as handle:
        lines = list(csv.reader(handle))
    kept = [line for line in lines if not (
        line[-1] == "WholeGland" and line[-4][:5] in ("sub02", "sub03", "sub04"))]
    assert len(kept) == len(lines) - 6
    _write_csv(path, kept[0], kept[1:])

    reports = tmp_path / "reports"
    assert main(["analyze", "--in", str(path), "--out", str(reports)]) == 3
    assert "1 analysis failure(s)" in capsys.readouterr().err
    [row] = read_rows(reports / "analysis_errors.csv")
    assert (row["stem"], row["segmentedStructure"], row["error"]) == (
        path.stem, "WholeGland", "InsufficientSubjects")
    tumor = sorted(p.name for p in full if p.name.endswith("__Tumor.csv")
                   or p.name.endswith("__Tumor.json"))
    assert len(tumor) == 3
    assert sorted(p.name for p in reports.iterdir()) == sorted(
        tumor + ["analysis_errors.csv"])
    for name in tumor:
        assert (reports / name).read_bytes() == (tmp_path / "full" / name
                                                 ).read_bytes()

    # a rerun without failures leaves a header-only errors file
    _write_csv(path, lines[0], lines[1:])
    assert main(["analyze", "--in", str(path), "--out", str(reports)]) == 0
    assert read_rows(reports / "analysis_errors.csv") == []
    capsys.readouterr()


def test_analyze_perfect_retest_all_iccs_one(tmp_path):
    manifest = load_manifest(build_cohort(tmp_path / "in", n_subjects=10,
                                          perfect_retest=True))
    csv_paths, _ = extract_run(manifest, tmp_path / "out")
    written, _ = analyze_run(csv_paths, tmp_path / "reports")
    icc_files = [p for p in written if p.name.startswith("icc__")]
    assert len(icc_files) == 1
    rows = read_rows(icc_files[0])
    assert rows, "analysis produced no feature rows"
    for row in rows:
        assert float(row["icc"]) == pytest.approx(1.0, abs=1e-12), row
        assert float(row["wms"]) == pytest.approx(0.0, abs=1e-20)
        assert row["n"] == "10"


def test_analyze_reports_and_plotdata(tmp_path, monkeypatch):
    settings = {"normalizationModes": ["none"], "binWidths": [10, 20],
                "dimensionality": "2D", "filters": ["original", "square"]}
    manifest = load_manifest(build_cohort(tmp_path / "in", n_subjects=5,
                                          settings=settings))
    csv_paths, _ = extract_run(manifest, tmp_path / "out")
    assert len(csv_paths) == 2
    # one bin-width group, so analyze_run works in this process: a counter
    # would not see calls made in a forked worker
    splits = []
    split = radrep.repeatability.split_feature_key
    for module in (radrep.repeatability, radrep.pipeline):
        monkeypatch.setattr(module, "split_feature_key", raising=False,
                            value=lambda key: splits.append(key) or split(key))
    written, _ = analyze_run(csv_paths, tmp_path / "reports",
                          compare=(csv_paths[0].stem, csv_paths[1].stem))
    monkeypatch.undo()
    # each header's feature columns are split once, not once per report
    columns = len(feature_columns(manifest.settings.filters))
    assert len(splits) <= len(csv_paths) * columns
    names = {p.name for p in written}
    assert any(n.startswith("icc__") for n in names)
    assert any(n.startswith("top3__") for n in names)
    assert any(n.startswith("filterfreq__") for n in names)
    assert any(n.startswith("spread__") for n in names)
    assert any(n.startswith("rankdist__") for n in names)
    assert any(n.startswith("delta__") for n in names)

    top3 = json.loads(next(p for p in written
                           if p.name.startswith("top3__")).read_text())
    assert set(top3) <= {"shape", "firstorder", "glcm", "glrlm", "glszm"}
    for pairs in top3.values():
        assert len(pairs) == 3

    spread_rows = read_rows(next(p for p in written
                                 if p.name.startswith("spread__")))
    by_key = {r["featureKey"]: float(r["maxDeltaIcc"]) for r in spread_rows}
    # shape features cannot depend on the bin width
    assert by_key["original_shape_Volume"] == 0.0

    rank_rows = read_rows(next(p for p in written
                               if p.name.startswith("rankdist__")))
    per_width = {}
    for row in rank_rows:
        per_width.setdefault(row["binWidth"], 0)
        per_width[row["binWidth"]] += int(row["count"])
    assert len(set(per_width.values())) == 1  # same feature count per width

    kde_path = next(p for p in written if p.name.startswith("kde_spread__"))
    kde_rows = read_rows(kde_path)
    assert len(kde_rows) == 256
    xs = np.array([float(r["maxDeltaIcc"]) for r in kde_rows])
    ds = np.array([float(r["density"]) for r in kde_rows])
    assert 0.98 <= np.trapezoid(ds, xs) <= 1.02

    plots = plotdata_run(tmp_path / "reports", tmp_path / "plots")
    plot_names = {p.name for p in plots}
    assert any(n.startswith("plot_icc__") for n in plot_names)
    assert any(n.startswith("plot_filterfreq__") for n in plot_names)
    assert any(n.startswith("plot_delta__") for n in plot_names)
    # the plotting tools read a plot_ file for every report but the notes
    assert plot_names == {f"plot_{p.stem}.csv" for p in written
                          if not p.name.startswith("binwidth_notes__")}


def test_analyze_binwidth_group_with_uneven_feature_sets(tmp_path):
    # a feature whose ICC is computable at one bin width but degenerate at
    # another must not kill the cross-width analyses; it lands in a notes
    # file and the shared set is compared
    settings = {"normalizationModes": ["none"], "binWidths": [10, 20],
                "dimensionality": "2D", "filters": ["original"]}
    manifest = load_manifest(build_cohort(tmp_path / "in", n_subjects=4,
                                          settings=settings))
    csv_paths, _ = extract_run(manifest, tmp_path / "out")
    # plant a column that is constant at bin20 (dropped as degenerate)
    # but varies at bin10
    for path in csv_paths:
        rows = read_rows(path)
        header = list(rows[0])
        constant = path.name.endswith("bin20.csv")
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                if constant:
                    row["original_glcm_Idm"] = "1"
                writer.writerow([row[c] for c in header])
    written, _ = analyze_run(csv_paths, tmp_path / "reports")
    notes = [p for p in written if p.name.startswith("binwidth_notes__")]
    assert len(notes) == 1
    payload = json.loads(notes[0].read_text())
    assert payload["excludedFeatures"] == ["original_glcm_Idm"]
    spread_rows = read_rows(next(p for p in written
                                 if p.name.startswith("spread__")))
    assert all(r["featureKey"] != "original_glcm_Idm" for r in spread_rows)


def test_analyze_groups_bias_corrected_tables_apart(tmp_path):
    # the same configuration with and without bias correction: each gets
    # its own bin-width group, byte-equal to that group analyzed alone
    csvs = {}
    for bias, seed in ((False, 99), (True, 7)):
        settings = {"normalizationModes": ["none"], "binWidths": [10, 20],
                    "dimensionality": "2D", "filters": ["original"],
                    "biasCorrected": bias}
        manifest = load_manifest(build_cohort(
            tmp_path / f"in{bias:d}", n_subjects=4, seed=seed,
            settings=settings))
        csvs[bias], failures = extract_run(manifest, tmp_path / f"out{bias:d}")
        assert not failures

    def group_reports(paths, out_dir):
        written, failures = analyze_run(paths, out_dir)
        assert not failures
        return {p.name: p.read_bytes() for p in written if p.name.startswith(
            ("spread__", "kde_spread__", "rankdist__", "binwidth_notes__"))}

    plain = group_reports(csvs[False], tmp_path / "plain")
    corrected = group_reports(csvs[True], tmp_path / "corrected")
    together = group_reports(csvs[False] + csvs[True], tmp_path / "together")
    assert {name.split("__")[1] for name in plain} == {"T2AX_noNormalization_2D"}
    assert {name.split("__")[1] for name in corrected} == {
        "T2AX_noNormalization_2D_biasCorrected"}
    assert together == {**plain, **corrected}


def test_analyze_refuses_inputs_that_name_one_cell(tmp_path, capsys):
    # two runs' CSVs of one cell would write each other's reports
    settings = {"normalizationModes": ["none"], "binWidths": [15],
                "dimensionality": "2D", "filters": ["original"]}
    paths = []
    for run in ("a", "b"):
        manifest = load_manifest(build_cohort(
            tmp_path / f"in_{run}", n_subjects=3, settings=settings))
        (path,), _ = extract_run(manifest, tmp_path / f"feat_{run}")
        paths.append(path)
    both = f"{re.escape(str(paths[0]))} and {re.escape(str(paths[1]))}"
    with pytest.raises(SchemaMismatch, match=both):
        analyze_run(paths, tmp_path / "reports")
    assert not (tmp_path / "reports").exists()
    assert main(["analyze", "--in", str(tmp_path / "feat_*" / "*.csv"),
                 "--out", str(tmp_path / "reports")]) == 2
    assert str(paths[1]) in capsys.readouterr().err

    # a differently spelled name of the same cell is refused too
    foreign = paths[1].with_name("T2AX_2d_noNormalization_bin15.csv")
    paths[1].rename(foreign)
    with pytest.raises(SchemaMismatch, match=re.escape(str(foreign))):
        analyze_run([paths[0], foreign], tmp_path / "reports")
    assert not (tmp_path / "reports").exists()


def test_analyze_delta_identical_configs_zero(tmp_path):
    manifest = load_manifest(build_cohort(tmp_path / "in", n_subjects=5))
    csv_paths, _ = extract_run(manifest, tmp_path / "out")
    stem = csv_paths[0].stem
    written, _ = analyze_run(csv_paths, tmp_path / "reports",
                          compare=(stem, stem))
    delta_path = next(p for p in written if p.name.startswith("delta__"))
    payload = json.loads(delta_path.read_text())
    assert payload["sharedCount"] > 0
    assert all(v["delta"] == 0.0 for v in payload["shared"].values())


def test_compare_skips_a_failed_table_and_exits_partial(tmp_path, capsys):
    # one subject: the structure is in the CSV but its table fails, which
    # the errors file already says; the comparison is not blamed for it
    manifest = load_manifest(build_cohort(tmp_path / "in", n_subjects=1))
    [path], _ = extract_run(manifest, tmp_path / "out")
    reports = tmp_path / "reports"
    assert main(["analyze", "--in", str(path), "--out", str(reports),
                 "--compare", path.stem, path.stem]) == 3
    err = capsys.readouterr().err
    assert "1 analysis failure(s)" in err and "present in both" not in err
    [row] = read_rows(reports / "analysis_errors.csv")
    assert (row["segmentedStructure"], row["error"]) == (
        "Tumor", "InsufficientSubjects")
    assert not list(reports.glob("delta__*"))


def test_compare_without_a_shared_structure_is_a_data_error(tmp_path, capsys):
    settings = {"normalizationModes": ["none"], "binWidths": [10, 20],
                "dimensionality": "2D", "filters": ["original"]}
    manifest = load_manifest(build_cohort(
        tmp_path / "in", n_subjects=4, settings=settings,
        structures=("Tumor", "WholeGland")))
    paths, _ = extract_run(manifest, tmp_path / "out")
    for path, dropped in zip(paths, ("WholeGland", "Tumor")):
        with open(path, newline="") as handle:
            lines = [line for line in csv.reader(handle) if line[-1] != dropped]
        _write_csv(path, lines[0], lines[1:])
    assert main(["analyze", "--in", str(tmp_path / "out" / "Full*.csv"),
                 "--out", str(tmp_path / "reports"),
                 "--compare", paths[0].stem, paths[1].stem]) == 2
    assert "no structure is present in both" in capsys.readouterr().err


def test_compare_stem_naming_no_input_is_refused_before_any_report(
        tmp_path, capsys):
    # a mistyped stem used to be found only after every report was written
    settings = {"normalizationModes": ["none"], "binWidths": [10, 20],
                "dimensionality": "2D", "filters": ["original"]}
    manifest = load_manifest(build_cohort(tmp_path / "in", n_subjects=3,
                                          settings=settings))
    paths, _ = extract_run(manifest, tmp_path / "out")
    typo = paths[1].stem + "0"
    with pytest.raises(SchemaMismatch, match=re.escape(repr(typo))):
        analyze_run(paths, tmp_path / "reports", compare=(paths[0].stem, typo))
    assert not (tmp_path / "reports").exists()
    assert main(["analyze", "--in", str(tmp_path / "out" / "*.csv"),
                 "--out", str(tmp_path / "reports"),
                 "--compare", typo, paths[0].stem]) == 2
    assert repr(typo) in capsys.readouterr().err
    assert not (tmp_path / "reports").exists()


def _two_group_csvs(root, n_subjects=4):
    """Feature CSVs of modes none and wholeImage at bin widths 10 and 20:
    two bin-width groups, Tumor and WholeGland in each CSV."""
    settings = {"normalizationModes": ["none", "wholeImage"],
                "binWidths": [10, 20], "dimensionality": "2D",
                "filters": ["original", "square"]}
    manifest = load_manifest(build_cohort(
        root / "in", n_subjects=n_subjects, settings=settings,
        structures=("Tumor", "WholeGland")))
    paths, failures = extract_run(manifest, root / "out")
    assert not failures and len(paths) == 4
    return sorted(paths)


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*")
            if p.is_file()}


# (CSV indices, compare indices) of a rerun after a run over all four
# CSVs with compare (0, 2); paths 0-1 and 2-3 are the two bin-width groups
@pytest.mark.parametrize("inputs, compare", [
    ([0, 1], None), ([0, 2], (0, 2)), ([0, 1, 2, 3], (1, 3)),
    ([0, 1, 2, 3], None),
], ids=["one-group", "one-width-per-group", "another-pair", "no-pair"])
def test_analyze_refuses_reports_of_another_run(tmp_path, inputs, compare):
    paths = _two_group_csvs(tmp_path)
    reports = tmp_path / "reports"
    first_pair = (paths[0].stem, paths[2].stem)
    first, _ = analyze_run(paths, reports, compare=first_pair)
    rerun = [paths[i] for i in inputs]
    pair = compare and (paths[compare[0]].stem, paths[compare[1]].stem)
    # a report the rerun would not write: its stem, its bin-width group
    # (one width left) or its compare pair is not among the rerun's
    fresh, _ = analyze_run(rerun, tmp_path / "fresh", compare=pair)
    stale = sorted({p.name for p in first} - {p.name for p in fresh})
    assert stale
    before = _files(reports)
    with pytest.raises(StaleOutputs) as info:
        analyze_run(rerun, reports, compare=pair)
    assert str(info.value) == (
        f"{reports} holds reports this run does not write: "
        f"{', '.join(stale)}; move them away or write to another directory")
    assert _files(reports) == before
    # the first run's inputs still rerun into it
    assert analyze_run(paths, reports, compare=first_pair) == (first, [])
    assert _files(reports) == before


@pytest.mark.parametrize("change, removed", [
    ("a-table-fails",
     {"icc", "top3", "filterfreq", "spread", "kde_spread", "rankdist"}),
    ("a-column-returns", {"binwidth_notes"}),
], ids=["a-table-fails", "a-column-returns"])
def test_analyze_rerun_removes_its_reports_that_no_longer_hold(
        tmp_path, change, removed):
    paths = _two_group_csvs(tmp_path)
    original = paths[0].read_bytes()
    with open(paths[0], newline="") as handle:
        header, *rows = csv.reader(handle)
    if change == "a-table-fails":
        # WholeGland keeps one subject: InsufficientSubjects
        study = header.index("study")
        structure = header.index("segmentedStructure")
        rows = [row for row in rows if row[structure] != "WholeGland"
                or row[study].startswith("sub00")]
    else:
        # blank at bin width 10 only: the group's notes list it
        idm = header.index("original_glcm_Idm")
        for row in rows:
            row[idm] = ""
    _write_csv(paths[0], header, rows)
    states = [original, paths[0].read_bytes()]
    if change == "a-column-returns":
        states.reverse()
    reports = tmp_path / "reports"
    runs = []
    for state in states:
        paths[0].write_bytes(state)
        runs.append(analyze_run(paths, reports))
    gone = {p.name for p in runs[0][0]} - {p.name for p in runs[1][0]}
    assert {name.split("__")[0] for name in gone} == removed
    # the rerun leaves what a run into a fresh directory writes
    assert analyze_run(paths, tmp_path / "fresh") == (
        [reports.parent / "fresh" / p.name for p in runs[1][0]], runs[1][1])
    assert _files(reports) == _files(tmp_path / "fresh")


def test_plotdata_refuses_plots_of_reports_not_in_its_input(tmp_path,
                                                            capsys):
    paths = _two_group_csvs(tmp_path)
    analyze_run(paths, tmp_path / "all", compare=(paths[0].stem, paths[2].stem))
    analyze_run(paths[:2], tmp_path / "some")
    plots = tmp_path / "plots"
    first = plotdata_run(tmp_path / "all", plots)
    fresh = plotdata_run(tmp_path / "some", tmp_path / "fresh")
    stale = sorted({p.name for p in first} - {p.name for p in fresh})
    assert any(name.startswith("plot_delta__") for name in stale)
    before = _files(plots)
    capsys.readouterr()
    assert main(["plotdata", "--in", str(tmp_path / "some"),
                 "--out", str(plots)]) == 2
    assert capsys.readouterr().err == (
        f"error: {plots} holds plot files this run does not write: "
        f"{', '.join(stale)}; move them away or write to another directory\n")
    assert _files(plots) == before
    assert plotdata_run(tmp_path / "all", plots) == first
    assert _files(plots) == before


def test_worker_count_never_changes_the_analysis(tmp_path, monkeypatch):
    paths = _two_group_csvs(tmp_path)
    # path order puts wholeImage first, group-code order puts none first
    codes = [parse_config_from_name(p).group_code for p in paths]
    assert codes[0] > codes[-1]
    failing = []
    for path in paths:
        with open(path, newline="") as handle:
            lines = list(csv.reader(handle))
        header = lines[0]
        features = [j for j, column in enumerate(header)
                    if column.startswith(("original_", "square_"))
                    and column != "original_shape_Volume"]
        for i, line in enumerate(lines[1:]):  # blank cells
            for j in features[i % 7::23]:
                line[j] = ""
        cell = parse_config_from_name(path)
        if (cell.normalization, cell.bin_width) in (("none", 10),
                                                    ("wholeImage", 20)):
            # WholeGland keeps one subject: InsufficientSubjects
            failing.append(path.stem)
            lines = [line for line in lines if not (
                line[-1] == "WholeGland" and line[-4][:5] != "sub00")]
        if cell.normalization == "wholeImage" and cell.bin_width == 20:
            # constant here, so dropped, but defined at bin width 10
            idm = header.index("original_glcm_Idm")
            for line in lines[1:]:
                line[idm] = "1"
        _write_csv(path, header, lines[1:])
    compare = (paths[0].stem, paths[-1].stem)  # across the two groups

    runs = {}
    for cpus in (1, 4, None):
        out = tmp_path / f"cpus{cpus}"
        with on_cpus(monkeypatch, cpus) as pools:
            written, failures = analyze_run(paths, out / "reports",
                                            compare=compare)
            written += plotdata_run(out / "reports", out / "plots")
        runs[cpus] = (
            [p.relative_to(out) for p in written], failures,
            {p.relative_to(out): p.read_bytes() for p in out.rglob("*")
             if p.is_file()})
        # one group per process, never more processes than groups
        assert pools == ([(2, "fork")] if cpus == 4 else [])
    names, failures, files = runs[1]
    assert [(f.stem, f.structure, f.error) for f in failures] == [
        (stem, "WholeGland", "InsufficientSubjects") for stem in failing]
    for prefix in ("icc__", "binwidth_notes__", "spread__", "rankdist__",
                   "delta__"):
        assert any(p.name.startswith(prefix) for p in names), prefix
    assert Path("reports", "analysis_errors.csv") in files
    # per-table files in path order (not group order), then the bin-width
    # files in (group code, structure) order, then the delta reports
    reports = [Path(p.name).stem.split("__") for p in names
               if p.parent.name == "reports"]
    tables = 3 * 6  # three files for each of 4 CSVs x 2 structures but two
    per_table = [stem for kind, stem, _ in reports[:tables]]
    assert {kind for kind, *_ in reports[:tables]} == {
        "icc", "top3", "filterfreq"}
    assert per_table == sorted(per_table) and len(set(per_table)) == 4
    kinds = [kind for kind, *_ in reports[tables:]]
    assert kinds[-2:] == ["delta"] * 2 and "delta" not in kinds[:-2]
    group_files = [rest for _, *rest in reports[tables:-2]]
    assert group_files == sorted(group_files) and len(group_files) > 4
    assert runs[4] == runs[1]
    assert runs[None] == runs[1]

    # a worker sends back only the tables the delta reports read
    direct = tmp_path / "direct"
    direct.mkdir()
    tables, per_path, _ = _analyze_group(
        [(parse_config_from_name(p), p) for p in paths], direct, None,
        compare)
    assert {stem for stem, _ in tables} == set(compare)
    assert set(per_path) == set(paths)


def test_a_bin_width_group_splits_its_shared_columns_once(tmp_path,
                                                          monkeypatch):
    # the group's two CSVs have one header: the second reuses the keys of
    # the first, so every feature column is split into a FeatureKey once
    paths = _two_group_csvs(tmp_path)
    cells = [parse_config_from_name(p) for p in paths]
    group = [(cell, p) for cell, p in zip(cells, paths)
             if cell.group_code == cells[0].group_code]
    [matrix, *_] = read_feature_csv(group[0][1]).values()
    split = []
    monkeypatch.setattr(radrep.pipeline, "FeatureKey",
                        lambda column: split.append(column) or FeatureKey(column))
    (tmp_path / "reports").mkdir()
    _analyze_group(group, tmp_path / "reports", None, ())
    assert len(group) == 2 and sorted(split) == sorted(matrix.features)


def test_worker_errors_and_cleanup_cross_the_process_boundary(
        tmp_path, monkeypatch, capsys):
    paths = _two_group_csvs(tmp_path, n_subjects=3)
    second = max(paths, key=lambda p: parse_config_from_name(p).group_code)
    original = second.read_text()
    with open(second, newline="") as handle:
        lines = list(csv.reader(handle))
    lines[2][lines[0].index("square_glcm_Contrast")] = "inf"
    _write_csv(second, lines[0], lines[1:])
    with pytest.raises(SchemaMismatch) as direct:
        read_feature_csv(second)
    assert "is not a finite number" in str(direct.value)

    with pytest.raises(SchemaMismatch) as info, on_cpus(monkeypatch, 2):
        analyze_run(paths, tmp_path / "bad")
    assert str(info.value) == str(direct.value)
    with on_cpus(monkeypatch, 2):
        assert main(["analyze", "--in", str(tmp_path / "out" / "*.csv"),
                     "--out", str(tmp_path / "cli")]) == 2
    assert str(direct.value) in capsys.readouterr().err

    second.write_text(original)
    with on_cpus(monkeypatch, 2) as pools:
        _, failures = analyze_run(paths, tmp_path / "good")
    assert not failures and pools == [(2, "fork")]


@pytest.mark.parametrize("content", [
    None, "{not json", '[["sub00_tp1", "sub00", 1]]',
    '{"sub00_tp1": ["sub00"]}', '{"sub00_tp1": "sub00"}',
    '{"sub00_tp1": ["sub00", "one"]}', '{"sub00_tp1": ["sub00", 1.9]}',
    '{"sub00_tp2": ["sub00", 2.6]}', '{"sub00_tp1": ["sub00", true]}',
], ids=["missing", "not-json", "list", "short-entry", "bare-subject",
        "bad-timepoint", "fractional-timepoint-1.9",
        "fractional-timepoint-2.6", "bool-timepoint"])
def test_analyze_rejects_a_bad_timepoint_map(tmp_path, capsys, content):
    manifest = load_manifest(build_cohort(tmp_path / "in", n_subjects=3))
    [path], _ = extract_run(manifest, tmp_path / "out")
    map_path = tmp_path / "tpmap.json"
    if content is not None:
        map_path.write_text(content)
    assert main(["analyze", "--in", str(path), "--out",
                 str(tmp_path / "reports"), "--timepoint-map",
                 str(map_path)]) == 2
    assert f"timepoint map {map_path}" in capsys.readouterr().err


def test_analyze_reads_subject_and_timepoint_from_the_map(tmp_path):
    manifest = load_manifest(build_cohort(tmp_path / "in", n_subjects=3))
    [path], _ = extract_run(manifest, tmp_path / "out")
    path.write_text(path.read_text().replace("_tp1", "_first")
                    .replace("_tp2", "_second"))
    map_path = tmp_path / "tpmap.json"
    map_path.write_text(json.dumps(
        {f"sub{i:02d}_{word}": [f"sub{i:02d}", tp] for i in range(3)
         for word, tp in (("first", 1), ("second", "2"))}))
    args = ["analyze", "--in", str(path), "--out", str(tmp_path / "reports")]
    assert main(args) == 2
    assert main(args + ["--timepoint-map", str(map_path)]) == 0


def test_analyze_rejects_unknown_columns(tmp_path):
    manifest = load_manifest(build_cohort(tmp_path / "in", n_subjects=3))
    csv_paths, _ = extract_run(manifest, tmp_path / "out")
    text = csv_paths[0].read_text().splitlines()
    text[0] = text[0].replace("original_glcm_Contrast", "mystery_column")
    csv_paths[0].write_text("\n".join(text) + "\n")
    with pytest.raises(SchemaMismatch):
        analyze_run(csv_paths, tmp_path / "reports")


def test_analyze_rejects_missing_study_column(tmp_path):
    bad = tmp_path / "FullStudySettings_noNormalization_2D_T2AX_bin15.csv"
    bad.write_text("general_info_VoxelNum,original_shape_Volume\n1,2.0\n")
    with pytest.raises(SchemaMismatch):
        analyze_run([bad], tmp_path / "reports")


@pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "Infinity",
                                  "abc", "1.2.3"])
def test_analyze_rejects_non_finite_cells(tmp_path, cell):
    bad = tmp_path / "FullStudySettings_noNormalization_2D_T2AX_bin15.csv"
    rows = ["general_info_VoxelNum,original_shape_Volume,original_glcm_Contrast,"
            "study,series,canonicalType,segmentedStructure"]
    for subject in range(3):
        for tp in (1, 2):
            contrast = cell if (subject, tp) == (1, 2) else "0.5"
            rows.append(f"8,{8 + subject},{contrast},"
                        f"sub{subject:02d}_tp{tp},s,T2AX,Tumor")
    bad.write_text("\n".join(rows) + "\n")
    with pytest.raises(SchemaMismatch) as info:
        read_feature_csv(bad)
    for name in (str(bad), "sub01_tp2", "original_glcm_Contrast"):
        assert name in str(info.value)
    with pytest.raises(SchemaMismatch):
        analyze_run([bad], tmp_path / "reports")


def _hand_written_csv(path, cells, contrast_header="original_glcm_Contrast"):
    """Six rows over three subjects; ``cells`` fill the Contrast column."""
    rows = ["general_info_VoxelNum,original_shape_Volume,"
            f"{contrast_header},study,series,canonicalType,segmentedStructure"]
    for i, cell in enumerate(cells):
        subject, tp = divmod(i, 2)
        rows.append(f"8,{8 + subject + tp},{cell},"
                    f"sub{subject:02d}_tp{tp + 1},s,T2AX,Tumor")
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.mark.parametrize("fault", ["short row", "long row", "repeated column"])
def test_analyze_rejects_ragged_rows_and_repeated_columns(tmp_path, capsys,
                                                          fault):
    bad = _hand_written_csv(
        tmp_path / "FullStudySettings_noNormalization_2D_T2AX_bin15.csv",
        ["0.5", "0.7", "0.2", "0.4", "0.9", "0.1"],
        "original_shape_Volume" if fault == "repeated column"
        else "original_glcm_Contrast")
    lines = bad.read_text().splitlines()
    if fault == "short row":
        lines[-1] = lines[-1].rsplit(",", 1)[0]
    elif fault == "long row":
        lines[3] += ",extra"
    bad.write_text("\n".join(lines) + "\n")
    line = {"short row": 7, "long row": 4, "repeated column": 1}[fault]
    with pytest.raises(SchemaMismatch, match=f", line {line}: ") as info:
        read_feature_csv(bad)
    assert str(bad) in str(info.value)
    assert main(["analyze", "--in", str(bad),
                 "--out", str(tmp_path / "reports")]) == 2
    assert f"line {line}" in capsys.readouterr().err


def _assert_reads_like_oracle(path):
    """read_feature_csv equals the DictReader oracle bit for bit."""
    matrices = read_feature_csv(path)
    expected = brute_read_feature_csv(path)
    assert list(matrices) == list(expected)
    for structure, rows in expected.items():
        matrix = matrices[structure]
        assert matrix.features == tuple(rows[0].values)
        assert matrix.subjects == tuple(row.subject for row in rows)
        assert matrix.timepoints == tuple(row.timepoint for row in rows)
        values = np.array([[np.nan if v is None else v
                            for v in row.values.values()] for row in rows])
        assert matrix.values.shape == values.shape
        assert matrix.values.tobytes() == values.tobytes()


def test_read_feature_csv_matches_oracle_on_extracted_cohort(tmp_path, rng):
    settings = {"normalizationModes": ["none"], "binWidths": [15],
                "dimensionality": "2D", "filters": ["original", "square"]}
    manifest = load_manifest(build_cohort(
        tmp_path / "in", n_subjects=4, settings=settings,
        structures=("Tumor", "WholeGland")))
    [path], _ = extract_run(manifest, tmp_path / "out")
    with open(path, newline="") as handle:
        lines = list(csv.reader(handle))
    features = [j for j, c in enumerate(lines[0]) if "_" in c
                and not c.startswith("general_info_") and c != "original_shape_Volume"]
    blanked = 0
    for line in lines[1:]:
        for j in rng.choice(features, size=25, replace=False):
            blanked += line[j] != ""
            line[j] = ""
    assert blanked > 100
    _write_csv(path, lines[0], lines[1:])
    _assert_reads_like_oracle(path)
    matrices = read_feature_csv(path)
    assert sorted(matrices) == ["Tumor", "WholeGland"]
    assert all(np.isnan(m.values).any() for m in matrices.values())


def test_read_feature_csv_parses_cells_like_float(tmp_path):
    cells = ["-0", "0", "5e-324", "4.9406564584124654e-324",
             "2.2250738585072009e-308", "2.2250738585072014e-308", "1e-308",
             "-1e-308", "1e308", "-1e308", "1.7976931348623157e+308",
             "-1.7976931348623157e308", "1e-400", "0.10000000000000001",
             "9007199254740993", "1.0000000000000002",
             "123456789012345678901234567890", " 1", "1_0", "+7", "",
             "-2.5e-3"]
    for start in range(0, len(cells), 6):
        chunk = (cells[start:start + 6] + ["1"] * 6)[:6]
        path = _hand_written_csv(tmp_path / f"cells{start}.csv", chunk)
        _assert_reads_like_oracle(path)
    [matrix] = read_feature_csv(_hand_written_csv(
        tmp_path / "zeros.csv", ["-0", "0", "", "1", "1", "1"])).values()
    contrast = matrix.values[:, matrix.features.index("original_glcm_Contrast")]
    assert np.signbit(contrast[:2]).tolist() == [True, False]
    assert np.isnan(contrast[2])


@pytest.mark.parametrize("name", ["FullStudySettings_2D_T2AX.csv",
                                  "FullStudySettings_2D_bin15.csv"],
                         ids=["no-bin-width", "no-image-type"])
def test_analyze_refuses_a_csv_name_without_its_cell(tmp_path, name):
    with pytest.raises(SchemaMismatch, match=re.escape(
            f"{Path(name).stem}: filename lacks a binNN or image-type code")):
        analyze_run([tmp_path / name], tmp_path / "reports")
    assert not (tmp_path / "reports").exists()


def test_plotdata_missing_reports(tmp_path):
    from radrep.pipeline import MissingReport
    (tmp_path / "empty").mkdir()
    with pytest.raises(MissingReport):
        plotdata_run(tmp_path / "empty", tmp_path / "plots")


def test_interrupted_write_leaves_no_file_behind(tmp_path):
    def rows():
        for i in range(20000):  # well past one write buffer
            yield [i, "x" * 10]
        raise RuntimeError("writer failed")

    target = tmp_path / "report.csv"
    with pytest.raises(RuntimeError):
        _write_csv(target, ["i", "x"], rows())
    assert list(tmp_path.iterdir()) == []
    _write_csv(target, ["i", "x"], [[1, "a"]])
    with pytest.raises(RuntimeError):
        _write_csv(target, ["i", "x"], rows())
    assert list(tmp_path.iterdir()) == [target]
    assert target.read_text() == "i,x\n1,a\n"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_import_leaves_scipy_stats_unloaded():
    # a fresh interpreter, as this test session itself imports scipy; the
    # worker pools are imported only by the runs that start one
    src = Path(radrep.__file__).resolve().parents[1]
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, radrep.cli; print(*sorted(sys.modules))"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
        text=True, check=True, timeout=120).stdout.split()
    assert "radrep.cli" in loaded
    assert not [m for m in loaded if m.split(".")[0] in (
        "scipy", "concurrent", "multiprocessing")]


def test_extract_and_analyze_load_no_scipy_subpackage(tmp_path):
    # numpy only, for the full filter catalog in 3D and for a mask with a
    # large surface
    src = Path(radrep.__file__).resolve().parents[1]
    settings = {"normalizationModes": ["none", "wholeImage"],
                "binWidths": [15], "dimensionality": "3D"}
    manifest = build_cohort(tmp_path / "in", n_subjects=3, settings=settings)
    out, reports = tmp_path / "out", tmp_path / "reports"
    script = f"""
import sys
import numpy as np
import radrep.cli
from radrep.features import shape_features
from radrep.volume_io import RoiMask, Structure

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

assert radrep.cli.main(["extract", "--manifest", {str(manifest)!r},
                        "--out", {str(out)!r}]) == 0
assert radrep.cli.main(["analyze", "--in", {str(out / "*.csv")!r},
                        "--out", {str(reports)!r}]) == 0
print("during", *loaded())
labels = np.ones((30, 30, 4), dtype=np.uint8)
shape_features(RoiMask((1.0, 1.0, 1.0), labels, Structure.TUMOR))
print("after", *loaded())
"""
    result = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-2:] == ["during", "after"]


def test_large_surface_extract_prints_each_gray_level_warning_once(tmp_path):
    # the second subject's slab has 36 x 36 surface voxels; the first
    # subject's cells have already warned (Ng 1 at bin width 1000) when
    # its shape is taken, and nothing may show those warnings again
    settings = {"normalizationModes": ["none"], "binWidths": [1000],
                "dimensionality": "3D", "filters": ["original"]}
    manifest = build_cohort(tmp_path / "in", n_subjects=2, settings=settings)
    rng = np.random.default_rng(3)
    slab = np.zeros((40, 40, 3))
    slab[2:38, 2:38, 1] = 1
    for entry in load_manifest(manifest).cohort[2:]:
        write_nrrd(entry.image_path, rng.normal(100, 10, slab.shape),
                   (1.0, 1.0, 3.0))
        write_nrrd(entry.masks[0].path, slab, (1.0, 1.0, 3.0), dtype="short")
    src = Path(radrep.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "radrep.cli", "extract", "--manifest",
         str(manifest), "--out", str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
        text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    # each text once, wherever it is reported from
    warned = [line.partition("GrayLevelCountWarning")[2]
              for line in result.stderr.splitlines()
              if "GrayLevelCountWarning" in line]
    assert warned
    assert len(warned) == len(set(warned)), result.stderr


def test_cli_end_to_end(tmp_path, capsys):
    manifest_path = build_cohort(tmp_path / "in", n_subjects=4)
    out = tmp_path / "features"
    assert main(["extract", "--manifest", str(manifest_path),
                 "--out", str(out)]) == 0
    assert main(["analyze", "--in", str(out / "*.csv"),
                 "--out", str(tmp_path / "reports")]) == 0
    assert main(["plotdata", "--in", str(tmp_path / "reports"),
                 "--out", str(tmp_path / "plots")]) == 0
    capsys.readouterr()


def test_cli_usage_error(tmp_path, capsys):
    assert main(["extract"]) == 1
    assert main([]) == 1
    # the Volume ICC is the one reference
    assert main(["analyze", "--in", str(tmp_path / "*.csv"), "--reference",
                 "original_shape_Volume", "--out", str(tmp_path / "r")]) == 1
    assert "unrecognized arguments: --reference" in capsys.readouterr().err
    manifest_path = build_cohort(tmp_path / "in", n_subjects=1)
    capsys.readouterr()
    for jobs in ("0", "-3", "a"):
        assert main(["extract", "--jobs", jobs, "--manifest",
                     str(manifest_path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        # the usage line, then what is wrong
        assert err.startswith("usage: radrep extract")
        assert (f"radrep extract: error: argument --jobs: must be a whole "
                f"number of at least 1, got '{jobs}'") in err
    assert main(["extract", "--out", str(tmp_path / "out")]) == 1
    assert ("radrep extract: error: the following arguments are required: "
            "--manifest") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_jobs_is_an_extract_option(tmp_path, capsys):
    manifest_path = build_cohort(tmp_path / "in")
    out = tmp_path / "features"
    assert main(["extract", "--jobs", "2", "--manifest", str(manifest_path),
                 "--out", str(out)]) == 0
    assert main(["analyze", "--jobs", "2", "--in", str(out / "*.csv"),
                 "--out", str(tmp_path / "reports")]) == 1
    assert not (tmp_path / "reports").exists()
    capsys.readouterr()


def test_cli_data_error(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["extract", "--manifest", str(missing),
                 "--out", str(tmp_path / "out")]) == 2
    assert main(["analyze", "--in", str(tmp_path / "nothing-*.csv"),
                 "--out", str(tmp_path / "reports")]) == 2
    capsys.readouterr()


def test_cli_partial_failure_exit_code(tmp_path, capsys):
    settings = {"normalizationModes": ["referenceRegion"], "binWidths": [15],
                "dimensionality": "2D", "filters": ["original"]}
    manifest_path = build_cohort(tmp_path / "in", n_subjects=1,
                                 settings=settings, with_reference=False)
    assert main(["extract", "--manifest", str(manifest_path),
                 "--out", str(tmp_path / "out")]) == 3
    capsys.readouterr()
