import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import radrep
from radrep.cli import main
from radrep.features import FEATURE_ROSTER
from radrep.pipeline import (ManifestError, RunSettings, SchemaMismatch,
                             _general_info, _union_box, _write_csv,
                             analyze_run, config_csv_name, extract_run,
                             load_manifest, parse_config_from_name,
                             plotdata_run, read_feature_csv,
                             validate_feature_csv)
from radrep.preprocess import (WAVELET_SUBBANDS_2D, WAVELET_SUBBANDS_3D,
                               FilterKind, FilterSpec)
from radrep.volume_io import write_nrrd

from cohorts import DIMS, build_cohort
from conftest import make_mask, make_volume
from oracles import brute_read_feature_csv


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


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
    {"normalizationModes": "none"},
    {"registeredMasks": "false"},
    {"biasCorrected": 1},
])
def test_manifest_rejects_repeated_cells_and_wrong_typed_settings(
        tmp_path, settings):
    manifest_path = build_cohort(tmp_path, n_subjects=1)
    doc = json.loads(manifest_path.read_text())
    doc["settings"].update(settings)
    manifest_path.write_text(json.dumps(doc))
    with pytest.raises(ManifestError):
        load_manifest(manifest_path)


@pytest.mark.parametrize("doc", [[], {"cohort": 5}, {"settings": []}])
def test_manifest_must_be_an_object_with_a_cohort_list(tmp_path, doc):
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match="must be a JSON object"):
        load_manifest(manifest_path)


def test_bin_widths_round_trip_through_csv_names(tmp_path):
    widths = [5e-05, 1e-4, 0.5, 2.5, 10, 25, 1e5]
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


def test_extraction_parallel_matches_serial(tmp_path):
    from radrep.volume_io import write_nrrd
    settings = {"normalizationModes": ["none", "wholeImage", "referenceRegion"],
                "binWidths": [10, 20], "dimensionality": "2D"}
    manifest_path = build_cohort(tmp_path / "in", n_subjects=2,
                                 settings=settings, with_reference=True)
    labels = np.zeros((4, 4, 2))
    labels[1, 1, 1] = 1
    write_nrrd(tmp_path / "in" / "sub01_tp1_Tumor.nrrd", labels, (1, 1, 3),
               dtype="short")
    manifest = load_manifest(manifest_path)
    serial, failures = extract_run(manifest, tmp_path / "serial", jobs=1)
    parallel, _ = extract_run(manifest, tmp_path / "parallel", jobs=4)
    assert len(serial) == 6
    assert any(f.error == "GeometryMismatch" for f in failures)
    for a, b in zip(serial + [tmp_path / "serial" / "extraction_errors.csv"],
                    parallel + [tmp_path / "parallel" / "extraction_errors.csv"]):
        assert a.name == b.name
        assert a.read_bytes() == b.read_bytes()


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


def test_extraction_lays_out_run_lines_once_per_mask(tmp_path, monkeypatch):
    import radrep.pipeline
    import radrep.texture_matrices
    calls = {"pipeline": 0, "glrlm": 0}

    def counting(key, original):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(radrep.pipeline, "run_lines",
                        counting("pipeline", radrep.pipeline.run_lines))
    monkeypatch.setattr(radrep.texture_matrices, "run_lines",
                        counting("glrlm", radrep.texture_matrices.run_lines))
    settings = {"normalizationModes": ["none", "wholeImage"],
                "binWidths": [10, 20], "dimensionality": "3D",
                "filters": ["original", "square"]}
    manifest = load_manifest(build_cohort(tmp_path / "in", n_subjects=2,
                                          settings=settings,
                                          structures=("Tumor", "WholeGland")))
    csv_paths, failures = extract_run(manifest, tmp_path / "out")
    assert not failures and len(csv_paths) == 4
    # one layout per (entry, mask); the GLRLM builder never lays out its own
    assert calls == {"pipeline": 2 * len(manifest.cohort), "glrlm": 0}


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
    settings = {"normalizationModes": ["referenceRegion"], "binWidths": [15],
                "dimensionality": "2D", "filters": ["original"]}
    manifest = load_manifest(build_cohort(tmp_path / "in", n_subjects=1,
                                          settings=settings,
                                          with_reference=False))
    csv_paths, failures = extract_run(manifest, tmp_path / "out")
    assert failures
    assert all(f.error == "MissingReferenceMask" for f in failures)
    sidecar = tmp_path / "out" / "extraction_errors.csv"
    assert sidecar.exists()
    rows = read_rows(csv_paths[0])
    assert len(rows) == 2  # rows still emitted, features blank
    assert all(r["original_firstorder_Mean"] == "" for r in rows)
    # shape needs no intensities, so it still fills in
    assert all(r["original_shape_Volume"] != "" for r in rows)


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
        "study,segmentedStructure,filter,error,detail\n"

    # a run that would leave the MuscleRefNorm CSV behind is refused
    before = snapshot()
    capsys.readouterr()
    assert extract(manifest("c", ["none"], True)) == 2
    assert "FullStudySettings_MuscleRefNorm_2D_T2AX_bin15.csv" in \
        capsys.readouterr().err
    assert snapshot() == before


def test_registered_and_bias_codes(tmp_path):
    settings = {"normalizationModes": ["none"], "binWidths": [15],
                "dimensionality": "2D", "filters": ["original"],
                "registeredMasks": True, "biasCorrected": True}
    manifest = load_manifest(build_cohort(tmp_path / "in", n_subjects=1,
                                          settings=settings))
    csv_paths, _ = extract_run(manifest, tmp_path / "out")
    name = csv_paths[0].name
    assert "TP2Registered" in name and "biasCorrected" in name
    parsed = parse_config_from_name(csv_paths[0])
    assert parsed.registered


def test_geometry_mismatch_recorded_not_fatal(tmp_path):
    from radrep.volume_io import write_nrrd
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


def test_volume_num_counts_26_connected_parts_like_ndimage_label(rng):
    from scipy import ndimage
    settings = RunSettings(("none",), (10.0,), "3D",
                           (FilterSpec(FilterKind.ORIGINAL),))
    for _ in range(40):
        shape = tuple(int(n) for n in rng.integers(1, 9, size=3))
        labels = rng.random(shape) < rng.uniform(0.05, 0.6)
        labels.flat[rng.integers(labels.size)] = True
        info = _general_info(make_volume(np.zeros(shape)), "",
                             make_mask(labels), settings)
        assert info["general_info_VolumeNum"] == ndimage.label(
            labels, structure=np.ones((3, 3, 3), dtype=bool))[1]


def test_union_box_spans_every_mask():
    a, b = np.zeros((9, 8, 5)), np.zeros((9, 8, 5))
    a[1, 2, 0] = 1
    b[7:9, 5, 3] = 1
    boxes = _union_box([make_mask(a), make_mask(b)])
    assert boxes == (slice(1, 9), slice(2, 6), slice(0, 4))
    assert _union_box([]) is None


def test_log_is_computed_over_the_union_of_mask_boxes(tmp_path, monkeypatch):
    # two far-apart masks per entry: LoG is asked for the union of their
    # boxes only, and the CSVs equal those of a whole-grid LoG
    import radrep.preprocess
    settings = {"normalizationModes": ["none", "referenceRegion"],
                "binWidths": [10], "dimensionality": "3D",
                "filters": ["log", "original"]}
    root = tmp_path / "in"
    manifest = load_manifest(build_cohort(
        root, n_subjects=3, settings=settings, with_reference=True,
        structures=("Tumor", "WholeGland")))
    far = np.zeros((10, 10, 6))
    far[8:10, 7:9, 5] = 1
    for entry in manifest.cohort:
        write_nrrd(entry.masks[1].path, far, (1.0, 1.0, 3.0), dtype="short")
    original = radrep.preprocess.filter_log
    boxes = []

    def recording(volume, sigma_mm, box=None):
        boxes.append(box)
        return original(volume, sigma_mm, box)

    monkeypatch.setattr(radrep.preprocess, "filter_log", recording)
    cropped, failures = extract_run(manifest, tmp_path / "cropped")
    assert not failures
    # 5 sigmas x 2 modes per entry; every Tumor box starts at (1, 1, 1)
    assert boxes == [(slice(1, 10), slice(1, 9), slice(1, 6))] \
        * (5 * 2 * len(manifest.cohort))

    monkeypatch.setattr(radrep.preprocess, "filter_log",
                        lambda volume, sigma_mm, box=None:
                        original(volume, sigma_mm))
    whole, _ = extract_run(manifest, tmp_path / "whole")
    for a, b in zip(cropped, whole):
        assert a.read_bytes() == b.read_bytes()


def test_schema_validator_rejects_bad_layouts(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("study,series,canonicalType,segmentedStructure\n")
    with pytest.raises(SchemaMismatch):
        validate_feature_csv(bad)
    bad.write_text("general_info_X,original_glcm_Contrast,bogus_column,"
                   "study,series,canonicalType,segmentedStructure\n")
    with pytest.raises(SchemaMismatch):
        validate_feature_csv(bad)
    bad.write_text("general_info_X,original_glcm_NotAFeature,"
                   "study,series,canonicalType,segmentedStructure\n")
    with pytest.raises(SchemaMismatch):
        validate_feature_csv(bad)


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
    parsed = parse_config_from_name(
        "FullStudySettings_noNormalization_2D_T2AX_bin20.csv")
    assert parsed.image_type == "T2AX"
    assert parsed.normalization == "none"
    assert parsed.bin_width == 20.0
    assert parsed.dimensionality == "2D"
    parsed = parse_config_from_name(
        "FullStudySettings_MuscleRefNorm_3D_biasCorrected_ADC_bin10.csv")
    assert parsed.normalization == "referenceRegion"
    assert parsed.image_type == "ADC"
    assert parsed.dimensionality == "3D"


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


def test_analyze_reports_and_plotdata(tmp_path):
    settings = {"normalizationModes": ["none"], "binWidths": [10, 20],
                "dimensionality": "2D", "filters": ["original", "square"]}
    manifest = load_manifest(build_cohort(tmp_path / "in", n_subjects=5,
                                          settings=settings))
    csv_paths, _ = extract_run(manifest, tmp_path / "out")
    assert len(csv_paths) == 2
    written, _ = analyze_run(csv_paths, tmp_path / "reports",
                          compare=(csv_paths[0].stem, csv_paths[1].stem))
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


@pytest.mark.parametrize("content", [
    None, "{not json", '[["sub00_tp1", "sub00", 1]]',
    '{"sub00_tp1": ["sub00"]}', '{"sub00_tp1": "sub00"}',
    '{"sub00_tp1": ["sub00", "one"]}',
], ids=["missing", "not-json", "list", "short-entry", "bare-subject",
        "bad-timepoint"])
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
    # a fresh interpreter, as this test session itself imports scipy.stats
    src = Path(radrep.__file__).resolve().parents[1]
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, radrep.cli; print(*sorted(sys.modules))"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
        text=True, check=True, timeout=120).stdout.split()
    assert "radrep.cli" in loaded
    assert not {"scipy.stats", "scipy.optimize", "scipy.integrate",
                "scipy.interpolate"} & set(loaded)


def test_extract_and_analyze_load_no_scipy_subpackage(tmp_path):
    # numpy and the top-level scipy package only, for the full filter
    # catalog in 3D; scipy.spatial (the convex hull) loads once a surface
    # has more than 1200 voxels
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
    return sorted(m for m in sys.modules if m.startswith("scipy."))

assert radrep.cli.main(["extract", "--manifest", {str(manifest)!r},
                        "--out", {str(out)!r}]) == 0
assert radrep.cli.main(["analyze", "--in", {str(out / "*.csv")!r},
                        "--out", {str(reports)!r}]) == 0
print(*loaded())
labels = np.ones((30, 30, 4), dtype=np.uint8)
shape_features(RoiMask((30, 30, 4), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0),
                       labels, Structure.TUMOR))
print(*loaded())
"""
    result = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    during, after = (line.split() for line in result.stdout.splitlines()[-2:])
    heavy = ("scipy.ndimage", "scipy.sparse", "scipy.spatial")
    assert not [m for m in during if m.startswith(heavy)]
    assert "scipy.spatial" in after


def test_cli_end_to_end(tmp_path, capsys):
    manifest_path = build_cohort(tmp_path / "in", n_subjects=4)
    out = tmp_path / "features"
    assert main(["extract", "--manifest", str(manifest_path),
                 "--out", str(out)]) == 0
    assert main(["analyze", "--in", str(out / "*.csv"),
                 "--reference", "original_shape_Volume",
                 "--out", str(tmp_path / "reports")]) == 0
    assert main(["plotdata", "--in", str(tmp_path / "reports"),
                 "--out", str(tmp_path / "plots")]) == 0
    capsys.readouterr()


def test_cli_usage_error():
    assert main(["extract"]) == 1
    assert main([]) == 1


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
