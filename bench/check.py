"""Output check of one command against what its inputs imply.

Beyond the SHA-256 of every output file (which the caller compares
across runs, worker counts and traced/untraced runs), the check
recomputes from the generated arrays what a correct run must report:

- extract: each CSV passes ``validate_feature_csv``; every (study,
  structure) row is present once with the generated image and mask
  digests, voxel count and volume, and ``original`` first-order Mean,
  Minimum and Maximum match the normalized ROI intensities; no
  ``extraction_errors.csv`` is written.
- analyze: every (CSV, structure) table has an ICC file with one row per
  feature column, its Volume reference ICC matches ICC(1,1) of the
  generated Volume column, the ``--compare`` deltas exist, and plotdata
  wrote one plot file per report.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from radrep.pipeline import SchemaMismatch, validate_feature_csv

REL_TOL = 1e-9


def digests(root: Path) -> dict[str, str]:
    """SHA-256 of every file under ``root``, keyed by relative path."""
    return {
        path.relative_to(root).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def check(inputs, out: Path) -> list[str]:
    """Problems found in the outputs under ``out``; empty when correct."""
    if inputs.workload.command == "extract":
        return _check_extract(inputs, out / "features")
    return _check_analyze(inputs, out / "reports", out / "plots")


def _close(actual: float, expected: float) -> bool:
    return math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=REL_TOL)


def _normalized(row: dict, mode: str) -> np.ndarray:
    image = row["image"]
    if mode == "none":
        return image
    if mode == "wholeImage":
        source, mean, std = image, 300.0, 100.0
    else:
        source, mean, std = image[row["muscle"]], 100.0, 10.0
    return mean + (image - source.mean()) * (std / source.std())


def _check_extract(inputs, features: Path) -> list[str]:
    problems = []
    if (features / "extraction_errors.csv").exists():
        problems.append("extraction_errors.csv was written")
    shape = inputs.shape
    paths = sorted(p for p in features.glob("*.csv")
                   if p.name != "extraction_errors.csv")
    if len(paths) != len(shape.modes) * len(shape.bin_widths):
        problems.append(f"{len(paths)} feature CSVs written")
    voxel_volume = math.prod(shape.spacing)
    for path in paths:
        try:
            validate_feature_csv(path)
        except SchemaMismatch as exc:
            problems.append(str(exc))
        with open(path, newline="") as handle:
            records = list(csv.DictReader(handle))
        seen = sorted((r["study"], r["segmentedStructure"]) for r in records)
        if seen != sorted(inputs.rows):
            problems.append(f"{path.name}: rows {seen}")
            continue
        for record in records:
            row = inputs.rows[(record["study"], record["segmentedStructure"])]
            where = f"{path.name}/{record['study']}"
            if record["general_info_ImageHash"] != row["image_hash"]:
                problems.append(f"{where}: image hash")
            if record["general_info_MaskHash"] != row["mask_hash"]:
                problems.append(f"{where}: mask hash")
            if record["general_info_VoxelNum"] != str(row["voxels"]):
                problems.append(f"{where}: voxel count")
            if not _close(float(record["original_shape_Volume"]),
                          row["voxels"] * voxel_volume):
                problems.append(f"{where}: volume")
            settings = dict(item.split("=", 1) for item in
                            record["general_info_GeneralSettings"].split(";"))
            roi = _normalized(row, settings["normalization"])[row["mask"]]
            for name, expected in (("Mean", roi.mean()), ("Minimum", roi.min()),
                                   ("Maximum", roi.max())):
                cell = record[f"original_firstorder_{name}"]
                if not cell or not _close(float(cell), float(expected)):
                    problems.append(f"{where}: firstorder {name} {cell!r}, "
                                    f"expected {expected!r}")
    return problems


def _check_analyze(inputs, reports: Path, plots: Path) -> list[str]:
    if not reports.is_dir():
        return ["no report directory"]
    problems = []
    for (stem, structure), volume_icc in sorted(inputs.volume_iccs.items()):
        icc_path = reports / f"icc__{stem}__{structure}.csv"
        freq_path = reports / f"filterfreq__{stem}__{structure}.json"
        if not icc_path.is_file() or not freq_path.is_file():
            problems.append(f"{stem}/{structure}: ICC reports missing")
            continue
        with open(icc_path, newline="") as handle:
            rows = sum(1 for _ in handle) - 1
        if rows != inputs.n_features:
            problems.append(f"{icc_path.name}: {rows} ICC rows, expected "
                            f"{inputs.n_features}")
        reference = json.loads(freq_path.read_text())["volumeReferenceIcc"]
        if not _close(reference, volume_icc):
            problems.append(f"{freq_path.name}: Volume ICC {reference!r}, "
                            f"expected {volume_icc!r}")
    stem_a, stem_b = inputs.compare
    for structure in inputs.shape.structures:
        if not (reports / f"delta__{stem_a}__vs__{stem_b}__{structure}.json"
                ).is_file():
            problems.append(f"delta report for {structure} missing")
    for report in sorted(reports.iterdir()):
        if report.name.startswith("binwidth_notes__"):
            continue
        if not (plots / f"plot_{report.stem}.csv").is_file():
            problems.append(f"no plot data for {report.name}")
    return problems
