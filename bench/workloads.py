"""Deterministic synthetic inputs for the benchmark workloads.

Every workload is generated from its seed alone: the same seed gives
byte-identical files. The seed moves intensities and ROI positions but
not grid sizes, ROI sizes or intensity scales, so the work a run does
(and therefore its timing) does not depend on the seed. ROI volume
varies across subjects, so the Volume ICC is defined.

Besides the files, generation returns the expectations the output check
compares against: per (study, structure) the image and mask payload
digests and voxel counts, and per feature-CSV table the Volume ICC.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from radrep.pipeline import GENERAL_INFO_COLUMNS, META_COLUMNS, \
    RunSettings, config_csv_name, default_filters, feature_columns
from radrep.volume_io import write_nrrd

TUMOR_INTENSITY = 260.0
BACKGROUND_INTENSITY = 160.0
MUSCLE_INTENSITY = 90.0


@dataclass(frozen=True)
class ExtractShape:
    """Size of an extraction workload."""

    subjects: int
    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    dimensionality: str
    modes: tuple[str, ...]
    bin_widths: tuple[float, ...]
    jobs: int
    # per-subject ROI extents in voxels (small-roi) or None (grid-filling ROI)
    roi_extents: tuple[tuple[int, int, int], ...] | None


@dataclass(frozen=True)
class AnalyzeShape:
    """Size of the analysis workload."""

    subjects: int
    image_types: tuple[str, ...]
    modes: tuple[str, ...]
    bin_widths: tuple[float, ...]
    structures: tuple[str, ...]
    blank_cells: int  # undefined cells per (CSV, structure), never in Volume
    jobs: int = 1  # analyze_run is single-threaded


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "extract" or "analyze"
    full: ExtractShape | AnalyzeShape
    smoke: ExtractShape | AnalyzeShape


# Sized so one command takes 3-5 s on two cores: a 55 s run then holds
# nine to twelve commands, whose median is steady enough to compare across
# seeds. BENCHMARK.json lists small-roi-3d and cohort-analyze only, so that
# its runs can be that long; roi-filled-2d is run by hand with run.py.
WORKLOADS = {w.name: w for w in (
    Workload(
        "small-roi-3d", "extract",
        full=ExtractShape(
            subjects=3, dims=(40, 40, 8), spacing=(0.6, 0.6, 3.0),
            dimensionality="3D", modes=("wholeImage",), bin_widths=(20.0,),
            jobs=1, roi_extents=((8, 8, 2), (10, 9, 3), (12, 11, 3))),
        smoke=ExtractShape(
            subjects=3, dims=(14, 14, 5), spacing=(0.6, 0.6, 3.0),
            dimensionality="3D", modes=("wholeImage",), bin_widths=(20.0,),
            jobs=1, roi_extents=((3, 3, 2), (4, 3, 2), (4, 4, 3))),
    ),
    Workload(
        "roi-filled-2d", "extract",
        full=ExtractShape(
            subjects=3, dims=(20, 20, 2), spacing=(1.0, 1.0, 3.0),
            dimensionality="2D",
            modes=("none", "wholeImage", "referenceRegion"),
            bin_widths=(10.0, 20.0, 40.0), jobs=2, roi_extents=None),
        smoke=ExtractShape(
            subjects=3, dims=(10, 10, 3), spacing=(1.0, 1.0, 3.0),
            dimensionality="2D", modes=("none", "referenceRegion"),
            bin_widths=(20.0, 40.0), jobs=2, roi_extents=None),
    ),
    Workload(
        "cohort-analyze", "analyze",
        full=AnalyzeShape(
            subjects=10, image_types=("ADC", "T2AX"),
            modes=("none", "wholeImage"), bin_widths=(10.0, 20.0),
            structures=("PeripheralZone", "Tumor", "WholeGland"),
            blank_cells=12),
        smoke=AnalyzeShape(
            subjects=4, image_types=("T2AX",), modes=("wholeImage",),
            bin_widths=(10.0, 20.0), structures=("Tumor", "WholeGland"),
            blank_cells=2),
    ),
)}


@dataclass
class Inputs:
    """Generated files plus what a correct run must reproduce from them."""

    workload: Workload
    shape: ExtractShape | AnalyzeShape
    root: Path
    manifest: Path | None = None
    csv_glob: str | None = None
    compare: tuple[str, str] | None = None
    # extract: (study, structure) -> generated image, mask and muscle
    # arrays, the image and mask digests and the ROI voxel count
    rows: dict = field(default_factory=dict)
    # analyze: (csv stem, structure) -> Volume ICC
    volume_iccs: dict = field(default_factory=dict)
    n_features: int = 0

    @property
    def operations(self) -> int:
        """Operations one command attempts (see the benchmark docstring)."""
        s = self.shape
        if isinstance(s, AnalyzeShape):
            return (len(s.image_types) * len(s.modes) * len(s.bin_widths)
                    * len(s.structures))
        return (2 * s.subjects * len(default_filters(s.dimensionality))
                * len(s.modes) * len(s.bin_widths))


def generate(name: str, seed: int, root, smoke: bool = False) -> Inputs:
    """Write workload ``name``'s inputs under ``root`` (created)."""
    workload = WORKLOADS[name]
    shape = workload.smoke if smoke else workload.full
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])
    inputs = Inputs(workload=workload, shape=shape, root=root)
    if workload.command == "extract":
        _generate_cohort(inputs, rng)
    else:
        _generate_feature_csvs(inputs, rng)
    return inputs


def _sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.asfortranarray(array).tobytes(order="F")).hexdigest()


def _ellipsoid(dims, center, semi_axes) -> np.ndarray:
    grids = np.indices(dims, dtype=np.float64)
    r2 = sum(((g - c) / a) ** 2 for g, c, a in zip(grids, center, semi_axes))
    return r2 <= 1.0


def _grid_filling_roi(dims, subject: int) -> np.ndarray:
    """Elliptic ROI per slice whose bounding box is the whole grid.

    The middle slice's ellipse touches all four in-plane edges; the other
    slices taper by a subject-dependent factor, which varies the volume.
    """
    nx, ny, nz = dims
    taper = 0.1 + 0.08 * subject
    mid = nz // 2
    labels = np.zeros(dims, dtype=bool)
    for k in range(nz):
        scale = max(0.35, 1.0 - taper * abs(k - mid))
        semi = ((nx - 1) / 2 * scale + 0.5, (ny - 1) / 2 * scale + 0.5, 1.0)
        labels[:, :, k] = _ellipsoid(
            (nx, ny, 1), ((nx - 1) / 2, (ny - 1) / 2, 0.0), semi)[:, :, 0]
    labels[0, ny // 2, mid] = labels[nx - 1, ny // 2, mid] = True
    labels[nx // 2, 0, mid] = labels[nx // 2, ny - 1, mid] = True
    return labels


def _generate_cohort(inputs: Inputs, rng: np.random.Generator) -> None:
    s = inputs.shape
    dims = s.dims
    cohort = []
    for subject in range(s.subjects):
        sid = f"sub{subject:02d}"
        if s.roi_extents is None:
            tumor = _grid_filling_roi(dims, subject)
        else:
            extent = s.roi_extents[subject % len(s.roi_extents)]
            lo = [int(rng.integers(1, d - e)) for d, e in zip(dims, extent)]
            center = [l + (e - 1) / 2 for l, e in zip(lo, extent)]
            tumor = _ellipsoid(dims, center, [e / 2 + 0.3 for e in extent])
        muscle = np.zeros(dims, dtype=bool)
        muscle[: max(2, dims[0] // 8), : max(2, dims[1] // 8), :] = True
        muscle &= ~tumor
        base = rng.normal(BACKGROUND_INTENSITY, 25.0, size=dims)
        base[tumor] += TUMOR_INTENSITY - BACKGROUND_INTENSITY + rng.normal(
            0.0, 15.0, size=int(tumor.sum()))
        base[muscle] = rng.normal(MUSCLE_INTENSITY + 4.0 * subject, 8.0,
                                  size=int(muscle.sum()))
        for tp in (1, 2):
            image = np.clip(base + rng.normal(0.0, 4.0, size=dims), 1.0, None)
            image_name = f"{sid}_tp{tp}_T2AX.nrrd"
            tumor_name = f"{sid}_tp{tp}_tumor.nrrd"
            muscle_name = f"{sid}_tp{tp}_muscle.nrrd"
            write_nrrd(inputs.root / image_name, image, s.spacing)
            write_nrrd(inputs.root / tumor_name, tumor.astype(np.int16),
                       s.spacing, dtype="short")
            write_nrrd(inputs.root / muscle_name, muscle.astype(np.int16),
                       s.spacing, dtype="short")
            cohort.append({
                "subjectId": sid, "timepoint": tp, "imageType": "T2AX",
                "imagePath": image_name,
                "masks": [{"structure": "Tumor", "path": tumor_name}],
                "referenceMaskPath": muscle_name,
            })
            inputs.rows[(f"{sid}_tp{tp}", "Tumor")] = {
                "image": image, "mask": tumor, "muscle": muscle,
                "image_hash": _sha256(image),
                "mask_hash": _sha256(tumor.astype(np.uint8)),
                "voxels": int(tumor.sum()),
            }
    manifest = {
        "cohort": cohort,
        "settings": {
            "normalizationModes": list(s.modes),
            "binWidths": list(s.bin_widths),
            "dimensionality": s.dimensionality,
        },
    }
    inputs.manifest = inputs.root / "manifest.json"
    inputs.manifest.write_text(json.dumps(manifest, indent=2))


def _icc_1_1(pairs: np.ndarray) -> float:
    """ICC(1,1) of an (n subjects x 2 timepoints) array."""
    n = pairs.shape[0]
    means = pairs.mean(axis=1)
    bms = 2.0 * float(np.sum((means - pairs.mean()) ** 2)) / (n - 1)
    wms = float(np.sum((pairs - means[:, None]) ** 2)) / n
    return (bms - wms) / (bms + wms)


def _generate_feature_csvs(inputs: Inputs, rng: np.random.Generator) -> None:
    """Feature CSVs in the exact extraction schema, written directly.

    Each feature column is subject effect + retest noise with its own
    scale and reliability, so ICCs spread over (0, 1). The Volume column
    is always defined, so every table has its reference.
    """
    s = inputs.shape
    settings = RunSettings(normalization_modes=s.modes,
                           bin_widths=s.bin_widths, dimensionality="3D",
                           filters=default_filters("3D"))
    features = feature_columns(settings.filters)
    inputs.n_features = len(features)
    volume_col = features.index("original_shape_Volume")
    columns = list(GENERAL_INFO_COLUMNS) + features + list(META_COLUMNS)
    n_rows = s.subjects * 2
    out_dir = inputs.root / "features"
    out_dir.mkdir()
    stems = []
    for image_type in s.image_types:
        for mode in s.modes:
            for bin_width in s.bin_widths:
                name = config_csv_name(image_type, mode, bin_width, settings)
                stems.append(name[:-4])
                lines = [",".join(columns)]
                rows = []
                for structure in s.structures:
                    scale = rng.uniform(0.5, 50.0, size=len(features))
                    noise = rng.uniform(0.05, 1.5, size=len(features))
                    subject_effect = rng.normal(size=(s.subjects, len(features)))
                    values = (subject_effect[:, None, :] + noise * rng.normal(
                        size=(s.subjects, 2, len(features)))) * scale + 3 * scale
                    values[:, :, volume_col] = (
                        np.linspace(800.0, 3000.0, s.subjects)[:, None]
                        * rng.uniform(0.97, 1.03, size=(s.subjects, 2)))
                    inputs.volume_iccs[(name[:-4], structure)] = _icc_1_1(
                        values[:, :, volume_col])
                    cells = values.reshape(n_rows, len(features)).astype(object)
                    blank_cols = rng.choice(
                        [i for i in range(len(features)) if i != volume_col],
                        size=s.blank_cells, replace=False)
                    for col in blank_cols:
                        cells[rng.integers(n_rows), col] = None
                    for r in range(n_rows):
                        subject, tp = divmod(r, 2)
                        study = f"sub{subject:02d}_tp{tp + 1}"
                        rows.append((study, structure, cells[r]))
                for study, structure, cells in sorted(
                        rows, key=lambda row: (row[0], row[1])):
                    info = ["0 0 0 9 9 9", "original", "synthetic", "0" * 64,
                            "1 1 3", "0" * 64, "synthetic", "1", "100"]
                    body = ["" if v is None else f"{v:.17g}" for v in cells]
                    meta = [study, f"{study}_{image_type}", image_type,
                            structure]
                    lines.append(",".join(info + body + meta))
                (out_dir / name).write_text("\n".join(lines) + "\n")
    inputs.csv_glob = str(out_dir / "*.csv")
    inputs.compare = (stems[0], stems[1])
