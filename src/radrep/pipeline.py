"""Batch extraction over a run manifest and the analysis report driver.

``extract_run`` executes the configuration matrix (normalization modes x
bin widths, at one texture dimensionality) over the cohort, one entry at
a time, and writes one feature CSV per (image type, configuration cell).
Outputs are deterministic: fixed column order, rows sorted by (study,
series, structure), and 17-significant-digit float formatting, so
identical inputs produce byte-identical files. Per-row failures go to an errors
sidecar and never abort the run.

``analyze_run`` parses extraction CSVs back into repeatability tables
and emits the report suite: per-feature ICC tables, bin-width spread
with its KDE curve, rank distributions, top-3 per feature class, filter
frequency above the Volume reference, and configuration deltas.
"""

from __future__ import annotations

import csv
import json
import os
import re
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import product, repeat
from math import isfinite
from pathlib import Path

import numpy as np
import scipy

from . import RadrepError, __version__
from .discretize import DiscretizationSpec, discretize_roi
from .features import (FEATURE_ROSTER, firstorder_features,
                       glcm_features, glrlm_features, glszm_features,
                       shape_features)
from .preprocess import (FilterKind, FilterSpec, MissingReferenceMask,
                         NormalizationMode, NormalizationSpec, apply_filter,
                         normalize)
from .preprocess import filter_wavelet  # noqa: F401  bench/tracing.py traces it here
from .repeatability import (VOLUME_REFERENCE_FEATURE, ConfigKey,
                            DegenerateSamples, FeatureMatrix,
                            InsufficientFeatures, InsufficientSubjects,
                            MissingVolumeReference, RepeatabilityTable,
                            binwidth_spread, build_table, config_delta,
                            filter_frequency, kde, rank_distribution,
                            split_feature_key, top_k_per_class)
from .texture_matrices import (OFFSETS_3D, RunLines, build_glcm, build_glrlm,
                               build_glszm, label_zones, run_lines,
                               select_offsets)
from .volume_io import (GeometryMismatch, RoiMask, Structure, VolumeGrid,
                        check_geometry, read_mask, read_volume)

IMAGE_TYPES = ("T2AX", "ADC", "SUB")
META_COLUMNS = ("study", "series", "canonicalType", "segmentedStructure")
GENERAL_INFO_COLUMNS = (
    "general_info_BoundingBox", "general_info_EnabledImageTypes",
    "general_info_GeneralSettings", "general_info_ImageHash",
    "general_info_ImageSpacing", "general_info_MaskHash",
    "general_info_VersionTags", "general_info_VolumeNum",
    "general_info_VoxelNum",
)


class PipelineError(RadrepError):
    pass


class ManifestError(PipelineError):
    """The run manifest is malformed or references missing files."""


class SchemaMismatch(PipelineError):
    """A CSV column or value does not match the expected schema."""


class MissingReport(PipelineError):
    """No report can be made: plotdata input directory holds no analysis
    reports, or the CSVs named for a comparison share no structure."""


class StaleOutputs(PipelineError):
    """The output directory holds feature CSVs this run would not write."""


def format_value(value) -> str:
    """CSV cell formatting: 17 significant digits, empty for undefined."""
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


# The bin-width token of a CSV name, f"bin{width:g}", exponent included.
_BIN_TOKEN = re.compile(r"bin(\d+(?:\.\d+)?(?:e[+-]\d+)?)")


def _bin_width_of(token: str) -> float | None:
    """The bin width a 'binNN' file-name token spells, else None."""
    match = _BIN_TOKEN.fullmatch(token)
    return float(match.group(1)) if match else None


# ---------------------------------------------------------------------------
# Run manifest
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaskRef:
    structure: Structure
    path: Path


@dataclass(frozen=True)
class CohortEntry:
    subject_id: str
    timepoint: int
    image_type: str
    image_path: Path
    masks: tuple[MaskRef, ...]
    reference_mask_path: Path | None = None

    @property
    def study(self) -> str:
        return f"{self.subject_id}_tp{self.timepoint}"


@dataclass(frozen=True)
class RunSettings:
    normalization_modes: tuple[str, ...]
    bin_widths: tuple[float, ...]
    dimensionality: str
    filters: tuple[FilterSpec, ...]
    registered_masks: bool = False
    bias_corrected: bool = False


@dataclass(frozen=True)
class RunManifest:
    cohort: tuple[CohortEntry, ...]
    settings: RunSettings


def _expand_filter_names(names, dimensionality: str) -> tuple[FilterSpec, ...]:
    """The specs the manifest's filter names select, first occurrence kept."""
    specs: dict[str, FilterSpec] = {}
    for name in names:
        try:
            expanded = FilterSpec.expand(name, dimensionality)
        except ValueError as exc:
            raise ManifestError(str(exc)) from None
        for spec in expanded:
            specs.setdefault(spec.name, spec)
    return tuple(specs.values())


def default_filters(dimensionality: str) -> tuple[FilterSpec, ...]:
    """The full filter catalog at the given texture dimensionality."""
    return _expand_filter_names([kind.value for kind in FilterKind], dimensionality)


def _list_setting(settings_doc: dict, key: str, default: list, item_type,
                  noun: str) -> tuple:
    """``settings[key]`` (or ``default``) as a tuple, if a list of ``item_type``."""
    value = default if settings_doc.get(key) is None else settings_doc[key]
    if not isinstance(value, list) or not all(
            isinstance(v, item_type) and not isinstance(v, bool) for v in value):
        raise ManifestError(f"settings {key!r} must be a list of {noun}, "
                            f"got {value!r}")
    return tuple(value)


def load_manifest(path) -> RunManifest:
    """Parse and validate a JSON run manifest."""
    path = Path(path)
    base = path.parent
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    if not (isinstance(doc, dict) and isinstance(doc.get("settings", {}), dict)
            and isinstance(doc.get("cohort", []), list)):
        raise ManifestError(f"manifest {path} must be a JSON object with a "
                            "settings object and a cohort list")

    settings_doc = doc.get("settings", {})
    dimensionality = settings_doc.get("dimensionality", "3D")
    if dimensionality not in ("2D", "3D"):
        raise ManifestError(f"dimensionality must be 2D or 3D, got {dimensionality!r}")
    modes = _list_setting(settings_doc, "normalizationModes", ["none"], str,
                          "mode names")
    for mode in modes:
        try:
            NormalizationMode(mode)
        except ValueError:
            raise ManifestError(f"unknown normalization mode {mode!r}") from None
    if len(set(modes)) != len(modes):
        raise ManifestError(f"normalization modes repeat: {list(modes)}")
    bin_widths = tuple(float(w) for w in _list_setting(
        settings_doc, "binWidths", [15.0], (int, float), "numbers"))
    if any(w <= 0 for w in bin_widths):
        raise ManifestError("bin widths must be > 0")
    if len(set(bin_widths)) != len(bin_widths):
        raise ManifestError(f"bin widths repeat: {list(bin_widths)}")
    for w in bin_widths:
        if _bin_width_of(f"bin{w:g}") != w:
            raise ManifestError(
                f"bin width {w!r} is named bin{w:g} in CSV file names, which "
                "does not read back as the same value")
    filters = _expand_filter_names(_list_setting(
        settings_doc, "filters", [kind.value for kind in FilterKind], str,
        "filter names"), dimensionality)
    flags = {key: settings_doc.get(key, False)
             for key in ("registeredMasks", "biasCorrected")}
    if not all(isinstance(flag, bool) for flag in flags.values()):
        raise ManifestError(f"settings flags must be true or false, got {flags}")
    settings = RunSettings(
        normalization_modes=modes,
        bin_widths=bin_widths,
        dimensionality=dimensionality,
        filters=filters,
        registered_masks=flags["registeredMasks"],
        bias_corrected=flags["biasCorrected"],
    )

    entries: list[CohortEntry] = []
    for item in doc.get("cohort", []):
        try:
            structure_masks = tuple(
                MaskRef(Structure(m["structure"]), base / m["path"])
                for m in item["masks"]
            )
            entry = CohortEntry(
                subject_id=str(item["subjectId"]),
                timepoint=int(item["timepoint"]),
                image_type=str(item["imageType"]),
                image_path=base / item["imagePath"],
                masks=structure_masks,
                reference_mask_path=(base / item["referenceMaskPath"])
                if item.get("referenceMaskPath") else None,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestError(f"malformed cohort entry {item!r}: {exc}") from exc
        if entry.timepoint not in (1, 2):
            raise ManifestError(f"timepoint must be 1 or 2, got {entry.timepoint}")
        if entry.image_type not in IMAGE_TYPES:
            raise ManifestError(f"unknown image type {entry.image_type!r}")
        entries.append(entry)
    if not entries:
        raise ManifestError("manifest cohort is empty")

    by_key: dict[tuple[str, str], set[int]] = {}
    for entry in entries:
        by_key.setdefault((entry.subject_id, entry.image_type), set()).add(
            entry.timepoint)
    for (subject, image_type), tps in sorted(by_key.items()):
        if tps != {1, 2}:
            raise ManifestError(
                f"subject {subject!r} has timepoints {sorted(tps)} for "
                f"{image_type}; both 1 and 2 are required"
            )

    for entry in entries:
        paths = [entry.image_path] + [m.path for m in entry.masks]
        if entry.reference_mask_path:
            paths.append(entry.reference_mask_path)
        for p in paths:
            if not p.is_file():
                raise ManifestError(f"missing input file: {p}")
    return RunManifest(cohort=tuple(entries), settings=settings)


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------

def config_csv_name(image_type: str, normalization: str, bin_width: float,
                    settings: RunSettings) -> str:
    """Filename encoding the configuration cell via its code words."""
    parts = ["FullStudySettings"]
    mode = NormalizationMode(normalization)
    if mode is not NormalizationMode.WHOLE_IMAGE:
        parts.append(mode.code)
    parts.append(settings.dimensionality)
    if settings.bias_corrected:
        parts.append("biasCorrected")
    if settings.registered_masks:
        parts.append("TP2Registered")
    parts.append(image_type)
    parts.append(f"bin{bin_width:g}")
    return "_".join(parts) + ".csv"


def feature_columns(filters: tuple[FilterSpec, ...]) -> list[str]:
    """Fixed column order: shape under 'original', then per-filter classes."""
    columns = [f"original_shape_{name}" for name in FEATURE_ROSTER["shape"]]
    for spec in filters:
        for cls in ("firstorder", "glcm", "glrlm", "glszm"):
            columns += [f"{spec.name}_{cls}_{name}" for name in FEATURE_ROSTER[cls]]
    return columns


@dataclass
class ExtractionFailure:
    study: str
    structure: str
    filter_name: str
    error: str
    detail: str


def _normalized(image: VolumeGrid, entry: CohortEntry, mode: str) -> VolumeGrid:
    normalization = NormalizationMode(mode)
    if normalization is NormalizationMode.NONE:
        return image
    if normalization is NormalizationMode.WHOLE_IMAGE:
        return normalize(image, NormalizationSpec.whole_image())
    if entry.reference_mask_path is None:
        raise MissingReferenceMask(
            f"{entry.study}: referenceRegion normalization requires "
            "referenceMaskPath"
        )
    reference = read_mask(entry.reference_mask_path, Structure.MUSCLE_REFERENCE)
    return normalize(image, NormalizationSpec.reference_region(reference))


def _filtered_volumes(image: VolumeGrid, entry: CohortEntry, mode: str,
                      filters: tuple[FilterSpec, ...],
                      box: tuple[slice, slice, slice] | None):
    """Yield (spec, filtered grid or the exception that prevented it).

    Each spec, a wavelet subband too, is one :func:`apply_filter` call on
    the normalized image; ``box`` bounds the voxels that LoG computes.
    """
    try:
        volume = _normalized(image, entry, mode)
    except Exception as exc:
        for spec in filters:
            yield spec, exc
        return
    for spec in filters:
        try:
            filtered = apply_filter(volume, spec, box)
        except Exception as exc:
            filtered = exc
        yield spec, filtered


def _filter_task(study: str, volume: VolumeGrid | Exception, mask: RoiMask,
                 spec: FilterSpec, bin_width: float, dimensionality: str,
                 lines: RunLines | None):
    """Feature values for one (image, mask, filter, bin width) cell.

    Returns (column -> value, failures); a failing feature class blanks
    its columns and is reported, other classes still compute. A volume
    that could not be produced blanks and reports all classes. ``lines``
    is the mask's run-line layout (None: the GLRLM builder lays it out).
    """
    values: dict[str, float | None] = {}
    failures: list[ExtractionFailure] = []
    filter_name = spec.name

    def record(exc: Exception, cls: str):
        failures.append(ExtractionFailure(
            study=study, structure=mask.structure.value,
            filter_name=filter_name, error=type(exc).__name__,
            detail=f"{cls}: {exc}"))

    if isinstance(volume, Exception):
        record(volume, "all")
        return values, failures

    disc_spec = DiscretizationSpec(bin_width)
    try:
        fmap = firstorder_features(volume, mask, disc_spec)
        for (_, name), v in fmap.entries.items():
            values[f"{filter_name}_firstorder_{name}"] = v
    except Exception as exc:
        record(exc, "firstorder")
    try:
        disc = discretize_roi(volume, mask, disc_spec)
    except Exception as exc:
        record(exc, "texture")
        return values, failures
    for cls, build, compute in (
        ("glcm", build_glcm, glcm_features),
        ("glrlm", partial(build_glrlm, lines=lines), glrlm_features),
        ("glszm", build_glszm, glszm_features),
    ):
        try:
            fmap = compute(build(disc, dimensionality))
            for (_, name), v in fmap.entries.items():
                values[f"{filter_name}_{cls}_{name}"] = v
        except Exception as exc:
            record(exc, cls)
    return values, failures


def _general_info(image: VolumeGrid, image_hash: str, mask: RoiMask,
                  settings: RunSettings) -> dict:
    """General info shared by all configuration cells (all but GeneralSettings)."""
    box = mask.bounding_box
    volume_num, _ = label_zones(mask.inside, OFFSETS_3D)
    return {
        "general_info_BoundingBox": " ".join(
            str(v) for v in (*(s.start for s in box), *(s.stop - 1 for s in box))),
        "general_info_EnabledImageTypes":
            ";".join(s.name for s in settings.filters),
        "general_info_ImageHash": image_hash,
        "general_info_ImageSpacing":
            " ".join(format_value(s) for s in image.spacing),
        "general_info_MaskHash": mask.payload_hash(),
        "general_info_VersionTags":
            f"radrep={__version__};numpy={np.__version__};scipy={scipy.__version__}",
        "general_info_VolumeNum": volume_num,
        "general_info_VoxelNum": mask.voxel_count,
    }


def _general_settings(mode: str, bin_width: float, settings: RunSettings) -> str:
    return (
        f"normalization={mode};binWidth={bin_width:g};"
        f"dimensionality={settings.dimensionality};"
        f"registeredMasks={str(settings.registered_masks).lower()};"
        f"biasCorrected={str(settings.bias_corrected).lower()}"
    )


def _union_box(masks: list[RoiMask]) -> tuple[slice, slice, slice] | None:
    """Smallest box holding every mask's bounding box (None: no mask)."""
    if not masks:
        return None
    boxes = [mask.bounding_box for mask in masks]
    return tuple(slice(min(b[axis].start for b in boxes),
                       max(b[axis].stop for b in boxes)) for axis in range(3))


def _extract_entry(entry: CohortEntry, settings: RunSettings) -> dict:
    """One cohort entry's (mode, bin width) -> (rows, failures).

    The image and masks are read and the image hashed once; shape,
    general info and the GLRLM run-line layout of the mask's bounding box
    are computed once per mask and each filter once per mode. LoG is
    computed over the union of the masks' bounding boxes only (plus its
    kernel's reach). A failure that blanks a whole row or filter is
    recorded once in every cell it blanks.
    """
    cells = {(mode, bin_width): ([], [])
             for mode in settings.normalization_modes
             for bin_width in settings.bin_widths}

    def fail_row(structure: Structure, exc: Exception):
        for _, failures in cells.values():
            failures.append(ExtractionFailure(
                study=entry.study, structure=structure.value, filter_name="*",
                error=type(exc).__name__, detail=str(exc)))

    try:
        image = read_volume(entry.image_path)
    except Exception as exc:
        for mask_ref in entry.masks:
            fail_row(mask_ref.structure, exc)
        return cells
    image_hash = image.payload_hash()
    masks: list[RoiMask] = []
    for mask_ref in entry.masks:
        try:
            mask = read_mask(mask_ref.path, mask_ref.structure)
            if not check_geometry(image, mask):
                raise GeometryMismatch(
                    f"mask {mask_ref.path.name} does not match image grid")
        except Exception as exc:
            fail_row(mask_ref.structure, exc)
            continue
        masks.append(mask)

    directions = select_offsets(settings.dimensionality)
    mask_lines: list[RunLines | None] = []
    for mask in masks:
        shape, info, lines = {}, None, None
        try:
            shape = {f"original_shape_{name}": v
                     for (_, name), v in shape_features(mask).entries.items()}
            info = _general_info(image, image_hash, mask, settings)
            lines = run_lines(mask.inside.shape, directions)
        except Exception as exc:
            fail_row(mask.structure, exc)
        mask_lines.append(lines)
        meta = dict(zip(META_COLUMNS, (entry.study, entry.image_path.stem,
                                       entry.image_type, mask.structure.value)))
        for (mode, bin_width), (rows, _) in cells.items():
            row = {**shape, **meta}
            if info is not None:
                row.update(info, general_info_GeneralSettings=_general_settings(
                    mode, bin_width, settings))
            rows.append(row)

    box = _union_box(masks)
    for mode in settings.normalization_modes:
        for spec, volume in _filtered_volumes(image, entry, mode,
                                              settings.filters, box):
            for i, (mask, lines) in enumerate(zip(masks, mask_lines)):
                for bin_width in settings.bin_widths:
                    rows, failures = cells[(mode, bin_width)]
                    values, task_failures = _filter_task(
                        entry.study, volume, mask, spec, bin_width,
                        settings.dimensionality, lines)
                    rows[i].update(values)
                    failures.extend(task_failures)
    return cells


def extract_run(manifest: RunManifest, out_dir, jobs: int = 1,
                ) -> tuple[list[Path], list[ExtractionFailure]]:
    """Run the full configuration matrix; returns (csv paths, failures).

    Works one cohort entry at a time: its image and masks are read once,
    then each normalization mode, filter, mask and bin width is visited in
    turn. With ``jobs > 1`` a thread pool extracts that many entries at
    once, so memory is bounded by ``jobs`` images rather than the cohort.
    Rows are gathered into one CSV per (image type, normalization mode,
    bin width) and sorted by (study, series, structure), so the worker
    count never changes the output bytes. Failures are also written to
    ``extraction_errors.csv`` when any occur; an errors file left by an
    earlier run is replaced, header-only when this run has none.

    Raises :class:`StaleOutputs`, before extracting anything and deleting
    nothing, when ``out_dir`` holds a ``FullStudySettings_*.csv`` this
    manifest does not write, so a later ``analyze`` cannot mix runs.
    """
    out_dir = Path(out_dir)
    settings = manifest.settings
    image_types = sorted({e.image_type for e in manifest.cohort})
    configs = list(product(image_types, settings.normalization_modes,
                           settings.bin_widths))
    names = {config_csv_name(*config, settings) for config in configs}
    stale = sorted(path.name for path in out_dir.glob("FullStudySettings_*.csv")
                   if path.name not in names)
    if stale:
        raise StaleOutputs(
            f"{out_dir} holds feature CSVs this run does not write: "
            f"{', '.join(stale)}; move them away or write to another directory")
    out_dir.mkdir(parents=True, exist_ok=True)
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_extract_entry, manifest.cohort,
                                    repeat(settings)))
    else:
        results = [_extract_entry(entry, settings) for entry in manifest.cohort]

    columns = (list(GENERAL_INFO_COLUMNS) + feature_columns(settings.filters)
               + list(META_COLUMNS))
    csv_paths: list[Path] = []
    all_failures: list[ExtractionFailure] = []
    for image_type, mode, bin_width in configs:
        rows: list[dict] = []
        for entry, cells in zip(manifest.cohort, results):
            if entry.image_type == image_type:
                cell_rows, failures = cells[(mode, bin_width)]
                rows += cell_rows
                all_failures += failures
        rows.sort(key=lambda row: (row["study"], row["series"],
                                   row["segmentedStructure"]))
        path = out_dir / config_csv_name(image_type, mode, bin_width, settings)
        _write_feature_csv(path, columns, rows)
        csv_paths.append(path)

    errors_path = out_dir / "extraction_errors.csv"
    if all_failures or errors_path.exists():
        _write_failures(errors_path, all_failures)
    return csv_paths, all_failures


def _write_feature_csv(path: Path, columns: list[str], rows: list[dict]):
    _write_csv(path, columns, ([
        row.get(col, "") if isinstance(row.get(col, ""), str)
        else format_value(row.get(col))
        for col in columns
    ] for row in rows))


def _write_failures(path: Path, failures: list[ExtractionFailure]):
    _write_csv(path, ["study", "segmentedStructure", "filter", "error",
                      "detail"],
               ([f.study, f.structure, f.filter_name, f.error, f.detail]
                for f in sorted(failures, key=lambda f: (
                    f.study, f.structure, f.filter_name, f.error))))


@contextmanager
def _replacing(path: Path, mode: str = "w"):
    """Open a temporary file beside ``path`` that replaces it on success.

    The temporary file is deleted if the write raises, so an interrupted
    run never leaves a truncated output for a later read to trust.
    """
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, mode, newline=None if "b" in mode else "") as handle:
            yield handle
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def _write_csv(path: Path, header: list[str], rows):
    with _replacing(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, payload) -> None:
    with _replacing(path) as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Schema validation
# ---------------------------------------------------------------------------

def validate_feature_csv(path) -> None:
    """Check the emitted-CSV column grammar; raises SchemaMismatch.

    Layout: general_info_* columns first, then feature columns named
    ``[pre-filter]_[feature group]_[feature name]`` with known groups,
    names, and parseable filter prefixes, each at most once, then exactly
    the four meta columns.
    """
    with open(path, newline="") as handle:
        header = next(csv.reader(handle))
    if len(header) < len(META_COLUMNS) + 1:
        raise SchemaMismatch(f"{path}: too few columns")
    if tuple(header[-4:]) != META_COLUMNS:
        raise SchemaMismatch(
            f"{path}: last four columns must be {META_COLUMNS}, got {header[-4:]}")
    body = header[:-4]
    i = 0
    while i < len(body) and body[i].startswith("general_info_"):
        i += 1
    if i == 0:
        raise SchemaMismatch(f"{path}: no general_info_ columns at the front")
    seen = set()
    for column in body[i:]:
        if column in seen:
            raise SchemaMismatch(f"{path}: column {column!r} repeats")
        seen.add(column)
        if column.startswith("general_info_"):
            raise SchemaMismatch(
                f"{path}: general_info column {column!r} after feature columns")
        try:
            flt, cls, name = split_feature_key(column)
        except ValueError as exc:
            raise SchemaMismatch(f"{path}: {exc}") from None
        if name not in FEATURE_ROSTER[cls]:
            raise SchemaMismatch(f"{path}: unknown feature {column!r}")
        try:
            FilterSpec.from_name(flt)
        except ValueError as exc:
            raise SchemaMismatch(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Analysis driver
# ---------------------------------------------------------------------------

_STUDY_PATTERN = re.compile(r"^(?P<subject>.+?)[_-][tT][pP](?P<timepoint>\d+)$")


def _read_timepoint_map(path) -> dict:
    """The ``--timepoint-map`` JSON object: study -> [subject, timepoint]."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise SchemaMismatch(f"cannot read timepoint map {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise SchemaMismatch(f"timepoint map {path} is not a JSON object")
    for study, value in raw.items():
        try:
            if not isinstance(value, list) or len(value) != 2:
                raise TypeError
            int(value[1])
        except (TypeError, ValueError):
            raise SchemaMismatch(f"timepoint map {path}: entry {study!r} is "
                                 f"{value!r}, not [subject, timepoint]") from None
    return raw


def _parse_study(study: str, mapping: dict | None) -> tuple[str, int]:
    if mapping and study in mapping:
        subject, timepoint = mapping[study]
        return str(subject), int(timepoint)
    match = _STUDY_PATTERN.match(study)
    if not match:
        raise SchemaMismatch(
            f"study value {study!r} is not '<subject>_tp<N>' and no "
            "timepoint map entry covers it"
        )
    return match.group("subject"), int(match.group("timepoint"))


@dataclass(frozen=True)
class ParsedConfig:
    """Configuration cell recovered from an extraction CSV filename."""

    stem: str
    image_type: str
    normalization: str
    bin_width: float
    dimensionality: str
    registered: bool

    def key(self, structure: str) -> ConfigKey:
        return ConfigKey(image_type=self.image_type, structure=structure,
                         normalization=self.normalization,
                         bin_width=self.bin_width,
                         dimensionality=self.dimensionality,
                         registered=self.registered)

    def group(self) -> tuple:
        """Identity ignoring bin width (for cross-bin-width analyses)."""
        return (self.image_type, self.normalization, self.dimensionality,
                self.registered)


def parse_config_from_name(path) -> ParsedConfig:
    stem = Path(path).stem
    tokens = stem.split("_")
    normalization = next((mode.value for mode in NormalizationMode
                          if mode.code in tokens),
                         NormalizationMode.WHOLE_IMAGE.value)
    dimensionality = "2D" if ("2D" in tokens or "2d" in tokens) else "3D"
    bin_width = None
    image_type = None
    for token in tokens:
        if (width := _bin_width_of(token)) is not None:
            bin_width = width
        elif token in IMAGE_TYPES:
            image_type = token
    if bin_width is None or image_type is None:
        raise SchemaMismatch(
            f"{stem}: filename lacks a binNN or image-type code")
    return ParsedConfig(stem=stem, image_type=image_type,
                        normalization=normalization, bin_width=bin_width,
                        dimensionality=dimensionality,
                        registered="TP2Registered" in tokens)


_INFO_PREFIXES = ("general_info_", "diagnostics_")


def read_feature_csv(path, timepoint_map: dict | None = None,
                     ) -> dict[str, FeatureMatrix]:
    """Parse an extraction CSV into one :class:`FeatureMatrix` per structure.

    Each line becomes a float64 row as it is read, NaN for an empty cell.
    A cell that is not a finite number, a line whose field count differs
    from the header's and a repeated feature column raise SchemaMismatch.
    """
    rows: dict[str, list[tuple[str, int, np.ndarray]]] = {}
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise SchemaMismatch(f"{path}: empty file")
        columns: dict[str, int] = {}
        for index, column in enumerate(header):
            # "" tolerates a leading unnamed index column in foreign files
            if column in META_COLUMNS or column == "" or \
                    column.startswith(_INFO_PREFIXES):
                continue
            try:
                split_feature_key(column)
            except ValueError:
                raise SchemaMismatch(
                    f"{path}: unknown column pattern {column!r}") from None
            if column in columns:
                raise SchemaMismatch(f"{path}, line 1: column {column!r} repeats")
            columns[column] = index
        meta = {column: index for index, column in enumerate(header)}
        if "study" not in meta:
            raise SchemaMismatch(f"{path}: no 'study' meta column")
        for row in filter(None, reader):  # skips blank lines
            if len(row) != len(header):
                raise SchemaMismatch(f"{path}, line {reader.line_num}: "
                                     f"{len(row)} fields, header has {len(header)}")
            study = row[meta["study"]]
            subject, timepoint = _parse_study(study, timepoint_map)
            cells = [row[i] for i in columns.values()]
            try:
                values = np.array([c or "nan" for c in cells], dtype=np.float64)
                suspects = np.flatnonzero(~np.isfinite(values))
            except ValueError:
                suspects = range(len(cells))
            for j in suspects:  # in column order; empty cells pass
                try:
                    if not cells[j] or isfinite(float(cells[j])):
                        continue
                except ValueError:
                    pass
                raise SchemaMismatch(
                    f"{path}: study {study!r}, column {list(columns)[j]!r}: "
                    f"{cells[j]!r} is not a finite number")
            structure = (row[meta["segmentedStructure"]]
                         if "segmentedStructure" in meta else "")
            rows.setdefault(structure, []).append((subject, timepoint, values))
    matrices = {}
    for structure, group in rows.items():
        subjects, timepoints, values = zip(*group)
        matrices[structure] = FeatureMatrix(tuple(columns), np.array(values),
                                            subjects, timepoints)
    return matrices


def _write_icc_table(path: Path, table: RepeatabilityTable):
    reference = table.volume_reference.icc
    rows = []
    for feature_key in sorted(table.rows):
        flt, cls, name = split_feature_key(feature_key)
        result = table.rows[feature_key]
        rows.append([
            cls, name, flt, format_value(table.key.bin_width),
            format_value(result.icc), format_value(result.bms),
            format_value(result.wms), str(result.n),
            "1" if result.icc > reference else "0",
        ])
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    _write_csv(path, ["featureClass", "featureName", "filter", "binWidth",
                      "icc", "bms", "wms", "n", "aboveVolumeReference"], rows)


@dataclass
class AnalysisFailure:
    stem: str
    structure: str
    error: str
    detail: str


def analyze_run(csv_paths, out_dir, reference: str = VOLUME_REFERENCE_FEATURE,
                compare: tuple[str, str] | None = None,
                timepoint_map_path=None,
                ) -> tuple[list[Path], list[AnalysisFailure]]:
    """Build repeatability tables from extraction CSVs and write reports.

    Emits per-table ICC CSVs, top-3 and filter-frequency JSON, bin-width
    spread + KDE + rank-distribution files for groups of tables that
    differ only in bin width, and (optionally) a config-delta report for
    the two named configurations. Returns (report paths, failures).

    A (CSV, structure) whose table cannot be built (too few subjects, no
    reference ICC) is a failure: it gets no reports and the run goes on.
    Failures are written to ``analysis_errors.csv`` when any occur; an
    errors file left by an earlier run is replaced, header-only when this
    run has none.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    timepoint_map = (_read_timepoint_map(timepoint_map_path)
                     if timepoint_map_path else None)

    tables: dict[tuple[str, str], RepeatabilityTable] = {}
    configs: dict[str, ParsedConfig] = {}
    written: list[Path] = []
    failures: list[AnalysisFailure] = []
    for path in sorted(Path(p) for p in csv_paths):
        config = parse_config_from_name(path)
        configs[config.stem] = config
        for structure, matrix in sorted(
                read_feature_csv(path, timepoint_map).items()):
            try:
                table = build_table(matrix, config.key(structure),
                                    reference_feature=reference)
            except (InsufficientSubjects, MissingVolumeReference) as exc:
                failures.append(AnalysisFailure(
                    stem=config.stem, structure=structure,
                    error=type(exc).__name__, detail=str(exc)))
                continue
            tables[(config.stem, structure)] = table

            icc_path = out_dir / f"icc__{config.stem}__{structure}.csv"
            _write_icc_table(icc_path, table)
            written.append(icc_path)

            try:
                top = top_k_per_class(table, k=3)
                payload = {cls: [[feature, icc] for feature, icc in pairs]
                           for cls, pairs in top.items()}
            except InsufficientFeatures as exc:
                payload = {"error": str(exc)}
            top_path = out_dir / f"top3__{config.stem}__{structure}.json"
            _write_json(top_path, payload)
            written.append(top_path)

            freq = filter_frequency(table)
            freq_path = out_dir / f"filterfreq__{config.stem}__{structure}.json"
            _write_json(freq_path, {
                "counts": freq.counts,
                "totalAboveReference": freq.total_above_reference,
                "volumeReferenceIcc": table.volume_reference.icc,
            })
            written.append(freq_path)

    errors_path = out_dir / "analysis_errors.csv"
    if failures or errors_path.exists():
        _write_csv(errors_path, ["stem", "segmentedStructure", "error",
                                 "detail"],
                   ([f.stem, f.structure, f.error, f.detail] for f in failures))
    written += _binwidth_reports(tables, configs, out_dir)
    if compare:
        failed = {(f.stem, f.structure) for f in failures}
        written += _delta_reports(tables, failed, compare, out_dir)
    return written, failures


def _binwidth_reports(tables, configs, out_dir: Path) -> list[Path]:
    """Spread, KDE, and rank-distribution files per cross-bin-width group.

    Features whose ICC is defined at some bin widths but not others (the
    per-feature subject-dropping rule makes this possible) are excluded
    from the cross-width comparison and listed in a notes file rather
    than silently vanishing.
    """
    written: list[Path] = []
    groups: dict[tuple, dict[float, tuple[str, RepeatabilityTable]]] = {}
    for (stem, structure), table in tables.items():
        config = configs[stem]
        groups.setdefault((config.group(), structure), {})[config.bin_width] = (
            stem, table)
    for (group, structure), by_width in sorted(
            groups.items(), key=lambda kv: str(kv[0])):
        if len(by_width) < 2:
            continue
        image_type, normalization, dimensionality, registered = group
        code = "_".join([
            image_type, NormalizationMode(normalization).code,
            dimensionality] + (["TP2Registered"] if registered else []))

        feature_sets = [set(t.rows) for _, t in by_width.values()]
        shared = set.intersection(*feature_sets)
        excluded = sorted(set.union(*feature_sets) - shared)
        if not shared:
            continue
        if excluded:
            notes_path = out_dir / f"binwidth_notes__{code}__{structure}.json"
            _write_json(notes_path, {"excludedFeatures": excluded})
            written.append(notes_path)
        width_tables = {
            w: RepeatabilityTable(
                key=t.key,
                rows={k: t.rows[k] for k in sorted(shared)},
                volume_reference=t.volume_reference,
                dropped=t.dropped)
            for w, (_, t) in by_width.items()
        }

        spread = binwidth_spread(width_tables)
        spread_path = out_dir / f"spread__{code}__{structure}.csv"
        _write_csv(spread_path, ["featureKey", "maxDeltaIcc"],
                   [[k, format_value(v)] for k, v in sorted(spread.items())])
        written.append(spread_path)

        try:
            curve = kde(np.array(list(spread.values())))
        except DegenerateSamples:
            curve = None
        if curve is not None:
            kde_path = out_dir / f"kde_spread__{code}__{structure}.csv"
            _write_csv(kde_path, ["maxDeltaIcc", "density"],
                       [[format_value(x), format_value(d)]
                        for x, d in zip(curve.abscissa, curve.density)])
            written.append(kde_path)

        histograms = rank_distribution(width_tables)
        rank_rows = []
        for width in sorted(histograms):
            for rank in sorted(histograms[width]):
                rank_rows.append([format_value(width), format_value(rank),
                                  str(histograms[width][rank])])
        rank_path = out_dir / f"rankdist__{code}__{structure}.csv"
        _write_csv(rank_path, ["binWidth", "rank", "count"], rank_rows)
        written.append(rank_path)
    return written


def _delta_reports(tables, failed: set[tuple[str, str]],
                   compare: tuple[str, str], out_dir: Path) -> list[Path]:
    """One config-delta report per structure both compared CSVs hold.

    A structure whose table failed in either CSV gets no report (its
    failure is already recorded). Raises :class:`MissingReport` when no
    structure is present in both CSVs.
    """
    stem_a, stem_b = compare
    present = {*tables, *failed}
    shared = sorted(structure for (stem, structure) in present
                    if stem == stem_a and (stem_b, structure) in present)
    if not shared:
        raise MissingReport(
            f"no structure is present in both {stem_a!r} and {stem_b!r}")
    written: list[Path] = []
    for structure in shared:
        if (stem_a, structure) in failed or (stem_b, structure) in failed:
            continue
        delta = config_delta(tables[(stem_a, structure)],
                             tables[(stem_b, structure)])
        improved = sum(1 for _, _, d in delta.shared.values() if d > 0)
        payload = {
            "configA": stem_a,
            "configB": stem_b,
            "shared": {k: {"iccA": a, "iccB": b, "delta": d}
                       for k, (a, b, d) in delta.shared.items()},
            "onlyA": list(delta.only_a),
            "onlyB": list(delta.only_b),
            "improvedCount": improved,
            "sharedCount": len(delta.shared),
        }
        path = out_dir / f"delta__{stem_a}__vs__{stem_b}__{structure}.json"
        _write_json(path, payload)
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# Plot-data emission
# ---------------------------------------------------------------------------

def plotdata_run(in_dir, out_dir) -> list[Path]:
    """Convert analysis reports into plot-ready long/two-column CSVs."""
    in_dir, out_dir = Path(in_dir), Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    for path in sorted(in_dir.glob("icc__*.csv")):
        rows = []
        with open(path, newline="") as handle:
            for record in csv.DictReader(handle):
                rows.append([
                    f"{record['featureClass']}_{record['featureName']}",
                    record["filter"], record["binWidth"], record["icc"],
                ])
        out = out_dir / f"plot_{path.stem}.csv"
        _write_csv(out, ["feature", "filter", "binWidth", "icc"], rows)
        written.append(out)

    for pattern in ("kde_spread__*.csv", "rankdist__*.csv", "spread__*.csv"):
        for path in sorted(in_dir.glob(pattern)):
            out = out_dir / f"plot_{path.stem}.csv"
            with _replacing(out, "wb") as handle:
                handle.write(path.read_bytes())
            written.append(out)

    for path in sorted(in_dir.glob("top3__*.json")):
        payload = json.loads(path.read_text())
        rows = []
        if "error" not in payload:
            for cls in sorted(payload):
                for feature, icc in payload[cls]:
                    rows.append([cls, feature, format_value(icc)])
        out = out_dir / f"plot_{path.stem}.csv"
        _write_csv(out, ["featureClass", "feature", "icc"], rows)
        written.append(out)

    for path in sorted(in_dir.glob("filterfreq__*.json")):
        payload = json.loads(path.read_text())
        rows = [[name, str(count)]
                for name, count in sorted(payload["counts"].items())]
        rows.append(["TOTAL_ABOVE_REFERENCE",
                     str(payload["totalAboveReference"])])
        out = out_dir / f"plot_{path.stem}.csv"
        _write_csv(out, ["filterName", "count"], rows)
        written.append(out)

    for path in sorted(in_dir.glob("delta__*.json")):
        payload = json.loads(path.read_text())
        rows = [[k, format_value(v["iccA"]), format_value(v["iccB"]),
                 format_value(v["delta"])]
                for k, v in sorted(payload["shared"].items())]
        out = out_dir / f"plot_{path.stem}.csv"
        _write_csv(out, ["feature", "iccA", "iccB", "delta"], rows)
        written.append(out)

    if not written:
        raise MissingReport(f"no analysis reports found under {in_dir}")
    return written
