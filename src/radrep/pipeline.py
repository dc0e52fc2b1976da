"""Batch extraction over a run manifest and the analysis report driver.

``extract_run`` executes the configuration matrix (normalization modes x
bin widths, at one texture dimensionality) over the cohort sorted by
(study, series), one entry at a time, writing each entry's rows into one
feature CSV per :class:`ConfigCell`, named by it, as the entry finishes.
Outputs are deterministic (fixed column order, rows in (study, series,
structure) order, 17-significant-digit floats) and per-row failures go
to an errors sidecar, never aborting the run.

``analyze_run`` reads each CSV's cell back from its name and its rows
into repeatability tables, and emits the report suite: per-feature ICC
tables, bin-width spread with its KDE curve, rank distributions, top-3
per feature class, filter frequency above the Volume reference, and
configuration deltas.
"""

from __future__ import annotations

import csv
import json
import os
import re
import shutil
import tempfile
from contextlib import ExitStack, contextmanager
from dataclasses import astuple, dataclass
from functools import partial
from itertools import product, takewhile
from math import isfinite
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import RadrepError, __version__
from .discretize import discretize_roi
from .features import (FEATURE_ROSTER, firstorder_features,
                       glcm_features, glrlm_features, glszm_features,
                       shape_features)
from .preprocess import (FilterKind, FilterSpec, MissingReferenceMask,
                         NormalizationMode, apply_filter, normalize)
from .preprocess import filter_wavelet  # noqa: F401  bench/tracing.py traces it here
from .repeatability import (TOP_K, DegenerateSamples, FeatureKey,
                            FeatureMatrix, InsufficientFeatures,
                            InsufficientSubjects, MissingVolumeReference,
                            RepeatabilityTable, binwidth_spread, build_table,
                            config_delta, filter_frequency, kde,
                            rank_distribution, top_k_per_class)
from .texture_matrices import (OFFSETS, NeighbourGraph, build_glcm,
                               build_glrlm, build_glszm, label_zones)
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
# the errors sidecars, each in its command's --out directory
EXTRACTION_ERRORS = "extraction_errors.csv"
ANALYSIS_ERRORS = "analysis_errors.csv"
# the name prefix of the hidden directory a run stages its --out files in
_STAGING = ".staging-"


class ManifestError(RadrepError):
    """The run manifest is malformed or references missing files."""


class SchemaMismatch(RadrepError):
    """A CSV column or value does not match the expected schema."""


class MissingReport(RadrepError):
    """No report can be made: plotdata input directory holds no analysis
    reports, or the CSVs named for a comparison share no structure."""


class StaleOutputs(RadrepError):
    """The output directory holds outputs this run would not write."""


def format_value(value) -> str:
    """CSV cell text: 17 significant digits, empty for undefined, str as is."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


# ---------------------------------------------------------------------------
# Configuration cells
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConfigCell:
    """One configuration cell, and the only place its code words are spelled.

    ``csv_name`` names its feature CSV, ``general_settings`` fills its
    rows' ``general_info_GeneralSettings``, and ``group_code`` (the cell
    less its bin width) names the reports that compare bin widths.
    """

    image_type: str
    normalization: str
    bin_width: float
    dimensionality: str
    registered: bool = False
    bias_corrected: bool = False

    PREFIX: ClassVar[str] = "FullStudySettings"
    # (field, code word) of each flag, in name order
    FLAGS: ClassVar[tuple[tuple[str, str], ...]] = (
        ("bias_corrected", "biasCorrected"), ("registered", "TP2Registered"))
    # the bin-width word as f"bin{width:g}" writes it, exponent included
    BIN_WORD: ClassVar[re.Pattern] = re.compile(
        r"bin(\d+(?:\.\d+)?(?:e[+-]\d+)?)")

    def _flag_words(self) -> list[str]:
        return [word for field, word in self.FLAGS if getattr(self, field)]

    @property
    def csv_name(self) -> str:
        mode = NormalizationMode(self.normalization)
        words = [self.PREFIX]
        if mode is not NormalizationMode.WHOLE_IMAGE:
            words.append(mode.code)
        words += [self.dimensionality, *self._flag_words(), self.image_type,
                  f"bin{self.bin_width:g}"]
        return "_".join(words) + ".csv"

    @property
    def general_settings(self) -> str:
        return (f"normalization={self.normalization};"
                f"binWidth={self.bin_width:g};"
                f"dimensionality={self.dimensionality};"
                f"registeredMasks={str(self.registered).lower()};"
                f"biasCorrected={str(self.bias_corrected).lower()}")

    @property
    def group_code(self) -> str:
        return "_".join([self.image_type,
                         NormalizationMode(self.normalization).code,
                         self.dimensionality, *self._flag_words()])


def parse_config_from_name(path) -> ConfigCell:
    """The cell a feature-CSV name spells, its code words in any order:
    no mode word is wholeImage, no ``2D`` (or ``2d``) is 3D."""
    stem = Path(path).stem
    tokens = stem.split("_")
    normalization = next((mode.value for mode in NormalizationMode
                          if mode.code in tokens),
                         NormalizationMode.WHOLE_IMAGE.value)
    bin_width = image_type = None
    for token in tokens:
        if match := ConfigCell.BIN_WORD.fullmatch(token):
            bin_width = float(match.group(1))
        elif token in IMAGE_TYPES:
            image_type = token
    if bin_width is None or image_type is None:
        raise SchemaMismatch(
            f"{stem}: filename lacks a binNN or image-type code")
    return ConfigCell(
        image_type, normalization, bin_width,
        "2D" if ("2D" in tokens or "2d" in tokens) else "3D",
        **{field: word in tokens for field, word in ConfigCell.FLAGS})


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

    def cell(self, image_type: str, normalization: str,
             bin_width: float) -> ConfigCell:
        return ConfigCell(image_type, normalization, bin_width,
                          self.dimensionality, self.registered_masks,
                          self.bias_corrected)


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


def _timepoint(value) -> int:
    """A timepoint as an int: an int, a whole float or an integer string.
    A bool or a fractional number raises ValueError."""
    if isinstance(value, bool) or (isinstance(value, float)
                                   and not value.is_integer()):
        raise ValueError(f"{value!r} is not a whole number")
    return int(value)


def _list_setting(settings_doc: dict, key: str, default: list, item_type,
                  noun: str, empty: bool = False) -> tuple:
    """``settings[key]`` (or ``default``) as a tuple, if a list of
    ``item_type``, and not empty unless ``empty``."""
    value = default if settings_doc.get(key) is None else settings_doc[key]
    if not isinstance(value, list) or not all(
            isinstance(v, item_type) and not isinstance(v, bool) for v in value):
        raise ManifestError(f"settings {key!r} must be a list of {noun}, "
                            f"got {value!r}")
    if not (value or empty):
        raise ManifestError(f"settings {key!r} is empty; a run needs at "
                            "least one")
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
    if not all(w > 0 and isfinite(w) for w in bin_widths):
        raise ManifestError(
            f"bin widths must be finite and > 0, got {list(bin_widths)}")
    if len(set(bin_widths)) != len(bin_widths):
        raise ManifestError(f"bin widths repeat: {list(bin_widths)}")
    for w in bin_widths:
        name = ConfigCell(IMAGE_TYPES[0], "none", w, dimensionality).csv_name
        if parse_config_from_name(name).bin_width != w:
            raise ManifestError(f"bin width {w!r} does not read back from "
                                f"its CSV name {name}")
    # no filter is a shape-only run
    filters = _expand_filter_names(_list_setting(
        settings_doc, "filters", [kind.value for kind in FilterKind], str,
        "filter names", empty=True), dimensionality)
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
                timepoint=_timepoint(item["timepoint"]),
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
        structures = [m.structure.value for m in entry.masks]
        if not structures:
            raise ManifestError(f"{entry.study} lists no mask")
        if len(set(structures)) != len(structures):
            raise ManifestError(f"{entry.study} structures repeat: {structures}")
        entries.append(entry)
    if not entries:
        raise ManifestError("manifest cohort is empty")

    by_key: dict[tuple[str, str], set[int]] = {}
    for entry in entries:
        tps = by_key.setdefault((entry.subject_id, entry.image_type), set())
        if entry.timepoint in tps:
            raise ManifestError(
                f"subject {entry.subject_id!r} has two {entry.image_type} "
                f"entries at timepoint {entry.timepoint}")
        tps.add(entry.timepoint)
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
    """The feature-CSV name of one (image type, mode, bin width) of a run."""
    return settings.cell(image_type, normalization, bin_width).csv_name


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
    configuration: str  # the feature-CSV stem of the blanked cell


def _normalized(image: VolumeGrid, entry: CohortEntry, mode: str) -> VolumeGrid:
    """The image under one manifest mode; only this reads the reference mask."""
    normalization = NormalizationMode(mode)
    reference = None
    if normalization is NormalizationMode.REFERENCE_REGION:
        if entry.reference_mask_path is None:
            raise MissingReferenceMask(
                f"{entry.study}: referenceRegion normalization requires "
                "referenceMaskPath"
            )
        reference = read_mask(entry.reference_mask_path,
                              Structure.MUSCLE_REFERENCE)
    return normalize(image, normalization, reference)


def _filtered_volumes(image: VolumeGrid, entry: CohortEntry, mode: str,
                      filters: tuple[FilterSpec, ...],
                      box: tuple[slice, slice, slice]):
    """Yield (spec, filtered crop or the exception that prevented it).

    Each spec, a wavelet subband too, is one :func:`apply_filter` call on
    the normalized image, which returns the voxels of ``box`` only.
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


def _columns(filter_name: str, fmap) -> dict[str, float | None]:
    """A feature map's values under their ``[filter]_[class]_[name]`` columns."""
    return {f"{filter_name}_{cls}_{name}": value
            for (cls, name), value in fmap.entries.items()}


def _filter_task(volume: VolumeGrid, mask: RoiMask, graph: NeighbourGraph,
                 spec: FilterSpec, cell: ConfigCell, record) -> dict:
    """Column -> value of one filtered volume and mask in one cell.

    ``graph`` is the mask's neighbour graph at the cell's dimensionality.
    A feature class that fails blanks its columns and is passed to
    ``record(exc, class)``; the other classes still compute.
    """
    values: dict[str, float | None] = {}
    try:
        values.update(_columns(spec.name, firstorder_features(
            volume, mask, cell.bin_width)))
    except Exception as exc:
        record(exc, "firstorder")
    try:
        disc = discretize_roi(volume, mask, cell.bin_width)
    except Exception as exc:
        record(exc, "texture")
        return values
    for cls, build, compute in (
        ("glcm", build_glcm, glcm_features),
        ("glrlm", build_glrlm, glrlm_features),
        ("glszm", build_glszm, glszm_features),
    ):
        try:
            values.update(_columns(spec.name, compute(build(disc, graph))))
        except Exception as exc:
            record(exc, cls)
    return values


def _general_info(image: VolumeGrid, image_hash: str, mask: RoiMask,
                  graph: NeighbourGraph, settings: RunSettings) -> dict:
    """General info shared by all configuration cells (all but
    GeneralSettings); ``graph`` is the mask's 3D neighbour graph."""
    box = mask.bounding_box
    volume_num, _ = label_zones(np.ones_like(graph.voxels), graph)
    return {
        "general_info_BoundingBox": " ".join(
            str(v) for v in (*(s.start for s in box), *(s.stop - 1 for s in box))),
        "general_info_EnabledImageTypes":
            ";".join(s.name for s in settings.filters),
        "general_info_ImageHash": image_hash,
        "general_info_ImageSpacing":
            " ".join(format_value(s) for s in image.spacing),
        "general_info_MaskHash": mask.payload_hash(),
        "general_info_VersionTags": f"radrep={__version__};numpy={np.__version__}",
        "general_info_VolumeNum": volume_num,
        "general_info_VoxelNum": mask.voxel_count,
    }


def _union_box(masks: list[RoiMask]) -> tuple[slice, slice, slice]:
    """Smallest box holding every mask's bounding box."""
    boxes = [mask.bounding_box for mask in masks]
    return tuple(slice(min(b[axis].start for b in boxes),
                       max(b[axis].stop for b in boxes)) for axis in range(3))


def _extract_entry(entry: CohortEntry, settings: RunSettings) -> dict:
    """One cohort entry's ConfigCell -> (rows, failures).

    The image and masks are read and the image hashed once; shape,
    general info and the neighbour graph (the 3D one, and the 2D one too
    for a 2D run) are computed once per mask and each filter once per
    mode. Every filter computes only the union of the masks' bounding
    boxes, and the filter cells read each mask cropped to that box; shape
    and general info read the whole mask. An entry with no usable mask
    stops after its failures are recorded: nothing is normalized or
    filtered for it. Each failure is made in the cell it blanks, so one
    that blanks a whole row or filter is recorded once in every such cell.
    """
    cells = {settings.cell(entry.image_type, mode, bin_width): ([], [])
             for mode in settings.normalization_modes
             for bin_width in settings.bin_widths}

    def fail(cell: ConfigCell, structure: Structure, filter_name: str,
             exc: Exception, scope: str | None = None):
        cells[cell][1].append(ExtractionFailure(
            entry.study, structure.value, filter_name, type(exc).__name__,
            str(exc) if scope is None else f"{scope}: {exc}",
            Path(cell.csv_name).stem))

    try:
        image = read_volume(entry.image_path)
    except Exception as exc:
        for mask_ref, cell in product(entry.masks, cells):
            fail(cell, mask_ref.structure, "*", exc)
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
            for cell in cells:
                fail(cell, mask_ref.structure, "*", exc)
            continue
        masks.append(mask)

    if not masks:
        return cells
    box = _union_box(masks)
    measured: list[tuple[RoiMask, NeighbourGraph, dict[ConfigCell, dict]]] = []
    for mask in masks:
        graphs = {dim: NeighbourGraph(mask.inside, OFFSETS[dim])
                  for dim in {"3D", settings.dimensionality}}
        shape, info = {}, None
        try:
            shape = _columns("original", shape_features(mask))
            info = _general_info(image, image_hash, mask, graphs["3D"],
                                 settings)
        except Exception as exc:
            for cell in cells:
                fail(cell, mask.structure, "*", exc)
        meta = dict(zip(META_COLUMNS, (entry.study, entry.image_path.stem,
                                       entry.image_type, mask.structure.value)))
        rows = {cell: {**shape, **meta} for cell in cells}
        for cell, row in rows.items():
            if info is not None:
                row.update(info, general_info_GeneralSettings=cell.general_settings)
            cells[cell][0].append(row)
        measured.append((RoiMask(mask.spacing, mask.labels[box],
                                 mask.structure),
                         graphs[settings.dimensionality], rows))

    for mode in settings.normalization_modes:
        mode_cells = [settings.cell(entry.image_type, mode, bin_width)
                      for bin_width in settings.bin_widths]
        for spec, volume in _filtered_volumes(image, entry, mode,
                                              settings.filters, box):
            for (mask, graph, rows), cell in product(measured, mode_cells):
                record = partial(fail, cell, mask.structure, spec.name)
                if isinstance(volume, Exception):
                    record(volume, "all")
                else:
                    rows[cell].update(_filter_task(volume, mask, graph, spec,
                                                   cell, record))
    return cells


def _map_in_workers(work, items, most: int | None = None):
    """``map(work, items)``, lazily, on min(len(items), usable CPUs, ``most``)
    worker processes, forked, not spawned, as a spawned worker imports numpy
    and radrep again (~0.2 s); the pool forks them all before it starts its
    own thread. One worker, or a platform with no affinity call (macOS;
    Windows, which has no fork), runs in this process. A worker that raises
    cancels the items not yet taken; a result waits for the earlier ones."""
    cpus = (len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else 1)
    workers = min(len(items), cpus, cpus if most is None else most)
    if workers <= 1:
        yield from map(work, items)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork")) as pool:
        try:
            yield from pool.map(work, items)
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def extract_run(manifest: RunManifest, out_dir, jobs: int = 1,
                ) -> tuple[list[Path], list[ExtractionFailure]]:
    """Run the full configuration matrix; returns (csv paths, failures).

    Works one cohort entry at a time: its image and masks are read once,
    then each normalization mode, filter, mask and bin width is visited in
    turn. At most ``jobs`` forked processes (fewer with fewer entries or
    CPUs) extract entries at once. The entries are sorted by (study,
    series) first, and each one's rows go, sorted by structure, into its
    cell's CSV as it finishes: neither the manifest order nor the worker
    count changes the output bytes, and memory is bounded by the entries
    in flight, not the cohort. Failures are returned sorted as in the
    :data:`EXTRACTION_ERRORS` sidecar, written only when there are any.

    ``out_dir`` is owned as :func:`_owning` says: a feature CSV
    (``ConfigCell.PREFIX``) this manifest does not write is refused, so a
    later ``analyze`` cannot mix runs, and an earlier sidecar goes. The
    CSVs replace their earlier namesakes only once every entry is written:
    a run that raises changes nothing in ``out_dir``.
    """
    out_dir = Path(out_dir)
    settings = manifest.settings
    cells = [settings.cell(*config) for config in product(
        sorted({e.image_type for e in manifest.cohort}),
        settings.normalization_modes, settings.bin_widths)]
    # a study is unique within an image type, so this is each CSV's order
    cohort = sorted(manifest.cohort, key=lambda e: (e.study, e.image_path.stem))
    columns = (list(GENERAL_INFO_COLUMNS) + feature_columns(settings.filters)
               + list(META_COLUMNS))
    failures: dict[ConfigCell, list] = {cell: [] for cell in cells}
    owns = {EXTRACTION_ERRORS, *(c.csv_name for c in cells)}.__contains__
    with (_owning(out_dir, [f"{ConfigCell.PREFIX}_*.csv", EXTRACTION_ERRORS],
                  owns, "feature CSVs") as staging, ExitStack() as stack):
        # forked workers inherit these buffers; os._exit ends them unflushed
        writers = {cell: csv.writer(stack.enter_context(open(
            staging / cell.csv_name, "w", newline="")), lineterminator="\n")
            for cell in cells}
        for writer in writers.values():
            writer.writerow(columns)
        for result in _map_in_workers(partial(_extract_entry, settings=settings),
                                      cohort, most=jobs):
            for cell, (rows, cell_failures) in result.items():
                rows.sort(key=lambda row: row["segmentedStructure"])
                writers[cell].writerows([format_value(row.get(col))
                                         for col in columns] for row in rows)
                failures[cell] += cell_failures
        all_failures = sorted((f for cell in cells for f in failures[cell]),
                              key=lambda f: (f.study, f.structure,
                                             f.filter_name, f.error))
        if all_failures:
            _write_csv(staging / EXTRACTION_ERRORS,
                       ["study", "segmentedStructure", "filter", "error",
                        "detail", "configuration"], map(astuple, all_failures))
    return [out_dir / cell.csv_name for cell in cells], all_failures


@contextmanager
def _owning(out_dir: Path, patterns, owns, noun: str):
    """Own the files in ``out_dir`` that match the glob ``patterns``.

    One not this run's (``owns(name)`` is false) raises StaleOutputs
    before anything is written or deleted. Yields a hidden staging
    directory in ``out_dir``, matching no pattern, to write every output
    into; only once the block succeeds does each staged file replace its
    namesake by an atomic rename, and each match not staged go. So
    ``out_dir`` holds the earlier run's outputs or this run's, as a fresh
    run would leave them, and never a truncated file. The staging
    directories that killed runs left are swept as :func:`_swept` says."""
    found = {path for pattern in patterns for path in out_dir.glob(pattern)}
    stale = sorted(path.name for path in found if not owns(path.name))
    if stale:
        raise StaleOutputs(
            f"{out_dir} holds {noun} this run does not write: "
            f"{', '.join(stale)}; move them away or write to another directory")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise RadrepError(f"{out_dir} is not a directory") from None
    with _swept(out_dir):
        staging = Path(tempfile.mkdtemp(prefix=_STAGING, dir=out_dir))
        try:
            yield staging
            staged = {path.name for path in staging.iterdir()}
            for name in staged:
                os.replace(staging / name, out_dir / name)
            for path in found:
                if path.name not in staged:
                    path.unlink()
        finally:
            shutil.rmtree(staging)


@contextmanager
def _swept(out_dir: Path):
    """Hold a shared ``flock`` on ``out_dir`` while the block runs.

    A run that can first take the lock exclusively knows that no live run
    holds it, so every ``_STAGING`` directory there is a killed run's and
    goes. Where another run holds the lock, or ``flock`` is missing
    (Windows) or refused, nothing is swept."""
    try:
        import fcntl
        lock = os.open(out_dir, os.O_RDONLY)
    except (ImportError, OSError):
        lock = None
    if lock is None:
        yield
        return
    try:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:  # a live run's: share it, sweep nothing
            fcntl.flock(lock, fcntl.LOCK_SH)
        except OSError:
            pass
        else:
            for path in out_dir.glob(_STAGING + "*"):
                shutil.rmtree(path, ignore_errors=True)
            fcntl.flock(lock, fcntl.LOCK_SH)
        yield
    finally:
        os.close(lock)


def _write_csv(path: Path, header: list[str], rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    newline="")


# ---------------------------------------------------------------------------
# Schema validation
# ---------------------------------------------------------------------------

def _parse_header(header: list[str], path,
                  known: tuple[FeatureKey, ...] = ()) -> dict[FeatureKey, int]:
    """The feature columns of a feature-CSV header: key -> index.

    Meta, ``general_info_*``, ``diagnostics_*`` and unnamed columns are
    skipped; every other column must split into a :class:`FeatureKey`,
    once, and may not repeat (SchemaMismatch). A column named by one of
    the FeatureKeys ``known`` is that key, not split again.
    """
    split = {key: key for key in known}
    features: dict[FeatureKey, int] = {}
    for index, column in enumerate(header):
        # "" tolerates a leading unnamed index column in foreign files
        if column in META_COLUMNS or column == "" or \
                column.startswith(("general_info_", "diagnostics_")):
            continue
        if column in features:
            raise SchemaMismatch(f"{path}, line 1: column {column!r} repeats")
        try:
            features[split.get(column) or FeatureKey(column)] = index
        except ValueError:
            raise SchemaMismatch(
                f"{path}: unknown column pattern {column!r}") from None
    return features


def validate_feature_csv(path) -> None:
    """Check the emitted-CSV column grammar; raises SchemaMismatch.

    Beyond what :func:`read_feature_csv` requires: general_info_* columns
    first, then only feature columns, with known names and parseable
    filter prefixes, then exactly the four meta columns.
    """
    with open(path, newline="") as handle:
        header = next(csv.reader(handle), [])
    features = _parse_header(header, path)
    info = len(list(takewhile(lambda c: c.startswith("general_info_"), header)))
    if info == 0 or header[info:] != [*features, *META_COLUMNS]:
        raise SchemaMismatch(
            f"{path}: columns must be general_info_* (at least one), then "
            f"feature columns, then {', '.join(META_COLUMNS)}")
    for key in features:
        if key.name not in FEATURE_ROSTER[key.feature_class]:
            raise SchemaMismatch(f"{path}: unknown feature {key!r}")
        try:
            FilterSpec.from_name(key.filter)
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
            _timepoint(value[1])
        except (TypeError, ValueError):
            raise SchemaMismatch(f"timepoint map {path}: entry {study!r} is "
                                 f"{value!r}, not [subject, timepoint]") from None
    return raw


def _parse_study(study: str, mapping: dict | None) -> tuple[str, int]:
    if mapping and study in mapping:
        subject, timepoint = mapping[study]
        return str(subject), _timepoint(timepoint)
    match = _STUDY_PATTERN.match(study)
    if not match:
        raise SchemaMismatch(
            f"study value {study!r} is not '<subject>_tp<N>' and no "
            "timepoint map entry covers it"
        )
    return match.group("subject"), int(match.group("timepoint"))


def read_feature_csv(path, timepoint_map: dict | None = None,
                     known: tuple[FeatureKey, ...] = (),
                     ) -> dict[str, FeatureMatrix]:
    """Parse an extraction CSV into one :class:`FeatureMatrix` per structure.

    ``known`` holds the FeatureKeys of a CSV read before; the columns they
    name are not split again. Each line becomes a float64 row as it is
    read, NaN for an empty cell.
    A CSV with no rows, a cell that is not a finite number, a line whose
    field count differs from the header's and a repeated feature column
    raise SchemaMismatch.
    """
    rows: dict[str, list[tuple[str, int, np.ndarray]]] = {}
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        columns = _parse_header(header, path, known)
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
    if not rows:
        raise SchemaMismatch(f"{path}: no rows")
    matrices = {}
    for structure, group in rows.items():
        subjects, timepoints, values = zip(*group)
        matrices[structure] = FeatureMatrix(tuple(columns), np.array(values),
                                            subjects, timepoints)
    return matrices


def _write_icc_table(path: Path, table: RepeatabilityTable, bin_width: float):
    width = format_value(bin_width)
    above = table.icc > table.volume_reference.icc
    # (class, name, filter) is unique, so whole rows sort by those three
    rows = sorted([
        key.feature_class, key.name, key.filter, width, format_value(icc),
        format_value(bms), format_value(wms), str(n), "1" if up else "0",
    ] for key, icc, bms, wms, n, up in zip(
        table.rows, table.icc.tolist(), table.bms.tolist(),
        table.wms.tolist(), table.n.tolist(), above.tolist()))
    _write_csv(path, ["featureClass", "featureName", "filter", "binWidth",
                      "icc", "bms", "wms", "n", "aboveVolumeReference"], rows)


# the kinds of report named f"{kind}__{CSV stem}__{structure}" and
# f"{kind}__{group code}__{structure}"
_TABLE_REPORTS = ("icc", f"top{TOP_K}", "filterfreq")
_GROUP_REPORTS = ("spread", "kde_spread", "rankdist", "binwidth_notes")


@dataclass
class AnalysisFailure:
    stem: str
    structure: str
    error: str
    detail: str


def analyze_run(csv_paths, out_dir, compare: tuple[str, str] | None = None,
                timepoint_map_path=None,
                ) -> tuple[list[Path], list[AnalysisFailure]]:
    """Build repeatability tables from extraction CSVs and write reports.

    Emits per-table ICC CSVs, top-3 and filter-frequency JSON, bin-width
    spread + KDE + rank-distribution files for groups of tables that
    differ only in bin width, and (optionally) a config-delta report for
    the two named configurations. Returns (report paths, failures).

    A (CSV, structure) whose table cannot be built (too few subjects, no
    reference ICC) is a failure: it gets no reports and the run goes on.
    Failures go to the :data:`ANALYSIS_ERRORS` sidecar, written only when
    there are any.

    An :data:`EXTRACTION_ERRORS` input is skipped; inputs with nothing
    else raise SchemaMismatch. Every input name is parsed before any
    report is written; two names of one :class:`ConfigCell` (a repeated
    stem, say) would write the same reports, and a ``compare`` stem that
    names no input would be found only after every report, so both raise
    SchemaMismatch. ``out_dir`` is owned as :func:`_owning` says: a
    report is this run's when its CSV stem, bin-width group (one with at
    least two widths among the inputs) or ``compare`` pair is named here.
    The reports replace the earlier ones only once every group is
    analyzed: a run that raises changes nothing in ``out_dir``.

    Each bin-width group (the CSVs of one ``ConfigCell.group_code``) is
    analyzed by :func:`_analyze_group`, one process per group, up to the
    CPUs this process may run on. The returned lists, and every output
    byte, are those of one process: per-table files in path order, then
    the bin-width files in (group code, structure) order, then the delta
    reports.
    """
    inputs = sorted(path for path in map(Path, csv_paths)
                    if path.name != EXTRACTION_ERRORS)
    if not inputs:
        raise SchemaMismatch(f"no feature CSVs among the inputs "
                             f"({EXTRACTION_ERRORS} is skipped)")
    paths: dict[ConfigCell, Path] = {}
    for path in inputs:
        cell = parse_config_from_name(path)
        if cell in paths:
            raise SchemaMismatch(
                f"{paths[cell]} and {path} name the same configuration "
                "cell, so their reports would overwrite each other")
        paths[cell] = path
    stems = {path.stem for path in paths.values()}
    for stem in compare or ():
        if stem not in stems:
            raise SchemaMismatch(f"compare stem {stem!r} names no input CSV")
    groups: dict[str, list[tuple[ConfigCell, Path]]] = {}
    for cell, path in paths.items():
        groups.setdefault(cell.group_code, []).append((cell, path))
    named = [f"{kind}__{stem}__" for kind in _TABLE_REPORTS for stem in stems]
    named += [f"{kind}__{code}__" for kind in _GROUP_REPORTS
              for code, members in groups.items() if len(members) > 1]
    if compare:
        named.append("delta__{}__vs__{}__".format(*compare))
    out_dir = Path(out_dir)
    reports = [f"{kind}__*" for kind in
               (*_TABLE_REPORTS, *_GROUP_REPORTS, "delta")]
    with _owning(out_dir, [*reports, ANALYSIS_ERRORS],
                 lambda name: name.startswith((*named, ANALYSIS_ERRORS)),
                 "reports") as staging:
        timepoint_map = (_read_timepoint_map(timepoint_map_path)
                         if timepoint_map_path else None)
        work = partial(_analyze_group, out_dir=staging,
                       timepoint_map=timepoint_map, compare=compare or ())
        tables: dict[tuple[str, str], RepeatabilityTable] = {}
        per_path: dict[Path, tuple[list[Path], list[AnalysisFailure]]] = {}
        binwidth_files: list[Path] = []
        for group_tables, group_paths, group_files in _map_in_workers(
                work, [groups[code] for code in sorted(groups)]):
            tables.update(group_tables)
            per_path.update(group_paths)
            binwidth_files += group_files
        written = [f for path in paths.values() for f in per_path[path][0]]
        failures = [f for path in paths.values() for f in per_path[path][1]]
        if failures:
            _write_csv(staging / ANALYSIS_ERRORS,
                       ["stem", "segmentedStructure", "error", "detail"],
                       map(astuple, failures))
        written += binwidth_files
        if compare:
            failed = {(f.stem, f.structure) for f in failures}
            written += _delta_reports(tables, failed, compare, staging)
    return [out_dir / path.name for path in written], failures


def _analyze_group(members: list[tuple[ConfigCell, Path]], out_dir: Path,
                   timepoint_map: dict | None, compare: tuple):
    """Tables and reports of one bin-width group's CSVs, in path order.

    The group's CSVs share their feature columns, so each reuses the keys
    of the one read before it. Returns the ``compare`` stems' tables
    keyed (stem, structure); per path, the files written for its tables
    and its failures; and the group's bin-width files from
    :func:`_binwidth_reports`.
    """
    tables: dict[tuple[str, str], RepeatabilityTable] = {}
    by_width: dict[tuple[str, str], dict[float, RepeatabilityTable]] = {}
    per_path: dict[Path, tuple[list[Path], list[AnalysisFailure]]] = {}
    keys: tuple[FeatureKey, ...] = ()
    for cell, path in members:
        written, failures = per_path[path] = [], []
        for structure, matrix in sorted(
                read_feature_csv(path, timepoint_map, keys).items()):
            keys = matrix.features
            try:
                table = build_table(matrix)
            except (InsufficientSubjects, MissingVolumeReference) as exc:
                failures.append(AnalysisFailure(
                    stem=path.stem, structure=structure,
                    error=type(exc).__name__, detail=str(exc)))
                continue
            if path.stem in compare:
                tables[(path.stem, structure)] = table
            by_width.setdefault((cell.group_code, structure), {})[
                cell.bin_width] = table

            icc_path = out_dir / f"icc__{path.stem}__{structure}.csv"
            _write_icc_table(icc_path, table, cell.bin_width)
            written.append(icc_path)

            try:
                top = top_k_per_class(table)
                payload = {cls: [[feature, icc] for feature, icc in pairs]
                           for cls, pairs in top.items()}
            except InsufficientFeatures as exc:
                payload = {"error": str(exc)}
            top_path = out_dir / f"top{TOP_K}__{path.stem}__{structure}.json"
            _write_json(top_path, payload)
            written.append(top_path)

            freq = filter_frequency(table)
            freq_path = out_dir / f"filterfreq__{path.stem}__{structure}.json"
            _write_json(freq_path, {
                "counts": freq.counts,
                "totalAboveReference": freq.total_above_reference,
                "volumeReferenceIcc": table.volume_reference.icc,
            })
            written.append(freq_path)
    return tables, per_path, _binwidth_reports(by_width, out_dir)


def _binwidth_reports(groups, out_dir: Path) -> list[Path]:
    """Spread, KDE, and rank-distribution files per cross-bin-width group.

    A group is one structure's tables whose cells differ only in bin
    width, keyed (``group_code``, structure) -> width -> table. Features
    whose ICC is defined at some bin widths but not others (the
    per-feature subject-dropping rule makes this possible) are excluded
    from the cross-width comparison and listed in a notes file rather
    than silently vanishing.
    """
    written: list[Path] = []
    for (code, structure), by_width in sorted(groups.items()):
        if len(by_width) < 2:
            continue
        feature_sets = [set(t.rows) for t in by_width.values()]
        shared = set.intersection(*feature_sets)
        excluded = sorted(set.union(*feature_sets) - shared)
        if excluded:
            notes_path = out_dir / f"binwidth_notes__{code}__{structure}.json"
            _write_json(notes_path, {"excludedFeatures": excluded})
            written.append(notes_path)
        keys = tuple(sorted(shared))
        width_tables = {w: t.take(keys) for w, t in by_width.items()}

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

def _plot_icc(path: Path, out: Path) -> None:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        cls, name, flt, width, icc = map(next(reader, []).index, (
            "featureClass", "featureName", "filter", "binWidth", "icc"))
        rows = [[f"{r[cls]}_{r[name]}", r[flt], r[width], r[icc]]
                for r in filter(None, reader)]  # skips blank lines
    _write_csv(out, ["feature", "filter", "binWidth", "icc"], rows)


def _plot_top(path: Path, out: Path) -> None:
    payload = json.loads(path.read_text())
    rows = []
    if "error" not in payload:
        for cls in sorted(payload):
            for feature, icc in payload[cls]:
                rows.append([cls, feature, format_value(icc)])
    _write_csv(out, ["featureClass", "feature", "icc"], rows)


def _plot_filterfreq(path: Path, out: Path) -> None:
    payload = json.loads(path.read_text())
    rows = [[name, str(count)]
            for name, count in sorted(payload["counts"].items())]
    rows.append(["TOTAL_ABOVE_REFERENCE", str(payload["totalAboveReference"])])
    _write_csv(out, ["filterName", "count"], rows)


def _plot_delta(path: Path, out: Path) -> None:
    payload = json.loads(path.read_text())
    rows = [[k, format_value(v["iccA"]), format_value(v["iccB"]),
             format_value(v["delta"])]
            for k, v in sorted(payload["shared"].items())]
    _write_csv(out, ["feature", "iccA", "iccB", "delta"], rows)


# (report glob, converter) in output order; the spread, KDE and rank
# reports are plot-ready already
_PLOTS = (("icc__*.csv", _plot_icc), ("kde_spread__*.csv", shutil.copyfile),
          ("rankdist__*.csv", shutil.copyfile),
          ("spread__*.csv", shutil.copyfile),
          (f"top{TOP_K}__*.json", _plot_top),
          ("filterfreq__*.json", _plot_filterfreq),
          ("delta__*.json", _plot_delta))


def plotdata_run(in_dir, out_dir) -> list[Path]:
    """Convert analysis reports into plot-ready long/two-column CSVs, one
    ``plot_<report stem>.csv`` each.

    A ``plot_*.csv`` in ``out_dir`` is this run's when a report in
    ``in_dir`` has its kind and key (its name up to the last
    ``__<structure>``): one left from a report no longer there is
    deleted. Any other raises :class:`StaleOutputs`, before writing
    anything. A report that cannot be read raises SchemaMismatch, and
    then no plot in ``out_dir`` has changed.
    """
    in_dir, out_dir = Path(in_dir), Path(out_dir)
    reports = [(path, plot) for pattern, plot in _PLOTS
               for path in sorted(in_dir.glob(pattern))]
    keys = {f"plot_{path.stem.rsplit('__', 1)[0]}" for path, _ in reports}
    with _owning(out_dir, ["plot_*.csv"],
                 lambda name: name.rsplit("__", 1)[0] in keys,
                 "plot files") as staging:
        if not reports:
            raise MissingReport(f"no analysis reports found under {in_dir}")
        for path, plot in reports:
            try:
                plot(path, staging / f"plot_{path.stem}.csv")
            except (ValueError, LookupError, TypeError, AttributeError) as exc:
                raise SchemaMismatch(f"{path}: {exc}") from None
    return [out_dir / f"plot_{path.stem}.csv" for path, _ in reports]
