"""Independent brute-force oracles for the texture, CSV and ICC machinery.

These deliberately take the naive route (python loops, flood fill,
sum-of-squares ANOVA decomposition) so they share no code path with the
vectorized implementations they check. Where scipy already holds the
reference (``ndimage.correlate1d`` for LoG), it serves the tests only;
radrep itself does not import it.
"""

from __future__ import annotations

import csv
import math
import re
from collections import deque
from typing import NamedTuple

import numpy as np


def brute_levels(values: np.ndarray, labels: np.ndarray,
                 width: float) -> np.ndarray:
    """Full-grid gray levels voxel by voxel: 0 outside the mask."""
    inside = [float(v) for v, m in zip(values.flat, labels.flat) if m]
    lo, hi = min(inside), max(inside)
    ng = math.floor((hi - lo) / width) + 1
    levels = np.zeros(values.shape, dtype=np.int64)
    for index in np.ndindex(values.shape):
        if labels[index]:
            levels[index] = min(math.floor((values[index] - lo) / width) + 1, ng)
    return levels


def _max_distance(points: np.ndarray) -> float:
    """Largest distance over every pair, coordinates summed in order."""
    if len(points) < 2:
        return 0.0
    squared = sum((points[:, None, c] - points[None, :, c]) ** 2
                  for c in range(points.shape[1]))
    return math.sqrt(float(squared.max()))


def full_grid_shape(labels: np.ndarray, spacing) -> dict:
    """Shape features of ``labels > 0`` on the whole grid.

    The same formulas as ``shape_features``, but faces, voxel coordinates
    and surface voxels are taken over the whole grid rather than the
    mask's bounding box, and diameters list every surface-voxel pair
    (``shape_features`` compares only the line-extreme ones).
    """
    inside = labels > 0
    spacing = np.asarray(spacing, dtype=np.float64)
    n = int(inside.sum())
    volume = n * float(spacing.prod())
    padded = np.pad(inside, 1)
    face_counts = np.zeros(3, dtype=np.int64)
    surface = np.zeros_like(inside)
    for axis in range(3):
        for step in (-1, 1):
            near = [slice(1, -1)] * 3
            near[axis] = slice(1 + step, padded.shape[axis] - 1 + step)
            exposed = inside & ~padded[tuple(near)]
            face_counts[axis] += exposed.sum()
            surface |= exposed
    face_areas = np.array([
        spacing[1] * spacing[2], spacing[0] * spacing[2], spacing[0] * spacing[1],
    ])
    area = float(np.dot(face_counts, face_areas))
    coords = np.argwhere(inside).astype(np.float64) * spacing
    surface_coords = np.argwhere(surface).astype(np.float64) * spacing
    cov = np.zeros((3, 3))
    if n > 1:
        centered = coords - coords.mean(axis=0)
        cov = centered.T @ centered / n
    eigvals = np.clip(np.linalg.eigvalsh(cov)[::-1], 0.0, None)
    return {
        ("shape", "Volume"): volume,
        ("shape", "SurfaceArea"): area,
        ("shape", "SurfaceVolumeRatio"): area / volume,
        ("shape", "Sphericity"): (36.0 * math.pi * volume ** 2) ** (1.0 / 3.0) / area,
        ("shape", "Maximum3DDiameter"): _max_distance(surface_coords),
        ("shape", "Maximum2DDiameterSlice"): _max_distance(surface_coords[:, (0, 1)]),
        ("shape", "Maximum2DDiameterColumn"): _max_distance(surface_coords[:, (1, 2)]),
        ("shape", "Maximum2DDiameterRow"): _max_distance(surface_coords[:, (0, 2)]),
        ("shape", "MajorAxisLength"): 4.0 * math.sqrt(eigvals[0]),
        ("shape", "MinorAxisLength"): 4.0 * math.sqrt(eigvals[1]),
        ("shape", "Elongation"):
            math.sqrt(eigvals[1] / eigvals[0]) if eigvals[0] > 0 else None,
    }


def full_grid_firstorder(values: np.ndarray, labels: np.ndarray,
                         width: float) -> dict:
    """First-order features of ``values[labels > 0]`` on the whole grid.

    The same formulas as ``firstorder_features``, the third and fourth
    moments as products of the squared deviations; Entropy and Uniformity
    count the gray levels of :func:`brute_levels`.
    """
    x = values[labels > 0].astype(np.float64)
    n = x.size
    srt = np.sort(x)
    mean = float(x.mean())
    dev = x - mean
    dev2 = dev * dev
    m2 = 0.0 if srt[0] == srt[-1] else float(np.mean(dev2))

    def nearest_rank(q):
        return float(srt[max(1, math.ceil(round(q * n, 12))) - 1])

    levels = brute_levels(values, labels, width)
    p = np.bincount(levels[levels > 0], minlength=levels.max() + 1)[1:] / n
    nz = p[p > 0]
    return {
        ("firstorder", "Mean"): mean,
        ("firstorder", "Median"): float(srt[(n - 1) // 2]),
        ("firstorder", "10Percentile"): nearest_rank(0.10),
        ("firstorder", "90Percentile"): nearest_rank(0.90),
        ("firstorder", "Minimum"): float(srt[0]),
        ("firstorder", "Maximum"): float(srt[-1]),
        ("firstorder", "Range"): float(srt[-1] - srt[0]),
        ("firstorder", "Variance"): m2,
        ("firstorder", "StandardDeviation"): math.sqrt(m2),
        ("firstorder", "Energy"): float(np.sum(x ** 2)),
        ("firstorder", "RootMeanSquared"): math.sqrt(float(np.mean(x ** 2))),
        ("firstorder", "MeanAbsoluteDeviation"): float(np.mean(np.abs(dev))),
        ("firstorder", "Skewness"):
            float(np.mean(dev2 * dev)) / m2 ** 1.5 if m2 > 0 else None,
        ("firstorder", "Kurtosis"):
            float(np.mean(dev2 * dev2)) / m2 ** 2 if m2 > 0 else None,
        ("firstorder", "Entropy"): float(-(nz * np.log2(nz)).sum()) + 0.0,
        ("firstorder", "Uniformity"): float(np.sum(p ** 2)),
    }


def brute_glcm(levels: np.ndarray, offsets) -> np.ndarray:
    """Symmetrized co-occurrence probabilities by exhaustive pair listing."""
    ng = int(levels.max())
    counts = np.zeros((ng, ng), dtype=np.int64)
    nx, ny, nz = levels.shape
    for dx, dy, dz in offsets:
        for x in range(nx):
            for y in range(ny):
                for z in range(nz):
                    a = levels[x, y, z]
                    if a == 0:
                        continue
                    px, py, pz = x + dx, y + dy, z + dz
                    if not (0 <= px < nx and 0 <= py < ny and 0 <= pz < nz):
                        continue
                    b = levels[px, py, pz]
                    if b == 0:
                        continue
                    counts[a - 1, b - 1] += 1
                    counts[b - 1, a - 1] += 1
    return counts


def brute_glrlm(levels: np.ndarray, directions) -> np.ndarray:
    """Run counts by walking every line start, one direction at a time."""
    ng = int(levels.max())
    nx, ny, nz = levels.shape
    runs: list[tuple[int, int]] = []

    def in_bounds(x, y, z):
        return 0 <= x < nx and 0 <= y < ny and 0 <= z < nz

    for dx, dy, dz in directions:
        for x in range(nx):
            for y in range(ny):
                for z in range(nz):
                    # line start: the previous voxel along the direction is
                    # outside the grid
                    if in_bounds(x - dx, y - dy, z - dz):
                        continue
                    cx, cy, cz = x, y, z
                    current, length = 0, 0
                    while in_bounds(cx, cy, cz):
                        value = int(levels[cx, cy, cz])
                        if value == current:
                            length += 1
                        else:
                            if current > 0:
                                runs.append((current, length))
                            current, length = value, 1
                        cx, cy, cz = cx + dx, cy + dy, cz + dz
                    if current > 0:
                        runs.append((current, length))
    max_len = max((length for _, length in runs), default=1)
    counts = np.zeros((ng, max_len), dtype=np.int64)
    for level, length in runs:
        counts[level - 1, length - 1] += 1
    return counts


def ndimage_log(values: np.ndarray, spacing, sigma_mm: float) -> np.ndarray:
    """Whole-grid LoG through ``scipy.ndimage.correlate1d``.

    The same kernels, axis order and sums as ``filter_log``: derivative
    kernel on one axis, then smoothing on the others in ascending order,
    the three parts summed onto zeros and scaled by sigma^2.
    """
    from scipy.ndimage import correlate1d

    from radrep.preprocess import _log_kernels_1d

    kernels = [_log_kernels_1d(sigma_mm, h) for h in spacing]
    out = np.zeros(values.shape, dtype=np.float64)
    for deriv_axis in range(3):
        part = correlate1d(values, kernels[deriv_axis][1], axis=deriv_axis,
                           mode="nearest")
        for axis in range(3):
            if axis != deriv_axis:
                part = correlate1d(part, kernels[axis][0], axis=axis,
                                   mode="nearest")
        out += part
    out *= sigma_mm ** 2
    return out


def haar_subbands(values: np.ndarray, dim: str) -> dict[str, np.ndarray]:
    """Every undecimated Haar subband at once, as a tree over the axes.

    Each axis in turn (the first two for '2D', all three for '3D') splits
    every subband so far into its L and H children, so the subbands share
    their common prefixes: one roll per node rather than one per leaf.
    """
    subbands = {"": values}
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for axis in range(2 if dim == "2D" else 3):
        step = {}
        for label, arr in subbands.items():
            shifted = np.roll(arr, -1, axis=axis)
            step[label + "L"] = (arr + shifted) * inv_sqrt2
            step[label + "H"] = (arr - shifted) * inv_sqrt2
        subbands = step
    return subbands


def _neighbors_3d():
    return [(dx, dy, dz)
            for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)
            if (dx, dy, dz) != (0, 0, 0)]


def _neighbors_2d():
    return [(dx, dy, 0)
            for dx in (-1, 0, 1) for dy in (-1, 0, 1)
            if (dx, dy) != (0, 0)]


def brute_glszm(levels: np.ndarray, dim) -> np.ndarray:
    """Zone counts by breadth-first flood fill.

    ``dim`` is "3D" (26-connectivity), "2D" (8-connectivity within each
    slice) or a list of offsets, each joining neighbours both ways.
    """
    ng = int(levels.max())
    nx, ny, nz = levels.shape
    if dim == "3D":
        neighborhood = _neighbors_3d()
        slice_bound = False
    elif dim == "2D":
        neighborhood = _neighbors_2d()
        slice_bound = True
    else:
        neighborhood = [*dim, *(tuple(-d for d in o) for o in dim)]
        slice_bound = False
    visited = np.zeros_like(levels, dtype=bool)
    zones: list[tuple[int, int]] = []
    for x in range(nx):
        for y in range(ny):
            for z in range(nz):
                level = int(levels[x, y, z])
                if level == 0 or visited[x, y, z]:
                    continue
                size = 0
                queue = deque([(x, y, z)])
                visited[x, y, z] = True
                while queue:
                    cx, cy, cz = queue.popleft()
                    size += 1
                    for dx, dy, dz in neighborhood:
                        px, py, pz = cx + dx, cy + dy, cz + dz
                        if not (0 <= px < nx and 0 <= py < ny and 0 <= pz < nz):
                            continue
                        if slice_bound and pz != cz:
                            continue
                        if visited[px, py, pz] or levels[px, py, pz] != level:
                            continue
                        visited[px, py, pz] = True
                        queue.append((px, py, pz))
                zones.append((level, size))
    max_size = max((size for _, size in zones), default=1)
    counts = np.zeros((ng, max_size), dtype=np.int64)
    for level, size in zones:
        counts[level - 1, size - 1] += 1
    return counts


def dense_counts(m) -> np.ndarray:
    """A ``SizeMatrix``'s counts laid out as the brute oracles lay theirs
    out: size j in column j - 1, the sizes that do not occur as zeros."""
    dense = np.zeros((m.counts.shape[0], int(m.sizes[-1])),
                     dtype=m.counts.dtype)
    dense[:, m.sizes - 1] = m.counts
    return dense


def anova_icc(pairs) -> tuple[float, float, float]:
    """ICC(1,1) via the total sum-of-squares decomposition.

    Independent route: SSW is obtained as SST - SSB rather than from
    within-subject deviations directly.
    """
    values = [v for _, a, b in pairs for v in (a, b)]
    n = len(pairs)
    grand = sum(values) / (2 * n)
    sst = sum((v - grand) ** 2 for v in values)
    subject_means = [(a + b) / 2 for _, a, b in pairs]
    ssb = 2 * sum((m - grand) ** 2 for m in subject_means)
    ssw = sst - ssb
    bms = ssb / (n - 1)
    wms = ssw / n
    return (bms - wms) / (bms + wms), bms, wms


def volume_reference_icc(pairs):
    """ICC of (subject, timepoint-1 value, timepoint-2 value) pairs, as
    ``build_table`` computes it: the ``volume_reference`` of a one-column
    feature matrix, ``original_shape_Volume``."""
    from radrep.repeatability import (VOLUME_REFERENCE_FEATURE, FeatureKey,
                                      FeatureMatrix, build_table)

    return build_table(FeatureMatrix(
        features=(FeatureKey(VOLUME_REFERENCE_FEATURE),),
        values=np.array([[v] for _, a, b in pairs for v in (a, b)],
                        dtype=np.float64),
        subjects=tuple(s for s, _, _ in pairs for _ in (1, 2)),
        timepoints=(1, 2) * len(pairs))).volume_reference


class Row(NamedTuple):
    """One feature-CSV row: a subject/timepoint's {column: value or None}."""

    subject: str
    timepoint: int
    values: dict[str, float | None]


_META = ("study", "series", "canonicalType", "segmentedStructure")


def brute_read_feature_csv(path, timepoint_map=None) -> dict[str, list[Row]]:
    """A valid feature CSV as one :class:`Row` per line, per structure.

    Each line goes through csv.DictReader and each non-empty cell through
    float(); empty cells are None. The file's schema is not checked.
    """
    by_structure: dict[str, list[Row]] = {}
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        columns = [c for c in reader.fieldnames if c not in _META and c != ""
                   and not c.startswith(("general_info_", "diagnostics_"))]
        for record in reader:
            study = record["study"]
            if timepoint_map and study in timepoint_map:
                subject, timepoint = timepoint_map[study]
            else:
                subject, timepoint = re.fullmatch(
                    r"(.+?)[_-][tT][pP](\d+)", study).groups()
            values = {c: float(record[c]) if record[c] else None
                      for c in columns}
            by_structure.setdefault(record.get("segmentedStructure", ""), []
                                    ).append(Row(str(subject), int(timepoint),
                                                 values))
    return by_structure


def brute_table(rows: list[Row], reference: str):
    """One repeatability table, feature by feature.

    Returns (results, dropped, reference result), where results maps each
    feature to (icc, bms, wms, n) in sorted feature order. Per feature,
    the subjects with a value at both timepoints form the pairs (a later
    row for the same subject and timepoint replaces an earlier one), and
    BMS/WMS use numpy sums over that feature's (n, 2) array alone.
    """
    features = sorted({f for row in rows for f in row.values})
    results: dict[str, tuple[float, float, float, int]] = {}
    dropped: dict[str, str] = {}
    for feature in features:
        by_subject: dict[str, dict[int, float | None]] = {}
        for row in rows:
            by_subject.setdefault(row.subject, {})[row.timepoint] = \
                row.values.get(feature)
        pairs = []
        for subject in sorted(by_subject):
            v1, v2 = by_subject[subject].get(1), by_subject[subject].get(2)
            if v1 is not None and v2 is not None:
                pairs.append((float(v1), float(v2)))
        if len(pairs) < 3:
            dropped[feature] = f"only {len(pairs)} subjects with both timepoints"
            continue
        y = np.array(pairs, dtype=np.float64)
        n = len(pairs)
        subject_means = y.mean(axis=1)
        grand_mean = y.mean()
        bms = 2 * float(np.sum((subject_means - grand_mean) ** 2)) / (n - 1)
        wms = float(np.sum((y - subject_means[:, None]) ** 2)) / n
        if bms + wms == 0.0:
            dropped[feature] = "all values identical"
            continue
        results[feature] = ((bms - wms) / (bms + wms), bms, wms, n)
    return results, dropped, results.get(reference)


def _log2_entropy(values) -> float:
    return -sum(p * math.log2(p) for p in values if p > 0)


def glcm_feature_oracle(probs: np.ndarray) -> dict[str, float | None]:
    """Direct double-sum evaluation of every co-occurrence feature."""
    ng = probs.shape[0]
    px = [sum(probs[i][j] for j in range(ng)) for i in range(ng)]
    mu = sum((i + 1) * px[i] for i in range(ng))
    sigma2 = sum((i + 1 - mu) ** 2 * px[i] for i in range(ng))

    def total(term):
        return sum(term(i + 1, j + 1, probs[i][j])
                   for i in range(ng) for j in range(ng))

    p_diff = [0.0] * ng
    p_sum = [0.0] * (2 * ng + 1)
    for i in range(ng):
        for j in range(ng):
            p_diff[abs(i - j)] += probs[i][j]
            p_sum[i + j + 2] += probs[i][j]

    autocorr = total(lambda i, j, p: i * j * p)
    return {
        "Autocorrelation": autocorr,
        "ClusterProminence": total(lambda i, j, p: (i + j - 2 * mu) ** 4 * p),
        "ClusterShade": total(lambda i, j, p: (i + j - 2 * mu) ** 3 * p),
        "ClusterTendency": total(lambda i, j, p: (i + j - 2 * mu) ** 2 * p),
        "Contrast": total(lambda i, j, p: (i - j) ** 2 * p),
        "Correlation": ((autocorr - mu * mu) / sigma2) if sigma2 > 0 else None,
        "DifferenceAverage": sum(k * p_diff[k] for k in range(ng)),
        "DifferenceEntropy": _log2_entropy(p_diff),
        "Id": total(lambda i, j, p: p / (1 + abs(i - j))),
        "Idm": total(lambda i, j, p: p / (1 + (i - j) ** 2)),
        "InverseVariance": total(
            lambda i, j, p: p / (i - j) ** 2 if i != j else 0.0),
        "JointAverage": mu,
        "JointEnergy": total(lambda i, j, p: p * p),
        "JointEntropy": _log2_entropy(
            [probs[i][j] for i in range(ng) for j in range(ng)]),
        "MaximumProbability": max(probs[i][j]
                                  for i in range(ng) for j in range(ng)),
        "SumEntropy": _log2_entropy(p_sum),
    }


def glrlm_feature_oracle(counts: np.ndarray, num_roi_voxels: int,
                         num_directions: int) -> dict[str, float]:
    """Direct double-sum evaluation of every run-length feature."""
    ng, nr = counts.shape
    total_runs = counts.sum()
    r = counts / total_runs

    def total(term):
        return sum(term(i + 1, j + 1, r[i][j])
                   for i in range(ng) for j in range(nr))

    mu_i = total(lambda i, j, p: i * p)
    mu_j = total(lambda i, j, p: j * p)
    return {
        "ShortRunEmphasis": total(lambda i, j, p: p / j ** 2),
        "LongRunEmphasis": total(lambda i, j, p: p * j ** 2),
        "GrayLevelNonUniformity": sum(
            counts[i].sum() ** 2 for i in range(ng)) / total_runs,
        "RunLengthNonUniformity": sum(
            counts[:, j].sum() ** 2 for j in range(nr)) / total_runs,
        "RunPercentage": total_runs / (num_roi_voxels * num_directions),
        "GrayLevelVariance": total(lambda i, j, p: (i - mu_i) ** 2 * p),
        "RunVariance": total(lambda i, j, p: (j - mu_j) ** 2 * p),
        "RunEntropy": _log2_entropy(r.ravel().tolist()),
        "LowGrayLevelRunEmphasis": total(lambda i, j, p: p / i ** 2),
        "HighGrayLevelRunEmphasis": total(lambda i, j, p: p * i ** 2),
        "ShortRunLowGrayLevelEmphasis": total(
            lambda i, j, p: p / (i ** 2 * j ** 2)),
        "ShortRunHighGrayLevelEmphasis": total(
            lambda i, j, p: p * i ** 2 / j ** 2),
        "LongRunLowGrayLevelEmphasis": total(
            lambda i, j, p: p * j ** 2 / i ** 2),
        "LongRunHighGrayLevelEmphasis": total(
            lambda i, j, p: p * i ** 2 * j ** 2),
    }


def glszm_feature_oracle(counts: np.ndarray, num_roi_voxels: int,
                         ) -> dict[str, float]:
    """Direct double-sum evaluation of every size-zone feature."""
    ng, ns = counts.shape
    total_zones = counts.sum()
    z = counts / total_zones

    def total(term):
        return sum(term(i + 1, s + 1, z[i][s])
                   for i in range(ng) for s in range(ns))

    mu_i = total(lambda i, s, p: i * p)
    mu_s = total(lambda i, s, p: s * p)
    return {
        "SmallAreaEmphasis": total(lambda i, s, p: p / s ** 2),
        "LargeAreaEmphasis": total(lambda i, s, p: p * s ** 2),
        "GrayLevelNonUniformity": sum(
            counts[i].sum() ** 2 for i in range(ng)) / total_zones,
        "SizeZoneNonUniformity": sum(
            counts[:, s].sum() ** 2 for s in range(ns)) / total_zones,
        "ZonePercentage": total_zones / num_roi_voxels,
        "GrayLevelVariance": total(lambda i, s, p: (i - mu_i) ** 2 * p),
        "ZoneVariance": total(lambda i, s, p: (s - mu_s) ** 2 * p),
        "ZoneEntropy": _log2_entropy(z.ravel().tolist()),
        "LowGrayLevelZoneEmphasis": total(lambda i, s, p: p / i ** 2),
        "HighGrayLevelZoneEmphasis": total(lambda i, s, p: p * i ** 2),
        "SmallAreaLowGrayLevelEmphasis": total(
            lambda i, s, p: p / (i ** 2 * s ** 2)),
        "SmallAreaHighGrayLevelEmphasis": total(
            lambda i, s, p: p * i ** 2 / s ** 2),
        "LargeAreaLowGrayLevelEmphasis": total(
            lambda i, s, p: p * s ** 2 / i ** 2),
        "LargeAreaHighGrayLevelEmphasis": total(
            lambda i, s, p: p * i ** 2 * s ** 2),
    }
