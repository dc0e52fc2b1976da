"""First-order, shape, and texture feature computation.

Every operation returns a :class:`FeatureMap` whose entries are either
finite floats or ``None`` for features that are undefined on the given
input (constant ROI, single gray level, degenerate axis). ``None`` is an
explicit flag: it serializes to an empty CSV cell and is never silently
reported as NaN or zero.

The emitted name set is fixed by :data:`FEATURE_ROSTER`; names on the
exclusion list (features directly correlated with retained ones, or
meaningless on single-slice ROIs) are never computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .discretize import TooManyGrayLevels, discretize_roi
from .texture_matrices import GlcMatrix, SizeMatrix
from .volume_io import RoiMask, VolumeGrid

# Rows of the pairwise-distance matrix formed at once: each temporary
# holds this many x n float64s, 2 MB per 1000 points compared.
_DISTANCE_BLOCK = 256

# The statistics of _size_family, in its order, as (run name, zone name).
_SIZE_NAMES = (
    ("ShortRunEmphasis", "SmallAreaEmphasis"),
    ("LongRunEmphasis", "LargeAreaEmphasis"),
    ("GrayLevelNonUniformity", "GrayLevelNonUniformity"),
    ("RunLengthNonUniformity", "SizeZoneNonUniformity"),
    ("RunPercentage", "ZonePercentage"),
    ("GrayLevelVariance", "GrayLevelVariance"),
    ("RunVariance", "ZoneVariance"),
    ("RunEntropy", "ZoneEntropy"),
    ("LowGrayLevelRunEmphasis", "LowGrayLevelZoneEmphasis"),
    ("HighGrayLevelRunEmphasis", "HighGrayLevelZoneEmphasis"),
    ("ShortRunLowGrayLevelEmphasis", "SmallAreaLowGrayLevelEmphasis"),
    ("ShortRunHighGrayLevelEmphasis", "SmallAreaHighGrayLevelEmphasis"),
    ("LongRunLowGrayLevelEmphasis", "LargeAreaLowGrayLevelEmphasis"),
    ("LongRunHighGrayLevelEmphasis", "LargeAreaHighGrayLevelEmphasis"),
)
# Each family's column of _SIZE_NAMES.
_SIZE_FAMILY_NAMES = dict(zip(("glrlm", "glszm"), zip(*_SIZE_NAMES)))

FEATURE_ROSTER: dict[str, tuple[str, ...]] = {
    "firstorder": (
        "10Percentile", "90Percentile", "Energy", "Entropy", "Kurtosis",
        "Maximum", "Mean", "MeanAbsoluteDeviation", "Median", "Minimum",
        "Range", "RootMeanSquared", "Skewness", "StandardDeviation",
        "Uniformity", "Variance",
    ),
    "shape": (
        "Elongation", "MajorAxisLength", "Maximum2DDiameterColumn",
        "Maximum2DDiameterRow", "Maximum2DDiameterSlice", "Maximum3DDiameter",
        "MinorAxisLength", "Sphericity", "SurfaceArea", "SurfaceVolumeRatio",
        "Volume",
    ),
    "glcm": (
        "Autocorrelation", "ClusterProminence", "ClusterShade",
        "ClusterTendency", "Contrast", "Correlation", "DifferenceAverage",
        "DifferenceEntropy", "Id", "Idm", "InverseVariance", "JointAverage",
        "JointEnergy", "JointEntropy", "MaximumProbability", "SumEntropy",
    ),
    **{cls: tuple(sorted(names)) for cls, names in _SIZE_FAMILY_NAMES.items()},
}
_ROSTER_KEYS = frozenset((cls, name) for cls, names in FEATURE_ROSTER.items()
                         for name in names)

# Dropped for direct correlation with retained features, or because some
# tumor ROIs are defined on a single slice. None is in FEATURE_ROSTER, so
# FeatureMap refuses each of them as unknown.
EXCLUDED_FEATURES: frozenset[tuple[str, str]] = frozenset({
    ("shape", "Compactness1"),
    ("shape", "Compactness2"),
    ("shape", "SphericalDisproportion"),
    ("shape", "Flatness"),
    ("shape", "LeastAxisLength"),
    ("glcm", "SumAverage"),
    ("glcm", "Homogeneity1"),
    ("glcm", "Homogeneity2"),
})


@dataclass(frozen=True)
class FeatureMap:
    """Named feature values: (class, name) -> float or None (undefined)."""

    entries: dict[tuple[str, str], float | None] = field(default_factory=dict)

    def __post_init__(self):
        for key, value in self.entries.items():
            if key not in _ROSTER_KEYS:
                raise ValueError(f"unknown feature {key}")
            if value is not None and not math.isfinite(value):
                raise ValueError(f"non-finite value for {key}: {value}")

    def get(self, feature_class: str, name: str) -> float | None:
        return self.entries[(feature_class, name)]

    def names(self) -> set[tuple[str, str]]:
        return set(self.entries)


def _entropy_bits(p: np.ndarray) -> float:
    """Shannon entropy in bits with the 0*log0 := 0 convention."""
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum()) + 0.0  # normalizes -0.0


def _fsum(terms: np.ndarray) -> float:
    """The correctly rounded sum of ``terms``, read as Python floats."""
    return math.fsum(terms.tolist())


def _nearest_rank(sorted_values: np.ndarray, q: float) -> float:
    # round kills float fuzz in q*N before the ceiling
    rank = max(1, math.ceil(round(q * sorted_values.size, 12)))
    return float(sorted_values[rank - 1])


def firstorder_features(volume: VolumeGrid, mask: RoiMask,
                        bin_width: float) -> FeatureMap:
    """Intensity statistics over the raw in-ROI values.

    Median uses the lower middle element on even counts; percentiles use
    the nearest-rank rule rank = ceil(q * N). Variance and standard
    deviation are population (divide-by-N) statistics; Kurtosis is
    non-excess (Gaussian -> 3). The third and fourth moments average the
    products ``d * d * d`` and ``(d * d) * (d * d)`` of each deviation d.
    Skewness and Kurtosis are None when their denominator, ``m2 ** 1.5``
    or ``m2 ** 2``, is 0.0: a constant ROI, or a variance so small that
    the power underflows. Entropy and Uniformity read the fixed-bin-width
    gray levels of :func:`discretize_roi`, None past ``MAX_GRAY_LEVELS``.
    """
    x = volume.values[mask.bounding_box][mask.inside].astype(np.float64)
    n = x.size
    srt = np.sort(x)
    mean = float(x.sum()) / n
    dev = x - mean
    dev2 = dev * dev
    x2 = x * x
    # a constant ROI is min == max exactly; the mean's rounding would
    # otherwise leave a ~1e-31 residual variance
    m2 = 0.0 if srt[0] == srt[-1] else float(dev2.sum()) / n
    energy = float(x2.sum())
    entries: dict[tuple[str, str], float | None] = {}

    entries[("firstorder", "Mean")] = mean
    entries[("firstorder", "Median")] = float(srt[(n - 1) // 2])
    entries[("firstorder", "10Percentile")] = _nearest_rank(srt, 0.10)
    entries[("firstorder", "90Percentile")] = _nearest_rank(srt, 0.90)
    entries[("firstorder", "Minimum")] = float(srt[0])
    entries[("firstorder", "Maximum")] = float(srt[-1])
    entries[("firstorder", "Range")] = float(srt[-1] - srt[0])
    entries[("firstorder", "Variance")] = m2
    entries[("firstorder", "StandardDeviation")] = math.sqrt(m2)
    entries[("firstorder", "Energy")] = energy
    entries[("firstorder", "RootMeanSquared")] = math.sqrt(energy / n)
    entries[("firstorder", "MeanAbsoluteDeviation")] = float(np.abs(dev).sum()) / n
    for name, moment, denominator in (("Skewness", dev2 * dev, m2 ** 1.5),
                                      ("Kurtosis", dev2 * dev2, m2 ** 2)):
        entries[("firstorder", name)] = (
            float(moment.sum()) / n / denominator if denominator > 0 else None)

    try:
        disc = discretize_roi(volume, mask, bin_width)
    except TooManyGrayLevels:  # the cell's texture failure records it
        entries[("firstorder", "Entropy")] = entries[("firstorder", "Uniformity")] = None
    else:
        p = np.bincount(disc.levels[disc.levels > 0], minlength=disc.num_gray_levels + 1)[1:] / n
        entries[("firstorder", "Entropy")] = _entropy_bits(p)
        entries[("firstorder", "Uniformity")] = float((p ** 2).sum())
    return FeatureMap(entries)


def _surface_face_counts(inside: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis exposed-face counts and the surface-voxel mask."""
    face_counts = np.zeros(3, dtype=np.int64)
    surface = np.zeros_like(inside)
    for axis in range(3):
        lead = (slice(None),) * axis
        after, before = lead + (slice(1, None),), lead + (slice(None, -1),)
        exposed_lo, exposed_hi = inside.copy(), inside.copy()
        exposed_lo[after] &= ~inside[before]
        exposed_hi[before] &= ~inside[after]
        face_counts[axis] = exposed_lo.sum() + exposed_hi.sum()
        surface |= exposed_lo | exposed_hi
    return face_counts, surface


def _max_pairwise_distance(points: np.ndarray) -> float:
    """Largest pairwise Euclidean distance, compared block by block.

    The squared distances are summed per coordinate in coordinate order,
    as ``scipy.spatial.distance.pdist`` sums them, and the square root is
    taken of their maximum, so the result equals ``pdist(points).max()``.
    """
    largest = 0.0
    for start in range(0, len(points), _DISTANCE_BLOCK):
        # rows start .. start + block against every later point
        block, rest = points[start:start + _DISTANCE_BLOCK, None], points[start:]
        squared = sum((block[..., c] - rest[:, c]) ** 2
                      for c in range(points.shape[1]))
        largest = max(largest, float(squared.max()))
    return math.sqrt(largest)


def _max_diameter(surface: np.ndarray, start: np.ndarray,
                  spacing: np.ndarray, axes: list[int]) -> float:
    """Largest distance between surface-voxel centers projected on ``axes``.

    Squared distance is strictly convex along a line, and a center's
    coordinate ``(index + start) * spacing`` grows with its index even in
    floating point. So a farthest pair is found, exactly, among the voxels
    that are first or last on every axis-parallel line of the projected
    surface, and only those are compared.
    """
    grid = surface.any(axis=tuple(set(range(3)) - set(axes)))
    keep = grid.copy()
    for axis in range(grid.ndim):
        count = np.cumsum(grid, axis=axis)
        keep &= (count == 1) | (count == np.take(count, [-1], axis=axis))
    return _max_pairwise_distance(
        (np.argwhere(keep) + start[axes]).astype(np.float64) * spacing[axes])


def shape_features(mask: RoiMask) -> FeatureMap:
    """Geometry of the binary mask; independent of any intensity volume.

    Computed on the mask's ``inside`` crop: outside the bounding box every
    voxel is background, so the crop has the same exposed faces, and a
    voxel's grid index is its crop index plus the box start. Surface area
    counts exposed voxel faces (each face weighted by the product of its
    two spanning spacings). Diameters are maximum pairwise distances
    between surface-voxel centers, in 3D and per principal plane. Axis
    lengths derive from the population covariance of in-ROI voxel center
    coordinates in mm; Elongation is undefined (None) when the major
    eigenvalue is zero (single voxel).
    """
    inside = mask.inside
    spacing = np.asarray(mask.spacing, dtype=np.float64)
    n = int(inside.sum())
    voxel_volume = float(spacing.prod())
    volume = n * voxel_volume

    face_counts, surface = _surface_face_counts(inside)
    face_areas = np.array([
        spacing[1] * spacing[2], spacing[0] * spacing[2], spacing[0] * spacing[1],
    ])
    area = float(np.dot(face_counts, face_areas))

    start = np.array([s.start for s in mask.bounding_box])
    coords = (np.argwhere(inside) + start).astype(np.float64) * spacing
    diameter = partial(_max_diameter, surface, start, spacing)

    cov = np.zeros((3, 3))
    if n > 1:
        centered = coords - coords.mean(axis=0)
        cov = centered.T @ centered / n
    eigvals = np.clip(np.linalg.eigvalsh(cov)[::-1], 0.0, None)

    entries: dict[tuple[str, str], float | None] = {
        ("shape", "Volume"): volume,
        ("shape", "SurfaceArea"): area,
        ("shape", "SurfaceVolumeRatio"): area / volume,
        ("shape", "Sphericity"): (36.0 * math.pi * volume ** 2) ** (1.0 / 3.0) / area,
        ("shape", "Maximum3DDiameter"): diameter([0, 1, 2]),
        ("shape", "Maximum2DDiameterSlice"): diameter([0, 1]),
        ("shape", "Maximum2DDiameterColumn"): diameter([1, 2]),
        ("shape", "Maximum2DDiameterRow"): diameter([0, 2]),
        ("shape", "MajorAxisLength"): 4.0 * math.sqrt(eigvals[0]),
        ("shape", "MinorAxisLength"): 4.0 * math.sqrt(eigvals[1]),
        ("shape", "Elongation"):
            math.sqrt(eigvals[1] / eigvals[0]) if eigvals[0] > 0 else None,
    }
    return FeatureMap(entries)


def glcm_features(m: GlcMatrix) -> FeatureMap:
    """Statistics over the joint co-occurrence probabilities.

    The cluster statistics weight p by powers of c = i + j - 2 mu, formed
    as products of ``c * c``.
    """
    p = m.probs
    ng = p.shape[0]
    i = np.arange(1, ng + 1, dtype=np.float64)
    px = p.sum(axis=1)
    mu = float(np.dot(i, px))  # symmetric matrix: mu_x == mu_y
    sigma2 = float(np.dot((i - mu) ** 2, px))
    ii, jj = i[:, None], i[None, :]  # broadcast as the Ng x Ng grid

    diff = np.abs(ii - jj)
    diff2 = diff * diff
    # p_{x-y}(k), k = 0..Ng-1 and p_{x+y}(k), k = 2..2Ng
    p_diff = np.bincount(diff.astype(np.int64).ravel(), weights=p.ravel(),
                         minlength=ng)
    k_diff = np.arange(ng, dtype=np.float64)
    p_sum = np.bincount((ii + jj).astype(np.int64).ravel(), weights=p.ravel(),
                        minlength=2 * ng + 1)[2:]

    autocorr = float((ii * jj * p).sum())
    correlation = (autocorr - mu * mu) / sigma2 if sigma2 > 0 else None

    off_diag = diff > 0
    c = ii + jj - 2 * mu
    c2 = c * c
    entries: dict[tuple[str, str], float | None] = {
        ("glcm", "Autocorrelation"): autocorr,
        ("glcm", "ClusterProminence"): float((c2 * c2 * p).sum()),
        ("glcm", "ClusterShade"): float((c2 * c * p).sum()),
        ("glcm", "ClusterTendency"): float((c2 * p).sum()),
        ("glcm", "Contrast"): float((diff2 * p).sum()),
        ("glcm", "Correlation"): correlation,
        ("glcm", "DifferenceAverage"): float(np.dot(k_diff, p_diff)),
        ("glcm", "DifferenceEntropy"): _entropy_bits(p_diff),
        ("glcm", "Id"): float((p / (1.0 + diff)).sum()),
        ("glcm", "Idm"): float((p / (1.0 + diff2)).sum()),
        ("glcm", "InverseVariance"):
            float((p[off_diag] / diff2[off_diag]).sum()),
        ("glcm", "JointAverage"): mu,
        ("glcm", "JointEnergy"): float((p ** 2).sum()),
        ("glcm", "JointEntropy"): _entropy_bits(p),
        ("glcm", "MaximumProbability"): float(p.max()),
        ("glcm", "SumEntropy"): _entropy_bits(p_sum),
    }
    return FeatureMap(entries)


def _size_family(feature_class: str, m: SizeMatrix) -> FeatureMap:
    """Statistics over p(i, j) = count / total on the cells holding items.

    ``m.counts[i-1, c]`` counts items (runs or zones) of gray level i and
    size j = ``m.sizes[c]``; the percentage is the item total over
    ``m.sites``. The marginals and the two means' numerators are integer
    sums, each divided once by the total, and every float sum is a
    correctly rounded ``math.fsum``, so no value depends on the matrix's
    layout (one gray level gives a GrayLevelVariance of exactly 0). The
    14 values are named by ``feature_class``'s column of :data:`_SIZE_NAMES`.
    """
    rows, cols = np.nonzero(m.counts)
    n, size = m.counts[rows, cols], m.sizes[cols]
    total = int(n.sum())
    p = n / total
    i, j = rows + 1.0, size.astype(np.float64)
    i2, j2 = i * i, j * j
    mu_level = int(np.dot(n, rows + 1)) / total
    mu_size = int(np.dot(n, size)) / total
    values = (
        _fsum(p / j2),
        _fsum(p * j2),
        int((m.counts.sum(axis=1) ** 2).sum()) / total,
        int((m.counts.sum(axis=0) ** 2).sum()) / total,
        total / m.sites,
        _fsum((i - mu_level) ** 2 * p),
        _fsum((j - mu_size) ** 2 * p),
        -_fsum(p * np.log2(p)) + 0.0,  # + 0.0 normalizes -0.0
        _fsum(p / i2),
        _fsum(p * i2),
        _fsum(p / (i2 * j2)),
        _fsum(p * i2 / j2),
        _fsum(p * j2 / i2),
        _fsum(p * i2 * j2),
    )
    return FeatureMap({(feature_class, name): value for name, value
                       in zip(_SIZE_FAMILY_NAMES[feature_class], values)})


def glrlm_features(m: SizeMatrix) -> FeatureMap:
    """Run-length statistics; RunPercentage is per voxel and direction."""
    return _size_family("glrlm", m)


def glszm_features(m: SizeMatrix) -> FeatureMap:
    """Size-zone statistics: the run-length family with zones for runs."""
    return _size_family("glszm", m)
