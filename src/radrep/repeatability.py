"""ICC(1,1) computation and the repeatability analysis suite.

The intraclass correlation for a two-timepoint test-retest design is
(BMS - WMS) / (BMS + WMS), the one-way random-effects single-measurement
form. It is invariant under linear scaling and shifting of the feature
values, which is what makes features with different units comparable;
features are judged against the Volume ICC of the same image/structure
rather than against absolute thresholds.

Analyses operate on :class:`RepeatabilityTable` objects keyed by
:class:`FeatureKey` column names (``[filter]_[class]_[name]``, split once
per CSV header), each computed from one :class:`FeatureMatrix` (a CSV's
rows for one structure) through one (features, subjects, 2) array with
NaN for undefined cells; a subject with an undefined value is dropped for
that feature only, and the retained count is reported alongside every
ICC. ``build_table`` itself rejects a cohort with fewer than 3 subjects
at both timepoints.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import RadrepError
from .features import FEATURE_CLASSES

VOLUME_REFERENCE_FEATURE = "original_shape_Volume"
MIN_SUBJECTS = 3


class RepeatabilityError(RadrepError):
    pass


class DegenerateData(RepeatabilityError):
    """All measurements identical; ICC is 0/0."""


class InsufficientSubjects(RepeatabilityError):
    """Fewer than 3 subjects with both timepoints."""


class MissingVolumeReference(RepeatabilityError):
    """The reference feature column is absent or undefined."""


class FeatureSetMismatch(RepeatabilityError):
    """Tables being compared do not share an identical feature set."""


class DegenerateSamples(RepeatabilityError):
    """KDE input has fewer than 2 samples or zero variance."""


class InsufficientFeatures(RepeatabilityError):
    """A feature class has fewer defined features than requested."""


class NoSharedFeatures(RepeatabilityError):
    """Two tables have no feature key in common."""


@dataclass(frozen=True)
class PairedMeasurements:
    """Per-subject (timepoint1, timepoint2) values; k is fixed at 2."""

    subjects: tuple[tuple[str, float, float], ...]

    def __post_init__(self):
        if len(self.subjects) < MIN_SUBJECTS:
            raise InsufficientSubjects(
                f"need >= {MIN_SUBJECTS} subjects, got {len(self.subjects)}"
            )


@dataclass(frozen=True)
class IccResult:
    icc: float
    bms: float
    wms: float
    n: int


def _icc_columns(y: np.ndarray) -> list[IccResult | None]:
    """ICC(1,1) per feature of a C-contiguous (features, n, 2) array.

    BMS = k * sum_i (mean_i - grand)^2 / (n - 1) and
    WMS = sum_ij (y_ij - mean_i)^2 / (n * (k - 1)) with k = 2, each sum
    along a contiguous last axis so that numpy's summation order does not
    depend on the feature count. None marks all-identical values (0/0).
    """
    m, n, k = y.shape
    subject_means = y.mean(axis=2)
    grand_means = y.reshape(m, n * k).mean(axis=1)
    bms = k * ((subject_means - grand_means[:, None]) ** 2).sum(axis=1) / (n - 1)
    wms = ((y - subject_means[:, :, None]) ** 2).reshape(m, n * k).sum(
        axis=1) / (n * (k - 1))
    return [None if b + w == 0.0
            else IccResult(icc=(b - w) / (b + w), bms=b, wms=w, n=n)
            for b, w in zip(bms.tolist(), wms.tolist())]


def icc_1_1(data: PairedMeasurements) -> IccResult:
    """One-way random-effects single-measurement ICC for two timepoints."""
    y = np.array([[[v1, v2] for _, v1, v2 in data.subjects]], dtype=np.float64)
    [result] = _icc_columns(y)
    if result is None:
        raise DegenerateData("all measurements identical; ICC undefined")
    return result


@dataclass(frozen=True)
class ConfigKey:
    """One cell of the extraction configuration space."""

    image_type: str
    structure: str
    normalization: str
    bin_width: float
    dimensionality: str
    registered: bool = False


@dataclass(frozen=True)
class FeatureMatrix:
    """A feature CSV's rows for one structure, NaN for an empty cell."""

    features: tuple[FeatureKey, ...]
    values: np.ndarray  # (rows, features) float64, read-only
    subjects: tuple[str, ...]
    timepoints: tuple[int, ...]

    def __post_init__(self):
        self.values.setflags(write=False)


@dataclass(frozen=True)
class RepeatabilityTable:
    """Per-feature ICC results for one configuration cell.

    ``rows`` maps feature keys to results; features whose ICC
    could not be computed are listed in ``dropped`` with a reason. The
    Volume reference for the same image/structure is always attached.
    """

    key: ConfigKey
    rows: dict[FeatureKey, IccResult]
    volume_reference: IccResult
    dropped: dict[str, str] = field(default_factory=dict)


def build_table(matrix: FeatureMatrix, key: ConfigKey,
                reference_feature: str = VOLUME_REFERENCE_FEATURE,
                ) -> RepeatabilityTable:
    """Compute one ICC per feature column and attach the Volume reference.

    Features and subjects are sorted; only rows at timepoints 1 and 2
    count, and a later row replaces an earlier one of the same subject
    and timepoint. Raises InsufficientSubjects below 3 subjects with rows
    at both timepoints. Subjects with an undefined value are dropped for
    that feature only; features with the same retained subjects share one
    ICC computation.
    """
    order = sorted(range(len(matrix.features)), key=matrix.features.__getitem__)
    features = [matrix.features[j] for j in order]
    number = {s: i for i, s in enumerate(sorted(set(matrix.subjects)))}
    last = {(number[s], t - 1): r for r, (s, t) in enumerate(
        zip(matrix.subjects, matrix.timepoints)) if t in (1, 2)}
    subject, column = np.array(list(last), dtype=np.intp).reshape(-1, 2).T
    y = np.full((len(features), len(number), 2), np.nan)
    y[:, subject, column] = matrix.values[np.ix_(list(last.values()), order)].T
    complete = int((np.bincount(subject) == 2).sum())
    if complete < MIN_SUBJECTS:
        raise InsufficientSubjects(f"{key}: {complete} subject(s) with both "
                                   f"timepoints; need >= {MIN_SUBJECTS}")
    results: dict[str, IccResult] = {}
    dropped: dict[str, str] = {}
    patterns, group = np.unique(~np.isnan(y).any(axis=2), axis=0,
                                return_inverse=True)
    for index, pattern in enumerate(patterns):
        members = np.flatnonzero(group == index)
        n = int(pattern.sum())
        if n < MIN_SUBJECTS:
            dropped.update((features[i], f"only {n} subjects with both "
                            "timepoints") for i in members)
            continue
        block = np.ascontiguousarray(y[members][:, pattern])
        for i, result in zip(members, _icc_columns(block)):
            if result is None:
                dropped[features[i]] = "all values identical"
            else:
                results[features[i]] = result
    results, dropped = dict(sorted(results.items())), dict(sorted(dropped.items()))
    if reference_feature not in results:
        raise MissingVolumeReference(
            f"reference feature {reference_feature!r}: "
            + dropped.get(reference_feature, "not among extracted columns")
        )
    return RepeatabilityTable(key=key, rows=results,
                              volume_reference=results[reference_feature],
                              dropped=dropped)


def _icc_matrix(tables: dict[float, RepeatabilityTable],
                ) -> tuple[list[str], list[float], np.ndarray]:
    """Shared features, sorted bin widths and the (features, widths) ICCs."""
    if len(tables) < 2:
        raise FeatureSetMismatch("need tables for >= 2 bin widths")
    sets = {w: set(t.rows) for w, t in tables.items()}
    first = next(iter(sets.values()))
    if any(s != first for s in sets.values()):
        raise FeatureSetMismatch(
            "tables disagree on the feature set: "
            + str({w: sorted(s ^ first)[:5] for w, s in sets.items() if s != first})
        )
    features, widths = sorted(first), sorted(tables)
    iccs = np.array([[tables[w].rows[f].icc for w in widths] for f in features])
    return features, widths, iccs.reshape(len(features), len(widths))


def binwidth_spread(tables: dict[float, RepeatabilityTable]) -> dict[str, float]:
    """Per feature, max(ICC) - min(ICC) across bin widths."""
    features, _, iccs = _icc_matrix(tables)
    return dict(zip(features, (iccs.max(axis=1) - iccs.min(axis=1)).tolist()))


@dataclass(frozen=True)
class DensityCurve:
    """Gaussian-kernel density estimate sampled on a regular grid."""

    abscissa: np.ndarray
    density: np.ndarray
    bandwidth: float

    def __post_init__(self):
        self.abscissa.setflags(write=False)
        self.density.setflags(write=False)


def silverman_bandwidth(samples: np.ndarray) -> float:
    """0.9 * min(std, IQR/1.34) * n^(-1/5) (sample std, linear-interp IQR)."""
    n = samples.size
    std = float(np.std(samples, ddof=1))
    q75, q25 = np.percentile(samples, [75, 25])
    iqr = float(q75 - q25)
    candidates = [c for c in (std, iqr / 1.34) if c > 0]
    if not candidates:
        raise DegenerateSamples("samples have zero spread")
    return 0.9 * min(candidates) * n ** (-0.2)


def gaussian_kde_density(samples: np.ndarray, x: np.ndarray,
                         bandwidth: float) -> np.ndarray:
    """Evaluate the Gaussian KDE of ``samples`` at points ``x``."""
    z = (np.atleast_1d(x)[:, None] - samples[None, :]) / bandwidth
    return np.exp(-0.5 * z ** 2).sum(axis=1) / (
        samples.size * bandwidth * math.sqrt(2.0 * math.pi)
    )


def kde(samples, bandwidth: float | None = None,
        grid_points: int = 256) -> DensityCurve:
    """Gaussian KDE on a regular grid spanning [min - 3h, max + 3h].

    The bandwidth defaults to Silverman's rule and can be overridden.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size < 2:
        raise DegenerateSamples("need >= 2 samples")
    if np.ptp(samples) == 0.0:
        raise DegenerateSamples("samples have zero variance")
    h = silverman_bandwidth(samples) if bandwidth is None else float(bandwidth)
    if h <= 0:
        raise ValueError("bandwidth must be > 0")
    grid = np.linspace(samples.min() - 3 * h, samples.max() + 3 * h, grid_points)
    return DensityCurve(abscissa=grid,
                        density=gaussian_kde_density(samples, grid, h),
                        bandwidth=h)


def rank_distribution(tables: dict[float, RepeatabilityTable],
                      ) -> dict[float, dict[float, int]]:
    """Histogram of per-feature ICC ranks for each bin width.

    Bin widths are ranked per feature by ICC descending (rank 1 = highest
    ICC); ties get the average rank, computed in numpy as the count of
    strictly higher ICCs plus (tie count + 1) / 2, the tie count including
    the width itself. The ranks are exact halves, equal to
    ``scipy.stats.rankdata(-icc, method="average")``; the ICCs are finite,
    as ``build_table`` drops constant features, so no rank is NaN.
    Returns binWidth -> {rank: count}.
    """
    _, widths, iccs = _icc_matrix(tables)
    # [feature, i, j] compares width j against width i of the same feature
    others, own = iccs[:, None, :], iccs[:, :, None]
    ranks = (others > own).sum(axis=2) + ((others == own).sum(axis=2) + 1) / 2
    histograms: dict[float, dict[float, int]] = {}
    for width, column in zip(widths, ranks.T):
        values, counts = np.unique(column, return_counts=True)
        histograms[width] = dict(zip(values.tolist(), counts.tolist()))
    return histograms


def split_feature_key(feature_key: str) -> tuple[str, str, str]:
    """Split '[filter]_[class]_[name]' into its three parts."""
    for cls in FEATURE_CLASSES:
        token = f"_{cls}_"
        pos = feature_key.find(token)
        if pos > 0:
            return feature_key[:pos], cls, feature_key[pos + len(token):]
    raise ValueError(f"feature key {feature_key!r} does not match "
                     "'[filter]_[class]_[name]'")


class FeatureKey(str):
    """A feature-column name that equals, hashes and sorts as the plain
    name and carries its ``filter``, ``feature_class`` and ``name`` parts."""

    __slots__ = ("filter", "feature_class", "name")

    def __new__(cls, column: str):
        key = super().__new__(cls, column)
        flt, key.feature_class, name = split_feature_key(column)
        # each part repeats across many columns: keep one copy of each
        key.filter, key.name = sys.intern(flt), sys.intern(name)
        return key


def top_k_per_class(table: RepeatabilityTable, k: int = 3,
                    ) -> dict[str, list[tuple[str, float]]]:
    """The k most repeatable features per class, over all filter variants.

    A feature (class + name) is scored by its maximum ICC across filters;
    ties break lexicographically on the feature name.
    """
    best: dict[str, dict[str, float]] = {}
    for key, result in table.rows.items():
        per_class = best.setdefault(key.feature_class, {})
        if key.name not in per_class or result.icc > per_class[key.name]:
            per_class[key.name] = result.icc
    out: dict[str, list[tuple[str, float]]] = {}
    for cls in sorted(best):
        scored = sorted(best[cls].items(), key=lambda kv: (-kv[1], kv[0]))
        if len(scored) < k:
            raise InsufficientFeatures(
                f"class {cls!r} has {len(scored)} features with defined ICC, need {k}"
            )
        out[cls] = [(f"{cls}_{name}", icc) for name, icc in scored[:k]]
    return out


@dataclass(frozen=True)
class FilterFrequency:
    """How often each filter exceeds the Volume reference ICC."""

    counts: dict[str, int]
    total_above_reference: int


def filter_frequency(table: RepeatabilityTable) -> FilterFrequency:
    """Count (feature, filter) cells with ICC above the Volume reference.

    ``total_above_reference`` is the number of distinct features (class +
    name) with at least one above-reference filter variant; one feature
    can contribute to several filters.
    """
    reference = table.volume_reference.icc
    counts: dict[str, int] = {}
    features_above: set[tuple[str, str]] = set()
    for key, result in table.rows.items():
        if result.icc > reference:
            counts[key.filter] = counts.get(key.filter, 0) + 1
            features_above.add((key.feature_class, key.name))
    return FilterFrequency(counts=dict(sorted(counts.items())),
                           total_above_reference=len(features_above))


@dataclass(frozen=True)
class ConfigDelta:
    """Per-feature ICC change between two configurations (b minus a)."""

    shared: dict[str, tuple[float, float, float]]
    only_a: tuple[str, ...]
    only_b: tuple[str, ...]


def config_delta(a: RepeatabilityTable, b: RepeatabilityTable) -> ConfigDelta:
    """ICC deltas for shared features; disjoint features are listed, not dropped."""
    keys_a, keys_b = set(a.rows), set(b.rows)
    shared_keys = keys_a & keys_b
    if not shared_keys:
        raise NoSharedFeatures("tables share no feature key")
    shared = {
        key: (a.rows[key].icc, b.rows[key].icc, b.rows[key].icc - a.rows[key].icc)
        for key in sorted(shared_keys)
    }
    return ConfigDelta(shared=shared,
                       only_a=tuple(sorted(keys_a - keys_b)),
                       only_b=tuple(sorted(keys_b - keys_a)))
