"""ICC(1,1) computation and the repeatability analysis suite.

The intraclass correlation for a two-timepoint test-retest design is
(BMS - WMS) / (BMS + WMS), the one-way random-effects single-measurement
form. It is invariant under linear scaling and shifting of the feature
values, which is what makes features with different units comparable;
features are judged against the Volume ICC of the same image/structure
rather than against absolute thresholds.

A :class:`RepeatabilityTable` holds the sorted :class:`FeatureKey` names
(``[filter]_[class]_[name]``) of the features with an ICC and aligned
icc/bms/wms/n arrays, which every analysis reads. ``build_table`` computes
it from a :class:`FeatureMatrix` (a CSV's rows for one structure); a
subject with an undefined value is dropped for that feature only.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import RadrepError
from .features import FEATURE_ROSTER

VOLUME_REFERENCE_FEATURE = "original_shape_Volume"
MIN_SUBJECTS = 3
TOP_K = 3  # features reported per class
KDE_GRID_POINTS = 256


class InsufficientSubjects(RadrepError):
    """Fewer than 3 subjects with both timepoints."""


class MissingVolumeReference(RadrepError):
    """The reference feature column is absent or undefined."""


class FeatureSetMismatch(RadrepError):
    """Tables being compared do not share an identical feature set."""


class DegenerateSamples(RadrepError):
    """KDE input has fewer than 2 samples or zero variance."""


class InsufficientFeatures(RadrepError):
    """A feature class has fewer defined features than requested."""


class NoSharedFeatures(RadrepError):
    """Two tables have no feature key in common."""


@dataclass(frozen=True)
class IccResult:
    icc: float
    bms: float
    wms: float
    n: int


def _icc_columns(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """BMS and WMS per feature of a C-contiguous (features, n, 2) array.

    BMS = k * sum_i (mean_i - grand)^2 / (n - 1) and
    WMS = sum_ij (y_ij - mean_i)^2 / (n * (k - 1)) with k = 2, each sum
    along a contiguous last axis so that numpy's summation order does not
    depend on the feature count.
    """
    m, n, k = y.shape
    subject_means = y.mean(axis=2)
    grand_means = y.reshape(m, n * k).mean(axis=1)
    bms = k * ((subject_means - grand_means[:, None]) ** 2).sum(axis=1) / (n - 1)
    wms = ((y - subject_means[:, :, None]) ** 2).reshape(m, n * k).sum(
        axis=1) / (n * (k - 1))
    return bms, wms


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
    """Per-feature ICCs of one CSV's structure, as columns: read-only
    ``icc``, ``bms``, ``wms`` and ``n`` arrays aligned with the sorted keys
    ``rows``. ``dropped`` gives the reason each other feature has no ICC."""

    rows: tuple[FeatureKey, ...]
    icc: np.ndarray
    bms: np.ndarray
    wms: np.ndarray
    n: np.ndarray
    volume_reference: IccResult
    dropped: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        for column in (self.icc, self.bms, self.wms, self.n):
            column.setflags(write=False)

    def take(self, keys: tuple[FeatureKey, ...]) -> RepeatabilityTable:
        """This table's rows for ``keys``, each of which it must hold."""
        index = {key: i for i, key in enumerate(self.rows)}
        at = [index[key] for key in keys]
        return replace(self, rows=keys, icc=self.icc[at], bms=self.bms[at],
                       wms=self.wms[at], n=self.n[at])


def build_table(matrix: FeatureMatrix) -> RepeatabilityTable:
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
        raise InsufficientSubjects(f"{complete} subject(s) with both "
                                   f"timepoints; need >= {MIN_SUBJECTS}")
    defined = ~np.isnan(y).any(axis=2)
    n = defined.sum(axis=1)
    bms, wms = np.full((2, len(features)), np.nan)
    groups: dict[bytes, list[int]] = {}
    for i, pattern in enumerate(np.packbits(defined, axis=1)):
        groups.setdefault(pattern.tobytes(), []).append(i)
    for members in groups.values():
        if n[members[0]] >= MIN_SUBJECTS:
            block = np.ascontiguousarray(y[members][:, defined[members[0]]])
            bms[members], wms[members] = _icc_columns(block)
    kept = (n >= MIN_SUBJECTS) & (bms + wms != 0.0)
    dropped = {features[i]: f"only {n[i]} subjects with both timepoints"
               if n[i] < MIN_SUBJECTS else "all values identical"
               for i in np.flatnonzero(~kept)}
    rows = tuple(itertools.compress(features, kept.tolist()))
    if VOLUME_REFERENCE_FEATURE not in rows:
        raise MissingVolumeReference(
            f"reference feature {VOLUME_REFERENCE_FEATURE!r}: " + dropped.get(
                VOLUME_REFERENCE_FEATURE, "not among extracted columns"))
    bms, wms, n = bms[kept], wms[kept], n[kept]
    icc = (bms - wms) / (bms + wms)
    i = rows.index(VOLUME_REFERENCE_FEATURE)
    reference = IccResult(*(column[i].item() for column in (icc, bms, wms, n)))
    return RepeatabilityTable(rows=rows, icc=icc, bms=bms, wms=wms, n=n,
                              volume_reference=reference, dropped=dropped)


def _icc_matrix(tables: dict[float, RepeatabilityTable],
                ) -> tuple[tuple[FeatureKey, ...], list[float], np.ndarray]:
    """Shared features, sorted bin widths and the (features, widths) ICCs."""
    if len(tables) < 2:
        raise FeatureSetMismatch("need tables for >= 2 bin widths")
    widths = sorted(tables)
    features = tables[widths[0]].rows
    mismatched = {w: sorted(set(tables[w].rows) ^ set(features))[:5]
                  for w in widths if tables[w].rows != features}
    if mismatched:
        raise FeatureSetMismatch(
            f"tables disagree on the feature set: {mismatched}")
    return features, widths, np.stack([tables[w].icc for w in widths], axis=1)


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
    # one buffer, the operations of exp(-0.5 * ((x - s) / h) ** 2) in order
    z = np.atleast_1d(x)[:, None] - samples[None, :]
    z /= bandwidth
    z *= z
    z *= -0.5
    np.exp(z, out=z)
    return z.sum(axis=1) / (
        samples.size * bandwidth * math.sqrt(2.0 * math.pi)
    )


def kde(samples) -> DensityCurve:
    """Gaussian KDE with Silverman's bandwidth h, sampled at
    ``KDE_GRID_POINTS`` regular points spanning [min - 3h, max + 3h]."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size < 2:
        raise DegenerateSamples("need >= 2 samples")
    if np.ptp(samples) == 0.0:
        raise DegenerateSamples("samples have zero variance")
    h = silverman_bandwidth(samples)
    grid = np.linspace(samples.min() - 3 * h, samples.max() + 3 * h,
                       KDE_GRID_POINTS)
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
    for cls in FEATURE_ROSTER:
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


def top_k_per_class(table: RepeatabilityTable,
                    ) -> dict[str, list[tuple[str, float]]]:
    """The :data:`TOP_K` most repeatable features per class, over all
    filter variants.

    A feature (class + name) is scored by its maximum ICC across filters;
    ties break lexicographically on the feature name.
    """
    best: dict[str, dict[str, float]] = {}
    for key, icc in zip(table.rows, table.icc.tolist()):
        per_class = best.setdefault(key.feature_class, {})
        if key.name not in per_class or icc > per_class[key.name]:
            per_class[key.name] = icc
    out: dict[str, list[tuple[str, float]]] = {}
    for cls in sorted(best):
        scored = sorted(best[cls].items(), key=lambda kv: (-kv[1], kv[0]))
        if len(scored) < TOP_K:
            raise InsufficientFeatures(
                f"class {cls!r} has {len(scored)} features with defined ICC, "
                f"need {TOP_K}")
        out[cls] = [(f"{cls}_{name}", icc) for name, icc in scored[:TOP_K]]
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
    above = table.icc > table.volume_reference.icc
    counts: dict[str, int] = {}
    features_above: set[tuple[str, str]] = set()
    for key in itertools.compress(table.rows, above.tolist()):
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
    keys = tuple(sorted(keys_a & keys_b))
    if not keys:
        raise NoSharedFeatures("tables share no feature key")
    icc_a, icc_b = a.take(keys).icc, b.take(keys).icc
    shared = dict(zip(keys, zip(icc_a.tolist(), icc_b.tolist(),
                                (icc_b - icc_a).tolist())))
    return ConfigDelta(shared=shared,
                       only_a=tuple(sorted(keys_a - keys_b)),
                       only_b=tuple(sorted(keys_b - keys_a)))
