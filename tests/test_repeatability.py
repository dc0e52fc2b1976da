import csv
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from radrep.repeatability import (DegenerateSamples,
                                  FeatureKey, FeatureMatrix,
                                  FeatureSetMismatch, IccResult,
                                  InsufficientFeatures, InsufficientSubjects,
                                  MissingVolumeReference, NoSharedFeatures,
                                  RepeatabilityTable,
                                  binwidth_spread, build_table, config_delta,
                                  filter_frequency, gaussian_kde_density,
                                  kde, rank_distribution,
                                  silverman_bandwidth, split_feature_key,
                                  top_k_per_class)
from radrep.pipeline import analyze_run

from oracles import Row, anova_icc, brute_table, volume_reference_icc


def pairs_of(*items):
    return tuple((f"s{i}", float(a), float(b)) for i, (a, b) in enumerate(items))


def table_from_iccs(iccs: dict[str, float],
                    reference: float = 0.5) -> RepeatabilityTable:
    rows = tuple(sorted(map(FeatureKey, iccs)))
    return RepeatabilityTable(
        rows=rows,
        icc=np.array([iccs[k] for k in rows], dtype=np.float64),
        bms=np.ones(len(rows)), wms=np.ones(len(rows)),
        n=np.full(len(rows), 10),
        volume_reference=IccResult(icc=reference, bms=1, wms=1, n=10))


def result_of(table: RepeatabilityTable, feature: str) -> IccResult:
    """The ICC-table row of ``feature``, read from the aligned arrays."""
    i = table.rows.index(feature)
    return IccResult(icc=float(table.icc[i]), bms=float(table.bms[i]),
                     wms=float(table.wms[i]), n=int(table.n[i]))


# ---------------------------------------------------------------------------
# ICC(1,1), read off build_table's Volume reference
# ---------------------------------------------------------------------------

def test_icc_perfect_repeatability():
    result = volume_reference_icc(pairs_of((1, 1), (2, 2), (3, 3)))
    assert result.icc == 1.0
    assert result.wms == 0.0


def test_icc_all_variance_within():
    result = volume_reference_icc(pairs_of((1, 2), (2, 1), (1, 2)))
    assert result.bms == pytest.approx(0.0, abs=1e-15)
    assert result.wms == pytest.approx(0.5)
    assert result.icc == pytest.approx(-1.0)


def test_icc_hand_anova_case():
    result = volume_reference_icc(pairs_of((1, 3), (5, 5), (9, 7)))
    assert result.bms == pytest.approx(18.0)
    assert result.wms == pytest.approx(4.0 / 3.0)
    assert result.icc == pytest.approx(50.0 / 58.0, abs=1e-12)


def test_icc_degenerate_all_identical():
    with pytest.raises(MissingVolumeReference, match="all values identical"):
        volume_reference_icc(pairs_of((4, 4), (4, 4), (4, 4)))


def test_icc_requires_three_subjects():
    with pytest.raises(InsufficientSubjects):
        volume_reference_icc(pairs_of((1, 2), (3, 4)))


def test_icc_matches_anova_oracle(rng):
    for _ in range(300):
        n = int(rng.integers(3, 31))
        scale = 10.0 ** rng.integers(-3, 4)
        y = rng.standard_normal((n, 2)) * scale + rng.normal() * scale
        pairs = tuple((f"s{i}", y[i, 0], y[i, 1]) for i in range(n))
        result = volume_reference_icc(pairs)
        expected_icc, expected_bms, expected_wms = anova_icc(pairs)
        assert result.icc == pytest.approx(expected_icc, abs=1e-12)
        assert result.bms == pytest.approx(expected_bms, rel=1e-10)
        assert result.wms == pytest.approx(expected_wms, rel=1e-10, abs=1e-12)
        assert -1.0 <= result.icc <= 1.0


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=-1e3, max_value=1e3).filter(lambda a: abs(a) > 1e-6),
       st.floats(min_value=-1e3, max_value=1e3))
@example(a=-1.9885351418956217e-06, b=128.0)
def test_icc_linear_invariance(a, b):
    rng = np.random.default_rng(4242)
    y = rng.standard_normal((8, 2)) + rng.standard_normal((8, 1))
    base = volume_reference_icc(tuple(
        (f"s{i}", y[i, 0], y[i, 1]) for i in range(8)))
    mapped = volume_reference_icc(tuple(
        (f"s{i}", a * y[i, 0] + b, a * y[i, 1] + b) for i in range(8)))
    # rounding a * y + b alone moves the ICC by up to about
    # eps * (max|y| + |b| / |a|); the bound allows 8 times that
    eps = np.finfo(float).eps
    tolerance = 1e-9 + 8 * eps * (np.abs(y).max() + abs(b) / abs(a))
    assert mapped.icc == pytest.approx(base.icc, abs=tolerance)


def test_icc_consistency_estimator():
    # sigma_b = sigma_w = 1 -> true ICC 0.5; estimate noise at n = 200 has
    # std ~0.05, so the seed is pinned
    n = 200
    gen = np.random.default_rng(20)
    y = gen.standard_normal((n, 1)) + gen.standard_normal((n, 2))
    result = volume_reference_icc(tuple(
        (f"s{i}", y[i, 0], y[i, 1]) for i in range(n)))
    assert result.icc == pytest.approx(0.5, abs=0.05)


# ---------------------------------------------------------------------------
# build_table
# ---------------------------------------------------------------------------

def matrix_of(rows: list[Row]) -> FeatureMatrix:
    """build_table's input for per-row values: None and absent cells are NaN.

    Columns come in first-seen order, not sorted, as in a CSV file.
    """
    features = list(dict.fromkeys(f for row in rows for f in row.values))
    values = np.array([[np.nan if row.values.get(f) is None else row.values[f]
                        for f in features] for row in rows], dtype=np.float64)
    return FeatureMatrix(features=tuple(map(FeatureKey, features)),
                         values=values.reshape(len(rows), len(features)),
                         subjects=tuple(row.subject for row in rows),
                         timepoints=tuple(row.timepoint for row in rows))


def make_rows(n_subjects=15, features=("original_shape_Volume",
                                       "original_firstorder_Mean"),
              jitter=0.0, seed=1):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n_subjects):
        base = {f: float(rng.uniform(1, 10)) for f in features}
        for tp in (1, 2):
            values = {f: v + (rng.normal() * jitter if tp == 2 else 0.0)
                      for f, v in base.items()}
            rows.append(Row(subject=f"s{i:02d}", timepoint=tp,
                            values=values))
    return rows


def test_build_table_plumbing():
    table = build_table(matrix_of(make_rows()))
    assert set(table.rows) == {"original_shape_Volume",
                               "original_firstorder_Mean"}
    assert table.volume_reference == result_of(table, "original_shape_Volume")
    assert table.n.tolist() == [15, 15]
    for column in (table.icc, table.bms, table.wms, table.n):
        assert len(column) == len(table.rows)
        assert not column.flags.writeable


def test_build_table_drops_subject_per_feature():
    rows = make_rows(n_subjects=15, jitter=0.01)
    values = dict(rows[0].values)
    values["original_firstorder_Mean"] = None
    rows[0] = Row(subject=rows[0].subject, timepoint=rows[0].timepoint,
                  values=values)
    table = build_table(matrix_of(rows))
    assert result_of(table, "original_firstorder_Mean").n == 14
    assert result_of(table, "original_shape_Volume").n == 15


def test_build_table_missing_reference():
    rows = make_rows(features=("original_firstorder_Mean",))
    with pytest.raises(MissingVolumeReference):
        build_table(matrix_of(rows))


def test_build_table_degenerate_feature_dropped():
    rows = make_rows(jitter=0.01)
    rows = [Row(r.subject, r.timepoint,
                {**r.values, "original_glcm_Idm": 1.0}) for r in rows]
    table = build_table(matrix_of(rows))
    assert "original_glcm_Idm" not in table.rows
    assert "original_glcm_Idm" in table.dropped


def test_build_table_needs_three_complete_subjects():
    rows = [r for r in make_rows(n_subjects=3)
            if (r.subject, r.timepoint) != ("s02", 2)]
    with pytest.raises(InsufficientSubjects, match="2 subject"):
        build_table(matrix_of(rows))


def random_cohort(rng, n_complete: int, n_random: int = 12):
    """Shuffled rows for n_complete subjects with both timepoints.

    One more subject has timepoint 1 only, subject s00 also has a
    timepoint-3 row, s01's timepoint-2 row is repeated with new values,
    and about 15% of the random features' cells are None. The random
    features span scales from 1e-4 to 1e6; original_glcm_Idm is constant
    and original_glcm_Contrast is defined for two subjects only.
    """
    scales = 10.0 ** rng.uniform(-4, 6, size=n_random)

    def values(subject: int, timepoint: int, level):
        out = {"original_shape_Volume": 100.0 + subject + rng.uniform(),
               "original_glcm_Idm": 0.5,
               "original_glcm_Contrast":
                   1.0 + subject * timepoint if subject < 2 else None}
        for j, scale in enumerate(scales):
            cell = (level[j] + 0.3 * rng.standard_normal() + 1.0) * scale
            out[f"log-sigma-{j}_firstorder_Mean"] = (
                None if rng.uniform() < 0.15 else float(cell))
        return out

    extra = {0: (3,), 1: (2,)}
    rows = []
    for subject in range(n_complete + 1):
        level = rng.standard_normal(n_random)
        timepoints = ((1,) if subject == n_complete
                      else (1, 2) + extra.get(subject, ()))
        rows += [Row(f"s{subject:02d}", tp, values(subject, tp, level))
                 for tp in timepoints]
    return [rows[i] for i in rng.permutation(len(rows))]


@pytest.mark.parametrize("n_complete", [3, 4, 7, 8, 9, 17, 40])
def test_build_table_matches_per_feature_oracle(n_complete):
    rng = np.random.default_rng(n_complete)
    retained = set()
    for _ in range(20):
        rows = random_cohort(rng, n_complete)
        table = build_table(matrix_of(rows))
        results, dropped, reference = brute_table(rows, "original_shape_Volume")
        assert list(table.rows) == list(results)
        assert dict(zip(table.rows, zip(
            table.icc.tolist(), table.bms.tolist(), table.wms.tolist(),
            table.n.tolist()))) == results
        assert table.dropped == dropped
        assert table.volume_reference == IccResult(*reference)
        assert dropped["original_glcm_Idm"] == "all values identical"
        assert dropped["original_glcm_Contrast"] == \
            "only 2 subjects with both timepoints"
        retained |= set(table.n.tolist())
    # some features kept every complete subject, others dropped some
    assert n_complete in retained
    assert n_complete == 3 or min(retained) < n_complete


def write_feature_csv(path, rows: list[Row]):
    """A feature CSV analyze reads: feature columns, study, structure."""
    features = list(dict.fromkeys(f for row in rows for f in row.values))
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow([*features, "study", "segmentedStructure"])
        for row in rows:
            writer.writerow([
                *("" if row.values.get(f) is None else repr(row.values[f])
                  for f in features),
                f"{row.subject}_tp{row.timepoint}", "Tumor"])
    return path


def test_icc_csv_bytes_match_per_feature_oracle(tmp_path):
    # blank cells, a constant feature and one defined for two subjects
    rows = random_cohort(np.random.default_rng(11), n_complete=9)
    path = write_feature_csv(
        tmp_path / "FullStudySettings_noNormalization_2D_T2AX_bin15.csv", rows)
    analyze_run([path], tmp_path / "reports")
    results, dropped, reference = brute_table(rows, "original_shape_Volume")
    assert {"original_glcm_Idm", "original_glcm_Contrast"} <= set(dropped)
    lines = sorted([*split_feature_key(f)[1:], split_feature_key(f)[0], "15",
                    *(f"{v:.17g}" for v in (icc, bms, wms)), str(n),
                    "1" if icc > reference[0] else "0"]
                   for f, (icc, bms, wms, n) in results.items())
    expected = "".join(",".join(line) + "\n" for line in [
        ["featureClass", "featureName", "filter", "binWidth", "icc", "bms",
         "wms", "n", "aboveVolumeReference"], *lines])
    icc_path = tmp_path / "reports" / f"icc__{path.stem}__Tumor.csv"
    assert icc_path.read_bytes() == expected.encode()


def test_analyze_builds_one_icc_result_per_table(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    paths = [write_feature_csv(
        tmp_path / f"FullStudySettings_noNormalization_2D_T2AX_bin{w}.csv",
        random_cohort(rng, n_complete=8)) for w in (10, 20)]
    # one bin-width group, so analyze_run works in this process: a counter
    # would not see calls made in a forked worker
    made = []
    init = IccResult.__init__
    monkeypatch.setattr(IccResult, "__init__",
                        lambda self, *a, **k: made.append(1) or init(self, *a, **k))
    written, failures = analyze_run(paths, tmp_path / "reports",
                                    compare=(paths[0].stem, paths[1].stem))
    assert not failures
    assert any(p.name.startswith("rankdist__") for p in written)
    assert any(p.name.startswith("delta__") for p in written)
    assert 0 < len(made) <= len(paths)


# ---------------------------------------------------------------------------
# binwidth_spread / rank_distribution
# ---------------------------------------------------------------------------

def test_binwidth_spread_hand_case():
    tables = {
        10.0: table_from_iccs({"f_glcm_Contrast": 0.7, "original_shape_Volume": 0.5}),
        15.0: table_from_iccs({"f_glcm_Contrast": 0.8, "original_shape_Volume": 0.5}),
        20.0: table_from_iccs({"f_glcm_Contrast": 0.75, "original_shape_Volume": 0.5}),
        40.0: table_from_iccs({"f_glcm_Contrast": 0.9, "original_shape_Volume": 0.5}),
    }
    spread = binwidth_spread(tables)
    assert spread["f_glcm_Contrast"] == pytest.approx(0.2)
    assert spread["original_shape_Volume"] == 0.0


def test_binwidth_spread_mismatch():
    tables = {
        10.0: table_from_iccs({"a_glcm_Idm": 0.7}),
        15.0: table_from_iccs({"b_glcm_Idm": 0.8}),
    }
    with pytest.raises(FeatureSetMismatch):
        binwidth_spread(tables)


@pytest.mark.parametrize("call, error, message", [
    (lambda: binwidth_spread({10.0: table_from_iccs({"a_glcm_Idm": 0.7})}),
     FeatureSetMismatch, "need tables for >= 2 bin widths"),
    (lambda: rank_distribution({10.0: table_from_iccs({"a_glcm_Idm": 0.7})}),
     FeatureSetMismatch, "need tables for >= 2 bin widths"),
    (lambda: silverman_bandwidth(np.array([2.0, 2.0, 2.0])),
     DegenerateSamples, "samples have zero spread"),
], ids=["spread-one-width", "rankdist-one-width", "silverman-zero-spread"])
def test_width_and_density_reports_refuse_degenerate_input(call, error,
                                                           message):
    with pytest.raises(error, match=message):
        call()


def test_binwidth_spread_matches_recomputation(rng):
    # build tables from actual paired data; spread must equal a direct
    # recomputation of the ICCs
    features = ["original_shape_Volume", "original_glcm_Contrast"]
    tables = {}
    value_store = {}
    for width in (10.0, 20.0):
        rows = []
        for i in range(10):
            for tp in (1, 2):
                noise = rng.normal() * (0.1 if width == 10.0 else 0.8)
                values = {"original_shape_Volume": float(i + 1),
                          "original_glcm_Contrast": float(i + 1 + noise * tp)}
                value_store[(width, i, tp)] = values
                rows.append(Row(f"s{i}", tp, values))
        tables[width] = build_table(matrix_of(rows))
    spread = binwidth_spread(tables)
    recomputed = {}
    for feature in features:
        iccs = []
        for width in (10.0, 20.0):
            pairs = tuple((f"s{i}", value_store[(width, i, 1)][feature],
                           value_store[(width, i, 2)][feature])
                          for i in range(10))
            iccs.append(anova_icc(pairs)[0])
        recomputed[feature] = max(iccs) - min(iccs)
    for feature in features:
        assert spread[feature] == pytest.approx(recomputed[feature], abs=1e-12)


def test_rank_distribution_hand_case():
    tables = {w: table_from_iccs({"x_glcm_Idm": icc,
                                  "original_shape_Volume": 0.5})
              for w, icc in ((10.0, 0.9), (15.0, 0.8), (20.0, 0.7), (40.0, 0.6))}
    hist = rank_distribution(tables)
    # Idm iccs descend with width: ranks 1/2/3/4
    assert hist[10.0][1.0] == 1
    assert hist[15.0][2.0] == 1
    assert hist[20.0][3.0] == 1
    assert hist[40.0][4.0] == 1
    # Volume icc identical across widths: every width gets rank 2.5 for it
    for width in (10.0, 15.0, 20.0, 40.0):
        assert hist[width][2.5] == 1


def test_rank_distribution_tie_rule():
    tables = {w: table_from_iccs({"x_glcm_Idm": 0.7}) for w in
              (10.0, 15.0, 20.0, 40.0)}
    hist = rank_distribution(tables)
    for width in tables:
        assert hist[width] == {2.5: 1}


def test_rank_distribution_column_sums(rng):
    features = [f"f{i}_glcm_Idm" for i in range(7)]
    tables = {}
    for width in (10.0, 15.0, 20.0, 40.0):
        tables[width] = table_from_iccs(
            {f: float(rng.uniform(-1, 1)) for f in features})
    hist = rank_distribution(tables)
    for width, counts in hist.items():
        assert sum(counts.values()) == len(features)


def rankdata_histograms(widths, iccs) -> dict[float, dict[float, int]]:
    """The per-feature rankdata loop that rank_distribution replaces."""
    expected: dict[float, dict[float, int]] = {w: {} for w in widths}
    for feature_iccs in iccs:
        for width, rank in zip(widths, rankdata(-feature_iccs, method="average")):
            expected[width][float(rank)] = expected[width].get(float(rank), 0) + 1
    return expected


def test_width_reports_match_per_feature_loops(rng):
    widths = (10.0, 15.0, 20.0, 40.0)
    features = [f"f{i}_glcm_Idm" for i in range(300)]
    # one decimal, so many features tie across some of their widths
    iccs = np.round(rng.uniform(-1, 1, (len(features), len(widths))), 1)
    tables = {w: table_from_iccs({f: float(v) for f, v in zip(features, column)})
              for w, column in zip(widths, iccs.T)}
    assert rank_distribution(tables) == rankdata_histograms(widths, iccs)
    assert binwidth_spread(tables) == {
        f: max(row) - min(row) for f, row in zip(features, iccs.tolist())}


@pytest.mark.parametrize("n_widths", [2, 3, 5])
def test_rank_distribution_matches_rankdata_on_ties(rng, n_widths):
    widths = (5.0, 10.0, 15.0, 20.0, 40.0)[:n_widths]
    x = 0.4
    up, down = np.nextafter(x, 1.0), np.nextafter(x, -1.0)
    rows = [
        [0.7] * n_widths,                            # every width ties
        [-0.3] * n_widths,
        list(np.linspace(-0.9, -0.1, n_widths)),     # negative, distinct
        ([x, up, down, x, up] * 2)[:n_widths],       # one ulp apart
        ([-x, np.nextafter(-x, 0.0), -x, -x, 0.0])[:n_widths],
        ([0.2, 0.9, 0.2, 0.2, -0.1])[:n_widths],     # three-way partial tie
        ([0.2, -0.5, 0.2, 0.6, 0.2])[:n_widths],
    ]
    for row in rows:
        tables = {w: table_from_iccs({"f_glcm_Idm": float(v)})
                  for w, v in zip(widths, row)}
        assert rank_distribution(tables) == rankdata_histograms(
            widths, [np.array(row)]), row
    # bulk: draws from a pool of tied, ulp-adjacent and negative values
    pool = np.array([-0.5, np.nextafter(-0.5, 0.0), 0.0, x, up, down, 1.0])
    iccs = rng.choice(pool, (400, n_widths))
    features = [f"f{i}_glcm_Idm" for i in range(len(iccs))]
    tables = {w: table_from_iccs(dict(zip(features, column.tolist())))
              for w, column in zip(widths, iccs.T)}
    assert rank_distribution(tables) == rankdata_histograms(widths, iccs)


# ---------------------------------------------------------------------------
# kde
# ---------------------------------------------------------------------------

def test_kde_normal_samples_density_at_zero(rng):
    samples = rng.standard_normal(1000)
    h = silverman_bandwidth(samples)
    density = gaussian_kde_density(samples, np.array([0.0]), h)[0]
    assert density == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=0.05)


def test_kde_two_samples_symmetry():
    curve = kde(np.array([0.0, 1.0]))
    h = curve.bandwidth
    d0 = gaussian_kde_density(np.array([0.0, 1.0]), np.array([0.0]), h)[0]
    d1 = gaussian_kde_density(np.array([0.0, 1.0]), np.array([1.0]), h)[0]
    assert d0 == pytest.approx(d1, abs=1e-9)
    # the regular grid is symmetric about the midpoint too
    assert np.allclose(curve.density, curve.density[::-1], atol=1e-9)


def test_kde_integral_close_to_one(rng):
    for _ in range(5):
        samples = rng.standard_normal(int(rng.integers(10, 300))) * \
            rng.uniform(0.5, 5)
        curve = kde(samples)
        integral = np.trapezoid(curve.density, curve.abscissa)
        assert 0.98 <= integral <= 1.02


def test_kde_grid_shape_and_span(rng):
    samples = rng.standard_normal(50)
    curve = kde(samples)
    assert curve.abscissa.shape == (256,)
    assert curve.abscissa[0] == pytest.approx(samples.min() - 3 * curve.bandwidth)
    assert curve.abscissa[-1] == pytest.approx(samples.max() + 3 * curve.bandwidth)


def test_kde_degenerate_inputs():
    with pytest.raises(DegenerateSamples):
        kde(np.array([1.0]))
    with pytest.raises(DegenerateSamples):
        kde(np.array([2.0, 2.0, 2.0]))


def test_silverman_uses_min_of_std_and_iqr():
    samples = np.array([0.0, 1.0])
    h = silverman_bandwidth(samples)
    std = np.std(samples, ddof=1)
    iqr = np.percentile(samples, 75) - np.percentile(samples, 25)
    assert h == pytest.approx(0.9 * min(std, iqr / 1.34) * 2 ** (-0.2))


# ---------------------------------------------------------------------------
# top_k / filter_frequency / config_delta
# ---------------------------------------------------------------------------

def test_top_k_hand_case():
    table = table_from_iccs({
        "original_glcm_A" + "utocorrelation": 0.9,
        "original_glcm_Contrast": 0.8,
        "original_glcm_Idm": 0.7,
        "original_glcm_JointEnergy": 0.6,
    })
    top = top_k_per_class(table)
    assert [name for name, _ in top["glcm"]] == [
        "glcm_Autocorrelation", "glcm_Contrast", "glcm_Idm"]


def test_top_k_max_over_filters():
    table = table_from_iccs({
        "original_glcm_Contrast": 0.2,
        "wavelet-HH_glcm_Contrast": 0.95,
        "original_glcm_Idm": 0.9,
        "original_glcm_JointEnergy": 0.5,
        "original_glcm_Correlation": 0.1,
    })
    top = top_k_per_class(table)
    scores = dict(top["glcm"])
    assert scores["glcm_Contrast"] == 0.95  # max over filter variants


def test_top_k_lexicographic_tie():
    table = table_from_iccs({
        "original_glcm_Autocorrelation": 0.9,
        "original_glcm_Contrast": 0.8,
        "original_glcm_Correlation": 0.7,
        "original_glcm_Idm": 0.7,
    })
    top = top_k_per_class(table)
    assert top["glcm"][-1][0] == "glcm_Correlation"  # 'Co...' < 'Id...'


def test_top_k_insufficient():
    table = table_from_iccs({"original_glcm_Contrast": 0.7})
    with pytest.raises(InsufficientFeatures):
        top_k_per_class(table)


def test_filter_frequency_none_above():
    table = table_from_iccs({"original_glcm_Contrast": 0.3,
                             "wavelet-HH_glcm_Idm": 0.4}, reference=0.5)
    freq = filter_frequency(table)
    assert freq.counts == {}
    assert freq.total_above_reference == 0


def test_filter_frequency_one_feature_two_filters():
    table = table_from_iccs({
        "original_glcm_Contrast": 0.7,
        "wavelet-HH_glcm_Contrast": 0.8,
        "original_glcm_Idm": 0.2,
    }, reference=0.5)
    freq = filter_frequency(table)
    assert freq.counts == {"original": 1, "wavelet-HH": 1}
    assert freq.total_above_reference == 1


def test_filter_frequency_planted_enumeration(rng):
    filters = ["original", "wavelet-LL", "log-sigma-1-0-mm-3D"]
    names = ["Contrast", "Idm", "JointEnergy", "Correlation"]
    reference = 0.5
    iccs = {}
    expected_counts = {}
    expected_above = set()
    for i, flt in enumerate(filters):
        for j, name in enumerate(names):
            value = 0.1 + 0.15 * ((i + j) % 4)  # 0.1, 0.25, 0.4, 0.55
            iccs[f"{flt}_glcm_{name}"] = value
            if value > reference:
                expected_counts[flt] = expected_counts.get(flt, 0) + 1
                expected_above.add(name)
    freq = filter_frequency(table_from_iccs(iccs, reference=reference))
    assert freq.counts == expected_counts
    assert freq.total_above_reference == len(expected_above)


def test_config_delta_identical_tables():
    table = table_from_iccs({"original_glcm_Contrast": 0.3,
                             "original_glcm_Idm": 0.6})
    delta = config_delta(table, table)
    assert all(d == 0.0 for _, _, d in delta.shared.values())


def test_config_delta_single_raise():
    a = table_from_iccs({"original_glcm_Contrast": 0.3,
                         "original_glcm_Idm": 0.6})
    b = table_from_iccs({"original_glcm_Contrast": 0.5,
                         "original_glcm_Idm": 0.6})
    delta = config_delta(a, b)
    assert delta.shared["original_glcm_Contrast"][2] == pytest.approx(0.2)
    assert delta.shared["original_glcm_Idm"][2] == 0.0


def test_config_delta_disjoint_sidecar():
    a = table_from_iccs({"original_glcm_Contrast": 0.3,
                         "original_glcm_Idm": 0.6})
    b = table_from_iccs({"original_glcm_Contrast": 0.4,
                         "wavelet-LL_glcm_Idm": 0.1})
    delta = config_delta(a, b)
    assert delta.only_a == ("original_glcm_Idm",)
    assert delta.only_b == ("wavelet-LL_glcm_Idm",)


def test_config_delta_no_shared():
    a = table_from_iccs({"original_glcm_Contrast": 0.3})
    b = table_from_iccs({"wavelet-LL_glcm_Idm": 0.1})
    with pytest.raises(NoSharedFeatures):
        config_delta(a, b)


def test_split_feature_key():
    assert split_feature_key("wavelet-HH_glcm_JointEnergy") == (
        "wavelet-HH", "glcm", "JointEnergy")
    assert split_feature_key("original_shape_Volume") == (
        "original", "shape", "Volume")
    assert split_feature_key("log-sigma-1-0-mm-3D_firstorder_10Percentile") == (
        "log-sigma-1-0-mm-3D", "firstorder", "10Percentile")
    with pytest.raises(ValueError):
        split_feature_key("unstructured-name")
