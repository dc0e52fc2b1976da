"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion. Criterion 8 needs the published extracted-feature
CSVs and is skipped unless RADREP_EVALDATA_DIR points at them.
"""

import csv
import json
import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from radrep.discretize import DiscretizationSpec, discretize_roi
from radrep.features import (firstorder_features, glcm_features,
                             glrlm_features, glszm_features)
from radrep.preprocess import (WAVELET_SUBBANDS_2D, WAVELET_SUBBANDS_3D,
                               FilterKind, NormalizationSpec, filter_log,
                               filter_pointwise, filter_wavelet, normalize)
from radrep.repeatability import PairedMeasurements, build_table, icc_1_1
from radrep.pipeline import (extract_run, load_manifest,
                             parse_config_from_name, read_feature_csv,
                             validate_feature_csv)
from radrep.texture_matrices import (OFFSETS_2D, OFFSETS_3D, build_glcm,
                                     build_glrlm, build_glszm)
from radrep.volume_io import Structure

from cohorts import build_cohort
from conftest import make_disc, make_mask, make_volume, random_levels
from oracles import (anova_icc, brute_glcm, brute_glrlm, brute_glszm,
                     glcm_feature_oracle, glrlm_feature_oracle,
                     glszm_feature_oracle)


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {label}: FAIL")
        raise
    print(f"\nACCEPTANCE {label}: PASS")


# ---------------------------------------------------------------------------
# 1. ICC oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_1_icc_oracle_equivalence():
    with criterion("1 ICC oracle equivalence"):
        start = time.perf_counter()
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n = int(rng.integers(3, 31))
            scale = 10.0 ** rng.integers(-4, 5)
            offset = rng.normal() * scale
            y = rng.standard_normal((n, 2)) * scale + offset
            pairs = tuple((f"s{i}", y[i, 0], y[i, 1]) for i in range(n))
            result = icc_1_1(PairedMeasurements(pairs))
            oracle_icc, _, _ = anova_icc(pairs)
            assert abs(result.icc - oracle_icc) <= 1e-12
        hand = icc_1_1(PairedMeasurements((("a", 1, 3), ("b", 5, 5),
                                           ("c", 9, 7))))
        assert abs(hand.icc - 50.0 / 58.0) <= 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 2. ICC linear invariance
# ---------------------------------------------------------------------------

def test_criterion_2_icc_linear_invariance():
    with criterion("2 ICC linear invariance"):
        rng = np.random.default_rng(22)
        for _ in range(100):
            n = int(rng.integers(3, 20))
            y = rng.standard_normal((n, 2)) + rng.standard_normal((n, 1))
            pairs = tuple((f"s{i}", y[i, 0], y[i, 1]) for i in range(n))
            base = icc_1_1(PairedMeasurements(pairs)).icc
            for _ in range(20):
                a = rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0])
                b = rng.uniform(-100.0, 100.0)
                mapped = tuple((s, a * v1 + b, a * v2 + b)
                               for s, v1, v2 in pairs)
                assert abs(icc_1_1(PairedMeasurements(mapped)).icc
                           - base) <= 1e-9


# ---------------------------------------------------------------------------
# 3. Texture-matrix oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_3_texture_oracles():
    with criterion("3 texture-matrix and feature oracle equivalence"):
        start = time.perf_counter()
        rng = np.random.default_rng(33)
        for index in range(200):
            shape = (int(rng.integers(2, 7)), int(rng.integers(2, 7)),
                     int(rng.integers(1, 4)))
            ng = int(rng.integers(1, 6))
            levels = random_levels(rng, shape, ng)
            disc = make_disc(levels)
            dim = "2D" if index % 2 == 0 else "3D"
            offsets = OFFSETS_2D if dim == "2D" else OFFSETS_3D

            glcm_counts = brute_glcm(levels, offsets)
            if glcm_counts.sum() > 0:
                glcm = build_glcm(disc, dim)
                assert np.allclose(glcm.probs,
                                   glcm_counts / glcm_counts.sum(),
                                   atol=1e-15)
                fmap = glcm_features(glcm)
                for name, expected in glcm_feature_oracle(glcm.probs).items():
                    got = fmap.get("glcm", name)
                    if expected is None:
                        assert got is None
                    else:
                        assert abs(got - expected) <= 1e-12, name

            glrlm = build_glrlm(disc, dim)
            assert np.array_equal(glrlm.counts, brute_glrlm(levels, offsets))
            fmap = glrlm_features(glrlm)
            oracle = glrlm_feature_oracle(np.asarray(glrlm.counts),
                                          glrlm.num_roi_voxels,
                                          glrlm.num_directions)
            for name, expected in oracle.items():
                assert abs(fmap.get("glrlm", name) - expected) <= 1e-12, name

            glszm = build_glszm(disc, dim)
            assert np.array_equal(glszm.counts, brute_glszm(levels, dim))
            fmap = glszm_features(glszm)
            oracle = glszm_feature_oracle(np.asarray(glszm.counts),
                                          glszm.num_roi_voxels)
            for name, expected in oracle.items():
                assert abs(fmap.get("glszm", name) - expected) <= 1e-12, name
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 4. Preprocessing postconditions
# ---------------------------------------------------------------------------

def test_criterion_4_preprocessing_postconditions():
    with criterion("4 preprocessing postconditions"):
        rng = np.random.default_rng(44)

        # normalization: target mean/std within 1e-6
        for _ in range(100):
            shape = tuple(int(v) for v in rng.integers(3, 9, size=3))
            vol = make_volume(rng.normal(rng.uniform(-50, 2000),
                                         rng.uniform(0.5, 300), shape))
            out = normalize(vol, NormalizationSpec.whole_image())
            assert abs(np.mean(out.values) - 300.0) <= 1e-6
            assert abs(np.std(out.values) - 100.0) <= 1e-6
        for _ in range(30):
            values = rng.normal(500, 120, (7, 7, 5))
            labels = np.zeros((7, 7, 5), dtype=np.uint8)
            labels[2:5, 2:5, 1:4] = 1
            reference = make_mask(labels, structure=Structure.MUSCLE_REFERENCE)
            out = normalize(make_volume(values),
                            NormalizationSpec.reference_region(reference))
            inside = out.values[labels > 0]
            assert abs(np.mean(inside) - 100.0) <= 1e-6
            assert abs(np.std(inside) - 10.0) <= 1e-6

        # LoG: affine fields vanish in the interior
        for sigma in (1.0, 2.0, 3.0):
            coeffs = rng.uniform(-5, 5, size=4)
            n = int(8 * sigma) + 9
            vol = make_volume(np.fromfunction(
                lambda i, j, k: coeffs[0] + coeffs[1] * i + coeffs[2] * j
                + coeffs[3] * k, (n, n, n)))
            out = filter_log(vol, sigma)
            margin = math.ceil(4 * sigma)
            interior = out.values[margin:-margin, margin:-margin,
                                  margin:-margin]
            assert np.abs(interior).max() < 1e-9 * sigma ** 2

        # LoG: impulse response within 2% of the analytic LoG at 0
        for sigma in (1.0, 2.0, 3.0, 4.0, 5.0):
            n = int(8 * sigma) + 1
            values = np.zeros((n, n, n))
            center = n // 2
            values[center, center, center] = 1.0
            out = filter_log(make_volume(values), sigma)
            analytic = -3.0 * sigma ** 2 / ((2 * math.pi) ** 1.5 * sigma ** 5)
            got = out.values[center, center, center]
            assert abs(got / analytic - 1.0) <= 0.02, f"sigma {sigma}"

        # pointwise filters preserve max magnitude and sign
        for kind in (FilterKind.SQUARE, FilterKind.SQUARE_ROOT,
                     FilterKind.LOGARITHM, FilterKind.EXPONENTIAL):
            for _ in range(25):
                vol = make_volume(rng.normal(0, 10, (5, 4, 3)))
                out = filter_pointwise(vol, kind)
                in_max = np.max(np.abs(vol.values))
                assert abs(np.max(np.abs(out.values)) - in_max) <= 1e-9 * in_max
                assert np.all(np.sign(out.values) == np.sign(vol.values))

        # wavelet energy identity: factor 2 per filtered axis
        for subbands, factor in ((WAVELET_SUBBANDS_2D, 4.0),
                                 (WAVELET_SUBBANDS_3D, 8.0)):
            for _ in range(25):
                vol = make_volume(rng.standard_normal((6, 5, 4)))
                bands = [filter_wavelet(vol, band) for band in subbands]
                total = sum(float(np.sum(b.values ** 2)) for b in bands)
                expected = factor * float(np.sum(vol.values ** 2))
                assert abs(total - expected) <= 1e-9 * expected


# ---------------------------------------------------------------------------
# 5. Invariance suite
# ---------------------------------------------------------------------------

def test_criterion_5_invariance_suite(tmp_path):
    with criterion("5 invariance suite"):
        rng = np.random.default_rng(55)

        # shape features bit-identical across filter variants: the narrow
        # run and the full-catalog run must emit identical shape cells
        narrow = load_manifest(build_cohort(
            tmp_path / "narrow", n_subjects=1,
            settings={"normalizationModes": ["none"], "binWidths": [15],
                      "dimensionality": "2D", "filters": ["original"]}))
        wide = load_manifest(build_cohort(
            tmp_path / "wide", n_subjects=1,
            settings={"normalizationModes": ["none"], "binWidths": [15],
                      "dimensionality": "2D"}))  # default: full catalog
        (narrow_csv,), _ = extract_run(narrow, tmp_path / "narrow_out")
        (wide_csv,), _ = extract_run(wide, tmp_path / "wide_out")
        with open(narrow_csv, newline="") as handle:
            narrow_rows = list(csv.DictReader(handle))
        with open(wide_csv, newline="") as handle:
            wide_rows = list(csv.DictReader(handle))
        shape_cols = [c for c in narrow_rows[0] if "_shape_" in c]
        assert shape_cols
        for a, b in zip(narrow_rows, wide_rows):
            for col in shape_cols:
                assert a[col] == b[col]

        # Skewness / Kurtosis invariant under both normalization modes
        values = rng.normal(size=(7, 6, 5)) * 80 + 700
        vol = make_volume(values)
        mask_labels = np.zeros_like(values, dtype=np.uint8)
        mask_labels[1:6, 1:5, 1:4] = 1
        mask = make_mask(mask_labels)
        ref_labels = np.zeros_like(values, dtype=np.uint8)
        ref_labels[5:7, 4:6, 3:5] = 1
        reference = make_mask(ref_labels, structure=Structure.MUSCLE_REFERENCE)
        spec = DiscretizationSpec(10.0)
        base = firstorder_features(vol, mask, spec)
        for norm in (NormalizationSpec.whole_image(),
                     NormalizationSpec.reference_region(reference)):
            variant = firstorder_features(normalize(vol, norm), mask, spec)
            for name in ("Skewness", "Kurtosis"):
                assert abs(variant.get("firstorder", name)
                           - base.get("firstorder", name)) <= 1e-9

        # discretization invariant to out-of-ROI tampering
        values = rng.normal(size=(6, 6, 4)) * 30
        labels = (rng.random((6, 6, 4)) < 0.5).astype(np.uint8)
        labels[0, 0, 0] = 1
        labels[5, 5, 3] = 1
        spec = DiscretizationSpec(7.0)
        base_disc = discretize_roi(make_volume(values), make_mask(labels), spec)
        tampered = values.copy()
        tampered[labels == 0] = -1e12
        after = discretize_roi(make_volume(tampered), make_mask(labels), spec)
        assert np.array_equal(base_disc.levels, after.levels)
        assert base_disc.num_gray_levels == after.num_gray_levels

        # ... and to shifts by integer multiples of the bin width
        for c in (-3, -1, 1, 2, 5):
            shifted = discretize_roi(
                make_volume(values + c * spec.bin_width), make_mask(labels),
                spec)
            assert np.array_equal(base_disc.levels, shifted.levels)


# ---------------------------------------------------------------------------
# 6. Consistency-estimator check
# ---------------------------------------------------------------------------

def _synthetic_icc(n, sigma_w, seed):
    gen = np.random.default_rng(seed)
    y = gen.standard_normal((n, 1)) + gen.standard_normal((n, 2)) * sigma_w
    return icc_1_1(PairedMeasurements(tuple(
        (f"s{i}", y[i, 0], y[i, 1]) for i in range(n)))).icc


def test_criterion_6_consistency_estimator():
    with criterion("6 consistency estimator"):
        start = time.perf_counter()
        assert 0.45 <= _synthetic_icc(200, 1.0, seed=20) <= 0.55
        assert _synthetic_icc(200, 0.0, seed=20) > 0.99
        sweep = [_synthetic_icc(2000, sw, seed=3)
                 for sw in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(sweep, sweep[1:])), sweep
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 7. End-to-end determinism and schema
# ---------------------------------------------------------------------------

def test_criterion_7_pipeline_determinism_and_schema(tmp_path):
    with criterion("7 end-to-end determinism and schema"):
        manifest_path = build_cohort(tmp_path / "in", n_subjects=1)
        manifest = load_manifest(manifest_path)
        (csv_a,), _ = extract_run(manifest, tmp_path / "run_a")
        (csv_b,), _ = extract_run(manifest, tmp_path / "run_b")
        assert csv_a.name == csv_b.name
        assert csv_a.read_bytes() == csv_b.read_bytes()

        combos = [
            ({"normalizationModes": ["none"], "binWidths": [20],
              "dimensionality": "2D", "filters": ["original"]},
             {"noNormalization", "2D", "T2AX", "bin20"},
             {"MuscleRefNorm", "TP2Registered", "3D", "biasCorrected"}),
            ({"normalizationModes": ["wholeImage"], "binWidths": [10],
              "dimensionality": "3D", "filters": ["original"],
              "registeredMasks": True, "biasCorrected": True},
             {"3D", "T2AX", "bin10", "TP2Registered", "biasCorrected"},
             {"noNormalization", "MuscleRefNorm", "2D"}),
            ({"normalizationModes": ["referenceRegion"], "binWidths": [40],
              "dimensionality": "2D", "filters": ["original"]},
             {"MuscleRefNorm", "2D", "T2AX", "bin40"},
             {"noNormalization", "TP2Registered", "3D"}),
        ]
        for index, (settings, expected, forbidden) in enumerate(combos):
            root = tmp_path / f"combo{index}"
            manifest = load_manifest(build_cohort(
                root, n_subjects=1, settings=settings,
                with_reference="referenceRegion" in
                settings["normalizationModes"]))
            csv_paths, failures = extract_run(manifest, root / "out")
            assert not failures
            for path in csv_paths:
                validate_feature_csv(path)
                tokens = set(path.stem.split("_"))
                assert expected <= tokens, path.name
                assert not (forbidden & tokens), path.name
                parse_config_from_name(path)  # also parseable back


# ---------------------------------------------------------------------------
# 8. Analysis-layer reproduction on published data (data-dependent)
# ---------------------------------------------------------------------------

EVALDATA_ENV = "RADREP_EVALDATA_DIR"

# Volume ICC per (image type, structure) as published
PUBLISHED_VOLUME_ICC = {
    ("ADC", "WholeGland"): 0.99,
    ("ADC", "PeripheralZone"): 0.85,
    ("ADC", "Tumor"): 0.70,
    ("SUB", "Tumor"): 0.57,
    ("SUB", "PeripheralZone"): 0.51,
    ("SUB", "WholeGland"): 0.94,
    ("T2AX", "PeripheralZone"): 0.86,
    ("T2AX", "WholeGland"): 0.95,
}


@pytest.mark.skipif(EVALDATA_ENV not in os.environ,
                    reason="published extracted-feature CSVs not available "
                           f"(set {EVALDATA_ENV})")
def test_criterion_8_published_data_reproduction():
    with criterion("8 analysis-layer reproduction on published data"):
        data_dir = os.environ[EVALDATA_ENV]
        map_path = os.environ.get("RADREP_EVALDATA_TPMAP")
        timepoint_map = None
        if map_path:
            raw = json.loads(open(map_path).read())
            timepoint_map = {k: (v[0], v[1]) for k, v in raw.items()}

        import glob as globmod
        csv_paths = sorted(globmod.glob(os.path.join(data_dir, "*.csv")))
        assert csv_paths, f"no CSVs under {data_dir}"

        volume_iccs = {}
        tables = {}
        for path in csv_paths:
            config = parse_config_from_name(path)
            for structure, matrix in read_feature_csv(
                    path, timepoint_map).items():
                table = build_table(matrix, config.key(structure))
                tables[(config.stem, structure)] = table
                volume_iccs.setdefault(
                    (config.image_type, structure),
                    table.volume_reference.icc)

        for key, expected in PUBLISHED_VOLUME_ICC.items():
            assert key in volume_iccs, f"missing configuration {key}"
            assert abs(volume_iccs[key] - expected) <= 0.01, (
                key, volume_iccs[key])

        # registered vs manual: roughly half of the shared features improve
        from radrep.repeatability import config_delta
        registered = {(stem, structure): t for (stem, structure), t
                      in tables.items() if "TP2Registered" in stem}
        assert registered, "no TP2Registered configuration found"
        checked = False
        for (stem, structure), reg_table in registered.items():
            manual_stem = stem.replace("_TP2Registered", "")
            manual = tables.get((manual_stem, structure))
            if manual is None:
                continue
            delta = config_delta(manual, reg_table)
            improved = sum(1 for _, _, d in delta.shared.values() if d > 0)
            fraction = improved / len(delta.shared)
            assert 0.35 <= fraction <= 0.65, (stem, structure, fraction)
            checked = True
        assert checked, "no manual/registered table pair found"
