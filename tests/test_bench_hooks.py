"""The benchmark's tracer patches radrep functions by name; keep them there.

``bench/tracing.py`` replaces each ``(owner, attr)`` of its ``TRACED``
table at the name callers look it up, and its counters read the traced
calls' arguments and results. A refactor that moves or renames one of
them, or changes what a counter reads, would silently blind a per-layer
metric, so fail here first. ``bench/workloads.py`` and ``bench/check.py``
import radrep too: every workload must still generate, run and pass its
output check.
"""

import csv
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import radrep.pipeline

from cohorts import build_cohort

BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_module(monkeypatch, name: str):
    """``bench/<name>.py``, loaded without putting ``bench`` on the path."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracing(monkeypatch):
    return bench_module(monkeypatch, "tracing")


def test_every_traced_hook_resolves_to_a_radrep_function(tracing):
    assert tracing.TRACED
    for owner, attr, span, _ in tracing.TRACED:
        target = getattr(owner, attr, None)
        assert inspect.isfunction(target), f"{owner.__name__}.{attr} ({span})"
        assert target.__module__.startswith("radrep."), \
            f"{owner.__name__}.{attr} is {target.__module__}.{target.__name__}"


def test_analysis_counters_see_csv_bytes_and_iccs(tmp_path, tracing):
    settings = {"normalizationModes": ["none"], "binWidths": [10, 20],
                "dimensionality": "2D", "filters": ["original"]}
    manifest = radrep.pipeline.load_manifest(build_cohort(
        tmp_path / "in", n_subjects=4, settings=settings,
        structures=("Tumor", "WholeGland")))
    csv_paths, _ = radrep.pipeline.extract_run(manifest, tmp_path / "out")
    # one bin-width group, so analyze_run works in this process: the tracer
    # would not see calls made in a forked worker
    with tracing.Tracer() as tracer:
        radrep.pipeline.analyze_run(csv_paths, tmp_path / "reports")
    metrics = tracing.layer_metrics(tracer.to_records(), jobs=1, cells=0)
    icc_rows = 0
    for path in (tmp_path / "reports").glob("icc__*.csv"):
        with open(path, newline="") as handle:
            icc_rows += len(list(csv.DictReader(handle)))
    assert metrics["pipeline.read_csv.bytes"] == sum(
        path.stat().st_size for path in csv_paths) > 0
    assert metrics["repeatability.build_table.calls"] == 4
    assert metrics["repeatability.iccs"] == icc_rows > 0


def test_every_extraction_layer_records_a_span(tmp_path, tracing):
    # a call routed around its hook would leave its layer's metrics at 0
    settings = {"normalizationModes": ["wholeImage", "referenceRegion"],
                "binWidths": [25], "dimensionality": "3D"}
    manifest = radrep.pipeline.load_manifest(build_cohort(
        tmp_path / "in", n_subjects=1, settings=settings,
        with_reference=True))
    with tracing.Tracer() as tracer:
        csv_paths, failures = radrep.pipeline.extract_run(manifest,
                                                          tmp_path / "out")
    assert not failures
    recorded = {span.name for span in tracer.spans}
    for name in ("volume_io.read", "volume_io.hash", "preprocess.normalize",
                 "preprocess.log", "preprocess.wavelet", "preprocess.pointwise",
                 "discretize", "texture_matrices.glcm", "texture_matrices.glrlm",
                 "texture_matrices.glszm", "features.firstorder",
                 "features.shape", "features.texture"):
        assert name in recorded, name
    # every cell makes 2 discretize_roi calls and 3 builder calls, and the
    # texture counters read the builders' first argument, the cell's level
    # grid: a builder whose first argument stops being it fails here
    rows = 0
    for path in csv_paths:
        with open(path, newline="") as handle:
            rows += len(list(csv.DictReader(handle)))
    cells = rows * len(manifest.settings.filters)
    metrics = tracing.layer_metrics(tracer.to_records(), jobs=1, cells=cells)
    assert metrics["discretize.calls_per_cell"] == 2.0
    assert metrics["texture_matrices.calls"] == 3 * cells > 0
    assert (metrics["texture_matrices.grid_voxels"]
            == 1.5 * metrics["discretize.grid_voxels"] > 0)
    assert (metrics["texture_matrices.roi_fraction"]
            == metrics["discretize.roi_fraction"])


def test_every_bench_workload_runs_and_passes_its_check(tmp_path, monkeypatch):
    workloads = bench_module(monkeypatch, "workloads")
    check = bench_module(monkeypatch, "check")
    assert workloads.WORKLOADS
    for name in sorted(workloads.WORKLOADS):
        inputs = workloads.generate(name, 3, tmp_path / name / "inputs",
                                    smoke=True)
        out = tmp_path / name / "out"
        if inputs.workload.command == "extract":
            manifest = radrep.pipeline.load_manifest(inputs.manifest)
            _, failures = radrep.pipeline.extract_run(
                manifest, out / "features", jobs=inputs.shape.jobs)
            assert failures == [], name
        else:
            paths = sorted((inputs.root / "features").glob("*.csv"))
            radrep.pipeline.analyze_run(paths, out / "reports",
                                        compare=inputs.compare)
            radrep.pipeline.plotdata_run(out / "reports", out / "plots")
        assert check.check(inputs, out) == [], name
