"""Tests of the benchmark itself, on the tiny (smoke) workload variants.

    PYTHONPATH=src python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from check import check, digests  # noqa: E402
from radrep import pipeline  # noqa: E402
from tracing import Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

pytestmark = pytest.mark.filterwarnings(
    "ignore::radrep.discretize.GrayLevelCountWarning")


def _command(inputs, out: Path, jobs: int) -> None:
    """What child.py runs, in this process."""
    if inputs.workload.command == "extract":
        manifest = pipeline.load_manifest(inputs.manifest)
        _, failures = pipeline.extract_run(manifest, out / "features", jobs=jobs)
        assert failures == []
    else:
        paths = sorted(Path(inputs.root, "features").glob("*.csv"))
        pipeline.analyze_run(paths, out / "reports", compare=inputs.compare)
        pipeline.plotdata_run(out / "reports", out / "plots")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_in_the_seed(tmp_path, name):
    generate(name, 7, tmp_path / "a", smoke=True)
    generate(name, 7, tmp_path / "b", smoke=True)
    generate(name, 8, tmp_path / "c", smoke=True)
    assert digests(tmp_path / "a") == digests(tmp_path / "b")
    assert digests(tmp_path / "a") != digests(tmp_path / "c")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_outputs_agree_and_pass_the_check(tmp_path, name):
    inputs = generate(name, 3, tmp_path / "inputs", smoke=True)
    _command(inputs, tmp_path / "untraced", jobs=1)
    with Tracer() as tracer:
        _command(inputs, tmp_path / "traced", jobs=inputs.shape.jobs)
    assert check(inputs, tmp_path / "untraced") == []
    assert digests(tmp_path / "untraced") == digests(tmp_path / "traced")
    assert not hasattr(pipeline.extract_run, "__wrapped__")

    records = tracer.to_records()
    metrics = layer_metrics(records, inputs.shape.jobs, inputs.operations)
    assert metrics["pipeline.self.s"] > 0
    assert 0 < metrics["pipeline.busy_frac"] <= 1
    if inputs.workload.command == "extract":
        assert metrics["discretize.calls_per_cell"] == 2.0
        assert metrics["features.shape.calls"] == inputs.operations / len(
            pipeline.default_filters(inputs.shape.dimensionality))
        assert metrics["volume_io.read.calls"] > 0
        assert metrics["texture_matrices.calls"] == 3 * inputs.operations
        assert 0 < metrics["texture_matrices.roi_fraction"] < 1
        assert metrics["repeatability.build_table.calls"] == 0
    else:
        assert metrics["repeatability.build_table.calls"] == inputs.operations
        assert metrics["repeatability.iccs"] == (inputs.operations
                                                 * inputs.n_features)
        assert metrics["pipeline.read_csv.bytes"] > 0
        assert metrics["discretize.calls"] == 0


def test_self_times_subtract_covered_children():
    records = [
        {"name": "root", "start": 0.0, "end": 10.0, "parent": None,
         "thread": 1, "counts": {}},
        {"name": "a", "start": 1.0, "end": 4.0, "parent": 0, "thread": 2,
         "counts": {}},
        {"name": "b", "start": 3.0, "end": 6.0, "parent": 0, "thread": 3,
         "counts": {}},
        {"name": "c", "start": 1.5, "end": 2.0, "parent": 1, "thread": 2,
         "counts": {}},
    ]
    assert self_times(records) == [5.0, 2.5, 3.0, 0.5]


@pytest.mark.parametrize("corrupt", ["value", "row"])
def test_check_rejects_wrong_extraction_output(tmp_path, corrupt):
    inputs = generate("roi-filled-2d", 1, tmp_path / "inputs", smoke=True)
    _command(inputs, tmp_path / "out", jobs=1)
    path = sorted((tmp_path / "out" / "features").glob("*.csv"))[0]
    lines = path.read_text().splitlines()
    if corrupt == "row":
        del lines[-1]
    else:
        header = lines[0].split(",")
        cells = lines[1].split(",")
        column = header.index("original_firstorder_Mean")
        cells[column] = repr(float(cells[column]) + 1e-6)
        lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert check(inputs, tmp_path / "out") != []


def test_check_rejects_wrong_volume_icc(tmp_path):
    inputs = generate("cohort-analyze", 1, tmp_path / "inputs", smoke=True)
    _command(inputs, tmp_path / "out", jobs=1)
    assert check(inputs, tmp_path / "out") == []
    (stem, structure), icc = next(iter(inputs.volume_iccs.items()))
    inputs.volume_iccs[(stem, structure)] = icc + 1e-6
    assert check(inputs, tmp_path / "out") != []


def test_benchmark_json_names_what_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    # BENCHMARK.json may list a subset: roi-filled-2d is run by hand
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    emitted = set(layer_metrics([], 1, 0)) | {
        "pipeline.csv_write.bytes", "trace.overhead_s", "trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == emitted
    for metric in spec["per_layer"]:
        assert run.layer_unit(metric["name"]) == metric["unit"]
    predictions = json.loads((BENCH / "predictions.json").read_text())
    for row in predictions:
        assert row["metric"] in emitted
        assert row["moves"] in run.END_TO_END_UNITS
        assert row["workload"] in WORKLOADS


def test_run_prints_a_correct_traced_result():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "cohort-analyze",
         "--seed", "2", "--seconds", "0", "--trace", "1", "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert result["metrics"]["repeatability.build_table.calls"]["value"] > 0


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "small-roi-3d",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
