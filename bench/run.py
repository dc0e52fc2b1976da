"""Benchmark of radrep's ``extract`` and ``analyze`` commands.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

run from the root of a checkout; ``--smoke`` selects the tiny variant
of the workload. The run generates the workload's inputs from the seed
under ``.bench_work/`` (outside every timed interval), then runs the
command in fresh child processes, one at a time (a closed loop with one
client), and deletes ``.bench_work/<run>`` at the end. The first command
runs with ``--jobs 1``, warms the file and bytecode caches, is not
timed, and gives the reference output digests. Timed commands follow
with the workload's worker count for about ``--seconds`` (at least
three). Every command's outputs are checked (``check.py``) and their
SHA-256 digests must equal the reference, so worker count, tracing and
reruns may not change output bytes.

With ``--trace 0`` the run reports end-to-end metrics, as medians:

- ``setup_s``: from spawning the process until extraction or analysis
  starts (interpreter start, ``radrep`` import, ``load_manifest``).
- ``command_s``: wall time of ``extract_run`` (``extract_s``) or of
  ``analyze_run`` + ``plotdata_run`` (``analyze_s``).
- ``peak_rss_mb``: peak resident memory of the command's process, from
  the rusage ``os.wait4`` returns for it.

With ``--trace 1`` untraced and traced commands alternate and the run
reports the per-layer metrics of ``tracing.py`` (medians over the traced
commands), the bytes the command wrote, and the tracing overhead.

An extract operation is one (row, filter, mode, bin width) cell, an
analyze operation one (CSV, structure) table. A command whose output
check fails counts all its operations as failed. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give each metric with
its unit, quartiles, maximum and sample count, and ``failed_frac``.

The benchmark's own tests: ``PYTHONPATH=src python3 -m pytest bench``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_TIMED = 3
RUN_BUDGET_S = 165.0  # a run must exit within 180 s

END_TO_END_UNITS = {"setup_s": "s", "command_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    ".s": "s", "_s": "s", ".calls": "count", ".calls_per_cell": "calls/cell",
    ".bytes": "bytes", ".voxels": "voxels", ".grid_voxels": "voxels",
    ".iccs": "count", "_fraction": "ratio", "_frac": "ratio",
}


@dataclass
class Sample:
    """One command: its metrics, output digests and problems found."""

    setup_s: float = 0.0
    command_s: float = 0.0
    peak_rss_mb: float = 0.0
    output_bytes: int = 0
    digests: dict = field(default_factory=dict)
    spans: list | None = None
    problems: list = field(default_factory=list)


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap ``proc``, killing it after ``timeout`` s; returns its rusage."""
    previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


class Runner:
    """Runs commands of one workload's inputs and checks their outputs."""

    def __init__(self, inputs, work: Path, deadline: float):
        self.inputs = inputs
        self.work = work
        self.deadline = deadline
        self.reference: dict | None = None
        self.attempted = 0
        self.failed = 0
        self._count = 0

    def run(self, jobs: int, traced: bool) -> Sample:
        from check import check, digests

        run_dir = self.work / f"command{self._count}"
        self._count += 1
        out = run_dir / "out"
        out.mkdir(parents=True)
        inputs = self.inputs
        spec = {
            "src": str(SRC), "command": inputs.workload.command, "jobs": jobs,
            "traced": traced, "out": str(out),
            "manifest": str(inputs.manifest), "csv_glob": inputs.csv_glob,
            "compare": inputs.compare, "result": str(run_dir / "result.json"),
        }
        spec_path = run_dir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        env = dict(os.environ, PYTHONPATH=str(SRC))
        sample = Sample()
        with open(run_dir / "stderr.txt", "wb") as stderr:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "child.py"), str(spec_path)],
                stdout=subprocess.DEVNULL, stderr=stderr, env=env)
            try:
                usage = _wait(proc, self.deadline - time.monotonic())
            finally:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        if proc.returncode != 0:
            tail = (run_dir / "stderr.txt").read_text(errors="replace")[-2000:]
            sample.problems.append(f"command exited with {proc.returncode}: "
                                   f"{tail}")
        else:
            result = json.loads((run_dir / "result.json").read_text())
            sample.setup_s = result["ready"] - spawned
            sample.command_s = result["command_s"]
            sample.peak_rss_mb = usage.ru_maxrss / 1024.0
            sample.spans = result.get("spans")
            if result["failures"]:
                sample.problems.append(f"{result['failures']} extraction "
                                       "failure(s)")
            sample.problems += check(inputs, out)
            sample.digests = digests(out)
            sample.output_bytes = sum(p.stat().st_size
                                      for p in out.rglob("*") if p.is_file())
            if self.reference is None:
                self.reference = sample.digests
            elif sample.digests != self.reference:
                changed = sorted(k for k in set(sample.digests) | set(self.reference)
                                 if sample.digests.get(k) != self.reference.get(k))
                sample.problems.append(f"output digests differ from the "
                                       f"reference run: {changed[:5]}")
        shutil.rmtree(run_dir)
        self.attempted += inputs.operations
        if sample.problems:
            self.failed += inputs.operations
            for problem in sample.problems[:5]:
                print(f"check failed: {problem}", file=sys.stderr)
        return sample


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def measure(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> dict:
    """Run one benchmark; returns the result object (see module docstring)."""
    from tracing import layer_metrics
    from workloads import generate

    started = time.monotonic()
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = generate(name, seed, work / "inputs", smoke=smoke)
        jobs = inputs.shape.jobs
        runner = Runner(inputs, work, started + RUN_BUDGET_S)
        runner.run(jobs=1, traced=False)
        timed, traced = [], []
        loop_start = time.monotonic()
        last = 0.0
        # start a command only if it should end within half a command of
        # --seconds, so runs overshoot by none on average
        while (len(timed) < MIN_TIMED
               or time.monotonic() - loop_start + last / 2 < seconds):
            if time.monotonic() + last > runner.deadline:
                break
            begin = time.monotonic()
            timed.append(runner.run(jobs=jobs, traced=False))
            if trace:
                traced.append(runner.run(jobs=jobs, traced=True))
            last = time.monotonic() - begin
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    good = [s for s in timed if not s.problems]
    good_traced = [s for s in traced if not s.problems and s.spans]
    if not good or (trace and not good_traced):
        raise RuntimeError("no command completed with correct outputs")
    command = "extract_s" if inputs.workload.command == "extract" else "analyze_s"
    print(f"workload {name}, seed {seed}, --jobs {jobs}; closed loop, one "
          f"command at a time; {len(timed)} timed commands")
    if trace:
        cells = inputs.operations if inputs.workload.command == "extract" else 0
        per_command = [layer_metrics(s.spans, jobs, cells) for s in good_traced]
        metrics = {key: _median([m[key] for m in per_command])
                   for key in per_command[0]}
        metrics["pipeline.csv_write.bytes"] = _median(
            [s.output_bytes for s in good_traced])
        untraced_s = _median([s.command_s for s in good])
        overhead = _median([s.command_s for s in good_traced]) - untraced_s
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_frac"] = overhead / untraced_s
        metrics = {key: {"value": value, "unit": layer_unit(key)}
                   for key, value in metrics.items()}
        for key, metric in metrics.items():
            print(f"  {key:32s} {metric['value']:.6g} {metric['unit']} "
                  f"(median of {len(good_traced)} traced commands)")
    else:
        metrics = {}
        for key, unit in END_TO_END_UNITS.items():
            values = [getattr(s, key) for s in good]
            metrics[key] = {"value": _median(values), "unit": unit}
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else values * 3)
            label = command if key == "command_s" else key
            print(f"  {label:12s} median {_median(values):.4f} {unit} "
                  f"(quartiles {q1:.4f}-{q3:.4f}, max {max(values):.4f}, "
                  f"n={len(values)})")
    print(f"  {'failed_frac':12s} {runner.failed / runner.attempted:.4f} "
          f"({runner.failed} of {runner.attempted} operations)")
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "radrep" / "__init__.py").is_file():
        print(f"error: no radrep sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.smoke)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
